#!/usr/bin/env python3
"""Chord data and reverse Jensen constants: the ratio bound gamma, the gap
bound zeta, their closed forms for log t and -t log t, and the Jensen
inequality with both reverses for a normalized positive linear map, checked
through the compression statements."""

import math

import numpy as np

from opentropy import (
    Instance,
    PositiveDefiniteMatrix,
    PositiveLinearMap,
    TheoremId,
    check,
    chord_gap_bound,
    chord_ratio_bound,
    identric_mean,
    logarithmic_mean,
    secant_data,
    zeta_closed_forms,
)
from opentropy.functions import LOG, NEG_T_LOG_T, power

print("=== secant data for sqrt on [1, 4] ===")
data = secant_data(power(0.5), 1.0, 4.0)
print(f"chord: {data.mu:.6f} * t + {data.nu:.6f}")
print(f"gamma = {data.gamma:.12f} at t = {data.argmax_gamma:.6f}   (3*sqrt(2)/4 = {3*math.sqrt(2)/4:.12f})")
print(f"zeta  = {data.zeta:.12f} at t = {data.argmax_zeta:.6f}   (1/12 = {1/12:.12f})")

print()
print("=== closed forms on [m, M] with m < 1 < M ===")
m, M = 0.5, 2.0
zeta_log, zeta_neg = zeta_closed_forms(m, M)
print(f"L({m}, {M}) = {logarithmic_mean(m, M):.10f},  I({m}, {M}) = {identric_mean(m, M):.10f}")
print(f"gap bound for log t     : closed {zeta_log:.12f}  numeric {chord_gap_bound(LOG, m, M):.12f}")
print(f"gap bound for -t log t  : closed {zeta_neg:.12f}  numeric {chord_gap_bound(NEG_T_LOG_T, m, M):.12f}")

print()
print("=== ratio bound needs a positive chord ===")
print("log on [0.5, 2] has gamma:", secant_data(LOG, 0.5, 2.0).gamma, "(chord changes sign)")
print("log on [1, e^2] extends to the endpoint limit:",
      chord_ratio_bound(LOG, 1.0, math.e ** 2), "= (M-1)/log M =", (math.e ** 2 - 1) / 2.0)

print()
print("=== Jensen and its reverses for a random normalized map ===")
rng = np.random.default_rng(2)
pm = PositiveLinearMap.random_normalized(4, 4, 2, rng)
g = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
a = PositiveDefiniteMatrix(g @ g.conj().T + 2.0 * np.eye(4))
# Kraus factors with sum C_i* C_i = I form a unital compression family with
# unit weights: the lifted argument is Phi(A) itself and t0 drops out.
inst = Instance(
    theorem=TheoremId.COMPRESSION_JENSEN, seed=2, dim=4, k=len(pm.kraus), f=power(0.5),
    t0=a.lambda_min, m=a.lambda_min, M=a.lambda_max,
    cs=pm.kraus, cs_weights=np.ones(len(pm.kraus)), x=a,
)
for theorem, claim in (
    (TheoremId.COMPRESSION_JENSEN, "f(Phi(A)) >= Phi(f(A))         "),
    (TheoremId.REV_JENSEN_GAMMA, "f(Phi(A)) <= gamma*Phi(f(A))   "),
    (TheoremId.REV_JENSEN_ZETA, "f(Phi(A)) <= Phi(f(A)) + zeta*I"),
):
    print(f"{claim} margin {check(theorem, inst).margin:+.6f}")
