#!/usr/bin/env python3
"""Operator power means and relative operator entropies on weighted fields:
the variational identity, weighted aggregation, homogeneity, subadditivity,
and the mean-of-integrals comparison."""

import numpy as np

from opentropy import (
    OperatorField,
    PositiveDefiniteMatrix,
    generalized_entropy,
    loewner_leq,
    mean_field,
    natural_power,
    relative_entropy,
    variational_form,
)
from opentropy.functions import LOG, power

rng = np.random.default_rng(1)


def rand_pd(dim):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    return PositiveDefiniteMatrix(g @ g.conj().T + 2.0 * np.eye(dim))


a, b = rand_pd(4), rand_pd(4)

print("=== natural power X #_q Y ===")
print("q=0 recovers X:", np.linalg.norm(natural_power(a, b, 0.0).array - a.array) < 1e-11)
print("q=1 recovers Y:", np.linalg.norm(natural_power(a, b, 1.0).array - b.array) < 1e-10)
geo = natural_power(a, b, 0.5)
print("q=1/2 geometric mean, lambda_min:", geo.lambda_min)

print()
print("=== relative entropy and its variational form ===")
for q in (-0.5, 0.0, 0.5, 1.0):
    direct = relative_entropy(a, b, q, LOG)
    flipped = variational_form(a, b, q, LOG)
    err = np.linalg.norm(direct.array - flipped.array) / np.linalg.norm(direct.array)
    print(f"q={q:+.1f}: relative discrepancy {err:.2e}")

print()
print("=== weighted field aggregates ===")
weights = [0.6, 1.4]
fa = OperatorField.from_matrices(weights, [rand_pd(3), rand_pd(3)])
fb = OperatorField.from_matrices(weights, [rand_pd(3), rand_pd(3)])
s = generalized_entropy(fa, fb, 0.0, power(0.5))
print("aggregated entropy (f = sqrt, q = 0), lambda_min:",
      np.linalg.eigvalsh(s.array)[0], " (f >= 0 keeps it PSD)")

alpha = 2.0
scaled = generalized_entropy(fa.scaled(alpha), fb.scaled(alpha), 0.0, power(0.5))
print("homogeneity residual:", np.linalg.norm(scaled.array - alpha * s.array))

print()
print("=== subadditivity at q=0 ===")
fc = OperatorField.from_matrices(weights, [rand_pd(3), rand_pd(3)])
fd = OperatorField.from_matrices(weights, [rand_pd(3), rand_pd(3)])
lhs = generalized_entropy(fa.nodewise_sum(fb), fc.nodewise_sum(fd), 0.0, LOG)
rhs = generalized_entropy(fa, fc, 0.0, LOG) + generalized_entropy(fb, fd, 0.0, LOG)
holds, margin = loewner_leq(rhs, lhs)
print(f"S(FA+FB | FC+FD) >= S(FA|FC) + S(FB|FD): holds={holds}, margin={margin:.6f}")

print()
print("=== node-wise means vs mean of the integrals ===")
for p in (0.25, 0.5, 0.75):
    lhs = mean_field(fa, fb, p)
    rhs = natural_power(
        PositiveDefiniteMatrix(fa.weighted_sum()),
        PositiveDefiniteMatrix(fb.weighted_sum()),
        p,
    )
    holds, margin = loewner_leq(lhs, rhs)
    print(f"p={p}: sum_s w_s (A_s #_p B_s) <= (sum w A) #_p (sum w B): "
          f"holds={holds}, margin={margin:.6f}")
