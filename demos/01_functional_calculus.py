#!/usr/bin/env python3
"""Tour of the Hermitian kernel: eigendecompositions, functional calculus,
Loewner-order comparison, and the tightest sandwich constants of a PD pair.
A Hermitian matrix is a plain complex array; PositiveDefiniteMatrix holds a
PD matrix with its eigendecomposition, solved once at construction."""

import numpy as np

from opentropy import (
    PairSpectrum,
    PositiveDefiniteMatrix,
    apply_function,
    eig,
    loewner_leq,
)
from opentropy.functions import IDENTITY, LOG, power

rng = np.random.default_rng(0)

print("=== eigendecomposition ===")
h = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])
d = eig(h)
print("eigenvalues:", d.eigenvalues)
print("reconstruction residual:", np.linalg.norm(d.reconstruct() - h))

print()
print("=== functional calculus ===")
a = PositiveDefiniteMatrix(np.diag([1.0, 4.0, 9.0]))
root = apply_function(a, power(0.5))
print("sqrt of diag(1,4,9):", np.diag(root).real)
print("log  of diag(1,4,9):", np.diag(apply_function(a, LOG)).real)
print("A^(1/2) . A^(1/2) . A^(-1) residual:", np.linalg.norm(root @ root @ a.inv().array - np.eye(3)))

print()
print("=== Loewner order ===")
g = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
b = PositiveDefiniteMatrix(g @ g.conj().T + 2.0 * np.eye(3))
holds, margin = loewner_leq(apply_function(b, LOG), apply_function(b, IDENTITY))
print(f"log(B) <= B: holds={holds}, margin={margin:.6f}  (since log t <= t)")

incomparable = loewner_leq(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]))
print("diag(1,3) vs diag(2,2):", incomparable, " (neither dominates)")

print()
print("=== sandwich constants ===")
c = PositiveDefiniteMatrix(b.array / 3.0)
spectrum = PairSpectrum(a, c)
m, M = spectrum.m, spectrum.M
print(f"tightest m, M with m*A <= C <= M*A, C = B/3: ({m:.4f}, {M:.4f})")
print("check m*A <= C:", loewner_leq(m * a.array, c)[0])
print("check C <= M*A:", loewner_leq(c, M * a.array)[0])
