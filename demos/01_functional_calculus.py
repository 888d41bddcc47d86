#!/usr/bin/env python3
"""Tour of the Hermitian kernel: eigendecompositions, functional calculus,
Loewner-order comparison, and the tightest sandwich constants of a PD pair."""

import numpy as np

from opentropy import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    apply_function,
    eig,
    loewner_leq,
    sandwich_bounds,
)
from opentropy.functions import IDENTITY, LOG, power

rng = np.random.default_rng(0)

print("=== eigendecomposition ===")
h = HermitianMatrix([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])
d = eig(h)
print("eigenvalues:", d.eigenvalues)
print("reconstruction residual:", np.linalg.norm(d.reconstruct() - h.array))

print()
print("=== functional calculus ===")
a = PositiveDefiniteMatrix(np.diag([1.0, 4.0, 9.0]))
print("sqrt of diag(1,4,9):", np.diag(apply_function(a, power(0.5)).array).real)
print("log  of diag(1,4,9):", np.diag(apply_function(a, LOG).array).real)

root, inv_root = a.sqrt(), a.inv_sqrt()
print("A^(1/2) . A^(-1/2) residual:", np.linalg.norm(root.array @ inv_root.array - np.eye(3)))

print()
print("=== Loewner order ===")
g = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
b = PositiveDefiniteMatrix(g @ g.conj().T + 2.0 * np.eye(3))
holds, margin = loewner_leq(apply_function(b, LOG), apply_function(b, IDENTITY))
print(f"log(B) <= B: holds={holds}, margin={margin:.6f}  (since log t <= t)")

incomparable = loewner_leq(
    HermitianMatrix(np.diag([1.0, 3.0])), HermitianMatrix(np.diag([2.0, 2.0]))
)
print("diag(1,3) vs diag(2,2):", incomparable, " (neither dominates)")

print()
print("=== sandwich constants ===")
m, M = sandwich_bounds(a, b.scaled(1.0 / 3.0))
print(f"tightest m, M with m*A <= B <= M*A: ({m:.4f}, {M:.4f})")
print("check m*A <= B:", loewner_leq(a.scaled(m), b.scaled(1.0 / 3.0))[0])
print("check B <= M*A:", loewner_leq(b.scaled(1.0 / 3.0), a.scaled(M))[0])
