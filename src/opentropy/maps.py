"""Normalized positive linear maps in Kraus form.

A map Phi(X) = sum_i C_i* X C_i is positive by construction and normalized
(unital) when sum_i C_i* C_i = I.  The Jensen inequality f(Phi(A)) >= Phi(f(A))
for such maps and its reverses are the compression statements of the verify
module (a unital compression family is a Kraus family).
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, ShapeError
from .matcore import _adjoint, _array_from_json, _entries, _freeze, _frobenius, _svd, _symmetrize, matrix_to_json

__all__ = ["PositiveLinearMap", "map_to_json", "map_from_json"]


class PositiveLinearMap:
    """Positive linear map X -> sum_i C_i* X C_i given by Kraus factors C_i."""

    __slots__ = ("_kraus", "_in_dim", "_out_dim")

    def __init__(self, kraus):
        factors = [np.asarray(c, dtype=complex) for c in kraus]
        if not factors:
            raise PreconditionError("a positive linear map needs at least one Kraus factor")
        shape = factors[0].shape
        if len(shape) != 2:
            raise ShapeError("Kraus factors must be matrices")
        if any(c.shape != shape for c in factors):
            raise ShapeError("Kraus factors must share one shape")
        for c in factors:
            c.setflags(write=False)
        self._kraus = tuple(factors)
        self._in_dim, self._out_dim = int(shape[0]), int(shape[1])

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        return self._kraus

    @property
    def in_dim(self) -> int:
        return self._in_dim

    @property
    def out_dim(self) -> int:
        return self._out_dim

    def kraus_gram(self) -> np.ndarray:
        """sum_i C_i* C_i, one stacked product summed over the factors; equals
        I_out to rounding (about 1e-14) when the map is normalized."""
        c = np.array(self._kraus)
        return _symmetrize((_adjoint(c) @ c).sum(axis=0))

    def is_normalized(self, tol: float = 1e-10) -> bool:
        return _frobenius(self.kraus_gram() - np.eye(self._out_dim)) <= tol

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        """Phi(X) for an (in, in) array, or node by node for a stack (..., in, in)."""
        return _symmetrize(sum(c.conj().T @ x @ c for c in self._kraus))

    def apply(self, x) -> np.ndarray:
        """Phi(X) as a read-only array, for an array-like or a PositiveDefiniteMatrix X."""
        arr = _entries(x)
        if arr.shape != (self._in_dim, self._in_dim):
            raise ShapeError(f"map expects a {self._in_dim}x{self._in_dim} input, got {arr.shape}")
        return _freeze(self.apply_array(arr))

    @classmethod
    def random_normalized(cls, in_dim: int, out_dim: int, n_terms: int, rng) -> "PositiveLinearMap":
        """Sample G_i and return C_i = G_i S^{-1/2} with S = sum G_i* G_i: exactly unital.

        The C_i are the row blocks of the polar factor U V* of the stacked
        [G_1; ...; G_n] = U diag(sigma) V* (thin SVD), whose orthonormal
        columns keep sum C_i* C_i = I to rounding (about 1e-14); an eigensolve
        of S leaves errors near the 1e-10 tolerance of is_normalized.
        """
        n = max(1, int(n_terms))
        if n * in_dim < out_dim:
            raise PreconditionError(f"{n} terms of {in_dim}x{out_dim} cannot sum to I_{out_dim}")
        # One call draws the variates that n (real, imaginary) pairs of calls would.
        z = rng.standard_normal((n, 2, in_dim, out_dim))
        g = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
        u, _, vh = _svd(g.reshape(n * in_dim, out_dim))
        return cls((u @ vh).reshape(n, in_dim, out_dim))

    def __repr__(self) -> str:
        return f"PositiveLinearMap(terms={len(self._kraus)}, {self._in_dim}->{self._out_dim})"


def map_to_json(p: PositiveLinearMap) -> dict:
    """Exchange format: {"kraus": [matrix, ...]} using the matcore matrix layout."""
    if p.in_dim != p.out_dim:
        raise ShapeError("only square Kraus families are serializable")
    return {"kraus": [matrix_to_json(c) for c in p.kraus]}


def map_from_json(data: dict) -> PositiveLinearMap:
    return PositiveLinearMap([_array_from_json(d) for d in data["kraus"]])
