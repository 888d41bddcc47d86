"""Positive linear maps in Kraus form.

A map Phi(X) = sum_i C_i* X C_i is positive by construction, normalized
(unital) when sum_i C_i* C_i = I and sub-unital when sum_i C_i* C_i <= I.  The
lifted Jensen inequality for a sub-unital map and its reverses are the
compression statements of the verify module, whose compression family draws
its map in this form; `map_monotone` reads a normalized one.  A map's JSON
form, its Kraus factors, is verify's.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, ShapeError
from .matcore import _adjoint, _entries, _freeze, _frobenius, _svd, _symmetrize

__all__ = ["PositiveLinearMap"]


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
        # One read-only (n, in, out) stack; `kraus` reads its factors as views.
        self._kraus = np.array(factors)
        self._kraus.setflags(write=False)
        self._in_dim, self._out_dim = int(shape[0]), int(shape[1])

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        return tuple(self._kraus)

    @property
    def in_dim(self) -> int:
        return self._in_dim

    @property
    def out_dim(self) -> int:
        return self._out_dim

    def kraus_gram(self) -> np.ndarray:
        """sum_i C_i* C_i, one stacked product summed over the factors; equals
        I_out to rounding (about 1e-14) when the map is normalized."""
        return _symmetrize((_adjoint(self._kraus) @ self._kraus).sum(axis=0))

    def is_normalized(self, tol: float = 1e-10) -> bool:
        return _frobenius(self.kraus_gram() - np.eye(self._out_dim)) <= tol

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        """Phi(X) for an (in, in) array, or node by node for a stack (..., in, in):
        every factor in one stacked product, summed over the factors in order
        (the bits of one product per factor added one after another)."""
        c = self._kraus.reshape(len(self._kraus), *(1,) * (x.ndim - 2), self._in_dim, self._out_dim)
        return _symmetrize((_adjoint(c) @ x @ c).sum(axis=0))

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
