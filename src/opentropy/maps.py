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

from .errors import PreconditionError, ShapeError, _number
from .matcore import _NORMALIZED_TOL, _adjoint, _cgauss, _entries, _freeze, _frobenius, _haar, _symmetrize

__all__ = ["PositiveLinearMap"]


def _haar_blocks(gauss: np.ndarray) -> np.ndarray:
    """The n row blocks (n, in, out) of the Haar isometry of n stacked complex
    Gaussians (n, in, out), n in >= out: Kraus factors with sum C_i* C_i = I."""
    return _haar(gauss.reshape(-1, gauss.shape[-1])).reshape(gauss.shape)


class PositiveLinearMap:
    """Positive linear map X -> sum_i C_i* X C_i given by Kraus factors C_i,
    matrices of one shape with finite entries (PreconditionError otherwise)."""

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
        if not np.isfinite(self._kraus).all():
            raise PreconditionError("Kraus factors must have finite entries")
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

    def is_normalized(self) -> bool:
        """True when sum_i C_i* C_i = I within the fixed 1e-10 in Frobenius norm."""
        return _frobenius(self.kraus_gram() - np.eye(self._out_dim)) <= _NORMALIZED_TOL

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        """Phi(X) for an (in, in) array, or node by node for a stack (..., in, in):
        every factor in one stacked product, summed over the factors in order
        (the bits of one product per factor added one after another).  An
        intermediate, Hermitian up to rounding for a Hermitian X (matcore's
        rule); `apply` symmetrizes what it returns."""
        c = self._kraus.reshape(len(self._kraus), *(1,) * (x.ndim - 2), self._in_dim, self._out_dim)
        return (_adjoint(c) @ x @ c).sum(axis=0)

    def apply(self, x) -> np.ndarray:
        """Phi(X) as a read-only array, for an array-like or a PositiveDefiniteMatrix X."""
        arr = _entries(x)
        if arr.shape != (self._in_dim, self._in_dim):
            raise ShapeError(f"map expects a {self._in_dim}x{self._in_dim} input, got {arr.shape}")
        return _freeze(_symmetrize(self.apply_array(arr)))

    @classmethod
    def random_normalized(cls, in_dim: int, out_dim: int, n_terms: int, rng) -> "PositiveLinearMap":
        """Sample complex Gaussians G_i and return C_i, the row blocks of the Haar
        isometry (`matcore._haar`) of the stacked [G_1; ...; G_n]: exactly unital.

        The law is that of the polar factor C_i = G_i S^{-1/2}, S = sum G_i* G_i,
        as both are Haar isometries; the QR's orthonormal columns keep sum C_i* C_i
        = I to rounding (about 1e-14), where an eigensolve of S leaves errors near
        the 1e-10 tolerance of is_normalized.
        """
        n_terms = _number(n_terms, "n_terms", 1, integer=True)
        in_dim, out_dim = _number(in_dim, "in_dim", 1, integer=True), _number(out_dim, "out_dim", 1, integer=True)
        if n_terms * in_dim < out_dim:
            raise PreconditionError(f"{n_terms} terms of {in_dim}x{out_dim} cannot sum to I_{out_dim}")
        return cls(_haar_blocks(_cgauss(rng, (n_terms, in_dim, out_dim))))

    def __repr__(self) -> str:
        return f"PositiveLinearMap(terms={len(self._kraus)}, {self._in_dim}->{self._out_dim})"
