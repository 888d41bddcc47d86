"""Operator power means and relative operator entropies over weighted fields.

The central objects are the natural power

    X #_q Y = X^{1/2} (X^{-1/2} Y X^{-1/2})^q X^{1/2}        (q real)

which for q in [0, 1] is the weighted geometric mean, and the relative
entropy of a strictly positive pair

    S(A, B; q, f) = A^{1/2} T^q f(T) A^{1/2},   T = A^{-1/2} B A^{-1/2}.

With q = 0 and f = log this is the Fujii-Kamei relative operator entropy.
Weighted node families (OperatorField) stand in for continuous fields with a
finite measure: integration is the weighted sum, which satisfies the defining
linear-functional identity exactly in finite dimensions.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, ShapeError
from .functions import ScalarFunction
from .matcore import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    _symmetrize,
    matrix_from_json,
    matrix_to_json,
)

__all__ = [
    "OperatorField",
    "PairSpectrum",
    "natural_power",
    "relative_entropy",
    "variational_form",
    "generalized_entropy",
    "mean_field",
    "field_to_json",
    "field_from_json",
]


class OperatorField:
    """Finite weighted family {(w_s, A_s)} of PD matrices of one dimension."""

    __slots__ = ("_weights", "_matrices")

    def __init__(self, nodes):
        nodes = list(nodes)
        if not nodes:
            raise PreconditionError("an operator field needs at least one node")
        weights = np.array([float(w) for w, _ in nodes])
        matrices = tuple(m for _, m in nodes)
        if np.any(weights <= 0.0):
            raise PreconditionError("field weights must be strictly positive")
        dims = {m.dim for m in matrices}
        if len(dims) != 1:
            raise ShapeError(f"field nodes have mixed dimensions {sorted(dims)}")
        weights.setflags(write=False)
        self._weights = weights
        self._matrices = matrices

    @classmethod
    def from_matrices(cls, weights, matrices) -> "OperatorField":
        return cls(zip(weights, matrices))

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def matrices(self) -> tuple[PositiveDefiniteMatrix, ...]:
        return self._matrices

    @property
    def dim(self) -> int:
        return self._matrices[0].dim

    def __len__(self) -> int:
        return len(self._matrices)

    def __iter__(self):
        return iter(zip(self._weights, self._matrices))

    def weighted_sum(self) -> np.ndarray:
        """sum_s w_s A_s, standing in for the Bochner integral of the field."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for w, m in self:
            out += w * m.array
        return _symmetrize(out)

    def is_normalized(self, tol: float = 1e-10) -> bool:
        """True when sum_s w_s A_s = I within `tol` in Frobenius norm."""
        residual = self.weighted_sum() - np.eye(self.dim)
        return float(np.linalg.norm(residual)) <= tol

    def scaled(self, alpha: float) -> "OperatorField":
        """Scale the matrices (not the weights) by alpha > 0."""
        return OperatorField((w, m.scaled(alpha)) for w, m in self)

    def nodewise_sum(self, other: "OperatorField") -> "OperatorField":
        _require_aligned(self, other)
        return OperatorField(
            (w, PositiveDefiniteMatrix(a.array + b.array))
            for (w, a), (_, b) in zip(self, other)
        )

    def blend(self, other: "OperatorField", alpha: float, beta: float) -> "OperatorField":
        """Node-wise alpha*A_s + beta*B_s for positive alpha, beta."""
        _require_aligned(self, other)
        if alpha <= 0.0 or beta <= 0.0:
            raise PreconditionError("blend coefficients must be positive")
        return OperatorField(
            (w, PositiveDefiniteMatrix(alpha * a.array + beta * b.array))
            for (w, a), (_, b) in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"OperatorField(k={len(self)}, dim={self.dim})"


def _require_aligned(fa: OperatorField, fb: OperatorField) -> None:
    if len(fa) != len(fb):
        raise ShapeError(f"fields have {len(fa)} vs {len(fb)} nodes")
    if fa.dim != fb.dim:
        raise ShapeError(f"fields have dimension {fa.dim} vs {fb.dim}")
    if not np.allclose(fa.weights, fb.weights, rtol=1e-12, atol=1e-12):
        raise PreconditionError("fields must share one weight vector node-for-node")


class PairSpectrum:
    """Cached spectral data of the relative arrangement of a PD pair (A, B).

    Stores the eigenvalues `lam` of T = A^{-1/2} B A^{-1/2} and the frame
    Q = A^{1/2} U, so that A^{1/2} g(T) A^{1/2} = Q diag(g(lam)) Q* for any
    scalar g.  Every mean and entropy of the pair is one diagonal scaling away.
    """

    __slots__ = ("eigenvalues", "frame")

    def __init__(self, a: PositiveDefiniteMatrix, b: PositiveDefiniteMatrix):
        if a.dim != b.dim:
            raise ShapeError(f"pair dimension mismatch: {a.dim} vs {b.dim}")
        r = a.inv_sqrt_array
        t = _symmetrize(r @ b.array @ r)
        lam, u = np.linalg.eigh(t)
        self.eigenvalues = lam
        self.frame = a.sqrt_array @ u

    @property
    def m(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def M(self) -> float:
        return float(self.eigenvalues[-1])

    def conjugate(self, values) -> np.ndarray:
        """Q diag(values) Q* (Hermitian for real `values`)."""
        q = self.frame
        return _symmetrize((q * np.asarray(values)) @ q.conj().T)

    def power_mean(self, q: float) -> np.ndarray:
        return self.conjugate(self.eigenvalues ** float(q))

    def entropy_term(self, q: float, f: ScalarFunction) -> np.ndarray:
        lam = self.eigenvalues
        return self.conjugate(lam ** float(q) * f.evaluate_array(lam))


def natural_power(x: PositiveDefiniteMatrix, y: PositiveDefiniteMatrix, q: float) -> PositiveDefiniteMatrix:
    """X #_q Y = X^{1/2} (X^{-1/2} Y X^{-1/2})^q X^{1/2}; PD for any real q."""
    return PositiveDefiniteMatrix(PairSpectrum(x, y).power_mean(q))


def relative_entropy(
    a: PositiveDefiniteMatrix, b: PositiveDefiniteMatrix, q: float, f: ScalarFunction
) -> HermitianMatrix:
    """A^{1/2} T^q f(T) A^{1/2} with T = A^{-1/2} B A^{-1/2}.

    The spectrum of T must lie in the domain of f.  With q = 0, f = log this
    is the relative operator entropy S(A|B).
    """
    return HermitianMatrix(PairSpectrum(a, b).entropy_term(q, f))


def variational_form(
    a: PositiveDefiniteMatrix, b: PositiveDefiniteMatrix, q: float, f: ScalarFunction
) -> HermitianMatrix:
    """The same entropy computed through the flipped pair:

        B * S(B^{-1}, A^{-1}; q-1, f) * B

    which agrees with relative_entropy(a, b, q, f) identically.
    """
    inner = relative_entropy(b.inv(), a.inv(), q - 1.0, f)
    return HermitianMatrix(b.array @ inner.array @ b.array)


def generalized_entropy(
    fa: OperatorField, fb: OperatorField, q: float, f: ScalarFunction
) -> HermitianMatrix:
    """sum_s w_s S(A_s, B_s; q, f) over node-aligned fields."""
    _require_aligned(fa, fb)
    out = np.zeros((fa.dim, fa.dim), dtype=complex)
    for (w, a), (_, b) in zip(fa, fb):
        out += w * PairSpectrum(a, b).entropy_term(q, f)
    return HermitianMatrix(out)


def mean_field(fa: OperatorField, fb: OperatorField, p: float) -> HermitianMatrix:
    """sum_s w_s (A_s #_p B_s) for p in [0, 1]."""
    if not 0.0 <= float(p) <= 1.0:
        raise PreconditionError(f"mean_field requires p in [0, 1], got {p}")
    _require_aligned(fa, fb)
    out = np.zeros((fa.dim, fa.dim), dtype=complex)
    for (w, a), (_, b) in zip(fa, fb):
        out += w * PairSpectrum(a, b).power_mean(p)
    return HermitianMatrix(out)


def field_to_json(field: OperatorField) -> dict:
    """Exchange format: {"weights": [...], "matrices": [matrix, ...]}."""
    return {
        "weights": [float(w) for w in field.weights],
        "matrices": [matrix_to_json(m) for m in field.matrices],
    }


def field_from_json(data: dict) -> OperatorField:
    weights = [float(w) for w in data["weights"]]
    matrices = [PositiveDefiniteMatrix(matrix_from_json(d)) for d in data["matrices"]]
    if len(weights) != len(matrices):
        raise ShapeError("field payload has mismatched weights/matrices lengths")
    return OperatorField.from_matrices(weights, matrices)
