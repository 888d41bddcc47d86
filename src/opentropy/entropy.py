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

One kernel serves every field statement.  A field is one (k, d, d) stack with
one stacked eigendecomposition; PairSpectrum takes two aligned fields (or two
matrices, the one-node case) to the eigenvalues of every T_s and the frames
Q_s in one pass, so that any weighted sum

    sum_s w_s A_s^{1/2} g(T_s) A_s^{1/2} = sum_s w_s Q_s diag(g(lambda_s)) Q_s*

is one batched product and one weighted sum (the eigenbasis route of Higham,
Functions of Matrices, SIAM 2008; cf. Golub and Van Loan, Matrix
Computations, 8.7, for the symmetric-definite pair).

The kernel also takes a leading axis.  `OperatorField.stack` builds n aligned
fields from one (n, k, d, d) stack with one eigensolve and one floor check,
and `pair_spectra` solves the spectra of several aligned pairs of one shape
in one pass of the pair kernel.  Both give the same bits as one solve per
field or pair, and each field and spectrum is still built by its
constructor, which receives its slice of the stacked solve privately.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefiniteError, PreconditionError, ShapeError
from .functions import ScalarFunction
from .matcore import (
    HermitianMatrix,
    PositiveDefiniteMatrix,
    SpectralDecomposition,
    _adjoint,
    _entries,
    _relative_spectrum,
    _solve_pd,
    _symmetrize,
    matrix_from_json,
    matrix_to_json,
)

__all__ = [
    "OperatorField",
    "PairSpectrum",
    "pair_spectra",
    "natural_power",
    "relative_entropy",
    "variational_form",
    "generalized_entropy",
    "mean_field",
    "field_to_json",
    "field_from_json",
]


class OperatorField:
    """Finite weighted family {(w_s, A_s)} of PD matrices of one dimension.

    Stored as one read-only (k, d, d) stack of the node matrices (`arrays`)
    with its weights and one stacked eigendecomposition (`decomposition`),
    computed by a single eigensolve at construction; that solve also applies
    the PositiveDefiniteMatrix floor to every node (NotPositiveDefiniteError).
    `matrices` builds the nodes as PositiveDefiniteMatrix values lazily from
    the stacked decomposition, with no further eigensolve.  Fields are
    immutable, so the pair spectra against another field are memoised on the
    field (`pair_spectrum`).

    Nodes are (weight, matrix) pairs; a matrix may be a PositiveDefiniteMatrix,
    a HermitianMatrix or an array, symmetrized like a HermitianMatrix.  The
    keyword-only arguments are the package's own route for a Hermitian stack
    it has already built (and, from `stack`, its floor-checked solve).
    """

    __slots__ = ("_weights", "_arrays", "_decomp", "_matrices", "_spectra")

    def __init__(self, nodes=(), *, _weights=None, _arrays=None, _decomposition=None):
        if _arrays is None:
            nodes = list(nodes)
            if not nodes:
                raise PreconditionError("an operator field needs at least one node")
            _weights = np.array([float(w) for w, _ in nodes])
            matrices = [HermitianMatrix(_entries(m)).array for _, m in nodes]
            dims = {m.shape[0] for m in matrices}
            if len(dims) != 1:
                raise ShapeError(f"field nodes have mixed dimensions {sorted(dims)}")
            _arrays = np.stack(matrices)
        weights = np.asarray(_weights, dtype=float)
        if weights.shape != (len(_arrays),):
            raise ShapeError(f"{weights.shape} weights for {len(_arrays)} nodes")
        if np.any(weights <= 0.0):
            raise PreconditionError("field weights must be strictly positive")
        decomposition = _decomposition if _decomposition is not None else _solve_pd(_arrays)
        weights.setflags(write=False)
        _arrays.setflags(write=False)
        self._weights = weights
        self._arrays = _arrays
        self._decomp = decomposition
        self._matrices = None
        self._spectra = {}

    @classmethod
    def from_matrices(cls, weights, matrices) -> "OperatorField":
        return cls(zip(weights, matrices))

    @classmethod
    def stack(cls, weights, arrays: np.ndarray) -> tuple["OperatorField", ...]:
        """n aligned fields sharing `weights`, one per item of an exactly
        Hermitian (n, k, d, d) stack, from one eigensolve and one floor check
        for all of them."""
        decomposition = _solve_pd(arrays)
        parts = zip(arrays, decomposition.unstack())
        return tuple(cls(_weights=weights, _arrays=a, _decomposition=d) for a, d in parts)

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def arrays(self) -> np.ndarray:
        """The node matrices as one read-only (k, d, d) complex array."""
        return self._arrays

    @property
    def decomposition(self) -> SpectralDecomposition:
        """Eigenvalues (k, d) and eigenvectors (k, d, d) of every node."""
        return self._decomp

    @property
    def matrices(self) -> tuple[PositiveDefiniteMatrix, ...]:
        if self._matrices is None:
            parts = zip(self._arrays, self._decomp.unstack())
            self._matrices = tuple(PositiveDefiniteMatrix(a, _decomposition=d) for a, d in parts)
        return self._matrices

    @property
    def dim(self) -> int:
        return self._arrays.shape[1]

    def __len__(self) -> int:
        return len(self._arrays)

    def __iter__(self):
        return iter(zip(self._weights, self.matrices))

    def weighted_sum(self) -> np.ndarray:
        """sum_s w_s A_s, standing in for the Bochner integral of the field."""
        return _weighted_sum(self._weights, self._arrays)

    def is_normalized(self, tol: float = 1e-10) -> bool:
        """True when sum_s w_s A_s = I within `tol` in Frobenius norm."""
        residual = self.weighted_sum() - np.eye(self.dim)
        return float(np.linalg.norm(residual)) <= tol

    def scaled(self, alpha: float) -> "OperatorField":
        """Scale the matrices (not the weights) by alpha > 0: a new field that
        solves its own node arrays, with its own pair spectra."""
        alpha = float(alpha)
        if alpha <= 0.0:
            raise NotPositiveDefiniteError(f"scaling a field by {alpha} leaves the cone")
        return OperatorField(_weights=self._weights, _arrays=alpha * self._arrays)

    def nodewise_sum(self, other: "OperatorField") -> "OperatorField":
        _require_aligned(self, other)
        return OperatorField(_weights=self._weights, _arrays=self._arrays + other._arrays)

    def blend(self, other: "OperatorField", alpha: float, beta: float) -> "OperatorField":
        """Node-wise alpha*A_s + beta*B_s for positive alpha, beta."""
        _require_aligned(self, other)
        if alpha <= 0.0 or beta <= 0.0:
            raise PreconditionError("blend coefficients must be positive")
        return OperatorField(_weights=self._weights, _arrays=alpha * self._arrays + beta * other._arrays)

    def pair_spectrum(self, other: "OperatorField") -> "PairSpectrum":
        """PairSpectrum(self, other), solved once per pair of field objects."""
        spectrum = self._spectra.get(other)
        if spectrum is None:
            spectrum = self._spectra[other] = PairSpectrum(self, other)
        return spectrum

    def __repr__(self) -> str:
        return f"OperatorField(k={len(self)}, dim={self.dim})"


def _weighted_sum(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_s w_s X_s over the node axis of a (..., k, d, d) stack, symmetrized."""
    *lead, k, d, _ = stack.shape
    return _symmetrize((weights @ stack.reshape(*lead, k, d * d)).reshape(*lead, d, d))


def _require_aligned(fa: OperatorField, fb: OperatorField) -> None:
    if len(fa) != len(fb):
        raise ShapeError(f"fields have {len(fa)} vs {len(fb)} nodes")
    if fa.dim != fb.dim:
        raise ShapeError(f"fields have dimension {fa.dim} vs {fb.dim}")
    if fa.weights is not fb.weights and not np.allclose(fa.weights, fb.weights, rtol=1e-12, atol=1e-12):
        raise PreconditionError("fields must share one weight vector node-for-node")


_UNIT_WEIGHT = np.ones(1)
_UNIT_WEIGHT.setflags(write=False)


class PairSpectrum:
    """Spectral data of the node-wise relative arrangement of PD pairs (A_s, B_s).

    Built from two aligned OperatorFields, or from two PositiveDefiniteMatrix
    values as the one-node field of weight 1.  For every node it stores the
    eigenvalues of T_s = A_s^{-1/2} B_s A_s^{-1/2} (`eigenvalues`, (k, d),
    ascending) and the frame Q_s = A_s^{1/2} U_s (`frame`, (k, d, d)), with U_s
    the eigenvectors of T_s, so that A_s^{1/2} g(T_s) A_s^{1/2} =
    Q_s diag(g(lambda_s)) Q_s* for any scalar g.  All nodes come from one pass
    over A's stacked eigendecomposition (matcore's pair kernel): R = A^{-1/2}
    and S = A^{1/2} as batched products, T = R B R, one stacked eigensolve of
    T, and Q = S U.  Every mean and entropy of the pair is one diagonal
    scaling away, and a field aggregate is one batched product and one
    weighted sum.  `pair_spectra` solves several aligned pairs in one pass and
    hands each its slice (`_spectrum`).
    """

    __slots__ = ("weights", "eigenvalues", "frame")

    def __init__(self, a, b, *, _spectrum=None):
        if isinstance(a, OperatorField):
            _require_aligned(a, b)
            self.weights = a.weights
            decomp, b_arr = a.decomposition, b.arrays
        else:
            if a.dim != b.dim:
                raise ShapeError(f"pair dimension mismatch: {a.dim} vs {b.dim}")
            self.weights = _UNIT_WEIGHT
            decomp, b_arr = a.decomposition, b.array
        lam, frame = _relative_spectrum(decomp, b_arr) if _spectrum is None else _spectrum
        d = lam.shape[-1]
        self.eigenvalues = lam.reshape(-1, d)
        self.frame = frame.reshape(-1, d, d)

    @property
    def m(self) -> float:
        """Least eigenvalue over all nodes: the largest m with m A_s <= B_s for every s."""
        return float(self.eigenvalues[:, 0].min())

    @property
    def M(self) -> float:
        """Largest eigenvalue over all nodes: the least M with B_s <= M A_s for every s."""
        return float(self.eigenvalues[:, -1].max())

    def _products(self, values) -> np.ndarray:
        q = self.frame
        return (q * np.asarray(values)[..., None, :]) @ _adjoint(q)

    def node_images(self, values) -> np.ndarray:
        """Q_s diag(values_s) Q_s* per node, unweighted: (..., k, d, d) for values (..., k, d)."""
        return _symmetrize(self._products(values))

    def conjugate(self, values) -> np.ndarray:
        """sum_s w_s Q_s diag(values_s) Q_s* (Hermitian for real `values`).

        `values` has the shape of `eigenvalues`, with optional leading axes
        for several aggregates at once; a (d,) vector applies to every node.
        """
        return _weighted_sum(self.weights, self._products(values))

    def aggregate(self, g) -> np.ndarray:
        """sum_s w_s A_s^{1/2} g(T_s) A_s^{1/2} for a vectorized scalar map g."""
        return self.conjugate(g(self.eigenvalues))

    def power_mean(self, q: float) -> np.ndarray:
        """sum_s w_s (A_s #_q B_s)."""
        return self.conjugate(self.eigenvalues ** float(q))

    def entropy_term(self, q: float, f: ScalarFunction) -> np.ndarray:
        """sum_s w_s S(A_s, B_s; q, f)."""
        lam = self.eigenvalues
        return self.conjugate(lam ** float(q) * f.evaluate_array(lam))


def pair_spectra(pairs) -> tuple[PairSpectrum, ...]:
    """fa.pair_spectrum(fb) for each (fa, fb) of aligned field pairs of one
    shape; the pairs not yet solved are solved in one pass of the pair kernel
    (one (n, k, d, d) stack) and memoised like `pair_spectrum`."""
    pairs = list(pairs)
    todo = [(a, b) for a, b in pairs if b not in a._spectra]
    if todo:
        decomp = SpectralDecomposition(
            np.array([a.decomposition.eigenvalues for a, _ in todo]),
            np.array([a.decomposition.eigenvectors for a, _ in todo]),
        )
        lams, frames = _relative_spectrum(decomp, np.array([b.arrays for _, b in todo]))
        for (a, b), lam, frame in zip(todo, lams, frames):
            a._spectra[b] = PairSpectrum(a, b, _spectrum=(lam, frame))
    return tuple(a._spectra[b] for a, b in pairs)


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
    return HermitianMatrix(fa.pair_spectrum(fb).entropy_term(q, f))


def mean_field(fa: OperatorField, fb: OperatorField, p: float) -> HermitianMatrix:
    """sum_s w_s (A_s #_p B_s) for p in [0, 1]."""
    if not 0.0 <= float(p) <= 1.0:
        raise PreconditionError(f"mean_field requires p in [0, 1], got {p}")
    return HermitianMatrix(fa.pair_spectrum(fb).power_mean(p))


def field_to_json(field: OperatorField) -> dict:
    """Exchange format: {"weights": [...], "matrices": [matrix, ...]}."""
    return {
        "weights": [float(w) for w in field.weights],
        "matrices": [matrix_to_json(a) for a in field.arrays],
    }


def field_from_json(data: dict) -> OperatorField:
    weights = [float(w) for w in data["weights"]]
    matrices = [matrix_from_json(d) for d in data["matrices"]]
    if len(weights) != len(matrices):
        raise ShapeError("field payload has mismatched weights/matrices lengths")
    return OperatorField.from_matrices(weights, matrices)
