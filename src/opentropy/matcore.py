"""Dense complex Hermitian matrix kernel.

Spectral decompositions, functional calculus, congruences, and comparison in
the Loewner order (A <= B iff B - A is positive semidefinite).  All values are
small dense complex matrices, immutable after construction; Hermitian drift
from floating-point products is absorbed by symmetrizing once at construction.

Leading axes.  `eig`, the pair kernel (`_relative_spectrum`,
`_relative_eigenvalues`) and the private helpers (`_symmetrize`, `_adjoint`,
`_scalar_image`, `_require_pd_floor`, `_solve_pd`) take a stack of matrices
(..., d, d) as well as one matrix.  A field of the entropy module is one
(k, d, d) stack; n aligned fields built together are one (n, k, d, d) stack,
decomposed in one LAPACK call with one floor check, and
`PositiveDefiniteMatrix.stack` does the same for n matrices.  Stacked LAPACK and matmul give the same bits
per matrix as one call per matrix (tests/test_matcore.py checks eigh,
eigvalsh and the pair kernel at d = 1..8 and 64), so a stacked solve never
changes a result.  A value built from a stacked solve still goes through its
constructor, with its slice of the decomposition passed privately.  Stacks
on a trial's path are gathered with `np.array([...])`, which copies
same-shape arrays along a new leading axis as `np.stack` does, at about a
fifth of its call overhead on these small arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import EigenConvergenceError, NotPositiveDefiniteError, ShapeError

__all__ = [
    "DEFAULT_LOEWNER_TOL",
    "HermitianMatrix",
    "SpectralDecomposition",
    "PositiveDefiniteMatrix",
    "eig",
    "apply_function",
    "congruence",
    "loewner_leq",
    "sandwich_bounds",
    "identity",
    "matrix_to_json",
    "matrix_from_json",
]

DEFAULT_LOEWNER_TOL = 1e-9

# Construction rejects matrices with lambda_min <= floor * lambda_max;
# guards against numerically singular inputs before inversion.
_PD_RELATIVE_FLOOR = 1e-12


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + _adjoint(a)) / 2.0


def _scalar_image(vectors: np.ndarray, values) -> np.ndarray:
    """V diag(values) V*, for one eigenbasis or a stack of them."""
    return _symmetrize((vectors * np.asarray(values)[..., None, :]) @ _adjoint(vectors))


def _require_pd_floor(eigenvalues: np.ndarray) -> None:
    """Raise NotPositiveDefiniteError unless lambda_min > 0 and lambda_min > 1e-12 lambda_max,
    for one ascending spectrum or for every row of a stack of them (the first
    failing row is reported).  A loop over Python floats: at the 1 to 24 rows
    of a trial's stacks it is several times faster than a vectorized test."""
    lows = eigenvalues[..., 0].reshape(-1).tolist()
    highs = eigenvalues[..., -1].reshape(-1).tolist()
    for lo, hi in zip(lows, highs):
        if lo <= 0.0 or lo <= _PD_RELATIVE_FLOOR * hi:
            raise NotPositiveDefiniteError(
                f"smallest eigenvalue {lo:.6e} is not safely positive (largest is {hi:.6e})"
            )


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class HermitianMatrix:
    """Immutable dense complex Hermitian matrix.

    Input entries are symmetrized to (H + H*)/2 at construction rather than
    rejected, which absorbs floating-point drift from matrix products.
    """

    __slots__ = ("_array",)

    def __init__(self, entries):
        if isinstance(entries, HermitianMatrix):
            self._array = entries._array
            return
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("dimension must be at least 1")
        self._array = _freeze(_symmetrize(arr))

    @property
    def array(self) -> np.ndarray:
        """The underlying (read-only) complex ndarray."""
        return self._array

    @property
    def dim(self) -> int:
        return self._array.shape[0]

    def frobenius(self) -> float:
        return float(np.linalg.norm(self._array))

    def spectral_norm(self) -> float:
        w = np.linalg.eigvalsh(self._array)
        return float(max(abs(w[0]), abs(w[-1])))

    def trace(self) -> float:
        return float(np.trace(self._array).real)

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix(self._array + _entries(other))

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix(self._array - _entries(other))

    def __neg__(self) -> "HermitianMatrix":
        return HermitianMatrix(-self._array)

    def __rmul__(self, scalar: float) -> "HermitianMatrix":
        return HermitianMatrix(float(scalar) * self._array)

    __mul__ = __rmul__

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


def _entries(m) -> np.ndarray:
    if isinstance(m, HermitianMatrix):
        return m.array
    if isinstance(m, PositiveDefiniteMatrix):
        return m.array
    return np.asarray(m, dtype=complex)


def identity(dim: int) -> HermitianMatrix:
    return HermitianMatrix(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in nondecreasing order with matching orthonormal columns.

    Either one matrix's (eigenvalues (d,), eigenvectors (d, d)) or a stack's
    ((k, d) and (k, d, d)), one row of eigenvalues per matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        _freeze(self.eigenvalues)
        _freeze(self.eigenvectors)

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ _adjoint(v)

    def unstack(self) -> tuple["SpectralDecomposition", ...]:
        """The decompositions of the items along the leading axis of a stack."""
        return tuple(SpectralDecomposition(w, v) for w, v in zip(self.eigenvalues, self.eigenvectors))


def eig(h) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, or of each matrix of a
    Hermitian stack (..., d, d) in one call (LAPACK, ascending order)."""
    try:
        w, v = np.linalg.eigh(_entries(h))
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    return SpectralDecomposition(w, v)


def _solve_pd(stack: np.ndarray) -> SpectralDecomposition:
    """`eig` of a Hermitian matrix or stack, then the positive-definite floor
    on every matrix of it."""
    decomposition = eig(stack)
    _require_pd_floor(decomposition.eigenvalues)
    return decomposition


class PositiveDefiniteMatrix:
    """Hermitian matrix whose eigenvalues are all strictly positive.

    Construction rejects lambda_min <= 0 and lambda_min <= 1e-12 lambda_max
    (NotPositiveDefiniteError).  The spectral decomposition is the solve of
    the stored array, computed once at construction (or taken, already
    floor-checked, from a stacked solve that gives the same bits: the
    OperatorField the matrix is a node of, or `stack`), cached, and reused
    by `scalar_image` and the root arrays.
    `sqrt`, `inv`, `power` and `scaled` return new matrices that solve their
    own arrays, so a matrix rebuilt from its entries behaves identically.
    """

    __slots__ = ("_herm", "_decomp", "_sqrt_arr", "_inv_sqrt_arr")

    def __init__(self, entries, *, _decomposition: SpectralDecomposition | None = None):
        herm = entries if isinstance(entries, HermitianMatrix) else HermitianMatrix(_entries(entries))
        self._herm = herm
        self._decomp = _decomposition if _decomposition is not None else _solve_pd(herm.array)
        self._sqrt_arr = None
        self._inv_sqrt_arr = None

    @classmethod
    def stack(cls, arrays: np.ndarray) -> tuple["PositiveDefiniteMatrix", ...]:
        """One matrix per item of an exactly Hermitian (n, d, d) stack, from
        one eigensolve and one floor check for all of them."""
        decomposition = _solve_pd(arrays)
        return tuple(cls(a, _decomposition=d) for a, d in zip(arrays, decomposition.unstack()))

    @property
    def matrix(self) -> HermitianMatrix:
        return self._herm

    @property
    def array(self) -> np.ndarray:
        return self._herm.array

    @property
    def dim(self) -> int:
        return self._herm.dim

    @property
    def decomposition(self) -> SpectralDecomposition:
        return self._decomp

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._decomp.eigenvalues

    @property
    def lambda_min(self) -> float:
        return float(self._decomp.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self._decomp.eigenvalues[-1])

    def scalar_image(self, values) -> np.ndarray:
        """V diag(values) V* for per-eigenvalue scalars `values`."""
        return _scalar_image(self._decomp.eigenvectors, values)

    @property
    def sqrt_array(self) -> np.ndarray:
        if self._sqrt_arr is None:
            self._sqrt_arr = _freeze(self.scalar_image(np.sqrt(self._decomp.eigenvalues)))
        return self._sqrt_arr

    @property
    def inv_sqrt_array(self) -> np.ndarray:
        if self._inv_sqrt_arr is None:
            self._inv_sqrt_arr = _freeze(self.scalar_image(1.0 / np.sqrt(self._decomp.eigenvalues)))
        return self._inv_sqrt_arr

    def sqrt(self) -> "PositiveDefiniteMatrix":
        return self._map_eigenvalues(np.sqrt)

    def inv_sqrt(self) -> "PositiveDefiniteMatrix":
        return self._map_eigenvalues(lambda w: 1.0 / np.sqrt(w))

    def inv(self) -> "PositiveDefiniteMatrix":
        return self._map_eigenvalues(lambda w: 1.0 / w)

    def power(self, q: float) -> "PositiveDefiniteMatrix":
        return self._map_eigenvalues(lambda w: w ** float(q))

    def scaled(self, alpha: float) -> "PositiveDefiniteMatrix":
        alpha = float(alpha)
        if alpha <= 0.0:
            raise NotPositiveDefiniteError(f"scaling a PD matrix by {alpha} leaves the cone")
        return PositiveDefiniteMatrix(alpha * self.array)

    def _map_eigenvalues(self, fn) -> "PositiveDefiniteMatrix":
        return PositiveDefiniteMatrix(self.scalar_image(fn(self._decomp.eigenvalues)))

    def __repr__(self) -> str:
        return f"PositiveDefiniteMatrix(dim={self.dim}, lambda_min={self.lambda_min:.3e})"


def apply_function(a: PositiveDefiniteMatrix, f) -> HermitianMatrix:
    """Spectral functional calculus: V diag(f(lambda_i)) V*.

    `f` is a ScalarFunction (or anything with `evaluate_array`); every
    eigenvalue of `a` must lie in its domain.
    """
    values = f.evaluate_array(a.eigenvalues)
    return HermitianMatrix(a.scalar_image(values))


def congruence(c, x) -> HermitianMatrix:
    """C* X C, re-symmetrized.  C may be rectangular (n x m) against an n x n X."""
    c = np.asarray(c, dtype=complex)
    arr = _entries(x)
    if c.ndim != 2 or c.shape[0] != arr.shape[0]:
        raise ShapeError(f"congruence shape mismatch: C is {c.shape}, X is {arr.shape}")
    return HermitianMatrix(c.conj().T @ arr @ c)


def loewner_leq(a, b, tol: float = DEFAULT_LOEWNER_TOL) -> tuple[bool, float]:
    """Test A <= B in the Loewner order.

    Returns (holds, margin) with margin = lambda_min(B - A); the test passes
    when margin >= -tol * max(1, ||A||_2, ||B||_2).
    """
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    aa, bb = _entries(a), _entries(b)
    if aa.shape != bb.shape:
        raise ShapeError(f"loewner_leq shape mismatch: {aa.shape} vs {bb.shape}")
    margin = float(np.linalg.eigvalsh(_symmetrize(bb - aa))[0])
    wa = np.linalg.eigvalsh(_symmetrize(aa))
    wb = np.linalg.eigvalsh(_symmetrize(bb))
    return _holds_within(margin, tol, abs(wa[0]), abs(wa[-1]), abs(wb[0]), abs(wb[-1])), margin


def _holds_within(margin: float, tol: float, *norms: float) -> bool:
    """The one tolerance rule of the Loewner tests: margin >= -tol * max(1, norms)."""
    return bool(margin >= -tol * float(max(1.0, *norms)))


def _relative_spectrum(a: SpectralDecomposition, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair kernel: eigenvalues of T = A^{-1/2} B A^{-1/2} and frames Q = A^{1/2} U.

    `a` is the eigendecomposition of A, `b` the array of B; both are one
    matrix or stacks of the same length.  R = A^{-1/2} and S = A^{1/2} come
    from A's eigenbasis in one batched product, T = R B R, one (stacked)
    eigensolve gives T = U diag(lambda) U*, and Q = S U, so that
    A^{1/2} g(T) A^{1/2} = Q diag(g(lambda)) Q* for any scalar g.
    """
    root = np.sqrt(a.eigenvalues)
    r, s = _scalar_image(a.eigenvectors, np.array([1.0 / root, root]))
    lam, u = np.linalg.eigh(_symmetrize(r @ b @ r))
    return lam, s @ u


def _relative_eigenvalues(a: SpectralDecomposition, b: np.ndarray) -> np.ndarray:
    """The eigenvalues of T = A^{-1/2} B A^{-1/2} alone, for one matrix or a
    stack: R = A^{-1/2} from A's eigenbasis and one eigenvalues-only solve of
    T = R B R, with no frames (for callers that read only the spectrum)."""
    r = _scalar_image(a.eigenvectors, 1.0 / np.sqrt(a.eigenvalues))
    return np.linalg.eigvalsh(_symmetrize(r @ b @ r))


def sandwich_bounds(a: PositiveDefiniteMatrix, b: PositiveDefiniteMatrix) -> tuple[float, float]:
    """Tightest constants (m, M) with m*A <= B <= M*A.

    These are the extreme eigenvalues of A^{-1/2} B A^{-1/2}.
    """
    if a.dim != b.dim:
        raise ShapeError(f"sandwich_bounds dimension mismatch: {a.dim} vs {b.dim}")
    lam = _relative_eigenvalues(a.decomposition, b.array)
    return float(lam[0]), float(lam[-1])


def matrix_to_json(m) -> dict:
    """Exchange format: {"dim": n, "re": [[...]], "im": [[...]]}, row-major."""
    arr = _entries(m)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError("only square matrices use the dim/re/im exchange format")
    return {
        "dim": int(arr.shape[0]),
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def _array_from_json(data: dict) -> np.ndarray:
    """The complex (dim, dim) array of a matrix payload, entry for entry (not symmetrized)."""
    dim = int(data["dim"])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ShapeError(f"matrix payload shape {re.shape}/{im.shape} does not match dim {dim}")
    return re + 1j * im


def matrix_from_json(data: dict) -> HermitianMatrix:
    return HermitianMatrix(_array_from_json(data))


class _JsonRecord:
    """Mixin for a dataclass whose exchange format is its fields in declaration
    order, enums by value and tuples as lists."""

    def to_json(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    return value
