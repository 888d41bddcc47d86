"""Dense complex Hermitian matrix kernel and the positive-definite values.

Spectral decompositions, functional calculus, and comparison in the Loewner
order (A <= B iff B - A is positive semidefinite).  A Hermitian
matrix is a plain complex ndarray: every Hermitian result of the package is
a read-only (d, d) array, symmetrized once where a product can leave drift.
The one positive-definite value is OperatorField, a finite weighted family
{(w_s, A_s)} of PD matrices; a single PD matrix (PositiveDefiniteMatrix) is
the one-node field of weight 1, and PairSpectrum holds the relative spectra
of two aligned fields.

One LAPACK entry.  Every factorization of the package goes through `_eigh`
(eigenvalues and eigenvectors), `_eigvalsh` (eigenvalues alone), `_qr` (Q
and R's diagonal) or `_svd` (a thin SVD).  Each calls the LAPACK gufunc that
numpy.linalg calls (`_umath_linalg.eigh_lo`, `eigvalsh_lo`, `qr_r_raw` then
`qr_reduced`, `svd_s`) with numpy's signature for the dtype, through
`_lapack`, which sets numpy's floating-point state for the call to one built
at import from numpy.linalg's errstate settings: a LAPACK failure calls back
to raise (EigenConvergenceError for an eigensolve, numpy's LinAlgError and
message for QR and SVD).  That skips the wrappers' checks and the errstate
built per call (2.5 us of a 3.7 us solve at d = 4, timeit), on the 2x2 to
8x8 arrays where a trial's time is per-call overhead.  The results are the
same bits as numpy.linalg's, NaN spectra of non-finite input included
(tests/test_matcore.py compares them, and fails on a numpy.linalg
factorization or an `np.errstate` anywhere else in the package).

Leading axes.  `eig`, the pair kernel (`_relative_spectrum`,
`_relative_eigenvalues`) and the private helpers (`_symmetrize`, `_adjoint`,
`_scalar_image`, `_require_pd_floor`, `_solve_pd`) take a stack of matrices
(..., d, d) as well as one matrix.  A field is one (k, d, d) stack, and n
aligned pairs built together (`OperatorField.pairs`) are one (n, k, d, d)
solve of the A stack, with one floor check, and one pass of the pair kernel.
The pair kernel's eigenvalues and frames are read-only, so a spectrum memoised
on a field cannot be changed under a later check.  Stacked LAPACK
and matmul give the same bits per matrix as one call per matrix
(tests/test_matcore.py checks eigh, eigvalsh and the pair kernel at d = 1..8
and 64), so a stacked solve never changes a result.  A field or spectrum
built from a stacked solve receives its read-only slice privately; the
slices of a read-only stack are read-only already, so
`SpectralDecomposition.unstack` does not freeze them again.  Stacks on a
trial's path are gathered with `np.array([...])`, which copies same-shape
arrays along a new leading axis as `np.stack` does, at about a fifth of its
call overhead on these small arrays.

The B side of a pair.  A pair (A, B) is read through the spectrum of
T = A^{-1/2} B A^{-1/2}, and B = A^{1/2} T A^{1/2} is a congruence of T, so
by Ostrowski's theorem (Horn and Johnson, Matrix Analysis, Thm 4.5.9)
lambda_min(B) >= lambda_min(A) lambda_min(T) and lambda_max(B) <=
lambda_max(A) lambda_max(T) when T is positive definite.  The pair route
(`OperatorField.pairs`, `OperatorField.partner`) floors B through them: B
passes when lambda_min(A) lambda_min(T) > 1e-6 lambda_max(A) lambda_max(T) at
every node, six orders above the 1e-12 floor, so no B that the exact floor
refuses passes; otherwise the exact floor runs on B's own eigenvalues.  B's
`decomposition` is then solved on its first read, the same bits as an eager
build.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import _umath_linalg

from .errors import EigenConvergenceError, NotPositiveDefiniteError, PreconditionError, ShapeError

__all__ = [
    "DEFAULT_LOEWNER_TOL",
    "SpectralDecomposition",
    "OperatorField",
    "PositiveDefiniteMatrix",
    "PairSpectrum",
    "eig",
    "apply_function",
    "loewner_leq",
    "matrix_to_json",
    "matrix_from_json",
]

DEFAULT_LOEWNER_TOL = 1e-9

# Construction rejects matrices with lambda_min <= floor * lambda_max;
# guards against numerically singular inputs before inversion.
_PD_RELATIVE_FLOOR = 1e-12

# The pair route accepts B when Ostrowski's bounds put lambda_min(B) above
# this multiple of lambda_max(B) (the module docstring says why).
_PAIR_IMPLIED_FLOOR = 1e-6


def _lapack_state(error: type, message: str):
    """numpy.linalg's floating-point state, built once: a LAPACK failure sets
    `invalid`, which calls back to raise error(message); the rest is ignored."""

    def fail(err, flag):
        raise error(message)

    return _make_extobj(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


_EIGH_STATE = _lapack_state(EigenConvergenceError, "eigendecomposition did not converge")
_QR_STATE = _lapack_state(np.linalg.LinAlgError, "Incorrect argument found while performing QR factorization")
_SVD_STATE = _lapack_state(np.linalg.LinAlgError, "SVD did not converge")


def _lapack(state, gufunc, *args, signature: str):
    """gufunc(*args) under the prebuilt `state`; the caller's state is back after."""
    token = _extobj_contextvar.set(state)
    try:
        return gufunc(*args, signature=signature)
    finally:
        _extobj_contextvar.reset(token)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian
    ndarray (..., d, d), as `np.linalg.eigh` gives them (the module docstring
    says why this entry skips it)."""
    return _lapack(_EIGH_STATE, _umath_linalg.eigh_lo, a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian ndarray (..., d, d), as
    `np.linalg.eigvalsh` gives them."""
    return _lapack(_EIGH_STATE, _umath_linalg.eigvalsh_lo, a, signature="D->d" if a.dtype.kind == "c" else "d->d")


def _qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q and the diagonal of R of the reduced QR factorization of an ndarray
    (..., m, n), as `np.linalg.qr` gives them."""
    raw, reduced = ("D->D", "DD->D") if a.dtype.kind == "c" else ("d->d", "dd->d")
    r = a.copy()  # LAPACK overwrites its input with R and the reflectors
    tau = _lapack(_QR_STATE, _umath_linalg.qr_r_raw, r, signature=raw)
    return _lapack(_QR_STATE, _umath_linalg.qr_reduced, r, tau, signature=reduced), r.diagonal(0, -2, -1)


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The thin SVD (U, sigma, V*) of an ndarray (..., m, n), as
    `np.linalg.svd(a, full_matrices=False)` gives it."""
    return _lapack(_SVD_STATE, _umath_linalg.svd_s, a, signature="D->DdD" if a.dtype.kind == "c" else "d->ddd")


def _frobenius(x: np.ndarray) -> float:
    """The Frobenius norm by `np.linalg.norm`'s own formula, sqrt(re.re + im.im)."""
    x = x.ravel("K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a*) / 2, halved in place.  x * 0.5 is x / 2 bit for bit in a real
    array; in a complex one every entry keeps its value, and only a zero part
    (or a NaN) can take the other sign, as numpy's complex product and
    quotient round their zero terms differently."""
    s = a + _adjoint(a)
    s *= 0.5
    return s


def _scalar_image(vectors: np.ndarray, values) -> np.ndarray:
    """V diag(values) V*, for one eigenbasis or a stack of them."""
    return _symmetrize((vectors * np.asarray(values)[..., None, :]) @ _adjoint(vectors))


def _require_pd_floor(eigenvalues: np.ndarray) -> None:
    """Raise NotPositiveDefiniteError unless lambda_min > 0 and lambda_min > 1e-12 lambda_max,
    for one ascending spectrum or for every row of a stack of them (the first
    failing row is reported).  The test is written so that a NaN at either
    end fails it.  A loop over Python floats: at the 1 to 24 rows of a
    trial's stacks it is several times faster than a vectorized test."""
    lows = eigenvalues[..., 0].reshape(-1).tolist()
    highs = eigenvalues[..., -1].reshape(-1).tolist()
    for lo, hi in zip(lows, highs):
        if not (lo > 0.0 and lo > _PD_RELATIVE_FLOOR * hi):
            raise NotPositiveDefiniteError(
                f"smallest eigenvalue {lo:.6e} is not safely positive (largest is {hi:.6e})"
            )


def _floor_implied(a_values: np.ndarray, t_values: np.ndarray) -> bool:
    """Whether Ostrowski's bounds put every B = A^{1/2} T A^{1/2} above the
    PD floor, from the ascending spectra of A and T (one row per node):
    lambda_min(A) lambda_min(T) > 0 and > 1e-6 lambda_max(A) lambda_max(T).
    A NaN fails it, as in `_require_pd_floor`."""
    lows = (a_values[..., 0] * t_values[..., 0]).reshape(-1).tolist()
    highs = (a_values[..., -1] * t_values[..., -1]).reshape(-1).tolist()
    return all(lo > 0.0 and lo > _PAIR_IMPLIED_FLOOR * hi for lo, hi in zip(lows, highs))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _entries(m) -> np.ndarray:
    """The complex array of a matrix: an array-like, or a PositiveDefiniteMatrix."""
    return np.asarray(getattr(m, "array", m), dtype=complex)


def _square(m) -> np.ndarray:
    arr = _entries(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ShapeError(f"expected a square matrix of dimension >= 1, got shape {arr.shape}")
    return arr


@functools.lru_cache(maxsize=None)
def _eye(dim: int, dtype=float) -> np.ndarray:
    """The read-only dim x dim identity of `dtype`, built once per (dim, dtype)."""
    return _freeze(np.eye(dim, dtype=dtype))


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
        """The decompositions of the items along the leading axis of a stack.
        They are slices of this one's read-only arrays, read-only themselves,
        so they are set up without freezing them again."""
        new, setattr_ = object.__new__, object.__setattr__
        items = []
        for w, v in zip(self.eigenvalues, self.eigenvectors):
            item = new(SpectralDecomposition)
            setattr_(item, "eigenvalues", w)
            setattr_(item, "eigenvectors", v)
            items.append(item)
        return tuple(items)


def eig(h) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, or of each matrix of a
    Hermitian stack (..., d, d) in one call (LAPACK, ascending order)."""
    return SpectralDecomposition(*_eigh(_entries(h)))


def _solve_pd(stack: np.ndarray) -> SpectralDecomposition:
    """`eig` of a Hermitian matrix or stack, then the positive-definite floor
    on every matrix of it."""
    decomposition = eig(stack)
    _require_pd_floor(decomposition.eigenvalues)
    return decomposition


def _floored_pair_spectrum(a: SpectralDecomposition, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair kernel on A's floor-checked solve and B's exactly Hermitian
    array (one matrix or matching stacks), with B's PD floor decided on the
    way: a non-finite B is refused before the kernel's solve, B passes when
    `_floor_implied` holds, and otherwise the exact floor runs on B's
    eigenvalues (NotPositiveDefiniteError, reporting B's first failing node)."""
    if b.shape != a.eigenvectors.shape:
        raise ShapeError(f"B nodes of shape {b.shape} for A nodes of shape {a.eigenvectors.shape}")
    if not np.isfinite(b).all():
        raise NotPositiveDefiniteError("a node matrix has non-finite entries")
    lam, frame = _relative_spectrum(a, b)
    if not _floor_implied(a.eigenvalues, lam):
        _require_pd_floor(_eigvalsh(b))
    return lam, frame


class OperatorField:
    """Finite weighted family {(w_s, A_s)} of PD matrices of one dimension.

    Stored as one read-only (k, d, d) stack of the node matrices (`arrays`)
    with its weights and one stacked eigendecomposition (`decomposition`).
    Every field meets the PD floor at every node: lambda_min > 0 and
    lambda_min > 1e-12 lambda_max (NotPositiveDefiniteError).  A field built
    from its nodes, or as the A field of a pair, is solved at construction,
    and that solve applies the floor.  The B field of a pair (`pairs`,
    `partner`) is floored through the pair spectrum instead (the module
    docstring gives the rule), and its `decomposition` is solved on the first
    read, with the same bits as a solve at construction.  Fields are immutable, so the pair spectra
    against another field are memoised on the field (`pair_spectrum`).

    Nodes are (weight, matrix) pairs; a matrix is an array-like or a
    PositiveDefiniteMatrix and is symmetrized to (A + A*)/2.  The keyword-only
    arguments are the package's own route for a Hermitian stack it has
    already built (and, from `pairs`, its floor-checked solve; with
    `_floored`, checked weights and a frozen stack whose floor is
    established, solved on first read).
    """

    __slots__ = ("_weights", "_arrays", "_decomp", "_spectra")

    def __init__(self, nodes=(), *, _weights=None, _arrays=None, _decomposition=None, _floored=False):
        if _arrays is None:
            nodes = list(nodes)
            if not nodes:
                raise PreconditionError("an operator field needs at least one node")
            _weights = [float(w) for w, _ in nodes]
            matrices = [_square(m) for _, m in nodes]
            dims = {len(m) for m in matrices}
            if len(dims) != 1:
                raise ShapeError(f"field nodes have mixed dimensions {sorted(dims)}")
            _arrays = _symmetrize(np.array(matrices))
        if _decomposition is None and not _floored:
            _weights = _checked_weights(_weights, len(_arrays))
            _decomposition = _solve_pd(_arrays)
            _arrays.setflags(write=False)
        self._weights = _weights
        self._arrays = _arrays
        self._decomp = _decomposition
        self._spectra = {}

    @classmethod
    def from_matrices(cls, weights, matrices) -> "OperatorField":
        return cls(zip(weights, matrices))

    @classmethod
    def pairs(cls, weights, a_stack: np.ndarray, b_stack: np.ndarray) -> tuple[tuple["OperatorField", ...], ...]:
        """n aligned pairs (FA_i, FB_i) sharing `weights`, one per item of
        exactly Hermitian (n, k, d, d) stacks of A and B nodes.  The weights
        are checked, the A stack is solved and floored in one call, and then
        one pass of the pair kernel gives every pair spectrum, memoised as
        `pair_spectrum` does, and floors the B stack (the module docstring
        gives the rule).  B is not solved.  Both stacks are frozen in place."""
        weights = _checked_weights(weights, a_stack.shape[1])
        decomposition = _solve_pd(a_stack)
        a_stack.setflags(write=False)
        lams, frames = _floored_pair_spectrum(decomposition, b_stack)
        b_stack.setflags(write=False)
        out = []
        for a, d, b, lam, frame in zip(a_stack, decomposition.unstack(), b_stack, lams, frames):
            fa = OperatorField(_weights=weights, _arrays=a, _decomposition=d)
            fb = OperatorField(_weights=weights, _arrays=b, _floored=True)
            fa._spectra[fb] = PairSpectrum(fa, fb, _spectrum=(lam, frame))
            out.append((fa, fb))
        return tuple(out)

    def partner(self, b_arrays: np.ndarray) -> "OperatorField":
        """The field FB on this field's weights with the exactly Hermitian
        (k, d, d) nodes `b_arrays`, floored through the pair spectrum of
        (self, FB) like `pairs`, which memoises that spectrum.  B is not
        solved; `b_arrays` is frozen in place."""
        spectrum = _floored_pair_spectrum(self.decomposition, b_arrays)
        b_arrays.setflags(write=False)
        fb = OperatorField(_weights=self._weights, _arrays=b_arrays, _floored=True)
        self._spectra[fb] = PairSpectrum(self, fb, _spectrum=spectrum)
        return fb

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def arrays(self) -> np.ndarray:
        """The node matrices as one read-only (k, d, d) complex array."""
        return self._arrays

    @property
    def decomposition(self) -> SpectralDecomposition:
        """Eigenvalues (k, d) and eigenvectors (k, d, d) of every node, solved
        on the first read for the B field of a pair."""
        if self._decomp is None:
            self._decomp = _solve_pd(self._arrays)
        return self._decomp

    @property
    def dim(self) -> int:
        return self._arrays.shape[1]

    def __len__(self) -> int:
        return len(self._arrays)

    def weighted_sum(self) -> np.ndarray:
        """sum_s w_s A_s, standing in for the Bochner integral of the field."""
        return _weighted_sum(self._weights, self._arrays)

    def is_normalized(self, tol: float = 1e-10) -> bool:
        """True when sum_s w_s A_s = I within `tol` in Frobenius norm."""
        return _frobenius(self.weighted_sum() - _eye(self.dim)) <= tol

    def pair_spectrum(self, other: "OperatorField") -> "PairSpectrum":
        """PairSpectrum(self, other), solved once per pair of field objects."""
        spectrum = self._spectra.get(other)
        if spectrum is None:
            spectrum = self._spectra[other] = PairSpectrum(self, other)
        return spectrum

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={len(self)}, dim={self.dim})"


_UNIT_WEIGHT = np.ones(1)
_UNIT_WEIGHT.setflags(write=False)


class PositiveDefiniteMatrix(OperatorField):
    """One PD matrix A: the one-node field {(1, A)}, built from its entries
    (symmetrized) and solved at construction like any field.  `array`,
    `eigenvalues` and `lambda_min`/`lambda_max` read its node; `inv` returns
    a new matrix that solves its own array, so a matrix rebuilt from its
    entries behaves identically."""

    __slots__ = ()

    def __init__(self, entries):
        arrays = _freeze(_symmetrize(_square(entries))[None])
        super().__init__(_weights=_UNIT_WEIGHT, _arrays=arrays, _decomposition=_solve_pd(arrays))

    @property
    def array(self) -> np.ndarray:
        """The read-only (d, d) complex array."""
        return self._arrays[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._decomp.eigenvalues[0]

    @property
    def lambda_min(self) -> float:
        return float(self._decomp.eigenvalues[0, 0])

    @property
    def lambda_max(self) -> float:
        return float(self._decomp.eigenvalues[0, -1])

    def inv(self) -> "PositiveDefiniteMatrix":
        return PositiveDefiniteMatrix(_scalar_image(self._decomp.eigenvectors[0], 1.0 / self.eigenvalues))


def _checked_weights(weights, k: int) -> np.ndarray:
    """`weights` as a read-only float vector of k strictly positive finite entries."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (k,):
        raise ShapeError(f"{weights.shape} weights for {k} nodes")
    if not all(0.0 < w < np.inf for w in weights.tolist()):
        raise PreconditionError("weights must be strictly positive and finite")
    weights.setflags(write=False)
    return weights


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


class PairSpectrum:
    """Spectral data of the node-wise relative arrangement of PD pairs (A_s, B_s).

    Built from two aligned OperatorFields (two PositiveDefiniteMatrix values
    are the one-node case).  For every node it stores the eigenvalues of
    T_s = A_s^{-1/2} B_s A_s^{-1/2} (`eigenvalues`, (k, d), ascending) and the
    frame Q_s = A_s^{1/2} U_s (`frame`, (k, d, d)), with U_s the eigenvectors
    of T_s, so that A_s^{1/2} g(T_s) A_s^{1/2} = Q_s diag(g(lambda_s)) Q_s*
    for any scalar g.  All nodes come from one pass over A's stacked
    eigendecomposition (the pair kernel `_relative_spectrum`).  Every mean and
    entropy of the pair is one diagonal scaling away, and a field aggregate is
    one batched product and one weighted sum.  `OperatorField.pairs` solves
    several aligned pairs in one pass and hands each its slice (`_spectrum`).
    """

    __slots__ = ("weights", "eigenvalues", "frame", "_m", "_M")

    def __init__(self, fa: OperatorField, fb: OperatorField, *, _spectrum=None):
        _require_aligned(fa, fb)
        self.weights = fa.weights
        self.eigenvalues, self.frame = _spectrum or _relative_spectrum(fa.decomposition, fb.arrays)
        self._m = self._M = None

    @property
    def m(self) -> float:
        """Least eigenvalue over all nodes: the largest m with m A_s <= B_s for
        every s (reduced on the first read; the eigenvalues are read-only)."""
        if self._m is None:
            self._m = float(self.eigenvalues[:, 0].min())
        return self._m

    @property
    def M(self) -> float:
        """Largest eigenvalue over all nodes: the least M with B_s <= M A_s for every s."""
        if self._M is None:
            self._M = float(self.eigenvalues[:, -1].max())
        return self._M

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

    def power_mean(self, q: float) -> np.ndarray:
        """sum_s w_s (A_s #_q B_s)."""
        return self.conjugate(self.eigenvalues ** float(q))

    def entropy_term(self, q: float, f) -> np.ndarray:
        """sum_s w_s S(A_s, B_s; q, f) for a ScalarFunction f."""
        lam = self.eigenvalues
        return self.conjugate(lam ** float(q) * f.evaluate_array(lam))


def apply_function(a: PositiveDefiniteMatrix, f) -> np.ndarray:
    """Spectral functional calculus: V diag(f(lambda_i)) V*.

    `f` is a ScalarFunction (or anything with `evaluate_array`); every
    eigenvalue of `a` must lie in its domain.
    """
    values = f.evaluate_array(a.eigenvalues)
    return _freeze(_scalar_image(a.decomposition.eigenvectors[0], values))


def loewner_leq(a, b, tol: float = DEFAULT_LOEWNER_TOL) -> tuple[bool, float]:
    """Test A <= B in the Loewner order.

    Returns (holds, margin) with margin = lambda_min(B - A); the test passes
    when margin >= -tol * max(1, ||A||_2, ||B||_2).  A non-finite entry is
    refused (PreconditionError).
    """
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    aa, bb = _square(a), _square(b)
    if aa.shape != bb.shape:
        raise ShapeError(f"loewner_leq shape mismatch: {aa.shape} vs {bb.shape}")
    # Refused before the solve, which can return finite eigenvalues for NaN entries.
    if not (np.isfinite(aa).all() and np.isfinite(bb).all()):
        raise PreconditionError("loewner_leq needs finite entries")
    # One stacked solve of B - A, A and B (the same bits as a solve each).
    diff, wa, wb = _eigvalsh(_symmetrize(np.array([bb - aa, aa, bb])))
    margin = float(diff[0])
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
    A^{1/2} g(T) A^{1/2} = Q diag(g(lambda)) Q* for any scalar g.  Both
    results are read-only (a PairSpectrum memoises them).
    """
    root = np.sqrt(a.eigenvalues)
    r, s = _scalar_image(a.eigenvectors, np.array([1.0 / root, root]))
    lam, u = _eigh(_symmetrize(r @ b @ r))
    return _freeze(lam), _freeze(s @ u)


def _relative_eigenvalues(a: SpectralDecomposition, b: np.ndarray) -> np.ndarray:
    """The eigenvalues of T = A^{-1/2} B A^{-1/2} alone, for one matrix or a
    stack: R = A^{-1/2} from A's eigenbasis and one eigenvalues-only solve of
    T = R B R, with no frames (for callers that read only the spectrum)."""
    r = _scalar_image(a.eigenvectors, 1.0 / np.sqrt(a.eigenvalues))
    return _eigvalsh(_symmetrize(r @ b @ r))


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
    """The complex (dim, dim) array of a matrix payload, entry for entry (not
    symmetrized).  Non-finite entries are rejected (PreconditionError): the
    eigensolver returns NaN spectra for them without an error."""
    dim = int(data["dim"])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ShapeError(f"matrix payload shape {re.shape}/{im.shape} does not match dim {dim}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise PreconditionError("matrix payload has non-finite entries")
    return re + 1j * im


def matrix_from_json(data: dict) -> np.ndarray:
    """The read-only Hermitian array of a matrix payload.  A payload that is
    not exactly its conjugate transpose is rejected (PreconditionError), so
    that the matrix checked is the matrix the file states."""
    arr = _array_from_json(data)
    if not np.array_equal(arr, _adjoint(arr)):
        raise PreconditionError("matrix payload is not Hermitian")
    return _freeze(arr)


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
