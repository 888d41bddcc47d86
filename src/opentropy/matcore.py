"""Dense complex Hermitian matrix kernel and the positive-definite values.

Spectral decompositions, functional calculus, and comparison in the Loewner
order (A <= B iff B - A is positive semidefinite).  A Hermitian matrix is a
plain complex ndarray, and one rule says when it is exactly Hermitian.  A
stored or returned matrix (a field's nodes, a drawn node, a public result)
is exactly Hermitian: `_symmetrize` makes it so once, where a product can
leave drift.  An intermediate (an image `_scalar_image`, a pair aggregate
`PairSpectrum.conjugate`, the pair kernel's Y* B Y, a map image `apply_array`,
and sums and real multiples of these) is Hermitian only up to rounding, and
where it is read as a Hermitian matrix, only a lower-triangle solve reads
it.  LAPACK's `eigh_lo` and `eigvalsh_lo` read one triangle and the real
part of the diagonal (Anderson et al., LAPACK Users' Guide, SIAM 1999, on
UPLO), so the solve sees the Hermitian matrix that the lower triangle
defines, and the drift between the triangles is never read.  The one
positive-definite value is OperatorField, a finite weighted family
{(w_s, A_s)} of PD matrices; a single PD matrix (PositiveDefiniteMatrix) is
the one-node field of weight 1, and PairSpectrum holds the relative spectra
of two aligned fields.  None of them has a JSON form here: the instance-file
codec is verify's slot table.

One LAPACK entry.  Every factorization of the package goes through `_eigh`
(eigenvalues and eigenvectors), `_eigvalsh` (eigenvalues alone) or `_qr` (Q
and R's diagonal, read by `_haar`, which turns the complex Gaussians of
`_cgauss` into Haar isometries: the package's one random-matrix route).  Each
calls the LAPACK gufunc that numpy.linalg calls (`_umath_linalg.eigh_lo`,
`eigvalsh_lo`, `qr_r_raw` then `qr_reduced`) with numpy's signature for the
dtype, through `_lapack`, which sets numpy's floating-point state for the
call to one built at import from numpy.linalg's errstate settings: a LAPACK
failure calls back to raise (EigenConvergenceError for an eigensolve,
numpy's LinAlgError and message for QR).  That skips the wrappers' checks
and the errstate built per call (2.5 us of a 3.7 us solve at d = 4,
timeit), on the 2x2 to 8x8 arrays where a trial's time is per-call
overhead.  The results are the same bits as numpy.linalg's, NaN spectra of
non-finite input included (tests/test_matcore.py compares them, and fails
on a numpy.linalg factorization or an `np.errstate` anywhere else in the
package, and on a module other than this one that names the entry).  On it
sits the one Loewner test: `_loewner_margins` decides every claim lhs <= rhs
(>=, or == as both), read by `_holds_within` at a tol `_require_tol` admits,
for verify's builders and for `loewner_leq`, the one-claim case.

Leading axes.  `eig`, the pair kernel (`_relative_spectrum`) and the
private helpers (`_symmetrize`, `_adjoint`, `_scalar_image`,
`_require_pd_floor`, `_solve_pd`) take a stack of matrices
(..., d, d) as well as one matrix.  A field is one (k, d, d) stack, and n
aligned pairs built together (`OperatorField.pairs`) are one (n, k, d, d)
solve of the A stack, with one floor check, and one pass of the pair kernel.
The pair kernel's eigenvalues and frames are read-only, so a spectrum memoised
on a field cannot be changed under a later check.  Stacked LAPACK
and matmul give the same bits per matrix as one call per matrix
(tests/test_matcore.py checks eigh, eigvalsh and the pair kernel at d = 1..8
and 64), so a stacked solve never changes a result.  A field or spectrum
built from a stacked solve receives its slice privately: `pairs` hands each
pair the slices of A's decomposition and of the kernel's results as they
are, read-only already as slices of read-only arrays.  Stacks on a
trial's path are gathered with `np.array([...])`, which copies same-shape
arrays along a new leading axis as `np.stack` does, at about a fifth of its
call overhead on these small arrays.

The B side of a pair.  A pair (A, B) is read through the spectrum of
T = A^{-1/2} B A^{-1/2}, and B = A^{1/2} T A^{1/2} is a congruence of T, so
by Ostrowski's theorem (Horn and Johnson, Matrix Analysis, Thm 4.5.9)
lambda_min(B) >= lambda_min(A) lambda_min(T) and lambda_max(B) <=
lambda_max(A) lambda_max(T) when T is positive definite.  The one pair
route, `OperatorField.pairs`, solves and floors A, refuses a B of the wrong
shape or with a non-finite entry, runs the pair kernel, and floors B through
these bounds: B passes when lambda_min(A) lambda_min(T) > 1e-6
lambda_max(A) lambda_max(T) at every node, six orders above the 1e-12
floor, so no B that the exact floor refuses passes; otherwise the exact
floor runs on B's eigenvalues and names its first failing node.  B's
`decomposition` is solved on its first read, the same bits as an eager build.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import fields
from enum import Enum
from typing import NamedTuple

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
]

DEFAULT_LOEWNER_TOL = 1e-9

# Construction rejects matrices with lambda_min <= floor * lambda_max;
# guards against numerically singular inputs before inversion.
_PD_RELATIVE_FLOOR = 1e-12

# The pair route accepts B when Ostrowski's bounds put lambda_min(B) above
# this multiple of lambda_max(B) (the module docstring says why).
_PAIR_IMPLIED_FLOOR = 1e-6

# A field's resolution or a map's Kraus Gram is I within this Frobenius distance.
_NORMALIZED_TOL = 1e-10


def _lapack_state(error: type, message: str):
    """numpy.linalg's floating-point state, built once: a LAPACK failure sets
    `invalid`, which calls back to raise error(message); the rest is ignored."""

    def fail(err, flag):
        raise error(message)

    return _make_extobj(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


_EIGH_STATE = _lapack_state(EigenConvergenceError, "eigendecomposition did not converge")
_QR_STATE = _lapack_state(np.linalg.LinAlgError, "Incorrect argument found while performing QR factorization")


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


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _cgauss(rng, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Gaussians of `shape` (..., rows, cols) in one rng call, each
    matrix's real part and then its imaginary part (the numbers, in order, of
    one call per matrix), scaled by 1/sqrt(2) into one complex array: the bits
    of (re + 1j im) / sqrt(2), which numpy divides as a product with 1/sqrt(2)."""
    *lead, rows, cols = shape
    z = rng.standard_normal((*lead, 2, rows, cols))
    z *= _INV_SQRT2
    out = np.empty(shape, dtype=complex)
    out.real = z[..., 0, :, :]
    out.imag = z[..., 1, :, :]
    return out


def _haar(gauss: np.ndarray) -> np.ndarray:
    """The Haar isometry of complex Gaussians (..., m, n), m >= n: the reduced
    QR's Q, each column turned so that R's diagonal is positive (Mezzadri,
    "How to generate random matrices from the classical compact groups", 2007)."""
    q, diagonal = _qr(gauss)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


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
    """V diag(values) V*, for one eigenbasis or a stack of them: an
    intermediate, Hermitian up to rounding (the module docstring's rule)."""
    return (vectors * np.asarray(values)[..., None, :]) @ _adjoint(vectors)


def _spectral_images(arr: np.ndarray, *fs) -> np.ndarray:
    """f(arr) for each catalog f, stacked, from one solve of `arr`'s lower triangle (intermediates in and out)."""
    w, v = _eigh(arr)
    return _scalar_image(v, np.array([f.evaluate_array(w) for f in fs]))


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
def _eye(dim: int) -> np.ndarray:
    """The read-only dim x dim identity, built once per dim."""
    return _freeze(np.eye(dim))


class SpectralDecomposition(NamedTuple):
    """Eigenvalues in nondecreasing order with matching orthonormal columns,
    both read-only (`eig` freezes them).

    Either one matrix's (eigenvalues (d,), eigenvectors (d, d)) or a stack's
    ((k, d) and (k, d, d)), one row of eigenvalues per matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return _scalar_image(self.eigenvectors, self.eigenvalues)


def eig(h) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, or of each matrix of a
    Hermitian stack (..., d, d) in one call (LAPACK, ascending order)."""
    w, v = _eigh(_entries(h))
    return SpectralDecomposition(_freeze(w), _freeze(v))


def _solve_pd(stack: np.ndarray) -> SpectralDecomposition:
    """The frozen eigendecomposition of a complex Hermitian matrix or stack
    (..., d, d), then the positive-definite floor on every matrix of it."""
    w, v = _eigh(stack)
    _require_pd_floor(w)
    return SpectralDecomposition(_freeze(w), _freeze(v))


class OperatorField:
    """Finite weighted family {(w_s, A_s)} of PD matrices of one dimension.

    Stored as one read-only (k, d, d) stack of the node matrices (`arrays`)
    with its weights and one stacked eigendecomposition (`decomposition`).
    Every field meets the PD floor at every node: lambda_min > 0 and
    lambda_min > 1e-12 lambda_max (NotPositiveDefiniteError).  A field built
    from its nodes, or as the A field of a pair, is solved at construction,
    and that solve applies the floor.  The B field of a pair (`pairs`) is
    floored through the pair spectrum instead (the module
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
        (n, k, d, d) stacks of A and B nodes.  The stacks become the fields'
        stored nodes, so the caller passes them exactly Hermitian (the module
        docstring's rule).  The weights are checked, the A stack is solved
        and floored in one call, and then one pass of the pair kernel gives
        every pair spectrum, memoised as `pair_spectrum` does, and floors the
        B stack (the module docstring gives the rule, and the order of the
        refusals).  B is not solved.  Both stacks are frozen in place."""
        weights = _checked_weights(weights, a_stack.shape[1])
        solved = _solve_pd(a_stack)
        a_stack.setflags(write=False)
        if b_stack.shape != a_stack.shape:
            raise ShapeError(f"B nodes of shape {b_stack.shape} for A nodes of shape {a_stack.shape}")
        if not np.isfinite(b_stack).all():
            raise NotPositiveDefiniteError("a node matrix has non-finite entries")
        lams, frames = _relative_spectrum(solved, b_stack)
        if not _floor_implied(solved.eigenvalues, lams):
            _require_pd_floor(_eigvalsh(b_stack))
        b_stack.setflags(write=False)
        out = []
        for a, b, w, v, lam, frame in zip(a_stack, b_stack, solved.eigenvalues, solved.eigenvectors, lams, frames):
            fa = OperatorField(_weights=weights, _arrays=a, _decomposition=SpectralDecomposition(w, v))
            fb = OperatorField(_weights=weights, _arrays=b, _floored=True)
            fa._spectra[fb] = PairSpectrum(fa, fb, _spectrum=(lam, frame))
            out.append((fa, fb))
        return tuple(out)

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
        """sum_s w_s A_s, standing in for the Bochner integral of the field;
        exactly Hermitian."""
        return _symmetrize(_weighted_sum(self._weights, self._arrays))

    def is_normalized(self) -> bool:
        """True when sum_s w_s A_s = I within the fixed 1e-10 in Frobenius norm."""
        return _frobenius(self.weighted_sum() - _eye(self.dim)) <= _NORMALIZED_TOL

    def pair_spectrum(self, other: "OperatorField") -> "PairSpectrum":
        """PairSpectrum(self, other), solved once per pair of field objects."""
        spectrum = self._spectra.get(other)
        if spectrum is None:
            spectrum = self._spectra[other] = PairSpectrum(self, other)
        return spectrum

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={len(self)}, dim={self.dim})"


_UNIT_WEIGHT = _freeze(np.ones(1))


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
    return _freeze(weights)


def _weighted_sum(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_s w_s X_s over the node axis of a (..., k, d, d) stack."""
    *lead, k, d, _ = stack.shape
    return (weights @ stack.reshape(*lead, k, d * d)).reshape(*lead, d, d)


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
    frame Q_s = A_s^{1/2} U_s (`frame`, (k, d, d)), with U_s an orthonormal
    eigenbasis of T_s, so that A_s^{1/2} g(T_s) A_s^{1/2} = Q_s
    diag(g(lambda_s)) Q_s* for any scalar g.  All nodes come from one pass
    over A's stacked eigendecomposition (the pair kernel
    `_relative_spectrum`).  Every mean and entropy of the pair is one diagonal
    scaling away, and a field aggregate is one product (`conjugate`); the
    unweighted image of one node is `_scalar_image(frame, values)`.  The
    aggregates are intermediates, Hermitian up to rounding (the module
    docstring's rule): entropy.py symmetrizes what it returns, and verify
    hands them to lower-triangle solves.  `OperatorField.pairs` solves
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

    def conjugate(self, values) -> np.ndarray:
        """sum_s w_s Q_s diag(values_s) Q_s*, Hermitian up to rounding for real `values`.

        `values` has the shape of `eigenvalues`, with optional leading axes
        for several aggregates at once; a (d,) vector applies to every node.
        One product over the node-concatenated frame [Q_1 | ... | Q_k]
        (d x kd), with the weights folded into the diagonal.
        """
        q = self.frame
        k, d = q.shape[0], q.shape[-1]
        wide = q.swapaxes(0, 1).reshape(d, k * d)
        scaled = np.asarray(values) * self.weights[:, None]
        return (wide * scaled.reshape(*scaled.shape[:-2], 1, k * d)) @ _adjoint(wide)

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
    return _freeze(_symmetrize(_scalar_image(a.decomposition.eigenvectors[0], values)))


def loewner_leq(a, b, tol: float = DEFAULT_LOEWNER_TOL) -> tuple[bool, float]:
    """Test A <= B in the Loewner order, as the one claim (A + A*)/2 <= (B + B*)/2.

    Returns (holds, margin) with margin = lambda_min(B - A), which holds when
    margin >= -tol * max(1, ||A||_2, ||B||_2).  A non-finite or overflowing
    entry, or a `tol` that `_require_tol` refuses, raises PreconditionError."""
    _require_tol(tol)
    aa, bb = _square(a), _square(b)
    if aa.shape != bb.shape:
        raise ShapeError(f"loewner_leq shape mismatch: {aa.shape} vs {bb.shape}")
    # Refused before the symmetrize too, whose complex halving warns at an inf (inf * 0j).
    if not (np.isfinite(aa).all() and np.isfinite(bb).all()):
        raise PreconditionError("loewner_leq needs finite entries")
    aa, bb = _symmetrize(np.array([aa, bb]))
    solved = _loewner_margins([(aa, "<=", bb)])
    if solved is None:
        raise PreconditionError("loewner_leq needs a finite symmetrized pair and difference (an entry overflowed)")
    (margin,), a_norm, b_norm = solved
    return _holds_within(margin, tol, a_norm, b_norm), margin


def _require_tol(tol) -> None:
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (math.isfinite(tol) and tol >= 0.0):
        raise PreconditionError(f"tol must be finite and nonnegative (a real number, not a bool), got {tol!r}")


def _loewner_margins(claims) -> tuple[list[float], float, float] | None:
    """Each claim's margin, the least eigenvalue of the difference it says is
    PSD (the lesser of two for "=="), and the largest lhs and rhs norms, from
    one stacked solve of every difference, then every side, each read by its
    lower triangle; None on a non-finite entry, which is checked before the
    solve, as it can return finite eigenvalues for NaN entries."""
    parts = [[rhs - lhs] if op == "<=" else [lhs - rhs] if op == ">=" else [lhs - rhs, rhs - lhs]
             for lhs, op, rhs in claims]
    stack = np.array([d for ds in parts for d in ds] + [side for lhs, _, rhs in claims for side in (lhs, rhs)])
    if not np.isfinite(stack).all():
        return None
    spectra = iter(_eigvalsh(stack).tolist())
    margins = [min(next(spectra)[0] for _ in ds) for ds in parts]
    norms = [max(abs(w[0]), abs(w[-1])) for w in spectra]
    return margins, max(norms[0::2]), max(norms[1::2])


def _holds_within(margin: float, tol: float, *norms: float) -> bool:
    """The one tolerance rule of the Loewner test: margin >= -tol * max(1, norms)."""
    return bool(margin >= -tol * float(max(1.0, *norms)))


def _relative_spectrum(a: SpectralDecomposition, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair kernel: eigenvalues of T = A^{-1/2} B A^{-1/2} and frames Q = A^{1/2} U.

    `a` is the eigendecomposition A = V D V*, `b` the array of B; both are
    one matrix or stacks of the same length.  T is solved in A's eigenbasis:
    with Y = V D^{-1/2}, T' = Y* B Y = V* T V is unitarily similar to T, one
    (stacked) eigensolve of its lower triangle gives T' = U' diag(lambda) U'*,
    and Q = (V D^{1/2}) U' is A^{1/2} U for the eigenbasis U = V U' of T.  So
    Q Q* = A, Q diag(lambda) Q* = B and A^{1/2} g(T) A^{1/2} = Q diag(g(lambda))
    Q* for any scalar g, from three products.  T' is an intermediate (the
    module docstring's rule).  Both results are read-only (a PairSpectrum
    memoises them).
    """
    v = a.eigenvectors
    root = np.sqrt(a.eigenvalues)[..., None, :]
    y = v / root
    lam, u = _eigh(_adjoint(y) @ b @ y)
    return _freeze(lam), _freeze((v * root) @ u)


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
