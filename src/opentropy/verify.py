"""Constrained random instances, the statement table, and bulk campaigns.

Every numbered inequality handled by the package has one TheoremId and one
entry in STATEMENTS.  The entry says how to draw a hypothesis-satisfying
instance, which hypotheses the checker gates on, and how to build both sides
of the inequality exactly as displayed.  One shared path turns the sides into
the Loewner margin (lambda_min of the difference that the statement claims is
positive semidefinite; a scalar slack for the information inequality; a
two-sided margin for the homogeneity identity).

Hypothesis violations are never counted as failures: the checker reports
hypothesis_met=False with an explanation and an empty margin.  Genuine
violations are triaged by the same tolerance rule at tol=1e-6 and labeled
"numerical" (float noise) or "substantive" (a real counterexample, which
would be a finding).

An Instance is its JSON: every slot has one encoder and one decoder
(`_SLOTS`), and every matrix and field is the solve of exactly the array its
JSON stores, so a file written by `gen` or dumped by a campaign re-checks to
the same margin bit for bit.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

import numpy as np

from . import functions
from .bounds import chord_gap_bound, chord_ratio_bound, zeta_closed_forms
from .entropy import (
    OperatorField,
    _require_aligned,
    _weighted_sum,
    field_from_json,
    field_to_json,
    pair_spectra,
)
from .errors import (
    DomainError,
    EigenConvergenceError,
    GenerationError,
    NotPositiveDefiniteError,
    PreconditionError,
    UndefinedRatioError,
)
from .functions import LOG, ScalarFunction, check_nonnegative_on, validate_declared_flags
from .maps import PositiveLinearMap, map_from_json, map_to_json
from .matcore import (
    DEFAULT_LOEWNER_TOL,
    PositiveDefiniteMatrix,
    SpectralDecomposition,
    _adjoint,
    _array_from_json,
    _eigh,
    _eigvalsh,
    _eye,
    _holds_within,
    _JsonRecord,
    _relative_eigenvalues,
    _scalar_image,
    _solve_pd,
    _symmetrize,
    matrix_from_json,
    matrix_to_json,
)

__all__ = [
    "TheoremId",
    "Statement",
    "STATEMENTS",
    "VerificationResult",
    "Instance",
    "CampaignConfig",
    "TrialRecord",
    "TheoremSummary",
    "CampaignReport",
    "random_resolution",
    "random_instance",
    "check",
    "triage",
    "trial_seed",
    "run_trial",
    "campaign",
]


class TheoremId(Enum):
    """One enumerant per verified statement; the statement table is total."""

    MEAN_INTEGRAL = "mean_integral"
    COMPRESSION_JENSEN = "compression_jensen"
    ENTROPY_LOWER = "entropy_lower"
    ENTROPY_NONNEG = "entropy_nonneg"
    ENTROPY_UPPER = "entropy_upper"
    KLEIN_UPPER = "klein_upper"
    INFO_INEQ = "info_ineq"
    SUBADDITIVE = "subadditive"
    HOMOGENEOUS = "homogeneous"
    JOINT_CONCAVE = "joint_concave"
    MAP_MONOTONE = "map_monotone"
    REV_JENSEN_GAMMA = "rev_jensen_gamma"
    REV_ENTROPY_GAMMA = "rev_entropy_gamma"
    REV_JENSEN_ZETA = "rev_jensen_zeta"
    REV_ENTROPY_ZETA = "rev_entropy_zeta"
    EXAMPLE_LOG_PAIR = "example_log_pair"


_STRADDLE_LO = 1.0 - 1e-6
_STRADDLE_HI = 1.0 + 1e-6
_RESAMPLE_CAP = 100


@dataclass(frozen=True)
class VerificationResult(_JsonRecord):
    """Outcome of one inequality check.

    margin is lambda_min of the claimed-PSD difference (scalar slack for
    INFO_INEQ, two-sided for equalities) and None on hypothesis skips.
    hypothesis_met=False means "not applicable", never "fail"; in a campaign,
    hypothesis_met=False with holds=False marks a trial that ended in an
    error (see run_trial).
    """

    theorem: TheoremId
    holds: bool
    margin: float | None
    lhs_norm: float
    rhs_norm: float
    hypothesis_met: bool
    detail: str
    triage: str | None = None


@dataclass
class Instance:
    """A generated hypothesis-satisfying input for one statement.

    (m, M) is a window covering the pair spectra of the family's field pairs
    (`_PAIRS`; a draw stores their measured sandwich constants) or, for the
    compression checks, the spectrum of X; t0 lies in [m, M] where used.  Optional slots cover the extra fields some statements need.
    """

    theorem: TheoremId
    seed: int
    dim: int
    k: int
    f: ScalarFunction | None = None
    q: float | None = None
    t0: float | None = None
    m: float | None = None
    M: float | None = None
    fa: OperatorField | None = None
    fb: OperatorField | None = None
    fc: OperatorField | None = None
    fd: OperatorField | None = None
    fa2: OperatorField | None = None
    fb2: OperatorField | None = None
    pmap: PositiveLinearMap | None = None
    cs: tuple | None = None
    cs_weights: np.ndarray | None = None
    x: PositiveDefiniteMatrix | None = None
    alpha: float | None = None
    beta: float | None = None

    def validate(self) -> None:
        st = STATEMENTS[self.theorem]
        for slot in st.needs:
            if getattr(self, slot) is None:
                key = _SLOTS[slot][0]
                raise PreconditionError(f"a {self.theorem.value} instance needs {key!r}, which is missing")
        if self.q is not None and not math.isfinite(self.q):
            raise PreconditionError(f"the exponent must be finite, got {self.q}")
        family = st.family
        if family is _normalized:
            if not (self.fa.is_normalized() and self.fb.is_normalized()):
                raise PreconditionError("fields must sum to the identity within 1e-10")
            if not (self.m <= _STRADDLE_LO and self.M >= _STRADDLE_HI):
                raise PreconditionError(
                    f"need m <= 1 - 1e-6 and M >= 1 + 1e-6, got m={self.m}, M={self.M}"
                )
        if self.t0 is not None and not self._covers(self.t0, self.t0):
            raise PreconditionError(f"t0={self.t0} outside [{self.m}, {self.M}]")
        # The chord constants are taken on [m, M]; they bound f on the spectrum
        # of X, or on the pair spectra of the fields, only when the window covers it.
        if family is _compression and not self._covers(self.x.lambda_min, self.x.lambda_max):
            raise PreconditionError(
                f"spectrum [{self.x.lambda_min}, {self.x.lambda_max}] of X not inside [{self.m}, {self.M}]"
            )
        for a, b in _PAIRS.get(family, ()):
            spectrum = getattr(self, a).pair_spectrum(getattr(self, b))
            if not self._covers(spectrum.m, spectrum.M):
                raise PreconditionError(
                    f"pair spectrum [{spectrum.m}, {spectrum.M}] of ({a}, {b}) not inside [{self.m}, {self.M}]"
                )
        if family is _probability:
            a = np.diag(self.fa.arrays[0]).real
            b = np.diag(self.fb.arrays[0]).real
            if abs(a.sum() - 1.0) > 1e-10 or abs(b.sum() - 1.0) > 1e-10:
                raise PreconditionError("probability vectors must sum to one")

    def _covers(self, lo: float, hi: float) -> bool:
        """[lo, hi] lies in [m, M], up to a slack of 1e-9 max(1, |M|)."""
        slack = 1e-9 * max(1.0, abs(self.M))
        return self.m - slack <= lo and hi <= self.M + slack

    def to_json(self) -> dict:
        return {
            key: encode(getattr(self, slot))
            for slot, (key, encode, _) in _SLOTS.items()
            if getattr(self, slot) is not None
        }

    @classmethod
    def from_json(cls, data: dict) -> "Instance":
        inst = cls(**{slot: decode(data[key]) for slot, (key, _, decode) in _SLOTS.items() if key in data})
        inst.validate()
        return inst


def _function_to_json(f: ScalarFunction) -> str:
    if not f.is_catalog:
        raise PreconditionError("custom scalar functions are not serializable")
    return f.spec


# The codec of an instance file: slot -> (JSON key, encoder, decoder).  A slot
# that is None is left out of the file; a key absent from the file is None.
_SLOTS: dict[str, tuple[str, Callable, Callable]] = {
    "theorem": ("theorem", lambda t: t.value, TheoremId),
    "seed": ("seed", int, int),
    "dim": ("dim", int, int),
    "k": ("k", int, int),
    "f": ("f", _function_to_json, functions.parse),
    **{name: (name, float, float) for name in ("q", "t0", "m", "M")},
    **{name: (name, field_to_json, field_from_json) for name in ("fa", "fb", "fc", "fd", "fa2", "fb2")},
    "pmap": ("map", map_to_json, map_from_json),
    "cs": ("cs", lambda cs: [matrix_to_json(c) for c in cs], lambda d: tuple(map(_array_from_json, d))),
    "cs_weights": ("cs_weights", lambda w: [float(v) for v in w], lambda d: np.asarray(d, dtype=float)),
    "x": ("x", matrix_to_json, lambda d: PositiveDefiniteMatrix(matrix_from_json(d))),
    "alpha": ("alpha", float, float),
    "beta": ("beta", float, float),
}


# ---------------------------------------------------------------------------
# shared path: claims -> margin, norms, verdict
# ---------------------------------------------------------------------------


class _Skip(Exception):
    """A hypothesis of the statement fails on this instance (not a failure)."""


@dataclass(frozen=True)
class Sides:
    """Both sides of a statement on one instance, as a builder returns them.

    Each claim (lhs, op, rhs) asserts lhs op rhs in the Loewner order, with op
    one of "<=", ">=" or "==" (two-sided).  A cross-check recomputes a claimed
    side by a second route: it adds a margin but not a norm.  The margin is the
    least one over claims and cross-checks; the norms are the largest over the
    claims.  `detail` is a string, or a function of the per-claim margins.
    A side that is a Python float (the information inequality) is its own
    eigenvalue.
    """

    claims: list
    detail: str | Callable[[list[float]], str]
    cross_checks: list = field(default_factory=list)


def _spectra(stack: np.ndarray) -> list:
    """Ascending eigenvalues of each item of a stack, in one stacked solve (the
    same bits as one solve each); a stack of floats is its own eigenvalues.
    Every item a builder makes is exactly Hermitian (a sum, difference or real
    multiple of symmetrized arrays), so it is solved as it is."""
    if stack.ndim == 1:
        return list(stack[:, None])
    return list(_eigvalsh(stack))


def _snorm(w: np.ndarray) -> float:
    return float(max(abs(w[0]), abs(w[-1])))


def _psd_parts(lhs, op: str, rhs) -> list:
    """The differences a claim says are positive semidefinite."""
    if op == "<=":
        return [rhs - lhs]
    if op == ">=":
        return [lhs - rhs]
    return [lhs - rhs, rhs - lhs]


def _verdict(theorem: TheoremId, sides: Sides, tol: float) -> VerificationResult:
    parts = [_psd_parts(*claim) for claim in sides.claims + sides.cross_checks]
    n = len(sides.claims)
    # Every difference, then every claimed lhs and rhs, in one stacked solve.
    stack = np.array(
        [d for ds in parts for d in ds] + [side for lhs, _, rhs in sides.claims for side in (lhs, rhs)]
    )
    if not np.isfinite(stack).all():
        # Overflow in a side (an exponent like 1e308): no order can be read off.
        # Checked before the solve, which can return finite eigenvalues for NaN entries.
        return VerificationResult(theorem, False, None, 0.0, 0.0, False, "error: non-finite margin")
    spectra = iter(_spectra(stack))
    all_margins = [min(float(next(spectra)[0]) for _ in ds) for ds in parts]
    margins, margin = all_margins[:n], min(all_margins)
    norms = [_snorm(next(spectra)) for _ in range(2 * n)]
    ln, rn = max(norms[0::2]), max(norms[1::2])
    holds = _holds_within(margin, tol, ln, rn)
    detail = sides.detail(margins) if callable(sides.detail) else sides.detail
    return VerificationResult(theorem, holds, margin, ln, rn, True, detail)


def _require_unit_exponent(q) -> float:
    p = float(q)
    if not 0.0 <= p <= 1.0:
        raise PreconditionError(f"this statement requires an exponent in [0, 1], got {p}")
    return p


def _gate(st: "Statement", f: ScalarFunction, lo: float, hi: float) -> float | None:
    """Apply the statement's hypothesis gates to f on [lo, hi].

    Raises _Skip when one fails; returns the chord constant the statement
    needs (gamma or zeta on [lo, hi]), or None.
    """
    validate_declared_flags(f, lo, hi)
    if st.concave and not f.operator_concave:
        raise _Skip(f"{f.name} is not flagged operator concave")
    # A declared interval covering [lo, hi] is a fact: trusted for a catalog
    # f, and grid-checked on [lo, hi] by validate_declared_flags for any other.
    declared = f.nonnegative_on
    covered = declared is not None and declared[0] <= lo and hi <= declared[1]
    if st.nonneg and not covered and not check_nonnegative_on(f, lo, hi):
        raise _Skip(f"{f.name} is negative somewhere on [{lo:.6g}, {hi:.6g}]")
    # The tangent line at 1 gives f(t) <= t - 1 everywhere, but only the
    # catalog's flags are facts; any other f is evaluated on the grid.
    if st.below_t_minus_1 and not (f.is_catalog and _tangent_at_one(f)):
        ts = np.linspace(lo, hi, functions.GRID_POINTS)
        excess = float((f.evaluate_array(ts) - (ts - 1.0)).max())
        if excess > 1e-12:
            raise _Skip(f"{f.name}(t) exceeds t - 1 by {excess:.3e} on [{lo:.6g}, {hi:.6g}]")
    if st.constant == "gamma":
        try:
            return chord_ratio_bound(f, lo, hi)
        except (UndefinedRatioError, PreconditionError) as exc:
            raise _Skip(f"ratio bound undefined: {exc}") from exc
    if st.constant == "zeta":
        return chord_gap_bound(f, lo, hi)
    return None


# ---------------------------------------------------------------------------
# term helpers shared by the builders
# ---------------------------------------------------------------------------


def _spectral_image(arr: np.ndarray, scalar_map) -> np.ndarray:
    """scalar_map applied to an exactly Hermitian array (every caller's is a
    sum of symmetrized arrays and real multiples of them)."""
    w, v = _eigh(arr)
    return _scalar_image(v, scalar_map(w))


def _fields_like(fields: tuple, stack: np.ndarray) -> tuple:
    """Fields on the nodes and weights that the aligned `fields` share, one
    per item of the (n, k, d, d) `stack` of their combinations, solved in one call."""
    for other in fields[1:]:
        _require_aligned(fields[0], other)
    return OperatorField.stack(fields[0].weights, stack)


def _entropy_terms(inst: Instance, p: float, *more):
    """Pair spectra, I, V = sum w A#_pB, W = sum w A#_{p+1}B + t0(I - V), and
    one aggregate sum w A^{1/2} g(T) A^{1/2} per extra eigenvalue map g."""
    spectrum = inst.fa.pair_spectrum(inst.fb)
    lam = spectrum.eigenvalues
    eye = _eye(inst.fa.dim)
    v, w_plus, *rest = spectrum.conjugate(np.array([lam ** p, lam ** (p + 1.0)] + [g(lam) for g in more]))
    return spectrum, eye, v, w_plus + inst.t0 * (eye - v), rest


def _entropy_bound_terms(inst: Instance, gamma: float = 1.0):
    """f(W) - gamma f(t0)(I - V), S_p = sum w A^{1/2} T^p f(T) A^{1/2} and I."""
    p, f = float(inst.q), inst.f
    _, eye, v, w_arg, (s,) = _entropy_terms(inst, p, lambda lam: lam ** p * f.evaluate_array(lam))
    lhs = _spectral_image(w_arg, f.evaluate_array) - gamma * f.evaluate(inst.t0) * (eye - v)
    return lhs, s, eye


def _compression_terms(inst: Instance):
    """f(lifted argument) and the compressed right-hand side it is checked against."""
    f, x = inst.f, inst.x
    eye = _eye(x.dim)
    c = np.array(inst.cs)
    ch = _adjoint(c)
    fx = x.scalar_image(f.evaluate_array(x.eigenvalues))
    gram, lifted, compressed = _weighted_sum(
        inst.cs_weights, np.array([ch @ c, ch @ x.array @ c, ch @ fx @ c])
    )
    defect = eye - gram
    low, size = _spectra(np.array([defect, gram]))
    if low[0] < -1e-10 * max(1.0, _snorm(size)):
        raise PreconditionError("compression sum exceeds the identity")
    arg = lifted + inst.t0 * defect
    f_arg = _spectral_image(arg, f.evaluate_array)
    rhs = compressed + f.evaluate(inst.t0) * defect
    return f_arg, rhs


# ---------------------------------------------------------------------------
# builders: (inst, gate) -> Sides, one per statement.  `gate(lo, hi)` applies
# the statement's declared gates on [lo, hi] (default: the instance window)
# and returns its chord constant.
# ---------------------------------------------------------------------------


def _mean_integral(inst: Instance, gate) -> Sides:
    """sum_s w_s (A_s #_p B_s) <= (sum w A) #_p (sum w B), p in [0,1]"""
    p = float(inst.q)
    lhs = inst.fa.pair_spectrum(inst.fb).power_mean(p)
    totals = np.array([inst.fa.weighted_sum(), inst.fb.weighted_sum()])
    total_a, total_b = OperatorField.stack(np.ones(1), totals[:, None])
    rhs = total_a.pair_spectrum(total_b).power_mean(p)
    return Sides([(lhs, "<=", rhs)], f"node-wise power means vs power mean of the integrals at p={p:g}")


def _compression_jensen(inst: Instance, gate) -> Sides:
    """f(sum w C*XC + t0(I - sum w C*C)) >= sum w C*f(X)C + f(t0)(I - sum w C*C)"""
    gate()
    f_arg, rhs = _compression_terms(inst)
    return Sides([(f_arg, ">=", rhs)], "lifted Jensen inequality for a sub-unital compression family")


def _rev_jensen_gamma(inst: Instance, gate) -> Sides:
    """f(lifted argument) <= gamma * [sum w C*f(X)C + f(t0)(I - sum w C*C)]"""
    gamma = gate()
    f_arg, rhs = _compression_terms(inst)
    return Sides([(f_arg, "<=", gamma * rhs)], f"reverse lifted Jensen with gamma={gamma!r}")


def _rev_jensen_zeta(inst: Instance, gate) -> Sides:
    """f(lifted argument) <= sum w C*f(X)C + f(t0)(I - sum w C*C) + zeta I"""
    zeta = gate()
    f_arg, rhs = _compression_terms(inst)
    shifted = rhs + zeta * _eye(inst.x.dim)
    return Sides([(f_arg, "<=", shifted)], f"reverse lifted Jensen with zeta={zeta!r}")


def _entropy_lower(inst: Instance, gate) -> Sides:
    """f(W) - f(t0)(I - V) >= S_p with V = sum w A#_pB, W = sum w A#_{p+1}B + t0(I - V)"""
    gate()
    lhs, s, _ = _entropy_bound_terms(inst)
    return Sides([(lhs, ">=", s)], f"entropy lower bound at p={inst.q:g}, t0={inst.t0:.6g}")


def _rev_entropy_gamma(inst: Instance, gate) -> Sides:
    """f(W) - gamma f(t0)(I - V) <= gamma S_p"""
    gamma = gate()
    lhs, s, _ = _entropy_bound_terms(inst, gamma)
    detail = f"reverse entropy bound with gamma={gamma!r} at p={inst.q:g}"
    return Sides([(lhs, "<=", gamma * s)], detail)


def _rev_entropy_zeta(inst: Instance, gate) -> Sides:
    """f(W) - f(t0)(I - V) <= S_p + zeta I"""
    zeta = gate()
    lhs, s, eye = _entropy_bound_terms(inst)
    detail = f"reverse entropy bound with zeta={zeta!r} at p={inst.q:g}"
    return Sides([(lhs, "<=", s + zeta * eye)], detail)


def _entropy_nonneg(inst: Instance, gate) -> Sides:
    """S_q >= 0 when f >= 0 on the encountered spectra"""
    gate()
    q, f, dim = float(inst.q), inst.f, inst.fa.dim
    s = inst.fa.pair_spectrum(inst.fb).entropy_term(q, f)
    detail = f"nonnegativity of the aggregated entropy at q={q:g}"
    return Sides([(np.zeros((dim, dim)), "<=", s)], detail)


def _entropy_upper(inst: Instance, gate) -> Sides:
    """S_q <= sum w (A#_{q+1}B - A#_qB) when f(t) <= t - 1"""
    gate()
    q, f, fa, fb = float(inst.q), inst.f, inst.fa, inst.fb
    spectrum = fa.pair_spectrum(fb)
    lam = spectrum.eigenvalues
    s, rhs = spectrum.conjugate(np.array([lam ** q * f.evaluate_array(lam), lam ** (q + 1.0) - lam ** q]))
    detail = f"entropy upper bound at q={q:g}"
    # The closed forms are taken on the node arrays, apart from the pair spectra.
    a, b = fa.arrays, fb.arrays
    if q == 0.0:
        direct = _weighted_sum(fa.weights, b - a)
        detail += "; closed form sum w (B - A) cross-checked"
    elif q == 1.0:
        a_inv = _scalar_image(fa.decomposition.eigenvectors, 1.0 / fa.decomposition.eigenvalues)
        direct = _weighted_sum(fa.weights, b @ a_inv @ b - b)
        detail += "; closed form sum w (B A^{-1} B - B) cross-checked"
    else:
        return Sides([(s, "<=", rhs)], detail)
    return Sides([(s, "<=", rhs)], detail, cross_checks=[(s, "<=", direct)])


def _klein_upper(inst: Instance, gate) -> Sides:
    """S(A|B) <= B - A (relative operator entropy, Klein bound)"""
    spectrum = inst.fa.pair_spectrum(inst.fb)
    # The node's own term, unweighted: the field carries the pair's one node.
    s = spectrum.node_images(LOG.evaluate_array(spectrum.eigenvalues))[0]
    rhs = inst.fb.arrays[0] - inst.fa.arrays[0]
    return Sides([(s, "<=", rhs)], "relative operator entropy against B - A")


def _info_ineq(inst: Instance, gate) -> Sides:
    """sum_j a_j log(a_j/b_j) >= 0 for probability vectors, equality iff a = b"""
    a = np.diag(inst.fa.arrays[0]).real
    b = np.diag(inst.fb.arrays[0]).real
    value = float(np.sum(a * np.log(a / b)))
    detail = "divergence of two probability vectors; equality exactly when a = b"
    return Sides([(value, ">=", 0.0)], detail)


def _subadditive(inst: Instance, gate) -> Sides:
    """S_0(FA+FB | FC+FD) >= S_0(FA|FC) + S_0(FB|FD) node-wise"""
    fa, fb, fc, fd = inst.fa, inst.fb, inst.fc, inst.fd
    left, right = _fields_like((fa, fb, fc, fd), np.array([fa.arrays + fb.arrays, fc.arrays + fd.arrays]))
    spectrum = left.pair_spectrum(right)
    gate(min(inst.m, spectrum.m), max(inst.M, spectrum.M))
    term = inst.f.evaluate_array
    lhs = spectrum.aggregate(term)
    rhs = inst.fa.pair_spectrum(inst.fc).aggregate(term) + inst.fb.pair_spectrum(inst.fd).aggregate(term)
    return Sides([(lhs, ">=", rhs)], "subadditivity of the aggregated entropy at q=0")


def _homogeneous(inst: Instance, gate) -> Sides:
    """S_q(alpha A | alpha B) = alpha S_q(A|B) for alpha > 0 (equality, two-sided)"""
    alpha, q, f = float(inst.alpha), float(inst.q), inst.f
    if alpha <= 0.0:
        raise NotPositiveDefiniteError(f"scaling a field by {alpha} leaves the cone")
    # The scaled pair is solved afresh: the lhs shares no spectra with the rhs.
    scaled_a, scaled_b = _fields_like((inst.fa, inst.fb), alpha * np.array([inst.fa.arrays, inst.fb.arrays]))
    lhs = scaled_a.pair_spectrum(scaled_b).entropy_term(q, f)
    rhs = alpha * inst.fa.pair_spectrum(inst.fb).entropy_term(q, f)
    return Sides([(lhs, "==", rhs)], f"homogeneity at alpha={alpha:g}, q={q:g} (two-sided margin)")


def _joint_concave(inst: Instance, gate) -> Sides:
    """S_0(alpha P1 + beta P2) >= alpha S_0(P1) + beta S_0(P2), alpha + beta = 1"""
    alpha, beta = float(inst.alpha), float(inst.beta)
    if alpha <= 0.0 or beta <= 0.0 or abs(alpha + beta - 1.0) > 1e-12:
        raise PreconditionError(f"need alpha, beta > 0 with alpha + beta = 1, got {alpha}, {beta}")
    fa, fb, fa2, fb2 = inst.fa, inst.fb, inst.fa2, inst.fb2
    mixed = np.array([alpha * fa.arrays + beta * fa2.arrays, alpha * fb.arrays + beta * fb2.arrays])
    mixed_a, mixed_b = _fields_like((fa, fb, fa2, fb2), mixed)
    spectrum = mixed_a.pair_spectrum(mixed_b)
    gate(min(inst.m, spectrum.m), max(inst.M, spectrum.M))
    term = inst.f.evaluate_array
    lhs = spectrum.aggregate(term)
    first = inst.fa.pair_spectrum(inst.fb).aggregate(term)
    second = inst.fa2.pair_spectrum(inst.fb2).aggregate(term)
    rhs = alpha * first + beta * second
    return Sides([(lhs, ">=", rhs)], f"joint concavity at alpha={alpha:g}")


def _map_monotone(inst: Instance, gate) -> Sides:
    """Phi(S_0(FA|FB)) <= S_0(Phi FA | Phi FB) for normalized positive Phi"""
    gate()
    f, pm = inst.f, inst.pmap
    if not pm.is_normalized():
        raise PreconditionError("map is not normalized")
    lhs = pm.apply_array(inst.fa.pair_spectrum(inst.fb).aggregate(f.evaluate_array))
    try:
        image_a, image_b = (
            OperatorField(_weights=fld.weights, _arrays=pm.apply_array(fld.arrays))
            for fld in (inst.fa, inst.fb)
        )
    except NotPositiveDefiniteError as exc:
        raise _Skip(f"map image not positive definite ({exc})") from exc
    rhs = image_a.pair_spectrum(image_b).aggregate(f.evaluate_array)
    return Sides([(lhs, "<=", rhs)], "informational monotonicity under a normalized positive map")


def _example_log_pair(inst: Instance, gate) -> Sides:
    """closed-form gap bounds for log t and -t log t in the reverse entropy bound"""
    p, t0 = float(inst.q), inst.t0
    try:
        zeta_log, zeta_neg = zeta_closed_forms(inst.m, inst.M)
    except PreconditionError as exc:
        raise _Skip(f"closed forms need m < 1 < M: {exc}") from exc
    _, eye, v, w_arg, (s_p, s_p1) = _entropy_terms(
        inst, p, lambda lam: lam ** p * np.log(lam), lambda lam: lam ** (p + 1.0) * np.log(lam)
    )
    ww, wv = _eigh(w_arg)
    w_log_w, log_w = _scalar_image(wv, np.array([ww * np.log(ww), np.log(ww)]))
    return Sides(
        [
            # -t log t route: W log W - t0 log(t0) (I - V) >= S_{p+1} - zeta_neg I
            (w_log_w - t0 * math.log(t0) * (eye - v), ">=", s_p1 - zeta_neg * eye),
            # log route: log W - log(t0) (I - V) <= S_p + zeta_log I
            (log_w - math.log(t0) * (eye - v), "<=", s_p + zeta_log * eye),
        ],
        lambda m: f"closed-form pair at p={p:g}: margins {m[0]:.3e} (-t log t) and {m[1]:.3e} (log)",
    )


# ---------------------------------------------------------------------------
# generator families: (rng, inst, diagonal) -> None, filling the instance
# ---------------------------------------------------------------------------


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _cgauss(rng, n: int, *lead: int) -> np.ndarray:
    """A complex Gaussian n x n matrix (real part drawn first), or a
    (*lead, n, n) stack of them drawn one after another in one rng call (the
    same numbers, in the same order, as one call per matrix).  Both parts are
    scaled by 1/sqrt(2) and written into one complex array, the same bits as
    (re + 1j im) / sqrt(2), which numpy divides as a product with 1/sqrt(2)."""
    z = rng.standard_normal((*lead, 2, n, n))
    z *= _INV_SQRT2
    out = np.empty((*lead, n, n), dtype=complex)
    out.real = z[..., 0, :, :]
    out.imag = z[..., 1, :, :]
    return out


def _random_unitaries(rng, n: int, k: int) -> np.ndarray:
    """k Haar-random n x n unitaries, drawn one after another, as one stack."""
    q, r = np.linalg.qr(_cgauss(rng, n, k))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def _diagonals(rows: np.ndarray) -> np.ndarray:
    """The stack of complex diagonal matrices diag(row), one per row (last axis)."""
    return rows[..., None] * _eye(rows.shape[-1], complex)


def _lead(k: int, count: int | None) -> tuple[int, ...]:
    return (k,) if count is None else (count, k)


def _resolution_arrays(rng, dim: int, k: int, diagonal: bool, count: int | None = None) -> np.ndarray:
    """A (k, dim, dim) stack of PD matrices summing to the identity, or
    `count` of them as one (count, k, dim, dim) stack, drawn as consecutive
    calls would draw them and with the count sums solved in one call."""
    if diagonal:
        cols = rng.uniform(0.2, 1.0, size=(*_lead(k, count), dim))
        cols /= cols.sum(axis=-2, keepdims=True)
        return _diagonals(cols)
    g = _cgauss(rng, dim, *_lead(k, count))
    # The 0.5*dim ridge keeps every summand (hence every node) well conditioned.
    arrays = _symmetrize(g @ _adjoint(g)) + 0.5 * dim * _eye(dim)
    sums = _solve_pd(arrays.sum(axis=-3))
    isq = _scalar_image(sums.eigenvectors, 1.0 / np.sqrt(sums.eigenvalues))[..., None, :, :]
    return _symmetrize(isq @ arrays @ isq)


def random_resolution(dim: int, k: int, seed: int) -> OperatorField:
    """k unit-weight PD matrices summing to the identity; deterministic in seed."""
    if dim < 1 or k < 1:
        raise PreconditionError(f"need dim >= 1 and k >= 1, got dim={dim}, k={k}")
    rng = np.random.default_rng(seed)
    return OperatorField(_weights=np.ones(k), _arrays=_resolution_arrays(rng, dim, k, diagonal=False))


def _random_weights(rng, k: int) -> np.ndarray:
    if rng.uniform() < 0.5:
        return np.ones(k)
    return rng.uniform(0.5, 2.0, size=k)


def _normalized(rng, inst: Instance, diagonal: bool) -> None:
    """Two fields summing to the identity with m < 1 < M, and t0 in [m, M]."""
    dim, k = inst.dim, inst.k
    if k < 2:
        raise PreconditionError("normalized instances need k >= 2 (k = 1 forces both fields to {I})")
    for _ in range(_RESAMPLE_CAP):
        weights = _random_weights(rng, k)
        resolutions = _resolution_arrays(rng, dim, k, diagonal, 2)
        fa, fb = OperatorField.stack(weights, resolutions / weights[:, None, None])
        # The memoised pair spectrum: the check reuses it.
        spectrum = fa.pair_spectrum(fb)
        m, M = spectrum.m, spectrum.M
        if m <= _STRADDLE_LO and M >= _STRADDLE_HI:
            inst.fa, inst.fb, inst.m, inst.M = fa, fb, m, M
            inst.t0 = float(rng.uniform(m, M))
            return
    raise GenerationError(f"no strict m < 1 < M pair after {_RESAMPLE_CAP} draws")


def _free_arrays(rng, dim: int, k: int, diagonal: bool, count: int | None = None) -> np.ndarray:
    """k well-conditioned PD matrices, drawn node by node, as one (k, dim, dim)
    stack, or `count` such stacks drawn one after another as (count, k, dim, dim)."""
    if diagonal:
        return _diagonals(rng.uniform(0.5, 4.0, size=(*_lead(k, count), dim)))
    g = _cgauss(rng, dim, *_lead(k, count))
    return _symmetrize(g @ _adjoint(g)) / dim + 0.5 * _eye(dim)


def _centered(rng, inst: Instance, diagonal: bool) -> None:
    """A free pair rescaled so the measured sandwich window straddles 1."""
    dim, k = inst.dim, inst.k
    for _ in range(_RESAMPLE_CAP):
        weights = _random_weights(rng, k)
        fa, fb = OperatorField.stack(weights, _free_arrays(rng, dim, k, diagonal, 2))
        # The unscaled pair is only measured: its spectrum alone, not memoised.
        lam = _relative_eigenvalues(fa.decomposition, fb.arrays)
        m, M = float(lam[:, 0].min()), float(lam[:, -1].max())
        if M / m >= 1.0 + 1e-9:
            fb = fb.scaled(1.0 / math.sqrt(m * M))
            spectrum = fa.pair_spectrum(fb)
            m, M = spectrum.m, spectrum.M
        elif dim > 1 or k > 1:
            continue
        # A scalar 1x1 pair has m = M; the straddle is only possible (and only
        # stated) for genuinely spread spectra.
        if dim == 1 or (m <= _STRADDLE_LO and M >= _STRADDLE_HI):
            inst.fa, inst.fb, inst.m, inst.M = fa, fb, m, M
            return
    raise GenerationError(f"no usable free pair after {_RESAMPLE_CAP} draws")


def _free(draw_order: tuple[str, ...]):
    """Free fields with one shared weight vector, drawn into the named slots;
    the window covers every pair that `_PAIRS` names for the family."""

    def draw(rng, inst: Instance, diagonal: bool) -> None:
        weights = _random_weights(rng, inst.k)
        arrays = _free_arrays(rng, inst.dim, inst.k, diagonal, len(draw_order))
        for name, fld in zip(draw_order, OperatorField.stack(weights, arrays)):
            setattr(inst, name, fld)
        spectra = pair_spectra((getattr(inst, a), getattr(inst, b)) for a, b in _PAIRS[draw])
        inst.m = min(s.m for s in spectra)
        inst.M = max(s.M for s in spectra)

    return draw


_four_fields = _free(("fa", "fb", "fc", "fd"))
_two_pairs = _free(("fa", "fb", "fa2", "fb2"))


def _compression(rng, inst: Instance, diagonal: bool) -> None:
    """A sub-unital family {C_s} with weights, X centred on 1, and t0 in [m, M].

    [m, M] is spec(X)'s range; at dim 1, where X is a scalar x with no spread
    to centre, it is the window [r, max(x, 1/r)] with r = min(x, 1/x,
    1 - 1e-6), which contains x and has 1 in its interior as at dim >= 2.
    """
    dim, k = inst.dim, inst.k
    extra = 1 if rng.uniform() < 0.75 else 0
    arrays = _resolution_arrays(rng, dim, k + extra, diagonal)[:k]
    weights = _random_weights(rng, k)
    unitaries = None if diagonal else _random_unitaries(rng, dim, k)
    x0_array = _free_arrays(rng, dim, 1, diagonal)
    # The k nodes C_s*C_s and X0 in one solve: node roots from the first k, X0 from the last.
    solved = _solve_pd(np.concatenate([arrays / weights[:, None, None], x0_array]))
    roots = _scalar_image(solved.eigenvectors[:k], np.sqrt(solved.eigenvalues[:k]))
    cs = roots if diagonal else unitaries @ roots
    x0_decomposition = SpectralDecomposition(solved.eigenvalues[k], solved.eigenvectors[k])
    x0 = PositiveDefiniteMatrix(x0_array[0], _decomposition=x0_decomposition)
    if dim > 1 and x0.lambda_max / x0.lambda_min > 1.0 + 1e-9:
        x = x0.scaled(1.0 / math.sqrt(x0.lambda_min * x0.lambda_max))
    else:
        x = x0
    inst.cs, inst.cs_weights, inst.x = tuple(cs), weights, x
    inst.m, inst.M = x.lambda_min, x.lambda_max
    if dim == 1:
        r = min(inst.m, 1.0 / inst.m, _STRADDLE_LO)
        inst.m, inst.M = r, max(inst.M, 1.0 / r)
    inst.t0 = float(rng.uniform(inst.m, inst.M))


def _prob_vector(rng, dim: int) -> np.ndarray:
    v = rng.dirichlet(2.0 * np.ones(dim))
    v = np.clip(v, 1e-9, None)
    return v / v.sum()


def _probability(rng, inst: Instance, diagonal: bool) -> None:
    """Two strictly positive probability vectors as diagonal one-node fields."""
    vectors = np.array([_prob_vector(rng, inst.dim) for _ in range(2)])
    inst.fa, inst.fb = OperatorField.stack(np.ones(1), _diagonals(vectors[:, None]))


def _draw_scale(rng, inst: Instance, diagonal: bool) -> None:
    inst.alpha = float(rng.choice([0.5, 2.0]))


def _draw_blend(rng, inst: Instance, diagonal: bool) -> None:
    inst.alpha = float(rng.uniform(0.25, 0.75))
    inst.beta = 1.0 - inst.alpha


def _draw_map(rng, inst: Instance, diagonal: bool) -> None:
    dim = inst.dim
    if diagonal:
        probs = rng.dirichlet(np.ones(3))
        kraus = []
        for prob in probs:
            perm = np.eye(dim)[rng.permutation(dim)]
            kraus.append(math.sqrt(prob) * perm.astype(complex))
        inst.pmap = PositiveLinearMap(kraus)
    else:
        inst.pmap = PositiveLinearMap.random_normalized(dim, dim, int(rng.integers(1, 4)), rng)


# The instance slots each generator family and extra fills.
_FILLS = {
    _normalized: ("fa", "fb", "m", "M", "t0"),
    _centered: ("fa", "fb", "m", "M"),
    _four_fields: ("fa", "fb", "fc", "fd", "m", "M"),
    _two_pairs: ("fa", "fb", "fa2", "fb2", "m", "M"),
    _compression: ("cs", "cs_weights", "x", "m", "M", "t0"),
    _probability: ("fa", "fb"),
    _draw_scale: ("alpha",),
    _draw_blend: ("alpha", "beta"),
    _draw_map: ("pmap",),
}

# The field pairs whose spectra the window [m, M] of each field family covers.
_PAIRS = {
    _normalized: (("fa", "fb"),),
    _centered: (("fa", "fb"),),
    _four_fields: (("fa", "fc"), ("fb", "fd")),
    _two_pairs: (("fa", "fb"), ("fa2", "fb2")),
}


# ---------------------------------------------------------------------------
# the statement table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """One verified statement: how to draw it, what it assumes, what it claims.

    family and extras fill a fresh instance from the generator; `fixed` pins
    instance fields before the draw; `reads` names the drawn parameters (f, q)
    the builder uses.  unit_exponent requires q in [0, 1].  The
    gates (operator concave, nonnegative on the window, f(t) <= t - 1) skip
    the check when they fail; `constant` names the chord constant the builder
    receives from its gate ("gamma" or "zeta").  The builder's docstring is
    the statement as displayed.
    """

    family: Callable
    build: Callable[[Instance, Callable], Sides]
    extras: Callable | None = None
    fixed: dict = field(default_factory=dict)
    reads: tuple[str, ...] = ("f", "q")
    unit_exponent: bool = False
    concave: bool = False
    nonneg: bool = False
    below_t_minus_1: bool = False
    constant: str | None = None

    @property
    def note(self) -> str:
        return self.build.__doc__

    @functools.cached_property
    def needs(self) -> tuple[str, ...]:
        """The instance slots a check of this statement reads (computed once)."""
        return _FILLS[self.family] + _FILLS.get(self.extras, ()) + self.reads

    def admits(self, f: ScalarFunction) -> bool:
        """Whether f can meet this statement's function gates on the windows
        its family draws, judged from the declared gates and f's flags alone.

        `concave` needs f flagged operator concave.  `nonneg` on a family whose
        windows contain 1 in their interior needs f's declared nonnegative
        interval to contain a neighbourhood of 1.  `below_t_minus_1` needs the
        tangent line at 1: f flagged concave with f(1) = 0 and f'(1) = 1,
        which gives f(t) <= t - 1 everywhere.  Admissibility only shapes a
        campaign's draw of f; every trial is still gated.
        """
        if self.concave and not f.operator_concave:
            return False
        if self.nonneg and self.family in _STRADDLING_FAMILIES:
            interval = f.nonnegative_on
            if interval is None or not interval[0] < 1.0 < interval[1]:
                return False
        return not self.below_t_minus_1 or _tangent_at_one(f)


# The families whose windows contain 1 in their interior.
_STRADDLING_FAMILIES = (_normalized, _compression)


def _tangent_at_one(f: ScalarFunction) -> bool:
    """f concave with f(1) = 0 and f'(1) = 1, so that f(t) <= t - 1."""
    if not (f.operator_concave or f.strictly_concave) or f.deriv is None or not f.domain_low < 1.0:
        return False
    return f.evaluate(1.0) == 0.0 and f.derivative(1.0) == 1.0


STATEMENTS: dict[TheoremId, Statement] = {
    TheoremId.MEAN_INTEGRAL: Statement(
        _centered, _mean_integral, fixed={"f": None}, reads=("q",), unit_exponent=True
    ),
    TheoremId.COMPRESSION_JENSEN: Statement(
        _compression, _compression_jensen, reads=("f",), concave=True, nonneg=True
    ),
    TheoremId.ENTROPY_LOWER: Statement(
        _normalized, _entropy_lower, unit_exponent=True, concave=True, nonneg=True
    ),
    TheoremId.ENTROPY_NONNEG: Statement(_normalized, _entropy_nonneg, nonneg=True),
    TheoremId.ENTROPY_UPPER: Statement(_normalized, _entropy_upper, below_t_minus_1=True),
    TheoremId.KLEIN_UPPER: Statement(_centered, _klein_upper, fixed={"k": 1, "f": LOG}, reads=()),
    TheoremId.INFO_INEQ: Statement(_probability, _info_ineq, fixed={"k": 1, "f": LOG}, reads=()),
    TheoremId.SUBADDITIVE: Statement(
        _four_fields, _subadditive, fixed={"q": 0.0}, reads=("f",), concave=True
    ),
    TheoremId.HOMOGENEOUS: Statement(_centered, _homogeneous, extras=_draw_scale),
    TheoremId.JOINT_CONCAVE: Statement(
        _two_pairs, _joint_concave, extras=_draw_blend, fixed={"q": 0.0}, reads=("f",), concave=True
    ),
    TheoremId.MAP_MONOTONE: Statement(
        _centered, _map_monotone, extras=_draw_map, fixed={"q": 0.0}, reads=("f",), concave=True
    ),
    TheoremId.REV_JENSEN_GAMMA: Statement(
        _compression, _rev_jensen_gamma, reads=("f",), concave=True, nonneg=True, constant="gamma"
    ),
    TheoremId.REV_ENTROPY_GAMMA: Statement(
        _normalized, _rev_entropy_gamma, unit_exponent=True, concave=True, nonneg=True,
        constant="gamma",
    ),
    TheoremId.REV_JENSEN_ZETA: Statement(
        _compression, _rev_jensen_zeta, reads=("f",), concave=True, constant="zeta"
    ),
    TheoremId.REV_ENTROPY_ZETA: Statement(
        _normalized, _rev_entropy_zeta, unit_exponent=True, concave=True, constant="zeta"
    ),
    TheoremId.EXAMPLE_LOG_PAIR: Statement(
        _normalized, _example_log_pair, fixed={"f": None}, reads=("q",), unit_exponent=True
    ),
}


def check(theorem: TheoremId, inst: Instance, tol: float = DEFAULT_LOEWNER_TOL) -> VerificationResult:
    """Evaluate one theorem on one instance; pure in (theorem, inst, tol)."""
    if tol < 0.0:
        raise PreconditionError("tol must be nonnegative")
    st = STATEMENTS[theorem]
    if st.unit_exponent:
        _require_unit_exponent(inst.q)

    def gate(lo: float = inst.m, hi: float = inst.M) -> float | None:
        return _gate(st, inst.f, lo, hi)

    try:
        sides = st.build(inst, gate)
    except _Skip as skip:
        return VerificationResult(theorem, True, None, 0.0, 0.0, False, str(skip))
    return _verdict(theorem, sides, tol)


def triage(theorem: TheoremId, inst: Instance, tol: float = DEFAULT_LOEWNER_TOL) -> VerificationResult:
    """check, then label a violation "numerical" if its margin and norms pass the
    tolerance rule at tol=1e-6, else "substantive" (neither depends on tol)."""
    result = check(theorem, inst, tol)
    if result.hypothesis_met and not result.holds:
        numerical = _holds_within(result.margin, 1e-6, result.lhs_norm, result.rhs_norm)
        result = replace(result, triage="numerical" if numerical else "substantive")
    return result


def random_instance(
    theorem: TheoremId,
    dim: int,
    k: int,
    seed: int,
    f: ScalarFunction | None = None,
    p_or_q: float = 0.5,
    diagonal: bool = False,
) -> Instance:
    """Draw a hypothesis-satisfying instance for `theorem`; deterministic in seed.

    With diagonal=True every matrix in the instance is diagonal, so both sides
    of the checked inequality reduce to scalar arithmetic (the smoke mode used
    to compare checkers against an independent scalar implementation).
    """
    if dim < 1 or not 1 <= dim <= 64:
        raise PreconditionError(f"dim must lie in 1..64, got {dim}")
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    st = STATEMENTS[theorem]
    if st.unit_exponent:
        _require_unit_exponent(p_or_q)
    rng = np.random.default_rng(seed)
    inst = Instance(
        theorem=theorem, seed=int(seed), dim=int(dim), k=int(k),
        f=functions.power(0.5) if f is None else f, q=float(p_or_q),
    )
    for key, value in st.fixed.items():
        setattr(inst, key, value)
    st.family(rng, inst, diagonal)
    if st.extras is not None:
        st.extras(rng, inst, diagonal)
    inst.validate()
    return inst


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


@dataclass
class CampaignConfig(_JsonRecord):
    """Plan for a bulk verification run; every random draw flows from `seed`."""

    theorems: tuple[TheoremId, ...] = tuple(TheoremId)
    trials: int = 100
    dims: tuple[int, int] = (2, 8)
    terms: tuple[int, int] = (2, 4)
    functions: tuple[str, ...] = ("power:0.5", "power:0.25", "neg_t_log_t", "log")
    exponents: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    tol: float = DEFAULT_LOEWNER_TOL
    seed: int = 0

    def validate(self) -> None:
        if self.trials < 0:
            raise PreconditionError("trials must be >= 0")
        if self.tol <= 0.0:
            raise PreconditionError("tol must be > 0")
        if not (1 <= self.dims[0] <= self.dims[1] <= 64):
            raise PreconditionError(f"dims must satisfy 1 <= lo <= hi <= 64, got {self.dims}")
        if not (1 <= self.terms[0] <= self.terms[1]):
            raise PreconditionError(f"terms must satisfy 1 <= lo <= hi, got {self.terms}")
        if not self.functions or not self.exponents:
            raise PreconditionError("need at least one function and one exponent")
        if not all(math.isfinite(q) for q in self.exponents):
            raise PreconditionError(f"exponents must be finite, got {self.exponents}")
        for spec in self.functions:
            functions.parse(spec)


@dataclass(frozen=True)
class TrialRecord(_JsonRecord):
    theorem: TheoremId
    index: int
    seed: int
    dim: int
    k: int
    function: str
    exponent: float
    hypothesis_met: bool
    holds: bool
    margin: float | None
    triage: str | None
    detail: str


# The per-trial CSV row: every TrialRecord field but the free-text detail.
_CSV_COLUMNS = ("theorem", "index", "seed", "dim", "k", "function", "exponent",
                "hypothesis_met", "holds", "margin", "triage")


@dataclass(frozen=True)
class TheoremSummary(_JsonRecord):
    theorem: TheoremId
    trials: int
    passes: int
    skips: int
    errors: int
    violations_numerical: int
    violations_substantive: int
    min_margin: float | None
    worst_seed: int | None


@dataclass
class CampaignReport:
    config: CampaignConfig
    summaries: list[TheoremSummary]
    records: list[TrialRecord]
    failures: list[dict]

    @property
    def substantive_total(self) -> int:
        return sum(s.violations_substantive for s in self.summaries)

    @property
    def error_total(self) -> int:
        return sum(s.errors for s in self.summaries)

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "results": [s.to_json() for s in self.summaries],
            "failures": self.failures,
        }

    def to_csv(self) -> str:
        """One row per trial, suitable for external tooling."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, _CSV_COLUMNS, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(r.to_json() for r in self.records)
        return buf.getvalue()


_THEOREM_ORDER = list(TheoremId)


def trial_seed(master_seed: int, theorem: TheoremId, index: int) -> int:
    """Stream-independent 64-bit seed for one (theorem, trial) cell."""
    ss = np.random.SeedSequence(
        [int(master_seed) & 0xFFFFFFFFFFFFFFFF, _THEOREM_ORDER.index(theorem), int(index)]
    )
    return int(ss.generate_state(1, np.uint64)[0])


@functools.lru_cache(maxsize=256)
def _function_pool(theorem: TheoremId, specs: tuple[str, ...]) -> tuple[tuple[str, ScalarFunction], ...]:
    """The configured (spec, f) pairs `theorem` admits, in config order; all of
    them when it admits none, so that those trials skip at the gate."""
    parsed = tuple((spec, functions.parse(spec)) for spec in specs)
    return tuple(pair for pair in parsed if STATEMENTS[theorem].admits(pair[1])) or parsed


def run_trial(
    theorem: TheoremId, config: CampaignConfig, seed: int, index: int = 0
) -> tuple[TrialRecord, Instance | None, VerificationResult]:
    """One campaign cell: draw parameters and an instance from `seed`, check, triage.

    f is drawn from the configured functions the statement admits
    (`Statement.admits`), or from all of them when it admits none.

    Every cell ends in one outcome.  A generation failure is a hypothesis skip;
    a PreconditionError while drawing or checking (an exponent or a term count
    the statement does not admit, a window too narrow for the chord), a
    matrix that fails the positive-definite floor, a scalar function
    evaluated outside its domain, or an eigensolver or SVD failure (an
    exponent so large that a side overflows) is an error: hypothesis_met and
    holds both False, detail "error: <message>".
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(config.dims[0], config.dims[1] + 1))
    k = int(rng.integers(config.terms[0], config.terms[1] + 1))
    pool = _function_pool(theorem, tuple(config.functions))
    spec, f = pool[int(rng.integers(len(pool)))]
    exponent = float(config.exponents[int(rng.integers(len(config.exponents)))])
    inst_seed = int(rng.integers(0, 2**63))
    inst = None
    try:
        inst = random_instance(theorem, dim, k, inst_seed, f, exponent)
        result = triage(theorem, inst, config.tol)
    except GenerationError as exc:
        result = VerificationResult(theorem, True, None, 0.0, 0.0, False, f"generation failed: {exc}")
    except (PreconditionError, NotPositiveDefiniteError, DomainError, np.linalg.LinAlgError,
            EigenConvergenceError) as exc:
        result = VerificationResult(theorem, False, None, 0.0, 0.0, False, f"error: {exc}")
    record = TrialRecord(
        theorem, index, int(seed), dim, k, spec, exponent,
        result.hypothesis_met, result.holds, result.margin, result.triage, result.detail,
    )
    return record, inst, result


def campaign(config: CampaignConfig) -> CampaignReport:
    """Run the per-theorem trial grid; deterministic in config (schedule-free)."""
    config.validate()
    records: list[TrialRecord] = []
    failures: list[dict] = []
    summaries: list[TheoremSummary] = []
    for theorem in config.theorems:
        rows = [
            run_trial(theorem, config, trial_seed(config.seed, theorem, i), i)
            for i in range(config.trials)
        ]
        passes = skips = errors = numerical = substantive = 0
        min_margin: float | None = None
        worst_seed: int | None = None
        for record, inst, result in rows:
            records.append(record)
            if not record.hypothesis_met:
                if record.holds:
                    skips += 1
                else:
                    errors += 1
                continue
            if record.holds:
                passes += 1
            elif record.triage == "numerical":
                numerical += 1
            else:
                substantive += 1
            if record.margin is not None and (min_margin is None or record.margin < min_margin):
                min_margin, worst_seed = record.margin, record.seed
            if not record.holds:
                failures.append(
                    {
                        "record": record.to_json(),
                        "result": result.to_json(),
                        "instance": inst.to_json() if inst is not None else None,
                    }
                )
        summaries.append(
            TheoremSummary(theorem, config.trials, passes, skips, errors, numerical, substantive,
                           min_margin, worst_seed)
        )
    return CampaignReport(config, summaries, records, failures)
