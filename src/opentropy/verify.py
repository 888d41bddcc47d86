"""Constrained random instances, the statement table, and bulk campaigns.

Every numbered inequality handled by the package has one TheoremId and one
entry in STATEMENTS.  The entry says how to draw a hypothesis-satisfying
instance, which hypotheses the checker gates on, and how to build both sides of
the inequality exactly as displayed.  A draw runs generator records (`Family`):
`draw` makes the rng calls, the pure `project` meets the family's constraints,
and the record names the slots it fills, the field pairs its window covers,
whether the window straddles 1, and its load-time check.  `check` makes one
pass over it: the hypotheses (the exponent range, then the function gates on
the instance window, which give the statement's chord constant), then both
sides, then one labelled verdict.  The verdict's margin is the Loewner margin
(lambda_min of the difference that the statement claims is positive
semidefinite; a scalar slack for the information inequality; a two-sided margin
for the homogeneity identity).

A failed hypothesis is never counted as a failure: the checker reports
hypothesis_met=False with an explanation and an empty margin.  A violation
carries a label from the same tolerance rule at tol=1e-6: "numerical" (float
noise) or "substantive" (a real counterexample, which would be a finding).

An Instance is its JSON: every slot has one encoder and one decoder
(`_SLOTS`; the function slot is its catalog spec), and every matrix and field
is the solve of exactly the array its JSON stores (a field or X matrix that
is not exactly Hermitian is refused, and so is a payload that does not match
the header's dim and k), so a file written by `gen` or dumped by a campaign
re-checks to the same margin bit for bit.  Instance files and campaign reports
carry `"format": 2`; a file without it is refused at load.

Every draw is a pure function of a 128-bit key (keyed streams, after Salmon,
Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC 2011):
an instance is drawn from Philox keyed on its seed at counter 0, and a campaign
trial's key packs (master seed, statement index, trial index) with no hashing
(`trial_seed`).  `run_trial` draws the trial's parameters from the same key at
counter word 3 = 1, a region the instance's draws never reach, and the trial's
instance seed is its key.  No generator is built per draw: each thread keeps one
Philox generator and re-keys its whole state at every use (`_keyed`).
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
import threading
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable

import numpy as np

from . import functions
from .bounds import chord_gap_bound, chord_ratio_bound, zeta_closed_forms
from .entropy import field_from_json, field_to_json
from .errors import (
    DomainError,
    EigenConvergenceError,
    GenerationError,
    NotPositiveDefiniteError,
    PreconditionError,
    UndefinedRatioError,
)
from .functions import LOG, ScalarFunction
from .maps import PositiveLinearMap, map_from_json, map_to_json
from .matcore import (
    DEFAULT_LOEWNER_TOL,
    OperatorField,
    PositiveDefiniteMatrix,
    _adjoint,
    _array_from_json,
    _checked_weights,
    _eigh,
    _eigvalsh,
    _eye,
    _holds_within,
    _JsonRecord,
    _qr,
    _relative_eigenvalues,
    _require_aligned,
    _scalar_image,
    _solve_pd,
    _symmetrize,
    _weighted_sum,
    apply_function,
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
    "random_instance",
    "check",
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


class _Outcome:
    @property
    def outcome(self) -> str:
        """The one name of a result's flags: "pass", "skip", "error", "numerical" or "substantive"."""
        if not self.hypothesis_met:
            return "skip" if self.holds else "error"
        return "pass" if self.holds else self.triage


@dataclass(frozen=True)
class VerificationResult(_Outcome, _JsonRecord):
    """Outcome of one inequality check.

    margin is lambda_min of the claimed-PSD difference (scalar slack for
    INFO_INEQ, two-sided for equalities) and None on skips and errors.
    hypothesis_met=False means "not applicable", never "fail"; with holds=False
    it marks an error (see run_trial).  triage labels a violation "numerical"
    or "substantive" and is None otherwise.  `outcome` names the case.
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

    (m, M) is a window 0 < m <= M < inf covering the pair spectra of the family's field pairs
    (`Family.pairs`; a draw stores their measured sandwich constants) or, for the
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
    pa: np.ndarray | None = None
    pb: np.ndarray | None = None

    def validate(self) -> None:
        _require_draw_ranges(self.seed, self.dim, self.k)
        st = STATEMENTS[self.theorem]
        for slot in st.needs:
            if getattr(self, slot) is None:
                key = _SLOTS[slot][0]
                raise PreconditionError(f"a {self.theorem.value} instance needs {key!r}, which is missing")
        if self.q is not None and not math.isfinite(self.q):
            raise PreconditionError(f"the exponent must be finite, got {self.q}")
        if st.unit_exponent:
            _require_unit_exponent(self.q)
        if "m" in st.needs and not 0.0 < self.m <= self.M < math.inf:
            raise PreconditionError(f"need a window 0 < m <= M < inf, got m={self.m}, M={self.M}")
        self._check_header()
        for family in (st.family, st.extras):
            family.validate(self)
        # A slot the statement fixes is read as that value, or not read at all.
        for slot, value in st.fixed.items():
            given = getattr(self, slot)
            if value is not None and given is not None and given != value:
                key, encode, _ = _SLOTS[slot]
                raise PreconditionError(
                    f"a {self.theorem.value} instance has {key!r} fixed at {encode(value)!r}, got {encode(given)!r}"
                )
        if "t0" in st.needs and not self._covers(self.t0, self.t0):
            raise PreconditionError(f"t0={self.t0} outside [{self.m}, {self.M}]")
        # The chord constants are taken on [m, M]; they bound f on the pair
        # spectra of the fields only when the window covers them.
        for a, b in st.family.pairs:
            spectrum = getattr(self, a).pair_spectrum(getattr(self, b))
            if not self._covers(spectrum.m, spectrum.M):
                raise PreconditionError(
                    f"pair spectrum [{spectrum.m}, {spectrum.M}] of ({a}, {b}) not inside [{self.m}, {self.M}]"
                )

    def _check_header(self) -> None:
        """dim and k describe the payload: every field and cs hold k dim x dim
        matrices, X is dim x dim and the map takes dim x dim input."""
        node = (self.dim, self.dim)
        for slot in (*_FIELDS, "cs", "x", "pmap"):
            value = getattr(self, slot)
            if value is None:
                continue
            if slot == "cs":
                fits = len(value) == self.k and all(c.shape == node for c in value)
            elif slot == "pmap":
                fits = value.in_dim == self.dim
            else:
                fits = value.arrays.shape == (1 if slot == "x" else self.k, *node)
            if not fits:
                raise PreconditionError(f"{_SLOTS[slot][0]!r} does not match the header dim={self.dim}, k={self.k}")

    def _covers(self, lo: float, hi: float) -> bool:
        """[lo, hi] lies in [m, M], up to a slack of 1e-9 max(1, |M|)."""
        slack = 1e-9 * max(1.0, abs(self.M))
        return self.m - slack <= lo and hi <= self.M + slack

    def to_json(self) -> dict:
        out = {"format": FORMAT}
        for slot, (key, encode, _) in _SLOTS.items():
            value = getattr(self, slot)
            if value is not None:
                out[key] = encode(value)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Instance":
        version = data.get("format") if isinstance(data, dict) else None
        if version != FORMAT:
            raise PreconditionError(
                f"an instance file must carry \"format\": {FORMAT}, got {version!r}"
                " (format 1 files, written before keyed streams, are not read)"
            )
        inst = cls(**{slot: decode(data[key]) for slot, (key, _, decode) in _SLOTS.items() if key in data})
        inst.validate()
        return inst


# The version of the instance and campaign report formats.
FORMAT = 2
_FIELDS = ("fa", "fb", "fc", "fd", "fa2", "fb2")
_VECTOR = (lambda v: [float(x) for x in v], lambda d: np.asarray(d, dtype=float))


def _json_number(kind: type, key: str) -> Callable:
    """A header slot's decoder: a JSON integer for int, any JSON number for float, never a bool or string."""
    def decode(value):
        if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
            raise PreconditionError(f"{key!r} must be a JSON {'integer' if kind is int else 'number'}, got {value!r}")
        return kind(value)
    return decode


# The codec of an instance file: slot -> (JSON key, encoder, decoder).  A slot
# that is None is left out of the file; a key absent from the file is None.
_SLOTS: dict[str, tuple[str, Callable, Callable]] = {
    "theorem": ("theorem", lambda t: t.value, TheoremId),
    **{name: (name, int, _json_number(int, name)) for name in ("seed", "dim", "k")},
    "f": ("f", lambda f: f.spec, functions.parse),
    **{name: (name, float, _json_number(float, name)) for name in ("q", "t0", "m", "M")},
    **{name: (name, field_to_json, field_from_json) for name in _FIELDS},
    "pmap": ("map", map_to_json, map_from_json),
    "cs": ("cs", lambda cs: [matrix_to_json(c) for c in cs], lambda d: tuple(map(_array_from_json, d))),
    "cs_weights": ("cs_weights", *_VECTOR),
    "x": ("x", matrix_to_json, lambda d: PositiveDefiniteMatrix(matrix_from_json(d))),
    **{name: (name, float, _json_number(float, name)) for name in ("alpha", "beta")},
    "pa": ("pa", *_VECTOR),
    "pb": ("pb", *_VECTOR),
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
    """

    claims: list
    detail: str | Callable[[list[float]], str]
    cross_checks: list = field(default_factory=list)


def _snorm(w) -> float:
    """max(|w_first|, |w_last|) of an ascending spectrum, an array or a list."""
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
    # Every difference, then every claimed lhs and rhs, in one stacked solve
    # (the same bits as one solve each).  Every item a builder makes is exactly
    # Hermitian (a sum, difference or real multiple of symmetrized arrays), so
    # it is solved as it is.
    stack = np.array(
        [d for ds in parts for d in ds] + [side for lhs, _, rhs in sides.claims for side in (lhs, rhs)]
    )
    if not np.isfinite(stack).all():
        # Overflow in a side (an exponent like 1e308): no order can be read off.
        # Checked before the solve, which can return finite eigenvalues for NaN entries.
        return VerificationResult(theorem, False, None, 0.0, 0.0, False, "error: non-finite margin")
    spectra = iter(_eigvalsh(stack).tolist())
    all_margins = [min(next(spectra)[0] for _ in ds) for ds in parts]
    margins, margin = all_margins[:n], min(all_margins)
    norms = [_snorm(next(spectra)) for _ in range(2 * n)]
    ln, rn = max(norms[0::2]), max(norms[1::2])
    holds = _holds_within(margin, tol, ln, rn)
    detail = sides.detail(margins) if callable(sides.detail) else sides.detail
    # A violation is numerical if it passes the rule at tol=1e-6 (whatever tol is).
    label = None if holds else ("numerical" if _holds_within(margin, 1e-6, ln, rn) else "substantive")
    return VerificationResult(theorem, holds, margin, ln, rn, True, detail, label)


def _require_unit_exponent(q) -> float:
    p = float(q)
    if not 0.0 <= p <= 1.0:
        raise PreconditionError(f"this statement requires an exponent in [0, 1], got {p}")
    return p


def _gate(st: "Statement", f: ScalarFunction, lo: float, hi: float) -> float | None:
    """Apply the statement's function gates to f on the window [lo, hi].

    Raises _Skip when one fails; returns the chord constant the statement
    needs (gamma or zeta on [lo, hi]), or None.  The gates are decided from
    the catalog and evaluate f only at scalars.  Every entry is concave, so
    f >= 0 on [lo, hi] exactly when it is at both ends.  An entry tangent to
    t - 1 at 1 has f(t) <= t - 1 everywhere; any other entry (each is >= 0
    at 1) exceeds t - 1 next to 1, which the windows of a `below_t_minus_1`
    statement hold in their interior (`Instance.validate`).  The chord
    constants are `bounds`' own.
    """
    if st.nonneg and not (f.evaluate(lo) >= -1e-12 and f.evaluate(hi) >= -1e-12):
        raise _Skip(f"{f.name} is negative somewhere on [{lo:.6g}, {hi:.6g}]")
    if st.below_t_minus_1 and not _tangent_at_one(f):
        raise _Skip(f"{f.name}(t) exceeds t - 1 next to 1 on [{lo:.6g}, {hi:.6g}]: no tangent line at 1")
    if st.constant == "gamma":
        try:
            return chord_ratio_bound(f, lo, hi)
        except UndefinedRatioError as exc:
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


def _pair_like(fields: tuple, a: np.ndarray, b: np.ndarray) -> tuple:
    """The pair (FA, FB) on the nodes and weights that the aligned `fields`
    share, with the (k, d, d) node stacks `a` and `b` of their combinations,
    its pair spectrum memoised."""
    for other in fields[1:]:
        _require_aligned(fields[0], other)
    return OperatorField.pairs(fields[0].weights, a[None], b[None])[0]


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
    fx = apply_function(x, f)
    gram, lifted, compressed = _weighted_sum(
        inst.cs_weights, np.array([ch @ c, ch @ x.array @ c, ch @ fx @ c])
    )
    defect = eye - gram
    arg = lifted + inst.t0 * defect
    f_arg = _spectral_image(arg, f.evaluate_array)
    rhs = compressed + f.evaluate(inst.t0) * defect
    return f_arg, rhs


# ---------------------------------------------------------------------------
# builders: (inst, constant) -> Sides, one per statement.  `check` has
# applied the statement's gates; constant is its chord constant on the
# instance window, or None.
# ---------------------------------------------------------------------------


def _mean_integral(inst: Instance, constant: None) -> Sides:
    """sum_s w_s (A_s #_p B_s) <= (sum w A) #_p (sum w B), p in [0,1]"""
    p = float(inst.q)
    lhs = inst.fa.pair_spectrum(inst.fb).power_mean(p)
    ((total_a, total_b),) = OperatorField.pairs(np.ones(1), inst.fa.weighted_sum()[None, None],
                                                inst.fb.weighted_sum()[None, None])
    rhs = total_a.pair_spectrum(total_b).power_mean(p)
    return Sides([(lhs, "<=", rhs)], f"node-wise power means vs power mean of the integrals at p={p:g}")


def _compression_jensen(inst: Instance, constant: None) -> Sides:
    """f(sum w C*XC + t0(I - sum w C*C)) >= sum w C*f(X)C + f(t0)(I - sum w C*C)"""
    f_arg, rhs = _compression_terms(inst)
    return Sides([(f_arg, ">=", rhs)], "lifted Jensen inequality for a sub-unital compression family")


def _rev_jensen_gamma(inst: Instance, gamma: float) -> Sides:
    """f(lifted argument) <= gamma * [sum w C*f(X)C + f(t0)(I - sum w C*C)]"""
    f_arg, rhs = _compression_terms(inst)
    return Sides([(f_arg, "<=", gamma * rhs)], f"reverse lifted Jensen with gamma={gamma!r}")


def _rev_jensen_zeta(inst: Instance, zeta: float) -> Sides:
    """f(lifted argument) <= sum w C*f(X)C + f(t0)(I - sum w C*C) + zeta I"""
    f_arg, rhs = _compression_terms(inst)
    shifted = rhs + zeta * _eye(inst.x.dim)
    return Sides([(f_arg, "<=", shifted)], f"reverse lifted Jensen with zeta={zeta!r}")


def _entropy_lower(inst: Instance, constant: None) -> Sides:
    """f(W) - f(t0)(I - V) >= S_p with V = sum w A#_pB, W = sum w A#_{p+1}B + t0(I - V)"""
    lhs, s, _ = _entropy_bound_terms(inst)
    return Sides([(lhs, ">=", s)], f"entropy lower bound at p={inst.q:g}, t0={inst.t0:.6g}")


def _rev_entropy_gamma(inst: Instance, gamma: float) -> Sides:
    """f(W) - gamma f(t0)(I - V) <= gamma S_p"""
    lhs, s, _ = _entropy_bound_terms(inst, gamma)
    detail = f"reverse entropy bound with gamma={gamma!r} at p={inst.q:g}"
    return Sides([(lhs, "<=", gamma * s)], detail)


def _rev_entropy_zeta(inst: Instance, zeta: float) -> Sides:
    """f(W) - f(t0)(I - V) <= S_p + zeta I"""
    lhs, s, eye = _entropy_bound_terms(inst)
    detail = f"reverse entropy bound with zeta={zeta!r} at p={inst.q:g}"
    return Sides([(lhs, "<=", s + zeta * eye)], detail)


def _entropy_nonneg(inst: Instance, constant: None) -> Sides:
    """S_q >= 0 when f >= 0 on the encountered spectra"""
    q, f, dim = float(inst.q), inst.f, inst.fa.dim
    s = inst.fa.pair_spectrum(inst.fb).entropy_term(q, f)
    detail = f"nonnegativity of the aggregated entropy at q={q:g}"
    return Sides([(np.zeros((dim, dim)), "<=", s)], detail)


def _entropy_upper(inst: Instance, constant: None) -> Sides:
    """S_q <= sum w (A#_{q+1}B - A#_qB) when f(t) <= t - 1"""
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


def _klein_upper(inst: Instance, constant: None) -> Sides:
    """S(A|B) <= B - A (relative operator entropy, Klein bound)"""
    spectrum = inst.fa.pair_spectrum(inst.fb)
    # The node's own term, unweighted: the field carries the pair's one node.
    s = spectrum.node_images(LOG.evaluate_array(spectrum.eigenvalues))[0]
    rhs = inst.fb.arrays[0] - inst.fa.arrays[0]
    return Sides([(s, "<=", rhs)], "relative operator entropy against B - A")


def _info_ineq(inst: Instance, constant: None) -> Sides:
    """sum_j a_j log(a_j/b_j) >= 0 for probability vectors, equality iff a = b"""
    a, b = inst.pa, inst.pb
    # The divergence and 0 as 1x1 matrices, each its own eigenvalue.
    divergence = np.array([[np.sum(a * np.log(a / b))]])
    detail = "divergence of two probability vectors; equality exactly when a = b"
    return Sides([(divergence, ">=", np.zeros((1, 1)))], detail)


def _subadditive(inst: Instance, constant: None) -> Sides:
    """S_0(FA+FB | FC+FD) >= S_0(FA|FC) + S_0(FB|FD) node-wise"""
    fa, fb, fc, fd, f = inst.fa, inst.fb, inst.fc, inst.fd, inst.f
    left, right = _pair_like((fa, fb, fc, fd), fa.arrays + fb.arrays, fc.arrays + fd.arrays)
    lhs = left.pair_spectrum(right).entropy_term(0.0, f)
    rhs = fa.pair_spectrum(fc).entropy_term(0.0, f) + fb.pair_spectrum(fd).entropy_term(0.0, f)
    return Sides([(lhs, ">=", rhs)], "subadditivity of the aggregated entropy at q=0")


def _homogeneous(inst: Instance, constant: None) -> Sides:
    """S_q(alpha A | alpha B) = alpha S_q(A|B) for alpha > 0 (equality, two-sided)"""
    alpha, q, f = float(inst.alpha), float(inst.q), inst.f
    # The scaled pair is solved afresh: the lhs shares no spectra with the rhs.
    scaled_a, scaled_b = _pair_like((inst.fa, inst.fb), alpha * inst.fa.arrays, alpha * inst.fb.arrays)
    lhs = scaled_a.pair_spectrum(scaled_b).entropy_term(q, f)
    rhs = alpha * inst.fa.pair_spectrum(inst.fb).entropy_term(q, f)
    return Sides([(lhs, "==", rhs)], f"homogeneity at alpha={alpha:g}, q={q:g} (two-sided margin)")


def _joint_concave(inst: Instance, constant: None) -> Sides:
    """S_0(alpha P1 + beta P2) >= alpha S_0(P1) + beta S_0(P2), alpha + beta = 1"""
    alpha, beta, f = float(inst.alpha), float(inst.beta), inst.f
    fa, fb, fa2, fb2 = inst.fa, inst.fb, inst.fa2, inst.fb2
    mixed_a, mixed_b = _pair_like(
        (fa, fb, fa2, fb2), alpha * fa.arrays + beta * fa2.arrays, alpha * fb.arrays + beta * fb2.arrays
    )
    lhs = mixed_a.pair_spectrum(mixed_b).entropy_term(0.0, f)
    first = fa.pair_spectrum(fb).entropy_term(0.0, f)
    second = fa2.pair_spectrum(fb2).entropy_term(0.0, f)
    rhs = alpha * first + beta * second
    return Sides([(lhs, ">=", rhs)], f"joint concavity at alpha={alpha:g}")


def _map_monotone(inst: Instance, constant: None) -> Sides:
    """Phi(S_0(FA|FB)) <= S_0(Phi FA | Phi FB) for normalized positive Phi"""
    f, pm, fa, fb = inst.f, inst.pmap, inst.fa, inst.fb
    aggregate = fa.pair_spectrum(fb).entropy_term(0.0, f)
    # Phi applied once: to FA's nodes, then FB's, then the aggregate (the lhs).
    images = pm.apply_array(np.concatenate([fa.arrays, fb.arrays, aggregate[None]]))
    k = len(fa)
    try:
        # FA's image is floored first, so the floor names the first failing node, FA's first.
        ((image_a, image_b),) = OperatorField.pairs(fa.weights, images[None, :k], images[None, k:-1])
    except NotPositiveDefiniteError as exc:
        raise _Skip(f"map image not positive definite ({exc})") from exc
    rhs = image_a.pair_spectrum(image_b).entropy_term(0.0, f)
    return Sides([(images[-1], "<=", rhs)], "informational monotonicity under a normalized positive map")


def _example_log_pair(inst: Instance, constant: None) -> Sides:
    """closed-form gap bounds for log t and -t log t in the reverse entropy bound"""
    p, t0 = float(inst.q), inst.t0
    zeta_log, zeta_neg = zeta_closed_forms(inst.m, inst.M)
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
# generator families: one record each, draw -> raw -> project -> slots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A generator family, or an extra drawn after it.  `draw(rng, dim, k, diagonal)`
    makes the rng calls of one attempt; the pure `project(raw)` meets every constraint
    and returns the values of `slots` in order (a last "t0" is drawn on the accepted
    window), or None to draw again.  The window covers the spectra of `pairs`, and
    holds 1 inside if `straddles`; `validate(inst)` checks a loaded instance."""

    slots: tuple[str, ...]
    draw: Callable
    project: Callable
    pairs: tuple[tuple[str, str], ...] = ()
    straddles: bool = False
    validate: Callable[[Instance], None] = lambda inst: None


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


def _node_draws(rng, dim: int, diagonal: bool, low: float, high: float, *lead: int) -> np.ndarray:
    """The raw nodes of a (*lead) stack in one rng call: diagonals uniform on [low, high), or Gaussians."""
    if diagonal:
        return rng.uniform(low, high, size=(*lead, dim))
    return _cgauss(rng, dim, *lead)


def _random_weights(rng, k: int) -> np.ndarray:
    if rng.uniform() < 0.5:
        return np.ones(k)
    return rng.uniform(0.5, 2.0, size=k)


def _diagonals(rows: np.ndarray) -> np.ndarray:
    """The stack of complex diagonal matrices diag(row), one per row (last axis)."""
    return rows[..., None] * _eye(rows.shape[-1], complex)


def _resolution(nodes: np.ndarray, diagonal: bool) -> np.ndarray:
    """PD matrices summing to the identity over the node axis (a stack's sums in one solve)."""
    if diagonal:
        return _diagonals(nodes / nodes.sum(axis=-2, keepdims=True))
    dim = nodes.shape[-1]
    # The 0.5*dim ridge keeps every summand (hence every node) well conditioned.
    arrays = _symmetrize(nodes @ _adjoint(nodes)) + 0.5 * dim * _eye(dim)
    sums = _solve_pd(arrays.sum(axis=-3))
    isq = _scalar_image(sums.eigenvectors, 1.0 / np.sqrt(sums.eigenvalues))[..., None, :, :]
    return _symmetrize(isq @ arrays @ isq)


def _free_nodes(nodes: np.ndarray, diagonal: bool) -> np.ndarray:
    """Well-conditioned PD matrices, one per raw node."""
    if diagonal:
        return _diagonals(nodes)
    dim = nodes.shape[-1]
    return _symmetrize(nodes @ _adjoint(nodes)) / dim + 0.5 * _eye(dim)


def _draw_fields(rng, dim: int, k: int, diagonal: bool, count: int = 2, low: float = 0.5, high: float = 4.0):
    """The raw nodes of `count` fields and their one shared weight vector."""
    return diagonal, _random_weights(rng, k), _node_draws(rng, dim, diagonal, low, high, count, k)


def _project_normalized(raw):
    """Two fields summing to the identity, kept when m <= 1 - 1e-6 and M >= 1 + 1e-6."""
    diagonal, weights, nodes = raw
    if len(weights) < 2:
        raise PreconditionError("normalized instances need k >= 2 (k = 1 forces both fields to {I})")
    arrays = _resolution(nodes, diagonal) / weights[:, None, None]
    ((fa, fb),) = OperatorField.pairs(weights, arrays[:1], arrays[1:])
    # The memoised pair spectrum: the check reuses it.
    spectrum = fa.pair_spectrum(fb)
    m, M = spectrum.m, spectrum.M
    return (fa, fb, m, M) if m <= _STRADDLE_LO and M >= _STRADDLE_HI else None


def _validate_normalized(inst: Instance) -> None:
    if not (inst.fa.is_normalized() and inst.fb.is_normalized()):
        raise PreconditionError("fields must sum to the identity within 1e-10")
    if not (inst.m <= _STRADDLE_LO and inst.M >= _STRADDLE_HI):
        raise PreconditionError(f"need m <= 1 - 1e-6 and M >= 1 + 1e-6, got m={inst.m}, M={inst.M}")


def _project_centered(raw):
    """A free pair with B rescaled so that the measured window straddles 1.

    It solves FA's nodes, the eigenvalues alone of the unscaled pair (for m
    and M), and then the pair spectrum of FA and the B field the instance
    keeps, B / sqrt(mM) (B itself for a scalar 1x1 pair), which floors that
    B and which the check reuses.  No B is solved as a field.
    """
    diagonal, weights, nodes = raw
    a_arrays, b_arrays = _free_nodes(nodes, diagonal)
    fa = OperatorField(_weights=weights, _arrays=a_arrays)
    lam = _relative_eigenvalues(fa.decomposition, b_arrays)
    m, M = float(lam[:, 0].min()), float(lam[:, -1].max())
    if M / m >= 1.0 + 1e-9:
        b_arrays = (1.0 / math.sqrt(m * M)) * b_arrays
    elif b_arrays.size > 1:  # not a scalar 1x1 pair
        return None
    fb = fa.partner(b_arrays)
    spectrum = fa.pair_spectrum(fb)
    m, M = spectrum.m, spectrum.M
    # A scalar 1x1 pair has m = M; the straddle is only possible (and only
    # stated) for genuinely spread spectra.
    return (fa, fb, m, M) if b_arrays.shape[-1] == 1 or (m <= _STRADDLE_LO and M >= _STRADDLE_HI) else None


def _project_free(pairs: tuple[tuple[int, int], ...], raw):
    """Free fields built as the aligned `pairs` (indices into them), and the
    window over the pairs' spectra."""
    diagonal, weights, nodes = raw
    arrays = _free_nodes(nodes, diagonal)
    firsts, seconds = (list(ends) for ends in zip(*pairs))
    built = OperatorField.pairs(weights, arrays[firsts], arrays[seconds])
    fields = [None] * len(arrays)
    for (a, b), (fa, fb) in zip(pairs, built):
        fields[a], fields[b] = fa, fb
    spectra = [fa.pair_spectrum(fb) for fa, fb in built]
    return (*fields, min(s.m for s in spectra), max(s.M for s in spectra))


def _draw_compression(rng, dim: int, k: int, diagonal: bool):
    extra = 1 if rng.uniform() < 0.75 else 0
    nodes = _node_draws(rng, dim, diagonal, 0.2, 1.0, k + extra)
    weights = _random_weights(rng, k)
    gauss = None if diagonal else _cgauss(rng, dim, k)
    return diagonal, nodes, weights, gauss, _node_draws(rng, dim, diagonal, 0.5, 4.0, 1)


def _project_compression(raw):
    """A sub-unital family {C_s} with weights, and X centred on 1.

    [m, M] is spec(X)'s range; at dim 1, where X is a scalar x with no spread
    to centre, it is the window [r, max(x, 1/r)] with r = min(x, 1/x,
    1 - 1e-6), which contains x and has 1 in its interior as at dim >= 2.
    """
    diagonal, nodes, weights, gauss, x0 = raw
    k = len(weights)
    arrays = _resolution(nodes, diagonal)[:k]
    x0_array = _free_nodes(x0, diagonal)
    # The k nodes C_s*C_s and X0 in one solve: node roots from the first k,
    # from the last X0's extreme eigenvalues, which centre X = X0 / sqrt(lo hi).
    solved = _solve_pd(np.concatenate([arrays / weights[:, None, None], x0_array]))
    roots = _scalar_image(solved.eigenvectors[:k], np.sqrt(solved.eigenvalues[:k]))
    if not diagonal:
        # Haar-random unitaries U_s from the Gaussians.
        q, phases = _qr(gauss)
        roots = q * (phases / np.abs(phases))[..., None, :] @ roots
    dim = x0_array.shape[-1]
    lo, hi = float(solved.eigenvalues[k, 0]), float(solved.eigenvalues[k, -1])
    scale = 1.0 / math.sqrt(lo * hi) if dim > 1 and hi / lo > 1.0 + 1e-9 else 1.0
    x = PositiveDefiniteMatrix(scale * x0_array[0])
    m, M = x.lambda_min, x.lambda_max
    if dim == 1:
        m = min(m, 1.0 / m, _STRADDLE_LO)
        M = max(M, 1.0 / m)
    return tuple(roots), weights, x, m, M


def _validate_compression(inst: Instance) -> None:
    # One strictly positive finite weight per factor: a positive measure.
    _checked_weights(inst.cs_weights, len(inst.cs))
    # Sub-unital: sum w C*C <= I, with I sized from the C_j themselves.
    c = np.array(inst.cs)
    gram = _weighted_sum(inst.cs_weights, _adjoint(c) @ c)
    low, size = _eigvalsh(np.array([_eye(c.shape[-1]) - gram, gram]))
    if low[0] < -1e-10 * max(1.0, _snorm(size)):
        raise PreconditionError("compression sum exceeds the identity")
    # The chord constants are taken on [m, M]; they bound f on the spectrum
    # of X only when the window covers it.
    if not inst._covers(inst.x.lambda_min, inst.x.lambda_max):
        raise PreconditionError(
            f"spectrum [{inst.x.lambda_min}, {inst.x.lambda_max}] of X not inside [{inst.m}, {inst.M}]"
        )


def _project_probability(raw):
    """Two strictly positive probability vectors."""
    vectors = np.clip(raw, 1e-9, None)
    vectors /= vectors.sum(axis=-1, keepdims=True)
    return tuple(vectors)


def _validate_probability(inst: Instance) -> None:
    for slot in ("pa", "pb"):
        p = getattr(inst, slot)
        if p.shape != (inst.dim,):
            raise PreconditionError(f"{slot!r} must hold dim={inst.dim} probabilities, got shape {p.shape}")
        if not (np.isfinite(p).all() and (p > 0.0).all()):
            raise PreconditionError(f"{slot!r} must have finite entries > 0")
        if abs(p.sum() - 1.0) > 1e-10:
            raise PreconditionError(f"{slot!r} must sum to 1 within 1e-10, got {float(p.sum())!r}")


def _require_positive(inst: Instance, *slots: str) -> None:
    for slot in slots:
        value = getattr(inst, slot)
        if not 0.0 < value < math.inf:
            raise PreconditionError(f"{slot!r} must be finite and > 0, got {value}")


def _validate_blend(inst: Instance) -> None:
    _require_positive(inst, "alpha", "beta")
    if abs(inst.alpha + inst.beta - 1.0) > 1e-12:
        raise PreconditionError(f"'alpha' + 'beta' must be 1 within 1e-12, got {inst.alpha} + {inst.beta}")


def _draw_map(rng, dim: int, k: int, diagonal: bool):
    """Weights p and Kraus factors C, sum p C*C = I: permutations, or a normalized family (p = 1)."""
    if diagonal:
        probs = rng.dirichlet(np.ones(3))
        return probs, [np.eye(dim)[rng.permutation(dim)].astype(complex) for _ in probs]
    factors = PositiveLinearMap.random_normalized(dim, dim, int(rng.integers(1, 4)), rng).kraus
    return np.ones(len(factors)), factors


def _validate_map(inst: Instance) -> None:
    if not inst.pmap.is_normalized():
        raise PreconditionError("'map' is not normalized")


_NORMALIZED = Family(("fa", "fb", "m", "M", "t0"), functools.partial(_draw_fields, low=0.2, high=1.0),
                     _project_normalized, pairs=(("fa", "fb"),), straddles=True, validate=_validate_normalized)
_CENTERED = Family(("fa", "fb", "m", "M"), _draw_fields, _project_centered, pairs=(("fa", "fb"),))
_FOUR_FIELDS = Family(("fa", "fb", "fc", "fd", "m", "M"), functools.partial(_draw_fields, count=4),
                      functools.partial(_project_free, ((0, 2), (1, 3))), pairs=(("fa", "fc"), ("fb", "fd")))
_TWO_PAIR_FIELDS = Family(("fa", "fb", "fa2", "fb2", "m", "M"), functools.partial(_draw_fields, count=4),
                          functools.partial(_project_free, ((0, 1), (2, 3))), pairs=(("fa", "fb"), ("fa2", "fb2")))
_COMPRESSION = Family(("cs", "cs_weights", "x", "m", "M", "t0"), _draw_compression, _project_compression,
                      straddles=True, validate=_validate_compression)
_PROBABILITY = Family(("pa", "pb"), lambda rng, dim, k, diagonal: np.array(
    [rng.dirichlet(2.0 * np.ones(dim)) for _ in range(2)]), _project_probability, validate=_validate_probability)
_NO_EXTRAS = Family((), lambda rng, dim, k, diagonal: (), tuple)
_SCALE = Family(("alpha",), lambda rng, dim, k, diagonal: float(rng.choice([0.5, 2.0])), lambda alpha: (alpha,),
                validate=lambda inst: _require_positive(inst, "alpha"))
_BLEND = Family(("alpha", "beta"), lambda rng, dim, k, diagonal: float(rng.uniform(0.25, 0.75)),
                lambda alpha: (alpha, 1.0 - alpha), validate=_validate_blend)
_MAP = Family(("pmap",), _draw_map, lambda raw: (PositiveLinearMap([math.sqrt(p) * c for p, c in zip(*raw)]),),
              validate=_validate_map)


# ---------------------------------------------------------------------------
# the statement table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """One verified statement: how to draw it, what it assumes, what it claims.

    The `Family` records `family` and `extras` fill a fresh instance, in that
    order; `fixed` pins instance fields before the draw; `reads` names the
    drawn parameters (f, q) the builder uses.  The hypotheses, which `check` applies once on the
    instance window before the builder runs: unit_exponent requires q in
    [0, 1]; the function gates (`nonneg`: f >= 0 on the window;
    `below_t_minus_1`: f(t) <= t - 1) skip the check when they fail; and
    `constant` names the chord constant on the window ("gamma" or "zeta")
    that the builder receives, None when unset.  No statement gates on
    operator concavity: f is a catalog entry, and every entry is operator
    concave.  The builder maps (instance, constant) to the Sides, and its
    docstring is the statement as displayed.
    """

    family: Family
    build: Callable[[Instance, float | None], Sides]
    extras: Family = _NO_EXTRAS
    fixed: dict = field(default_factory=dict)
    reads: tuple[str, ...] = ("f", "q")
    unit_exponent: bool = False
    nonneg: bool = False
    below_t_minus_1: bool = False
    constant: str | None = None

    @functools.cached_property
    def needs(self) -> tuple[str, ...]:
        """The instance slots a check of this statement reads (computed once)."""
        return self.family.slots + self.extras.slots + self.reads

    def admits(self, f: ScalarFunction) -> bool:
        """Whether f can meet this statement's function gates on the windows
        its family draws, judged from the gates and f's catalog entry alone.

        `nonneg` on a family whose windows contain 1 in their interior needs
        f's nonnegative interval to contain a neighbourhood of 1.
        `below_t_minus_1` needs the tangent line at 1: f(1) = 0 and f'(1) = 1,
        which for a concave f gives f(t) <= t - 1 everywhere.  Admissibility
        only shapes a campaign's draw of f; every trial is still gated.
        """
        if self.nonneg and self.family.straddles:
            low, high = f.nonnegative_on
            if not low < 1.0 < high:
                return False
        return not self.below_t_minus_1 or _tangent_at_one(f)


def _tangent_at_one(f: ScalarFunction) -> bool:
    """f(1) = 0 and f'(1) = 1, so that the concave f has f(t) <= t - 1."""
    return f.evaluate(1.0) == 0.0 and f.derivative(1.0) == 1.0


STATEMENTS: dict[TheoremId, Statement] = {
    TheoremId.MEAN_INTEGRAL: Statement(
        _CENTERED, _mean_integral, fixed={"f": None}, reads=("q",), unit_exponent=True
    ),
    TheoremId.COMPRESSION_JENSEN: Statement(
        _COMPRESSION, _compression_jensen, reads=("f",), nonneg=True
    ),
    TheoremId.ENTROPY_LOWER: Statement(
        _NORMALIZED, _entropy_lower, unit_exponent=True, nonneg=True
    ),
    TheoremId.ENTROPY_NONNEG: Statement(_NORMALIZED, _entropy_nonneg, nonneg=True),
    TheoremId.ENTROPY_UPPER: Statement(_NORMALIZED, _entropy_upper, below_t_minus_1=True),
    TheoremId.KLEIN_UPPER: Statement(_CENTERED, _klein_upper, fixed={"k": 1, "f": LOG}, reads=()),
    TheoremId.INFO_INEQ: Statement(_PROBABILITY, _info_ineq, fixed={"k": 1, "f": LOG}, reads=()),
    TheoremId.SUBADDITIVE: Statement(
        _FOUR_FIELDS, _subadditive, fixed={"q": 0.0}, reads=("f",)
    ),
    TheoremId.HOMOGENEOUS: Statement(_CENTERED, _homogeneous, extras=_SCALE),
    TheoremId.JOINT_CONCAVE: Statement(
        _TWO_PAIR_FIELDS, _joint_concave, extras=_BLEND, fixed={"q": 0.0}, reads=("f",)
    ),
    TheoremId.MAP_MONOTONE: Statement(
        _CENTERED, _map_monotone, extras=_MAP, fixed={"q": 0.0}, reads=("f",)
    ),
    TheoremId.REV_JENSEN_GAMMA: Statement(
        _COMPRESSION, _rev_jensen_gamma, reads=("f",), nonneg=True, constant="gamma"
    ),
    TheoremId.REV_ENTROPY_GAMMA: Statement(
        _NORMALIZED, _rev_entropy_gamma, unit_exponent=True, nonneg=True, constant="gamma"
    ),
    TheoremId.REV_JENSEN_ZETA: Statement(
        _COMPRESSION, _rev_jensen_zeta, reads=("f",), constant="zeta"
    ),
    TheoremId.REV_ENTROPY_ZETA: Statement(
        _NORMALIZED, _rev_entropy_zeta, unit_exponent=True, constant="zeta"
    ),
    TheoremId.EXAMPLE_LOG_PAIR: Statement(
        _NORMALIZED, _example_log_pair, fixed={"f": None}, reads=("q",), unit_exponent=True
    ),
}


def check(theorem: TheoremId, inst: Instance, tol: float = DEFAULT_LOEWNER_TOL) -> VerificationResult:
    """Evaluate one theorem on one instance in one pass; pure in (theorem, inst, tol).

    The hypotheses come first: the exponent range, then `_gate` on the
    instance window, whose chord constant the builder receives.  Then the
    builder's sides, and last `_verdict`'s margin with its label.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise PreconditionError(f"tol must be finite and nonnegative, got {tol}")
    st = STATEMENTS[theorem]
    if st.unit_exponent:
        _require_unit_exponent(inst.q)
    try:
        sides = st.build(inst, _gate(st, inst.f, inst.m, inst.M))
    except _Skip as skip:
        return VerificationResult(theorem, True, None, 0.0, 0.0, False, str(skip))
    return _verdict(theorem, sides, tol)


def random_instance(
    theorem: TheoremId,
    dim: int,
    k: int,
    seed: int,
    f: ScalarFunction | None = None,
    p_or_q: float = 0.5,
    diagonal: bool = False,
) -> Instance:
    """Draw a hypothesis-satisfying instance for `theorem` from Philox keyed on
    `seed`, an integer in [0, 2**128), at counter 0: a pure function of its arguments.

    With diagonal=True every matrix in the instance is diagonal, so both sides
    of the checked inequality reduce to scalar arithmetic (the smoke mode used
    to compare checkers against an independent scalar implementation).
    """
    _require_draw_ranges(seed, dim, k)
    st = STATEMENTS[theorem]
    rng = _keyed(seed)
    inst = Instance(
        theorem=theorem, seed=int(seed), dim=int(dim), k=int(k),
        f=functions.power(0.5) if f is None else f, q=float(p_or_q),
    )
    for key, value in st.fixed.items():
        setattr(inst, key, value)
    for family in (st.family, st.extras):
        for _ in range(_RESAMPLE_CAP):
            values = family.project(family.draw(rng, inst.dim, inst.k, diagonal))
            if values is not None:
                break
        else:
            raise GenerationError(f"no {theorem.value} draw met its constraints in {_RESAMPLE_CAP} attempts")
        for slot, value in zip(family.slots, values):
            setattr(inst, slot, value)
        if "t0" in family.slots:
            inst.t0 = float(rng.uniform(inst.m, inst.M))
    inst.validate()
    return inst


# ---------------------------------------------------------------------------
# keyed streams
# ---------------------------------------------------------------------------


_KEY_BOUND = 1 << 128
_WORD = (1 << 64) - 1
# run_trial's parameters are drawn at counter word 3 = 1; an instance's draws
# start at counter 0 and would need 2**192 blocks to get there.
_TRIAL_REGION = 1


def _require_draw_ranges(seed: int, dim: int, k: int) -> None:
    """A draw's header ranges, for `random_instance` and `Instance.validate` alike."""
    if not 1 <= dim <= 64:
        raise PreconditionError(f"dim must lie in 1..64, got {dim}")
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    _require_key(seed)


def _require_key(key: int) -> int:
    key = operator.index(key)
    if not 0 <= key < _KEY_BOUND:
        raise PreconditionError(f"seed must lie in [0, 2**128), got {key}")
    return key


class _Stream(threading.local):
    """One Philox generator per thread, built on the thread's first draw."""

    def __init__(self):
        self.gen = np.random.Generator(np.random.Philox())


_STREAM = _Stream()


def _keyed(key: int, region: int = 0) -> np.random.Generator:
    """The thread's generator at the start of Philox's stream under `key`, at counter
    (0, 0, 0, region): the draws of Generator(Philox(key=key, counter=region << 192)).
    Every word of the state is set, so a draw depends on its key alone, whatever the
    generator drew before (`run_trial` is done with region 1 when `random_instance` re-keys)."""
    key, gen = _require_key(key), _STREAM.gen
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, region), "key": (key & _WORD, key >> 64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


@dataclass
class CampaignConfig(_JsonRecord):
    """Plan for a bulk verification run; every random draw flows from `seed`,
    an integer in [0, 2**64), and fewer than 2**32 trials per statement keep
    every trial's key distinct (`trial_seed`)."""

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
        if self.trials >= 1 << 32:
            raise PreconditionError(f"trials must be < 2**32, got {self.trials}")
        if not 0 <= self.seed < 1 << 64:
            raise PreconditionError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise PreconditionError(f"tol must be finite and > 0, got {self.tol}")
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
class TrialRecord(_Outcome, _JsonRecord):
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
_CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name != "detail")


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
            "format": FORMAT,
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


_STATEMENT_INDEX = {theorem: i for i, theorem in enumerate(TheoremId)}


def trial_seed(master_seed: int, theorem: TheoremId, index: int) -> int:
    """The 128-bit key of one (theorem, trial) cell, packed with no hashing:
    master_seed << 64 | statement index << 32 | index.  Cells with a master
    seed in [0, 2**64) and an index in [0, 2**32) (`CampaignConfig.validate`)
    have distinct keys, and so independent streams."""
    return int(master_seed) << 64 | _STATEMENT_INDEX[theorem] << 32 | int(index)


@functools.lru_cache(maxsize=256)
def _function_pool(theorem: TheoremId, specs: tuple[str, ...]) -> tuple[tuple[str, ScalarFunction], ...]:
    """The configured (spec, f) pairs `theorem` admits, in config order; all of
    them when it admits none, so that those trials skip at the gate."""
    parsed = tuple((spec, functions.parse(spec)) for spec in specs)
    return tuple(pair for pair in parsed if STATEMENTS[theorem].admits(pair[1])) or parsed


def run_trial(
    theorem: TheoremId, config: CampaignConfig, seed: int, index: int = 0
) -> tuple[TrialRecord, Instance | None, VerificationResult]:
    """One campaign cell: draw parameters and an instance from the key `seed`, then check it.

    dim, k, f and the exponent come from Philox keyed on `seed` at counter
    word 3 = 1, and the instance from `random_instance(..., seed, ...)`, so
    `opentropy gen --seed <record.seed>` with the record's dim, k, f and q
    replays the draw.  f is drawn from the configured functions the
    statement admits (`Statement.admits`), or from all of them when it
    admits none.

    Every cell ends in one outcome.  A generation failure is a hypothesis skip;
    a PreconditionError while drawing or checking (an exponent or a term count
    the statement does not admit, a window too narrow for the chord), a
    matrix that fails the positive-definite floor, a scalar function
    evaluated outside its domain, or an eigensolver or SVD failure (an
    exponent so large that a side overflows) is an error: hypothesis_met and
    holds both False, detail "error: <message>".
    """
    rng = _keyed(seed, _TRIAL_REGION)
    dim = int(rng.integers(config.dims[0], config.dims[1] + 1))
    k = int(rng.integers(config.terms[0], config.terms[1] + 1))
    pool = _function_pool(theorem, tuple(config.functions))
    spec, f = pool[int(rng.integers(len(pool)))]
    exponent = float(config.exponents[int(rng.integers(len(config.exponents)))])
    inst = None
    try:
        inst = random_instance(theorem, dim, k, seed, f, exponent)
        result = check(theorem, inst, config.tol)
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
        records.extend(record for record, _, _ in rows)
        counts = Counter(record.outcome for record, _, _ in rows)
        # The first least margin; a margin is set exactly when the hypotheses are met.
        margins = [(record.margin, record.seed) for record, _, _ in rows if record.margin is not None]
        min_margin, worst_seed = min(margins, key=lambda pair: pair[0], default=(None, None))
        failures.extend(
            {"record": record.to_json(), "result": result.to_json(), "instance": inst.to_json()}
            for record, inst, result in rows if record.outcome in ("numerical", "substantive")
        )
        summaries.append(
            TheoremSummary(theorem, config.trials, counts["pass"], counts["skip"], counts["error"],
                           counts["numerical"], counts["substantive"], min_margin, worst_seed)
        )
    return CampaignReport(config, summaries, records, failures)
