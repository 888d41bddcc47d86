"""Constrained random instances, the statement table, and bulk campaigns.

Every numbered inequality handled by the package has one TheoremId and one
entry in STATEMENTS.  The entry says how to draw a hypothesis-satisfying
instance, which hypotheses the checker gates on, and how to build both sides of
the inequality exactly as displayed.  A draw runs generator records (`Family`):
`draw` makes the rng calls, the pure `project` meets the family's constraints,
and the record names the slots it fills (a window among them holds 1 inside)
and its load-time check.  `check` makes one pass over it: the hypotheses (the
exponent range, then the function gates on the instance window, which give the
statement's chord constant), then both sides, then one labelled verdict of
matcore's one Loewner test on their claims (a scalar slack for the information
inequality; a two-sided margin for the homogeneity identity).

A failed hypothesis is never counted as a failure: the checker reports
hypothesis_met=False with an explanation and an empty margin.  A violation
carries a label from the same tolerance rule at tol=1e-6: "numerical" (float
noise) or "substantive" (a real counterexample, which would be a finding).

An Instance is its JSON, and this module alone holds the format: each slot
has one encoder and one decoder (`_SLOTS`; the function slot is its catalog
spec), and each payload form (a JSON number, rectangular lists of numbers, a
matrix, a field, a Kraus map) checks its JSON type before it indexes, so
every refusal while decoding starts with the slot's key.  A file is read for
the slots a draw of its statement fills, and every matrix and field is the
solve of exactly the array it stores (a non-Hermitian field or X, or a payload
off the header's dim and k, is refused), so a file written by `gen` or dumped
by a campaign re-checks to the same margin bit for bit.  Instance files and
campaign reports carry `"format": 3`; a file without it is refused at load.

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
import reprlib
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable

import numpy as np

from . import functions
from .bounds import chord_gap_bound, chord_ratio_bound, zeta_closed_forms
from .errors import (
    DomainError,
    EigenConvergenceError,
    GenerationError,
    NotPositiveDefiniteError,
    PreconditionError,
    ShapeError,
    UndefinedRatioError,
)
from .functions import LOG, NEG_T_LOG_T, ScalarFunction
from .maps import PositiveLinearMap, _haar_blocks
from .matcore import (
    DEFAULT_LOEWNER_TOL,
    OperatorField,
    PositiveDefiniteMatrix,
    _adjoint,
    _cgauss,
    _eye,
    _haar,
    _holds_within,
    _JsonRecord,
    _loewner_margins,
    _require_aligned,
    _require_tol,
    _scalar_image,
    _solve_pd,
    _spectral_images,
    _symmetrize,
    apply_function,
    loewner_leq,
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

    (m, M) is a window 0 < m <= M < inf, stored only by the families whose
    statements gate on it or read it: it covers the pair spectrum of (FA, FB)
    for the normalized family (a draw stores the measured sandwich constants)
    and the spectrum of X for the compression family; t0 lies in [m, M] where
    used.  Optional slots cover the extra fields some statements need.
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
    pmap: PositiveLinearMap | None = None
    x: PositiveDefiniteMatrix | None = None
    alpha: float | None = None
    beta: float | None = None
    pa: np.ndarray | None = None
    pb: np.ndarray | None = None

    def validate(self) -> None:
        """The full check of an instance a draw did not build: a file's, or another statement's in `check`."""
        _require_draw_ranges(self.seed, self.dim, self.k)
        st = self._require_arguments()
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
        if "t0" in st.needs:
            self._require_within("t0", self.t0, self.t0)

    def _require_arguments(self) -> "Statement":
        """What a draw's arguments can break: a slot the statement reads left empty, q not finite or off [0, 1]."""
        st = STATEMENTS[self.theorem]
        for slot in st.needs:
            if getattr(self, slot) is None:
                raise PreconditionError(f"a {self.theorem.value} instance needs {_SLOTS[slot][0]!r}, which is missing")
        if self.q is not None and not math.isfinite(self.q):
            raise PreconditionError(f"the exponent must be finite, got {self.q}")
        if st.unit_exponent and not 0.0 <= self.q <= 1.0:
            raise PreconditionError(f"this statement requires an exponent in [0, 1], got {self.q}")
        return st

    def _check_header(self) -> None:
        """dim and k describe the payload: every field holds k dim x dim
        matrices, X is dim x dim, and the map's Kraus factors are dim x dim.
        Every field has fa's weights."""
        node = (self.dim, self.dim)
        for slot in (*_FIELDS, "x", "pmap"):
            value = getattr(self, slot)
            if value is None:
                continue
            if slot == "pmap":
                fits = (value.in_dim, value.out_dim) == node
            else:
                fits = value.arrays.shape == (1 if slot == "x" else self.k, *node)
            if not fits:
                raise PreconditionError(f"{_SLOTS[slot][0]!r} does not match the header dim={self.dim}, k={self.k}")
            if slot in _FIELDS[1:] and not np.array_equal(value.weights, self.fa.weights):
                raise PreconditionError(f"'fa' and {slot!r} must share one weight vector node for node")

    def _require_within(self, what: str, lo: float, hi: float) -> None:
        """Refuse unless [lo, hi] lies in [m, M], up to a slack of 1e-9 max(1, |M|)."""
        slack = 1e-9 * max(1.0, abs(self.M))
        if not (self.m - slack <= lo and hi <= self.M + slack):
            raise PreconditionError(f"{what} [{lo}, {hi}] not inside [{self.m}, {self.M}]")

    def to_json(self) -> dict:
        out = {"format": FORMAT}
        for slot, (key, encode, _) in _SLOTS.items():
            value = getattr(self, slot)
            if value is not None:
                out[key] = encode(value)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Instance":
        """The instance a file states, read from the slots that a draw of its
        statement fills (`random_instance`); any other key is ignored."""
        version = data.get("format") if isinstance(data, dict) else None
        if version != FORMAT:
            raise PreconditionError(
                f"an instance file must carry \"format\": {FORMAT}, got {version!r} (format 1 files,"
                " written before keyed streams, and format 2 files, whose compressions store cs, are not read)"
            )
        st = STATEMENTS[_decoded("theorem", data)]
        slots = [slot for slot in _HEADER + ("f", "q") + st.family.slots + st.extras.slots
                 if (slot in _HEADER or _SLOTS[slot][0] in data) and st.fixed.get(slot, slot) is not None]
        inst = cls(**{slot: _decoded(slot, data) for slot in slots})
        inst.validate()
        return inst


def _decoded(slot: str, data: dict):
    """A slot's decoded value.  Each payload form below checks its JSON type
    before it indexes, so every refusal is a ValueError, which this prefixes
    with the slot's key (or one that names a missing key)."""
    key, _, decode = _SLOTS[slot]
    if key not in data:
        raise PreconditionError(f"an instance file needs {key!r}, which is missing")
    try:
        return decode(data[key])
    except (ValueError, OverflowError) as exc:
        raise PreconditionError(f"{key!r}: {exc}") from exc


# The version of the instance and campaign report formats.
FORMAT = 3
_HEADER = ("theorem", "seed", "dim", "k")
_FIELDS = ("fa", "fb", "fc", "fd")


def _number(value, integer: bool = False):
    """`value` if it is a JSON number (a JSON integer if `integer`), never a
    bool or a string: the rule of every number in an instance file.  A number
    that is read as a float must be within the double range; an integer slot
    checks its own range."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise PreconditionError(f"must be a JSON {'integer' if integer else 'number'}, got {reprlib.repr(value)}")
    if not integer and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise PreconditionError(f"must be a JSON number within the double range, got {reprlib.repr(value)}")
    return value


def _floats(data, depth: int = 1) -> np.ndarray:
    """Rectangular lists of JSON numbers, `depth` deep, as a float array."""
    rows, rectangular = [data], True
    for _ in range(depth):
        rectangular = rectangular and all(isinstance(row, list) for row in rows) and len(set(map(len, rows))) < 2
        rows = [item for row in rows for item in row] if rectangular else []
    if not rectangular or any(isinstance(item, list) for item in rows):
        wanted = "a list of " + "equal-length lists of " * (depth - 1)
        raise PreconditionError(f"must be {wanted}JSON numbers, got {reprlib.repr(data)}")
    for item in rows:
        _number(item)
    return np.array(data, dtype=float)


def _entries(data, *names: str) -> list:
    """The entries `names` of a JSON object, in that order."""
    if not isinstance(data, dict):
        raise PreconditionError(f"must be an object with the entries {', '.join(names)}, got {reprlib.repr(data)}")
    for name in names:
        if name not in data:
            raise PreconditionError(f"missing entry {name!r}")
    return [data[name] for name in names]


def _matrices(data, hermitian: bool = True) -> list:
    """The arrays of a JSON list of matrix objects (`_matrix_from_json`)."""
    if not isinstance(data, list):
        raise PreconditionError(f"must hold a list of matrix objects, got {reprlib.repr(data)}")
    return [_matrix_from_json(item, hermitian) for item in data]


def _matrix_to_json(a: np.ndarray) -> dict:
    """{"dim": n, "re": [[...]], "im": [[...]]}, row-major, for a square array."""
    return {"dim": len(a), "re": a.real.tolist(), "im": a.imag.tolist()}


def _matrix_from_json(data, hermitian: bool = True) -> np.ndarray:
    """The complex (dim, dim) array of a matrix object, entry for entry (not
    symmetrized).  Non-finite entries are refused (the eigensolver returns
    NaN spectra for them without an error), and so is an array that is not
    exactly its conjugate transpose if `hermitian`, so that the matrix
    checked is the one the file states."""
    dim, re, im = _entries(data, "dim", "re", "im")
    dim, re, im = _number(dim, integer=True), _floats(re, 2), _floats(im, 2)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ShapeError(f"matrix payload shape {re.shape}/{im.shape} does not match dim {dim}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise PreconditionError("matrix payload has non-finite entries")
    arr = re + 1j * im
    if hermitian and not np.array_equal(arr, _adjoint(arr)):
        raise PreconditionError("matrix payload is not Hermitian")
    return arr


def _field_from_json(data) -> OperatorField:
    weights, matrices = _entries(data, "weights", "matrices")
    weights, matrices = _floats(weights), _matrices(matrices)
    if len(weights) != len(matrices):
        raise ShapeError("field payload has mismatched weights/matrices lengths")
    return OperatorField.from_matrices(weights, matrices)


# The codec of an instance file: slot -> (JSON key, encoder, decoder).  A slot
# that is None is left out of the file; a key absent from the file is None.
# A field is {"weights": [...], "matrices": [matrix, ...]} and a map
# {"kraus": [matrix, ...]}, a matrix being `_matrix_to_json`'s object.
_SLOTS: dict[str, tuple[str, Callable, Callable]] = {
    "theorem": ("theorem", lambda t: t.value, TheoremId),
    **{name: (name, int, lambda value: int(_number(value, integer=True))) for name in ("seed", "dim", "k")},
    "f": ("f", lambda f: f.spec, functions.parse),
    **{name: (name, float, lambda value: float(_number(value))) for name in ("q", "t0", "m", "M", "alpha", "beta")},
    **{name: (name, lambda field: {"weights": field.weights.tolist(),
                                   "matrices": [_matrix_to_json(a) for a in field.arrays]}, _field_from_json)
       for name in _FIELDS},
    "pmap": ("map", lambda p: {"kraus": [_matrix_to_json(c) for c in p.kraus]},
             lambda d: PositiveLinearMap(_matrices(*_entries(d, "kraus"), hermitian=False))),
    "x": ("x", lambda x: _matrix_to_json(x.array), lambda d: PositiveDefiniteMatrix(_matrix_from_json(d))),
    **{name: (name, lambda v: [float(x) for x in v], _floats) for name in ("pa", "pb")},
}


# ---------------------------------------------------------------------------
# shared path: claims -> margin, norms, verdict
# ---------------------------------------------------------------------------


class _Skip(Exception):
    """A hypothesis of the statement fails on this instance (not a failure)."""


@dataclass(frozen=True)
class Sides:
    """Both sides of a statement on one instance, as a builder returns them: the
    claims (lhs, op, rhs) that matcore's one Loewner test decides, and `detail`,
    a string or a function of the per-claim margins."""

    claims: list
    detail: str | Callable[[list[float]], str]


def _verdict(theorem: TheoremId, sides: Sides, tol: float) -> VerificationResult:
    solved = _loewner_margins(sides.claims)
    if solved is None:
        # Overflow in a side (an exponent like 1e308): no order can be read off.
        return VerificationResult(theorem, False, None, 0.0, 0.0, False, "error: non-finite margin")
    margins, ln, rn = solved
    margin = min(margins)
    holds = _holds_within(margin, tol, ln, rn)
    detail = sides.detail(margins) if callable(sides.detail) else sides.detail
    # A violation is numerical if it passes the rule at tol=1e-6 (whatever tol is).
    label = None if holds else ("numerical" if _holds_within(margin, 1e-6, ln, rn) else "substantive")
    return VerificationResult(theorem, holds, margin, ln, rn, True, detail, label)


def _gate(st: "Statement", f: ScalarFunction, lo: float, hi: float) -> float | None:
    """Apply the statement's function gates to f on the window [lo, hi].

    Raises _Skip when one fails; returns the chord constant the statement
    needs (gamma or zeta on [lo, hi]), or None.  The gates are decided from
    the catalog and evaluate f only at scalars.  Every entry is concave, so
    f >= 0 on [lo, hi] exactly when it is at both ends.  An entry tangent to
    t - 1 at 1 has f(t) <= t - 1 everywhere; any other entry (each is >= 0
    at 1) exceeds t - 1 next to 1, which the windows of a `below_t_minus_1`
    statement hold in their interior (drawn and loaded alike).  The chord
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


def _pair_like(fields: tuple, a: np.ndarray, b: np.ndarray) -> tuple:
    """The pair (FA, FB) on the nodes and weights that the aligned `fields`
    share, with the (k, d, d) node stacks `a` and `b` of their combinations,
    its pair spectrum memoised."""
    for other in fields[1:]:
        _require_aligned(fields[0], other)
    return OperatorField.pairs(fields[0].weights, a[None], b[None])[0]


def _entropy_bound_terms(inst: Instance, fs: tuple[ScalarFunction, ...], gamma: float = 1.0):
    """For each f in fs, f(W) - gamma f(t0)(I - V) and S_p = sum w A^{1/2} T^p
    f(T) A^{1/2}, with V = sum w A#_pB and W = sum w A#_{p+1}B + t0(I - V)
    from one product over the pair spectra and one solve of W's lower
    triangle; and I.  V, W, S_p and the terms are Hermitian up to rounding
    (matcore's rule), read only by that solve and the Loewner test's."""
    p, t0 = float(inst.q), inst.t0
    spectrum = inst.fa.pair_spectrum(inst.fb)
    lam = spectrum.eigenvalues
    lam_p = lam ** p
    eye = _eye(inst.fa.dim)
    rows = [lam_p, lam ** (p + 1.0), *(lam_p * f.evaluate_array(lam) for f in fs)]
    v, w_plus, *s = spectrum.conjugate(np.array(rows))
    defect = eye - v
    images = _spectral_images(w_plus + t0 * defect, *fs)
    return [image - gamma * f.evaluate(t0) * defect for f, image in zip(fs, images)], s, eye


def _compression_terms(inst: Instance):
    """f(lifted argument) and the compressed right-hand side it is checked
    against, from Phi(I), Phi(X) and Phi(f(X)) in one application of the map."""
    f, x = inst.f, inst.x
    eye = _eye(x.dim)
    gram, lifted, compressed = inst.pmap.apply_array(np.array([eye, x.array, apply_function(x, f)]))
    defect = eye - gram
    arg = lifted + inst.t0 * defect
    (f_arg,) = _spectral_images(arg, f)
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
    """f(Phi(X) + t0(I - Phi(I))) >= Phi(f(X)) + f(t0)(I - Phi(I)) for a sub-unital Phi"""
    f_arg, rhs = _compression_terms(inst)
    return Sides([(f_arg, ">=", rhs)], "lifted Jensen inequality for a sub-unital compression family")


def _rev_jensen_gamma(inst: Instance, gamma: float) -> Sides:
    """f(lifted argument) <= gamma * [Phi(f(X)) + f(t0)(I - Phi(I))]"""
    f_arg, rhs = _compression_terms(inst)
    return Sides([(f_arg, "<=", gamma * rhs)], f"reverse lifted Jensen with gamma={gamma!r}")


def _rev_jensen_zeta(inst: Instance, zeta: float) -> Sides:
    """f(lifted argument) <= Phi(f(X)) + f(t0)(I - Phi(I)) + zeta I"""
    f_arg, rhs = _compression_terms(inst)
    shifted = rhs + zeta * _eye(inst.x.dim)
    return Sides([(f_arg, "<=", shifted)], f"reverse lifted Jensen with zeta={zeta!r}")


def _entropy_lower(inst: Instance, constant: None) -> Sides:
    """f(W) - f(t0)(I - V) >= S_p with V = sum w A#_pB, W = sum w A#_{p+1}B + t0(I - V)"""
    (lhs,), (s,), _ = _entropy_bound_terms(inst, (inst.f,))
    return Sides([(lhs, ">=", s)], f"entropy lower bound at p={inst.q:g}, t0={inst.t0:.6g}")


def _rev_entropy_gamma(inst: Instance, gamma: float) -> Sides:
    """f(W) - gamma f(t0)(I - V) <= gamma S_p"""
    (lhs,), (s,), _ = _entropy_bound_terms(inst, (inst.f,), gamma)
    detail = f"reverse entropy bound with gamma={gamma!r} at p={inst.q:g}"
    return Sides([(lhs, "<=", gamma * s)], detail)


def _rev_entropy_zeta(inst: Instance, zeta: float) -> Sides:
    """f(W) - f(t0)(I - V) <= S_p + zeta I"""
    (lhs,), (s,), eye = _entropy_bound_terms(inst, (inst.f,))
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
    q, f = float(inst.q), inst.f
    spectrum = inst.fa.pair_spectrum(inst.fb)
    lam = spectrum.eigenvalues
    s, rhs = spectrum.conjugate(np.array([lam ** q * f.evaluate_array(lam), lam ** (q + 1.0) - lam ** q]))
    return Sides([(s, "<=", rhs)], f"entropy upper bound at q={q:g}")


def _klein_upper(inst: Instance, constant: None) -> Sides:
    """S(A|B) <= B - A (relative operator entropy, Klein bound)"""
    spectrum = inst.fa.pair_spectrum(inst.fb)
    # The node's own term, unweighted: the field carries the pair's one node.
    s = _scalar_image(spectrum.frame, LOG.evaluate_array(spectrum.eigenvalues))[0]
    rhs = inst.fb.arrays[0] - inst.fa.arrays[0]
    return Sides([(s, "<=", rhs)], "relative operator entropy against B - A")


def _info_ineq(inst: Instance, constant: None) -> Sides:
    """sum_j a_j log(a_j/b_j) >= 0 for probability vectors, equality iff a = b"""
    a, b = inst.pa, inst.pb
    # The divergence and 0 as 1x1 matrices, each its own eigenvalue.
    divergence = np.array([[np.sum(a * LOG.evaluate_array(a / b))]])
    detail = "divergence of two probability vectors; equality exactly when a = b"
    return Sides([(divergence, ">=", np.zeros((1, 1)))], detail)


def _superadditive_terms(inst: Instance, alpha: float = 1.0, beta: float = 1.0):
    """S_0(alpha P1 + beta P2) and alpha S_0(P1) + beta S_0(P2) for the pairs
    P1 = (FA, FC) and P2 = (FB, FD).  At alpha = beta = 1.0 every product is
    its factor bit for bit (1.0 x = x)."""
    fa, fb, fc, fd, f = inst.fa, inst.fb, inst.fc, inst.fd, inst.f
    left, right = _pair_like((fa, fb, fc, fd), alpha * fa.arrays + beta * fb.arrays,
                             alpha * fc.arrays + beta * fd.arrays)
    lhs = left.pair_spectrum(right).entropy_term(0.0, f)
    rhs = alpha * fa.pair_spectrum(fc).entropy_term(0.0, f) + beta * fb.pair_spectrum(fd).entropy_term(0.0, f)
    return lhs, rhs


def _subadditive(inst: Instance, constant: None) -> Sides:
    """S_0(FA+FB | FC+FD) >= S_0(FA|FC) + S_0(FB|FD) node-wise"""
    lhs, rhs = _superadditive_terms(inst)
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
    alpha = float(inst.alpha)
    lhs, rhs = _superadditive_terms(inst, alpha, float(inst.beta))
    return Sides([(lhs, ">=", rhs)], f"joint concavity at alpha={alpha:g}")


def _map_monotone(inst: Instance, constant: None) -> Sides:
    """Phi(S_0(FA|FB)) <= S_0(Phi FA | Phi FB) for normalized positive Phi"""
    f, pm, fa, fb = inst.f, inst.pmap, inst.fa, inst.fb
    aggregate = fa.pair_spectrum(fb).entropy_term(0.0, f)
    # Phi applied once: to FA's nodes, then FB's, then the aggregate (the lhs),
    # symmetrized, as the images of the nodes are stored as fields.
    images = _symmetrize(pm.apply_array(np.concatenate([fa.arrays, fb.arrays, aggregate[None]])))
    k = len(fa)
    try:
        # FA's image is floored first, so the floor names the first failing node, FA's first.
        ((image_a, image_b),) = OperatorField.pairs(fa.weights, images[None, :k], images[None, k:-1])
    except NotPositiveDefiniteError as exc:
        raise _Skip(f"map image not positive definite ({exc})") from exc
    rhs = image_a.pair_spectrum(image_b).entropy_term(0.0, f)
    return Sides([(images[-1], "<=", rhs)], "informational monotonicity under a normalized positive map")


def _example_log_pair(inst: Instance, constant: None) -> Sides:
    """f(W) - f(t0)(I - V) <= S_p + zeta_f I for f = -t log t and f = log at the closed-form zeta_f"""
    p = float(inst.q)
    zeta_log, zeta_neg = zeta_closed_forms(inst.m, inst.M)
    (lhs_neg, lhs_log), (s_neg, s_log), eye = _entropy_bound_terms(inst, (NEG_T_LOG_T, LOG))
    return Sides(
        [(lhs_neg, "<=", s_neg + zeta_neg * eye), (lhs_log, "<=", s_log + zeta_log * eye)],
        lambda m: f"closed-form pair at p={p:g}: margins {m[0]:.3e} (-t log t) and {m[1]:.3e} (log)",
    )


# ---------------------------------------------------------------------------
# generator families: one record each, draw -> raw -> project -> slots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A generator family, or an extra drawn after it.  `draw(rng, dim, k)` makes the
    rng calls of one attempt; the pure `project(raw)` meets every constraint and
    returns the values of `slots` in order (a last "t0" is drawn on the accepted
    window), or None to draw again.  A window "m", "M" among the slots holds 1
    inside; `validate(inst)` checks a loaded instance, a stored window included."""

    slots: tuple[str, ...]
    draw: Callable
    project: Callable
    validate: Callable[[Instance], None] = lambda inst: None


def _resolution(nodes: np.ndarray) -> np.ndarray:
    """PD matrices summing to the identity over the node axis (a stack's sums in one solve)."""
    dim = nodes.shape[-1]
    # The 0.5*dim ridge keeps every summand (hence every node) well conditioned.
    arrays = _symmetrize(nodes @ _adjoint(nodes)) + 0.5 * dim * _eye(dim)
    sums = _solve_pd(arrays.sum(axis=-3))
    isq = _scalar_image(sums.eigenvectors, 1.0 / np.sqrt(sums.eigenvalues))[..., None, :, :]
    return _symmetrize(isq @ arrays @ isq)


def _free_nodes(nodes: np.ndarray) -> np.ndarray:
    """Well-conditioned PD matrices, one per raw node."""
    dim = nodes.shape[-1]
    return _symmetrize(nodes @ _adjoint(nodes)) / dim + 0.5 * _eye(dim)


def _draw_fields(rng, dim: int, k: int, count: int = 2):
    """The one weight vector that `count` fields share (ones, or uniform on [0.5, 2)) and their raw nodes."""
    weights = np.ones(k) if rng.uniform() < 0.5 else rng.uniform(0.5, 2.0, size=k)
    return weights, _cgauss(rng, (count, k, dim, dim))


def _project_normalized(raw):
    """Two fields summing to the identity, kept when m <= 1 - 1e-6 and M >= 1 + 1e-6."""
    weights, nodes = raw
    if len(weights) < 2:
        raise PreconditionError("normalized instances need k >= 2 (k = 1 forces both fields to {I})")
    arrays = _resolution(nodes) / weights[:, None, None]
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
    # The chord constants are taken on [m, M]; they bound f on the pair
    # spectrum of the fields only when the window covers it.
    spectrum = inst.fa.pair_spectrum(inst.fb)
    inst._require_within("pair spectrum of (fa, fb)", spectrum.m, spectrum.M)


def _project_free(raw):
    """Free fields, the first half of the drawn ones paired with the second
    half through `OperatorField.pairs`: (FA, FB) from two, the pairs (FA, FC)
    and (FB, FD) from four.  No window: no statement of these families reads one."""
    weights, nodes = raw
    arrays = _free_nodes(nodes)
    pairs = OperatorField.pairs(weights, arrays[:len(arrays) // 2], arrays[len(arrays) // 2:])
    return (*(a for a, _ in pairs), *(b for _, b in pairs))


def _draw_compression(rng, dim: int, k: int):
    """k and the raw nodes of the resolution (k or k + 1), of the k unitaries and of X."""
    extra = 1 if rng.uniform() < 0.75 else 0
    return k, _cgauss(rng, (k + extra, dim, dim)), _cgauss(rng, (k, dim, dim)), _cgauss(rng, (1, dim, dim))


def _project_compression(raw):
    """A sub-unital map, K_s = U_s A_s^{1/2} with the A_s k of the k or k + 1
    nodes of a resolution of I and the U_s Haar unitaries, and X centred on 1.

    [m, M] is spec(X)'s range; at dim 1, where X is a scalar x with no spread
    to centre, it is the window [r, max(x, 1/r)] with r = min(x, 1/x,
    1 - 1e-6), which contains x and has 1 in its interior as at dim >= 2.
    """
    k, nodes, gauss, x0 = raw
    arrays = _resolution(nodes)[:k]
    x0_array = _free_nodes(x0)
    # The k nodes A_s and X0 in one solve: node roots from the first k,
    # from the last X0's extreme eigenvalues, which centre X = X0 / sqrt(lo hi).
    solved = _solve_pd(np.concatenate([arrays, x0_array]))
    roots = _haar(gauss) @ _scalar_image(solved.eigenvectors[:k], np.sqrt(solved.eigenvalues[:k]))
    dim = x0_array.shape[-1]
    lo, hi = float(solved.eigenvalues[k, 0]), float(solved.eigenvalues[k, -1])
    scale = 1.0 / math.sqrt(lo * hi) if dim > 1 and hi / lo > 1.0 + 1e-9 else 1.0
    x = PositiveDefiniteMatrix(scale * x0_array[0])
    m, M = x.lambda_min, x.lambda_max
    if dim == 1:
        m = min(m, 1.0 / m, _STRADDLE_LO)
        M = max(M, 1.0 / m)
    return PositiveLinearMap(roots), x, m, M


def _validate_compression(inst: Instance) -> None:
    # The compression's k factors K_s (the header check sized them dim x dim).
    if len(inst.pmap.kraus) != inst.k:
        raise PreconditionError(f"'map' does not match the header dim={inst.dim}, k={inst.k}")
    # Sub-unital: Phi(I) = sum K*K <= I.  A Phi(I) that overflowed fails it.
    gram = inst.pmap.kraus_gram()
    if not (np.isfinite(gram).all() and loewner_leq(gram, _eye(inst.dim), 1e-10)[0]):
        raise PreconditionError("compression sum exceeds the identity")
    # The chord constants are taken on [m, M]; they bound f on the spectrum
    # of X only when the window covers it.
    inst._require_within("spectrum of X", inst.x.lambda_min, inst.x.lambda_max)


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


def _draw_map(rng, dim: int, k: int):
    """n in 1..3 complex Gaussians."""
    return _cgauss(rng, (int(rng.integers(1, 4)), dim, dim))


def _project_map(draws):
    """Kraus factors C with sum C*C = I: the row blocks of the Gaussians' Haar
    isometry (a normalized family)."""
    return (PositiveLinearMap(_haar_blocks(draws)),)


def _validate_map(inst: Instance) -> None:
    if not inst.pmap.is_normalized():
        raise PreconditionError("'map' is not normalized")


_NORMALIZED = Family(("fa", "fb", "m", "M", "t0"), _draw_fields, _project_normalized, validate=_validate_normalized)
_FREE_PAIR = Family(("fa", "fb"), _draw_fields, _project_free)
_FOUR_FIELDS = Family(("fa", "fb", "fc", "fd"), functools.partial(_draw_fields, count=4), _project_free)
_COMPRESSION = Family(("pmap", "x", "m", "M", "t0"), _draw_compression, _project_compression,
                      validate=_validate_compression)
_PROBABILITY = Family(("pa", "pb"), lambda rng, dim, k: np.array(
    [rng.dirichlet(2.0 * np.ones(dim)) for _ in range(2)]), _project_probability, validate=_validate_probability)
_NO_EXTRAS = Family((), lambda rng, dim, k: (), tuple)
_SCALE = Family(("alpha",), lambda rng, dim, k: float(rng.choice([0.5, 2.0])), lambda alpha: (alpha,),
                validate=lambda inst: _require_positive(inst, "alpha"))
_BLEND = Family(("alpha", "beta"), lambda rng, dim, k: float(rng.uniform(0.25, 0.75)),
                lambda alpha: (alpha, 1.0 - alpha), validate=_validate_blend)
_MAP = Family(("pmap",), _draw_map, _project_map, validate=_validate_map)


# ---------------------------------------------------------------------------
# the statement table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """One verified statement: how to draw it, what it assumes, what it claims.

    The `Family` records `family` and `extras` fill a fresh instance, in that
    order; `fixed` pins instance fields after the draw (k before it), and a
    slot fixed at None is one the check does not read, so the draw leaves it
    empty and a file's value is ignored.  `needs` is the rest of the drawn
    slots and (f, q).  The hypotheses, which `check` applies once on the
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
    unit_exponent: bool = False
    nonneg: bool = False
    below_t_minus_1: bool = False
    constant: str | None = None

    @functools.cached_property
    def needs(self) -> tuple[str, ...]:
        """The slots a check reads (computed once): the families' slots, f and q, less the fixed ones."""
        return tuple(slot for slot in self.family.slots + self.extras.slots + ("f", "q") if slot not in self.fixed)

    def admits(self, f: ScalarFunction) -> bool:
        """Whether f can meet this statement's function gates on the windows
        its family draws, judged from the gates and f's catalog entry alone.

        `nonneg` on a family that draws a window (every window contains 1 in
        its interior) needs f's nonnegative interval to contain a
        neighbourhood of 1.
        `below_t_minus_1` needs the tangent line at 1: f(1) = 0 and f'(1) = 1,
        which for a concave f gives f(t) <= t - 1 everywhere.  Admissibility
        only shapes a campaign's draw of f; every trial is still gated.
        """
        if self.nonneg and "m" in self.family.slots:
            low, high = f.nonnegative_on
            if not low < 1.0 < high:
                return False
        return not self.below_t_minus_1 or _tangent_at_one(f)


def _tangent_at_one(f: ScalarFunction) -> bool:
    """f(1) = 0 and f'(1) = 1, so that the concave f has f(t) <= t - 1."""
    return f.evaluate(1.0) == 0.0 and f.derivative(1.0) == 1.0


STATEMENTS: dict[TheoremId, Statement] = {
    TheoremId.MEAN_INTEGRAL: Statement(
        _FREE_PAIR, _mean_integral, fixed={"f": None}, unit_exponent=True
    ),
    TheoremId.COMPRESSION_JENSEN: Statement(
        _COMPRESSION, _compression_jensen, fixed={"q": None}, nonneg=True
    ),
    TheoremId.ENTROPY_LOWER: Statement(
        _NORMALIZED, _entropy_lower, unit_exponent=True, nonneg=True
    ),
    TheoremId.ENTROPY_NONNEG: Statement(_NORMALIZED, _entropy_nonneg, fixed={"t0": None}, nonneg=True),
    TheoremId.ENTROPY_UPPER: Statement(_NORMALIZED, _entropy_upper, fixed={"t0": None}, below_t_minus_1=True),
    TheoremId.KLEIN_UPPER: Statement(_FREE_PAIR, _klein_upper, fixed={"k": 1, "f": LOG, "q": None}),
    TheoremId.INFO_INEQ: Statement(_PROBABILITY, _info_ineq, fixed={"k": 1, "f": LOG, "q": None}),
    TheoremId.SUBADDITIVE: Statement(
        _FOUR_FIELDS, _subadditive, fixed={"q": 0.0}
    ),
    TheoremId.HOMOGENEOUS: Statement(_FREE_PAIR, _homogeneous, extras=_SCALE),
    TheoremId.JOINT_CONCAVE: Statement(
        _FOUR_FIELDS, _joint_concave, extras=_BLEND, fixed={"q": 0.0}
    ),
    TheoremId.MAP_MONOTONE: Statement(
        _FREE_PAIR, _map_monotone, extras=_MAP, fixed={"q": 0.0}
    ),
    TheoremId.REV_JENSEN_GAMMA: Statement(
        _COMPRESSION, _rev_jensen_gamma, fixed={"q": None}, nonneg=True, constant="gamma"
    ),
    TheoremId.REV_ENTROPY_GAMMA: Statement(
        _NORMALIZED, _rev_entropy_gamma, unit_exponent=True, nonneg=True, constant="gamma"
    ),
    TheoremId.REV_JENSEN_ZETA: Statement(
        _COMPRESSION, _rev_jensen_zeta, fixed={"q": None}, constant="zeta"
    ),
    TheoremId.REV_ENTROPY_ZETA: Statement(
        _NORMALIZED, _rev_entropy_zeta, unit_exponent=True, constant="zeta"
    ),
    TheoremId.EXAMPLE_LOG_PAIR: Statement(
        _NORMALIZED, _example_log_pair, fixed={"f": None}, unit_exponent=True
    ),
}


def check(theorem: TheoremId, inst: Instance, tol: float = DEFAULT_LOEWNER_TOL) -> VerificationResult:
    """Evaluate one theorem on one instance in one pass; pure in (theorem, inst, tol).

    `tol` (`loewner_leq`'s rule) and the hypotheses come first: `_require_arguments`,
    or on an instance drawn for another statement the full `validate` as one of
    `theorem`'s (a slot `theorem` needs, or one it fixes, is refused as at load);
    then `_gate` on the instance window, whose chord constant the builder
    receives.  Then the builder's sides, and last `_verdict`'s margin and label.
    """
    _require_tol(tol)
    if theorem is inst.theorem:
        st = inst._require_arguments()
    else:
        replace(inst, theorem=theorem).validate()
        st = STATEMENTS[theorem]
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
    p_or_q: float | None = 0.5,
) -> Instance:
    """Draw a hypothesis-satisfying instance for `theorem` from Philox keyed on
    `seed`, an integer in [0, 2**128), at counter 0: a pure function of its arguments.

    p_or_q=None gives no exponent, as a record states where there is none.
    `Statement.fixed` sets k before the draw and its other slots after it:
    t0 is drawn even where it is fixed, so that no later draw moves.  The projections
    build in the rest of `Instance.validate`, so a draw checks its arguments alone.
    """
    _require_draw_ranges(seed, dim, k)
    st = STATEMENTS[theorem]
    rng = _keyed(seed)
    inst = Instance(
        theorem=theorem, seed=int(seed), dim=int(dim), k=int(st.fixed.get("k", k)),
        f=functions.power(0.5) if f is None else f, q=None if p_or_q is None else float(p_or_q),
    )
    for family in (st.family, st.extras):
        for _ in range(_RESAMPLE_CAP):
            values = family.project(family.draw(rng, inst.dim, inst.k))
            if values is not None:
                break
        else:
            raise GenerationError(f"no {theorem.value} draw met its constraints in {_RESAMPLE_CAP} attempts")
        for slot, value in zip(family.slots, values):
            setattr(inst, slot, value)
        if "t0" in family.slots:
            inst.t0 = float(rng.uniform(inst.m, inst.M))
    for slot, value in st.fixed.items():
        setattr(inst, slot, value)
    inst._require_arguments()
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
    """A draw's header types and ranges, for `random_instance` and `Instance.validate` alike."""
    for name, value in (("dim", dim), ("k", k), ("seed", seed)):
        if not (type(value) is int or isinstance(value, np.integer)):
            raise PreconditionError(f"{name} must be an integer, got {value!r}")
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
        # The report states the config as JSON: ints, never bools or numpy integers, and tol and exponents by `_number`.
        if not (type(self.trials) is int and type(self.seed) is int):
            raise PreconditionError(f"trials and seed must be integers, got trials={self.trials!r}, seed={self.seed!r}")
        for name, pair in (("dims", self.dims), ("terms", self.terms)):
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(type(v) is int for v in pair)):
                raise PreconditionError(f"{name} must be a pair of integers (lo, hi), got {pair!r}")
        if not all(isinstance(theorem, TheoremId) for theorem in self.theorems):
            raise PreconditionError(f"theorems must be TheoremId members, got {self.theorems!r}")
        for name, value in [("tol", self.tol), *(("exponents", q) for q in self.exponents)]:
            try:
                _number(value)
            except PreconditionError as exc:
                raise PreconditionError(f"{name}: {exc}") from None
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
        if not self.theorems or not self.functions or not self.exponents:
            raise PreconditionError("need at least one theorem, one function and one exponent")
        repeated = sorted({t.value for t in self.theorems if self.theorems.count(t) > 1})
        if repeated:
            raise PreconditionError(f"theorems must not repeat, got {', '.join(repeated)} more than once")
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
    exponent: float | None
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
    replays the draw (with no f or q where the record's is empty).  f is
    drawn from the configured functions the statement admits
    (`Statement.admits`), or from all of them when it admits none.  The record
    holds the instance's k, f and q where it exists, which `Statement.fixed` can set.

    Every cell ends in one outcome.  A generation failure is a hypothesis skip;
    a PreconditionError while drawing or checking (an exponent or a term count
    the statement does not admit, a window too narrow for the chord), a
    matrix that fails the positive-definite floor, a scalar function
    evaluated outside its domain, or an eigensolver or QR failure (an
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
    if inst is not None:
        k, spec, exponent = inst.k, "" if inst.f is None else inst.f.spec, inst.q
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
