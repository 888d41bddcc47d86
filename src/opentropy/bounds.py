"""Secant data and reverse-Jensen constants: closed forms, else scalar optimization.

For f on [m, M] the chord through (m, f(m)) and (M, f(M)) is
c(t) = mu*t + nu with

    mu = (f(M) - f(m)) / (M - m),    nu = (M f(m) - m f(M)) / (M - m).

Two correction constants turn the Jensen inequality around (the
Mond-Pecaric method):

    ratio bound  gamma = max { f(t) / c(t) : m <= t <= M }   (needs c > 0, f >= 0)
    gap bound    zeta  = max { f(t) - c(t) : m <= t <= M }

f is a catalog function (`functions`), and every entry is concave, so the
chord lies below f: gamma >= 1 and zeta >= 0, with equality cases at the
endpoints.

Closed forms.  One straight-line kernel, `_kernel`, serves `secant_data`,
`chord_ratio_bound` and `chord_gap_bound`.  It checks the window, evaluates f
at both ends, computes the chord and, for the heads below (read off f's spec,
parsed once when f is built), the argmax; the constant is f/c or f - c there,
floored at the endpoints' exact 1 and 0:

    power:p, 0 < p < 1   gamma at t = p nu / ((1 - p) mu), so gamma is
                         1/K(m, M, p), the generalized Kantorovich constant;
                         zeta at t = (mu/p)^{1/(p-1)}, where f'(t) = mu
    log                  gamma at t = exp(1 + W0(nu / (e mu)));
                         zeta at the logarithmic mean L(m, M)
    neg_t_log_t          gamma at t = (nu/mu) W0(mu / (e nu)) = exp(-1 - W0(mu / (e nu)));
                         zeta at the identric mean I(m, M)

(Furuta, Micic Hot, Pecaric and Seo, Mond-Pecaric Method in Operator
Inequalities, 2005, ch. 2.)  W0 is the principal branch of the Lambert W
function, `_lambert_w0`.  The chord is linear and equals f at both ends, so
whether gamma is defined (the chord goes below 0, or vanishes at both ends) is
read off f(m) and f(M), once, before any rule or search; an undefined gamma
raises nothing on `secant_data`'s path.  Where a rule divides by mu == 0
(power:p with p near 0, where f(m) == f(M) in floating point), the kernel
takes the grid search's value, floored the same way.  The closed form needs no
nonnegativity check: a concave f with f(m), f(M) >= 0 is >= 0 on [m, M].
Where the chord vanishes at one end (log on [1, M], -t log t on [m, 1], where
W0's argument is the branch point -1/e), gamma is the ratio's limit
f'(end)/mu there.

Every other constant comes from one grid search, `_maximize`: those of the
linear entries (identity, affine, const, power:0, power:1).  It scans a
4096-point grid, then golden-section search refines the best bracket until it
is 1e-12 (M - m) wide or its probes stop falling strictly inside it (a window a
few ulps wide).  The ratio search leaves an end where the chord vanishes out of
the scan, and evaluates f on the grid once, for its nonnegativity check and
its search; an f whose nonnegative interval covers [m, M] skips the check.
The gap bound is cross-checked against f'(t) = mu.  Each call checks the
window and computes the chord once.  A window too narrow for double
precision to resolve the chord (its rounding unit
eps * max(1, |f(m)|, |f(M)|) * M / (M - m) above 1e-8, see
`_RESOLUTION_LIMIT`) raises UnresolvableWindowError, a PreconditionError,
instead of answering with rounding noise.  The grid search, unfloored, is the
oracle the closed forms are tested against (`grid_values`).

Also here: the logarithmic and identric means, and the closed forms that the
gap bound takes for log t and -t log t on intervals with m < 1 < M.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    PreconditionError,
    UndefinedRatioError,
    UnresolvableWindowError,
)
from .functions import GRID_POINTS, LOG, NEG_T_LOG_T, ScalarFunction, _grid, _nonnegative
from .matcore import _JsonRecord

__all__ = [
    "SecantData",
    "chord_ratio_bound",
    "chord_gap_bound",
    "secant_data",
    "grid_values",
    "logarithmic_mean",
    "identric_mean",
    "zeta_closed_forms",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = sys.float_info.epsilon
_INF = math.inf


@dataclass(frozen=True)
class SecantData(_JsonRecord):
    """Chord coefficients and both reverse constants for f on [m, M].

    `gamma`/`argmax_gamma` are None when the ratio bound is undefined for f on
    the interval (nonpositive chord or negative f).  The fields are the CLI
    exchange format (`to_json`).
    """

    m: float
    M: float
    mu: float
    nu: float
    gamma: float | None
    zeta: float
    argmax_gamma: float | None
    argmax_zeta: float


def _check_interval(m: float, M: float) -> tuple[float, float]:
    m, M = float(m), float(M)
    if not (0.0 < m < M) or not (math.isfinite(m) and math.isfinite(M)):
        raise PreconditionError(f"need 0 < m < M, got m={m}, M={M}")
    return m, M


# A checked window and f's chord on it, (m, M, f(m), f(M), mu, nu): the line
# c(t) = mu*t + nu through (m, f(m)) and (M, f(M)).
_Chord = tuple[float, float, float, float, float, float]

# The largest chord rounding unit eps * max(1, |f(m)|, |f(M)|) * M / (M - m)
# of a window whose constants are reported.  mu and nu are differences over
# M - m, so the chord, and with it gamma and zeta, carries an error of a few
# such units; above 1e-8 that error alone can exceed the campaign's margin
# floor of -1e-8.  The unit stays below 8.7e-13 on the benchmark's secant
# windows (seeds 0-2) and below 4.2e-15 on the seed-42 acceptance campaign's
# windows, and it reads 1.65 for log on [3, 3 + 1 ulp], 1.0 on [1, 1 + 1 ulp],
# 7.3e-4 on [3, 3 + 1e-12] and 6.3e-3 for power:0.5 on [2, 2 + 1e-13], where
# the computed gamma (0.549, nan, 0.99983 < 1 for a concave f) and zeta
# (8.8e-4 against about 1e-28) are rounding noise.  The unit does not bound
# gamma's error next to a root of f, where f/chord is a ratio of two small
# numbers and mu t + nu cancels: against the exact value of the rounded window,
# gamma of log on [1 + 1e-13, 1.5] (unit 6.7e-16) is off by 1.8e-10 relative,
# and of -t log t on [0.05, 1 - 1e-13] by 9.3e-11 (`test_gamma_near_the_root_of_f`).
_RESOLUTION_LIMIT = 1e-8


def _chord(f: ScalarFunction, m: float, M: float) -> _Chord:
    """The chord of f on the checked window [m, M]; UnresolvableWindowError
    when its rounding unit exceeds `_RESOLUTION_LIMIT`."""
    return _kernel(f, m, M, False, False)[:6]


def _golden_max(obj, a: float, b: float, width: float) -> tuple[float, float]:
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = float(obj(c)), float(obj(d))
    # Below a few ulps of t the probes stop moving strictly inside the
    # bracket, which then never narrows to `width`.
    while (b - a) > width and a < c < d < b:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = float(obj(d))
        else:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = float(obj(c))
    return (c, fc) if fc >= fd else (d, fd)


def _maximize(obj, ts, vs, lo: int = 0, hi: int = GRID_POINTS - 1) -> tuple[float, float]:
    """Scan of obj's values `vs` over grid points lo..hi of the grid `ts` of
    [m, M], then golden-section refinement of the best bracket within them."""
    m, M = float(ts[0]), float(ts[-1])
    vs = np.asarray(vs, dtype=float)
    i = lo + int(np.argmax(vs[lo : hi + 1]))
    t_best, v_best = float(ts[i]), float(vs[i])
    t_ref, v_ref = _golden_max(obj, float(ts[max(i - 1, lo)]), float(ts[min(i + 1, hi)]), 1e-12 * (M - m))
    if v_ref > v_best:
        t_best, v_best = t_ref, v_ref
    return t_best, v_best


def _ratio_ends(fm: float, fM: float) -> tuple[bool, bool] | None:
    """Whether the chord vanishes at m and at M, or None where the ratio bound
    is undefined.  The chord is linear and equals f at both ends, so f(m) and
    f(M) decide: it goes below 0, or it vanishes at both ends."""
    if min(fm, fM) < -1e-12 * max(1.0, abs(fm), abs(fM)):
        return None
    left_zero, right_zero = fm <= 0.0, fM <= 0.0
    return None if left_zero and right_zero else (left_zero, right_zero)


def _ratio_bound(f: ScalarFunction, chord: _Chord) -> tuple[float, float]:
    """The grid search's (argmax, value) of f/chord, the oracle of the closed
    forms.  Raises UndefinedRatioError where the ratio bound is undefined and
    PreconditionError where f dips below 0 on the grid."""
    m, M, fm, fM, mu, nu = chord
    ends = _ratio_ends(fm, fM)
    if ends is None:
        low = min(fm, fM)
        raise UndefinedRatioError(
            f"chord mu*t + nu reaches {low:.6e} on [{m}, {M}]; ratio bound undefined" if low < 0.0
            else f"chord vanishes identically on [{m}, {M}]"
        )
    # f is evaluated on the grid once, for the nonnegativity check and the
    # search; the catalog's nonnegative interval covering [m, M] needs no check.
    ts = _grid(m, M)
    fs = f.evaluate_array(ts)
    lo, hi = f.nonnegative_on
    if not (lo <= m and M <= hi) and not _nonnegative(fs):
        raise PreconditionError(f"{f.name} is negative somewhere on [{m}, {M}]")
    # With f >= 0 the chord vanishes only at an end where f does.  The search
    # leaves such an end out (0/0 there is all cancellation noise); the end
    # adds the ratio's limit f'(t)/mu, which may be the unattained supremum.
    left_zero, right_zero = ends
    with np.errstate(divide="ignore", invalid="ignore"):
        t_best, v_best = _maximize(
            lambda t: f.fn(t) / (mu * t + nu), ts, fs / (mu * ts + nu),
            int(left_zero), GRID_POINTS - 1 - int(right_zero),
        )
    if mu != 0.0:
        for endpoint, is_zero in ((m, left_zero), (M, right_zero)):
            if is_zero:
                limit = f.derivative(endpoint) / mu
                if limit > v_best:
                    t_best, v_best = endpoint, limit
    return t_best, v_best


def chord_ratio_bound(f: ScalarFunction, m: float, M: float) -> float:
    """max f/chord on [m, M]; >= 1 for concave f, = 1 at the endpoints."""
    values = _kernel(f, m, M, True, False)
    if values[6] is None:
        _ratio_bound(f, values[:6])  # raises the reason the bound is undefined
    return values[6]


def _stationary_points(f: ScalarFunction, mu: float, m: float, M: float) -> list[float]:
    ts = np.linspace(m, M, GRID_POINTS)
    g = np.asarray(f.deriv(ts), dtype=float) - mu
    roots: list[float] = [float(ts[i]) for i in np.flatnonzero(g == 0.0)]
    for i in np.flatnonzero(g[:-1] * g[1:] < 0.0):
        lo, hi = float(ts[i]), float(ts[i + 1])
        glo = float(g[i])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gm = float(f.deriv(mid)) - mu
            if gm == 0.0 or (hi - lo) < 1e-14 * (M - m):
                break
            if (gm > 0.0) == (glo > 0.0):
                lo, glo = mid, gm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def _gap_bound(f: ScalarFunction, chord: _Chord) -> tuple[float, float]:
    m, M, _, _, mu, nu = chord
    obj = lambda t: f.fn(t) - (mu * t + nu)
    ts = _grid(m, M)
    t_grid, v_grid = _maximize(obj, ts, obj(ts))
    roots = _stationary_points(f, mu, m, M)
    if not roots:
        # No interior stationary point: the maximum sits at an endpoint (value 0).
        return t_grid, v_grid
    t_stat, v_stat = max(((t, float(obj(t))) for t in roots), key=lambda tv: tv[1])
    if v_stat < 0.0:
        t_stat, v_stat = m, 0.0
    if abs(v_stat - v_grid) > 1e-9:
        raise ConsistencyError(
            f"gap bound for {f.name} on [{m}, {M}]: grid search gives {v_grid!r} "
            f"but stationarity gives {v_stat!r}"
        )
    return (t_stat, v_stat) if v_stat >= v_grid else (t_grid, v_grid)


def chord_gap_bound(f: ScalarFunction, m: float, M: float) -> float:
    """max (f - chord) on [m, M].

    In exact arithmetic this is >= 0, since the endpoints give 0.  The
    computed value can fall below 0 by rounding of the chord on narrow
    windows: affine:1.5956470419772715,2.8558164699517645 on
    [4.631138111478391, 4.638084518833767], whose exact value is 0, gives
    -1.06e-12.
    """
    return _kernel(f, m, M, False, True)[7]


# -1/e = -(_INV_E + _INV_E_LO), two doubles, so that x + 1/e is exact up to
# one rounding near the branch point of W0.
_INV_E = 0.36787944117144233
_INV_E_LO = -1.2428753672788363e-17


def _lambert_w0(x: float) -> float:
    """The principal branch W0 of w e^w = x on [-1/e, inf).

    Near the branch point, the series in p = sqrt(2 (e x + 1)); elsewhere
    Halley's iteration from the series (x < 0) or from log1p(x), less
    log log1p(x) above 3 (Corless, Gonnet, Hare, Jeffrey and Knuth, "On the
    Lambert W function", Adv. Comput. Math. 5, 1996).  An x at or below -1/e,
    which rounding can give, returns the branch point's W0 = -1.
    """
    d = (x + _INV_E) + _INV_E_LO
    if d <= 0.0:
        return -1.0
    if x < 0.0:
        p = math.sqrt(2.0 * math.e * d)
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0
                                                     + p * (-43.0 / 540.0 + p * 769.0 / 17280.0))))
        if p < 1e-3:  # the series' next term is below p^6 / 38
            return w
    else:
        w = math.log1p(x)
        if x > 3.0:
            w -= math.log(w)
    for _ in range(16):
        ew = math.exp(w)
        r = w * ew - x
        step = r / (ew * (w + 1.0) - 0.5 * (w + 2.0) * r / (w + 1.0))
        w -= step
        # The error cubes at each step: after one below 1e-8 it is rounding.
        if abs(step) <= 1e-8 * (1.0 + abs(w)):
            break
    return w


def _has_closed_forms(f: ScalarFunction) -> bool:
    """Whether f's constants have closed forms: log, neg_t_log_t and power:p
    with 0 < p < 1.  The linear entries (identity, affine, const, power:0,
    power:1) take the grid search."""
    return f.head in ("log", "neg_t_log_t") or f.head == "power" and 0.0 < f.params[0] < 1.0


# The closed-form argmax rules.  gamma's sets the derivative of f/chord to zero:
#   power:p      p (mu t + nu) = mu t;
#   log          mu + nu/t = mu log t, and t = e^{1+w} gives w e^w = nu/(e mu);
#   neg_t_log_t  nu log t + mu t + nu = 0, and t = e^{-1-w} = (nu/mu) w gives
#                w e^w = mu/(e nu);
# W0, not W-1, keeps f(t) >= 0: log t = 1 + w >= 0 for log, and
# log t = -1 - w <= 0 for -t log t.  zeta's solves f'(t) = mu.
def _kernel(f: ScalarFunction, m: float, M: float, ratio: bool, gap: bool) -> tuple:
    """The chord of f on [m, M] and the constants asked for, as
    (m, M, f(m), f(M), mu, nu, gamma, zeta, argmax_gamma, argmax_zeta): the
    chord (`_Chord`), then `SecantData`'s constants, each None where not asked
    for (`ratio`, `gap`) and gamma's where undefined.

    One straight-line pass for the closed-form heads, with f evaluated
    through `fn` and `deriv` on the checked window.  A rule that fails in
    floating point (mu == 0) falls back to the grid search.  Either way the
    value is floored at the endpoints' exact 1 or 0, at argmax m: only
    rounding lands below them.  The linear heads take the grid search.
    """
    m, M = float(m), float(M)
    if not 0.0 < m < M < _INF:
        _check_interval(m, M)
    fn = f.fn
    fm, fM = float(fn(m)), float(fn(M))
    scale = 1.0  # max(1, |f(m)|, |f(M)|)
    if abs(fm) > scale:
        scale = abs(fm)
    if abs(fM) > scale:
        scale = abs(fM)
    unit = _EPS * scale * M / (M - m)
    if unit > _RESOLUTION_LIMIT:
        # The larger factor of the unit names the cause; printed in this
        # order, the unit is finite where eps * scale * M overflows.
        width = M / (M - m)
        if width >= scale:
            cause = f"[{m!r}, {M!r}] is too narrow to resolve the chord of {f.name}"
        else:
            cause = f"{f.name} is too large on [{m!r}, {M!r}] to resolve its chord"
        raise UnresolvableWindowError(
            f"{cause}: its rounding unit is {_EPS * scale * width:.3e}, above {_RESOLUTION_LIMIT:g}"
        )
    mu = (fM - fm) / (M - m)
    nu = (M * fm - m * fM) / (M - m)
    chord = (m, M, fm, fM, mu, nu)
    head, closed = f.head, _has_closed_forms(f)
    gamma = zeta = argmax_gamma = argmax_zeta = None
    # gamma is undefined where the chord, equal to f at both ends, goes below
    # 0 or vanishes at both ends (`_ratio_ends`).
    low = fM if fM < fm else fm
    if ratio and not (low < -1e-12 * scale or (fm <= 0.0 and fM <= 0.0)):
        if not closed:  # every linear entry is >= 0 on (0, inf): the search raises nothing
            argmax_gamma, gamma = _ratio_bound(f, chord)
        elif fm <= 0.0 or fM <= 0.0:
            # The chord vanishes at one end, with f: f/chord is the slope of
            # f's secant from that end over mu, which for concave f climbs
            # toward that end, so the bound is the limit f'(end)/mu there.
            argmax_gamma = m if fm <= 0.0 else M
            gamma = float(f.deriv(argmax_gamma)) / mu
        else:
            try:
                if head == "power":
                    p = f.params[0]
                    t = p * nu / ((1.0 - p) * mu)
                elif head == "log":
                    t = math.exp(1.0 + _lambert_w0(nu / (math.e * mu)))
                else:
                    t = math.exp(-1.0 - _lambert_w0(mu / (math.e * nu)))
            except ArithmeticError:
                argmax_gamma, gamma = _ratio_bound(f, chord)
            else:
                argmax_gamma = M if M < t else (m if m > t else t)
                gamma = float(fn(argmax_gamma)) / (mu * argmax_gamma + nu)
            if not gamma >= 1.0:
                argmax_gamma, gamma = m, 1.0
    if gap:
        if not closed:
            argmax_zeta, zeta = _gap_bound(f, chord)
        else:
            try:
                if head == "power":
                    p = f.params[0]
                    t = (mu / p) ** (1.0 / (p - 1.0))
                elif head == "log":
                    t = logarithmic_mean(m, M)
                else:
                    t = identric_mean(m, M)
            except ArithmeticError:
                argmax_zeta, zeta = _gap_bound(f, chord)
            else:
                argmax_zeta = M if M < t else (m if m > t else t)
                zeta = float(fn(argmax_zeta)) - (mu * argmax_zeta + nu)
            if not zeta >= 0.0:
                argmax_zeta, zeta = m, 0.0
    return chord + (gamma, zeta, argmax_gamma, argmax_zeta)


def secant_data(f: ScalarFunction, m: float, M: float) -> SecantData:
    """Full chord data; the ratio bound is reported as None where undefined."""
    m, M, _, _, mu, nu, gamma, zeta, argmax_gamma, argmax_zeta = _kernel(f, m, M, True, True)
    # The frozen __init__ sets each field through object.__setattr__; one
    # update of the instance dict costs less than half as much.
    data = object.__new__(SecantData)
    data.__dict__.update({"m": m, "M": M, "mu": mu, "nu": nu, "gamma": gamma, "zeta": zeta,
                          "argmax_gamma": argmax_gamma, "argmax_zeta": argmax_zeta})
    return data


def grid_values(f: ScalarFunction, m: float, M: float) -> dict[str, float]:
    """The grid search's value of each constant that `secant_data` takes from
    a closed form for f and that is defined on [m, M] ("gamma", "zeta"): an
    independent cross-check."""
    chord = _chord(f, m, M)
    if not _has_closed_forms(f):
        return {}
    values = {"gamma": _ratio_bound(f, chord)[1]} if _ratio_ends(chord[2], chord[3]) is not None else {}
    values["zeta"] = _gap_bound(f, chord)[1]
    return values


def logarithmic_mean(a: float, b: float) -> float:
    """L(a, b) = (b - a) / (log b - log a), continuous on the diagonal.

    Evaluated through u = (b - a)/a and log1p, which stays accurate for
    nearly equal arguments where the textbook quotient cancels.
    """
    a, b = float(a), float(b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"logarithmic mean needs positive arguments, got {a}, {b}")
    if abs(a - b) <= 1e-12 * max(a, b):
        return 0.5 * (a + b)
    u = (b - a) / a
    # b/a below the rounding unit (log1p(-1) is undefined) or beyond the double
    # range (a u / log1p(u) is inf / inf): log b - log a does not cancel there.
    if u == -1.0 or u == _INF:
        return (b - a) / (math.log(b) - math.log(a))
    return a * u / math.log1p(u)


def identric_mean(a: float, b: float) -> float:
    """I(a, b) = (1/e) (b^b / a^a)^{1/(b-a)}, continuous on the diagonal.

    Uses log I = log a + (1 + u) log1p(u)/u - 1 with u = (b - a)/a, which is
    cancellation-free near the diagonal.  Where b/a is below the rounding
    unit or (1 + u) log1p(u) overflows, it takes the same mean as
    hi exp(lo (log hi - log lo)/(hi - lo) - 1) with lo < hi, which does not cancel.
    """
    a, b = float(a), float(b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"identric mean needs positive arguments, got {a}, {b}")
    if abs(a - b) <= 1e-12 * max(a, b):
        return 0.5 * (a + b)
    u = (b - a) / a
    if u == -1.0 or u > 1e300:
        lo, hi = (b, a) if b < a else (a, b)
        return hi * math.exp(lo * (math.log(hi) - math.log(lo)) / (hi - lo) - 1.0)
    return math.exp(math.log(a) + (1.0 + u) * math.log1p(u) / u - 1.0)


def zeta_closed_forms(m: float, M: float) -> tuple[float, float]:
    """Closed-form gap bounds on [m, M] with 0 < m < 1 < M.

    For log t the maximum sits at t = L(m, M) and equals

        log[(1/e) (M^m / m^M)^{1/(M-m)} L(m, M)];

    for -t log t it sits at t = I(m, M) and equals I(m, M) - 1/L(1/m, 1/M).
    Both agree with the numeric gap bound and are nonnegative.
    """
    m, M = _check_interval(m, M)
    if not m < 1.0 < M:
        raise PreconditionError(f"closed forms require m < 1 < M, got m={m}, M={M}")
    zeta_log = (m * math.log(M) - M * math.log(m)) / (M - m) - 1.0 + math.log(logarithmic_mean(m, M))
    zeta_neg = identric_mean(m, M) - 1.0 / logarithmic_mean(1.0 / m, 1.0 / M)
    return zeta_log, zeta_neg


# The functions whose gap bound `zeta_closed_forms` gives on windows with
# m < 1 < M.
CLOSED_FORM_FUNCTIONS = (LOG.name, NEG_T_LOG_T.name)
