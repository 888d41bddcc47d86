"""Secant data and reverse-Jensen constants: closed forms, else scalar optimization.

For f on [m, M] the chord through (m, f(m)) and (M, f(M)) is
c(t) = mu*t + nu with

    mu = (f(M) - f(m)) / (M - m),    nu = (M f(m) - m f(M)) / (M - m).

Two correction constants turn the Jensen inequality around (the
Mond-Pecaric method):

    ratio bound  gamma = max { f(t) / c(t) : m <= t <= M }   (needs c > 0, f >= 0)
    gap bound    zeta  = max { f(t) - c(t) : m <= t <= M }

For concave f the chord lies below the function, so gamma >= 1 and zeta >= 0
with equality cases at the endpoints.

Closed forms.  For a catalog function (`ScalarFunction.is_catalog`) the table
`_CLOSED_FORMS`, keyed on its spec, gives the argmax, and the constant is f/c
or f - c there:

    power:p, 0 < p < 1   gamma at t = p nu / ((1 - p) mu), so gamma is
                         1/K(m, M, p), the generalized Kantorovich constant;
                         zeta at t = (mu/p)^{1/(p-1)}, where f'(t) = mu
    log                  zeta at the logarithmic mean L(m, M)
    neg_t_log_t          zeta at the identric mean I(m, M)

(Furuta, Micic Hot, Pecaric and Seo, Mond-Pecaric Method in Operator
Inequalities, 2005, ch. 2.)  Every other constant comes from one grid search,
`_maximize`: custom f, the linear entries (identity, affine, const, power:0,
power:1) and gamma of log and -t log t.  It scans a 4096-point grid, then
golden-section search refines the best bracket until it is 1e-12 (M - m) wide
or its probes stop falling strictly inside it (a window a few ulps wide).  The
chord is linear and equals f at both ends, so the ratio bound reads its sign
off f(m) and f(M) and leaves an end where it vanishes out of the search.  The
ratio bound evaluates f on the grid once, for its nonnegativity check and
its search; a catalog f whose declared nonnegative interval covers [m, M]
skips the check.  The gap bound is cross-checked against f'(t) = mu when f
has a derivative.  Each call checks the window and computes the chord once.
A window too narrow for double precision to resolve the chord (its rounding
unit eps * max(1, |f(m)|, |f(M)|) * M / (M - m) above 1e-8, see `_chord`)
raises UnresolvableWindowError, a PreconditionError, instead of answering
with rounding noise.  The grid search is the oracle the closed forms are
tested against (`grid_values`).

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
    "secant_coeffs",
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
# (8.8e-4 against about 1e-28) are rounding noise.
_RESOLUTION_LIMIT = 1e-8


def _chord(f: ScalarFunction, m: float, M: float) -> _Chord:
    """The chord of f on the checked window [m, M]; UnresolvableWindowError
    when its rounding unit exceeds `_RESOLUTION_LIMIT`."""
    m, M = _check_interval(m, M)
    fm, fM = f.evaluate(m), f.evaluate(M)
    unit = _EPS * max(1.0, abs(fm), abs(fM)) * M / (M - m)
    if unit > _RESOLUTION_LIMIT:
        raise UnresolvableWindowError(
            f"[{m!r}, {M!r}] is too narrow to resolve the chord of {f.name}: "
            f"its rounding unit is {unit:.3e}, above {_RESOLUTION_LIMIT:g}"
        )
    return m, M, fm, fM, (fM - fm) / (M - m), (M * fm - m * fM) / (M - m)


def secant_coeffs(f: ScalarFunction, m: float, M: float) -> tuple[float, float]:
    """(mu, nu) of the chord; c(m) = f(m) and c(M) = f(M) by construction."""
    return _chord(f, m, M)[4:]


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


def _ratio_bound(f: ScalarFunction, chord: _Chord) -> tuple[float, float]:
    m, M, fm, fM, mu, nu = chord
    if min(fm, fM) < -1e-12 * max(1.0, abs(fm), abs(fM)):
        raise UndefinedRatioError(
            f"chord mu*t + nu reaches {min(fm, fM):.6e} on [{m}, {M}]; ratio bound undefined"
        )
    # f is evaluated on the grid once, for the nonnegativity check and the
    # search; a catalog f's declared nonnegative interval covering [m, M] is
    # a fact and needs no check.
    ts = _grid(m, M)
    fs = f.evaluate_array(ts)
    declared = f.nonnegative_on
    trusted = f.is_catalog and declared is not None and declared[0] <= m and M <= declared[1]
    if not trusted and not _nonnegative(fs):
        raise PreconditionError(f"{f.name} is negative somewhere on [{m}, {M}]")
    # With f >= 0 the chord vanishes only at an end where f does.  The search
    # leaves such an end out (0/0 there is all cancellation noise); the end
    # adds the ratio's limit f'(t)/mu, which may be the unattained supremum.
    left_zero, right_zero = fm <= 0.0, fM <= 0.0
    if left_zero and right_zero:
        raise UndefinedRatioError(f"chord vanishes identically on [{m}, {M}]")
    with np.errstate(divide="ignore", invalid="ignore"):
        t_best, v_best = _maximize(
            lambda t: f.fn(t) / (mu * t + nu), ts, fs / (mu * ts + nu),
            int(left_zero), GRID_POINTS - 1 - int(right_zero),
        )
    if f.deriv is not None and mu != 0.0:
        for endpoint, is_zero in ((m, left_zero), (M, right_zero)):
            if is_zero:
                limit = f.derivative(endpoint) / mu
                if limit > v_best:
                    t_best, v_best = endpoint, limit
    return t_best, v_best


def chord_ratio_bound(f: ScalarFunction, m: float, M: float) -> float:
    """max f/chord on [m, M]; >= 1 for concave f, = 1 at the endpoints."""
    return _ratio(f, _chord(f, m, M))[1]


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
    if f.deriv is None:
        return t_grid, v_grid
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
    return _gap(f, _chord(f, m, M))[1]


def _power_forms(arg: str):
    p = float(arg)
    if not 0.0 < p < 1.0:
        return None, None
    return (
        # d/dt t^p / (mu t + nu) = 0  <=>  p (mu t + nu) = mu t
        lambda m, M, mu, nu: p * nu / ((1.0 - p) * mu),
        lambda m, M, mu, nu: (mu / p) ** (1.0 / (p - 1.0)),
    )


# Catalog spec head -> (spec parameter -> (argmax of f/chord, argmax of
# f - chord)), each argmax a function of (m, M, mu, nu); None leaves that
# constant to the grid search.
_CLOSED_FORMS = {
    "power": _power_forms,
    "log": lambda _: (None, lambda m, M, mu, nu: logarithmic_mean(m, M)),
    "neg_t_log_t": lambda _: (None, lambda m, M, mu, nu: identric_mean(m, M)),
}
_RATIO, _GAP = 0, 1


def _argmax_rule(f: ScalarFunction, which: int):
    if not f.is_catalog:
        return None
    head, _, arg = f.spec.partition(":")
    forms = _CLOSED_FORMS.get(head)
    return forms(arg)[which] if forms else None


def _closed_form(f: ScalarFunction, which: int, chord: _Chord):
    """(argmax, value) of f/chord or f - chord from the closed-form table, or
    None where the grid search decides."""
    rule = _argmax_rule(f, which)
    if rule is None:
        return None
    m, M, _, _, mu, nu = chord
    try:
        t = min(max(rule(m, M, mu, nu), m), M)
    except ArithmeticError:  # mu == 0: a window a few ulps wide
        return None
    ft, ct = f.evaluate(t), mu * t + nu
    value, floor = (ft / ct, 1.0) if which == _RATIO else (ft - ct, 0.0)
    # The endpoints give exactly 1 and 0; only rounding lands below them.
    return (t, value) if value >= floor else (m, floor)


def _ratio(f: ScalarFunction, chord: _Chord) -> tuple[float, float]:
    return _closed_form(f, _RATIO, chord) or _ratio_bound(f, chord)


def _gap(f: ScalarFunction, chord: _Chord) -> tuple[float, float]:
    return _closed_form(f, _GAP, chord) or _gap_bound(f, chord)


def secant_data(f: ScalarFunction, m: float, M: float) -> SecantData:
    """Full chord data; the ratio bound is reported as None where undefined."""
    chord = _chord(f, m, M)
    try:
        argmax_gamma, gamma = _ratio(f, chord)
    except (UndefinedRatioError, PreconditionError):
        argmax_gamma, gamma = None, None
    argmax_zeta, zeta = _gap(f, chord)
    m, M, _, _, mu, nu = chord
    return SecantData(
        m=m, M=M, mu=mu, nu=nu,
        gamma=gamma, zeta=zeta,
        argmax_gamma=argmax_gamma, argmax_zeta=argmax_zeta,
    )


def grid_values(f: ScalarFunction, m: float, M: float) -> dict[str, float]:
    """The grid search's value of each constant that `secant_data` takes from
    a closed form for f ("gamma", "zeta"): an independent cross-check."""
    chord = _chord(f, m, M)
    searches = {"gamma": (_RATIO, _ratio_bound), "zeta": (_GAP, _gap_bound)}
    return {name: search(f, chord)[1] for name, (which, search) in searches.items()
            if _argmax_rule(f, which) is not None}


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
    return a * u / math.log1p(u)


def identric_mean(a: float, b: float) -> float:
    """I(a, b) = (1/e) (b^b / a^a)^{1/(b-a)}, continuous on the diagonal.

    Uses log I = log a + (1 + u) log1p(u)/u - 1 with u = (b - a)/a, which is
    cancellation-free near the diagonal.
    """
    a, b = float(a), float(b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"identric mean needs positive arguments, got {a}, {b}")
    if abs(a - b) <= 1e-12 * max(a, b):
        return 0.5 * (a + b)
    u = (b - a) / a
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
