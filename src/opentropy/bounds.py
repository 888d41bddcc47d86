"""Secant data and reverse-Jensen constants via scalar optimization.

For f on [m, M] the chord through (m, f(m)) and (M, f(M)) is
c(t) = mu*t + nu with

    mu = (f(M) - f(m)) / (M - m),    nu = (M f(m) - m f(M)) / (M - m).

Two correction constants turn the Jensen inequality around:

    ratio bound  gamma = max { f(t) / c(t) : m <= t <= M }   (needs c > 0, f >= 0)
    gap bound    zeta  = max { f(t) - c(t) : m <= t <= M }

For concave f the chord lies below the function, so gamma >= 1 and zeta >= 0
with equality cases at the endpoints.  Maxima are located on a 4096-point
grid and refined by golden-section search; when a derivative is available the
gap bound is cross-checked against the stationarity equation f'(t) = mu.

Also here: the logarithmic and identric means, and the closed forms that the
gap bound takes for log t and -t log t on intervals with m < 1 < M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, PreconditionError, UndefinedRatioError
from .functions import GRID_POINTS, LOG, NEG_T_LOG_T, ScalarFunction, check_nonnegative_on
from .matcore import _JsonRecord

__all__ = [
    "SecantData",
    "secant_coeffs",
    "chord_ratio_bound",
    "chord_gap_bound",
    "secant_data",
    "logarithmic_mean",
    "identric_mean",
    "zeta_closed_forms",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def secant_coeffs(f: ScalarFunction, m: float, M: float) -> tuple[float, float]:
    """(mu, nu) of the chord; c(m) = f(m) and c(M) = f(M) by construction."""
    m, M = _check_interval(m, M)
    fm, fM = f.evaluate(m), f.evaluate(M)
    return (fM - fm) / (M - m), (M * fm - m * fM) / (M - m)


def _golden_max(obj, a: float, b: float, width: float) -> tuple[float, float]:
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = float(obj(c)), float(obj(d))
    while (b - a) > width:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = float(obj(d))
        else:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = float(obj(c))
    return (c, fc) if fc >= fd else (d, fd)


def _maximize(obj, m: float, M: float) -> tuple[float, float]:
    """Grid scan, then golden-section refinement of the best bracket."""
    ts = np.linspace(m, M, GRID_POINTS)
    vs = np.asarray(obj(ts), dtype=float)
    i = int(np.argmax(vs))
    t_best, v_best = float(ts[i]), float(vs[i])
    lo = float(ts[max(i - 1, 0)])
    hi = float(ts[min(i + 1, GRID_POINTS - 1)])
    t_ref, v_ref = _golden_max(obj, lo, hi, 1e-12 * (M - m))
    if v_ref > v_best:
        t_best, v_best = t_ref, v_ref
    return t_best, v_best


def _ratio_bound(f: ScalarFunction, m: float, M: float) -> tuple[float, float]:
    m, M = _check_interval(m, M)
    mu, nu = secant_coeffs(f, m, M)
    ts = np.linspace(m, M, GRID_POINTS)
    chord = mu * ts + nu
    scale = max(1.0, abs(f.evaluate(m)), abs(f.evaluate(M)))
    if float(chord.min()) < -1e-12 * scale:
        raise UndefinedRatioError(
            f"chord mu*t + nu reaches {float(chord.min()):.6e} on [{m}, {M}]; ratio bound undefined"
        )
    if not check_nonnegative_on(f, m, M):
        raise PreconditionError(f"{f.name} is negative somewhere on [{m}, {M}]")
    # With f >= 0 the chord (which interpolates f at the endpoints) can only
    # vanish at an endpoint where f itself vanishes; there the ratio extends
    # continuously to f'(t)/mu, which may be the (non-attained) supremum.
    left_zero = float(chord[0]) <= 0.0
    right_zero = float(chord[-1]) <= 0.0
    if left_zero and right_zero:
        raise UndefinedRatioError(f"chord vanishes identically on [{m}, {M}]")
    # The numeric search stays one grid cell away from a vanishing endpoint
    # (the 0/0 division there is all cancellation noise); the endpoint itself
    # contributes its analytic limit below.
    lo_idx = 1 if left_zero else 0
    hi_idx = GRID_POINTS - 2 if right_zero else GRID_POINTS - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(f.fn(ts), dtype=float) / chord
    i = lo_idx + int(np.argmax(vals[lo_idx : hi_idx + 1]))
    t_best, v_best = float(ts[i]), float(vals[i])
    lo = float(ts[max(i - 1, lo_idx)])
    hi = float(ts[min(i + 1, hi_idx)])
    if hi > lo:
        t_ref, v_ref = _golden_max(lambda t: f.fn(t) / (mu * t + nu), lo, hi, 1e-12 * (M - m))
        if v_ref > v_best:
            t_best, v_best = t_ref, v_ref
    if f.deriv is not None and mu != 0.0:
        for endpoint, is_zero in ((m, left_zero), (M, right_zero)):
            if is_zero:
                limit = f.derivative(endpoint) / mu
                if limit > v_best:
                    t_best, v_best = endpoint, limit
    return t_best, v_best


def chord_ratio_bound(f: ScalarFunction, m: float, M: float) -> float:
    """max f/chord on [m, M]; >= 1 for concave f, = 1 at the endpoints."""
    return _ratio_bound(f, m, M)[1]


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


def _gap_bound(f: ScalarFunction, m: float, M: float) -> tuple[float, float]:
    m, M = _check_interval(m, M)
    mu, nu = secant_coeffs(f, m, M)
    obj = lambda t: f.fn(t) - (mu * t + nu)
    t_grid, v_grid = _maximize(obj, m, M)
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
    return _gap_bound(f, m, M)[1]


def secant_data(f: ScalarFunction, m: float, M: float) -> SecantData:
    """Full chord data; the ratio bound is reported as None where undefined."""
    m, M = _check_interval(m, M)
    mu, nu = secant_coeffs(f, m, M)
    try:
        argmax_gamma, gamma = _ratio_bound(f, m, M)
    except (UndefinedRatioError, PreconditionError):
        argmax_gamma, gamma = None, None
    argmax_zeta, zeta = _gap_bound(f, m, M)
    return SecantData(
        m=m, M=M, mu=mu, nu=nu,
        gamma=gamma, zeta=zeta,
        argmax_gamma=argmax_gamma, argmax_zeta=argmax_zeta,
    )


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


# Functions whose gap bound has a closed form cross-checked by the CLI.
CLOSED_FORM_FUNCTIONS = (LOG.name, NEG_T_LOG_T.name)
