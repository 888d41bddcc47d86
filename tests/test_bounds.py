import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from opentropy import (
    ConsistencyError,
    DomainError,
    PreconditionError,
    UndefinedRatioError,
    UnresolvableWindowError,
    chord_gap_bound,
    chord_ratio_bound,
    identric_mean,
    logarithmic_mean,
    secant_data,
    zeta_closed_forms,
)
from opentropy import bounds
from opentropy.bounds import _chord, _gap_bound, _lambert_w0, _ratio_bound, grid_values
from opentropy.functions import GRID_POINTS, IDENTITY, LOG, NEG_T_LOG_T, constant, parse, power

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WINDOW_KINDS, SweepWorkload, draw_spec, draw_window  # noqa: E402


def dense_scan_max(obj, m, M, n=1_000_000):
    ts = np.linspace(m, M, n)
    return float(np.max(obj(ts)))


class TestSecantCoeffs:
    def test_identity_chord(self):
        assert _chord(IDENTITY, 1.0, 2.0)[4:] == (1.0, 0.0)

    def test_log_chord(self):
        mu, nu = _chord(LOG, 1.0, math.e)[4:]
        assert abs(mu - 1.0 / (math.e - 1.0)) <= 1e-15
        assert abs(nu + 1.0 / (math.e - 1.0)) <= 1e-15

    def test_sqrt_chord(self):
        mu, nu = _chord(power(0.5), 1.0, 4.0)[4:]
        assert abs(mu - 1.0 / 3.0) <= 1e-15
        assert abs(nu - 2.0 / 3.0) <= 1e-15

    def test_interpolates_endpoints(self):
        for f, m, M in [(LOG, 1.0, 7.3), (power(0.25), 0.2, 9.0), (NEG_T_LOG_T, 0.3, 2.0)]:
            mu, nu = _chord(f, m, M)[4:]
            assert abs(mu * m + nu - f(m)) <= 1e-12 * max(1.0, abs(f(m)))
            assert abs(mu * M + nu - f(M)) <= 1e-12 * max(1.0, abs(f(M)))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(PreconditionError):
            _chord(LOG, 2.0, 1.0)
        with pytest.raises(PreconditionError):
            _chord(LOG, 2.0, 2.0)


class TestRatioBound:
    def test_identity_is_one(self):
        assert abs(chord_ratio_bound(IDENTITY, 0.5, 7.0) - 1.0) <= 1e-12
        assert abs(chord_ratio_bound(constant(2.0), 0.5, 7.0) - 1.0) <= 1e-12

    def test_sqrt_on_1_4(self):
        t, v = _ratio_bound(power(0.5), _chord(power(0.5), 1.0, 4.0))
        assert abs(v - 3.0 * math.sqrt(2.0) / 4.0) <= 1e-10
        assert abs(t - 2.0) <= 1e-5

    def test_log_against_dense_scan(self):
        # Non-degenerate interval: the maximum is attained, so a brute-force
        # scan and the grid+refinement optimizer agree tightly.
        m, M = 1.1, math.e ** 2
        mu, nu = _chord(LOG, m, M)[4:]
        scanned = dense_scan_max(lambda t: np.log(t) / (mu * t + nu), m, M)
        assert abs(chord_ratio_bound(LOG, m, M) - scanned) <= 1e-8

    def test_log_from_one_hits_endpoint_limit(self):
        # On [1, M] the chord vanishes at t = 1 together with log, and the
        # ratio climbs to the limit value (M - 1)/log M there.
        M = math.e ** 2
        assert abs(chord_ratio_bound(LOG, 1.0, M) - (M - 1.0) / math.log(M)) <= 1e-10

    def test_neg_t_log_t_to_one_hits_endpoint_limit(self):
        # The mirror: on [m, 1] the chord vanishes at t = 1 together with
        # -t log t, and the ratio climbs to the limit f'(1)/mu, which is
        # (1 - m)/(-m log m), there.
        m = math.exp(-2.0)
        assert abs(chord_ratio_bound(NEG_T_LOG_T, m, 1.0) - (1.0 - m) / (-m * math.log(m))) <= 1e-10

    def test_nonpositive_chord_rejected(self):
        with pytest.raises(UndefinedRatioError):
            chord_ratio_bound(LOG, 0.5, 2.0)

    def test_undefined_ratio_reads_f_at_the_ends_only(self):
        # The chord is linear and equals f at m and M: one evaluation of f at
        # each end decides that it goes negative, with no grid.
        sizes = []
        counted = dataclasses.replace(LOG, fn=lambda t: sizes.append(np.size(t)) or np.log(t))
        with pytest.raises(UndefinedRatioError):
            chord_ratio_bound(counted, 0.5, 2.0)
        assert sizes == [1, 1]

    def test_negative_f_rejected(self):
        # A dip below 0 inside the window, under log's entry, whose
        # nonnegative interval [1, inf) does not cover [0.5, 1.5].  The grid
        # search is called directly: chord_ratio_bound takes log's closed form.
        dip = dataclasses.replace(LOG, fn=lambda t: (t - 1.0) ** 4 - 0.05)
        with pytest.raises(PreconditionError):
            _ratio_bound(dip, _chord(dip, 0.5, 1.5))

    @pytest.mark.parametrize("f", [LOG, dataclasses.replace(NEG_T_LOG_T, fn=np.log)], ids=["catalog", "custom"])
    def test_grid_is_evaluated_once(self, f):
        # The nonnegativity check and the search share one evaluation of f on
        # the grid (an f whose nonnegative interval covers the window needs no
        # check at all: log's [1, inf) does, and -t log t's (0, 1), which the
        # second case wraps around log, does not), and the value does not change.
        # The grid search is called directly: both specs have closed forms.
        sizes = []
        counted = dataclasses.replace(f, fn=lambda t: sizes.append(np.size(t)) or np.log(t))
        assert _ratio_bound(counted, _chord(counted, 1.5, 4.0)) == _ratio_bound(f, _chord(f, 1.5, 4.0))
        assert sizes.count(GRID_POINTS) == 1

    def test_catalog_declaration_not_covering_the_window_is_checked(self):
        # log's entry, whose nonnegative interval [1, inf) does not cover
        # [0.9, 3], wrapped around a dip: f is positive at both ends, and the
        # grid check finds the dip below 0 near t = 1.  The grid search is
        # called directly: chord_ratio_bound takes log's closed form.
        dip = dataclasses.replace(LOG, fn=lambda t: np.log(t) + 0.2 - 0.3 * np.exp(-(((t - 1.0) / 0.05) ** 2)))
        with pytest.raises(PreconditionError, match="negative"):
            _ratio_bound(dip, _chord(dip, 0.9, 3.0))

    def test_at_least_one_for_concave(self):
        for f, m, M in [(power(0.5), 0.3, 5.0), (power(0.25), 1.0, 9.0)]:
            assert chord_ratio_bound(f, m, M) >= 1.0 - 1e-12


class TestGapBound:
    def test_identity_is_zero(self):
        assert abs(chord_gap_bound(IDENTITY, 1.0, 5.0)) <= 1e-12

    def test_sqrt_on_1_4(self):
        t, v = _gap_bound(power(0.5), _chord(power(0.5), 1.0, 4.0))
        assert abs(v - 1.0 / 12.0) <= 1e-10
        assert abs(t - 9.0 / 4.0) <= 1e-9

    def test_log_matches_closed_form(self):
        for m, M in [(0.5, 2.0), (0.1, 9.0), (0.9, 1.1)]:
            zeta_log, _ = zeta_closed_forms(m, M)
            assert abs(chord_gap_bound(LOG, m, M) - zeta_log) <= 1e-10

    def test_neg_t_log_t_matches_closed_form(self):
        for m, M in [(0.5, 2.0), (0.2, 4.0)]:
            _, zeta_neg = zeta_closed_forms(m, M)
            assert abs(chord_gap_bound(NEG_T_LOG_T, m, M) - zeta_neg) <= 1e-10

    def test_against_dense_scan(self):
        for f, m, M in [(LOG, 0.3, 6.0), (power(0.5), 0.5, 8.0), (NEG_T_LOG_T, 0.4, 3.0)]:
            mu, nu = _chord(f, m, M)[4:]
            scanned = dense_scan_max(lambda t: f.fn(t) - (mu * t + nu), m, M)
            assert abs(chord_gap_bound(f, m, M) - scanned) <= 1e-8

    def test_nonnegative_always(self):
        for f, m, M in [(IDENTITY, 1.0, 2.0), (LOG, 0.5, 4.0), (power(0.7), 0.2, 2.0)]:
            assert chord_gap_bound(f, m, M) >= -1e-12

    def test_stationarity_cross_check_disagreement_raises(self):
        # A derivative that lies about the function sends the stationarity
        # route far from the grid optimum.
        liar = dataclasses.replace(LOG, deriv=lambda t: 1.0 / t + 0.3)
        with pytest.raises(ConsistencyError):
            _gap_bound(liar, _chord(liar, 0.5, 4.0))


class TestScalarSandwich:
    # The defining maxima are attained, never exceeded, on the whole grid.
    @pytest.mark.parametrize("f,m,M", [(power(0.5), 0.5, 4.0), (power(0.25), 1.0, 9.0)])
    def test_ratio_and_gap_dominate_f(self, f, m, M):
        mu, nu = _chord(f, m, M)[4:]
        gamma = chord_ratio_bound(f, m, M)
        zeta = chord_gap_bound(f, m, M)
        ts = np.linspace(m, M, 4096)
        vals = f.evaluate_array(ts)
        chord = mu * ts + nu
        assert np.all(vals <= gamma * chord + 1e-10)
        assert np.all(vals <= chord + zeta + 1e-10)

    @pytest.mark.parametrize("f,m,M", [(LOG, 0.5, 4.0), (NEG_T_LOG_T, 0.3, 2.0), (power(0.5), 0.5, 4.0)])
    def test_chord_below_concave_function(self, f, m, M):
        mu, nu = _chord(f, m, M)[4:]
        ts = np.linspace(m, M, 4096)
        assert np.all(f.evaluate_array(ts) >= mu * ts + nu - 1e-10)


class TestMeans:
    def test_diagonal_values(self):
        assert logarithmic_mean(1.0, 1.0) == 1.0
        assert identric_mean(1.0, 1.0) == 1.0

    def test_known_values(self):
        assert abs(logarithmic_mean(1.0, math.e) - (math.e - 1.0)) <= 1e-14
        expected = (1.0 / math.e) * (math.e ** math.e) ** (1.0 / (math.e - 1.0))
        assert abs(identric_mean(1.0, math.e) - expected) <= 1e-13

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            logarithmic_mean(0.0, 1.0)
        with pytest.raises(DomainError):
            identric_mean(1.0, -2.0)

    def test_mean_chain(self, rng):
        # geometric <= logarithmic <= identric <= arithmetic, and both sit
        # between min and max.
        for _ in range(1000):
            a, b = rng.uniform(0.05, 20.0, size=2)
            lm, im = logarithmic_mean(a, b), identric_mean(a, b)
            assert min(a, b) - 1e-12 <= lm <= max(a, b) + 1e-12
            assert min(a, b) - 1e-12 <= im <= max(a, b) + 1e-12
            assert math.sqrt(a * b) <= lm + 1e-12
            assert lm <= im + 1e-12
            assert im <= (a + b) / 2.0 + 1e-12

    @pytest.mark.parametrize("b", [1e-17, 1e-300])
    def test_ratio_below_the_rounding_unit(self, b):
        # u = (b - a)/a rounds to -1 there, and log1p(-1) raised "math domain error".
        assert logarithmic_mean(1.0, b) == pytest.approx(logarithmic_mean(b, 1.0), rel=1e-14)
        assert logarithmic_mean(1.0, b) == (b - 1.0) / math.log(b)

    def test_near_diagonal_continuity(self):
        a = 3.0
        for eps in (1e-13, 1e-10, 1e-8):
            assert abs(logarithmic_mean(a, a * (1 + eps)) - a) <= 1e-6
            assert abs(identric_mean(a, a * (1 + eps)) - a) <= 1e-6

    @pytest.mark.parametrize("b", [1e-17, 1e-300])
    def test_identric_ratio_below_the_rounding_unit(self, b):
        # u rounds to -1 there too; I(1, b) tends to 1/e as b/a does to 0.
        assert identric_mean(1.0, b) == pytest.approx(identric_mean(b, 1.0), rel=1e-14)
        assert identric_mean(1.0, b) == pytest.approx(1.0 / math.e, rel=1e-14)

    @pytest.mark.parametrize("a,b", [(1e-200, 1e200), (1e-300, 1e300), (1e-10, 1e300), (1e-6, 1e300)])
    def test_ratio_beyond_the_double_range(self, a, b):
        # u = (b - a)/a overflows (or (1 + u) log1p(u) does), where both means
        # were NaN or inf: L = (b - a)/(log b - log a), and I = b/e to rounding.
        assert logarithmic_mean(a, b) == pytest.approx((b - a) / (math.log(b) - math.log(a)), rel=1e-14)
        assert logarithmic_mean(a, b) == pytest.approx(logarithmic_mean(b, a), rel=1e-14)
        assert identric_mean(a, b) == pytest.approx(b / math.e, rel=1e-14)
        assert identric_mean(a, b) == pytest.approx(identric_mean(b, a), rel=1e-14)


class TestZetaClosedForms:
    def test_hypothesis_gate(self):
        with pytest.raises(PreconditionError):
            zeta_closed_forms(1.5, 2.0)
        with pytest.raises(PreconditionError):
            zeta_closed_forms(0.5, 0.9)

    def test_matches_optimizer(self, rng):
        for _ in range(25):
            m = float(rng.uniform(0.05, 0.95))
            M = float(rng.uniform(1.05, 10.0))
            zeta_log, zeta_neg = zeta_closed_forms(m, M)
            assert zeta_log >= -1e-12 and zeta_neg >= -1e-12
            assert abs(zeta_log - chord_gap_bound(LOG, m, M)) <= 1e-8
            assert abs(zeta_neg - chord_gap_bound(NEG_T_LOG_T, m, M)) <= 1e-8

    def test_degenerate_interval_limit(self):
        zeta_log, zeta_neg = zeta_closed_forms(1.0 - 1e-6, 1.0 + 1e-6)
        assert 0.0 <= zeta_log <= 1e-9
        assert 0.0 <= zeta_neg <= 1e-9


def _exact_zeta(spec: str, m: float, M: float):
    """zeta of f on the window [m, M] of doubles, to 50 digits (mpmath): f
    minus its chord at the stationary point f'(t) = mu, clamped to [m, M]."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(m), mpmath.mpf(M)
        f = {"log": mpmath.log, "neg_t_log_t": lambda t: -t * mpmath.log(t), "power:0.5": mpmath.sqrt}[spec]
        mu, nu = (f(hi) - f(lo)) / (hi - lo), (hi * f(lo) - lo * f(hi)) / (hi - lo)
        if spec == "log":
            t = 1 / mu
        elif spec == "neg_t_log_t":
            t = mpmath.exp(-1 - mu)
        else:
            t = 0.25 / mu ** 2
        t = min(max(t, lo), hi)
        return f(t) - (mu * t + nu)


# Windows whose ratio M/m overflows the double range, where log's zeta read a
# silent 0.0 (the logarithmic mean was NaN).
_FAR_WINDOWS = [(1e-200, 1e200), (1e-300, 1e300), (1e-10, 1e300)]


class TestClosedFormsAtTheEndsOfTheDoubleRange:
    @pytest.mark.parametrize("m,M", _FAR_WINDOWS)
    def test_log_zeta_where_the_ratio_overflows(self, m, M):
        data = secant_data(LOG, m, M)
        assert data.zeta > 0.0 and m < data.argmax_zeta < M
        assert data.zeta == pytest.approx(_gap_bound(LOG, _chord(LOG, m, M))[1], rel=1e-12)
        if (m, M) == (1e-200, 1e200):
            assert data.zeta == pytest.approx(913.20854020526234, rel=1e-12)

    def test_bounds_cli_prints_no_nan(self, capsys):
        from opentropy import cli

        assert cli.main(["bounds", "--f", "log", "--m", "1e-200", "--M", "1e200"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert "NaN" not in out and payload["zeta"] == pytest.approx(913.20854020526234, rel=1e-12)
        assert payload["zeta_closed_form_delta"] == 0.0

    @pytest.mark.parametrize(
        "spec,m,M",
        [("log", 1e-300, 10.0), *(("log", m, M) for m, M in _FAR_WINDOWS),
         ("neg_t_log_t", 1e-300, 10.0), ("power:0.5", 1e-300, 10.0)],
    )
    def test_closed_form_zeta_against_mpmath(self, spec, m, M):
        exact = _exact_zeta(spec, m, M)
        assert abs(secant_data(parse(spec), m, M).zeta - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("spec", ["neg_t_log_t", "power:0.5"])
    @pytest.mark.parametrize("m,M", _FAR_WINDOWS)
    def test_unresolved_far_windows_are_refused(self, spec, m, M):
        # f(M) is 1e100 or more there: the chord's rounding unit is far above
        # the resolution limit, so the kernel refuses rather than guesses, and
        # says why, with a finite unit.
        with pytest.raises(UnresolvableWindowError, match=r"is too large on .*: its rounding unit is \d\.\d{3}e\+\d+,"):
            secant_data(parse(spec), m, M)


class TestClosedFormsAgainstTheGrid:
    # The grid search (_ratio_bound, _gap_bound) is the oracle: on the
    # benchmark's windows, straddling 1 or not, narrow or wide, each closed
    # form matches it, lies in [m, M] and is never below it beyond rounding.
    # gamma of log and -t log t is defined on about a quarter of the windows
    # (m >= 1 for log, M <= 1 for -t log t); elsewhere the grid search
    # raises, and grid_values leaves gamma out.
    @pytest.mark.parametrize("slot", ["power", "log", "neg_t_log_t"])
    def test_thousand_windows(self, slot):
        rng = np.random.default_rng(606)
        gammas = 0
        for i in range(1000):
            m, M = draw_window(rng, WINDOW_KINDS[i % len(WINDOW_KINDS)])
            f = parse(draw_spec(rng, slot))
            data = secant_data(f, m, M)
            zeta_tol = 1e-12 * max(1.0, abs(f(m)), abs(f(M)))
            zeta_grid = _gap_bound(f, _chord(f, m, M))[1]
            assert abs(data.zeta - zeta_grid) <= zeta_tol
            assert data.zeta >= zeta_grid - zeta_tol
            assert m <= data.argmax_zeta <= M
            if data.gamma is None:
                assert data.argmax_gamma is None
                with pytest.raises(UndefinedRatioError):
                    _ratio_bound(f, _chord(f, m, M))
            else:
                gammas += 1
                gamma_grid = _ratio_bound(f, _chord(f, m, M))[1]
                assert abs(data.gamma - gamma_grid) <= 1e-12 * gamma_grid
                assert data.gamma >= gamma_grid * (1.0 - 1e-12)
                assert m <= data.argmax_gamma <= M
            assert set(grid_values(f, m, M)) == ({"zeta"} if data.gamma is None else {"gamma", "zeta"})
        assert gammas == {"power": 1000, "log": 235, "neg_t_log_t": 265}[slot]

    def test_linear_and_custom_functions_have_none(self):
        for f in (IDENTITY, constant(2.0), parse("affine:1,2"), power(0.0), power(1.0)):
            assert grid_values(f, 0.5, 2.0) == {}

    def test_power_gamma_is_the_inverse_kantorovich_constant(self):
        # K(m, M, p) = (m M^p - M m^p) / ((p - 1)(M - m))
        #              * ((p - 1)/p * (M^p - m^p) / (m M^p - M m^p))^p
        for p, m, M in [(0.5, 1.0, 4.0), (0.25, 0.1, 9.0), (0.9, 0.5, 1.5)]:
            h = (m * M ** p - M * m ** p)
            kantorovich = h / ((p - 1.0) * (M - m)) * ((p - 1.0) / p * (M ** p - m ** p) / h) ** p
            assert abs(chord_ratio_bound(power(p), m, M) - 1.0 / kantorovich) <= 1e-12


class TestLambertW0:
    # W0's condition number |x W0'(x) / W0(x)| is 1 / (1 + W0(x)), which
    # grows without bound at the branch point x = -1/e.
    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        eps = sys.float_info.epsilon
        branch = -1.0 / math.e
        xs = [math.nextafter(branch, 0.0), 0.0]
        xs += [branch + d for d in (1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)]
        xs += list(np.linspace(-0.36, 0.0, 50)) + list(np.logspace(-300, 6, 200))
        with mpmath.workdps(50):
            for x in map(float, xs):
                assert mpmath.mpf(x) > -1 / mpmath.e
                exact = mpmath.lambertw(mpmath.mpf(x)).real
                tol = 4.0 * eps * max(1.0, 1.0 / float(1 + exact)) * abs(exact)
                assert abs(mpmath.mpf(_lambert_w0(x)) - exact) <= tol, x

    def test_branch_point(self):
        # -1/e rounds below the branch point, where W0 is -1.
        assert _lambert_w0(-1.0 / math.e) == -1.0
        assert _lambert_w0(-0.5) == -1.0
        assert _lambert_w0(0.0) == 0.0
        assert _lambert_w0(math.e) == pytest.approx(1.0, rel=4 * sys.float_info.epsilon)


class TestNarrowWindows:
    # Relative width below about 2e-4 puts the golden search's stop width,
    # 1e-12 (M - m), under one ulp of t: a search that waits only for that
    # width never ends here.
    @pytest.mark.usefixtures("deadline")
    @pytest.mark.parametrize("f,m,M", [(LOG, 1.0, 1.0001), (NEG_T_LOG_T, 0.5, 0.5001)])
    def test_secant_data_returns(self, f, m, M):
        data = secant_data(f, m, M)
        assert 1.0 <= data.gamma <= 1.0 + 1e-4 and 0.0 <= data.zeta <= 1e-8

    @pytest.mark.usefixtures("deadline")
    def test_grid_values_returns(self):
        assert abs(grid_values(LOG, 1.0, 1.0001)["zeta"] - secant_data(LOG, 1.0, 1.0001).zeta) <= 1e-15


class TestUnresolvableWindows:
    # Chord rounding unit eps * max(1, |f(m)|, |f(M)|) * M / (M - m) of each
    # window, and what the constants read without the check: gamma 0.549,
    # gamma nan, gamma 0.99983 < 1 for a concave f, zeta 8.8e-4 for an exact
    # value of about 1e-28.
    @pytest.mark.parametrize("f,m,M,unit", [
        (LOG, 3.0, 3.0000000000000004, 1.65),
        (LOG, 1.0, 1.0000000000000002, 1.0),
        (LOG, 3.0, 3.0 + 1e-12, 7.3e-4),
        (power(0.5), 2.0, 2.0 + 1e-13, 6.3e-3),
    ])
    def test_reported_as_unresolvable(self, f, m, M, unit):
        measured = sys.float_info.epsilon * max(1.0, abs(f(m)), abs(f(M))) * M / (M - m)
        assert measured == pytest.approx(unit, rel=0.02)
        for constant in (secant_data, chord_ratio_bound, chord_gap_bound, _chord, grid_values):
            with pytest.raises(UnresolvableWindowError, match="too narrow"):
                constant(f, m, M)

    def test_is_a_precondition_error(self):
        with pytest.raises(PreconditionError):
            secant_data(LOG, 1.0, 1.0000000000000002)

    def test_narrow_window_within_the_limit_is_answered(self):
        # Unit 2.2e-10, under the 1e-8 limit.
        data = secant_data(LOG, 1.0, 1.0 + 1e-6)
        assert 1.0 <= data.gamma <= 1.0 + 1e-6 and 0.0 <= data.zeta <= 1e-12


class TestSecantData:
    def test_closed_form_windows_take_no_search(self, monkeypatch):
        # Every power, log and -t log t window of the benchmark's sweep
        # (seed 0, block 0) takes its constants from closed forms.
        def no_search(*args):
            raise AssertionError("grid search reached")

        monkeypatch.setattr(bounds, "_maximize", no_search)
        windows = [(f, m, M) for f, m, M in SweepWorkload(0, 100, 1).windows(0)
                   if f.head in ("power", "log", "neg_t_log_t")]
        assert len(windows) == 70
        for f, m, M in windows:
            secant_data(f, m, M)

    def test_fields_and_argmax_ranges(self):
        data = secant_data(power(0.5), 1.0, 4.0)
        assert data.gamma is not None and 1.0 <= data.argmax_gamma <= 4.0
        assert 1.0 <= data.argmax_zeta <= 4.0
        assert abs(data.mu - 1.0 / 3.0) <= 1e-15

    def test_gamma_none_when_undefined(self):
        data = secant_data(LOG, 0.5, 2.0)
        assert data.gamma is None and data.argmax_gamma is None
        assert data.zeta > 0.0

    def test_json_has_wire_keys(self):
        payload = secant_data(IDENTITY, 1.0, 2.0).to_json()
        assert set(payload) == {"m", "M", "mu", "nu", "gamma", "zeta", "argmax_gamma", "argmax_zeta"}


class TestOneKernel:
    # secant_data, chord_ratio_bound and chord_gap_bound share one kernel.
    def test_public_entries_agree_on_the_sweep(self):
        for block in range(4):
            for f, m, M in SweepWorkload(0, 100, 40).windows(block):
                data = secant_data(f, m, M)
                assert chord_gap_bound(f, m, M) == data.zeta
                if data.gamma is not None:
                    assert chord_ratio_bound(f, m, M) == data.gamma
                    continue
                # The reason names f at the ends, where the chord equals f.
                low = min(f(m), f(M))
                reason = (f"chord mu*t + nu reaches {low:.6e} on [{m}, {M}]; ratio bound undefined"
                          if low < 0.0 else f"chord vanishes identically on [{m}, {M}]")
                with pytest.raises(UndefinedRatioError) as raised:
                    chord_ratio_bound(f, m, M)
                assert str(raised.value) == reason

    # (f calls, f' calls) of secant_data, chord_ratio_bound and chord_gap_bound:
    # f at both ends, then f at each closed-form argmax, or f' at an end where
    # the chord vanishes; an undefined gamma costs nothing past the ends.
    @pytest.mark.parametrize("spec,m,M,counts", [
        ("log", 1.5, 4.0, [(4, 0), (3, 0), (3, 0)]),
        ("log", 0.5, 2.0, [(3, 0), (2, 0), (3, 0)]),
        ("log", 1.0, 3.0, [(3, 1), (2, 1), (3, 0)]),
        ("neg_t_log_t", 0.2, 0.9, [(4, 0), (3, 0), (3, 0)]),
        ("neg_t_log_t", 0.5, 2.0, [(3, 0), (2, 0), (3, 0)]),
        ("neg_t_log_t", 0.25, 1.0, [(3, 1), (2, 1), (3, 0)]),
        ("power:0.5", 0.5, 2.0, [(4, 0), (3, 0), (3, 0)]),
    ], ids=["log-defined", "log-undefined", "log-vanishing-end", "neg_t_log_t-defined",
            "neg_t_log_t-undefined", "neg_t_log_t-vanishing-end", "power-defined"])
    def test_evaluations_per_entry(self, spec, m, M, counts):
        f = parse(spec)
        made = []
        for entry in (secant_data, chord_ratio_bound, chord_gap_bound):
            calls = []
            counted = dataclasses.replace(
                f, fn=lambda t: calls.append("fn") or f.fn(t), deriv=lambda t: calls.append("deriv") or f.deriv(t))
            try:
                entry(counted, m, M)
            except UndefinedRatioError:
                pass
            made.append((calls.count("fn"), calls.count("deriv")))
        assert made == counts

    def test_kernel_built_value_keeps_the_dataclass_contract(self):
        data = secant_data(LOG, 1.5, 4.0)
        fields = [getattr(data, field.name) for field in dataclasses.fields(bounds.SecantData)]
        assert data == bounds.SecantData(*fields) and hash(data) == hash(bounds.SecantData(*fields))
        assert repr(data) == repr(bounds.SecantData(*fields))
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.gamma = 2.0
        assert dataclasses.replace(data, zeta=1.0) == bounds.SecantData(*fields[:5], 1.0, *fields[6:])
        assert list(data.to_json()) == ["m", "M", "mu", "nu", "gamma", "zeta", "argmax_gamma", "argmax_zeta"]

    # f(m) == f(M) in floating point, so mu == 0 and every closed-form rule of
    # power:p divides by it; the grid search, without the closed form's floor,
    # read gamma 0.9999999967 and zeta -3.3e-9 on the first window (`opentropy
    # bounds` exited 0 with them), values a concave f cannot have.
    @pytest.mark.parametrize("spec,m,M", [
        ("power:1e-9", 99.78717826040975, 99.7871818639737),
        ("power:6.02037958099258e-10", 0.04036062765492545, 0.04036062867275069),
        ("power:1.0788667269452913e-12", 0.2921784318286964, 0.29219207548974835),
    ])
    def test_vanishing_slope_floors_at_the_endpoints(self, spec, m, M):
        f = parse(spec)
        data = secant_data(f, m, M)
        assert data.mu == 0.0
        assert (data.argmax_gamma, data.gamma, data.argmax_zeta, data.zeta) == (m, 1.0, m, 0.0)
        assert chord_ratio_bound(f, m, M) == 1.0 and chord_gap_bound(f, m, M) == 0.0
        # The grid search stays the raw oracle.
        assert _ratio_bound(f, _chord(f, m, M))[1] < 1.0 and _gap_bound(f, _chord(f, m, M))[1] < 0.0

    def test_vanishing_slope_window_from_the_cli(self, capsys):
        from opentropy import cli

        code = cli.main(["bounds", "--f", "power:1e-9", "--m", "99.78717826040975", "--M", "99.7871818639737"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and (payload["gamma"], payload["zeta"]) == (1.0, 0.0)

    # One end within 1e-13 of f's root 1: f/chord is a ratio of two small
    # numbers, and mu t + nu cancels near the root, so gamma carries an error
    # near 1e-10 relative, far above the chord's rounding unit (see
    # `_RESOLUTION_LIMIT`).  Measured: +1.8e-10 and -9.3e-11.
    @pytest.mark.parametrize("spec,m,M", [("log", 1.0 + 1e-13, 1.5), ("neg_t_log_t", 0.05, 1.0 - 1e-13)])
    def test_gamma_near_the_root_of_f(self, spec, m, M):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            lo, hi = mpmath.mpf(m), mpmath.mpf(M)
            exact_f = mpmath.log if spec == "log" else (lambda t: -t * mpmath.log(t))
            fm, fM = exact_f(lo), exact_f(hi)
            mu, nu = (fM - fm) / (hi - lo), (hi * fm - lo * fM) / (hi - lo)
            if spec == "log":
                t = mpmath.exp(1 + mpmath.lambertw(nu / (mpmath.e * mu)).real)
            else:
                t = nu / mu * mpmath.lambertw(mu / (mpmath.e * nu)).real
            t = min(max(t, lo), hi)
            exact = exact_f(t) / (mu * t + nu)
            assert abs(secant_data(parse(spec), m, M).gamma - exact) <= 1e-9 * exact
