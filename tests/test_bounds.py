import dataclasses
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
    secant_coeffs,
    secant_data,
    zeta_closed_forms,
)
from opentropy.bounds import _chord, _gap_bound, _ratio_bound, grid_values
from opentropy.functions import (
    GRID_POINTS, IDENTITY, LOG, NEG_T_LOG_T, ScalarFunction, constant, custom, parse, power,
    validate_declared_flags,
)
from opentropy.verify import TheoremId, random_instance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WINDOW_KINDS, draw_spec, draw_window  # noqa: E402


def dense_scan_max(obj, m, M, n=1_000_000):
    ts = np.linspace(m, M, n)
    return float(np.max(obj(ts)))


class TestSecantCoeffs:
    def test_identity_chord(self):
        assert secant_coeffs(IDENTITY, 1.0, 2.0) == (1.0, 0.0)

    def test_log_chord(self):
        mu, nu = secant_coeffs(LOG, 1.0, math.e)
        assert abs(mu - 1.0 / (math.e - 1.0)) <= 1e-15
        assert abs(nu + 1.0 / (math.e - 1.0)) <= 1e-15

    def test_sqrt_chord(self):
        mu, nu = secant_coeffs(power(0.5), 1.0, 4.0)
        assert abs(mu - 1.0 / 3.0) <= 1e-15
        assert abs(nu - 2.0 / 3.0) <= 1e-15

    def test_interpolates_endpoints(self):
        for f, m, M in [(LOG, 1.0, 7.3), (power(0.25), 0.2, 9.0), (NEG_T_LOG_T, 0.3, 2.0)]:
            mu, nu = secant_coeffs(f, m, M)
            assert abs(mu * m + nu - f(m)) <= 1e-12 * max(1.0, abs(f(m)))
            assert abs(mu * M + nu - f(M)) <= 1e-12 * max(1.0, abs(f(M)))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(PreconditionError):
            secant_coeffs(LOG, 2.0, 1.0)
        with pytest.raises(PreconditionError):
            secant_coeffs(LOG, 2.0, 2.0)


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
        mu, nu = secant_coeffs(LOG, m, M)
        scanned = dense_scan_max(lambda t: np.log(t) / (mu * t + nu), m, M)
        assert abs(chord_ratio_bound(LOG, m, M) - scanned) <= 1e-8

    def test_log_from_one_hits_endpoint_limit(self):
        # On [1, M] the chord vanishes at t = 1 together with log, and the
        # ratio climbs to the limit value (M - 1)/log M there.
        M = math.e ** 2
        assert abs(chord_ratio_bound(LOG, 1.0, M) - (M - 1.0) / math.log(M)) <= 1e-10

    def test_nonpositive_chord_rejected(self):
        with pytest.raises(UndefinedRatioError):
            chord_ratio_bound(LOG, 0.5, 2.0)

    def test_undefined_ratio_reads_f_at_the_ends_only(self):
        # The chord is linear and equals f at m and M: one evaluation of f at
        # each end decides that it goes negative, with no grid.
        sizes = []
        counted = custom(lambda t: sizes.append(np.size(t)) or np.log(t), name="counted_log")
        with pytest.raises(UndefinedRatioError):
            chord_ratio_bound(counted, 0.5, 2.0)
        assert sizes == [1, 1]

    def test_negative_f_rejected(self):
        dip = custom(lambda t: (t - 1.0) ** 4 - 0.05, name="dip")
        with pytest.raises(PreconditionError):
            chord_ratio_bound(dip, 0.5, 1.5)

    @pytest.mark.parametrize("f", [LOG, custom(np.log, name="plain_log")], ids=["catalog", "custom"])
    def test_grid_is_evaluated_once(self, f):
        # The nonnegativity check and the search share one evaluation of f on
        # the grid (a catalog f whose declared interval covers the window
        # needs no check at all), and the value does not change.
        sizes = []
        counted = dataclasses.replace(f, fn=lambda t: sizes.append(np.size(t)) or np.log(t))
        assert chord_ratio_bound(counted, 1.5, 4.0) == chord_ratio_bound(f, 1.5, 4.0)
        assert sizes.count(GRID_POINTS) == 1

    def test_catalog_declaration_not_covering_the_window_is_checked(self):
        # The catalog marker with log's declared interval [1, inf), which does
        # not cover [0.9, 3]: f is positive at both ends, and the grid check
        # finds the dip below 0 near t = 1.
        dip = dataclasses.replace(LOG, fn=lambda t: np.log(t) + 0.2 - 0.3 * np.exp(-(((t - 1.0) / 0.05) ** 2)))
        with pytest.raises(PreconditionError, match="negative"):
            chord_ratio_bound(dip, 0.9, 3.0)

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
            mu, nu = secant_coeffs(f, m, M)
            scanned = dense_scan_max(lambda t: f.fn(t) - (mu * t + nu), m, M)
            assert abs(chord_gap_bound(f, m, M) - scanned) <= 1e-8

    def test_nonnegative_always(self):
        for f, m, M in [(IDENTITY, 1.0, 2.0), (LOG, 0.5, 4.0), (power(0.7), 0.2, 2.0)]:
            assert chord_gap_bound(f, m, M) >= -1e-12

    def test_stationarity_cross_check_disagreement_raises(self):
        # A derivative that lies about the function sends the stationarity
        # route far from the grid optimum.
        liar = custom(np.log, name="liar", deriv=lambda t: 1.0 / t + 0.3)
        with pytest.raises(ConsistencyError):
            chord_gap_bound(liar, 0.5, 4.0)

    def test_derivative_free_function_uses_grid_only(self):
        plain = custom(np.log, name="plain_log")
        assert abs(chord_gap_bound(plain, 0.5, 2.0) - chord_gap_bound(LOG, 0.5, 2.0)) <= 1e-9


class TestScalarSandwich:
    # The defining maxima are attained, never exceeded, on the whole grid.
    @pytest.mark.parametrize("f,m,M", [(power(0.5), 0.5, 4.0), (power(0.25), 1.0, 9.0)])
    def test_ratio_and_gap_dominate_f(self, f, m, M):
        mu, nu = secant_coeffs(f, m, M)
        gamma = chord_ratio_bound(f, m, M)
        zeta = chord_gap_bound(f, m, M)
        ts = np.linspace(m, M, 4096)
        vals = f.evaluate_array(ts)
        chord = mu * ts + nu
        assert np.all(vals <= gamma * chord + 1e-10)
        assert np.all(vals <= chord + zeta + 1e-10)

    @pytest.mark.parametrize("f,m,M", [(LOG, 0.5, 4.0), (NEG_T_LOG_T, 0.3, 2.0), (power(0.5), 0.5, 4.0)])
    def test_chord_below_concave_function(self, f, m, M):
        mu, nu = secant_coeffs(f, m, M)
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

    def test_near_diagonal_continuity(self):
        a = 3.0
        for eps in (1e-13, 1e-10, 1e-8):
            assert abs(logarithmic_mean(a, a * (1 + eps)) - a) <= 1e-6
            assert abs(identric_mean(a, a * (1 + eps)) - a) <= 1e-6


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


class TestClosedFormsAgainstTheGrid:
    # The grid search (_ratio_bound, _gap_bound) is the oracle: on the
    # benchmark's windows, straddling 1 or not, narrow or wide, each closed
    # form matches it, lies in [m, M] and is never below it beyond rounding.
    @pytest.mark.parametrize("slot", ["power", "log", "neg_t_log_t"])
    def test_thousand_windows(self, slot):
        rng = np.random.default_rng(606)
        for i in range(1000):
            m, M = draw_window(rng, WINDOW_KINDS[i % len(WINDOW_KINDS)])
            f = parse(draw_spec(rng, slot))
            data = secant_data(f, m, M)
            zeta_tol = 1e-12 * max(1.0, abs(f(m)), abs(f(M)))
            zeta_grid = _gap_bound(f, _chord(f, m, M))[1]
            assert abs(data.zeta - zeta_grid) <= zeta_tol
            assert data.zeta >= zeta_grid - zeta_tol
            assert m <= data.argmax_zeta <= M
            if slot == "power":
                gamma_grid = _ratio_bound(f, _chord(f, m, M))[1]
                assert abs(data.gamma - gamma_grid) <= 1e-12 * gamma_grid
                assert data.gamma >= gamma_grid * (1.0 - 1e-12)
                assert m <= data.argmax_gamma <= M
            assert set(grid_values(f, m, M)) == ({"gamma", "zeta"} if slot == "power" else {"zeta"})

    def test_linear_and_custom_functions_have_none(self):
        for f in (IDENTITY, constant(2.0), parse("affine:1,2"), power(0.0), power(1.0),
                  custom(np.sqrt, name="root", deriv=lambda t: 0.5 / np.sqrt(t))):
            assert grid_values(f, 0.5, 2.0) == {}

    def test_power_gamma_is_the_inverse_kantorovich_constant(self):
        # K(m, M, p) = (m M^p - M m^p) / ((p - 1)(M - m))
        #              * ((p - 1)/p * (M^p - m^p) / (m M^p - M m^p))^p
        for p, m, M in [(0.5, 1.0, 4.0), (0.25, 0.1, 9.0), (0.9, 0.5, 1.5)]:
            h = (m * M ** p - M * m ** p)
            kantorovich = h / ((p - 1.0) * (M - m)) * ((p - 1.0) / p * (M ** p - m ** p) / h) ** p
            assert abs(chord_ratio_bound(power(p), m, M) - 1.0 / kantorovich) <= 1e-12

    @pytest.mark.parametrize("spec", ["log", "power:0.5"])
    def test_a_catalog_spec_without_the_marker_earns_no_trust(self, spec):
        # A hand-built function that names a catalog spec is not a catalog
        # entry: its flags are checked, it does not serialize as the spec,
        # and its constants come from the grid search, not from the spec's
        # closed forms, which would take them at the wrong point.
        bump = ScalarFunction("bump", lambda t: 2.0 + np.sin(3.0 * t), deriv=lambda t: 3.0 * np.cos(3.0 * t),
                              operator_concave=True, spec=spec)
        assert not bump.is_catalog and grid_values(bump, 0.5, 2.0) == {}
        with pytest.raises(PreconditionError, match="midpoint concavity"):
            validate_declared_flags(bump, 0.5, 2.0)
        with pytest.raises(PreconditionError, match="not serializable"):
            random_instance(TheoremId.REV_JENSEN_ZETA, 2, 2, 0, bump).to_json()
        mu, nu = secant_coeffs(bump, 0.5, 2.0)
        gap = dense_scan_max(lambda t: bump.fn(t) - (mu * t + nu), 0.5, 2.0)
        ratio = dense_scan_max(lambda t: bump.fn(t) / (mu * t + nu), 0.5, 2.0)
        assert abs(chord_gap_bound(bump, 0.5, 2.0) - gap) <= 1e-8
        assert abs(chord_ratio_bound(bump, 0.5, 2.0) - ratio) <= 1e-8


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
        for constant in (secant_data, chord_ratio_bound, chord_gap_bound, secant_coeffs, grid_values):
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
