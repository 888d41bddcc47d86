import dataclasses
import json
import math

import numpy as np
import pytest

import scalar_oracle
from opentropy import DomainError, NotPositiveDefiniteError, PreconditionError, UnresolvableWindowError
from opentropy.bounds import chord_gap_bound, chord_ratio_bound, secant_data
from opentropy.entropy import OperatorField
from opentropy.functions import GRID_POINTS, IDENTITY, LOG, NEG_T_LOG_T, custom, parse, power
from opentropy.matcore import PositiveDefiniteMatrix
from opentropy import verify
from opentropy.verify import (
    STATEMENTS,
    CampaignConfig,
    Instance,
    TheoremId,
    campaign,
    check,
    random_instance,
    random_resolution,
    run_trial,
    trial_seed,
    triage,
)

SMALL = CampaignConfig(trials=4, dims=(2, 5), terms=(2, 3), seed=7)


def test_registry_is_total():
    assert set(STATEMENTS) == set(TheoremId)


class TestRandomResolution:
    def test_single_term_is_identity(self):
        field = random_resolution(3, 1, seed=0)
        np.testing.assert_allclose(field.matrices[0].array, np.eye(3), atol=1e-12)

    def test_scalar_case_sums_to_one(self):
        field = random_resolution(1, 2, seed=1)
        vals = [float(m.array[0, 0].real) for m in field.matrices]
        assert all(v > 0 for v in vals)
        assert abs(sum(vals) - 1.0) <= 1e-12

    def test_residual_and_determinism(self):
        field = random_resolution(4, 3, seed=42)
        residual = np.linalg.norm(field.weighted_sum() - np.eye(4))
        assert residual <= 1e-10
        again = random_resolution(4, 3, seed=42)
        for m1, m2 in zip(field.matrices, again.matrices):
            np.testing.assert_array_equal(m1.array, m2.array)

    def test_bad_arguments(self):
        with pytest.raises(PreconditionError):
            random_resolution(0, 2, seed=0)
        with pytest.raises(PreconditionError):
            random_resolution(2, 0, seed=0)


class TestRandomInstance:
    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_generates_and_validates(self, theorem):
        inst = random_instance(theorem, dim=3, k=2, seed=11, f=power(0.5), p_or_q=0.5)
        inst.validate()
        assert inst.dim == 3

    def test_deterministic_in_seed(self):
        a = random_instance(TheoremId.ENTROPY_LOWER, 3, 2, 99, power(0.5), 0.5)
        b = random_instance(TheoremId.ENTROPY_LOWER, 3, 2, 99, power(0.5), 0.5)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_normalized_instances_straddle_one(self):
        for seed in range(8):
            inst = random_instance(TheoremId.ENTROPY_LOWER, 4, 3, seed, power(0.5), 0.5)
            assert inst.m <= 1.0 - 1e-6 < 1.0 + 1e-6 <= inst.M
            assert inst.m <= inst.t0 <= inst.M
            assert inst.fa.is_normalized() and inst.fb.is_normalized()

    def test_normalized_needs_two_terms(self):
        with pytest.raises(PreconditionError):
            random_instance(TheoremId.ENTROPY_LOWER, 3, 1, 0, power(0.5), 0.5)

    def test_exponent_range_enforced(self):
        with pytest.raises(PreconditionError):
            random_instance(TheoremId.ENTROPY_LOWER, 3, 2, 0, power(0.5), 1.5)

    def test_info_instance_is_probability_pair(self):
        inst = random_instance(TheoremId.INFO_INEQ, 8, 1, 5)
        a = np.diag(inst.fa.matrices[0].array).real
        b = np.diag(inst.fb.matrices[0].array).real
        assert abs(a.sum() - 1.0) <= 1e-12 and abs(b.sum() - 1.0) <= 1e-12
        assert np.all(a > 0) and np.all(b > 0)

    def test_info_draw_measures_no_window(self):
        # The divergence reads the two diagonals only, so the draw solves no
        # pair spectrum for an [m, M] that nothing reads.
        inst = random_instance(TheoremId.INFO_INEQ, 6, 1, 3)
        assert inst.m is None and inst.M is None and not inst.fa._spectra
        # Files that carry the window still load and replay.
        spectrum = inst.fa.pair_spectrum(inst.fb)
        old = Instance.from_json(dict(inst.to_json(), m=spectrum.m, M=spectrum.M))
        assert old.M == spectrum.M and check(TheoremId.INFO_INEQ, old) == check(TheoremId.INFO_INEQ, inst)

    def test_compression_instance_shapes(self):
        inst = random_instance(TheoremId.COMPRESSION_JENSEN, 4, 3, 21)
        assert len(inst.cs) == 3 and inst.cs_weights.shape == (3,)
        assert inst.m == inst.x.lambda_min and inst.M == inst.x.lambda_max

    def test_json_round_trip_preserves_margin(self):
        # An instance is its JSON: arrays survive JSON bit for bit and every
        # matrix and field is the solve of its array (a draw solves several
        # fields as one stack, a reload one field at a time: the same bits),
        # so the reloaded instance checks to the same margin, norms and
        # detail, bit for bit.  dim 1 and k = 1 are drawn wherever the family
        # allows them (normalized fields need k >= 2).  (Of the catalog, only
        # log meets entropy_upper's f(t) <= t - 1.)
        for theorem in TheoremId:
            f = LOG if theorem is TheoremId.ENTROPY_UPPER else power(0.5)
            least_k = 2 if STATEMENTS[theorem].family is verify._normalized else 1
            cases = [(17, 3, 3, False), (18, 4, 3, False), (19, 2, 3, False), (20, 5, 3, False),
                     (21, 1, least_k, False), (22, 3, least_k, False), (23, 1, 3, False),
                     (24, 3, 3, True), (25, 1, least_k, True), (26, 4, least_k, True)]
            for seed, dim, k, diagonal in cases:
                inst = random_instance(theorem, dim, k, seed, f, 0.5, diagonal=diagonal)
                back = Instance.from_json(json.loads(json.dumps(inst.to_json())))
                assert check(theorem, back) == check(theorem, inst), (theorem, seed)

    @pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
    def test_nonfinite_exponent_rejected(self, q):
        with pytest.raises(PreconditionError, match="finite"):
            random_instance(TheoremId.HOMOGENEOUS, 2, 2, 0, power(0.5), q)


class TestStackedDraws:
    """A draw with a leading count takes the same numbers, in the same order,
    as that many consecutive draws, and leaves the rng in the same state."""

    @staticmethod
    def same(single, stacked, count=3):
        one, many = np.random.default_rng(41), np.random.default_rng(41)
        want = np.stack([single(one) for _ in range(count)])
        got = stacked(many, count)
        np.testing.assert_array_equal(got, want)
        assert one.bit_generator.state == many.bit_generator.state

    @pytest.mark.parametrize("dim,k", [(1, 1), (3, 2), (6, 4)])
    def test_cgauss(self, dim, k):
        self.same(lambda rng: verify._cgauss(rng, dim), lambda rng, n: verify._cgauss(rng, dim, n))
        self.same(lambda rng: verify._cgauss(rng, dim, k), lambda rng, n: verify._cgauss(rng, dim, n, k))

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("dim,k", [(1, 1), (1, 3), (3, 2), (6, 4)])
    def test_resolution_and_free_arrays(self, dim, k, diagonal):
        for draw in (verify._resolution_arrays, verify._free_arrays):
            single = lambda rng: draw(rng, dim, k, diagonal)
            self.same(single, lambda rng, n: draw(rng, dim, k, diagonal, n))


class TestCheckerBehavior:
    def test_klein_equality_case(self):
        a = PositiveDefiniteMatrix(np.diag([0.5, 2.0, 1.0]))
        inst = Instance(
            theorem=TheoremId.KLEIN_UPPER, seed=0, dim=3, k=1, f=LOG,
            m=1.0, M=1.0,
            fa=OperatorField([(1.0, a)]), fb=OperatorField([(1.0, a)]),
        )
        res = check(TheoremId.KLEIN_UPPER, inst)
        assert res.holds and abs(res.margin) <= 1e-12

    def test_info_equality_iff_equal_vectors(self):
        v = np.array([0.2, 0.3, 0.5])
        field = OperatorField([(1.0, PositiveDefiniteMatrix(np.diag(v)))])
        inst = Instance(TheoremId.INFO_INEQ, 0, 3, 1, f=LOG, m=1.0, M=1.0, fa=field, fb=field)
        res = check(TheoremId.INFO_INEQ, inst)
        assert res.holds and abs(res.margin) <= 1e-12
        for seed in range(10):
            drawn = random_instance(TheoremId.INFO_INEQ, 6, 1, seed)
            assert check(TheoremId.INFO_INEQ, drawn).margin > 0.0

    def test_hypothesis_skips_are_not_failures(self):
        inst = random_instance(TheoremId.ENTROPY_LOWER, 3, 2, 4, LOG, 0.5)
        res = check(TheoremId.ENTROPY_LOWER, inst)
        assert not res.hypothesis_met and res.holds and res.margin is None
        assert "negative" in res.detail

        inst = random_instance(TheoremId.ENTROPY_UPPER, 3, 2, 4, power(0.5), 0.5)
        res = check(TheoremId.ENTROPY_UPPER, inst)
        assert not res.hypothesis_met

        inst = random_instance(TheoremId.REV_JENSEN_GAMMA, 3, 2, 4, LOG, 0.5)
        res = check(TheoremId.REV_JENSEN_GAMMA, inst)
        assert not res.hypothesis_met  # chord through log changes sign when m < 1

        inst = random_instance(TheoremId.REV_JENSEN_ZETA, 3, 2, 4, LOG, 0.5)
        res = check(TheoremId.REV_JENSEN_ZETA, inst)
        assert res.hypothesis_met and res.holds  # the gap route has no sign gate

    def test_compression_with_log_on_shifted_spectrum(self):
        # Hand-built instance whose X spectrum sits inside [1, inf): log is
        # then nonnegative and the forward lemma applies to it.
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = PositiveDefiniteMatrix(g @ g.conj().T / 3.0 + 1.5 * np.eye(3))
        u, _ = np.linalg.qr(g)
        inst = Instance(
            theorem=TheoremId.COMPRESSION_JENSEN, seed=0, dim=3, k=1, f=LOG,
            q=0.5, t0=float(np.mean(x.eigenvalues)),
            m=x.lambda_min, M=x.lambda_max,
            cs=(0.8 * u,), cs_weights=np.array([1.0]), x=x,
        )
        res = check(TheoremId.COMPRESSION_JENSEN, inst)
        assert res.hypothesis_met and res.holds

    def test_entropy_nonneg_campaign_statistic(self):
        for seed in range(25):
            inst = random_instance(TheoremId.ENTROPY_NONNEG, 4, 2, seed, power(0.5), 0.5)
            res = check(TheoremId.ENTROPY_NONNEG, inst)
            assert res.margin >= -1e-9

    def test_forward_reverse_sandwich_on_shared_instance(self):
        for seed in range(20):
            inst = random_instance(TheoremId.ENTROPY_LOWER, 3, 2, seed, power(0.25), 0.5)
            fwd = check(TheoremId.ENTROPY_LOWER, inst)
            rev = check(TheoremId.REV_ENTROPY_ZETA, inst)
            assert fwd.hypothesis_met and rev.hypothesis_met
            assert fwd.margin >= -1e-8 and rev.margin >= -1e-8

    def test_check_is_pure(self):
        inst = random_instance(TheoremId.SUBADDITIVE, 3, 2, 8, LOG, 0.0)
        first = check(TheoremId.SUBADDITIVE, inst)
        second = check(TheoremId.SUBADDITIVE, inst)
        assert first.margin == second.margin

    def test_negative_tol_rejected(self):
        inst = random_instance(TheoremId.KLEIN_UPPER, 2, 1, 0)
        with pytest.raises(PreconditionError):
            check(TheoremId.KLEIN_UPPER, inst, tol=-1.0)


class TestDiagonalSmoke:
    """Every checker against the independent scalar implementation."""

    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_matches_scalar_oracle(self, theorem):
        exercised = 0
        for seed in range(6):
            f = [power(0.5), power(0.25), NEG_T_LOG_T, LOG][seed % 4]
            inst = random_instance(theorem, dim=4, k=3, seed=1000 + seed, f=f,
                                   p_or_q=[0.0, 0.5, 1.0][seed % 3], diagonal=True)
            res = check(theorem, inst)
            if not res.hypothesis_met:
                continue
            exercised += 1
            extras = {}
            if theorem in (TheoremId.REV_JENSEN_GAMMA, TheoremId.REV_ENTROPY_GAMMA):
                extras["gamma"] = chord_ratio_bound(inst.f, inst.m, inst.M)
            if theorem in (TheoremId.REV_JENSEN_ZETA, TheoremId.REV_ENTROPY_ZETA):
                extras["zeta"] = chord_gap_bound(inst.f, inst.m, inst.M)
            want = scalar_oracle.margin(theorem, inst, extras)
            assert res.margin == pytest.approx(want, abs=1e-10, rel=1e-9), theorem
        assert exercised > 0, f"no diagonal instance exercised {theorem}"


class TestTrialsAndCampaign:
    def test_trial_seed_is_stable(self):
        s1 = trial_seed(42, TheoremId.KLEIN_UPPER, 7)
        s2 = trial_seed(42, TheoremId.KLEIN_UPPER, 7)
        assert s1 == s2
        assert s1 != trial_seed(42, TheoremId.KLEIN_UPPER, 8)
        assert s1 != trial_seed(42, TheoremId.INFO_INEQ, 7)

    def test_replay_reproduces_margin_bitwise(self):
        seed = trial_seed(5, TheoremId.ENTROPY_LOWER, 3)
        rec1, _, _ = run_trial(TheoremId.ENTROPY_LOWER, SMALL, seed, index=3)
        rec2, _, _ = run_trial(TheoremId.ENTROPY_LOWER, SMALL, seed, index=3)
        assert rec1.margin == rec2.margin
        assert rec1.function == rec2.function and rec1.dim == rec2.dim

    def test_zero_trials_yields_empty_report(self):
        report = campaign(CampaignConfig(trials=0, seed=1))
        assert all(s.trials == 0 and s.min_margin is None for s in report.summaries)
        assert report.records == [] and report.failures == []

    def test_small_campaign_is_deterministic_and_clean(self):
        r1 = campaign(SMALL)
        r2 = campaign(SMALL)
        assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(r2.to_json(), sort_keys=True)
        assert r1.substantive_total == 0
        for s in r1.summaries:
            if s.min_margin is not None:
                assert s.min_margin >= -1e-8

    def test_csv_rows_one_per_trial(self):
        report = campaign(CampaignConfig(theorems=(TheoremId.KLEIN_UPPER,), trials=5, seed=2))
        lines = report.to_csv().strip().splitlines()
        assert len(lines) == 6  # header + 5 trials
        assert lines[0].startswith("theorem,")

    def test_config_validation(self):
        with pytest.raises(PreconditionError):
            campaign(CampaignConfig(trials=-1))
        with pytest.raises(PreconditionError):
            campaign(CampaignConfig(trials=1, tol=0.0))
        with pytest.raises(PreconditionError):
            campaign(CampaignConfig(trials=1, dims=(0, 4)))
        with pytest.raises(PreconditionError):
            campaign(CampaignConfig(trials=1, functions=("sqrt_is_not_a_spec",)))


def test_worst_seed_replays_to_min_margin():
    report = campaign(CampaignConfig(theorems=(TheoremId.MEAN_INTEGRAL,), trials=8, seed=13))
    summary = report.summaries[0]
    rec, _, _ = run_trial(TheoremId.MEAN_INTEGRAL, report.config, summary.worst_seed)
    assert rec.margin == summary.min_margin


def test_example_log_pair_margins_reference_both_routes():
    inst = random_instance(TheoremId.EXAMPLE_LOG_PAIR, 3, 2, 77, p_or_q=0.5)
    res = check(TheoremId.EXAMPLE_LOG_PAIR, inst)
    assert res.holds
    assert "-t log t" in res.detail and "log" in res.detail


def test_homogeneous_equality_margin_is_tiny():
    for seed in range(10):
        inst = random_instance(TheoremId.HOMOGENEOUS, 4, 2, seed, parse("log"), 0.5)
        res = check(TheoremId.HOMOGENEOUS, inst)
        assert res.holds
        assert res.margin <= 0.0  # two-sided equality margin never exceeds zero
        assert res.margin >= -1e-10


def test_map_monotone_rectangular_consistency():
    # The checker itself only needs a normalized map; exercise it once more
    # with several Kraus terms to cover the multi-term path.
    inst = random_instance(TheoremId.MAP_MONOTONE, 4, 2, 31, NEG_T_LOG_T, 0.0)
    res = check(TheoremId.MAP_MONOTONE, inst)
    assert res.hypothesis_met and res.holds


def test_field_solves_do_not_grow_with_the_node_count(solve_calls):
    # Fields and pair spectra are stacked, and the check reuses the pair
    # spectra generation measured: one draw and its check cost the same
    # number of eigensolves at any k.
    counts = []
    for k in (2, 4):
        solve_calls.clear()
        inst = random_instance(TheoremId.ENTROPY_LOWER, 3, k, 20240, power(0.5), 0.5)
        result = check(TheoremId.ENTROPY_LOWER, inst)
        assert result.hypothesis_met and result.holds
        counts.append(sorted(solve_calls))
    assert counts[0] and counts[0] == counts[1]


@pytest.mark.parametrize("theorem,solves", [
    # four fields as one stack, then both measured pair spectra in one pass
    (TheoremId.SUBADDITIVE, ["eigh"] * 2),
    (TheoremId.JOINT_CONCAVE, ["eigh"] * 2),
    # both probability vectors' diagonal fields as one stack
    (TheoremId.INFO_INEQ, ["eigh"]),
])
def test_draws_solve_their_fields_as_one_stack(solve_calls, theorem, solves):
    random_instance(theorem, 3, 2, 7, LOG, 0.0)
    assert solve_calls == solves


@pytest.mark.parametrize(
    "theorem", [TheoremId.MEAN_INTEGRAL, TheoremId.KLEIN_UPPER, TheoremId.HOMOGENEOUS, TheoremId.MAP_MONOTONE]
)
def test_centered_draw_measures_the_unscaled_pair_without_frames(solve_calls, theorem):
    # Two field solves (fa and fb as one stack, then the rescaled fb), the
    # eigenvalues alone of the unscaled pair, and one full solve of the
    # rescaled pair, which the check reuses.
    inst = random_instance(theorem, 3, 2, 20241, power(0.5), 0.5)
    assert sorted(solve_calls) == ["eigh"] * 3 + ["eigvalsh"]
    solve_calls.clear()
    inst.fa.pair_spectrum(inst.fb)
    assert solve_calls == []


def test_nonnegative_declaration_covering_the_window_skips_the_grid():
    grid_calls = []

    def sqrt(t):
        grid_calls.append(np.size(t) == GRID_POINTS)
        return t ** 0.5

    f = custom(sqrt, name="counted_sqrt", nonnegative_on=(0.0, math.inf))
    for seed in range(3):
        grid_calls.clear()
        inst = random_instance(TheoremId.ENTROPY_NONNEG, 3, 2, seed, f, 0.5)
        result = check(TheoremId.ENTROPY_NONNEG, inst)
        # validate_declared_flags evaluates f on the grid once; the gate
        # trusts the checked declaration instead of evaluating it again.
        assert sum(grid_calls) == 1
        reference = check(TheoremId.ENTROPY_NONNEG, random_instance(
            TheoremId.ENTROPY_NONNEG, 3, 2, seed, power(0.5), 0.5))
        assert result.hypothesis_met and result.margin == reference.margin
    negative = custom(lambda t: t - 1.0, name="shifted", nonnegative_on=(1.0, math.inf))
    inst = random_instance(TheoremId.ENTROPY_NONNEG, 3, 2, 0, negative, 0.5)
    assert not check(TheoremId.ENTROPY_NONNEG, inst).hypothesis_met


_STRADDLING_NONNEG = {
    TheoremId.COMPRESSION_JENSEN, TheoremId.ENTROPY_LOWER, TheoremId.ENTROPY_NONNEG,
    TheoremId.REV_JENSEN_GAMMA, TheoremId.REV_ENTROPY_GAMMA,
}


@pytest.mark.parametrize("theorem", list(TheoremId))
def test_trials_draw_from_the_admissible_functions(theorem):
    config = CampaignConfig(dims=(2, 3), seed=11)
    if theorem is TheoremId.ENTROPY_UPPER:
        want = ["log"]
    elif theorem in _STRADDLING_NONNEG:
        want = ["power:0.5", "power:0.25"]
    else:
        want = list(config.functions)
    assert [spec for spec in config.functions if STATEMENTS[theorem].admits(parse(spec))] == want
    records = [run_trial(theorem, config, trial_seed(11, theorem, i), i)[0] for i in range(24)]
    assert {r.function for r in records} == set(want)
    assert all(r.hypothesis_met and r.holds for r in records)


def test_tangent_line_of_a_catalog_function_skips_the_grid():
    grid_calls = []

    def counted_log(t):
        grid_calls.append(np.size(t) == GRID_POINTS)
        return np.log(t)

    catalog = dataclasses.replace(LOG, fn=counted_log)
    declared = custom(counted_log, name="my_log", deriv=lambda t: 1.0 / t, operator_concave=True)
    for seed in range(3):
        results = []
        for f, grids in ((catalog, 0), (declared, 2)):
            grid_calls.clear()
            results.append(check(TheoremId.ENTROPY_UPPER, random_instance(TheoremId.ENTROPY_UPPER, 3, 2, seed, f)))
            # A custom f is evaluated on the grid by validate_declared_flags
            # and again by the f(t) <= t - 1 test; a catalog f by neither.
            assert sum(grid_calls) == grids
        assert all(r.hypothesis_met for r in results) and results[0].margin == results[1].margin


_COMPRESSION = (TheoremId.COMPRESSION_JENSEN, TheoremId.REV_JENSEN_GAMMA, TheoremId.REV_JENSEN_ZETA)


@pytest.mark.parametrize(
    "spec", ["power:0.5", "power:0.25", "power:0", "power:1", "log", "neg_t_log_t", "identity",
             "affine:0.5,1", "const:2"]
)
def test_dim_one_compression_gates_agree_with_admission(spec):
    # At dim 1 X is a scalar; its window still contains 1 in its interior,
    # so a statement's gates pass exactly when it admits f.
    config = CampaignConfig(theorems=_COMPRESSION, trials=12, dims=(1, 1), terms=(1, 3),
                            functions=(spec,), seed=19)
    report = campaign(config)
    for theorem in _COMPRESSION:
        admitted = STATEMENTS[theorem].admits(parse(spec))
        rows = [r for r in report.records if r.theorem is theorem]
        assert len(rows) == 12 and all(r.hypothesis_met == admitted and r.holds for r in rows)
    assert report.error_total == 0 and report.failures == []


def test_tangent_line_admission():
    upper = STATEMENTS[TheoremId.ENTROPY_UPPER]
    tangent = custom(np.log, name="my_log", deriv=lambda t: 1.0 / t, operator_concave=True)
    assert upper.admits(LOG) and upper.admits(tangent)
    assert not upper.admits(custom(np.log, name="unflagged_log", deriv=lambda t: 1.0 / t))
    assert not upper.admits(custom(np.log, name="no_derivative", operator_concave=True))
    assert not any(upper.admits(f) for f in (IDENTITY, NEG_T_LOG_T, power(0.5), parse("affine:0,1")))


def test_precondition_error_is_a_trial_outcome():
    config = CampaignConfig(theorems=(TheoremId.ENTROPY_LOWER, TheoremId.KLEIN_UPPER), trials=2,
                            terms=(1, 1), seed=3)
    seed = trial_seed(3, TheoremId.ENTROPY_LOWER, 0)
    record, inst, _ = run_trial(TheoremId.ENTROPY_LOWER, config, seed)
    assert inst is None and not record.hypothesis_met and not record.holds
    assert record.detail == "error: normalized instances need k >= 2 (k = 1 forces both fields to {I})"
    report = campaign(config)
    lower, klein = report.summaries
    assert (lower.errors, lower.passes, lower.skips) == (2, 0, 0)
    assert klein.errors == 0 and klein.passes == 2
    assert report.error_total == 2 and report.failures == []
    assert report.to_json()["results"][0]["errors"] == 2


@pytest.mark.parametrize("error", [
    NotPositiveDefiniteError("smallest eigenvalue nan is not safely positive (largest is 1.0e+00)"),
    DomainError("log is undefined at -1"),
])
def test_floor_and_domain_errors_are_trial_outcomes(monkeypatch, error):
    # One bad cell ends as an error outcome; the rest of the campaign runs.
    real, calls = verify.triage, []

    def triage(theorem, inst, tol):
        calls.append(theorem)
        if len(calls) == 1:
            raise error
        return real(theorem, inst, tol)

    monkeypatch.setattr(verify, "triage", triage)
    report = campaign(CampaignConfig(theorems=(TheoremId.KLEIN_UPPER,), trials=3, seed=2))
    (summary,) = report.summaries
    assert (summary.errors, summary.passes, summary.skips) == (1, 2, 0)
    assert report.records[0].detail == f"error: {error}" and report.failures == []


def test_unresolvable_window_skips_gamma_and_raises_for_zeta():
    # A gamma gate skips on a precondition failure; a zeta gate has none to
    # skip on, so the error reaches run_trial, which counts it.
    inst = random_instance(TheoremId.REV_JENSEN_GAMMA, 2, 2, 0, LOG)
    inst.m, inst.M = 3.0, 3.0000000000000004
    result = check(TheoremId.REV_JENSEN_GAMMA, inst)
    assert not result.hypothesis_met and result.holds and "too narrow" in result.detail
    with pytest.raises(UnresolvableWindowError, match="too narrow"):
        check(TheoremId.REV_JENSEN_ZETA, dataclasses.replace(inst, theorem=TheoremId.REV_JENSEN_ZETA))


@pytest.mark.parametrize("theorem", list(TheoremId))
def test_instance_file_with_a_missing_field_is_rejected(theorem):
    inst = random_instance(theorem, 2, 2, 5)
    payload = inst.to_json()
    needed = [("map" if slot == "pmap" else slot) for slot in STATEMENTS[theorem].needs]
    assert needed and all(key in payload for key in needed)
    for key in needed:
        partial = {name: value for name, value in payload.items() if name != key}
        with pytest.raises(PreconditionError, match=repr(key)):
            Instance.from_json(partial)


# The statements whose field families measure their window on pair spectra.
_PAIRED = [t for t in TheoremId if STATEMENTS[t].family in verify._PAIRS]


@pytest.mark.parametrize("theorem", _PAIRED)
def test_window_must_cover_the_pair_spectra(theorem):
    # A stored window narrower than the pair spectra would turn a true
    # statement into a violation (rev_entropy_gamma read margin -0.0338,
    # triaged substantive); a wider one is still a valid window.
    payload = random_instance(theorem, 3, 2, 5).to_json()
    centre = payload.get("t0", 1.0)
    narrowed = dict(payload, m=min(centre, 1.0 - 2e-6), M=max(centre, 1.0 + 2e-6))
    with pytest.raises(PreconditionError, match="pair spectrum"):
        Instance.from_json(narrowed)
    widened = Instance.from_json(dict(payload, m=payload["m"] / 2.0, M=2.0 * payload["M"]))
    assert triage(theorem, widened).triage != "substantive"


def test_nonfinite_side_is_an_error_before_the_solve():
    # The eigensolver reads diag(nan, 1) as [0, -0], which would pass.
    sides = verify.Sides([(np.diag([np.nan, 1.0]), "<=", 2.0 * np.eye(2))], "x")
    result = verify._verdict(TheoremId.ENTROPY_NONNEG, sides, 1e-9)
    assert not result.hypothesis_met and not result.holds and result.margin is None
    assert result.detail == "error: non-finite margin"


def _two_point_witness(theorem, f, which):
    """X = diag(m, M) on [m, M] = [0.5, 2] and the state-induced compression
    C_j = x e_j*, with |x_1|^2 = (M - t*)/(M - m) at the chord constant's
    argmax t*: then Phi(X) = t* I and Phi(f(X)) is the chord at t*, so the
    reverse Jensen statement holds with equality."""
    m, M = 0.5, 2.0
    t_star = getattr(secant_data(f, m, M), which)
    x = np.sqrt([(M - t_star) / (M - m), (t_star - m) / (M - m)])
    cs = tuple(np.outer(x, e).astype(complex) for e in np.eye(2))
    inst = Instance(theorem, 0, 2, 2, f=f, t0=m, m=m, M=M, cs=cs, cs_weights=np.ones(2),
                    x=PositiveDefiniteMatrix(np.diag([m, M])))
    inst.validate()
    return inst


_WITNESSES = [
    *((TheoremId.REV_JENSEN_GAMMA, "argmax_gamma", spec) for spec in ("power:0.5", "power:0.25")),
    *((TheoremId.REV_JENSEN_ZETA, "argmax_zeta", spec)
      for spec in ("power:0.5", "power:0.25", "log", "neg_t_log_t")),
]


@pytest.mark.parametrize("theorem,which,spec", _WITNESSES)
def test_reverse_jensen_constants_are_sharp_on_two_point_witnesses(monkeypatch, theorem, which, spec):
    inst = _two_point_witness(theorem, parse(spec), which)
    result = check(theorem, inst)
    assert result.hypothesis_met and result.holds
    assert abs(result.margin) <= 1e-12 * max(1.0, result.lhs_norm, result.rhs_norm)
    # A constant 1e-6 (relative) short of the true one fails on the witness.
    shrink = 1.0 - 1e-6
    monkeypatch.setattr(verify, "chord_ratio_bound", lambda *args: 1.0 + (chord_ratio_bound(*args) - 1.0) * shrink)
    monkeypatch.setattr(verify, "chord_gap_bound", lambda *args: chord_gap_bound(*args) * shrink)
    mutated = check(theorem, inst)
    assert mutated.hypothesis_met and not mutated.holds
