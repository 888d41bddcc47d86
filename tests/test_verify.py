import json

import numpy as np
import pytest

import scalar_oracle
from opentropy import PreconditionError
from opentropy.bounds import chord_gap_bound, chord_ratio_bound
from opentropy.entropy import OperatorField
from opentropy.functions import LOG, NEG_T_LOG_T, parse, power
from opentropy.matcore import PositiveDefiniteMatrix
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

    def test_compression_instance_shapes(self):
        inst = random_instance(TheoremId.COMPRESSION_JENSEN, 4, 3, 21)
        assert len(inst.cs) == 3 and inst.cs_weights.shape == (3,)
        assert inst.m == inst.x.lambda_min and inst.M == inst.x.lambda_max

    def test_json_round_trip_preserves_margin(self):
        # An instance is its JSON: arrays survive JSON bit for bit and every
        # matrix and field is the solve of its array, so the reloaded instance
        # checks to the same margin, norms and detail, bit for bit.  (Of the
        # catalog, only log meets entropy_upper's f(t) <= t - 1.)
        for theorem in TheoremId:
            f = LOG if theorem is TheoremId.ENTROPY_UPPER else power(0.5)
            for seed, dim in ((17, 3), (18, 4), (19, 2), (20, 5)):
                inst = random_instance(theorem, dim, 3, seed, f, 0.5)
                back = Instance.from_json(json.loads(json.dumps(inst.to_json())))
                assert check(theorem, back) == check(theorem, inst), (theorem, seed)


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


def count_solves(monkeypatch) -> list:
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, _real=real, _name=name, **kw: calls.append(_name) or _real(*a, **kw)
        )
    return calls


def test_field_solves_do_not_grow_with_the_node_count(monkeypatch):
    # Fields and pair spectra are stacked, and the check reuses the pair
    # spectra generation measured: one draw and its check cost the same
    # number of eigensolves at any k.
    calls = count_solves(monkeypatch)
    counts = []
    for k in (2, 4):
        calls.clear()
        inst = random_instance(TheoremId.ENTROPY_LOWER, 3, k, 20240, power(0.5), 0.5)
        result = check(TheoremId.ENTROPY_LOWER, inst)
        assert result.hypothesis_met and result.holds
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


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
