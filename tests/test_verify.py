import dataclasses
import itertools
import json
import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import scalar_oracle
from opentropy import (
    DomainError,
    GenerationError,
    NotPositiveDefiniteError,
    PreconditionError,
    UnresolvableWindowError,
)
from opentropy.bounds import chord_gap_bound, chord_ratio_bound, secant_data
from opentropy.entropy import OperatorField, PairSpectrum
from opentropy.functions import GRID_POINTS, IDENTITY, LOG, NEG_T_LOG_T, parse, power
from opentropy.maps import PositiveLinearMap
from opentropy.matcore import PositiveDefiniteMatrix
from opentropy import matcore, verify
from opentropy.verify import (
    STATEMENTS,
    CampaignConfig,
    Instance,
    TheoremId,
    campaign,
    check,
    random_instance,
    run_trial,
    trial_seed,
)

from conftest import labels, random_hermitian

SMALL = CampaignConfig(trials=4, dims=(2, 5), terms=(2, 3), seed=7)


def test_registry_is_total():
    assert set(STATEMENTS) == set(TheoremId)


def draw_resolution(dim, k, seed):
    """k unit-weight PD matrices summing to the identity, projected as the
    normalized family projects its raw nodes."""
    nodes = matcore._cgauss(np.random.default_rng(seed), (k, dim, dim))
    return OperatorField.from_matrices(np.ones(k), verify._resolution(nodes))


class TestRandomResolution:
    def test_single_term_is_identity(self):
        field = draw_resolution(3, 1, seed=0)
        np.testing.assert_allclose(field.arrays[0], np.eye(3), atol=1e-12)

    def test_scalar_case_sums_to_one(self):
        field = draw_resolution(1, 2, seed=1)
        vals = [float(a[0, 0].real) for a in field.arrays]
        assert all(v > 0 for v in vals)
        assert abs(sum(vals) - 1.0) <= 1e-12

    def test_residual_and_determinism(self):
        field = draw_resolution(4, 3, seed=42)
        residual = np.linalg.norm(field.weighted_sum() - np.eye(4))
        assert residual <= 1e-10
        again = draw_resolution(4, 3, seed=42)
        np.testing.assert_array_equal(field.arrays, again.arrays)


class TestRandomInstance:
    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_generates_and_validates(self, theorem):
        # A draw checks only its arguments, so here every projection meets the
        # load-time check, over the instances digest's grid (`tests/digests.py`).
        # Normalized fields need k >= 2.
        st = STATEMENTS[theorem]
        least_k = 2 if st.family is verify._NORMALIZED else 1
        for dim, k, seed in itertools.product((1, 2, 3, 5), (1, 2, 3), range(4)):
            if k < least_k:
                with pytest.raises(PreconditionError, match="need k >= 2"):
                    random_instance(theorem, dim, k, seed)
                continue
            inst = random_instance(theorem, dim, k, seed)
            inst.validate()
            assert (inst.dim, inst.k) == (dim, st.fixed.get("k", k))

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
        a, b = inst.pa, inst.pb
        assert a.shape == b.shape == (8,)
        assert abs(a.sum() - 1.0) <= 1e-12 and abs(b.sum() - 1.0) <= 1e-12
        assert np.all(a > 0) and np.all(b > 0)

    def test_info_draw_measures_no_window(self):
        # The divergence reads the two vectors only, so the draw stores no
        # field and no [m, M] that nothing reads.
        inst = random_instance(TheoremId.INFO_INEQ, 6, 1, 3)
        assert inst.m is None and inst.M is None and inst.fa is None and inst.fb is None
        # A file that carries a window still loads and replays; the window,
        # which no draw of the statement fills, is not read.
        windowed = Instance.from_json(dict(inst.to_json(), m=0.5, M=2.0))
        assert windowed.M is None and check(TheoremId.INFO_INEQ, windowed) == check(TheoremId.INFO_INEQ, inst)

    def test_compression_instance_shapes(self):
        inst = random_instance(TheoremId.COMPRESSION_JENSEN, 4, 3, 21)
        assert (len(inst.pmap.kraus), inst.pmap.in_dim, inst.pmap.out_dim) == (3, 4, 4)
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
            least_k = 2 if STATEMENTS[theorem].family is verify._NORMALIZED else 1
            cases = [(17, 3, 3), (18, 4, 3), (19, 2, 3), (20, 5, 3), (21, 1, least_k), (22, 3, least_k),
                     (23, 1, 3), (24, 3, 3), (25, 1, least_k), (26, 4, least_k)]
            for seed, dim, k in cases:
                inst = random_instance(theorem, dim, k, seed, f, 0.5)
                back = Instance.from_json(json.loads(json.dumps(inst.to_json())))
                assert check(theorem, back) == check(theorem, inst), (theorem, seed)

    @pytest.mark.parametrize("size", [{"dim": 2.5}, {"k": 2.7}, {"dim": True}, {"k": True}, {"seed": 1.5},
                                      {"seed": True}, {"dim": "3"}], ids=repr)
    def test_a_size_or_seed_that_is_not_an_integer_is_refused(self, size):
        # 2.5 drew dim 2, 2.7 drew k = 2, True was read as 1, and seed 1.5
        # raised a bare TypeError.  numpy integers are integers.
        args = {"theorem": TheoremId.HOMOGENEOUS, "dim": 2, "k": 2, "seed": 0, **size}
        (name, value), = size.items()
        with pytest.raises(PreconditionError, match=f"{name} must be an integer, got {value!r}"):
            random_instance(**args)
        inst = random_instance(TheoremId.HOMOGENEOUS, np.int64(2), np.int32(2), np.uint64(0))
        assert (type(inst.dim), type(inst.k), type(inst.seed)) == (int, int, int)

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
        cgauss = matcore._cgauss
        self.same(lambda rng: cgauss(rng, (dim, dim)), lambda rng, n: cgauss(rng, (n, dim, dim)))
        self.same(lambda rng: cgauss(rng, (k, dim, dim)), lambda rng, n: cgauss(rng, (n, k, dim, dim)))
        self.same(lambda rng: cgauss(rng, (dim, k)), lambda rng, n: cgauss(rng, (n, dim, k)))

    @pytest.mark.parametrize("dim,k", [(1, 1), (1, 3), (3, 2), (6, 4)])
    def test_resolution_and_free_arrays(self, dim, k):
        # The projections of the raw nodes: a stack's sums are solved in one call.
        for project in (verify._resolution, verify._free_nodes):
            draw = lambda rng, *lead: project(matcore._cgauss(rng, (*lead, k, dim, dim)))
            self.same(draw, draw)


class TestCheckerBehavior:
    def test_klein_equality_case(self):
        a = PositiveDefiniteMatrix(np.diag([0.5, 2.0, 1.0]))
        inst = Instance(
            theorem=TheoremId.KLEIN_UPPER, seed=0, dim=3, k=1, f=LOG,
            fa=OperatorField([(1.0, a)]), fb=OperatorField([(1.0, a)]),
        )
        res = check(TheoremId.KLEIN_UPPER, inst)
        assert res.holds and abs(res.margin) <= 1e-12

    def test_info_equality_iff_equal_vectors(self):
        v = np.array([0.2, 0.3, 0.5])
        inst = Instance(TheoremId.INFO_INEQ, 0, 3, 1, f=LOG, pa=v, pb=v)
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
            pmap=PositiveLinearMap([0.8 * u]), x=x,
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

    @pytest.mark.parametrize("tol", [True, "1e-9", None], ids=["bool", "str", "none"])
    def test_tol_is_read_by_loewner_leqs_rule(self, tol):
        # tol=True checked at tol = 1.0, and a string or None raised TypeError.
        inst = random_instance(TheoremId.KLEIN_UPPER, 2, 1, 0)
        with pytest.raises(PreconditionError, match="^tol must be a number, got "):
            check(TheoremId.KLEIN_UPPER, inst, tol=tol)


def _diagonal(arrays) -> bool:
    arrays = np.asarray(arrays)
    return np.array_equal(arrays, arrays * np.eye(arrays.shape[-1]))


class TestDiagonalSmoke:
    """Every checker against the independent scalar implementation, on the
    commuting corner of the campaign's own draw: with `_cgauss` zeroing the
    off-diagonals of every square Gaussian stack it returns, each field, X and
    Kraus factor that `random_instance` projects is diagonal."""

    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_matches_scalar_oracle(self, theorem, monkeypatch):
        gauss = verify._cgauss
        monkeypatch.setattr(verify, "_cgauss", lambda rng, shape: gauss(rng, shape) * np.eye(shape[-1]))
        exercised = 0
        for seed in range(6):
            f = [power(0.5), power(0.25), NEG_T_LOG_T, LOG][seed % 4]
            inst = random_instance(theorem, dim=4, k=3, seed=1000 + seed, f=f, p_or_q=[0.0, 0.5, 1.0][seed % 3])
            values = [getattr(inst, slot) for slot in ("fa", "fb", "fc", "fd", "x", "pmap")]
            assert all(_diagonal(v.kraus if v is inst.pmap else v.arrays) for v in values if v is not None), theorem
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
            campaign(CampaignConfig(trials=1, tol=-1e-9))
        CampaignConfig(trials=1, tol=0.0).validate()  # check's rule: tol 0 runs
        with pytest.raises(PreconditionError):
            campaign(CampaignConfig(trials=1, dims=(0, 4)))
        with pytest.raises(PreconditionError):
            campaign(CampaignConfig(trials=1, functions=("sqrt_is_not_a_spec",)))

    @pytest.mark.parametrize("edit,message", [
        ({"trials": True}, "trials must be an integer, got True"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"dims": (2, 3.5)}, r"dims\[1\] must be an integer, got 3.5"),
        ({"dims": (2, 3, 4)}, r"dims must be a pair of integers \(lo, hi\), got \(2, 3, 4\)"),
        ({"terms": (True, 2)}, r"terms\[0\] must be an integer, got True"),
        ({"terms": 2}, r"terms must be a pair of integers \(lo, hi\), got 2"),
        # exponents=0.5 raised a bare TypeError, and "log" was read as the specs "l", "o", "g".
        ({"exponents": 0.5}, "exponents must be a tuple or a list, got 0.5"),
        ({"functions": "log"}, "functions must be a tuple or a list, got 'log'"),
        ({"theorems": (TheoremId.INFO_INEQ, "klein_upper")},
         r"theorems must be TheoremId members, got \(<TheoremId.INFO_INEQ: 'info_ineq'>, 'klein_upper'\)"),
        # tol and the exponents by the instance file's number rule: tol=True
        # ran and wrote "tol": true, exponents=(True,) wrote [true], and a
        # string raised TypeError.
        ({"tol": True}, "tol must be a number, got True"),
        ({"tol": "1e-9"}, "tol must be a number, got '1e-9'"),
        ({"tol": 2**1100}, "tol must be within the double range"),
        ({"exponents": (True,)}, "each exponent must be a number, got True"),
        ({"exponents": (0.5, "0.5")}, "each exponent must be a number, got '0.5'"),
    ])
    def test_config_of_the_wrong_type_is_refused_before_any_trial(self, monkeypatch, edit, message):
        # trials=True ran and reported "trials": true, seed=1.5 ran the trials
        # of seed 1, dims=(2, 3.5) ran; trials=2.5 raised TypeError and a
        # theorem named by its string KeyError.  The report is JSON, which
        # holds no numpy integer.
        monkeypatch.setattr(verify, "run_trial", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(PreconditionError, match=message):
            campaign(CampaignConfig(**{"trials": 1, **edit}))

    def test_integer_tol_and_exponents_are_json_numbers(self):
        report = campaign(CampaignConfig(theorems=(TheoremId.KLEIN_UPPER,), trials=2, exponents=(0, 1), tol=1))
        assert report.to_json()["config"]["exponents"] == [0, 1] and report.error_total == 0

    def test_numpy_numbers_are_kept_as_python_numbers(self):
        # np.int64 and np.float32 were refused; the number rule reads them as the int or float they hold.
        config = CampaignConfig(theorems=[TheoremId.KLEIN_UPPER], trials=np.int64(2), seed=np.int64(3),
                                dims=[np.int32(2), np.int64(3)], exponents=[np.float32(0.5)], tol=np.float64(1e-9))
        config.validate()
        assert json.dumps(config.to_json()) == json.dumps(CampaignConfig(
            theorems=(TheoremId.KLEIN_UPPER,), trials=2, seed=3, dims=(2, 3), exponents=(0.5,), tol=1e-9).to_json())


class TestKeyedStreams:
    def test_distinct_cells_have_distinct_keys(self):
        masters, indices = (0, 1, 2, 2**63, 2**64 - 1), (0, 1, 7, 2**31, 2**32 - 1)
        keys = {trial_seed(m, t, i): (m, t, i) for m in masters for t in TheoremId for i in indices}
        assert len(keys) == len(masters) * len(TheoremId) * len(indices)
        assert all(0 <= key < 2**128 for key in keys)
        # Packed with no hashing: master << 64 | statement << 32 | index.
        assert trial_seed(42, TheoremId.KLEIN_UPPER, 7) == 42 << 64 | 5 << 32 | 7

    def test_campaign_draws_replay_from_the_record_seed(self, monkeypatch):
        real, seen = verify.run_trial, []

        def probe(theorem, config, seed, index=0):
            row = real(theorem, config, seed, index)
            seen.append(row)
            return row

        monkeypatch.setattr(verify, "run_trial", probe)
        report = campaign(CampaignConfig(trials=20, seed=42))
        assert len(seen) == 20 * len(TheoremId) and report.records == [record for record, _, _ in seen]
        for record, inst, _ in seen:
            assert record.seed == trial_seed(42, record.theorem, record.index)
            # The parameters come from the key's stream at counter word 3 = 1;
            # the record holds the instance's k, f and q, which a statement can fix.
            params = np.random.Generator(np.random.Philox(key=record.seed, counter=1 << 192))
            assert (record.dim, record.k) == (params.integers(2, 9), STATEMENTS[record.theorem].fixed.get(
                "k", params.integers(2, 5)))
            assert (record.k, record.function, record.exponent) == (
                inst.k, inst.f.spec if inst.f else "", inst.q)
            replayed = random_instance(record.theorem, record.dim, record.k, record.seed,
                                       parse(record.function) if record.function else None, record.exponent)
            assert json.dumps(replayed.to_json(), sort_keys=True) == json.dumps(inst.to_json(), sort_keys=True)

    def test_a_draw_depends_on_its_key_alone(self):
        key, other = trial_seed(3, TheoremId.SUBADDITIVE, 9), 2**128 - 1
        want = np.random.Generator(np.random.Philox(key=key))
        fresh = (want.standard_normal(5), want.integers(0, 7, size=3, dtype=np.int32), want.uniform(size=2))
        for before in (None, other, key):
            if before is not None:
                # Leave a half-used buffer and a cached 32-bit half behind.
                verify._keyed(before).integers(0, 7, size=3, dtype=np.int32)
            got = verify._keyed(key)
            drawn = (got.standard_normal(5), got.integers(0, 7, size=3, dtype=np.int32), got.uniform(size=2))
            for a, b in zip(drawn, fresh):
                np.testing.assert_array_equal(a, b)
        # The trial region is counter word 3 = 1.
        region = np.random.Generator(np.random.Philox(key=key, counter=1 << 192))
        np.testing.assert_array_equal(verify._keyed(key, 1).standard_normal(4), region.standard_normal(4))

    def test_instances_do_not_depend_on_interleaved_draws(self):
        def draw(seed):
            return json.dumps(random_instance(TheoremId.MAP_MONOTONE, 3, 2, seed).to_json(), sort_keys=True)

        first = draw(11)
        draw(2**100)
        assert draw(11) == first

    def test_two_threads_draw_the_same_bits_as_one(self):
        seeds = [trial_seed(7, t, i) for t in (TheoremId.ENTROPY_LOWER, TheoremId.JOINT_CONCAVE) for i in range(12)]
        serial = {seed: random_instance(TheoremId.JOINT_CONCAVE, 3, 2, seed).to_json() for seed in seeds}
        start = threading.Barrier(2)
        results = [{}, {}]

        def worker(out, order):
            start.wait()
            for seed in order:
                out[seed] = random_instance(TheoremId.JOINT_CONCAVE, 3, 2, seed).to_json()

        threads = [threading.Thread(target=worker, args=(results[0], seeds)),
                   threading.Thread(target=worker, args=(results[1], seeds[::-1]))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results[0] == serial and results[1] == serial

    def test_a_warm_campaign_builds_no_generator(self, monkeypatch):
        campaign(CampaignConfig(trials=1, seed=5))
        built = []
        for name in ("SeedSequence", "default_rng", "Philox", "Generator"):
            real = getattr(verify.np.random, name)
            monkeypatch.setattr(verify.np.random, name,
                                lambda *a, _real=real, _name=name, **kw: built.append(_name) or _real(*a, **kw))
        report = campaign(CampaignConfig(trials=10, seed=42))
        assert len(report.records) == 160 and built == []

    @pytest.mark.parametrize("seed", [-1, 2**128, -(2**64)])
    def test_a_seed_outside_the_key_range_is_refused(self, seed):
        with pytest.raises(PreconditionError, match=r"seed must lie in \[0, 2\*\*128\)"):
            random_instance(TheoremId.KLEIN_UPPER, 2, 1, seed)

    def test_campaign_refuses_a_master_seed_or_trial_count_that_would_alias(self):
        for config in (CampaignConfig(trials=1, seed=-1), CampaignConfig(trials=1, seed=2**64),
                       CampaignConfig(trials=2**32, seed=0)):
            with pytest.raises(PreconditionError):
                campaign(config)


def test_memoised_pair_spectra_are_read_only():
    # A write into a memoised spectrum used to change later checks of the
    # same instance (margin 0.99999... read 0.49999... after it).
    inst = random_instance(TheoremId.ENTROPY_NONNEG, 3, 2, 1)
    margin = check(TheoremId.ENTROPY_NONNEG, inst).margin
    spectrum = inst.fa.pair_spectrum(inst.fb)
    solo = PairSpectrum(OperatorField(_weights=inst.fa.weights, _arrays=inst.fa.arrays), inst.fb)
    for values in (spectrum.eigenvalues, spectrum.frame, solo.eigenvalues, solo.frame):
        with pytest.raises(ValueError, match="read-only"):
            values[...] = 0.5
    assert check(TheoremId.ENTROPY_NONNEG, inst).margin == margin


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


def test_example_log_pair_refuses_a_w_outside_the_domain():
    # Both fields scaled by 2 take V above I and W off positive definite; the
    # claims' f(W) is the catalog's, which refuses it as every builder does.
    inst = random_instance(TheoremId.EXAMPLE_LOG_PAIR, 3, 3, 2)
    fa, fb = verify._pair_like((inst.fa, inst.fb), 2.0 * inst.fa.arrays, 2.0 * inst.fb.arrays)
    with pytest.raises(DomainError, match=r"neg_t_log_t: eigenvalue -1\.576006e-01 outside domain"):
        verify._example_log_pair(dataclasses.replace(inst, fa=fa, fb=fb), None)


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
        counts.append(sorted(labels(solve_calls)))
    assert counts[0] and counts[0] == counts[1]


@pytest.mark.parametrize("theorem,solves", [
    # the two A fields as one stack, then both measured pair spectra in one
    # pass, which floors the two B fields
    (TheoremId.SUBADDITIVE, ["eigh"] * 2),
    (TheoremId.JOINT_CONCAVE, ["eigh"] * 2),
    # the probability vectors are stored as drawn: no solve
    (TheoremId.INFO_INEQ, []),
])
def test_draws_solve_their_fields_as_one_stack(solve_calls, theorem, solves):
    random_instance(theorem, 3, 2, 7, LOG, 0.0)
    assert labels(solve_calls) == solves


_FREE_PAIR = [t for t in TheoremId if STATEMENTS[t].family is verify._FREE_PAIR]


def test_free_pair_draw_solves_fa_and_the_pair_spectrum_alone(solve_calls):
    # One pair build: FA's nodes, then the pair spectrum, which floors FB and
    # which the check reuses.  That is two eigh calls on k matrices and no
    # eigvalsh (the window's rescale of B also solved the unscaled pair's
    # eigenvalues), at dim 1 and k = 1 as elsewhere.
    assert len(_FREE_PAIR) == 4
    for theorem, dim in [(t, 3) for t in _FREE_PAIR] + [(TheoremId.KLEIN_UPPER, 1)]:
        k = STATEMENTS[theorem].fixed.get("k", 2)
        solve_calls.clear()
        inst = random_instance(theorem, dim, 2, 20241, power(0.5), 0.5)
        assert [s[:3] for s in solve_calls] == [("eigh", k, dim)] * 2, theorem
        np.testing.assert_array_equal(solve_calls[0].a[0], inst.fa.arrays)
        assert not any(np.array_equal(s.a[0], inst.fb.arrays) for s in solve_calls)
        solve_calls.clear()
        inst.fa.pair_spectrum(inst.fb)
        assert solve_calls == []


def test_map_monotone_applies_the_map_once_and_solves_both_images_together(solve_calls, monkeypatch):
    calls = []
    real = verify.PositiveLinearMap.apply_array

    def counted(self, x):
        calls.append(x.shape)
        return real(self, x)

    monkeypatch.setattr(verify.PositiveLinearMap, "apply_array", counted)
    for dim, k in ((2, 2), (5, 4)):
        inst = random_instance(TheoremId.MAP_MONOTONE, dim, k, 20243, NEG_T_LOG_T, 0.0)
        calls.clear()
        solve_calls.clear()
        result = check(TheoremId.MAP_MONOTONE, inst)
        assert result.hypothesis_met and result.holds
        # fa's nodes, fb's nodes and the lhs aggregate through the map at once
        assert calls == [(2 * k + 1, dim, dim)]
        # FA's image field, the pair spectrum of both images, which floors
        # FB's image, then the verdict's solve
        assert [s[:3] for s in solve_calls[:2]] == [("eigh", k, dim), ("eigh", k, dim)]
        assert labels(solve_calls[2:]) == ["eigvalsh"]


def test_map_image_below_the_floor_skips_naming_the_first_node():
    # A pinching within the normalization tolerance shrinks each node's least
    # eigenvalue by 5e-11 relative, taking fa's second node (and fb's first,
    # whose values differ) below the 1e-12 floor; a-then-b order names fa's.
    shrink = 1.0 - 5e-11
    pmap = verify.PositiveLinearMap([np.diag([1.0, 0.0]), np.diag([0.0, math.sqrt(shrink)])])
    assert pmap.is_normalized()
    low_a, low_b = 1.00000000002e-12, 4.00000000008e-12
    fa = OperatorField([(1.0, np.diag([1.0, 2.0])), (1.0, np.diag([1.0, low_a]))])
    fb = OperatorField([(1.0, np.diag([4.0, low_b])), (1.0, np.diag([3.0, 2.0]))])
    inst = Instance(theorem=TheoremId.MAP_MONOTONE, seed=0, dim=2, k=2, f=LOG, q=0.0, fa=fa, fb=fb, pmap=pmap)
    result = check(TheoremId.MAP_MONOTONE, inst)
    assert not result.hypothesis_met and result.margin is None
    assert result.detail == (
        "map image not positive definite (smallest eigenvalue "
        f"{shrink * low_a:.6e} is not safely positive (largest is 1.000000e+00))"
    )


def test_no_b_side_field_is_eigensolved_on_the_trial_path(solve_calls, monkeypatch):
    # Every B field of a pair, drawn or built by a check, is floored through
    # its pair spectrum: no eigh input holds one of its nodes.
    b_nodes = set()
    real = matcore._relative_spectrum

    def recorded(a, b):
        # + 0.0 turns -0.0 into 0.0, so that equal nodes have equal bytes.
        b_nodes.update((m + 0.0).tobytes() for m in b.reshape(-1, *b.shape[-2:]))
        return real(a, b)

    monkeypatch.setattr(matcore, "_relative_spectrum", recorded)
    report = campaign(CampaignConfig(trials=10, seed=42))
    assert report.error_total == 0 and report.substantive_total == 0
    solved = {(m + 0.0).tobytes() for s in solve_calls if s.label == "eigh" for m in s.a.reshape(-1, s.dim, s.dim)}
    assert b_nodes and solved
    assert not b_nodes & solved


def test_nonnegative_declaration_covering_the_window_skips_the_grid():
    grid_calls = []

    def sqrt(t):
        grid_calls.append(np.size(t) == GRID_POINTS)
        return t ** 0.5

    f = dataclasses.replace(power(0.5), fn=sqrt)
    for seed in range(3):
        grid_calls.clear()
        inst = random_instance(TheoremId.ENTROPY_NONNEG, 3, 2, seed, f, 0.5)
        result = check(TheoremId.ENTROPY_NONNEG, inst)
        # The gate evaluates f at the window's two ends alone, so f sees no
        # grid (it is still evaluated on the spectra).
        assert grid_calls and sum(grid_calls) == 0
        reference = check(TheoremId.ENTROPY_NONNEG, random_instance(
            TheoremId.ENTROPY_NONNEG, 3, 2, seed, power(0.5), 0.5))
        assert result.hypothesis_met and result.margin == reference.margin
    # The window straddles 1, and log is negative at its lower end.
    inst = random_instance(TheoremId.ENTROPY_NONNEG, 3, 2, 0, LOG, 0.5)
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
    fixed = STATEMENTS[theorem].fixed
    if "f" in fixed:
        # The record names the f the instance holds, which the statement fixes.
        want = ["" if fixed["f"] is None else fixed["f"].spec]
    assert {r.function for r in records} == set(want)
    assert all(r.hypothesis_met and r.holds for r in records)


# Per catalog head: specs that cover its parameter range, ends included.
_HEAD_SPECS = {
    "identity": ["identity"], "log": ["log"], "neg_t_log_t": ["neg_t_log_t"],
    "power": ["power:0", "power:0.05", "power:0.5", "power:0.95", "power:1"],
    "const": ["const:0", "const:2"], "affine": ["affine:0,0", "affine:0,1", "affine:0.5,1", "affine:2,0"],
}
_FUNCTION_GATED = [t for t in TheoremId if STATEMENTS[t].nonneg or STATEMENTS[t].below_t_minus_1]


def _recording(f, args):
    """f with every argument of f and f' appended to `args`."""
    return dataclasses.replace(
        f, fn=lambda t: args.append(t) or f.fn(t), deriv=lambda t: args.append(t) or f.deriv(t)
    )


def test_no_gate_evaluates_f_on_an_array(monkeypatch):
    assert set(_HEAD_SPECS) == set(verify.functions._CATALOG) and _FUNCTION_GATED
    # The chord constants are bounds' (a grid search for the linear specs), not a gate.
    monkeypatch.setattr(verify, "chord_ratio_bound", lambda f, lo, hi: 1.0)
    monkeypatch.setattr(verify, "chord_gap_bound", lambda f, lo, hi: 0.0)
    for theorem in _FUNCTION_GATED:
        for spec in (spec for specs in _HEAD_SPECS.values() for spec in specs):
            args = []
            recorded = _recording(parse(spec), args)
            for lo, hi in ((0.5, 2.0), (0.2, 0.9), (1.5, 4.0), (1.0 - 1e-6, 1.0 + 1e-6)):
                try:
                    verify._gate(STATEMENTS[theorem], recorded, lo, hi)
                except verify._Skip:
                    pass
            assert args and not any(isinstance(t, np.ndarray) for t in args), (theorem, spec)
    # power:0.5 is 1 at 1: no tangent line there, so the check skips.
    inst = random_instance(TheoremId.ENTROPY_UPPER, 3, 2, 0, power(0.5))
    skipped = check(TheoremId.ENTROPY_UPPER, inst)
    assert not skipped.hypothesis_met and "exceeds t - 1" in skipped.detail


def test_nonnegativity_gate():
    nonneg = STATEMENTS[TheoremId.ENTROPY_NONNEG]
    for f, lo, hi, met in ((LOG, 1.0, 2.0, True), (LOG, 0.5, 2.0, False),
                           (NEG_T_LOG_T, 0.5, 1.0, True), (NEG_T_LOG_T, 0.5, 2.0, False)):
        if met:
            assert verify._gate(nonneg, f, lo, hi) is None
        else:
            with pytest.raises(verify._Skip, match="negative somewhere"):
                verify._gate(nonneg, f, lo, hi)


def _grid_nonnegative(f, lo, hi):
    """The grid test the nonnegativity gate replaced: the catalog interval
    covers [lo, hi], or f >= -1e-12 on GRID_POINTS points, ends included."""
    low, high = f.nonnegative_on
    ts = np.linspace(lo, hi, GRID_POINTS)
    return low <= lo and hi <= high or float(f.evaluate_array(ts).min()) >= -1e-12


def _grid_below_t_minus_1(f, lo, hi):
    """The grid test the f(t) <= t - 1 gate replaced (tangent at 1, or no excess over the grid)."""
    ts = np.linspace(lo, hi, GRID_POINTS)
    return verify._tangent_at_one(f) or float((f.evaluate_array(ts) - (ts - 1.0)).max()) <= 1e-12


def _gate_passes(theorem, f, lo, hi):
    try:
        verify._gate(STATEMENTS[theorem], f, lo, hi)
    except verify._Skip:
        return False
    return True


@pytest.mark.parametrize("head", sorted(_HEAD_SPECS))
def test_function_gates_decide_as_the_grid_did(head):
    # Seeded windows, and windows with an end within 1e-13 of 1 or at 1 +- 1e-6.
    rng = np.random.default_rng(sorted(_HEAD_SPECS).index(head))
    near_one = [1.0 + s * d for s in (-1.0, 1.0) for d in (1e-14, 1e-13, 1e-12, 1e-11, 1e-6)] + [1.0]
    lows = [float(x) for x in rng.uniform(0.01, 3.0, 40)] + near_one
    windows = [(lo, lo * float(r)) for lo in lows for r in (1.0, *rng.uniform(1.0, 4.0, 2))]
    windows += [(hi / float(rng.uniform(1.0, 4.0)), hi) for hi in near_one]
    # f(t) <= t - 1 is only gated on windows that straddle 1 by 1e-6 (Instance.validate).
    straddling = [(1.0 - 1e-6, 1.0 + 1e-6)] + [(1.0 - 1e-6, float(hi)) for hi in rng.uniform(1.0, 9.0, 10)]
    straddling += [(float(lo), 1.0 + 1e-6) for lo in rng.uniform(0.01, 1.0, 10)]
    straddling += [(float(lo), float(hi)) for lo, hi in zip(rng.uniform(0.01, 1.0 - 1e-6, 40),
                                                            rng.uniform(1.0 + 1e-6, 9.0, 40))]
    for f in map(parse, _HEAD_SPECS[head]):
        for lo, hi in windows:
            want = _grid_nonnegative(f, lo, hi)
            assert _gate_passes(TheoremId.ENTROPY_NONNEG, f, lo, hi) == want, (f.spec, lo, hi)
        for lo, hi in straddling:
            want = _grid_below_t_minus_1(f, lo, hi)
            assert _gate_passes(TheoremId.ENTROPY_UPPER, f, lo, hi) == want, (f.spec, lo, hi)


@pytest.mark.parametrize("theorem", [t for t in TheoremId if STATEMENTS[t].family is verify._NORMALIZED])
def test_tangent_gate_statements_load_only_windows_straddling_one(theorem):
    # Every normalized-family statement loads only windows with m <= 1 - 1e-6
    # and M >= 1 + 1e-6: the tangent rule decides f(t) <= t - 1 exactly only
    # there, and example_log_pair's closed forms need m < 1 < M.  With fb = fa
    # the pair spectrum is {1}, so any window around 1 covers it and only the
    # straddle can refuse.
    payload = random_instance(theorem, 2, 2, 3, LOG, 0.5).to_json()
    payload.update(fb=payload["fa"], t0=1.0)
    for m, M in ((1.0 - 1e-7, 1.0 + 1e-5), (1.0 - 1e-5, 1.0 + 1e-7), (1.0, 2.0)):
        with pytest.raises(PreconditionError, match="1 - 1e-6"):
            Instance.from_json(dict(payload, m=m, M=M))
    assert Instance.from_json(dict(payload, m=1.0 - 1e-6, M=1.0 + 1e-6)).m == 1.0 - 1e-6


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
    assert upper.admits(LOG) and upper.admits(dataclasses.replace(LOG, fn=np.log, deriv=lambda t: 1.0 / t))
    # log's value at 1 with a slope of 2 there: no tangent line at 1.
    assert not upper.admits(dataclasses.replace(LOG, deriv=lambda t: 2.0 / t))
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
    real, calls = verify.check, []

    def check(theorem, inst, tol):
        calls.append(theorem)
        if len(calls) == 1:
            raise error
        return real(theorem, inst, tol)

    monkeypatch.setattr(verify, "check", check)
    report = campaign(CampaignConfig(theorems=(TheoremId.KLEIN_UPPER,), trials=3, seed=2))
    (summary,) = report.summaries
    assert (summary.errors, summary.passes, summary.skips) == (1, 2, 0)
    assert report.records[0].detail == f"error: {error}" and report.failures == []


def test_unresolvable_window_raises_for_gamma_and_zeta():
    # A gamma gate skips only where the ratio bound is undefined; a window too
    # narrow for its chord is an error for both constants, which run_trial counts.
    inst = random_instance(TheoremId.REV_JENSEN_GAMMA, 2, 2, 0, LOG)
    inst.m, inst.M = 3.0, 3.0000000000000004
    for theorem in (TheoremId.REV_JENSEN_GAMMA, TheoremId.REV_JENSEN_ZETA):
        with pytest.raises(UnresolvableWindowError, match="too narrow"):
            check(theorem, dataclasses.replace(inst, theorem=theorem))


@pytest.mark.parametrize("theorem,drawn,dim,k,seed,message", [
    (TheoremId.REV_ENTROPY_ZETA, TheoremId.MEAN_INTEGRAL, 3, 2, 7, "needs 'm'"),
    (TheoremId.REV_ENTROPY_ZETA, TheoremId.REV_JENSEN_ZETA, 2, 2, 0, "needs 'fa'"),
    (TheoremId.REV_ENTROPY_ZETA, TheoremId.INFO_INEQ, 3, 1, 0, "needs 'fa'"),
    (TheoremId.KLEIN_UPPER, TheoremId.MEAN_INTEGRAL, 3, 3, 0, "'k' fixed at 1, got 3"),
], ids=["no window", "no fields", "no fields (probability)", "k fixed"])
def test_an_instance_of_another_statement_is_validated_as_its_own(theorem, drawn, dim, k, seed, message):
    # These crashed with TypeError or AttributeError, or (k fixed) passed
    # unchecked; an instance drawn for the statement itself is not re-validated.
    inst = random_instance(drawn, dim, k, seed)
    with pytest.raises(PreconditionError, match=message):
        check(theorem, inst)


@pytest.mark.parametrize("theorem,slot,key", [
    (TheoremId.REV_JENSEN_ZETA, "m", "m"),
    (TheoremId.MEAN_INTEGRAL, "fb", "fb"),
    (TheoremId.REV_ENTROPY_ZETA, "t0", "t0"),
    (TheoremId.INFO_INEQ, "pb", "pb"),
    (TheoremId.ENTROPY_LOWER, "q", "q"),
    (TheoremId.ENTROPY_LOWER, "f", "f"),
    (TheoremId.COMPRESSION_JENSEN, "pmap", "map"),
], ids=lambda value: getattr(value, "value", value))
def test_check_refuses_its_own_statement_with_a_missing_slot(theorem, slot, key):
    # These raised TypeError or AttributeError inside the builder or the gate.
    inst = dataclasses.replace(random_instance(theorem, 3, 2, 0), **{slot: None})
    with pytest.raises(PreconditionError, match=f"^a {theorem.value} instance needs '{key}', which is missing$"):
        check(theorem, inst)


def test_a_draw_runs_no_load_time_check(monkeypatch):
    # The projections build in every rule of `Instance.validate` but those on
    # the arguments, so neither it nor a family's validator runs on a draw.
    def refuse(*args):
        raise AssertionError("a draw ran a load-time check")

    least_k = {t: 2 if st.family is verify._NORMALIZED else 1 for t, st in STATEMENTS.items()}
    monkeypatch.setattr(Instance, "validate", refuse)
    for theorem, st in list(STATEMENTS.items()):
        monkeypatch.setitem(STATEMENTS, theorem, dataclasses.replace(
            st, family=dataclasses.replace(st.family, validate=refuse),
            extras=dataclasses.replace(st.extras, validate=refuse)))
    for theorem in TheoremId:
        for dim, k in {(3, 2), (1, least_k[theorem])}:
            assert random_instance(theorem, dim, k, 0).dim == dim
    # What an argument can break is still refused, after the projection's own refusals.
    for theorem in (TheoremId.HOMOGENEOUS, TheoremId.ENTROPY_LOWER):
        with pytest.raises(PreconditionError, match="^a .* instance needs 'q', which is missing$"):
            random_instance(theorem, 3, 2, 0, p_or_q=None)
    with pytest.raises(PreconditionError, match="need k >= 2"):
        random_instance(TheoremId.ENTROPY_LOWER, 3, 1, 0, p_or_q=1.5)
    with pytest.raises(PreconditionError, match=r"the exponent q must lie in \[0.0, 1.0\], got 1.5"):
        random_instance(TheoremId.ENTROPY_LOWER, 3, 2, 0, p_or_q=1.5)


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


# The statements whose window covers a pair spectrum.
_PAIRED = [t for t in TheoremId if STATEMENTS[t].family is verify._NORMALIZED]


@pytest.mark.parametrize("theorem", [t for t in TheoremId if "m" in STATEMENTS[t].needs])
def test_window_must_lie_in_the_positive_half_line(theorem):
    payload = random_instance(theorem, 2, 2, 5).to_json()
    # A non-finite end is refused as it is decoded, by the number rule.
    for m, M, message in ((-1.0, payload["M"], "0 < m <= M < inf"), (0.0, payload["M"], "0 < m <= M < inf"),
                          (math.nan, payload["M"], "'m': must be finite, got nan"),
                          (payload["m"], math.inf, "'M': must be finite, got inf"),
                          (payload["m"], math.nan, "'M': must be finite, got nan"),
                          (payload["M"] + 1.0, payload["M"], "0 < m <= M < inf")):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            Instance.from_json(dict(payload, m=m, M=M))


# The slots a draw fills past the header.
_DRAWN = tuple(slot for slot in verify._SLOTS if slot not in verify._HEADER)


class _SlotReads(Instance):
    """An instance that records which of its slots past the header are read."""

    def __getattribute__(self, name):
        if name in _DRAWN:
            object.__getattribute__(self, "slot_reads").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
def test_a_slot_is_stored_wherever_a_check_reads_it(theorem):
    # The hypotheses read q for a unit exponent, and f and [m, M] for a
    # function gate; a builder reads what it reads.  A draw stores exactly
    # those slots and the ones the statement fixes, so no check is handed a
    # None slot, no stored slot goes unread, and a family that stores no
    # window has no gate.
    st = STATEMENTS[theorem]
    inst = random_instance(theorem, 3, 2, 5, LOG if st.below_t_minus_1 else power(0.5), 0.5)
    reads = {"q"} if st.unit_exponent else set()
    if st.nonneg or st.below_t_minus_1 or st.constant:
        reads |= {"f", "m", "M"}
    recording = _SlotReads(**{f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)})
    recording.slot_reads = set()
    st.build(recording, verify._gate(st, inst.f, inst.m, inst.M))
    reads |= recording.slot_reads
    stored = {slot for slot in _DRAWN if getattr(inst, slot) is not None and slot not in st.fixed}
    assert reads == stored == set(st.needs)
    # A slot fixed at None is neither drawn nor written.
    payload = inst.to_json()
    assert all(getattr(inst, slot) is None and slot not in payload for slot, value in st.fixed.items() if value is None)
    if "m" not in stored:
        assert verify._gate(st, inst.f, None, None) is None and "m" not in payload


def test_a_free_pair_file_with_a_window_replays_bit_for_bit():
    # Written by `opentropy gen --theorem homogeneous --dim 3 --k 2 --seed 7`
    # while the free-pair family still stored a window: the file carries m
    # and M, and a B that the draw rescaled by 1/sqrt(mM).  The window is
    # ignored, and the check reads what it read then, bit for bit.
    payload = json.loads((Path(__file__).parent / "data" / "homogeneous-windowed.json").read_text())
    assert {"m", "M"} <= set(payload)
    inst = Instance.from_json(payload)
    assert check(TheoremId.HOMOGENEOUS, inst).to_json() == {
        "theorem": "homogeneous", "holds": True, "margin": -1.0835573688247985e-15,
        "lhs_norm": 2.5313796245718936, "rhs_norm": 2.531379624571893, "hypothesis_met": True,
        "detail": "homogeneity at alpha=0.5, q=0.5 (two-sided margin)", "triage": None,
    }
    # The window, which no draw of the statement fills, is not read or written back.
    assert inst.m is None and inst.M is None and not {"m", "M"} & set(inst.to_json())
    # The same key now draws the same FA and alpha, and B unscaled.
    drawn = random_instance(TheoremId.HOMOGENEOUS, 3, 2, 7)
    np.testing.assert_array_equal(drawn.fa.arrays, inst.fa.arrays)
    assert drawn.alpha == inst.alpha and drawn.m is None and drawn.M is None
    scale = drawn.fb.arrays[0, 0, 0].real / inst.fb.arrays[0, 0, 0].real
    assert scale != 1.0
    np.testing.assert_allclose(drawn.fb.arrays, scale * inst.fb.arrays, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("name,unread,margin,lhs_norm,rhs_norm,detail", [
    ("compression-jensen-with-q", "q", 0.004285549923040199, 1.3747558659797416, 1.349602466606977,
     "lifted Jensen inequality for a sub-unital compression family"),
    ("entropy-nonneg-with-t0", "t0", 0.9999999999999999, 0.0, 1.000000000000001,
     "nonnegativity of the aggregated entropy at q=0.5"),
], ids=["compression_jensen", "entropy_nonneg"])
def test_a_file_with_an_unread_slot_replays_bit_for_bit(name, unread, margin, lhs_norm, rhs_norm, detail):
    # Written by `opentropy gen --dim 3 --k 2 --seed 7` while every draw
    # stored q and t0.  The slot, which the check does not read, is ignored:
    # the check reads what it read then, bit for bit, and the slot is not
    # written back.
    payload = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
    inst = Instance.from_json(payload)
    assert check(inst.theorem, inst).to_json() == {
        "theorem": inst.theorem.value, "holds": True, "margin": margin, "lhs_norm": lhs_norm,
        "rhs_norm": rhs_norm, "hypothesis_met": True, "detail": detail, "triage": None,
    }
    assert getattr(inst, unread) is None
    assert inst.to_json() == {key: value for key, value in payload.items() if key != unread}


@pytest.mark.parametrize("theorem,edit", [
    ("klein_upper", {"f": "power:0.5"}), ("info_ineq", {"f": "neg_t_log_t"}),
    ("subadditive", {"q": 0.5}), ("joint_concave", {"q": 1.0}), ("map_monotone", {"q": 0.25}),
])
def test_a_slot_the_statement_fixes_must_hold_its_value(theorem, edit):
    payload = random_instance(TheoremId(theorem), 3, 2, 0).to_json()
    (key, value), = edit.items()
    with pytest.raises(PreconditionError, match=f"{key!r} fixed at .*, got {value!r}"):
        Instance.from_json(dict(payload, **edit))
    # A statement that leaves the slot free takes any value.
    Instance.from_json(dict(random_instance(TheoremId.HOMOGENEOUS, 3, 2, 0).to_json(), q=0.75))


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
    assert check(theorem, widened).triage != "substantive"


def test_nonfinite_side_is_an_error_before_the_solve():
    # The eigensolver reads diag(nan, 1) as [0, -0], which would pass.
    sides = verify.Sides([(np.diag([np.nan, 1.0]), "<=", 2.0 * np.eye(2))], "x")
    result = verify._verdict(TheoremId.ENTROPY_NONNEG, sides, 1e-9)
    assert not result.hypothesis_met and not result.holds and result.margin is None
    assert result.detail == "error: non-finite margin"


def test_the_verdict_and_loewner_leq_are_one_test(rng):
    # One claim A <= B on exactly Hermitian sides: the same margin, norms and verdict.
    for _ in range(20):
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4) + 0.2 * np.eye(4)
        result = verify._verdict(TheoremId.ENTROPY_NONNEG, verify.Sides([(a, "<=", b)], "x"), 1e-9)
        assert (result.holds, result.margin) == matcore.loewner_leq(a, b, 1e-9)
        assert (result.lhs_norm, result.rhs_norm) == tuple(float(np.abs(np.linalg.eigvalsh(x)).max()) for x in (a, b))


def test_the_verdict_labels_violations_by_the_rule_at_1e_6():
    # Norms 2 and 2 + shortfall: a shortfall of 1e-9 is float noise at 1e-6, one of 1 is not.
    for shortfall, tol, label in ((0.0, 0.0, None), (1e-9, 1e-12, "numerical"), (1e-9, 1e-8, None),
                                  (1.0, 1e-12, "substantive"), (1.0, 0.1, "substantive")):
        sides = verify.Sides([((2.0 + shortfall) * np.eye(2), "<=", 2.0 * np.eye(2))], "x")
        result = verify._verdict(TheoremId.ENTROPY_NONNEG, sides, tol)
        assert result.holds == (label is None) and result.triage == label, (shortfall, tol)


def _two_point_witness(theorem, f, which):
    """X = diag(m, M) on [m, M] = [0.5, 2] and the state-induced compression
    C_j = x e_j*, with |x_1|^2 = (M - t*)/(M - m) at the chord constant's
    argmax t*: then Phi(X) = t* I and Phi(f(X)) is the chord at t*, so the
    reverse Jensen statement holds with equality."""
    m, M = 0.5, 2.0
    t_star = getattr(secant_data(f, m, M), which)
    x = np.sqrt([(M - t_star) / (M - m), (t_star - m) / (M - m)])
    kraus = [np.outer(x, e).astype(complex) for e in np.eye(2)]
    inst = Instance(theorem, 0, 2, 2, f=f, t0=m, m=m, M=M, pmap=PositiveLinearMap(kraus),
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


@pytest.mark.parametrize("q", [-1.0, -0.5, 1.5, 2.0, 3.0])
def test_exponents_outside_the_unit_interval_hold(q):
    # These statements declare no range on q, and no default campaign
    # draws one outside [0, 1].
    theorems = (TheoremId.ENTROPY_NONNEG, TheoremId.ENTROPY_UPPER, TheoremId.HOMOGENEOUS)
    config = CampaignConfig(theorems=theorems, trials=40, dims=(2, 6), exponents=(q,), seed=11)
    report = campaign(config)
    assert [s.passes for s in report.summaries] == [40, 40, 40]
    assert len(report.records) == 120
    assert all(r.exponent == q and r.hypothesis_met and r.holds for r in report.records)
    assert {r.dim for r in report.records} == {2, 3, 4, 5, 6}


def _replace_family(monkeypatch, theorem, **changes):
    """STATEMENTS[theorem] with its family record's fields replaced, for one test."""
    st = STATEMENTS[theorem]
    monkeypatch.setitem(STATEMENTS, theorem, dataclasses.replace(st, family=dataclasses.replace(st.family, **changes)))


def test_a_family_that_never_accepts_fails_generation_after_the_cap(monkeypatch):
    theorem, draws = TheoremId.KLEIN_UPPER, []
    family = STATEMENTS[theorem].family
    _replace_family(monkeypatch, theorem, draw=lambda *args: draws.append(args) or family.draw(*args),
                    project=lambda raw: None)
    with pytest.raises(GenerationError, match=f"in {verify._RESAMPLE_CAP} attempts"):
        random_instance(theorem, 2, 1, 0)
    assert len(draws) == verify._RESAMPLE_CAP
    record, inst, result = run_trial(theorem, SMALL, trial_seed(7, theorem, 0))
    assert inst is None and result.margin is None
    assert not record.hypothesis_met and record.holds and record.detail.startswith("generation failed: no klein_upper")


def test_a_rejected_attempt_is_drawn_again(monkeypatch):
    theorem, raws, projected = TheoremId.SUBADDITIVE, [], []
    family = STATEMENTS[theorem].family

    def project(raw):
        raws.append(raw)
        if len(raws) > 1:
            projected.append(family.project(raw))
            return projected[-1]
        return None

    _replace_family(monkeypatch, theorem, project=project)
    inst = random_instance(theorem, 3, 2, 7, LOG, 0.0)
    assert len(raws) == 2 and len(projected) == 1
    assert all(getattr(inst, slot) is value for slot, value in zip(family.slots, projected[0]))
    monkeypatch.undo()
    # Unpatched, the same seed keeps the first attempt.
    first = random_instance(theorem, 3, 2, 7, LOG, 0.0)
    np.testing.assert_array_equal(first.fa.arrays, family.project(raws[0])[0].arrays)
    assert not np.array_equal(first.fa.arrays, inst.fa.arrays)


def _perturbed(raw, rng):
    """The raw arrays of a draw moved off the draw's distribution: real ones
    (weights, probabilities) scaled by factors in [1/2, 2] and
    shifted down by 0.1 where they are probabilities (so that the clip acts),
    complex Gaussians shifted by another."""

    def move(x):
        if not isinstance(x, np.ndarray):
            return x
        if np.iscomplexobj(x):
            return x + 0.5 * matcore._cgauss(rng, x.shape)
        return x * np.exp(rng.uniform(-0.7, 0.7, x.shape))

    return tuple(map(move, raw)) if isinstance(raw, tuple) else move(raw) - 0.1


def _first_array(values):
    first = values[0]
    if isinstance(first, OperatorField):
        return first.arrays
    return np.array(first.kraus) if isinstance(first, PositiveLinearMap) else np.array(first)


def test_a_draw_makes_only_generator_calls(monkeypatch):
    # Every factorization of an attempt is its project's: with matcore's LAPACK
    # entry refusing, each family's and each extra's draw still runs.
    def refuse(*args, **kwargs):
        raise AssertionError("a draw called matcore's LAPACK entry")

    monkeypatch.setattr(matcore, "_lapack", refuse)
    for theorem, st in STATEMENTS.items():
        for dim, k in itertools.product((1, 2, 3), (1, 2, 3)):
            for family in (st.family, st.extras):
                family.draw(np.random.default_rng(dim * 10 + k), dim, k)


@pytest.mark.parametrize("theorem", list({STATEMENTS[t].family: t for t in TheoremId}.values()),
                         ids=lambda t: t.value)
def test_projection_restores_the_family_constraints(theorem):
    st, rng = STATEMENTS[theorem], np.random.default_rng(29)
    family, accepted, moved = st.family, 0, 0
    least_k = 2 if family is verify._NORMALIZED else 1
    for dim, k in ((1, 1), (1, 3), (2, 1), (3, 2), (4, 3), (5, 2)):
        k = st.fixed.get("k", max(k, least_k))
        for seed in range(4):
            raw = family.draw(np.random.default_rng(seed), dim, k)
            values = family.project(_perturbed(raw, rng))
            if values is None:
                continue
            inst = Instance(theorem, seed, dim, **{"k": k, "f": power(0.5), "q": 0.5, **st.fixed})
            for slot, value in zip(family.slots, values):
                setattr(inst, slot, value)
            if "t0" in family.slots:
                inst.t0 = float(rng.uniform(inst.m, inst.M))
            for slot, value in zip(st.extras.slots, st.extras.project(st.extras.draw(rng, dim, k))):
                setattr(inst, slot, value)
            inst.validate()
            unperturbed = family.project(raw)
            moved += unperturbed is None or not np.array_equal(_first_array(values), _first_array(unperturbed))
            accepted += 1
    # Only a dim-1 probability vector, always [1], cannot move.
    assert accepted >= 20 and moved >= accepted - 8, (accepted, moved)


def test_outcome_names_each_flag_combination():
    cases = {"pass": (True, True, None), "skip": (False, True, None), "error": (False, False, None),
             "numerical": (True, False, "numerical"), "substantive": (True, False, "substantive")}
    for name, (met, holds, triage) in cases.items():
        result = verify.VerificationResult(TheoremId.KLEIN_UPPER, holds, None, 0.0, 0.0, met, "", triage)
        record = verify.TrialRecord(TheoremId.KLEIN_UPPER, 0, 0, 2, 1, "log", 0.0, met, holds, None, triage, "")
        assert result.outcome == record.outcome == name
        assert "outcome" not in result.to_json() and "outcome" not in record.to_json()
    assert verify._CSV_COLUMNS == ("theorem", "index", "seed", "dim", "k", "function", "exponent",
                                   "hypothesis_met", "holds", "margin", "triage")


def test_the_record_describes_the_checked_instance():
    # Records held the trial's draws: klein_upper's trial 0 read k=4 and
    # power:0.5 for an instance with k=1 and log, subadditive's trial 1 read
    # exponent 0.75 for q=0.0.
    config = CampaignConfig(trials=2, seed=42)
    klein = run_trial(TheoremId.KLEIN_UPPER, config, trial_seed(42, TheoremId.KLEIN_UPPER, 0), 0)[0]
    assert (klein.k, klein.function) == (1, "log")
    assert run_trial(TheoremId.SUBADDITIVE, config, trial_seed(42, TheoremId.SUBADDITIVE, 1), 1)[0].exponent == 0.0
    for theorem in (t for t in TheoremId if STATEMENTS[t].fixed):
        for i in range(2):
            record, inst, _ = run_trial(theorem, config, trial_seed(42, theorem, i), i)
            assert (record.k, record.function, record.exponent) == (inst.k, inst.f.spec if inst.f else "", inst.q)
    # With no instance the record keeps the trial's draws.
    record, inst, _ = run_trial(TheoremId.ENTROPY_LOWER, CampaignConfig(terms=(1, 1)), 7)
    assert inst is None and record.outcome == "error" and record.k == 1 and record.function in SMALL.functions


def test_one_key_check_serves_every_draw():
    for key in (-1, 2**128):
        with pytest.raises(PreconditionError, match=r"seed must lie in \[0, 2\*\*128\)"):
            run_trial(TheoremId.KLEIN_UPPER, SMALL, key)
        with pytest.raises(PreconditionError, match=r"seed must lie in \[0, 2\*\*128\)"):
            random_instance(TheoremId.KLEIN_UPPER, 2, 1, key)
    # A numpy integer key draws as the int it holds.
    assert random_instance(TheoremId.KLEIN_UPPER, 2, 1, np.int64(5)).to_json() == \
        random_instance(TheoremId.KLEIN_UPPER, 2, 1, 5).to_json()


# Premise controls: each row breaks one hypothesis of a statement after a
# normal draw (d = k = 3, seeds 0-99) and calls the statement's builder
# directly, so no gate refuses the broken instance.  A failure is a margin
# below -1e-8, or a side that leaves f's domain; the counts are the observed
# ones.


def _zeta_on_shrunk_window(inst, fraction):
    """zeta of log on [m, M] shrunk about its centre to `fraction` of its length."""
    centre, half = (inst.m + inst.M) / 2.0, fraction * (inst.M - inst.m) / 2.0
    return chord_gap_bound(LOG, centre - half, centre + half)


def _with_kraus(inst, kraus):
    return dataclasses.replace(inst, pmap=PositiveLinearMap(kraus))


def _scaled_compression(build, constant, scale):
    """`build` on the instance with every Kraus factor scaled by `scale`, which
    takes Phi(I) above I, with the statement's chord constant on the window."""
    return lambda inst: build(_with_kraus(inst, [scale * c for c in inst.pmap.kraus]),
                              constant and constant(inst.f, inst.m, inst.M))


def _scaled_fields(build, constant, c):
    """`build` on the instance with both fields' nodes scaled by c, with the
    statement's chord constant on the window, which still holds the pair spectra."""
    def scaled(inst):
        fa, fb = verify._pair_like((inst.fa, inst.fb), c * inst.fa.arrays, c * inst.fb.arrays)
        return build(dataclasses.replace(inst, fa=fa, fb=fb), constant and constant(inst.f, inst.m, inst.M))
    return scaled


# t^2 as a catalog entry (f, f', the interval where f >= 0): operator convex, not operator concave.
SQUARE = ("square", lambda: ((lambda t: t * t), (lambda t: 2.0 * t), (0.0, math.inf)))


def _first_factor_scaled(inst, scale):
    """A 3-factor normalized map drawn from the instance's seed, its first factor scaled by `scale`."""
    kraus = list(PositiveLinearMap.random_normalized(3, 3, 3, np.random.default_rng(inst.seed)).kraus)
    return _with_kraus(inst, [scale * kraus[0], *kraus[1:]])


PREMISE_CONTROLS = {
    # The unit exponent: the node-wise power means exceed the power mean of
    # the integrals on every draw once p leaves [0, 1].
    **{f"mean_integral p={p:g}": (
        TheoremId.MEAN_INTEGRAL, None,
        lambda inst, p=p: verify._mean_integral(dataclasses.replace(inst, q=p), None), 100,
    ) for p in (1.5, 2.0, -0.5)},
    # f >= 0 on the window: log and -t log t are each negative on one side of
    # 1, which every normalized window holds in its interior.
    **{f"entropy_nonneg ({spec})": (
        TheoremId.ENTROPY_NONNEG, parse(spec), lambda inst: verify._entropy_nonneg(inst, None), count,
    ) for spec, count in (("log", 96), ("neg_t_log_t", 100))},
    # f(t) <= t - 1: the powers and the identity exceed t - 1 next to 1.  So
    # does -t log t, above t - 1 on (0, 1) and below it on (1, oo), yet no
    # draw at q = 0.5 or q = 1 fails.  At q = 0 none can: the claim is then
    # Klein's bound S(B|A) <= A - B summed over a normalized pair, where
    # sum w (A - B) = 0.  At q = -0.5 every draw fails (log, which meets the
    # premise, fails none there), so the premise is exercised below q = 0.
    **{f"entropy_upper ({spec})": (
        TheoremId.ENTROPY_UPPER, parse(spec), lambda inst: verify._entropy_upper(inst, None), count,
    ) for spec, count in (("power:0.5", 100), ("power:0.25", 100), ("identity", 100), ("neg_t_log_t", 0))},
    **{f"entropy_upper (neg_t_log_t) q={q:g}": (
        TheoremId.ENTROPY_UPPER, NEG_T_LOG_T,
        lambda inst, q=q: verify._entropy_upper(dataclasses.replace(inst, q=q), None), count,
    ) for q, count in ((0.0, 0), (1.0, 0), (-0.5, 100))},
    # The normalized resolution sum w A = sum w B = I: with both fields scaled
    # by c the pair spectra, the window and t0 stay, and sum w A = sum w B = cI.
    # Only c > 1 fails: the claims are the lifted Jensen inequality and its
    # reverses for Psi(X) = sum w K* X K with K = T^{p/2} A^{1/2}, where
    # Psi(I) = V, Psi(T) + t0 (I - V) = W and Psi(f(T)) = S_p, so they need
    # only V <= I; the power mean is jointly concave (`mean_integral`), so
    # V <= (sum w A) #_p (sum w B) = cI, which every c <= 1 keeps below I.
    **{f"{theorem.value} ({spec}) fields x{c:g}": (
        theorem, parse(spec), _scaled_fields(build, constant, c), count,
    ) for theorem, spec, build, constant, scales in (
        (TheoremId.ENTROPY_LOWER, "power:0.5", verify._entropy_lower, None, ((0.9, 0), (1.1, 5), (1.25, 28))),
        (TheoremId.REV_ENTROPY_ZETA, "log", verify._rev_entropy_zeta, chord_gap_bound, ((0.9, 0), (1.5, 22))),
    ) for c, count in scales},
    # example_log_pair's two claims are rev_entropy_zeta's, for -t log t and
    # log at the closed-form zetas, so the same V <= I argument holds: only
    # c > 1 fails.  At c = 1.5 (3 draws) and 2.0 (23) W leaves the domain.
    **{f"example_log_pair fields x{c:g}": (
        TheoremId.EXAMPLE_LOG_PAIR, None, _scaled_fields(verify._example_log_pair, None, c), count,
    ) for c, count in ((0.9, 0), (1.1, 0), (1.5, 45), (2.0, 81))},
    # Probability vectors: by the log-sum inequality sum a log(a/b) >=
    # (sum a) log(sum a / sum b), so the divergence stays >= 0 whenever
    # sum a >= sum b; the premise is needed only as that.
    **{f"info_ineq {slot} x{c:g}": (
        TheoremId.INFO_INEQ, None,
        lambda inst, slot=slot, c=c: verify._info_ineq(dataclasses.replace(inst, **{slot: c * getattr(inst, slot)}),
                                                       None), count,
    ) for slot, c, count in (("pa", 0.9, 22), ("pb", 1.1, 22), ("pa", 1.1, 0), ("pb", 0.9, 0))},
    # Operator concavity of f: every catalog entry has it, so these rows use
    # t^2, which is operator convex, added to the catalog for the test only
    # (`SQUARE`).  Both claims are the lifted Jensen inequality (for Phi, and
    # for the Psi of the `fields x` rows above), which an operator convex f
    # reverses: every draw fails.
    **{f"{theorem.value} (square)": (
        theorem, None, lambda inst, build=build: build(dataclasses.replace(inst, f=parse("square")), None), 100,
    ) for theorem, build in ((TheoremId.COMPRESSION_JENSEN, verify._compression_jensen),
                             (TheoremId.ENTROPY_LOWER, verify._entropy_lower))},
    # The window covering X's spectrum: a zeta taken on a shrunk window is too
    # small for the spectrum it no longer covers.
    "rev_jensen_zeta window 90%": (
        TheoremId.REV_JENSEN_ZETA, LOG,
        lambda inst: verify._rev_jensen_zeta(inst, _zeta_on_shrunk_window(inst, 0.9)), 36,
    ),
    "rev_jensen_zeta window 50%": (
        TheoremId.REV_JENSEN_ZETA, LOG,
        lambda inst: verify._rev_jensen_zeta(inst, _zeta_on_shrunk_window(inst, 0.5)), 100,
    ),
    # alpha + beta = 1 is not needed: S_0 is jointly concave and positively
    # homogeneous, hence superadditive, so S_0(aP1 + bP2) >= S_0(aP1) + S_0(bP2)
    # = a S_0(P1) + b S_0(P2) for every a, b > 0.
    **{f"joint_concave alpha={a:g} beta={b:g}": (
        TheoremId.JOINT_CONCAVE, None,
        lambda inst, a=a, b=b: verify._joint_concave(dataclasses.replace(inst, alpha=a, beta=b), None), 0,
    ) for a, b in ((0.3, 0.3), (0.9, 0.9), (2.0, 0.5))},
    # Sub-unital compressions: with every Kraus factor scaled past 1 the
    # defect I - Phi(I) is negative somewhere, and the claims fail on some
    # draws (each by its margin: no lifted argument here leaves f's domain).
    **{f"{theorem.value} ({spec}) Kraus x{scale:g}": (
        theorem, parse(spec), _scaled_compression(build, constant, scale), count,
    ) for theorem, spec, build, constant, counts in (
        (TheoremId.COMPRESSION_JENSEN, "power:0.5", verify._compression_jensen, None, (5, 12)),
        (TheoremId.REV_JENSEN_GAMMA, "power:0.5", verify._rev_jensen_gamma, chord_ratio_bound, (2, 2)),
        (TheoremId.REV_JENSEN_ZETA, "log", verify._rev_jensen_zeta, chord_gap_bound, (1, 2)),
        (TheoremId.REV_JENSEN_ZETA, "power:0.5", verify._rev_jensen_zeta, chord_gap_bound, (1, 3)),
    ) for scale, count in zip((1.05, 1.1), counts)},
    # A normalized map is not needed: for every positive linear Phi, Ando's
    # inequality Phi(A s B) <= Phi(A) s Phi(B) holds for each operator mean s,
    # and S_0 is the perspective of a mean (f = t^p) or the derivative of one
    # at 0 (log gives S(A|B), -t log t gives S(B|A)).
    **{f"map_monotone ({spec}) {name}": (
        TheoremId.MAP_MONOTONE, parse(spec),
        lambda inst, override=override: verify._map_monotone(override(inst), None), 0,
    ) for spec in ("power:0.5", "power:0.25", "log", "neg_t_log_t") for name, override in (
        *((f"first factor x{c:g}", lambda inst, c=c: _first_factor_scaled(inst, c)) for c in (0.3, 2.0, 4.0)),
        *((f"every factor x{c:g}", lambda inst, c=c: _with_kraus(inst, [c * k for k in inst.pmap.kraus]))
          for c in (1.5, 3.0)),
    )},
}


def _broken_premise_fails(theorem, f, build, seed) -> bool:
    inst = random_instance(theorem, 3, 3, seed, f)
    try:
        sides = build(inst)
    except DomainError:
        return True
    return verify._verdict(theorem, sides, matcore.DEFAULT_LOEWNER_TOL).margin < -1e-8


@pytest.mark.parametrize("name", PREMISE_CONTROLS)
def test_a_broken_premise_fails_as_often_as_observed(name, monkeypatch):
    monkeypatch.setitem(verify.functions._CATALOG, *SQUARE)
    theorem, f, build, expected = PREMISE_CONTROLS[name]
    assert sum(_broken_premise_fails(theorem, f, build, seed) for seed in range(100)) == expected


@pytest.mark.parametrize("alpha", [0.0, -0.5, -2.0])
def test_a_nonpositive_alpha_is_refused_by_the_pd_floor(alpha):
    # alpha > 0 of `homogeneous` has no count: alpha A is not positive
    # definite for alpha <= 0, so the builder's pair solve refuses every
    # such draw before a side is built (and `Instance.validate` at load).
    build = lambda inst: verify._homogeneous(dataclasses.replace(inst, alpha=alpha), None)
    for seed in range(100):
        with pytest.raises(NotPositiveDefiniteError):
            _broken_premise_fails(TheoremId.HOMOGENEOUS, power(0.5), build, seed)
