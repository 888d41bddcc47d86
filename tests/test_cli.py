import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opentropy import cli, verify
from opentropy.cli import build_parser, main
from opentropy.errors import EigenConvergenceError
from opentropy.functions import power
from opentropy.maps import PositiveLinearMap
from opentropy.verify import CampaignConfig, Instance, TheoremId, _matrix_to_json, campaign, check, random_instance

from conftest import ENTRY, rebind_entry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_valid_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, _, err = run(
            capsys, "gen", "--theorem", "entropy_lower", "--dim", "2", "--k", "2",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0 and "entropy_lower" in err
        inst = Instance.from_json(json.loads(out.read_text()))
        assert inst.dim == 2 and inst.k == 2 and inst.seed == 7

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run(
                capsys, "gen", "--theorem", "klein_upper", "--dim", "3", "--k", "1",
                "--seed", "123", "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_invalid_dim_exits_2(self, capsys):
        code, _, _ = run(capsys, "gen", "--theorem", "entropy_lower", "--dim", "0",
                         "--k", "2", "--seed", "7")
        assert code == 2

    @pytest.mark.parametrize("q", ["inf", "nan"])
    def test_nonfinite_exponent_exits_2(self, tmp_path, capsys, q):
        out = tmp_path / "inst.json"
        code, _, err = run(capsys, "gen", "--theorem", "homogeneous", "--dim", "2", "--k", "2",
                           "--seed", "0", "--q", q, "--out", str(out))
        assert code == 2 and "finite" in err and not out.exists()

    def test_unknown_theorem_exits_2(self, capsys):
        code, _, _ = run(capsys, "gen", "--theorem", "nonsense", "--dim", "2",
                         "--k", "2", "--seed", "7")
        assert code == 2

    @pytest.mark.parametrize("seed", [str(-1), str(2**128), str(2**130 + 5)])
    def test_seed_outside_the_key_range_exits_2(self, tmp_path, capsys, seed):
        # A seed of 2**128 + s would otherwise alias the key s.
        out = tmp_path / "inst.json"
        code, stdout, err = run(capsys, "gen", "--theorem", "klein_upper", "--dim", "2", "--k", "1",
                                "--seed", seed, "--out", str(out))
        assert code == 2 and "seed must lie in [0, 2**128)" in err and not out.exists()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        # It crashed with exit 3 and a traceback.
        out = tmp_path / "missing" / "inst.json"
        code, stdout, err = run(capsys, "gen", "--theorem", "klein_upper", "--dim", "2", "--k", "1",
                                "--seed", "0", "--out", str(out))
        assert code == 2 and stdout == "" and not out.parent.exists()
        assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err

    def test_largest_key_draws(self, capsys):
        code, stdout, _ = run(capsys, "gen", "--theorem", "klein_upper", "--dim", "2", "--k", "1",
                              "--seed", str(2**128 - 1))
        assert code == 0 and json.loads(stdout)["seed"] == 2**128 - 1

    def test_campaign_records_replay_through_gen(self, capsys):
        # The record's seed is the trial's key, and gen draws the campaign's
        # instance from it with the record's dim, k, f and q.
        report = campaign(CampaignConfig(theorems=(TheoremId.ENTROPY_LOWER,), trials=3, seed=42))
        for record in report.records:
            code, stdout, _ = run(capsys, "gen", "--theorem", "entropy_lower", "--dim", str(record.dim),
                                  "--k", str(record.k), "--seed", str(record.seed), "--f", record.function,
                                  "--q", repr(record.exponent))
            assert code == 0
            replayed = Instance.from_json(json.loads(stdout))
            assert check(TheoremId.ENTROPY_LOWER, replayed).margin == record.margin

    @pytest.mark.parametrize("theorem", ["mean_integral", "klein_upper", "subadditive", "example_log_pair"])
    def test_records_of_fixed_slots_replay_through_gen(self, capsys, theorem):
        # The record holds the instance's k, f and q; gen takes no --f where
        # the instance holds no f, and no --q where it holds no exponent.
        report = campaign(CampaignConfig(theorems=(TheoremId(theorem),), trials=3, seed=42))
        for record in report.records:
            f = ["--f", record.function] if record.function else []
            q = [] if record.exponent is None else ["--q", repr(record.exponent)]
            code, stdout, _ = run(capsys, "gen", "--theorem", theorem, "--dim", str(record.dim),
                                  "--k", str(record.k), "--seed", str(record.seed), *f, *q)
            assert code == 0
            replayed = Instance.from_json(json.loads(stdout))
            assert check(TheoremId(theorem), replayed).margin == record.margin


class TestCheck:
    def test_roundtrip_holds(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", "info_ineq", "--dim", "6", "--k", "1",
            "--seed", "3", "--out", str(out))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["holds"] is True and payload["theorem"] == "info_ineq"
        assert "holds" in err

    def test_hypothesis_skip_exits_0(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", "entropy_lower", "--dim", "2", "--k", "2",
            "--seed", "5", "--f", "log", "--out", str(out))
        code, stdout, _ = run(capsys, "check", "--file", str(out))
        assert code == 0
        assert json.loads(stdout)["hypothesis_met"] is False

    @pytest.mark.parametrize("theorem", ["homogeneous", "compression_jensen"])
    def test_gen_file_replays_the_margin_bitwise(self, tmp_path, capsys, theorem):
        out = tmp_path / "inst.json"
        for seed in range(3):
            run(capsys, "gen", "--theorem", theorem, "--dim", "4", "--k", "3",
                "--seed", str(seed), "--out", str(out))
            code, stdout, _ = run(capsys, "check", "--file", str(out))
            want = check(TheoremId(theorem), random_instance(TheoremId(theorem), 4, 3, seed, power(0.5), 0.5))
            assert code == 0 and json.loads(stdout) == want.to_json()

    def test_tol_zero_triggers_numerical_triage(self, tmp_path, capsys):
        # The homogeneity margin is an equality residual of order -1e-15, so a
        # zero tolerance flags it; the rule at tol 1e-6 labels it numerical.
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", "homogeneous", "--dim", "3", "--k", "2",
            "--seed", "11", "--out", str(out))
        code, stdout, _ = run(capsys, "check", "--file", str(out), "--tol", "0")
        payload = json.loads(stdout)
        if payload["margin"] < 0.0:
            assert code == 1 and payload["triage"] == "numerical"
        else:  # an exactly nonnegative residual passes even at tol 0
            assert code == 0

    def test_nonfinite_margin_is_an_error(self, tmp_path, capsys):
        # q = 1e308 overflows both sides of the homogeneity identity to NaN:
        # an error outcome, never a counterexample.
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", "homogeneous", "--dim", "2", "--k", "2",
            "--seed", "0", "--q", "1e308", "--out", str(out))
        with np.errstate(all="ignore"):
            code, stdout, err = run(capsys, "check", "--file", str(out))
        payload = json.loads(stdout)
        assert code == 2 and "error: non-finite margin" in err
        assert payload["detail"] == "error: non-finite margin" and payload["triage"] is None
        assert payload["margin"] is None and not payload["holds"] and not payload["hypothesis_met"]

    def test_nonfinite_side_is_an_error_before_the_solve(self, tmp_path, capsys):
        # q = 1e308 fills a side with inf and NaN: it is refused before the
        # margin's solve, which may not converge on it.
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", "homogeneous", "--dim", "3", "--k", "2",
            "--seed", "0", "--q", "1e308", "--out", str(out))
        with np.errstate(all="ignore"):
            code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and json.loads(stdout)["detail"] == "error: non-finite margin"

    def test_eigensolver_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # A margin solve that does not converge is an error, not a violation.
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", "homogeneous", "--dim", "3", "--k", "2",
            "--seed", "0", "--out", str(out))

        def fail(a):
            raise EigenConvergenceError("eigendecomposition did not converge")

        rebind_entry(monkeypatch, "_eigvalsh", fail)
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "did not converge" in err

    def test_window_outside_the_positive_half_line_exits_2(self, tmp_path, capsys):
        # With m = -1 this file re-checked as holds (exit 0).
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", "entropy_upper", "--dim", "3", "--k", "2", "--seed", "4",
            "--f", "log", "--out", str(out))
        out.write_text(json.dumps(dict(json.loads(out.read_text()), m=-1.0)))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "0 < m <= M < inf" in err

    @pytest.mark.parametrize("version", [None, 1, 2, 4, "3"])
    def test_file_of_another_format_exits_2(self, tmp_path, capsys, version):
        # A format-1 file's seed and info_ineq fields do not replay under
        # keyed streams, and a format-2 compression stores cs and cs_weights
        # instead of a map, so both are refused, not misread.
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.KLEIN_UPPER, 3, 1, 5).to_json()
        assert payload["format"] == 3
        if version is None:
            del payload["format"]
        else:
            payload["format"] = version
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and '"format": 3' in err and "format 1" in err and "format 2" in err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_nonfinite_tol_exits_2(self, tmp_path, capsys, tol):
        # --tol nan printed VIOLATED (exit 1) on a valid file; inf passed any margin.
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", "klein_upper", "--dim", "3", "--k", "1", "--seed", "1",
            "--out", str(out))
        code, stdout, err = run(capsys, "check", "--file", str(out), "--tol", tol)
        assert code == 2 and stdout == "" and "tol must be finite" in err

    def test_window_narrower_than_the_pair_spectra_exits_2(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        inst = random_instance(TheoremId.REV_ENTROPY_GAMMA, 3, 2, 5, power(0.5), 0.5)
        payload = inst.to_json()
        payload["m"], payload["M"] = min(inst.t0, 1.0 - 2e-6), max(inst.t0, 1.0 + 2e-6)
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "pair spectrum" in err

    def test_info_ineq_file_with_a_stray_t0_replays(self, tmp_path, capsys):
        # The divergence reads no t0, so a file that carries one loads and
        # replays to the margin of the file without it.
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", "info_ineq", "--dim", "3", "--k", "1", "--seed", "3", "--out", str(out))
        code, want, _ = run(capsys, "check", "--file", str(out))
        out.write_text(json.dumps(dict(json.loads(out.read_text()), t0=0.5)))
        stray_code, got, err = run(capsys, "check", "--file", str(out))
        assert code == stray_code == 0 and got == want, err

    @pytest.mark.parametrize("theorem", ["rev_jensen_gamma", "rev_jensen_zeta"])
    def test_window_too_narrow_for_the_chord_exits_2(self, tmp_path, capsys, theorem):
        # X and the window on [x, x(1 + 1e-12)], where the chord's rounding
        # unit is about 4e-4: an error for either constant, never a skip.
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", theorem, "--dim", "2", "--k", "2", "--seed", "0", "--out", str(out))
        x, wide = 3.0, 3.0 * (1.0 + 1e-12)
        payload = dict(json.loads(out.read_text()), x=_matrix_to_json(np.diag([x, wide])), m=x, M=wide, t0=x)
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "too narrow" in err

    @pytest.mark.parametrize("slot,value,message", [
        ("pa", [0.5, 0.5], " must hold dim=3 probabilities"),
        ("pb", [[0.2, 0.3, 0.5]], ": must be a list of JSON numbers, got [[0.2, 0.3, 0.5]]"),
        ("pa", [0.5, 0.5, 0.0], " must have finite entries > 0"),
        ("pb", [1.2, -0.4, 0.2], " must have finite entries > 0"),
        ("pa", [float("nan"), 0.5, 0.5], ": must be finite, got nan"),
        ("pb", [0.2, 0.3, 0.6], " must sum to 1 within 1e-10"),
    ], ids=["pa-length", "pb-shape", "pa-zero", "pb-negative", "pa-nan", "pb-sum"])
    def test_info_ineq_file_must_hold_probability_vectors(self, tmp_path, capsys, slot, value, message):
        # The divergence of a vector that is no probability vector is no
        # statement of the paper: each broken slot is refused by name.
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.INFO_INEQ, 3, 1, 3).to_json()
        payload[slot] = value
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and f"'{slot}'{message}" in err

    @pytest.mark.parametrize("theorem,key", [("klein_upper", "fb"), ("compression_jensen", "x")])
    def test_non_hermitian_matrix_exits_2(self, tmp_path, capsys, theorem, key):
        # Symmetrizing it would check another matrix than the file states
        # (klein_upper read the unperturbed margin 0.23405202228924632).
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId(theorem), 3, 1, 5).to_json()
        matrix = payload[key] if key == "x" else payload[key]["matrices"][0]
        matrix["re"][0][1] += 1e-4
        matrix["re"][1][0] -= 1e-4
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and f"cannot load instance: '{key}': matrix payload is not Hermitian" in err

    def test_compression_factors_need_not_be_hermitian(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.COMPRESSION_JENSEN, 3, 2, 5).to_json()
        factor = payload["map"]["kraus"][0]
        c = np.array(factor["re"]) + 1j * np.array(factor["im"])
        assert not np.array_equal(c, c.conj().T)
        out.write_text(json.dumps(payload))
        code, stdout, _ = run(capsys, "check", "--file", str(out))
        assert code == 0 and json.loads(stdout)["holds"] is True

    @pytest.mark.parametrize("theorem,header", [
        ("map_monotone", {"dim": 5, "k": 7}), ("map_monotone", {"k": 3}), ("compression_jensen", {"dim": 4}),
        ("compression_jensen", {"k": 3}), ("subadditive", {"dim": 2}), ("klein_upper", {"k": 2}),
    ], ids=lambda v: v if isinstance(v, str) else ",".join(f"{key}={n}" for key, n in v.items()))
    def test_header_must_match_the_payload(self, tmp_path, capsys, theorem, header):
        # A map_monotone file (dim 3, k 2) with the header dim 5, k 7 loaded
        # and held (exit 0).
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId(theorem), 3, 2, 0).to_json()
        payload.update(header)
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "does not match the header" in err

    def test_klein_file_with_two_nodes_exits_2(self, tmp_path, capsys):
        # Header and payload agree on k = 2, but klein_upper fixes k = 1: the
        # check read node 0 alone and reported its margin (0.04517), exit 0.
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.MEAN_INTEGRAL, 3, 2, 1).to_json()
        payload.update(theorem="klein_upper", f="log")
        del payload["q"]
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "'k' fixed at 1, got 2" in err

    @pytest.mark.parametrize("theorem,edit,named", [
        ("homogeneous", {"alpha": float("inf")}, "'alpha'"), ("homogeneous", {"alpha": float("nan")}, "'alpha'"),
        ("homogeneous", {"alpha": -1.0}, "'alpha'"), ("joint_concave", {"alpha": float("nan")}, "'alpha'"),
        ("joint_concave", {"beta": float("nan")}, "'beta'"), ("joint_concave", {"beta": 0.0}, "'beta'"),
        ("joint_concave", {"alpha": 0.5, "beta": 0.6}, "'alpha' + 'beta'"),
    ], ids=lambda v: v if isinstance(v, str) else ",".join(f"{key}={n}" for key, n in v.items()))
    def test_extra_parameters_are_judged_at_load(self, tmp_path, capsys, theorem, edit, named):
        # A homogeneous file with alpha inf or NaN, or a joint_concave one with
        # a NaN weight, loaded and ended in "eigendecomposition did not converge".
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId(theorem), 2, 2, 0).to_json()
        payload.update(edit)
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "cannot load instance" in err and named in err

    def test_map_must_take_the_fields_dimension(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.MAP_MONOTONE, 3, 2, 0).to_json()
        payload["map"] = random_instance(TheoremId.MAP_MONOTONE, 2, 2, 0).to_json()["map"]
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "'map' does not match the header dim=3" in err

    @pytest.mark.parametrize("theorem,edit,message", [
        ("homogeneous", {"seed": 1.5}, "'seed': must be an integer, got 1.5"),
        ("homogeneous", {"dim": 3.9}, "'dim': must be an integer, got 3.9"),
        ("klein_upper", {"k": True}, "'k': must be an integer, got True"),
        ("homogeneous", {"seed": -1}, "seed must lie in [0, 2**128), got -1"),
        ("homogeneous", {"q": "0.5"}, "'q': must be a number, got '0.5'"),
        ("homogeneous", {"alpha": "2"}, "'alpha': must be a number, got '2'"),
        ("homogeneous", {"q": 10**400}, "'q': must be within the double range, got 1000"),
        ("homogeneous", {"seed": 10**400}, "'seed': must be within the double range, got 1000"),
    ], ids=["seed-float", "dim-float", "k-bool", "seed-negative", "q-string", "alpha-string", "q-huge", "seed-huge"])
    def test_header_numbers_are_judged_by_the_draws_rules(self, tmp_path, capsys, theorem, edit, message):
        # Each of these files loaded: the header was coerced (1.5 to 1, 3.9 to
        # 3, true to 1, "0.5" to 0.5) and a negative key was never checked.
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId(theorem), 3, 1 if theorem == "klein_upper" else 2, 0).to_json()
        payload.update(edit)
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and f"cannot load instance: {message}" in err, err

    def test_oversized_compression_family_is_refused_at_load(self, tmp_path, capsys):
        # The file loaded and failed inside the check.
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.COMPRESSION_JENSEN, 3, 2, 0).to_json()
        _, map_to_json, map_from_json = verify._SLOTS["pmap"]
        payload["map"] = map_to_json(PositiveLinearMap([3.0 * c for c in map_from_json(payload["map"]).kraus]))
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == ""
        assert "cannot load instance: compression sum exceeds the identity" in err, err

    def test_compression_factor_of_another_size_is_a_header_mismatch(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.COMPRESSION_JENSEN, 3, 2, 0).to_json()
        payload["map"]["kraus"][1] = _matrix_to_json(0.1 * np.eye(2))
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "cannot load instance: 'map': Kraus factors must share one shape" in err

    @pytest.mark.parametrize("edit", ["smaller", "extra", "missing"])
    def test_compression_map_holds_k_factors_of_size_dim(self, tmp_path, capsys, edit):
        # A compression's map holds one dim x dim Kraus factor per node.
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.COMPRESSION_JENSEN, 3, 2, 0).to_json()
        factors = payload["map"]["kraus"]
        if edit == "smaller":
            factors[:] = [_matrix_to_json(0.1 * np.eye(2))] * 2
        elif edit == "extra":
            factors.append(_matrix_to_json(np.zeros((3, 3))))
        else:
            del factors[1]
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "'map' does not match the header dim=3, k=2" in err, err

    def test_exponent_range_is_judged_at_load(self, tmp_path, capsys):
        # The file loaded and errored in the check.
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.ENTROPY_LOWER, 3, 2, 0).to_json()
        payload["q"] = 2.0
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == ""
        assert "cannot load instance: the exponent q must lie in [0.0, 1.0], got 2.0" in err, err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "check", "--file", str(bad))
        assert code == 2 and "error" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "check", "--file", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize("theorem,key", [
        ("compression_jensen", "x"), ("subadditive", "fc"), ("joint_concave", "beta"),
        ("map_monotone", "map"), ("entropy_lower", "t0"),
    ])
    def test_missing_field_exits_2(self, tmp_path, capsys, theorem, key):
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", theorem, "--dim", "2", "--k", "2", "--seed", "1",
            "--out", str(out))
        payload = json.loads(out.read_text())
        del payload[key]
        out.write_text(json.dumps(payload))
        code, _, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and repr(key) in err


    @pytest.mark.parametrize("theorem,key,value", [
        ("compression_jensen", "map", float("nan")), ("compression_jensen", "x", float("inf")),
        ("map_monotone", "map", float("nan")), ("entropy_lower", "fa", -float("inf")),
        ("klein_upper", "fb", float("nan")), ("subadditive", "fc", float("nan")),
    ])
    def test_nonfinite_matrix_entry_exits_2(self, tmp_path, capsys, theorem, key, value):
        # The refusal named no slot: "matrix payload has non-finite entries".  Each
        # entry is now read by the number rule, which refuses it with the slot's key.
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", theorem, "--dim", "2", "--k", "2", "--seed", "1",
            "--f", "log", "--out", str(out))
        payload = json.loads(out.read_text())
        matrix = payload[key] if key == "x" else payload[key]["kraus" if key == "map" else "matrices"][0]
        matrix["re"][0][0] = value
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == ""
        assert f"cannot load instance: '{key}': must be finite, got {value!r}" in err, err

    @pytest.mark.parametrize("theorem,key,entry", [
        ("klein_upper", "fb", "weights"), ("subadditive", "fc", "matrices"), ("compression_jensen", "map", "kraus"),
    ])
    def test_payload_without_an_entry_names_its_slot(self, tmp_path, capsys, theorem, key, entry):
        # fb without "weights" ended in a bare KeyError: 'weights'.
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId(theorem), 2, 2, 1).to_json()
        del payload[key][entry]
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == ""
        assert f"cannot load instance: '{key}': missing entry '{entry}'" in err, err

    @pytest.mark.parametrize("theorem,key,edit,message", [
        ("klein_upper", "fb", lambda p: p["weights"].__setitem__(0, "0.5"), "must be a number, got '0.5'"),
        ("klein_upper", "fb", lambda p: p["weights"].__setitem__(0, True), "must be a number, got True"),
        ("klein_upper", "fb", lambda p: p["matrices"][0]["re"][0].__setitem__(1, "0.1"),
         "must be a number, got '0.1'"),
        ("klein_upper", "fb", lambda p: p["matrices"][0]["im"][1].__setitem__(0, False),
         "must be a number, got False"),
        ("klein_upper", "fa", lambda p: p["matrices"][0].__setitem__("dim", 2.7), "must be an integer, got 2.7"),
        ("klein_upper", "fa", lambda p: p["matrices"][0].__setitem__("dim", "2"), "must be an integer, got '2'"),
        ("compression_jensen", "map", lambda p: p["kraus"][1]["re"][0].__setitem__(0, "1"),
         "must be a number, got '1'"),
        ("compression_jensen", "x", lambda p: p.__setitem__("dim", True), "must be an integer, got True"),
        ("info_ineq", "pa", lambda p: p.__setitem__(0, str(p[0])), "must be a number, got '0."),
        ("info_ineq", "pb", lambda p: p.__setitem__(1, True), "must be a number, got True"),
        # A JSON integer beyond the double range was refused with "int too large to convert to float".
        ("klein_upper", "fb", lambda p: p["weights"].__setitem__(0, 10**400),
         "must be within the double range, got 1000"),
        ("klein_upper", "fa", lambda p: p["matrices"][0]["re"][0].__setitem__(0, -10**400),
         "must be within the double range, got -1000"),
    ], ids=["weight-string", "weight-bool", "re-string", "im-bool", "dim-float", "dim-string", "kraus-string",
            "x-dim-bool", "pa-string", "pb-bool", "weight-huge", "re-huge"])
    def test_payload_numbers_follow_the_header_rule(self, tmp_path, capsys, theorem, key, edit, message):
        # The payload decoders cast with float() and int(): a string weight,
        # entry or dim loaded (a klein_upper file checked to its unchanged
        # margin), and a bool was read as 0 or 1, so the file loaded or was
        # refused for another reason than the bool.
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId(theorem), 2, 2, 1).to_json()
        edit(payload[key])
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and f"cannot load instance: '{key}': {message}" in err, err

    @pytest.mark.parametrize("key,edit,message", [
        ("fb", lambda p: p["fb"].__setitem__("weights", 0.5), "must be a list of JSON numbers, got 0.5"),
        ("fb", lambda p: p["fb"].__setitem__("matrices", {"a": 1}),
         "must hold a list of matrix objects, got {'a': 1}"),
        ("fb", lambda p: p.__setitem__("fb", [1, 2]), "must be an object with the entries weights, matrices, got [1, 2]"),
        ("fa", lambda p: p["fa"]["matrices"][0]["re"].__setitem__(1, [1.0]),
         "must be a list of equal-length lists of JSON numbers, got "),
        ("fa", lambda p: p["fa"]["matrices"][0].__setitem__("im", [0.0, 0.0]),
         "must be a list of equal-length lists of JSON numbers, got [0.0, 0.0]"),
    ], ids=["weights-number", "matrices-object", "field-list", "ragged-rows", "flat-im"])
    def test_payload_of_the_wrong_json_shape_says_what_the_slot_wants(self, tmp_path, capsys, key, edit, message):
        # Each was refused with Python's own text after the key: "len() of
        # unsized object", "string indices must be integers, not 'str'",
        # "list indices must be integers or slices, not str" and numpy's
        # "inhomogeneous shape".
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.KLEIN_UPPER, 2, 1, 7).to_json()
        edit(payload)
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and f"cannot load instance: '{key}': {message}" in err, err

    @pytest.mark.parametrize("value", [None, True, 1, 0.5, [], {}], ids=["null", "true", "1", "0.5", "list", "object"])
    def test_function_spec_must_be_a_string(self, tmp_path, capsys, value):
        # A non-string "f" reached .strip() in ScalarFunction: a traceback,
        # and exit 1, the exit code of a violation.
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.HOMOGENEOUS, 2, 2, 7).to_json()
        payload["f"] = value
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == ""
        assert f"cannot load instance: 'f': a function spec must be a string, got {value!r}" in err, err

    @pytest.mark.parametrize("key", ["theorem", "seed", "dim", "k"])
    def test_file_without_a_header_entry_names_it(self, tmp_path, capsys, key):
        # Without "theorem" the refusal read "Instance.__init__() missing 1
        # required positional argument: 'theorem'".
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.KLEIN_UPPER, 2, 1, 7).to_json()
        del payload[key]
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == ""
        assert f"cannot load instance: an instance file needs '{key}', which is missing" in err, err

    @pytest.mark.parametrize("theorem", ["mean_integral", "homogeneous", "subadditive"])
    def test_fields_must_share_one_weight_vector(self, tmp_path, capsys, theorem):
        # The file loaded, and the check ended in "error: fields must share
        # one weight vector node-for-node", which names no slot.
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId(theorem), 2, 2, 7).to_json()
        payload["fa"]["weights"][0] += 0.25
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == ""
        assert "cannot load instance: 'fa' and 'fb' must share one weight vector node for node" in err, err

    @pytest.mark.parametrize("factor,entry", [(0, (0, 0)), (0, (1, 0)), (1, (1, 1))])
    def test_overflowing_compression_map_is_refused_at_load(self, tmp_path, capsys, factor, entry):
        # Phi(I) overflows, and the sub-unital test read its spectrum (NaN
        # or infinite) as no excess: the file loaded, and the check ended in
        # an error such as "power_0.5: eigenvalue -2.38e+307 outside domain".
        out = tmp_path / "inst.json"
        payload = random_instance(TheoremId.COMPRESSION_JENSEN, 2, 2, 7).to_json()
        payload["map"]["kraus"][factor]["re"][entry[0]][entry[1]] = 1e308
        out.write_text(json.dumps(payload))
        with np.errstate(all="ignore"):
            code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "cannot load instance: compression sum exceeds the identity" in err, err

    def test_an_unexpected_exception_exits_3_with_its_traceback(self, tmp_path, capsys, monkeypatch):
        # An exception that no handler expects must not read as a violation (exit 1).
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", "klein_upper", "--dim", "2", "--k", "1", "--seed", "7", "--out", str(out))

        def broken(*args):
            raise RuntimeError("a defect")

        monkeypatch.setattr(verify, "check", broken)
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 3 and stdout == "" and "Traceback" in err and "RuntimeError: a defect" in err


class TestCampaign:
    def test_report_bytes_do_not_depend_on_the_eigensolver_entry(self, tmp_path, capsys, monkeypatch):
        # matcore's entry calls numpy.linalg's LAPACK gufuncs directly; with
        # it routed back through np.linalg.eigh and eigvalsh, the campaign
        # writes the same bytes.
        def reports(tag):
            written = {}
            for fmt in ("json", "csv"):
                path = tmp_path / f"{tag}.{fmt}"
                code, _, _ = run(capsys, "campaign", "--trials", "2", "--dims", "2:4", "--seed", "7",
                                 "--format", fmt, "--out", str(path))
                assert code == 0
                written[fmt] = path.read_bytes()
            return written

        entry = reports("entry")
        used = []
        for name, solver in ENTRY.items():
            real = getattr(np.linalg, solver)
            rebind_entry(monkeypatch, name, lambda a, _real=real: used.append(1) or _real(a))
        assert reports("numpy") == entry and used

    def test_options_land_on_their_config_fields(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(verify, "campaign", lambda config: seen.append(config) or verify.CampaignReport(
            config, [], [], []))
        assert run(capsys, "campaign", "--trials", "3")[0] == 0
        assert run(capsys, "campaign", "--theorems", "klein_upper,info_ineq", "--trials", "5", "--dims", "3:4",
                   "--k", "1:2", "--functions", "log,power:0.25", "--q", "-0.5,1", "--tol", "1e-7",
                   "--seed", "9")[0] == 0
        assert seen == [
            CampaignConfig(trials=3),
            CampaignConfig(theorems=(TheoremId.KLEIN_UPPER, TheoremId.INFO_INEQ), trials=5, dims=(3, 4),
                           terms=(1, 2), functions=("log", "power:0.25"), exponents=(-0.5, 1.0), tol=1e-7,
                           seed=9),
        ]

    def test_parser_holds_no_config_default(self):
        args = build_parser().parse_args(["campaign", "--trials", "3"])
        assert vars(args) == {"command": "campaign", "trials": 3, "out": None, "format": "json"}

    def test_zero_trials_empty_report(self, capsys):
        code, stdout, _ = run(capsys, "campaign", "--trials", "0", "--seed", "1")
        assert code == 0
        report = json.loads(stdout)
        assert all(r["trials"] == 0 for r in report["results"])

    def test_small_run_and_determinism(self, tmp_path, capsys):
        args = ["campaign", "--theorems", "klein_upper,info_ineq,homogeneous",
                "--trials", "3", "--dims", "2:4", "--seed", "42"]
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            code, _, err = run(capsys, *args, "--out", str(p))
            assert code == 0 and "klein_upper" in err
        assert paths[0].read_bytes() == paths[1].read_bytes()
        report = json.loads(paths[0].read_text())
        assert {r["theorem"] for r in report["results"]} == {
            "klein_upper", "info_ineq", "homogeneous"
        }
        for r in report["results"]:
            assert r["violations_substantive"] == 0

    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run(capsys, "campaign", "--theorems", "klein_upper", "--trials", "4",
                         "--seed", "2", "--format", "csv", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5 and lines[0].startswith("theorem,")

    def test_affine_spec_keeps_its_parameters(self, capsys):
        code, stdout, err = run(capsys, "campaign", "--theorems", "compression_jensen", "--trials", "4",
                                "--functions", "affine:0.5,1,log", "--seed", "3")
        assert code == 0, err
        assert json.loads(stdout)["config"]["functions"] == ["affine:0.5,1", "log"]

    def test_bad_dims_exit_2(self, capsys):
        code, _, _ = run(capsys, "campaign", "--trials", "1", "--dims", "8:2")
        assert code == 2

    @pytest.mark.parametrize("theorems", [",", " "])
    def test_empty_theorem_list_exits_2(self, capsys, theorems):
        # An empty list ran no trial and reported success on nothing.
        code, stdout, err = run(capsys, "campaign", "--theorems", theorems, "--trials", "3")
        assert code == 2 and stdout == "" and "need at least one theorem" in err

    @pytest.mark.parametrize("theorems", ["klein_upper,klein_upper", "info_ineq, klein_upper,info_ineq"])
    def test_repeated_theorem_exits_2(self, capsys, theorems):
        # A repeated name ran the statement again on the same trial keys and
        # reported it twice.
        code, stdout, err = run(capsys, "campaign", "--theorems", theorems, "--trials", "2")
        repeated = theorems.split(",")[0].strip()
        assert code == 2 and stdout == "" and f"theorems must not repeat, got {repeated} more than once" in err

    def test_master_seeds_do_not_alias(self, capsys):
        # -1 was masked to 2**64 - 1, so both seeds ran the same trials.
        args = ["campaign", "--theorems", "klein_upper", "--trials", "3"]
        code, stdout, err = run(capsys, *args, "--seed", "-1")
        assert code == 2 and stdout == "" and "seed must lie in [0, 2**64), got -1" in err
        code, stdout, err = run(capsys, *args, "--seed", str(2**64))
        assert code == 2 and stdout == "" and "seed must lie in [0, 2**64)" in err
        code, stdout, _ = run(capsys, *args, "--seed", str(2**64 - 1))
        report = json.loads(stdout)
        assert code == 0 and report["format"] == 3 and report["results"][0]["worst_seed"] >> 64 == 2**64 - 1

    def test_negative_trials_exit_2(self, capsys):
        code, _, _ = run(capsys, "campaign", "--trials", "-3")
        assert code == 2

    @pytest.mark.parametrize("option,erring", [
        ("--k=1:1", {"entropy_lower", "entropy_nonneg", "entropy_upper", "rev_entropy_gamma",
                     "rev_entropy_zeta", "example_log_pair"}),
        ("--q=-3,5", {"mean_integral", "entropy_lower", "rev_entropy_gamma", "rev_entropy_zeta",
                      "example_log_pair"}),
    ])
    def test_precondition_errors_are_counted_not_fatal(self, tmp_path, capsys, option, erring):
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "campaign", "--trials", "1", option, "--seed", "0", "--out", str(out))
        assert code == 2
        results = json.loads(out.read_text())["results"]
        assert len(results) == 16
        assert {r["theorem"] for r in results if r["errors"]} == erring
        for r in results:
            outcomes = r["passes"] + r["skips"] + r["violations_numerical"] + r["violations_substantive"]
            assert outcomes + r["errors"] == r["trials"] == 1
        assert "1 errors" in err

    @pytest.mark.parametrize("option", [("--functions", "const:inf"), ("--q", "inf"), ("--q", "nan"),
                                        ("--tol", "inf"), ("--tol", "nan")])
    def test_nonfinite_parameter_exits_2_before_any_trial(self, monkeypatch, tmp_path, capsys, option):
        trials = []
        monkeypatch.setattr(verify, "run_trial", lambda *args: trials.append(args))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "campaign", "--trials", "2", *option, "--out", str(out))
        assert code == 2 and "error:" in err
        assert trials == [] and not out.exists()

    @pytest.mark.parametrize("option,message", [
        (("--dims", "a:b"), "argument --dims: expected lo:hi integers, got 'a:b'"),
        (("--k", "2:x"), "argument --k: expected lo:hi integers, got '2:x'"),
        (("--q", "x"), "argument --q: expected comma-separated floats, got 'x'"),
    ], ids=["dims", "k", "q"])
    def test_an_unparsable_range_or_list_exits_2(self, capsys, option, message):
        code, stdout, err = run(capsys, "campaign", "--trials", "1", *option)
        assert code == 2 and stdout == "" and message in err

    def test_tol_zero_runs(self, capsys):
        # A campaign refused tol 0, which `check` read; one rule now serves both.
        code, stdout, _ = run(capsys, "campaign", "--theorems", "klein_upper", "--trials", "2", "--tol", "0")
        assert code == 0 and json.loads(stdout)["config"]["tol"] == 0.0

    def test_unwritable_output_exits_2_before_any_trial(self, monkeypatch, tmp_path, capsys):
        # It crashed with exit 3 and a traceback, after running every trial.
        trials = []
        monkeypatch.setattr(verify, "run_trial", lambda *args: trials.append(args))
        for out in (tmp_path / "missing" / "r.json", tmp_path):
            code, stdout, err = run(capsys, "campaign", "--trials", "2", "--out", str(out))
            assert code == 2 and stdout == "" and trials == []
            assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err

    def test_eigensolver_failure_is_counted_not_fatal(self, tmp_path, capsys):
        # q = 1e308 overflows the q-dependent sides of these statements, and
        # the eigensolve of their difference does not converge.
        out = tmp_path / "r.json"
        with np.errstate(all="ignore"):
            code, _, err = run(capsys, "campaign", "--theorems", "entropy_nonneg,entropy_upper,homogeneous",
                               "--trials", "2", "--q", "1e308", "--seed", "7", "--out", str(out))
        assert code == 2 and "entropy_upper: 0/2 pass, 0 skips, 2 errors" in err, err
        for r in json.loads(out.read_text())["results"]:
            outcomes = r["passes"] + r["skips"] + r["violations_numerical"] + r["violations_substantive"]
            assert outcomes + r["errors"] == r["trials"] == 2

    def test_nonfinite_margin_is_counted_as_an_error(self, tmp_path, capsys):
        # Both seed-7 entropy_nonneg trials overflow to a NaN margin at
        # q = 1e308: two errors, no counterexample, and a report that is
        # strict JSON (no NaN or Infinity constants).
        out = tmp_path / "r.json"
        with np.errstate(all="ignore"):
            code, _, _ = run(capsys, "campaign", "--theorems", "entropy_nonneg", "--trials", "2",
                             "--seed", "7", "--q", "1e308", "--out", str(out))

        def refuse(name):
            raise ValueError(f"report holds the non-JSON constant {name}")

        report = json.loads(out.read_text(), parse_constant=refuse)
        (result,) = report["results"]
        assert code == 2 and result["errors"] == 2 and result["violations_substantive"] == 0
        assert report["failures"] == []

    def test_nonfinite_side_is_counted_as_an_error(self, tmp_path, capsys, monkeypatch):
        # A side holding NaN, which the eigensolver would read as a pass.
        def nan_side(inst, gate):
            return verify.Sides([(np.diag([np.nan, 1.0]), "<=", 2.0 * np.eye(inst.fa.dim))], "NaN side")

        statement = verify.STATEMENTS[TheoremId.ENTROPY_NONNEG]
        monkeypatch.setitem(verify.STATEMENTS, TheoremId.ENTROPY_NONNEG,
                            dataclasses.replace(statement, build=nan_side))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "campaign", "--theorems", "entropy_nonneg", "--trials", "2",
                           "--dims", "2:2", "--seed", "7", "--out", str(out))
        (result,) = json.loads(out.read_text())["results"]
        assert code == 2 and "0/2 pass, 0 skips, 2 errors" in err
        assert result["errors"] == 2 and result["passes"] == 0

    @pytest.mark.parametrize("eps,triage,code", [(1e-7, "numerical", 0), (1e-3, "substantive", 1)])
    def test_violations_are_tallied_and_dumped(self, tmp_path, capsys, monkeypatch, eps, triage, code):
        # A mutant klein_upper that claims eps I <= 0 fails every trial by eps.
        def mutant(inst, constant):
            eye = np.eye(inst.dim)
            return verify.Sides([(eps * eye, "<=", 0.0 * eye)], "mutant")

        statement = verify.STATEMENTS[TheoremId.KLEIN_UPPER]
        monkeypatch.setitem(verify.STATEMENTS, TheoremId.KLEIN_UPPER, dataclasses.replace(statement, build=mutant))
        out = tmp_path / "r.json"
        got, _, err = run(capsys, "campaign", "--theorems", "klein_upper,info_ineq", "--trials", "3",
                          "--dims", "2:3", "--seed", "5", "--out", str(out))
        assert got == code, err
        report = json.loads(out.read_text())
        klein, info = report["results"]
        assert (klein["passes"], klein["skips"], klein["errors"]) == (0, 0, 0)
        assert klein[f"violations_{triage}"] == 3 and klein["min_margin"] == -eps
        assert (info["passes"], info["violations_numerical"], info["violations_substantive"]) == (3, 0, 0)
        assert len(report["failures"]) == 3
        failure = report["failures"][0]
        record, result, instance = failure["record"], failure["result"], failure["instance"]
        assert record["theorem"] == result["theorem"] == instance["theorem"] == "klein_upper"
        assert (record["index"], record["seed"]) == (0, instance["seed"]) and record["seed"] == klein["worst_seed"]
        assert record["hypothesis_met"] and not record["holds"] and record["triage"] == result["triage"] == triage
        assert record["margin"] == result["margin"] == -eps and result["detail"] == "mutant"
        replay = tmp_path / "inst.json"
        replay.write_text(json.dumps(instance))
        got, stdout, err = run(capsys, "check", "--file", str(replay))
        assert got == 1 and f"VIOLATED ({triage})" in err
        assert json.loads(stdout)["margin"] == record["margin"]

    def test_undefined_ratio_bound_skips(self):
        config = CampaignConfig(theorems=(TheoremId.REV_JENSEN_GAMMA,), trials=3, functions=("const:0",), seed=1)
        report = campaign(config)
        assert [r.outcome for r in report.records] == ["skip"] * 3
        assert all(r.detail.startswith("ratio bound undefined: chord vanishes") for r in report.records)
        (summary,) = report.summaries
        assert (summary.skips, summary.min_margin, summary.worst_seed) == (3, None, None)

    def test_negative_exponent_list_is_a_value(self, tmp_path, capsys):
        reports = []
        for option in (["--q", "-3,5"], ["--q=-3,5"]):
            out = tmp_path / f"r{len(reports)}.json"
            code, _, err = run(capsys, "campaign", "--theorems", "mean_integral,klein_upper",
                               "--trials", "2", *option, "--seed", "0", "--out", str(out))
            assert code == 2 and "mean_integral: 0/2 pass, 0 skips, 2 errors" in err, err
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["exponents"] == [-3.0, 5.0]

    def test_no_admissible_function_skips_at_the_gate(self, capsys):
        # log is negative on every normalized window, so entropy_lower admits
        # no configured function: the draw falls back to all of them.
        code, stdout, err = run(capsys, "campaign", "--theorems", "entropy_lower", "--trials", "12",
                                "--functions", "log", "--seed", "4")
        assert code == 0, err
        (row,) = json.loads(stdout)["results"]
        assert (row["passes"], row["skips"], row["errors"]) == (0, 12, 0)
        config = CampaignConfig(theorems=(TheoremId.ENTROPY_LOWER,), trials=12, functions=("log",), seed=4)
        details = [r.detail for r in campaign(config).records]
        assert all(d.startswith("log is negative somewhere on [") for d in details), details

    def test_one_factor_kraus_maps_stay_normalized(self, capsys):
        # Seed 58 draws a one-factor Kraus map that an eigensolve-based
        # normalization left outside the 1e-10 unital check (exit 2).
        code, _, err = run(capsys, "campaign", "--theorems", "map_monotone", "--trials", "10",
                           "--dims", "2:8", "--k", "2:4", "--seed", "58")
        assert code == 0, err


class TestBounds:
    def test_identity(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--f", "identity", "--m", "1", "--M", "2")
        assert code == 0
        payload = json.loads(stdout)
        assert abs(payload["gamma"] - 1.0) <= 1e-12
        assert abs(payload["zeta"]) <= 1e-12
        assert not any(key.endswith("_grid") for key in payload)

    def test_log_closed_form_delta(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--f", "log", "--m", "0.5", "--M", "2")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["gamma"] is None and '"gamma": null' in stdout
        assert abs(payload["zeta_closed_form_delta"]) <= 1e-8
        assert abs(payload["zeta_grid_delta"]) <= 1e-12 and "gamma_grid" not in payload

    def test_the_module_runs_as_a_script(self):
        # `python -m opentropy.cli` reaches the module's `__main__` call, which no in-process test runs.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-m", "opentropy.cli", "bounds", "--f", "log", "--m", "0.5", "--M", "2"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["gamma"] is None

    @pytest.mark.parametrize("spec,m,M", [("log", "1.5", "4"), ("neg_t_log_t", "0.2", "0.8")])
    def test_closed_form_gamma_is_checked_against_the_grid(self, capsys, spec, m, M):
        code, stdout, _ = run(capsys, "bounds", "--f", spec, "--m", m, "--M", M)
        payload = json.loads(stdout)
        assert code == 0 and float(m) <= payload["argmax_gamma"] <= float(M)
        assert payload["gamma_grid_delta"] == payload["gamma"] - payload["gamma_grid"]
        assert abs(payload["gamma_grid_delta"]) <= 1e-12 * payload["gamma"]

    def test_sqrt_values(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--f", "power:0.5", "--m", "1", "--M", "4")
        payload = json.loads(stdout)
        assert code == 0
        assert abs(payload["gamma"] - 3.0 * np.sqrt(2.0) / 4.0) <= 1e-10
        assert abs(payload["zeta"] - 1.0 / 12.0) <= 1e-10
        assert abs(payload["gamma_grid"] - payload["gamma"]) <= 1e-12
        assert payload["gamma_grid_delta"] == payload["gamma"] - payload["gamma_grid"]
        assert abs(payload["zeta_grid_delta"]) <= 1e-12

    def test_neg_t_log_t_closed_form_delta(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--f", "neg_t_log_t", "--m", "0.5", "--M", "2")
        payload = json.loads(stdout)
        assert code == 0 and abs(payload["zeta_closed_form_delta"]) <= 1e-8
        assert abs(payload["zeta_grid_delta"]) <= 1e-12

    def test_reversed_interval_exits_2(self, capsys):
        code, _, err = run(capsys, "bounds", "--f", "log", "--m", "2", "--M", "1")
        assert code == 2 and "error" in err

    def test_unknown_function_exits_2(self, capsys):
        code, _, _ = run(capsys, "bounds", "--f", "sqrtish", "--m", "1", "--M", "2")
        assert code == 2

    @pytest.mark.parametrize("spec", ["const:inf", "const:nan", "affine:inf,1", "affine:1,nan"])
    def test_nonfinite_parameter_exits_2(self, capsys, spec):
        code, stdout, err = run(capsys, "bounds", "--f", spec, "--m", "1", "--M", "2")
        assert code == 2 and stdout == "" and "finite" in err

    def test_log_window_whose_inverse_ratio_is_below_the_rounding_unit(self, capsys):
        # The closed form of -t log t takes L(1/m, 1/M), whose ratio 0.38e-17
        # made log1p(-1) raise: "error: math domain error", exit 2.
        code, stdout, err = run(capsys, "bounds", "--f", "log", "--m", "0.38", "--M", "1e17")
        payload = json.loads(stdout)
        assert code == 0 and math.isfinite(payload["zeta_closed_form"]) and payload["zeta_closed_form_delta"] == 0.0

    @pytest.mark.usefixtures("deadline")
    def test_one_ulp_window_exits_2(self, capsys):
        # mu and nu are rounding noise on [1, 1 + 1 ulp]: no constant is reported.
        code, stdout, err = run(capsys, "bounds", "--f", "log", "--m", "1", "--M", "1.0000000000000002")
        assert code == 2 and stdout == "" and "too narrow" in err


@pytest.mark.parametrize("argv,message", [
    (["gen", "--theorem", "entropy_lower", "--seed", "7", "--dim", "0"], "dim must lie in [1, 64], got 0"),
    (["gen", "--theorem", "entropy_lower", "--seed", "7", "--dim", "2", "--k", "0"], "k must be >= 1, got 0"),
    (["campaign", "--trials", "-1"], "trials must lie in [0, 2**32), got -1"),
    (["campaign", "--trials", str(2**32)], f"trials must lie in [0, 2**32), got {2**32}"),
    (["campaign", "--trials", "1", "--seed", "-3"], "seed must lie in [0, 2**64), got -3"),
    (["campaign", "--trials", "1", "--tol", "-0.5"], "tol must be >= 0.0, got -0.5"),
    (["campaign", "--trials", "1", "--dims", "0:3"], "dims[0] must lie in [1, 64], got 0"),
    (["campaign", "--trials", "1", "--k", "3:2"], "terms[1] must be >= 3, got 2"),
    (["bounds", "--f", "log", "--m", "-1", "--M", "2"], "need 0 < m < M, got m=-1.0, M=2.0"),
    (["bounds", "--f", "log", "--m", "0", "--M", "2"], "need 0 < m < M, got m=0.0, M=2.0"),
    (["bounds", "--f", "log", "--m", "3", "--M", "2"], "need 0 < m < M, got m=3.0, M=2.0"),
], ids=["gen-dim", "gen-k", "trials", "trials-2**32", "master-seed", "tol", "dims", "k-range", "m-negative", "m-zero", "m-above-M"])
def test_out_of_range_input_exits_2_with_the_library_message(capsys, argv, message):
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == "" and f"error: {message}" in err


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # Each call built all four subcommands, about 1 ms, most of an
    # in-process `check` of a small file.
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert run(capsys, "bounds", "--f", "log", "--m", "0.5", "--M", "2")[0] == 0
        assert run(capsys, "bounds", "--f", "log", "--m", "0.25", "--M", "4")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    assert build_parser() is not build_parser()
