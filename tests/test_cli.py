import json

import numpy as np
import pytest

from opentropy.cli import main
from opentropy.functions import power
from opentropy.verify import Instance, TheoremId, random_instance, triage


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

    def test_unknown_theorem_exits_2(self, capsys):
        code, _, _ = run(capsys, "gen", "--theorem", "nonsense", "--dim", "2",
                         "--k", "2", "--seed", "7")
        assert code == 2


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
            want = triage(TheoremId(theorem), random_instance(TheoremId(theorem), 4, 3, seed, power(0.5), 0.5))
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


class TestCampaign:
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

    def test_log_closed_form_delta(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--f", "log", "--m", "0.5", "--M", "2")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["gamma"] is None
        assert abs(payload["zeta_closed_form_delta"]) <= 1e-8

    def test_sqrt_values(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--f", "power:0.5", "--m", "1", "--M", "4")
        payload = json.loads(stdout)
        assert code == 0
        assert abs(payload["gamma"] - 3.0 * np.sqrt(2.0) / 4.0) <= 1e-10
        assert abs(payload["zeta"] - 1.0 / 12.0) <= 1e-10

    def test_neg_t_log_t_closed_form_delta(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--f", "neg_t_log_t", "--m", "0.5", "--M", "2")
        payload = json.loads(stdout)
        assert code == 0 and abs(payload["zeta_closed_form_delta"]) <= 1e-8

    def test_reversed_interval_exits_2(self, capsys):
        code, _, err = run(capsys, "bounds", "--f", "log", "--m", "2", "--M", "1")
        assert code == 2 and "error" in err

    def test_unknown_function_exits_2(self, capsys):
        code, _, _ = run(capsys, "bounds", "--f", "sqrtish", "--m", "1", "--M", "2")
        assert code == 2


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
