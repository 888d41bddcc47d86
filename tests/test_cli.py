import dataclasses
import json

import numpy as np
import pytest

from opentropy import verify
from opentropy.cli import main
from opentropy.errors import EigenConvergenceError
from opentropy.functions import power
from opentropy.verify import CampaignConfig, Instance, TheoremId, campaign, random_instance, triage

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
        # q = 1e308 on a diagonal instance fills a side with inf and NaN: it
        # is refused before the margin's solve, which may not converge on it.
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", "homogeneous", "--dim", "3", "--k", "2",
            "--seed", "0", "--q", "1e308", "--diagonal", "--out", str(out))
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

    def test_window_narrower_than_the_pair_spectra_exits_2(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        inst = random_instance(TheoremId.REV_ENTROPY_GAMMA, 3, 2, 5, power(0.5), 0.5)
        payload = inst.to_json()
        payload["m"], payload["M"] = min(inst.t0, 1.0 - 2e-6), max(inst.t0, 1.0 + 2e-6)
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "pair spectrum" in err

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
        ("compression_jensen", "cs", float("nan")), ("compression_jensen", "x", float("inf")),
        ("map_monotone", "map", float("nan")), ("entropy_lower", "fa", -float("inf")),
    ])
    def test_nonfinite_matrix_entry_exits_2(self, tmp_path, capsys, theorem, key, value):
        out = tmp_path / "inst.json"
        run(capsys, "gen", "--theorem", theorem, "--dim", "2", "--k", "2", "--seed", "1",
            "--f", "log", "--out", str(out))
        payload = json.loads(out.read_text())
        matrix = {"cs": lambda p: p["cs"][0], "x": lambda p: p["x"], "map": lambda p: p["map"]["kraus"][0],
                  "fa": lambda p: p["fa"]["matrices"][0]}[key](payload)
        matrix["re"][0][0] = value
        out.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "check", "--file", str(out))
        assert code == 2 and stdout == "" and "non-finite" in err


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

    @pytest.mark.parametrize("option", [("--functions", "const:inf"), ("--q", "inf"), ("--q", "nan")])
    def test_nonfinite_parameter_exits_2_before_any_trial(self, monkeypatch, tmp_path, capsys, option):
        trials = []
        monkeypatch.setattr(verify, "run_trial", lambda *args: trials.append(args))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "campaign", "--trials", "2", *option, "--out", str(out))
        assert code == 2 and "error:" in err
        assert trials == [] and not out.exists()

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
        assert payload["gamma"] is None
        assert abs(payload["zeta_closed_form_delta"]) <= 1e-8
        assert abs(payload["zeta_grid_delta"]) <= 1e-12 and "gamma_grid" not in payload

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

    @pytest.mark.usefixtures("deadline")
    def test_one_ulp_window_exits_2(self, capsys):
        # mu and nu are rounding noise on [1, 1 + 1 ulp]: no constant is reported.
        code, stdout, err = run(capsys, "bounds", "--f", "log", "--m", "1", "--M", "1.0000000000000002")
        assert code == 2 and stdout == "" and "too narrow" in err


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
