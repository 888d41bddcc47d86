"""Smoke tests of the benchmark itself: `python3 -m pytest perfbench -q`.

Every workload runs at the tiny size for one second, so the file takes well
under a minute.  The tier-1 suite does not collect these (pyproject limits
testpaths to tests/).
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
from opentropy import bounds, functions, verify  # noqa: E402
from workloads import CampaignWorkload, call_cli  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
COUNTS = ["entropy.pair_spectra_per_trial", "entropy.field_builds_per_trial",
          "matcore.pd_builds_per_trial", "matcore.eigh_per_trial", "matcore.eigvalsh_per_trial",
          "matcore.eig_work_d3_per_trial", "bounds.scalar_evals_per_window", "verify.rechecks",
          "verify.checked_ratio", "bounds.ratio_undefined_frac"]


def run_bench(workload, trace, seed=3, script=HERE / "run.py", cwd=ROOT):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def bench():
    """run_bench memoized per (workload, trace, repeat) within this module."""
    cache = {}

    def get(workload, trace, repeat=0):
        key = (workload, trace, repeat)
        if key not in cache:
            cache[key] = run_bench(workload, trace)
        return cache[key]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(bench, workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert any(line.startswith("report_sha256 ") and line.endswith(" repeats same")
                   for line in done.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_at_one_seed(bench, workload):
    first, second = (last_json(bench(workload, 1, repeat))["metrics"] for repeat in (0, 1))
    assert {name: first[name]["value"] for name in COUNTS} == {name: second[name]["value"] for name in COUNTS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_wall_time(bench, workload):
    done = bench(workload, 1)
    trace_file = next(line.split()[1] for line in done.stdout.splitlines() if line.startswith("trace_file "))
    rounds = json.loads((ROOT / trace_file).read_text())["rounds"]
    assert rounds
    for r in rounds:
        assert r["spans"]
        assert all(value >= -1e-9 for value in r["self_time_s"].values())
        assert sum(r["self_time_s"].values()) <= r["seconds"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("campaign_small", 0, script=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


@pytest.fixture(scope="module")
def report_text():
    code, text, error = call_cli(["campaign", "--theorems", "all", "--trials", "2",
                                  "--dims", "2:3", "--seed", "5"])
    assert code == 0 and error is None
    return text


def test_gate_accepts_a_real_report(report_text):
    assert gate.campaign_problems(0, report_text, 16, 2) == []


def _doctor_margin(report):
    report["results"][0]["min_margin"] = -1e-7


def _doctor_violation(report):
    report["results"][3]["violations_numerical"] = 1


def _doctor_counts(report):
    report["results"][5]["skips"] += 1


def _doctor_failures(report):
    report["failures"] = [{"record": {}}]


def _doctor_statements(report):
    report["results"].pop()


@pytest.mark.parametrize("doctor", [_doctor_margin, _doctor_violation, _doctor_counts,
                                    _doctor_failures, _doctor_statements])
def test_gate_rejects_a_doctored_report(report_text, doctor):
    report = json.loads(report_text)
    doctor(report)
    assert gate.campaign_problems(0, json.dumps(report), 16, 2)


def test_gate_rejects_a_nonzero_exit(report_text):
    assert gate.campaign_problems(1, report_text, 16, 2)


def test_round_fails_when_trials_bypass_the_probe(monkeypatch):
    """A campaign that stops calling the module-level run_trial must not pass with empty latencies."""
    real_trial, real_campaign = verify.run_trial, verify.campaign

    def campaign(config):
        probe, verify.run_trial = verify.run_trial, real_trial
        try:
            return real_campaign(config)
        finally:
            verify.run_trial = probe

    monkeypatch.setattr(verify, "campaign", campaign)
    r = CampaignWorkload(5, "2:3", 1, 1).run_round(0)
    assert r.latencies == [] and r.problems and r.failed == r.ops


def test_window_gate():
    log, sqrt = functions.LOG, functions.power(0.5)
    good = bounds.secant_data(log, 0.5, 4.0)
    assert gate.window_problems(log, 0.5, 4.0, good) == []
    assert gate.window_problems(log, 0.5, 4.0, replace(good, zeta=good.zeta + 1e-6))
    assert gate.window_problems(log, 0.5, 4.0, replace(good, zeta=-1e-9))
    concave = bounds.secant_data(sqrt, 0.5, 4.0)
    assert gate.window_problems(sqrt, 0.5, 4.0, concave) == []
    assert gate.window_problems(sqrt, 0.5, 4.0, replace(concave, gamma=0.999))
    assert gate.window_problems(sqrt, 0.5, 4.0, ValueError("boom"))


def test_window_gate_allows_chord_rounding_on_narrow_windows():
    """An affine f's exact zeta is 0; on this narrow window rounding gives -1.06e-12."""
    f = functions.parse("affine:1.5956470419772715,2.8558164699517645")
    m, M = 4.631138111478391, 4.638084518833767
    data = bounds.secant_data(f, m, M)
    assert data.zeta < -gate.ROUNDING
    assert gate.window_problems(f, m, M, data) == []
    assert gate.window_problems(f, m, M, replace(data, zeta=-1e-10))
    assert gate.window_problems(f, m, M, replace(data, gamma=1.0 - 1e-10))
