"""The benchmark's traced runs hook opentropy's names from outside
(perfbench/spans.py::opentropy_targets).  A hooked name that goes missing
only zeroes its per-layer metrics with a warning there, so the contract is
pinned here: renaming or deleting one of them fails this test by name."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_hook_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    with spans.Hooks(spans.Tracer(), spans.opentropy_targets()) as hooks:
        assert hooks.missing == []
