"""The benchmark's traced runs hook opentropy's names from outside
(perfbench/spans.py::opentropy_targets) and count a function's calls through
a `dataclasses.replace` copy of it (spans.Tracer.counted).  A hooked name
that goes missing only zeroes its per-layer metrics with a warning there, so
the contract is pinned here: renaming or deleting one of them, or changing
what a counted copy keeps, fails this test by name."""

from pathlib import Path

import pytest

from opentropy import functions, secant_data

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# One spec per catalog head.
HEAD_SPECS = {
    "identity": "identity", "log": "log", "neg_t_log_t": "neg_t_log_t",
    "power": "power:0.5", "const": "const:2", "affine": "affine:0.5,1",
}


def test_every_benchmark_hook_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    with spans.Hooks(spans.Tracer(), spans.opentropy_targets()) as hooks:
        assert hooks.missing == []


@pytest.mark.parametrize("head", sorted(HEAD_SPECS))
def test_counted_copy_keeps_the_catalog_entry(monkeypatch, head):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate
    import spans

    assert set(HEAD_SPECS) == set(functions._CATALOG)
    f = functions.parse(HEAD_SPECS[head])
    tracer = spans.Tracer()
    counted = tracer.counted(f)
    keep = ("spec", "name", "nonnegative_on", "operator_concave")
    assert [getattr(counted, key) for key in keep] == [getattr(f, key) for key in keep]
    for m, M in ((0.5, 2.0), (1.5, 4.0), (0.2, 0.9)):
        before = tracer.scalar_evals
        data = secant_data(counted, m, M)
        assert tracer.scalar_evals > before
        assert data == secant_data(f, m, M)
        assert gate.window_problems(f, m, M, data) == []
