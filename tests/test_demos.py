"""Each narrative demo under demos/ runs to completion in-process."""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = [
    "01_functional_calculus",
    "02_entropy_and_means",
    "03_reverse_constants",
    "04_theorem_campaign",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
