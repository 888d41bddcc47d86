"""Each narrative demo under demos/, and each python block of README.md,
runs to completion in-process."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"
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


def test_readme_python_blocks_run():
    # A public name the docs use and a change removes fails here.
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})
