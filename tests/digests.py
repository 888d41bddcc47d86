"""Print the reference digests that a pure refactor must leave unchanged.

    python tests/digests.py

Run it from anywhere; it imports opentropy from this checkout's `src/` and
the sweep's windows from its `perfbench/workloads.py`.  One line per output,
`<sha256>  <name>`:

    acceptance.json  `opentropy campaign --theorems all --trials 1000
                     --dims 2:8 --seed 42` (the acceptance campaign), stdout
    acceptance.csv   the same campaign with `--format csv`, stdout
    dims48-64.json   `opentropy campaign --theorems all --trials 20
                     --dims 48:64 --seed 42`, stdout
    sweep            the sorted-key JSON list of `secant_data(f, m,
                     M).to_json()` over `SweepWorkload(seed, 100,
                     40).windows(block)`, seeds 0-2, blocks 0-39 in order

Each campaign runs in-process through `opentropy.cli.main`; a nonzero exit
code is printed next to its digest.  The file is not a test module, so
pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from opentropy import bounds, cli  # noqa: E402
from workloads import SweepWorkload  # noqa: E402

ACCEPTANCE = ["campaign", "--theorems", "all", "--trials", "1000", "--dims", "2:8", "--seed", "42"]
CAMPAIGNS = {
    "acceptance.json": ACCEPTANCE,
    "acceptance.csv": ACCEPTANCE + ["--format", "csv"],
    "dims48-64.json": ["campaign", "--theorems", "all", "--trials", "20", "--dims", "48:64", "--seed", "42"],
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def campaign_digest(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return _sha256(out.getvalue()), code


def sweep_digest() -> str:
    payload = []
    for seed in range(3):
        workload = SweepWorkload(seed, 100, 40)
        for block in range(40):
            payload += [bounds.secant_data(f, m, M).to_json() for f, m, M in workload.windows(block)]
    return _sha256(json.dumps(payload, sort_keys=True))


def main() -> int:
    for name, argv in CAMPAIGNS.items():
        digest, code = campaign_digest(argv)
        print(f"{digest}  {name}" + (f"  (exit {code})" if code else ""), flush=True)
    print(f"{sweep_digest()}  sweep", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
