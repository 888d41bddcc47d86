"""Print the reference digests that a pure refactor must leave unchanged.

    python tests/digests.py

Run it from anywhere; it imports opentropy from this checkout's `src/` and
the sweep's windows from its `perfbench/workloads.py`.  One line per output,
`<sha256>  <name>`:

    acceptance.json  `opentropy campaign --theorems all --trials 1000
                     --dims 2:8 --seed 42` (the acceptance campaign), stdout
    acceptance.csv   the same campaign with `--format csv`, stdout
    dims48-64.json   `opentropy campaign --theorems all --trials 20
                     --dims 48:64 --seed 42`, stdout, followed by the BLAS
                     thread setting it ran under
    sweep            the sorted-key JSON list of `secant_data(f, m,
                     M).to_json()` over `SweepWorkload(seed, 100,
                     40).windows(block)`, seeds 0-2, blocks 0-39 in order
    edges            the same over `EDGE_WINDOWS`, which reach the chord
                     kernel's branches that the sweep misses
    instances        the sorted-key JSON list of `random_instance(theorem,
                     dim, k, seed).to_json()`, or of the error text where
                     the draw raises, over every statement, dims 1, 2, 3, 5,
                     k 1-3 and seeds 0-3: the dim-1 and k-1 draws that no
                     digested campaign makes

A last line, which is not a digest, gives the eigensolves per trial of the
acceptance campaign, counted through matcore's entry (`_eigh`, `_eigvalsh`)
during the acceptance.json run: calls, and the d x d matrices they solved
(a stack of n counts n), for each entry:

    eigensolves per trial of acceptance.json (not a digest): eigh <calls>
    calls, <matrices> matrices; eigvalsh <calls> calls, <matrices> matrices

Each campaign runs in-process through `opentropy.cli.main`; a nonzero exit
code is printed next to its digest.  The dims 48:64 products split their
sums by BLAS thread, so that digest depends on the thread count (read it
under OPENBLAS_NUM_THREADS=1, the benchmark's pin); its line names the
thread variables that are set, or "default".  The current values, and every
move of a digest with its cause, are in CHANGES.md.  The file is not a test
module, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest  # noqa: E402
from conftest import ENTRY, rebind_entry  # noqa: E402
from opentropy import bounds, cli, functions, matcore, verify  # noqa: E402
from workloads import SweepWorkload  # noqa: E402

# The variables that set the BLAS thread count, as perfbench/run.py pins them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ACCEPTANCE = ["campaign", "--theorems", "all", "--trials", "1000", "--dims", "2:8", "--seed", "42"]
CAMPAIGNS = {
    "acceptance.json": ACCEPTANCE,
    "acceptance.csv": ACCEPTANCE + ["--format", "csv"],
    "dims48-64.json": ["campaign", "--theorems", "all", "--trials", "20", "--dims", "48:64", "--seed", "42"],
}

# (spec, m, M) of windows the sweep does not draw: the chord vanishing at the
# left end and at the right end (gamma is the limit f'(end)/mu), gamma
# undefined, mu == 0 (f(m) == f(M) in floating point; the closed-form rules
# divide by it), and a chord rounding unit just under the 1e-8 limit.
EDGE_WINDOWS = [
    ("log", 1.0, 3.0),
    ("neg_t_log_t", 0.25, 1.0),
    ("log", 0.5, 2.0),
    ("neg_t_log_t", 0.5, 2.0),
    ("power:1e-9", 99.78717826040975, 99.7871818639737),
    ("power:6.02037958099258e-10", 0.04036062765492545, 0.04036062867275069),
    ("power:1.0788667269452913e-12", 0.2921784318286964, 0.29219207548974835),
    ("log", 3.0, 3.0000000736),
    ("neg_t_log_t", 0.5, 0.5000000112),
    ("power:0.5", 2.0, 2.0000000631),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def campaign_digest(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return _sha256(out.getvalue()), code


@contextlib.contextmanager
def eigensolve_counts():
    """Count the calls to matcore's eigensolver entry and the matrices they
    solve while the block runs (no other module binds the entry).
    Yields {"eigh": [calls, matrices], "eigvalsh": [calls, matrices]}."""
    counts = {}
    with pytest.MonkeyPatch.context() as patch:
        for name, label in ENTRY.items():
            real = getattr(matcore, name)
            tally = counts[label] = [0, 0]

            def counted(a, _real=real, _tally=tally):
                _tally[0] += 1
                _tally[1] += math.prod(a.shape[:-2])
                return _real(a)

            rebind_entry(patch, name, counted)
        yield counts


def sweep_digest() -> str:
    payload = []
    for seed in range(3):
        workload = SweepWorkload(seed, 100, 40)
        for block in range(40):
            payload += [bounds.secant_data(f, m, M).to_json() for f, m, M in workload.windows(block)]
    return _sha256(json.dumps(payload, sort_keys=True))


def edges_digest() -> str:
    payload = [bounds.secant_data(functions.parse(spec), m, M).to_json() for spec, m, M in EDGE_WINDOWS]
    return _sha256(json.dumps(payload, sort_keys=True))


def instances_digest() -> str:
    payload = []
    for theorem in verify.TheoremId:
        for dim in (1, 2, 3, 5):
            for k in (1, 2, 3):
                for seed in range(4):
                    try:
                        inst = verify.random_instance(theorem, dim, k, seed)
                    except Exception as exc:  # noqa: BLE001 - the error text is the digested outcome
                        payload.append(f"{type(exc).__name__}: {exc}")
                    else:
                        payload.append(inst.to_json())
    return _sha256(json.dumps(payload, sort_keys=True))


def blas_threads() -> str:
    """The BLAS thread variables set in the environment, or "default"."""
    pinned = [f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS if var in os.environ]
    return " ".join(pinned) or "default"


def main() -> int:
    trials = int(ACCEPTANCE[ACCEPTANCE.index("--trials") + 1]) * len(verify.TheoremId)
    for name, argv in CAMPAIGNS.items():
        with eigensolve_counts() as counted:
            digest, code = campaign_digest(argv)
        if name == "acceptance.json":
            counts = counted
        note = f"  (exit {code})" if code else ""
        if name == "dims48-64.json":
            note += f"  (BLAS threads: {blas_threads()})"
        print(f"{digest}  {name}{note}", flush=True)
    print(f"{sweep_digest()}  sweep", flush=True)
    print(f"{edges_digest()}  edges", flush=True)
    print(f"{instances_digest()}  instances", flush=True)
    per_trial = "; ".join(
        f"{entry} {calls / trials:.4f} calls, {matrices / trials:.4f} matrices"
        for entry, (calls, matrices) in counts.items()
    )
    print(f"eigensolves per trial of acceptance.json (not a digest): {per_trial}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
