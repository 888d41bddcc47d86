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
                     dim, k, seed, diagonal=diagonal).to_json()`, or of the
                     error text where the draw raises, over every statement,
                     dims 1, 2, 3, 5, k 1-3, both diagonal settings and seeds
                     0-3: the dim-1, k-1 and diagonal draws that no digested
                     campaign makes

A last line, which is not a digest, gives the eigensolves per trial of the
acceptance campaign, counted through matcore's entry (`_eigh`, `_eigvalsh`)
during the acceptance.json run: calls, and the d x d matrices they solved
(a stack of n counts n), for each entry:

    eigensolves per trial of acceptance.json (not a digest): eigh <calls>
    calls, <matrices> matrices; eigvalsh <calls> calls, <matrices> matrices

Each campaign runs in-process through `opentropy.cli.main`; a nonzero exit
code is printed next to its digest.  The dims 48:64 products split their
sums by BLAS thread, so that digest depends on the thread count: it reads
e4e37f70... under the default and 72ac56d0... under OPENBLAS_NUM_THREADS=1,
the benchmark's pin (both at 2 vCPUs).  Its line names the thread variables
that are set, or "default".  The three campaign digests and `instances` move
with the report and instance formats (format 3 moved them: compression
instances store a map, `joint_concave` pairs the four fields as
`subadditive` does, and a trial record names its instance's k, f and q) and
with the draws: when the free-pair statements (`mean_integral`,
`klein_upper`, `homogeneous`, `map_monotone`) stopped storing a window and
rescaling B, acceptance.json became db33b056..., acceptance.csv 8bc88624...
and instances 08d6aacc..., and the count line's eigvalsh fell from 1.4375
calls on 4.2722 matrices to 1.1875 calls on 3.6487 (eigh stayed at 3.5000
calls on 8.9473).  When the statements whose claims have no exponent
(`compression_jensen`, `rev_jensen_*`, `klein_upper`, `info_ineq`) stopped
storing `q`, and `entropy_nonneg` and `entropy_upper` stopped storing `t0`,
acceptance.csv became 8f1c0c30... (the `exponent` field of those five
statements' rows is empty) and instances 0ed9d6ae...; acceptance.json,
dims48-64.json and the count line did not move.  When `map_monotone`'s
normalized maps became the row blocks of the phase-fixed QR's Haar isometry
of their Gaussians instead of the polar factor of a thin SVD (the same
Gaussians and the same law, but a different map from each draw),
acceptance.json became f714f12b..., acceptance.csv 4ea06c18...,
dims48-64.json 72ac56d0... and instances 7bac8731...: only `map_monotone`'s
rows and its non-diagonal instances moved, and the count line did not.
When `example_log_pair`'s two claims became `rev_entropy_zeta`'s for -t log t
and log, built by the same term helper (the -t log t claim's S term is
lambda^p (-lambda log lambda), where it was lambda^(p+1) log lambda, and
f(t0) is the catalog's np.log, where it was math.log), acceptance.csv became
eab47ae5...: 480 of that statement's 1,000 rows moved, each margin by at most
1.0e-15, and no other row; acceptance.json, dims48-64.json, instances and
the count line did not move.  `sweep` (4d4fbc45...) and `edges`
(43acc592...) do not move with any of these.  The file is not a test module, so pytest does not collect it.
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
    solve, in every package module that binds it, while the block runs.
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
                for diagonal in (False, True):
                    for seed in range(4):
                        try:
                            inst = verify.random_instance(theorem, dim, k, seed, diagonal=diagonal)
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
