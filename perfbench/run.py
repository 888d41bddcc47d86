"""Benchmark of the opentropy verifier: one workload per process.

    python3 perfbench/run.py --workload campaign_small --seed 42 --seconds 20 --trace 0

Run it from the repository root; it imports opentropy from `src/`.  With
`--trace 0` it prints the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer ones, each as `name value unit`, and then, as the
last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every round passed the correctness gate.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Default OpenBLAS threading was no faster at d=48..64 on a 2-core machine
# and put a first-call stall into the tail, so every run is pinned to one.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("campaign_small", "secant_sweep")
CAMPAIGN_DIMS = {"campaign_small": "2:8"}
# Per workload: (trials per statement or windows per block, blocks).  Blocks
# take 0.05-0.2 s, so the speed reference timed between them follows the
# machine's drift closely.
SIZES = {
    "full": {"campaign_small": (10, 20), "secant_sweep": (100, 40)},
    "tiny": {"campaign_small": (1, 2), "secant_sweep": (20, 2)},
}
SETUP_PROBES = {"full": 7, "tiny": 2}
# Exponent of speed.scale() per workload.  When the machine drifts,
# interpreter-bound work slows down more than the speed reference, and
# set-up (imports; exponent 1) about as much.  Fitted over two sets of ten
# runs per workload on the machine of speed.REFERENCE_S: these values gave the smallest spread of ops_per_s and
# setup_s across runs (ops_per_s: 0.018 and 0.055 against 0.052 and 0.066 at
# exponent 1 on campaign_small, 0.021 and 0.025 against 0.074 and 0.060 on
# secant_sweep).
DRIFT_EXPONENT = {"campaign_small": 1.2, "secant_sweep": 1.3}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny shrinks every round, for the smoke tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def pin_environment() -> None:
    """Must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # The campaign's optional thread pool is left off: the sequential path is measured.
    os.environ.pop("OE_THREADS", None)


def load_opentropy() -> None:
    package = SRC / "opentropy"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no opentropy sources at {package}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import opentropy

    if Path(opentropy.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported opentropy from {opentropy.__file__}, not {package}")


def make_workload(name: str, seed: int, size: str):
    import workloads

    per_block, blocks = SIZES[size][name]
    if name in CAMPAIGN_DIMS:
        return workloads.CampaignWorkload(seed, CAMPAIGN_DIMS[name], per_block, blocks)
    return workloads.SweepWorkload(seed, per_block, blocks)


def measure_setup(args, reference) -> list[tuple[float, float]]:
    """Fresh-process set-up times, from spawn until the child is ready to time,
    each with its scale to the reference speed (measured before and after)."""
    from speed import scale

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]

    def reading() -> float:
        # A single reading right after a child exits is sometimes twice as slow.
        return statistics.median(reference.seconds() for _ in range(3))

    samples = []
    before = reading()
    for _ in range(SETUP_PROBES[args.size]):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        after = reading()
        samples.append((elapsed, scale(before, after)))
        before = after
    return samples


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _process_threads() -> int | None:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "process_threads": _process_threads(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


class ScaledRounds:
    """Runs rounds with the speed reference timed between them (speed.py)."""

    def __init__(self, workload, reference, exponent: float):
        from speed import scale

        self.workload, self._reference, self._scale = workload, reference, scale
        self._exponent = exponent
        self._before = reference.seconds()

    def run(self, block: int, tracer=None, targets=()):
        r = self.workload.run_round(block, tracer, targets)
        after = self._reference.seconds()
        r.scale = self._scale(self._before, after, self._exponent)
        self._before = after
        return r


def _run_untraced(runner: ScaledRounds, seconds: float):
    """Whole cycles over the blocks, at least two, until `seconds` have passed."""
    workload, rounds, start = runner.workload, [], time.perf_counter()
    while len(rounds) < 2 * workload.blocks or time.perf_counter() - start < seconds:
        rounds += [runner.run(block) for block in range(workload.blocks)]
    return rounds


def _run_traced(runner: ScaledRounds, seconds: float):
    """Whole cycles; each block runs untraced and traced, alternating which goes first."""
    from spans import Tracer, opentropy_targets

    targets = opentropy_targets()
    workload, pairs, start = runner.workload, [], time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        for block in range(workload.blocks):
            if len(pairs) % 2 == 0:
                plain = runner.run(block)
                traced = runner.run(block, Tracer(), targets)
            else:
                traced = runner.run(block, Tracer(), targets)
                plain = runner.run(block)
            pairs.append((plain, traced))
    return pairs


def _write_trace(args, env, pairs) -> tuple[Path, dict[str, float]]:
    """Write every traced round's spans; return self time per span name, summed."""
    from spans import self_times

    rounds, total = [], {}
    for plain, traced in pairs:
        self_time = self_times(traced.tracer.spans)
        for name, value in self_time.items():
            total[name] = total.get(name, 0.0) + value
        rounds.append({"block": traced.block, "seconds": traced.seconds, "untraced_seconds": plain.seconds,
                       "self_time_s": self_time, "spans": traced.tracer.spans})
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                                "span_fields": ["name", "start", "end", "parent", "op", "tag"],
                                "rounds": rounds}))
    return path, total


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    load_opentropy()
    import workloads
    from speed import SpeedReference

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = make_workload(args.workload, args.seed, args.size)
    workload.warm_up()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    setup_self_s = time.perf_counter() - PROCESS_START
    reference = SpeedReference()
    reference.seconds()

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    runner = ScaledRounds(workload, reference, DRIFT_EXPONENT[args.workload])
    if args.trace:
        pairs = _run_traced(runner, args.seconds)
        rounds = [r for pair in pairs for r in pair]
        values = workloads.layer_metrics(pairs, workload.is_campaign)
        section = declared["per_layer"]
    else:
        rounds = _run_untraced(runner, args.seconds)
        values = workloads.end_to_end_metrics(rounds)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = measure_setup(args, reference)
        values["setup_s"] = statistics.median(elapsed * scale for elapsed, scale in samples)
        raw = workloads.end_to_end_metrics(rounds, scaled=False)
        raw["setup_s"] = statistics.median(elapsed for elapsed, _ in samples)
        print("raw_unscaled " + json.dumps(raw, sort_keys=True))
        print(f"setup_samples_s {json.dumps(samples)} (this process: {setup_self_s!r} s from first line)")
        section = declared["end_to_end"]

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    mismatched = workloads.digest_mismatches(rounds)
    if mismatched:
        problems.append(f"blocks {mismatched} gave different output digests when repeated")
    for name in sorted({m for r in rounds for m in r.missing_hooks}):
        print(f"warning: hook target {name} not found; its metrics read 0", file=sys.stderr)

    print("round_ops_per_s_and_scale " + json.dumps([[round(r.ops / r.seconds, 2), round(r.scale, 4)] for r in rounds]))
    print(f"workload {args.workload} seed {args.seed} size {args.size} blocks {workload.blocks} "
          f"rounds {len(rounds)} ops {attempted} distinct_ops {sum(r.ops for r in rounds[:workload.blocks])}")
    print(f"report_sha256 {rounds[0].digest} (block 0) repeats {'same' if not mismatched else 'DIFFERENT'}")
    print(f"gate {'pass' if not problems else 'FAIL'}: {len(problems)} problems, {failed} failed ops")
    for problem in problems[:20]:
        print(f"  {problem}", file=sys.stderr)

    if args.trace:
        path, self_time = _write_trace(args, env, pairs)
        print(f"trace_file {path.relative_to(ROOT)}")
        for name, value in sorted(self_time.items(), key=lambda kv: -kv[1]):
            print(f"self_time_s {name} {value!r}")

    names = [m["name"] for m in section]
    if set(names) != set(values):
        raise RuntimeError(f"computed metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in section}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"failed_frac {failed / attempted!r} frac")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
