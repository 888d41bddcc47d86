"""Alternate benchmark runs of two source trees and summarize them pair by pair.

    python bench/pairs.py --parent ../parent --change . --pairs 10 --seeds 2101-2110 \
        --label keyed-streams

Pair i runs each tree once at the i-th seed: the parent first on even pairs
and the change first on odd ones, so that a machine that drifts over the
session weighs on both sides alike.  A run is the tree's own
`perfbench/record.py` helper `run_once` (one `perfbench/run.py` process in
that tree) for every workload, at `--seconds` (default: the change tree's
BENCHMARK.json `run_seconds`).  Each side's runs of a pair are written as
`BENCH_<label>-<parent|change>-<seed>.json` in record.py's format, into
`--out` (default: bench/<label>).

The summary, printed and written to `SUMMARY.txt` next to the BENCH files,
gives per workload and end-to-end metric: each pair's change / parent
ratio, the pairs the change won (by the metric's declared direction), both
medians, and the parent's quartiles with its IQR (q3 - q1), against which
the gap between the medians is read.  The exit code is 0 when every run
exited 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    return seeds


def load_record(tree: Path, side: str):
    """The tree's perfbench/record.py as a module of its own."""
    path = tree / "perfbench" / "record.py"
    spec = importlib.util.spec_from_file_location(f"record_{side}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def metric(run: dict, name: str) -> float | None:
    value = ((run.get("result") or {}).get("metrics") or {}).get(name)
    return None if value is None else value["value"]


def summarize_pairs(pairs: list[dict], declared: dict) -> list[str]:
    """Lines of the pair-by-pair summary; `pairs` holds {"seed", "parent", "change"}
    with each side's runs by workload."""
    lines = []
    for workload in pairs[0]["parent"]:
        lines.append(f"{workload} ({len(pairs)} pairs, seeds {', '.join(str(p['seed']) for p in pairs)})")
        for spec in declared["end_to_end"]:
            name, higher = spec["name"], spec["better"] == "higher"
            values = {side: [metric(p[side][workload], name) for p in pairs] for side in SIDES}
            if any(v is None for side in SIDES for v in values[side]):
                lines.append(f"  {name}: missing in some run")
                continue
            ratios = [c / p if p else float("nan") for p, c in zip(values["parent"], values["change"])]
            wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
            parent, change = statistics.median(values["parent"]), statistics.median(values["change"])
            q1, _, q3 = statistics.quantiles(values["parent"], n=4)
            lines.append(
                f"  {name} [{spec['unit']}, {spec['better']} is better]: parent median {parent:.6g}"
                f" (q1 {q1:.6g}, q3 {q3:.6g}, IQR {q3 - q1:.4g}), change median {change:.6g},"
                f" ratio {change / parent if parent else float('nan'):.4f}, gap {change - parent:.4g},"
                f" change won {wins} of {len(pairs)}"
            )
            lines.append("    per pair: " + " ".join(f"{r:.3f}" for r in ratios))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="one seed per pair, e.g. 2101-2110")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", default=None, help="comma-separated (default: every declared workload)")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None, help="default: bench/<label>")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least 2 pairs for the parent's quartiles")
    if len(args.seeds) < args.pairs:
        parser.error(f"need {args.pairs} seeds, got {len(args.seeds)}")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in declared["workloads"]]
    seconds = args.seconds or declared["run_seconds"]
    records = {side: load_record(tree, side) for side, tree in trees.items()}
    out = args.out or HERE / args.label
    out.mkdir(parents=True, exist_ok=True)

    pairs, all_ok = [], True
    for i, seed in enumerate(args.seeds[: args.pairs]):
        pair = {"seed": seed}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs = [records[side].run_once(w, seed, seconds, 0) for w in workloads]
            all_ok &= all(run["exit_code"] == 0 for run in runs)
            pair[side] = {run["workload"]: run for run in runs}
            label = f"{args.label}-{side}-{seed}"
            summary = records[side].summarize(runs, declared)
            (out / f"BENCH_{label}.json").write_text(json.dumps(
                {"label": label, "seconds": seconds, "trace": 0, "seeds": [seed], "summary": summary, "runs": runs},
                indent=1) + "\n")
        pairs.append({k: pair[k] for k in ("seed", *SIDES)})
        shown = []
        for w in workloads:
            before, after = (metric(pair[side][w], "ops_per_s") for side in SIDES)
            shown.append(f"{w}:{after / before:.3f}" if before and after is not None else f"{w}:failed")
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({'parent' if i % 2 == 0 else 'change'} first)"
              f" ops_per_s change/parent {' '.join(shown)}", flush=True)

    lines = summarize_pairs(pairs, declared)
    lines.append("every run exited 0" if all_ok else "SOME RUN EXITED NONZERO")
    text = "\n".join(lines) + "\n"
    (out / "SUMMARY.txt").write_text(text)
    print(text, end="")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
