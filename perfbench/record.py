"""Run the benchmark over several seeds and write a BENCH_<label>.json summary.

    python3 perfbench/record.py --label baseline --seeds 0-9 --trace 0
    python3 perfbench/record.py --label baseline-trace --seeds 42,42 --trace 1

Each run is one `run.py` process, made one after another from the repository
root, for every workload of BENCHMARK.json at its `run_seconds`.  Per
workload and metric the summary gives every value, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "seed": seed, "trace": trace, "exit_code": done.returncode,
            "env": env, "result": result, "stdout": lines[:-1], "stderr": done.stderr.splitlines()[-20:]}


def summarize(runs: list[dict], declared: dict) -> dict:
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"] + declared["per_layer"]}
    summary: dict[str, dict] = {}
    for run in runs:
        if run["result"] is None:
            continue
        table = summary.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            table.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
    for table in summary.values():
        for name, row in table.items():
            values = row["values"]
            row["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / row["median"] if row["median"] else None)
            row["bound"] = bounds.get(name)
    return summary


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=[42])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="default: perfbench/baseline/BENCH_<label>.json")
    args = parser.parse_args(argv)

    seconds = declared["run_seconds"]
    runs = []
    for workload in (w["name"] for w in declared["workloads"]):
        for seed in args.seeds:
            run = run_once(workload, seed, seconds, args.trace)
            runs.append(run)
            metrics = (run["result"] or {}).get("metrics", {})
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in list(metrics.items())[:6])
            print(f"{workload} seed {seed} exit {run['exit_code']} {shown}", flush=True)

    summary = summarize(runs, declared)
    for workload, table in summary.items():
        for name, row in table.items():
            if row.get("bound") is not None and row.get("spread") is not None:
                print(f"{workload:15s} {name:14s} median {row['median']:.6g} spread {row['spread']:.4f}"
                      f" bound {row['bound']} {'ok' if row['spread'] < row['bound'] / 3 else 'WIDE'}")
    out = args.out or HERE / "baseline" / f"BENCH_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"label": args.label, "seconds": seconds, "trace": args.trace,
                               "seeds": args.seeds, "summary": summary, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(run["exit_code"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
