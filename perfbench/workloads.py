"""The benchmark's workloads and the metrics derived from their rounds.

A workload's input is a fixed number of blocks: one in-process `opentropy
campaign` call each, or one batch of `secant_data` windows.  Block b depends
on (seed, b) only, and block 0 of a campaign workload is the campaign at
exactly `--seed`, so seed 42 replays the acceptance campaign at the
benchmark's trial count.  A run executes every block once per cycle, for
several cycles; one execution of a block is a round.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import gate
from opentropy import bounds, cli, functions, verify
from spans import EIG_SPANS, LINALG_SPANS, NAME, OP, TAG, Hooks, Tracer, busy_time, duration

clock = time.perf_counter

# Master seeds of successive campaign blocks are this far apart; block 0
# uses the seed itself.
BLOCK_SEED_STRIDE = 1_000_003
# The warm-up campaign is the same at every seed, so setup_s does not vary
# with the dimensions a seed happens to draw.
WARM_UP_SEED = 0

FAILED_OUTCOMES = frozenset({"violation", "generation_failed", "error"})


@dataclass
class Round:
    block: int
    seconds: float
    ops: int
    checked: int
    failed: int
    latencies: list
    outcomes: list  # per op: (label, outcome); label is the theorem or the spec
    digest: str
    problems: list
    tracer: Tracer | None = None
    missing_hooks: list = field(default_factory=list)
    scale: float = 1.0  # speed.scale() around the round


def _hooks(tracer, targets):
    return Hooks(tracer, targets) if tracer is not None else contextlib.nullcontext()


def trial_outcome(record, inst) -> str:
    if record.triage is not None:
        return "violation"
    if inst is None:
        return "generation_failed"
    if record.hypothesis_met and record.margin is not None:
        return "checked"
    return "skipped"


def call_cli(argv) -> tuple[int | None, str, str | None]:
    """Run `opentropy <argv>` in-process; (exit code, stdout, error)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), None


class CampaignWorkload:
    """`opentropy campaign --theorems all` with default functions and exponents."""

    is_campaign = True

    def __init__(self, seed: int, dims: str, trials: int, blocks: int):
        self.seed, self.dims, self.trials, self.blocks = seed, dims, trials, blocks
        self.statements = len(verify.TheoremId)

    def argv(self, seed: int, trials: int) -> list[str]:
        return ["campaign", "--theorems", "all", "--trials", str(trials),
                "--dims", self.dims, "--k", "2:4", "--seed", str(seed)]

    def warm_up(self) -> None:
        call_cli(self.argv(WARM_UP_SEED, trials=1))

    def run_round(self, block: int, tracer: Tracer | None = None, targets=()) -> Round:
        argv = self.argv(self.seed + BLOCK_SEED_STRIDE * block, self.trials)
        real = verify.run_trial
        latencies, outcomes = [], []

        def probe(theorem, config, seed, index=0):
            start = clock()
            record, inst, result = real(theorem, config, seed, index)
            latencies.append(clock() - start)
            outcomes.append((theorem.value, trial_outcome(record, inst)))
            return record, inst, result

        verify.run_trial = probe
        try:
            with _hooks(tracer, targets) as hooks:
                start = clock()
                code, text, error = call_cli(argv)
                seconds = clock() - start
        finally:
            verify.run_trial = real

        ops = self.trials * self.statements
        problems = [f"campaign raised:\n{error}"] if error else []
        problems += gate.campaign_problems(code, text, self.statements, self.trials)
        if len(outcomes) != ops:
            problems.append(f"run_trial probe saw {len(outcomes)} trials, expected {ops}")
        n_failed = sum(outcome in FAILED_OUTCOMES for _, outcome in outcomes)
        if n_failed:
            problems.append(f"{n_failed} trials ended in a violation or a generation failure")
        return Round(
            block=block, seconds=seconds, ops=ops,
            checked=sum(outcome == "checked" for _, outcome in outcomes),
            failed=n_failed or (ops if problems else 0),
            latencies=latencies, outcomes=outcomes,
            digest=hashlib.sha256(text.encode()).hexdigest(), problems=problems,
            tracer=tracer, missing_hooks=getattr(hooks, "missing", []),
        )


# Each sweep block cycles every catalog spec; 3 of the 10 slots are linear
# (identity, affine, const), the slow path, so the median window is a
# nonlinear one and the tail is a linear one.
SPEC_SLOTS = ("log", "power", "neg_t_log_t", "identity", "power",
              "log", "affine", "neg_t_log_t", "const", "power")
WINDOW_KINDS = ("straddle_narrow", "straddle_wide", "off_narrow", "off_wide")


def draw_window(rng, kind: str) -> tuple[float, float]:
    if kind == "straddle_narrow":
        return float(rng.uniform(0.9, 0.99)), float(rng.uniform(1.01, 1.1))
    if kind == "straddle_wide":
        return float(rng.uniform(0.02, 0.5)), float(rng.uniform(2.0, 10.0))
    if kind == "off_narrow":
        ratio = 1.0 + float(rng.uniform(0.001, 0.1))
    else:
        ratio = 10.0 ** float(rng.uniform(0.3, 2.0))
    if rng.random() < 0.5:
        upper = float(rng.uniform(0.1, 0.95))
        return upper / ratio, upper
    lower = float(rng.uniform(1.05, 5.0))
    return lower, lower * ratio


def draw_spec(rng, slot: str) -> str:
    if slot == "power":
        return f"power:{float(rng.uniform(0.05, 0.95))!r}"
    if slot == "affine":
        return f"affine:{float(rng.uniform(0.0, 2.0))!r},{float(rng.uniform(0.1, 3.0))!r}"
    if slot == "const":
        return f"const:{float(rng.uniform(0.1, 3.0))!r}"
    return slot


class SweepWorkload:
    """`secant_data(f, m, M)` over seeded windows, straddling 1 or not, narrow or wide."""

    is_campaign = False

    def __init__(self, seed: int, windows: int, blocks: int):
        self.seed, self.windows_per_round, self.blocks = seed, windows, blocks

    def windows(self, block: int) -> list:
        rng = np.random.default_rng([self.seed, block])
        out = []
        for i in range(self.windows_per_round):
            m, M = draw_window(rng, WINDOW_KINDS[i % len(WINDOW_KINDS)])
            out.append((functions.parse(draw_spec(rng, SPEC_SLOTS[i % len(SPEC_SLOTS)])), m, M))
        return out

    def warm_up(self) -> None:
        for f, m, M in self.windows(0)[: len(SPEC_SLOTS)]:
            bounds.secant_data(f, m, M)

    def run_round(self, block: int, tracer: Tracer | None = None, targets=()) -> Round:
        windows = self.windows(block)
        called = [tracer.counted(f) for f, _, _ in windows] if tracer else [f for f, _, _ in windows]
        latencies, results = [], []
        with _hooks(tracer, targets) as hooks:
            for f, (_, m, M) in zip(called, windows):
                start = clock()
                try:
                    data = bounds.secant_data(f, m, M)
                except Exception as exc:  # every window ends in a recorded outcome
                    data = exc
                latencies.append(clock() - start)
                results.append(data)

        problems, outcomes = [], []
        for (f, m, M), data in zip(windows, results):
            found = gate.window_problems(f, m, M, data)
            problems += found
            outcome = "error" if found else ("ratio_undefined" if data.gamma is None else "checked")
            outcomes.append((f.spec, outcome))
        payload = [d.to_json() if not isinstance(d, Exception) else repr(d) for d in results]
        return Round(
            block=block, seconds=sum(latencies), ops=len(windows),
            checked=sum(outcome == "checked" for _, outcome in outcomes),
            failed=sum(outcome == "error" for _, outcome in outcomes),
            latencies=latencies, outcomes=outcomes,
            digest=hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest(),
            problems=problems, tracer=tracer, missing_hooks=getattr(hooks, "missing", []),
        )


def percentile_ms(seconds: list, q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q)) if seconds else 0.0


def end_to_end_metrics(rounds: list[Round], scaled: bool = True) -> dict[str, float]:
    """Untraced metrics over every block, each counted once.

    A block's time is the median over its rounds, and an op's latency the
    median over its executions, of the times scaled to the reference speed
    (or raw, with scaled=False).
    """
    by_block: dict[int, list[Round]] = {}
    for r in rounds:
        by_block.setdefault(r.block, []).append(r)
    seconds, latencies = 0.0, []
    for runs in by_block.values():
        scales = [r.scale if scaled else 1.0 for r in runs]
        seconds += statistics.median(r.seconds * k for r, k in zip(runs, scales))
        per_op = zip(*([x * k for x in r.latencies] for r, k in zip(runs, scales)))
        latencies += [statistics.median(values) for values in per_op]
    first = [runs[0] for runs in by_block.values()]
    return {
        "ops_per_s": sum(r.ops for r in first) / seconds,
        "checked_per_s": sum(r.checked for r in first) / seconds,
        "op_ms_p50": percentile_ms(latencies, 50),
        "op_ms_p99": percentile_ms(latencies, 99),
    }


def digest_mismatches(rounds: list[Round]) -> list[int]:
    """Blocks whose rounds did not all produce the same output digest."""
    digests: dict[int, set] = {}
    for r in rounds:
        digests.setdefault(r.block, set()).add(r.digest)
    return sorted(block for block, seen in digests.items() if len(seen) > 1)


BUSY_GROUPS = {
    "verify.generate.busy_frac": ("verify.generate",),
    "verify.check.busy_frac": ("verify.check",),
    "entropy.pair_spectrum.busy_frac": ("entropy.pair_spectrum",),
    "matcore.linalg.busy_frac": LINALG_SPANS,
    "maps.apply_array.busy_frac": ("maps.apply_array",),
    "bounds.busy_frac": ("bounds.chord_ratio_bound", "bounds.chord_gap_bound", "bounds.secant_data"),
    "bounds.ratio.busy_frac": ("bounds.ratio",),
    "bounds.gap.busy_frac": ("bounds.gap",),
}

PER_OP_COUNTS = {
    "entropy.pair_spectra_per_trial": "entropy.pair_spectrum",
    "entropy.field_builds_per_trial": "entropy.field_build",
    "matcore.pd_builds_per_trial": "matcore.pd_build",
    "matcore.eigh_per_trial": "linalg.eigh",
    "matcore.eigvalsh_per_trial": "linalg.eigvalsh",
}


def _named(spans, name):
    return [s for s in spans if s[NAME] == name]


def layer_metrics(pairs: list[tuple[Round, Round]], is_campaign: bool) -> dict[str, float]:
    """Per-layer metrics from (untraced, traced) pairs of rounds of one block.

    Shares of time use all traced rounds; counts use the first (block 0)
    alone, so they repeat exactly at a given seed however many rounds fit in
    the run.  Times are scaled to the reference speed like the end-to-end ones.
    """
    traced = [t for _, t in pairs]
    wall = sum(t.seconds for t in traced)
    out = {name: sum(busy_time(t.tracer.spans, group) for t in traced) / wall
           for name, group in BUSY_GROUPS.items()}

    first = traced[0]
    spans0 = first.tracer.spans
    for metric, span_name in PER_OP_COUNTS.items():
        out[metric] = len(_named(spans0, span_name)) / first.ops
    out["matcore.eig_work_d3_per_trial"] = sum(s[TAG] for s in spans0 if s[NAME] in EIG_SPANS) / first.ops
    out["bounds.scalar_evals_per_window"] = first.tracer.scalar_evals / first.ops
    out["bounds.ratio_undefined_frac"] = (
        sum(outcome == "ratio_undefined" for _, outcome in first.outcomes) / first.ops
    )

    checks_per_trial: dict[int, int] = {}
    for s in _named(spans0, "verify.check"):
        checks_per_trial[s[OP]] = checks_per_trial.get(s[OP], 0) + 1
    out["verify.rechecks"] = float(sum(n - 1 for n in checks_per_trial.values()))
    out["verify.checked_ratio"] = first.checked / first.ops if is_campaign else 0.0

    trial_s = [duration(s) * t.scale for t in traced for s in _named(t.tracer.spans, "verify.run_trial")]
    out["verify.trial_ms_p50"] = percentile_ms(trial_s, 50)
    out["verify.trial_ms_p99"] = percentile_ms(trial_s, 99)

    skipped_generate, cli_overhead = [], []
    statement_s: dict[str, list[float]] = {t.value: [] for t in verify.TheoremId}
    for t in traced:
        spans = t.tracer.spans
        skipped = {i for i, (_, outcome) in enumerate(t.outcomes) if outcome == "skipped"}
        skipped_generate.append(
            t.scale * sum(duration(s) for s in _named(spans, "verify.generate") if s[OP] in skipped))
        cli_overhead.append(t.scale * (sum(map(duration, _named(spans, "cli.main")))
                                       - sum(map(duration, _named(spans, "verify.campaign")))))
        per_statement = {key: 0.0 for key in statement_s}
        for s in _named(spans, "verify.run_trial"):
            per_statement[s[TAG]] += duration(s) * t.scale
        for key, value in per_statement.items():
            statement_s[key].append(value)
    out["verify.skipped_generate_s"] = statistics.median(skipped_generate)
    out["cli.overhead_s"] = statistics.median(cli_overhead)
    for key, values in statement_s.items():
        out[f"verify.statement_s.{key}"] = statistics.median(values)

    out["trace.overhead_frac"] = (sum(t.seconds * t.scale for t in traced)
                                  / sum(u.seconds * u.scale for u, _ in pairs) - 1.0)
    return out
