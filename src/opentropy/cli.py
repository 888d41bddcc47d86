"""Command-line front end.

Subcommands:
    gen       write one random instance as JSON
    check     re-verify an instance file and print the result
    campaign  run the bulk per-theorem verification grid
    bounds    print chord/secant data (mu, nu, gamma, zeta) for f on [m, M], with
              grid-search cross-checks of the constants taken from closed forms

Machine-readable JSON goes to stdout (or --out); the human summary goes to
stderr.  Exit codes: 0 = verified or hypothesis-skip, 1 = substantive
violation, 2 = usage or input error (for campaign: also any trial that ended
in an error, after the report is written).  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import functions, verify
from .errors import DomainError, EigenConvergenceError, PreconditionError, ShapeError

__all__ = ["main", "build_parser"]


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def _int_range(text: str) -> tuple[int, int]:
    """Parse 'lo:hi' (or a single integer) into an inclusive range."""
    lo, sep, hi = text.partition(":")
    try:
        lo_v = int(lo)
        hi_v = int(hi) if sep else lo_v
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected lo:hi integers, got {text!r}") from exc
    if lo_v < 1 or hi_v < lo_v:
        raise argparse.ArgumentTypeError(f"expected 1 <= lo <= hi, got {text!r}")
    return lo_v, hi_v


def _theorem(text: str) -> verify.TheoremId:
    try:
        return verify.TheoremId(text)
    except ValueError as exc:
        names = ", ".join(t.value for t in verify.TheoremId)
        raise argparse.ArgumentTypeError(f"unknown theorem {text!r}; one of: {names}") from exc


def _theorem_list(text: str) -> tuple[verify.TheoremId, ...]:
    if text.strip() == "all":
        return tuple(verify.TheoremId)
    return tuple(_theorem(part.strip()) for part in text.split(",") if part.strip())


def _spec_list(text: str) -> tuple[str, ...]:
    """Split comma-separated function specs.  Parameters are numbers, so only a
    comma followed by a letter starts a new spec ("affine:0.5,1,log" is two)."""
    return tuple(part.strip() for part in re.split(r",(?=\s*[A-Za-z])", text) if part.strip())


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """Rewrite `--q -3,5` as `--q=-3,5`: argparse reads a separate value that
    starts with "-" and is not a single number as an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--q" and re.match(r"-[\d.]", token):
            out[-1] = f"--q={token}"
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opentropy",
        description="Verify operator entropy inequalities on random constrained matrix instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate one instance file")
    gen.add_argument("--theorem", type=_theorem, required=True)
    gen.add_argument("--dim", type=_positive_int, required=True)
    gen.add_argument("--k", type=_positive_int, default=2)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--f", type=str, default="power:0.5", help="function spec, e.g. log or power:0.5")
    gen.add_argument("--q", type=float, default=0.5, help="exponent q (or p) where applicable")
    gen.add_argument("--diagonal", action="store_true", help="diagonal smoke-mode instance")
    gen.add_argument("--out", type=Path, default=None, help="output path (default: stdout)")

    chk = sub.add_parser("check", help="verify one instance file")
    chk.add_argument("--file", type=Path, required=True)
    chk.add_argument("--tol", type=float, default=verify.DEFAULT_LOEWNER_TOL)

    camp = sub.add_parser("campaign", help="run the bulk verification grid")
    camp.add_argument("--theorems", type=_theorem_list, default=tuple(verify.TheoremId))
    camp.add_argument("--trials", type=_nonnegative_int, required=True)
    camp.add_argument("--dims", type=_int_range, default=(2, 8))
    camp.add_argument("--k", type=_int_range, default=(2, 4))
    camp.add_argument("--functions", type=_spec_list, default="power:0.5,power:0.25,neg_t_log_t,log")
    camp.add_argument("--q", type=_float_list, default=(0.0, 0.25, 0.5, 0.75, 1.0))
    camp.add_argument("--tol", type=_positive_float, default=verify.DEFAULT_LOEWNER_TOL)
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--out", type=Path, default=None)
    camp.add_argument("--format", choices=("json", "csv"), default="json")

    bnd = sub.add_parser("bounds", help="print secant data for f on [m, M]")
    bnd.add_argument("--f", type=str, required=True)
    bnd.add_argument("--m", type=_positive_float, required=True)
    bnd.add_argument("--M", type=_positive_float, required=True)

    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_gen(args) -> int:
    f = functions.parse(args.f)
    inst = verify.random_instance(
        args.theorem, args.dim, args.k, args.seed, f, args.q, diagonal=args.diagonal
    )
    _emit(_json_text(inst.to_json()), args.out)
    print(f"wrote {args.theorem.value} instance (dim={inst.dim}, k={inst.k}, seed={inst.seed})",
          file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    try:
        payload = json.loads(args.file.read_text())
        inst = verify.Instance.from_json(payload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load instance: {exc}", file=sys.stderr)
        return 2
    result = verify.triage(inst.theorem, inst, args.tol)
    sys.stdout.write(_json_text(result.to_json()))
    if not result.hypothesis_met:
        # hypothesis_met and holds both False is an error outcome (a non-finite margin).
        status = "skip (hypothesis not met)" if result.holds else result.detail
    else:
        status = "holds" if result.holds else f"VIOLATED ({result.triage})"
    print(f"{inst.theorem.value}: {status}, margin={result.margin}", file=sys.stderr)
    return 0 if result.holds else (1 if result.hypothesis_met else 2)


def _cmd_campaign(args) -> int:
    config = verify.CampaignConfig(
        theorems=args.theorems,
        trials=args.trials,
        dims=args.dims,
        terms=args.k,
        functions=args.functions,
        exponents=args.q,
        tol=args.tol,
        seed=args.seed,
    )
    report = verify.campaign(config)
    if args.format == "json":
        _emit(_json_text(report.to_json()), args.out)
    else:
        _emit(report.to_csv(), args.out)
    for summary in report.summaries:
        errors = f", {summary.errors} errors" if summary.errors else ""
        print(
            f"{summary.theorem.value}: {summary.passes}/{summary.trials} pass, "
            f"{summary.skips} skips{errors}, min_margin={summary.min_margin}",
            file=sys.stderr,
        )
    if report.error_total:
        return 2
    return 0 if report.substantive_total == 0 else 1


def _cmd_bounds(args) -> int:
    f = functions.parse(args.f)
    data = bounds_mod.secant_data(f, args.m, args.M)
    payload = data.to_json()
    # A constant taken from a closed form is cross-checked against the grid search.
    for name, grid in bounds_mod.grid_values(f, args.m, args.M).items():
        payload[f"{name}_grid"] = grid
        payload[f"{name}_grid_delta"] = payload[name] - grid
    if f.name in bounds_mod.CLOSED_FORM_FUNCTIONS and args.m < 1.0 < args.M:
        zeta_log, zeta_neg = bounds_mod.zeta_closed_forms(args.m, args.M)
        closed = zeta_log if f.name == "log" else zeta_neg
        payload["zeta_closed_form"] = closed
        payload["zeta_closed_form_delta"] = data.zeta - closed
    sys.stdout.write(_json_text(payload))
    print(f"{f.name} on [{args.m}, {args.M}]: gamma={data.gamma}, zeta={data.zeta}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "gen": _cmd_gen,
        "check": _cmd_check,
        "campaign": _cmd_campaign,
        "bounds": _cmd_bounds,
    }
    try:
        return handlers[args.command](args)
    except (PreconditionError, DomainError, ShapeError, ValueError, EigenConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
