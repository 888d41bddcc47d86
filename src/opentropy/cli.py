"""Command-line front end.

Subcommands:
    gen       write one random instance as JSON
    check     re-verify an instance file and print the result
    campaign  run the bulk per-theorem verification grid; each option sets the
              CampaignConfig field of its name (--k: terms, --q: exponents),
              whose default it takes
    bounds    print chord/secant data (mu, nu, gamma, zeta) for f on [m, M], with
              grid-search cross-checks of the constants taken from closed forms

A function is named by its catalog spec (log, power:p, neg_t_log_t,
affine:a,b, const:c, identity; see functions.parse), the only form in which
the CLI and instance files carry one.

Machine-readable JSON goes to stdout (or --out); the human summary goes to
stderr.  Exit codes: 0 = verified or hypothesis-skip, 1 = a violation (check:
numerical or substantive; campaign: substantive only), 2 = usage or input
error (for campaign: also any trial that ended in an error, after the report
is written), 3 = an unexpected exception, whose traceback goes to stderr, so
that a crash never reads as a violation.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import inspect
import json
import re
import sys
import traceback
from pathlib import Path

from . import bounds as bounds_mod
from . import functions, verify
from .errors import EigenConvergenceError, PreconditionError

__all__ = ["main", "build_parser"]


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _int_range(text: str) -> tuple[int, int]:
    """Parse 'lo:hi' (or a single integer) into an inclusive range; the
    campaign checks its bounds."""
    lo, sep, hi = text.partition(":")
    try:
        lo_v = int(lo)
        hi_v = int(hi) if sep else lo_v
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected lo:hi integers, got {text!r}") from exc
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

    # An option left out stays out of the namespace: random_instance gives its default.
    gen = sub.add_parser("gen", help="generate one instance file", argument_default=argparse.SUPPRESS)
    gen.add_argument("--theorem", type=_theorem, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--f", type=str, help="function spec, e.g. log or power:0.5")
    gen.add_argument("--q", type=float, dest="p_or_q", metavar="Q", help="exponent q (or p) where applicable")
    gen.add_argument("--out", type=Path, default=None, help="output path (default: stdout)")

    chk = sub.add_parser("check", help="verify one instance file")
    chk.add_argument("--file", type=Path, required=True)
    chk.add_argument("--tol", type=float, default=verify.DEFAULT_LOEWNER_TOL)

    # An option left out stays out of the namespace: CampaignConfig gives its default.
    camp = sub.add_parser("campaign", help="run the bulk verification grid", argument_default=argparse.SUPPRESS)
    camp.add_argument("--theorems", type=_theorem_list)
    camp.add_argument("--trials", type=int, required=True)
    camp.add_argument("--dims", type=_int_range)
    camp.add_argument("--k", type=_int_range, dest="terms", metavar="K")
    camp.add_argument("--functions", type=_spec_list)
    camp.add_argument("--q", type=_float_list, dest="exponents", metavar="Q")
    camp.add_argument("--tol", type=float)
    camp.add_argument("--seed", type=int)
    camp.add_argument("--out", type=Path, default=None)
    camp.add_argument("--format", choices=("json", "csv"), default="json")

    bnd = sub.add_parser("bounds", help="print secant data for f on [m, M]")
    bnd.add_argument("--f", type=str, required=True)
    bnd.add_argument("--m", type=float, required=True)
    bnd.add_argument("--M", type=float, required=True)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on `main`'s first call: it holds
    no state between parses, and building it is most of an in-process call."""
    return build_parser()


def _output(out: Path | None):
    """stdout, or `out` opened for writing; a path that cannot be opened is an input error."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return out.open("w")
    except OSError as exc:
        raise PreconditionError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _cmd_gen(args) -> int:
    options = {name: value for name, value in vars(args).items()
               if name in inspect.signature(verify.random_instance).parameters}
    if "f" in options:
        options["f"] = functions.parse(options["f"])
    inst = verify.random_instance(**options)
    with _output(args.out) as stream:
        stream.write(_json_text(inst.to_json()))
    print(f"wrote {args.theorem.value} instance (dim={inst.dim}, k={inst.k}, seed={inst.seed})",
          file=sys.stderr)
    return 0


_CHECK_STATUS = {"pass": ("holds", 0), "skip": ("skip (hypothesis not met)", 0), "error": ("{detail}", 2),
                 "numerical": ("VIOLATED (numerical)", 1), "substantive": ("VIOLATED (substantive)", 1)}


def _cmd_check(args) -> int:
    try:
        payload = json.loads(args.file.read_text())
        inst = verify.Instance.from_json(payload)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load instance: {exc}", file=sys.stderr)
        return 2
    result = verify.check(inst.theorem, inst, args.tol)
    sys.stdout.write(_json_text(result.to_json()))
    status, code = _CHECK_STATUS[result.outcome]
    print(f"{inst.theorem.value}: {status.format(detail=result.detail)}, margin={result.margin}", file=sys.stderr)
    return code


def _cmd_campaign(args) -> int:
    names = {f.name for f in dataclasses.fields(verify.CampaignConfig)}
    config = verify.CampaignConfig(**{name: value for name, value in vars(args).items() if name in names})
    config.validate()
    # The output is opened before the first trial, so that a path that cannot be written costs no run.
    with _output(args.out) as stream:
        report = verify.campaign(config)
        stream.write(_json_text(report.to_json()) if args.format == "json" else report.to_csv())
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
    # A constant taken from a closed form, where it is defined, is cross-checked
    # against the grid search.
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
    try:
        args = _parser().parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else list(argv)))
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
    except (ValueError, EigenConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
