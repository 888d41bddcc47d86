"""Structure-aware mutants of instance files, run through `opentropy check`.

    PYTHONPATH=src python tests/mutants.py [--stride N]

The base files are the instances `gen` writes for every statement at
(dim, k) = (2, 2) and (1, 1) with seed 7 (the normalized family needs
k >= 2, so it has no (1, 1) file).  A path is the file itself, a key of an
object or one of the first two entries of a list, at any depth.  Each mutant
replaces one path by one of `VALUES`, or deletes it (not the file itself).

Every mutant must make `cli.main(["check", "--file", ...])` return 0, 1 or 2
without raising, and print no Python error text.  A load refusal must start
with a slot's key or name the hypothesis it fails (`HYPOTHESES`).  A file
that checks (exit 0 or 1) must re-serialize through `Instance.to_json` to a
file that checks to the same result, bit for bit.

Run as a script, it checks every mutant (or every N-th) and prints the
counts of each outcome and every problem; the exit code is 0 when there is
none.  `tests/test_mutants.py` runs a fixed sample in tier-1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from opentropy import cli, functions, verify
from opentropy.verify import STATEMENTS, Instance, TheoremId, random_instance

VALUES = (None, True, "x", [], {}, 0, -1, 0.5, 1e308, math.nan, math.inf, 2**70, 10**400, [[1]], {"a": 1})
DELETE = "delete"

# Python's own error text, which a refusal must never carry.
PYTHON_TEXT = re.compile(
    r"Traceback|object is not|not subscriptable|unsized object|indices must be|positional argument|"
    r"has no attribute|unhashable|not iterable|could not convert|invalid literal|argument must be|"
    r"not supported between|unsupported operand|math domain error|object of type|unexpected keyword|"
    r"inhomogeneous|too large to convert"
)
# The load refusals that name a hypothesis rather than start with a slot's key.
HYPOTHESES = re.compile(
    r'an instance file must carry "format"|an instance file needs \'\w+\', which is missing|'
    r"a \w+ instance (needs|has) '\w+'|the exponent must be finite|requires an exponent in \[0, 1\]|"
    r"need a window 0 < m <= M < inf|need m <= 1 - 1e-6 and M >= 1 \+ 1e-6|dim must lie in|k must be >= 1|"
    r"seed must lie in|fields must sum to the identity|not inside \[|compression sum exceeds the identity"
)
_REFUSAL = "error: cannot load instance: "


def base_files() -> list[tuple[str, dict]]:
    """(name, payload) of every base file, in statement order."""
    out = []
    for theorem in TheoremId:
        for dim, k in ((2, 2), (1, 1)):
            if k < 2 and STATEMENTS[theorem].family is verify._NORMALIZED:
                continue
            inst = random_instance(theorem, dim, k, 7, functions.parse("power:0.5"), 0.5)
            out.append((f"{theorem.value}-d{dim}k{k}", json.loads(json.dumps(inst.to_json()))))
    return out


def _paths(node, prefix=()):
    """Every path below `node`: each key of an object and the first two entries of a list, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = list(enumerate(node))[:2]
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(payload: dict, path: tuple, value):
    if not path:
        return value
    out = json.loads(json.dumps(payload))
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def mutants(stride: int = 1):
    """(label, mutated payload) of every stride-th mutant, in a fixed order."""
    cases = ((name, payload, path, value) for name, payload in base_files() for path in [(), *_paths(payload)]
             for value in VALUES + (() if not path else (DELETE,)))
    for i, (name, payload, path, value) in enumerate(cases):
        if i % stride == 0:
            yield f"{name} {'/'.join(map(str, path)) or '<file>'} := {value!r}", _mutated(payload, path, value)


def run_check(path: Path) -> tuple[int, str, str]:
    """`opentropy check --file path` in this process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    # A side may overflow to inf or NaN: that is an outcome, not a warning to raise.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
        code = cli.main(["check", "--file", str(path)])
    return code, out.getvalue(), err.getvalue()


def judge(payload, path: Path) -> tuple[str, str | None]:
    """The outcome of one mutant ("exit 0", "refused", ...) and its problem, or None."""
    path.write_text(json.dumps(payload))
    code, out, err = run_check(path)
    if code not in (0, 1, 2):
        return f"exit {code}", err.strip().splitlines()[-1] if err.strip() else "no message"
    if PYTHON_TEXT.search(err):
        return f"exit {code}", f"Python error text: {err.strip()}"
    if err.startswith(_REFUSAL):
        message = err[len(_REFUSAL):].strip()
        if not (re.match(r"'\w+'", message) or HYPOTHESES.search(message)):
            return "refused", f"names no slot or hypothesis: {message}"
        return "refused", None
    if code == 2:
        return "check error", None
    again = path.with_suffix(".again.json")
    again.write_text(json.dumps(Instance.from_json(payload).to_json()))
    replay = run_check(again)
    if replay[:2] != (code, out):
        return f"exit {code}", f"re-serialized file checks to {replay[1].strip()!r}, not {out.strip()!r}"
    return f"exit {code}", None


def run(stride: int = 1) -> tuple[Counter, list[str]]:
    """The outcome counts and the problems of every stride-th mutant."""
    counts, problems = Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        for label, payload in mutants(stride):
            try:
                outcome, problem = judge(payload, path)
            except Exception as exc:  # noqa: BLE001 - an escape from cli.main is the finding
                outcome, problem = "raised", f"{type(exc).__name__}: {exc}"
            counts[outcome] += 1
            if problem is not None:
                problems.append(f"{label}: {problem}")
    return counts, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stride", type=int, default=1, help="check every N-th mutant (default: all)")
    args = parser.parse_args(argv)
    counts, problems = run(args.stride)
    for line in problems:
        print(line)
    print(f"{sum(counts.values())} mutants: " + ", ".join(f"{n} {outcome}" for outcome, n in sorted(counts.items())))
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
