"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded from outside the program: `Hooks` swaps public functions
and methods of opentropy (and numpy.linalg's solvers) for timing wrappers
while a traced round runs, then puts the originals back.  Nothing under
`src/` is modified.

A span is the list [name, start, end, parent, op, tag]: `parent` is the index
of the enclosing span (-1 at top level), `op` the index of the trial or window
the span belongs to within its round (-1 outside any), and `tag` an optional
per-call value (the theorem of a trial, the computed d^3 work of an
eigensolve).
"""

from __future__ import annotations

import dataclasses
import sys
import time
from functools import wraps

NAME, START, END, PARENT, OP, TAG = range(6)

LINALG_SPANS = ("linalg.eigh", "linalg.eigvalsh", "linalg.cholesky", "linalg.solve", "linalg.qr")
EIG_SPANS = ("linalg.eigh", "linalg.eigvalsh")


class Tracer:
    """Collects the spans of one round; `scalar_evals` counts f.fn/f.deriv calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.scalar_evals = 0
        self.ops_started = 0
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, name: str, fn, tag=None, starts_op: bool = False):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @wraps(fn)
        def traced(*args, **kwargs):
            outer_op = tracer._op
            if starts_op:
                tracer._op = tracer.ops_started
                tracer.ops_started += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._op,
                    tag(args, kwargs) if tag is not None else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                tracer._op = outer_op

        return traced

    def counted(self, f):
        """A copy of ScalarFunction `f` whose fn/deriv calls are counted."""

        def count(fn):
            if fn is None:
                return None

            def counted_fn(t):
                self.scalar_evals += 1
                return fn(t)

            return counted_fn

        return dataclasses.replace(f, fn=count(f.fn), deriv=count(f.deriv))


def opentropy_targets():
    """(span name, owner, attribute, tag, starts an op) for every hooked call."""
    import numpy as np

    from opentropy import bounds, cli, entropy, maps, matcore, verify

    def theorem(args, kwargs):
        return args[0].value

    def eig_work(args, kwargs):
        shape = np.shape(args[0])
        return int(np.prod(shape[:-2], dtype=np.int64)) * int(shape[-1]) ** 3

    return [
        ("cli.main", cli, "main", None, False),
        ("verify.campaign", verify, "campaign", None, False),
        ("verify.run_trial", verify, "run_trial", theorem, True),
        ("verify.generate", verify, "random_instance", None, False),
        ("verify.check", verify, "check", None, False),
        ("entropy.pair_spectrum", entropy.PairSpectrum, "__init__", None, False),
        ("entropy.field_build", entropy.OperatorField, "__init__", None, False),
        ("matcore.pd_build", matcore.PositiveDefiniteMatrix, "__init__", None, False),
        ("maps.apply_array", maps.PositiveLinearMap, "apply_array", None, False),
        ("bounds.chord_ratio_bound", bounds, "chord_ratio_bound", None, False),
        ("bounds.chord_gap_bound", bounds, "chord_gap_bound", None, False),
        ("bounds.secant_data", bounds, "secant_data", None, True),
        # Private helpers: the only way to split secant_data into its ratio
        # and gap halves from outside the module.
        ("bounds.ratio", bounds, "_ratio_bound", None, False),
        ("bounds.gap", bounds, "_gap_bound", None, False),
        ("linalg.eigh", np.linalg, "eigh", eig_work, False),
        ("linalg.eigvalsh", np.linalg, "eigvalsh", eig_work, False),
        ("linalg.cholesky", np.linalg, "cholesky", None, False),
        ("linalg.solve", np.linalg, "solve", None, False),
        ("linalg.qr", np.linalg, "qr", None, False),
    ]


def _owners(owner, attr: str, original) -> list:
    """Every place the call is looked up: a module function that opentropy
    modules import by name (`from .bounds import chord_gap_bound`) is bound in
    each of them."""
    name = getattr(owner, "__name__", "")
    if isinstance(owner, type) or not name.startswith("opentropy"):
        return [owner]
    return [
        mod for key, mod in sorted(sys.modules.items())
        if (key == "opentropy" or key.startswith("opentropy.")) and getattr(mod, attr, None) is original
    ]


class Hooks:
    """Context manager that installs `tracer` wrappers on `targets`."""

    def __init__(self, tracer: Tracer, targets):
        self._tracer = tracer
        self._targets = targets
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def __enter__(self):
        for name, owner, attr, tag, starts_op in self._targets:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._tracer.wrap(name, original, tag, starts_op)
            for place in _owners(owner, attr, original):
                self._saved.append((place, attr, original))
                setattr(place, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            place, attr, original = self._saved.pop()
            setattr(place, attr, original)
        return False


def duration(span) -> float:
    return span[END] - span[START]


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the time covered by child spans."""
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += duration(span)
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        out[span[NAME]] = out.get(span[NAME], 0.0) + duration(span) - children[i]
    return out


def busy_time(spans, names) -> float:
    """Wall time inside any span named in `names`, counting nested ones once."""
    names = set(names)
    inside = [False] * len(spans)
    total = 0.0
    for i, span in enumerate(spans):
        parent = span[PARENT]
        inside[i] = parent >= 0 and (inside[parent] or spans[parent][NAME] in names)
        if span[NAME] in names and not inside[i]:
            total += duration(span)
    return total
