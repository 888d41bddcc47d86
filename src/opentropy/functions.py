"""The catalog of scalar functions on (0, inf): the spec is the function.

A `ScalarFunction` is built from its spec alone ("log", "power:0.5", ...).
One table, `_CATALOG`, gives each spec head its callables f and f' and the
closed interval on which f >= 0; a spec outside it raises PreconditionError.
Every entry (log, -t log t, t^p with 0 <= p <= 1, a + b t and c with
a, b, c >= 0) is operator concave on (0, inf), the hypothesis of the
paper's reverse inequalities, so `operator_concave` is the constant True and
no flag is ever declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, PreconditionError, _number

__all__ = [
    "GRID_POINTS",
    "ScalarFunction",
    "IDENTITY",
    "LOG",
    "NEG_T_LOG_T",
    "constant",
    "affine",
    "power",
    "parse",
]

# Shared scan density for every scalar grid in the package (matches the
# resolution of the bounds-module optimizer).
GRID_POINTS = 4096

_INF = math.inf
_POSITIVE = (0.0, _INF)


def _power(p: float):
    _number(p, "the power p", 0.0, 1.0)
    return (lambda t: t ** p), (lambda t: p * t ** (p - 1.0)), _POSITIVE


def _constant(c: float):
    _number(c, "the constant c", 0.0)
    return (lambda t: c + 0.0 * t), (lambda t: 0.0 * t), _POSITIVE


def _affine(a: float, b: float):
    _number(a, "the affine a", 0.0)
    _number(b, "the affine b", 0.0)
    return (lambda t: a + b * t), (lambda t: b + 0.0 * t), _POSITIVE


# Spec head -> entry: the spec's parameters -> (f, f', the closed interval on
# which f >= 0).  f and f' accept floats or ndarrays.
_CATALOG = {
    "identity": lambda: ((lambda t: t * 1.0), (lambda t: t * 0.0 + 1.0), _POSITIVE),
    "log": lambda: (np.log, (lambda t: 1.0 / t), (1.0, _INF)),
    "neg_t_log_t": lambda: ((lambda t: -t * np.log(t)), (lambda t: -np.log(t) - 1.0), (0.0, 1.0)),
    "power": _power,
    "const": _constant,
    "affine": _affine,
}


@dataclass(frozen=True)
class ScalarFunction:
    """The catalog function f: (0, inf) -> R of a spec.

    `spec` is the exchange format, kept in the form `parse` prints
    ("power:.5" becomes "power:0.5").  `head` and `params` are the spec
    parsed once, its head and its numbers.  `name`, `nonnegative_on` (the
    closed interval on which f >= 0) and the default `fn` and `deriv` come
    from the catalog entry.  `fn` and `deriv` may be passed, as
    `dataclasses.replace` passes them, only to wrap the entry's own callables
    (to count calls, say); equality and hashing read the spec.
    """

    spec: str
    fn: Callable | None = field(default=None, repr=False, compare=False)
    deriv: Callable | None = field(default=None, repr=False, compare=False)
    name: str = field(init=False)
    head: str = field(init=False, repr=False, compare=False)
    params: tuple[float, ...] = field(init=False, repr=False, compare=False)
    nonnegative_on: tuple[float, float] = field(init=False)

    # Every catalog entry is operator concave on (0, inf).
    operator_concave = True

    def __post_init__(self) -> None:
        if not isinstance(self.spec, str):
            raise PreconditionError(f"a function spec must be a string, got {self.spec!r}")
        head, _, arg = self.spec.strip().partition(":")
        if head not in _CATALOG:
            raise PreconditionError(f"unknown function spec {self.spec!r}")
        try:
            params = [float(s) for s in arg.split(",")] if arg else []
            fn, deriv, nonnegative_on = _CATALOG[head](*params)
        except TypeError:
            raise PreconditionError(f"wrong number of parameters in function spec {self.spec!r}") from None
        except ValueError as exc:
            raise PreconditionError(f"malformed function spec {self.spec!r}: {exc}") from exc
        derived = {
            "spec": ":".join([head, ",".join(map(repr, params))]) if params else head,
            "name": "_".join([head, *(f"{v:g}" for v in params)]),
            "head": head,
            "params": tuple(params),
            "fn": fn if self.fn is None else self.fn,
            "deriv": deriv if self.deriv is None else self.deriv,
            "nonnegative_on": nonnegative_on,
        }
        for key, value in derived.items():
            object.__setattr__(self, key, value)

    def __call__(self, t: float) -> float:
        return self.evaluate(t)

    def evaluate(self, t: float) -> float:
        t = float(t)
        if not t > 0.0 or not math.isfinite(t):
            raise DomainError(f"{self.name}: argument {t!r} outside domain (0.0, inf)")
        return float(self.fn(t))

    def evaluate_array(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.size and not float(values.min()) > 0.0:
            raise DomainError(f"{self.name}: eigenvalue {float(values.min()):.6e} outside domain (0.0, inf)")
        return np.asarray(self.fn(values), dtype=float)

    def derivative(self, t: float) -> float:
        return float(self.deriv(float(t)))


IDENTITY = ScalarFunction("identity")
LOG = ScalarFunction("log")
NEG_T_LOG_T = ScalarFunction("neg_t_log_t")


def constant(c: float) -> ScalarFunction:
    return ScalarFunction(f"const:{_number(c, 'the constant c')!r}")


def affine(a: float, b: float) -> ScalarFunction:
    return ScalarFunction(f"affine:{_number(a, 'the affine a')!r},{_number(b, 'the affine b')!r}")


def power(p: float) -> ScalarFunction:
    return ScalarFunction(f"power:{_number(p, 'the power p')!r}")


def parse(text: str) -> ScalarFunction:
    """The catalog function of a CLI spec: log | power:p | neg_t_log_t | affine:a,b | const:c | identity."""
    return ScalarFunction(text)


def _nonnegative(vals: np.ndarray) -> bool:
    return float(vals.min()) >= -1e-12
