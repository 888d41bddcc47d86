"""Catalog of scalar functions on (0, inf) with operator-order metadata.

Each entry records whether the function is operator monotone / operator
concave.  Those flags are facts carried by the catalog: operator properties
cannot be certified from point samples, so custom functions declare their own
flags and are grid-checked here for the scalar necessary conditions
(nonnegativity, midpoint concavity) before a checker will trust them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, PreconditionError

__all__ = [
    "GRID_POINTS",
    "ScalarFunction",
    "IDENTITY",
    "LOG",
    "NEG_T_LOG_T",
    "constant",
    "affine",
    "power",
    "custom",
    "parse",
    "check_nonnegative_on",
    "check_midpoint_concave_on",
    "validate_declared_flags",
]

# Shared scan density for every scalar grid in the package (matches the
# resolution of the bounds-module optimizer).
GRID_POINTS = 4096

_INF = math.inf


@dataclass(frozen=True)
class ScalarFunction:
    """A function f: (domain_low, inf) -> R plus order-theoretic metadata.

    `fn` and `deriv` accept floats or ndarrays.  `nonnegative_on` is the
    closed interval on which f >= 0 is guaranteed (None if nowhere).  `spec`
    is the function's exchange format.  The private `_catalog` marker is set
    only by the catalog constructors (and so by `parse`): it makes the
    function a catalog entry (`is_catalog`), whose flags are trusted, whose
    chord constants may come from closed forms keyed on its spec, and which
    serializes as its spec.  A hand-built function with a catalog spec but no
    marker is an ordinary custom function.  `dataclasses.replace` copies the
    marker: a copy whose fn wraps the catalog's (to count calls) stays one.
    """

    name: str
    fn: Callable
    deriv: Callable | None = None
    domain_low: float = 0.0
    nonnegative_on: tuple[float, float] | None = None
    operator_monotone: bool = False
    operator_concave: bool = False
    strictly_concave: bool = False
    spec: str = field(default="", repr=False)
    _catalog: bool = field(default=False, repr=False)

    @property
    def is_catalog(self) -> bool:
        return self._catalog

    def __call__(self, t: float) -> float:
        return self.evaluate(t)

    def evaluate(self, t: float) -> float:
        t = float(t)
        if not t > self.domain_low or not math.isfinite(t):
            raise DomainError(f"{self.name}: argument {t!r} outside domain ({self.domain_low}, inf)")
        return float(self.fn(t))

    def evaluate_array(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.size and not float(values.min()) > self.domain_low:
            raise DomainError(
                f"{self.name}: eigenvalue {float(values.min()):.6e} outside domain "
                f"({self.domain_low}, inf)"
            )
        return np.asarray(self.fn(values), dtype=float)

    def derivative(self, t: float) -> float:
        if self.deriv is None:
            raise PreconditionError(f"{self.name} carries no derivative")
        return float(self.deriv(float(t)))


IDENTITY = ScalarFunction(
    name="identity",
    fn=lambda t: t * 1.0,
    deriv=lambda t: t * 0.0 + 1.0,
    nonnegative_on=(0.0, _INF),
    operator_monotone=True,
    operator_concave=True,
    strictly_concave=False,
    spec="identity",
    _catalog=True,
)

LOG = ScalarFunction(
    name="log",
    fn=np.log,
    deriv=lambda t: 1.0 / t,
    nonnegative_on=(1.0, _INF),
    operator_monotone=True,
    operator_concave=True,
    strictly_concave=True,
    spec="log",
    _catalog=True,
)

NEG_T_LOG_T = ScalarFunction(
    name="neg_t_log_t",
    fn=lambda t: -t * np.log(t),
    deriv=lambda t: -np.log(t) - 1.0,
    nonnegative_on=(0.0, 1.0),
    operator_monotone=False,
    operator_concave=True,
    strictly_concave=True,
    spec="neg_t_log_t",
    _catalog=True,
)


def constant(c: float) -> ScalarFunction:
    c = float(c)
    if not (math.isfinite(c) and c >= 0.0):
        raise PreconditionError(f"constant catalog entry requires a finite c >= 0, got {c}")
    return ScalarFunction(
        name=f"const_{c:g}",
        fn=lambda t, _c=c: _c + 0.0 * t,
        deriv=lambda t: 0.0 * t,
        nonnegative_on=(0.0, _INF),
        operator_monotone=True,
        operator_concave=True,
        strictly_concave=False,
        spec=f"const:{c!r}",
        _catalog=True,
    )


def affine(a: float, b: float) -> ScalarFunction:
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a >= 0.0 and b >= 0.0):
        raise PreconditionError(f"affine catalog entry requires finite a, b >= 0, got a={a}, b={b}")
    return ScalarFunction(
        name=f"affine_{a:g}_{b:g}",
        fn=lambda t, _a=a, _b=b: _a + _b * t,
        deriv=lambda t, _b=b: _b + 0.0 * t,
        nonnegative_on=(0.0, _INF),
        operator_monotone=True,
        operator_concave=True,
        strictly_concave=False,
        spec=f"affine:{a!r},{b!r}",
        _catalog=True,
    )


def power(p: float) -> ScalarFunction:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise PreconditionError(f"power catalog entry requires p in [0, 1], got {p}")
    return ScalarFunction(
        name=f"power_{p:g}",
        fn=lambda t, _p=p: t ** _p,
        deriv=lambda t, _p=p: _p * t ** (_p - 1.0),
        nonnegative_on=(0.0, _INF),
        operator_monotone=True,
        operator_concave=True,
        strictly_concave=0.0 < p < 1.0,
        spec=f"power:{p!r}",
        _catalog=True,
    )


def custom(
    fn: Callable,
    *,
    name: str = "custom",
    deriv: Callable | None = None,
    domain_low: float = 0.0,
    nonnegative_on: tuple[float, float] | None = None,
    operator_monotone: bool = False,
    operator_concave: bool = False,
    strictly_concave: bool = False,
) -> ScalarFunction:
    """Wrap a caller-supplied function with caller-declared flags.

    The flags are taken on trust only after `validate_declared_flags` passes
    on the interval a checker is about to use.
    """
    return ScalarFunction(
        name=name,
        fn=fn,
        deriv=deriv,
        domain_low=float(domain_low),
        nonnegative_on=nonnegative_on,
        operator_monotone=operator_monotone,
        operator_concave=operator_concave,
        strictly_concave=strictly_concave,
        spec="",
    )


def parse(text: str) -> ScalarFunction:
    """Parse a CLI function spec: log | power:p | neg_t_log_t | affine:a,b | const:c | identity."""
    head, _, arg = text.strip().partition(":")
    bare = {"identity": IDENTITY, "log": LOG, "neg_t_log_t": NEG_T_LOG_T}
    try:
        if head in bare:
            if arg:
                raise PreconditionError(f"{head} takes no parameter, got {text!r}")
            return bare[head]
        if head == "power":
            return power(float(arg))
        if head == "const":
            return constant(float(arg))
        if head == "affine":
            a, b = (float(s) for s in arg.split(","))
            return affine(a, b)
    except (ValueError, TypeError) as exc:
        raise PreconditionError(f"malformed function spec {text!r}: {exc}") from exc
    raise PreconditionError(f"unknown function spec {text!r}")


def _grid(m: float, M: float) -> np.ndarray:
    if not 0.0 < m <= M:
        raise PreconditionError(f"need 0 < m <= M, got m={m}, M={M}")
    return np.linspace(m, M, GRID_POINTS)


def _nonnegative(vals: np.ndarray) -> bool:
    return float(vals.min()) >= -1e-12


def _midpoint_concave(vals: np.ndarray) -> bool:
    gaps = vals[1:-1] - (vals[:-2] + vals[2:]) / 2.0
    return float(gaps.min()) >= -1e-12


def check_nonnegative_on(f: ScalarFunction, m: float, M: float) -> bool:
    """Grid test (endpoints included): min f on [m, M] >= -1e-12."""
    return _nonnegative(f.evaluate_array(_grid(m, M)))


def check_midpoint_concave_on(f: ScalarFunction, m: float, M: float) -> bool:
    """Discrete midpoint concavity on the grid: a necessary condition only."""
    return _midpoint_concave(f.evaluate_array(_grid(m, M)))


def validate_declared_flags(f: ScalarFunction, m: float, M: float) -> None:
    """Refuse custom functions whose declared flags fail the scalar grid checks.

    Catalog entries (`is_catalog`) pass immediately, whatever their name or
    spec.  Operator concavity itself is not verifiable from samples; midpoint
    concavity is the testable necessary condition.  Every test reads one
    evaluation of f on the grid.
    """
    if f.is_catalog:
        return
    vals = f.evaluate_array(_grid(m, M))
    if not np.all(np.isfinite(vals)):
        raise PreconditionError(f"{f.name} is not finite everywhere on [{m}, {M}]")
    if (f.operator_concave or f.strictly_concave) and not _midpoint_concave(vals):
        raise PreconditionError(
            f"{f.name} is flagged concave but fails midpoint concavity on [{m}, {M}]"
        )
    lo_hi = f.nonnegative_on
    if lo_hi is not None and lo_hi[0] <= m and M <= lo_hi[1] and not _nonnegative(vals):
        raise PreconditionError(
            f"{f.name} claims nonnegativity covering [{m}, {M}] but the grid finds negative values"
        )
