"""Exception types shared across the package, and its one number rule (`_number`)."""

import math
import reprlib
import sys

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class DomainError(ValueError):
    """A scalar function was evaluated outside its domain."""


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be strictly positive definite is not."""


class EigenConvergenceError(ArithmeticError):
    """The eigensolver failed to converge."""


class PreconditionError(ValueError):
    """A stated precondition of an operation does not hold."""


class UndefinedRatioError(PreconditionError):
    """The secant chord is nonpositive somewhere, so the ratio bound is undefined."""


class UnresolvableWindowError(PreconditionError):
    """Double precision cannot resolve f's chord on [m, M]: the window is too narrow, or f too large on it."""


class ConsistencyError(ArithmeticError):
    """Two independent computations of the same quantity disagree."""


class GenerationError(RuntimeError):
    """Constrained random generation exhausted its resampling budget."""


_MAX = sys.float_info.max
# The least positive double: as a lower bound it reads "> 0".
_POSITIVE = math.ulp(0.0)


def _number(value, name: str = "", lo=-_MAX, hi=_MAX, integer: bool = False):
    """The package's one number rule: `value` as a Python int or float in
    [lo, hi] (an int if `integer`), else PreconditionError naming `name`.
    A Python or numpy int or float is read; a bool, a string, any other
    object, a NaN, an inf and an int beyond the double range are refused.
    An exact int or float in bounds returns at once (every trial and chord
    window runs the rule)."""
    kind = type(value)
    if (kind is int or kind is float and not integer) and lo <= value <= hi:
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        number = int(value)
    elif isinstance(value, (float, np.floating)) and not integer:
        number = float(value)
    else:
        number = None
    if number is None:
        need = "be an integer" if integer else "be a number"
    elif not -_MAX <= number <= _MAX:
        need = "be finite" if isinstance(number, float) else "be within the double range"
    elif not lo <= number <= hi:
        if hi == _MAX:  # one-sided
            need = "be > 0" if lo == _POSITIVE else f"be >= {lo!r}"
        else:  # an int bound 2**n - 1 (n >= 32) reads as the open end 2**n
            wide = type(hi) is int and hi >= 0xFFFFFFFF and not hi & (hi + 1)
            need = f"lie in [{lo!r}, " + (f"2**{hi.bit_length()})" if wide else f"{hi!r}]")
    else:
        return number
    raise PreconditionError(f"{name} must {need}, got {reprlib.repr(value)}".lstrip())
