"""Exception types shared across the package."""


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
