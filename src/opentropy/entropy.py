"""Operator power means and relative operator entropies over weighted fields.

The central objects are the natural power

    X #_q Y = X^{1/2} (X^{-1/2} Y X^{-1/2})^q X^{1/2}        (q real)

which for q in [0, 1] is the weighted geometric mean, and the relative
entropy of a strictly positive pair

    S(A, B; q, f) = A^{1/2} T^q f(T) A^{1/2},   T = A^{-1/2} B A^{-1/2}.

With q = 0 and f = log this is the Fujii-Kamei relative operator entropy.
Weighted node families (OperatorField) stand in for continuous fields with a
finite measure: integration is the weighted sum, which satisfies the defining
linear-functional identity exactly in finite dimensions.

The value classes live in matcore: OperatorField is one (k, d, d) stack with
one stacked eigendecomposition, a PositiveDefiniteMatrix is its one-node case,
and PairSpectrum takes two aligned fields to the eigenvalues of every T_s
and the frames Q_s in one pass, so that any weighted sum

    sum_s w_s A_s^{1/2} g(T_s) A_s^{1/2} = sum_s w_s Q_s diag(g(lambda_s)) Q_s*

is one product over the node-concatenated frames (the eigenbasis route of
Higham, Functions of Matrices, SIAM 2008; cf. Golub and Van Loan, Matrix
Computations, 8.7, for the symmetric-definite pair).  This module holds the
paper's functions of those values, and no exchange format (a field's JSON
form is verify's); each Hermitian result is a read-only (d, d) ndarray,
symmetrized here, since a pair aggregate is Hermitian only up to rounding
(matcore's rule).  A non-finite exponent is refused (PreconditionError).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .functions import ScalarFunction
from .matcore import (
    OperatorField,
    PairSpectrum,
    PositiveDefiniteMatrix,
    _freeze,
    _symmetrize,
)

__all__ = [
    "natural_power",
    "relative_entropy",
    "variational_form",
    "generalized_entropy",
    "mean_field",
]


def _finite_exponent(q) -> float:
    """The exponent q as a float, refused unless finite."""
    q = float(q)
    if not math.isfinite(q):
        raise PreconditionError(f"the exponent q must be finite, got {q}")
    return q


def natural_power(x: PositiveDefiniteMatrix, y: PositiveDefiniteMatrix, q: float) -> PositiveDefiniteMatrix:
    """X #_q Y = X^{1/2} (X^{-1/2} Y X^{-1/2})^q X^{1/2}; PD for any real q."""
    return PositiveDefiniteMatrix(PairSpectrum(x, y).power_mean(_finite_exponent(q)))


def relative_entropy(
    a: PositiveDefiniteMatrix, b: PositiveDefiniteMatrix, q: float, f: ScalarFunction
) -> np.ndarray:
    """A^{1/2} T^q f(T) A^{1/2} with T = A^{-1/2} B A^{-1/2}.

    The spectrum of T must lie in the domain of f.  With q = 0, f = log this
    is the relative operator entropy S(A|B).
    """
    return _freeze(_symmetrize(PairSpectrum(a, b).entropy_term(_finite_exponent(q), f)))


def variational_form(
    a: PositiveDefiniteMatrix, b: PositiveDefiniteMatrix, q: float, f: ScalarFunction
) -> np.ndarray:
    """The same entropy computed through the flipped pair:

        B * S(B^{-1}, A^{-1}; q-1, f) * B

    which agrees with relative_entropy(a, b, q, f) identically.
    """
    inner = relative_entropy(b.inv(), a.inv(), _finite_exponent(q) - 1.0, f)
    return _freeze(_symmetrize(b.array @ inner @ b.array))


def generalized_entropy(
    fa: OperatorField, fb: OperatorField, q: float, f: ScalarFunction
) -> np.ndarray:
    """sum_s w_s S(A_s, B_s; q, f) over node-aligned fields."""
    return _freeze(_symmetrize(fa.pair_spectrum(fb).entropy_term(_finite_exponent(q), f)))


def mean_field(fa: OperatorField, fb: OperatorField, p: float) -> np.ndarray:
    """sum_s w_s (A_s #_p B_s) for p in [0, 1]."""
    if not 0.0 <= float(p) <= 1.0:
        raise PreconditionError(f"mean_field requires p in [0, 1], got {p}")
    return _freeze(_symmetrize(fa.pair_spectrum(fb).power_mean(p)))
