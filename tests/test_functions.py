import math

import numpy as np
import pytest

from opentropy import DomainError, PreconditionError
from opentropy.functions import (
    IDENTITY,
    LOG,
    NEG_T_LOG_T,
    affine,
    check_midpoint_concave_on,
    check_nonnegative_on,
    constant,
    custom,
    parse,
    power,
    validate_declared_flags,
)

CATALOG = [IDENTITY, LOG, NEG_T_LOG_T, power(0.5), power(0.25), affine(1.0, 2.0), constant(3.0)]


def test_known_values():
    assert LOG.evaluate(1.0) == 0.0
    assert power(0.5).evaluate(4.0) == 2.0
    assert abs(NEG_T_LOG_T.evaluate(math.e) + math.e) <= 1e-15
    assert IDENTITY.evaluate(2.5) == 2.5
    assert affine(1.0, 2.0).evaluate(3.0) == 7.0


def test_domain_errors():
    with pytest.raises(DomainError):
        LOG.evaluate(0.0)
    with pytest.raises(DomainError):
        power(0.5).evaluate(-1.0)
    with pytest.raises(DomainError):
        LOG.evaluate_array(np.array([1.0, -2.0]))


def test_catalog_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        power(1.5)
    with pytest.raises(PreconditionError):
        constant(-1.0)
    with pytest.raises(PreconditionError):
        affine(-1.0, 2.0)


def test_nonnegativity_grid():
    assert check_nonnegative_on(LOG, 1.0, 2.0)
    assert not check_nonnegative_on(LOG, 0.5, 2.0)
    assert check_nonnegative_on(NEG_T_LOG_T, 0.5, 1.0)
    assert not check_nonnegative_on(NEG_T_LOG_T, 0.5, 2.0)


@pytest.mark.parametrize("f", [f for f in CATALOG if f.deriv is not None])
def test_derivative_matches_central_difference(f, rng):
    h = 1e-5
    for _ in range(50):
        t = float(rng.uniform(0.1, 5.0))
        numeric = (f.fn(t + h) - f.fn(t - h)) / (2.0 * h)
        exact = f.derivative(t)
        assert abs(numeric - exact) <= 1e-6 * max(1.0, abs(exact))


def test_powers_monotone_in_exponent():
    ts = np.linspace(1.0, 50.0, 512)
    for p, q in [(0.0, 0.25), (0.25, 0.5), (0.5, 1.0), (0.1, 0.9)]:
        assert np.all(power(p).evaluate_array(ts) <= power(q).evaluate_array(ts) + 1e-12)


@pytest.mark.parametrize("f", [f for f in CATALOG if f.operator_concave])
def test_flagged_concave_satisfies_midpoint_concavity(f, rng):
    for _ in range(1000):
        a, b = rng.uniform(0.05, 10.0, size=2)
        assert f.fn((a + b) / 2.0) >= (f.fn(a) + f.fn(b)) / 2.0 - 1e-12


def test_parse_round_trips():
    for spec in ["log", "identity", "neg_t_log_t", "power:0.5", "const:2.0", "affine:1.0,0.5"]:
        f = parse(spec)
        assert parse(f.spec).name == f.name
    assert parse("power:0.25").evaluate(16.0) == 2.0


@pytest.mark.parametrize("bad", ["", "sqrt", "power", "power:x", "affine:1", "log:3extra"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(PreconditionError):
        parse(bad)


class TestDeclaredFlagValidation:
    def test_catalog_passes_without_scanning(self):
        validate_declared_flags(LOG, 0.5, 2.0)

    def test_custom_concave_claim_rejected_for_convex(self):
        # A catalog name earns no trust: only the catalog constructors set a spec.
        for name in ("square", "log", "power_0.5", "affine_1_2"):
            square = custom(lambda t: t * t, name=name, operator_concave=True)
            with pytest.raises(PreconditionError):
                validate_declared_flags(square, 0.5, 2.0)

    def test_custom_nonnegativity_claim_rejected(self):
        dip = custom(
            lambda t: (t - 1.0) ** 4 - 0.05,
            name="dip",
            nonnegative_on=(0.0, math.inf),
        )
        with pytest.raises(PreconditionError):
            validate_declared_flags(dip, 0.5, 1.5)

    def test_honest_custom_passes(self):
        root = custom(
            lambda t: np.sqrt(t),
            name="another_root",
            operator_concave=True,
            nonnegative_on=(0.0, math.inf),
        )
        validate_declared_flags(root, 0.5, 4.0)

    def test_midpoint_concavity_grid(self):
        assert check_midpoint_concave_on(LOG, 0.5, 4.0)
        assert not check_midpoint_concave_on(custom(lambda t: t * t, name="sq"), 0.5, 4.0)
