import dataclasses
import math

import numpy as np
import pytest

from opentropy import DomainError, PreconditionError
from opentropy.functions import (
    IDENTITY,
    LOG,
    NEG_T_LOG_T,
    ScalarFunction,
    affine,
    constant,
    parse,
    power,
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
    for bad in (math.inf, math.nan):
        with pytest.raises(PreconditionError):
            constant(bad)
        with pytest.raises(PreconditionError):
            affine(bad, 1.0)
        with pytest.raises(PreconditionError):
            affine(1.0, bad)


@pytest.mark.parametrize("f", CATALOG)
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


@pytest.mark.parametrize("f", CATALOG)
def test_flagged_concave_satisfies_midpoint_concavity(f, rng):
    assert f.operator_concave
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
    # Flags are not declared: a function is its catalog spec, and the catalog
    # entry gives its flags.
    def test_custom_concave_claim_rejected_for_convex(self):
        # A catalog name is not a spec, and no caller can flag t^2 concave.
        for name in ("square", "power_0.5", "affine_1_2"):
            with pytest.raises(PreconditionError, match="unknown function spec"):
                ScalarFunction(name)
        with pytest.raises(TypeError):
            ScalarFunction("log", operator_concave=True)
        with pytest.raises(ValueError):
            dataclasses.replace(LOG, name="square")

    def test_custom_nonnegativity_claim_rejected(self):
        with pytest.raises(TypeError):
            ScalarFunction("log", nonnegative_on=(0.0, math.inf))
        with pytest.raises(ValueError):
            dataclasses.replace(LOG, nonnegative_on=(0.0, math.inf))
        assert LOG.nonnegative_on == (1.0, math.inf)


class TestClosedCatalog:
    def test_spec_alone_builds_the_entry(self):
        ts = np.linspace(0.1, 5.0, 64)
        for f in CATALOG:
            g = ScalarFunction(f.spec)
            assert g == f and hash(g) == hash(f) and g.name == f.name
            assert g.nonnegative_on == f.nonnegative_on and g.operator_concave
            np.testing.assert_array_equal(g.fn(ts), f.fn(ts))
            np.testing.assert_array_equal(g.deriv(ts), f.deriv(ts))
        assert parse(" power:.5 ").spec == "power:0.5" and parse("log:").spec == "log"

    def test_replace_wraps_the_callables_and_keeps_the_entry(self):
        calls = []

        def counted(fn):
            return lambda t: calls.append(t) or fn(t)

        for f in CATALOG:
            g = dataclasses.replace(f, fn=counted(f.fn), deriv=counted(f.deriv))
            assert (g.spec, g.name, g.nonnegative_on, g.operator_concave) == (
                f.spec, f.name, f.nonnegative_on, f.operator_concave)
            assert g == f and g.evaluate(2.0) == f.evaluate(2.0) and g.derivative(2.0) == f.derivative(2.0)
        assert len(calls) == 2 * len(CATALOG)
