"""The package's one number rule (`errors._number`), probed entry by entry.

Each row of `TABLE` is a public entry with one number argument left open.
Every row meets the same eight values: a bool, a string, a complex, a NaN,
an inf, an int beyond the double range, and two numpy numbers.  A numpy
number that the row admits must give exactly what the Python number it
holds gives; every other cell must raise PreconditionError, never Python's
own OverflowError, TypeError, KeyError or AttributeError, and never pass.
An `ast` guard keeps every number test but the rule's own out of `src/`.
"""

import ast
import dataclasses
import json
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest

from opentropy import (
    LOG,
    CampaignConfig,
    Instance,
    OperatorField,
    PositiveDefiniteMatrix,
    PositiveLinearMap,
    PreconditionError,
    TheoremId,
    affine,
    check,
    constant,
    generalized_entropy,
    identric_mean,
    logarithmic_mean,
    loewner_leq,
    mean_field,
    natural_power,
    power,
    random_instance,
    relative_entropy,
    secant_data,
    variational_form,
)

VALUES = (True, "0.5", 1 + 1j, math.nan, math.inf, 10**400, np.float64(0.5), np.int64(3))
HALF, THREE = VALUES[-2:]

X = PositiveDefiniteMatrix(np.diag([1.0, 2.0]))
Y = PositiveDefiniteMatrix(np.array([[3.0, 1.0], [1.0, 2.0]]))
FA = OperatorField([(1.0, X), (0.5, Y)])
FB = OperatorField([(1.0, Y), (0.5, X)])
INSTANCE = random_instance(TheoremId.HOMOGENEOUS, 2, 2, 0)


def config(**fields) -> CampaignConfig:
    out = CampaignConfig(**{"trials": 1, **fields})
    out.validate()
    return out


# (entry, the call with its argument x, the numpy values it admits).
TABLE = [
    ("random_instance dim", lambda x: random_instance(TheoremId.HOMOGENEOUS, x, 2, 0), {THREE}),
    ("random_instance k", lambda x: random_instance(TheoremId.HOMOGENEOUS, 2, x, 0), {THREE}),
    ("random_instance seed", lambda x: random_instance(TheoremId.HOMOGENEOUS, 2, 2, x), {THREE}),
    ("random_instance q", lambda x: random_instance(TheoremId.HOMOGENEOUS, 2, 2, 0, p_or_q=x), {HALF, THREE}),
    ("random_instance unit q", lambda x: random_instance(TheoremId.ENTROPY_LOWER, 2, 2, 0, p_or_q=x), {HALF}),
    ("check tol", lambda x: check(TheoremId.HOMOGENEOUS, INSTANCE, x), {HALF, THREE}),
    ("loewner_leq tol", lambda x: loewner_leq(X.array, Y.array, x), {HALF, THREE}),
    ("secant_data m", lambda x: secant_data(LOG, x, 4.0), {HALF, THREE}),
    ("secant_data M", lambda x: secant_data(LOG, 0.25, x), {HALF, THREE}),
    ("power p", power, {HALF}),
    ("constant c", constant, {HALF, THREE}),
    ("affine a", lambda x: affine(x, 1.0), {HALF, THREE}),
    ("affine b", lambda x: affine(1.0, x), {HALF, THREE}),
    ("natural_power q", lambda x: natural_power(X, Y, x).array, {HALF, THREE}),
    ("relative_entropy q", lambda x: relative_entropy(X, Y, x, LOG), {HALF, THREE}),
    ("variational_form q", lambda x: variational_form(X, Y, x, LOG), {HALF, THREE}),
    ("generalized_entropy q", lambda x: generalized_entropy(FA, FB, x, LOG), {HALF, THREE}),
    ("mean_field p", lambda x: mean_field(FA, FB, x), {HALF}),
    ("logarithmic_mean a", lambda x: logarithmic_mean(x, 2.0), {HALF, THREE}),
    ("identric_mean b", lambda x: identric_mean(2.0, x), {HALF, THREE}),
    ("random_normalized n_terms", lambda x: PositiveLinearMap.random_normalized(2, 2, x, np.random.default_rng(0)),
     {THREE}),
    ("CampaignConfig trials", lambda x: config(trials=x), {THREE}),
    ("CampaignConfig seed", lambda x: config(seed=x), {THREE}),
    ("CampaignConfig tol", lambda x: config(tol=x), {HALF, THREE}),
    ("CampaignConfig dims", lambda x: config(dims=(2, x)), {THREE}),
    ("CampaignConfig exponents", lambda x: config(exponents=(0.0, x)), {HALF, THREE}),
]


def plain(value):
    """The Python number a numpy number holds."""
    return value.item()


def same(got, want) -> bool:
    """Whether two results are the same, to the bit and to the JSON type."""
    if isinstance(got, tuple):
        return len(got) == len(want) and all(map(same, got, want))
    if isinstance(got, np.ndarray):
        return np.array_equal(got, want)
    if isinstance(got, (Instance, CampaignConfig)):
        return json.dumps(got.to_json()) == json.dumps(want.to_json())
    if isinstance(got, PositiveLinearMap):
        return np.array_equal(got.kraus, want.kraus)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("entry,call,admits", TABLE, ids=[row[0] for row in TABLE])
def test_each_cell_returns_the_right_value_or_is_refused(entry, call, admits, value):
    if any(value is admitted for admitted in admits):
        assert same(call(value), call(plain(value)))
    else:
        with pytest.raises(PreconditionError):
            call(value)


@pytest.mark.parametrize("call", [
    # KeyError, and an instance whose check and to_json raised AttributeError.
    lambda: random_instance(3, 3, 2, 0),
    lambda: random_instance(TheoremId.HOMOGENEOUS, 3, 2, 0, f="x"),
    lambda: check(0, INSTANCE),
    lambda: check(TheoremId.HOMOGENEOUS, dataclasses.replace(INSTANCE, f="x")),
], ids=["random_instance theorem", "random_instance f", "check theorem", "check f"])
def test_a_theorem_or_function_of_another_type_is_refused(call):
    with pytest.raises(PreconditionError, match="must be a (TheoremId|ScalarFunction), got "):
        call()


# ---------------------------------------------------------------------------
# the guard: no number test outside the rule's own module
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "opentropy"
RULE_MODULE = "errors.py"


def _names(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def number_tests(source: str) -> list[str]:
    """Each hand-rolled number test in `source`: the `numbers` module,
    `operator.index`, `isinstance(x, bool)` (or a tuple naming bool) and
    `type(x) is int` (or ==, is not, !=)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name == "numbers"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numbers" or node.module == "operator" and any(a.name == "index" for a in node.names):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Attribute) and (ast.unparse(node) == "operator.index" or ast.unparse(
                node.value) == "numbers"):
            found.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
              and len(node.args) == 2 and _names(node.args[1]) & {"bool", "bool_"}):
            found.append(ast.unparse(node))
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
              and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
              and any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops)
              and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators)):
            found.append(ast.unparse(node))
    return found


def test_no_module_but_the_rules_own_tests_a_number():
    modules = sorted(SRC.glob("*.py"))
    assert RULE_MODULE in {path.name for path in modules}
    found = {path.name: number_tests(path.read_text()) for path in modules if path.name != RULE_MODULE}
    assert {name: tests for name, tests in found.items() if tests} == {}


def test_the_guard_sees_each_form():
    source = textwrap.dedent("""
        import numbers
        from operator import index
        import operator
        def f(x, n):
            a = isinstance(x, numbers.Real) and not isinstance(x, bool)
            b = isinstance(x, (int, np.bool_)) or operator.index(n)
            c = type(n) is int or type(n) is not int or type(x) is float
            return a, b, c
    """)
    assert sorted(number_tests(source)) == sorted([
        "import numbers", "from operator import index", "isinstance(x, bool)", "isinstance(x, (int, np.bool_))",
        "type(n) is int", "type(n) is not int", "numbers.Real", "operator.index",
    ])
    # The rule's own module holds the forms the guard looks for.
    assert number_tests((SRC / RULE_MODULE).read_text())
