"""Every claimed side of every statement against the 50-digit reference of
`tests/reference.py`, two instances per statement (stratified: a
unit-exponent statement's pair holds an interior q); the reference's own
independence from the kernel; and source mutants it kills by itself."""

import ast
import dataclasses
import inspect
import itertools
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

import reference
from opentropy import entropy, maps, matcore, verify
from opentropy.verify import STATEMENTS, TheoremId

# Two instances per statement in tier-1; the script compares reference.COUNT (`python tests/reference.py`).
COUNT = 2
KERNEL_MODULES = (matcore, entropy, maps)
# What a kernel object computes: its spectral data, read off as attributes.
SPECTRAL = {"decomposition", "eigenvalues", "eigenvectors", "frame", "lambda_min", "lambda_max"}


def kernel_names() -> set:
    """The functions and classes the kernel modules define, their classes'
    methods and their spectral data."""
    modules = {module.__name__ for module in KERNEL_MODULES}
    names = set(SPECTRAL)
    for module in KERNEL_MODULES:
        for name, obj in vars(module).items():
            if callable(obj) and getattr(obj, "__module__", None) in modules:
                names.add(name)
                for klass in getattr(obj, "__mro__", ()):
                    if klass.__module__ in modules:
                        names |= {member for member, value in vars(klass).items() if not member.startswith("__")
                                  and isinstance(value, (types.FunctionType, classmethod))}
    return names


def kernel_uses(source: str) -> set:
    """Every import of a kernel module or name, and every kernel name read as an attribute."""
    modules = {module.__name__ for module in KERNEL_MODULES}
    names = kernel_names()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name in modules}
        elif isinstance(node, ast.ImportFrom):
            if node.module in modules:
                found.add(node.module)
            found |= {f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name in names or f"{node.module}.{alias.name}" in modules}
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add(ast.unparse(node))
    return found


def test_the_reference_uses_no_kernel():
    assert kernel_uses(Path(reference.__file__).read_text()) == set()


def test_the_guard_sees_each_form():
    source = textwrap.dedent("""
        import opentropy.matcore
        from opentropy import entropy, bounds
        from opentropy.maps import PositiveLinearMap
        from opentropy.verify import _eigh, run_trial
        from opentropy import PairSpectrum
        def f(inst, verify):
            return inst.fa.pair_spectrum(inst.fb), verify._scalar_image, inst.fa.decomposition, inst.fa.arrays
    """)
    assert kernel_uses(source) == {
        "opentropy.matcore", "opentropy.entropy", "opentropy.maps", "opentropy.maps.PositiveLinearMap",
        "opentropy.verify._eigh", "opentropy.PairSpectrum",
        "inst.fa.pair_spectrum", "verify._scalar_image", "inst.fa.decomposition",
    }


def stratified(theorem: TheoremId, count: int = COUNT) -> list:
    """The first `count` instances of the reference sample, but a
    unit-exponent statement's last is its first with 0 < q < 1 when none of
    the others has one.  At q = 0 and at q = 1 the normalized fields give
    V = sum w A#_q B = I, so the t0 terms gamma f(t0)(I - V) are 0 and a
    sample of those exponents alone cannot see them."""
    drawn = reference.sample(theorem, 50 * count)
    first = list(itertools.islice(drawn, count))
    if not STATEMENTS[theorem].unit_exponent or any(0.0 < inst.q < 1.0 for _, inst in first):
        return first
    return first[:-1] + [next(pair for pair in drawn if 0.0 < pair[1].q < 1.0)]


@pytest.mark.parametrize("theorem", [t for t in TheoremId if STATEMENTS[t].unit_exponent], ids=lambda t: t.value)
def test_a_unit_exponent_sample_holds_an_interior_q(theorem):
    assert any(0.0 < inst.q < 1.0 for _, inst in stratified(theorem))


@pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
def test_every_side_agrees_with_the_reference(theorem):
    for index, inst in stratified(theorem):
        beyond = [side for side in reference.compare(theorem, inst) if not side.within]
        assert beyond == [], (index, beyond)


def disagrees(theorem) -> bool:
    """Whether some side of the first sampled instance is beyond the bound."""
    ((_, inst),) = reference.sample(theorem, 1)
    return not all(side.within for side in reference.compare(theorem, inst))


# The statements whose sides are sums over a pair spectrum's nodes.
PAIR_SUMS = [theorem for theorem in TheoremId if theorem not in (
    TheoremId.COMPRESSION_JENSEN, TheoremId.REV_JENSEN_GAMMA, TheoremId.REV_JENSEN_ZETA,
    TheoremId.KLEIN_UPPER, TheoremId.INFO_INEQ)]


@pytest.mark.parametrize("theorem", PAIR_SUMS, ids=lambda t: t.value)
def test_the_reference_kills_the_measure_ignoring_mutant(theorem, monkeypatch):
    # sum_s w_s ... taken with the weights 1/k: every pair-sum side moves.
    def uniform(self, values):
        q, k = self.frame, len(self.weights)
        terms = (q * np.asarray(values)[..., None, :]) @ matcore._adjoint(q)
        return matcore._weighted_sum(np.full(k, 1.0 / k), terms)

    monkeypatch.setattr(matcore.PairSpectrum, "conjugate", uniform)
    assert disagrees(theorem)


def apply_mutant(monkeypatch, name: str, old: str, new: str) -> None:
    """Replace verify's function `name` by its source with `old` (found once)
    replaced by `new`, in the module and in every statement that builds with it."""
    original = getattr(verify, name)
    source = inspect.getsource(original)
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(verify))
    exec(compile(source.replace(old, new), verify.__file__, "exec"), namespace)
    monkeypatch.setattr(verify, name, namespace[name])
    for theorem, st in verify.STATEMENTS.items():
        if st.build is original:
            monkeypatch.setitem(verify.STATEMENTS, theorem, dataclasses.replace(st, build=namespace[name]))


# The source mutants that pass a seed-42 campaign at 20 trials per statement
# (the builders' verdicts still hold): the reference sees each side move.
CAMPAIGN_SURVIVORS = {
    "entropy_upper rhs sign": (TheoremId.ENTROPY_UPPER, "_entropy_upper",
                               "lam ** (q + 1.0) - lam ** q", "lam ** (q + 1.0) + lam ** q"),
    "klein_upper B + A": (TheoremId.KLEIN_UPPER, "_klein_upper",
                          "inst.fb.arrays[0] - inst.fa.arrays[0]", "inst.fb.arrays[0] + inst.fa.arrays[0]"),
    "superadditive alpha=0.5": (TheoremId.SUBADDITIVE, "_superadditive_terms",
                                "alpha: float = 1.0", "alpha: float = 0.5"),
    "superadditive beta=0.5": (TheoremId.SUBADDITIVE, "_superadditive_terms",
                               "beta: float = 1.0", "beta: float = 0.5"),
}


@pytest.mark.parametrize("name", CAMPAIGN_SURVIVORS)
def test_the_reference_kills_the_campaign_survivors(name, monkeypatch):
    theorem, function, old, new = CAMPAIGN_SURVIVORS[name]
    apply_mutant(monkeypatch, function, old, new)
    assert disagrees(theorem)


def test_the_stratified_sample_kills_the_dropped_gamma_mutant(monkeypatch):
    # gamma dropped from the t0 term of the reverse entropy bound: both
    # instances of the first two keys have q = 0, where that term is 0, so
    # only the 16,000-trial acceptance criterion killed it.
    apply_mutant(monkeypatch, "_entropy_bound_terms", "gamma * f.evaluate(t0) * defect", "f.evaluate(t0) * defect")
    sides = [side for _, inst in stratified(TheoremId.REV_ENTROPY_GAMMA)
             for side in reference.compare(TheoremId.REV_ENTROPY_GAMMA, inst)]
    assert not all(side.within for side in sides)
