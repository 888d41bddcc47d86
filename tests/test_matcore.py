import ast
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from opentropy import (
    DomainError,
    EigenConvergenceError,
    NotPositiveDefiniteError,
    OperatorField,
    PairSpectrum,
    PositiveDefiniteMatrix,
    PreconditionError,
    ShapeError,
    apply_function,
    eig,
    loewner_leq,
)
import opentropy
from opentropy import (
    PositiveLinearMap,
    generalized_entropy,
    mean_field,
    natural_power,
    relative_entropy,
    variational_form,
)
from opentropy.functions import IDENTITY, LOG, NEG_T_LOG_T, power
from opentropy.matcore import (
    _adjoint,
    _eigh,
    _eigvalsh,
    _frobenius,
    _loewner_margins,
    _qr,
    _relative_spectrum,
    _require_pd_floor,
    _symmetrize,
)
from opentropy.verify import _SLOTS, _matrix_from_json, _matrix_to_json

from conftest import labels, random_hermitian, random_pd


# Signed zeros, subnormals, an overflowing sum and infinities.
EDGE_ENTRIES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1.0, -3.0, 1e308, np.inf, -np.inf])


class TestSymmetrize:
    """`_symmetrize` halves a + a* in place (x * 0.5); the reference is the
    quotient (a + a*) / 2."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 4, 4), (2, 3, 5, 5)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_the_halved_sum(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        for _ in range(50):
            a = np.zeros(shape, dtype=dtype)
            a.real = rng.choice(EDGE_ENTRIES, size=shape)
            if dtype is complex:
                a.imag = rng.choice(EDGE_ENTRIES, size=shape)
            with np.errstate(all="ignore"):
                got, want = _symmetrize(a), (a + _adjoint(a)) / 2.0
            np.testing.assert_array_equal(got, want)
            got, want = got.view(float), want.view(float)
            # Every bit in a real array; in a complex one, all but the sign of
            # a zero or a NaN part, which numpy's complex product and quotient
            # round differently.
            exact = np.ones(got.shape, bool) if dtype is float else (want != 0.0) & ~np.isnan(want)
            np.testing.assert_array_equal(got.view(np.uint64)[exact], want.view(np.uint64)[exact])
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))


class TestHermitianMatrix:
    """Hermitian matrices as the package holds them: plain read-only complex
    arrays, symmetrized by the PD constructors and checked exactly by the
    payload decoder."""

    def test_symmetrization_absorbs_drift(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = PositiveDefiniteMatrix(g @ g.conj().T + np.eye(4) + 1e-3 * g).array
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
        np.testing.assert_allclose(h, (g @ g.conj().T + np.eye(4)) + 1e-3 * (g + g.conj().T) / 2)

    def test_rejects_nonsquare(self):
        for entries in (np.ones((2, 3)), np.ones(2), np.ones((0, 0))):
            with pytest.raises(ShapeError):
                PositiveDefiniteMatrix(entries)
        with pytest.raises(ShapeError):
            OperatorField([(1.0, np.ones((2, 3)))])

    def test_array_is_readonly(self, rng):
        a = random_pd(rng, 3)
        _, encode, decode = _SLOTS["x"]
        results = (a.array, apply_function(a, LOG), decode(encode(a)).array)
        for h in results:
            with pytest.raises(ValueError):
                h[0, 0] = 5.0

    def test_json_round_trip(self, rng):
        h = random_hermitian(rng, 5)
        back = _matrix_from_json(json.loads(json.dumps(_matrix_to_json(h))))
        np.testing.assert_array_equal(back, h)

    def test_json_non_hermitian_payload_rejected(self, rng):
        payload = _matrix_to_json(random_hermitian(rng, 3))
        payload["re"][0][1] += 1e-4
        with pytest.raises(PreconditionError, match="not Hermitian"):
            _matrix_from_json(payload)

    def test_json_shape_mismatch(self):
        with pytest.raises(ShapeError):
            _matrix_from_json({"dim": 3, "re": [[1.0]], "im": [[0.0]]})

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_nonfinite_entry_rejected(self, part, value):
        payload = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        payload[part][1][0] = value
        with pytest.raises(PreconditionError, match=f"must be finite, got {value!r}"):
            _matrix_from_json(payload)


class TestEigensolverEntry:
    """matcore's `_eigh` and `_eigvalsh` call numpy.linalg's LAPACK gufuncs
    without its wrapper and must give exactly what `np.linalg.eigh` and
    `np.linalg.eigvalsh` give."""

    @pytest.mark.parametrize("dtype", [complex, float])
    @pytest.mark.parametrize("dim", [*range(1, 9), 64])
    def test_matches_numpy_linalg_bitwise(self, rng, dim, dtype):
        g = rng.standard_normal((2, 3, dim, dim))
        if dtype is complex:
            g = g + 1j * rng.standard_normal((2, 3, dim, dim))
        a = (g + np.conj(np.swapaxes(g, -1, -2))) / 2.0
        w, v = _eigh(a)
        expected_w, expected_v = np.linalg.eigh(a)
        values = _eigvalsh(a)
        assert w.dtype == expected_w.dtype and v.dtype == expected_v.dtype == a.dtype
        np.testing.assert_array_equal(w, expected_w)
        np.testing.assert_array_equal(v, expected_v)
        np.testing.assert_array_equal(values, np.linalg.eigvalsh(a))
        assert values.dtype == np.float64

    @pytest.mark.parametrize("a", [
        np.diag([np.nan, 1.0]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[np.inf, 1.0], [1.0, 1.0]], dtype=complex),
    ], ids=["nan-diagonal", "inf-diagonal", "inf-complex"])
    def test_nonfinite_input_gives_numpys_nans_without_a_warning(self, a):
        # filterwarnings = error turns any RuntimeWarning into a failure here.
        w, v = _eigh(a)
        expected_w, expected_v = np.linalg.eigh(a)
        assert np.isnan(w).any()
        np.testing.assert_array_equal(w, expected_w)
        np.testing.assert_array_equal(v, expected_v)
        np.testing.assert_array_equal(_eigvalsh(a), np.linalg.eigvalsh(a))

    def test_nonconvergence_raises_eigen_convergence_error(self):
        a = np.full((3, 3), np.nan, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(a)
        for solve in (_eigh, _eigvalsh, eig):
            with pytest.raises(EigenConvergenceError, match="did not converge"):
                solve(a)


class TestQrAndFrobenius:
    """`_qr` (Q and R's diagonal) calls numpy.linalg's LAPACK gufuncs without
    its wrapper and must give exactly what `np.linalg.qr` gives; `_frobenius`
    must give exactly what `np.linalg.norm` gives."""

    @staticmethod
    def gaussian(rng, shape, dtype):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if dtype is complex else g

    @pytest.mark.parametrize("dtype", [complex, float])
    @pytest.mark.parametrize("dim", [*range(1, 9), 64])
    def test_qr_matches_numpy_linalg_bitwise(self, rng, dim, dtype):
        for shape in ((dim, dim), (3, dim, dim), (2, 3, dim, dim)):
            a = self.gaussian(rng, shape, dtype)
            before = a.copy()
            q, diagonal = _qr(a)
            expected_q, expected_r = np.linalg.qr(a)
            np.testing.assert_array_equal(a, before)
            assert q.dtype == expected_q.dtype and diagonal.dtype == expected_r.dtype
            np.testing.assert_array_equal(q, expected_q)
            np.testing.assert_array_equal(diagonal, np.diagonal(expected_r, axis1=-2, axis2=-1))

    @pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e-4, 1.0, 1e2])
    def test_frobenius_matches_numpy_norm_bitwise(self, rng, scale):
        for dim in (1, 2, 3, 5, 8):
            residual = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            assert _frobenius(residual) == float(np.linalg.norm(residual))
            real = residual.real.copy()
            assert _frobenius(real) == float(np.linalg.norm(real))


class TestLapackState:
    """The entries set numpy's floating-point state for one call and put the
    caller's back, after a failure too; filterwarnings = error turns a
    leaked RuntimeWarning into a failure."""

    NAN = np.full((3, 3), np.nan, dtype=complex)

    def test_callers_state_is_unchanged_after_a_solve_and_a_failure(self, rng):
        def hook(err, flag):
            raise AssertionError("the caller's callback ran")

        a = random_hermitian(rng, 4)
        for state in ({}, {"all": "warn", "call": hook}, {"all": "raise"}):
            with np.errstate(**state):
                before = np.geterr(), np.geterrcall()
                _eigh(a)
                _eigvalsh(a)
                _qr(a)
                assert (np.geterr(), np.geterrcall()) == before
                with pytest.raises(EigenConvergenceError):
                    _eigh(self.NAN)
                assert (np.geterr(), np.geterrcall()) == before

    def test_failure_raises_inside_a_callers_raise_state(self):
        with np.errstate(all="raise"):
            for solve in (_eigh, _eigvalsh):
                with pytest.raises(EigenConvergenceError, match="did not converge"):
                    solve(self.NAN)

    def test_failure_raises_in_another_thread(self, rng):
        caught = []

        def solve():
            try:
                _eigh(self.NAN)
            except Exception as exc:
                caught.append(exc)
            caught.append(_eigvalsh(a))

        a = random_hermitian(rng, 4)
        worker = threading.Thread(target=solve)
        worker.start()
        worker.join()
        assert isinstance(caught[0], EigenConvergenceError)
        np.testing.assert_array_equal(caught[1], np.linalg.eigvalsh(a))


# Calls that must go through matcore's LAPACK entry: the numpy.linalg wrappers
# it replaces and np.errstate, which it builds once at import instead.
_WRAPPED = re.compile(r"(np|numpy)\.(linalg\.(eigh|eigvalsh|qr|svd|norm)|errstate)")
# Logarithms in verify go through the catalog (`LOG`, a statement's f), whose
# `evaluate_array` refuses an argument outside the domain with DomainError.
_CATALOG_ONLY = {"verify.py": re.compile(r"(np|numpy|math)\.log")}
# bounds._ratio_bound's grid search divides by a chord that can vanish; its
# errstate guards no factorization.
_ALLOWED = {("bounds.py", "_ratio_bound", "np.errstate")}


def wrapper_calls(source: str, filename: str) -> set:
    """(file, enclosing function, callee) of every call to a wrapped name, and
    of every `from numpy.linalg import` of one; in a file of `_CATALOG_ONLY`,
    of its logarithms too."""
    found = set()
    catalog_only = _CATALOG_ONLY.get(filename)

    def guarded(name):
        return _WRAPPED.fullmatch(name) or (catalog_only is not None and catalog_only.fullmatch(name))

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call) and guarded(ast.unparse(child.func)):
                found.add((filename, inner, ast.unparse(child.func)))
            if isinstance(child, ast.ImportFrom) and child.module in ("numpy", "numpy.linalg", "math"):
                for alias in child.names:
                    if guarded(f"{child.module}.{alias.name}"):
                        found.add((filename, inner, f"{child.module}.{alias.name}"))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


# matcore's LAPACK entry: no other module names it, so the other modules
# solve through matcore's helpers and one patch of matcore sees every solve.
_ENTRY = {"_eigh", "_eigvalsh", "_qr", "_lapack"}


def entry_names(source: str, filename: str) -> set:
    """(file, name) of every name, attribute or import of the entry in a
    module other than matcore.py."""
    if filename == "matcore.py":
        return set()
    found = set()
    for node in ast.walk(ast.parse(source)):
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name.rpartition(".")[2] for alias in node.names}
        found |= {(filename, name) for name in names & _ENTRY}
    return found


class TestNoWrapperOutsideTheEntry:
    def test_the_package_calls_no_wrapper_outside_matcores_entry(self):
        found = set()
        for path in sorted(Path(opentropy.__file__).parent.glob("*.py")):
            found |= wrapper_calls(path.read_text(), path.name)
        assert found == _ALLOWED

    def test_no_module_but_matcore_names_the_entry(self):
        found = set()
        for path in sorted(Path(opentropy.__file__).parent.glob("*.py")):
            found |= entry_names(path.read_text(), path.name)
        assert found == set()

    def test_the_entry_guard_sees_each_form(self):
        source = (
            "from .matcore import _eigh, _qr as factor\nimport opentropy.matcore._lapack\n"
            "def f(a):\n    return matcore._eigvalsh(a), _eigh\n"
        )
        assert entry_names(source, "verify.py") == {
            ("verify.py", "_eigh"), ("verify.py", "_qr"), ("verify.py", "_lapack"), ("verify.py", "_eigvalsh"),
        }
        assert entry_names(source, "matcore.py") == set()

    def test_the_guard_sees_each_form(self):
        source = (
            "import numpy as np\nfrom numpy.linalg import svd\n"
            "def f(a):\n    with np.errstate(all='ignore'):\n        return np.linalg.eigh(a), numpy.linalg.norm(a)\n"
        )
        assert wrapper_calls(source, "x.py") == {
            ("x.py", None, "numpy.linalg.svd"), ("x.py", "f", "np.errstate"),
            ("x.py", "f", "np.linalg.eigh"), ("x.py", "f", "numpy.linalg.norm"),
        }
        # A logarithm in verify, in each form.
        source = (
            "import math\nfrom math import log\n"
            "def f(a, t):\n    return np.log(a), numpy.log(a), math.log(t), np.log1p(a)\n"
        )
        assert wrapper_calls(source, "verify.py") == {
            ("verify.py", None, "math.log"), ("verify.py", "f", "np.log"),
            ("verify.py", "f", "numpy.log"), ("verify.py", "f", "math.log"),
        }
        # Elsewhere (the catalog, the closed forms) a logarithm is the implementation.
        assert wrapper_calls(source, "bounds.py") == set()


# The sites that store or return a matrix, each exactly Hermitian by one
# `_symmetrize` (matcore's rule): the drawn nodes, field construction, the
# user-facing values and the map images that `map_monotone` stores as
# fields.  Every other matrix is an intermediate that only a lower-triangle
# solve reads as Hermitian.
SYMMETRIZED = {
    ("entropy.py", "generalized_entropy"), ("entropy.py", "mean_field"),
    ("entropy.py", "relative_entropy"), ("entropy.py", "variational_form"),
    ("maps.py", "PositiveLinearMap.apply"), ("maps.py", "PositiveLinearMap.kraus_gram"),
    ("matcore.py", "OperatorField.__init__"), ("matcore.py", "OperatorField.weighted_sum"),
    ("matcore.py", "PositiveDefiniteMatrix.__init__"), ("matcore.py", "apply_function"),
    ("matcore.py", "loewner_leq"),
    ("verify.py", "_free_nodes"), ("verify.py", "_map_monotone"), ("verify.py", "_resolution"),
}


def symmetrize_sites(source: str, filename: str) -> set:
    """(file, enclosing qualified name) of every read of `_symmetrize`, as a
    name or as an attribute; None at module level."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            if (isinstance(child, ast.Name) and child.id == "_symmetrize") or (
                isinstance(child, ast.Attribute) and child.attr == "_symmetrize"
            ):
                found.add((filename, where))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


class TestHermitianRule:
    def test_only_stored_and_returned_values_are_symmetrized(self):
        found = set()
        for path in sorted(Path(opentropy.__file__).parent.glob("*.py")):
            found |= symmetrize_sites(path.read_text(), path.name)
        assert found == SYMMETRIZED

    def test_the_guard_sees_each_form(self):
        source = (
            "from .matcore import _symmetrize\n"
            "h = lambda a: _symmetrize(a)\n"
            "def f(a):\n    return _symmetrize(a)\n"
            "class C:\n    def g(self, a):\n        return matcore._symmetrize(a)\n"
            "    def k(self, a, s=_symmetrize):\n        return list(map(s, a))\n"
        )
        assert symmetrize_sites(source, "x.py") == {("x.py", None), ("x.py", "f"), ("x.py", "C.g"), ("x.py", "C.k")}

    @pytest.mark.parametrize("dim", [*range(1, 9), 64])
    def test_every_public_return_is_exactly_hermitian(self, rng, dim):
        weights = rng.uniform(0.5, 2.0, size=3)
        fa, fb = (OperatorField.from_matrices(weights, [random_pd(rng, dim) for _ in range(3)]) for _ in range(2))
        a, b = random_pd(rng, dim), random_pd(rng, dim)
        pmap = PositiveLinearMap.random_normalized(dim, dim, 2, rng)
        returns = {
            "apply": pmap.apply(a), "apply_function": apply_function(a, LOG),
            "weighted_sum": fa.weighted_sum(), "kraus_gram": pmap.kraus_gram(),
            "natural_power": natural_power(a, b, 0.3).array,
            "relative_entropy": relative_entropy(a, b, 0.5, LOG),
            "variational_form": variational_form(a, b, 0.5, LOG),
            "generalized_entropy": generalized_entropy(fa, fb, 0.5, NEG_T_LOG_T),
            "mean_field": mean_field(fa, fb, 0.3), "inv": a.inv().array,
        }
        for name, x in returns.items():
            assert np.array_equal(x, x.conj().swapaxes(-1, -2)), name


class TestEig:
    def test_diagonal_is_already_sorted(self):
        d = eig(np.diag([3.0, 1.0]))
        np.testing.assert_array_equal(d.eigenvalues, [1.0, 3.0])
        # columns are identity columns up to permutation
        np.testing.assert_array_equal(np.abs(d.eigenvectors), np.eye(2)[:, [1, 0]])

    def test_symmetry_forced_spectrum(self):
        d = eig([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(d.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_reconstruction_and_orthonormality(self, rng):
        # 200 here; the acceptance suite runs the full 1000-matrix sweep.
        for _ in range(200):
            dim = int(rng.integers(1, 17))
            h = random_hermitian(rng, dim, scale=10.0 ** rng.uniform(-2, 2))
            d = eig(h)
            hnorm = float(np.linalg.norm(h))
            assert np.linalg.norm(d.reconstruct() - h) <= 1e-10 * max(1.0, hnorm)
            assert np.linalg.norm(d.eigenvectors.conj().T @ d.eigenvectors - np.eye(dim)) <= 1e-11
            assert np.all(np.diff(d.eigenvalues) >= 0)


class TestStackedSolves:
    """A solve of an (n, k, d, d) stack gives the same bits as one solve per
    matrix: the field kernel solves several fields and pairs as one stack and
    relies on this for bit-identical reports."""

    @pytest.mark.parametrize("dim", [*range(1, 9), 64])
    def test_stack_matches_per_matrix_calls_bitwise(self, rng, dim):
        n, k = 2, 3
        a, b = (np.stack([[random_pd(rng, dim).array for _ in range(k)] for _ in range(n)]) for _ in range(2))
        whole = eig(a)
        values = np.linalg.eigvalsh(b)
        lam, frame = _relative_spectrum(whole, b)
        for i in range(n):
            for s in range(k):
                one = eig(a[i, s])
                np.testing.assert_array_equal(whole.eigenvalues[i, s], one.eigenvalues)
                np.testing.assert_array_equal(whole.eigenvectors[i, s], one.eigenvectors)
                np.testing.assert_array_equal(values[i, s], np.linalg.eigvalsh(b[i, s]))
                one_lam, one_frame = _relative_spectrum(one, b[i, s])
                np.testing.assert_array_equal(lam[i, s], one_lam)
                np.testing.assert_array_equal(frame[i, s], one_frame)

    def test_floor_reports_the_first_failing_row(self):
        spectra = np.array([[[1.0, 2.0], [-3.0, 1.0]], [[-5.0, 1.0], [1.0, 1.0]]])
        with pytest.raises(NotPositiveDefiniteError, match="-3.000000e"):
            _require_pd_floor(spectra)
        _require_pd_floor(np.array([[1.0, 2.0], [1e-11, 1.0]]))

    @pytest.mark.parametrize("spectrum", [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan], [1.0, np.inf]])
    def test_floor_rejects_a_nan_or_inf_end(self, spectrum):
        with pytest.raises(NotPositiveDefiniteError):
            _require_pd_floor(np.array(spectrum))
        with pytest.raises(NotPositiveDefiniteError):
            _require_pd_floor(np.array([[1.0, 2.0], spectrum]))

    def test_nan_matrix_and_field_node_rejected(self, rng):
        with pytest.raises(NotPositiveDefiniteError, match="nan"):
            PositiveDefiniteMatrix(np.diag([np.nan, 1.0]))
        with pytest.raises(NotPositiveDefiniteError, match="nan"):
            OperatorField([(1.0, random_pd(rng, 2)), (1.0, np.diag([np.nan, 1.0]))])

    @pytest.mark.parametrize("entries", [np.diag([np.inf, 1.0]), np.diag([1.0, -np.inf]).astype(complex),
                                         [[10**400, 0], [0, 1]]], ids=["inf", "complex-inf", "10**400"])
    def test_an_infinite_or_overflowing_entry_is_refused_before_the_symmetrize(self, rng, entries):
        # An inf warned in the complex halving (inf * 0j is NaN), a RuntimeWarning
        # under -W error, and 10**400 raised a bare OverflowError.
        with pytest.raises(NotPositiveDefiniteError, match="non-finite entry|beyond the double range"):
            PositiveDefiniteMatrix(entries)
        with pytest.raises(NotPositiveDefiniteError, match="non-finite entry|beyond the double range"):
            OperatorField([(1.0, random_pd(rng, 2)), (1.0, entries)])


class TestPositiveDefinite:
    def test_rejects_relative_floor(self):
        with pytest.raises(NotPositiveDefiniteError):
            PositiveDefiniteMatrix(np.diag([1.0, 1e-13]))
        PositiveDefiniteMatrix(np.diag([1.0, 1e-10]))  # above the floor

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            PositiveDefiniteMatrix(np.diag([1.0, -0.5]))

    def test_scaled_solves_its_own_array(self, rng):
        a = random_pd(rng, 4)
        b = PositiveDefiniteMatrix(2.5 * a.array)
        np.testing.assert_array_equal(b.array, 2.5 * a.array)
        np.testing.assert_array_equal(b.eigenvalues, np.linalg.eigh(b.array)[0])


EPS = np.finfo(float).eps

# The constant c of the bounds below.  Over 20 draws per dimension of
# well-conditioned nodes the largest c needed was 3.6 for the kernel (at
# d = 2) and 0.3 for `conjugate` (at d = 1).
KERNEL_C = 16.0


class TestPairKernelDefinitions:
    """The pair kernel and the fused aggregate against their definitions, in
    the Frobenius norm: Q Q* = A and Q diag(lambda) Q* = B within
    c eps d kappa(A) ||.||, and `conjugate` is sum_s w_s Q_s diag(v_s) Q_s*."""

    @staticmethod
    def assert_rebuilds(a, b, decomposition, lam, frame):
        d = a.shape[-1]
        kappa = decomposition.eigenvalues[-1] / decomposition.eigenvalues[0]
        for want, got in ((a, frame @ _adjoint(frame)), (b, (frame * lam) @ _adjoint(frame))):
            assert _frobenius(got - want) <= KERNEL_C * EPS * d * kappa * _frobenius(want)

    @pytest.mark.parametrize("dim", [*range(1, 9), 64])
    def test_frames_rebuild_a_and_b_single_and_stacked(self, rng, dim):
        a, b = node_stack(rng, dim, 3, n=2), node_stack(rng, dim, 3, n=2)
        whole = eig(a)
        lams, frames = _relative_spectrum(whole, b)
        assert lams.shape == (2, 3, dim) and frames.shape == (2, 3, dim, dim)
        for i in range(2):
            for s in range(3):
                one = eig(a[i, s])
                self.assert_rebuilds(a[i, s], b[i, s], one, *_relative_spectrum(one, b[i, s]))
                self.assert_rebuilds(a[i, s], b[i, s], one, lams[i, s], frames[i, s])

    @pytest.mark.parametrize("dim", [*range(1, 9), 64])
    def test_fused_conjugate_is_the_weighted_sum_of_node_images(self, rng, dim):
        k = 3
        weights = rng.uniform(0.5, 2.0, size=k)
        fa, fb = (OperatorField.from_matrices(weights, [random_pd(rng, dim) for _ in range(k)]) for _ in range(2))
        spectrum = fa.pair_spectrum(fb)
        q = spectrum.frame
        for shape in ((dim,), (k, dim), (2, k, dim)):
            values = rng.uniform(-1.0, 1.0, size=shape)
            per_node = np.broadcast_to(values, (*shape[:-2], k, dim))
            want = sum(weights[s] * (q[s] * per_node[..., s, None, :]) @ _adjoint(q[s]) for s in range(k))
            got = spectrum.conjugate(values)
            assert got.shape == (*shape[:-2], dim, dim)
            # Every term's size, so that a sum that cancels is still measured
            # against the rounding of its terms.
            scale = float(np.abs(values).max()) * sum(w * _frobenius(f) ** 2 for w, f in zip(weights, q))
            for x, y in zip(got.reshape(-1, dim, dim), np.reshape(want, (-1, dim, dim))):
                assert _frobenius(x - y) <= KERNEL_C * EPS * k * dim * scale


def node_stack(rng, dim, k, n=1):
    """An exactly Hermitian (n, k, dim, dim) stack of well-conditioned PD nodes."""
    return np.array([[random_pd(rng, dim).array for _ in range(k)] for _ in range(n)])


class TestPairRoute:
    """`OperatorField.pairs` floors B through the pair spectrum and solves
    B's decomposition only when it is read."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_b_is_refused_before_the_pair_solve(self, rng, solve_calls, value):
        a, b = node_stack(rng, 3, 2), node_stack(rng, 3, 2)
        b[0, 1, 0, 2] = value
        solve_calls.clear()
        with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
            OperatorField.pairs(np.ones(2), a, b)
        # A's own solve and floor only: no pair kernel solve, no B solve.
        assert [s[:3] for s in solve_calls] == [("eigh", 2, 3)]

    def test_b_of_another_shape_is_refused(self, rng):
        a, b = node_stack(rng, 3, 2), node_stack(rng, 2, 2)
        with pytest.raises(ShapeError, match=r"B nodes of shape \(1, 2, 2, 2\) for A nodes of shape \(1, 2, 3, 3\)"):
            OperatorField.pairs(np.ones(2), a, b)

    @pytest.mark.parametrize("weights", [np.ones(3), np.ones((2, 1)), 1.0])
    def test_weights_of_another_shape_are_refused(self, rng, weights):
        with pytest.raises(ShapeError, match="weights for 2 nodes"):
            OperatorField.pairs(weights, node_stack(rng, 3, 2), node_stack(rng, 3, 2))
        with pytest.raises(ShapeError, match="weights for 2 nodes"):
            OperatorField(_weights=weights, _arrays=node_stack(rng, 3, 2)[0])

    def test_a_weight_that_is_not_a_number_is_refused(self, rng):
        # The bools and the string were cast: weights [1.0, 2.0], and the pair's bools read as 1.0.
        eye = np.eye(2)
        with pytest.raises(PreconditionError, match="each weight must be a number, got True"):
            OperatorField([(True, eye), ("2", eye)])
        with pytest.raises(PreconditionError, match="each weight must be a number, got '2'"):
            OperatorField([(1.0, eye), ("2", eye)])
        for weights in (np.array([True, True]), [1.0, True]):
            with pytest.raises(PreconditionError, match="each weight must be a number, got True"):
                OperatorField.pairs(weights, node_stack(rng, 3, 2), node_stack(rng, 3, 2))
        with pytest.raises(PreconditionError, match=r"each weight must be > 0, got -1\.0"):
            OperatorField.pairs(np.array([1.0, -1.0]), node_stack(rng, 3, 2), node_stack(rng, 3, 2))

    @pytest.mark.parametrize("low", [1e-13, 0.0, -0.5])
    def test_b_below_the_floor_is_refused_as_a_field_build_refuses_it(self, rng, solve_calls, low):
        a, b = node_stack(rng, 3, 2), node_stack(rng, 3, 2)
        b[0, 1] = np.diag([1.0, low, 2.0])
        with pytest.raises(NotPositiveDefiniteError) as field_build:
            OperatorField(_weights=np.ones(2), _arrays=b[0].copy())
        solve_calls.clear()
        with pytest.raises(NotPositiveDefiniteError) as pair_build:
            OperatorField.pairs(np.ones(2), a, b)
        assert str(pair_build.value) == str(field_build.value)
        # The refusal came from the exact floor on B's eigenvalues.
        assert labels(solve_calls) == ["eigh", "eigh", "eigvalsh"]
        np.testing.assert_array_equal(solve_calls[-1].a, b)

    def test_ill_conditioned_a_takes_the_exact_floor_and_passes(self, rng, solve_calls):
        # cond(A) = 1e8 spreads T far enough that the bounds cannot place B,
        # which is benign, so B's own eigenvalues decide.
        u = np.linalg.qr(random_hermitian(rng, 3))[0]
        a = _symmetrize((u * np.array([1e-8, 0.5, 1.0])) @ _adjoint(u))[None, None]
        b = node_stack(rng, 3, 1)
        solve_calls.clear()
        ((fa, fb),) = OperatorField.pairs(np.ones(1), a, b)
        assert labels(solve_calls) == ["eigh", "eigh", "eigvalsh"]
        np.testing.assert_array_equal(solve_calls[-1].a, b)
        assert fa.pair_spectrum(fb).m > 0.0

    def test_benign_pairs_solve_no_b(self, rng, solve_calls):
        a, b = node_stack(rng, 4, 3, n=2), node_stack(rng, 4, 3, n=2)
        solve_calls.clear()
        built = OperatorField.pairs(np.ones(3), a, b)
        assert [s[:3] for s in solve_calls] == [("eigh", 6, 4)] * 2
        assert not any(np.array_equal(s.a, b) for s in solve_calls)
        # Each pair spectrum was memoised by the build.
        solve_calls.clear()
        for fa, fb in built:
            fa.pair_spectrum(fb)
        assert solve_calls == []

    def test_lazy_decomposition_is_the_eager_build_bit_for_bit(self, rng, solve_calls):
        a, b = node_stack(rng, 5, 4), node_stack(rng, 5, 4)
        eager = OperatorField(_weights=np.ones(4), _arrays=b[0].copy()).decomposition
        ((_, fb),) = OperatorField.pairs(np.ones(4), a, b)
        solve_calls.clear()
        lazy = fb.decomposition
        assert fb.decomposition is lazy
        assert [s[:3] for s in solve_calls] == [("eigh", 4, 5)]
        np.testing.assert_array_equal(lazy.eigenvalues, eager.eigenvalues)
        np.testing.assert_array_equal(lazy.eigenvectors, eager.eigenvectors)


class TestApplyFunction:
    def test_identity_function(self, rng):
        a = random_pd(rng, 4)
        np.testing.assert_allclose(apply_function(a, IDENTITY), a.array, atol=1e-13)

    def test_log_on_diagonal(self):
        a = PositiveDefiniteMatrix(np.diag([1.0, np.e]))
        np.testing.assert_allclose(apply_function(a, LOG), np.diag([0.0, 1.0]), atol=1e-15)

    def test_sqrt_on_diagonal(self):
        a = PositiveDefiniteMatrix(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(apply_function(a, power(0.5)), np.diag([2.0, 3.0]), atol=1e-14)

    def test_commutes_with_argument(self, rng):
        for _ in range(50):
            a = random_pd(rng, 5)
            fa = apply_function(a, LOG)
            comm = fa @ a.array - a.array @ fa
            scale = max(1.0, np.linalg.norm(fa) * np.linalg.norm(a.array))
            assert np.linalg.norm(comm) <= 1e-10 * scale

    def test_domain_error_names_eigenvalue(self):
        class ShiftedLog:
            # log(t - 1), whose domain (1, inf) misses the eigenvalue 0.5.
            def evaluate_array(self, values):
                return LOG.evaluate_array(np.asarray(values) - 1.0)

        shifted_log = ShiftedLog()
        a = PositiveDefiniteMatrix(np.diag([0.5, 2.0]))
        with pytest.raises(DomainError, match="5"):
            apply_function(a, shifted_log)

    def test_composition_on_diagonal_is_entrywise(self):
        entries = np.array([1.7, 0.3, 2.9])
        a = PositiveDefiniteMatrix(np.diag(entries))
        g_of_a = PositiveDefiniteMatrix(apply_function(a, power(0.5)))
        composed = apply_function(g_of_a, LOG)
        np.testing.assert_array_equal(np.diag(composed).real, np.log(np.sqrt(entries)))


class _InvSqrt:
    # t^{-1/2} is no catalog entry; apply_function takes anything with evaluate_array.
    def evaluate_array(self, values):
        return 1.0 / np.sqrt(np.asarray(values, dtype=float))


INV_SQRT = _InvSqrt()


def half_powers(a):
    """A^{1/2}, A^{-1/2} and A^{-1} as arrays."""
    return apply_function(a, power(0.5)), apply_function(a, INV_SQRT), a.inv().array


class TestHalfPowers:
    def test_identity(self):
        a = PositiveDefiniteMatrix(np.eye(3))
        for m in half_powers(a):
            np.testing.assert_allclose(m, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        a = PositiveDefiniteMatrix(np.diag([4.0, 16.0]))
        s, isq, inv = half_powers(a)
        np.testing.assert_allclose(s, np.diag([2.0, 4.0]), atol=1e-14)
        np.testing.assert_allclose(isq, np.diag([0.5, 0.25]), atol=1e-14)
        np.testing.assert_allclose(inv, np.diag([0.25, 0.0625]), atol=1e-14)

    def test_residuals_random(self, rng):
        for _ in range(25):
            a = random_pd(rng, 4)
            s, isq, _ = half_powers(a)
            anorm = np.linalg.norm(a.array)
            assert np.linalg.norm(s @ s - a.array) <= 1e-10 * max(1.0, anorm)
            assert np.linalg.norm(s @ isq - np.eye(4)) <= 1e-10


class TestLoewner:
    def test_strict_order(self):
        holds, margin = loewner_leq(np.eye(2), 2.0 * np.eye(2))
        assert holds and abs(margin - 1.0) <= 1e-14

    def test_incomparable_pair(self):
        holds, margin = loewner_leq(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]))
        assert not holds and abs(margin + 1.0) <= 1e-14

    def test_reflexive(self, rng):
        a = random_hermitian(rng, 4)
        holds, margin = loewner_leq(a, a)
        assert holds and abs(margin) <= 1e-14

    @pytest.mark.parametrize("a, b", [
        (np.diag([np.nan, 1.0]), np.eye(2)),
        (np.eye(2), np.diag([np.nan, 1.0])),
        (np.diag([np.inf, 1.0]), np.eye(2)),
    ], ids=["nan-a", "nan-b", "inf-a"])
    def test_nonfinite_entry_refused(self, a, b):
        with pytest.raises(PreconditionError, match="finite"):
            loewner_leq(a, b)

    def test_an_entry_beyond_the_double_range_is_refused(self):
        # It raised a bare OverflowError in the complex conversion.
        with pytest.raises(PreconditionError, match="beyond the double range"):
            loewner_leq([[10**400, 0], [0, 1]], np.eye(2))

    def test_a_shape_mismatch_is_refused(self):
        with pytest.raises(ShapeError, match=r"shape mismatch: \(2, 2\) vs \(3, 3\)"):
            loewner_leq(np.eye(2), np.eye(3))

    def test_an_overflowing_difference_is_refused(self):
        # A + A* overflows to inf in the symmetrize; that read as (False, nan).
        a, b = np.diag([-1.5e308, 1.0]), np.diag([1.5e308, 1.0])
        with np.errstate(all="ignore"), pytest.raises(PreconditionError, match="overflowed"):
            loewner_leq(a, b)

    @pytest.mark.parametrize("a, b, tol, message", [
        (4.0 * np.eye(2), np.eye(2), np.inf, "be finite, got inf"),
        (np.eye(2), 4.0 * np.eye(2), np.nan, "be finite, got nan"),
        (np.eye(2), np.eye(2), -1e-9, "be >= 0.0, got -1e-09"),
        (4.0 * np.eye(2), np.eye(2), True, "be a number, got True"),
        (np.eye(2), 4.0 * np.eye(2), False, "be a number, got False"),
        (np.eye(2), 4.0 * np.eye(2), "1e-9", "be a number, got '1e-9'"),
        (np.eye(2), 4.0 * np.eye(2), None, "be a number, got None"),
        (np.eye(2), 4.0 * np.eye(2), 1e-9j, r"be a number, got 1e-09j"),
    ], ids=["inf", "nan", "negative", "true", "false", "str", "none", "complex"])
    def test_nonfinite_or_negative_tol_refused(self, a, b, tol, message):
        # Unrefused, tol=inf would pass 4I <= I and tol=nan fail I <= 4I; tol=True
        # passed 4I <= I at tol = 1.0, and a string, None or a complex raised TypeError.
        with pytest.raises(PreconditionError, match=f"^tol must {message}$"):
            loewner_leq(a, b, tol=tol)

    @pytest.mark.parametrize("tol", [0, 1e-9, np.float64(1e-9), np.float32(1e-9), np.int64(0)])
    def test_any_real_tol_is_read(self, tol):
        assert loewner_leq(np.eye(2), 2.0 * np.eye(2), tol=tol) == (True, 1.0)

    def test_one_solve_decides_every_claim(self, rng, solve_calls):
        a, b, c = (random_hermitian(rng, 3) for _ in range(3))
        solve_calls.clear()
        margins, lhs_norm, rhs_norm = _loewner_margins([(a, "<=", b), (a, ">=", c), (a, "==", b)])
        # The four differences, then the six sides, in one stacked solve.
        assert [s[:3] for s in solve_calls] == [("eigvalsh", 10, 3)]
        low = [float(np.linalg.eigvalsh(x)[0]) for x in (b - a, a - c, a - b)]
        assert margins == [low[0], low[1], min(low[2], low[0])]
        norm = [float(np.abs(np.linalg.eigvalsh(x)[[0, -1]]).max()) for x in (a, b, c)]
        assert (lhs_norm, rhs_norm) == (norm[0], max(norm[1], norm[2]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_nonfinite_side_is_refused_before_the_solve(self, solve_calls, value):
        with np.errstate(all="ignore"):
            assert _loewner_margins([(np.diag([value, 1.0]), "<=", np.eye(2))]) is None
        assert solve_calls == []

    def test_margin_is_the_least_eigenvalue_of_the_difference(self, rng):
        a, b = random_hermitian(rng, 5), random_hermitian(rng, 5)
        assert loewner_leq(a, b)[1] == float(np.linalg.eigvalsh(_symmetrize(b - a))[0])

    def test_gelfand_order_preservation(self, rng):
        # f >= g pointwise on the spectrum forces f(A) >= g(A); 100 here,
        # the acceptance suite drives 500.
        for _ in range(100):
            a = random_pd(rng, int(rng.integers(2, 7)))
            holds, _ = loewner_leq(apply_function(a, LOG), apply_function(a, IDENTITY), 1e-9)
            assert holds


class TestSandwich:
    # The tightest m A <= B <= M A are PairSpectrum's m and M.
    def test_examples(self):
        spectrum = PairSpectrum(PositiveDefiniteMatrix(np.eye(2)), PositiveDefiniteMatrix(np.diag([0.5, 2.0])))
        assert abs(spectrum.m - 0.5) <= 1e-14 and abs(spectrum.M - 2.0) <= 1e-14

        a = PositiveDefiniteMatrix(np.diag([1.0, 4.0]))
        spectrum = PairSpectrum(a, a)
        assert abs(spectrum.m - 1.0) <= 1e-12 and abs(spectrum.M - 1.0) <= 1e-12

        spectrum = PairSpectrum(
            PositiveDefiniteMatrix(np.diag([1.0, 4.0])), PositiveDefiniteMatrix(np.diag([2.0, 4.0]))
        )
        assert abs(spectrum.m - 1.0) <= 1e-14 and abs(spectrum.M - 2.0) <= 1e-14

    def test_constants_actually_sandwich(self, rng):
        for _ in range(50):
            a, b = random_pd(rng, 4), random_pd(rng, 4)
            spectrum = PairSpectrum(a, b)
            assert loewner_leq(spectrum.m * a.array, b, 1e-10)[0]
            assert loewner_leq(b, spectrum.M * a.array, 1e-10)[0]

    def test_fields_take_the_extremes_over_their_nodes(self, rng):
        w = [1.0, 0.5, 2.0]
        fa, fb = (OperatorField.from_matrices(w, [random_pd(rng, 3) for _ in range(3)]) for _ in range(2))
        nodes = [PairSpectrum(PositiveDefiniteMatrix(a), PositiveDefiniteMatrix(b)) for a, b in zip(fa.arrays, fb.arrays)]
        m, M = min(s.m for s in nodes), max(s.M for s in nodes)
        spectrum = fa.pair_spectrum(fb)
        assert abs(m - spectrum.m) <= 1e-12 * spectrum.M and abs(M - spectrum.M) <= 1e-12 * spectrum.M
        with pytest.raises(ShapeError):
            PairSpectrum(fa, random_pd(rng, 3))
