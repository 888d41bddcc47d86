import json

import numpy as np
import pytest

from opentropy import (
    DomainError,
    EigenConvergenceError,
    HermitianMatrix,
    NotPositiveDefiniteError,
    PositiveDefiniteMatrix,
    PreconditionError,
    ShapeError,
    apply_function,
    congruence,
    eig,
    identity,
    loewner_leq,
    sandwich_bounds,
)
from opentropy.functions import IDENTITY, LOG, custom, power
from opentropy.entropy import OperatorField
from opentropy.matcore import (
    _eigh,
    _eigvalsh,
    _relative_spectrum,
    _require_pd_floor,
    matrix_from_json,
    matrix_to_json,
)

from conftest import random_hermitian, random_pd


class TestHermitianMatrix:
    def test_symmetrization_absorbs_drift(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = HermitianMatrix(g)
        np.testing.assert_allclose(h.array, h.array.conj().T, atol=1e-12)
        np.testing.assert_allclose(h.array, (g + g.conj().T) / 2)

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            HermitianMatrix(np.ones((2, 3)))

    def test_array_is_readonly(self):
        h = identity(3)
        with pytest.raises(ValueError):
            h.array[0, 0] = 5.0

    def test_json_round_trip(self, rng):
        h = random_hermitian(rng, 5)
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(h))))
        np.testing.assert_array_equal(back.array, h.array)

    def test_json_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matrix_from_json({"dim": 3, "re": [[1.0]], "im": [[0.0]]})

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_nonfinite_entry_rejected(self, part, value):
        payload = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        payload[part][1][0] = value
        with pytest.raises(PreconditionError, match="non-finite"):
            matrix_from_json(payload)


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


class TestEig:
    def test_diagonal_is_already_sorted(self):
        d = eig(HermitianMatrix(np.diag([3.0, 1.0])))
        np.testing.assert_array_equal(d.eigenvalues, [1.0, 3.0])
        # columns are identity columns up to permutation
        np.testing.assert_array_equal(np.abs(d.eigenvectors), np.eye(2)[:, [1, 0]])

    def test_symmetry_forced_spectrum(self):
        d = eig(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(d.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_reconstruction_and_orthonormality(self, rng):
        # 200 here; the acceptance suite runs the full 1000-matrix sweep.
        for _ in range(200):
            dim = int(rng.integers(1, 17))
            h = random_hermitian(rng, dim, scale=10.0 ** rng.uniform(-2, 2))
            d = eig(h)
            hnorm = float(np.linalg.norm(h.array))
            assert np.linalg.norm(d.reconstruct() - h.array) <= 1e-10 * max(1.0, hnorm)
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

    def test_unstack_gives_each_items_decomposition(self, rng):
        stack = np.stack([random_pd(rng, 3).array for _ in range(4)])
        whole = eig(stack)
        for arr, part in zip(stack, whole.unstack()):
            np.testing.assert_array_equal(part.eigenvalues, eig(arr).eigenvalues)
            np.testing.assert_array_equal(part.eigenvectors, eig(arr).eigenvectors)

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
        b = a.scaled(2.5)
        np.testing.assert_array_equal(b.array, 2.5 * a.array)
        np.testing.assert_array_equal(b.eigenvalues, np.linalg.eigh(b.array)[0])
        with pytest.raises(NotPositiveDefiniteError):
            a.scaled(-1.0)


class TestApplyFunction:
    def test_identity_function(self, rng):
        a = random_pd(rng, 4)
        np.testing.assert_allclose(apply_function(a, IDENTITY).array, a.array, atol=1e-13)

    def test_log_on_diagonal(self):
        a = PositiveDefiniteMatrix(np.diag([1.0, np.e]))
        np.testing.assert_allclose(apply_function(a, LOG).array, np.diag([0.0, 1.0]), atol=1e-15)

    def test_sqrt_on_diagonal(self):
        a = PositiveDefiniteMatrix(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(apply_function(a, power(0.5)).array, np.diag([2.0, 3.0]), atol=1e-14)

    def test_commutes_with_argument(self, rng):
        for _ in range(50):
            a = random_pd(rng, 5)
            fa = apply_function(a, LOG).array
            comm = fa @ a.array - a.array @ fa
            scale = max(1.0, np.linalg.norm(fa) * np.linalg.norm(a.array))
            assert np.linalg.norm(comm) <= 1e-10 * scale

    def test_domain_error_names_eigenvalue(self):
        shifted_log = custom(np.log, name="shifted_log", domain_low=1.0)
        a = PositiveDefiniteMatrix(np.diag([0.5, 2.0]))
        with pytest.raises(DomainError, match="5"):
            apply_function(a, shifted_log)

    def test_composition_on_diagonal_is_entrywise(self):
        entries = np.array([1.7, 0.3, 2.9])
        a = PositiveDefiniteMatrix(np.diag(entries))
        g_of_a = PositiveDefiniteMatrix(apply_function(a, power(0.5)).array)
        composed = apply_function(g_of_a, LOG).array
        np.testing.assert_array_equal(np.diag(composed).real, np.log(np.sqrt(entries)))


class TestHalfPowers:
    def test_identity(self):
        a = PositiveDefiniteMatrix(np.eye(3))
        s, isq, inv = a.sqrt(), a.inv_sqrt(), a.inv()
        for m in (s, isq, inv):
            np.testing.assert_allclose(m.array, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        a = PositiveDefiniteMatrix(np.diag([4.0, 16.0]))
        s, isq, inv = a.sqrt(), a.inv_sqrt(), a.inv()
        np.testing.assert_allclose(s.array, np.diag([2.0, 4.0]), atol=1e-14)
        np.testing.assert_allclose(isq.array, np.diag([0.5, 0.25]), atol=1e-14)
        np.testing.assert_allclose(inv.array, np.diag([0.25, 0.0625]), atol=1e-14)

    def test_residuals_random(self, rng):
        for _ in range(25):
            a = random_pd(rng, 4)
            s, isq = a.sqrt(), a.inv_sqrt()
            anorm = np.linalg.norm(a.array)
            assert np.linalg.norm(s.array @ s.array - a.array) <= 1e-10 * max(1.0, anorm)
            assert np.linalg.norm(s.array @ isq.array - np.eye(4)) <= 1e-10


class TestCongruence:
    def test_identity_and_scaling(self, rng):
        x = random_hermitian(rng, 3)
        np.testing.assert_allclose(congruence(np.eye(3), x).array, x.array, atol=1e-14)
        np.testing.assert_allclose(congruence(2.0 * np.eye(3), x).array, 4.0 * x.array, atol=1e-13)

    def test_unitary_preserves_spectrum(self, rng):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(g)
        out = congruence(u, HermitianMatrix(np.diag([1.0, 2.0])))
        np.testing.assert_allclose(eig(out).eigenvalues, [1.0, 2.0], atol=1e-12)

    def test_preserves_psd(self, rng):
        for _ in range(50):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            x = HermitianMatrix(g @ g.conj().T)  # PSD
            c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            w = eig(congruence(c, x)).eigenvalues
            assert w[0] >= -1e-10 * max(1.0, abs(w[-1]))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            congruence(np.eye(3), random_hermitian(rng, 2))


class TestLoewner:
    def test_strict_order(self):
        holds, margin = loewner_leq(identity(2), 2.0 * identity(2))
        assert holds and abs(margin - 1.0) <= 1e-14

    def test_incomparable_pair(self):
        holds, margin = loewner_leq(
            HermitianMatrix(np.diag([1.0, 3.0])), HermitianMatrix(np.diag([2.0, 2.0]))
        )
        assert not holds and abs(margin + 1.0) <= 1e-14

    def test_reflexive(self, rng):
        a = random_hermitian(rng, 4)
        holds, margin = loewner_leq(a, a)
        assert holds and abs(margin) <= 1e-14

    def test_gelfand_order_preservation(self, rng):
        # f >= g pointwise on the spectrum forces f(A) >= g(A); 100 here,
        # the acceptance suite drives 500.
        for _ in range(100):
            a = random_pd(rng, int(rng.integers(2, 7)))
            holds, _ = loewner_leq(apply_function(a, LOG), apply_function(a, IDENTITY), 1e-9)
            assert holds


class TestSandwich:
    def test_examples(self):
        m, M = sandwich_bounds(
            PositiveDefiniteMatrix(np.eye(2)), PositiveDefiniteMatrix(np.diag([0.5, 2.0]))
        )
        assert abs(m - 0.5) <= 1e-14 and abs(M - 2.0) <= 1e-14

        a = PositiveDefiniteMatrix(np.diag([1.0, 4.0]))
        m, M = sandwich_bounds(a, a)
        assert abs(m - 1.0) <= 1e-12 and abs(M - 1.0) <= 1e-12

        m, M = sandwich_bounds(
            PositiveDefiniteMatrix(np.diag([1.0, 4.0])), PositiveDefiniteMatrix(np.diag([2.0, 4.0]))
        )
        assert abs(m - 1.0) <= 1e-14 and abs(M - 2.0) <= 1e-14

    def test_constants_actually_sandwich(self, rng):
        for _ in range(50):
            a, b = random_pd(rng, 4), random_pd(rng, 4)
            m, M = sandwich_bounds(a, b)
            assert loewner_leq(a.scaled(m), b, 1e-10)[0]
            assert loewner_leq(b, a.scaled(M), 1e-10)[0]
