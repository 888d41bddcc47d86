import json
import math

import numpy as np
import pytest

from opentropy import (
    NotPositiveDefiniteError,
    OperatorField,
    PairSpectrum,
    PositiveDefiniteMatrix,
    PreconditionError,
    ShapeError,
    generalized_entropy,
    loewner_leq,
    mean_field,
    natural_power,
    relative_entropy,
    variational_form,
)
from opentropy.verify import _SLOTS
from opentropy.functions import LOG, NEG_T_LOG_T, power

from conftest import labels, random_pd
from scalar_oracle import entropy_term, power_mean


def diag_pd(*entries):
    return PositiveDefiniteMatrix(np.diag(np.asarray(entries, dtype=float)))


def random_field(rng, dim, k, unit_weights=False):
    weights = np.ones(k) if unit_weights else rng.uniform(0.5, 2.0, size=k)
    return OperatorField.from_matrices(weights, [random_pd(rng, dim) for _ in range(k)])


def nodes(fa, fb):
    """(w_s, A_s, B_s) per node of two aligned fields, each node its own PD matrix."""
    pd = PositiveDefiniteMatrix
    return [(w, pd(a), pd(b)) for w, a, b in zip(fa.weights, fa.arrays, fb.arrays)]


def random_pair(rng, dim, k):
    weights = rng.uniform(0.5, 2.0, size=k)
    make = lambda: OperatorField.from_matrices(weights, [random_pd(rng, dim) for _ in range(k)])
    return make(), make()


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["natural_power", "relative_entropy", "variational_form", "generalized_entropy"])
def test_a_nonfinite_exponent_is_refused(name, q):
    # Unrefused, each gives a NaN matrix, or natural_power names an eigenvalue of nan.
    a, b = diag_pd(1.0, 2.0), diag_pd(3.0, 0.5)
    calls = {
        "natural_power": lambda: natural_power(a, b, q),
        "relative_entropy": lambda: relative_entropy(a, b, q, LOG),
        "variational_form": lambda: variational_form(a, b, q, LOG),
        "generalized_entropy": lambda: generalized_entropy(a, b, q, LOG),
    }
    with pytest.raises(PreconditionError, match=r"the exponent q must be finite, got (-?inf|nan)"):
        calls[name]()


class TestNaturalPower:
    def test_endpoint_exponents(self, rng):
        x, y = random_pd(rng, 3), random_pd(rng, 3)
        np.testing.assert_allclose(natural_power(x, y, 0.0).array, x.array, atol=1e-12)
        np.testing.assert_allclose(natural_power(x, y, 1.0).array, y.array, atol=1e-11)

    def test_identity_base(self):
        y = diag_pd(4.0, 9.0)
        out = natural_power(PositiveDefiniteMatrix(np.eye(2)), y, 0.5)
        np.testing.assert_allclose(out.array, np.diag([2.0, 3.0]), atol=1e-13)

    def test_commuting_scalar_formula(self):
        out = natural_power(diag_pd(1.0, 4.0), diag_pd(2.0, 8.0), 0.5)
        np.testing.assert_allclose(
            out.array, np.diag([math.sqrt(2.0), math.sqrt(32.0)]), atol=1e-13
        )

    def test_result_is_pd_for_any_exponent(self, rng):
        x, y = random_pd(rng, 4), random_pd(rng, 4)
        for q in (-1.5, -0.5, 0.3, 1.7, 2.0):
            assert natural_power(x, y, q).lambda_min > 0


class TestRelativeEntropy:
    def test_equal_pair_is_zero(self, rng):
        a = random_pd(rng, 4)
        assert np.linalg.norm(relative_entropy(a, a, 0.0, LOG)) <= 1e-12

    def test_diagonal_log_case(self):
        out = relative_entropy(PositiveDefiniteMatrix(np.eye(2)), diag_pd(math.e, math.e ** 2), 0.0, LOG)
        np.testing.assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-13)

    def test_commuting_formula(self):
        out = relative_entropy(diag_pd(1.0, 2.0), diag_pd(2.0, 2.0), 1.0, LOG)
        np.testing.assert_allclose(out, np.diag([2.0 * math.log(2.0), 0.0]), atol=1e-13)

    def test_scalar_oracle_on_diagonals(self, rng):
        for _ in range(50):
            a = rng.uniform(0.3, 3.0, size=3)
            b = rng.uniform(0.3, 3.0, size=3)
            q = float(rng.uniform(-1.5, 2.0))
            got = np.diag(relative_entropy(diag_pd(*a), diag_pd(*b), q, LOG)).real
            want = [entropy_term(ai, bi, q, math.log) for ai, bi in zip(a, b)]
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=1e-12)


class TestVariationalForm:
    @pytest.mark.parametrize("q", [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("f", [LOG, power(0.5)], ids=["log", "sqrt"])
    def test_matches_direct_form(self, rng, q, f):
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            a, b = random_pd(rng, dim), random_pd(rng, dim)
            direct = relative_entropy(a, b, q, f)
            flipped = variational_form(a, b, q, f)
            err = np.linalg.norm(direct - flipped) / max(1.0, np.linalg.norm(direct))
            assert err <= 1e-9

    def test_zero_exponent_special_identity(self, rng):
        # S(A,B;0,f) = A * S(B^{-1},A^{-1};0,f) * B, an asymmetric product that
        # nevertheless lands on the Hermitian entropy.
        for _ in range(20):
            a, b = random_pd(rng, 4), random_pd(rng, 4)
            direct = relative_entropy(a, b, 0.0, LOG)
            inner = relative_entropy(b.inv(), a.inv(), 0.0, LOG)
            raw = a.array @ inner @ b.array
            err = np.linalg.norm(direct - raw) / max(1.0, np.linalg.norm(direct))
            assert err <= 1e-9

    def test_identity_pair(self):
        eye = PositiveDefiniteMatrix(np.eye(3))
        assert np.linalg.norm(variational_form(eye, eye, 0.0, LOG)) <= 1e-12


class TestFields:
    def test_field_validation(self, rng):
        with pytest.raises(PreconditionError):
            OperatorField([])
        with pytest.raises(PreconditionError):
            OperatorField([(0.0, random_pd(rng, 2))])
        with pytest.raises(ShapeError):
            OperatorField([(1.0, random_pd(rng, 2)), (1.0, random_pd(rng, 3))])

    def test_field_integral(self, rng):
        a = random_pd(rng, 3)
        single = OperatorField([(1.0, a)])
        np.testing.assert_allclose(single.weighted_sum(), a.array, atol=1e-14)
        eye = PositiveDefiniteMatrix(np.eye(3))
        halves = OperatorField([(0.5, eye), (0.5, eye)])
        np.testing.assert_allclose(halves.weighted_sum(), np.eye(3), atol=1e-14)
        assert halves.is_normalized()

    def test_json_round_trip(self, rng):
        f = random_field(rng, 3, 2)
        _, field_to_json, field_from_json = _SLOTS["fa"]
        back = field_from_json(json.loads(json.dumps(field_to_json(f))))
        np.testing.assert_array_equal(back.weights, f.weights)
        np.testing.assert_array_equal(back.arrays, f.arrays)


class TestGeneralizedEntropy:
    def test_single_node_equal_pair(self, rng):
        a = random_pd(rng, 3)
        fa = OperatorField([(1.0, a)])
        assert (repr(fa), repr(a)) == ("OperatorField(k=1, dim=3)", "PositiveDefiniteMatrix(k=1, dim=3)")
        assert np.linalg.norm(generalized_entropy(fa, fa, 0.0, LOG)) <= 1e-12

    def test_weight_mismatch_rejected(self, rng):
        fa = OperatorField([(1.0, random_pd(rng, 2)), (1.0, random_pd(rng, 2))])
        fb = OperatorField([(1.0, random_pd(rng, 2)), (2.0, random_pd(rng, 2))])
        with pytest.raises(PreconditionError):
            generalized_entropy(fa, fb, 0.0, LOG)
        short = OperatorField([(1.0, random_pd(rng, 2))])
        with pytest.raises(ShapeError):
            generalized_entropy(fa, short, 0.0, LOG)
        wide = OperatorField([(1.0, random_pd(rng, 3)), (1.0, random_pd(rng, 3))])
        with pytest.raises(ShapeError, match="fields have dimension 2 vs 3"):
            generalized_entropy(fa, wide, 0.0, LOG)

    def test_two_node_diagonal_scalar_sum(self, rng):
        a1, a2 = rng.uniform(0.3, 3.0, size=2), rng.uniform(0.3, 3.0, size=2)
        b1, b2 = rng.uniform(0.3, 3.0, size=2), rng.uniform(0.3, 3.0, size=2)
        w = rng.uniform(0.5, 2.0, size=2)
        fa = OperatorField.from_matrices(w, [diag_pd(*a1), diag_pd(*a2)])
        fb = OperatorField.from_matrices(w, [diag_pd(*b1), diag_pd(*b2)])
        got = np.diag(generalized_entropy(fa, fb, 0.5, LOG)).real
        want = [
            w[0] * entropy_term(a1[i], b1[i], 0.5, math.log)
            + w[1] * entropy_term(a2[i], b2[i], 0.5, math.log)
            for i in range(2)
        ]
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=1e-12)

    def test_nonnegative_when_f_is(self, rng):
        for _ in range(25):
            fa, fb = random_field(rng, 3, 2, True), random_field(rng, 3, 2, True)  # unit weights align
            s = generalized_entropy(fa, fb, float(rng.uniform(-1, 2)), power(0.5))
            assert np.linalg.eigvalsh(s)[0] >= -1e-9

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
    def test_homogeneity(self, rng, alpha):
        fa, fb = random_pair(rng, 3, 2)
        for q, f in [(0.0, LOG), (0.7, power(0.5)), (-0.5, NEG_T_LOG_T)]:
            base = generalized_entropy(fa, fb, q, f)
            scaled_a, scaled_b = (OperatorField.from_matrices(x.weights, alpha * x.arrays) for x in (fa, fb))
            scaled = generalized_entropy(scaled_a, scaled_b, q, f)
            err = np.linalg.norm(scaled - alpha * base) / max(1.0, np.linalg.norm(base))
            assert err <= 1e-10

    def test_subadditive_for_concave_f(self, rng):
        for f in (LOG, power(0.5), NEG_T_LOG_T):
            for _ in range(10):
                w = rng.uniform(0.5, 2.0, size=2)
                fields = [
                    OperatorField.from_matrices(w, [random_pd(rng, 3) for _ in range(2)])
                    for _ in range(4)
                ]
                fa, fb, fc, fd = fields
                left = OperatorField.from_matrices(w, fa.arrays + fb.arrays)
                right = OperatorField.from_matrices(w, fc.arrays + fd.arrays)
                lhs = generalized_entropy(left, right, 0.0, f)
                rhs = generalized_entropy(fa, fc, 0.0, f) + generalized_entropy(fb, fd, 0.0, f)
                assert loewner_leq(rhs, lhs, 1e-9)[0]

    def test_jointly_concave_for_concave_f(self, rng):
        for _ in range(10):
            alpha = float(rng.uniform(0.2, 0.8))
            beta = 1.0 - alpha
            w = rng.uniform(0.5, 2.0, size=2)
            make = lambda: OperatorField.from_matrices(w, [random_pd(rng, 3) for _ in range(2)])
            fa1, fb1, fa2, fb2 = make(), make(), make(), make()
            mix = lambda x, y: OperatorField.from_matrices(w, alpha * x.arrays + beta * y.arrays)
            lhs = generalized_entropy(mix(fa1, fa2), mix(fb1, fb2), 0.0, LOG)
            rhs = alpha * generalized_entropy(fa1, fb1, 0.0, LOG) + beta * generalized_entropy(
                fa2, fb2, 0.0, LOG
            )
            assert loewner_leq(rhs, lhs, 1e-9)[0]

    def test_upper_bound_when_f_below_t_minus_1(self, rng):
        # log t <= t - 1, so the entropy sits below sum w (A #_{q+1} B - A #_q B).
        for q in (0.0, 0.5, 1.0):
            fa, fb = random_pair(rng, 3, 2)
            s = generalized_entropy(fa, fb, q, LOG)
            rhs = np.zeros((3, 3), dtype=complex)
            for w, a, b in nodes(fa, fb):
                rhs += w * (natural_power(a, b, q + 1.0).array - natural_power(a, b, q).array)
            assert loewner_leq(s, rhs, 1e-9)[0]
            # At q = 0 and q = 1 the bound has a closed form, which it equals
            # within 1e-12 of its largest entry: A #_1 B = B, A #_0 B = A and
            # A #_2 B = B A^{-1} B.
            closed = {0.0: lambda a, b: b.array - a.array,
                      1.0: lambda a, b: b.array @ a.inv().array @ b.array - b.array}.get(q)
            if closed is not None:
                direct = sum(w * closed(a, b) for w, a, b in nodes(fa, fb))
                np.testing.assert_allclose(rhs, direct, rtol=0.0, atol=1e-12 * np.abs(direct).max())


class TestMeanField:
    def test_exponent_precondition(self, rng):
        fa, fb = random_field(rng, 2, 2, True), random_field(rng, 2, 2, True)
        with pytest.raises(PreconditionError):
            mean_field(fa, fb, 1.5)
        with pytest.raises(PreconditionError):
            mean_field(fa, fb, -0.1)

    def test_endpoints(self, rng):
        fa, fb = random_pair(rng, 3, 2)
        np.testing.assert_allclose(mean_field(fa, fb, 0.0), fa.weighted_sum(), atol=1e-11)
        np.testing.assert_allclose(mean_field(fa, fb, 1.0), fb.weighted_sum(), atol=1e-10)

    def test_commuting_scalar_formula(self, rng):
        a1, b1 = rng.uniform(0.3, 3.0, size=2), rng.uniform(0.3, 3.0, size=2)
        a2, b2 = rng.uniform(0.3, 3.0, size=2), rng.uniform(0.3, 3.0, size=2)
        w = rng.uniform(0.5, 2.0, size=2)
        fa = OperatorField.from_matrices(w, [diag_pd(*a1), diag_pd(*a2)])
        fb = OperatorField.from_matrices(w, [diag_pd(*b1), diag_pd(*b2)])
        got = np.diag(mean_field(fa, fb, 0.75)).real
        want = [
            w[0] * power_mean(a1[i], b1[i], 0.75) + w[1] * power_mean(a2[i], b2[i], 0.75)
            for i in range(2)
        ]
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_mean_integral_inequality(self, rng, p):
        for _ in range(10):
            fa, fb = random_pair(rng, 3, 3)
            lhs = mean_field(fa, fb, p)
            rhs = natural_power(
                PositiveDefiniteMatrix(fa.weighted_sum()),
                PositiveDefiniteMatrix(fb.weighted_sum()),
                p,
            )
            assert loewner_leq(lhs, rhs, 1e-9)[0]


def direct_entropy(a, b, q, f):
    """A^{1/2} T^q f(T) A^{1/2} for one pair, by its own eigensolve of T."""
    w, v = np.linalg.eigh(a.array)
    r, root = (v * w ** -0.5) @ v.conj().T, (v * w ** 0.5) @ v.conj().T
    t = r @ b.array @ r
    lam, u = np.linalg.eigh((t + t.conj().T) / 2.0)
    return root @ (u * (lam ** q * f.evaluate_array(lam))) @ u.conj().T @ root


def relative_gap(x, y):
    return np.linalg.norm(np.asarray(x) - np.asarray(y)) / max(1.0, np.linalg.norm(np.asarray(y)))


class TestStackedKernel:
    @pytest.mark.parametrize("dim,k", [(1, 1), (2, 3), (3, 1), (4, 4), (6, 2)])
    def test_field_spectra_and_aggregates_match_per_node(self, rng, dim, k):
        for _ in range(5):
            fa, fb = random_pair(rng, dim, k)
            spectrum = fa.pair_spectrum(fb)
            assert spectrum.eigenvalues.shape == (k, dim) and spectrum.frame.shape == (k, dim, dim)
            for s, (_, a, b) in enumerate(nodes(fa, fb)):
                single = PairSpectrum(a, b)
                assert relative_gap(spectrum.eigenvalues[s], single.eigenvalues[0]) <= 1e-12
            assert spectrum.m == min(PairSpectrum(a, b).m for _, a, b in nodes(fa, fb))
            for q, f in ((0.0, LOG), (0.5, NEG_T_LOG_T), (1.0, power(0.5))):
                per_node = sum(w * relative_entropy(a, b, q, f) for w, a, b in nodes(fa, fb))
                direct = sum(w * direct_entropy(a, b, q, f) for w, a, b in nodes(fa, fb))
                stacked = generalized_entropy(fa, fb, q, f)
                assert relative_gap(stacked, per_node) <= 1e-12
                assert relative_gap(stacked, direct) <= 1e-12
            for p in (0.0, 0.3, 1.0):
                per_node = sum(w * natural_power(a, b, p).array for w, a, b in nodes(fa, fb))
                assert relative_gap(mean_field(fa, fb, p), per_node) <= 1e-12

    def test_pair_spectrum_is_memoised_on_the_field_pair(self, rng):
        fa, fb = random_pair(rng, 3, 2)
        assert fa.pair_spectrum(fb) is fa.pair_spectrum(fb)
        assert fb.pair_spectrum(fa) is not fa.pair_spectrum(fb)
        scaled_a, scaled_b = (OperatorField.from_matrices(x.weights, 2.0 * x.arrays) for x in (fa, fb))
        assert scaled_a.pair_spectrum(scaled_b) is not fa.pair_spectrum(fb)

    def test_matrices_rebuild_nodes_without_a_solve(self, rng, solve_calls):
        arrays = [random_pd(rng, 4).array for _ in range(3)]
        solve_calls.clear()
        field = OperatorField.from_matrices([1.0, 0.5, 2.0], arrays)
        # The counter sees the field's own solve, so it can see a second one.
        assert labels(solve_calls) == ["eigh"]
        solve_calls.clear()
        node_arrays, decomposition = field.arrays, field.decomposition
        assert not solve_calls
        for arr, node, values in zip(arrays, node_arrays, decomposition.eigenvalues):
            np.testing.assert_array_equal(node, arr)
            np.testing.assert_allclose(values, np.linalg.eigvalsh(arr), rtol=1e-13)
        np.testing.assert_array_equal(field.arrays, np.stack(arrays))

    @pytest.mark.parametrize("dim,k", [(1, 1), (3, 2), (5, 4)])
    def test_stacked_fields_and_pair_spectra_match_single_builds(self, rng, dim, k, solve_calls):
        weights = rng.uniform(0.5, 2.0, size=k)
        stack = np.stack([[random_pd(rng, dim).array for _ in range(k)] for _ in range(4)])
        singles = [OperatorField(_weights=weights, _arrays=arrays) for arrays in stack.copy()]
        # The pairs (0, 2) and (1, 3): one solve of the A stack, one pass of the pair kernel.
        solve_calls.clear()
        pairs = OperatorField.pairs(weights, stack[:2].copy(), stack[2:].copy())
        assert [s[:3] for s in solve_calls] == [("eigh", 2 * k, dim)] * 2
        for (a, b), (sa, sb) in zip(pairs, [(singles[0], singles[2]), (singles[1], singles[3])]):
            np.testing.assert_array_equal(a.arrays, sa.arrays)
            np.testing.assert_array_equal(b.arrays, sb.arrays)
            assert a.weights is b.weights
            spectrum = a.pair_spectrum(b)
            assert a.pair_spectrum(b) is spectrum
            single = PairSpectrum(sa, sb)
            np.testing.assert_array_equal(spectrum.eigenvalues, single.eigenvalues)
            np.testing.assert_array_equal(spectrum.frame, single.frame)
            for built, alone in ((a, sa), (b, sb)):
                np.testing.assert_array_equal(built.decomposition.eigenvalues, alone.decomposition.eigenvalues)
                np.testing.assert_array_equal(built.decomposition.eigenvectors, alone.decomposition.eigenvectors)

    def test_stacked_fields_reject_a_node_below_the_floor(self, rng):
        stack = np.stack([[random_pd(rng, 2).array] for _ in range(3)])
        stack[2, 0] = np.diag([1.0, 1e-13])
        with pytest.raises(NotPositiveDefiniteError):
            OperatorField.pairs(np.ones(1), stack, stack.copy())

    def test_node_below_the_floor_rejected(self, rng):
        good = random_pd(rng, 3)
        with pytest.raises(NotPositiveDefiniteError):
            OperatorField([(1.0, good), (1.0, np.diag([1.0, 1.0, 1e-13]))])
        with pytest.raises(NotPositiveDefiniteError):
            OperatorField([(1.0, np.diag([1.0, -0.5, 2.0])), (1.0, good)])
        # Just above the floor is accepted.
        OperatorField([(1.0, good), (1.0, np.diag([1.0, 1.0, 1e-11]))])
