import math

import numpy as np
import pytest

from opentropy import (
    PositiveDefiniteMatrix,
    PositiveLinearMap,
    PreconditionError,
    ShapeError,
    chord_gap_bound,
)
from opentropy.functions import IDENTITY, LOG, NEG_T_LOG_T, power
from opentropy.matcore import _symmetrize
from opentropy.verify import _SLOTS, Instance, TheoremId, check, random_instance

from conftest import random_hermitian, random_pd


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def jensen_instance(theorem, kraus, x, f, t0=None, m=None, M=None):
    """A compression instance for the map Phi(X) = sum C* X C with Kraus factors `kraus` on X.

    With a unital map the compression statements are the Jensen inequality
    f(Phi(X)) >= Phi(f(X)) and its two reverses; the window [m, M] defaults
    to the spectral range of X.
    """
    return Instance(
        theorem=theorem, seed=0, dim=x.dim, k=len(kraus), f=f, q=0.5,
        t0=float(np.mean(x.eigenvalues)) if t0 is None else t0,
        m=x.lambda_min if m is None else m, M=x.lambda_max if M is None else M,
        pmap=PositiveLinearMap(kraus), x=x,
    )


def pinching(dim):
    projectors = [np.zeros((dim, dim), dtype=complex) for _ in range(dim)]
    for i in range(dim):
        projectors[i][i, i] = 1.0
    return projectors


class TestPositiveLinearMap:
    def test_needs_kraus_factors(self):
        with pytest.raises(PreconditionError):
            PositiveLinearMap([])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_nonfinite_factor_refused(self, value):
        # Unrefused, a NaN factor gives a NaN image and no error.
        factor = np.eye(2, dtype=complex)
        factor[1, 0] = value
        with pytest.raises(PreconditionError, match="finite entries"):
            PositiveLinearMap([np.eye(2), factor])

    def test_unitary_preserves_spectrum(self, rng):
        u = random_unitary(rng, 3)
        p = PositiveLinearMap([u])
        x = random_hermitian(rng, 3)
        got = np.linalg.eigvalsh(p.apply(x))
        want = np.linalg.eigvalsh(x)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_split_identity_is_identity_map(self, rng):
        p = PositiveLinearMap([np.eye(3) / math.sqrt(2.0), np.eye(3) / math.sqrt(2.0)])
        assert p.is_normalized()
        x = random_hermitian(rng, 3)
        np.testing.assert_allclose(p.apply(x), x, atol=1e-13)

    def test_pinching_to_diagonal(self, rng):
        p = PositiveLinearMap(pinching(3))
        assert p.is_normalized()
        x = random_hermitian(rng, 3)
        np.testing.assert_allclose(
            p.apply(x), np.diag(np.diag(x)), atol=1e-13
        )

    def test_linearity(self, rng):
        p = PositiveLinearMap.random_normalized(4, 4, 3, rng)
        x, y = random_hermitian(rng, 4), random_hermitian(rng, 4)
        for _ in range(20):
            alpha, beta = rng.uniform(-2, 2, size=2)
            lhs = p.apply_array(alpha * x + beta * y)
            rhs = alpha * p.apply_array(x) + beta * p.apply_array(y)
            assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(1.0, np.linalg.norm(rhs))

    def test_positivity_preserved(self, rng):
        p = PositiveLinearMap.random_normalized(4, 4, 2, rng)
        for _ in range(50):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            out = p.apply_array(g @ g.conj().T)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_random_normalized_is_exactly_unital(self, rng):
        for _ in range(20):
            p = PositiveLinearMap.random_normalized(5, 5, int(rng.integers(1, 4)), rng)
            assert np.linalg.norm(p.kraus_gram() - np.eye(5)) <= 1e-12
            np.testing.assert_allclose(p.apply_array(np.eye(5)), np.eye(5), atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 5, 8, 64])
    def test_random_normalized_gram_is_the_identity_to_1e_13(self, dim, n):
        # The isometry's orthonormal columns: a hundredth of is_normalized's 1e-10
        # tolerance would still be ten times the worst residual seen (7e-15).
        for seed in range(20 if dim < 64 else 3):
            p = PositiveLinearMap.random_normalized(dim, dim, n, np.random.default_rng(seed))
            assert np.linalg.norm(p.kraus_gram() - np.eye(dim)) <= 1e-13

    def test_one_call_draw_matches_the_per_factor_formula(self):
        # The per-factor formula, written out: one real and one imaginary call
        # per factor, stacked, factored by np.linalg.qr, each column of Q turned
        # so that R's diagonal is positive, and split.  The one-call draw gives
        # the same Kraus factors and Gram sum, bit for bit.
        for n in (1, 2, 3):
            for dim in range(1, 9):
                for seed in range(50):
                    p = PositiveLinearMap.random_normalized(dim, dim, n, np.random.default_rng(seed))
                    rng = np.random.default_rng(seed)
                    gs = [
                        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
                        for _ in range(n)
                    ]
                    q, r = np.linalg.qr(np.vstack(gs))
                    phases = np.diagonal(r)
                    factors = np.split(q * (phases / np.abs(phases)), n)
                    assert len(p.kraus) == n
                    for c, old in zip(p.kraus, factors):
                        np.testing.assert_array_equal(c, old)
                    gram = np.zeros((dim, dim), dtype=complex)
                    for c in factors:
                        gram += c.conj().T @ c
                    np.testing.assert_array_equal(p.kraus_gram(), (gram + gram.conj().T) / 2.0)

    def test_stacked_application_matches_one_product_per_factor(self, rng):
        # The loop it replaced: one product per factor, summed in order.
        for n in (1, 2, 3, 4):
            for dim in range(1, 9):
                p = PositiveLinearMap([random_hermitian(rng, dim) + 1j * random_hermitian(rng, dim)
                                       for _ in range(n)])
                for x in (random_hermitian(rng, dim), np.array([random_hermitian(rng, dim) for _ in range(5)])):
                    want = sum(c.conj().T @ x @ c for c in p.kraus)
                    np.testing.assert_array_equal(p.apply_array(x), want)

    def test_too_few_terms_for_unital_rejected(self, rng):
        with pytest.raises(PreconditionError):
            PositiveLinearMap.random_normalized(1, 3, 2, rng)

    @pytest.mark.parametrize("in_dim,out_dim,n_terms",
                             [(3, 3, 0), (3, 3, -3), (3, 3, 2.7), (3, 3, True), (3, 0, 2), (0, 3, 2)])
    def test_random_normalized_refuses_a_bad_size(self, rng, in_dim, out_dim, n_terms):
        # 0 and -3 terms were drawn as one term, 2.7 as two and True as one; out_dim = 0 failed in
        # numpy's reshape.
        with pytest.raises(PreconditionError, match="need integers >= 1"):
            PositiveLinearMap.random_normalized(in_dim, out_dim, n_terms, rng)

    def test_rectangular_kraus(self, rng):
        c = np.zeros((3, 2), dtype=complex)
        c[0, 0] = 1.0
        c[1, 1] = 1.0
        p = PositiveLinearMap([c])  # corner compression to the top 2x2 block
        assert (p.in_dim, p.out_dim) == (3, 2)
        x = random_hermitian(rng, 3)
        np.testing.assert_allclose(p.apply(x), x[:2, :2], atol=1e-14)

    def test_shape_check_on_apply(self, rng):
        p = PositiveLinearMap.random_normalized(3, 3, 2, rng)
        with pytest.raises(ShapeError):
            p.apply(random_hermitian(rng, 4))

    def test_json_round_trip(self, rng):
        p = PositiveLinearMap.random_normalized(3, 3, 2, rng)
        _, map_to_json, map_from_json = _SLOTS["pmap"]
        back = map_from_json(map_to_json(p))
        for c1, c2 in zip(back.kraus, p.kraus):
            np.testing.assert_array_equal(c1, c2)


class TestLiftedJensenLhs:
    def test_exact_unital_family_has_no_offset(self, rng):
        p = PositiveLinearMap.random_normalized(3, 3, 2, rng)
        x = random_pd(rng, 3)
        margins = [
            check(TheoremId.COMPRESSION_JENSEN,
                  jensen_instance(TheoremId.COMPRESSION_JENSEN, p.kraus, x, power(0.5), t0)).margin
            for t0 in (x.lambda_min, x.lambda_max)
        ]
        assert margins[0] == pytest.approx(margins[1], abs=1e-12)

    def test_zero_factor_gives_t0_identity(self, rng):
        # Lifted argument t0 I: both sides reduce to f(t0) I.
        x = random_pd(rng, 3)
        inst = jensen_instance(TheoremId.COMPRESSION_JENSEN, [np.zeros((3, 3))], x, power(0.5),
                               t0=float(x.eigenvalues[0]))
        res = check(TheoremId.COMPRESSION_JENSEN, inst)
        assert res.holds and abs(res.margin) <= 1e-13

    def test_oversized_family_rejected(self, rng):
        x = random_pd(rng, 3)
        inst = jensen_instance(TheoremId.COMPRESSION_JENSEN, [np.eye(3), np.eye(3)], x, power(0.5))
        with pytest.raises(PreconditionError, match="exceeds the identity"):
            inst.validate()

    def test_t0_outside_spectrum_rejected(self, rng):
        x = random_pd(rng, 3)
        inst = jensen_instance(TheoremId.COMPRESSION_JENSEN, [0.5 * np.eye(3)], x, power(0.5),
                               t0=10.0 * x.lambda_max)
        with pytest.raises(PreconditionError):
            inst.validate()


class TestJensenChecks:
    def test_unitary_map_gives_equality(self, rng):
        a = random_pd(rng, 4)  # spectrum above 1, where log is nonnegative
        inst = jensen_instance(TheoremId.COMPRESSION_JENSEN, [random_unitary(rng, 4)], a, LOG)
        res = check(TheoremId.COMPRESSION_JENSEN, inst)
        assert res.hypothesis_met and res.holds and abs(res.margin) <= 1e-12

    def test_identity_function_gives_equality(self, rng):
        p = PositiveLinearMap.random_normalized(4, 4, 2, rng)
        inst = jensen_instance(TheoremId.COMPRESSION_JENSEN, p.kraus, random_pd(rng, 4), IDENTITY)
        res = check(TheoremId.COMPRESSION_JENSEN, inst)
        assert res.holds and abs(res.margin) <= 1e-12

    def test_pinching_strictly_positive_margin(self, rng):
        inst = jensen_instance(TheoremId.COMPRESSION_JENSEN, pinching(3), random_pd(rng, 3), power(0.5))
        res = check(TheoremId.COMPRESSION_JENSEN, inst)
        assert res.holds and res.margin > 0.0

    def test_random_draws_hold(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            p = PositiveLinearMap.random_normalized(dim, dim, int(rng.integers(1, 4)), rng)
            a = random_pd(rng, dim)
            f = [LOG, power(0.5), power(0.25)][int(rng.integers(3))]
            res = check(TheoremId.COMPRESSION_JENSEN,
                        jensen_instance(TheoremId.COMPRESSION_JENSEN, p.kraus, a, f))
            assert res.hypothesis_met and res.holds, res.to_json()

    def test_unnormalized_map_rejected(self):
        payload = random_instance(TheoremId.MAP_MONOTONE, 3, 2, 5, NEG_T_LOG_T, 0.0).to_json()
        payload["map"] = _SLOTS["pmap"][1](PositiveLinearMap([0.5 * np.eye(3)]))
        with pytest.raises(PreconditionError, match="not normalized"):
            Instance.from_json(payload)


class TestJensenReverses:
    def test_identity_function_margins_vanish(self, rng):
        p = PositiveLinearMap.random_normalized(3, 3, 2, rng)
        a = random_pd(rng, 3)
        res_g = check(TheoremId.REV_JENSEN_GAMMA,
                      jensen_instance(TheoremId.REV_JENSEN_GAMMA, p.kraus, a, IDENTITY))
        res_z = check(TheoremId.REV_JENSEN_ZETA,
                      jensen_instance(TheoremId.REV_JENSEN_ZETA, p.kraus, a, IDENTITY))
        assert res_g.holds and res_g.margin >= -1e-12
        assert res_z.holds and abs(res_z.margin) <= 1e-10

    def test_unitary_map_zeta_margin_is_zeta(self, rng):
        a = PositiveDefiniteMatrix(np.diag([1.0, 1.5, math.e]))
        inst = jensen_instance(TheoremId.REV_JENSEN_ZETA, [random_unitary(rng, 3)], a, LOG)
        res = check(TheoremId.REV_JENSEN_ZETA, inst)
        zeta = chord_gap_bound(LOG, 1.0, math.e)
        assert res.holds
        assert abs(res.margin - zeta) <= 1e-10

    def test_random_draws_hold(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            p = PositiveLinearMap.random_normalized(dim, dim, 2, rng)
            a = random_pd(rng, dim)
            if a.lambda_max / a.lambda_min < 1.0 + 1e-6:
                continue
            for theorem in (TheoremId.REV_JENSEN_GAMMA, TheoremId.REV_JENSEN_ZETA):
                res = check(theorem, jensen_instance(theorem, p.kraus, a, power(0.5)))
                assert res.hypothesis_met and res.holds, res.to_json()

    def test_spectrum_window_enforced(self, rng):
        p = PositiveLinearMap.random_normalized(3, 3, 2, rng)
        a = PositiveDefiniteMatrix(np.diag([1.0, 2.0, 5.0]))
        inst = jensen_instance(TheoremId.REV_JENSEN_ZETA, p.kraus, a, power(0.5), t0=2.0, m=1.0, M=4.0)
        with pytest.raises(PreconditionError, match="not inside"):
            inst.validate()


def test_result_wire_format(rng):
    p = PositiveLinearMap.random_normalized(3, 3, 2, rng)
    inst = jensen_instance(TheoremId.COMPRESSION_JENSEN, p.kraus, random_pd(rng, 3), LOG)
    payload = check(TheoremId.COMPRESSION_JENSEN, inst).to_json()
    assert payload["theorem"] == "compression_jensen"
    assert payload["hypothesis_met"] is True
    assert isinstance(payload["margin"], float)


def test_hermitian_wrapper_accepted(rng):
    p = PositiveLinearMap.random_normalized(3, 3, 2, rng)
    a = PositiveDefiniteMatrix(np.diag([1.0, 2.0, 3.0]))
    out = p.apply(a)
    np.testing.assert_array_equal(out, _symmetrize(p.apply_array(a.array)))
    np.testing.assert_array_equal(out, p.apply(np.diag([1.0, 2.0, 3.0])))
    with pytest.raises(ValueError):
        out[0, 0] = 5.0
