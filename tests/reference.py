"""A 50-digit reference for both sides of every statement, from the definitions.

    PYTHONPATH=src python tests/reference.py

For each statement, `REFERENCES` computes the claims of `STATEMENTS[t].build`
(the same (lhs, op, rhs) list, in the same order) with mpmath at 50 digits,
straight from the paper's definitions:

    A #_p B = A^{1/2} (A^{-1/2} B A^{-1/2})^p A^{1/2},
    S_q(A|B) = A^{1/2} T^q f(T) A^{1/2},   T = A^{-1/2} B A^{-1/2},
    Phi(X) = sum_j C_j* X C_j,

and the weighted sums over nodes.  Square roots, T's powers and f come from
`mpmath.eighe`, f from its catalog spec; this file imports no matcore kernel
(`tests/test_reference.py` holds it to that with an `ast` check).  The chord
constant is `verify._gate`'s, which takes it from `bounds`: the reference
receives the same gamma or zeta as the builder.

Each side is compared with its reference in the Frobenius norm:

    ||side - ref|| <= C * eps * d * kappa * scale,

with eps = 2**-52, d the side's dimension, kappa the largest condition
number of a matrix the reference decomposes for the instance (each node A,
each T, each f argument), and scale the larger reference norm of the claim's
two sides, at least 1: one side can cancel to about zero (entropy_upper's
right side at q = 0 is sum w (B - A) = 0 on a normalized pair), and the
verdict reads its margin on the same scale.  C is stated once, below; a
side beyond it is a finding.

The sample is campaign trial keys (`trial_seed`, seed `SEED`) at dims 2..4
with the default functions and exponents, the draws whose check meets its
hypotheses.  Run as a script, it compares `COUNT` of them per statement and
prints, per statement, the worst relative error of each side, ||side - ref||
/ scale, and the worst observed C; the exit code is 0 when every side is
within the bound.  `tests/test_reference.py` runs two per statement in
tier-1.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from opentropy import bounds
from opentropy.verify import STATEMENTS, CampaignConfig, Instance, TheoremId, _gate, run_trial, trial_seed

DPS = 50
EPS = 2.0 ** -52
# The stated constant of the bound.  The worst C observed over 50 instances
# per statement is 2.54 (map_monotone); CHANGES.md records the table.
C = 16.0
DIMS = (2, 4)
# The script's sample: instances per statement, and the campaign seed.
COUNT = 50
SEED = 42


@dataclass
class Reference:
    """The sides of one instance in mpmath, and the largest condition number
    among the matrices decomposed for them."""

    dim: int
    kappa: float = 1.0

    def spectrum(self, x) -> tuple:
        """Eigenvalues and eigenvectors of the Hermitian x (positive definite
        here), recording its condition number."""
        e, q = mp.eighe(x)
        values = [e[i] for i in range(len(e))]
        small, large = min(abs(v) for v in values), max(abs(v) for v in values)
        self.kappa = max(self.kappa, float(large / small))
        return values, q

    def image(self, x, g):
        """g(x) for Hermitian x."""
        values, q = self.spectrum(x)
        return q * mp.diag([g(v) for v in values]) * q.H

    def node(self, a, b) -> "Node":
        """The pair (A, B): A^{1/2} and the spectrum of T = A^{-1/2} B A^{-1/2}."""
        values, q = self.spectrum(a)
        root = q * mp.diag([mp.sqrt(v) for v in values]) * q.H
        inv_root = q * mp.diag([1 / mp.sqrt(v) for v in values]) * q.H
        return Node(root, *self.spectrum(inv_root * b * inv_root))

    def eye(self):
        return mp.eye(self.dim)


@dataclass
class Node:
    root: object
    values: list
    vectors: object

    def image(self, g):
        """A^{1/2} g(T) A^{1/2}."""
        q = self.vectors
        return self.root * q * mp.diag([g(v) for v in self.values]) * q.H * self.root


def _matrix(array):
    return mp.matrix(np.asarray(array, dtype=complex).tolist())


def _fields(*fields) -> list:
    """The weights of the first field and the nodes of each, in mpmath."""
    return [[mp.mpf(float(w)) for w in fields[0].weights]] + [[_matrix(a) for a in f.arrays] for f in fields]


def _weighted(weights, terms):
    return sum((w * t for w, t in zip(weights, terms)), mp.zeros(terms[0].rows))


def scalar(spec_or_f):
    """The mpmath function of a catalog spec (or of a ScalarFunction's)."""
    spec = getattr(spec_or_f, "spec", spec_or_f)
    head, _, arg = spec.partition(":")
    params = [mp.mpf(float(s)) for s in arg.split(",")] if arg else []
    return {
        "identity": lambda: (lambda t: t),
        "log": lambda: mp.log,
        "neg_t_log_t": lambda: (lambda t: -t * mp.log(t)),
        "power": lambda p: (lambda t: t ** p),
        "const": lambda c: (lambda t: c),
        "affine": lambda a, b: (lambda t: a + b * t),
    }[head](*params)


def _phi(kraus, x):
    """Phi(X) = sum_j C_j* X C_j."""
    return sum((c.H * x * c for c in kraus), mp.zeros(kraus[0].cols))


# ---------------------------------------------------------------------------
# the statements' sides, in the builders' claim order
# ---------------------------------------------------------------------------


def _lifted(ref: Reference, inst: Instance):
    """f(Phi(X) + t0 (I - Phi(I))) and Phi(f(X)) + f(t0)(I - Phi(I))."""
    f, t0 = scalar(inst.f), mp.mpf(inst.t0)
    kraus, x = [_matrix(c) for c in inst.pmap.kraus], _matrix(inst.x.array)
    defect = ref.eye() - _phi(kraus, ref.eye())
    f_arg = ref.image(_phi(kraus, x) + t0 * defect, f)
    return f_arg, _phi(kraus, ref.image(x, f)) + f(t0) * defect


def _entropy_bound(ref: Reference, inst: Instance, f, gamma=1.0):
    """f(W) - gamma f(t0)(I - V) and S_p, with V = sum w A #_p B and
    W = sum w A #_{p+1} B + t0 (I - V)."""
    p, t0 = mp.mpf(inst.q), mp.mpf(inst.t0)
    weights, fa, fb = _fields(inst.fa, inst.fb)
    nodes = [ref.node(a, b) for a, b in zip(fa, fb)]
    v = _weighted(weights, [n.image(lambda t: t ** p) for n in nodes])
    defect = ref.eye() - v
    w = _weighted(weights, [n.image(lambda t: t ** (p + 1)) for n in nodes]) + t0 * defect
    s = _weighted(weights, [n.image(lambda t: t ** p * f(t)) for n in nodes])
    return ref.image(w, f) - mp.mpf(gamma) * f(t0) * defect, s


def _entropy_sum(ref: Reference, weights, fa, fb, q, f):
    """sum w S_q(A|B)."""
    q = mp.mpf(q)
    return _weighted(weights, [ref.node(a, b).image(lambda t: t ** q * f(t)) for a, b in zip(fa, fb)])


def _mean_integral(ref, inst, constant):
    p = mp.mpf(inst.q)
    weights, fa, fb = _fields(inst.fa, inst.fb)
    lhs = _weighted(weights, [ref.node(a, b).image(lambda t: t ** p) for a, b in zip(fa, fb)])
    rhs = ref.node(_weighted(weights, fa), _weighted(weights, fb)).image(lambda t: t ** p)
    return [(lhs, "<=", rhs)]


def _compression_jensen(ref, inst, constant):
    f_arg, rhs = _lifted(ref, inst)
    return [(f_arg, ">=", rhs)]


def _rev_jensen_gamma(ref, inst, gamma):
    f_arg, rhs = _lifted(ref, inst)
    return [(f_arg, "<=", mp.mpf(gamma) * rhs)]


def _rev_jensen_zeta(ref, inst, zeta):
    f_arg, rhs = _lifted(ref, inst)
    return [(f_arg, "<=", rhs + mp.mpf(zeta) * ref.eye())]


def _entropy_lower(ref, inst, constant):
    lhs, s = _entropy_bound(ref, inst, scalar(inst.f))
    return [(lhs, ">=", s)]


def _rev_entropy_gamma(ref, inst, gamma):
    lhs, s = _entropy_bound(ref, inst, scalar(inst.f), gamma)
    return [(lhs, "<=", mp.mpf(gamma) * s)]


def _rev_entropy_zeta(ref, inst, zeta):
    lhs, s = _entropy_bound(ref, inst, scalar(inst.f))
    return [(lhs, "<=", s + mp.mpf(zeta) * ref.eye())]


def _example_log_pair(ref, inst, constant):
    zeta_log, zeta_neg = bounds.zeta_closed_forms(inst.m, inst.M)
    return [(lhs, "<=", s + mp.mpf(zeta) * ref.eye())
            for spec, zeta in (("neg_t_log_t", zeta_neg), ("log", zeta_log))
            for lhs, s in [_entropy_bound(ref, inst, scalar(spec))]]


def _entropy_nonneg(ref, inst, constant):
    return [(mp.zeros(ref.dim), "<=", _entropy_sum(ref, *_fields(inst.fa, inst.fb), inst.q, scalar(inst.f)))]


def _entropy_upper(ref, inst, constant):
    q = mp.mpf(inst.q)
    weights, fa, fb = _fields(inst.fa, inst.fb)
    nodes = [ref.node(a, b) for a, b in zip(fa, fb)]
    f = scalar(inst.f)
    s = _weighted(weights, [n.image(lambda t: t ** q * f(t)) for n in nodes])
    rhs = _weighted(weights, [n.image(lambda t: t ** (q + 1)) - n.image(lambda t: t ** q) for n in nodes])
    return [(s, "<=", rhs)]


def _klein_upper(ref, inst, constant):
    a, b = _matrix(inst.fa.arrays[0]), _matrix(inst.fb.arrays[0])
    return [(ref.node(a, b).image(mp.log), "<=", b - a)]


def _info_ineq(ref, inst, constant):
    a, b = ([mp.mpf(float(x)) for x in p] for p in (inst.pa, inst.pb))
    divergence = sum(x * mp.log(x / y) for x, y in zip(a, b))
    return [(mp.matrix([[divergence]]), ">=", mp.zeros(1))]


def _superadditive(ref, inst, alpha, beta):
    """S_0(alpha P1 + beta P2) and alpha S_0(P1) + beta S_0(P2), P1 = (FA, FC), P2 = (FB, FD)."""
    f, (alpha, beta) = scalar(inst.f), (mp.mpf(alpha), mp.mpf(beta))
    weights, fa, fb, fc, fd = _fields(inst.fa, inst.fb, inst.fc, inst.fd)
    left = [alpha * a + beta * b for a, b in zip(fa, fb)]
    right = [alpha * c + beta * d for c, d in zip(fc, fd)]
    lhs = _entropy_sum(ref, weights, left, right, 0.0, f)
    rhs = alpha * _entropy_sum(ref, weights, fa, fc, 0.0, f) + beta * _entropy_sum(ref, weights, fb, fd, 0.0, f)
    return [(lhs, ">=", rhs)]


def _subadditive(ref, inst, constant):
    return _superadditive(ref, inst, 1.0, 1.0)


def _joint_concave(ref, inst, constant):
    return _superadditive(ref, inst, inst.alpha, inst.beta)


def _homogeneous(ref, inst, constant):
    alpha, f = mp.mpf(inst.alpha), scalar(inst.f)
    weights, fa, fb = _fields(inst.fa, inst.fb)
    lhs = _entropy_sum(ref, weights, [alpha * a for a in fa], [alpha * b for b in fb], inst.q, f)
    return [(lhs, "==", alpha * _entropy_sum(ref, weights, fa, fb, inst.q, f))]


def _map_monotone(ref, inst, constant):
    f, kraus = scalar(inst.f), [_matrix(c) for c in inst.pmap.kraus]
    weights, fa, fb = _fields(inst.fa, inst.fb)
    lhs = _phi(kraus, _entropy_sum(ref, weights, fa, fb, 0.0, f))
    rhs = _entropy_sum(ref, weights, [_phi(kraus, a) for a in fa], [_phi(kraus, b) for b in fb], 0.0, f)
    return [(lhs, "<=", rhs)]


REFERENCES = {
    TheoremId.MEAN_INTEGRAL: _mean_integral,
    TheoremId.COMPRESSION_JENSEN: _compression_jensen,
    TheoremId.ENTROPY_LOWER: _entropy_lower,
    TheoremId.ENTROPY_NONNEG: _entropy_nonneg,
    TheoremId.ENTROPY_UPPER: _entropy_upper,
    TheoremId.KLEIN_UPPER: _klein_upper,
    TheoremId.INFO_INEQ: _info_ineq,
    TheoremId.SUBADDITIVE: _subadditive,
    TheoremId.HOMOGENEOUS: _homogeneous,
    TheoremId.JOINT_CONCAVE: _joint_concave,
    TheoremId.MAP_MONOTONE: _map_monotone,
    TheoremId.REV_JENSEN_GAMMA: _rev_jensen_gamma,
    TheoremId.REV_ENTROPY_GAMMA: _rev_entropy_gamma,
    TheoremId.REV_JENSEN_ZETA: _rev_jensen_zeta,
    TheoremId.REV_ENTROPY_ZETA: _rev_entropy_zeta,
    TheoremId.EXAMPLE_LOG_PAIR: _example_log_pair,
}


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Side:
    """One claimed side against its reference: which claim and side, its
    relative error ||side - ref|| / scale, and the C it needs."""

    claim: int
    side: str
    relative: float
    needed_c: float

    @property
    def within(self) -> bool:
        return self.needed_c <= C


def compare(theorem: TheoremId, inst: Instance) -> list[Side]:
    """Every claimed side of the builder's Sides on `inst` against the reference."""
    # `sample` yields only instances whose check met its hypotheses: no _Skip.
    st = STATEMENTS[theorem]
    constant = _gate(st, inst.f, inst.m, inst.M)
    claims = st.build(inst, constant).claims
    with mp.workdps(DPS):
        ref = Reference(inst.dim)
        expected = REFERENCES[theorem](ref, inst, constant)
        if [op for _, op, _ in claims] != [op for _, op, _ in expected]:
            raise AssertionError(f"{theorem.value}: claims {claims!r} do not match the reference's")
        out = []
        for i, ((lhs, _, rhs), (ref_lhs, _, ref_rhs)) in enumerate(zip(claims, expected)):
            scale = max(mp.mpf(1), mp.mnorm(ref_lhs, "F"), mp.mnorm(ref_rhs, "F"))
            for name, side, want in (("lhs", lhs, ref_lhs), ("rhs", rhs, ref_rhs)):
                side = np.asarray(side)
                error = mp.mnorm(_matrix(side) - want, "F") / scale
                out.append(Side(i, name, float(error), float(error / (EPS * len(side) * ref.kappa))))
    return out


def sample(theorem: TheoremId, count: int, seed: int = SEED):
    """The first `count` campaign-key instances of `theorem` at dims 2..4
    whose check meets its hypotheses, with their trial indices."""
    config = CampaignConfig(theorems=(theorem,), dims=DIMS, seed=seed)
    found = 0
    for index in range(50 * count):
        _, inst, result = run_trial(theorem, config, trial_seed(seed, theorem, index), index)
        if result.margin is not None:
            yield index, inst
            found += 1
            if found == count:
                return
    raise AssertionError(f"{theorem.value}: fewer than {count} instances in {50 * count} keys")


def main() -> int:
    beyond = 0
    print(f"{'statement':<20} {'n':>4} {'lhs rel':>10} {'rhs rel':>10} {'max C':>8}  (C = {C:g})")
    for theorem in TheoremId:
        worst = {"lhs": 0.0, "rhs": 0.0}
        needed, n = 0.0, 0
        for index, inst in sample(theorem, COUNT):
            n += 1
            for side in compare(theorem, inst):
                worst[side.side] = max(worst[side.side], side.relative)
                needed = max(needed, side.needed_c)
                if not side.within:
                    beyond += 1
                    print(f"  beyond the bound: {theorem.value} trial {index}, claim {side.claim} {side.side}, "
                          f"C = {side.needed_c:.3g}")
        print(f"{theorem.value:<20} {n:>4} {worst['lhs']:>10.2e} {worst['rhs']:>10.2e} {needed:>8.3f}", flush=True)
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
