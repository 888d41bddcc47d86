"""Independent scalar reference for simultaneously diagonal instances.

Everything here is plain Python floats and the math module; numpy appears
only to read data out of instances.  On diagonal inputs both sides of every
checked inequality reduce to per-position scalar arithmetic, so these
functions reproduce each checker's margin without touching the operator path.
"""

import math

import numpy as np

from opentropy.verify import Instance, TheoremId


def scalar_fn(spec: str):
    head, _, arg = spec.partition(":")
    if head == "log":
        return math.log
    if head == "identity":
        return lambda t: t
    if head == "neg_t_log_t":
        return lambda t: -t * math.log(t)
    if head == "power":
        p = float(arg)
        return lambda t: t ** p
    if head == "const":
        c = float(arg)
        return lambda t: c
    if head == "affine":
        a, b = (float(s) for s in arg.split(","))
        return lambda t: a + b * t
    raise ValueError(f"no scalar reference for {spec!r}")


def entropy_term(a, b, q, f):
    return a * (b / a) ** q * f(b / a)


def power_mean(a, b, p):
    return a * (b / a) ** p


def _diag(array) -> list[float]:
    return [float(x) for x in np.diag(array).real]


def _field(field):
    return [float(w) for w in field.weights], [_diag(a) for a in field.arrays]


def _fn(inst: Instance):
    return scalar_fn(inst.f.spec)


def _logarithmic(a, b):
    if a == b:
        return a
    return (b - a) / (math.log(b) - math.log(a))


def _identric(a, b):
    if a == b:
        return a
    return math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0)


def _entropy_pieces(inst: Instance, p: float):
    wa, das = _field(inst.fa)
    _, dbs = _field(inst.fb)
    n = len(das[0])
    v = [sum(w * power_mean(a[i], b[i], p) for w, a, b in zip(wa, das, dbs)) for i in range(n)]
    warg = [
        sum(w * power_mean(a[i], b[i], p + 1.0) for w, a, b in zip(wa, das, dbs))
        + inst.t0 * (1.0 - v[i])
        for i in range(n)
    ]
    return wa, das, dbs, n, v, warg


def margin(theorem: TheoremId, inst: Instance, extras: dict | None = None) -> float:
    """Scalar reproduction of the checker margin for a diagonal instance.

    `extras` carries shared scalar constants (gamma/zeta) for the reverse
    statements; those are plain numbers, cross-checked elsewhere against a
    dense scan, and identical on both computation paths.
    """
    extras = extras or {}

    if theorem is TheoremId.MEAN_INTEGRAL:
        p = inst.q
        wa, das = _field(inst.fa)
        _, dbs = _field(inst.fb)
        n = len(das[0])
        ta = [sum(w * a[i] for w, a in zip(wa, das)) for i in range(n)]
        tb = [sum(w * b[i] for w, b in zip(wa, dbs)) for i in range(n)]
        lhs = [sum(w * power_mean(a[i], b[i], p) for w, a, b in zip(wa, das, dbs)) for i in range(n)]
        return min(power_mean(ta[i], tb[i], p) - lhs[i] for i in range(n))

    if theorem in (TheoremId.COMPRESSION_JENSEN, TheoremId.REV_JENSEN_GAMMA, TheoremId.REV_JENSEN_ZETA):
        f = _fn(inst)
        x = _diag(inst.x.array)
        n = len(x)
        # A factor's weight is its modulus: the Haar factors carry phases.
        cs = [[abs(complex(c[i, i])) for i in range(n)] for c in inst.pmap.kraus]
        gram = [sum(c[i] ** 2 for c in cs) for i in range(n)]
        arg = [sum(c[i] ** 2 * x[i] for c in cs) + inst.t0 * (1.0 - gram[i]) for i in range(n)]
        rhs = [sum(c[i] ** 2 * f(x[i]) for c in cs) + f(inst.t0) * (1.0 - gram[i]) for i in range(n)]
        if theorem is TheoremId.COMPRESSION_JENSEN:
            return min(f(arg[i]) - rhs[i] for i in range(n))
        if theorem is TheoremId.REV_JENSEN_GAMMA:
            gamma = extras["gamma"]
            return min(gamma * rhs[i] - f(arg[i]) for i in range(n))
        zeta = extras["zeta"]
        return min(rhs[i] + zeta - f(arg[i]) for i in range(n))

    if theorem is TheoremId.ENTROPY_LOWER:
        f = _fn(inst)
        wa, das, dbs, n, v, warg = _entropy_pieces(inst, inst.q)
        s = [sum(w * entropy_term(a[i], b[i], inst.q, f) for w, a, b in zip(wa, das, dbs)) for i in range(n)]
        return min(f(warg[i]) - f(inst.t0) * (1.0 - v[i]) - s[i] for i in range(n))

    if theorem is TheoremId.ENTROPY_NONNEG:
        f = _fn(inst)
        wa, das = _field(inst.fa)
        _, dbs = _field(inst.fb)
        n = len(das[0])
        return min(
            sum(w * entropy_term(a[i], b[i], inst.q, f) for w, a, b in zip(wa, das, dbs))
            for i in range(n)
        )

    if theorem is TheoremId.ENTROPY_UPPER:
        f = _fn(inst)
        q = inst.q
        wa, das = _field(inst.fa)
        _, dbs = _field(inst.fb)
        n = len(das[0])
        margins = []
        for i in range(n):
            s = sum(w * entropy_term(a[i], b[i], q, f) for w, a, b in zip(wa, das, dbs))
            rhs = sum(
                w * (power_mean(a[i], b[i], q + 1.0) - power_mean(a[i], b[i], q))
                for w, a, b in zip(wa, das, dbs)
            )
            margins.append(rhs - s)
        return min(margins)

    if theorem is TheoremId.KLEIN_UPPER:
        a = _diag(inst.fa.arrays[0])
        b = _diag(inst.fb.arrays[0])
        return min(bb - aa - aa * math.log(bb / aa) for aa, bb in zip(a, b))

    if theorem is TheoremId.INFO_INEQ:
        a, b = inst.pa.tolist(), inst.pb.tolist()
        return sum(aa * math.log(aa / bb) for aa, bb in zip(a, b))

    if theorem is TheoremId.SUBADDITIVE:
        f = _fn(inst)
        wa, das = _field(inst.fa)
        _, dbs = _field(inst.fb)
        _, dcs = _field(inst.fc)
        _, dds = _field(inst.fd)
        n = len(das[0])
        margins = []
        for i in range(n):
            lhs = sum(
                w * (a[i] + b[i]) * f((c[i] + d[i]) / (a[i] + b[i]))
                for w, a, b, c, d in zip(wa, das, dbs, dcs, dds)
            )
            rhs = sum(
                w * (a[i] * f(c[i] / a[i]) + b[i] * f(d[i] / b[i]))
                for w, a, b, c, d in zip(wa, das, dbs, dcs, dds)
            )
            margins.append(lhs - rhs)
        return min(margins)

    if theorem is TheoremId.HOMOGENEOUS:
        f = _fn(inst)
        alpha, q = inst.alpha, inst.q
        wa, das = _field(inst.fa)
        _, dbs = _field(inst.fb)
        n = len(das[0])
        lhs = [
            sum(w * entropy_term(alpha * a[i], alpha * b[i], q, f) for w, a, b in zip(wa, das, dbs))
            for i in range(n)
        ]
        rhs = [
            alpha * sum(w * entropy_term(a[i], b[i], q, f) for w, a, b in zip(wa, das, dbs))
            for i in range(n)
        ]
        return min(
            min(l - r for l, r in zip(lhs, rhs)),
            min(r - l for l, r in zip(lhs, rhs)),
        )

    if theorem is TheoremId.JOINT_CONCAVE:
        f = _fn(inst)
        alpha, beta = inst.alpha, inst.beta
        # P1 = (FA, FC) and P2 = (FB, FD).
        wa, da1 = _field(inst.fa)
        _, db1 = _field(inst.fc)
        _, da2 = _field(inst.fb)
        _, db2 = _field(inst.fd)
        n = len(da1[0])
        margins = []
        for i in range(n):
            lhs = sum(
                w * (alpha * a1[i] + beta * a2[i]) * f(
                    (alpha * b1[i] + beta * b2[i]) / (alpha * a1[i] + beta * a2[i])
                )
                for w, a1, b1, a2, b2 in zip(wa, da1, db1, da2, db2)
            )
            rhs = alpha * sum(w * a1[i] * f(b1[i] / a1[i]) for w, a1, b1 in zip(wa, da1, db1))
            rhs += beta * sum(w * a2[i] * f(b2[i] / a2[i]) for w, a2, b2 in zip(wa, da2, db2))
            margins.append(lhs - rhs)
        return min(margins)

    if theorem is TheoremId.MAP_MONOTONE:
        f = _fn(inst)
        wa, das = _field(inst.fa)
        _, dbs = _field(inst.fb)
        n = len(das[0])
        # A diagonal map scales position i by sum |C[i, i]|^2 over its factors.
        gains = [sum(abs(complex(c[i, i])) ** 2 for c in inst.pmap.kraus) for i in range(n)]

        def apply(vec):
            return [g * v for g, v in zip(gains, vec)]

        inner = [
            sum(w * a[i] * f(b[i] / a[i]) for w, a, b in zip(wa, das, dbs)) for i in range(n)
        ]
        lhs = apply(inner)
        rhs = [0.0] * n
        for w, a, b in zip(wa, das, dbs):
            pa, pb = apply(a), apply(b)
            for i in range(n):
                rhs[i] += w * pa[i] * f(pb[i] / pa[i])
        return min(r - l for l, r in zip(lhs, rhs))

    if theorem is TheoremId.REV_ENTROPY_GAMMA:
        f = _fn(inst)
        gamma = extras["gamma"]
        wa, das, dbs, n, v, warg = _entropy_pieces(inst, inst.q)
        s = [sum(w * entropy_term(a[i], b[i], inst.q, f) for w, a, b in zip(wa, das, dbs)) for i in range(n)]
        return min(
            gamma * s[i] - (f(warg[i]) - gamma * f(inst.t0) * (1.0 - v[i])) for i in range(n)
        )

    if theorem is TheoremId.REV_ENTROPY_ZETA:
        f = _fn(inst)
        zeta = extras["zeta"]
        wa, das, dbs, n, v, warg = _entropy_pieces(inst, inst.q)
        s = [sum(w * entropy_term(a[i], b[i], inst.q, f) for w, a, b in zip(wa, das, dbs)) for i in range(n)]
        return min(
            s[i] + zeta - (f(warg[i]) - f(inst.t0) * (1.0 - v[i])) for i in range(n)
        )

    if theorem is TheoremId.EXAMPLE_LOG_PAIR:
        m, M = inst.m, inst.M
        zeta_log = math.log(
            (1.0 / math.e) * (M ** m / m ** M) ** (1.0 / (M - m)) * _logarithmic(m, M)
        )
        zeta_neg = _identric(m, M) - 1.0 / _logarithmic(1.0 / m, 1.0 / M)
        p, t0 = inst.q, inst.t0
        wa, das, dbs, n, v, warg = _entropy_pieces(inst, p)
        s_p = [
            sum(w * entropy_term(a[i], b[i], p, math.log) for w, a, b in zip(wa, das, dbs))
            for i in range(n)
        ]
        s_p1 = [
            sum(w * entropy_term(a[i], b[i], p + 1.0, math.log) for w, a, b in zip(wa, das, dbs))
            for i in range(n)
        ]
        m1 = min(
            warg[i] * math.log(warg[i]) - t0 * math.log(t0) * (1.0 - v[i]) - (s_p1[i] - zeta_neg)
            for i in range(n)
        )
        m2 = min(
            s_p[i] + zeta_log - (math.log(warg[i]) - math.log(t0) * (1.0 - v[i]))
            for i in range(n)
        )
        return min(m1, m2)

    raise ValueError(f"no scalar oracle for {theorem}")
