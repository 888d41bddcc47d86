"""End-to-end acceptance checks, one test per stated criterion.

Run `pytest -s tests/test_acceptance.py` to see one PASS line per criterion.
The whole suite is sized to finish in a few minutes on a laptop.
"""

import json
import math

import numpy as np

import scalar_oracle
from opentropy import (
    OperatorField,
    PositiveDefiniteMatrix,
    apply_function,
    chord_gap_bound,
    chord_ratio_bound,
    eig,
    generalized_entropy,
    loewner_leq,
    mean_field,
    natural_power,
    relative_entropy,
    variational_form,
    zeta_closed_forms,
)
from opentropy.bounds import _chord, _gap_bound, _ratio_bound
from opentropy.cli import main
from opentropy.functions import IDENTITY, LOG, NEG_T_LOG_T, parse, power
from opentropy.verify import TheoremId, check, random_instance

from conftest import random_hermitian, random_pd


def _ok(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_variational_identity():
    rng = np.random.default_rng(101)
    exponents = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    fns = (LOG, power(0.5))
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        a, b = random_pd(rng, dim), random_pd(rng, dim)
        for q in exponents:
            for f in fns:
                direct = relative_entropy(a, b, q, f)
                flipped = variational_form(a, b, q, f)
                err = np.linalg.norm(direct - flipped) / max(1.0, np.linalg.norm(direct))
                worst = max(worst, err)
                assert err <= 1e-9
    _ok(1, f"variational identity, worst relative discrepancy {worst:.3e}")


def test_criterion_2_scalar_oracle_equivalence():
    rng = np.random.default_rng(202)
    fns = (LOG, power(0.5), parse("neg_t_log_t"), IDENTITY)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        w = rng.uniform(0.5, 2.0, size=k)
        das = [rng.uniform(0.3, 3.0, size=dim) for _ in range(k)]
        dbs = [rng.uniform(0.3, 3.0, size=dim) for _ in range(k)]
        fa = OperatorField.from_matrices(w, [PositiveDefiniteMatrix(np.diag(d)) for d in das])
        fb = OperatorField.from_matrices(w, [PositiveDefiniteMatrix(np.diag(d)) for d in dbs])
        q = float(rng.uniform(-1.0, 2.0))
        p = float(rng.uniform(0.0, 1.0))
        f = fns[int(rng.integers(len(fns)))]
        sf = scalar_oracle.scalar_fn(f.spec)

        def close(matrix, want):
            got = np.diag(matrix).real
            want = np.asarray(want)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

        a0, b0 = das[0], dbs[0]
        first_a, first_b = PositiveDefiniteMatrix(fa.arrays[0]), PositiveDefiniteMatrix(fb.arrays[0])
        close(
            natural_power(first_a, first_b, q).array,
            [scalar_oracle.power_mean(x, y, q) for x, y in zip(a0, b0)],
        )
        close(
            relative_entropy(first_a, first_b, q, f),
            [scalar_oracle.entropy_term(x, y, q, sf) for x, y in zip(a0, b0)],
        )
        close(
            variational_form(first_a, first_b, q, f),
            [scalar_oracle.entropy_term(x, y, q, sf) for x, y in zip(a0, b0)],
        )
        close(
            fa.weighted_sum(),
            [sum(w[j] * das[j][i] for j in range(k)) for i in range(dim)],
        )
        close(
            generalized_entropy(fa, fb, q, f),
            [
                sum(w[j] * scalar_oracle.entropy_term(das[j][i], dbs[j][i], q, sf) for j in range(k))
                for i in range(dim)
            ],
        )
        close(
            mean_field(fa, fb, p),
            [
                sum(w[j] * scalar_oracle.power_mean(das[j][i], dbs[j][i], p) for j in range(k))
                for i in range(dim)
            ],
        )
    _ok(2, "scalar oracle equivalence on diagonal instances")


# The least passes of any statement, measured at seed 42: every statement
# draws f from the functions its gates admit, so all 1000 of its trials are
# checked inequalities.
CRITERION_3_MIN_PASSES = 1000


def test_criterion_3_full_theorem_campaign(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["campaign", "--theorems", "all", "--trials", "1000", "--dims", "2:8",
         "--seed", "42", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["results"]) == len(TheoremId)
    worst = 0.0
    for row in report["results"]:
        assert row["trials"] == 1000
        assert row["violations_substantive"] == 0
        assert row["violations_numerical"] == 0
        assert row["passes"] + row["skips"] == row["trials"]
        assert row["passes"] >= CRITERION_3_MIN_PASSES, row
        if row["min_margin"] is not None:
            assert row["min_margin"] >= -1e-8, row
            worst = min(worst, row["min_margin"])
    assert report["failures"] == []
    _ok(3, f"full campaign, 16000 trials, worst margin {worst:.3e}")


def test_criterion_4_reverse_constants():
    rng = np.random.default_rng(404)
    for _ in range(100):
        m = float(rng.uniform(0.02, 0.98))
        M = float(rng.uniform(1.02, 10.0))
        zeta_log, zeta_neg = zeta_closed_forms(m, M)
        assert abs(chord_gap_bound(LOG, m, M) - zeta_log) <= 1e-8
        assert abs(chord_gap_bound(parse("neg_t_log_t"), m, M) - zeta_neg) <= 1e-8
        # chord_gap_bound takes both from closed forms too: the grid search
        # is the independent route.
        assert abs(_gap_bound(LOG, _chord(LOG, m, M))[1] - zeta_log) <= 1e-8
        assert abs(_gap_bound(NEG_T_LOG_T, _chord(NEG_T_LOG_T, m, M))[1] - zeta_neg) <= 1e-8
    assert abs(chord_ratio_bound(IDENTITY, 0.5, 3.0) - 1.0) <= 1e-12
    assert abs(chord_gap_bound(IDENTITY, 0.5, 3.0)) <= 1e-12
    assert abs(chord_ratio_bound(power(0.5), 1.0, 4.0) - 3.0 * math.sqrt(2.0) / 4.0) <= 1e-10
    assert abs(_ratio_bound(power(0.5), _chord(power(0.5), 1.0, 4.0))[1] - 3.0 * math.sqrt(2.0) / 4.0) <= 1e-10
    _ok(4, "reverse constants vs closed forms and stationarity values")


def test_criterion_5_information_inequality():
    rng = np.random.default_rng(505)
    for trial in range(1000):
        dim = int(rng.integers(2, 65))
        a = rng.dirichlet(2.0 * np.ones(dim))
        a = np.clip(a, 1e-9, None)
        a /= a.sum()
        if trial % 10 == 0:
            b = a.copy()
        else:
            b = rng.dirichlet(2.0 * np.ones(dim))
            b = np.clip(b, 1e-9, None)
            b /= b.sum()
        value = float(np.sum(a * np.log(a / b)))
        assert value >= -1e-12
        if trial % 10 == 0:
            assert abs(value) <= 1e-12
    _ok(5, "information inequality on 1000 probability pairs up to length 64")


def test_criterion_6_forward_reverse_sandwich():
    worst = math.inf
    for seed in range(200):
        f = power(0.5) if seed % 2 == 0 else power(0.25)
        inst = random_instance(
            TheoremId.ENTROPY_LOWER, dim=2 + seed % 7, k=2 + seed % 3,
            seed=60000 + seed, f=f, p_or_q=(seed % 5) / 4.0,
        )
        lower = check(TheoremId.ENTROPY_LOWER, inst)
        upper = check(TheoremId.REV_ENTROPY_ZETA, inst)
        assert lower.hypothesis_met and upper.hypothesis_met
        assert lower.margin >= -1e-8 and upper.margin >= -1e-8
        worst = min(worst, lower.margin, upper.margin)
    _ok(6, f"forward/reverse sandwich on 200 shared instances, worst margin {worst:.3e}")


def test_criterion_7_determinism(tmp_path, capsys):
    gen_args = ["gen", "--theorem", "rev_entropy_zeta", "--dim", "4", "--k", "3",
                "--seed", "99", "--f", "power:0.5", "--q", "0.5"]
    paths = [tmp_path / "i1.json", tmp_path / "i2.json"]
    for p in paths:
        assert main(gen_args + ["--out", str(p)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()

    camp_args = ["campaign", "--theorems", "all", "--trials", "2", "--dims", "2:4", "--seed", "7"]
    reports = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in reports:
        assert main(camp_args + ["--out", str(p)]) == 0
    capsys.readouterr()
    assert reports[0].read_bytes() == reports[1].read_bytes()
    _ok(7, "byte-identical reports for repeated seeded commands")


def test_criterion_8_kernel_health():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        dim = int(rng.integers(1, 17))
        h = random_hermitian(rng, dim, scale=10.0 ** rng.uniform(-2, 2))
        d = eig(h)
        hnorm = float(np.linalg.norm(h))
        assert np.linalg.norm(d.reconstruct() - h) <= 1e-10 * max(1.0, hnorm)
        assert np.linalg.norm(d.eigenvectors.conj().T @ d.eigenvectors - np.eye(dim)) <= 1e-11

    # Each pair satisfies f >= g on the generated spectra (random_pd keeps
    # lambda_min >= 1 for dim >= 2, where t >= sqrt(t) holds).
    dominating = [(IDENTITY, LOG), (power(0.5), LOG), (IDENTITY, power(0.5))]
    for trial in range(500):
        f, g = dominating[trial % 3]
        a = random_pd(rng, int(rng.integers(2, 9)))
        holds, margin = loewner_leq(apply_function(a, g), apply_function(a, f), 1e-9)
        assert holds, margin
    _ok(8, "eigendecomposition residuals and spectral order preservation")
