"""Correctness gate applied to every round the benchmark times.

Campaign rounds are held to the acceptance rules of the campaign report;
secant windows to the sign and closed-form properties of the chord constants.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import sys

from opentropy import bounds

MARGIN_FLOOR = -1e-8
# Least rounding allowance for zeta >= 0 and gamma >= 1 (tests/test_bounds.py
# allows the same 1e-12): the chord of a linear f is f itself up to float
# rounding, so both constants land near their limits rather than on them.
ROUNDING = 1e-12
# The chord's mu and nu are differences of f(m), f(M) and of M f(m), m f(M)
# divided by M - m, so a chord value carries an error of a few units of
# eps * max|f| * M / (M - m).  On a narrow window that exceeds ROUNDING: an
# affine f on [4.631, 4.638], whose exact zeta is 0, gives zeta = -1.06e-12,
# 0.7 of those units.  Eight units bound the evaluation of f at both ends,
# the two quotients and the chord itself.
CHORD_ROUNDING_UNITS = 8.0
CLOSED_FORM_TOL = 1e-8


def rounding_allowances(f, m: float, M: float) -> tuple[float, float]:
    """How far below 0 a correct zeta, and below 1 a correct gamma, may land on [m, M]."""
    fm, fM = abs(f.evaluate(m)), abs(f.evaluate(M))
    chord = CHORD_ROUNDING_UNITS * sys.float_info.epsilon * max(1.0, fm, fM) * M / (M - m)
    # gamma = f / chord, so its error is the chord's error over the chord,
    # which is at least min(f(m), f(M)) where gamma is defined and positive.
    low = min(fm, fM)
    return max(ROUNDING, chord), (max(ROUNDING, chord / low) if low > 0.0 else ROUNDING)


def campaign_problems(exit_code, report_text: str, statements: int, trials: int) -> list[str]:
    """Acceptance rules for one `opentropy campaign` call and its JSON report."""
    problems = []
    if exit_code != 0:
        problems.append(f"campaign exited with code {exit_code}")
    try:
        report = json.loads(report_text)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    results = report.get("results", [])
    if len(results) != statements:
        problems.append(f"report has {len(results)} statements, expected {statements}")
    for row in results:
        name = row.get("theorem")
        if row.get("trials") != trials:
            problems.append(f"{name}: {row.get('trials')} trials, expected {trials}")
        if row.get("violations_substantive") != 0 or row.get("violations_numerical") != 0:
            problems.append(
                f"{name}: violations substantive={row.get('violations_substantive')} "
                f"numerical={row.get('violations_numerical')}"
            )
        if row.get("passes", 0) + row.get("skips", 0) != row.get("trials"):
            problems.append(f"{name}: passes + skips != trials")
        margin = row.get("min_margin")
        if margin is not None and not margin >= MARGIN_FLOOR:
            problems.append(f"{name}: min_margin {margin!r} below {MARGIN_FLOOR}")
    if report.get("failures") != []:
        problems.append(f"report lists {len(report.get('failures') or [])} failures")
    return problems


def window_problems(f, m: float, M: float, data) -> list[str]:
    """Checks on one `secant_data(f, m, M)` result (or the exception it raised)."""
    where = f"{f.name} on [{m!r}, {M!r}]"
    if isinstance(data, Exception):
        return [f"{where}: raised {type(data).__name__}: {data}"]
    problems = []
    zeta_tol, gamma_tol = rounding_allowances(f, m, M)
    if not data.zeta >= -zeta_tol:
        problems.append(f"{where}: zeta {data.zeta!r} < 0")
    if data.gamma is not None and f.operator_concave and not data.gamma >= 1.0 - gamma_tol:
        problems.append(f"{where}: gamma {data.gamma!r} < 1 for concave f")
    if f.name in bounds.CLOSED_FORM_FUNCTIONS and m < 1.0 < M:
        zeta_log, zeta_neg = bounds.zeta_closed_forms(m, M)
        closed = zeta_log if f.name == "log" else zeta_neg
        if not abs(data.zeta - closed) <= CLOSED_FORM_TOL:
            problems.append(f"{where}: zeta {data.zeta!r} differs from closed form {closed!r}")
    return problems
