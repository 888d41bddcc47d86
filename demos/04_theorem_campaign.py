#!/usr/bin/env python3
"""The verification harness end to end: draw a constrained instance, check a
single statement, then run a small seeded campaign and read the report."""

import json

from opentropy.verify import (
    STATEMENTS,
    CampaignConfig,
    TheoremId,
    campaign,
    check,
    random_instance,
)
from opentropy.functions import power

print("=== every registered statement ===")
for theorem in TheoremId:
    print(f"  {theorem.value:20s} {STATEMENTS[theorem].build.__doc__}")

print()
print("=== one instance, one check ===")
inst = random_instance(TheoremId.ENTROPY_LOWER, dim=4, k=3, seed=7, f=power(0.5), p_or_q=0.5)
print(f"measured window: m={inst.m:.4f} < 1 < M={inst.M:.4f}, t0={inst.t0:.4f}")
result = check(TheoremId.ENTROPY_LOWER, inst)
print(json.dumps(result.to_json(), indent=2))

print()
print("=== the same instance feeds the reverse bound ===")
rev = check(TheoremId.REV_ENTROPY_ZETA, inst)
print(f"forward margin {result.margin:+.6f}, reverse margin {rev.margin:+.6f} "
      "(the two bounds sandwich the same aggregate)")

print()
print("=== a small campaign ===")
config = CampaignConfig(trials=25, dims=(2, 6), terms=(2, 3), seed=42)
report = campaign(config)
print(f"{'statement':22s} {'pass':>4s} {'skip':>4s}  worst margin")
for s in report.summaries:
    margin = "-" if s.min_margin is None else f"{s.min_margin:+.3e}"
    print(f"{s.theorem.value:22s} {s.passes:4d} {s.skips:4d}  {margin}")
print("substantive violations:", report.substantive_total)
