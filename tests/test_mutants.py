"""A fixed sample of the loader mutants of `tests/mutants.py`, in tier-1."""

from mutants import run

# Every 16th of the 27,094 mutants: 1,694 files, about 1.0 s on 2 vCPUs.
STRIDE = 16


def test_a_sample_of_mutated_files_loads_or_is_refused_by_name():
    counts, problems = run(STRIDE)
    assert sum(counts.values()) >= 1500
    assert problems == []
    # Both paths are exercised: refusals, and files that check and replay.
    assert counts["refused"] > 1000 and counts["exit 0"] > 10, counts
