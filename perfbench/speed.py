"""Machine-speed reference for timing on a shared machine.

On the 2-core VM the benchmark was built on, one core's speed drifts by up
to a third over seconds to minutes, from load outside the VM: /proc/stat
shows no steal time, and CPU time drifts with wall time.  A fixed
computation, timed between rounds, drifts with it (correlation about 0.9 with
the round times of every workload), so each round's times are multiplied by
scale(), the reference speed over the speed measured around that round, raised
to an exponent that depends on the kind of work (run.DRIFT_EXPONENT).  Scaled
times read as seconds at the reference speed; the raw ones are printed too.
"""

from __future__ import annotations

import time

import numpy as np

# SpeedReference.seconds() at full speed on the machine the benchmark was
# built on (2 vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6 with OpenBLAS
# 0.3.31, one BLAS thread): the 25th percentile of 4590 calls over 20 s was
# 3.4 ms, the median 4.7 ms.
REFERENCE_S = 0.0034


def scale(before_s: float, after_s: float, exponent: float = 1.0) -> float:
    """Factor that turns a time measured between two reference timings into
    a time at the reference speed.  `exponent` is how much more than the
    reference the measured work slows down when the machine drifts."""
    return (2.0 * REFERENCE_S / (before_s + after_s)) ** exponent


class SpeedReference:
    """Interpreter loop plus small and d=64 eigensolves: the campaign's mix."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [_symmetric(rng, 6) for _ in range(50)]
        self._large = [_symmetric(rng, 64) for _ in range(4)]

    def seconds(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        for a in self._small:
            np.linalg.eigh(a)
        for a in self._large:
            np.linalg.eigh(a)
        return time.perf_counter() - start


def _symmetric(rng, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    return a + a.T
