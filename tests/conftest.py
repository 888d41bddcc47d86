import signal

import numpy as np
import pytest

from opentropy import HermitianMatrix, PositiveDefiniteMatrix


def random_hermitian(rng, dim, scale=1.0) -> HermitianMatrix:
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return HermitianMatrix(scale * (g + g.conj().T) / 2.0)


def random_pd(rng, dim, ridge=None) -> PositiveDefiniteMatrix:
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    ridge = 0.5 * dim if ridge is None else ridge
    return PositiveDefiniteMatrix(g @ g.conj().T + ridge * np.eye(dim))


@pytest.fixture
def rng():
    return np.random.default_rng(12911)


@pytest.fixture
def deadline():
    """Fail the test with TimeoutError once it has run for 10 s, so that a
    hang ends as a failure instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError("test ran past its 10 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
