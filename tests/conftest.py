import math
import signal
from typing import NamedTuple

import numpy as np
import pytest

from opentropy import PositiveDefiniteMatrix, matcore

# matcore's eigensolver entry: function name -> the numpy.linalg solver it matches.
ENTRY = {"_eigh": "eigh", "_eigvalsh": "eigvalsh"}


def random_hermitian(rng, dim, scale=1.0) -> np.ndarray:
    """An exactly Hermitian complex array."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return scale * (g + g.conj().T) / 2.0


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


def rebind_entry(monkeypatch, name: str, replacement) -> None:
    """Replace matcore's entry `name` with `replacement` for one test; no
    other module names it (tests/test_matcore.py guards that)."""
    monkeypatch.setattr(matcore, name, replacement)


class Solve(NamedTuple):
    """One eigensolve: the entry ("eigh" or "eigvalsh"), the number of d x d
    matrices it solved (1 for one matrix) and d, with the input itself."""

    label: str
    count: int
    dim: int
    a: np.ndarray


def labels(solves) -> list[str]:
    return [s.label for s in solves]


@pytest.fixture
def solve_calls(monkeypatch):
    """The eigensolves the package makes during the test, in order, each a
    Solve: matcore's entry, wrapped to record its calls."""
    calls = []
    for name, label in ENTRY.items():
        real = getattr(matcore, name)

        def counted(a, _real=real, _label=label):
            calls.append(Solve(_label, math.prod(a.shape[:-2]), a.shape[-1], a))
            return _real(a)

        rebind_entry(monkeypatch, name, counted)
    return calls
