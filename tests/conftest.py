import signal
import sys

import numpy as np
import pytest

from opentropy import HermitianMatrix, PositiveDefiniteMatrix, matcore

# matcore's eigensolver entry: function name -> the numpy.linalg solver it matches.
ENTRY = {"_eigh": "eigh", "_eigvalsh": "eigvalsh"}


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


def rebind_entry(monkeypatch, name: str, replacement) -> None:
    """Replace matcore's entry `name` with `replacement` in every package
    module that binds it (verify imports it by name), for one test."""
    original = getattr(matcore, name)
    for key, module in sorted(sys.modules.items()):
        if (key == "opentropy" or key.startswith("opentropy.")) and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def solve_calls(monkeypatch):
    """The eigensolves the package makes during the test, in order, each named
    "eigh" or "eigvalsh": matcore's entry, wrapped to record its calls."""
    calls = []
    for name, label in ENTRY.items():
        real = getattr(matcore, name)

        def counted(a, _real=real, _label=label):
            calls.append(_label)
            return _real(a)

        rebind_entry(monkeypatch, name, counted)
    return calls
