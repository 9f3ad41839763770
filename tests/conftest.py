import numpy as np
import pytest

from planereg import _kernels
from planereg.geometry import _quaternion_to_rotation


_skipped = []


def pytest_runtest_logreport(report):
    if report.skipped and not hasattr(report, "wasxfail"):
        _skipped.append(report.nodeid)


pytest_collectreport = pytest_runtest_logreport  # a skipped module


def pytest_sessionfinish(session, exitstatus):
    # a skipped test checks nothing here, and one that is always skipped hides a defect, so a skip fails the run
    if _skipped and exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _skipped:
        terminalreporter.write_line(f"{len(_skipped)} skipped test(s) fail the run: " + ", ".join(_skipped), red=True)


def random_rotations(n: int, seed: int = 0) -> np.ndarray:
    """Uniformly distributed rotation matrices, shape (n, 3, 3)."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, 4))
    return _quaternion_to_rotation(q)


@pytest.fixture
def rotations():
    return random_rotations


def force_dispatch(monkeypatch, pooled):
    """Sends every multi-task kernel call and sampling pass to the pool, or runs every call inline.

    Pooled, the kernels split samples as on two workers, whatever the machine.
    """
    for name in ("_MIN_TASK", "_MIN_MACS"):
        monkeypatch.setattr(_kernels, name, 0 if pooled else 1 << 62)
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 2 if pooled else 1)
