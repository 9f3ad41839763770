import numpy as np
import pytest

from planereg import _kernels
from planereg.geometry import _quaternion_to_rotation


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
