"""Reference computations the benchmark checks ``planereg`` against.

Written with numpy alone and without importing ``planereg``, so a fault in
the program cannot hide in its own reference:

* a forward pass of the plane regression network built from 27 shifted
  multiply-adds per 3x3x3 convolution, a reshape-max 2x2x2 pool and plain
  matmuls;
* a per-point trilinear sampler, a logistic HU window and the 8-bit
  quantization used by MPR slices;
* a reader for the ``.vhdr`` / ``.vraw`` volume files.

Conventions follow the documented formats: a volume's voxel ``(i, j, k)``
sits at world ``((i - (n-1)/2) * spacing, ...)`` mm, points outside the
voxel-center hull read the -1024 HU air fill, and an MPR pixel in display
row ``r`` samples the plane at ``j = h - 1 - r`` up the ``e_v`` axis.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

FILL_HU = -1024.0


# ---------------------------------------------------------------------------
# network forward pass


def conv3d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3x3 convolution, stride 1, zero padding 1, as 27 shifted multiply-adds.

    ``x`` is ``(B, C, D, H, W)``, ``w`` is ``(O, C, 3, 3, 3)``, ``b`` is
    ``(O,)``; accumulates in float64.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    B, C, D, H, W = x.shape
    xp = np.zeros((B, C, D + 2, H + 2, W + 2))
    xp[:, :, 1:-1, 1:-1, 1:-1] = x
    out = np.zeros((B, w.shape[0], D, H, W))
    out += np.asarray(b, dtype=np.float64)[None, :, None, None, None]
    for i, j, k in itertools.product(range(3), repeat=3):
        shifted = xp[:, :, i : i + D, j : j + H, k : k + W]
        # (B, D, H, W, O) -> (B, O, D, H, W)
        out += np.moveaxis(np.tensordot(shifted, w[:, :, i, j, k], axes=([1], [1])), -1, 1)
    return out


def maxpool3d(x: np.ndarray) -> np.ndarray:
    """2x2x2 max pool with stride 2 by reshape and max; odd tails are dropped."""
    B, C, D, H, W = x.shape
    d, h, w = D // 2, H // 2, W // 2
    blocks = x[:, :, : 2 * d, : 2 * h, : 2 * w].reshape(B, C, d, 2, h, 2, w, 2)
    return blocks.max(axis=(3, 5, 7))


def forward(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Network output ``(B, n_out)`` for input ``(B, D, D, D)``.

    ``params`` maps ``conv{i}.weight/bias`` and ``fc{i}.weight/bias`` to
    arrays, as the checkpoint format names them: conv blocks apply
    conv -> ReLU -> pool, fully connected layers ``x @ W + b`` with ReLU on
    every layer but the last.
    """
    t = np.asarray(x, dtype=np.float64)[:, None]
    i = 0
    while f"conv{i}.weight" in params:
        t = maxpool3d(np.maximum(conv3d(t, params[f"conv{i}.weight"], params[f"conv{i}.bias"]), 0.0))
        i += 1
    t = t.reshape(t.shape[0], -1)
    n_fc = sum(1 for name in params if name.startswith("fc") and name.endswith(".weight"))
    for j in range(n_fc):
        t = t @ np.asarray(params[f"fc{j}.weight"], dtype=np.float64) + params[f"fc{j}.bias"]
        if j < n_fc - 1:
            t = np.maximum(t, 0.0)
    return t


# ---------------------------------------------------------------------------
# sampling and intensities


def trilinear_point(values: np.ndarray, spacing, point) -> float:
    """Trilinear interpolation of one world point (mm) in a centered grid."""
    n = np.array(values.shape, dtype=np.float64)
    u = np.asarray(point, dtype=np.float64) / np.asarray(spacing, dtype=np.float64) + (n - 1.0) / 2.0
    if np.any(u < -1e-9) or np.any(u > n - 1.0 + 1e-9):
        return FILL_HU
    i0 = np.minimum(np.maximum(np.floor(u), 0.0), n - 2.0).astype(int)
    f = u - i0
    total = 0.0
    for corner in itertools.product((0, 1), repeat=3):
        weight = 1.0
        for axis, bit in enumerate(corner):
            weight *= f[axis] if bit else 1.0 - f[axis]
        total += weight * float(values[i0[0] + corner[0], i0[1] + corner[1], i0[2] + corner[2]])
    return total


def sample_points(values: np.ndarray, spacing, points: np.ndarray) -> np.ndarray:
    """:func:`trilinear_point` at each row of ``points`` ``(N, 3)``."""
    return np.array([trilinear_point(values, spacing, p) for p in np.asarray(points)])


def window(hu, clip_lo: float, clip_hi: float, gain: float):
    """Clip to ``[clip_lo, clip_hi]``, rescale to [0, 1], apply the logistic."""
    x = (np.clip(hu, clip_lo, clip_hi) - clip_lo) / (clip_hi - clip_lo)
    return 1.0 / (1.0 + np.exp(gain * (0.5 - x)))


def grid_points(indices: np.ndarray, dims: int, spacing: float) -> np.ndarray:
    """World points of voxel indices ``(N, 3)`` in a centered cubic grid."""
    return (np.asarray(indices, dtype=np.float64) - (dims - 1) / 2.0) * spacing


def mpr_points(A, e_u, e_v, rows, cols, size: int, px_spacing: float) -> np.ndarray:
    """World points of MPR pixels at display ``rows``/``cols`` of a square slice."""
    j = (size - 1) - np.asarray(rows, dtype=np.float64)
    i = np.asarray(cols, dtype=np.float64)
    half = (size - 1) / 2.0
    return (
        np.asarray(A)[None, :]
        + ((i - half) * px_spacing)[:, None] * np.asarray(e_u)[None, :]
        + ((j - half) * px_spacing)[:, None] * np.asarray(e_v)[None, :]
    )


def quantize(img) -> np.ndarray:
    """Map [0, 1] intensities to 8-bit gray by rounding."""
    return np.clip(np.rint(np.asarray(img) * 255.0), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# files


def read_raw_volume(stem: str) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Values ``[ix, iy, iz]`` and spacing of ``<stem>.vhdr`` / ``<stem>.vraw``."""
    header = {}
    with open(stem + ".vhdr", encoding="ascii") as fh:
        for line in fh:
            key, _, val = line.partition(":")
            header[key.strip()] = val.split()
    nx, ny, nz = (int(v) for v in header["dims"])
    spacing = tuple(float(v) for v in header["spacing_mm"])
    raw = np.fromfile(stem + ".vraw", dtype="<i2")
    # the file is x-fastest: C order (z, y, x)
    return raw.reshape(nz, ny, nx).transpose(2, 1, 0).astype(np.float64), spacing


def angle_deg(u, v) -> float:
    """Unsigned angle between two vectors in degrees."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    c = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))
