"""Voxel volumes: trilinear resampling, HU windowing, MPR slice extraction.

A :class:`Volume` is an axis-aligned grid of Hounsfield samples indexed
``values[ix, iy, iz]`` with its world origin fixed at the grid center, so the
voxel center ``(i, j, k)`` sits at world ``((i - (nx-1)/2) * sx, ...)`` mm.
On disk a volume is a ``.vhdr`` text header plus a ``.vraw`` blob of little
endian int16 samples, x-fastest.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, PlaneFrame

HU_MIN = -1024.0
HU_MAX = 3071.0
FILL_HU = -1024.0

# w(0) ~ 0.01 and w(1) ~ 0.99
DEFAULT_GAIN = 2.0 * math.log(99.0)

_INTERP_CALLS = 0


def interpolation_call_count() -> int:
    """Number of interpolation passes since the last reset."""
    return _INTERP_CALLS


def reset_interpolation_counter() -> None:
    global _INTERP_CALLS
    _INTERP_CALLS = 0


def _as_triple(x, dtype=float) -> tuple:
    if np.isscalar(x):
        return (dtype(x),) * 3
    t = tuple(dtype(v) for v in x)
    if len(t) != 3:
        raise ValueError(f"expected a scalar or 3 values, got {x!r}")
    return t


@dataclass(frozen=True)
class Volume:
    """Voxel grid of HU values with physical spacing, origin at grid center."""

    values: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 3:
            raise ValueError(f"values must be 3-d, got shape {v.shape}")
        if min(v.shape) < 2:
            raise ValueError("each axis needs at least 2 voxels")
        sp = _as_triple(self.spacing)
        # both checks are written so that NaN, which fails every comparison, is rejected too
        if not all(0.0 < s < math.inf for s in sp):
            raise ValueError(f"spacing must be finite and positive, got {sp}")
        if v.size and not (v.min() >= HU_MIN and v.max() <= HU_MAX):
            raise ValueError(f"HU values outside [{HU_MIN:g}, {HU_MAX:g}]")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "spacing", sp)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    @property
    def extent_mm(self) -> tuple[float, float, float]:
        """Physical edge lengths ``dims * spacing``."""
        return tuple(n * s for n, s in zip(self.values.shape, self.spacing))

    def axis_coords(self) -> list[np.ndarray]:
        """World coordinates of the voxel centers along each axis."""
        return [
            (np.arange(n, dtype=float) - (n - 1) / 2.0) * s
            for n, s in zip(self.values.shape, self.spacing)
        ]


@dataclass(frozen=True)
class WindowConfig:
    """Clip range plus logistic gain for intensity windowing."""

    clip_lo: float = -490.0
    clip_hi: float = 1040.0
    gain: float = DEFAULT_GAIN

    def __post_init__(self):
        if not self.clip_lo < self.clip_hi:
            raise ValueError("clip_lo must be below clip_hi")
        if not self.gain > 0:
            raise ValueError("gain must be positive")


# points per interpolation chunk: each chunk's float64 temporaries (64 KB
# each) stay in malloc's heap, where a whole grid's would be mapped and
# faulted in afresh on every call
_CHUNK = 8192


def trilinear_sample(vol: Volume, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of world-space points, one pass.

    ``points`` has shape ``(..., 3)`` in mm.  Interpolation runs over the 8
    surrounding voxel centers; points outside the voxel-center hull, and
    NaN or infinite points, return the air fill value of -1024 HU.  The
    points are taken ``_CHUNK`` at a time, and each chunk works on its
    coordinate columns ``points[..., d]`` one axis at a time.  A
    component-major view, ``np.moveaxis(pts, 0, -1)`` of a ``(3, ...)``
    array, makes those columns contiguous and is read without a copy.
    Every point's value is the same whatever the chunking or the layout.
    """
    global _INTERP_CALLS
    _INTERP_CALLS += 1

    p = np.asarray(points)
    if p.shape[-1] != 3:
        raise ValueError(f"points must have shape (..., 3), got {p.shape}")
    out_shape = p.shape[:-1]
    p = p.reshape(-1, 3)

    values = vol.values
    out = np.empty(len(p), dtype=np.float64 if values.dtype == np.float64 else np.float32)
    # gather from a flat view of the source's own memory (read_volume returns a
    # Fortran-ordered int16 view) and widen only the gathered corners; copying
    # and widening the whole source on every call cost more than the gather
    src = values if values.flags.c_contiguous or values.flags.f_contiguous else np.ascontiguousarray(values)
    flat = src.reshape(-1, order="A")
    strides = tuple(s // src.itemsize for s in src.strides)  # element strides
    for start in range(0, len(p), _CHUNK):
        out[start : start + _CHUNK] = _trilinear(flat, strides, values.shape, vol.spacing, p[start : start + _CHUNK])
    return out.reshape(out_shape)


def _trilinear(flat, strides, dims, spacing, p):
    """Values at the ``(n, 3)`` points ``p`` of the grid ``flat`` of shape ``dims``."""
    eps = 1e-9
    inside = np.ones(len(p), dtype=bool)
    base = np.zeros(len(p))
    frac = []
    for col, n, s, stride in zip(p.T, dims, spacing, strides):
        u = np.divide(col, s, dtype=np.float64)  # voxel index coordinate
        u += (n - 1) / 2.0
        # fmax and fmin drop NaN: NaN and infinite points land outside the
        # hull at finite coordinates, so the lerps below raise no warnings
        np.fmax(u, -1.0, out=u)
        np.fmin(u, float(n), out=u)
        inside &= u >= -eps
        inside &= u <= n - 1.0 + eps
        cell = np.clip(np.floor(u), 0.0, n - 2.0)
        u -= cell
        frac.append(u)
        cell *= stride
        base += cell  # exact: flat indices are integers far below 2**53
    idx = base.astype(np.intp)

    sx, sy, sz = strides
    # corners in (x, y, z) bit order, then lerp along z, y and x in turn
    c = [flat.take(idx + o) for o in (0, sz, sy, sy + sz, sx, sx + sz, sx + sy, sx + sy + sz)]
    for f in reversed(frac):
        c = [_lerp(c0, c1, f) for c0, c1 in zip(c[::2], c[1::2])]
    return np.where(inside, c[0], FILL_HU)


def _lerp(c0, c1, f):
    """``c0 + f * (c1 - c0)`` in float64, whatever the dtype of the corners."""
    r = np.subtract(c1, c0, dtype=np.float64)
    r *= f
    r += c0
    return r


def resample(vol: Volume, T: np.ndarray, out_dims, out_spacing) -> Volume:
    """Resample through transform ``T`` in a single interpolation pass.

    The output voxel at world point ``q`` takes the value of the input volume
    at ``T^-1 q``; composing any number of transforms into ``T`` beforehand
    keeps the pass count at one.  The source points are built one component
    at a time into a ``(3, nx, ny, nz)`` array, as outer sums of the scaled
    grid axes, and passed to :func:`trilinear_sample` as its component-major
    view.
    """
    T = np.asarray(T, dtype=float)
    try:
        Tinv = np.linalg.inv(T)
    except np.linalg.LinAlgError as exc:
        raise GeometryError("resample transform is singular") from exc

    dims = _as_triple(out_dims, int)
    spacing = _as_triple(out_spacing)
    ax, ay, az = ((np.arange(n, dtype=float) - (n - 1) / 2.0) * s for n, s in zip(dims, spacing))
    pts = np.empty((3, *dims))
    for d in range(3):
        np.add.outer(np.add.outer(Tinv[d, 0] * ax, Tinv[d, 1] * ay), Tinv[d, 2] * az + Tinv[d, 3], out=pts[d])
    out = trilinear_sample(vol, np.moveaxis(pts, 0, -1))
    return Volume(values=out, spacing=spacing)


# ---------------------------------------------------------------------------
# intensity pipeline: jitter -> clip -> rescale -> window


def intensity_jitter(hu, factor: float):
    """Multiplicative calibration jitter: ``(hu + 1000) * factor - 1000``."""
    if not 0.95 <= factor <= 1.05:
        raise ValueError(f"jitter factor {factor} outside [0.95, 1.05]")
    return (np.asarray(hu) + 1000.0) * factor - 1000.0


def clip_rescale(hu, cfg: WindowConfig = WindowConfig()):
    """Clamp to the clip range and map it affinely onto [0, 1]."""
    x = np.clip(hu, cfg.clip_lo, cfg.clip_hi)
    return (x - cfg.clip_lo) / (cfg.clip_hi - cfg.clip_lo)


def window(x, gain: float = DEFAULT_GAIN):
    """Logistic windowing ``1 / (1 + exp(gain * (0.5 - x)))``."""
    if not gain > 0:
        raise ValueError("gain must be positive")
    x = np.asarray(x)
    return 1.0 / (1.0 + np.exp(gain * (0.5 - x)))


def intensity_pipeline(hu, cfg: WindowConfig = WindowConfig(), jitter_factor: float = 1.0):
    """Full HU-to-network-input mapping, returning values in (0, 1)."""
    return window(clip_rescale(intensity_jitter(hu, jitter_factor), cfg), cfg.gain)


# ---------------------------------------------------------------------------
# MPR slice extraction


def extract_mpr_slice(
    vol: Volume,
    plane: PlaneFrame,
    size=(256, 256),
    px_spacing: float = 1.0,
    cfg: WindowConfig = WindowConfig(),
) -> np.ndarray:
    """Render a plane as an 8-bit grayscale image.

    Pixel ``(i, j)`` samples the volume at
    ``A + (i - (w-1)/2) * px * e_u + (j - (h-1)/2) * px * e_v`` with ``j``
    increasing upward; the returned array is in display order (row 0 on top).
    The points are built one component at a time into a ``(3, h, w)`` array
    and sampled through its component-major view.  Intensities go through
    clip/rescale plus windowing before quantization.  ``size`` is one side
    length or ``(w, h)`` in pixels, each a positive integer, and
    ``px_spacing`` is finite and positive.
    """
    w, h = (size, size) if np.isscalar(size) else size
    if not all(float(n).is_integer() and n > 0 for n in (w, h)):
        raise ValueError(f"size must be a positive integer, got {size!r}")
    px = float(px_spacing)
    if not 0.0 < px < math.inf:
        raise ValueError(f"px_spacing must be finite and positive, got {px_spacing!r}")
    w, h = int(w), int(h)
    iu = (np.arange(w, dtype=float) - (w - 1) / 2.0) * px
    jv = (np.arange(h, dtype=float) - (h - 1) / 2.0) * px
    pts = np.empty((3, h, w))
    for d in range(3):
        np.add.outer(jv * plane.e_v[d], plane.A[d] + iu * plane.e_u[d], out=pts[d])
    hu = trilinear_sample(vol, np.moveaxis(pts, 0, -1))
    img = window(clip_rescale(hu, cfg), cfg.gain)
    img8 = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    return img8[::-1, :]  # row 0 = top of the image


# ---------------------------------------------------------------------------
# file formats


def write_volume(path_base, vol: Volume) -> None:
    """Write ``<base>.vhdr`` (text header) and ``<base>.vraw`` (int16le)."""
    base = os.fspath(path_base)
    nx, ny, nz = vol.dims
    header = (
        f"dims: {nx} {ny} {nz}\n"
        f"spacing_mm: {vol.spacing[0]:.17g} {vol.spacing[1]:.17g} {vol.spacing[2]:.17g}\n"
        "dtype: int16le\n"
    )
    with open(base + ".vhdr", "w", encoding="ascii") as fh:
        fh.write(header)
    raw = np.rint(np.asarray(vol.values, dtype=np.float64))
    raw = np.clip(raw, HU_MIN, HU_MAX).astype("<i2")
    # file layout is x-fastest, then y, then z
    raw.transpose(2, 1, 0).tofile(base + ".vraw")


def _header_triple(base, fields, key, convert) -> tuple:
    """The three finite positive numbers on header line ``key``."""
    try:
        values = tuple(convert(v) for v in fields[key].split())
    except ValueError:
        values = ()
    if len(values) != 3 or not all(0 < v < math.inf for v in values):
        raise ValueError(f"{base}.vhdr: `{key}` needs three positive numbers, got {fields[key]!r}")
    return values


def read_volume(path_base) -> Volume:
    base = os.fspath(path_base)
    if base.endswith(".vhdr"):
        base = base[: -len(".vhdr")]
    fields = {}
    with open(base + ".vhdr", "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            key, _, val = line.partition(":")
            fields[key.strip()] = val.strip()
    for req in ("dims", "spacing_mm", "dtype"):
        if req not in fields:
            raise ValueError(f"{base}.vhdr: missing `{req}` line")
    if fields["dtype"] != "int16le":
        raise ValueError(f"{base}.vhdr: unsupported dtype {fields['dtype']!r}")
    nx, ny, nz = _header_triple(base, fields, "dims", int)
    spacing = _header_triple(base, fields, "spacing_mm", float)
    raw = np.fromfile(base + ".vraw", dtype="<i2")
    if raw.size != nx * ny * nz:
        raise ValueError(f"{base}.vraw: expected {nx * ny * nz} samples, got {raw.size}")
    try:
        return Volume(values=raw.reshape(nz, ny, nx).transpose(2, 1, 0), spacing=spacing)
    except ValueError as exc:
        raise ValueError(f"{base}.vraw: {exc}") from exc


def write_pgm(path, image: np.ndarray) -> None:
    """Write an 8-bit grayscale image as binary PGM (P5)."""
    img = np.asarray(image)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError("PGM export expects a 2-d uint8 array")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
