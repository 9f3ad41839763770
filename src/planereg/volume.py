"""Voxel volumes: trilinear resampling, HU windowing, MPR slice extraction.

Every network input and every MPR render goes through one fixed display
window, :data:`WINDOW`: clip to [-490, 1040] HU, rescale onto [0, 1], then
a logistic with gain ``2 ln 99``.

A :class:`Volume` is an axis-aligned grid of Hounsfield samples indexed
``values[ix, iy, iz]`` with its world origin fixed at the grid center, so the
voxel center ``(i, j, k)`` sits at world ``((i - (nx-1)/2) * sx, ...)`` mm.
On disk a volume is a ``.vhdr`` text header plus a ``.vraw`` blob of little
endian int16 samples, x-fastest.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from ._kernels import _run_tasks
from .geometry import GeometryError, PlaneFrame

HU_MIN = -1024.0
HU_MAX = 3071.0
FILL_HU = -1024.0

_INTERP_CALLS = 0
_INTERP_LOCK = threading.Lock()  # passes may run on several threads at once


def interpolation_call_count() -> int:
    """Number of interpolation passes since the process started."""
    return _INTERP_CALLS


def _as_triple(x) -> tuple:
    if np.isscalar(x):
        return (float(x),) * 3
    t = tuple(float(v) for v in x)
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
    """Clip range plus logistic gain of the display window, :data:`WINDOW`."""

    clip_lo: float = -490.0
    clip_hi: float = 1040.0
    gain: float = 2.0 * math.log(99.0)  # w(0) ~ 0.01 and w(1) ~ 0.99


WINDOW = WindowConfig()


# points per interpolation chunk, and so per pool task of a pass.  A chunk
# works on (3, m) float64 axes (768 KB each), an (8, m) intp corner index
# (2 MB) and (4, m), (2, m) and (1, m) float64 lerps; in a process that has
# freed a larger block these stay in malloc's heap, where a whole grid's
# would be mapped and faulted in afresh on every call.  A pass of more than
# one chunk runs its chunks on the kernels' thread pool.  Each chunk makes
# about 25 numpy calls, all three axes or all eight corners in each, where
# one call per axis and per corner made about 80: eight 72^3 resamples from
# 64^3 took 52.5-53.9 ms on one thread and 48.6-49.6 ms on two, against
# 61.9-62.8 and 57.9-58.2 ms (2 vCPUs).  Two processes doing the same work
# side by side took 88.6-89.1 ms each, so on those vCPUs the second thread
# gains little more than a second process would.  With 8192-point chunks,
# the pooled fill of the per-axis sampler took 1.1x its one-thread time
_CHUNK = 32768


def trilinear_sample(vol: Volume, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of world-space points, one pass.

    ``points`` has shape ``(..., 3)`` in mm.  Interpolation runs over the 8
    surrounding voxel centers; points outside the voxel-center hull, and
    NaN or infinite points, return the air fill value of -1024 HU.  The
    points are taken ``_CHUNK`` at a time, and each chunk works on its
    ``(3, m)`` transpose, all three axes in each numpy call.  A
    component-major view, ``np.moveaxis(pts, 0, -1)`` of a ``(3, ...)``
    array, makes that transpose contiguous and is read without a copy.
    Every point's value is the same whatever the chunking or the layout.
    """
    p = np.asarray(points)
    if p.shape[-1] != 3:
        raise ValueError(f"points must have shape (..., 3), got {p.shape}")
    out_shape = p.shape[:-1]
    p = p.reshape(-1, 3)
    starts = range(0, len(p), _CHUNK)
    return _sample(vol, len(p), starts, lambda i: p[starts[i] : starts[i] + _CHUNK].T).reshape(out_shape)


def _sample(vol: Volume, n: int, starts, points) -> np.ndarray:
    """One counted interpolation pass over ``n`` points, in chunks.

    Chunk ``i`` fills ``out[starts[i]:starts[i + 1]]`` (the last one up to
    ``n``) from the ``(3, m)`` component-major points that ``points(i)``
    returns.  The chunks are pool tasks (``_kernels._run_tasks``), each of
    which builds its own points and writes only its own range, so a pass of
    one chunk, or one made from inside a pooled task, runs inline.  Every
    value is bitwise the same whichever thread computed it.
    """
    global _INTERP_CALLS
    with _INTERP_LOCK:
        _INTERP_CALLS += 1

    values = vol.values
    out = np.empty(n, dtype=np.float64 if values.dtype == np.float64 else np.float32)
    # gather from a flat view of the source's own memory (read_volume returns a
    # Fortran-ordered int16 view) and widen only the gathered corners; copying
    # and widening the whole source on every call cost more than the gather
    src = values if values.flags.c_contiguous or values.flags.f_contiguous else np.ascontiguousarray(values)
    flat = src.reshape(-1, order="A")
    strides = tuple(s // src.itemsize for s in src.strides)  # element strides
    stops = list(starts[1:]) + [n]

    def chunk(i):
        out[starts[i] : stops[i]] = _trilinear(flat, strides, values.shape, vol.spacing, points(i))

    _run_tasks(chunk, len(starts))
    return out


def _trilinear(flat, strides, dims, spacing, p):
    """Values at the ``(3, m)`` component-major points ``p`` of the grid ``flat`` of shape ``dims``."""
    eps = 1e-9
    n = np.array(dims, dtype=np.float64)[:, None]
    u = np.divide(p, np.array(spacing)[:, None], dtype=np.float64)  # voxel index coordinates
    u += (n - 1) / 2.0
    # fmax and fmin drop NaN: NaN and infinite points land outside the
    # hull at finite coordinates, so the cast and the lerps below raise no warnings
    np.fmax(u, -1.0, out=u)
    np.fmin(u, n, out=u)
    inside = u >= -eps
    inside &= u <= n - 1.0 + eps
    inside = inside.all(axis=0)
    cell = np.clip(np.floor(u), 0.0, n - 2.0)
    u -= cell
    cell *= np.array(strides, dtype=np.float64)[:, None]
    base = cell.sum(axis=0).astype(np.intp)  # exact: flat indices are integers far below 2**53

    sx, sy, sz = strides
    # the 8 corners in (x, y, z) bit order, gathered at once; then lerp along z, y and x in turn
    corners = np.array([0, sz, sy, sy + sz, sx, sx + sz, sx + sy, sx + sy + sz], dtype=np.intp)[:, None]
    c = flat.take(corners + base)
    for f in u[::-1]:
        c = _lerp(c[0::2], c[1::2], f)
    return np.where(inside, c[0], FILL_HU)


def _lerp(c0, c1, f):
    """``c0 + f * (c1 - c0)`` in float64, whatever the dtype of the corners; ``f`` broadcasts over their rows."""
    r = np.subtract(c1, c0, dtype=np.float64)
    r *= f
    r += c0
    return r


def resample(vol: Volume, T: np.ndarray, out_dims, out_spacing) -> Volume:
    """Resample through transform ``T`` in a single interpolation pass.

    The output voxel at world point ``q`` takes the value of the input volume
    at ``T^-1 q``; composing any number of transforms into ``T`` beforehand
    keeps the pass count at one.  ``out_dims`` is one integer or three, each
    at least 2, and ``out_spacing`` one or three finite positive numbers in
    mm.  Each chunk of the pass is a slab of about ``_CHUNK`` points (whole
    z-planes), whose source points it builds one component at a time into a
    ``(3, planes, ny, nx)`` buffer of its own, as outer sums of the scaled
    grid axes, and samples it as ``(3, m)`` points; no call holds
    the whole grid's points.  So the points are visited x-fastest, the
    memory order of the volumes :func:`read_volume` returns, and the
    ``(nx, ny, nz)`` output is the transposed view of the ``(nz, ny, nx)``
    samples.
    """
    try:
        dims, spacing = _as_triple(out_dims), _as_triple(out_spacing)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"out_dims and out_spacing need one number or three: {exc}") from exc
    if not all(n.is_integer() and n >= 2 for n in dims):
        raise ValueError(f"out_dims must be integers of at least 2, got {out_dims!r}")
    # written so that NaN, which fails every comparison, is rejected too
    if not all(0.0 < s < math.inf for s in spacing):
        raise ValueError(f"out_spacing must be finite and positive, got {out_spacing!r}")
    T = np.asarray(T, dtype=float)
    try:
        Tinv = np.linalg.inv(T)
    except np.linalg.LinAlgError as exc:
        raise GeometryError("resample transform is singular") from exc

    nx, ny, nz = dims = tuple(int(n) for n in dims)
    ax, ay, az = ((np.arange(n, dtype=float) - (n - 1) / 2.0) * s for n, s in zip(dims, spacing))
    # (x + y) + z per component, summed in the same order whatever the slab
    xy = [np.add.outer(Tinv[d, 1] * ay, Tinv[d, 0] * ax) for d in range(3)]
    z = [Tinv[d, 2] * az + Tinv[d, 3] for d in range(3)]
    planes = max(1, _CHUNK // (nx * ny))
    z0s = range(0, nz, planes)

    def slab(i):
        z0 = z0s[i]
        n = min(planes, nz - z0)
        pts = np.empty((3, n, ny, nx))
        for d in range(3):
            np.add.outer(z[d][z0 : z0 + n], xy[d], out=pts[d])
        return pts.reshape(3, -1)

    out = _sample(vol, nx * ny * nz, [z0 * nx * ny for z0 in z0s], slab)
    return Volume(values=out.reshape(nz, ny, nx).T, spacing=spacing)


# ---------------------------------------------------------------------------
# intensity pipeline: jitter -> clip -> rescale -> window


def intensity_jitter(hu, factor: float):
    """Multiplicative calibration jitter: ``(hu + 1000) * factor - 1000``."""
    if not 0.95 <= factor <= 1.05:
        raise ValueError(f"jitter factor {factor} outside [0.95, 1.05]")
    return (np.asarray(hu) + 1000.0) * factor - 1000.0


def clip_rescale(hu):
    """Clamp to :data:`WINDOW`'s clip range and map it affinely onto [0, 1]."""
    x = np.clip(hu, WINDOW.clip_lo, WINDOW.clip_hi)
    return (x - WINDOW.clip_lo) / (WINDOW.clip_hi - WINDOW.clip_lo)


def window(x):
    """Logistic windowing ``1 / (1 + exp(gain * (0.5 - x)))`` with :data:`WINDOW`'s gain."""
    x = np.asarray(x)
    return 1.0 / (1.0 + np.exp(WINDOW.gain * (0.5 - x)))


def intensity_pipeline(hu, jitter_factor: float = 1.0):
    """Full HU-to-network-input mapping, returning values in (0, 1)."""
    return window(clip_rescale(intensity_jitter(hu, jitter_factor)))


# ---------------------------------------------------------------------------
# MPR slice extraction


def extract_mpr_slice(vol: Volume, plane: PlaneFrame, size=(256, 256), px_spacing: float = 1.0) -> np.ndarray:
    """Render a plane as an 8-bit grayscale image.

    Pixel ``(i, j)`` samples the volume at
    ``A + (i - (w-1)/2) * px * e_u + (j - (h-1)/2) * px * e_v`` with ``j``
    increasing upward; the returned array is in display order (row 0 on top).
    The points are built one component at a time into a ``(3, h, w)`` array
    and sampled through its component-major view.  Intensities go through
    :data:`WINDOW`'s clip/rescale plus windowing before quantization.
    ``size`` is one side length or ``(w, h)`` in pixels, each a positive
    integer, and ``px_spacing`` is finite and positive.
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
    img = window(clip_rescale(hu))
    img8 = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    return img8[::-1, :]  # row 0 = top of the image


# ---------------------------------------------------------------------------
# file formats


def write_volume(path_base, vol: Volume) -> None:
    """Write ``<base>.vhdr`` (text header) and ``<base>.vraw`` (int16le).

    Samples are rounded half to even and clipped to ``[HU_MIN, HU_MAX]``: an
    int16 volume is clipped with integer bounds in int16, any other dtype is
    rounded and clipped in float64.  The clip writes one contiguous
    x-fastest array, which goes to the file in one write, so the bytes equal
    rounding and clipping every dtype in float64 without a float64 copy of
    an int16 volume.
    """
    base = os.fspath(path_base)
    nx, ny, nz = vol.dims
    header = (
        f"dims: {nx} {ny} {nz}\n"
        f"spacing_mm: {vol.spacing[0]:.17g} {vol.spacing[1]:.17g} {vol.spacing[2]:.17g}\n"
        "dtype: int16le\n"
    )
    with open(base + ".vhdr", "w", encoding="ascii") as fh:
        fh.write(header)
    values = vol.values
    if values.dtype == np.int16:
        lo, hi = int(HU_MIN), int(HU_MAX)
    else:
        values, lo, hi = np.rint(np.asarray(values, dtype=np.float64)), HU_MIN, HU_MAX
    # file layout is x-fastest, then y, then z
    raw = np.empty((nz, ny, nx), dtype="<i2")
    np.clip(values.transpose(2, 1, 0), lo, hi, out=raw, casting="unsafe")
    raw.tofile(base + ".vraw")


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
