"""Procedural bone-like phantoms with exactly known standard planes.

Each phantom is an asymmetric rigid body rendered into a voxel grid: an
ellipsoidal shaft along the canonical z axis, two unequal condyle spheres on
the +-x axis at the distal end (breaking left/right symmetry, so mirrored
volumes are genuinely different anatomy), and a flat plate on the -y side of
the shaft that pins the roll about the shaft axis.  Bone renders at 700 HU
inside a 40 HU soft-tissue shell over -1000 HU air; optional implant or
lying-on-top instrument cylinders render at 3000 HU, far beyond the clip
window, so windowing saturates them.

Ground-truth planes in the canonical frame, all through the shaft center:

* axial: perpendicular to the shaft axis,
* sagittal: spanned by the shaft and condyle axes,
* coronal: orthogonal to both, or, with a positive tilt angle, the
  semi-coronal plane rotated about its in-plane right axis so that it is
  deliberately not orthogonal to the axial plane.

The whole scene is posed by a rigid placement and the annotations are
transported through the same transform, so labels stay exact by
construction.

Rendering classifies only the voxels of a conservative box around the posed
anatomy and its metal, in blocks of at most 2^16 points, and writes int16
straight into the grid; every other voxel is air.  Each block's canonical
points are held component-major, as contiguous x, y and z rows; the bone and
tissue-hull masks share their squares and condyle distances, and a metal
segment is measured only in the blocks that meet its capsule's box.  Time
and memory therefore follow the box and one block, not float64 grids over
every voxel, and each voxel gets the same arithmetic, so the same bytes, as
a point-major render of the whole grid at once.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .config import Stream, generator
from .geometry import (
    PlaneFrame,
    assert_rigid_transform,
    compose_transforms,
    rotation_about_axis,
    rotation_from_euler_zyx,
    rotation_transform,
    transform_plane,
    translation_transform,
    write_plane_file,
)
from .volume import Volume, write_volume

HU_AIR = -1000.0
HU_TISSUE = 40.0
HU_BONE = 700.0
HU_METAL = 3000.0
TISSUE_MARGIN_MM = 6.0

# rendering: points per block, and the box's growth beyond the posed corners
_SLAB_POINTS = 1 << 16
_BOX_MARGIN_VOXELS = 2
# (low, high) choice per axis for the 8 corners of a box
_CORNER_BITS = np.array(list(itertools.product((False, True), repeat=3)))

ORIGIN_CLASSES = ("metal", "metal_outside", "no_metal")
PLANE_NAMES = {"ankle": ("axial", "sagittal", "coronal"), "calcaneus": ("axial", "sagittal", "semicoronal")}


class PhantomGenerationError(RuntimeError):
    """The requested phantom cannot be rendered into the given grid."""


@dataclass(frozen=True)
class PhantomSpec:
    """Anatomy parameters plus rigid placement of one phantom volume."""

    patient_id: int
    pose: np.ndarray
    shaft_length_mm: float = 80.0
    shaft_radius_mm: float = 13.0
    condyle_radius_a_mm: float = 15.0
    condyle_radius_b_mm: float = 9.0
    plate_thickness_mm: float = 4.0
    tilt_deg: float = 0.0
    metal: bool = False
    metal_outside: bool = False
    truncation: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "pose", assert_rigid_transform(self.pose))
        for name in (
            "shaft_length_mm",
            "shaft_radius_mm",
            "condyle_radius_a_mm",
            "condyle_radius_b_mm",
            "plate_thickness_mm",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.tilt_deg <= 45.0:
            raise ValueError("tilt_deg must lie in [0, 45]")
        if not 0.0 < self.truncation <= 1.0:
            raise ValueError("truncation is the retained fraction in (0, 1]")


def canonical_planes(spec: PhantomSpec) -> dict[str, PlaneFrame]:
    """Ground-truth planes in the canonical (unposed) frame."""
    ex, ey, ez = np.eye(3)
    planes = {
        "axial": PlaneFrame(A=np.zeros(3), e_u=ex, e_v=ey),
        "sagittal": PlaneFrame(A=np.zeros(3), e_u=ex, e_v=ez),
    }
    if spec.tilt_deg > 0.0:
        R = rotation_about_axis(ey, -np.radians(spec.tilt_deg))
        planes["semicoronal"] = PlaneFrame(A=np.zeros(3), e_u=ey, e_v=R @ ez)
    else:
        planes["coronal"] = PlaneFrame(A=np.zeros(3), e_u=ey, e_v=ez)
    return planes


def _condyle_centers(spec: PhantomSpec) -> tuple[np.ndarray, np.ndarray]:
    sep = 0.6 * (spec.condyle_radius_a_mm + spec.condyle_radius_b_mm)
    z = spec.shaft_length_mm / 2.0
    return np.array([sep, 0.0, z]), np.array([-sep, 0.0, z])


def _segment_distance(comps: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point to the segment ``a``-``b``; ``comps`` holds
    the points as a contiguous ``(3, m)`` array of x, y and z rows.

    The projection is the matvec ``(points - a) @ ab`` on a C-ordered
    ``(m, 3)`` array, so BLAS rounds it as it would for ``(m, 3)`` points;
    the residual ``p - (a + t * ab)`` and its length are taken per component.
    """
    ab = b - a
    denom = float(ab @ ab)
    if denom > 0:
        diff = np.empty(comps.shape[::-1])
        np.subtract(comps, a[:, None], out=diff.T)
        t = np.clip(diff @ ab / denom, 0.0, 1.0)
    else:
        t = np.zeros(comps.shape[1])
    rx, ry, rz = (p - (a[d] + t * ab[d]) for d, p in enumerate(comps))
    return np.sqrt((rx * rx + ry * ry) + rz * rz)


def _plate_bounds(spec: PhantomSpec, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Canonical low and high corners of the plate, grown by ``margin``."""
    # the plate sits off-center along +x, a gross chirality landmark on top of
    # the unequal condyles, so mirrored volumes are unmistakably different
    L, r = spec.shaft_length_mm, spec.shaft_radius_mm
    pw = 2.5 * r + margin
    lo = np.array([-0.3 * pw, -(r + spec.plate_thickness_mm + margin), -0.45 * L - margin])
    hi = np.array([0.9 * pw, -r + 1.0 + margin, margin])
    return lo, hi


def _body_masks(spec: PhantomSpec, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bone mask and tissue-hull mask (the body grown by ``TISSUE_MARGIN_MM``)
    of the canonical body at points ``comps``, a contiguous ``(3, m)`` array
    of x, y and z rows.

    The two masks share the squares and the two condyle distances.  Each
    value is the arithmetic of the ``(m, 3)`` formulation with ``** 2`` and
    ``norm(axis=1)``: a square is ``x * x`` and a distance
    ``sqrt((dx² + dy²) + dz²)``, the order of ``norm``'s length-3 reduce, so
    the masks are the same bits.
    """
    L, R = spec.shaft_length_mm, spec.shaft_radius_mm
    x, y, z = comps
    yy, zz = y * y, z * z
    rho2 = x * x + yy
    # both condyle centers sit at y = 0 and the same z: dy² is y², and dz² is shared
    ca, cb = _condyle_centers(spec)
    dz = z - ca[2]
    dzz = dz * dz
    dist_a, dist_b = (np.sqrt((dx * dx + yy) + dzz) for dx in (x - ca[0], x - cb[0]))
    masks = []
    for margin in (0.0, TISSUE_MARGIN_MM):
        mask = rho2 / (R + margin) ** 2 + zz / (L / 2.0 + margin) ** 2 <= 1.0
        mask |= dist_a <= spec.condyle_radius_a_mm + margin
        mask |= dist_b <= spec.condyle_radius_b_mm + margin
        lo, hi = _plate_bounds(spec, margin)
        mask |= (x >= lo[0]) & (x <= hi[0]) & (y >= lo[1]) & (y <= hi[1]) & (z >= lo[2]) & (z <= hi[2])
        masks.append(mask)
    return masks[0], masks[1]


def _metal_segments(spec: PhantomSpec, rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray, float]]:
    segments = []
    L, r = spec.shaft_length_mm, spec.shaft_radius_mm
    if spec.metal:
        for _ in range(int(rng.integers(2, 7))):
            rho = rng.uniform(0.0, r)
            phi = rng.uniform(0.0, 2 * np.pi)
            p0 = np.array([rho * np.cos(phi), rho * np.sin(phi), rng.uniform(-0.4 * L, 0.5 * L)])
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            p1 = p0 + direction * rng.uniform(25.0, 70.0)
            segments.append((p0, p1, float(rng.uniform(1.5, 3.0))))
    if spec.metal_outside:
        for _ in range(int(rng.integers(2, 5))):
            y = r + TISSUE_MARGIN_MM + rng.uniform(10.0, 25.0)
            x = rng.uniform(-0.5 * r, 0.5 * r)
            direction = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1), 1.0])
            direction /= np.linalg.norm(direction)
            mid = np.array([x, y, rng.uniform(-0.2 * L, 0.2 * L)])
            half = direction * rng.uniform(30.0, 60.0)
            segments.append((mid - half, mid + half, float(rng.uniform(2.0, 4.0))))
    return segments


def _voxel_box(spec: PhantomSpec, segments, dims, spacing):
    """Voxel index bounds ``(start, stop)`` of a box that holds the posed
    tissue hull and every metal capsule, or ``None`` when it misses the grid;
    and the bounds of each segment's capsule alone, as a list of
    ``(start, stop)`` in the order of ``segments``.

    The hull's parts (shaft ellipsoid, condyle spheres, plate), grown by the
    tissue margin, and each segment's capsule are boxed in the canonical
    frame; the 8 corners of each box are posed, and the posed corners' bounds
    in voxel units are grown by ``_BOX_MARGIN_VOXELS`` and clipped to the
    grid.  Every voxel outside the box is air before truncation, and every
    voxel outside a capsule's bounds is out of that capsule's reach.
    """
    m = TISSUE_MARGIN_MM
    r, half = spec.shaft_radius_mm + m, spec.shaft_length_mm / 2.0 + m
    boxes = [(np.array([-r, -r, -half]), np.array([r, r, half])), _plate_bounds(spec, m)]
    for center, radius in zip(_condyle_centers(spec), (spec.condyle_radius_a_mm, spec.condyle_radius_b_mm)):
        boxes.append((center - (radius + m), center + (radius + m)))
    for p0, p1, radius in segments:
        boxes.append((np.minimum(p0, p1) - radius, np.maximum(p0, p1) + radius))
    lo, hi = (np.array(side)[:, None, :] for side in zip(*boxes))
    corners = np.where(_CORNER_BITS, hi, lo).reshape(-1, 3)
    world = corners @ spec.pose[:3, :3].T + spec.pose[:3, 3]
    index = (world / spacing + (np.array(dims) - 1) / 2.0).reshape(len(boxes), 8, 3)
    starts = np.maximum(np.floor(index.min(axis=1)) - _BOX_MARGIN_VOXELS, 0)
    stops = np.minimum(np.ceil(index.max(axis=1)) + _BOX_MARGIN_VOXELS, np.array(dims) - 1) + 1
    start, stop = starts.min(axis=0), stops.max(axis=0)
    # NaN, from a non-finite pose, fails this comparison too
    if not np.all(start < stop):
        return None
    n_hull = len(boxes) - len(segments)
    capsules = list(zip(starts[n_hull:].astype(int), stops[n_hull:].astype(int)))
    return start.astype(int), stop.astype(int), capsules


def generate_phantom(spec: PhantomSpec, dims, spacing, rng: np.random.Generator):
    """Render one phantom volume plus its three posed plane annotations.

    ``dims`` and ``spacing`` are one value for all three axes or three
    values: integers of at least 2, and finite positive millimetres.
    Returns ``(Volume, dict name -> PlaneFrame)``.  Raises
    :class:`PhantomGenerationError` when the posed anatomy misses the grid
    entirely.  For a fixed spec and generator state the output is bitwise
    reproducible.

    Only a conservative box around the posed anatomy and metal is rendered
    (see :func:`_voxel_box`); the rest of the grid stays air.  The box is
    rendered in blocks of at most ``_SLAB_POINTS`` voxels, whole x-slabs
    unless one x-plane of the box is larger, and each block's int16 values
    are written straight into the output grid.  A block's canonical points
    are posed once into a contiguous ``(3, m)`` array; one call of
    :func:`_body_masks` gives both masks from shared squares and condyle
    distances, and :func:`_segment_distance` reads the same rows, in the
    blocks that meet the segment's capsule bounds from :func:`_voxel_box`
    (no voxel outside them is within the segment's radius).  Each
    voxel is classified by the same arithmetic as a render of the whole grid
    at once on ``(m, 3)`` points with ``norm(axis=1)``, so the bytes equal
    that render's, while time and memory follow the box and the block size
    rather than the grid.
    """
    dims = (dims,) * 3 if np.isscalar(dims) else tuple(dims)
    spacing = (spacing,) * 3 if np.isscalar(spacing) else tuple(spacing)
    # booleans are ints, and `>= 2` rejects them
    if len(dims) != 3 or not all(isinstance(d, (int, np.integer)) and d >= 2 for d in dims):
        raise ValueError(f"dims must be integers of at least 2, got {dims}")
    if len(spacing) != 3 or not all(0.0 < s < np.inf for s in spacing):
        raise ValueError(f"spacing must be finite and positive, got {spacing}")
    dims = tuple(int(d) for d in dims)
    spacing = tuple(float(s) for s in spacing)

    segments = _metal_segments(spec, rng)
    box = _voxel_box(spec, segments, dims, spacing)
    if box is None:
        raise PhantomGenerationError("posed anatomy lies entirely outside the volume")
    start, stop, capsules = box

    axes = [(np.arange(n) - (n - 1) / 2.0) * s for n, s in zip(dims, spacing)]
    inv = np.linalg.inv(spec.pose)
    hu = np.full(dims, HU_AIR, dtype=np.int16)
    # block edges: all of the box along z and y when a plane fits, then as many x-planes as fit
    nx, ny, nz = stop - start
    bz = min(nz, _SLAB_POINTS)
    by = min(ny, max(1, _SLAB_POINTS // bz))
    bx = min(nx, max(1, _SLAB_POINTS // (by * bz)))
    any_bone = False
    for corner in itertools.product(*(range(a, b, step) for a, b, step in zip(start, stop, (bx, by, bz)))):
        block = tuple(slice(a, min(a + step, b)) for a, b, step in zip(corner, stop, (bx, by, bz)))
        out = hu[block]
        world = np.empty(out.shape + (3,))
        for d, grid in enumerate(np.meshgrid(*(ax[sl] for ax, sl in zip(axes, block)), indexing="ij", sparse=True)):
            world[..., d] = grid
        # the canonical points, `world @ inv[:3, :3].T + inv[:3, 3]`, as x, y and z rows
        comps = np.empty((3, out.size))
        np.add((world.reshape(-1, 3) @ inv[:3, :3].T).T, inv[:3, 3, None], out=comps)

        bone, tissue = _body_masks(spec, comps)
        any_bone = any_bone or bool(bone.any())
        out[tissue.reshape(out.shape)] = HU_TISSUE
        out[bone.reshape(out.shape)] = HU_BONE
        for (p0, p1, radius), (c_start, c_stop) in zip(segments, capsules):
            if all(sl.start < hi and lo < sl.stop for sl, lo, hi in zip(block, c_start, c_stop)):
                out[(_segment_distance(comps, p0, p1) <= radius).reshape(out.shape)] = HU_METAL
    if not any_bone:
        raise PhantomGenerationError("posed anatomy lies entirely outside the volume")

    if spec.truncation < 1.0:
        keep = np.abs(axes[2]) <= spec.truncation * dims[2] * spacing[2] / 2.0
        hu[:, :, ~keep] = -1024

    vol = Volume(values=hu, spacing=spacing)
    planes = {name: transform_plane(spec.pose, frame) for name, frame in canonical_planes(spec).items()}
    return vol, planes


# ---------------------------------------------------------------------------
# dataset generation
#
# Manifest format: one line per volume, `path patient_id class mode`, where
# `path` is the file stem relative to the manifest; `<stem>.vhdr/.vraw` hold
# the volume and `<stem>.planes` the annotations.


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    patient_id: int
    origin_class: str
    mode: str

    def __post_init__(self):
        if self.origin_class not in ORIGIN_CLASSES:
            raise ValueError(f"unknown origin class {self.origin_class!r}")
        if self.mode not in PLANE_NAMES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {sorted(PLANE_NAMES)}")


def write_manifest(path, entries: list[ManifestEntry]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for e in entries:
            fh.write(f"{e.path} {e.patient_id} {e.origin_class} {e.mode}\n")


def read_manifest(path) -> list[ManifestEntry]:
    """Entries of a manifest file; a malformed line or a volume path listed
    twice raises ``ValueError`` naming the file and line."""
    entries = []
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected `path patient_id class mode`")
            try:
                entry = ManifestEntry(parts[0], int(parts[1]), parts[2], parts[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if entry.path in first_line:
                raise ValueError(f"{path}:{lineno}: volume {entry.path!r} is already listed on line {first_line[entry.path]}")
            first_line[entry.path] = lineno
            entries.append(entry)
    return entries


def _draw_patient_params(mode: str, rng: np.random.Generator) -> dict:
    return {
        "shaft_length_mm": rng.uniform(65.0, 90.0),
        "shaft_radius_mm": rng.uniform(10.0, 15.0),
        "condyle_radius_a_mm": rng.uniform(13.0, 17.0),
        "condyle_radius_b_mm": rng.uniform(6.0, 9.0),
        "plate_thickness_mm": rng.uniform(3.0, 5.0),
        "tilt_deg": rng.uniform(15.0, 35.0) if mode == "calcaneus" else 0.0,
    }


def _draw_pose(rng: np.random.Generator, rot_deg: float, trans_mm: float) -> np.ndarray:
    r = np.radians(rot_deg)
    rx, ry, rz = rng.uniform(-r, r, size=3)
    t = rng.uniform(-trans_mm, trans_mm, size=3)
    return compose_transforms(
        [rotation_transform(rotation_from_euler_zyx(rz, ry, rx)), translation_transform(t)]
    )


def generate_dataset(
    out_dir,
    *,
    n_patients: int = 20,
    volumes_per_patient: int = 2,
    mode: str = "ankle",
    dims: int = 64,
    spacing: float = 2.5,
    metal_fraction: float = 0.5,
    trunc_lo: float = 1.0,
    trunc_hi: float = 1.0,
    pose_rot_deg: float = 45.0,
    pose_trans_mm: float = 15.0,
    seed: int = 0,
) -> list[ManifestEntry]:
    """Generate a phantom dataset and write `manifest.txt` into ``out_dir``.

    A ``metal_fraction`` share of the patients models the clinical case (all
    volumes carry implants, class ``metal``); every other patient models a
    cadaver scanned repeatedly, its volumes alternating between ``no_metal``
    and ``metal_outside`` (instruments laid on top).  Each volume keeps a
    central slab of its z extent, the retained fraction drawn uniformly from
    ``[trunc_lo, trunc_hi]`` (1.0 keeps the whole volume); the cut-off part
    reads -1024 HU.  Re-running with the same arguments reproduces every file
    bit for bit.  The keyword parameters are the ``phantom-gen`` config keys,
    and their defaults are that command's defaults.
    """
    if mode not in PLANE_NAMES:
        raise ValueError(f"mode must be one of {sorted(PLANE_NAMES)}")
    if n_patients < 1 or volumes_per_patient < 1:
        raise ValueError("need at least one patient and one volume per patient")
    if not 0.0 < trunc_lo <= trunc_hi <= 1.0:
        raise ValueError(f"need 0 < trunc_lo <= trunc_hi <= 1, got trunc_lo={trunc_lo}, trunc_hi={trunc_hi}")
    if not 0.0 <= metal_fraction <= 1.0:
        raise ValueError(f"metal_fraction must lie in [0, 1], got {metal_fraction}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if dims < 2:  # a Volume needs 2 voxels per axis
        raise ValueError(f"dims must be at least 2, got {dims}")
    if not 0.0 < spacing < np.inf:
        raise ValueError(f"spacing must be finite and positive, got {spacing}")
    # each pose offset is drawn from [-value, value], whose width must be finite
    for key, value in (("pose_rot_deg", pose_rot_deg), ("pose_trans_mm", pose_trans_mm)):
        if not (0.0 <= value and 2.0 * value < np.inf):
            raise ValueError(f"{key} must be non-negative and at most {np.finfo(float).max / 2:.6g}, got {value}")
    os.makedirs(out_dir, exist_ok=True)

    n_metal_patients = int(round(metal_fraction * n_patients))
    entries: list[ManifestEntry] = []
    for pid in range(n_patients):
        params = _draw_patient_params(mode, generator(seed, Stream.PATIENT, pid))
        clinical = pid < n_metal_patients
        for vi in range(volumes_per_patient):
            vrng = generator(seed, Stream.VOLUME, pid, vi)
            if clinical:
                origin_class = "metal"
            else:
                origin_class = "no_metal" if vi % 2 == 0 else "metal_outside"
            spec = PhantomSpec(
                patient_id=pid,
                pose=_draw_pose(vrng, pose_rot_deg, pose_trans_mm),
                metal=origin_class == "metal",
                metal_outside=origin_class == "metal_outside",
                truncation=float(vrng.uniform(trunc_lo, trunc_hi)),
                **params,
            )
            vol, planes = generate_phantom(spec, dims, spacing, generator(seed, Stream.METAL, pid, vi))
            stem = f"vol_p{pid:03d}_v{vi}"
            write_volume(os.path.join(out_dir, stem), vol)
            write_plane_file(os.path.join(out_dir, stem + ".planes"), planes)
            entries.append(ManifestEntry(stem, pid, origin_class, mode))
    write_manifest(os.path.join(out_dir, "manifest.txt"), entries)
    return entries
