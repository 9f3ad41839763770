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
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

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

ORIGIN_CLASSES = ("metal", "metal_outside", "no_metal")
PLANE_NAMES = {"ankle": ("axial", "sagittal", "coronal"), "calcaneus": ("axial", "sagittal", "semicoronal")}

# seed-sequence stream tags
_PATIENT_STREAM = 101
_VOLUME_STREAM = 102
_METAL_STREAM = 103


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


def _segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    denom = float(ab @ ab)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0) if denom > 0 else np.zeros(len(points))
    return np.linalg.norm(points - (a + t[:, None] * ab), axis=1)


def _body_masks(spec: PhantomSpec, pts: np.ndarray, margin: float = 0.0):
    """Bone and tissue-hull masks of the canonical body at given points."""
    L, r = spec.shaft_length_mm, spec.shaft_radius_mm + margin
    half = L / 2.0 + margin
    shaft = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / r**2 + pts[:, 2] ** 2 / half**2 <= 1.0

    ca, cb = _condyle_centers(spec)
    cond_a = np.linalg.norm(pts - ca, axis=1) <= spec.condyle_radius_a_mm + margin
    cond_b = np.linalg.norm(pts - cb, axis=1) <= spec.condyle_radius_b_mm + margin

    # the plate sits off-center along +x, a gross chirality landmark on top of
    # the unequal condyles, so mirrored volumes are unmistakably different
    pw = 2.5 * spec.shaft_radius_mm + margin
    y0 = -(spec.shaft_radius_mm + spec.plate_thickness_mm + margin)
    plate = (
        (pts[:, 0] >= -0.3 * pw)
        & (pts[:, 0] <= 0.9 * pw)
        & (pts[:, 1] >= y0)
        & (pts[:, 1] <= -spec.shaft_radius_mm + 1.0 + margin)
        & (pts[:, 2] >= -0.45 * L - margin)
        & (pts[:, 2] <= margin)
    )
    return shaft | cond_a | cond_b | plate


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


def generate_phantom(spec: PhantomSpec, dims, spacing, rng: np.random.Generator):
    """Render one phantom volume plus its three posed plane annotations.

    Returns ``(Volume, dict name -> PlaneFrame)``.  Raises
    :class:`PhantomGenerationError` when the posed anatomy misses the grid
    entirely.  For a fixed spec and generator state the output is bitwise
    reproducible.
    """
    dims = (dims, dims, dims) if np.isscalar(dims) else tuple(int(d) for d in dims)
    spacing = (spacing, spacing, spacing) if np.isscalar(spacing) else tuple(float(s) for s in spacing)

    axes = [(np.arange(n) - (n - 1) / 2.0) * s for n, s in zip(dims, spacing)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    world = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)

    inv = np.linalg.inv(spec.pose)
    pts = world @ inv[:3, :3].T + inv[:3, 3]

    bone = _body_masks(spec, pts)
    if not np.any(bone):
        raise PhantomGenerationError("posed anatomy lies entirely outside the volume")
    tissue = _body_masks(spec, pts, margin=TISSUE_MARGIN_MM)

    hu = np.full(pts.shape[0], HU_AIR)
    hu[tissue] = HU_TISSUE
    hu[bone] = HU_BONE
    for p0, p1, radius in _metal_segments(spec, rng):
        hu[_segment_distance(pts, p0, p1) <= radius] = HU_METAL

    if spec.truncation < 1.0:
        keep = np.abs(world[:, 2]) <= spec.truncation * dims[2] * spacing[2] / 2.0
        hu[~keep] = -1024.0

    vol = Volume(values=hu.reshape(dims).astype(np.int16), spacing=spacing)
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


def write_manifest(path, entries: list[ManifestEntry]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for e in entries:
            fh.write(f"{e.path} {e.patient_id} {e.origin_class} {e.mode}\n")


def read_manifest(path) -> list[ManifestEntry]:
    entries = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected `path patient_id class mode`")
            entries.append(ManifestEntry(parts[0], int(parts[1]), parts[2], parts[3]))
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
    if dims < 2:  # a Volume needs 2 voxels per axis
        raise ValueError(f"dims must be at least 2, got {dims}")
    if not spacing > 0.0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    for key, value in (("pose_rot_deg", pose_rot_deg), ("pose_trans_mm", pose_trans_mm)):
        if not value >= 0.0:
            raise ValueError(f"{key} must be non-negative, got {value}")
    os.makedirs(out_dir, exist_ok=True)

    n_metal_patients = int(round(metal_fraction * n_patients))
    entries: list[ManifestEntry] = []
    for pid in range(n_patients):
        prng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(_PATIENT_STREAM, pid)))
        )
        params = _draw_patient_params(mode, prng)
        clinical = pid < n_metal_patients
        for vi in range(volumes_per_patient):
            vrng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(_VOLUME_STREAM, pid, vi)))
            )
            mrng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(_METAL_STREAM, pid, vi)))
            )
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
            vol, planes = generate_phantom(spec, dims, spacing, mrng)
            stem = f"vol_p{pid:03d}_v{vi}"
            write_volume(os.path.join(out_dir, stem), vol)
            write_plane_file(os.path.join(out_dir, stem + ".planes"), planes)
            entries.append(ManifestEntry(stem, pid, origin_class, mode))
    write_manifest(os.path.join(out_dir, "manifest.txt"), entries)
    return entries
