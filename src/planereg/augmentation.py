"""Random spatial/intensity augmentation producing network-ready samples.

One augmentation draws a mirror flag, three per-axis rotation angles, a
uniform scale, and a translation, composes them into a single homogeneous
matrix (mirror, then rotate, then scale, then translate), and resamples the
volume exactly once through the composite.  The jittered HU values then go
through the one fixed display window, ``volume.WINDOW``, as the test-time
input of :func:`center_input` does.  Plane labels ride along through the
same matrix, so an augmented sample stays self-consistent: decoding its
target vector and mapping it back through the inverse transform recovers the
original annotation.

Randomness comes from :class:`SeededRng`, which derives independent named
substreams (spatial, intensity, mirror) from a 64-bit seed, plus arbitrary
sub-keys so per-sample generators are reproducible regardless of scheduling.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .geometry import (
    PlaneFrame,
    RotationKind,
    compose_transforms,
    decode_rotation,
    denormalize_translation,
    encode_rotation,
    frame_to_rotation,
    identity_transform,
    mirror_x_transform,
    normalize_translation,
    rotation_from_euler_zyx,
    rotation_to_frame,
    rotation_transform,
    scale_transform,
    transform_plane,
    translation_transform,
)
from .volume import Volume, intensity_pipeline, resample

_STREAM_IDS = {"spatial": 0, "intensity": 1, "mirror": 2}

_out_of_cube = 0
_OUT_OF_CUBE_LOCK = threading.Lock()  # samples may be augmented on several threads at once


def out_of_cube_count() -> int:
    """Augmented samples whose plane center left the normalized cube, since the process started."""
    return _out_of_cube


class SeededRng:
    """Named, independently seeded random substreams.

    The same (seed, key) pair always yields the same draw sequence per
    stream; :meth:`derive` appends key parts (say epoch and sample index) so
    parallel workers stay reproducible.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            if name not in _STREAM_IDS:
                raise KeyError(f"unknown rng stream {name!r}")
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key + (_STREAM_IDS[name],))
            self._streams[name] = np.random.Generator(np.random.PCG64(ss))
        return self._streams[name]

    @property
    def spatial(self) -> np.random.Generator:
        return self.stream("spatial")

    @property
    def intensity(self) -> np.random.Generator:
        return self.stream("intensity")

    @property
    def mirror(self) -> np.random.Generator:
        return self.stream("mirror")

    def derive(self, *key_parts: int) -> "SeededRng":
        return SeededRng(self.seed, self.key + tuple(int(k) for k in key_parts))


@dataclass(frozen=True)
class AugmentConfig:
    """Augmentation ranges and the output grid fed to the network (see ``ExperimentConfig.augment_config``)."""

    rot_deg: float
    scale_range: tuple[float, float]
    trans_mm: float
    mirror_prob: float
    out_dims: int
    out_spacing: float
    intensity_range: tuple[float, float]

    def __post_init__(self):
        for key in ("rot_deg", "trans_mm"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be non-negative, got {getattr(self, key)}")
        lo, hi = self.scale_range
        if not (0.9 <= lo <= hi <= 1.1):
            raise ValueError(f"scale_range must be ordered and lie within [0.9, 1.1], got ({lo}, {hi})")
        ilo, ihi = self.intensity_range
        if not (0.95 <= ilo <= ihi <= 1.05):
            raise ValueError(f"intensity_range must be ordered and lie within [0.95, 1.05], got ({ilo}, {ihi})")
        if not 0.0 <= self.mirror_prob <= 1.0:
            raise ValueError(f"mirror_prob must be a probability, got {self.mirror_prob}")
        if self.out_dims < 2:
            raise ValueError(f"out_dims must be at least 2, got {self.out_dims}")
        if self.out_spacing <= 0:
            raise ValueError(f"out_spacing must be positive, got {self.out_spacing}")

    @property
    def extent_mm(self) -> float:
        """Edge length of the output grid; the unit for normalized centers."""
        return self.out_dims * self.out_spacing


def sample_augmentation(cfg: AugmentConfig, rng: SeededRng):
    """Draw one augmentation: composite transform, mirror flag, HU factor.

    The transform applies mirror, rotation (per-axis angles, composed Z-Y-X),
    uniform scale, and translation, in that fixed order.  All streams are
    consumed on every call so draw alignment never depends on the config.
    """
    mirrored = bool(rng.mirror.random() < cfg.mirror_prob)
    r = np.radians(cfg.rot_deg)
    rx, ry, rz = rng.spatial.uniform(-r, r, size=3)
    s = float(rng.spatial.uniform(cfg.scale_range[0], cfg.scale_range[1]))
    t = rng.spatial.uniform(-cfg.trans_mm, cfg.trans_mm, size=3)
    factor = float(rng.intensity.uniform(cfg.intensity_range[0], cfg.intensity_range[1]))

    steps = [mirror_x_transform()] if mirrored else []
    steps += [
        rotation_transform(rotation_from_euler_zyx(rz, ry, rx)),
        scale_transform(s),
        translation_transform(t),
    ]
    return compose_transforms(steps), mirrored, factor


def encode_plane_targets(planes, kind: RotationKind, extent_mm: float) -> np.ndarray:
    """Regression target: per plane, normalized center plus rotation encoding."""
    kind = RotationKind(kind)
    parts = []
    for p in planes:
        parts.append(normalize_translation(p.A, extent_mm))
        parts.append(encode_rotation(frame_to_rotation(p), kind))
    return np.concatenate(parts)


def decode_plane_vector(vec: np.ndarray, kind: RotationKind, extent_mm: float) -> list[PlaneFrame]:
    """Inverse of :func:`encode_plane_targets` for raw prediction vectors."""
    kind = RotationKind(kind)
    vec = np.asarray(vec, dtype=float)
    per = 3 + kind.length
    if vec.ndim != 1 or vec.size % per:
        raise ValueError(f"vector of length {vec.size} does not split into {per}-value planes")
    frames = []
    for o in range(0, vec.size, per):
        A = denormalize_translation(vec[o : o + 3], extent_mm)
        R = decode_rotation(vec[o + 3 : o + per], kind)
        frames.append(rotation_to_frame(R, A))
    return frames


@dataclass(frozen=True)
class AugmentedSample:
    """One network-ready training sample with its transported labels."""

    image: np.ndarray
    planes: list[PlaneFrame]
    target: np.ndarray
    transform: np.ndarray
    mirrored: bool
    intensity_factor: float
    center_out_of_bounds: bool


def augment_sample(
    vol: Volume,
    planes,
    cfg: AugmentConfig,
    rng: SeededRng,
    kind: RotationKind = RotationKind.SIXD,
) -> AugmentedSample:
    """Produce an augmented input tensor plus consistently moved labels.

    The volume is interpolated exactly once (through the composite
    transform); the intensity pipeline then maps HU to (0, 1).  A sample
    whose transformed plane center leaves the normalized cube is kept but
    flagged and counted.
    """
    global _out_of_cube
    T, mirrored, factor = sample_augmentation(cfg, rng)
    resampled = resample(vol, T, cfg.out_dims, cfg.out_spacing)
    # resample returns a transposed view; the network takes C order, so convert once here
    image = intensity_pipeline(resampled.values, factor).astype(np.float32, order="C")
    moved = [transform_plane(T, p) for p in planes]
    target = encode_plane_targets(moved, kind, cfg.extent_mm)

    out = any(np.any(np.abs(normalize_translation(p.A, cfg.extent_mm)) > 0.5) for p in moved)
    with _OUT_OF_CUBE_LOCK:
        _out_of_cube += int(out)
    return AugmentedSample(
        image=image,
        planes=moved,
        target=target,
        transform=T,
        mirrored=mirrored,
        intensity_factor=factor,
        center_out_of_bounds=out,
    )


def center_input(vol: Volume, out_dims: int, out_spacing: float) -> np.ndarray:
    """Deterministic test-time input: center resample plus intensity pipeline."""
    resampled = resample(vol, identity_transform(), out_dims, out_spacing)
    return intensity_pipeline(resampled.values, 1.0).astype(np.float32, order="C")
