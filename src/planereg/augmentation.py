"""Random spatial/intensity augmentation producing network-ready samples.

One augmentation draws a mirror flag, three per-axis rotation angles, a
uniform scale, and a translation from the ranges of an experiment config
(:class:`planereg.harness.ExperimentConfig`, which checks them), composes
them into a single homogeneous matrix (mirror, then rotate, then scale, then
translate), and resamples the volume exactly once through the composite
onto the config's output grid.  The jittered HU values then go through the
one fixed display window, ``volume.WINDOW``, as the test-time input of
:func:`center_input` does.  Plane labels ride along through the
same matrix, so an augmented sample stays self-consistent: decoding its
target vector and mapping it back through the inverse transform recovers the
original annotation.

Randomness comes from :func:`planereg.config.generator`: a sample's key (in
training, ``(Stream.AUGMENT, epoch, index)``) plus a last part of 0, 1 or 2
picks its spatial, intensity and mirror streams, so every sample's draws
depend only on the config seed and that key, never on scheduling.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import generator
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

if TYPE_CHECKING:  # harness imports this module
    from .harness import ExperimentConfig

_out_of_cube = 0
_OUT_OF_CUBE_LOCK = threading.Lock()  # samples may be augmented on several threads at once


def out_of_cube_count() -> int:
    """Augmented samples whose plane center left the normalized cube, since the process started."""
    return _out_of_cube


def sample_augmentation(cfg: ExperimentConfig, key: tuple[int, ...]):
    """Draw one augmentation from ``cfg``'s ranges: composite transform, mirror flag, HU factor.

    The spatial, intensity and mirror draws come from ``generator(cfg.seed,
    *key, i)`` with ``i`` 0, 1 and 2.  The transform applies mirror,
    rotation (per-axis angles, composed Z-Y-X), uniform scale, and
    translation, in that fixed order.  All streams are consumed on every call
    so draw alignment never depends on the config.
    """
    spatial, intensity, mirror = (generator(cfg.seed, *key, stream) for stream in range(3))
    mirrored = bool(mirror.random() < cfg.mirror_prob)
    r = np.radians(cfg.rot_deg)
    rx, ry, rz = spatial.uniform(-r, r, size=3)
    s = float(spatial.uniform(cfg.scale_lo, cfg.scale_hi))
    t = spatial.uniform(-cfg.trans_mm, cfg.trans_mm, size=3)
    factor = float(intensity.uniform(cfg.intensity_lo, cfg.intensity_hi))

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


def augment_sample(vol: Volume, planes, cfg: ExperimentConfig, key: tuple[int, ...]) -> AugmentedSample:
    """Produce an augmented input tensor plus consistently moved labels.

    The draws are :func:`sample_augmentation`'s under ``key``.  The volume
    is interpolated exactly once (through the composite transform) onto
    ``cfg``'s output grid; the intensity pipeline then maps HU to (0, 1), and
    the targets use ``cfg``'s rotation encoding.  A sample whose transformed
    plane center leaves the normalized cube is kept but flagged and counted.
    """
    global _out_of_cube
    T, mirrored, factor = sample_augmentation(cfg, key)
    resampled = resample(vol, T, cfg.out_dims, cfg.out_spacing)
    # resample returns a transposed view; the network takes C order, so convert once here
    image = intensity_pipeline(resampled.values, factor).astype(np.float32, order="C")
    moved = [transform_plane(T, p) for p in planes]
    target = encode_plane_targets(moved, cfg.representation, cfg.extent_mm)

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
