"""Regression of anatomically aligned standard MPR planes from 3D volumes.

The package is organized around the processing pipeline: ``geometry`` (plane
frames, rotation encodings, homogeneous transforms), ``volume`` (voxel grids,
resampling, HU windowing, slice extraction), ``phantom`` (synthetic labeled
data), ``augmentation`` (composite-transform sample generation), ``engine``
and ``model`` (autodiff and the 3D regression CNN), ``loss_metrics`` (the
combined loss and the evaluation score), ``harness`` (training,
cross-validation, ablations), and ``cli``.
"""

from .augmentation import AugmentedSample, SeededRng, augment_sample, center_input
from .geometry import (
    PlaneFrame,
    RotationKind,
    compose_transforms,
    decode_rotation,
    encode_rotation,
    frame_to_rotation,
    rotation_to_frame,
    transform_plane,
)
from .harness import ExperimentConfig, cross_validate, evaluate, split_kfold_grouped, train
from .loss_metrics import LossWeights, PlaneErrors, aggregate_errors, plane_errors, score
from .model import NetworkConfig, PlaneRegressionNet, load_checkpoint, save_checkpoint
from .phantom import PhantomSpec, generate_dataset, generate_phantom
from .volume import Volume, WindowConfig, extract_mpr_slice, resample, trilinear_sample, window

__version__ = "0.1.0"

__all__ = [
    "AugmentedSample",
    "ExperimentConfig",
    "LossWeights",
    "NetworkConfig",
    "PhantomSpec",
    "PlaneErrors",
    "PlaneFrame",
    "PlaneRegressionNet",
    "RotationKind",
    "SeededRng",
    "Volume",
    "WindowConfig",
    "augment_sample",
    "aggregate_errors",
    "center_input",
    "compose_transforms",
    "cross_validate",
    "decode_rotation",
    "encode_rotation",
    "evaluate",
    "extract_mpr_slice",
    "frame_to_rotation",
    "generate_dataset",
    "generate_phantom",
    "load_checkpoint",
    "plane_errors",
    "resample",
    "rotation_to_frame",
    "save_checkpoint",
    "score",
    "split_kfold_grouped",
    "train",
    "trilinear_sample",
    "transform_plane",
    "window",
]
