"""Training, evaluation, grouped cross-validation, and ablation drivers.

The cross-validation split is grouped and stratified: all volumes of one
patient land in the same fold, and the per-fold mix of origin classes tracks
the overall distribution as closely as the patient grouping allows.  Training
uses online augmentation (a fresh random augmentation of every sample each
epoch), SGD with classic momentum, and a stepwise learning-rate schedule; a
fixed master seed makes the final checkpoint bit-for-bit reproducible.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from ._kernels import _MIN_TASK, _map_tasks
from .augmentation import SeededRng, augment_sample, center_input, decode_plane_vector
from .config import ConfigError, Field, field_values, schema
from .geometry import SCALE_RANGE, DegenerateEncodingError, PlaneFrame, RotationKind, read_plane_file
from .loss_metrics import (
    LossWeights,
    PlaneErrors,
    ReportRow,
    WEIGHT_PRESETS,
    aggregate_errors,
    loss_graph,
    plane_errors,
    rows_to_csv,
)
from .model import NetworkConfig, PlaneRegressionNet, SGDMomentum, load_checkpoint, save_checkpoint, step_decay
from .phantom import PLANE_NAMES, ManifestEntry, read_manifest
from .volume import JITTER_RANGE, Volume, read_volume

logger = logging.getLogger(__name__)

_AUG_TAG = 1000  # seed-sequence namespace for per-sample augmentation draws
_FLOAT_MAX = float(np.finfo(float).max)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; message carries epoch, batch, and lr."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: data mode, model, loss weights, optimizer, augmentation
    ranges and seed; the only description of what a run trains, and what
    :func:`planereg.augmentation.augment_sample` reads.  Every key is checked
    when the config is built, and an error names the key it is about."""

    mode: str = "ankle"
    representation: RotationKind = RotationKind.SIXD
    out_dims: int = 72
    out_spacing: float = 2.2
    alpha: float = 0.5
    beta: float = 0.5
    gamma: float = 0.0
    epochs: int = 400
    lr: float = 0.02
    decay: float = 0.5
    step_size: int = 150
    momentum: float = 0.9
    batch_size: int = 8
    k: int = 5
    seed: int = 0
    rot_deg: float = 45.0
    scale_lo: float = 0.95
    scale_hi: float = 1.05
    trans_mm: float = 12.0
    mirror_prob: float = 0.5
    intensity_lo: float = 0.95
    intensity_hi: float = 1.05
    channels: tuple[int, ...] = (8, 16, 32, 64, 128)
    fc_widths: tuple[int, ...] = (1024, 256)

    def __post_init__(self):
        if self.mode not in PLANE_NAMES:
            raise ConfigError(f"mode must be one of {sorted(PLANE_NAMES)}")
        object.__setattr__(self, "representation", RotationKind(self.representation))
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        object.__setattr__(self, "fc_widths", tuple(int(w) for w in self.fc_widths))
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        # each pooling step halves the grid, which must keep one voxel
        min_dims = max(2, 2 ** len(self.channels))
        lowest = {"epochs": 0, "batch_size": 1, "k": 2, "step_size": 1, "seed": 0, "out_dims": min_dims}
        for key, low in lowest.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be at least {low}, got {getattr(self, key)}")
        for key in ("lr", "decay", "momentum"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be non-negative, got {getattr(self, key)}")
        # rotations and translations are drawn from [-value, value], whose width must be finite
        for key in ("rot_deg", "trans_mm"):
            value = getattr(self, key)
            if not (0.0 <= value and 2.0 * value < np.inf):
                raise ConfigError(f"{key} must be non-negative and at most {_FLOAT_MAX / 2:.6g}, got {value}")
        if not (0.0 < self.out_spacing and math.isfinite(self.extent_mm)):
            raise ConfigError(
                f"out_spacing must be positive and at most {_FLOAT_MAX / self.out_dims:.6g} "
                f"for out_dims={self.out_dims}, got {self.out_spacing}"
            )
        if not 0.0 <= self.mirror_prob <= 1.0:
            raise ConfigError(f"mirror_prob must be a probability, got {self.mirror_prob}")
        # the transforms and jitter factors the ranges allow are the ones geometry and volume accept
        for name, (lo, hi) in (("scale", SCALE_RANGE), ("intensity", JITTER_RANGE)):
            a, b = getattr(self, f"{name}_lo"), getattr(self, f"{name}_hi")
            if not lo <= a <= b <= hi:
                raise ConfigError(f"need {lo} <= {name}_lo <= {name}_hi <= {hi}, got {name}_lo={a}, {name}_hi={b}")
        for build in (self.weights, self.network_config):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    def to_values(self) -> dict:
        return field_values(self)

    @property
    def plane_names(self) -> tuple[str, ...]:
        return PLANE_NAMES[self.mode]

    @property
    def extent_mm(self) -> float:
        return self.out_dims * self.out_spacing

    def weights(self) -> LossWeights:
        return LossWeights(self.alpha, self.beta, self.gamma)

    def network_config(self, n_planes: int | None = None) -> NetworkConfig:
        """The network of ``n_planes`` planes (default: all of the mode's) that :func:`train` builds."""
        n = len(self.plane_names) if n_planes is None else n_planes
        return NetworkConfig(
            representation=self.representation,
            n_planes=n,
            combined=n > 1,
            in_dims=self.out_dims,
            channels=self.channels,
            fc_widths=self.fc_widths,
        )


_EXPERIMENT_HELP = {
    "mode": "body region: ankle or calcaneus",
    "representation": "rotation encoding: quaternion, euler_sincos, or sixd",
    "out_dims": "network input side length in voxels",
    "out_spacing": "network input voxel size in mm",
    "alpha": "loss weight of the rotation term",
    "beta": "loss weight of the translation term",
    "gamma": "loss weight of the plane orthogonality term",
    "epochs": "number of training epochs",
    "lr": "initial learning rate",
    "decay": "learning-rate decay factor",
    "step_size": "epochs between learning-rate decay steps",
    "momentum": "SGD momentum",
    "batch_size": "mini-batch size",
    "k": "number of cross-validation folds",
    "seed": "master seed for all randomness",
    "rot_deg": "augmentation rotation range, +- degrees per axis",
    "scale_lo": "augmentation scale range lower bound",
    "scale_hi": "augmentation scale range upper bound",
    "trans_mm": "augmentation translation range, +- mm per axis",
    "mirror_prob": "probability of mirroring in x direction",
    "intensity_lo": "intensity jitter factor lower bound",
    "intensity_hi": "intensity jitter factor upper bound",
    "channels": "convolution channels per block",
    "fc_widths": "hidden fully connected widths",
}

EXPERIMENT_SCHEMA: dict[str, Field] = schema(ExperimentConfig().to_values(), _EXPERIMENT_HELP)


def _with_weights(cfg: ExperimentConfig, w: LossWeights) -> ExperimentConfig:
    return replace(cfg, alpha=w.alpha, beta=w.beta, gamma=w.gamma)


# ---------------------------------------------------------------------------
# data loading


@dataclass(frozen=True)
class Sample:
    """A source volume with its ground-truth plane annotations."""

    entry: ManifestEntry
    volume: Volume
    planes: dict[str, PlaneFrame]


def load_samples(manifest_path) -> list[Sample]:
    base_dir = os.path.dirname(os.fspath(manifest_path))
    samples = []
    for entry in read_manifest(manifest_path):
        stem = os.path.join(base_dir, entry.path)
        vol = read_volume(stem + ".vhdr")
        planes = read_plane_file(stem + ".planes")
        missing = [n for n in PLANE_NAMES[entry.mode] if n not in planes]
        if missing:
            raise ValueError(f"{stem}.planes: missing planes {missing}")
        samples.append(Sample(entry=entry, volume=vol, planes=planes))
    return samples


# ---------------------------------------------------------------------------
# grouped, stratified k-fold


@dataclass(frozen=True)
class FoldAssignment:
    """Volume-path to fold-index map; all volumes of a patient share a fold."""

    k: int
    fold_of: dict[str, int]

    def train_test(self, entries: list[ManifestEntry], fold: int):
        train = [i for i, e in enumerate(entries) if self.fold_of[e.path] != fold]
        test = [i for i, e in enumerate(entries) if self.fold_of[e.path] == fold]
        return train, test


def split_kfold_grouped(entries: list[ManifestEntry], k: int, seed: int) -> FoldAssignment:
    """Deterministic stratified group split.

    Patients are grouped by their multiset of origin classes, shuffled within
    each group by the seed, and dealt round-robin with a fold cursor that
    runs across groups, so both patient counts and class counts stay as
    balanced as whole-patient assignment permits.
    """
    patients: dict[int, list[ManifestEntry]] = {}
    for e in entries:
        patients.setdefault(e.patient_id, []).append(e)
    if len(patients) < k:
        raise ValueError(f"need at least k={k} patients, got {len(patients)}")

    by_type: dict[tuple, list[int]] = {}
    for pid, vols in patients.items():
        key = tuple(sorted(v.origin_class for v in vols))
        by_type.setdefault(key, []).append(pid)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(7,))))
    fold_of: dict[str, int] = {}
    cursor = 0
    for key in sorted(by_type):
        pids = sorted(by_type[key])
        rng.shuffle(pids)
        for pid in pids:
            for e in patients[pid]:
                fold_of[e.path] = cursor % k
            cursor += 1
    return FoldAssignment(k=k, fold_of=fold_of)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    net: PlaneRegressionNet
    loss_curve: list[float]
    out_of_cube: int


def _check_modes(cfg: ExperimentConfig, samples: list[Sample]) -> None:
    for s in samples:
        if s.entry.mode != cfg.mode:
            raise ConfigError(
                f"{s.entry.path}: manifest mode {s.entry.mode!r} does not match config mode {cfg.mode!r}"
            )


def train(
    cfg: ExperimentConfig,
    samples: list[Sample],
    plane: str | None = None,
    checkpoint_path=None,
) -> TrainResult:
    """Train the network that ``cfg`` describes, with its loss weights;
    ``plane`` selects a single-plane model, which needs ``cfg.gamma == 0``.

    Every epoch draws a fresh augmentation per sample (keyed by the master
    seed, the epoch, and the sample's dataset index, so results do not depend
    on batch scheduling), shuffles the sample order, and applies SGD with
    momentum under the stepwise learning-rate schedule.  A non-finite batch
    loss aborts with :class:`TrainingDivergedError`.
    """
    if not samples:
        raise ValueError("no training samples")
    _check_modes(cfg, samples)
    names = (plane,) if plane is not None else cfg.plane_names
    weights = cfg.weights()
    if len(names) == 1 and weights.gamma > 0.0:
        raise ConfigError("single-plane training requires gamma = 0")

    init_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(11,))))
    net = PlaneRegressionNet(cfg.network_config(n_planes=len(names)), rng=init_rng)
    opt = SGDMomentum(net, lr=cfg.lr, momentum=cfg.momentum)
    base_rng = SeededRng(cfg.seed)

    curve: list[float] = []
    out_of_cube = 0
    for epoch in range(cfg.epochs):
        opt.lr = step_decay(cfg.lr, cfg.decay, cfg.step_size, epoch)
        shuffle_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(13, epoch)))
        )
        order = shuffle_rng.permutation(len(samples))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            images = np.empty((len(batch), 1, cfg.out_dims, cfg.out_dims, cfg.out_dims), dtype=np.float32)
            targets = np.empty((len(batch), net.config.n_out), dtype=np.float32)

            def fill(row):
                idx = int(batch[row])
                s = samples[idx]
                aug = augment_sample(
                    s.volume, [s.planes[n] for n in names], cfg, base_rng.derive(_AUG_TAG, epoch, idx)
                )
                images[row, 0] = aug.image
                targets[row] = aug.target
                return aug.center_out_of_bounds

            out_of_cube += sum(_map_tasks(fill, len(batch), cfg.out_dims**3, _MIN_TASK))
            pred = net.forward(images)
            node = loss_graph(pred, targets, weights, cfg.representation, len(names))
            value = node.item()
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}, lr {opt.lr:g}"
                )
            node.backward()
            opt.step()
            opt.zero_grad()
            epoch_losses.append(value)
        curve.append(float(np.mean(epoch_losses)))
        logger.info("epoch %d/%d: lr %.5f, mean loss %.5f", epoch + 1, cfg.epochs, opt.lr, curve[-1])
    if out_of_cube:
        n = cfg.epochs * len(samples)
        logger.warning("%d of %d augmented samples put a plane center outside the normalized cube", out_of_cube, n)

    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, net, extra={"experiment": cfg.to_values(), "plane": plane or ""})
    return TrainResult(net=net, loss_curve=curve, out_of_cube=out_of_cube)


def load_trained(path) -> tuple[PlaneRegressionNet, ExperimentConfig, str | None]:
    """Network, experiment config and plane (None: all planes) of a checkpoint
    that :func:`train` wrote.

    Raises ``ValueError`` naming ``path`` when the checkpoint carries no
    experiment config, the stored values do not build one, the plane is not
    one of the config's planes, or the network is not the one ``train``
    builds from the config (a 6D network decoded as Euler pairs, say).
    """
    net, extra = load_checkpoint(path)
    values = extra.get("experiment") if isinstance(extra, dict) else None
    if not isinstance(values, dict):
        raise ValueError(f"{path}: checkpoint carries no experiment config")
    plane = extra.get("plane") or None
    try:
        cfg = ExperimentConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: invalid experiment config ({exc})") from exc
    if plane is not None and plane not in cfg.plane_names:
        raise ValueError(f"{path}: plane {plane!r} is not one of the {cfg.mode} planes {cfg.plane_names}")
    expected = cfg.network_config(n_planes=len(cfg.plane_names) if plane is None else 1)
    if net.config != expected:
        raise ValueError(f"{path}: network {field_values(net.config)} differs from its config's {field_values(expected)}")
    return net, cfg, plane


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalResult:
    """Per-plane errors and mean per-volume seconds of the center resample and the network."""

    errors_by_plane: dict[str, list[PlaneErrors]]
    mean_inference_s: float
    mean_preprocess_s: float

    def rows(self) -> list[ReportRow]:
        return aggregate_errors(self.errors_by_plane)

    def mean_row(self) -> ReportRow:
        return self.rows()[-1]


def evaluate(net: PlaneRegressionNet, samples: list[Sample], cfg: ExperimentConfig, plane: str | None = None) -> EvalResult:
    """Deterministic test-time evaluation: center resample, no augmentation.

    Predictions are decoded back to plane frames and compared against the
    stored annotations.  Undecodable predictions (possible for untrained
    networks) count with worst-case placeholder errors rather than aborting.
    Raises ``ValueError`` unless ``net`` is the network ``train`` builds from ``cfg`` for these planes.
    """
    _check_modes(cfg, samples)
    names = (plane,) if plane is not None else cfg.plane_names
    expected = cfg.network_config(len(names))
    if net.config != expected:
        raise ValueError(f"network {field_values(net.config)} differs from the config's {field_values(expected)} for {names}")
    errors: dict[str, list[PlaneErrors]] = {n: [] for n in names}
    prep_times, times = [], []
    for s in samples:
        t0 = time.perf_counter()
        x = center_input(s.volume, cfg.out_dims, cfg.out_spacing)
        t1 = time.perf_counter()
        pred = net.predict(x)
        times.append(time.perf_counter() - t1)
        prep_times.append(t1 - t0)
        for name, vec in zip(names, np.split(pred, len(names))):
            try:
                frame = decode_plane_vector(vec, cfg.representation, cfg.extent_mm)[0]
                errors[name].append(plane_errors(frame, s.planes[name]))
            except DegenerateEncodingError:
                errors[name].append(PlaneErrors(d=cfg.extent_mm / 2.0, eps_n=90.0, eps_i=90.0))
    mean_s = float(np.mean(times)) if times else 0.0
    prep_s = float(np.mean(prep_times)) if prep_times else 0.0
    logger.info("preprocessing time per volume: %.4f s, inference time per volume: %.4f s", prep_s, mean_s)
    return EvalResult(errors_by_plane=errors, mean_inference_s=mean_s, mean_preprocess_s=prep_s)


def train_eval_fold(
    cfg: ExperimentConfig,
    samples: list[Sample],
    assignment: FoldAssignment,
    fold: int,
    scheme: str = "config",
) -> tuple[EvalResult, list[TrainResult]]:
    """Train on all folds but ``fold`` and evaluate on ``fold``.

    ``scheme`` selects the networks and their loss weights: ``config`` one
    network for all planes with ``cfg``'s weights, ``combined`` and
    ``optimized_combined`` one with that :data:`WEIGHT_PRESETS` entry, and
    ``three`` one network per plane with its ``three_<plane>`` preset.  The
    result merges their planes and sums their per-volume times.
    """
    presets = WEIGHT_PRESETS[cfg.mode]
    if scheme == "three":
        runs = [(plane, _with_weights(cfg, presets[f"three_{plane}"])) for plane in cfg.plane_names]
    elif scheme == "config":
        runs = [(None, cfg)]
    elif scheme in ("combined", "optimized_combined"):
        runs = [(None, _with_weights(cfg, presets[scheme]))]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    train_idx, test_idx = assignment.train_test([s.entry for s in samples], fold)
    train_samples = [samples[i] for i in train_idx]
    test_samples = [samples[i] for i in test_idx]

    errors: dict[str, list[PlaneErrors]] = {}
    times, prep_times = [], []
    results: list[TrainResult] = []
    for plane, run_cfg in runs:
        tr = train(run_cfg, train_samples, plane=plane)
        ev = evaluate(tr.net, test_samples, run_cfg, plane=plane)
        results.append(tr)
        errors.update(ev.errors_by_plane)
        times.append(ev.mean_inference_s)
        prep_times.append(ev.mean_preprocess_s)
    return EvalResult(errors, float(np.sum(times)), float(np.sum(prep_times))), results


# ---------------------------------------------------------------------------
# cross-validation and ablations


def _atomic_write(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(text)
    os.replace(tmp, path)


SUMMARY_HEADER = (
    "cell,d_mean,d_std,eps_n_mean,eps_n_std,eps_i_mean,eps_i_std,score_mean,score_std"
)


def _summarize(cell: str, fold_rows: list[ReportRow]) -> str:
    d = np.array([r.d for r in fold_rows])
    en = np.array([r.eps_n for r in fold_rows])
    ei = np.array([r.eps_i for r in fold_rows])
    sc = np.array([r.score for r in fold_rows])
    return (
        f"{cell},{d.mean():.4f},{d.std():.4f},{en.mean():.4f},{en.std():.4f},"
        f"{ei.mean():.4f},{ei.std():.4f},{sc.mean():.4f},{sc.std():.4f}"
    )


def _eval_fold(cfg: ExperimentConfig, samples: list[Sample], assignment: FoldAssignment, scheme: str, fold: int) -> EvalResult:
    """One fold job (also run in worker processes); ``train_eval_fold`` is
    looked up at call time, so a wrapper patched onto it sees every fold."""
    return train_eval_fold(cfg, samples, assignment, fold, scheme=scheme)[0]


def _load_split(cfg: ExperimentConfig, manifest_path) -> tuple[list[Sample], FoldAssignment]:
    """The samples of ``manifest_path``, checked against ``cfg``'s mode, and
    their grouped split into ``cfg.k`` folds; run before any output exists, so
    a manifest that does not fit the config leaves nothing behind."""
    samples = load_samples(manifest_path)
    _check_modes(cfg, samples)
    return samples, split_kfold_grouped([s.entry for s in samples], cfg.k, cfg.seed)


def _run_folds(
    cfg: ExperimentConfig,
    samples: list[Sample],
    assignment: FoldAssignment,
    folds: list[int],
    scheme: str,
    jobs: int,
) -> dict[int, EvalResult]:
    """Run independent fold jobs, optionally in parallel worker processes.

    Each fold derives all randomness from the master seed alone, so the
    results are identical whatever the job count or scheduling.
    """
    if jobs <= 1 or len(folds) <= 1:
        return {fold: _eval_fold(cfg, samples, assignment, scheme, fold) for fold in folds}
    from concurrent.futures import ProcessPoolExecutor

    n = len(folds)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = pool.map(_eval_fold, [cfg] * n, [samples] * n, [assignment] * n, [scheme] * n, folds)
        return dict(zip(folds, results))


def _fold_list(folds: list[int] | None, k: int, jobs: int = 1) -> list[int]:
    """All ``k`` folds when ``folds`` is None, else ``folds`` checked against
    ``k``; ``jobs`` must be at least 1."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if folds is None:
        return list(range(k))
    folds = list(folds)
    if not folds or len(set(folds)) < len(folds) or any(not 0 <= f < k for f in folds):
        raise ConfigError(f"folds must be a non-empty subset of 0..{k - 1} for k={k}, got {folds}")
    return folds


def cross_validate(
    cfg: ExperimentConfig,
    manifest_path,
    out_dir,
    folds: list[int] | None = None,
    scheme: str = "config",
    jobs: int = 1,
) -> list[ReportRow]:
    """Run (a subset of) the k folds, writing per-fold reports and a summary.

    Returns the per-fold mean rows.  Result files are written atomically
    (write to a temp file, then rename).
    """
    folds = _fold_list(folds, cfg.k, jobs)
    samples, assignment = _load_split(cfg, manifest_path)
    os.makedirs(out_dir, exist_ok=True)
    results = _run_folds(cfg, samples, assignment, folds, scheme, jobs)
    mean_rows = []
    for fold in folds:
        fold_dir = os.path.join(out_dir, f"fold{fold}")
        os.makedirs(fold_dir, exist_ok=True)
        _atomic_write(os.path.join(fold_dir, "report.csv"), rows_to_csv(results[fold].rows()))
        mean_rows.append(results[fold].mean_row())
    summary = [SUMMARY_HEADER, _summarize("all", mean_rows)]
    _atomic_write(os.path.join(out_dir, "summary.csv"), "\n".join(summary) + "\n")
    return mean_rows


ABLATION_AXES = {
    "representation": [RotationKind.SIXD, RotationKind.QUATERNION, RotationKind.EULER_SINCOS],
    "resolution": [(64, 2.5), (72, 2.2), (128, 1.2)],
    "combined_vs_separate": ["three", "combined", "optimized_combined"],
    # every (alpha, beta, gamma) on the 0.1 grid with alpha, beta >= 0.1
    "weights": [LossWeights(a / 10, b / 10, (10 - a - b) / 10) for a in range(1, 10) for b in range(1, 11 - a)],
}


def _ablation_cell(which: str, cfg: ExperimentConfig, cell) -> tuple[str, str, ExperimentConfig]:
    """Label, fold scheme and config of one cell of ablation axis ``which``."""
    if which == "representation":
        return cell.value, "config", replace(cfg, representation=cell)
    if which == "resolution":
        dims, spacing = cell
        return f"{dims}^3@{spacing}mm", "config", replace(cfg, out_dims=dims, out_spacing=spacing)
    if which == "weights":
        return f"a{cell.alpha:g}_b{cell.beta:g}_g{cell.gamma:g}", "config", _with_weights(cfg, cell)
    return cell, cell, cfg


def ablation_driver(
    which: str,
    cfg: ExperimentConfig,
    manifest_path,
    out_dir,
    folds: list[int] | None = None,
    jobs: int = 1,
) -> str:
    """Run one ablation axis cross-validated and emit a mean/std CSV.

    ``representation`` compares the three rotation encodings,
    ``resolution`` the (dims, spacing) rows, ``combined_vs_separate``
    per-plane models against combined ones, and ``weights`` one combined
    network per loss-weight cell, the grid that :data:`WEIGHT_PRESETS`'s
    combined presets come from.  Returns the summary CSV path.
    """
    if which not in ABLATION_AXES:
        raise ValueError(f"unknown ablation axis {which!r}")
    folds = _fold_list(folds, cfg.k, jobs)
    # built first, so that a cell the config cannot hold (a resolution too small for its channels) fails before any output
    cells = [_ablation_cell(which, cfg, cell) for cell in ABLATION_AXES[which]]
    # every cell keeps cfg's mode, k and seed, so one split serves them all
    samples, assignment = _load_split(cfg, manifest_path)
    os.makedirs(out_dir, exist_ok=True)

    lines = [SUMMARY_HEADER]
    for label, scheme, cell_cfg in cells:
        results = _run_folds(cell_cfg, samples, assignment, folds, scheme, jobs)
        fold_rows = [results[fold].mean_row() for fold in folds]
        for fold in folds:
            _atomic_write(
                os.path.join(out_dir, f"{which}_{label.replace('@', '_')}_fold{fold}.csv"),
                rows_to_csv(results[fold].rows()),
            )
        lines.append(_summarize(label, fold_rows))
        logger.info("ablation %s cell %s: %s", which, label, lines[-1])

    path = os.path.join(out_dir, f"{which}.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    return path
