"""Per-layer metrics derived from the spans of a traced run.

Times are inclusive span durations unless a name says ``self``: a span's
self time is its duration minus the time its direct children cover.
``*_ms`` metrics are means per call of the span named in :data:`MEAN_MS`;
the exceptions are documented where they are computed.  Counts taken from
the program's own counters are passed in per benchmark operation.
"""

from __future__ import annotations

from collections import defaultdict

from spans import _ATTRS, _END, _NAME, _PARENT, _REQUEST, _START, child_time

N_BLOCKS = 5

# metric -> span name whose mean duration (ms) it reports
MEAN_MS = {
    "model.predict_ms": "model.predict",
    "model.sgd_step_ms": "model.sgd_step",
    "model.save_checkpoint_ms": "model.save_checkpoint",
    "model.load_checkpoint_ms": "model.load_checkpoint",
    "loss_metrics.loss_graph_ms": "loss_metrics.loss_graph",
    "loss_metrics.plane_errors_ms": "loss_metrics.plane_errors",
    "volume.read_volume_ms": "volume.read_volume",
    "volume.extract_mpr_slice_ms": "volume.extract_mpr_slice",
    "volume.intensity_pipeline_ms": "volume.intensity_pipeline",
    "augmentation.augment_sample_ms": "augmentation.augment_sample",
    "augmentation.center_input_ms": "augmentation.center_input",
    "phantom.generate_ms_per_volume": "phantom.generate_phantom",
}

# spans set up once per run rather than per operation
SETUP_SPANS = {"model.save_checkpoint", "model.load_checkpoint", "phantom.generate_phantom"}

# training-step metric -> span names (direct children of harness.train) it sums
STEP_PARTS = {
    "harness.step.augment_ms": ("augmentation.augment_sample",),
    "harness.step.forward_ms": ("model.forward",),
    "harness.step.loss_ms": ("loss_metrics.loss_graph",),
    "harness.step.backward_ms": ("engine.backward",),
    "harness.step.optimizer_ms": ("model.sgd_step", "model.zero_grad"),
}

UNITS = {
    "engine.conv3d.gflop": "GFLOP",
    "engine.conv3d.gflops": "GFLOP/s",
    "engine.conv3d.peak_alloc_mb": "MB",
    "model.checkpoint_bytes": "bytes",
    "loss_metrics.degenerate_normals": "count",
    "volume.interp_points_per_s": "1/s",
    "volume.interp_passes": "count",
    "augmentation.out_of_cube": "count",
    "harness.epoch_s": "s",
    "harness.fold_s": "s",
    "trace.overhead_pct": "%",
}


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for op in ("conv3d", "maxpool3d"):
        for direction in ("fwd", "bwd"):
            names += [f"engine.{op}.{direction}_ms.b{i}" for i in range(N_BLOCKS)]
    names += [
        "engine.relu.ms", "engine.matmul.fwd_ms", "engine.matmul.bwd_ms", "engine.backward.self_ms",
        "engine.conv3d.gflop", "engine.conv3d.gflops", "engine.conv3d.peak_alloc_mb",
        "model.predict_ms", "model.sgd_step_ms", "model.save_checkpoint_ms", "model.load_checkpoint_ms",
        "model.checkpoint_bytes",
        "loss_metrics.loss_graph_ms", "loss_metrics.plane_errors_ms", "loss_metrics.degenerate_normals",
        "volume.resample.augment_ms", "volume.resample.center_ms", "volume.read_volume_ms",
        "volume.extract_mpr_slice_ms", "volume.intensity_pipeline_ms", "volume.interp_points_per_s",
        "volume.interp_passes",
        "augmentation.augment_sample_ms", "augmentation.center_input_ms", "augmentation.out_of_cube",
        "phantom.generate_ms_per_volume",
    ]
    names += list(STEP_PARTS) + ["harness.epoch_s", "harness.evaluate_ms_per_volume", "harness.fold_s"]
    names.append("trace.overhead_pct")
    return names


def unit(name: str) -> str:
    return UNITS.get(name, "ms")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def derive(spans: list[list], counts: dict[str, float], overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics from all spans of a run.

    Operation spans are those whose request is an ``op*`` of the traced
    loop; set-up spans feed only the checkpoint and phantom metrics.
    ``counts`` holds the counter metrics, already per operation.
    """
    by_id = {s[0]: s for s in spans}
    op_spans = [s for s in spans if isinstance(s[_REQUEST], str) and s[_REQUEST].startswith("op")]
    named = defaultdict(list)
    for s in op_spans:
        named[s[_NAME]].append(s)
    for name in SETUP_SPANS:
        named[name] = [s for s in spans if s[_NAME] == name]
    children = child_time(spans)

    def dur(s):
        return s[_END] - s[_START]

    def parent_name(s):
        parent = by_id.get(s[_PARENT])
        return parent[_NAME] if parent is not None else None

    def block_mean_ms(name, block):
        return 1e3 * _mean(dur(s) for s in named[name] if (s[_ATTRS] or {}).get("block") == block)

    out: dict[str, float] = {}
    for op in ("conv3d", "maxpool3d"):
        for direction in ("fwd", "bwd"):
            for i in range(N_BLOCKS):
                out[f"engine.{op}.{direction}_ms.b{i}"] = block_mean_ms(f"engine.{op}.{direction}", i)

    forward_passes = len(named["model.forward"])
    backward_passes = len(named["engine.backward"])
    relu_s = sum(dur(s) for s in named["engine.relu.fwd"] + named["engine.relu.bwd"])
    # relu and matmul run several times per pass: report their total per network pass
    out["engine.relu.ms"] = 1e3 * relu_s / forward_passes if forward_passes else 0.0
    out["engine.matmul.fwd_ms"] = 1e3 * sum(map(dur, named["engine.matmul.fwd"])) / forward_passes if forward_passes else 0.0
    out["engine.matmul.bwd_ms"] = 1e3 * sum(map(dur, named["engine.matmul.bwd"])) / backward_passes if backward_passes else 0.0
    out["engine.backward.self_ms"] = 1e3 * _mean(dur(s) - children[s[0]] for s in named["engine.backward"])

    conv = named["engine.conv3d.fwd"] + named["engine.conv3d.bwd"]
    flops = sum(s[_ATTRS]["flops"] for s in conv)
    conv_s = sum(map(dur, conv))
    n_ops = len({s[_REQUEST] for s in op_spans}) or 1
    out["engine.conv3d.gflop"] = flops / 1e9 / n_ops
    out["engine.conv3d.gflops"] = flops / 1e9 / conv_s if conv_s else 0.0
    peaks = [s[_ATTRS]["alloc_peak"] for s in spans if s[_NAME].startswith("engine.conv3d.") and "alloc_peak" in (s[_ATTRS] or {})]
    out["engine.conv3d.peak_alloc_mb"] = max(peaks, default=0) / 2**20

    for metric, name in MEAN_MS.items():
        out[metric] = 1e3 * _mean(map(dur, named[name]))

    resample = named["volume.resample"]
    out["volume.resample.augment_ms"] = 1e3 * _mean(dur(s) for s in resample if parent_name(s) == "augmentation.augment_sample")
    out["volume.resample.center_ms"] = 1e3 * _mean(dur(s) for s in resample if parent_name(s) == "augmentation.center_input")
    interp = named["volume.trilinear_sample"]
    interp_s = sum(map(dur, interp))
    out["volume.interp_points_per_s"] = sum(s[_ATTRS]["points"] for s in interp) / interp_s if interp_s else 0.0

    steps = sum(1 for s in named["model.sgd_step"] if parent_name(s) == "harness.train")
    for metric, parts in STEP_PARTS.items():
        total = sum(dur(s) for name in parts for s in named[name] if parent_name(s) == "harness.train")
        out[metric] = 1e3 * total / steps if steps else 0.0
    epochs = sum(s[_ATTRS]["epochs"] for s in named["harness.train"])
    out["harness.epoch_s"] = sum(map(dur, named["harness.train"])) / epochs if epochs else 0.0
    evaluated = sum(s[_ATTRS]["n"] for s in named["harness.evaluate"])
    out["harness.evaluate_ms_per_volume"] = 1e3 * sum(map(dur, named["harness.evaluate"])) / evaluated if evaluated else 0.0
    out["harness.fold_s"] = _mean(map(dur, named["harness.train_eval_fold"]))

    out.update(counts)
    out["trace.overhead_pct"] = overhead_pct
    missing = set(metric_names()) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not derived: {sorted(missing)}")
    return {name: out[name] for name in metric_names()}
