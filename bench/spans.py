"""In-memory span tracing of ``planereg``, patched in from outside.

:class:`Tracer` replaces the public functions and methods that the program's
modules call, at the names the callers look them up under (say
``planereg.harness.augment_sample``, which ``train`` calls, or
``planereg.engine.conv3d``, which the model's conv blocks call), with
wrappers that record one span per call.  Backward passes are traced by
wrapping the vector-Jacobian products that ``planereg.engine._make`` stores
on each recorded op.  Uninstalling restores every original.

A span is ``[id, name, start, end, parent, request, attrs]`` with times from
``time.perf_counter`` in seconds; ``parent`` is the id of the span open when
it began (None at the root) and ``request`` the identifier of the benchmark
operation it belongs to.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
import time
import tracemalloc

_NAME, _START, _END, _PARENT, _REQUEST, _ATTRS = 1, 2, 3, 4, 5, 6


def child_time(spans: list[list]) -> dict[int, float]:
    """Span id -> total duration of its direct children."""
    total = defaultdict(float)
    for s in spans:
        if s[_PARENT] is not None:
            total[s[_PARENT]] += s[_END] - s[_START]
    return total


class Tracer:
    """Records spans of the program's calls.

    ``channels`` are the traced network's conv-block widths; conv spans find
    their block index from the weight's ``(out, in)`` channels and pool spans
    from their input's channel count.
    """

    def __init__(self, channels=()):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.conv_block = {}
        self.pool_block = {}
        c_in = 1
        for i, c_out in enumerate(channels):
            self.conv_block[(c_out, c_in)] = i
            self.pool_block[c_out] = i
            c_in = c_out
        self._alloc_sampled: set = set()

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, attrs: dict | None = None) -> list:
        span = [len(self.spans), name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.request, attrs]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack.pop()

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded by another process under the open span."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for s in spans:
            own = [s[0] + offset, s[_NAME], s[_START], s[_END], parent if s[_PARENT] is None else s[_PARENT] + offset, self.request, s[_ATTRS]]
            self.spans.append(own)

    def write(self, path) -> None:
        """One JSON object per span, with its self time: its duration minus its children's."""
        children = child_time(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[0], "name": s[_NAME], "start": s[_START], "end": s[_END],
                    "self": s[_END] - s[_START] - children[s[0]],
                    "parent": s[_PARENT], "request": s[_REQUEST], "attrs": s[_ATTRS] or {},
                }) + "\n")

    # -- patching ----------------------------------------------------------

    def wrap(self, fn, name: str, attrs_of=None, sample_alloc=None):
        """``fn`` recording one span per call; ``attrs_of(*args)`` adds attributes.

        With ``sample_alloc``, the first call per sample key also records the
        peak bytes allocated during the call (``alloc_peak``), measured with
        tracemalloc, which numpy reports its buffers to.
        """
        tracer = self

        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of is not None else None
            key = sample_alloc(attrs) if sample_alloc is not None else None
            measure = key is not None and key not in tracer._alloc_sampled and not tracemalloc.is_tracing()
            span = tracer.begin(name, attrs)
            if measure:
                tracer._alloc_sampled.add(key)
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if measure:
                    span[_ATTRS]["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.end(span)

        return traced

    def patch(self, owner, attr: str, name: str, attrs_of=None, sample_alloc=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, attrs_of, sample_alloc))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install_generation(self) -> None:
        from planereg import phantom

        self.patch(phantom, "generate_phantom", "phantom.generate_phantom")

    def install(self) -> None:
        """Patch every traced layer of ``planereg``."""
        from planereg import augmentation, engine, harness, model, volume

        def train_attrs(cfg, samples, *a, **k):
            return {"n": len(samples), "epochs": cfg.epochs}

        p = self.patch
        p(harness, "train", "harness.train", train_attrs)
        p(harness, "cross_validate", "harness.cross_validate")
        p(harness, "train_eval_fold", "harness.train_eval_fold")
        p(harness, "load_samples", "harness.load_samples")
        p(harness, "evaluate", "harness.evaluate", lambda net, samples, *a, **k: {"n": len(samples)})
        p(harness, "augment_sample", "augmentation.augment_sample")
        p(harness, "loss_graph", "loss_metrics.loss_graph")
        p(harness, "plane_errors", "loss_metrics.plane_errors")
        for owner in (harness, augmentation):
            p(owner, "center_input", "augmentation.center_input")
            p(owner, "decode_plane_vector", "augmentation.decode_plane_vector")
        for owner in (harness, model):
            p(owner, "save_checkpoint", "model.save_checkpoint")
        p(model, "load_checkpoint", "model.load_checkpoint")
        for owner in (harness, volume):
            p(owner, "read_volume", "volume.read_volume")
        p(augmentation, "resample", "volume.resample")
        p(augmentation, "intensity_pipeline", "volume.intensity_pipeline")
        p(volume, "trilinear_sample", "volume.trilinear_sample", lambda vol, pts: {"points": int(pts.size // 3)})
        p(volume, "extract_mpr_slice", "volume.extract_mpr_slice")
        p(model.PlaneRegressionNet, "forward", "model.forward")
        p(model.PlaneRegressionNet, "predict", "model.predict")
        p(model.SGDMomentum, "step", "model.sgd_step")
        p(model.SGDMomentum, "zero_grad", "model.zero_grad")
        p(engine.Tensor, "backward", "engine.backward")
        self._install_engine_ops(engine)

    def _install_engine_ops(self, engine) -> None:
        conv_block, pool_block = self.conv_block, self.pool_block

        def conv_attrs(x, w, bias):
            B, C = x.shape[0], x.shape[1]
            voxels = x.shape[2] * x.shape[3] * x.shape[4]
            return {"block": conv_block.get(tuple(w.shape[:2])), "flops": 2 * B * w.shape[0] * C * 27 * voxels}

        def pool_attrs(x):
            return {"block": pool_block.get(x.shape[1])}

        def conv_key(attrs):
            return ("fwd", attrs["block"])

        self.patch(engine, "conv3d", "engine.conv3d.fwd", conv_attrs, conv_key)
        self.patch(engine, "maxpool3d", "engine.maxpool3d.fwd", pool_attrs)
        self.patch(engine, "relu", "engine.relu.fwd")
        self.patch(engine, "matmul", "engine.matmul.fwd")

        tracer = self
        make = engine._make

        def traced_make(data, parents, vjp):
            op = sys._getframe(1).f_code.co_name
            attrs = None
            key = None
            if op == "conv3d":
                x, w = parents[0], parents[1]
                voxels = x.shape[2] * x.shape[3] * x.shape[4]
                fwd_flops = 2 * x.shape[0] * w.shape[0] * x.shape[1] * 27 * voxels
                attrs = {"block": conv_block.get(tuple(w.shape[:2])), "flops": fwd_flops * (2 if x.requires_grad else 1)}
                key = ("bwd", attrs["block"])
            elif op == "maxpool3d":
                attrs = {"block": pool_block.get(parents[0].shape[1])}
            traced_vjp = tracer.wrap(vjp, f"engine.{op}.bwd", lambda g, _a=attrs: None if _a is None else dict(_a),
                                     (lambda a, _k=key: _k) if key is not None else None)
            return make(data, parents, traced_vjp)

        self._patches.append((engine, "_make", make))
        engine._make = traced_make
