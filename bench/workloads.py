"""The benchmark's workloads: inputs, set-up, one operation, output checks.

Each workload is a closed loop of one client in one process.  Its inputs are
procedural phantoms made from the ``--seed``; the program only ever sees the
generated files.  Phantom generation runs in a child process so that its
memory does not count toward the loop's peak RSS.

``full`` is the measured scale; ``smoke`` is a toy scale of the same code
paths that the benchmark's own tests run in seconds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import os
from dataclasses import replace

import numpy as np

import oracles
from planereg import augmentation, engine, geometry, harness, loss_metrics, model, phantom, volume


def derived_seed(seed: int, *key: int) -> int:
    """A 32-bit seed for sub-task ``key`` of the run seeded ``seed``."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


@contextlib.contextmanager
def observing(owner, attr: str, observe):
    """Call ``observe(args, result)`` after every call of ``owner.attr``."""
    original = getattr(owner, attr)

    def observed(*args, **kwargs):
        result = original(*args, **kwargs)
        observe(args, result)
        return result

    setattr(owner, attr, observed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Checks:
    """Collects failed output checks instead of stopping at the first one."""

    def __init__(self):
        self.failures: list[str] = []

    def __call__(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _close(actual, expected, rel: float) -> bool:
    """Max abs difference within ``rel`` of the larger of 1 and max |expected|."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(expected))))
    return actual.shape == expected.shape and float(np.max(np.abs(actual - expected))) <= rel * scale


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _params(net) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in net.named_parameters()}


class Workload:
    """Shared shape of a workload; subclasses set ``SCALES`` and the steps."""

    name = ""
    SCALES: dict[str, dict] = {}

    def __init__(self, seed: int, scale: str, work_dir: str):
        self.seed = seed
        self.p = self.SCALES[scale]
        self.work_dir = work_dir
        self.check = Checks()
        self.checkpoint_bytes = 0

    @property
    def channels(self) -> tuple[int, ...]:
        return self.p["channels"]

    def generate(self, out_dir: str):
        """Write the input phantoms; runs in a child process."""
        raise NotImplementedError

    def setup(self, rep_dir: str, generated) -> None:
        """Load one set-up's generated files; ``generated`` is what :meth:`generate` returned."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Run the operation once outside the measured loop, keeping outputs to check."""

    def op(self, i: int) -> int:
        """Operation ``i`` of the loop; returns the number of volumes it processed."""
        raise NotImplementedError

    def verify(self) -> None:
        """Check every output kept so far against oracles and required properties."""


class TrainPaper(Workload):
    """Online-augmented training at paper scale through ``harness.train``."""

    name = "train-paper"
    SCALES = {
        "full": dict(n_patients=4, src_dims=64, src_spacing=2.5, out_dims=72, out_spacing=2.2,
                     channels=(8, 16, 32, 64, 128), fc_widths=(1024, 256), batch_size=8),
        "smoke": dict(n_patients=2, src_dims=16, src_spacing=10.0, out_dims=16, out_spacing=10.0,
                      channels=(2, 4), fc_widths=(8,), batch_size=4),
    }
    ORACLE_ROWS = 2  # rows of the first batch checked against the reference forward pass

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        p = self.p
        self.cfg = harness.ExperimentConfig(
            mode="ankle", representation="sixd", out_dims=p["out_dims"], out_spacing=p["out_spacing"],
            channels=p["channels"], fc_widths=p["fc_widths"], batch_size=p["batch_size"], epochs=1, seed=seed,
        )
        self.digests: list[str] = []
        self.first_batch = None
        self.results: list[tuple[list[float], int, int]] = []

    def generate(self, out_dir):
        phantom.generate_dataset(out_dir, n_patients=self.p["n_patients"], volumes_per_patient=2, mode="ankle",
                                 seed=self.seed, dims=self.p["src_dims"], spacing=self.p["src_spacing"])

    def setup(self, rep_dir, generated):
        self.samples = harness.load_samples(os.path.join(rep_dir, "manifest.txt"))
        captured = []

        def first_forward(args, out):
            if not captured:
                net, x = args[0], args[1]
                captured.append((np.array(x), _params(net), out.data.copy()))

        ckpt = os.path.join(rep_dir, "warmup.ckpt")
        # the warm-up epoch is part of set-up
        with observing(model.PlaneRegressionNet, "forward", first_forward):
            result = harness.train(self.cfg, self.samples, checkpoint_path=ckpt)
        self.check(np.all(np.isfinite(result.loss_curve)), f"warm-up loss not finite: {result.loss_curve}")
        self.digests.append(_digest(ckpt))
        self.checkpoint_bytes = os.path.getsize(ckpt)
        self.first_batch = captured[0]

    def op(self, i):
        cfg = replace(self.cfg, seed=derived_seed(self.seed, 1, i))
        before = volume.interpolation_call_count()
        result = harness.train(cfg, self.samples)
        samples = cfg.epochs * len(self.samples)
        self.results.append((result.loss_curve, volume.interpolation_call_count() - before, samples))
        return samples

    def verify(self):
        check = self.check
        check(len(set(self.digests)) == 1, f"warm-up checkpoints of one seed differ: {self.digests}")
        for curve, passes, samples in self.results:
            check(np.all(np.isfinite(curve)), f"training loss not finite: {curve}")
            check(passes == samples, f"{passes} interpolation passes for {samples} augmented samples")

        x, params, out = self.first_batch
        rows = self.ORACLE_ROWS
        ref = oracles.forward(params, x[:rows, 0])
        check(_close(out[:rows], ref, 1e-4), "first training batch output differs from the reference forward pass")
        self._check_gradient(x[:1], params)

    def _check_gradient(self, x, params):
        """Engine gradient along a seeded direction against a central difference, in float64."""
        net_cfg = self.cfg.network_config()
        net = model.PlaneRegressionNet(net_cfg, rng=None, dtype=np.float64)
        rng = np.random.default_rng(derived_seed(self.seed, 2))
        named = net.named_parameters()
        base = {name: params[name].astype(np.float64) for name, _ in named}
        direction = {name: rng.standard_normal(p.data.shape) for name, p in named}
        norm = np.sqrt(sum(float(np.sum(v * v)) for v in direction.values()))
        target = rng.standard_normal((1, net_cfg.n_out))
        weights = loss_metrics.LossWeights(0.4, 0.4, 0.2)

        def loss_at(h):
            for name, p in named:
                p.data = base[name] + (h / norm) * direction[name]
            pred = net.forward(x.astype(np.float64))
            return loss_metrics.loss_graph(pred, target, weights, self.cfg.representation, net_cfg.n_planes)

        node = loss_at(0.0)
        node.backward()
        analytic = sum(float(np.sum(p.grad * direction[name])) for name, p in named) / norm
        # a step this small rarely crosses a ReLU or max-pool kink, which would
        # make the difference quotient meaningless; float64 keeps its rounding
        # error near 1e-8
        h = 1e-7
        with engine.no_grad():
            numeric = (loss_at(h).item() - loss_at(-h).item()) / (2 * h)
        self.check(abs(analytic - numeric) <= 1e-4 * abs(numeric) + 1e-8,
                   f"engine directional derivative {analytic!r} differs from central difference {numeric!r}")


class InferClinical(Workload):
    """One client, one request at a time, against a large source volume."""

    name = "infer-clinical"
    SCALES = {
        "full": dict(src_dims=192, src_spacing=1.0, out_dims=72, out_spacing=2.2,
                     channels=(8, 16, 32, 64, 128), fc_widths=(1024, 256), mpr_size=256, checked_points=400),
        "smoke": dict(src_dims=24, src_spacing=8.0, out_dims=16, out_spacing=10.0,
                      channels=(2, 4), fc_widths=(8,), mpr_size=32, checked_points=100),
    }
    KIND = geometry.RotationKind.SIXD

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        p = self.p
        self.net_cfg = model.NetworkConfig(representation=self.KIND, n_planes=3, combined=True, in_dims=p["out_dims"],
                                           channels=p["channels"], fc_widths=p["fc_widths"])
        self.extent_mm = p["out_dims"] * p["out_spacing"]
        self.kept = None

    def generate(self, out_dir):
        phantom.generate_dataset(out_dir, n_patients=1, volumes_per_patient=1, mode="ankle",
                                 seed=self.seed, dims=self.p["src_dims"], spacing=self.p["src_spacing"])

    def setup(self, rep_dir, generated):
        # an untrained, seeded network: the cost of inference does not depend on the weights
        net = model.PlaneRegressionNet(self.net_cfg, rng=np.random.default_rng(derived_seed(self.seed, 3)))
        ckpt = os.path.join(rep_dir, "served.ckpt")
        model.save_checkpoint(ckpt, net, extra={"seed": self.seed})
        self.net, _ = model.load_checkpoint(ckpt)
        saved, loaded = _params(net), _params(self.net)
        self.check(all(np.array_equal(saved[n], loaded[n]) for n in saved), "checkpoint round trip changed parameters")
        self.checkpoint_bytes = os.path.getsize(ckpt)
        (entry,) = phantom.read_manifest(os.path.join(rep_dir, "manifest.txt"))
        self.stem = os.path.join(rep_dir, entry.path)

    def request(self):
        p = self.p
        vol = volume.read_volume(self.stem)
        x = augmentation.center_input(vol, p["out_dims"], p["out_spacing"])
        pred = self.net.predict(x)
        frames = augmentation.decode_plane_vector(pred, self.KIND, self.extent_mm)
        slices = [volume.extract_mpr_slice(vol, f, size=p["mpr_size"]) for f in frames]
        return x, pred, frames, slices

    def warmup(self):
        self.kept = self.request()

    def op(self, i):
        before = volume.interpolation_call_count()
        _, _, frames, _ = self.request()
        passes = volume.interpolation_call_count() - before
        # one centered input plus one pass per MPR slice
        self.check(passes == 1 + len(frames), f"request {i}: {passes} interpolation passes for {len(frames)} slices")
        return 1

    def verify(self):
        check, p = self.check, self.p
        rng = np.random.default_rng(derived_seed(self.seed, 4))
        window_cfg = volume.WindowConfig()
        win = (window_cfg.clip_lo, window_cfg.clip_hi, window_cfg.gain)
        x, pred, frames, slices = self.kept
        values, spacing = oracles.read_raw_volume(self.stem)
        n = p["checked_points"]
        idx = rng.integers(0, p["out_dims"], size=(n, 3))
        pts = oracles.grid_points(idx, p["out_dims"], p["out_spacing"])
        ref = oracles.window(oracles.sample_points(values, spacing, pts), *win)
        check(_close(x[idx[:, 0], idx[:, 1], idx[:, 2]], ref, 1e-5), "center_input differs from the reference sampler")
        for f, img in zip(frames, slices):
            rows, cols = rng.integers(0, p["mpr_size"], size=(2, n))
            pts = oracles.mpr_points(f.A, f.e_u, f.e_v, rows, cols, p["mpr_size"], 1.0)
            ref = oracles.quantize(oracles.window(oracles.sample_points(values, spacing, pts), *win))
            # a sample exactly halfway between gray levels may round either way
            diff = np.abs(img[rows, cols].astype(int) - ref.astype(int))
            check(diff.max() <= 1, f"MPR pixels differ from the reference sampler by up to {diff.max()}")
            basis = np.stack([f.e_u, f.e_v, f.e_w])
            check(np.allclose(basis @ basis.T, np.eye(3), atol=1e-9), "decoded frame not orthonormal")

        batch = np.stack([x, x[::-1]])  # a second, different row
        batched = self.net.predict(batch)
        check(_close(pred, batched[0], 1e-5), "B=1 predict differs from the batched forward pass")
        check(_close(batched, oracles.forward(_params(self.net), batch), 1e-4), "predict differs from the reference forward pass")


class XvalCalcaneus(Workload):
    """Grouped 3-fold cross-validation of a small calcaneus model."""

    name = "xval-calcaneus"
    SCALES = {
        "full": dict(n_patients=9, src_dims=40, src_spacing=4.0, out_dims=32, out_spacing=5.0,
                     channels=(4, 8, 16), fc_widths=(64, 32), epochs=2, batch_size=4),
        "smoke": dict(n_patients=3, src_dims=16, src_spacing=10.0, out_dims=16, out_spacing=10.0,
                      channels=(2, 4), fc_widths=(8,), epochs=1, batch_size=2),
    }
    SCHEME = "optimized_combined"
    VOLUMES_PER_PATIENT = 2

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        p = self.p
        self.cfg = harness.ExperimentConfig(
            mode="calcaneus", representation="quaternion", out_dims=p["out_dims"], out_spacing=p["out_spacing"],
            channels=p["channels"], fc_widths=p["fc_widths"], epochs=p["epochs"], batch_size=p["batch_size"],
            lr=0.01, k=3, seed=seed,
        )
        self.report_dirs: dict[int, str] = {}

    def generate(self, out_dir):
        """Calcaneus phantoms with tilts drawn here, so the labels can be checked against them."""
        os.makedirs(out_dir, exist_ok=True)
        entries, tilts = [], {}
        n_metal = self.p["n_patients"] // 3
        for pid in range(self.p["n_patients"]):
            rng = np.random.default_rng(derived_seed(self.seed, 5, pid))
            tilts[pid] = float(rng.uniform(15.0, 35.0))
            anatomy = dict(
                shaft_length_mm=rng.uniform(65.0, 90.0), shaft_radius_mm=rng.uniform(10.0, 15.0),
                condyle_radius_a_mm=rng.uniform(13.0, 17.0), condyle_radius_b_mm=rng.uniform(6.0, 9.0),
                plate_thickness_mm=rng.uniform(3.0, 5.0), tilt_deg=tilts[pid],
            )
            for vi in range(self.VOLUMES_PER_PATIENT):
                if pid < n_metal:
                    origin = "metal"
                else:
                    origin = "no_metal" if vi % 2 == 0 else "metal_outside"
                rx, ry, rz = np.radians(rng.uniform(-30.0, 30.0, size=3))
                pose = geometry.compose_transforms([
                    geometry.rotation_transform(geometry.rotation_from_euler_zyx(rz, ry, rx)),
                    geometry.translation_transform(rng.uniform(-10.0, 10.0, size=3)),
                ])
                spec = phantom.PhantomSpec(patient_id=pid, pose=pose, metal=origin == "metal",
                                           metal_outside=origin == "metal_outside", **anatomy)
                vol, planes = phantom.generate_phantom(spec, self.p["src_dims"], self.p["src_spacing"],
                                                       np.random.default_rng(derived_seed(self.seed, 6, pid, vi)))
                stem = f"vol_p{pid:03d}_v{vi}"
                volume.write_volume(os.path.join(out_dir, stem), vol)
                geometry.write_plane_file(os.path.join(out_dir, stem + ".planes"), planes)
                entries.append(phantom.ManifestEntry(stem, pid, origin, "calcaneus"))
        phantom.write_manifest(os.path.join(out_dir, "manifest.txt"), entries)
        return tilts

    def setup(self, rep_dir, generated):
        self.data_dir = rep_dir
        self.manifest = os.path.join(rep_dir, "manifest.txt")
        self.entries = phantom.read_manifest(self.manifest)
        self.tilts = generated

    def _xval(self, cfg, out_dir):
        harness.cross_validate(cfg, self.manifest, out_dir, scheme=self.SCHEME, jobs=1)

    def warmup(self):
        trained, tested = [], []
        with observing(harness, "train", lambda args, _: trained.append([s.entry for s in args[1]])), \
                observing(harness, "evaluate", lambda args, _: tested.append([s.entry for s in args[1]])):
            out_dir = os.path.join(self.work_dir, "xval-warmup")
            self._xval(self.cfg, out_dir)
        self.report_dirs[-1] = out_dir
        self.folds = (trained, tested)

    def _volumes_per_xval(self) -> int:
        n = len(self.entries)
        return self.cfg.epochs * n * (self.cfg.k - 1) + n

    def op(self, i):
        cfg = replace(self.cfg, seed=derived_seed(self.seed, 7, i))
        out_dir = os.path.join(self.work_dir, f"xval-op{i}")
        before = volume.interpolation_call_count()
        self._xval(cfg, out_dir)
        passes = volume.interpolation_call_count() - before
        expected = self._volumes_per_xval()
        self.check(passes == expected, f"xval op {i}: {passes} interpolation passes, expected {expected}")
        self.report_dirs[i] = out_dir
        return expected

    def verify(self):
        check = self.check
        trained, tested = self.folds
        check(len(tested) == self.cfg.k and len(trained) == self.cfg.k, f"{len(trained)} trainings, {len(tested)} evaluations for k={self.cfg.k}")
        test_paths = [e.path for fold in tested for e in fold]
        check(sorted(test_paths) == sorted(e.path for e in self.entries), "not every volume was tested exactly once")
        fold_of_patient: dict[int, set] = {}
        for f, fold in enumerate(tested):
            for e in fold:
                fold_of_patient.setdefault(e.patient_id, set()).add(f)
        check(all(len(f) == 1 for f in fold_of_patient.values()), "a patient appears in two test folds")
        for train_entries, test_entries in zip(trained, tested):
            overlap = {e.patient_id for e in train_entries} & {e.patient_id for e in test_entries}
            check(not overlap, f"patients {sorted(overlap)} both trained on and tested in one fold")

        for i, out_dir in self.report_dirs.items():
            for f in range(self.cfg.k):
                with open(os.path.join(out_dir, f"fold{f}", "report.csv"), newline="") as fh:
                    for row in csv.DictReader(fh):
                        d, en, ei, sc = (float(row[c]) for c in ("d_mm", "eps_n_deg", "eps_i_deg", "score"))
                        check(d >= 0 and 0 <= en <= 180 and 0 <= ei <= 180, f"op {i} fold {f}: error out of range in {row}")
                        # the report prints six significant digits
                        check(abs(sc - (0.2 * d + 0.6 * en + 0.2 * ei)) <= 1e-5 * max(1.0, sc), f"op {i} fold {f}: score mismatch in {row}")

        for e in self.entries:
            planes = geometry.read_plane_file(os.path.join(self.data_dir, e.path + ".planes"))
            angle = oracles.angle_deg(planes["axial"].e_w, planes["semicoronal"].e_w)
            angle = min(angle, 180.0 - angle)  # between planes, not oriented normals
            check(abs(angle - (90.0 - self.tilts[e.patient_id])) < 1e-6,
                  f"{e.path}: semi-coronal at {90.0 - angle:.6f} deg from orthogonal, drawn tilt {self.tilts[e.patient_id]:.6f}")


WORKLOADS = {w.name: w for w in (TrainPaper, InferClinical, XvalCalcaneus)}


def generate_in_child(name: str, seed: int, scale: str, out_dir: str, trace: bool):
    """Entry point of the generation child process: returns (generated, spans)."""
    from spans import Tracer

    wl = WORKLOADS[name](seed, scale, os.path.dirname(out_dir))
    if not trace:
        return wl.generate(out_dir), []
    tracer = Tracer()
    tracer.install_generation()
    try:
        return wl.generate(out_dir), tracer.spans
    finally:
        tracer.uninstall()
