import logging
import os
import re
import signal
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from planereg import _kernels, augmentation, harness, volume
from planereg.config import ConfigError, format_config, read_config_file, resolve
from planereg.geometry import RotationKind
from planereg.harness import (
    ABLATION_AXES,
    EXPERIMENT_SCHEMA,
    ExperimentConfig,
    TrainingDivergedError,
    ablation_driver,
    cross_validate,
    evaluate,
    load_samples,
    load_trained,
    split_kfold_grouped,
    train,
    train_eval_fold,
)
from planereg.loss_metrics import WEIGHT_PRESETS, LossWeights
from planereg.model import PlaneRegressionNet, save_checkpoint
from planereg.phantom import PLANE_NAMES, ManifestEntry, generate_dataset


def tiny_config(**kw):
    defaults = dict(
        mode="ankle",
        out_dims=16,
        out_spacing=10.0,
        epochs=1,
        lr=0.01,
        decay=1.0,
        step_size=10,
        momentum=0.9,
        batch_size=4,
        k=2,
        seed=0,
        channels=(2, 4),
        fc_widths=(16,),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinydata")
    generate_dataset(out, n_patients=4, volumes_per_patient=2, mode="ankle", seed=1, dims=16, spacing=10.0)
    return os.path.join(out, "manifest.txt")


@pytest.fixture(scope="module")
def tiny_samples(tiny_dataset):
    return load_samples(tiny_dataset)


def synthetic_manifest(n_metal_patients, n_cadaver_patients, seed=0, vpp=2):
    entries = []
    pid = 0
    for _ in range(n_metal_patients):
        for v in range(vpp):
            entries.append(ManifestEntry(f"p{pid}v{v}", pid, "metal", "ankle"))
        pid += 1
    for _ in range(n_cadaver_patients):
        for v in range(vpp):
            cls = "no_metal" if v % 2 == 0 else "metal_outside"
            entries.append(ManifestEntry(f"p{pid}v{v}", pid, cls, "ankle"))
        pid += 1
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(entries))
    return [entries[i] for i in order]


class TestExperimentConfig:
    def test_schema_defaults_build_default_config(self):
        assert ExperimentConfig(**resolve(EXPERIMENT_SCHEMA)) == ExperimentConfig()

    def test_config_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            mode="calcaneus",
            representation=RotationKind.QUATERNION,
            out_dims=33,
            out_spacing=0.1 + 0.2,
            epochs=7,
            lr=1.0 / 3.0,
            channels=(4, 6),
            fc_widths=(12,),
        )
        default = ExperimentConfig().to_values()
        changed = {key for key, val in cfg.to_values().items() if val != default[key]}
        assert {EXPERIMENT_SCHEMA[key].type for key in changed} == {"int", "float", "str", "ints"}
        path = tmp_path / "run.lock"
        path.write_text(format_config(cfg.to_values()))
        assert ExperimentConfig(**resolve(EXPERIMENT_SCHEMA, read_config_file(path))) == cfg

    def test_values_round_trip(self):
        cfg = tiny_config(representation=RotationKind.QUATERNION, gamma=0.0)
        assert ExperimentConfig(**cfg.to_values()) == cfg

    def test_channels_become_int_tuples(self):
        cfg = tiny_config(channels=[2, 4], fc_widths=[16])
        assert cfg == tiny_config()
        assert cfg.to_values()["channels"] == (2, 4)

    def test_mode_validated(self):
        with pytest.raises(ConfigError):
            tiny_config(mode="knee")

    @pytest.mark.parametrize(
        "bad",
        [
            {"seed": -1},
            {"step_size": 0},
            {"alpha": 0.7},
            {"gamma": -0.5, "alpha": 1.0},
            {"out_spacing": 0.0},
            {"scale_lo": 0.5},
            {"mirror_prob": 2.0},
            {"channels": (2, 4, 8, 16, 32)},
            {"channels": ()},
        ],
    )
    def test_invalid_values_rejected_when_built(self, bad):
        with pytest.raises(ValueError):
            tiny_config(**bad)

    @pytest.mark.parametrize("key", [key for key, f in EXPERIMENT_SCHEMA.items() if f.type == "float"])
    def test_non_finite_float_keys_rejected(self, key):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigError, match=f"^{key} must be finite"):
                tiny_config(**{key: value})


class TestSplit:
    def test_example_split_10_patients(self):
        entries = synthetic_manifest(5, 5)
        fa = split_kfold_grouped(entries, k=5, seed=0)
        for fold in range(5):
            members = [e for e in entries if fa.fold_of[e.path] == fold]
            assert len(members) == 4
            assert len({e.patient_id for e in members}) == 2

    def test_no_patient_leakage_over_random_manifests(self):
        for trial in range(50):
            rng = np.random.default_rng(trial)
            k = int(rng.integers(2, 6))
            entries = synthetic_manifest(int(rng.integers(k, 4 * k)), int(rng.integers(k, 4 * k)), seed=trial)
            fa = split_kfold_grouped(entries, k=k, seed=trial)
            pid_fold = {}
            for e in entries:
                fold = fa.fold_of[e.path]
                assert pid_fold.setdefault(e.patient_id, fold) == fold

    def test_class_balance_for_divisible_counts(self):
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            k = int(rng.integers(2, 6))
            entries = synthetic_manifest(k * int(rng.integers(1, 5)), k * int(rng.integers(1, 5)), seed=trial)
            fa = split_kfold_grouped(entries, k=k, seed=trial)
            for cls in ("metal", "metal_outside", "no_metal"):
                total = sum(e.origin_class == cls for e in entries)
                for fold in range(k):
                    got = sum(e.origin_class == cls and fa.fold_of[e.path] == fold for e in entries)
                    assert abs(got - total / k) <= 1.0

    def test_deterministic_per_seed(self):
        entries = synthetic_manifest(6, 6)
        a = split_kfold_grouped(entries, 3, seed=5).fold_of
        b = split_kfold_grouped(entries, 3, seed=5).fold_of
        c = split_kfold_grouped(entries, 3, seed=6).fold_of
        assert a == b
        assert a != c

    def test_too_few_patients_rejected(self):
        with pytest.raises(ValueError):
            split_kfold_grouped(synthetic_manifest(1, 1), k=5, seed=0)

    def test_train_test_partition(self):
        entries = synthetic_manifest(3, 3)
        fa = split_kfold_grouped(entries, 3, seed=0)
        tr, te = fa.train_test(entries, 1)
        assert sorted(tr + te) == list(range(len(entries)))
        assert not set(tr) & set(te)


class TestTrain:
    def test_zero_epochs_returns_initialized_net(self, tiny_samples):
        cfg = tiny_config(epochs=0)
        result = train(cfg, tiny_samples)
        assert result.loss_curve == []
        fresh = PlaneRegressionNet(
            cfg.network_config(),
            rng=np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(11,))),
        )
        for (na, pa), (nb, pb) in zip(result.net.named_parameters(), fresh.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_bitwise_reproducible_checkpoints(self, tiny_samples, tmp_path):
        cfg = tiny_config(epochs=2)
        train(cfg, tiny_samples, checkpoint_path=tmp_path / "a.bin")
        train(cfg, tiny_samples, checkpoint_path=tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_nan_loss_aborts_with_diagnostics(self, tiny_samples):
        cfg = tiny_config(epochs=2, lr=1e30)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="epoch"):
            train(cfg, tiny_samples)

    def test_single_plane_gamma_guard(self, tiny_samples):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            train(replace(cfg, alpha=0.4, beta=0.4, gamma=0.2), tiny_samples, plane="axial")

    def test_out_of_cube_warned_once_per_run(self, tiny_samples, caplog):
        with caplog.at_level(logging.WARNING):
            result = train(tiny_config(epochs=2, trans_mm=200.0), tiny_samples)
        assert result.out_of_cube > 1
        records = [r for r in caplog.records if "normalized cube" in r.getMessage()]
        assert len(records) == 1
        assert f"{result.out_of_cube} of {2 * len(tiny_samples)}" in records[0].getMessage()

    def test_loss_curve_length(self, tiny_samples):
        result = train(tiny_config(epochs=3), tiny_samples)
        assert len(result.loss_curve) == 3
        assert all(np.isfinite(v) for v in result.loss_curve)

    def test_training_beats_untrained_net(self, tmp_path):
        # Seeds 0, 1, 2 trained/untrained: d 0.20, 0.12, 0.18; eps_n 0.57,
        # 0.81, 0.73; eps_i 0.73, 0.62, 0.69.  The bounds keep a margin over
        # the worst seed, and epochs=0 gives the same initial weights.
        generate_dataset(tmp_path, n_patients=6, volumes_per_patient=2, dims=16, spacing=10.0, seed=1)
        samples = load_samples(tmp_path / "manifest.txt")
        cfg = tiny_config(epochs=30, lr=0.02, decay=1.0, k=3, channels=(4, 8), fc_widths=(32,))
        fa = split_kfold_grouped([s.entry for s in samples], cfg.k, cfg.seed)
        before = train_eval_fold(replace(cfg, epochs=0), samples, fa, 0)[0].mean_row()
        ev, (result,) = train_eval_fold(cfg, samples, fa, 0)
        after = ev.mean_row()
        assert after.d <= 0.5 * before.d
        assert after.eps_n <= 0.9 * before.eps_n
        assert after.eps_i <= 0.9 * before.eps_i
        assert result.loss_curve[-1] < result.loss_curve[0]


class _GroundTruthStub:
    """Stands in for a trained network, returning encoded ground truth."""

    def __init__(self, cfg, samples):
        from planereg.augmentation import encode_plane_targets

        self.config = cfg.network_config()
        self._answers = [
            encode_plane_targets([s.planes[n] for n in cfg.plane_names], cfg.representation, cfg.extent_mm)
            for s in samples
        ]
        self._i = 0

    def predict(self, _x):
        out = self._answers[self._i]
        self._i += 1
        return out


class TestTrainOnPool:
    """``train`` with every kernel call and batch fill sent to the thread pool."""

    @pytest.fixture
    def pool_of(self, monkeypatch):
        """Installs a pool of ``n`` workers as the process's pool; 0 runs every call inline."""
        pools = []

        def install(n):
            for name in ("_MIN_TASK", "_MIN_MACS"):
                monkeypatch.setattr(_kernels, name, 0 if n else 1 << 62)
            if n:
                pools.append(ThreadPoolExecutor(max_workers=n))
                monkeypatch.setattr(_kernels, "_pool", pools[-1])
                monkeypatch.setattr(_kernels, "_pool_pid", os.getpid())

        yield install
        for pool in pools:
            pool.shutdown()

    def test_checkpoint_bytes_equal_whatever_the_worker_count(self, tiny_samples, tmp_path, pool_of):
        cfg = tiny_config(epochs=2)
        for n in (0, 1, 2):
            pool_of(n)
            train(cfg, tiny_samples, checkpoint_path=tmp_path / f"{n}.bin")
        one = (tmp_path / "1.bin").read_bytes()
        assert (tmp_path / "0.bin").read_bytes() == one == (tmp_path / "2.bin").read_bytes()

    def test_counters_lose_no_update(self, tiny_samples, monkeypatch, pool_of):
        # more workers than cores, switching threads as often as the interpreter allows
        pool_of(4)
        flags = []
        augment = harness.augment_sample

        def recording(*args, **kwargs):
            aug = augment(*args, **kwargs)
            flags.append(aug.center_out_of_bounds)
            return aug

        monkeypatch.setattr(harness, "augment_sample", recording)
        cfg = tiny_config(epochs=3, trans_mm=100.0)
        passes, out_of_cube = volume.interpolation_call_count(), augmentation.out_of_cube_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = train(cfg, tiny_samples)
        finally:
            sys.setswitchinterval(interval)
        assert len(flags) == cfg.epochs * len(tiny_samples)
        assert volume.interpolation_call_count() - passes == cfg.epochs * len(tiny_samples)
        assert augmentation.out_of_cube_count() - out_of_cube == sum(flags) == result.out_of_cube
        assert 0 < sum(flags) < len(flags)


class TestEvaluate:
    def test_ground_truth_bypass_scores_zero(self, tiny_samples):
        cfg = tiny_config()
        stub = _GroundTruthStub(cfg, tiny_samples)
        ev = evaluate(stub, tiny_samples, cfg)
        for rows in ev.errors_by_plane.values():
            for e in rows:
                assert e.d < 1e-6 and e.eps_n < 1e-6 and e.eps_i < 1e-6

    def test_report_row_count(self, tiny_samples):
        cfg = tiny_config()
        ev = evaluate(_GroundTruthStub(cfg, tiny_samples), tiny_samples, cfg)
        assert len(ev.rows()) == len(cfg.plane_names) + 1
        assert ev.rows()[-1].plane == "mean"

    def test_inference_time_recorded(self, tiny_samples):
        cfg = tiny_config()
        result = train(tiny_config(epochs=0), tiny_samples)
        ev = evaluate(result.net, tiny_samples, cfg)
        assert ev.mean_inference_s > 0.0
        assert ev.mean_preprocess_s > 0.0

    def test_layout_mismatch_rejected(self, tiny_samples):
        cfg = tiny_config()
        result = train(tiny_config(epochs=0), tiny_samples)
        with pytest.raises(ValueError):
            evaluate(result.net, tiny_samples, cfg, plane="axial")

    def test_encoding_mismatch_rejected(self, tiny_samples):
        # 6D and Euler sin/cos pairs both take 9 values per plane, so only the config tells them apart
        result = train(tiny_config(epochs=0), tiny_samples)
        with pytest.raises(ValueError, match="differs from the config"):
            evaluate(result.net, tiny_samples, tiny_config(representation=RotationKind.EULER_SINCOS))


class TestFoldsAndAblations:
    def test_three_scheme_trains_three_models(self, tiny_samples):
        cfg = tiny_config()
        fa = split_kfold_grouped([s.entry for s in tiny_samples], cfg.k, cfg.seed)
        ev, results = train_eval_fold(cfg, tiny_samples, fa, 0, scheme="three")
        assert len(results) == 3
        assert set(ev.errors_by_plane) == set(cfg.plane_names)
        assert ev.mean_preprocess_s > 0.0

    def test_combined_scheme_trains_one_model(self, tiny_samples):
        cfg = tiny_config()
        fa = split_kfold_grouped([s.entry for s in tiny_samples], cfg.k, cfg.seed)
        _, results = train_eval_fold(cfg, tiny_samples, fa, 0, scheme="combined")
        assert len(results) == 1

    @pytest.mark.parametrize("mode", sorted(PLANE_NAMES))
    def test_each_scheme_trains_and_evaluates_its_weights(self, monkeypatch, mode):
        cfg = tiny_config(mode=mode, alpha=0.3, beta=0.7)
        samples = [harness.Sample(e, None, {}) for e in synthetic_manifest(2, 2)]
        fa = split_kfold_grouped([s.entry for s in samples], cfg.k, cfg.seed)
        trained, evaluated = [], []

        def fake_train(run_cfg, train_samples, plane=None):
            trained.append((plane, run_cfg))
            return harness.TrainResult(net=None, loss_curve=[], out_of_cube=0)

        def fake_evaluate(net, test_samples, run_cfg, plane=None):
            evaluated.append((plane, run_cfg))
            return harness.EvalResult({n: [] for n in ((plane,) if plane else run_cfg.plane_names)}, 1.0, 2.0)

        monkeypatch.setattr(harness, "train", fake_train)
        monkeypatch.setattr(harness, "evaluate", fake_evaluate)
        presets = WEIGHT_PRESETS[mode]
        expected = {
            "config": [(None, LossWeights(0.3, 0.7, 0.0))],
            "combined": [(None, presets["combined"])],
            "optimized_combined": [(None, presets["optimized_combined"])],
            "three": [(plane, presets[f"three_{plane}"]) for plane in PLANE_NAMES[mode]],
        }
        for scheme, runs in expected.items():
            trained.clear()
            evaluated.clear()
            ev, results = train_eval_fold(cfg, samples, fa, 0, scheme=scheme)
            assert [(plane, c.weights()) for plane, c in trained] == runs
            assert evaluated == trained
            assert len(results) == len(runs)
            assert set(ev.errors_by_plane) == set(PLANE_NAMES[mode])
            assert (ev.mean_inference_s, ev.mean_preprocess_s) == (len(runs), 2.0 * len(runs))

    def test_cross_validate_writes_reports(self, tiny_dataset, tmp_path):
        cfg = tiny_config()
        rows = cross_validate(cfg, tiny_dataset, tmp_path / "xval")
        assert len(rows) == cfg.k
        for fold in range(cfg.k):
            assert (tmp_path / "xval" / f"fold{fold}" / "report.csv").exists()
        summary = (tmp_path / "xval" / "summary.csv").read_text().strip().split("\n")
        assert summary[0].startswith("cell,d_mean,d_std")
        assert len(summary) == 2

    @pytest.mark.parametrize("command", ["xval", "ablate"])
    def test_manifest_loaded_once(self, tiny_dataset, tmp_path, monkeypatch, command):
        calls = []

        def counting(path):
            calls.append(path)
            return load_samples(path)

        monkeypatch.setattr(harness, "load_samples", counting)
        if command == "xval":
            cross_validate(tiny_config(), tiny_dataset, tmp_path / "x")
        else:
            ablation_driver("representation", tiny_config(), tiny_dataset, tmp_path / "a", folds=[0])
        assert calls == [tiny_dataset]

    def test_resolution_axis_uses_published_pairs(self):
        assert ABLATION_AXES["resolution"] == [(64, 2.5), (72, 2.2), (128, 1.2)]

    def test_cell_the_config_cannot_hold_fails_before_any_output(self, tiny_dataset, tmp_path):
        # seven pooling steps need 128 voxels; the first resolution cell has 64
        cfg = tiny_config(out_dims=128, out_spacing=1.0, channels=(2,) * 7)
        with pytest.raises(ConfigError, match="out_dims must be at least 128, got 64"):
            ablation_driver("resolution", cfg, tiny_dataset, tmp_path / "r", folds=[0])
        assert not (tmp_path / "r").exists()

    def test_weight_grid_contains_presets(self):
        grid = ABLATION_AXES["weights"]
        assert len(grid) == 45
        assert LossWeights(0.6, 0.3, 0.1) in grid
        assert LossWeights(0.2, 0.8, 0.0) in grid

    def test_weights_driver_rows(self, tiny_dataset, tmp_path):
        path = ablation_driver("weights", tiny_config(epochs=0), tiny_dataset, tmp_path / "w", folds=[0])
        lines = open(path).read().strip().split("\n")
        labels = [l.split(",")[0] for l in lines[1:]]
        assert len(labels) == 45 and len(set(labels)) == 45
        assert "a0.6_b0.3_g0.1" in labels and "a0.2_b0.8_g0" in labels
        assert (tmp_path / "w" / "weights_a0.6_b0.3_g0.1_fold0.csv").exists()

    def test_representation_driver_shape_and_determinism(self, tiny_dataset, tmp_path):
        cfg = tiny_config()
        path1 = ablation_driver("representation", cfg, tiny_dataset, tmp_path / "a", folds=[0])
        path2 = ablation_driver("representation", cfg, tiny_dataset, tmp_path / "b", folds=[0])
        text1 = open(path1).read()
        lines = text1.strip().split("\n")
        assert len(lines) == 4  # header + 3 representations
        assert {l.split(",")[0] for l in lines[1:]} == {"sixd", "quaternion", "euler_sincos"}
        assert text1 == open(path2).read()

    def test_scheme_driver_rows(self, tiny_dataset, tmp_path):
        cfg = tiny_config()
        path = ablation_driver("combined_vs_separate", cfg, tiny_dataset, tmp_path / "s", folds=[0])
        lines = open(path).read().strip().split("\n")
        assert [l.split(",")[0] for l in lines[1:]] == ["three", "combined", "optimized_combined"]

    def test_unknown_axis_rejected(self, tiny_dataset, tmp_path):
        with pytest.raises(ValueError):
            ablation_driver("optimizer", tiny_config(), tiny_dataset, tmp_path / "x")

    def test_fold_workers_fork_after_pooled_kernels(self, tiny_dataset, tmp_path):
        # a forked fold worker inherits the pool object but none of its
        # threads; if it reused it, its first pooled call would wait forever
        script = textwrap.dedent(f"""
            import time
            import numpy as np
            from planereg import _kernels
            from planereg.harness import ExperimentConfig, cross_validate
            _kernels._MIN_TASK = _kernels._MIN_MACS = 0
            x = np.ones((2, 1, 4, 4, 4), dtype=np.float32)
            _kernels.conv3d_forward(x, np.ones((2, 1, 3, 3, 3), dtype=np.float32), np.zeros(2, dtype=np.float32))
            # tasks that outlast their submission start every worker the pool may have
            _kernels._map_tasks(lambda i: time.sleep(0.05), 8, 0, 0)
            cfg = ExperimentConfig(**{tiny_config().to_values()!r})
            print(len(cross_validate(cfg, {str(tiny_dataset)!r}, {str(tmp_path / "xval")!r}, jobs=2)))
        """)
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        # a session of its own, so a hung fold worker is killed with its parent
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("cross_validate(jobs=2) hung after a pooled kernel call")
        assert proc.returncode == 0, err
        assert out.split() == [str(tiny_config().k)]

    @pytest.mark.slow
    def test_parallel_folds_match_sequential(self, tiny_dataset, tmp_path):
        cfg = tiny_config()
        seq = cross_validate(cfg, tiny_dataset, tmp_path / "seq", jobs=1)
        par = cross_validate(cfg, tiny_dataset, tmp_path / "par", jobs=2)
        for a, b in zip(seq, par):
            assert a == b
        for fold in range(cfg.k):
            assert (tmp_path / "seq" / f"fold{fold}" / "report.csv").read_text() == (
                tmp_path / "par" / f"fold{fold}" / "report.csv"
            ).read_text()


class TestLoadTrained:
    def test_returns_training_config(self, tiny_samples, tmp_path):
        cfg = tiny_config(representation=RotationKind.QUATERNION)
        train(cfg, tiny_samples, checkpoint_path=tmp_path / "ck.bin")
        net, got, plane = load_trained(tmp_path / "ck.bin")
        assert got == cfg
        assert plane is None
        assert net.config == cfg.network_config()

    def _save(self, path, cfg_values, plane=""):
        net = PlaneRegressionNet(tiny_config().network_config(n_planes=1), rng=np.random.default_rng(0))
        save_checkpoint(path, net, extra={"experiment": cfg_values, "plane": plane})

    def test_single_plane_checkpoint(self, tmp_path):
        self._save(tmp_path / "ck.bin", tiny_config().to_values(), plane="axial")
        assert load_trained(tmp_path / "ck.bin")[2] == "axial"

    def test_unknown_plane_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        self._save(path, tiny_config().to_values(), plane="semicoronal")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: plane 'semicoronal'"):
            load_trained(path)

    @pytest.mark.parametrize("bad", [{"mode": "knee"}, {"bogus": 1}, {"channels": "x"}])
    def test_invalid_experiment_values_rejected(self, tmp_path, bad):
        path = tmp_path / "ck.bin"
        self._save(path, {**tiny_config().to_values(), **bad}, plane="axial")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: invalid experiment config"):
            load_trained(path)
