import os
import string
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planereg.cli import PHANTOM_SCHEMA, build_parser, main
from planereg.config import (
    ConfigError,
    Field,
    format_config,
    read_config_file,
    resolve,
    schema,
)
from planereg.geometry import RotationKind, read_plane_file
from planereg.harness import EXPERIMENT_SCHEMA, ExperimentConfig
from planereg.model import PlaneRegressionNet, save_checkpoint
from planereg.phantom import PLANE_NAMES


def run_cli(*args) -> int:
    return main(list(args))


TRAIN_OVERRIDES = [
    "--set", "out_dims=16", "--set", "out_spacing=10.0", "--set", "epochs=1",
    "--set", "batch_size=4", "--set", "channels=2,4", "--set", "fc_widths=16",
    "--set", "k=2",
]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    code = run_cli(
        "phantom-gen", "--out", str(out), "--seed", "3",
        "--set", "n_patients=4", "--set", "dims=16", "--set", "spacing=10.0",
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_train")
    code = run_cli(
        "train", "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out),
        "--seed", "0", *TRAIN_OVERRIDES,
    )
    assert code == 0
    return out


def lock_round_trip(schema, values) -> dict:
    """``values`` written as a run.lock file and resolved against ``schema`` again."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.lock")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_config(values))
        return resolve(schema, read_config_file(path))


VALUES_OF_TYPE = {
    "int": st.integers(-(2**63), 2**64),
    "float": st.floats(allow_nan=False),
    "str": st.text(string.ascii_letters + string.digits + "_.-", min_size=1, max_size=12),
    "ints": st.lists(st.integers(-1000, 2**40), max_size=5).map(tuple),
}


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def ordered_pair(lo, hi):
    return st.tuples(finite(lo, hi), finite(lo, hi)).map(sorted)


@st.composite
def experiment_configs(draw):
    """Any valid experiment config."""
    alpha = draw(finite(0.0, 1.0))
    beta = draw(finite(0.0, 1.0 - alpha))
    scale_lo, scale_hi = draw(ordered_pair(0.9, 1.1))
    intensity_lo, intensity_hi = draw(ordered_pair(0.95, 1.05))
    channels = draw(st.lists(st.integers(1, 256), min_size=1, max_size=5))
    return ExperimentConfig(
        mode=draw(st.sampled_from(sorted(PLANE_NAMES))),
        representation=draw(st.sampled_from(list(RotationKind))),
        out_dims=draw(st.integers(max(2, 2 ** len(channels)), 512)),
        out_spacing=draw(finite(1e-3, 1e3)),
        alpha=alpha,
        beta=beta,
        gamma=1.0 - alpha - beta,
        epochs=draw(st.integers(0, 10**6)),
        lr=draw(finite(0.0, 1e3)),
        decay=draw(finite(0.0, 1.0)),
        step_size=draw(st.integers(1, 10**6)),
        momentum=draw(finite(0.0, 1.0)),
        batch_size=draw(st.integers(1, 1024)),
        k=draw(st.integers(2, 100)),
        seed=draw(st.integers(0, 2**64 - 1)),
        rot_deg=draw(finite(0.0, 180.0)),
        scale_lo=scale_lo,
        scale_hi=scale_hi,
        trans_mm=draw(finite(0.0, 1e3)),
        mirror_prob=draw(finite(0.0, 1.0)),
        intensity_lo=intensity_lo,
        intensity_hi=intensity_hi,
        channels=channels,
        fc_widths=draw(st.lists(st.integers(1, 4096), max_size=3)),
    )


class TestConfigFormat:
    def test_round_trip(self, tmp_path):
        schema = {"a": Field(1, "an int"), "b": Field(0.5, "a float"), "c": Field("x", "a str")}
        values = resolve(schema, None, {"a": "7", "c": "y"})
        path = tmp_path / "c.cfg"
        path.write_text(format_config(values))
        again = resolve(schema, read_config_file(path), None)
        assert again == {"a": 7, "b": 0.5, "c": "y"}

    @pytest.mark.parametrize("schema", [EXPERIMENT_SCHEMA, PHANTOM_SCHEMA], ids=["experiment", "phantom"])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_every_value_survives_a_lock_file(self, schema, data):
        values = {key: data.draw(VALUES_OF_TYPE[f.type], label=key) for key, f in schema.items()}
        assert lock_round_trip(schema, values) == values

    @settings(max_examples=50, deadline=None)
    @given(cfg=experiment_configs())
    def test_experiment_config_survives_its_lock_file(self, cfg):
        assert ExperimentConfig(**lock_round_trip(EXPERIMENT_SCHEMA, cfg.to_values())) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            resolve({"a": Field(1, "")}, None, {"bogus": "1"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="`a`"):
            resolve({"a": Field(1, "")}, None, {"a": "xyz"})

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a pair\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            read_config_file(path)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nx = 5  # inline\n")
        assert read_config_file(path) == {"x": "5"}

    @pytest.mark.parametrize("help", [{"a": "an int"}, {"a": "an int", "b": "a float", "c": "extra"}])
    def test_schema_needs_help_for_every_key(self, help):
        with pytest.raises(ValueError, match="help"):
            schema({"a": 1, "b": 0.5}, help)

    def test_ints_parsing(self):
        schema = {"ch": Field((1, 2), "")}
        assert resolve(schema, None, {"ch": "8,16,32"}) == {"ch": (8, 16, 32)}


class TestPhantomGen:
    def test_generates_expected_files(self, dataset_dir):
        assert (dataset_dir / "manifest.txt").exists()
        vols = [f for f in os.listdir(dataset_dir) if f.endswith(".vhdr")]
        assert len(vols) == 8  # 4 patients x 2 volumes
        assert (dataset_dir / "run.lock").exists()

    def test_reproducible_from_run_lock(self, dataset_dir, tmp_path):
        out2 = tmp_path / "again"
        code = run_cli("phantom-gen", "--out", str(out2), "--config", str(dataset_dir / "run.lock"))
        assert code == 0
        for name in sorted(os.listdir(dataset_dir)):
            if name.endswith(".vraw"):
                assert (out2 / name).read_bytes() == (dataset_dir / name).read_bytes()
        assert (out2 / "manifest.txt").read_text() == (dataset_dir / "manifest.txt").read_text()


class TestTrainEvalInfer:
    def test_train_artifacts(self, trained_dir):
        assert (trained_dir / "checkpoint.bin").exists()
        curve = (trained_dir / "loss_curve.csv").read_text().strip().split("\n")
        assert curve[0] == "epoch,mean_loss"
        assert len(curve) == 2
        assert (trained_dir / "run.lock").exists()

    def test_run_lock_is_valid_config(self, trained_dir):
        values = resolve(EXPERIMENT_SCHEMA, read_config_file(trained_dir / "run.lock"), None)
        assert values["out_dims"] == 16 and values["epochs"] == 1

    def test_eval_writes_report(self, dataset_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run_cli(
            "eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out),
        )
        assert code == 0
        report = (out / "report.csv").read_text().strip().split("\n")
        assert report[0] == "plane,d_mm,eps_n_deg,eps_i_deg,score"
        assert len(report) == 5  # three planes + mean
        printed = capsys.readouterr().out.splitlines()
        assert printed[-2].startswith("preprocessing time per volume: ")
        assert printed[-1].startswith("inference time per volume: ")

    def test_eval_and_infer_lock_the_training_config(self, dataset_dir, trained_dir, tmp_path):
        ckpt = str(trained_dir / "checkpoint.bin")
        assert run_cli("eval", "--checkpoint", ckpt, "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(tmp_path / "e")) == 0
        assert run_cli("infer", "--checkpoint", ckpt, "--volume", str(dataset_dir / "vol_p000_v0.vhdr"), "--out", str(tmp_path / "p.planes")) == 0
        train_lock = (trained_dir / "run.lock").read_bytes()
        assert (tmp_path / "e" / "run.lock").read_bytes() == train_lock
        assert (tmp_path / "p.planes.run.lock").read_bytes() == train_lock

    def test_infer_emits_plane_file(self, dataset_dir, trained_dir, tmp_path):
        out_file = tmp_path / "pred.planes"
        code = run_cli(
            "infer", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--volume", str(dataset_dir / "vol_p000_v0.vhdr"), "--out", str(out_file),
        )
        assert code == 0
        planes = read_plane_file(out_file)
        assert list(planes) == ["axial", "sagittal", "coronal"]

    def test_infer_on_nan_spacing_exits_1_naming_the_file(self, dataset_dir, trained_dir, tmp_path, capsys):
        src = dataset_dir / "vol_p000_v0"
        (tmp_path / "bad.vraw").write_bytes(src.with_suffix(".vraw").read_bytes())
        hdr = src.with_suffix(".vhdr").read_text().splitlines()
        hdr = ["spacing_mm: nan 8 8" if line.startswith("spacing_mm:") else line for line in hdr]
        (tmp_path / "bad.vhdr").write_text("\n".join(hdr) + "\n")
        out_file = tmp_path / "pred.planes"
        code = run_cli(
            "infer", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--volume", str(tmp_path / "bad.vhdr"), "--out", str(out_file),
        )
        assert code == 1
        assert f"{tmp_path / 'bad'}.vhdr: `spacing_mm`" in capsys.readouterr().err
        assert not out_file.exists()

    def test_mpr_export_writes_three_pgm(self, dataset_dir, tmp_path):
        out = tmp_path / "slices"
        code = run_cli(
            "mpr-export", "--volume", str(dataset_dir / "vol_p000_v0.vhdr"),
            "--planes", str(dataset_dir / "vol_p000_v0.planes"), "--size", "32",
            "--out", str(out),
        )
        assert code == 0
        files = sorted(os.listdir(out))
        assert [f for f in files if f.endswith(".pgm")] == ["axial.pgm", "coronal.pgm", "sagittal.pgm"]
        blob = (out / "axial.pgm").read_bytes()
        assert blob.startswith(b"P5\n32 32\n255\n")

    @pytest.mark.parametrize(
        "option,value,named",
        [
            ("--size", "0", "--size"),
            ("--size", "-5", "--size"),
            ("--px-spacing", "0", "px_spacing"),
            ("--px-spacing", "nan", "px_spacing"),
            ("--px-spacing", "-1", "px_spacing"),
            ("--px-spacing", "inf", "px_spacing"),
        ],
    )
    def test_mpr_export_rejects_bad_size_or_spacing(self, dataset_dir, tmp_path, capsys, option, value, named):
        out = tmp_path / "slices"
        code = run_cli(
            "mpr-export", "--volume", str(dataset_dir / "vol_p000_v0.vhdr"),
            "--planes", str(dataset_dir / "vol_p000_v0.planes"), option, value,
            "--out", str(out),
        )
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_xval_writes_fold_reports(self, dataset_dir, tmp_path):
        out = tmp_path / "xval"
        code = run_cli(
            "xval", "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out),
            "--folds", "0", "--seed", "0", *TRAIN_OVERRIDES,
        )
        assert code == 0
        assert (out / "fold0" / "report.csv").exists()
        assert (out / "summary.csv").exists()


class TestHelpAndErrors:
    @pytest.mark.parametrize("command,schema", [("train", EXPERIMENT_SCHEMA), ("xval", EXPERIMENT_SCHEMA), ("ablate", EXPERIMENT_SCHEMA), ("phantom-gen", PHANTOM_SCHEMA)])
    def test_help_documents_every_config_key(self, command, schema, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        documented = {line.strip().split(" ")[0] for line in text.splitlines() if line.startswith("  ") and "(" in line}
        assert set(schema) <= documented

    def test_unknown_config_key_exits_1(self, dataset_dir, tmp_path, capsys):
        code = run_cli(
            "train", "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(tmp_path / "o"),
            "--set", "bogus_key=1",
        )
        assert code == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_missing_manifest_exits_1(self, tmp_path):
        code = run_cli("train", "--manifest", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o"), *TRAIN_OVERRIDES)
        assert code == 1

    def test_malformed_config_exits_1(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs ten\n")
        code = run_cli("train", "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(tmp_path / "o"), "--config", str(cfg))
        assert code == 1
        assert "bad.cfg:1" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        assert run_cli("ablate", "--axis", "bogus", "--manifest", "m", "--out", "o") == 1

    def test_missing_subcommand_exits_1(self):
        assert run_cli() == 1

    def test_diverged_training_exits_2(self, dataset_dir, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = run_cli(
                "train", "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(tmp_path / "d"),
                *TRAIN_OVERRIDES, "--set", "lr=1e30", "--set", "epochs=2",
            )
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_manifest_mode_mismatch_exits_1(self, tmp_path, capsys):
        data = tmp_path / "calcaneus"
        code = run_cli(
            "phantom-gen", "--out", str(data), "--set", "mode=calcaneus",
            "--set", "n_patients=1", "--set", "dims=16", "--set", "spacing=10.0",
        )
        assert code == 0
        code = run_cli(
            "train", "--manifest", str(data / "manifest.txt"), "--out", str(tmp_path / "m"),
            *TRAIN_OVERRIDES, "--set", "mode=ankle",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "'ankle'" in err and "'calcaneus'" in err

    @pytest.mark.parametrize("damage", ["truncated", "trailing"])
    def test_damaged_checkpoint_exits_1(self, dataset_dir, trained_dir, tmp_path, capsys, damage):
        raw = (trained_dir / "checkpoint.bin").read_bytes()
        path = tmp_path / "damaged.bin"
        path.write_bytes(raw[: len(raw) // 2] if damage == "truncated" else raw + b"\0")
        code = run_cli(
            "eval", "--checkpoint", str(path), "--manifest", str(dataset_dir / "manifest.txt"),
            "--out", str(tmp_path / "e"),
        )
        assert code == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "infer"])
    @pytest.mark.parametrize("case", ["no_experiment", "encoding_mismatch"])
    def test_checkpoint_config_mismatch_exits_1(self, dataset_dir, tmp_path, capsys, command, case):
        # both encodings have 9 values per plane, so only the stored config tells them apart
        cfg = ExperimentConfig(out_dims=16, out_spacing=10.0, channels=(2, 4), fc_widths=(16,), representation="euler_sincos")
        net = PlaneRegressionNet(replace(cfg.network_config(), representation=RotationKind.SIXD), rng=np.random.default_rng(0))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, net, extra={"experiment": cfg.to_values()} if case == "encoding_mismatch" else None)
        source = ["--manifest", str(dataset_dir / "manifest.txt")] if command == "eval" else ["--volume", str(dataset_dir / "vol_p000_v0.vhdr")]
        code = run_cli(command, "--checkpoint", str(path), *source, "--out", str(tmp_path / "o"))
        assert code == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("folds", ["0,5", "1,1"])
    @pytest.mark.parametrize("command", ["xval", "ablate"])
    def test_bad_folds_exit_1_before_any_output(self, dataset_dir, tmp_path, capsys, command, folds):
        axis = ["--axis", "representation"] if command == "ablate" else []
        out = tmp_path / "o"
        code = run_cli(
            command, *axis, "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out),
            "--folds", folds, *TRAIN_OVERRIDES,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"[{folds.replace(',', ', ')}]" in err and "k=2" in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["xval", "ablate"])
    def test_bad_jobs_exit_1_before_any_output(self, dataset_dir, tmp_path, capsys, command, jobs):
        axis = ["--axis", "representation"] if command == "ablate" else []
        out = tmp_path / "o"
        code = run_cli(
            command, *axis, "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out),
            f"--jobs={jobs}", *TRAIN_OVERRIDES,
        )
        assert code == 1
        assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,override,key",
        [
            ("train", "batch_size=0", "batch_size"),
            ("train", "epochs=-1", "epochs"),
            ("train", "step_size=0", "step_size"),
            ("xval", "k=1", "k"),
            ("train", "seed=-1", "seed"),
            ("xval", "seed=-1", "seed"),
        ],
    )
    def test_integer_keys_range_checked_before_any_output(self, dataset_dir, tmp_path, capsys, command, override, key):
        out = tmp_path / "o"
        code = run_cli(
            command, "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out),
            *TRAIN_OVERRIDES, "--set", override,
        )
        assert code == 1
        assert f"{key} must be at least" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,override",
        [
            ("train", "alpha=0.9"),
            ("xval", "out_spacing=0"),
            ("xval", "scale_hi=1.5"),
            ("ablate", "channels=2,4,8,16,32"),
        ],
    )
    def test_experiment_values_checked_before_any_output(self, dataset_dir, tmp_path, capsys, command, override):
        out = tmp_path / "o"
        axis = ["--axis", "representation"] if command == "ablate" else []
        code = run_cli(
            command, *axis, "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out),
            *TRAIN_OVERRIDES, "--set", override,
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,override,key",
        [
            ("train", "out_spacing=0", "out_spacing"),
            ("train", "out_dims=1", "out_dims"),
            pytest.param("train", f"out_dims=1{'0' * 330}", "out_dims", id="train-out_dims=1e330-out_dims"),
            ("train", "channels=2,4,8,16,32", "out_dims"),
            ("train", "scale_hi=1.5", "scale_hi"),
            ("xval", "scale_lo=0.5", "scale_lo"),
            ("train", "intensity_hi=1.5", "intensity_hi"),
            ("train", "rot_deg=-1", "rot_deg"),
            ("train", "trans_mm=-1", "trans_mm"),
            ("ablate", "mirror_prob=2", "mirror_prob"),
            *[("train", f"{key}={value}", key)
              for key in ("alpha", "beta", "gamma", "lr", "decay", "momentum")
              for value in ("nan", "inf", "-inf")],
            ("train", "out_spacing=nan", "out_spacing"),
            ("xval", "out_spacing=inf", "out_spacing"),
            ("train", "out_spacing=1e308", "out_spacing"),
            ("train", "rot_deg=nan", "rot_deg"),
            ("ablate", "rot_deg=inf", "rot_deg"),
            ("train", "rot_deg=1e308", "rot_deg"),
            ("train", "trans_mm=nan", "trans_mm"),
            ("xval", "trans_mm=inf", "trans_mm"),
            ("train", "trans_mm=1e308", "trans_mm"),
            ("train", "lr=-0.1", "lr"),
            ("xval", "decay=-0.5", "decay"),
            ("ablate", "momentum=-0.5", "momentum"),
            ("ablate", "seed=-1", "seed"),
            ("train", "fc_widths=0", "fc_widths"),
            ("xval", "fc_widths=16,-3", "fc_widths"),
        ],
    )
    def test_derived_config_errors_name_the_experiment_key(self, dataset_dir, tmp_path, capsys, command, override, key):
        out = tmp_path / "o"
        axis = ["--axis", "representation"] if command == "ablate" else []
        code = run_cli(
            command, *axis, "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out),
            *TRAIN_OVERRIDES, "--set", override,
        )
        err = capsys.readouterr().err
        assert code == 1
        assert key in err
        # names that are not config keys
        assert not any(name in err for name in ("in_dims", "scale_range", "intensity_range", "output grid"))
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,override,message",
        [
            ("train", "mode=calcaneus", "manifest mode 'ankle'"),
            ("xval", "mode=calcaneus", "manifest mode 'ankle'"),
            ("ablate", "mode=calcaneus", "manifest mode 'ankle'"),
            ("xval", "k=5", "k=5 patients, got 4"),
            ("ablate", "k=5", "k=5 patients, got 4"),
        ],
    )
    def test_manifest_checked_against_config_before_any_output(self, dataset_dir, tmp_path, capsys, command, override, message):
        out = tmp_path / "o"
        axis = ["--axis", "representation"] if command == "ablate" else []
        code = run_cli(
            command, *axis, "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out),
            *TRAIN_OVERRIDES, "--set", override,
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "xval"])
    def test_empty_manifest_exits_1_before_any_output(self, trained_dir, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# no volumes\n", encoding="ascii")
        out = tmp_path / "o"
        source = ["--checkpoint", str(trained_dir / "checkpoint.bin")] if command == "eval" else TRAIN_OVERRIDES
        code = run_cli(command, "--manifest", str(manifest), "--out", str(out), *source)
        assert code == 1
        assert f"{manifest}: the manifest lists no volumes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "xval"])
    @pytest.mark.parametrize(
        "lines,lineno,message",
        [
            (["vol_p000_v0 0 metal foot"], 1, "unknown mode 'foot'"),
            (["vol_p000_v0 0 metal ankle", "vol_p001_v0 x no_metal ankle"], 2, "invalid literal for int()"),
            (["# header", "vol_p000_v0 0 steel ankle"], 2, "unknown origin class 'steel'"),
            (["vol_p000_v0 0 metal ankle", "vol_p000_v0 1 metal ankle"], 2, "'vol_p000_v0' is already listed on line 1"),
            (["vol_p000_v0 0 metal ankle", "vol_p000_v0 0 metal ankle"], 2, "'vol_p000_v0' is already listed on line 1"),
        ],
        ids=["unknown-mode", "bad-patient", "unknown-class", "path-under-two-patients", "repeated-line"],
    )
    def test_malformed_manifest_line_exits_1_before_any_output(
        self, trained_dir, tmp_path, capsys, command, lines, lineno, message
    ):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(line + "\n" for line in lines), encoding="ascii")
        out = tmp_path / "o"
        source = ["--checkpoint", str(trained_dir / "checkpoint.bin")] if command == "eval" else TRAIN_OVERRIDES
        code = run_cli(command, "--manifest", str(manifest), "--out", str(out), *source)
        assert code == 1
        err = capsys.readouterr().err
        assert f"{manifest}:{lineno}: " in err and message in err
        assert not out.exists()

    def test_non_integer_fold_names_option(self, dataset_dir, tmp_path, capsys):
        code = run_cli(
            "xval", "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(tmp_path / "o"),
            "--folds", "x", *TRAIN_OVERRIDES,
        )
        assert code == 1
        assert "--folds" in capsys.readouterr().err

    def test_xval_prints_selected_fold_number(self, dataset_dir, tmp_path, capsys):
        code = run_cli(
            "xval", "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(tmp_path / "o"),
            "--folds", "2", *TRAIN_OVERRIDES, "--set", "k=3",
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("fold mean row 2: ")

    @pytest.mark.parametrize(
        "overrides,key",
        [
            (["trunc_lo=0.9", "trunc_hi=0.5"], "trunc_lo"),
            (["trunc_hi=1.5"], "trunc_hi"),
            (["trunc_lo=0"], "trunc_lo"),
            (["metal_fraction=1.5"], "metal_fraction"),
            (["metal_fraction=-0.5"], "metal_fraction"),
            (["dims=0"], "dims"),
            (["spacing=0"], "spacing"),
            (["pose_rot_deg=-5"], "pose_rot_deg"),
            (["pose_trans_mm=-1"], "pose_trans_mm"),
            (["dims=1"], "dims"),
            (["spacing=inf"], "spacing"),
            (["pose_rot_deg=inf"], "pose_rot_deg"),
            (["pose_trans_mm=inf"], "pose_trans_mm"),
            (["pose_trans_mm=1e308"], "pose_trans_mm"),
            (["pose_rot_deg=1e308"], "pose_rot_deg"),
            (["seed=-1"], "seed"),
        ],
    )
    def test_phantom_bounds_named(self, tmp_path, capsys, overrides, key):
        out = tmp_path / "data"
        sets = [arg for item in overrides for arg in ("--set", item)]
        code = run_cli("phantom-gen", "--out", str(out), "--set", "n_patients=1", "--set", "dims=16", *sets)
        assert code == 1
        assert key in capsys.readouterr().err
        assert not out.exists()
