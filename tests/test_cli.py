import os

import numpy as np
import pytest

from planereg.cli import PHANTOM_SCHEMA, build_parser, main
from planereg.config import (
    ConfigError,
    Field,
    format_config,
    read_config_file,
    resolve,
)
from planereg.geometry import read_plane_file
from planereg.harness import EXPERIMENT_SCHEMA


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


class TestConfigFormat:
    def test_round_trip(self, tmp_path):
        schema = {"a": Field("int", 1, "an int"), "b": Field("float", 0.5, "a float"), "c": Field("bool", True, "flag")}
        values = resolve(schema, None, {"a": "7", "c": "false"})
        path = tmp_path / "c.cfg"
        path.write_text(format_config(values))
        again = resolve(schema, read_config_file(path), None)
        assert again == {"a": 7, "b": 0.5, "c": False}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            resolve({"a": Field("int", 1, "")}, None, {"bogus": "1"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="`a`"):
            resolve({"a": Field("int", 1, "")}, None, {"a": "xyz"})

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a pair\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            read_config_file(path)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nx = 5  # inline\n")
        assert read_config_file(path) == {"x": "5"}

    def test_ints_parsing(self):
        schema = {"ch": Field("ints", (1, 2), "")}
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

    def test_eval_writes_report(self, dataset_dir, trained_dir, tmp_path):
        out = tmp_path / "eval"
        code = run_cli(
            "eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--manifest", str(dataset_dir / "manifest.txt"), "--out", str(out),
        )
        assert code == 0
        report = (out / "report.csv").read_text().strip().split("\n")
        assert report[0] == "plane,d_mm,eps_n_deg,eps_i_deg,score"
        assert len(report) == 5  # three planes + mean

    def test_infer_emits_plane_file(self, dataset_dir, trained_dir, tmp_path):
        out_file = tmp_path / "pred.planes"
        code = run_cli(
            "infer", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--volume", str(dataset_dir / "vol_p000_v0.vhdr"), "--out", str(out_file),
        )
        assert code == 0
        planes = read_plane_file(out_file)
        assert list(planes) == ["axial", "sagittal", "coronal"]

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
