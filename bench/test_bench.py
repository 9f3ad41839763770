"""Tests of the benchmark itself: its oracles at toy sizes, the per-layer
derivation, and every workload in smoke mode.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracles
import per_layer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- oracles -------------------------------------------------------------------


def test_conv3d_matches_direct_sum():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 4, 5, 3))
    w = rng.standard_normal((2, 3, 3, 3, 3))
    b = rng.standard_normal(2)
    out = oracles.conv3d(x, w, b)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
    for bi, o, d, h, v in itertools.product(range(2), range(2), range(4), range(5), range(3)):
        expected = b[o] + np.sum(xp[bi, :, d : d + 3, h : h + 3, v : v + 3] * w[o])
        assert out[bi, o, d, h, v] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_maxpool3d_takes_block_maxima_and_drops_odd_tails():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 5, 4, 6))
    out = oracles.maxpool3d(x)
    assert out.shape == (1, 2, 2, 2, 3)
    for c, d, h, v in itertools.product(range(2), range(2), range(2), range(3)):
        assert out[0, c, d, h, v] == x[0, c, 2 * d : 2 * d + 2, 2 * h : 2 * h + 2, 2 * v : 2 * v + 2].max()


def test_forward_applies_blocks_then_linear_head():
    rng = np.random.default_rng(2)
    params = {
        "conv0.weight": rng.standard_normal((2, 1, 3, 3, 3)), "conv0.bias": rng.standard_normal(2),
        "fc0.weight": rng.standard_normal((2 * 8, 3)), "fc0.bias": rng.standard_normal(3),
        "fc1.weight": rng.standard_normal((3, 4)), "fc1.bias": rng.standard_normal(4),
    }
    x = rng.standard_normal((2, 4, 4, 4))
    hidden = oracles.maxpool3d(np.maximum(oracles.conv3d(x[:, None], params["conv0.weight"], params["conv0.bias"]), 0))
    hidden = np.maximum(hidden.reshape(2, -1) @ params["fc0.weight"] + params["fc0.bias"], 0)
    expected = hidden @ params["fc1.weight"] + params["fc1.bias"]
    np.testing.assert_allclose(oracles.forward(params, x), expected, rtol=1e-12)


def test_trilinear_point_reproduces_affine_fields_and_fills_outside():
    spacing = (2.0, 1.0, 0.5)
    shape = (4, 5, 6)
    axes = [(np.arange(n) - (n - 1) / 2.0) * s for n, s in zip(shape, spacing)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    values = 3.0 * gx - 2.0 * gy + 0.5 * gz + 7.0
    rng = np.random.default_rng(3)
    half = [(n - 1) / 2.0 * s for n, s in zip(shape, spacing)]
    pts = rng.uniform(-1, 1, size=(50, 3)) * half
    for p in pts:
        assert oracles.trilinear_point(values, spacing, p) == pytest.approx(3 * p[0] - 2 * p[1] + 0.5 * p[2] + 7, abs=1e-9)
    corner = [-h for h in half]
    assert oracles.trilinear_point(values, spacing, corner) == pytest.approx(values[0, 0, 0])
    assert oracles.trilinear_point(values, spacing, [half[0] + 0.01, 0, 0]) == oracles.FILL_HU


def test_mpr_points_put_row_zero_at_the_top():
    pts = oracles.mpr_points(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), [0, 2], [0, 2], 3, 1.0)
    np.testing.assert_allclose(pts, [[-1, 1, 0], [1, -1, 0]])


def test_window_and_quantize():
    lo, hi, gain = -500.0, 1000.0, 4.0
    assert oracles.window(250.0, lo, hi, gain) == pytest.approx(0.5)
    assert oracles.window(-9999.0, lo, hi, gain) == pytest.approx(1 / (1 + np.exp(2.0)))
    assert list(oracles.quantize([0.0, 0.5, 1.0, 1.5])) == [0, 128, 255, 255]


def test_read_raw_volume_is_x_fastest(tmp_path):
    stem = str(tmp_path / "v")
    values = np.arange(2 * 3 * 4, dtype="<i2").reshape(2, 3, 4)
    with open(stem + ".vhdr", "w") as fh:
        fh.write("dims: 2 3 4\nspacing_mm: 1 2 3\ndtype: int16le\n")
    values.transpose(2, 1, 0).tofile(stem + ".vraw")
    got, spacing = oracles.read_raw_volume(stem)
    np.testing.assert_array_equal(got, values)
    assert spacing == (1.0, 2.0, 3.0)


# -- per-layer derivation ------------------------------------------------------


def test_self_time_subtracts_direct_children():
    # id, name, start, end, parent, request, attrs
    spans = [
        [0, "bench.op", 0.0, 10.0, None, "op0", None],
        [1, "engine.backward", 1.0, 5.0, 0, "op0", None],
        [2, "engine.conv3d.bwd", 1.5, 2.5, 1, "op0", {"block": 0, "flops": 4e9}],
        [3, "engine.add.bwd", 3.0, 3.5, 1, "op0", None],
    ]
    counts = {"volume.interp_passes": 1.0, "augmentation.out_of_cube": 0.0,
              "loss_metrics.degenerate_normals": 0.0, "model.checkpoint_bytes": 10}
    out = per_layer.derive(spans, counts, 1.5)
    assert out["engine.backward.self_ms"] == pytest.approx(2500.0)
    assert out["engine.conv3d.bwd_ms.b0"] == pytest.approx(1000.0)
    assert out["engine.conv3d.gflops"] == pytest.approx(4.0)
    assert out["trace.overhead_pct"] == 1.5


def test_per_layer_names_match_benchmark_json():
    spec = _spec()
    assert [m["name"] for m in spec["per_layer"]] == per_layer.metric_names()
    assert all(m["unit"] == per_layer.unit(m["name"]) for m in spec["per_layer"])


# -- workloads -----------------------------------------------------------------


def _run(cwd, *args, timeout=180):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train-paper", "infer-clinical", "xval-calcaneus"])
def test_smoke_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = _spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "train-paper", "--seed", "1", "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
