import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planereg import engine
from planereg.engine import Tensor
from planereg.geometry import RotationKind
from planereg.loss_metrics import LossWeights, loss_graph
from planereg.model import (
    NetworkConfig,
    PlaneRegressionNet,
    SGDMomentum,
    he_init,
    load_checkpoint,
    output_layout,
    save_checkpoint,
    sgd_momentum_step,
    step_decay,
)


class TestOutputLayout:
    def test_quaternion_combined(self):
        assert output_layout(RotationKind.QUATERNION, 3, True) == 21

    def test_sixd_combined(self):
        assert output_layout(RotationKind.SIXD, 3, True) == 27

    def test_sixd_separate(self):
        assert output_layout(RotationKind.SIXD, 1, False) == 9

    def test_euler_combined(self):
        assert output_layout(RotationKind.EULER_SINCOS, 3, True) == 27

    def test_rejects_zero_planes(self):
        with pytest.raises(ValueError):
            output_layout(RotationKind.SIXD, 0, True)


class TestHeInit:
    def test_std_matches_fan_in(self):
        rng = np.random.default_rng(0)
        w = he_init((100_000,), fan_in=200, rng=rng, dtype=np.float64)
        want = np.sqrt(2.0 / 200.0)
        assert abs(w.std() - want) / want < 0.05
        assert abs(w.mean()) < 0.01

    def test_seed_reproducible(self):
        a = he_init((64, 32), 32, np.random.default_rng(7))
        b = he_init((64, 32), 32, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_rejects_bad_fan_in(self):
        with pytest.raises(ValueError):
            he_init((4,), 0, np.random.default_rng(0))

    def test_network_biases_zero(self):
        net = _tiny_net()
        for name, p in net.named_parameters():
            if name.endswith("bias"):
                assert np.all(p.data == 0.0)


def _tiny_net(kind=RotationKind.SIXD, dtype=np.float32, seed=0):
    cfg = NetworkConfig(
        representation=kind, n_planes=3, combined=True, in_dims=8, channels=(4, 8), fc_widths=(16,)
    )
    return PlaneRegressionNet(cfg, rng=np.random.default_rng(seed), dtype=dtype)


class TestNetworkConfig:
    def test_default_matches_72_grid(self):
        cfg = NetworkConfig(in_dims=72)
        assert cfg.flatten_dim == 2**3 * 128

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(in_dims=16)  # five poolings need >= 32


class TestForward:
    def test_zero_input_returns_final_bias(self):
        net = _tiny_net()
        bias = np.arange(net.config.n_out, dtype=np.float32) * 0.1
        net.fcs[-1].bias.data = bias.copy()
        out = net.predict(np.zeros((8, 8, 8), dtype=np.float32))
        assert np.allclose(out, bias)

    def test_output_shape(self):
        net = _tiny_net(kind=RotationKind.QUATERNION)
        out = net.predict(np.random.default_rng(0).uniform(0, 1, (2, 8, 8, 8)))
        assert out.shape == (2, output_layout(RotationKind.QUATERNION, 3, True))

    def test_head_is_linear(self):
        net = _tiny_net()
        x = np.random.default_rng(1).uniform(0, 1, (8, 8, 8)).astype(np.float32)
        base = net.predict(x)
        # find a penultimate feature that is active for this input
        t = Tensor(net._canonical_input(x))
        for conv in net.convs:
            t = engine.maxpool3d(engine.relu(conv(t)))
        t = engine.reshape(t, (1, -1))
        for fc in net.fcs[:-1]:
            t = engine.relu(fc(t))
        feat = t.data[0]
        j = int(np.argmax(np.abs(feat)))
        assert feat[j] != 0.0
        net.fcs[-1].weight.data[j, 5] *= 2.0
        out = net.predict(x)
        changed = np.nonzero(out != base)[0]
        assert np.array_equal(changed, [5])

    def test_batch_composition_invariance(self):
        net = _tiny_net()
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (4, 8, 8, 8)).astype(np.float32)
        full = net.predict(x)
        single = np.stack([net.predict(x[i]) for i in range(4)])
        assert np.max(np.abs(full - single)) < 1e-5

    def test_shape_mismatch_rejected(self):
        net = _tiny_net()
        with pytest.raises(ValueError):
            net.predict(np.zeros((9, 9, 9)))
        with pytest.raises(ValueError):
            net.predict(np.zeros((2, 3, 8, 8, 8)))


class TestBackward:
    def test_gradcheck_through_loss_and_network(self):
        # double precision end-to-end check on a handful of parameters
        net = _tiny_net(dtype=np.float64, seed=3)
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (2, 1, 8, 8, 8))
        target = rng.uniform(-0.7, 0.7, (2, net.config.n_out))
        weights = LossWeights(0.45, 0.45, 0.1)

        def f():
            out = net.forward(x)
            return loss_graph(out, target, weights, RotationKind.SIXD, 3)

        node = f()
        node.backward()
        grads = {name: p.grad.copy() for name, p in net.named_parameters()}

        h = 1e-6
        checked = 0
        for name, p in net.named_parameters():
            flat = p.data.reshape(-1)
            for k in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[k]
                flat[k] = orig + h
                up = f().item()
                flat[k] = orig - h
                dn = f().item()
                flat[k] = orig
                fd = (up - dn) / (2 * h)
                an = grads[name].reshape(-1)[k]
                denom = max(abs(fd), abs(an), 1e-10)
                assert abs(fd - an) / denom < 1e-5, f"{name}[{k}]: fd={fd} analytic={an}"
                checked += 1
        assert checked >= 20

    def test_constant_loss_zero_gradients(self):
        net = _tiny_net(dtype=np.float64)
        out = net.forward(np.random.default_rng(5).uniform(0, 1, (1, 1, 8, 8, 8)))
        node = engine.tsum(engine.mul(out, 0.0))
        node.backward()
        for _, p in net.named_parameters():
            assert p.grad is None or np.all(p.grad == 0.0)

    def test_backward_without_forward_raises(self):
        t = Tensor(np.zeros(()), requires_grad=True)
        with pytest.raises(RuntimeError):
            t.backward()

    def test_double_backward_raises(self):
        a = Tensor(np.array(2.0), requires_grad=True)
        node = engine.mul(a, a)
        node.backward()
        with pytest.raises(RuntimeError):
            node.backward()

    def test_identical_batch_rows_get_identical_gradients(self):
        net = _tiny_net(dtype=np.float64, seed=6)
        x1 = np.random.default_rng(7).uniform(0, 1, (1, 1, 8, 8, 8))
        x = np.concatenate([x1, x1], axis=0)
        out = net.forward(x)
        t = Tensor(out.data.copy())  # constant
        node = engine.tsum(engine.mul(out - t, out - t))
        node.backward()
        # per-sample symmetry: gradient contributions of both rows are equal,
        # so doubling one sample equals the two-sample batch
        g2 = {n: p.grad.copy() for n, p in net.named_parameters() if p.grad is not None}
        net.zero_grad()
        out1 = net.forward(x1)
        node1 = engine.tsum(engine.mul(out1 - Tensor(t.data[:1]), out1 - Tensor(t.data[:1])))
        node1.backward()
        for n, p in net.named_parameters():
            if p.grad is not None:
                assert np.allclose(2.0 * p.grad, g2[n], rtol=1e-10, atol=1e-12)


class TestEngineOps:
    def test_broadcast_add_backward(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((1, 4)), requires_grad=True)
        engine.tsum(engine.add(a, b)).backward()
        assert a.grad.shape == (3, 4) and np.all(a.grad == 1)
        assert b.grad.shape == (1, 4) and np.all(b.grad == 3)

    def test_fancy_index_backward_accumulates(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        node = engine.tsum(a[[0, 0, 2]])
        node.backward()
        assert np.array_equal(a.grad, [2.0, 0.0, 1.0, 0.0])

    def test_sqrt_subgradient_at_zero(self):
        a = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        engine.tsum(engine.sqrt(a)).backward()
        assert np.array_equal(a.grad, [0.0, 0.25])

    def test_no_grad_mode(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with engine.no_grad():
            out = engine.mul(a, 2.0)
        assert not out.requires_grad
        with pytest.raises(RuntimeError):
            engine.tsum(out).backward()

    def test_pool_then_relu_bitwise_equals_relu_then_pool(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal((2, 3, 4, 4, 6)).astype(np.float32)
        y[0, 0, :2, :2, :2] = -rng.uniform(0.5, 2.0, (2, 2, 2))  # all negative
        y[0, 1, :2, :2, :2] = -1.0
        y[0, 1, 1, 0, 1] = 0.0  # maximum 0, away from the block's first voxel
        y[0, 2, :2, :2, :2] = -1.0
        y[0, 2, 0, 1, 1] = y[0, 2, 1, 0, 0] = 1.5  # a tie at a positive maximum
        y[1, 0, :2, :2, :2] = 0.0  # an all-zero block
        g = rng.standard_normal((2, 3, 2, 2, 3)).astype(np.float32)
        g[:, :, 0, 0, 0] = -np.abs(g[:, :, 0, 0, 0])  # negative gradient on every special block

        def run(first, second):
            t = Tensor(y.copy(), requires_grad=True)
            out = second(first(t))
            engine.tsum(engine.mul(out, g)).backward()
            return out.data, t.grad

        pool_first = run(engine.maxpool3d, engine.relu)
        relu_first = run(engine.relu, engine.maxpool3d)
        assert pool_first[0].tobytes() == relu_first[0].tobytes()
        assert pool_first[1].tobytes() == relu_first[1].tobytes()
        assert not np.any(pool_first[1][0, :2, :2, :2, :2])
        assert pool_first[1][0, 2, 0, 1, 1] == g[0, 2, 0, 0, 0] and pool_first[1][0, 2, 1, 0, 0] == 0.0

    def test_maxpool_matches_block_max(self):
        from planereg import _kernels

        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 7, 6, 5))  # odd dims exercise cropping
        out = _kernels.maxpool3d_forward(x)
        B, C, D, H, W = x.shape
        blocks = (
            x[:, :, :6, :6, :4]
            .reshape(B, C, 3, 2, 3, 2, 2, 2)
            .transpose(0, 1, 2, 4, 6, 3, 5, 7)
            .reshape(B, C, 3, 3, 2, 8)
        )
        assert np.array_equal(out, blocks.max(axis=-1))
        g = rng.standard_normal(out.shape)
        gx = _kernels.maxpool3d_backward(x, out, g)
        assert gx.shape == x.shape
        assert np.allclose(gx.sum(), g.sum())
        # gradient lands only on maximal entries
        nz = np.nonzero(gx)
        assert len(nz[0]) == g.size


class TestOptimizer:
    def test_momentum_zero_is_plain_sgd(self):
        p = np.array([1.0, 2.0])
        v = np.zeros(2)
        sgd_momentum_step(p, np.array([0.5, -0.5]), v, lr=0.1, momentum=0.0)
        assert np.allclose(p, [0.95, 2.05])

    def test_zero_grad_zero_velocity_is_noop(self):
        p = np.array([1.0])
        sgd_momentum_step(p, np.zeros(1), np.zeros(1), lr=0.1, momentum=0.9)
        assert p[0] == 1.0

    def test_two_steps_hand_recursion(self):
        # v1 = g, p -= g; v2 = 0.9 g + g, p -= 1.9 g; total 2.9 g
        g = np.array([1.0])
        p = np.array([10.0])
        v = np.zeros(1)
        sgd_momentum_step(p, g, v, lr=1.0, momentum=0.9)
        sgd_momentum_step(p, g, v, lr=1.0, momentum=0.9)
        assert p[0] == pytest.approx(10.0 - 2.9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sgd_momentum_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9)

    def test_step_decay_schedule(self):
        assert step_decay(0.1, 0.5, 100, 0) == pytest.approx(0.1)
        assert step_decay(0.1, 0.5, 100, 99) == pytest.approx(0.1)
        assert step_decay(0.1, 0.5, 100, 100) == pytest.approx(0.05)
        assert step_decay(0.1, 0.5, 100, 250) == pytest.approx(0.025)

    def test_optimizer_matches_functional_steps(self):
        net = _tiny_net(seed=10)
        opt = SGDMomentum(net, lr=0.05, momentum=0.9)
        name0, p0 = net.named_parameters()[0]
        ref_p = p0.data.copy()
        ref_v = np.zeros_like(ref_p)
        for _ in range(3):
            g = np.full_like(p0.data, 0.25)
            p0.grad = g.copy()
            opt.step()
            opt.zero_grad()
            sgd_momentum_step(ref_p, g, ref_v, 0.05, 0.9)
        assert np.allclose(p0.data, ref_p)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = _tiny_net(seed=11)
        x = np.random.default_rng(12).uniform(0, 1, (8, 8, 8)).astype(np.float32)
        before = net.predict(x)
        save_checkpoint(tmp_path / "ck.bin", net, extra={"note": "t"})
        net2, extra = load_checkpoint(tmp_path / "ck.bin")
        assert extra == {"note": "t"}
        assert net2.config == net.config
        assert np.allclose(net2.predict(x), before, atol=1e-7)
        for (n1, p1), (n2, p2) in zip(net.named_parameters(), net2.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data.astype(np.float32), p2.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(b"NOTACKPT" + b"\0" * 32)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, _tiny_net(seed=11))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: truncated checkpoint"):
            load_checkpoint(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, _tiny_net(seed=11))
        path.write_bytes(path.read_bytes().replace(b'"network"', b'"networx"', 1))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: corrupt checkpoint header"):
            load_checkpoint(path)

    def test_unknown_network_key_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, _tiny_net(seed=11))
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[12:16])
        meta = json.loads(raw[16 : 16 + hlen])
        meta["network"]["dropout"] = 0.5
        header = json.dumps(meta, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:12] + struct.pack("<I", len(header)) + header + raw[16 + hlen :])
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: corrupt checkpoint header"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, _tiny_net(seed=11))
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: trailing bytes"):
            load_checkpoint(path)


@st.composite
def small_configs(draw):
    channels = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    return NetworkConfig(
        representation=draw(st.sampled_from(list(RotationKind))),
        n_planes=draw(st.integers(1, 3)),
        combined=draw(st.booleans()),
        in_dims=draw(st.integers(2 ** len(channels), 8)),
        channels=channels,
        fc_widths=tuple(draw(st.lists(st.integers(1, 8), max_size=2))),
    )


JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.text(max_size=8)


class TestCheckpointProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        config=small_configs(),
        bits_seed=st.integers(0, 2**32 - 1),
        extra=st.dictionaries(st.text(max_size=8), JSON_LEAVES | st.lists(JSON_LEAVES, max_size=3), max_size=3),
        data=st.data(),
    )
    def test_round_trip_is_bitwise_and_every_cut_is_named(self, config, bits_seed, extra, data):
        net = PlaneRegressionNet(config, rng=None)
        rng = np.random.default_rng(bits_seed)
        for _, p in net.named_parameters():
            # arbitrary bit patterns: NaN payloads, infinities, subnormals, signed zeros
            p.data = rng.integers(0, 2**32, p.data.shape, dtype=np.uint32).view(np.float32)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ck.bin")
            save_checkpoint(path, net, extra=extra)
            loaded, loaded_extra = load_checkpoint(path)
            assert loaded.config == config
            assert loaded_extra == extra
            assert [n for n, _ in loaded.named_parameters()] == [n for n, _ in net.named_parameters()]
            for (_, p), (_, q) in zip(net.named_parameters(), loaded.named_parameters()):
                assert q.data.dtype == np.float32 and q.data.tobytes() == p.data.tobytes()
            with open(path, "rb") as fh:
                raw = fh.read()
            cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
            with open(path, "wb") as fh:
                fh.write(raw[:cut])
            with pytest.raises(ValueError, match=re.escape(path)):
                load_checkpoint(path)
