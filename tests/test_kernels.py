"""The fused conv-block kernels against direct loop references, inline and pooled, and the engine's reference ops."""

import itertools
import threading
import time

import numpy as np
import pytest

from conftest import force_dispatch
from planereg import _kernels, engine
from planereg.engine import Tensor

TAPS = list(itertools.product(range(3), repeat=3))


def _pad(x):
    return np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))


def _direct_conv(x, w, bias):
    """Sum of the 27 shifted slices of the padded input, one tap at a time."""
    B, C, D, H, W = x.shape
    xpad = _pad(x.astype(np.float64))
    out = np.zeros((B, w.shape[0], D, H, W)) + bias[None, :, None, None, None]
    for o, c, (i, j, k) in itertools.product(range(w.shape[0]), range(C), TAPS):
        out[:, o] += w[o, c, i, j, k] * xpad[:, c, i : i + D, j : j + H, k : k + W]
    return out


def _adjoint_sums(x, w, gout):
    """Weight, bias and input gradients as explicit sums over every tap.

    The input gradient scatters each tap's contribution back into the whole
    padded input, one output channel at a time, while the kernels multiply
    column slabs and scatter one slab of all channels at a time.
    """
    B, C, D, H, W = x.shape
    O = w.shape[0]
    xpad = _pad(x)
    gw = np.zeros(w.shape)
    gxpad = np.zeros(xpad.shape)
    for o, c, (i, j, k) in itertools.product(range(O), range(C), TAPS):
        window = (slice(None), c, slice(i, i + D), slice(j, j + H), slice(k, k + W))
        gw[o, c, i, j, k] = np.sum(gout[:, o] * xpad[window])
        gxpad[window] += w[o, c, i, j, k] * gout[:, o]
    gb = gout.sum(axis=(0, 2, 3, 4))
    return gxpad[:, :, 1:-1, 1:-1, 1:-1], gw, gb


def _first_max_pool(x, gout):
    """Per-block loop: the maximum, and the gradient on its first voxel."""
    B, C, D, H, W = x.shape
    out = np.zeros((B, C, D // 2, H // 2, W // 2), dtype=x.dtype)
    gx = np.zeros(x.shape, dtype=gout.dtype)
    for b, c, d, h, w in itertools.product(*map(range, out.shape)):
        block = [(x[b, c, 2 * d + p, 2 * h + q, 2 * w + r], (2 * d + p, 2 * h + q, 2 * w + r))
                 for p, q, r in itertools.product(range(2), repeat=3)]
        best = max(v for v, _ in block)
        first = next(pos for v, pos in block if v == best)
        out[b, c, d, h, w] = best
        gx[(b, c) + first] = gout[b, c, d, h, w]
    return out, gx


def _direct_block(x, w, bias, gout):
    """A conv block from the loop references, in float64: its output and its input, weight and bias gradients.

    The pooled gradient goes, where the ReLU passes, to each block's first
    maximum of the direct conv output, and back through the adjoint sums.
    """
    x, w, bias, gout = (np.asarray(a, dtype=np.float64) for a in (x, w, bias, gout))
    conv = _direct_conv(x, w, bias)
    pooled = _first_max_pool(conv, gout)[0]
    gconv = _first_max_pool(conv, np.where(pooled > 0, gout, 0.0))[1]
    return (np.maximum(pooled, 0.0), *_adjoint_sums(x, w, gconv))


def _autodiff(op, arrays, g):
    """``op``'s output on ``arrays``, and the gradients of ``sum(op(...) * g)`` with respect to each of them."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*ts)
    engine.tsum(engine.mul(out, g)).backward()
    return out.data, [t.grad for t in ts]


def _reference_ops(x, w, bias, gout):
    """The same block as the engine's reference ops, ``relu(maxpool3d(conv3d(x)))``, through autodiff."""
    out, grads = _autodiff(lambda *ts: engine.relu(engine.maxpool3d(engine.conv3d(*ts))), (x, w, bias), gout)
    return (out, *grads)


def _fused(x, w, bias, gout, need_gx=True):
    """The same block as the fused kernels: its output and its input, weight and bias gradients."""
    out, first = _kernels.conv_block_forward(x, w, bias, record=True)
    return (out, *_kernels.conv_block_backward(x, w, out, first, gout, need_gx))


def _assert_close(got, ref, tol):
    """Each result within ``tol`` of its reference, of its shape; a result that was not asked for is None."""
    for g, r in zip(got, ref):
        if g is None:
            continue
        assert g.shape == r.shape
        np.testing.assert_allclose(g, r, rtol=tol, atol=tol)


def _slab_conv(x, w):
    """The conv output, without the bias, of the ``D // 2 * 2`` depths that the fused block's slabs cover."""
    B, C, D, H, W = x.shape
    out = np.empty((B, w.shape[0], D // 2 * 2, H, W), dtype=x.dtype)

    def consume(s, z0, n, prod):
        out[s, :, z0 : z0 + n] = prod[:, :, :H, :W]

    _kernels._map_forward(x, _kernels._stacked(w, x.dtype), x.dtype, consume)
    return out


def _slab_gradients(x, w, gconv):
    """The input and weight gradients of :func:`_slab_conv` for its output's gradient ``gconv``, summed in sample order."""
    B, C, D, H, W = x.shape
    O = w.shape[0]
    P = (H + 2) * (W + 2)
    wst = _kernels._stacked(w, x.dtype)

    def dense_fill(s):
        def fill(gext, z0, n):
            gext[:, : n * P].reshape(O, n, H + 2, W + 2)[:, :, :H, :W] = gconv[s, :, z0 : z0 + n]

        return fill

    parts = [_kernels._sample_gradients(x[s], wst, dense_fill(s), True, x.dtype) for s in range(B)]
    gw = _kernels._unstacked(_kernels._sum_in_order([p[0] for p in parts]), w.shape)
    return np.stack([p[1] for p in parts]), gw


class Inline:
    """Runs every kernel call inline; a ``Pooled`` subclass sends every call to the pool."""

    POOLED = False

    @pytest.fixture(autouse=True)
    def dispatch(self, monkeypatch):
        force_dispatch(monkeypatch, self.POOLED)


class TestConv(Inline):
    """The fused block against the loop references: the pool of the shifted sums, and the adjoint sums of its routed gradient."""

    def _operands(self, seed, C, dtype=np.float64):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, C, 5, 4, 3)).astype(dtype)  # pools to (2, 2, 1): odd trailing slices on every side
        w = rng.standard_normal((4, C, 3, 3, 3)).astype(dtype)
        bias = rng.standard_normal(4).astype(dtype)
        bias[0] = -1000.0  # the ReLU blocks every output of channel 0
        gout = rng.standard_normal((2, 4, 2, 2, 1)).astype(dtype)
        return x, w, bias, gout

    @pytest.mark.parametrize("C", [1, 3])
    def test_forward_matches_shifted_sum(self, C):
        x, w, bias, gout = self._operands(C, C)
        out, first = _kernels.conv_block_forward(x, w, bias)
        assert out.shape == (2, 4, 2, 2, 1) and out.dtype == np.float64 and first is None
        np.testing.assert_allclose(out, _direct_block(x, w, bias, gout)[0], rtol=1e-12, atol=1e-12)

    def test_float32_forward_close_to_float64_sum(self):
        x, w, bias, gout = self._operands(4, 3, np.float32)
        out = _kernels.conv_block_forward(x, w, bias)[0]
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, _direct_block(x, w, bias, gout)[0], rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("C", [1, 3])
    def test_gradients_match_adjoint_sums(self, C):
        x, w, bias, gout = self._operands(10 + C, C)
        got = _fused(x, w, bias, gout)
        assert np.any(got[0] > 0) and np.any(got[0] == 0)  # the ReLU passes some gradients and blocks others
        _assert_close(got, _direct_block(x, w, bias, gout), 1e-12)

    def test_no_input_gradient_when_not_needed(self):
        x, w, bias, gout = self._operands(20, 3)
        got = _fused(x, w, bias, gout, need_gx=False)
        assert got[1] is None
        _assert_close(got, _direct_block(x, w, bias, gout), 1e-12)

    def test_batch_rows_bitwise_equal_single_samples(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((3, 4, 12, 10, 9)).astype(np.float32)
        w = rng.standard_normal((8, 4, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(8).astype(np.float32)
        gout = rng.standard_normal((3, 8, 6, 5, 4)).astype(np.float32)
        out, gx = _fused(x, w, bias, gout)[:2]
        for s in range(3):
            one = slice(s, s + 1)
            single_out, single_gx = _fused(x[one], w, bias, gout[one])[:2]
            assert single_out.tobytes() == out[one].tobytes()
            assert single_gx.tobytes() == gx[one].tobytes()


class TestConvPooled(TestConv):
    POOLED = True


class TestSlabs(Inline):
    """Odd shapes split into several slabs of output depths, with a shorter tail.

    ``_SLAB`` is set to the buffer of ``DEPTH`` depths: each depth costs
    ``C*9`` column rows and ``3*O`` stacked product rows.  The slabs cover
    the 6 depths that the block pools, each an even number of them, at least
    2: ``SLABS`` is the ``(z0, n)`` schedule that each sample draws in one
    task, from ``_plane_slabs``.  Pooled, on two workers, a single sample's
    forward splits its pooled depths into the two near-equal ranges of
    ``SPLIT`` (2 and 4 depths), whose slabs are drawn at ``_SLAB // 2``.
    """

    SHAPE = (2, 3, 7, 14, 16)  # D = 7: the odd last depth is never computed; H != W
    O = 4
    DEPTH = 3  # rounded down to 2
    SLABS = [(0, 2), (2, 2), (4, 2)]
    SPLIT = [[(0, 2)], [(2, 2), (4, 2)]]

    @pytest.fixture(autouse=True)
    def slabs_of_depth(self, monkeypatch, dispatch):
        _, C, _, H, W = self.SHAPE
        monkeypatch.setattr(_kernels, "_SLAB", self.DEPTH * (C * 9 + 3 * self.O) * (H + 2) * (W + 2))
        drawn = []  # per task: its slabs, and whether it ran on the calling thread
        builder = _kernels._plane_slabs

        def slabs_of(flat, shape, dz, lo, hi):
            slabs = []
            drawn.append((slabs, threading.current_thread() is threading.main_thread()))
            for z0, n, cols in builder(flat, shape, dz, lo, hi):
                slabs.append((z0, n))
                yield z0, n, cols

        monkeypatch.setattr(_kernels, "_plane_slabs", slabs_of)
        yield
        schedules = [self.SLABS] + (self.SPLIT if self.POOLED else [])
        assert drawn and all(slabs in schedules for slabs, _ in drawn)
        on_caller = [inline for _, inline in drawn]
        assert not all(on_caller) if self.POOLED else all(on_caller)

    def _operands(self, seed, B=None, dtype=np.float64):
        rng = np.random.default_rng(seed)
        shape = self.SHAPE if B is None else (B,) + self.SHAPE[1:]
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((self.O, shape[1], 3, 3, 3)).astype(dtype)
        bias = rng.standard_normal(self.O).astype(dtype)
        gout = rng.standard_normal((shape[0], self.O) + tuple(n // 2 for n in shape[2:])).astype(dtype)
        return x, w, bias, gout

    def test_forward_matches_shifted_sum(self):
        x, w, bias, gout = self._operands(50)
        out = _kernels.conv_block_forward(x, w, bias)[0]
        np.testing.assert_allclose(out, _direct_block(x, w, bias, gout)[0], rtol=1e-12, atol=1e-12)

    def test_gradients_match_adjoint_sums(self):
        ops = self._operands(52)
        _assert_close(_fused(*ops), _direct_block(*ops), 1e-12)

    def test_no_input_gradient_when_not_needed(self):
        ops = self._operands(53)
        got = _fused(*ops, need_gx=False)
        assert got[1] is None
        _assert_close(got, _direct_block(*ops), 1e-12)

    @pytest.mark.parametrize("need_gx", [True, False], ids=["gx", "no-gx"])
    def test_float32_gradients_close_to_float64_sums(self, need_gx):
        ops = self._operands(56, dtype=np.float32)
        got = _fused(*ops, need_gx)
        assert all(g.dtype == np.float32 for g in got if g is not None)
        assert (got[1] is None) == (not need_gx)
        # a float32 sum of a few thousand terms of size ~1
        _assert_close(got, _direct_block(*ops), 1e-4)

    def test_batch_rows_bitwise_equal_single_samples(self):
        x, w, bias, _ = self._operands(54, B=3, dtype=np.float32)
        for record in (False, True):
            out, first = _kernels.conv_block_forward(x, w, bias, record)
            for s in range(3):
                one, one_first = _kernels.conv_block_forward(x[s : s + 1], w, bias, record)
                assert one.tobytes() == out[s : s + 1].tobytes()
                if record:
                    assert one_first.tobytes() == first[s : s + 1].tobytes()

    @pytest.mark.parametrize("need_gx", [True, False], ids=["gx", "no-gx"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_block_matches_three_ops(self, dtype, need_gx):
        ops = self._operands(57, dtype=dtype)
        got, ref = _fused(*ops, need_gx), _reference_ops(*ops)
        assert all(g.dtype == r.dtype for g, r in zip(got, ref) if g is not None)
        _assert_close(got, ref, 1e-12 if dtype == np.float64 else 1e-5)

    def test_block_batch_rows_bitwise_equal_single_samples(self):
        x, w, bias, gout = self._operands(58, B=3, dtype=np.float32)
        out, gx = _fused(x, w, bias, gout)[:2]
        for s in range(3):
            one = slice(s, s + 1)
            single_out, single_gx = _fused(x[one], w, bias, gout[one])[:2]
            assert single_out.tobytes() == out[one].tobytes()
            assert single_gx.tobytes() == gx[one].tobytes()


class TestSlabsPooled(TestSlabs):
    POOLED = True


class TestOneDepthSlabs(TestSlabs):
    """A buffer of one depth per slab: the slabs still hold two."""

    DEPTH = 1


class TestOneDepthSlabsPooled(TestOneDepthSlabs):
    POOLED = True


class TestFourDepthSlabs(TestSlabs):
    """Slabs of four depths: the 6 depths that the block pools are not a multiple of them."""

    DEPTH = 4
    SLABS = [(0, 4), (4, 2)]


class TestFourDepthSlabsPooled(TestFourDepthSlabs):
    POOLED = True


def _rel_err(got, ref):
    """The largest absolute difference over the reference's largest magnitude."""
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestFoldedLowering(Inline):
    """Several input channels: each column row serves three k taps, and the last slab is shorter.

    ``_SLAB`` is set for slabs of 4 depths: the 6 depths that the block
    pools make slabs of 4 and 2.  So the last slab's gradient stack reuses
    the rows of a deeper one.
    """

    SHAPE, O = (2, 4, 7, 5, 6), 3

    @pytest.fixture(autouse=True)
    def short_last_slab(self, monkeypatch, dispatch):
        _, C, D, H, W = self.SHAPE
        monkeypatch.setattr(_kernels, "_SLAB", 4 * (C * 9 + 3 * self.O) * (H + 2) * (W + 2))
        assert _kernels._slab_depth(self.SHAPE[1:], self.O, _kernels._SLAB) == (6, 4)

    def test_forward_and_gradients_match_adjoint_sums(self):
        # the slabs' conv and its gradients for a gradient on every conv output, not only on each block's first maximum
        rng = np.random.default_rng(80)
        x = rng.standard_normal(self.SHAPE)
        w = rng.standard_normal((self.O, self.SHAPE[1], 3, 3, 3))
        gconv = rng.standard_normal((2, self.O, 6) + self.SHAPE[3:])
        assert _rel_err(_slab_conv(x, w), _direct_conv(x, w, np.zeros(self.O))[:, :, :6]) <= 1e-12
        gout = np.zeros((2, self.O) + self.SHAPE[2:])
        gout[:, :, :6] = gconv  # the odd last depth is never computed, so it gets no gradient
        for got, ref in zip(_slab_gradients(x, w, gconv), _adjoint_sums(x, w, gout)):
            assert _rel_err(got, ref) <= 1e-12

    def test_block_matches_adjoint_sums_of_routed_gradient(self):
        rng = np.random.default_rng(81)
        x = rng.standard_normal(self.SHAPE)
        w = rng.standard_normal((self.O, self.SHAPE[1], 3, 3, 3))
        bias = rng.standard_normal(self.O)
        gout = rng.standard_normal((2, self.O) + tuple(n // 2 for n in self.SHAPE[2:]))
        for got, ref in zip(_fused(x, w, bias, gout), _direct_block(x, w, bias, gout)):
            assert _rel_err(got, ref) <= 1e-12


def _27_tap_passes(x, w, bias, gconv):
    """A one-channel conv as one 27-row column product per sample: ``(out, gx, gw, gb)``, as the kernels sum them."""
    B, _, D, H, W = x.shape
    O = w.shape[0]
    P = (H + 2) * (W + 2)
    w27 = w.reshape(O, 27)
    out = np.empty((B, O, D, H, W), dtype=x.dtype)
    gx = np.empty(x.shape, dtype=x.dtype)
    gw = np.zeros((27, O), dtype=x.dtype)
    for s in range(B):
        flat = np.zeros((D + 3, H + 2, W + 2), dtype=x.dtype)
        flat[1 : D + 1, 1:-1, 1:-1] = x[s, 0]
        flat = flat.reshape(-1)
        offsets = [(i * (H + 2) + j) * (W + 2) + k for i, j, k in TAPS]
        cols = np.stack([flat[off : off + D * P] for off in offsets])
        out[s] = (w27 @ cols).reshape(O, D, H + 2, W + 2)[:, :, :H, :W] + bias[:, None, None, None]
        gext = np.zeros((O, D, H + 2, W + 2), dtype=x.dtype)
        gext[:, :, :H, :W] = gconv[s]
        gslab = gext.reshape(O, D * P)
        gw += np.zeros((27, O), dtype=x.dtype) + np.dot(cols, gslab.T)
        gcols = w27.T @ gslab
        gflat = np.zeros((D + 3) * P, dtype=x.dtype)
        for t, off in enumerate(offsets):
            gflat[off : off + D * P] += gcols[t]
        gx[s, 0] = gflat.reshape(D + 3, H + 2, W + 2)[1 : D + 1, 1:-1, 1:-1]
    return out, gx, gw.T.reshape(w.shape), gconv.sum(axis=(0, 2, 3, 4))


class TestOneChannel(Inline):
    """One input channel keeps the 27-row lowering: bitwise the test's own product, in one slab."""

    @pytest.fixture
    def operands(self):
        rng = np.random.default_rng(82)
        x = rng.standard_normal((2, 1, 6, 5, 7)).astype(np.float32)
        w = rng.standard_normal((4, 1, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        assert _kernels._slab_depth(x.shape[1:], 4, _kernels._SLAB) == (6, 6)  # one slab
        return x, w, bias, rng

    def test_conv_bitwise_equal_27_tap_product(self, operands):
        # the slabs' conv, before the pooling, and its gradients for a gradient on every conv output
        x, w, bias, rng = operands
        gout = rng.standard_normal((2, 4, 6, 5, 7)).astype(np.float32)
        got = (_slab_conv(x, w) + bias[:, None, None, None], *_slab_gradients(x, w, gout))
        for g, r in zip(got, _27_tap_passes(x, w, bias, gout)):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()

    def test_block_bitwise_equal_27_tap_product(self, operands):
        x, w, bias, rng = operands
        gout = rng.standard_normal((2, 4, 3, 2, 3)).astype(np.float32)
        out, first = _kernels.conv_block_forward(x, w, bias, record=True)
        # the pooling of the raw sums, bias and ReLU after it; the gradient through each block's recorded first maximum
        raw = _27_tap_passes(x, w, np.zeros_like(bias), np.zeros((2, 4, 6, 5, 7), np.float32))[0]
        views = [raw[:, :, a:6:2, c:4:2, e:6:2] for a, c, e in _kernels._OFFSETS]
        pooled = np.maximum(views[0], views[1])
        for v in views[2:]:
            pooled = np.maximum(pooled, v)
        assert out.tobytes() == np.maximum(pooled + bias[:, None, None, None], 0.0).tobytes()
        live = np.where(out > 0, gout, 0)
        gconv = np.zeros((2, 4, 6, 5, 7), np.float32)
        for k, (a, c, e) in enumerate(_kernels._OFFSETS):
            gconv[:, :, a:6:2, c:4:2, e:6:2] = np.where(first == k, live, 0)
        gb = live[0].sum(axis=(1, 2, 3)) + live[1].sum(axis=(1, 2, 3))  # per sample, then in sample order
        got = _kernels.conv_block_backward(x, w, out, first, gout)
        for g, r in zip(got, (*_27_tap_passes(x, w, bias, gconv)[1:3], gb)):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()


def _identity_weights(C, dtype=np.float64):
    """Weights whose convolution returns its input exactly: 1 at each channel's centre tap."""
    w = np.zeros((C, C, 3, 3, 3), dtype=dtype)
    w[np.arange(C), np.arange(C), 1, 1, 1] = 1.0
    return w


class TestBlock(Inline):
    """The fused conv block against the engine's reference ops, at the default slab size."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("shape", [(2, 3, 9, 9, 9), (2, 2, 6, 5, 8)], ids=["odd-sides", "h-ne-w"])
    def test_matches_three_ops(self, shape, dtype):
        rng = np.random.default_rng(70)
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((5, shape[1], 3, 3, 3)).astype(dtype)
        bias = rng.standard_normal(5).astype(dtype)
        gout = rng.standard_normal((shape[0], 5) + tuple(n // 2 for n in shape[2:])).astype(dtype)
        ref = _reference_ops(x, w, bias, gout)
        for need_gx in (True, False):
            got = _fused(x, w, bias, gout, need_gx)
            assert got[0].shape == gout.shape  # 9^3 pools to 4^3
            assert (got[1] is None) == (not need_gx)
            assert all(g.dtype == r.dtype for g, r in zip(got, ref) if g is not None)
            _assert_close(got, ref, 1e-12 if dtype == np.float64 else 1e-5)

    def test_identity_conv_routes_to_first_maximum(self):
        # an identity convolution leaves the pooling: every tie must go to the block's first voxel
        rng = np.random.default_rng(71)
        x = rng.integers(-2, 3, (2, 3, 6, 4, 5)).astype(np.float64)  # ties everywhere; W = 5 drops a column
        x[0, 0, :2, :2, :2] = 0.5  # an all-equal block
        x[0, 1, :2, :2, :2] = -1.0
        x[0, 1, 1, 0, 0] = x[0, 1, 0, 1, 1] = 2.0  # a tie at the maximum, away from the first voxel
        gout = rng.standard_normal((2, 3, 3, 2, 2))
        out, gx = _fused(x, _identity_weights(3), np.zeros(3), gout)[:2]
        pooled = _first_max_pool(x, gout)[0]
        routed = _first_max_pool(x, np.where(pooled > 0, gout, 0.0))[1]
        assert np.array_equal(out, np.maximum(pooled, 0.0))
        assert np.array_equal(gx, routed)
        assert gx[0, 0, 0, 0, 0] == gout[0, 0, 0, 0, 0] and np.count_nonzero(gx[0, 0, :2, :2, :2]) == 1
        assert gx[0, 1, 0, 1, 1] == gout[0, 1, 0, 0, 0] and gx[0, 1, 1, 0, 0] == 0.0
        assert not np.any(gx[..., 4])

    def test_recorded_code_leaves_forward_unchanged_and_nan_block_routes_nothing(self):
        rng = np.random.default_rng(72)
        x = rng.standard_normal((2, 1, 4, 6, 6))
        x[0, 0, 0, 0, 0] = np.nan  # through the zero taps, NaN fills exactly the first block's conv outputs
        w, bias = _identity_weights(1), np.full(1, 0.25)
        out, first = _kernels.conv_block_forward(x, w, bias, record=True)
        plain, none = _kernels.conv_block_forward(x, w, bias)
        ref = _reference_ops(x, w, bias, np.ones(out.shape))
        assert none is None and first.dtype == np.uint8
        assert np.isnan(out[0, 0, 0, 0, 0]) and np.count_nonzero(np.isnan(out)) == 1
        assert out.tobytes() == plain.tobytes()
        np.testing.assert_allclose(out, ref[0], rtol=1e-15, atol=0)
        gx = _kernels.conv_block_backward(x, w, out, first, np.ones(out.shape))[0]
        assert not np.any(gx[0, 0, :2, :2, :2])
        np.testing.assert_allclose(gx, ref[1], rtol=1e-15, atol=0)


class TestBlockPooled(TestBlock):
    POOLED = True


def _where_fill(out, first, gout, gb, H, W):
    """The fused backward's fill as eight masked passes: every voxel of each block gets ``np.where(code == k, live, 0)``."""
    O = out.shape[0]
    P = (H + 2) * (W + 2)
    H2, W2 = H // 2 * 2, W // 2 * 2

    def fill(gext, z0, n):
        q = slice(z0 // 2, (z0 + n) // 2)
        live = np.where(out[:, q] > 0, gout[:, q], 0)
        np.add(gb, live.sum(axis=(1, 2, 3)), out=gb)
        code = first[:, q]
        planes = gext[:, : n * P].reshape(O, n, H + 2, W + 2)
        for k, (a, c, e) in enumerate(_kernels._OFFSETS):
            planes[:, a::2, c:H2:2, e:W2:2] = np.where(code == k, live, 0)

    return fill


class TestBlockRouting(Inline):
    """The fused backward's scatter to each block's first maximum, bitwise the eight masked passes it replaced.

    ``_SLAB`` is set so that the backward's slabs hold 4 depths: the
    shape with 7 depths pools 6 of them, in slabs of 4 and 2.
    """

    O = 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("dims", [(7, 9, 11), (8, 5, 6)], ids=["odd-short-tail", "even"])
    @pytest.mark.parametrize("C", [1, 3], ids=["S1", "S3"])
    def test_scatter_bitwise_equal_masked_passes(self, monkeypatch, C, dims, dtype):
        D, H, W = dims
        O = self.O
        rows = 27 if C == 1 else C * 9 + 3 * O
        monkeypatch.setattr(_kernels, "_SLAB", 4 * rows * (H + 2) * (W + 2))
        assert _kernels._slab_depth((C, D, H, W), O, _kernels._SLAB) == (D // 2 * 2, 4)
        rng = np.random.default_rng(73 + C)
        x = rng.standard_normal((3, C, D, H, W)).astype(dtype)
        x[1] = 0  # every conv output of a block equals the bias: each block's first voxel takes it
        x[2] = np.round(x[2])  # ties at the maximum
        w = np.round(rng.standard_normal((O, C, 3, 3, 3)) * 2).astype(dtype)
        bias = np.array([0.5, -0.5, 0.25, 0.0], dtype=dtype)
        out, first = _kernels.conv_block_forward(x, w, bias, record=True)
        gout = rng.standard_normal(out.shape).astype(dtype)
        gout[:, :, ::2] = -0.0  # signed zeros must land as they are
        assert np.any(first[0] > 0) and not np.any(first[1]) and np.any(out > 0) and np.any(out == 0)
        wst = _kernels._stacked(w, dtype)
        corners = _kernels._block_corners((C, D, H, W), O)

        def run(fill_of):
            def sample(s):
                gb = np.zeros(O, dtype=dtype)
                gst, gxs = _kernels._sample_gradients(x[s], wst, fill_of(s, gb), True, dtype)
                return gst, gxs, gb

            return _kernels._map_tasks(sample, len(x), 0, 0)

        got = run(lambda s, gb: _kernels._block_fill(out[s], first[s], gout[s], gb, corners))
        ref = run(lambda s, gb: _where_fill(out[s], first[s], gout[s], gb, H, W))
        for g, r in zip(got, ref):
            for a, b in zip(g, r):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        gx, gw, gb = _kernels.conv_block_backward(x, w, out, first, gout)
        assert gx.tobytes() == np.stack([r[1] for r in ref]).tobytes()
        assert gw.tobytes() == _kernels._unstacked(_kernels._sum_in_order([r[0] for r in ref]), w.shape).tobytes()
        assert gb.tobytes() == _kernels._sum_in_order([r[2] for r in ref]).tobytes()


class TestBlockRoutingPooled(TestBlockRouting):
    POOLED = True


def _block_pool(x, gout):
    """The fused block's pooling alone: ``(out, lift, gx)`` of an identity conv whose bias lifts every value above the ReLU.

    The bias goes on after the max, so ``out`` is each block's maximum plus ``lift``.
    """
    C = x.shape[1]
    lift = 1.0 + np.ceil(max(-x.min(), 0.0))
    w, bias = _identity_weights(C, x.dtype), np.full(C, lift, dtype=x.dtype)
    out, first = _kernels.conv_block_forward(x, w, bias, record=True)
    return out, bias[0], _kernels.conv_block_backward(x, w, out, first, gout)[0]


class TestMaxPool(Inline):
    """The pooling inside the fused block, through an identity conv, against the per-block loop."""

    def test_all_equal_block_sends_gradient_to_first_voxel(self):
        x = np.full((1, 1, 2, 2, 2), 0.5)
        out, lift, gx = _block_pool(x, np.full((1, 1, 1, 1, 1), 3.0))
        assert out.shape == (1, 1, 1, 1, 1) and out.item() == 0.5 + lift
        expected = np.zeros(x.shape)
        expected[0, 0, 0, 0, 0] = 3.0
        assert np.array_equal(gx, expected)

    def test_relu_ties_follow_dhw_order(self):
        x = np.maximum(np.random.default_rng(40).standard_normal((2, 3, 6, 4, 4)), 0.0)
        x[0, 0, :2, :2, :2] = 0.0  # an all-zero block
        x[0, 1, :2, :2, :2] = 0.0
        x[0, 1, 1, 0, 0] = x[0, 1, 0, 1, 1] = 2.0  # a tie at the block maximum
        gout = np.random.default_rng(41).standard_normal((2, 3, 3, 2, 2))
        out, lift, gx = _block_pool(x, gout)
        ref_out, ref_gx = _first_max_pool(x, gout)
        assert np.array_equal(out, ref_out + lift)
        assert np.array_equal(gx, ref_gx)
        assert gx[0, 0, 0, 0, 0] == gout[0, 0, 0, 0, 0]
        assert gx[0, 1, 0, 1, 1] == gout[0, 1, 0, 0, 0] and gx[0, 1, 1, 0, 0] == 0.0

    def test_integer_ties_match_first_max_loop(self):
        rng = np.random.default_rng(42)
        x = rng.integers(0, 3, (2, 2, 4, 6, 4)).astype(np.float32)
        gout = rng.standard_normal((2, 2, 2, 3, 2)).astype(np.float32)
        out, lift, gx = _block_pool(x, gout)
        ref_out, ref_gx = _first_max_pool(x, gout)
        assert out.dtype == gx.dtype == np.float32
        assert np.array_equal(out, ref_out + lift)
        assert np.array_equal(gx, ref_gx)

    def test_odd_trailing_slices_dropped(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((1, 2, 5, 4, 3))
        x[:, :, 4] = x[:, :, :, :, 2] = 100.0  # would win every block if kept
        gout = rng.standard_normal((1, 2, 2, 2, 1))
        out, lift, gx = _block_pool(x, gout)
        assert out.shape == (1, 2, 2, 2, 1)
        assert np.all(out < 100.0 + lift)
        assert np.all(gx[:, :, 4] == 0.0) and np.all(gx[:, :, :, :, 2] == 0.0)
        assert np.array_equal(gx, _first_max_pool(x, gout)[1])


class TestMaxPoolPooled(TestMaxPool):
    POOLED = True


class TestReferenceOps:
    """The engine's direct ``conv3d`` and ``maxpool3d`` against the loop references, and the fused block against them."""

    @pytest.mark.parametrize("C", [1, 3])
    def test_conv3d_matches_shifted_and_adjoint_sums(self, C):
        rng = np.random.default_rng(100 + C)
        x = rng.standard_normal((2, C, 5, 4, 7))
        w = rng.standard_normal((4, C, 3, 3, 3))
        bias = rng.standard_normal(4)
        gout = rng.standard_normal((2, 4, 5, 4, 7))
        out, grads = _autodiff(engine.conv3d, (x, w, bias), gout)
        np.testing.assert_allclose(out, _direct_conv(x, w, bias), rtol=1e-12, atol=1e-12)
        for got, ref in zip(grads, _adjoint_sums(x, w, gout)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_conv3d_spreads_nan_through_zero_weights(self):
        x = np.zeros((1, 1, 5, 5, 5))
        x[0, 0, 2, 2, 2] = np.nan
        out = engine.conv3d(x, _identity_weights(1), np.zeros(1)).data
        assert np.isnan(out[0, 0, 1:4, 1:4, 1:4]).all() and np.count_nonzero(np.isnan(out)) == 27

    def test_maxpool3d_takes_first_maximum_of_tied_blocks(self):
        rng = np.random.default_rng(110)
        x = rng.integers(-2, 3, (2, 3, 7, 5, 9)).astype(np.float64)  # ties everywhere; odd trailing slices on every side
        x[0, 0, :2, :2, :2] = 0.5  # an all-equal block
        x[0, 1, :2, :2, :2] = -1.0
        x[0, 1, 1, 0, 0] = x[0, 1, 0, 1, 1] = 2.0  # a tie at the maximum, away from the first voxel
        gout = rng.standard_normal((2, 3, 3, 2, 4))
        out, (gx,) = _autodiff(engine.maxpool3d, (x,), gout)
        ref_out, ref_gx = _first_max_pool(x, gout)
        assert np.array_equal(out, ref_out) and np.array_equal(gx, ref_gx)
        assert gx[0, 0, 0, 0, 0] == gout[0, 0, 0, 0, 0] and np.count_nonzero(gx[0, 0, :2, :2, :2]) == 1
        assert gx[0, 1, 0, 1, 1] == gout[0, 1, 0, 0, 0] and gx[0, 1, 1, 0, 0] == 0.0

    def test_maxpool3d_routes_nan_block_to_its_first_nan(self):
        x = np.arange(16.0).reshape(1, 1, 2, 2, 4)
        x[0, 0, 1, 0, 1] = x[0, 0, 0, 1, 1] = np.nan  # both in the first block; (0, 1, 1) comes first
        out, (gx,) = _autodiff(engine.maxpool3d, (x,), np.array([2.0, 3.0]).reshape(1, 1, 1, 1, 2))
        assert np.isnan(out[0, 0, 0, 0, 0]) and out[0, 0, 0, 0, 1] == 15.0
        assert gx[0, 0, 0, 1, 1] == 2.0 and np.count_nonzero(gx[..., :2]) == 1 and gx[0, 0, 1, 1, 3] == 3.0

    @pytest.mark.parametrize("C", [1, 3], ids=["S1", "S3"])
    def test_block_matches_reference_ops_on_short_tail_slabs(self, monkeypatch, C):
        D, H, W = 7, 9, 11
        O = 4
        rows = 27 if C == 1 else C * 9 + 3 * O
        monkeypatch.setattr(_kernels, "_SLAB", 4 * rows * (H + 2) * (W + 2))
        assert _kernels._slab_depth((C, D, H, W), O, _kernels._SLAB) == (6, 4)  # slabs of 4 and 2 depths
        rng = np.random.default_rng(120 + C)
        x = rng.standard_normal((2, C, D, H, W))
        w = rng.standard_normal((O, C, 3, 3, 3))
        bias = rng.standard_normal(O)
        gout = rng.standard_normal((2, O, 3, 4, 5))
        got = _fused(x, w, bias, gout)
        assert np.any(got[0] > 0) and np.any(got[0] == 0)
        _assert_close(got, _reference_ops(x, w, bias, gout), 1e-12)


# (C, O, side) of each conv block of the benchmark's networks (bench/workloads.py)
TRAIN_PAPER_BLOCKS = [(1, 8, 72), (8, 16, 36), (16, 32, 18), (32, 64, 9), (64, 128, 4)]
XVAL_CALCANEUS_BLOCKS = [(1, 4, 32), (4, 8, 16), (8, 16, 8)]


class TestXvalCalcaneusBlocks(Inline):
    """The cross-validation network's blocks, one input channel and several, against the float64 loop references."""

    @pytest.mark.parametrize("block", range(len(XVAL_CALCANEUS_BLOCKS)))
    def test_passes_match_references(self, block):
        C, O, side = XVAL_CALCANEUS_BLOCKS[block]
        rng = np.random.default_rng(90 + block)
        x = rng.standard_normal((2, C, side, side, side))
        w = rng.standard_normal((O, C, 3, 3, 3))
        bias = rng.standard_normal(O)
        gout = rng.standard_normal((2, O) + (side // 2,) * 3)
        for got, ref in zip(_fused(x, w, bias, gout), _direct_block(x, w, bias, gout)):
            assert _rel_err(got, ref) <= 1e-12


MAP_TASKS = _kernels._map_tasks


class _Dispatched(Exception):
    """Ends a kernel call once the dispatcher has placed its tasks."""


def where_conv_runs(monkeypatch, B, C, O, side):
    """Where a conv block's tasks run at batch ``B`` on two workers: "pool" or "inline" for its forward and its backward.

    A recording stub runs no-op tasks through the real ``_map_tasks`` with
    the call's arguments, then stops the kernel, so no conv is computed.
    """
    places = []

    def recording(fn, n, size, min_size):
        on_caller = MAP_TASKS(lambda i: threading.current_thread() is threading.main_thread(), n, size, min_size)
        places.append("inline" if all(on_caller) else "pool")
        raise _Dispatched

    monkeypatch.setattr(_kernels, "_map_tasks", recording)
    monkeypatch.setattr(_kernels, "_worker_count", lambda: 2)  # the benchmark machine's
    # broadcast views have the operands' shapes without their memory
    x = np.broadcast_to(np.float32(1), (B, C, side, side, side))
    w = np.ones((O, C, 3, 3, 3), dtype=np.float32)
    pooled = np.broadcast_to(np.float32(1), (B, O) + (side // 2,) * 3)
    with pytest.raises(_Dispatched):
        _kernels.conv_block_forward(x, w, np.zeros(O, dtype=np.float32), record=True)
    with pytest.raises(_Dispatched):
        _kernels.conv_block_backward(x, w, pooled, pooled.astype(np.uint8), pooled, need_gx=C > 1)
    return places


class TestDispatch:
    """Pooled calls against inline ones, and the pool's own rules."""

    def test_pooled_results_bitwise_equal_inline(self, monkeypatch):
        rng = np.random.default_rng(60)
        x = rng.standard_normal((3, 4, 12, 10, 9)).astype(np.float32)
        w = rng.standard_normal((8, 4, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(8).astype(np.float32)
        gblock = rng.standard_normal((3, 8, 6, 5, 4)).astype(np.float32)

        def run():
            block, first = _kernels.conv_block_forward(x, w, bias, record=True)
            return (block, first, _kernels.conv_block_forward(x, w, bias)[0],
                    *_kernels.conv_block_backward(x, w, block, first, gblock),
                    _kernels.conv_block_backward(x, w, block, first, gblock, need_gx=False)[1])

        force_dispatch(monkeypatch, pooled=False)
        inline = run()
        force_dispatch(monkeypatch, pooled=True)
        for a, b in zip(inline, run()):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_weight_gradient_sums_samples_in_order(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal((3, 2, 5, 4, 6)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        out, first = _kernels.conv_block_forward(x, w, bias, record=True)
        gout = rng.standard_normal(out.shape).astype(np.float32)
        per_sample = [_kernels.conv_block_backward(x[s : s + 1], w, out[s : s + 1], first[s : s + 1], gout[s : s + 1])
                      for s in range(3)]
        _, gw, gb = _kernels.conv_block_backward(x, w, out, first, gout)
        for got, i in ((gw, 1), (gb, 2)):
            assert got.tobytes() == ((per_sample[0][i] + per_sample[1][i]) + per_sample[2][i]).tobytes()

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
    def test_caller_errstate_reaches_every_task(self, monkeypatch, pooled):
        force_dispatch(monkeypatch, pooled)
        x = np.full((2, 1, 4, 4, 4), 1e30, dtype=np.float32)
        w = np.full((2, 1, 3, 3, 3), 1e30, dtype=np.float32)
        bias = np.zeros(2, dtype=np.float32)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _kernels.conv_block_forward(x, w, bias)
        with np.errstate(over="ignore"):
            assert np.isinf(_kernels.conv_block_forward(x, w, bias)[0]).all()

    def test_small_tasks_and_single_samples_run_inline(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_worker_count", lambda: 2)  # a one-CPU process runs every call inline
        calling = []
        record = lambda i: calling.append(threading.current_thread() is threading.main_thread())
        _kernels._map_tasks(record, 4, _kernels._MIN_TASK - 1, _kernels._MIN_TASK)
        _kernels._map_tasks(record, 1, _kernels._MIN_TASK, _kernels._MIN_TASK)
        assert calling == [True] * 5
        _kernels._map_tasks(record, 4, _kernels._MIN_TASK, _kernels._MIN_TASK)
        assert calling[5:] == [False] * 4

    @pytest.mark.parametrize("block", range(len(TRAIN_PAPER_BLOCKS)))
    def test_train_paper_blocks_pool(self, monkeypatch, block):
        assert where_conv_runs(monkeypatch, 8, *TRAIN_PAPER_BLOCKS[block]) == ["pool"] * 2

    @pytest.mark.parametrize("block", range(len(XVAL_CALCANEUS_BLOCKS)))
    def test_xval_calcaneus_blocks_run_inline(self, monkeypatch, block):
        assert where_conv_runs(monkeypatch, 4, *XVAL_CALCANEUS_BLOCKS[block]) == ["inline"] * 2

    @pytest.mark.parametrize("blocks", [XVAL_CALCANEUS_BLOCKS], ids=["xval-calcaneus"])
    def test_single_samples_run_inline(self, monkeypatch, blocks):
        for block in blocks:
            assert where_conv_runs(monkeypatch, 1, *block) == ["inline"] * 2

    def test_single_sample_forwards_split_on_first_three_blocks(self, monkeypatch):
        # b0-b2 have a slab per worker at the full _SLAB; b3 and b4 fit in one slab.
        # Backwards keep one task per sample, so weight gradients sum in sample order
        places = [where_conv_runs(monkeypatch, 1, *block) for block in TRAIN_PAPER_BLOCKS]
        assert places == [["pool", "inline"]] * 3 + [["inline"] * 2] * 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", range(len(TRAIN_PAPER_BLOCKS)))
    def test_split_single_sample_bitwise_equal_batch_row(self, monkeypatch, block, workers):
        monkeypatch.setattr(_kernels, "_worker_count", lambda: workers)
        C, O, side = TRAIN_PAPER_BLOCKS[block]
        rng = np.random.default_rng(62 + block)
        x = rng.standard_normal((2, C, side, side, side)).astype(np.float32)
        w = (rng.standard_normal((O, C, 3, 3, 3)) / np.sqrt(27 * C)).astype(np.float32)
        bias = rng.standard_normal(O).astype(np.float32)
        # b0, b1 and b2 have 9, 6 and 2 slabs at the full _SLAB; b3 and b4 fit in one
        assert _kernels._split_parts(1, x.shape[1:], O) == min(workers, [9, 6, 2, 1, 1][block])
        assert _kernels._split_parts(2, x.shape[1:], O) == 1
        for record in (False, True):
            out, first = _kernels.conv_block_forward(x, w, bias, record)
            one, one_first = _kernels.conv_block_forward(x[:1], w, bias, record)
            assert one[0].tobytes() == out[0].tobytes() and np.any(out[0] > 0)
            if record:
                assert one_first[0].tobytes() == first[0].tobytes()

    def test_nested_calls_run_on_the_task_thread_and_finish(self, monkeypatch):
        force_dispatch(monkeypatch, pooled=True)

        def outer(i):
            # more outer tasks than workers: each would wait on inner tasks queued behind the others
            inner = _kernels._map_tasks(lambda j: threading.current_thread(), 4, 0, 0)
            return threading.current_thread(), inner

        results = []
        caller = threading.Thread(target=lambda: results.extend(_kernels._map_tasks(outer, 8, 0, 0)))
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive() and len(results) == 8
        for task_thread, inner in results:
            assert task_thread is not caller and inner == [task_thread] * 4

    def test_error_reaches_caller_after_every_task_finished(self, monkeypatch):
        force_dispatch(monkeypatch, pooled=True)
        finished = []

        def task(i):
            # task 1 fails first, task 0 later: the caller gets task 0's error, and only once its siblings are done
            time.sleep(0.0 if i == 1 else 0.1)
            if i < 2:
                raise ValueError(f"task {i}")
            finished.append(i)

        with pytest.raises(ValueError, match="task 0"):
            _kernels._map_tasks(task, 5, 0, 0)
        assert sorted(finished) == [2, 3, 4]

    def test_results_come_in_index_order(self):
        assert _kernels._map_tasks(lambda i: i * i, 16, _kernels._MIN_TASK, _kernels._MIN_TASK) == [i * i for i in range(16)]


def test_numpy_openblas_pinned_to_one_thread():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    assert _kernels._pin_openblas_to_one_thread() == ("openblas" in blas)
