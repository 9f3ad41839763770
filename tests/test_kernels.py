"""The conv, pool and fused conv-block kernels against direct loop references, inline and pooled."""

import itertools
import threading
import time

import numpy as np
import pytest

from conftest import force_dispatch
from planereg import _kernels

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
    padded input, one output channel at a time, while the kernel multiplies
    column slabs and scatters one slab of all channels at a time.
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


def _three_ops(x, w, bias, gout, need_gx=True):
    """A conv block as the conv, pool and ReLU kernels: its output and its input, weight and bias gradients."""
    conv = _kernels.conv3d_forward(x, w, bias)
    pooled = _kernels.maxpool3d_forward(conv)
    gconv = _kernels.maxpool3d_backward(conv, pooled, np.where(pooled > 0, gout, 0))
    return (np.maximum(pooled, 0.0), *_kernels.conv3d_backward(x, w, gconv, need_gx))


def _fused(x, w, bias, gout, need_gx=True):
    """The same block as the fused kernels: its output and its input, weight and bias gradients."""
    out, first = _kernels.conv_block_forward(x, w, bias, record=True)
    return (out, *_kernels.conv_block_backward(x, w, out, first, gout, need_gx))


def _assert_block_matches(got, ref, tol):
    """Bitwise the same output; each gradient within ``tol`` (the weight gradient sums in another order)."""
    assert got[0].dtype == ref[0].dtype and got[0].tobytes() == ref[0].tobytes()
    for g, r in zip(got[1:], ref[1:]):
        if r is None:
            assert g is None
        else:
            assert g.dtype == r.dtype and g.shape == r.shape
            np.testing.assert_allclose(g, r, rtol=tol, atol=tol)


class Inline:
    """Runs every kernel call inline; a ``Pooled`` subclass sends every call to the pool."""

    POOLED = False

    @pytest.fixture(autouse=True)
    def dispatch(self, monkeypatch):
        force_dispatch(monkeypatch, self.POOLED)


class TestConv(Inline):
    @pytest.mark.parametrize("C", [1, 3])
    def test_forward_matches_shifted_sum(self, C):
        rng = np.random.default_rng(C)
        x = rng.standard_normal((2, C, 5, 4, 3))
        w = rng.standard_normal((4, C, 3, 3, 3))
        bias = rng.standard_normal(4)
        out = _kernels.conv3d_forward(x, w, bias)
        assert out.shape == (2, 4, 5, 4, 3) and out.dtype == np.float64
        np.testing.assert_allclose(out, _direct_conv(x, w, bias), rtol=1e-12, atol=1e-12)

    def test_float32_forward_close_to_float64_sum(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 5, 4, 3)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        out = _kernels.conv3d_forward(x, w, bias)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, _direct_conv(x, w, bias), rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("C", [1, 3])
    def test_gradients_match_adjoint_sums(self, C):
        rng = np.random.default_rng(10 + C)
        x = rng.standard_normal((2, C, 5, 4, 3))
        w = rng.standard_normal((4, C, 3, 3, 3))
        gout = rng.standard_normal((2, 4, 5, 4, 3))
        gx, gw, gb = _kernels.conv3d_backward(x, w, gout)
        ref_gx, ref_gw, ref_gb = _adjoint_sums(x, w, gout)
        np.testing.assert_allclose(gx, ref_gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gw, ref_gw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gb, ref_gb, rtol=1e-12, atol=1e-12)

    def test_no_input_gradient_when_not_needed(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 3, 5, 4, 3))
        w = rng.standard_normal((4, 3, 3, 3, 3))
        gout = rng.standard_normal((2, 4, 5, 4, 3))
        gx, gw, gb = _kernels.conv3d_backward(x, w, gout, need_gx=False)
        assert gx is None
        _, ref_gw, ref_gb = _adjoint_sums(x, w, gout)
        np.testing.assert_allclose(gw, ref_gw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gb, ref_gb, rtol=1e-12, atol=1e-12)

    def test_batch_rows_bitwise_equal_single_samples(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((3, 4, 12, 10, 9)).astype(np.float32)
        w = rng.standard_normal((8, 4, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(8).astype(np.float32)
        batched = _kernels.conv3d_forward(x, w, bias)
        for s in range(3):
            single = _kernels.conv3d_forward(x[s : s + 1], w, bias)
            assert single[0].tobytes() == batched[s].tobytes()


class TestConvPooled(TestConv):
    POOLED = True


class TestSlabs(Inline):
    """Odd shapes split into several slabs of output depths, with a shorter tail.

    ``_SLAB`` is set so that ``_plane_slabs``, which every pass draws its
    slabs from, gives slabs of ``DEPTH`` depths: each depth costs ``C*9``
    column rows and ``3*O`` stacked product rows.  A fused block's slabs
    cover the 6 depths it pools, ``DEPTH`` rounded down to even, at least 2.
    ``SLABS`` maps ``even`` to the ``(z0, n)`` schedule each sample draws in
    one task.  Pooled, on two workers, a single sample's forward splits its
    depths into the two near-equal ranges of ``SPLIT[even]`` (3 and 4
    depths, or 2 and 4 pooled ones), whose slabs are drawn at ``_SLAB //
    2``.
    """

    SHAPE = (2, 3, 7, 14, 16)  # D = 7: slabs of 3, 3 and 1 depths when DEPTH = 3; H != W
    O = 4
    DEPTH = 3
    SLABS = {False: [(0, 3), (3, 3), (6, 1)], True: [(0, 2), (2, 2), (4, 2)]}
    SPLIT = {False: [[(z, 1) for z in range(3)], [(z, 1) for z in range(3, 7)]], True: [[(0, 2)], [(2, 2), (4, 2)]]}

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
        schedules = [self.SLABS[False], self.SLABS[True]]
        if self.POOLED:
            schedules += self.SPLIT[False] + self.SPLIT[True]
        assert drawn and all(slabs in schedules for slabs, _ in drawn)
        on_caller = [inline for _, inline in drawn]
        assert not all(on_caller) if self.POOLED else all(on_caller)

    def _operands(self, seed, B=None, dtype=np.float64):
        rng = np.random.default_rng(seed)
        shape = self.SHAPE if B is None else (B,) + self.SHAPE[1:]
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((self.O, shape[1], 3, 3, 3)).astype(dtype)
        gout = rng.standard_normal((shape[0], self.O) + shape[2:]).astype(dtype)
        return x, w, gout

    def test_forward_matches_shifted_sum(self):
        x, w, _ = self._operands(50)
        bias = np.random.default_rng(51).standard_normal(self.O)
        np.testing.assert_allclose(_kernels.conv3d_forward(x, w, bias), _direct_conv(x, w, bias), rtol=1e-12, atol=1e-12)

    def test_gradients_match_adjoint_sums(self):
        x, w, gout = self._operands(52)
        for got, ref in zip(_kernels.conv3d_backward(x, w, gout), _adjoint_sums(x, w, gout)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_no_input_gradient_when_not_needed(self):
        x, w, gout = self._operands(53)
        gx, gw, gb = _kernels.conv3d_backward(x, w, gout, need_gx=False)
        _, ref_gw, ref_gb = _adjoint_sums(x, w, gout)
        assert gx is None
        np.testing.assert_allclose(gw, ref_gw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gb, ref_gb, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("need_gx", [True, False], ids=["gx", "no-gx"])
    def test_float32_gradients_close_to_float64_sums(self, need_gx):
        x, w, gout = self._operands(56, dtype=np.float32)
        gx, gw, gb = _kernels.conv3d_backward(x, w, gout, need_gx=need_gx)
        ref_gx, ref_gw, ref_gb = _adjoint_sums(*(a.astype(np.float64) for a in (x, w, gout)))
        assert gw.dtype == gb.dtype == np.float32
        # a float32 sum of a few thousand terms of size ~1
        np.testing.assert_allclose(gw, ref_gw, rtol=1e-4, atol=1e-3)
        np.testing.assert_allclose(gb, ref_gb, rtol=1e-4, atol=1e-3)
        if need_gx:
            assert gx.dtype == np.float32
            np.testing.assert_allclose(gx, ref_gx, rtol=1e-4, atol=1e-4)
        else:
            assert gx is None

    def test_batch_rows_bitwise_equal_single_samples(self):
        x, w, gout = self._operands(54, B=3, dtype=np.float32)
        bias = np.random.default_rng(55).standard_normal(self.O).astype(np.float32)
        out = _kernels.conv3d_forward(x, w, bias)
        gx = _kernels.conv3d_backward(x, w, gout)[0]
        for s in range(3):
            one = slice(s, s + 1)
            assert _kernels.conv3d_forward(x[one], w, bias).tobytes() == out[one].tobytes()
            assert _kernels.conv3d_backward(x[one], w, gout[one])[0].tobytes() == gx[one].tobytes()

    def _block_operands(self, seed, B=None, dtype=np.float64):
        x, w, _ = self._operands(seed, B, dtype)
        rng = np.random.default_rng(seed + 100)
        bias = rng.standard_normal(self.O).astype(dtype)
        gout = rng.standard_normal(x.shape[:1] + (self.O,) + tuple(n // 2 for n in x.shape[2:])).astype(dtype)
        return x, w, bias, gout

    @pytest.mark.parametrize("need_gx", [True, False], ids=["gx", "no-gx"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_block_matches_three_ops(self, dtype, need_gx):
        ops = self._block_operands(57, dtype=dtype)
        _assert_block_matches(_fused(*ops, need_gx), _three_ops(*ops, need_gx), 1e-12 if dtype == np.float64 else 1e-5)

    def test_block_batch_rows_bitwise_equal_single_samples(self):
        x, w, bias, gout = self._block_operands(58, B=3, dtype=np.float32)
        out, gx = _fused(x, w, bias, gout)[:2]
        for s in range(3):
            one = slice(s, s + 1)
            single_out, single_gx = _fused(x[one], w, bias, gout[one])[:2]
            assert single_out.tobytes() == out[one].tobytes()
            assert single_gx.tobytes() == gx[one].tobytes()


class TestSlabsPooled(TestSlabs):
    POOLED = True


class TestOneDepthSlabs(TestSlabs):
    """One depth per conv slab; a fused block's slabs still hold two."""

    DEPTH = 1
    SLABS = {False: [(z, 1) for z in range(7)], True: [(0, 2), (2, 2), (4, 2)]}
    SPLIT = TestSlabs.SPLIT


class TestOneDepthSlabsPooled(TestOneDepthSlabs):
    POOLED = True


class TestFourDepthSlabs(TestSlabs):
    """Slabs of four depths: the 6 depths a fused block pools are not a multiple of them."""

    DEPTH = 4
    SLABS = {False: [(0, 4), (4, 3)], True: [(0, 4), (4, 2)]}
    SPLIT = {False: [[(0, 2), (2, 1)], [(3, 2), (5, 2)]], True: [[(0, 2)], [(2, 2), (4, 2)]]}


class TestFourDepthSlabsPooled(TestFourDepthSlabs):
    POOLED = True


def _rel_err(got, ref):
    """The largest absolute difference over the reference's largest magnitude."""
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _routed(conv, gout):
    """A block's conv-output gradient: ``gout`` where the ReLU passes, on each pooled block's first maximum."""
    pooled = _first_max_pool(conv, gout)[0]
    return _first_max_pool(conv, np.where(pooled > 0, gout, 0.0))[1]


class TestFoldedLowering(Inline):
    """Several input channels: each column row serves three k taps, and the last slab is shorter.

    ``_SLAB`` is set for slabs of 4 depths: the conv's 7 depths make slabs of
    4 and 3, and the fused block's 6 pooled depths slabs of 4 and 2.  So the
    last slab's gradient stack reuses the rows of a deeper one.
    """

    SHAPE, O = (2, 4, 7, 5, 6), 3

    @pytest.fixture(autouse=True)
    def short_last_slab(self, monkeypatch, dispatch):
        _, C, D, H, W = self.SHAPE
        monkeypatch.setattr(_kernels, "_SLAB", 4 * (C * 9 + 3 * self.O) * (H + 2) * (W + 2))
        for even, depths in ((False, 7), (True, 6)):
            assert _kernels._slab_depth(self.SHAPE[1:], self.O, even, _kernels._SLAB) == (depths, 4)

    def test_forward_and_gradients_match_adjoint_sums(self):
        rng = np.random.default_rng(80)
        x = rng.standard_normal(self.SHAPE)
        w = rng.standard_normal((self.O, self.SHAPE[1], 3, 3, 3))
        bias = rng.standard_normal(self.O)
        gout = rng.standard_normal((2, self.O) + self.SHAPE[2:])
        assert _rel_err(_kernels.conv3d_forward(x, w, bias), _direct_conv(x, w, bias)) <= 1e-12
        for got, ref in zip(_kernels.conv3d_backward(x, w, gout), _adjoint_sums(x, w, gout)):
            assert _rel_err(got, ref) <= 1e-12

    def test_block_matches_adjoint_sums_of_routed_gradient(self):
        rng = np.random.default_rng(81)
        x = rng.standard_normal(self.SHAPE)
        w = rng.standard_normal((self.O, self.SHAPE[1], 3, 3, 3))
        bias = rng.standard_normal(self.O)
        gout = rng.standard_normal((2, self.O) + tuple(n // 2 for n in self.SHAPE[2:]))
        out, gx, gw, gb = _fused(x, w, bias, gout)
        conv = _direct_conv(x, w, bias)
        assert _rel_err(out, np.maximum(_first_max_pool(conv, gout)[0], 0.0)) <= 1e-12
        for got, ref in zip((gx, gw, gb), _adjoint_sums(x, w, _routed(conv, gout))):
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
        assert _kernels._slab_depth(x.shape[1:], 4, False, _kernels._SLAB) == (6, 6)  # one slab
        return x, w, bias, rng

    def test_conv_bitwise_equal_27_tap_product(self, operands):
        x, w, bias, rng = operands
        gout = rng.standard_normal((2, 4, 6, 5, 7)).astype(np.float32)
        got = (_kernels.conv3d_forward(x, w, bias), *_kernels.conv3d_backward(x, w, gout))
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


def _identity_weights(C):
    """Weights whose convolution returns its input exactly: 1 at each channel's centre tap."""
    w = np.zeros((C, C, 3, 3, 3))
    w[np.arange(C), np.arange(C), 1, 1, 1] = 1.0
    return w


class TestBlock(Inline):
    """The fused conv block against the three kernels it replaces, at the default slab size."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("shape", [(2, 3, 9, 9, 9), (2, 2, 6, 5, 8)], ids=["odd-sides", "h-ne-w"])
    def test_matches_three_ops(self, shape, dtype):
        rng = np.random.default_rng(70)
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((5, shape[1], 3, 3, 3)).astype(dtype)
        bias = rng.standard_normal(5).astype(dtype)
        gout = rng.standard_normal((shape[0], 5) + tuple(n // 2 for n in shape[2:])).astype(dtype)
        for need_gx in (True, False):
            got = _fused(x, w, bias, gout, need_gx)
            assert got[0].shape == gout.shape  # 9^3 pools to 4^3
            _assert_block_matches(got, _three_ops(x, w, bias, gout, need_gx), 1e-12 if dtype == np.float64 else 1e-5)

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
        ref = _three_ops(x, w, bias, np.ones(out.shape))
        assert none is None and first.dtype == np.uint8
        assert np.isnan(out[0, 0, 0, 0, 0]) and np.count_nonzero(np.isnan(out)) == 1
        assert out.tobytes() == plain.tobytes() == ref[0].tobytes()
        gx = _kernels.conv_block_backward(x, w, out, first, np.ones(out.shape))[0]
        assert not np.any(gx[0, 0, :2, :2, :2])
        assert np.array_equal(gx, ref[1])


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
        assert _kernels._slab_depth((C, D, H, W), O, True, _kernels._SLAB) == (D // 2 * 2, 4)
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
                gst, gxs = _kernels._sample_gradients(x[s], wst, fill_of(s, gb), True, dtype, even=True)
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


class TestMaxPool(Inline):
    def test_all_equal_block_sends_gradient_to_first_voxel(self):
        x = np.full((1, 1, 2, 2, 2), 0.5)
        out = _kernels.maxpool3d_forward(x)
        assert out.shape == (1, 1, 1, 1, 1) and out.item() == 0.5
        gx = _kernels.maxpool3d_backward(x, out, np.full(out.shape, 3.0))
        expected = np.zeros(x.shape)
        expected[0, 0, 0, 0, 0] = 3.0
        assert np.array_equal(gx, expected)

    def test_relu_ties_follow_dhw_order(self):
        x = np.maximum(np.random.default_rng(40).standard_normal((2, 3, 6, 4, 4)), 0.0)
        x[0, 0, :2, :2, :2] = 0.0  # an all-zero block
        x[0, 1, :2, :2, :2] = 0.0
        x[0, 1, 1, 0, 0] = x[0, 1, 0, 1, 1] = 2.0  # a tie at the block maximum
        gout = np.random.default_rng(41).standard_normal((2, 3, 3, 2, 2))
        out = _kernels.maxpool3d_forward(x)
        gx = _kernels.maxpool3d_backward(x, out, gout)
        ref_out, ref_gx = _first_max_pool(x, gout)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(gx, ref_gx)
        assert gx[0, 0, 0, 0, 0] == gout[0, 0, 0, 0, 0]
        assert gx[0, 1, 0, 1, 1] == gout[0, 1, 0, 0, 0] and gx[0, 1, 1, 0, 0] == 0.0

    def test_integer_ties_match_first_max_loop(self):
        rng = np.random.default_rng(42)
        x = rng.integers(0, 3, (2, 2, 4, 6, 4)).astype(np.float32)
        gout = rng.standard_normal((2, 2, 2, 3, 2)).astype(np.float32)
        out = _kernels.maxpool3d_forward(x)
        ref_out, ref_gx = _first_max_pool(x, gout)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(_kernels.maxpool3d_backward(x, out, gout), ref_gx)

    def test_odd_trailing_slices_dropped(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((1, 2, 5, 4, 3))
        x[:, :, 4] = x[:, :, :, :, 2] = 100.0  # would win every block if kept
        out = _kernels.maxpool3d_forward(x)
        assert out.shape == (1, 2, 2, 2, 1)
        assert np.all(out < 100.0)
        gout = rng.standard_normal(out.shape)
        gx = _kernels.maxpool3d_backward(x, out, gout)
        assert np.all(gx[:, :, 4] == 0.0) and np.all(gx[:, :, :, :, 2] == 0.0)
        assert np.array_equal(gx, _first_max_pool(x, gout)[1])


class TestMaxPoolPooled(TestMaxPool):
    POOLED = True


# (C, O, side) of each conv block of the benchmark's networks (bench/workloads.py)
TRAIN_PAPER_BLOCKS = [(1, 8, 72), (8, 16, 36), (16, 32, 18), (32, 64, 9), (64, 128, 4)]
XVAL_CALCANEUS_BLOCKS = [(1, 4, 32), (4, 8, 16), (8, 16, 8)]


class TestXvalCalcaneusBlocks(Inline):
    """The cross-validation network's blocks, one input channel and several, against the float64 references."""

    @pytest.mark.parametrize("block", range(len(XVAL_CALCANEUS_BLOCKS)))
    def test_passes_match_references(self, block):
        C, O, side = XVAL_CALCANEUS_BLOCKS[block]
        rng = np.random.default_rng(90 + block)
        x = rng.standard_normal((2, C, side, side, side))
        w = rng.standard_normal((O, C, 3, 3, 3))
        bias = rng.standard_normal(O)
        gout = rng.standard_normal((2, O) + (side,) * 3)
        assert _rel_err(_kernels.conv3d_forward(x, w, bias), _direct_conv(x, w, bias)) <= 1e-12
        for got, ref in zip(_kernels.conv3d_backward(x, w, gout), _adjoint_sums(x, w, gout)):
            assert _rel_err(got, ref) <= 1e-12
        gpool = rng.standard_normal((2, O) + (side // 2,) * 3)
        _assert_block_matches(_fused(x, w, bias, gpool), _three_ops(x, w, bias, gpool), 1e-12)


MAP_TASKS = _kernels._map_tasks


class _Dispatched(Exception):
    """Ends a kernel call once the dispatcher has placed its tasks."""


def where_conv_runs(monkeypatch, B, C, O, side):
    """Where a conv block's tasks run at batch ``B`` on two workers: "pool" or "inline" for each of its four calls.

    The calls are the conv's forward and backward and the fused block's
    forward and backward.

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
    gout = np.broadcast_to(np.float32(1), (B, O, side, side, side))
    with pytest.raises(_Dispatched):
        _kernels.conv3d_forward(x, w, np.zeros(O, dtype=np.float32))
    with pytest.raises(_Dispatched):
        _kernels.conv3d_backward(x, w, gout, need_gx=C > 1)
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
        gout = rng.standard_normal((3, 8, 12, 10, 9)).astype(np.float32)
        gpool = rng.standard_normal((3, 4, 6, 5, 4)).astype(np.float32)
        gblock = rng.standard_normal((3, 8, 6, 5, 4)).astype(np.float32)

        def run():
            out = _kernels.conv3d_forward(x, w, bias)
            pooled = _kernels.maxpool3d_forward(x)
            block, first = _kernels.conv_block_forward(x, w, bias, record=True)
            return (out, *_kernels.conv3d_backward(x, w, gout), _kernels.conv3d_backward(x, w, gout, need_gx=False)[1],
                    pooled, _kernels.maxpool3d_backward(x, pooled, gpool),
                    block, first, *_kernels.conv_block_backward(x, w, block, first, gblock),
                    _kernels.conv_block_backward(x, w, block, first, gblock, need_gx=False)[1])

        force_dispatch(monkeypatch, pooled=False)
        inline = run()
        force_dispatch(monkeypatch, pooled=True)
        for a, b in zip(inline, run()):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_weight_gradient_sums_samples_in_order(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal((3, 2, 5, 4, 3)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3, 3)).astype(np.float32)
        gout = rng.standard_normal((3, 4, 5, 4, 3)).astype(np.float32)
        per_sample = [_kernels.conv3d_backward(x[s : s + 1], w, gout[s : s + 1])[1] for s in range(3)]
        assert _kernels.conv3d_backward(x, w, gout)[1].tobytes() == ((per_sample[0] + per_sample[1]) + per_sample[2]).tobytes()

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
    def test_caller_errstate_reaches_every_task(self, monkeypatch, pooled):
        force_dispatch(monkeypatch, pooled)
        x = np.full((2, 1, 4, 4, 4), 1e30, dtype=np.float32)
        w = np.full((2, 1, 3, 3, 3), 1e30, dtype=np.float32)
        bias = np.zeros(2, dtype=np.float32)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _kernels.conv3d_forward(x, w, bias)
        with np.errstate(over="ignore"):
            assert np.isinf(_kernels.conv3d_forward(x, w, bias)).all()

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
        assert where_conv_runs(monkeypatch, 8, *TRAIN_PAPER_BLOCKS[block]) == ["pool"] * 4

    @pytest.mark.parametrize("block", range(len(XVAL_CALCANEUS_BLOCKS)))
    def test_xval_calcaneus_blocks_run_inline(self, monkeypatch, block):
        assert where_conv_runs(monkeypatch, 4, *XVAL_CALCANEUS_BLOCKS[block]) == ["inline"] * 4

    @pytest.mark.parametrize("blocks", [XVAL_CALCANEUS_BLOCKS], ids=["xval-calcaneus"])
    def test_single_samples_run_inline(self, monkeypatch, blocks):
        for block in blocks:
            assert where_conv_runs(monkeypatch, 1, *block) == ["inline"] * 4

    def test_single_sample_forwards_split_on_first_three_blocks(self, monkeypatch):
        # b0-b2 have a slab per worker at the full _SLAB; b3 and b4 fit in one slab.
        # Backwards keep one task per sample, so weight gradients sum in sample order
        places = [where_conv_runs(monkeypatch, 1, *block) for block in TRAIN_PAPER_BLOCKS]
        assert places == [["pool", "inline", "pool", "inline"]] * 3 + [["inline"] * 4] * 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", range(len(TRAIN_PAPER_BLOCKS)))
    def test_split_single_sample_bitwise_equal_batch_row(self, monkeypatch, block, workers):
        monkeypatch.setattr(_kernels, "_worker_count", lambda: workers)
        C, O, side = TRAIN_PAPER_BLOCKS[block]
        rng = np.random.default_rng(62 + block)
        x = rng.standard_normal((2, C, side, side, side)).astype(np.float32)
        w = (rng.standard_normal((O, C, 3, 3, 3)) / np.sqrt(27 * C)).astype(np.float32)
        bias = rng.standard_normal(O).astype(np.float32)
        for even in (False, True):
            # b0, b1 and b2 have 9, 6 and 2 slabs at the full _SLAB; b3 and b4 fit in one
            split = _kernels._split_parts(1, x.shape[1:], O, even)
            assert split == min(workers, [9, 6, 2, 1, 1][block])
            assert _kernels._split_parts(2, x.shape[1:], O, even) == 1
        row = _kernels.conv3d_forward(x, w, bias)[0]
        assert _kernels.conv3d_forward(x[:1], w, bias)[0].tobytes() == row.tobytes()
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
