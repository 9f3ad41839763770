"""The conv and pool kernels against direct loop references, inline and pooled."""

import itertools
import threading

import numpy as np
import pytest

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


class Inline:
    """Runs every kernel call inline; a ``Pooled`` subclass sends every call to the pool."""

    MIN_TASK = 1 << 62

    @pytest.fixture(autouse=True)
    def dispatch(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_MIN_TASK", self.MIN_TASK)


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
    MIN_TASK = 0


class TestSlabs(Inline):
    """Odd shapes split into several slabs of output depths, with a shorter tail."""

    SHAPE = (2, 3, 7, 5, 6)  # D = 7 in slabs of 3, 3 and 1 depths

    @pytest.fixture(autouse=True)
    def three_depth_slabs(self, monkeypatch, dispatch):
        _, C, _, H, W = self.SHAPE
        monkeypatch.setattr(_kernels, "_SLAB", 3 * C * 27 * H * W)
        drawn = []  # per sample: its slabs, and whether it ran on the calling thread
        column_slabs = _kernels._column_slabs

        def recording(xs, dtype):
            slabs = []
            drawn.append((slabs, threading.current_thread() is threading.main_thread()))
            for z0, n, cols in column_slabs(xs, dtype):
                slabs.append((z0, n))
                yield z0, n, cols

        monkeypatch.setattr(_kernels, "_column_slabs", recording)
        yield
        assert drawn and all(slabs == [(0, 3), (3, 3), (6, 1)] for slabs, _ in drawn)
        on_caller = [inline for _, inline in drawn]
        # pooled, only single-sample calls stay on the calling thread
        assert all(on_caller) if self.MIN_TASK else not all(on_caller)

    def _operands(self, seed, B=None, dtype=np.float64):
        rng = np.random.default_rng(seed)
        shape = self.SHAPE if B is None else (B,) + self.SHAPE[1:]
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((4, shape[1], 3, 3, 3)).astype(dtype)
        gout = rng.standard_normal((shape[0], 4) + shape[2:]).astype(dtype)
        return x, w, gout

    def test_forward_matches_shifted_sum(self):
        x, w, _ = self._operands(50)
        bias = np.random.default_rng(51).standard_normal(4)
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

    def test_batch_rows_bitwise_equal_single_samples(self):
        x, w, gout = self._operands(54, B=3, dtype=np.float32)
        bias = np.random.default_rng(55).standard_normal(4).astype(np.float32)
        out = _kernels.conv3d_forward(x, w, bias)
        gx = _kernels.conv3d_backward(x, w, gout)[0]
        for s in range(3):
            one = slice(s, s + 1)
            assert _kernels.conv3d_forward(x[one], w, bias).tobytes() == out[one].tobytes()
            assert _kernels.conv3d_backward(x[one], w, gout[one])[0].tobytes() == gx[one].tobytes()


class TestSlabsPooled(TestSlabs):
    MIN_TASK = 0


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
    MIN_TASK = 0


class TestDispatch:
    """Pooled calls against inline ones, and the pool's own rules."""

    def test_pooled_results_bitwise_equal_inline(self, monkeypatch):
        rng = np.random.default_rng(60)
        x = rng.standard_normal((3, 4, 12, 10, 9)).astype(np.float32)
        w = rng.standard_normal((8, 4, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(8).astype(np.float32)
        gout = rng.standard_normal((3, 8, 12, 10, 9)).astype(np.float32)
        gpool = rng.standard_normal((3, 4, 6, 5, 4)).astype(np.float32)

        def run():
            out = _kernels.conv3d_forward(x, w, bias)
            pooled = _kernels.maxpool3d_forward(x)
            return (out, *_kernels.conv3d_backward(x, w, gout), _kernels.conv3d_backward(x, w, gout, need_gx=False)[1],
                    pooled, _kernels.maxpool3d_backward(x, pooled, gpool))

        monkeypatch.setattr(_kernels, "_MIN_TASK", 1 << 62)
        inline = run()
        monkeypatch.setattr(_kernels, "_MIN_TASK", 0)
        for a, b in zip(inline, run()):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_weight_gradient_sums_samples_in_order(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal((3, 2, 5, 4, 3)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3, 3)).astype(np.float32)
        gout = rng.standard_normal((3, 4, 5, 4, 3)).astype(np.float32)
        per_sample = [_kernels.conv3d_backward(x[s : s + 1], w, gout[s : s + 1])[1] for s in range(3)]
        assert _kernels.conv3d_backward(x, w, gout)[1].tobytes() == ((per_sample[0] + per_sample[1]) + per_sample[2]).tobytes()

    @pytest.mark.parametrize("min_task", [1 << 62, 0], ids=["inline", "pooled"])
    def test_caller_errstate_reaches_every_task(self, monkeypatch, min_task):
        monkeypatch.setattr(_kernels, "_MIN_TASK", min_task)
        x = np.full((2, 1, 4, 4, 4), 1e30, dtype=np.float32)
        w = np.full((2, 1, 3, 3, 3), 1e30, dtype=np.float32)
        bias = np.zeros(2, dtype=np.float32)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _kernels.conv3d_forward(x, w, bias)
        with np.errstate(over="ignore"):
            assert np.isinf(_kernels.conv3d_forward(x, w, bias)).all()

    def test_small_tasks_and_single_samples_run_inline(self):
        calling = []
        record = lambda i: calling.append(threading.current_thread() is threading.main_thread())
        _kernels._map_tasks(record, 4, _kernels._MIN_TASK - 1)
        _kernels._map_tasks(record, 1, _kernels._MIN_TASK)
        assert calling == [True] * 5
        _kernels._map_tasks(record, 4, _kernels._MIN_TASK)
        assert calling[5:] == [False] * 4

    def test_results_come_in_index_order(self):
        assert _kernels._map_tasks(lambda i: i * i, 16, _kernels._MIN_TASK) == [i * i for i in range(16)]


def test_numpy_openblas_pinned_to_one_thread():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    assert _kernels._pin_openblas_to_one_thread() == ("openblas" in blas)
