"""Numpy kernels for the 3x3x3 convolution and 2x2x2 max-pooling primitives.

The convolution is lowered to one matrix product per sample (im2col).  The
27 shifted ``(C, D, H, W)`` slices of a sample's zero-padded input are copied
into a reused ``(C*27, D*H*W)`` column buffer, and ``w.reshape(O, C*27)``
times that buffer is the sample's output.  The weight gradient sums
``gout[s] @ cols.T`` over the samples in order; the input gradient is the
same lowering applied to the output gradient with flipped, channel-transposed
weights.  Each sample's output depends only on that sample, so a row comes
out bitwise identical whatever the batch size.  The transient memory is one
sample's columns, never a whole batch of windows.

Max pooling folds the eight stride-2 views of the input, in ``(a, b, c)``
offset order, with ``np.maximum``.  The backward pass walks the views in the
same order, and each view claims the outputs it equals that no earlier view
claimed, so the gradient goes to the first maximum of each block.  For a
fixed input every result is bitwise deterministic.

Importing this module sets numpy's OpenBLAS, if that is its BLAS, to one
thread for the whole process.  A product split over threads waits for the
slowest of them, and an idle BLAS thread spins on a core after each call,
so on shared cores one busy neighbour stalls every step.  On 2 vCPUs with
one core kept busy, a 72^3 B=8 training epoch took 1.8-2.1x its idle time
with two BLAS threads and 1.1-1.2x with one; idle, one thread was no slower.
"""

from __future__ import annotations

import ctypes

import numpy as np

_OFFSETS = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
_TAPS = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]


def _pin_openblas_to_one_thread() -> bool:
    """Set the OpenBLAS that numpy loaded to one thread; False if none is found."""
    # numpy loads its BLAS with local symbols, so reach it through the mapped file
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh if "openblas" in line]
    except OSError:
        return False
    for path in sorted({f[5].strip() for f in fields if len(f) == 6}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            set_threads = getattr(lib, name, None)
            if set_threads is not None:
                set_threads(1)
                return True
    return False


_pin_openblas_to_one_thread()


def _columns(x, dtype):
    """Yield ``(s, cols)``: the ``(C*27, D*H*W)`` column matrix of sample ``s``.

    Both buffers are reused across samples, so each ``cols`` is valid only
    until the next one is drawn.
    """
    B, C, D, H, W = x.shape
    xpad = np.zeros((C, D + 2, H + 2, W + 2), dtype=dtype)
    cols = np.empty((C, 27, D, H, W), dtype=dtype)
    for s in range(B):
        xpad[:, 1:-1, 1:-1, 1:-1] = x[s]
        for t, (i, j, k) in enumerate(_TAPS):
            cols[:, t] = xpad[:, i : i + D, j : j + H, k : k + W]
        yield s, cols.reshape(C * 27, D * H * W)


def _correlate(x, w2, bias):
    """Padded 3x3x3 correlation of ``x`` with the ``(O, C*27)`` weights ``w2``."""
    B, _, D, H, W = x.shape
    O = w2.shape[0]
    out = np.empty((B, O, D, H, W), dtype=w2.dtype)
    for s, cols in _columns(x, w2.dtype):
        rows = out[s].reshape(O, D * H * W)
        np.matmul(w2, cols, out=rows)
        if bias is not None:
            rows += bias[:, None]
    return out


def conv3d_forward(x, w, bias):
    """3x3x3 convolution, stride 1, zero padding 1.

    ``x`` is ``(B, C, D, H, W)``, ``w`` is ``(O, C, 3, 3, 3)``; returns
    ``(B, O, D, H, W)``.
    """
    dtype = np.result_type(x, w, bias)
    w2 = w.reshape(w.shape[0], -1).astype(dtype, copy=False)
    return _correlate(x, w2, bias.astype(dtype, copy=False))


def conv3d_backward(x, w, gout, need_gx: bool = True):
    """Gradients of :func:`conv3d_forward` w.r.t. input, weights, and bias.

    Pass ``need_gx=False`` to skip the input gradient (first layer); it is
    then returned as ``None``.
    """
    O, C = w.shape[:2]
    dtype = np.result_type(x, w, gout)
    g2 = gout.reshape(gout.shape[0], O, -1)
    gw = np.zeros((O, C * 27), dtype=dtype)
    for s, cols in _columns(x, dtype):
        gw += g2[s] @ cols.T
    gw = gw.reshape(w.shape)
    gb = gout.sum(axis=(0, 2, 3, 4))

    if not need_gx:
        return None, gw, gb
    w_flip = w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4).reshape(C, O * 27)
    gx = _correlate(gout, w_flip.astype(dtype, copy=False), None)
    return gx, gw, gb


def _views(x):
    """The eight stride-2 views of ``x``'s even-sized corner, in offset order."""
    D2, H2, W2 = (n // 2 * 2 for n in x.shape[2:])
    return [x[:, :, a:D2:2, b:H2:2, c:W2:2] for a, b, c in _OFFSETS]


def maxpool3d_forward(x):
    """2x2x2 max pooling with stride 2 (odd trailing slices are dropped)."""
    views = _views(x)
    out = np.maximum(views[0], views[1])
    for v in views[2:]:
        np.maximum(out, v, out=out)
    return out


def maxpool3d_backward(x, out, gout):
    """Gradient of :func:`maxpool3d_forward`, routed to each block's first maximum.

    ``x`` is the pooled input and ``out`` its pooled output.  Dropped odd
    trailing slices get zero gradient, and so does a block whose maximum is
    NaN, since NaN equals nothing.
    """
    gx = np.zeros(x.shape, dtype=gout.dtype)
    unclaimed = np.ones(out.shape, dtype=bool)
    for v, gv in zip(_views(x), _views(gx)):
        hit = v == out
        hit &= unclaimed
        np.copyto(gv, gout, where=hit)
        unclaimed ^= hit
    return gx
