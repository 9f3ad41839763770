"""Numpy kernels for the 3x3x3 convolution and 2x2x2 max-pooling primitives.

The convolution is lowered to matrix products (im2col) one slab of output
depths at a time.  For the ``n`` depths of a slab, the 27 shifted slices of
the sample's zero-padded input are copied into a ``(C*27, n*H*W)`` column
matrix, and ``w.reshape(O, C*27)`` times that matrix is the slab of the
output.  A slab holds ``dz = _SLAB // (C*27*H*W)`` depths (at least one, at
most ``D``), so the buffer holds at most about 8 MB in float32 unless one
depth alone needs more, and a slab is multiplied while its columns are still
warm in cache.  One buffer, allocated once per call, serves every slab and
sample; no call maps a whole sample's or batch's columns.

The weight gradient sums ``gout_slab @ cols.T`` over the slabs and samples
in order.  The input gradient is the adjoint of the lowering (col2im): for
each slab, ``w.T @ gout_slab`` is written into the same column buffer, and
its 27 taps are scatter-added into the zeroed, padded gradient of the
sample, whose interior is the sample's input gradient.

The slab depth depends on ``C``, ``D``, ``H`` and ``W`` only, never on the
batch size, and each sample's output and input gradient depend only on that
sample.  So a sample's rows are summed in the same order, and come out
bitwise identical, whatever the batch.

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
_SLAB = 1 << 21  # elements in the reused column buffer: 8 MB in float32


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


def _column_slabs(x, dtype):
    """Yield ``(s, z0, n, cols)`` for each slab of output depths of sample ``s``.

    ``cols`` is the ``(C*27, n*H*W)`` column matrix of the ``n`` depths from
    ``z0`` on: row ``c*27 + t`` holds channel ``c`` of the zero-padded
    sample shifted by tap ``t``.  Every matrix is a view of one buffer that
    serves every slab and sample, so it is valid, and may be overwritten,
    only until the next one is drawn.
    """
    B, C, D, H, W = x.shape
    dz = max(1, min(D, _SLAB // (C * 27 * H * W)))
    xpad = np.zeros((C, D + 2, H + 2, W + 2), dtype=dtype)
    buf = np.empty(C * 27 * dz * H * W, dtype=dtype)
    for s in range(B):
        xpad[:, 1:-1, 1:-1, 1:-1] = x[s]
        for z0 in range(0, D, dz):
            n = min(dz, D - z0)
            cols = buf[: C * 27 * n * H * W].reshape(C, 27, n, H, W)
            for t, (i, j, k) in enumerate(_TAPS):
                cols[:, t] = xpad[:, z0 + i : z0 + i + n, j : j + H, k : k + W]
            yield s, z0, n, cols.reshape(C * 27, n * H * W)


def conv3d_forward(x, w, bias):
    """3x3x3 convolution, stride 1, zero padding 1.

    ``x`` is ``(B, C, D, H, W)``, ``w`` is ``(O, C, 3, 3, 3)``; returns
    ``(B, O, D, H, W)``.
    """
    B, _, D, H, W = x.shape
    O = w.shape[0]
    dtype = np.result_type(x, w, bias)
    w2 = w.reshape(O, -1).astype(dtype, copy=False)
    out = np.empty((B, O, D, H, W), dtype=dtype)
    rows = out.reshape(B, O, D * H * W)
    for s, z0, n, cols in _column_slabs(x, dtype):
        np.matmul(w2, cols, out=rows[s, :, z0 * H * W : (z0 + n) * H * W])
    out += bias.astype(dtype, copy=False)[:, None, None, None]
    return out


def conv3d_backward(x, w, gout, need_gx: bool = True):
    """Gradients of :func:`conv3d_forward` w.r.t. input, weights, and bias.

    Pass ``need_gx=False`` to skip the input gradient (first layer); it is
    then returned as ``None``.
    """
    B, C, D, H, W = x.shape
    O = w.shape[0]
    dtype = np.result_type(x, w, gout)
    w2t = w.reshape(O, C * 27).astype(dtype, copy=False).T
    g2 = gout.reshape(B, O, D * H * W)
    gw = np.zeros((O, C * 27), dtype=dtype)
    gx = np.empty(x.shape, dtype=dtype) if need_gx else None
    gpad = np.empty((C, D + 2, H + 2, W + 2), dtype=dtype) if need_gx else None
    for s, z0, n, cols in _column_slabs(x, dtype):
        gslab = g2[s, :, z0 * H * W : (z0 + n) * H * W]
        gw += gslab @ cols.T
        if not need_gx:
            continue
        if z0 == 0:
            gpad.fill(0)
        # col2im: the slab's column gradient, scattered back one tap at a time
        np.matmul(w2t, gslab, out=cols)
        taps = cols.reshape(C, 27, n, H, W)
        for t, (i, j, k) in enumerate(_TAPS):
            gpad[:, z0 + i : z0 + i + n, j : j + H, k : k + W] += taps[:, t]
        if z0 + n == D:
            gx[s] = gpad[:, 1:-1, 1:-1, 1:-1]
    return gx, gw.reshape(w.shape), gout.sum(axis=(0, 2, 3, 4))


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
