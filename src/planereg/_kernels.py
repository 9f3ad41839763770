"""Numpy kernels for the 3x3x3 convolution and 2x2x2 max-pooling primitives.

The convolution is one einsum over a ``sliding_window_view`` of the
zero-padded input, which exposes every 3x3x3 neighbourhood without copying;
its input gradient is the same einsum on the padded output gradient with
flipped, channel-transposed weights.  Max pooling reshapes the input into
2x2x2 blocks and takes the per-block argmax (first maximum on ties), which
the backward pass scatters the gradient through.  For a fixed input every
result is bitwise deterministic.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _windows(xpad):
    # (B, C, D, H, W, 3, 3, 3) view of all 3^3 neighborhoods
    return sliding_window_view(xpad, (3, 3, 3), axis=(2, 3, 4))


def _conv3d_padded(xpad, w, bias):
    out = np.einsum("bcdhwijk,ocijk->bodhw", _windows(xpad), w, optimize=True)
    return out + bias[None, :, None, None, None]


def _pad1(x):
    B, C, D, H, W = x.shape
    out = np.zeros((B, C, D + 2, H + 2, W + 2), dtype=x.dtype)
    out[:, :, 1:-1, 1:-1, 1:-1] = x
    return out


def conv3d_forward(x, w, bias):
    """3x3x3 convolution, stride 1, zero padding 1.

    ``x`` is ``(B, C, D, H, W)``, ``w`` is ``(O, C, 3, 3, 3)``; returns
    ``(B, O, D, H, W)``.
    """
    return _conv3d_padded(_pad1(x), w, bias)


def conv3d_backward(x, w, gout, need_gx: bool = True):
    """Gradients of :func:`conv3d_forward` w.r.t. input, weights, and bias.

    The input gradient is the full correlation of the padded output gradient
    with the flipped, channel-transposed weights; it reuses the forward
    kernel.  Pass ``need_gx=False`` to skip it (first layer).
    """
    gw = np.einsum("bcdhwijk,bodhw->ocijk", _windows(_pad1(x)), gout, optimize=True)
    gb = gout.sum(axis=(0, 2, 3, 4))

    if not need_gx:
        return None, gw, gb
    w_flip = np.ascontiguousarray(w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))
    gpad = _pad1(np.ascontiguousarray(gout))
    gx = _conv3d_padded(gpad, w_flip, np.zeros(w_flip.shape[0], dtype=x.dtype))
    return gx, gw, gb


def maxpool3d_forward(x):
    """2x2x2 max pooling with stride 2 (odd trailing slices are dropped).

    Returns the pooled array plus the per-block argmax (first-maximum rule)
    needed for the backward pass.
    """
    B, C, D, H, W = x.shape
    D2, H2, W2 = D // 2, H // 2, W // 2
    xc = x[:, :, : D2 * 2, : H2 * 2, : W2 * 2]
    blocks = (
        xc.reshape(B, C, D2, 2, H2, 2, W2, 2)
        .transpose(0, 1, 2, 4, 6, 3, 5, 7)
        .reshape(B, C, D2, H2, W2, 8)
    )
    idx = np.argmax(blocks, axis=-1).astype(np.uint8)
    out = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]
    return out, idx


def maxpool3d_backward(x_shape, idx, gout):
    gx = np.zeros(x_shape, dtype=gout.dtype)
    B, C, D, H, W = x_shape
    D2, H2, W2 = D // 2, H // 2, W // 2
    gblocks = np.zeros((B, C, D2, H2, W2, 8), dtype=gout.dtype)
    np.put_along_axis(gblocks, idx[..., None].astype(np.int64), gout[..., None], axis=-1)
    gx[:, :, : D2 * 2, : H2 * 2, : W2 * 2] = (
        gblocks.reshape(B, C, D2, H2, W2, 2, 2, 2)
        .transpose(0, 1, 2, 5, 3, 6, 4, 7)
        .reshape(B, C, D2 * 2, H2 * 2, W2 * 2)
    )
    return gx
