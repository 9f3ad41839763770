"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` pairs a value array with a lazily allocated accumulated
gradient.  Operations record a tape; ``Tensor.backward()`` walks it once in
reverse topological order and then frees it, so a second backward call (or a
backward without a preceding forward) raises.  The op set is what the
regression network and its loss need: broadcasting arithmetic, reductions,
indexing, matmul, ReLU, and the conv block, each block of the network as one
op (:func:`conv_block`: 3x3x3 convolution, 2x2x2 max pooling, then ReLU).
The convolution and the pooling are also ops of their own, :func:`conv3d`
and :func:`maxpool3d`: short direct references, which the network never
runs, for testing the fused block through autodiff.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import _kernels

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the context (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """Array value plus accumulated gradient and tape linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- graph -------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        if self._vjp is None:
            # covers: no forward pass recorded, tape already consumed, no_grad mode
            raise RuntimeError("backward() requires a freshly recorded forward pass")

        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g.astype(parent.data.dtype, copy=False)
                else:
                    parent.grad = parent.grad + g
            # free the tape so memory is released and a re-run raises
            node._parents = ()
            node._vjp = None

    def zero_grad(self) -> None:
        self.grad = None

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -np.asarray(other))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return getitem(self, index)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def item(self) -> float:
        return float(self.data.reshape(()))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _make(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic --------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def sqrt(a) -> Tensor:
    """Square root whose gradient is defined as 0 at 0 (subgradient)."""
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def vjp(g, out=out):
        safe = np.where(out > 0.0, out, 1.0)
        return (np.where(out > 0.0, g / (2.0 * safe), 0.0),)

    return _make(out, (a,), vjp)


def maximum(a, scalar: float) -> Tensor:
    a = as_tensor(a)
    return _make(np.maximum(a.data, scalar), (a,), lambda g: (g * (a.data > scalar),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    # np.where, not g * mask: an inactive input gets +0, whatever g's sign
    return _make(np.maximum(a.data, 0.0), (a,), lambda g: (np.where(a.data > 0, g, 0.0),))


# -- shape and indexing -------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def getitem(a, index) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        ga = np.zeros(a.shape, dtype=g.dtype)
        np.add.at(ga, index, g)
        return (ga,)

    return _make(a.data[index], (a,), vjp)


def concat(parts, axis=0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        sl = [slice(None)] * g.ndim
        outs = []
        for i in range(len(parts)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(sl)])
        return tuple(outs)

    return _make(np.concatenate([p.data for p in parts], axis=axis), parts, vjp)


# -- reductions ---------------------------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        count = np.prod([a.shape[i] for i in np.atleast_1d(axis)])
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


# -- linear algebra -----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul supports 2-d operands; reshape first")
    return _make(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


# -- network primitives -------------------------------------------------------


def _check_conv(x, w) -> None:
    if x.data.ndim != 5:
        raise ValueError(f"conv3d input must be (B, C, D, H, W), got {x.shape}")
    if w.data.ndim != 5 or w.shape[2:] != (3, 3, 3) or w.shape[1] != x.shape[1]:
        raise ValueError(f"conv3d weights {w.shape} incompatible with input {x.shape}")


def _windows(a):
    """``(B, C, D, H, W, 3, 3, 3)``: each voxel's 3x3x3 neighbourhood in ``a`` zero-padded by one."""
    padded = np.pad(a, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
    return np.lib.stride_tricks.sliding_window_view(padded, (3, 3, 3), axis=(2, 3, 4))


def conv3d(x, w, bias) -> Tensor:
    """3x3x3 convolution, stride 1, zero padding 1, over ``(B, C, D, H, W)``.

    A direct reference for :func:`conv_block`: each output and gradient is
    one sum over taps, channels and voxels.  A NaN or infinite input reaches
    every output whose window holds it, through zero weights too.
    """
    x, w, bias = as_tensor(x), as_tensor(w), as_tensor(bias)
    _check_conv(x, w)

    def vjp(g):
        # the adjoint sums: the input gradient convolves g with each weight flipped, input and output swapped
        gx = np.einsum("bodhwijk,ocijk->bcdhw", _windows(g), w.data[:, :, ::-1, ::-1, ::-1])
        return gx, np.einsum("bodhw,bcdhwijk->ocijk", g, _windows(x.data)), g.sum(axis=(0, 2, 3, 4))

    out = np.einsum("bcdhwijk,ocijk->bodhw", _windows(x.data), w.data) + bias.data[:, None, None, None]
    return _make(out, (x, w, bias), vjp)


def maxpool3d(x) -> Tensor:
    """2x2x2 max pooling with stride 2; odd trailing slices are dropped.

    A direct reference for :func:`conv_block`.  Each output is its block's
    first maximum in ``(depth, row, column)`` offset order, and takes the
    block's gradient; the block's other voxels get zero.  ``argmax`` counts
    NaN as the largest value, so a block that holds a NaN outputs NaN and
    routes its gradient to its first NaN.
    """
    x = as_tensor(x)
    D2, H2, W2 = (n // 2 * 2 for n in x.shape[2:])
    corners = [(..., slice(a, D2, 2), slice(b, H2, 2), slice(c, W2, 2)) for a in range(2) for b in range(2) for c in range(2)]
    blocks = np.stack([x.data[s] for s in corners], axis=-1)
    first = blocks.argmax(axis=-1)

    def vjp(g):
        gx = np.zeros(x.shape, dtype=g.dtype)
        for k, s in enumerate(corners):
            gx[s] = np.where(first == k, g, 0)
        return (gx,)

    return _make(np.take_along_axis(blocks, first[..., None], axis=-1)[..., 0], (x,), vjp)


def conv_block(x, w, bias) -> Tensor:
    """One conv block, ``relu(maxpool3d(conv3d(x, w, bias)))``, as one op.

    The full-resolution conv output and its gradient are never held: the
    kernels pool each slab of it as it is computed, and the tape keeps only
    the pooled output and, per pooled value, the offset of its block's first
    maximum.
    """
    x, w, bias = as_tensor(x), as_tensor(w), as_tensor(bias)
    _check_conv(x, w)
    record = _GRAD_ENABLED and any(p.requires_grad for p in (x, w, bias))
    out, first = _kernels.conv_block_forward(x.data, w.data, bias.data, record)

    def vjp(g):
        return _kernels.conv_block_backward(x.data, w.data, out, first, g, need_gx=x.requires_grad)

    return _make(out, (x, w, bias), vjp)
