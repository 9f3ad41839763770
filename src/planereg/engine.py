"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` pairs a value array with a lazily allocated accumulated
gradient.  Operations record a tape; ``Tensor.backward()`` walks it once in
reverse topological order and then frees it, so a second backward call (or a
backward without a preceding forward) raises.  The op set is exactly what the
regression network and its loss need: broadcasting arithmetic, reductions,
indexing, matmul, ReLU, 3x3x3 convolution, and 2x2x2 max pooling.
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


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


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


def conv3d(x, w, bias) -> Tensor:
    """3x3x3 convolution, stride 1, zero padding 1, over ``(B, C, D, H, W)``."""
    x, w, bias = as_tensor(x), as_tensor(w), as_tensor(bias)
    if x.data.ndim != 5:
        raise ValueError(f"conv3d input must be (B, C, D, H, W), got {x.shape}")
    if w.data.ndim != 5 or w.shape[2:] != (3, 3, 3) or w.shape[1] != x.shape[1]:
        raise ValueError(f"conv3d weights {w.shape} incompatible with input {x.shape}")

    def vjp(g):
        gx, gw, gb = _kernels.conv3d_backward(x.data, w.data, g, need_gx=x.requires_grad)
        return gx, gw, gb

    return _make(_kernels.conv3d_forward(x.data, w.data, bias.data), (x, w, bias), vjp)


def maxpool3d(x) -> Tensor:
    """2x2x2 max pooling with stride 2; gradient goes to the first maximum."""
    x = as_tensor(x)
    out = _kernels.maxpool3d_forward(x.data)
    return _make(out, (x,), lambda g: (_kernels.maxpool3d_backward(x.data, out, g),))
