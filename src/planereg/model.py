"""3D convolutional regression network, optimizer, and checkpoint format.

The network is a plain feed-forward stack: five convolutional blocks and
three fully connected layers with a linear output head, so predicted
encodings are free to leave [-1, 1].  Each block is a 3x3x3 convolution
(stride 1, zero padding 1), then 2x2x2 max pooling, then ReLU.  For inputs
without NaN this is bitwise equal to ReLU before pooling, gradients and
signed zeros included (ReLU is monotone, and both orders send a block's
gradient to its first maximum or nowhere), and the ReLU runs on an eighth of
the values.  Each block is one engine op, :func:`engine.conv_block`, which
never holds the block's full-resolution conv output or its gradient.  There
is no dropout and no batch statistics anywhere, so single-sample and batched
forward passes agree to float32 rounding.  The conv blocks compute each
sample on its own and give bitwise-identical rows for any batch size; only
the FC matmuls may sum in a different order for each batch size.

Checkpoint layout (little endian throughout)::

    bytes 0..7   magic b"PLANEREG"
    uint32       format version (1)
    uint32       header length N
    N bytes      UTF-8 JSON header (network config + optional user metadata)
    uint32       parameter count P
    P records    uint32 name length, name UTF-8,
                 uint32 ndim, uint32 shape[ndim],
                 float32 data (C order)
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import engine
from .config import field_values
from .engine import Tensor
from .geometry import RotationKind

CHECKPOINT_MAGIC = b"PLANEREG"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters of the plane regression CNN (see ``ExperimentConfig.network_config``)."""

    representation: RotationKind
    n_planes: int
    combined: bool
    in_dims: int
    channels: tuple[int, ...]
    fc_widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "representation", RotationKind(self.representation))
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        object.__setattr__(self, "fc_widths", tuple(int(w) for w in self.fc_widths))
        if self.n_planes < 1:
            raise ValueError("n_planes must be at least 1")
        if not self.channels or min(self.channels) < 1:
            raise ValueError("channels must be positive")
        if any(w < 1 for w in self.fc_widths):
            raise ValueError(f"fc_widths must be positive, got {self.fc_widths}")
        side = self.in_dims
        for _ in self.channels:
            side //= 2
        if side < 1:
            raise ValueError(f"in_dims {self.in_dims} too small for {len(self.channels)} pooling steps")

    @property
    def n_out(self) -> int:
        """Number of output nodes: 3 translation values plus the rotation encoding
        per plane (7 for quaternions, 9 for Euler sine/cosine and 6D), times the
        plane count for a combined network."""
        return (3 + self.representation.length) * (self.n_planes if self.combined else 1)

    @property
    def flatten_dim(self) -> int:
        side = self.in_dims
        for _ in self.channels:
            side //= 2
        return side**3 * self.channels[-1]

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        names = {f.name for f in fields(cls)}
        if not isinstance(d, dict) or d.keys() != names:
            raise ValueError(f"network config needs exactly the keys {sorted(names)}")
        return cls(**d)


_INIT_CHUNK = 1 << 15  # values per float64 draw of he_init


def he_init(shape, fan_in: int, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """Normal(0, sqrt(2 / fan_in)) weights for ReLU layers.

    The values are drawn in chunks of ``_INIT_CHUNK`` straight into the
    result, so no float64 array of the whole shape is made.  ``rng`` draws
    the same stream either way, so the weights, and the generator's state
    after them, are bitwise those of one ``rng.normal(...).astype(dtype)``.
    """
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    scale = np.sqrt(2.0 / fan_in)
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for i in range(0, flat.size, _INIT_CHUNK):
        chunk = flat[i : i + _INIT_CHUNK]
        chunk[...] = rng.normal(0.0, scale, size=chunk.size)
    return out


class _Conv3d:
    def __init__(self, c_in, c_out, rng, dtype):
        if rng is None:
            w = np.zeros((c_out, c_in, 3, 3, 3), dtype=dtype)
        else:
            w = he_init((c_out, c_in, 3, 3, 3), c_in * 27, rng, dtype)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)


class _Linear:
    def __init__(self, n_in, n_out, rng, dtype):
        if rng is None:
            w = np.zeros((n_in, n_out), dtype=dtype)
        else:
            w = he_init((n_in, n_out), n_in, rng, dtype)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)

    def __call__(self, x):
        return engine.add(engine.matmul(x, self.weight), self.bias)


class PlaneRegressionNet:
    """Convolutional blocks -> flatten -> fully connected regression head."""

    def __init__(self, config: NetworkConfig, rng: np.random.Generator | None = None, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.convs = []
        c_in = 1
        for c_out in config.channels:
            self.convs.append(_Conv3d(c_in, c_out, rng, self.dtype))
            c_in = c_out
        widths = (config.flatten_dim,) + config.fc_widths + (config.n_out,)
        self.fcs = [_Linear(a, b, rng, self.dtype) for a, b in zip(widths[:-1], widths[1:])]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, c in enumerate(self.convs):
            out.append((f"conv{i}.weight", c.weight))
            out.append((f"conv{i}.bias", c.bias))
        for i, f in enumerate(self.fcs):
            out.append((f"fc{i}.weight", f.weight))
            out.append((f"fc{i}.bias", f.bias))
        return out

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def _canonical_input(self, x) -> np.ndarray:
        a = x.data if isinstance(x, Tensor) else np.asarray(x)
        if a.ndim == 3:
            a = a[None, None]
        elif a.ndim == 4:
            a = a[:, None]
        if a.ndim != 5 or a.shape[1] != 1:
            raise ValueError(f"expected (D,H,W), (B,D,H,W) or (B,1,D,H,W) input, got {a.shape}")
        d = self.config.in_dims
        if a.shape[2:] != (d, d, d):
            raise ValueError(f"input spatial dims {a.shape[2:]} do not match config in_dims {d}")
        return np.ascontiguousarray(a, dtype=self.dtype)

    def forward(self, x) -> Tensor:
        """Run the network; returns the ``(B, n_out)`` output tensor."""
        t = Tensor(self._canonical_input(x))
        for conv in self.convs:
            t = engine.conv_block(t, conv.weight, conv.bias)
        t = engine.reshape(t, (t.shape[0], -1))
        for fc in self.fcs[:-1]:
            t = engine.relu(fc(t))
        return self.fcs[-1](t)

    def predict(self, x) -> np.ndarray:
        """Inference without tape recording; squeezes a single-sample batch."""
        with engine.no_grad():
            out = self.forward(x).data
        if not isinstance(x, Tensor) and np.asarray(x).ndim == 3:
            return out[0]
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


# ---------------------------------------------------------------------------
# optimization


def sgd_momentum_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray, lr: float, momentum: float):
    """Classic momentum update, in place: ``v = m v + g``; ``p -= lr v``."""
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ValueError("param, grad, and velocity shapes must agree")
    velocity *= momentum
    velocity += grad
    param -= lr * velocity
    return param, velocity


def step_decay(lr0: float, decay: float, step_size: int, epoch: int) -> float:
    """Stepwise learning-rate schedule ``lr0 * decay ** (epoch // step_size)``."""
    if step_size < 1:
        raise ValueError("step_size must be at least 1")
    return lr0 * decay ** (epoch // step_size)


class SGDMomentum:
    """SGD with classic momentum over a network's named parameters."""

    def __init__(self, net: PlaneRegressionNet, lr: float, momentum: float = 0.9):
        self.net = net
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocity = {name: np.zeros_like(p.data) for name, p in net.named_parameters()}

    def step(self) -> None:
        for name, p in self.net.named_parameters():
            if p.grad is None:
                continue
            sgd_momentum_step(p.data, p.grad.astype(p.data.dtype, copy=False), self.velocity[name], self.lr, self.momentum)

    def zero_grad(self) -> None:
        self.net.zero_grad()


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, net: PlaneRegressionNet, extra: dict | None = None) -> None:
    """Write the documented versioned binary checkpoint (see module docstring)."""
    header = json.dumps(
        {"network": field_values(net.config), "extra": extra or {}}, sort_keys=True
    ).encode("utf-8")
    params = net.named_parameters()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(params)))
        for name, p in params:
            nb = name.encode("utf-8")
            arr = np.ascontiguousarray(p.data, dtype="<f4")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(memoryview(arr).cast("B"))


def _check_remaining(fh, n: int, path) -> None:
    # checked against the file size before reading, so a corrupt length field
    # cannot ask for a huge buffer
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated checkpoint")


def _read_exact(fh, n: int, path) -> bytes:
    _check_remaining(fh, n, path)
    return fh.read(n)


def load_checkpoint(path) -> tuple[PlaneRegressionNet, dict]:
    """Read a checkpoint; returns the reconstructed network plus the metadata.

    A short file, trailing bytes, or a header that does not match the
    parameters raises :class:`ValueError` naming ``path``.
    """
    with open(path, "rb") as fh:
        if fh.read(8) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, hlen = struct.unpack("<II", _read_exact(fh, 8, path))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        header = _read_exact(fh, hlen, path)
        try:
            meta = json.loads(header.decode("utf-8"))
            config = NetworkConfig.from_dict(meta["network"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: corrupt checkpoint header ({exc!r})") from exc
        net = PlaneRegressionNet(config, rng=None)
        expected = dict(net.named_parameters())
        (count,) = struct.unpack("<I", _read_exact(fh, 4, path))
        if count != len(expected):
            raise ValueError(f"{path}: expected {len(expected)} parameters, found {count}")
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read_exact(fh, 4, path))
            name = _read_exact(fh, nlen, path).decode("utf-8")
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, path))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path))
            if name not in expected:
                raise ValueError(f"{path}: unknown parameter {name!r}")
            if expected[name].data.shape != shape:
                raise ValueError(f"{path}: shape mismatch for {name!r}")
            # read straight into the new net's float32 array, which is "<f4" on a little-endian host
            target = memoryview(expected[name].data).cast("B")
            _check_remaining(fh, target.nbytes, path)
            fh.readinto(target)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last parameter")
    return net, meta.get("extra", {})
