"""Plane frames, rotation representations, and homogeneous transforms.

A viewing plane is stored as its center point ``A`` (mm, world coordinates)
plus the in-plane unit vectors ``e_u`` (right) and ``e_v`` (up).  The plane
normal ``e_w = e_u x e_v`` is always derived, never stored.  The matrix with
columns ``(e_u, e_v, e_w)`` is a proper rotation, which can be carried on the
wire as a unit quaternion (4 values), as sine/cosine pairs of intrinsic Z-Y-X
Euler angles (6 values), or as the first two rotation-matrix columns
(6 values, reconstructed by Gram-Schmidt).

World coordinates are right handed with the origin at the volume center and
axes aligned to the voxel axes.  All rotation helpers accept stacked inputs:
an array of shape ``(..., 3, 3)`` encodes to ``(..., k)`` and back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-9
DEGENERACY_EPS = 1e-8


class GeometryError(ValueError):
    """An input violates a geometric precondition."""


class DegenerateEncodingError(GeometryError):
    """A rotation encoding is too degenerate to decode."""


class RotationKind(enum.Enum):
    """Wire encoding of a rotation."""

    QUATERNION = "quaternion"
    EULER_SINCOS = "euler_sincos"
    SIXD = "sixd"

    @property
    def length(self) -> int:
        return 4 if self is RotationKind.QUATERNION else 6


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GeometryError("vector has non-finite components")
    return a


@dataclass(frozen=True)
class PlaneFrame:
    """A standard plane: center ``A`` plus in-plane unit vectors ``e_u, e_v``."""

    A: np.ndarray
    e_u: np.ndarray
    e_v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_vec3(self.A))
        object.__setattr__(self, "e_u", _as_vec3(self.e_u))
        object.__setattr__(self, "e_v", _as_vec3(self.e_v))
        if abs(np.linalg.norm(self.e_u) - 1.0) > UNIT_TOL:
            raise GeometryError("e_u is not unit length")
        if abs(np.linalg.norm(self.e_v) - 1.0) > UNIT_TOL:
            raise GeometryError("e_v is not unit length")
        if abs(float(self.e_u @ self.e_v)) > UNIT_TOL:
            raise GeometryError("e_u and e_v are not orthogonal")

    @property
    def e_w(self) -> np.ndarray:
        """Unit plane normal, ``e_u x e_v``."""
        n = np.cross(self.e_u, self.e_v)
        return n / np.linalg.norm(n)


def frame_to_rotation(p: PlaneFrame) -> np.ndarray:
    """3x3 rotation with columns ``(e_u, e_v, e_u x e_v)``."""
    return np.stack([p.e_u, p.e_v, np.cross(p.e_u, p.e_v)], axis=1)


def rotation_to_frame(R: np.ndarray, A) -> PlaneFrame:
    """Inverse of :func:`frame_to_rotation` for a given plane center."""
    R = np.asarray(R, dtype=float)
    return PlaneFrame(A=np.asarray(A, dtype=float), e_u=R[:, 0].copy(), e_v=R[:, 1].copy())


# ---------------------------------------------------------------------------
# rotation encodings


def _rotation_to_quaternion(R: np.ndarray) -> np.ndarray:
    """Stacked 3x3 -> unit quaternion (w, x, y, z) with w >= 0."""
    R = np.asarray(R, dtype=float)
    batch = R.shape[:-2]
    Rf = R.reshape((-1, 3, 3))
    m00, m01, m02 = Rf[:, 0, 0], Rf[:, 0, 1], Rf[:, 0, 2]
    m10, m11, m12 = Rf[:, 1, 0], Rf[:, 1, 1], Rf[:, 1, 2]
    m20, m21, m22 = Rf[:, 2, 0], Rf[:, 2, 1], Rf[:, 2, 2]
    # 4 * [w^2, x^2, y^2, z^2]; pick the largest for numerical stability.
    kk = np.stack(
        [
            1.0 + m00 + m11 + m22,
            1.0 + m00 - m11 - m22,
            1.0 - m00 + m11 - m22,
            1.0 - m00 - m11 + m22,
        ],
        axis=1,
    )
    best = np.argmax(kk, axis=1)
    q = np.empty((Rf.shape[0], 4))
    s = np.sqrt(np.maximum(kk[np.arange(Rf.shape[0]), best], 0.0)) * 0.5
    inv = 0.25 / np.where(s == 0.0, 1.0, s)
    for case, rows in [
        (0, (None, m21 - m12, m02 - m20, m10 - m01)),
        (1, (m21 - m12, None, m01 + m10, m02 + m20)),
        (2, (m02 - m20, m01 + m10, None, m12 + m21)),
        (3, (m10 - m01, m02 + m20, m12 + m21, None)),
    ]:
        sel = best == case
        if not np.any(sel):
            continue
        vals = [s[sel] if r is None else rows[i][sel] * inv[sel] for i, r in enumerate(rows)]
        q[sel] = np.stack(vals, axis=1)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    # canonical sign: scalar part >= 0 gives unique regression targets
    q *= np.where(q[:, :1] < 0.0, -1.0, 1.0)
    return q.reshape(batch + (4,))


def _quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Stacked (w, x, y, z), not necessarily unit, -> 3x3 rotation."""
    q = np.asarray(q, dtype=float)
    batch = q.shape[:-1]
    qf = q.reshape((-1, 4))
    norm = np.linalg.norm(qf, axis=1)
    if np.any(norm <= DEGENERACY_EPS):
        raise DegenerateEncodingError("quaternion norm too small to decode")
    w, x, y, z = (qf / norm[:, None]).T
    R = np.empty((qf.shape[0], 3, 3))
    R[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    R[:, 0, 1] = 2.0 * (x * y - w * z)
    R[:, 0, 2] = 2.0 * (x * z + w * y)
    R[:, 1, 0] = 2.0 * (x * y + w * z)
    R[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    R[:, 1, 2] = 2.0 * (y * z - w * x)
    R[:, 2, 0] = 2.0 * (x * z - w * y)
    R[:, 2, 1] = 2.0 * (y * z + w * x)
    R[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return R.reshape(batch + (3, 3))


def euler_zyx_from_rotation(R: np.ndarray) -> np.ndarray:
    """Intrinsic Z-Y-X (yaw, pitch, roll) angles of stacked rotations.

    Pitch is confined to [-pi/2, pi/2].  At the gimbal-lock points
    (pitch = +-pi/2, where yaw and roll are no longer separable) roll is
    fixed to 0 and yaw absorbs the remaining rotation.
    """
    R = np.asarray(R, dtype=float)
    sb = np.clip(-R[..., 2, 0], -1.0, 1.0)
    cb = np.hypot(R[..., 0, 0], R[..., 1, 0])
    beta = np.arctan2(sb, cb)
    locked = cb < 1e-12
    alpha = np.where(
        locked,
        -np.arctan2(R[..., 0, 1], R[..., 1, 1]),
        np.arctan2(R[..., 1, 0], R[..., 0, 0]),
    )
    gamma = np.where(locked, 0.0, np.arctan2(R[..., 2, 1], R[..., 2, 2]))
    return np.stack([alpha, beta, gamma], axis=-1)


def rotation_from_euler_zyx(alpha, beta, gamma) -> np.ndarray:
    """Rotation for intrinsic Z-Y-X angles, ``Rz(alpha) @ Ry(beta) @ Rx(gamma)``."""
    alpha, beta, gamma = np.broadcast_arrays(
        np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float), np.asarray(gamma, dtype=float)
    )
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    R = np.empty(alpha.shape + (3, 3))
    R[..., 0, 0] = ca * cb
    R[..., 0, 1] = ca * sb * sg - sa * cg
    R[..., 0, 2] = ca * sb * cg + sa * sg
    R[..., 1, 0] = sa * cb
    R[..., 1, 1] = sa * sb * sg + ca * cg
    R[..., 1, 2] = sa * sb * cg - ca * sg
    R[..., 2, 0] = -sb
    R[..., 2, 1] = cb * sg
    R[..., 2, 2] = cb * cg
    return R


def _rotation_to_euler_sincos(R: np.ndarray) -> np.ndarray:
    ang = euler_zyx_from_rotation(R)
    return np.concatenate(
        [np.stack([np.sin(ang[..., i]), np.cos(ang[..., i])], axis=-1) for i in range(3)], axis=-1
    )


def _euler_sincos_to_rotation(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    pairs = v.reshape(v.shape[:-1] + (3, 2))
    sq = pairs[..., 0] ** 2 + pairs[..., 1] ** 2
    if np.any(sq <= DEGENERACY_EPS):
        raise DegenerateEncodingError("sine/cosine pair too small to decode")
    angles = np.arctan2(pairs[..., 0], pairs[..., 1])
    return rotation_from_euler_zyx(angles[..., 0], angles[..., 1], angles[..., 2])


def _rotation_to_sixd(R: np.ndarray) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    # first two columns, column-by-column
    return np.concatenate([R[..., :, 0], R[..., :, 1]], axis=-1)


def _sixd_to_rotation(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    c1 = v[..., 0:3]
    c2 = v[..., 3:6]
    n1 = np.linalg.norm(c1, axis=-1, keepdims=True)
    if np.any(n1 <= DEGENERACY_EPS):
        raise DegenerateEncodingError("first column too small to decode")
    b1 = c1 / n1
    r = c2 - np.sum(c2 * b1, axis=-1, keepdims=True) * b1
    n2 = np.linalg.norm(r, axis=-1, keepdims=True)
    if np.any(n2 <= DEGENERACY_EPS):
        raise DegenerateEncodingError("columns are (nearly) parallel")
    b2 = r / n2
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=-1)


def encode_rotation(R: np.ndarray, kind: RotationKind) -> np.ndarray:
    """Encode stacked rotation matrices as ``kind`` wire values.

    Quaternions come out unit with non-negative scalar part, Euler encodings
    as (sin, cos) pairs of the Z-Y-X angles, and the 6D form as the first two
    matrix columns.
    """
    kind = RotationKind(kind)
    if kind is RotationKind.QUATERNION:
        return _rotation_to_quaternion(R)
    if kind is RotationKind.EULER_SINCOS:
        return _rotation_to_euler_sincos(R)
    return _rotation_to_sixd(R)


def decode_rotation(values: np.ndarray, kind: RotationKind) -> np.ndarray:
    """Decode wire values to proper rotations, tolerating unnormalized input.

    Quaternions are normalized first, Euler pairs go through atan2 (hence are
    invariant to positive scaling of each pair), and the 6D form is rebuilt by
    classical Gram-Schmidt plus a cross product.  Raises
    :class:`DegenerateEncodingError` when the input cannot determine a
    rotation (tolerance ``1e-8``).
    """
    kind = RotationKind(kind)
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != kind.length:
        raise GeometryError(f"{kind.value} encoding needs {kind.length} values, got {values.shape[-1]}")
    if not np.all(np.isfinite(values)):
        raise DegenerateEncodingError("encoding has non-finite values")
    if kind is RotationKind.QUATERNION:
        return _quaternion_to_rotation(values)
    if kind is RotationKind.EULER_SINCOS:
        return _euler_sincos_to_rotation(values)
    return _sixd_to_rotation(values)


# ---------------------------------------------------------------------------
# translation normalization


def normalize_translation(A, extent_mm: float) -> np.ndarray:
    """Map world mm to the unit cube where the volume edge has length 1."""
    if extent_mm <= 0:
        raise GeometryError("extent_mm must be positive")
    return np.asarray(A, dtype=float) / extent_mm


def denormalize_translation(n, extent_mm: float) -> np.ndarray:
    """Exact inverse of :func:`normalize_translation`."""
    if extent_mm <= 0:
        raise GeometryError("extent_mm must be positive")
    return np.asarray(n, dtype=float) * extent_mm


# ---------------------------------------------------------------------------
# homogeneous transforms


def identity_transform() -> np.ndarray:
    return np.eye(4)


def translation_transform(t) -> np.ndarray:
    T = np.eye(4)
    T[:3, 3] = np.asarray(t, dtype=float)
    return T


def scale_transform(s: float) -> np.ndarray:
    T = np.eye(4)
    T[0, 0] = T[1, 1] = T[2, 2] = float(s)
    return T


def mirror_x_transform() -> np.ndarray:
    T = np.eye(4)
    T[0, 0] = -1.0
    return T


def rotation_transform(R: np.ndarray) -> np.ndarray:
    T = np.eye(4)
    T[:3, :3] = np.asarray(R, dtype=float)
    return T


def rotation_about_axis(axis, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    a = _as_vec3(axis)
    n = np.linalg.norm(a)
    if n == 0.0:
        raise GeometryError("rotation axis must be nonzero")
    x, y, z = a / n
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle_rad) * K + (1.0 - np.cos(angle_rad)) * (K @ K)


def assert_rigid_transform(T: np.ndarray, scale_range=(0.9, 1.1)) -> np.ndarray:
    """Validate a 4x4 transform: exact (0,0,0,1) bottom row and an upper-left
    3x3 that is orthogonal times a uniform scale inside ``scale_range``
    (mirrors, det < 0, are allowed)."""
    T = np.asarray(T, dtype=float)
    if T.shape != (4, 4):
        raise GeometryError(f"expected 4x4 transform, got shape {T.shape}")
    if not np.array_equal(T[3], [0.0, 0.0, 0.0, 1.0]):
        raise GeometryError("bottom row must be exactly (0, 0, 0, 1)")
    L = T[:3, :3]
    s = abs(np.linalg.det(L)) ** (1.0 / 3.0)
    if not (scale_range[0] - 1e-9 <= s <= scale_range[1] + 1e-9):
        raise GeometryError(f"linear part scale {s:.6f} outside {scale_range}")
    if np.max(np.abs(L.T @ L - s * s * np.eye(3))) > 1e-6 * max(1.0, s * s):
        raise GeometryError("linear part is not orthogonal times a uniform scale")
    return T


def compose_transforms(transforms) -> np.ndarray:
    """Compose transforms in application order.

    ``compose_transforms([a, b])`` applies ``a`` first, then ``b``; the
    returned matrix is therefore ``b @ a``.  An empty sequence gives the
    identity.
    """
    out = np.eye(4)
    for T in transforms:
        out = np.asarray(T, dtype=float) @ out
    return out


def transform_plane(T: np.ndarray, p: PlaneFrame) -> PlaneFrame:
    """Transport a plane frame through a transform.

    The center moves as a point, the in-plane vectors as directions and are
    re-normalized.  Under a mirror (negative-determinant linear part) the
    transported ``e_u, e_v`` are kept as is; the implied normal is recomputed
    from their cross product, so the frame stays right handed.
    """
    T = assert_rigid_transform(T)
    L = T[:3, :3]
    A = L @ p.A + T[:3, 3]
    e_u = L @ p.e_u
    e_v = L @ p.e_v
    return PlaneFrame(A=A, e_u=e_u / np.linalg.norm(e_u), e_v=e_v / np.linalg.norm(e_v))


def angle_between_deg(u, v) -> float:
    """Unsigned angle between two vectors in degrees, robust near 0 and 180."""
    u = _as_vec3(u)
    v = _as_vec3(v)
    cross = np.linalg.norm(np.cross(u, v))
    dot = float(u @ v)
    return float(np.degrees(np.arctan2(cross, dot)))


# ---------------------------------------------------------------------------
# plane annotation files
#
# One plane per line: `name Ax Ay Az ux uy uz vx vy vz` in mm world
# coordinates; `#` starts a comment.


def write_plane_file(path, planes: dict[str, PlaneFrame]) -> None:
    lines = []
    for name, p in planes.items():
        if any(ch.isspace() for ch in name):
            raise GeometryError(f"plane name {name!r} must not contain whitespace")
        nums = np.concatenate([p.A, p.e_u, p.e_v])
        lines.append(name + " " + " ".join(f"{x:.17g}" for x in nums))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_plane_file(path) -> dict[str, PlaneFrame]:
    planes: dict[str, PlaneFrame] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 10:
                raise GeometryError(f"{path}:{lineno}: expected `name` plus 9 numbers")
            nums = np.array([float(x) for x in parts[1:]])
            planes[parts[0]] = PlaneFrame(A=nums[0:3], e_u=nums[3:6], e_v=nums[6:9])
    return planes
