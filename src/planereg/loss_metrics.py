"""Training loss and evaluation metrics for plane regression.

The loss combines three terms with convex weights ``(alpha, beta, gamma)``::

    L = alpha * L_rotation + beta * L_translation + gamma * L_orthogonality

``L_translation`` is the mean Euclidean distance of the normalized plane
centers, ``L_rotation`` the mean Euclidean distance of the rotation encoding
values, and ``L_orthogonality`` penalizes non-orthogonal predicted plane
normals, averaged over unordered plane pairs.  The default pairwise form is
``1 - |n_i x n_j|`` (one minus the sine of the inter-normal angle), which is
minimal exactly at orthogonality and differentiable; ``|n_i . n_j|`` is
available as an alternative.  Everything is built on the autodiff engine, so
gradients flow through the encoding decodes (including the 6D Gram-Schmidt).

Evaluation reports, per plane: ``d`` (mm displacement along the ground-truth
normal), ``eps_n`` (normal angle error, degrees), and ``eps_i`` (in-plane
rotation error, degrees), aggregated over test samples by median, plus the
scalar score ``0.2 d + 0.6 eps_n + 0.2 eps_i``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Tensor
from .geometry import PlaneFrame, RotationKind, angle_between_deg

SCORE_WEIGHTS = (0.2, 0.6, 0.2)  # d, eps_n, eps_i

_EPS = 1e-8
_degenerate_normals = 0


def degenerate_normal_count() -> int:
    """Plane decodes rejected inside the orthogonality term since the process started."""
    return _degenerate_normals


ORTHOGONALITY_FORMS = ("cross", "dot")


@dataclass(frozen=True)
class LossWeights:
    """Convex combination weights (rotation, translation, orthogonality)."""

    alpha: float
    beta: float
    gamma: float = 0.0

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("loss weights must be non-negative")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-9:
            raise ValueError("loss weights must sum to 1")


# named weight presets per body region; "three_*" entries are the per-plane
# networks (no orthogonality term possible), the others drive one combined net
WEIGHT_PRESETS: dict[str, dict[str, LossWeights]] = {
    "calcaneus": {
        "three_axial": LossWeights(0.2, 0.8, 0.0),
        "three_semicoronal": LossWeights(0.2, 0.8, 0.0),
        "three_sagittal": LossWeights(0.6, 0.4, 0.0),
        "combined": LossWeights(0.5, 0.5, 0.0),
        "optimized_combined": LossWeights(0.6, 0.3, 0.1),
    },
    "ankle": {
        "three_axial": LossWeights(0.6, 0.4, 0.0),
        "three_coronal": LossWeights(0.2, 0.8, 0.0),
        "three_sagittal": LossWeights(0.8, 0.2, 0.0),
        "combined": LossWeights(0.5, 0.5, 0.0),
        "optimized_combined": LossWeights(0.2, 0.8, 0.0),
    },
}


def _row_norm(t: Tensor) -> Tensor:
    return engine.sqrt(engine.tsum(engine.mul(t, t), axis=1))


def _row_dot(a: Tensor, b: Tensor) -> Tensor:
    return engine.tsum(engine.mul(a, b), axis=1, keepdims=True)


def _safe_unit_rows(t: Tensor, norm: Tensor) -> Tensor:
    denom = engine.reshape(engine.maximum(norm, _EPS), (-1, 1))
    return engine.div(t, denom)


def _cross_rows(u: Tensor, v: Tensor) -> Tensor:
    i1, i2 = [1, 2, 0], [2, 0, 1]
    return engine.mul(u[:, i1], v[:, i2]) - engine.mul(u[:, i2], v[:, i1])


def _normals_sixd(enc: Tensor):
    c1, c2 = enc[:, 0:3], enc[:, 3:6]
    n1 = _row_norm(c1)
    b1 = _safe_unit_rows(c1, n1)
    r = c2 - engine.mul(_row_dot(c2, b1), b1)
    n2 = _row_norm(r)
    b2 = _safe_unit_rows(r, n2)
    valid = (n1.data > _EPS) & (n2.data > _EPS)
    return _cross_rows(b1, b2), valid


def _normals_quaternion(enc: Tensor):
    nq = _row_norm(enc)
    q = _safe_unit_rows(enc, nq)
    w, x, y, z = q[:, 0:1], q[:, 1:2], q[:, 2:3], q[:, 3:4]
    # third column of the rotation matrix of a unit quaternion
    nx = 2.0 * (engine.mul(x, z) + engine.mul(w, y))
    ny = 2.0 * (engine.mul(y, z) - engine.mul(w, x))
    nz = 1.0 - 2.0 * (engine.mul(x, x) + engine.mul(y, y))
    return engine.concat([nx, ny, nz], axis=1), nq.data > _EPS


def _normals_euler(enc: Tensor):
    sincos = []
    valid = None
    for i in range(3):
        s, c = enc[:, 2 * i : 2 * i + 1], enc[:, 2 * i + 1 : 2 * i + 2]
        n = engine.sqrt(engine.mul(s, s) + engine.mul(c, c))
        ok = (n.data[:, 0] ** 2) > _EPS
        valid = ok if valid is None else (valid & ok)
        denom = engine.maximum(n, _EPS)
        sincos.append((engine.div(s, denom), engine.div(c, denom)))
    (sa, ca), (sb, cb), (sg, cg) = sincos
    # third column of Rz(a) @ Ry(b) @ Rx(g)
    nx = engine.mul(engine.mul(ca, sb), cg) + engine.mul(sa, sg)
    ny = engine.mul(engine.mul(sa, sb), cg) - engine.mul(ca, sg)
    nz = engine.mul(cb, cg)
    return engine.concat([nx, ny, nz], axis=1), valid


def decoded_normals(enc: Tensor, kind: RotationKind):
    """Differentiable plane normals from raw encoding rows ``(B, k)``.

    Returns the normal tensor ``(B, 3)`` and a boolean row-validity mask;
    rows failing the decode preconditions produce an arbitrary value that the
    caller must mask out.
    """
    kind = RotationKind(kind)
    if kind is RotationKind.SIXD:
        return _normals_sixd(enc)
    if kind is RotationKind.QUATERNION:
        return _normals_quaternion(enc)
    return _normals_euler(enc)


def loss_graph(
    pred: Tensor,
    target: np.ndarray,
    weights: LossWeights,
    kind: RotationKind,
    n_planes: int,
    orthogonality_form: str = "cross",
) -> Tensor:
    """Build the combined loss over a batch as an engine graph node.

    ``pred`` is the raw network output ``(B, n_out)`` and ``target`` the
    matching encoded labels; both are laid out as ``n_planes`` consecutive
    ``(translation[3], encoding[k])`` groups.  Plane pairs whose predicted
    normals cannot be decoded contribute the constant worst-case 1 to the
    orthogonality term with zero gradient and are counted.
    """
    global _degenerate_normals
    kind = RotationKind(kind)
    if orthogonality_form not in ORTHOGONALITY_FORMS:
        raise ValueError(f"orthogonality_form must be one of {ORTHOGONALITY_FORMS}")
    per = 3 + kind.length
    target = np.asarray(target, dtype=pred.dtype)
    if pred.shape[-1] != per * n_planes or target.shape != pred.shape:
        raise ValueError("prediction/target layout does not match kind and n_planes")

    trans_terms = []
    rot_terms = []
    normals = []
    for p in range(n_planes):
        o = p * per
        trans_terms.append(_row_norm(pred[:, o : o + 3] - target[:, o : o + 3]))
        rot_terms.append(_row_norm(pred[:, o + 3 : o + per] - target[:, o + 3 : o + per]))
        if weights.gamma > 0.0 and n_planes > 1:
            normals.append(decoded_normals(pred[:, o + 3 : o + per], kind))

    l_trans = engine.tmean(engine.concat(trans_terms, axis=0))
    l_rot = engine.tmean(engine.concat(rot_terms, axis=0))
    total = weights.alpha * l_rot + weights.beta * l_trans

    if weights.gamma > 0.0 and n_planes > 1:
        pair_terms = []
        for i in range(n_planes):
            for j in range(i + 1, n_planes):
                (ni, vi), (nj, vj) = normals[i], normals[j]
                ok = vi & vj
                _degenerate_normals += int(np.size(ok) - np.count_nonzero(ok))
                if orthogonality_form == "cross":
                    # 1 - sin(angle between normals): zero exactly at orthogonality
                    term = 1.0 - _row_norm(_cross_rows(ni, nj))
                else:
                    dot = _row_dot(ni, nj)
                    term = engine.sqrt(engine.mul(dot, dot))[:, 0]
                mask = ok.astype(pred.dtype)
                pair_terms.append(engine.mul(term, mask) + (1.0 - mask))
        total = total + weights.gamma * engine.tmean(engine.concat(pair_terms, axis=0))
    return total


# ---------------------------------------------------------------------------
# evaluation metrics


@dataclass(frozen=True)
class PlaneErrors:
    """Per-plane evaluation errors: mm along the reference normal, degrees."""

    d: float
    eps_n: float
    eps_i: float

    def __post_init__(self):
        if self.d < 0 or not 0 <= self.eps_n <= 180 or not 0 <= self.eps_i <= 180:
            raise ValueError("invalid error components")


def plane_errors(pred: PlaneFrame, gt: PlaneFrame) -> PlaneErrors:
    """Translation, normal, and in-plane rotation error of a predicted plane.

    ``d`` projects the center offset onto the ground-truth normal (so pure
    in-plane shifts do not count); ``eps_n`` is the angle between the plane
    normals; ``eps_i`` the mean angle between corresponding in-plane axes.
    """
    n_gt = gt.e_w
    d = float(abs((pred.A - gt.A) @ n_gt))
    eps_n = angle_between_deg(pred.e_w, n_gt)
    eps_i = 0.5 * (angle_between_deg(pred.e_u, gt.e_u) + angle_between_deg(pred.e_v, gt.e_v))
    return PlaneErrors(d=d, eps_n=eps_n, eps_i=eps_i)


def score(d: float, eps_n: float, eps_i: float) -> float:
    """Weighted scalar performance ``0.2 d + 0.6 eps_n + 0.2 eps_i`` (lower is better)."""
    if d < 0 or eps_n < 0 or eps_i < 0:
        raise ValueError("score inputs must be non-negative")
    wd, wn, wi = SCORE_WEIGHTS
    return wd * d + wn * eps_n + wi * eps_i


@dataclass(frozen=True)
class ReportRow:
    plane: str
    d: float
    eps_n: float
    eps_i: float

    @property
    def score(self) -> float:
        return score(self.d, self.eps_n, self.eps_i)


def aggregate_errors(errors_by_plane: dict[str, list[PlaneErrors]]) -> list[ReportRow]:
    """Aggregate per-sample errors into report rows.

    Each component is aggregated over samples by median, giving one row per
    plane, plus a ``mean`` row holding the componentwise mean of the
    per-plane rows.  The score is always computed from the aggregated
    components.
    """
    if not errors_by_plane or any(len(v) == 0 for v in errors_by_plane.values()):
        raise ValueError("aggregate_errors needs at least one error per plane")

    def med(samples: list[PlaneErrors]) -> tuple[float, float, float]:
        return (
            float(np.median([e.d for e in samples])),
            float(np.median([e.eps_n for e in samples])),
            float(np.median([e.eps_i for e in samples])),
        )

    rows = [ReportRow(name, *med(samples)) for name, samples in errors_by_plane.items()]
    mean_row = ReportRow(
        "mean",
        float(np.mean([r.d for r in rows])),
        float(np.mean([r.eps_n for r in rows])),
        float(np.mean([r.eps_i for r in rows])),
    )
    return rows + [mean_row]


REPORT_HEADER = "plane,d_mm,eps_n_deg,eps_i_deg,score"


def rows_to_csv(rows: list[ReportRow]) -> str:
    lines = [REPORT_HEADER]
    for r in rows:
        lines.append(f"{r.plane},{r.d:.6g},{r.eps_n:.6g},{r.eps_i:.6g},{r.score:.6g}")
    return "\n".join(lines) + "\n"


def write_report(path, rows: list[ReportRow]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(rows_to_csv(rows))
