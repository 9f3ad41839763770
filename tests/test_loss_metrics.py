import numpy as np
import pytest

from conftest import random_rotations
from planereg.engine import Tensor
from planereg.geometry import (
    PlaneFrame,
    RotationKind,
    encode_rotation,
    rotation_about_axis,
    rotation_to_frame,
)
from planereg.loss_metrics import (
    LossWeights,
    PlaneErrors,
    ReportRow,
    WEIGHT_PRESETS,
    aggregate_errors,
    degenerate_normal_count,
    loss_graph,
    plane_errors,
    rows_to_csv,
    score,
)

EX, EY, EZ = np.eye(3)

# score cells published for the per-plane breakdown of the tuned combined
# model; the components recompute the printed score within rounding
PER_PLANE_REFERENCE_ROWS = [
    (10.35, 7.38, 7.69, 8.04),
    (13.11, 8.71, 7.49, 9.35),
    (7.77, 8.65, 8.34, 8.41),
    (4.56, 7.57, 6.05, 6.67),
    (4.73, 9.18, 6.89, 7.83),
]


def loss(pred, target, *args, **kwargs):
    """Value and gradient of one sample's loss, through ``loss_graph`` and ``backward``."""
    pt = Tensor(np.array(pred, dtype=np.float64)[None, :], requires_grad=True)
    node = loss_graph(pt, np.asarray(target)[None, :], *args, **kwargs)
    node.backward()
    return node.item(), pt.grad[0]


def _orthogonal_targets(kind, n_planes=3):
    """Encoded target vector whose planes are exactly orthogonal."""
    frames = [
        PlaneFrame(A=np.array([0.01, -0.02, 0.03]), e_u=EX, e_v=EY),
        PlaneFrame(A=np.array([0.04, 0.0, -0.01]), e_u=EX, e_v=EZ),
        PlaneFrame(A=np.array([-0.03, 0.02, 0.0]), e_u=EY, e_v=EZ),
    ][:n_planes]
    parts = []
    for f in frames:
        parts.append(f.A)
        parts.append(encode_rotation(np.stack([f.e_u, f.e_v, f.e_w], axis=1), kind))
    return np.concatenate(parts)


class TestLossWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LossWeights(0.5, 0.4, 0.2)

    def test_non_negative(self):
        with pytest.raises(ValueError):
            LossWeights(1.2, -0.2, 0.0)

    @pytest.mark.parametrize("weights", [(np.nan, 0.5, 0.5), (0.5, np.nan, 0.5), (0.5, 0.5, np.nan)])
    def test_nan_rejected(self, weights):
        with pytest.raises(ValueError, match="non-negative"):
            LossWeights(*weights)

    def test_presets(self):
        assert WEIGHT_PRESETS["calcaneus"]["optimized_combined"] == LossWeights(0.6, 0.3, 0.1)
        assert WEIGHT_PRESETS["ankle"]["optimized_combined"] == LossWeights(0.2, 0.8, 0.0)
        assert WEIGHT_PRESETS["ankle"]["combined"] == LossWeights(0.5, 0.5, 0.0)


class TestLoss:
    @pytest.mark.parametrize("kind", list(RotationKind))
    def test_zero_at_exact_match_with_orthogonal_planes(self, kind):
        target = _orthogonal_targets(kind)
        val, grad = loss(target, target, LossWeights(0.4, 0.4, 0.2), kind, 3)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_translation_term_3_4_5(self):
        kind = RotationKind.SIXD
        target = _orthogonal_targets(kind, n_planes=1)
        pred = target.copy()
        pred[0] += 0.3
        pred[2] += 0.4
        val, _ = loss(pred, target, LossWeights(0.0, 1.0, 0.0), kind, 1)
        assert val == pytest.approx(0.5)

    def test_orthogonality_term_at_45_degrees(self):
        kind = RotationKind.SIXD
        # two planes whose normals are 45 degrees apart
        f1 = PlaneFrame(A=np.zeros(3), e_u=EX, e_v=EY)
        R = rotation_about_axis(EX, np.radians(45))
        f2 = PlaneFrame(A=np.zeros(3), e_u=EX, e_v=R @ EY)
        parts = []
        for f in (f1, f2):
            parts.append(f.A)
            parts.append(encode_rotation(np.stack([f.e_u, f.e_v, f.e_w], axis=1), kind))
        pred = np.concatenate(parts)
        val, _ = loss(pred, pred, LossWeights(0.0, 0.0, 1.0), kind, 2)
        assert val == pytest.approx(1.0 - np.sqrt(2) / 2, abs=1e-12)

    def test_rotation_term_is_encoding_distance(self):
        kind = RotationKind.QUATERNION
        target = _orthogonal_targets(kind)
        pred = target.copy()
        pred[3:7] += [0.1, -0.2, 0.2, 0.0]
        val, _ = loss(pred, target, LossWeights(1.0, 0.0, 0.0), kind, 3)
        assert val == pytest.approx(0.3 / 3)

    @pytest.mark.parametrize("kind", list(RotationKind))
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(0)
        n_planes = 3
        per = 3 + kind.length
        w = LossWeights(0.4, 0.4, 0.2)
        for trial in range(3):
            pred = rng.uniform(-1, 1, per * n_planes)
            target = _orthogonal_targets(kind)
            val, grad = loss(pred, target, w, kind, n_planes)
            h = 1e-7
            for i in rng.choice(per * n_planes, 6, replace=False):
                p1, p2 = pred.copy(), pred.copy()
                p1[i] += h
                p2[i] -= h
                fd = (loss(p1, target, w, kind, n_planes)[0] - loss(p2, target, w, kind, n_planes)[0]) / (2 * h)
                denom = max(abs(fd), abs(grad[i]), 1e-10)
                assert abs(fd - grad[i]) / denom < 1e-5

    def test_loss_non_negative(self):
        rng = np.random.default_rng(1)
        kind = RotationKind.SIXD
        for _ in range(50):
            pred = rng.uniform(-2, 2, 27)
            target = _orthogonal_targets(kind)
            val, _ = loss(pred, target, LossWeights(0.3, 0.3, 0.4), kind, 3)
            assert val >= 0.0

    def test_degenerate_normal_counted_and_constant(self):
        kind = RotationKind.SIXD
        target = _orthogonal_targets(kind)
        pred = target.copy()
        pred[3:9] = 0.0  # first plane encoding collapses
        before = degenerate_normal_count()
        val, grad = loss(pred, target, LossWeights(0.0, 0.0, 1.0), kind, 3)
        # pairs (0,1) and (0,2) hit the degenerate plane and contribute 1 each
        assert degenerate_normal_count() - before == 2
        assert val == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert np.all(grad[3:9] == 0.0)

    def test_calcaneus_tilt_conflicts_with_orthogonality_prior(self):
        # ground truth with one plane tilted by theta has a nonzero floor:
        # the deliberately non-orthogonal pair contributes 1 - cos(theta)
        kind = RotationKind.SIXD
        theta = np.radians(25.0)
        f1 = PlaneFrame(A=np.zeros(3), e_u=EX, e_v=EY)
        f2 = PlaneFrame(A=np.zeros(3), e_u=EX, e_v=EZ)
        R = rotation_about_axis(EY, -theta)
        f3 = PlaneFrame(A=np.zeros(3), e_u=EY, e_v=R @ EZ)
        parts = []
        for f in (f1, f2, f3):
            parts.append(f.A)
            parts.append(encode_rotation(np.stack([f.e_u, f.e_v, f.e_w], axis=1), kind))
        vec = np.concatenate(parts)
        val, _ = loss(vec, vec, LossWeights(0.0, 0.0, 1.0), kind, 3)
        assert val == pytest.approx((1.0 - np.cos(theta)) / 3.0, abs=1e-9)
        assert val > 0.0

    def test_batched_graph_matches_singles(self):
        kind = RotationKind.SIXD
        rng = np.random.default_rng(2)
        target = np.stack([_orthogonal_targets(kind)] * 4)
        pred = rng.uniform(-1, 1, (4, 27))
        w = LossWeights(0.4, 0.4, 0.2)
        node = loss_graph(Tensor(pred), target, w, kind, 3)
        singles = [loss(pred[i], target[i], w, kind, 3)[0] for i in range(4)]
        assert node.item() == pytest.approx(np.mean(singles), rel=1e-12)


class TestPlaneErrors:
    def _gt(self):
        return PlaneFrame(A=np.array([3.0, -1.0, 2.0]), e_u=EX, e_v=EY)

    def test_identical_frames(self):
        e = plane_errors(self._gt(), self._gt())
        assert (e.d, e.eps_n, e.eps_i) == (0.0, 0.0, 0.0)

    def test_rotation_about_in_plane_axis_tilts_normal(self):
        gt = self._gt()
        R = rotation_about_axis(gt.e_u, np.radians(10))
        pred = PlaneFrame(A=gt.A, e_u=gt.e_u, e_v=R @ gt.e_v)
        e = plane_errors(pred, gt)
        assert e.eps_n == pytest.approx(10.0, abs=1e-9)
        assert e.d == pytest.approx(0.0, abs=1e-12)

    def test_displacement_projects_onto_normal(self):
        gt = self._gt()
        pred = PlaneFrame(A=gt.A + 5.0 * gt.e_w + 7.0 * gt.e_u, e_u=gt.e_u, e_v=gt.e_v)
        assert plane_errors(pred, gt).d == pytest.approx(5.0)

    def test_eps_i_is_mean_of_axis_angles(self):
        gt = self._gt()
        R = rotation_about_axis(gt.e_w, np.radians(8))
        pred = PlaneFrame(A=gt.A, e_u=R @ gt.e_u, e_v=R @ gt.e_v)
        assert plane_errors(pred, gt).eps_i == pytest.approx(8.0, abs=1e-9)

    def test_eps_n_symmetric_d_not(self):
        rng = np.random.default_rng(3)
        Ra, Rb = random_rotations(2, seed=4)
        a = rotation_to_frame(Ra, rng.uniform(-10, 10, 3))
        b = rotation_to_frame(Rb, rng.uniform(-10, 10, 3))
        ea, eb = plane_errors(a, b), plane_errors(b, a)
        assert ea.eps_n == pytest.approx(eb.eps_n, abs=1e-9)
        assert ea.d != pytest.approx(eb.d, abs=1e-6)


class TestScore:
    def test_zero(self):
        assert score(0, 0, 0) == 0.0

    @pytest.mark.parametrize("d,en,ei,expected", [(9.94, 8.77, 8.34, 8.92), (5.43, 7.11, 6.58, 6.67)])
    def test_published_cells(self, d, en, ei, expected):
        assert score(d, en, ei) == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("d,en,ei,expected", PER_PLANE_REFERENCE_ROWS)
    def test_per_plane_reference_rows(self, d, en, ei, expected):
        assert score(d, en, ei) == pytest.approx(expected, abs=0.01)

    def test_linearity(self):
        a = (3.0, 4.0, 5.0)
        b = (1.0, 0.5, 2.0)
        assert score(*(np.add(a, b))) == pytest.approx(score(*a) + score(*b))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            score(-1, 0, 0)


class TestAggregate:
    def test_single_sample_passthrough(self):
        e = PlaneErrors(2.0, 3.0, 4.0)
        rows = aggregate_errors({"axial": [e]})
        assert rows[0].d == 2.0 and rows[0].eps_n == 3.0 and rows[0].eps_i == 4.0

    def test_median_aggregation(self):
        samples = [PlaneErrors(d, 1.0, 1.0) for d in (1.0, 2.0, 9.0)]
        rows = aggregate_errors({"axial": samples})
        assert rows[0].d == 2.0

    def test_mean_row_from_per_plane_components(self):
        # frozen from the per-plane reference rows of the calcaneus model:
        # componentwise means (10.41, 8.2467, 7.84) score to 8.598
        per_plane = {
            "axial": [PlaneErrors(10.35, 7.38, 7.69)],
            "semicoronal": [PlaneErrors(13.11, 8.71, 7.49)],
            "sagittal": [PlaneErrors(7.77, 8.65, 8.34)],
        }
        rows = aggregate_errors(per_plane)
        assert [r.plane for r in rows] == ["axial", "semicoronal", "sagittal", "mean"]
        mean = rows[-1]
        assert mean.d == pytest.approx(10.41, abs=1e-6)
        assert mean.score == pytest.approx(8.598, abs=1e-3)
        # the published all-plane summary reported 8.54 for this model;
        # mean-of-medians reproduces it only within aggregation slack
        assert abs(mean.score - 8.54) < 0.15

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_errors({})
        with pytest.raises(ValueError):
            aggregate_errors({"axial": []})

    def test_csv_shape(self):
        rows = aggregate_errors({"axial": [PlaneErrors(1, 2, 3)], "sagittal": [PlaneErrors(4, 5, 6)]})
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "plane,d_mm,eps_n_deg,eps_i_deg,score"
        assert len(lines) == 4  # header + 2 planes + mean
        assert lines[1].startswith("axial,")
