import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planereg.geometry import (
    DegenerateEncodingError,
    GeometryError,
    PlaneFrame,
    RotationKind,
    angle_between_deg,
    assert_rigid_transform,
    compose_transforms,
    decode_rotation,
    denormalize_translation,
    encode_rotation,
    euler_zyx_from_rotation,
    frame_to_rotation,
    identity_transform,
    mirror_x_transform,
    normalize_translation,
    read_plane_file,
    rotation_about_axis,
    rotation_from_euler_zyx,
    rotation_to_frame,
    rotation_transform,
    scale_transform,
    transform_plane,
    translation_transform,
    write_plane_file,
)
from conftest import random_rotations

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def normal(e_u, e_v):
    return PlaneFrame(A=np.zeros(3), e_u=e_u, e_v=e_v).e_w


class TestPlaneNormal:
    def test_right_handed_basis(self):
        assert np.allclose(normal(EX, EY), EZ)

    def test_cyclic_permutation(self):
        assert np.allclose(normal(EY, EZ), EX)

    def test_hand_computed_cross(self):
        # (1,0,0) x (0,0,1) = (0*1-0*0, 0*0-1*1, 0) = (0,-1,0)
        assert np.allclose(normal(EX, EZ), -EY)

    def test_unit_norm_output(self):
        for R in random_rotations(50, seed=3):
            n = normal(R[:, 0], R[:, 1])
            assert abs(np.linalg.norm(n) - 1.0) < 1e-9

    def test_rejects_non_unit(self):
        with pytest.raises(GeometryError, match="e_u is not unit length"):
            normal(2 * EX, EY)

    def test_rejects_non_orthogonal(self):
        v = np.array([np.cos(0.2), np.sin(0.2), 0.0])
        with pytest.raises(GeometryError, match="not orthogonal"):
            normal(EX, v)


class TestFrameRotation:
    def test_identity_frame(self):
        p = PlaneFrame(A=np.zeros(3), e_u=EX, e_v=EY)
        assert np.array_equal(frame_to_rotation(p), np.eye(3))

    def test_quarter_turn_columns(self):
        # columns assembled by hand: e_u=(0,1,0), e_v=(-1,0,0), e_w=(0,0,1)
        p = PlaneFrame(A=np.zeros(3), e_u=EY, e_v=-EX)
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(frame_to_rotation(p), expected)

    def test_round_trip_with_rotation_to_frame(self):
        for R in random_rotations(100, seed=1):
            p = rotation_to_frame(R, A=[1.0, 2.0, 3.0])
            assert np.allclose(frame_to_rotation(p), R, atol=1e-12)

    def test_result_is_rotation(self):
        for R in random_rotations(20, seed=2):
            Q = frame_to_rotation(rotation_to_frame(R, np.zeros(3)))
            assert np.max(np.abs(Q.T @ Q - np.eye(3))) < 1e-6
            assert abs(np.linalg.det(Q) - 1.0) < 1e-6

    def test_invalid_frame_rejected(self):
        with pytest.raises(GeometryError):
            PlaneFrame(A=np.zeros(3), e_u=EX, e_v=EX)
        with pytest.raises(GeometryError):
            PlaneFrame(A=np.zeros(3), e_u=1.1 * EX, e_v=EY)


class TestEncode:
    def test_identity_sixd(self):
        assert np.allclose(encode_rotation(np.eye(3), RotationKind.SIXD), [1, 0, 0, 0, 1, 0])

    def test_identity_quaternion(self):
        assert np.allclose(encode_rotation(np.eye(3), RotationKind.QUATERNION), [1, 0, 0, 0])

    def test_quarter_turn_quaternion(self):
        R = rotation_from_euler_zyx(np.pi / 2, 0.0, 0.0)
        q = encode_rotation(R, RotationKind.QUATERNION)
        assert np.allclose(q, [np.sqrt(2) / 2, 0, 0, np.sqrt(2) / 2], atol=1e-12)

    def test_quaternion_canonical_sign(self):
        q = encode_rotation(random_rotations(1000, seed=4), RotationKind.QUATERNION)
        assert np.all(q[:, 0] >= 0.0)
        assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-6)

    def test_euler_sincos_values_in_unit_interval(self):
        enc = encode_rotation(random_rotations(500, seed=5), RotationKind.EULER_SINCOS)
        assert np.all(np.abs(enc) <= 1.0 + 1e-12)


class TestDecode:
    def test_sixd_gram_schmidt_by_hand(self):
        # normalize (1,0,0); (1,1,0) minus its projection -> (0,1,0); cross -> z
        assert np.allclose(decode_rotation(np.array([1.0, 0, 0, 1, 1, 0]), RotationKind.SIXD), np.eye(3))

    def test_euler_pair_scale_invariance_45_deg(self):
        enc = np.array([0.2, 0.2, 0.0, 1.0, 0.0, 1.0])
        R = decode_rotation(enc, RotationKind.EULER_SINCOS)
        assert np.allclose(R, rotation_from_euler_zyx(np.pi / 4, 0, 0), atol=1e-12)

    def test_quaternion_normalized_first(self):
        assert np.allclose(decode_rotation(np.array([2.0, 0, 0, 0]), RotationKind.QUATERNION), np.eye(3))

    def test_atan2_scale_invariance_random(self):
        rng = np.random.default_rng(6)
        enc = encode_rotation(random_rotations(200, seed=6), RotationKind.EULER_SINCOS)
        scales = rng.uniform(0.1, 7.0, size=(200, 3))
        scaled = enc * np.repeat(scales, 2, axis=1)
        assert np.allclose(
            decode_rotation(scaled, RotationKind.EULER_SINCOS),
            decode_rotation(enc, RotationKind.EULER_SINCOS),
            atol=1e-12,
        )

    def test_quaternion_double_cover_exact(self):
        q = encode_rotation(random_rotations(100, seed=7), RotationKind.QUATERNION)
        assert np.array_equal(
            decode_rotation(q, RotationKind.QUATERNION),
            decode_rotation(-q, RotationKind.QUATERNION),
        )

    @pytest.mark.parametrize("kind", list(RotationKind))
    def test_round_trip(self, kind):
        R = random_rotations(10_000, seed=8)
        R2 = decode_rotation(encode_rotation(R, kind), kind)
        assert np.max(np.abs(R2 - R)) < 1e-9

    def test_round_trip_at_gimbal_lock(self):
        for beta in (np.pi / 2, -np.pi / 2):
            R = rotation_from_euler_zyx(0.3, beta, -0.7)
            enc = encode_rotation(R, RotationKind.EULER_SINCOS)
            assert np.allclose(decode_rotation(enc, RotationKind.EULER_SINCOS), R, atol=1e-9)

    def test_sixd_noise_robustness(self):
        rng = np.random.default_rng(9)
        enc = encode_rotation(random_rotations(2000, seed=9), RotationKind.SIXD)
        noisy = enc + rng.uniform(-0.3, 0.3, size=enc.shape)
        R = decode_rotation(noisy, RotationKind.SIXD)
        gram = np.einsum("nji,njk->nik", R, R)
        assert np.max(np.abs(gram - np.eye(3))) < 1e-6
        assert np.max(np.abs(np.linalg.det(R) - 1.0)) < 1e-6

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateEncodingError):
            decode_rotation(np.zeros(4), RotationKind.QUATERNION)
        with pytest.raises(DegenerateEncodingError):
            decode_rotation(np.zeros(6), RotationKind.SIXD)
        with pytest.raises(DegenerateEncodingError):
            # second column parallel to the first
            decode_rotation(np.array([1.0, 0, 0, 2.0, 0, 0]), RotationKind.SIXD)
        with pytest.raises(DegenerateEncodingError):
            decode_rotation(np.array([0.0, 0, 1, 0, 0, 1]), RotationKind.EULER_SINCOS)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=6, max_size=6))
    def test_sixd_decode_always_proper_rotation(self, values):
        v = np.array(values)
        c1 = v[:3]
        n1 = np.linalg.norm(c1)
        if n1 <= 1e-8:
            return
        r = v[3:] - (v[3:] @ c1 / n1) * c1 / n1
        if np.linalg.norm(r) <= 1e-8:
            return
        R = decode_rotation(v, RotationKind.SIXD)
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-6
        assert abs(np.linalg.det(R) - 1.0) < 1e-6


class TestTranslationNormalization:
    def test_center_maps_to_zero(self):
        assert np.allclose(normalize_translation([0, 0, 0], 160.25), 0.0)

    def test_half_extent(self):
        assert np.allclose(normalize_translation([80.125, 0, 0], 160.25), [0.5, 0, 0])
        assert np.allclose(denormalize_translation([0.5, 0, 0], 160.25), [80.125, 0, 0])

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        A = rng.uniform(-100, 100, size=(50, 3))
        back = denormalize_translation(normalize_translation(A, 158.4), 158.4)
        assert np.max(np.abs(back - A)) < 1e-12

    def test_rejects_bad_extent(self):
        with pytest.raises(GeometryError):
            normalize_translation([1, 2, 3], 0.0)


class TestComposeTransforms:
    def test_empty_is_identity(self):
        assert np.array_equal(compose_transforms([]), np.eye(4))

    def test_singleton(self):
        T = translation_transform([1, 2, 3])
        assert np.array_equal(compose_transforms([T]), T)

    def test_inverse_pair_cancels(self):
        a = rotation_transform(rotation_about_axis(EZ, np.radians(45)))
        b = rotation_transform(rotation_about_axis(EZ, np.radians(-45)))
        assert np.allclose(compose_transforms([a, b]), np.eye(4), atol=1e-12)

    def test_application_order(self):
        # scale then translate leaves the origin at the translation;
        # translate then scale also scales the translation
        s, t = scale_transform(1.05), translation_transform([12, 0, 0])
        p0 = np.array([0.0, 0.0, 0.0, 1.0])
        assert np.allclose((compose_transforms([s, t]) @ p0)[:3], [12, 0, 0])
        assert np.allclose((compose_transforms([t, s]) @ p0)[:3], [12.6, 0, 0])

    def test_associativity(self):
        rng = np.random.default_rng(11)
        mats = []
        for R in random_rotations(3, seed=11):
            T = rotation_transform(R)
            T[:3, 3] = rng.uniform(-5, 5, 3)
            mats.append(T)
        a, b, c = mats
        lhs = compose_transforms([a, b, c])
        rhs = compose_transforms([compose_transforms([a, b]), c])
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestTransformPlane:
    def _frame(self):
        return PlaneFrame(A=np.array([5.0, -2.0, 1.0]), e_u=EX, e_v=EY)

    def test_identity(self):
        p = self._frame()
        q = transform_plane(identity_transform(), p)
        assert np.allclose(q.A, p.A) and np.allclose(q.e_u, p.e_u) and np.allclose(q.e_v, p.e_v)

    def test_quarter_turn_moves_e_u(self):
        T = rotation_transform(rotation_about_axis(EZ, np.pi / 2))
        q = transform_plane(T, self._frame())
        assert np.allclose(q.e_u, EY, atol=1e-12)

    def test_translation_only_moves_center(self):
        T = translation_transform([3, 4, 5])
        p = self._frame()
        q = transform_plane(T, p)
        assert np.allclose(q.A, p.A + [3, 4, 5])
        assert np.allclose(q.e_u, p.e_u) and np.allclose(q.e_v, p.e_v)

    def test_scale_keeps_unit_vectors(self):
        q = transform_plane(scale_transform(1.05), self._frame())
        assert abs(np.linalg.norm(q.e_u) - 1.0) < 1e-12

    def test_mirror_frame_stays_right_handed(self):
        q = transform_plane(mirror_x_transform(), self._frame())
        n = np.cross(q.e_u, q.e_v)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        assert np.allclose(q.e_w, n)

    def test_mirror_twice_is_identity(self):
        M = mirror_x_transform()
        p = self._frame()
        q = transform_plane(M, transform_plane(M, p))
        assert np.max(np.abs(q.A - p.A)) < 1e-12
        assert np.max(np.abs(q.e_u - p.e_u)) < 1e-12

    def test_dihedral_angles_preserved_under_rigid(self):
        rng = np.random.default_rng(12)
        frames = [
            PlaneFrame(A=rng.uniform(-10, 10, 3), e_u=R[:, 0], e_v=R[:, 1])
            for R in random_rotations(6, seed=12)
        ]
        for R in random_rotations(20, seed=13):
            T = rotation_transform(R)
            T[:3, 3] = rng.uniform(-20, 20, 3)
            moved = [transform_plane(T, f) for f in frames]
            for i in range(len(frames)):
                for j in range(i + 1, len(frames)):
                    before = angle_between_deg(frames[i].e_w, frames[j].e_w)
                    after = angle_between_deg(moved[i].e_w, moved[j].e_w)
                    assert abs(before - after) < 1e-9


class TestRigidTransformValidation:
    def test_bottom_row_must_be_exact(self):
        T = np.eye(4)
        T[3, 0] = 1e-15
        with pytest.raises(GeometryError):
            assert_rigid_transform(T)

    def test_scale_range(self):
        assert_rigid_transform(scale_transform(1.1))
        with pytest.raises(GeometryError):
            assert_rigid_transform(scale_transform(1.2))

    def test_mirror_allowed(self):
        assert_rigid_transform(mirror_x_transform())

    def test_shear_rejected(self):
        T = np.eye(4)
        T[0, 1] = 0.1
        with pytest.raises(GeometryError):
            assert_rigid_transform(T)


class TestAngles:
    def test_orthogonal(self):
        assert angle_between_deg(EX, EY) == pytest.approx(90.0)

    def test_opposite(self):
        assert angle_between_deg(EX, -EX) == pytest.approx(180.0)

    def test_tiny_angle_stable(self):
        v = np.array([np.cos(1e-8), np.sin(1e-8), 0.0])
        assert angle_between_deg(EX, v) == pytest.approx(np.degrees(1e-8), rel=1e-6)


class TestEulerExtraction:
    def test_matches_construction(self):
        rng = np.random.default_rng(14)
        angles = rng.uniform(-np.pi + 0.01, np.pi - 0.01, size=(200, 3))
        angles[:, 1] = np.clip(angles[:, 1], -np.pi / 2 + 0.01, np.pi / 2 - 0.01)
        R = rotation_from_euler_zyx(angles[:, 0], angles[:, 1], angles[:, 2])
        back = euler_zyx_from_rotation(R)
        assert np.max(np.abs(back - angles)) < 1e-9


class TestPlaneFile:
    def test_round_trip(self, tmp_path):
        frames = {}
        for name, R in zip(("axial", "sagittal", "coronal"), random_rotations(3, seed=15)):
            frames[name] = PlaneFrame(A=np.array([1.25, -7.5, 3.0]), e_u=R[:, 0], e_v=R[:, 1])
        path = tmp_path / "planes.txt"
        write_plane_file(path, frames)
        back = read_plane_file(path)
        assert list(back) == list(frames)
        for name in frames:
            assert np.max(np.abs(back[name].A - frames[name].A)) < 1e-12
            assert np.max(np.abs(back[name].e_u - frames[name].e_u)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        centers=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3), min_size=1, max_size=3),
    )
    def test_round_trip_is_bitwise(self, seed, centers):
        names = ("axial", "sagittal", "coronal")
        frames = {
            name: rotation_to_frame(R, A)
            for name, R, A in zip(names, random_rotations(len(centers), seed=seed), centers)
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "planes.txt")
            write_plane_file(path, frames)
            back = read_plane_file(path)
        assert list(back) == list(frames)
        for name, frame in frames.items():
            for field in ("A", "e_u", "e_v"):
                assert getattr(back[name], field).tobytes() == getattr(frame, field).tobytes()

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "planes.txt"
        path.write_text("# comment\n\naxial 0 0 0 1 0 0 0 1 0  # trailing\n")
        back = read_plane_file(path)
        assert list(back) == ["axial"]

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "planes.txt"
        path.write_text("axial 0 0 0 1 0\n")
        with pytest.raises(GeometryError, match="planes.txt:1"):
            read_plane_file(path)

    def test_bad_number_reports_location(self, tmp_path):
        path = tmp_path / "planes.txt"
        path.write_text("axial 0 0 0 1 0 0 0 1 0\nsagittal 0 0 abc 1 0 0 0 0 1\n")
        with pytest.raises(GeometryError, match=r"planes.txt:2: could not convert string to float: 'abc'"):
            read_plane_file(path)

    def test_bad_frame_reports_location(self, tmp_path):
        path = tmp_path / "planes.txt"
        path.write_text("# comment\naxial 0 0 0 2 0 0 0 1 0\n")
        with pytest.raises(GeometryError, match="planes.txt:2: e_u is not unit length"):
            read_plane_file(path)

    def test_repeated_plane_rejected(self, tmp_path):
        path = tmp_path / "planes.txt"
        path.write_text("axial 0 0 0 1 0 0 0 1 0\naxial 5 0 0 1 0 0 0 1 0\n")
        with pytest.raises(GeometryError, match="planes.txt:2: plane 'axial' is already listed"):
            read_plane_file(path)
