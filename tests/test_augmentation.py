import numpy as np
import pytest

from planereg.augmentation import (
    AugmentConfig,
    SeededRng,
    augment_sample,
    center_input,
    decode_plane_vector,
    encode_plane_targets,
    out_of_cube_count,
    sample_augmentation,
)
from planereg.geometry import (
    PlaneFrame,
    RotationKind,
    normalize_translation,
    rotation_about_axis,
    rotation_transform,
    transform_plane,
)
from planereg.harness import ExperimentConfig
from planereg.phantom import PhantomSpec, generate_phantom
from planereg.volume import interpolation_call_count

EX, EY, EZ = np.eye(3)


@pytest.fixture(scope="module")
def phantom():
    spec = PhantomSpec(patient_id=0, pose=np.eye(4))
    vol, planes = generate_phantom(spec, 32, 5.0, np.random.default_rng(0))
    return vol, list(planes.values())


def degenerate_config(**kw):
    defaults = dict(
        rot_deg=0.0,
        scale_range=(1.0, 1.0),
        trans_mm=0.0,
        mirror_prob=0.0,
        out_dims=32,
        out_spacing=5.0,
        intensity_range=(1.0, 1.0),
    )
    defaults.update(kw)
    return AugmentConfig(**defaults)


def protocol_config(**kw):
    """The experiment's augmentation ranges on a 32^3, 5 mm grid."""
    return ExperimentConfig(out_dims=32, out_spacing=5.0, **kw).augment_config()


class TestSeededRng:
    def test_streams_reproducible(self):
        a = SeededRng(42)
        b = SeededRng(42)
        assert a.spatial.uniform(size=5).tolist() == b.spatial.uniform(size=5).tolist()

    def test_streams_independent(self):
        r = SeededRng(42)
        s1 = r.spatial.uniform(size=5)
        s2 = r.intensity.uniform(size=5)
        assert not np.allclose(s1, s2)

    def test_derive_changes_sequence(self):
        assert not np.allclose(
            SeededRng(1).derive(0, 0).spatial.uniform(size=3),
            SeededRng(1).derive(0, 1).spatial.uniform(size=3),
        )

    def test_unknown_stream_rejected(self):
        with pytest.raises(KeyError):
            SeededRng(0).stream("nope")


class TestAugmentConfig:
    def test_defaults_match_protocol(self):
        cfg = ExperimentConfig().augment_config()
        assert cfg.rot_deg == 45.0
        assert cfg.scale_range == (0.95, 1.05)
        assert cfg.trans_mm == 12.0
        assert cfg.mirror_prob == 0.5
        assert cfg.intensity_range == (0.95, 1.05)

    def test_resolution_extent(self):
        assert degenerate_config(out_dims=64, out_spacing=2.5).extent_mm == pytest.approx(160.0)

    def test_validation(self):
        # the messages name AugmentConfig's own fields, not the experiment keys they come from
        with pytest.raises(ValueError, match="scale_range"):
            degenerate_config(scale_range=(0.8, 1.0))
        with pytest.raises(ValueError, match="intensity_range"):
            degenerate_config(intensity_range=(0.9, 1.0))
        with pytest.raises(ValueError):
            degenerate_config(mirror_prob=1.5)
        with pytest.raises(ValueError):
            degenerate_config(rot_deg=-1.0)


class TestSampleAugmentation:
    def test_degenerate_config_gives_identity(self):
        T, mirrored, factor = sample_augmentation(degenerate_config(), SeededRng(0))
        assert np.array_equal(T, np.eye(4))
        assert mirrored is False
        assert factor == 1.0

    def test_seed_determinism(self):
        cfg = protocol_config()
        a = sample_augmentation(cfg, SeededRng(42))
        b = sample_augmentation(cfg, SeededRng(42))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1] and a[2] == b[2]

    def test_mirror_frequency(self):
        cfg = protocol_config()
        hits = sum(sample_augmentation(cfg, SeededRng(7).derive(i))[1] for i in range(10_000))
        assert 0.47 <= hits / 10_000 <= 0.53

    def test_parameters_within_ranges(self):
        cfg = protocol_config()
        for i in range(100):
            T, mirrored, factor = sample_augmentation(cfg, SeededRng(3).derive(i))
            assert 0.95 <= factor <= 1.05
            L = T[:3, :3]
            s = abs(np.linalg.det(L)) ** (1 / 3)
            assert 0.95 - 1e-9 <= s <= 1.05 + 1e-9
            assert np.all(np.abs(T[:3, 3]) <= 12.0 + 1e-9)


class TestEncodeDecode:
    def test_round_trip(self):
        frames = [
            PlaneFrame(A=np.array([10.0, -5.0, 2.0]), e_u=EX, e_v=EY),
            PlaneFrame(A=np.array([0.0, 3.0, 1.0]), e_u=EY, e_v=EZ),
        ]
        for kind in RotationKind:
            vec = encode_plane_targets(frames, kind, extent_mm=160.0)
            assert vec.shape == (2 * (3 + kind.length),)
            back = decode_plane_vector(vec, kind, extent_mm=160.0)
            for orig, rec in zip(frames, back):
                assert np.max(np.abs(orig.A - rec.A)) < 1e-9
                assert np.max(np.abs(orig.e_u - rec.e_u)) < 1e-9
                assert np.max(np.abs(orig.e_v - rec.e_v)) < 1e-9

    def test_translation_encoding_is_normalized(self):
        f = PlaneFrame(A=np.array([80.0, 0.0, 0.0]), e_u=EX, e_v=EY)
        vec = encode_plane_targets([f], RotationKind.SIXD, extent_mm=160.0)
        assert vec[0] == pytest.approx(0.5)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            decode_plane_vector(np.zeros(10), RotationKind.SIXD, 160.0)


class TestAugmentSample:
    def test_identity_augmentation_keeps_targets(self, phantom):
        vol, planes = phantom
        s = augment_sample(vol, planes, degenerate_config(), SeededRng(0), kind=RotationKind.SIXD)
        want = encode_plane_targets(planes, RotationKind.SIXD, 160.0)
        assert np.max(np.abs(s.target - want)) < 1e-12
        assert s.image.shape == (32, 32, 32)
        assert s.image.min() > 0.0 and s.image.max() < 1.0

    def test_single_interpolation_pass(self, phantom):
        vol, planes = phantom
        cfg = protocol_config()
        before = interpolation_call_count()
        augment_sample(vol, planes, cfg, SeededRng(1), kind=RotationKind.SIXD)
        assert interpolation_call_count() - before == 1

    def test_label_consistency_through_inverse(self, phantom):
        vol, planes = phantom
        cfg = protocol_config(mirror_prob=0.0)
        for i in range(100):
            s = augment_sample(vol, planes, cfg, SeededRng(5).derive(i), kind=RotationKind.SIXD)
            Tinv = np.linalg.inv(s.transform)
            Tinv[3] = [0.0, 0.0, 0.0, 1.0]
            decoded = decode_plane_vector(s.target, RotationKind.SIXD, cfg.extent_mm)
            for orig, dec in zip(planes, decoded):
                back = transform_plane(Tinv, dec)
                assert np.max(np.abs(back.A - orig.A)) < 1e-9
                assert np.max(np.abs(back.e_u - orig.e_u)) < 1e-9
                assert np.max(np.abs(back.e_v - orig.e_v)) < 1e-9

    def test_rigid_transport_angle(self):
        # a pure rotation about z transports an x normal by exactly its angle
        f = PlaneFrame(A=np.zeros(3), e_u=EY, e_v=EZ)  # normal x
        T = rotation_transform(rotation_about_axis(EZ, np.radians(30)))
        moved = transform_plane(T, f)
        assert np.degrees(np.arccos(np.clip(moved.e_w @ f.e_w, -1, 1))) == pytest.approx(30.0, abs=1e-9)

    def test_translation_shifts_normalized_center(self, phantom):
        vol, planes = phantom
        f = planes[0]
        vec0 = encode_plane_targets([f], RotationKind.SIXD, 160.0)
        shifted = PlaneFrame(A=f.A + [12.0, 0.0, 0.0], e_u=f.e_u, e_v=f.e_v)
        vec1 = encode_plane_targets([shifted], RotationKind.SIXD, 160.0)
        delta = vec1 - vec0
        assert delta[0] == pytest.approx(12.0 / 160.0)
        assert np.max(np.abs(delta[1:])) < 1e-12

    def test_out_of_cube_flagged_and_counted(self, phantom):
        vol, planes = phantom
        cfg = degenerate_config(trans_mm=200.0)
        before = out_of_cube_count()
        flagged = 0
        for i in range(20):
            s = augment_sample(vol, planes, cfg, SeededRng(11).derive(i), kind=RotationKind.SIXD)
            flagged += s.center_out_of_bounds
        assert flagged > 0
        assert out_of_cube_count() - before == flagged

    def test_mirrored_sample_flips_anatomy_consistently(self, phantom):
        vol, planes = phantom
        cfg = degenerate_config(mirror_prob=1.0)
        s = augment_sample(vol, planes, cfg, SeededRng(2), kind=RotationKind.SIXD)
        assert s.mirrored
        ident = augment_sample(vol, planes, degenerate_config(), SeededRng(2), kind=RotationKind.SIXD)
        assert np.allclose(s.image, ident.image[::-1, :, :], atol=1e-6)
        for moved, orig in zip(s.planes, planes):
            assert np.allclose(moved.A, orig.A * [-1, 1, 1])


class TestCenterInput:
    def test_deterministic_and_in_unit_interval(self, phantom):
        vol, _ = phantom
        a = center_input(vol, 32, 5.0)
        b = center_input(vol, 32, 5.0)
        assert np.array_equal(a, b)
        assert a.dtype == np.float32
        assert a.min() > 0.0 and a.max() < 1.0
