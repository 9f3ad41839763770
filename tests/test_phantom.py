import os
import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planereg import phantom
from planereg.geometry import (
    angle_between_deg,
    compose_transforms,
    read_plane_file,
    rotation_about_axis,
    rotation_from_euler_zyx,
    rotation_transform,
    translation_transform,
)
from planereg.phantom import (
    HU_AIR,
    HU_BONE,
    HU_METAL,
    HU_TISSUE,
    PLANE_NAMES,
    TISSUE_MARGIN_MM,
    ManifestEntry,
    PhantomGenerationError,
    PhantomSpec,
    canonical_planes,
    generate_dataset,
    generate_phantom,
    read_manifest,
    write_manifest,
)
from planereg.volume import read_volume, resample


def _spec(**kw):
    defaults = dict(patient_id=0, pose=np.eye(4))
    defaults.update(kw)
    return PhantomSpec(**defaults)


class TestPhantomSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(shaft_length_mm=-1.0)
        with pytest.raises(ValueError):
            _spec(tilt_deg=60.0)
        with pytest.raises(ValueError):
            _spec(truncation=0.0)

    def test_pose_must_be_valid(self):
        bad = np.eye(4)
        bad[3, 3] = 2.0
        with pytest.raises(Exception):
            _spec(pose=bad)


class TestGeneratePhantom:
    def test_ankle_planes_mutually_orthogonal(self):
        _, planes = generate_phantom(_spec(), 32, 5.0, np.random.default_rng(0))
        names = list(planes)
        assert names == ["axial", "sagittal", "coronal"]
        for i in range(3):
            for j in range(i + 1, 3):
                dot = planes[names[i]].e_w @ planes[names[j]].e_w
                assert abs(dot) < 1e-9

    def test_calcaneus_tilt_angle(self):
        _, planes = generate_phantom(_spec(tilt_deg=25.0), 32, 5.0, np.random.default_rng(0))
        assert "semicoronal" in planes
        angle = angle_between_deg(planes["axial"].e_w, planes["semicoronal"].e_w)
        assert angle == pytest.approx(65.0, abs=1e-6)
        # exactly one pair deviates from orthogonality
        names = list(planes)
        off = [
            (a, b)
            for i, a in enumerate(names)
            for b in names[i + 1 :]
            if abs(planes[a].e_w @ planes[b].e_w) > 1e-9
        ]
        assert off == [("axial", "semicoronal")]

    def test_deterministic_bitwise(self):
        spec = _spec(metal=True)
        v1, _ = generate_phantom(spec, 32, 5.0, np.random.default_rng(5))
        v2, _ = generate_phantom(spec, 32, 5.0, np.random.default_rng(5))
        assert np.array_equal(v1.values, v2.values)

    def test_hu_levels_present(self):
        v, _ = generate_phantom(_spec(), 48, 3.3, np.random.default_rng(0))
        vals = set(np.unique(v.values).tolist())
        assert {-1000, int(HU_TISSUE), int(HU_BONE)} <= vals

    def test_metal_renders_beyond_clip_window(self):
        v, _ = generate_phantom(_spec(metal=True), 48, 3.3, np.random.default_rng(1))
        assert v.values.max() == HU_METAL

    def test_metal_outside_stays_clear_of_bone(self):
        spec = _spec(metal_outside=True)
        v, _ = generate_phantom(spec, 48, 3.3, np.random.default_rng(2))
        metal = v.values == HU_METAL
        assert metal.any()
        # instruments lie above the anatomy: all metal sits at positive y
        ys = np.nonzero(metal)[1]
        assert ys.min() > v.dims[1] // 2

    def test_truncation_fills_outer_slabs(self):
        v, _ = generate_phantom(_spec(truncation=0.5), 32, 5.0, np.random.default_rng(0))
        assert np.all(v.values[:, :, :7] == -1024)
        assert np.all(v.values[:, :, -7:] == -1024)
        assert not np.all(v.values[:, :, 16] == -1024)

    def test_pose_transports_annotations(self):
        pose = compose_transforms(
            [rotation_transform(rotation_about_axis([0, 0, 1], np.radians(90))), translation_transform([5, 0, 0])]
        )
        _, planes = generate_phantom(_spec(pose=pose), 32, 5.0, np.random.default_rng(0))
        # canonical axial normal z stays z under a z-rotation; sagittal normal -y maps to x
        assert np.allclose(planes["axial"].e_w, [0, 0, 1], atol=1e-12)
        assert np.allclose(planes["sagittal"].e_w, [1, 0, 0], atol=1e-12)
        assert np.allclose(planes["axial"].A, [5, 0, 0], atol=1e-12)

    def test_anatomy_outside_volume_rejected(self):
        pose = translation_transform([1000.0, 0.0, 0.0])
        with pytest.raises(PhantomGenerationError):
            generate_phantom(_spec(pose=pose), 32, 5.0, np.random.default_rng(0))

    def test_canonical_plane_invariants(self):
        for tilt in (0.0, 15.0, 35.0):
            for frame in canonical_planes(_spec(tilt_deg=tilt)).values():
                assert abs(np.linalg.norm(frame.e_u) - 1) < 1e-9
                assert abs(frame.e_u @ frame.e_v) < 1e-9


def _whole_grid_render(spec, dims, spacing, rng):
    """Every voxel of the grid in one pass: the reference that the boxed,
    blocked renderer must reproduce byte for byte."""
    axes = [(np.arange(n) - (n - 1) / 2.0) * s for n, s in zip(dims, spacing)]
    world = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    inv = np.linalg.inv(spec.pose)
    pts = world @ inv[:3, :3].T + inv[:3, 3]
    bone = phantom._body_masks(spec, pts)
    if not np.any(bone):
        raise PhantomGenerationError("posed anatomy lies entirely outside the volume")
    tissue = phantom._body_masks(spec, pts, margin=TISSUE_MARGIN_MM)
    hu = np.full(pts.shape[0], HU_AIR)
    hu[tissue] = HU_TISSUE
    hu[bone] = HU_BONE
    for p0, p1, radius in phantom._metal_segments(spec, rng):
        hu[phantom._segment_distance(pts, p0, p1) <= radius] = HU_METAL
    if spec.truncation < 1.0:
        keep = np.abs(world[:, 2]) <= spec.truncation * dims[2] * spacing[2] / 2.0
        hu[~keep] = -1024.0
    return hu.reshape(dims).astype(np.int16)


@st.composite
def _render_cases(draw):
    """A dataset-like spec on a small anisotropic grid, posed up to 45 degrees
    about each axis and shifted up to 1.2 half-extents, so that the anatomy
    often hangs partly off the grid; plus a block size that splits the grid
    into at most about 64 blocks, or the default."""
    mode = draw(st.sampled_from(sorted(PLANE_NAMES)))
    params = phantom._draw_patient_params(mode, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    dims = tuple(draw(st.integers(6, 40)) for _ in range(3))
    spacing = tuple(draw(st.floats(1.5, 8.0)) for _ in range(3))
    angles = np.radians([draw(st.floats(-45.0, 45.0)) for _ in range(3)])
    shift = [draw(st.floats(-0.6, 0.6)) * n * s for n, s in zip(dims, spacing)]
    metal, metal_outside = draw(st.sampled_from([(True, False), (False, True), (False, False)]))
    spec = PhantomSpec(
        patient_id=0,
        pose=compose_transforms([rotation_transform(rotation_from_euler_zyx(*angles)), translation_transform(shift)]),
        metal=metal,
        metal_outside=metal_outside,
        truncation=draw(st.just(1.0) | st.floats(0.3, 1.0)),
        **params,
    )
    n = int(np.prod(dims))
    block_points = draw(st.just(phantom._SLAB_POINTS) | st.integers(max(1, n // 64), n))
    return spec, dims, spacing, block_points


class TestBoxedRender:
    # unposed, the anatomy's box is tight: implants and instruments reach out of
    # it, and its tissue shell is wider than the 2-voxel growth at 2 mm
    @settings(max_examples=150, deadline=None)
    @given(case=_render_cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=(_spec(metal=True), (40, 40, 40), (2.0, 2.0, 2.0), phantom._SLAB_POINTS), seed=0)
    @example(case=(_spec(metal_outside=True), (40, 40, 40), (2.0, 2.0, 2.0), phantom._SLAB_POINTS), seed=0)
    def test_bytes_equal_whole_grid_render(self, case, seed):
        spec, dims, spacing, block_points = case
        with mock.patch.object(phantom, "_SLAB_POINTS", block_points):
            try:
                expected = _whole_grid_render(spec, dims, spacing, np.random.default_rng(seed))
            except PhantomGenerationError:
                with pytest.raises(PhantomGenerationError):
                    generate_phantom(spec, dims, spacing, np.random.default_rng(seed))
                return
            vol, _ = generate_phantom(spec, dims, spacing, np.random.default_rng(seed))
        assert vol.values.dtype == np.int16
        assert vol.values.tobytes() == expected.tobytes()

    # far off, the box misses the grid; 20.5 mm off in -y, the tissue shell
    # and the box still reach into the 8 mm grid but no bone does
    @pytest.mark.parametrize("shift", [[1000.0, 0.0, 0.0], [0.0, -20.5, 0.0]])
    def test_pose_off_grid_raises_in_both_renderers(self, shift):
        spec = _spec(pose=translation_transform(shift))
        with pytest.raises(PhantomGenerationError):
            _whole_grid_render(spec, (8, 8, 8), (1.0, 1.0, 1.0), np.random.default_rng(0))
        with pytest.raises(PhantomGenerationError):
            generate_phantom(spec, 8, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("dims", [1, 2.5, True, (16, 16), (16, 16, 1), np.nan])
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="dims"):
            generate_phantom(_spec(), dims, 5.0, np.random.default_rng(0))

    @pytest.mark.parametrize("spacing", [0.0, -1.0, np.inf, np.nan, (5.0, 5.0), (5.0, np.inf, 5.0)])
    def test_bad_spacing_rejected(self, spacing):
        with pytest.raises(ValueError, match="spacing"):
            generate_phantom(_spec(), 16, spacing, np.random.default_rng(0))

    def test_192_cube_peak_rss_in_fresh_process(self):
        # the child's own ru_maxrss: RUSAGE_CHILDREN is also raised by other tests' children
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from planereg.phantom import PhantomSpec, generate_phantom
            generate_phantom(PhantomSpec(patient_id=0, pose=np.eye(4)), 192, 1.0, np.random.default_rng(0))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        """)
        src = os.path.dirname(os.path.dirname(phantom.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux
        assert peak_mb < 160.0


@pytest.mark.slow
class TestNoSymmetry:
    def test_rotated_renders_distinguishable(self):
        # the body must have no nontrivial rotational symmetry: any rotation
        # clearly away from identity changes the rendered bone mask, and
        # rotations beyond 15 degrees change it drastically
        for pid in range(20):
            prng = np.random.default_rng(100 + pid)
            spec = _spec(
                patient_id=pid,
                shaft_length_mm=prng.uniform(65, 90),
                shaft_radius_mm=prng.uniform(10, 15),
                condyle_radius_a_mm=prng.uniform(12, 17),
                condyle_radius_b_mm=prng.uniform(7, 10.5),
                plate_thickness_mm=prng.uniform(3, 5),
            )
            v, _ = generate_phantom(spec, 32, 5.0, np.random.default_rng(0))
            mask = v.values > 300
            for t in range(15):
                rr = np.random.default_rng(7000 + pid * 15 + t)
                angle = np.radians(rr.uniform(5.0, 180.0))
                T = rotation_transform(rotation_about_axis(rr.standard_normal(3), angle))
                rot = resample(v, T, 32, 5.0)
                rmask = rot.values > 300
                iou = np.logical_and(mask, rmask).sum() / np.logical_or(mask, rmask).sum()
                assert iou < 0.999
                if angle >= np.radians(15.0):
                    assert iou < 0.9


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [
            ManifestEntry("vol_p000_v0", 0, "metal", "ankle"),
            ManifestEntry("vol_p001_v0", 1, "no_metal", "calcaneus"),
        ]
        write_manifest(tmp_path / "manifest.txt", entries)
        assert read_manifest(tmp_path / "manifest.txt") == entries

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            ManifestEntry("x", 0, "mystery", "ankle")

    def test_malformed_line_reported(self, tmp_path):
        (tmp_path / "m.txt").write_text("a b c\n")
        with pytest.raises(ValueError, match="m.txt:1"):
            read_manifest(tmp_path / "m.txt")


class TestGenerateDataset:
    def test_counts_and_patients(self, tmp_path):
        entries = generate_dataset(tmp_path, n_patients=10, volumes_per_patient=2, mode="ankle", seed=1, dims=16, spacing=10.0)
        assert len(entries) == 20
        assert len({e.patient_id for e in entries}) == 10
        for e in entries:
            assert os.path.exists(tmp_path / f"{e.path}.vhdr")
            assert os.path.exists(tmp_path / f"{e.path}.vraw")
            assert os.path.exists(tmp_path / f"{e.path}.planes")

    def test_class_proportions_exact_for_divisible(self, tmp_path):
        entries = generate_dataset(tmp_path, n_patients=10, volumes_per_patient=2, mode="ankle", seed=1, dims=16, spacing=10.0, metal_fraction=0.5)
        counts = {c: sum(e.origin_class == c for e in entries) for c in ("metal", "metal_outside", "no_metal")}
        assert counts == {"metal": 10, "metal_outside": 5, "no_metal": 5}

    def test_cadaver_volumes_pair_classes_within_patient(self, tmp_path):
        entries = generate_dataset(tmp_path, n_patients=4, volumes_per_patient=2, mode="ankle", seed=2, dims=16, spacing=10.0, metal_fraction=0.5)
        by_pid = {}
        for e in entries:
            by_pid.setdefault(e.patient_id, []).append(e.origin_class)
        cadavers = [v for v in by_pid.values() if "metal" not in v]
        assert cadavers and all(sorted(v) == ["metal_outside", "no_metal"] for v in cadavers)

    def test_regeneration_is_bitwise_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        ea = generate_dataset(a_dir, n_patients=3, volumes_per_patient=2, mode="calcaneus", seed=7, dims=16, spacing=10.0)
        eb = generate_dataset(b_dir, n_patients=3, volumes_per_patient=2, mode="calcaneus", seed=7, dims=16, spacing=10.0)
        assert ea == eb
        for e in ea:
            assert (a_dir / f"{e.path}.vraw").read_bytes() == (b_dir / f"{e.path}.vraw").read_bytes()
            assert (a_dir / f"{e.path}.planes").read_text() == (b_dir / f"{e.path}.planes").read_text()

    def test_mode_controls_plane_names(self, tmp_path):
        entries = generate_dataset(tmp_path, n_patients=2, volumes_per_patient=1, mode="calcaneus", seed=3, dims=16, spacing=10.0)
        planes = read_plane_file(tmp_path / f"{entries[0].path}.planes")
        assert set(planes) == {"axial", "sagittal", "semicoronal"}

    def test_annotations_load_as_valid_volume_and_planes(self, tmp_path):
        entries = generate_dataset(tmp_path, n_patients=2, volumes_per_patient=2, mode="ankle", seed=4, dims=16, spacing=10.0)
        v = read_volume(tmp_path / f"{entries[0].path}.vhdr")
        assert v.dims == (16, 16, 16)
        planes = read_plane_file(tmp_path / f"{entries[0].path}.planes")
        assert set(planes) == {"axial", "sagittal", "coronal"}

    def test_truncation_bounds_applied(self, tmp_path):
        entries = generate_dataset(tmp_path, n_patients=1, volumes_per_patient=1, dims=16, spacing=10.0, trunc_lo=0.5, trunc_hi=0.5)
        v = read_volume(tmp_path / f"{entries[0].path}.vhdr")
        # half of the 160 mm z extent kept: slices 4..11 of 16
        cut = np.all(v.values == -1024, axis=(0, 1))
        assert cut.tolist() == [True] * 4 + [False] * 8 + [True] * 4

    @pytest.mark.parametrize("key", ["spacing", "pose_rot_deg", "pose_trans_mm"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_values_named(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=key):
            generate_dataset(tmp_path / "data", n_patients=1, volumes_per_patient=1, dims=16, **{key: value})
        assert not (tmp_path / "data").exists()

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_dataset(tmp_path, n_patients=2, volumes_per_patient=1, mode="knee", seed=0)
