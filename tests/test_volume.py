import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from planereg import volume
from planereg.geometry import (
    GeometryError,
    PlaneFrame,
    compose_transforms,
    rotation_about_axis,
    rotation_transform,
    translation_transform,
)
from planereg.volume import (
    DEFAULT_GAIN,
    FILL_HU,
    HU_MAX,
    HU_MIN,
    Volume,
    WindowConfig,
    clip_rescale,
    extract_mpr_slice,
    intensity_jitter,
    intensity_pipeline,
    interpolation_call_count,
    read_volume,
    resample,
    reset_interpolation_counter,
    trilinear_sample,
    window,
    write_pgm,
    write_volume,
)


def constant_volume(value=0, dims=(8, 8, 8), spacing=1.0, dtype=np.int16):
    return Volume(values=np.full(dims, value, dtype=dtype), spacing=(spacing,) * 3)


def affine_field_volume(dims=(24, 20, 22), spacing=(2.0, 2.5, 1.5), coeffs=(1000.0, 3.0, -2.0, 1.5)):
    """float64 volume holding a0 + a1 x + a2 y + a3 z exactly at voxel centers."""
    axes = [(np.arange(n) - (n - 1) / 2.0) * s for n, s in zip(dims, spacing)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    a0, a1, a2, a3 = coeffs
    return Volume(values=a0 + a1 * gx + a2 * gy + a3 * gz, spacing=spacing), coeffs


class TestVolumeType:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Volume(values=np.zeros((1, 8, 8), dtype=np.int16), spacing=(1, 1, 1))
        with pytest.raises(ValueError):
            Volume(values=np.zeros((8, 8, 8), dtype=np.int16), spacing=(0.0, 1, 1))
        with pytest.raises(ValueError):
            Volume(values=np.full((8, 8, 8), 4000, dtype=np.int16), spacing=(1, 1, 1))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Volume(values=np.full((2, 2, 2), np.nan), spacing=1.0)

    @pytest.mark.parametrize("spacing", [np.nan, np.inf, (1.0, np.nan, 1.0), (1.0, 1.0, np.inf), (1.0, -2.0, 1.0)])
    def test_non_finite_or_non_positive_spacing_rejected(self, spacing):
        with pytest.raises(ValueError, match="spacing must be finite and positive"):
            Volume(values=np.zeros((2, 2, 2), dtype=np.int16), spacing=spacing)

    def test_extent(self):
        v = constant_volume(dims=(64, 64, 64), spacing=2.5)
        assert v.extent_mm == (160.0, 160.0, 160.0)


class TestTrilinearSample:
    def test_voxel_center_exact(self):
        rng = np.random.default_rng(0)
        v = Volume(values=rng.integers(-1000, 2000, size=(9, 8, 7)).astype(np.int16), spacing=(2.0, 1.5, 1.0))
        axes = v.axis_coords()
        for idx in [(0, 0, 0), (4, 3, 2), (8, 7, 6)]:
            p = [axes[0][idx[0]], axes[1][idx[1]], axes[2][idx[2]]]
            assert trilinear_sample(v, np.array([p]))[0] == pytest.approx(float(v.values[idx]))

    def test_midpoint_linearity(self):
        vals = np.zeros((4, 4, 4), dtype=np.int16)
        vals[2, 1, 1] = 100
        v = Volume(values=vals, spacing=(1.0, 1.0, 1.0))
        axes = v.axis_coords()
        p = [(axes[0][1] + axes[0][2]) / 2.0, axes[1][1], axes[2][1]]
        assert trilinear_sample(v, np.array([p]))[0] == pytest.approx(50.0)

    def test_outside_returns_fill(self):
        v = constant_volume(value=500, dims=(6, 6, 6), spacing=2.0)
        # half a voxel beyond the last voxel center on each face
        edge = (6 - 1) / 2.0 * 2.0
        pts = np.array([[edge + 1.0, 0, 0], [-edge - 1.0, 0, 0], [0, edge + 1.0, 0], [0, 0, -edge - 1.0], [1e4, 0, 0]])
        assert np.all(trilinear_sample(v, pts) == FILL_HU)

    def test_affine_field_exact_in_interior(self):
        v, (a0, a1, a2, a3) = affine_field_volume()
        rng = np.random.default_rng(1)
        hx, hy, hz = [(n - 1) / 2.0 * s * 0.9 for n, s in zip(v.dims, v.spacing)]
        pts = rng.uniform(-1, 1, size=(5000, 3)) * [hx, hy, hz]
        got = trilinear_sample(v, pts)
        want = a0 + pts @ [a1, a2, a3]
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6

    def test_value_independent_of_chunking(self):
        # more points than three chunks, half of them outside: each point's
        # value must not depend on which other points share its chunk
        rng = np.random.default_rng(2)
        v = Volume(values=np.asfortranarray(rng.integers(-1000, 2000, size=(9, 8, 7)).astype(np.int16)),
                   spacing=(2.0, 1.5, 1.0))
        pts = rng.uniform(-10, 10, size=(5 * (3 * volume._CHUNK // 5 + 1), 3))
        got = trilinear_sample(v, pts.reshape(-1, 5, 3))
        order = rng.permutation(len(pts))
        assert got.shape == (len(pts) // 5, 5) and got.dtype == np.float32
        assert np.array_equal(trilinear_sample(v, pts[order]), got.reshape(-1)[order])
        assert np.array_equal(trilinear_sample(v, pts[:1]), got.reshape(-1)[:1])
        assert np.any(got == FILL_HU) and np.any(got != FILL_HU)

    def test_component_major_view_matches_contiguous_copy(self):
        # a (3, ...) array seen through np.moveaxis has contiguous coordinate
        # columns; its values must not differ from those of a C-ordered copy
        rng = np.random.default_rng(7)
        v = Volume(values=np.asfortranarray(rng.integers(-1000, 2000, size=(9, 8, 7)).astype(np.int16)),
                   spacing=(2.0, 1.5, 1.0))
        for shape in ((1,), (volume._CHUNK + 1,), (5, 7, 2 * volume._CHUNK // 35 + 3)):
            pts = rng.uniform(-10, 10, size=(3, *shape))
            view = np.moveaxis(pts, 0, -1)
            assert np.shares_memory(view.reshape(-1, 3), pts)
            got = trilinear_sample(v, view)
            assert got.shape == shape
            assert np.array_equal(got, trilinear_sample(v, np.ascontiguousarray(view)))
        assert np.any(got == FILL_HU) and np.any(got != FILL_HU)

    def test_nan_and_infinite_points_read_fill_without_warnings(self):
        v = constant_volume(value=500, dims=(6, 6, 6), spacing=2.0)
        nan, inf = np.nan, np.inf
        pts = np.array([[nan, 0, 0], [0, inf, 0], [0, 0, -inf], [inf, nan, -inf], [-inf, -inf, -inf], [0, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = trilinear_sample(v, pts)
            got_major = trilinear_sample(v, np.moveaxis(np.ascontiguousarray(pts.T), 0, -1))
        assert np.all(got[:-1] == FILL_HU) and got[-1] == 500
        assert np.array_equal(got, got_major)

    def test_counter_increments_once_per_call(self):
        v = constant_volume()
        reset_interpolation_counter()
        trilinear_sample(v, np.zeros((10, 3)))
        trilinear_sample(v, np.zeros((7, 3)))
        assert interpolation_call_count() == 2


class TestResample:
    def test_identity_is_voxelwise_identical(self):
        rng = np.random.default_rng(2)
        v = Volume(values=rng.integers(-1000, 3000, size=(12, 12, 12)).astype(np.int16), spacing=(2.2,) * 3)
        out = resample(v, np.eye(4), 12, 2.2)
        assert np.array_equal(out.values, v.values.astype(out.values.dtype))

    def test_translated_affine_field(self):
        v, (a0, a1, a2, a3) = affine_field_volume()
        t = np.array([3.7, -2.1, 5.3])
        out = resample(v, translation_transform(t), v.dims, v.spacing)
        axes = out.axis_coords()
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        # the field rides along with the volume: f'(q) = f(q - t)
        want = a0 + a1 * (gx - t[0]) + a2 * (gy - t[1]) + a3 * (gz - t[2])
        interior = (
            (np.abs(gx - t[0]) < 18)
            & (np.abs(gy - t[1]) < 18)
            & (np.abs(gz - t[2]) < 12)
        )
        err = np.abs(out.values - want) / np.abs(want)
        assert np.max(err[interior]) < 1e-6

    def test_composite_cancellation_matches_identity_bitwise(self):
        rng = np.random.default_rng(3)
        v = Volume(values=rng.integers(-1000, 2000, size=(16, 16, 16)).astype(np.int16), spacing=(2.0,) * 3)
        R = rotation_transform(rotation_about_axis([0, 0, 1], np.radians(30)))
        Rinv = rotation_transform(rotation_about_axis([0, 0, 1], np.radians(-30)))
        T = compose_transforms([R, Rinv])
        # matrices cancel before any sampling happens
        a = resample(v, T, 16, 2.0)
        b = resample(v, np.round(T), 16, 2.0)
        assert np.array_equal(a.values, b.values)

    def test_composite_matrix_equals_product(self):
        R1 = rotation_transform(rotation_about_axis([0, 1, 0], 0.3))
        R2 = translation_transform([1, 2, 3])
        composite = compose_transforms([R1, R2])
        assert np.max(np.abs(composite - R2 @ R1)) < 1e-12

    def test_singular_transform_rejected(self):
        v = constant_volume()
        T = np.eye(4)
        T[0, 0] = 0.0
        with pytest.raises(GeometryError):
            resample(v, T, 8, 1.0)

    def test_counts_as_one_interpolation_pass(self):
        v = constant_volume()
        reset_interpolation_counter()
        resample(v, np.eye(4), 8, 1.0)
        assert interpolation_call_count() == 1

    def test_matches_trilinear_sample_at_independent_points(self):
        # a Fortran-ordered int16 source, as read_volume returns it; values
        # far from zero keep the relative error meaningful
        rng = np.random.default_rng(8)
        v = Volume(values=np.asfortranarray(rng.integers(100, 3000, size=(20, 18, 16)).astype(np.int16)),
                   spacing=(1.5, 2.0, 2.5))
        T = compose_transforms(
            [rotation_transform(rotation_about_axis([1, -2, 3], 0.7)), translation_transform([4, -3, 2])]
        )
        out = resample(v, T, (14, 13, 12), 2.1)
        Tinv = np.linalg.inv(T)
        gx, gy, gz = np.meshgrid(*out.axis_coords(), indexing="ij")
        q = np.stack([gx, gy, gz], axis=-1)
        want = trilinear_sample(v, q @ Tinv[:3, :3].T + Tinv[:3, 3])
        inside = want != FILL_HU
        assert inside.sum() > 500 and not inside.all()
        assert np.array_equal(out.values != FILL_HU, inside)
        err = np.abs(out.values[inside] - want[inside]) / want[inside]
        assert np.max(err) < 64 * np.finfo(np.float32).eps

    def test_rigid_transform_reproduces_affine_field(self):
        # trilinear interpolation is exact on an affine field, so every output
        # voxel whose source point lies inside the voxel-center hull must equal
        # the field there; integer coefficients make the int16 copy exact too
        v, (a0, a1, a2, a3) = affine_field_volume(spacing=(1.0, 1.0, 1.0), coeffs=(100.0, 4.0, -2.0, 2.0))
        T = compose_transforms(
            [rotation_transform(rotation_about_axis([1, 1, 0], 0.4)), translation_transform([2, -1, 3])]
        )
        Tinv = np.linalg.inv(T)
        half = (np.array(v.dims) - 1) / 2.0 * np.array(v.spacing)
        # the int16 copy is Fortran-ordered, as read_volume returns it
        for values in (v.values, np.asfortranarray(v.values.astype(np.int16))):
            out = resample(Volume(values=values, spacing=v.spacing), T, 16, 1.8)
            gx, gy, gz = np.meshgrid(*out.axis_coords(), indexing="ij")
            q = np.stack([gx, gy, gz], axis=-1)
            src = q @ Tinv[:3, :3].T + Tinv[:3, 3]
            want = a0 + a1 * src[..., 0] + a2 * src[..., 1] + a3 * src[..., 2]
            inside = np.all(np.abs(src) <= half - 1e-6, axis=-1)
            outside = np.any(np.abs(src) >= half + 1e-6, axis=-1)
            assert inside.sum() > 1000 and outside.any()
            err = np.abs(out.values[inside] - want[inside]) / np.abs(want[inside])
            assert np.max(err) < 64 * np.finfo(out.values.dtype).eps
            assert np.all(out.values[outside] == FILL_HU)


class TestIntensityPipeline:
    def test_jitter_arithmetic(self):
        assert intensity_jitter(0.0, 1.05) == pytest.approx(50.0)

    def test_jitter_fixed_point(self):
        for f in (0.95, 1.0, 1.05):
            assert intensity_jitter(-1000.0, f) == pytest.approx(-1000.0)

    def test_jitter_identity(self):
        assert intensity_jitter(123.0, 1.0) == pytest.approx(123.0)

    def test_jitter_rejects_out_of_range_factor(self):
        with pytest.raises(ValueError):
            intensity_jitter(0.0, 1.2)

    def test_jitter_range_of_clip_window(self):
        assert intensity_jitter(-490.0, 0.95) == pytest.approx(-515.5)
        assert intensity_jitter(1040.0, 1.05) == pytest.approx(1142.0)

    def test_clip_rescale_endpoints_exact(self):
        assert clip_rescale(-490.0) == 0.0
        assert clip_rescale(1040.0) == 1.0

    def test_clip_rescale_midpoint(self):
        assert clip_rescale(275.0) == pytest.approx(0.5)

    def test_clip_rescale_clamps(self):
        assert clip_rescale(-2000.0) == 0.0
        assert clip_rescale(9999.0) == 1.0

    def test_window_fixed_point_exact(self):
        for g in (1.0, DEFAULT_GAIN, 50.0):
            assert window(0.5, g) == 0.5

    def test_window_default_gain_edges(self):
        # 1 / (1 + e^4.595) and its mirror
        assert window(0.0, 9.19) == pytest.approx(0.0100, abs=5e-4)
        assert window(1.0, 9.19) == pytest.approx(0.9900, abs=5e-4)

    def test_window_monotone(self):
        x = np.linspace(0, 1, 10_000)
        y = window(x, DEFAULT_GAIN)
        assert np.all(np.diff(y) > 0)

    def test_window_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            window(0.5, 0.0)

    def test_pipeline_maps_into_unit_interval_monotonically(self):
        hu = np.linspace(-3000, 4000, 5000)
        y = intensity_pipeline(hu)
        assert np.all((y > 0) & (y < 1))
        assert np.all(np.diff(y) >= 0)

    def test_default_window_config(self):
        cfg = WindowConfig()
        assert cfg.clip_lo == -490.0 and cfg.clip_hi == 1040.0
        with pytest.raises(ValueError):
            WindowConfig(clip_lo=10.0, clip_hi=-10.0)


class TestMprSlice:
    def test_uniform_volume_gives_uniform_image(self):
        v = constant_volume(value=275, dims=(16, 16, 16), spacing=2.0)
        p = PlaneFrame(A=np.zeros(3), e_u=[1, 0, 0], e_v=[0, 1, 0])
        img = extract_mpr_slice(v, p, size=12, px_spacing=1.0)
        assert img.shape == (12, 12)
        assert np.all(img == img[0, 0])

    def test_sphere_cross_section_radius(self):
        dims, spacing = (48, 48, 48), 1.0
        axes = [(np.arange(n) - (n - 1) / 2.0) * spacing for n in dims]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        r_sphere = 15.0
        vals = np.where(gx**2 + gy**2 + gz**2 <= r_sphere**2, 700.0, -1000.0).astype(np.int16)
        v = Volume(values=vals, spacing=(spacing,) * 3)
        z_off = 9.0
        p = PlaneFrame(A=np.array([0.0, 0.0, z_off]), e_u=[1, 0, 0], e_v=[0, 1, 0])
        img = extract_mpr_slice(v, p, size=64, px_spacing=1.0)
        bright = img > 128
        # disc radius from the analytic circle of the sphere/plane intersection
        expected_r = np.sqrt(r_sphere**2 - z_off**2)
        area_r = np.sqrt(bright.sum() / np.pi)
        assert abs(area_r - expected_r) < 1.0

    def test_e_u_sign_flip_mirrors_horizontally(self):
        rng = np.random.default_rng(5)
        v = Volume(values=rng.integers(-1000, 1500, size=(20, 20, 20)).astype(np.int16), spacing=(2.0,) * 3)
        p = PlaneFrame(A=np.zeros(3), e_u=[1, 0, 0], e_v=[0, 0, 1])
        q = PlaneFrame(A=np.zeros(3), e_u=[-1, 0, 0], e_v=[0, 0, 1])
        a = extract_mpr_slice(v, p, size=16, px_spacing=1.5)
        b = extract_mpr_slice(v, q, size=16, px_spacing=1.5)
        assert np.array_equal(a, b[:, ::-1])

    def test_row_zero_is_top(self):
        # a volume bright only in the upper half (+z); e_v = +z
        vals = np.full((16, 16, 16), -1000, dtype=np.int16)
        vals[:, :, 8:] = 1000
        v = Volume(values=vals, spacing=(2.0,) * 3)
        p = PlaneFrame(A=np.zeros(3), e_u=[1, 0, 0], e_v=[0, 0, 1])
        img = extract_mpr_slice(v, p, size=8, px_spacing=2.0)
        assert img[0].mean() > img[-1].mean()


    def test_each_pixel_is_the_windowed_sample_at_its_documented_point(self):
        rng = np.random.default_rng(9)
        v = Volume(values=rng.integers(-1000, 2000, size=(12, 10, 11)).astype(np.int16), spacing=(2.0, 2.5, 1.5))
        R = rotation_about_axis([1, 2, -1], 0.6)
        plane = PlaneFrame(A=[1.5, -2.0, 0.5], e_u=R[:, 0], e_v=R[:, 1])
        w, h, px = 23, 17, 0.9
        cfg = WindowConfig(clip_lo=-600.0, clip_hi=1500.0)
        img = extract_mpr_slice(v, plane, size=(w, h), px_spacing=px, cfg=cfg)
        assert img.shape == (h, w)
        # row 0 is the top of the image, where j = h - 1
        points = np.array([
            [plane.A + (i - (w - 1) / 2.0) * px * plane.e_u + (j - (h - 1) / 2.0) * px * plane.e_v for i in range(w)]
            for j in range(h - 1, -1, -1)
        ])
        hu = trilinear_sample(v, points)
        want = np.clip(np.rint(window(clip_rescale(hu, cfg), cfg.gain) * 255.0), 0, 255).astype(np.uint8)
        assert np.any(hu == FILL_HU) and np.any(hu != FILL_HU)
        assert np.array_equal(img, want)

    @pytest.mark.parametrize("size", [0, -5, (16, 0), 2.5, np.nan])
    def test_bad_size_rejected(self, size):
        v = constant_volume()
        p = PlaneFrame(A=np.zeros(3), e_u=[1, 0, 0], e_v=[0, 1, 0])
        with pytest.raises(ValueError, match="size must be a positive integer"):
            extract_mpr_slice(v, p, size=size)

    @pytest.mark.parametrize("px", [0.0, -1.0, np.nan, np.inf])
    def test_bad_px_spacing_rejected(self, px):
        v = constant_volume()
        p = PlaneFrame(A=np.zeros(3), e_u=[1, 0, 0], e_v=[0, 1, 0])
        with pytest.raises(ValueError, match="px_spacing must be finite and positive"):
            extract_mpr_slice(v, p, size=8, px_spacing=px)


@st.composite
def hu_grids(draw):
    """int16 HU grids of 2-6 voxels per axis, C- or Fortran-ordered."""
    shape = draw(st.tuples(*[st.integers(2, 6)] * 3))
    values = draw(hnp.arrays(np.int16, shape, elements=st.integers(int(HU_MIN), int(HU_MAX))))
    return np.asfortranarray(values) if draw(st.booleans()) else values


class TestVolumeFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        v = Volume(values=rng.integers(-1024, 3071, size=(7, 6, 5)).astype(np.int16), spacing=(1.25, 2.5, 3.75))
        write_volume(tmp_path / "vol", v)
        back = read_volume(tmp_path / "vol")
        assert back.spacing == v.spacing
        assert np.array_equal(back.values, v.values)
        assert back.values.dtype == np.int16

    @settings(max_examples=60, deadline=None)
    @given(
        values=hu_grids(),
        spacing=st.tuples(*[st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)] * 3),
    )
    def test_round_trip_property(self, values, spacing):
        with tempfile.TemporaryDirectory() as tmp:
            write_volume(Path(tmp) / "vol", Volume(values=values, spacing=spacing))
            back = read_volume(Path(tmp) / "vol")
        assert np.array_equal(back.values, values)
        assert np.array(back.spacing).tobytes() == np.array(spacing).tobytes()

    def test_accepts_vhdr_path(self, tmp_path):
        v = constant_volume(value=100)
        write_volume(tmp_path / "vol", v)
        back = read_volume(tmp_path / "vol.vhdr")
        assert np.array_equal(back.values, v.values)

    def test_raw_layout_is_x_fastest(self, tmp_path):
        vals = np.zeros((3, 4, 5), dtype=np.int16)
        vals[1, 0, 0] = 7  # second sample in x-fastest order
        write_volume(tmp_path / "vol", Volume(values=vals, spacing=(1, 1, 1)))
        raw = np.fromfile(tmp_path / "vol.vraw", dtype="<i2")
        assert raw[1] == 7 and raw.sum() == 7

    def test_header_validation(self, tmp_path):
        write_volume(tmp_path / "vol", constant_volume())
        hdr = (tmp_path / "vol.vhdr").read_text().replace("int16le", "float32")
        (tmp_path / "vol.vhdr").write_text(hdr)
        with pytest.raises(ValueError, match="dtype"):
            read_volume(tmp_path / "vol")

    @pytest.mark.parametrize(
        "line",
        [
            "dims: 4 4",
            "dims: 4 4 x",
            "dims: -4 -4 4",
            "dims: 4 0 4",
            "dims: 4 4 4 4",
            "spacing_mm: nan 8 8",
            "spacing_mm: 8 inf 8",
            "spacing_mm: 8 8",
            "spacing_mm: 8 -8 8",
            "spacing_mm: 8 8 mm",
        ],
    )
    def test_bad_dims_or_spacing_line_names_file_and_key(self, tmp_path, line):
        write_volume(tmp_path / "vol", constant_volume(dims=(4, 4, 4)))
        key = line.partition(":")[0]
        lines = (tmp_path / "vol.vhdr").read_text().splitlines()
        hdr = "\n".join(line if old.startswith(key + ":") else old for old in lines)
        (tmp_path / "vol.vhdr").write_text(hdr + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'vol'}.vhdr: `{key}` needs three positive numbers")):
            read_volume(tmp_path / "vol")

    def test_out_of_range_values_name_the_file(self, tmp_path):
        write_volume(tmp_path / "vol", constant_volume(dims=(4, 4, 4)))
        raw = np.fromfile(tmp_path / "vol.vraw", dtype="<i2")
        raw[5] = 5000
        raw.tofile(tmp_path / "vol.vraw")
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'vol'}.vraw: HU values outside")):
            read_volume(tmp_path / "vol")

    def test_size_mismatch_detected(self, tmp_path):
        write_volume(tmp_path / "vol", constant_volume())
        data = (tmp_path / "vol.vraw").read_bytes()
        (tmp_path / "vol.vraw").write_bytes(data[:-2])
        with pytest.raises(ValueError, match="samples"):
            read_volume(tmp_path / "vol")

    def test_pgm_export(self, tmp_path):
        img = np.arange(48, dtype=np.uint8).reshape(6, 8)
        write_pgm(tmp_path / "img.pgm", img)
        blob = (tmp_path / "img.pgm").read_bytes()
        assert blob.startswith(b"P5\n8 6\n255\n")
        assert blob[len(b"P5\n8 6\n255\n") :] == img.tobytes()
