"""Tests for analytic scene sampling, scan simulation, and scene configs."""

import numpy as np
import pytest

from udfgrid import (
    Box,
    ContractError,
    MissingDataError,
    OpenCylinder,
    ParseError,
    PlanePatch,
    PointCloud,
    ScanSpec,
    SceneSpec,
    Sphere,
    apply_dropout,
    augment,
    load_scene_config,
    sample_scene,
    simulate_scans,
)
from udfgrid import spatial
from udfgrid.scenegen import _PRIMITIVES, MAX_POINTS


def _scene(*prims):
    return SceneSpec(tuple(prims))


class TestPlanePatch:
    def test_exact_count_from_density(self):
        cloud = sample_scene(
            _scene(PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0), 10000.0)), 42
        )
        assert len(cloud) == 10000

    def test_points_inside_patch(self):
        cloud = sample_scene(
            _scene(PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0), 5000.0)), 42
        )
        p = cloud.positions
        assert (p[:, 0] >= 0).all() and (p[:, 0] <= 1).all()
        assert (p[:, 1] >= 0).all() and (p[:, 1] <= 1).all()
        np.testing.assert_array_equal(p[:, 2], 0.0)

    def test_normal_is_unit_cross_product(self):
        cloud = sample_scene(
            _scene(PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0), 100.0)), 42
        )
        np.testing.assert_allclose(cloud.normals, [[0.0, 0.0, 1.0]] * len(cloud))

    def test_skewed_edges_use_parallelogram_area(self):
        # |u x v| = 1 for u=(1,0,0), v=(1,1,0): same area as the unit square.
        cloud = sample_scene(
            _scene(PlanePatch((0, 0, 0), (1, 0, 0), (1, 1, 0), 3000.0)), 42
        )
        assert len(cloud) == 3000

    def test_degenerate_edges_rejected(self):
        with pytest.raises(ContractError):
            PlanePatch((0, 0, 0), (1, 0, 0), (2, 0, 0), 100.0)


class TestSphere:
    def test_count_from_surface_area(self):
        cloud = sample_scene(_scene(Sphere((0, 0, 0), 0.25, 1000.0)), 42)
        assert len(cloud) == int(round(4.0 * np.pi * 0.25**2 * 1000.0))

    def test_points_on_surface(self):
        cloud = sample_scene(_scene(Sphere((1.0, 2.0, 3.0), 0.5, 2000.0)), 42)
        r = np.linalg.norm(cloud.positions - [1.0, 2.0, 3.0], axis=1)
        np.testing.assert_allclose(r, 0.5, atol=1e-9)

    def test_normals_radial_outward(self):
        center = np.array([1.0, 2.0, 3.0])
        cloud = sample_scene(_scene(Sphere(center, 0.5, 2000.0)), 42)
        radial = (cloud.positions - center) / 0.5
        np.testing.assert_allclose(cloud.normals, radial, atol=1e-9)

    def test_covers_both_hemispheres(self):
        cloud = sample_scene(_scene(Sphere((0, 0, 0), 1.0, 500.0)), 42)
        z = cloud.positions[:, 2]
        assert (z > 0.5).any() and (z < -0.5).any()

    def test_validation(self):
        with pytest.raises(ContractError):
            Sphere((0, 0, 0), 0.0, 100.0)


class TestBox:
    def test_count_sums_faces(self):
        cloud = sample_scene(_scene(Box((0, 0, 0), (0.2, 0.3, 0.4), 1000.0)), 42)
        # Face areas: 2*(0.06) + 2*(0.08) + 2*(0.12), each rounded separately.
        assert len(cloud) == 2 * 60 + 2 * 80 + 2 * 120

    def test_points_on_surface(self):
        lo, hi = np.zeros(3), np.array([0.2, 0.3, 0.4])
        cloud = sample_scene(_scene(Box(lo, hi, 2000.0)), 42)
        p = cloud.positions
        assert (p >= lo - 1e-12).all() and (p <= hi + 1e-12).all()
        on_face = np.zeros(len(p), dtype=bool)
        for axis in range(3):
            on_face |= np.isclose(p[:, axis], lo[axis], atol=1e-12)
            on_face |= np.isclose(p[:, axis], hi[axis], atol=1e-12)
        assert on_face.all()

    def test_normals_outward(self):
        lo, hi = np.zeros(3), np.ones(3) * 0.4
        cloud = sample_scene(_scene(Box(lo, hi, 2000.0)), 42)
        center = (lo + hi) / 2.0
        dots = np.sum(cloud.normals * (cloud.positions - center), axis=1)
        assert (dots > 0).all()

    def test_validation(self):
        with pytest.raises(ContractError):
            Box((0, 0, 0), (0.0, 1.0, 1.0), 100.0)


class TestOpenCylinder:
    def test_lateral_surface_only(self):
        cloud = sample_scene(
            _scene(OpenCylinder((0, 0, 0), (0, 0, 1), 0.1, 0.5, 1000.0)), 42
        )
        assert len(cloud) == int(round(2.0 * np.pi * 0.1 * 0.5 * 1000.0))
        radial = np.linalg.norm(cloud.positions[:, :2], axis=1)
        np.testing.assert_allclose(radial, 0.1, atol=1e-9)
        z = cloud.positions[:, 2]
        assert (z >= 0).all() and (z <= 0.5).all()

    def test_normals_perpendicular_to_axis(self):
        cloud = sample_scene(
            _scene(OpenCylinder((0, 0, 0), (0, 0, 1), 0.1, 0.5, 1000.0)), 42
        )
        np.testing.assert_allclose(cloud.normals[:, 2], 0.0, atol=1e-12)
        expect = cloud.positions[:, :2] / 0.1
        np.testing.assert_allclose(cloud.normals[:, :2], expect, atol=1e-9)

    def test_tilted_axis(self):
        axis = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        cloud = sample_scene(
            _scene(OpenCylinder((0, 0, 0), axis, 0.2, 1.0, 500.0)), 42
        )
        t = cloud.positions @ axis
        lateral = cloud.positions - np.outer(t, axis)
        np.testing.assert_allclose(np.linalg.norm(lateral, axis=1), 0.2, atol=1e-9)
        assert (t >= 0).all() and (t <= 1).all()

    def test_zero_axis_rejected(self):
        with pytest.raises(ContractError, match="cylinder axis must be non-zero"):
            OpenCylinder((0, 0, 0), (0, 0, 0), 0.1, 0.5, 1000.0)


class TestSizesMustBeFinite:
    @pytest.mark.parametrize("make", [
        lambda v: PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0), v),
        lambda v: Sphere((0, 0, 0), 0.1, v),
        lambda v: Sphere((0, 0, 0), v, 100.0),
        lambda v: Box((0, 0, 0), (1, 1, 1), v),
        lambda v: OpenCylinder((0, 0, 0), (0, 0, 1), 0.1, 0.5, v),
        lambda v: OpenCylinder((0, 0, 0), (0, 0, 1), v, 0.5, 100.0),
        lambda v: OpenCylinder((0, 0, 0), (0, 0, 1), 0.1, v, 100.0),
    ], ids=["plane density", "sphere density", "sphere radius", "box density",
            "cylinder density", "cylinder radius", "cylinder height"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    def test_rejected(self, make, bad):
        with pytest.raises(ContractError):
            make(bad)


class TestDensityIsANumber:
    """A density passes the length rule and is kept as a float."""

    def test_float16_density_counts_in_float64(self):
        """The count was taken in float16: 12,560 points instead of 12,566."""
        sphere = Sphere((0, 0, 0), 1.0, np.float16(1000))
        assert type(sphere.density) is float
        assert len(sample_scene(_scene(sphere), 1)) == round(4000 * np.pi) == 12566

    def test_float16_density_does_not_overflow(self):
        """The float16 product overflowed with a warning and the sphere was refused."""
        sphere = Sphere((0, 0, 0), 1.0, np.float16(6400))
        assert len(sample_scene(_scene(sphere), 1)) == round(25600 * np.pi)

    @pytest.mark.parametrize("density", [np.array([5.0]), True, np.array(5.0), 1e-320],
                             ids=["1-element array", "True", "0-d array", "1e-320"])
    def test_refused(self, density):
        """An array was accepted and then failed in sample_scene with numpy's
        TypeError; True sampled 1 point per square meter; 1e-320 sampled none."""
        with pytest.raises(ContractError, match="density"):
            Sphere((0, 0, 0), 1.0, density)


class TestPointLimit:
    """A primitive that would sample more than MAX_POINTS is refused when built."""

    @pytest.mark.parametrize("make", [
        lambda d: PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0), d),
        lambda d: Sphere((0, 0, 0), 1.0, d),
        lambda d: Box((0, 0, 0), (1, 1, 1), d),
        lambda d: OpenCylinder((0, 0, 0), (0, 0, 1), 1.0, 1.0, d),
    ], ids=["plane", "sphere", "box", "cylinder"])
    @pytest.mark.parametrize("density", [1e300, 1e12])
    def test_huge_density_rejected(self, make, density):
        with pytest.raises(ContractError, match="points"):
            make(density)

    def test_limit_is_inclusive(self):
        # A unit square samples exactly round(density) points.
        PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0), float(MAX_POINTS))
        with pytest.raises(ContractError):
            PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0), float(MAX_POINTS + 1))

    def test_config_with_huge_density_is_a_parse_error(self, tmp_path):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("[sphere]\ncenter = 0, 0, 0\nradius = 1\ndensity = 1e300\n")
        with pytest.raises(ParseError, match="sphere"):
            load_scene_config(cfg)


class TestSceneSpec:
    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            SceneSpec(())

    def test_non_primitive_rejected(self):
        with pytest.raises(ContractError, match="unsupported primitive type object"):
            SceneSpec((object(),))

    def test_deterministic_per_seed(self):
        scene = _scene(
            PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0), 500.0),
            Sphere((0, 0, 1), 0.2, 500.0),
        )
        a = sample_scene(scene, 7)
        b = sample_scene(scene, 7)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.normals, b.normals)
        c = sample_scene(scene, 8)
        assert not np.array_equal(a.positions, c.positions)


class TestScanSpec:
    def test_validation(self):
        ScanSpec([[0.0, 0.0, 1.0]])
        with pytest.raises(ContractError):
            ScanSpec(np.empty((0, 3)))
        with pytest.raises(ContractError):
            ScanSpec([[0.0, 0.0, 1.0]], noise_sigma=-0.1)
        with pytest.raises(ContractError):
            ScanSpec([[0.0, 0.0, 1.0]], dropout_fraction=1.0)
        with pytest.raises(ContractError):
            ScanSpec([[0.0, 0.0, 1.0]], dropout_fraction=-0.1)

    @pytest.mark.parametrize("sigma", [np.inf, -np.inf, np.nan, -0.1])
    def test_noise_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ContractError, match="noise_sigma"):
            ScanSpec([[0.0, 0.0, 1.0]], noise_sigma=sigma)

    def test_zero_noise_sigma_allowed(self):
        assert ScanSpec([[0.0, 0.0, 1.0]], noise_sigma=0).noise_sigma == 0.0


class TestSimulateScans:
    def _two_sided(self):
        pos = np.array([
            [0.0, 0.0, 1.0],
            [0.1, 0.0, 1.0],
            [0.0, 0.0, -1.0],
            [0.1, 0.0, -1.0],
        ])
        return PointCloud(pos, normals=np.tile([0.0, 0.0, 1.0], (4, 1)))

    def test_assigns_nearest_sensor(self):
        scan = ScanSpec([[0.0, 0.0, 10.0], [0.0, 0.0, -10.0]], noise_sigma=0.0)
        out = simulate_scans(self._two_sided(), scan, 42)
        np.testing.assert_array_equal(out.sensor_origins[:2], [[0, 0, 10]] * 2)
        np.testing.assert_array_equal(out.sensor_origins[2:], [[0, 0, -10]] * 2)

    def test_tie_takes_lowest_sensor_id(self):
        scan = ScanSpec([[0.0, 0.0, 10.0], [0.0, 0.0, -10.0]])
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        out = simulate_scans(cloud, scan, 42)
        np.testing.assert_array_equal(out.sensor_origins, [[0.0, 0.0, 10.0]])

    @pytest.mark.parametrize("n, sensors", [(1, 1), (5000, 3), (3001, 64), (2000, 7)])
    def test_chunked_assignment_matches_unchunked(self, n, sensors, monkeypatch):
        """Chunk boundaries leave every assignment alone, ties included."""
        rng = np.random.default_rng(n + sensors)
        # Points and sensors on a coarse lattice: many exact distance ties.
        pos = rng.integers(-4, 5, size=(n, 3)) * 0.25
        org = rng.integers(-4, 5, size=(sensors, 3)) * 0.5
        org[-1] = org[0]  # a repeated sensor ties on every point
        diff = pos[:, None, :] - org[None, :, :]
        want = org[np.argmin(np.einsum("nsi,nsi->ns", diff, diff), axis=1)]
        monkeypatch.setattr(spatial, "_ENTRY_BUDGET", 2**10)
        out = simulate_scans(PointCloud(pos), ScanSpec(org), 42)
        np.testing.assert_array_equal(out.sensor_origins, want)

    def test_zero_noise_keeps_positions(self):
        scan = ScanSpec([[0.0, 0.0, 10.0]], noise_sigma=0.0)
        cloud = self._two_sided()
        out = simulate_scans(cloud, scan, 42)
        np.testing.assert_array_equal(out.positions, cloud.positions)

    def test_noise_statistics(self):
        rng = np.random.default_rng(42)
        cloud = PointCloud(np.column_stack([rng.random(20000),
                                            rng.random(20000),
                                            np.zeros(20000)]))
        scan = ScanSpec([[0.5, 0.5, 5.0]], noise_sigma=0.01)
        out = simulate_scans(cloud, scan, 7)
        delta = out.positions - cloud.positions
        assert abs(delta.std() - 0.01) < 0.0005
        assert abs(delta.mean()) < 0.0005

    def test_normals_dropped(self):
        scan = ScanSpec([[0.0, 0.0, 10.0]], noise_sigma=0.01)
        out = simulate_scans(self._two_sided(), scan, 42)
        assert not out.has_normals
        assert out.has_sensor_origins

    def test_deterministic(self):
        scan = ScanSpec([[0.0, 0.0, 10.0]], noise_sigma=0.01)
        a = simulate_scans(self._two_sided(), scan, 42)
        b = simulate_scans(self._two_sided(), scan, 42)
        np.testing.assert_array_equal(a.positions, b.positions)


class TestApplyDropout:
    def _cloud(self, n_groups=10, per_group=4):
        """n_groups distinct sensor origins with per_group points each."""
        rng = np.random.default_rng(42)
        pos = rng.random((n_groups * per_group, 3))
        org = np.repeat(np.column_stack([
            np.arange(n_groups, dtype=np.float64),
            np.zeros(n_groups),
            np.full(n_groups, 2.0),
        ]), per_group, axis=0)
        return PointCloud(pos, sensor_origins=org)

    def test_removes_whole_scan_groups(self):
        """fraction 0.9 of 10 scans removes ceil(9) = 9 whole groups."""
        out = apply_dropout(self._cloud(10, 4), 0.9, 42)
        assert len(out) == 4
        assert len(np.unique(out.sensor_origins, axis=0)) == 1

    def test_exact_fraction_is_not_over_rounded(self):
        """fraction 3/10 removes exactly 3 groups despite float rounding."""
        out = apply_dropout(self._cloud(10, 4), 0.3, 42)
        assert len(np.unique(out.sensor_origins, axis=0)) == 7
        assert len(out) == 28

    def test_zero_fraction_unchanged(self):
        cloud = self._cloud(5)
        out = apply_dropout(cloud, 0.0, 42)
        np.testing.assert_array_equal(out.positions, cloud.positions)

    def test_surviving_groups_stay_complete(self):
        cloud = self._cloud(10, 4)
        out = apply_dropout(cloud, 0.4, 42)
        orig = {tuple(row) for row in cloud.positions}
        assert all(tuple(row) in orig for row in out.positions)
        _, counts = np.unique(out.sensor_origins, axis=0, return_counts=True)
        assert (counts == 4).all()

    def test_fraction_one_rejected(self):
        with pytest.raises(ContractError):
            apply_dropout(self._cloud(4), 1.0, 42)

    def test_removing_every_group_rejected(self):
        """0.8 of 4 groups would remove ceil(3.2) = 4 of them, leaving no point."""
        with pytest.raises(ContractError, match=r"0\.8 .* all 4 scan groups"):
            apply_dropout(self._cloud(4), 0.8, 42)

    def test_requires_sensor_origins(self):
        with pytest.raises(MissingDataError):
            apply_dropout(PointCloud(np.zeros((3, 3))), 0.5, 42)

    @pytest.mark.parametrize("fraction", ["0.5", None, [0.5], np.nan, 1.0, -0.1])
    def test_one_fraction_rule(self, fraction):
        """The dropout fraction is a number in [0, 1), for ScanSpec as for apply_dropout."""
        with pytest.raises(ContractError, match=r"fraction must be a number in \[0, 1\)"):
            ScanSpec([[0.0, 0.0, 1.0]], dropout_fraction=fraction)
        with pytest.raises(ContractError, match=r"fraction must be a number in \[0, 1\)"):
            apply_dropout(self._cloud(4), fraction, 42)


class TestAugment:
    def _cloud(self):
        rng = np.random.default_rng(42)
        nrm = np.tile([1.0, 0.0, 0.0], (50, 1))
        nrm[-1] = np.nan
        return PointCloud(rng.random((50, 3)), normals=nrm,
                          sensor_origins=np.tile([0.0, 0.0, 2.0], (50, 1)))

    def test_rigid_similarity_without_jitter(self):
        cloud = self._cloud()
        out = augment(cloud, 42, voxel_scale=0.05, jitter_sigma=0.0)
        assert len(out) == len(cloud)
        c = cloud.positions.mean(axis=0)
        before = np.linalg.norm(cloud.positions - c, axis=1)
        after = np.linalg.norm(out.positions - c, axis=1)
        ratio = after[before > 1e-9] / before[before > 1e-9]
        assert ratio.std() < 1e-9
        assert 0.8 <= ratio.mean() <= 1.2

    def test_z_rotation_preserves_heights_up_to_scale(self):
        cloud = self._cloud()
        out = augment(cloud, 42, voxel_scale=0.05, jitter_sigma=0.0)
        c = cloud.positions.mean(axis=0)
        scale = np.linalg.norm(out.positions[0] - c) / np.linalg.norm(
            cloud.positions[0] - c
        )
        np.testing.assert_allclose(
            out.positions[:, 2] - c[2], scale * (cloud.positions[:, 2] - c[2]),
            atol=1e-9,
        )

    def test_normals_stay_unit_nan_stays_nan(self):
        out = augment(self._cloud(), 42, voxel_scale=0.05)
        assert np.isnan(out.normals[-1]).all()
        lens = np.linalg.norm(out.normals[:-1], axis=1)
        np.testing.assert_allclose(lens, 1.0, atol=1e-9)

    def test_sensor_origins_not_jittered(self):
        cloud = self._cloud()
        a = augment(cloud, 42, voxel_scale=0.05, jitter_sigma=0.0)
        b = augment(cloud, 42, voxel_scale=10.0)  # huge jitter on points only
        np.testing.assert_array_equal(a.sensor_origins, b.sensor_origins)
        assert not np.array_equal(a.positions, b.positions)

    def test_jitter_magnitude_default(self):
        cloud = PointCloud(np.zeros((20000, 3)))
        out = augment(cloud, 42, voxel_scale=0.1)
        # All positions coincide, so the spread is the jitter itself.
        assert abs(out.positions.std() - 0.025) < 0.001

    def test_negative_jitter_rejected(self):
        with pytest.raises(ContractError):
            augment(self._cloud(), 42, voxel_scale=0.05, jitter_sigma=-1.0)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan, -np.inf])
    def test_non_finite_jitter_rejected(self, sigma):
        with pytest.raises(ContractError, match="jitter_sigma"):
            augment(self._cloud(), 42, voxel_scale=0.05, jitter_sigma=sigma)

    def test_default_jitter_of_an_infinite_scale_rejected(self):
        with pytest.raises(ContractError, match="jitter_sigma"):
            augment(self._cloud(), 42, voxel_scale=np.inf)

    @pytest.mark.parametrize("scale", ["0.04", None, 1 + 2j, -0.05])
    def test_default_jitter_of_a_scale_that_is_no_length_rejected(self, scale):
        """Text was read as a number, and None or a complex scale ended in a TypeError."""
        with pytest.raises(ContractError, match="voxel_scale.*jitter_sigma"):
            augment(self._cloud(), 42, voxel_scale=scale)

    def test_scale_zero_gives_no_jitter(self):
        cloud = self._cloud()
        a = augment(cloud, 42, voxel_scale=0)
        b = augment(cloud, 42, voxel_scale=0.05, jitter_sigma=0.0)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_deterministic(self):
        a = augment(self._cloud(), 9, voxel_scale=0.05)
        b = augment(self._cloud(), 9, voxel_scale=0.05)
        np.testing.assert_array_equal(a.positions, b.positions)


def _scan_cloud():
    """Four scan groups of five points each, with unit normals."""
    rng = np.random.default_rng(4)
    org = np.repeat([[0.0, 0.0, 2.0], [1.0, 0.0, 2.0], [0.0, 1.0, 2.0], [1.0, 1.0, 2.0]], 5, axis=0)
    return PointCloud(rng.random((20, 3)), np.tile([0.0, 0.0, 1.0], (20, 1)), org)


# Each generator at a seed, with inputs under which it draws random numbers.
_SEEDED = [
    pytest.param(lambda seed: sample_scene(_scene(Sphere((0, 0, 0), 0.1, 2000.0)), seed),
                 id="sample_scene"),
    pytest.param(lambda seed: simulate_scans(_scan_cloud(), ScanSpec([[0, 0, 2]], 0.01), seed),
                 id="simulate_scans"),
    pytest.param(lambda seed: apply_dropout(_scan_cloud(), 0.5, seed), id="apply_dropout"),
    pytest.param(lambda seed: augment(_scan_cloud(), seed, voxel_scale=0.05), id="augment"),
]


class TestSeeds:
    """A seed is an integer >= 0.  numpy drew fresh entropy for None, so two
    calls differed, and raised its own errors for -1, 1.5 and "1"."""

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "1", True])
    @pytest.mark.parametrize("call", _SEEDED)
    def test_refused(self, call, seed):
        with pytest.raises(ContractError, match="seed must be an integer >= 0"):
            call(seed)

    @pytest.mark.parametrize("call", _SEEDED)
    def test_numpy_integer_accepted(self, call):
        """``synth`` passes np.uint32 seeds; they give the same cloud as the int."""
        a, b = call(np.uint32(7)), call(7)
        for name in ("positions", "normals", "sensor_origins"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None and y is None) or x.tobytes() == y.tobytes()


class TestSceneConfig:
    GOOD = """
[plane.floor]
corner = 0, 0, 0
edge_u = 1, 0, 0
edge_v = 0, 1, 0
density = 500

[sphere.ball]
center = 0.3, 0.3, 0.3
radius = 0.1
density = 500

[box]
min = 0.6, 0.6, 0.0
max = 0.9, 0.9, 0.3
density = 500

[cylinder]
base = 0.1, 0.8, 0.0
axis = 0, 0, 1
radius = 0.05
height = 0.2
density = 500

[scan]
sensors = 0.5, 0.5, 2.0; -0.5, 0.5, 1.0
noise_sigma = 0.01
dropout = 0.1
"""

    def _write(self, tmp_path, text):
        path = tmp_path / "scene.cfg"
        path.write_text(text)
        return path

    def test_full_config(self, tmp_path):
        scene, scan = load_scene_config(self._write(tmp_path, self.GOOD))
        assert len(scene.primitives) == 4
        assert isinstance(scene.primitives[0], PlanePatch)
        assert isinstance(scene.primitives[1], Sphere)
        assert isinstance(scene.primitives[2], Box)
        assert isinstance(scene.primitives[3], OpenCylinder)
        np.testing.assert_allclose(
            scan.sensor_origins, [[0.5, 0.5, 2.0], [-0.5, 0.5, 1.0]]
        )
        assert scan.noise_sigma == 0.01
        assert scan.dropout_fraction == 0.1

    def test_scan_optional(self, tmp_path):
        text = "\n".join(self.GOOD.splitlines()[:24])  # strip the [scan] block
        scene, scan = load_scene_config(self._write(tmp_path, text))
        assert scan is None
        assert len(scene.primitives) == 4

    def test_sampleable(self, tmp_path):
        scene, _ = load_scene_config(self._write(tmp_path, self.GOOD))
        cloud = sample_scene(scene, 42)
        assert len(cloud) > 0 and cloud.has_normals

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ParseError):
            load_scene_config(self._write(tmp_path, "[torus]\ndensity = 5\n"))

    def test_unknown_key(self, tmp_path):
        text = "[sphere]\ncenter = 0,0,0\nradius = 1\ndensity = 5\ncolor = red\n"
        with pytest.raises(ParseError):
            load_scene_config(self._write(tmp_path, text))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ParseError):
            load_scene_config(self._write(tmp_path, "[sphere]\nradius = 1\ndensity = 5\n"))

    def test_bad_number(self, tmp_path):
        text = "[sphere]\ncenter = 0,0,0\nradius = big\ndensity = 5\n"
        with pytest.raises(ParseError):
            load_scene_config(self._write(tmp_path, text))

    def test_bad_vector_number(self, tmp_path):
        text = "[plane]\ncorner = a, b, c\nedge_u = 1,0,0\nedge_v = 0,1,0\ndensity = 5\n"
        with pytest.raises(ParseError, match=r"section \[plane\] key 'corner': not a number list"):
            load_scene_config(self._write(tmp_path, text))

    def test_no_section_header(self, tmp_path):
        with pytest.raises(ParseError, match="malformed scene config"):
            load_scene_config(self._write(tmp_path, "radius = 1\n"))

    def test_bad_vector_arity(self, tmp_path):
        text = "[sphere]\ncenter = 0,0\nradius = 1\ndensity = 5\n"
        with pytest.raises(ParseError):
            load_scene_config(self._write(tmp_path, text))

    def test_no_primitives(self, tmp_path):
        with pytest.raises(ParseError):
            load_scene_config(self._write(tmp_path, "[scan]\nsensors = 0,0,1\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scene_config(tmp_path / "absent.cfg")


# A valid value for every key of every primitive section.
_VALUES = {
    "corner": "0, 0, 0", "edge_u": "1, 0, 0", "edge_v": "0, 1, 0",
    "center": "0, 0, 0", "min": "0, 0, 0", "max": "1, 1, 1",
    "base": "0, 0, 0", "axis": "0, 0, 1",
    "radius": "0.1", "height": "0.2", "density": "100",
}


def _section(kind, keys):
    return f"[{kind}.x]\n" + "".join(f"{k} = {_VALUES[k]}\n" for k in keys)


class TestPrimitiveSchema:
    """Each ``_PRIMITIVES`` row is the whole schema of its section."""

    @pytest.mark.parametrize("kind", sorted(_PRIMITIVES))
    def test_complete_section_builds_its_class(self, tmp_path, kind):
        cls, vectors, scalars = _PRIMITIVES[kind]
        path = tmp_path / "s.cfg"
        path.write_text(_section(kind, vectors + scalars))
        scene, scan = load_scene_config(path)
        assert scan is None
        assert [type(p) for p in scene.primitives] == [cls]

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind, (_, vectors, scalars) in sorted(_PRIMITIVES.items())
        for key in vectors + scalars
    ])
    def test_every_key_is_required(self, tmp_path, kind, key):
        _, vectors, scalars = _PRIMITIVES[kind]
        path = tmp_path / "s.cfg"
        path.write_text(_section(kind, [k for k in vectors + scalars if k != key]))
        with pytest.raises(ParseError, match=f"missing required key '{key}'"):
            load_scene_config(path)

    @pytest.mark.parametrize("kind", sorted(_PRIMITIVES))
    def test_extra_key_refused(self, tmp_path, kind):
        _, vectors, scalars = _PRIMITIVES[kind]
        path = tmp_path / "s.cfg"
        path.write_text(_section(kind, vectors + scalars) + "color = red\n")
        with pytest.raises(ParseError, match="unknown keys: \\['color'\\]"):
            load_scene_config(path)
