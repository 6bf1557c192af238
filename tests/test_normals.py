"""Tests for PCA normal estimation and sensor-based orientation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import plane_cloud, reference_pca_normals
from udfgrid import (
    ContractError,
    InsufficientDataError,
    MissingDataError,
    PointCloud,
    SceneSpec,
    Sphere,
    estimate_normals,
    orient_normals,
    sample_scene,
    spatial,
)
from udfgrid.normals import _pca_normals


class TestEstimateNormals:
    def test_plane_gives_z_normals(self):
        rng = np.random.default_rng(42)
        pos = np.column_stack([rng.random(200), rng.random(200), np.zeros(200)])
        cloud = estimate_normals(PointCloud(pos), k=10)
        assert cloud.has_normals
        np.testing.assert_allclose(np.abs(cloud.normals[:, 2]), 1.0, atol=1e-9)
        np.testing.assert_allclose(cloud.normals[:, :2], 0.0, atol=1e-9)

    def test_deterministic_sign_rule(self):
        """Before orientation, the largest-magnitude component is positive."""
        rng = np.random.default_rng(42)
        pos = np.column_stack([rng.random(100), rng.random(100), np.zeros(100)])
        cloud = estimate_normals(PointCloud(pos), k=10)
        assert (cloud.normals[:, 2] > 0).all()

    def test_tilted_plane(self):
        rng = np.random.default_rng(42)
        u = rng.random(500)
        v = rng.random(500)
        # Plane with normal (1, 1, 1)/sqrt(3).
        e1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        e2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
        pos = np.outer(u, e1) + np.outer(v, e2)
        cloud = estimate_normals(PointCloud(pos), k=12)
        expect = np.ones(3) / np.sqrt(3.0)
        dots = cloud.normals @ expect
        np.testing.assert_allclose(np.abs(dots), 1.0, atol=1e-9)

    def test_sphere_normals_radial(self):
        cloud = sample_scene(SceneSpec((Sphere((0.0, 0.0, 0.0), 0.5, 20000.0),)), 42)
        est = estimate_normals(PointCloud(cloud.positions), k=12)
        radial = est.positions / np.linalg.norm(est.positions, axis=1, keepdims=True)
        dots = np.abs(np.sum(est.normals * radial, axis=1))
        assert np.median(dots) > 0.999
        assert (dots > 0.98).mean() > 0.99

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            estimate_normals(PointCloud(np.zeros((2, 3)) + [[0, 0, 0], [1, 0, 0]]))

    def test_k_below_three_rejected(self):
        with pytest.raises(ContractError):
            estimate_normals(PointCloud(np.random.default_rng(42).random((10, 3))), k=2)

    def test_collinear_points_get_nan(self):
        """A degenerate (rank-1) neighborhood has no usable plane normal."""
        pos = np.column_stack([np.linspace(0, 1, 20), np.zeros(20), np.zeros(20)])
        cloud = estimate_normals(PointCloud(pos), k=5)
        assert np.isnan(cloud.normals).all()

    def test_sensor_origins_pass_through(self):
        rng = np.random.default_rng(42)
        pos = np.column_stack([rng.random(30), rng.random(30), np.zeros(30)])
        org = np.tile([0.0, 0.0, 5.0], (30, 1))
        cloud = estimate_normals(PointCloud(pos, sensor_origins=org), k=5)
        np.testing.assert_array_equal(cloud.sensor_origins, org)

    def test_replaces_existing_normals(self):
        rng = np.random.default_rng(42)
        pos = np.column_stack([rng.random(30), rng.random(30), np.zeros(30)])
        bogus = np.tile([1.0, 0.0, 0.0], (30, 1))
        cloud = estimate_normals(PointCloud(pos, normals=bogus), k=5)
        np.testing.assert_allclose(np.abs(cloud.normals[:, 2]), 1.0, atol=1e-9)

    @pytest.mark.parametrize("budget", [1, 37, 1000])
    def test_row_chunks_give_the_same_bits(self, budget, monkeypatch):
        cloud = PointCloud(np.random.default_rng(3).random((300, 3)))
        whole = estimate_normals(cloud, k=12).normals
        monkeypatch.setattr(spatial, "_ENTRY_BUDGET", budget)
        np.testing.assert_array_equal(estimate_normals(cloud, k=12).normals, whole)


    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 64), st.floats(1e-3, 1e3),
           st.sampled_from(["spread", "coplanar", "collinear", "duplicates"]),
           st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_neighbour_sums_match_mean_and_einsum(self, k, scale, shape, seed, rows):
        """Bit for bit, NaN rows included, in one chunk and in chunks of a few rows."""
        rng = np.random.default_rng(seed)
        n = k + int(rng.integers(0, 20))
        pos = rng.normal(size=(n, 3))
        if shape == "coplanar":
            pos[:, 2] = 0.25
        elif shape == "collinear":
            pos = rng.normal(size=(n, 1)) * [[1.0, -2.0, 0.5]]
        elif shape == "duplicates":
            pos = pos[rng.integers(0, max(1, n // 3), size=n)]
        pos = (pos + rng.normal(size=3)) * scale
        index = spatial.build_index(pos)
        want = reference_pca_normals(pos, spatial.knn_batch(index, pos, k)[0].reshape(n, k))
        assert _pca_normals(index, pos, k).tobytes() == want.tobytes()
        few = np.concatenate([_pca_normals(index, pos[lo : lo + rows], k)
                              for lo in range(0, n, rows)])
        assert few.tobytes() == want.tobytes()


class TestOrientNormals:
    def _plane_with_sensor(self, sensor_z):
        rng = np.random.default_rng(42)
        pos = np.column_stack([rng.random(50), rng.random(50), np.zeros(50)])
        org = np.tile([0.5, 0.5, sensor_z], (50, 1))
        return estimate_normals(PointCloud(pos, sensor_origins=org), k=5)

    def test_flips_toward_sensor(self):
        above = orient_normals(self._plane_with_sensor(+3.0))
        assert (above.normals[:, 2] > 0).all()
        below = orient_normals(self._plane_with_sensor(-3.0))
        assert (below.normals[:, 2] < 0).all()

    def test_idempotent(self):
        once = orient_normals(self._plane_with_sensor(-3.0))
        twice = orient_normals(once)
        np.testing.assert_array_equal(once.normals, twice.normals)

    def test_requires_normals(self):
        cloud = PointCloud(np.zeros((2, 3)), sensor_origins=np.ones((2, 3)))
        with pytest.raises(MissingDataError):
            orient_normals(cloud)

    def test_requires_sensor_origins(self):
        cloud = PointCloud(np.zeros((2, 3)), normals=np.tile([0.0, 0.0, 1.0], (2, 1)))
        with pytest.raises(MissingDataError):
            orient_normals(cloud)

    def test_nan_rows_unchanged(self):
        nrm = np.array([[0.0, 0.0, 1.0], [np.nan, np.nan, np.nan]])
        org = np.tile([0.0, 0.0, -5.0], (2, 1))
        cloud = orient_normals(PointCloud(np.zeros((2, 3)), nrm, org))
        np.testing.assert_array_equal(cloud.normals[0], [0.0, 0.0, -1.0])
        assert np.isnan(cloud.normals[1]).all()

    def test_perpendicular_view_unchanged(self):
        """A zero dot product gives no orientation evidence; keep the sign."""
        nrm = np.array([[0.0, 0.0, 1.0]])
        org = np.array([[1.0, 0.0, 0.0]])  # in-plane sensor
        cloud = orient_normals(PointCloud(np.zeros((1, 3)), nrm, org))
        np.testing.assert_array_equal(cloud.normals[0], [0.0, 0.0, 1.0])

    def test_scene_plane_pipeline(self):
        """Estimated + oriented normals recover the analytic plane normal."""
        clean = plane_cloud(seed=3, density=2000.0)
        org = np.tile([0.5, 0.5, 2.0], (len(clean), 1))
        cloud = orient_normals(
            estimate_normals(PointCloud(clean.positions, sensor_origins=org), k=12)
        )
        interior = (
            (cloud.positions[:, 0] > 0.1) & (cloud.positions[:, 0] < 0.9)
            & (cloud.positions[:, 1] > 0.1) & (cloud.positions[:, 1] < 0.9)
        )
        dots = cloud.normals[interior, 2]
        assert (dots > 0.999).all()
