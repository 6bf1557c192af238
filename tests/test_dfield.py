"""Tests for the eight distance-function evaluators and grid computation."""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DENSITY, SENSORS, VOXEL_SIZE, WEIGHT_SUM_FLOOR, canonical_dists, desk_scene, grid_spec_for,
    plane_cloud, reference_rows, spy_builds,
)
from udfgrid import (
    ContractError,
    DFKind,
    DFParams,
    EmptyCloudError,
    GridSpec,
    MissingDataError,
    PointCloud,
    ScanSpec,
    SparseDFGrid,
    build_pyramid,
    chamfer,
    compute_grid,
    estimate_normals,
    evaluate,
    extract_sdf,
    extract_udf,
    flip,
    gaussian_weight,
    make_evaluator,
    orient_normals,
    sample_scene,
    simulate_scans,
    voxel_position,
)
from udfgrid import dfield, spatial
from udfgrid.core import MAX_COORD, MIN_LENGTH, linearize
from udfgrid.dfield import quantize_values
from udfgrid.spatial import canonical_distance

UP = [0.0, 0.0, 1.0]


def _coplanar_cloud(n=64, z=0.0, seed=42, extent=1.0):
    rng = np.random.default_rng(seed)
    pos = np.column_stack([
        rng.random(n) * extent, rng.random(n) * extent, np.full(n, z),
    ])
    return PointCloud(pos, normals=np.tile(UP, (n, 1)))


class TestGaussianWeight:
    def test_reference_values(self):
        sigma = 0.25
        np.testing.assert_allclose(gaussian_weight(0.0, sigma), 1.0)
        np.testing.assert_allclose(gaussian_weight(sigma**2, sigma), np.exp(-1.0))
        np.testing.assert_allclose(
            gaussian_weight((3.0 * sigma) ** 2, sigma), np.exp(-9.0)
        )

    def test_vectorized(self):
        sigma = 2.0
        sq = np.array([0.0, 4.0, 16.0])
        np.testing.assert_allclose(
            gaussian_weight(sq, sigma), np.exp(-sq / sigma**2)
        )

    def test_validation(self):
        with pytest.raises(ContractError):
            gaussian_weight(1.0, 0.0)
        with pytest.raises(ContractError):
            gaussian_weight(-1.0, 1.0)


class TestHoppe:
    def test_signed_plane_distance(self):
        cloud = PointCloud([[0.0, 0.0, 0.0]], normals=[UP])
        np.testing.assert_allclose(evaluate((0.0, 0.0, 0.5), cloud, DFKind.HOPPE), 0.5)
        np.testing.assert_allclose(evaluate((0.0, 0.0, -0.5), cloud, DFKind.HOPPE), -0.5)
        np.testing.assert_allclose(evaluate((1.0, 0.0, 0.0), cloud, DFKind.HOPPE), 0.0)

    def test_uses_nearest_point(self):
        cloud = PointCloud(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            normals=[UP, [0.0, 0.0, -1.0]],
        )
        np.testing.assert_allclose(evaluate((0.9, 0.0, 0.2), cloud, DFKind.HOPPE), -0.2)

    def test_requires_normals(self):
        with pytest.raises(MissingDataError):
            evaluate((0.0, 0.0, 0.0), PointCloud([[0.0, 0.0, 0.0]]), DFKind.HOPPE)

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloudError):
            evaluate((0.0, 0.0, 0.0), PointCloud(np.empty((0, 3))), DFKind.HOPPE)


class TestSed:
    def test_sign_from_nearest_normal(self):
        cloud = PointCloud(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            normals=[UP, [0.0, 0.0, -1.0]],
        )
        np.testing.assert_allclose(evaluate((0.0, 0.0, 0.2), cloud, DFKind.SED), 0.2)
        np.testing.assert_allclose(evaluate((1.0, 0.0, 0.2), cloud, DFKind.SED), -0.2)

    def test_zero_dot_counts_as_positive(self):
        cloud = PointCloud(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            normals=[UP, UP],
        )
        # Tie in distance resolves to id 0; the in-plane offset has zero dot.
        np.testing.assert_allclose(evaluate((0.5, 0.0, 0.0), cloud, DFKind.SED), 0.5)


class TestUed:
    def test_euclidean_distance(self):
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(
            evaluate((0.03, 0.04, 0.0), cloud, DFKind.UED), 0.05, rtol=1e-12
        )

    def test_works_without_normals(self):
        assert evaluate((1.0, 0.0, 0.0), PointCloud([[0.0, 0.0, 0.0]]), DFKind.UED) == 1.0

    @pytest.mark.parametrize("x", [(np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0), (1e200, 0.0, 0.0)])
    @pytest.mark.parametrize("kind", [DFKind.UED, DFKind.UWED])
    def test_query_point_beyond_the_bound(self, x, kind):
        """A scipy ValueError for NaN and inf; an overflow warning for 1e200."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="finite"):
                evaluate(x, PointCloud([[0.0, 0.0, 0.0]]), kind)


class TestUnsignedWrappers:
    def test_uhoppe_is_absolute_hoppe(self):
        cloud = PointCloud([[0.0, 0.0, 0.0]], normals=[UP])
        np.testing.assert_allclose(evaluate((0.0, 0.0, -0.5), cloud, DFKind.UHOPPE), 0.5)

    def test_uimls_is_absolute_imls(self):
        cloud = _coplanar_cloud()
        params = DFParams(sigma=0.2)
        q = (0.5, 0.5, -0.07)
        np.testing.assert_allclose(
            evaluate(q, cloud, DFKind.UIMLS, params),
            abs(evaluate(q, cloud, DFKind.IMLS, params)),
            rtol=0.0, atol=0.0,
        )


class TestWeighted:
    def test_uwed_two_point_value(self):
        """Gaussian-weighted distance mean, checked against a hand expansion.

        Distances 0.02 and 0.04 with sigma 0.04 give weights exp(-1/4) and
        exp(-1), so the average is
        (0.02 e^{-1/4} + 0.04 e^{-1}) / (e^{-1/4} + e^{-1}).
        """
        cloud = PointCloud([[0.02, 0.0, 0.0], [-0.04, 0.0, 0.0]])
        got = evaluate((0.0, 0.0, 0.0), cloud, DFKind.UWED, DFParams(sigma=0.04))
        w1, w2 = np.exp(-0.25), np.exp(-1.0)
        expect = (0.02 * w1 + 0.04 * w2) / (w1 + w2)
        np.testing.assert_allclose(got, expect, rtol=1e-14)
        np.testing.assert_allclose(got, 0.026416426016492136, rtol=1e-12)

    def test_smallest_sigma(self):
        """At sigma 1e-170 the weights were 0 / 0, and a point on the cloud got NaN."""
        cloud = PointCloud([[0.0, 0.0, 0.0], [MIN_LENGTH, 0.0, 0.0]])
        got = evaluate((0.0, 0.0, 0.0), cloud, DFKind.UWED, DFParams(sigma=MIN_LENGTH))
        np.testing.assert_allclose(got, MIN_LENGTH * np.exp(-1.0) / (1.0 + np.exp(-1.0)),
                                   rtol=1e-14)
        assert gaussian_weight(0.0, MIN_LENGTH) == 1.0

    def test_imls_plane_is_exact_height(self):
        """With coplanar points and a shared normal, every neighbor votes the
        same signed height, so the weighted mean is exact."""
        cloud = _coplanar_cloud()
        params = DFParams(sigma=0.2)
        np.testing.assert_allclose(
            evaluate((0.5, 0.5, 0.07), cloud, DFKind.IMLS, params), 0.07, rtol=1e-9
        )
        np.testing.assert_allclose(
            evaluate((0.5, 0.5, -0.07), cloud, DFKind.IMLS, params), -0.07, rtol=1e-9
        )

    def test_swed_sign_from_imls(self):
        cloud = _coplanar_cloud()
        params = DFParams(sigma=0.2)
        above = evaluate((0.5, 0.5, 0.06), cloud, DFKind.SWED, params)
        below = evaluate((0.5, 0.5, -0.06), cloud, DFKind.SWED, params)
        assert above > 0 > below
        np.testing.assert_allclose(
            abs(below), evaluate((0.5, 0.5, -0.06), cloud, DFKind.UWED, params),
            rtol=0.0, atol=0.0,
        )

    def test_undefined_outside_support(self):
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        params = DFParams(sigma=0.04)  # support radius 0.12
        assert np.isnan(evaluate((1.0, 0.0, 0.0), cloud, DFKind.UWED, params))
        # The nearest-point kinds stay defined everywhere.
        assert evaluate((1.0, 0.0, 0.0), cloud, DFKind.UED) == 1.0

    def test_max_neighbors_caps_support(self):
        """With a cap of 1 the weighted mean collapses to the nearest point."""
        cloud = PointCloud([[0.01, 0.0, 0.0], [-0.02, 0.0, 0.0]])
        params = DFParams(sigma=0.04, max_neighbors=1)
        np.testing.assert_allclose(
            evaluate((0.0, 0.0, 0.0), cloud, DFKind.UWED, params), 0.01, rtol=1e-12
        )

    def test_normal_validity_filter(self):
        """NaN-normal points are invisible to normal-dependent kinds but
        still contribute to the pure-Euclidean ones."""
        nrm = np.array([UP, [np.nan, np.nan, np.nan]])
        cloud = PointCloud([[0.0, 0.0, 0.0], [0.02, 0.0, 0.0]], normals=nrm)
        params = DFParams(sigma=0.04)
        q = (0.01, 0.0, 0.005)
        # IMLS sees only the first point: dot(UP, q - p0) = 0.005.
        np.testing.assert_allclose(evaluate(q, cloud, DFKind.IMLS, params), 0.005)
        # UED sees both; the second is nearer.
        np.testing.assert_allclose(
            evaluate(q, cloud, DFKind.UED), np.sqrt(0.01**2 + 0.005**2), rtol=1e-12
        )

    def test_uwed_takes_no_differences(self, monkeypatch):
        """UWED's sums come from the capped-ball distances, on a miss and in ``batch``."""
        cloud = _noisy_desk_with_normals()
        spec, params = grid_spec_for(cloud, 2 * VOXEL_SIZE), DFParams(sigma=4 * VOXEL_SIZE)
        calls = []
        diff = dfield._Evaluator._diff

        def spy(self, q, ids, lens):
            calls.append(len(ids))
            return diff(self, q, ids, lens)

        monkeypatch.setattr(dfield._Evaluator, "_diff", spy)
        grid = compute_grid(cloud, spec, DFKind.UWED, params)
        nodes = voxel_position(spec, grid.indices)
        values = make_evaluator(cloud, DFKind.UWED, params).batch(nodes)
        assert len(grid) > 0 and np.isfinite(values).all()
        assert calls == []
        compute_grid(PointCloud(cloud.positions, cloud.normals), spec, DFKind.IMLS, params)
        assert calls  # a normal kind takes them for its plane sum


class TestEvaluatorBatch:
    def test_batch_matches_singles(self):
        cloud = _coplanar_cloud()
        params = DFParams(sigma=0.2)
        ev = make_evaluator(cloud, DFKind.SWED, params)
        rng = np.random.default_rng(42)
        q = rng.random((50, 3)) * [1.0, 1.0, 0.2]
        batch = ev.batch(q)
        singles = [evaluate(qi, cloud, DFKind.SWED, params) for qi in q]
        np.testing.assert_array_equal(batch, singles)

    def test_large_batch_chunking(self):
        cloud = _coplanar_cloud(n=32)
        params = DFParams(sigma=0.3)
        ev = make_evaluator(cloud, DFKind.UWED, params)
        rng = np.random.default_rng(42)
        q = rng.random((10000, 3))
        out = ev.batch(q)
        assert out.shape == (10000,)
        sample = rng.integers(0, 10000, size=20)
        for i in sample:
            expect = evaluate(q[i], cloud, DFKind.UWED, params)
            if np.isnan(expect):
                assert np.isnan(out[i])
            else:
                assert out[i] == expect


class TestQuantize:
    def test_float32_grading(self):
        v = np.array([0.1, 1.0 / 3.0, 2.9999999])
        q = quantize_values(v)
        np.testing.assert_array_equal(q, np.float64(np.float32(v)))
        assert q.dtype == np.float64

    def test_zero_snap(self):
        tiny = np.array([1e-9, -1e-9, 2.0**-27])
        np.testing.assert_array_equal(quantize_values(tiny), [0.0, 0.0, 0.0])

    def test_flip_is_exact_on_quantized_values(self):
        """3 - v is exactly representable for every float32-graded v in
        [0, 3), so flipping twice returns the identical bits."""
        rng = np.random.default_rng(42)
        v = quantize_values(rng.random(10000) * 2.9999)
        flipped = 3.0 - v
        np.testing.assert_array_equal(3.0 - flipped, v)


class TestComputeGrid:
    def test_truncation_is_strict(self):
        """Nodes exactly 3 voxels from the surface must not be stored."""
        cloud = PointCloud([[0.5, 0.5, 0.0]])
        spec = GridSpec(origin=(0.5, 0.5, 0.0), voxel_size=0.05, dims=(1, 1, 7))
        grid = compute_grid(cloud, spec, DFKind.UED, DFParams.for_voxel_size(0.05))
        np.testing.assert_array_equal(
            grid.indices, [[0, 0, 0], [0, 0, 1], [0, 0, 2]]
        )
        np.testing.assert_array_equal(grid.values, [0.0, 1.0, 2.0])

    def test_values_match_evaluator(self):
        """Stored values are the quantized evaluator outputs in voxel units."""
        cloud = plane_cloud(seed=5, density=1000.0)
        spec = grid_spec_for(cloud)
        params = DFParams.for_voxel_size(VOXEL_SIZE)
        grid = compute_grid(cloud, spec, DFKind.UWED, params)
        assert len(grid) > 0
        ev = make_evaluator(cloud, DFKind.UWED, params)
        raw = ev.batch(voxel_position(spec, grid.indices)) / VOXEL_SIZE
        np.testing.assert_array_equal(grid.values, quantize_values(raw))

    def test_all_kinds_produce_valid_grids(self):
        cloud = plane_cloud(seed=5, density=1000.0)
        spec = grid_spec_for(cloud)
        params = DFParams.for_voxel_size(VOXEL_SIZE)
        for kind in DFKind:
            grid = compute_grid(cloud, spec, kind, params)
            assert grid.kind is kind and not grid.flipped
            assert len(grid) > 0
            if kind.signed:
                assert (np.abs(grid.values) < 3.0).all()
            else:
                assert ((grid.values >= 0.0) & (grid.values < 3.0)).all()

    @pytest.mark.parametrize("nan_every", [None, 97])
    @pytest.mark.parametrize("kind", [DFKind.UWED, DFKind.SWED, DFKind.HOPPE, DFKind.UED])
    def test_row_chunks_give_the_same_bits(self, kind, nan_every, monkeypatch):
        """Moving the chunk boundaries of ``near`` leaves the values' bits alone.

        The unquantized values are compared too: rounding to float32 on
        storage would hide a change in the last bits of a sum.
        """
        cloud = _noisy_desk_with_normals(nan_every)
        spec, params = grid_spec_for(cloud, 4 * VOXEL_SIZE), DFParams(sigma=8 * VOXEL_SIZE)
        grids, raw = [], []
        for budget in (2**20, spatial._ENTRY_BUDGET, 64):  # 64: one row per ball chunk
            monkeypatch.setattr(spatial, "_ENTRY_BUDGET", budget)
            fresh = PointCloud(cloud.positions, cloud.normals)
            grids.append(compute_grid(fresh, spec, kind, params))
            raw.append(make_evaluator(fresh, kind, params).batch(
                voxel_position(spec, grids[0].indices)).tobytes())
        assert len(grids[0]) > 0
        assert all(_same_bits(grids[0], g) for g in grids[1:])
        assert raw[0] == raw[1] == raw[2]

    def test_far_cloud_warns_and_returns_empty(self):
        cloud = PointCloud([[10.0, 10.0, 10.0]])
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.05, dims=(4, 4, 4))
        with pytest.warns(UserWarning):
            grid = compute_grid(cloud, spec, DFKind.UED, DFParams.for_voxel_size(0.05))
        assert len(grid) == 0

    @pytest.mark.parametrize("kind", [DFKind.IMLS, DFKind.HOPPE])
    def test_no_valid_normal_makes_no_scan(self, kind, monkeypatch):
        """An empty support warns and returns an empty grid before any index or query."""
        cloud = PointCloud([[0.1, 0.1, 0.1], [0.2, 0.1, 0.1]], normals=np.full((2, 3), np.nan))
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.05, dims=(8, 8, 8))
        calls = []
        for name in ("build_index", "nearest_batch", "capped_ball_batch"):
            monkeypatch.setattr(spatial, name, lambda *a, _name=name, **k: calls.append(_name))
        with pytest.warns(UserWarning):
            grid = compute_grid(cloud, spec, kind, DFParams.for_voxel_size(0.05))
        assert len(grid) == 0 and calls == []

    def test_empty_cloud_rejected(self):
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.05, dims=(4, 4, 4))
        with pytest.raises(EmptyCloudError):
            compute_grid(PointCloud(np.empty((0, 3))), spec, DFKind.UED,
                         DFParams.for_voxel_size(0.05))


def _noisy_desk_with_normals(nan_every: int | None = None) -> PointCloud:
    """An eighth-density noisy desk scan with oriented PCA normals."""
    clean = sample_scene(desk_scene(DENSITY / 8), 11)
    scan = simulate_scans(clean, ScanSpec(SENSORS, noise_sigma=0.5 * VOXEL_SIZE), 1011)
    cloud = orient_normals(estimate_normals(scan))
    if nan_every is None:
        return cloud
    nrm = np.array(cloud.normals)
    nrm[::nan_every] = np.nan
    return PointCloud(cloud.positions, nrm, cloud.sensor_origins)


def _same_bits(a: SparseDFGrid, b: SparseDFGrid) -> bool:
    return (a.indices.tobytes(), a.values.tobytes()) == (b.indices.tobytes(), b.values.tobytes())


class TestNeighbourhoodEntry:
    """Weighted kinds on one cloud share its candidate scan and capped balls."""

    SEQUENCE = (DFKind.UWED, DFKind.IMLS, DFKind.SWED, DFKind.UIMLS)
    VOXEL = 2 * VOXEL_SIZE  # coarse, to keep the candidate count small

    @pytest.mark.parametrize("variant", ["shared", "nan_normals", "sigma", "spec", "no_room"])
    def test_grids_match_a_fresh_cloud(self, variant, monkeypatch):
        if variant == "no_room":
            monkeypatch.setattr(dfield, "_ENTRY_BOUND", 2**16)
        cloud = _noisy_desk_with_normals(97 if variant == "nan_normals" else None)
        spec = grid_spec_for(cloud, self.VOXEL)
        moved = GridSpec(spec.origin + 0.5 * self.VOXEL, self.VOXEL, spec.dims)
        for step, kind in enumerate(self.SEQUENCE):
            sigma = (1.0 if variant == "sigma" and step % 2 else 2.0) * self.VOXEL
            at = moved if variant == "spec" and step % 2 else spec
            params = DFParams(sigma=sigma)
            fresh = PointCloud(cloud.positions, cloud.normals, cloud.sensor_origins)
            assert _same_bits(compute_grid(cloud, at, kind, params),
                              compute_grid(fresh, at, kind, params)), (variant, kind)
        assert (getattr(cloud, dfield._ENTRY, None) is None) == (variant == "no_room")

    def test_three_kinds_make_one_ball_query_series(self, monkeypatch):
        cloud = _noisy_desk_with_normals()
        spec, params = grid_spec_for(cloud, self.VOXEL), DFParams(sigma=2.0 * self.VOXEL)
        calls = []
        query = spatial.capped_ball_batch

        def spy(index, queries, r, cap):
            calls.append(len(queries))
            return query(index, queries, r, cap)

        monkeypatch.setattr(spatial, "capped_ball_batch", spy)
        compute_grid(PointCloud(cloud.positions), spec, DFKind.UWED, params)
        one_kind = list(calls)
        calls.clear()
        for kind in (DFKind.UWED, DFKind.IMLS, DFKind.SWED):
            compute_grid(cloud, spec, kind, params)
        assert one_kind and calls == one_kind

    def test_a_hit_builds_no_index_and_makes_no_query(self, monkeypatch):
        cloud = _noisy_desk_with_normals()
        spec, params = grid_spec_for(cloud, self.VOXEL), DFParams(sigma=2.0 * self.VOXEL)
        compute_grid(cloud, spec, DFKind.UWED, params)
        calls = []
        for name in ("build_index", "nearest_batch", "capped_ball_batch"):
            monkeypatch.setattr(spatial, name, lambda *a, _name=name, **k: calls.append(_name))
        assert len(compute_grid(cloud, spec, DFKind.IMLS, params)) > 0
        assert calls == []

    @pytest.mark.parametrize("cap", [1, 30, 63, 64, 200])
    def test_each_chunk_takes_one_budget_sized_ball_query(self, cap, monkeypatch):
        """No chunk holds more than ``chunk_rows(width)`` rows, even below one 4**3 block.

        At a budget of 2**12, caps of 64 and up leave fewer rows per chunk
        than a block has nodes.  The entry holds one record per ball query,
        and the grid is the default budget's, bit for bit.
        """
        rng = np.random.default_rng(cap)
        cloud = PointCloud(np.column_stack([rng.random(300), rng.random(300), np.zeros(300)]))
        spec = GridSpec(origin=(-0.2, -0.2, -0.1), voxel_size=0.1, dims=(15, 15, 3))
        params = DFParams(sigma=0.1, max_neighbors=cap)
        want = compute_grid(PointCloud(cloud.positions), spec, DFKind.UWED, params)
        monkeypatch.setattr(spatial, "_ENTRY_BUDGET", 2**12)
        rows = spatial.chunk_rows(min(cap + 1, len(cloud)))
        calls = []
        query = spatial.capped_ball_batch

        def spy(index, queries, r, cap):
            calls.append(len(queries))
            return query(index, queries, r, cap)

        monkeypatch.setattr(spatial, "capped_ball_batch", spy)
        got = compute_grid(cloud, spec, DFKind.UWED, params)
        records = getattr(cloud, dfield._ENTRY)[1]
        assert max(calls) <= rows and len(calls) == len(records)
        assert [len(nodes) for nodes, _ in records] == calls
        assert _same_bits(got, want)

    # (kind, sigma) per call.  The last order's two sigmas differ by one ulp
    # and have the same 3-sigma radius.
    ORDERS = {
        "swed_first": ((DFKind.SWED, 2 * VOXEL), (DFKind.UWED, 2 * VOXEL), (DFKind.IMLS, 2 * VOXEL)),
        "imls_swed": ((DFKind.IMLS, 2 * VOXEL), (DFKind.SWED, 2 * VOXEL)),
        "uwed_swed": ((DFKind.UWED, 2 * VOXEL), (DFKind.SWED, 2 * VOXEL)),
        "sigma_between": ((DFKind.UWED, 2 * VOXEL), (DFKind.IMLS, VOXEL), (DFKind.SWED, 2 * VOXEL),
                          (DFKind.UIMLS, VOXEL)),
        "same_radius": ((DFKind.UWED, 2 * VOXEL), (DFKind.SWED, np.nextafter(2 * VOXEL, 1.0))),
    }

    @pytest.mark.parametrize("nan_every", [None, 97])
    @pytest.mark.parametrize("order", list(ORDERS))
    def test_stored_sums_in_any_order(self, order, nan_every):
        """Whichever kinds summed first, each call gives a fresh cloud's grid and ``batch``'s values.

        The values a call computes, before quantization, equal ``batch`` on a
        fresh cloud bit for bit; the grid of the next call, which reads the
        sums this one stored, equals a fresh cloud's.
        """
        cloud = _noisy_desk_with_normals(nan_every)
        spec = grid_spec_for(cloud, self.VOXEL)
        radii = {sigma: DFParams(sigma=sigma).neighbor_radius for _, sigma in self.ORDERS[order]}
        assert len(set(radii.values())) == len(radii) - (order == "same_radius")
        for kind, sigma in self.ORDERS[order]:
            params = DFParams(sigma=sigma)
            fresh = PointCloud(cloud.positions, cloud.normals, cloud.sensor_origins)
            chunks = list(dfield._node_values(cloud, spec, dfield._Evaluator(cloud, kind, params)))
            values = np.concatenate([vals for _, vals in chunks])
            nodes = voxel_position(spec, np.concatenate([idx for idx, _ in chunks]))
            want = make_evaluator(fresh, kind, params).batch(nodes)
            assert values.tobytes() == want.tobytes(), (order, kind)
            assert _same_bits(compute_grid(cloud, spec, kind, params),
                              compute_grid(fresh, spec, kind, params)), (order, kind)

    def test_swed_after_uwed_and_imls_takes_no_differences(self, monkeypatch):
        cloud = _noisy_desk_with_normals()
        spec, params = grid_spec_for(cloud, self.VOXEL), DFParams(sigma=2.0 * self.VOXEL)
        for kind in (DFKind.UWED, DFKind.IMLS):
            compute_grid(cloud, spec, kind, params)
        calls = []
        diff = dfield._Evaluator._diff

        def spy(self, q, ids, lens):
            calls.append(len(ids))
            return diff(self, q, ids, lens)

        monkeypatch.setattr(dfield._Evaluator, "_diff", spy)
        grid = compute_grid(cloud, spec, DFKind.SWED, params)
        assert calls == []
        fresh = PointCloud(cloud.positions, cloud.normals)
        assert _same_bits(grid, compute_grid(fresh, spec, DFKind.SWED, params))
        assert calls  # the fresh cloud's call takes them

    def test_concurrent_calls_see_whole_entries(self):
        """Threads alternating kinds and sigmas on one cloud get a fresh cloud's grids."""
        cloud = plane_cloud(seed=5, density=1000.0)
        spec = grid_spec_for(cloud, self.VOXEL)
        jobs = [(kind, DFParams(sigma=m * self.VOXEL)) for kind in self.SEQUENCE for m in (1, 2)]
        expected = {job: compute_grid(PointCloud(cloud.positions, cloud.normals), spec, *job)
                    for job in jobs}
        same, errors = [], []

        def work(first):
            try:
                for job in jobs[first:] + jobs[:first]:
                    same.append(_same_bits(compute_grid(cloud, spec, *job), expected[job]))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(same) == 4 * len(jobs) and all(same)


class TestKeptIndex:
    """A cloud's kd indices are built once, whoever asks first; bits do not change."""

    VOXEL = 2 * VOXEL_SIZE

    @pytest.mark.parametrize("nan_every", [None, 97])
    def test_nearest_kinds_and_chamfer_build_the_cloud_index_once(self, nan_every, monkeypatch):
        """UED, SED and Hoppe, each scored against the cloud, as a room pass does.

        With NaN normals SED and Hoppe read the valid-normal support, a
        second kept index.  Each extracted cloud gets a throw-away index
        per score and keeps none.
        """
        cloud = _noisy_desk_with_normals(nan_every)
        spec, params = grid_spec_for(cloud, self.VOXEL), DFParams.for_voxel_size(self.VOXEL)
        fresh = [compute_grid(PointCloud(cloud.positions, cloud.normals), spec, kind, params)
                 for kind in (DFKind.UED, DFKind.SED, DFKind.HOPPE)]
        built = spy_builds(monkeypatch)
        scores = []
        for kind, want in zip((DFKind.UED, DFKind.SED, DFKind.HOPPE), fresh):
            grid = compute_grid(cloud, spec, kind, params)
            assert _same_bits(grid, want)
            extracted = extract_sdf(grid) if kind.signed else extract_udf(grid)
            scores.append((extracted, chamfer(extracted, cloud)))
        own = 1 if nan_every is None else 2
        assert len(built) == own + 3 and built[0] is cloud.positions
        extracted, cd = scores[0]
        assert chamfer(extracted, cloud) == cd
        assert len(built) == own + 4

    def test_estimate_normals_then_chamfer_build_once(self, monkeypatch):
        scan = _noisy_desk_with_normals()
        cloud = PointCloud(scan.positions)
        other = PointCloud(scan.positions[::7] + 0.01)
        want = chamfer(other, PointCloud(scan.positions))
        built = spy_builds(monkeypatch)
        estimate_normals(cloud)
        assert chamfer(other, cloud) == want
        assert [b is cloud.positions for b in built] == [True, False]

    @pytest.mark.parametrize("kind", [DFKind.UED, DFKind.UWED, DFKind.SWED])
    def test_a_pyramid_builds_one_index(self, kind, monkeypatch):
        cloud = plane_cloud(seed=5, density=1000.0, side=0.4)
        spec = GridSpec(origin=(-0.15, -0.15, -0.15), voxel_size=0.05, dims=(13, 13, 7))
        params = DFParams.for_voxel_size(0.05)
        want = build_pyramid(PointCloud(cloud.positions, cloud.normals), spec, kind, params, 3)
        built = spy_builds(monkeypatch)
        got = build_pyramid(cloud, spec, kind, params, levels=3)
        assert len(built) == 1
        assert all(_same_bits(g, w) for g, w in zip(got, want))

    def test_entry_ids_take_the_smallest_unsigned_dtype(self):
        cloud = _noisy_desk_with_normals()
        spec = grid_spec_for(cloud, self.VOXEL)
        compute_grid(cloud, spec, DFKind.UWED, DFParams(sigma=2.0 * self.VOXEL))
        dtypes = {near[0].dtype for _, near in getattr(cloud, dfield._ENTRY)[1]}
        assert dtypes == {np.dtype(np.uint16)}


@st.composite
def snapped_patches(draw):
    """A small grid plus axis-aligned planar patches on a dyadic lattice.

    The voxel size is a power of two and every point coordinate a multiple
    of a quarter voxel, so all distances are exact.  A node just past a
    patch edge, in the patch's plane, then lies exactly 3 voxels from the
    nearest point, where its Hoppe value is 0 and must be stored.
    """
    voxel = draw(st.sampled_from([0.125, 0.25, 0.5]))
    dims = draw(st.tuples(*[st.integers(3, 10)] * 3))
    origin = voxel * np.array(draw(st.tuples(*[st.integers(-3, 3)] * 3)), dtype=float)
    quarter = voxel / 4
    positions, normals = [], []
    for _ in range(draw(st.integers(1, 3))):
        axis = draw(st.integers(0, 2))
        u, w = [a for a in range(3) if a != axis]
        step = draw(st.sampled_from([1, 2, 4]))  # point spacing in quarter voxels
        lo_u, lo_w = draw(st.integers(-8, 4 * dims[u])), draw(st.integers(-8, 4 * dims[w]))
        n_u, n_w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        level = draw(st.integers(-8, 4 * dims[axis] + 8))
        uu, ww = np.meshgrid(lo_u + step * np.arange(n_u), lo_w + step * np.arange(n_w))
        pts = np.empty((uu.size, 3))
        pts[:, u], pts[:, w], pts[:, axis] = uu.ravel(), ww.ravel(), level
        positions.append(origin + quarter * pts)
        nrm = np.zeros((uu.size, 3))
        nrm[:, axis] = draw(st.sampled_from([-1.0, 1.0]))
        normals.append(nrm)
    normals = np.concatenate(normals)
    # Some clouds lose a few normals, as degenerate PCA neighbourhoods do.
    normals[[i % len(normals) for i in draw(st.lists(st.integers(0, 10**6), max_size=3))]] = np.nan
    cloud = PointCloud(np.concatenate(positions), normals=normals)
    return cloud, GridSpec(origin=origin, voxel_size=voxel, dims=dims)


def sparse_scene(seed: int):
    """Six points on a quarter-voxel lattice spread through a 70^3 grid.

    Two of them sit near opposite corners, so the scanned box is the whole
    grid.
    """
    rng = np.random.default_rng(seed)
    voxel = 0.125
    pos = rng.integers(0, 4 * 70, size=(6, 3)) * (voxel / 4)
    pos[:2] = [[0.3, 0.2, 0.1], [8.5, 8.4, 8.3]]
    nrm = np.zeros((6, 3))
    nrm[np.arange(6), rng.integers(0, 3, 6)] = 1.0
    return PointCloud(pos, normals=nrm), GridSpec(origin=(0, 0, 0), voxel_size=voxel,
                                                   dims=(70, 70, 70))


class TestCandidateSet:
    """``compute_grid`` stores exactly what a dense brute-force scan stores."""

    @staticmethod
    def _oracle(cloud, spec, kind, params):
        idx = np.stack(np.meshgrid(*[np.arange(d) for d in spec.dims], indexing="ij"),
                       axis=-1).reshape(-1, 3)
        pos = voxel_position(spec, idx)
        dist = canonical_distance(pos[:, None, :], cloud.positions[None, :, :]).min(axis=1)
        near = dist <= 3.0 * spec.voxel_size * (1.0 + 1e-9)
        vals = make_evaluator(cloud, kind, params).batch(pos[near]) / spec.voxel_size
        vals = quantize_values(vals)
        keep = np.isfinite(vals) & (np.abs(vals) < 3.0)
        return idx[near][keep], vals[keep]

    def _check(self, cloud, spec, kind):
        params = DFParams.for_voxel_size(spec.voxel_size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty grids warn
            grid = compute_grid(cloud, spec, kind, params)
        idx, vals = self._oracle(cloud, spec, kind, params)
        np.testing.assert_array_equal(grid.indices, idx)
        np.testing.assert_array_equal(grid.values, vals)

    @settings(max_examples=60)
    @given(snapped_patches(), st.sampled_from(list(DFKind)))
    def test_matches_dense_oracle(self, scene, kind):
        self._check(*scene, kind)

    @pytest.mark.parametrize("kind", list(DFKind))
    def test_sparse_box_spanning_slabs(self, kind, monkeypatch):
        """A sparse box whose blocks take more than one cull batch."""
        monkeypatch.setattr(spatial, "_ENTRY_BUDGET", 2**12)
        cloud, spec = sparse_scene(seed=11)
        reach = 3.0 * spec.voxel_size
        top = spec.origin + (np.array(spec.dims) - 1) * spec.voxel_size
        assert (cloud.positions.min(axis=0) - reach <= spec.origin).all()  # the whole grid
        assert (cloud.positions.max(axis=0) + reach >= top).all()
        blocks = -(-np.array(spec.dims) // dfield._BLOCK)
        assert blocks.prod() > spatial.chunk_rows(2)
        self._check(cloud, spec, kind)

    @pytest.mark.parametrize("x", [1e18, -1e18])
    def test_far_point_keeps_the_box(self, x):
        """A point 2**63 voxels away must not empty the scanned box."""
        cloud = PointCloud([[0.2, 0.2, 0.2], [x, 0.2, 0.2]])
        spec = GridSpec(origin=(0, 0, 0), voxel_size=0.05, dims=(10, 10, 10))
        self._check(cloud, spec, DFKind.UED)


@st.composite
def oracle_cases(draw):
    """A cloud of up to 40 points, some with NaN normals, with a sigma, a cap and queries.

    On the coarse dyadic lattices distances are exact, so distance ties and
    points exactly 3 sigma away are common; the fine one gives no ties.
    Sigma runs from a ball that holds one or two points, where the cap does
    not bind, to one that holds the whole cloud.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    step = draw(st.sampled_from([0.125, 0.0625, 2.0**-30]))
    pos = np.round(rng.random((n, 3)) * 0.5 / step) * step
    nrm = rng.normal(size=(n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    nrm[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = np.nan
    queries = np.concatenate([np.round(rng.random((10, 3)) * 0.5 / step) * step,
                              rng.random((10, 3)) * 0.7 - 0.1])
    sigma = draw(st.sampled_from([0.0625, 0.125, 0.25]))
    return PointCloud(pos, nrm), sigma, draw(st.integers(1, 12)), queries


class TestValueOracle:
    """Every kind's values against ``helpers.reference_rows``, computed from scratch.

    Values agree within 1e-13 sigma, stored grid values within that plus one
    float32 ulp.  SED and SWED signs are compared only where the reference
    plane distance exceeds the tolerance.  The defined/undefined pattern
    agrees, except where the weight sum lies within a few ulps of the floor
    or, for a grid, the value within the tolerance of the truncation at 3.
    """

    @staticmethod
    def _errors(got, ref, plane, kind, tol):
        err = np.abs(got - ref)
        if kind in (DFKind.SED, DFKind.SWED):
            err = np.where(np.abs(plane) <= tol, np.abs(np.abs(got) - np.abs(ref)), err)
        return err

    @staticmethod
    def _near_floor(den):
        return np.abs(den - WEIGHT_SUM_FLOOR) <= 4 * np.spacing(WEIGHT_SUM_FLOOR)

    @settings(max_examples=40)
    @given(oracle_cases(), st.sampled_from(list(DFKind)), st.sampled_from([0.125, 0.25]))
    def test_values_match_the_reference(self, case, kind, voxel):
        cloud, sigma, cap, queries = case
        params, tol = DFParams(sigma=sigma, max_neighbors=cap), 1e-13 * sigma
        ref, plane, den = reference_rows(cloud, kind, sigma, cap, queries)
        got = make_evaluator(cloud, kind, params).batch(queries)
        sure = ~self._near_floor(den)
        np.testing.assert_array_equal(np.isnan(got)[sure], np.isnan(ref)[sure])
        both = ~np.isnan(got) & ~np.isnan(ref)
        assert (self._errors(got, ref, plane, kind, tol)[both] <= tol).all()

        spec = GridSpec(origin=(-0.25, -0.25, -0.25), voxel_size=voxel, dims=(6, 6, 6))
        idx = np.stack(np.meshgrid(*[np.arange(d) for d in spec.dims], indexing="ij"),
                       axis=-1).reshape(-1, 3)
        pos = voxel_position(spec, idx)
        near = np.array([canonical_dists(cloud.positions, x).min() for x in pos])
        within = near <= 3.0 * voxel * (1.0 + 1e-9)
        idx, pos = idx[within], pos[within]
        ref, plane, den = reference_rows(cloud, kind, sigma, cap, pos)
        ref_v, tol_v = ref / voxel, tol / voxel
        expected = np.isfinite(ref_v) & (np.abs(quantize_values(ref_v)) < 3.0)
        edge = np.abs(np.abs(ref_v) - 3.0) <= tol_v + np.spacing(np.float32(3.0))
        unsure = self._near_floor(den) | edge
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty grids warn
            grids = [compute_grid(cloud, spec, kind, params) for _ in range(2)]
        if kind not in dfield._NEAREST_KINDS and (
                not kind.requires_normals or not np.isnan(cloud.normals).all()):
            assert getattr(cloud, dfield._ENTRY, None) is not None
        for grid in grids:  # a weighted kind's first call stores the entry, its second reads it
            stored = np.isin(linearize(spec.dims, idx), grid.codes())
            assert not (stored != expected)[~unsure].any()
            g, _ = grid.values_at(idx[stored & expected])
            r, p = ref_v[stored & expected], plane[stored & expected] / voxel
            ulp = np.spacing(np.abs(r).astype(np.float32)).astype(np.float64)
            err = self._errors(g, r, p, kind, tol_v)
            assert ((err <= tol_v + ulp) | ((g == 0) & (np.abs(r) < dfield._ZERO_SNAP))).all()


class TestScanLimit:
    def test_tiny_voxel_refused(self):
        cloud = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        spec = GridSpec.covering(cloud.positions, 1e-6)
        with pytest.raises(ContractError, match="nodes"):
            compute_grid(cloud, spec, DFKind.UED, DFParams.for_voxel_size(1e-6))

    def test_limit_counts_the_clipped_box(self, monkeypatch):
        """The box is clipped to the grid (4**3 nodes here) before it is counted."""
        cloud = PointCloud([[0.1, 0.1, 0.1]])
        spec = GridSpec(origin=(0, 0, 0), voxel_size=0.05, dims=(4, 4, 4))
        params = DFParams.for_voxel_size(0.05)
        monkeypatch.setattr(dfield, "_MAX_SCAN_NODES", 64)
        assert len(compute_grid(cloud, spec, DFKind.UED, params)) > 0
        monkeypatch.setattr(dfield, "_MAX_SCAN_NODES", 63)
        with pytest.raises(ContractError, match="64 nodes"):
            compute_grid(cloud, spec, DFKind.UED, params)

    def test_grid_ending_at_the_coordinate_bound(self):
        """A block of 4 nodes over a 5-node box has its centre beyond the far corner."""
        v = 2.0**490
        spec = GridSpec(origin=(MAX_COORD - 4 * v, 0, 0), voxel_size=v, dims=(5, 1, 1))
        cloud = PointCloud([[MAX_COORD - 4 * v, 0.0, 0.0], [MAX_COORD, 0.0, 0.0]])
        grid = compute_grid(cloud, spec, DFKind.UED, DFParams.for_voxel_size(v))
        assert grid.values.tolist() == [0.0, 1.0, 2.0, 1.0, 0.0]

    def test_voxels_whose_scan_radius_exceeds_the_bound(self):
        """The cull radius of a MAX_COORD / 4 voxel lies beyond MAX_COORD, where
        the spatial queries refuse a radius; the scan then queries unbounded."""
        v = MAX_COORD / 4
        spec = GridSpec(origin=(-MAX_COORD, 0, 0), voxel_size=v, dims=(9, 1, 1))
        cloud = PointCloud([[0.0, 0.0, 0.0], [v, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = compute_grid(cloud, spec, DFKind.UED, DFParams(v / 2))
        assert grid.indices[:, 0].tolist() == [2, 3, 4, 5, 6, 7]
        assert grid.values.tolist() == [2.0, 1.0, 0.0, 0.0, 1.0, 2.0]


class TestPlaneAccuracy:
    """Stored node values versus the true plane distance, in voxel units.

    A unit plane patch at 16 points per voxel face is the reference density.
    Probes sit on interior lattice nodes one and two voxels above the plane;
    the node directly on the plane is excluded for the nearest-point kinds
    (their floor there is the point spacing itself, not a field property),
    and one voxel is excluded for UWED, whose Gaussian average provably
    overshoots at that height once enough neighbors contribute (the cap of
    36 trades a controlled +0.16 voxel bias at h=1 for the sigma-trend the
    integration suite requires; see the repository decision log).
    """

    ATOL = 0.15

    def setup_method(self):
        self.cloud = plane_cloud(seed=7)
        self.spec = GridSpec(
            origin=(-0.15, -0.15, -0.15), voxel_size=0.05, dims=(27, 27, 10)
        )
        self.params = DFParams.for_voxel_size(0.05)
        ij = np.arange(7, 20)
        self.probes = {
            h: np.stack(np.meshgrid(ij, ij, [3 + h], indexing="ij"), axis=-1).reshape(-1, 3)
            for h in (1, 2)
        }

    def _stored(self, kind, h):
        grid = compute_grid(self.cloud, self.spec, kind, self.params)
        vals, found = grid.values_at(self.probes[h])
        assert found.all()
        return vals

    def test_ued_tracks_height(self):
        for h in (1, 2):
            np.testing.assert_allclose(self._stored(DFKind.UED, h), h, atol=self.ATOL)

    def test_uhoppe_tracks_height(self):
        cloud = PointCloud(self.cloud.positions, np.tile(UP, (len(self.cloud), 1)))
        for h in (1, 2):
            grid = compute_grid(cloud, self.spec, DFKind.UHOPPE, self.params)
            vals, found = grid.values_at(self.probes[h])
            assert found.all()
            np.testing.assert_allclose(vals, h, atol=self.ATOL)

    def test_uimls_tracks_height(self):
        cloud = PointCloud(self.cloud.positions, np.tile(UP, (len(self.cloud), 1)))
        for h in (1, 2):
            grid = compute_grid(cloud, self.spec, DFKind.UIMLS, self.params)
            vals, found = grid.values_at(self.probes[h])
            assert found.all()
            np.testing.assert_allclose(vals, h, atol=self.ATOL)

    def test_uwed_tracks_height_two(self):
        vals = self._stored(DFKind.UWED, 2)
        np.testing.assert_allclose(vals, 2.0, atol=self.ATOL)
        np.testing.assert_allclose(vals.mean(), 2.0, atol=0.1)


class TestFlip:
    def setup_method(self):
        self.spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.05, dims=(4, 4, 4))

    def test_unsigned_law(self):
        grid = SparseDFGrid(self.spec, DFKind.UED, False,
                            [[0, 0, 0], [0, 0, 1]], [0.5, 0.0])
        f = flip(grid)
        assert f.flipped and f.kind is DFKind.UED
        np.testing.assert_array_equal(f.values, [2.5, 3.0])
        np.testing.assert_array_equal(f.indices, grid.indices)

    def test_signed_law(self):
        grid = SparseDFGrid(self.spec, DFKind.HOPPE, False,
                            [[0, 0, 0], [0, 0, 1], [0, 0, 2]], [0.5, 0.0, -1.0])
        f = flip(grid)
        np.testing.assert_array_equal(f.values, [2.5, 3.0, -2.0])

    def test_involution_bitwise(self):
        cloud = plane_cloud(seed=5, density=1000.0)
        spec = grid_spec_for(cloud)
        params = DFParams.for_voxel_size(VOXEL_SIZE)
        for kind in (DFKind.HOPPE, DFKind.UED, DFKind.SWED, DFKind.UWED):
            grid = compute_grid(cloud, spec, kind, params)
            back = flip(flip(grid))
            assert not back.flipped
            np.testing.assert_array_equal(back.values, grid.values)
            np.testing.assert_array_equal(back.indices, grid.indices)


class TestPyramid:
    def test_dims_halve_with_ceiling(self):
        cloud = plane_cloud(seed=5, density=1000.0, side=0.4)
        spec = GridSpec(origin=(-0.15, -0.15, -0.15), voxel_size=0.05, dims=(13, 13, 7))
        params = DFParams.for_voxel_size(0.05)
        grids = build_pyramid(cloud, spec, DFKind.UED, params, levels=3)
        assert [g.spec.dims for g in grids] == [(13, 13, 7), (7, 7, 4), (4, 4, 2)]
        for level, g in enumerate(grids):
            assert g.spec.voxel_size == 0.05 * 2**level
            np.testing.assert_array_equal(g.spec.origin, spec.origin)
            assert len(g) > 0

    def test_levels_below_one_rejected(self):
        cloud = plane_cloud(seed=5, density=200.0, side=0.4)
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.05, dims=(8, 8, 8))
        with pytest.raises(ContractError):
            build_pyramid(cloud, spec, DFKind.UED, DFParams.for_voxel_size(0.05), levels=0)
