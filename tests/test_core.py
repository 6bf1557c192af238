"""Tests for the fundamental types: kinds, clouds, lattices, sparse grids."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from udfgrid import (
    ContractError,
    DFKind,
    DFParams,
    GridSpec,
    OutOfBoundsError,
    PointCloud,
    SparseDFGrid,
    TRUNCATION_VOXELS,
    round_half_away_from_zero,
    voxel_position,
    world_to_voxel,
)
from udfgrid.core import linearize


class TestDFKind:
    def test_eight_kinds(self):
        assert len(DFKind) == 8
        assert {k.value for k in DFKind} == {
            "hoppe", "imls", "sed", "swed", "uhoppe", "uimls", "ued", "uwed",
        }

    def test_signedness(self):
        signed = {DFKind.HOPPE, DFKind.IMLS, DFKind.SED, DFKind.SWED}
        for kind in DFKind:
            assert kind.signed == (kind in signed)

    def test_normals_requirement(self):
        """Only the pure-Euclidean kinds work without normals."""
        for kind in DFKind:
            assert kind.requires_normals == (kind not in (DFKind.UED, DFKind.UWED))

    def test_code_roundtrip(self):
        codes = [k.code for k in DFKind]
        assert sorted(codes) == list(range(8))
        for kind in DFKind:
            assert DFKind.from_code(kind.code) is kind

    def test_stable_code_assignment(self):
        """The on-disk codes are frozen; reordering would corrupt old files."""
        assert DFKind.HOPPE.code == 0
        assert DFKind.IMLS.code == 1
        assert DFKind.SED.code == 2
        assert DFKind.SWED.code == 3
        assert DFKind.UHOPPE.code == 4
        assert DFKind.UIMLS.code == 5
        assert DFKind.UED.code == 6
        assert DFKind.UWED.code == 7

    def test_from_code_rejects_unknown(self):
        with pytest.raises(ContractError):
            DFKind.from_code(8)
        with pytest.raises(ContractError):
            DFKind.from_code(-1)

    def test_parse(self):
        assert DFKind.parse("uwed") is DFKind.UWED
        assert DFKind.parse("UWED") is DFKind.UWED
        assert DFKind.parse("  Swed ") is DFKind.SWED

    def test_parse_rejects_unknown(self):
        with pytest.raises(ContractError):
            DFKind.parse("tsdf")


class TestPointCloud:
    def test_basic(self):
        rng = np.random.default_rng(42)
        pos = rng.random((10, 3))
        cloud = PointCloud(pos)
        assert len(cloud) == 10
        assert not cloud.has_normals
        assert not cloud.has_sensor_origins
        assert cloud.positions.dtype == np.float64

    def test_single_point_reshapes(self):
        cloud = PointCloud([1.0, 2.0, 3.0])
        assert cloud.positions.shape == (1, 3)

    def test_empty_allowed(self):
        cloud = PointCloud(np.empty((0, 3)))
        assert len(cloud) == 0

    def test_frozen(self):
        cloud = PointCloud(np.zeros((1, 3)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cloud.positions = np.ones((1, 3))

    def test_nonfinite_positions_rejected(self):
        with pytest.raises(ContractError):
            PointCloud([[0.0, 0.0, np.nan]])
        with pytest.raises(ContractError):
            PointCloud([[0.0, np.inf, 0.0]])

    def test_unit_normals_accepted(self):
        rng = np.random.default_rng(42)
        n = rng.normal(size=(20, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        cloud = PointCloud(rng.random((20, 3)), normals=n)
        assert cloud.has_normals

    def test_non_unit_normals_rejected(self):
        with pytest.raises(ContractError):
            PointCloud([[0.0, 0.0, 0.0]], normals=[[0.0, 0.0, 2.0]])

    def test_huge_normal_rejected_without_overflow(self):
        """Squaring 1e200 overflows; the check must reject it before the norm."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="unit length"):
                PointCloud([[0.0, 0.0, 0.0]], normals=[[1e200, 0.0, 0.0]])

    @given(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
           st.integers(0, 2), st.floats(-1e-5, 1e-5))
    def test_unit_check_matches_norm(self, row, axis, eps):
        """Acceptance is exactly |norm - 1| <= 1e-6, also near the bound."""
        row = np.array(row)
        row[axis] = np.copysign(1.0, row[axis]) + eps  # one component near +-1
        norm = np.linalg.norm(row)
        try:
            PointCloud([[0.0, 0.0, 0.0]], normals=[row])
            accepted = True
        except ContractError:
            accepted = False
        assert accepted == bool(abs(norm - 1.0) <= 1e-6)

    def test_all_nan_normal_rows_allowed(self):
        nrm = np.array([[0.0, 0.0, 1.0], [np.nan, np.nan, np.nan]])
        cloud = PointCloud(np.zeros((2, 3)), normals=nrm)
        assert np.isnan(cloud.normals[1]).all()

    def test_partial_nan_normal_row_rejected(self):
        with pytest.raises(ContractError):
            PointCloud(np.zeros((1, 3)), normals=[[np.nan, 0.0, 1.0]])

    def test_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            PointCloud(np.zeros((2, 3)), normals=[[0.0, 0.0, 1.0]])
        with pytest.raises(ContractError):
            PointCloud(np.zeros((2, 3)), sensor_origins=[[0.0, 0.0, 1.0]])

    def test_nonfinite_sensor_origins_rejected(self):
        with pytest.raises(ContractError):
            PointCloud(np.zeros((1, 3)), sensor_origins=[[np.inf, 0.0, 0.0]])

    def test_select_mask_and_ids(self):
        rng = np.random.default_rng(42)
        pos = rng.random((5, 3))
        n = np.tile([0.0, 0.0, 1.0], (5, 1))
        org = rng.random((5, 3))
        cloud = PointCloud(pos, n, org)
        sub = cloud.select(np.array([True, False, True, False, False]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.positions, pos[[0, 2]])
        np.testing.assert_array_equal(sub.sensor_origins, org[[0, 2]])
        sub2 = cloud.select([4, 1])
        np.testing.assert_array_equal(sub2.positions, pos[[4, 1]])

    def test_select_preserves_absence(self):
        cloud = PointCloud(np.zeros((3, 3)))
        sub = cloud.select([0])
        assert sub.normals is None and sub.sensor_origins is None


class TestGridSpec:
    def test_basic(self):
        spec = GridSpec(origin=(1.0, 2.0, 3.0), voxel_size=0.05, dims=(4, 5, 6))
        np.testing.assert_array_equal(spec.origin, [1.0, 2.0, 3.0])
        assert spec.dims == (4, 5, 6)

    def test_validation(self):
        with pytest.raises(ContractError):
            GridSpec(origin=(0, 0, 0), voxel_size=0.0, dims=(2, 2, 2))
        with pytest.raises(ContractError):
            GridSpec(origin=(0, 0, 0), voxel_size=-1.0, dims=(2, 2, 2))
        # The UDFG reader refuses a non-finite voxel size, so a spec may not hold one.
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ContractError, match="voxel_size"):
                GridSpec(origin=(0, 0, 0), voxel_size=bad, dims=(2, 2, 2))
        with pytest.raises(ContractError):
            GridSpec(origin=(0, 0, 0), voxel_size=0.1, dims=(2, 0, 2))
        with pytest.raises(ContractError):
            GridSpec(origin=(0, np.nan, 0), voxel_size=0.1, dims=(2, 2, 2))

    def test_node_count_must_fit_int64(self):
        """Linear codes are int64; larger grids would wrap and mis-sort."""
        with pytest.raises(ContractError):
            GridSpec(origin=(0, 0, 0), voxel_size=0.1, dims=(2**32 - 1,) * 3)
        with pytest.raises(ContractError):
            GridSpec(origin=(0, 0, 0), voxel_size=0.1, dims=(2**21, 2**21, 2**21))
        GridSpec(origin=(0, 0, 0), voxel_size=0.1, dims=(2**21, 2**21, 2**21 - 1))

    @pytest.mark.parametrize("voxel_size", [0.0, np.inf, np.nan])
    def test_covering_checks_voxel_size_first(self, voxel_size):
        with pytest.raises(ContractError, match="voxel_size"):
            GridSpec.covering(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), voxel_size)

    def test_covering_refuses_dims_beyond_int64(self):
        """A box / voxel ratio that overflows float64 is a ContractError, not OverflowError."""
        with pytest.raises(ContractError, match="nodes"):
            GridSpec.covering(np.array([[0.0, 0.0, 0.0], [1e10, 1.0, 1.0]]), 1e-300)


class TestVoxelPosition:
    def test_node_positions(self):
        spec = GridSpec(origin=(1.0, 2.0, 3.0), voxel_size=0.5, dims=(4, 4, 8))
        np.testing.assert_allclose(voxel_position(spec, (2, 0, 4)), [2.0, 2.0, 5.0])

    def test_vectorized(self):
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.25, dims=(4, 4, 4))
        idx = np.array([[0, 0, 0], [3, 3, 3]])
        np.testing.assert_allclose(
            voxel_position(spec, idx), [[0.0, 0.0, 0.0], [0.75, 0.75, 0.75]]
        )

    def test_out_of_range_rejected(self):
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.25, dims=(4, 4, 4))
        with pytest.raises(ContractError):
            voxel_position(spec, (4, 0, 0))
        with pytest.raises(ContractError):
            voxel_position(spec, (0, -1, 0))


class TestRounding:
    def test_halves_away_from_zero(self):
        x = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5]
        np.testing.assert_array_equal(
            round_half_away_from_zero(x), [1.0, -1.0, 2.0, -2.0, 3.0, -3.0]
        )

    def test_non_halves(self):
        x = [0.49, -0.49, 2.4, -2.4, 2.6]
        np.testing.assert_array_equal(
            round_half_away_from_zero(x), [0.0, 0.0, 2.0, -2.0, 3.0]
        )


class TestWorldToVoxel:
    def setup_method(self):
        # Voxel size 0.5 is exactly representable, so halfway points are exact.
        self.spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.5, dims=(10, 10, 10))

    def test_nearest_node(self):
        np.testing.assert_array_equal(
            world_to_voxel(self.spec, (1.2, 0.0, 4.4)), [2, 0, 9]
        )

    def test_halfway_rounds_away_from_zero(self):
        np.testing.assert_array_equal(world_to_voxel(self.spec, (1.25, 0.0, 0.0)), [3, 0, 0])

    def test_half_voxel_margin_clamps(self):
        np.testing.assert_array_equal(world_to_voxel(self.spec, (-0.25, 0.0, 0.0)), [0, 0, 0])
        np.testing.assert_array_equal(world_to_voxel(self.spec, (4.75, 0.0, 0.0)), [9, 0, 0])

    def test_beyond_margin_raises(self):
        with pytest.raises(OutOfBoundsError):
            world_to_voxel(self.spec, (-0.26, 0.0, 0.0))
        with pytest.raises(OutOfBoundsError):
            world_to_voxel(self.spec, (0.0, 4.76, 0.0))

    def test_batch(self):
        p = np.array([[0.0, 0.0, 0.0], [1.2, 2.3, 3.4]])
        np.testing.assert_array_equal(
            world_to_voxel(self.spec, p), [[0, 0, 0], [2, 5, 7]]
        )


class TestDFParams:
    def test_radius_is_three_sigma(self):
        p = DFParams(sigma=0.1)
        assert p.neighbor_radius == 3.0 * 0.1
        with pytest.raises(AttributeError):
            p.neighbor_radius = 0.5

    def test_radius_override_rejected(self):
        with pytest.raises(TypeError):
            DFParams(sigma=0.1, neighbor_radius=0.5)

    def test_truncation_fixed(self):
        assert TRUNCATION_VOXELS == 3.0
        with pytest.raises(TypeError):
            DFParams(sigma=1.0, truncation_voxels=2.0)

    def test_defaults(self):
        p = DFParams(sigma=1.0)
        assert p.max_neighbors == 36
        with pytest.raises(TypeError):
            DFParams(sigma=1.0, normal_k=30)

    def test_for_voxel_size(self):
        p = DFParams.for_voxel_size(0.05)
        assert p.sigma == 2.0 * 0.05
        assert p.neighbor_radius == 3.0 * p.sigma

    def test_validation(self):
        with pytest.raises(ContractError):
            DFParams(sigma=0.0)
        with pytest.raises(ContractError):
            DFParams(sigma=-1.0)
        with pytest.raises(TypeError):
            DFParams(sigma=1.0, normal_k=2)
        with pytest.raises(ContractError):
            DFParams(sigma=1.0, max_neighbors=0)


class TestLinearize:
    def test_single(self):
        assert linearize((4, 5, 6), np.array([1, 2, 3])) == (1 * 5 + 2) * 6 + 3

    def test_lexicographic_order(self):
        """Linear codes sort exactly like (i, j, k) tuples."""
        rng = np.random.default_rng(42)
        dims = (7, 5, 9)
        ijk = np.stack([rng.integers(0, d, size=200) for d in dims], axis=1)
        codes = linearize(dims, ijk)
        order_codes = np.argsort(codes, kind="stable")
        order_tuples = np.lexsort((ijk[:, 2], ijk[:, 1], ijk[:, 0]))
        np.testing.assert_array_equal(codes[order_codes], codes[order_tuples])


class TestSparseDFGrid:
    def setup_method(self):
        self.spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.05, dims=(8, 8, 8))

    def test_sorts_unsorted_input(self):
        idx = np.array([[3, 0, 0], [0, 0, 1], [0, 0, 0]])
        val = np.array([0.3, 0.1, 0.0])
        grid = SparseDFGrid(self.spec, DFKind.UED, False, idx, val)
        np.testing.assert_array_equal(grid.indices, [[0, 0, 0], [0, 0, 1], [3, 0, 0]])
        np.testing.assert_array_equal(grid.values, [0.0, 0.1, 0.3])
        assert (np.diff(grid.codes()) > 0).all()

    def test_duplicates_rejected(self):
        idx = np.array([[1, 1, 1], [1, 1, 1]])
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, DFKind.UED, False, idx, [0.1, 0.2])

    def test_indices_outside_dims_rejected(self):
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, DFKind.UED, False, [[8, 0, 0]], [0.1])
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, DFKind.UED, False, [[-1, 0, 0]], [0.1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, DFKind.UED, False, [[0, 0, 0]], [0.1, 0.2])

    def test_unsigned_range(self):
        SparseDFGrid(self.spec, DFKind.UED, False, [[0, 0, 0]], [0.0])
        SparseDFGrid(self.spec, DFKind.UED, False, [[0, 0, 0]], [2.999])
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, DFKind.UED, False, [[0, 0, 0]], [3.0])
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, DFKind.UED, False, [[0, 0, 0]], [-0.1])

    def test_unsigned_flipped_range(self):
        SparseDFGrid(self.spec, DFKind.UED, True, [[0, 0, 0]], [3.0])
        SparseDFGrid(self.spec, DFKind.UED, True, [[0, 0, 0]], [0.001])
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, DFKind.UED, True, [[0, 0, 0]], [0.0])
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, DFKind.UED, True, [[0, 0, 0]], [3.001])

    def test_signed_range(self):
        SparseDFGrid(self.spec, DFKind.HOPPE, False, [[0, 0, 0]], [-2.999])
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, DFKind.HOPPE, False, [[0, 0, 0]], [3.0])
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, DFKind.HOPPE, False, [[0, 0, 0]], [-3.0])

    def test_signed_flipped_range(self):
        SparseDFGrid(self.spec, DFKind.HOPPE, True, [[0, 0, 0]], [3.0])
        SparseDFGrid(self.spec, DFKind.HOPPE, True, [[0, 0, 0]], [-3.0])
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, DFKind.HOPPE, True, [[0, 0, 0]], [3.001])

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, DFKind.UED, False, [[0, 0, 0]], [np.nan])

    def test_truncation_fixed(self):
        with pytest.raises(TypeError):
            SparseDFGrid(self.spec, DFKind.UED, False, [[0, 0, 0]], [0.1], truncation=2.0)

    def test_empty_grid(self):
        grid = SparseDFGrid(self.spec, DFKind.UWED, False,
                            np.empty((0, 3), np.int64), np.empty(0))
        assert len(grid) == 0
        assert grid.value_at((0, 0, 0)) is None

    def test_value_lookup(self):
        grid = SparseDFGrid(self.spec, DFKind.UED, False,
                            [[0, 0, 0], [2, 3, 4]], [0.25, 1.5])
        assert grid.value_at((2, 3, 4)) == 1.5
        assert grid.value_at((1, 1, 1)) is None

    def test_values_at_batch(self):
        grid = SparseDFGrid(self.spec, DFKind.UED, False,
                            [[0, 0, 0], [2, 3, 4]], [0.25, 1.5])
        q = np.array([[0, 0, 0], [7, 7, 7], [2, 3, 4], [9, 0, 0]])
        vals, found = grid.values_at(q)
        np.testing.assert_array_equal(found, [True, False, True, False])
        assert vals[0] == 0.25 and vals[2] == 1.5
        assert np.isnan(vals[1]) and np.isnan(vals[3])
