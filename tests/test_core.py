"""Tests for the fundamental types: kinds, clouds, lattices, sparse grids."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from udfgrid import (
    ContractError,
    DFKind,
    DFParams,
    GridSpec,
    OutOfBoundsError,
    PointCloud,
    ScanSpec,
    SparseDFGrid,
    Sphere,
    TRUNCATION_VOXELS,
    build_pyramid,
    estimate_normals,
    evaluate,
    flip,
    gaussian_weight,
    make_evaluator,
    round_half_away_from_zero,
    voxel_position,
    world_to_voxel,
)
from udfgrid import core, read_grid, spatial, write_grid
from udfgrid.core import MAX_COORD, MIN_LENGTH, linearize
from udfgrid.spatial import canonical_distance


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

    # (kind, value, code, weighted, rule, signed, requires_normals), as the paper's
    # 2 x 4 grid of estimator x value rule and the UDFG format define them.
    TABLE = [
        (DFKind.HOPPE, "hoppe", 0, False, "plane", True, True),
        (DFKind.IMLS, "imls", 1, True, "plane", True, True),
        (DFKind.SED, "sed", 2, False, "signed_distance", True, True),
        (DFKind.SWED, "swed", 3, True, "signed_distance", True, True),
        (DFKind.UHOPPE, "uhoppe", 4, False, "abs_plane", False, True),
        (DFKind.UIMLS, "uimls", 5, True, "abs_plane", False, True),
        (DFKind.UED, "ued", 6, False, "distance", False, False),
        (DFKind.UWED, "uwed", 7, True, "distance", False, False),
    ]

    @pytest.mark.parametrize("row", TABLE, ids=lambda row: row[1])
    def test_the_kind_table(self, row):
        kind, value, code, weighted, rule, signed, requires_normals = row
        assert (kind.value, kind.code, kind.weighted, kind.rule) == (value, code, weighted, rule)
        assert (kind.signed, kind.requires_normals) == (signed, requires_normals)
        assert DFKind(value) is DFKind.parse(value.upper()) is DFKind.from_code(code) is kind

    @pytest.mark.parametrize("row", TABLE, ids=lambda row: row[1])
    def test_udfg_kind_byte(self, row, tmp_path):
        """Byte 8 of a written UDFG file is the kind's frozen code."""
        kind, code = row[0], row[2]
        path = tmp_path / "grid.udfg"
        write_grid(SparseDFGrid(_spec(), kind, False, [[1, 2, 3]], [0.5]), path)
        assert path.read_bytes()[8] == code
        assert read_grid(path).kind is kind


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

    def test_coordinates_beyond_the_bound_rejected(self):
        """1.4e154 squared overflows float64; the bound refuses it up front."""
        PointCloud([[MAX_COORD, -MAX_COORD, 0.0]])
        beyond = np.nextafter(MAX_COORD, np.inf)
        for bad in ([[1.4e154, 0.0, 0.0]], [[0.0, -beyond, 0.0]], [[0.0, 0.0, 1e300]]):
            with pytest.raises(ContractError, match="positions must be finite"):
                PointCloud(bad)
        with pytest.raises(ContractError, match="sensor_origins"):
            PointCloud(np.zeros((1, 3)), sensor_origins=[[0.0, beyond, 0.0]])

    def test_bound_keeps_distances_finite(self):
        """The farthest two accepted points are a finite canonical distance apart."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = canonical_distance(np.full(3, MAX_COORD), np.full(3, -MAX_COORD))
        assert np.isfinite(d)

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

    def test_owns_a_copy_of_the_callers_array(self):
        """Writing into the array a cloud was built from leaves the cloud as it was."""
        pos = np.random.default_rng(42).random((6, 3))
        before = pos.copy()
        cloud = PointCloud(pos)
        pos[0] = [9.0, 9.0, 9.0]
        pos *= 2.0
        np.testing.assert_array_equal(cloud.positions, before)

    def test_arrays_are_read_only(self):
        rng = np.random.default_rng(42)
        up = np.tile([0.0, 0.0, 1.0], (4, 1))
        cloud = PointCloud(rng.random((4, 3)), up, rng.random((4, 3)))
        for c in (cloud, cloud.select([True, False, True, True]), cloud.select([3, 0])):
            for arr in (c.positions, c.normals, c.sensor_origins):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 0.5
                with pytest.raises(ValueError, match="read-only"):
                    arr += 1.0


class TestEquality:
    """``==`` and ``hash`` never reach an array: both raised at one time."""

    def test_grid_specs_compare_by_value(self):
        spec = GridSpec(origin=(1.0, 2.0, 3.0), voxel_size=0.05, dims=(4, 5, 6))
        same = GridSpec(origin=np.array([1.0, 2.0, 3.0]), voxel_size=0.05, dims=(4, 5, 6))
        assert spec == same and hash(spec) == hash(same) and len({spec, same}) == 1
        assert spec == dataclasses.replace(spec, dims=(4, 5, 6))
        for other in (GridSpec((1.0, 2.0, 3.5), 0.05, (4, 5, 6)),
                      GridSpec((1.0, 2.0, 3.0), 0.1, (4, 5, 6)),
                      GridSpec((1.0, 2.0, 3.0), 0.05, (4, 5, 7)),
                      (1.0, 2.0, 3.0), "spec", None):
            assert spec != other and not spec == other

    def test_grid_spec_origin_compares_by_bits(self):
        zero = GridSpec((0.0, 0.0, 0.0), 0.05, (2, 2, 2))
        assert zero != GridSpec((-0.0, 0.0, 0.0), 0.05, (2, 2, 2))

    def test_clouds_and_grids_compare_by_identity(self):
        cloud = PointCloud(np.zeros((2, 3)), np.tile([0.0, 0.0, 1.0], (2, 1)))
        spec = GridSpec((0.0, 0.0, 0.0), 0.05, (2, 2, 2))
        grid = SparseDFGrid(spec, DFKind.UED, False, [[0, 0, 0]], [1.0])
        for a, b in ((cloud, PointCloud(cloud.positions, cloud.normals)),
                     (grid, SparseDFGrid(spec, DFKind.UED, False, [[0, 0, 0]], [1.0]))):
            assert a == a and a != b and not a == b
            assert hash(a) == hash(a) and len({a, b}) == 2


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
        with pytest.raises(ContractError, match=r"dims must be three integers >= 1, got \(2, 2\)"):
            GridSpec(origin=(0, 0, 0), voxel_size=0.1, dims=(2, 2))

    def test_node_count_must_fit_int64(self):
        """Linear codes are int64; larger grids would wrap and mis-sort."""
        with pytest.raises(ContractError):
            GridSpec(origin=(0, 0, 0), voxel_size=0.1, dims=(2**32 - 1,) * 3)
        with pytest.raises(ContractError):
            GridSpec(origin=(0, 0, 0), voxel_size=0.1, dims=(2**21, 2**21, 2**21))
        GridSpec(origin=(0, 0, 0), voxel_size=0.1, dims=(2**21, 2**21, 2**21 - 1))

    def test_node_positions_within_the_bound(self):
        """Every node position origin + idx * voxel_size stays within MAX_COORD."""
        beyond = np.nextafter(MAX_COORD, np.inf)
        GridSpec(origin=(-MAX_COORD, 0, 0), voxel_size=MAX_COORD / 4, dims=(9, 1, 1))
        bad = [
            dict(origin=(0, 0, 0), voxel_size=4.5e307, dims=(10,) * 3),  # beyond the bound
            dict(origin=(0, 0, 0), voxel_size=beyond, dims=(1,) * 3),
            dict(origin=(0, beyond, 0), voxel_size=1.0, dims=(1,) * 3),
            dict(origin=(0, 0, MAX_COORD), voxel_size=1.0e140, dims=(1, 1, 2)),
            dict(origin=(0, 0, 0), voxel_size=MAX_COORD / 4, dims=(6, 1, 1)),  # far corner
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kwargs in bad:
                with pytest.raises(ContractError):
                    GridSpec(**kwargs)

    @pytest.mark.parametrize("voxel_size", [0.0, np.inf, np.nan])
    def test_covering_checks_voxel_size_first(self, voxel_size):
        with pytest.raises(ContractError, match="voxel_size"):
            GridSpec.covering(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), voxel_size)

    def test_covering_refuses_dims_beyond_int64(self):
        """A box / voxel ratio that overflows float64 is a ContractError, not OverflowError."""
        with pytest.raises(ContractError, match="nodes"):
            GridSpec.covering(np.array([[0.0, 0.0, 0.0], [1e10, 1.0, 1.0]]), 1e-140)


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

    def test_shape_is_kept(self):
        assert world_to_voxel(self.spec, [1.2, 0.0, 4.4]).shape == (3,)
        assert world_to_voxel(self.spec, [[1.2, 0.0, 4.4]]).shape == (1, 3)
        assert world_to_voxel(self.spec, np.empty((0, 3))).shape == (0, 3)


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

    @pytest.mark.parametrize("kind, value", [
        (DFKind.SED, 0.0), (DFKind.SED, -0.0), (DFKind.UED, 2.0**-60),
        (DFKind.UED, 2.0**-52), (DFKind.HOPPE, -(2.0**-52)),
    ])
    def test_flipped_values_that_cannot_unflip_rejected(self, kind, value):
        """3 - |v| rounds to 3 for these, outside the non-flipped range."""
        with pytest.raises(ContractError):
            SparseDFGrid(self.spec, kind, True, [[0, 0, 0]], [value])

    def test_smallest_flipped_magnitude_that_unflips(self):
        v = np.nextafter(2.0**-52, 1.0)
        for kind, value in ((DFKind.UED, v), (DFKind.SED, v), (DFKind.SED, -v)):
            grid = SparseDFGrid(self.spec, kind, True, [[0, 0, 0]], [value])
            assert abs(flip(grid).values[0]) < 3.0

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

    def test_value_at_takes_one_index(self):
        grid = SparseDFGrid(self.spec, DFKind.UED, False, [[0, 0, 0]], [0.25])
        with pytest.raises(ContractError, match=r"value_at takes one \(i, j, k\) index"):
            grid.value_at([[0, 0, 0], [1, 1, 1]])

    def test_owns_its_arrays(self):
        """Writing into the arrays a grid was built from leaves the grid as it was:
        the grid once kept them, so these writes moved it outside its value range
        and its dims."""
        idx, v = np.array([[0, 0, 0], [1, 2, 3]]), np.array([0.5, 1.5])
        grid = SparseDFGrid(self.spec, DFKind.UED, False, idx, v)
        v[0] = 99.0
        idx[1] = [9, 9, 9]
        np.testing.assert_array_equal(grid.values, [0.5, 1.5])
        np.testing.assert_array_equal(grid.indices, [[0, 0, 0], [1, 2, 3]])

    def test_arrays_are_read_only(self, tmp_path):
        grid = SparseDFGrid(self.spec, DFKind.UED, False, [[0, 0, 0], [1, 2, 3]], [0.5, 1.5])
        write_grid(grid, tmp_path / "g.udfg")
        for g in (grid, flip(grid), read_grid(tmp_path / "g.udfg")):
            for arr in (g.values, g.codes()):
                with pytest.raises(ValueError, match="read-only"):
                    arr[1] = -7.0

    def test_flip_shares_the_codes(self):
        """The library hands over the arrays it builds: a flipped grid keeps the same codes."""
        grid = SparseDFGrid(self.spec, DFKind.UED, False, [[0, 0, 0], [1, 2, 3]], [0.5, 1.5])
        assert flip(grid).codes() is grid.codes()

    def test_values_at_batch(self):
        grid = SparseDFGrid(self.spec, DFKind.UED, False,
                            [[0, 0, 0], [2, 3, 4]], [0.25, 1.5])
        # The last two rows lie outside dims but linearize to stored codes (2**62 * 64
        # wraps to 0 in int64; (3, -5, 4) gives (2, 3, 4)'s 156); they must still miss.
        q = np.array([[0, 0, 0], [7, 7, 7], [2, 3, 4], [9, 0, 0], [2**62, 0, 0], [3, -5, 4]])
        vals, found = grid.values_at(q)
        np.testing.assert_array_equal(found, [True, False, True, False, False, False])
        assert vals[0] == 0.25 and vals[2] == 1.5
        assert np.isnan(vals[[1, 3, 4, 5]]).all()


@st.composite
def _voxel_sets(draw):
    """(dims, (N, 3) indices): sorted, shuffled, holding a duplicate, or holding
    an index outside dims, with dims up to 2**21 per axis."""
    dims = tuple(draw(st.integers(1, 2**21)) for _ in range(3))
    assume(dims[0] * dims[1] * dims[2] <= core.MAX_NODES)
    rows = draw(st.lists(st.tuples(*(st.integers(0, d - 1) for d in dims)), max_size=24))
    idx = np.array(rows, dtype=np.int64).reshape(-1, 3)
    layout = draw(st.sampled_from(["sorted", "shuffled", "duplicate", "outside"]))
    if layout == "sorted":
        return dims, idx[np.lexsort(idx.T[::-1])]
    if len(idx) and layout == "duplicate":
        idx = np.concatenate([idx, idx[draw(st.integers(0, len(idx) - 1))][None]])
    if len(idx) and layout == "outside":
        row, axis = draw(st.integers(0, len(idx) - 1)), draw(st.integers(0, 2))
        idx[row, axis] = draw(st.sampled_from([-1, dims[axis], 2**40]))
    return dims, idx[draw(st.permutations(range(len(idx))))]


class TestGridLayout:
    """A grid keeps sorted int64 codes and rebuilds its indices from them; the
    reference lexsorts the (N, 3) rows instead."""

    @settings(max_examples=300)
    @given(case=_voxel_sets())
    def test_matches_lexsorted_rows(self, case):
        dims, idx = case
        spec = GridSpec((0.0, 0.0, 0.0), 1.0, dims)
        values = np.linspace(0.0, 2.9, len(idx))  # one value per row, to follow the rows
        order = np.lexsort(idx.T[::-1])
        rows = idx[order]
        if not ((idx >= 0) & (idx < dims)).all():
            refusal = "voxel indices outside grid dims"
        elif (rows[1:] == rows[:-1]).all(axis=1).any():
            refusal = "duplicate voxel indices"
        else:
            refusal = None
        if refusal:
            with pytest.raises(ContractError, match=refusal):
                SparseDFGrid(spec, DFKind.UED, False, idx, values)
            return
        grid = SparseDFGrid(spec, DFKind.UED, False, idx, values)
        assert grid.indices.dtype == np.int64 and grid.indices.tobytes() == rows.tobytes()
        assert grid.values.tobytes() == values[order].tobytes()
        assert (np.diff(grid.codes()) > 0).all()
        oracle = {tuple(r): v for r, v in zip(idx.tolist(), values.tolist())}
        probes = np.concatenate([idx, idx + 1, idx - 1, [[0, 0, 0], [d - 1 for d in dims]]])
        want = [oracle.get(tuple(p)) for p in probes.tolist()]
        got, found = grid.values_at(probes)
        assert found.tolist() == [w is not None for w in want]
        assert got[found].tolist() == [w for w in want if w is not None]
        assert np.isnan(got[~found]).all()


# -- the argument contract: rows, points, counts and lengths ------------------
#
# Each row below is an input that was once misread silently or crashed with a
# numpy or Python exception; ``match`` names the core check that now refuses it.

_TETRA = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
_SHAPE = r"must have shape \(3,\)"
_BOUND = "must be finite and within MAX_COORD"
_COUNT = "must be an integer >="
_LENGTH = "must be finite, positive and at most MAX_COORD"


def _nan_normal_cloud() -> PointCloud:
    return PointCloud(_TETRA, normals=np.full((4, 3), np.nan))


def _index():
    return spatial.build_index(np.array(_TETRA))


def _spec() -> GridSpec:
    return GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.5, dims=(4, 4, 4))


class TestArgumentContract:
    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda: GridSpec.covering([[np.nan, 0, 0]], 0.1), _BOUND,
                     id="covering NaN"),
        pytest.param(lambda: make_evaluator(PointCloud(_TETRA), DFKind.UED, DFParams(0.1))
                     .batch(np.zeros(6)), _SHAPE, id="batch (6,)"),
        pytest.param(lambda: make_evaluator(_nan_normal_cloud(), DFKind.HOPPE, DFParams(0.1))
                     .batch([[np.nan, 0, 0]]), _BOUND, id="batch NaN without support"),
        pytest.param(lambda: ScanSpec([[0, 0, 0, 1, 1, 1]]), _SHAPE, id="ScanSpec (1, 6)"),
        pytest.param(lambda: ScanSpec([0, 0]), _SHAPE, id="ScanSpec (2,)"),
        pytest.param(lambda: world_to_voxel(_spec(), [np.nan, 0, 0]), _BOUND,
                     id="world_to_voxel NaN"),
        pytest.param(lambda: world_to_voxel(_spec(), (0, 0)), _SHAPE, id="world_to_voxel (2,)"),
        pytest.param(lambda: world_to_voxel(_spec(), [[0, 0, 0], [0, 0]]), "numbers of shape",
                     id="world_to_voxel ragged"),
    ])
    def test_rows(self, call, match):
        with pytest.raises(ContractError, match=match):
            call()

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda: GridSpec(origin=[[0, 0, 0]], voxel_size=0.1, dims=(2, 2, 2)),
                     _SHAPE, id="GridSpec origin (1, 3)"),
        pytest.param(lambda: evaluate([0, 0], PointCloud(_TETRA), DFKind.UED), _SHAPE,
                     id="evaluate (2,)"),
        pytest.param(lambda: evaluate(np.zeros((2, 2)), PointCloud(_TETRA), DFKind.UED),
                     _SHAPE, id="evaluate (2, 2)"),
        pytest.param(lambda: evaluate([np.nan, 0, 0], _nan_normal_cloud(), DFKind.HOPPE),
                     _BOUND, id="evaluate NaN, every normal NaN"),
    ])
    def test_point(self, call, match):
        with pytest.raises(ContractError, match=match):
            call()

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: DFParams(0.1, max_neighbors=1.5), id="max_neighbors 1.5"),
        pytest.param(lambda: GridSpec(origin=(0, 0, 0), voxel_size=0.1, dims=(2.5, 2, 2)),
                     id="dims 2.5"),
        pytest.param(lambda: estimate_normals(PointCloud(_TETRA), k=3.5), id="k 3.5"),
        pytest.param(lambda: build_pyramid(
            PointCloud(_TETRA), GridSpec.covering(_TETRA, 0.5), DFKind.UED, DFParams(1.0),
            levels=2.5), id="levels 2.5"),
    ])
    def test_count(self, call):
        with pytest.raises(ContractError, match=_COUNT):
            call()

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: DFParams(sigma=np.inf), id="DFParams sigma inf"),
        pytest.param(lambda: DFParams(sigma=MAX_COORD / 2), id="DFParams 3 sigma beyond"),
        pytest.param(lambda: gaussian_weight(1.0, np.inf), id="gaussian_weight sigma inf"),
        pytest.param(lambda: gaussian_weight(0.0, 1e-170), id="gaussian_weight sigma 1e-170"),
        pytest.param(lambda: DFParams(sigma=1e-170), id="DFParams sigma 1e-170"),
        pytest.param(lambda: spatial.nearest_batch(_index(), [0, 0, 0], r=1e-162),
                     id="nearest_batch r 1e-162"),
        pytest.param(lambda: spatial.nearest_batch(_index(), [0, 0, 0], r=np.inf),
                     id="nearest_batch r inf"),
        pytest.param(lambda: spatial.radius_query_batch(_index(), [0, 0, 0], np.inf),
                     id="radius_query_batch r inf"),
        pytest.param(lambda: spatial.capped_ball_batch(_index(), [0, 0, 0], np.inf, 3),
                     id="capped_ball_batch r inf"),
    ])
    def test_length(self, call):
        with pytest.raises(ContractError, match=_LENGTH):
            call()

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda: spatial.nearest(spatial.build_index(PointCloud([[1, 2, 3]])),
                                             np.array([1 + 9j, 2, 3])), "query point",
                     id="nearest query"),
        pytest.param(lambda: PointCloud(np.array([[1 + 5j, 2, 3]])), "positions",
                     id="positions"),
        pytest.param(lambda: PointCloud(_TETRA, np.array([[1 + 0j, 0, 0]] * 4)), "normals",
                     id="normals"),
        pytest.param(lambda: SparseDFGrid(_spec(), DFKind.UED, False, [[0, 0, 0]],
                                          np.array([0.5 + 2j])), "grid values", id="grid values"),
        pytest.param(lambda: gaussian_weight(np.array([1 + 1j]), 1.0), "sq_dist",
                     id="gaussian_weight complex"),
        pytest.param(lambda: gaussian_weight(None, 1.0), "sq_dist", id="gaussian_weight None"),
        pytest.param(lambda: gaussian_weight("4", 1.0), "sq_dist", id="gaussian_weight text"),
        pytest.param(lambda: gaussian_weight([1.0, np.nan], 1.0), "sq_dist must be non-negative",
                     id="gaussian_weight NaN"),
        pytest.param(lambda: round_half_away_from_zero(np.array([0.5 + 1j])), "x",
                     id="round_half_away_from_zero"),
    ])
    def test_real_numbers(self, call, match):
        """Complex input lost its imaginary part with only a ComplexWarning,
        which the suite's RuntimeWarning filter would turn into an error; a
        user who ignores warnings got a wrong answer.  So the warnings are
        ignored here."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ContractError, match=match):
                call()

    @pytest.mark.parametrize("call, name", [
        pytest.param(lambda: gaussian_weight(2**70, 1.0), "sq_dist", id="gaussian_weight"),
        pytest.param(lambda: round_half_away_from_zero(2**70), "x",
                     id="round_half_away_from_zero"),
        pytest.param(lambda: round_half_away_from_zero([0.5, -(2**64)]), "x", id="in a list"),
        pytest.param(lambda: SparseDFGrid(_spec(), DFKind.UED, False, [[2**70, 0, 0]], [0.5]),
                     "voxel indices", id="voxel indices"),
        pytest.param(lambda: voxel_position(_spec(), [0, 2**64, 0]), "voxel indices",
                     id="voxel_position"),
    ])
    def test_integer_outside_int64_named(self, call, name):
        """numpy holds a Python int past int64 and uint64 as an object, and
        the message read "got object"."""
        with pytest.raises(ContractError, match=f"{name} must be .*, got an integer outside int64"):
            call()

    def test_covering_one_point(self):
        """A (3,) point is one row, as everywhere else; it raised TypeError."""
        one = GridSpec.covering(np.array([1.0, 2.0, 3.0]), 0.1)
        rows = GridSpec.covering([[1.0, 2.0, 3.0]], 0.1)
        np.testing.assert_array_equal(one.origin, rows.origin)
        assert one.dims == rows.dims

    @pytest.mark.parametrize("call", [
        pytest.param(lambda v: DFParams(sigma=v), id="DFParams sigma"),
        pytest.param(lambda v: DFParams.for_voxel_size(v), id="DFParams.for_voxel_size"),
        pytest.param(lambda v: GridSpec(origin=(0, 0, 0), voxel_size=v, dims=(2, 2, 2)),
                     id="GridSpec voxel_size"),
        pytest.param(lambda v: GridSpec.covering(_TETRA, v), id="GridSpec.covering"),
        pytest.param(lambda v: gaussian_weight(1.0, v), id="gaussian_weight sigma"),
        pytest.param(lambda v: spatial.nearest_batch(_index(), [0, 0, 0], r=v),
                     id="nearest_batch r"),
        pytest.param(lambda v: spatial.capped_ball_batch(_index(), [0, 0, 0], v, 3),
                     id="capped_ball_batch r"),
        pytest.param(lambda v: Sphere((0, 0, 0), v, 100.0), id="sphere radius"),
        pytest.param(lambda v: ScanSpec([[0, 0, 0]], noise_sigma=v), id="ScanSpec noise_sigma"),
    ])
    def test_a_bool_is_not_a_length(self, call):
        """True was read as 1: DFParams(sigma=True) gave sigma = 1 m."""
        with pytest.raises(ContractError, match="got True"):
            call(True)

    def test_a_bool_is_not_a_fraction(self):
        """False was read as 0, a valid fraction."""
        with pytest.raises(ContractError, match=r"\[0, 1\), got False"):
            ScanSpec([[0, 0, 0]], dropout_fraction=False)

    @pytest.mark.parametrize("flag", [1, 0, "no", None, np.array([True]), 1.0])
    def test_flipped_is_a_flag(self, flag):
        """A truthy non-bool, such as the text "no", was taken as a flipped grid."""
        with pytest.raises(ContractError, match="flipped must be a bool"):
            SparseDFGrid(_spec(), DFKind.UED, flag, [[0, 0, 0]], [1.0])

    def test_flags_accept_numpy_bools(self):
        grid = SparseDFGrid(_spec(), DFKind.UED, np.bool_(True), [[0, 0, 0]], [1.0])
        assert grid.flipped is True and flip(grid).flipped is False
        assert core.as_flag(np.bool_(False), "b") is False

    def test_the_checks(self):
        """The four checks themselves, at their edges."""
        beyond = np.nextafter(MAX_COORD, np.inf)
        assert core.as_rows([1, 2, 3], "p").shape == (1, 3)
        assert core.as_rows(np.empty((0, 3)), "p").shape == (0, 3)
        assert core.as_point([1, 2, 3], "p").shape == (3,)
        assert core.as_count(np.int64(3), "n", least=3) == 3
        assert core.as_length(MAX_COORD, "x") == MAX_COORD
        assert core.as_length(MIN_LENGTH, "x") == MIN_LENGTH
        assert core.as_length(MIN_LENGTH / 2, "x", zero=True) == MIN_LENGTH / 2
        for bad in ([[0, 0]], [[[0, 0, 0]]], 1.0, [[0, 0, 1], [0, 1]], "abc"):
            with pytest.raises(ContractError, match="p "):
                core.as_rows(bad, "p")
        with pytest.raises(ContractError, match=_SHAPE):
            core.as_point([[0, 0, 0]], "p")
        with pytest.raises(ContractError, match=_BOUND):
            core.as_point([0, beyond, 0], "p")
        for bad in (True, 2.0, "2", 2):
            with pytest.raises(ContractError, match=_COUNT):
                core.as_count(bad, "n", least=3)
        below = np.nextafter(MIN_LENGTH, 0)
        for bad in (0.0, -1.0, np.nan, np.inf, beyond, below, 1e-170, "x", None):
            with pytest.raises(ContractError, match=_LENGTH):
                core.as_length(bad, "x")
        with pytest.raises(ContractError, match="sphere radius " + _LENGTH):
            Sphere((0, 0, 0), np.inf, 100.0)


class TestVoxelIndices:
    """Index arrays are integral: a fraction was truncated silently."""

    def setup_method(self):
        self.spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.5, dims=(4, 4, 4))
        self.grid = SparseDFGrid(self.spec, DFKind.UED, False, [[0, 0, 0]], [0.5])

    @pytest.mark.parametrize("call", [
        pytest.param(lambda s: SparseDFGrid(s.spec, DFKind.UED, False, [[0.7, 0, 0]], [0.5]),
                     id="SparseDFGrid"),
        pytest.param(lambda s: s.grid.values_at([[0.9, 0, 0]]), id="values_at"),
        pytest.param(lambda s: s.grid.value_at((0.9, 0, 0)), id="value_at"),
        pytest.param(lambda s: voxel_position(s.spec, [0.5, 0, 0]), id="voxel_position"),
        pytest.param(lambda s: voxel_position(s.spec, [np.inf, 0, 0]), id="inf index"),
        pytest.param(lambda s: s.grid.values_at([[2.0**63, 0, 0]]), id="beyond int64"),
    ])
    def test_fractions_refused(self, call):
        with pytest.raises(ContractError, match="integ"):
            call(self)

    def test_non_numbers_refused(self):
        with pytest.raises(ContractError, match="voxel indices must be integers, got bool"):
            SparseDFGrid(self.spec, DFKind.UED, False, [[True, False, True]], [0.5])

    def test_integral_and_empty_accepted(self):
        assert SparseDFGrid(self.spec, DFKind.UED, False, [], []).indices.shape == (0, 3)
        vals, found = self.grid.values_at([])
        assert vals.shape == found.shape == (0,)
        assert self.grid.value_at((0.0, 0.0, 0.0)) == 0.5
        assert voxel_position(self.spec, []).shape == (0, 3)
        np.testing.assert_array_equal(voxel_position(self.spec, [2.0, 0, 0]), [1.0, 0.0, 0.0])
