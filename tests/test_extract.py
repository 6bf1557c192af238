"""Tests for point extraction: zero-crossing interpolation and UDF projection."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import VOXEL_SIZE, grid_spec_for
from udfgrid import (
    DFKind,
    DFParams,
    GridSpec,
    PointCloud,
    SparseDFGrid,
    WrongKindError,
    compute_grid,
    extract_sdf,
    extract_udf,
    flip,
    udf_candidates,
    voxel_position,
)
from udfgrid.extract import _neighbour_values

UP = [0.0, 0.0, 1.0]


def _sdf_pair(va, vb, axis=0):
    """Two adjacent nodes along the given axis with signed values va, vb."""
    dims = [1, 1, 1]
    dims[axis] = 2
    spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.1, dims=tuple(dims))
    idx = np.zeros((2, 3), dtype=np.int64)
    idx[1, axis] = 1
    return SparseDFGrid(spec, DFKind.HOPPE, False, idx, [va, vb])


def _sphere_udf_grid(center, r, spec):
    """Analytic truncated UDF of a sphere, sampled on the lattice."""
    dims = spec.dims
    ijk = np.stack(
        np.meshgrid(*(np.arange(d) for d in dims), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    pos = spec.origin + ijk * spec.voxel_size
    v = np.abs(np.linalg.norm(pos - center, axis=1) - r) / spec.voxel_size
    keep = v < 3.0
    return SparseDFGrid(spec, DFKind.UED, False, ijk[keep],
                        np.float64(np.float32(v[keep])))


class TestExtractSdf:
    def test_midpoint_crossing(self):
        cloud = extract_sdf(_sdf_pair(1.0, -1.0))
        np.testing.assert_allclose(cloud.positions, [[0.05, 0.0, 0.0]])

    def test_interpolation_weight(self):
        # t = va / (va - vb) = 0.5 / 2.0 = 0.25 of the way to the neighbor.
        cloud = extract_sdf(_sdf_pair(0.5, -1.5))
        np.testing.assert_allclose(cloud.positions, [[0.025, 0.0, 0.0]])

    def test_zero_value_is_positive_side(self):
        # Zero counts as positive, so (0, -1) crosses at t=0 ...
        cloud = extract_sdf(_sdf_pair(0.0, -1.0))
        np.testing.assert_allclose(cloud.positions, [[0.0, 0.0, 0.0]])
        # ... while (+1, 0) has no sign change at all.
        assert len(extract_sdf(_sdf_pair(1.0, 0.0))) == 0

    def test_no_crossing_same_sign(self):
        assert len(extract_sdf(_sdf_pair(1.0, 2.0))) == 0
        assert len(extract_sdf(_sdf_pair(-1.0, -0.5))) == 0

    def test_missing_neighbor_ignored(self):
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.1, dims=(3, 1, 1))
        grid = SparseDFGrid(spec, DFKind.HOPPE, False, [[0, 0, 0], [2, 0, 0]],
                            [1.0, -1.0])
        assert len(extract_sdf(grid)) == 0

    def test_all_three_axes(self):
        for axis in range(3):
            cloud = extract_sdf(_sdf_pair(1.0, -1.0, axis=axis))
            expect = np.zeros(3)
            expect[axis] = 0.05
            np.testing.assert_allclose(cloud.positions, [expect])

    def test_wrong_kind_rejected(self):
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.1, dims=(2, 1, 1))
        grid = SparseDFGrid(spec, DFKind.UED, False, [[0, 0, 0]], [0.5])
        with pytest.raises(WrongKindError):
            extract_sdf(grid)

    def test_flipped_grid_gives_identical_points(self):
        grid = _sdf_pair(0.5, -1.5)
        np.testing.assert_array_equal(
            extract_sdf(flip(grid)).positions, extract_sdf(grid).positions
        )

    def test_empty_grid(self):
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.1, dims=(2, 2, 2))
        grid = SparseDFGrid(spec, DFKind.HOPPE, False,
                            np.empty((0, 3), np.int64), np.empty(0))
        cloud = extract_sdf(grid)
        assert len(cloud) == 0 and cloud.positions.shape == (0, 3)

    def test_linear_plane_recovered_exactly(self):
        """A signed plane field is linear along z, so interpolated crossings
        land on the plane to within float32 value grading."""
        rng = np.random.default_rng(42)
        n = 400
        pos = np.column_stack([rng.random(n), rng.random(n), np.full(n, 0.234)])
        cloud = PointCloud(pos, normals=np.tile(UP, (n, 1)))
        spec = grid_spec_for(cloud)
        grid = compute_grid(cloud, spec, DFKind.HOPPE,
                            DFParams.for_voxel_size(VOXEL_SIZE))
        out = extract_sdf(grid)
        assert len(out) > 0
        np.testing.assert_allclose(out.positions[:, 2], 0.234,
                                   atol=1e-6 * VOXEL_SIZE)


class TestUdfCandidates:
    def setup_method(self):
        self.spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.05,
                             dims=(33, 33, 33))
        self.center = np.array([0.8185, 0.8055, 0.7865])  # off-lattice
        self.grid = _sphere_udf_grid(self.center, 0.5, self.spec)

    def test_band_is_open_interval(self):
        indices, directions, udf = udf_candidates(self.grid)
        assert len(indices) > 0
        vals, found = self.grid.values_at(indices)
        assert found.all()
        assert (vals > 1.0).all() and (vals < 3.0).all()
        np.testing.assert_array_equal(udf, vals)

    def test_directions_unit(self):
        _, directions, _ = udf_candidates(self.grid)
        np.testing.assert_allclose(np.linalg.norm(directions, axis=1), 1.0,
                                   atol=1e-12)

    def test_interior_neighbors_required(self):
        indices, _, _ = udf_candidates(self.grid)
        # Every candidate has all six axis neighbors stored.
        for axis in range(3):
            for sign in (-1, 1):
                nb = indices.copy()
                nb[:, axis] += sign
                _, found = self.grid.values_at(nb)
                assert found.all()

    def test_wrong_kind_rejected(self):
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.1, dims=(2, 1, 1))
        grid = SparseDFGrid(spec, DFKind.HOPPE, False, [[0, 0, 0]], [0.5])
        with pytest.raises(WrongKindError):
            udf_candidates(grid)

    def test_constant_field_has_no_gradient(self):
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.1, dims=(5, 5, 5))
        ijk = np.stack(np.meshgrid(*([np.arange(5)] * 3), indexing="ij"),
                       axis=-1).reshape(-1, 3)
        grid = SparseDFGrid(spec, DFKind.UED, False, ijk, np.full(len(ijk), 2.0))
        indices, _, _ = udf_candidates(grid)
        assert len(indices) == 0


class TestExtractUdf:
    def test_sphere_projection(self):
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.05, dims=(33, 33, 33))
        center = np.array([0.8185, 0.8055, 0.7865])
        grid = _sphere_udf_grid(center, 0.5, spec)
        out = extract_udf(grid)
        assert len(out) > 500
        radii = np.linalg.norm(out.positions - center, axis=1)
        np.testing.assert_allclose(radii, 0.5, atol=0.1 * 0.05)

    def test_plane_projection_exact(self):
        """For a field linear in z the central difference is the exact
        gradient, so projected points land on the plane."""
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.05, dims=(9, 9, 13))
        plane_z = 0.2875  # between nodes
        ijk = np.stack(np.meshgrid(*(np.arange(d) for d in spec.dims),
                                   indexing="ij"), axis=-1).reshape(-1, 3)
        z = ijk[:, 2] * spec.voxel_size
        v = np.abs(z - plane_z) / spec.voxel_size
        keep = v < 3.0
        grid = SparseDFGrid(spec, DFKind.UED, False, ijk[keep],
                            np.float64(np.float32(v[keep])))
        out = extract_udf(grid)
        assert len(out) > 0
        np.testing.assert_allclose(out.positions[:, 2], plane_z,
                                   atol=0.05 * spec.voxel_size)

    def test_flipped_grid_gives_identical_points(self):
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.05, dims=(17, 17, 17))
        center = np.array([0.4185, 0.4055, 0.3865])
        grid = _sphere_udf_grid(center, 0.25, spec)
        np.testing.assert_array_equal(
            extract_udf(flip(grid)).positions, extract_udf(grid).positions
        )

    def test_wrong_kind_rejected(self):
        grid = _sdf_pair(1.0, -1.0)
        with pytest.raises(WrongKindError):
            extract_udf(grid)

    def test_empty_grid(self):
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.1, dims=(2, 2, 2))
        grid = SparseDFGrid(spec, DFKind.UED, False,
                            np.empty((0, 3), np.int64), np.empty(0))
        assert len(extract_udf(grid)) == 0


# 0, and values at and within an ulp of 1, 2 and 3: the band and range edges.
EDGES = [0.0] + [x for v in (1.0, 2.0, 3.0)
                 for x in (np.nextafter(v, 0.0), v, np.nextafter(v, 4.0))]


def _in_range(v: np.ndarray, signed: bool, flipped: bool) -> np.ndarray:
    """The values a grid of this kind and flip state may store."""
    if signed:
        return (np.abs(v) <= 3.0) if flipped else (np.abs(v) < 3.0)
    return ((v > 0) & (v <= 3.0)) if flipped else ((v >= 0) & (v < 3.0))


@st.composite
def sparse_grids(draw, signed: bool):
    """A random sparse grid of up to 7**3 nodes, flipped or not.

    Dims of 1 are common, a fill of 1 stores every face, and a third of the
    values are 0 or at or within an ulp of 1, 2 or 3 (either sign, when
    signed).  A flipped grid holds only values that un-flip into range:
    a flipped signed 0, say, un-flips to 3.0, and ``SparseDFGrid`` refuses it.
    """
    dims = tuple(draw(st.sampled_from([1, 2, 3, 7])) for _ in range(3))
    fill = draw(st.sampled_from([0.4, 0.8, 1.0]))
    flipped = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = np.argwhere(rng.random(dims) < fill)
    v = rng.uniform(-3.0 if signed else 0.0, 3.0, len(idx))
    edge = rng.random(len(idx)) < 1 / 3
    v[edge] = rng.choice(EDGES, edge.sum())
    if signed:
        v[edge] *= rng.choice([-1.0, 1.0], edge.sum())
    ok = _in_range(v, signed, flipped)
    if flipped:
        ok &= _in_range(_unflip(v), signed, False)
    kind = DFKind.SED if signed else DFKind.UWED
    spec = GridSpec(origin=(-0.5, 0.25, 1.0), voxel_size=0.1, dims=dims)
    return SparseDFGrid(spec, kind, flipped, idx[ok], v[ok])


def _unflip(v: np.ndarray) -> np.ndarray:
    return np.where(v >= 0, 3.0 - v, -(3.0 + v))


def _dense(grid: SparseDFGrid) -> np.ndarray:
    """The un-flipped values as an array over the whole grid, NaN where none is stored."""
    dense = np.full(grid.spec.dims, np.nan)
    dense[tuple(grid.indices.T)] = _unflip(grid.values) if grid.flipped else grid.values
    return dense


def _shift(dense: np.ndarray, axis: int, step: int) -> np.ndarray:
    """dense[i + step] along ``axis`` at every node, NaN beyond the grid."""
    padded = np.pad(dense, 1, constant_values=np.nan)
    return np.roll(padded, -step, axis=axis)[1:-1, 1:-1, 1:-1]


class TestDenseOracle:
    """Extraction against slicing a dense copy of the grid, bit for bit."""

    @settings(max_examples=150)
    @given(sparse_grids(signed=True))
    @example(SparseDFGrid(GridSpec((0, 0, 0), 0.1, (1, 1, 2)), DFKind.SED, True,
                          [[0, 0, 0], [0, 0, 1]], [3.0, -3.0]))
    def test_extract_sdf(self, grid):
        dense, points = _dense(grid), []
        for axis in range(3):
            va, vb = dense, _shift(dense, axis, 1)
            cross = ~np.isnan(va) & ~np.isnan(vb) & ((va >= 0) != (vb >= 0))
            a, b = va[cross], vb[cross]
            p = voxel_position(grid.spec, np.argwhere(cross)).astype(np.float64)
            p[:, axis] += a / (a - b) * grid.spec.voxel_size
            points.append(p)
        want = np.concatenate(points)
        assert extract_sdf(grid).positions.tobytes() == want.tobytes()

    @settings(max_examples=150)
    @given(sparse_grids(signed=False))
    @example(SparseDFGrid(GridSpec((0, 0, 0), 0.1, (3, 3, 3)), DFKind.UED, False,
                          np.argwhere(np.ones((3, 3, 3))), np.full(27, np.nextafter(1.0, 2.0))))
    def test_udf_candidates(self, grid):
        dense = _dense(grid)
        grad = np.stack([_shift(dense, axis, 1) - _shift(dense, axis, -1) for axis in range(3)],
                        axis=-1)
        keep = (dense > 1.0) & (dense < 3.0) & ~np.isnan(grad).any(axis=-1)
        g = grad[keep]
        norms = np.sqrt(g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1] + g[:, 2] * g[:, 2])
        sloped = norms >= 1e-9
        keep[keep] = sloped
        idx, directions, udf = udf_candidates(grid)
        assert idx.tobytes() == np.argwhere(keep).astype(idx.dtype).tobytes()
        assert directions.tobytes() == (g[sloped] / norms[sloped][:, None]).tobytes()
        assert udf.tobytes() == dense[keep].tobytes()


_STEPS = [(axis, step) for axis in range(3) for step in (1, -1)]


class TestCodeShift:
    """Neighbours by code shift against ``values_at``, bit for bit."""

    # Every node of a full 2 x 2 x 2 grid lies on the last index of some
    # axis: code + 1 from (0, 0, 1) is the code of (0, 1, 0), and code + 2
    # from (0, 1, 0) along y is the code of (1, 0, 0).
    FULL = SparseDFGrid(GridSpec((0, 0, 0), 0.1, (2, 2, 2)), DFKind.SED, False,
                        np.argwhere(np.ones((2, 2, 2))), np.linspace(-2.5, 2.5, 8))
    EMPTY = SparseDFGrid(GridSpec((0, 0, 0), 0.1, (3, 1, 2)), DFKind.UED, False,
                         np.empty((0, 3), dtype=np.int64), [])

    @settings(max_examples=150)
    @given(grid=st.one_of(sparse_grids(signed=True), sparse_grids(signed=False)),
           seed=st.integers(0, 2**32 - 1))
    @example(grid=FULL, seed=0)
    @example(grid=EMPTY, seed=0)
    def test_matches_values_at(self, grid, seed):
        rows = np.random.default_rng(seed).random(len(grid)) < 0.7
        got = _neighbour_values(grid, rows, _STEPS)
        for (axis, step), values in zip(_STEPS, got):
            want, _ = grid.values_at(grid.indices[rows] + step * np.eye(3, dtype=np.int64)[axis])
            assert values.tobytes() == want.tobytes(), (axis, step)

    def test_a_shift_off_a_lattice_line_reads_missing(self):
        # Along z, the stored (0, 0, 1) ends its line; (0, 1, 0) starts the next.
        grid = SparseDFGrid(GridSpec((0, 0, 0), 0.1, (1, 2, 2)), DFKind.SED, False,
                            [[0, 0, 1], [0, 1, 0]], [1.0, -1.0])
        up, down = _neighbour_values(grid, slice(None), [(2, 1), (2, -1)])
        assert np.isnan(up).all() and np.isnan(down).all()
        assert len(extract_sdf(grid)) == 0
