"""Peak memory does not grow with the neighbour count or the cloud size.

Rows of a neighbour query are independent, so every transient (row x
neighbour) array in the library is sized by one working budget,
``spatial._ENTRY_BUDGET`` entries (``spatial.chunk_rows``): the kd queries,
normal estimation, the weighted kinds (evaluated pointwise or over a grid),
the exhaustive Chamfer scan and the sensor assignment of simulated scans.  The
bound below holds for every neighbour count, up to counts larger than the
cloud, and for a brute-force Chamfer over 3,000 x 10,000 points.

An ASCII PLY read parses ``io._ASCII_ROWS`` rows at a time, so beside the
arrays it returns it holds one block of rows, not the file's text or a
Python object per value.  A binary PLY write holds one table of the cloud's
columns, and no bytes copy of it.

A grid holds 16 B per voxel, its codes and values.  The UDFG reader and
writer take ``spatial._ENTRY_BUDGET`` records at a time, so beside the grid
they hold one block of records: at 10**6 voxels the reader once peaked at
69.6 MiB, and the writer at 34.3 MiB beside the grid.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udfgrid import (
    DFKind, DFParams, GridSpec, PointCloud, ScanSpec, SparseDFGrid, chamfer_bruteforce,
    compute_grid, estimate_normals, make_evaluator, read_grid, read_ply, simulate_scans, spatial,
    write_grid, write_ply,
)
from udfgrid.io import _RECORD_DTYPE

PEAK_BOUND = 16 * 2**20


def _slab(n: int, seed: int) -> PointCloud:
    """A unit square with a little height noise, normals up."""
    rng = np.random.default_rng(seed)
    pos = np.column_stack([rng.random(n), rng.random(n), rng.random(n) * 0.01])
    return PointCloud(pos, normals=np.tile([0.0, 0.0, 1.0], (n, 1)))


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


counts = st.sampled_from([30, 300, 2000, 10**9])
sizes = st.integers(500, 2000)


class TestPeakMemoryDoesNotGrowWithK:
    @settings(max_examples=4)
    @given(k=counts, n=sizes)
    @example(k=2000, n=2000)
    def test_estimate_normals(self, k, n):
        cloud = _slab(n, seed=n)
        assert _peak(lambda: estimate_normals(cloud, k=k)) < PEAK_BOUND

    @settings(max_examples=4)
    @given(k=counts, n=sizes, kind=st.sampled_from([DFKind.UWED, DFKind.SWED]))
    @example(k=10**9, n=2000, kind=DFKind.SWED)
    def test_weighted_kinds(self, k, n, kind):
        cloud = _slab(n, seed=n)
        # 3 sigma covers the whole square, so every ball holds min(k, n) points.
        params = DFParams(sigma=0.5, max_neighbors=k)
        ev = make_evaluator(cloud, kind, params)
        queries = cloud.positions + [0.0, 0.0, 0.05]
        assert _peak(lambda: ev.batch(queries)) < PEAK_BOUND
        # Every node of this grid is a candidate; at k = 10**9 a chunk holds
        # fewer rows than one 4**3 block of nodes.
        spec = GridSpec(origin=(0.0, 0.0, 0.05), voxel_size=0.25, dims=(5, 5, 2))
        assert _peak(lambda: compute_grid(cloud, spec, kind, params)) < PEAK_BOUND


def test_simulate_scans():
    """50,000 points x 64 sensors would take 73 MiB as one difference array."""
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.random((50_000, 3)))
    scan = ScanSpec(rng.random((64, 3)) + [0.0, 0.0, 1.0])
    assert _peak(lambda: simulate_scans(cloud, scan, 7)) < PEAK_BOUND


def test_chamfer_bruteforce():
    a, b = _slab(3000, seed=1), _slab(10000, seed=2)
    assert _peak(lambda: chamfer_bruteforce(a, b)) < PEAK_BOUND


@pytest.mark.parametrize("n", [30_000, 120_000])
def test_read_ascii_ply(tmp_path, n):
    """Positions, normals and sensor origins: 72 B of arrays per row, about 180 B of text.

    The read holds the parsed values, the triples stacked from them and the
    cloud's own copies, never all three at once, plus one block.
    """
    rng = np.random.default_rng(n)
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    path = tmp_path / "c.ply"
    write_ply(PointCloud(rng.random((n, 3)), normals, rng.random((n, 3))), path, binary=False)
    assert _peak(lambda: read_ply(path)) < 3 * 72 * n + PEAK_BOUND


def test_write_binary_ply(tmp_path):
    """100,000 rows with normals and sensor origins: a 6.9 MiB table, which the
    write once held twice (its ``tobytes()`` copy too)."""
    n = 100_000
    rng = np.random.default_rng(n)
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cloud = PointCloud(rng.random((n, 3)), normals, rng.random((n, 3)))
    assert _peak(lambda: write_ply(cloud, tmp_path / "c.ply")) < 1.2 * 72 * n


VOXELS = 10**6
GRID_BYTES = 16 * VOXELS
BLOCK_BYTES = spatial._ENTRY_BUDGET * _RECORD_DTYPE.itemsize


def _million_voxels(kind: DFKind, flipped: bool) -> tuple:
    """Every eighth node of a 200**3 lattice: the arguments of a 10**6-voxel grid,
    its values float32 so that a file holds them as they are."""
    spec = GridSpec((0.0, 0.0, 0.0), 0.1, (200, 200, 200))
    idx = np.stack(np.unravel_index(np.arange(VOXELS) * 8, spec.dims), axis=1)
    v = np.random.default_rng(7).uniform(0.01, 2.99, VOXELS).astype(np.float32).astype(np.float64)
    if kind.signed:
        v[::2] *= -1.0
    return spec, kind, flipped, idx, v


@pytest.mark.parametrize("kind, flipped", [(DFKind.UED, False), (DFKind.SED, True)])
class TestMillionVoxelGrid:
    def test_a_grid_holds_16_bytes_per_voxel(self, kind, flipped):
        """It keeps its own codes and values, and no (N, 3) indices."""
        args = _million_voxels(kind, flipped)
        tracemalloc.start()
        try:
            grid = SparseDFGrid(*args)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert GRID_BYTES <= held < GRID_BYTES + 2**12
        assert len(grid) == VOXELS

    def test_read_and_write_grid(self, kind, flipped, tmp_path):
        """A read peaks at 1.2x its arrays plus one block, and holds 16 B per voxel
        after; a write, counting the grid it writes, at 1.2x the grid plus one block."""
        path = tmp_path / "g.udfg"
        write_grid(SparseDFGrid(*_million_voxels(kind, flipped)), path)
        tracemalloc.start()
        try:
            grid = read_grid(path)
            held, read_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            write_grid(grid, path)
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < GRID_BYTES + 2**12
        assert read_peak < 1.2 * GRID_BYTES + BLOCK_BYTES
        assert write_peak < 1.2 * GRID_BYTES + BLOCK_BYTES
