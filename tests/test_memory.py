"""Peak memory does not grow with the neighbour count or the cloud size.

Rows of a neighbour query are independent, so every transient (row x
neighbour) array in the library is sized by one working budget,
``spatial._ENTRY_BUDGET`` entries (``spatial.chunk_rows``): the kd queries,
normal estimation, the weighted kinds (evaluated pointwise or over a grid),
the exhaustive Chamfer scan and the sensor assignment of simulated scans.  The
bound below holds for every neighbour count, up to counts larger than the
cloud, and for a brute-force Chamfer over 3,000 x 10,000 points.
"""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udfgrid import (
    DFKind, DFParams, GridSpec, PointCloud, ScanSpec, chamfer_bruteforce, compute_grid,
    estimate_normals, make_evaluator, simulate_scans,
)

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
