"""Peak memory of the neighbour-count knobs does not grow with the count.

Rows of a neighbour query are independent, so ``spatial`` splits them into
chunks whose rows x neighbours stay under one entry budget; normal
estimation and the weighted kinds chunk their own per-row work the same
way.  The bound below holds for every neighbour count, up to counts larger
than the cloud.
"""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udfgrid import DFKind, DFParams, PointCloud, estimate_normals, make_evaluator

PEAK_BOUND = 128 * 2**20


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
        ev = make_evaluator(cloud, kind, DFParams(sigma=0.5, max_neighbors=k))
        queries = cloud.positions + [0.0, 0.0, 0.05]
        assert _peak(lambda: ev.batch(queries)) < PEAK_BOUND
