"""Tests for the accelerated spatial queries against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import brute_knn, brute_nearest, brute_radius
from udfgrid import (
    ContractError,
    EmptyCloudError,
    PointCloud,
    SpatialIndex,
    build_index,
    chamfer,
    chamfer_bruteforce,
    get_num_threads,
    knn,
    nearest,
    radius_query,
    set_num_threads,
)
from udfgrid import spatial
from udfgrid.spatial import (
    canonical_distance,
    capped_ball_batch,
    knn_batch,
    nearest_batch,
    radius_query_batch,
)


class TestCanonicalDistance:
    def test_formula(self):
        a = np.array([[1.0, 2.0, 3.0]])
        b = np.array([[4.0, 6.0, 3.0]])
        np.testing.assert_array_equal(canonical_distance(a, b), [5.0])

    def test_matches_oracle_bitwise(self):
        """Accelerated paths recompute with this exact float64 expression."""
        rng = np.random.default_rng(42)
        a = rng.random((100, 3))
        b = rng.random((100, 3))
        d = a - b
        expect = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
        np.testing.assert_array_equal(canonical_distance(a, b), expect)


class TestIndexConstruction:
    def test_empty_rejected(self):
        with pytest.raises(EmptyCloudError):
            SpatialIndex(np.empty((0, 3)))

    def test_build_index_accepts_cloud_and_array(self):
        rng = np.random.default_rng(42)
        pos = rng.random((10, 3))
        assert len(build_index(PointCloud(pos))) == 10
        assert len(build_index(pos)) == 10


class TestNearest:
    def test_single(self):
        idx = build_index(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        i, d = nearest(idx, (0.9, 0.0, 0.0))
        assert i == 1
        np.testing.assert_allclose(d, 0.1)

    def test_tie_takes_lowest_id(self):
        idx = build_index(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        i, _ = nearest(idx, (0.5, 0.0, 0.0))
        assert i == 0

    def test_batch_matches_brute(self):
        rng = np.random.default_rng(42)
        pts = rng.random((300, 3))
        idx = build_index(pts)
        q = rng.random((50, 3)) * 1.2 - 0.1
        ids, dists = nearest_batch(idx, q)
        for row in range(len(q)):
            bi, bd = brute_nearest(pts, q[row])
            assert ids[row] == bi
            assert dists[row] == bd  # identical formula, identical bits


class TestKnn:
    def test_ordered_by_distance_then_id(self):
        pts = np.array([
            [0.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
        ])
        idx = build_index(pts)
        got = knn(idx, (0.0, 0.0, 0.0), 3)
        assert [i for i, _ in got] == [0, 2, 3]  # ids 2 and 3 tie at d=1

    def test_k_larger_than_cloud(self):
        idx = build_index(np.zeros((2, 3)) + [[0, 0, 0], [1, 0, 0]])
        assert len(knn(idx, (0.0, 0.0, 0.0), 10)) == 2

    def test_k_below_one_rejected(self):
        idx = build_index(np.ones((3, 3)))
        with pytest.raises(ContractError):
            knn(idx, (0.0, 0.0, 0.0), 0)

    def test_batch_matches_brute(self):
        rng = np.random.default_rng(42)
        pts = rng.random((200, 3))
        idx = build_index(pts)
        q = rng.random((30, 3))
        ids, dists, lens = knn_batch(idx, q, 7)
        assert lens.sum() == len(ids) == len(dists)
        off = 0
        for row in range(len(q)):
            seg = list(zip(ids[off:off + lens[row]], dists[off:off + lens[row]]))
            off += lens[row]
            expect = brute_knn(pts, q[row], 7)
            assert [i for i, _ in seg] == [i for i, _ in expect]
            np.testing.assert_array_equal(
                [d for _, d in seg], [d for _, d in expect]
            )


class TestRadiusQuery:
    def test_boundary_inclusive(self):
        idx = build_index(np.array([[0.5, 0.0, 0.0], [0.75, 0.0, 0.0]]))
        got = radius_query(idx, (0.0, 0.0, 0.0), 0.5)
        assert got == [(0, 0.5)]

    def test_empty_result(self):
        idx = build_index(np.array([[0.0, 0.0, 0.0]]))
        assert radius_query(idx, (0.0, 0.0, 2.0), 1.0) == []

    def test_radius_must_be_positive(self):
        idx = build_index(np.ones((2, 3)))
        with pytest.raises(ContractError):
            radius_query(idx, (0.0, 0.0, 0.0), 0.0)

    def test_sorted_by_id(self):
        rng = np.random.default_rng(42)
        pts = rng.random((100, 3)) * 0.2
        idx = build_index(pts)
        got = radius_query(idx, (0.1, 0.1, 0.1), 0.3)
        ids = [i for i, _ in got]
        assert ids == sorted(ids)

    def test_batch_with_empty_rows(self):
        rng = np.random.default_rng(42)
        pts = rng.random((50, 3))
        idx = build_index(pts)
        q = np.array([[0.5, 0.5, 0.5], [9.0, 9.0, 9.0], [8.0, 8.0, 8.0]])
        ids, dists, lens = radius_query_batch(idx, q, 0.4)
        assert lens[1] == 0 and lens[2] == 0
        assert lens.sum() == len(ids)

    def test_batch_matches_brute(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            pts = rng.random((int(rng.integers(1, 200)), 3))
            idx = build_index(pts)
            q = rng.random((10, 3)) * 1.4 - 0.2
            r = float(rng.uniform(0.05, 0.6))
            ids, dists, lens = radius_query_batch(idx, q, r)
            off = 0
            for row in range(len(q)):
                seg = list(zip(ids[off:off + lens[row]], dists[off:off + lens[row]]))
                off += lens[row]
                assert seg == brute_radius(pts, q[row], r)


class TestCappedBall:
    def test_cap_not_binding_equals_radius_query(self):
        rng = np.random.default_rng(42)
        pts = rng.random((80, 3))
        idx = build_index(pts)
        q = rng.random((15, 3))
        fi, fd, lens = capped_ball_batch(idx, q, 0.3, 1000)
        ri, rd, rlens = radius_query_batch(idx, q, 0.3)
        np.testing.assert_array_equal(lens, rlens)
        np.testing.assert_array_equal(fi, ri)
        np.testing.assert_array_equal(fd, rd)

    def test_cap_keeps_nearest_by_distance(self):
        pts = np.array([
            [0.3, 0.0, 0.0],
            [0.1, 0.0, 0.0],
            [0.2, 0.0, 0.0],
            [0.4, 0.0, 0.0],
        ])
        idx = build_index(pts)
        fi, fd, lens = capped_ball_batch(idx, np.zeros((1, 3)), 1.0, 2)
        assert lens[0] == 2
        assert sorted(fi.tolist()) == [1, 2]  # the two closest points

    def test_cap_tie_takes_lowest_id(self):
        pts = np.array([
            [0.5, 0.0, 0.0],
            [0.0, 0.5, 0.0],
            [0.0, 0.0, 0.5],
        ])
        idx = build_index(pts)
        fi, _, lens = capped_ball_batch(idx, np.zeros((1, 3)), 1.0, 2)
        assert lens[0] == 2
        assert sorted(fi.tolist()) == [0, 1]

    def test_segments_sorted_by_id(self):
        rng = np.random.default_rng(42)
        pts = rng.random((500, 3)) * 0.3
        idx = build_index(pts)
        q = rng.random((20, 3)) * 0.3
        fi, _, lens = capped_ball_batch(idx, q, 0.2, 12)
        off = 0
        for row in range(len(q)):
            seg = fi[off:off + lens[row]]
            off += lens[row]
            assert (np.diff(seg) > 0).all()

    def test_matches_brute_selection(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            pts = rng.random((int(rng.integers(5, 300)), 3)) * 0.5
            idx = build_index(pts)
            q = rng.random((8, 3)) * 0.5
            r = float(rng.uniform(0.1, 0.4))
            cap = int(rng.integers(1, 20))
            fi, fd, lens = capped_ball_batch(idx, q, r, cap)
            off = 0
            for row in range(len(q)):
                seg = set(fi[off:off + lens[row]].tolist())
                off += lens[row]
                inside = brute_radius(pts, q[row], r)
                want = sorted(inside, key=lambda t: (t[1], t[0]))[:cap]
                assert seg == {i for i, _ in want}

    def test_validation(self):
        idx = build_index(np.ones((3, 3)))
        with pytest.raises(ContractError):
            capped_ball_batch(idx, np.zeros((1, 3)), 0.0, 5)
        with pytest.raises(ContractError):
            capped_ball_batch(idx, np.zeros((1, 3)), 1.0, 0)


class TestThreadControl:
    def test_set_and_get(self):
        before = get_num_threads()
        try:
            set_num_threads(2)
            assert get_num_threads() == 2
        finally:
            set_num_threads(None if before == -1 else before)

    @pytest.mark.parametrize("bad", [0, -2, -5])
    def test_invalid_count_rejected(self, bad, monkeypatch):
        monkeypatch.setattr(spatial, "_num_threads", 3)
        with pytest.raises(ContractError):
            set_num_threads(bad)
        assert get_num_threads() == 3

    def test_non_integer_environment_rejected(self, monkeypatch):
        monkeypatch.setattr(spatial, "_num_threads", -1)
        monkeypatch.setenv("UDFGRID_THREADS", "abc")
        with pytest.raises(ContractError, match="UDFGRID_THREADS"):
            get_num_threads()

    def test_results_independent_of_threads(self):
        rng = np.random.default_rng(42)
        pts = rng.random((400, 3))
        idx = build_index(pts)
        q = rng.random((60, 3))
        try:
            set_num_threads(1)
            a = knn_batch(idx, q, 9)
            set_num_threads(4)
            b = knn_batch(idx, q, 9)
        finally:
            set_num_threads(None)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


# -- properties on grid-snapped clouds ----------------------------------------
#
# Integer lattice coordinates times 0.1, duplicates allowed: many points sit
# at exactly the same canonical distance from a query, so ties land on the
# k-th slot and, with r taken from an actual point-query distance, on the
# ball boundary.

lattice = arrays(
    np.int64, st.tuples(st.integers(1, 120), st.just(3)), elements=st.integers(-2, 2)
).map(lambda a: a * 0.1)


def _segments(ids, dists, lens):
    ends = np.cumsum(lens)
    return [
        list(zip(ids[e - n:e].tolist(), dists[e - n:e].tolist()))
        for e, n in zip(ends, lens)
    ]


class TestLatticeProperties:
    @given(lattice, lattice)
    def test_nearest_matches_brute(self, pts, q):
        ids, dists = nearest_batch(build_index(pts), q)
        assert list(zip(ids.tolist(), dists.tolist())) == [brute_nearest(pts, x) for x in q]

    @given(lattice, lattice, st.integers(1, 130))
    def test_knn_matches_brute(self, pts, q, k):
        got = _segments(*knn_batch(build_index(pts), q, k))
        assert got == [brute_knn(pts, x, k) for x in q]

    @given(lattice, lattice, st.integers(1, 130), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_capped_ball_matches_brute(self, pts, q, cap, i, j):
        r = float(canonical_distance(pts[i % len(pts)], q[j % len(q)])) or 0.1
        got = _segments(*capped_ball_batch(build_index(pts), q, r, cap))
        want = [
            sorted(sorted(brute_radius(pts, x, r), key=lambda t: (t[1], t[0]))[:cap])
            for x in q
        ]
        assert got == want

    @given(lattice, lattice)
    def test_chamfer_matches_bruteforce(self, a, b):
        assert chamfer(PointCloud(a), PointCloud(b)) == chamfer_bruteforce(
            PointCloud(a), PointCloud(b)
        )
