"""Tests for the accelerated spatial queries against brute-force oracles."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import brute_knn, brute_nearest, brute_neighbours, brute_radius, spy_builds
from udfgrid import (
    ContractError,
    EmptyCloudError,
    MissingDataError,
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
from udfgrid.core import MIN_LENGTH
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

    @pytest.mark.parametrize("swap", [False, True])
    def test_complex_points_rejected(self, swap):
        """A cast to float64 dropped the imaginary part: this read 0.0."""
        a, b = np.array([1 + 5j, 0, 0]), np.array([1, 0, 0])
        with pytest.raises(ContractError, match="real numbers"):
            canonical_distance(*((b, a) if swap else (a, b)))


class TestIndexConstruction:
    def test_empty_rejected(self):
        with pytest.raises(EmptyCloudError):
            SpatialIndex(np.empty((0, 3)))

    def test_build_index_accepts_cloud_and_array(self):
        rng = np.random.default_rng(42)
        pos = rng.random((10, 3))
        assert len(build_index(PointCloud(pos))) == 10
        assert len(build_index(pos)) == 10


class TestSupport:
    """``spatial.support`` makes each of a cloud's supports once and keeps it."""

    def _cloud(self, nan_every=3):
        rng = np.random.default_rng(7)
        nrm = np.tile([0.0, 0.0, 1.0], (40, 1))
        if nan_every:
            nrm[::nan_every] = np.nan
        return PointCloud(rng.random((40, 3)), normals=nrm)

    def test_kept_once_built(self, monkeypatch):
        cloud, built = self._cloud(), spy_builds(monkeypatch)
        whole, valid = spatial.support(cloud), spatial.support(cloud, normals=True)
        assert spatial.support(cloud) is whole
        assert spatial.support(cloud, normals=True) is valid
        assert len(built) == 2 and built[0] is cloud.positions
        assert whole[0] is cloud.positions and whole[1] is cloud.normals
        keep = np.arange(40) % 3 != 0
        np.testing.assert_array_equal(valid[0], cloud.positions[keep])
        np.testing.assert_array_equal(valid[1], cloud.normals[keep])
        assert len(valid[2]) == keep.sum() and spatial.kept_index(cloud) is whole[2]

    def test_one_support_when_every_normal_is_valid(self, monkeypatch):
        cloud, built = self._cloud(nan_every=None), spy_builds(monkeypatch)
        assert spatial.support(cloud, normals=True) is spatial.support(cloud)
        assert len(built) == 1

    def test_empty_support_builds_nothing(self, monkeypatch):
        cloud, built = self._cloud(nan_every=1), spy_builds(monkeypatch)
        positions, normals, index = spatial.support(cloud, normals=True)
        assert positions.shape == normals.shape == (0, 3) and index is None
        assert built == [] and spatial.kept_index(cloud) is None

    def test_an_index_held_is_handed_on(self, monkeypatch):
        cloud = self._cloud()
        index = build_index(cloud.positions)
        built = spy_builds(monkeypatch)
        assert spatial.support(cloud, index=index)[2] is index
        assert built == []

    def test_chamfer_keeps_none(self, monkeypatch):
        """An unkept cloud gets a throw-away index per score; a kept one serves every score."""
        cloud, built = self._cloud(), spy_builds(monkeypatch)
        other = PointCloud(cloud.positions[:5] + 0.01)
        first = chamfer(other, cloud)
        assert chamfer(other, cloud) == first and len(built) == 4
        assert spatial.kept_index(cloud) is None and spatial.kept_index(other) is None
        whole = spatial.support(cloud)
        assert chamfer(other, cloud) == first and len(built) == 6
        assert spatial.kept_index(cloud) is whole[2] and spatial.kept_index(other) is None

    def test_refusals(self):
        with pytest.raises(ContractError, match="cloud must be a PointCloud, got ndarray"):
            spatial.support(np.zeros((4, 3)))
        with pytest.raises(MissingDataError):
            spatial.support(PointCloud(np.zeros((4, 3))), normals=True)


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

    def test_bounded(self):
        idx = build_index(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
        q = np.array([[0.5, 0.0, 0.0], [2.0, 0.0, 0.0], [1.25, 0.0, 0.0], [9.0, 0.0, 0.0]])
        ids, dists = nearest_batch(idx, q, r=0.5)
        # Row 0: a tie on the boundary goes to the lowest id; row 1 has two
        # points at exactly 1.0, beyond r; row 3 is far from every point.
        assert ids.tolist() == [0, 3, 1, 3]
        assert dists.tolist() == [0.5, np.inf, 0.25, np.inf]

    def test_smallest_bound_finds_a_point_at_distance_zero(self):
        """Below about 1.4e-162 the kd bound's square was 0: no point, not even at distance 0."""
        idx = build_index(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        ids, dists = nearest_batch(idx, [[0.0, 0.0, 0.0]], r=MIN_LENGTH)
        assert (ids.tolist(), dists.tolist()) == ([0], [0.0])
        ids, dists, lens = capped_ball_batch(idx, [[0.0, 0.0, 0.0]], MIN_LENGTH, 2)
        assert (ids.tolist(), dists.tolist(), lens.tolist()) == ([0], [0.0], [1])
        with pytest.raises(ContractError, match="MIN_LENGTH"):
            nearest_batch(idx, [[0.0, 0.0, 0.0]], r=1e-162)

    @pytest.mark.parametrize("r", [0.0, -1.0, float("nan")])
    def test_bound_must_be_positive(self, r):
        idx = build_index(np.zeros((1, 3)))
        with pytest.raises(ContractError):
            nearest_batch(idx, np.zeros((1, 3)), r=r)


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

    def test_kd_ties_out_of_id_order_are_sorted(self):
        """The kd query returns a cube's 8 tied corners with id 0 last; the kernel sorts them."""
        axis = np.array([1.0, 2.0])
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        centre = np.array([[1.5, 1.5, 1.5]])
        index = build_index(pts)
        kd_dists, kd_ids = index.tree.query(centre, k=8)
        assert len(set(kd_dists[0].tolist())) == 1 and (np.diff(kd_ids[0]) < 0).any()
        for r in (None, 1.0):
            ids, dists = spatial._exact_neighbours(index, centre, 8, r)
            assert ids.tolist() == [list(range(8))]
            assert (dists == canonical_distance(pts[0], centre[0])).all()

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

    def test_margin_points_lie_beyond_r(self):
        """The kd query's bound has a 1e-9 margin; what it admits beyond r is padding."""
        x = 0.5 + 1e-12
        idx = build_index(np.array([[x, 0.0, 0.0], [5.0, 5.0, 5.0]]))
        q = np.array([[0.0, 0.0, 0.0], [x, 0.5, 0.0]])  # distances x and exactly 0.5
        ids, dists = nearest_batch(idx, q, r=0.5)
        assert ids.tolist() == [2, 0] and dists.tolist() == [np.inf, 0.5]
        fi, fd, lens = capped_ball_batch(idx, q, 0.5, 2)
        assert fi.tolist() == [0] and fd.tolist() == [0.5] and lens.tolist() == [0, 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_distances_are_the_norm_of_x_minus_p(self, seed):
        """The weighted kinds sum these distances as if from ``canonical_norm`` of x - p."""
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-6, 6)
        pts = (rng.random((400, 3)) + rng.normal(size=3)) * scale
        q = pts[:60] + rng.normal(size=(60, 3)) * 0.05 * scale
        ids, dists, lens = capped_ball_batch(build_index(pts), q, 0.2 * scale, 30)
        assert lens.sum() > 0
        assert dists.tobytes() == _norm_of_x_minus_p(pts, q, ids, lens).tobytes()

    def test_validation(self):
        idx = build_index(np.ones((3, 3)))
        with pytest.raises(ContractError):
            capped_ball_batch(idx, np.zeros((1, 3)), 0.0, 5)
        with pytest.raises(ContractError):
            capped_ball_batch(idx, np.zeros((1, 3)), 1.0, 0)


class TestArguments:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_index_points_beyond_the_bound(self, bad):
        pts = np.zeros((3, 3))
        pts[1, 2] = bad
        with pytest.raises(ContractError, match="finite"):
            build_index(pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_query_points_beyond_the_bound(self, bad):
        """NaN and inf leaked scipy's ValueError; 1e200 overflowed the squares."""
        idx = build_index(np.zeros((2, 3)))
        q = (0.0, bad, 0.0)
        calls = [
            lambda: nearest(idx, q),
            lambda: knn(idx, q, 2),
            lambda: radius_query(idx, q, 1.0),
            lambda: nearest_batch(idx, [q], r=1.0),
            lambda: capped_ball_batch(idx, [q], 1.0, 2),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ContractError, match="finite"):
                    call()

    @pytest.mark.parametrize("shape", [(2, 2), (4,), (2, 3, 3)])
    def test_query_shape(self, shape):
        idx = build_index(np.zeros((2, 3)))
        q = np.zeros(shape)
        for call in (nearest_batch, radius_query_batch, nearest):
            with pytest.raises(ContractError, match="shape"):
                call(idx, q) if call is not radius_query_batch else call(idx, q, 1.0)
        with pytest.raises(ContractError, match="shape"):
            build_index(q)

    @pytest.mark.parametrize("bad", [1.5, "2"])
    def test_counts_are_integers(self, bad):
        """k = 1.5 raised a TypeError from the row chunking."""
        idx = build_index(np.zeros((2, 3)))
        with pytest.raises(ContractError, match="k must"):
            knn(idx, (0.0, 0.0, 0.0), bad)
        with pytest.raises(ContractError, match="cap must"):
            capped_ball_batch(idx, np.zeros((1, 3)), 1.0, bad)


    @pytest.mark.parametrize("query", [
        lambda index: nearest(index, (0.0, 0.0, 0.0)),
        lambda index: nearest_batch(index, np.zeros((2, 3))),
        lambda index: knn(index, (0.0, 0.0, 0.0), 2),
        lambda index: knn_batch(index, np.zeros((2, 3)), 2),
        lambda index: radius_query(index, (0.0, 0.0, 0.0), 1.0),
        lambda index: radius_query_batch(index, np.zeros((2, 3)), 1.0),
        lambda index: capped_ball_batch(index, np.zeros((2, 3)), 1.0, 2),
    ], ids=["nearest", "nearest_batch", "knn", "knn_batch", "radius_query",
            "radius_query_batch", "capped_ball_batch"])
    def test_index_must_be_a_spatial_index(self, query):
        """``{}`` raised ZeroDivisionError from ``chunk_rows(0)``, or AttributeError."""
        for bad in ({}, None, np.zeros((2, 3)), PointCloud(np.zeros((2, 3)))):
            with pytest.raises(ContractError, match="SpatialIndex"):
                query(bad)


class _QueryLog:
    """A kd-tree stand-in that offers only ``query`` and records each width."""

    def __init__(self, tree):
        self.tree, self.widths = tree, []

    def query(self, q, k, **kwargs):
        self.widths.append(k)
        return self.tree.query(q, k=k, **kwargs)


class TestWidening:
    """Rows whose last kd neighbour ties the k-th are asked again at twice the width."""

    @pytest.mark.parametrize("k, alone, lattice", [
        (1, [2, 4, 8], [2, 4, 8, 16]),  # alone, the third width is the whole cloud
        (2, [3, 6, 8], [3, 6, 12]),
        (8, [8], [9]),
    ])
    @pytest.mark.parametrize("in_lattice", [False, True])
    def test_cube_centre(self, k, alone, lattice, in_lattice):
        """The centre of a unit cube is equally far from its 8 corners."""
        axis = np.arange(4.0) if in_lattice else np.array([1.0, 2.0])
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        pts = pts[np.random.default_rng(42).permutation(len(pts))]
        centre = np.array([[1.5, 1.5, 1.5]])
        index = build_index(pts)
        index.tree = _QueryLog(index.tree)
        got = _segments(*knn_batch(index, centre, k))
        assert got == [brute_knn(pts, centre[0], k)]
        assert index.tree.widths == (lattice if in_lattice else alone)
        r = brute_knn(pts, centre[0], 1)[0][1]
        want = sorted(sorted(brute_radius(pts, centre[0], r), key=lambda t: (t[1], t[0]))[:k])
        assert _segments(*capped_ball_batch(index, centre, r, k)) == [want]
        ids, dists = nearest_batch(index, centre, r=r)
        assert list(zip(ids.tolist(), dists.tolist())) == [brute_nearest(pts, centre[0])]


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

    @pytest.mark.parametrize("bad", [2.5, 2.0, -1.0, True, "2"])
    def test_non_integer_count_rejected(self, bad, monkeypatch):
        """2.5 is not truncated to 2, and neither floats nor bools count as integers."""
        monkeypatch.setattr(spatial, "_num_threads", 3)
        with pytest.raises(ContractError, match="thread count"):
            set_num_threads(bad)
        assert get_num_threads() == 3

    def test_numpy_integer_count_accepted(self, monkeypatch):
        monkeypatch.setattr(spatial, "_num_threads", 3)
        set_num_threads(np.int64(2))
        assert get_num_threads() == 2 and type(spatial._num_threads) is int

    def test_non_integer_environment_rejected(self, monkeypatch):
        monkeypatch.setattr(spatial, "_num_threads", -1)
        monkeypatch.setenv("UDFGRID_THREADS", "abc")
        with pytest.raises(ContractError, match="UDFGRID_THREADS"):
            get_num_threads()

    @pytest.mark.parametrize("env", ["0", "-2", "-5"])
    def test_out_of_range_environment_rejected(self, env, monkeypatch):
        monkeypatch.setattr(spatial, "_num_threads", -1)
        monkeypatch.setenv("UDFGRID_THREADS", env)
        with pytest.raises(ContractError, match="UDFGRID_THREADS"):
            get_num_threads()

    @pytest.mark.parametrize("env, expected", [("-1", -1), ("1", 1), ("3", 3)])
    def test_environment_follows_the_threads_rule(self, env, expected, monkeypatch):
        monkeypatch.setattr(spatial, "_num_threads", -1)
        monkeypatch.setenv("UDFGRID_THREADS", env)
        assert get_num_threads() == expected

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


def _norm_of_x_minus_p(pts, q, ids, lens):
    """``canonical_norm`` of each query row minus its ball's points, as ``dfield`` takes it."""
    diff = np.repeat(q, lens, axis=0) - pts[ids]
    return spatial.canonical_norm(*diff.T)


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

    @given(lattice, lattice, st.integers(1, 130), st.integers(0, 10**6), st.integers(0, 10**6))
    # Every point ties with every other, so each row widens up to the whole cloud.
    @example(pts=np.full((40, 3), 0.1), q=np.zeros((3, 3)), cap=3, i=0, j=0)
    def test_capped_ball_distances_are_the_norm_of_x_minus_p(self, pts, q, cap, i, j):
        r = float(canonical_distance(pts[i % len(pts)], q[j % len(q)])) or 0.1
        ids, dists, lens = capped_ball_batch(build_index(pts), q, r, cap)
        assert dists.tobytes() == _norm_of_x_minus_p(pts, q, ids, lens).tobytes()

    @given(lattice, lattice, st.integers(0, 10**6), st.integers(0, 10**6))
    def test_bounded_nearest_matches_unbounded(self, pts, q, i, j):
        # r is an actual point-query distance, so some rows sit on the boundary.
        r = float(canonical_distance(pts[i % len(pts)], q[j % len(q)])) or 0.1
        index = build_index(pts)
        ids, dists = nearest_batch(index, q, r=r)
        all_ids, all_dists = nearest_batch(index, q)
        within = all_dists <= r
        np.testing.assert_array_equal(ids[within], all_ids[within])
        np.testing.assert_array_equal(dists[within], all_dists[within])
        assert (ids[~within] == len(pts)).all()
        assert np.isinf(dists[~within]).all()

    @settings(max_examples=40)
    @given(lattice, lattice, st.integers(1, 130), st.integers(1, 40))
    # Every point ties with every other, so each row widens up to the whole
    # cloud, one row per chunk.
    @example(pts=np.full((40, 3), 0.1), q=np.zeros((3, 3)), k=3, budget=1)
    def test_row_chunks_give_the_same_bits(self, pts, q, k, budget):
        index = build_index(pts)
        r = float(canonical_distance(pts[0], q[0])) or 0.1
        runs = []
        original = spatial._ENTRY_BUDGET
        try:
            # A large budget, the working one, and as small as one row per chunk.
            for size in (2**20, original, budget):
                spatial._ENTRY_BUDGET = size
                runs.append((knn_batch(index, q, k), capped_ball_batch(index, q, r, k),
                             nearest_batch(index, q), nearest_batch(index, q, r=r),
                             [chamfer_bruteforce(PointCloud(pts), PointCloud(q))]))
        finally:
            spatial._ENTRY_BUDGET = original
        for split in runs[1:]:
            for a, b in zip(runs[0], split):
                for x, y in zip(a, b):
                    np.testing.assert_array_equal(x, y)

    @settings(max_examples=40)
    @given(lattice, lattice, st.integers(1, 130), st.integers(0, 10**6), st.integers(0, 10**6),
           st.integers(1, 40))
    @example(pts=np.full((40, 3), 0.1), q=np.zeros((3, 3)), k=3, i=0, j=0, budget=1)
    def test_kernel_matches_a_full_sort(self, pts, q, k, i, j, budget):
        """``_exact_neighbours`` equals a full (distance, id) sort of every row.

        Nearest (k = 1) and k nearest, unbounded and bounded by an actual
        point-query distance, at the working budget and as few as one row
        per chunk: the rows the kernel leaves unsorted were in order.
        """
        index = build_index(pts)
        r = float(canonical_distance(pts[i % len(pts)], q[j % len(q)])) or 0.1
        original = spatial._ENTRY_BUDGET
        try:
            for size in (2**16, budget):
                spatial._ENTRY_BUDGET = size
                for kk, bound in itertools.product((1, k), (None, r)):
                    ids, dists = spatial._exact_neighbours(index, q, kk, bound)
                    want_ids, want_dists = brute_neighbours(pts, q, kk, bound)
                    np.testing.assert_array_equal(ids, want_ids)
                    np.testing.assert_array_equal(dists, want_dists)
        finally:
            spatial._ENTRY_BUDGET = original

    @given(lattice, lattice)
    def test_chamfer_matches_bruteforce(self, a, b):
        assert chamfer(PointCloud(a), PointCloud(b)) == chamfer_bruteforce(
            PointCloud(a), PointCloud(b)
        )
