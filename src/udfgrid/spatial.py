"""Spatial queries over a point cloud: nearest, k-nearest, fixed radius.

Wraps a kd-tree but pins down the parts a kd-tree leaves loose, so results
are reproducible and match a brute-force scan exactly:

- every returned distance is recomputed with one canonical formula,
  ``sqrt(dx*dx + dy*dy + dz*dz)`` in float64, summed in that order; the
  exact kernel gathers each coordinate from its own column;
- exact distance ties break toward the lowest point id;
- radius queries are boundary-inclusive (distance == r is returned).

Nearest, k-nearest and capped-ball selection share one mechanism, a kd
query for more than k neighbours, bounded by r plus a 1e-9 relative margin,
whose canonical distances are recomputed and whose rows are ordered by
(distance, id); an unbounded query is the bounded one at r = inf.  The kd
query orders a row by its own distances, so most rows arrive in that order
already: only the rows with an adjacent pair out of (distance, id) order
are sorted.  A point the kd query left out is at least as far as the last
one it returned, so a row is exact unless its last distance lies within
the margin of its k-th.  Only such rows are asked again, at twice the
width, until the width covers the whole cloud.

``support`` owns what is derived from a cloud: its whole and valid-normal
supports, each (positions, normals, kd index) made once, and ``dfield``'s one
neighbourhood entry, kept in one private mapping on the cloud that no other
module reads or writes.  So normal estimation, every ``compute_grid`` and
``evaluate`` over a cloud, and ``chamfer`` against it share one tree, built
by one ``build_index`` call; ``chamfer`` keeps none of its own.

Index points and query rows pass ``core.as_rows``, counts ``core.as_count``
and radii ``core.as_length``: (M, 3) arrays or one (3,) point of coordinates
within ``core.MAX_COORD``, integers >= 1, and lengths in [MIN_LENGTH, MAX_COORD].
A query's index must be a ``SpatialIndex``.  Anything else raises ContractError.
Rows are independent, so a query whose rows x width entries would exceed
the working budget ``_ENTRY_BUDGET`` runs in row chunks under it: peak
memory then does not grow with k, and the results are the same bits.  The
library sizes every transient (row x neighbour) array by this one budget,
through ``chunk_rows``: the kd gathers here, the PCA neighbourhoods in
``normals``, the capped balls of the weighted kinds in ``dfield`` and the
exhaustive scan of ``evaluation.chamfer_bruteforce``.
"""

from __future__ import annotations

import itertools
import os

import numpy as np
from scipy.spatial import cKDTree

from .core import PointCloud, _as_real, as_count, as_instance, as_length, as_rows
from .errors import ContractError, EmptyCloudError, MissingDataError

_RADIUS_MARGIN = 1e-9
# Most (row, neighbour) entries materialised at a time: 0.5 MiB per float64 array.
_ENTRY_BUDGET = 2**16

_num_threads = -1


def set_num_threads(n: int | None) -> None:
    """Cap query parallelism; -1 or None means all available cores.

    Thread count never changes results, only speed: parallelism is over
    independent query rows.  Anything but -1 or an integer n >= 1 (not a
    bool, not 2.0) raises ContractError.
    """
    global _num_threads
    n = -1 if n is None else as_count(n, "thread count", least=-1)
    if n == 0:
        raise ContractError("thread count must be -1 or an integer >= 1, got 0")
    _num_threads = n


def get_num_threads() -> int:
    """The set cap, else UDFGRID_THREADS, else -1 (all cores).

    UDFGRID_THREADS follows the ``--threads`` rule: -1 means all cores and
    n >= 1 means n; anything else raises ContractError naming it.
    """
    if _num_threads == -1:
        env = os.environ.get("UDFGRID_THREADS")
        if env:
            try:
                n = int(env)
            except ValueError:
                n = 0
            if n < 1 and n != -1:
                raise ContractError(f"UDFGRID_THREADS must be -1 or an integer >= 1, got {env!r}")
            return n
    return _num_threads


def canonical_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance with a fixed summation order (x, then y, then z).

    ``a`` and ``b`` are real (``core._as_real``): a complex argument raises
    ContractError instead of losing its imaginary part.
    """
    a = _as_real(a, "a").astype(np.float64, copy=False)
    b = _as_real(b, "b").astype(np.float64, copy=False)
    return canonical_norm(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1], a[..., 2] - b[..., 2])


def canonical_norm(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Length of the difference (dx, dy, dz), summed x, then y, then z."""
    return np.sqrt(dx * dx + dy * dy + dz * dz)


class SpatialIndex:
    """Immutable search structure over a cloud's positions."""

    def __init__(self, positions: np.ndarray):
        positions = as_rows(positions, "index points")
        if len(positions) == 0:
            raise EmptyCloudError("cannot build a spatial index over an empty cloud")
        self.positions = positions
        self.tree = cKDTree(positions)

    def __len__(self) -> int:
        return len(self.positions)


def build_index(cloud: PointCloud | np.ndarray) -> SpatialIndex:
    """Build an index over a cloud (or raw (N, 3) position array)."""
    return SpatialIndex(cloud.positions if isinstance(cloud, PointCloud) else cloud)


def support(cloud: PointCloud, normals: bool = False, index: SpatialIndex | None = None) -> tuple:
    """(positions, normals, kd index) of ``cloud``, or with ``normals`` of its valid-normal points.

    Each is made once and kept on the cloud, which is immutable, so it cannot
    go stale; the two are one object when every normal is valid.  An empty
    support has index None and builds nothing.  ``index``, one over the
    cloud's positions that the caller holds, spares the whole support a
    build.  Threads that miss at once each build one, all alike.
    """
    kept = _kept(cloud)
    name = "normals" if normals else "whole"
    if name not in kept:
        if not normals:
            index = build_index(cloud.positions) if index is None else index
            kept[name] = (cloud.positions, cloud.normals, index)
        elif cloud.normals is None:
            raise MissingDataError("a kind that reads normals needs a cloud with oriented normals")
        elif (valid := ~np.isnan(cloud.normals).any(axis=1)).all():
            kept[name] = support(cloud, index=index)
        else:
            pos = cloud.positions[valid]
            kept[name] = (pos, cloud.normals[valid], build_index(pos) if len(pos) else None)
    return kept[name]


def kept_index(cloud: PointCloud) -> SpatialIndex | None:
    """The index of ``cloud``'s whole support, or None if nothing made that support."""
    return _kept(cloud).get("whole", (None, None, None))[2]


def entry(cloud: PointCloud, key: tuple, records: list | None = None) -> list | None:
    """The records of ``cloud``'s neighbourhood entry if kept under ``key``, else None;
    given ``records``, they become the cloud's one entry, under ``key``."""
    if records is not None:
        _kept(cloud)["entry"] = (key, records)
    held = _kept(cloud).get("entry", (None, None))
    return held[1] if held[0] == key else None


def _kept(cloud: PointCloud) -> dict:
    """The one mapping on ``cloud`` that holds what is derived from it."""
    return vars(as_instance(cloud, PointCloud, "cloud")).setdefault("_kept", {})


def chunk_rows(width: int) -> int:
    """Rows per chunk so that rows x ``width`` entries fit the working budget.

    Every transient (row x neighbour) array in the library is sized by this:
    at least one row, else at most ``_ENTRY_BUDGET`` entries per array.
    """
    return max(1, _ENTRY_BUDGET // width)


def _exact_neighbours(
    index: SpatialIndex, q: np.ndarray, k: int, r: float | None = None, width: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest points by (canonical distance, id) for each row of ``q``.

    Returns (ids, dists), both of shape (len(q), min(k, len(index))), each
    row ordered by (distance, id).  Only points within ``r`` count: a row
    with fewer than k of them is padded with id ``len(index)`` and distance
    inf.  No ``r`` is r = inf, a bound no row falls short of.

    One kd query asks for ``width`` (default k + 1) neighbours per row.  A
    row whose last one lies within the margin of its k-th may hide a tie
    or a closer point, so such rows are asked again at twice the width;
    at ``len(index)`` the kd query returns every point and the row is exact.
    """
    n = len(index)
    r = np.inf if r is None else r
    width = min(k + 1 if width is None else width, n)
    step = chunk_rows(width)
    if len(q) > step:
        parts = [_exact_neighbours(index, q[lo : lo + step], k, r, width)
                 for lo in range(0, len(q), step)]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    bound = r * (1.0 + _RADIUS_MARGIN)
    _, ids = index.tree.query(q, k=width, distance_upper_bound=bound, workers=get_num_threads())
    ids = ids.reshape(len(q), width)
    # The kd query pads a row with id n when fewer than width points lie in the bound.
    dists = _gathered_distances(index.positions, q, np.minimum(ids, n - 1))
    dists[ids == n] = np.inf
    # The kd query's order is its own distances'; a row whose canonical
    # distances tie or swap out of (distance, id) order is sorted again.
    d0, d1, i0, i1 = dists[:, :-1], dists[:, 1:], ids[:, :-1], ids[:, 1:]
    unsorted = np.flatnonzero(((d1 < d0) | ((d1 == d0) & (i1 < i0))).any(axis=1))
    order = np.lexsort((ids[unsorted], dists[unsorted]), axis=-1)
    ids[unsorted] = np.take_along_axis(ids[unsorted], order, axis=-1)
    dists[unsorted] = np.take_along_axis(dists[unsorted], order, axis=-1)
    if width < n:
        kth, last = dists[:, k - 1], dists[:, -1]
        wide = np.flatnonzero(np.isfinite(last) & (last <= kth * (1.0 + _RADIUS_MARGIN)))
        if len(wide):
            ids[wide, :k], dists[wide, :k] = _exact_neighbours(index, q[wide], k, r, 2 * width)
    ids, dists = ids[:, :k], dists[:, :k]
    beyond = dists > r
    ids[beyond], dists[beyond] = n, np.inf
    return ids, dists


def _gathered_distances(positions: np.ndarray, q: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Canonical distances from row r of ``q`` to the points ``ids[r]``.

    Each coordinate is gathered from its own column of ``positions``; the
    sums run x, then y, then z, as in ``canonical_norm``, so the bits are
    the same.
    """
    d = positions[:, 0][ids]
    np.subtract(q[:, :1], d, out=d)
    d *= d
    for c in (1, 2):
        dc = positions[:, c][ids]
        np.subtract(q[:, c : c + 1], dc, out=dc)
        dc *= dc
        d += dc
    return np.sqrt(d, out=d)


def _query_rows(index: SpatialIndex, queries) -> np.ndarray:
    """``queries`` as (M, 3) rows; every public query refuses a wrong ``index`` here."""
    as_instance(index, SpatialIndex, "index")
    return as_rows(queries, "query points")


def nearest_batch(
    index: SpatialIndex, queries: np.ndarray, r: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest point id and canonical distance for each query row.

    The search stops at distance ``r``: a row with no point within r
    (boundary inclusive) gets id ``len(index)`` and distance inf, the
    padding ``capped_ball_batch`` uses, and every other row is the same
    bits as the unbounded answer, ties included.  No ``r`` is the same
    query at r = inf.  A bounded query is much cheaper than an unbounded
    one for a row far from every point.
    """
    r = None if r is None else as_length(r, "radius")
    ids, dists = _exact_neighbours(index, _query_rows(index, queries), 1, r)
    return ids[:, 0], dists[:, 0]


def nearest(index: SpatialIndex, q) -> tuple[int, float]:
    """Nearest point to ``q``; exact distance ties go to the lowest id."""
    ids, dists = nearest_batch(index, [q])
    return int(ids[0]), float(dists[0])


def knn_batch(
    index: SpatialIndex, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k nearest per query row, sorted by (distance, id).

    Returns flat (ids, dists, lengths); segment r has ``lengths[r]``
    entries (= min(k, cloud size)).
    """
    q = _query_rows(index, queries)
    ids, dists = _exact_neighbours(index, q, as_count(k, "k"))
    return ids.ravel(), dists.ravel(), np.full(len(q), ids.shape[1], dtype=np.int64)


def knn(index: SpatialIndex, q, k: int) -> list[tuple[int, float]]:
    """k nearest points to ``q`` (all points if the cloud is smaller).

    Sorted ascending by distance, exact ties by lowest id.
    """
    ids, dists, _ = knn_batch(index, [q], k)
    return [(int(i), float(d)) for i, d in zip(ids, dists)]


def radius_query_batch(
    index: SpatialIndex, queries: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All points with canonical distance <= r, per query row.

    Returns flat (ids, dists, lengths); each segment is sorted by point
    id ascending.  Boundary inclusive.  The only query whose rows have no
    length bound, so the only one that takes kd ball queries.
    """
    r = as_length(r, "radius")
    q = _query_rows(index, queries)
    lists = index.tree.query_ball_point(
        q, r * (1.0 + _RADIUS_MARGIN), workers=get_num_threads(), return_sorted=True
    )
    lens = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    flat_ids = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64, count=lens.sum())
    rows = np.repeat(np.arange(len(q), dtype=np.int64), lens)
    flat_d = canonical_distance(q[rows], index.positions[flat_ids])
    keep = flat_d <= r
    return flat_ids[keep], flat_d[keep], np.bincount(rows[keep], minlength=len(q))


def radius_query(index: SpatialIndex, q, r: float) -> list[tuple[int, float]]:
    """Points within distance r of ``q`` (inclusive), sorted by point id."""
    ids, dists, _ = radius_query_batch(index, [q], r)
    return [(int(i), float(d)) for i, d in zip(ids, dists)]


def capped_ball_batch(
    index: SpatialIndex, queries: np.ndarray, r: float, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``cap`` nearest points within distance r, per query row.

    The selection rule is: among points with canonical distance <= r,
    keep the ``cap`` smallest by (distance, id).  Returned segments are
    re-sorted by point id ascending, distances with their ids, so the
    weighted kinds' weight and distance sums, taken from these distances,
    always accumulate in the same order.  Returns flat (ids, dists,
    lengths); rows with no point in the ball have length 0.
    """
    q = _query_rows(index, queries)
    ids, dists = _exact_neighbours(index, q, as_count(cap, "cap"), as_length(r, "radius"))
    order = np.argsort(ids, axis=-1)
    ids = np.take_along_axis(ids, order, axis=-1)
    dists = np.take_along_axis(dists, order, axis=-1)
    inside = ids < len(index)
    return ids[inside], dists[inside], inside.sum(axis=1)
