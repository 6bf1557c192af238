"""Spatial queries over a point cloud: nearest, k-nearest, fixed radius.

Wraps a kd-tree but pins down the parts a kd-tree leaves loose, so results
are reproducible and match a brute-force scan exactly:

- every returned distance is recomputed with one canonical formula,
  ``sqrt(dx*dx + dy*dy + dz*dz)`` in float64;
- exact distance ties break toward the lowest point id;
- radius queries are boundary-inclusive (distance == r is returned).

Nearest, k-nearest and capped-ball selection share one mechanism.  The
kd-tree is asked for k+1 neighbours (capped balls bound that query by r
plus a 1e-9 relative margin), their canonical distances are recomputed
and each row is ordered by (distance, id).  A point the kd-tree left out
is at least as far as the (k+1)-th, so a row is already exact unless the
(k+1)-th distance lies within the margin of the k-th.  Only such rows are
redone: a ball query of the k-th distance plus the margin collects every
candidate, and the k smallest by (distance, id) are kept.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.spatial import cKDTree

from .core import PointCloud
from .errors import ContractError, EmptyCloudError

_RADIUS_MARGIN = 1e-9

_num_threads = -1


def set_num_threads(n: int | None) -> None:
    """Cap query parallelism; -1 or None means all available cores.

    Thread count never changes results, only speed: parallelism is over
    independent query rows.  Any count other than -1 or n >= 1 raises
    ContractError.
    """
    global _num_threads
    n = -1 if n is None else int(n)
    if n < 1 and n != -1:
        raise ContractError(f"thread count must be -1 or >= 1, got {n}")
    _num_threads = n


def get_num_threads() -> int:
    """The set cap, else UDFGRID_THREADS (at least 1), else -1 (all cores)."""
    if _num_threads == -1:
        env = os.environ.get("UDFGRID_THREADS")
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                raise ContractError(
                    f"UDFGRID_THREADS must be an integer, got {env!r}"
                ) from None
    return _num_threads


def canonical_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance with a fixed summation order (x, then y, then z)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dx = a[..., 0] - b[..., 0]
    dy = a[..., 1] - b[..., 1]
    dz = a[..., 2] - b[..., 2]
    return np.sqrt(dx * dx + dy * dy + dz * dz)


class SpatialIndex:
    """Immutable search structure over a cloud's positions."""

    def __init__(self, positions: np.ndarray):
        positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        if len(positions) == 0:
            raise EmptyCloudError("cannot build a spatial index over an empty cloud")
        self.positions = positions
        self.tree = cKDTree(positions)

    def __len__(self) -> int:
        return len(self.positions)


def build_index(cloud: PointCloud | np.ndarray) -> SpatialIndex:
    """Build an index over a cloud (or raw (N, 3) position array)."""
    pos = cloud.positions if isinstance(cloud, PointCloud) else cloud
    return SpatialIndex(pos)


def _flatten_ball(result_lists) -> tuple[np.ndarray, np.ndarray]:
    """Object array of id lists -> (flat ids, row lengths)."""
    lens = np.fromiter((len(r) for r in result_lists), dtype=np.int64, count=len(result_lists))
    if lens.sum() == 0:
        return np.empty(0, dtype=np.int64), lens
    flat = np.concatenate([np.asarray(r, dtype=np.int64) for r in result_lists if len(r)])
    return flat, lens


def _exact_neighbours(
    index: SpatialIndex, q: np.ndarray, k: int, r: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest points by (canonical distance, id) for each row of ``q``.

    Returns (ids, dists), both of shape (len(q), min(k, len(index))), each
    row ordered by (distance, id).  With ``r``, only points whose kd
    distance is within r (plus the margin) are candidates; a row with fewer
    than k of them is padded with id ``len(index)`` and distance inf, and
    callers drop whatever lies beyond r themselves.
    """
    n = len(index)
    kq = min(k + 1, n)
    bound = np.inf if r is None else r * (1.0 + _RADIUS_MARGIN)
    _, ids = index.tree.query(q, k=kq, distance_upper_bound=bound, workers=get_num_threads())
    ids = ids.reshape(len(q), kq)
    found = index.positions[np.minimum(ids, n - 1)]
    dists = np.where(ids < n, canonical_distance(q[:, None, :], found), np.inf)
    order = np.lexsort((ids, dists), axis=-1)
    ids = np.take_along_axis(ids, order, axis=-1)
    dists = np.take_along_axis(dists, order, axis=-1)
    if kq > k:
        # A point the kd query left out is at least as far as the (k+1)-th
        # one, so only a (k+1)-th within the margin of the k-th can hide a
        # tie or a closer point: those rows are redone over the full ball.
        kth, nxt = dists[:, k - 1], dists[:, k]
        redo = np.flatnonzero(np.isfinite(nxt) & (nxt <= kth * (1.0 + _RADIUS_MARGIN)))
        if len(redo):
            lists = index.tree.query_ball_point(
                q[redo], kth[redo] * (1.0 + _RADIUS_MARGIN), workers=get_num_threads()
            )
            flat_ids, lens = _flatten_ball(lists)
            rows = np.repeat(np.arange(len(redo), dtype=np.int64), lens)
            flat_d = canonical_distance(q[redo][rows], index.positions[flat_ids])
            sel = np.lexsort((flat_ids, flat_d, rows))
            # Every ball holds the k returned points, so each segment has >= k.
            starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
            sel = sel[starts[:, None] + np.arange(k)]
            ids[redo, :k], dists[redo, :k] = flat_ids[sel], flat_d[sel]
    return ids[:, :k], dists[:, :k]


def nearest_batch(index: SpatialIndex, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest point id and canonical distance for each query row."""
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    ids, dists = _exact_neighbours(index, q, 1)
    return ids[:, 0], dists[:, 0]


def nearest(index: SpatialIndex, q) -> tuple[int, float]:
    """Nearest point to ``q``; exact distance ties go to the lowest id."""
    ids, dists = nearest_batch(index, np.asarray(q).reshape(1, 3))
    return int(ids[0]), float(dists[0])


def knn_batch(
    index: SpatialIndex, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k nearest per query row, sorted by (distance, id).

    Returns flat (ids, dists, lengths); segment r has ``lengths[r]``
    entries (= min(k, cloud size)).
    """
    if k < 1:
        raise ContractError("k must be >= 1")
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    ids, dists = _exact_neighbours(index, q, k)
    return ids.ravel(), dists.ravel(), np.full(len(q), ids.shape[1], dtype=np.int64)


def knn(index: SpatialIndex, q, k: int) -> list[tuple[int, float]]:
    """k nearest points to ``q`` (all points if the cloud is smaller).

    Sorted ascending by distance, exact ties by lowest id.
    """
    ids, dists, _ = knn_batch(index, np.asarray(q).reshape(1, 3), k)
    return [(int(i), float(d)) for i, d in zip(ids, dists)]


def radius_query_batch(
    index: SpatialIndex, queries: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All points with canonical distance <= r, per query row.

    Returns flat (ids, dists, lengths); each segment is sorted by point
    id ascending.  Boundary inclusive.
    """
    if not r > 0:
        raise ContractError("radius must be positive")
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    lists = index.tree.query_ball_point(
        q, r * (1.0 + _RADIUS_MARGIN), workers=get_num_threads(), return_sorted=True
    )
    flat_ids, lens = _flatten_ball(lists)
    rows = np.repeat(np.arange(len(q), dtype=np.int64), lens)
    flat_d = canonical_distance(q[rows], index.positions[flat_ids])
    keep = flat_d <= r
    kept_per_row = np.zeros(len(q), dtype=np.int64)
    nonempty = lens > 0
    if keep.size:
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        kept_per_row[nonempty] = np.add.reduceat(keep, starts[nonempty])
    return flat_ids[keep], flat_d[keep], kept_per_row


def radius_query(index: SpatialIndex, q, r: float) -> list[tuple[int, float]]:
    """Points within distance r of ``q`` (inclusive), sorted by point id."""
    ids, dists, _ = radius_query_batch(index, np.asarray(q).reshape(1, 3), r)
    return [(int(i), float(d)) for i, d in zip(ids, dists)]


def capped_ball_batch(
    index: SpatialIndex, queries: np.ndarray, r: float, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``cap`` nearest points within distance r, per query row.

    The selection rule is: among points with canonical distance <= r,
    keep the ``cap`` smallest by (distance, id).  Returned segments are
    re-sorted by point id ascending so downstream weighted sums always
    accumulate in the same order.  Returns flat (ids, dists, lengths);
    rows with no point in the ball have length 0.
    """
    if not r > 0:
        raise ContractError("radius must be positive")
    if cap < 1:
        raise ContractError("cap must be >= 1")
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    ids, dists = _exact_neighbours(index, q, cap, r)
    ids = np.where(dists <= r, ids, len(index))
    order = np.argsort(ids, axis=-1)
    ids = np.take_along_axis(ids, order, axis=-1)
    dists = np.take_along_axis(dists, order, axis=-1)
    inside = ids < len(index)
    return ids[inside], dists[inside], inside.sum(axis=1)
