"""The eight truncated distance functions on sparse voxel grids.

Each kind is one of two estimators combined with one of four value rules.
The nearest estimator reads the nearest cloud point: its distance, and the
distance to that point's tangent plane (the dot of its normal with x - p).
The weighted estimator averages both over the neighborhood N_x with
Gaussian weights.  The rules, applied by ``_value``:

==========================  ========  ========
rule                        nearest   weighted
==========================  ========  ========
distance                    UED       UWED
plane distance              Hoppe     IMLS
abs(plane distance)         UHoppe    UIMLS
sign(plane) x distance      SED       SWED
==========================  ========  ========

sign(0) counts as +1.  N_x is the ``max_neighbors`` nearest cloud points
within the 3-sigma ball around x (weights beyond 3 sigma are below e**-9),
held as its point ids and lengths; every weighted value comes from those.
Points with invalid (NaN) normals are excluded from the support of every
normal-dependent kind.

``evaluate`` gives one kind's value at one point; ``make_evaluator``
builds the spatial indices once for many queries against one cloud.
``compute_grid`` evaluates a kind at candidate lattice nodes, converts to
voxel units, and stores values with |v| < 3 strictly; values are rounded
to float32-representable doubles on storage so file round-trips and the
flip involution are exact.  A weighted kind's ``compute_grid`` leaves its
candidate nodes and capped balls on the (immutable) cloud, so the next
weighted kind with the same spec, support, sigma and cap skips the scan and
the ball query.

Two bounds keep memory small.  Every transient (row x neighbour) array is
sized by the spatial working budget (``spatial.chunk_rows``): the capped
balls are queried, weighted and summed a few thousand rows at a time.  The
stored neighbourhood is bounded on its own, by ``_ENTRY_BOUND`` ball
entries; a grid with more streams and stores nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings

import numpy as np

from . import spatial
from .core import (
    MAX_COORD, DFKind, DFParams, GridSpec, PointCloud, SparseDFGrid, TRUNCATION_VOXELS,
    as_count, as_length, as_point, as_rows,
)
from .errors import ContractError, EmptyCloudError, MissingDataError

_NEAREST_KINDS = (DFKind.UED, DFKind.HOPPE, DFKind.UHOPPE, DFKind.SED)
# Candidate scan: cubes of _BLOCK**3 nodes, culled _CULL_BATCH blocks at a
# time, at most _NODE_CHUNK node rows per bounded nearest query, and at most
# _MAX_SCAN_NODES nodes in the scanned box.
_BLOCK = 4
_CULL_BATCH = 4096
_NODE_CHUNK = 32768
_MAX_SCAN_NODES = 2**32
_WEIGHT_SUM_FLOOR = 1e-300
# The PointCloud attribute that holds compute_grid's neighbourhood entry, and
# the most capped-ball entries (rows x width) it stores: 8 MiB of ids.
_ENTRY = "_neighbourhood"
_ENTRY_BOUND = 2**20
# Stored magnitudes below this snap to +0.0: they are geometrically
# indistinguishable from surface contact and would otherwise break the
# exactness of the flip involution (3 - v loses bits below float64's
# resolution around 3).
_ZERO_SNAP = 2.0 ** -26


def gaussian_weight(sq_dist, sigma: float):
    """exp(-sq_dist / sigma**2), the neighborhood weight."""
    sigma = as_length(sigma, "sigma")
    sq = np.asarray(sq_dist, dtype=np.float64)
    if (sq < 0).any():
        raise ContractError("sq_dist must be non-negative")
    return np.exp(-sq / (sigma * sigma))


def _segment_sums(values: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Sum of each CSR segment; empty segments sum to 0.

    ``np.add.reduceat`` does not promise to add a segment's values in
    array order, and its sums can differ in the last bits from a plain
    loop.  They are deterministic for a given flat layout: the same values
    in the same order give the same bits.
    """
    out = np.zeros(len(lens))
    nonempty = lens > 0
    if values.size:
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        out[nonempty] = np.add.reduceat(values, starts[nonempty])
    return out


class _Evaluator:
    """Pointwise/batch evaluation of one DF kind over a fixed cloud.

    Builds the spatial structures once, on first use, so a grid's worth of
    queries reuses them.  The support is the set of points the kind reads:
    the points with valid normals for normal kinds, the whole cloud
    otherwise (``whole`` says which).  ``full_index`` covers the whole
    cloud for the candidate scan; it is also the support's index when the
    support is the whole cloud, and then a nearest kind's value follows
    from that scan's nearest ids and distances (``reuses_nearest``).
    """

    def __init__(self, cloud: PointCloud, kind: DFKind, params: DFParams):
        if len(cloud) == 0:
            raise EmptyCloudError("cannot evaluate a distance field over an empty cloud")
        if kind.requires_normals and cloud.normals is None:
            raise MissingDataError(f"{kind.value} requires a cloud with oriented normals")
        self.kind = kind
        self.params = params
        self.cloud = cloud
        self.positions, self.normals, self.whole = cloud.positions, None, True
        if kind.requires_normals:
            valid = ~np.isnan(cloud.normals).any(axis=1)
            self.positions, self.normals = cloud.positions[valid], cloud.normals[valid]
            self.whole = bool(valid.all())
        self.reuses_nearest = kind in _NEAREST_KINDS and self.whole
        # Entries per capped-ball row, min(cap + 1, n).
        self.width = min(params.max_neighbors + 1, len(self.positions))

    @functools.cached_property
    def full_index(self) -> spatial.SpatialIndex:
        return spatial.build_index(self.cloud.positions)

    @functools.cached_property
    def index(self) -> spatial.SpatialIndex | None:
        """The support's index; None when no point has a valid normal."""
        if self.whole:
            return self.full_index
        return spatial.build_index(self.positions) if len(self.positions) else None

    def batch(self, queries: np.ndarray) -> np.ndarray:
        """Evaluate at (M, 3) query positions; NaN marks undefined."""
        q = as_rows(queries, "query points")
        if self.index is None:
            return np.full(len(q), np.nan)
        if self.kind in _NEAREST_KINDS:
            return self.from_nearest(q, *spatial.nearest_batch(self.index, q))
        return self.weighted(q, self.balls(q))

    def from_nearest(self, q: np.ndarray, ids: np.ndarray, d: np.ndarray) -> np.ndarray:
        """A nearest kind's values at ``q`` from the support's nearest ids and distances."""
        plane = self._plane(self._diff(q, ids, 1), ids) if self.normals is not None else None
        return _value(self.kind, d, plane)

    def balls(self, q: np.ndarray):
        """The capped balls N_x of ``q``'s rows: (ids, lens) per chunk.

        A chunk's entries, rows x ``width``, fit the spatial working budget,
        so memory does not grow with the cap.
        """
        p = self.params
        step = spatial.chunk_rows(self.width)
        for lo in range(0, len(q), step):
            ids, _, lens = spatial.capped_ball_batch(
                self.index, q[lo : lo + step], p.neighbor_radius, p.max_neighbors
            )
            yield ids, lens

    def weighted(self, q: np.ndarray, balls) -> np.ndarray:
        """A weighted kind's values at ``q``'s rows from their capped balls.

        ``balls`` gives (ids, lens) per chunk of rows, in row order.  One
        difference x - p per entry gives the plane distance of normal kinds
        and the distance, the bits the capped-ball query returned, since
        ``canonical_norm`` is ``canonical_distance`` element by element.  The
        rule reads Gaussian-weighted averages of both over N_x; rows with an
        empty N_x or an underflowing weight sum are undefined (NaN).
        """
        out = np.empty(len(q))
        lo = 0
        for ids, lens in balls:
            hi = lo + len(lens)
            diff = self._diff(q[lo:hi], ids, lens)
            dists = spatial.canonical_norm(*diff.T)
            w = gaussian_weight(dists * dists, self.params.sigma)
            den = _segment_sums(w, lens)
            den[(lens == 0) | (den < _WEIGHT_SUM_FLOOR)] = np.nan
            plane = None
            if self.normals is not None:
                plane = _segment_sums(w * self._plane(diff, ids), lens) / den
            dist = _segment_sums(w * dists, lens) / den
            out[lo:hi] = _value(self.kind, dist, plane)
            lo = hi
        return out

    def _diff(self, q: np.ndarray, ids: np.ndarray, lens) -> np.ndarray:
        """x - p per entry: row r of ``q`` against each of the next ``lens[r]`` (or ``lens``) ids.

        Taken in place, so that at most two (len(ids), 3) arrays are alive
        at once.
        """
        diff = self.positions[ids]
        np.subtract(np.repeat(q, lens, axis=0), diff, out=diff)
        return diff

    def _plane(self, diff: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Distances to the tangent planes of support points ``ids``, from ``_diff``."""
        return np.einsum("ij,ij->i", self.normals[ids], diff)


def _value(kind: DFKind, dist: np.ndarray, plane: np.ndarray | None) -> np.ndarray:
    """``kind``'s value from its estimator's distance and plane distance."""
    if kind in (DFKind.UED, DFKind.UWED):
        return dist
    if kind in (DFKind.HOPPE, DFKind.IMLS):
        return plane
    if kind in (DFKind.UHOPPE, DFKind.UIMLS):
        return np.abs(plane)
    return np.where(plane >= 0, 1.0, -1.0) * dist


def make_evaluator(cloud: PointCloud, kind: DFKind, params: DFParams) -> _Evaluator:
    """Reusable evaluator for many queries against one cloud."""
    return _Evaluator(cloud, kind, params)


def evaluate(x, cloud: PointCloud, kind: DFKind, params: DFParams | None = None) -> float:
    """Value of ``kind`` at one point ``x``, in meters; NaN where undefined.

    ``params`` defaults to ``DFParams(sigma=1.0)``; the nearest-point
    kinds (Hoppe, SED, UED, UHoppe) do not read it.
    """
    ev = make_evaluator(cloud, kind, params or DFParams(sigma=1.0))
    return float(ev.batch(as_point(x, "x"))[0])


def quantize_values(v: np.ndarray) -> np.ndarray:
    """Round to float32-representable doubles, snapping tiny magnitudes to 0.

    Stored grid values pass through this so that (a) the binary file
    format's f32 records reproduce the in-memory grid exactly and (b)
    3 - v (the flip transform) is exact in float64 for every stored v,
    making double-flip restore values bit-for-bit.
    """
    v32 = np.asarray(v, dtype=np.float64).astype(np.float32)
    v32 = np.where(np.abs(v32) < _ZERO_SNAP, np.float32(0.0), v32)
    return v32.astype(np.float64)


def _candidates(index: spatial.SpatialIndex, spec: GridSpec, reach: float):
    """Grid nodes within ``reach`` of an index point, with that nearest point.

    Yields (node indices, node positions, nearest ids, distances) in chunks.
    The scanned box is the points' bounding box padded by the reach, clipped
    to the grid in float space so that a far point cannot overflow the
    int64 indices; a box of more than _MAX_SCAN_NODES nodes raises
    ContractError.  The box is split into cubes of _BLOCK**3 nodes, culled
    _CULL_BATCH blocks at a time in row-major order.  Each block centre gets
    one nearest query bounded by reach + h, h being the half-diagonal of a
    full block, plus a margin for the rounding of positions and distances.
    If a node lies within reach of a point p, the triangle inequality puts p
    within reach + h of the block's centre; so a block whose centre finds no
    point holds no candidate, and dropping it leaves the candidates
    unchanged.  The surviving blocks' nodes get one nearest query bounded by
    the reach, in chunks of at most _NODE_CHUNK rows.
    """
    v = spec.voxel_size
    top = np.asarray(spec.dims) - 1
    lo = np.ceil((index.positions.min(axis=0) - reach - spec.origin) / v)
    hi = np.floor((index.positions.max(axis=0) + reach - spec.origin) / v)
    lo, hi = np.clip(lo, 0, top + 1).astype(np.int64), np.clip(hi, -1, top).astype(np.int64)
    if (hi < lo).any():
        return
    scanned = int(np.prod(hi - lo + 1))
    if scanned > _MAX_SCAN_NODES:
        raise ContractError(
            f"compute_grid would scan {scanned} nodes, more than {_MAX_SCAN_NODES};"
            " use a larger voxel size or a smaller grid"
        )
    half = 0.5 * (_BLOCK - 1)
    h = half * v * np.sqrt(3.0)
    offsets = np.stack(np.unravel_index(np.arange(_BLOCK**3), (_BLOCK,) * 3), axis=1)
    nb = tuple(int(n) for n in (hi - lo) // _BLOCK + 1)
    n_blocks = nb[0] * nb[1] * nb[2]
    per_chunk = _NODE_CHUNK // len(offsets)
    for b0 in range(0, n_blocks, _CULL_BATCH):
        flat = np.arange(b0, min(b0 + _CULL_BATCH, n_blocks))
        corners = lo + _BLOCK * np.stack(np.unravel_index(flat, nb), axis=1)
        # A partial block's centre may lie beyond the far corner, and so
        # beyond MAX_COORD; clipped back, it is still within h of every node.
        centres = np.clip(spec.origin + (corners + half) * v, -MAX_COORD, MAX_COORD)
        bound = (reach + h) * (1.0 + 1e-9) + 1e-12 * np.abs(centres).max()
        # Spatial queries refuse a radius beyond MAX_COORD.  Only a grid of a few
        # huge voxels needs one, and an unbounded query finds the same candidates.
        _, d_centre = spatial.nearest_batch(index, centres, r=None if bound > MAX_COORD else bound)
        corners = corners[np.isfinite(d_centre)]
        for c0 in range(0, len(corners), per_chunk):
            nodes = (corners[c0 : c0 + per_chunk, None, :] + offsets).reshape(-1, 3)
            nodes = nodes[(nodes <= hi).all(axis=1)]
            pos = spec.origin + nodes * v
            ids, d = spatial.nearest_batch(index, pos, r=None if reach > MAX_COORD else reach)
            near = d <= reach
            if near.any():
                nodes, pos, ids, d = nodes[near], pos[near], ids[near], d[near]
                yield nodes, pos, ids, d


def _node_values(cloud: PointCloud, spec: GridSpec, ev: _Evaluator):
    """(node indices, values) of ``ev``'s kind for each chunk of candidate nodes.

    A weighted kind over a non-empty support reads the cloud's neighbourhood
    entry when its key (spec values, support, 3-sigma radius, cap) matches:
    the candidate chunks and their capped balls, so it makes no scan and no
    ball query.  Otherwise it scans, and once the scan has finished it
    publishes the entry it gathered, replacing the cloud's last one, if its
    rows x ``ev.width`` ball entries fit ``_ENTRY_BOUND``.
    """
    reach = 3.0 * spec.voxel_size + 1e-9
    if ev.kind in _NEAREST_KINDS or not len(ev.positions):
        for nodes_idx, nodes_pos, ids, d in _candidates(ev.full_index, spec, reach):
            if ev.reuses_nearest:
                yield nodes_idx, ev.from_nearest(nodes_pos, ids, d)
            else:
                yield nodes_idx, ev.batch(nodes_pos)
        return
    p = ev.params
    key = (tuple(spec.origin.tolist()), spec.voxel_size, spec.dims, ev.whole,
           p.neighbor_radius, p.max_neighbors)
    entry = getattr(cloud, _ENTRY, None)
    if entry is not None and entry[0] == key:
        for nodes_idx, nodes_pos, balls in entry[1]:
            yield nodes_idx, ev.weighted(nodes_pos, balls)
        return
    chunks, rows = [], 0
    for nodes_idx, nodes_pos, _, _ in _candidates(ev.full_index, spec, reach):
        rows += len(nodes_pos)
        balls = ev.balls(nodes_pos)
        if chunks is not None and rows * ev.width <= _ENTRY_BOUND:
            balls = list(balls)
            chunks.append((nodes_idx, nodes_pos, balls))
        else:
            chunks = None
        yield nodes_idx, ev.weighted(nodes_pos, balls)
    if chunks is not None:
        object.__setattr__(cloud, _ENTRY, (key, chunks))


def compute_grid(
    cloud: PointCloud, spec: GridSpec, kind: DFKind, params: DFParams
) -> SparseDFGrid:
    """Evaluate ``kind`` at candidate lattice nodes; store |v| < 3 voxel units.

    Candidate nodes are those within reach = 3 * voxel_size (+1e-9 guard)
    of some cloud point, by canonical distance; each is evaluated
    pointwise, divided by voxel_size, and kept only where defined and
    strictly inside the truncation band.  The result is never flipped.  A
    cloud entirely outside the grid yields an empty grid and a warning.

    ``_candidates`` finds them: it culls 4x4x4 blocks of nodes that cannot
    hold one, then gives each remaining node one bounded nearest query.  It
    scans the cloud's bounding box padded by the reach and clipped to the
    grid, and raises ContractError naming the node count when that box
    holds more than 2**32 nodes.  UED, SED, Hoppe and UHoppe take their
    values straight from the scan's nearest ids and distances when every
    normal is valid (the query runs over the support they read); normal
    kinds with some NaN normals evaluate the candidates through their own
    queries.

    The weighted kinds (UWED, IMLS, UIMLS, SWED) keep one neighbourhood
    entry on the cloud: the candidate chunks with their capped-ball ids and
    lengths, at most ``_ENTRY_BOUND`` = 2**20 ball entries.  The next
    weighted call on the same cloud with the same spec, support,
    sigma-derived radius and cap reuses it instead of scanning and querying
    again.  Every weighted value comes from a ball's ids and lengths, stored
    or just queried, so both give the same bits.
    """
    if len(cloud) == 0:
        raise EmptyCloudError("compute_grid requires a non-empty cloud")
    kept_idx: list[np.ndarray] = []
    kept_val: list[np.ndarray] = []
    for nodes_idx, vals in _node_values(cloud, spec, _Evaluator(cloud, kind, params)):
        vals = quantize_values(vals / spec.voxel_size)
        keep = np.isfinite(vals) & (np.abs(vals) < TRUNCATION_VOXELS)
        if keep.any():
            kept_idx.append(nodes_idx[keep])
            kept_val.append(vals[keep])
    if kept_idx:
        indices = np.concatenate(kept_idx)
        values = np.concatenate(kept_val)
    else:
        warnings.warn("no candidate voxels inside the grid; returning an empty grid")
        indices = np.empty((0, 3), dtype=np.int64)
        values = np.empty(0)
    return SparseDFGrid(spec=spec, kind=kind, flipped=False, indices=indices, values=values)


def flip(grid: SparseDFGrid) -> SparseDFGrid:
    """Value transform v -> 3 - v (unsigned) / sign(v) * (3 - |v|) (signed).

    sign(0) counts as +1, so a surface voxel (v = 0) flips to the maximal
    response 3.  Occupancy is unchanged, the flipped flag toggles, and
    applying flip twice restores every value exactly.
    """
    v = grid.values
    flipped_vals = np.where(v >= 0, TRUNCATION_VOXELS - v, -(TRUNCATION_VOXELS + v))
    return SparseDFGrid(
        spec=grid.spec,
        kind=grid.kind,
        flipped=not grid.flipped,
        indices=grid.indices,
        values=flipped_vals,
    )


def build_pyramid(
    cloud: PointCloud,
    spec: GridSpec,
    kind: DFKind,
    params: DFParams,
    levels: int = 4,
) -> list[SparseDFGrid]:
    """Recompute the field at ``levels`` resolutions, halving each time.

    Level 0 uses ``spec`` as given; level L uses voxel_size * 2**L and
    dims ceil-divided by 2**L with the same origin.  Each level is a
    fresh computation from the original cloud (not a downsampling), with
    sigma scaled by the same factor so the sigma/voxel ratio — and hence
    the truncation band of 3 voxels at the level's own scale — behaves
    identically at every level.
    """
    grids = []
    for level in range(as_count(levels, "levels")):
        factor = 2 ** level
        level_spec = GridSpec(
            origin=spec.origin,
            voxel_size=spec.voxel_size * factor,
            dims=tuple(-(-d // factor) for d in spec.dims),
        )
        level_params = dataclasses.replace(params, sigma=params.sigma * factor)
        grids.append(compute_grid(cloud, level_spec, kind, level_params))
    return grids
