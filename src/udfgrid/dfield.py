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
held as its point ids and lengths.  The capped-ball query's own distances
give each row's weight sum and weighted distance sum; only the plane sum of
the normal kinds takes x - p, when a kind first needs it.  Points with invalid
(NaN) normals are excluded from the support of every normal-dependent kind.

Every evaluation takes two steps per chunk of query rows: ``near`` finds
the rows' neighbourhoods (the support's nearest ids and distances, or the
capped balls with their weighted sums), and ``values`` applies the kind's
rule to them.  A chunk holds ``spatial.chunk_rows(width)`` rows, so that its
rows x ``width`` entries fit the spatial working budget; ``width`` is 2 for
a nearest kind (k + 1) and min(cap + 1, n) for a capped ball.  ``batch``,
the candidate scan of ``compute_grid`` and a stored entry all run these
steps.

``evaluate`` gives one kind's value at one point; ``make_evaluator``
serves many queries against one cloud.  The kd indices come from the
cloud (``spatial.cloud_index``): it keeps the index of its positions and of
its valid-normal support once something builds them, so the kinds, grids
and pyramid levels over one cloud, and ``estimate_normals`` before them,
build each index once.
``compute_grid`` evaluates a kind at candidate lattice nodes, converts to
voxel units, and stores values with |v| < 3 strictly; values are rounded
to float32-representable doubles on storage so file round-trips and the
flip involution are exact.  A nearest kind whose support is the whole
cloud takes its neighbourhoods from the scan's own nearest query.

A weighted kind's ``compute_grid`` leaves its candidate chunks on the
(immutable) cloud, beside the kept indices, as one flat list of records,
each its node indices and its capped balls with their per-row weighted sums
(at most 24 B per row): the neighbourhood entry.  A ball's point ids take
the smallest unsigned dtype that holds the support size (``uint16`` below
65,536 points), which also makes their gathers cheaper.  The next weighted
kind with the same spec, support, sigma and cap replays it: it derives the
node positions from the indices as the scan does, makes no scan and no ball
query, and a normal kind adds the plane sum if no earlier kind did.  The
entry has its own bound, ``_ENTRY_BOUND`` ball entries; a grid with more
streams and stores nothing.  The nearest kinds store nothing and scan on
every call.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings

import numpy as np

from . import spatial
from .core import (
    MAX_COORD, DFKind, DFParams, GridSpec, PointCloud, SparseDFGrid, TRUNCATION_VOXELS,
    _as_real, as_count, as_length, as_point, as_rows,
)
from .errors import ContractError, EmptyCloudError, MissingDataError

_NEAREST_KINDS = (DFKind.UED, DFKind.HOPPE, DFKind.UHOPPE, DFKind.SED)
# Candidate scan: cubes of _BLOCK**3 nodes, and at most _MAX_SCAN_NODES
# nodes in the scanned box.
_BLOCK = 4
_MAX_SCAN_NODES = 2**32
# The PointCloud attribute that holds compute_grid's neighbourhood entry, and
# the most capped-ball entries (rows x width) it stores: 2 MiB of ids at uint16.
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
    sq = _as_real(sq_dist, "sq_dist").astype(np.float64, copy=False)
    if not (sq >= 0).all():
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
    out[nonempty] = np.add.reduceat(values, (np.cumsum(lens) - lens)[nonempty])
    return out


class _Evaluator:
    """Pointwise/batch evaluation of one DF kind over a fixed cloud.

    Takes its kd indices from the cloud (``spatial.cloud_index``) on first
    use, so a grid's worth of queries, and every later evaluator over the
    same cloud, reuses them.  The support is the set of points the kind
    reads: the points with valid normals for normal kinds, the whole cloud
    otherwise (``whole`` says which).  ``full_index`` covers the whole
    cloud for the candidate scan; it is also the support's index when the
    support is the whole cloud.  Evaluation takes the module docstring's
    two steps, ``near`` and ``values``, over chunks of
    ``spatial.chunk_rows(width)`` rows.
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
        self.nearest = kind in _NEAREST_KINDS
        self.width = 2 if self.nearest else min(params.max_neighbors + 1, len(self.positions))

    @functools.cached_property
    def full_index(self) -> spatial.SpatialIndex:
        return spatial.cloud_index(self.cloud)

    @functools.cached_property
    def index(self) -> spatial.SpatialIndex | None:
        """The support's index; None when no point has a valid normal."""
        return spatial.cloud_index(self.cloud, not self.whole) if len(self.positions) else None

    def batch(self, queries: np.ndarray) -> np.ndarray:
        """Evaluate at (M, 3) query positions; NaN marks undefined."""
        q = as_rows(queries, "query points")
        if self.index is None:
            return np.full(len(q), np.nan)
        step = spatial.chunk_rows(self.width)
        out = np.empty(len(q))
        for lo in range(0, len(q), step):
            out[lo : lo + step] = self.values(q[lo : lo + step], self.near(q[lo : lo + step]))
        return out

    def near(self, q: np.ndarray, scan: tuple | None = None) -> tuple:
        """N_x of ``q``'s rows: nearest (ids, dists), or capped balls (ids, lens, sums).

        ``scan`` is the candidate scan's nearest (ids, dists) over the whole
        cloud at these rows; a nearest kind whose support is the whole cloud
        takes them as they are.  A capped ball's ``sums`` hold each row's
        weight sum ``"w"`` and weighted distance sum ``"d"``, from the
        distances the query returns in id order.
        """
        if self.nearest:
            return scan if scan is not None and self.whole else spatial.nearest_batch(self.index, q)
        p = self.params
        ids, dists, lens = spatial.capped_ball_batch(self.index, q, p.neighbor_radius, p.max_neighbors)
        w = gaussian_weight(dists * dists, p.sigma)
        ids = ids.astype(np.min_scalar_type(len(self.positions)))
        return ids, lens, {"w": _segment_sums(w, lens), "d": _segment_sums(w * dists, lens)}

    def values(self, q: np.ndarray, near: tuple) -> np.ndarray:
        """The kind's values at ``q``'s rows from their neighbourhoods ``near(q)``.

        A weighted kind reads Gaussian-weighted averages over N_x of the
        distance and, for normal kinds, the plane distance.  A normal kind
        adds the weighted plane sum ``"plane"`` to ``sums`` when it is
        missing, from one difference x - p per entry; the norm of that
        difference is the query's distance, bit for bit, so its weights are
        those ``near`` summed.  Rows with an empty N_x are undefined (NaN):
        every weight in N_x is at least e**-9, so a non-empty weight sum is
        positive.
        """
        if self.nearest:
            ids, d = near
            plane = self._plane(self._diff(q, ids, 1), ids) if self.normals is not None else None
            return _value(self.kind, d, plane)
        ids, lens, sums = near
        if self.normals is not None and "plane" not in sums:
            diff = self._diff(q, ids, lens)
            dists = spatial.canonical_norm(*diff.T)
            w = gaussian_weight(dists * dists, self.params.sigma)
            sums["plane"] = _segment_sums(w * self._plane(diff, ids), lens)
        den = np.where(lens > 0, sums["w"], np.nan)
        plane = sums["plane"] / den if self.normals is not None else None
        return _value(self.kind, sums["d"] / den, plane)

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


def _candidates(index: spatial.SpatialIndex, spec: GridSpec, reach: float, rows: int):
    """Grid nodes within ``reach`` of an index point, with that nearest point.

    Yields (node indices, node positions, (nearest ids, distances)) in
    chunks of at most ``rows`` nodes, some of them empty.  The scanned box
    is the points' bounding box padded by the reach, clipped to the grid in
    float space so that a far point cannot overflow the int64 indices; a box
    of more than _MAX_SCAN_NODES nodes raises ContractError.  The box is
    split into cubes of _BLOCK**3 nodes, culled in row-major order
    ``spatial.chunk_rows(2)`` blocks (the rows of one nearest query) at a
    time.  Each block centre gets one nearest query bounded by reach + h, h
    being the half-diagonal of a full block, plus a margin for the rounding
    of positions and distances.  If a node lies within reach of a point p,
    the triangle inequality puts p within reach + h of the block's centre;
    so a block whose centre finds no point holds no candidate, and dropping
    it leaves the candidates unchanged.  The surviving blocks' nodes get one
    nearest query bounded by the reach, ``rows`` nodes at a time.
    """
    v = spec.voxel_size
    top = np.asarray(spec.dims) - 1
    # Column by column: the same values as an axis-0 reduction, several times faster.
    lo = np.ceil((np.array([c.min() for c in index.positions.T]) - reach - spec.origin) / v)
    hi = np.floor((np.array([c.max() for c in index.positions.T]) + reach - spec.origin) / v)
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
    cull = spatial.chunk_rows(2)
    for b0 in range(0, n_blocks, cull):
        flat = np.arange(b0, min(b0 + cull, n_blocks))
        corners = lo + _BLOCK * np.stack(np.unravel_index(flat, nb), axis=1)
        # A partial block's centre may lie beyond the far corner, and so
        # beyond MAX_COORD; clipped back, it is still within h of every node.
        centres = np.clip(spec.origin + (corners + half) * v, -MAX_COORD, MAX_COORD)
        bound = (reach + h) * (1.0 + 1e-9) + 1e-12 * np.abs(centres).max()
        # Spatial queries refuse a radius beyond MAX_COORD.  Only a grid of a few
        # huge voxels needs one, and an unbounded query finds the same candidates.
        _, d_centre = spatial.nearest_batch(index, centres, r=None if bound > MAX_COORD else bound)
        corners = corners[np.isfinite(d_centre)]
        # Whole blocks at a time; below one block's nodes, slices of ``rows``.
        per = max(1, rows // len(offsets))
        for c0 in range(0, len(corners), per):
            block_nodes = (corners[c0 : c0 + per, None, :] + offsets).reshape(-1, 3)
            for n0 in range(0, len(block_nodes), rows):
                nodes = block_nodes[n0 : n0 + rows]
                nodes = nodes[(nodes <= hi).all(axis=1)]
                pos = spec.origin + nodes * v
                ids, d = spatial.nearest_batch(index, pos, r=None if reach > MAX_COORD else reach)
                near = d <= reach
                yield nodes[near], pos[near], (ids[near], d[near])


def _node_values(cloud: PointCloud, spec: GridSpec, ev: _Evaluator):
    """(node indices, values) of ``ev``'s kind for each chunk of candidate nodes.

    Each chunk is one ``near`` and one ``values`` step over at most
    ``spatial.chunk_rows(ev.width)`` nodes, or a replay of the cloud's
    neighbourhood entry (see the module docstring).  An empty support
    yields nothing, before any index is built or any node scanned.
    """
    if not len(ev.positions):
        return
    p = ev.params
    key = (tuple(spec.origin.tolist()), spec.voxel_size, spec.dims, ev.whole,
           p.sigma, p.max_neighbors)
    entry = getattr(cloud, _ENTRY, None)
    if not ev.nearest and entry is not None and entry[0] == key:
        for nodes_idx, near in entry[1]:
            yield nodes_idx, ev.values(spec.origin + nodes_idx * spec.voxel_size, near)
        return
    reach = 3.0 * spec.voxel_size * (1.0 + spatial._RADIUS_MARGIN)
    records, rows = (None if ev.nearest else []), 0
    chunks = _candidates(ev.full_index, spec, reach, spatial.chunk_rows(ev.width))
    for nodes_idx, nodes_pos, scan in chunks:
        near = ev.near(nodes_pos, scan)
        rows += len(nodes_pos)
        if records is not None and rows * ev.width <= _ENTRY_BOUND:
            records.append((nodes_idx, near))
        else:
            records = None
        yield nodes_idx, ev.values(nodes_pos, near)
    if records is not None:
        object.__setattr__(cloud, _ENTRY, (key, records))


def compute_grid(
    cloud: PointCloud, spec: GridSpec, kind: DFKind, params: DFParams
) -> SparseDFGrid:
    """Evaluate ``kind`` at candidate lattice nodes; store |v| < 3 voxel units.

    Candidate nodes are those within reach = 3 * voxel_size * (1 + 1e-9)
    of some cloud point, by canonical distance; each is evaluated
    pointwise, divided by voxel_size, and kept only where defined and
    strictly inside the truncation band.  The result is never flipped.  A
    cloud entirely outside the grid, or a normal kind over a cloud whose
    every normal is NaN, yields an empty grid and a warning.

    ``_candidates`` finds them: it culls 4x4x4 blocks of nodes that cannot
    hold one, then gives each remaining node one bounded nearest query, in
    chunks sized by the working budget.  It scans the cloud's bounding box
    padded by the reach and clipped to the grid, and raises ContractError
    naming the node count when that box holds more than 2**32 nodes; an
    empty support makes no scan, so it returns the empty grid instead.
    Each chunk then takes the kind's two steps, and a weighted kind keeps
    or replays the neighbourhood entry, as the module docstring states.
    """
    if len(cloud) == 0:
        raise EmptyCloudError("compute_grid requires a non-empty cloud")
    kept_idx = [np.empty((0, 3), dtype=np.int64)]
    kept_val = [np.empty(0)]
    for nodes_idx, vals in _node_values(cloud, spec, _Evaluator(cloud, kind, params)):
        vals = quantize_values(vals / spec.voxel_size)
        keep = np.abs(vals) < TRUNCATION_VOXELS  # False for NaN (undefined) and inf
        kept_idx.append(nodes_idx[keep])
        kept_val.append(vals[keep])
    indices, values = np.concatenate(kept_idx), np.concatenate(kept_val)
    if not len(values):
        warnings.warn("no candidate voxels inside the grid; returning an empty grid")
    return SparseDFGrid(spec=spec, kind=kind, flipped=False, indices=indices, values=values)


def flip(grid: SparseDFGrid) -> SparseDFGrid:
    """Value transform v -> 3 - v (unsigned) / sign(v) * (3 - |v|) (signed).

    sign(0) counts as +1, so a surface voxel (v = 0) flips to the maximal
    response 3.  Occupancy is unchanged and the flipped flag toggles.
    Flipping twice restores every value ``quantize_values`` gives; others
    may not come back (a UED 1e-20 returns as 0.0, a signed -0.0 as +0.0).
    """
    v = grid.values
    flipped_vals = np.where(v >= 0, TRUNCATION_VOXELS - v, -(TRUNCATION_VOXELS + v))
    return dataclasses.replace(grid, flipped=not grid.flipped, values=flipped_vals)


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
