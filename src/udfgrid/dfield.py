"""The eight truncated distance functions on sparse voxel grids.

Each kind (``core.DFKind``) is one of two estimators, its ``weighted``, and
one of four value rules, its ``rule``.  The nearest estimator reads the nearest
cloud point: its distance, and the distance to that point's tangent plane (the
dot of its normal with x - p).  The weighted estimator averages both over the
neighborhood N_x with Gaussian weights.  The rules, applied by ``_value``:

=====================  ======================  ========  ========
``rule``               value                   nearest   weighted
=====================  ======================  ========  ========
``distance``           distance                UED       UWED
``plane``              plane distance          Hoppe     IMLS
``abs_plane``          abs(plane distance)     UHoppe    UIMLS
``signed_distance``    sign(plane) x distance  SED       SWED
=====================  ======================  ========  ========

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
serves many queries against one cloud.  The points a kind reads, their
normals and kd index are the cloud's support, which ``spatial.support``
makes once per cloud and keeps, with the neighbourhood entry below.
``compute_grid`` evaluates a kind at candidate lattice nodes, converts to
voxel units, and stores values with |v| < 3 strictly; values are rounded
to float32-representable doubles on storage so file round-trips and the
flip involution are exact.  A nearest kind whose support is the whole
cloud takes its neighbourhoods from the scan's own nearest query.

A weighted kind's ``compute_grid`` leaves its candidate chunks beside the
cloud's supports (``spatial.entry``), as one flat list of records, each its
node indices and its capped balls with their per-row weighted sums (at most
24 B per row): the neighbourhood entry.  A ball's point ids take the
smallest unsigned dtype that holds the support size (``uint16`` below
65,536 points), which also makes their gathers cheaper.  The next weighted
kind with the same key, (spec, support, params), the support named by its
kd index, replays it: it derives the node positions from the indices as the
scan does, makes no scan and no ball query, and a normal kind adds the
plane sum if no earlier kind did.  The
entry has its own bound, ``_ENTRY_BOUND`` ball entries; a grid with more
streams and stores nothing.  The nearest kinds store nothing and scan on
every call.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from . import spatial
from .core import (
    MAX_COORD, DFKind, DFParams, GridSpec, PointCloud, SparseDFGrid, TRUNCATION_VOXELS,
    _as_real, as_count, as_instance, as_length, as_point, as_rows, linearize,
)
from .errors import ContractError, EmptyCloudError

# Candidate scan: cubes of _BLOCK**3 nodes, the blocks the cloud's points
# touch and their neighbours; no box, so no limit on the grid's node count.
_BLOCK = 4
# Most capped-ball entries (rows x width) the neighbourhood entry stores: 2 MiB of ids at uint16.
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

    Reads the cloud's support (``spatial.support``): the points with valid
    normals and their normals for normal kinds, the whole cloud's points
    otherwise, and their kd index, None when the support is empty.
    Evaluation takes the module docstring's two steps, ``near`` and
    ``values``, over chunks of ``spatial.chunk_rows(width)`` rows.
    """

    def __init__(self, cloud: PointCloud, kind: DFKind, params: DFParams):
        self.params = as_instance(params, DFParams, "params")
        if len(as_instance(cloud, PointCloud, "cloud")) == 0:
            raise EmptyCloudError("cannot evaluate a distance field over an empty cloud")
        self.kind = as_instance(kind, DFKind, "kind")
        self.positions, self.normals, self.index = spatial.support(cloud, kind.requires_normals)
        self.width = min(params.max_neighbors + 1, len(self.positions)) if kind.weighted else 2

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

        ``scan`` is the candidate scan's nearest (ids, dists) at these rows
        when the support is the whole cloud; a nearest kind takes them as
        they are.  A capped ball's ``sums`` hold each row's weight sum
        ``"w"`` and weighted distance sum ``"d"``, from the distances the
        query returns in id order.
        """
        if not self.kind.weighted:
            return scan if scan is not None else spatial.nearest_batch(self.index, q)
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
        if not self.kind.weighted:
            ids, d = near
            plane = self._plane(self._diff(q, ids, 1), ids) if self.kind.requires_normals else None
            return _value(self.kind, d, plane)
        ids, lens, sums = near
        if self.kind.requires_normals and "plane" not in sums:
            diff = self._diff(q, ids, lens)
            dists = spatial.canonical_norm(*diff.T)
            w = gaussian_weight(dists * dists, self.params.sigma)
            sums["plane"] = _segment_sums(w * self._plane(diff, ids), lens)
        den = np.where(lens > 0, sums["w"], np.nan)
        plane = sums["plane"] / den if self.kind.requires_normals else None
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
    """``kind``'s value by its rule, from its estimator's distance and plane distance."""
    if kind.rule == "distance":
        return dist
    if kind.rule == "plane":
        return plane
    if kind.rule == "abs_plane":
        return np.abs(plane)
    return np.where(plane >= 0, 1.0, -1.0) * dist


def make_evaluator(cloud: PointCloud, kind: DFKind, params: DFParams) -> _Evaluator:
    """Reusable evaluator for many queries against one cloud."""
    return _Evaluator(cloud, kind, params)


def evaluate(x, cloud: PointCloud, kind: DFKind, params: DFParams | None = None) -> float:
    """Value of ``kind`` at one point ``x``, in meters; NaN where undefined.

    Only ``params=None`` means ``DFParams(sigma=1.0)``; the nearest-point
    kinds (Hoppe, SED, UED, UHoppe) do not read it.
    """
    ev = make_evaluator(cloud, kind, DFParams(sigma=1.0) if params is None else params)
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
    chunks of at most ``rows`` nodes, some of them empty.  The scan visits
    the cubes of _BLOCK**3 grid nodes that hold a point (clipped to the grid
    in float space, so no far point overflows int64) and their neighbours,
    unique by ``linearize`` code: the reach is less than one block, so every
    candidate lies there, and the work follows the points, not their box.
    The blocks are culled ``spatial.chunk_rows(2)`` at a time (the rows of
    one nearest query): each centre gets one nearest query bounded by reach
    + h, h being a block's half-diagonal, plus a margin for rounding; by the
    triangle inequality a block whose centre finds no point holds no
    candidate.  The other blocks' nodes get one nearest query bounded by the
    reach, ``rows`` nodes at a time.
    """
    v = spec.voxel_size
    nb = -(-np.asarray(spec.dims) // _BLOCK)
    # Clipped to nb in float space, as float(nb - 1) may round up past nb - 1.
    own = np.clip(np.floor((index.positions - spec.origin) / (_BLOCK * v)), 0, nb)
    codes = np.sort(linearize(nb, np.minimum(own.astype(np.int64), nb - 1)))
    step = 1
    for n in nb[::-1].tolist():  # z, y, then x: the code steps 1, nz and ny * nz
        codes = codes[np.diff(codes, prepend=-1) != 0]  # unique: sorted, no repeats
        at = codes // step % n
        codes = np.sort(np.concatenate([codes[at > 0] - step, codes, codes[at < n - 1] + step]))
        step *= n
    codes = codes[np.diff(codes, prepend=-1) != 0]
    half = 0.5 * (_BLOCK - 1)
    h = half * v * np.sqrt(3.0)
    offsets = np.stack(np.unravel_index(np.arange(_BLOCK**3), (_BLOCK,) * 3), axis=1)
    cull = spatial.chunk_rows(2)
    for b0 in range(0, len(codes), cull):
        corners = _BLOCK * np.stack(np.unravel_index(codes[b0 : b0 + cull], nb), axis=1)
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
                nodes = nodes[(nodes < spec.dims).all(axis=1)]
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
    if ev.index is None:
        return
    key = (spec, ev.index, ev.params)
    if ev.kind.weighted and (records := spatial.entry(cloud, key)) is not None:
        for nodes_idx, near in records:
            yield nodes_idx, ev.values(spec.origin + nodes_idx * spec.voxel_size, near)
        return
    reach = 3.0 * spec.voxel_size * (1.0 + spatial._RADIUS_MARGIN)
    records, rows = ([] if ev.kind.weighted else None), 0
    index = spatial.support(cloud)[2]
    for nodes_idx, nodes_pos, scan in _candidates(index, spec, reach, spatial.chunk_rows(ev.width)):
        near = ev.near(nodes_pos, scan if index is ev.index else None)
        rows += len(nodes_pos)
        if records is not None and rows * ev.width <= _ENTRY_BOUND:
            records.append((nodes_idx, near))
        else:
            records = None
        yield nodes_idx, ev.values(nodes_pos, near)
    if records is not None:
        spatial.entry(cloud, key, records)


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

    ``_candidates`` finds them: it visits only the 4x4x4 blocks of nodes
    around the cloud's points, so no grid is too large to scan, culls those
    that cannot hold a candidate, and gives each remaining node one bounded
    nearest query, in chunks sized by the working budget.  An empty support
    makes no scan.  Each chunk then takes the kind's two steps, and a
    weighted kind keeps or replays the neighbourhood entry, as the module
    docstring states.
    """
    as_instance(spec, GridSpec, "spec")
    kept_codes, kept_val = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for nodes_idx, vals in _node_values(cloud, spec, _Evaluator(cloud, kind, params)):
        vals = quantize_values(vals / spec.voxel_size)
        keep = np.abs(vals) < TRUNCATION_VOXELS  # False for NaN (undefined) and inf
        kept_codes.append(linearize(spec.dims, nodes_idx[keep]))
        kept_val.append(vals[keep])
    codes, values = np.concatenate(kept_codes), np.concatenate(kept_val)
    if not len(values):
        warnings.warn("no candidate voxels inside the grid; returning an empty grid")
    return SparseDFGrid._from_codes(spec, kind, False, codes, values)


def flip(grid: SparseDFGrid) -> SparseDFGrid:
    """Value transform v -> 3 - v (unsigned) / sign(v) * (3 - |v|) (signed).

    sign(0) counts as +1, so a surface voxel (v = 0) flips to the maximal
    response 3.  Occupancy is unchanged, so the flipped grid shares the
    (read-only) codes array, and the flipped flag toggles.
    Flipping twice restores every value ``quantize_values`` gives; others
    may not come back (a UED 1e-20 returns as 0.0, a signed -0.0 as +0.0).
    """
    v = as_instance(grid, SparseDFGrid, "grid").values
    v = np.where(v >= 0, TRUNCATION_VOXELS - v, -(TRUNCATION_VOXELS + v))
    return SparseDFGrid._from_codes(grid.spec, grid.kind, not grid.flipped, grid.codes(), v)


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
    identically at every level.  A ``levels`` whose last level's spec or
    params would be refused raises ContractError before any level is
    computed; the voxel size, sigma and node count of that level bound
    every level's.
    """
    levels = as_count(levels, "levels")
    try:
        _pyramid_level(spec, params, levels - 1)
    except (ContractError, OverflowError) as exc:
        raise ContractError(
            f"levels = {levels} is more than this spec and sigma allow: level {levels - 1}"
            f" fails ({exc})"
        ) from None
    grids = []
    for level in range(levels):
        level_spec, level_params = _pyramid_level(spec, params, level)
        grids.append(compute_grid(cloud, level_spec, kind, level_params))
    return grids


def _pyramid_level(spec: GridSpec, params: DFParams, level: int) -> tuple[GridSpec, DFParams]:
    """Voxel size and sigma times 2**level, exactly (OverflowError past the
    float range), and dims ceil-divided by 2**level."""
    level_spec = GridSpec(
        origin=spec.origin,
        voxel_size=math.ldexp(spec.voxel_size, level),
        dims=tuple(-(-d >> level) for d in spec.dims),
    )
    return level_spec, dataclasses.replace(params, sigma=math.ldexp(params.sigma, level))
