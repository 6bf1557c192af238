"""The eight truncated distance functions on sparse voxel grids.

Signed kinds: Hoppe (point-to-plane at the nearest point), IMLS (Gaussian-
weighted average of point-to-plane distances), SED (nearest distance signed
by the nearest normal), SWED (UWED magnitude, IMLS sign).  Unsigned kinds:
UED (nearest distance), UWED (Gaussian-weighted average of distances),
UHoppe and UIMLS (absolute values of the signed evaluators).

Weighted kinds average over the neighborhood N_x: the ``max_neighbors``
nearest cloud points within the 3-sigma ball around x (weights beyond 3
sigma are below e**-9).  Points with invalid (NaN) normals are excluded
from N_x for every normal-dependent kind.

``evaluate`` gives one kind's value at one point; ``make_evaluator``
builds the spatial indices once for many queries against one cloud.
``compute_grid`` evaluates a kind at candidate lattice nodes, converts to
voxel units, and stores values with |v| < 3 strictly; values are rounded
to float32-representable doubles on storage so file round-trips and the
flip involution are exact.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from . import spatial
from .core import DFKind, DFParams, GridSpec, PointCloud, SparseDFGrid, TRUNCATION_VOXELS
from .errors import ContractError, EmptyCloudError, MissingDataError

_EVAL_CHUNK = 8192
_WEIGHT_SUM_FLOOR = 1e-300
# Stored magnitudes below this snap to +0.0: they are geometrically
# indistinguishable from surface contact and would otherwise break the
# exactness of the flip involution (3 - v loses bits below float64's
# resolution around 3).
_ZERO_SNAP = 2.0 ** -26


def gaussian_weight(sq_dist, sigma: float):
    """exp(-sq_dist / sigma**2), the neighborhood weight."""
    if not sigma > 0:
        raise ContractError("sigma must be positive")
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

    Builds the spatial structures once so a grid's worth of queries reuses
    them.  The support is the set of points the kind reads: the points
    with valid normals for normal kinds, the whole cloud otherwise.
    ``full_index`` covers the whole cloud for the candidate prefilter; it
    is also the support's index when every normal is valid.
    """

    def __init__(self, cloud: PointCloud, kind: DFKind, params: DFParams):
        if len(cloud) == 0:
            raise EmptyCloudError("cannot evaluate a distance field over an empty cloud")
        if kind.requires_normals and cloud.normals is None:
            raise MissingDataError(f"{kind.value} requires a cloud with oriented normals")
        self.kind = kind
        self.params = params
        self.full_index = spatial.build_index(cloud.positions)
        self.positions, self.normals, self.index = cloud.positions, None, self.full_index
        if kind.requires_normals:
            valid = ~np.isnan(cloud.normals).any(axis=1)
            self.positions, self.normals = cloud.positions[valid], cloud.normals[valid]
            if not valid.all():
                self.index = spatial.build_index(self.positions) if valid.any() else None

    def batch(self, queries: np.ndarray) -> np.ndarray:
        """Evaluate at (M, 3) query positions; NaN marks undefined."""
        q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        out = np.empty(len(q))
        for lo in range(0, len(q), _EVAL_CHUNK):
            out[lo : lo + _EVAL_CHUNK] = self._chunk(q[lo : lo + _EVAL_CHUNK])
        return out

    # -- per-kind math ---------------------------------------------------

    def _chunk(self, q: np.ndarray) -> np.ndarray:
        kind = self.kind
        if self.index is None:
            return np.full(len(q), np.nan)
        if kind is DFKind.UED:
            _, d = spatial.nearest_batch(self.index, q)
            return d
        if kind in (DFKind.HOPPE, DFKind.UHOPPE, DFKind.SED):
            ids, d = spatial.nearest_batch(self.index, q)
            dot = np.einsum("ij,ij->i", self.normals[ids], q - self.positions[ids])
            if kind is DFKind.HOPPE:
                return dot
            if kind is DFKind.UHOPPE:
                return np.abs(dot)
            return np.where(dot >= 0, 1.0, -1.0) * d
        if kind is DFKind.UWED:
            val, _ = self._weighted(q, want_plane=False)
            return val
        if kind in (DFKind.IMLS, DFKind.UIMLS):
            _, val = self._weighted(q, want_plane=True)
            return np.abs(val) if kind is DFKind.UIMLS else val
        if kind is DFKind.SWED:
            uwed, imls = self._weighted(q, want_plane=True)
            return np.where(imls >= 0, 1.0, -1.0) * uwed
        raise ContractError(f"unhandled kind {kind}")

    def _weighted(self, q: np.ndarray, want_plane: bool):
        """Gaussian-weighted averages over N_x.

        Returns (uwed, imls): the weighted mean Euclidean distance and,
        when ``want_plane``, the weighted mean point-to-plane distance
        (else NaN).  Undefined rows (empty N_x, underflowing weight sum)
        are NaN in both.
        """
        p = self.params
        ids, dists, lens = spatial.capped_ball_batch(
            self.index, q, p.neighbor_radius, p.max_neighbors
        )
        w = gaussian_weight(dists * dists, p.sigma)
        den = _segment_sums(w, lens)
        bad = (lens == 0) | (den < _WEIGHT_SUM_FLOOR)
        den_safe = np.where(bad, 1.0, den)
        uwed = _segment_sums(w * dists, lens) / den_safe
        uwed[bad] = np.nan
        imls = np.full(len(q), np.nan)
        if want_plane:
            rows = np.repeat(np.arange(len(q), dtype=np.int64), lens)
            dot = np.einsum("ij,ij->i", self.normals[ids], q[rows] - self.positions[ids])
            imls = _segment_sums(w * dot, lens) / den_safe
            imls[bad] = np.nan
        return uwed, imls


def make_evaluator(cloud: PointCloud, kind: DFKind, params: DFParams) -> _Evaluator:
    """Reusable evaluator for many queries against one cloud."""
    return _Evaluator(cloud, kind, params)


def evaluate(x, cloud: PointCloud, kind: DFKind, params: DFParams | None = None) -> float:
    """Value of ``kind`` at one point ``x``, in meters; NaN where undefined.

    ``params`` defaults to ``DFParams(sigma=1.0)``; the nearest-point
    kinds (Hoppe, SED, UED, UHoppe) do not read it.
    """
    ev = make_evaluator(cloud, kind, params or DFParams(sigma=1.0))
    return float(ev.batch(np.asarray(x, dtype=np.float64).reshape(1, 3))[0])


def _candidate_ranges(
    cloud: PointCloud, spec: GridSpec, reach: float
) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive node index ranges that can lie within ``reach`` of the cloud."""
    lo_w = cloud.positions.min(axis=0) - reach
    hi_w = cloud.positions.max(axis=0) + reach
    lo = np.ceil((lo_w - spec.origin) / spec.voxel_size).astype(np.int64)
    hi = np.floor((hi_w - spec.origin) / spec.voxel_size).astype(np.int64)
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, np.asarray(spec.dims) - 1)
    return lo, hi


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


def compute_grid(
    cloud: PointCloud, spec: GridSpec, kind: DFKind, params: DFParams
) -> SparseDFGrid:
    """Evaluate ``kind`` at candidate lattice nodes; store |v| < 3 voxel units.

    Candidate nodes are those within 3 * voxel_size (+1e-9 guard) of some
    cloud point; each is evaluated pointwise, divided by voxel_size, and
    kept only where defined and strictly inside the truncation band.  The
    candidate scan over the cloud's padded bounding box is one kd nearest
    query per node, bounded by that reach (plus the spatial module's 1e-9
    relative margin), so a node far from every point costs a short search
    instead of one all the way to the nearest surface.  The result is
    never flipped.  A cloud entirely outside the grid yields an empty grid
    and a warning.
    """
    if len(cloud) == 0:
        raise EmptyCloudError("compute_grid requires a non-empty cloud")
    evaluator = _Evaluator(cloud, kind, params)
    reach = 3.0 * spec.voxel_size + 1e-9
    bound = reach * (1.0 + spatial._RADIUS_MARGIN)
    lo, hi = _candidate_ranges(cloud, spec, reach)
    kept_idx: list[np.ndarray] = []
    kept_val: list[np.ndarray] = []
    if (lo <= hi).all():
        nj, nk = hi[1] - lo[1] + 1, hi[2] - lo[2] + 1
        per_slab = max(1, int(np.ceil(262144 / max(1, nj * nk))))
        for i0 in range(lo[0], hi[0] + 1, per_slab):
            i1 = min(i0 + per_slab - 1, hi[0])
            ii, jj, kk = np.meshgrid(
                np.arange(i0, i1 + 1),
                np.arange(lo[1], hi[1] + 1),
                np.arange(lo[2], hi[2] + 1),
                indexing="ij",
            )
            nodes_idx = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
            nodes_pos = spec.origin + nodes_idx * spec.voxel_size
            d_near, _ = evaluator.full_index.tree.query(
                nodes_pos,
                k=1,
                distance_upper_bound=bound,
                workers=spatial.get_num_threads(),
            )
            near = d_near <= reach
            if not near.any():
                continue
            nodes_idx, nodes_pos = nodes_idx[near], nodes_pos[near]
            vals = evaluator.batch(nodes_pos) / spec.voxel_size
            vals = quantize_values(vals)
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
    if levels < 1:
        raise ContractError("levels must be >= 1")
    grids = []
    for level in range(levels):
        factor = 2 ** level
        level_spec = GridSpec(
            origin=spec.origin,
            voxel_size=spec.voxel_size * factor,
            dims=tuple(-(-d // factor) for d in spec.dims),
        )
        level_params = dataclasses.replace(params, sigma=params.sigma * factor)
        grids.append(compute_grid(cloud, level_spec, kind, level_params))
    return grids
