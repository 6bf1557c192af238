"""Recover explicit point clouds from sparse distance-field grids.

Signed grids: one point per axis-aligned lattice edge whose endpoint
values have opposite signs, placed by linear interpolation.  Unsigned
grids: one point per candidate voxel (all six axis neighbors stored and
1 < udf < 3), projected along the finite-difference gradient direction.

A stored node finds its axis neighbours by code shift: the neighbour's
lexicographic code is the node's plus or minus the axis stride, tested
against the node's own axis index so that no shift wraps into the next
lattice line, and looked up with one ``searchsorted`` over the grid's
sorted codes.  A neighbour that is not stored reads NaN.

Flipped grids are un-flipped internally first; the geometric rules below
are all stated in non-flipped voxel units.  Output order is deterministic:
points follow the lexicographic order of their source voxel indices (for
signed grids, x-edge points first, then y, then z).
"""

from __future__ import annotations

import numpy as np

from . import dfield
from .core import PointCloud, SparseDFGrid, voxel_position
from .errors import WrongKindError

_GRAD_EPS = 1e-9


def _neighbour_values(grid: SparseDFGrid, rows, steps) -> list[np.ndarray]:
    """Stored values of the neighbours of stored nodes ``rows``, one array per (axis, step).

    ``rows`` selects stored nodes (a mask or index into ``grid.indices``);
    each (axis, step) pair, step being +1 or -1, names the neighbour at
    ``step`` along ``axis``.  Its code is the node's sorted code plus step
    times the axis stride, so one bounds test on the node's own axis index
    and one ``searchsorted`` over the codes, computed once, find it.  A
    neighbour outside dims or not stored reads NaN, as in ``values_at``.
    """
    _, ny, nz = dims = grid.spec.dims
    strides = (ny * nz, nz, 1)
    codes = np.append(grid.codes(), np.iinfo(np.int64).max)
    values = np.append(grid.values, np.nan)
    own, idx = codes[:-1][rows], grid.indices[rows]
    out = []
    for axis, step in steps:
        # A shift across the end of a lattice line (or of int64) is wrong, and masked.
        target = own + step * strides[axis]
        pos, moved = np.searchsorted(codes, target), idx[:, axis] + step
        inside = (0 <= moved) & (moved < dims[axis])
        out.append(np.where(inside & (codes[pos] == target), values[pos], np.nan))
    return out


def extract_sdf(grid: SparseDFGrid) -> PointCloud:
    """Zero-crossing points of a signed grid by edge interpolation.

    For each stored voxel a and its +x/+y/+z neighbor b (both stored)
    with sign(v_a) != sign(v_b) — zeros count as positive — emits
    pos_a + t * (pos_b - pos_a) with t = v_a / (v_a - v_b).  Each edge is
    visited once.
    """
    if not grid.kind.signed:
        raise WrongKindError(f"extract_sdf needs a signed grid, got {grid.kind.value}")
    if grid.flipped:
        grid = dfield.flip(grid)
    idx, va = grid.indices, grid.values
    points = []
    for axis, vb in enumerate(_neighbour_values(grid, slice(None), [(0, 1), (1, 1), (2, 1)])):
        # A missing neighbour reads NaN, which compares False either way.
        cross = np.where(va >= 0, vb < 0, vb >= 0)
        a, b = va[cross], vb[cross]
        t = a / (a - b)
        p = voxel_position(grid.spec, idx[cross]).astype(np.float64)
        p[:, axis] += t * grid.spec.voxel_size
        points.append(p)
    return PointCloud(np.concatenate(points))


def udf_candidates(grid: SparseDFGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate voxels of an unsigned grid with their projection data.

    Returns (indices, directions, udf): the (M, 3) candidate voxel
    indices (1 < udf < 3 strictly, gradient norm at least 1e-9), the unit
    finite-difference gradient directions, and the voxel-unit udf values.
    A missing axis neighbor reads NaN, so its voxel is never kept.
    """
    if grid.kind.signed:
        raise WrongKindError(f"unsigned extraction needs an unsigned grid, got {grid.kind.value}")
    if grid.flipped:
        grid = dfield.flip(grid)
    band = (grid.values > 1.0) & (grid.values < 3.0)
    idx, v = grid.indices[band], grid.values[band]
    shifted = _neighbour_values(grid, band, [(axis, step) for axis in range(3) for step in (1, -1)])
    grad = np.stack([up - down for up, down in zip(shifted[::2], shifted[1::2])], axis=1)
    norms = np.linalg.norm(grad, axis=1)
    keep = norms >= _GRAD_EPS
    return idx[keep], grad[keep] / norms[keep][:, None], v[keep]


def extract_udf(grid: SparseDFGrid) -> PointCloud:
    """Surface points of an unsigned grid by gradient projection.

    Each candidate voxel emits exactly one point,
    ``voxel_position - voxel_size * udf * direction``, whose distance to
    the voxel node is voxel_size * udf by construction.
    """
    idx, directions, udf = udf_candidates(grid)
    pos = voxel_position(grid.spec, idx).astype(np.float64)
    points = pos - grid.spec.voxel_size * udf[:, None] * directions
    return PointCloud(points)
