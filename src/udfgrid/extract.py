"""Recover explicit point clouds from sparse distance-field grids.

Signed grids: one point per axis-aligned lattice edge whose endpoint
values have opposite signs, placed by linear interpolation.  Unsigned
grids: one point per candidate voxel (all six axis neighbors stored and
1 < udf < 3), projected along the finite-difference gradient direction.

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
_AXES = np.eye(3, dtype=np.int64)


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
    for axis in range(3):
        vb, found = grid.values_at(idx + _AXES[axis])
        pos_a = (va >= 0)
        pos_b = (vb >= 0)
        cross = found & (pos_a != pos_b)
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
    grad = np.empty((len(idx), 3))
    for axis in range(3):
        grad[:, axis] = grid.values_at(idx + _AXES[axis])[0] - grid.values_at(idx - _AXES[axis])[0]
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
