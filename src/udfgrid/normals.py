"""Per-point normal estimation (PCA over k nearest neighbors) and orientation.

A normal is the unit eigenvector for the smallest eigenvalue of the
neighborhood covariance.  Neighborhoods whose two smallest covariance
eigenvalues coincide within 1e-9 of the largest, lambda1 - lambda0 <=
1e-9 * lambda2 (collinear, coincident or otherwise rank-deficient
samples), have no well-defined normal; those rows are emitted as NaN and
treated as absent by every normal-dependent distance function.  The rule
is relative, so a scene scaled by a power of two marks the same rows.

Eigenvector signs are made deterministic (largest-magnitude component
positive) so estimation is reproducible; ``orient_normals`` then flips
each normal toward its point's sensor origin.
"""

from __future__ import annotations

import numpy as np

from . import spatial
from .core import PointCloud, as_count, as_instance
from .errors import InsufficientDataError, MissingDataError

_DEGENERATE_EIGENGAP = 1e-9


def estimate_normals(cloud: PointCloud, k: int = 30) -> PointCloud:
    """Estimate unit normals from the k-nearest-neighbor covariance.

    The point itself counts as one of its k neighbors.  Degenerate
    neighborhoods yield all-NaN rows.  Positions, sensor origins and their
    kd index (``spatial.support``) pass through unchanged; normals are replaced.
    """
    if len(as_instance(cloud, PointCloud, "cloud")) < 3:
        raise InsufficientDataError("normal estimation needs at least 3 points")
    k = as_count(k, "k", least=3)
    pos, _, index = spatial.support(cloud)
    kk = min(k, len(pos))
    # Rows are independent: chunking bounds the (kk, rows, 3) neighbourhood
    # so peak memory does not grow with k.
    normals = np.empty((len(pos), 3))
    step = spatial.chunk_rows(kk + 1)
    for lo in range(0, len(pos), step):
        normals[lo : lo + step] = _pca_normals(index, pos[lo : lo + step], kk)
    out = PointCloud(pos, normals, cloud.sensor_origins)
    spatial.support(out, index=index)
    return out


def _pca_normals(index: spatial.SpatialIndex, q: np.ndarray, kk: int) -> np.ndarray:
    """Sign-fixed PCA normals of the cloud points ``q``; NaN where degenerate."""
    ids, _, _ = spatial.knn_batch(index, q, kk)
    # Every query point is a cloud member, so each row has exactly kk hits.
    # Neighbour-major, (kk, rows, 3): a sum over the leading axis adds whole
    # (rows, 3) slices, neighbour after neighbour, so the mean and the
    # covariance are the additions, in the same order, of
    # ``neigh.mean(axis=1)`` and ``einsum("nki,nkj->nij")`` over (rows, kk, 3).
    centered = index.positions[ids.reshape(len(q), kk).T]
    centered -= centered.sum(axis=0) / kk
    cov = np.empty((len(q), 3, 3))
    for i in range(3):
        cov[:, i] = (centered[:, :, i : i + 1] * centered).sum(axis=0)
    cov /= kk
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0]
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / norms
    # Deterministic sign: make the largest-magnitude component positive.
    lead = np.take_along_axis(
        normals, np.argmax(np.abs(normals), axis=1)[:, None], axis=1
    )[:, 0]
    normals = np.where((lead < 0)[:, None], -normals, normals)
    degenerate = (eigvals[:, 1] - eigvals[:, 0]) <= _DEGENERATE_EIGENGAP * eigvals[:, 2]
    normals[degenerate] = np.nan
    return normals


def orient_normals(cloud: PointCloud) -> PointCloud:
    """Flip each normal to face its point's sensor origin.

    A normal n is negated when n . (sensor_origin - position) < 0; a dot
    product of exactly zero (grazing view) leaves it unchanged, as do NaN
    (invalid) normals.  Idempotent; a kept kd index passes on to the result.
    """
    if as_instance(cloud, PointCloud, "cloud").normals is None:
        raise MissingDataError("orient_normals requires normals")
    if cloud.sensor_origins is None:
        raise MissingDataError("orient_normals requires sensor origins")
    to_sensor = cloud.sensor_origins - cloud.positions
    dots = np.einsum("ij,ij->i", cloud.normals, to_sensor)
    flipped = np.where((dots < 0)[:, None], -cloud.normals, cloud.normals)
    out = PointCloud(cloud.positions, flipped, cloud.sensor_origins)
    if (index := spatial.kept_index(cloud)) is not None:
        spatial.support(out, index=index)
    return out
