"""Shared fixtures for the test suite: reference scenes and brute-force oracles.

The desk scene (floor plane + sphere + box, all separated by more than one
truncation band) is the standard integration scene; the brute-force spatial
oracles recompute distances with the same canonical formula the library
uses, ``sqrt(dx*dx + dy*dy + dz*dz)`` in float64, so set comparisons and
exact-equality checks against the accelerated paths are meaningful.
``reference_rows`` is the value oracle of the eight distance kinds.
"""

import math

import numpy as np

from udfgrid import (
    Box,
    DFKind,
    GridSpec,
    PlanePatch,
    PointCloud,
    ScanSpec,
    SceneSpec,
    Sphere,
    sample_scene,
    simulate_scans,
)
from udfgrid.dfield import _WEIGHT_SUM_FLOOR

VOXEL_SIZE = 0.05
# 16 points per voxel face: 16 / (0.05 m)^2.
DENSITY = 16.0 / (VOXEL_SIZE * VOXEL_SIZE)
SENSORS = np.array([
    [0.8, 0.8, 1.6],
    [-0.3, 0.8, 1.0],
    [1.9, 0.8, 1.0],
])


def desk_scene(density: float = DENSITY) -> SceneSpec:
    """Floor patch, sphere, and box, mutually separated by > 3 voxels."""
    return SceneSpec((
        PlanePatch((0.0, 0.0, 0.0), (1.6, 0.0, 0.0), (0.0, 1.6, 0.0), density),
        Sphere((0.45, 1.1, 0.5), 0.22, density),
        Box((0.9, 0.3, 0.3), (1.3, 0.7, 0.7), density),
    ))


def desk_cloud(seed: int = 42, density: float = DENSITY) -> PointCloud:
    """Noiseless sampling of the desk scene."""
    return sample_scene(desk_scene(density), seed)


def noisy_desk_cloud(seed: int) -> PointCloud:
    """Desk scene rescanned with Gaussian noise of 0.5 voxel."""
    clean = sample_scene(desk_scene(), seed)
    scan = ScanSpec(SENSORS, noise_sigma=0.5 * VOXEL_SIZE)
    return simulate_scans(clean, scan, seed + 1000)


def grid_spec_for(cloud: PointCloud, voxel_size: float = VOXEL_SIZE) -> GridSpec:
    """Grid covering the cloud plus the full truncation margin."""
    return GridSpec.covering(cloud.positions, voxel_size)


def plane_cloud(
    seed: int = 42,
    density: float = DENSITY,
    side: float = 1.0,
) -> PointCloud:
    """Open square patch in the z=0 plane with +z normals."""
    scene = SceneSpec((
        PlanePatch((0.0, 0.0, 0.0), (side, 0.0, 0.0), (0.0, side, 0.0), density),
    ))
    return sample_scene(scene, seed)


def canonical_dists(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances from each point to q with the library's exact formula."""
    d = np.asarray(points, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])


def brute_nearest(points: np.ndarray, q: np.ndarray) -> tuple[int, float]:
    """Lowest-id nearest point by exhaustive scan."""
    dist = canonical_dists(points, q)
    i = int(np.argmin(dist))  # argmin returns the first (lowest id) minimum
    return i, float(dist[i])


def brute_knn(points: np.ndarray, q: np.ndarray, k: int) -> list[tuple[int, float]]:
    """k nearest by exhaustive scan, sorted by (distance, id)."""
    dist = canonical_dists(points, q)
    order = np.lexsort((np.arange(len(points)), dist))[: min(k, len(points))]
    return [(int(i), float(dist[i])) for i in order]


def brute_radius(points: np.ndarray, q: np.ndarray, r: float) -> list[tuple[int, float]]:
    """All points with distance <= r by exhaustive scan, sorted by id."""
    dist = canonical_dists(points, q)
    ids = np.flatnonzero(dist <= r)
    return [(int(i), float(dist[i])) for i in ids]


def patch_distance(points: np.ndarray, side: float = 1.0) -> np.ndarray:
    """Exact distance from each point to the closed unit patch [0,side]^2 x {0}."""
    p = np.asarray(points, dtype=np.float64)
    dx = np.maximum(np.maximum(0.0 - p[:, 0], p[:, 0] - side), 0.0)
    dy = np.maximum(np.maximum(0.0 - p[:, 1], p[:, 1] - side), 0.0)
    dz = np.abs(p[:, 2])
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def reference_rows(cloud: PointCloud, kind: DFKind, sigma: float, cap: int, queries):
    """(values, plane distances, weight sums) of ``kind`` at each query row, from scratch.

    Plain Python per row, sharing no code with ``dfield``: exhaustive
    canonical distances over the support (the points with valid normals for
    normal kinds, else the whole cloud), ordered by (distance, id).  A
    weighted kind averages over N_x, the ``cap`` first points within
    3 sigma (boundary inclusive), with weights exp(-d**2 / sigma**2) summed
    by ``math.fsum``; a nearest kind reads the first point, with weight 1.
    An empty N_x or a weight sum below the library's floor is undefined
    (NaN), and sign(0) = +1.  Kinds without normals have NaN planes.
    """
    pos, nrm = cloud.positions, cloud.normals
    if kind.requires_normals:
        valid = ~np.isnan(nrm).any(axis=1)
        pos, nrm = pos[valid], nrm[valid]
    weighted = kind in (DFKind.UWED, DFKind.IMLS, DFKind.UIMLS, DFKind.SWED)
    rows = []
    for x in np.asarray(queries, dtype=np.float64).reshape(-1, 3):
        d = canonical_dists(pos, x) if len(pos) else np.empty(0)
        order = [int(i) for i in np.lexsort((np.arange(len(pos)), d))]
        if weighted:
            ball = [i for i in order if d[i] <= 3.0 * sigma][:cap]
            w = [math.exp(-(d[i] * d[i]) / (sigma * sigma)) for i in ball]
        else:
            ball, w = order[:1], [1.0] * len(order[:1])
        den = math.fsum(w)
        dist = plane = math.nan
        if ball and den >= _WEIGHT_SUM_FLOOR:
            dist = math.fsum(wi * d[i] for wi, i in zip(w, ball)) / den
            if nrm is not None:
                plane = math.fsum(
                    wi * (nrm[i, 0] * (x[0] - pos[i, 0]) + nrm[i, 1] * (x[1] - pos[i, 1])
                          + nrm[i, 2] * (x[2] - pos[i, 2]))
                    for wi, i in zip(w, ball)) / den
        if kind in (DFKind.UED, DFKind.UWED):
            value = dist
        elif kind in (DFKind.HOPPE, DFKind.IMLS):
            value = plane
        elif kind in (DFKind.UHOPPE, DFKind.UIMLS):
            value = abs(plane)
        else:
            value = (1.0 if plane >= 0 else -1.0) * dist
        rows.append((value, plane, den))
    values, planes, sums = np.array(rows, dtype=np.float64).reshape(-1, 3).T
    return values, planes, sums
