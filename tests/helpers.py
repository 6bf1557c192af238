"""Shared fixtures for the test suite: reference scenes and brute-force oracles.

The desk scene (floor plane + sphere + box, all separated by more than one
truncation band) is the standard integration scene; the brute-force spatial
oracles recompute distances with the same canonical formula the library
uses, ``sqrt(dx*dx + dy*dy + dz*dz)`` in float64, so set comparisons and
exact-equality checks against the accelerated paths are meaningful.
"""

import numpy as np

from udfgrid import (
    Box,
    GridSpec,
    PlanePatch,
    PointCloud,
    ScanSpec,
    SceneSpec,
    Sphere,
    sample_scene,
    simulate_scans,
)

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
