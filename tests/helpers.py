"""Shared fixtures for the test suite: reference scenes and brute-force oracles.

The desk scene (floor plane + sphere + box, all separated by more than one
truncation band) is the standard integration scene; the brute-force spatial
oracles recompute distances with the same canonical formula the library
uses, ``sqrt(dx*dx + dy*dy + dz*dz)`` in float64, so set comparisons and
exact-equality checks against the accelerated paths are meaningful.
``brute_neighbours`` is the exact kernel's oracle, ``reference_pca_normals``
the PCA's, and ``reference_rows`` the value oracle of the eight distance
kinds.
"""

import math
import struct
from pathlib import Path

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
    SparseDFGrid,
    sample_scene,
    simulate_scans,
    write_grid,
)
from udfgrid import spatial

VOXEL_SIZE = 0.05
# 16 points per voxel face: 16 / (0.05 m)^2.
DENSITY = 16.0 / (VOXEL_SIZE * VOXEL_SIZE)
# The reference's own weight-sum floor: a row whose weights sum below it is
# undefined.  The library needs none, since every weight in N_x is at least e**-9.
WEIGHT_SUM_FLOOR = 1e-300
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


def brute_neighbours(points: np.ndarray, q: np.ndarray, k: int, r: float | None = None):
    """(ids, dists) as ``spatial._exact_neighbours`` returns them, by exhaustive scan.

    Every row sorts all its canonical distances by (distance, id) with a
    full ``lexsort`` and keeps the first min(k, n); with ``r``, entries
    beyond r become id n and distance inf.
    """
    n = len(points)
    ids = np.empty((len(q), min(k, n)), dtype=np.int64)
    dists = np.empty((len(q), min(k, n)))
    for row, x in enumerate(q):
        dist = canonical_dists(points, x)
        order = np.lexsort((np.arange(n), dist))[: min(k, n)]
        ids[row], dists[row] = order, dist[order]
    if r is not None:
        beyond = dists > r
        ids[beyond], dists[beyond] = n, np.inf
    return ids, dists


def spy_builds(monkeypatch) -> list:
    """The positions array of every ``spatial.build_index`` call from now on."""
    built, build = [], spatial.build_index

    def spy(positions):
        built.append(positions)
        return build(positions)

    monkeypatch.setattr(spatial, "build_index", spy)
    return built


def write_flipped_grid(path, kind: DFKind, value: float):
    """A one-voxel flipped UDFG file storing ``value`` as float32, past any range check."""
    spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.125, dims=(4, 4, 4))
    write_grid(SparseDFGrid(spec, kind, True, [[1, 2, 3]], [1.0]), path)
    data = bytearray(Path(path).read_bytes())
    data[-4:] = struct.pack("<f", value)
    Path(path).write_bytes(bytes(data))
    return path


def reference_pca_normals(positions: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """PCA normals from (rows, k) neighbour ids: ``mean`` and ``einsum`` over (rows, k, 3).

    ``normals._pca_normals`` must reproduce these covariance additions bit
    for bit; the eigenvector, sign and degeneracy rules are the library's.
    """
    neigh = positions[ids]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / ids.shape[1]
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0]
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    lead = np.take_along_axis(normals, np.argmax(np.abs(normals), axis=1)[:, None], axis=1)[:, 0]
    normals = np.where((lead < 0)[:, None], -normals, normals)
    normals[(eigvals[:, 1] - eigvals[:, 0]) <= 1e-9 * eigvals[:, 2]] = np.nan
    return normals


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
    An empty N_x or a weight sum below ``WEIGHT_SUM_FLOOR`` is undefined
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
        if ball and den >= WEIGHT_SUM_FLOOR:
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
