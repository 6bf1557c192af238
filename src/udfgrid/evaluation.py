"""Chamfer distance and the roundtrip fidelity experiment.

The Chamfer distance between clouds P1, P2 is

    CD = 1/(2|P1|) * sum_x min_y ||x - y||  +  1/(2|P2|) * sum_y min_x ||y - x||

with unsquared Euclidean distances.  ``chamfer`` (kd-tree accelerated) and
``chamfer_bruteforce`` (exhaustive scan) agree bit-for-bit, not just within
tolerance: both compute every distance with the same canonical formula and
accumulate per-point minima in point-id order, and the accelerated path
takes each minimum from the exact nearest-neighbour selection in
``spatial``.

``roundtrip`` drives cloud -> grid -> extracted cloud -> CD against the
original cloud, the fidelity protocol all synthetic-scene acceptance
targets are phrased in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import dfield, extract, normals, spatial
from .core import DFKind, DFParams, GridSpec, PointCloud, SparseDFGrid
from .errors import ContractError, EmptyCloudError, MissingDataError


def _min_distances_bruteforce(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each row of ``a`` to its nearest row of ``b``, by exhaustive scan.

    Rows of ``a`` are independent; each chunk's (rows, len(b)) distances
    fit the spatial working budget (``spatial.chunk_rows``), so memory does
    not grow with len(b) and the minima are the same bits at any chunking.
    """
    mins = np.empty(len(a))
    step = spatial.chunk_rows(len(b))
    for lo in range(0, len(a), step):
        chunk = a[lo : lo + step]
        dx = chunk[:, 0][:, None] - b[None, :, 0]
        dy = chunk[:, 1][:, None] - b[None, :, 1]
        dz = chunk[:, 2][:, None] - b[None, :, 2]
        d = np.sqrt(dx * dx + dy * dy + dz * dz)
        mins[lo : lo + step] = d.min(axis=1)
    return mins


def _check_nonempty(p1: PointCloud, p2: PointCloud) -> None:
    if len(p1) == 0 or len(p2) == 0:
        raise EmptyCloudError("chamfer distance requires two non-empty clouds")


def chamfer(p1: PointCloud, p2: PointCloud) -> float:
    """Symmetric mean nearest-neighbor distance between two clouds (meters).

    Each cloud's kd index is the one it keeps (``spatial.cloud_index``), or
    a throw-away one if it keeps none.
    """
    _check_nonempty(p1, p2)
    a, b = p1.positions, p2.positions
    mins_ab = spatial._exact_neighbours(spatial.cloud_index(p2, keep=False), a, 1)[1][:, 0]
    mins_ba = spatial._exact_neighbours(spatial.cloud_index(p1, keep=False), b, 1)[1][:, 0]
    return float(mins_ab.sum() / (2.0 * len(a)) + mins_ba.sum() / (2.0 * len(b)))


def chamfer_bruteforce(p1: PointCloud, p2: PointCloud) -> float:
    """Exhaustive-scan chamfer; the oracle ``chamfer`` must match exactly."""
    _check_nonempty(p1, p2)
    a, b = p1.positions, p2.positions
    mins_ab = _min_distances_bruteforce(a, b)
    mins_ba = _min_distances_bruteforce(b, a)
    return float(mins_ab.sum() / (2.0 * len(a)) + mins_ba.sum() / (2.0 * len(b)))


@dataclass(frozen=True)
class RoundtripReport:
    """One cloud -> grid -> cloud experiment outcome."""

    kind: DFKind
    flipped: bool
    sigma: float
    voxel_size: float
    cd: float
    extracted_count: int
    occupied_voxels: int
    wall_time: float

    def __post_init__(self):
        if not self.cd >= 0:
            raise ContractError("cd must be non-negative")
        if self.extracted_count < 0 or self.occupied_voxels < 0:
            raise ContractError("counts must be non-negative")


def with_normals(cloud: PointCloud, kinds: list[DFKind]) -> PointCloud:
    """``cloud`` with oriented normals if some of ``kinds`` needs them.

    Normals are estimated and oriented from sensor origins only when the
    cloud has none; otherwise the cloud comes back as it is.  Preparing a
    cloud once for many roundtrips makes one estimate, and lets weighted
    kinds at one sigma share ``compute_grid``'s neighbourhood entry.
    """
    needy = [kind for kind in kinds if kind.requires_normals]
    if not needy or cloud.has_normals:
        return cloud
    if not cloud.has_sensor_origins:
        raise MissingDataError(
            f"{needy[0].value} needs normals; the cloud has neither normals nor "
            "sensor origins to estimate and orient them from"
        )
    return normals.orient_normals(normals.estimate_normals(cloud))


def roundtrip(
    cloud: PointCloud,
    spec: GridSpec,
    kind: DFKind,
    flipped: bool,
    params: DFParams,
) -> RoundtripReport:
    """Compute a grid, extract a cloud back, and measure CD to the original.

    Normal-dependent kinds use the cloud's normals, estimating and
    orienting them from sensor origins when absent.  Zero extracted
    points yields cd = +inf rather than an error, so parameter sweeps
    survive degenerate configurations.  ``flipped`` must be a bool.
    """
    if not isinstance(flipped, (bool, np.bool_)):
        raise ContractError(f"flipped must be a bool, got {flipped!r}")
    t0 = time.perf_counter()
    prepared = with_normals(cloud, [kind])
    grid = dfield.compute_grid(prepared, spec, kind, params)
    if flipped:
        grid = dfield.flip(grid)
    extracted = extract.extract_sdf(grid) if kind.signed else extract.extract_udf(grid)
    cd = chamfer(extracted, cloud) if len(extracted) else float("inf")
    return RoundtripReport(
        kind=kind,
        flipped=flipped,
        sigma=params.sigma,
        voxel_size=spec.voxel_size,
        cd=cd,
        extracted_count=len(extracted),
        occupied_voxels=len(grid),
        wall_time=time.perf_counter() - t0,
    )


def sigma_sweep(
    cloud: PointCloud,
    spec: GridSpec,
    kinds: list[DFKind],
    sigmas: list[float] | None = None,
    flipped: bool = False,
    max_neighbors: int = 36,
) -> list[RoundtripReport]:
    """One roundtrip per (kind, sigma); default sigmas are 1..4 voxel sizes.

    Every roundtrip averages over at most ``max_neighbors`` points, as in
    ``DFParams``.  Normals are estimated at most once (``with_normals``),
    before the roundtrips, so the reported wall times leave that estimate
    out.  Each of ``sigmas`` (a list, tuple or 1-D array) is checked first.
    """
    if sigmas is None:
        sigmas = [m * spec.voxel_size for m in (1.0, 2.0, 3.0, 4.0)]
    if not (isinstance(sigmas, (list, tuple)) or np.ndim(sigmas) == 1) or not len(sigmas):
        raise ContractError(f"sigmas must be non-empty and one-dimensional, got {sigmas!r}")
    params = [DFParams(sigma=sigma, max_neighbors=max_neighbors) for sigma in sigmas]
    cloud = with_normals(cloud, kinds)
    return [roundtrip(cloud, spec, kind, flipped, p) for kind in kinds for p in params]


def format_report_table(reports: list[RoundtripReport]) -> str:
    """Plain-text table of roundtrip results (CD in meters and cm)."""
    header = (
        f"{'kind':<8} {'flip':<5} {'sigma/vs':<9} {'cd [m]':>12} {'cd [cm]':>10} "
        f"{'points':>8} {'voxels':>8} {'time [s]':>9}"
    )
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.kind.value:<8} {str(r.flipped).lower():<5} {r.sigma / r.voxel_size:<9.2f} "
            f"{r.cd:>12.6f} {r.cd * 100.0:>10.4f} {r.extracted_count:>8} "
            f"{r.occupied_voxels:>8} {r.wall_time:>9.3f}"
        )
    return "\n".join(lines)
