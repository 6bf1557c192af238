"""Synthetic analytic scenes with exact ground truth.

Primitives (bounded plane patch, sphere, box, open cylinder) are sampled
with stratified randomness at an exact per-primitive count of
round(density * area) points, carrying exact analytic normals; a primitive
whose count would exceed ``MAX_POINTS`` (2**31 - 1) is refused when built.
Virtual scanning assigns each point its nearest sensor and adds isotropic
Gaussian noise; dropout removes whole scan groups; augmentation applies the
z-rotation / scale / jitter recipe used for training-style data expansion.

All generators are seed-deterministic, with independent per-primitive
substreams so the output never depends on evaluation order.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from . import spatial
from .core import PointCloud, _as_number, _as_path, as_count, as_instance, as_length, as_point
from .core import as_rows
from .errors import ContractError, MissingDataError, ParseError


def _stratified_unit_square(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n points stratified over [0,1)^2 (latin-hypercube pairing)."""
    u = (rng.permutation(n) + rng.random(n)) / n
    v = (np.arange(n) + rng.random(n)) / n
    return u, v


@dataclass(frozen=True)
class PlanePatch:
    """Bounded parallelogram: corner + a*edge_u + b*edge_v, a,b in [0,1]."""

    corner: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    density: float

    def __post_init__(self):
        object.__setattr__(self, "corner", as_point(self.corner, "corner"))
        object.__setattr__(self, "edge_u", as_point(self.edge_u, "edge_u"))
        object.__setattr__(self, "edge_v", as_point(self.edge_v, "edge_v"))
        if self.area() <= 0:
            raise ContractError("plane patch must have positive area")
        object.__setattr__(self, "density", _check_sampling(self))

    def area(self) -> float:
        return float(np.linalg.norm(np.cross(self.edge_u, self.edge_v)))

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        n = _count(self.density, self.area())
        a, b = _stratified_unit_square(n, rng)
        pts = self.corner + a[:, None] * self.edge_u + b[:, None] * self.edge_v
        normal = np.cross(self.edge_u, self.edge_v)
        normal = normal / np.linalg.norm(normal)
        return pts, np.broadcast_to(normal, (n, 3)).copy()


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float
    density: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center, "center"))
        object.__setattr__(self, "radius", as_length(self.radius, "sphere radius"))
        object.__setattr__(self, "density", _check_sampling(self))

    def area(self) -> float:
        return 4.0 * math.pi * self.radius * self.radius

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        # Area-preserving parameterization: z uniform, angle uniform.
        n = _count(self.density, self.area())
        u, v = _stratified_unit_square(n, rng)
        z = 1.0 - 2.0 * u
        phi = 2.0 * math.pi * v
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        normal = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
        return self.center + self.radius * normal, normal


@dataclass(frozen=True)
class Box:
    """Axis-aligned box sampled on all six faces, normals outward."""

    min_corner: np.ndarray
    max_corner: np.ndarray
    density: float

    def __post_init__(self):
        object.__setattr__(self, "min_corner", as_point(self.min_corner, "min"))
        object.__setattr__(self, "max_corner", as_point(self.max_corner, "max"))
        if not (self.max_corner > self.min_corner).all():
            raise ContractError("box must have positive extent on every axis")
        object.__setattr__(self, "density", _check_sampling(self))

    def area(self) -> float:
        e = self.max_corner - self.min_corner
        return float(2.0 * (e[0] * e[1] + e[1] * e[2] + e[0] * e[2]))

    def _faces(self) -> list[PlanePatch]:
        lo, hi, d = self.min_corner, self.max_corner, self.density
        e = hi - lo
        ex, ey, ez = np.diag(e)
        faces = []
        # Edge vectors are ordered so edge_u x edge_v points outward.
        faces.append(PlanePatch(lo, ey, ex, d))                      # bottom (-z)
        faces.append(PlanePatch(lo + ez, ex, ey, d))                 # top (+z)
        faces.append(PlanePatch(lo, ex, ez, d))                      # front (-y)
        faces.append(PlanePatch(lo + ey, ez, ex, d))                 # back (+y)
        faces.append(PlanePatch(lo, ez, ey, d))                      # left (-x)
        faces.append(PlanePatch(lo + ex, ey, ez, d))                 # right (+x)
        return faces

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        pts, nrm = [], []
        for face in self._faces():
            p, m = face.sample(rng)
            pts.append(p)
            nrm.append(m)
        return np.concatenate(pts), np.concatenate(nrm)


@dataclass(frozen=True)
class OpenCylinder:
    """Lateral surface only (no caps); normals point radially outward."""

    base_center: np.ndarray
    axis: np.ndarray
    radius: float
    height: float
    density: float

    def __post_init__(self):
        object.__setattr__(self, "base_center", as_point(self.base_center, "base_center"))
        axis = as_point(self.axis, "axis")
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ContractError("cylinder axis must be non-zero")
        object.__setattr__(self, "axis", axis / norm)
        object.__setattr__(self, "radius", as_length(self.radius, "cylinder radius"))
        object.__setattr__(self, "height", as_length(self.height, "cylinder height"))
        object.__setattr__(self, "density", _check_sampling(self))

    def area(self) -> float:
        return 2.0 * math.pi * self.radius * self.height

    def _frame(self) -> tuple[np.ndarray, np.ndarray]:
        # Deterministic orthonormal frame perpendicular to the axis.
        helper = np.zeros(3)
        helper[int(np.argmin(np.abs(self.axis)))] = 1.0
        e1 = np.cross(self.axis, helper)
        e1 = e1 / np.linalg.norm(e1)
        e2 = np.cross(self.axis, e1)
        return e1, e2

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        n = _count(self.density, self.area())
        u, v = _stratified_unit_square(n, rng)
        theta = 2.0 * math.pi * u
        h = self.height * v
        e1, e2 = self._frame()
        normal = np.outer(np.cos(theta), e1) + np.outer(np.sin(theta), e2)
        pts = self.base_center + self.radius * normal + np.outer(h, self.axis)
        return pts, normal


Primitive = PlanePatch | Sphere | Box | OpenCylinder


# Most points one primitive may sample, round(density * area); a larger
# count is refused when the primitive is built.
MAX_POINTS = 2**31 - 1


def _check_sampling(prim: Primitive) -> float:
    """``prim.density`` as a float by the length rule; ContractError past MAX_POINTS."""
    density = as_length(prim.density, "density (points per square meter)")
    if not density * prim.area() < MAX_POINTS + 0.5:
        raise ContractError(
            f"density {density:g} over area {prim.area():g} m^2 would sample more than "
            f"{MAX_POINTS} points"
        )
    return density


def _count(density: float, area: float) -> int:
    return int(round(density * area))


@dataclass(frozen=True)
class SceneSpec:
    """An ordered list of primitives, each with its own sampling density."""

    primitives: tuple

    def __post_init__(self):
        prims = tuple(self.primitives)
        if not prims:
            raise ContractError("scene must contain at least one primitive")
        for p in prims:
            if not isinstance(p, Primitive):
                raise ContractError(f"unsupported primitive type {type(p).__name__}")
        object.__setattr__(self, "primitives", prims)


@dataclass(frozen=True)
class ScanSpec:
    """Virtual scanning setup: sensors, per-point noise, scan dropout.

    ``noise_sigma`` is a non-negative length (0 means no noise), and
    ``dropout_fraction`` a number in [0, 1).
    """

    sensor_origins: np.ndarray
    noise_sigma: float = 0.0
    dropout_fraction: float = 0.0

    def __post_init__(self):
        org = as_rows(self.sensor_origins, "sensor origins")
        if len(org) < 1:
            raise ContractError("scan needs at least one sensor origin")
        object.__setattr__(self, "sensor_origins", org)
        noise = as_length(self.noise_sigma, "noise_sigma", zero=True)
        object.__setattr__(self, "noise_sigma", noise)
        object.__setattr__(self, "dropout_fraction",
                           _as_fraction(self.dropout_fraction, "dropout_fraction"))


def _as_fraction(f, name: str) -> float:
    """``f`` as a float; anything but a number (not a bool) 0 <= f < 1 raises ContractError."""
    v = _as_number(f)
    if not 0.0 <= v < 1.0:
        raise ContractError(f"{name} must be a number in [0, 1), got {f!r}")
    return v


def sample_scene(scene: SceneSpec, seed) -> PointCloud:
    """Noise-free surface samples with exact analytic normals.

    Each primitive draws from its own child random stream, so per-
    primitive generation order (or parallelism) cannot change the result
    for a given seed.
    """
    streams = np.random.SeedSequence(as_count(seed, "seed", least=0)).spawn(len(scene.primitives))
    pts, nrm = [], []
    for prim, stream in zip(scene.primitives, streams):
        p, m = prim.sample(np.random.default_rng(stream))
        pts.append(p)
        nrm.append(m)
    return PointCloud(np.concatenate(pts), np.concatenate(nrm))


def simulate_scans(cloud: PointCloud, scan: ScanSpec, seed) -> PointCloud:
    """Assign nearest sensors and add isotropic Gaussian position noise.

    Visibility is approximated by nearest-sensor assignment, computed
    from the noise-free positions; ties go to the lowest sensor id.  The
    result carries sensor origins but no normals: analytic normals are
    stale once noise moves points off their surfaces, so scans re-enter
    the pipeline normal-less (estimate from the scan when needed).  The
    (point x sensor) distances are taken ``spatial.chunk_rows(len(sensors))``
    points at a time, so memory does not grow with the sensor count.
    """
    seed = as_count(seed, "seed", least=0)
    sensors = scan.sensor_origins
    step = spatial.chunk_rows(len(sensors))
    nearest = np.empty(len(as_instance(cloud, PointCloud, "cloud")), dtype=np.int64)
    for lo in range(0, len(cloud), step):
        diff = cloud.positions[lo : lo + step, None, :] - sensors[None, :, :]
        nearest[lo : lo + step] = np.argmin(np.einsum("nsi,nsi->ns", diff, diff), axis=1)
    assigned = sensors[nearest]
    positions = cloud.positions
    if scan.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        positions = positions + rng.normal(0.0, scan.noise_sigma, positions.shape)
    return PointCloud(positions, None, assigned)


def apply_dropout(cloud: PointCloud, fraction: float, seed) -> PointCloud:
    """Remove ceil(fraction * num_scans) whole scan groups, chosen uniformly.

    Scans are grouped by identical sensor origin.  The ceiling is taken
    with a 1e-9 slack so that an exact fraction k/n removes exactly k
    groups despite float rounding.  A fraction that would remove every group
    raises ContractError naming the fraction and the group count.
    """
    if as_instance(cloud, PointCloud, "cloud").sensor_origins is None:
        raise MissingDataError("dropout groups points by sensor origin; none present")
    fraction, seed = _as_fraction(fraction, "dropout fraction"), as_count(seed, "seed", least=0)
    groups, inverse = np.unique(cloud.sensor_origins, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    n_groups = len(groups)
    n_remove = math.ceil(fraction * n_groups - 1e-9)
    if n_remove <= 0:
        return cloud
    if n_remove >= n_groups:
        raise ContractError(f"dropout fraction {fraction} would remove all {n_groups} scan groups")
    rng = np.random.default_rng(seed)
    removed = rng.choice(n_groups, size=n_remove, replace=False)
    keep = ~np.isin(inverse, removed)
    return cloud.select(keep)


def augment(cloud: PointCloud, seed, voxel_scale: float, jitter_sigma: float | None = None) -> PointCloud:
    """Random z-rotation, uniform scale in [0.8, 1.2] about the centroid,
    and per-point Gaussian jitter (default 0.25 * voxel_scale).

    ``jitter_sigma`` is a non-negative length: a non-finite or negative one
    raises ContractError naming it.  So is ``voxel_scale`` when it gives the
    default jitter; anything else there (text, None, complex) raises
    ContractError naming both.  Normals are rotated and re-normalized;
    sensor origins receive the same rotation and scaling (no jitter).  Draw
    order is fixed: angle, scale, then the jitter array.
    """
    if jitter_sigma is None:
        name = "voxel_scale (the default jitter_sigma is a quarter of it)"
        jitter_sigma = 0.25 * as_length(voxel_scale, name, zero=True)
    jitter_sigma = as_length(jitter_sigma, "jitter_sigma", zero=True)
    rng = np.random.default_rng(as_count(seed, "seed", least=0))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    scale = rng.uniform(0.8, 1.2)
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    centroid = as_instance(cloud, PointCloud, "cloud").positions.mean(axis=0)

    def transform(points: np.ndarray) -> np.ndarray:
        return centroid + scale * (points - centroid) @ rot.T

    positions = transform(cloud.positions)
    if jitter_sigma > 0:
        positions = positions + rng.normal(0.0, jitter_sigma, positions.shape)
    nrm = cloud.normals
    if nrm is not None:
        # Rows are unit or all-NaN (PointCloud's rule); a NaN row stays NaN.
        nrm = nrm @ rot.T
        nrm = nrm / np.linalg.norm(nrm, axis=1, keepdims=True)
    origins = None if cloud.sensor_origins is None else transform(cloud.sensor_origins)
    return PointCloud(positions, nrm, origins)


# -- declarative scene configuration -----------------------------------------

# Section type -> (class, vector keys, scalar keys).  Each class takes its
# vector keys, then its scalar keys, in the order listed.
_PRIMITIVES = {
    "plane": (PlanePatch, ("corner", "edge_u", "edge_v"), ("density",)),
    "sphere": (Sphere, ("center",), ("radius", "density")),
    "box": (Box, ("min", "max"), ("density",)),
    "cylinder": (OpenCylinder, ("base", "axis"), ("radius", "height", "density")),
}
_SCAN_KEYS = ("sensors", "noise_sigma", "dropout")


def _parse_floats(text: str, section: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ParseError(f"section [{section}] key {key!r}: not a number list: {text!r}") from None


def _require(section_items: dict, section: str, key: str) -> str:
    if key not in section_items:
        raise ParseError(f"section [{section}] is missing required key {key!r}")
    return section_items[key]


def load_scene_config(path) -> tuple[SceneSpec, ScanSpec | None]:
    """Parse a declarative scene file into (SceneSpec, optional ScanSpec).

    Sections are ``[plane]``/``[sphere]``/``[box]``/``[cylinder]`` (use a
    ``.label`` suffix, e.g. ``[plane.floor]``, for several of one type)
    plus an optional ``[scan]``; see the README for the full schema.
    """
    parser = configparser.ConfigParser()
    try:
        with open(_as_path(path), "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scene config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"malformed scene config {path}: {exc}") from exc

    primitives: list[Primitive] = []
    scan: ScanSpec | None = None
    for section in parser.sections():
        kind = section.split(".", 1)[0].strip().lower()
        if kind == "scan":
            keys = _SCAN_KEYS
        elif kind in _PRIMITIVES:
            cls, vectors, scalars = _PRIMITIVES[kind]
            keys = vectors + scalars
        else:
            raise ParseError(f"unknown section [{section}] in scene config")
        items = dict(parser.items(section))
        unknown = set(items) - set(keys)
        if unknown:
            raise ParseError(f"section [{section}] has unknown keys: {sorted(unknown)}")
        try:
            if kind == "scan":
                sensor_text = _require(items, section, "sensors")
                origins = [
                    _parse_floats(part, section, "sensors")
                    for part in sensor_text.split(";")
                    if part.strip()
                ]
                scan = ScanSpec(
                    np.asarray(origins, dtype=np.float64),
                    noise_sigma=float(items.get("noise_sigma", 0.0)),
                    dropout_fraction=float(items.get("dropout", 0.0)),
                )
            else:
                primitives.append(cls(
                    *(_parse_floats(_require(items, section, k), section, k) for k in vectors),
                    *(float(_require(items, section, k)) for k in scalars),
                ))
        except (ContractError, ValueError) as exc:
            raise ParseError(f"section [{section}]: {exc}") from exc
    if not primitives:
        raise ParseError("scene config defines no primitives")
    return SceneSpec(tuple(primitives)), scan
