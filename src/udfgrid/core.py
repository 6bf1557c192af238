"""Fundamental geometric types: point clouds, grid lattices, sparse field storage.

Distance-field values live on lattice NODES: the sample position of voxel
(i, j, k) is ``origin + (i, j, k) * voxel_size``.  Stored values are in voxel
units (metric distance divided by voxel size) and are truncated at 3.0: a
voxel index absent from a grid means "empty space / undefined".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EmptyCloudError, OutOfBoundsError

TRUNCATION_VOXELS = 3.0
# Largest node count whose lexicographic codes fit ``linearize``'s int64.
MAX_NODES = 2**63 - 1


def _as_float_array(a, name: str, shape_tail: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1 and shape_tail == (3,) and arr.shape == (3,):
        pass
    elif arr.shape[1:] != shape_tail:
        raise ContractError(f"{name} must have trailing shape {shape_tail}, got {arr.shape}")
    return arr


class DFKind(enum.Enum):
    """The eight distance-function kinds, four signed and four unsigned."""

    HOPPE = "hoppe"
    IMLS = "imls"
    SED = "sed"
    SWED = "swed"
    UHOPPE = "uhoppe"
    UIMLS = "uimls"
    UED = "ued"
    UWED = "uwed"

    @property
    def signed(self) -> bool:
        return self in (DFKind.HOPPE, DFKind.IMLS, DFKind.SED, DFKind.SWED)

    @property
    def requires_normals(self) -> bool:
        """True for kinds whose value depends on point normals.

        UHoppe and UIMLS are absolute values of signed evaluators and SWED
        takes its sign from IMLS, so they need normals even though their
        stored values are unsigned (SWED excepted: it is signed).
        """
        return self not in (DFKind.UED, DFKind.UWED)

    @property
    def code(self) -> int:
        """Stable integer code used by the binary grid file format."""
        return _KIND_CODES[self]

    @classmethod
    def from_code(cls, code: int) -> "DFKind":
        for kind, c in _KIND_CODES.items():
            if c == code:
                return kind
        raise ContractError(f"unknown DFKind code {code}")

    @classmethod
    def parse(cls, name: str) -> "DFKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ContractError(f"unknown DF kind {name!r}; expected one of: {valid}") from None


_KIND_CODES = {
    DFKind.HOPPE: 0,
    DFKind.IMLS: 1,
    DFKind.SED: 2,
    DFKind.SWED: 3,
    DFKind.UHOPPE: 4,
    DFKind.UIMLS: 5,
    DFKind.UED: 6,
    DFKind.UWED: 7,
}


@dataclass(frozen=True)
class PointCloud:
    """Positions with optional unit normals and per-point sensor origins.

    ``normals`` rows are either unit vectors (norm within 1e-6 of 1) or
    all-NaN, the marker for "normal could not be estimated" produced by
    degenerate neighborhoods.  Evaluators that need normals treat NaN rows
    as absent points.
    """

    positions: np.ndarray
    normals: np.ndarray | None = None
    sensor_origins: np.ndarray | None = None

    def __post_init__(self):
        pos = _as_float_array(self.positions, "positions", (3,)).reshape(-1, 3)
        object.__setattr__(self, "positions", pos)
        if not np.isfinite(pos).all():
            raise ContractError("positions must be finite")
        if self.normals is not None:
            nrm = _as_float_array(self.normals, "normals", (3,)).reshape(-1, 3)
            if len(nrm) != len(pos):
                raise ContractError("normals count must equal position count")
            invalid = np.isnan(nrm).all(axis=1)
            rows = nrm[~invalid]
            # A component beyond 1 + 1e-6 already fails the norm test;
            # rejecting it first keeps huge values from overflowing the squares.
            if (np.abs(rows) - 1.0 > 1e-6).any() or not np.allclose(
                np.linalg.norm(rows, axis=1), 1.0, atol=1e-6, rtol=0.0
            ):
                raise ContractError("normals must be unit length within 1e-6")
            object.__setattr__(self, "normals", nrm)
        if self.sensor_origins is not None:
            org = _as_float_array(self.sensor_origins, "sensor_origins", (3,)).reshape(-1, 3)
            if len(org) != len(pos):
                raise ContractError("sensor_origins count must equal position count")
            if not np.isfinite(org).all():
                raise ContractError("sensor_origins must be finite")
            object.__setattr__(self, "sensor_origins", org)

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    @property
    def has_sensor_origins(self) -> bool:
        return self.sensor_origins is not None

    def select(self, mask_or_ids) -> "PointCloud":
        """Sub-cloud at the given boolean mask or index array."""
        return PointCloud(
            self.positions[mask_or_ids],
            None if self.normals is None else self.normals[mask_or_ids],
            None if self.sensor_origins is None else self.sensor_origins[mask_or_ids],
        )


@dataclass(frozen=True)
class GridSpec:
    """Lattice geometry: origin (meters), voxel size (meters), node counts."""

    origin: np.ndarray
    voxel_size: float
    dims: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "origin", _as_float_array(self.origin, "origin", (3,)))
        object.__setattr__(self, "voxel_size", _check_voxel_size(self.voxel_size))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not np.isfinite(self.origin).all():
            raise ContractError("origin must be finite")
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ContractError("dims must be three integers >= 1")
        if self.dims[0] * self.dims[1] * self.dims[2] > MAX_NODES:
            raise ContractError(f"dims {self.dims} exceed {MAX_NODES} nodes")

    @classmethod
    def covering(cls, positions, voxel_size: float) -> "GridSpec":
        """Grid over the bounding box of ``positions`` padded by 3 voxels."""
        positions = np.asarray(positions, dtype=np.float64)
        if len(positions) == 0:
            raise EmptyCloudError("cannot cover an empty point set")
        voxel_size = _check_voxel_size(voxel_size)
        pad = TRUNCATION_VOXELS * voxel_size
        with np.errstate(over="ignore"):
            origin = positions.min(axis=0) - pad
            top = positions.max(axis=0) + pad
            dims = np.floor((top - origin) / voxel_size + 1e-9) + 1
        if not (dims <= MAX_NODES).all():
            raise ContractError(f"covering grid at voxel_size {voxel_size} exceeds {MAX_NODES} nodes")
        return cls(origin=origin, voxel_size=voxel_size, dims=tuple(int(d) for d in dims))


def _check_voxel_size(voxel_size) -> float:
    """``voxel_size`` as a float; it must be finite and positive."""
    v = float(voxel_size)
    if not (np.isfinite(v) and v > 0):
        raise ContractError(f"voxel_size must be finite and positive, got {v}")
    return v


def voxel_position(spec: GridSpec, idx) -> np.ndarray:
    """World position of lattice node(s) ``idx``: origin + idx * voxel_size.

    ``idx`` may be a single (i, j, k) triple or an (N, 3) array.
    """
    ia = np.asarray(idx)
    if ((ia < 0) | (ia >= np.asarray(spec.dims))).any():
        raise ContractError(f"voxel index {idx} outside dims {spec.dims}")
    return spec.origin + ia * spec.voxel_size


def round_half_away_from_zero(x) -> np.ndarray:
    """Round to nearest integer with halves going away from zero.

    Unlike ``np.round`` (half-to-even), this tie rule is uniform across
    platforms and magnitudes: 0.5 -> 1, -0.5 -> -1, 1.5 -> 2.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def world_to_voxel(spec: GridSpec, p) -> np.ndarray:
    """Index of the lattice node nearest to world position(s) ``p``.

    Positions more than half a voxel outside the node lattice raise
    OutOfBoundsError; positions within that margin clamp to the boundary
    node.  Halfway points round away from zero per axis.
    """
    p = np.asarray(p, dtype=np.float64)
    f = (p - spec.origin) / spec.voxel_size
    hi = np.asarray(spec.dims) - 1
    if ((f < -0.5) | (f > hi + 0.5)).any():
        raise OutOfBoundsError(f"position {p} outside grid bounds by more than half a voxel")
    idx = round_half_away_from_zero(f)
    return np.clip(idx, 0, hi).astype(np.int64)


@dataclass(frozen=True)
class DFParams:
    """Evaluation parameters for the weighted distance functions.

    sigma
        Gaussian weight scale in meters; the usual choice is twice the
        voxel size.
    max_neighbors
        Cap on the number of neighborhood points actually averaged: the
        weighted evaluators use the ``max_neighbors`` nearest cloud points
        inside the 3-sigma ball.  Keeps the effective support of the
        average local on densely sampled surfaces, which the roundtrip
        fidelity targets require (see the repository decision log).

    ``neighbor_radius`` is derived: the 3-sigma ball radius in meters
    (weights beyond it are below e**-9).  Normal estimation is not a
    parameter here: ``roundtrip`` estimates missing normals with
    ``estimate_normals``' default neighborhood size.
    """

    sigma: float
    max_neighbors: int = 36

    def __post_init__(self):
        object.__setattr__(self, "sigma", float(self.sigma))
        if not self.sigma > 0:
            raise ContractError("sigma must be positive")
        if int(self.max_neighbors) < 1:
            raise ContractError("max_neighbors must be >= 1")
        object.__setattr__(self, "max_neighbors", int(self.max_neighbors))

    @property
    def neighbor_radius(self) -> float:
        return 3.0 * self.sigma

    @classmethod
    def for_voxel_size(cls, voxel_size: float, **kwargs) -> "DFParams":
        """Default parameters for a grid: sigma = 2 * voxel_size."""
        return cls(sigma=2.0 * float(voxel_size), **kwargs)


def linearize(dims: tuple[int, int, int], ijk: np.ndarray) -> np.ndarray:
    """Lexicographic linear code of (N, 3) indices: i major, k minor."""
    ijk = np.asarray(ijk, dtype=np.int64)
    _, ny, nz = dims
    return (ijk[..., 0] * ny + ijk[..., 1]) * nz + ijk[..., 2]


@dataclass(frozen=True)
class SparseDFGrid:
    """Sparse map from voxel index to truncated DF value in voxel units.

    ``indices`` is an (N, 3) int array sorted lexicographically with no
    duplicates; ``values`` is the matching (N,) float64 array.  Value
    ranges by kind (enforced at construction):

    ==============  ===========  ===========
    kind            non-flipped  flipped
    ==============  ===========  ===========
    unsigned        [0, 3)       (0, 3]
    signed          (-3, 3)      [-3, 3]
    ==============  ===========  ===========
    """

    spec: GridSpec
    kind: DFKind
    flipped: bool
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1, 3)
        val = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if len(idx) != len(val):
            raise ContractError("indices and values must have equal length")
        if len(idx):
            if idx.min() < 0 or (idx >= np.asarray(self.spec.dims)).any():
                raise ContractError("voxel indices outside grid dims")
            codes = linearize(self.spec.dims, idx)
            if not (np.diff(codes) > 0).all():
                order = np.argsort(codes, kind="stable")
                codes = codes[order]
                if (np.diff(codes) == 0).any():
                    raise ContractError("duplicate voxel indices")
                idx, val = idx[order], val[order]
            if not np.isfinite(val).all():
                raise ContractError("grid values must be finite")
            t = TRUNCATION_VOXELS
            if self.kind.signed:
                ok = (np.abs(val) <= t) if self.flipped else ((val > -t) & (val < t))
            else:
                ok = ((val > 0) & (val <= t)) if self.flipped else ((val >= 0) & (val < t))
            if not ok.all():
                raise ContractError(
                    f"values outside the valid range for {self.kind.value}"
                    f" (flipped={self.flipped})"
                )
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    def __len__(self) -> int:
        return len(self.values)

    def codes(self) -> np.ndarray:
        """Sorted linear codes of the stored indices."""
        return linearize(self.spec.dims, self.indices)

    def value_at(self, ijk) -> float | None:
        """Stored value at one index, or None if the voxel is empty."""
        vals, found = self.values_at(np.asarray(ijk).reshape(1, 3))
        return float(vals[0]) if found[0] else None

    def values_at(self, ijk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup: (values, found) for (N, 3) query indices.

        Entries not stored (or outside dims) report found=False with
        value NaN.
        """
        ijk = np.asarray(ijk, dtype=np.int64).reshape(-1, 3)
        out = np.full(len(ijk), np.nan)
        inside = ((ijk >= 0) & (ijk < np.asarray(self.spec.dims))).all(axis=1)
        found = np.zeros(len(ijk), dtype=bool)
        if len(self.values) and inside.any():
            codes = self.codes()
            q = linearize(self.spec.dims, ijk[inside])
            pos = np.searchsorted(codes, q)
            pos_c = np.minimum(pos, len(codes) - 1)
            hit = codes[pos_c] == q
            sub_vals = np.where(hit, self.values[pos_c], np.nan)
            out[inside] = sub_vals
            found[inside] = hit
        return out, found
