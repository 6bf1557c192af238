"""Fundamental geometric types: point clouds, grid lattices, sparse field storage.

Distance-field values live on lattice NODES: the sample position of voxel
(i, j, k) is ``origin + (i, j, k) * voxel_size``.  Stored values are in voxel
units (metric distance divided by voxel size) and are truncated at 3.0: a
voxel index absent from a grid means "empty space / undefined".
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EmptyCloudError, OutOfBoundsError

TRUNCATION_VOXELS = 3.0
# Largest node count whose lexicographic codes fit ``linearize``'s int64.
MAX_NODES = 2**63 - 1
# Largest coordinate magnitude of a point, sensor origin or grid node: the
# squared differences of three coordinates within it stay finite in float64.
MAX_COORD = 2.0**500
# Smallest positive length (voxel size, sigma, radius): its square is a normal
# float64, and a coordinate span divided by it stays below about 2**1003.
MIN_LENGTH = 2.0**-500


def _as_real(a, name: str, what: str = "real numbers") -> np.ndarray:
    """``a`` as an array of integers or floats (dtype kind i, u or f); ContractError
    for any other dtype or a ragged list, before a cast could drop an imaginary part."""
    try:
        a = np.asarray(a)
    except ValueError:
        raise ContractError(f"{name} must be {what}") from None
    if a.dtype.kind not in "iuf":
        raise ContractError(f"{name} must be {what}, got {a.dtype}")
    return a


def _shape_rows(a, name: str, dtype=np.float64) -> np.ndarray:
    """One (3,) point or an (M, 3) array of real numbers as (M, 3) rows of
    ``dtype`` (None keeps numpy's); ContractError for any other shape or dtype.
    ``as_rows`` without the bound, for normals, whose NaN rows are legal, and
    for voxel indices."""
    a = np.asarray(_as_real(a, name, "numbers of shape (3,) or (M, 3)"), dtype=dtype)
    if a.ndim not in (1, 2) or a.shape[-1] != 3:
        raise ContractError(f"{name} must have shape (3,) or (M, 3), got {a.shape}")
    return a.reshape(-1, 3)


def as_rows(a, name: str) -> np.ndarray:
    """One (3,) point or an (M, 3) array as (M, 3) float64 rows; ContractError
    unless that is its shape and every coordinate is finite and within MAX_COORD."""
    a = _shape_rows(a, name)
    if not (np.abs(a) <= MAX_COORD).all():
        raise ContractError(f"{name} must be finite and within MAX_COORD = {MAX_COORD:g}")
    return a


def as_point(a, name: str) -> np.ndarray:
    """Exactly one (3,) point, checked as ``as_rows`` checks a row."""
    row = as_rows(a, name)
    if np.ndim(a) != 1:
        raise ContractError(f"{name} must have shape (3,), got {np.shape(a)}")
    return row[0]


def as_count(n, name: str, least: int = 1) -> int:
    """``n`` as an int; anything but an integer (not a bool) >= ``least`` raises ContractError."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ContractError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)


def as_length(x, name: str, zero: bool = False) -> float:
    """``x`` as a float; anything but a number MIN_LENGTH <= x <= MAX_COORD
    (0 <= x with ``zero``) raises ContractError."""
    v = float(x) if isinstance(x, (int, float, np.integer, np.floating)) else np.nan
    if not (0 <= v if zero else MIN_LENGTH <= v) or not v <= MAX_COORD:
        sign = "non-negative" if zero else "positive"
        least = "" if zero else f" and at least MIN_LENGTH = {MIN_LENGTH:g}"
        raise ContractError(
            f"{name} must be finite, {sign} and at most MAX_COORD = {MAX_COORD:g}{least},"
            f" got {x!r}"
        )
    return v


def _as_path(path):
    """``path`` if a str, bytes or os.PathLike, else ContractError (``open()`` takes int fds)."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ContractError(f"path must be a str, bytes or os.PathLike, got {path!r}")
    return path


def _owned(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``, so no caller can write into it afterwards."""
    a = a.copy()
    a.flags.writeable = False
    return a


def _as_indices(ijk) -> np.ndarray:
    """Voxel indices, one (i, j, k) or an (N, 3) array of integral values, as
    (N, 3) int64 rows; an empty list is no rows.  ContractError otherwise."""
    empty = isinstance(ijk, (list, tuple)) and len(ijk) == 0
    rows = _as_real(np.empty((0, 3)) if empty else ijk, "voxel indices", "integers")
    rows = _shape_rows(rows, "voxel indices", dtype=None)
    with np.errstate(invalid="ignore"):
        idx = rows.astype(np.int64, copy=False)
    if idx is not rows and not (idx == rows).all():
        raise ContractError("voxel indices must be integers within int64")
    return idx


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

    The cloud owns read-only copies of its arrays: writing into an array it
    was built from does not change it, and writing into one of its own
    raises ValueError.  So whatever is derived from a cloud and kept with
    it, such as ``compute_grid``'s neighbourhood entry, cannot go stale.
    """

    positions: np.ndarray
    normals: np.ndarray | None = None
    sensor_origins: np.ndarray | None = None

    def __post_init__(self):
        pos = as_rows(self.positions, "positions")
        object.__setattr__(self, "positions", _owned(pos))
        if self.normals is not None:
            nrm = _shape_rows(self.normals, "normals")
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
            object.__setattr__(self, "normals", _owned(nrm))
        if self.sensor_origins is not None:
            org = as_rows(self.sensor_origins, "sensor_origins")
            if len(org) != len(pos):
                raise ContractError("sensor_origins count must equal position count")
            object.__setattr__(self, "sensor_origins", _owned(org))

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
        object.__setattr__(self, "origin", as_point(self.origin, "origin"))
        object.__setattr__(self, "voxel_size", as_length(self.voxel_size, "voxel_size"))
        if not np.iterable(self.dims) or len(self.dims) != 3:
            raise ContractError(f"dims must be three integers >= 1, got {self.dims!r}")
        object.__setattr__(self, "dims", tuple(as_count(d, "dims") for d in self.dims))
        if self.dims[0] * self.dims[1] * self.dims[2] > MAX_NODES:
            raise ContractError(f"dims {self.dims} exceed {MAX_NODES} nodes")
        # voxel_size <= MAX_COORD and dims < 2**63 keep this product finite.
        as_point(self.origin + (np.asarray(self.dims) - 1) * self.voxel_size, "far corner")

    @classmethod
    def covering(cls, positions, voxel_size: float) -> "GridSpec":
        """Grid over the bounding box of ``positions`` padded by 3 voxels."""
        positions = as_rows(positions, "positions")
        if len(positions) == 0:
            raise EmptyCloudError("cannot cover an empty point set")
        voxel_size = as_length(voxel_size, "voxel_size")
        pad = TRUNCATION_VOXELS * voxel_size
        # Column by column: the same values as an axis-0 reduction, several times faster.
        origin = np.array([c.min() for c in positions.T]) - pad
        top = np.array([c.max() for c in positions.T]) + pad
        dims = np.floor((top - origin) / voxel_size + 1e-9) + 1
        if not (dims <= MAX_NODES).all():
            raise ContractError(f"covering grid at voxel_size {voxel_size} exceeds {MAX_NODES} nodes")
        return cls(origin=origin, voxel_size=voxel_size, dims=tuple(int(d) for d in dims))


def voxel_position(spec: GridSpec, idx) -> np.ndarray:
    """World position of lattice node(s) ``idx``: origin + idx * voxel_size.

    ``idx`` may be a single (i, j, k) triple or an (N, 3) array.
    """
    ia = _as_indices(idx)
    if ((ia < 0) | (ia >= np.asarray(spec.dims))).any():
        raise ContractError(f"voxel index {idx} outside dims {spec.dims}")
    pos = spec.origin + ia * spec.voxel_size
    return pos[0] if np.ndim(idx) == 1 and len(pos) == 1 else pos


def round_half_away_from_zero(x) -> np.ndarray:
    """Round to nearest integer with halves going away from zero.

    Unlike ``np.round`` (half-to-even), this tie rule is uniform across
    platforms and magnitudes: 0.5 -> 1, -0.5 -> -1, 1.5 -> 2.
    """
    x = _as_real(x, "x").astype(np.float64, copy=False)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def world_to_voxel(spec: GridSpec, p) -> np.ndarray:
    """Index of the lattice node nearest to world position(s) ``p``.

    Positions more than half a voxel outside the node lattice raise
    OutOfBoundsError; positions within that margin clamp to the boundary
    node.  Halfway points round away from zero per axis.  A (3,) position
    gives one (3,) index, (M, 3) positions an (M, 3) array.
    """
    rows = as_rows(p, "position")
    f = (rows - spec.origin) / spec.voxel_size
    hi = np.asarray(spec.dims) - 1
    if ((f < -0.5) | (f > hi + 0.5)).any():
        raise OutOfBoundsError(f"position {p} outside grid bounds by more than half a voxel")
    idx = np.clip(round_half_away_from_zero(f), 0, hi).astype(np.int64)
    return idx[0] if np.ndim(p) == 1 else idx


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
        object.__setattr__(self, "sigma", as_length(self.sigma, "sigma"))
        as_length(self.neighbor_radius, "neighbor_radius (3 * sigma)")
        object.__setattr__(self, "max_neighbors", as_count(self.max_neighbors, "max_neighbors"))

    @property
    def neighbor_radius(self) -> float:
        return 3.0 * self.sigma

    @classmethod
    def for_voxel_size(cls, voxel_size: float, **kwargs) -> "DFParams":
        """Default parameters for a grid: sigma = 2 * voxel_size."""
        return cls(sigma=2.0 * as_length(voxel_size, "voxel_size"), **kwargs)


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

    A flipped value must also un-flip (3 - |v|, signed like v) into the
    non-flipped range: 0 and magnitudes up to 2**-52 un-flip to 3.
    """

    spec: GridSpec
    kind: DFKind
    flipped: bool
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = _as_indices(self.indices)
        val = _as_real(self.values, "grid values").astype(np.float64, copy=False).reshape(-1)
        if len(idx) != len(val):
            raise ContractError("indices and values must have equal length")
        if (idx < 0).any() or (idx >= np.asarray(self.spec.dims)).any():
            raise ContractError("voxel indices outside grid dims")
        codes = linearize(self.spec.dims, idx)
        if not (np.diff(codes) > 0).all():
            order = np.argsort(codes, kind="stable")
            codes = codes[order]
            if (np.diff(codes) == 0).any():
                raise ContractError("duplicate voxel indices")
            idx, val = idx[order], val[order]
        t = TRUNCATION_VOXELS  # NaN and inf fail every range test below
        if self.kind.signed:
            ok = (np.abs(val) <= t) if self.flipped else ((val > -t) & (val < t))
        else:
            ok = ((val > 0) & (val <= t)) if self.flipped else ((val >= 0) & (val < t))
        if self.flipped:
            ok &= t - np.abs(val) < t
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
        vals, found = self.values_at(ijk)
        if len(vals) != 1:
            raise ContractError(f"value_at takes one (i, j, k) index, got {ijk!r}")
        return float(vals[0]) if found[0] else None

    def values_at(self, ijk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup: (values, found) for (N, 3) query indices.

        Entries not stored (or outside dims) report found=False with
        value NaN.  A sentinel code above every stored one ends the search; a
        row outside dims may wrap in ``linearize``, and ``inside`` masks it.
        """
        ijk = _as_indices(ijk)
        inside = ((ijk >= 0) & (ijk < np.asarray(self.spec.dims))).all(axis=1)
        codes = np.append(self.codes(), np.iinfo(np.int64).max)
        q = linearize(self.spec.dims, ijk)
        pos = np.searchsorted(codes, q)
        found = inside & (codes[pos] == q)
        return np.where(found, np.append(self.values, np.nan)[pos], np.nan), found
