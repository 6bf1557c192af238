"""Fundamental geometric types: point clouds, grid lattices, sparse field storage.

Distance-field values live on lattice NODES: the sample position of voxel
(i, j, k) is ``origin + (i, j, k) * voxel_size``.  Stored values are in voxel
units (metric distance divided by voxel size) and are truncated at 3.0: a
voxel index absent from a grid means "empty space / undefined".  A grid keeps
each voxel as its int64 ``linearize`` code and float64 value, 16 B.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field

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
        # numpy keeps a Python int past both int64 and uint64 as an object.
        huge = a.dtype == object and any(
            isinstance(v, int) and not -(2**63) <= v < 2**64 for v in a.flat
        )
        raise ContractError(
            f"{name} must be {what}, got {'an integer outside int64' if huge else a.dtype}"
        )
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


def _as_number(x) -> float:
    """The number rule: ``x`` as a float if it is an int, a float or a numpy
    integer or float scalar, and not a bool; else NaN, which fails every bound."""
    real = isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
    return float(x) if real else np.nan


def as_flag(b, name: str) -> bool:
    """The flag rule: ``b`` as a bool if it is a bool or ``np.bool_``, else ContractError."""
    if not isinstance(b, (bool, np.bool_)):
        raise ContractError(f"{name} must be a bool, got {b!r}")
    return bool(b)


def as_count(n, name: str, least: int = 1) -> int:
    """``n`` as an int; anything but an integer (not a bool) >= ``least`` raises ContractError."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ContractError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)


def as_length(x, name: str, zero: bool = False) -> float:
    """``x`` as a float; anything but a number (not a bool) MIN_LENGTH <= x <=
    MAX_COORD (0 <= x with ``zero``) raises ContractError."""
    v = _as_number(x)
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


def as_instance(value, cls: type, name: str):
    """``value`` if it is a ``cls``, else ContractError naming ``name`` and the type given."""
    if not isinstance(value, cls):
        raise ContractError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


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
    """The eight distance-function kinds.  A row is the kind's name (its value),
    UDFG file ``code``, estimator (``weighted``, else the nearest point) and value
    ``rule``, which ``dfield`` applies; ``signed`` and ``requires_normals`` follow."""

    HOPPE = ("hoppe", 0, False, "plane")
    IMLS = ("imls", 1, True, "plane")
    SED = ("sed", 2, False, "signed_distance")
    SWED = ("swed", 3, True, "signed_distance")
    UHOPPE = ("uhoppe", 4, False, "abs_plane")
    UIMLS = ("uimls", 5, True, "abs_plane")
    UED = ("ued", 6, False, "distance")
    UWED = ("uwed", 7, True, "distance")

    def __new__(cls, name: str, code: int, weighted: bool, rule: str):
        kind = object.__new__(cls)
        kind._value_, kind.code, kind.weighted, kind.rule = name, code, weighted, rule
        kind.signed = rule in ("plane", "signed_distance")
        kind.requires_normals = rule != "distance"  # the other rules read the tangent plane
        return kind

    @classmethod
    def from_code(cls, code: int) -> "DFKind":
        for kind in cls:
            if kind.code == code:
                return kind
        raise ContractError(f"unknown DFKind code {code}")

    @classmethod
    def parse(cls, name: str) -> "DFKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ContractError(f"unknown DF kind {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Positions with optional unit normals and per-point sensor origins.

    ``normals`` rows are either unit vectors (norm within 1e-6 of 1) or
    all-NaN, the marker for "normal could not be estimated" produced by
    degenerate neighborhoods.  Evaluators that need normals treat NaN rows
    as absent points.

    The cloud owns read-only copies of its arrays: writing into an array it
    was built from does not change it, and writing into one of its own
    raises ValueError.  So what ``spatial.support`` keeps on a cloud cannot
    go stale.  Clouds compare by identity, never by their arrays.
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

    origin: np.ndarray = field(compare=False)
    voxel_size: float
    dims: tuple[int, int, int]
    _origin_bits: bytes = field(init=False, repr=False)  # == and hash: by value, origin by bits

    def __post_init__(self):
        object.__setattr__(self, "origin", as_point(self.origin, "origin"))
        object.__setattr__(self, "_origin_bits", self.origin.tobytes())
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


def delinearize(dims: tuple[int, int, int], codes: np.ndarray) -> np.ndarray:
    """(N, 3) int64 indices of codes below the node count: ``linearize`` undone."""
    return np.stack(np.unravel_index(codes, dims), axis=1)


@dataclass(frozen=True, eq=False, init=False)
class SparseDFGrid:
    """Sparse map from voxel index to truncated DF value in voxel units.

    A grid owns two read-only arrays, 16 B per voxel: ``codes()``, the strictly
    increasing int64 ``linearize`` codes of its voxel indices, and the matching
    float64 ``values``; ``indices`` is rebuilt from the codes on every read.  The
    constructor sorts its (N, 3) indices, and copies ``values`` only when the
    array it would keep is the caller's.  Value ranges by kind (enforced at construction):

    ==============  ===========  ===========
    kind            non-flipped  flipped
    ==============  ===========  ===========
    unsigned        [0, 3)       (0, 3]
    signed          (-3, 3)      [-3, 3]
    ==============  ===========  ===========

    A flipped value must also un-flip (3 - |v|, signed like v) into the non-flipped
    range: 0 and magnitudes up to 2**-52 un-flip to 3.  Grids compare by identity.
    """

    spec: GridSpec
    kind: DFKind
    flipped: bool
    values: np.ndarray
    _codes: np.ndarray = field(repr=False)

    def __init__(self, spec: GridSpec, kind: DFKind, flipped: bool, indices, values):
        flipped = as_flag(flipped, "flipped")
        spec, kind = as_instance(spec, GridSpec, "spec"), as_instance(kind, DFKind, "kind")
        idx = _as_indices(indices)
        val = _as_real(values, "grid values").astype(np.float64, copy=False).reshape(-1)
        if len(idx) != len(val):
            raise ContractError("indices and values must have equal length")
        if (idx < 0).any() or (idx >= np.asarray(spec.dims)).any():
            raise ContractError("voxel indices outside grid dims")
        val = val.copy() if np.may_share_memory(val, values) else val
        self._keep(spec, kind, flipped, linearize(spec.dims, idx), val)

    @classmethod
    def _from_codes(cls, spec, kind, flipped: bool, codes, values) -> "SparseDFGrid":
        """The grid of int64 ``codes`` below the node count and float64 ``values``, which
        the library has just built and hands over without a copy."""
        grid = object.__new__(cls)
        grid._keep(spec, kind, flipped, codes, values)
        return grid

    def _keep(self, spec, kind, flipped, codes, values) -> None:
        """Sort by code, refuse duplicates and values outside the kind's range, and
        keep both arrays, read-only.  Temporaries take 2 B per voxel."""
        if not (codes[1:] > codes[:-1]).all():
            order = np.argsort(codes, kind="stable")
            codes, values = codes[order], values[order]
            if not (codes[1:] > codes[:-1]).all():
                raise ContractError("duplicate voxel indices")
        t = TRUNCATION_VOXELS  # NaN propagates into lo and hi, and fails every test
        lo, hi = (values.min(), values.max()) if len(values) else (1.0, 1.0)
        if kind.signed:
            ok = (-t <= lo and hi <= t) if flipped else (-t < lo and hi < t)
        else:
            ok = (0 < lo and hi <= t) if flipped else (0 <= lo and hi < t)
        if ok and flipped:  # 3 - |v| rounds to 3 exactly when |v| <= 2**-52
            tiny = values >= -(2.0**-52)
            tiny &= values <= 2.0**-52
            ok = not tiny.any()
        if not ok:
            raise ContractError(
                f"values outside the valid range for {kind.value} (flipped={flipped})"
            )
        codes.flags.writeable = values.flags.writeable = False
        for name, value in zip(("spec", "kind", "flipped", "values", "_codes"),
                               (spec, kind, flipped, values, codes)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def indices(self) -> np.ndarray:
        """(N, 3) int64 voxel indices in code order, rebuilt on every read (O(N))."""
        return delinearize(self.spec.dims, self._codes)

    def codes(self) -> np.ndarray:
        """The stored sorted linear codes of the voxel indices (read-only)."""
        return self._codes

    def value_at(self, ijk) -> float | None:
        """Stored value at one index, or None if the voxel is empty."""
        vals, found = self.values_at(ijk)
        if len(vals) != 1:
            raise ContractError(f"value_at takes one (i, j, k) index, got {ijk!r}")
        return float(vals[0]) if found[0] else None

    def values_at(self, ijk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup: (values, found) for (N, 3) query indices.

        Entries not stored (or outside dims) report found=False with
        value NaN.  A row outside dims may wrap in ``linearize``, and is masked.
        """
        ijk = _as_indices(ijk)
        inside = ((ijk >= 0) & (ijk < np.asarray(self.spec.dims))).all(axis=1)
        values = self._lookup(linearize(self.spec.dims, ijk), inside)
        return values, ~np.isnan(values)  # no stored value is NaN

    def _lookup(self, q: np.ndarray, inside: np.ndarray) -> np.ndarray:
        """Stored values at codes ``q`` where ``inside``, else NaN; a sentinel
        code above every stored one ends the search."""
        codes = np.append(self._codes, np.iinfo(np.int64).max)
        pos = np.searchsorted(codes, q)
        return np.where(inside & (codes[pos] == q), np.append(self.values, np.nan)[pos], np.nan)
