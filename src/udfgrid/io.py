"""File formats: PLY point clouds and the UDFG binary sparse-grid format.

Both formats are canonical-bytes: identical inputs produce byte-identical
files on any platform (little-endian payloads, records sorted, 17-digit
ASCII floats).  Parse failures raise ParseError carrying the byte offset
of the offending data.

UDFG layout (all little-endian)::

    offset size  field
    0      4     magic "UDFG"
    4      4     format version, u32 == 1
    8      1     kind code, u8 (hoppe=0 imls=1 sed=2 swed=3
                               uhoppe=4 uimls=5 ued=6 uwed=7)
    9      1     flipped flag, u8 (0 or 1)
    10     12    dims, 3 x u32
    22     24    origin, 3 x f64 (meters)
    46     8     voxel_size, f64 (meters)
    54     8     value count, u64
    62     16*n  records: i u32, j u32, k u32, value f32 (voxel units),
                 strictly sorted by (i, j, k)
"""

from __future__ import annotations

import re
import struct
from io import BytesIO

import numpy as np

from .core import MAX_NODES, DFKind, GridSpec, PointCloud, SparseDFGrid, as_point, linearize
from .core import _as_path, as_flag
from .errors import ContractError, ParseError

# Rows of an ASCII PLY body formatted per write, so that the text and the
# Python floats held at once stay a few MiB whatever the cloud size.
_ASCII_ROWS = 4096
_MAGIC = b"UDFG"
_HEADER_STRUCT = struct.Struct("<4sIBB3I3ddQ")
_RECORD_DTYPE = np.dtype([("i", "<u4"), ("j", "<u4"), ("k", "<u4"), ("v", "<f4")])

_PLY_NUMPY = {
    "char": "<i1", "int8": "<i1", "uchar": "<u1", "uint8": "<u1",
    "short": "<i2", "int16": "<i2", "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4",
    "float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
}
_KNOWN_PROPS = ("x", "y", "z", "nx", "ny", "nz", "sx", "sy", "sz")


# -- PLY ----------------------------------------------------------------------


def write_ply(cloud: PointCloud, path, binary: bool = True) -> None:
    """Write positions (+normals, +sensor origins when present) as PLY.

    Coordinates are double precision; binary mode round-trips them
    bit-exactly, ASCII mode through 17-significant-digit decimals.
    ``binary`` must be a bool or ``np.bool_``.
    """
    binary = as_flag(binary, "binary")
    columns = [cloud.positions]
    names = ["x", "y", "z"]
    if cloud.normals is not None:
        columns.append(cloud.normals)
        names += ["nx", "ny", "nz"]
    if cloud.sensor_origins is not None:
        columns.append(cloud.sensor_origins)
        names += ["sx", "sy", "sz"]
    data = np.concatenate(columns, axis=1)
    fmt = "binary_little_endian" if binary else "ascii"
    header_lines = ["ply", f"format {fmt} 1.0", f"element vertex {len(cloud)}"]
    header_lines += [f"property double {n}" for n in names]
    header_lines.append("end_header")
    header = ("\n".join(header_lines) + "\n").encode("ascii")
    with open(_as_path(path), "wb") as fh:
        fh.write(header)
        if binary:
            fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())
        else:
            # One format call per row; "%.17g" formats a float as format(v, ".17g").
            line = " ".join(["%.17g"] * data.shape[1]) + "\n"
            for lo in range(0, len(data), _ASCII_ROWS):
                rows = data[lo : lo + _ASCII_ROWS].tolist()
                fh.write("".join([line % tuple(row) for row in rows]).encode("ascii"))


def _header_lines(data: bytes, path) -> tuple[list[tuple[int, str]], int]:
    """Header as (byte offset, text) lines plus the body start offset."""
    end = data.find(b"end_header")
    if end < 0:
        raise ParseError(f"{path}: missing end_header", offset=0)
    nl = data.find(b"\n", end)
    body_start = (nl + 1) if nl >= 0 else len(data)
    lines = []
    pos = 0
    for raw in data[:body_start].split(b"\n")[:-1]:
        try:
            text = raw.decode("ascii").rstrip("\r")
        except UnicodeDecodeError:
            raise ParseError(f"{path}: non-ASCII bytes in header", offset=pos) from None
        lines.append((pos, text))
        pos += len(raw) + 1
    return lines, body_start


def read_ply(path) -> PointCloud:
    """Read an ASCII or binary_little_endian PLY vertex cloud.

    Requires x,y,z float properties; picks up nx,ny,nz and sx,sy,sz when
    present; skips other scalar vertex properties.  Elements after the
    vertex data (faces etc.) are ignored.
    """
    with open(_as_path(path), "rb") as fh:
        data = fh.read()
    lines, body_start = _header_lines(data, path)
    if not lines or lines[0][1].strip() != "ply":
        raise ParseError(f"{path}: not a PLY file (missing 'ply' magic)", offset=0)
    fmt = None
    count = None
    props: list[tuple[str, str]] = []
    in_vertex = False
    for off, text in lines[1:]:
        parts = text.split()
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            if len(parts) != 3 or parts[2] != "1.0" or parts[1] not in (
                "ascii",
                "binary_little_endian",
            ):
                raise ParseError(f"{path}: unsupported format line {text!r}", offset=off)
            fmt = parts[1]
        elif parts[0] == "element":
            if len(parts) != 3:
                raise ParseError(f"{path}: malformed element line {text!r}", offset=off)
            if parts[1] == "vertex":
                if count is not None:
                    raise ParseError(f"{path}: duplicate vertex element", offset=off)
                if not re.fullmatch(r"[0-9]+", parts[2]):
                    raise ParseError(f"{path}: bad vertex count {parts[2]!r}", offset=off)
                count = int(parts[2])
                in_vertex = True
            else:
                if count is None:
                    raise ParseError(
                        f"{path}: element {parts[1]!r} precedes the vertex element",
                        offset=off,
                    )
                in_vertex = False
        elif parts[0] == "property":
            if not in_vertex:
                continue
            if parts[1:2] == ["list"]:
                raise ParseError(
                    f"{path}: list property unsupported in vertex element", offset=off
                )
            if len(parts) != 3:
                raise ParseError(f"{path}: malformed property line {text!r}", offset=off)
            ptype, pname = parts[1], parts[2]
            if ptype not in _PLY_NUMPY:
                raise ParseError(f"{path}: unknown property type {ptype!r}", offset=off)
            if pname in _KNOWN_PROPS and np.dtype(_PLY_NUMPY[ptype]).kind != "f":
                raise ParseError(
                    f"{path}: property {pname!r} must be float or double, got {ptype}",
                    offset=off,
                )
            if pname in (n for n, _ in props):
                raise ParseError(f"{path}: duplicate property {pname!r}", offset=off)
            props.append((pname, ptype))
        elif parts[0] == "end_header":
            break
        else:
            raise ParseError(f"{path}: unrecognized header line {text!r}", offset=off)
    if fmt is None:
        raise ParseError(f"{path}: missing format line", offset=0)
    if count is None:
        raise ParseError(f"{path}: missing vertex element", offset=0)
    names = [n for n, _ in props]
    for req in ("x", "y", "z"):
        if req not in names:
            raise ParseError(f"{path}: vertex element lacks property {req!r}", offset=0)

    if fmt == "binary_little_endian":
        table = _read_binary_vertices(data, body_start, count, props, path)
    else:
        table = _read_ascii_vertices(data, body_start, count, props, path)

    def triple(prefix: str) -> np.ndarray | None:
        keys = [prefix + ax if prefix else ax for ax in ("x", "y", "z")]
        if all(k in table for k in keys):
            return np.stack([table[k] for k in keys], axis=1)
        return None

    try:
        return PointCloud(triple(""), triple("n"), triple("s"))
    except ContractError as exc:
        raise ParseError(f"{path}: invalid vertex data: {exc}") from exc


def _read_binary_vertices(data, body_start, count, props, path):
    dtype = np.dtype([(n, _PLY_NUMPY[t]) for n, t in props])
    need = count * dtype.itemsize
    if len(data) - body_start < need:
        raise ParseError(
            f"{path}: vertex data truncated ({len(data) - body_start} of {need} bytes)",
            offset=len(data),
        )
    rows = np.frombuffer(data, dtype=dtype, count=count, offset=body_start)
    return {n: rows[n].astype(np.float64) for n, _ in props if n in _KNOWN_PROPS}


def _plain_number(tok: bytes) -> bool:
    """float() syntax minus Python's digit separators ("1_0" is not 10)."""
    try:
        float(tok)
    except ValueError:
        return False
    return b"_" not in tok


def _read_ascii_vertices(data, body_start, count, props, path):
    """The first ``count`` non-empty lines, each one value per property."""
    n_props = len(props)
    tokens: list[bytes] = []
    row_starts: list[int] = []
    pos = body_start
    for raw in BytesIO(data[body_start:]):  # lazily: later elements are never split
        if len(row_starts) == count:
            break
        row = raw.split()
        if row:
            if len(row) != n_props:
                raise ParseError(
                    f"{path}: vertex row {len(row_starts)} has {len(row)} of "
                    f"{n_props} values",
                    offset=pos,
                )
            tokens += row
            row_starts.append(pos)
        pos += len(raw)
    if len(row_starts) < count:
        raise ParseError(
            f"{path}: vertex data truncated ({len(row_starts)} of {count} rows)",
            offset=len(data),
        )
    try:
        if b"_" in data[body_start:pos]:
            raise ValueError
        values = np.array(tokens, dtype=np.float64).reshape(count, n_props)
    except ValueError:
        i = next(i for i, tok in enumerate(tokens) if not _plain_number(tok))
        raise ParseError(
            f"{path}: bad number {tokens[i].decode('ascii', 'replace')!r}",
            offset=row_starts[i // n_props],
        ) from None
    return {
        name: values[:, col]
        for col, (name, _) in enumerate(props)
        if name in _KNOWN_PROPS
    }


# -- UDFG ---------------------------------------------------------------------


def write_grid(grid: SparseDFGrid, path) -> None:
    """Write a sparse grid as canonical UDFG bytes (records index-sorted).

    Values are stored as float32.  A value that leaves the kind's range
    in float32 (3 - 1e-9 rounds to 3; a flipped 2**-52 * (1 + 2**-30)
    rounds to 2**-52, which un-flips to 3) raises ContractError before any
    byte is written, since ``read_grid`` would reject the file.
    """
    spec = grid.spec
    v32 = grid.values.astype(np.float32)
    try:
        SparseDFGrid(spec, grid.kind, grid.flipped, grid.indices, v32.astype(np.float64))
    except ContractError as exc:
        raise ContractError(f"{path}: float32 values would not read back: {exc}") from None
    header = _HEADER_STRUCT.pack(
        _MAGIC,
        1,
        grid.kind.code,
        int(grid.flipped),
        *(int(d) for d in spec.dims),
        *(float(o) for o in spec.origin),
        float(spec.voxel_size),
        len(grid),
    )
    records = np.empty(len(grid), dtype=_RECORD_DTYPE)
    for col, name in enumerate("ijk"):
        records[name] = grid.indices[:, col]
    records["v"] = v32
    with open(_as_path(path), "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def read_grid(path) -> SparseDFGrid:
    """Read a UDFG file; validates magic, version, sortedness, and ranges."""
    with open(_as_path(path), "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER_STRUCT.size:
        raise ParseError(f"{path}: header truncated", offset=len(data))
    magic, version, kind_code, flipped, dx, dy, dz, ox, oy, oz, voxel_size, count = (
        _HEADER_STRUCT.unpack_from(data, 0)
    )
    if magic != _MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}", offset=0)
    if version != 1:
        raise ParseError(f"{path}: unsupported format version {version}", offset=4)
    try:
        kind = DFKind.from_code(kind_code)
    except Exception:
        raise ParseError(f"{path}: unknown kind code {kind_code}", offset=8) from None
    if flipped not in (0, 1):
        raise ParseError(f"{path}: flipped flag must be 0 or 1, got {flipped}", offset=9)
    if min(dx, dy, dz) < 1:
        raise ParseError(f"{path}: dims must be >= 1, got {(dx, dy, dz)}", offset=10)
    if dx * dy * dz > MAX_NODES:
        raise ParseError(f"{path}: dims {(dx, dy, dz)} exceed {MAX_NODES} nodes", offset=10)
    offset = 22  # the origin; once it passes, the voxel size or the far corner
    try:
        origin = as_point((ox, oy, oz), "origin")
        offset = 46
        spec = GridSpec(origin=origin, voxel_size=voxel_size, dims=(dx, dy, dz))
    except ContractError as exc:
        raise ParseError(f"{path}: {exc}", offset=offset) from None
    body = _HEADER_STRUCT.size
    need = count * _RECORD_DTYPE.itemsize
    if len(data) - body < need:
        raise ParseError(
            f"{path}: record data truncated ({len(data) - body} of {need} bytes)",
            offset=len(data),
        )
    if len(data) - body > need:
        raise ParseError(f"{path}: trailing bytes after records", offset=body + need)
    records = np.frombuffer(data, dtype=_RECORD_DTYPE, count=count, offset=body)
    indices = np.stack([records[c].astype(np.int64) for c in "ijk"], axis=1)
    steps = np.diff(linearize(spec.dims, indices))
    if (steps <= 0).any():
        bad = int(np.argmax(steps <= 0)) + 1
        word = "duplicate" if steps[bad - 1] == 0 else "unsorted"
        raise ParseError(
            f"{path}: {word} record at index {bad}",
            offset=body + bad * _RECORD_DTYPE.itemsize,
        )
    try:
        return SparseDFGrid(
            spec=spec,
            kind=kind,
            flipped=bool(flipped),
            indices=indices,
            values=records["v"].astype(np.float64),
        )
    except Exception as exc:
        raise ParseError(f"{path}: invalid grid data: {exc}") from exc
