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

import struct

import numpy as np

from .core import MAX_NODES, DFKind, GridSpec, PointCloud, SparseDFGrid, linearize
from .errors import ParseError

_MAGIC = b"UDFG"
_HEADER_STRUCT = struct.Struct("<4sIBB3I3ddQ")
_RECORD_DTYPE = np.dtype([("i", "<u4"), ("j", "<u4"), ("k", "<u4"), ("v", "<f4")])

_PLY_SCALAR_SIZES = {
    "char": 1, "int8": 1, "uchar": 1, "uint8": 1,
    "short": 2, "int16": 2, "ushort": 2, "uint16": 2,
    "int": 4, "int32": 4, "uint": 4, "uint32": 4,
    "float": 4, "float32": 4, "double": 8, "float64": 8,
}
_PLY_NUMPY = {
    "char": "<i1", "int8": "<i1", "uchar": "<u1", "uint8": "<u1",
    "short": "<i2", "int16": "<i2", "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4",
    "float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
}
_KNOWN_PROPS = ("x", "y", "z", "nx", "ny", "nz", "sx", "sy", "sz")
_FLOAT_TYPES = {"float", "float32", "double", "float64"}


# -- PLY ----------------------------------------------------------------------


def write_ply(cloud: PointCloud, path, binary: bool = True) -> None:
    """Write positions (+normals, +sensor origins when present) as PLY.

    Coordinates are double precision; binary mode round-trips them
    bit-exactly, ASCII mode through 17-significant-digit decimals.
    """
    columns = [cloud.positions]
    names = ["x", "y", "z"]
    if cloud.normals is not None:
        columns.append(cloud.normals)
        names += ["nx", "ny", "nz"]
    if cloud.sensor_origins is not None:
        columns.append(cloud.sensor_origins)
        names += ["sx", "sy", "sz"]
    data = np.concatenate(columns, axis=1) if len(cloud) else np.empty((0, len(names)))
    fmt = "binary_little_endian" if binary else "ascii"
    header_lines = ["ply", f"format {fmt} 1.0", f"element vertex {len(cloud)}"]
    header_lines += [f"property double {n}" for n in names]
    header_lines.append("end_header")
    header = ("\n".join(header_lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        if binary:
            fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())
        else:
            body = "\n".join(" ".join(f"{v:.17g}" for v in row) for row in data)
            if body:
                fh.write(body.encode("ascii") + b"\n")


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
    with open(path, "rb") as fh:
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
                try:
                    count = int(parts[2])
                except ValueError:
                    count = -1
                if count < 0:
                    raise ParseError(f"{path}: bad vertex count {parts[2]!r}", offset=off)
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
            if parts[1] == "list":
                raise ParseError(
                    f"{path}: list property unsupported in vertex element", offset=off
                )
            if len(parts) != 3:
                raise ParseError(f"{path}: malformed property line {text!r}", offset=off)
            ptype, pname = parts[1], parts[2]
            if ptype not in _PLY_SCALAR_SIZES:
                raise ParseError(f"{path}: unknown property type {ptype!r}", offset=off)
            if pname in _KNOWN_PROPS and ptype not in _FLOAT_TYPES:
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

    positions = triple("")
    return PointCloud(positions, triple("n"), triple("s"))


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


def _read_ascii_vertices(data, body_start, count, props, path):
    n_props = len(props)
    tokens = data[body_start:].split()
    if len(tokens) < count * n_props:
        # Re-walk line by line to report where the data ran out or broke.
        pos = body_start
        seen = 0
        for raw in data[body_start:].split(b"\n"):
            row_tokens = raw.split()
            if row_tokens:
                if len(row_tokens) < n_props and seen + 1 <= count:
                    raise ParseError(
                        f"{path}: vertex row {seen} has {len(row_tokens)} of "
                        f"{n_props} values",
                        offset=pos,
                    )
                seen += 1
            pos += len(raw) + 1
        raise ParseError(
            f"{path}: vertex data truncated ({seen} of {count} rows)", offset=len(data)
        )
    flat = tokens[: count * n_props]
    try:
        values = np.array(flat, dtype=np.float64)
    except ValueError:
        pos = body_start
        for raw in data[body_start:].split(b"\n"):
            for tok in raw.split():
                try:
                    float(tok)
                except ValueError:
                    raise ParseError(
                        f"{path}: bad number {tok.decode('ascii', 'replace')!r}",
                        offset=pos,
                    ) from None
            pos += len(raw) + 1
        raise ParseError(f"{path}: unparseable vertex data", offset=body_start) from None
    values = values.reshape(count, n_props)
    return {
        name: values[:, col]
        for col, (name, _) in enumerate(props)
        if name in _KNOWN_PROPS
    }


# -- UDFG ---------------------------------------------------------------------


def write_grid(grid: SparseDFGrid, path) -> None:
    """Write a sparse grid as canonical UDFG bytes (records index-sorted)."""
    spec = grid.spec
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
    records["i"] = grid.indices[:, 0]
    records["j"] = grid.indices[:, 1]
    records["k"] = grid.indices[:, 2]
    records["v"] = grid.values.astype(np.float32)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def read_grid(path) -> SparseDFGrid:
    """Read a UDFG file; validates magic, version, sortedness, and ranges."""
    with open(path, "rb") as fh:
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
    if not (np.isfinite(voxel_size) and voxel_size > 0):
        raise ParseError(f"{path}: invalid voxel_size {voxel_size}", offset=46)
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
    indices = np.stack(
        [records["i"].astype(np.int64), records["j"].astype(np.int64), records["k"].astype(np.int64)],
        axis=1,
    ) if count else np.empty((0, 3), dtype=np.int64)
    dims = (int(dx), int(dy), int(dz))
    if count:
        codes = linearize(dims, indices)
        steps = np.diff(codes)
        if (steps <= 0).any():
            bad = int(np.argmax(steps <= 0)) + 1
            word = "duplicate" if steps[bad - 1] == 0 else "unsorted"
            raise ParseError(
                f"{path}: {word} record at index {bad}",
                offset=body + bad * _RECORD_DTYPE.itemsize,
            )
    spec = GridSpec(origin=np.array([ox, oy, oz]), voxel_size=voxel_size, dims=dims)
    try:
        return SparseDFGrid(
            spec=spec,
            kind=kind,
            flipped=bool(flipped),
            indices=indices,
            values=records["v"].astype(np.float64) if count else np.empty(0),
        )
    except Exception as exc:
        raise ParseError(f"{path}: invalid grid data: {exc}") from exc
