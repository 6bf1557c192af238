"""File formats: PLY point clouds and the UDFG binary sparse-grid format.

Both formats are canonical-bytes: identical inputs produce byte-identical
files on any platform (little-endian payloads, records sorted, 17-digit
ASCII floats).  Parse failures raise ParseError carrying the byte offset
of the offending data.

A PLY read streams from the open file: the header line by line, a binary
body as one block of count x row-size bytes, an ASCII body in blocks of
``_ASCII_ROWS`` rows; a UDFG body in blocks of ``spatial._ENTRY_BUDGET``
records, read into and written from the grid's codes and values.  So a read
holds its arrays plus one block, never the whole file, and the first fault
in file order is the one reported.  A binary PLY write holds one table, and
hands the file its buffer, not a copy; a UDFG write holds one block.

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

import os
import re
import struct
from io import BytesIO

import numpy as np

from . import spatial
from .core import MAX_NODES, DFKind, GridSpec, PointCloud, SparseDFGrid, as_point
from .core import _as_path, as_flag, as_instance
from .errors import ContractError, ParseError

# Rows of an ASCII PLY body formatted per write and parsed per read, so that
# the text and the Python objects held at once stay a few MiB whatever the
# cloud size.
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
    ``cloud`` must be a ``PointCloud`` and ``binary`` a bool or ``np.bool_``.
    """
    binary = as_flag(binary, "binary")
    columns = {"x y z": as_instance(cloud, PointCloud, "cloud").positions,
               "nx ny nz": cloud.normals, "sx sy sz": cloud.sensor_origins}
    names = [n for keys, a in columns.items() if a is not None for n in keys.split()]
    data = np.concatenate([a for a in columns.values() if a is not None], axis=1)
    fmt = "binary_little_endian" if binary else "ascii"
    header_lines = ["ply", f"format {fmt} 1.0", f"element vertex {len(cloud)}"]
    header_lines += [f"property double {n}" for n in names]
    header_lines.append("end_header")
    header = ("\n".join(header_lines) + "\n").encode("ascii")
    with open(_as_path(path), "wb") as fh:
        fh.write(header)
        if binary:
            fh.write(np.ascontiguousarray(data, dtype="<f8").data)
        else:
            # One format call per row; "%.17g" formats a float as format(v, ".17g").
            line = " ".join(["%.17g"] * data.shape[1]) + "\n"
            for lo in range(0, len(data), _ASCII_ROWS):
                rows = data[lo : lo + _ASCII_ROWS].tolist()
                fh.write("".join([line % tuple(row) for row in rows]).encode("ascii"))


def _header_lines(fh, path) -> tuple[list[tuple[int, str]], int]:
    """Header as (byte offset, text) lines plus the body start offset.

    Reads ``fh`` line by line up to the first line holding ``end_header``, so
    a file without one is read to its end.  A last line with no newline is
    not a header line.
    """
    lines = []
    non_ascii = []
    pos = 0
    for raw in fh:
        if raw.endswith(b"\n"):
            try:
                lines.append((pos, raw[:-1].decode("ascii").rstrip("\r")))
            except UnicodeDecodeError:
                non_ascii.append(pos)
        pos += len(raw)
        if b"end_header" in raw:
            if non_ascii:
                raise ParseError(f"{path}: non-ASCII bytes in header", offset=non_ascii[0])
            return lines, pos
    raise ParseError(f"{path}: missing end_header", offset=0)


def read_ply(path) -> PointCloud:
    """Read an ASCII or binary_little_endian PLY vertex cloud.

    Requires x,y,z float properties; picks up nx,ny,nz and sx,sy,sz when
    present; skips other scalar vertex properties.  Elements after the
    vertex data (faces etc.) are ignored.
    """
    with open(_as_path(path), "rb") as fh:
        lines, body_start = _header_lines(fh, path)
        count, props, read_vertices = _vertex_layout(lines, path)
        table = read_vertices(fh, body_start, count, props, path)
    triples = [
        np.stack([table[k] for k in keys], axis=1) if all(k in table for k in keys) else None
        for keys in (("x", "y", "z"), ("nx", "ny", "nz"), ("sx", "sy", "sz"))
    ]
    del table  # free the parsed columns before PointCloud copies the triples
    try:
        return PointCloud(*triples)
    except ContractError as exc:
        raise ParseError(f"{path}: invalid vertex data: {exc}") from exc


def _vertex_layout(lines, path):
    """The vertex count, the (name, type) properties and the body reader."""
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

    binary = fmt == "binary_little_endian"
    return count, props, _read_binary_vertices if binary else _read_ascii_vertices


def _read_binary_vertices(fh, body_start, count, props, path):
    dtype = np.dtype([(n, _PLY_NUMPY[t]) for n, t in props])
    need = count * dtype.itemsize
    # Asks for no more bytes than the file holds, so a bogus count allocates
    # nothing; -1 reads what is left, also of a pipe, whose size reads 0.
    data = fh.read(need if need <= os.fstat(fh.fileno()).st_size - body_start else -1)
    if len(data) < need:
        raise ParseError(
            f"{path}: vertex data truncated ({len(data)} of {need} bytes)",
            offset=body_start + len(data),
        )
    rows = np.frombuffer(data, dtype=dtype, count=count)
    return {n: rows[n].astype(np.float64) for n, _ in props if n in _KNOWN_PROPS}


def _plain_number(tok: bytes) -> bool:
    """float() syntax minus Python's digit separators ("1_0" is not 10)."""
    try:
        float(tok)
    except ValueError:
        return False
    return b"_" not in tok


def _read_ascii_vertices(fh, pos, count, props, path):
    """The first ``count`` non-empty lines, each one value per property.

    Reads ``_ASCII_ROWS`` rows at a time and parses each block before the
    next is read, so a read holds its values and one block.  The first fault
    in file order raises: a bad number, a row of the wrong length, or the
    end of the file.
    """
    n_props = len(props)
    blocks = [np.empty((0, n_props))]
    done = 0
    while done < count:
        want = min(_ASCII_ROWS, count - done)
        tokens: list[bytes] = []
        row_starts: list[int] = []
        for raw in fh:  # line by line: later elements are never read
            start, pos = pos, pos + len(raw)
            row = raw.split()
            if not row:
                continue
            if len(row) != n_props:
                _parse_block(tokens, row_starts, n_props, path)  # an earlier bad number first
                raise ParseError(
                    f"{path}: vertex row {done + len(row_starts)} has {len(row)} of "
                    f"{n_props} values",
                    offset=start,
                )
            tokens += row
            row_starts.append(start)
            if len(row_starts) == want:
                break
        blocks.append(_parse_block(tokens, row_starts, n_props, path))
        if len(row_starts) < want:
            raise ParseError(
                f"{path}: vertex data truncated ({done + len(row_starts)} of {count} rows)",
                offset=pos,
            )
        done += want
    values = np.concatenate(blocks)
    return {
        name: values[:, col]
        for col, (name, _) in enumerate(props)
        if name in _KNOWN_PROPS
    }


def _parse_block(tokens, row_starts, n_props, path):
    """One block's tokens as (rows, n_props) floats; ParseError at the row
    of the first token that is not a plain number."""
    try:
        if b"_" in b"".join(tokens):
            raise ValueError
        return np.array(tokens, dtype=np.float64).reshape(-1, n_props)
    except ValueError:
        i = next(i for i, tok in enumerate(tokens) if not _plain_number(tok))
        raise ParseError(
            f"{path}: bad number {tokens[i].decode('ascii', 'replace')!r}",
            offset=row_starts[i // n_props],
        ) from None


# -- UDFG ---------------------------------------------------------------------


def write_grid(grid: SparseDFGrid, path) -> None:
    """Write a sparse grid as canonical UDFG bytes (records index-sorted).

    Values are stored as float32.  A value that leaves the kind's range
    in float32 (3 - 1e-9 rounds to 3; a flipped 2**-52 * (1 + 2**-30)
    rounds to 2**-52, which un-flips to 3) raises ContractError before any
    byte is written, since ``read_grid`` would reject the file.  Both the check
    and the write take ``spatial._ENTRY_BUDGET`` records at a time.
    """
    spec, step = as_instance(grid, SparseDFGrid, "grid").spec, spatial._ENTRY_BUDGET
    blocks = [slice(lo, lo + step) for lo in range(0, len(grid), step)]
    codes, values = grid.codes(), grid.values
    for b in blocks:
        try:
            SparseDFGrid._from_codes(spec, grid.kind, grid.flipped, codes[b],
                                     values[b].astype(np.float32).astype(np.float64))
        except ContractError as exc:
            raise ContractError(f"{path}: float32 values would not read back: {exc}") from None
    header = _HEADER_STRUCT.pack(_MAGIC, 1, grid.kind.code, grid.flipped, *spec.dims,
                                 *spec.origin, spec.voxel_size, len(grid))
    _, ny, nz = spec.dims
    records = np.empty(min(len(grid), step), dtype=_RECORD_DTYPE)
    with open(_as_path(path), "wb") as fh:
        fh.write(header)
        for b in blocks:
            block = records[: len(codes[b])]
            for name, stride, n in zip("ijk", (ny * nz, nz, 1), spec.dims):
                block[name] = codes[b] // stride % n
            block["v"] = values[b]
            fh.write(block.data)


def read_grid(path) -> SparseDFGrid:
    """Read a UDFG file; validates magic, version, sortedness, and ranges.

    After the size is checked against the count, records are read into the
    grid's codes and values ``spatial._ENTRY_BUDGET`` at a time.
    """
    with open(_as_path(path), "rb") as fh:
        fh = fh if fh.seekable() else BytesIO(fh.read())  # a pipe: read it, then in blocks
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        data = fh.read(_HEADER_STRUCT.size)
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
        body, need = _HEADER_STRUCT.size, count * _RECORD_DTYPE.itemsize
        if size - body < need:
            raise ParseError(
                f"{path}: record data truncated ({size - body} of {need} bytes)", offset=size
            )
        if size - body > need:
            raise ParseError(f"{path}: trailing bytes after records", offset=body + need)
        codes, values, outside = np.empty(count, dtype=np.int64), np.empty(count), False
        step = spatial._ENTRY_BUDGET
        records = np.empty(min(count, step), dtype=_RECORD_DTYPE)
        for lo in range(0, count, step):
            block = records[: min(step, count - lo)]
            if fh.readinto(block.view(np.uint8)) < block.nbytes:
                raise ParseError(f"{path}: record data truncated while reading", offset=size)
            ij = block["i"].astype(np.int64) * dy + block["j"]  # linearize, as int64
            codes[lo : lo + len(block)] = ij * dz + block["k"]
            with np.errstate(invalid="ignore"):  # a signalling NaN reads as NaN, refused below
                values[lo : lo + len(block)] = block["v"]
            outside = outside or any(block[a].max() >= n for a, n in zip("ijk", spec.dims))
            steps = np.diff(codes[max(lo - 1, 0) : lo + len(block)])
            if (steps <= 0).any():
                bad = int(np.argmax(steps <= 0)) + max(lo, 1)
                word = "duplicate" if codes[bad] == codes[bad - 1] else "unsorted"
                raise ParseError(
                    f"{path}: {word} record at index {bad}",
                    offset=body + bad * _RECORD_DTYPE.itemsize,
                )
    try:
        if outside:
            raise ContractError("voxel indices outside grid dims")
        return SparseDFGrid._from_codes(spec, kind, bool(flipped), codes, values)
    except ContractError as exc:
        raise ParseError(f"{path}: invalid grid data: {exc}") from exc
