"""Tests for the PLY reader/writer and the UDFG binary grid format."""

import functools
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import write_flipped_grid
import udfgrid
from udfgrid import (
    ContractError,
    DFKind,
    GridSpec,
    ParseError,
    PointCloud,
    SparseDFGrid,
    flip,
    read_grid,
    read_ply,
    write_grid,
    write_ply,
)
from udfgrid import io as udfg_io
from udfgrid.core import MAX_COORD, MAX_NODES, MIN_LENGTH


def _full_cloud(n=25, seed=42):
    rng = np.random.default_rng(seed)
    nrm = rng.normal(size=(n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    nrm[3] = np.nan  # one unestimated normal
    return PointCloud(rng.random((n, 3)), nrm, rng.random((n, 3)))


def _grid(n=30, seed=42, kind=DFKind.UWED, flipped=False):
    rng = np.random.default_rng(seed)
    spec = GridSpec(origin=(0.25, -1.5, 3.0), voxel_size=0.05, dims=(9, 9, 9))
    ijk = np.stack(np.meshgrid(*([np.arange(9)] * 3), indexing="ij"),
                   axis=-1).reshape(-1, 3)
    pick = rng.choice(len(ijk), size=n, replace=False)
    lo, hi = (0.001, 3.0) if flipped else (0.0, 2.999)
    values = np.float64(np.float32(rng.uniform(lo, hi, size=n)))
    return SparseDFGrid(spec, kind, flipped, ijk[pick], values)


class TestPlyRoundtrip:
    @pytest.mark.parametrize("binary", [True, False])
    def test_positions_only(self, tmp_path, binary):
        cloud = PointCloud(np.random.default_rng(42).random((50, 3)))
        path = tmp_path / "c.ply"
        write_ply(cloud, path, binary=binary)
        back = read_ply(path)
        np.testing.assert_array_equal(back.positions, cloud.positions)
        assert back.normals is None and back.sensor_origins is None

    @pytest.mark.parametrize("binary", [True, False])
    def test_all_attributes(self, tmp_path, binary):
        cloud = _full_cloud()
        path = tmp_path / "c.ply"
        write_ply(cloud, path, binary=binary)
        back = read_ply(path)
        np.testing.assert_array_equal(back.positions, cloud.positions)
        np.testing.assert_array_equal(back.normals, cloud.normals)
        np.testing.assert_array_equal(back.sensor_origins, cloud.sensor_origins)

    @pytest.mark.parametrize("binary", [True, False])
    def test_empty_cloud(self, tmp_path, binary):
        path = tmp_path / "c.ply"
        write_ply(PointCloud(np.empty((0, 3))), path, binary=binary)
        assert len(read_ply(path)) == 0

    def test_canonical_bytes(self, tmp_path):
        cloud = _full_cloud()
        p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
        write_ply(cloud, p1)
        write_ply(cloud, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "c.ply"
        write_ply(_full_cloud(n=7), path, binary=True)
        header = path.read_bytes().split(b"end_header\n")[0].decode()
        lines = header.splitlines()
        assert lines[0] == "ply"
        assert lines[1] == "format binary_little_endian 1.0"
        assert lines[2] == "element vertex 7"
        assert lines[3:] == [
            f"property double {n}"
            for n in ("x", "y", "z", "nx", "ny", "nz", "sx", "sy", "sz")
        ]

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 12), st.just(3)),
                  elements=st.floats(-MAX_COORD, MAX_COORD)),
           st.lists(st.sampled_from([(0.0, 0.0, 1.0), (-0.0, -1.0, 0.0), (0.6, -0.8, -0.0),
                                     (3**-0.5,) * 3, (np.nan,) * 3]), max_size=12),
           st.integers(1, 6))
    def test_ascii_body_formats_each_value_as_17g(self, pos, normals, rows_per_write):
        """The body is format(v, ".17g") per value: subnormals, -0.0, NaN and the bound too.

        The same bytes whatever the number of rows formatted per write.
        """
        pos = np.concatenate([pos, [[5e-324, -0.0, MAX_COORD], [-MAX_COORD, 1e-310, 0.0]]])
        nrm = np.resize(np.array(normals or [(0.0, 0.0, 1.0)]), (len(pos), 3))
        cloud = PointCloud(pos, nrm, pos[::-1])
        original = udfg_io._ASCII_ROWS
        try:
            udfg_io._ASCII_ROWS = rows_per_write
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "c.ply"
                write_ply(cloud, path, binary=False)
                body = path.read_bytes().split(b"end_header\n", 1)[1]
        finally:
            udfg_io._ASCII_ROWS = original
        rows = np.concatenate([cloud.positions, cloud.normals, cloud.sensor_origins], axis=1)
        want = "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in rows.tolist())
        assert body == want.encode("ascii")

    def test_extreme_values_survive_ascii(self, tmp_path):
        pos = np.array([[1e-300, 1.0 + 2**-52, 12345678.987654321]])
        path = tmp_path / "c.ply"
        write_ply(PointCloud(pos), path, binary=False)
        np.testing.assert_array_equal(read_ply(path).positions, pos)


class TestPlyReadTolerance:
    def _read(self, tmp_path, text):
        path = tmp_path / "t.ply"
        data = text.encode() if isinstance(text, str) else text
        path.write_bytes(data)
        return read_ply(path)

    def test_comments_and_crlf(self, tmp_path):
        text = (
            "ply\r\ncomment made by hand\r\nformat ascii 1.0\r\n"
            "element vertex 1\r\nproperty double x\r\nproperty double y\r\n"
            "property double z\r\nend_header\r\n1 2 3\r\n"
        )
        cloud = self._read(tmp_path, text)
        np.testing.assert_array_equal(cloud.positions, [[1.0, 2.0, 3.0]])

    def test_unknown_scalar_property_skipped(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property float intensity\nend_header\n"
            "1 2 3 9\n4 5 6 8\n"
        )
        cloud = self._read(tmp_path, text)
        np.testing.assert_array_equal(cloud.positions, [[1, 2, 3], [4, 5, 6]])

    def test_float32_coordinates_accepted(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0.5 0.25 -1\n"
        )
        cloud = self._read(tmp_path, text)
        np.testing.assert_array_equal(cloud.positions, [[0.5, 0.25, -1.0]])

    @pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
    def test_elements_after_vertex_ignored(self, tmp_path, binary):
        """A later element's properties, a list among them, are not the vertex's."""
        pos = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        fmt = "binary_little_endian" if binary else "ascii"
        header = (
            f"ply\nformat {fmt} 1.0\nelement vertex 3\n"
            "property double x\nproperty double y\nproperty double z\n"
            "element face 2\nproperty list uchar int vertex_indices\nend_header\n"
        ).encode()
        if binary:
            body = pos.astype("<f8").tobytes() + struct.pack("<B3iB3i", 3, 0, 1, 2, 3, 2, 1, 0)
        else:
            body = b"1 2 3\n4 5 6\n7 8 9\n3 0 1 2\n3 2 1 0\n"
        cloud = self._read(tmp_path, header + body)
        np.testing.assert_array_equal(cloud.positions, pos)

    def test_partial_normals_not_grouped(self, tmp_path):
        """nx without ny/nz yields no normals rather than an error."""
        text = (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property double nx\nend_header\n1 2 3 1\n"
        )
        cloud = self._read(tmp_path, text)
        assert cloud.normals is None


class TestPlyReadErrors:
    def _err(self, tmp_path, payload):
        path = tmp_path / "t.ply"
        path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
        with pytest.raises(ParseError) as err:
            read_ply(path)
        return err.value

    def test_missing_end_header(self, tmp_path):
        assert self._err(tmp_path, "ply\nformat ascii 1.0\n").offset == 0

    def test_missing_magic(self, tmp_path):
        text = "xlx\nformat ascii 1.0\nend_header\n"
        assert self._err(tmp_path, text).offset == 0

    def test_non_ascii_header(self, tmp_path):
        payload = b"ply\nform\xffat ascii 1.0\nend_header\n"
        assert self._err(tmp_path, payload).offset == 4

    def test_bad_format_line(self, tmp_path):
        text = "ply\nformat binary_big_endian 1.0\nend_header\n"
        assert self._err(tmp_path, text).offset == 4

    def test_element_before_vertex(self, tmp_path):
        text = "ply\nformat ascii 1.0\nelement face 1\nend_header\n"
        assert self._err(tmp_path, text).offset == len("ply\nformat ascii 1.0\n")

    def test_duplicate_vertex_element(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 0\nproperty double x\n"
            "property double y\nproperty double z\nelement vertex 1\nend_header\n"
        )
        err = self._err(tmp_path, text)
        assert "duplicate vertex" in str(err)

    def test_list_property(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property list uchar int vertex_indices\nend_header\n"
        )
        assert "list property" in str(self._err(tmp_path, text))

    def test_bare_property_line(self, tmp_path):
        head = "ply\nformat ascii 1.0\nelement vertex 0\n"
        err = self._err(tmp_path, head + "property\ndouble x\nend_header\n")
        assert "malformed property line" in str(err) and err.offset == len(head)

    def test_unknown_property_type(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property quad x\nend_header\n"
        )
        assert "unknown property type" in str(self._err(tmp_path, text))

    def test_integer_coordinate_rejected(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property int x\nend_header\n"
        )
        assert "must be float" in str(self._err(tmp_path, text))

    def test_duplicate_property(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double x\nend_header\n"
        )
        assert "duplicate property" in str(self._err(tmp_path, text))

    def test_unrecognized_header_line(self, tmp_path):
        text = "ply\nformat ascii 1.0\nobj_info whatever\nend_header\n"
        assert "unrecognized header" in str(self._err(tmp_path, text))

    def test_missing_format(self, tmp_path):
        text = (
            "ply\nelement vertex 0\nproperty double x\nproperty double y\n"
            "property double z\nend_header\n"
        )
        err = self._err(tmp_path, text)
        assert "missing format" in str(err) and err.offset == 0

    def test_missing_vertex_element(self, tmp_path):
        text = "ply\nformat ascii 1.0\nend_header\n"
        assert "missing vertex element" in str(self._err(tmp_path, text))

    def test_missing_coordinate_property(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property double x\nproperty double z\nend_header\n"
        )
        assert "lacks property 'y'" in str(self._err(tmp_path, text))

    def test_binary_truncated(self, tmp_path):
        cloud = PointCloud(np.random.default_rng(42).random((5, 3)))
        path = tmp_path / "t.ply"
        write_ply(cloud, path, binary=True)
        data = path.read_bytes()[:-8]
        err = self._err(tmp_path, data)
        assert "truncated" in str(err) and err.offset == len(data)

    def test_ascii_short_row(self, tmp_path):
        head = (
            "ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n"
        )
        err = self._err(tmp_path, head + "1 2 3\n4 5\n")
        assert "row 1 has 2 of 3" in str(err)
        assert err.offset == len(head) + len("1 2 3\n")

    def test_ascii_missing_rows(self, tmp_path):
        head = (
            "ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n"
        )
        payload = head + "1 2 3\n"
        err = self._err(tmp_path, payload)
        assert "truncated (1 of 3 rows)" in str(err)
        assert err.offset == len(payload)

    def test_ascii_bad_number(self, tmp_path):
        head = (
            "ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n"
        )
        err = self._err(tmp_path, head + "1 2 3\n4 five 6\n")
        assert "bad number 'five'" in str(err)
        assert err.offset == len(head) + len("1 2 3\n")

    _XYZ2 = (
        "ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
        "property double y\nproperty double z\nend_header\n"
    )

    @pytest.mark.parametrize("body, row, found, row_start", [
        ("1 2\n3 4 5 6\n", 0, 2, 0),
        ("1 2 3 4\n5 6\n", 0, 4, 0),
        ("1 2 3 4 5 6\n", 0, 6, 0),
        ("1 2 3\n4 5 6 7\n", 1, 4, len("1 2 3\n")),
        ("\n1 2 3\n\n4 5\n6\n", 1, 2, len("\n1 2 3\n\n")),
    ], ids=["short then long", "long then short", "one line", "long last", "blank lines"])
    def test_ascii_rows_are_not_reflowed(self, tmp_path, body, row, found, row_start):
        """Each vertex row holds one value per property; values never
        spill from one line into the next."""
        err = self._err(tmp_path, self._XYZ2 + body)
        assert f"vertex row {row} has {found} of 3 values" in str(err)
        assert err.offset == len(self._XYZ2) + row_start

    def test_ascii_digit_separator_in_value(self, tmp_path):
        """``float()`` and numpy read ``1_0`` as 10; a PLY number has no ``_``."""
        err = self._err(tmp_path, self._XYZ2 + "1 2 3\n4 1_0 6\n")
        assert "bad number '1_0'" in str(err)
        assert err.offset == len(self._XYZ2) + len("1 2 3\n")

    def test_ascii_blank_lines_between_rows_skipped(self, tmp_path):
        path = tmp_path / "t.ply"
        path.write_text(self._XYZ2 + "\n1 2 3\n  \n4 5 6\n")
        np.testing.assert_array_equal(read_ply(path).positions, [[1, 2, 3], [4, 5, 6]])

    def test_negative_vertex_count_binary(self, tmp_path):
        """``-1`` must not read every remaining byte as vertex data."""
        head = (
            "ply\nformat binary_little_endian 1.0\nelement vertex -1\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
        )
        payload = head.encode() + np.arange(6, dtype="<f8").tobytes()
        err = self._err(tmp_path, payload)
        assert "bad vertex count '-1'" in str(err)
        assert err.offset == head.index("element vertex")

    def test_negative_vertex_count_ascii(self, tmp_path):
        head = (
            "ply\nformat ascii 1.0\nelement vertex -2\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n"
        )
        err = self._err(tmp_path, head + "1 2 3\n4 5 6\n")
        assert "bad vertex count '-2'" in str(err)
        assert err.offset == head.index("element vertex")

    def test_digit_separator_in_vertex_count(self, tmp_path):
        """``int()`` reads ``1_0`` as 10; the count must be ASCII digits."""
        head = (
            "ply\nformat ascii 1.0\nelement vertex 1_0\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n"
        )
        err = self._err(tmp_path, head + "1 2 3\n" * 10)
        assert "bad vertex count '1_0'" in str(err)
        assert err.offset == head.index("element vertex")

    def test_non_ascii_digit_in_vertex_count(self, tmp_path):
        head = (
            "ply\nformat ascii 1.0\nelement vertex \u0661\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n"
        )
        payload = (head + "1 2 3\n").encode("utf-8")
        err = self._err(tmp_path, payload)
        assert err.offset == head.index("element vertex")

    def test_position_beyond_the_bound(self, tmp_path):
        head = (
            "ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n"
        )
        err = self._err(tmp_path, head + "0 -1.4e154 0\n")
        assert "positions must be finite" in str(err)

    def test_nan_position_binary(self, tmp_path):
        cloud = PointCloud(np.random.default_rng(42).random((3, 3)))
        path = tmp_path / "t.ply"
        write_ply(cloud, path, binary=True)
        data = bytearray(path.read_bytes())
        body = data.index(b"end_header\n") + len(b"end_header\n")
        data[body:body + 8] = struct.pack("<d", np.nan)  # vertex 0, x
        err = self._err(tmp_path, bytes(data))
        assert "positions must be finite" in str(err)

    def test_infinite_position_ascii(self, tmp_path):
        head = (
            "ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n"
        )
        err = self._err(tmp_path, head + "inf 0 0\n")
        assert "positions must be finite" in str(err)

    def test_non_unit_normal_ascii(self, tmp_path):
        head = (
            "ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
            "property double y\nproperty double z\nproperty double nx\n"
            "property double ny\nproperty double nz\nend_header\n"
        )
        err = self._err(tmp_path, head + "0 0 0 0 0 2\n")
        assert "unit length" in str(err)


class TestUdfgRoundtrip:
    def test_bitwise_roundtrip(self, tmp_path):
        grid = _grid()
        path = tmp_path / "g.udfg"
        write_grid(grid, path)
        back = read_grid(path)
        assert back.kind is grid.kind and back.flipped == grid.flipped
        assert back.spec.dims == grid.spec.dims
        assert back.spec.voxel_size == grid.spec.voxel_size
        np.testing.assert_array_equal(back.spec.origin, grid.spec.origin)
        np.testing.assert_array_equal(back.indices, grid.indices)
        np.testing.assert_array_equal(back.values, grid.values)

    def test_flipped_flag_preserved(self, tmp_path):
        grid = flip(_grid())
        path = tmp_path / "g.udfg"
        write_grid(grid, path)
        back = read_grid(path)
        assert back.flipped
        # In-memory flip keeps full float64 precision of 3 - v; the file
        # stores float32 records, so the roundtrip grades to float32.
        np.testing.assert_array_equal(
            back.values, np.float64(np.float32(grid.values))
        )

    def test_empty_grid(self, tmp_path):
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.1, dims=(2, 2, 2))
        grid = SparseDFGrid(spec, DFKind.UED, False,
                            np.empty((0, 3), np.int64), np.empty(0))
        path = tmp_path / "g.udfg"
        write_grid(grid, path)
        back = read_grid(path)
        assert len(back) == 0 and back.kind is DFKind.UED

    def test_file_layout(self, tmp_path):
        grid = _grid(n=5)
        path = tmp_path / "g.udfg"
        write_grid(grid, path)
        data = path.read_bytes()
        assert len(data) == 62 + 16 * 5
        magic, version, kind, flipped = struct.unpack_from("<4sIBB", data, 0)
        assert magic == b"UDFG" and version == 1
        assert kind == DFKind.UWED.code and flipped == 0
        dims = struct.unpack_from("<3I", data, 10)
        assert dims == (9, 9, 9)
        origin = struct.unpack_from("<3d", data, 22)
        np.testing.assert_allclose(origin, [0.25, -1.5, 3.0])
        (vs,) = struct.unpack_from("<d", data, 46)
        assert vs == 0.05
        (count,) = struct.unpack_from("<Q", data, 54)
        assert count == 5

    def test_canonical_bytes(self, tmp_path):
        grid = _grid()
        p1, p2 = tmp_path / "a.udfg", tmp_path / "b.udfg"
        write_grid(grid, p1)
        write_grid(grid, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_records_sorted_lexicographically(self, tmp_path):
        grid = _grid(n=50)
        path = tmp_path / "g.udfg"
        write_grid(grid, path)
        data = path.read_bytes()
        rec = np.frombuffer(data, dtype=[("i", "<u4"), ("j", "<u4"),
                                         ("k", "<u4"), ("v", "<f4")], offset=62)
        ijk = np.stack([rec["i"], rec["j"], rec["k"]], axis=1).astype(np.int64)
        codes = (ijk[:, 0] * 9 + ijk[:, 1]) * 9 + ijk[:, 2]
        assert (np.diff(codes) > 0).all()


class TestPathArgument:
    """``open()`` takes an int as a file descriptor: ``read_ply(1)`` closed
    stdout and then raised OSError.  Each call runs in its own process, so
    that at worst it closes that process's stdout, not the test runner's."""

    SETUP = (
        "import numpy as np\n"
        "from udfgrid import *\n"
        "cloud = PointCloud(np.zeros((2, 3)))\n"
        "grid = SparseDFGrid(GridSpec((0, 0, 0), 1.0, (2, 2, 2)), DFKind.UED, False, [], [])\n"
    )

    @pytest.mark.parametrize("call", [
        "read_ply(1)", "read_grid(1)", "write_ply(cloud, 1)", "write_grid(grid, 1)",
        "load_scene_config(1)",
    ])
    def test_int_path_refused(self, call):
        script = (self.SETUP + f"try:\n    {call}\n"
                  "except ContractError as exc:\n    print('refused:', exc, flush=True)\n")
        src = str(Path(udfgrid.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        # Printed after the call, so stdout is still open.
        assert proc.stdout.startswith("refused: path must be a str, bytes or os.PathLike, got 1")

    def test_path_like_accepted(self, tmp_path):
        write_ply(_full_cloud(), tmp_path / "a.ply")
        write_ply(read_ply(str(tmp_path / "a.ply").encode()), tmp_path / "b.ply")
        assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()


class TestUdfgWriteErrors:
    """A valid in-memory grid whose values leave the kind's range in float32."""

    def _spec(self):
        return GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.125, dims=(4, 4, 4))

    def _refused(self, tmp_path, grid):
        path = tmp_path / "g.udfg"
        with pytest.raises(ContractError):
            write_grid(grid, path)
        assert not path.exists()

    def test_unsigned_value_rounding_up_to_truncation(self, tmp_path):
        grid = SparseDFGrid(self._spec(), DFKind.UED, False, [[1, 2, 3]], [3.0 - 1e-9])
        assert np.float32(grid.values[0]) == 3.0
        self._refused(tmp_path, grid)

    def test_flipped_value_rounding_down_to_zero(self):
        """Construction refuses it: a flipped value that un-flips below 3 exceeds 2**-52."""
        with pytest.raises(ContractError):
            SparseDFGrid(self._spec(), DFKind.UED, True, [[1, 2, 3]], [1e-50])

    def test_flipped_value_rounding_to_one_that_cannot_unflip(self, tmp_path):
        grid = SparseDFGrid(self._spec(), DFKind.UED, True, [[1, 2, 3]],
                            [2.0**-52 * (1 + 2.0**-30)])
        assert np.float32(grid.values[0]) == 2.0**-52
        self._refused(tmp_path, grid)

    def test_existing_file_left_untouched(self, tmp_path):
        path = tmp_path / "g.udfg"
        write_grid(_grid(n=4), path)
        before = path.read_bytes()
        grid = SparseDFGrid(self._spec(), DFKind.UED, False, [[1, 2, 3]], [3.0 - 1e-9])
        with pytest.raises(ContractError):
            write_grid(grid, path)
        assert path.read_bytes() == before


class TestUdfgReadErrors:
    def _write_and_corrupt(self, tmp_path, mutate):
        grid = _grid(n=4)
        path = tmp_path / "g.udfg"
        write_grid(grid, path)
        data = bytearray(path.read_bytes())
        data = mutate(data)
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError) as err:
            read_grid(path)
        return err.value

    def test_header_truncated(self, tmp_path):
        err = self._write_and_corrupt(tmp_path, lambda d: d[:30])
        assert "header truncated" in str(err) and err.offset == 30

    def test_bad_magic(self, tmp_path):
        def mutate(d):
            d[0:4] = b"XDFG"
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "bad magic" in str(err) and err.offset == 0

    def test_bad_version(self, tmp_path):
        def mutate(d):
            d[4:8] = struct.pack("<I", 2)
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "version" in str(err) and err.offset == 4

    def test_bad_kind_code(self, tmp_path):
        def mutate(d):
            d[8] = 9
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "kind code" in str(err) and err.offset == 8

    @pytest.mark.parametrize("kind, value", [(DFKind.SED, 0.0), (DFKind.UED, 2.0**-60)])
    def test_flipped_value_that_cannot_unflip(self, tmp_path, kind, value):
        path = write_flipped_grid(tmp_path / "g.udfg", kind, value)
        with pytest.raises(ParseError, match="g.udfg"):
            read_grid(path)

    def test_bad_flipped_flag(self, tmp_path):
        def mutate(d):
            d[9] = 2
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "flipped flag" in str(err) and err.offset == 9

    def test_zero_dim(self, tmp_path):
        def mutate(d):
            d[10:14] = struct.pack("<I", 0)
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "dims" in str(err) and err.offset == 10

    def test_dims_overflowing_int64_codes(self, tmp_path):
        """(2^32-1)^3 nodes wrap int64 linear codes, so these unsorted
        records would pass the sortedness check."""
        path = tmp_path / "g.udfg"
        header = struct.pack(
            "<4sIBB3I3ddQ", b"UDFG", 1, DFKind.UED.code, 0,
            *([2**32 - 1] * 3), 0.0, 0.0, 0.0, 0.05, 3,
        )
        records = np.zeros(3, dtype=[("i", "<u4"), ("j", "<u4"), ("k", "<u4"), ("v", "<f4")])
        records["i"] = [3, 1, 0]
        records["j"] = [0, 0, 5]
        path.write_bytes(header + records.tobytes())
        with pytest.raises(ParseError) as err:
            read_grid(path)
        assert "dims" in str(err.value) and err.value.offset == 10

    def test_bad_voxel_size(self, tmp_path):
        def mutate(d):
            d[46:54] = struct.pack("<d", 0.0)
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "voxel_size" in str(err) and err.offset == 46

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_origin(self, tmp_path, bad):
        def mutate(d):
            d[30:38] = struct.pack("<d", bad)  # origin y
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "origin" in str(err) and err.offset == 22

    def test_origin_beyond_the_bound(self, tmp_path):
        def mutate(d):
            d[30:38] = struct.pack("<d", 1e200)  # origin y
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "origin" in str(err) and err.offset == 22

    def test_voxel_size_beyond_the_bound(self, tmp_path):
        def mutate(d):
            d[46:54] = struct.pack("<d", 2.0 * MAX_COORD)
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "voxel_size" in str(err) and err.offset == 46

    def test_far_corner_beyond_the_bound(self, tmp_path):
        """Each value is within the bound, but node 8 sits at 2 * MAX_COORD."""
        def mutate(d):
            d[46:54] = struct.pack("<d", MAX_COORD / 4)
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "far corner" in str(err) and err.offset == 46

    def test_records_truncated(self, tmp_path):
        err = self._write_and_corrupt(tmp_path, lambda d: d[:-10])
        assert "record data truncated" in str(err)
        assert err.offset == 62 + 16 * 4 - 10

    def test_trailing_bytes(self, tmp_path):
        err = self._write_and_corrupt(tmp_path, lambda d: d + b"xx")
        assert "trailing bytes" in str(err) and err.offset == 62 + 16 * 4

    def test_unsorted_records(self, tmp_path):
        def mutate(d):
            first = bytes(d[62:78])
            d[62:78] = d[78:94]
            d[78:94] = first
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "unsorted record at index 1" in str(err) and err.offset == 62 + 16

    def test_duplicate_records(self, tmp_path):
        def mutate(d):
            d[78:94] = d[62:78]
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "duplicate record at index 1" in str(err)

    def test_value_out_of_range(self, tmp_path):
        def mutate(d):
            d[74:78] = struct.pack("<f", 3.5)  # first record's value
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "invalid grid data" in str(err)

    def test_index_outside_dims(self, tmp_path):
        def mutate(d):
            # Raise the last record's i coordinate beyond dims.
            off = 62 + 16 * 3
            d[off:off + 4] = struct.pack("<I", 9)
            return d
        err = self._write_and_corrupt(tmp_path, mutate)
        assert "invalid grid data" in str(err)



# -- properties: damaged files and random grids -------------------------------
#
# A damaged file is a small library-written file cut to a shorter length or
# with one byte XOR-ed by a non-zero mask.  Reading it must either succeed or
# raise ParseError; any other exception is a hole in the parser.

_FUZZ = settings(max_examples=150)

damage = st.tuples(
    st.sampled_from(["cut", "xor"]), st.integers(0, 2**16), st.integers(1, 255)
)


@functools.cache
def _fuzz_seed(name: str) -> bytes:
    """Library-written bytes of ``binary.ply``, ``ascii.ply`` or ``grid.udfg``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        if name == "grid.udfg":
            write_grid(_grid(n=3), path)
        else:
            write_ply(_full_cloud(n=4), path, binary=name == "binary.ply")
        return path.read_bytes()


def _read_damaged(name: str, reader, how: str, at: int, mask: int) -> None:
    data = _fuzz_seed(name)
    at %= len(data)
    if how == "cut":
        data = data[:at]
    else:
        data = data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        try:
            reader(path)
        except ParseError:
            pass


class TestDamagedFiles:
    @_FUZZ
    @given(damage)
    def test_binary_ply(self, d):
        _read_damaged("binary.ply", read_ply, *d)

    @_FUZZ
    @given(damage)
    def test_ascii_ply(self, d):
        _read_damaged("ascii.ply", read_ply, *d)

    @_FUZZ
    @given(damage)
    # Origin y is -1.5 (top byte 0xbf); 0xbf ^ 0x40 turns it into a NaN.
    # Few single-byte changes make a header double non-finite, so random
    # draws alone seldom reach the origin check.
    @example(("xor", 37, 0x40))
    def test_udfg(self, d):
        _read_damaged("grid.udfg", read_grid, *d)


_VALUE_RANGES = {  # (signed, flipped) -> st.floats bounds of a valid value
    (False, False): dict(min_value=0.0, max_value=3.0, exclude_max=True),
    (False, True): dict(min_value=0.0, max_value=3.0, exclude_min=True),
    (True, False): dict(min_value=-3.0, max_value=3.0, exclude_min=True, exclude_max=True),
    (True, True): dict(min_value=-3.0, max_value=3.0),
}


@st.composite
def grids(draw):
    """Valid grids with float32 values; dims span the full u32 range.

    Node positions span [-MAX_COORD, MAX_COORD], the range ``GridSpec``
    accepts: the voxel size leaves room for the longest axis, and each
    origin for its own axis.
    """
    u32 = st.integers(1, 2**32 - 1)
    dims = draw(st.tuples(u32, u32, u32).filter(lambda d: d[0] * d[1] * d[2] <= MAX_NODES))
    longest = max(dims) - 1
    voxel_size = draw(st.floats(min_value=MIN_LENGTH,
                                max_value=min(MAX_COORD, 2 * MAX_COORD / max(longest, 1))))
    origin = [draw(st.floats(-MAX_COORD, max(-MAX_COORD, MAX_COORD - (d - 1) * voxel_size)))
              for d in dims]
    try:
        spec = GridSpec(origin=origin, voxel_size=voxel_size, dims=dims)
    except ContractError:  # the far corner rounded past the bound
        reject()
    kind = draw(st.sampled_from(DFKind))
    flipped = draw(st.booleans())
    node = st.tuples(*[st.integers(0, d - 1) for d in dims])
    ijk = draw(st.lists(node, unique=True, max_size=20))
    value = st.floats(width=32, **_VALUE_RANGES[kind.signed, flipped])
    if flipped:  # only values that un-flip into range: 0 and |v| <= 2**-52 un-flip to 3
        value = value.filter(lambda v: 3.0 - abs(v) < 3.0)
    values = draw(st.lists(value, min_size=len(ijk), max_size=len(ijk)))
    return SparseDFGrid(spec, kind, flipped, np.array(ijk, dtype=np.int64).reshape(-1, 3), values)


class TestGridProperties:
    def test_bound_is_inclusive(self, tmp_path):
        """Node 8 at exactly MAX_COORD reads back; one ulp further is refused."""
        spec = GridSpec(origin=(-MAX_COORD, 0, 0), voxel_size=MAX_COORD / 4, dims=(9, 1, 1))
        write_grid(SparseDFGrid(spec, DFKind.UED, False, [[8, 0, 0]], [1.0]), tmp_path / "a")
        assert read_grid(tmp_path / "a").spec.voxel_size == MAX_COORD / 4
        beyond = np.nextafter(MAX_COORD / 4, np.inf)
        with pytest.raises(ContractError):
            GridSpec(origin=(-MAX_COORD, 0, 0), voxel_size=beyond, dims=(9, 1, 1))
        data = bytearray((tmp_path / "a").read_bytes())
        data[46:54] = struct.pack("<d", beyond)
        (tmp_path / "b").write_bytes(bytes(data))
        with pytest.raises(ParseError) as err:
            read_grid(tmp_path / "b")
        assert err.value.offset == 46

    def test_voxel_size_below_the_bound(self, tmp_path):
        spec = GridSpec(origin=(0, 0, 0), voxel_size=MIN_LENGTH, dims=(2, 1, 1))
        write_grid(SparseDFGrid(spec, DFKind.UED, False, [[1, 0, 0]], [1.0]), tmp_path / "a")
        assert read_grid(tmp_path / "a").spec.voxel_size == MIN_LENGTH
        data = bytearray((tmp_path / "a").read_bytes())
        data[46:54] = struct.pack("<d", 1e-170)
        (tmp_path / "b").write_bytes(bytes(data))
        with pytest.raises(ParseError, match="MIN_LENGTH") as err:
            read_grid(tmp_path / "b")
        assert err.value.offset == 46

    @_FUZZ
    @given(grids())
    def test_write_read_write_is_byte_identical(self, grid):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.udfg", Path(tmp) / "b.udfg"
            write_grid(grid, first)
            back = read_grid(first)
            write_grid(back, second)
            assert first.read_bytes() == second.read_bytes()
        assert back.kind is grid.kind and back.flipped == grid.flipped
        assert back.spec.dims == grid.spec.dims
        np.testing.assert_array_equal(back.indices, grid.indices)
        np.testing.assert_array_equal(back.values, grid.values)
