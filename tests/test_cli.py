"""End-to-end tests for the command-line interface."""

import contextlib
import functools
import io
import itertools
import math
import re
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import spy_builds, write_flipped_grid
from udfgrid import (
    DFKind,
    DFParams,
    EmptyCloudError,
    GridSpec,
    PointCloud,
    SparseDFGrid,
    compute_grid,
    read_grid,
    read_ply,
    write_grid,
    write_ply,
)
from udfgrid import evaluation, normals
from udfgrid.cli import main

SCENE_CFG = """
[plane.floor]
corner = 0, 0, 0
edge_u = 0.4, 0, 0
edge_v = 0, 0.4, 0
density = 4000

[sphere.ball]
center = 0.2, 0.2, 0.16
radius = 0.06
density = 4000
"""

SCAN_BLOCK = """
[scan]
sensors = 0.2, 0.2, 1.0; 1.0, 0.2, 0.3
noise_sigma = 0.005
"""

GEOMETRY = ["--voxel-size", "0.02", "--auto-bounds"]


@pytest.fixture
def scene_cfg(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_CFG)
    return str(path)


@pytest.fixture
def scanned_cfg(tmp_path):
    path = tmp_path / "scanned.cfg"
    path.write_text(SCENE_CFG + SCAN_BLOCK)
    return str(path)


@pytest.fixture
def clean_ply(tmp_path, scene_cfg):
    out = str(tmp_path / "clean.ply")
    assert main(["synth", scene_cfg, out, "--seed", "3"]) == 0
    return out


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_bad_kind(self, clean_ply, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["compute", clean_ply, str(tmp_path / "g.udfg"),
                  "--kind", "tsdf", *GEOMETRY])
        assert err.value.code == 1
        assert "unknown DF kind" in capsys.readouterr().err

    def test_origin_requires_dims(self, clean_ply, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["compute", clean_ply, str(tmp_path / "g.udfg"),
                  "--kind", "ued", "--voxel-size", "0.02",
                  "--origin", "0 0 0"])
        assert err.value.code == 1
        assert "--origin requires --dims" in capsys.readouterr().err

    def test_origin_excludes_auto_bounds(self, clean_ply, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["compute", clean_ply, str(tmp_path / "g.udfg"),
                  "--kind", "ued", "--voxel-size", "0.02", "--auto-bounds",
                  "--origin", "0 0 0", "--dims", "8 8 8"])
        assert err.value.code == 1

    def test_dims_excludes_auto_bounds(self, clean_ply, tmp_path, capsys):
        out = tmp_path / "g.udfg"
        with pytest.raises(SystemExit) as err:
            main(["compute", clean_ply, str(out), "--kind", "ued", *GEOMETRY, "--dims", "8 8 8"])
        assert err.value.code == 1
        assert "--auto-bounds" in capsys.readouterr().err and not out.exists()

    def test_sigma_excludes_sigma_sweep(self, clean_ply, capsys):
        with pytest.raises(SystemExit) as err:
            main(["roundtrip", clean_ply, "--kind", "uwed", "--sigma-sweep",
                  "--sigma", "0.04", *GEOMETRY])
        assert err.value.code == 1
        assert "--sigma" in capsys.readouterr().err

    def test_bad_vector(self, clean_ply, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["compute", clean_ply, str(tmp_path / "g.udfg"),
                  "--kind", "ued", "--voxel-size", "0.02",
                  "--origin", "0 0", "--dims", "8 8 8"])
        assert err.value.code == 1

    @pytest.mark.parametrize("bounds, message", [
        (["--origin", "a b c", "--dims", "8 8 8"], "expected three numbers, got 'a b c'"),
        (["--origin", "0 0 0", "--dims", "0 3 3"], "dims must be >= 1"),
    ], ids=["origin", "dims"])
    def test_bad_explicit_bounds(self, clean_ply, tmp_path, capsys, bounds, message):
        with pytest.raises(SystemExit) as err:
            main(["compute", clean_ply, str(tmp_path / "g.udfg"),
                  "--kind", "ued", "--voxel-size", "0.02", *bounds])
        assert err.value.code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_bad_seed(self, scene_cfg, tmp_path, capsys, seed):
        """A seed is an integer >= 0; -1 reached numpy and ended in a traceback."""
        with pytest.raises(SystemExit) as err:
            main(["synth", scene_cfg, str(tmp_path / "o.ply"), "--seed", seed])
        assert err.value.code == 1
        text = capsys.readouterr().err
        assert "--seed: expected an integer >= 0" in text and "Traceback" not in text

    @pytest.mark.parametrize("kinds", [",", " , "])
    def test_empty_kind_list(self, clean_ply, capsys, kinds):
        with pytest.raises(SystemExit) as err:
            main(["roundtrip", clean_ply, "--kind", kinds, *GEOMETRY])
        assert err.value.code == 1
        assert "expected at least one kind" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_bad_thread_count(self, clean_ply, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as err:
            main(["--threads", threads, "compute", clean_ply,
                  str(tmp_path / "g.udfg"), "--kind", "ued", *GEOMETRY])
        assert err.value.code == 1
        assert "--threads" in capsys.readouterr().err


class TestDataErrors:
    def test_non_integer_thread_environment(self, clean_ply, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UDFGRID_THREADS", "abc")
        code = main(["compute", clean_ply, str(tmp_path / "g.udfg"), "--kind", "ued", *GEOMETRY])
        err = capsys.readouterr().err
        assert code == 2
        assert "UDFGRID_THREADS" in err and "Traceback" not in err

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_out_of_range_thread_environment(self, clean_ply, tmp_path, capsys, monkeypatch,
                                             threads):
        monkeypatch.setenv("UDFGRID_THREADS", threads)
        code = main(["compute", clean_ply, str(tmp_path / "g.udfg"), "--kind", "ued", *GEOMETRY])
        err = capsys.readouterr().err
        assert code == 2
        assert "UDFGRID_THREADS" in err and "Traceback" not in err

    def test_huge_scene_density(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("[sphere]\ncenter = 0, 0, 0\nradius = 1\ndensity = 1e300\n")
        code = main(["synth", str(cfg), str(tmp_path / "o.ply")])
        err = capsys.readouterr().err
        assert code == 2
        assert "points" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind, value", [(DFKind.SED, 0.0), (DFKind.UED, 2.0**-60)])
    def test_flipped_grid_that_cannot_unflip(self, tmp_path, capsys, kind, value):
        grid = write_flipped_grid(tmp_path / "flipped.udfg", kind, value)
        code = main(["extract", str(grid), str(tmp_path / "out.ply")])
        err = capsys.readouterr().err
        assert code == 2
        assert "flipped.udfg" in err and "Traceback" not in err

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["chamfer", str(tmp_path / "a.ply"), str(tmp_path / "b.ply")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_noise_without_scan_section(self, scene_cfg, tmp_path, capsys):
        code = main(["synth", scene_cfg, str(tmp_path / "o.ply"),
                     "--noise", "0.01"])
        assert code == 2
        assert "[scan]" in capsys.readouterr().err

    def test_malformed_ply(self, tmp_path, capsys):
        bad = tmp_path / "bad.ply"
        bad.write_text("not a ply at all\n")
        code = main(["chamfer", str(bad), str(bad)])
        assert code == 2

    def test_negative_vertex_count(self, tmp_path, capsys):
        bad = tmp_path / "neg.ply"
        bad.write_bytes(
            b"ply\nformat binary_little_endian 1.0\nelement vertex -1\n"
            b"property double x\nproperty double y\nproperty double z\nend_header\n"
            + np.arange(6, dtype="<f8").tobytes()
        )
        code = main(["chamfer", str(bad), str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad vertex count" in err and "Traceback" not in err

    def test_auto_bounds_on_empty_cloud(self, tmp_path, capsys):
        empty = tmp_path / "empty.ply"
        write_ply(PointCloud(np.empty((0, 3))), empty)
        code = main(["compute", str(empty), str(tmp_path / "g.udfg"),
                     "--kind", "ued", *GEOMETRY])
        err = capsys.readouterr().err
        assert code == 2
        assert "empty" in err and "Traceback" not in err

    def test_non_unit_normal(self, tmp_path, capsys):
        bad = tmp_path / "normal.ply"
        bad.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
            "property double y\nproperty double z\nproperty double nx\n"
            "property double ny\nproperty double nz\nend_header\n0 0 0 0 0 2\n"
        )
        code = main(["chamfer", str(bad), str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid vertex data" in err and "Traceback" not in err

    @pytest.mark.parametrize("section", [
        "[sphere]\ncenter = 0, 0, 0\nradius = 0.1\ndensity = inf\n",
        "[cylinder]\nbase = 0, 0, 0\naxis = 0, 0, 1\nradius = 0.1\n"
        "height = inf\ndensity = 100\n",
    ], ids=["sphere density", "cylinder height"])
    def test_non_finite_scene_size(self, tmp_path, capsys, section):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(section)
        code = main(["synth", str(cfg), str(tmp_path / "o.ply")])
        err = capsys.readouterr().err
        assert code == 2
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("voxel_size", ["0", "nan", "inf", "1e-170"])
    def test_bad_voxel_size(self, clean_ply, tmp_path, capsys, voxel_size):
        code = main(["compute", clean_ply, str(tmp_path / "g.udfg"), "--kind", "ued",
                     "--voxel-size", voxel_size, "--auto-bounds"])
        err = capsys.readouterr().err
        assert code == 2
        assert "voxel_size" in err and "Traceback" not in err

    def test_infinite_sigma(self, clean_ply, tmp_path, capsys):
        """An infinite sigma made every Gaussian weight 1, and compute exited 0."""
        code = main(["compute", clean_ply, str(tmp_path / "g.udfg"), "--kind", "uwed",
                     "--sigma", "inf", *GEOMETRY])
        err = capsys.readouterr().err
        assert code == 2
        assert "sigma" in err and "Traceback" not in err

    def test_sigma_below_the_bound(self, clean_ply, tmp_path, capsys):
        """Sigma 1e-170 made every Gaussian weight 0 / 0, and compute exited 0."""
        code = main(["compute", clean_ply, str(tmp_path / "g.udfg"), "--kind", "uwed",
                     "--sigma", "1e-170", *GEOMETRY])
        err = capsys.readouterr().err
        assert code == 2
        assert "MIN_LENGTH" in err and "Traceback" not in err

    def test_scan_limit(self, tmp_path, capsys):
        cube = tmp_path / "cube.ply"
        write_ply(PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), cube)
        code = main(["compute", str(cube), str(tmp_path / "g.udfg"), "--kind", "ued",
                     "--voxel-size", "1e-6", "--auto-bounds"])
        err = capsys.readouterr().err
        assert code == 2
        assert "nodes" in err and "Traceback" not in err

    def test_coordinate_beyond_the_bound(self, tmp_path, capsys):
        """1.4e154 squared overflows: chamfer printed inf and exited 0."""
        far, near = tmp_path / "far.ply", tmp_path / "near.ply"
        head = ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
                "property double y\nproperty double z\nend_header\n")
        far.write_text(head + "1.4e154 0 0\n")
        near.write_text(head + "0 0 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["chamfer", str(far), str(near)])
        err = capsys.readouterr().err
        assert code == 2
        assert "positions must be finite" in err and "Traceback" not in err

    def test_grid_beyond_the_bound(self, tmp_path, capsys):
        """A voxel size of 4.5e307 puts the far corner of 10**3 nodes at inf."""
        path = tmp_path / "far.udfg"
        header = struct.pack("<4sIBB3I3ddQ", b"UDFG", 1, DFKind.UED.code, 0,
                             10, 10, 10, 0.0, 0.0, 0.0, 4.5e307, 0)
        path.write_bytes(header)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["extract", str(path), str(tmp_path / "out.ply")])
        err = capsys.readouterr().err
        assert code == 2
        assert "byte offset 46" in err and "Traceback" not in err

    def test_normals_need_sensors_for_orientation(self, tmp_path, capsys):
        cloud = PointCloud(np.random.default_rng(42).random((30, 3)))
        src = tmp_path / "plain.ply"
        write_ply(cloud, src)
        code = main(["normals", str(src), str(tmp_path / "out.ply")])
        assert code == 2


class TestSynth:
    def test_clean_scene_has_analytic_normals(self, tmp_path, scene_cfg):
        out = tmp_path / "clean.ply"
        assert main(["synth", scene_cfg, str(out), "--seed", "3"]) == 0
        cloud = read_ply(out)
        # 0.16 m^2 plane and a sphere at 4000 pts/m^2.
        assert len(cloud) == 640 + int(round(4 * np.pi * 0.06**2 * 4000))
        assert cloud.has_normals and not cloud.has_sensor_origins

    def test_scanned_scene_has_sensors_not_normals(self, tmp_path, scanned_cfg):
        out = tmp_path / "scan.ply"
        assert main(["synth", scanned_cfg, str(out), "--seed", "3"]) == 0
        cloud = read_ply(out)
        assert cloud.has_sensor_origins and not cloud.has_normals

    def test_noise_override(self, tmp_path, scanned_cfg):
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        assert main(["synth", scanned_cfg, str(a), "--seed", "3"]) == 0
        assert main(["synth", scanned_cfg, str(b), "--seed", "3",
                     "--noise", "0.05"]) == 0
        ca, cb = read_ply(a), read_ply(b)
        assert np.abs(cb.positions - ca.positions).std() > 0.01

    def test_dropout_override(self, tmp_path, scanned_cfg):
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        assert main(["synth", scanned_cfg, str(a), "--seed", "3"]) == 0
        assert main(["synth", scanned_cfg, str(b), "--seed", "3",
                     "--dropout", "0.5"]) == 0
        # One of the two scan groups is dropped.
        assert len(read_ply(b)) < len(read_ply(a))

    def test_dropout_of_every_scan_group_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "four.cfg"
        # One sensor above each quarter of the floor: four scan groups.
        cfg.write_text(SCENE_CFG + "\n[scan]\ndropout = 0.8\n"
                       "sensors = 0.1, 0.1, 1; 0.3, 0.1, 1; 0.1, 0.3, 1; 0.3, 0.3, 1\n")
        out = tmp_path / "scan.ply"
        assert main(["synth", str(cfg), str(out), "--seed", "3"]) == 2
        assert "all 4 scan groups" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_changes_output(self, tmp_path, scene_cfg):
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        main(["synth", scene_cfg, str(a), "--seed", "1"])
        main(["synth", scene_cfg, str(b), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()


class TestNormalsCommand:
    def test_estimates_and_orients(self, tmp_path, scanned_cfg, capsys):
        scan = tmp_path / "scan.ply"
        main(["synth", scanned_cfg, str(scan), "--seed", "3"])
        out = tmp_path / "normals.ply"
        assert main(["normals", str(scan), str(out), "--k", "12"]) == 0
        cloud = read_ply(out)
        assert cloud.has_normals and cloud.has_sensor_origins
        valid = ~np.isnan(cloud.normals).any(axis=1)
        np.testing.assert_allclose(
            np.linalg.norm(cloud.normals[valid], axis=1), 1.0, atol=1e-6
        )
        # Floor points (z near 0, under the open sky) must look up.
        floor = cloud.positions[:, 2] < 0.01
        assert (cloud.normals[floor & valid, 2] > 0).mean() > 0.95


class TestComputeExtract:
    def test_compute_unsigned(self, tmp_path, clean_ply, capsys):
        out = tmp_path / "g.udfg"
        assert main(["compute", clean_ply, str(out), "--kind", "uwed",
                     *GEOMETRY]) == 0
        grid = read_grid(out)
        assert grid.kind is DFKind.UWED and not grid.flipped
        assert len(grid) > 0
        assert "occupied voxels" in capsys.readouterr().out

    def test_compute_flip(self, tmp_path, clean_ply):
        out = tmp_path / "g.udfg"
        assert main(["compute", clean_ply, str(out), "--kind", "ued",
                     "--flip", *GEOMETRY]) == 0
        grid = read_grid(out)
        assert grid.flipped
        assert (grid.values > 0).all() and (grid.values <= 3.0).all()

    def test_compute_explicit_bounds(self, tmp_path, clean_ply):
        out = tmp_path / "g.udfg"
        assert main(["compute", clean_ply, str(out), "--kind", "ued",
                     "--voxel-size", "0.02",
                     "--origin", "-0.06 -0.06 -0.06",
                     "--dims", "27,27,18"]) == 0
        grid = read_grid(out)
        assert grid.spec.dims == (27, 27, 18)
        np.testing.assert_allclose(grid.spec.origin, [-0.06, -0.06, -0.06])

    def test_extract_udf_and_chamfer(self, tmp_path, clean_ply, capsys):
        grid_path = tmp_path / "g.udfg"
        main(["compute", clean_ply, str(grid_path), "--kind", "uwed", *GEOMETRY])
        out = tmp_path / "rec.ply"
        assert main(["extract", str(grid_path), str(out)]) == 0
        rec = read_ply(out)
        assert len(rec) > 100
        assert main(["chamfer", clean_ply, str(out)]) == 0
        text = capsys.readouterr().out
        m = re.search(r"chamfer distance: (\d+\.\d{9}) m \((\d+\.\d{6}) cm\)", text)
        assert m, text
        assert float(m.group(1)) < 0.02  # within a voxel of the surface

    def test_chamfer_builds_one_index_per_file(self, tmp_path, clean_ply, monkeypatch):
        """Each file is read into a fresh cloud, which keeps no index: two builds."""
        other = tmp_path / "other.ply"
        write_ply(PointCloud(read_ply(clean_ply).positions[::3] + 0.001), other)
        built = spy_builds(monkeypatch)
        assert main(["chamfer", clean_ply, str(other)]) == 0
        assert sorted(map(len, built)) == sorted([len(read_ply(clean_ply)), len(read_ply(other))])

    def test_extract_sdf_from_signed_grid(self, tmp_path, clean_ply):
        grid_path = tmp_path / "g.udfg"
        main(["compute", clean_ply, str(grid_path), "--kind", "hoppe", *GEOMETRY])
        out = tmp_path / "rec.ply"
        assert main(["extract", str(grid_path), str(out)]) == 0
        assert len(read_ply(out)) > 100


class TestRoundtripCommand:
    def test_multi_kind_table(self, clean_ply, capsys):
        assert main(["roundtrip", clean_ply, "--kind", "uwed,ued", *GEOMETRY]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header, rule, a row per kind
        assert lines[2].startswith("uwed") and lines[3].startswith("ued")

    def test_flip_reports_the_unflipped_numbers(self, clean_ply, capsys):
        """Extraction un-flips the grid exactly: only the flip column changes."""
        def rows(flag: list[str]) -> list[list[str]]:
            assert main(["roundtrip", clean_ply, "--kind", "ued,uwed,sed,imls",
                         *flag, *GEOMETRY]) == 0
            return [line.split() for line in capsys.readouterr().out.splitlines()[2:]]

        plain, flipped = rows([]), rows(["--flip"])
        assert [r[1] for r in plain] == ["false"] * 4 and [r[1] for r in flipped] == ["true"] * 4
        # kind, sigma/vs, both CDs, points and voxels; not the wall time.
        assert [r[:1] + r[2:7] for r in flipped] == [r[:1] + r[2:7] for r in plain]

    def test_sigma_sweep_table(self, clean_ply, capsys):
        assert main(["roundtrip", clean_ply, "--kind", "uwed",
                     "--sigma-sweep", *GEOMETRY]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6  # header, rule, four sigma rows
        ratios = [float(line.split()[2]) for line in lines[2:]]
        assert ratios == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("sweep", [[], ["--sigma-sweep"]], ids=["single", "sweep"])
    def test_max_neighbors_reaches_every_sigma(self, clean_ply, capsys, sweep):
        """The table's CDs are ``sigma_sweep``'s at the given cap, with and without a sweep."""
        def cds(argv: list[str]) -> list[str]:
            assert main(["roundtrip", clean_ply, "--kind", "uwed", *sweep, *argv, *GEOMETRY]) == 0
            return [line.split()[3] for line in capsys.readouterr().out.splitlines()[2:]]

        capped = cds(["--max-neighbors", "2"])
        cloud = read_ply(clean_ply)
        spec = GridSpec.covering(cloud.positions, 0.02)
        sigmas = None if sweep else [0.04]
        want = evaluation.sigma_sweep(cloud, spec, [DFKind.UWED], sigmas, max_neighbors=2)
        assert capped == [f"{r.cd:.6f}" for r in want]
        assert capped != cds([])

    def test_normals_estimated_once(self, tmp_path, scanned_cfg, capsys, monkeypatch):
        """A noisy scan's kinds share one estimate and give each kind's own table row."""
        scan = str(tmp_path / "scan.ply")
        assert main(["synth", scanned_cfg, scan, "--seed", "3"]) == 0
        calls = []
        estimate = normals.estimate_normals

        def spy(cloud, k=30):
            calls.append(len(cloud))
            return estimate(cloud, k)

        monkeypatch.setattr(normals, "estimate_normals", spy)
        capsys.readouterr()

        def table(kinds: str) -> list[str]:
            assert main(["roundtrip", scan, "--kind", kinds, *GEOMETRY]) == 0
            # Every column but the wall time.
            return [line.rsplit(None, 1)[0] for line in capsys.readouterr().out.splitlines()]

        shared = table("imls,swed")
        assert len(calls) == 1
        alone = table("imls") + table("swed")[2:]
        assert shared == alone and len(calls) == 3


class TestPyramidCommand:
    def test_writes_all_levels(self, tmp_path, clean_ply, capsys):
        prefix = str(tmp_path / "pyr")
        assert main(["pyramid", clean_ply, prefix, "--kind", "ued",
                     "--levels", "3", *GEOMETRY]) == 0
        dims0 = read_grid(f"{prefix}.L0.udfg").spec.dims
        dims1 = read_grid(f"{prefix}.L1.udfg").spec.dims
        dims2 = read_grid(f"{prefix}.L2.udfg").spec.dims
        assert dims1 == tuple(-(-d // 2) for d in dims0)
        assert dims2 == tuple(-(-d // 4) for d in dims0)
        assert len(capsys.readouterr().out.strip().splitlines()) == 3


class TestAutoBounds:
    def test_three_voxel_pad(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.25]])
        spec = GridSpec.covering(pos, 0.25)
        np.testing.assert_allclose(spec.origin, [-0.75, -0.75, -0.75])
        # Nodes must reach max + 3 voxels: (top - origin) / vs + 1 nodes.
        assert spec.dims == (11, 9, 8)

    def test_covers_cloud_with_margin(self):
        rng = np.random.default_rng(42)
        pos = rng.random((50, 3))
        spec = GridSpec.covering(pos, 0.05)
        top = spec.origin + (np.array(spec.dims) - 1) * 0.05
        assert (spec.origin <= pos.min(axis=0) - 3 * 0.05 + 1e-12).all()
        # The node lattice snaps to whole voxels, so the guaranteed
        # padding above the cloud maximum is one voxel less.
        assert (top >= pos.max(axis=0) + 2 * 0.05 - 1e-12).all()

    def test_empty_positions_rejected(self):
        with pytest.raises(EmptyCloudError):
            GridSpec.covering(np.empty((0, 3)), 0.05)


# -- property: the CLI on damaged files ---------------------------------------
#
# A damaged file is a small library-written file cut to a shorter length or
# with one byte XOR-ed by a non-zero mask, as in the reader fuzz of
# test_io.py.  Whatever the damage, a command exits 0, 1 or 2 and prints no
# traceback; any other exception propagates out of ``main`` and fails here.

_DAMAGE = st.tuples(
    st.sampled_from(["cut", "xor"]), st.integers(0, 2**16), st.integers(1, 255)
)
_CLI_FUZZ = settings(max_examples=60)


def _fuzz_cloud() -> PointCloud:
    rng = np.random.default_rng(7)
    nrm = rng.normal(size=(8, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(rng.random((8, 3)), nrm, rng.random((8, 3)) + 2.0)


@functools.cache
def _undamaged(name: str) -> bytes:
    """Library-written bytes of ``binary.ply``, ``ascii.ply`` or ``grid.udfg``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        cloud = _fuzz_cloud()
        if name == "grid.udfg":
            spec = GridSpec.covering(cloud.positions, 0.25)
            write_grid(compute_grid(cloud, spec, DFKind.SWED, DFParams.for_voxel_size(0.25)), path)
        else:
            write_ply(cloud, path, binary=name == "binary.ply")
        return path.read_bytes()


def _run_on_damaged(name: str, how: str, at: int, mask: int, command) -> None:
    data = _undamaged(name)
    at %= len(data)
    if how == "cut":
        data = data[:at]
    else:
        data = data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        damaged, good = Path(tmp) / name, Path(tmp) / f"good-{name}"
        damaged.write_bytes(data)
        good.write_bytes(_undamaged(name))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(command(str(damaged), str(good), tmp))
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def _compute(damaged, good, tmp):
    return ["compute", damaged, f"{tmp}/g.udfg", "--kind", "swed",
            "--voxel-size", "0.25", "--auto-bounds"]


def _chamfer(damaged, good, tmp):
    return ["chamfer", damaged, good]


def _extract(damaged, good, tmp):
    return ["extract", damaged, f"{tmp}/out.ply"]


class TestDamagedFiles:
    @_CLI_FUZZ
    @given(_DAMAGE, st.sampled_from([_compute, _chamfer]))
    def test_binary_ply(self, d, command):
        _run_on_damaged("binary.ply", *d, command)

    @_CLI_FUZZ
    @given(_DAMAGE, st.sampled_from([_compute, _chamfer]))
    def test_ascii_ply(self, d, command):
        _run_on_damaged("ascii.ply", *d, command)

    @_CLI_FUZZ
    @given(_DAMAGE)
    def test_udfg(self, d):
        _run_on_damaged("grid.udfg", *d, _extract)


# -- exhaustive: every byte of a tiny file XOR-ed by each of a few masks -------
#
# 0x40 flips the top exponent bit of a little-endian double or float, which
# is what made a coordinate or voxel size overflow; 0x01 and 0x80 cover the
# low and sign bits.  A run exits 0 with finite output, or 1 or 2 with no
# traceback.

_MASKS = (0x01, 0x40, 0x80)


@functools.cache
def _tiny(name: str) -> bytes:
    """Library-written bytes of a 3-point ``tiny.ply`` or a 7-record ``tiny.udfg``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        if name == "tiny.ply":
            write_ply(PointCloud([[0.1, 0.2, 0.3], [0.4, 0.1, 0.2], [0.3, 0.35, 0.05]]), path)
        else:  # a centre voxel with its six axis neighbours: one extraction candidate
            idx = [[1, 1, 1], [0, 1, 1], [2, 1, 1], [1, 0, 1], [1, 2, 1], [1, 1, 0], [1, 1, 2]]
            grid = SparseDFGrid(GridSpec((0, 0, 0), 0.25, (3, 3, 3)), DFKind.UED, False,
                                idx, [1.5, 0.5, 2.5, 1.0, 2.0, 1.25, 1.75])
            write_grid(grid, path)
        return path.read_bytes()


def _sweep(name: str, command, finite) -> None:
    data = _tiny(name)
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        damaged, good = Path(tmp) / name, Path(tmp) / f"good-{name}"
        good.write_bytes(data)
        for at, mask in itertools.product(range(len(data)), _MASKS):
            damaged.write_bytes(data[:at] + bytes([data[at] ^ mask]) + data[at + 1:])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                try:
                    code = main(command(str(damaged), str(good), tmp))
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # any other escape is a finding
                    code = repr(exc)
            ok = code in (1, 2) or (code == 0 and finite(out.getvalue(), tmp))
            if not ok or "Traceback" in err.getvalue():
                bad.append((at, hex(mask), code, err.getvalue()[-200:]))
    assert bad == []


def _grid_finite(out: str, tmp: str) -> bool:
    return bool(np.isfinite(read_grid(f"{tmp}/g.udfg").values).all())


def _distance_finite(out: str, tmp: str) -> bool:
    return math.isfinite(float(re.search(r"chamfer distance: (\S+) m", out).group(1)))


def _points_finite(out: str, tmp: str) -> bool:
    return bool(np.isfinite(read_ply(f"{tmp}/out.ply").positions).all())


class TestDamageSweep:
    def test_ply_compute(self):
        _sweep("tiny.ply", _compute_ued, _grid_finite)

    def test_ply_chamfer(self):
        _sweep("tiny.ply", _chamfer, _distance_finite)

    def test_udfg_extract(self):
        _sweep("tiny.udfg", _extract, _points_finite)


def _compute_ued(damaged, good, tmp):
    return ["compute", damaged, f"{tmp}/g.udfg", "--kind", "ued",
            "--voxel-size", "0.25", "--auto-bounds"]
