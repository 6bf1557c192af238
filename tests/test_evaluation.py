"""Tests for Chamfer distance and the roundtrip / sigma-sweep reports."""

import functools
import math

import numpy as np
import pytest

from helpers import DENSITY, VOXEL_SIZE, desk_cloud, grid_spec_for, plane_cloud
from udfgrid import (
    ContractError,
    DFKind,
    DFParams,
    EmptyCloudError,
    GridSpec,
    MissingDataError,
    PointCloud,
    RoundtripReport,
    ScanSpec,
    chamfer,
    chamfer_bruteforce,
    format_report_table,
    roundtrip,
    sigma_sweep,
    simulate_scans,
)
from udfgrid import normals


class TestChamfer:
    def test_two_singletons(self):
        """CD({a}, {b}) = |a - b|: each side contributes half the distance."""
        a = PointCloud([[0.0, 0.0, 0.0]])
        b = PointCloud([[0.5, 0.0, 0.0]])
        assert chamfer(a, b) == 0.5

    def test_asymmetric_sizes(self):
        """P1 = {o, o + d e_x}, P2 = {o}: only one P1 point is off-surface,
        so CD = d / (2 |P1|) = d / 4."""
        a = PointCloud([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]])
        b = PointCloud([[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(chamfer(a, b), 0.05)
        np.testing.assert_allclose(chamfer(b, a), 0.05)

    def test_identical_clouds(self):
        rng = np.random.default_rng(42)
        cloud = PointCloud(rng.random((100, 3)))
        assert chamfer(cloud, cloud) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(42)
        a = PointCloud(rng.random((50, 3)))
        b = PointCloud(rng.random((80, 3)))
        assert chamfer(a, b) == chamfer(b, a)

    def test_unsquared_distances(self):
        """Distances enter linearly, not squared."""
        a = PointCloud([[0.0, 0.0, 0.0]])
        b = PointCloud([[2.0, 0.0, 0.0]])
        assert chamfer(a, b) == 2.0  # squared would give 4

    def test_empty_rejected(self):
        a = PointCloud(np.empty((0, 3)))
        b = PointCloud([[0.0, 0.0, 0.0]])
        with pytest.raises(EmptyCloudError):
            chamfer(a, b)
        with pytest.raises(EmptyCloudError):
            chamfer(b, a)
        with pytest.raises(EmptyCloudError):
            chamfer_bruteforce(a, b)

    def test_accelerated_equals_bruteforce(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a = PointCloud(rng.random((int(rng.integers(1, 300)), 3)))
            b = PointCloud(rng.random((int(rng.integers(1, 300)), 3)))
            assert chamfer(a, b) == chamfer_bruteforce(a, b)

    def test_clustered_near_ties(self):
        """Near-duplicate points stress the candidate shortlist."""
        rng = np.random.default_rng(42)
        base = rng.random((40, 3))
        a = PointCloud(np.repeat(base, 3, axis=0) + rng.normal(0, 1e-9, (120, 3)))
        b = PointCloud(base + rng.normal(0, 1e-7, (40, 3)))
        assert chamfer(a, b) == chamfer_bruteforce(a, b)


class TestRoundtripReport:
    @pytest.mark.parametrize("cd", [-1.0, -math.inf, math.nan])
    def test_field_validation(self, cd):
        with pytest.raises(ContractError, match="cd must be non-negative"):
            RoundtripReport(
                kind=DFKind.UED, flipped=False, sigma=0.1, voxel_size=0.05,
                cd=cd, extracted_count=1, occupied_voxels=1, wall_time=0.1,
            )

    @pytest.mark.parametrize("counts", [(-1, 1), (1, -1)], ids=["points", "voxels"])
    def test_negative_count_refused(self, counts):
        with pytest.raises(ContractError, match="counts must be non-negative"):
            RoundtripReport(
                kind=DFKind.UED, flipped=False, sigma=0.1, voxel_size=0.05,
                cd=0.0, extracted_count=counts[0], occupied_voxels=counts[1], wall_time=0.1,
            )

    def test_infinite_cd_allowed(self):
        rep = RoundtripReport(
            kind=DFKind.UED, flipped=False, sigma=0.1, voxel_size=0.05,
            cd=math.inf, extracted_count=0, occupied_voxels=1, wall_time=0.1,
        )
        assert math.isinf(rep.cd)


@functools.cache
def _quarter_desk():
    return desk_cloud(seed=3, density=DENSITY / 4)


class TestRoundtrip:
    def test_plane_udf(self):
        cloud = plane_cloud(seed=3, density=2000.0)
        spec = grid_spec_for(cloud)
        rep = roundtrip(cloud, spec, DFKind.UED, False,
                        DFParams.for_voxel_size(VOXEL_SIZE))
        assert rep.kind is DFKind.UED and not rep.flipped
        assert rep.voxel_size == VOXEL_SIZE
        assert rep.occupied_voxels > 0
        assert rep.extracted_count > 0
        assert 0.0 < rep.cd < VOXEL_SIZE
        assert rep.wall_time > 0.0

    def test_normals_estimated_when_needed(self):
        clean = plane_cloud(seed=3, density=2000.0)
        org = np.tile([0.5, 0.5, 2.0], (len(clean), 1))
        cloud = PointCloud(clean.positions, sensor_origins=org)
        spec = grid_spec_for(cloud)
        rep = roundtrip(cloud, spec, DFKind.HOPPE, False,
                        DFParams.for_voxel_size(VOXEL_SIZE))
        assert rep.cd < VOXEL_SIZE

    def test_normals_needed_but_unorientable(self):
        clean = plane_cloud(seed=3, density=500.0)
        cloud = PointCloud(clean.positions)  # no normals, no sensors
        spec = grid_spec_for(cloud)
        with pytest.raises(MissingDataError):
            roundtrip(cloud, spec, DFKind.HOPPE, False,
                      DFParams.for_voxel_size(VOXEL_SIZE))

    @pytest.mark.parametrize("flipped", [np.array([True, False]), 1, "yes", None],
                             ids=["array", "int", "text", "None"])
    def test_non_bool_flipped_refused(self, flipped):
        """An array raised numpy's ambiguous-truth ValueError; 1 and "yes" flipped."""
        cloud = plane_cloud(seed=3, density=500.0)
        with pytest.raises(ContractError, match="flipped must be a bool"):
            roundtrip(cloud, grid_spec_for(cloud), DFKind.UED, flipped,
                      DFParams.for_voxel_size(VOXEL_SIZE))

    def test_nothing_extracted_reports_infinity(self):
        """A grid too small to hold interior band nodes extracts nothing."""
        cloud = PointCloud([[0.05, 0.05, 0.05]])
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=0.05, dims=(2, 2, 2))
        rep = roundtrip(cloud, spec, DFKind.UED, False,
                        DFParams.for_voxel_size(0.05))
        assert rep.extracted_count == 0
        assert math.isinf(rep.cd)

    @pytest.mark.parametrize("kind", list(DFKind), ids=lambda k: k.value)
    def test_flipped_reports_the_unflipped_numbers(self, kind):
        """Extraction un-flips the grid exactly, so only the flag differs."""
        cloud = _quarter_desk()
        spec, params = grid_spec_for(cloud), DFParams.for_voxel_size(VOXEL_SIZE)
        plain = roundtrip(cloud, spec, kind, False, params)
        flipped = roundtrip(cloud, spec, kind, True, params)
        assert flipped.flipped and not plain.flipped
        assert plain.extracted_count > 0
        assert (flipped.cd, flipped.extracted_count, flipped.occupied_voxels) == (
            plain.cd, plain.extracted_count, plain.occupied_voxels)

    @pytest.mark.xfail(
        strict=True,
        reason="gradient-projected UDF extraction has an error floor of about "
        "0.21 voxel on a plane (measured 0.246/0.229/0.218/0.209 voxel at "
        "16/32/64/128 points per voxel face), set by float32 value grading "
        "and the lattice discretization of the central difference, so a "
        "0.1-voxel Chamfer target is unattainable at any practical density",
    )
    def test_plane_udf_tight_fidelity(self):
        cloud = plane_cloud(seed=42)
        spec = grid_spec_for(cloud)
        rep = roundtrip(cloud, spec, DFKind.UED, False,
                        DFParams.for_voxel_size(VOXEL_SIZE))
        assert rep.cd <= 0.1 * VOXEL_SIZE


class TestSigmaSweep:
    def test_default_grid_of_reports(self):
        cloud = plane_cloud(seed=3, density=500.0, side=0.5)
        spec = grid_spec_for(cloud)
        reports = sigma_sweep(cloud, spec, [DFKind.UWED, DFKind.UED])
        assert len(reports) == 8
        # Kind-major ordering, sigma ascending within each kind.
        assert [r.kind for r in reports[:4]] == [DFKind.UWED] * 4
        assert [r.kind for r in reports[4:]] == [DFKind.UED] * 4
        np.testing.assert_allclose(
            [r.sigma for r in reports[:4]],
            [m * VOXEL_SIZE for m in (1.0, 2.0, 3.0, 4.0)],
        )

    def test_normals_estimated_once(self, monkeypatch):
        clean = plane_cloud(seed=3, density=500.0, side=0.5)
        org = np.tile([0.25, 0.25, 2.0], (len(clean), 1))
        cloud = PointCloud(clean.positions, sensor_origins=org)
        calls = []
        estimate = normals.estimate_normals

        def spy(cloud, k=30):
            calls.append(len(cloud))
            return estimate(cloud, k)

        monkeypatch.setattr(normals, "estimate_normals", spy)
        reports = sigma_sweep(cloud, grid_spec_for(cloud), [DFKind.IMLS, DFKind.SWED],
                              sigmas=[0.05, 0.1])
        assert len(reports) == 4 and len(calls) == 1

    def test_custom_sigmas(self):
        cloud = plane_cloud(seed=3, density=500.0, side=0.5)
        spec = grid_spec_for(cloud)
        reports = sigma_sweep(cloud, spec, [DFKind.UWED], sigmas=[0.05, 0.1])
        assert len(reports) == 2
        assert [r.sigma for r in reports] == [0.05, 0.1]

    def test_empty_sigmas_refused(self):
        cloud = plane_cloud(seed=3, density=500.0, side=0.5)
        with pytest.raises(ContractError, match="sigmas must be non-empty"):
            sigma_sweep(cloud, grid_spec_for(cloud), [DFKind.UWED], sigmas=[])

    @pytest.mark.parametrize("sigmas, match", [
        (0.1, "sigmas must be non-empty and one-dimensional"),
        (np.array(0.1), "sigmas must be non-empty and one-dimensional"),
        (["a"], "sigma must be finite"),
        ([0.1, -0.1], "sigma must be finite"),
    ], ids=["float", "0-d array", "text", "negative"])
    def test_bad_sigmas_refused(self, sigmas, match):
        """0.1 raised TypeError and "a" ValueError from ``float()``."""
        cloud = plane_cloud(seed=3, density=500.0, side=0.5)
        with pytest.raises(ContractError, match=match):
            sigma_sweep(cloud, grid_spec_for(cloud), [DFKind.UWED], sigmas=sigmas)

    def test_noisy_plane_prefers_two_voxel_sigma(self):
        """With half-voxel Gaussian noise, sigma = 2 voxels denoises better
        than sigma = 1 voxel (averaged over three seeds)."""
        diffs = []
        for seed in range(3):
            clean = plane_cloud(seed=seed)
            scan = ScanSpec([[0.5, 0.5, 2.0]], noise_sigma=0.5 * VOXEL_SIZE)
            noisy = simulate_scans(clean, scan, seed + 100)
            spec = grid_spec_for(noisy)
            reports = sigma_sweep(noisy, spec, [DFKind.UWED],
                                  sigmas=[VOXEL_SIZE, 2.0 * VOXEL_SIZE])
            diffs.append(reports[0].cd - reports[1].cd)
        assert np.mean(diffs) > 0.0


class TestReportFormatting:
    def _report(self):
        return RoundtripReport(
            kind=DFKind.UWED, flipped=False, sigma=0.1, voxel_size=0.05,
            cd=0.0123456789, extracted_count=1234, occupied_voxels=567,
            wall_time=1.5,
        )

    def test_table_layout(self):
        table = format_report_table([self._report(), self._report()])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        for token in ("kind", "sigma/vs", "cd [m]", "cd [cm]", "points",
                      "voxels", "time [s]"):
            assert token in lines[0]
        assert set(lines[1]) == {"-"}
        assert lines[2].startswith("uwed") and "0.012346" in lines[2]
