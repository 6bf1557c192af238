"""Acceptance suite: the ten headline guarantees of the package.

Each test states one user-facing guarantee at its exact tolerance and
produces a single pass/fail line under ``pytest -v``.  Slow shared
computations (the ten-seed noisy roundtrip table used by the noise-trend
and sigma-sweep criteria) run once per module.
"""

import hashlib
import time

import numpy as np
import pytest

from helpers import (
    VOXEL_SIZE,
    brute_knn,
    brute_nearest,
    brute_radius,
    desk_cloud,
    grid_spec_for,
    noisy_desk_cloud,
    patch_distance,
    plane_cloud,
)
from udfgrid import (
    DFKind,
    DFParams,
    GridSpec,
    PointCloud,
    SceneSpec,
    SparseDFGrid,
    Sphere,
    build_index,
    build_pyramid,
    chamfer,
    chamfer_bruteforce,
    compute_grid,
    extract_sdf,
    extract_udf,
    flip,
    knn,
    make_evaluator,
    nearest,
    radius_query,
    roundtrip,
    sample_scene,
    udf_candidates,
    voxel_position,
)
from udfgrid.cli import main

DETERMINISM_SCENE = """
[plane.floor]
corner = 0, 0, 0
edge_u = 0.4, 0, 0
edge_v = 0, 0.4, 0
density = 4000

[sphere.ball]
center = 0.2, 0.2, 0.16
radius = 0.06
density = 4000

[scan]
sensors = 0.2, 0.2, 1.0; 1.0, 0.2, 0.3; 0.2, -0.6, 0.3
noise_sigma = 0.003
dropout = 0.25
"""


@pytest.fixture(scope="module")
def noisy_roundtrip_means():
    """Mean roundtrip CD over ten seeded noisy desk scans.

    One table serves both the noise-trend criterion (UWED vs UED vs IMLS
    at sigma = 2 voxels) and the sigma-sweep criterion (UWED at sigma =
    1, 2, and 4 voxels).
    """
    sums = {"ued": 0.0, "imls": 0.0, "uwed_1": 0.0, "uwed_2": 0.0, "uwed_4": 0.0}
    for seed in range(10):
        cloud = noisy_desk_cloud(seed)
        spec = grid_spec_for(cloud)
        base = DFParams(sigma=2.0 * VOXEL_SIZE)
        sums["ued"] += roundtrip(cloud, spec, DFKind.UED, False, base).cd
        sums["imls"] += roundtrip(cloud, spec, DFKind.IMLS, False, base).cd
        for mult in (1, 2, 4):
            params = DFParams(sigma=mult * VOXEL_SIZE)
            sums[f"uwed_{mult}"] += roundtrip(
                cloud, spec, DFKind.UWED, False, params
            ).cd
    return {key: total / 10.0 for key, total in sums.items()}


class TestAcceptance:
    def test_criterion_01_chamfer_matches_bruteforce_exactly(self):
        """Accelerated CD equals the O(n^2) scan exactly on 200 random
        pairs of up to 2,000 points each, in under 30 seconds total."""
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        for trial in range(200):
            n1 = int(rng.integers(1, 2001))
            n2 = int(rng.integers(1, 2001))
            scale = float(rng.uniform(0.01, 100.0))
            a = rng.normal(0.0, scale, (n1, 3))
            b = rng.normal(0.0, scale, (n2, 3))
            if trial % 4 == 0:
                shared = min(n1, n2, 50)
                b[:shared] = a[:shared]  # exact ties and zero distances
            p1, p2 = PointCloud(a), PointCloud(b)
            assert chamfer(p1, p2) == chamfer_bruteforce(p1, p2)
        assert time.perf_counter() - t0 < 30.0

    def test_criterion_02_spatial_queries_match_bruteforce(self):
        """nearest/knn/radius results are identical to an exhaustive scan
        on 100 random clouds of up to 5,000 points."""
        rng = np.random.default_rng(2)
        for trial in range(100):
            n = int(rng.integers(1, 5001))
            pts = rng.uniform(-1.0, 1.0, (n, 3)) * float(rng.uniform(0.1, 10.0))
            if trial % 5 == 0:
                pts = np.round(pts, 1)  # duplicates force tie-breaking
            index = build_index(PointCloud(pts))
            for q in rng.uniform(-1.5, 1.5, (3, 3)):
                assert nearest(index, q) == brute_nearest(pts, q)
                k = int(rng.integers(1, 21))
                assert knn(index, q, k) == brute_knn(pts, q, k)
                r = float(rng.uniform(0.05, 1.0))
                assert radius_query(index, q, r) == brute_radius(pts, q, r)

    def test_criterion_03_noiseless_roundtrip_fidelity(self):
        """Cloud -> grid -> cloud on the noiseless desk scene (16 points
        per voxel face, 5 cm voxels, sigma = 2 voxels) achieves CD
        <= 0.5 voxel for UWED and <= 0.25 voxel for UED, within 60 s."""
        cloud = desk_cloud(42)
        spec = grid_spec_for(cloud)
        params = DFParams.for_voxel_size(VOXEL_SIZE)
        t0 = time.perf_counter()
        uwed = roundtrip(cloud, spec, DFKind.UWED, False, params)
        ued = roundtrip(cloud, spec, DFKind.UED, False, params)
        elapsed = time.perf_counter() - t0
        assert uwed.cd <= 0.5 * VOXEL_SIZE
        assert ued.cd <= 0.25 * VOXEL_SIZE
        assert elapsed < 60.0

    def test_criterion_04_weighted_udf_beats_alternatives_under_noise(
        self, noisy_roundtrip_means
    ):
        """With Gaussian noise of 0.5 voxel, mean roundtrip CD of UWED is
        at least 5% below both UED and IMLS over ten seeds."""
        means = noisy_roundtrip_means
        assert means["uwed_2"] < means["ued"]
        assert (means["ued"] - means["uwed_2"]) / means["ued"] >= 0.05
        assert means["uwed_2"] < means["imls"]
        assert (means["imls"] - means["uwed_2"]) / means["imls"] >= 0.05

    def test_criterion_05_udf_extraction_resists_border_dilation(self):
        """On an open 1 m x 1 m patch with 5 cm voxels, the 95th-percentile
        distance from extracted points to the bounded patch is at least
        2x smaller for UWED/extract_udf than Hoppe/extract_sdf (5 seeds)."""
        params = DFParams.for_voxel_size(VOXEL_SIZE)
        p95_udf, p95_sdf = [], []
        for seed in range(5):
            cloud = plane_cloud(seed)
            spec = grid_spec_for(cloud)
            udf_points = extract_udf(compute_grid(cloud, spec, DFKind.UWED, params))
            sdf_points = extract_sdf(compute_grid(cloud, spec, DFKind.HOPPE, params))
            p95_udf.append(np.percentile(patch_distance(udf_points.positions), 95))
            p95_sdf.append(np.percentile(patch_distance(sdf_points.positions), 95))
        assert np.mean(p95_sdf) >= 2.0 * np.mean(p95_udf)

    def test_criterion_06_udf_gradients_point_radially_on_sphere(self):
        """On an exact truncated UDF of a sphere of radius 10 voxels, all
        finite-difference directions lie within 10 degrees of radial and
        at least 99% of extracted points land within 0.1 voxel of the
        sphere."""
        vs = VOXEL_SIZE
        center = np.array([0.8185, 0.8055, 0.7865])
        radius = 10.0 * vs
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=vs, dims=(33, 33, 33))
        ii, jj, kk = np.meshgrid(
            np.arange(33), np.arange(33), np.arange(33), indexing="ij"
        )
        idx = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
        dist = np.linalg.norm(voxel_position(spec, idx) - center, axis=1)
        values = np.abs(dist - radius) / vs
        keep = values < 3.0
        grid = SparseDFGrid(
            spec=spec,
            kind=DFKind.UED,
            flipped=False,
            indices=idx[keep],
            values=values[keep],
        )

        cand_idx, directions, _ = udf_candidates(grid)
        offsets = voxel_position(spec, cand_idx) - center
        node_dist = np.linalg.norm(offsets, axis=1)
        expected = np.sign(node_dist - radius)[:, None] * offsets / node_dist[:, None]
        cosine = np.clip((directions * expected).sum(axis=1), -1.0, 1.0)
        assert len(cand_idx) > 1000
        assert np.degrees(np.arccos(cosine)).max() <= 10.0

        extracted = extract_udf(grid)
        err = np.abs(np.linalg.norm(extracted.positions - center, axis=1) - radius)
        assert (err <= 0.1 * vs).mean() >= 0.99

    def test_criterion_07_field_identities_and_flip_involution(self):
        """At 10^4 random query points: UHoppe == |Hoppe|, UIMLS == |IMLS|,
        |SWED| == UWED, and UWED >= UED; flipping twice is bit-exact; every
        grid stores only values inside its kind's legal range."""
        cloud = desk_cloud(42)
        spec = grid_spec_for(cloud)
        params = DFParams.for_voxel_size(VOXEL_SIZE)
        rng = np.random.default_rng(7)
        lo = np.asarray(spec.origin)
        hi = lo + (np.asarray(spec.dims) - 1) * spec.voxel_size
        queries = rng.uniform(lo, hi, (10_000, 3))

        def field(kind: DFKind) -> np.ndarray:
            return make_evaluator(cloud, kind, params).batch(queries)

        hoppe = field(DFKind.HOPPE)
        np.testing.assert_array_equal(field(DFKind.UHOPPE), np.abs(hoppe))

        imls = field(DFKind.IMLS)
        uimls = field(DFKind.UIMLS)
        np.testing.assert_array_equal(np.isnan(imls), np.isnan(uimls))
        defined = ~np.isnan(imls)
        np.testing.assert_array_equal(uimls[defined], np.abs(imls[defined]))

        swed = field(DFKind.SWED)
        uwed = field(DFKind.UWED)
        np.testing.assert_array_equal(np.isnan(swed), np.isnan(uwed))
        defined = ~np.isnan(uwed)
        np.testing.assert_array_equal(np.abs(swed[defined]), uwed[defined])
        assert defined.sum() > 1000

        ued = field(DFKind.UED)
        assert (uwed[defined] >= ued[defined]).all()

        for kind in DFKind:
            grid = compute_grid(cloud, spec, kind, params)
            flipped = flip(grid)
            twice = flip(flipped)
            np.testing.assert_array_equal(twice.indices, grid.indices)
            np.testing.assert_array_equal(twice.values, grid.values)
            assert len(grid) > 0
            if kind.signed:
                assert (grid.values > -3.0).all() and (grid.values < 3.0).all()
                assert (flipped.values >= -3.0).all() and (flipped.values <= 3.0).all()
            else:
                assert (grid.values >= 0.0).all() and (grid.values < 3.0).all()
                assert (flipped.values > 0.0).all() and (flipped.values <= 3.0).all()

    def test_criterion_08_sigma_two_voxels_wins_the_sweep(
        self, noisy_roundtrip_means
    ):
        """Over ten noisy seeds, mean UWED roundtrip CD at sigma = 2 voxels
        is <= the means at sigma = 1 voxel and sigma = 4 voxels."""
        means = noisy_roundtrip_means
        assert means["uwed_2"] <= means["uwed_1"]
        assert means["uwed_2"] <= means["uwed_4"]

    def test_criterion_09_cli_outputs_byte_identical_across_threads(self, tmp_path):
        """Re-running every CLI pipeline with identical seeds produces
        byte-identical PLY and UDFG files at 1, 2, and 4 threads."""
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(DETERMINISM_SCENE)
        geometry = ["--voxel-size", "0.02", "--auto-bounds"]

        def run_pipelines(tag: str, threads: int) -> list[str]:
            work = tmp_path / tag
            work.mkdir()
            t = ["--threads", str(threads)]
            scan = work / "scan.ply"
            oriented = work / "normals.ply"
            assert main([*t, "synth", str(cfg), str(scan), "--seed", "11"]) == 0
            assert main([*t, "normals", str(scan), str(oriented)]) == 0
            outputs = [scan, oriented]
            for kind, extra in [("uwed", []), ("hoppe", []), ("ued", ["--flip"])]:
                grid_path = work / f"{kind}.udfg"
                recon = work / f"{kind}.rec.ply"
                assert main([*t, "compute", str(oriented), str(grid_path),
                             "--kind", kind, *extra, *geometry]) == 0
                assert main([*t, "extract", str(grid_path), str(recon)]) == 0
                outputs += [grid_path, recon]
            assert main([*t, "pyramid", str(oriented), str(work / "pyr"),
                         "--kind", "ued", "--levels", "2", *geometry]) == 0
            outputs += [work / "pyr.L0.udfg", work / "pyr.L1.udfg"]
            return [hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs]

        reference = run_pipelines("threads1", 1)
        assert run_pipelines("threads2", 2) == reference
        assert run_pipelines("threads4", 4) == reference
        assert run_pipelines("threads2_rerun", 2) == reference

    def test_criterion_10_pyramid_halves_dims_for_four_levels(self):
        """A (128, 128, 128) grid yields a four-level pyramid with dims
        128^3, 64^3, 32^3, and 16^3."""
        vs = VOXEL_SIZE
        scene = SceneSpec((Sphere((3.2, 3.2, 3.2), 0.5, 2000.0),))
        cloud = sample_scene(scene, 5)
        spec = GridSpec(origin=(0.0, 0.0, 0.0), voxel_size=vs, dims=(128, 128, 128))
        pyramid = build_pyramid(cloud, spec, DFKind.UED, DFParams.for_voxel_size(vs))
        assert [g.spec.dims for g in pyramid] == [
            (128, 128, 128),
            (64, 64, 64),
            (32, 32, 32),
            (16, 16, 16),
        ]
        for level, grid in enumerate(pyramid):
            assert grid.kind is DFKind.UED
            assert grid.spec.voxel_size == vs * 2**level
            np.testing.assert_array_equal(grid.spec.origin, (0.0, 0.0, 0.0))
            assert len(grid) > 0
