"""Units must not matter: a scene scaled by 2**e gives the same grids.

Multiplying by a power of two is exact in floating point.  Scaling the
positions, sensor origins, grid origin, voxel size and sigma by 2**e should
therefore give byte-identical grids for every kind, and extraction and
Chamfer distances scaled by exactly 2**e.  The two thresholds that would
break this at small scales, ``compute_grid``'s reach guard and the
degenerate eigengap of ``estimate_normals``, are relative: the property
below holds over e in [-60, 60].
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import DENSITY, SENSORS, VOXEL_SIZE, desk_scene, grid_spec_for
from udfgrid import (
    DFKind,
    DFParams,
    GridSpec,
    PointCloud,
    ScanSpec,
    chamfer,
    compute_grid,
    estimate_normals,
    extract_udf,
    orient_normals,
    sample_scene,
    simulate_scans,
)

VOXEL = 2 * VOXEL_SIZE
PLANE_KINDS = (DFKind.HOPPE, DFKind.IMLS, DFKind.UHOPPE, DFKind.UIMLS)


@functools.cache
def _scan() -> PointCloud:
    """A quarter-density noisy desk scan, 6,605 points, without normals."""
    clean = sample_scene(desk_scene(DENSITY / 4), 3)
    return simulate_scans(clean, ScanSpec(SENSORS, noise_sigma=0.5 * VOXEL_SIZE), 1003)


@functools.cache
def _cloud() -> PointCloud:
    return orient_normals(estimate_normals(_scan()))


def _scene(e: int):
    """(cloud, spec, params) scaled by 2**e, with the normals estimated at scale 1."""
    s = 2.0**e
    cloud = _cloud()
    spec = grid_spec_for(cloud, VOXEL)
    return (PointCloud(cloud.positions * s, cloud.normals, cloud.sensor_origins * s),
            GridSpec(spec.origin * s, spec.voxel_size * s, spec.dims),
            DFParams(sigma=2 * VOXEL * s))


@functools.cache
def _grids(e: int) -> dict:
    cloud, spec, params = _scene(e)
    return {kind: compute_grid(cloud, spec, kind, params) for kind in DFKind}


def _same_grids(e: int, kinds) -> None:
    for kind in kinds:
        want, got = _grids(0)[kind], _grids(e)[kind]
        assert len(want) > 0
        same = (got.indices.tobytes(), got.values.tobytes()) == \
            (want.indices.tobytes(), want.values.tobytes())
        assert same, f"{kind.value}: {len(want)} voxels at scale 1, {len(got)} at 2**{e}"


@pytest.mark.parametrize("e", [-8, -3, 5, 60])
def test_grids_extraction_and_chamfer_scale_exactly(e):
    _same_grids(e, DFKind)
    s = 2.0**e
    want, got = extract_udf(_grids(0)[DFKind.UWED]), extract_udf(_grids(e)[DFKind.UWED])
    assert len(want) > 0
    assert got.positions.tobytes() == (want.positions * s).tobytes()
    cloud, unscaled = _scene(e)[0], _scene(0)[0]
    assert chamfer(got, cloud) == chamfer(want, unscaled) * s


@pytest.mark.parametrize("e", [-16, -20])
def test_plane_kinds_keep_the_same_voxels_at_small_scales(e):
    _same_grids(e, PLANE_KINDS)


@functools.cache
def _normals(e: int) -> np.ndarray:
    s = 2.0**e
    scan = _scan()
    return estimate_normals(PointCloud(scan.positions * s, None, scan.sensor_origins * s)).normals


@pytest.mark.parametrize("e", [-3, 5, 60])
def test_normals_are_the_same_bits(e):
    assert _normals(e).tobytes() == _normals(0).tobytes()


@pytest.mark.parametrize("e", [-8, -12])
def test_normals_mark_the_same_degenerate_rows_at_small_scales(e):
    np.testing.assert_array_equal(np.isnan(_normals(e)).any(axis=1),
                                  np.isnan(_normals(0)).any(axis=1))


@settings(max_examples=10)
@example(-60)
@example(-20)
@example(-8)
@example(60)
@given(st.integers(-60, 60))
def test_every_output_scales_exactly(e):
    """Grids, extraction, Chamfer and normals, NaN rows included, at any scale in range."""
    test_grids_extraction_and_chamfer_scale_exactly(e)
    test_normals_mark_the_same_degenerate_rows_at_small_scales(e)
    test_normals_are_the_same_bits(e)
