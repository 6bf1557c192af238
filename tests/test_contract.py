"""Every public scalar or flag argument either works or raises UdfGridError.

A table of argument slots, each a call with one argument left open, meets
odd values: NaN, infinities, 0, -1, huge and subnormal numbers, bools,
numpy scalars and arrays of several shapes, text, complex and None.  Each
pair must return or raise ``UdfGridError``, and emit no warning: not a
numpy ``TypeError`` from deep inside, not an overflow ``RuntimeWarning``,
and never a value read as another (True as 1, an array as its element).
Nor may it close stdin, stdout or stderr, as a path passed on to ``open()``
as a file descriptor once did.
"""

import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udfgrid import (
    Box,
    DFKind,
    DFParams,
    GridSpec,
    OpenCylinder,
    PlanePatch,
    PointCloud,
    ScanSpec,
    SceneSpec,
    SparseDFGrid,
    Sphere,
    UdfGridError,
    apply_dropout,
    augment,
    build_pyramid,
    estimate_normals,
    gaussian_weight,
    roundtrip,
    round_half_away_from_zero,
    sample_scene,
    sigma_sweep,
    simulate_scans,
    spatial,
    write_ply,
)

VOXEL = 0.05
SENSORS = np.array([[0.0, 0.0, 1.0], [0.2, 0.2, 1.0]])


def _cloud() -> PointCloud:
    """An 80-point patch with its analytic normals and two sensor origins."""
    patch = sample_scene(SceneSpec((PlanePatch((0, 0, 0), (0.2, 0, 0), (0, 0.2, 0), 2000.0),)), 3)
    origins = SENSORS[np.arange(len(patch)) % 2]
    return PointCloud(patch.positions, patch.normals, origins)


CLOUD = _cloud()
SPEC = GridSpec.covering(CLOUD.positions, VOXEL)
PARAMS = DFParams.for_voxel_size(VOXEL)
INDEX = spatial.build_index(CLOUD)
Q = [[0.1, 0.1, 0.05], [0.3, 0.0, -0.1]]


def _scene(prim):
    """``prim`` sampled if it holds at most 10,000 points: a valid huge density
    is built, not sampled."""
    if prim.density * prim.area() <= 10_000:
        return sample_scene(SceneSpec((prim,)), 0)
    return prim


def _threads(v):
    saved = spatial._num_threads
    try:
        spatial.set_num_threads(v)
        return spatial.get_num_threads()
    finally:
        spatial.set_num_threads(saved)


def _write_ply(v):
    with tempfile.TemporaryDirectory() as tmp:
        write_ply(CLOUD, Path(tmp) / "c.ply", binary=v)


# Slot name -> a call taking the odd value.
SLOTS = {
    "nearest_batch r": lambda v: spatial.nearest_batch(INDEX, Q, r=v),
    "radius_query_batch r": lambda v: spatial.radius_query_batch(INDEX, Q, v),
    "capped_ball_batch r": lambda v: spatial.capped_ball_batch(INDEX, Q, v, 4),
    "capped_ball_batch cap": lambda v: spatial.capped_ball_batch(INDEX, Q, 0.1, v),
    "knn_batch k": lambda v: spatial.knn_batch(INDEX, Q, v),
    "DFParams sigma": lambda v: DFParams(sigma=v),
    "DFParams max_neighbors": lambda v: DFParams(sigma=0.1, max_neighbors=v),
    "DFParams.for_voxel_size": lambda v: DFParams.for_voxel_size(v),
    "GridSpec voxel_size": lambda v: GridSpec((0, 0, 0), v, (2, 2, 2)),
    "GridSpec dims": lambda v: GridSpec((0, 0, 0), 0.1, (v, 2, 2)),
    "GridSpec.covering voxel_size": lambda v: GridSpec.covering(CLOUD.positions, v),
    "build_pyramid levels": lambda v: build_pyramid(CLOUD, SPEC, DFKind.UED, PARAMS, v),
    "estimate_normals k": lambda v: estimate_normals(CLOUD, v),
    "gaussian_weight sq_dist": lambda v: gaussian_weight(v, 0.1),
    "gaussian_weight sigma": lambda v: gaussian_weight(1.0, v),
    "round_half_away_from_zero": round_half_away_from_zero,
    "plane density": lambda v: _scene(PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0), v)),
    "sphere radius": lambda v: _scene(Sphere((0, 0, 0), v, 10.0)),
    "sphere density": lambda v: _scene(Sphere((0, 0, 0), 0.5, v)),
    "box density": lambda v: _scene(Box((0, 0, 0), (1, 1, 1), v)),
    "cylinder height": lambda v: _scene(OpenCylinder((0, 0, 0), (0, 0, 1), 0.5, v, 10.0)),
    "cylinder density": lambda v: _scene(OpenCylinder((0, 0, 0), (0, 0, 1), 0.5, 1.0, v)),
    "ScanSpec noise_sigma": lambda v: simulate_scans(CLOUD, ScanSpec(SENSORS, noise_sigma=v), 0),
    "ScanSpec dropout_fraction": lambda v: ScanSpec(SENSORS, dropout_fraction=v),
    "apply_dropout fraction": lambda v: apply_dropout(CLOUD, v, 0),
    "augment voxel_scale": lambda v: augment(CLOUD, 0, v),
    "augment jitter_sigma": lambda v: augment(CLOUD, 0, VOXEL, v),
    "sample_scene seed": lambda v: sample_scene(SceneSpec((Sphere((0, 0, 0), 0.1, 100.0),)), v),
    "simulate_scans seed": lambda v: simulate_scans(CLOUD, ScanSpec(SENSORS, 0.01), v),
    "apply_dropout seed": lambda v: apply_dropout(CLOUD, 0.5, v),
    "augment seed": lambda v: augment(CLOUD, v, VOXEL),
    "set_num_threads": _threads,
    "sigma_sweep sigmas": lambda v: sigma_sweep(CLOUD, SPEC, [DFKind.UWED], v),
    "sigma_sweep sigma": lambda v: sigma_sweep(CLOUD, SPEC, [DFKind.UWED], [v]),
    "roundtrip flipped": lambda v: roundtrip(CLOUD, SPEC, DFKind.UED, v, PARAMS),
    "SparseDFGrid flipped": lambda v: SparseDFGrid(SPEC, DFKind.UED, v, [[0, 0, 0]], [1.0]),
    "write_ply binary": _write_ply,
}

with np.errstate(over="ignore"):
    ODD = [math.nan, math.inf, -math.inf, 0, -1, 2**70, 1e-320, 1e300, True, np.bool_(True),
           np.float16(1000), np.float16(6400), np.array(1.0), np.array([1.0]), np.ones(3),
           np.ones((2, 3)), "1", 1 + 0j, None]

# Numbers, and the forms each is wrapped in by the generated examples.
NUMBERS = [math.nan, math.inf, -math.inf, 0, -1, 0.5, 1, 3, 2**70, 1e-320, 1e300]
FORMS = [lambda x: x, float, np.float16, np.float32, np.array, lambda x: np.array([x]),
         lambda x: np.full(3, x), lambda x: np.full((2, 3), x), complex, str, bool, np.bool_]


@st.composite
def odd_values(draw):
    number, form = draw(st.sampled_from(NUMBERS)), draw(st.sampled_from(FORMS))
    with np.errstate(over="ignore", invalid="ignore"):
        return form(number)


def _no_warning_and_result_or_refusal(slot: str, value) -> None:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            SLOTS[slot](value)
        except UdfGridError:
            pass
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == []
    for fd in (0, 1, 2):
        os.fstat(fd)  # OSError once the descriptor is closed


def _with_examples(test):
    for value in ODD:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("slot", list(SLOTS))
@_with_examples
@settings(max_examples=12)
@given(value=odd_values())
def test_result_or_udfgrid_error(slot, value):
    _no_warning_and_result_or_refusal(slot, value)
