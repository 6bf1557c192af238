"""Every public scalar, flag or cloud argument either works or raises UdfGridError.

A table of argument slots, each a call with one argument left open, meets
odd values: NaN, infinities, 0, -1, huge and subnormal numbers, bools,
numpy scalars and arrays of several shapes, text, complex and None.  Each
pair must return or raise ``UdfGridError``, and emit no warning: not a
numpy ``TypeError`` from deep inside, not an overflow ``RuntimeWarning``,
and never a value read as another (True as 1, an array as its element).
Nor may it close stdin, stdout or stderr, as a path passed on to ``open()``
as a file descriptor once did.  A cloud slot refuses anything but a
``PointCloud`` with ContractError: other objects once ended in
AttributeError, or in a refusal about the number of points.  So does every
grid, spec and kind slot, each refusing anything but its own type.
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
    ContractError,
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
    chamfer,
    chamfer_bruteforce,
    compute_grid,
    estimate_normals,
    evaluate,
    extract_sdf,
    extract_udf,
    flip,
    gaussian_weight,
    make_evaluator,
    orient_normals,
    roundtrip,
    round_half_away_from_zero,
    sample_scene,
    sigma_sweep,
    simulate_scans,
    spatial,
    udf_candidates,
    write_grid,
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


def _write_ply(v, cloud=CLOUD):
    with tempfile.TemporaryDirectory() as tmp:
        write_ply(cloud, Path(tmp) / "c.ply", binary=v)


def _write_grid(grid):
    with tempfile.TemporaryDirectory() as tmp:
        write_grid(grid, Path(tmp) / "g.udfg")


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

# Slot name -> a call taking the value as its cloud.
CLOUD_SLOTS = {
    "compute_grid cloud": lambda v: compute_grid(v, SPEC, DFKind.UWED, PARAMS),
    "make_evaluator cloud": lambda v: make_evaluator(v, DFKind.SED, PARAMS),
    "evaluate cloud": lambda v: evaluate(Q[0], v, DFKind.UED),
    "build_pyramid cloud": lambda v: build_pyramid(v, SPEC, DFKind.UED, PARAMS, 2),
    "chamfer p1": lambda v: chamfer(v, CLOUD),
    "chamfer p2": lambda v: chamfer(CLOUD, v),
    "chamfer_bruteforce p1": lambda v: chamfer_bruteforce(v, CLOUD),
    "chamfer_bruteforce p2": lambda v: chamfer_bruteforce(CLOUD, v),
    "estimate_normals cloud": lambda v: estimate_normals(v),
    "orient_normals cloud": lambda v: orient_normals(v),
    "write_ply cloud": lambda v: _write_ply(True, v),
    "roundtrip cloud": lambda v: roundtrip(v, SPEC, DFKind.UED, False, PARAMS),
    "roundtrip cloud, normal kind": lambda v: roundtrip(v, SPEC, DFKind.IMLS, False, PARAMS),
    "sigma_sweep cloud": lambda v: sigma_sweep(v, SPEC, [DFKind.UWED], [0.1]),
    "spatial.support cloud": lambda v: spatial.support(v, normals=True),
    "simulate_scans cloud": lambda v: simulate_scans(v, ScanSpec(SENSORS), 0),
    "apply_dropout cloud": lambda v: apply_dropout(v, 0.5, 0),
    "augment cloud": lambda v: augment(v, 0, VOXEL),
}
SLOTS.update(CLOUD_SLOTS)

# Slot name -> (the type it takes, a call taking the value there).
OBJECT_SLOTS = {
    "extract_sdf grid": (SparseDFGrid, extract_sdf),
    "extract_udf grid": (SparseDFGrid, extract_udf),
    "udf_candidates grid": (SparseDFGrid, udf_candidates),
    "flip grid": (SparseDFGrid, flip),
    "write_grid grid": (SparseDFGrid, _write_grid),
    "compute_grid spec": (GridSpec, lambda v: compute_grid(CLOUD, v, DFKind.UED, PARAMS)),
    "compute_grid kind": (DFKind, lambda v: compute_grid(CLOUD, SPEC, v, PARAMS)),
}
SLOTS.update({slot: call for slot, (_, call) in OBJECT_SLOTS.items()})

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


# Objects of the wrong type for a cloud slot, beside ODD's numbers, arrays and text.
NOT_CLOUDS = [1.5, "x", None, [[0.0, 0.0, 0.0]], np.ones((4, 3)), {}, SPEC, PARAMS, DFKind.UED,
              SparseDFGrid(SPEC, DFKind.UED, False, [[0, 0, 0]], [1.0]), INDEX]


@pytest.mark.parametrize("value", NOT_CLOUDS, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("slot", list(CLOUD_SLOTS))
def test_a_cloud_slot_takes_only_a_cloud(slot, value):
    with pytest.raises(ContractError, match=r"must be a PointCloud, got "):
        CLOUD_SLOTS[slot](value)


@pytest.mark.parametrize("slot, value", [
    pytest.param(slot, value, id=f"{slot}-{type(value).__name__}")
    for slot, (cls, _) in OBJECT_SLOTS.items()
    for value in NOT_CLOUDS + [CLOUD] if not isinstance(value, cls)
])
def test_an_object_slot_takes_only_its_type(slot, value):
    cls, call = OBJECT_SLOTS[slot]
    with pytest.raises(ContractError, match=rf"must be a {cls.__name__}, got "):
        call(value)


@pytest.mark.parametrize("slot", list(CLOUD_SLOTS))
def test_a_cloud_slot_takes_a_cloud(slot):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a too-coarse level may be empty
        CLOUD_SLOTS[slot](CLOUD)
