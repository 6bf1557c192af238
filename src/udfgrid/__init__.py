"""udfgrid: truncated signed/unsigned distance fields on sparse voxel grids.

Pipeline: point cloud -> (normals) -> DF grid -> extracted point cloud ->
Chamfer distance, with synthetic analytic scenes for ground-truth testing
and canonical PLY/UDFG file formats.
"""

from .core import (
    DFKind,
    DFParams,
    GridSpec,
    PointCloud,
    SparseDFGrid,
    TRUNCATION_VOXELS,
    round_half_away_from_zero,
    voxel_position,
    world_to_voxel,
)
from .dfield import (
    build_pyramid,
    compute_grid,
    evaluate,
    flip,
    gaussian_weight,
    make_evaluator,
)
from .errors import (
    ContractError,
    EmptyCloudError,
    InsufficientDataError,
    MissingDataError,
    OutOfBoundsError,
    ParseError,
    UdfGridError,
    WrongKindError,
)
from .evaluation import (
    RoundtripReport,
    chamfer,
    chamfer_bruteforce,
    format_report_table,
    roundtrip,
    sigma_sweep,
)
from .extract import extract_sdf, extract_udf, udf_candidates
from .io import read_grid, read_ply, write_grid, write_ply
from .normals import estimate_normals, orient_normals
from .scenegen import (
    Box,
    OpenCylinder,
    PlanePatch,
    ScanSpec,
    SceneSpec,
    Sphere,
    apply_dropout,
    augment,
    load_scene_config,
    sample_scene,
    simulate_scans,
)
from .spatial import (
    SpatialIndex,
    build_index,
    get_num_threads,
    knn,
    nearest,
    radius_query,
    set_num_threads,
)

__version__ = "0.1.0"

__all__ = [
    "DFKind",
    "DFParams",
    "GridSpec",
    "PointCloud",
    "SparseDFGrid",
    "TRUNCATION_VOXELS",
    "round_half_away_from_zero",
    "voxel_position",
    "world_to_voxel",
    "build_pyramid",
    "compute_grid",
    "evaluate",
    "flip",
    "gaussian_weight",
    "make_evaluator",
    "ContractError",
    "EmptyCloudError",
    "InsufficientDataError",
    "MissingDataError",
    "OutOfBoundsError",
    "ParseError",
    "UdfGridError",
    "WrongKindError",
    "RoundtripReport",
    "chamfer",
    "chamfer_bruteforce",
    "format_report_table",
    "roundtrip",
    "sigma_sweep",
    "extract_sdf",
    "extract_udf",
    "udf_candidates",
    "read_grid",
    "read_ply",
    "write_grid",
    "write_ply",
    "estimate_normals",
    "orient_normals",
    "Box",
    "OpenCylinder",
    "PlanePatch",
    "ScanSpec",
    "SceneSpec",
    "Sphere",
    "apply_dropout",
    "augment",
    "load_scene_config",
    "sample_scene",
    "simulate_scans",
    "SpatialIndex",
    "build_index",
    "get_num_threads",
    "knn",
    "nearest",
    "radius_query",
    "set_num_threads",
    "__version__",
]
