"""Command-line interface: compute, extract, evaluate, synthesize.

Exit codes: 0 success, 1 usage error, 2 data/contract error.  Every
subcommand is deterministic for fixed arguments and seeds; ``--threads``
(or the UDFGRID_THREADS environment variable) changes speed only, never
bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import dfield, evaluation, extract, io, normals, scenegen, spatial
from .core import DFKind, DFParams, GridSpec
from .errors import ContractError, UdfGridError

_USAGE_EXIT = 1
_DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _kind_arg(text: str) -> DFKind:
    try:
        return DFKind.parse(text)
    except UdfGridError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _kinds_arg(text: str) -> list[DFKind]:
    return [_kind_arg(part) for part in text.split(",") if part.strip()]


def _triple(text: str, cast, noun: str) -> tuple:
    """Three values separated by commas and/or whitespace."""
    try:
        values = tuple(cast(p) for p in text.replace(",", " ").split())
    except ValueError:
        values = ()
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"expected three {noun}, got {text!r}")
    return values


def _vec3_arg(text: str) -> np.ndarray:
    return np.array(_triple(text, float, "numbers"))


def _dims_arg(text: str) -> tuple[int, int, int]:
    dims = _triple(text, int, "integers")
    if any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("dims must be >= 1")
    return dims


def _resolve_spec(args, positions: np.ndarray) -> GridSpec:
    if args.auto_bounds:
        return GridSpec.covering(positions, args.voxel_size)
    return GridSpec(origin=args.origin, voxel_size=args.voxel_size, dims=args.dims)


def _add_grid_geometry(p: argparse.ArgumentParser) -> None:
    p.add_argument("--voxel-size", type=float, required=True, help="voxel size in meters")
    p.add_argument("--sigma", type=float, default=None,
                   help="Gaussian weight scale in meters (default 2 * voxel size)")
    p.add_argument("--max-neighbors", type=int, default=36,
                   help="cap on neighborhood size for weighted kinds (default 36)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--auto-bounds", action="store_true",
                       help="grid bounds = cloud bounding box padded by 3 voxels")
    group.add_argument("--origin", type=_vec3_arg,
                       help="grid origin in meters, e.g. '0 0 0'")
    p.add_argument("--dims", type=_dims_arg,
                   help="grid node counts, e.g. '128 128 128' (required with --origin)")


def _params_from(args) -> DFParams:
    sigma = args.sigma if args.sigma is not None else 2.0 * args.voxel_size
    return DFParams(sigma=sigma, max_neighbors=args.max_neighbors)


def _build_parser() -> _Parser:
    parser = _Parser(prog="udfgrid",
                     description="Truncated distance fields on sparse voxel grids.")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker thread cap (default: all cores, or UDFGRID_THREADS)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("normals",
                       help="estimate and orient normals (PCA over k neighbors)")
    p.add_argument("input", help="input .ply")
    p.add_argument("output", help="output .ply with nx,ny,nz")
    p.add_argument("--k", type=int, default=30, help="PCA neighborhood size (default 30)")

    p = sub.add_parser("compute",
                       help="compute a truncated DF grid from a point cloud")
    p.add_argument("input", help="input .ply")
    p.add_argument("output", help="output .udfg")
    p.add_argument("--kind", type=_kind_arg, required=True,
                   help="hoppe|imls|sed|swed|uhoppe|uimls|ued|uwed")
    p.add_argument("--flip", action="store_true", help="store the flipped field (3 - v)")
    _add_grid_geometry(p)

    p = sub.add_parser("extract",
                       help="extract a point cloud from a DF grid")
    p.add_argument("input", help="input .udfg")
    p.add_argument("output", help="output .ply")

    p = sub.add_parser("chamfer",
                       help="Chamfer distance between two clouds")
    p.add_argument("cloud_a", help="first .ply")
    p.add_argument("cloud_b", help="second .ply")

    p = sub.add_parser("roundtrip",
                       help="cloud -> grid -> cloud fidelity report")
    p.add_argument("input", help="input .ply")
    p.add_argument("--kind", type=_kinds_arg, required=True,
                   help="comma-separated DF kinds, e.g. 'uwed,ued,imls'")
    p.add_argument("--flip", action="store_true", help="run the flipped variant")
    p.add_argument("--sigma-sweep", action="store_true",
                   help="sweep sigma over 1..4 voxel sizes instead of a single run")
    _add_grid_geometry(p)

    p = sub.add_parser("synth",
                       help="sample a synthetic scene config into a .ply")
    p.add_argument("scene", help="scene config file")
    p.add_argument("output", help="output .ply")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--noise", type=float, default=None,
                   help="override scan noise sigma in meters")
    p.add_argument("--dropout", type=float, default=None,
                   help="override scan dropout fraction in [0, 1)")

    p = sub.add_parser("pyramid",
                       help="compute a multi-resolution grid pyramid")
    p.add_argument("input", help="input .ply")
    p.add_argument("out_prefix", help="output prefix; writes <prefix>.L<level>.udfg")
    p.add_argument("--kind", type=_kind_arg, required=True)
    p.add_argument("--levels", type=int, default=4, help="number of levels (default 4)")
    _add_grid_geometry(p)
    return parser


def _cmd_normals(args) -> int:
    cloud = io.read_ply(args.input)
    cloud = normals.orient_normals(normals.estimate_normals(cloud, k=args.k))
    io.write_ply(cloud, args.output, binary=True)
    print(f"wrote {len(cloud)} points with normals to {args.output}")
    return 0


def _cmd_compute(args) -> int:
    cloud = io.read_ply(args.input)
    spec = _resolve_spec(args, cloud.positions)
    grid = dfield.compute_grid(cloud, spec, args.kind, _params_from(args))
    if args.flip:
        grid = dfield.flip(grid)
    io.write_grid(grid, args.output)
    print(
        f"wrote {len(grid)} occupied voxels "
        f"(kind={args.kind.value}, flipped={args.flip}, dims={spec.dims}) to {args.output}"
    )
    return 0


def _cmd_extract(args) -> int:
    grid = io.read_grid(args.input)
    cloud = extract.extract_sdf(grid) if grid.kind.signed else extract.extract_udf(grid)
    io.write_ply(cloud, args.output, binary=True)
    print(f"extracted {len(cloud)} points from {grid.kind.value} grid to {args.output}")
    return 0


def _cmd_chamfer(args) -> int:
    a = io.read_ply(args.cloud_a)
    b = io.read_ply(args.cloud_b)
    cd = evaluation.chamfer(a, b)
    print(f"chamfer distance: {cd:.9f} m ({cd * 100.0:.6f} cm)")
    return 0


def _cmd_roundtrip(args) -> int:
    cloud = io.read_ply(args.input)
    spec = _resolve_spec(args, cloud.positions)
    cloud = evaluation.with_normals(cloud, args.kind)
    if args.sigma_sweep:
        reports = evaluation.sigma_sweep(cloud, spec, args.kind, flipped=args.flip)
    else:
        params = _params_from(args)
        reports = [
            evaluation.roundtrip(cloud, spec, kind, args.flip, params)
            for kind in args.kind
        ]
    print(evaluation.format_report_table(reports))
    return 0


def _cmd_synth(args) -> int:
    scene, scan = scenegen.load_scene_config(args.scene)
    sample_seed, noise_seed, dropout_seed = (
        s.generate_state(1)[0] for s in np.random.SeedSequence(args.seed).spawn(3)
    )
    cloud = scenegen.sample_scene(scene, sample_seed)
    if scan is not None:
        if args.noise is not None:
            scan = dataclasses.replace(scan, noise_sigma=args.noise)
        if args.dropout is not None:
            scan = dataclasses.replace(scan, dropout_fraction=args.dropout)
        cloud = scenegen.simulate_scans(cloud, scan, noise_seed)
        if scan.dropout_fraction > 0:
            cloud = scenegen.apply_dropout(cloud, scan.dropout_fraction, dropout_seed)
    elif args.noise is not None or args.dropout is not None:
        print("synth: --noise/--dropout need a [scan] section with sensors",
              file=sys.stderr)
        return _DATA_EXIT
    io.write_ply(cloud, args.output, binary=True)
    print(f"wrote {len(cloud)} points to {args.output}")
    return 0


def _cmd_pyramid(args) -> int:
    cloud = io.read_ply(args.input)
    spec = _resolve_spec(args, cloud.positions)
    grids = dfield.build_pyramid(cloud, spec, args.kind, _params_from(args), args.levels)
    for level, grid in enumerate(grids):
        path = f"{args.out_prefix}.L{level}.udfg"
        io.write_grid(grid, path)
        print(f"level {level}: dims={grid.spec.dims} occupied={len(grid)} -> {path}")
    return 0


_COMMANDS = {
    "normals": _cmd_normals,
    "compute": _cmd_compute,
    "extract": _cmd_extract,
    "chamfer": _cmd_chamfer,
    "roundtrip": _cmd_roundtrip,
    "synth": _cmd_synth,
    "pyramid": _cmd_pyramid,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "origin", None) is not None and getattr(args, "dims", None) is None:
        parser.error("--origin requires --dims")
    try:
        spatial.set_num_threads(args.threads)
    except ContractError as exc:
        parser.error(f"--threads: {exc}")
    try:
        return _COMMANDS[args.command](args)
    except (UdfGridError, OSError) as exc:
        print(f"udfgrid {args.command}: error: {exc}", file=sys.stderr)
        return _DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
