"""The three benchmark workloads: scenes, set-up and one timed pass each.

Every library call goes through a module attribute (``dfield.compute_grid``,
never a name imported from ``udfgrid``), so the traced run's wrappers see
each call.  A workload is built from its seed alone; the library only ever
sees the generated clouds, grid specs and files.

A pass returns a :class:`PassResult`.  Hashing its outputs and checking them
happen after the pass's timer stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import os
import re
from dataclasses import dataclass, field

import numpy as np

from udfgrid import cli, dfield, evaluation, extract, io, normals, scenegen, spatial
from udfgrid.core import DFKind, DFParams, GridSpec, PointCloud

VOXEL = 0.05
# Reduced-size runs (the benchmark's own tests) use a coarser grid and a
# quarter of the sampling density.
REDUCED_VOXEL = 0.1
CAP = 36
NORMAL_K = 30
# 16 points per voxel face, as in the test suite's desk scene.
DESK_DENSITY = 16.0 / (VOXEL * VOXEL)
DESK_SENSORS = ((0.8, 0.8, 1.6), (-0.3, 0.8, 1.0), (1.9, 0.8, 1.0))
# Placed so that the four scan groups hold within 3% of the same number of
# points, and so that every edge of the cloud's bounding box lies in two
# groups or more: whichever group the dropout removes, the cloud size and the
# scanned grid box barely move, and with them the work of a pass.
CLI_SENSORS = ((-0.07, 0.94, 0.88), (1.68, -0.08, 0.84), (0.77, 1.63, 0.69), (1.46, 1.33, 0.77))
ROOM_DENSITY = 1600.0
# A 4 m room scaled to 0.6: a pass then takes about 5.5 s on one thread, so
# one timed run holds several passes.  The scanned box still outweighs the
# surface band by about two to one.
ROOM_SCALE = 0.6


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def bench_threads() -> int:
    """Threads of the in-process workloads: every CPU but one.

    The spare CPU takes the rest of the machine's work, so that a pass does
    not wait on a worker thread the scheduler has put aside.
    """
    return max(1, nproc() - 1)


def desk_scene(density: float) -> scenegen.SceneSpec:
    """Floor, sphere and box, mutually more than one truncation band apart."""
    return scenegen.SceneSpec((
        scenegen.PlanePatch((0.0, 0.0, 0.0), (1.6, 0.0, 0.0), (0.0, 1.6, 0.0), density),
        scenegen.Sphere((0.45, 1.1, 0.5), 0.22, density),
        scenegen.Box((0.9, 0.3, 0.3), (1.3, 0.7, 0.7), density),
    ))


def room_scene(scale: float, density: float) -> scenegen.SceneSpec:
    """A floor, four walls, a sphere, a box and an open cylinder.

    At scale 1 the floor is 4 x 4 m and the walls 2.5 m high; ``scale``
    shrinks every length, and the sampling density stays the same.
    """
    s, d = scale, density
    side, height = 4.0 * s, 2.5 * s
    return scenegen.SceneSpec((
        scenegen.PlanePatch((0, 0, 0), (side, 0, 0), (0, side, 0), d),
        scenegen.PlanePatch((0, 0, 0), (0, 0, height), (side, 0, 0), d),
        scenegen.PlanePatch((0, side, 0), (side, 0, 0), (0, 0, height), d),
        scenegen.PlanePatch((0, 0, 0), (0, side, 0), (0, 0, height), d),
        scenegen.PlanePatch((side, 0, 0), (0, 0, height), (0, side, 0), d),
        scenegen.Sphere((1.0 * s, 1.0 * s, 0.6 * s), 0.35 * s, d),
        scenegen.Box((2.4 * s, 0.8 * s, 0.3 * s), (3.2 * s, 1.6 * s, 0.9 * s), d),
        scenegen.OpenCylinder((1.5 * s, 2.8 * s, 0.3 * s), (0, 0, 1), 0.35 * s, 1.3 * s, d),
    ))


def grid_spec(positions: np.ndarray, voxel: float) -> GridSpec:
    """The cloud's bounding box padded by 3 voxels, as the CLI's --auto-bounds.

    The benchmark makes its own grid specs, so that it does not depend on
    where the library keeps that helper.
    """
    pad = 3.0 * voxel
    origin = positions.min(axis=0) - pad
    top = positions.max(axis=0) + pad
    dims = (np.floor((top - origin) / voxel + 1e-9) + 1).astype(int)
    return GridSpec(origin=origin, voxel_size=voxel, dims=tuple(int(n) for n in dims))


def nodes_scanned(positions: np.ndarray, spec: GridSpec) -> int:
    """Nodes of the padded box that ``compute_grid`` scans for candidates."""
    reach = 3.0 * spec.voxel_size + 1e-9
    lo = np.ceil((positions.min(axis=0) - reach - spec.origin) / spec.voxel_size)
    hi = np.floor((positions.max(axis=0) + reach - spec.origin) / spec.voxel_size)
    lo = np.maximum(lo.astype(np.int64), 0)
    hi = np.minimum(hi.astype(np.int64), np.asarray(spec.dims) - 1)
    return int(np.prod(np.maximum(hi - lo + 1, 0)))


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _nonempty(n: int) -> int:
    if n <= 0:
        raise RuntimeError("extraction returned no points")
    return n


def _finite(cd: float) -> float:
    if not np.isfinite(cd):
        raise RuntimeError(f"chamfer distance is not finite: {cd}")
    return cd


def sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


@dataclass
class PassResult:
    """What one pass did: operation counts, quality and outputs to check."""

    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    chamfers: dict[str, float] = field(default_factory=dict)
    extracted: dict[str, int] = field(default_factory=dict)
    # In-process outputs, held so they can be hashed after the timer stops.
    cloud: PointCloud | None = None
    spec: GridSpec | None = None
    grids: dict = field(default_factory=dict)
    clouds: dict = field(default_factory=dict)

    def op(self, name: str, fn, *args):
        """Run one operation; a raised exception counts as its failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is reported, not fatal
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def skip(self, name: str, reason: str) -> None:
        self.attempted += 1
        self.errors.append(f"{name}: skipped, {reason}")


class InProcess:
    """A workload that calls the library directly on an in-memory cloud."""

    kinds: tuple = ()

    def __init__(self, reduced: bool, threads: int | None):
        self.threads = threads or bench_threads()
        self.voxel = REDUCED_VOXEL if reduced else VOXEL
        self.params = DFParams(sigma=2.0 * self.voxel, max_neighbors=CAP)

    def run_pass(self, inputs) -> PassResult:
        cloud, spec = inputs
        spatial.set_num_threads(self.threads)
        res = PassResult(cloud=cloud, spec=spec)
        prepared = self.prepare_cloud(res, cloud)
        for kind, flipped in self.kinds:
            if prepared is None:
                res.skip(kind.value, "normals failed")
            else:
                res.op(kind.value, self._roundtrip, res, prepared, kind, flipped)
        return res

    def prepare_cloud(self, res: PassResult, cloud: PointCloud) -> PointCloud | None:
        return cloud

    def _roundtrip(self, res: PassResult, cloud: PointCloud, kind: DFKind, flipped: bool) -> None:
        """compute -> (flip) -> extract -> chamfer against the input cloud."""
        grid = dfield.compute_grid(cloud, res.spec, kind, self.params)
        if flipped:
            grid = dfield.flip(grid)
        if kind.signed:
            ext = extract.extract_sdf(grid)
        else:
            ext = extract.extract_udf(grid)
        res.grids[kind.value] = grid
        res.clouds[kind.value] = ext
        res.extracted[kind.value] = _nonempty(len(ext))
        res.chamfers[kind.value] = _finite(evaluation.chamfer(ext, res.cloud))

    def digests(self, res: PassResult) -> dict[str, str]:
        out = {"input": digest(res.cloud.positions)}
        for kind, grid in res.grids.items():
            out[f"{kind}.grid"] = digest(grid.indices, grid.values)
            out[f"{kind}.cloud"] = digest(res.clouds[kind].positions)
        return out

    def brute_pairs(self, res: PassResult) -> list[tuple[str, PointCloud, PointCloud]]:
        """(name, extracted, reference) clouds for the exact-Chamfer check."""
        return [(kind, c, res.cloud) for kind, c in res.clouds.items()]

    def scene_size(self, res: PassResult) -> dict:
        scanned = nodes_scanned(res.cloud.positions, res.spec)
        return {
            "points": len(res.cloud),
            "grid_dims": list(res.spec.dims),
            "nodes": {k: {"scanned": scanned, "kept": len(g)} for k, g in res.grids.items()},
        }


class DeskWeighted(InProcess):
    """Noisy desk scans, PCA normals, then the weighted and IMLS kinds."""

    name = "desk-weighted"
    kinds = ((DFKind.UWED, False), (DFKind.IMLS, False), (DFKind.SWED, False))

    def __init__(self, seed: int, workdir: str, reduced: bool = False, threads: int | None = None):
        super().__init__(reduced, threads)
        self.seed = seed
        self.density = DESK_DENSITY / 4 if reduced else DESK_DENSITY
        self.first = self._scan(0)

    def input_key(self, i: int) -> int:
        return sub_seed(self.seed, i)

    def prepare(self, i: int):
        """A fresh scan for every pass, made before the pass's timer starts."""
        return self.first if i == 0 else self._scan(i)

    def _scan(self, i: int):
        # The recipe of the test suite's noisy desk cloud, at scan seed s.
        s = self.input_key(i)
        clean = scenegen.sample_scene(desk_scene(self.density), s)
        scan = scenegen.ScanSpec(np.asarray(DESK_SENSORS), noise_sigma=0.5 * self.voxel)
        cloud = scenegen.simulate_scans(clean, scan, s + 1000)
        return cloud, grid_spec(cloud.positions, self.voxel)

    def prepare_cloud(self, res: PassResult, cloud: PointCloud) -> PointCloud | None:
        def oriented():
            return normals.orient_normals(normals.estimate_normals(cloud, k=NORMAL_K))

        return res.op("normals", oriented)


class RoomNearest(InProcess):
    """One noiseless room cloud with analytic normals; nearest-point kinds."""

    name = "room-nearest"
    kinds = ((DFKind.UED, True), (DFKind.SED, False), (DFKind.HOPPE, False))

    def __init__(self, seed: int, workdir: str, reduced: bool = False, threads: int | None = None):
        super().__init__(reduced, threads)
        density = ROOM_DENSITY / 4 if reduced else ROOM_DENSITY
        self.cloud = scenegen.sample_scene(room_scene(ROOM_SCALE, density), seed)
        self.spec = grid_spec(self.cloud.positions, self.voxel)

    def input_key(self, i: int) -> str:
        return "room"

    def prepare(self, i: int):
        return self.cloud, self.spec


def _scene_config(density: float) -> str:
    sensors = "; ".join(", ".join(str(c) for c in s) for s in CLI_SENSORS)
    return f"""[plane.floor]
corner = 0, 0, 0
edge_u = 1.6, 0, 0
edge_v = 0, 1.6, 0
density = {density}

[sphere.ball]
center = 0.45, 1.1, 0.5
radius = 0.22
density = {density}

[box.crate]
min = 0.9, 0.3, 0.3
max = 1.3, 0.7, 0.7
density = {density}

[scan]
sensors = {sensors}
noise_sigma = 0.025
dropout = 0.25
"""


_CHAMFER_LINE = re.compile(r"chamfer distance: (\S+) m")
_EXTRACT_LINE = re.compile(r"extracted (\d+) points")


def _extracted(kind: str):
    def parse(res: PassResult, out: str) -> None:
        res.extracted[kind] = _nonempty(int(_EXTRACT_LINE.search(out).group(1)))
    return parse


def _chamfer(kind: str):
    def parse(res: PassResult, out: str) -> None:
        res.chamfers[kind] = _finite(float(_CHAMFER_LINE.search(out).group(1)))
    return parse


def _same_chamfer(kind: str):
    """The ASCII copy of the scan must give the binary scan's distance."""
    def parse(res: PassResult, out: str) -> None:
        cd = float(_CHAMFER_LINE.search(out).group(1))
        if cd != res.chamfers[kind]:
            raise RuntimeError(f"chamfer against the ASCII scan {cd} != {res.chamfers[kind]}")
    return parse


class CliFiles:
    """The README pipeline through ``udfgrid.cli.main``, file to file."""

    name = "cli-files"
    kinds = ((DFKind.UWED, False), (DFKind.HOPPE, False), (DFKind.UED, True), (DFKind.SWED, True))
    pyramid_levels = 3

    def __init__(self, seed: int, workdir: str, reduced: bool = False, threads: int | None = None):
        self.seed = seed
        self.threads = threads or 1
        self.dir = workdir
        self.voxel = REDUCED_VOXEL if reduced else VOXEL
        self.geometry = ("--voxel-size", str(self.voxel), "--auto-bounds")
        density = DESK_DENSITY / 4 if reduced else DESK_DENSITY
        self.config = self.path("scene.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(_scene_config(density))
        # An ASCII copy of the scan every pass synthesises, so the passes also
        # read the PLY reader's second format.
        setup_scan = self.path("setup_scan.ply")
        self.cli(["synth", self.config, setup_scan, "--seed", str(seed)])
        self.ascii_scan = self.path("scan_ascii.ply")
        io.write_ply(io.read_ply(setup_scan), self.ascii_scan, binary=False)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def cli(self, argv: list[str]) -> str:
        """Run one CLI command; returns its stdout, raises on a non-zero exit."""
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--threads", str(self.threads), *argv])
        if code != 0:
            raise RuntimeError(f"udfgrid {argv[0]} exited {code}")
        return out.getvalue()

    def input_key(self, i: int) -> int:
        return self.seed

    def prepare(self, i: int):
        return None

    def outputs(self) -> dict[str, str]:
        """Every file a pass writes, by name, in a fixed order."""
        names = ["scan.ply", "oriented.ply"]
        for kind, _ in self.kinds:
            names += [f"{kind.value}.udfg", f"{kind.value}.rec.ply"]
        names += [f"pyr.L{level}.udfg" for level in range(self.pyramid_levels)]
        return {n: self.path(n) for n in names}

    def run_pass(self, inputs) -> PassResult:
        """The README pipeline; a failed step skips every later one."""
        scan, oriented = self.path("scan.ply"), self.path("oriented.ply")
        steps = [
            ("synth", ["synth", self.config, scan, "--seed", str(self.seed)], None),
            ("normals", ["normals", scan, oriented, "--k", str(NORMAL_K)], None),
        ]
        for dfkind, flipped in self.kinds:
            kind = dfkind.value
            grid, rec = self.path(f"{kind}.udfg"), self.path(f"{kind}.rec.ply")
            flip = ["--flip"] if flipped else []
            steps += [
                (f"compute {kind}",
                 ["compute", oriented, grid, "--kind", kind, *flip, *self.geometry], None),
                (f"extract {kind}", ["extract", grid, rec], _extracted(kind)),
                (f"chamfer {kind}", ["chamfer", scan, rec], _chamfer(kind)),
            ]
        steps += [
            ("pyramid", ["pyramid", oriented, self.path("pyr"), "--kind", "uwed",
                         "--levels", str(self.pyramid_levels), *self.geometry], None),
            ("chamfer ascii", ["chamfer", self.ascii_scan, self.path("uwed.rec.ply")],
             _same_chamfer("uwed")),
        ]
        res = PassResult()
        for name, argv, parse in steps:
            if res.errors:
                res.skip(name, "an earlier step failed")
            else:
                res.op(name, self._step, res, argv, parse)
        return res

    def _step(self, res: PassResult, argv: list[str], parse) -> None:
        out = self.cli(argv)
        if parse is not None:
            parse(res, out)

    def digests(self, res: PassResult) -> dict[str, str]:
        return {n: file_digest(p) for n, p in self.outputs().items() if os.path.exists(p)}

    def brute_pairs(self, res: PassResult) -> list[tuple[str, PointCloud, PointCloud]]:
        scan = io.read_ply(self.path("scan.ply"))
        return [(kind.value, io.read_ply(self.path(f"{kind.value}.rec.ply")), scan)
                for kind, _ in self.kinds]

    def scene_size(self, res: PassResult) -> dict:
        cloud = io.read_ply(self.path("oriented.ply"))
        spec = grid_spec(cloud.positions, self.voxel)
        scanned = nodes_scanned(cloud.positions, spec)
        nodes = {}
        for kind, _ in self.kinds:
            grid_path = self.path(f"{kind.value}.udfg")
            nodes[kind.value] = {"scanned": scanned, "kept": len(io.read_grid(grid_path))}
        return {"points": len(cloud), "grid_dims": list(spec.dims), "nodes": nodes}


WORKLOADS = {w.name: w for w in (DeskWeighted, RoomNearest, CliFiles)}
