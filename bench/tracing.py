"""Spans and counters recorded around the library's public functions.

The traced run replaces module attributes such as
``udfgrid.spatial.capped_ball_batch`` and ``udfgrid.core.SparseDFGrid.values_at``
with wrappers.  The package calls its own functions through module
attributes and module globals, so the wrappers also see the calls it makes
internally.  Nothing in the package changes, and ``uninstall`` puts the
originals back.

Each span records its name, start, end, parent span and pass id; spans stay
in memory until the run writes them out.  Counters are recorded at the same
boundaries.  Calls are synchronous in one thread, so child spans never
overlap and a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from udfgrid import cli, core, dfield, evaluation, extract, io, normals, scenegen, spatial

from workloads import nodes_scanned

SETUP = "setup"

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("spatial.capped_ball_batch_s", "s", "lower"),
    ("spatial.capped_ball_batch.rows", "count", "lower"),
    ("spatial.capped_ball_batch.pairs", "count", "lower"),
    ("spatial.capped_ball_batch.capped_share", "ratio", "lower"),
    ("spatial.knn_batch_s", "s", "lower"),
    ("spatial.knn_batch.rows", "count", "lower"),
    ("spatial.knn_batch.pairs", "count", "lower"),
    ("spatial.nearest_batch_s", "s", "lower"),
    ("spatial.nearest_batch.rows", "count", "lower"),
    ("spatial.build_index_s", "s", "lower"),
    ("spatial.build_index.calls", "count", "lower"),
    ("dfield.compute_grid_s", "s", "lower"),
    ("dfield.nodes_scanned", "count", "lower"),
    ("dfield.nodes_evaluated", "count", "lower"),
    ("dfield.nodes_kept", "count", "higher"),
    ("dfield.kept_ratio", "ratio", "higher"),
    ("dfield.flip_s", "s", "lower"),
    ("dfield.build_pyramid_s", "s", "lower"),
    ("normals.estimate_normals_s", "s", "lower"),
    ("normals.orient_normals_s", "s", "lower"),
    ("normals.degenerate", "count", "lower"),
    ("extract.extract_udf_s", "s", "lower"),
    ("extract.extract_sdf_s", "s", "lower"),
    ("extract.points", "count", "higher"),
    ("extract.yield", "ratio", "higher"),
    ("core.values_at_s", "s", "lower"),
    ("core.values_at.calls", "count", "lower"),
    ("evaluation.chamfer_s", "s", "lower"),
    ("evaluation.chamfer.points", "count", "lower"),
    ("io.read_ply_s", "s", "lower"),
    ("io.write_ply_s", "s", "lower"),
    ("io.read_grid_s", "s", "lower"),
    ("io.write_grid_s", "s", "lower"),
    ("io.bytes_read", "bytes", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("cli.synth_s", "s", "lower"),
    ("cli.normals_s", "s", "lower"),
    ("cli.compute_s", "s", "lower"),
    ("cli.extract_s", "s", "lower"),
    ("cli.chamfer_s", "s", "lower"),
    ("cli.pyramid_s", "s", "lower"),
    ("scenegen.sample_scene_s", "s", "lower"),
    ("scenegen.simulate_scans_s", "s", "lower"),
    ("scenegen.apply_dropout_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]

# Ratio metrics: (metric, numerator counter, denominator counter).
RATIOS = [
    ("spatial.capped_ball_batch.capped_share",
     "spatial.capped_ball_batch.capped_rows", "spatial.capped_ball_batch.rows"),
    ("dfield.kept_ratio", "dfield.nodes_kept", "dfield.nodes_scanned"),
    ("extract.yield", "extract.points", "extract.voxels"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: object


# -- counter hooks: (tracer, parent span name, bound arguments, result) -------


def _query_rows(kind: str):
    def hook(t, parent, a, result):
        lens = result[2] if len(result) == 3 else None
        rows = len(result[0]) if lens is None else len(lens)
        t.count(f"spatial.{kind}.rows", rows)
        if lens is not None:
            t.count(f"spatial.{kind}.pairs", int(lens.sum()))
        if kind == "capped_ball_batch":
            t.count("spatial.capped_ball_batch.capped_rows", int((lens == a["cap"]).sum()))
        if parent == "dfield.compute_grid":
            t.count("dfield.nodes_evaluated", rows)
    return hook


def _compute_grid(t, parent, a, grid):
    t.count("dfield.nodes_scanned", nodes_scanned(a["cloud"].positions, a["spec"]))
    t.count("dfield.nodes_kept", len(grid))


def _extracted(t, parent, a, cloud):
    t.count("extract.points", len(cloud))
    t.count("extract.voxels", len(a["grid"]))


def _bytes(counter: str):
    def hook(t, parent, a, result):
        t.count(counter, os.path.getsize(a["path"]))
    return hook


def _cli_name(a) -> str:
    argv = list(a["argv"] or [])
    commands = [w for w in argv if w in {"normals", "compute", "extract", "chamfer",
                                         "roundtrip", "synth", "pyramid"}]
    return f"cli.{commands[0] if commands else 'main'}"


def _targets():
    """(owner, attribute, span name, counter hook) of every wrapped function."""
    return [
        (spatial, "build_index", "spatial.build_index",
         lambda t, p, a, r: t.count("spatial.build_index.calls", 1)),
        (spatial, "nearest_batch", "spatial.nearest_batch", _query_rows("nearest_batch")),
        (spatial, "knn_batch", "spatial.knn_batch", _query_rows("knn_batch")),
        (spatial, "capped_ball_batch", "spatial.capped_ball_batch",
         _query_rows("capped_ball_batch")),
        (dfield, "compute_grid", "dfield.compute_grid", _compute_grid),
        (dfield, "flip", "dfield.flip", None),
        (dfield, "build_pyramid", "dfield.build_pyramid", None),
        (normals, "estimate_normals", "normals.estimate_normals",
         lambda t, p, a, r: t.count("normals.degenerate",
                                    int(np.isnan(r.normals).any(axis=1).sum()))),
        (normals, "orient_normals", "normals.orient_normals", None),
        (extract, "extract_udf", "extract.extract_udf", _extracted),
        (extract, "extract_sdf", "extract.extract_sdf", _extracted),
        (core.SparseDFGrid, "values_at", "core.values_at",
         lambda t, p, a, r: t.count("core.values_at.calls", 1)),
        (evaluation, "chamfer", "evaluation.chamfer",
         lambda t, p, a, r: t.count("evaluation.chamfer.points", len(a["p1"]) + len(a["p2"]))),
        (io, "read_ply", "io.read_ply", _bytes("io.bytes_read")),
        (io, "read_grid", "io.read_grid", _bytes("io.bytes_read")),
        (io, "write_ply", "io.write_ply", _bytes("io.bytes_written")),
        (io, "write_grid", "io.write_grid", _bytes("io.bytes_written")),
        (cli, "main", _cli_name, None),
        (scenegen, "sample_scene", "scenegen.sample_scene", None),
        (scenegen, "simulate_scans", "scenegen.simulate_scans", None),
        (scenegen, "apply_dropout", "scenegen.apply_dropout", None),
    ]


class Tracer:
    """Records spans and counters while ``enabled``; wrappers are inert otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple, float] = defaultdict(float)
        self.pass_id: object = SETUP
        self.enabled = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, hook in _targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def count(self, name: str, value: float) -> None:
        self.counters[(self.pass_id, name)] += value

    def _wrap(self, fn, name, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            bound = None
            if callable(name) or hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            parent = self._stack[-1] if self._stack else None
            span = Span(name(bound) if callable(name) else name, 0.0, 0.0, parent, self.pass_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, None if parent is None else self.spans[parent].name, bound, result)
            return result

        return wrapper

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> dict[tuple, float]:
        """Self time per (pass id, span name): duration minus child durations."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.end - s.start
        out: dict[tuple, float] = defaultdict(float)
        for s, child in zip(self.spans, children):
            out[(s.pass_id, s.name)] += (s.end - s.start) - child
        return out

    def root_seconds(self, pass_id) -> float:
        """Summed duration of the pass's top-level spans."""
        return sum(s.end - s.start for s in self.spans
                   if s.parent is None and s.pass_id == pass_id)

    def layer_metrics(self, pass_ids: list) -> dict[str, float]:
        """Each layer's total in set-up plus its median total over ``pass_ids``."""
        totals: dict[tuple, float] = defaultdict(float)
        for (pid, name), sec in self.self_times().items():
            totals[(pid, f"{name}_s")] += sec
        for key, value in self.counters.items():
            totals[key] += value
        names = {name for _, name in totals}

        def value(name: str) -> float:
            per_pass = [totals.get((pid, name), 0.0) for pid in pass_ids]
            return totals.get((SETUP, name), 0.0) + statistics.median(per_pass)

        out = {name: value(name) for name in names}
        for metric, num, den in RATIOS:
            ratios = []
            for pid in pass_ids:
                d = totals.get((pid, den), 0.0)
                ratios.append(totals.get((pid, num), 0.0) / d if d else 0.0)
            out[metric] = statistics.median(ratios)
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "pass": s.pass_id}
            for s in self.spans
        ]
