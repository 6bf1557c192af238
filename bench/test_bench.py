"""Checks of the benchmark itself, on reduced-size workloads.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from udfgrid import core, spatial  # noqa: E402


def first_pass(name: str, workdir: Path, threads: int):
    wl = workloads.WORKLOADS[name](7, str(workdir), reduced=True, threads=threads)
    res = wl.run_pass(wl.prepare(0))
    assert res.errors == []
    assert res.attempted > 0
    return wl, res


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_pass_digests_do_not_depend_on_thread_count(name, tmp_path):
    one, many = tmp_path / "one", tmp_path / "many"
    one.mkdir()
    many.mkdir()
    wl1, res1 = first_pass(name, one, threads=1)
    wln, resn = first_pass(name, many, threads=max(2, workloads.nproc()))
    digests = wl1.digests(res1)
    assert len(digests) > 2
    assert wln.digests(resn) == digests
    assert resn.chamfers == res1.chamfers


def test_traced_pass_separates_layers_and_restores_the_library(tmp_path):
    originals = (spatial.nearest_batch, core.SparseDFGrid.values_at)
    wl = workloads.RoomNearest(7, str(tmp_path), reduced=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.pass_id, tracer.enabled = 0, True
        res = wl.run_pass(wl.prepare(0))
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert (spatial.nearest_batch, core.SparseDFGrid.values_at) == originals
    assert res.errors == []

    layers = tracer.layer_metrics([0])
    assert layers["dfield.compute_grid_s"] > 0
    assert layers["dfield.nodes_kept"] == sum(len(g) for g in res.grids.values())
    assert layers["dfield.nodes_evaluated"] == layers["spatial.nearest_batch.rows"]
    assert "spatial.capped_ball_batch_s" not in layers
    assert "spatial.knn_batch_s" not in layers
    # Self times partition the traced time: they sum to the root spans.
    self_total = sum(sec for (pid, _), sec in tracer.self_times().items() if pid == 0)
    assert self_total == pytest.approx(tracer.root_seconds(0), rel=1e-9)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "pass_s", "setup_s", "peak_rss_mb", "chamfer_m"}
