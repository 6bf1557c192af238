"""The benchmark's tracer over one reduced pass of each weighted workload.

``bench/test_bench.py`` traces only a room pass, which makes no capped-ball
or kNN query.  These passes call every wrapped function whose arguments a
counter hook reads (``cap``, ``grid``, ``p1``, ``path``, ``argv``), so a
renamed function or argument fails here, not only in a traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from udfgrid import spatial  # noqa: E402


def _wrapped():
    return [getattr(owner, attr) for owner, attr, _, _ in tracing._targets()]


@pytest.mark.parametrize("name", ["desk-weighted", "cli-files"])
def test_traced_pass(name, tmp_path, monkeypatch):
    monkeypatch.setattr(spatial, "_num_threads", spatial._num_threads)  # passes set it
    originals = _wrapped()
    wl = workloads.WORKLOADS[name](7, str(tmp_path), reduced=True, threads=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.pass_id, tracer.enabled = 0, True
        res = wl.run_pass(wl.prepare(0))
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert _wrapped() == originals
    assert res.errors == [] and res.attempted > 0

    layers = tracer.layer_metrics([0])
    assert layers["spatial.capped_ball_batch.rows"] > 0
    assert layers["spatial.knn_batch.rows"] > 0
    assert layers["dfield.nodes_kept"] > 0 and layers["extract.points"] > 0
    # Self times partition the traced time: they sum to the root spans.
    self_total = sum(sec for (pid, _), sec in tracer.self_times().items() if pid == 0)
    assert self_total == pytest.approx(tracer.root_seconds(0), rel=1e-9)
