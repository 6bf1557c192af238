"""Run one benchmark workload on the udfgrid source next to this directory.

    python3 bench/run.py --workload desk-weighted --seed 1 --seconds 35 --trace 0

Workloads: desk-weighted, room-nearest, cli-files (see bench/README.md).
The library is imported from ``src/`` of the same checkout; without it the
command exits non-zero and prints no result.

With ``--trace 0`` the last line of standard output is one JSON object whose
metrics are the end-to-end ones: ``pass_s`` (median wall time of the passes
after the first, which warms up), ``setup_s`` (median over fresh processes of
the time from process start to the first pass), ``peak_rss_mb`` and
``chamfer_m`` (median over passes of the pass's mean roundtrip Chamfer
distance).  ``failed_ratio`` is printed above it and carried by ``failed`` /
``attempted``.  With ``--trace 1`` the metrics are the per-layer ones from
``tracing.PER_LAYER``.

Every pass is checked: operations must not raise, extraction must return
points, Chamfer distances must be finite, and passes over the same input
must give the same output digests.  Once per run, ``evaluation.chamfer``
must equal ``evaluation.chamfer_bruteforce`` bit for bit on a fixed
subsample of the first pass's clouds.  Any failure makes the exit code 1.
A record of the machine, versions, scene size, CPU steal during the passes,
digests and (traced) spans is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
BRUTE_SAMPLE = 1000
# A traced pass's top-level spans must cover its wall time to within this
# share plus 2 ms of loop overhead.
UNATTRIBUTED_SHARE = 0.01


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["desk-weighted", "room-nearest", "cli-files"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="run passes for this long (at least three)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (one setup_s sample)")
    return p.parse_args(argv)


def import_library():
    """Import udfgrid from this checkout's src/, never from anywhere else."""
    init = SRC / "udfgrid" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no udfgrid source at {init.parent}")
    sys.path.insert(0, str(SRC))
    import udfgrid

    if Path(udfgrid.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported udfgrid from {udfgrid.__file__}, not {init}")
    return udfgrid


def setup_sample(args) -> float:
    """Seconds from starting a fresh process to its workload being set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up process exited {proc.returncode}")
    return elapsed


def subsample(cloud, n: int):
    ids = np.unique(np.linspace(0, len(cloud) - 1, min(n, len(cloud))).round().astype(int))
    return udfgrid.core.PointCloud(cloud.positions[ids])


def exact_chamfer_errors(pairs) -> list[str]:
    errors = []
    for name, a, b in pairs:
        a, b = subsample(a, BRUTE_SAMPLE), subsample(b, BRUTE_SAMPLE)
        fast = udfgrid.evaluation.chamfer(a, b)
        brute = udfgrid.evaluation.chamfer_bruteforce(a, b)
        if fast != brute:
            errors.append(f"chamfer {fast!r} != chamfer_bruteforce {brute!r} on {name}")
    return errors


def percentile_line(samples: list[float]) -> str:
    """The highest of p99/p90 with at least ten samples beyond it, if any."""
    for p in (99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            value = statistics.quantiles(samples, n=100)[p - 1]
            return f"p{p} {value:.4f} s"
    return "no tail percentile (fewer than ten samples beyond p90)"


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) clock ticks of all CPUs so far; None without /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after) -> float | None:
    """Share of CPU time the host took from this machine between two readings."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def machine_record(args, wl, scene: dict, steal: float | None) -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu": cpu, "nproc": workloads.nproc(), "threads": wl.threads,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "scene": scene, "cpu_steal_share": steal,
    }


def run(args) -> int:
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it


def measure(args, workdir: str) -> int:
    setup = [setup_sample(args) for _ in range(SETUP_PROBES)]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.enabled = True
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if tracer:
        tracer.enabled = False

    # Pass 0 warms up and is left out of the timings.  Traced runs then
    # alternate traced and untraced passes so that the tracing overhead
    # compares like with like.
    min_passes = 3
    passes, errors, attempted = [], [], 0
    first_digests: dict = {}
    scene: dict = {}
    ticks = cpu_ticks()
    start = time.perf_counter()
    i = 0
    # Start another pass only while it can be expected to end inside the window.
    while i < min_passes or (time.perf_counter() - start
                             + statistics.median(p["seconds"] for p in passes)) <= args.seconds:
        inputs = wl.prepare(i)
        traced = bool(tracer) and i % 2 == 1
        if traced:
            tracer.pass_id, tracer.enabled = i, True
        t0, c0 = time.perf_counter(), time.process_time()
        res = wl.run_pass(inputs)
        seconds = time.perf_counter() - t0
        cpu_seconds = time.process_time() - c0
        if traced:
            tracer.enabled = False
        # Everything below is outside the timed pass.
        attempted += res.attempted
        errors += [f"pass {i}: {e}" for e in res.errors]
        digests = wl.digests(res)
        key = wl.input_key(i)
        if key in first_digests:
            attempted += 1
            if digests != first_digests[key]:
                errors.append(f"pass {i}: output digests differ from an earlier pass "
                              "over the same input")
        else:
            first_digests[key] = digests
        if i == 0 and not res.errors:
            pairs = wl.brute_pairs(res)
            attempted += len(pairs)
            errors += [f"pass 0: {e}" for e in exact_chamfer_errors(pairs)]
            scene = wl.scene_size(res)
        if traced:
            attempted += 1
            unattributed = seconds - tracer.root_seconds(i)
            if not -1e-6 <= unattributed <= UNATTRIBUTED_SHARE * seconds + 0.002:
                errors.append(f"pass {i}: root spans cover {seconds - unattributed:.4f} s "
                              f"of {seconds:.4f} s")
        chamfers = [res.chamfers[k.value] for k, _ in wl.kinds if k.value in res.chamfers]
        passes.append({
            "pass": i, "seconds": seconds, "cpu_seconds": cpu_seconds, "traced": traced,
            "chamfer_m": statistics.fmean(chamfers) if chamfers else None,
            "chamfers": res.chamfers, "extracted": res.extracted,
            "digest": hashlib.sha256("".join(digests.values()).encode()).hexdigest(),
            "digests": digests, "errors": res.errors,
        })
        print(f"pass {i}: {seconds:.4f} s{' traced' if traced else ''}  "
              f"digest {passes[-1]['digest'][:16]}  "
              + "  ".join(f"{k} {v:.6f} m" for k, v in res.chamfers.items()), flush=True)
        i += 1
    if tracer:
        tracer.uninstall()

    record = machine_record(args, wl, scene, steal_share(ticks, cpu_ticks()))
    failed = len(errors)
    result = {"record": record, "setup_s_samples": setup, "passes": passes, "errors": errors}
    if tracer:
        metrics = traced_metrics(tracer, passes)
        result["spans"] = tracer.span_records()
    else:
        metrics = timed_metrics(args, passes, setup, failed, attempted)
    for e in errors:
        print(f"FAILED {e}")
    print("record: " + json.dumps(record, sort_keys=True))
    write_result(args, result)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


def timed_metrics(args, passes, setup, failed, attempted) -> dict:
    times = [p["seconds"] for p in passes[1:]]
    quality = [p["chamfer_m"] for p in passes if p["chamfer_m"] is not None]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "pass_s": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
        "chamfer_m": {"value": statistics.median(quality) if quality else None, "unit": "m"},
    }
    n = len(times)
    print(f"{args.workload} seed {args.seed}: {n} passes")
    print(f"  pass_s       {metrics['pass_s']['value']:.4f} s  median of {n} passes; "
          f"{percentile_line(times)}; warm-up pass {passes[0]['seconds']:.4f} s")
    print(f"  setup_s      {metrics['setup_s']['value']:.4f} s  median of {len(setup)} "
          "fresh processes")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB  ru_maxrss of this process")
    print(f"  chamfer_m    {metrics['chamfer_m']['value']} m  median over {len(quality)} "
          "passes of the per-pass mean over kinds")
    print(f"  failed_ratio {failed / attempted:.4f}  {failed} of {attempted} operations")
    return metrics


def traced_metrics(tracer, passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"] and p["pass"] > 0]
    layers = tracer.layer_metrics([p["pass"] for p in traced])
    traced_s = statistics.median(p["seconds"] for p in traced)
    untraced_s = statistics.median(p["seconds"] for p in untraced)
    layers["trace.pass_s"] = traced_s
    layers["trace.untraced_pass_s"] = untraced_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.unattributed_s"] = statistics.median(
        p["seconds"] - tracer.root_seconds(p["pass"]) for p in traced)
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        metrics[name] = {"value": float(layers.get(name, 0.0)), "unit": unit}
        print(f"  {name:<42} {metrics[name]['value']:.6g} {unit}")
    print(f"  ({len(traced)} traced and {len(untraced)} untraced passes after one warm-up; "
          "each layer is its set-up total plus its median per traced pass)")
    return metrics


def write_result(args, result: dict) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    global udfgrid, workloads, tracing
    udfgrid = import_library()
    import tracing
    import workloads

    return run(args)


if __name__ == "__main__":
    sys.exit(main())
