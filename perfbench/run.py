#!/usr/bin/env python3
"""kgeng benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload kg_build --seed 1 --seconds 10 \
        --trace 0

Starts a local Ray instance with a fixed CPU count, generates the
workload's inputs from the seed, and runs its operation back to back
(a closed loop, one operation at a time) for ``--seconds``, checking every
operation's output. The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
public entry points of each layer (perfbench/tracing.py) and reports the
per-layer metrics instead, writing the spans to
``.pb/traces/<workload>-seed<n>.json``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(REPO, ".pb")
# Ray's CPU count: 4, or fewer when this process may run on fewer CPUs
NUM_CPUS = min(4, len(os.sched_getaffinity(0)))
OBJECT_STORE_BYTES = 512 << 20
SETUP_REPEATS = 3
# Ray puts Unix sockets under its temp dir (session_<time>_<pid>/sockets/
# plasma_store adds ~65 bytes); a socket path may not exceed 107 bytes
MAX_RAY_TEMP_DIR = 40
# ray.init gives up when the raylet has not registered within 30 s, which
# happens now and then on a loaded host; a fresh start usually succeeds
RAY_START_ATTEMPTS = 3

# an operation's wall is logged, not reported: on a shared host it swings
# with CPU steal from other tenants (README.md, "Metrics")
END_TO_END_UNITS = {"setup_s": "s", "op_cpu_s": "s", "output_mb": "MB",
                    "peak_driver_rss_mb": "MB", "peak_worker_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "extract.wall_s": "s", "extract.records": "count",
    "extract.early_triples": "count", "extract.kernel_s": "s",
    "block.wall_s": "s", "block.surfaces": "count",
    "block.verify_calls": "count", "block.pairs": "count",
    "block.pair_yield": "ratio", "block.capped_groups": "count",
    "canonicalize.wall_s": "s", "canonicalize.resolved": "count",
    "triples.wall_s": "s", "triples.resolved_rows": "count",
    "entities.wall_s": "s", "entities.count": "count",
    "sink.vertices_s": "s", "sink.edges_s": "s", "sink.vertices": "count",
    "sink.edges": "count", "sink.bytes": "bytes",
    "checkpoint.resume_hits": "count", "checkpoint.resume_misses": "count",
    "checkpoint.bytes": "bytes", "checkpoint.files": "count",
    "graph_files.vertices_s": "s", "graph_files.edges_s": "s",
    "bulk_sink.rows": "count", "bulk_sink.bytes": "bytes",
    "graph.pagerank_s": "s", "graph.labelprop_s": "s",
    "graph.triangles_s": "s",
    "pipeline.op_wall_s": "s", "pipeline.unattributed_s": "s",
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def ray_temp_dir(work: str) -> str | None:
    """Ray's temp dir for this run: ``<work>/r`` when its socket paths fit,
    else None (Ray's default)."""
    tmp = os.path.join(work, "r")
    return tmp if len(tmp) <= MAX_RAY_TEMP_DIR else None


def start_ray(work: str) -> None:
    import ray
    from ray.data import DataContext

    from perfbench import procs

    kw = {}
    tmp = ray_temp_dir(work)
    if tmp:
        kw["_temp_dir"] = tmp
    # workers import kgeng (and perfbench's remote functions) from the
    # repo, whatever directory the benchmark was started from
    path = os.pathsep.join(p for p in (REPO, os.environ.get("PYTHONPATH"))
                           if p)
    for attempt in range(1, RAY_START_ATTEMPTS + 1):
        try:
            ray.init(address="local", num_cpus=NUM_CPUS,
                     include_dashboard=False, logging_level="ERROR",
                     log_to_driver=False,
                     object_store_memory=OBJECT_STORE_BYTES,
                     runtime_env={"env_vars": {"PYTHONPATH": path}}, **kw)
            break
        except Exception as e:
            # a failed start leaves its processes running: end them first
            ray.shutdown()
            procs.stop_children()
            if attempt == RAY_START_ATTEMPTS:
                raise
            log(f"Ray start {attempt} failed ({e!r}); starting again")
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def warm_workers() -> None:
    """Start every worker process and import kgeng in it, through one
    small Dataset execution with a shuffle (worker start-up and the first
    execution cost seconds that no operation should pay)."""
    import ray.data

    from perfbench.workloads import import_kgeng

    n = NUM_CPUS * 4
    ray.data.range(n, override_num_blocks=n).map_batches(
        import_kgeng, batch_format="pyarrow").groupby("id").count() \
        .materialize()


def remove_ray_sessions(work: str) -> None:
    """Remove the session dirs Ray made for this process (named
    ``session_<time>_<pid>``) when they lie outside ``work``."""
    if ray_temp_dir(work):
        return  # under work, removed with it
    from ray._common.utils import get_ray_temp_dir

    root = get_ray_temp_dir()
    mine = glob.glob(os.path.join(root, f"session_*_{os.getpid()}"))
    latest = os.path.join(root, "session_latest")
    if os.path.islink(latest) and os.readlink(latest) in mine:
        os.remove(latest)
    for d in mine:
        shutil.rmtree(d, ignore_errors=True)


def run(args) -> dict:
    import ray

    from perfbench import procs
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    work = os.path.join(SCRATCH, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](work, args.seed)
    try:
        t0 = time.monotonic()
        start_ray(work)
        warm_workers()
        ray_s = time.monotonic() - t0
        gen_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.monotonic()
            wl.generate()
            gen_s.append(time.monotonic() - t0)
        t0 = time.monotonic()
        wl.prepare()
        prepare_s = time.monotonic() - t0
        setup_s = ray_s + statistics.median(gen_s) + prepare_s
        log(f"setup {setup_s:.2f} s (ray+warm-up {ray_s:.2f}, generate "
            f"{[round(g, 2) for g in gen_s]}, prepare {prepare_s:.2f})")

        if tracer:
            tracer.install()
        walls, cpus, sizes, layers = [], [], [], []
        attempted = failed = wrong = 0
        deadline = time.monotonic() + args.seconds
        while attempted == 0 or time.monotonic() < deadline:
            attempted += 1
            if tracer:
                tracer.begin_op()
            steal0, total0 = procs.host_cpu_ticks()
            try:
                wall = wl.op()
                problems = wl.check()
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            steal1, total1 = procs.host_cpu_ticks()
            log(f"op {attempted}: {wall:.3f} s, CPU {wl.cpu_s:.2f} s, steal "
                f"{100 * (steal1 - steal0) / max(1, total1 - total0):.1f}%"
                + (f" WRONG: {problems}" if problems else ""))
            if problems:
                failed += 1
                wrong += 1
                continue
            walls.append(wall)
            cpus.append(wl.cpu_s)
            sizes.append(wl.output_bytes())
            if tracer:
                wl.trace_counts(tracer)
                layers.append(tracer.op_summary(wall))
        if not walls:
            raise RuntimeError(f"all {attempted} operations failed")

        if tracer:
            tracer.uninstall()
            metrics = {k: statistics.median(s.get(k, 0) for s in layers)
                       for k in PER_LAYER_UNITS}
            metrics["extract.kernel_s"] = wl.kernel_s()
            units = PER_LAYER_UNITS
            path = os.path.join(SCRATCH, "traces",
                                f"{args.workload}-seed{args.seed}.json")
            tracer.write(path)
            log(f"trace written to {path}")
        else:
            op_s = statistics.median(walls)
            log(f"median operation wall {op_s:.3f} s, "
                f"{wl.rows / op_s:.1f} rows/s")
            metrics = {
                "setup_s": setup_s,
                "op_cpu_s": statistics.median(cpus),
                "output_mb": statistics.median(sizes) / 1e6,
                "peak_driver_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
                "peak_worker_rss_mb": procs.worker_peak_rss_mb(),
            }
            units = END_TO_END_UNITS
        return {"correct": wrong == 0, "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in metrics.items()}}
    finally:
        if tracer:
            tracer.uninstall()
        ray.shutdown()
        procs.stop_children()
        remove_ray_sessions(work)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("kg_build", "kg_wide", "kg_append",
                             "graph_import"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(REPO, "kgeng")):
        log(f"no kgeng package next to perfbench/ (looked in {REPO})")
        return 2
    # import perfbench as a package from the repo root, never its modules
    # from the script's own directory
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [REPO] + [p for p in sys.path
                            if os.path.abspath(p or ".") != here]
    # no usage-stats report: the run talks to nothing outside this host
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    # stdout carries the result line only: Ray and anything it starts
    # write to stderr while the run is on
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        result = run(args)
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
