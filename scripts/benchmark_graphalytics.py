"""Graphalytics benchmark analogue (reference benchmark_graphalytics.py):
download -> extract -> import -> run -> report, re-expressed for this
engine. Download/zstd are env-gated seams (no network in-sandbox), so this
script takes an already-extracted dataset directory, runs the compat import
pipeline, materializes the collections, and reports wall times + counts —
the same phases the reference timed (importer.py:61-65,
graphalytics_importer.py:90,140).

Usage: python scripts/benchmark_graphalytics.py <dataset_dir> [out_dir]
(e.g. fixtures/graphalytics/tiny)
"""

from __future__ import annotations

import json
import os
import sys
import time

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    dataset_dir = sys.argv[1]
    out_dir = sys.argv[2] if len(sys.argv) > 2 else "/tmp/ga_bench_out"
    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS",
                                        len(os.sched_getaffinity(0)))),
             include_dashboard=False, ignore_reinit_error=True,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from kgeng.io.graph_files import (CompatGraphConfig, graphalytics_files,
                                      import_graphalytics, read_properties)

    cfg = CompatGraphConfig()
    _v, _e, props = graphalytics_files(dataset_dir)
    expected_v = read_properties(props, "num_vertices")
    expected_e = read_properties(props, "num_edges")

    t0 = time.monotonic()
    vds, eds = import_graphalytics(dataset_dir, cfg)
    tv0 = time.monotonic()
    vds.write_parquet(os.path.join(out_dir, cfg.vertex_coll))
    tv = time.monotonic() - tv0
    te0 = time.monotonic()
    eds.write_parquet(os.path.join(out_dir, cfg.edge_coll))
    te = time.monotonic() - te0
    import pyarrow.parquet as pq

    nv = sum(pq.read_metadata(os.path.join(out_dir, cfg.vertex_coll, f))
             .num_rows for f in os.listdir(os.path.join(out_dir,
                                                        cfg.vertex_coll))
             if f.endswith(".parquet"))
    ne = sum(pq.read_metadata(os.path.join(out_dir, cfg.edge_coll, f))
             .num_rows for f in os.listdir(os.path.join(out_dir,
                                                        cfg.edge_coll))
             if f.endswith(".parquet"))
    print(json.dumps({
        "dataset": os.path.basename(dataset_dir.rstrip("/")),
        "vertices": nv, "edges": ne,
        "expected_vertices": expected_v, "expected_edges": expected_e,
        "counts_match": nv == expected_v and ne == expected_e,
        "vertex_import_sec": round(tv, 3),
        "edge_import_sec": round(te, 3),
        "total_sec": round(time.monotonic() - t0, 3),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
