"""Per-stage ds.stats() report for the headline KG pipeline — the
measure-don't-guess surface. Runs the pipeline on a small bench corpus and
prints each consumed Dataset's Ray Data stats (operator wall times, block
counts) plus the checkpoint manifests.

Usage: python scripts/stats_report.py [n_docs]
"""

from __future__ import annotations

import os
import shutil
import sys

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS",
                                         len(os.sched_getaffinity(0)))),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from kgeng.pipeline import KGPipeline
    from kgeng.synth.corpus import ensure_corpus

    d = ensure_corpus(n_docs)
    ck = "/tmp/kgeng_stats_ckpt"
    shutil.rmtree(ck, ignore_errors=True)
    p = KGPipeline(checkpoint_root=ck)
    res = p.run(os.path.join(d, "corpus"),
                os.path.join(d, "gazetteer.parquet"))
    n = res["triples"].count()
    print(f"=== triples: {n} ===")
    print("=== ds.stats() for the triples read ===")
    print(res["triples"].stats())
    print("=== checkpoint manifests (rows / wall / lineage) ===")
    import json

    from kgeng.checkpoint import CheckpointStore

    store = CheckpointStore(ck, p.cfg.config_hash())
    for m in store.manifests():
        print(json.dumps(m))
    ray.shutdown()


if __name__ == "__main__":
    main()
