"""Benchmark driver (repo contract).

Default mode: one fresh ``ray.init(num_cpus=$RAY_GRAFT_CPUS or the CPUs
this process may run on)``, runs the headline KG-construction pipeline
end-to-end on the deterministic bench corpus plus a set of representative
queries over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1), and prints
ONE JSON line::

    {"metric": "kg_e2e_sec", "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "docs_per_sec": ...}

Every default-mode number is the MIN over ``$KG_BENCH_REPEATS`` (default
2) fresh runs: the host's all-core throughput swings +/-30% minute to
minute, and a single sample records the window, not the code.

``--scaling``: paired protocol — each repeat runs the headline job at
num_cpus=lo then num_cpus=hi BACK TO BACK in fresh subprocesses on the
SAME corpus, computes that pair's efficiency T_lo/((hi/lo)*T_hi) plus the
hardware
ceiling measured in the same window (raw multiprocessing scaling of a
regex kernel — CPU frequency scaling caps ANY 4x-CPU speedup well below
1.0 on this box, see BASELINE.md), and reports the MEDIAN per-pair
efficiency. Pairing matters: the host's all-core throughput swings
+/-20% across minutes, so lo/hi measured in different windows is noise.
The pair is ``$KG_SCALE_PAIR`` ("lo,hi") or, by default, (n // 4, n) for
the n CPUs this process may run on; the JSON records lo, hi and n.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPU = int(os.environ.get("RAY_GRAFT_CPUS",
                          len(os.sched_getaffinity(0))))
BENCH_NDOCS = int(os.environ.get("KG_BENCH_NDOCS", "200000"))
REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)


def _init_ray():
    import ray

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)


def headline_kg(n_docs: int) -> tuple[float, int, dict]:
    """KG pipeline end-to-end (fresh checkpoints) on the bench corpus;
    returns (wall_sec, n_triples, stage_walls). A tiny warmup run first
    spawns workers so steady-state throughput is measured, not cluster
    cold-start."""
    from kgeng.pipeline import KGPipeline
    from kgeng.synth.corpus import ensure_bench_corpus, ensure_corpus

    d = ensure_bench_corpus(n_docs)
    wd = ensure_corpus(100)
    warm_ck = f"/tmp/kgeng_bench_warm_{NCPU}"
    shutil.rmtree(warm_ck, ignore_errors=True)
    KGPipeline(checkpoint_root=warm_ck, num_shards=1).run(
        os.path.join(wd, "corpus"), os.path.join(wd, "gazetteer.parquet"))
    # spawn the FULL worker pool before timing: the tiny warm pipeline
    # only starts a handful of worker processes; without this, the timed
    # run pays ~NCPU process forks mid-flight
    import ray.data as _rd

    (_rd.range(NCPU * 4, override_num_blocks=NCPU * 4)
     .map_batches(lambda b: b).materialize())
    # best-of-REPEATS: this host's all-core throughput swings +/-30%
    # minute to minute (BASELINE.md quantifies it; an A/B of two
    # IDENTICAL trees read 3.44 s vs 3.40 s means, with single runs
    # spanning 2.2-4.6 s). A single sample conflates the code with the
    # window; the minimum over a few fresh-checkpoint runs is the
    # standard way to estimate the code's cost under transient external
    # noise. Every repeat is a FULL fresh run (checkpoints cleared) —
    # nothing is cached between repeats except worker processes, which
    # the warmup above already owns.
    repeats = int(os.environ.get("KG_BENCH_REPEATS", "2"))
    best = None
    for r in range(max(1, repeats)):
        ck = f"/tmp/kgeng_bench_ckpt_{NCPU}"
        shutil.rmtree(ck, ignore_errors=True)
        p = KGPipeline(checkpoint_root=ck)  # auto shard count (size-based)
        t0 = time.monotonic()
        res = p.run(os.path.join(d, "corpus"),
                    os.path.join(d, "gazetteer.parquet"))
        wall = time.monotonic() - t0
        # both triple sources are durably checkpointed inside run(); the
        # receipt count is the same number a full .count() re-read
        # returns (asserted in tests/test_kg_pipeline.py) without
        # re-decoding the whole triple table
        n = res.get("n_triples")
        if n is None:
            n = res["triples"].count()
        if best is None or wall < best[0]:
            best = (wall, n, res.get("stage_walls", {}))
    return best


def timed_queries() -> dict[str, float]:
    """Representative per-operator timings over $GRAFT_SF_DIR."""
    from kgeng import queries as Q

    out: dict[str, float] = {}
    for name, fn in [
        ("q1_lineitem_agg", Q.q1_lineitem_agg),
        ("events_tumbling_window", Q.events_tumbling_window),
        ("orders_by_custseg", Q.orders_by_custseg),
        ("doc_quality", Q.doc_quality),
        ("dedup_exact_docs", Q.dedup_exact_docs),
        ("minhash_dedup_docs", Q.minhash_dedup_docs),
        ("ann_topk", Q.ann_topk),
        ("top_orders", Q.top_orders),
        ("events_last_order", Q.events_last_order),
        ("lineitem_pagerank", Q.lineitem_pagerank),
        ("parts_triangle_counts", Q.parts_triangle_counts),
        ("docs_lm_scores", Q.docs_lm_scores),
        ("docs_bm25", Q.docs_bm25),
        ("docs_gopher_quality", Q.docs_gopher_quality),
        ("docs_incremental_dedup", Q.docs_incremental_dedup),
        ("lineitem_random_walks", Q.lineitem_random_walks),
        ("embedding_kmeans_q8", Q.embedding_kmeans_q8),
        ("corpus_top_terms_rescan", Q.corpus_top_terms_rescan),
        ("lineitem_labelprop", Q.lineitem_labelprop),
        ("events_dedup_keyed", Q.events_dedup_keyed),
    ]:
        # best-of-REPEATS per query, same rationale as headline_kg: the
        # host window swings +/-30%, and one sample per query makes the
        # recorded table reflect the minute it ran, not the code
        best = None
        for _ in range(max(1, int(os.environ.get(
                "KG_BENCH_REPEATS", "2")))):
            t0 = time.monotonic()
            res = fn(SF_DIR)
            # consume the result (Datasets are lazy)
            import pandas as pd
            import ray.data

            if isinstance(res, ray.data.Dataset):
                res.count()
            elif isinstance(res, pd.DataFrame):
                len(res)
            w = time.monotonic() - t0
            best = w if best is None else min(best, w)
        out[name] = round(best, 3)
    return out


def main():
    _init_ray()
    import ray

    kg_only = os.environ.get("KG_BENCH_ONLY") == "1"
    wall, n_triples, stage_walls = headline_kg(BENCH_NDOCS)
    result = {
        "metric": "kg_e2e_sec",
        "value": round(wall, 3),
        "unit": "sec",
        "queries": {},
        "sf": os.path.basename(SF_DIR.rstrip("/")),
        "num_cpus": NCPU,
        "bench_docs": BENCH_NDOCS,
        "n_triples": n_triples,
        "docs_per_sec": round(BENCH_NDOCS / wall, 1),
        # every number is min over this many fresh runs (host-window
        # noise control; KG_BENCH_REPEATS=1 restores single-sample)
        "best_of": max(1, int(os.environ.get("KG_BENCH_REPEATS", "2"))),
        # per-stage walls of the timed run: makes the fixed-cost story
        # externally checkable run over run (verdict r02 'Next' #9)
        "stages": stage_walls,
    }
    if not kg_only:
        result["queries"] = timed_queries()
        result["queries"]["kg_e2e"] = result["value"]
    print(json.dumps(result))
    ray.shutdown()


def default_scale_pair() -> tuple[int, int]:
    """(n // 4, n) Ray CPUs for the n CPUs this process may run on (at
    least 1 each): neither side of the pair oversubscribes the host, so
    the efficiency measures the engine, not CPU contention."""
    n = len(os.sched_getaffinity(0))
    return max(1, n // 4), n


def scaling(repeats: int = 2, n_docs: int = 2_000_000,
            lo_cpus: int | None = None, hi_cpus: int | None = None):
    """Paired protocol: each repeat runs lo then hi BACK TO BACK (fresh
    subprocess each) and computes that pair's efficiency, plus the
    hardware ceiling measured in the same window. The headline is the
    MEDIAN per-pair efficiency — the host's all-core throughput swings
    +/-20% across minutes, so an efficiency computed from a fast-moment
    T_lo and a slow-moment T_hi (or vice versa) is meaningless; paired
    measurements share the window."""
    import statistics

    if lo_cpus is None or hi_cpus is None:
        lo_cpus, hi_cpus = default_scale_pair()

    def run_once(ncpu: int) -> dict:
        # single-sample inside each child: the PAIRING (lo/hi back to
        # back) is this protocol's noise control, and best-of-N inside
        # a child would double the 2M-doc protocol cost for little gain
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   KG_BENCH_NDOCS=str(n_docs), KG_BENCH_ONLY="1",
                   KG_BENCH_REPEATS=os.environ.get(
                       "KG_BENCH_REPEATS", "1"))
        r = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env, capture_output=True, text=True)
        if r.returncode != 0:
            # surface the child's stderr — a bare CalledProcessError
            # would discard the one diagnostic that explains a
            # mid-protocol failure (and every completed pair with it)
            print(f"[scaling] child run (num_cpus={ncpu}) failed:\n"
                  f"{r.stderr[-2000:]}", file=sys.stderr)
            r.check_returncode()
        return json.loads(r.stdout.strip().splitlines()[-1])

    def ceiling() -> tuple[float | None, float | None]:
        """(kernel_ceiling, micro_ceiling) measured in this window.

        kernel: multiprocessing scaling of the ACTUAL extract kernel
        (scripts/extract_ceiling.py) — extract is 80-90%% of the pipeline
        wall, and its string/regex working set is memory-bandwidth-bound,
        so its attainable lo->hi speedup is the honest hardware ceiling
        for this job. micro: the cache-resident regex loop
        (scripts/cpu_ceiling.py), recorded for comparison — it overstates
        what a memory-bound kernel can reach."""
        kern = None
        out = subprocess.run(
            [sys.executable,
             os.path.join(REPO, "scripts", "extract_ceiling.py"),
             str(lo_cpus), str(hi_cpus)],
            capture_output=True, text=True).stdout.strip()
        try:
            kern = json.loads(out.splitlines()[-1]).get("ceiling_vs_ideal")
        except (ValueError, IndexError):
            pass
        hw = subprocess.run(
            [sys.executable,
             os.path.join(REPO, "scripts", "cpu_ceiling.py"),
             str(lo_cpus), str(hi_cpus)],
            capture_output=True, text=True).stdout.strip()
        try:
            micro = float(hw.splitlines()[-1])
        except (ValueError, IndexError):
            micro = None
        return kern, micro

    factor = hi_cpus / lo_cpus
    pairs = []
    for _ in range(repeats):
        # bracket the pair with ceiling measurements: the host's
        # attainable 4x swings +/-15% minute to minute, so a ceiling
        # sampled only after the pair can mis-grade it by that much;
        # the before/after mean tracks the window the pair actually ran in
        kern_a, micro_a = ceiling()
        lo = run_once(lo_cpus)
        hi = run_once(hi_cpus)
        kern_b, micro_b = ceiling()
        kerns = [k for k in (kern_a, kern_b) if k]
        micros = [m for m in (micro_a, micro_b) if m]
        kern = sum(kerns) / len(kerns) if kerns else None
        micro = sum(micros) / len(micros) if micros else None
        eff = lo["value"] / (factor * hi["value"])
        pairs.append({
            "sec_lo": lo["value"], "sec_hi": hi["value"],
            "efficiency": round(eff, 3),
            "hardware_ceiling": round(kern, 3) if kern else None,
            "hardware_ceiling_samples": kerns,
            "hardware_ceiling_micro": (round(micro, 3) if micro
                                       else None),
            "efficiency_vs_hardware": (round(eff / kern, 3) if kern
                                       else None),
            "stages_lo": lo.get("stages", {}),
            "stages_hi": hi.get("stages", {}),
        })
    med = statistics.median(p["efficiency"] for p in pairs)
    vs_hw = [p["efficiency_vs_hardware"] for p in pairs
             if p["efficiency_vs_hardware"] is not None]
    med_vs_hw = statistics.median(vs_hw) if vs_hw else None
    best_lo = min(p["sec_lo"] for p in pairs)
    best_hi = min(p["sec_hi"] for p in pairs)
    print(json.dumps({
        "metric": f"scaling_efficiency_{lo_cpus}_to_{hi_cpus}",
        "bench_docs": n_docs,
        "lo_cpus": lo_cpus, "hi_cpus": hi_cpus,
        "host_cpus": len(os.sched_getaffinity(0)),
        "sec_lo": best_lo, "sec_hi": best_hi,
        "docs_per_sec_lo": round(n_docs / best_lo, 1),
        "docs_per_sec_hi": round(n_docs / best_hi, 1),
        "scaling_efficiency": round(med, 3),
        "efficiency_vs_hardware": (round(med_vs_hw, 3)
                                   if med_vs_hw is not None else None),
        "pairs": pairs,
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        pair = (os.environ["KG_SCALE_PAIR"].split(",")
                if "KG_SCALE_PAIR" in os.environ else default_scale_pair())
        # 2M docs: big enough that the two fixed per-run streaming-
        # executor startups (~0.5 s total) stay under ~3% of the hi-CPU
        # wall — the 100 TB job this models amortizes them to nothing
        scaling(n_docs=int(os.environ.get("KG_SCALE_NDOCS", "2000000")),
                repeats=int(os.environ.get("KG_SCALE_REPEATS", "2")),
                lo_cpus=int(pair[0]), hi_cpus=int(pair[1]))
    else:
        main()
