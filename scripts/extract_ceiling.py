"""Raw multiprocessing scaling ceiling for the EXTRACT KERNEL itself.

Runs the exact per-batch extraction kernel (kgeng/ops/extract.py) in K
plain multiprocessing workers — no Ray, no object store — and reports
aggregate docs/sec per K. The K_hi/K_lo ratio is the hardware ceiling
for any system running THIS kernel at those parallelism levels on this
box: frequency scaling and memory bandwidth cap it well below linear.

Calibration matters: the kernel's cost per doc depends on the corpus.
An earlier version looped a single cache-hot 3000-doc part file, which
ran 1.76x faster per doc than the real bench corpus and so measured a
different operating point. This version scans the BENCH corpus itself
(size from $KG_BENCH_NDOCS, default 2,000,000 — the same corpus the
paired scaling runs use), each worker reading DISTINCT part files once
(cold-style, no shared-page-cache inflation), so the ceiling is the
hardware's attainable speedup for the actual job.

Usage: python scripts/extract_ceiling.py [K ...]
(default: 1, n // 4 and n for the n CPUs this process may run on)
Prints one JSON line: {"K<k>": docs_per_sec, ..., "ratio_hi_lo": r,
"ceiling_vs_ideal": r/(hi/lo)}.

Single-process mode, for timing the kernel itself on a given corpus:

    python scripts/extract_ceiling.py --docs PATH [PATH ...] \
        --gazetteer GAZ.parquet

runs ``Extract`` (the pipeline's detector config) over every document of
the given parquet files (a directory stands for its ``*.parquet`` files)
in 2,048-row slices, 7 times after one warm pass, and prints {"docs",
"best_s", "median_s", "docs_per_s"} from the best pass.
The files ``python3 -m perfbench.inputs kg_append SEED DIR`` writes are
one such input: ``--docs DIR/in/corpus DIR/in/fragments --gazetteer
DIR/in/gazetteer.parquet``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def _worker(args):
    corpus_dir, files = args
    import pyarrow.parquet as pq

    from kgeng.ops.extract import Extract, load_gazetteer_dict

    gaz = load_gazetteer_dict(os.path.join(corpus_dir,
                                           "gazetteer.parquet"))
    ex = Extract(gaz)
    tabs = [pq.read_table(f) for f in files]
    batches = [t.slice(i, 8192) for t in tabs
               for i in range(0, len(t), 8192)]
    ex(batches[0])  # warm (regex caches, numpy paths)
    t0 = time.monotonic()
    docs = 0
    for b in batches:
        ex(b)
        docs += len(b)
    return docs / (time.monotonic() - t0)


def measure(corpus_dir: str, k: int, files_per_worker: int = 2) -> float:
    cd = os.path.join(corpus_dir, "corpus")
    files = sorted(os.path.join(cd, f) for f in os.listdir(cd)
                   if f.endswith(".parquet"))
    # strided assignment: every worker gets different files
    assign = [files[i::k][:files_per_worker] or files[-1:]
              for i in range(k)]
    with mp.Pool(k) as pool:
        rates = pool.map(_worker, [(corpus_dir, a) for a in assign])
    return sum(rates)


def _parquet_files(paths: list[str]) -> list[str]:
    out = []
    for p in paths:
        if os.path.isdir(p):
            out += sorted(os.path.join(p, f) for f in os.listdir(p)
                          if f.endswith(".parquet"))
        else:
            out.append(p)
    return out


def kernel_best_of(docs: list[str], gazetteer: str) -> dict:
    import statistics

    import pyarrow.parquet as pq

    from kgeng.config import PipelineConfig
    from kgeng.ops.extract import Extract, load_gazetteer_dict

    ex = Extract(load_gazetteer_dict(gazetteer), PipelineConfig().detect)
    tabs = [pq.read_table(f) for f in _parquet_files(docs)]
    batches = [t.slice(i, 2048) for t in tabs
               for i in range(0, len(t), 2048)]
    n_docs = sum(len(b) for b in batches)
    walls = []
    for _ in range(8):   # best of 7; the first pass warms caches
        t0 = time.perf_counter()
        for b in batches:
            ex(b)
        walls.append(time.perf_counter() - t0)
    walls = walls[1:]
    best = min(walls)
    return {"docs": n_docs, "best_s": round(best, 4),
            "median_s": round(statistics.median(walls), 4),
            "docs_per_s": round(n_docs / best, 1)}


def main():
    import argparse

    from kgeng.synth.corpus import ensure_bench_corpus

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("ks", nargs="*", type=int)
    ap.add_argument("--docs", nargs="+")
    ap.add_argument("--gazetteer")
    args = ap.parse_args()
    if args.docs:
        if not args.gazetteer:
            ap.error("--docs needs --gazetteer")
        print(json.dumps(kernel_best_of(args.docs, args.gazetteer)))
        return

    n = len(os.sched_getaffinity(0))
    ks = args.ks or sorted({1, max(1, n // 4), n})
    n_docs = int(os.environ.get("KG_BENCH_NDOCS", "2000000"))
    corpus_dir = ensure_bench_corpus(n_docs)
    out = {}
    for k in ks:
        out[f"K{k}"] = round(measure(corpus_dir, k), 1)
    lo, hi = ks[-2:] if len(ks) >= 2 else (ks[0], ks[0])
    if hi > lo:
        out["ratio_hi_lo"] = round(out[f"K{hi}"] / out[f"K{lo}"], 3)
        out["ceiling_vs_ideal"] = round(
            out["ratio_hi_lo"] / (hi / lo), 3)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
