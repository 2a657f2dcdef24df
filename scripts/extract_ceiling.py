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


def main():
    from kgeng.synth.corpus import ensure_bench_corpus

    n = len(os.sched_getaffinity(0))
    ks = [int(a) for a in sys.argv[1:]] or sorted({1, max(1, n // 4), n})
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
