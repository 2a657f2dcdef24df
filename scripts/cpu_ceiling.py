"""Measure this host's raw lo->hi-process CPU scaling ceiling.

CPU frequency scaling / host contention means N->4N processes on this box
never reach a 4x speedup even for embarrassingly-parallel pure-CPU work;
this microbenchmark (multiprocessing + the same regex kernel family the
extract stage uses) measures that ceiling so pipeline scaling efficiency
can be judged against what the hardware permits. Prints the ceiling
(fraction of the ideal hi/lo speedup) as the last line.

Usage: python cpu_ceiling.py [lo_procs hi_procs]
(default n // 4 and n for the n CPUs this process may run on)
"""

import multiprocessing as mp
import os
import re
import sys
import time

RX = re.compile(r"\b[A-Z][a-z]+(?: [A-Z][a-z]+)+\b")
TXT = ("Reportedly, Alice Umber works for Acme Systems. "
       "The deadline is 2024-05-17. ") * 20


def work(n):
    c = 0
    for _ in range(n):
        c += len(RX.findall(TXT))
    return c


def run(nproc, iters=3000):
    t0 = time.time()
    with mp.Pool(nproc) as p:
        p.map(work, [iters] * nproc * 4)
    return (iters * nproc * 4) / (time.time() - t0)


if __name__ == "__main__":
    n = len(os.sched_getaffinity(0))
    lo, hi = (int(sys.argv[1]), int(sys.argv[2])) if len(sys.argv) > 2 \
        else (max(1, n // 4), n)
    t_lo, t_hi = run(lo), run(hi)
    print(f"units/s at {lo} procs: {t_lo:.0f}; at {hi} procs: {t_hi:.0f}")
    print(round(t_hi / t_lo / (hi / lo), 3))
