"""The benchmark's view of the processes it starts (the local Ray
instance), read from ``/proc``: CPU time, peak memory, and ending them."""

from __future__ import annotations

import os
import signal
import sys
import time

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int | str) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state
    first); raises OSError when the process is gone."""
    with open(f"/proc/{pid}/stat") as f:
        stat = f.read()
    return stat[stat.rindex(")") + 2:].split()


def descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            ppid = int(_stat_fields(name)[1])
        except OSError:
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def tree_cpu_s() -> float:
    """User + system CPU seconds of this process and every process it
    started (the Ray workers, raylet, GCS): those still running, and those
    that have ended and been waited for by a parent in the tree."""
    ticks = 0
    for pid in [os.getpid()] + descendants(os.getpid()):
        try:
            f = _stat_fields(pid)
        except OSError:
            continue
        ticks += sum(int(x) for x in f[11:15])  # utime stime cutime cstime
    return ticks / _TICKS


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host since boot, from /proc/stat:
    steal is time the hypervisor gave this machine's CPUs to others."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def worker_peak_rss_mb() -> float:
    """Highest VmHWM over this process's Ray worker processes."""
    peak = 0
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            if not (cmd.startswith(b"ray::") or b"default_worker.py" in cmd):
                continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024


def _running(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] != "Z"
    except OSError:
        return False


def stop_children(grace_s: float = 10.0) -> None:
    """End every process this one started, directly or not, that is still
    running (after ``ray.shutdown``, normally none), and wait for them."""
    pids = descendants(os.getpid())
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while pids and time.monotonic() < deadline:
            for pid in pids:
                try:  # reaps direct children; others go to init
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
            pids = [p for p in pids if _running(p)]
            if pids:
                time.sleep(0.05)
        if not pids:
            return
        print(f"[perfbench] {len(pids)} processes left after {sig.name}",
              file=sys.stderr, flush=True)
