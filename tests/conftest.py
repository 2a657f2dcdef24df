"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import glob
import logging
import os

import pytest
import ray

_LOGS_DIR = []


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray._private import worker
    from ray.data import DataContext

    _LOGS_DIR.append(worker._global_node.get_logs_dir_path())
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()


def pytest_terminal_summary(terminalreporter):
    """Report (never assert) how many tasks this session's Ray driver
    cancelled: each cancellation is a chance to hit Ray 2.49's race
    between a cancel and the task's reply, which aborts the driver."""
    if not _LOGS_DIR:
        return
    n = 0
    for path in glob.glob(os.path.join(_LOGS_DIR[0],
                                       "python-core-driver-*.log")):
        with open(path, errors="replace") as f:
            n += sum("Cancelling a task" in line for line in f)
    terminalreporter.write_line(
        f"ray driver log: {n} 'Cancelling a task' lines")


@pytest.fixture(scope="session")
def tiny_corpus():
    from kgeng.synth.corpus import ensure_corpus

    return ensure_corpus(100)


@pytest.fixture(scope="session")
def small_corpus():
    from kgeng.synth.corpus import ensure_corpus

    return ensure_corpus(2000)
