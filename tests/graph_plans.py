"""One switch for the plans of kgeng.ops.graph in tests.

Every graph in the tests is small, so by default each algorithm runs
plan A in-process. ``graph_plan`` forces the other backends of the
module's one round interface (and the plan B of the bespoke
algorithms):

- ``"local"``: the defaults (plan A, in-process);
- ``"raw"``: plan A on raw Ray tasks (``_LOCAL_EDGES = 0``);
- ``"distributed"``: plan B, the Dataset rounds
  (``_DRIVER_STATE_BYTES = 0``).

Parity tests take a ``plans`` argument (``PARITY`` by default: plan A
against plan B); tests/test_graph_backends.py calls the same tests
with ``("raw",)``, so each plan runs once per test in Tier-1.
"""

from __future__ import annotations

import contextlib

import pytest

from kgeng.ops import graph as G

PARITY = ("local", "distributed")


@contextlib.contextmanager
def graph_plan(plan: str):
    with pytest.MonkeyPatch.context() as mp:
        if plan == "raw":
            mp.setattr(G, "_LOCAL_EDGES", 0)
        elif plan == "distributed":
            mp.setattr(G, "_DRIVER_STATE_BYTES", 0)
        else:
            assert plan == "local", plan
        yield plan
