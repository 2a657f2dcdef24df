"""Loop-safe ``materialize()`` for iterative Dataset algorithms.

Ray Data's ``Dataset.materialize()`` truncates the *data* lineage (the
returned ``MaterializedDataset`` reads from pinned blocks) but carries
the full ``DatasetStats`` object forward, and every subsequent
execution chains its stats to its inputs' via ``DatasetStats.parents``.
At the end of EVERY execution the streaming executor renders
``stats.to_summary().to_string()`` (streaming_executor.py:258), which
recurses over ``parents`` with no memoization (stats.py:1016-1017).

For an iterative algorithm that joins two materialized datasets per
round (state x edges), the ancestry DAG therefore has O(2^rounds)
*paths*, and the per-round summary render grows exponentially: measured
on plan-B SCC (5k nodes / 20k edges, 64 materializations) the rounds
ran 2 s -> 98 s and the job took 524 s; with the ancestry severed the
same job runs 116 s with flat per-round cost.

``mat(ds)`` = ``ds.materialize()`` + sever the cross-execution
ancestry on the RESULT's stats. The materialized dataset keeps its own
execution's per-operator stats (``ds.stats()`` still reports the run
that produced it); only the chain to *earlier* executions is dropped,
which is exactly what a fixpoint loop wants. Use it for every
``materialize()`` inside a loop whose output feeds the next round.

``pull_blocks(ds, max_bytes)`` is the other way out of a materialized
Dataset: its blocks on the driver, sized by their metadata before the
pull (ROADMAP aim 3: every driver-side collect is bounded first).
"""

from __future__ import annotations

import math

import ray
import ray.data
from ray.data.dataset import MaterializedDataset


def mat(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Materialize ``ds`` and sever its stats ancestry (see module doc)."""
    out = ds.materialize()
    try:
        out._plan.stats().parents = []
    except Exception:
        pass  # private-API drift: lose the optimization, not the run
    return out


def _ref_bundles(ds: MaterializedDataset) -> list:
    """The RefBundles of a materialized Dataset. Its plan's source
    operator holds them (``InputData`` after ``materialize()``, the
    ``From*`` operators of ``from_arrow`` and kin); only when it does not
    are they iterated, which for a ``from_*`` Dataset starts a streaming
    execution of the empty plan (~15 ms)."""
    held = getattr(ds._logical_plan.dag, "output_data", lambda: None)()
    return held if held is not None else list(ds.iter_internal_ref_bundles())


def block_bytes(ds: MaterializedDataset) -> float:
    """Bytes of ``ds``'s blocks as their metadata records them, read
    without a pull or a Dataset execution; a block of unrecorded size
    counts as unbounded."""
    return sum(math.inf if m.size_bytes is None else m.size_bytes
               for b in _ref_bundles(ds) for m in b.metadata)


def pull_blocks(ds: MaterializedDataset, max_bytes: int) -> list:
    """The blocks of a MATERIALIZED Dataset on the driver, in order: one
    ``ray.get`` of the block refs (Arrow blocks map zero-copy from the
    object store), no Dataset execution. Raises ``ValueError`` before
    any ``ray.get`` when ``block_bytes(ds)`` exceeds ``max_bytes``."""
    size = block_bytes(ds)
    if size > max_bytes:
        raise ValueError(f"pull_blocks: the blocks hold {size} bytes, "
                         f"over the {max_bytes}-byte driver bound")
    return ray.get([r for b in _ref_bundles(ds) for r in b.block_refs])
