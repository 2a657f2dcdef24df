"""Batched entity-link scorer — the stateful actor-pool stage.

The linker holds its state (gazetteer lookup tables as Arrow arrays) built
once per actor in ``__init__`` and scores whole batches with vectorized
``pc.index_in`` lookups — no per-row Python. In a real deployment this is
where a model (biencoder / cross-encoder) would load; the seam —
``map_batches(Linker, concurrency=N, batch_size=B)`` — is the real design.

Exact gazetteer hits link with score 1.0; NER-heuristic candidates get no
candidate here (``cand_id = ""``) and flow to MinHash-LSH blocking +
union-find canonicalization (ops/block.py, ops/canonicalize.py).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray

from kgeng.ops.extract import Shipped

LINKED_SCHEMA_EXTRA = [("cand_id", pa.string()), ("link_score", pa.float32())]


class Linker:
    def __init__(self, gazetteer: Shipped):
        gaz = gazetteer.value()
        surfaces = list(gaz.keys())
        self.surface_arr = pa.array(surfaces, pa.string())
        self.eid_arr = pa.array([gaz[s][0] for s in surfaces], pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(self.eid_arr) == 0:
            # empty gazetteer: nothing can link — the take-with-
            # fill_null(0) below would index position 0 of an empty
            # array and raise ArrowIndexError
            n = len(batch)
            return (batch
                    .append_column("cand_id",
                                   pa.array([""] * n, pa.string()))
                    .append_column("link_score",
                                   pa.array([0.0] * n, pa.float32())))
        idx = pc.index_in(batch["surface"], value_set=self.surface_arr)
        is_gaz_src = pc.equal(batch["source"], pa.scalar("gazetteer"))
        found = pc.and_(pc.is_valid(idx), is_gaz_src)
        cand = pc.take(self.eid_arr, pc.fill_null(idx, 0))
        cand = pc.if_else(found, cand, pa.scalar(""))
        score = pc.if_else(found, pa.scalar(1.0, pa.float32()),
                           pa.scalar(0.0, pa.float32()))
        return (batch
                .append_column("cand_id", cand)
                .append_column("link_score", pc.cast(score, pa.float32())))


# worker-local cache: stateless tasks rebuild the linker once per worker
# process, not per batch (the extract-stage pattern), keyed by the
# gazetteer's ``Shipped`` token — for the tiny lookup-array state an
# actor pool's ~2 s spin-up per run is pure fixed cost; pass
# use_actors=True when the state is a heavy model
_LINKER_CACHE: dict[str, Linker] = {}


def link_mentions(mentions: ray.data.Dataset, gazetteer: dict,
                  batch_size: int = 8192,
                  concurrency: int = 8,
                  use_actors: bool = False) -> ray.data.Dataset:
    # the gazetteer rides in the map function (or the actor's constructor
    # arguments) as a value: no task or actor blocks in ``ray.get``
    gaz = Shipped(gazetteer)
    if use_actors:
        return mentions.map_batches(
            Linker,
            fn_constructor_args=(gaz,),
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )

    def fn(batch: pa.Table) -> pa.Table:
        lk = _LINKER_CACHE.get(gaz.token)
        if lk is None:
            lk = Linker(gaz)
            _LINKER_CACHE.clear()
            _LINKER_CACHE[gaz.token] = lk
        return lk(batch)

    # concurrency caps the task pool too (not only the actor path) —
    # silently ignoring it would break callers bounding memory/CPU
    return mentions.map_batches(fn, batch_format="pyarrow",
                                batch_size=batch_size,
                                concurrency=concurrency)
