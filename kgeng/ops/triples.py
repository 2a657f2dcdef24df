"""Deterministic (subj, pred, obj) triple emission.

Relation/media records (surface-level, from ops/extract.py) are rewritten
into entity-level triples using the resolution map — a pure vectorized
fused read+resolve (``pc.index_in`` lookups) with no shuffle.
Records whose subject or object surface does not resolve are dropped
(noise candidates).

Confidence rule (mirrors the synthetic-truth construction): 1.0 when both
sides resolved via exact gazetteer surfaces, 0.9 when either side resolved
through alias canonicalization; media triples are 1.0.

Hot-path layout (the resolve pass touches every residue record): the
unmatched-row filter runs BEFORE any take/assembly so dropped rows never
materialize, constant columns are built by broadcast-``take`` (one C
pass) instead of Python lists, and the fused path dispatches on the
item's partition kind directly — no ``rec_kind`` column is appended just
to be filtered back out.
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

TRIPLE_SCHEMA = pa.schema([
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("doc_id", pa.string()),
    ("confidence", pa.float32()),
    # "triple" rows are the output; "eid" rows are a side output of the
    # same pass: the batch's unique entity ids (subj + non-media obj),
    # written as their own tiny checkpoint partition so the entities
    # stage never re-scans the corpus-scale triple table
    ("t_kind", pa.string()),
])


def _const_str(val: str, n: int) -> pa.Array:
    """Length-n constant string column in one vectorized take —
    no n-element Python list."""
    return pc.take(pa.array([val], pa.string()),
                   pa.array(np.zeros(n, np.int32)))


class ResolveTriples:
    def __init__(self, res: dict[str, tuple[str, bool]]):
        surfaces = list(res.keys())
        self.surface_arr = pa.array(surfaces, pa.string())
        self.eid_arr = pa.array([res[s][0] for s in surfaces], pa.string())
        self.alias_arr = pa.array([res[s][1] for s in surfaces], pa.bool_())

    def resolve_relation(self, rel: pa.Table) -> pa.Table:
        """Relation records -> triples (columns of TRIPLE_SCHEMA).
        Filter-first: rows whose subject or object does not resolve are
        dropped before any take, so only kept rows are ever assembled."""
        s_idx = pc.index_in(rel["subj"], value_set=self.surface_arr)
        o_idx = pc.index_in(rel["obj"], value_set=self.surface_arr)
        keep = pc.and_(pc.is_valid(s_idx), pc.is_valid(o_idx))
        s_idx = pc.filter(s_idx, keep)
        o_idx = pc.filter(o_idx, keep)
        pred = pc.filter(rel["pred"], keep)
        doc = pc.filter(rel["doc_id"], keep)
        alias = pc.or_(pc.take(self.alias_arr, s_idx),
                       pc.take(self.alias_arr, o_idx))
        conf = pc.if_else(alias, pa.scalar(0.9, pa.float32()),
                          pa.scalar(1.0, pa.float32()))
        n = len(pred)
        return pa.table({
            "subj": pc.take(self.eid_arr, s_idx),
            "pred": pred,
            "obj": pc.take(self.eid_arr, o_idx),
            "doc_id": doc,
            "confidence": pc.cast(conf, pa.float32()),
            "t_kind": _const_str("triple", n),
        }).cast(TRIPLE_SCHEMA)

    def resolve_media(self, med: pa.Table) -> pa.Table:
        """Media records -> (entity, mentions_media, media_ref) triples.
        subj carries "|"-joined ordered candidates; the triple's subject
        is the FIRST candidate that resolves. Fully vectorized — media
        is NOT a small partition (≈60% of the 2M-doc residue; the
        previous per-row Python loop was 4.9 µs/row and dominated the
        whole stage): split once, one ``index_in`` over the flattened
        candidates, then a searchsorted first-hit per row."""
        if len(med) == 0:
            return TRIPLE_SCHEMA.empty_table()
        cand = pc.split_pattern(med["subj"].combine_chunks(), "|")
        flat = pc.list_flatten(cand)
        idx = pc.index_in(flat, value_set=self.surface_arr)
        valid = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        offs = cand.offsets.to_numpy()
        # first valid flat position within each row's [offs[i], offs[i+1])
        vpos = np.flatnonzero(valid)
        start = np.searchsorted(vpos, offs[:-1], side="left")
        clipped = vpos[np.minimum(start, max(len(vpos) - 1, 0))] \
            if len(vpos) else np.zeros(len(cand), np.int64)
        hit = (start < len(vpos)) & (clipped < offs[1:])
        first = clipped[hit]
        subs = pc.take(self.eid_arr,
                       pc.take(pc.fill_null(idx, 0),
                               pa.array(first, pa.int64())))
        hit_arr = pa.array(hit)
        objs = pc.filter(med["obj"].combine_chunks(), hit_arr)
        docs = pc.filter(med["doc_id"].combine_chunks(), hit_arr)
        n = len(first)
        return pa.table({
            "subj": subs,
            "pred": _const_str("mentions_media", n),
            "obj": objs,
            "doc_id": docs,
            "confidence": pa.array(np.full(n, 1.0, np.float32)),
            "t_kind": _const_str("triple", n),
        }).cast(TRIPLE_SCHEMA)

    @staticmethod
    def eid_rows(result: pa.Table) -> pa.Table | None:
        """Side output: unique entity ids (subj + non-media obj) of a
        resolved batch, as TRIPLE_SCHEMA rows with t_kind='eid'."""
        subj = result["subj"].combine_chunks()
        obj = result["obj"].combine_chunks()
        ent_obj = obj.filter(pc.invert(pc.starts_with(obj, "media://")))
        eids = pc.unique(pa.concat_arrays([subj, ent_obj]))
        if not len(eids):
            return None
        n = len(eids)
        return pa.table({
            "subj": eids,
            "pred": _const_str("", n), "obj": _const_str("", n),
            "doc_id": _const_str("", n),
            "confidence": pa.array(np.zeros(n, np.float32)),
            "t_kind": _const_str("eid", n),
        }).cast(TRIPLE_SCHEMA)


# worker-local cache (same pattern as ops/extract.py): stateless tasks,
# resolution tables built once per worker and keyed by the resolution's
# ``Shipped`` token, zero pool spin-up cost
_RESOLVER_CACHE: dict[str, ResolveTriples] = {}


def _cached_resolver(resolution) -> ResolveTriples:
    r = _RESOLVER_CACHE.get(resolution.token)
    if r is None:
        r = ResolveTriples(resolution.value())
        _RESOLVER_CACHE.clear()
        _RESOLVER_CACHE[resolution.token] = r
    return r


# rows per resolve task before rounding up to full scheduling waves (see
# emit_triples_fused)
_TASK_ROWS = 131072


def emit_triples_fused(relation_files: list[str], media_files: list[str],
                       resolution: dict[str, tuple[str, bool]],
                       target_rows: int = 16384,
                       file_rows: dict[str, int] | None = None,
                       writer=None) -> pa.Table | ray.data.Dataset:
    """Fused read+resolve over checkpointed record partitions: each task
    reads its own row-group range and resolves it in-process, so the
    corpus-scale relation table never round-trips the object store
    between a read operator and the resolve map (same pattern and
    rationale as ``extract_records_fused``).

    Small plans run in the calling process: when the residue, spread
    over every CPU, would not fill one ``_TASK_ROWS`` task
    (``extract._in_process``), the same groups go through the same
    group function and writer on the driver, and the result is one
    table (the receipts, or the triples without a writer) instead of a
    Dataset; the resolution is then never pickled.

    ``file_rows`` (the records manifests' per-file receipts) lets the
    plan skip all driver-side footer reads — worth ~0.35 s of fixed
    per-run cost at 490 part files.

    The per-kind checkpoint projections drop ``rec_kind`` (and media's
    ``pred``) from the files; the task dispatches on each item's
    partition kind directly, so neither column is reconstructed."""
    import math

    from kgeng.ops.extract import (Shipped, _iter_item_tables, cluster_cpus,
                                   plan_items_from_rows, plan_read_items,
                                   run_item_groups)

    def plan(files: list[str]) -> list[dict]:
        if file_rows is not None:
            return plan_items_from_rows(files, file_rows, target_rows)
        return plan_read_items(files, target_rows)

    res = Shipped(resolution)
    items = ([dict(it, kind="relation") for it in plan(relation_files)]
             + [dict(it, kind="media") for it in plan(media_files)])
    # resolve is ~10x cheaper per row than extract, so one item per
    # checkpoint file makes overhead-dominated 50 ms tasks; group items
    # into ~128k-row tasks rounded UP to full scheduling waves (a task
    # count like 76 on 32 CPUs runs as 2.4 waves with a 2/3-idle tail —
    # measured sweep on the 1M-doc bench checkpoint: 64 aligned tasks at
    # 32 CPUs beat both 128 tiny and 32 coarse ones)
    ncpu = cluster_cpus()
    total_rows = sum(it["rows"] for it in items)
    waves = max(1, math.ceil(total_rows / _TASK_ROWS / ncpu))
    n_tasks = int(min(len(items), waves * ncpu))

    def read_and_resolve(group: list[dict]) -> pa.Table:
        r = _cached_resolver(res)
        outs = []
        for it, t in _iter_item_tables(group):
            outs.append(r.resolve_relation(t) if it["kind"] == "relation"
                        else r.resolve_media(t))
        if not outs:
            # through the writer seam even when every planned range
            # clamped empty: the task must emit a RECEIPTS-schema block
            # (an empty one), never a triple-schema block into the
            # receipts Dataset (extract.py handles this identically)
            empty = TRIPLE_SCHEMA.empty_table()
            return writer(empty) if writer is not None else empty
        result = pa.concat_tables(outs)
        # eid side rows once per TASK (not per item): same downstream
        # semantics (the entities stage dedups), fewer duplicate rows
        eids = ResolveTriples.eid_rows(result)
        if eids is not None:
            result = pa.concat_tables([result, eids])
        if writer is not None:
            # fused write: triples go straight to partitioned parquet,
            # only receipts leave the task
            return writer(result)
        return result

    return run_item_groups(items, n_tasks, _TASK_ROWS, ncpu,
                           read_and_resolve)
