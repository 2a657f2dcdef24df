"""Graph materialization — vertices/edges collections in the reference's
smart-graph document layout, as parquet plus a ``graph.json`` manifest
(the DDL analogue of ``general.py:51-108``).

Layouts (see FIXTURES.md §4):

- vertex, smart:            ``{<smart_attr>: v, "_key": f"{v}:{v}", "part": p}``
  (graphalytics_importer.py:87,93; vertices_generator.py:24-28)
- edge:                     ``{"_from": "<vcoll>/<smart>:<id>", "_to": ...,
  [<attr>: "<str>"]}`` — attribute value stored as *string*
  (edges_generator.py:26-29,44-47; weight-as-string per edge_list.py:33)

Two plans build the collections, with one pair of projections
(:func:`vertex_table`, :func:`edge_table`) shared by both:

- the Ray plan: each collection is a Ray Dataset, written by its own
  ``write_parquet`` execution (one part file per output block);
- the driver plan: the caller passes driver-resident ``pa.Table``s and
  each collection is written as ONE ``part-00000.parquet`` file. A
  write over a MB-sized graph is then milliseconds of pyarrow instead
  of seconds of per-execution scheduling.

The pipeline picks the plan from the measured byte size of its
checkpointed triple files: at most ``config._DRIVER_SIDE_READ_BYTES``
(the cutover its other side-partition reads use) selects the driver
plan; larger inputs, and runs without a checkpoint store, use the Ray
plan.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from kgeng.config import SmartGraphConfig
from kgeng.ops import keys


def vertex_table(batch: pa.Table, cfg: SmartGraphConfig) -> pa.Table:
    """entities(entity_id, [ent_type]) -> vertex docs."""
    eid = batch["entity_id"].combine_chunks()
    part = (batch["ent_type"].combine_chunks()
            if "ent_type" in batch.column_names
            else pa.nulls(len(batch), pa.string()))
    if cfg.smart_attribute == "part":
        # the reference's smart-attr=='part' variant: the partition
        # property IS the smart value (_key = f"{part}:{vid}",
        # vertices_generator.py:30) — a naive dict literal would
        # collide on the duplicate "part" key and drop the column
        return pa.table({
            "part": part,
            "_key": keys.smart_key(eid, smart_value=part),
            "entity_id": eid,
        })
    return pa.table({
        cfg.smart_attribute: eid,
        "_key": keys.smart_key(eid),
        "part": part,
    })


def confidence_strings(conf) -> pa.Array:
    """Edge confidences as strings, formatted like the reference's
    f-strings (f'{w}' -> '1.0', not the Arrow cast's shortest-repr '1').
    float32 values format at FLOAT32 precision: widening 0.9f to double
    first would print '0.8999999761581421' where the reference prints
    '0.9'. Each distinct value is formatted once (almost every
    confidence is one of the constants 1.0 and 0.9) and spread back
    with ``take``."""
    if isinstance(conf, pa.ChunkedArray):
        conf = conf.combine_chunks()
    enc = pc.dictionary_encode(conf)
    vals = enc.dictionary.to_numpy(zero_copy_only=False)
    if pa.types.is_float32(conf.type):
        strs = [np.format_float_positional(v, trim="0") for v in vals]
    else:
        strs = [f"{float(v)}" for v in vals]
    return pa.array(strs, pa.string()).take(enc.indices)


def edge_table(batch: pa.Table, cfg: SmartGraphConfig) -> pa.Table:
    """triples(subj, pred, obj, doc_id, confidence) -> edge docs.

    ``pred`` becomes an edge attribute; confidence is stringified (the
    reference stores all edge attributes as strings)."""
    return pa.table({
        "_from": keys.idx_to_smart_vertex(cfg.vertex_coll,
                                          batch["subj"].combine_chunks()),
        "_to": keys.idx_to_smart_vertex(cfg.vertex_coll,
                                        batch["obj"].combine_chunks()),
        "pred": batch["pred"],
        "doc_id": batch["doc_id"],
        "confidence": confidence_strings(batch["confidence"]),
    })


def entities_to_vertices(entities: ray.data.Dataset,
                         cfg: SmartGraphConfig) -> ray.data.Dataset:
    """Ray plan of :func:`vertex_table`."""
    return entities.map_batches(lambda t: vertex_table(t, cfg),
                                batch_format="pyarrow")


def triples_to_edges(triples: ray.data.Dataset,
                     cfg: SmartGraphConfig) -> ray.data.Dataset:
    """Ray plan of :func:`edge_table`."""
    return triples.map_batches(lambda t: edge_table(t, cfg),
                               batch_format="pyarrow")


def _write_collection(coll, d: str) -> None:
    if isinstance(coll, pa.Table):
        import pyarrow.parquet as pq

        os.makedirs(d)
        pq.write_table(coll, os.path.join(d, "part-00000.parquet"))
    else:
        coll.write_parquet(d)


def write_graph(out_dir: str, vertices, edges, cfg: SmartGraphConfig,
                overwrite: bool = True, lineage: dict | None = None) -> dict:
    """Materialize both collections + manifest. Vertices are written before
    edges — the reference's ordering invariant
    (graphalytics_importer.py:173-175; edge_list.py:50-51).

    ``vertices`` / ``edges`` may be collections or zero-arg callables
    returning them, called in that order and only when a write actually
    happens. A collection is either a Ray Dataset (the Ray plan: one
    ``write_parquet`` execution, one part file per block) or a
    driver-resident ``pa.Table`` (the driver plan: one
    ``part-00000.parquet`` per collection dir, written with
    ``pq.write_table``); the caller picks the plan, see the module
    docstring. A previous INTACT export (manifest + ``_SUCCESS`` sentinel
    written after both collections) with the same ``lineage`` is reused
    instead of rewritten: the lineage covers the pipeline config and
    input fileset, which fully determine the collections' content, so a
    resumed run skips a full output rewrite."""
    manifest_path = os.path.join(out_dir, "graph.json")
    success_path = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            prev = json.load(f)
        if not overwrite:
            return prev
        if (lineage is not None and os.path.exists(success_path)
                and prev.get("lineage") == lineage):
            return prev
    os.makedirs(out_dir, exist_ok=True)
    # crash-ordering: drop BOTH reuse markers before touching the
    # collections (a stale manifest surviving a crash mid-rewrite would
    # validate the NEW data under the OLD lineage), and re-create them
    # only after both collections are fully written — manifest first,
    # _SUCCESS last, so the reuse gate (manifest + _SUCCESS) can never
    # observe a half-written state as intact.
    if os.path.exists(success_path):
        os.remove(success_path)
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    vdir = os.path.join(out_dir, cfg.vertex_coll)
    edir = os.path.join(out_dir, cfg.edge_coll)
    for d in (vdir, edir):
        if os.path.exists(d):
            import shutil

            shutil.rmtree(d)
    _write_collection(vertices() if callable(vertices) else vertices, vdir)
    _write_collection(edges() if callable(edges) else edges, edir)
    manifest = {
        "graph_name": cfg.graph_name,
        "vertex_collection": cfg.vertex_coll,
        "edge_collection": cfg.edge_coll,
        "is_smart": cfg.is_smart,
        "smart_attribute": cfg.smart_attribute,
        "number_of_shards": cfg.num_shards,
        "replication_factor": cfg.replication_factor,
        "lineage": lineage,
    }
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=1)
    with open(success_path, "w") as f:
        f.write("")
    return manifest


def write_partitioned_parquet(ds, root: str, by: str,
                              max_rows_per_file: int = 1_000_000) -> dict:
    """Hive-partitioned parquet output (``root/<by>=<value>/part-*.parquet``)
    — the resumable output layout the brief calls for: one directory per
    key value, so a re-run (or a downstream filter) can address any
    partition without touching the rest, and ``ray.data.read_parquet``
    prunes on the partition column for free.

    Each task splits its blocks by the partition value with one
    vectorized sort + ``searchsorted`` slice per block and writes its
    own files (content-hashed names for debuggability; two
    byte-identical blocks in one run take -1/-2 suffixes via
    exclusive-create, so the manifest's row counts ALWAYS equal what
    ``read_parquet`` returns). Files are fully written to a temp name
    and published atomically with ``os.link`` (exclusive-create of the
    final name from an already-complete file) — no 0-byte or truncated
    part is ever visible. Receipts carry the published FILE NAMES, and
    after the receipt aggregation the directory is reconciled against
    them: any part file not named by a surviving receipt (e.g. written
    by a task attempt Ray later retried — the retry takes a -1/-2
    suffix and only ITS receipt survives) is deleted, so the manifest
    row counts always equal what ``read_parquet`` returns even under
    task re-execution. Any partition dirs and sentinels from a
    previous (possibly differently-sharded or crashed) run are cleared
    first — stale files from another block layout would otherwise
    survive alongside the new ones and double-count on read. A
    ``_SUCCESS`` manifest at the root records row counts per
    partition; ``partitioned_is_done(root)`` gates a resume exactly
    like the checkpoint stages (callers skip the whole write when it
    returns True).

    Null partition values are rejected loudly (a null would otherwise
    round-trip as the string 'None')."""
    import hashlib
    import shutil

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    os.makedirs(root, exist_ok=True)
    for sentinel in ("_SUCCESS", "_MANIFEST.json"):
        p = os.path.join(root, sentinel)
        if os.path.exists(p):
            os.remove(p)
    for entry in os.listdir(root):
        if entry.startswith(f"{by}="):
            shutil.rmtree(os.path.join(root, entry), ignore_errors=True)

    def write_block(t: pa.Table) -> pa.Table:
        empty = pa.table({"part": pa.array([], pa.string()),
                          "rows": pa.array([], pa.int64()),
                          "file": pa.array([], pa.string())})
        if len(t) == 0:
            return empty
        import numpy as np

        if t[by].null_count:
            raise ValueError(
                f"write_partitioned_parquet: partition column {by!r} "
                f"contains {t[by].null_count} null value(s); a null "
                "would round-trip as the string 'None'. Fill or filter "
                "nulls before partitioning.")
        order = pc.sort_indices(t, sort_keys=[(by, "ascending")])
        t = t.take(order)
        col = t[by].combine_chunks()
        # vectorized run boundaries over the sorted dictionary codes
        codes = pc.dictionary_encode(col).indices.to_numpy(
            zero_copy_only=False)
        starts = np.r_[np.flatnonzero(np.r_[True, codes[1:]
                                            != codes[:-1]]),
                       [len(codes)]].tolist()
        vals = col.to_pandas()
        parts, rows, files = [], [], []
        for a, b in zip(starts[:-1], starts[1:]):
            sub = t.slice(a, b - a)
            v = str(vals.iloc[a])
            d = os.path.join(root, f"{by}={v}")
            os.makedirs(d, exist_ok=True)
            sink = pa.BufferOutputStream()
            pq.write_table(sub.drop_columns([by]), sink)
            buf = sink.getvalue()
            name = hashlib.sha256(buf.to_pybytes()).hexdigest()[:16]
            # fully write a task-attempt-unique temp file, then publish
            # it under an exclusive final name with os.link (atomic,
            # fails if the name exists): no 0-byte placeholder, no
            # truncated part ever visible. Two byte-identical blocks in
            # one run (or a retried task attempt re-writing the same
            # block) take -1/-2 suffixes; the end-of-run reconcile
            # keeps only files named by surviving receipts.
            tmp = os.path.join(
                d, f".tmp-{os.getpid()}-{id(buf):x}-{name}")
            with open(tmp, "wb") as f:
                f.write(buf.to_pybytes())
            fname = None
            for k in range(1_000_000):
                suffix = "" if k == 0 else f"-{k}"
                cand = f"part-{name}{suffix}.parquet"
                try:
                    os.link(tmp, os.path.join(d, cand))
                except FileExistsError:
                    continue
                fname = cand
                break
            os.unlink(tmp)
            parts.append(v)
            rows.append(len(sub))
            files.append(fname)
        return pa.table({"part": pa.array(parts, pa.string()),
                         "rows": pa.array(rows, pa.int64()),
                         "file": pa.array(files, pa.string())})

    receipts = ds.map_batches(write_block, batch_format="pyarrow") \
        .take_all()
    counts: dict[str, int] = {}
    kept: dict[str, set[str]] = {}
    for r in receipts:
        counts[r["part"]] = counts.get(r["part"], 0) + int(r["rows"])
        kept.setdefault(r["part"], set()).add(r["file"])
    # reconcile: a task attempt Ray retried leaves its file behind while
    # only the retry's receipt survives — delete any part file no
    # surviving receipt names, so manifest row counts == read_parquet.
    for v, names in kept.items():
        d = os.path.join(root, f"{by}={v}")
        for entry in os.listdir(d):
            if entry.endswith(".parquet") and entry not in names:
                os.remove(os.path.join(d, entry))
    manifest = {"by": by, "partitions": counts,
                "n_rows": int(sum(counts.values()))}
    with open(os.path.join(root, "_MANIFEST.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    with open(os.path.join(root, "_SUCCESS"), "w") as f:
        f.write("")
    return manifest


def partitioned_is_done(root: str) -> bool:
    """Resume gate for :func:`write_partitioned_parquet`."""
    return os.path.exists(os.path.join(root, "_SUCCESS")) \
        and os.path.exists(os.path.join(root, "_MANIFEST.json"))
