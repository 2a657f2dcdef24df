"""Per-layer tracing for the traced benchmark run.

``Tracer.install`` wraps the public entry points of each kgeng layer that
the benchmark's workloads reach, records a span (name, start, end, parent,
operation id) and counts at each, and ``Tracer.uninstall`` puts the
originals back. Nothing under ``kgeng/`` changes; the untraced runs never
construct a ``Tracer``, so they run the unwrapped code.

A wrapper that needs the Dataset it returns to be computed materializes it
inside its span (the graph algorithms); every other wrapper returns what
the wrapped function returned.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import Counter

# per-layer spans, keyed by the metric they feed; each is a top-level
# layer span of an operation (layers do not nest inside each other)
LAYER_SPANS = {
    "extract.plan": "extract.wall_s",
    "extract.run": "extract.wall_s",
    "block": "block.wall_s",
    "canonicalize": "canonicalize.wall_s",
    "triples": "triples.wall_s",
    "entities": "entities.wall_s",
    "sink.vertices": "sink.vertices_s",
    "sink.edges": "sink.edges_s",
    "graph_files.vertices": "graph_files.vertices_s",
    "graph_files.edges": "graph_files.edges_s",
    "graph.pagerank": "graph.pagerank_s",
    "graph.labelprop": "graph.labelprop_s",
    "graph.triangles": "graph.triangles_s",
}


def dir_stats(root: str) -> tuple[int, int]:
    """(bytes, files) of every regular file under ``root``."""
    size = files = 0
    for dirpath, _dirs, names in os.walk(root):
        for n in names:
            p = os.path.join(dirpath, n)
            if os.path.isfile(p):
                size += os.path.getsize(p)
                files += 1
    return size, files


def _parquet_rows(root: str) -> int:
    import pyarrow.parquet as pq

    rows = 0
    for dirpath, _dirs, names in os.walk(root):
        for n in names:
            if n.endswith(".parquet"):
                rows += pq.read_metadata(os.path.join(dirpath, n)).num_rows
    return rows


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._op = 0
        self._next_id = 0

    # ------------------------------------------------------------ spans
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        rec = {"id": sid, "op": self._op, "name": name,
               "parent": stack[-1] if stack else None,
               "start": time.monotonic(), **attrs}
        stack.append(sid)
        try:
            yield rec
        finally:
            stack.pop()
            rec["end"] = time.monotonic()
            with self._lock:
                self.spans.append(rec)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[(self._op, name)] += n

    def begin_op(self) -> None:
        self._op += 1

    def op_summary(self, op_wall: float) -> dict[str, float]:
        """Per-layer metrics of the current operation."""
        out: dict[str, float] = {}
        layer_total = 0.0
        for s in self.spans:
            if s["op"] != self._op or s["name"] not in LAYER_SPANS:
                continue
            d = s["end"] - s["start"]
            key = LAYER_SPANS[s["name"]]
            out[key] = out.get(key, 0.0) + d
            layer_total += d
        for (op, name), v in self.counts.items():
            if op == self._op:
                out[name] = v
        verify = out.get("block.verify_calls", 0)
        out["block.pair_yield"] = (out.get("block.pairs", 0) / verify
                                   if verify else 0.0)
        out["pipeline.op_wall_s"] = op_wall
        out["pipeline.unattributed_s"] = op_wall - layer_total
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans,
                       "counts": [{"op": op, "name": n, "value": v}
                                  for (op, n), v in self.counts.items()]},
                      f)

    # ---------------------------------------------------------- patching
    def _patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def install(self) -> None:
        import kgeng.io.bulk_sink as bulk_sink
        import kgeng.io.sink as sink
        import kgeng.ops.block as block
        import kgeng.ops.canonicalize as canonicalize
        import kgeng.ops.graph as graph
        import kgeng.pipeline as pipeline
        from kgeng.checkpoint import CheckpointStore

        tr = self

        def extract_plan(orig):
            def wrapped(*a, **kw):
                with tr.span("extract.plan"):
                    return orig(*a, **kw)
            return wrapped

        def commit_receipts(orig):
            def wrapped(store, stage, receipts_ds, shard=None, **kw):
                if stage != "records":
                    return orig(store, stage, receipts_ds, shard=shard, **kw)
                with tr.span("extract.run", shard=shard):
                    d = orig(store, stage, receipts_ds, shard=shard, **kw)
                meta = store.manifest(stage, shard)
                tr.count("extract.records", meta["rows"])
                tr.count("extract.early_triples",
                         meta["metrics"].get("rows_by_partition", {})
                         .get("rec_kind=triple", 0))
                return d
            return wrapped

        def write_receipts(orig):
            def wrapped(store, stage, *a, **kw):
                if stage != "triples":
                    return orig(store, stage, *a, **kw)
                with tr.span("triples"):
                    d = orig(store, stage, *a, **kw)
                tr.count("triples.resolved_rows",
                         store.manifest(stage)["metrics"]
                         .get("rows_by_partition", {})
                         .get("t_kind=triple", 0))
                return d
            return wrapped

        def write_table(orig):
            def wrapped(store, stage, table, *a, **kw):
                if stage != "entities":
                    return orig(store, stage, table, *a, **kw)
                with tr.span("entities"):
                    d = orig(store, stage, table, *a, **kw)
                tr.count("entities.count", table.num_rows)
                return d
            return wrapped

        def is_done(orig):
            def wrapped(store, stage, shard=None, lineage=None):
                hit = orig(store, stage, shard, lineage)
                tr.count("checkpoint.resume_hits" if hit
                         else "checkpoint.resume_misses")
                return hit
            return wrapped

        def pairs_driver(orig):
            def wrapped(surfaces, cfg):
                with tr.span("block"):
                    out = orig(surfaces, cfg)
                capped = sum(1 for a, _b, _j in out if not a)
                tr.count("block.surfaces", len(surfaces))
                tr.count("block.pairs", len(out) - capped)
                tr.count("block.capped_groups", capped)
                return out
            return wrapped

        def jaccard(orig):
            def wrapped(a, b, k):
                tr.count("block.verify_calls")
                return orig(a, b, k)
            return wrapped

        def resolution(orig):
            def wrapped(pairs, gazetteer, cfg):
                with tr.span("canonicalize"):
                    res = orig(pairs, gazetteer, cfg)
                tr.count("canonicalize.resolved",
                         sum(1 for _eid, via in res.values() if via))
                return res
            return wrapped

        def write_graph(orig):
            def wrapped(out_dir, vertices, edges, cfg, *a, **kw):
                marks = {}

                def edges_thunk():
                    marks["edges"] = time.monotonic()
                    return edges() if callable(edges) else edges

                with tr.span("sink") as s:
                    manifest = orig(out_dir, vertices, edges_thunk, cfg,
                                    *a, **kw)
                if "edges" in marks:  # not reused from a previous export
                    mid = marks["edges"]
                    tr.spans.append({"id": None, "op": tr._op,
                                     "name": "sink.vertices",
                                     "parent": s["id"],
                                     "start": s["start"], "end": mid})
                    tr.spans.append({"id": None, "op": tr._op,
                                     "name": "sink.edges",
                                     "parent": s["id"],
                                     "start": mid, "end": s["end"]})
                tr.count("sink.vertices", _parquet_rows(
                    os.path.join(out_dir, cfg.vertex_coll)))
                tr.count("sink.edges", _parquet_rows(
                    os.path.join(out_dir, cfg.edge_coll)))
                tr.count("sink.bytes", dir_stats(out_dir)[0])
                return manifest
            return wrapped

        def jsonl(orig):
            def wrapped(ds, out_dir):
                name = f"graph_files.{os.path.basename(out_dir)}"
                with tr.span(name):
                    rows = orig(ds, out_dir)
                tr.count("bulk_sink.rows", rows)
                tr.count("bulk_sink.bytes", dir_stats(out_dir)[0])
                return rows
            return wrapped

        def algorithm(name):
            def make(orig):
                def wrapped(*a, **kw):
                    with tr.span(name):
                        return orig(*a, **kw).materialize()
                return wrapped
            return make

        self._patch(pipeline, "extract_records_fused", extract_plan)
        self._patch(CheckpointStore, "commit_stage_receipts",
                    commit_receipts)
        self._patch(CheckpointStore, "write_stage_receipts", write_receipts)
        self._patch(CheckpointStore, "write_stage_table", write_table)
        self._patch(CheckpointStore, "is_done", is_done)
        self._patch(block, "candidate_pairs_driver", pairs_driver)
        self._patch(block, "jaccard", jaccard)
        self._patch(canonicalize, "build_resolution_from_pairs", resolution)
        self._patch(sink, "write_graph", write_graph)
        self._patch(bulk_sink, "write_jsonl_collection", jsonl)
        self._patch(graph, "pagerank", algorithm("graph.pagerank"))
        self._patch(graph, "label_propagation_communities",
                    algorithm("graph.labelprop"))
        self._patch(graph, "triangle_counts", algorithm("graph.triangles"))
