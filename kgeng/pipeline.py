"""KG-construction pipeline assembly: read -> extract(+link) -> block ->
canonicalize -> triples(+entity ids) -> entities -> materialize.

Dataflow posture (the 10^12-doc design, SURVEY.md §7):

- the *documents* table is touched exactly once, by the sharded ``extract``
  stage (per-shard checkpoints = mid-run resume granularity);
- everything that shuffles (distinct surfaces, LSH bands, entity dedup) is
  orders of magnitude smaller than the corpus;
- broadcast state (gazetteer, resolution map) rides in the fused stages'
  map functions as the bytes of its pickle (``ops/extract.Shipped``),
  which Ray Data puts once per execution, and is rebuilt once per
  worker, never per batch; a stage whose whole input is small runs its
  task groups in this process instead (``ops/extract.run_item_groups``),
  with no Ray Data execution at all;
- stage boundaries are parquet checkpoints with lineage + metrics manifests
  (kgeng/checkpoint.py), so a killed run resumes where it stopped. Every
  run goes through the store: without a ``checkpoint_root`` it lives in a
  temp dir removed at interpreter exit.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import tempfile
import time

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from kgeng.checkpoint import CheckpointStore
from kgeng.config import (_DRIVER_SIDE_READ_BYTES, PipelineConfig,
                          SmartGraphConfig)
from kgeng.io import sink
from kgeng.ops.block import candidate_pairs
from kgeng.ops.canonicalize import build_resolution
from kgeng.ops.agg import distinct
from kgeng.ops.extract import (RECORD_SCHEMA, cluster_cpus,
                               extract_records_fused, load_gazetteer_dict)
from kgeng.ops.triples import TRIPLE_SCHEMA, emit_triples_fused

# per-kind checkpoint projections: each record kind keeps only its own
# meaningful columns (the union schema's other fields are empty strings)
_REC_PROJECTIONS = {
    "mention": ["doc_id", "span_idx", "offset", "surface", "ent_type",
                "source", "cand_id", "link_score"],
    "relation": ["doc_id", "span_idx", "subj", "pred", "obj"],
    "media": ["doc_id", "span_idx", "subj", "obj"],
    "surface": ["surface"],  # per-batch unique NER surfaces (side output)
    # early-emitted final triples (both surfaces exact-gazetteer; conf is
    # always 1.0 by construction, so it is not stored) + their per-batch
    # unique entity ids — see ops/extract.py early emission
    "triple": ["doc_id", "subj", "pred", "obj"],
    "eid": ["subj"],
}
# the triple table's columns, and the early-emitted triples' subset
_TRIPLE_COLS = ["subj", "pred", "obj", "doc_id", "confidence"]
_TRIPLE_PART_SCHEMA = pa.schema([TRIPLE_SCHEMA.field(c)
                                 for c in _TRIPLE_COLS])
_EARLY_SCHEMA = pa.schema([("subj", pa.string()), ("pred", pa.string()),
                           ("obj", pa.string()), ("doc_id", pa.string())])


def _conf1(t: pa.Table) -> pa.Table:
    """Early-emitted triples -> triple rows (their confidence is always
    1.0 by construction, so it is not stored)."""
    import numpy as np
    return pa.table({
        "subj": t["subj"], "pred": t["pred"], "obj": t["obj"],
        "doc_id": t["doc_id"],
        "confidence": pa.array(np.full(len(t), 1.0, dtype=np.float32)),
    })


class LazyResult(dict):
    """``KGPipeline.run``'s result mapping. Dataset values registered via
    :meth:`lazy` are built on first ``[]``/``get`` access: constructing a
    ``ray.data.read_parquet`` Dataset prefetches footer metadata for every
    part file on the driver (~0.1-1 s per corpus-scale partition), which a
    caller that only needs counts or a subset of the stage outputs should
    not pay. Iteration (``keys``/``items``) exposes only materialized
    entries plus pending thunk names via :attr:`pending`."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._thunks: dict = {}

    def lazy(self, key, thunk):
        self._thunks[key] = thunk

    @property
    def pending(self):
        return sorted(self._thunks)

    def __getitem__(self, key):
        if not super().__contains__(key) and key in self._thunks:
            self[key] = self._thunks.pop(key)()
        return super().__getitem__(key)

    def __contains__(self, key):
        return super().__contains__(key) or key in self._thunks

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default


# auto-sharding target: each extract shard should hold enough input that
# its fixed per-execution cost (~0.3-0.5 s streaming-executor startup +
# manifest write, measured at 32 CPUs) stays under ~2% of its runtime.
# 1 GiB of input ≈ 20-60 s of extract work per shard on one node.
_TARGET_SHARD_BYTES = 1 << 30


class KGPipeline:
    """The KG-construction pipeline. Every stage reads and writes a
    :class:`CheckpointStore` at ``checkpoint_root``; a later run over
    the same root resumes from the stages whose lineage still matches.
    With ``checkpoint_root=None`` each ``run()`` gets a fresh
    ``tempfile.mkdtemp(prefix="kgeng-ckpt-")`` root that lives until
    interpreter exit (an ``atexit`` hook removes it): the result's lazy
    Datasets read their rows from it, so it must outlive ``run()``."""

    def __init__(self, cfg: PipelineConfig | None = None,
                 checkpoint_root: str | None = None,
                 num_shards: int | None = None):
        self.cfg = cfg or PipelineConfig()
        self.checkpoint_root = checkpoint_root
        # None = auto: shard count scales with input bytes, so resume
        # granularity grows with the job while per-shard execution
        # overhead stays amortized (a 100 TB corpus gets ~10^5 shards, a
        # bench-sized one runs as a single execution)
        self.num_shards = num_shards

    def _resolve_num_shards(self, files: list[str]) -> int:
        if self.num_shards is not None:
            return self.num_shards
        total = sum(os.path.getsize(f) for f in files)
        return max(1, min(len(files), total // _TARGET_SHARD_BYTES))

    # ------------------------------------------------------------------
    def run(self, corpus_path: str, gazetteer_path: str,
            out_dir: str | None = None,
            resume: bool = True) -> dict:
        """Run end-to-end. ``corpus_path`` is a parquet file or directory of
        the documents table; returns a :class:`LazyResult` whose Datasets
        read the checkpoint store at ``result["checkpoint_root"]`` (a temp
        dir removed at interpreter exit when no ``checkpoint_root`` was
        given)."""
        t_start = time.monotonic()
        timing_on = bool(os.environ.get("KGENG_TIMING"))
        stage_walls: dict[str, float] = {}
        last = [t_start]

        def _t(label: str):
            now = time.monotonic()
            if label != "start":
                stage_walls[label.removesuffix("_done")] = round(
                    now - last[0], 3)
            last[0] = now
            if timing_on:
                print(f"KGENG_TIMING {label} {now - t_start:.2f}",
                      flush=True)

        cfg = self.cfg
        gaz = load_gazetteer_dict(gazetteer_path)
        store = CheckpointStore(self.checkpoint_root or _temp_root(),
                                cfg.config_hash())
        # input lineage folded into every stage's resume check: a changed
        # corpus file set or shard layout invalidates old checkpoints
        # instead of silently mixing stale and fresh shards
        corpus_files = _list_parquet_files(corpus_path)
        n_shards = self._resolve_num_shards(corpus_files)
        # the gazetteer's CONTENT is part of every stage's identity —
        # linking, resolution, and the early-emitted triples all depend
        # on it, so an edited gazetteer must invalidate old checkpoints
        # (the file is broadcast-small by construction; hashing it is
        # cheap relative to one stage execution)
        import hashlib

        with open(gazetteer_path, "rb") as gf:
            gaz_sha = hashlib.sha1(gf.read()).hexdigest()
        in_lin = {"corpus_files": corpus_files, "num_shards": n_shards,
                  "gazetteer_sha1": gaz_sha}

        # ---- stage 1: extract (sharded over input files) --------------
        _t("start")
        self._extract_stage(corpus_files, gaz, store, resume, n_shards,
                            gaz_sha)
        _t("extract_done")

        # ---- stage 2: linked mentions ---------------------------------
        # Exact-gazetteer linking (cand_id / link_score) is computed IN
        # the extract pass — the lookup is already paid there, and a
        # separate link stage would rewrite the corpus-scale mention
        # table just to append two columns. Records are checkpointed
        # hive-partitioned by rec_kind, so the result's "linked" view
        # reads ONLY the mention partition. (A model-based scorer plugs
        # in as the ops/link.py actor-pool stage over that Dataset.)
        link_cols = ["doc_id", "span_idx", "offset", "surface",
                     "ent_type", "source", "cand_id", "link_score"]
        link_schema = pa.schema([RECORD_SCHEMA.field(c)
                                 for c in link_cols])
        _t("linked_done")

        # ---- stage 3: blocking + canonicalization ---------------------
        resolution = self._canonicalize_stage(gaz, store, resume, in_lin)
        _t("canonicalize_done")

        # ---- stage 4: triples -----------------------------------------
        # Most triples (both surfaces exact-gazetteer) were ALREADY
        # emitted by the extract pass as the records 'triple' partition;
        # this stage resolves only the alias-dependent residue (pending
        # relations + media) against the canonicalization map, then the
        # result is the union of the two.
        triples_lin = {"input": "records+resolution", **in_lin}
        if not (resume and store.is_done("triples", lineage=triples_lin)):
            # fused read+resolve over the relation/media partitions:
            # the residue table never round-trips the object store
            # between read and resolve tasks; per-file receipts from
            # the records manifests make the plan footer-read-free
            store.write_stage_receipts(
                "triples",
                lambda w: emit_triples_fused(
                    store.shard_files(
                        "records", path_contains="rec_kind=relation"),
                    store.shard_files(
                        "records", path_contains="rec_kind=media"),
                    resolution,
                    file_rows=store.shard_file_rows("records"),
                    writer=w),
                partition_cols=["t_kind"], lineage=triples_lin,
                partition_projections={"triple": _TRIPLE_COLS,
                                       "eid": ["subj"]})

        def _triples_ds():
            early = store.read_all_shards(
                "records", path_contains="rec_kind=triple",
                columns=["subj", "pred", "obj", "doc_id"],
                schema=_EARLY_SCHEMA).map_batches(
                    _conf1, batch_format="pyarrow")
            pending = store.read_stage_partition(
                "triples", "t_kind=triple", columns=_TRIPLE_COLS,
                schema=_TRIPLE_PART_SCHEMA)
            return pending.union(early)

        n_triples = self._receipt_triple_count(store)
        _t("triples_done")

        # ---- stage 5: canonical entities ------------------------------
        entities = self._entities_stage(gaz, resolution, store, resume,
                                        in_lin)
        _t("entities_done")

        # ---- stage 6: graph materialization ---------------------------
        result = LazyResult({
            "stage_walls": stage_walls,
            "checkpoint_root": store.root,
            "entities": entities, "resolution": resolution,
            # row count from the write receipts (both triple sources
            # are durably checkpointed by now) — consumers that only
            # need the count skip a full re-read of the triple table
            "n_triples": n_triples})
        # corpus-scale Dataset views over the checkpoint partitions:
        # constructed on first access (each construction prefetches
        # hundreds of part-file footers on the driver)
        result.lazy("records", lambda: store.read_all_shards(
            "records", schema=RECORD_SCHEMA))
        result.lazy("linked", lambda: store.read_all_shards(
            "records", path_contains="rec_kind=mention",
            columns=link_cols, schema=link_schema))
        result.lazy("triples", _triples_ds)
        if out_dir:
            smart = cfg.smart
            # thunks: when the previous export's lineage matches, the
            # collections are not rebuilt (and the triples view is not
            # even constructed)
            graph_lin = {"config": cfg.config_hash(), **in_lin}
            plan = self._driver_graph_plan(store, smart)
            if plan is not None:
                _vertices, _edges = plan
            else:
                def _vertices():
                    media = self._media_vertices(result["triples"], smart)
                    return sink.entities_to_vertices(entities,
                                                     smart).union(media)

                def _edges():
                    return sink.triples_to_edges(result["triples"], smart)

            result["graph_manifest"] = sink.write_graph(
                out_dir, _vertices, _edges, smart, lineage=graph_lin)
            _t("materialize_done")
        return result

    # ------------------------------------------------------------------
    def _extract_stage(self, files: list[str], gaz: dict,
                       store: CheckpointStore, resume: bool,
                       n_shards: int, gaz_sha: str):
        cfg = self.cfg
        shards = _assign_shards_stable(files, n_shards)

        # drop shard dirs orphaned by a previous layout (different
        # num_shards, or a shard that lost its last fragment):
        # read_all_shards scans every shard=* dir, so a leftover would
        # duplicate records
        base = os.path.join(store.root, "records")
        if os.path.isdir(base):
            valid = {f"shard={i:05d}" for i, s in enumerate(shards) if s}
            for d in os.listdir(base):
                if d.startswith("shard=") and d not in valid:
                    shutil.rmtree(os.path.join(base, d))

        # records lineage includes the gazetteer hash: extraction emits
        # link columns AND the both-exact triples, both functions of it
        def _lin(sf):
            return {"files": sf, "gazetteer_sha1": gaz_sha}

        todo = [(i, sf) for i, sf in enumerate(shards) if sf
                and not (resume and store.is_done(
                    "records", shard=i, lineage=_lin(sf)))]
        # build the lazy per-shard pipelines on the MAIN thread (dataset
        # construction does eager path resolution that is not thread-safe
        # in this environment); only the executions run concurrently. A
        # shard small enough for the in-process plan is extracted and
        # written right here, and hands back its receipts table
        jobs = []
        for i, shard_files in todo:
            # fused read+extract+WRITE: ~detect_batch_size-doc
            # row-group-range items, one task each — the decoded docs
            # never round-trip the object store, and the writer seam
            # makes each task stream its records straight to partitioned
            # parquet (only receipts leave the task; measured −3.2 s at
            # 32 CPUs / 2M docs vs a separate write execution, and the
            # kernel itself runs ~8% faster without plasma pressure)
            w = store.begin_stage_receipts(
                "records", ["rec_kind"], shard=i,
                partition_projections=_REC_PROJECTIONS)
            t0 = time.monotonic()
            recs = extract_records_fused(
                shard_files, gaz, target_rows=cfg.detect_batch_size,
                writer=w)
            jobs.append((i, shard_files, recs, time.monotonic() - t0))
        # shard-execution concurrency adapts to cluster size: at low CPU
        # counts concurrent shard pipelines just contend (each shard has
        # ample internal parallelism), at high counts overlap amortizes
        # per-execution startup
        ncpu = cluster_cpus()
        # 2 concurrent shard executions at 32 CPUs measured best: more
        # thrash each other (each streaming executor assumes the whole
        # cluster), fewer leave startup gaps between serial shards
        workers = min(len(jobs), max(1, ncpu // 16))
        if len(jobs) > 1 and workers > 1:
            # shards execute concurrently (independent Dataset pipelines;
            # the streaming executor interleaves their tasks) — keeps
            # per-shard resume granularity without serializing
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as ex:
                list(ex.map(
                    lambda j: store.commit_stage_receipts(
                        "records", j[2], shard=j[0],
                        lineage=_lin(j[1]), elapsed=j[3]), jobs))
        else:
            for i, shard_files, recs, elapsed in jobs:
                store.commit_stage_receipts("records", recs, shard=i,
                                            lineage=_lin(shard_files),
                                            elapsed=elapsed)
        # the records Dataset view is constructed lazily by run()'s
        # LazyResult — building it here would prefetch every part-file
        # footer on the driver inside the extract stage wall

    # ------------------------------------------------------------------
    def _canonicalize_stage(self, gaz: dict, store: CheckpointStore,
                            resume: bool, in_lin: dict):
        cfg = self.cfg
        res_path = os.path.join(store.root, "resolution.json")
        if resume and os.path.exists(res_path):
            try:
                with open(res_path) as f:
                    raw = json.load(f)
            except (OSError, json.JSONDecodeError):
                raw = {}  # half-written by a killed run: recompute
            if (raw.get("config_hash") == cfg.config_hash()
                    and raw.get("lineage") == in_lin):
                return {s: tuple(v) for s, v in raw["map"].items()}
        # unique unresolved *entity-candidate* surfaces (small by
        # construction; regex detector hits are not entity candidates
        # and must not enter blocking): extract wrote its per-batch
        # unique unresolved NER surfaces as their own tiny 'surface'
        # partition, so this never re-scans the corpus-scale mention
        # partition. The partition is hundreds of KB-sized files; a Ray
        # Dataset execution over it costs ~2-3 s of pure scheduling, so
        # when it is small (bytes-bounded) the driver reads it directly
        # with a multithreaded pyarrow scan instead.
        surf_set: set[str] = set()
        uniq = None  # Dataset of (possibly batch-duplicated) NER surfaces
        force_distributed = False
        files = store.shard_files("records",
                                  path_contains="rec_kind=surface")
        if files and _total_bytes(files) <= _DRIVER_SIDE_READ_BYTES:
            surf_set = set(_driver_read_column(files, "surface"))
        elif files:  # pragma: no cover - extreme cardinality
            uniq = ray.data.read_parquet(files, columns=["surface"])
            # far beyond any plan-A-viable surface set: decide the
            # cutover from BYTES and never pull the values onto the
            # driver just to count them
            force_distributed = (_total_bytes(files)
                                 > _FORCE_DISTRIBUTED_SURFACE_BYTES)
            if not force_distributed:
                for b in uniq.iter_batches(batch_format="pyarrow",
                                           batch_size=65536):
                    surf_set.update(b["surface"].to_pylist())
        uniq_surfaces = list(surf_set)
        if (not force_distributed
                and len(uniq_surfaces) <= _DRIVER_MAX_SURFACES):
            from kgeng.ops.block import candidate_pairs_driver
            from kgeng.ops.canonicalize import build_resolution_from_pairs

            surface_list = ([(s, False) for s in sorted(uniq_surfaces)]
                            + [(s, True) for s in gaz])
            pair_list = candidate_pairs_driver(surface_list, cfg.block)
            tbl = pa.table({
                "a": [p[0] for p in pair_list],
                "b": [p[1] for p in pair_list],
                "jac": pa.array([p[2] for p in pair_list], pa.float64())})
            store.write_stage_table("pairs", tbl,
                                    lineage={"input": "linked",
                                             "path": "driver"})
            resolution = build_resolution_from_pairs(pair_list, gaz,
                                                     cfg.block)
        else:  # distributed fallback (cutover exceeded)
            if uniq is None:
                # surfaces were driver-read (small bytes) but the caller
                # forces the distributed path (e.g. a tiny cutover in
                # tests): rebuild the Dataset from the driver-side set
                uniq = ray.data.from_arrow(
                    pa.table({"surface": sorted(surf_set)}))
            elif force_distributed:
                # the checkpoint partition is only per-BATCH unique;
                # dedup distributed before banding
                uniq = distinct(uniq, ["surface"])
            uniq = uniq.map_batches(
                lambda t: t.append_column(
                    "is_gaz", pa.array([False] * len(t))),
                batch_format="pyarrow")
            gaz_tbl = pa.table({"surface": list(gaz.keys()),
                                "is_gaz": pa.array([True] * len(gaz))})
            surfaces = uniq.union(ray.data.from_arrow(gaz_tbl))
            pairs = candidate_pairs(surfaces, cfg.block)
            store.write_stage("pairs", pairs, lineage={"input": "linked"})
            resolution = build_resolution(store.read_stage("pairs"), gaz,
                                          cfg.block)
        # tmp + atomic rename: a kill mid-dump must never leave a
        # parseable-looking half file (same protocol as the checkpoint
        # stages)
        tmp = res_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"config_hash": cfg.config_hash(),
                       "lineage": in_lin,
                       "map": {s: list(v) for s, v in resolution.items()}},
                      f)
        os.replace(tmp, res_path)
        return resolution

    # ------------------------------------------------------------------
    def _entities_stage(self, gaz: dict, resolution: dict,
                        store: CheckpointStore, resume: bool, in_lin: dict):
        ent_lin = {"input": "triples+resolution", **in_lin}
        if resume and store.is_done("entities", lineage=ent_lin):
            return store.read_stage("entities")
        # eid -> (canon_key, ent_type, surface_forms) — small broadcast
        meta: dict[str, tuple[str, str, list[str]]] = {}
        true_surface = {eid: s for s, (eid, _t) in gaz.items()}
        forms: dict[str, set] = {}
        for surf, (eid, _via) in resolution.items():
            forms.setdefault(eid, set()).add(surf)
        for eid, ts in true_surface.items():
            forms.setdefault(eid, set()).add(ts)
            meta[eid] = (ts.lower(), gaz[ts][1], sorted(forms[eid]))

        # the entity-id universe is read from tiny side partitions, never
        # the triple table: early-emitted triples recorded their ids in
        # the records 'eid' partition, pending (alias-resolved) ones in
        # triples 't_kind=eid'; the union of the two is the set
        from kgeng.checkpoint import _parquet_files

        eid_files = (_parquet_files(
            os.path.join(store.stage_dir("triples"), "t_kind=eid"))
            + store.shard_files("records", path_contains="rec_kind=eid"))
        if _total_bytes(eid_files) <= _DRIVER_SIDE_READ_BYTES:
            # multithreaded driver-side scan beats a whole Ray execution
            # by seconds (same pattern as the canonicalize surface read)
            eid_set = set(_driver_read_column(eid_files, "subj"))
        else:  # pragma: no cover - extreme cardinality
            # per-block unique + driver union (the entity-id set is small
            # by construction; were it not, swap in distinct() + a
            # broadcast-map attach: one groupby shuffle more)
            used = ray.data.read_parquet(eid_files, columns=["subj"]) \
                .map_batches(lambda t: pa.table({"subj": pc.unique(
                    t["subj"].combine_chunks())}), batch_format="pyarrow")
            eid_set = set()
            for b in used.iter_batches(batch_format="pyarrow",
                                       batch_size=65536):
                eid_set.update(b["subj"].to_pylist())
        eids = sorted(eid_set)
        rows = [meta.get(e, ("", "", [])) for e in eids]
        ent_tbl = pa.table({
            "entity_id": pa.array(eids, pa.string()),
            "canon_key": pa.array([r[0] for r in rows], pa.string()),
            "surface_forms": pa.array([r[2] for r in rows],
                                      pa.list_(pa.string())),
            "ent_type": pa.array([r[1] for r in rows], pa.string()),
            "part": pa.array([r[1] for r in rows], pa.string()),
        })
        # driver-resident table: checkpoint without a Ray execution
        store.write_stage_table("entities", ent_tbl, lineage=ent_lin)
        return ray.data.from_arrow(ent_tbl)

    # ------------------------------------------------------------------
    @staticmethod
    def _receipt_triple_count(store: CheckpointStore) -> int | None:
        """Total triple count from write receipts alone (pending partition
        rows + early extract-emitted triple records), no file reads. None
        when receipts are missing (old checkpoints)."""
        try:
            by_part = (store.manifest("triples").get("metrics")
                       or {}).get("rows_by_partition")
            file_rows = store.shard_file_rows("records")
        except (OSError, json.JSONDecodeError):
            return None
        if by_part is None or file_rows is None:
            return None
        return (by_part.get("t_kind=triple", 0)
                + sum(n for p, n in file_rows.items()
                      if "rec_kind=triple" in p))

    # ------------------------------------------------------------------
    @staticmethod
    def _driver_graph_plan(store: CheckpointStore, smart: SmartGraphConfig):
        """Driver plan of the graph export: ``(vertices, edges)`` thunks
        returning ``pa.Table``s built from the checkpointed triple files
        and entities table, or None when the triple files exceed
        ``_DRIVER_SIDE_READ_BYTES`` (sized before any read). Below that
        size three Ray executions (the media-id ``distinct`` shuffle and
        one ``write_parquet`` per collection) cost seconds of scheduling
        for a few MB of output; pyarrow does the same in milliseconds.
        Same projections as the Ray plan (``sink.vertex_table`` /
        ``sink.edge_table``), so both plans write the same rows."""
        from kgeng.checkpoint import _parquet_files

        pending_files = _parquet_files(
            os.path.join(store.stage_dir("triples"), "t_kind=triple"))
        early_files = store.shard_files("records",
                                        path_contains="rec_kind=triple")
        if _total_bytes(pending_files + early_files) \
                > _DRIVER_SIDE_READ_BYTES:
            return None
        held: dict[str, pa.Table] = {}

        def _vertices() -> pa.Table:
            triples = pa.concat_tables([
                _driver_read(pending_files, _TRIPLE_PART_SCHEMA),
                _conf1(_driver_read(early_files, _EARLY_SCHEMA))])
            held["triples"] = triples  # the edges thunk's input
            obj = triples["obj"].combine_chunks()
            media = pc.unique(obj.filter(pc.starts_with(obj, "media://")))
            media = media.take(pc.array_sort_indices(media))
            ents = _driver_read(
                _parquet_files(store.stage_dir("entities")),
                pa.schema([("entity_id", pa.string()),
                           ("ent_type", pa.string())]))
            return pa.concat_tables([
                sink.vertex_table(ents, smart),
                sink.vertex_table(pa.table({
                    "entity_id": media,
                    "ent_type": pa.array(["MEDIA"] * len(media),
                                         pa.string())}), smart)])

        def _edges() -> pa.Table:
            return sink.edge_table(held.pop("triples"), smart)

        return _vertices, _edges

    @staticmethod
    def _media_vertices(triples, smart: SmartGraphConfig):
        def media_rows(batch: pa.Table) -> pa.Table:
            # entity_id only: distinct() drops everything else anyway
            # and the constant ent_type is re-appended after the dedup
            obj = batch["obj"].combine_chunks()
            refs = pc.unique(obj.filter(pc.starts_with(obj, "media://")))
            return pa.table({"entity_id": refs})

        media = triples.map_batches(media_rows, batch_format="pyarrow")
        media = distinct(media, ["entity_id"]).map_batches(
            lambda t: t.append_column(
                "ent_type", pa.array(["MEDIA"] * len(t))),
            batch_format="pyarrow")
        return sink.entities_to_vertices(media, smart)


# cutover between driver-side and distributed canonicalization, in
# unique NER + gazetteer surfaces
_DRIVER_MAX_SURFACES = 2_000_000
# a 'surface' partition beyond this size cannot correspond to a plan-A
# viable surface set (_DRIVER_MAX_SURFACES strings are ~100 MB); go
# straight to the distributed canonicalization without collecting
_FORCE_DISTRIBUTED_SURFACE_BYTES = 512 << 20


def _temp_root() -> str:
    """A fresh checkpoint root for a run given none. Removed by an
    in-process ``atexit`` hook, not when ``run()`` returns: the result's
    lazy Datasets read from it."""
    root = tempfile.mkdtemp(prefix="kgeng-ckpt-")
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    return root


def _total_bytes(files: list[str]) -> int:
    return sum(os.path.getsize(f) for f in files)


def _assign_shards_stable(files: list[str], n_shards: int) -> list[list[str]]:
    """Fragment-stable shard assignment: each input file maps to a shard by
    a hash of its basename, independent of every other file. Adding or
    removing one fragment changes only the lineage of the shard that holds
    it, so a resume recomputes just that shard — positional round-robin
    (``files[i::n]``) would shift every shard's file list and force a full
    re-extract. Slots may come back empty; callers skip them. The returned
    list is indexed by shard id (0..n_shards-1) so ``shard=<i>`` checkpoint
    dirs stay stable across runs."""
    import zlib

    shards: list[list[str]] = [[] for _ in range(n_shards)]
    for f in sorted(files):
        shards[zlib.crc32(os.path.basename(f).encode()) % n_shards].append(f)
    return shards


def _driver_read(files: list[str], schema: pa.Schema) -> pa.Table:
    """``schema``'s columns of small parquet files — driver side, pyarrow
    threaded scan, no Ray execution; an empty table for no files."""
    if not files:
        return schema.empty_table()
    import pyarrow.dataset as pads

    return pads.dataset(files).to_table(columns=schema.names).cast(schema)


def _driver_read_column(files: list[str], column: str) -> list[str]:
    """Unique values of one column across small parquet files — driver
    side, pyarrow threaded scan, no Ray execution."""
    tbl = _driver_read(files, pa.schema([(column, pa.string())]))
    return pc.unique(tbl[column].combine_chunks()).to_pylist()


def _list_parquet_files(path: str) -> list[str]:
    if os.path.isfile(path):
        return [path]
    return sorted(
        os.path.join(path, f) for f in os.listdir(path)
        if f.endswith(".parquet"))
