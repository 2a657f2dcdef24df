"""Per-stage / per-partition checkpointing with lineage + metrics.

Stage boundary = a parquet directory plus a JSON manifest and a ``_SUCCESS``
sidecar::

    out/<stage>/                     # stage-level checkpoint
      *.parquet
      _MANIFEST.json                 # config hash, rows, wall time, lineage
      _SUCCESS
    out/<stage>/shard=<k>/           # sharded stage: per-partition manifests
      *.parquet
      _MANIFEST.json
      _SUCCESS

On resume, a stage (or shard) whose ``_SUCCESS`` exists *and* whose manifest
config hash matches is read back with ``read_parquet`` instead of recomputed
— the Ray-idiomatic strengthening of the reference's graph-exists idempotence
gate (``graphalytics_importer.py:168-171``) to per-partition granularity.

Writes are atomic: data lands in ``<dir>.tmp`` and is renamed into place
before ``_SUCCESS`` is written, so a killed run never leaves a half-written
checkpoint that looks complete.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pyarrow as pa
import ray.data

# Concurrency guard: ray's path_util imports fsspec.implementations.http on
# every write; in this env that module fails mid-import (no aiohttp), which
# is fine single-threaded (ModuleNotFoundError is caught) but racy when two
# Dataset executions start concurrently (the half-initialized module raises
# a plain ImportError that ray does not catch). Pre-install a stub with a
# sentinel HTTPFileSystem class so the import always succeeds and the
# isinstance check correctly returns False.
try:  # pragma: no cover - environment-dependent
    import fsspec.implementations.http  # noqa: F401
except ImportError:  # pragma: no cover
    import sys as _sys
    import types as _types

    _stub = _types.ModuleType("fsspec.implementations.http")

    class _NoHTTPFileSystem:  # never instantiated; isinstance() -> False
        pass

    _stub.HTTPFileSystem = _NoHTTPFileSystem
    _sys.modules["fsspec.implementations.http"] = _stub


class CheckpointStore:
    def __init__(self, root: str, config_hash: str):
        self.root = root
        self.config_hash = config_hash
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------ paths
    def stage_dir(self, stage: str, shard: int | None = None) -> str:
        d = os.path.join(self.root, stage)
        if shard is not None:
            d = os.path.join(d, f"shard={shard:05d}")
        return d

    def is_done(self, stage: str, shard: int | None = None,
                lineage: dict | None = None) -> bool:
        """A stage counts as done only if its _SUCCESS + manifest exist,
        the config hash matches, AND (when ``lineage`` is given) the
        manifest's recorded lineage equals the caller's expected lineage.
        Without the lineage check, rerunning the same checkpoint root with
        a different shard layout or input file set would silently mix
        stale and fresh shards."""
        d = self.stage_dir(stage, shard)
        success = os.path.join(d, "_SUCCESS")
        manifest = os.path.join(d, "_MANIFEST.json")
        if not (os.path.exists(success) and os.path.exists(manifest)):
            return False
        try:
            with open(manifest) as f:
                meta = json.load(f)
        except (OSError, json.JSONDecodeError):
            return False
        if meta.get("config_hash") != self.config_hash:
            return False
        if lineage is not None and meta.get("lineage") != lineage:
            return False
        return True

    # ------------------------------------------------------------ write
    def write_stage(self, stage: str, ds: ray.data.Dataset,
                    shard: int | None = None,
                    lineage: dict | None = None,
                    metrics: dict | None = None,
                    partition_cols: list[str] | None = None,
                    partition_projections: dict | None = None) -> str:
        d = self.stage_dir(stage, shard)
        tmp = d + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        if os.path.exists(d):
            shutil.rmtree(d)
        t0 = time.monotonic()
        if partition_cols:
            part_counts = _write_partitioned(ds, tmp, partition_cols,
                                             partition_projections)
        else:
            ds.write_parquet(tmp)
            part_counts = None
        return self._finalize_stage(stage, shard, d, tmp, part_counts,
                                    time.monotonic() - t0, lineage, metrics)

    def begin_stage_receipts(self, stage: str, partition_cols: list[str],
                             shard: int | None = None,
                             partition_projections: dict | None = None
                             ) -> "PartitionWriter":
        """First half of the FUSED-write protocol: clear the stage, make
        its tmp dir, and return a :class:`PartitionWriter` aimed at it.
        Hand the writer to a fused producer (``extract_records_fused`` /
        ``emit_triples_fused`` ``writer=``) so the producer's own tasks
        write the part files in-process — the corpus-scale stream never
        enters the object store; only (part, path, rows) receipts flow
        back. Call on the MAIN thread (Dataset construction is not
        thread-safe in this environment); the lazy execution itself may
        run from a worker thread via ``commit_stage_receipts``."""
        assert len(partition_cols) == 1, "single partition column supported"
        d = self.stage_dir(stage, shard)
        tmp = d + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        if os.path.exists(d):
            shutil.rmtree(d)
        os.makedirs(tmp, exist_ok=True)
        return PartitionWriter(tmp, partition_cols[0],
                               partition_projections)

    def commit_stage_receipts(self, stage: str,
                              receipts_ds: pa.Table | ray.data.Dataset,
                              shard: int | None = None,
                              lineage: dict | None = None,
                              metrics: dict | None = None,
                              elapsed: float = 0.0) -> str:
        """Second half: drive the receipts Dataset (this is where the
        fused producer actually executes; a small plan hands over the
        receipts table it already wrote in process), then the same
        atomic tmp-dir rename + manifest + _SUCCESS protocol as
        ``write_stage``. ``elapsed`` is the time the producer call
        itself took (all of the work on the in-process path), added to
        the manifest's ``write_wall_sec``."""
        d = self.stage_dir(stage, shard)
        tmp = d + ".tmp"
        t0 = time.monotonic()
        part_counts = _collect_receipts(receipts_ds)
        return self._finalize_stage(stage, shard, d, tmp, part_counts,
                                    elapsed + time.monotonic() - t0,
                                    lineage, metrics)

    def write_stage_receipts(self, stage: str, make_receipts,
                             partition_cols: list[str],
                             shard: int | None = None,
                             lineage: dict | None = None,
                             metrics: dict | None = None,
                             partition_projections: dict | None = None
                             ) -> str:
        """One-shot fused write: ``make_receipts(writer)`` returns the
        receipt rows (a Dataset or a table); see
        :meth:`begin_stage_receipts`."""
        writer = self.begin_stage_receipts(stage, partition_cols, shard,
                                           partition_projections)
        t0 = time.monotonic()
        receipts = make_receipts(writer)
        return self.commit_stage_receipts(
            stage, receipts, shard=shard, lineage=lineage, metrics=metrics,
            elapsed=time.monotonic() - t0)

    def _seal_stage_dir(self, d: str, stage: str, shard: int | None,
                        rows: int, n_files: int, wall: float,
                        lineage: dict | None,
                        metrics: dict | None) -> str:
        """THE manifest + _SUCCESS protocol — every stage writer funnels
        through here so the checkpoint format cannot fork."""
        with open(os.path.join(d, "_MANIFEST.json"), "w") as f:
            json.dump({
                "stage": stage,
                "shard": shard,
                "config_hash": self.config_hash,
                "rows": rows,
                "files": n_files,
                "write_wall_sec": round(wall, 3),
                "lineage": lineage or {},
                "metrics": metrics or {},
            }, f, indent=1)
        with open(os.path.join(d, "_SUCCESS"), "w") as f:
            f.write("")
        return d

    def _finalize_stage(self, stage: str, shard: int | None, d: str,
                        tmp: str, part_counts, wall: float,
                        lineage: dict | None, metrics: dict | None) -> str:
        # an all-empty dataset writes no files at all — still checkpoint
        # an empty stage dir so the rename + manifest below succeed
        os.makedirs(tmp, exist_ok=True)
        metrics = dict(metrics or {})
        if part_counts is not None:
            # row counts come back from the write tasks themselves — no
            # driver-side footer-read pass over hundreds of part files
            n_files = len(part_counts)
            rows = sum(part_counts.values())
            by_part: dict[str, int] = {}
            for (part, _path), n in part_counts.items():
                by_part[part] = by_part.get(part, 0) + n
            metrics["rows_by_partition"] = by_part
            # per-file receipts (stage-dir-relative): downstream fused
            # readers plan row-group ranges from these instead of
            # re-reading every part file's footer on the driver
            metrics["file_rows"] = {
                os.path.relpath(path, tmp): n
                for (_part, path), n in part_counts.items()}
        else:
            files = _parquet_files(tmp)
            n_files = len(files)
            rows = _count_rows(files)
        os.rename(tmp, d)
        return self._seal_stage_dir(d, stage, shard, rows, n_files, wall,
                                    lineage, metrics)

    def write_stage_table(self, stage: str, table,
                          shard: int | None = None,
                          lineage: dict | None = None,
                          metrics: dict | None = None) -> str:
        """Checkpoint a DRIVER-RESIDENT pyarrow table directly (atomic
        tmp-dir rename + manifest + _SUCCESS, like ``write_stage``) —
        without spinning up a whole Ray Dataset execution just to write
        a table the driver already holds (pairs, entities: each such
        execution costs ~0.3-0.5 s of fixed per-run time)."""
        import pyarrow.parquet as pq

        d = self.stage_dir(stage, shard)
        tmp = d + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        if os.path.exists(d):
            shutil.rmtree(d)
        os.makedirs(tmp)
        t0 = time.monotonic()
        pq.write_table(table, os.path.join(tmp, "part-00000.parquet"))
        wall = time.monotonic() - t0
        os.rename(tmp, d)
        return self._seal_stage_dir(d, stage, shard, table.num_rows, 1,
                                    wall, lineage, metrics)

    # ------------------------------------------------------------ read
    def read_stage(self, stage: str, shard: int | None = None,
                   columns: list[str] | None = None) -> ray.data.Dataset:
        return ray.data.read_parquet(self.stage_dir(stage, shard),
                                     columns=columns)

    def read_stage_partition(self, stage: str, partition: str,
                             columns: list[str] | None = None,
                             shard: int | None = None,
                             schema=None) -> ray.data.Dataset:
        """Read one hive partition (e.g. 't_kind=triple') of a stage,
        optionally column-pruned. Explicit file list, so the partition
        column is NOT re-inferred into the result when ``columns`` is
        given.

        A partition that was never written (a degenerate corpus can yield
        zero triples / zero entity ids, so no ``t_kind=...`` files exist)
        yields an EMPTY dataset with the caller's ``schema`` instead of
        crashing ``read_parquet([])``."""
        base = os.path.join(self.stage_dir(stage, shard), partition)
        files = _parquet_files(base)
        if not files:
            if schema is None:
                raise FileNotFoundError(
                    f"no parquet files under {base} and no fallback schema")
            empty = pa.Table.from_pylist([], schema=schema)
            if columns:
                empty = empty.select(columns)
            return ray.data.from_arrow(empty)
        return ray.data.read_parquet(files, columns=columns)

    def shard_files(self, stage: str,
                    path_contains: str | None = None) -> list[str]:
        """Parquet files across all shards; ``path_contains`` filters by a
        path component (e.g. a hive partition like 'rec_kind=mention')."""
        base = os.path.join(self.root, stage)
        files = []
        for d in sorted(os.listdir(base)):
            if not d.startswith("shard="):
                continue
            files.extend(_parquet_files(os.path.join(base, d)))
        if path_contains is not None:
            opts = ((path_contains,) if isinstance(path_contains, str)
                    else tuple(path_contains))
            files = [f for f in files if any(p in f for p in opts)]
        return files

    def shard_file_rows(self, stage: str) -> dict[str, int] | None:
        """Absolute path -> row count for every part file of a sharded
        stage, assembled from the per-shard manifests' ``file_rows``
        receipts (written by ``write_stage``'s partitioned path). Returns
        ``None`` when any shard manifest lacks receipts (pre-receipt
        checkpoint) — callers fall back to footer reads."""
        base = os.path.join(self.root, stage)
        out: dict[str, int] = {}
        for dname in sorted(os.listdir(base)):
            if not dname.startswith("shard="):
                continue
            try:
                with open(os.path.join(base, dname,
                                       "_MANIFEST.json")) as f:
                    meta = json.load(f)
            except (OSError, json.JSONDecodeError):
                return None
            fr = (meta.get("metrics") or {}).get("file_rows")
            if fr is None:
                return None
            for rel, n in fr.items():
                out[os.path.join(base, dname, rel)] = n
        return out

    def read_all_shards(self, stage: str,
                        path_contains: str | None = None,
                        columns: list[str] | None = None,
                        schema=None) -> ray.data.Dataset:
        # explicit file list: a list of directories is not portable across
        # pyarrow dataset versions (and skips _MANIFEST/_SUCCESS sidecars)
        files = self.shard_files(stage, path_contains)
        if not files:
            # a record kind that never occurred (degenerate corpus) has no
            # partition files; surface an EMPTY dataset, not a read error
            if schema is None:
                raise FileNotFoundError(
                    f"no parquet files for stage {stage!r} "
                    f"(filter {path_contains!r}) and no fallback schema")
            empty = pa.Table.from_pylist([], schema=schema)
            if columns:
                empty = empty.select(columns)
            return ray.data.from_arrow(empty)
        return ray.data.read_parquet(files, columns=columns)

    def manifest(self, stage: str, shard: int | None = None) -> dict:
        with open(os.path.join(self.stage_dir(stage, shard),
                               "_MANIFEST.json")) as f:
            return json.load(f)

    def manifests(self) -> list[dict]:
        """All manifests under the store — the job-status surface
        (the analogue of the reference's Pregel status polling,
        ``start_Pregel.py:60-80``)."""
        out = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            if "_MANIFEST.json" in filenames:
                with open(os.path.join(dirpath, "_MANIFEST.json")) as f:
                    out.append(json.load(f))
        return out


class PartitionWriter:
    """Picklable per-task hive-partition writer: splits an Arrow table by
    ONE partition column with vectorized filters and writes one
    content-keyed file per partition value, returning a receipts table
    of (part, path, rows).

    Filenames are hashes of the part's FULL content (its Arrow IPC
    serialization), so a retried task overwrites its own output instead
    of duplicating it, while two distinct blocks can never map to the
    same path (a first-cell+count signature could collide when one doc's
    records span multiple full batches). Two blocks with byte-identical
    rows do collapse to one file — impossible for records carrying
    (doc_id, span_idx, offset) provenance, and harmless for the 'surface'
    / 'eid' side partitions (per-batch unique sets that are unioned and
    deduped downstream, so collapsing duplicates is a free dedup). The
    scratch file each writer renames from is suffixed with a uuid so two
    tasks that DO produce identical content never race on the same tmp
    path (observed: concurrent identical 'eid' blocks — writer A renamed
    the tmp file writer B had just re-created, then B's rename ENOENTed).

    100-TB note: handing this to a FUSED producer task (extract/resolve
    ``writer=`` seam) means the corpus-scale record stream goes straight
    from the kernel to partitioned parquet on local disk — it never
    enters the object store at all; only the tiny receipts do. Measured
    on the 2M-doc bench at 32 CPUs: the separate write execution cost
    ~3.2 s of extra wall AND slowed the extract kernel itself ~8% via
    plasma memory-bandwidth pressure."""

    def __init__(self, out_dir: str, col: str,
                 projections: dict | None = None):
        self.out_dir = out_dir
        self.col = col
        self.projections = projections or {}

    @staticmethod
    def _content_sig(part) -> str:
        import hashlib

        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, part.schema) as w:
            w.write_table(part.combine_chunks())
        return hashlib.sha1(sink.getvalue()).hexdigest()[:16]

    def __call__(self, batch):
        import uuid

        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        empty = pa.table({"part": pa.array([], pa.string()),
                          "path": pa.array([], pa.string()),
                          "rows": pa.array([], pa.int64())})
        if len(batch) == 0:
            return empty
        col = self.col
        parts, paths, written = [], [], []
        for val in pc.unique(batch[col].combine_chunks()).to_pylist():
            part = batch.filter(pc.equal(batch[col], val))
            if val in self.projections:
                # per-partition projection: drop columns meaningless for
                # this record kind (they would encode as 10^7 empty strings)
                part = part.select(self.projections[val])
            else:
                part = part.drop_columns([col])
            d = os.path.join(self.out_dir, f"{col}={val}")
            os.makedirs(d, exist_ok=True)
            path = os.path.join(d, f"part-{self._content_sig(part)}.parquet")
            tmp_path = f"{path}.{uuid.uuid4().hex}.tmp"
            pq.write_table(part, tmp_path, row_group_size=65536)
            os.replace(tmp_path, path)
            parts.append(f"{col}={val}")
            paths.append(path)
            written.append(len(part))
        return pa.table({"part": pa.array(parts, pa.string()),
                         "path": pa.array(paths, pa.string()),
                         "rows": pa.array(written, pa.int64())})


def _collect_receipts(receipts) -> dict[tuple[str, str], int]:
    """Fold (part, path, rows) receipt rows into a dict: a table a fused
    producer already ran in this process, or a receipts-producing
    Dataset, which this drives. A retried task overwrites its
    content-keyed path, so duplicate receipts collapse via the dict."""
    out: dict[tuple[str, str], int] = {}
    batches = ([receipts] if isinstance(receipts, pa.Table)
               else receipts.iter_batches(batch_size=None,
                                          batch_format="pyarrow"))
    for b in batches:
        for part, path, rows in zip(b["part"].to_pylist(),
                                    b["path"].to_pylist(),
                                    b["rows"].to_pylist()):
            out[(part, path)] = rows
    return out


def _write_partitioned(ds: ray.data.Dataset, out_dir: str,
                       partition_cols: list[str],
                       projections: dict | None = None
                       ) -> dict[tuple[str, str], int]:
    """Hive-partitioned write of an arbitrary Dataset via
    :class:`PartitionWriter` map tasks (see its docstring for the
    content-keyed naming and idempotence contract)."""
    assert len(partition_cols) == 1, "single partition column supported"
    os.makedirs(out_dir, exist_ok=True)
    writer = PartitionWriter(out_dir, partition_cols[0], projections)
    return _collect_receipts(
        ds.map_batches(writer, batch_format="pyarrow"))


def _parquet_files(root: str) -> list[str]:
    out = []
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            if f.endswith(".parquet"):
                out.append(os.path.join(dirpath, f))
    return sorted(out)


def _count_rows(files: list[str]) -> int:
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(f).num_rows for f in files)
