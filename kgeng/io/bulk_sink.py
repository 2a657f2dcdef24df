"""Document-sink backends beyond parquet: JSONL collections and the HTTP
bulk-POST seam (the reference's ``insert_documents``, general.py:122-136).

At the JSON boundary, optional fields render as ABSENT, not null — the
reference's bulk-POST payload shape ("Null will be inserted" really means
the field is omitted; edge_list.py:31 comment, README.md:101-103).
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.block import BlockAccessor
from ray.data.dataset import MaterializedDataset

from kgeng.config import _DRIVER_SIDE_READ_BYTES
from kgeng.io.graph_files import docs_to_jsonl_rows
from kgeng.ops.mat import block_bytes, pull_blocks


# JSON string escapes for U+0000-U+001F, as ``json.dumps`` writes them,
# and for U+2028/U+2029, which ``str.splitlines`` readers take as breaks
_CONTROL_ESCAPES = [(chr(c), {8: "\\b", 9: "\\t", 10: "\\n", 12: "\\f",
                              13: "\\r"}.get(c, f"\\u{c:04x}"))
                    for c in [*range(0x20), 0x2028, 0x2029]]


def _json_string_body(col: pa.Array) -> pa.Array:
    """Escape ``"``, ``\\``, U+0000-U+001F and U+2028/U+2029 for a JSON
    string literal; all other text (non-ASCII included) is written as
    UTF-8."""
    col = pc.replace_substring(col, "\\", "\\\\")
    col = pc.replace_substring(col, '"', '\\"')
    if pc.any(pc.match_substring_regex(
            col, "[\\x00-\\x1f\\x{2028}\\x{2029}]")).as_py():
        for ch, esc in _CONTROL_ESCAPES:
            col = pc.replace_substring(col, ch, esc)
    return col


def render_jsonl(batch: pa.Table) -> bytes:
    """One JSON object per row, ``\\n``-terminated, null fields ABSENT —
    the lines ``json.dumps(row, separators=(",", ":"))`` writes for
    ``docs_to_jsonl_rows(batch)``, rendered with Arrow kernels instead of
    a per-row loop (non-ASCII other than U+2028/U+2029 stays UTF-8 where
    ``json.dumps`` would write ``\\u`` escapes; both load to the same
    dict). String columns are escaped in place; other columns are
    encoded per value with ``json.dumps``."""
    frags = []
    for name, col in zip(batch.column_names, batch.columns):
        col = col.combine_chunks()
        key = "," + json.dumps(name) + ":"
        if pa.types.is_string(col.type):
            parts = (pa.scalar(key + '"'), _json_string_body(col),
                     pa.scalar('"'))
        else:
            parts = (pa.scalar(key), pa.array(
                [None if v is None else json.dumps(v)
                 for v in col.to_pylist()], pa.string()))
        # ',"name":value', or "" when the value is null (field absent)
        frags.append(pc.fill_null(
            pc.binary_join_element_wise(*parts, ""), ""))
    # "{" + fields minus the first field's leading comma + "}\n". A
    # fill_null + slice rather than null_handling="skip": pyarrow 16's
    # "skip" drops rows whose fields are ALL null instead of emitting ""
    fields = pc.binary_join_element_wise(*frags, "")
    lines = pc.binary_join_element_wise(
        pa.scalar("{"), pc.utf8_slice_codeunits(fields, 1),
        pa.scalar("}\n"), "")
    whole = pc.binary_join(pa.ListArray.from_arrays(
        pa.array([0, len(lines)], pa.int32()), lines), "")
    return whole[0].as_buffer().to_pybytes()


# rows per JSONL part file (the reference's bulk_size)
_BULK_ROWS = 10_000


def _write_bulk(batch: pa.Table, out_dir: str) -> pa.Table:
    """Write one bulk as a part file; returns its receipt (rows, file).

    The name is content-keyed (``sha1`` of the body, as the checkpoint
    part files): the body goes to a temp file first, which is published
    with ``os.link`` (atomic, fails if the name exists) under the first
    free ``part-<sha1>[-k].jsonl``. A byte-identical bulk of the same
    write, or a retried task's rewrite of its bulks, takes the next
    ``-k``; ``write_jsonl_collection`` then drops every part file no
    receipt names, so the files hold each bulk exactly once."""
    body = render_jsonl(batch)
    name = hashlib.sha1(body).hexdigest()[:16]
    tmp = os.path.join(out_dir, f".tmp-{uuid.uuid4().hex}")
    with open(tmp, "wb") as f:
        f.write(body)
    try:
        k = 0
        while True:
            part = f"part-{name}{f'-{k}' if k else ''}.jsonl"
            try:
                os.link(tmp, os.path.join(out_dir, part))
                break
            except FileExistsError:
                k += 1
    finally:
        os.unlink(tmp)
    return pa.table({"rows": pa.array([batch.num_rows], pa.int64()),
                     "file": pa.array([part], pa.string())})


def _writes_in_process(ds: ray.data.Dataset) -> bool:
    """A materialized Dataset of one block of at most
    ``_DRIVER_SIDE_READ_BYTES`` by its metadata: the ``map_batches``
    plan would write it in one task, doing the same serial work."""
    return (isinstance(ds, MaterializedDataset)
            and ds.num_blocks() == 1
            and block_bytes(ds) <= _DRIVER_SIDE_READ_BYTES)


def write_jsonl_collection(ds: ray.data.Dataset, out_dir: str) -> int:
    """Materialize a document Dataset as a directory of JSONL part files
    (one line per document, optional fields absent). Returns row count,
    which equals the lines in the directory: its old part files are
    removed first.

    Bulks of 10,000 rows (the reference bulk size), each rendered by
    ``render_jsonl`` with Arrow kernels and written by ``_write_bulk``.
    A materialized one-block Dataset of at most
    ``_DRIVER_SIDE_READ_BYTES`` (by its block metadata, read before the
    pull: ``import_edge_list``'s driver plan gives such blocks) is pulled
    and written in the calling process, bulk by bulk in row order, with
    no Ray Data execution; anything else is one Ray ``map_batches``. Both
    plans write the same files for such a Dataset."""
    os.makedirs(out_dir, exist_ok=True)
    _remove_parts(out_dir, keep=set())
    if _writes_in_process(ds):
        block = BlockAccessor.for_block(
            pull_blocks(ds, _DRIVER_SIDE_READ_BYTES)[0]).to_arrow()
        receipts = [r for i in range(0, block.num_rows, _BULK_ROWS)
                    for r in _write_bulk(block.slice(i, _BULK_ROWS),
                                         out_dir).to_pylist()]
    else:
        receipts = ds.map_batches(
            _write_bulk, fn_kwargs={"out_dir": out_dir},
            batch_format="pyarrow", batch_size=_BULK_ROWS).take_all()
    # reconcile: a task attempt Ray retried leaves its files behind while
    # only the retry's receipt survives
    _remove_parts(out_dir, keep={r["file"] for r in receipts})
    return sum(r["rows"] for r in receipts)


def _remove_parts(out_dir: str, keep: set[str]) -> None:
    for entry in os.listdir(out_dir):
        if entry.startswith("part-") and entry.endswith(".jsonl") \
                and entry not in keep:
            os.remove(os.path.join(out_dir, entry))


class BulkHttpSink:
    """The ``insert_documents`` seam: POST bulks of documents to
    ``<endpoint>/_api/document/<collection>`` (general.py:117,122-136).

    No network exists in this sandbox, so by default the sink collects
    payload stats only (``dry_run=True``); a deployment passes
    ``dry_run=False`` and a real endpoint. Runs as a terminal
    ``map_batches`` stage — each block POSTs independently, which is the
    parallel-bulk-write the reference faked with immediately-joined
    threads (general.py:132-135)."""

    def __init__(self, endpoint: str, collection: str,
                 auth: tuple[str, str] | None = None,
                 dry_run: bool = True,
                 max_retries: int = 4, backoff_base: float = 0.25):
        self.url = f"{endpoint.rstrip('/')}/_api/document/{collection}"
        self.auth = auth
        self.dry_run = dry_run
        self.max_retries = max_retries
        self.backoff_base = backoff_base

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.dry_run:
            # row count only — never pay the per-row Arrow->Python
            # conversion just to count what batch.num_rows already knows
            return pa.table({
                "posted": pa.array([0], pa.int64()),
                "would_post": pa.array([batch.num_rows], pa.int64()),
            })
        rows = docs_to_jsonl_rows(batch)
        import hashlib
        import time

        import requests

        # idempotency key = bulk content hash: a server that records the
        # key can drop replays of a bulk whose first attempt actually
        # landed (timeouts make success ambiguous); retried bulks resend
        # the SAME key. The reference dies on any failure instead
        # (general.py:118-119) — a non-starter at 10^7 bulks per job.
        payload = json.dumps(rows, separators=(",", ":")).encode()
        idem = hashlib.sha256(payload).hexdigest()[:32]
        headers = {"Content-Type": "application/json",
                   "Idempotency-Key": idem}
        attempt = 0
        while True:
            try:
                # explicit timeouts: a hung server must surface as a
                # RETRYABLE failure, not stall the Ray task forever
                resp = requests.post(self.url, data=payload,
                                     headers=headers, auth=self.auth,
                                     timeout=(10, 120))
                if 200 <= resp.status_code < 300:
                    # the reference checks 202 specifically, but e.g.
                    # waitForSync collections answer 201 — any 2xx means
                    # the documents landed
                    break
                retryable = (resp.status_code >= 500
                             or resp.status_code == 429)
                err = f"bulk POST failed ({resp.status_code}): " \
                      f"{resp.text[:200]}"
            except (requests.ConnectionError,
                    requests.Timeout) as e:  # server hiccup / hang
                retryable, err = True, f"bulk POST error: {e}"
            if not retryable or attempt >= self.max_retries:
                raise RuntimeError(err)
            time.sleep(self.backoff_base * (2 ** attempt))
            attempt += 1
        return pa.table({"posted": pa.array([len(rows)], pa.int64()),
                         "would_post": pa.array([0], pa.int64())})


def post_documents(ds: ray.data.Dataset, endpoint: str, collection: str,
                   auth=None, dry_run: bool = True,
                   bulk_size: int = 10000,
                   max_retries: int = 4,
                   backoff_base: float = 0.25) -> dict:
    """Drive the BulkHttpSink over a Dataset; returns totals."""
    sink = BulkHttpSink(endpoint, collection, auth, dry_run,
                        max_retries=max_retries,
                        backoff_base=backoff_base)
    out = ds.map_batches(sink, batch_format="pyarrow",
                         batch_size=bulk_size, concurrency=4)
    posted = would = 0
    for r in out.take_all():
        posted += r["posted"]
        would += r["would_post"]
    return {"posted": posted, "dry_run_rows": would}
