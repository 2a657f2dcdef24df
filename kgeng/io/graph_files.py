"""Reference-compat graph-file import path (Graphalytics + edge-list).

Re-expresses the reference's line parsers as vectorized Arrow kernels over
line blocks (blocks replace the reference's 10k-line bulks,
``general.py:139-155``):

- comment skipping: first char in {'#', '/', '%'}   (edge_list.py:26)
- field split: ``split(' ', 2)`` — at most 3 fields; a 3rd field keeps any
  further spaces verbatim                            (edge_list.py:28)
- 2 fields -> {_from, _to}; 3 fields -> {_from, _to, weight: "<token>"}
  with the weight kept as a *string*                 (edge_list.py:29-34)
- graphalytics vertex line -> {smart_attr: str(vid), _key: f"{vid}:{vid}"}
                                                      (graphalytics_importer.py:87,93)
- plain ``_id``  = f"{vcoll}/{id}"                    (vertices_generator.py:159-160)
- smart ``_id``  = f"{vcoll}/{id}:{id}"               (vertices_generator.py:153-157)
- edge-list vertices: global exact dedup of src∪dst ids, materialized as
  ``{smart_attr: v}`` docs (the dedup-insert layout of
  vertices_generator.py:132-140), replacing the reference's per-bulk
  O(N)-rescan AQL anti-join (J1) with one unique or one shuffle.

An edge file is read by one of two plans, chosen from its size before any
byte is read:

- the driver plan: a regular, uncompressed file of at most
  ``_DRIVER_SIDE_READ_BYTES`` is read on the driver in chunks that end just
  after a ``\\n``; each chunk is split into lines with ``str.splitlines``
  (the splitter of Ray's ``read_text``) and into fields by the same kernel
  as the Ray plan. The driver hands the fields over with ``from_arrow``
  in ``_DRIVER_PLAN_BLOCKS`` blocks; the ``_id`` projection runs in the
  consumer's first worker stage. The edge-list import parses the file
  once and builds both collections from that one parse (vertices =
  ``pc.unique`` of the endpoints). A 1 MB file then costs tens of
  milliseconds instead of one Ray parse per collection plus a
  256-bucket shuffle;
- the Ray plan: compressed files (``pa.Codec.detect`` on the path, as Ray
  decides), directories and larger files go through ``ray.data.read_text``
  and a distributed vertex dedup.

Both plans return Datasets with the same rows.

Unparsed row order is not preserved within a block (2-field and 3-field rows
are processed as two vectorized sub-tables); nothing in the reference's
semantics depends on intra-bulk order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import PurePath

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from kgeng.config import _DRIVER_SIDE_READ_BYTES

_COMMENT_CHARS = pa.array(["#", "/", "%"])
# driver plan read grain: chunks of this many bytes, extended to the next
# b"\n" (a line break byte never occurs inside a UTF-8 sequence, and no
# splitlines break spans it), so a chunk splits exactly like the file
_READ_CHUNK_BYTES = 1 << 20
# blocks the driver plan hands over: the fewest that ops/graph's
# _bounded_blocks keeps without a repartition. More would add per-block
# tasks and driver-side partial reduces to every analytics round; the
# Ray plan reads more blocks because its parse runs per block
_DRIVER_PLAN_BLOCKS = 8


@dataclass(frozen=True)
class CompatGraphConfig:
    """The subset of the reference's DatabaseInfo that shapes documents."""

    vertex_coll: str = "vertices"
    edge_coll: str = "edges"
    smart_attribute: str = "smartProp"
    is_smart: bool = True


# ------------------------------------------------------------------ parsing

_EMPTY_SPLIT = pa.table({"weight": pa.array([], pa.string()),
                         "_src_id": pa.array([], pa.string()),
                         "_dst_id": pa.array([], pa.string())})


def _split_edge_lines(batch: pa.Table) -> pa.Table:
    """Vectorized M1/M2 edge-line split. Input column: ``text``; output
    (weight, _src_id, _dst_id), weight null on 2-field lines."""
    col = batch["text"].combine_chunks()  # always a plain Array
    # the reference's file_reader strips every line (general.py:150)
    col = pc.utf8_trim_whitespace(col)
    nonempty = pc.greater(pc.utf8_length(col), 0)
    col = col.filter(nonempty)
    first = pc.utf8_slice_codeunits(col, 0, 1)
    keep = pc.invert(pc.is_in(first, value_set=_COMMENT_CHARS))
    col = col.filter(keep)
    split = pc.split_pattern(col, " ", max_splits=2)
    lengths = pc.list_value_length(split).to_numpy(zero_copy_only=False)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    values = pc.list_flatten(split)

    def _ids(starts: np.ndarray) -> pa.Array:
        return pc.take(values, pa.array(starts, pa.int64()))

    out = []
    starts = offsets[:-1]
    for want3 in (False, True):
        mask = lengths == 3 if want3 else lengths == 2
        if not mask.any():
            continue
        s = starts[mask]
        out.append(pa.table({
            "weight": (_ids(s + 2) if want3
                       else pa.nulls(int(mask.sum()), pa.string())),
            "_src_id": _ids(s),
            "_dst_id": _ids(s + 1),
        }))
    return pa.concat_tables(out) if out else _EMPTY_SPLIT


def _with_vertex_ids(split: pa.Table, vcoll: str, smart: bool) -> pa.Table:
    """(weight, _src_id, _dst_id) -> (_from, _to, weight, _src_id,
    _dst_id): plain ``_id`` = ``vcoll/id``, smart = ``vcoll/id:id``."""

    def _vid(ids) -> pa.Array:
        if smart:
            return pc.binary_join_element_wise(
                pa.scalar(f"{vcoll}/"), ids, pa.scalar(":"), ids, "")
        return pc.binary_join_element_wise(pa.scalar(f"{vcoll}/"), ids, "")

    return split.add_column(0, "_from", _vid(split["_src_id"])) \
        .add_column(1, "_to", _vid(split["_dst_id"]))


def _parse_edge_lines(batch: pa.Table, vcoll: str, smart: bool) -> pa.Table:
    """Vectorized M1/M2 edge-line parse. Input column: ``text``."""
    return _with_vertex_ids(_split_edge_lines(batch), vcoll, smart)


def _reads_on_driver(path: str) -> bool:
    """The plan decision, sized before any read: a regular file that Ray
    would read uncompressed (its rule: ``pa.Codec.detect`` on the path,
    plus the ``.snappy`` suffix) of at most ``_DRIVER_SIDE_READ_BYTES``."""
    if not os.path.isfile(path) \
            or os.path.getsize(path) > _DRIVER_SIDE_READ_BYTES:
        return False
    try:
        pa.Codec.detect(path)
        return False
    except (ValueError, TypeError):
        return PurePath(path).suffix != ".snappy"


def _line_chunks(path: str):
    """The file's bytes in chunks of ~``_READ_CHUNK_BYTES`` that each end
    just after a ``\\n`` (the last one at EOF)."""
    with open(path, "rb") as f:
        tail = b""
        while buf := f.read(_READ_CHUNK_BYTES):
            buf = tail + buf
            cut = buf.rfind(b"\n") + 1
            if cut:
                yield buf[:cut]
            tail = buf[cut:]
        if tail:
            yield tail


def _split_edge_file(path: str) -> list[pa.Table]:
    """Driver plan of the parse: ``_split_edge_lines`` per chunk, each
    chunk split into lines exactly as Ray's ``read_text`` does
    (``decode().splitlines()``), the result cut into
    ``_DRIVER_PLAN_BLOCKS`` zero-copy slices. The blank lines
    ``read_text`` drops are dropped by the kernel's trim, which strips
    every in-line character ``str.strip`` does."""
    split = pa.concat_tables([
        _split_edge_lines(pa.table({"text": pa.array(
            chunk.decode("utf-8").splitlines(), pa.string())}))
        for chunk in _line_chunks(path)] or [_EMPTY_SPLIT])
    step = max(1, -(-split.num_rows // _DRIVER_PLAN_BLOCKS))
    return [split.slice(i, step)
            for i in range(0, split.num_rows, step)] or [split]


def _driver_edges(blocks: list[pa.Table], vcoll: str,
                  smart: bool) -> ray.data.Dataset:
    """The driver plan's parsed Dataset. Only the split columns go into
    the object store; the ``_id`` projection runs in the first worker
    stage (fused into the consumer's map), so the driver ships and maps
    under half the bytes of the full parse."""
    return ray.data.from_arrow(blocks).map_batches(
        lambda t: _with_vertex_ids(t, vcoll, smart), batch_format="pyarrow")


def read_edge_file(path: str, cfg: CompatGraphConfig,
                   smart_ids: bool | None = None) -> ray.data.Dataset:
    """Edge file -> Dataset(_from, _to, weight?, _src_id, _dst_id).

    ``smart_ids`` defaults to ``cfg.is_smart``: the graphalytics importer
    uses smart ``_id``s (graphalytics_importer.py:131), the edge-list
    importer uses plain ones (edge_list.py:44).

    A regular, uncompressed file of at most ``_DRIVER_SIDE_READ_BYTES``
    is parsed on the driver (bounded chunks, see the module docstring)
    and handed over via ``ray.data.from_arrow``; anything else is parsed
    by ``map_batches`` over ``ray.data.read_text``. Same rows either way.
    """
    smart = cfg.is_smart if smart_ids is None else smart_ids
    vcoll = cfg.vertex_coll
    if _reads_on_driver(path):
        return _driver_edges(_split_edge_file(path), vcoll, smart)
    # split large files into many read blocks so the parse parallelizes
    # (read_text alone yields ~one block per file)
    size = os.path.getsize(path) if os.path.isfile(path) else 0
    nblocks = max(16, min(256, size // (4 << 20))) if size else None
    lines = ray.data.read_text(path, override_num_blocks=nblocks)
    return lines.map_batches(
        lambda t: _parse_edge_lines(t, vcoll, smart),
        batch_format="pyarrow")


def edge_docs(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Drop the internal id side-columns, keeping the document layout."""
    return edges.select_columns(["_from", "_to", "weight"])


def read_graphalytics_vertices(path: str,
                               cfg: CompatGraphConfig) -> ray.data.Dataset:
    """``.v`` file -> vertex docs {smart_attr: str(vid), _key: "vid:vid"}."""
    attr = cfg.smart_attribute

    def project(batch: pa.Table) -> pa.Table:
        ids = batch["text"].combine_chunks()
        ids = ids.filter(pc.greater(pc.utf8_length(ids), 0))
        return pa.table({
            attr: ids,
            "_key": pc.binary_join_element_wise(ids, pa.scalar(":"), ids, ""),
        })

    return ray.data.read_text(path).map_batches(
        project, batch_format="pyarrow")


def _endpoint_ids(batch: pa.Table) -> pa.Array:
    """Distinct ``_src_id`` ∪ ``_dst_id`` of a parsed block, in first-seen
    order (deterministic for a given block)."""
    return pc.unique(pa.concat_arrays([
        batch["_src_id"].combine_chunks(),
        batch["_dst_id"].combine_chunks()]))


def edge_list_vertices(edges: ray.data.Dataset,
                       cfg: CompatGraphConfig) -> ray.data.Dataset:
    """Global exact dedup of edge endpoints -> {smart_attr: v} docs (the
    Ray plan; the driver plan is one ``_endpoint_ids`` over the parse).

    Replaces J1's per-bulk AQL anti-join (vertices_generator.py:123-146)
    with per-block partial dedup + one groupby shuffle on uniform int-like
    string keys (no skew)."""
    from kgeng.ops.join import _bucket_ids

    def endpoints(batch: pa.Table) -> pa.Table:
        ids = pa.table({"id": _endpoint_ids(batch)})
        # coarse hash bucket: a groupby over 256 buckets with C-level
        # in-bucket dedup beats a sort-shuffle over millions of distinct
        # string keys by an order of magnitude
        return ids.append_column("bucket",
                                 pa.array(_bucket_ids(ids, "id", 256)))

    uniq = edges.map_batches(endpoints, batch_format="pyarrow")
    attr = cfg.smart_attribute
    return uniq.groupby("bucket").map_groups(
        lambda g: pa.table({attr: pc.unique(g["id"].combine_chunks())}),
        batch_format="pyarrow")


# ------------------------------------------------------------ file plumbing

def graphalytics_files(directory: str) -> tuple[str, str, str]:
    """<dir>/<basename>.{v,e,properties} (graphalytics_importer.py:12-23)."""
    name = PurePath(directory).name
    return (os.path.join(directory, name + ".v"),
            os.path.join(directory, name + ".e"),
            os.path.join(directory, name + ".properties"))


def read_properties(path: str, prop: str) -> int:
    """Scrape ``.vertices = N`` / ``.edges = M``
    (graphalytics_importer.py:26-46)."""
    key = {"num_vertices": ".vertices = ", "num_edges": ".edges = "}[prop]
    with open(path) as f:
        contents = f.read()
    pos = contents.index(key) + len(key)
    return int(contents[pos:].split("\n", 1)[0].strip())


# ------------------------------------------------------------ JSON boundary

def docs_to_jsonl_rows(batch: pa.Table) -> list[dict]:
    """Render docs with *absent* (not null) optional fields — the
    reference's bulk-POST payload shape (weight absent when unweighted,
    edge_list.py:31 comment)."""
    rows = []
    for row in batch.to_pylist():
        rows.append({k: v for k, v in row.items() if v is not None})
    return rows


def import_graphalytics(directory: str, cfg: CompatGraphConfig):
    """Full compat pipeline for a graphalytics dir: returns
    (vertices_ds, edges_ds) with vertices materialized first (the
    reference's ordering invariant, graphalytics_importer.py:173-175)."""
    v_path, e_path, _props = graphalytics_files(directory)
    vertices = read_graphalytics_vertices(v_path, cfg)
    edges = edge_docs(read_edge_file(e_path, cfg, smart_ids=True))
    return vertices, edges


def import_edge_list(path: str, cfg: CompatGraphConfig):
    """Edge-list compat pipeline: returns (vertices_ds, edges_ds); vertex
    set is the deduped endpoints (edge_list.py:36-38 per-bulk set + J1
    global dedup).

    Driver plan (see ``read_edge_file``): the file is parsed once and
    both collections come from that parse, vertices as one ``pc.unique``
    of the endpoints; both are handed over via ``ray.data.from_arrow``. Ray
    plan: two lazy Datasets over one ``read_edge_file``, the vertex dedup
    collapsed into one shuffle (``edge_list_vertices``)."""
    if _reads_on_driver(path):
        blocks = _split_edge_file(path)
        vertices = pa.table({
            cfg.smart_attribute: _endpoint_ids(pa.concat_tables(blocks))})
        return (ray.data.from_arrow(vertices),
                edge_docs(_driver_edges(blocks, cfg.vertex_coll, False)))
    parsed = read_edge_file(path, cfg, smart_ids=False)
    vertices = edge_list_vertices(parsed, cfg)
    return vertices, edge_docs(parsed)
