"""Reference-compat import path: exact-match tests against the oracle."""

import os

from kgeng.io.graph_files import (CompatGraphConfig, docs_to_jsonl_rows,
                                  edge_docs, edge_list_vertices,
                                  graphalytics_files, import_edge_list,
                                  import_graphalytics, read_edge_file,
                                  read_graphalytics_vertices, read_properties)
from tests import oracle

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")
GA_DIR = os.path.join(FIX, "graphalytics", "tiny")
EL = os.path.join(FIX, "edge_list", "comments.txt")
CFG = CompatGraphConfig()


def _doc_set(rows):
    return {tuple(sorted(r.items())) for r in rows}


def test_properties_reader():
    _v, _e, props = graphalytics_files(GA_DIR)
    assert read_properties(props, "num_vertices") == 4
    assert read_properties(props, "num_edges") == 3


def test_graphalytics_vertices_exact():
    v_path, _e, _p = graphalytics_files(GA_DIR)
    ds = read_graphalytics_vertices(v_path, CFG)
    got = _doc_set(ds.take_all())
    want = _doc_set(oracle.graphalytics_vertex_docs(
        oracle.file_lines(v_path), CFG.smart_attribute))
    assert got == want


def test_graphalytics_edges_exact():
    _v, e_path, _p = graphalytics_files(GA_DIR)
    ds = edge_docs(read_edge_file(e_path, CFG, smart_ids=True))
    got = _doc_set(docs_to_jsonl_rows_from_ds(ds))
    want_edges, _ = oracle.parse_edge_lines(
        oracle.file_lines(e_path), CFG.vertex_coll, smart=True)
    assert got == _doc_set(want_edges)


def test_edge_list_exact_with_comments_and_token_weights():
    ds_v, ds_e = import_edge_list(EL, CFG)
    got_e = _doc_set(docs_to_jsonl_rows_from_ds(ds_e))
    want_edges, want_vids = oracle.parse_edge_lines(
        oracle.file_lines(EL), CFG.vertex_coll, smart=False)
    assert got_e == _doc_set(want_edges)
    # weight 'heavy' preserved verbatim as a string; 2-field edge has NO
    # weight key at the JSON boundary (absent, not null)
    flat = docs_to_jsonl_rows_from_ds(ds_e)
    by_from = {r["_from"]: r for r in flat}
    assert by_from["vertices/3"]["weight"] == "heavy"
    assert "weight" not in by_from["vertices/2"]
    # vertex set = deduped endpoints in the dedup-insert layout
    got_v = _doc_set(ds_v.take_all())
    want_v = _doc_set(oracle.dedup_insert_vertex_docs(
        want_vids, CFG.smart_attribute))
    assert got_v == want_v


def test_import_graphalytics_pipeline():
    ds_v, ds_e = import_graphalytics(GA_DIR, CFG)
    assert ds_v.count() == 4
    assert ds_e.count() == 3
    # smart _id format on the edge path: vertices/<id>:<id>
    rows = docs_to_jsonl_rows_from_ds(ds_e)
    assert {r["_from"] for r in rows} == {"vertices/123:123", "vertices/43:43"}
    assert all(":" in r["_to"].split("/", 1)[1] for r in rows)


def test_weight_with_spaces_kept_verbatim(tmp_path):
    """split(' ', 2): anything after the second space is ONE weight token."""
    p = tmp_path / "spaces.txt"
    p.write_text("1 2 a b c\n")
    _v, ds_e = import_edge_list(str(p), CFG)
    rows = docs_to_jsonl_rows_from_ds(ds_e)
    assert rows[0]["weight"] == "a b c"
    want, _ = oracle.parse_edge_lines(["1 2 a b c"], CFG.vertex_coll, False)
    assert rows[0] == want[0]


def docs_to_jsonl_rows_from_ds(ds):
    import pyarrow as pa

    out = []
    for batch in ds.iter_batches(batch_format="pyarrow"):
        out.extend(docs_to_jsonl_rows(batch))
    return out


def test_trailing_whitespace_stripped(tmp_path):
    """file_reader strips lines (general.py:150): 'a b ' is a 2-field
    edge, not a 3-field edge with an empty weight."""
    p = tmp_path / "ws.txt"
    p.write_text("a b \n c d\n\te f\t\n")
    _v, ds_e = import_edge_list(str(p), CFG)
    rows = docs_to_jsonl_rows_from_ds(ds_e)
    assert all("weight" not in r for r in rows)
    assert {(r["_from"], r["_to"]) for r in rows} == {
        ("vertices/a", "vertices/b"), ("vertices/c", "vertices/d"),
        ("vertices/e", "vertices/f")}


# ------------------------------------------------- driver vs Ray plan parity

# every line-splitting hazard of read_text's ``splitlines``: CRLF, a lone
# CR, \v / \f / \x1c / U+2028 breaks, blank and whitespace-only lines,
# all three comment chars, a tab inside an id, a weight with spaces, ids
# holding '"', '\' and non-ASCII, a duplicate edge, a '#' past the first
# char, and no newline at EOF
AWKWARD = ("# hash comment\r\n/ slash comment\n% pct comment\n"
           "1 2\r\n2 3 heavy weight  with spaces\n\n   \n\x1f \u3000\n3 4\r"
           "4\t5 6\na\"b c\\d\x0bé ü 1.5\x0cx y\x1cp q w\u2028"
           "  5 6  \n1 2\n9 #x\r\n7 8")


def _awkward(tmp_path):
    p = tmp_path / "awkward.txt"
    p.write_bytes(AWKWARD.encode("utf-8"))
    return str(p)


def _rows(ds):
    return sorted(tuple(sorted(r.items())) for r in ds.take_all())


def _ray_plan(monkeypatch):
    from kgeng.io import graph_files

    monkeypatch.setattr(graph_files, "_DRIVER_SIDE_READ_BYTES", 0)


def test_read_edge_file_driver_plan_matches_ray_plan(tmp_path, monkeypatch):
    from kgeng.io.graph_files import _reads_on_driver

    path = _awkward(tmp_path)
    assert _reads_on_driver(path)
    driver = {s: _rows(read_edge_file(path, CFG, smart_ids=s))
              for s in (True, False)}
    _ray_plan(monkeypatch)
    assert not _reads_on_driver(path)
    for smart in (True, False):
        assert _rows(read_edge_file(path, CFG, smart_ids=smart)) \
            == driver[smart]
    # and both equal the reference semantics over splitlines
    want, _ = oracle.parse_edge_lines(
        [ln.strip() for ln in AWKWARD.splitlines()], CFG.vertex_coll,
        smart=False)
    got = [{k: v for k, v in dict(r).items()
            if k in ("_from", "_to", "weight") and v is not None}
           for r in driver[False]]
    assert _doc_set(got) == _doc_set(want) and len(got) == len(want) == 12


def test_import_edge_list_driver_plan_matches_ray_plan(tmp_path,
                                                       monkeypatch):
    path = _awkward(tmp_path)
    v, e = import_edge_list(path, CFG)
    driver_v, driver_e = _rows(v), _rows(e)
    _ray_plan(monkeypatch)
    ray_v, ray_e = import_edge_list(path, CFG)
    assert _rows(ray_v) == driver_v
    assert _rows(ray_e) == driver_e
    assert {k for r in driver_v for k, _ in r} == {CFG.smart_attribute}
    assert {k for r in driver_e for k, _ in r} == {"_from", "_to", "weight"}
    _, want_vids = oracle.parse_edge_lines(
        [ln.strip() for ln in AWKWARD.splitlines()], CFG.vertex_coll,
        smart=False)
    assert [r[0][1] for r in driver_v] == sorted(want_vids)


def test_driver_plan_across_many_read_chunks(tmp_path, monkeypatch):
    """A read grain of a few bytes: the AWKWARD file spans many chunks
    and blocks, read cut mid-token, next to CRLF, blank and comment
    lines; the driver plan still gives the Ray plan's rows."""
    from kgeng.io import graph_files

    path = _awkward(tmp_path)
    monkeypatch.setattr(graph_files, "_READ_CHUNK_BYTES", 5)
    chunks = list(graph_files._line_chunks(path))
    assert b"".join(chunks) == AWKWARD.encode("utf-8") and len(chunks) == 12
    driver = {s: _rows(read_edge_file(path, CFG, smart_ids=s))
              for s in (True, False)}
    v, e = import_edge_list(path, CFG)
    assert e.num_blocks() == 7  # one per chunk that holds an edge
    driver_v, driver_e = _rows(v), _rows(e)
    _ray_plan(monkeypatch)
    for smart in (True, False):
        assert _rows(read_edge_file(path, CFG, smart_ids=smart)) \
            == driver[smart]
    ray_v, ray_e = import_edge_list(path, CFG)
    assert (_rows(ray_v), _rows(ray_e)) == (driver_v, driver_e)
    assert len(driver_e) == 12


def test_gzip_edge_file_takes_ray_plan(tmp_path):
    import gzip

    from kgeng.io.graph_files import _reads_on_driver

    path = _awkward(tmp_path)
    gz = str(tmp_path / "awkward.txt.gz")
    with gzip.open(gz, "wb") as f:
        f.write(AWKWARD.encode("utf-8"))
    assert not _reads_on_driver(gz)
    assert not _reads_on_driver(str(tmp_path))  # a directory
    assert _rows(read_edge_file(gz, CFG)) == _rows(read_edge_file(path, CFG))


# ------------------------------------------------------------ JSONL render

def test_render_jsonl_matches_json_dumps(tmp_path):
    """Every rendered line loads to its ``docs_to_jsonl_rows`` dict (null
    fields absent), and rows without characters that need escaping are
    byte-identical to the old per-row ``json.dumps`` rendering."""
    import json

    import pyarrow as pa
    import ray

    from kgeng.io.bulk_sink import render_jsonl, write_jsonl_collection

    strs = ['a"b', "c\\d", "x\x00y\x1f\n\t\r\b\f", "é☃\u2028", None, "",
            "plain", " sp ace ", "vertices/1:1", "\x7f"]
    n = len(strs)
    t = pa.table({
        "_from": pa.array(strs, pa.string()),
        "_to": pa.array(["z"] * (n - 1) + [None], pa.string()),
        "i": pa.array([1, None, -3, 4, 5, 6, 7, 8, 9, 10], pa.int64()),
        "f": pa.array([0.5, 1.0, None, 2.25, 3.0, 4.0, 5.0, 6.5, 7.0,
                       8.0]),
        "b": pa.array([True, False, None] + [True] * (n - 3)),
        "weight": pa.nulls(n, pa.string()),
    })
    rows = docs_to_jsonl_rows(t)
    body = render_jsonl(t)
    lines = body.decode("utf-8").split("\n")
    assert lines[-1] == "" and len(lines) == n + 1
    plain = 0
    for line, row in zip(lines, rows):
        assert json.loads(line) == row
        if all(not isinstance(v, str) or (
                v.isascii() and v.isprintable() and '"' not in v
                and "\\" not in v) for v in row.values()):
            assert line == json.dumps(row, separators=(",", ":"))
            plain += 1
    assert plain == 5
    assert render_jsonl(t.slice(0, 0)) == b""
    # all-null rows render as {} and keep their place
    nulls = pa.table({"a": pa.nulls(2, pa.string()),
                      "b": pa.array([None, "x"], pa.string())})
    assert render_jsonl(nulls) == b'{}\n{"b":"x"}\n'
    # through the Ray writer: same lines, one per document
    out = tmp_path / "c"
    assert write_jsonl_collection(ray.data.from_arrow(t), str(out)) == n
    written = sorted(ln for f in out.iterdir()
                     for ln in f.read_text("utf-8").splitlines(True))
    assert written == sorted(ln + "\n" for ln in lines[:-1])
