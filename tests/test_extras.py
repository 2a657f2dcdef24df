"""Property generators, JSONL/HTTP sinks, CLI, plan-B label propagation,
permutation invariance."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import ray.data

from kgeng.io.bulk_sink import post_documents, write_jsonl_collection
from kgeng.io.graph_files import CompatGraphConfig
from kgeng.synth import graphs

SMART = CompatGraphConfig(vertex_coll="v", smart_attribute="smartProp",
                          is_smart=True)


def test_vertex_random_property_stringified_and_deterministic():
    a = graphs.make_vertices_with_property(
        10, SMART, "weight", "random", 2.0, 5.0, seed=3).take_all()
    b = graphs.make_vertices_with_property(
        10, SMART, "weight", "random", 2.0, 5.0, seed=3).take_all()
    av = {r["_key"]: r["weight"] for r in a}
    bv = {r["_key"]: r["weight"] for r in b}
    assert av == bv  # content-keyed, not order-keyed
    for v in av.values():
        assert isinstance(v, str) and 2.0 <= float(v) <= 5.0


def test_vertex_list_property():
    vals = [f"v{i}" for i in range(5)]
    out = graphs.make_vertices_with_property(
        5, SMART, "tag", "list", values=vals).take_all()
    got = {r["_key"]: r["tag"] for r in out}
    assert got == {f"{i}:{i}": f"v{i}" for i in range(5)}


def test_clique_edges_random_weight_string():
    out = graphs.clique_edges_with_weight(
        6, SMART, "w", w_min=1.0, w_max=2.0, seed=9).take_all()
    assert len(out) == 15
    for r in out:
        assert isinstance(r["w"], str) and 1.0 <= float(r["w"]) <= 2.0


def test_jsonl_sink_absent_not_null(tmp_path):
    t = pa.table({"_from": ["v/1", "v/2"], "_to": ["v/2", "v/3"],
                  "weight": ["0.5", None]})
    n = write_jsonl_collection(ray.data.from_arrow(t), str(tmp_path / "e"))
    assert n == 2
    lines = []
    for f in os.listdir(tmp_path / "e"):
        lines += open(tmp_path / "e" / f).read().splitlines()
    docs = sorted((json.loads(ln) for ln in lines),
                  key=lambda d: d["_from"])
    assert docs[0] == {"_from": "v/1", "_to": "v/2", "weight": "0.5"}
    assert docs[1] == {"_from": "v/2", "_to": "v/3"}  # weight ABSENT


def test_http_bulk_sink_dry_run():
    t = pa.table({"_key": [str(i) for i in range(25)]})
    res = post_documents(ray.data.from_arrow(t), "http://db:8529",
                         "vertices", dry_run=True, bulk_size=10)
    assert res == {"posted": 0, "dry_run_rows": 25}


def test_link_mentions_standalone():
    """The standalone link-scorer seam (no longer in the flagship
    pipeline — extract folds exact linking in): both the worker-cached
    task path and the actor-pool path score identically."""
    from kgeng.ops.link import link_mentions

    gaz = {"Ada Lovelace": ("E1", "PERSON"), "Acme Corp": ("E2", "ORG")}
    t = pa.table({
        "surface": ["Ada Lovelace", "Acme Corp", "Bob Smith",
                    "Ada Lovelace"],
        "source": ["gazetteer", "gazetteer", "ner", "ner"],
    })
    for use_actors in (False, True):
        out = sorted(
            link_mentions(ray.data.from_arrow(t), gaz,
                          use_actors=use_actors,
                          concurrency=2).take_all(),
            key=lambda r: (r["surface"], r["source"]))
        got = [(r["surface"], r["cand_id"], r["link_score"]) for r in out]
        # only gazetteer-source exact hits link; NER candidates do not
        # (they resolve later via canonicalization)
        assert got == [
            ("Acme Corp", "E2", 1.0),
            ("Ada Lovelace", "E1", 1.0),
            ("Ada Lovelace", "", 0.0),
            ("Bob Smith", "", 0.0),
        ]


def test_http_bulk_sink_live_post():
    """Drive the NON-dry-run POST path against a localhost stub server:
    202 accepted path and the non-202 error path (reference contract:
    insert_documents, general.py:117-136)."""
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    received = {"rows": 0, "paths": []}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            docs = json.loads(body)
            received["rows"] += len(docs)
            received["paths"].append(self.path)
            if "/vertices" in self.path:
                self.send_response(202)
                self.end_headers()
                self.wfile.write(b"{}")
            else:
                self.send_response(503)
                self.end_headers()
                self.wfile.write(b"database unavailable")

        def log_message(self, *a):  # quiet
            pass

    srv = HTTPServer(("127.0.0.1", 0), Handler)
    port = srv.server_address[1]
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        t = pa.table({"_key": [str(i) for i in range(25)],
                      "weight": [None] * 25})
        res = post_documents(ray.data.from_arrow(t),
                             f"http://127.0.0.1:{port}", "vertices",
                             dry_run=False, bulk_size=10)
        assert res == {"posted": 25, "dry_run_rows": 0}
        assert received["rows"] == 25
        assert all(p == "/_api/document/vertices"
                   for p in received["paths"])

        # error path: non-202 response must surface, not pass silently
        import pytest

        with pytest.raises(Exception, match="bulk POST failed"):
            post_documents(ray.data.from_arrow(t),
                           f"http://127.0.0.1:{port}", "broken",
                           dry_run=False, bulk_size=50, max_retries=0)
    finally:
        srv.shutdown()
        srv.server_close()


def test_label_propagation_matches_union_find():
    from kgeng.ops.canonicalize import (UnionFind,
                                        label_propagation_components)

    pairs = pa.table({"a": ["a", "b", "x", "m"],
                      "b": ["b", "c", "y", "n"],
                      "jac": [1.0, 1.0, 1.0, 1.0]})
    labels = {r["node"]: r["label"]
              for r in label_propagation_components(
                  ray.data.from_arrow(pairs)).take_all()}
    uf = UnionFind()
    for a, b in zip(pairs["a"].to_pylist(), pairs["b"].to_pylist()):
        uf.union(a, b)
    for x, y in (("a", "c"), ("x", "y"), ("m", "n")):
        assert labels[x] == labels[y]
    assert labels["a"] != labels["x"] != labels["m"]


def test_label_propagation_long_chain_converges():
    """A 12-node path needs multiple propagation rounds: the distributed
    join-based rounds must reach the union-find fixpoint."""
    from kgeng.ops.canonicalize import label_propagation_components

    n = 12
    pairs = pa.table({"a": [f"n{i:02d}" for i in range(n - 1)],
                      "b": [f"n{i + 1:02d}" for i in range(n - 1)],
                      "jac": [1.0] * (n - 1)})
    labels = {r["node"]: r["label"]
              for r in label_propagation_components(
                  ray.data.from_arrow(pairs), max_iter=15).take_all()}
    assert set(labels.values()) == {"n00"}
    assert len(labels) == n


def test_triples_invariant_under_input_partition_reshuffle(tiny_corpus,
                                                          tmp_path):
    """Permutation invariance: reordering the input files and regrouping
    them into a different number of tasks does not change the records
    (SURVEY.md §5.4). The 100 docs fit the default grain's in-process
    plan, so ``a`` runs in this process (a table) and ``b``, at a
    7-doc grain, as Ray tasks (a Dataset)."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from kgeng.ops.extract import extract_records_fused, load_gazetteer_dict

    docs = pads.dataset(os.path.join(tiny_corpus, "corpus")).to_table()
    files = []
    for i in range(10):
        files.append(str(tmp_path / f"part-{i:02d}.parquet"))
        pq.write_table(docs.slice(i * 10, 10), files[-1])
    gaz = load_gazetteer_dict(os.path.join(tiny_corpus,
                                           "gazetteer.parquet"))
    # 4 groups over the files in order vs 10 tasks over them reversed
    a = extract_records_fused(files, gaz)
    b = extract_records_fused(files[::-1], gaz,
                              target_rows=7).materialize()
    assert isinstance(a, pa.Table) and isinstance(b, ray.data.Dataset)
    assert b.num_blocks() == 10
    rows_a = sorted(tuple(sorted(r.items())) for r in a.to_pylist())
    rows_b = sorted(tuple(sorted(r.items())) for r in b.take_all())
    assert rows_a and rows_a == rows_b


def test_cli_status_and_generate(tmp_path):
    out = tmp_path / "g"
    r = subprocess.run(
        [sys.executable, "-m", "kgeng.run", "--num-cpus", "2",
         "generate", "--graphtype", "clique", "--size", "8",
         "--out", str(out)],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env={**os.environ, "RAY_ADDRESS": "local"})
    assert r.returncode == 0, r.stderr[-500:]
    payload = json.loads(r.stdout.strip().splitlines()[-1])
    assert payload == {"vertices": 8, "edges": 28}


def test_wrap_flat_documents_runs_through_extract(tmp_path):
    """The engine accepts flat text tables via the wrap adapter; the
    TPC-H-ish corpus yields no gazetteer entities (expected) but regex
    detectors still fire and the span invariant holds."""
    import pyarrow.parquet as pq

    from kgeng.io.source import wrap_flat_documents
    from kgeng.ops.extract import extract_records_fused

    flat = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"]).limit(50)
    docs = wrap_flat_documents(flat)
    rows = docs.take_all()
    assert all(len(r["spans"]) == 1 and r["spans"][0]["kind"] == "text"
               for r in rows)
    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.concat_tables(ray.get(docs.to_arrow_refs())), path)
    recs = extract_records_fused([path], gazetteer={})
    # runs end-to-end (50 docs: in process); content has no capitalized
    # runs, so likely zero mentions, that's fine
    assert isinstance(recs, pa.Table)


def test_http_bulk_sink_retries_transient_failures():
    """Verdict r02 'Next' #8: a 500-then-202 sequence must succeed via
    retry with the SAME Idempotency-Key (bulk content hash), so a server
    that records keys can drop ambiguous replays."""
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    from kgeng.io.bulk_sink import post_documents

    seen = {"n": 0, "keys": []}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            seen["n"] += 1
            seen["keys"].append(self.headers.get("Idempotency-Key"))
            if seen["n"] == 1:          # first attempt: transient failure
                self.send_response(500)
            else:
                self.send_response(202)
            self.end_headers()
            self.wfile.write(b"{}")

        def log_message(self, *a):
            pass

    srv = HTTPServer(("127.0.0.1", 0), Handler)
    port = srv.server_address[1]
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        t = pa.table({"_key": [str(i) for i in range(5)],
                      "weight": [None] * 5})
        res = post_documents(ray.data.from_arrow(t),
                             f"http://127.0.0.1:{port}", "vertices",
                             dry_run=False, bulk_size=10,
                             backoff_base=0.01)
        assert res == {"posted": 5, "dry_run_rows": 0}
        assert seen["n"] == 2
        assert seen["keys"][0] == seen["keys"][1]  # same key on retry
    finally:
        srv.shutdown()
        srv.server_close()


def test_query_cli_list_and_validation(capsys):
    """The `query` subcommand's listing and name validation run without
    owning a Ray session (safe to call in-process)."""
    from kgeng.run import main

    assert main(["query"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "lineitem_pagerank" in out and "dedup_exact_docs" in out

    assert main(["query", "not_a_query"]) == 2


def test_linker_empty_gazetteer():
    """An empty gazetteer links nothing — it must not index into a
    zero-length id array."""
    import pyarrow as pa

    from kgeng.ops.link import link_mentions

    m = ray.data.from_arrow(pa.table({
        "surface": ["Acme Corp", "Paris"],
        "source": ["gazetteer", "ner"],
    }))
    out = link_mentions(m, gazetteer={}).to_pandas()
    assert out["cand_id"].tolist() == ["", ""]
    assert out["link_score"].tolist() == [0.0, 0.0]


def test_write_partitioned_parquet_roundtrip_and_resume_gate(tmp_path):
    import pyarrow as pa
    import ray.data

    from kgeng.io.sink import partitioned_is_done, write_partitioned_parquet

    t = pa.table({"doc_id": list(range(100)),
                  "lang": [["en", "de", "fr"][i % 3] for i in range(100)],
                  "n": [i * 2 for i in range(100)]})
    root = str(tmp_path / "out")
    m = write_partitioned_parquet(
        ray.data.from_arrow(t).repartition(4), root, by="lang")
    assert m["n_rows"] == 100
    assert set(m["partitions"]) == {"en", "de", "fr"}
    assert partitioned_is_done(root)
    # hive layout reads back with the partition column reconstructed
    back = ray.data.read_parquet(root).to_pandas()
    assert len(back) == 100
    assert set(back["lang"]) == {"en", "de", "fr"}
    # per-partition pruned read touches one directory only
    en = ray.data.read_parquet(f"{root}/lang=en").to_pandas()
    assert len(en) == m["partitions"]["en"]
    # idempotence: re-writing produces identical content-hashed files
    import os
    files_before = sorted(os.listdir(f"{root}/lang=en"))
    write_partitioned_parquet(
        ray.data.from_arrow(t).repartition(4), root, by="lang")
    assert sorted(os.listdir(f"{root}/lang=en")) == files_before


def test_write_partitioned_parquet_clears_stale_files(tmp_path):
    """A crashed run's differently-sharded files must not survive a
    re-write (they would double-count on read)."""
    import os

    import pyarrow as pa
    import ray.data

    from kgeng.io.sink import write_partitioned_parquet

    t = pa.table({"id": list(range(30)),
                  "lang": [["en", "de"][i % 2] for i in range(30)]})
    root = str(tmp_path / "o")
    # simulate a stale file from a previous run with another layout
    os.makedirs(f"{root}/lang=en", exist_ok=True)
    with open(f"{root}/lang=en/part-deadbeef.parquet", "wb") as f:
        f.write(b"truncated-garbage")
    m = write_partitioned_parquet(ray.data.from_arrow(t), root, "lang")
    assert not os.path.exists(f"{root}/lang=en/part-deadbeef.parquet")
    back = ray.data.read_parquet(root).to_pandas()
    assert len(back) == 30 == m["n_rows"]


def test_engine_reads_only_known_env_vars():
    """Every environment variable read under kgeng/: a tuning knob that
    nothing sets cannot come back unnoticed. KGENG_TIMING goes when the
    structured run trace replaces its prints."""
    import re

    ref = re.compile(r"\b(?:environ|getenv)\b")
    read = re.compile(
        r"""(?:environ\.get\(|environ\[|getenv\()\s*["'](\w+)["']""")
    root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "kgeng")
    names, refs, reads = set(), 0, 0
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src = fh.read()
                refs += len(ref.findall(src))
                found = read.findall(src)
                reads += len(found)
                names.update(found)
    # every environ/getenv reference is a read with a literal key (no
    # dynamic keys, no copies of the whole environment)
    assert refs == reads
    assert names == {"RAY_ADDRESS", "KGENG_TIMING"}
