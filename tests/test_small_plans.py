"""Small fused plans run in the calling process.

``extract_records_fused`` and ``emit_triples_fused`` plan their input
into row-balanced task groups and run one group function over them: in
this process when ``total_rows * ncpu <= target_rows``
(``extract._in_process``), else as one Ray task per group. Both paths
must write byte-identical content-keyed part files and the same
receipts, at every input size around the cutover."""

from __future__ import annotations

import glob
import hashlib
import json
import os
import pickle

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray.data
from ray.data._internal.execution.streaming_executor import StreamingExecutor

from kgeng import checkpoint
from kgeng.checkpoint import PartitionWriter
from kgeng.ops import extract, triples
from kgeng.ops.extract import extract_records_fused, load_gazetteer_dict
from kgeng.pipeline import _REC_PROJECTIONS, _TRIPLE_COLS, KGPipeline
from tests.test_fragment_resume import _split_corpus

# extract grain of the sweep: small, so 4x the cutover stays cheap; the
# rule is the same one the pipeline applies at detect_batch_size
_TARGET = 512


def _files_sha1(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _dirs, names in os.walk(root):
        for n in names:
            p = os.path.join(dirpath, n)
            with open(p, "rb") as f:
                out[os.path.relpath(p, root)] = hashlib.sha1(
                    f.read()).hexdigest()
    return out


def _receipts(res, root: str) -> dict:
    return {(part, os.path.relpath(path, root)): rows
            for (part, path), rows in checkpoint._collect_receipts(
                res).items()}


def _both_paths(monkeypatch, tmp_path, run, col, projections):
    """Run ``run(writer)`` once per path (forced through the decision
    helper); return each path's (file -> sha1, receipts, result type)."""
    out = {}
    for name, forced in (("local", True), ("ray", False)):
        monkeypatch.setattr(extract, "_in_process",
                            lambda *a, _f=forced: _f)
        root = str(tmp_path / name)
        res = run(PartitionWriter(root, col, projections))
        receipts = _receipts(res, root)  # drives a lazy Dataset
        out[name] = (_files_sha1(root), receipts, type(res))
    monkeypatch.undo()
    return out["local"], out["ray"]


def _assert_identical(local, ray_, n):
    (lf, lr, lt), (rf, rr, rt) = local, ray_
    assert lt is pa.Table and rt is ray.data.Dataset
    assert lf and lr, n
    assert lf == rf, n
    assert lr == rr, n


def _decisions(monkeypatch) -> list[bool]:
    seen = []
    orig = extract._in_process

    def spy(*a):
        seen.append(orig(*a))
        return seen[-1]

    monkeypatch.setattr(extract, "_in_process", spy)
    return seen


@pytest.fixture(scope="module")
def docs(small_corpus) -> pa.Table:
    return pads.dataset(os.path.join(small_corpus, "corpus")).to_table()


def _sweep(cutover: int) -> list[int]:
    return [1, cutover - 1, cutover, cutover + 1, 4 * cutover]


def _write_split(t: pa.Table, d, name: str) -> list[str]:
    """``t`` as up to three files of one row group each (the plan's
    row estimate is then exact, so the sweep sits on the cutover)."""
    n = t.num_rows
    step = -(-n // 3)
    files = []
    for i in range(0, n, step):
        files.append(str(d / f"{name}-{i:05d}.parquet"))
        pq.write_table(t.slice(i, step), files[-1])
    return files


def test_extract_paths_write_identical_files(monkeypatch, tmp_path, docs,
                                             small_corpus):
    cutover = _TARGET // extract.cluster_cpus()
    gaz = load_gazetteer_dict(os.path.join(small_corpus,
                                           "gazetteer.parquet"))
    assert docs.num_rows >= 4 * cutover
    for n in _sweep(cutover):
        d = tmp_path / f"in{n}"
        d.mkdir()
        files = _write_split(docs.slice(0, n), d, "part")

        def run(w):
            return extract_records_fused(files, gaz, target_rows=_TARGET,
                                         writer=w)

        seen = _decisions(monkeypatch)
        run(None)
        assert seen == [n <= cutover], n
        monkeypatch.undo()
        _assert_identical(*_both_paths(monkeypatch, tmp_path / f"out{n}",
                                       run, "rec_kind", _REC_PROJECTIONS),
                          n)


def _records(d, n: int, rng) -> tuple[list[str], list[str], dict]:
    """``n`` relation rows and ``n`` media rows over 60 surfaces, 40 of
    which resolve, in three files each."""
    surfaces = [f"S{i:02d}" for i in range(60)]
    resolution = {s: (f"E{i % 25:02d}", bool(i % 3 == 0))
                  for i, s in enumerate(surfaces[:40])}
    pick = rng.integers(0, 60, (n, 4))
    rel = pa.table({
        "doc_id": [f"d{i % 97:03d}" for i in range(n)],
        "span_idx": pa.array(np.arange(n) % 7, pa.int32()),
        "subj": [surfaces[j] for j in pick[:, 0]],
        "pred": [("works_for", "founded")[j % 2] for j in pick[:, 1]],
        "obj": [surfaces[j] for j in pick[:, 2]],
    })
    med = pa.table({
        "doc_id": [f"d{i % 89:03d}" for i in range(n)],
        "span_idx": pa.array(np.arange(n) % 5, pa.int32()),
        "subj": ["|".join(surfaces[k] for k in pick[i, 1:])
                 for i in range(n)],
        "obj": [f"media://m{i}" for i in range(n)],
    })
    return (_write_split(rel, d, "rel"), _write_split(med, d, "med"),
            resolution)


def test_triples_paths_write_identical_files(monkeypatch, tmp_path):
    task_rows = 512
    rng = np.random.default_rng(8)
    # the rule counts relation AND media rows: n of each is 2n rows
    cutover = task_rows // extract.cluster_cpus() // 2
    for n in _sweep(cutover):
        d = tmp_path / f"in{n}"
        d.mkdir()
        rel, med, resolution = _records(d, n, rng)

        def run(w):
            return triples.emit_triples_fused(rel, med, resolution,
                                              target_rows=64, writer=w)

        monkeypatch.setattr(triples, "_TASK_ROWS", task_rows)
        seen = _decisions(monkeypatch)
        run(None)
        assert seen == [n <= cutover], n
        monkeypatch.undo()
        monkeypatch.setattr(triples, "_TASK_ROWS", task_rows)
        _assert_identical(*_both_paths(
            monkeypatch, tmp_path / f"out{n}", run, "t_kind",
            {"triple": _TRIPLE_COLS, "eid": ["subj"]}), n)


def _graph_rows(out_dir: str) -> dict[str, list]:
    rows = {}
    for coll in sorted(os.listdir(out_dir)):
        p = os.path.join(out_dir, coll)
        if os.path.isdir(p):
            t = pads.dataset(p, format="parquet").to_table()
            rows[coll] = sorted((tuple(sorted(r.items()))
                                 for r in t.to_pylist()), key=repr)
    return rows


def test_small_append_starts_no_ray_data_execution(monkeypatch, tmp_path,
                                                   tiny_corpus):
    """A tiny build and an append re-run of it, with the fused stages'
    Ray source and every Ray Data execution made to raise."""
    def refuse(*a, **kw):
        raise AssertionError("a Ray Data execution started")

    monkeypatch.setattr(extract, "item_source", refuse)
    monkeypatch.setattr(StreamingExecutor, "execute", refuse)
    gaz = os.path.join(tiny_corpus, "gazetteer.parquet")
    frags = _split_corpus(os.path.join(tiny_corpus, "corpus"),
                          str(tmp_path / "frags"), 3)
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    root, out = str(tmp_path / "ck"), str(tmp_path / "graph")
    for f in frags[:2]:
        os.link(f, cdir / os.path.basename(f))
    first = KGPipeline(checkpoint_root=root, num_shards=2).run(
        str(cdir), gaz, out_dir=out)
    os.link(frags[2], cdir / os.path.basename(frags[2]))
    again = KGPipeline(checkpoint_root=root, num_shards=2).run(
        str(cdir), gaz, out_dir=out)
    assert 0 < first["n_triples"] < again["n_triples"]
    # the in-process work ran before the commit, and is still timed
    walls = [json.load(open(m))["write_wall_sec"] for m in
             glob.glob(os.path.join(root, "records", "*", "_MANIFEST.json"))
             + [os.path.join(root, "triples", "_MANIFEST.json")]]
    assert len(walls) == 3 and min(walls) > 0, walls
    monkeypatch.undo()
    fresh = str(tmp_path / "fresh")
    KGPipeline(checkpoint_root=str(tmp_path / "ck2"), num_shards=2).run(
        str(cdir), gaz, out_dir=fresh)
    assert _graph_rows(out) == _graph_rows(fresh)


def test_forced_ray_path_builds_the_same_graph(monkeypatch, tmp_path,
                                               tiny_corpus):
    """Tier-1's small corpora take the in-process plan; the Ray plan,
    forced, gives the same checkpoints and graph."""
    corpus = os.path.join(tiny_corpus, "corpus")
    gaz = os.path.join(tiny_corpus, "gazetteer.parquet")
    runs, sources = {}, []
    orig = extract.item_source

    def item_source(groups, fn):
        sources.append(len(groups))
        return orig(groups, fn)

    monkeypatch.setattr(extract, "item_source", item_source)
    for name, forced in (("default", None), ("ray", False)):
        if forced is not None:
            assert sources == []  # the default run stayed in process
            monkeypatch.setattr(extract, "_in_process", lambda *a: forced)
        root = str(tmp_path / name)
        res = KGPipeline(checkpoint_root=os.path.join(root, "ck")).run(
            corpus, gaz, out_dir=os.path.join(root, "graph"))
        parts = {k: v for k, v in _files_sha1(
            os.path.join(root, "ck")).items()
            if k.endswith(".parquet") and not k.startswith("pairs")}
        runs[name] = (res["n_triples"], parts,
                      _graph_rows(os.path.join(root, "graph")))
    monkeypatch.undo()
    assert len(sources) == 2  # extract and triples ran as Ray tasks
    assert runs["default"][0] > 0
    assert runs["default"] == runs["ray"]


def test_shipped_value_travels_as_bytes_and_loads_on_demand():
    """The gazetteer / resolution wrapper: the task side gets the token
    and the pickled bytes, and rebuilds the value only when asked."""
    value = {"Ada Lovelace": ("E0001", "PERSON")}
    shipped = extract.Shipped(value)
    assert shipped.value() is value  # in process: the value as it is
    blob = pickle.dumps(shipped)
    assert pickle.dumps(shipped) == blob  # the value is pickled once
    task_side = pickle.loads(blob)
    assert task_side.token == shipped.token
    assert task_side._value is None
    assert task_side.value() == value
