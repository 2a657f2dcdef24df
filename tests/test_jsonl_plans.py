"""The JSONL collection writer's two plans and the bounded block pull.

``bulk_sink.write_jsonl_collection`` writes a materialized one-block
Dataset of at most ``_DRIVER_SIDE_READ_BYTES`` (by block metadata) in
the calling process, anything else with one Ray ``map_batches``. Both
plans must write the same part files, hold every bulk exactly once and
return the number of lines on disk."""

from __future__ import annotations

import hashlib
import os

import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data
from ray.data._internal.execution.streaming_executor import StreamingExecutor

from kgeng.io import bulk_sink, graph_files
from kgeng.ops import graph, mat
from tests.test_graph_files import AWKWARD, _rows

_ORIG_WRITE_BULK = bulk_sink._write_bulk


def _files_sha1(d) -> dict[str, str]:
    return {n: hashlib.sha1((d / n).read_bytes()).hexdigest()
            for n in sorted(os.listdir(d))}


def _lines(d) -> int:
    return sum((d / n).read_bytes().count(b"\n") for n in os.listdir(d))


def _ray_plan(monkeypatch):
    monkeypatch.setattr(bulk_sink, "_DRIVER_SIDE_READ_BYTES", 0)


def _docs(n: int) -> pa.Table:
    """n rows in which rows i and i + 10,000 are equal: every full bulk
    of 10,000 rows is byte-identical to the others."""
    i = [k % 10_000 for k in range(n)]
    return pa.table({
        "_from": pa.array([f"v/{k}" for k in i], pa.string()),
        "_to": pa.array([f'v/"{k % 7}é' for k in i], pa.string()),
        "weight": pa.array([None if k % 3 else f"{k / 4}" for k in i],
                           pa.string()),
    })


def _both_plans(monkeypatch, tmp_path, ds):
    """Write ``ds`` with the default plan, then with the Ray plan forced;
    returns ((count, files) per plan), checking each count against the
    lines on disk."""
    out = []
    for name in ("default", "ray"):
        if name == "ray":
            _ray_plan(monkeypatch)
        d = tmp_path / name
        n = bulk_sink.write_jsonl_collection(ds, str(d))
        assert n == _lines(d)
        out.append((n, _files_sha1(d)))
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("rows", [0, 1, 9_999, 10_000, 25_001])
def test_one_block_plans_write_identical_files(monkeypatch, tmp_path, rows):
    ds = ray.data.from_arrow(_docs(rows))
    assert bulk_sink._writes_in_process(ds)
    default, forced = _both_plans(monkeypatch, tmp_path, ds)
    assert default == forced and default[0] == rows
    assert len(default[1]) == -(-rows // 10_000)


def test_materialized_and_pandas_blocks_plans_identical(monkeypatch,
                                                        tmp_path):
    """One block that is the output of a Dataset execution (its plan's
    source is ``InputData``), and one pandas block."""
    for i, ds in enumerate((
            ray.data.from_arrow(_docs(12_345)).map_batches(
                lambda t: t, batch_format="pyarrow",
                batch_size=None).materialize(),
            ray.data.from_pandas(_docs(12_345).to_pandas()))):
        assert ds.num_blocks() == 1 and bulk_sink._writes_in_process(ds)
        default, forced = _both_plans(monkeypatch, tmp_path / str(i), ds)
        assert default == forced and default[0] == 12_345


def test_identical_bulks_are_all_kept(monkeypatch, tmp_path):
    """Two byte-identical bulks each get a part file (the second a
    ``-1`` suffix); the count returned is the lines on disk."""
    ds = ray.data.from_arrow(_docs(20_000))
    default, forced = _both_plans(monkeypatch, tmp_path, ds)
    assert default[0] == forced[0] == 20_000
    first, second = sorted(default[1], key=len)
    assert second == first.replace(".jsonl", "-1.jsonl")
    # many blocks, one task per block
    ds = ray.data.from_arrow([_docs(10_000)] * 4)
    assert not bulk_sink._writes_in_process(ds)
    d = tmp_path / "blocks"
    assert bulk_sink.write_jsonl_collection(ds, str(d)) == 40_000
    assert _lines(d) == 40_000 and len(os.listdir(d)) == 4


def _write_twice(batch, out_dir):
    """A task attempt that wrote its bulk, then was retried: the first
    attempt's file stays on disk, only the retry's receipt returns."""
    _ORIG_WRITE_BULK(batch, out_dir)
    return _ORIG_WRITE_BULK(batch, out_dir)


@pytest.mark.parametrize("plan", ["default", "ray"])
def test_retried_bulks_are_written_once(monkeypatch, tmp_path, plan):
    if plan == "ray":
        _ray_plan(monkeypatch)
    monkeypatch.setattr(bulk_sink, "_write_bulk", _write_twice)
    d = tmp_path / "c"
    d.mkdir()
    (d / "part-stale.jsonl").write_text('{"old":1}\n')
    (d / "notes.txt").write_text("kept")
    n = bulk_sink.write_jsonl_collection(
        ray.data.from_arrow(_docs(25_001)), str(d))
    assert n == 25_001
    parts = [f for f in os.listdir(d) if f.endswith(".jsonl")]
    assert len(parts) == 3 and _lines(d) == n  # notes.txt: no newline
    assert "part-stale.jsonl" not in parts and (d / "notes.txt").exists()


def test_small_import_and_writes_start_no_ray_data_execution(monkeypatch,
                                                             tmp_path):
    path = tmp_path / "awkward.txt"
    path.write_bytes(((AWKWARD + "\n") * 50).encode("utf-8"))
    cfg = graph_files.CompatGraphConfig()

    def refuse(*a, **kw):
        raise AssertionError("a Ray Data execution started")

    monkeypatch.setattr(StreamingExecutor, "execute", refuse)
    v, e = graph_files.import_edge_list(str(path), cfg)
    counts = [bulk_sink.write_jsonl_collection(ds, str(tmp_path / name))
              for ds, name in ((v, "v"), (e, "e"))]
    monkeypatch.undo()
    assert counts == [_lines(tmp_path / "v"), _lines(tmp_path / "e")]
    # the same rows as the Ray plan of both the import and the write
    monkeypatch.setattr(graph_files, "_DRIVER_SIDE_READ_BYTES", 0)
    _ray_plan(monkeypatch)
    rv, re_ = graph_files.import_edge_list(str(path), cfg)
    for ds, name in ((rv, "rv"), (re_, "re")):
        bulk_sink.write_jsonl_collection(ds, str(tmp_path / name))
    for a, b in (("v", "rv"), ("e", "re")):
        assert sorted(_read_lines(tmp_path / a)) \
            == sorted(_read_lines(tmp_path / b))
    assert counts == [len(_rows(rv)), 12 * 50]


def _read_lines(d) -> list[bytes]:
    return [ln for n in os.listdir(d)
            for ln in (d / n).read_bytes().splitlines()]


# -------------------------------------------------------- bounded pull

def test_pull_blocks_checks_bytes_before_any_get(monkeypatch):
    ds = ray.data.from_arrow([_docs(100), _docs(50)])
    size = mat.block_bytes(ds)
    assert size == sum(t.nbytes for t in (_docs(100), _docs(50)))
    blocks = mat.pull_blocks(ds, size)
    assert [b.num_rows for b in blocks] == [100, 50]

    def no_get(*a, **kw):
        raise AssertionError("ray.get before the bytes check")

    monkeypatch.setattr(ray, "get", no_get)
    with pytest.raises(ValueError, match="driver bound"):
        mat.pull_blocks(ds, size - 1)


def test_graph_pull_and_jsonl_write_obey_the_bound(monkeypatch, tmp_path):
    edges = ray.data.from_pandas(pd.DataFrame(
        {"src": [0, 1, 2], "dst": [1, 2, 0]})).materialize()
    monkeypatch.setattr(graph, "_DRIVER_SIDE_READ_BYTES", 8)
    with pytest.raises(ValueError, match="driver bound"):
        graph.pagerank(edges)
    monkeypatch.undo()
    assert len(graph.pagerank(edges).take_all()) == 3
    # past the bound the writer takes the Ray plan instead of pulling
    ds = ray.data.from_arrow(_docs(10))
    monkeypatch.setattr(bulk_sink, "_DRIVER_SIDE_READ_BYTES",
                        int(mat.block_bytes(ds)) - 1)
    assert not bulk_sink._writes_in_process(ds)
    assert bulk_sink.write_jsonl_collection(ds, str(tmp_path / "c")) == 10
