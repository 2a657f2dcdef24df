"""Archive extraction (io/fetch) and document source readers (io/source)."""

import os
import tarfile

import pytest

from kgeng.io import fetch


def test_tar_extract_roundtrip(tmp_path):
    src = tmp_path / "data"
    src.mkdir()
    (src / "a.txt").write_text("hello")
    tar_path = str(tmp_path / "a.tar")
    with tarfile.open(tar_path, "w") as tf:
        tf.add(src / "a.txt", arcname="a.txt")
    out = fetch.tar_extract(tar_path, str(tmp_path / "out"))
    assert open(os.path.join(out, "a.txt")).read() == "hello"


def test_zstd_extract_env_gated(tmp_path):
    with pytest.raises(ImportError, match="zstandard"):
        fetch.zstd_extract(str(tmp_path / "x.tar.zst"), str(tmp_path))


def test_read_documents_jsonl_roundtrip(tmp_path):
    import json

    import ray.data

    from kgeng.io.source import read_documents

    p = tmp_path / "docs.jsonl"
    rows = [{"doc_id": i, "text": f"doc number {i}", "lang": "en"}
            for i in range(25)]
    with open(p, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")
    ds = read_documents(str(p), format="jsonl",
                        columns=["doc_id", "text"])
    out = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(out) == 25
    assert list(out.columns) == ["doc_id", "text"]
    assert out.loc[3, "text"] == "doc number 3"
