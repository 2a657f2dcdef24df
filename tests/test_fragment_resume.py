"""Fragment-level resume: dropping one input parquet fragment must
invalidate (and recompute) ONLY the extract shard that contained it.

This is the parquet-path realization of the Lance fragment-streaming
resume promised in kgeng/io/source.py — shard assignment is a stable
hash of the fragment name (kgeng/pipeline._assign_shards_stable), so
per-shard lineage stays identical for every shard that did not hold the
dropped fragment and the checkpoint gate reuses them untouched."""

import os
import tempfile

import pyarrow.parquet as pq

from kgeng.pipeline import KGPipeline, _assign_shards_stable

N_SHARDS = 4
N_FRAGS = 4


def _split_corpus(src_corpus: str, dst: str, n: int) -> list[str]:
    import pyarrow.dataset as pads

    tbl = pads.dataset(src_corpus).to_table()
    os.makedirs(dst, exist_ok=True)
    out = []
    step = (tbl.num_rows + n - 1) // n
    for i in range(n):
        part = tbl.slice(i * step, step)
        path = os.path.join(dst, f"part-{i:05d}.parquet")
        pq.write_table(part, path)
        out.append(path)
    return out


def _shard_success_mtimes(root: str) -> dict[str, int]:
    base = os.path.join(root, "records")
    out = {}
    for d in sorted(os.listdir(base)):
        s = os.path.join(base, d, "_SUCCESS")
        if d.startswith("shard=") and os.path.exists(s):
            out[d] = os.stat(s).st_mtime_ns
    return out


def _triples(res) -> set:
    df = res["triples"].to_pandas()
    return set(map(tuple, df[["subj", "pred", "obj"]].values))


def test_fragment_drop_recomputes_only_its_shard(tiny_corpus, tmp_path):
    gaz = os.path.join(tiny_corpus, "gazetteer.parquet")
    cdir = str(tmp_path / "corpus")
    frags = _split_corpus(os.path.join(tiny_corpus, "corpus"), cdir, N_FRAGS)

    root = str(tmp_path / "ckpt")
    res1 = KGPipeline(checkpoint_root=root, num_shards=N_SHARDS).run(
        cdir, gaz)
    _ = _triples(res1)  # drive the lazy views so every stage materializes
    mt1 = _shard_success_mtimes(root)
    assert mt1, "first run wrote no shard checkpoints"

    # drop one fragment; identify its shard from the same stable hash
    dropped = frags[2]
    shards_before = _assign_shards_stable(frags, N_SHARDS)
    affected = next(i for i, s in enumerate(shards_before) if dropped in s)
    os.remove(dropped)
    remaining = [f for f in frags if f != dropped]
    shards_after = _assign_shards_stable(remaining, N_SHARDS)
    # stability property: every other shard's file list is unchanged
    for i in range(N_SHARDS):
        if i != affected:
            assert shards_after[i] == shards_before[i]

    res2 = KGPipeline(checkpoint_root=root, num_shards=N_SHARDS).run(
        cdir, gaz)
    tri2 = _triples(res2)
    mt2 = _shard_success_mtimes(root)

    for d, t in mt2.items():
        sid = int(d.split("=")[1])
        if sid != affected:
            assert t == mt1[d], f"{d} recomputed despite unchanged lineage"
    aff_dir = f"shard={affected:05d}"
    if shards_after[affected]:  # shard still has fragments: must recompute
        assert mt2[aff_dir] != mt1[aff_dir]
    else:  # shard lost its last fragment: dir must be gone
        assert aff_dir not in mt2

    # resumed output == a fresh run without a checkpoint_root, which
    # takes the same store-backed path through a temp root
    fresh = KGPipeline().run(cdir, gaz)
    assert tri2 == _triples(fresh)
    tmp_root = fresh["checkpoint_root"]
    assert os.path.commonpath([tmp_root, tempfile.gettempdir()]) \
        == tempfile.gettempdir()
    shards = [os.path.join("records", d)
              for d in os.listdir(os.path.join(tmp_root, "records"))]
    assert shards
    for stage in shards + ["triples", "entities"]:
        assert os.path.isfile(os.path.join(tmp_root, stage,
                                           "_MANIFEST.json")), stage
    again = KGPipeline().run(cdir, gaz)
    assert again["checkpoint_root"] != tmp_root
    assert _triples(again) == tri2
