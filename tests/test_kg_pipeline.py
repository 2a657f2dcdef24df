"""End-to-end KG pipeline tests: span-sequence preservation, triple P/R,
resume-equals-fresh, dedup fixpoint (SURVEY.md §5, BASELINE.json targets)."""

import os
import shutil

import pyarrow.parquet as pq
import pytest
import ray.data

from kgeng.pipeline import KGPipeline


def _triple_sets(res, corpus_dir):
    tri = res["triples"].to_pandas()
    gold = pq.read_table(
        os.path.join(corpus_dir, "golden_triples.parquet")).to_pandas()
    ps = set(map(tuple, tri[["subj", "pred", "obj"]].values))
    gs = set(map(tuple, gold[["subj", "pred", "obj"]].values))
    return ps, gs


@pytest.fixture(scope="module")
def tiny_run(tiny_corpus, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("ckpt_tiny"))
    p = KGPipeline(checkpoint_root=root)
    res = p.run(os.path.join(tiny_corpus, "corpus"),
                os.path.join(tiny_corpus, "gazetteer.parquet"),
                out_dir=os.path.join(root, "graph"))
    return p, res, root


def test_triple_precision_recall(tiny_run, tiny_corpus):
    _p, res, _root = tiny_run
    ps, gs = _triple_sets(res, tiny_corpus)
    precision = len(ps & gs) / len(ps)
    recall = len(ps & gs) / len(gs)
    assert precision >= 0.95, f"precision {precision}"
    assert recall >= 0.95, f"recall {recall}"


def test_receipt_triple_count_matches_full_count(tiny_run):
    """bench.py reports res['n_triples'] (manifest write receipts) instead
    of re-reading the triple table — the two must agree exactly."""
    _p, res, _root = tiny_run
    assert res["n_triples"] == res["triples"].count()


def test_span_sequence_preserved(tiny_corpus):
    """Per-row invariant (BASELINE.json:15): the (kind, text, media_ref)
    tuple sequence of every doc row survives the pipeline's document scan."""
    docs = ray.data.read_parquet(os.path.join(tiny_corpus, "corpus"))

    # identity-annotation stage: the docs table as the extract stage sees it
    def passthrough(batch):
        return batch

    out = docs.map_batches(passthrough, batch_format="pyarrow")
    orig = {r["doc_id"]: r["spans"] for r in docs.take_all()}
    after = {r["doc_id"]: r["spans"] for r in out.take_all()}
    assert set(orig) == set(after)
    for doc_id, spans in orig.items():
        got = after[doc_id]
        assert [(s["kind"], s["text"], s["media_ref"]) for s in spans] == \
            [(s["kind"], s["text"], s["media_ref"]) for s in got], doc_id


def test_confidence_rule(tiny_run, tiny_corpus):
    """Alias-resolved triples carry confidence 0.9; exact ones 1.0 — same
    rule as the golden construction."""
    _p, res, _root = tiny_run
    tri = res["triples"].to_pandas()
    assert set(tri["confidence"].astype(float).round(2).unique()) <= {0.9, 1.0}
    gold = pq.read_table(os.path.join(
        tiny_corpus, "golden_triples.parquet")).to_pandas()
    # the same (s,p,o,doc) can occur twice with different confidences (alias
    # in one sentence, exact in another) -> compare per-key conf multisets
    from collections import Counter

    def conf_multiset(df):
        out = {}
        for r in df.itertuples():
            k = (r.subj, r.pred, r.obj, r.doc_id)
            out.setdefault(k, Counter())[round(float(r.confidence), 2)] += 1
        return out

    gm, pm = conf_multiset(gold), conf_multiset(tri)
    common = set(gm) & set(pm)
    assert len(common) > 0
    mismatch = [k for k in common if gm[k] != pm[k]]
    assert not mismatch, mismatch[:5]


def test_resume_equals_fresh(tiny_corpus, tmp_path_factory):
    """Kill after stage k (simulated: delete downstream checkpoints),
    resume, outputs equal a fresh run (SURVEY.md §5.4)."""
    root = str(tmp_path_factory.mktemp("ckpt_resume"))
    p = KGPipeline(checkpoint_root=root)
    corpus = os.path.join(tiny_corpus, "corpus")
    gazp = os.path.join(tiny_corpus, "gazetteer.parquet")
    res1 = p.run(corpus, gazp)
    t1 = sorted(map(tuple, res1["triples"].to_pandas()[
        ["subj", "pred", "obj", "doc_id"]].values.tolist()))
    # wipe everything after the extract stage -> forces recompute of the rest
    for stage in ("linked", "pairs", "triples", "entities"):
        shutil.rmtree(os.path.join(root, stage), ignore_errors=True)
    os.remove(os.path.join(root, "resolution.json"))
    res2 = p.run(corpus, gazp, resume=True)
    t2 = sorted(map(tuple, res2["triples"].to_pandas()[
        ["subj", "pred", "obj", "doc_id"]].values.tolist()))
    assert t1 == t2
    # shard checkpoints of the extract stage were reused, not recomputed
    from kgeng.checkpoint import CheckpointStore
    store = CheckpointStore(root, p.cfg.config_hash())
    assert store.is_done("records", shard=0)


def test_graph_export_reused_on_resume(tiny_corpus, tmp_path_factory):
    """A resumed run with an intact previous export (same lineage) must
    NOT rewrite the vertex/edge collections; a changed input fileset
    must."""
    import glob

    root = str(tmp_path_factory.mktemp("ckpt_gexp"))
    gdir = os.path.join(root, "graph")
    corpus = os.path.join(tiny_corpus, "corpus")
    gazp = os.path.join(tiny_corpus, "gazetteer.parquet")
    p = KGPipeline(checkpoint_root=root)
    p.run(corpus, gazp, out_dir=gdir)
    vfiles = sorted(glob.glob(os.path.join(gdir, "entities", "*")))
    assert vfiles and os.path.exists(os.path.join(gdir, "_SUCCESS"))
    stamps = {f: os.path.getmtime(f) for f in vfiles}
    p.run(corpus, gazp, out_dir=gdir)  # resume: export reused
    assert {f: os.path.getmtime(f)
            for f in sorted(glob.glob(
                os.path.join(gdir, "entities", "*")))} == stamps
    # a missing _SUCCESS (crashed half-export) forces a rewrite
    os.remove(os.path.join(gdir, "_SUCCESS"))
    p.run(corpus, gazp, out_dir=gdir)
    assert os.path.exists(os.path.join(gdir, "_SUCCESS"))
    new = sorted(glob.glob(os.path.join(gdir, "entities", "*")))
    assert {f: os.path.getmtime(f) for f in new} != stamps


def test_watch_report(tiny_run):
    """watch.py --once prints the consolidated per-stage totals table
    (the start_Pregel.py:123-164 end-of-run report analogue)."""
    import subprocess
    import sys

    _p, _res, root = tiny_run
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(repo, "scripts", "watch.py"),
         root, "--once"], capture_output=True, text=True, check=True).stdout
    assert "run report:" in out and "TOTAL" in out
    for stage in ("records", "triples", "entities"):
        assert stage in out
    assert "resolution map:" in out


def test_resume_invalidated_by_shard_layout_change(tiny_corpus,
                                                   tmp_path_factory):
    """Re-running the same checkpoint root with a different --num-shards
    must NOT pass is_done() for old shards (stale/fresh shard mixing);
    the run recomputes and still produces the same triples."""
    import pyarrow.parquet as pq

    # 3-file corpus: files[i::3] vs files[i::2] layouts actually differ
    src = pq.read_table(os.path.join(tiny_corpus, "corpus",
                                     "part-00000.parquet"))
    cdir = tmp_path_factory.mktemp("corpus3")
    third = max(1, len(src) // 3)
    for k in range(3):
        part = src.slice(k * third,
                         third if k < 2 else len(src) - 2 * third)
        pq.write_table(part, str(cdir / f"part-{k:05d}.parquet"))
    corpus = str(cdir)
    gazp = os.path.join(tiny_corpus, "gazetteer.parquet")

    root = str(tmp_path_factory.mktemp("ckpt_shards"))
    res1 = KGPipeline(checkpoint_root=root, num_shards=3).run(corpus, gazp)
    t1 = sorted(map(tuple, res1["triples"].to_pandas()[
        ["subj", "pred", "obj", "doc_id"]].values.tolist()))

    p2 = KGPipeline(checkpoint_root=root, num_shards=2)
    from kgeng.checkpoint import CheckpointStore
    from kgeng.pipeline import _assign_shards_stable, _list_parquet_files
    store = CheckpointStore(root, p2.cfg.config_hash())
    files = _list_parquet_files(corpus)
    s3 = _assign_shards_stable(files, 3)
    s2 = _assign_shards_stable(files, 2)
    # pick a shard id populated under BOTH layouts whose file list differs:
    # its old checkpoint must fail the lineage gate under the new layout
    probe = next(i for i in range(2) if s3[i] and s2[i] and s3[i] != s2[i])
    import hashlib
    with open(gazp, "rb") as gf:
        gsha = hashlib.sha1(gf.read()).hexdigest()
    assert store.is_done("records", shard=probe,
                         lineage={"files": s3[probe],
                                  "gazetteer_sha1": gsha})
    assert not store.is_done("records", shard=probe,
                             lineage={"files": s2[probe],
                                      "gazetteer_sha1": gsha})
    res2 = p2.run(corpus, gazp, resume=True)
    t2 = sorted(map(tuple, res2["triples"].to_pandas()[
        ["subj", "pred", "obj", "doc_id"]].values.tolist()))
    assert t1 == t2
    # no orphaned shard dir from the 3-shard layout survives
    recs = os.path.join(root, "records")
    shard_dirs = sorted(d for d in os.listdir(recs)
                        if d.startswith("shard="))
    expect = sorted(f"shard={i:05d}" for i, s in enumerate(s2) if s)
    assert shard_dirs == expect


def test_canonicalization_fixpoint(tiny_run, tiny_corpus):
    """Re-running canonicalization over already-canonical surfaces is a
    fixpoint: every resolved surface maps to the same entity again."""
    p, res, _root = tiny_run
    resolution = res["resolution"]
    # canonical (gazetteer) surfaces map to themselves' entity, non-alias
    from kgeng.ops.extract import load_gazetteer_dict
    gaz = load_gazetteer_dict(os.path.join(tiny_corpus, "gazetteer.parquet"))
    for s, (eid, via_alias) in resolution.items():
        if s in gaz:
            assert not via_alias and gaz[s][0] == eid


def test_graph_materialization(tiny_run):
    _p, _res, root = tiny_run
    gdir = os.path.join(root, "graph")
    assert os.path.exists(os.path.join(gdir, "graph.json"))
    verts = ray.data.read_parquet(os.path.join(gdir, "entities")).to_pandas()
    edges = ray.data.read_parquet(os.path.join(gdir, "triples")).to_pandas()
    # smart layout: _key == f"{eid}:{eid}" (graphalytics_importer.py:87,93)
    for r in verts.itertuples():
        assert r._2 == f"{r.entity_id}:{r.entity_id}" or \
            r._asdict()["_key"] == f"{r.entity_id}:{r.entity_id}"
    # _from/_to format "<vcoll>/<smart>:<idx>" (vertices_generator.py:153-157)
    assert edges["_from"].str.match(r"entities/.+:.+").all()
    # every edge endpoint exists as a vertex (vertices-before-edges invariant)
    vkeys = set("entities/" + verts["_key"])
    assert set(edges["_from"]) <= vkeys
    assert set(edges["_to"]) <= vkeys
    # confidence stored as string (weight-as-string, edge_list.py:33)
    assert edges["confidence"].map(type).eq(str).all()


def test_decoys_are_dropped(tiny_run):
    """Decoy capitalized phrases (non-entities) produce NER candidates and
    even relation records, but must never resolve to entities or emit
    triples (precision path)."""
    _p, res, _root = tiny_run
    from kgeng.synth.corpus import _DECOY_A

    decoy_words = set(_DECOY_A)
    # no decoy ever resolves
    for surf, (eid, _via) in res["resolution"].items():
        assert surf.split(" ")[0] not in decoy_words, (surf, eid)
    # but decoy candidates WERE seen by the pipeline (the path is live)
    linked = res["linked"].to_pandas()
    ner = linked[linked["source"] == "ner"]["surface"]
    assert any(s.split(" ")[0] in decoy_words for s in ner)
    # and no triple references a decoy pseudo-entity
    tri = res["triples"].to_pandas()
    assert not tri["subj"].str.startswith("Quantum").any()


def test_distributed_canonicalization_fallback_matches_driver_path(
        tiny_corpus, tmp_path_factory):
    """Forcing the extreme-cardinality fallback (driver_max_surfaces=0 ->
    distributed candidate_pairs + Dataset union-find) must produce the
    same triple set as the default driver-side plan A."""
    root = str(tmp_path_factory.mktemp("ckpt_fallback"))
    p = KGPipeline(checkpoint_root=root, driver_max_surfaces=0)
    res = p.run(os.path.join(tiny_corpus, "corpus"),
                os.path.join(tiny_corpus, "gazetteer.parquet"))
    ps, gs = _triple_sets(res, tiny_corpus)
    assert len(ps & gs) / len(ps) >= 0.95
    assert len(ps & gs) / len(gs) >= 0.95


def test_degenerate_corpus_zero_triples(tmp_path_factory):
    """ADVICE r02 (low): a corpus yielding zero triples writes no
    t_kind=triple / t_kind=eid partition files; stages 4/5 must read
    them back as EMPTY datasets instead of crashing read_parquet([])."""
    import pyarrow as pa

    from kgeng.synth.corpus import SPAN_TYPE

    root = str(tmp_path_factory.mktemp("ckpt_degen"))
    cdir = os.path.join(root, "corpus")
    os.makedirs(cdir)
    spans = [[{"kind": "text", "text": "nothing of note here",
               "media_ref": "", "offset": 0}]] * 6
    pq.write_table(pa.table({
        "doc_id": pa.array([f"dg-{i}" for i in range(6)]),
        "spans": pa.array(spans, pa.list_(SPAN_TYPE)),
    }), os.path.join(cdir, "part-00000.parquet"))
    gazp = os.path.join(root, "gazetteer.parquet")
    pq.write_table(pa.table({"surface": ["Unseen Entity"],
                             "entity_id": ["E0"],
                             "ent_type": ["ORG"]}), gazp)
    res = KGPipeline(checkpoint_root=os.path.join(root, "ck"),
                     num_shards=1).run(cdir, gazp)
    assert res["triples"].count() == 0
    assert res["entities"].count() == 0
    # resumed run over the same empty checkpoints also works
    res2 = KGPipeline(checkpoint_root=os.path.join(root, "ck"),
                      num_shards=1).run(cdir, gazp)
    assert res2["triples"].count() == 0


def test_identical_content_blocks_write_safely(tmp_path_factory):
    """Two blocks with byte-identical content (the per-batch 'eid' side
    partitions routinely repeat the same small id set) must collapse to
    one content-keyed part file without racing on a shared tmp path, and
    the manifest receipts must match the rows actually on disk."""
    import pyarrow as pa

    from kgeng.checkpoint import _parquet_files, _write_partitioned

    out = str(tmp_path_factory.mktemp("ident_blocks"))
    tbl = pa.table({"rec_kind": ["eid"] * 3, "subj": ["E1", "E2", "E3"]})
    # many identical blocks written concurrently: before the uuid tmp
    # suffix this raced (writer A renamed the tmp writer B re-created)
    ds = ray.data.from_arrow([tbl] * 16)
    receipts = _write_partitioned(ds, out, ["rec_kind"],
                                  projections={"eid": ["subj"]})
    files = _parquet_files(out)
    assert len(files) == 1  # identical content collapses to one part
    assert pq.read_table(files[0])["subj"].to_pylist() == ["E1", "E2", "E3"]
    ((key, rows),) = receipts.items()
    assert key[0] == "rec_kind=eid" and rows == 3


def test_vectorized_media_resolve_matches_per_row_reference():
    """resolve_media picks the FIRST '|'-candidate that resolves, in
    candidate order, dropping rows where none resolves — the vectorized
    (split + index_in + searchsorted) kernel must match the per-row
    reference loop exactly, including multi-chunk inputs, null subj, and
    empty candidate lists."""
    import pyarrow as pa

    from kgeng.ops.triples import ResolveTriples

    res = {"Ada Lovelace": ("E1", False), "A. Lovelace": ("E1", True),
           "Grace Hopper": ("E2", False)}
    r = ResolveTriples(res)
    chunk1 = pa.table({
        "subj": ["Nobody|A. Lovelace|Ada Lovelace",  # 2nd wins, not 3rd
                 "Grace Hopper",                      # direct hit
                 "Unknown|Missing",                   # dropped
                 ""],                                 # dropped
        "obj": ["media://a", "media://b", "media://c", "media://d"],
        "doc_id": ["d1", "d2", "d3", "d4"],
    })
    chunk2 = pa.table({
        "subj": [None, "Ada Lovelace|Grace Hopper"],  # null dropped
        "obj": ["media://e", "media://f"],
        "doc_id": ["d5", "d6"],
    })
    med = pa.concat_tables([chunk1, chunk2])

    out = r.resolve_media(med)
    # per-row reference
    want = []
    for cand, obj, doc in zip(med["subj"].to_pylist(),
                              med["obj"].to_pylist(),
                              med["doc_id"].to_pylist()):
        for s in (cand or "").split("|"):
            if s in res:
                want.append((res[s][0], obj, doc))
                break
    got = list(zip(out["subj"].to_pylist(), out["obj"].to_pylist(),
                   out["doc_id"].to_pylist()))
    assert got == want == [("E1", "media://a", "d1"),
                           ("E2", "media://b", "d2"),
                           ("E1", "media://f", "d6")]
    assert out["pred"].to_pylist() == ["mentions_media"] * 3


def test_resume_invalidated_by_gazetteer_change(tiny_corpus,
                                                tmp_path_factory):
    """Editing the gazetteer must invalidate checkpoints: linking,
    resolution, and early-emitted triples all depend on its content, so
    a resumed run over the same corpus must recompute and reflect the
    NEW gazetteer, never serve stale entities."""
    import pyarrow.parquet as pq

    corpus = os.path.join(tiny_corpus, "corpus")
    gaz1 = os.path.join(tiny_corpus, "gazetteer.parquet")
    root = str(tmp_path_factory.mktemp("ckpt_gaz"))

    res1 = KGPipeline(checkpoint_root=root).run(corpus, gaz1)
    subj1 = set(res1["triples"].to_pandas()["subj"])

    # drop one entity from the gazetteer -> its id must vanish
    g = pq.read_table(gaz1)
    victims = [e for e in set(g["entity_id"].to_pylist()) if e in subj1]
    assert victims, "test needs an entity that actually produced triples"
    victim = sorted(victims)[0]
    import pyarrow.compute as _pc
    g2 = g.filter(_pc.not_equal(g["entity_id"], victim))
    gaz2 = str(tmp_path_factory.mktemp("gaz") / "gazetteer.parquet")
    pq.write_table(g2, gaz2)

    res2 = KGPipeline(checkpoint_root=root).run(corpus, gaz2)
    subj2 = set(res2["triples"].to_pandas()["subj"])
    assert victim in subj1 and victim not in subj2


def test_graph_export_crash_states_force_rewrite(tiny_corpus,
                                                 tmp_path_factory):
    """Either reuse marker missing (a crash between the destructive
    rewrite steps) must force a full rewrite — a stale manifest alone
    must never validate collections it did not describe."""
    import glob

    root = str(tmp_path_factory.mktemp("ckpt_crash"))
    gdir = os.path.join(root, "graph")
    corpus = os.path.join(tiny_corpus, "corpus")
    gazp = os.path.join(tiny_corpus, "gazetteer.parquet")
    p = KGPipeline(checkpoint_root=root)
    p.run(corpus, gazp, out_dir=gdir)

    def stamps():
        return {f: os.path.getmtime(f) for f in sorted(
            glob.glob(os.path.join(gdir, "entities", "*")))}

    # crash state A: manifest missing, _SUCCESS present
    s0 = stamps()
    os.remove(os.path.join(gdir, "graph.json"))
    p.run(corpus, gazp, out_dir=gdir)
    assert os.path.exists(os.path.join(gdir, "graph.json"))
    assert stamps() != s0  # rewritten

    # crash state B: _SUCCESS missing, manifest present (already covered
    # elsewhere; assert here for the pair)
    s1 = stamps()
    os.remove(os.path.join(gdir, "_SUCCESS"))
    p.run(corpus, gazp, out_dir=gdir)
    assert os.path.exists(os.path.join(gdir, "_SUCCESS"))
    assert stamps() != s1


def test_incremental_append_extracts_only_new_fragment(
        tiny_corpus, tmp_path_factory):
    """Appending a corpus fragment re-extracts ONLY the shard that
    holds it (hash-stable assignment); downstream stages recompute and
    the final entities equal the batch run over the full corpus."""
    import json

    src = pq.read_table(os.path.join(tiny_corpus, "corpus",
                                     "part-00000.parquet"))
    cdir = tmp_path_factory.mktemp("corpus_inc")
    half = len(src) // 2
    pq.write_table(src.slice(0, half), str(cdir / "inc-00000.parquet"))
    gazp = os.path.join(tiny_corpus, "gazetteer.parquet")
    root = str(tmp_path_factory.mktemp("ckpt_inc"))

    p = KGPipeline(checkpoint_root=root, num_shards=8)
    p.run(str(cdir), gazp, resume=True)

    def shard_manifests():
        out = {}
        base = os.path.join(root, "records")
        for d in sorted(os.listdir(base)):
            if not d.startswith("shard="):
                continue
            mf = os.path.join(base, d, "_MANIFEST.json")
            if os.path.exists(mf):
                with open(mf) as f:
                    out[d] = (os.path.getmtime(mf), json.load(f))
        return out

    before = shard_manifests()
    assert before, "phase-1 extraction wrote no shard manifests"

    # the append
    pq.write_table(src.slice(half), str(cdir / "inc-00001.parquet"))
    res = p.run(str(cdir), gazp, resume=True)
    after = shard_manifests()

    changed = {d for d in after
               if d not in before or after[d][0] != before[d][0]}
    import zlib
    new_shard = f"shard={zlib.crc32(b'inc-00001.parquet') % 8:05d}"
    assert new_shard in changed
    # every pre-existing shard was reused untouched
    assert changed == {new_shard}, changed

    # incremental result == batch run over the full corpus
    batch = KGPipeline(checkpoint_root=str(
        tmp_path_factory.mktemp("ckpt_batch")), num_shards=8) \
        .run(str(cdir), gazp, resume=True)
    inc_e = res["entities"].to_pandas().sort_values(
        "entity_id").reset_index(drop=True)
    bat_e = batch["entities"].to_pandas().sort_values(
        "entity_id").reset_index(drop=True)
    inc_e["surface_forms"] = inc_e["surface_forms"].map(tuple)
    bat_e["surface_forms"] = bat_e["surface_forms"].map(tuple)
    assert inc_e.equals(bat_e)


def test_stage_walls_record_materialize_only_with_out_dir(tiny_run,
                                                          tiny_corpus):
    """The graph export has its own ``materialize`` wall; a run without
    ``out_dir`` exports nothing and records none."""
    p, res, root = tiny_run
    assert res["stage_walls"]["materialize"] >= 0
    res2 = p.run(os.path.join(tiny_corpus, "corpus"),
                 os.path.join(tiny_corpus, "gazetteer.parquet"))
    assert "materialize" not in res2["stage_walls"]
    assert "entities" in res2["stage_walls"]


def _sorted_rows(t):
    return t.sort_by([(c, "ascending") for c in t.column_names]).to_pylist()


@pytest.mark.parametrize("smart_attribute", ["entity_id", "part"])
def test_graph_export_driver_plan_matches_ray_plan(
        tiny_corpus, tmp_path_factory, monkeypatch, smart_attribute):
    """Below the bytes cutover the checkpointed export is built on the
    driver (one file per collection); with the cutover forced to 0 the
    Ray plan writes it. Both must write the same schemas and rows."""
    import glob

    from kgeng import pipeline as pl
    from kgeng.config import PipelineConfig, SmartGraphConfig

    root = str(tmp_path_factory.mktemp("ckpt_plans"))
    corpus = os.path.join(tiny_corpus, "corpus")
    gazp = os.path.join(tiny_corpus, "gazetteer.parquet")
    p = KGPipeline(PipelineConfig(smart=SmartGraphConfig(
        smart_attribute=smart_attribute)), checkpoint_root=root)
    driver_dir = os.path.join(root, "graph_driver")
    p.run(corpus, gazp, out_dir=driver_dir)
    monkeypatch.setattr(pl, "_DRIVER_SIDE_READ_BYTES", 0)
    ray_dir = os.path.join(root, "graph_ray")
    p.run(corpus, gazp, out_dir=ray_dir)  # stages resume; export differs

    for coll in ("entities", "triples"):
        assert [os.path.basename(f) for f in glob.glob(
            os.path.join(driver_dir, coll, "*"))] == ["part-00000.parquet"]
        d = pq.read_table(os.path.join(driver_dir, coll))
        r = pq.read_table(os.path.join(ray_dir, coll))
        assert d.num_rows > 0
        assert d.schema.equals(r.schema), (d.schema, r.schema)
        assert _sorted_rows(d) == _sorted_rows(r)
    v = pq.read_table(os.path.join(driver_dir, "entities"))
    assert "MEDIA" in v["part"].to_pylist()


def test_confidence_strings_match_reference_formatting():
    """Vectorized confidence strings: float32 at float32 precision,
    float64 as the f-string form, and byte-equal to the per-row loop
    they replace."""
    import numpy as np
    import pyarrow as pa

    from kgeng.io.sink import confidence_strings

    def per_row(arr):
        if pa.types.is_float32(arr.type):
            return [np.format_float_positional(np.float32(v), trim="0")
                    for v in arr.to_pylist()]
        return [f"{float(v)}" for v in arr.to_pylist()]

    assert confidence_strings(
        pa.array([0.9, 1.0, 0.9], pa.float32())).to_pylist() == \
        ["0.9", "1.0", "0.9"]
    assert confidence_strings(
        pa.array([0.1 + 0.2], pa.float64())).to_pylist() == \
        ["0.30000000000000004"]
    for typ in (pa.float32(), pa.float64()):
        assert confidence_strings(pa.array([], typ)).to_pylist() == []
        assert confidence_strings(
            pa.chunked_array([], typ)).to_pylist() == []
    rng = np.random.default_rng(7)
    for dt in (np.float32, np.float64):
        # random values plus repeats, so the dictionary path is exercised
        vals = np.r_[rng.random(500), [0.9, 1.0] * 50].astype(dt)
        arr = pa.chunked_array([pa.array(vals[:300]), pa.array(vals[300:])])
        got = confidence_strings(arr)
        assert got.type == pa.string()
        assert got.to_pylist() == per_row(pa.array(vals))
