"""Training-data operators: dedup family, text analysis, similarity,
salted aggregation, multimodal stubs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from kgeng.ops import agg, dedup, media, similarity, text

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs():
    return ray.data.read_parquet(f"{SF}/documents.parquet")


# ------------------------------------------------------------------ text

def test_token_count_matches_python(docs):
    out = text.add_token_count(docs).take_all()
    for r in out[:50]:
        assert r["n_tokens"] == len(r["text"].split())


def test_null_text_is_safe_everywhere():
    """Real corpora carry null texts; every text/dedup kernel must treat
    null as empty instead of crashing the worker."""
    t = pa.table({"doc_id": ["a", "b", "c"],
                  "text": pa.array(["hello world", None, ""], pa.string())})
    ds = ray.data.from_arrow(t)
    for fn in (text.add_token_count, text.add_token_count_bpe,
               text.add_quality_score, text.add_lang_id,
               text.add_fingerprint, dedup.add_simhash,
               dedup.exact_dedup, dedup.minhash_lsh_candidates):
        fn(ds).take_all()
    # null and "" hash identically in exact dedup (coalesce semantics)
    out = {r["doc_id"]: r["n_dups"]
           for r in dedup.exact_dedup(ds).take_all()}
    assert out == {"a": 1, "b": 2}


def test_minhash_dedup_null_text_pairs():
    """ADVICE r02: two null-text docs band identically and become a
    candidate pair — the Jaccard verify (both plan A and plan B) must
    coalesce null to '' instead of crashing, and cluster them."""
    t = pa.table({"doc_id": ["n1", "n2", "x1"],
                  "text": pa.array([None, None, "a real document with "
                                    "plenty of distinct words"],
                                   pa.string())})
    ds = ray.data.from_arrow(t)
    for plan_kw in ({}, {"driver_max_pairs": 0}):
        rep = {r["doc_id"]: r["cluster_rep"]
               for r in dedup.minhash_dedup(ds, threshold=0.5,
                                            **plan_kw).take_all()}
        assert rep["n1"] == rep["n2"]
        assert rep["x1"] != rep["n1"]


def test_lang_id_vectorized_matches_scalar_reference():
    """The Arrow-regex LangId kernel must reproduce the per-row scalar
    heuristic exactly (counts, tie-break order, unknown/zh rules)."""
    from kgeng.ops.text import LangId, lang_id_scalar

    rng = np.random.default_rng(9)
    vocab = (["the", "of", "and", "to", "in", "is", "cat", "der", "und",
              "nicht", "le", "la", "les", "est", "el", "los", "una",
              "por", "con", "que", "straße", "café", "naïve", "x9"]
             + [f"rnd{i}" for i in range(30)])
    texts = []
    for _ in range(800):
        t = " ".join(rng.choice(vocab, size=int(rng.integers(0, 25))))
        if rng.random() < 0.05:
            t += " 中文文本"
        if rng.random() < 0.1:
            t = t.upper()
        texts.append(t)
    texts += [None, "", "don't it's", "a", "THE THE THE", "中",
              "la la la", "y"]
    batch = pa.table({"doc_id": [str(i) for i in range(len(texts))],
                      "text": pa.array(texts, pa.string())})
    got = LangId()(batch)["lang_pred"].to_pylist()
    assert got == [lang_id_scalar(t) for t in texts]


def test_bpe_token_count():
    t = pa.table({"doc_id": ["a", "b", "c"],
                  "text": ["Hello, world!  It's 2026.",
                           "", "a1b2 --x"]})
    out = {r["doc_id"]: r["n_bpe_tokens"]
           for r in text.add_token_count_bpe(
               ray.data.from_arrow(t)).take_all()}
    # Hello , world ! It ' s 2026 .  -> 9
    assert out == {"a": 9, "b": 0, "c": 7}


def test_quality_score_deterministic(docs):
    a = text.add_quality_score(docs).to_pandas().sort_values("doc_id")
    b = text.add_quality_score(docs).to_pandas().sort_values("doc_id")
    assert np.array_equal(a["quality_score"].values,
                          b["quality_score"].values)
    assert (a["alpha_ratio"] <= 1.0).all()


def test_lang_id_runs(docs):
    out = text.add_lang_id(docs).take_all()
    assert all(r["lang_pred"] in {"en", "de", "fr", "es", "zh", "unknown"}
               for r in out)


def test_fingerprint_stable_under_paraphrase_prefix():
    t = pa.table({"doc_id": [1, 2], "text": ["a b c d e f g h"] * 2})
    out = text.add_fingerprint(ray.data.from_arrow(t)).take_all()
    assert out[0]["fingerprint"] == out[1]["fingerprint"]


# ----------------------------------------------------------------- dedup

def test_exact_dedup_counts():
    t = pa.table({"doc_id": [3, 1, 2, 10, 5],
                  "text": ["x", "x", "y", "y", "z"]})
    out = dedup.exact_dedup(ray.data.from_arrow(t)).take_all()
    got = {(r["doc_id"], r["n_dups"]) for r in out}
    assert got == {(1, 2), (2, 2), (5, 1)}


def test_minhash_dedup_clusters_near_duplicates():
    base = ("the quick brown fox jumps over the lazy dog and then runs "
            "far away into the deep green forest tonight")
    near = base.replace("green", "dark")
    other = "completely different words about spark ray data engines " \
            "processing huge tables quickly with arrow batches"
    t = pa.table({"doc_id": ["d1", "d2", "d3"],
                  "text": [base, near, other]})
    out = dedup.minhash_dedup(ray.data.from_arrow(t), threshold=0.5,
                              num_perm=64, num_bands=32).take_all()
    rep = {r["doc_id"]: r["cluster_rep"] for r in out}
    assert rep["d1"] == rep["d2"]
    assert rep["d3"] != rep["d1"]


def test_minhash_dedup_distributed_verify_parity():
    """Plan B (hash-join verify, no driver text dict) must produce the
    same clustering as plan A on a ~50%-duplication corpus."""
    rng = np.random.default_rng(11)
    vocab = [f"word{i}" for i in range(200)]
    texts, ids = [], []
    for i in range(40):
        base = " ".join(rng.choice(vocab, size=25))
        ids.append(f"o{i:03d}")
        texts.append(base)
        # near-duplicate: one token swapped
        toks = base.split()
        toks[int(rng.integers(0, len(toks)))] = "swapped"
        ids.append(f"d{i:03d}")
        texts.append(" ".join(toks))
    t = pa.table({"doc_id": ids, "text": texts})
    ds = ray.data.from_arrow(t)
    plan_a = {r["doc_id"]: r["cluster_rep"]
              for r in dedup.minhash_dedup(ds, threshold=0.5).take_all()}
    plan_b = {r["doc_id"]: r["cluster_rep"]
              for r in dedup.minhash_dedup(
                  ds, threshold=0.5, driver_max_pairs=0).take_all()}
    assert plan_a == plan_b
    # and the dups actually clustered with their originals
    n_clustered = sum(1 for i in range(40)
                      if plan_b[f"o{i:03d}"] == plan_b[f"d{i:03d}"])
    assert n_clustered >= 35  # LSH recall at J~0.55 with r=2 bands


def test_simhash_near_dup():
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    near = base.replace("kappa", "kappa", 1)
    other = "one two three four five six seven eight nine ten " * 3
    t = pa.table({"doc_id": ["a", "b", "c"],
                  "text": [base, near, other]})
    pairs = dedup.simhash_near_dup_pairs(
        ray.data.from_arrow(t), max_hamming=3).take_all()
    got = {(r["a"], r["b"]) for r in pairs}
    assert ("a", "b") in got
    assert not any("c" in p for p in got)
    # bounds beyond the 4x16-bit banding guarantee are rejected, not
    # silently under-delivered
    with pytest.raises(ValueError):
        dedup.simhash_near_dup_pairs(ray.data.from_arrow(t),
                                     max_hamming=8)


def test_ngram_jaccard_kernel():
    assert dedup.ngram_jaccard("a b c d", "a b c d") == 1.0
    assert dedup.ngram_jaccard("a b c d", "x y z w") == 0.0


# ------------------------------------------------------------ similarity

@pytest.fixture(scope="module")
def embeddings():
    return ray.data.read_parquet(f"{SF}/embeddings.parquet")


def test_brute_force_topk_exact(embeddings):
    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{SF}/embeddings.parquet")
    m = np.array(tbl["embedding"].to_pylist(), dtype=np.float64)
    ids = tbl["vec_id"].to_pylist()
    q = m[:2]
    out = similarity.brute_force_topk(
        embeddings, q, query_ids=ids[:2], k=5).to_pandas()
    # numpy reference
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = np.round(mn @ qn.T, 6)
    for qi, qid in enumerate(ids[:2]):
        order = np.lexsort((np.asarray(ids), -sims[:, qi]))[:5]
        want = [ids[i] for i in order]
        got = out[out["query_id"] == qid].sort_values(
            ["sim", "vec_id"], ascending=[False, True])["vec_id"].tolist()
        assert got == want
        # self-similarity 1.0 at the top
        assert got[0] == qid


def test_lsh_topk_recall(embeddings):
    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{SF}/embeddings.parquet")
    m = np.array(tbl["embedding"].to_pylist(), dtype=np.float64)
    ids = tbl["vec_id"].to_pylist()
    exact = similarity.brute_force_topk(
        embeddings, m[:4], ids[:4], k=5).to_pandas()
    approx = similarity.lsh_topk(
        embeddings, m[:4], ids[:4], k=5, num_planes=4,
        num_tables=16).to_pandas()
    # recall of the approximate result vs exact, averaged over queries
    recs = []
    for qid in ids[:4]:
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recs.append(len(e & a) / len(e))
    assert np.mean(recs) >= 0.5  # approximate path finds most neighbours
    # and always finds the vector itself
    for qid in ids[:4]:
        assert qid in set(approx[approx["query_id"] == qid]["vec_id"])


def test_embedding_near_dup_finds_duplicated_vector():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((20, 16))
    base[7] = base[3] + rng.standard_normal(16) * 0.01  # near-dup pair
    t = pa.table({"vec_id": [str(i) for i in range(20)],
                  "embedding": [r.tolist() for r in base]})
    pairs = similarity.embedding_near_dup(
        ray.data.from_arrow(t), threshold=0.99,
        num_planes=0).take_all()  # num_planes=0 => exact
    got = {(r["a"], r["b"]) for r in pairs}
    assert ("3", "7") in got


# -------------------------------------------------------------- salted agg

def test_salted_count_matches_naive():
    keys = (["hot"] * 500) + [f"k{i}" for i in range(50)] * 2
    t = pa.table({"k": keys})
    out = agg.salted_count(ray.data.from_arrow(t), "k",
                           salt=8).to_pandas()
    m = dict(zip(out["k"], out["n"]))
    assert m["hot"] == 500
    assert m["k0"] == 2 and len(m) == 51


def test_partial_sum_matches_naive():
    t = pa.table({"k": ["a", "b", "a", "a"], "v": [1.0, 2.0, 3.0, 4.0]})
    out = agg.partial_sum(ray.data.from_arrow(t), "k", "v").to_pandas()
    m = dict(zip(out["k"], out["total"]))
    assert m == {"a": 8.0, "b": 2.0}


# ------------------------------------------------------------------ media

def test_media_featurizer_deterministic():
    refs = [f"media://{i:03d}" for i in range(10)]
    tbl = media.synth_media_table(refs)
    ds = ray.data.from_arrow(tbl)
    a = media.featurize_media(ds, dim=16).to_pandas().sort_values("media_ref")
    b = media.featurize_media(ds, dim=16).to_pandas().sort_values("media_ref")
    assert a["features"].map(tuple).tolist() == \
        b["features"].map(tuple).tolist()
    assert all(len(f) == 16 for f in a["features"])
    assert (a["n_bytes"] > 0).all()


def test_real_decode_seam_raises():
    with pytest.raises(NotImplementedError):
        media.decode_real(b"bytes", "image")


def test_frame_sampler():
    tbl = media.synth_media_table([f"media://{i}" for i in range(20)])
    vids = tbl.filter(pa.compute.equal(tbl["kind"], "video"))
    if vids.num_rows == 0:
        pytest.skip("no synthetic videos at this seed")
    out = ray.data.from_arrow(vids).map_batches(
        media.FrameSampler, fn_constructor_kwargs={"stride_ms": 5000},
        batch_format="pyarrow", concurrency=1).take_all()
    assert len(out) >= vids.num_rows  # at least one frame per video
    assert all(r["frame_ms"] % 5000 == 0 for r in out)


def test_ivf_topk_recall(embeddings):
    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{SF}/embeddings.parquet")
    m = np.array(tbl["embedding"].to_pylist(), dtype=np.float64)
    ids = tbl["vec_id"].to_pylist()
    exact = similarity.brute_force_topk(
        embeddings, m[:4], ids[:4], k=5).to_pandas()
    approx = similarity.ivf_topk(
        embeddings, m[:4], ids[:4], k=5, num_cells=8,
        nprobe=4).to_pandas()
    recs = []
    for qid in ids[:4]:
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recs.append(len(e & a) / len(e))
    assert np.mean(recs) >= 0.5
    for qid in ids[:4]:  # the vector itself is always in its own cell
        assert qid in set(approx[approx["query_id"] == qid]["vec_id"])


def test_minhash_dedup_idempotent():
    """Dedup is a fixpoint: re-running clustering on the same input yields
    identical cluster assignments (SURVEY.md §5.4)."""
    texts = [f"common words shared {i % 3} alpha beta gamma delta epsilon "
             f"zeta eta theta" for i in range(12)]
    t = pa.table({"doc_id": [f"d{i}" for i in range(12)], "text": texts})
    a = {r["doc_id"]: r["cluster_rep"] for r in dedup.minhash_dedup(
        ray.data.from_arrow(t), threshold=0.6).take_all()}
    b = {r["doc_id"]: r["cluster_rep"] for r in dedup.minhash_dedup(
        ray.data.from_arrow(t), threshold=0.6).take_all()}
    assert a == b
    # docs with identical text cluster together
    for i in range(12):
        for j in range(12):
            if texts[i] == texts[j]:
                assert a[f"d{i}"] == a[f"d{j}"]


def test_grouped_quantiles_auto_cutover():
    """The exact/sketch guard must be executable: low group count routes
    to the exact path (matches numpy quantile), high group count routes
    to the histogram sketch (bounded error, no raw-value collection)."""
    from kgeng.ops import rank

    rng = np.random.default_rng(21)
    # low cardinality: 3 groups -> exact
    t = pa.table({"k": [f"g{i % 3}" for i in range(3000)],
                  "v": rng.normal(100, 10, 3000)})
    ds = ray.data.from_arrow(t)
    out = {(r["k"], r["q"]): r["quantile_value"]
           for r in rank.grouped_quantiles_auto(
               ds, "k", "v", [0.5], max_exact_groups=10).take_all()}
    import numpy as _np
    for g in range(3):
        vals = t.filter(pa.compute.equal(t["k"], f"g{g}"))["v"].to_numpy()
        assert abs(out[(f"g{g}", 0.5)]
                   - round(float(_np.quantile(vals, 0.5)), 6)) < 1e-9
    # high cardinality (> cap) -> sketch; error bounded by bucket width
    n_groups = 500
    t2 = pa.table({"k": [f"h{i % n_groups}" for i in range(20000)],
                   "v": rng.uniform(0, 1000, 20000)})
    ds2 = ray.data.from_arrow(t2)
    out2 = {(r["k"], r["q"]): r["quantile_value"]
            for r in rank.grouped_quantiles_auto(
                ds2, "k", "v", [0.5], max_exact_groups=100,
                num_bins=512).take_all()}
    assert len(out2) == n_groups
    vals0 = t2.filter(pa.compute.equal(t2["k"], "h0"))["v"].to_numpy()
    width = (vals0.max() - vals0.min()) / 512
    assert abs(out2[("h0", 0.5)] - float(_np.quantile(vals0, 0.5))) \
        <= width * 8  # interpolation-free estimate within a few buckets


def test_hash_sample_deterministic_and_partition_invariant():
    """The Bernoulli hash sample must pick the same ids regardless of
    how the input is partitioned (retries / cluster size stability)."""
    import pyarrow as pa

    from kgeng.ops.sample import hash_sample

    t = pa.table({"doc_id": list(range(1000)),
                  "v": [i * 2 for i in range(1000)]})
    one = ray.data.from_arrow(t)
    many = ray.data.from_arrow(t).repartition(7)
    a = sorted(hash_sample(one, "doc_id", 0.2).to_pandas()["doc_id"])
    b = sorted(hash_sample(many, "doc_id", 0.2).to_pandas()["doc_id"])
    assert a == b and 0 < len(a) < 1000
    # rate is approximately honored
    assert abs(len(a) / 1000 - 0.2) < 0.05


def test_stratified_sample_exact_n_per_group():
    """Exactly n rows per group (fewer when the group is smaller),
    rank 1..n, and the pick is partition-invariant."""
    import pyarrow as pa

    from kgeng.ops.sample import stratified_sample

    t = pa.table({
        "doc_id": list(range(300)),
        "lang": ["en"] * 150 + ["de"] * 140 + ["xx"] * 10,
    })
    out = stratified_sample(ray.data.from_arrow(t).repartition(5),
                            key="lang", n=25, id_col="doc_id",
                            num_buckets=8).to_pandas()
    sizes = out.groupby("lang")["doc_id"].count().to_dict()
    assert sizes == {"en": 25, "de": 25, "xx": 10}
    assert set(out["rank"]) <= set(range(1, 26))
    out2 = stratified_sample(ray.data.from_arrow(t), key="lang", n=25,
                             id_col="doc_id").to_pandas()
    assert (sorted(out["doc_id"]) == sorted(out2["doc_id"]))


def test_pack_sequences_invariants():
    """Budget honored, oversized rows isolated, every row assigned
    exactly once, deterministic across partitionings, and seq_fill is
    the true total of its sequence."""
    import pyarrow as pa

    from kgeng.ops.sample import pack_sequences

    rng = list(range(120))
    counts = [((i * 37) % 900) + 1 for i in rng]   # 1..900
    counts[7] = 5000                               # oversized
    t = pa.table({"doc_id": rng, "n_tokens": counts})
    out = pack_sequences(ray.data.from_arrow(t).repartition(5),
                         count_col="n_tokens", id_col="doc_id",
                         budget=1000, num_buckets=4).to_pandas()
    assert sorted(out["doc_id"]) == rng             # each row once
    fills = out.groupby("seq_id")["n_tokens"].sum()
    # fill column = true total per sequence
    per_row = out.set_index("doc_id")
    for sid, total in fills.items():
        rows = out[out["seq_id"] == sid]
        assert (rows["seq_fill"] == total).all()
    # budget honored except the single oversized doc's own sequence
    big = per_row.loc[7, "seq_id"]
    assert (fills.drop(index=big) <= 1000).all()
    assert fills[big] == 5000
    assert (out[out["seq_id"] == big]["doc_id"] == 7).all()
    # partition invariance
    out2 = pack_sequences(ray.data.from_arrow(t), count_col="n_tokens",
                          id_col="doc_id", budget=1000,
                          num_buckets=4).to_pandas()
    a = out.sort_values("doc_id")[["seq_id", "seq_fill"]].to_numpy()
    b = out2.sort_values("doc_id")[["seq_id", "seq_fill"]].to_numpy()
    assert (a == b).all()


def test_pivot_count_matches_crosstab():
    import numpy as np
    import pandas as pd

    from kgeng.ops.agg import pivot_count

    rng = np.random.default_rng(11)
    types = ["a", "b", "c"]
    df = pd.DataFrame({
        "k": rng.integers(0, 9, 300).astype(np.int64),
        "t": rng.choice(types + ["zzz_not_pivoted"], 300),
    })
    got = (pivot_count(ray.data.from_pandas(df.copy()).repartition(5),
                       key="k", pivot="t", values=types)
           .to_pandas().sort_values("k").reset_index(drop=True))
    ct = pd.crosstab(df["k"], df["t"]).reindex(columns=types, fill_value=0)
    for v in types:
        assert got[f"n_{v}"].tolist() == ct[v].astype(np.int64).tolist()
    assert list(got.columns) == ["k", "n_a", "n_b", "n_c"]


def test_grouped_count_distinct_matches_nunique():
    import numpy as np
    import pandas as pd

    from kgeng.ops.agg import grouped_count_distinct

    rng = np.random.default_rng(13)
    df = pd.DataFrame({
        "k": rng.choice(["x", "y", "z"], 500),
        "v": rng.integers(0, 40, 500).astype(np.int64),
    })
    got = (grouped_count_distinct(
        ray.data.from_pandas(df.copy()).repartition(6), "k", "v",
        out="nd").to_pandas().sort_values("k").reset_index(drop=True))
    ref = df.groupby("k")["v"].nunique()
    assert dict(zip(got["k"], got["nd"])) == ref.to_dict()


def test_hll_count_distinct_within_error_and_partition_invariant():
    """The sketch estimate must (a) sit within its theoretical error
    band of the exact count and (b) be EXACTLY reproducible under a
    different partitioning (register merge is associative+commutative)."""
    import numpy as np
    import pandas as pd

    from kgeng.ops.agg import hll_count_distinct

    rng = np.random.default_rng(17)
    # two groups: one small-cardinality (linear-counting regime, near
    # exact), one larger
    small = pd.DataFrame({"k": "s", "v": rng.integers(0, 300, 2000)})
    big = pd.DataFrame({"k": "b", "v": rng.integers(0, 1_000_000, 30000)})
    df = pd.concat([small, big], ignore_index=True)
    df["v"] = df["v"].astype(np.int64)

    def run(nparts):
        out = hll_count_distinct(
            ray.data.from_pandas(df.copy()).repartition(nparts),
            "k", "v", out="n").to_pandas()
        return dict(zip(out["k"], out["n"]))

    got = run(4)
    exact = df.groupby("k")["v"].nunique().to_dict()
    # p=12 -> sigma ~1.6%; allow 4 sigma plus linear-counting slack
    for k in exact:
        assert abs(got[k] - exact[k]) <= max(0.07 * exact[k], 8), \
            (k, got[k], exact[k])
    assert run(9) == got


def test_mix_sample_per_source_rates_and_reference_match():
    """Per-source mixture: each row's keep decision must equal the
    hash_sample decision at its source's rate (exact reference), and
    unlisted sources must fall back to default_rate."""
    import numpy as np
    import pandas as pd

    from kgeng.ops.sample import KNUTH, MOD, mix_sample

    rng = np.random.default_rng(23)
    df = pd.DataFrame({
        "doc_id": np.arange(5000, dtype=np.int64),
        "src": rng.choice(["a", "b", "c", "unlisted"], 5000),
    })
    rates = {"a": 0.5, "b": 0.1, "c": 0.9}
    got = sorted(mix_sample(
        ray.data.from_pandas(df.copy()).repartition(6), "src", rates,
        "doc_id", default_rate=0.0).to_pandas()["doc_id"])

    h = (df["doc_id"].to_numpy().astype(np.uint64) * KNUTH) % MOD
    thr = df["src"].map(lambda s: int(rates.get(s, 0.0) * float(MOD)))
    want = sorted(df.loc[h.astype(np.int64) < thr.to_numpy(), "doc_id"])
    assert got == want
    assert not set(df.loc[df["src"] == "unlisted", "doc_id"]) & set(got)


def test_weighted_sample_matches_reference_and_partition_invariant():
    """A-ES selection must equal the brute-force numpy top-k on
    u**(1/w) keys, exclude non-positive weights, and be identical
    under a different partitioning."""
    import numpy as np
    import pandas as pd

    from kgeng.ops.sample import KNUTH, MOD, weighted_sample

    rng = np.random.default_rng(29)
    n = 3000
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "w": rng.integers(-5, 200, n).astype(np.int64),
    })

    def run(nparts):
        out = weighted_sample(
            ray.data.from_pandas(df.copy()).repartition(nparts),
            "doc_id", "w", k=40).to_pandas()
        return sorted(out["doc_id"])

    got = run(5)
    w = df["w"].to_numpy().astype(np.float64)
    u = (((df["doc_id"].to_numpy().astype(np.uint64) * KNUTH) % MOD)
         .astype(np.float64) + 0.5) / float(MOD)
    key = np.where(w > 0, np.power(u, 1.0 / np.where(w > 0, w, 1.0)), -1.0)
    want = sorted(np.argsort(-key, kind="stable")[:40].tolist())
    assert got == want
    assert (df.loc[df["doc_id"].isin(got), "w"] > 0).all()
    assert run(11) == got


def test_term_stats_matches_brute_force():
    import numpy as np
    import pandas as pd

    from kgeng.ops.text import term_stats

    df = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [
            "the cat sat", "the  cat\tran", "a dog", "the end",
            "cat cat cat", "  the   the  ",
        ],
    })
    got = (term_stats(ray.data.from_pandas(df.copy()).repartition(3),
                      min_df=1)
           .to_pandas().sort_values("term").reset_index(drop=True))
    # brute force
    rows = [(i, w) for i, s in zip(df["doc_id"], df["text"])
            for w in s.split()]
    bf = pd.DataFrame(rows, columns=["doc_id", "term"])
    tf = bf["term"].value_counts()
    dfreq = bf.drop_duplicates().groupby("term").size()
    for _, r in got.iterrows():
        assert r["tf"] == tf[r["term"]], r["term"]
        assert r["df"] == dfreq[r["term"]], r["term"]
    assert set(got["term"]) == set(tf.index)
    # min_df pruning
    pruned = term_stats(ray.data.from_pandas(df.copy()), min_df=3) \
        .to_pandas()
    assert set(pruned["term"]) == {w for w in tf.index if dfreq[w] >= 3}


def test_normalize_text_kernels():
    import pandas as pd

    from kgeng.ops.text import normalize_text

    df = pd.DataFrame({"text": ["  Hello\t WORLD \n", "aB  c", ""]})
    out = normalize_text(ray.data.from_pandas(df)).to_pandas()
    assert out["norm_text"].tolist() == ["hello world", "ab c", ""]


def test_contamination_flags_exact_semantics():
    """A doc is flagged iff it shares a full token 8-gram with the
    benchmark; shorter overlaps and short docs never flag."""
    import numpy as np
    import pandas as pd

    from kgeng.ops.text import contamination_flags

    bench = ["the quick brown fox jumps over the lazy dog tonight"]
    eight = "quick brown fox jumps over the lazy dog"      # an 8-gram
    seven = "brown fox jumps over the lazy dog"            # only 7
    df = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": [
            "prefix words here " + eight + " suffix",      # flagged
            "prefix " + seven + " DIFFERENT",              # not: 7-gram only
            eight,                                         # flagged (exact)
            "totally unrelated text with enough tokens to have grams ok",
            "short doc",                                   # < 8 tokens
        ],
    })
    out = (contamination_flags(
        ray.data.from_pandas(df).repartition(3), bench, n=8)
        .to_pandas().sort_values("doc_id"))
    assert out["contaminated"].tolist() == [1, 0, 1, 0, 0]


def test_redact_pii_patterns():
    import pandas as pd

    from kgeng.ops.text import redact_pii

    df = pd.DataFrame({"text": [
        "mail me at jo.doe+x@example.co.uk today",
        "call +1 (555) 123-4567 now",
        "no pii here",
        None,
    ]})
    out = redact_pii(ray.data.from_pandas(df)).to_pandas()
    assert out["redacted_text"].tolist() == [
        "mail me at [EMAIL] today",
        "call [PHONE] now",
        "no pii here",
        "",
    ]


def test_bigram_counts_matches_brute_force():
    import collections

    import numpy as np
    import pandas as pd

    from kgeng.ops.text import bigram_counts

    df = pd.DataFrame({"text": [
        "a b a b c", "  a b  ", "single", "", None, "b c b c",
    ]})
    got = bigram_counts(ray.data.from_pandas(df.copy()).repartition(3)) \
        .to_pandas()
    ref = collections.Counter()
    for s in df["text"]:
        toks = (s or "").split()
        ref.update(" ".join(p) for p in zip(toks, toks[1:]))
    assert dict(zip(got["bigram"], got["n"])) == dict(ref)


def test_weighted_sample_excludes_invalid_even_when_short():
    """Fewer valid rows than k: the result must contain ONLY the valid
    rows, never sentinel-keyed zero/negative/null-weight rows."""
    import pandas as pd

    from kgeng.ops.sample import weighted_sample

    df = pd.DataFrame({"doc_id": [1, 2, 3, 4, 5, 6],
                       "w": [5, 0, -1, 7, 0, 0]})
    out = weighted_sample(ray.data.from_pandas(df).repartition(3),
                          "doc_id", "w", k=5).to_pandas()
    assert sorted(out["doc_id"]) == [1, 4]


def test_grouped_count_distinct_ignores_null_values():
    import pandas as pd

    from kgeng.ops.agg import grouped_count_distinct

    df = pd.DataFrame({"k": ["a", "a", "a", "b"],
                       "v": [1.0, None, 1.0, None]})
    out = grouped_count_distinct(ray.data.from_pandas(df), "k", "v",
                                 out="nd").to_pandas()
    got = dict(zip(out["k"], out["nd"]))
    assert got.get("a") == 1 and got.get("b") in (None, 0)


def test_salted_count_spreads_hot_key_and_keeps_null_group():
    import pandas as pd

    from kgeng.ops.agg import salted_count

    df = pd.DataFrame({"k": ["hot"] * 500 + ["x", None, None]})
    out = salted_count(ray.data.from_pandas(df).repartition(6), "k",
                       salt=8).to_pandas()
    got = {(None if pd.isna(r["k"]) else r["k"]): r["n"]
           for _, r in out.iterrows()}
    assert got == {"hot": 500, "x": 1, None: 2}


def test_grouped_string_agg_ordered():
    import pandas as pd

    from kgeng.ops.agg import grouped_string_agg

    df = pd.DataFrame({
        "k": ["a", "b", "a", "a", "b"],
        "v": ["x", "p", "y", "z", "q"],
        "o": [3, 2, 1, 2, 1],
        "t": [0, 0, 0, 0, 0],
    })
    out = grouped_string_agg(
        ray.data.from_pandas(df).repartition(3), "k", "v",
        order_by=["o", "t"], out="s").to_pandas()
    got = dict(zip(out["k"], out["s"]))
    assert got == {"a": "y,z,x", "b": "q,p"}


def test_tfidf_terms_matches_brute_force():
    import math

    import numpy as np
    import pyarrow as pa
    import ray.data

    from kgeng.ops.text import tfidf_terms

    texts = ["cat dog cat", "dog fish", "cat fish fish dog",
             "bird", "dog dog dog"]
    docs = pa.table({"doc_id": list(range(5)), "text": texts})
    out = tfidf_terms(ray.data.from_arrow(docs).repartition(2),
                      min_df=2).to_pandas()
    got = {(r.doc_id, r.term): (r.tf, r.tfidf)
           for r in out.itertuples()}

    # brute force: df over distinct docs, weights rounded half-away
    from collections import Counter
    df = Counter()
    for t in texts:
        df.update(set(t.split()))
    want = {}
    for i, t in enumerate(texts):
        for term, tf in Counter(t.split()).items():
            if df[term] >= 2:
                w = tf * math.log(5.0 / df[term])
                w = np.floor(abs(w) * 1e6 + 0.5) / 1e6 * np.sign(w)
                want[(i, term)] = (tf, w)
    assert got == want


def test_repetition_ratio_exact():
    import pyarrow as pa
    import ray.data

    from kgeng.ops.text import repetition_ratio

    docs = pa.table({"doc_id": [0, 1, 2, 3], "text": [
        "a b c a b c a b c",   # grams: 7 total, distinct {abc,bca,cab}=3
        "x y z w",             # 2 grams, both distinct -> 0
        "q q",                 # < 3 tokens -> 0
        "",                    # empty -> 0
    ]})
    out = repetition_ratio(ray.data.from_arrow(docs).repartition(2),
                           n=3).to_pandas().sort_values("doc_id")
    assert out["rep_ratio"].tolist() == [
        round(1 - 3 / 7, 6), 0.0, 0.0, 0.0]


# ----------------------------------------------------- edit-distance dedup

def _lev_ref(a: bytes, b: bytes) -> int:
    dp = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        prev, dp[0] = dp[0], i
        for j in range(1, len(b) + 1):
            cur = min(dp[j] + 1, dp[j - 1] + 1,
                      prev + (a[i - 1] != b[j - 1]))
            prev, dp[j] = dp[j], cur
    return dp[len(b)]


def test_banded_levenshtein_fuzz_vs_reference():
    import random

    rng = random.Random(41)
    alph = "abc中ü "          # multibyte chars exercise UTF-8
    for _ in range(1500):
        d = rng.choice([1, 2, 3, 8])
        a = "".join(rng.choice(alph) for _ in range(rng.randrange(0, 14)))
        b = "".join(rng.choice(alph) for _ in range(rng.randrange(0, 14)))
        ab, bb = a.encode(), b.encode()
        if abs(len(ab) - len(bb)) > d:
            continue
        mat, lens = dedup._byte_matrix([a, b])
        got = int(dedup.banded_levenshtein(
            mat[[0]], mat[[1]], lens[[0]], lens[[1]], d)[0])
        true = _lev_ref(ab, bb)
        assert got == (true if true <= d else d + 1), (a, b, d)


def test_editdist_pairs_exact_vs_bruteforce():
    # cluster of near-identical strings engineered to straddle length-band
    # boundaries (band = bytelen // 3), plus unrelated noise docs
    base = "the quick brown fox jumps over the lazy dog"
    texts = [base, base + "!", base[:-2], base.replace("quick", "quack"),
             "completely unrelated text about graphs and rays",
             base.replace("brown ", ""), "x" * 20, "x" * 21 + "y"]
    ids = list(range(len(texts)))
    ds = ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    got = dedup.editdist_near_dup_pairs(ds, max_dist=3).to_pandas()
    got_set = {(r.a, r.b, r.dist) for r in got.itertuples()}
    want = set()
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            dv = _lev_ref(texts[i].encode(), texts[j].encode())
            if dv <= 3:
                want.add((i, j, dv))
    assert got_set == want and len(want) >= 4


def test_editdist_pairs_null_and_empty_text():
    ds = ray.data.from_arrow(pa.table({
        "doc_id": [1, 2, 3], "text": ["", None, "ab"]}))
    got = dedup.editdist_near_dup_pairs(ds, max_dist=2).to_pandas()
    got_set = {(r.a, r.b, r.dist) for r in got.itertuples()}
    # null coalesces to "" (SQL-oracle convention): ("","")=0, ("","ab")=2
    assert got_set == {(1, 2, 0), (1, 3, 2), (2, 3, 2)}


def test_editdist_rejects_bad_max_dist():
    ds = ray.data.from_arrow(pa.table({"doc_id": [1], "text": ["a"]}))
    with pytest.raises(ValueError):
        dedup.editdist_near_dup_pairs(ds, max_dist=0)


def test_editdist_pairs_partition_invariant():
    # same corpus through 1 block vs 8 blocks -> identical pair set
    texts = ["abcdefgh" + str(i % 7) for i in range(40)] + \
            ["unrelated string " + "y" * i for i in range(10)]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    one = dedup.editdist_near_dup_pairs(
        ray.data.from_arrow(t), max_dist=2).to_pandas()
    many = dedup.editdist_near_dup_pairs(
        ray.data.from_arrow(t).repartition(8), max_dist=2).to_pandas()
    k = lambda df: sorted(map(tuple, df.to_numpy().tolist()))
    assert k(one) == k(many) and len(one) > 0


def test_grouped_corr_matches_numpy_and_nulls_zero_variance():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 50, 300)
    y = (x * 3 + rng.integers(0, 40, 300)).astype(np.int64)
    key = np.where(x % 2 == 0, "even", "odd")
    t = pa.table({"k": key.tolist(), "x": x.astype(np.int64), "y": y})
    # plus a zero-variance group
    t = pa.concat_tables([t, pa.table({
        "k": ["flat"] * 4, "x": [7, 7, 7, 7], "y": [1, 2, 3, 4]})])
    got = agg.grouped_corr(ray.data.from_arrow(t).repartition(5),
                           "k", "x", "y").to_pandas()
    gm = got.set_index("k")
    assert np.isnan(gm.loc["flat", "corr"])
    for k in ("even", "odd"):
        m = key == k
        want = round(float(np.corrcoef(x[m].astype(float),
                                       y[m].astype(float))[0, 1]), 6)
        assert abs(gm.loc[k, "corr"] - want) < 2e-6
        assert gm.loc[k, "n"] == int(m.sum())


def test_jaro_winkler_batch_matches_duckdb_definition():
    import duckdb
    import random

    rng = random.Random(17)
    con = duckdb.connect()
    alph = "abc中ü xyz"
    sa = ["".join(rng.choice(alph) for _ in range(rng.randrange(0, 16)))
          for _ in range(250)]
    sb = ["".join(rng.choice(alph) for _ in range(rng.randrange(0, 16)))
          for _ in range(250)]
    mat_a, la = dedup._byte_matrix(sa)
    mat_b, lb = dedup._byte_matrix(sb)
    got = dedup.jaro_winkler_batch(mat_a, mat_b, la, lb)
    for i, (a, b) in enumerate(zip(sa, sb)):
        want = con.execute("SELECT jaro_winkler_similarity(?, ?)",
                           [a, b]).fetchone()[0]
        assert abs(got[i] - want) < 1e-12, (a, b, got[i], want)
    # pinned edge semantics (RapidFuzz variant): both-empty is 0.0
    mat_e, le = dedup._byte_matrix(["", "", "x"])
    ge = dedup.jaro_winkler_batch(mat_e[[0, 0]], mat_e[[1, 2]],
                                  le[[0, 0]], le[[1, 2]])
    assert ge[0] == 0.0 and ge[1] == 0.0


def test_doc_fingerprints_batch_matches_scalar_reference():
    import random

    rng = random.Random(29)
    words = ["alpha", "beta", "gamma", "delta", "eps", "中", "x"]
    texts = ["", "a", "a b c", None] + [
        " ".join(rng.choice(words) for _ in range(rng.randrange(0, 30)))
        for _ in range(300)]
    got = text.doc_fingerprints_batch([t or "" for t in texts])
    want = np.array([text._doc_fingerprint(t or "") for t in texts],
                    np.int64)
    assert (got == want).all()


def test_banded_levenshtein_independent_matrices():
    # left matrix wider than right: rpad must still cover every DP row
    mat_l, ll = dedup._byte_matrix(["aaaaaaaaaa"])
    mat_r, lr = dedup._byte_matrix(["aa"])
    d = dedup.banded_levenshtein(mat_l, mat_r, ll, lr, 8)
    assert int(d[0]) == 8
    # and the swapped orientation
    d2 = dedup.banded_levenshtein(mat_r, mat_l, lr, ll, 8)
    assert int(d2[0]) == 8


def test_jaro_winkler_all_empty_left_batch():
    mat_l, ll = dedup._byte_matrix(["", ""])
    mat_r, lr = dedup._byte_matrix(["x", "abc"])
    got = dedup.jaro_winkler_batch(mat_l, mat_r, ll, lr)
    assert got.tolist() == [0.0, 0.0]


def test_grouped_corr_overflow_guard_fires():
    big = (1 << 30)
    t = pa.table({"k": ["a"] * 8, "x": [big] * 8, "y": [big] * 8})
    # n * max_term = 8 * 2^60 = 2^63 >= 2^62 -> loud raise, not a wrap
    # (Ray Data surfaces user ValueErrors wrapped in RayTaskError)
    with pytest.raises(Exception, match="rescale|coarser"):
        agg.grouped_corr(ray.data.from_arrow(t), "k", "x", "y") \
            .to_pandas()
    with pytest.raises(Exception, match="31 bits"):
        t2 = pa.table({"k": ["a"], "x": [1 << 32], "y": [1]})
        agg.grouped_corr(ray.data.from_arrow(t2), "k", "x", "y") \
            .to_pandas()


def test_grouped_stats_matches_numpy():
    rng = np.random.default_rng(8)
    x = rng.integers(0, 1000, 400).astype(np.int64)
    key = np.where(x % 3 == 0, "a", "b")
    t = pa.table({"k": key.tolist(), "x": x})
    t = pa.concat_tables([t, pa.table({"k": ["solo"], "x": [42]})])
    got = agg.grouped_stats(ray.data.from_arrow(t).repartition(4),
                            "k", "x").to_pandas().set_index("k")
    assert got.loc["solo", "n"] == 1 and got.loc["solo", "mean_x"] == 42.0
    assert np.isnan(got.loc["solo", "stddev_x"])
    for k in ("a", "b"):
        m = key == k
        assert got.loc[k, "n"] == int(m.sum())
        assert abs(got.loc[k, "mean_x"] - x[m].mean()) < 5e-7
        assert abs(got.loc[k, "stddev_x"] - x[m].std(ddof=1)) < 5e-6


# ---------------------------------------------------------- misra-gries

def test_misra_gries_exact_when_capacity_ample(docs):
    """With capacity above every block's vocabulary the MG sketch
    degrades to the exact path: err_bound 0, counts exactly the true
    term frequencies."""
    from kgeng.ops.text import term_stats

    def tok(t):
        import pyarrow.compute as pc
        flat = pc.list_flatten(
            pc.split_pattern_regex(t["text"], pattern=r"\s+"))
        flat = flat.combine_chunks()
        return pa.table({"term": flat.filter(pc.not_equal(flat, ""))})

    terms = docs.map_batches(tok, batch_format="pyarrow")
    out = agg.misra_gries_topk(terms, "term", k=10,
                               capacity=1 << 20).to_pandas()
    assert (out["err_bound"] == 0).all()
    exact = term_stats(docs, min_df=1).to_pandas() \
        .sort_values(["tf", "term"], ascending=[False, True]).head(10)
    got = dict(zip(out["term"], out["est"]))
    want = dict(zip(exact["term"], exact["tf"]))
    assert got == want


def test_misra_gries_bound_holds_under_trimming():
    """Small capacity on a skewed stream: every estimate obeys
    true - err_bound <= est <= true, and the heavy hitter is ranked
    first."""
    rng = np.random.default_rng(3)
    # one heavy key + a long uniform tail, shuffled across partitions
    keys = (["hh"] * 4000
            + [f"t{i}" for i in rng.integers(0, 500, size=6000)])
    rng.shuffle(keys)
    truth = {}
    for x in keys:
        truth[x] = truth.get(x, 0) + 1
    ds = ray.data.from_arrow(
        pa.table({"term": pa.array(keys, pa.string())})).repartition(8)
    out = agg.misra_gries_topk(ds, "term", k=5, capacity=16).to_pandas()
    assert out.iloc[0]["term"] == "hh"
    err = int(out["err_bound"].iloc[0])
    assert err > 0  # trimming genuinely happened at capacity 16
    for _, r in out.iterrows():
        t = truth[r["term"]]
        assert t - err <= r["est"] <= t


def test_misra_gries_partition_invariant_bound():
    keys = [f"k{i % 37}" for i in range(5000)]
    ds1 = ray.data.from_arrow(
        pa.table({"term": pa.array(keys, pa.string())}))
    for parts in (2, 9):
        out = agg.misra_gries_topk(ds1.repartition(parts), "term",
                                   k=3, capacity=64).to_pandas()
        # capacity 64 > 37 distinct keys per block: exact either way
        assert (out["err_bound"] == 0).all()
        assert out["est"].iloc[0] == max(
            keys.count(k) for k in set(keys))


# --------------------------------------------------------- profiling

def test_profile_table_nulls_types_and_unsupported():
    import datetime

    t = pa.table({
        "i": pa.array([3, None, 1, 3], pa.int64()),
        "f": pa.array([1.5, 2.5, None, None], pa.float64()),
        "s": pa.array(["b", "a", None, "b"], pa.string()),
        "ts": pa.array([datetime.datetime(2024, 1, 1),
                        datetime.datetime(2024, 1, 2), None, None],
                       pa.timestamp("us")),
        "lst": pa.array([[1], [2], None, [3]],
                        pa.list_(pa.int64())),
    })
    out = agg.profile_table(
        ray.data.from_arrow(t).repartition(3)).to_pandas() \
        .set_index("col_name")
    assert out.loc["i", "n_nulls"] == 1
    assert out.loc["i", "n_distinct"] == 2
    assert out.loc["i", "min_int"] == 1 and out.loc["i", "max_int"] == 3
    assert out.loc["f", "min_num"] == 1.5 and out.loc["f", "max_num"] == 2.5
    assert out.loc["f", "n_nulls"] == 2
    assert out.loc["s", "min_str"] == "a" and out.loc["s", "max_str"] == "b"
    assert out.loc["s", "n_distinct"] == 2
    epoch = int(datetime.datetime(2024, 1, 1)
                .replace(tzinfo=datetime.timezone.utc).timestamp() * 1e6)
    assert out.loc["ts", "min_int"] == epoch
    assert out.loc["ts", "n_distinct"] == 2
    # unsupported nested type: nulls profiled, the rest stays null
    assert out.loc["lst", "n_nulls"] == 1
    assert np.isnan(out.loc["lst", "min_num"])


def test_split_assign_partition_invariant_and_complete():
    from kgeng.ops.sample import split_assign

    ids = pa.table({"doc_id": pa.array(range(2000), pa.int64())})
    outs = []
    for parts in (1, 8):
        out = split_assign(ray.data.from_arrow(ids).repartition(parts),
                           "doc_id",
                           {"train": 0.75, "val": 0.125, "test": 0.125}) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        outs.append(out)
    assert outs[0].equals(outs[1])
    frac = outs[0]["split"].value_counts(normalize=True)
    assert abs(frac["train"] - 0.75) < 0.05
    assert set(outs[0]["split"]) == {"train", "val", "test"}
    with pytest.raises(ValueError):
        split_assign(ray.data.from_arrow(ids), "doc_id",
                     {"a": 0.5, "b": 0.4})


def test_grouped_centroid_matches_numpy_and_partition_invariant():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(200, 8)).astype(np.float32)
    labels = rng.integers(0, 4, size=200).astype(np.int32)
    t = pa.table({"label": pa.array(labels),
                  "embedding": pa.array(list(m),
                                        pa.list_(pa.float32()))})
    # quantized-int reference (the op's own contract)
    q = np.floor(np.abs(m.astype(np.float64)) * 1e6 + 0.5) \
        * np.sign(m)  # half away from zero
    refs = {}
    for lab in np.unique(labels):
        sel = q[labels == lab]
        refs[int(lab)] = sel.sum(axis=0) / 1e6 / sel.shape[0]
    for parts in (1, 6):
        out = similarity.grouped_centroid(
            ray.data.from_arrow(t).repartition(parts)).to_pandas()
        for lab, ref in refs.items():
            got = out[out["label"] == lab].sort_values("dim")[
                "centroid"].to_numpy()
            assert np.array_equal(got, ref), (parts, lab)


def test_lm_doc_scores_ranking_oov_and_partition_invariance():
    rows = {"doc_id": list(range(4)),
            "text": ["the the the the", "the the rare", "zx qq vv",
                     ""]}
    ds = ray.data.from_arrow(pa.table(rows))
    out = text.lm_doc_scores(ds).to_pandas().set_index("doc_id")
    # common-token doc scores above mixed, mixed above all-rare
    assert out.loc[0, "avg_logprob"] > out.loc[1, "avg_logprob"] \
        > out.loc[2, "avg_logprob"]
    assert 3 not in out.index  # empty doc dropped
    assert out.loc[0, "n_tokens"] == 4
    # partition invariance: scores identical under re-sharding
    out2 = text.lm_doc_scores(ds.repartition(3)).to_pandas() \
        .set_index("doc_id")
    assert out2.sort_index().equals(out.sort_index())
    # CCNet shape: LM trained on a reference corpus scores a target
    # corpus — unseen tokens take the smoothed OOV probability and
    # score BELOW every in-vocab token
    target = ray.data.from_arrow(pa.table(
        {"doc_id": [8, 9], "text": ["the the", "unseen_token_xyz"]}))
    sc = text.lm_doc_scores(target, train_ds=ds).to_pandas() \
        .set_index("doc_id")
    assert len(sc) == 2
    assert sc.loc[9, "avg_logprob"] < sc.loc[8, "avg_logprob"]
    assert sc.loc[9, "avg_logprob"] < out["avg_logprob"].min()


def test_grouped_entropy_matches_scipy_style_reference():
    import math

    rng = np.random.default_rng(17)
    k = rng.integers(0, 6, size=3000)
    v = rng.integers(0, 10, size=3000)
    t = pa.table({"k": pa.array(k, pa.int64()),
                  "v": pa.array(v, pa.int64())})
    for parts in (1, 7):
        out = agg.grouped_entropy(
            ray.data.from_arrow(t).repartition(parts),
            "k", "v").to_pandas().set_index("k")
        for g in np.unique(k):
            c = np.bincount(v[k == g])
            c = c[c > 0]
            p = c / c.sum()
            want = float(-(p * np.log(p)).sum())
            assert abs(out.loc[g, "entropy"] - want) < 1e-5, (parts, g)
    # single-value group: entropy exactly 0
    t0 = pa.table({"k": pa.array([1, 1, 1], pa.int64()),
                   "v": pa.array(["a", "a", "a"])})
    o0 = agg.grouped_entropy(ray.data.from_arrow(t0), "k", "v") \
        .to_pandas()
    assert o0["entropy"].iloc[0] == 0.0


def test_pmi_collocations_crafted_pair_ranks_first():
    """A bigram that ALWAYS co-occurs ('zx qv') must out-PMI frequent
    independent pairs."""
    rows = []
    for i in range(30):
        rows.append("zx qv filler" + str(i % 5))  # 6 < min_count each
    for i in range(60):
        rows.append("the cat " + f"w{i % 7} the dog")
    t = pa.table({"doc_id": list(range(len(rows))), "text": rows})
    out = text.pmi_collocations(ray.data.from_arrow(t), min_count=10,
                                k=5).to_pandas()
    assert out.iloc[0]["bigram"] == "zx qv"
    assert out.iloc[0]["c_ab"] == 30
    # partition invariance
    out2 = text.pmi_collocations(
        ray.data.from_arrow(t).repartition(4), min_count=10,
        k=5).to_pandas()
    pd.testing.assert_frame_equal(out.reset_index(drop=True),
                                  out2.reset_index(drop=True))


def test_normalize_quantize_q8_unit_norm_and_zero_drop():
    m = [[3.0, 4.0], [0.0, 0.0], [-1.0, 0.0]]
    t = pa.table({"vec_id": pa.array([1, 2, 3], pa.int64()),
                  "embedding": pa.array(m, pa.list_(pa.float32()))})
    out = similarity.normalize_quantize_q8(
        ray.data.from_arrow(t)).to_pandas()
    # zero vector dropped entirely
    assert set(out["vec_id"]) == {1, 3}
    v1 = out[out["vec_id"] == 1].sort_values("dim")["q8"].tolist()
    assert v1 == [round(127 * 0.6), round(127 * 0.8)]  # [76, 102]
    v3 = out[out["vec_id"] == 3].sort_values("dim")["q8"].tolist()
    assert v3 == [-127, 0]
    # reconstructed norm close to 1
    rec = np.array(v1) / 127.0
    assert abs(np.linalg.norm(rec) - 1.0) < 0.01


def test_minhash_decontaminate_fuzzy_recall_and_precision():
    rng = np.random.default_rng(31)
    vocab = [f"w{i}" for i in range(300)]
    corpus, ids = [], []
    for i in range(40):
        corpus.append(" ".join(rng.choice(vocab, size=30)))
        ids.append(i)
    # bench = perturbed copies of the first 8 docs (near-dup leakage)
    bench = []
    for i in range(8):
        toks = corpus[i].split()
        toks[5] = "changed"
        bench.append(" ".join(toks) + " extra tail")
    cds = ray.data.from_arrow(pa.table(
        {"doc_id": ids, "text": corpus})).repartition(4)
    bds = ray.data.from_arrow(pa.table({"text": bench}))
    out = dedup.minhash_decontaminate(cds, bds, threshold=0.5) \
        .to_pandas().set_index("doc_id")
    flagged = set(out[out["contaminated"]].index)
    assert set(range(8)) <= flagged          # full recall on leaks
    assert len(flagged - set(range(8))) == 0  # nothing else flagged
    assert (out.loc[list(range(8)), "best_jaccard"] >= 0.5).all()
    # empty bench set: nothing flagged, schema stable
    empty = dedup.minhash_decontaminate(
        cds, ray.data.from_arrow(pa.table({"text": pa.array(
            [], pa.string())})), threshold=0.5).to_pandas()
    assert len(empty) == 40 and not empty["contaminated"].any()


def test_misra_gries_weighted_partials_match_expanded():
    """The weight path (pre-counted partials) must equal feeding the
    expanded stream."""
    t_w = pa.table({"term": ["a", "b", "a", "c"],
                    "n": pa.array([5, 3, 2, 1], pa.int64())})
    exp = pa.table({"term": ["a"] * 7 + ["b"] * 3 + ["c"]})
    got_w = agg.misra_gries_topk(ray.data.from_arrow(t_w), "term",
                                 k=3, capacity=16,
                                 weight="n").to_pandas()
    got_e = agg.misra_gries_topk(ray.data.from_arrow(exp), "term",
                                 k=3, capacity=16).to_pandas()
    assert got_w.values.tolist() == got_e.values.tolist()
    assert got_w.iloc[0]["term"] == "a" and got_w.iloc[0]["est"] == 7
    with pytest.raises(ValueError):
        agg.misra_gries_topk(ray.data.from_arrow(t_w), "term",
                             k=10, capacity=5)


def _kmeans_reference(m, ids, k, iters, scale=1e6):
    """Single-threaded reference of the IDENTICAL quantized algorithm."""
    order = np.argsort(ids)
    cent = m[order[:k]].astype(np.float64)
    for _ in range(iters):
        d2 = ((m * m).sum(1)[:, None] - 2.0 * (m @ cent.T)
              + (cent * cent).sum(1)[None, :])
        a = np.argmin(d2, axis=1)
        q = (np.sign(m) * np.floor(np.abs(m) * scale + 0.5)).astype(
            np.int64)
        new = cent.copy()
        for c in range(k):
            sel = a == c
            if sel.any():
                new[c] = (q[sel].sum(0).astype(np.float64) / scale) \
                    / sel.sum()
        if np.array_equal(new, cent):
            break
        cent = new
    d2 = ((m * m).sum(1)[:, None] - 2.0 * (m @ cent.T)
          + (cent * cent).sum(1)[None, :])
    return np.argmin(d2, axis=1)


def test_kmeans_assign_matches_reference_and_partition_invariant():
    rng = np.random.default_rng(41)
    # three separated blobs, INTERLEAVED across ids so the lowest-id
    # seeding picks one seed per blob
    blobs = [rng.normal(0, 0.2, (60, 6)) + off
             for off in ([0, 0, 0, 0, 0, 0], [5, 5, 0, 0, 0, 0],
                         [0, 0, 7, 7, 0, 0])]
    m = np.stack(blobs, axis=1).reshape(-1, 6).astype(np.float32)
    truth = np.tile([0, 1, 2], 60)
    ids = np.arange(180)
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(list(m),
                                        pa.list_(pa.float32()))})
    ref = _kmeans_reference(m.astype(np.float64), ids, k=3, iters=10)
    outs = []
    for parts in (1, 7):
        out = similarity.kmeans_assign(
            ray.data.from_arrow(t).repartition(parts), k=3,
            iters=10).to_pandas().sort_values("vec_id")
        outs.append(out["cluster"].to_numpy())
        assert np.array_equal(out["cluster"].to_numpy(), ref), parts
    assert np.array_equal(outs[0], outs[1])
    # blob purity: each true blob maps to exactly one cluster
    for b in range(3):
        assert len(set(outs[0][truth == b])) == 1


def test_semantic_dup_pairs_precision_and_recall_on_blobs():
    """k-means blocking + exact in-cluster cosine: every emitted pair
    must be a TRUE pair (precision 1.0 vs the exact all-pairs result);
    recall on well-separated blobs is 1.0 because near-dups share a
    cluster."""
    rng = np.random.default_rng(43)
    base = rng.normal(0, 1, (20, 8))
    rows, ids = [], []
    for i, b in enumerate(base):
        rows.append(b)
        ids.append(2 * i)
        rows.append(b + rng.normal(0, 0.01, 8))  # near-duplicate
        ids.append(2 * i + 1)
    m = np.stack(rows).astype(np.float32)
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(list(m),
                                        pa.list_(pa.float32()))})
    ds = ray.data.from_arrow(t).repartition(4)
    got = similarity.semantic_dup_pairs(ds, k=4, iters=5,
                                        threshold=0.98).to_pandas()
    exact = similarity.embedding_near_dup(ds, threshold=0.98,
                                          num_planes=0).to_pandas()
    gset = set(zip(got["a"], got["b"]))
    eset = set(zip(exact["a"], exact["b"]))
    assert gset <= eset               # precision 1.0
    # every constructed near-dup pair is recovered
    want = {(str(2 * i), str(2 * i + 1)) for i in range(20)}
    assert want <= gset


def test_duplicated_spans_flags_injected_paragraph_only():
    rng = np.random.default_rng(47)
    vocab = [f"t{i}" for i in range(500)]
    shared = " ".join(rng.choice(vocab, size=20))  # the leaked span
    docs, ids = [], []
    for i in range(12):
        body = " ".join(rng.choice(vocab, size=40))
        if i < 4:  # inject the shared paragraph into 4 docs
            body = body + " " + shared
        docs.append(body)
        ids.append(i)
    docs.append("short doc")  # < span_tokens -> zero windows
    ids.append(99)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": docs})
    out = dedup.duplicated_spans(
        ray.data.from_arrow(t).repartition(3), span_tokens=16,
        min_dup_count=2).to_pandas().set_index("doc_id")
    # the 4 injected docs each contain duplicated windows
    for i in range(4):
        assert out.loc[i, "n_dup_spans"] >= 5, i
        assert out.loc[i, "dup_fraction"] > 0
    # clean docs have none
    for i in range(4, 12):
        assert out.loc[i, "n_dup_spans"] == 0, i
    assert out.loc[99, "n_spans"] == 0
    assert out.loc[99, "dup_fraction"] == 0.0
    # partition invariance
    out2 = dedup.duplicated_spans(
        ray.data.from_arrow(t).repartition(7), span_tokens=16,
        min_dup_count=2).to_pandas().set_index("doc_id")
    assert out.sort_index().equals(out2.sort_index())


def test_duplicated_spans_clean_corpus_returns_zeros():
    """Review regression: an already-clean corpus (no hash reaches the
    threshold) must return all-zero counts, not crash on the empty
    broadcast array."""
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": [" ".join(f"u{i}" for i in range(30)),
                           " ".join(f"v{i}" for i in range(30))]})
    out = dedup.duplicated_spans(ray.data.from_arrow(t),
                                 span_tokens=16).to_pandas()
    assert (out["n_dup_spans"] == 0).all()
    assert (out["n_spans"] > 0).all()


def test_profile_table_mixed_string_types_and_signed_zero():
    t = pa.table({
        "s": pa.array(["a", "b", "a"], pa.string()),
        "ls": pa.array(["x", "x", None], pa.large_string()),
        "f": pa.array([-0.0, 0.0, float("nan")], pa.float64()),
    })
    for parts in (1, 3):
        out = agg.profile_table(
            ray.data.from_arrow(t).repartition(parts)).to_pandas() \
            .set_index("col_name")
        assert out.loc["s", "n_distinct"] == 2
        assert out.loc["ls", "n_distinct"] == 1
        # -0.0 == +0.0 (one value) + one NaN class = 2, at ANY sharding
        assert out.loc["f", "n_distinct"] == 2, parts


def test_extract_json_field_scalars_strings_and_missing():
    t = pa.table({"props": pa.array([
        '{"k": 3, "s": "hello"}',
        '{"s": "x y", "k": -2.5e3}',
        '{"other": 1}',
        '{"k": true}',
        None,
    ], pa.string())})
    ds = ray.data.from_arrow(t)
    k = text.extract_json_field(ds, "props", "k").to_pandas()["k"]
    assert k.tolist() == ["3", "-2.5e3", None, "true", None]
    s = text.extract_json_field(ds, "props", "s").to_pandas()["s"]
    assert s.tolist() == ["hello", "x y", None, None, None]


def test_nfc_normalize_composes_decomposed_accents():
    t = pa.table({"text": pa.array(["café", "café", None,
                                    "plain"], pa.string())})
    out = text.nfc_normalize(ray.data.from_arrow(t)).to_pandas()
    # NULL propagates (DuckDB nfc_normalize(NULL) IS NULL), r4 advice
    assert out["nfc_text"].tolist() == ["café", "café", None,
                                        "plain"]
    assert all(x is None or len(x) in (4, 5) for x in out["nfc_text"])


def test_curation_pipeline_invariants_and_partition_invariance():
    import kgeng.queries as Q

    out = Q.docs_curation_pipeline(SF).to_pandas()
    # strictly fewer docs than the raw corpus (dedup + two gates bite)
    assert 0 < len(out) < 500
    # every kept doc has a split; exactly the train split is packed
    assert set(out["split"]) == {"train", "val", "test"}
    assert out[out["split"] == "train"]["seq_id"].notna().all()
    assert out[out["split"] != "train"]["seq_id"].isna().all()
    # no duplicate docs survive
    assert out["doc_id"].is_unique
    # deterministic: a second run returns the identical table
    out2 = Q.docs_curation_pipeline(SF).to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values("doc_id").reset_index(drop=True),
        out2.sort_values("doc_id").reset_index(drop=True))


def test_percent_rank_and_locf_cumsum_null_semantics():
    """Review regressions: percent_rank ranks NULL rows (NULLS LAST,
    shared rank); locf/cumsum treat a null key as its own partition."""
    import duckdb

    from kgeng.ops.rank import grouped_percent_rank
    from kgeng.ops.window import partitioned_cumsum, partitioned_locf

    t = pa.table({"k": pa.array([1, 1, 1, 1], pa.int64()),
                  "v": pa.array([10.0, 20.0, None, None], pa.float64())})
    got = grouped_percent_rank(ray.data.from_arrow(t), "k",
                               "v").to_pandas()
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.execute(
        "SELECT k, v, percent_rank() OVER (PARTITION BY k ORDER BY v)"
        " AS pct_rank FROM t").fetchdf()
    gs = got.sort_values("v", na_position="last")["pct_rank"].to_numpy()
    ws = want.sort_values("v", na_position="last")["pct_rank"].to_numpy()
    assert (gs == ws).all()

    # null keys: one partition, values survive / accumulate
    tn = pa.table({"k": pa.array([None, None], pa.int64()),
                   "ts": pa.array([1, 2], pa.int64()),
                   "id": pa.array([1, 2], pa.int64()),
                   "v": pa.array([7.0, None], pa.float64()),
                   "vi": pa.array([3, 4], pa.int64())})
    lo = partitioned_locf(ray.data.from_arrow(tn), key="k", ts="ts",
                          value="v").to_pandas().sort_values("ts")
    assert lo["v"].tolist() == [7.0, 7.0]
    cs = partitioned_cumsum(ray.data.from_arrow(tn), key="k", ts="ts",
                            value="vi", tiebreak="id",
                            out="rt").to_pandas().sort_values("ts")
    assert cs["rt"].tolist() == [3, 7]


def test_small_key_aggregate_matches_groupby():
    rng = np.random.default_rng(3)
    n = 5000
    t = pa.table({
        "k": pa.array(rng.integers(0, 4, n), pa.int64()),
        "s": pa.array([None, "a", "b", "c"][:1] * 0 +
                      [["x", "y", None][i % 3] for i in range(n)]),
        "v": pa.array(rng.integers(-50, 50, n), pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(7)
    got = agg.small_key_aggregate(
        ds, ["k", "s"],
        [(None, "count_all", "n"),
         ("v", "sum", "v_sum"),
         ("v", "min", "v_min"),
         ("v", "max", "v_max")]).to_pandas()
    df = t.to_pandas()
    want = (df.groupby(["k", "s"], dropna=False)
            .agg(n=("v", "size"), v_sum=("v", "sum"),
                 v_min=("v", "min"), v_max=("v", "max"))
            .reset_index())
    g = got.sort_values(["k", "s"], na_position="last") \
        .reset_index(drop=True)
    w = want.sort_values(["k", "s"], na_position="last") \
        .reset_index(drop=True)
    # null key groups must survive (SQL GROUP BY semantics)
    assert g["s"].isna().sum() == w["s"].isna().sum() > 0
    for c in ("n", "v_sum", "v_min", "v_max"):
        assert g[c].astype("int64").tolist() == \
            w[c].astype("int64").tolist(), c


def test_small_key_aggregate_empty_and_guard():
    t = pa.table({"k": pa.array([], pa.string()),
                  "v": pa.array([], pa.int64())})
    out = agg.small_key_aggregate(
        ray.data.from_arrow(t), ["k"],
        [("v", "sum", "tot"), (None, "count_all", "n")])
    # schema survives empty input (to_pandas drops cols on empty ds)
    assert out.count() == 0
    assert set(out.schema().names) == {"k", "tot", "n"}
    # loud guard: a key that is NOT small-cardinality must raise,
    # not silently hold the whole keyspace on the driver
    big = pa.table({"k": pa.array(np.arange(1000), pa.int64()),
                    "v": pa.array(np.ones(1000), pa.float64())})
    with pytest.raises(Exception, match="not small-cardinality"):
        agg.small_key_aggregate(
            ray.data.from_arrow(big), ["k"],
            [("v", "sum", "s")], max_partial_rows=10).to_pandas()


def test_count_min_cells_reference_mass_and_partition_invariance():
    """CMS cells must equal a pure-numpy reference sketch EXACTLY,
    conserve total token mass in every row d, bound each point
    estimate below by the true count, and reproduce bit-for-bit under
    a different partitioning (cells merge by exact int addition — the
    property that earns this sketch a full hash-match oracle where
    Misra-Gries stays rows-only)."""
    from kgeng.ops.agg import (_splitmix64, cms_point_estimates,
                               count_min_cells)
    from kgeng.ops.text import _hash_tokens

    texts = (["red green blue red red", "green green blue",
              None, "", "solo",
              "red blue red blue red blue"] * 7)
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    width, depth = 16, 3            # tiny width: force collisions

    def run(nparts):
        rows = count_min_cells(
            ray.data.from_arrow(t).repartition(nparts),
            "text", width=width, depth=depth).take_all()
        return sorted((r["d"], r["cell"], r["cnt"]) for r in rows)

    got = run(1)

    toks = [tok for s in texts for tok in (s or "").split()]
    ths = _hash_tokens(np.array(toks, object))
    ref: dict = {}
    for d in range(depth):
        step = np.uint64((d * 0x9E3779B97F4A7C15) % (1 << 64))
        cell = (_splitmix64(ths + step) % np.uint64(width)).astype(int)
        for c in cell:
            ref[(d, int(c))] = ref.get((d, int(c)), 0) + 1
    assert got == sorted((d, c, n) for (d, c), n in ref.items())

    n_tokens = len(toks)
    per_row = pd.DataFrame(got, columns=["d", "cell", "cnt"]) \
        .groupby("d")["cnt"].sum()
    assert (per_row == n_tokens).all() and len(per_row) == depth

    assert run(5) == got            # partition invariance, exact

    cells_t = pa.table({
        "d": pa.array([d for d, _, _ in got], pa.int32()),
        "cell": pa.array([c for _, c, _ in got], pa.int64()),
        "cnt": pa.array([n for _, _, n in got], pa.int64())})
    vocab = sorted(set(toks))
    est = cms_point_estimates(cells_t, vocab, width=width, depth=depth)
    true = pd.Series(toks).value_counts()
    for term, e in zip(vocab, est):
        assert int(e) >= int(true[term]), (term, e, true[term])
    # width 16 over a 4-term vocab: at least the heavy terms must be
    # exact unless every row collides — sanity that estimates aren't
    # uniformly inflated garbage
    assert sum(int(e) == int(true[tm]) for tm, e in zip(vocab, est)) >= 1


def test_sorted_neighborhood_pairs_reference_and_block_boundaries():
    """SNM candidate pairs must exactly equal the single-machine
    reference (sort, pair each row with its window-1 successors) for
    ANY partitioning — including blocks SMALLER than the window, which
    forces a block's context to be stitched from several following
    blocks — and a window larger than the dataset must yield all
    ordered pairs."""
    from kgeng.ops.dedup import sorted_neighborhood_pairs

    names = [f"item {chr(97 + i % 17)}{i % 7}{i:03d}" for i in range(61)]
    pids = list(range(1000, 1000 + len(names)))
    t = pa.table({"pid": pa.array(pids, pa.int64()),
                  "name": pa.array(names, pa.string())})

    order = sorted(range(len(names)), key=lambda i: (names[i], pids[i]))

    def ref_pairs(window):
        out = []
        for i in range(len(order)):
            for d in range(1, window):
                if i + d < len(order):
                    out.append((pids[order[i]], pids[order[i + d]]))
        return sorted(out)

    for nparts, window in [(1, 5), (7, 5), (40, 5), (7, 200)]:
        got = sorted(
            (r["a_pid"], r["b_pid"])
            for r in sorted_neighborhood_pairs(
                ray.data.from_arrow(t).repartition(nparts),
                by=["name", "pid"], window=window,
                carry=["pid"]).take_all())
        assert got == ref_pairs(window), (nparts, window, len(got))

    with pytest.raises(ValueError, match="window"):
        sorted_neighborhood_pairs(ray.data.from_arrow(t),
                                  by=["name"], window=1)


# ------------------------------------------------------------- bm25/gopher

def test_bm25_matches_pure_python_reference():
    """bm25_scores vs a from-first-principles per-doc Python replay
    (Lucene idf, exact integer corpus stats), plus partition
    invariance."""
    import math

    texts = ["hash join hash scan", "window window window",
             "nothing matches here at all", "hash",
             "join scan window hash join", None, ""]
    ids = list(range(len(texts)))
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())})
    terms = ["hash", "join", "scan", "window"]
    k1, b = 1.2, 0.75

    toks = [(x or "").split() for x in texts]
    n_docs = len(texts)
    n_tokens = sum(len(tk) for tk in toks)
    avgdl = float(n_tokens) / float(n_docs)
    df = {q: sum(1 for tk in toks if q in tk) for q in terms}
    want = {}
    for i, tk in enumerate(toks):
        s, matched = 0.0, 0
        for q in terms:
            tf = tk.count(q)
            if tf == 0:
                continue
            matched += 1
            idf = math.log(1.0 + (n_docs - df[q] + 0.5) / (df[q] + 0.5))
            s += idf * (tf * (k1 + 1.0)) \
                / (tf + k1 * (1.0 - b + b * (len(tk) / avgdl)))
        if matched:
            want[i] = (matched, round(s, 6))

    for nb in (1, 3):
        ds = ray.data.from_arrow(t).repartition(nb)
        out = {r["doc_id"]: (r["n_terms_matched"], r["bm25"])
               for r in text.bm25_scores(ds, terms, k1=k1, b=b)
               .take_all()}
        assert set(out) == set(want)
        for i in want:
            assert out[i][0] == want[i][0]
            assert out[i][1] == pytest.approx(want[i][1], abs=1e-6)


def test_bm25_guards():
    ds = ray.data.from_arrow(pa.table({"doc_id": [1], "text": ["x"]}))
    with pytest.raises(ValueError):
        text.bm25_scores(ds, [])
    with pytest.raises(ValueError):
        text.bm25_scores(ds, ["a", "a"])


def test_gopher_quality_rules_and_zero_token_rows():
    long_good = ("the cat sat on the mat with a hat and that was "
                 "that have with " * 5).strip()   # >50 words, stopwordy
    short = "tiny doc"                             # fails word count
    no_stops = " ".join(["zz%d" % i for i in range(60)])  # no stopwords
    t = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                  "text": pa.array([long_good, short, no_stops, None],
                                   pa.string())})
    out = {r["doc_id"]: r
           for r in text.gopher_quality(
               ray.data.from_arrow(t), min_words=50).take_all()}
    assert len(out) == 4
    g = out[0]
    assert g["ok_word_count"] and g["ok_stop_hits"] and g["keep"]
    assert g["n_words"] == len(long_good.split())
    assert g["stop_hits"] >= 2
    assert not out[1]["ok_word_count"] and not out[1]["keep"]
    assert out[2]["ok_word_count"] and not out[2]["ok_stop_hits"]
    assert not out[2]["keep"]
    # null text: zero tokens, all metrics zero, filtered out
    z = out[3]
    assert z["n_words"] == 0 and z["mean_word_len"] == 0.0
    assert z["alpha_frac"] == 0.0 and not z["keep"]
    # mean word length replays the exact int/int division
    assert out[0]["mean_word_len"] == pytest.approx(
        round(sum(len(w) for w in long_good.split())
              / len(long_good.split()), 6), abs=1e-9)


def test_chunk_tokens_layout_reference_and_partition_invariance():
    """chunk_tokens vs a per-doc Python replay of the closed-form
    layout (stride windows, tail rule, single-space join), incl. a doc
    whose last chunk ends exactly at n, a sub-chunk doc, an exactly
    chunk_size doc, a null and an empty doc."""
    size, ov = 4, 1
    stride = size - ov
    texts = ["a b c d e f g h i j",        # 10 toks: starts 0,3,6
             "x",                          # 1 tok: one short chunk
             "p q r s",                    # == size: exactly one chunk
             "k l m n o",                  # 5 toks: starts 0,3
             None, ""]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})

    want = []
    for i, x in enumerate(texts):
        tk = (x or "").split()
        n = len(tk)
        if n == 0:
            continue
        n_chunks = 1 + max(0, -(-(n - size) // stride))
        for j in range(n_chunks):
            s = j * stride
            ln = min(size, n - s)
            want.append((i, j, s, ln, " ".join(tk[s:s + ln])))

    for nb in (1, 4):
        ds = ray.data.from_arrow(t).repartition(nb)
        out = sorted(
            (r["doc_id"], r["chunk_idx"], r["start_tok"], r["n_tok"],
             r["chunk_text"])
            for r in text.chunk_tokens(ds, chunk_size=size,
                                       overlap=ov).take_all())
        assert out == sorted(want)


def test_chunk_tokens_guards():
    ds = ray.data.from_arrow(pa.table({"doc_id": [1], "text": ["x"]}))
    for size, ov in ((0, 0), (4, 4), (4, -1)):
        with pytest.raises(ValueError):
            text.chunk_tokens(ds, chunk_size=size, overlap=ov)


def test_bigram_lm_scores_reference_fallbacks_and_invariance():
    """bigram_lm_scores vs a per-doc Python replay of the add-one
    conditional model, including the OOV fallback chain (unseen pair
    with seen context -> ln(1/(c(v)+V)); unseen context -> ln(1/V))
    exercised via a separate train corpus."""
    import math

    train_texts = ["a b a b c", "a b b"]
    score_texts = ["a b",        # seen bigram
                   "b a",        # unseen pair, seen context b
                   "z q",        # unseen context z
                   "a",          # single token: dropped
                   None]
    train = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                      "text": pa.array(train_texts, pa.string())})
    sc = pa.table({"doc_id": pa.array(range(len(score_texts)), pa.int64()),
                   "text": pa.array(score_texts, pa.string())})

    toks = [t.split() for t in train_texts]
    uni = {}
    for tk in toks:
        for w in tk:
            uni[w] = uni.get(w, 0) + 1
    V = len(uni)
    bi = {}
    for tk in toks:
        for x, y in zip(tk, tk[1:]):
            bi[(x, y)] = bi.get((x, y), 0) + 1

    def q(x):
        v = x * 1e9
        return int(math.copysign(math.floor(abs(v) + 0.5), v))

    def lp(v, w):
        if (v, w) in bi:
            return q(math.log((bi[(v, w)] + 1.0) / (uni[v] + V)))
        if v in uni:
            return q(math.log(1.0 / (uni[v] + V)))
        return q(math.log(1.0 / V))

    want = {}
    for i, x in enumerate(score_texts):
        tk = (x or "").split()
        if len(tk) < 2:
            continue
        s = sum(lp(v, w) for v, w in zip(tk, tk[1:]))
        n = len(tk) - 1
        want[i] = (n, round((s / 1e9) / n, 6))

    for nb in (1, 3):
        ds = ray.data.from_arrow(sc).repartition(nb)
        out = {r["doc_id"]: (r["n_bigrams"], r["avg_logprob2"])
               for r in text.bigram_lm_scores(
                   ds, train_ds=ray.data.from_arrow(train)).take_all()}
        assert set(out) == set(want)
        for i in want:
            assert out[i][0] == want[i][0]
            assert out[i][1] == pytest.approx(want[i][1], abs=1e-9)


def test_bigram_lm_guards():
    empty = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array([""], pa.string())}))
    with pytest.raises(ValueError):
        text.bigram_lm_scores(empty)
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array(["a b c"], pa.string())}))
    with pytest.raises(ValueError):
        text.bigram_lm_scores(ds, max_bigrams=1)


def test_minhash_dedup_incremental_semantics_and_band_table_reuse():
    """Incremental dedup: a new doc duplicating corpus content labels
    with the OLD id; new-new dups cluster among themselves; old-old
    near-dups are excluded, so two new docs tied only through an
    old-old pair stay separate. The persisted band-table path and
    plan B (driver_max_pairs=0) must agree with the direct plan-A
    run."""
    base = ("the quick brown fox jumps over the lazy dog while "
            "seventeen astronomers catalog distant spiral galaxies")
    base2 = base + " tonight"               # near-dup of base (old x old)
    other = ("completely different content about submarine cable "
             "maintenance schedules and deep sea pressure ratings "
             "for titanium hulls")
    old = pa.table({
        "doc_id": pa.array(["o1", "o2", "o3"], pa.string()),
        "text": pa.array([base, base2, other], pa.string())})
    new = pa.table({
        "doc_id": pa.array(["n1", "n2", "n3", "n4", "n5"], pa.string()),
        "text": pa.array([
            base,                       # exact dup of o1
            other + " revised",         # near-dup of o3
            "unique new document about alpine glacier melt rates "
            "measured by satellite laser altimetry over two decades",
            "shared new content peanut butter sandwich assembly "
            "instructions for left handed chefs with extra steps",
            "shared new content peanut butter sandwich assembly "
            "instructions for left handed chefs with extra steps too",
        ], pa.string())})
    old_ds = ray.data.from_arrow(old)
    new_ds = ray.data.from_arrow(new)

    runs = {}
    runs["plan_a"] = dedup.minhash_dedup_incremental(
        new_ds, old_ds, threshold=0.5)
    runs["plan_b"] = dedup.minhash_dedup_incremental(
        new_ds, old_ds, threshold=0.5, driver_max_pairs=0)
    bands = dedup.minhash_band_table(old_ds).materialize()
    runs["band_table"] = dedup.minhash_dedup_incremental(
        new_ds, old_ds, threshold=0.5, old_bands=bands)

    for name, out_ds in runs.items():
        out = {r["doc_id"]: r["cluster_rep"] for r in out_ds.take_all()}
        assert set(out) == {"n1", "n2", "n3", "n4", "n5"}, name
        assert out["n1"] == "o1", name           # dup of corpus doc
        assert out["n2"] == "o3", name           # near-dup of corpus doc
        assert out["n3"] == "n3", name           # unique
        assert out["n4"] == out["n5"] == "n4", name  # new-new cluster
    # o1/o2 are near-dups of each other, but no new doc links to o2 and
    # old x old edges are excluded: n1's rep is o1, never merged via o2
    with pytest.raises(ValueError):
        dedup.minhash_dedup_incremental(new_ds, None)


def test_gopher_repetition_reference_and_overlap_union():
    """gopher_repetition vs a per-doc Python replay: top-n-gram ties
    break to the smallest gram, overlapping duplicate grams union
    their positions (never double count), short/empty/null docs read
    0."""
    texts = ["a b a b a b c",            # top2 'a b' x3 -> 6/7
             "p q r s t p q r s t u v",  # dup5 'p q r s t' x2 covers 10
             "x", "", None]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})

    def ref(x):
        tk = (x or "").split()
        total = max(sum(len(w) for w in tk), 1)
        out = {}
        for n in (2, 3, 4):
            grams = [" ".join(tk[i:i + n])
                     for i in range(len(tk) - n + 1)]
            if not grams:
                out[f"top{n}gram_frac"] = 0.0
                continue
            cnt = {}
            for g in grams:
                cnt[g] = cnt.get(g, 0) + 1
            best = min(cnt, key=lambda g: (-cnt[g], g))
            chars = len(best) - (n - 1)
            out[f"top{n}gram_frac"] = round(cnt[best] * chars / total, 6)
        for n in (5, 8, 10):
            grams = [" ".join(tk[i:i + n])
                     for i in range(len(tk) - n + 1)]
            cnt = {}
            for g in grams:
                cnt[g] = cnt.get(g, 0) + 1
            covered = set()
            for i, g in enumerate(grams):
                if cnt[g] >= 2:
                    covered.update(range(i, i + n))
            out[f"dup{n}gram_frac"] = round(
                sum(len(tk[i]) for i in covered) / total, 6)
        return out

    for nb in (1, 3):
        ds = ray.data.from_arrow(t).repartition(nb)
        got = {r["doc_id"]: r
               for r in text.gopher_repetition(ds).take_all()}
        assert len(got) == len(texts)
        for i, x in enumerate(texts):
            want = ref(x)
            for k, v in want.items():
                assert got[i][k] == pytest.approx(v, abs=1e-9), (i, k)
    # doc 1's dup5 coverage: two disjoint occurrences cover 10 of 12
    # single-char tokens
    assert got[1]["dup5gram_frac"] == pytest.approx(10 / 12, abs=1e-6)


def test_minhash_band_table_parquet_round_trip(tmp_path):
    """The persisted-index path end to end: band the corpus once,
    write the band table to parquet, read it back in a fresh Dataset,
    and dedup a new shard against it — identical labels to the direct
    run (band hashes are seed-stable across runs)."""
    old = pa.table({
        "doc_id": pa.array(["a1", "a2"], pa.string()),
        "text": pa.array([
            "the quick brown fox jumps over the lazy dog near the "
            "riverbank every single morning without fail",
            "unrelated corpus text about medieval manuscript "
            "preservation techniques in controlled humidity vaults",
        ], pa.string())})
    new = pa.table({
        "doc_id": pa.array(["n1", "n2"], pa.string()),
        "text": pa.array([
            "the quick brown fox jumps over the lazy dog near the "
            "riverbank every single morning without fail",
            "fresh content on tidal energy turbine blade erosion "
            "monitoring with acoustic sensors and drones",
        ], pa.string())})
    old_ds = ray.data.from_arrow(old)
    new_ds = ray.data.from_arrow(new)

    p = str(tmp_path / "bands")
    dedup.minhash_band_table(old_ds).write_parquet(p)
    from_disk = ray.data.read_parquet(p)

    direct = {r["doc_id"]: r["cluster_rep"]
              for r in dedup.minhash_dedup_incremental(
                  new_ds, old_ds, threshold=0.5).take_all()}
    via_disk = {r["doc_id"]: r["cluster_rep"]
                for r in dedup.minhash_dedup_incremental(
                    new_ds, old_ds, threshold=0.5,
                    old_bands=from_disk).take_all()}
    assert direct == via_disk == {"n1": "a1", "n2": "n2"}


# ----------------------------------------------------- q8 integer kmeans

def _kmeans_q8_reference(t, k, iters):
    """Single-threaded integer replay of kmeans_q8_assign (same q8
    quantization kernel, same round-half-away centroid update)."""
    ids, q8 = similarity._q8_wide(t, "vec_id", "embedding", 1e6)
    order = np.argsort(ids)
    ids, q8 = ids[order], q8[order]
    cent = q8[:k].copy()
    for _ in range(iters):
        d2 = ((q8 * q8).sum(1)[:, None] - 2 * (q8 @ cent.T)
              + (cent * cent).sum(1)[None, :])
        a = np.argmin(d2, axis=1)
        new = cent.copy()
        for c in range(k):
            sel = a == c
            if sel.any():
                new[c] = similarity._div_round_half_away(
                    q8[sel].sum(0), np.full(q8.shape[1], sel.sum()))
        cent = new
    d2 = ((q8 * q8).sum(1)[:, None] - 2 * (q8 @ cent.T)
          + (cent * cent).sum(1)[None, :])
    return ids, np.argmin(d2, axis=1)


def test_kmeans_q8_matches_reference_and_partition_invariant():
    rng = np.random.default_rng(43)
    blobs = [rng.normal(0, 0.2, (60, 6)) + off
             for off in ([1, 0, 0, 0, 0, 0], [0, 5, 5, 0, 0, 0],
                         [0, 0, 0, 7, 7, 0])]
    m = np.stack(blobs, axis=1).reshape(-1, 6).astype(np.float32)
    truth = np.tile([0, 1, 2], 60)
    t = pa.table({"vec_id": pa.array(np.arange(180), pa.int64()),
                  "embedding": pa.array(list(m), pa.list_(pa.float32()))})
    ref_ids, ref = _kmeans_q8_reference(t, k=3, iters=3)
    outs = []
    for parts in (1, 7):
        out = similarity.kmeans_q8_assign(
            ray.data.from_arrow(t).repartition(parts), k=3,
            iters=3).to_pandas().sort_values("vec_id")
        assert np.array_equal(out["vec_id"].to_numpy(), ref_ids)
        outs.append(out["cluster"].to_numpy())
        assert np.array_equal(out["cluster"].to_numpy(), ref), parts
    assert np.array_equal(outs[0], outs[1])
    for b in range(3):
        assert len(set(outs[0][truth == b])) == 1


def test_semantic_dup_pairs_q8_precision_and_recall_on_blobs():
    """Integer SemDeDup: emitted pairs must EXACTLY equal the
    brute-force integer-cosine pairs restricted to shared clusters;
    near-identical vectors (same blob) must be found."""
    rng = np.random.default_rng(47)
    base = rng.normal(0, 1, (8, 8))
    rows, ids = [], []
    for i, b in enumerate(base):
        for j in range(3):  # 3 near-copies of each base vector
            rows.append(b + rng.normal(0, 0.01, 8))
            ids.append(i * 10 + j)
    m = np.array(rows, np.float32)
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(list(m), pa.list_(pa.float32()))})
    out = similarity.semantic_dup_pairs_q8(
        ray.data.from_arrow(t).repartition(3), k=4, iters=3,
        tau2_num=81, tau2_den=100).to_pandas()  # cos >= 0.9
    got = set(zip(out["id_a"], out["id_b"]))
    # exact integer check over SHARED-cluster pairs
    ref_ids, cl = _kmeans_q8_reference(t, k=4, iters=3)
    _, q8 = similarity._q8_wide(t, "vec_id", "embedding", 1e6)
    order = np.argsort(t["vec_id"].to_numpy())
    q8 = q8[order]
    nn = (q8 * q8).sum(1)
    want = set()
    for i in range(len(ref_ids)):
        for j in range(i + 1, len(ref_ids)):
            if cl[i] != cl[j]:
                continue
            dot = int((q8[i] * q8[j]).sum())
            if dot > 0 and 100 * dot * dot >= 81 * int(nn[i]) * int(nn[j]):
                want.add((int(ref_ids[i]), int(ref_ids[j])))
    assert got == want
    # every same-blob pair that shares a cluster is found
    same_blob = {(a, b) for (a, b) in want if a // 10 == b // 10}
    assert same_blob and same_blob <= got
    for a, b in got:
        assert int(out[(out.id_a == a) & (out.id_b == b)]["dot"].iloc[0]) \
            == int((q8[list(ref_ids).index(a)]
                    * q8[list(ref_ids).index(b)]).sum())


# ------------------------------------------------ sketch-rescan heavy hitters

def test_heavy_hitters_rescan_matches_exact_topk():
    rng = np.random.default_rng(11)
    # Zipfian-ish: term i appears ~ 3000/i times
    terms = []
    for i in range(1, 400):
        terms.extend([f"t{i:04d}"] * max(1, 3000 // i))
    rng.shuffle(terms)
    ds = ray.data.from_arrow(
        pa.table({"term": pa.array(terms)})).repartition(9)
    got = agg.heavy_hitters_rescan(ds, "term", k=10,
                                   capacity=64).to_pandas()
    import collections
    cnt = collections.Counter(terms)
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got["term"], got["tf"])) == [
        (k, v) for k, v in want]


def test_heavy_hitters_rescan_raises_when_sketch_too_coarse():
    # near-uniform counts with a tiny capacity: the k-th true count
    # cannot exceed the accumulated MG error, so the certificate fails
    terms = [f"u{i:05d}" for i in range(5000) for _ in range(2)]
    ds = ray.data.from_arrow(
        pa.table({"term": pa.array(terms)})).repartition(4)
    with pytest.raises(ValueError, match="raise capacity"):
        agg.heavy_hitters_rescan(ds, "term", k=5, capacity=8)


def test_heavy_hitters_rescan_bounds_candidates_before_pull(monkeypatch):
    """Past max_candidates the call raises before any candidate reaches
    the driver: only the (single) error row is pulled."""
    terms = [f"t{i:04d}" for i in range(1, 200)
             for _ in range(max(1, 600 // i))]
    ds = ray.data.from_arrow(
        pa.table({"term": pa.array(terms)})).repartition(4)
    pulled = []
    orig = ray.data.Dataset.take_all

    def take_all(self, *a, **kw):
        rows = orig(self, *a, **kw)
        pulled.append(len(rows))
        return rows

    monkeypatch.setattr(ray.data.Dataset, "take_all", take_all)
    with pytest.raises(ValueError, match="improve block coherence"):
        agg.heavy_hitters_rescan(ds, "term", k=10, capacity=64,
                                 max_candidates=5)
    assert pulled and max(pulled) <= 1, pulled


# ------------------------------------------------ edge triangle support

def test_edge_triangle_support_plans_agree_and_match_bruteforce():
    from kgeng.ops import graph as G
    rng = np.random.default_rng(7)
    m = 400
    src = rng.integers(0, 60, m)
    dst = rng.integers(0, 60, m)
    t = pa.table({"src": pa.array(src, pa.int64()),
                  "dst": pa.array(dst, pa.int64())})
    ds = ray.data.from_arrow(t).repartition(5)
    a = G.edge_triangle_support(ds, "src", "dst") \
        .to_pandas().sort_values(["u", "v"]).reset_index(drop=True)
    b = G.edge_triangle_support(ds, "src", "dst",
                                broadcast_edges_cutover=0) \
        .to_pandas().sort_values(["u", "v"]).reset_index(drop=True)
    assert a.equals(b), "plan A != plan B"
    # brute force
    E = set()
    for s, d in zip(src.tolist(), dst.tolist()):
        if s != d:
            E.add((min(s, d), max(s, d)))
    import collections
    sup = collections.Counter()
    Es = sorted(E)
    for i, (u, v) in enumerate(Es):
        for (x, y) in Es[i + 1:]:
            if x == u:  # wedge u-v, u-y
                lo, hi = min(v, y), max(v, y)
                if (lo, hi) in E:
                    sup[(u, v)] += 1
                    sup[(x, y)] += 1
                    sup[(lo, hi)] += 1
    want = sorted((u, v, c) for (u, v), c in sup.items())
    got = list(map(tuple, a[["u", "v", "support"]].values.tolist()))
    assert got == want


def test_labelprop_plans_agree():
    from kgeng.ops import graph as G
    rng = np.random.default_rng(3)
    m = 300
    t = pa.table({"src": pa.array(rng.integers(0, 40, m), pa.int64()),
                  "dst": pa.array(rng.integers(0, 40, m), pa.int64())})
    ds = ray.data.from_arrow(t).repartition(4)
    a = G.label_propagation_communities(ds, rounds=3, state="driver") \
        .to_pandas().sort_values("node").reset_index(drop=True)
    b = G.label_propagation_communities(ds, rounds=3,
                                        state="distributed") \
        .to_pandas().sort_values("node").reset_index(drop=True)
    assert a.equals(b), (a.head(), b.head())
