"""Driver-facing query implementations (the ``queries()`` registry backing
``__ray_entry__.py``).

Every callable takes ``sf_dir`` (a /root/testdata/sf* directory) and returns
a Dataset / pandas DataFrame / pyarrow Table. Computed columns are named
identically to the matching ``oracle_sql()`` entry (the driver hash-compares
values after sorting columns by name).

Float policy: any aggregate whose value depends on floating summation order
is rounded (2-6 dp) on BOTH sides, so Ray partial sums and DuckDB single-
threaded sums hash identically.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from kgeng.ops import agg as agg_ops
from kgeng.ops import dedup as dedup_ops
from kgeng.ops import media as media_ops
from kgeng.ops import similarity as sim_ops
from kgeng.ops import text as text_ops

# ----------------------------------------------------------------- helpers

def _cents(arr, scale: float = 100.0) -> pa.Array:
    """Order-independent money/value sums: round to scaled int64 per row
    (half away from zero, matching DuckDB round())."""
    return pc.cast(pc.round(pc.multiply(arr, scale), ndigits=0,
                            round_mode="half_towards_infinity"),
                   pa.int64())


def _uncents(arr, scale: float = 100.0) -> pa.Array:
    return pc.divide(pc.cast(arr, pa.float64()), scale)


def _feat_sum_batches(t: pa.Table) -> pa.Table:
    """features -> rounded feat_sum column (shared by both media
    queries so their rows-only pins stay byte-comparable).

    Vectorized list-sum: flatten the list column once, widen to float64
    (the old per-row path summed Python floats, i.e. float64). The
    uniform-width reshape path (the featurizer always emits fixed dim,
    so it is the one that runs) is bit-identical to the old per-row
    ``np.sum`` — same pairwise reduction over the same float64 values.
    The ragged fallback uses ``np.add.reduceat`` (sequential order, NOT
    bit-identical in the last ulp); the round-to-4 output makes that
    difference immaterial there."""
    col = t["features"].combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    offs = col.offsets.to_numpy(zero_copy_only=False)
    offs = offs - offs[0]
    widths = np.diff(offs)
    if len(col) == 0:
        sums = np.zeros(0, np.float64)
    elif (widths == widths[0]).all() and widths[0] > 0:
        sums = flat.reshape(len(col), int(widths[0])).sum(axis=1)
    else:
        sums = np.zeros(len(col), np.float64)
        nz = widths > 0
        if flat.size:
            sums[nz] = np.add.reduceat(flat, offs[:-1][nz])
    return t.drop_columns(["features"]).append_column(
        "feat_sum", pc.round(pa.array(sums, pa.float64()), ndigits=4))


def _clean_schema(path: str, columns=None):
    """Footer schema with metadata stripped (pruned to ``columns``).
    The sf parquet files carry pandas-written ``b'pandas'`` metadata
    whose dict payload makes ``hash(schema)`` raise; blocks born with
    it make every wide op log Ray's 'Failed to hash the schemas (for
    deduplication)' once per reduce task AND lose the schema-dedup
    early-exit in unify_schemas. Passing a clean ``schema=`` into
    ``read_parquet`` kills the noise at birth — including inside the
    read task itself, where a fused post-read strip ran too late and
    fresh worker processes (no kgeng import yet) leaked the warning
    past the package-level log filter."""
    import pyarrow.parquet as _pq_mod

    full = _pq_mod.read_schema(path).remove_metadata()
    if columns is None:
        return full
    return pa.schema([full.field(c) for c in columns])


def _pq(sf_dir: str, name: str, columns=None,
        filter=None) -> ray.data.Dataset:
    """Column-pruned (and optionally row-filter-pushed) parquet read —
    a selective predicate passed here skips row groups at the scan
    instead of filtering after deserialization.

    Block count scales with FILE BYTES (~256 KB of compressed parquet
    per block, clamped to [2, 64]) instead of Ray's cpu-count default:
    the default splits a 500 KB table into 64 near-empty blocks, and
    every downstream shuffle then schedules a 64x64 map/reduce task
    matrix whose fixed overhead dwarfs the data. Large inputs still
    fan out (the clamp ceiling matches the old default); at real
    multi-file scale read_parquet's own size-based planning takes
    over block sizing anyway."""
    path = os.path.join(sf_dir, f"{name}.parquet")
    kw = {"columns": columns}
    if filter is not None:
        kw["filter"] = filter
    try:
        nblk = max(2, min(64, os.path.getsize(path) // (256 << 10) + 1))
        kw["override_num_blocks"] = int(nblk)
        kw["schema"] = _clean_schema(path, columns)
    except OSError:
        pass  # directories / remote paths: let Ray plan the blocks
    return ray.data.read_parquet(path, **kw)


# ------------------------------------------------------- relational queries

def q1_lineitem_agg(sf_dir: str):
    """TPC-H-Q1-style grouped aggregate with a partial+final-friendly plan.
    Revenue = extendedprice * (1 - discount), computed vectorized."""
    ds = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_quantity",
              "l_extendedprice", "l_discount"])

    # float sums are summation-order-dependent; per-row integer cents sum
    # exactly and identically in any order (and in DuckDB)
    def add_cents(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(1.0, t["l_discount"]))
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "l_quantity": t["l_quantity"],
            "price_c": _cents(t["l_extendedprice"]),
            "rev_c": _cents(rev),
        })

    # 6 output groups: partial-per-block + driver final combine
    # (agg_ops.small_key_aggregate) — a full sort shuffle here costs
    # scheduling time independent of the 6-row answer
    out = agg_ops.small_key_aggregate(
        ds.map_batches(add_cents, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [("l_quantity", "sum", "sum_qty"),
         ("price_c", "sum", "price_c"),
         ("rev_c", "sum", "rev_c"),
         (None, "count_all", "count_order")])

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            # qty values are integral doubles -> the sum is exact
            "sum_qty": t["sum_qty"],
            "sum_base_price": _uncents(t["price_c"]),
            "sum_revenue": _uncents(t["rev_c"]),
            "count_order": pc.cast(t["count_order"], pa.int64()),
        })

    return out.map_batches(final, batch_format="pyarrow")


def orders_by_custseg(sf_dir: str):
    """Broadcast join (small side = customer, shipped once via ray.put,
    vectorized index_in lookup per batch) + grouped aggregate — the
    SURVEY §2.4 lookup-join pattern via the reusable ops/join op."""
    import pyarrow.parquet as pq

    from kgeng.ops.join import broadcast_join

    cust_tbl = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"]).rename_columns(
            ["o_custkey", "c_mktsegment"])
    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, cust_tbl, "o_custkey", how="left",
                            fill={"c_mktsegment": "UNKNOWN"})

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"c_mktsegment": t["c_mktsegment"],
                         "price_c": _cents(t["o_totalprice"])})

    # 5 market segments (+UNKNOWN): driver-final combine beats a shuffle
    out = agg_ops.small_key_aggregate(
        joined.map_batches(prep, batch_format="pyarrow"),
        ["c_mktsegment"],
        [(None, "count_all", "n_orders"),
         ("price_c", "sum", "price_c")])

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": t["c_mktsegment"],
            "n_orders": pc.cast(t["n_orders"], pa.int64()),
            "sum_price": _uncents(t["price_c"]),
        })

    return out.map_batches(final, batch_format="pyarrow")


def events_tumbling_window(sf_dir: str):
    """Tumbling 1-hour window per event_type: count + rounded sum(value).
    Ray Data has no event-time windows; the window key is computed
    vectorized (epoch_us // 3600e6) and aggregated via groupby."""
    ds = _pq(sf_dir, "events", ["ts", "event_type", "value"])

    def bucket(t: pa.Table) -> pa.Table:
        # normalize to µs (ns-born timestamps would silently mis-bucket)
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        hour = pc.divide(us, 3600_000_000)
        return pa.table({"event_type": t["event_type"],
                         "window_start_hour": hour,
                         "value_s": _cents(t["value"], 10000.0)})

    # bounded keys (event types x hour buckets): partial-per-block +
    # driver final combine, no shuffle
    out = agg_ops.small_key_aggregate(
        ds.map_batches(bucket, batch_format="pyarrow"),
        ["event_type", "window_start_hour"],
        [(None, "count_all", "n_events"),
         ("value_s", "sum", "value_s")])

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "window_start_hour": t["window_start_hour"],
            "n_events": pc.cast(t["n_events"], pa.int64()),
            "sum_value": _uncents(t["value_s"], 10000.0),
        })

    return out.map_batches(final, batch_format="pyarrow")


def top_orders(sf_dir: str):
    """Global sort + limit: top 100 orders by totalprice (ties broken by
    o_orderkey) — the top-k shape (per-block prune, then a tiny global
    sort over <= 100-per-block survivors), never an all-row sort."""
    from kgeng.ops.rank import top_k_global

    ds = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return top_k_global(ds, ["o_totalprice", "o_orderkey"], 100,
                        descending=[True, False])


def distinct_event_types(sf_dir: str):
    ds = _pq(sf_dir, "events", ["event_type"])
    from kgeng.pipeline import distinct

    return distinct(ds, ["event_type"])


# ------------------------------------------------------------ text queries

def doc_token_count(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return text_ops.add_token_count(ds).select_columns(
        ["doc_id", "n_tokens"])


def doc_token_count_bpe(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return text_ops.add_token_count_bpe(ds).select_columns(
        ["doc_id", "n_bpe_tokens"])


def doc_quality(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return text_ops.add_quality_score(ds).select_columns(
        ["doc_id", "n_chars_q", "alpha_ratio", "space_ratio",
         "avg_token_len", "quality_score"])


def docs_above_median_quality(sf_dir: str):
    """Quality gate: keep docs at or above the GLOBAL median quality
    score — the small-aggregate-then-broadcast pattern (an exact global
    quantile is one tiny row; the filter is a vectorized per-batch
    compare). Scale path: swap the exact quantile for
    ops/rank.approx_grouped_quantiles (mergeable histogram) when the
    value set can't sit in one task."""
    import numpy as np

    from kgeng.ops.rank import grouped_quantiles

    # materialize: both the quantile pass and the returned filter plan
    # consume this — lazy, the regex-heavy scoring would execute twice
    scored = text_ops.add_quality_score(
        _pq(sf_dir, "documents", ["doc_id", "text"])).select_columns(
            ["doc_id", "quality_score"]).materialize()

    def const_group(t: pa.Table) -> pa.Table:
        return t.append_column("g", pa.array(np.zeros(len(t), np.int8)))

    med_tbl = grouped_quantiles(scored.map_batches(
        const_group, batch_format="pyarrow"), "g", "quality_score",
        [0.5], round_to=9).take_all()
    med = float(med_tbl[0]["quantile_value"])

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["quality_score"],
                                         pa.scalar(med)))

    return scored.map_batches(keep, batch_format="pyarrow")


def docs_packed_2k(sf_dir: str):
    """Token-budget sequence packing: pack every document into
    2048-token training sequences with deterministic
    best-fit-decreasing. The DuckDB oracle replays the per-bucket
    sequential fold as a recursive CTE (packed_oracle_sql); invariants
    (fill <= budget, oversized docs isolated, partition invariance)
    stay pinned in tests/test_training_ops.py."""
    from kgeng.ops.sample import pack_sequences

    ds = text_ops.add_token_count(
        _pq(sf_dir, "documents", ["doc_id", "text"])).select_columns(
            ["doc_id", "n_tokens"])
    return pack_sequences(ds, count_col="n_tokens", id_col="doc_id",
                          budget=2048)


def doc_stats_by_lang(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["lang", "n_chars"])
    # ~5 languages: partial-per-block + driver final, no shuffle
    out = agg_ops.small_key_aggregate(
        ds, ["lang"],
        [(None, "count_all", "n_docs"),
         ("n_chars", "sum", "sum_chars"),
         ("n_chars", "min", "min_chars"),
         ("n_chars", "max", "max_chars")])

    def final(t: pa.Table) -> pa.Table:
        avg = pc.round(pc.divide(
            pc.cast(t["sum_chars"], pa.float64()),
            pc.cast(t["n_docs"], pa.float64())), ndigits=6,
            round_mode="half_towards_infinity")
        t = t.append_column("avg_chars", avg)
        for c in ("n_docs", "sum_chars", "min_chars", "max_chars"):
            t = t.set_column(t.column_names.index(c), c,
                             pc.cast(t[c], pa.int64()))
        return t

    return out.map_batches(final, batch_format="pyarrow")


def dedup_exact_docs(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return dedup_ops.exact_dedup(ds)


def lang_id_pred(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return text_ops.add_lang_id(ds).select_columns(["doc_id", "lang_pred"])


def doc_fingerprints(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return text_ops.add_fingerprint(ds).select_columns(
        ["doc_id", "fingerprint"])


def minhash_dedup_docs(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return dedup_ops.minhash_dedup(ds, threshold=0.5)


def simhash_docs(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return dedup_ops.add_simhash(ds).select_columns(["doc_id", "simhash"])


# ------------------------------------------------------- similarity queries

def _load_queries(sf_dir: str, n: int = 4):
    import pyarrow.parquet as pq

    # the n SMALLEST vec_ids — matches the oracle's ORDER BY vec_id LIMIT n
    # deterministically even if the parquet is unsorted or multi-file
    tbl = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    ids = np.asarray(tbl["vec_id"].to_pylist())
    order = np.argsort(ids, kind="stable")[:n]
    m = np.array([tbl["embedding"][int(i)].as_py() for i in order],
                 dtype=np.float64)
    return m, [ids[int(i)].item() for i in order]


def ann_topk(sf_dir: str):
    """Exact cosine top-5 for the first 4 vectors (brute-force baseline)."""
    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    q, qids = _load_queries(sf_dir)
    return sim_ops.brute_force_topk(emb, q, qids, k=5)


def ann_topk_lsh(sf_dir: str):
    """Approximate (hyperplane-LSH) variant — the scale path; recall < 1
    by construction, so no SQL oracle (rows-only check)."""
    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    q, qids = _load_queries(sf_dir)
    return sim_ops.lsh_topk(emb, q, qids, k=5, num_planes=4, num_tables=16)


def embedding_near_dup_pairs(sf_dir: str):
    """Exact cosine >= 0.4 pairs (the oracle uses the same threshold;
    num_planes=0 = single bucket, fine at sf scale — the bucketed path
    is exercised in tests)."""
    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = sim_ops.embedding_near_dup(emb, threshold=0.4,
                                     num_planes=0).to_pandas()
    if out.empty:  # keep the schema on empty results
        import pandas as pd

        out = pd.DataFrame({"a": pd.Series(dtype=str),
                            "b": pd.Series(dtype=str),
                            "sim": pd.Series(dtype=float)})
    return out


def embedding_components(sf_dir: str):
    """Connected components over the exact cosine>=0.4 near-dup pair set,
    via the fully distributed min-label propagation (the plan-B
    canonicalize path): one (node, label) row per node that appears in a
    pair, label = lexicographic-min vec_id of its component. Oracle: a
    DuckDB recursive CTE reachability query over the same pair set."""
    from kgeng.ops.canonicalize import label_propagation_components

    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = sim_ops.embedding_near_dup(emb, threshold=0.4, num_planes=0)
    return label_propagation_components(pairs, max_iter=25)


# ---------------------------------------------------------- media queries

def media_features(sf_dir: str):
    """Multimodal stub pipeline over deterministic synthetic blobs keyed to
    the sf dir (no external data)."""
    n = 64
    refs = [f"media://sf-{os.path.basename(sf_dir)}-{i:04d}"
            for i in range(n)]
    tbl = media_ops.synth_media_table(refs)
    ds = ray.data.from_arrow(tbl)
    out = media_ops.featurize_media(ds, dim=16)
    return out.map_batches(_feat_sum_batches, batch_format="pyarrow")


def media_frame_samples(sf_dir: str):
    """Multimodal stub pipeline #2: resize metadata for images + one row
    per sampled frame timestamp for audio/video (stride 1000 ms). Blobs
    never shuffle; rows-only check (decode is the env-gated seam)."""
    n = 48
    refs = [f"media://fs-{os.path.basename(sf_dir)}-{i:04d}"
            for i in range(n)]
    tbl = media_ops.synth_media_table(refs)
    ds = ray.data.from_arrow(tbl)
    images = ds.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "image")),
        batch_format="pyarrow")
    resized = images.map_batches(
        media_ops.ImageResizer, batch_format="pyarrow", batch_size=16,
        concurrency=(1, 2)).select_columns(
            ["media_ref", "resized_w", "resized_h"])
    timed = ds.map_batches(
        lambda t: t.filter(pc.not_equal(t["kind"], "image")),
        batch_format="pyarrow")
    frames = timed.map_batches(
        media_ops.FrameSampler, batch_format="pyarrow", batch_size=16,
        concurrency=(1, 2))

    def as_rows(t: pa.Table) -> pa.Table:
        if "frame_ms" in t.column_names:
            return pa.table({"media_ref": t["media_ref"],
                             "a": pc.cast(t["frame_ms"], pa.int64()),
                             "b": pa.array([-1] * len(t), pa.int64())})
        return pa.table({"media_ref": t["media_ref"],
                         "a": pc.cast(t["resized_w"], pa.int64()),
                         "b": pc.cast(t["resized_h"], pa.int64())})

    return resized.map_batches(as_rows, batch_format="pyarrow").union(
        frames.map_batches(as_rows, batch_format="pyarrow"))


def doc_pair_jaccard(sf_dir: str):
    """Exact word-trigram Jaccard for every doc pair among the 20
    smallest doc_ids — the dedup family's verify kernel, SQL-checkable
    (DuckDB list/unnest trigram construction + intersection counts)."""
    import itertools

    import pyarrow.parquet as pq

    from kgeng.ops.dedup import ngram_jaccard

    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])
    rows = sorted(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))[:20]

    def pairs_batch(t: pa.Table) -> pa.Table:
        a_txt = t["a_txt"].to_pylist()
        b_txt = t["b_txt"].to_pylist()
        jac = [round(ngram_jaccard(x, y, 3), 6)
               for x, y in zip(a_txt, b_txt)]
        return pa.table({"a": t["a_id"], "b": t["b_id"],
                         "jac": pa.array(jac, pa.float64())})

    pair_rows = [(a[0], a[1], b[0], b[1])
                 for a, b in itertools.combinations(rows, 2)]
    src = pa.table({"a_id": [p[0] for p in pair_rows],
                    "a_txt": [p[1] for p in pair_rows],
                    "b_id": [p[2] for p in pair_rows],
                    "b_txt": [p[3] for p in pair_rows]})
    return ray.data.from_arrow(src).map_batches(
        pairs_batch, batch_format="pyarrow", batch_size=32)


def doc_pair_containment(sf_dir: str):
    """Exact word-trigram CONTAINMENT C(A,B) = |A∩B|/|A| for every
    ordered doc pair among the 20 smallest doc_ids — the asymmetric
    twin of doc_pair_jaccard (a short doc fully embedded in a long one
    scores 1.0 here but low Jaccard; what fuzzy decontamination
    actually thresholds). Same SQL-checkable list-intersection oracle,
    both directions per pair."""
    import itertools

    import pyarrow.parquet as pq

    from kgeng.ops.dedup import ngram_containment

    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])
    rows = sorted(zip(tbl["doc_id"].to_pylist(),
                      tbl["text"].to_pylist()))[:20]

    def pairs_batch(t: pa.Table) -> pa.Table:
        a_txt = t["a_txt"].to_pylist()
        b_txt = t["b_txt"].to_pylist()
        c = [round(ngram_containment(x, y, 3), 6)
             for x, y in zip(a_txt, b_txt)]
        return pa.table({"a": t["a_id"], "b": t["b_id"],
                         "containment": pa.array(c, pa.float64())})

    pair_rows = [(a[0], a[1], b[0], b[1])
                 for a, b in itertools.permutations(rows, 2)]
    src = pa.table({"a_id": [p[0] for p in pair_rows],
                    "a_txt": [p[1] for p in pair_rows],
                    "b_id": [p[2] for p in pair_rows],
                    "b_txt": [p[3] for p in pair_rows]})
    return ray.data.from_arrow(src).map_batches(
        pairs_batch, batch_format="pyarrow", batch_size=64)


# ----------------------------------------------------- compat-path queries

_FIXTURE_DIR = "/tmp/kgeng_oracle_fixtures"


def ensure_compat_goldens() -> str:
    """Write the pure-Python-oracle outputs (tests/oracle.py semantics,
    independent of the Ray code path) as parquet for the SQL oracle to
    read. Idempotent, driver-side, tiny."""
    import pyarrow.parquet as pq

    os.makedirs(_FIXTURE_DIR, exist_ok=True)
    marker = os.path.join(_FIXTURE_DIR, "_SUCCESS_v2")
    if os.path.exists(marker):
        return _FIXTURE_DIR
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
    from tests import oracle

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    el = os.path.join(repo, "fixtures", "edge_list", "comments.txt")
    ga_v = os.path.join(repo, "fixtures", "graphalytics", "tiny", "tiny.v")
    ga_e = os.path.join(repo, "fixtures", "graphalytics", "tiny", "tiny.e")

    edges, vids = oracle.parse_edge_lines(
        oracle.file_lines(el), "vertices", smart=False)
    pq.write_table(pa.table({
        "_from": [e["_from"] for e in edges],
        "_to": [e["_to"] for e in edges],
        "weight": [e.get("weight") for e in edges],
    }), os.path.join(_FIXTURE_DIR, "edge_list_edges.parquet"))
    pq.write_table(pa.table({
        "smartProp": sorted(vids),
    }), os.path.join(_FIXTURE_DIR, "edge_list_vertices.parquet"))

    vdocs = oracle.graphalytics_vertex_docs(
        oracle.file_lines(ga_v), "smartProp")
    pq.write_table(pa.table({
        "smartProp": [d["smartProp"] for d in vdocs],
        "_key": [d["_key"] for d in vdocs],
    }), os.path.join(_FIXTURE_DIR, "ga_vertices.parquet"))
    gedges, _ = oracle.parse_edge_lines(
        oracle.file_lines(ga_e), "vertices", smart=True)
    pq.write_table(pa.table({
        "_from": [e["_from"] for e in gedges],
        "_to": [e["_to"] for e in gedges],
        "weight": [e.get("weight") for e in gedges],
    }), os.path.join(_FIXTURE_DIR, "ga_edges.parquet"))
    with open(marker, "w") as f:
        f.write("")
    return _FIXTURE_DIR


def compat_edge_list_edges(sf_dir: str):
    from kgeng.io.graph_files import (CompatGraphConfig, edge_docs,
                                      read_edge_file)

    ensure_compat_goldens()
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    el = os.path.join(repo, "fixtures", "edge_list", "comments.txt")
    return edge_docs(read_edge_file(el, CompatGraphConfig(),
                                    smart_ids=False))


def compat_edge_list_vertices(sf_dir: str):
    from kgeng.io.graph_files import CompatGraphConfig, import_edge_list

    ensure_compat_goldens()
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    el = os.path.join(repo, "fixtures", "edge_list", "comments.txt")
    v, _e = import_edge_list(el, CompatGraphConfig())
    return v


def compat_graphalytics_vertices(sf_dir: str):
    from kgeng.io.graph_files import CompatGraphConfig, import_graphalytics

    ensure_compat_goldens()
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ga = os.path.join(repo, "fixtures", "graphalytics", "tiny")
    v, _e = import_graphalytics(ga, CompatGraphConfig())
    return v


def compat_graphalytics_edges(sf_dir: str):
    from kgeng.io.graph_files import CompatGraphConfig, import_graphalytics

    ensure_compat_goldens()
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ga = os.path.join(repo, "fixtures", "graphalytics", "tiny")
    _v, e = import_graphalytics(ga, CompatGraphConfig())
    return e


# ------------------------------------------------------- synthesis queries

def synth_clique_edges(sf_dir: str):
    """Deterministic 50-clique (prob_missing=0): SQL-checkable via a
    range self-join."""
    from kgeng.io.graph_files import CompatGraphConfig
    from kgeng.synth.graphs import clique_edges

    return clique_edges(50, CompatGraphConfig(is_smart=False))


def synth_kpartite_edges(sf_dir: str):
    """Fixed 3 parts of sizes 3/4/5 (starts 0,3,7): SQL-checkable."""
    from kgeng.io.graph_files import CompatGraphConfig
    from kgeng.synth.graphs import connect_parts_edges

    return connect_parts_edges([0, 3, 7, 12],
                               CompatGraphConfig(is_smart=False))


def synth_clique_vertices_smart(sf_dir: str):
    from kgeng.io.graph_files import CompatGraphConfig
    from kgeng.synth.graphs import make_vertices

    return make_vertices(20, CompatGraphConfig(), part_label="0")


# --------------------------------------------------------------- KG queries

KG_N_DOCS = {"sf0.001": 300, "sf0.01": 1500, "sf0.1": 5000}


def kg_corpus_for(sf_dir: str) -> str:
    from kgeng.synth.corpus import ensure_corpus

    n = KG_N_DOCS.get(os.path.basename(sf_dir.rstrip("/")), 1500)
    return ensure_corpus(n)


_KG_CACHE: dict = {}


def _kg_results(sf_dir: str) -> dict:
    """Run (or resume) the KG pipeline for this sf tier; cached in-process
    and on disk (checkpoints), so the many kg_* queries share one run."""
    from kgeng.pipeline import KGPipeline

    corpus = kg_corpus_for(sf_dir)
    if corpus in _KG_CACHE:
        return _KG_CACHE[corpus]
    ckpt = corpus + "_ckpt"
    out = corpus + "_graph"
    p = KGPipeline(checkpoint_root=ckpt)
    res = p.run(os.path.join(corpus, "corpus"),
                os.path.join(corpus, "gazetteer.parquet"),
                out_dir=out, resume=True)
    res["corpus_dir"] = corpus
    res["graph_dir"] = out
    _KG_CACHE[corpus] = res
    return res


def kg_triples(sf_dir: str):
    """Distinct (subj, pred, obj) from the full extraction stack — compared
    against the by-construction golden set (P/R target >= 0.95; exact on
    this corpus)."""
    from kgeng.pipeline import distinct

    res = _kg_results(sf_dir)
    return distinct(res["triples"], ["subj", "pred", "obj"])


def _entities_flat(entities):
    def flatten(t: pa.Table) -> pa.Table:
        # vectorized list-of-string join (one Arrow kernel, no Python rows)
        forms = pc.cast(pc.binary_join(t["surface_forms"], "|"),
                        pa.string())
        return pa.table({
            "entity_id": t["entity_id"],
            "canon_key": t["canon_key"],
            "surface_forms_str": forms,
            "ent_type": t["ent_type"],
            "part": t["part"],
        })

    return entities.map_batches(flatten, batch_format="pyarrow")


def kg_entities(sf_dir: str):
    return _entities_flat(_kg_results(sf_dir)["entities"])


def kg_incremental_entities(sf_dir: str):
    """Incremental corpus APPEND — the 100 TB ingest pattern the
    checkpoint design was built for: run the pipeline over the first
    half of the corpus fragments, then drop the second half into the
    corpus directory and re-run with resume=True. The hash-stable
    per-fragment shard assignment (pipeline._assign_shards_stable)
    re-extracts ONLY the shards whose file list changed (here: exactly
    the new fragment), while the mention-scale canonicalize / triples /
    entities stages recompute — their lineage includes the corpus file
    set, so they can never silently mix stale maps with new data. The
    final entity table must equal the batch run's over the full corpus:
    the oracle is the SAME golden-entities SQL as kg_entities, which is
    precisely the incremental-ingest correctness claim."""
    import pyarrow.parquet as _pq_mod

    from kgeng.pipeline import KGPipeline

    corpus = kg_corpus_for(sf_dir)
    if ("inc", corpus) in _KG_CACHE:
        return _entities_flat(_KG_CACHE[("inc", corpus)])
    src = os.path.join(corpus, "corpus", "part-00000.parquet")
    base = corpus + "_inc"
    cdir = os.path.join(base, "corpus")
    os.makedirs(cdir, exist_ok=True)
    frag_a = os.path.join(cdir, "inc-00000.parquet")
    frag_b = os.path.join(cdir, "inc-00001.parquet")
    staging_b = os.path.join(base, "inc-00001.parquet")
    if not (os.path.exists(frag_a)
            and (os.path.exists(frag_b) or os.path.exists(staging_b))):
        t = _pq_mod.read_table(src)
        half = len(t) // 2
        _pq_mod.write_table(t.slice(0, half), frag_a)
        _pq_mod.write_table(t.slice(half), staging_b)
        if os.path.exists(frag_b):
            os.remove(frag_b)
    gaz = os.path.join(corpus, "gazetteer.parquet")
    p = KGPipeline(checkpoint_root=base + "_ckpt", num_shards=8)
    if not os.path.exists(frag_b):
        # phase 1: half the corpus (on repeat calls the checkpoints make
        # this a metadata-only resume)
        p.run(cdir, gaz, out_dir=None, resume=True)
        os.replace(staging_b, frag_b)  # the append
    res = p.run(cdir, gaz, out_dir=None, resume=True)
    _KG_CACHE[("inc", corpus)] = res["entities"]
    return _entities_flat(res["entities"])


def kg_vertices_out(sf_dir: str):
    res = _kg_results(sf_dir)
    return ray.data.read_parquet(
        os.path.join(res["graph_dir"], "entities"))


def kg_edges_out(sf_dir: str):
    """Edge collection minus the float-format-sensitive confidence string
    (kept in the real sink; excluded from the hash compare)."""
    res = _kg_results(sf_dir)
    ds = ray.data.read_parquet(os.path.join(res["graph_dir"], "triples"))
    return ds.select_columns(["_from", "_to", "pred", "doc_id"])


def kg_entity_mention_counts(sf_dir: str):
    """Triple count per subject entity via the SALTED partial+final
    aggregate (Zipfian subjects = the hot-key path)."""
    res = _kg_results(sf_dir)
    return agg_ops.salted_count(res["triples"], "subj", salt=16,
                                out="n_triples")


def kg_mention_stats(sf_dir: str):
    """Mentions per (source, ent_type) — rows-only check (mentions have no
    SQL-expressible golden)."""
    res = _kg_results(sf_dir)
    linked = res["linked"]
    return linked.groupby(["source", "ent_type"]).count()


def kg_media_features(sf_dir: str):
    """Multimodal integration: every media_ref the KG pipeline emitted is
    decoded (stubbed) and featurized — media blobs synthesized
    deterministically per ref, featurizer is the actor-pool stage. The
    blobs never shuffle; only (media_ref, feat stats) rows come back."""
    res = _kg_results(sf_dir)
    triples = res["triples"]
    from kgeng.pipeline import distinct

    def media_refs(t: pa.Table) -> pa.Table:
        obj = t["obj"].combine_chunks()
        refs = pc.unique(obj.filter(pc.starts_with(obj, "media://")))
        return pa.table({"ref": refs})

    # distinct refs STREAM into the blob-synth + featurizer stages — the
    # driver never collects the ref list (at 10^12 docs it is not small)
    refs = distinct(triples.map_batches(media_refs, batch_format="pyarrow"),
                    ["ref"])
    media = refs.map_batches(
        lambda t: media_ops.synth_media_table(t["ref"].to_pylist()),
        batch_format="pyarrow", batch_size=64)
    out = media_ops.featurize_media(media, dim=16)
    return out.map_batches(_feat_sum_batches, batch_format="pyarrow")


def events_last_order(sf_dir: str):
    """As-of join: for each event, the same customer's most recent order
    at or before the event time (ties on o_orderdate broken by highest
    o_orderkey — mirrored exactly in the SQL oracle's ORDER BY)."""
    from kgeng.ops.join import asof_join

    ev = _pq(sf_dir, "events", ["event_id", "user_id", "ts"])
    od = _pq(sf_dir, "orders",
             ["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"])
    out = asof_join(ev, od, left_key="user_id", right_key="o_custkey",
                    left_ts="ts", right_ts="o_orderdate",
                    tiebreak="o_orderkey", num_buckets=32)
    return out.map_batches(
        lambda t: t.select(["event_id", "user_id", "ts",
                            "o_orderkey", "o_totalprice"]),
        batch_format="pyarrow")


def events_followers_1h(sf_dir: str):
    """Range (interval) join: per event, the number of same-user events
    inside [ts, ts + 1 hour) — a SELF interval join (every event matches
    at least itself) through the custom range_join operator (ops/join.py)
    plus the salted count aggregate."""
    from kgeng.ops.agg import salted_count
    from kgeng.ops.join import range_join

    ev = _pq(sf_dir, "events", ["event_id", "user_id", "ts"])

    def add_window(t: pa.Table) -> pa.Table:
        lo = pc.cast(t["ts"], pa.timestamp("us"))
        hi = pc.add(lo, pa.scalar(3_600_000_000, pa.duration("us")))
        return pa.table({"a_event_id": t["event_id"],
                         "a_user_id": t["user_id"],
                         "w_lo": lo, "w_hi": hi})

    win = _pq(sf_dir, "events", ["event_id", "user_id", "ts"]) \
        .map_batches(add_window, batch_format="pyarrow")
    joined = range_join(ev, win, left_key="user_id",
                        right_key="a_user_id", left_ts="ts",
                        right_lo="w_lo", right_hi="w_hi")
    return salted_count(joined, "a_event_id", salt=8, out="n_follow",
                        key_type=pa.int64())


def docs_sample_by_lang(sf_dir: str):
    """Stratified sample: exactly 50 docs per language, picked by
    deterministic Knuth-hash rank (stable across runs / partitionings /
    cluster sizes; the SQL oracle reproduces the arithmetic verbatim)."""
    from kgeng.ops.sample import stratified_sample

    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return stratified_sample(ds, key="lang", n=50, id_col="doc_id")


def docs_hash_sample(sf_dir: str):
    """Deterministic Bernoulli(10%) sample by hash threshold — no
    shuffle, a pure per-batch filter."""
    from kgeng.ops.sample import hash_sample

    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return hash_sample(ds, id_col="doc_id", rate=0.1)


_EDGE_CACHE: dict = {}


def _order_part_edges(sf_dir: str, symmetrize: bool = True):
    """Distinct order<->part pairs from lineitem as int64 node ids
    (order*2 / part*2+1) — the shared graph for the native Pregel-family
    queries. The deduped pair set MATERIALIZES once and is CACHED per
    (sf_dir, symmetrize) — five Pregel queries run in one driver
    session, and each would otherwise redo the read+dedup shuffle
    (same pattern as _KG_CACHE)."""
    ck = (sf_dir, symmetrize)
    if ck in _EDGE_CACHE:
        return _EDGE_CACHE[ck]
    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    # dedup via PACKED single-int64 keys + 64 coarse buckets + in-group
    # np.unique — a 64-group shuffle on a tiny tag instead of a 2-key
    # sort shuffle over every pair (the groupby-per-key path was the
    # dominant cost of every Pregel query's edge build). Keys pack as
    # (order*2) << 32 | (part*2+1): exact while both ids < 2^31 — the
    # loud guard below fires long before that (TPC-H sf ~3000).
    def pairs(t: pa.Table) -> pa.Table:
        s = t["l_orderkey"].to_numpy(zero_copy_only=False)
        d = t["l_partkey"].to_numpy(zero_copy_only=False)
        if len(s) and (s.max() >= 1 << 30 or d.max() >= 1 << 31):
            raise ValueError("order/part ids exceed the 31-bit packed-"
                             "key bound; switch _order_part_edges to "
                             "the 2-key groupby dedup")
        key = np.unique((s.astype(np.int64) * 2) << 32
                        | (d.astype(np.int64) * 2 + 1))
        b = (key.astype(np.uint64)
             * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(58)  # top 6
        return pa.table({"b": pa.array(b.astype(np.int32)),
                         "key": pa.array(key)})

    def uniq_group(df):
        # Arrow output: downstream sort/union must see ONE block type.
        # Symmetrize INSIDE the group (saves a whole union pass +
        # re-materialization): src ids are even, dst odd, so a reversed
        # pair can never collide with a forward one across groups.
        key = np.unique(df["key"].to_numpy(np.int64))
        s = key >> 32
        d = key & np.int64((1 << 32) - 1)
        if symmetrize:
            s, d = np.concatenate([s, d]), np.concatenate([d, s])
        return pa.table({"src": pa.array(s), "dst": pa.array(d)})

    out = li.map_batches(pairs, batch_format="pyarrow") \
        .groupby("b").map_groups(uniq_group, batch_format="pandas") \
        .materialize()
    _EDGE_CACHE[ck] = out
    return out


def lineitem_pagerank(sf_dir: str):
    """Native PageRank (the reference's flagship server-side Pregel
    algorithm, start_Pregel.py:194-198) over the symmetrized
    order<->part bipartite graph from lineitem: 5 rounds, d=0.85,
    per-round 9-digit rounding so the DuckDB unrolled-CTE oracle
    hash-matches exactly. Node ids: order*2 / part*2+1."""
    from kgeng.ops.graph import pagerank

    return pagerank(_order_part_edges(sf_dir), iters=5, damping=0.85,
                    ndigits=9)


def lineitem_sssp(sf_dir: str):
    """Native single-source shortest path (hops) — 'sssp' in the
    reference's Pregel algorithm list (arguments.py:187) — over the
    same symmetrized order<->part graph, from the lowest order node.
    Integer distances: the recursive-CTE oracle is exact."""
    from kgeng.ops.graph import sssp_hops

    source = 2 * int(_pq(sf_dir, "lineitem", ["l_orderkey"])
                     .min("l_orderkey"))
    return sssp_hops(_order_part_edges(sf_dir), source=source)


def lineitem_hits(sf_dir: str):
    """Native HITS hubs/authorities ('hits' in the reference's Pregel
    list) over the same graph — rows-only (L2-norm float semantics stay
    out of the SQL gate; the numpy parity test pins values)."""
    from kgeng.ops.graph import hits

    return hits(_order_part_edges(sf_dir, symmetrize=False), iters=3)


def lineitem_closeness(sf_dir: str):
    """Approximate closeness centrality ('effectivecloseness' in the
    reference's Pregel list) via HyperBall: per-node HyperLogLog
    neighborhood sketches unioned along edges each round. Rows-only
    (sketch estimate); pinned by snapshot + exact-BFS tolerance test."""
    from kgeng.ops.graph import effective_closeness

    return effective_closeness(_order_part_edges(sf_dir))


def lineitem_sssp_weighted(sf_dir: str):
    """Weighted SSSP as EXACTLY 6 Bellman-Ford relaxation rounds over
    the same graph, edge weight = (src + dst) % 7 + 1 (a deterministic
    function both sides can state). Integer distances: the unrolled
    k-round SQL recurrence is exact even pre-convergence."""
    import numpy as np

    from kgeng.ops.graph import bellman_ford_rounds

    source = 2 * int(_pq(sf_dir, "lineitem", ["l_orderkey"])
                     .min("l_orderkey"))

    def add_w(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        return t.append_column("w", pa.array((s + d) % 7 + 1))

    ew = _order_part_edges(sf_dir).map_batches(add_w,
                                               batch_format="pyarrow")
    return bellman_ford_rounds(ew, source=source, rounds=6)


def sssp_weighted_oracle_sql(rounds: int = 6) -> str:
    """Unrolled k-round Bellman-Ford recurrence (NULL = unreached)."""
    head = """
        WITH eo AS (
          SELECT DISTINCT l_orderkey * 2 AS src, l_partkey * 2 + 1 AS dst
          FROM lineitem),
        edges AS (SELECT src, dst FROM eo
                  UNION ALL SELECT dst AS src, src AS dst FROM eo),
        ew AS (SELECT src, dst, (src + dst) % 7 + 1 AS w FROM edges),
        nodes AS (SELECT DISTINCT src AS node FROM edges),
        d0 AS (SELECT node,
                      CASE WHEN node = (SELECT min(l_orderkey) * 2
                                        FROM lineitem)
                           THEN 0 ELSE NULL END AS d
               FROM nodes)"""
    parts = [head]
    for i in range(1, rounds + 1):
        parts.append(f""",
        d{i} AS (
          SELECT n.node,
                 CASE WHEN p.d IS NULL AND m.c IS NULL THEN NULL
                      WHEN p.d IS NULL THEN m.c
                      WHEN m.c IS NULL THEN p.d
                      ELSE least(p.d, m.c) END AS d
          FROM nodes n
          LEFT JOIN d{i-1} p ON p.node = n.node
          LEFT JOIN (
            SELECT e.dst AS node, min(p2.d + e.w) AS c
            FROM ew e JOIN d{i-1} p2 ON p2.node = e.src
            WHERE p2.d IS NOT NULL GROUP BY 1) m ON m.node = n.node)""")
    parts.append(f"""
        SELECT node, CAST(d AS BIGINT) AS dist FROM d{rounds}
        WHERE d IS NOT NULL""")
    return "".join(parts)


SSSP_ORACLE = """
    WITH RECURSIVE eo AS (
      SELECT DISTINCT l_orderkey * 2 AS src, l_partkey * 2 + 1 AS dst
      FROM lineitem),
    edges AS (SELECT src, dst FROM eo
              UNION ALL SELECT dst AS src, src AS dst FROM eo),
    walk(node, d) AS (
      SELECT (SELECT min(l_orderkey) * 2 FROM lineitem), 0
      UNION
      -- the d < 30 guard terminates the cyclic recursion; BFS depth on
      -- this graph is far below it (the Ray side loops to exhaustion)
      SELECT e.dst, w.d + 1 FROM edges e JOIN walk w ON w.node = e.src
      WHERE w.d < 30
    )
    SELECT node, CAST(min(d) AS BIGINT) AS dist FROM walk GROUP BY node
"""


def pagerank_oracle_sql(iters: int = 5) -> str:
    """Unrolled-CTE DuckDB PageRank over the same graph: one CTE per
    round, identical per-round rounding; literals cast to DOUBLE so
    DuckDB's decimal literals don't change the float arithmetic."""
    parts = ["""
        WITH eo AS (
          SELECT DISTINCT l_orderkey * 2 AS src, l_partkey * 2 + 1 AS dst
          FROM lineitem),
        edges AS (SELECT src, dst FROM eo
                  UNION ALL SELECT dst AS src, src AS dst FROM eo),
        nodes AS (SELECT DISTINCT src AS node FROM edges),
        deg AS (SELECT src AS node, count(*) AS deg FROM edges GROUP BY 1),
        nn AS (SELECT count(*) AS n FROM nodes),
        r0 AS (SELECT node, round(CAST(1.0 AS DOUBLE) / (SELECT n FROM nn),
                                  9) AS r
               FROM nodes)"""]
    for i in range(1, iters + 1):
        parts.append(f""",
        r{i} AS (
          SELECT n.node,
                 round((1 - CAST(0.85 AS DOUBLE)) / (SELECT n FROM nn)
                       + CAST(0.85 AS DOUBLE) * coalesce(s.c, 0), 9) AS r
          FROM nodes n LEFT JOIN (
            SELECT e.dst AS node, sum(p.r / dg.deg) AS c
            FROM edges e
            JOIN r{i-1} p ON p.node = e.src
            JOIN deg dg ON dg.node = e.src
            GROUP BY 1) s ON s.node = n.node)""")
    parts.append(f"\n        SELECT node, r AS rank FROM r{iters}")
    return "".join(parts)


def lineitem_labelprop(sf_dir: str):
    """Native synchronous label propagation ('labelpropagation' in the
    reference's Pregel algorithm list, arguments.py:187-188) over the
    shared symmetrized order<->part graph: 4 fixed rounds, most
    frequent in-neighbor label, ties to the smallest label, through
    ops/graph.label_propagation_communities: plan A (per-block raw
    tasks, driver-side merge) under its node and pair cutovers, plan B
    (distributed dataset rounds) past them. The unrolled-CTE oracle
    replays the same rounds exactly (all-integer, hash-match)."""
    from kgeng.ops.graph import label_propagation_communities

    return label_propagation_communities(_order_part_edges(sf_dir),
                                         rounds=4)


def labelprop_oracle_sql(rounds: int = 4) -> str:
    """Unrolled-CTE DuckDB replay of label_propagation_communities
    over the same graph: per round, count in-neighbor labels, take the
    row_number()=1 (count desc, label asc) winner, carry isolated
    nodes. All-integer -> exact hash match."""
    parts = ["""
        WITH eo AS (
          SELECT DISTINCT l_orderkey * 2 AS src, l_partkey * 2 + 1 AS dst
          FROM lineitem),
        edges AS (SELECT src, dst FROM eo
                  UNION ALL SELECT dst AS src, src AS dst FROM eo),
        nodes AS (SELECT DISTINCT src AS node FROM edges),
        l0 AS (SELECT node, node AS label FROM nodes)"""]
    for i in range(1, rounds + 1):
        parts.append(f""",
        c{i} AS (SELECT e.dst AS node, p.label, count(*) AS c
                 FROM edges e JOIN l{i - 1} p ON p.node = e.src
                 GROUP BY 1, 2),
        l{i} AS (
          SELECT n.node, coalesce(t.label, p.label) AS label
          FROM nodes n
          JOIN l{i - 1} p ON p.node = n.node
          LEFT JOIN (SELECT node, label FROM (
                       SELECT node, label,
                              row_number() OVER (PARTITION BY node
                                                 ORDER BY c DESC,
                                                          label) AS rn
                       FROM c{i}) WHERE rn = 1) t ON t.node = n.node)""")
    parts.append(f"\n        SELECT node, label FROM l{rounds}")
    return "".join(parts)


def lineitem_linerank(sf_dir: str):
    """Native LineRank ('linerank' in the reference's Pregel list):
    PageRank over the LINE GRAPH of the bulk-order subgraph
    (l_quantity > 45 keeps the quadratic line-graph blowup bounded at
    sf scale; linerank itself is the pure composition
    pagerank(line_graph(edges)))."""
    from kgeng.ops.graph import linerank

    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_partkey", "l_quantity"])

    def pairs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_quantity"], 45))
        s = t["l_orderkey"].to_numpy(zero_copy_only=False)
        d = t["l_partkey"].to_numpy(zero_copy_only=False)
        key = np.unique((s.astype(np.int64) * 2) << 32
                        | (d.astype(np.int64) * 2 + 1))
        sp, dp = key >> 32, key & np.int64((1 << 32) - 1)
        return pa.table({
            "src": pa.array(np.concatenate([sp, dp])),
            "dst": pa.array(np.concatenate([dp, sp]))})

    # global dedup: the oracle's line graph is over DISTINCT base edges
    from kgeng.pipeline import distinct

    edges = distinct(li.map_batches(pairs, batch_format="pyarrow"),
                     ["src", "dst"])
    return linerank(edges, iters=3)


def revenue_rollup(sf_dir: str):
    """GROUP BY ROLLUP(priority): per-priority totals + the grand
    total, as a union of aggregation levels over ONE shared
    (materialized) join — the grouping-sets pattern; the rolled-up
    level carries the marker 'ALL' so the schema stays string-typed
    (matching the SQL side's coalesce(prio, 'ALL'))."""
    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    from kgeng.ops.join import hash_join

    joined = hash_join(
        li.map_batches(
            lambda t: pa.table({
                "l_orderkey": t["l_orderkey"],
                "rev_c": _cents(pc.multiply(
                    t["l_extendedprice"],
                    pc.subtract(pa.scalar(1.0), t["l_discount"])))}),
            batch_format="pyarrow"),
        orders.map_batches(
            lambda t: pa.table({"l_orderkey": t["o_orderkey"],
                                "prio": t["o_orderpriority"]}),
            batch_format="pyarrow"),
        key="l_orderkey", how="inner").materialize()

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"prio": t["prio"],
                      "rev_c": pc.cast(t["rev_c"], pa.int64())}) \
            .group_by(["prio"]).aggregate([("rev_c", "sum"),
                                           ([], "count_all")])
        return g.rename_columns(["prio", "rev_p", "n_p"])

    per_prio = agg_ops.small_key_aggregate(
        joined.map_batches(partial, batch_format="pyarrow"),
        ["prio"],
        [("rev_p", "sum", "rev"), ("n_p", "sum", "n_items")]) \
        .map_batches(
            lambda t: pa.table({
                "prio": t["prio"],
                "sum_revenue": pc.divide(
                    pc.cast(t["rev"], pa.float64()), 100.0),
                "n_items": pc.cast(t["n_items"], pa.int64())}),
            batch_format="pyarrow").materialize()

    # grand total: exact integer-cents sums of the per-priority level
    # (tiny), emitted as the rolled-up 'ALL' row
    pp = per_prio.to_pandas()
    total = pa.table({
        "prio": pa.array(["ALL"], pa.string()),
        "sum_revenue": pa.array(
            [round(float(pp["sum_revenue"].map(
                lambda v: round(v * 100)).sum()) / 100.0, 2)]),
        "n_items": pa.array([int(pp["n_items"].sum())], pa.int64())})
    return per_prio.union(ray.data.from_arrow(total))


def _mixed_subgraph_edges(sf_dir: str) -> ray.data.Dataset:
    """DIRECTED mixed-orientation subgraph shared by the SCC and exact
    harmonic queries: order -> part when quantity <= 25, part -> order
    when > 25 (cycles arise where a part both receives and sends),
    restricted to l_orderkey < 800 so the SQL oracles' closures stay
    small."""
    from kgeng.pipeline import distinct

    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_partkey", "l_quantity"])

    def pairs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["l_orderkey"], 800))
        s = t["l_orderkey"].to_numpy(zero_copy_only=False) * 2
        p = t["l_partkey"].to_numpy(zero_copy_only=False) * 2 + 1
        fwd = t["l_quantity"].to_numpy(zero_copy_only=False) <= 25
        return pa.table({
            "src": pa.array(np.where(fwd, s, p).astype(np.int64)),
            "dst": pa.array(np.where(fwd, p, s).astype(np.int64))})

    return distinct(li.map_batches(pairs, batch_format="pyarrow"),
                    ["src", "dst"])


# SQL statement of the same subgraph (base CTEs of the scc/harmonic
# oracles — generated from one fragment so the two can't drift)
MIXED_SUBGRAPH_SQL = """
              SELECT CASE WHEN l_quantity <= 25 THEN l_orderkey * 2
                          ELSE l_partkey * 2 + 1 END AS src,
                     CASE WHEN l_quantity <= 25 THEN l_partkey * 2 + 1
                          ELSE l_orderkey * 2 END AS dst
              FROM lineitem WHERE l_orderkey < 800"""


def lineitem_scc(sf_dir: str):
    """Native strongly-connected components ('scc' in the reference's
    Pregel list) over the shared mixed-orientation subgraph.
    scc_id = min node id in the component (order/partition invariant).
    """
    from kgeng.ops.graph import scc

    return scc(_mixed_subgraph_edges(sf_dir))


def lineitem_slpa(sf_dir: str):
    """Native SLPA overlapping-community detection ('slpa' in the
    reference's Pregel list) over the symmetric bulk-order subgraph —
    deterministic seeded speaker choice, so the full speak/listen loop
    is replayable in SQL (slpa_oracle_sql, unrolled rounds) and the
    output stays pinned as local defense."""
    from kgeng.ops.graph import slpa
    from kgeng.pipeline import distinct

    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_partkey", "l_quantity"])

    def pairs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_quantity"], 45))
        s = t["l_orderkey"].to_numpy(zero_copy_only=False) * 2
        p = t["l_partkey"].to_numpy(zero_copy_only=False) * 2 + 1
        return pa.table({
            "src": pa.array(np.concatenate([s, p]).astype(np.int64)),
            "dst": pa.array(np.concatenate([p, s]).astype(np.int64))})

    edges = distinct(li.map_batches(pairs, batch_format="pyarrow"),
                     ["src", "dst"])
    return slpa(edges, rounds=10, threshold=0.2)


def lineitem_random_walks(sf_dir: str):
    """Deterministic DeepWalk-style random walks over the symmetric
    bulk-order subgraph (ops/graph.random_walks): 2 walks of length 4
    from every node, the step choice a splitmix64 hash of
    (cur, walk, step) over the rank-sorted adjacency — the
    graph-embedding training-corpus sampler, fully replayable in SQL
    (random_walks_oracle_sql, unrolled steps)."""
    from kgeng.ops.graph import random_walks

    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_partkey", "l_quantity"])

    def pairs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_quantity"], 45))
        s = t["l_orderkey"].to_numpy(zero_copy_only=False) * 2
        p = t["l_partkey"].to_numpy(zero_copy_only=False) * 2 + 1
        return pa.table({
            "src": pa.array(np.concatenate([s, p]).astype(np.int64)),
            "dst": pa.array(np.concatenate([p, s]).astype(np.int64))})

    # no distinct() here: random_walks dedups internally (per-block
    # fold + driver lexsort on plan A — zero shuffles)
    edges = li.map_batches(pairs, batch_format="pyarrow")
    return random_walks(edges, walk_len=4, walks_per_node=2)


def random_walks_oracle_sql(walk_len: int = 4, wpn: int = 2) -> str:
    """DuckDB replay of ops/graph.random_walks over the bulk-order
    subgraph: ranked adjacency via ROW_NUMBER, then ``walk_len``
    unrolled steps, each staging the splitmix64 rounds as chained CTE
    columns (z0 -> z1 -> z2 -> choice; the one-shot macro expansion
    OOMs the planner, same note as cms_oracle_sql) and joining the
    (cur, choice) rank lookup. Exactly statable because the seed mix
    and the rank choice are pure integer arithmetic mod 2^64."""
    from kgeng.ops.graph import _WALK_B, _WALK_G

    g = f"CAST('{_WALK_G}' AS HUGEINT)"
    b = f"CAST('{_WALK_B}' AS HUGEINT)"
    # seed + splitmix's own +G, staged: node*G may reach ~2^63 * 2^64
    # which overflows int128 — split-multiply via _sql_mulmod
    parts = [f"""
        e0 AS (
          SELECT DISTINCT l_orderkey * 2 AS src,
                          l_partkey * 2 + 1 AS dst
          FROM lineitem WHERE l_quantity > 45),
        edges AS (SELECT src, dst FROM e0
                  UNION
                  SELECT dst, src FROM e0),
        adj AS (SELECT src, dst,
                       ROW_NUMBER() OVER (PARTITION BY src
                                          ORDER BY dst) - 1 AS rk
                FROM edges),
        degt AS (SELECT src, count(*) AS deg FROM edges GROUP BY 1),
        t0 AS (SELECT src AS start, w, src AS node
               FROM degt CROSS JOIN
                    (SELECT unnest(generate_series(0, {wpn - 1}))
                         AS w) ws)"""]
    for t in range(1, walk_len + 1):
        p = t - 1
        z0 = (f"(({_sql_mulmod('CAST(node AS HUGEINT)', _WALK_G)})"
              f" + CAST(w AS HUGEINT) * {b} + {t} + {g})"
              f" % {_SQL_M64}")
        z1 = _sql_mulmod(_sql_xshift("z0", 30), 0xBF58476D1CE4E5B9)
        z2 = _sql_mulmod(_sql_xshift("z1", 27), 0x94D049BB133111EB)
        parts.append(f"""
        t{t}a AS (
          SELECT f.start, f.w, f.node, d.deg, {z0} AS z0
          FROM t{p} f JOIN degt d ON d.src = f.node),
        t{t}b AS (SELECT start, w, node, deg, {z1} AS z1 FROM t{t}a),
        t{t}b2 AS (SELECT start, w, node, deg, {z2} AS z2 FROM t{t}b),
        t{t}c AS (SELECT start, w, node, deg,
                         CAST(({_sql_xshift('z2', 31)}) % deg AS BIGINT)
                             AS c
                  FROM t{t}b2),
        t{t} AS (
          SELECT s.start, s.w, a.dst AS node
          FROM t{t}c s JOIN adj a ON a.src = s.node AND a.rk = s.c)""")
    selects = "\n            UNION ALL\n".join(
        f"            SELECT start, w AS walk, CAST({t} AS BIGINT) "
        f"AS step, node FROM t{t}"
        for t in range(walk_len + 1))
    return "WITH " + ",".join(parts) + "\n" + selects


def linerank_oracle_sql(iters: int = 3) -> str:
    """PageRank unrolled CTE over the line graph of the bulk-order
    subgraph — same per-round rounding as pagerank_oracle_sql; line
    node id = src*2^32 + dst (exact in BIGINT for 31-bit ids)."""
    parts = ["""
        WITH eo AS (
          SELECT DISTINCT l_orderkey * 2 AS s, l_partkey * 2 + 1 AS d
          FROM lineitem WHERE l_quantity > 45),
        base AS (SELECT s AS src, d AS dst FROM eo
                 UNION ALL SELECT d AS src, s AS dst FROM eo),
        edges AS (
          SELECT e1.src * 4294967296 + e1.dst AS src,
                 e2.src * 4294967296 + e2.dst AS dst
          FROM base e1 JOIN base e2 ON e1.dst = e2.src),
        nodes AS (SELECT src AS node FROM edges
                  UNION SELECT dst FROM edges),
        deg AS (SELECT src AS node, count(*) AS deg FROM edges GROUP BY 1),
        nn AS (SELECT count(*) AS n FROM nodes),
        r0 AS (SELECT node, round(CAST(1.0 AS DOUBLE) / (SELECT n FROM nn),
                                  9) AS r
               FROM nodes)"""]
    for i in range(1, iters + 1):
        parts.append(f""",
        r{i} AS (
          SELECT n.node,
                 round((1 - CAST(0.85 AS DOUBLE)) / (SELECT n FROM nn)
                       + CAST(0.85 AS DOUBLE) * coalesce(s.c, 0), 9) AS r
          FROM nodes n LEFT JOIN (
            SELECT e.dst AS node, sum(p.r / dg.deg) AS c
            FROM edges e
            JOIN r{i-1} p ON p.node = e.src
            JOIN deg dg ON dg.node = e.src
            GROUP BY 1) s ON s.node = n.node)""")
    parts.append(f"\n        SELECT node, r AS rank FROM r{iters}")
    return "".join(parts)


def hits_oracle_sql(iters: int = 3) -> str:
    """Unrolled-CTE DuckDB HITS over the directed (non-symmetrized)
    order->part graph: one auth+hub CTE pair per round, L2-normalized
    and rounded to 9 digits per half-round exactly like
    kgeng.ops.graph.hits (IEEE sqrt is correctly rounded, so the only
    cross-engine float risk is a sum landing on a rounding boundary —
    the same, empirically safe, profile as the pagerank oracle)."""
    parts = ["""
        WITH edges AS (
          SELECT DISTINCT l_orderkey * 2 AS src, l_partkey * 2 + 1 AS dst
          FROM lineitem),
        nodes AS (SELECT src AS node FROM edges
                  UNION SELECT dst FROM edges),
        nn AS (SELECT count(*) AS n FROM nodes),
        h0 AS (SELECT node,
                      round(CAST(1.0 AS DOUBLE)
                            / sqrt(CAST((SELECT n FROM nn) AS DOUBLE)),
                            9) AS h
               FROM nodes)"""]
    for i in range(1, iters + 1):
        parts.append(f""",
        ar{i} AS (
          SELECT n.node, CAST(coalesce(s.c, 0) AS DOUBLE) AS a
          FROM nodes n LEFT JOIN (
            SELECT e.dst AS node, sum(p.h) AS c
            FROM edges e JOIN h{i-1} p ON p.node = e.src
            GROUP BY 1) s ON s.node = n.node),
        a{i} AS (
          SELECT node,
                 round(a / sqrt((SELECT sum(a*a) FROM ar{i})), 9) AS a
          FROM ar{i}),
        hr{i} AS (
          SELECT n.node, CAST(coalesce(s.c, 0) AS DOUBLE) AS h
          FROM nodes n LEFT JOIN (
            SELECT e.src AS node, sum(p.a) AS c
            FROM edges e JOIN a{i} p ON p.node = e.dst
            GROUP BY 1) s ON s.node = n.node),
        h{i} AS (
          SELECT node,
                 round(h / sqrt((SELECT sum(h*h) FROM hr{i})), 9) AS h
          FROM hr{i})""")
    parts.append(f"""
        SELECT n.node, h{iters}.h AS hub, a{iters}.a AS auth
        FROM nodes n
        JOIN h{iters} ON h{iters}.node = n.node
        JOIN a{iters} ON a{iters}.node = n.node""")
    return "".join(parts)


def docs_pii_redacted(sf_dir: str):
    """PII redaction: email/phone spans become typed placeholders —
    one vectorized RE2 replace per pattern. The sf documents table
    contains no PII-shaped spans, so both sides first append a
    deterministic contact line (same SQL expression in the oracle);
    every row is then genuinely rewritten by both patterns."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def add_contact(t: pa.Table) -> pa.Table:
        i = pc.cast(t["doc_id"], pa.string())
        withpii = pc.binary_join_element_wise(
            t["text"], pa.scalar(" contact user"), i,
            pa.scalar("@example.com or +1 555-000-"), i, "")
        return pa.table({"doc_id": t["doc_id"], "text": withpii})

    out = text_ops.redact_pii(
        ds.map_batches(add_contact, batch_format="pyarrow"),
        col="text", out="redacted_text")
    return out.map_batches(
        lambda t: t.select(["doc_id", "redacted_text"]),
        batch_format="pyarrow")


def docs_benchmark_contamination(sf_dir: str):
    """Train/test decontamination: flag documents sharing any token
    8-gram with a 'benchmark' set (here: doc_id < 20). The benchmark
    gram hashes broadcast once; the corpus streams through a stateless
    vectorized check — no shuffle."""
    import pyarrow.parquet as pq

    bench = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "<", 20)])
    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    return text_ops.contamination_flags(
        docs, bench["text"].to_pylist(), n=8, out="contaminated")


def docs_normalized(sf_dir: str):
    """Text normalization (lowercase, whitespace collapse, strip) —
    the canonicalization pass before exact/near dedup."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = text_ops.normalize_text(ds, col="text", out="norm_text")
    return out.map_batches(lambda t: t.select(["doc_id", "norm_text"]),
                           batch_format="pyarrow")


def corpus_term_stats(sf_dir: str):
    """Vocabulary statistics over the documents table: per token,
    document frequency + total term frequency, pruned to df >= 5 —
    the tf-idf / vocab-pruning primitive."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return text_ops.term_stats(ds, col="text", id_col="doc_id", min_df=5)


def corpus_bigram_counts(sf_dir: str):
    """Adjacent token-pair counts over documents (the BPE-trainer
    counting step), pruned to pairs seen >= 20 times."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return text_ops.bigram_counts(ds, col="text", min_count=20, out="n")


def docs_weighted_sample(sf_dir: str):
    """Length-weighted sample of 25 docs without replacement (A-ES
    keys, deterministic) — the importance-sampling primitive for
    corpus curation. Oracle: the same u^(1/w) arithmetic as a SQL
    ORDER BY pow(...) DESC LIMIT k (both sides call the host libm pow
    on identical doubles); tests additionally pin the exact selection
    against a numpy reference."""
    from kgeng.ops.sample import weighted_sample

    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return weighted_sample(ds, id_col="doc_id", weight_col="n_chars",
                           k=25)


def parts_never_bulk_ordered(sf_dir: str):
    """Set difference (EXCEPT) as distributed dataflow: part keys
    ANTI-joined against the distinct keys of bulk lineitems
    (quantity > 45) — the subtrahend side pre-shrunk by per-batch
    dedup before its one shuffle."""
    from kgeng.ops.join import hash_join

    parts = _pq(sf_dir, "part", ["p_partkey"])
    li = _pq(sf_dir, "lineitem", ["l_partkey", "l_quantity"])

    def bulk_keys(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_quantity"], 45.0))
        g = t.group_by(["l_partkey"]).aggregate([([], "count_all")])
        return pa.table({"p_partkey": g["l_partkey"]})

    bulk = li.map_batches(bulk_keys, batch_format="pyarrow") \
        .groupby("p_partkey").count() \
        .map_batches(lambda t: t.select(["p_partkey"]),
                     batch_format="pyarrow")
    return hash_join(parts, bulk, key="p_partkey", how="anti")


def user_event_paths(sf_dir: str):
    """User journeys: each user's FIRST 8 event types, in time order,
    joined into one path string — grouped top-k (rank by ts) feeding the
    ordered string aggregation; the SQL oracle states the identical
    QUALIFY + string_agg(ORDER BY)."""
    from kgeng.ops.agg import grouped_string_agg
    from kgeng.ops.rank import top_k_per_group

    ev = _pq(sf_dir, "events", ["user_id", "event_type", "ts",
                                "event_id"])
    first8 = top_k_per_group(ev, "user_id", "ts", 8,
                             tie_breakers=["event_id"], descending=False)
    agg = grouped_string_agg(first8, key="user_id", value="event_type",
                             order_by=["ts", "event_id"], sep=",",
                             out="path")
    return agg.map_batches(
        lambda t: t.select(["user_id", "path"]), batch_format="pyarrow")


def events_hourly_active_users(sf_dir: str):
    """Windowed distinct count (composition): tumbling-hour bucket
    (vectorized epoch // width) feeding the exact grouped
    COUNT(DISTINCT) — per-batch pair dedup still bounds the shuffle."""
    from kgeng.ops.agg import grouped_count_distinct

    ev = _pq(sf_dir, "events", ["user_id", "ts"])

    def bucket(t: pa.Table) -> pa.Table:
        t_us = pc.cast(t["ts"], pa.timestamp("us"))
        w = pc.divide(pc.cast(t_us, pa.int64()), 3_600_000_000)
        return pa.table({"window_start_hour": w, "user_id": t["user_id"]})

    return grouped_count_distinct(
        ev.map_batches(bucket, batch_format="pyarrow"),
        "window_start_hour", "user_id", out="n_active_users")


def docs_mix_by_lang(sf_dir: str):
    """Training-corpus mixture: keep 50% of English, 25% of German, 5%
    of every other language — per-source deterministic Bernoulli, one
    vectorized filter, no shuffle. The SQL oracle states the mixture as
    a CASE over the same hash arithmetic."""
    from kgeng.ops.sample import mix_sample

    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return mix_sample(ds, source_col="lang",
                      rates={"en": 0.5, "de": 0.25}, id_col="doc_id",
                      default_rate=0.05)


def events_prev_gap(sf_dir: str):
    """LAG window function: per event, seconds since the same user's
    previous event (NaN for each user's first; ties on ts broken by
    event_id, mirrored in the SQL oracle's ORDER BY)."""
    from kgeng.ops.window import partitioned_lag_gap

    ev = _pq(sf_dir, "events", ["event_id", "user_id", "ts"])
    return partitioned_lag_gap(ev, key="user_id", ts="ts",
                               order_tiebreak="event_id", out="gap_sec")


def events_rolling_sum(sf_dir: str):
    """Rolling-window aggregate: per event, the user's value sum over
    the last 4 events (ROWS BETWEEN 3 PRECEDING AND CURRENT ROW).
    Values go through the scaled-int64 policy so the windowed sums are
    order-exact on both sides."""
    from kgeng.ops.window import partitioned_rolling_sum

    ev = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def add_c(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "ts": pc.cast(t["ts"], pa.timestamp("us")),
                         "value_c": _cents(t["value"], 10000.0)})

    rolled = partitioned_rolling_sum(
        ev.map_batches(add_c, batch_format="pyarrow"),
        key="user_id", ts="ts", value="value_c", window=4,
        order_tiebreak="event_id", out="roll4_c")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"], "ts": t["ts"],
                         "roll4_value": _uncents(t["roll4_c"], 10000.0)})

    return rolled.map_batches(finish, batch_format="pyarrow")


EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def events_type_pivot(sf_dir: str):
    """Pivot-by-count: one row per user with a count column per event
    type — the wide-partial pattern (masks summed per batch, one small
    groupby over partials; raw rows never shuffle)."""
    from kgeng.ops.agg import pivot_count

    ev = _pq(sf_dir, "events", ["user_id", "event_type"])
    return pivot_count(ev, key="user_id", pivot="event_type",
                       values=EVENT_TYPES)


def cust_big_order_counts(sf_dir: str):
    """LEFT OUTER join with zero-fill: every customer, with their count
    of > $400k orders (202 customers have none at sf0.01 — the
    unmatched side is genuinely exercised). Pre-aggregates the right
    side (salted count), then one hash-partitioned left join."""
    from kgeng.ops.agg import salted_count
    from kgeng.ops.join import hash_join

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    big = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .map_batches(lambda t: t.filter(
            pc.greater(t["o_totalprice"], 400000.0)),
            batch_format="pyarrow")
    counts = salted_count(big, "o_custkey", out="n_big",
                          key_type=pa.int64()) \
        .map_batches(lambda t: t.rename_columns(["c_custkey", "n_big"]),
                     batch_format="pyarrow")
    joined = hash_join(cust, counts, key="c_custkey", how="left")

    def fill(t: pa.Table) -> pa.Table:
        v = pc.cast(pc.fill_null(t["n_big"], 0.0), pa.int64())
        return t.set_column(t.schema.get_field_index("n_big"),
                            "n_big", v)

    return joined.map_batches(fill, batch_format="pyarrow")


def docs_length_ntile(sf_dir: str):
    """Curriculum-style quartile binning by document length: a GLOBAL
    row number under the total order (n_chars, doc_id) — one sort
    shuffle + metadata-offset attach (ops.rank.global_row_number), no
    driver materialization — then the explicit tile arithmetic both
    engines state identically."""
    from kgeng.ops.rank import global_row_number

    docs = _pq(sf_dir, "documents", ["doc_id", "n_chars"])
    n = docs.count()   # parquet metadata, no scan
    rn = global_row_number(docs, by=["n_chars", "doc_id"], out="rn")

    def tile(t: pa.Table) -> pa.Table:
        r = t["rn"].to_numpy(zero_copy_only=False)
        return t.append_column("tile", pa.array((r - 1) * 4 // n + 1))

    return rn.map_batches(tile, batch_format="pyarrow")


def top_event_per_user(sf_dir: str):
    """Grouped MODE: each user's most frequent event type (ties -> the
    lexicographically smallest). Partial counts shuffle, never rows;
    per-key argmax inside 64 coarse buckets."""
    from kgeng.ops.agg import grouped_mode

    ev = _pq(sf_dir, "events", ["user_id", "event_type"])
    return grouped_mode(ev, "user_id", "event_type", out="top_event",
                        count_out="n")


def events_type_long(sf_dir: str):
    """Unpivot round-trip: the wide per-user pivot melts back to long
    (user_id, event_type, n) with zero cells dropped — oracle is the
    direct SQL group-count, so melt correctness is hash-gated."""
    from kgeng.ops.agg import melt

    wide = events_type_pivot(sf_dir)
    cols = [f"n_{e}" for e in EVENT_TYPES]
    long = melt(wide, ["user_id"], cols, var_name="event_type",
                value_name="n")

    def clean(t: pa.Table) -> pa.Table:
        et = pc.utf8_replace_slice(t["event_type"], 0, 2, "")  # strip n_
        t = t.set_column(t.schema.get_field_index("event_type"),
                         "event_type", et)
        return t.filter(pc.greater(t["n"], 0))

    return long.map_batches(clean, batch_format="pyarrow")


def corpus_top_terms(sf_dir: str):
    """Global top-20 terms by total frequency: vocabulary-bounded
    partial counts (term_stats) then one tiny sort+limit — the exact
    heavy-hitters path when partials are vocabulary-bounded.
    Deterministic tiebreak: term ascending."""
    from kgeng.ops.text import term_stats

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    stats = term_stats(docs, min_df=1)

    def negate(t: pa.Table) -> pa.Table:
        # Ray's multi-key sort takes one descending flag list; negating
        # tf lets (tf desc, term asc) run as a plain ascending sort
        return pa.table({"term": t["term"],
                         "tf": t["tf"],
                         "neg_tf": pc.negate(pc.cast(t["tf"],
                                                     pa.int64()))})

    from kgeng.ops.rank import top_k_global

    return top_k_global(
        stats.map_batches(negate, batch_format="pyarrow"),
        ["neg_tf", "term"], 20) \
        .map_batches(lambda t: t.select(["term", "tf"]),
                     batch_format="pyarrow")


def corpus_cms_term_counts(sf_dir: str):
    """Count-Min sketch point estimates for the corpus's exact top-20
    terms (tf desc, term asc): the sketch (depth 4 x width 2048)
    aggregates in one vocabulary-bounded pass; the probe set comes
    from the exact counts via the top-k shape. Output
    ``(term, tf, est)`` with ``est >= tf`` by construction. Cells
    merge by exact integer addition, so — unlike the Misra-Gries twin
    (corpus_top_terms_approx) — the whole chain is partition-invariant
    and hash-matches its DuckDB replay (cms_oracle_sql)."""
    from kgeng.ops.agg import cms_point_estimates, count_min_cells
    from kgeng.ops.rank import top_k_global
    from kgeng.ops.text import term_stats

    width, depth, k = 2048, 4, 20
    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    # <= depth*width rows by construction: the documented driver-pull
    cells = pa.Table.from_pylist(
        count_min_cells(docs, "text", width=width, depth=depth)
        .take_all(),
        schema=pa.schema([("d", pa.int32()), ("cell", pa.int64()),
                          ("cnt", pa.int64())]))

    stats = term_stats(_pq(sf_dir, "documents", ["doc_id", "text"]),
                       min_df=1)

    def negate(t: pa.Table) -> pa.Table:
        return pa.table({"term": t["term"], "tf": t["tf"],
                         "neg_tf": pc.negate(pc.cast(t["tf"],
                                                     pa.int64()))})

    top = pa.Table.from_pylist(
        top_k_global(stats.map_batches(negate, batch_format="pyarrow"),
                     ["neg_tf", "term"], k).take_all(),
        schema=pa.schema([("term", pa.string()), ("tf", pa.int64()),
                          ("neg_tf", pa.int64())]))
    terms = top["term"].to_pylist()
    est = cms_point_estimates(cells, terms, width=width, depth=depth)
    return pa.table({"term": pa.array(terms, pa.string()),
                     "tf": pc.cast(top["tf"], pa.int64()),
                     "est": pa.array(est, pa.int64())})


def docs_repetition_ratio(sf_dir: str):
    """Intra-doc repetition quality signal: 1 - distinct/total token
    trigrams per document (stateless vectorized pass, no shuffle).
    Each side appends the same repeated tail so the signal is nonzero
    on the repetition-free synthetic corpus."""
    from kgeng.ops.text import repetition_ratio

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def add_tail(t: pa.Table) -> pa.Table:
        # doc_id % 3 copies of a repeated phrase: rows genuinely differ
        reps = pa.array(
            t["doc_id"].to_numpy(zero_copy_only=False) % 3, pa.int64())
        tail = pc.binary_repeat(pa.scalar(" buy now buy now buy now"),
                                reps)
        return pa.table({"doc_id": t["doc_id"],
                         "text": pc.binary_join_element_wise(
                             t["text"], tail, "")})

    return repetition_ratio(
        ds.map_batches(add_tail, batch_format="pyarrow"), n=3)


def docs_tfidf_terms(sf_dir: str):
    """Per-(doc, term) TF-IDF over the min_df>=5 vocabulary: the df map
    is one term_stats aggregation broadcast once; the weighting pass is
    stateless and vectorized (the token stream never shuffles)."""
    from kgeng.ops.text import tfidf_terms

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_terms(docs, col="text", id_col="doc_id", min_df=5)


#: Fixed BM25 query-term set for the bench query — common corpus tokens
#: so the scores exercise varied tf/df, duplicated verbatim in the SQL
#: oracle.
BM25_QUERY_TERMS = ["hash", "join", "scan", "window"]


def docs_bm25(sf_dir: str):
    """Okapi BM25 ranked-retrieval scores of every document against a
    fixed query-term set (ops/text.bm25_scores): one exact-integer
    corpus-stats pass (N, total tokens, per-term df) folded on the
    driver, then a broadcast stateless scoring pass — the token stream
    never shuffles. Docs matching >= 1 term are emitted with
    (n_terms_matched, bm25)."""
    from kgeng.ops.text import bm25_scores

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    return bm25_scores(docs, BM25_QUERY_TERMS, col="text",
                       id_col="doc_id", k1=1.2, b=0.75)


def docs_gopher_quality(sf_dir: str):
    """Gopher-rule composite quality filter (ops/text.gopher_quality):
    per-doc word count, mean word length, alphabetic-word fraction and
    stopword occurrences, each gated by the published rule thresholds,
    plus the composite keep flag. Stateless single-pass vectorized
    kernel; the ratios are single IEEE divisions of exact integers so
    every flag replays exactly in SQL."""
    from kgeng.ops.text import gopher_quality

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    return gopher_quality(docs, col="text", id_col="doc_id",
                          min_words=50, max_words=100_000,
                          min_mean_word_len=3.0, max_mean_word_len=10.0,
                          min_alpha_frac=0.8, min_stop_hits=2)


def docs_incremental_dedup(sf_dir: str):
    """Incremental near-dup labeling
    (ops/dedup.minhash_dedup_incremental): even doc_ids play the
    existing (already-deduped) corpus, odd doc_ids the newly crawled
    shard. Old docs band once (the persisted band-table path), old x
    old pairs are never generated, and only NEW docs are labeled —
    rep = lexicographic-min id of the component (an old id when the
    new doc duplicates corpus content). Same 0.5 trigram-Jaccard
    threshold as minhash_dedup_docs."""
    from kgeng.ops.dedup import minhash_dedup_incremental

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])

    def side(rem: int):
        def f(t: pa.Table) -> pa.Table:
            sel = pc.equal(
                pc.subtract(t["doc_id"],
                            pc.multiply(pc.divide(t["doc_id"], 2), 2)),
                pa.scalar(rem, pa.int64()))
            return t.filter(sel)
        return f

    old = docs.map_batches(side(0), batch_format="pyarrow")
    new = docs.map_batches(side(1), batch_format="pyarrow")
    return minhash_dedup_incremental(new, old, threshold=0.5)


def docs_lm2_scores(sf_dir: str):
    """Bigram-LM quality scores (ops/text.bigram_lm_scores): add-one
    conditional log-probs p(w|v) = (c(v,w)+1)/(c(v)+V) trained on the
    corpus itself, averaged per doc over its adjacent pairs — the
    context-sensitive CCNet-style filter column. Quantized int64
    log-probs broadcast once; the scoring pass never shuffles."""
    from kgeng.ops.text import bigram_lm_scores

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    return bigram_lm_scores(docs, col="text", id_col="doc_id")


def docs_chunks(sf_dir: str):
    """Overlapping token-window chunking (ops/text.chunk_tokens):
    32-token chunks with 8-token overlap — the RAG / context-window
    splitter. Single stateless vectorized pass (closed-form chunk
    arithmetic + one Arrow take/ListArray/binary_join); chunk text is
    the single-space token join, exactly replayable in SQL."""
    from kgeng.ops.text import chunk_tokens

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    return chunk_tokens(docs, col="text", id_col="doc_id",
                        chunk_size=32, overlap=8)


def docs_gopher_repetition(sf_dir: str):
    """Gopher repetition metrics (ops/text.gopher_repetition):
    top-2/3/4-gram char fractions and duplicate-5/8/10-gram coverage
    fractions per doc — the published repetition filter table.
    Batch-local single pass; both fractions are single IEEE divisions
    of exact integers."""
    from kgeng.ops.text import gopher_repetition

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    return gopher_repetition(docs, col="text", id_col="doc_id")


def gopher_repetition_oracle_sql(top_ns=(2, 3, 4),
                                 dup_ns=(5, 8, 10)) -> str:
    """DuckDB replay of ops/text.gopher_repetition: per-doc gram
    counts from list slices, QUALIFY top pick with the same
    (count desc, gram asc) tiebreak, and DISTINCT-position interval
    union for the duplicate coverage — all integer until the one
    stated division."""
    ctes = ["""
        toks AS (
          SELECT doc_id, regexp_extract_all(text, '\\S+') AS tk
          FROM documents),
        tokens AS (
          SELECT doc_id, unnest(tk) AS tok,
                 generate_subscripts(tk, 1) AS pos
          FROM toks),
        tot AS (SELECT doc_id, sum(length(tok)) AS total
                FROM tokens GROUP BY 1)"""]
    sel = []
    for n in top_ns:
        ctes.append(f"""
        g{n} AS (
          SELECT doc_id,
                 unnest(list_transform(
                   generate_series(1, greatest(len(tk) - {n - 1}, 0)),
                   i -> array_to_string(tk[i:i+{n - 1}], ' ')))
                     AS gram
          FROM toks),
        c{n} AS (SELECT doc_id, gram, count(*) AS c
                 FROM g{n} GROUP BY 1, 2),
        t{n} AS (SELECT doc_id,
                        c * (length(gram) - {n - 1}) AS chars_c
                 FROM c{n}
                 QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id
                                            ORDER BY c DESC, gram) = 1)""")
        sel.append(
            f"round(CAST(coalesce(t{n}.chars_c, 0) AS DOUBLE)"
            f" / greatest(coalesce(tot.total, 0), 1), 6) AS top{n}gram_frac")
    for n in dup_ns:
        ctes.append(f"""
        s{n} AS (
          SELECT doc_id, i AS s,
                 array_to_string(tk[i:i+{n - 1}], ' ') AS gram
          FROM (SELECT doc_id, tk,
                       unnest(generate_series(
                         1, greatest(len(tk) - {n - 1}, 0))) AS i
                FROM toks) x),
        d{n} AS (
          SELECT doc_id, s FROM s{n}
          QUALIFY count(*) OVER (PARTITION BY doc_id, gram) >= 2),
        cov{n} AS (
          SELECT DISTINCT doc_id, s + j AS pos
          FROM d{n} CROSS JOIN
               (SELECT unnest(generate_series(0, {n - 1})) AS j) js),
        cc{n} AS (
          SELECT t.doc_id, sum(length(t.tok)) AS chars
          FROM tokens t JOIN cov{n} v
            ON v.doc_id = t.doc_id AND v.pos = t.pos
          GROUP BY 1)""")
        sel.append(
            f"round(CAST(coalesce(cc{n}.chars, 0) AS DOUBLE)"
            f" / greatest(coalesce(tot.total, 0), 1), 6) AS dup{n}gram_frac")
    joins = "".join(
        f"\n        LEFT JOIN t{n} ON t{n}.doc_id = d.doc_id"
        for n in top_ns) + "".join(
        f"\n        LEFT JOIN cc{n} ON cc{n}.doc_id = d.doc_id"
        for n in dup_ns)
    return ("WITH " + ",".join(ctes) + f"""
        SELECT d.doc_id, {', '.join(sel)}
        FROM documents d
        LEFT JOIN tot ON tot.doc_id = d.doc_id{joins}
    """)


def docs_boilerplate_removed(sf_dir: str):
    """CCNet-style boilerplate line removal: lines present in >= 20
    distinct documents are stripped from every document (surviving
    line order preserved). The sf corpus has no newlines, so both
    sides first append the same two lines — one shared boilerplate
    line (removed everywhere) and one doc-unique line (kept) — which
    exercises split/membership/rebuild on every row."""
    from kgeng.ops.text import remove_frequent_lines

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def add_lines(t: pa.Table) -> pa.Table:
        i = pc.cast(t["doc_id"], pa.string())
        txt = pc.binary_join_element_wise(
            t["text"], pa.scalar("SUBSCRIBE TO OUR NEWSLETTER"),
            pc.binary_join_element_wise(pa.scalar("uid "), i, ""), "\n")
        return pa.table({"doc_id": t["doc_id"], "text": txt})

    out = remove_frequent_lines(
        ds.map_batches(add_lines, batch_format="pyarrow"),
        col="text", out="clean_text", min_docs=20)
    return out.map_batches(
        lambda t: t.select(["doc_id", "clean_text"]),
        batch_format="pyarrow")


def cust_order_profile_outer(sf_dir: str):
    """FULL OUTER join of two per-customer aggregates (big-order counts
    vs urgent-order counts): customers present on either side surface
    exactly once, the missing side NULL — exercises hash_join
    how='outer' (both sides pre-aggregated, one bucket shuffle)."""
    from kgeng.ops.agg import salted_count
    from kgeng.ops.join import hash_join

    orders = _pq(sf_dir, "orders",
                 ["o_custkey", "o_totalprice", "o_orderpriority"])
    big = orders.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 400000.0))
                   .select(["o_custkey"]), batch_format="pyarrow")
    urgent = orders.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))
                   .select(["o_custkey"]), batch_format="pyarrow")
    nb = salted_count(big, "o_custkey", out="n_big",
                      key_type=pa.int64()) \
        .map_batches(lambda t: t.rename_columns(["c_custkey", "n_big"]),
                     batch_format="pyarrow")
    nu = salted_count(urgent, "o_custkey", out="n_urgent",
                      key_type=pa.int64()) \
        .map_batches(lambda t: t.rename_columns(["c_custkey",
                                                 "n_urgent"]),
                     batch_format="pyarrow")
    return hash_join(nb, nu, key="c_custkey", how="outer")


def distinct_users_by_type(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type — per-batch pair dedup
    shrinks the shuffle, one pair groupby, tiny final count."""
    from kgeng.ops.agg import grouped_count_distinct

    ev = _pq(sf_dir, "events", ["event_type", "user_id"])
    return grouped_count_distinct(ev, "event_type", "user_id",
                                  out="n_users")


def approx_distinct_users_by_type(sf_dir: str):
    """HyperLogLog distinct-count sketch (p=12, ~1.6% error): the scale
    path for distinct counts — 4 KB of registers per key per batch
    shuffle instead of every distinct pair. Rows-only for the driver;
    tests pin it against the exact op within the sketch's error bound."""
    from kgeng.ops.agg import hll_count_distinct

    ev = _pq(sf_dir, "events", ["event_type", "user_id"])
    return hll_count_distinct(ev, "event_type", "user_id",
                              out="n_users_approx")


def revenue_by_nation(sf_dir: str):
    """TPC-H-Q5-style multi-join chain composing BOTH join strategies:
    lineitem x orders through the hash-partitioned large-x-large join,
    then customer -> nation resolved by one pre-composed broadcast
    lookup (two dimension tables collapse into a single custkey ->
    nation-name map on the driver, so the big stream is touched by
    exactly one more vectorized lookup, not two)."""
    import pyarrow.parquet as pq

    from kgeng.ops.join import broadcast_join, hash_join

    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_extendedprice", "l_discount"])

    def add_rev(t: pa.Table) -> pa.Table:
        r = pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"o_orderkey": t["l_orderkey"],
                         "rev_c": _cents(r)})

    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = hash_join(li.map_batches(add_rev, batch_format="pyarrow"),
                       orders, key="o_orderkey", how="inner")

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"])
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    # compose the two dimension hops driver-side (both broadcast-small)
    nidx = pc.index_in(cust["c_nationkey"].combine_chunks(),
                       value_set=nation["n_nationkey"].combine_chunks())
    lookup = pa.table({
        "o_custkey": cust["c_custkey"],
        "n_name": pc.take(nation["n_name"].combine_chunks(), nidx)})
    tagged = broadcast_join(joined, lookup, "o_custkey", how="inner")

    # 25 nations: partial-per-block + driver final, no shuffle
    out = agg_ops.small_key_aggregate(
        tagged, ["n_name"],
        [(None, "count_all", "n_items"), ("rev_c", "sum", "rev")])
    return out.map_batches(
        lambda t: pa.table({"n_name": t["n_name"],
                            "n_items": pc.cast(t["n_items"], pa.int64()),
                            "sum_revenue": _uncents(t["rev"])}),
        batch_format="pyarrow")


def urgent_order_revenue(sf_dir: str):
    """Bloom-prefiltered join: revenue of URGENT orders only. The
    selective build side (1/5 of orders) is summarized as a 128 KB
    Bloom bitmap and broadcast; lineitem drops definite non-matches
    BEFORE the shuffle (false positives pass and die in the exact join
    after) — at cluster scale this replaces shuffling ~80% of the probe
    side with one small broadcast. Result is exactly the plain join's."""
    from kgeng.ops.join import bloom_prefilter, build_bloom, hash_join

    # predicate pushed into the scan: non-urgent rows never leave the
    # reader (the filter column must stay in the projection — Ray
    # evaluates the pushed filter after the column prune)
    urgent = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"],
                 filter=(pc.field("o_orderpriority") == "1-URGENT"))
    bloom = build_bloom(urgent, "o_orderkey")

    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_extendedprice", "l_discount"])

    def add_rev(t: pa.Table) -> pa.Table:
        r = pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"o_orderkey": t["l_orderkey"],
                         "rev_c": _cents(r)})

    probe = bloom_prefilter(
        li.map_batches(add_rev, batch_format="pyarrow"),
        "o_orderkey", bloom)
    joined = hash_join(probe, urgent, key="o_orderkey", how="inner")

    # one surviving priority: partial-per-block + driver final
    out = agg_ops.small_key_aggregate(
        joined, ["o_orderpriority"],
        [(None, "count_all", "n_items"), ("rev_c", "sum", "rev")])
    return out.map_batches(
        lambda t: pa.table({"o_orderpriority": t["o_orderpriority"],
                            "n_items": t["n_items"],
                            "sum_revenue": _uncents(t["rev"])}),
        batch_format="pyarrow")


def revenue_by_orderpriority(sf_dir: str):
    """Large x large join: lineitem x orders via the explicit
    hash-partitioned join (ops/join.py), then grouped revenue."""
    from kgeng.ops.join import hash_join

    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(t: pa.Table) -> pa.Table:
        r = pc.multiply(t["l_extendedprice"],
                        pc.subtract(1.0, t["l_discount"]))
        return pa.table({"o_orderkey": t["l_orderkey"],
                         "rev_c": _cents(r)})

    li = li.map_batches(rev, batch_format="pyarrow")
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = hash_join(li, orders, "o_orderkey", num_buckets=32)
    # 5 priorities: partial-per-block + driver final, no shuffle
    out = agg_ops.small_key_aggregate(
        joined, ["o_orderpriority"],
        [(None, "count_all", "n_items"), ("rev_c", "sum", "rev_c")])

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "n_items": pc.cast(t["n_items"], pa.int64()),
            "sum_revenue": _uncents(t["rev_c"]),
        })

    return out.map_batches(final, batch_format="pyarrow")


def sessionize_events(sf_dir: str):
    """Session windows (30 min gap) per user over the events log."""
    from kgeng.ops.window import sessionize

    ev = _pq(sf_dir, "events", ["user_id", "ts"])
    out = sessionize(ev, key="user_id", ts="ts", gap_minutes=30.0)

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "session_id": pc.cast(t["session_id"], pa.int64()),
            "n_events": pc.cast(t["n_events"], pa.int64()),
            "session_start": t["session_start"],
            "session_end": t["session_end"],
        })

    return out.map_batches(final, batch_format="pyarrow")


def top2_orders_per_cust(sf_dir: str):
    """Windowed row_number()<=k per group: top-2 orders per customer by
    totalprice (coarse-bucket shuffle + one vectorized pass per bucket)."""
    from kgeng.ops.rank import top_k_per_group

    ds = _pq(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    out = top_k_per_group(ds, key="o_custkey", value="o_totalprice", k=2,
                          tie_breakers=["o_orderkey"])

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": pc.cast(t["o_custkey"], pa.int64()),
            "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
            "o_totalprice": t["o_totalprice"],
            "rank": pc.cast(t["rank"], pa.int64()),
        })

    return out.map_batches(final, batch_format="pyarrow")


def price_quantiles_by_priority(sf_dir: str):
    """Exact per-group quantiles (quantile_cont semantics) of order
    totalprice per orderpriority."""
    from kgeng.ops.rank import grouped_quantiles_auto

    ds = _pq(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    out = grouped_quantiles_auto(ds, key="o_orderpriority",
                            value="o_totalprice",
                            quantiles=[0.5, 0.9])

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "q": t["q"],
            "quantile_value": t["quantile_value"],
        })

    return out.map_batches(final, batch_format="pyarrow")


def price_quantiles_by_priority_approx(sf_dir: str):
    """Scale-path quantiles: the mergeable histogram sketch (error <= one
    bucket width). Approximate by construction -> rows-only check; the
    tolerance vs exact is asserted in pytest."""
    from kgeng.ops.rank import approx_grouped_quantiles

    ds = _pq(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    return approx_grouped_quantiles(ds, key="o_orderpriority",
                                    value="o_totalprice",
                                    quantiles=[0.5, 0.9], num_bins=4096)


def custs_without_big_orders(sf_dir: str):
    """Anti join (NOT EXISTS): customers with no order above 400k —
    filter pushed into the right side before the single shuffle."""
    from kgeng.ops.join import hash_join

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .map_batches(
            lambda t: pa.table({"c_custkey": t.filter(pc.greater(
                t["o_totalprice"], 400000.0))["o_custkey"]}),
            batch_format="pyarrow")
    out = hash_join(cust, orders, "c_custkey", how="anti")

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
            "c_mktsegment": t["c_mktsegment"],
        })

    return out.map_batches(final, batch_format="pyarrow")


def ann_ivf_codebook(num_cells: int = 16, dim: int = 64,
                     seed: int = 55) -> "np.ndarray":
    """The fixed IVF codebook for the ``ann_topk_ivf`` registry entry:
    seeded random unit centroids, shared verbatim (as SQL literals) by
    the DuckDB oracle so cell assignment + nprobe pruning + in-cell
    cosine top-k are all independently recomputable in SQL. The
    data-trained (k-means) path stays the default for ``ivf_topk``."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((num_cells, dim))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def ann_topk_ivf(sf_dir: str):
    """IVF-cell approximate ANN — the second scale path. This registry
    entry uses the explicit (production-style, trained-offline) codebook
    from :func:`ann_ivf_codebook` so the DuckDB oracle can verify it
    end-to-end; k-means-trained cells are covered by recall tests."""
    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    q, qids = _load_queries(sf_dir)
    return sim_ops.ivf_topk(emb, q, qids, k=5, num_cells=16, nprobe=6,
                            centroids=ann_ivf_codebook())


def doc_length_histogram(sf_dir: str):
    """Histogram of document lengths (50-char buckets) — the classic
    bucketed-aggregate shape, partial+final via groupby."""
    ds = _pq(sf_dir, "documents", ["n_chars"])

    def bucket(t: pa.Table) -> pa.Table:
        b = pc.divide(pc.cast(t["n_chars"], pa.int64()), 50)
        return pa.table({"bucket": b})

    out = ds.map_batches(bucket, batch_format="pyarrow") \
        .groupby("bucket").count()
    return out.map_batches(
        lambda t: pa.table({
            "bucket": t["bucket"],
            "n_docs": pc.cast(t["count()"], pa.int64())}),
        batch_format="pyarrow")


def docs_editdist_pairs(sf_dir: str):
    """Every document pair within byte-level Levenshtein distance 8 —
    the dedup family's exact edit-distance member. Lossless length-band
    blocking + histogram lower-bound prune + banded Ukkonen DP
    vectorized across pairs (ops/dedup.py:editdist_near_dup_pairs);
    oracle = DuckDB's byte-based levenshtein()."""
    from kgeng.ops.dedup import editdist_near_dup_pairs

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return editdist_near_dup_pairs(ds, max_dist=8)


def lang_id_oracle_sql() -> str:
    """DuckDB oracle for the LangId kernel, generated from the SAME
    stopword table the kernel uses (ops/text.py:_LANG_STOPWORDS) so the
    two can never drift. Reproduces the kernel exactly: lowercase,
    non-alpha runs -> double spaces, pad, one non-overlapping RE2 count
    per language (same sorted alternation), argmax with first-language
    tie-break, unknown on zero counts, Han-script override."""
    from kgeng.ops.text import _LANG_STOPWORDS

    langs = [k for k, v in _LANG_STOPWORDS.items() if v]
    cnt_cols = ",\n    ".join(
        "len(regexp_extract_all(nt, ' (?:"
        + "|".join(sorted(_LANG_STOPWORDS[lg]))
        + ") ')) AS c_" + lg
        for lg in langs)
    # first max wins: lang i is the answer iff its count >= every later
    # language's count (earlier WHEN arms already handled earlier langs)
    arms = []
    for i, lg in enumerate(langs):
        conds = [f"c_{lg} >= c_{other}" for other in langs[i + 1:]]
        arms.append("WHEN " + (" AND ".join(conds) if conds else "TRUE")
                    + f" THEN '{lg}'")
    return f"""
        WITH norm AS (
          SELECT doc_id, text,
                 ' ' || regexp_replace(lower(coalesce(text, '')),
                                       '[^a-z]+', '  ', 'g') || ' ' AS nt
          FROM documents),
        cnt AS (
          SELECT doc_id, text,
    {cnt_cols}
          FROM norm)
        SELECT doc_id,
          CASE WHEN regexp_matches(coalesce(text, ''), '[一-鿿]')
                   THEN 'zh'
               WHEN greatest({", ".join("c_" + lg for lg in langs)}) <= 0
                   THEN 'unknown'
               {" ".join(arms)}
          END AS lang_pred
        FROM cnt
    """


# --- shared SQL-hash primitives: DuckDB expressions that recompute the
# engine's SQL-expressible hashes (ops/text.py _hash_tokens / _mix64)
# with HUGEINT mod-2^64 arithmetic. Both multipliers are < 2^62, so
# every product of a 64-bit operand fits int128 directly.
_SQL_M64 = "CAST('18446744073709551616' AS HUGEINT)"      # 2^64
_SQL_FNV_P = "1099511628211"                               # FNV-64 prime
_SQL_FNV_INIT = "CAST('14695981039346656037' AS HUGEINT)"  # FNV offset
_SQL_MIX_P = "CAST('2685821657736338717' AS HUGEINT)"      # xorshift* mult


def _sql_tokhash(s: str) -> str:
    """Charwise polynomial fold = ops/text.py:_hash_tokens."""
    return (f"list_reduce(list_prepend({_SQL_FNV_INIT}, "
            f"list_transform(generate_series(1, length({s})), "
            f"i -> CAST(unicode(({s})[i]) AS HUGEINT))), "
            f"(a, c) -> (a * {_SQL_FNV_P} + c) % {_SQL_M64})")


def _sql_h2b(x: str) -> str:
    """HUGEINT in [0, 2^64) -> BIGINT (two's complement)."""
    return (f"CAST(CASE WHEN ({x}) >= 9223372036854775808 "
            f"THEN ({x}) - {_SQL_M64} ELSE ({x}) END AS BIGINT)")


def _sql_b2h(x: str) -> str:
    """BIGINT -> HUGEINT in [0, 2^64)."""
    return (f"(CASE WHEN ({x}) < 0 THEN CAST(({x}) AS HUGEINT) + "
            f"{_SQL_M64} ELSE CAST(({x}) AS HUGEINT) END)")


def _sql_xshift(x: str, s: int) -> str:
    """``x ^ (x >> s)`` in the HUGEINT domain (BIGINT hop for xor)."""
    return _sql_b2h(
        f"xor({_sql_h2b(x)}, {_sql_h2b(f'({x}) // {1 << s}')})")


def _sql_mix64(x: str) -> str:
    """Finalizer = ops/text.py:_mix64 (value stays HUGEINT in [0,2^64))."""
    e = _sql_xshift(x, 33)
    e = f"(({e}) * {_SQL_MIX_P}) % {_SQL_M64}"
    return _sql_xshift(e, 29)


def _sql_mulmod(x: str, c: int) -> str:
    """``(x * c) mod 2^64`` for a constant c that may exceed 2^63 (the
    direct product would overflow int128): split x into 32-bit halves —
    ``(lo*c + ((hi*c) % 2^32) * 2^32) % 2^64`` keeps every intermediate
    under 2^97."""
    return (f"(((({x}) % 4294967296) * CAST('{c}' AS HUGEINT) + "
            f"(((({x}) // 4294967296) * CAST('{c}' AS HUGEINT)) "
            f"% 4294967296) * 4294967296) % {_SQL_M64})")


def _sql_splitmix64_rounds() -> tuple[str, str, str]:
    """The splitmix64 finalizer = ops/agg.py:_splitmix64, in the
    HUGEINT-in-[0,2^64) domain, as three expressions over the previous
    round's column: ``z0`` (the seed plus GOLDEN, mod 2^64) -> ``z1`` ->
    ``z2`` -> hash. Callers stage them as chained CTE columns: the nested
    xshift/mulmod macros repeat their argument ~18x per level, so one
    nested expression is megabytes of SQL that DuckDB takes minutes to
    plan (or OOMs on); staged, the query is a few KB."""
    return (_sql_mulmod(_sql_xshift("z0", 30), 0xBF58476D1CE4E5B9),
            _sql_mulmod(_sql_xshift("z1", 27), 0x94D049BB133111EB),
            _sql_xshift("z2", 31))


def cms_oracle_sql(width: int = 2048, depth: int = 4,
                   k: int = 20) -> str:
    """DuckDB replay of the full Count-Min chain
    (ops/agg.count_min_cells + cms_point_estimates): exact token
    counts, the charwise-polynomial token hash, the splitmix64 stream
    cell placement ``splitmix64(th + d*GOLDEN) % width``, cell sums,
    and the min-over-rows point estimate for the exact top-``k``
    terms. Exactly statable because every step is integer arithmetic
    mod 2^64 — no float summation order anywhere."""
    # z0 = (th + (d+1)*GOLDEN) mod 2^64: splitmix64 of the seed
    # th + d*GOLDEN (the finalizer adds one more GOLDEN itself)
    z0 = (f"((th + (CAST(d AS HUGEINT) + 1) * "
          f"CAST('11400714819323198485' AS HUGEINT)) % {_SQL_M64})")
    z1, z2, hv = _sql_splitmix64_rounds()
    cell = f"CAST(({hv}) % {width} AS BIGINT)"
    return f"""
        WITH tokens AS (
          SELECT unnest(regexp_extract_all(text, '\\S+')) AS term
          FROM documents),
        counts AS (
          SELECT term, CAST(count(*) AS BIGINT) AS tf
          FROM tokens GROUP BY 1),
        hashed AS (
          SELECT term, tf, {_sql_tokhash('term')} AS th FROM counts),
        seeded AS (
          SELECT term, tf, d, {z0} AS z0
          FROM hashed CROSS JOIN
               (SELECT unnest(generate_series(0, {depth - 1})) AS d)),
        s1 AS (SELECT term, tf, d, {z1} AS z1 FROM seeded),
        s2 AS (SELECT term, tf, d, {z2} AS z2 FROM s1),
        placed AS (
          SELECT term, tf, d, {cell} AS cell FROM s2),
        cells AS (
          SELECT d, cell, SUM(tf) AS cnt FROM placed GROUP BY 1, 2),
        top AS (
          SELECT term, tf FROM counts
          ORDER BY tf DESC, term LIMIT {k})
        SELECT t.term, t.tf, CAST(MIN(c.cnt) AS BIGINT) AS est
        FROM top t
        JOIN placed p ON p.term = t.term
        JOIN cells c ON c.d = p.d AND c.cell = p.cell
        GROUP BY 1, 2
    """


def fingerprint_oracle_sql(k: int = 4, window: int = 8) -> str:
    """DuckDB oracle for the winnowing document fingerprint
    (ops/text.py:doc_fingerprints_batch), recomputing every hash
    primitive in SQL — possible since round 5 swapped the token hash
    from pandas' keyed SipHash to a charwise polynomial and the
    finalizer from Murmur3 fmix64 to an xorshift* mix whose constants
    stay inside int128 under HUGEINT arithmetic:

    - token hash: fold ``h = (h*P + unicode(char)) mod 2^64`` from the
      FNV offset basis (``list_reduce`` with a prepended init);
    - gram hash: the same polynomial over ``k`` consecutive token
      hashes (unrolled — k is a compile-time constant);
    - winnowing: min of each ``window``-wide slice of the gram list,
      XOR of the DISTINCT window mins (BIGINT two's-complement hop for
      ``xor``), single global min when #grams <= window, joined-token
      charwise hash when #tokens < k;
    - finalize: ``x ^= x>>33; x *= 0x2545F4914F6CDD1D; x ^= x>>29``,
      masked to 63 bits.

    All mod-2^64 products fit int128 directly: both multipliers are
    < 2^62 and operands < 2^64."""
    M, P = _SQL_M64, _SQL_FNV_P
    tokhash, h2b, b2h = _sql_tokhash, _sql_h2b, _sql_b2h

    def finalize(x: str) -> str:         # 63-bit masked mix
        return f"CAST(({_sql_mix64(x)}) % 9223372036854775808 AS BIGINT)"

    gram = "h[i]"
    for j in range(1, k):
        gram = f"(({gram}) * {P} + h[i+{j}]) % {M}"
    w1 = window - 1
    mins = (f"list_distinct(list_transform("
            f"generate_series(1, len(gs) - {w1}), "
            f"i -> list_min(gs[i:i+{w1}])))")
    xorfold = b2h(f"list_reduce(list_transform({mins}, "
                  f"v -> {h2b('v')}), (a, b) -> xor(a, b))")
    return f"""
        WITH docs AS (
          SELECT doc_id,
                 regexp_extract_all(coalesce(text, ''), '\\S+') AS toks
          FROM documents),
        th AS (
          SELECT doc_id, toks,
                 list_transform(toks, t -> {tokhash('t')}) AS h
          FROM docs),
        grams AS (
          SELECT doc_id, toks,
                 list_transform(
                   generate_series(1, greatest(len(h) - {k - 1}, 0)),
                   i -> {gram}) AS gs
          FROM th),
        acc AS (
          SELECT doc_id,
                 CASE
                   WHEN len(toks) < {k}
                     THEN {tokhash("array_to_string(toks, ' ')")}
                   WHEN len(gs) <= {window} THEN list_min(gs)
                   ELSE {xorfold}
                 END AS a
          FROM grams)
        SELECT doc_id, {finalize('a')} AS fingerprint FROM acc
    """


def packed_oracle_sql(budget: int = 2048, num_buckets: int = 64) -> str:
    """DuckDB oracle for best-fit-decreasing sequence packing
    (ops/sample.py:pack_sequences), bit-for-bit: packing is a
    per-bucket sequential fold, so the oracle replays it as a
    recursive CTE — one iteration per in-bucket row (all buckets
    advance in parallel), carrying the open-capacity list as a sorted
    ``STRUCT(rem, seq)[]``. ``list_filter(caps, rem >= c)[1]`` on the
    sorted list IS the engine's ``bisect_left(caps, (c,))`` (smallest
    fitting remainder, lowest seq id on ties). Buckets come from the
    same Knuth multiplicative hash; seq ids are ``bucket * 2^32 +
    local``; seq_fill joins back as the per-sequence token sum."""
    return f"""
        WITH RECURSIVE rows_ AS (
          SELECT doc_id, {_sql_pack_bucket('doc_id', num_buckets)}
                     AS bucket,
                 CAST(len(regexp_extract_all(coalesce(text, ''),
                                             '\\S+'))
                      AS BIGINT) AS n_tokens
          FROM documents),
        {_sql_pack_chain(budget)}
        SELECT e.doc_id, e.n_tokens,
               CAST(e.bucket * 4294967296 + e.a AS BIGINT) AS seq_id,
               CAST(g.fill AS BIGINT) AS seq_fill
        FROM ex e JOIN agg g ON g.bucket = e.bucket AND g.a = e.a
    """


def _sql_pack_bucket(idc: str, num_buckets: int) -> str:
    """The engine's Knuth bucket hash ``((id * K) mod 2^64) >> 3 % nb``."""
    return (f"CAST(((CAST({idc} AS HUGEINT) * 2654435761) % {_SQL_M64})"
            f" // 8 % {num_buckets} AS BIGINT)")


def _sql_pack_chain(budget: int) -> str:
    """The best-fit-decreasing CTE chain (base/st/fin/ex/agg), assuming
    a ``rows_`` CTE with (doc_id, bucket, n_tokens) is already defined
    in the surrounding WITH RECURSIVE. Shared by packed_oracle_sql and
    the curation-pipeline oracle."""
    empty = "CAST([] AS STRUCT(rem BIGINT, seq BIGINT)[])"
    newrem = (f"(CASE WHEN fit IS NULL THEN {budget} - c "
              f"ELSE fit.rem - c END)")
    return f"""base AS (
          SELECT bucket,
                 list(doc_id ORDER BY n_tokens DESC, doc_id) AS ids,
                 list(n_tokens ORDER BY n_tokens DESC, doc_id) AS cs,
                 count(*) AS n
          FROM rows_ GROUP BY bucket),
        st AS (
          SELECT bucket, ids, cs, n, 0 AS i,
                 {empty} AS caps,
                 CAST(0 AS BIGINT) AS nseq,
                 CAST([] AS BIGINT[]) AS assign
          FROM base
          UNION ALL
          SELECT bucket, ids, cs, n, i + 1,
                 list_sort(list_concat(
                   CASE WHEN fit IS NULL THEN caps
                        ELSE list_filter(caps, x -> x.seq <> fit.seq)
                   END,
                   CASE WHEN {newrem} > 0
                        THEN [{{'rem': {newrem},
                               'seq': CASE WHEN fit IS NULL THEN nseq
                                           ELSE fit.seq END}}]
                        ELSE {empty} END)),
                 nseq + CASE WHEN fit IS NULL THEN 1 ELSE 0 END,
                 list_append(assign, CASE WHEN fit IS NULL THEN nseq
                                          ELSE fit.seq END)
          FROM (SELECT *, cs[i+1] AS c,
                       list_filter(caps, x -> x.rem >= cs[i+1])[1]
                           AS fit
                FROM st WHERE i < n)),
        fin AS (SELECT bucket, ids, cs, assign FROM st WHERE i = n),
        ex AS (SELECT bucket, unnest(ids) AS doc_id,
                      unnest(cs) AS n_tokens, unnest(assign) AS a
               FROM fin),
        agg AS (SELECT bucket, a, sum(n_tokens) AS fill
                FROM ex GROUP BY 1, 2)"""


def curation_oracle_sql() -> str:
    """DuckDB oracle for the 7-stage corpus-curation showcase
    (queries.docs_curation_pipeline), composed from the per-stage
    oracle fragments:

    1. ``nfc_normalize`` — DuckDB builtin (same Unicode tables);
    2. exact dedup — ``min(doc_id) GROUP BY text`` (the engine's
       63-bit content hash is collision-free at sf scale, same
       argument as the dedup_exact_docs oracle);
    3. near-dup reps — independent reconstruction: EXACT word-trigram
       Jaccard >= 0.6 over all survivor pairs + min-string-labeled
       components (matches the engine iff banded LSH covers every
       >= 0.6 pair here — same argument as minhash_dedup_docs, and
       recall at 0.6 is strictly easier than the verified 0.5);
    4. quality gate — the doc_quality formula, P25 via quantile_cont
       rounded to 9 (grouped_quantiles' interpolation);
    5. LM gate — the docs_lm_scores formula retrained on the stage-4
       survivors, P10 the same way;
    6. split — the split_assign Knuth-hash CASE;
    7. packing — the shared best-fit-decreasing recursive chain at
       budget 512 over the train split, LEFT-joined back so off-train
       docs keep a null seq_id."""
    return f"""
        WITH RECURSIVE norm AS (
          SELECT doc_id, nfc_normalize(coalesce(text, '')) AS text
          FROM documents),
        reps AS (SELECT min(doc_id) AS doc_id FROM norm GROUP BY text),
        s2 AS (SELECT n.doc_id, n.text FROM norm n
               JOIN reps r USING (doc_id)),
        toks3 AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS tk
                  FROM s2),
        grams AS (
          SELECT doc_id,
                 CASE WHEN len(tk) < 3
                      THEN [array_to_string(tk, ' ')]
                      ELSE [tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2]
                            for i in range(1, len(tk) - 1)]
                 END AS gs
          FROM toks3),
        dg AS (SELECT DISTINCT doc_id, unnest(gs) AS g FROM grams),
        sizes AS (SELECT doc_id, count(*) AS n FROM dg GROUP BY 1),
        inter AS (SELECT a.doc_id AS ida, b.doc_id AS idb, count(*) AS i
                  FROM dg a JOIN dg b ON a.g = b.g
                                     AND a.doc_id < b.doc_id
                  GROUP BY 1, 2),
        dup_pairs AS (
          SELECT CAST(ida AS VARCHAR) AS a, CAST(idb AS VARCHAR) AS b
          FROM inter JOIN sizes sa ON sa.doc_id = ida
                     JOIN sizes sb ON sb.doc_id = idb
          WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.6),
        edges AS (SELECT a AS node, b AS nbr FROM dup_pairs
                  UNION ALL SELECT b, a FROM dup_pairs),
        walk(node, label) AS (
          SELECT DISTINCT node, node FROM edges
          UNION
          SELECT e.node, w.label FROM edges e
          JOIN walk w ON w.node = e.nbr),
        comp AS (SELECT node, min(label) AS label FROM walk GROUP BY 1),
        s3 AS (SELECT s2.doc_id, s2.text FROM s2
               LEFT JOIN comp c ON c.node = CAST(s2.doc_id AS VARCHAR)
               WHERE c.label IS NULL
                  OR c.label = CAST(s2.doc_id AS VARCHAR)),
        qual AS (
          SELECT doc_id, text,
                 round((na / greatest(nc, 1))
                       * least(nt / 20.0, 1.0), 6) AS qs
          FROM (SELECT doc_id, text,
                       CAST(length(text) AS DOUBLE) AS nc,
                       CAST(length(regexp_replace(text, '[^A-Za-z]',
                                                  '', 'g'))
                            AS DOUBLE) AS na,
                       CAST(len(regexp_extract_all(text, '\\S+'))
                            AS DOUBLE) AS nt
                FROM s3)),
        q25 AS (SELECT round(quantile_cont(qs, 0.25), 9) AS thr
                FROM qual),
        s4 AS (SELECT doc_id, text FROM qual
               WHERE qs >= (SELECT thr FROM q25)),
        ltoks AS (SELECT doc_id,
                         unnest(regexp_extract_all(text, '\\S+')) AS term
                  FROM s4),
        vocab AS (SELECT term, count(*) AS tf FROM ltoks GROUP BY 1),
        consts AS (SELECT CAST(sum(tf) + count(*) + 1 AS DOUBLE)
                       AS denom FROM vocab),
        lp AS (SELECT term,
                      CAST(round(ln((tf + 1.0) / denom)
                                 * 1000000000) AS BIGINT) AS lpq
               FROM vocab, consts),
        lm AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
                      round(CAST(sum(lpq) AS DOUBLE) / 1000000000.0
                            / count(*), 6) AS alp
               FROM ltoks JOIN lp USING (term) GROUP BY doc_id),
        p10 AS (SELECT round(quantile_cont(alp, 0.10), 9) AS thr
                FROM lm),
        spl AS (
          SELECT doc_id, n_tokens,
                 CASE WHEN (doc_id * 2654435761) % 4294967296
                           < 3221225472 THEN 'train'
                      WHEN (doc_id * 2654435761) % 4294967296
                           < 3758096384 THEN 'val'
                      ELSE 'test' END AS split
          FROM lm WHERE alp >= (SELECT thr FROM p10)),
        rows_ AS (SELECT doc_id, {_sql_pack_bucket('doc_id', 64)}
                      AS bucket, n_tokens
                  FROM spl WHERE split = 'train'),
        {_sql_pack_chain(512)}
        SELECT s.doc_id, s.split, s.n_tokens,
               CAST(e.bucket * 4294967296 + e.a AS BIGINT) AS seq_id
        FROM spl s LEFT JOIN ex e ON e.doc_id = s.doc_id
    """


def fuzzy_decon_oracle_sql(threshold: float = 0.5, num_perm: int = 128,
                           num_bands: int = 32, ngram: int = 3) -> str:
    """DuckDB oracle for fuzzy benchmark decontamination
    (ops/dedup.py:minhash_decontaminate), recomputing the FULL chain —
    token hash, 32-bit window shingles, exact Mersenne-61 minhash
    (the 128 seeded (a, b) permutation constants are embedded as a
    VALUES table from the same _perm_tables call the engine makes),
    the per-band xor-fold, the 6+57-bit truncated packed band key,
    band-collision candidates, and the exact distinct-shingle Jaccard
    verify. Possible since round 5's SQL-expressible token hash; every
    mod-2^64 step uses the shared HUGEINT helpers (split mulmod for
    the golden-ratio multiplier, BIGINT hops for xor)."""
    from kgeng.ops.block import _perm_tables

    a_t, b_t = _perm_tables(num_perm, seed=13)
    rows = num_perm // num_bands
    perms = ", ".join(f"({p}, CAST('{int(a_t[p])}' AS HUGEINT), "
                      f"CAST('{int(b_t[p])}' AS HUGEINT))"
                      for p in range(num_perm))
    MIX = 0x9E3779B97F4A7C15
    m61 = "2305843009213693951"

    # window-shingle fold (ngram fixed at 3): staged columns g1 -> g3
    g2 = f"(({_sql_mulmod('g1', MIX)}) + ths[i+1]) % {_SQL_M64}"
    g3 = f"(({_sql_mulmod('g2', MIX)}) + ths[i+2]) % {_SQL_M64}"
    assert ngram == 3, "oracle fold is unrolled for ngram=3"
    # short-doc fold from 0: L=1 -> th1; L=2 -> (th1*MIX + th2) mod 2^64
    short2 = f"(({_sql_mulmod('ths[1]', MIX)}) + ths[2]) % {_SQL_M64}"

    # band fold acc_{r+1} = (acc_r * MIX mod 2^64) xor sig_r, acc_0 = 0
    def bstep(prev: str, sig: str) -> str:
        return _sql_b2h(f"xor({_sql_h2b(_sql_mulmod(prev, MIX))}, "
                        f"CAST({sig} AS BIGINT))")

    scols = ", ".join(
        f"min(CASE WHEN p % {rows} = {r} THEN v END) AS s{r}"
        for r in range(rows))
    # staged fold: each level carries the sig columns later levels need
    fold_q = "SELECT side, id, band, CAST(s0 AS HUGEINT) AS a0, " + \
        ", ".join(f"s{r}" for r in range(1, rows)) + " FROM bs"
    for r in range(1, rows):
        carry = ", ".join(f"s{j}" for j in range(r + 1, rows))
        fold_q = (f"SELECT side, id, band, "
                  f"{bstep(f'a{r-1}', f's{r}')} AS a{r}"
                  + (", " + carry if carry else "")
                  + f" FROM ({fold_q} )")

    return f"""
        WITH perms(p, a, b) AS (VALUES {perms}),
        d0 AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
        sided AS (
          SELECT 'c' AS side, doc_id AS id,
                 regexp_extract_all(text, '\\S+') AS toks
          FROM d0
          UNION ALL
          SELECT 'b', doc_id,
                 regexp_extract_all(
                   text || ' appended benchmark marker tokens', '\\S+')
          FROM d0 WHERE doc_id % 50 = 0),
        toku AS (SELECT DISTINCT tok FROM
                   (SELECT unnest(toks) AS tok FROM sided)),
        th AS (SELECT tok, {_sql_tokhash('tok')} AS hv FROM toku),
        posr AS (SELECT side, id,
                        unnest(generate_series(1, len(toks))) AS i, toks
                 FROM sided),
        ph AS (SELECT p.side, p.id, p.i, t.hv
               FROM (SELECT side, id, i, toks[i] AS tok FROM posr) p
               JOIN th t USING (tok)),
        tl0 AS (SELECT side, id, list(hv ORDER BY i) AS ths
                FROM ph GROUP BY 1, 2),
        tl AS (SELECT s.side, s.id, len(s.toks) AS L,
                      coalesce(t.ths, CAST([] AS HUGEINT[])) AS ths
               FROM sided s LEFT JOIN tl0 t
                 ON t.side = s.side AND t.id = s.id),
        wrows AS (SELECT side, id,
                         unnest(generate_series(1, L - {ngram - 1}))
                             AS i, ths
                  FROM tl WHERE L >= {ngram}),
        wst AS (SELECT side, id, {g3} AS g3 FROM
                  (SELECT side, id, i, ths, {g2} AS g2 FROM
                    (SELECT side, id, i, ths, ths[i] AS g1 FROM wrows))),
        shing AS (
          SELECT side, id, g3 % 4294967296 AS sh FROM wst
          UNION ALL
          SELECT side, id,
                 (CASE WHEN L = 1 THEN ths[1] ELSE {short2} END)
                     % 4294967296
          FROM tl WHERE L >= 1 AND L < {ngram}
          UNION ALL
          SELECT side, id, CAST(0 AS HUGEINT) FROM tl WHERE L = 0),
        sdist AS (SELECT DISTINCT side, id, sh FROM shing),
        sig AS (SELECT side, id, p.p,
                       min((p.a * sd.sh + p.b) % {m61}) AS v
                FROM sdist sd CROSS JOIN perms p GROUP BY 1, 2, 3),
        bs AS (SELECT side, id, p // {rows} AS band, {scols}
               FROM sig GROUP BY 1, 2, 3),
        pk AS (SELECT side, id,
                      band * 144115188075855872
                      + (CAST(a{rows - 1} % 9223372036854775808
                              AS BIGINT) // 64) AS key
               FROM ({fold_q} )),
        cand AS (SELECT DISTINCT c.id AS doc, b.id AS bid
                 FROM pk c JOIN pk b ON c.key = b.key
                 WHERE c.side = 'c' AND b.side = 'b'),
        szs AS (SELECT side, id, count(*) AS n FROM sdist GROUP BY 1, 2),
        inter AS (SELECT c.id AS doc, b.id AS bid, count(*) AS i
                  FROM sdist c
                  JOIN sdist b ON b.sh = c.sh AND b.side = 'b'
                  JOIN cand ON cand.doc = c.id AND cand.bid = b.id
                  WHERE c.side = 'c' GROUP BY 1, 2),
        jacs AS (
          SELECT cd.doc, cd.bid,
                 CAST(coalesce(i.i, 0) AS DOUBLE)
                 / (sc.n + sb.n - coalesce(i.i, 0)) AS jac
          FROM cand cd
          LEFT JOIN inter i ON i.doc = cd.doc AND i.bid = cd.bid
          JOIN szs sc ON sc.side = 'c' AND sc.id = cd.doc
          JOIN szs sb ON sb.side = 'b' AND sb.id = cd.bid),
        agg AS (SELECT doc, max(jac) AS best,
                       sum(CASE WHEN jac >= {threshold} THEN 1
                                ELSE 0 END) AS hits
                FROM jacs GROUP BY 1)
        SELECT d.doc_id,
               coalesce(a.hits, 0) > 0 AS contaminated,
               round(coalesce(a.best, 0), 6) AS best_jaccard,
               CAST(coalesce(a.hits, 0) AS BIGINT) AS n_bench_hits
        FROM d0 d LEFT JOIN agg a ON a.doc = d.doc_id
    """


def kcore_oracle_sql(k: int = 60) -> str:
    """Independent DuckDB oracle for the k-core (ops/graph.py:k_core):
    coreness is algorithm-canonical, so the oracle peels without
    replaying the engine — a recursive CTE carries the alive node set
    as a sorted list, each step keeps nodes whose in-subgraph degree
    is >= k, and the UNION (distinct) recursion self-terminates at the
    fixpoint (the unchanged row dedups away). The smallest alive list
    is the core; degrees join back from the surviving edge set."""
    return f"""
        WITH RECURSIVE op AS (
          SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
        e AS (
          SELECT DISTINCT a.p AS u, b.p AS v
          FROM op a JOIN op b ON a.o = b.o AND a.p < b.p),
        st AS (
          SELECT (SELECT list(node ORDER BY node) FROM
                    (SELECT u AS node FROM e UNION SELECT v FROM e))
                     AS alive
          UNION
          SELECT coalesce(
            (SELECT list(node ORDER BY node) FROM (
               SELECT node, count(*) AS c FROM (
                 SELECT u AS node FROM e
                 WHERE list_contains(s.alive, u)
                   AND list_contains(s.alive, v)
                 UNION ALL
                 SELECT v FROM e
                 WHERE list_contains(s.alive, u)
                   AND list_contains(s.alive, v))
               GROUP BY node HAVING count(*) >= {k})),
            CAST([] AS BIGINT[]))
          FROM st s),
        fin AS (SELECT alive FROM st ORDER BY len(alive) ASC LIMIT 1),
        al AS (SELECT unnest(alive) AS node FROM fin)
        SELECT node, CAST(c AS BIGINT) AS deg FROM (
          SELECT node, count(*) AS c FROM (
            SELECT u AS node FROM e
            WHERE u IN (SELECT node FROM al)
              AND v IN (SELECT node FROM al)
            UNION ALL
            SELECT v FROM e
            WHERE u IN (SELECT node FROM al)
              AND v IN (SELECT node FROM al))
          GROUP BY node)
    """


def slpa_oracle_sql(rounds: int = 10, threshold: float = 0.2) -> str:
    """DuckDB oracle for deterministic SLPA (ops/graph.py:slpa) over
    the symmetric bulk-order subgraph, bit-for-bit: the speak/listen
    loop unrolls into one CTE pair per round (like the pagerank
    oracle), with each node's label memory carried as a growing BIGINT
    list. The speaker's slot hash — ``splitmix64(u ^ (v*phi) ^ r) %
    r`` over node IDS — is recomputed exactly with HUGEINT split
    mulmod (splitmix64's multipliers exceed 2^63) and BIGINT xor hops;
    the listener adopts the (count desc, label asc) winner, silent
    listeners keep self. Post-processing counts labels across the
    rounds+1 memory slots, thresholds at ceil(threshold*(rounds+1)),
    and maps label positions back to node ids, '|'-joining the
    community set sorted by id."""
    import math

    def speak_from(r: int) -> str:
        """FROM clause computing each edge's speaker slot for round r:
        the splitmix64 pipeline is staged through NAMED columns in a
        nested-subquery chain — inlining the full expression would
        duplicate each stage ~4x per enclosing stage and the SQL text
        grows 4^7 (a 674 MB statement on the first attempt)."""
        vmix = _sql_h2b(_sql_mulmod("CAST(e.did AS HUGEINT)",
                                    0x9E3779B97F4A7C15))
        stages = [
            ("x0", _sql_b2h(f"xor(xor(CAST(e.sid AS BIGINT), {vmix}), "
                            f"{r})")),
            ("z1", f"((x0 + CAST('11400714819323198485' AS HUGEINT)) "
                   f"% {_SQL_M64})"),
            ("y1", _sql_xshift("z1", 30)),
            ("z2", _sql_mulmod("y1", 0xBF58476D1CE4E5B9)),
            ("y2", _sql_xshift("z2", 27)),
            ("z3", _sql_mulmod("y2", 0x94D049BB133111EB)),
            ("h", _sql_xshift("z3", 31)),
        ]
        q = (f"(SELECT e.dpos AS li, m.labs AS labs, {stages[0][1]} AS x0"
             f" FROM edges e JOIN m{r - 1} m ON m.pos = e.spos)")
        for name, expr in stages[1:]:
            q = f"(SELECT li, labs, {expr} AS {name} FROM {q})"
        return (f"(SELECT li, labs[CAST(h % {r} AS BIGINT) + 1] AS lab "
                f"FROM {q})")

    ctes = [f"""
        WITH eo AS (
          SELECT DISTINCT l_orderkey * 2 AS s, l_partkey * 2 + 1 AS d
          FROM lineitem WHERE l_quantity > 45),
        base AS (SELECT s AS src, d AS dst FROM eo
                 UNION SELECT d, s FROM eo),
        nodes AS (
          SELECT node, row_number() OVER (ORDER BY node) - 1 AS pos
          FROM (SELECT DISTINCT src AS node FROM base)),
        edges AS (
          SELECT ns.pos AS spos, nd.pos AS dpos,
                 b.src AS sid, b.dst AS did
          FROM base b
          JOIN nodes ns ON ns.node = b.src
          JOIN nodes nd ON nd.node = b.dst),
        m0 AS (SELECT pos, [pos] AS labs FROM nodes)"""]
    for r in range(1, rounds + 1):
        ctes.append(f"""
        recv{r} AS (SELECT li, lab FROM {speak_from(r)}),
        best{r} AS (
          SELECT li, lab FROM (
            SELECT li, lab, count(*) AS c FROM recv{r} GROUP BY 1, 2)
          QUALIFY row_number() OVER (PARTITION BY li
                                     ORDER BY c DESC, lab) = 1),
        -- MATERIALIZED: m{r - 1} is referenced twice (speak + carry);
        -- inlining would re-expand every earlier round exponentially
        m{r} AS MATERIALIZED (
          SELECT m.pos, list_append(m.labs, coalesce(b.lab, m.pos))
                     AS labs
          FROM m{r - 1} m LEFT JOIN best{r} b ON b.li = m.pos)""")
    need = int(math.ceil(threshold * (rounds + 1)))
    ctes.append(f"""
        flat AS (SELECT pos, unnest(labs) AS lab FROM m{rounds}),
        cnts AS (SELECT pos, lab, count(*) AS c FROM flat GROUP BY 1, 2),
        prim AS (SELECT pos, lab FROM cnts
                 QUALIFY row_number() OVER (PARTITION BY pos
                                            ORDER BY c DESC, lab) = 1),
        comm AS (
          SELECT c.pos, count(*) AS ncom,
                 string_agg(CAST(ln.node AS VARCHAR), '|'
                            ORDER BY ln.node) AS coms
          FROM cnts c JOIN nodes ln ON ln.pos = c.lab
          WHERE c.c >= {need} GROUP BY 1)""")
    return ",".join(ctes) + """
        SELECT n.node, pn.node AS primary_label,
               coalesce(cm.ncom, 0) AS n_communities,
               coalesce(cm.coms, '') AS communities
        FROM nodes n
        JOIN prim p ON p.pos = n.pos
        JOIN nodes pn ON pn.pos = p.lab
        LEFT JOIN comm cm ON cm.pos = n.pos
    """


def simhash_oracle_sql() -> str:
    """DuckDB oracle for the 64-bit simhash signature
    (ops/dedup.py:simhash_batch), bit-for-bit: per token, the charwise
    polynomial hash + xorshift* mix (hashed once per DISTINCT token,
    then joined back); per (doc, bit), the ones-count over the doc's
    tokens (multiset — duplicate tokens count each occurrence); the
    majority rule ``2*ones - n_tokens > 0`` sets the bit; the 64-bit
    word converts to two's-complement BIGINT exactly like the engine's
    ``as_int64``. Empty docs sign to 0. Bit extraction uses
    ``power(2, b)`` — exact for powers of two in a double."""
    hv = _sql_mix64(_sql_tokhash("t"))
    return f"""
        WITH docs AS (
          SELECT doc_id,
                 regexp_extract_all(coalesce(text, ''), '\\S+') AS tk
          FROM documents),
        tok AS (SELECT doc_id, len(tk) AS n, unnest(tk) AS t FROM docs),
        dt AS (SELECT DISTINCT t FROM tok),
        th AS (SELECT t, {hv} AS hv FROM dt),
        bits AS (
          SELECT tok.doc_id, tok.n, r.b,
                 sum(CAST((th.hv // CAST(power(2, r.b) AS HUGEINT)) % 2
                          AS BIGINT)) AS ones
          FROM tok JOIN th ON th.t = tok.t
          CROSS JOIN range(64) r(b)
          GROUP BY 1, 2, 3),
        sig AS (
          SELECT doc_id,
                 sum(CASE WHEN 2 * ones - n > 0
                          THEN CAST(power(2, b) AS HUGEINT)
                          ELSE CAST(0 AS HUGEINT) END) AS s
          FROM bits GROUP BY doc_id)
        SELECT d.doc_id,
               coalesce({_sql_h2b('sig.s')}, 0) AS simhash
        FROM docs d LEFT JOIN sig ON sig.doc_id = d.doc_id
    """


def lineitem_harmonic(sf_dir: str):
    """EXACT 6-hop harmonic centrality over the shared mixed-orientation
    subgraph — the exact verify-stage twin of the HyperBall
    `lineitem_closeness` sketch. Integer LCM scoring keeps the
    recursive-CTE oracle bit-exact (ops/graph.py:bounded_harmonic)."""
    from kgeng.ops.graph import bounded_harmonic

    return bounded_harmonic(_mixed_subgraph_edges(sf_dir), max_hops=6)


def harmonic_oracle_sql(max_hops: int = 6) -> str:
    """Depth-limited recursive-CTE oracle for bounded_harmonic: walk
    enumerates (root, node, d) path facts up to max_hops (UNION dedups,
    so the state is finite even on cycles), min(d) is the true shortest
    distance, and the score is the same integer LCM//d sum the engine
    computes."""
    import math

    lcm = math.lcm(*range(1, max_hops + 1))
    return f"""
        WITH RECURSIVE base AS ({MIXED_SUBGRAPH_SQL}),
        edges AS (SELECT DISTINCT src, dst FROM base),
        nodes AS (SELECT DISTINCT node FROM (
                    SELECT src AS node FROM edges
                    UNION ALL SELECT dst FROM edges)),
        walk(root, node, d) AS (
          SELECT src, dst, 1 FROM edges
          UNION
          SELECT w.root, e.dst, w.d + 1
          FROM walk w JOIN edges e ON e.src = w.node
          WHERE w.d < {max_hops}
        ),
        best AS (
          SELECT root, node, min(d) AS d FROM walk
          WHERE node <> root GROUP BY 1, 2),
        tot AS (
          SELECT root, sum({lcm} // d) AS s FROM best GROUP BY 1)
        SELECT n.node,
               round(CAST(coalesce(t.s, 0) AS DOUBLE) / {lcm}, 6)
                   AS harmonic
        FROM nodes n LEFT JOIN tot t ON t.root = n.node
    """


def lineitem_closeness_exact(sf_dir: str):
    """EXACT 6-hop closeness centrality ((reached-1)/sum of true
    shortest distances) over the shared mixed-orientation subgraph —
    the oracle-checked exact twin of the HyperBall
    `lineitem_closeness` sketch (which stays rows-only by nature).
    Integer numerator and denominator keep the recursive-CTE oracle
    bit-exact (ops/graph.py:bounded_closeness)."""
    from kgeng.ops.graph import bounded_closeness

    return bounded_closeness(_mixed_subgraph_edges(sf_dir), max_hops=6)


def closeness_oracle_sql(max_hops: int = 6) -> str:
    """Depth-limited recursive-CTE oracle for bounded_closeness — the
    same walk as :func:`harmonic_oracle_sql`, scoring count/sum(d)
    (both integers; the double division + half-away round is the one
    float step on either side)."""
    return f"""
        WITH RECURSIVE base AS ({MIXED_SUBGRAPH_SQL}),
        edges AS (SELECT DISTINCT src, dst FROM base),
        nodes AS (SELECT DISTINCT node FROM (
                    SELECT src AS node FROM edges
                    UNION ALL SELECT dst FROM edges)),
        walk(root, node, d) AS (
          SELECT src, dst, 1 FROM edges
          UNION
          SELECT w.root, e.dst, w.d + 1
          FROM walk w JOIN edges e ON e.src = w.node
          WHERE w.d < {max_hops}
        ),
        best AS (
          SELECT root, node, min(d) AS d FROM walk
          WHERE node <> root GROUP BY 1, 2),
        tot AS (
          SELECT root, count(*) AS c, sum(d) AS s FROM best GROUP BY 1)
        SELECT n.node,
               CASE WHEN t.s IS NULL OR t.s = 0 THEN 0.0
                    ELSE round(CAST(t.c AS DOUBLE) / t.s, 6)
               END AS closeness
        FROM nodes n LEFT JOIN tot t ON t.root = n.node
    """


def revenue_cube(sf_dir: str):
    """GROUP BY CUBE(priority, returnflag) — all four grouping sets.
    Only the finest (priority, flag) level touches the fact table
    (distributed, exact integer cents); the three coarser levels roll
    up from that tiny materialized level, so the cube costs one pass
    + driver arithmetic over ~15 rows (grouping-sets-from-partials)."""
    import pandas as pd

    from kgeng.ops.join import hash_join

    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_returnflag", "l_extendedprice",
              "l_discount"])
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    joined = hash_join(
        li.map_batches(
            lambda t: pa.table({
                "l_orderkey": t["l_orderkey"],
                "flag": t["l_returnflag"],
                "rev_c": _cents(pc.multiply(
                    t["l_extendedprice"],
                    pc.subtract(pa.scalar(1.0), t["l_discount"])))}),
            batch_format="pyarrow"),
        orders.map_batches(
            lambda t: pa.table({"l_orderkey": t["o_orderkey"],
                                "prio": t["o_orderpriority"]}),
            batch_format="pyarrow"),
        key="l_orderkey", how="inner")

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"prio": t["prio"], "flag": t["flag"],
                      "rev_c": pc.cast(t["rev_c"], pa.int64())}) \
            .group_by(["prio", "flag"]).aggregate([("rev_c", "sum"),
                                                   ([], "count_all")])
        return g.rename_columns(["prio", "flag", "rev_p", "n_p"])

    # priorities x flags (~15 groups): driver-final combine
    finest = agg_ops.small_key_aggregate(
        joined.map_batches(partial, batch_format="pyarrow"),
        ["prio", "flag"],
        [("rev_p", "sum", "rev_c"),
         ("n_p", "sum", "n_items")]).to_pandas()
    finest = finest[["prio", "flag", "rev_c", "n_items"]]

    if len(finest) == 0:
        # SQL CUBE on empty input still emits the () grouping set:
        # one ALL/ALL row with count 0 and a NULL sum
        out = pa.table({
            "prio": pa.array(["ALL"], pa.string()),
            "flag": pa.array(["ALL"], pa.string()),
            "sum_revenue": pa.array([None], pa.float64()),
            "n_items": pa.array([0], pa.int64())})
        return ray.data.from_arrow(out)

    levels = [finest]
    for keep in (["prio"], ["flag"], []):
        g = (finest.groupby(keep, as_index=False)[["rev_c", "n_items"]]
             .sum() if keep else
             pd.DataFrame([finest[["rev_c", "n_items"]].sum()]))
        for c in ("prio", "flag"):
            if c not in keep:
                g[c] = "ALL"
        levels.append(g[["prio", "flag", "rev_c", "n_items"]])
    cube = pd.concat(levels, ignore_index=True)
    out = pa.table({
        "prio": pa.array(cube["prio"], pa.string()),
        "flag": pa.array(cube["flag"], pa.string()),
        "sum_revenue": pa.array(cube["rev_c"].astype("int64") / 100.0),
        "n_items": pa.array(cube["n_items"].astype("int64"))})
    return ray.data.from_arrow(out)


def qty_price_corr_by_flag(sf_dir: str):
    """Pearson corr(quantity, whole-dollar price) per returnflag —
    grouped correlation from exact integer moments
    (ops/agg.py:grouped_corr): inputs round to an integer grid, the six
    moment sums are exact int64, and the final float expression is
    stated identically in the SQL oracle, so the result is bit-exact
    regardless of partial-sum order."""
    from kgeng.ops.agg import grouped_corr

    li = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_quantity", "l_extendedprice"])
    prep = li.map_batches(
        lambda t: pa.table({
            "l_returnflag": t["l_returnflag"],
            "x": pc.cast(pc.round(t["l_quantity"], ndigits=0,
                                  round_mode="half_towards_infinity"),
                         pa.int64()),
            "y": pc.cast(pc.round(t["l_extendedprice"], ndigits=0,
                                  round_mode="half_towards_infinity"),
                         pa.int64())}),
        batch_format="pyarrow")
    return grouped_corr(prep, "l_returnflag", "x", "y",
                        small_keys=True)


def custs_both_big_and_urgent(sf_dir: str):
    """INTERSECT of two distinct key sets (customers with a >400k order
    AND with an urgent order) — completes the §2.6 set-op family
    (EXCEPT = parts_never_bulk_ordered) as a semi hash-join of two
    pre-deduplicated sides."""
    from kgeng.ops.join import hash_join
    from kgeng.pipeline import distinct

    orders = _pq(sf_dir, "orders",
                 ["o_custkey", "o_totalprice", "o_orderpriority"])
    big = distinct(orders.filter(expr="o_totalprice > 400000"),
                   ["o_custkey"])
    urg = distinct(orders.filter(expr="o_orderpriority == '1-URGENT'"),
                   ["o_custkey"])
    return hash_join(big, urg, key="o_custkey", how="semi",
                     left_cols=["o_custkey"], right_cols=["o_custkey"])


def doc_pair_jw(sf_dir: str):
    """Jaro-Winkler similarity for every doc pair among the 20 smallest
    doc_ids — the fuzzy-string member of the dedup/similarity family.
    The kernel (ops/dedup.py:jaro_winkler_batch) reproduces DuckDB's
    RapidFuzz-derived definition bit-exactly (UTF-8 bytes, floor-halved
    transpositions, 0.0 on empty), vectorized across pairs."""
    import itertools

    import pyarrow.parquet as pq

    from kgeng.ops.dedup import _byte_matrix, jaro_winkler_batch

    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])
    rows = sorted(zip(tbl["doc_id"].to_pylist(),
                      tbl["text"].to_pylist()))[:20]

    def pairs_batch(t: pa.Table) -> pa.Table:
        mat_a, la = _byte_matrix(t["a_txt"].to_pylist())
        mat_b, lb = _byte_matrix(t["b_txt"].to_pylist())
        sim = jaro_winkler_batch(mat_a, mat_b, la, lb)
        jw = pc.round(pa.array(sim, pa.float64()), ndigits=6,
                      round_mode="half_towards_infinity")
        return pa.table({"a": t["a_id"], "b": t["b_id"], "jw": jw})

    pair_rows = [(x[0], x[1], y[0], y[1])
                 for x, y in itertools.combinations(rows, 2)]
    src = pa.table({"a_id": [p[0] for p in pair_rows],
                    "a_txt": [p[1] for p in pair_rows],
                    "b_id": [p[2] for p in pair_rows],
                    "b_txt": [p[3] for p in pair_rows]})
    return ray.data.from_arrow(src).map_batches(
        pairs_batch, batch_format="pyarrow", batch_size=64)


def parts_snm_pairs(sf_dir: str):
    """Sorted-neighborhood blocking (Hernandez & Stolfo 1995) over part
    names: one sort by (p_name, p_partkey), each record paired with its
    4 successors, candidates verified by the bit-exact Jaro-Winkler
    kernel and kept at sim >= 0.9 — the order-based ER blocking member
    the hash/LSH/banding family can't express. Oracle states the same
    window as row_number + a rank-band self-join."""
    from kgeng.ops.dedup import (_byte_matrix, jaro_winkler_batch,
                                 sorted_neighborhood_pairs)

    part = _pq(sf_dir, "part", ["p_partkey", "p_name"])
    cand = sorted_neighborhood_pairs(
        part, by=["p_name", "p_partkey"], window=5,
        carry=["p_partkey", "p_name"])

    def score(t: pa.Table) -> pa.Table:
        mat_a, la = _byte_matrix(t["a_p_name"].to_pylist())
        mat_b, lb = _byte_matrix(t["b_p_name"].to_pylist())
        sim = jaro_winkler_batch(mat_a, mat_b, la, lb)
        out = pa.table({
            "p_a": t["a_p_partkey"],
            "p_b": t["b_p_partkey"],
            "sim": pc.round(pa.array(sim, pa.float64()), ndigits=6,
                            round_mode="half_towards_infinity")})
        # threshold on the UNROUNDED similarity, like the SQL WHERE
        return out.filter(pa.array(sim >= 0.9))

    return cand.map_batches(score, batch_format="pyarrow")


def price_stats_by_priority(sf_dir: str):
    """count / mean / sample stddev of whole-dollar order price per
    priority — exact-moments grouped statistics
    (ops/agg.py:grouped_stats), bit-exact vs the SQL oracle because
    both engines evaluate the same IEEE tree over the same exact
    integer sums."""
    from kgeng.ops.agg import grouped_stats

    orders = _pq(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    prep = orders.map_batches(
        lambda t: pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "x": pc.cast(pc.round(t["o_totalprice"], ndigits=0,
                                  round_mode="half_towards_infinity"),
                         pa.int64())}),
        batch_format="pyarrow")
    return grouped_stats(prep, "o_orderpriority", "x",
                         small_keys=True)


def docs_hashed_features(sf_dir: str):
    """Hashing-trick sparse feature vectors (ops/text.hashed_features):
    dim = token_hash % 512 per whitespace token, (doc_id, dim, cnt)
    long form — the vocabulary-free featurization before linear-model
    training. The DuckDB oracle replays the identical charwise
    polynomial hash (the shared _sql_tokhash fold) in HUGEINT
    arithmetic, so the table hash-matches exactly."""
    from kgeng.ops.text import hashed_features

    return hashed_features(_pq(sf_dir, "documents", ["doc_id", "text"]),
                           k=512)


def hashed_features_oracle_sql(k: int = 512) -> str:
    return f"""
        WITH toks AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(text, '\\S+')) AS tok
          FROM documents)
        SELECT doc_id,
               CAST({_sql_tokhash('tok')} % {k} AS BIGINT) AS dim,
               count(*) AS cnt
        FROM toks GROUP BY 1, 2
    """


def orders_price_zscore(sf_dir: str):
    """Grouped z-score standardization — the feature-engineering
    normalize step: z = (x - mean)/sd of the whole-dollar price within
    each order's priority. Means/stddevs come from grouped_stats'
    exact integer moments (5 rows, driver-pulled and broadcast in the
    closure); the scoring pass is one stateless vectorized map —
    nothing corpus-scale shuffles. Bit-exact vs SQL: both sides state
    round((x - mean6) / sd6, 6) over the SAME rounded stats the
    price_stats_by_priority oracle already hash-matches."""
    stats = price_stats_by_priority(sf_dir).take_all()
    prios = sorted(r["o_orderpriority"] for r in stats)
    mean_arr = np.array([next(r["mean_x"] for r in stats
                              if r["o_orderpriority"] == p)
                         for p in prios], np.float64)
    sd_arr = np.array([next(r["stddev_x"] for r in stats
                            if r["o_orderpriority"] == p)
                       for p in prios], np.float64)
    pr_set = pa.array(prios, pa.string())
    orders = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def z(t: pa.Table) -> pa.Table:
        x = pc.cast(pc.round(t["o_totalprice"], ndigits=0,
                             round_mode="half_towards_infinity"),
                    pa.int64()).to_numpy(zero_copy_only=False)
        idx = pc.index_in(t["o_orderpriority"], value_set=pr_set) \
            .to_numpy(zero_copy_only=False)
        zv = (x.astype(np.float64) - mean_arr[idx]) / sd_arr[idx]
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "z": pc.round(pa.array(zv, pa.float64()), ndigits=6,
                          round_mode="half_towards_infinity")})

    return orders.map_batches(z, batch_format="pyarrow")


def _co_purchase_edges(sf_dir: str):
    """Part co-purchase pairs (two parts linked when some order
    contains both): distinct (order, part) per batch, one coarse-bucket
    shuffle, per-order vectorized pair generation (_segment_pairs).
    Pair fan-out is bounded by order size (C(n_items, 2)). Cached and
    materialized per sf_dir — shared by the triangle and k-core
    queries."""
    from kgeng.ops.graph import _segment_pairs

    ck = ("co_purchase", sf_dir)
    if ck in _EDGE_CACHE:
        return _EDGE_CACHE[ck]
    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def op_bucket(t: pa.Table) -> pa.Table:
        o = t["l_orderkey"].to_numpy(zero_copy_only=False)
        p = t["l_partkey"].to_numpy(zero_copy_only=False)
        # per-batch (order, part) dedup before the shuffle
        order = np.lexsort((p, o))
        o, p = o[order], p[order]
        keep = np.ones(o.size, bool)
        keep[1:] = (o[1:] != o[:-1]) | (p[1:] != p[:-1])
        o, p = o[keep], p[keep]
        bkt = ((o.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
               >> np.uint64(33)) % np.uint64(64)
        return pa.table({"o": pa.array(o), "p": pa.array(p),
                         "ob": pa.array(bkt.astype(np.int32))})

    def pairs_group(df) -> pa.Table:
        o = df["o"].to_numpy(np.int64)
        p = df["p"].to_numpy(np.int64)
        order = np.lexsort((p, o))
        o, p = o[order], p[order]
        keep = np.ones(o.size, bool)  # cross-batch dedup inside bucket
        keep[1:] = (o[1:] != o[:-1]) | (p[1:] != p[:-1])
        o, p = o[keep], p[keep]
        segs = np.flatnonzero(np.r_[True, o[1:] != o[:-1]])
        lens = np.diff(np.r_[segs, o.size])
        fi, se = _segment_pairs(lens)
        return pa.table({"src": pa.array(p[fi]), "dst": pa.array(p[se])})

    co = li.map_batches(op_bucket, batch_format="pyarrow") \
        .groupby("ob").map_groups(pairs_group, batch_format="pandas") \
        .materialize()
    _EDGE_CACHE[ck] = co
    return co


def parts_triangle_counts(sf_dir: str):
    """Exact per-node triangle counts over the part co-purchase graph.
    The engine runs the degree-ordered node-iterator kernel
    (ops/graph.triangle_counts): canonical dedup, degree orientation
    (broadcast searchsorted under the node cutover, hash-join plan B
    above it), vectorized wedge generation bounded by O(sqrt(m))
    oriented out-degree, one bucket-shuffle closure merge. All-integer,
    so the three-way self-join oracle hash-matches exactly."""
    from kgeng.ops.graph import triangle_counts

    return triangle_counts(_co_purchase_edges(sf_dir), "src", "dst")


def parts_edge_support(sf_dir: str):
    """Per-EDGE triangle support over the part co-purchase graph
    (ops/graph.edge_triangle_support) — the k-truss peeling kernel:
    an edge is in the k-truss iff support >= k-2. Same degree-ordered
    wedge stream as parts_triangle_counts, each closed wedge crediting
    its three canonical edges; integer-exact, so the three-way
    self-join oracle hash-matches."""
    from kgeng.ops.graph import edge_triangle_support

    return edge_triangle_support(_co_purchase_edges(sf_dir),
                                 "src", "dst")


def parts_k_core(sf_dir: str):
    """60-core of the part co-purchase graph (ops/graph.k_core; the
    graph is dense — min degree ~42-49 at sf scale — so k=60 genuinely
    peels):
    distributed iterative peeling — per-round degree groupby + doomed-
    set edge filter (broadcast under the cutover, anti-join plan B
    above it). Coreness is algorithm-canonical, so the DuckDB oracle
    (kcore_oracle_sql) peels independently to the same fixpoint; the
    pytest peeling reference and both-plans parity stay as defense."""
    from kgeng.ops.graph import k_core

    return k_core(_co_purchase_edges(sf_dir), k=60)


def corpus_top_terms_approx(sf_dir: str):
    """Approximate global top-20 terms via mergeable Misra-Gries
    summaries (ops/agg.misra_gries_topk) — the scale path for
    corpus_top_terms when block vocabularies stop fitting in memory:
    each block ships at most ``capacity`` (term, est) rows regardless
    of vocabulary size, and the output carries the run's measured
    deterministic error bound (est in [true - err_bound, true]).
    Tokenization stays fused with the sketch partial, so the token
    stream never enters the object store."""
    from kgeng.ops.agg import misra_gries_topk

    docs = _pq(sf_dir, "documents", ["text"])

    def tok(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(
            pc.split_pattern_regex(t["text"], pattern=r"\s+"))
        flat = flat.combine_chunks()
        return pa.table({"term": flat.filter(pc.not_equal(flat, ""))})

    terms = docs.map_batches(tok, batch_format="pyarrow")
    return misra_gries_topk(terms, "term", k=20, capacity=1024)


def corpus_top_terms_rescan(sf_dir: str):
    """EXACT top-20 terms via the two-pass sketch-then-rescan shape
    (ops/agg.heavy_hitters_rescan): Misra-Gries candidate sweep, then
    one exact count pass over just the broadcast candidate terms —
    the heavy-hitters pattern that stays cheap when block vocabularies
    exceed memory, with a run-time certificate that the result equals
    the one-pass exact top-k (raises if the sketch was too coarse).
    Oracle: the same exact SQL top-k as corpus_top_terms."""
    from kgeng.ops.agg import heavy_hitters_rescan

    docs = _pq(sf_dir, "documents", ["text"])

    def tok(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(
            pc.split_pattern_regex(t["text"], pattern=r"\s+"))
        flat = flat.combine_chunks()
        return pa.table({"term": flat.filter(pc.not_equal(flat, ""))})

    terms = docs.map_batches(tok, batch_format="pyarrow")
    return heavy_hitters_rescan(terms, "term", k=20, capacity=1024)


def events_profile(sf_dir: str):
    """Per-column data-validation profile of the events table (null
    counts, exact distinct counts, typed min/max) via
    ops/agg.profile_table — partials are one row per column per block;
    distinct counts are column-pruned dedup shuffles. Timestamps
    profile as epoch microseconds (exact), so the UNION-ALL oracle
    hash-matches."""
    from kgeng.ops.agg import profile_table

    return profile_table(_pq(sf_dir, "events"))


def docs_split_assign(sf_dir: str):
    """Deterministic 0.75/0.125/0.125 train/val/test assignment per
    document (ops/sample.split_assign): content-keyed Knuth hash
    thresholds, no shuffle — re-sharding or resizing the cluster never
    moves a doc across splits. Rates are chosen exactly representable
    so the SQL CASE oracle hash-matches."""
    from kgeng.ops.sample import split_assign

    ds = _pq(sf_dir, "documents", ["doc_id", "lang"])
    return split_assign(ds, "doc_id",
                        {"train": 0.75, "val": 0.125, "test": 0.125})


def embedding_centroid_by_label(sf_dir: str):
    """Per-label centroid of the embeddings table in long (label, dim,
    centroid) form — ops/similarity.grouped_centroid. Components
    quantize to int64 at 1e6 before summing (order-invariant), and both
    engines evaluate the identical divide tree, so the zipped-unnest
    SQL oracle hash-matches bit-for-bit."""
    from kgeng.ops.similarity import grouped_centroid

    ds = _pq(sf_dir, "embeddings", ["label", "embedding"])
    return grouped_centroid(ds)


def price_quantiles_disc_by_priority(sf_dir: str):
    """Per-priority discrete quantiles (SQL quantile_disc: the smallest
    data value whose CDF reaches q) of order total price — exactness is
    free because the answer is an actual data point, no interpolation
    or rounding on either side."""
    from kgeng.ops.rank import grouped_quantiles

    orders = _pq(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    return grouped_quantiles(orders, "o_orderpriority", "o_totalprice",
                             [0.25, 0.5, 0.9], method="disc")


def docs_lm_scores(sf_dir: str):
    """CCNet-style unigram LM quality scores: the LM trains on the
    corpus itself (term_stats pass), each doc scores as its average
    add-one-smoothed token log-prob (ops/text.lm_doc_scores). Log-probs
    quantize to int64 at 1e9, so partial sums are order-invariant and
    the pure-SQL oracle (same ln, same quantization, same divide tree)
    hash-matches."""
    from kgeng.ops.text import lm_doc_scores

    return lm_doc_scores(_pq(sf_dir, "documents", ["doc_id", "text"]))


def events_value_locf(sf_dir: str):
    """Per-user forward-fill imputation (ops/window.partitioned_locf):
    values of 'purchase' events are masked to NULL deterministically,
    then each null carries the user's most recent surviving value
    forward in (ts, event_id) order — matching last_value(... IGNORE
    NULLS) OVER in the oracle. Leading nulls stay null."""
    from kgeng.ops.window import partitioned_locf

    ev = _pq(sf_dir, "events", ["event_id", "ts", "user_id",
                                "event_type", "value"])

    def mask(t: pa.Table) -> pa.Table:
        # fill_null(True): CASE WHEN et = 'purchase' evaluates a NULL
        # event_type as not-true and KEEPS the value — a bare
        # not_equal would propagate the null and mask it
        keep = pc.fill_null(pc.not_equal(t["event_type"], "purchase"),
                            True)
        return pa.table({
            "event_id": t["event_id"], "ts": t["ts"],
            "user_id": t["user_id"],
            "value": pc.if_else(keep, t["value"],
                                pa.scalar(None, pa.float64()))})

    return partitioned_locf(ev.map_batches(mask, batch_format="pyarrow"),
                            key="user_id", ts="ts", value="value",
                            order_tiebreak="event_id", out="value_filled")


def user_event_entropy(sf_dir: str):
    """Per-user Shannon entropy of the event-type distribution
    (ops/agg.grouped_entropy): integer counts, quantized c*ln(c) terms
    (order-invariant), identical float tree in SQL — hash-matches the
    oracle."""
    from kgeng.ops.agg import grouped_entropy

    ev = _pq(sf_dir, "events", ["user_id", "event_type"])
    return grouped_entropy(ev, "user_id", "event_type")


def corpus_pmi_collocations(sf_dir: str):
    """Top-50 collocations by PMI over adjacent token pairs
    (ops/text.pmi_collocations): bigram/unigram counts from the
    vocabulary-bounded partials, one broadcast, one tiny sort+limit.
    The ln/divide tree is stated identically in SQL — hash-match."""
    from kgeng.ops.text import pmi_collocations

    return pmi_collocations(_pq(sf_dir, "documents", ["doc_id", "text"]),
                            min_count=20, k=50)


def events_ohlc_hourly(sf_dir: str):
    """Hourly open/high/low/close bars of event value per user
    (ops/window.ohlc_bars): first/last in (ts, event_id) order,
    exact min/max — the resampling step for time-series feature
    extraction. Values are raw data points (no summation), so the
    window-function oracle hash-matches exactly."""
    from kgeng.ops.window import ohlc_bars

    ev = _pq(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    return ohlc_bars(ev, key="user_id", ts="ts", value="value",
                     width_seconds=3600, tiebreak="event_id")


def orders_price_winsorized(sf_dir: str):
    """Winsorization (percentile clipping) of order prices: values clamp
    to the exact global [P01, P99] — the outlier-robustness transform
    before scaling/featurization. Same small-aggregate-then-broadcast
    plan as docs_above_median_quality: two tiny quantile rows, then a
    stateless vectorized clamp; thresholds round to 6 on BOTH sides so
    the clamp compares identical numbers."""
    from kgeng.ops.rank import grouped_quantiles

    orders = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_totalprice"]).materialize()

    def const_group(t: pa.Table) -> pa.Table:
        return t.append_column("g", pa.array(np.zeros(len(t), np.int8)))

    qt = grouped_quantiles(orders.map_batches(
        const_group, batch_format="pyarrow"), "g", "o_totalprice",
        [0.01, 0.99], round_to=6).take_all()
    lo = float(min(r["quantile_value"] for r in qt))
    hi = float(max(r["quantile_value"] for r in qt))

    def clamp(t: pa.Table) -> pa.Table:
        v = pc.min_element_wise(
            pc.max_element_wise(t["o_totalprice"], pa.scalar(lo)),
            pa.scalar(hi))
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "price_w": v})

    return orders.map_batches(clamp, batch_format="pyarrow")


def embeddings_q8(sf_dir: str):
    """L2-normalized int8 quantization of the embeddings table in long
    (vec_id, dim, q8) form (ops/similarity.normalize_quantize_q8):
    integer squared norms, IEEE sqrt, identical divide tree in SQL —
    hash-exact, no shuffle."""
    from kgeng.ops.similarity import normalize_quantize_q8

    return normalize_quantize_q8(
        _pq(sf_dir, "embeddings", ["vec_id", "embedding"]))


def events_running_total(sf_dir: str):
    """Running total of event value (cents-quantized int64) per user in
    (ts, event_id) order — ops/window.partitioned_cumsum; integer
    cumulative sums are order-exact so the window oracle hash-matches."""
    from kgeng.ops.window import partitioned_cumsum

    ev = _pq(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t["event_id"], "ts": t["ts"],
                         "user_id": t["user_id"],
                         "v_cents": _cents(t["value"])})

    return partitioned_cumsum(ev.map_batches(prep,
                                             batch_format="pyarrow"),
                              key="user_id", ts="ts", value="v_cents",
                              tiebreak="event_id", out="running_cents")


def orders_price_rank_dense(sf_dir: str):
    """DENSE_RANK of order price within each priority
    (ops/rank.grouped_dense_rank): coarse buckets + one C-level pandas
    dense rank per bucket — hash-matches the window oracle."""
    from kgeng.ops.rank import grouped_dense_rank

    orders = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_orderpriority", "o_totalprice"])
    return grouped_dense_rank(orders, "o_orderpriority", "o_totalprice",
                              out="rnk", descending=True)


def orders_price_pct_rank(sf_dir: str):
    """PERCENT_RANK of order price within each priority
    (ops/rank.grouped_percent_rank) — exact-integer rank and count
    enter one identical IEEE divide on both sides, so the window
    oracle hash-matches with no rounding."""
    from kgeng.ops.rank import grouped_percent_rank

    orders = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_orderpriority", "o_totalprice"])
    return grouped_percent_rank(orders, "o_orderpriority",
                                "o_totalprice")


def docs_fuzzy_decontamination(sf_dir: str):
    """FUZZY benchmark decontamination (ops/dedup.minhash_decontaminate):
    a synthetic 'benchmark' of every 50th doc, PERTURBED (tokens
    appended) so the exact 8-gram check alone would under-flag — band
    collisions against the broadcast bench table, exact shingle-Jaccard
    verify, no shuffle. The DuckDB oracle (fuzzy_decon_oracle_sql)
    recomputes the whole minhash chain bit-for-bit; pinned + crafted
    recall test stay as local defense."""
    from kgeng.ops.dedup import minhash_decontaminate

    docs = _pq(sf_dir, "documents", ["doc_id", "text"]).materialize()

    def bench_rows(t: pa.Table) -> pa.Table:
        # every 50th doc, with a deterministic tail appended
        sel = pc.equal(
            pc.subtract(t["doc_id"],
                        pc.multiply(pc.divide(t["doc_id"], 50), 50)),
            pa.scalar(0, pa.int64()))
        t = t.filter(sel)
        tail = pa.scalar(" appended benchmark marker tokens")
        return pa.table({
            "text": pc.binary_join_element_wise(
                t["text"], tail, "")})

    bench = docs.map_batches(bench_rows, batch_format="pyarrow")
    return minhash_decontaminate(docs, bench, threshold=0.5)


def embedding_kmeans(sf_dir: str):
    """Deterministic distributed Lloyd's k-means over the embeddings
    table (ops/similarity.kmeans_assign): k=8, up to 10 iterations,
    quantized order-invariant partial sums, lowest-id seeding.
    Iterative — no SQL oracle; pinned by the single-threaded reference
    parity test and a snapshot."""
    from kgeng.ops.similarity import kmeans_assign

    return kmeans_assign(_pq(sf_dir, "embeddings",
                             ["vec_id", "embedding"]), k=8, iters=10)


def embedding_semantic_dup_pairs(sf_dir: str):
    """SemDeDup-style near-dup pairs over embeddings
    (ops/similarity.semantic_dup_pairs): k-means blocking + exact
    within-cluster cosine at the same 0.4 threshold the exact
    embedding_near_dup_pairs oracle query uses (the synthetic
    embeddings are random — only weak similarities exist). Rows-only
    (blocking recall is data-dependent); the pytest compares against
    the exact all-pairs result and asserts precision 1.0."""
    from kgeng.ops.similarity import semantic_dup_pairs

    return semantic_dup_pairs(
        _pq(sf_dir, "embeddings", ["vec_id", "embedding"]),
        k=16, iters=5, threshold=0.4)


def docs_cap_per_source(sf_dir: str):
    """Per-domain document caps — the web-pipeline move that stops one
    crawl domain from dominating the corpus: keep the 10 lowest-doc_id
    documents per source via the bucketed distributed row_number
    (ops/rank.top_k_per_group — coarse-bucket shuffle + one C-level
    pandas pass per bucket, never a per-key group). Output
    (doc_id, source, rank)."""
    from kgeng.ops.rank import top_k_per_group

    docs = _pq(sf_dir, "documents", ["doc_id", "source"])
    out = top_k_per_group(docs, key="source", value="doc_id", k=10,
                          descending=False)
    return out.map_batches(
        lambda t: t.select(["doc_id", "source", "rank"]),
        batch_format="pyarrow")


def events_dedup_keyed(sf_dir: str):
    """Windowed keyed dedup — the stream-dedup shape (client retries /
    at-least-once replays collapse to the EARLIEST event per
    (user, type, hour)): synthesize the composite window key
    vectorized, then the same bucketed top-k machinery at k=1 with a
    deterministic (ts, event_id) tiebreak. Output
    (event_id, user_id, event_type, window).

    The key is ``user \\x1f window \\x1f =event_type`` and cannot collide:
    the two integer parts hold no separator, so the first two separators
    split it back into its parts whatever the free-form type holds. A
    null part renders as "" (never a non-null value: integers are
    non-empty, types carry the "=" mark), so nulls form their own
    groups as in SQL's PARTITION BY instead of nulling the whole key."""
    from kgeng.ops.rank import top_k_per_group

    ev = _pq(sf_dir, "events",
             ["event_id", "ts", "user_id", "event_type"])

    def keyed(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())  # epoch microseconds
        win = pc.divide(us, 3600000000)  # ts >= 0: trunc == floor
        etype = pc.binary_join_element_wise(
            pa.scalar("="), t["event_type"], "")
        k = pc.binary_join_element_wise(
            *(pc.fill_null(c, "") for c in (
                pc.cast(t["user_id"], pa.string()),
                pc.cast(win, pa.string()), etype)), "\x1f")
        return t.append_column("window", pc.cast(win, pa.int64())) \
                .append_column("__k", k)

    out = top_k_per_group(ev.map_batches(keyed, batch_format="pyarrow"),
                          key="__k", value="ts", k=1,
                          descending=False, tie_breakers=["event_id"])
    return out.map_batches(
        lambda t: t.select(["event_id", "user_id", "event_type",
                            "window"]),
        batch_format="pyarrow")


def embedding_kmeans_q8(sf_dir: str):
    """Integer-exact Lloyd's k-means over q8-quantized embeddings
    (ops/similarity.kmeans_q8_assign): k=8, 3 fixed rounds, lowest-id
    seeding, round-half-away integer centroid updates. Unlike the
    float embedding_kmeans (whose IEEE summation order is not
    SQL-replayable), every quantity here is int64, so the DuckDB
    oracle unrolls the three rounds and hash-matches exactly — the
    codebook-training path a PQ/IVF index actually uses over
    quantized vectors."""
    from kgeng.ops.similarity import kmeans_q8_assign

    return kmeans_q8_assign(_pq(sf_dir, "embeddings",
                                ["vec_id", "embedding"]),
                            k=8, iters=3)


def embedding_semantic_dup_pairs_q8(sf_dir: str):
    """SemDeDup on the q8 integer grid
    (ops/similarity.semantic_dup_pairs_q8): integer k-means blocking
    + integer-exact within-cluster cosine test (cos >= 0.4 stated as
    25*dot^2 >= 4*|a|^2*|b|^2, dot > 0). The whole chain — clustering
    included — hash-matches its DuckDB replay, closing the
    'semantic dedup has no oracle' gap on the quantized path."""
    from kgeng.ops.similarity import semantic_dup_pairs_q8

    return semantic_dup_pairs_q8(_pq(sf_dir, "embeddings",
                                     ["vec_id", "embedding"]),
                                 k=8, iters=3)


def docs_duplicated_spans(sf_dir: str):
    """Substring-level duplication per document
    (ops/dedup.duplicated_spans): 16-token rolling windows whose hash
    occurs >= 2 times corpus-wide are duplicated spans; output is the
    per-doc span counts + fraction — the filter column for span-level
    dedup policies. DuckDB oracle reconstructs the counts over span
    STRINGS (identical up to 63-bit hash collisions); crafted
    injected-paragraph test + pin stay as local defense."""
    from kgeng.ops.dedup import duplicated_spans

    return duplicated_spans(
        _pq(sf_dir, "documents", ["doc_id", "text"]),
        span_tokens=16, min_dup_count=2)


def parts_frequent_pairs(sf_dir: str):
    """Pairwise frequent-itemset mining (market-basket support counts):
    part pairs co-occurring in >= 2 orders. Reuses the cached
    co-purchase pair stream (each order contributes a pair at most
    once), so support is one groupby count — all-integer, the self-join
    oracle hash-matches."""
    from ray.data.aggregate import Count

    co = _co_purchase_edges(sf_dir)
    sup = co.groupby(["src", "dst"]).aggregate(
        Count(alias_name="support"))

    def fin(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["support"], 2))
        return pa.table({"part_a": t["src"], "part_b": t["dst"],
                         "support": pc.cast(t["support"], pa.int64())})

    return sup.map_batches(fin, batch_format="pyarrow")


def events_props_k_counts(sf_dir: str):
    """Semi-structured extraction: pull the scalar field 'k' out of the
    JSON props column with ONE vectorized RE2 pass
    (ops/text.extract_json_field — no per-row json.loads), then count
    events per value. The oracle extracts with DuckDB's JSON functions;
    both sides see identical scalars."""
    from kgeng.ops.text import extract_json_field

    ev = _pq(sf_dir, "events", ["props"])
    ex = extract_json_field(ev, "props", "k")

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.cast(t["k"], pa.int64())})

    from ray.data.aggregate import Count

    return ex.map_batches(prep, batch_format="pyarrow") \
        .groupby("k").aggregate(Count(alias_name="n"))


def docs_nfc_normalized(sf_dir: str):
    """Unicode NFC canonicalization (ops/text.nfc_normalize): each doc
    gets a deterministic DECOMPOSED tail (e + combining acute, doc_id
    mod 3 copies) appended on both sides, so the kernel genuinely
    recomposes; Arrow utf8_normalize and DuckDB nfc_normalize are
    byte-identical."""
    from kgeng.ops.text import nfc_normalize

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def add_tail(t: pa.Table) -> pa.Table:
        reps = pa.array(
            t["doc_id"].to_numpy(zero_copy_only=False) % 3, pa.int64())
        tail = pc.binary_repeat(pa.scalar(" cafe\u0301"), reps)
        return pa.table({"doc_id": t["doc_id"],
                         "text": pc.binary_join_element_wise(
                             t["text"], tail, "")})

    out = nfc_normalize(ds.map_batches(add_tail, batch_format="pyarrow"))
    return out.map_batches(
        lambda t: t.select(["doc_id", "nfc_text"]),
        batch_format="pyarrow")


def events_sliding_window(sf_dir: str):
    """Sliding-window event counts (1h windows hopping every 15min) per
    event type — ops/window.sliding_count; each event lands in 4
    windows via one vectorized integer expansion, partial counts
    shuffle. Exact integers, the generate_series oracle hash-matches."""
    from kgeng.ops.window import sliding_count

    ev = _pq(sf_dir, "events", ["event_type", "ts"])
    return sliding_count(ev, key="event_type", ts="ts",
                         width_seconds=3600, hop_seconds=900)


def docs_curation_pipeline(sf_dir: str):
    """The end-to-end corpus-curation showcase — the full training-data
    prep flow a 100-TB pipeline runs, composed from the engine's own
    operators in one lazy plan per stage:

      1. NFC-normalize text (ops/text.nfc_normalize),
      2. EXACT dedup — keep each distinct text's min-id representative
         (ops/dedup.exact_dedup + semi hash_join),
      3. NEAR dedup — keep only MinHash-LSH cluster representatives
         (ops/dedup.minhash_dedup),
      4. quality gate — drop the bottom quality quartile (exact global
         quantile, one tiny broadcast),
      5. LM gate — drop the bottom LM-score decile
         (ops/text.lm_doc_scores, same pattern),
      6. deterministic train/val/test split (ops/sample.split_assign),
      7. token-budget packing of the train split
         (ops/sample.pack_sequences, 512-token budget).

    Returns (doc_id, split, n_tokens, seq_id — null off-train).
    Deterministic and partition-invariant end to end (every stage is);
    the DuckDB oracle (curation_oracle_sql) composes the per-stage
    oracle fragments and hash-matches — the pin +
    monotonicity/invariants pytest stay as local defense."""
    from kgeng.ops.dedup import exact_dedup, minhash_dedup
    from kgeng.ops.join import hash_join
    from kgeng.ops.rank import grouped_quantiles
    from kgeng.ops.sample import pack_sequences, split_assign
    from kgeng.ops.text import lm_doc_scores, nfc_normalize

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    norm = nfc_normalize(docs).map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "text": t["nfc_text"]}),
        batch_format="pyarrow").materialize()

    # 2. exact representatives
    reps = exact_dedup(norm).select_columns(["doc_id"])
    survivors = hash_join(norm, reps, key="doc_id", how="semi")

    # 3. near-dup cluster representatives
    clusters = minhash_dedup(survivors.materialize(), threshold=0.6)
    keep_near = clusters.filter(
        expr="doc_id == cluster_rep").map_batches(
        # the LSH band stage stringifies ids; restore int64 for the join
        lambda t: pa.table({"doc_id": pc.cast(t["doc_id"], pa.int64())}),
        batch_format="pyarrow")
    survivors = hash_join(survivors, keep_near, key="doc_id",
                          how="semi").materialize()

    # 4. quality gate (global P25)
    scored = text_ops.add_quality_score(survivors) \
        .select_columns(["doc_id", "text", "quality_score"]) \
        .materialize()

    def const_group(t: pa.Table) -> pa.Table:
        return t.append_column("g", pa.array(np.zeros(len(t), np.int8)))

    q25 = float(grouped_quantiles(
        scored.map_batches(const_group, batch_format="pyarrow"),
        "g", "quality_score", [0.25], round_to=9).take_all()
        [0]["quantile_value"])
    scored = scored.filter(expr=f"quality_score >= {q25!r}")

    # 5. LM gate (global P10 of avg log-prob)
    lm = lm_doc_scores(scored).materialize()
    p10 = float(grouped_quantiles(
        lm.map_batches(const_group, batch_format="pyarrow"),
        "g", "avg_logprob", [0.10], round_to=9).take_all()
        [0]["quantile_value"])
    kept = lm.filter(expr=f"avg_logprob >= {p10!r}") \
        .select_columns(["doc_id", "n_tokens"])

    # 6. split + 7. pack the train split
    split = split_assign(kept, "doc_id",
                         {"train": 0.75, "val": 0.125,
                          "test": 0.125}).materialize()
    train = split.filter(expr="split == 'train'")
    packed = pack_sequences(train, count_col="n_tokens",
                            id_col="doc_id", budget=512)

    # join seq ids back (off-train docs keep a null seq_id)
    out = hash_join(split, packed.select_columns(["doc_id", "seq_id"]),
                    key="doc_id", how="left")

    def fin(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "split": t["split"],
            "n_tokens": pc.cast(t["n_tokens"], pa.int64()),
            "seq_id": pc.cast(t["seq_id"], pa.int64())})

    return out.map_batches(fin, batch_format="pyarrow")


def price_mad_by_priority(sf_dir: str):
    """Robust spread of order price per priority: median absolute
    deviation (ops/rank.grouped_mad) — matches DuckDB mad() exactly
    (same interpolated medians, rounded both sides)."""
    from kgeng.ops.rank import grouped_mad

    orders = _pq(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    return grouped_mad(orders, "o_orderpriority", "o_totalprice")


def parts_fuzzy_match(sf_dir: str):
    """Fuzzy LOOKUP join showcase (ops/join.fuzzy_lookup): every 100th
    part name is deterministically misspelled (second character
    dropped), then matched back against the clean catalog by exact
    banded Levenshtein (<= 3) with (dist, name) tiebreak — the
    dirty-dimension repair step. Names are ASCII, so the byte-level
    kernel and DuckDB's levenshtein agree exactly."""
    from kgeng.ops.join import fuzzy_lookup

    part = _pq(sf_dir, "part", ["p_partkey", "p_name"]).materialize()

    def mangle(t: pa.Table) -> pa.Table:
        keep = pc.equal(
            pc.subtract(t["p_partkey"],
                        pc.multiply(pc.divide(t["p_partkey"], 100),
                                    100)),
            pa.scalar(0, pa.int64()))
        t = t.filter(keep)
        n = t["p_name"]
        mangled = pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(n, 0, 1),
            pc.utf8_slice_codeunits(n, 2, 1_000_000), "")
        return pa.table({"p_partkey": t["p_partkey"],
                         "p_name": mangled})

    probes = part.map_batches(mangle, batch_format="pyarrow")
    return fuzzy_lookup(probes, part, col="p_name",
                        probe_id="p_partkey", max_dist=3)


def hll_oracle_sql(table: str = "events", key: str = "event_type",
                   value: str = "user_id", out: str = "n_users_approx",
                   p: int = 12) -> str:
    """DuckDB oracle for the HyperLogLog distinct-count sketch
    (ops/agg.py:hll_count_distinct), replayed register-for-register:
    the sketch is DETERMINISTIC and partition-invariant (splitmix64
    hash, per-register max, closed-form estimate), so SQL can recompute
    it exactly — hash every value with the HUGEINT splitmix64 helper,
    split into (register index, low-bits word), rank = 64-p+1 minus the
    word's bit length (``printf('%%b', w)`` gives the minimal binary
    form), MAX(rank) per (key, register), then the Flajolet estimate
    ``alpha*m^2 / sum(2^-reg)`` with absent registers contributing
    2^0 = 1 each and the linear-counting branch when est <= 2.5m with
    empty registers present (present registers are always >= 1, so
    zeros = m - #present). Every term 2^-reg is an exact power of two
    in float64; the checker's 9-digit rounding absorbs summation-order
    ulps."""
    m = 1 << p
    w_div = 1 << (64 - p)          # hv // w_div = register index
    max_rank = 64 - p + 1
    z0 = (f"(({_sql_b2h(value)}) + "
          f"CAST('11400714819323198485' AS HUGEINT)) % {_SQL_M64}")
    z1, z2, hv = _sql_splitmix64_rounds()
    return f"""
        WITH s0 AS (
          SELECT {key} AS k, {z0} AS z0 FROM {table}
        ), s1 AS (SELECT k, {z1} AS z1 FROM s0
        ), s2 AS (SELECT k, {z2} AS z2 FROM s1
        ), h AS (SELECT k, {hv} AS hv FROM s2
        ), rk AS (
          SELECT k, CAST(hv // {w_div} AS BIGINT) AS idx,
                 CAST(hv % {w_div} AS BIGINT) AS w
          FROM h
        ), ranks AS (
          SELECT k, idx,
                 CASE WHEN w = 0 THEN {max_rank}
                      ELSE {max_rank} - length(printf('%b', w)) END AS r
          FROM rk
        ), regs AS (
          SELECT k, idx, MAX(r) AS reg FROM ranks GROUP BY k, idx
        ), agg AS (
          SELECT k, COUNT(*) AS n_present,
                 SUM(POWER(2.0, -reg)) AS sum_present
          FROM regs GROUP BY k
        ), est AS (
          SELECT k, {m} - n_present AS zeros,
                 (0.7213/(1.0+1.079/{m})) * {m} * {m} /
                   (({m} - n_present) + sum_present) AS raw
          FROM agg
        )
        SELECT k AS {key},
               CAST(ROUND(CASE WHEN raw <= 2.5*{m} AND zeros > 0
                               THEN {m} * LN({m}.0/zeros)
                               ELSE raw END) AS BIGINT) AS {out}
        FROM est
    """


def hist_quantiles_oracle_sql(table: str = "orders",
                              key: str = "o_orderpriority",
                              value: str = "o_totalprice",
                              quantiles: tuple = (0.5, 0.9),
                              num_bins: int = 4096,
                              round_to: int = 6) -> str:
    """DuckDB oracle for the mergeable equi-width histogram quantile
    sketch (ops/rank.py:approx_grouped_quantiles), replayed bin-for-bin:
    width = (max-min)/num_bins recomputed with the identical IEEE ops,
    bin = trunc((v-lo)/width) clipped to [0, num_bins-1] (numpy's
    ``astype(int64)`` truncates — DuckDB ``CAST`` rounds, so ``trunc``
    is explicit), the estimator picks the first bin whose running count
    reaches q*total (numpy ``searchsorted(side='left')`` == first
    ``cum >= target``), and emits lo + (bin+0.5)*width — lo exactly for
    a degenerate all-identical group (width 0)."""
    qlist = ", ".join(repr(q) for q in quantiles)
    return f"""
        WITH stats AS (
          SELECT {key} AS k, MIN({value}) AS lo, MAX({value}) AS hi
          FROM {table} GROUP BY 1
        ), binned AS (
          SELECT s.k,
                 CASE WHEN s.hi > s.lo
                      THEN LEAST(GREATEST(CAST(trunc(
                             (t.{value} - s.lo) /
                             ((s.hi - s.lo)/{num_bins})) AS BIGINT),
                           0), {num_bins - 1})
                      ELSE 0 END AS bin
          FROM {table} t JOIN stats s ON t.{key} = s.k
        ), hist AS (
          SELECT k, bin, COUNT(*) AS cnt FROM binned GROUP BY k, bin
        ), cum AS (
          SELECT k, bin,
                 SUM(cnt) OVER (PARTITION BY k ORDER BY bin) AS cum,
                 SUM(cnt) OVER (PARTITION BY k) AS total
          FROM hist
        ), qs AS (
          SELECT unnest([{qlist}]) AS q
        ), pick AS (
          SELECT c.k, q.q, c.bin,
                 ROW_NUMBER() OVER (PARTITION BY c.k, q.q
                                    ORDER BY c.bin) AS rn
          FROM cum c CROSS JOIN qs q
          WHERE c.cum >= q.q * c.total
        )
        SELECT p.k AS {key}, p.q AS q,
               ROUND(CASE WHEN s.hi > s.lo
                          THEN s.lo + (p.bin + 0.5) * ((s.hi - s.lo)/{num_bins})
                          ELSE s.lo END, {round_to}) AS quantile_value
        FROM pick p JOIN stats s ON p.k = s.k
        WHERE p.rn = 1
    """
