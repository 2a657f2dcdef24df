"""Fast oracle-parity spot checks at sf0.001 (the full sweep lives in
scripts/check_oracles.py; the driver runs its own gate at sf0.01)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].astype(np.float64).round(9)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _to_pandas(res):
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


@pytest.mark.parametrize("name", [
    "q1_lineitem_agg", "doc_token_count", "dedup_exact_docs",
    "synth_clique_edges", "synth_kpartite_edges", "top_orders",
    "compat_edge_list_edges", "events_last_order",
    "events_followers_1h", "events_prev_gap", "docs_sample_by_lang",
    "docs_above_median_quality", "docs_editdist_pairs", "lang_id_pred",
    "lineitem_harmonic", "revenue_cube", "qty_price_corr_by_flag",
    "custs_both_big_and_urgent", "approx_distinct_users_by_type",
    "price_quantiles_by_priority_approx",
    # round-5 additions
    "corpus_top_terms_rescan", "embedding_kmeans_q8",
    "embedding_semantic_dup_pairs_q8", "docs_cap_per_source",
    "events_dedup_keyed", "lineitem_labelprop", "doc_pair_containment",
    "orders_price_zscore", "docs_hashed_features",
    # (kg_* oracles are sf0.01-pinned goldens — swept there, not here)
])
def test_query_matches_oracle(name, con):
    import __ray_entry__ as E

    got = canon(_to_pandas(E.queries()[name](SF)))
    want = canon(con.execute(E.oracle_sql()[name]).fetchdf())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_hll_oracle_matches_in_raw_estimator_branch(tmp_path):
    """The sf tables keep every group in HLL's linear-counting regime
    (<= 2.5m distinct); this pins the RAW Flajolet-estimate branch
    (> 10240 distinct at p=12) against the SQL register replay on a
    crafted table — both branches of the estimator are now
    oracle-covered."""
    import ray

    from kgeng.ops.agg import hll_count_distinct
    from kgeng.queries import hll_oracle_sql

    rng = np.random.default_rng(41)
    df = pd.DataFrame({
        # 'big' -> ~39k distinct (raw branch), 'small' -> 200 (linear)
        "k": ["big"] * 60000 + ["small"] * 3000,
        "v": np.concatenate([
            rng.integers(0, 1 << 40, 60000),
            rng.integers(0, 200, 3000)]).astype(np.int64),
    })
    pq_path = tmp_path / "t.parquet"
    df.to_parquet(pq_path)

    got = canon(hll_count_distinct(
        ray.data.from_pandas(df).repartition(5), "k", "v",
        out="n_approx").to_pandas())
    sql = hll_oracle_sql(table=f"read_parquet('{pq_path}')", key="k",
                         value="v", out="n_approx", p=12)
    want = canon(duckdb.connect().execute(sql).fetchdf())
    # sanity: the big group really exercises the raw branch
    assert int(got.loc[got["k"] == "big", "n_approx"].iloc[0]) > 10240
    assert dict(zip(want["k"], want["n_approx"])) == {"big": 60458,
                                                      "small": 196}
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_events_dedup_keyed_keeps_pipe_and_null_groups_apart(tmp_path):
    """The composite (user, type, hour) key: event types holding the old
    '|' separator stay distinct groups, and a null user or type is its
    own group (SQL's PARTITION BY) rather than a null key whose rows the
    per-bucket groupby would drop. Checked against the unchanged SQL
    oracle over a crafted events table."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    h = 3_600_000_000  # one hour in microseconds
    rows = [  # (event_id, ts_us, user_id, event_type)
        (1, 10, 1, "a|b"), (2, 5, 1, "a|b"),     # one group: keep 2
        (3, 7, 1, "a"), (4, 8, 1, "b"),
        (5, 9, 1, "a|b|"), (6, 3, 1, "|a|b"),
        (7, 4, 12, "a"), (8, 6, 1, "2|a"),
        (9, h + 1, 1, "a|b"),                   # next hour: own group
        (10, 2, None, "a"), (11, 1, None, "a"),  # null user: keep 11
        (12, 2, 1, None), (13, 3, 1, None),      # null type: keep 12
        (14, 5, None, None), (15, 5, 1, ""),
    ]
    pq.write_table(pa.table({  # the sf events schema: ts in us
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    }), tmp_path / "events.parquet")

    got = canon(_to_pandas(E.queries()["events_dedup_keyed"](
        str(tmp_path))))
    c = duckdb.connect()
    c.execute("CREATE VIEW events AS SELECT * FROM "
              f"read_parquet('{tmp_path}/events.parquet')")
    want = canon(c.execute(E.oracle_sql()["events_dedup_keyed"]).fetchdf())
    assert sorted(got["event_id"]) == [2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 14,
                                       15]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
