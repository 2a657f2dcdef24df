"""The one keyed exchange, ``kgeng.ops.join.by_key``: every key's rows
reach one call, null keys form one partition in every op routed
through it (checked against DuckDB), and no routed op's rows depend on
the bucket count ``join._BUCKETS``."""

from __future__ import annotations

import math

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data

from kgeng.config import BlockConfig
from kgeng.io import graph_files
from kgeng.ops import agg, block, dedup, graph, join, rank, sample, window
from tests.graph_plans import graph_plan


def _norm(x):
    """One comparable value: None for every null, floats for numbers
    (an int key column with nulls surfaces as float64)."""
    if x is None or x is pd.NA or x is pd.NaT:
        return None
    if isinstance(x, (float, np.floating)) and math.isnan(x):
        return None
    if isinstance(x, (int, float, np.integer, np.floating)) \
            and not isinstance(x, bool):
        return float(x)
    if isinstance(x, (pd.Timestamp, np.datetime64)):
        return pd.Timestamp(x)
    return x


def _rows(df: pd.DataFrame, cols: list[str] | None = None) -> list:
    """Order-insensitive rows of ``df`` over ``cols``."""
    df = df[cols or sorted(df.columns)]
    return sorted((tuple(_norm(x) for x in r)
                   for r in df.itertuples(index=False)), key=repr)


def _pdf(res) -> pd.DataFrame:
    return res.to_pandas() if isinstance(res, ray.data.Dataset) else res


@pytest.mark.parametrize("key", ["k", ["u", "v"]])
def test_by_key_hands_each_key_to_one_call(monkeypatch, key):
    """A key's rows never split across calls, and ``fn`` never sees the
    bucket column."""
    monkeypatch.setattr(join, "_BUCKETS", 3)
    rng = np.random.default_rng(3)
    n = 600
    t = pa.table({"k": rng.integers(0, 40, n), "u": rng.integers(0, 6, n),
                  "v": rng.integers(0, 6, n), "x": np.arange(n)})
    cols = [key] if isinstance(key, str) else key

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        assert list(g.columns) == ["k", "u", "v", "x"]
        return g.groupby(cols, as_index=False).size()

    got = join.by_key(ray.data.from_arrow(t).repartition(7), key,
                      fn).to_pandas()
    want = t.to_pandas().groupby(cols, as_index=False).size()
    assert _rows(got) == _rows(want)
    assert not got.duplicated(cols).any()


# --------------------------------------------------------- null keys

_MINS = [0, 5, 10, 20, 50, 100, 15, 200, 105, 7, 60, 300]
_KEYS = [None, 1, 2, None, 1, None, 2, 1, None, 3, 1, None]


def _events() -> pa.Table:
    n = len(_MINS)
    return pa.table({
        "eid": pa.array(np.arange(n), pa.int64()),
        "k": pa.array(_KEYS, pa.int64()),
        "ks": pa.array([None if k is None else f"s{k}" for k in _KEYS],
                       pa.string()),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(_MINS, unit="m"),
        "v": pa.array([(7 * i) % 11 for i in range(n)], pa.int64()),
        "tag": pa.array([f"t{i:02d}" for i in range(n)], pa.string()),
    })


_SESSIONS = """
WITH d AS (
  SELECT k, ts, CASE WHEN lag(ts) OVER w IS NULL
                       OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                     THEN 1 ELSE 0 END AS new
  FROM t WINDOW w AS (PARTITION BY k ORDER BY ts)),
s AS (
  SELECT k, ts, sum(new) OVER (PARTITION BY k ORDER BY ts
                               ROWS UNBOUNDED PRECEDING) AS session_id
  FROM d)
SELECT k, session_id, count(*) AS n_events, min(ts) AS session_start,
       max(ts) AS session_end
FROM s GROUP BY k, session_id"""

NULL_KEY_CASES = {
    "grouped_string_agg": (
        lambda ds: agg.grouped_string_agg(ds, "ks", "tag", ["eid"]),
        "SELECT ks, string_agg(tag, ',' ORDER BY eid) AS agg "
        "FROM t GROUP BY ks"),
    "top_k_per_group": (
        lambda ds: rank.top_k_per_group(ds, "k", "v", 2,
                                        tie_breakers=["eid"]),
        "SELECT *, row_number() OVER (PARTITION BY k ORDER BY v DESC, "
        "eid) AS rank FROM t QUALIFY rank <= 2"),
    "stratified_sample": (
        lambda ds: sample.stratified_sample(ds, "ks", 2, "eid"),
        "SELECT *, row_number() OVER (PARTITION BY ks ORDER BY "
        "(eid * 2654435761) % 4294967296, eid) AS rank FROM t "
        "QUALIFY rank <= 2"),
    "sessionize": (
        lambda ds: window.sessionize(ds, key="k", ts="ts",
                                     gap_minutes=30),
        _SESSIONS),
    "partitioned_rolling_sum": (
        lambda ds: window.partitioned_rolling_sum(
            ds, "k", "ts", "v", 3, order_tiebreak="eid"),
        "SELECT *, sum(v) OVER (PARTITION BY k ORDER BY ts, eid ROWS "
        "BETWEEN 2 PRECEDING AND CURRENT ROW) AS roll_sum FROM t"),
}


@pytest.mark.parametrize("case", sorted(NULL_KEY_CASES))
def test_null_keys_form_one_partition(monkeypatch, case):
    """SQL GROUP BY / PARTITION BY semantics: the null-key rows are one
    group, neither dropped nor split."""
    monkeypatch.setattr(join, "_BUCKETS", 3)
    run, sql = NULL_KEY_CASES[case]
    t = _events()
    got = _pdf(run(ray.data.from_arrow(t).repartition(3)))
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(sql).fetch_df()
    cols = list(want.columns)
    assert _rows(got, cols) == _rows(want, cols)


# ------------------------------------------ joins over nullable ints

def _join_sides() -> tuple[pa.Table, pa.Table]:
    """Left: events whose int key and int column ``vn`` hold nulls.
    Right: intervals whose int key ``k`` holds nulls, with one ``lo``
    per key (so the as-of match is unique)."""
    rng = np.random.default_rng(21)
    n = 40
    lo = pd.to_datetime("2024-01-01") + pd.to_timedelta(
        rng.permutation(3 * 24 * 60)[:n], unit="m")
    right = pa.table({
        "rid": np.arange(n, dtype=np.int64),
        "k": pa.array([None if i % 9 == 0 else int(x) for i, x in
                       enumerate(rng.integers(1, 25, n))], pa.int64()),
        "lo": lo, "hi": lo + pd.to_timedelta(
            rng.integers(1, 900, n), unit="m"),
    })
    return _events_big().drop_columns(["s"]), right


_JOIN_CASES = {
    "inner": (lambda l, r: join.hash_join(l, r.drop_columns(["lo", "hi"]),
                                          "k"),
              "SELECT l.*, r.rid FROM l JOIN r ON l.k = r.k"),
    "left": (lambda l, r: join.hash_join(l, r.drop_columns(["lo", "hi"]),
                                         "k", how="left"),
             "SELECT l.*, r.rid FROM l LEFT JOIN r ON l.k = r.k"),
    "outer": (lambda l, r: join.hash_join(l, r.drop_columns(["lo", "hi"]),
                                          "k", how="outer"),
              "SELECT l.* EXCLUDE (k), coalesce(l.k, r.k) AS k, r.rid "
              "FROM l FULL JOIN r ON l.k = r.k"),
    "semi": (lambda l, r: join.hash_join(l, r.drop_columns(["lo", "hi"]),
                                         "k", how="semi"),
             "SELECT * FROM l WHERE EXISTS "
             "(SELECT 1 FROM r WHERE r.k = l.k)"),
    "anti": (lambda l, r: join.hash_join(l, r.drop_columns(["lo", "hi"]),
                                         "k", how="anti"),
             "SELECT * FROM l WHERE NOT EXISTS "
             "(SELECT 1 FROM r WHERE r.k = l.k)"),
    "asof": (lambda l, r: join.asof_join(
        l, r.drop_columns(["hi"]).map_batches(
            lambda t: t.rename_columns(["rid", "rk", "lo"]),
            batch_format="pyarrow"), "k", "rk", "ts", "lo", tiebreak="rid"),
        "SELECT l.*, r.rid, r.k AS rk, r.lo FROM l ASOF LEFT JOIN r "
        "ON l.k = r.k AND l.ts >= r.lo"),
    "range": (lambda l, r: join.range_join(
        l, r.map_batches(
            lambda t: t.rename_columns(["rid", "rk", "lo", "hi"]),
            batch_format="pyarrow"), "k", "rk", "ts", "lo", "hi"),
        "SELECT l.*, r.rid, r.k AS rk, r.lo, r.hi FROM l JOIN r "
        "ON l.k = r.k AND r.lo <= l.ts AND l.ts < r.hi"),
}


@pytest.mark.parametrize("case", sorted(_JOIN_CASES))
def test_joins_keep_nullable_ints_and_null_keys(monkeypatch, case):
    """Int columns holding nulls (key or not) survive every join, and a
    null key matches nothing, on either side: the rows DuckDB gives."""
    monkeypatch.setattr(join, "_BUCKETS", 3)
    run, sql = _JOIN_CASES[case]
    left, right = _join_sides()
    got = _pdf(run(ray.data.from_arrow(left).repartition(3),
                   ray.data.from_arrow(right).repartition(2)))
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.execute(sql).fetch_df()
    cols = list(want.columns)
    assert sorted(got.columns) == sorted(cols)
    assert _rows(got, cols) == _rows(want, cols)


# ------------------------------------------- bucket-count invariance

def _events_big() -> pa.Table:
    rng = np.random.default_rng(9)
    n = 300
    k = rng.integers(0, 25, n)
    return pa.table({
        "eid": np.arange(n, dtype=np.int64),
        "k": pa.array([None if x == 0 else int(x) for x in k], pa.int64()),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 3 * 24 * 60, n), unit="m"),
        "v": rng.integers(0, 50, n).astype(np.int64),
        "vn": pa.array([None if i % 7 == 0 else int(x) for i, x in
                        enumerate(rng.integers(0, 9, n))], pa.int64()),
        "s": pa.array([f"w{x}" for x in rng.integers(0, 4, n)]),
    })


def _ev() -> ray.data.Dataset:
    return ray.data.from_arrow(_events_big()).repartition(4)


def _ev_keyed() -> ray.data.Dataset:
    """The events with a key (the bars need one)."""
    return _ev().map_batches(lambda t: t.filter(pc.is_valid(t["k"])),
                             batch_format="pyarrow")


def _right() -> ray.data.Dataset:
    rng = np.random.default_rng(10)
    n = 120
    lo = pd.to_datetime("2024-01-01") \
        + pd.to_timedelta(rng.integers(0, 3 * 24 * 60, n), unit="m")
    return ray.data.from_arrow(pa.table({
        "rid": np.arange(n, dtype=np.int64),
        "rk": rng.integers(1, 25, n).astype(np.int64),
        "lo": lo, "hi": lo + pd.to_timedelta(
            rng.integers(1, 600, n), unit="m"),
    })).repartition(3)


def _graph_edges() -> ray.data.Dataset:
    rng = np.random.default_rng(4)
    m = 150
    return ray.data.from_arrow(pa.table({
        "src": rng.integers(0, 40, m).astype(np.int64),
        "dst": rng.integers(0, 40, m).astype(np.int64)})).repartition(3)


def _docs() -> ray.data.Dataset:
    rng = np.random.default_rng(12)
    vocab = [f"word{i}" for i in range(60)]
    texts, ids = [], []
    for i in range(24):
        toks = list(rng.choice(vocab, size=20))
        texts.append(" ".join(toks))
        ids.append(f"d{i:02d}")
        if i % 3 == 0:  # a near duplicate
            toks[int(rng.integers(0, 20))] = "changed"
            texts.append(" ".join(toks))
            ids.append(f"d{i:02d}x")
    return ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts}))


def _plan_b(fn):
    def run():
        with graph_plan("distributed"):
            return _pdf(fn())
    return run


def _incremental():
    docs = _docs().to_pandas()
    old = ray.data.from_pandas(docs.iloc[::2].reset_index(drop=True))
    new = ray.data.from_pandas(docs.iloc[1::2].reset_index(drop=True))
    return dedup.minhash_dedup_incremental(new, old, threshold=0.5)


def _surfaces():
    names = [f"{a} {b}" for a in ("alpha", "beta", "gamma", "delta")
             for b in ("north", "south", "east")]
    names += [n[:-1] for n in names[::2]]
    return ray.data.from_arrow(pa.table({
        "surface": names, "is_gaz": [False] * len(names)}))


def _endpoints():
    rng = np.random.default_rng(5)
    return ray.data.from_arrow(pa.table({
        "_src_id": [str(x) for x in rng.integers(0, 90, 200)],
        "_dst_id": [str(x) for x in rng.integers(0, 90, 200)],
    })).repartition(3)


ROUTED_OPS = {
    "sessionize": lambda: window.sessionize(_ev(), "k", "ts", 600),
    "partitioned_rolling_sum": lambda: window.partitioned_rolling_sum(
        _ev(), "k", "ts", "v", 3, order_tiebreak="eid"),
    "partitioned_lag_gap": lambda: window.partitioned_lag_gap(
        _ev(), "k", "ts", order_tiebreak="eid"),
    "partitioned_locf": lambda: window.partitioned_locf(
        _ev(), "k", "ts", "vn", order_tiebreak="eid"),
    "ohlc_bars": lambda: window.ohlc_bars(_ev_keyed(), "k", "ts", "v",
                                          6 * 3600, "eid"),
    "partitioned_cumsum": lambda: window.partitioned_cumsum(
        _ev(), "k", "ts", "v", "eid"),
    "top_k_per_group": lambda: rank.top_k_per_group(
        _ev(), "k", "v", 3, tie_breakers=["eid"]),
    "grouped_quantiles": lambda: rank.grouped_quantiles(
        _ev(), "k", "v", [0.25, 0.5, 0.9]),
    "grouped_dense_rank": lambda: rank.grouped_dense_rank(_ev(), "k", "vn"),
    "grouped_percent_rank": lambda: rank.grouped_percent_rank(
        _ev(), "k", "vn"),
    "grouped_mad": lambda: rank.grouped_mad(_ev(), "k", "v"),
    "grouped_string_agg": lambda: agg.grouped_string_agg(
        _ev(), "k", "s", ["eid"]),
    "grouped_mode": lambda: agg.grouped_mode(_ev(), "k", "s"),
    "stratified_sample": lambda: sample.stratified_sample(
        _ev(), "k", 3, "eid"),
    "hash_join": lambda: join.hash_join(
        _ev(), _right().select_columns(["rk", "rid"]).map_batches(
            lambda t: t.rename_columns(["k", "rid"]),
            batch_format="pyarrow"), "k", how="left"),
    "asof_join": lambda: join.asof_join(
        _ev(), _right().select_columns(["rid", "rk", "lo"]),
        "k", "rk", "ts", "lo", tiebreak="rid"),
    "range_join": lambda: join.range_join(
        _ev(), _right(), "k", "rk", "ts", "lo", "hi"),
    "triangle_counts": _plan_b(lambda: graph.triangle_counts(
        _graph_edges())),
    "edge_triangle_support": _plan_b(lambda: graph.edge_triangle_support(
        _graph_edges())),
    "k_core": lambda: graph.k_core(_graph_edges(), 3),
    "random_walks": _plan_b(lambda: graph.random_walks(_graph_edges())),
    "pagerank": _plan_b(lambda: graph.pagerank(_graph_edges(), iters=2)),
    "candidate_pairs": lambda: block.candidate_pairs(
        _surfaces(), BlockConfig(jaccard_threshold=0.3)),
    "minhash_lsh_candidates": lambda: dedup.minhash_lsh_candidates(_docs()),
    "minhash_dedup_incremental": _incremental,
    "simhash_near_dup_pairs": lambda: dedup.simhash_near_dup_pairs(
        _docs()),
    "edge_list_vertices": lambda: graph_files.edge_list_vertices(
        _endpoints(), graph_files.CompatGraphConfig()),
}


@pytest.mark.parametrize("op", sorted(ROUTED_OPS))
def test_rows_do_not_depend_on_bucket_count(monkeypatch, op):
    """The same rows with one bucket (every key shares it), three, and
    the default."""
    run = ROUTED_OPS[op]
    want = _rows(_pdf(run()))
    assert want
    for n in (1, 3):
        monkeypatch.setattr(join, "_BUCKETS", n)
        assert _rows(_pdf(run())) == want, n
