"""Hash-partitioned join + session windows."""

import numpy as np
import pandas as pd
import pytest
import pyarrow as pa
import ray.data

from kgeng.ops import join
from kgeng.ops.join import hash_join
from kgeng.ops.window import sessionize, tumbling
from tests.graph_plans import PARITY, graph_plan


def test_hash_join_inner_matches_pandas(monkeypatch):
    monkeypatch.setattr(join, "_BUCKETS", 4)
    left = pa.table({"k": [1, 2, 2, 3, 5], "a": list("xyzuv")})
    right = pa.table({"k": [2, 3, 3, 4], "b": list("pqrs")})
    got = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    "k").to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on="k", how="inner")
    key = ["k", "a", "b"]
    pd.testing.assert_frame_equal(
        got[key].sort_values(key).reset_index(drop=True),
        want[key].sort_values(key).reset_index(drop=True))


def test_hash_join_string_key():
    left = pa.table({"k": ["a", "b"], "x": [1, 2]})
    right = pa.table({"k": ["b", "c"], "y": [10, 20]})
    got = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    "k").to_pandas()
    assert got[["k", "x", "y"]].values.tolist() == [["b", 2, 10]]


def test_hash_join_salted_skew(monkeypatch):
    """90%-one-key left side: salting must keep every merge group's left
    rows under the cap AND produce the identical join result."""
    monkeypatch.setattr(join, "_BUCKETS", 4)
    import numpy as np

    from kgeng.ops.join import _bucket_ids

    n = 1000
    keys = np.where(np.arange(n) < 900, 7, np.arange(n) % 50)
    left = pa.table({"k": keys, "a": np.arange(n)})
    right = pa.table({"k": np.arange(50), "b": np.arange(50) * 10})
    got = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    "k", max_bucket_rows=100).to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on="k", how="inner")
    cols = ["k", "a", "b"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False)  # empty merge groups upcast ints to float64
    # the cap math: salt = ceil(1000/100) = 10, so even the 900-row hot
    # key splits into sub-buckets of <= ceil(900/10) = 90 left rows
    salt = 10
    b = _bucket_ids(left, "k", 4) * salt + (np.arange(n) % salt)
    assert np.bincount(b).max() <= 100


def test_hash_join_salted_left_mode(monkeypatch):
    monkeypatch.setattr(join, "_BUCKETS", 2)
    left = pa.table({"k": [1, 1, 1, 2, 9], "a": list("vwxyz")})
    right = pa.table({"k": [1, 2], "b": ["p", "q"]})
    got = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    "k", how="left", salt=3).to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on="k", how="left")
    cols = ["k", "a", "b"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False)


def test_sessionize_gap_splits():
    ts = pd.to_datetime([
        "2024-01-01 10:00", "2024-01-01 10:10",   # session 1
        "2024-01-01 11:30",                        # session 2 (80m gap)
        "2024-01-01 11:40",
    ])
    ev = pa.table({"user_id": [7] * 4, "ts": ts})
    out = sessionize(ray.data.from_arrow(ev), gap_minutes=30).to_pandas()
    out = out.sort_values("session_id")
    assert out["n_events"].tolist() == [2, 2]
    assert out["session_id"].tolist() == [1, 2]


def test_sessionize_multi_user_bucketed(monkeypatch):
    """Many keys per coarse bucket: per-key session ids must still be
    independent and 1-based."""
    monkeypatch.setattr(join, "_BUCKETS", 4)
    rows = []
    for u in range(20):
        base = pd.Timestamp("2024-03-01 08:00") + pd.Timedelta(minutes=u)
        rows += [(u, base), (u, base + pd.Timedelta(minutes=5)),
                 (u, base + pd.Timedelta(hours=2))]
    ev = pa.table({"user_id": [r[0] for r in rows],
                   "ts": [r[1] for r in rows]})
    out = sessionize(ray.data.from_arrow(ev), gap_minutes=30).to_pandas()
    assert len(out) == 40  # 2 sessions per user
    for u in range(20):
        sub = out[out["user_id"] == u].sort_values("session_id")
        assert sub["session_id"].tolist() == [1, 2]
        assert sub["n_events"].tolist() == [2, 1]


def test_broadcast_join_left_and_inner():
    from kgeng.ops.join import broadcast_join

    left = pa.table({"k": [1, 2, 3, 2], "a": list("wxyz")})
    right = pa.table({"k": [2, 3], "b": ["p", "q"], "c": [10, 20]})
    got = broadcast_join(ray.data.from_arrow(left), right, "k",
                         how="left", fill={"b": "NONE"}).to_pandas()
    got = got.sort_values(["k", "a"]).reset_index(drop=True)
    assert got["b"].tolist() == ["NONE", "p", "p", "q"]
    assert got["c"].tolist()[1:] == [10, 10, 20]
    inner = broadcast_join(ray.data.from_arrow(left), right, "k",
                           how="inner").to_pandas()
    assert sorted(inner["a"]) == ["x", "y", "z"]


def test_hash_join_semi_anti(monkeypatch):
    monkeypatch.setattr(join, "_BUCKETS", 2)
    left = pa.table({"k": [1, 2, 3, 4, 4], "a": list("vwxyz")})
    right = pa.table({"k": [2, 4, 4, 9], "b": [1, 2, 3, 4]})
    semi = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                     "k", how="semi").to_pandas()
    assert sorted(semi["a"]) == ["w", "y", "z"]  # no duplication
    assert list(semi.columns) == ["k", "a"]
    anti = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                     "k", how="anti").to_pandas()
    assert sorted(anti["a"]) == ["v", "x"]


def test_top_k_per_group_matches_pandas():
    import numpy as np

    from kgeng.ops.rank import top_k_per_group

    rng = np.random.default_rng(5)
    n = 500
    t = pa.table({"g": rng.integers(0, 40, n), "v": rng.random(n),
                  "id": np.arange(n)})
    got = top_k_per_group(ray.data.from_arrow(t), "g", "v", 3,
                          tie_breakers=["id"]).to_pandas()
    df = t.to_pandas().sort_values(["g", "v", "id"],
                                   ascending=[True, False, True])
    want = df.groupby("g").head(3).copy()
    want["rank"] = want.groupby("g").cumcount() + 1
    cols = ["g", "v", "id", "rank"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False)


def test_top_k_global_matches_pandas():
    import numpy as np

    from kgeng.ops.rank import top_k_global

    rng = np.random.default_rng(11)
    n = 400
    # ties on purpose: v drawn from a tiny set so the id tiebreak decides
    t = pa.table({"v": rng.integers(0, 8, n), "id": np.arange(n)})
    ds = ray.data.from_arrow(t).repartition(7)  # multi-block prune path
    got = top_k_global(ds, ["v", "id"], 25,
                       descending=[True, False]).to_pandas()
    want = t.to_pandas().sort_values(["v", "id"],
                                     ascending=[False, True]).head(25)
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True),
                                  check_dtype=False)


def test_top_k_global_k_exceeds_rows():
    from kgeng.ops.rank import top_k_global

    t = pa.table({"v": [3, 1, 2], "id": [0, 1, 2]})
    got = top_k_global(ray.data.from_arrow(t), ["v"], 100,
                       descending=[True]).to_pandas()
    assert got["v"].tolist() == [3, 2, 1]


def test_grouped_quantiles_matches_numpy():
    import numpy as np

    from kgeng.ops.rank import grouped_quantiles

    rng = np.random.default_rng(9)
    t = pa.table({"g": ["a"] * 50 + ["b"] * 70,
                  "v": rng.random(120) * 100})
    got = grouped_quantiles(ray.data.from_arrow(t), "g", "v",
                            [0.5, 0.9]).to_pandas()
    df = t.to_pandas()
    for g in ("a", "b"):
        for q in (0.5, 0.9):
            want = round(float(np.quantile(
                df[df["g"] == g]["v"], q, method="linear")), 6)
            row = got[(got["g"] == g) & (got["q"] == q)]
            assert row["quantile_value"].iloc[0] == want


def test_grouped_quantiles_and_mad_skewed_key():
    """Skewed key distribution (one hot key holding ~90% of rows, many
    tiny keys, spread over many partitions): the coarse-bucket plan
    must return exact per-key results — a hot key co-locates into one
    bucket but never splits."""
    import numpy as np

    from kgeng.ops.rank import grouped_mad, grouped_quantiles

    rng = np.random.default_rng(31)
    hot = np.full(18_000, 0, np.int64)
    cold = rng.integers(1, 101, 2_000)
    g = np.concatenate([hot, cold])
    v = rng.random(len(g)) * 1000
    order = rng.permutation(len(g))
    g, v = g[order], v[order]
    ds = ray.data.from_arrow(pa.table({"g": g, "v": v})).repartition(16)

    got = grouped_quantiles(ds, "g", "v", [0.25, 0.75]).to_pandas()
    assert len(got) == 2 * len(np.unique(g))
    gm = grouped_mad(ds, "g", "v").to_pandas()
    assert len(gm) == len(np.unique(g))
    for key in (0, int(cold[0])):
        vals = v[g == key]
        for q in (0.25, 0.75):
            want = round(float(np.quantile(vals, q, method="linear")), 6)
            row = got[(got["g"] == key) & (got["q"] == q)]
            assert row["quantile_value"].iloc[0] == want, (key, q)
        med = float(np.quantile(vals, 0.5, method="linear"))
        want_mad = round(float(np.quantile(np.abs(vals - med), 0.5,
                                           method="linear")), 6)
        assert gm[gm["g"] == key]["mad"].iloc[0] == want_mad, key


def test_sessionize_random_matches_reference(monkeypatch):
    """Randomized events across many users: the coarse-bucketed
    sessionizer must match a straightforward per-key reference."""
    monkeypatch.setattr(join, "_BUCKETS", 8)
    import numpy as np

    rng = np.random.default_rng(21)
    n = 2000
    users = rng.integers(0, 60, n)
    base = pd.Timestamp("2024-06-01")
    ts = base + pd.to_timedelta(rng.integers(0, 72 * 3600, n), unit="s")
    ev = pa.table({"user_id": users, "ts": ts})
    got = sessionize(ray.data.from_arrow(ev), gap_minutes=45).to_pandas()

    # reference: python per-user sweep
    df = ev.to_pandas().sort_values(["user_id", "ts"])
    want = []
    for u, sub in df.groupby("user_id"):
        t0 = prev = None
        cnt = sid = 0
        for x in sub["ts"]:
            if prev is None or (x - prev) > pd.Timedelta(minutes=45):
                if prev is not None:
                    want.append((u, sid, cnt, t0, prev))
                sid += 1
                t0, cnt = x, 0
            cnt += 1
            prev = x
        want.append((u, sid, cnt, t0, prev))
    want_df = pd.DataFrame(want, columns=["user_id", "session_id",
                                          "n_events", "session_start",
                                          "session_end"])
    cols = list(want_df.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want_df.sort_values(cols).reset_index(drop=True),
        check_dtype=False)


def test_approx_grouped_quantiles_within_bucket_error():
    import numpy as np

    from kgeng.ops.rank import approx_grouped_quantiles

    rng = np.random.default_rng(13)
    t = pa.table({"g": ["a"] * 4000 + ["b"] * 3000,
                  "v": np.concatenate([rng.normal(100, 15, 4000),
                                       rng.uniform(0, 1000, 3000)])})
    bins = 512
    got = approx_grouped_quantiles(ray.data.from_arrow(t), "g", "v",
                                   [0.1, 0.5, 0.9],
                                   num_bins=bins).to_pandas()
    df = t.to_pandas()
    for g in ("a", "b"):
        vals = df[df["g"] == g]["v"].to_numpy()
        tol = (vals.max() - vals.min()) / bins  # one bucket width
        for q in (0.1, 0.5, 0.9):
            exact = float(np.quantile(vals, q))
            approx = got[(got["g"] == g)
                         & (got["q"] == q)]["quantile_value"].iloc[0]
            assert abs(approx - exact) <= tol, (g, q, approx, exact, tol)


def test_tumbling_counts():
    ts = pd.to_datetime(["2024-01-01 00:00:30", "2024-01-01 00:00:50",
                         "2024-01-01 00:01:10"])
    ev = pa.table({"k": ["a"] * 3, "ts": ts, "v": [1.0, 2.0, 3.0]})
    out = tumbling(ray.data.from_arrow(ev), "k", "ts", "v",
                   width_seconds=60).to_pandas().sort_values("window")
    assert out["n"].tolist() == [2, 1]
    assert out["total"].tolist() == [3.0, 3.0]


def test_asof_join_backward_ties_and_unmatched(monkeypatch):
    """Backward as-of: greatest right ts <= left ts per key; o_orderdate
    ties resolve to the highest tiebreak id; keys with no prior right
    row keep null right columns (left-join semantics)."""
    monkeypatch.setattr(join, "_BUCKETS", 4)
    from kgeng.ops.join import asof_join

    ev = pa.table({
        "event_id": [1, 2, 3, 4],
        "user_id": [10, 10, 20, 30],     # 30 has no orders at all
        "ts": pd.to_datetime(["2024-01-05", "2024-01-01",
                              "2024-01-02", "2024-01-02"]),
    })
    od = pa.table({
        "o_custkey": [10, 10, 10, 20],
        "o_orderdate": pd.to_datetime(["2024-01-03", "2024-01-03",
                                       "2024-01-04", "2024-01-10"]),
        "o_orderkey": [7, 9, 5, 1],      # tie on 01-03 -> pick 9
        "o_totalprice": [70.0, 90.0, 50.0, 10.0],
    })
    out = asof_join(ray.data.from_arrow(ev), ray.data.from_arrow(od),
                    left_key="user_id", right_key="o_custkey",
                    left_ts="ts", right_ts="o_orderdate",
                    tiebreak="o_orderkey"
                    ).to_pandas().sort_values("event_id")
    # event 1 (10 @ 01-05): latest is 01-04 -> orderkey 5
    # event 2 (10 @ 01-01): nothing at-or-before -> null
    # event 3 (20 @ 01-02): order is 01-10 (future) -> null
    # event 4 (30): no orders for the key -> null
    assert out["o_orderkey"].tolist()[0] == 5.0
    assert out["o_orderkey"].isna().tolist() == [False, True, True, True]
    # tie determinism: shift event 1 to 01-03 -> highest orderkey (9) wins
    ev2 = ev.set_column(2, "ts", pa.array(pd.to_datetime(
        ["2024-01-03", "2024-01-01", "2024-01-02", "2024-01-02"])))
    out2 = asof_join(ray.data.from_arrow(ev2), ray.data.from_arrow(od),
                     left_key="user_id", right_key="o_custkey",
                     left_ts="ts", right_ts="o_orderdate",
                     tiebreak="o_orderkey"
                     ).to_pandas().sort_values("event_id")
    assert out2["o_orderkey"].tolist()[0] == 9.0


def test_range_join_matches_and_boundaries(monkeypatch):
    """Half-open [lo, hi) by default: a probe at lo matches, at hi does
    not; multiple overlapping intervals each emit a row; keys with no
    interval drop (inner semantics)."""
    monkeypatch.setattr(join, "_BUCKETS", 4)
    from kgeng.ops.join import range_join

    left = pa.table({
        "ev": [1, 2, 3, 4],
        "uid": [10, 10, 10, 20],
        "ts": pd.to_datetime(["2024-01-01 00:00", "2024-01-01 01:00",
                              "2024-01-01 02:00", "2024-01-01 00:30"]),
    })
    right = pa.table({
        "iv": [100, 101, 200],
        "ukey": [10, 10, 30],
        "lo": pd.to_datetime(["2024-01-01 00:00", "2024-01-01 00:30",
                              "2024-01-01 00:00"]),
        "hi": pd.to_datetime(["2024-01-01 01:00", "2024-01-01 02:30",
                              "2024-01-02 00:00"]),
    })
    out = range_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                     left_key="uid", right_key="ukey", left_ts="ts",
                     right_lo="lo", right_hi="hi"
                     ).to_pandas().sort_values(["ev", "iv"])
    pairs = list(zip(out["ev"].astype(int), out["iv"].astype(int)))
    # ev1@00:00 -> iv100 only (iv101 starts 00:30); ev2@01:00 -> iv101
    # only (iv100 ends exactly 01:00, half-open); ev3@02:00 -> iv101;
    # ev4 (uid 20) -> nothing; iv200 (key 30) matches nothing
    assert pairs == [(1, 100), (2, 101), (3, 101)]
    # inclusive hi keeps ev2@01:00 in iv100 too
    out2 = range_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                      left_key="uid", right_key="ukey", left_ts="ts",
                      right_lo="lo", right_hi="hi",
                      hi_inclusive=True).to_pandas()
    pairs2 = sorted(zip(out2["ev"].astype(int), out2["iv"].astype(int)))
    assert pairs2 == [(1, 100), (2, 100), (2, 101), (3, 101)]


def test_partitioned_lag_gap(monkeypatch):
    """Per-key diff in (ts, tiebreak) order: NaN for each key's first
    row; fractional seconds; keys never mix across buckets."""
    monkeypatch.setattr(join, "_BUCKETS", 4)
    from kgeng.ops.window import partitioned_lag_gap

    ev = pa.table({
        "event_id": [1, 2, 3, 4, 5],
        "user_id": [7, 7, 7, 9, 9],
        "ts": pd.to_datetime([
            "2024-01-01 00:00:00", "2024-01-01 00:00:10.500000",
            "2024-01-01 00:01:00", "2024-01-01 05:00:00",
            "2024-01-01 05:00:02"], format="mixed"),
    })
    out = (partitioned_lag_gap(ray.data.from_arrow(ev), key="user_id",
                               ts="ts", order_tiebreak="event_id")
           .to_pandas().sort_values("event_id"))
    gaps = out["gap_sec"].tolist()
    assert pd.isna(gaps[0]) and pd.isna(gaps[3])
    assert gaps[1] == 10.5 and gaps[2] == 49.5 and gaps[4] == 2.0


def test_partitioned_rolling_sum_matches_pandas_rolling(monkeypatch):
    """Randomized check of the cumsum-difference rolling sum against
    pandas' own rolling() per group, across bucket boundaries."""
    monkeypatch.setattr(join, "_BUCKETS", 8)
    import numpy as np

    from kgeng.ops.window import partitioned_rolling_sum

    rng = np.random.default_rng(7)
    n = 400
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 23, n).astype(np.int64),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 10_000, n), unit="s"),
        "v": rng.integers(-50, 500, n).astype(np.int64),
    })
    out = (partitioned_rolling_sum(
        ray.data.from_pandas(df.copy()).repartition(7),
        key="user_id", ts="ts", value="v", window=4,
        order_tiebreak="event_id", out="roll")
        .to_pandas().sort_values("event_id").reset_index(drop=True))

    ref = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    ref["roll"] = (ref.groupby("user_id", sort=False)["v"]
                   .rolling(4, min_periods=1).sum()
                   .reset_index(level=0, drop=True)).astype(np.int64)
    ref = ref.sort_values("event_id").reset_index(drop=True)
    assert out["roll"].tolist() == ref["roll"].tolist()


def test_bloom_prefilter_no_false_negatives_and_bounded_fp():
    """Every build-side key must survive the prefilter (no false
    negatives — join correctness depends on it); false positives stay
    under a loose multiple of the theoretical rate."""
    import numpy as np

    from kgeng.ops.join import bloom_prefilter, build_bloom

    members = np.arange(0, 30000, 3, dtype=np.int64)       # 10k keys
    bloom = build_bloom(
        ray.data.from_arrow(pa.table({"k": members})).repartition(5),
        "k", num_bits=1 << 18, k=4)
    probe = np.arange(60000, dtype=np.int64)
    out = bloom_prefilter(
        ray.data.from_arrow(pa.table({"k": probe})).repartition(4),
        "k", bloom, num_bits=1 << 18, k=4).to_pandas()
    got = set(out["k"])
    assert set(members.tolist()) <= got
    n_out = len(probe) - len(members)
    fp = (len(got) - len(members)) / n_out
    # m/n = 26 bits/key, k=4 -> ~0.24% theoretical; allow 4x slack
    assert fp < 0.01, fp


def test_pagerank_plans_agree_and_match_numpy(plans=PARITY):
    """Plan A (driver rank vector) and plan B (rank Dataset, shuffle
    rounds) must both match a dense numpy reference exactly —
    including dangling-node mass redistribution."""
    import numpy as np

    from kgeng.ops.graph import pagerank

    rng = np.random.default_rng(31)
    n_nodes, n_edges = 40, 160
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    # make node 39 dangling: never a source
    keep = src != 39
    src, dst = src[keep], dst[keep]
    edges = pa.table({"src": src, "dst": dst})

    # dense numpy reference with identical per-round rounding
    nodes = np.unique(np.concatenate([src, dst]))
    idx = {v: i for i, v in enumerate(nodes)}
    N = len(nodes)
    deg = np.zeros(N)
    np.add.at(deg, [idx[s] for s in src], 1.0)
    r = np.floor(np.full(N, 1.0 / N) * 1e9 + 0.5) / 1e9
    for _ in range(6):
        contrib = np.where(deg > 0, r / np.where(deg > 0, deg, 1), 0.0)
        dang = r[deg == 0].sum() / N
        inc = np.zeros(N)
        np.add.at(inc, [idx[d] for d in dst],
                  contrib[[idx[s] for s in src]])
        r = np.floor((0.15 / N + 0.85 * (inc + dang)) * 1e9 + 0.5) / 1e9
    ref = dict(zip(nodes.tolist(), r.tolist()))
    for plan in plans:
        with graph_plan(plan):
            a = pagerank(ray.data.from_arrow(edges).repartition(4),
                         iters=6, damping=0.85, ndigits=9).to_pandas()
        assert dict(zip(a["node"], a["rank"])) == ref, plan
        # rank mass sanity: sums to ~1 (dangling redistributed, not
        # leaked)
        assert abs(a["rank"].sum() - 1.0) < 1e-3


def test_sssp_hops_matches_bfs_reference(plans=PARITY):
    """Plan A (driver BFS layers) and plan B (the same layers as Dataset
    rounds) both match a python BFS."""
    import collections

    import numpy as np

    from kgeng.ops.graph import sssp_hops

    rng = np.random.default_rng(37)
    src = rng.integers(0, 60, 250).astype(np.int64)
    dst = rng.integers(0, 60, 250).astype(np.int64)

    adj = collections.defaultdict(list)
    for s, d in zip(src.tolist(), dst.tolist()):
        adj[s].append(d)
    ref, q = {0: 0}, collections.deque([0])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in ref:
                ref[v] = ref[u] + 1
                q.append(v)
    for plan in plans:
        with graph_plan(plan):
            out = sssp_hops(ray.data.from_arrow(
                pa.table({"src": src, "dst": dst})).repartition(5),
                source=0).to_pandas()
        assert dict(zip(out["node"], out["dist"])) == ref, plan


def test_hits_matches_numpy_reference(plans=PARITY):
    """Plan A (driver vectors) and plan B (distributed hub/auth
    Datasets, shuffle rounds) both equal a dense numpy reference,
    under the shared per-half-round round-to-9 policy."""
    import numpy as np

    from kgeng.ops.graph import hits

    rng = np.random.default_rng(41)
    src = rng.integers(0, 30, 120).astype(np.int64)
    dst = rng.integers(0, 30, 120).astype(np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    idx = {v: i for i, v in enumerate(nodes)}
    si = np.array([idx[v] for v in src])
    di = np.array([idx[v] for v in dst])
    N = len(nodes)

    def rnd(x):
        return np.floor(x * 1e9 + 0.5) / 1e9

    def norm(x):
        s = np.sqrt(float((x * x).sum()))
        return rnd(x / s) if s > 0 else x

    hub, auth = norm(np.ones(N)), np.zeros(N)
    for _ in range(4):
        a = np.zeros(N); np.add.at(a, di, hub[si]); auth = norm(a)
        h = np.zeros(N); np.add.at(h, si, auth[di]); hub = norm(h)
    for plan in plans:
        with graph_plan(plan):
            out = (hits(ray.data.from_arrow(
                pa.table({"src": src, "dst": dst})).repartition(4),
                iters=4).to_pandas()
                .sort_values("node").reset_index(drop=True))
        assert out["node"].tolist() == nodes.tolist(), plan
        assert out["hub"].tolist() == hub.tolist(), plan
        assert out["auth"].tolist() == auth.tolist(), plan


def test_effective_closeness_tracks_exact_bfs(plans=PARITY):
    """HyperBall closeness must track the exact BFS closeness within
    the sketch's error (m=64, linear-counting regime on a small graph)
    and be identical under a different edge partitioning (register
    union is an elementwise max) and on every plan: plan B keeps the
    registers as a Dataset column with a bucketed segment-max merge,
    sharing init/estimate kernels with plan A."""
    import collections

    import numpy as np

    from kgeng.ops.graph import effective_closeness

    rng = np.random.default_rng(43)
    src = rng.integers(0, 50, 300).astype(np.int64)
    dst = rng.integers(0, 50, 300).astype(np.int64)
    et = pa.table({"src": src, "dst": dst})

    def run(nparts):
        out = effective_closeness(
            ray.data.from_arrow(et).repartition(nparts)).to_pandas()
        return dict(zip(out["node"], out["closeness"]))

    got = run(4)
    assert run(7) == got
    for plan in plans:
        with graph_plan(plan):
            assert run(4) == got, plan

    adj = collections.defaultdict(set)
    for s, d in zip(src.tolist(), dst.tolist()):
        adj[s].add(d)
    nodes = sorted(set(src.tolist()) | set(dst.tolist()))
    for v in nodes:
        dist, q = {v: 0}, collections.deque([v])
        while q:
            u = q.popleft()
            for w_ in adj[u]:
                if w_ not in dist:
                    dist[w_] = dist[u] + 1
                    q.append(w_)
        sd = sum(dist.values())
        exact = (len(dist) - 1) / sd if sd > 0 else 0.0
        assert abs(got[v] - exact) <= max(0.25 * exact, 0.05), \
            (v, got[v], exact)


def test_bellman_ford_rounds_matches_reference(plans=PARITY):
    """k-round relaxation must equal a python Bellman-Ford run for the
    same k, including the not-yet-converged middle rounds, on plan A
    and on plan B (distributed distance Dataset; integer mins are
    order-invariant)."""
    import numpy as np

    from kgeng.ops.graph import bellman_ford_rounds

    rng = np.random.default_rng(47)
    src = rng.integers(0, 25, 100).astype(np.int64)
    dst = rng.integers(0, 25, 100).astype(np.int64)
    w = rng.integers(1, 9, 100).astype(np.int64)
    et = pa.table({"src": src, "dst": dst, "w": w})

    for rounds in (1, 2, 6):
        ref = {0: 0}
        for _ in range(rounds):
            nxt = dict(ref)
            for s, d, wv in zip(src.tolist(), dst.tolist(), w.tolist()):
                if s in ref:
                    c = ref[s] + wv
                    if c < nxt.get(d, 1 << 62):
                        nxt[d] = c
            ref = nxt
        for plan in plans:
            with graph_plan(plan):
                out = bellman_ford_rounds(
                    ray.data.from_arrow(et).repartition(4), source=0,
                    rounds=rounds).to_pandas()
            assert dict(zip(out["node"], out["dist"])) == ref, \
                (rounds, plan)


def test_effective_closeness_node_cutover_falls_back(monkeypatch):
    """The register matrix (two n x 2^p byte copies) enters the plan
    rule: with the driver budget between its size at p=6 and at p=12,
    p=6 runs plan A and p=12 falls back to plan B, with the same
    answers plan A gives under the default budget."""
    import numpy as np

    from kgeng.ops import graph as G

    et = pa.table({"src": np.arange(10, dtype=np.int64),
                   "dst": np.arange(1, 11, dtype=np.int64)})
    n = 11
    full = {p: G.effective_closeness(ray.data.from_arrow(et), p=p)
            .to_pandas() for p in (6, 12)}
    calls = []
    plan_b = G._DatasetRounds.__init__
    monkeypatch.setattr(
        G._DatasetRounds, "__init__",
        lambda *a, **k: calls.append(p) or plan_b(*a, **k))
    monkeypatch.setattr(G, "_DRIVER_STATE_BYTES",
                        (n * 2 * (1 << 6) + n * 2 * (1 << 12)) // 2)
    for p in (6, 12):
        got = G.effective_closeness(ray.data.from_arrow(et),
                                    p=p).to_pandas()
        assert dict(zip(got["node"], got["closeness"])) == \
            dict(zip(full[p]["node"], full[p]["closeness"])), p
    assert calls == [12]


def test_approx_quantiles_degenerate_group_exact():
    """A group whose values are all identical must estimate exactly that
    value, not value + width/2."""
    import pandas as pd

    from kgeng.ops.rank import approx_grouped_quantiles

    df = pd.DataFrame({"k": ["a"] * 50 + ["b"] * 50,
                       "v": [0.25] * 50 + list(range(50))})
    out = approx_grouped_quantiles(
        ray.data.from_pandas(df), "k", "v", [0.5, 0.9]).to_pandas()
    a_vals = out[out["k"] == "a"]["quantile_value"].tolist()
    assert a_vals == [0.25, 0.25]


def test_hash_join_full_outer_matches_pandas(monkeypatch):
    """Unmatched rows on BOTH sides surface exactly once, the other
    side nulled; int columns of both sides surface float64."""
    monkeypatch.setattr(join, "_BUCKETS", 4)
    left = pa.table({"k": [1, 2, 2, 3], "a": [10, 20, 21, 30]})
    right = pa.table({"k": [2, 4], "b": [200, 400]})
    got = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    "k", how="outer").to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on="k", how="outer")
    cols = ["k", "a", "b"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False)
    assert str(got["a"].dtype) == "float64"
    assert str(got["b"].dtype) == "float64"
    # salted outer must refuse (right replication duplicates rows)
    import pytest

    with pytest.raises(ValueError, match="outer"):
        hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                  "k", how="outer", salt=2)


def test_global_row_number_dense_and_total():
    import numpy as np

    from kgeng.ops.rank import global_row_number

    rng = np.random.default_rng(53)
    v = rng.integers(0, 50, 300).astype(np.int64)
    ds = ray.data.from_arrow(pa.table(
        {"id": np.arange(300), "v": v})).repartition(7)
    out = global_row_number(ds, by=["v", "id"], out="rn").to_pandas()
    out = out.sort_values(["v", "id"]).reset_index(drop=True)
    assert out["rn"].tolist() == list(range(1, 301))


def test_grouped_mode_tiebreak_and_counts():
    from kgeng.ops.agg import grouped_mode

    t = pa.table({"k": [1, 1, 1, 2, 2, 2, 2],
                  "v": ["b", "a", "b", "z", "y", "z", "y"]})
    out = grouped_mode(ray.data.from_arrow(t).repartition(3),
                       "k", "v", out="top", count_out="n").to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    assert out["top"].tolist() == ["b", "y"]   # k=2 tie 2-2 -> min "y"
    assert out["n"].tolist() == [2, 2]


def test_melt_roundtrip():
    from kgeng.ops.agg import melt

    wide = pa.table({"id": [1, 2], "n_a": [3, 0], "n_b": [1, 5]})
    out = melt(ray.data.from_arrow(wide), ["id"], ["n_a", "n_b"],
               var_name="var", value_name="n").to_pandas()
    got = sorted(map(tuple, out[["id", "var", "n"]].values.tolist()))
    assert got == [(1, "n_a", 3), (1, "n_b", 1),
                   (2, "n_a", 0), (2, "n_b", 5)]


def test_remove_frequent_lines_order_and_threshold():
    from kgeng.ops.text import remove_frequent_lines

    docs = pa.table({"doc_id": list(range(6)), "text": [
        "keep me 0\nBOILER\nalso keep",
        "BOILER\nkeep me 1",
        "keep me 2\nBOILER",
        "BOILER\nBOILER\nkeep me 3",   # twice in ONE doc: counts once
        "keep me 4",
        "rare line\nkeep me 5",        # rare line survives (df=1)
    ]})
    out = remove_frequent_lines(
        ray.data.from_arrow(docs).repartition(3), col="text",
        out="clean", min_docs=4).to_pandas().sort_values("doc_id")
    assert out["clean"].tolist() == [
        "keep me 0\nalso keep", "keep me 1", "keep me 2", "keep me 3",
        "keep me 4", "rare line\nkeep me 5"]


def test_melt_mixed_types_promotes_float64():
    from kgeng.ops.agg import melt

    wide = pa.table({"id": [1], "a": [2], "b": [0.5]})
    out = melt(ray.data.from_arrow(wide), ["id"], ["a", "b"],
               var_name="var", value_name="v").to_pandas()
    assert str(out["v"].dtype) == "float64"
    assert sorted(out["v"].tolist()) == [0.5, 2.0]


def test_sssp_isolated_source_returns_seed_row():
    import numpy as np

    from kgeng.ops.graph import sssp_hops

    et = pa.table({"src": np.array([1, 2], np.int64),
                   "dst": np.array([2, 3], np.int64)})
    out = sssp_hops(ray.data.from_arrow(et), source=99).to_pandas()
    assert out.values.tolist() == [[99, 0]]


def test_bellman_ford_planB_absent_source_raises():
    import numpy as np
    import pytest

    from kgeng.ops.graph import bellman_ford_rounds

    et = pa.table({"src": np.array([1], np.int64),
                   "dst": np.array([2], np.int64),
                   "w": np.array([1], np.int64)})
    with graph_plan("distributed"), \
            pytest.raises(ValueError, match="no edges"):
        bellman_ford_rounds(ray.data.from_arrow(et), source=42,
                            rounds=2)


def test_hits_distributed_zero_iters_matches_plan_a():
    import numpy as np

    from kgeng.ops.graph import hits

    et = pa.table({"src": np.array([1, 2], np.int64),
                   "dst": np.array([2, 3], np.int64)})
    a = hits(ray.data.from_arrow(et), iters=0).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    with graph_plan("distributed"):
        b = hits(ray.data.from_arrow(et), iters=0).to_pandas() \
            .sort_values("node").reset_index(drop=True)
    assert a["hub"].tolist() == b["hub"].tolist()
    assert a["auth"].tolist() == b["auth"].tolist()


def test_graph_ops_int32_edges_emit_int64_nodes():
    import numpy as np

    from kgeng.ops.graph import pagerank

    et = pa.table({"src": pa.array([0, 1, 2], pa.int32()),
                   "dst": pa.array([1, 2, 0], pa.int32())})
    out = pagerank(ray.data.from_arrow(et), iters=2)
    tbl = pa.Table.from_pandas(out.to_pandas())
    assert str(tbl.schema.field("node").type) == "int64"


def _scc_graph():
    """A random directed graph with two planted cycles."""
    import numpy as np

    rng = np.random.default_rng(61)
    src = rng.integers(0, 40, 150).astype(np.int64).tolist()
    dst = rng.integers(0, 40, 150).astype(np.int64).tolist()
    src += [50, 51, 52, 60, 61]
    dst += [51, 52, 50, 61, 60]
    return src, dst


def _tarjan_scc(src, dst) -> dict:
    """Iterative Tarjan: node -> min node id of its component."""
    import collections
    adj = collections.defaultdict(list)
    nodes = sorted(set(src) | set(dst))
    for s, d in zip(src, dst):
        adj[s].append(d)
    index = {}
    low = {}
    on = set()
    stack = []
    counter = [0]
    comp = {}

    def strong(v0):
        work = [(v0, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on.add(v)
            recurse = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if w not in index:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                elif w in on:
                    low[v] = min(low[v], index[w])
            if not recurse:
                if low[v] == index[v]:
                    grp = []
                    while True:
                        w = stack.pop()
                        on.discard(w)
                        grp.append(w)
                        if w == v:
                            break
                    m = min(grp)
                    for w in grp:
                        comp[w] = m
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])

    for v in nodes:
        if v not in index:
            strong(v)
    return comp


def test_scc_matches_tarjan_reference():
    """FB-coloring SCC vs an iterative Tarjan on a random directed
    graph with planted cycles; scc_id = min node id per component."""
    from kgeng.ops.graph import scc

    src, dst = _scc_graph()
    et = pa.table({"src": pa.array(src, pa.int64()),
                   "dst": pa.array(dst, pa.int64())})
    out = scc(ray.data.from_arrow(et).repartition(4)).to_pandas()
    assert dict(zip(out["node"], out["scc_id"])) == _tarjan_scc(src, dst)


def test_slpa_partition_invariant_and_overlapping():
    """Deterministic SLPA: identical output under different edge
    partitioning (speaker-slot hash depends only on ids + round), and
    dense cliques joined by a bridge yield overlapping membership."""
    import numpy as np

    from kgeng.ops.graph import slpa

    # two 5-cliques sharing node 4 (the bridge)
    src, dst = [], []
    for grp in (range(0, 5), range(4, 9)):
        for a in grp:
            for b in grp:
                if a != b:
                    src.append(a)
                    dst.append(b)
    et = pa.table({"src": pa.array(src, pa.int64()),
                   "dst": pa.array(dst, pa.int64())})

    def run(nparts):
        return slpa(ray.data.from_arrow(et).repartition(nparts),
                    rounds=12, threshold=0.15).to_pandas() \
            .sort_values("node").reset_index(drop=True)

    a, b = run(3), run(7)
    pd.testing.assert_frame_equal(a, b)
    # every node belongs to >= 1 community; labels are real node ids
    assert (a["n_communities"] >= 1).all()
    assert set(a["primary_label"]).issubset(set(range(9)))
    # the bridge node genuinely OVERLAPS: it holds labels from both
    # cliques above threshold (the property the op exists to surface)
    assert a.loc[a["node"] == 4, "n_communities"].iloc[0] >= 2


def test_scc_distributed_matches_plan_a_and_cutover(plans=PARITY):
    """Plan B SCC (Dataset rounds) agrees bit-for-bit with plan A
    (every phase is a set op or an integer min): both equal Tarjan."""
    from kgeng.ops.graph import scc

    src, dst = _scc_graph()
    et = pa.table({"src": pa.array(src, pa.int64()),
                   "dst": pa.array(dst, pa.int64())})
    want = _tarjan_scc(src, dst)
    for plan in plans:
        with graph_plan(plan):
            out = scc(ray.data.from_arrow(et).repartition(4)).to_pandas()
        assert dict(zip(out["node"], out["scc_id"])) == want, plan


def test_slpa_distributed_matches_plan_a_and_cutover(plans=PARITY):
    """Every plan of SLPA — plan B's wide-column memory Dataset
    included — agrees bit-for-bit with in-process plan A: same slot
    hash, same counts, same (count desc, label asc) tiebreaks,
    including the overlapping communities string."""
    import numpy as np

    from kgeng.ops.graph import slpa

    # two 5-cliques sharing node 4, plus random noise edges
    src, dst = [], []
    for grp in (range(0, 5), range(4, 9)):
        for a in grp:
            for b in grp:
                if a != b:
                    src.append(a)
                    dst.append(b)
    rng = np.random.default_rng(17)
    src += rng.integers(0, 20, 40).astype(np.int64).tolist()
    dst += rng.integers(0, 20, 40).astype(np.int64).tolist()
    et = pa.table({"src": pa.array(src, pa.int64()),
                   "dst": pa.array(dst, pa.int64())})

    def norm(df):
        return df.sort_values("node").reset_index(drop=True)

    def run():
        return norm(slpa(ray.data.from_arrow(et).repartition(4),
                         rounds=7, threshold=0.2).to_pandas())

    plan_a = run()
    for plan in plans:
        with graph_plan(plan):
            pd.testing.assert_frame_equal(run(), plan_a)


def test_line_graph_exact_above_2_53_packing():
    """Packed line-node ids exceed 2^53; the halves-through-the-join
    path must keep them exact (a packed int64 pushed through the
    join's float64 nullable-int convention corrupts them)."""
    import numpy as np

    from kgeng.ops.graph import line_graph

    a, b, c = (1 << 30) + 7, (1 << 30) + 123, (1 << 30) + 999
    et = pa.table({"src": pa.array([a, b], pa.int64()),
                   "dst": pa.array([b, c], pa.int64())})
    out = line_graph(ray.data.from_arrow(et)).to_pandas()
    assert out.values.tolist() == [[(a << 32) | b, (b << 32) | c]]


def test_bounded_harmonic_matches_bfs_reference(plans=PARITY):
    import math
    from collections import deque

    import numpy as np

    from kgeng.ops.graph import bounded_harmonic

    rng = np.random.default_rng(11)
    n = 40
    edges = set()
    while len(edges) < 120:
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((int(a), int(b)))
    edges.add((0, 1)); edges.add((1, 2)); edges.add((2, 0))  # a cycle
    src = [a for a, _ in edges]
    dst = [b for _, b in edges]
    H = 4
    lcm = math.lcm(*range(1, H + 1))

    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    want = {}
    nodes = sorted({*src, *dst})
    for u in nodes:
        dist = {u: 0}
        q = deque([u])
        while q:
            x = q.popleft()
            if dist[x] >= H:
                continue
            for y in adj.get(x, ()):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        s = sum(lcm // d for v, d in dist.items() if v != u)
        want[u] = round(s / lcm, 6)

    ds = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    for plan in plans:
        with graph_plan(plan):
            got = bounded_harmonic(ds, max_hops=H).to_pandas()
        got_map = dict(zip(got["node"], got["harmonic"]))
        assert got_map == want, plan
        assert len(got_map) == len(nodes)


def test_bounded_closeness_matches_bfs_reference(plans=PARITY):
    """Each plan of the exact-ball program == python BFS, for the exact
    bounded closeness — both integer numerator and denominator, so
    equality is exact."""
    from collections import deque

    import numpy as np

    from kgeng.ops.graph import bounded_closeness

    rng = np.random.default_rng(13)
    n = 40
    edges = set()
    while len(edges) < 120:
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((int(a), int(b)))
    src = [a for a, _ in edges]
    dst = [b for _, b in edges]
    H = 4

    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    want = {}
    nodes = sorted({*src, *dst})
    for u in nodes:
        dist = {u: 0}
        q = deque([u])
        while q:
            x = q.popleft()
            if dist[x] >= H:
                continue
            for y in adj.get(x, ()):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        c = len(dist) - 1
        s = sum(dist.values())
        want[u] = round(c / s, 6) if s > 0 else 0.0

    ds = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    for plan in plans:
        with graph_plan(plan):
            got = bounded_closeness(ds, max_hops=H).to_pandas()
        got_map = dict(zip(got["node"], got["closeness"]))
        assert got_map == want, plan
        assert len(got_map) == len(nodes)


def test_bounded_harmonic_early_exit_on_converged_bfs():
    # path graph shorter than max_hops: frontier empties early and the
    # loop must break instead of running dead rounds
    from kgeng.ops.graph import bounded_harmonic

    ds = ray.data.from_arrow(pa.table({"src": [1, 2], "dst": [2, 3]}))
    # every plan: the no-set-grew break must fire before the dead
    # rounds
    for plan in PARITY:
        with graph_plan(plan):
            got = bounded_harmonic(ds, max_hops=6).to_pandas()
        got_map = dict(zip(got["node"], got["harmonic"]))
        # node1 reaches 2 at d1, 3 at d2: 1/1 + 1/2 = 1.5
        assert got_map == {1: 1.5, 2: 1.0, 3: 0.0}, plan


# ------------------------------------------------------------ triangles

def _brute_triangles(pairs):
    """Per-node triangle counts by brute force over an undirected
    edge set given as (u, v) tuples (any direction, dups ok)."""
    import itertools
    adj = {}
    es = set()
    for u, v in pairs:
        if u == v:
            continue
        a, b = min(u, v), max(u, v)
        es.add((a, b))
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    counts = {}
    for (a, b) in es:
        for c in adj[a] & adj[b]:
            if c > b:  # each triangle once as a < b < c
                for n in (a, b, c):
                    counts[n] = counts.get(n, 0) + 1
    return counts


def test_triangle_counts_k4_and_path():
    import ray.data

    from kgeng.ops.graph import triangle_counts

    # K4: every node sits in C(3,2)=3 triangles
    k4 = [(i, j) for i in range(4) for j in range(4) if i < j]
    t = pa.table({"src": [e[0] for e in k4], "dst": [e[1] for e in k4]})
    out = triangle_counts(ray.data.from_arrow(t)).to_pandas()
    assert sorted(out["node"]) == [0, 1, 2, 3]
    assert set(out["n_triangles"]) == {3}
    # path graph: no triangles -> empty result
    p = pa.table({"src": [0, 1, 2], "dst": [1, 2, 3]})
    assert triangle_counts(ray.data.from_arrow(p)).count() == 0


def test_triangle_counts_random_parity_both_plans(plans=PARITY):
    """Packed fast plan A and join-orientation + bucket-merge plan B
    both match brute force; negative ids cannot pack, so they take
    plan B under the default budget."""
    import ray.data

    from kgeng.ops.graph import triangle_counts

    rng = np.random.default_rng(7)
    # skewed ids + duplicate/reversed edges + self loops
    u = rng.integers(0, 60, size=600)
    v = rng.integers(0, 60, size=600)
    pairs = list(zip(u.tolist(), v.tolist()))
    ref = _brute_triangles(pairs)
    t = pa.table({"src": pa.array(u, pa.int64()),
                  "dst": pa.array(v, pa.int64())})
    for plan in plans:
        with graph_plan(plan):
            out = triangle_counts(
                ray.data.from_arrow(t).repartition(5)).to_pandas()
        got = dict(zip(out["node"].astype(int),
                       out["n_triangles"].astype(int)))
        assert got == ref, plan
    if "distributed" not in plans:
        return
    tn = pa.table({"src": pa.array((u - 30).tolist(), pa.int64()),
                   "dst": pa.array((v - 30).tolist(), pa.int64())})
    refn = _brute_triangles(list(zip((u - 30).tolist(),
                                     (v - 30).tolist())))
    outn = triangle_counts(ray.data.from_arrow(tn)).to_pandas()
    gotn = dict(zip(outn["node"].astype(int),
                    outn["n_triangles"].astype(int)))
    assert gotn == refn


def test_triangle_counts_partition_invariant():
    import ray.data

    from kgeng.ops.graph import triangle_counts

    rng = np.random.default_rng(11)
    u = rng.integers(0, 40, size=300)
    v = rng.integers(0, 40, size=300)
    t = pa.table({"src": pa.array(u, pa.int64()),
                  "dst": pa.array(v, pa.int64())})
    outs = []
    for parts in (1, 7):
        out = triangle_counts(
            ray.data.from_arrow(t).repartition(parts)).to_pandas()
        outs.append(out.sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])


# --------------------------------------------------------------- k-core

def _peel_ref(pairs, k):
    from collections import defaultdict
    adj = defaultdict(set)
    for u, v in pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    changed = True
    while changed:
        changed = False
        for n in list(adj):
            if len(adj[n]) < k:
                for m in adj[n]:
                    adj[m].discard(n)
                del adj[n]
                changed = True
    return {n: len(s) for n, s in adj.items() if s}


def test_k_core_clique_with_pendant_chain():
    from kgeng.ops.graph import k_core

    k5 = [(i, j) for i in range(5) for j in range(5) if i < j]
    chain = [(4, 10), (10, 11), (11, 12)]
    t = pa.table({"src": [e[0] for e in k5 + chain],
                  "dst": [e[1] for e in k5 + chain]})
    out = k_core(ray.data.from_arrow(t), k=4).to_pandas()
    assert sorted(out["node"]) == [0, 1, 2, 3, 4]
    assert set(out["deg"]) == {4}
    # k above the max core: empty with stable schema
    empty = k_core(ray.data.from_arrow(t), k=5)
    assert empty.count() == 0
    assert set(empty.schema().names) == {"node", "deg"}


def test_k_core_random_parity_both_plans(plans=PARITY):
    from kgeng.ops.graph import k_core

    rng = np.random.default_rng(13)
    u = rng.integers(0, 50, size=400)
    v = rng.integers(0, 50, size=400)
    ref = _peel_ref(list(zip(u.tolist(), v.tolist())), 3)
    t = pa.table({"src": pa.array(u, pa.int64()),
                  "dst": pa.array(v, pa.int64())})
    for plan in plans:
        with graph_plan(plan):
            out = k_core(ray.data.from_arrow(t).repartition(4),
                         k=3).to_pandas()
        got = dict(zip(out["node"].astype(int), out["deg"].astype(int)))
        assert got == ref, plan


def test_partitioned_locf_carries_within_key_only():
    from kgeng.ops.window import partitioned_locf

    t = pa.table({
        "k": pa.array([1, 1, 1, 2, 2, 1], pa.int64()),
        "ts": pa.array([1, 2, 3, 1, 2, 4], pa.int64()),
        "v": pa.array([None, 5.0, None, None, 7.0, None], pa.float64()),
    })
    out = partitioned_locf(ray.data.from_arrow(t).repartition(3),
                           key="k", ts="ts", value="v").to_pandas() \
        .sort_values(["k", "ts"]).reset_index(drop=True)
    # key 1: leading null stays, 5 carries through ts=3 and ts=4
    assert np.isnan(out.loc[0, "v"])
    assert out.loc[1, "v"] == 5.0 and out.loc[2, "v"] == 5.0 \
        and out.loc[3, "v"] == 5.0
    # key 2: leading null stays null (no cross-key leakage from key 1)
    assert np.isnan(out.loc[4, "v"]) and out.loc[5, "v"] == 7.0


def test_ohlc_bars_matches_pandas_resample_reference():
    from kgeng.ops.window import ohlc_bars

    rng = np.random.default_rng(23)
    n = 1500
    users = rng.integers(0, 12, n)
    base = pd.Timestamp("2024-05-01")
    ts = base + pd.to_timedelta(rng.integers(0, 48 * 3600, n), unit="s")
    vals = np.round(rng.random(n) * 100, 2)
    ev = pa.table({"event_id": np.arange(n), "user_id": users,
                   "ts": ts, "value": vals})
    got = ohlc_bars(ray.data.from_arrow(ev).repartition(5),
                    key="user_id", ts="ts", value="value",
                    width_seconds=3600, tiebreak="event_id").to_pandas()
    df = ev.to_pandas()
    df["window"] = (df["ts"].astype("int64") // 10**3
                    // 3_600_000_000).astype("int64")
    df = df.sort_values(["user_id", "window", "ts", "event_id"])
    want = df.groupby(["user_id", "window"])["value"] \
        .agg(["first", "max", "min", "last", "size"]).reset_index()
    want.columns = ["user_id", "window", "open", "high", "low",
                    "close", "n_events"]
    cols = list(want.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(["user_id", "window"])
        .reset_index(drop=True),
        want.sort_values(["user_id", "window"]).reset_index(drop=True),
        check_dtype=False)


def test_partitioned_cumsum_and_dense_rank_match_pandas():
    from kgeng.ops.rank import grouped_dense_rank
    from kgeng.ops.window import partitioned_cumsum

    rng = np.random.default_rng(29)
    n = 800
    t = pa.table({"k": pa.array(rng.integers(0, 9, n), pa.int64()),
                  "ts": pa.array(rng.integers(0, 500, n), pa.int64()),
                  "id": pa.array(np.arange(n), pa.int64()),
                  "v": pa.array(rng.integers(-5, 50, n), pa.int64())})
    out = partitioned_cumsum(ray.data.from_arrow(t).repartition(4),
                             key="k", ts="ts", value="v",
                             tiebreak="id", out="rt").to_pandas() \
        .sort_values("id").reset_index(drop=True)
    df = t.to_pandas().sort_values(["k", "ts", "id"])
    df["rt"] = df.groupby("k")["v"].cumsum()
    want = df.sort_values("id").reset_index(drop=True)
    assert out["rt"].tolist() == want["rt"].tolist()

    rk = grouped_dense_rank(ray.data.from_arrow(t).repartition(4),
                            "k", "v", out="r").to_pandas() \
        .sort_values("id").reset_index(drop=True)
    wr = t.to_pandas()
    wr["r"] = wr.groupby("k")["v"].rank(
        method="dense", ascending=False).astype(int)
    assert rk["r"].tolist() == wr.sort_values("id")["r"].tolist()


def test_quantile_disc_exact_index_matches_duckdb():
    """q*n in binary floating point rounds UP for many decimal q
    (0.07*100 = 7.000000000000001); the disc index must use exact
    decimal arithmetic like SQL quantile_disc."""
    import duckdb

    from kgeng.ops.rank import grouped_quantiles

    vals = list(range(1, 101))
    t = pa.table({"g": ["a"] * 100, "v": pa.array(vals, pa.float64())})
    qs = [0.07, 0.017, 0.25, 0.5, 0.035]
    out = grouped_quantiles(ray.data.from_arrow(t), "g", "v", qs,
                            method="disc").to_pandas()
    con = duckdb.connect()
    for q in qs:
        want = con.execute(
            f"SELECT quantile_disc(x, {q}) FROM (SELECT unnest("
            f"{vals}) AS x)").fetchone()[0]
        got = out[out["q"] == q]["quantile_value"].iloc[0]
        assert got == want, (q, got, want)


def test_ohlc_open_close_positional_with_nulls():
    """open/close are first_value/last_value WITHOUT IGNORE NULLS: a
    null at the bar boundary must surface as null, not be skipped."""
    from kgeng.ops.window import ohlc_bars

    t = pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "user_id": pa.array([7, 7, 7], pa.int64()),
        "ts": pd.to_datetime(["2024-01-01 00:01", "2024-01-01 00:02",
                              "2024-01-01 00:03"]),
        "value": pa.array([None, 5.0, None], pa.float64()),
    })
    out = ohlc_bars(ray.data.from_arrow(t), key="user_id", ts="ts",
                    value="value", width_seconds=3600,
                    tiebreak="event_id").to_pandas()
    assert len(out) == 1
    assert np.isnan(out["open"].iloc[0]) and np.isnan(out["close"].iloc[0])
    assert out["high"].iloc[0] == 5.0 and out["low"].iloc[0] == 5.0
    assert out["n_events"].iloc[0] == 3


def test_dense_rank_null_values_rank_last():
    from kgeng.ops.rank import grouped_dense_rank

    t = pa.table({"k": pa.array([1, 1, 1, 2], pa.int64()),
                  "v": pa.array([10.0, None, 20.0, None], pa.float64())})
    out = grouped_dense_rank(ray.data.from_arrow(t), "k", "v",
                             out="r").to_pandas()
    g1 = out[out["k"] == 1].set_index("v", drop=False)
    assert g1.loc[20.0, "r"] == 1 and g1.loc[10.0, "r"] == 2
    assert out[(out["k"] == 1) & (out["v"].isna())]["r"].iloc[0] == 3
    # all-null group ranks 1
    assert out[out["k"] == 2]["r"].iloc[0] == 1


def test_sliding_count_matches_reference_and_tumbling_special_case():
    from kgeng.ops.window import sliding_count, tumbling

    rng = np.random.default_rng(53)
    n = 600
    base = pd.Timestamp("2024-02-01")
    ts = base + pd.to_timedelta(rng.integers(0, 6 * 3600, n), unit="s")
    keys = rng.choice(["a", "b"], n)
    ev = pa.table({"k": keys, "ts": ts,
                   "v": pa.array(np.ones(n, np.int64))})
    ds = ray.data.from_arrow(ev).repartition(4)
    out = sliding_count(ds, key="k", ts="ts", width_seconds=3600,
                        hop_seconds=900).to_pandas()
    # python reference
    from collections import Counter
    ref = Counter()
    e_us = (ts.astype("int64") // 10**3).to_numpy()
    for kk, e in zip(keys, e_us):
        for w in range((e - 3_600_000_000) // 900_000_000 + 1,
                       e // 900_000_000 + 1):
            ref[(kk, w)] += 1
    got = {(r["k"], r["window"]): r["n"] for _, r in out.iterrows()}
    assert got == dict(ref)
    # hop == width degenerates to tumbling counts
    sl = sliding_count(ds, key="k", ts="ts", width_seconds=3600,
                       hop_seconds=3600).to_pandas()
    tm = tumbling(ds, key="k", ts="ts", value="v",
                  width_seconds=3600).to_pandas()
    a = sl.sort_values(["k", "window"]).reset_index(drop=True)
    b = tm.sort_values(["k", "window"]).reset_index(drop=True)
    assert a["n"].tolist() == b["n"].tolist()
    with pytest.raises(ValueError):
        sliding_count(ds, key="k", ts="ts", width_seconds=3600,
                      hop_seconds=1000)


def test_fuzzy_lookup_exact_match_ties_and_no_match():
    from kgeng.ops.join import fuzzy_lookup

    catalog = ray.data.from_arrow(pa.table(
        {"name": ["apple", "apply", "banana", "cherry"]}))
    probes = ray.data.from_arrow(pa.table({
        "pid": pa.array([1, 2, 3], pa.int64()),
        # "appl" ties apple/apply at dist 1 -> 'apple' (name asc);
        # exact hit; and a string nothing is within 3 of
        "name": ["appl", "banana", "zzzzzzzzzzzz"]}))
    out = fuzzy_lookup(probes, catalog, col="name", probe_id="pid",
                       max_dist=3).to_pandas().set_index("pid")
    assert out.loc[1, "match"] == "apple" and out.loc[1, "dist"] == 1
    assert out.loc[2, "match"] == "banana" and out.loc[2, "dist"] == 0
    assert 3 not in out.index  # beyond the cap -> no row
    # partition invariance
    out2 = fuzzy_lookup(probes.repartition(3), catalog, col="name",
                        probe_id="pid", max_dist=3).to_pandas() \
        .set_index("pid")
    assert out.sort_index().equals(out2.sort_index())


def test_random_walks_reference_plans_and_sinks():
    """random_walks vs a pure-Python replay of the documented step
    rule (sorted-rank adjacency, splitmix64 choice) on plan A and plan
    B, and sink nodes end walks early."""
    import numpy as np

    from kgeng.ops.agg import _splitmix64
    from kgeng.ops.graph import _WALK_B, _WALK_G, random_walks

    rng = np.random.default_rng(7)
    n = 30
    src = rng.integers(0, n, 120).astype(np.int64)
    dst = rng.integers(0, n, 120).astype(np.int64)
    # make node 0 a guaranteed sink reachable from node 1
    src, dst = np.r_[src, [1]], np.r_[dst, [0]]
    keep = src != 0
    src, dst = src[keep], dst[keep]
    et = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    L, wpn = 4, 2

    adj = {}
    for s, d in set(zip(src.tolist(), dst.tolist())):
        adj.setdefault(s, set()).add(d)
    adj = {s: sorted(v) for s, v in adj.items()}
    want = []
    for s in sorted(adj):
        for w in range(wpn):
            cur = s
            want.append((s, w, 0, s))
            for t in range(1, L + 1):
                nbrs = adj.get(cur)
                if not nbrs:
                    break
                seed = np.uint64(cur) * np.uint64(_WALK_G) \
                    + np.uint64(w) * np.uint64(_WALK_B) + np.uint64(t)
                c = int(_splitmix64(np.array([seed], np.uint64))[0]
                        % np.uint64(len(nbrs)))
                cur = nbrs[c]
                want.append((s, w, t, cur))
    want.sort()

    for plan in PARITY:
        ds = ray.data.from_arrow(et).repartition(3)
        with graph_plan(plan):
            got = sorted(
                (r["start"], r["walk"], r["step"], r["node"])
                for r in random_walks(ds, walk_len=L,
                                      walks_per_node=wpn).take_all())
        assert got == want, plan
    # walks through the sink stopped early: node 0 appears as a walk
    # node but never as a start
    assert any(r[3] == 0 for r in want)
    assert all(r[0] != 0 for r in want)

    with pytest.raises(ValueError):
        random_walks(ray.data.from_arrow(et), walk_len=0)
    neg = pa.table({"src": pa.array([-1], pa.int64()),
                    "dst": pa.array([2], pa.int64())})
    with pytest.raises(Exception):
        random_walks(ray.data.from_arrow(neg)).take_all()
