"""Property-based checks: the distributed asof/range joins and the lag
window must match brute-force per-row references on arbitrary small
inputs (random keys, duplicate timestamps, empty sides, singleton
groups). Hypothesis drives the shapes; the references are deliberately
naive Python."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest
import ray
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgeng.ops import join


@pytest.fixture(autouse=True, scope="module")
def _three_buckets():
    """Every keyed exchange here runs on 3 buckets, so several of the
    four keys share one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(join, "_BUCKETS", 3)
        yield


def _ts(base_minutes: list[int]) -> pd.Series:
    return pd.to_datetime("2024-01-01") + pd.to_timedelta(base_minutes,
                                                          unit="m")


keys = st.integers(min_value=0, max_value=3)
minutes = st.integers(min_value=0, max_value=30)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    left=st.lists(st.tuples(keys, minutes), min_size=0, max_size=12),
    right=st.lists(st.tuples(keys, minutes), min_size=0, max_size=12),
)
def test_asof_join_matches_bruteforce(left, right):
    from kgeng.ops.join import asof_join

    lt = pa.table({
        "lid": list(range(len(left))),
        "k": [k for k, _ in left],
        "lts": _ts([m for _, m in left]),
    })
    rt = pa.table({
        "rid": list(range(len(right))),
        "rk": [k for k, _ in right],
        "rts": _ts([m for _, m in right]),
    })
    if len(lt) == 0 or len(rt) == 0:
        return  # schema() of an empty from_arrow dataset is fine but dull
    out = asof_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                    left_key="k", right_key="rk",
                    left_ts="lts", right_ts="rts",
                    tiebreak="rid").to_pandas()
    got = {int(r.lid): (None if pd.isna(r.rid) else int(r.rid))
           for r in out.itertuples()}
    # brute force: max (rts, rid) among same-key rows with rts <= lts
    want = {}
    for lid, (k, lm) in enumerate(left):
        best = None
        for rid, (rk, rm) in enumerate(right):
            if rk == k and rm <= lm:
                cand = (rm, rid)
                if best is None or cand > best:
                    best = cand
        want[lid] = best[1] if best else None
    assert got == want


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    left=st.lists(st.tuples(keys, minutes), min_size=1, max_size=12),
    right=st.lists(st.tuples(keys, minutes,
                             st.integers(min_value=0, max_value=10)),
                   min_size=1, max_size=12),
)
def test_range_join_matches_bruteforce(left, right):
    from kgeng.ops.join import range_join

    lt = pa.table({
        "lid": list(range(len(left))),
        "k": [k for k, _ in left],
        "lts": _ts([m for _, m in left]),
    })
    rt = pa.table({
        "rid": list(range(len(right))),
        "rk": [k for k, _, _ in right],
        "lo": _ts([m for _, m, _ in right]),
        "hi": _ts([m + w for _, m, w in right]),
    })
    out = range_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                     left_key="k", right_key="rk", left_ts="lts",
                     right_lo="lo", right_hi="hi").to_pandas()
    got = sorted((int(r.lid), int(r.rid)) for r in out.itertuples())
    want = sorted(
        (lid, rid)
        for lid, (k, lm) in enumerate(left)
        for rid, (rk, rm, w) in enumerate(right)
        if rk == k and rm <= lm < rm + w)
    assert got == want


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(st.tuples(st.none() | keys, minutes), min_size=1,
                     max_size=15))
def test_lag_gap_matches_bruteforce(rows):
    from kgeng.ops.window import partitioned_lag_gap

    t = pa.table({
        "eid": list(range(len(rows))),
        "k": [k for k, _ in rows],
        "ts": _ts([m for _, m in rows]),
    })
    out = (partitioned_lag_gap(ray.data.from_arrow(t), key="k", ts="ts",
                               order_tiebreak="eid")
           .to_pandas().set_index("eid"))
    # brute force per key (None is one key: SQL PARTITION BY)
    order = sorted(range(len(rows)), key=lambda i: (rows[i][1], i))
    prev: dict[int | None, int] = {}
    for i in order:
        k, m = rows[i]
        exp = float((m - prev[k]) * 60) if k in prev else None
        gap = out.loc[i, "gap_sec"]
        assert (exp is None and pd.isna(gap)) or gap == exp, (i, exp, gap)
        prev[k] = m


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    left=st.lists(keys, min_size=1, max_size=14),
    right=st.lists(keys, min_size=1, max_size=14),
)
def test_hash_join_outer_matches_pandas_fuzz(left, right):
    from kgeng.ops.join import hash_join

    lt = pa.table({"k": left, "a": list(range(len(left)))})
    rt = pa.table({"k": right, "b": list(range(len(right)))})
    got = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                    "k", how="outer").to_pandas()
    want = lt.to_pandas().merge(rt.to_pandas(), on="k", how="outer")
    cols = ["k", "a", "b"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True)
           .astype("float64"),
        want[cols].sort_values(cols).reset_index(drop=True)
            .astype("float64"))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(st.tuples(keys, st.sampled_from("pqr")),
                     min_size=1, max_size=20))
def test_grouped_mode_matches_bruteforce_fuzz(rows):
    import collections

    from kgeng.ops.agg import grouped_mode

    t = pa.table({"k": [k for k, _ in rows],
                  "v": [v for _, v in rows]})
    out = grouped_mode(ray.data.from_arrow(t).repartition(2),
                       "k", "v", out="top", count_out="n").to_pandas()
    got = {int(r.k): (r.top, int(r.n)) for r in out.itertuples()}
    want = {}
    for k in set(x for x, _ in rows):
        c = collections.Counter(v for x, v in rows if x == k)
        best = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        want[k] = best
    assert got == want


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    events=st.lists(st.tuples(keys, minutes), min_size=1, max_size=20),
    hop_mult=st.integers(min_value=1, max_value=4),
    width_mult=st.integers(min_value=1, max_value=3),
)
def test_sliding_count_matches_bruteforce(events, hop_mult, width_mult):
    from collections import Counter

    from kgeng.ops.window import sliding_count

    hop = 60 * hop_mult
    width = hop * width_mult  # aligned by construction
    t = pa.table({"k": [k for k, _ in events],
                  "ts": _ts([m for _, m in events])})
    out = sliding_count(ray.data.from_arrow(t).repartition(3),
                        key="k", ts="ts", width_seconds=width,
                        hop_seconds=hop).to_pandas()
    got = {(r["k"], r["window"]): r["n"] for _, r in out.iterrows()}
    ref = Counter()
    w_us, h_us = width * 10**6, hop * 10**6
    e_us = (_ts([m for _, m in events]).astype("int64")
            // 10**3).to_numpy()
    for (k, _), e in zip(events, e_us):
        for w in range((e - w_us) // h_us + 1, e // h_us + 1):
            ref[(k, w)] += 1
    assert got == dict(ref)
