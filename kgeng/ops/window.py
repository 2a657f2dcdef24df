"""Stream-shaped operators over an ordered, partitioned log.

Ray Data has no event-time windows or watermarks (guide §streaming):

- ``tumbling`` computes the window key vectorized (epoch // width) and
  aggregates with a partial+final groupby — no per-key grouping at all.
- ``sessionize`` and the ``partitioned_*`` window functions run one
  vectorized pandas pass (sort + grouped scan) per key bucket of
  :func:`kgeng.ops.join.by_key`.

Ordering assumption: correctness requires only per-key ordering, which
is established inside each pass — input partition order is irrelevant.
Null keys form one partition (SQL ``PARTITION BY``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from kgeng.ops.join import by_key


def sessionize(events: ray.data.Dataset, key: str = "user_id",
               ts: str = "ts",
               gap_minutes: float = 30.0) -> ray.data.Dataset:
    """Session windows per key: a new session starts when the gap since
    the previous event exceeds ``gap_minutes``. Returns one row per
    session: (key, session_id, n_events, session_start, session_end),
    ``session_id`` = 1-based rank of the session within the key.
    One vectorized pandas pass per :func:`by_key` bucket: sort +
    per-key diff + cumsum.
    """
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts], kind="mergesort")
        d = g.groupby(key, sort=False, dropna=False)[ts].diff()
        sess = (d.isna() | (d > gap)).cumsum()  # unique ids within bucket
        grouped = g.groupby(sess.values, sort=True)
        out = grouped.agg(**{key: (key, "first"),
                             "n_events": (ts, "size"),
                             "session_start": (ts, "min"),
                             "session_end": (ts, "max")})
        out = out.reset_index(drop=True)
        sid = out.groupby(key, sort=False, dropna=False).cumcount() + 1
        out.insert(1, "session_id", sid.astype(np.int64))
        return out[[key, "session_id", "n_events",
                    "session_start", "session_end"]]

    return by_key(events, key, per_bucket)


def tumbling(events: ray.data.Dataset, key: str, ts: str, value: str,
             width_seconds: int) -> ray.data.Dataset:
    """Tumbling windows per key: vectorized bucket column + groupby
    aggregate (count + sum). The partial pre-aggregation happens inside
    map_batches (see queries.events_tumbling_window for the wired-up
    version with an oracle)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    us = width_seconds * 1_000_000

    def bucket(t: pa.Table) -> pa.Table:
        # normalize to microseconds first: pandas-born timestamps arrive
        # as timestamp[ns] and a bare int64 cast would be in ns.
        # FLOOR division (numpy), not Arrow's truncate-toward-zero
        # divide: pre-epoch timestamps must window to -1, not 0,
        # matching the `epoch // width` contract and SQL `//`.
        t_us = pc.cast(t[ts], pa.timestamp("us"))
        e = pc.cast(t_us, pa.int64()).to_numpy(zero_copy_only=False)
        b = pa.array(e // us)
        return pa.table({key: t[key], "window": b, value: t[value]})

    from ray.data.aggregate import Count, Sum

    return events.map_batches(bucket, batch_format="pyarrow") \
        .groupby([key, "window"]).aggregate(
            Count(alias_name="n"), Sum(value, alias_name="total"))


def partitioned_rolling_sum(events: ray.data.Dataset, key: str,
                            ts: str, value: str, window: int,
                            order_tiebreak: str | None = None,
                            out: str = "roll_sum") -> ray.data.Dataset:
    """Rolling-window aggregate: per key, SUM(value) over the last
    ``window`` rows INCLUDING the current one, in (ts, tiebreak) order
    (SQL: ``sum(value) OVER (PARTITION BY key ORDER BY ts, tiebreak
    ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW)``).

    One vectorized pandas pass per :func:`by_key` bucket. The rolling
    sum itself is the cumsum-difference identity
    (``cumsum - cumsum.shift(window)`` within each key) — two C-level
    grouped scans, no per-key Python and no pandas ``rolling`` object
    per group. Exact for integer values below 2^53 (pandas cumsum
    carries them in int64; the grouped shift is the only float step and
    it only moves already-exact values)."""
    sort_cols = [key, ts] + ([order_tiebreak] if order_tiebreak else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(sort_cols, kind="mergesort")
        if g[value].dtype.kind not in "iu":
            # loud, not silent: a float value column would be truncated
            # by the int64 cast below, and a null would crash it —
            # scale floats to ints upstream (see queries._cents)
            raise TypeError(
                f"partitioned_rolling_sum needs an integer value "
                f"column, got {g[value].dtype}")
        cs = g.groupby(key, sort=False, dropna=False)[value].cumsum()
        # cumsum of the row `window` back, 0 before the window fills
        prev = cs.groupby(g[key].values, sort=False,
                          dropna=False).shift(window)
        g[out] = (cs - prev.fillna(0)).astype(np.int64)
        return g

    return by_key(events, key, per_bucket)


def partitioned_lag_gap(events: ray.data.Dataset, key: str = "user_id",
                        ts: str = "ts", order_tiebreak: str | None = None,
                        out: str = "gap_sec") -> ray.data.Dataset:
    """LAG-style window function: per key, seconds since the PREVIOUS
    event in (ts, tiebreak) order — NaN for each key's first event
    (SQL: ``lag(ts) OVER (PARTITION BY key ORDER BY ts, tiebreak)``).
    One sort + per-key diff per :func:`by_key` bucket."""
    sort_cols = [key, ts] + ([order_tiebreak] if order_tiebreak else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(sort_cols, kind="mergesort")
        d = g.groupby(key, sort=False, dropna=False)[ts].diff()
        g[out] = d.dt.total_seconds().astype("float64")
        return g

    return by_key(events, key, per_bucket)


def partitioned_locf(events: ray.data.Dataset, key: str, ts: str,
                     value: str, order_tiebreak: str | None = None,
                     out: str | None = None) -> ray.data.Dataset:
    """Forward-fill (last observation carried forward) per key: each
    null ``value`` takes the most recent non-null value of the SAME key
    in (ts, tiebreak) order; leading nulls stay null (SQL:
    ``last_value(value IGNORE NULLS) OVER (PARTITION BY key ORDER BY
    ts, tiebreak)``) — the gap-imputation step for sensor/event feeds.
    One sort + grouped ffill per :func:`by_key` bucket."""
    out = out or value
    sort_cols = [key, ts] + ([order_tiebreak] if order_tiebreak else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(sort_cols, kind="mergesort")
        g[out] = g.groupby(key, sort=False, dropna=False)[value].ffill()
        return g

    return by_key(events, key, per_bucket)


def ohlc_bars(events: ray.data.Dataset, key: str, ts: str, value: str,
              width_seconds: int, tiebreak: str) -> ray.data.Dataset:
    """Time-bar resampling per key: open / high / low / close of
    ``value`` within each tumbling window of ``width_seconds`` — the
    downsampling step for feature extraction over event/sensor feeds.
    Open/close are the first/last values in (ts, tiebreak) order
    (deterministic under duplicate timestamps); high/low are exact
    min/max. One sort + grouped first/last/min/max over the (key,
    window) segments per :func:`by_key` bucket."""
    import pyarrow as pa
    import pyarrow.compute as pc

    us = width_seconds * 1_000_000

    def windowed(t):
        t_us = pc.cast(t[ts], pa.timestamp("us"))
        e = pc.cast(t_us, pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({key: t[key], "window": pa.array(e // us),
                         "__e": pa.array(e), tiebreak: t[tiebreak],
                         value: t[value]})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, "window", "__e", tiebreak],
                          kind="mergesort")
        # open/close are POSITIONAL (SQL first_value/last_value keeps
        # nulls; pandas agg 'first'/'last' would skip them) — take them
        # at the vectorized run boundaries of the sorted frame
        if g[key].isna().any() or g["window"].isna().any():
            # loud: a NaN key breaks the run-boundary != comparison
            # (NaN != NaN) while groupby would merge the rows
            raise ValueError("ohlc_bars requires non-null key and ts")
        kv = g[key].to_numpy()
        wv = g["window"].to_numpy()
        starts = np.flatnonzero(
            np.r_[True, (kv[1:] != kv[:-1]) | (wv[1:] != wv[:-1])])
        ends = np.r_[starts[1:], [len(g)]] - 1
        vals = g[value].to_numpy()
        grp = g.groupby([key, "window"], sort=False)[value]
        agg = grp.agg(["max", "min", "size"]).reset_index()
        agg.columns = [key, "window", "high", "low", "n_events"]
        agg.insert(2, "open", vals[starts])
        agg["close"] = vals[ends]
        agg["n_events"] = agg["n_events"].astype(np.int64)
        return agg[[key, "window", "open", "high", "low", "close",
                    "n_events"]]

    return by_key(events.map_batches(windowed, batch_format="pyarrow"),
                  key, per_bucket)


def partitioned_cumsum(events: ray.data.Dataset, key: str, ts: str,
                       value: str, tiebreak: str,
                       out: str = "running_total") -> ray.data.Dataset:
    """Running total per key in (ts, tiebreak) order (SQL: ``sum(value)
    OVER (PARTITION BY key ORDER BY ts, tiebreak ROWS UNBOUNDED
    PRECEDING)``). The caller should pass an INTEGER value column
    (quantized cents) so partial order never changes the sum — the
    established float policy. One sort + grouped cumsum per
    :func:`by_key` bucket."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, tiebreak], kind="mergesort")
        g[out] = g.groupby(key, sort=False,
                           dropna=False)[value].cumsum()
        return g

    return by_key(events, key, per_bucket)


def sliding_count(events: ray.data.Dataset, key: str, ts: str,
                  width_seconds: int,
                  hop_seconds: int) -> ray.data.Dataset:
    """SLIDING (hopping) windows per key: every window of
    ``width_seconds`` starting on a ``hop_seconds`` boundary counts the
    events inside it — each event belongs to width/hop windows
    (tumbling is the hop == width special case). Returns
    (key, window — the hop index of the window START, n).

    Per batch the window-index expansion is one vectorized repeat
    (floor((e - width)/hop) + 1 .. floor(e/hop), exact integer
    arithmetic) followed by an in-batch partial count, so the shuffle
    moves (key, window, partial) rows — never the event expansion."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if width_seconds % hop_seconds:
        raise ValueError("width must be a multiple of hop (aligned "
                         "hopping windows)")
    w_us = width_seconds * 1_000_000
    h_us = hop_seconds * 1_000_000

    def expand(t: pa.Table) -> pa.Table:
        import pandas as pd

        t_us = pc.cast(t[ts], pa.timestamp("us"))
        e = pc.cast(t_us, pa.int64()).to_numpy(zero_copy_only=False)
        lo = (e - w_us) // h_us + 1
        hi = e // h_us  # inclusive
        cnt = (hi - lo + 1).astype(np.int64)
        wins = np.repeat(lo, cnt) + (
            np.arange(int(cnt.sum()), dtype=np.int64)
            - np.repeat(np.cumsum(cnt) - cnt, cnt))
        keys = t[key].to_pandas().to_numpy()
        g = pd.DataFrame({"k": np.repeat(keys, cnt), "w": wins}) \
            .groupby(["k", "w"], sort=False, dropna=False).size()
        return pa.table({
            key: pa.array(g.index.get_level_values(0).to_numpy()),
            "window": pa.array(
                g.index.get_level_values(1).to_numpy(np.int64)),
            "n_p": pa.array(g.to_numpy(np.int64))})

    from ray.data.aggregate import Sum

    return events.map_batches(expand, batch_format="pyarrow") \
        .groupby([key, "window"]).aggregate(Sum("n_p", alias_name="n"))
