"""Per-group ranking / order-statistics operators.

- ``top_k_per_group``: the windowed ``row_number() <= k`` pattern,
  one vectorized pandas sort + groupby-head per
  :func:`kgeng.ops.join.by_key` bucket.
- ``grouped_quantiles``: exact per-group quantiles (linear
  interpolation, matching SQL ``quantile_cont``). A group's values are
  gathered in one ``by_key`` call, so this is for LOW-CARDINALITY group
  keys whose values fit one task.
- ``approx_grouped_quantiles``: the scale path — a mergeable two-pass
  equi-width histogram sketch. Pass 1 is a groupby min/max/count
  (partial+final); pass 2 bins every value into ``num_bins`` buckets
  per group inside ``map_batches`` (partial counts) and a tiny
  ``groupby(key, bin).sum`` merges them. No group's raw values are
  ever collected anywhere; error is bounded by one bucket width,
  (max-min)/num_bins.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from kgeng.ops.join import by_key


def top_k_global(ds: ray.data.Dataset, keys: list[str], k: int,
                 descending: list[bool] | None = None) -> ray.data.Dataset:
    """Global ``ORDER BY keys LIMIT k`` as the top-k shape: every block
    first prunes itself to its local top-``k`` (one vectorized
    ``sort_indices`` + slice per block, no shuffle), then a tiny global
    sort+limit runs over the <= k-per-block survivors. A plain
    ``ds.sort(...).limit(k)`` is an all-to-all exchange of EVERY row —
    at corpus scale that is the single most expensive way to find 100
    rows. Here only k rows per block move. Deterministic for any tie
    order the caller encodes in ``keys``."""
    import pyarrow.compute as pc

    desc = descending or [False] * len(keys)
    sort_keys = [(c, "descending" if d else "ascending")
                 for c, d in zip(keys, desc)]

    def local(t: pa.Table) -> pa.Table:
        if len(t) <= k:
            return t
        order = pc.sort_indices(t, sort_keys=sort_keys)
        return t.take(order.slice(0, k))

    return ds.map_batches(local, batch_format="pyarrow") \
        .sort(keys, descending=desc).limit(k)


def top_k_per_group(ds: ray.data.Dataset, key: str, value: str, k: int,
                    tie_breakers: list[str] | None = None,
                    descending: bool = True) -> ray.data.Dataset:
    """Top-``k`` rows per ``key`` by ``value`` with deterministic
    tie-breaking (ascending ``tie_breakers`` after the value), plus a
    1-based ``rank`` column — the distributed
    ``row_number() OVER (PARTITION BY key ORDER BY value DESC) <= k``.
    """
    ties = tie_breakers or []

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, value] + ties,
                          ascending=[True, not descending]
                          + [True] * len(ties),
                          kind="mergesort")
        out = g.groupby(key, sort=False, dropna=False).head(k).copy()
        out["rank"] = out.groupby(key, sort=False,
                                  dropna=False).cumcount() + 1
        return out

    return by_key(ds, key, per_bucket)


def grouped_quantiles(ds: ray.data.Dataset, key: str, value: str,
                      quantiles: list[float],
                      round_to: int = 6,
                      method: str = "cont") -> ray.data.Dataset:
    """Exact per-group quantiles: one row per (key, q). Group count
    must be low — each group's values are gathered into one task.
    ``method="cont"`` is linear interpolation (SQL ``quantile_cont``,
    rounded to ``round_to`` on both sides); ``method="disc"`` is the
    smallest data value whose CDF reaches q (SQL ``quantile_disc`` —
    an actual data point, returned UNrounded so equality is exact).
    One per-key numpy pass per :func:`by_key` bucket."""
    if method not in ("cont", "disc"):
        raise ValueError(f"method must be cont|disc, got {method!r}")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        from fractions import Fraction

        keys_out, q_out, v_out = [], [], []
        for kval, sub in g.groupby(key, sort=False, dropna=False):
            vals = np.sort(sub[value].to_numpy(dtype=np.float64))
            if method == "cont":
                qs = [round(float(np.quantile(vals, q, method="linear")),
                            round_to) for q in quantiles]
            else:
                n = vals.size
                # exact decimal ceil: binary-float q*n rounds UP for
                # many q (0.07 * 100 = 7.000000000000001 -> ceil 8),
                # off by one vs SQL quantile_disc's exact index. The
                # shortest-repr Fraction recovers the decimal the
                # caller (and the SQL literal) wrote.
                qs = []
                for q in quantiles:
                    fq = Fraction(str(q)) * n
                    idx = fq.numerator // fq.denominator \
                        + (1 if fq.numerator % fq.denominator else 0)
                    qs.append(float(vals[max(idx - 1, 0)]))
            keys_out.extend([kval] * len(quantiles))
            q_out.extend(quantiles)
            v_out.extend(qs)
        return pd.DataFrame({key: keys_out, "q": q_out,
                             "quantile_value": v_out})

    return by_key(ds, key, per_bucket)


def _group_count_capped(ds: ray.data.Dataset, key: str, cap: int) -> int:
    """Distinct-key count, stopping as soon as ``cap`` is exceeded: a
    column-pruned streaming pass of per-batch uniques, unioned on the
    driver with early exit — never more than ``cap + batch`` keys held."""
    import pyarrow.compute as pc

    seen: set = set()
    uniq = ds.select_columns([key]).map_batches(
        lambda t: pa.table({key: pc.unique(t[key].combine_chunks())}),
        batch_format="pyarrow")
    for b in uniq.iter_batches(batch_size=None, batch_format="pyarrow"):
        seen.update(b[key].to_pylist())
        if len(seen) > cap:
            break
    return len(seen)


def grouped_quantiles_auto(ds: ray.data.Dataset, key: str, value: str,
                           quantiles: list[float],
                           max_exact_groups: int = 10_000,
                           round_to: int = 6,
                           num_bins: int = 2048) -> ray.data.Dataset:
    """Executable plan-A/B guard for per-group quantiles (verdict r02
    'Next' #7): exact ``grouped_quantiles`` while the distinct group
    count stays at or below ``max_exact_groups`` (each group's values
    must fit one task), else the mergeable histogram sketch
    ``approx_grouped_quantiles`` (never collects a group's raw values).
    The probe is a streaming early-exit distinct count over just the
    key column."""
    n = _group_count_capped(ds, key, max_exact_groups)
    if n > max_exact_groups:
        return approx_grouped_quantiles(ds, key, value, quantiles,
                                        num_bins=num_bins,
                                        round_to=round_to)
    return grouped_quantiles(ds, key, value, quantiles, round_to=round_to)


def approx_grouped_quantiles(ds: ray.data.Dataset, key: str, value: str,
                             quantiles: list[float],
                             num_bins: int = 2048,
                             round_to: int = 6) -> ray.data.Dataset:
    """Approximate per-group quantiles via a mergeable equi-width
    histogram: absolute error <= (group max - min) / num_bins. Fully
    partial+final — per-group value sets are NEVER gathered; only the
    (group, bin) count table (num_bins rows per group) shuffles. The
    small per-group (min, max) stats table rides in the map functions,
    so no task blocks in ``ray.get``."""
    from ray.data.aggregate import Count, Max, Min, Sum

    stats_rows = ds.groupby(key).aggregate(
        Min(value, alias_name="lo"), Max(value, alias_name="hi")).take_all()
    keys_arr = pa.array([r[key] for r in stats_rows])
    lo = np.array([r["lo"] for r in stats_rows], dtype=np.float64)
    hi = np.array([r["hi"] for r in stats_rows], dtype=np.float64)
    # width 0 marks a DEGENERATE group (all values identical): binning
    # guards the division and the estimator emits lo exactly — a
    # nonzero fallback width would return lo + width/2 and break the
    # (max-min)/num_bins error bound
    width = np.where(hi > lo, (hi - lo) / num_bins, 0.0)

    def bin_counts(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.index_in(t[key], value_set=keys_arr).to_numpy(
            zero_copy_only=False).astype(np.int64)
        v = t[value].to_numpy(zero_copy_only=False).astype(np.float64)
        w = width[idx]
        raw = np.divide(v - lo[idx], w, out=np.zeros_like(v),
                        where=w > 0)
        b = np.clip(raw.astype(np.int64), 0, num_bins - 1)
        # partial aggregation inside the batch: one row per (group, bin)
        part = pa.table({"__g": pa.array(idx), "__bin": pa.array(b)}) \
            .group_by(["__g", "__bin"]).aggregate([([], "count_all")])
        return pa.table({"__g": part["__g"], "__bin": part["__bin"],
                         "cnt": pc.cast(part["count_all"], pa.int64())})

    hist = ds.map_batches(bin_counts, batch_format="pyarrow") \
        .groupby(["__g", "__bin"]).aggregate(Sum("cnt", alias_name="cnt"))

    def quantiles_from_hist(g: pd.DataFrame) -> pd.DataFrame:
        gi = int(g["__g"].iloc[0])
        g = g.sort_values("__bin")
        cum = g["cnt"].cumsum().to_numpy()
        total = cum[-1]
        out_q, out_v = [], []
        for q in quantiles:
            target = q * total
            i = int(np.searchsorted(cum, target, side="left"))
            i = min(i, len(g) - 1)
            b = int(g["__bin"].iloc[i])
            est = (lo[gi] if width[gi] == 0.0
                   else lo[gi] + (b + 0.5) * width[gi])
            out_q.append(q)
            out_v.append(round(float(est), round_to))
        return pd.DataFrame({key: [keys_arr[gi].as_py()] * len(quantiles),
                             "q": out_q, "quantile_value": out_v})

    return hist.groupby("__g").map_groups(quantiles_from_hist,
                                          batch_format="pandas")


# ------------------------------------------------- global row numbering

@ray.remote
def _attach_rownum(blk, start: int, out: str):
    if not isinstance(blk, pa.Table):          # pandas block
        blk = pa.Table.from_pandas(blk, preserve_index=False)
    col = np.arange(start + 1, start + 1 + len(blk), dtype=np.int64)
    return blk.append_column(out, pa.array(col))


def global_row_number(ds: ray.data.Dataset, by: list[str],
                      out: str = "row_num",
                      descending: bool | list[bool] = False
                      ) -> ray.data.Dataset:
    """Append the GLOBAL 1-based row position under the total order
    ``by`` (make it a total order — include a unique tiebreak column —
    or positions within ties are sort-implementation-defined).

    Ray Data has no zipWithIndex; this composes one from a single sort
    shuffle plus metadata: sorted block sizes come from the ref-bundle
    metadata (no data pass), their prefix sums give each block's global
    offset, and one raw task per block appends the arange column.
    Nothing but block COUNTS ever reaches the driver, so this is the
    deterministic global-sharding / curriculum-binning primitive at any
    scale."""
    sorted_ds = ds.sort(by, descending=descending).materialize()
    pairs = [(r, m.num_rows) for b in sorted_ds.iter_internal_ref_bundles()
             for r, m in b.blocks]
    offsets = np.concatenate([[0], np.cumsum([n for _, n in pairs])])
    refs = [_attach_rownum.remote(r, int(offsets[i]), out)
            for i, (r, _) in enumerate(pairs)]
    return ray.data.from_arrow_refs(refs)


def grouped_dense_rank(ds: ray.data.Dataset, key: str, value: str,
                       out: str = "rnk",
                       descending: bool = True) -> ray.data.Dataset:
    """DENSE_RANK() OVER (PARTITION BY key ORDER BY value) — ties share
    a rank and no gaps follow. One C-level pandas
    ``rank(method='dense')`` pass per :func:`by_key` bucket. Null
    values rank LAST (one shared
    dense rank after every non-null value — DuckDB's default
    NULLS LAST); null keys form their own partition."""
    import pandas as pd

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby(key, sort=False, dropna=False)[value]
        r = grp.rank(method="dense", ascending=not descending)
        if r.isna().any():
            nmax = r.groupby(g[key], dropna=False).transform("max")
            r = r.fillna(nmax.fillna(0.0) + 1.0)
        g[out] = r.astype(np.int64)
        return g

    return by_key(ds, key, per_bucket)


def grouped_percent_rank(ds: ray.data.Dataset, key: str, value: str,
                         out: str = "pct_rank") -> ray.data.Dataset:
    """PERCENT_RANK() OVER (PARTITION BY key ORDER BY value) =
    (rank - 1) / (n - 1), 0 for single-row groups — the quantile-
    normalization transform. One C-level pandas min-rank pass per
    :func:`by_key` bucket; the divide is exact-int over
    exact-int, identical in SQL, so results hash-match without
    rounding."""
    import pandas as pd

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby(key, sort=False, dropna=False)[value]
        # na_option='bottom': SQL percent_rank ranks NULL rows too
        # (NULLS LAST under DuckDB's default) — a bare rank() would
        # emit NaN for them and break the oracle hash
        r = grp.rank(method="min",
                     na_option="bottom").to_numpy(np.float64)
        n = grp.transform("size").to_numpy(np.float64)
        g[out] = np.where(n > 1, (r - 1.0) / (n - 1.0), 0.0)
        return g

    return by_key(ds, key, per_bucket)


def grouped_mad(ds: ray.data.Dataset, key: str, value: str,
                round_to: int = 6) -> ray.data.Dataset:
    """Median absolute deviation per group (robust spread — the
    outlier-resistant sibling of grouped_stats' stddev): median of
    |x - median(x)| with linear interpolation, matching DuckDB
    ``mad()``. Same contract and plan as :func:`grouped_quantiles`:
    low group count, one per-key numpy pass per :func:`by_key`
    bucket."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keys_out, mad_out = [], []
        for kval, sub in g.groupby(key, sort=False, dropna=False):
            vals = sub[value].to_numpy(dtype=np.float64)
            med = float(np.quantile(vals, 0.5, method="linear"))
            mad_out.append(round(float(np.quantile(
                np.abs(vals - med), 0.5, method="linear")), round_to))
            keys_out.append(kval)
        return pd.DataFrame({key: keys_out, "mad": mad_out})

    return by_key(ds, key, per_bucket)
