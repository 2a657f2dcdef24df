"""Skew-aware aggregation: partial (combiner) pre-aggregation and hot-key
salting — the north rule's explicit skew handling for Zipfian entity keys.

``salted_count``: count rows per key without ever forming a hot-key group:
1. map_batches: vectorized per-batch value_counts -> (key, partial_count)
   — one row per key per batch, so the shuffle moves partials, not rows;
2. salt: append ``#<row position % S>`` so a hot key's PARTIALS (one per
   batch, at varying positions) spread over up to S reducers — the salt
   must vary across a key's partial rows, a key-deterministic hash would
   send them all to one reducer;
3. groupby(salted) sum -> unsalt -> second (tiny) groupby(key) sum.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def salted_count(ds: ray.data.Dataset, key: str, salt: int = 16,
                 out: str = "n", key_type=None) -> ray.data.Dataset:
    """Row count per distinct ``key`` value; skew-immune. Returns
    Dataset(key, out). Non-string keys salt through their decimal
    string form; pass ``key_type`` (a pyarrow type) to cast the result
    key column back."""

    _NULL = "\x00null\x00"  # sentinel: null keys stay a (SQL-style) group

    def partial(t: pa.Table) -> pa.Table:
        counts = t.group_by([key]).aggregate([([], "count_all")])
        ks = counts[key].combine_chunks()
        if not pa.types.is_string(ks.type):
            ks = pc.cast(ks, pa.string())
        ks = pc.fill_null(ks, _NULL)
        cnt = counts["count_all"]
        # per-ROW salt (position % S): a hot key's partials sit at
        # different positions across batches, so they spread over up to
        # S reducers — a key-deterministic hash would not spread at all
        sidx = np.arange(len(ks), dtype=np.int64) % salt
        salted = pc.binary_join_element_wise(
            ks, pa.scalar("#"), pa.array(sidx.astype(str)), "")
        return pa.table({"salted": salted,
                         "partial": pc.cast(cnt, pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    summed = partials.groupby("salted").sum("partial")
    summed = summed.map_batches(
        lambda t: t.rename_columns(["salted", "partial"]),
        batch_format="pyarrow")

    def unsalt(t: pa.Table) -> pa.Table:
        ks = t["salted"].to_pylist()
        # the null sentinel stays until AFTER the final groupby — Ray's
        # sort-based shuffle cannot order null against string keys
        bare = [s.rsplit("#", 1)[0] for s in ks]
        return pa.table({key: pa.array(bare, pa.string()),
                         "partial": t["partial"]})

    unsalted = summed.map_batches(unsalt, batch_format="pyarrow")
    final = unsalted.groupby(key).sum("partial")

    def finish(t: pa.Table) -> pa.Table:
        t = t.rename_columns([key, out])
        ks = pc.if_else(pc.equal(t[key], _NULL),
                        pa.scalar(None, pa.string()), t[key])
        t = t.set_column(0, key, ks)
        if key_type is not None:
            t = t.set_column(0, key, pc.cast(t[key], key_type))
        return t

    return final.map_batches(finish, batch_format="pyarrow")


def grouped_string_agg(ds: ray.data.Dataset, key: str, value: str,
                       order_by: list[str], sep: str = ",",
                       out: str = "agg",
                       num_buckets: int = 64) -> ray.data.Dataset:
    """Ordered string aggregation per key (SQL: ``string_agg(value, sep
    ORDER BY order_by...)``) — the collect-to-list shape. Same coarse-
    bucket plan as the windowed ops: one shuffle into a bounded number
    of hash buckets, then ONE vectorized pandas pass per bucket (sort +
    C-level groupby join), never a Python call per key. A key's rows all
    land in one bucket, so the per-bucket concatenation is exact."""
    import pandas as pd

    def bucket(t: pa.Table) -> pa.Table:
        from kgeng.ops.join import _bucket_ids

        b = _bucket_ids(t, key, num_buckets)
        return t.append_column("__bucket", pa.array(b.astype(np.int32)))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order_by, kind="mergesort")
        s = g.groupby(key, sort=False)[value].agg(sep.join)
        return pd.DataFrame({key: s.index.to_numpy(), out: s.to_numpy()})

    return ds.map_batches(bucket, batch_format="pyarrow") \
        .groupby("__bucket").map_groups(per_bucket, batch_format="pandas")


def pivot_count(ds: ray.data.Dataset, key: str, pivot: str,
                values: list[str], prefix: str = "n_") -> ray.data.Dataset:
    """Pivot-by-count: one row per ``key`` with a ``prefix<v>`` int64
    column per pivot value in ``values`` (SQL: ``count(*) FILTER
    (WHERE pivot = v)`` per v).

    Plan: per-batch WIDE partial — each pivot value becomes a 0/1 mask
    column summed per key inside the batch (all `pyarrow.compute`) — so
    the shuffle moves one wide row per key per batch, never raw rows;
    then one small groupby sums the partials. Pivot values must be
    enumerated up front (standard for pivot: the output schema cannot
    depend on the data)."""
    from ray.data.aggregate import Sum

    cols = [f"{prefix}{v}" for v in values]

    def partial(t: pa.Table) -> pa.Table:
        masks = {c: pc.cast(pc.equal(t[pivot], v), pa.int64())
                 for c, v in zip(cols, values)}
        wide = pa.table({key: t[key], **masks})
        return wide.group_by([key]).aggregate([(c, "sum") for c in cols])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    final = partials.groupby(key).aggregate(
        *[Sum(f"{c}_sum", alias_name=c) for c in cols])

    def order(t: pa.Table) -> pa.Table:
        return t.select([key] + cols)

    return final.map_batches(order, batch_format="pyarrow")


def grouped_count_distinct(ds: ray.data.Dataset, key: str, value: str,
                           out: str = "n_distinct") -> ray.data.Dataset:
    """Exact COUNT(DISTINCT value) GROUP BY key. Per-batch partial
    dedup shrinks the shuffle to the batch's distinct (key, value)
    pairs; one groupby materializes globally-unique pairs; a second
    (tiny — one row per surviving pair) partial+final count finishes.
    The pair shuffle is the unavoidable cost of exactness — see
    :func:`hll_count_distinct` for the sketch that avoids it."""
    from ray.data.aggregate import Count

    def distinct_pairs(t: pa.Table) -> pa.Table:
        # SQL COUNT(DISTINCT value) ignores null values (null KEYS
        # still form a group, matching GROUP BY)
        t = t.filter(pc.is_valid(t[value]))
        g = t.group_by([key, value]).aggregate([([], "count_all")])
        return g.select([key, value])

    pairs = ds.map_batches(distinct_pairs, batch_format="pyarrow") \
        .groupby([key, value]).aggregate(Count(alias_name="__c"))

    def count_per_key(t: pa.Table) -> pa.Table:
        g = t.group_by([key]).aggregate([([], "count_all")])
        return g.rename_columns([key, "partial"])

    final = pairs.map_batches(count_per_key, batch_format="pyarrow") \
        .groupby(key).sum("partial")
    return final.map_batches(
        lambda t: t.rename_columns([key, out]), batch_format="pyarrow")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constants) —
    uint64 in/out, numpy wrapping arithmetic."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hll_count_distinct(ds: ray.data.Dataset, key: str, value: str,
                       p: int = 12,
                       out: str = "n_approx") -> ray.data.Dataset:
    """Approximate COUNT(DISTINCT value) GROUP BY key via a mergeable
    HyperLogLog sketch (Flajolet et al. 2007): 2^p byte registers per
    key (~1.04/sqrt(2^p) relative error; 1.6% at the default p=12),
    with the standard linear-counting correction for small
    cardinalities.

    This is the 100-TB shape for distinct counts: each batch emits ONE
    (key, 2^p-byte register blob) row per key it contains, so the
    shuffle volume is #batches x #keys x 4 KB regardless of row count —
    the exact version (:func:`grouped_count_distinct`) must shuffle
    every distinct pair. ``value`` must be integer-typed (hash is a
    vectorized splitmix64); register merge is an elementwise max."""
    import pandas as pd

    if p < 11:
        # the frexp bit-length trick below is exact only while the low
        # 64-p bits fit a float64 mantissa (64-p <= 53)
        raise ValueError(f"p must be >= 11 (got {p})")
    m = 1 << p
    wbits = np.uint64(64 - p)
    wmask = (np.uint64(1) << wbits) - np.uint64(1)
    max_rank = np.uint8(64 - p + 1)
    alpha = 0.7213 / (1.0 + 1.079 / m)

    def partial(t: pa.Table) -> pa.Table:
        vals = t[value].to_numpy(zero_copy_only=False)
        if vals.dtype.kind not in "iu":
            raise TypeError(
                f"hll_count_distinct needs an integer value column, got "
                f"{vals.dtype} — hash strings to int64 upstream")
        h = _splitmix64(vals.astype(np.uint64))
        idx = (h >> wbits).astype(np.int64)
        w = h & wmask
        # rank = leading-zero count of the low 64-p bits, + 1.
        # frexp exponent == bit length (exact: w < 2^52 <= 2^53).
        bitlen = np.frexp(w.astype(np.float64))[1]
        rank = (max_rank - bitlen.astype(np.uint8))
        rank[w == 0] = max_rank
        keys = t[key].to_numpy(zero_copy_only=False)
        # one vectorized pass over ALL keys: flat (n_keys x m) register
        # matrix indexed by inverse-key * m + register — no per-key scan
        uniq, inv = np.unique(keys, return_inverse=True)
        flat = np.zeros(len(uniq) * m, np.uint8)
        np.maximum.at(flat, inv * np.int64(m) + idx, rank)
        kt = t.schema.field(key).type
        return pa.table({
            key: pa.array(uniq, kt),
            "__regs": pa.array([row.tobytes()
                                for row in flat.reshape(len(uniq), m)],
                               pa.binary())})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        regs = np.maximum.reduce(
            [np.frombuffer(b, np.uint8) for b in g["__regs"]])
        est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
        zeros = int((regs == 0).sum())
        if est <= 2.5 * m and zeros > 0:
            est = m * np.log(m / zeros)
        return pd.DataFrame({key: [g[key].iloc[0]],
                             out: np.array([round(est)], np.int64)})

    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(key).map_groups(merge, batch_format="pandas")


def small_key_aggregate(ds: ray.data.Dataset, keys: list[str],
                        aggs: list[tuple],
                        max_partial_rows: int = 200_000
                        ) -> ray.data.Dataset:
    """Partial+final grouped aggregate for BOUNDED key cardinality
    (flags, order priorities, market segments, time buckets): one
    vectorized Arrow ``group_by`` per block produces <= n_keys partial
    rows, and the final combine runs on the DRIVER over the streamed
    partials — the coordinator-final plan every distributed SQL engine
    picks for a low-cardinality GROUP BY. The alternative (a full Ray
    sort shuffle) schedules map+reduce task counts independent of the
    6-row answer; at bench scale that fixed overhead IS the query wall.

    ``aggs``: (col, fn, alias) with fn in {"sum", "min", "max",
    "count", "count_all"} (col is ignored for count_all; "count"
    counts non-null). Partials merge exactly: sum/count re-sum,
    min/max re-min/max — so integer-cents sums stay order-invariant
    and oracle-exact. Means: request sum + count and divide after.

    Loud guard: raises if any block's partial exceeds
    ``max_partial_rows`` — the key was not actually small-cardinality;
    use ``groupby``/``salted_count`` instead. Driver memory is bounded
    by n_keys x n_blocks partial rows (it holds one concatenation of
    per-block <=n_keys-row tables, never input rows)."""
    spec = [((c, f) if f != "count_all" else ([], f))
            for c, f, _ in aggs]

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate(spec)
        if g.num_rows > max_partial_rows:
            raise ValueError(
                f"small_key_aggregate: a single block produced "
                f"{g.num_rows} groups (> {max_partial_rows}) for keys "
                f"{keys} — this key is not small-cardinality; use "
                f"groupby()/salted_count() instead")
        return g

    parts = list(ds.map_batches(partial, batch_format="pyarrow")
                 .iter_batches(batch_size=None, batch_format="pyarrow"))
    if parts:
        tbl = pa.concat_tables(parts, promote_options="default")
    else:
        tbl = partial(_arrow_schema_of(ds).empty_table())
    merge_of = {"sum": "sum", "count": "sum", "count_all": "sum",
                "min": "min", "max": "max"}
    mangled = [f"{c}_{f}" if f != "count_all" else "count_all"
               for c, f, _ in aggs]
    fin = tbl.group_by(keys, use_threads=False).aggregate(
        [(m, merge_of[f]) for m, (_, f, _a) in zip(mangled, aggs)])
    cols = {k: fin[k] for k in keys}
    for m, (_, f, alias) in zip(mangled, aggs):
        cols[alias] = fin[f"{m}_{merge_of[f]}"]
    return ray.data.from_arrow(pa.table(cols))


def _arrow_schema_of(ds: ray.data.Dataset) -> pa.Schema:
    """ray Schema -> pyarrow Schema (for empty-input shaping)."""
    sch = ds.schema()
    return pa.schema(list(zip(sch.names, sch.types)))


def partial_sum(ds: ray.data.Dataset, key: str, value: str,
                out: str = "total") -> ray.data.Dataset:
    """Partial+final SUM(value) GROUP BY key (combiner pattern): per-batch
    vectorized group-sum, then a global groupby over the partials."""

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by([key]).aggregate([(value, "sum")])
        return g.rename_columns([key, "partial"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    final = partials.groupby(key).sum("partial")
    return final.map_batches(
        lambda t: t.rename_columns([key, out]), batch_format="pyarrow")


def grouped_mode(ds: ray.data.Dataset, key: str, value: str,
                 out: str = "top_value", count_out: str = "n",
                 num_buckets: int = 64,
                 key_type=pa.int64(),
                 value_type=pa.string()) -> ray.data.Dataset:
    """Most frequent ``value`` per ``key`` (the grouped MODE / argmax),
    deterministic tiebreak: the smallest value wins. Plan: per-batch
    vectorized (key, value) partial counts (the shuffle moves partials,
    not rows), ONE global (key, value) sum, then a per-key argmax via
    coarse key buckets + a C-level pandas reduction inside each bucket
    (millions of tiny map_groups are pathological; 64 buckets are not).
    Returns Dataset(key, out, count_out). ``key_type``/``value_type``
    state the column types for the zero-column empty partitions the
    groupby can emit (schema can't be inferred from an empty block)."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([key, value]).group_by([key, value]) \
            .aggregate([([], "count_all")])
        return g.rename_columns([key, value, "c"])

    summed = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby([key, value]).sum("c")

    def tag(t: pa.Table) -> pa.Table:
        from kgeng.ops.join import _bucket_ids

        if t.num_columns < 3:
            return pa.table({key: pa.array([], key_type),
                             value: pa.array([], value_type),
                             "c": pa.array([], pa.int64()),
                             "__b": pa.array([], pa.int32())})
        t = t.rename_columns([key, value, "c"])
        b = _bucket_ids(t, key, num_buckets)
        return t.append_column("__b", pa.array(b.astype(np.int32)))

    def argmax(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, "c", value],
                            ascending=[True, False, True],
                            kind="mergesort")
        top = df.drop_duplicates(subset=[key], keep="first")
        return top.rename(columns={value: out, "c": count_out})[
            [key, out, count_out]]

    return summed.map_batches(tag, batch_format="pyarrow") \
        .groupby("__b").map_groups(argmax, batch_format="pandas")


def melt(ds: ray.data.Dataset, id_cols: list[str],
         value_cols: list[str], var_name: str = "variable",
         value_name: str = "value") -> ray.data.Dataset:
    """Wide -> long unpivot (the inverse of :func:`pivot_count`): each
    row emits one output row per value column. Pure per-batch Arrow
    concat — stateless, no shuffle, any scale. Heterogeneous value
    columns promote to float64 (concat requires one value type);
    homogeneous columns keep their type."""
    def mb(t: pa.Table) -> pa.Table:
        vtypes = {str(t.schema.field(c).type) for c in value_cols}
        parts = []
        for c in value_cols:
            cols = {i: t[i] for i in id_cols}
            cols[var_name] = pa.array([c] * len(t), pa.string())
            v = t[c]
            if len(vtypes) > 1:
                v = pc.cast(v, pa.float64())
            cols[value_name] = v
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(mb, batch_format="pyarrow")


def grouped_corr(ds: ray.data.Dataset, key: str, x: str, y: str,
                 out: str = "corr", ndigits: int = 6,
                 small_keys: bool = False) -> ray.data.Dataset:
    """Pearson correlation per group from EXACT integer moments.

    ``x``/``y`` must already be int64 (callers scale floats to an
    integer grid first — same discipline as the `_cents` money sums):
    each batch emits per-group partial (n, Sx, Sy, Sxx, Syy, Sxy), all
    exact in int64, the groupby sums them exactly, and the single
    float expression at the end is stated IDENTICALLY in the SQL
    oracle — equal integer inputs + the same IEEE-754 tree = bit-equal
    output, so partial-sum order across partitions can never move the
    result. NULL when either variance is zero (SQL corr convention).

    int64 exactness is PROVED, not assumed: each batch also tracks the
    per-group max |x*x| / |y*y| / |x*y| terms, and the finish stage
    raises loudly when n * max_term could exceed int64 (the SQL side
    promotes to int128, so a silent numpy wraparound would otherwise
    diverge from the oracle with no error) — rescale inputs or shard
    the group when that fires."""
    from ray.data.aggregate import Max, Sum

    def partial(t: pa.Table) -> pa.Table:
        xv = t[x].to_numpy(zero_copy_only=False).astype(np.int64)
        yv = t[y].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(xv) and (np.abs(xv).max() >= (1 << 31)
                        or np.abs(yv).max() >= (1 << 31)):
            raise ValueError("grouped_corr inputs must fit 31 bits so "
                             "per-row cross terms stay exact in int64 "
                             "— rescale to a coarser grid")
        terms = np.maximum(xv * xv, np.maximum(yv * yv,
                                               np.abs(xv * yv)))
        g = pa.table({
            key: t[key],
            "n_p": pa.array(np.ones(len(xv), np.int64)),
            "sx_p": pa.array(xv), "sy_p": pa.array(yv),
            "sxx_p": pa.array(xv * xv), "syy_p": pa.array(yv * yv),
            "sxy_p": pa.array(xv * yv), "mt_p": pa.array(terms),
        }).group_by([key]).aggregate([
            ("n_p", "sum"), ("sx_p", "sum"), ("sy_p", "sum"),
            ("sxx_p", "sum"), ("syy_p", "sum"), ("sxy_p", "sum"),
            ("mt_p", "max")])
        return g.rename_columns(
            [key, "n_p", "sx_p", "sy_p", "sxx_p", "syy_p", "sxy_p",
             "mt_p"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    if small_keys:
        # bounded key cardinality (flags): driver-final combine over
        # the streamed partials — exact (int sums / max), no shuffle
        moments = small_key_aggregate(
            partials, [key],
            [("n_p", "sum", "n"), ("sx_p", "sum", "sx"),
             ("sy_p", "sum", "sy"), ("sxx_p", "sum", "sxx"),
             ("syy_p", "sum", "syy"), ("sxy_p", "sum", "sxy"),
             ("mt_p", "max", "mt")])
    else:
        moments = partials.groupby(key).aggregate(
            Sum("n_p", alias_name="n"), Sum("sx_p", alias_name="sx"),
            Sum("sy_p", alias_name="sy"), Sum("sxx_p", alias_name="sxx"),
            Sum("syy_p", alias_name="syy"), Sum("sxy_p", alias_name="sxy"),
            Max("mt_p", alias_name="mt"))

    def finish(t: pa.Table) -> pa.Table:
        n_i = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        mt = t["mt"].to_numpy(zero_copy_only=False).astype(np.int64)
        # Syy <= n * max(y*y) etc. (cross terms bounded by |max|), so
        # this bound holding proves no int64 partial-sum wrapped
        if len(n_i) and np.any(mt.astype(np.float64)
                               * n_i.astype(np.float64) >= 2.0 ** 62):
            raise ValueError(
                "grouped_corr moment sums may exceed int64 for a group "
                "(n * max term >= 2^62): rescale x/y to a coarser "
                "integer grid or pre-shard the group")
        f = {c: t[c].to_numpy(zero_copy_only=False).astype(np.float64)
             for c in ("n", "sx", "sy", "sxx", "syy", "sxy")}
        vx = f["n"] * f["sxx"] - f["sx"] * f["sx"]
        vy = f["n"] * f["syy"] - f["sy"] * f["sy"]
        cov = f["n"] * f["sxy"] - f["sx"] * f["sy"]
        denom2 = vx * vy
        with np.errstate(invalid="ignore", divide="ignore"):
            r = cov / np.sqrt(denom2)
        vals = pa.array(np.where(denom2 <= 0, np.nan, r), pa.float64())
        vals = pc.if_else(pc.is_nan(vals), pa.scalar(None, pa.float64()),
                          pc.round(vals, ndigits=ndigits,
                                   round_mode="half_towards_infinity"))
        return pa.table({key: t[key], "n": pc.cast(t["n"], pa.int64()),
                         out: vals})

    return moments.map_batches(finish, batch_format="pyarrow")


def grouped_stats(ds: ray.data.Dataset, key: str, x: str,
                  ndigits: int = 6,
                  small_keys: bool = False) -> ray.data.Dataset:
    """Per-group count / mean / sample stddev from EXACT integer
    moments — same discipline as :func:`grouped_corr`: ``x`` must be
    int64 on an integer grid, partials (n, Sx, Sxx) sum exactly, and
    the one float expression at the end is stated identically in the
    SQL oracle, so the match is bit-exact. stddev uses the n-1
    denominator (SQL stddev_samp); NULL when n < 2. The same loud
    n * max-term overflow proof as grouped_corr guards int64."""
    from ray.data.aggregate import Max, Sum

    def partial(t: pa.Table) -> pa.Table:
        xv = t[x].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(xv) and np.abs(xv).max() >= (1 << 31):
            raise ValueError("grouped_stats inputs must fit 31 bits — "
                             "rescale to a coarser grid")
        g = pa.table({
            key: t[key],
            "n_p": pa.array(np.ones(len(xv), np.int64)),
            "sx_p": pa.array(xv), "sxx_p": pa.array(xv * xv),
            "mt_p": pa.array(xv * xv),
        }).group_by([key]).aggregate([
            ("n_p", "sum"), ("sx_p", "sum"), ("sxx_p", "sum"),
            ("mt_p", "max")])
        return g.rename_columns([key, "n_p", "sx_p", "sxx_p", "mt_p"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    if small_keys:
        moments = small_key_aggregate(
            partials, [key],
            [("n_p", "sum", "n"), ("sx_p", "sum", "sx"),
             ("sxx_p", "sum", "sxx"), ("mt_p", "max", "mt")])
    else:
        moments = partials.groupby(key).aggregate(
            Sum("n_p", alias_name="n"), Sum("sx_p", alias_name="sx"),
            Sum("sxx_p", alias_name="sxx"), Max("mt_p", alias_name="mt"))

    def finish(t: pa.Table) -> pa.Table:
        n_i = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        mt = t["mt"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(n_i) and np.any(mt.astype(np.float64)
                               * n_i.astype(np.float64) >= 2.0 ** 62):
            raise ValueError(
                "grouped_stats moment sums may exceed int64 for a "
                "group: rescale x or pre-shard the group")
        n = n_i.astype(np.float64)
        sx = t["sx"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = t["sxx"].to_numpy(zero_copy_only=False).astype(np.float64)
        mean = sx / n
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (n * sxx - sx * sx) / (n * (n - 1.0))
            sd = np.sqrt(var)
        rnd = lambda a: pc.round(pa.array(a, pa.float64()),
                                 ndigits=ndigits,
                                 round_mode="half_towards_infinity")
        sd_col = pc.if_else(pa.array(n_i < 2), pa.scalar(None, pa.float64()),
                            rnd(sd))
        return pa.table({key: t[key], "n": pc.cast(t["n"], pa.int64()),
                         "mean_x": rnd(mean), "stddev_x": sd_col})

    return moments.map_batches(finish, batch_format="pyarrow")


def misra_gries_topk(ds: ray.data.Dataset, key: str, k: int = 20,
                     capacity: int = 4096,
                     weight: str | None = None) -> ray.data.Dataset:
    """Approximate global top-k heavy hitters via mergeable Misra-Gries
    summaries (Agarwal et al., "Mergeable Summaries", PODS 2012) — the
    scale path for exact top-k when per-block partials are NOT
    vocabulary-bounded.

    Per block: exact value counts (or weight sums), then one MG trim —
    subtract the (capacity+1)-th largest counter from every counter and
    drop the non-positives, so at most ``capacity`` survivors leave the
    block and the subtracted amount ``d`` is the block's error
    contribution. Summing trimmed summaries + re-trimming IS the MG
    merge, so the shuffle moves <= capacity rows per block regardless
    of key cardinality. Guarantee carried to the output:

        true_count - err_bound <= est <= true_count

    with ``err_bound`` = sum of the per-block ``d``s (reported as a
    column, not asserted — the caller sees the actual bound for THIS
    run; when every block's cardinality fits ``capacity`` the bound is
    0 and the result is exact). Final top-k: one tiny distributed
    sort+limit over the merged candidates; ties break key-ascending."""
    from ray.data.aggregate import Sum

    if capacity < k:
        raise ValueError(f"capacity {capacity} < k {k}")

    merged = ds.map_batches(_mg_partial_fn(key, weight, capacity),
                            batch_format="pyarrow") \
        .groupby(["tag", key]).aggregate(Sum("est", alias_name="est")) \
        .materialize()

    err = merged.filter(expr="tag == 1")
    err_total = int(sum(r["est"] for r in err.take_all()))

    def neg(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["tag"], 0))
        return pa.table({key: t[key],
                         "est": pc.cast(t["est"], pa.int64()),
                         "neg": pc.negate(pc.cast(t["est"], pa.int64()))})

    top = merged.map_batches(neg, batch_format="pyarrow") \
        .sort(["neg", key]).limit(k)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({key: t[key], "est": t["est"],
                         "err_bound": pa.array(
                             np.full(len(t), err_total, np.int64))})

    return top.map_batches(finish, batch_format="pyarrow")


def _mg_partial_fn(key: str, weight: str | None, capacity: int):
    """The per-block Misra-Gries summary kernel shared by
    :func:`misra_gries_topk` and :func:`heavy_hitters_rescan`: exact
    in-block counts, one trim to ``capacity`` survivors, plus a
    sentinel row (tag=1) carrying the block's error contribution."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        if not (pa.types.is_string(t[key].type)
                or pa.types.is_large_string(t[key].type)):
            raise TypeError(
                f"misra_gries_topk key {key!r} must be a string column "
                f"(got {t[key].type}); cast upstream — the sentinel "
                "error row shares the column")
        if weight is not None and not pa.types.is_integer(
                t[weight].type):
            raise TypeError(
                f"weight column {weight!r} must be integer (got "
                f"{t[weight].type}): float weights would truncate and "
                "break the true-err_bound<=est<=true guarantee; "
                "quantize upstream (see queries._cents)")
        if t[key].null_count:
            raise ValueError(
                f"misra_gries_topk key {key!r} has "
                f"{t[key].null_count} null(s); pandas groupby would "
                "silently drop them and the estimate would undercount "
                "— fill_null upstream (a null key has no MG identity)")
        if weight is not None and pc.min(t[weight]).as_py() is not None \
                and pc.min(t[weight]).as_py() < 0:
            raise ValueError(
                f"misra_gries_topk weight {weight!r} has negative "
                "values; MG counters assume non-negative increments — "
                "the true-err_bound<=est<=true guarantee does not hold "
                "for signed weights")
        if weight is None:
            vc = t[key].to_pandas().value_counts(sort=False)
            keys = vc.index.to_numpy()
            cnts = vc.to_numpy(np.int64)
        else:
            g = pd.DataFrame({
                "k": t[key].to_pandas(),
                "w": t[weight].to_numpy(zero_copy_only=False),
            }).groupby("k", sort=False)["w"].sum()
            keys = g.index.to_numpy()
            cnts = g.to_numpy(np.int64)
        d = np.int64(0)
        if cnts.size > capacity:
            d = np.partition(cnts, cnts.size - capacity - 1)[
                cnts.size - capacity - 1]
            keep = cnts > d
            keys, cnts = keys[keep], cnts[keep] - d
        return pa.table({
            key: pa.array(np.r_[keys, [""]].astype(object), pa.string()),
            "est": pa.array(np.r_[cnts, [d]].astype(np.int64)),
            "tag": pa.array(
                np.r_[np.zeros(cnts.size, np.int8), [1]].astype(np.int8)),
        })

    return partial


def heavy_hitters_rescan(ds: ray.data.Dataset, key: str, k: int = 20,
                         capacity: int = 1024,
                         weight: str | None = None,
                         max_candidates: int = 262_144
                         ) -> ray.data.Dataset:
    """EXACT global top-k heavy hitters via the production two-pass
    shape: a Misra-Gries candidate sweep (pass 1 — each block ships at
    most ``capacity`` rows no matter the vocabulary) followed by one
    exact count pass restricted to the broadcast candidate set (pass 2
    — per-block counts are candidate-bounded, so the second shuffle is
    tiny too). Unlike :func:`misra_gries_topk` the OUTPUT is exact and
    partition-invariant: MG guarantees every key with true count above
    the run's error bound survives pass 1, so as long as the k-th true
    count exceeds that bound the exact top-k is provably inside the
    candidate set. That certificate is CHECKED at the end — if the
    sketch was too coarse for this data the call raises (asking for a
    larger ``capacity``) instead of silently returning a maybe-wrong
    top-k. Output (key, tf) with ties broken key-ascending — identical
    to the exact one-pass top-k, hence SQL-oracle-able.

    ``max_candidates`` bounds the driver-held candidate set (merged MG
    survivors; in theory up to blocks x capacity, in practice ~capacity)
    — the same loud plan-A cutover style as the dedup verify path."""
    from ray.data.aggregate import Sum

    if capacity < k:
        raise ValueError(f"capacity {capacity} < k {k}")

    merged = ds.map_batches(_mg_partial_fn(key, weight, capacity),
                            batch_format="pyarrow") \
        .groupby(["tag", key]).aggregate(Sum("est", alias_name="est")) \
        .materialize()
    err_rows = merged.filter(expr="tag == 1").take_all()
    err_total = int(sum(r["est"] for r in err_rows))
    # bound the candidate pull BEFORE it happens: every row of the
    # materialized merge but the (at most one) error row is a candidate,
    # and its row count is block metadata
    n_cand = merged.count() - len(err_rows)
    if n_cand > max_candidates:
        raise ValueError(
            f"heavy_hitters_rescan: {n_cand} merged candidates "
            f"exceed max_candidates={max_candidates}; raise capacity, "
            "improve block coherence (fewer, larger blocks), or raise "
            "max_candidates")

    def pick_keys(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["tag"], 0))
        return pa.table({key: t[key]})

    cand = merged.map_batches(pick_keys, batch_format="pyarrow") \
        .take_all()
    cand_set = pa.array([r[key] for r in cand], pa.string())
    ref = ray.put(cand_set)

    def exact_partial(t: pa.Table) -> pa.Table:
        import pandas as pd
        vs = ray.get(ref)
        keep = t.filter(pc.is_in(t[key], value_set=vs))
        if weight is None:
            vc = keep[key].to_pandas().value_counts(sort=False)
            keys, cnts = vc.index.to_numpy(), vc.to_numpy(np.int64)
        else:
            g = pd.DataFrame({
                "k": keep[key].to_pandas(),
                "w": keep[weight].to_numpy(zero_copy_only=False),
            }).groupby("k", sort=False)["w"].sum()
            keys, cnts = g.index.to_numpy(), g.to_numpy(np.int64)
        return pa.table({key: pa.array(keys.astype(object), pa.string()),
                         "tf": pa.array(cnts)})

    exact = ds.map_batches(exact_partial, batch_format="pyarrow") \
        .groupby(key).aggregate(Sum("tf", alias_name="tf"))

    def neg(t: pa.Table) -> pa.Table:
        return pa.table({key: t[key], "tf": pc.cast(t["tf"], pa.int64()),
                         "neg": pc.negate(pc.cast(t["tf"], pa.int64()))})

    rows = exact.map_batches(neg, batch_format="pyarrow") \
        .sort(["neg", key]).limit(k).take_all()
    # certificate: with error bound E, any key OUTSIDE the candidate
    # set has true count <= E. The top-k is exact iff the k-th
    # certified count beats E; fewer than k candidates with E > 0
    # means unseen keys could fill the gap — refuse either way.
    if err_total > 0 and (len(rows) < k
                          or int(rows[-1]["tf"]) <= err_total):
        kth = int(rows[-1]["tf"]) if rows else 0
        raise ValueError(
            f"heavy_hitters_rescan: k-th certified count {kth} does "
            f"not exceed the MG error bound {err_total} — a missed "
            "key could outrank it; raise capacity")
    import ray.data as _rd
    return _rd.from_arrow(pa.table({
        key: pa.array([r[key] for r in rows], pa.string()),
        "tf": pa.array([int(r["tf"]) for r in rows], pa.int64())}))


def profile_table(ds: ray.data.Dataset,
                  columns: list[str] | None = None,
                  distinct: bool = True) -> pa.Table:
    """Data-validation profile: one row per column with null count,
    exact distinct count, and typed min/max — the schema-audit stage a
    training pipeline runs before ingesting a new data drop.

    Pass 1 computes per-block partials (nulls, rows, typed min/max; a
    Python loop over COLUMNS, never rows) merged by one tiny
    ``groupby(col_name)``. Distinct counts are one column-pruned
    dedup shuffle per column (exact; ``hll_count_distinct`` is the
    documented sketch path when a column's cardinality makes exact
    counting unreasonable). Integer/timestamp extremes land in
    min_int/max_int (timestamps as epoch microseconds — exact), floats
    in min_num/max_num, strings in min_str/max_str; a column of any
    other type profiles nulls only. Returns a driver-side Arrow table
    (one row per column — never data-sized)."""
    import pandas as pd
    from ray.data.aggregate import Max, Min, Sum

    schema = ds.schema()
    cols = list(columns) if columns else list(schema.names)
    types = {n: t for n, t in zip(schema.names, schema.types)}

    def partial(t: pa.Table) -> pa.Table:
        out = {"col_name": [], "nulls_p": [], "rows_p": [],
               "min_int": [], "max_int": [], "min_num": [],
               "max_num": [], "min_str": [], "max_str": []}
        for c in cols:
            arr = t[c]
            out["col_name"].append(c)
            out["nulls_p"].append(arr.null_count)
            out["rows_p"].append(len(arr))
            mi = ma = mn = mx = ms = xs = None
            if len(arr) > arr.null_count:
                ty = types[c]
                if pa.types.is_timestamp(ty):
                    v = arr.cast(pa.int64())
                    mi, ma = pc.min(v).as_py(), pc.max(v).as_py()
                elif pa.types.is_integer(ty):
                    mi, ma = pc.min(arr).as_py(), pc.max(arr).as_py()
                elif pa.types.is_floating(ty):
                    mn, mx = pc.min(arr).as_py(), pc.max(arr).as_py()
                elif pa.types.is_string(ty) or pa.types.is_large_string(ty):
                    ms, xs = pc.min(arr).as_py(), pc.max(arr).as_py()
            out["min_int"].append(mi)
            out["max_int"].append(ma)
            out["min_num"].append(mn)
            out["max_num"].append(mx)
            out["min_str"].append(ms)
            out["max_str"].append(xs)
        return pa.table({
            "col_name": pa.array(out["col_name"], pa.string()),
            "nulls_p": pa.array(out["nulls_p"], pa.int64()),
            "rows_p": pa.array(out["rows_p"], pa.int64()),
            "min_int": pa.array(out["min_int"], pa.int64()),
            "max_int": pa.array(out["max_int"], pa.int64()),
            "min_num": pa.array(out["min_num"], pa.float64()),
            "max_num": pa.array(out["max_num"], pa.float64()),
            "min_str": pa.array(out["min_str"], pa.string()),
            "max_str": pa.array(out["max_str"], pa.string()),
        })

    prof = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("col_name").aggregate(
            Sum("nulls_p", alias_name="n_nulls"),
            Sum("rows_p", alias_name="n_rows"),
            Min("min_int", alias_name="min_int"),
            Max("max_int", alias_name="max_int"),
            Min("min_num", alias_name="min_num"),
            Max("max_num", alias_name="max_num"),
            Min("min_str", alias_name="min_str"),
            Max("max_str", alias_name="max_str")) \
        .take_all()
    # dict-of-rows, NOT to_pandas: pandas would coerce a nullable
    # min_int/max_int column to float64 and corrupt extremes > 2^53
    prof = {r["col_name"]: r for r in prof}

    # exact distinct counts in TWO fused passes (not one per column):
    # integers/timestamps as int64, floats as their int64 BIT PATTERN
    # (injective, so distinctness is exact), strings in their own
    # stream. Per block each column contributes its unique values
    # tagged by column id; one groupby((cid, v)) dedupes globally and a
    # tiny per-cid partial count finishes.
    def _iskind(ty):
        return (pa.types.is_integer(ty) or pa.types.is_timestamp(ty)
                or pa.types.is_floating(ty))

    num_cols = [c for c in cols if distinct and _iskind(types[c])]
    str_cols = [c for c in cols if distinct
                and (pa.types.is_string(types[c])
                     or pa.types.is_large_string(types[c]))]

    def _distinct_counts(sub_cols, as_string: bool) -> dict[str, int]:
        if not sub_cols:
            return {}
        cid_of = {c: i for i, c in enumerate(sub_cols)}

        def uniq(t: pa.Table) -> pa.Table:
            vs, cids = [], []
            for c in sub_cols:
                a = t[c].combine_chunks().drop_null()
                if not as_string:
                    ty = types[c]
                    if pa.types.is_floating(ty):
                        # canonicalize BEFORE the bit-pattern view so
                        # per-block float dedup and the global int64
                        # groupby agree (-0.0 == +0.0; one NaN class)
                        # — else the count is partition-dependent
                        x = a.to_numpy(zero_copy_only=False) \
                            .astype(np.float64) + 0.0
                        x[np.isnan(x)] = np.nan
                        u = pa.array(np.unique(x.view(np.int64)))
                    else:
                        u = pc.unique(a.cast(pa.int64()))
                else:
                    u = pc.unique(a.cast(pa.large_string()))
                vs.append(u)
                cids.append(np.full(len(u), cid_of[c], np.int32))
            return pa.table({
                "cid": pa.array(np.concatenate(cids)
                                if cids else np.zeros(0, np.int32)),
                "v": pa.concat_arrays(
                    [x.combine_chunks() if isinstance(
                        x, pa.ChunkedArray) else x for x in vs])})

        pairs = ds.select_columns(sub_cols) \
            .map_batches(uniq, batch_format="pyarrow") \
            .groupby(["cid", "v"]).count()

        def per_cid(t: pa.Table) -> pa.Table:
            cn = t.group_by(["cid"]).aggregate([([], "count_all")])
            return cn.rename_columns(["cid", "n_p"])

        rows = pairs.map_batches(per_cid, batch_format="pyarrow") \
            .groupby("cid").sum("n_p").take_all()
        got = {r["cid"]: int(r["sum(n_p)"]) for r in rows}
        return {c: got.get(cid_of[c], 0) for c in sub_cols}

    nd: dict[str, int | None] = {c: None for c in cols}
    nd.update(_distinct_counts(num_cols, as_string=False))
    nd.update(_distinct_counts(str_cols, as_string=True))

    def _iv(x):
        return None if pd.isna(x) else int(x)

    def _fv(x):
        return None if pd.isna(x) else float(x)

    def _sv(x):
        return None if (x is None or (not isinstance(x, str)
                                      and pd.isna(x))) else str(x)

    return pa.table({
        "col_name": pa.array(cols, pa.string()),
        "n_nulls": pa.array([int(prof[c]["n_nulls"]) for c in cols],
                            pa.int64()),
        "n_distinct": pa.array([nd[c] for c in cols], pa.int64()),
        "min_int": pa.array([_iv(prof[c]["min_int"]) for c in cols],
                            pa.int64()),
        "max_int": pa.array([_iv(prof[c]["max_int"]) for c in cols],
                            pa.int64()),
        "min_num": pa.array([_fv(prof[c]["min_num"]) for c in cols],
                            pa.float64()),
        "max_num": pa.array([_fv(prof[c]["max_num"]) for c in cols],
                            pa.float64()),
        "min_str": pa.array([_sv(prof[c]["min_str"]) for c in cols],
                            pa.string()),
        "max_str": pa.array([_sv(prof[c]["max_str"]) for c in cols],
                            pa.string()),
    })


def grouped_entropy(ds: ray.data.Dataset, key: str, value: str,
                    ndigits: int = 6,
                    scale: float = 1e9) -> ray.data.Dataset:
    """Shannon entropy (nats) of the ``value`` distribution per ``key``
    — the behavioral-diversity / label-balance signal. H = ln(N) -
    (sum_c c*ln(c)) / N over the group's value counts.

    Exact-by-construction across partitionings: counts aggregate as
    integers; each c*ln(c) term quantizes to int64 at ``scale`` (ln via
    libm ``math.log`` over the DISTINCT integer counts — the same call
    DuckDB's ``ln`` makes, evaluated per unique c, never per row), so
    the group sum is order-invariant and the final float tree is
    stated identically in the SQL oracle. Int64 bound: a group's
    sum of c*ln(c)*scale must fit int64 — at the default 1e9 that is
    ~2e8 values per group; pass a smaller ``scale`` beyond it."""
    import math

    from ray.data.aggregate import Sum

    def pairs(t: pa.Table) -> pa.Table:
        import pandas as pd
        g = pd.DataFrame({
            "k": t[key].to_pandas(),
            "v": t[value].to_pandas(),
        }).groupby(["k", "v"], sort=False, dropna=False).size()
        kk = g.index.get_level_values(0).to_numpy()
        vv = g.index.get_level_values(1).to_numpy()
        return pa.table({key: pa.array(kk), value: pa.array(vv),
                         "c": pa.array(g.to_numpy(np.int64))})

    cnts = ds.map_batches(pairs, batch_format="pyarrow") \
        .groupby([key, value]).aggregate(Sum("c", alias_name="c"))

    def qrow(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        uc, inv = np.unique(c, return_inverse=True)
        lp = np.array([float(x) * math.log(float(x)) * scale
                       for x in uc], np.float64)
        q = (np.sign(lp) * np.floor(np.abs(lp) + 0.5)).astype(np.int64)
        return pa.table({key: t[key], "q": pa.array(q[inv]),
                         "c": pa.array(c)})

    per = cnts.map_batches(qrow, batch_format="pyarrow") \
        .groupby(key).aggregate(Sum("q", alias_name="sq"),
                                Sum("c", alias_name="n"))

    def finish(t: pa.Table) -> pa.Table:
        sq = t["sq"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        un, inv = np.unique(n, return_inverse=True)
        ln_n = np.array([math.log(float(x)) for x in un], np.float64)
        h = ln_n[inv] - (sq / scale) / n.astype(np.float64)
        return pa.table({key: t[key],
                         "entropy": pc.round(
                             pa.array(h, pa.float64()), ndigits=ndigits,
                             round_mode="half_towards_infinity")})

    return per.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------------ Count-Min sketch

def count_min_cells(ds: ray.data.Dataset, col: str = "text",
                    width: int = 2048, depth: int = 4
                    ) -> ray.data.Dataset:
    """Mergeable Count-Min sketch (Cormode & Muthukrishnan 2005) over
    the whitespace tokens of ``col``: one ``(d, cell, cnt)`` row per
    non-empty sketch cell, <= ``depth * width`` rows total.

    Unlike Misra-Gries (:func:`misra_gries_topk`, whose evictions
    depend on block boundaries), CMS cells merge by EXACT integer
    addition, so the sketch — and every point estimate read from it —
    is independent of partitioning; that makes it the one frequency
    sketch here that carries a full hash-match DuckDB oracle
    (queries.cms_oracle_sql replays the whole chain in SQL).

    Row-``d`` cell for a token: ``splitmix64(tokhash + d*GOLDEN) %
    width`` — the splitmix64 output stream seeded with the
    SQL-expressible charwise-polynomial token hash
    (ops/text._hash_tokens); both primitives already have HUGEINT
    twins (queries._sql_splitmix64 / _sql_tokhash).

    100 TB shape: each batch ships at most ``depth x min(width,
    batch vocabulary)`` partial rows — never the token stream — and
    the aggregated sketch is bounded by ``depth x width`` rows
    regardless of corpus size. Point estimate: ``est(term) = min_d
    cells[d][h_d(term)] >= true count``, overshooting by ~N/width per
    row in expectation (N = total token count)."""
    from ray.data.aggregate import Sum

    from kgeng.ops.text import _hash_tokens

    if depth < 1 or width < 2:
        raise ValueError(f"need depth >= 1 and width >= 2 "
                         f"(got {depth}, {width})")
    # d*GOLDEN precomputed through Python ints: numpy uint64 SCALAR
    # products warn on wraparound (arrays wrap silently)
    steps = [np.uint64((d * 0x9E3779B97F4A7C15) % (1 << 64))
             for d in range(depth)]
    w = np.uint64(width)

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.fill_null(t[col], ""),
                                      pattern=r"\s+")
        terms = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        terms = terms[terms != ""]          # split artifacts at edges
        ths = _hash_tokens(terms)
        ds_, cells_, cnts_ = [], [], []
        for d in range(depth):
            cell = (_splitmix64(ths + steps[d]) % w).astype(np.int64)
            cnt = np.bincount(cell, minlength=width)
            nz = np.flatnonzero(cnt)
            ds_.append(np.full(len(nz), d, np.int32))
            cells_.append(nz.astype(np.int64))
            cnts_.append(cnt[nz].astype(np.int64))
        return pa.table({
            "d": pa.array(np.concatenate(ds_)),
            "cell": pa.array(np.concatenate(cells_)),
            "cnt": pa.array(np.concatenate(cnts_))})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["d", "cell"]).aggregate(Sum("cnt", alias_name="cnt"))
    return agg.map_batches(
        lambda t: t.select(["d", "cell", "cnt"]),
        batch_format="pyarrow")


def cms_point_estimates(cells: "pa.Table", terms, width: int,
                        depth: int) -> np.ndarray:
    """Point-estimate lookups against a materialized CMS cells table
    (the <= depth*width-row output of :func:`count_min_cells` — small
    by construction, so driver-side lookup is the documented shape).
    Returns int64 estimates aligned with ``terms``."""
    from kgeng.ops.text import _hash_tokens

    lut = {}
    dcol = cells["d"].to_numpy(zero_copy_only=False)
    ccol = cells["cell"].to_numpy(zero_copy_only=False)
    ncol = cells["cnt"].to_numpy(zero_copy_only=False)
    for i in range(len(dcol)):
        lut[(int(dcol[i]), int(ccol[i]))] = int(ncol[i])
    ths = _hash_tokens(np.asarray(list(terms), dtype=object))
    w = np.uint64(width)
    est = np.full(len(ths), np.iinfo(np.int64).max, np.int64)
    for d in range(depth):
        step = np.uint64((d * 0x9E3779B97F4A7C15) % (1 << 64))
        cell = (_splitmix64(ths + step) % w).astype(np.int64)
        for i in range(len(ths)):           # len(terms) rows: tiny
            est[i] = min(est[i], lut.get((d, int(cell[i])), 0))
    return est
