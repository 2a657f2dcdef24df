"""Keyed exchange and joins.

:func:`by_key` is the one keyed exchange of the engine: every operator
that needs all rows of a key in one place (window functions, per-group
ranks, ordered string aggregation, pair generation, distinct edges)
runs its per-key pandas or numpy pass through it. The joins beyond
broadcast use its two-sided form, :func:`_co_group`: ``hash_join``,
``asof_join`` and ``range_join`` differ only in the merge they run per
bucket.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

#: Key buckets of every keyed exchange (:func:`by_key`, the joins and
#: the graph module's Dataset rounds). Read on the driver when a plan
#: is built, so a test can set it.
_BUCKETS = 64


def broadcast_join(left: ray.data.Dataset, right_table: pa.Table,
                   key: str, how: str = "left",
                   fill: dict | None = None) -> ray.data.Dataset:
    """Small-side join without any shuffle: ``right_table`` (a driver-side
    Arrow table; must fit in worker memory) ships ONCE with the map
    operator (``fn_args``) and every batch resolves its keys with
    vectorized ``pc.index_in`` + ``take``. ``how``: 'left' keeps
    unmatched left rows (their right columns null, or ``fill[col]`` when
    provided); 'inner' drops them. The right side's key values must be
    unique (lookup semantics)."""
    import pyarrow.compute as pc

    rcols = [c for c in right_table.column_names if c != key]

    def join(t: pa.Table, keys_arr: pa.Array, cols: dict) -> pa.Table:
        idx = pc.index_in(t[key], value_set=keys_arr)
        if how == "inner":
            mask = pc.is_valid(idx)
            t = t.filter(mask)
            idx = idx.filter(mask)
        for c in rcols:
            v = pc.take(cols[c], idx)
            if fill and c in fill:
                v = pc.fill_null(v, fill[c])
            t = t.append_column(c, v)
        return t

    return left.map_batches(
        join, batch_format="pyarrow",
        fn_args=(right_table[key].combine_chunks(),
                 {c: right_table[c].combine_chunks() for c in rcols}))


def _mix2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix of two int64 columns (bucketing only —
    collisions just co-locate more rows, never corrupt results)."""
    a = u.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    b = v.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    x = a ^ (b >> np.uint64(29)) ^ (b << np.uint64(17))
    return (x * np.uint64(0xD6E8FEB86659FD93))


def _int_bucket_ids(vals: np.ndarray, B: int) -> np.ndarray:
    """Bucket of each integer id: one multiply + shift."""
    h = vals.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return ((h >> np.uint64(33)) % np.uint64(B)).astype(np.int64)


def _bucket_ids(t: pa.Table, key: str | list[str], B: int) -> np.ndarray:
    """Deterministic bucket id per row (exposed for tests).

    One integer key: :func:`_int_bucket_ids`. A list of integer keys:
    the columns folded by :func:`_mix2`. Anything else: cast to Arrow
    string (vectorized), then ONE ``pd.util.hash_array`` pass (C-level
    siphash, process-deterministic — the same kernel
    dedup.exact_dedup trusts). No per-row Python on any path. Null keys
    share one bucket. Equal key values always land in the same bucket;
    the per-bucket pass compares real values, so correctness needs
    only that co-location."""
    import pyarrow.compute as pc

    if not isinstance(key, str):
        if len(key) == 1:
            return _bucket_ids(t, key[0], B)
        h = functools.reduce(_mix2, [
            pc.fill_null(t[c], 0).to_numpy(zero_copy_only=False)
            for c in key])
        return (h % np.uint64(B)).astype(np.int64)
    col = t[key]
    if pa.types.is_integer(col.type):
        return _int_bucket_ids(
            pc.fill_null(col, 0).to_numpy(zero_copy_only=False), B)
    if pa.types.is_dictionary(col.type):
        col = col.cast(col.type.value_type)
    if not (pa.types.is_string(col.type)
            or pa.types.is_large_string(col.type)):
        col = pc.cast(col, pa.string())
    col = pc.fill_null(col, "\x00__kgeng_null__")
    s = col.to_numpy(zero_copy_only=False)     # object ndarray of str
    return (pd.util.hash_array(s) % np.uint64(B)).astype(np.int64)


def by_key(ds: ray.data.Dataset, key: str | list[str], fn,
           batch_format: str = "pandas") -> ray.data.Dataset:
    """Run ``fn`` over ``ds`` with every row of one ``key`` value in the
    same call: each row goes to bucket ``hash(key) % _BUCKETS``
    (:func:`_bucket_ids`), one ``groupby(bucket).map_groups`` shuffle
    moves the rows, and ``fn`` gets each bucket's rows (``batch_format``
    "pandas" or "pyarrow") without the bucket column. ``key`` is one
    column or a list of integer columns.

    A bucket holds many keys, so ``fn`` makes one vectorized pass over
    all of them (sort + grouped scan, ``np.unique``, a pandas merge)
    instead of one Python call per key; grouping by the real key would
    make every key its own group, millions of tiny groups at scale.
    ``fn``'s output must not depend on which keys share its bucket: it
    groups by the key itself, and null keys form one group (SQL
    ``GROUP BY`` / ``PARTITION BY``).

    Partitioning assumption: one key's rows must fit a worker (a
    bucket holds ~1/_BUCKETS of the rows plus its keys' skew). For a
    hot join key, salt the join (:func:`hash_join`'s ``salt``)."""
    B = _BUCKETS

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__bucket", pa.array(_bucket_ids(t, key, B).astype(np.int32)))

    def run(g):
        if batch_format == "pandas":
            return fn(g.drop(columns=["__bucket"]))
        return fn(g.drop_columns(["__bucket"]))

    return ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("__bucket").map_groups(run, batch_format=batch_format)


def _numeric_dtypes(schema) -> dict:
    """col -> 'int64' | 'float64' for a Dataset schema's numeric
    columns (Arrow or pandas block schema; {} when unknown)."""
    if schema is None:
        return {}
    base = getattr(schema, "base_schema", None)
    out = {}
    if isinstance(base, pa.Schema):
        for f in base:
            if pa.types.is_integer(f.type):
                out[f.name] = "int64"
            elif pa.types.is_floating(f.type):
                out[f.name] = "float64"
    else:  # PandasBlockSchema: names + numpy dtypes
        for name, typ in zip(schema.names, getattr(base, "types", [])):
            kind = getattr(typ, "kind", "")
            if kind in "iu":
                out[name] = "int64"
            elif kind == "f":
                out[name] = "float64"
    return out


def _side(ds: ray.data.Dataset, cols: list[str] | None = None,
          types: dict | None = None) -> tuple[list[str], dict]:
    """A join side's column names and numeric dtypes. Either one given
    skips its part of the schema fetch — on a LAZY input,
    ``.schema()`` EXECUTES the plan up to a limit (a full run for any
    plan containing a sort/aggregate barrier), so iterative callers
    that join every round pass both. The schema can also be None when
    a post-groupby dataset carries zero-column empty partitions."""
    schema = None
    if cols is None or types is None:
        schema = ds.schema(fetch_if_missing=True)
    cols = list(cols or schema.names)
    if types is None:
        # intersect with the column list: a lazy plan's base_schema can
        # report PRE-projection columns, and reindex would then
        # manufacture an all-NaN column that astype(int64) rejects
        types = {c: t for c, t in _numeric_dtypes(schema).items()
                 if c in cols}
    return cols, dict(types)


def _co_group(left: ray.data.Dataset, right: ray.data.Dataset,
              left_key: str, right_key: str, lside: tuple, rside: tuple,
              fn, salt: int = 1) -> ray.data.Dataset:
    """The two-sided :func:`by_key`: both sides tagged with their key's
    bucket and their side, unioned, ONE shuffle, and ``fn(lg, rg)`` per
    bucket on two pandas frames holding each side's ``_side`` columns.

    The union pads each side's missing columns with nulls, which floats
    integer columns NON-UNIFORMLY across reduce batches (a batch holding
    only one side keeps its ints), and a bucket holding one side lacks
    the other's columns entirely: each side is reindexed to its columns
    and restored to its numeric dtypes before ``fn`` sees it (an int
    column holding a null as the nullable ``Int64``).

    With ``salt > 1`` each LEFT row goes to a sub-bucket (row position
    mod salt — any deterministic spread works, the join result is
    assignment-invariant) and the RIGHT side is replicated into every
    sub-bucket, so a hot key's probe rows split across ``salt`` groups
    instead of landing in one."""
    (lcols, ltypes), (rcols, rtypes) = lside, rside
    B = _BUCKETS

    def tagged(t: pa.Table, b: np.ndarray, side: int) -> pa.Table:
        return t.append_column("__bucket", pa.array(b.astype(np.int32))) \
            .append_column("__side", pa.array(np.full(len(t), side,
                                                      np.int8)))

    def tag_left(t: pa.Table) -> pa.Table:
        b = _bucket_ids(t, left_key, B) * salt
        return tagged(t, b + np.arange(len(t)) % salt, 0)

    def tag_right(t: pa.Table) -> pa.Table:
        b = _bucket_ids(t, right_key, B) * salt
        return pa.concat_tables([tagged(t, b + s, 1)
                                 for s in range(salt)])

    def restore(g: pd.DataFrame, cols: list[str], types: dict):
        g = g.reindex(columns=cols)
        return g.astype({c: "Int64" if t == "int64" and g[c].isna().any()
                         else t for c, t in types.items()})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        side = g["__side"].to_numpy()
        return fn(restore(g[side == 0], lcols, ltypes),
                  restore(g[side == 1], rcols, rtypes))

    return left.map_batches(tag_left, batch_format="pyarrow") \
        .union(right.map_batches(tag_right, batch_format="pyarrow")) \
        .groupby("__bucket").map_groups(merge, batch_format="pandas")


def hash_join(left: ray.data.Dataset, right: ray.data.Dataset, key: str,
              how: str = "inner",
              suffix: str = "_r", salt: int = 1,
              max_bucket_rows: int | None = None,
              left_cols: list[str] | None = None,
              right_cols: list[str] | None = None,
              left_types: dict | None = None,
              right_types: dict | None = None) -> ray.data.Dataset:
    """Hash-partitioned equi-join of two Datasets on ``key`` (Ray Data
    has no always-available Dataset.join across versions): one
    :func:`_co_group` shuffle moves both sides, then one C-level pandas
    merge per bucket.

    Column collisions on the right side get ``suffix``. ``how`` is any
    pandas merge mode whose semantics survive per-bucket decomposition
    ('inner', 'left', 'outer' — FULL OUTER; every key pair co-locates
    in exactly one bucket, so unmatched rows of BOTH sides surface
    exactly once), plus 'semi' (left rows WITH a key match; left
    columns only, no duplication) and 'anti' (left rows WITHOUT a
    match — the NOT EXISTS pattern). 'outer' rejects ``salt`` > 1
    (right-side replication would duplicate right-only rows); under
    'outer' unmatched rows null the OTHER side's columns, so int
    columns of both sides surface as float64. ``salt`` > 1 splits each
    bucket's left rows into
    sub-buckets and replicates the (small) right side into each — use
    when the left side has hot keys. ``max_bucket_rows`` computes the
    salt as ceil(left_count / max_bucket_rows) (counts the left side
    first), guaranteeing no merge group holds more than ~max_bucket_rows
    left rows even if every row shares one key.

    ``left_cols``/``right_cols`` and ``left_types``/``right_types``
    (col -> 'int64'|'float64') skip the schema fetch (see
    :func:`_side`).
    """
    if max_bucket_rows is not None:
        n_left = left.count()
        salt = max(salt, math.ceil(max(n_left, 1) / max_bucket_rows))
    salt = max(1, salt)
    if how == "outer" and salt > 1:
        raise ValueError("how='outer' requires salt=1: sub-bucket "
                         "replication would emit right-only rows once "
                         "per sub-bucket")
    lside = _side(left, left_cols, left_types)
    rside = _side(right, right_cols, right_types)
    (lcols, ltypes), (rcols, rtypes) = lside, rside

    # stable output column set: a bucket whose group holds only one
    # side must still emit the FULL schema (reindex fills the absent
    # side's columns), or downstream consumers see diverging blocks
    out_cols = lcols + [(c + suffix if c in lcols else c)
                        for c in rcols if c != key]
    # right int columns surface as float64 in the OUTPUT (NaN =
    # unmatched under how='left'), the nullable-int convention, so
    # every block agrees
    int_right = [c for c, t in rtypes.items()
                 if t == "int64" and c != key]
    # full outer: unmatched right rows null the LEFT side too, so left
    # ints also surface float64 (uniform nullable-int convention)
    int_left = ([c for c, t in ltypes.items()
                 if t == "int64" and c != key] if how == "outer" else [])

    renamed = {c: c + suffix for c in rcols if c in lcols and c != key}

    def merge(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        # a null key matches nothing (SQL), while pandas pairs null keys
        # with each other: null-key right rows only come back as the
        # unmatched rows of a full outer join
        null_r = rg[key].isna().to_numpy()
        if how == "semi":
            return lg[lg[key].isin(rg[key][~null_r].unique())]
        if how == "anti":
            return lg[~lg[key].isin(rg[key][~null_r].unique())]
        out = lg.merge(rg[~null_r], on=key, how=how, suffixes=("", suffix))
        if how == "outer" and null_r.any():
            out = pd.concat([out, rg[null_r].rename(columns=renamed)])
        out = out.reindex(columns=out_cols)
        for c in int_right:
            cc = c + suffix if c in lcols else c
            out[cc] = out[cc].astype("float64")
        for c in int_left:
            out[c] = out[c].astype("float64")
        return out

    return _co_group(left, right, key, key, lside, rside, merge, salt)


def _disjoint_sides(left: ray.data.Dataset,
                    right: ray.data.Dataset) -> tuple[tuple, tuple]:
    lside, rside = _side(left), _side(right)
    overlap = set(lside[0]) & set(rside[0])
    if overlap:
        raise ValueError(f"column collision across sides: {overlap}")
    return lside, rside


def _non_null(frame: pd.DataFrame, key: str) -> pd.DataFrame:
    """``frame`` (whose ``key`` holds no null) with a nullable ``Int64``
    key back as ``int64``."""
    if isinstance(frame[key].dtype, pd.Int64Dtype):
        return frame.astype({key: "int64"})
    return frame


def asof_join(left: ray.data.Dataset, right: ray.data.Dataset,
              left_key: str, right_key: str,
              left_ts: str, right_ts: str,
              tiebreak: str | None = None,
              direction: str = "backward") -> ray.data.Dataset:
    """Distributed as-of join — for each left row, the single right row
    of the same key with the greatest ``right_ts`` at or before
    ``left_ts`` (``direction='backward'``; 'forward' mirrors it). Ray
    Data has no native as-of join: one :func:`_co_group` shuffle
    co-locates every key's full history with its probes, then one
    C-level ``pandas.merge_asof`` per bucket. Rows never leave their
    key's bucket, so the per-bucket decomposition is exact.

    Right-side timestamp ties are broken deterministically: the right
    side is sorted by ``(right_ts, tiebreak)`` and ``merge_asof`` takes
    the last sorted occurrence, i.e. the highest ``tiebreak`` value.
    Unmatched left rows keep null right columns (left-join
    semantics)."""
    lside, rside = _disjoint_sides(left, right)
    int_right = [c for c, t in rside[1].items() if t == "int64"]

    def merge(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        # normalize both ON keys to one temporal dtype: the sides may
        # differ at the source (date32 vs timestamp[us]) and a one-sided
        # reindex leaves float64 NaN
        lg[left_ts] = pd.to_datetime(lg[left_ts]).astype("datetime64[us]")
        rg[right_ts] = pd.to_datetime(rg[right_ts]).astype("datetime64[us]")
        # a null key matches nothing: null-key left rows come back
        # unmatched, and the rest take a non-nullable key dtype
        # (merge_asof wants one dtype per key pair)
        miss = lg[left_key].isna().to_numpy()
        lg, unmatched = _non_null(lg[~miss], left_key), lg[miss]
        rg = _non_null(rg[rg[right_key].notna().to_numpy()], right_key)
        lg = lg.sort_values(left_ts, kind="mergesort")
        rg = rg.sort_values([right_ts, tiebreak] if tiebreak
                            else [right_ts], kind="mergesort")
        out = pd.merge_asof(lg, rg, left_on=left_ts, right_on=right_ts,
                            left_by=left_key, right_by=right_key,
                            direction=direction)
        if len(unmatched):
            out = pd.concat([out, unmatched])
        # unmatched left rows null the right side; right int columns
        # surface as float64 (NaN for no-match) so every output block has
        # the same schema regardless of that batch's match pattern —
        # the same convention SQL clients use for nullable ints
        for c in int_right:
            out[c] = out[c].astype("float64")
        return out

    return _co_group(left, right, left_key, right_key, lside, rside,
                     merge)


def range_join(left: ray.data.Dataset, right: ray.data.Dataset,
               left_key: str, right_key: str,
               left_ts: str, right_lo: str, right_hi: str,
               hi_inclusive: bool = False) -> ray.data.Dataset:
    """Distributed range (interval) join — every (left, right) pair of
    the same key where ``right_lo <= left_ts < right_hi`` (``<=`` when
    ``hi_inclusive``). Ray Data has no native interval join: one
    :func:`_co_group` shuffle, then per bucket one C-level equi-merge on
    the key (each key's probe x interval candidates) followed by one
    vectorized range filter — no per-row or per-key Python.

    Inner-join semantics: left rows matching no interval are dropped;
    a row matching k intervals emits k output rows.

    The candidate set is the PER-KEY PRODUCT before filtering — fine
    when intervals per key are bounded (the common case: a customer's
    orders, a device's sessions); a key with millions of both sides
    needs a coarser pre-filter (e.g. bucket time into the key) first."""
    lside, rside = _disjoint_sides(left, right)
    out_cols = lside[0] + rside[0]

    def merge(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        for frame, c in ((lg, left_ts), (rg, right_lo), (rg, right_hi)):
            frame[c] = pd.to_datetime(frame[c]).astype("datetime64[us]")
        # a null key matches nothing (pandas pairs null keys)
        lg = lg[lg[left_key].notna().to_numpy()]
        rg = rg[rg[right_key].notna().to_numpy()]
        out = lg.merge(rg, left_on=left_key, right_on=right_key,
                       how="inner")
        keep = (out[right_lo] <= out[left_ts]) & (
            (out[left_ts] <= out[right_hi]) if hi_inclusive
            else (out[left_ts] < out[right_hi]))
        return out[keep][out_cols]

    return _co_group(left, right, left_key, right_key, lside, rside,
                     merge)


# ---------------------------------------------------------------- bloom

def build_bloom(ds: ray.data.Dataset, key: str, num_bits: int = 1 << 20,
                k: int = 4) -> bytes:
    """Build a Bloom filter over an integer key column: each batch
    emits its own bitmap (one num_bits/8-byte blob per block), the
    driver ORs them — a bounded, associative reduce. num_bits must be a
    power of two. With m=2^20, k=4 the filter holds ~100k keys at <1%
    false positives in 128 KB — the broadcast-cheap summary of a join's
    build side.

    Double hashing (Kirsch-Mitzenmacher): the k probe positions are
    h1 + i*h2 from one splitmix64 pass, all vectorized."""
    from kgeng.ops.agg import _splitmix64

    assert num_bits & (num_bits - 1) == 0, "num_bits must be a power of 2"
    mask = np.uint64(num_bits - 1)

    def partial(t: pa.Table) -> pa.Table:
        v = t[key].to_numpy(zero_copy_only=False)
        h = _splitmix64(v.astype(np.uint64))
        h1 = h & mask
        h2 = (h >> np.uint64(32)) | np.uint64(1)  # odd => full cycle
        bm = np.zeros(num_bits >> 3, np.uint8)
        for i in range(k):
            pos = (h1 + np.uint64(i) * h2) & mask
            np.bitwise_or.at(bm, (pos >> np.uint64(3)).astype(np.int64),
                             np.left_shift(np.uint8(1),
                                           (pos & np.uint64(7)).astype(np.uint8)))
        return pa.table({"__bm": pa.array([bm.tobytes()], pa.binary())})

    blobs = ds.map_batches(partial, batch_format="pyarrow").take_all()
    out = np.zeros(num_bits >> 3, np.uint8)
    for row in blobs:
        out |= np.frombuffer(row["__bm"], np.uint8)
    return out.tobytes()


def bloom_prefilter(ds: ray.data.Dataset, key: str, bloom: bytes,
                    num_bits: int = 1 << 20,
                    k: int = 4) -> ray.data.Dataset:
    """Drop rows whose ``key`` is definitely absent from the filter
    (no false negatives; false positives pass through, so compose with
    an exact join AFTER). The bitmap ships once with the map operator
    (``fn_args``) — at cluster scale this replaces shuffling every
    non-matching probe row with broadcasting ~128 KB."""
    from kgeng.ops.agg import _splitmix64

    mask = np.uint64(num_bits - 1)

    def keep(t: pa.Table, bm: np.ndarray) -> pa.Table:
        v = t[key].to_numpy(zero_copy_only=False)
        h = _splitmix64(v.astype(np.uint64))
        h1 = h & mask
        h2 = (h >> np.uint64(32)) | np.uint64(1)
        ok = np.ones(len(v), bool)
        for i in range(k):
            pos = (h1 + np.uint64(i) * h2) & mask
            bits = bm[(pos >> np.uint64(3)).astype(np.int64)]
            ok &= (bits >> (pos & np.uint64(7)).astype(np.uint8)) & 1 > 0
        return t.filter(pa.array(ok))

    return ds.map_batches(keep, batch_format="pyarrow",
                          fn_args=(np.frombuffer(bloom, np.uint8),))


def fuzzy_lookup(probes: ray.data.Dataset, catalog: ray.data.Dataset,
                 col: str, probe_id: str, max_dist: int = 3,
                 out_match: str = "match", out_dist: str = "dist",
                 max_catalog: int = 2_000_000) -> ray.data.Dataset:
    """Fuzzy LOOKUP join: for each probe string, the closest catalog
    string by exact byte-level Levenshtein distance, restricted to
    ``max_dist`` (no match within the cap -> no output row) — the
    dirty-dimension matching step (misspelled names against a clean
    catalog). Deterministic tiebreak: (distance, catalog value asc).

    The catalog is the SMALL side by nature: it broadcasts once as a
    byte matrix sorted by (length, value) (loud ``max_catalog`` guard).
    Each probe batch selects candidates by the lossless length band
    (|len diff| <= max_dist — a longer gap cannot beat the cap) via two
    searchsorted calls, then scores all (probe, candidate) pairs in ONE
    banded-Ukkonen vectorized DP (dedup.banded_levenshtein). No
    shuffle; the probe stream passes once."""
    import pandas as pd
    import pyarrow.compute as pc

    from kgeng.ops.dedup import _byte_matrix, banded_levenshtein

    cat_rows = catalog.select_columns([col]).take_all()
    if len(cat_rows) > max_catalog:
        raise ValueError(
            f"catalog {len(cat_rows)} exceeds max_catalog "
            f"{max_catalog}; fuzzy_lookup broadcasts the catalog")
    names = sorted({r[col] for r in cat_rows if r[col] is not None})
    cmat, clens = _byte_matrix(names)
    order = np.lexsort((np.array(names, object), clens))
    cmat, clens = cmat[order], clens[order]
    cnames = np.array(names, object)[order]

    def lookup(t: pa.Table, cm: np.ndarray, cl: np.ndarray,
               cn: np.ndarray) -> pa.Table:
        # null probes produce no output row (SQL: levenshtein(NULL, x)
        # IS NULL -> filtered), mirroring the catalog-side null guard —
        # without this, a null probe would byte-encode as '' and
        # "match" any catalog value of length <= max_dist.
        if t[col].null_count:
            t = t.filter(pc.is_valid(t[col]))
        texts = t[col].to_pylist()
        ids = t[probe_id].to_numpy(zero_copy_only=False)
        pm, pl = _byte_matrix(texts)
        # candidate ranges per probe via the sorted-length band
        lo = np.searchsorted(cl, pl - max_dist, side="left")
        hi = np.searchsorted(cl, pl + max_dist, side="right")
        cnt = (hi - lo).astype(np.int64)
        tot = int(cnt.sum())
        if tot == 0:
            return pa.table({probe_id: pa.array([], t[probe_id].type),
                             col: pa.array([], pa.string()),
                             out_match: pa.array([], pa.string()),
                             out_dist: pa.array([], pa.int64())})
        pi = np.repeat(np.arange(len(texts)), cnt)
        ci = np.repeat(lo, cnt) + (np.arange(tot)
                                   - np.repeat(np.cumsum(cnt) - cnt,
                                               cnt))
        w = max(pm.shape[1], cm.shape[1])
        left = np.zeros((tot, w), np.uint8)
        left[:, :pm.shape[1]] = pm[pi]
        right = np.zeros((tot, w), np.uint8)
        right[:, :cm.shape[1]] = cm[ci]
        dist = banded_levenshtein(left, right, pl[pi], cl[ci],
                                  max_dist)
        okm = dist <= max_dist
        if not okm.any():
            return pa.table({probe_id: pa.array([], t[probe_id].type),
                             col: pa.array([], pa.string()),
                             out_match: pa.array([], pa.string()),
                             out_dist: pa.array([], pa.int64())})
        df = pd.DataFrame({"p": pi[okm], "d": dist[okm],
                           "m": cn[ci[okm]]})
        best = df.sort_values(["p", "d", "m"]).groupby("p",
                                                       sort=False).head(1)
        sel = best["p"].to_numpy()
        return pa.table({
            probe_id: pa.array(ids[sel]),
            col: pa.array([texts[i] for i in sel], pa.string()),
            out_match: pa.array(best["m"].to_numpy(), pa.string()),
            out_dist: pa.array(best["d"].to_numpy(np.int64))})

    return probes.map_batches(lookup, batch_format="pyarrow",
                              fn_args=(cmat, clens, cnames))
