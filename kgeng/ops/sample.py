"""Deterministic sampling for training-data curation.

Random sampling in a distributed, resumable pipeline must be a PURE
FUNCTION of the row, never of placement or time — a retried task, a
different partitioning, or a second cluster size must pick the same
rows. Both samplers rank rows by a Knuth multiplicative hash of an id
column (``(id * 2654435761) mod 2^32`` — exact in int64 arithmetic, so
a SQL oracle can reproduce it verbatim):

- :func:`hash_sample` — Bernoulli(rate) by hash threshold; one
  vectorized filter per batch, no shuffle, composes with any pipeline.
- :func:`stratified_sample` — exactly ``n`` rows per group (the lowest
  hash ranks), the distributed
  ``row_number() OVER (PARTITION BY key ORDER BY hash, id) <= n``;
  one keyed shuffle via ops/rank.py's grouped top-k.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

KNUTH = np.uint64(2654435761)
MOD = np.uint64(1) << np.uint64(32)


def _knuth_hash(ids: np.ndarray) -> np.ndarray:
    return ((ids.astype(np.uint64) * KNUTH) % MOD).astype(np.int64)


def hash_sample(ds: ray.data.Dataset, id_col: str,
                rate: float) -> ray.data.Dataset:
    """Keep each row iff ``knuth_hash(id) < rate * 2^32`` — a
    deterministic Bernoulli(rate) sample, stable across runs,
    partitionings, and cluster sizes."""
    threshold = np.int64(int(rate * float(MOD)))

    def keep(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(_knuth_hash(ids) < threshold))

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample(ds: ray.data.Dataset, key: str, n: int,
                      id_col: str) -> ray.data.Dataset:
    """Exactly ``n`` rows per ``key`` group (fewer if the group is
    smaller): the ``n`` lowest hash ranks, ties broken by the id
    itself. Adds a 1-based ``rank`` column. One keyed shuffle."""
    from kgeng.ops.rank import top_k_per_group

    def add_rank(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return t.append_column("__rk", pa.array(_knuth_hash(ids)))

    ranked = ds.map_batches(add_rank, batch_format="pyarrow")
    out = top_k_per_group(ranked, key, "__rk", n,
                          tie_breakers=[id_col], descending=False)

    def drop_rk(t: pa.Table) -> pa.Table:
        return t.drop_columns(["__rk"])

    return out.map_batches(drop_rk, batch_format="pyarrow")


def mix_sample(ds: ray.data.Dataset, source_col: str,
               rates: dict[str, float], id_col: str,
               default_rate: float = 0.0) -> ray.data.Dataset:
    """Dataset mixing for training corpora: keep each row with a
    SOURCE-dependent rate (``rates[source]``, ``default_rate`` for
    unlisted sources) — the per-source Bernoulli uses the same
    deterministic Knuth-hash threshold as :func:`hash_sample`, so the
    mixture is exactly reproducible across runs, partitionings, and
    cluster sizes, and a SQL oracle can state it as a CASE expression.

    Pure per-batch filter, no shuffle: the source->threshold map rides
    in the task closure (it is tiny — one entry per source), and the
    lookup is one vectorized ``pc.index_in`` + ``np.where``."""
    import pyarrow.compute as pc

    keys = pa.array(list(rates.keys()))
    thr = np.array([int(r * float(MOD)) for r in rates.values()],
                   np.int64)
    dflt = np.int64(int(default_rate * float(MOD)))

    def keep(t: pa.Table) -> pa.Table:
        idx = pc.fill_null(pc.index_in(t[source_col], keys), -1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        th = np.where(idx >= 0, thr[np.clip(idx, 0, None)], dflt)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(_knuth_hash(ids) < th))

    return ds.map_batches(keep, batch_format="pyarrow")


def weighted_sample(ds: ray.data.Dataset, id_col: str, weight_col: str,
                    k: int) -> ray.data.Dataset:
    """Weighted sampling WITHOUT replacement (Efraimidis-Spirakis
    A-ES): each row gets the key ``u ** (1/w)`` with
    ``u = (knuth_hash(id) + 0.5) / 2^32`` — deterministic, so the
    sample is stable across runs and partitionings — and the sample is
    the global top-``k`` keys. Inclusion probability is proportional
    to weight, exactly the reservoir semantics of the A-ES paper.

    Distributed as the top-k shape: each block keeps only its local
    top-``k`` (argpartition, no full sort), then a tiny global
    sort+limit over the <= k-per-block survivors. Rows with
    non-positive or null weight are excluded. Not SQL-oracle-checked:
    the float ``pow`` is library-dependent in the last ulp; tests pin
    the exact selection against a numpy reference instead."""

    def local_topk(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = np.isfinite(w) & (w > 0)
        # drop invalid-weight rows OUTRIGHT — a sentinel key would still
        # survive the global limit when fewer than k valid rows exist
        t = t.filter(pa.array(ok))
        ids, w = ids[ok], w[ok]
        u = (_knuth_hash(ids).astype(np.float64) + 0.5) / float(MOD)
        key = np.power(u, 1.0 / w)
        n = min(k, len(ids))
        top = np.argpartition(-key, n - 1)[:n] if n else np.array([], int)
        t = t.append_column("__skey", pa.array(key))
        return t.take(pa.array(np.sort(top)))

    return ds.map_batches(local_topk, batch_format="pyarrow") \
        .sort(["__skey", id_col], descending=[True, False]).limit(k) \
        .map_batches(lambda t: t.drop_columns(["__skey"]),
                     batch_format="pyarrow")


def pack_sequences(ds: ray.data.Dataset, count_col: str, id_col: str,
                   budget: int, num_buckets: int = 64) -> ray.data.Dataset:
    """Token-budget sequence packing: assign each row to a packed
    sequence so no sequence exceeds ``budget`` tokens (rows larger than
    the budget get a sequence of their own). Deterministic
    best-fit-decreasing: rows sorted by (count desc, id), each placed
    in the open sequence with the SMALLEST remaining capacity that
    still fits (ties to the lowest sequence id), via a bisect-sorted
    capacity list — O(n log n) per bucket, not FFD's O(n^2) scan.

    Packing is inherently sequential, so the cluster-scale shape is
    bucket-parallel: rows hash-shuffle into ``num_buckets`` independent
    buckets by id and each bucket packs alone (sequences never span
    buckets; seq ids are globally unique via bucket * 2^32 + local).
    The in-bucket loop is per-ROW Python, justified because each
    iteration depends on every previous assignment — there is no
    vectorized form — and bucket parallelism bounds the serial span.

    Output: one row per input row — (id, count, seq_id, seq_fill) where
    seq_fill is the sequence's total token count after packing."""

    def bucket(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        b = ((ids.astype(np.uint64) * KNUTH) >> np.uint64(3)) \
            % np.uint64(num_buckets)
        return t.append_column("__bucket",
                               pa.array(b.astype(np.int32)))

    def pack(g):
        import bisect

        import pandas as pd

        g = g.sort_values([count_col, id_col],
                          ascending=[False, True], kind="mergesort")
        counts = g[count_col].to_numpy()
        bkt = int(g["__bucket"].iloc[0])
        caps: list[tuple[int, int]] = []  # sorted (remaining, seq_local)
        fills: list[int] = []             # total fill per sequence
        assign = np.empty(len(g), np.int64)
        for i, c in enumerate(counts):
            c = int(c)
            j = bisect.bisect_left(caps, (c,))
            if j == len(caps):            # nothing fits: open a sequence
                assign[i] = len(fills)
                rem = budget - c
                if rem > 0:
                    bisect.insort(caps, (rem, len(fills)))
                fills.append(c)
            else:                          # tightest fit, lowest seq id
                rem, s = caps.pop(j)
                assign[i] = s
                fills[s] += c
                if rem - c > 0:
                    bisect.insort(caps, (rem - c, s))
        base = np.int64(bkt) << np.int64(32)
        out = pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            count_col: counts,
            "seq_id": base + assign,
            "seq_fill": np.array(fills, np.int64)[assign],
        })
        return out

    return ds.map_batches(bucket, batch_format="pyarrow") \
        .groupby("__bucket").map_groups(pack, batch_format="pandas")


def split_assign(ds: ray.data.Dataset, id_col: str,
                 splits: dict[str, float],
                 out: str = "split") -> ray.data.Dataset:
    """Deterministic train/val/test split assignment: each row lands in
    the first split whose cumulative ``knuth_hash(id)`` threshold
    exceeds its hash — a pure per-batch map (no shuffle, no RNG state),
    stable across runs, partitionings, and cluster sizes, so the same
    document NEVER migrates between train and eval when the corpus is
    re-sharded or the cluster resized. ``splits`` maps name -> rate;
    rates must sum to 1 (the last split absorbs integer-floor
    residue). Power-of-two-friendly rates (0.75 / 0.125) keep the
    thresholds exactly representable so a SQL CASE oracle matches
    bit-for-bit."""
    names = list(splits)
    rates = np.array([splits[n] for n in names], np.float64)
    if abs(rates.sum() - 1.0) > 1e-9:
        raise ValueError(f"split rates sum to {rates.sum()}, not 1")
    steps = np.array([np.int64(int(r * float(MOD))) for r in rates[:-1]],
                     np.int64)
    thr = np.cumsum(steps)  # upper bounds for all but the last split
    name_arr = pa.array(names, pa.string())

    def assign(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        h = _knuth_hash(ids)
        idx = np.searchsorted(thr, h, side="right")
        return t.append_column(out, name_arr.take(pa.array(idx)))

    return ds.map_batches(assign, batch_format="pyarrow")
