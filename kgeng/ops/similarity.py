"""Similarity search over an embedding column (list<float>).

- ``brute_force_topk``: the exact baseline — per-batch numpy matmul of the
  (broadcast) query matrix against each embedding block, local top-k per
  block, then a tiny global top-k reduction. The corpus streams; only
  (query_id, vec_id, sim) survivors shuffle.
- ``lsh_topk``: the scale path — random-hyperplane signatures bucket the
  corpus; only matching buckets are scored. Recall < 1 by construction;
  bucket width trades recall for cost.
- ``embedding_near_dup``: all pairs with cosine >= threshold, via the same
  hyperplane bucketing.

All scoring is float64 so results are reproducible and comparable to a
DuckDB oracle (``list_cosine_similarity``).

The small driver-side arrays (queries, hyperplanes, centroids) reach the
block functions as ``fn_args`` values: Ray puts the map transformer once
per operator and hands every task the resolved values, so no task blocks
in ``ray.get`` (a ref in ``fn_args`` would arrive unresolved).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _global_topk(k: int):
    """The ONE global reduce for every top-k path: (sim desc, vec_id
    asc) tie-break — DuckDB-oracle parity depends on all paths agreeing."""
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["sim", "vec_id"],
                             ascending=[False, True]).head(k)
    return fn


def _stack(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def brute_force_topk(ds: ray.data.Dataset, queries: np.ndarray,
                     query_ids: list, k: int = 10,
                     emb_col: str = "embedding",
                     id_col: str = "vec_id",
                     round_to: int = 6) -> ray.data.Dataset:
    """Exact cosine top-k for each query row. Ties broken by ascending
    vec_id (deterministic). Returns (query_id, vec_id, sim)."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    def local_topk(t: pa.Table, q: np.ndarray, qids: list) -> pa.Table:
        m = _normalize(_stack(t[emb_col]))
        sims = m @ q.T  # (n, Q)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        out_q, out_v, out_s = [], [], []
        kk = min(k, len(ids))
        for qi in range(q.shape[0]):
            s = np.round(sims[:, qi], round_to)
            # top-k with deterministic tie-break: sort by (-sim, vec_id)
            order = np.lexsort((ids, -s))[:kk]
            out_q.extend([qids[qi]] * len(order))
            out_v.extend(ids[order].tolist())
            out_s.extend(s[order].tolist())
        return pa.table({"query_id": pa.array(out_q),
                         "vec_id": pa.array(out_v),
                         "sim": pa.array(out_s, pa.float64())})

    local = ds.map_batches(local_topk, fn_args=(qn, list(query_ids)),
                           batch_format="pyarrow", batch_size=8192)

    global_topk = _global_topk(k)

    return local.groupby("query_id").map_groups(
        global_topk, batch_format="pandas")


def hyperplane_signatures(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Sign-pattern bucket ids (uint64) for rows of m."""
    bits = (m @ planes.T) > 0  # (n, P)
    weights = (np.uint64(1) << np.arange(planes.shape[0], dtype=np.uint64))
    return (bits.astype(np.uint64) * weights[None, :]).sum(axis=1,
                                                           dtype=np.uint64)


def lsh_topk(ds: ray.data.Dataset, queries: np.ndarray, query_ids: list,
             k: int = 10, emb_col: str = "embedding", id_col: str = "vec_id",
             num_planes: int = 8, num_tables: int = 4,
             dim: int | None = None, seed: int = 99,
             round_to: int = 6) -> ray.data.Dataset:
    """Approximate top-k: score only vectors sharing a hyperplane bucket
    with the query in at least one of ``num_tables`` tables. Recall is
    approximate by construction (documented); raise num_tables or lower
    num_planes to trade cost for recall."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    d = dim or qn.shape[1]
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((num_tables, num_planes, d))
    q_sigs = np.stack([hyperplane_signatures(qn, planes[t])
                       for t in range(num_tables)], axis=1)  # (Q, T)
    def local(t: pa.Table, q: np.ndarray, qids: list, pl: np.ndarray,
              qs: np.ndarray) -> pa.Table:
        m = _normalize(_stack(t[emb_col]))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        sigs = np.stack([hyperplane_signatures(m, pl[tb])
                         for tb in range(pl.shape[0])], axis=1)  # (n, T)
        out_q, out_v, out_s = [], [], []
        for qi in range(q.shape[0]):
            cand = (sigs == qs[qi][None, :]).any(axis=1)
            if not cand.any():
                continue
            sims = np.round(m[cand] @ q[qi], round_to)
            cids = ids[cand]
            kk = min(k, len(cids))
            order = np.lexsort((cids, -sims))[:kk]
            out_q.extend([qids[qi]] * kk)
            out_v.extend(cids[order].tolist())
            out_s.extend(sims[order].tolist())
        return pa.table({"query_id": pa.array(out_q),
                         "vec_id": pa.array(out_v),
                         "sim": pa.array(out_s, pa.float64())})

    local_ds = ds.map_batches(local,
                              fn_args=(qn, list(query_ids), planes, q_sigs),
                              batch_format="pyarrow", batch_size=8192)

    global_topk = _global_topk(k)

    return local_ds.groupby("query_id").map_groups(
        global_topk, batch_format="pandas")


def _pair_emit(threshold: float, round_to: int, tile: int = 2048):
    """In-bucket exact cosine pair scoring, TILED: a hot bucket (the
    near-dup use case concentrates duplicates) must not allocate an
    n x n matrix — ``tile``-row tiles bound each sims block to ~32 MB
    regardless of bucket size, with identical output. Shared by the
    hyperplane-bucketed and kmeans-bucketed (semantic) paths."""

    def emit(g: pd.DataFrame) -> pd.DataFrame:
        m = np.stack([np.asarray(e) for e in g["emb"]])
        ids = np.asarray(g["vec_id"])
        order = np.argsort(ids)
        m, ids = m[order], ids[order]
        n = len(ids)
        outs = {"a": [], "b": [], "sim": []}
        for i0 in range(0, n, tile):
            mi = m[i0:i0 + tile]
            for j0 in range(i0, n, tile):
                sims = np.round(mi @ m[j0:j0 + tile].T, round_to)
                ii, jj = np.where(sims >= threshold)
                keep = (i0 + ii) < (j0 + jj)  # strict upper triangle
                ii, jj = ii[keep], jj[keep]
                outs["a"].append(ids[i0 + ii])
                outs["b"].append(ids[j0 + jj])
                outs["sim"].append(sims[ii, jj])
        cat = {k: (np.concatenate(v) if v else np.array([], dtype=object))
               for k, v in outs.items()}
        return pd.DataFrame({"a": cat["a"], "b": cat["b"],
                             "sim": cat["sim"].astype(np.float64)})

    return emit


def embedding_near_dup(ds: ray.data.Dataset, threshold: float = 0.95,
                       emb_col: str = "embedding", id_col: str = "vec_id",
                       num_planes: int = 10, seed: int = 7,
                       round_to: int = 6) -> ray.data.Dataset:
    """Pairs (a, b, sim) with cosine >= threshold, via one hyperplane
    bucketing + in-bucket exact scoring. High-threshold near-dups almost
    always share a bucket; for guaranteed recall run with num_planes=0
    (single bucket = exact quadratic, small inputs only)."""
    first = ds.take(1)
    d = len(first[0][emb_col])
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((max(num_planes, 0), d))

    def bucketize(t: pa.Table) -> pa.Table:
        m = _normalize(_stack(t[emb_col]))
        if planes.shape[0]:
            sig = hyperplane_signatures(m, planes)
        else:
            sig = np.zeros(len(m), dtype=np.uint64)
        # 63-bit int64 shuffle key (uint64 > 2^63-1 breaks Ray's
        # block-boundary Arrow conversion; relevant at num_planes >= 63)
        sig = (sig & np.uint64((1 << 63) - 1)).astype(np.int64)
        # fixed-size-list from the flat buffer — never n*d Python floats
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(m.ravel(), pa.float64()), m.shape[1])
        return pa.table({
            "bucket": pa.array(sig),
            "vec_id": pc.cast(t[id_col], pa.string()),
            "emb": emb,
        })

    buck = ds.map_batches(bucketize, batch_format="pyarrow")
    emit = _pair_emit(threshold, round_to)
    pairs = buck.groupby("bucket").map_groups(emit, batch_format="pandas")
    dedup = pairs.groupby(["a", "b"]).max("sim")
    return dedup.map_batches(
        lambda t: t.rename_columns(["a", "b", "sim"]),
        batch_format="pyarrow")


# ---------------------------------------------------------------- IVF ANN

def _kmeans(sample: np.ndarray, k: int, iters: int = 10,
            seed: int = 5) -> np.ndarray:
    """Small numpy k-means for IVF coarse centroids (driver-side, on a
    sample). Deterministic: seeded init, fixed iteration count."""
    rng = np.random.default_rng(seed)
    k = min(k, len(sample))
    cents = sample[rng.choice(len(sample), size=k, replace=False)]
    for _ in range(iters):
        d = ((sample[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(k):
            m = assign == c
            if m.any():
                cents[c] = sample[m].mean(axis=0)
    return cents


def ivf_topk(ds: ray.data.Dataset, queries: np.ndarray, query_ids: list,
             k: int = 10, emb_col: str = "embedding", id_col: str = "vec_id",
             num_cells: int = 16, nprobe: int = 4,
             sample_size: int = 2048, seed: int = 5,
             round_to: int = 6,
             centroids: np.ndarray | None = None) -> ray.data.Dataset:
    """IVF (inverted-file) approximate top-k — the other scale path next to
    ``lsh_topk``: coarse k-means cells built once from a driver-side sample
    and broadcast; each block scores a query only against its vectors in
    the query's ``nprobe`` nearest cells. Recall < 1 by construction.

    ``centroids`` (optional, (cells, dim)) supplies an explicit codebook
    — the production IVF shape where cells are trained offline — and
    skips the sample + k-means pass entirely. Cell assignment ranks by
    raw dot product (argmax is scale-invariant for unit-norm inputs),
    which also makes the explicit-codebook path SQL-expressible: the
    ``ann_topk_ivf`` registry oracle embeds the codebook as literals."""
    if centroids is not None:
        cents = np.asarray(centroids, dtype=np.float64)
        return _ivf_score(ds, queries, query_ids, cents, k, emb_col,
                          id_col, nprobe, round_to)
    # deterministic pseudo-random sample: lowest pandas-hash ids, NOT
    # the first N rows — a sorted/clustered corpus prefix would place
    # every centroid in one region and collapse recall
    n_total = ds.count()
    if n_total > sample_size:
        rate = min(1.0, 3.0 * sample_size / n_total)
        thr = np.uint64(int(rate * float(2**64 - 1)))

        def keep(t: pa.Table) -> pa.Table:
            ids = np.asarray(t[id_col].to_pylist(), dtype=object)
            h = pd.util.hash_array(ids)
            return t.filter(pa.array(h <= thr))

        sample_rows = ds.map_batches(keep, batch_format="pyarrow") \
            .limit(sample_size).take_all()
    else:
        sample_rows = ds.limit(sample_size).take_all()
    sample = _normalize(np.asarray(
        [r[emb_col] for r in sample_rows], dtype=np.float64))
    cents = _kmeans(sample, num_cells, seed=seed)
    return _ivf_score(ds, queries, query_ids, cents, k, emb_col,
                      id_col, nprobe, round_to)


def _ivf_score(ds: ray.data.Dataset, queries: np.ndarray,
               query_ids: list, cents: np.ndarray, k: int,
               emb_col: str, id_col: str, nprobe: int,
               round_to: int) -> ray.data.Dataset:
    """Shared IVF scoring pass: pass (queries, centroids, probe cells)
    as ``fn_args``, score each block's vectors only against queries whose
    probe set contains the vector's cell."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    q_cells = np.argsort(-(qn @ cents.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    def local(t: pa.Table, q: np.ndarray, qids: list, c: np.ndarray,
              qc: np.ndarray) -> pa.Table:
        m = _normalize(_stack(t[emb_col]))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        cell = (m @ c.T).argmax(axis=1)  # nearest centroid per vector
        out_q, out_v, out_s = [], [], []
        for qi in range(q.shape[0]):
            cand = np.isin(cell, qc[qi])
            if not cand.any():
                continue
            sims = np.round(m[cand] @ q[qi], round_to)
            cids = ids[cand]
            kk = min(k, len(cids))
            order = np.lexsort((cids, -sims))[:kk]
            out_q.extend([qids[qi]] * kk)
            out_v.extend(cids[order].tolist())
            out_s.extend(sims[order].tolist())
        return pa.table({"query_id": pa.array(out_q),
                         "vec_id": pa.array(out_v),
                         "sim": pa.array(out_s, pa.float64())})

    local_ds = ds.map_batches(local,
                              fn_args=(qn, list(query_ids), cents, q_cells),
                              batch_format="pyarrow", batch_size=8192)

    global_topk = _global_topk(k)

    return local_ds.groupby("query_id").map_groups(
        global_topk, batch_format="pandas")


def grouped_centroid(ds: ray.data.Dataset, key: str = "label",
                     vec: str = "embedding",
                     scale: float = 1_000_000.0) -> ray.data.Dataset:
    """Per-group embedding centroid in long format (key, dim,
    centroid) — the class-prototype / cluster-center aggregation.

    Exactness across summation orders: components quantize to scaled
    int64 (Arrow half-away rounding, matching SQL ``round``) BEFORE
    summing, so partial sums are order-invariant; the final divide
    states the identical IEEE tree the oracle uses
    (``CAST(sum AS DOUBLE) / scale / n``). Per block: one matrix
    stack + label-sorted ``np.add.reduceat`` — the shuffle carries
    n_groups x dim partial rows, never the vectors."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        m = _stack(t[vec])
        if m.size == 0:
            return pa.table({key: pa.array([], t[key].type),
                             "dim": pa.array([], pa.int32()),
                             "sq": pa.array([], pa.int64()),
                             "n_p": pa.array([], pa.int64())})
        flat = pc.cast(pc.round(
            pc.multiply(pa.array(m.astype(np.float64).ravel()), scale),
            ndigits=0, round_mode="half_towards_infinity"), pa.int64()) \
            .to_numpy(zero_copy_only=False).reshape(m.shape)
        labels = t[key].to_numpy(zero_copy_only=False)
        order = np.argsort(labels, kind="stable")
        sl = labels[order]
        starts = np.flatnonzero(np.r_[True, sl[1:] != sl[:-1]])
        sums = np.add.reduceat(flat[order], starts, axis=0)
        counts = np.diff(np.r_[starts, sl.size])
        d = m.shape[1]
        return pa.table({
            key: pa.array(np.repeat(sl[starts], d)),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int32),
                                    starts.size)),
            "sq": pa.array(sums.ravel().astype(np.int64)),
            "n_p": pa.array(np.repeat(counts.astype(np.int64), d)),
        })

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby([key, "dim"]).aggregate(Sum("sq", alias_name="sq"),
                                         Sum("n_p", alias_name="n"))

    def finish(t: pa.Table) -> pa.Table:
        sq = t["sq"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({key: t[key],
                         "dim": pc.cast(t["dim"], pa.int64()),
                         "centroid": pa.array(sq / scale / n)})

    return agg.map_batches(finish, batch_format="pyarrow")


def normalize_quantize_q8(ds: ray.data.Dataset, id_col: str = "vec_id",
                          vec: str = "embedding",
                          scale: float = 1_000_000.0) -> ray.data.Dataset:
    """L2-normalize each embedding and quantize to int8 levels
    (q8 = round(127 * x / ||x||)) — the vector-compression prep for an
    ANN index, emitted in long (id, dim, q8) form.

    Exactness: components quantize to int64 at ``scale`` first, the
    squared norm is an INTEGER sum (order-invariant; int64-safe while
    dim * (scale * max|x|)^2 < 2^63 — 64-dim unit-ish vectors at 1e6
    leave 8 orders of headroom), sqrt is IEEE-exact, and the final
    divide/multiply tree is stated identically in the SQL oracle, so
    results hash-match. Zero vectors drop (no direction to keep).
    Stateless per-batch kernel — no shuffle at all."""

    def f(t: pa.Table) -> pa.Table:
        m = _stack(t[vec])
        ids = t[id_col].to_numpy(zero_copy_only=False)
        if m.size == 0:
            return pa.table({id_col: pa.array([], t[id_col].type),
                             "dim": pa.array([], pa.int64()),
                             "q8": pa.array([], pa.int64())})
        q = pc.cast(pc.round(
            pc.multiply(pa.array(m.astype(np.float64).ravel()), scale),
            ndigits=0, round_mode="half_towards_infinity"), pa.int64()) \
            .to_numpy(zero_copy_only=False).reshape(m.shape)
        ss = (q * q).sum(axis=1)
        keep = ss > 0
        q, ids, ss = q[keep], ids[keep], ss[keep]
        nrm = np.sqrt(ss.astype(np.float64)) / scale
        z = (q.astype(np.float64) / scale) / nrm[:, None]
        q8 = pc.cast(pc.round(pa.array((127.0 * z).ravel()), ndigits=0,
                              round_mode="half_towards_infinity"),
                     pa.int64())
        d = m.shape[1]
        return pa.table({
            id_col: pa.array(np.repeat(ids, d)),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64),
                                    len(ids))),
            "q8": q8,
        })

    return ds.map_batches(f, batch_format="pyarrow")


def kmeans_centroids(ds: ray.data.Dataset, k: int = 8, iters: int = 10,
                     id_col: str = "vec_id", vec: str = "embedding",
                     scale: float = 1_000_000.0
                     ) -> tuple[np.ndarray, int]:
    """The Lloyd's-iteration core of :func:`kmeans_assign`: returns
    (centroids [k x dim float64], iterations run). Deterministic and
    partition-invariant by construction:

    - centroids initialize from the ``k`` LOWEST-id vectors (one tiny
      distributed sort+limit);
    - each iteration is ONE streaming pass: centroids passed as
      ``fn_args``, every block computes assignments (float64 distances
      against the same matrix — per-row deterministic) and per-cluster
      partial sums QUANTIZED to int64 at ``scale``, so the driver-side
      merge is order-invariant; the driver holds only k x dim;
    - distance ties break toward the lower cluster id (argmin);
    - an emptied cluster keeps its previous centroid;
    - converged (no centroid movement) stops early — same result at
      any partitioning.
    """
    if k < 1 or iters < 1:
        raise ValueError("k and iters must be >= 1")
    # materialize: the seed sort + every Lloyd iteration consumes this
    # dataset — a lazy parquet read would re-scan per iteration
    ds = ds.materialize()

    def project(t: pa.Table) -> pa.Table:
        return pa.table({id_col: t[id_col], vec: t[vec]})

    seed_rows = ds.map_batches(project, batch_format="pyarrow") \
        .sort(id_col).limit(k).take_all()
    if len(seed_rows) < k:
        raise ValueError(f"k={k} exceeds the {len(seed_rows)} vectors")
    cent = np.stack([np.asarray(r[vec], np.float64)
                     for r in seed_rows])

    def quant(m: np.ndarray) -> np.ndarray:
        return (np.sign(m) * np.floor(np.abs(m) * scale + 0.5)) \
            .astype(np.int64)

    n_done = 0
    for _ in range(iters):
        def partial(t: pa.Table, c: np.ndarray) -> pa.Table:
            m = _stack(t[vec]).astype(np.float64)
            if m.size == 0:
                return pa.table({
                    "cl": pa.array([], pa.int32()),
                    "n_p": pa.array([], pa.int64()),
                    "sq": pa.array([], pa.list_(pa.int64()))})
            d2 = ((m * m).sum(axis=1)[:, None]
                  - 2.0 * (m @ c.T)
                  + (c * c).sum(axis=1)[None, :])
            a = np.argmin(d2, axis=1)  # ties -> lowest cluster id
            q = quant(m)
            sums = np.zeros((c.shape[0], m.shape[1]), np.int64)
            np.add.at(sums, a, q)
            cnt = np.bincount(a, minlength=c.shape[0]).astype(np.int64)
            return pa.table({
                "cl": pa.array(np.arange(c.shape[0], dtype=np.int32)),
                "n_p": pa.array(cnt),
                "sq": pa.array(list(sums), pa.list_(pa.int64()))})

        sums = np.zeros_like(cent, dtype=np.int64)
        cnts = np.zeros(k, np.int64)
        for b in ds.map_batches(partial, fn_args=(cent,),
                                batch_format="pyarrow") \
                .iter_batches(batch_size=None, batch_format="pyarrow"):
            cl = b["cl"].to_numpy(zero_copy_only=False)
            # np.add.at: duplicate-safe — a block bundling several
            # partial outputs (repeated cluster ids) must accumulate,
            # not last-write-wins like fancy-indexed +=
            np.add.at(cnts, cl, b["n_p"].to_numpy(zero_copy_only=False))
            sq = b["sq"].combine_chunks()
            flat = sq.flatten().to_numpy(zero_copy_only=False)
            np.add.at(sums, cl, flat.reshape(len(cl), -1))
        new = cent.copy()
        nz = cnts > 0
        new[nz] = (sums[nz].astype(np.float64) / scale) \
            / cnts[nz, None].astype(np.float64)
        n_done += 1
        if np.array_equal(new, cent):
            break
        cent = new

    return cent, n_done


def kmeans_assign(ds: ray.data.Dataset, k: int = 8, iters: int = 10,
                  id_col: str = "vec_id", vec: str = "embedding",
                  scale: float = 1_000_000.0) -> ray.data.Dataset:
    """Distributed Lloyd's k-means over an embedding column, returning
    (id, cluster, n_iters_run) — the clustering step behind semantic
    bucketing / curation / IVF index builds. See
    :func:`kmeans_centroids` for the determinism contract."""
    ds = ds.materialize()  # shared by the iterations AND the assign pass
    cent, iters_run = kmeans_centroids(ds, k=k, iters=iters,
                                       id_col=id_col, vec=vec,
                                       scale=scale)
    def assign(t: pa.Table, c: np.ndarray) -> pa.Table:
        m = _stack(t[vec]).astype(np.float64)
        if m.size == 0:
            return pa.table({id_col: t[id_col],
                             "cluster": pa.array([], pa.int64()),
                             "n_iters_run": pa.array([], pa.int64())})
        d2 = ((m * m).sum(axis=1)[:, None] - 2.0 * (m @ c.T)
              + (c * c).sum(axis=1)[None, :])
        a = np.argmin(d2, axis=1).astype(np.int64)
        return pa.table({
            id_col: t[id_col], "cluster": pa.array(a),
            "n_iters_run": pa.array(
                np.full(len(a), iters_run, np.int64))})

    return ds.map_batches(assign, fn_args=(cent,), batch_format="pyarrow")


def semantic_dup_pairs(ds: ray.data.Dataset, k: int = 16,
                       iters: int = 5, threshold: float = 0.95,
                       emb_col: str = "embedding",
                       id_col: str = "vec_id",
                       round_to: int = 6,
                       scale: float = 1_000_000.0) -> ray.data.Dataset:
    """SemDeDup-style semantic near-duplicate pairs: k-means clusters
    (Abbas et al. 2023's blocking step) instead of hyperplane buckets,
    then EXACT tiled cosine scoring within each cluster — every vector
    lands in exactly one cluster, so no cross-bucket pair dedup shuffle
    is needed at all.

    Recall is bounded by cluster purity (a true pair split across
    clusters is missed — the standard SemDeDup trade; the hyperplane
    path and the exact num_planes=0 path in
    :func:`embedding_near_dup` remain the guaranteed-recall options).
    Deterministic: the centroid iteration is order-invariant
    (:func:`kmeans_centroids`), assignment is per-row."""
    ds = ds.materialize()  # shared by the iterations AND bucketize
    cent, _ = kmeans_centroids(ds, k=k, iters=iters, id_col=id_col,
                               vec=emb_col, scale=scale)
    def bucketize(t: pa.Table, c: np.ndarray) -> pa.Table:
        raw = _stack(t[emb_col]).astype(np.float64)
        if raw.size == 0:
            return pa.table({
                "bucket": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.string()),
                "emb": pa.array([], pa.list_(pa.float64()))})
        d2 = ((raw * raw).sum(axis=1)[:, None] - 2.0 * (raw @ c.T)
              + (c * c).sum(axis=1)[None, :])
        a = np.argmin(d2, axis=1).astype(np.int64)
        m = _normalize(raw)
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(m.ravel(), pa.float64()), m.shape[1])
        return pa.table({"bucket": pa.array(a),
                         "vec_id": pc.cast(t[id_col], pa.string()),
                         "emb": emb})

    return ds.map_batches(bucketize, fn_args=(cent,),
                          batch_format="pyarrow") \
        .groupby("bucket").map_groups(_pair_emit(threshold, round_to),
                                      batch_format="pandas")


def _q8_wide(t: pa.Table, id_col: str, vec: str,
             scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Quantize a block to wide q8 int64 vectors with EXACTLY the
    arithmetic of :func:`normalize_quantize_q8` (q = round(x*scale)
    int64; nrm = sqrt(sum q^2)/scale; q8 = round(127*(q/scale)/nrm));
    zero vectors drop. Returns (ids, Q[n x dim] int64)."""
    m = _stack(t[vec])
    ids = t[id_col].to_numpy(zero_copy_only=False)
    if m.size == 0:
        return ids[:0], np.zeros((0, 1), np.int64)
    q = pc.cast(pc.round(
        pc.multiply(pa.array(m.astype(np.float64).ravel()), scale),
        ndigits=0, round_mode="half_towards_infinity"), pa.int64()) \
        .to_numpy(zero_copy_only=False).reshape(m.shape)
    ss = (q * q).sum(axis=1)
    keep = ss > 0
    q, ids, ss = q[keep], ids[keep], ss[keep]
    nrm = np.sqrt(ss.astype(np.float64)) / scale
    z = (q.astype(np.float64) / scale) / nrm[:, None]
    q8 = pc.cast(pc.round(pa.array((127.0 * z).ravel()), ndigits=0,
                          round_mode="half_towards_infinity"),
                 pa.int64()) \
        .to_numpy(zero_copy_only=False).reshape(q.shape)
    return ids, q8


def _div_round_half_away(s: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Integer round-half-away-from-zero of s/n (n > 0) — the exact
    formula the SQL oracle states: sign(s) * ((2|s| + n) // (2n))."""
    s = s.astype(np.int64)
    n = n.astype(np.int64)
    return np.sign(s) * ((2 * np.abs(s) + n) // (2 * n))


def _stack_i64(col) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    return flat.reshape(len(arr), -1)


def _kmeans_q8_quantized(ds: ray.data.Dataset, k: int, iters: int,
                         id_col: str, vec: str, scale: float
                         ) -> tuple[ray.data.Dataset, np.ndarray]:
    """Shared core of the q8 k-means family: quantize once into a
    materialized (id, q8v) dataset, run ``iters`` integer Lloyd's
    rounds, return (quantized dataset, final int64 centroids)."""
    if k < 1 or iters < 1:
        raise ValueError("k and iters must be >= 1")

    def quant_block(t: pa.Table) -> pa.Table:
        ids, q8 = _q8_wide(t, id_col, vec, scale)
        if len(ids) == 0:
            return pa.table({
                id_col: pa.array([], t[id_col].type),
                "q8v": pa.array([], pa.list_(pa.int64()))})
        return pa.table({
            id_col: pa.array(ids),
            "q8v": pa.array(list(q8), pa.list_(pa.int64()))})

    qds = ds.map_batches(quant_block, batch_format="pyarrow") \
        .materialize()
    seeds = qds.sort(id_col).limit(k).take_all()
    if len(seeds) < k:
        raise ValueError(f"k={k} exceeds the {len(seeds)} nonzero "
                         "vectors")
    cent = np.stack([np.asarray(r["q8v"], np.int64) for r in seeds])

    for _ in range(iters):
        def partial(t: pa.Table, c: np.ndarray) -> pa.Table:
            m = _stack_i64(t["q8v"])
            if m.size == 0:
                return pa.table({
                    "cl": pa.array([], pa.int32()),
                    "n_p": pa.array([], pa.int64()),
                    "sq": pa.array([], pa.list_(pa.int64()))})
            d2 = ((m * m).sum(axis=1)[:, None] - 2 * (m @ c.T)
                  + (c * c).sum(axis=1)[None, :])
            a = np.argmin(d2, axis=1)  # ties -> lowest cluster id
            sums = np.zeros((c.shape[0], m.shape[1]), np.int64)
            np.add.at(sums, a, m)
            cnt = np.bincount(a, minlength=c.shape[0]).astype(np.int64)
            return pa.table({
                "cl": pa.array(np.arange(c.shape[0], dtype=np.int32)),
                "n_p": pa.array(cnt),
                "sq": pa.array(list(sums), pa.list_(pa.int64()))})

        sums = np.zeros_like(cent)
        cnts = np.zeros(k, np.int64)
        for b in qds.map_batches(partial, fn_args=(cent,),
                                 batch_format="pyarrow") \
                .iter_batches(batch_size=None, batch_format="pyarrow"):
            cl = b["cl"].to_numpy(zero_copy_only=False)
            np.add.at(cnts, cl, b["n_p"].to_numpy(zero_copy_only=False))
            np.add.at(sums, cl,
                      _stack_i64(b["sq"]).reshape(len(cl), -1))
        new = cent.copy()
        nz = cnts > 0
        new[nz] = _div_round_half_away(sums[nz], cnts[nz, None])
        cent = new  # fixed iteration count: no early stop, so the
        # SQL replay unrolls exactly ``iters`` rounds

    return qds, cent


def kmeans_q8_assign(ds: ray.data.Dataset, k: int = 8, iters: int = 3,
                     id_col: str = "vec_id", vec: str = "embedding",
                     scale: float = 1_000_000.0) -> ray.data.Dataset:
    """Integer-exact Lloyd's k-means over q8-quantized embeddings —
    the codebook-training path for quantized vectors (the PQ/IVF
    practice) and, unlike the float :func:`kmeans_assign`, fully
    SQL-replayable: q8 components, squared distances, and the
    round-half-away centroid updates are all int64, so there is no
    IEEE summation-order ambiguity anywhere and a DuckDB oracle that
    unrolls the ``iters`` rounds hash-matches exactly. Seeds are the
    ``k`` lowest-id nonzero vectors; distance ties break toward the
    lower cluster id; an emptied cluster keeps its previous centroid;
    zero vectors drop (no direction to quantize). Returns
    (id, cluster)."""
    qds, cent = _kmeans_q8_quantized(ds, k, iters, id_col, vec, scale)
    def assign(t: pa.Table, c: np.ndarray) -> pa.Table:
        m = _stack_i64(t["q8v"])
        if m.size == 0:
            return pa.table({id_col: t[id_col],
                             "cluster": pa.array([], pa.int64())})
        d2 = ((m * m).sum(axis=1)[:, None] - 2 * (m @ c.T)
              + (c * c).sum(axis=1)[None, :])
        return pa.table({
            id_col: t[id_col],
            "cluster": pa.array(np.argmin(d2, axis=1).astype(np.int64))})

    return qds.map_batches(assign, fn_args=(cent,), batch_format="pyarrow")


def semantic_dup_pairs_q8(ds: ray.data.Dataset, k: int = 8,
                          iters: int = 3,
                          tau2_num: int = 4, tau2_den: int = 25,
                          id_col: str = "vec_id",
                          vec: str = "embedding",
                          scale: float = 1_000_000.0,
                          tile: int = 2048) -> ray.data.Dataset:
    """SemDeDup on the q8 integer grid: :func:`kmeans_q8_assign`
    blocking, then an integer-exact within-cluster cosine test — pair
    (a, b) passes iff dot > 0 and tau2_den*dot^2 >= tau2_num*|a|^2*|b|^2
    (tau^2 = tau2_num/tau2_den; the default 4/25 is cos >= 0.4). No
    float arithmetic at all, so — unlike the float
    :func:`semantic_dup_pairs` — the full chain (clustering included)
    hash-matches its DuckDB replay. Output (id_a, id_b, dot) with
    id_a < id_b; the same one-cluster-per-vector SemDeDup recall trade
    applies. int64-safe while max(tau2_num, tau2_den) * (dim*127^2)^2
    < 2^63: |dot| and |a|^2 are at most dim*127^2, so both sides of the
    test stay below 2^63 (the defaults 4/25 allow dim up to ~37.6k).
    Checked on the driver from the centroid width; ``ValueError`` past
    it, never a silent wrap."""
    qds, cent = _kmeans_q8_quantized(ds, k, iters, id_col, vec, scale)
    top = cent.shape[1] * 127 * 127  # Python ints: the check cannot wrap
    if max(tau2_num, tau2_den) * top * top >= 1 << 63:
        raise ValueError(
            f"semantic_dup_pairs_q8: dim={cent.shape[1]} with "
            f"tau2_num={tau2_num}, tau2_den={tau2_den} overflows int64 "
            "in the integer cosine test (needs max(tau2_num, tau2_den) "
            "* (dim*127^2)^2 < 2^63)")
    def bucketize(t: pa.Table, c: np.ndarray) -> pa.Table:
        m = _stack_i64(t["q8v"])
        if m.size == 0:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             id_col: t[id_col], "q8v": t["q8v"]})
        d2 = ((m * m).sum(axis=1)[:, None] - 2 * (m @ c.T)
              + (c * c).sum(axis=1)[None, :])
        return pa.table({
            "bucket": pa.array(np.argmin(d2, axis=1).astype(np.int64)),
            id_col: t[id_col], "q8v": t["q8v"]})

    def emit(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": np.array([], np.int64),
                              "id_b": np.array([], np.int64),
                              "dot": np.array([], np.int64)})
        n = len(g)
        if n < 2:
            return empty
        g = g.sort_values(id_col, kind="mergesort")
        ids = g[id_col].to_numpy()
        m = np.stack(g["q8v"].to_numpy()).astype(np.int64)
        nn = (m * m).sum(axis=1)
        frames = []
        for lo in range(0, n, tile):
            a = m[lo:lo + tile]
            dots = a @ m.T  # int64 exact
            gi = np.arange(lo, lo + a.shape[0])
            upper = np.arange(n)[None, :] > gi[:, None]
            ok = upper & (dots > 0) & (
                tau2_den * dots * dots
                >= tau2_num * nn[gi][:, None] * nn[None, :])
            ai, bj = np.nonzero(ok)
            if len(ai):
                frames.append(pd.DataFrame({
                    "id_a": ids[gi[ai]].astype(np.int64),
                    "id_b": ids[bj].astype(np.int64),
                    "dot": dots[ai, bj].astype(np.int64)}))
        return pd.concat(frames, ignore_index=True) if frames else empty

    return qds.map_batches(bucketize, fn_args=(cent,),
                           batch_format="pyarrow") \
        .groupby("bucket").map_groups(emit, batch_format="pandas")
