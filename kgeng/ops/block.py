"""MinHash-LSH blocking over mention surfaces.

shingle (char k-grams into a CSR, each surface once) -> minhash -> band
keys -> ``band_pairs`` (the pairs of every band group, one lexsort) ->
``pair_jaccard`` verify (one sort of (pair, shingle) keys over the CSR).
The driver plan runs both kernels over the whole surface set; the
distributed plan runs ``band_pairs`` per ``band_hash`` bucket of
``join.by_key``, dedups pairs globally and verifies per batch.
Both plans drop a band group of more than ``max_band_group`` rows and
count it as one row ``("", "band:{band_idx}:{band_hash}", -rows)``.

Only *unique surfaces* (∪ gazetteer surfaces) enter this stage, orders of
magnitude fewer than the corpus. All hashing is content-keyed (crc32 +
fixed odd multipliers), never Python's randomized ``hash()``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import ray

from kgeng.config import BlockConfig
from kgeng.ops.hashing import MERSENNE61, mask63, minhash_signatures
from kgeng.ops.join import by_key

_MERSENNE = int(MERSENNE61)  # single home: kgeng/ops/hashing.py
_JACCARD_CHUNK = 1 << 17  # pairs per pair_jaccard sort


def _perm_tables(num_perm: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64)
    return a, b


def shingle_hashes(surface: str, k: int) -> np.ndarray:
    """Distinct crc32 hashes of the char k-grams of the lowercased surface
    (two grams can share a crc32; the set keeps one)."""
    s = surface.lower()
    if len(s) < k:
        grams = {s}
    else:
        grams = {s[i:i + k] for i in range(len(s) - k + 1)}
    return np.fromiter({zlib.crc32(g.encode()) for g in grams},
                       dtype=np.int64)


def shingle_csr(surfaces, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every surface's ``shingle_hashes``, concatenated, and the
    ``(n + 1,)`` offsets of each surface's run."""
    hashes = [shingle_hashes(s, k) for s in surfaces]
    bounds = np.zeros(len(hashes) + 1, dtype=np.int64)
    np.cumsum([len(h) for h in hashes], out=bounds[1:])
    x = np.concatenate(hashes) if hashes else np.zeros(0, np.int64)
    return x, bounds


def minhash_batch(surfaces: list[str], cfg: BlockConfig) -> np.ndarray:
    """(n, num_perm) uint64 minhash signatures, vectorized via reduceat.
    EXACT mod-mersenne arithmetic (a plain x*a+b would wrap mod 2^64 and
    leave the claimed universal family), chunked for cache locality."""
    return minhash_signatures(*shingle_csr(surfaces, cfg.shingle_k),
                              *_perm_tables(cfg.num_perm))


def band_keys(sig: np.ndarray, cfg: BlockConfig) -> tuple[np.ndarray, np.ndarray]:
    """Collapse each band's rows into one 63-bit int64 key (63 bits, not
    64: Ray's block boundaries round-trip key values through Python ints
    and int64 — uint64 values above 2^63-1 crash the Arrow conversion).
    Returns (band_idx[n*B], band_hash[n*B]) row-major per surface."""
    n, p = sig.shape
    rows = p // cfg.num_bands
    sig3 = sig.reshape(n, cfg.num_bands, rows)
    mult = np.uint64(0x9E3779B97F4A7C15)
    acc = np.zeros((n, cfg.num_bands), dtype=np.uint64)
    for r in range(rows):
        acc = (acc * mult) ^ sig3[:, :, r]
    band_idx = np.tile(np.arange(cfg.num_bands, dtype=np.int32), n)
    return band_idx, mask63(acc.reshape(-1))


def band_pairs(band, key, codes, cap: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LSH pair kernel: row i puts member ``codes[i]`` (an int >= 0)
    in band group ``(band[i], key[i])``. Returns ``(lo, hi, hot)``: the
    distinct member pairs ``lo < hi`` sharing a group of at most ``cap``
    rows, sorted, and an int64 ``(band, key, rows)`` row of ``hot`` per
    group over the cap (the cap counts rows: drop duplicate rows first
    for a distinct-member cap)."""
    band = np.asarray(band, np.int64)
    key = np.asarray(key, np.int64)
    codes = np.asarray(codes, np.int64)
    order = np.lexsort((codes, key, band))
    band, key, codes = band[order], key[order], codes[order]
    n = len(codes)
    start = np.flatnonzero(np.r_[True, (band[1:] != band[:-1])
                                 | (key[1:] != key[:-1])][:n])
    size = np.diff(np.r_[start, n])
    big = size > cap
    hot = np.stack([band[start[big]], key[start[big]], size[big]], axis=1)
    # each row of a kept group pairs with every later row of its group:
    # repeat the row once per partner, then add the triangular index
    end = np.repeat(np.where(big, 0, start + size), size)
    later = np.maximum(end - np.arange(n) - 1, 0)
    lo_at = np.repeat(np.arange(n), later)
    first = np.repeat(np.cumsum(later) - later, later)
    hi_at = lo_at + 1 + np.arange(len(lo_at)) - first
    lo, hi = codes[lo_at], codes[hi_at]
    m = int(codes.max()) + 1 if n else 1
    other = lo != hi  # duplicate rows pair a member with itself
    pid = np.unique(lo[other] * m + hi[other])
    return pid // m, pid % m, hot


def _pair_keys(x: np.ndarray, bounds: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    # (i << 32) | shingle for every shingle of surface rows[i]
    ln = bounds[rows + 1] - bounds[rows]
    at = np.repeat(bounds[rows] - np.cumsum(ln) + ln, ln) + np.arange(ln.sum())
    return (np.repeat(np.arange(len(rows), dtype=np.int64), ln) << 32) | x[at]


def pair_jaccard(x: np.ndarray, bounds: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """``jaccard`` of surfaces ``lo[i]`` and ``hi[i]`` for every pair, over
    the ``shingle_csr`` of the surfaces (each run must hold distinct
    hashes < 2^32). Intersections are counted by one sort of the pairs'
    (pair, shingle) keys per chunk: a key seen twice is a shared
    shingle. Same floats as ``jaccard``, bit for bit."""
    n_of = np.diff(bounds)
    out = np.empty(len(lo), dtype=np.float64)
    for c0 in range(0, len(lo), _JACCARD_CHUNK):
        a, b = lo[c0:c0 + _JACCARD_CHUNK], hi[c0:c0 + _JACCARD_CHUNK]
        k = np.sort(np.r_[_pair_keys(x, bounds, a), _pair_keys(x, bounds, b)])
        inter = np.bincount(k[1:][k[1:] == k[:-1]] >> 32, minlength=len(a))
        out[c0:c0 + len(a)] = inter / (n_of[a] + n_of[b] - inter)
    return out


def jaccard(a: str, b: str, k: int) -> float:
    ha = set(shingle_hashes(a, k).tolist())
    hb = set(shingle_hashes(b, k).tolist())
    inter = len(ha & hb)
    return inter / (len(ha) + len(hb) - inter) if (ha or hb) else 0.0


def _hot_rows(hot: np.ndarray) -> list[tuple[str, str, float]]:
    # one sentinel per dropped band, keyed by the band so the pair dedup
    # of the distributed plan aggregates drop counts, never collapses them
    return [("", f"band:{b}:{h}", -float(n)) for b, h, n in hot.tolist()]


def _pairs_table(rows, a, b, jac) -> pa.Table:
    return pa.table({
        "a": pa.array([r[0] for r in rows] + a.tolist(), pa.string()),
        "b": pa.array([r[1] for r in rows] + b.tolist(), pa.string()),
        "jac": pa.array(np.r_[[r[2] for r in rows], jac], pa.float64())})


def candidate_pairs(surfaces: ray.data.Dataset,
                    cfg: BlockConfig) -> ray.data.Dataset:
    """surfaces(surface, is_gaz) -> verified pairs (a, b, jac) with a < b,
    plus one sentinel row per band group over ``cfg.max_band_group``
    (see the module docstring)."""
    B = cfg.num_bands

    def bands(t: pa.Table) -> pa.Table:
        # is_gaz is NOT emitted: the pair kernel never reads it, and
        # replicating it num_bands times would pad the shuffle
        surfs = t["surface"].to_pylist()
        band_idx, band_hash = band_keys(minhash_batch(surfs, cfg), cfg)
        return pa.table({
            "surface": pa.array(np.repeat(surfs, B), pa.string()),
            "band_idx": pa.array(band_idx, pa.int32()),
            "band_hash": pa.array(band_hash, pa.int64())})

    def emit_pairs(t: pa.Table) -> pa.Table:
        # UNVERIFIED candidates: a pair recurs in up to num_bands groups
        # across buckets, so Jaccard runs after the global (a, b) dedup
        surfs, codes = np.unique(
            t["surface"].to_numpy(zero_copy_only=False), return_inverse=True)
        lo, hi, hot = band_pairs(t["band_idx"].to_numpy(),
                                 t["band_hash"].to_numpy(), codes,
                                 cfg.max_band_group)
        return _pairs_table(_hot_rows(hot), surfs[lo], surfs[hi],
                            np.zeros(len(lo)))

    pairs = by_key(surfaces.map_batches(bands, batch_format="pyarrow",
                                        batch_size=4096),
                   "band_hash", emit_pairs, batch_format="pyarrow")
    # min keeps the sentinels' -size; real pairs are all 0.0
    deduped = pairs.groupby(["a", "b"]).min("jac")

    def verify(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        sent = a == ""  # hot-band sentinels pass through unchanged
        surfs, codes = np.unique(np.r_[a[~sent], b[~sent]],
                                 return_inverse=True)
        lo, hi = np.split(codes, 2)
        jac = pair_jaccard(*shingle_csr(surfs, cfg.shingle_k), lo, hi)
        ok = jac >= cfg.jaccard_threshold
        hot = list(zip(a[sent], b[sent], t["min(jac)"].to_numpy()[sent]))
        return _pairs_table(hot, surfs[lo[ok]], surfs[hi[ok]], jac[ok])

    return deduped.map_batches(verify, batch_format="pyarrow")


def candidate_pairs_driver(surfaces: list[tuple[str, bool]],
                           cfg: BlockConfig) -> list[tuple[str, str, float]]:
    """Driver-side LSH banding + verify — the default plan when the
    unique-surface set fits the driver (SURVEY.md §7.5 plan A; the
    distributed ``candidate_pairs`` is the fallback for extreme
    cardinalities). Same kernels and the same rows, zero Ray stages:
    verified ``(a, b, jac)`` with ``a < b`` and the hot-band sentinels.
    """
    surfs, codes = np.unique(np.array([s for s, _g in surfaces], object),
                             return_inverse=True)
    x, bounds = shingle_csr(surfs, cfg.shingle_k)
    band_idx, band_hash = band_keys(
        minhash_signatures(x, bounds, *_perm_tables(cfg.num_perm)), cfg)
    B = cfg.num_bands
    lo, hi, hot = band_pairs(
        np.tile(band_idx[:B], len(codes)),
        band_hash.reshape(-1, B)[codes].reshape(-1),
        np.repeat(codes, B), cfg.max_band_group)
    jac = pair_jaccard(x, bounds, lo, hi)
    ok = jac >= cfg.jaccard_threshold
    # surfs is sorted, so lo < hi is the lexicographic (a, b) order
    return _hot_rows(hot) + list(zip(surfs[lo[ok]].tolist(),
                                     surfs[hi[ok]].tolist(),
                                     jac[ok].tolist()))
