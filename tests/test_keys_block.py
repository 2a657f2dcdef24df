"""Direct unit tests: vectorized key formatting, and the LSH pair
kernel (``band_pairs`` + ``pair_jaccard``) of both blocking plans and the
three document-dedup sites, checked against the per-group double loop
they replaced."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from kgeng.config import BlockConfig
from kgeng.ops import dedup, keys
from kgeng.ops.block import (band_keys, band_pairs, candidate_pairs,
                             candidate_pairs_driver, jaccard, minhash_batch)
from kgeng.ops.hashing import xor64
from tests import oracle


def test_key_formatters_match_reference_oracle():
    ids = pa.array([123, 7, 0])
    got_plain = keys.idx_to_vertex("v", ids).to_pylist()
    assert got_plain == [oracle.idx_to_vertex("v", i) for i in (123, 7, 0)]
    got_smart = keys.idx_to_smart_vertex("v", ids).to_pylist()
    assert got_smart == [oracle.idx_to_smart_vertex("v", i)
                         for i in (123, 7, 0)]
    got_sv = keys.idx_to_smart_vertex(
        "v", ids, smart_value=pa.array(["a", "b", "c"])).to_pylist()
    assert got_sv == ["v/a:123", "v/b:7", "v/c:0"]
    assert keys.smart_key(pa.array(["9"])).to_pylist() == ["9:9"]
    assert keys.smart_key(pa.array(["9"]),
                          pa.array(["p"])).to_pylist() == ["p:9"]


def test_distributed_candidate_pairs_matches_driver_path():
    surfaces = [("Acme Systems", True), ("Acme Sstems", False),
                ("Borealis Labs", True), ("Borealis Lbs", False),
                ("Quantum Mesa", False)]
    cfg = BlockConfig()
    driver_pairs = {(a, b) for a, b, j in
                    candidate_pairs_driver(surfaces, cfg) if a}
    tbl = pa.table({"surface": [s for s, _ in surfaces],
                    "is_gaz": [g for _, g in surfaces]})
    dist = candidate_pairs(ray.data.from_arrow(tbl), cfg).take_all()
    dist_pairs = {(r["a"], r["b"]) for r in dist if r["a"]}
    assert driver_pairs == dist_pairs
    assert ("Acme Sstems", "Acme Systems") in driver_pairs
    assert not any("Quantum Mesa" in p for p in driver_pairs)


def test_minhash_identical_surfaces_identical_signatures():
    cfg = BlockConfig()
    sig = minhash_batch(["Acme Systems", "Acme Systems", "Other Words"],
                        cfg)
    assert (sig[0] == sig[1]).all()
    assert not (sig[0] == sig[2]).all()
    assert jaccard("Acme Systems", "Acme Systems", cfg.shingle_k) == 1.0


def test_union_find_long_chain_no_recursion():
    """A >1000-deep parent chain (unions in decreasing chain order) must
    not blow Python's recursion limit."""
    from kgeng.ops.canonicalize import UnionFind

    uf = UnionFind()
    n = 3000
    for i in range(n - 1, 0, -1):
        uf.union(f"s{i:05d}", f"s{i + 1:05d}")
    root = uf.find(f"s{n:05d}")
    assert root == "s00001"
    assert all(uf.find(f"s{i:05d}") == root for i in (1, 2, n // 2, n))


def test_candidate_pairs_hot_band_sentinels_not_collapsed():
    """Each oversized band must emit its OWN counted sentinel; the pair
    dedup must not merge different hot bands into one row."""
    import ray.data

    from kgeng.config import BlockConfig
    from kgeng.ops.block import candidate_pairs

    cfg = BlockConfig(max_band_group=1)
    surfaces = ray.data.from_items(
        [{"surface": "zzz identical zzz", "is_gaz": False}
         for _ in range(4)])
    out = candidate_pairs(surfaces, cfg).to_pandas()
    sent = out[out["a"] == ""]
    # 4 identical surfaces collide in EVERY band -> one sentinel per band
    assert len(sent) == cfg.num_bands
    assert sent["b"].nunique() == cfg.num_bands
    assert (sent["jac"] == -4.0).all()
    assert (out["a"] != "").sum() == 0  # all groups were oversized
    # the driver plan writes the same sentinel rows to the pairs stage
    drv = candidate_pairs_driver([("zzz identical zzz", False)] * 4, cfg)
    assert sorted(drv) == sorted(out.itertuples(index=False, name=None))


# ------------------------------------------- parity with the retired loops

def _double_loop(groups, cap):
    """The per-group pair loop every LSH site ran before ``band_pairs``:
    {group key: member list} -> (pair set, {hot group key: rows})."""
    pairs, hot = set(), {}
    for gkey, members in groups.items():
        if len(members) > cap:
            hot[gkey] = len(members)
            continue
        u = sorted(set(members))
        for i in range(len(u)):
            for j in range(i + 1, len(u)):
                pairs.add((u[i], u[j]))
    return pairs, hot


def _groups(keys_, members):
    out = {}
    for k, m in zip(keys_, members):
        out.setdefault(k, []).append(m)
    return out


def _reference_blocking(surfaces, cfg):
    """Blocking rows of the retired double loop + per-pair ``jaccard``:
    sorted verified pairs and sorted hot-band sentinels."""
    B = cfg.num_bands
    band_idx, band_hash = band_keys(minhash_batch(surfaces, cfg), cfg)
    cand, hot = _double_loop(
        _groups(zip(band_idx.tolist(), band_hash.tolist()),
                np.repeat(surfaces, B).tolist()), cfg.max_band_group)
    pairs = []
    for a, b in cand:
        jc = jaccard(a, b, cfg.shingle_k)
        if jc >= cfg.jaccard_threshold:
            pairs.append((a, b, jc))
    return sorted(pairs), sorted(("", f"band:{bi}:{bh}", -float(n))
                                 for (bi, bh), n in hot.items())


@pytest.fixture(scope="module")
def two_word_world():
    """>= 1,000 surfaces: two-word names over a small word pool (so many
    share a word and collide in bands), most with a one-character-
    deletion alias, plus 40 duplicated surface rows."""
    rng = np.random.default_rng(5)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    words = ["".join(rng.choice(letters, int(rng.integers(4, 8))))
             .capitalize() for _ in range(48)]
    names = sorted({f"{words[i]} {words[j]}"
                    for i, j in rng.integers(0, 48, (600, 2))})
    aliases = set()
    for s in names:
        k = int(rng.integers(0, len(s)))
        if s[k] != " ":
            aliases.add(s[:k] + s[k + 1:])
    surfaces = names + sorted(aliases - set(names))
    assert len(surfaces) >= 1000
    return surfaces + surfaces[:40]


@pytest.mark.parametrize("cap", [256, 4])
def test_blocking_plans_match_double_loop(two_word_world, cap):
    cfg = BlockConfig(max_band_group=cap)
    surfaces = two_word_world
    want_pairs, want_hot = _reference_blocking(surfaces, cfg)
    assert want_pairs and (want_hot if cap == 4 else not want_hot)

    def split(rows):
        rows = [tuple(r) for r in rows]
        return (sorted(r for r in rows if r[0]),
                sorted(r for r in rows if not r[0]))

    drv = split(candidate_pairs_driver([(s, False) for s in surfaces],
                                       cfg))
    assert drv == (want_pairs, want_hot)  # floats compared exactly
    tbl = pa.table({"surface": surfaces,
                    "is_gaz": [False] * len(surfaces)})
    dist = candidate_pairs(ray.data.from_arrow(tbl), cfg).to_pandas()
    assert split(dist.itertuples(index=False, name=None)) == drv


def test_band_pairs_matches_double_loop():
    rng = np.random.default_rng(2)
    n = 5000
    band = rng.integers(0, 4, n)
    key = rng.integers(0, 300, n)
    codes = rng.integers(0, 900, n)  # repeats: duplicate rows, self pairs
    for cap in (3, 10_000):
        lo, hi, hot = band_pairs(band, key, codes, cap)
        want, want_hot = _double_loop(
            _groups(zip(band.tolist(), key.tolist()), codes.tolist()), cap)
        assert list(zip(lo.tolist(), hi.tolist())) == sorted(want)
        assert {(b, k): s for b, k, s in hot.tolist()} == want_hot
    lo, hi, hot = band_pairs([], [], [], 1)
    assert len(lo) == len(hi) == 0 and hot.shape == (0, 3)


def _band_frame(ds, is_new=None):
    t = dedup.minhash_band_table(ds).to_pandas()
    if is_new is not None:
        t["is_new"] = is_new
    return t


def _lsh_reference(bands, cap):
    """Today's minhash candidate rows: one (a, b, 0) per pair and the
    hot bands' doc counts; with ``is_new`` the old x old pairs and the
    all-old bands are skipped."""
    is_new = bands["is_new"] if "is_new" in bands else [1] * len(bands)
    new = dict(zip(bands["doc_id"], is_new))
    groups = {k: sorted(set(g["doc_id"]))
              for k, g in bands.groupby(["band_idx", "band_hash"])
              if len(set(g["doc_id"])) >= 2
              and max(new[d] for d in g["doc_id"]) > 0}
    pairs, hot = _double_loop(groups, cap)
    return ({(a, b) for a, b in pairs if new[a] or new[b]},
            sorted(hot.values()))


def _corpus_64():
    return ray.data.from_arrow(pa.table({
        "doc_id": [str(i) for i in range(64)],
        "text": [" ".join(f"tok{j}" for j in range(i, i + 30))
                 for i in range(64)]}))


@pytest.mark.parametrize("cap", [512, 3])
def test_minhash_lsh_candidates_match_double_loop(cap):
    ds = _corpus_64()
    want, hot = _lsh_reference(_band_frame(ds), cap)
    assert want and (hot if cap == 3 else not hot)
    got = dedup.minhash_lsh_candidates(ds, max_band_group=cap).to_pandas()
    real = got[got["a"] != ""]
    assert set(zip(real["a"], real["b"])) == want
    assert (real["skipped"] == 0).all()
    assert got.loc[got["a"] == "", "skipped"].tolist() == hot[-1:]


def test_incremental_bucket_pairs_match_double_loop():
    base = "the quick brown fox jumps over the lazy dog while " \
           "seventeen astronomers catalog distant spiral galaxies"
    other = "completely different content about submarine cable " \
            "maintenance schedules and deep sea pressure ratings"
    shared = "shared new content peanut butter sandwich assembly " \
             "instructions for left handed chefs with extra steps"
    old = ray.data.from_arrow(pa.table({
        "doc_id": ["o1", "o2", "o3"],
        "text": [base, base + " tonight", other]}))
    new = ray.data.from_arrow(pa.table({
        "doc_id": ["n1", "n2", "n3", "n4", "n5"],
        "text": [base, other + " revised", "unique new document about "
                 "alpine glacier melt rates", shared, shared + " too"]}))
    bands = pd.concat([_band_frame(new, 1), _band_frame(old, 0)],
                      ignore_index=True)
    for cap in (512, 2):
        want, hot = _lsh_reference(bands, cap)
        got = dedup._bucket_pairs(bands, cap)
        real = got[got["a"] != ""]
        assert set(zip(real["a"], real["b"])) == want
        assert sorted(got.loc[got["a"] == "", "skipped"]) == hot
        assert ("o1", "o2") not in want  # old x old never emitted


def _near_dup_corpus():
    rng = np.random.default_rng(11)
    vocab = [f"word{i}" for i in range(200)]
    ids, texts = [], []
    for i in range(40):
        toks = list(rng.choice(vocab, size=25))
        ids.append(f"o{i:03d}")
        texts.append(" ".join(toks))
        toks[int(rng.integers(0, len(toks)))] = "swapped"
        ids.append(f"d{i:03d}")
        texts.append(" ".join(toks))
    return ids, texts


@pytest.mark.parametrize("corpus", ["abc", "near_dup"])
def test_simhash_pairs_match_double_loop(corpus):
    if corpus == "abc":
        base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
        ids = ["a", "b", "c"]
        texts = [base, base, "one two three four five six seven eight "
                 "nine ten " * 3]
    else:
        ids, texts = _near_dup_corpus()
    sig = dedup.simhash_batch(texts).view(np.int64)
    want = {}
    for c in range(4):
        chunk = (sig.view(np.uint64) >> np.uint64(16 * c)) & np.uint64(0xFFFF)
        groups = _groups(chunk.tolist(), zip(ids, sig.tolist()))
        for (a, sa), (b, sb) in _double_loop(groups, len(ids))[0]:
            d = bin(xor64(sa, sb)).count("1")
            if d <= 3:
                want[(a, b)] = min(d, want.get((a, b), d))
    got = dedup.simhash_near_dup_pairs(ray.data.from_arrow(pa.table(
        {"doc_id": ids, "text": texts})), max_hamming=3).take_all()
    assert {(r["a"], r["b"]): r["hamming"] for r in got} == want
    assert want
