"""Seeded benchmark inputs: every file a workload reads is made here.

- ``dense_corpus``: the bench-tier corpus (4-20 spans per doc, the
  200-entity Zipfian world) through ``generate_corpus_ray``;
- ``wide_corpus``: short documents (1-4 spans) over a large entity world
  built here, rendered by ``kgeng.synth.corpus.generate_doc``;
- ``append_corpus``: a dense base split into fixed part files plus one
  held-back fragment;
- ``edge_list``: an edge-list file with comment lines and weighted rows.

Every input is a function of the seed alone, and every call rewrites its
files (no cache is consulted), so generation time is always a cold cost.
"""

from __future__ import annotations

import os
import shutil
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from kgeng.synth.corpus import (TRIPLE_SCHEMA, Gazetteer, _typo,
                                docs_to_table, generate_corpus_ray,
                                generate_doc)
from perfbench.checks import expected_shard

DENSE_SPANS = (4, 20)
WIDE_SPANS = (1, 4)


def _write_golden_entity_ids(out_dir: str, triples: pa.Table) -> None:
    """golden_entities.parquet: the entity ids the golden triples use."""
    objs = [o for o in triples["obj"].to_pylist()
            if not o.startswith("media://")]
    ids = sorted(set(triples["subj"].to_pylist()) | set(objs))
    pq.write_table(pa.table({"entity_id": pa.array(ids, pa.string())}),
                   os.path.join(out_dir, "golden_entities.parquet"))


# ------------------------------------------------------------ dense corpus

def dense_corpus(out_dir: str, n_docs: int, seed: int,
                 part_rows: int) -> str:
    """Bench-tier corpus under ``out_dir``: ``corpus/``, ``gazetteer.parquet``
    and the by-construction ``golden_{triples,entities}.parquet``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    return generate_corpus_ray(out_dir, n_docs, seed=seed,
                               part_rows=part_rows,
                               spans_lo=DENSE_SPANS[0],
                               spans_hi=DENSE_SPANS[1], force=True)


def fragment_name(seed: int, shard: int, num_shards: int) -> str:
    """``part-frag-<seed>-<k>.parquet`` with the smallest ``k`` that kgeng's
    basename hash (crc32 modulo the shard count) puts in ``shard``."""
    k = 0
    while True:
        name = f"part-frag-{seed}-{k}.parquet"
        if expected_shard(name, num_shards) == shard:
            return name
        k += 1


def append_corpus(out_dir: str, base_docs: int, frag_docs: int,
                  seed: int, num_shards: int) -> dict:
    """A dense corpus of ``base_docs + frag_docs`` docs in part files of
    ``frag_docs`` rows; the last part is moved out of ``corpus/`` as the
    fragment an append adds. Golden triples are split by doc index.

    The fragment is named so that it shares its records shard with exactly
    one base part, whatever the seed: an append then re-extracts
    ``2 * frag_docs`` docs on every seed."""
    if base_docs % frag_docs:
        raise ValueError("base_docs must be a multiple of frag_docs")
    d = dense_corpus(out_dir, base_docs + frag_docs, seed, frag_docs)
    last = (base_docs + frag_docs) // frag_docs - 1
    base_shards = Counter(expected_shard(f"part-{i:05d}.parquet", num_shards)
                          for i in range(last))
    shared = sorted(s for s, n in base_shards.items() if n == 1)
    if not shared:
        raise ValueError("no records shard holds exactly one base part")
    frag_dir = os.path.join(out_dir, "fragments")
    os.makedirs(frag_dir)
    frag = os.path.join(frag_dir, fragment_name(
        seed, shared[seed % len(shared)], num_shards))
    os.replace(os.path.join(d, "corpus", f"part-{last:05d}.parquet"), frag)
    gold = pq.read_table(os.path.join(d, "golden_triples.parquet"))
    doc_idx = np.array([int(x[4:]) for x in gold["doc_id"].to_pylist()],
                       dtype=np.int64)
    in_frag = pa.array(doc_idx >= base_docs)
    return {"dir": d, "fragment": frag,
            "golden_base": gold.filter(pc.invert(in_frag)),
            "golden_all": gold}


# ------------------------------------------------------------- wide world

_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
# capitalized words the corpus renders outside entity surfaces (decoys,
# sentence starters): no entity word may equal one of them
_RESERVED = {"quantum", "vortex", "nimbus", "zephyr", "obsidian", "crimson",
             "mesa", "grove", "spire", "atlas", "harbor", "summit", "the"}
_TYPES = ("PERSON", "ORG", "LOC")


@dataclass(frozen=True)
class WideGazetteer(Gazetteer):
    """A ``Gazetteer`` whose per-type index is precomputed:
    ``generate_doc`` asks for it once per document, and the base class
    rescans every entity for each ask."""

    type_index: dict = field(default_factory=dict)

    def by_type(self, t: str) -> list[int]:
        return self.type_index[t]


def _words(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct capitalized 3-syllable words (consonant + vowel)."""
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        on = rng.integers(0, len(_ONSETS), size=(n, 3))
        vo = rng.integers(0, len(_VOWELS), size=(n, 3))
        for o, v in zip(on, vo):
            w = "".join(_ONSETS[a] + _VOWELS[b] for a, b in zip(o, v))
            if w not in seen and w not in _RESERVED:
                seen.add(w)
                out.append(w.capitalize())
                if len(out) == n:
                    break
    return out


def wide_gazetteer(n_entities: int, seed: int,
                   word_reuse: int) -> WideGazetteer:
    """``n_entities`` unique two-word surfaces, types round-robin. Each word
    appears in about ``word_reuse`` surfaces of its type and position, so
    surfaces that share a word collide in the LSH bands and cost a Jaccard
    verification. Aliases are one-character deletions (``_typo``) that
    collide with no surface and no other entity's alias."""
    rng = np.random.default_rng([seed, 0x61DE])
    per_type = -(-n_entities // len(_TYPES))
    pool = max(2, -(-per_type // word_reuse))
    if pool * pool < per_type:
        raise ValueError("word_reuse too high for unique surfaces")
    words = _words(rng, 2 * pool * len(_TYPES))
    surfaces, types = [], []
    seen: set[str] = set()
    for ti, t in enumerate(_TYPES):
        first = words[2 * ti * pool:(2 * ti + 1) * pool]
        second = words[(2 * ti + 1) * pool:(2 * ti + 2) * pool]
        made = 0
        while made < per_type and len(surfaces) < n_entities:
            s = (f"{first[int(rng.integers(0, pool))]} "
                 f"{second[int(rng.integers(0, pool))]}")
            if s in seen:
                continue
            seen.add(s)
            made += 1
            surfaces.append(s)
            types.append(t)
    ids = [f"E{i:05d}" for i in range(len(surfaces))]
    alias_map: dict[str, str] = {}
    for s, eid in zip(surfaces, ids):
        for v in (0, 1):
            al = _typo(s, v)
            if al not in seen and al not in alias_map:
                alias_map[al] = eid
    index = {t: [i for i, et in enumerate(types) if et == t]
             for t in _TYPES}
    return WideGazetteer(tuple(surfaces), tuple(ids), tuple(types),
                         alias_map, index)


@ray.remote
def _wide_part(gaz: WideGazetteer, seed: int, lo: int, hi: int,
               path: str) -> pa.Table:
    rows, triples = [], []
    for di in range(lo, hi):
        row, tr, _aliases = generate_doc(di, gaz, seed, *WIDE_SPANS)
        rows.append(row)
        triples.extend(tr)
    pq.write_table(docs_to_table(rows), path, row_group_size=512)
    return pa.Table.from_pylist(
        [{"subj": s, "pred": p, "obj": o, "doc_id": d, "confidence": c}
         for (s, p, o, d, c) in triples], schema=TRIPLE_SCHEMA)


def wide_corpus(out_dir: str, n_docs: int, n_entities: int, seed: int,
                word_reuse: int, part_rows: int) -> str:
    """Short documents over a ``wide_gazetteer`` world, laid out like
    ``dense_corpus``. One Ray task per part file."""
    shutil.rmtree(out_dir, ignore_errors=True)
    corpus = os.path.join(out_dir, "corpus")
    os.makedirs(corpus)
    gaz = wide_gazetteer(n_entities, seed, word_reuse)
    gaz_ref = ray.put(gaz)
    parts = [(lo, min(lo + part_rows, n_docs))
             for lo in range(0, n_docs, part_rows)]
    golden = pa.concat_tables(ray.get([
        _wide_part.remote(gaz_ref, seed, lo, hi,
                          os.path.join(corpus, f"part-{k:05d}.parquet"))
        for k, (lo, hi) in enumerate(parts)]))
    pq.write_table(golden, os.path.join(out_dir, "golden_triples.parquet"))
    pq.write_table(pa.table({"surface": list(gaz.surfaces),
                             "entity_id": list(gaz.entity_ids),
                             "ent_type": list(gaz.ent_types)}),
                   os.path.join(out_dir, "gazetteer.parquet"))
    _write_golden_entity_ids(out_dir, golden)
    return out_dir


# --------------------------------------------------------------- edge list

_COMMENTS = ("# comment {}", "% comment {}", "/ comment {}")


def edge_list(path: str, n_vertices: int, n_edges: int, seed: int,
              weighted_share: float, comment_every: int) -> dict:
    """Write an edge-list file: ``src dst`` rows, a ``weighted_share`` of
    them ``src dst weight`` with the weight as a decimal string, and a
    comment line (``#``, ``%`` or ``/``) every ``comment_every`` rows.
    Endpoints are skewed (squared uniforms), so hubs and triangles exist.
    Returns the generated arrays the output checks compare against."""
    rng = np.random.default_rng([seed, 0xED6E])
    src = (rng.random(n_edges) ** 2 * n_vertices).astype(np.int64)
    dst = (rng.random(n_edges) ** 2 * n_vertices).astype(np.int64)
    weighted = rng.random(n_edges) < weighted_share
    # two decimals with trailing zeros kept: they must come back verbatim
    wvals = rng.integers(0, 10_000, size=n_edges)
    weights = [f"{w // 100}.{w % 100:02d}" if k else None
               for w, k in zip(wvals.tolist(), weighted.tolist())]
    lines = []
    for i, (s, d, w) in enumerate(zip(src.tolist(), dst.tolist(), weights)):
        if i % comment_every == 0:
            lines.append(_COMMENTS[(i // comment_every) % 3].format(i))
        lines.append(f"{s} {d}" if w is None else f"{s} {d} {w}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return {"src": src, "dst": dst, "weights": weights,
            "n_comments": len(lines) - n_edges}


def main(argv=None) -> int:
    """``python3 -m perfbench.inputs <workload> <seed> <dir>``: write one
    workload's inputs for one seed under ``dir``, as a run makes them."""
    import argparse

    import ray as _ray

    from perfbench.procs import stop_children
    from perfbench.run import remove_ray_sessions, start_ray
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("dir")
    args = ap.parse_args(argv)
    os.makedirs(args.dir, exist_ok=True)
    start_ray(args.dir)
    try:
        WORKLOADS[args.workload](args.dir, args.seed).generate()
    finally:
        _ray.shutdown()
        stop_children()
        remove_ray_sessions(args.dir)
        shutil.rmtree(os.path.join(args.dir, "r"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
