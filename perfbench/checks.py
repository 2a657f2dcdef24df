"""Output checks, computed apart from the program under test.

Each ``check_*`` returns a list of problems; an empty list means the
operation's output is right. The KG checks read the written graph
collections with pyarrow and compare them with the generator's golden
files. The graph-import checks compare against the generated arrays and
against numpy replays of each algorithm, written from the semantics in
its docstring (``kgeng.ops.graph``).
"""

from __future__ import annotations

import glob
import os
import zlib
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.json as pajson
import pyarrow.parquet as pq

MIN_PR = 0.95


def _read_parquet_dir(d: str, columns: list[str]) -> pa.Table:
    files = sorted(glob.glob(os.path.join(d, "**", "*.parquet"),
                             recursive=True))
    if not files:
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    return pa.concat_tables(pq.read_table(f, columns=columns) for f in files)


def _pr(got: set, gold: set) -> tuple[float, float]:
    tp = len(got & gold)
    return (tp / len(got) if got else 0.0, tp / len(gold) if gold else 0.0)


# ------------------------------------------------------------------ KG

def check_graph(out_dir: str, golden_triples: pa.Table, golden_ids: set | None,
                n_triples: int | None, exact: bool = False,
                vcoll: str = "entities",
                ecoll: str = "triples") -> list[str]:
    """The materialized graph against the golden truth:

    - the (subj, pred, obj) set read off the edges has precision and
      recall >= MIN_PR against the golden triples (equal when ``exact``);
    - the non-media vertex ids have precision and recall >= MIN_PR
      against the golden entity ids (equal when ``exact``; skipped when
      ``golden_ids`` is None);
    - every vertex has ``_key == f"{id}:{id}"``, every edge's ``_from``
      and ``_to`` name a written vertex, and the edge count equals the
      pipeline's triple count."""
    problems = []
    v = _read_parquet_dir(os.path.join(out_dir, vcoll),
                          ["entity_id", "_key", "part"])
    e = _read_parquet_dir(os.path.join(out_dir, ecoll),
                          ["_from", "_to", "pred"])
    ids = v["entity_id"].to_pylist()
    keys = v["_key"].to_pylist()
    bad_keys = sum(1 for i, k in zip(ids, keys) if k != f"{i}:{i}")
    if bad_keys:
        problems.append(f"{bad_keys} vertices with _key != id:id")
    if len(set(ids)) != len(ids):
        problems.append(f"{len(ids) - len(set(ids))} duplicate vertices")
    handles = {f"{vcoll}/{k}" for k in keys}
    frm, to = e["_from"].to_pylist(), e["_to"].to_pylist()
    dangling = sum(1 for f in frm if f not in handles) + sum(
        1 for t in to if t not in handles)
    if dangling:
        problems.append(f"{dangling} edge endpoints name no vertex")
    if n_triples is not None and len(frm) != n_triples:
        problems.append(f"{len(frm)} edges for {n_triples} triples")

    def ident(handle: str) -> str:  # "<vcoll>/<id>:<id>" -> "<id>"
        body = handle[len(vcoll) + 1:]
        return body[:len(body) // 2]

    got = set(zip(map(ident, frm), e["pred"].to_pylist(), map(ident, to)))
    gold = set(zip(golden_triples["subj"].to_pylist(),
                   golden_triples["pred"].to_pylist(),
                   golden_triples["obj"].to_pylist()))
    p, r = _pr(got, gold)
    if (exact and got != gold) or min(p, r) < MIN_PR:
        problems.append(f"triples P={p:.4f} R={r:.4f} "
                        f"({len(got)} got, {len(gold)} golden)")
    if golden_ids is None:
        return problems
    ents = {i for i in ids if not i.startswith("media://")}
    p, r = _pr(ents, golden_ids)
    if (exact and ents != golden_ids) or min(p, r) < MIN_PR:
        problems.append(f"entity ids P={p:.4f} R={r:.4f} "
                        f"({len(ents)} got, {len(golden_ids)} golden)")
    return problems


def expected_shard(path: str, num_shards: int) -> int:
    """The records shard an input file belongs to: crc32 of its basename
    modulo the shard count (the fragment-stable assignment documented in
    ``kgeng.pipeline._assign_shards_stable``)."""
    return zlib.crc32(os.path.basename(path).encode()) % num_shards


def rewritten_shards(ck_root: str, before: dict[str, bytes]) -> set[str]:
    """Records shard dirs whose manifest differs from ``before``."""
    out = set()
    for m in glob.glob(os.path.join(ck_root, "records", "shard=*",
                                    "_MANIFEST.json")):
        name = os.path.basename(os.path.dirname(m))
        with open(m, "rb") as f:
            if before.get(name) != f.read():
                out.add(name)
    return out


def records_manifests(ck_root: str) -> dict[str, bytes]:
    out = {}
    for m in glob.glob(os.path.join(ck_root, "records", "shard=*",
                                    "_MANIFEST.json")):
        with open(m, "rb") as f:
            out[os.path.basename(os.path.dirname(m))] = f.read()
    return out


# --------------------------------------------------------- graph import

def check_import(vdir: str, edir: str, gen: dict,
                 smart_attr: str = "smartProp",
                 vcoll: str = "vertices") -> list[str]:
    """Written JSONL collections against the generated edge list: the
    vertex ids are the numpy distinct of the endpoints, the edges are the
    generated rows (one per non-comment line), and every weight comes back
    as the string that was written (absent when the row had none)."""
    problems = []
    vt = _read_jsonl_dir(vdir)
    want_ids = np.unique(np.concatenate([gen["src"], gen["dst"]]))
    got_ids = (np.sort(np.asarray(vt[smart_attr].to_pylist(), dtype=np.int64))
               if vt.num_rows else np.zeros(0, np.int64))
    if got_ids.size != want_ids.size or not np.array_equal(got_ids,
                                                           want_ids):
        problems.append(f"{got_ids.size} vertices, want {want_ids.size}")
    et = _read_jsonl_dir(edir)
    if et.num_rows != len(gen["src"]):
        problems.append(f"{et.num_rows} edges, want {len(gen['src'])}")
    w = (et["weight"].to_pylist() if "weight" in et.column_names
         else [None] * et.num_rows)
    got = Counter(zip(et["_from"].to_pylist(), et["_to"].to_pylist(), w))
    want = Counter(zip((f"{vcoll}/{s}" for s in gen["src"].tolist()),
                       (f"{vcoll}/{d}" for d in gen["dst"].tolist()),
                       gen["weights"]))
    if got != want:
        diff = sum(((got - want) + (want - got)).values())
        problems.append(f"{diff} edge documents differ from the file rows")
    return problems


def _read_jsonl_dir(d: str) -> pa.Table:
    # every value as a string: weights must come back verbatim
    files = sorted(glob.glob(os.path.join(d, "*.jsonl")))
    tables = []
    for f in files:
        t = pajson.read_json(f)
        tables.append(t.cast(pa.schema(
            [pa.field(n, pa.string()) for n in t.column_names])))
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


def _index(src: np.ndarray, dst: np.ndarray):
    nodes = np.unique(np.concatenate([src, dst]))
    return nodes, np.searchsorted(nodes, src), np.searchsorted(nodes, dst)


def pagerank_replay(src, dst, iters: int = 5, damping: float = 0.85,
                    ndigits: int = 9) -> tuple[np.ndarray, np.ndarray]:
    """r'(v) = (1-d)/N + d * (sum_{u->v} r(u)/outdeg(u) + dangling/N),
    multi-edges counted, ranks rounded half-up to ``ndigits`` each round."""
    nodes, si, di = _index(src, dst)
    n = nodes.size
    scale = 10.0 ** ndigits

    def rnd(x):
        return np.floor(x * scale + 0.5) / scale

    outdeg = np.bincount(si, minlength=n).astype(np.float64)
    r = rnd(np.full(n, 1.0 / n))
    for _ in range(iters):
        share = np.divide(r, outdeg, out=np.zeros(n), where=outdeg > 0)
        dangling = r[outdeg == 0].sum() / n
        incoming = np.bincount(di, weights=share[si], minlength=n)
        r = rnd((1.0 - damping) / n + damping * (incoming + dangling))
    return nodes, r


def labelprop_replay(src, dst, rounds: int = 4
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Labels start as node ids; each round a node takes the most frequent
    label over its in-edges (multiplicity counted, ties to the smallest
    label); a node without in-edges keeps its label."""
    nodes, si, di = _index(src, dst)
    n = nodes.size
    lab = np.arange(n, dtype=np.int64)  # positions; order == id order
    for _ in range(rounds):
        keys, cnt = np.unique(di * n + lab[si], return_counts=True)
        d, lb = keys // n, keys % n
        order = np.lexsort((lb, -cnt, d))
        d, lb = d[order], lb[order]
        first = np.r_[True, d[1:] != d[:-1]]
        new = lab.copy()
        new[d[first]] = lb[first]
        lab = new
    return nodes, nodes[lab]


def triangle_replay(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Per-node triangle counts of the undirected simple graph (loops
    dropped, duplicate and reversed edges merged): every wedge at a node,
    closed by an edge, is a triangle, found once at its lowest-ranked
    corner. Returns the nodes with a nonzero count."""
    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    keep = u != v
    nodes = np.unique(np.concatenate([u[keep], v[keep]]))
    n = nodes.size
    pairs = np.unique(np.searchsorted(nodes, u[keep]) * n
                      + np.searchsorted(nodes, v[keep]))
    a, b = pairs // n, pairs % n
    deg = np.bincount(np.concatenate([a, b]), minlength=n)
    rank = np.empty(n, np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    lo = np.where(rank[a] < rank[b], a, b)
    hi = np.where(rank[a] < rank[b], b, a)
    order = np.lexsort((rank[hi], lo))
    lo, hi = lo[order], hi[order]
    # every pair (first, second) of out-edges of one node is a wedge
    end = np.searchsorted(lo, np.arange(n + 1))[lo + 1]
    pos = np.arange(lo.size)
    per = end - pos - 1
    first = np.repeat(pos, per)
    second = first + 1 + (np.arange(first.size)
                          - np.repeat(np.cumsum(per) - per, per))
    x, p, q = lo[first], hi[first], hi[second]
    keys = np.minimum(p, q) * n + np.maximum(p, q)
    at = np.minimum(np.searchsorted(pairs, keys), pairs.size - 1)
    closed = pairs[at] == keys
    counts = (np.bincount(x[closed], minlength=n)
              + np.bincount(p[closed], minlength=n)
              + np.bincount(q[closed], minlength=n))
    nz = counts > 0
    return nodes[nz], counts[nz]


def check_analytics(gen: dict, pr, lp, tri) -> list[str]:
    """Algorithm outputs (pandas frames) against the numpy replays."""
    problems = []
    src, dst = gen["src"], gen["dst"]
    nodes, want = pagerank_replay(src, dst)
    got = pr.sort_values("node")
    if not np.array_equal(got["node"].to_numpy(np.int64), nodes):
        problems.append("pagerank node set differs")
    else:
        err = float(np.abs(got["rank"].to_numpy(np.float64) - want).max())
        if err > 2e-9:  # two rounding units at 9 digits
            problems.append(f"pagerank max abs error {err:.3g}")
    nodes, want = labelprop_replay(src, dst)
    got = lp.sort_values("node")
    if not (np.array_equal(got["node"].to_numpy(np.int64), nodes)
            and np.array_equal(got["label"].to_numpy(np.int64), want)):
        problems.append("label propagation differs from the replay")
    nodes, want = triangle_replay(src, dst)
    got = tri.sort_values("node")
    got_total = int(got["n_triangles"].sum()) // 3
    if not (np.array_equal(got["node"].to_numpy(np.int64), nodes)
            and np.array_equal(got["n_triangles"].to_numpy(np.int64),
                               want)):
        problems.append(f"triangles: {got_total} total, replay "
                        f"{int(want.sum()) // 3}")
    return problems
