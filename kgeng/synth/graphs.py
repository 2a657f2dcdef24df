"""Graph-synthesis pipelines (the reference's generator.py family, E1-E8)
re-expressed as Ray Data pipelines.

Key deltas from the reference (SURVEY.md §2.9):
- vertex ids come from ``ray.data.range`` offsets, not a mutable driver
  counter (``GraphInfo.next_id``, helper_classes.py:86 — ST1 eliminated);
- the clique prefix-sum (``CliquesHelper``, helper_classes.py:92-112) is
  computed once, correctly, on the driver (the reference corrupts it for
  cliques larger than bulk_size, vertices_generator.py:96-97);
- the triangular fan-out is ``map_batches`` over i-chunks with numpy
  vectorized (i, j) expansion — no closed-form quadratic splitting
  (clique_generator.py:216-238); Ray's block scheduler balances;
- Bernoulli edge-dropping is content-keyed (splitmix64 of (seed, i, j)),
  never task-order-keyed, so outputs are identical at any parallelism;
- the reference's E7/E8 arity/join bugs are NOT reproduced.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from kgeng.io.graph_files import CompatGraphConfig
from kgeng.ops.agg import _splitmix64

_U64 = np.uint64


def _bernoulli_keep(seed: int, i: np.ndarray, j: np.ndarray,
                    prob_missing: float) -> np.ndarray:
    """keep-mask: drop with probability ``prob_missing``; keyed on content."""
    if prob_missing <= 0.0:
        return np.ones(len(i), dtype=bool)
    h = _splitmix64(_U64(seed) ^ (i.astype(_U64) * _U64(0x100000001B3))
                   ^ j.astype(_U64))
    return (h.astype(np.float64) / float(2 ** 64)) >= prob_missing


def _ids_to_vertex(vcoll: str, ids: np.ndarray, smart: bool,
                   smart_vals: np.ndarray | None = None) -> pa.Array:
    s = ids.astype(str)
    if smart:
        sv = smart_vals.astype(str) if smart_vals is not None else s
        return pa.array([f"{vcoll}/{a}:{b}" for a, b in zip(sv, s)])
    return pa.array([f"{vcoll}/{x}" for x in s])


# ---------------------------------------------------------------- vertices

def make_vertices(n: int, cfg: CompatGraphConfig, part_label: str = "",
                  start: int = 0) -> ray.data.Dataset:
    """Vertex docs for id range [start, start+n) — layouts per
    vertices_generator.py:24-41 (M4), vectorized."""
    attr, smart = cfg.smart_attribute, cfg.is_smart

    def project(batch: pa.Table) -> pa.Table:
        ids = (batch["id"].to_numpy() + start).astype(str)
        ids_arr = pa.array(ids)
        if smart and attr != "part":
            cols = {attr: ids_arr,
                    "_key": pa.array([f"{v}:{v}" for v in ids])}
            if part_label != "":
                cols["part"] = pa.array([part_label] * len(ids))
        elif smart:  # attr == 'part'
            cols = {"_key": pa.array([f"{part_label}:{v}" for v in ids]),
                    "part": pa.array([part_label] * len(ids))}
        else:
            cols = {"_key": ids_arr}
            if part_label != "":
                cols["part"] = pa.array([part_label] * len(ids))
        return pa.table(cols)

    return ray.data.range(n).map_batches(project, batch_format="pyarrow")


# ------------------------------------------------------------ clique edges

def clique_edges(n: int, cfg: CompatGraphConfig, prob_missing: float = 0.0,
                 seed: int = 0, start: int = 0,
                 part_label: str | None = None) -> ray.data.Dataset:
    """All pairs i<j in [start, start+n) minus Bernoulli-dropped edges —
    E1 (clique_generator.py:59-97) as a vectorized triangular fan-out."""
    vcoll, smart = cfg.vertex_coll, cfg.is_smart

    def expand(batch: pa.Table) -> pa.Table:
        i_local = batch["id"].to_numpy()
        counts = (n - 1 - i_local).clip(min=0)
        if counts.sum() == 0:
            return _empty_edges()
        i_rep = np.repeat(i_local, counts)
        j_flat = np.concatenate(
            [np.arange(i + 1, n) for i in i_local if i + 1 < n])
        keep = _bernoulli_keep(seed, i_rep, j_flat, prob_missing)
        i_rep, j_flat = i_rep[keep] + start, j_flat[keep] + start
        sv = (np.full(len(i_rep), part_label)
              if (smart and part_label is not None) else None)
        return pa.table({
            "_from": _ids_to_vertex(vcoll, i_rep, smart, sv),
            "_to": _ids_to_vertex(vcoll, j_flat, smart, sv),
        })

    # bound the intra-task expansion: an i-batch emits up to
    # batch_size * n edges, so size batches to ~2M edges per task
    # (a fixed 2048 would make the first task of a 100k-clique emit
    # ~200M rows before any block split)
    bs = int(max(1, min(2048, 2_000_000 // max(n, 1))))
    return ray.data.range(n).map_batches(
        expand, batch_format="pyarrow", batch_size=bs)


def _empty_edges() -> pa.Table:
    return pa.table({"_from": pa.array([], pa.string()),
                     "_to": pa.array([], pa.string())})


# -------------------------------------------------- multi-part fan-outs

def connect_parts_edges(starts: list[int], cfg: CompatGraphConfig,
                        prob_missing: float = 0.0,
                        prob_missing_all: float = 0.0,
                        seed: int = 0,
                        part_labels: list[str] | None = None
                        ) -> ray.data.Dataset:
    """All vertex pairs between distinct parts c1 < c2 — E2
    (edges_generator.py:99-180). ``starts`` is the clique prefix-sum
    (CliquesHelper), computed once on the driver and captured in task
    closures (small, broadcast-by-closure).

    ``prob_missing_all`` skips a whole part-pair (edges_generator.py:135);
    ``prob_missing`` drops individual edges. Both content-keyed."""
    vcoll, smart = cfg.vertex_coll, cfg.is_smart
    k = len(starts) - 1
    pairs = [(c1, c2) for c1 in range(k) for c2 in range(c1 + 1, k)]
    if prob_missing_all > 0.0:
        c1a = np.array([p[0] for p in pairs], dtype=np.int64)
        c2a = np.array([p[1] for p in pairs], dtype=np.int64)
        keep = _bernoulli_keep(seed ^ 0xA11, c1a, c2a, prob_missing_all)
        pairs = [p for p, kp in zip(pairs, keep) if kp]
    if not pairs:
        return ray.data.from_arrow(_empty_edges())

    def expand(batch: pa.Table):
        # vectorized + CHUNKED cross product: rows stay Arrow end to end
        # (the old flat_map materialized one Python dict per edge — a
        # 50k x 50k part-pair would be 2.5e9 dicts in one task), and
        # each yielded block holds at most ~2M edges
        for c1, c2 in zip(batch["c1"].to_pylist(),
                          batch["c2"].to_pylist()):
            i_all = np.arange(starts[c1], starts[c1 + 1])
            j = np.arange(starts[c2], starts[c2 + 1])
            step = max(1, 2_000_000 // max(len(j), 1))
            for lo in range(0, len(i_all), step):
                i = i_all[lo:lo + step]
                i_rep = np.repeat(i, len(j))
                j_rep = np.tile(j, len(i))
                keep = _bernoulli_keep(seed, i_rep, j_rep, prob_missing)
                i_rep, j_rep = i_rep[keep], j_rep[keep]
                if smart and part_labels is not None:
                    sv_i = np.full(len(i_rep), part_labels[c1])
                    sv_j = np.full(len(j_rep), part_labels[c2])
                else:
                    sv_i = sv_j = None
                yield pa.table({
                    "_from": _ids_to_vertex(vcoll, i_rep, smart, sv_i),
                    "_to": _ids_to_vertex(vcoll, j_rep, smart, sv_j),
                })

    items = pa.table({"c1": pa.array([p[0] for p in pairs], pa.int64()),
                      "c2": pa.array([p[1] for p in pairs], pa.int64())})
    return ray.data.from_arrow(items).map_batches(
        expand, batch_format="pyarrow", batch_size=1)


# ------------------------------------------------------------ presets

def _edge_part_label(cfg: CompatGraphConfig, label: str) -> str | None:
    """Smart edges use smart value = str(vertex id) (clique_generator.py:36,
    77: ``smart_val_i = str(i)``) UNLESS smart_attribute == 'part', where the
    part label is the smart value (edges_generator.py:133,139)."""
    return label if (cfg.is_smart and cfg.smart_attribute == "part") else None


def create_clique_graph(n: int, cfg: CompatGraphConfig,
                        prob_missing: float = 0.0, seed: int = 0):
    """E6 preset: one clique — vertices + triangular edges."""
    part = "0" if cfg.is_smart else ""
    vertices = make_vertices(n, cfg, part_label=part)
    edges = clique_edges(n, cfg, prob_missing, seed,
                         part_label=_edge_part_label(cfg, part))
    return vertices, edges


def cliques_graph_sizes(num_cliques: int, min_size: int, max_size: int,
                        seed: int = 0) -> list[int]:
    """Deterministic random clique sizes (clique_generator.py:304)."""
    h = _splitmix64(_U64(seed) ^ np.arange(num_cliques, dtype=_U64))
    return (min_size + (h % _U64(max_size - min_size + 1))).astype(int).tolist()


def create_cliques_graph(num_cliques: int, min_size: int, max_size: int,
                         cfg: CompatGraphConfig,
                         prob_missing_intra: float = 0.0,
                         prob_missing_inter: float = 0.0,
                         prob_missing_all: float = 0.0,
                         seed: int = 0):
    """E7 preset (without the reference's no-join / arity bugs):
    per-clique vertices + intra-clique edges, then inter-clique pairs."""
    sizes = cliques_graph_sizes(num_cliques, min_size, max_size, seed)
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)  # the CliquesHelper prefix-sum
    labels = [str(starts[c]) for c in range(num_cliques)]

    vparts = [make_vertices(sizes[c], cfg, part_label=labels[c],
                            start=starts[c]) for c in range(num_cliques)]
    vertices = vparts[0]
    for vp in vparts[1:]:
        vertices = vertices.union(vp)

    eparts = [clique_edges(sizes[c], cfg, prob_missing_intra,
                           seed ^ (c + 1), start=starts[c],
                           part_label=_edge_part_label(cfg, labels[c]))
              for c in range(num_cliques)]
    intra = eparts[0]
    for ep in eparts[1:]:
        intra = intra.union(ep)
    part_mode = cfg.is_smart and cfg.smart_attribute == "part"
    inter = connect_parts_edges(starts, cfg, prob_missing_inter,
                                prob_missing_all, seed,
                                part_labels=labels if part_mode else None)
    return vertices, intra.union(inter)


def create_k_partite_graph(k: int, min_size: int, max_size: int,
                           cfg: CompatGraphConfig, seed: int = 0):
    """E8 preset (reference entry point is broken — k_partite_generator.py:39
    — this encodes the documented intent): parts with NO intra-part edges,
    all pairs between parts."""
    sizes = cliques_graph_sizes(k, min_size, max_size, seed)
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    labels = [str(starts[c]) for c in range(k)]
    vparts = [make_vertices(sizes[c], cfg, part_label=labels[c],
                            start=starts[c]) for c in range(k)]
    vertices = vparts[0]
    for vp in vparts[1:]:
        vertices = vertices.union(vp)
    part_mode = cfg.is_smart and cfg.smart_attribute == "part"
    edges = connect_parts_edges(starts, cfg, 0.0, 0.0, seed,
                                part_labels=labels if part_mode else None)
    return vertices, edges


# --------------------------------------------- vertex/edge property values

def uniform_str(seed: int, ids: np.ndarray, lo: float, hi: float,
                tag: int = 0) -> pa.Array:
    """Content-keyed uniform floats, STRINGIFIED — the reference stores all
    random property values as strings (vertices_generator.py:32-33,39-40,
    edges_generator.py:60,72). Keyed on (seed, id), not call order."""
    h = _splitmix64(_U64(seed ^ tag) ^ ids.astype(_U64))
    u = h.astype(np.float64) / float(2 ** 64)
    vals = lo + u * (hi - lo)
    return pa.array([str(v) for v in vals])


def make_vertices_with_property(n: int, cfg: CompatGraphConfig,
                                attr_name: str,
                                prop_type: str = "none",
                                prop_min: float = 0.0,
                                prop_max: float = 1.0,
                                values: list | None = None,
                                part_label: str = "",
                                start: int = 0,
                                seed: int = 0) -> ray.data.Dataset:
    """M4 + M9: vertex docs with the optional additional attribute —
    'none' | 'random' (stringified uniform) | 'list' (explicit values),
    mirroring VertexOrEdgeProperty (helper_classes.py / arguments.py)."""
    base = make_vertices(n, cfg, part_label=part_label, start=start)
    if prop_type == "none":
        return base
    if prop_type == "list":
        if values is None or len(values) < n:
            raise ValueError(
                "'list' property needs one value per vertex "
                "(vertices_generator.py:112-116 validation)")
        vals_arr = [str(v) for v in values[:n]]

        def attach_list(batch: pa.Table) -> pa.Table:
            key = batch["_key"].to_pylist()
            idx = [int(k.split(":")[-1]) - start for k in key]
            return batch.append_column(
                attr_name, pa.array([vals_arr[i] for i in idx]))

        return base.map_batches(attach_list, batch_format="pyarrow")
    if prop_type == "random":
        def attach(batch: pa.Table) -> pa.Table:
            key = batch["_key"].to_pylist()
            ids = np.array([int(k.split(":")[-1]) for k in key],
                           dtype=np.int64)
            return batch.append_column(
                attr_name, uniform_str(seed, ids, prop_min, prop_max))

        return base.map_batches(attach, batch_format="pyarrow")
    raise ValueError(f"unknown prop_type {prop_type!r}")


def clique_edges_with_weight(n: int, cfg: CompatGraphConfig,
                             attr_name: str,
                             prob_missing: float = 0.0,
                             w_min: float = 0.0, w_max: float = 1.0,
                             seed: int = 0,
                             start: int = 0) -> ray.data.Dataset:
    """M7: clique edges with a random stringified weight attribute
    (edges_generator.py:58-60,70-72)."""
    edges = clique_edges(n, cfg, prob_missing, seed, start=start)

    def attach(batch: pa.Table) -> pa.Table:
        f = batch["_from"].to_pylist()
        t = batch["_to"].to_pylist()
        # content-key on the endpoint strings, not python hash (randomized)
        import zlib

        key = np.array([zlib.crc32(f"{a}|{b}".encode())
                        for a, b in zip(f, t)], dtype=np.int64)
        return batch.append_column(
            attr_name, uniform_str(seed, key, w_min, w_max, tag=0xE))

    return edges.map_batches(attach, batch_format="pyarrow")
