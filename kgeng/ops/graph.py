"""Native iterative graph algorithms (the Pregel analogue, in-engine).

The reference exists to feed graphs into a SERVER-side Pregel runner —
``/root/reference/start_Pregel.py:194-198`` launches ``pagerank`` (its
flagship algorithm; also wcc/sssp/...) over the imported collections and
polls status. This engine runs the algorithm natively over the same edge
data as Ray Data rounds; connected components (wcc) already lives in
ops/canonicalize.py::label_propagation_components.

PageRank iteration (the classic formulation):

    r'(v) = (1-d)/N + d * [ sum_{u->v} r(u)/outdeg(u) + dangling/N ]

where ``dangling`` is the rank mass of nodes without out-edges,
redistributed uniformly. Ranks are rounded to ``ndigits`` EVERY round —
this makes the result reproducible bit-for-bit across summation orders
(partial sums across blocks vs a single-threaded SQL oracle differ by
~1e-17 relative, far below the rounding granularity), so a DuckDB
oracle with the same per-round rounding hash-matches exactly.

Every algorithm has two plans, picked by one rule from sizes it
already measures (node count, edge count, rounds, sketch width):

- plan A: the algorithm's state (rank vector, label memory, register
  matrix, packed edge set, ...) lives on the driver, and each round
  runs a vectorized per-block kernel whose partials the driver reduces
  (:class:`_IndexedEdges`) — in-process for graphs of at most
  ``_LOCAL_EDGES`` edges, one raw task per edge block above;
- plan B (``_*_distributed`` and the join/shuffle branches): the state
  stays a Dataset and each round is joins and groupbys; the driver
  sees only scalars (node count, dangling mass, changed counts).

Plan A runs whenever the driver bytes it would hold, computed from
those sizes, fit ``_DRIVER_STATE_BYTES``; above that budget plan B
runs. Both plans give the same rows bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from kgeng.ops.mat import mat


def _round9(x, ndigits: int) -> np.ndarray:
    # numpy round is banker's; DuckDB round() is half-away-from-zero.
    # Ranks are strictly positive so half-UP matches half-away. This is
    # THE rounding that makes iterative results hash-match the SQL
    # oracles — every algorithm in this module must round through it.
    scale = 10.0 ** ndigits
    return np.floor(np.asarray(x, dtype=np.float64) * scale + 0.5) / scale


def _node_ids(t: pa.Table, src: str, dst: str) -> pa.Table:
    """Per-batch distinct endpoint ids (both columns) — the shared
    node-extraction partial for every algorithm here."""
    both = pa.concat_arrays([t[src].combine_chunks(),
                             t[dst].combine_chunks()])
    return pa.table({"node": pc.unique(both)})


# --------------------------------------------------- indexed edge blocks
#
# The plan-A algorithms run SHORT synchronous rounds (a Pregel superstep
# is one sparse mat-vec). Driving each round through a fresh Dataset
# execution pays the streaming executor's fixed startup per round — at
# sf0.1 that startup DOMINATES pagerank's wall (VERDICT r3 item 5). The
# deliberate exception to Dataset-first: the edge blocks of an already
# materialized Dataset are staged ONCE as per-block searchsorted index
# arrays in the object store, and each round is a raw-task fan-out over
# those refs (per-block compute still on workers, driver still only sees
# the N-bounded reduce). This is the documented "raw tasks where the
# Dataset API can't express it" case: an iterative algorithm whose
# per-round work is far smaller than per-execution overhead.
#
# Small graphs skip Ray altogether: at or below ``_LOCAL_EDGES`` edges
# even one task per block per round costs more than the round's numpy,
# so the blocks are pulled to the driver once and every kernel runs
# there as a plain function (the same kernels, see ``_kernel``).

#: Edge count at or below which plan-A graph rounds run in-process on
#: the driver. Measured at 4 CPUs on skewed random graphs in 8 input
#: blocks, best wall of 4, in-process vs raw tasks, at 64k / 128k /
#: 256k / 512k edges:
#:   pagerank   0.07 vs 0.14, 0.09 vs 0.20, 0.16 vs 0.22, 0.29 vs 0.31 s
#:   labelprop  0.12 vs 0.19, 0.20 vs 0.26, 0.39 vs 0.43, 0.76 vs 0.77 s
#:   triangles  0.14 vs 0.18, 0.22 vs 0.24, 0.42 vs 0.40, 0.97 vs 0.69 s
#: Triangles cross over first (between 128k and 256k), so one constant
#: sits just below that. In-process used less CPU at every size
#: (at 128k: 0.13 / 0.26 / 0.27 CPU-s against 0.60 / 0.61 / 0.55).
_LOCAL_EDGES = 128_000

#: Driver bytes a plan-A algorithm may hold (its node vectors, label
#: memory, register matrix or packed edge set, counted per algorithm
#: from the sizes it measures); above this the algorithm runs plan B.
#: 2 GiB is the figure the bounded-BFS plan already applied to V x E.
_DRIVER_STATE_BYTES = 2 << 30

#: Shuffle bucket counts of the plan-B rounds (and of the triangle
#: kernels' wedge chunking, at four chunks per bucket).
_BUCKETS = 64
_ROUND_BUCKETS = 32
_BFS_BUCKETS = 16


def _kernel(fn):
    """Mark a per-block kernel: ``fn`` stays a plain function, which the
    in-process backend calls directly, and gains ``fn.remote``, its
    raw-task form built from the same function."""
    fn.remote = ray.remote(fn).remote
    return fn


def _blk_col(blk, c) -> np.ndarray:
    """Column of an Arrow-or-pandas block as numpy; a zero-column empty
    partition (post-groupby artifact) reads as an empty array."""
    names = (blk.column_names if isinstance(blk, pa.Table)
             else list(blk.columns))
    if c not in names:
        return np.zeros(0, np.int64)
    v = blk[c]
    return (v.to_numpy(zero_copy_only=False)
            if isinstance(blk, pa.Table) else v.to_numpy())


def _pull_edges(edges: ray.data.Dataset, cols: list[str]) -> pa.Table:
    """The ``cols`` of a small MATERIALIZED edge Dataset as one Arrow
    table on the driver — no Dataset execution, whatever the block
    format (see _blk_col)."""
    blks = ray.get([r for b in edges.iter_internal_ref_bundles()
                    for r in b.block_refs])
    return pa.table({c: np.concatenate([_blk_col(b, c) for b in blks]
                                       or [np.zeros(0, np.int64)])
                     for c in cols})


@_kernel
def _index_block(blk, nodes: np.ndarray, src: str, dst: str,
                 weight: str | None):
    si = np.searchsorted(nodes, _blk_col(blk, src)).astype(np.int32)
    di = np.searchsorted(nodes, _blk_col(blk, dst)).astype(np.int32)
    w = _blk_col(blk, weight).astype(np.int64) if weight else None
    return (si, di, w)


@_kernel
def _sweep_block(idx, vec: np.ndarray, n: int, direction: str):
    """out[x] += vec[y] over the block's edges (fwd: y=src,x=dst)."""
    si, di, _ = idx
    if direction == "fwd":
        return np.bincount(di, weights=vec[si], minlength=n)
    return np.bincount(si, weights=vec[di], minlength=n)


@_kernel
def _relax_block(idx, dist: np.ndarray, inf: int):
    si, di, w = idx
    cand = np.full(len(dist), np.int64(inf), np.int64)
    ok = dist[si] < inf
    np.minimum.at(cand, di[ok], dist[si[ok]] + w[ok])
    return cand


@_kernel
def _ends_block(blk, src: str, dst: str):
    """Distinct endpoint ids of one block (driver unions the <=2E,
    <=blocks*N total — effectively N-bounded whenever E >> N, and when
    it isn't, N ~ 2E anyway)."""
    # int64 regardless of the edge columns' width: node ids / output
    # schemas must not silently inherit e.g. int32 from the source
    return np.unique(np.concatenate(
        [_blk_col(blk, src), _blk_col(blk, dst)])).astype(np.int64)


@_kernel
def _deg_block(idx, n: int):
    si, _, _ = idx
    return np.bincount(si, minlength=n).astype(np.float64)


@_kernel
def _succ_block(idx, frontier_mask: np.ndarray):
    """Distinct successor positions of the masked frontier in one block."""
    si, di, _ = idx
    return np.unique(di[frontier_mask[si]])


@_kernel
def _ball_block(idx, regs: np.ndarray):
    """One HyperBall round over a src-sorted block: union each source's
    registers with its out-neighbors' (elementwise max). Returns the
    block's (unique source positions, merged registers) — N-bounded
    because sorted blocks hold disjoint source ranges."""
    si, di, _ = idx
    uniq = np.unique(si)
    out = regs[uniq].copy()
    pos = np.searchsorted(uniq, si)
    np.maximum.at(out, pos, regs[di])
    return (uniq.astype(np.int64), out)


def _bounded_blocks(edges: ray.data.Dataset,
                    lo: int = 8, hi: int = 256,
                    rows_per_block: int = 500_000) -> ray.data.Dataset:
    """Materialize; above ``_LOCAL_EDGES`` edges, repartition toward
    ~``rows_per_block`` edges per block, clamped to [lo, hi] blocks.
    The raw-task backend of :class:`_IndexedEdges` fans one task per
    block PER ROUND, so a block must carry enough edges to amortize its
    task launch (a 30k-edge sweep is ~0.1 ms of numpy under ~5 ms of
    scheduling); the clamp spreads a graph just past the in-process
    cutover over every core and keeps the per-block reduce fan-in
    bounded. Repartition only when the count is far off target — an
    extra pass over an already-shaped Dataset is wasted work — and
    never at or below the cutover, where the blocks are pulled to the
    driver as they are."""
    edges = edges.materialize()
    m = edges.count()
    nb = edges.num_blocks()
    target = int(max(lo, min(hi, m // rows_per_block + 1)))
    if m > _LOCAL_EDGES and (nb > 2 * target or nb < lo):
        edges = edges.repartition(target).materialize()
    return edges


class _IndexedEdges:
    """Per-block (si, di[, w]) index arrays of a MATERIALIZED edge
    Dataset, staged once, and one round method, :meth:`map`, with a
    backend picked from the edge count alone:

    - in-process (at most ``_LOCAL_EDGES`` edges): the blocks are pulled
      to the driver once and indexed as ONE block, and ``map`` calls the
      kernel as a plain function;
    - raw tasks (above): the index arrays stay in the object store, one
      per block, and ``map`` fans ``kernel.remote`` over them; each
      array argument ships once per round via ``ray.put`` (workers read
      it zero-copy from plasma).

    Either way ``map`` yields the per-block results in block order and
    the caller reduces them on the driver as they arrive.

    The plan rule: the caller's plan A holds ``node_bytes`` per node
    plus ``edge_bytes`` per edge on the driver. Node discovery runs
    first; when that total exceeds ``_DRIVER_STATE_BYTES``, ``fits``
    is False, nothing is indexed, and the caller runs its plan B."""

    def __init__(self, edges: ray.data.Dataset, src: str, dst: str,
                 weight: str | None = None, node_bytes: int = 0,
                 edge_bytes: int = 0):
        m = edges.count()
        self.local = m <= _LOCAL_EDGES
        # the raw blocks until the index staging below replaces them
        cols = [src, dst] + ([weight] if weight else [])
        self.idx = ([_pull_edges(edges, cols)] if self.local else
                    [r for b in edges.iter_internal_ref_bundles()
                     for r in b.block_refs])
        # node discovery: per-block distinct endpoints, one driver
        # union — no Dataset execution, no shuffle
        parts = list(self.map(_ends_block, src, dst))
        nodes = (np.unique(np.concatenate(parts)) if parts
                 else np.zeros(0, np.int64))
        self.nodes = nodes
        self.n = len(nodes)
        self.fits = (node_bytes * self.n + edge_bytes * m
                     <= _DRIVER_STATE_BYTES)
        if self.fits:
            self.idx = self._fan(_index_block, nodes, src, dst, weight)

    def _fan(self, kernel, *args) -> list:
        if self.local:
            return [kernel(i, *args) for i in self.idx]
        args = [ray.put(a) if isinstance(a, np.ndarray) else a
                for a in args]
        return [kernel.remote(i, *args) for i in self.idx]

    def map(self, kernel, *args):
        """One round: ``kernel(block_index, *args)`` for every block,
        yielded in block order. Raw-task results are fetched one at a
        time, so a caller that reduces as it iterates holds its
        accumulator plus one partial."""
        out = self._fan(kernel, *args)
        return iter(out) if self.local else (ray.get(r) for r in out)

    def total(self, kernel, *args) -> np.ndarray:
        """Sum of the per-block n-float64 partials of one round, added
        in block order as they arrive."""
        acc = np.zeros(self.n, np.float64)
        for part in self.map(kernel, *args):
            acc += part
        return acc

    def sweep(self, vec: np.ndarray, direction: str = "fwd") -> np.ndarray:
        return self.total(_sweep_block, vec, self.n, direction)


def _concat_pairs(parts) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate a round's per-block (keys, counts) partials, taking
    each partial once as it arrives."""
    keys, cnts = [], []
    for k, c in parts:
        keys.append(k)
        cnts.append(c)
    return np.concatenate(keys), np.concatenate(cnts)


def pagerank(edges: ray.data.Dataset, src: str = "src", dst: str = "dst",
             iters: int = 5, damping: float = 0.85,
             ndigits: int = 9) -> ray.data.Dataset:
    """PageRank over a directed edge Dataset; returns Dataset(node, rank).

    Multi-edges count multiply (dedup upstream if unwanted). See the
    module docstring for semantics, rounding, and the two plans. Plan A
    holds ~6 n-float64 vectors (48 bytes per node); each round adds the
    per-block dense partials into one accumulator."""
    # materialize once; rebalance only when the incoming block count is
    # unsuitable for the per-block dense reduce (each extra pass over
    # the edges is a whole executor run)
    edges = _bounded_blocks(edges)

    # node ids + out-degrees — no Dataset execution, no shuffle (see
    # _IndexedEdges); multi-edges count multiply
    idx = _IndexedEdges(edges, src, dst, node_bytes=48)
    if not idx.fits:
        return _pagerank_distributed(edges, src, dst, iters, damping,
                                     ndigits)
    nodes, n = idx.nodes, idx.n
    deg = idx.total(_deg_block, n)

    base = (1.0 - damping) / n
    ranks = _round9(np.full(n, 1.0 / n), ndigits)
    for _ in range(iters):
        has_out = deg > 0
        contrib = np.where(has_out, ranks / np.where(has_out, deg, 1.0),
                           0.0)
        dangling = float(ranks[~has_out].sum()) / n
        incoming = idx.sweep(contrib, "fwd")
        ranks = _round9(base + damping * (incoming + dangling), ndigits)

    return ray.data.from_arrow(pa.table({
        "node": pa.array(nodes), "rank": pa.array(ranks)}))


def _pagerank_distributed(edges: ray.data.Dataset, src: str, dst: str,
                          iters: int, damping: float,
                          ndigits: int) -> ray.data.Dataset:
    """Plan B: the rank vector never materializes on the driver —
    per-round hash joins move ranks along edges (:func:`_flow_sum`);
    only the dangling scalar and the node count reach the driver."""
    from kgeng.ops.join import hash_join

    # project + materialize ONCE: the loop's flow join would otherwise
    # re-execute the whole upstream edge plan every iteration
    eproj = edges.map_batches(
        lambda t: pa.table({"node": pc.cast(t[src], pa.int64()),
                            "other": pc.cast(t[dst], pa.int64())}),
        batch_format="pyarrow").materialize()

    nodes = _nodes_dataset(eproj, "node", "other")
    n = nodes.count()
    deg = eproj.groupby("node").count().map_batches(
        lambda t: pa.table({"node": t["node"],
                            "deg": pc.cast(t["count()"], pa.float64())}),
        batch_format="pyarrow").materialize()

    base = (1.0 - damping) / n
    r0 = round(1.0 / n, ndigits)
    ranks = nodes.map_batches(
        lambda t: t.append_column("r", pa.array(
            np.full(len(t), r0))), batch_format="pyarrow").materialize()

    for _ in range(iters):
        rd = hash_join(ranks, deg, key="node", how="left")

        def contrib_row(df: pd.DataFrame) -> pd.DataFrame:
            # hash_join emits the full stable column set per bucket;
            # unmatched left rows carry NaN deg (isfinite handles it)
            d = df["deg"].to_numpy()
            has = np.isfinite(d) & (d > 0)
            r = df["r"].to_numpy()
            return pd.DataFrame({
                "node": df["node"],
                "v": np.where(has, r / np.where(has, d, 1.0), 0.0),
                "dang": np.where(has, 0.0, r)})

        rc = mat(rd.map_batches(contrib_row, batch_format="pandas"))
        dangling = rc.sum("dang") / n

        def finish(t: pa.Table) -> pa.Table:
            inc = t["v"].to_numpy(zero_copy_only=False)
            return pa.table({"node": t["node"], "r": pa.array(_round9(
                base + damping * (inc + dangling), ndigits))})

        # cap block growth (iterative loops otherwise double per round)
        ranks = mat(_flow_sum(eproj, rc.select_columns(["node", "v"]),
                              nodes)
                    .map_batches(finish, batch_format="pyarrow")
                    .repartition(8))

    return ranks.map_batches(
        lambda t: pa.table({"node": pc.cast(t["node"], pa.int64()),
                            "rank": t["r"]}), batch_format="pyarrow")


def sssp_hops(edges: ray.data.Dataset, source: int, src: str = "src",
              dst: str = "dst") -> ray.data.Dataset:
    """Single-source shortest path in hops (BFS layers) — 'sssp' in the
    reference's Pregel algorithm list (arguments.py:187), run
    server-side there. Returns Dataset(node, dist) for REACHED nodes
    only (matches the recursive-CTE oracle's reachability semantics).

    Plan A shape (like :func:`pagerank`): the distance vector is
    driver-held (nodes, distances and two frontier masks, 24 bytes per
    node); each BFS layer is one round over indexed edge blocks (see
    :class:`_IndexedEdges`) — per-block vectorized frontier-membership
    filter emitting that block's distinct successors — until the
    frontier empties (exact BFS, no iteration cap). Integer distances:
    the oracle is exact. Past ``_DRIVER_STATE_BYTES`` it runs plan B:
    unit-weight Bellman-Ford dataset rounds
    (:func:`_bellman_ford_distributed`, run to its fixpoint) — BFS IS
    Bellman-Ford with w=1, and integer mins are order-invariant, so the
    plans agree bit-for-bit."""
    edges = _bounded_blocks(edges)
    idx = _IndexedEdges(edges, src, dst, node_bytes=24)
    if not idx.fits:
        return _sssp_hops_distributed(edges, source, src, dst)
    nodes, n = idx.nodes, idx.n

    si0 = int(np.searchsorted(nodes, source))
    if si0 >= n or nodes[si0] != source:
        # isolated source: the seeded-CTE oracle semantics — one row
        # (source, 0) — not an error (matches the pre-round-4 contract)
        return ray.data.from_arrow(pa.table({
            "node": pa.array([source], pa.int64()),
            "dist": pa.array([0], pa.int64())}))
    dist = np.full(n, -1, np.int64)
    dist[si0] = 0
    frontier = np.zeros(n, bool)
    frontier[si0] = True
    d = 0
    while frontier.any():
        d += 1
        nxt = np.zeros(n, bool)
        for part in idx.map(_succ_block, frontier):
            nxt[part] = True
        frontier = nxt & (dist < 0)
        dist[frontier] = d

    reached = dist >= 0
    return ray.data.from_arrow(pa.table({
        "node": pa.array(nodes[reached]),
        "dist": pa.array(dist[reached])}))


def _sssp_hops_distributed(edges: ray.data.Dataset, source: int,
                           src: str, dst: str) -> ray.data.Dataset:
    """Plan B BFS: unit-weight Bellman-Ford Dataset rounds run to the
    fixpoint (:func:`_bellman_ford_distributed` early-exits when no
    distance moves) — BFS IS Bellman-Ford with w=1, and integer mins
    are order-invariant, so this matches plan A bit-for-bit. The
    distance frontier lives as a Dataset; node-count unbounded."""
    unit = edges.map_batches(
        lambda t: pa.table({
            "s": pc.cast(t[src], pa.int64()),
            "d": pc.cast(t[dst], pa.int64()),
            "w": pa.array(np.ones(len(t), np.int64))}),
        batch_format="pyarrow")
    try:
        # rounds bound = fixpoint-only in practice: BFS depth <= n, and
        # the early-exit fires the round after the last frontier moves
        return _bellman_ford_distributed(unit, source, 1 << 40,
                                         "s", "d", "w")
    except ValueError:
        # isolated source: plan A's seeded-CTE contract — one (source,
        # 0) row, not an error
        return ray.data.from_arrow(pa.table({
            "node": pa.array([source], pa.int64()),
            "dist": pa.array([0], pa.int64())}))


def hits(edges: ray.data.Dataset, src: str = "src", dst: str = "dst",
         iters: int = 5, ndigits: int = 9) -> ray.data.Dataset:
    """HITS hubs-and-authorities ('hits' in the reference's Pregel
    algorithm list, arguments.py:187). Classic power iteration:
    auth(v) = sum of hub(u) over in-edges, hub(u) = sum of auth(v) over
    out-edges, each L2-normalized and rounded per round (IEEE sqrt is
    correctly rounded, so per-round rounding again pins the result
    across summation orders). Same plan-A shape as :func:`pagerank`:
    driver-held node vectors (~5 n-float64, 40 bytes per node),
    per-block edge scans with a dense driver reduce
    (:class:`_IndexedEdges`). Past ``_DRIVER_STATE_BYTES`` it runs plan
    B (:func:`_hits_distributed`), where the hub/auth vectors live as
    Datasets and only two scalars (node count, norm) reach the
    driver."""
    # sweeps over indexed blocks (_IndexedEdges): per half-round cost
    # is the per-block kernels + the n-bounded reduce, not a full
    # streaming-executor startup
    edges = _bounded_blocks(edges)
    idx = _IndexedEdges(edges, src, dst, node_bytes=40)
    if not idx.fits:
        return _hits_distributed(edges, src, dst, iters, ndigits)
    nodes, n = idx.nodes, idx.n

    def norm(x: np.ndarray) -> np.ndarray:
        s = np.sqrt(float((x * x).sum()))
        return _round9(x / s, ndigits) if s > 0 else x

    hub = norm(np.ones(n))
    auth = np.zeros(n)
    for _ in range(iters):
        auth = norm(idx.sweep(hub, "fwd"))
        hub = norm(idx.sweep(auth, "rev"))

    return ray.data.from_arrow(pa.table({
        "node": pa.array(nodes), "hub": pa.array(hub),
        "auth": pa.array(auth)}))


def _nodes_dataset(proj: ray.data.Dataset, a: str,
                   b: str) -> ray.data.Dataset:
    """Distinct endpoint ids of a projected edge Dataset, as a
    materialized single-column (node) Dataset."""
    def pick(t: pa.Table) -> pa.Table:
        # the groupby can emit zero-column empty partitions
        if "node" not in t.column_names:
            return pa.table({"node": pa.array([], pa.int64())})
        return pa.table({"node": pc.cast(t["node"], pa.int64())})

    return proj.map_batches(
        lambda t: _node_ids(t, a, b), batch_format="pyarrow") \
        .groupby("node").count() \
        .map_batches(pick, batch_format="pyarrow").materialize()


def _flow_sum(proj: ray.data.Dataset, vec: ray.data.Dataset,
              nodes: ray.data.Dataset) -> ray.data.Dataset:
    """Distributed sparse mat-vec: ``out[other] = sum of vec.v over proj
    rows keyed by node`` — the shared plan-B sweep of HITS and
    PageRank. ``proj`` is Dataset(node, other); ``vec`` is
    Dataset(node, v). Returns Dataset(node, v) covering EVERY node
    (absent inflow = 0.0)."""
    from kgeng.ops.join import hash_join

    flow = hash_join(proj, vec, key="node", how="inner")
    # explicit casts: empty-bucket merges upcast ints to double in some
    # blocks, and a double key buckets differently from int64 node ids
    summed = flow.map_batches(
        lambda t: pa.table({"node": pc.cast(t["other"], pa.int64()),
                            "val": pc.cast(t["v"], pa.float64())}),
        batch_format="pyarrow").groupby("node").sum("val")

    def cast_in(t: pa.Table) -> pa.Table:
        if t.num_columns < 2:  # zero-column empty partition post-groupby
            return pa.table({"node": pa.array([], pa.int64()),
                             "val": pa.array([], pa.float64())})
        return pa.table({
            "node": pc.cast(t[t.column_names[0]], pa.int64()),
            "val": pc.cast(t[t.column_names[1]], pa.float64())})

    joined = hash_join(nodes, summed.map_batches(
        cast_in, batch_format="pyarrow"), key="node", how="left",
        right_cols=["node", "val"])
    return joined.map_batches(
        lambda t: pa.table({
            "node": pc.cast(t["node"], pa.int64()),
            "v": pc.fill_null(pc.cast(t["val"], pa.float64()), 0.0)}),
        batch_format="pyarrow")


def _hits_distributed(edges: ray.data.Dataset, src: str, dst: str,
                      iters: int, ndigits: int) -> ray.data.Dataset:
    """Plan B HITS: hub/auth vectors never materialize on the driver.
    Each half-round is one distributed flow join + groupby sum
    (:func:`_flow_sum`); only the node count and the L2 norm (a
    driver-side scalar reduce, rounded through the same per-round
    policy as plan A) leave the cluster. Node-count unbounded."""
    fwd = edges.map_batches(
        lambda t: pa.table({"node": pc.cast(t[src], pa.int64()),
                            "other": pc.cast(t[dst], pa.int64())}),
        batch_format="pyarrow").materialize()
    rev = fwd.map_batches(
        lambda t: pa.table({"node": t["other"], "other": t["node"]}),
        batch_format="pyarrow").materialize()
    nodes = _nodes_dataset(fwd, "node", "other")
    n = nodes.count()

    def normalize(vec: ray.data.Dataset) -> ray.data.Dataset:
        s2 = vec.map_batches(
            lambda t: pa.table({"v2": pc.multiply(t["v"], t["v"])}),
            batch_format="pyarrow").sum("v2")
        s = float(np.sqrt(s2)) if s2 and s2 > 0 else 1.0

        def fin(t: pa.Table) -> pa.Table:
            v = _round9(t["v"].to_numpy(zero_copy_only=False) / s,
                        ndigits)
            return pa.table({"node": t["node"], "v": pa.array(v)})

        # repartition: iterative flows otherwise double block count
        return mat(vec.map_batches(fin, batch_format="pyarrow")
                   .repartition(8))

    h0 = _round9(np.array([1.0 / np.sqrt(n)]), ndigits)[0]
    hub = nodes.map_batches(
        lambda t: t.append_column("v", pa.array(
            np.full(len(t), h0))), batch_format="pyarrow").materialize()
    # auth starts all-zero (matches plan A's iters=0 output)
    auth = nodes.map_batches(
        lambda t: t.append_column("v", pa.array(
            np.zeros(len(t)))), batch_format="pyarrow").materialize()
    for _ in range(iters):
        auth = normalize(_flow_sum(fwd, hub, nodes))
        hub = normalize(_flow_sum(rev, auth, nodes))

    from kgeng.ops.join import hash_join
    out = hash_join(
        hub.map_batches(lambda t: pa.table(
            {"node": t["node"], "hub": t["v"]}), batch_format="pyarrow"),
        auth.map_batches(lambda t: pa.table(
            {"node": t["node"], "auth": t["v"]}), batch_format="pyarrow"),
        key="node", how="inner")
    return out.map_batches(
        lambda t: pa.table({"node": pc.cast(t["node"], pa.int64()),
                            "hub": pc.cast(t["hub"], pa.float64()),
                            "auth": pc.cast(t["auth"], pa.float64())}),
        batch_format="pyarrow")


def _hll_init_regs(nodes: np.ndarray, p: int) -> np.ndarray:
    """Initial HyperBall register matrix: each node's ball contains
    itself — one splitmix64 hash per node sets a single register.
    Shared by both effective_closeness plans (identical hashes ->
    identical sketches -> bit-identical estimates)."""
    from kgeng.ops.agg import _splitmix64

    n, m = len(nodes), 1 << p
    h = _splitmix64(nodes.astype(np.uint64))
    idx0 = (h >> np.uint64(64 - p)).astype(np.int64)
    w = h & ((np.uint64(1) << np.uint64(64 - p)) - np.uint64(1))
    bitlen = np.frexp(w.astype(np.float64))[1]
    rank = (np.uint8(64 - p + 1) - bitlen.astype(np.uint8))
    rank[w == 0] = np.uint8(64 - p + 1)
    regs = np.zeros((n, m), np.uint8)
    if n:
        regs[np.arange(n), idx0] = rank
    return regs


def _hll_estimate(r: np.ndarray, m: int) -> np.ndarray:
    """HyperLogLog cardinality estimate per row of a (k, m) uint8
    register matrix, with the standard small-range linear-counting
    correction — pure float64 numpy, so both plans agree bit-for-bit
    on identical registers."""
    alpha = (0.673 if m == 16 else 0.697 if m == 32 else
             0.709 if m == 64 else 0.7213 / (1.0 + 1.079 / m))
    est = alpha * m * m / np.power(2.0, -r.astype(np.float64)).sum(axis=1)
    zeros = (r == 0).sum(axis=1)
    small = (est <= 2.5 * m) & (zeros > 0)
    with np.errstate(divide="ignore"):
        lin = m * np.log(m / np.maximum(zeros, 1))
    return np.where(small, lin, est)


def effective_closeness(edges: ray.data.Dataset, src: str = "src",
                        dst: str = "dst", p: int = 6,
                        max_rounds: int = 32,
                        ndigits: int = 6) -> ray.data.Dataset:
    """Approximate closeness centrality ('effectivecloseness' in the
    reference's Pregel list, arguments.py:187) via the HyperBall method
    (Boldi & Vigna 2013): every node carries a 2^p-register HyperLogLog
    of its reachable ball; each round unions every node's sketch with
    its out-neighbors' (elementwise max — associative, so partition
    order can't change the result), and the per-round cardinality
    deltas estimate the distance distribution. closeness(v) =
    (reached-1) / sum_d d*(newly reached at d), 0 for isolated nodes.

    Plan A (:class:`_IndexedEdges`): each edge block covers a disjoint
    source range — one in-process block at or below ``_LOCAL_EDGES``
    edges, src-sorted raw-task blocks above — and emits exactly its own
    nodes' candidate registers (N x 2^p bytes total per round, not per
    block); they merge into the driver's register matrix. The driver
    holds two n x 2^p byte matrices (current and next round), so the
    width ``p`` enters the plan rule: past ``_DRIVER_STATE_BYTES`` it
    runs plan B (:func:`_effective_closeness_distributed`), where
    registers live as a binary column on a Dataset and each round is
    one candidate shuffle + one bucketed segment-max merge. Rounds stop
    when no register moves. Both plans share ``_hll_init_regs`` /
    ``_hll_estimate`` and elementwise register max is order-invariant,
    so they agree bit-for-bit.
    """
    m = 1 << p
    # raw tasks need src-sorted blocks (disjoint source ranges per
    # block) to keep each round's per-block output N-bounded in total;
    # the one in-process block has that already
    by_src = edges.materialize()
    if by_src.count() > _LOCAL_EDGES:
        by_src = by_src.sort(src).materialize()
    idx = _IndexedEdges(by_src, src, dst, node_bytes=2 * m)
    if not idx.fits:
        return _effective_closeness_distributed(
            by_src, src, dst, p, max_rounds, ndigits)
    nodes, n = idx.nodes, idx.n

    # init: each node's ball contains itself (shared with plan B)
    regs = _hll_init_regs(nodes, p)

    prev_est = _hll_estimate(regs, m)
    sum_dist = np.zeros(n, np.float64)
    # HyperBall rounds over the indexed blocks: each block emits only
    # its own disjoint source range's registers — N x 2^p bytes total
    # per round
    for d in range(1, max_rounds + 1):
        new_regs = regs.copy()
        for uniq, mx in idx.map(_ball_block, regs):
            new_regs[uniq] = np.maximum(new_regs[uniq], mx)
        if np.array_equal(new_regs, regs):
            break
        regs = new_regs
        est = _hll_estimate(regs, m)
        sum_dist += d * np.maximum(est - prev_est, 0.0)
        prev_est = est

    reached = np.maximum(prev_est - 1.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        clos = np.where(sum_dist > 0, reached / sum_dist, 0.0)
    clos = _round9(clos, ndigits)
    return ray.data.from_arrow(pa.table({
        "node": pa.array(nodes), "closeness": pa.array(clos)}))


def _pack_regs(regs: np.ndarray) -> pa.Array:
    """(k, m) uint8 register matrix -> fixed_size_binary(m) Arrow
    array, one zero-copy buffer (no per-row bytes objects)."""
    k, m = regs.shape
    buf = pa.py_buffer(np.ascontiguousarray(regs).tobytes())
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(m), k, [None, buf])


def _unpack_regs(col, m: int) -> np.ndarray:
    """fixed_size_binary(m) column -> (k, m) uint8 matrix. Only called
    on all-valid slices; honors the array offset after filters."""
    a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    data = np.frombuffer(a.buffers()[1], np.uint8)
    off = a.offset * m
    return data[off:off + len(a) * m].reshape(len(a), m)


def _effective_closeness_distributed(
        edges: ray.data.Dataset, src: str, dst: str, p: int,
        max_rounds: int, ndigits: int) -> ray.data.Dataset:
    """Plan B HyperBall closeness: the register matrix never touches
    the driver. State is Dataset(node, regs fixed_size_binary(2^p),
    est, sum_dist); each round is two bucketed shuffles — (1) state
    registers co-locate with the edges keyed by destination and emit
    one candidate register per edge source, (2) candidates co-locate
    with the standing state and merge by segmented elementwise max
    (order-invariant, so results are bit-identical to plan A's
    driver merge; both plans share ``_hll_init_regs`` /
    ``_hll_estimate``). Only the per-round changed-node COUNT (a
    scalar sum over the materialized state) reaches the driver.
    Node-count unbounded; memory per task is one bucket's slice."""
    from kgeng.ops.agg import _splitmix64

    m = 1 << p
    B = _ROUND_BUCKETS
    empty = pa.table({
        "bucket": pa.array([], pa.int64()),
        "is_state": pa.array([], pa.int8()),
        "node": pa.array([], pa.int64()),
        "peer": pa.array([], pa.int64()),
        "regs": pa.array([], pa.binary(m)),
        "est": pa.array([], pa.float64()),
        "sum_dist": pa.array([], pa.float64()),
        "changed": pa.array([], pa.int64())})

    def bkt(ids: np.ndarray) -> pa.Array:
        return pa.array((_splitmix64(ids.astype(np.uint64))
                         % np.uint64(B)).astype(np.int64))

    def rows(bucket, is_state, node, peer, regs, est, sum_dist,
             changed) -> pa.Table:
        n = len(node)
        return pa.table({
            "bucket": bucket,
            "is_state": pa.array(np.full(n, is_state, np.int8)),
            "node": pa.array(node),
            "peer": (pa.array(peer) if peer is not None
                     else pa.array(np.zeros(n, np.int64))),
            "regs": regs if regs is not None else pa.nulls(
                n, pa.binary(m)),
            "est": (pa.array(est) if est is not None
                    else pa.array(np.zeros(n))),
            "sum_dist": (pa.array(sum_dist) if sum_dist is not None
                         else pa.array(np.zeros(n))),
            "changed": (pa.array(changed) if changed is not None
                        else pa.array(np.zeros(n, np.int64)))})

    # edges as stage-1 rows, bucketed by DESTINATION (the register
    # provider): materialized once, re-shuffled per round (same shape
    # as the sibling plan Bs' per-round edge joins)
    def eproj(t: pa.Table) -> pa.Table:
        u = pc.cast(t[src], pa.int64()).to_numpy(zero_copy_only=False)
        v = pc.cast(t[dst], pa.int64()).to_numpy(zero_copy_only=False)
        return rows(bkt(v), 0, v, u, None, None, None, None)

    erows = edges.map_batches(eproj, batch_format="pyarrow") \
        .materialize()

    nodes = _nodes_dataset(
        erows.map_batches(lambda t: pa.table(
            {"a": t["node"], "b": t["peer"]}), batch_format="pyarrow"),
        "a", "b")
    if nodes.count() == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "closeness": pa.array([], pa.float64())}))

    def init(t: pa.Table) -> pa.Table:
        ids = pc.cast(t["node"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        regs = _hll_init_regs(ids, p)
        return rows(bkt(ids), 1, ids, None, _pack_regs(regs),
                    _hll_estimate(regs, m), None, None)

    state = nodes.map_batches(init, batch_format="pyarrow") \
        .materialize()

    def provide(t: pa.Table) -> pa.Table:
        """Stage 1 group (one v-bucket): emit each edge's destination
        registers re-addressed to its source node."""
        sm = pc.equal(t["is_state"], 1)
        st = t.filter(sm)
        ed = t.filter(pc.invert(sm))
        if len(ed) == 0 or len(st) == 0:
            return empty
        v_nodes = st["node"].to_numpy(zero_copy_only=False)
        order = np.argsort(v_nodes, kind="stable")
        v_sorted = v_nodes[order]
        regs = _unpack_regs(st["regs"], m)[order]
        ev = ed["node"].to_numpy(zero_copy_only=False)
        eu = ed["peer"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(v_sorted, ev)
        # every destination is an endpoint, hence present in state
        cand = regs[pos]
        return rows(bkt(eu), 0, eu, None, _pack_regs(cand),
                    None, None, None)

    def merge(d: int):
        def _merge(t: pa.Table, _d=d) -> pa.Table:
            """Stage 2 group (one node-bucket): segmented elementwise
            max of self + candidate registers, then the HyperBall
            distance-sum update for round _d."""
            sm = pc.equal(t["is_state"], 1)
            st = t.filter(sm)
            if len(st) == 0:
                return empty
            ca = t.filter(pc.invert(sm))
            s_nodes = st["node"].to_numpy(zero_copy_only=False)
            order = np.argsort(s_nodes, kind="stable")
            s_sorted = s_nodes[order]
            s_regs = _unpack_regs(st["regs"], m)[order]
            est = st["est"].to_numpy(zero_copy_only=False)[order]
            sd = st["sum_dist"].to_numpy(zero_copy_only=False)[order]
            k = len(s_sorted)
            if len(ca):
                c_regs = _unpack_regs(ca["regs"], m)
                pos = np.searchsorted(
                    s_sorted,
                    ca["node"].to_numpy(zero_copy_only=False))
                all_pos = np.concatenate([np.arange(k), pos])
                all_regs = np.vstack([s_regs, c_regs])
                o2 = np.argsort(all_pos, kind="stable")
                ap = all_pos[o2]
                starts = np.flatnonzero(
                    np.r_[True, ap[1:] != ap[:-1]])
                new = np.maximum.reduceat(all_regs[o2], starts, axis=0)
            else:
                new = s_regs
            chg = (new != s_regs).any(axis=1)
            est_new = _hll_estimate(new, m)
            sd = sd + _d * np.maximum(est_new - est, 0.0)
            return rows(bkt(s_sorted), 1, s_sorted, None,
                        _pack_regs(new), est_new, sd,
                        chg.astype(np.int64))
        return _merge

    for d in range(1, max_rounds + 1):
        cand = erows.union(state).groupby("bucket").map_groups(
            provide, batch_format="pyarrow")
        state = mat(cand.union(state).groupby("bucket").map_groups(
            merge(d), batch_format="pyarrow")
            .repartition(B))
        if not state.sum("changed"):
            break

    def fin(t: pa.Table) -> pa.Table:
        est = t["est"].to_numpy(zero_copy_only=False)
        sd = t["sum_dist"].to_numpy(zero_copy_only=False)
        reached = np.maximum(est - 1.0, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            clos = np.where(sd > 0, reached / sd, 0.0)
        return pa.table({
            "node": pc.cast(t["node"], pa.int64()),
            "closeness": pa.array(_round9(clos, ndigits))})

    return state.map_batches(fin, batch_format="pyarrow")


def bellman_ford_rounds(edges: ray.data.Dataset, source: int,
                        rounds: int, src: str = "src", dst: str = "dst",
                        weight: str = "w") -> ray.data.Dataset:
    """Weighted SSSP as EXACTLY ``rounds`` Bellman-Ford relaxations —
    the round-synchronous Pregel formulation ('sssp' with weights).
    Integer weights make the oracle exact: a k-round unrolled SQL
    recurrence computes the identical partial distances even before
    convergence, so the round count is part of the contract, not a
    tuning knob. Returns (node, dist) for nodes reached within
    ``rounds`` hops-by-relaxation.

    Plan A shape: driver distance vector (nodes, distances, next round
    and one partial: 32 bytes per node), edge blocks relax
    (:class:`_IndexedEdges`) and emit dense per-block min-vectors
    (int64, sentinel INF), driver takes the elementwise min of them.
    Past ``_DRIVER_STATE_BYTES`` it runs plan B
    (:func:`_bellman_ford_distributed`): the distance frontier lives as
    a Dataset and each round is one flow join + a union/min groupby —
    identical results (integer min is order-invariant, so the two plans
    agree bit-for-bit)."""
    INF = np.int64(2**62)

    edges = _bounded_blocks(edges)
    idx = _IndexedEdges(edges, src, dst, weight=weight, node_bytes=32)
    if not idx.fits:
        return _bellman_ford_distributed(edges, source, rounds, src,
                                         dst, weight)
    nodes, n = idx.nodes, idx.n
    si0 = int(np.searchsorted(nodes, source))
    if si0 >= n or nodes[si0] != source:
        raise ValueError(f"source {source} has no edges in the graph")
    dist = np.full(n, INF, np.int64)
    dist[si0] = 0
    for _ in range(rounds):
        new = dist.copy()
        for part in idx.map(_relax_block, dist, int(INF)):
            np.minimum(new, part, out=new)
        if np.array_equal(new, dist):
            break
        dist = new

    reached = dist < INF
    return ray.data.from_arrow(pa.table({
        "node": pa.array(nodes[reached]),
        "dist": pa.array(dist[reached])}))


def _bellman_ford_distributed(edges: ray.data.Dataset, source: int,
                              rounds: int, src: str, dst: str,
                              weight: str) -> ray.data.Dataset:
    """Plan B weighted SSSP: distances are a Dataset(node, dist), never
    a driver vector. Per round: flow-join the current distances onto
    the edges at their source (one hash-partitioned join), emit
    candidate dist+w per destination, then union with the standing
    distances and take the per-node min (one groupby). Integer mins are
    associative and order-invariant, so this matches plan A exactly.
    Early exit when a round's count and sum both stand still (sum can
    only decrease; together with the monotone non-decreasing count a
    joint fixpoint means no distance moved)."""
    from kgeng.ops.join import hash_join

    eproj = edges.map_batches(
        lambda t: pa.table({"node": pc.cast(t[src], pa.int64()),
                            "other": pc.cast(t[dst], pa.int64()),
                            "w": pc.cast(t[weight], pa.int64())}),
        batch_format="pyarrow").materialize()

    # same contract as plan A: an absent source is an error, not a
    # phantom (source, 0) row — one streaming membership pass
    hits_src = eproj.map_batches(
        lambda t: pa.table({"h": pa.array([int(
            pc.sum(pc.cast(pc.or_(pc.equal(t["node"], source),
                                  pc.equal(t["other"], source)),
                           pa.int64())).as_py() or 0)])}),
        batch_format="pyarrow").sum("h")
    if not hits_src:
        raise ValueError(f"source {source} has no edges in the graph")

    dist = ray.data.from_arrow(pa.table({
        "node": pa.array([source], pa.int64()),
        "dist": pa.array([0], pa.int64())}))
    prev = (1, 0)
    for _ in range(rounds):
        flow = hash_join(eproj, dist, key="node", how="inner")
        cand = flow.map_batches(
            lambda t: pa.table({
                "node": pc.cast(t["other"], pa.int64()),
                "dist": pc.add(pc.cast(t["dist"], pa.int64()),
                               pc.cast(t["w"], pa.int64()))}),
            batch_format="pyarrow")
        dist = mat(dist.union(cand).groupby("node").min("dist")
            .map_batches(
                lambda t: pa.table({
                    "node": pc.cast(t[t.column_names[0]], pa.int64()),
                    "dist": pc.cast(t[t.column_names[1]], pa.int64())})
                if t.num_columns >= 2 else
                pa.table({"node": pa.array([], pa.int64()),
                          "dist": pa.array([], pa.int64())}),
                batch_format="pyarrow")
            .repartition(8))
        cur = (dist.count(), int(dist.sum("dist") or 0))
        if cur == prev:
            break
        prev = cur
    return dist


def line_graph(edges: ray.data.Dataset, src: str = "src",
               dst: str = "dst") -> ray.data.Dataset:
    """Directed line-graph transform: every edge (a, b) becomes a node
    (id = a*2^32 + b, exact while ids < 2^31 — loudly guarded), and
    consecutive edges (a, b) -> (b, c) become line edges. One
    hash-partitioned self-join on the shared endpoint (the same
    primitive as hash_join), no other shuffle.

    The packed id travels through the join as its two 31-bit HALVES
    (not the packed int64): hash_join's nullable-int convention rounds
    right-side ints through float64, which corrupts values above 2^53 —
    halves < 2^31 are float64-exact, and the pack happens after.

    Size note (100 TB): |line edges| = sum over nodes of in*out degree —
    hot-hub graphs explode quadratically; pre-filter or cap hub degrees
    upstream when materializing line graphs of power-law inputs."""
    from kgeng.ops.join import hash_join

    def proj(which: str):
        def f(t: pa.Table) -> pa.Table:
            s = t[src].to_numpy(zero_copy_only=False)
            d = t[dst].to_numpy(zero_copy_only=False)
            if len(s) and (max(s.max(), d.max()) >= 1 << 31
                           or min(s.min(), d.min()) < 0):
                raise ValueError("line_graph packs (src, dst) into one "
                                 "int64; ids must be in [0, 2^31)")
            key = t[dst] if which == "l" else t[src]
            pre = "a" if which == "l" else "b"
            return pa.table({"k": pc.cast(key, pa.int64()),
                             f"{pre}_hi": pc.cast(t[src], pa.int64()),
                             f"{pre}_lo": pc.cast(t[dst], pa.int64())})
        return f

    left = edges.map_batches(proj("l"), batch_format="pyarrow")
    right = edges.map_batches(proj("r"), batch_format="pyarrow")
    joined = hash_join(left, right, key="k", num_buckets=_ROUND_BUCKETS,
                       how="inner")

    def pack(t: pa.Table) -> pa.Table:
        def p(hi, lo):
            h = pc.cast(t[hi], pa.int64()).to_numpy(zero_copy_only=False)
            lo_ = pc.cast(t[lo], pa.int64()) \
                .to_numpy(zero_copy_only=False)
            return pa.array((h.astype(np.int64) << 32) | lo_)

        return pa.table({"src": p("a_hi", "a_lo"),
                         "dst": p("b_hi", "b_lo")})

    return joined.map_batches(pack, batch_format="pyarrow")


def linerank(edges: ray.data.Dataset, src: str = "src", dst: str = "dst",
             iters: int = 5, damping: float = 0.85,
             ndigits: int = 9) -> ray.data.Dataset:
    """LineRank ('linerank' in the reference's Pregel list,
    arguments.py:187-188): PageRank over the line graph — pure
    composition of :func:`line_graph` and :func:`pagerank`, so every
    rounding/scale property of pagerank carries over. Returns
    Dataset(node, rank) where node is the packed edge id."""
    return pagerank(line_graph(edges, src, dst), iters=iters,
                    damping=damping, ndigits=ndigits)


@_kernel
def _minlab_block(idx, lab: np.ndarray, active: np.ndarray):
    """Forward min-label candidates over one block, restricted to
    edges whose BOTH endpoints are active (unassigned)."""
    si, di, _ = idx
    ok = active[si] & active[di]
    cand = np.full(len(lab), np.int64(1 << 62), np.int64)
    np.minimum.at(cand, di[ok], lab[si[ok]])
    return cand


@_kernel
def _backreach_block(idx, lab: np.ndarray, reach: np.ndarray,
                     active: np.ndarray):
    """Backward-reachability candidates: v reaches the root if some
    edge v->u has lab(v) == lab(u), u already reaching, both active."""
    si, di, _ = idx
    ok = active[si] & active[di] & (lab[si] == lab[di]) & reach[di]
    return np.unique(si[ok])


@_kernel
def _active_deg_block(idx, active: np.ndarray):
    """(in-degree, out-degree) partials over edges with BOTH endpoints
    active — feeds the trivial-SCC trim."""
    si, di, _ = idx
    ok = active[si] & active[di]
    n = len(active)
    return (np.bincount(di[ok], minlength=n),
            np.bincount(si[ok], minlength=n))


def scc(edges: ray.data.Dataset, src: str = "src",
        dst: str = "dst") -> ray.data.Dataset:
    """Strongly connected components ('scc' in the reference's Pregel
    list, arguments.py:187) via the Pregel-style forward-backward
    COLORING algorithm (Orzan): repeat — TRIM (peel active nodes with
    zero active in- or out-degree: each is its own SCC — without this,
    DAG-heavy graphs degrade to one SCC per color per round), then
    (1) propagate min node id forward to a fixpoint over the unassigned
    subgraph (coloring), (2) from each color's root (the node owning
    the min id), walk BACKWARD within its color; nodes that both carry
    the color and reach its root form one SCC — assign and remove.
    Every phase is a round over the indexed edge blocks
    (:class:`_IndexedEdges`; plan-A shape: driver label/frontier
    vectors, ~8 n-vectors, 64 bytes per node). Returns
    Dataset(node, scc_id) where scc_id = min node id in the component
    (so the result is partition- and order-invariant by construction).

    Past ``_DRIVER_STATE_BYTES`` it runs plan B
    (:func:`_scc_distributed`) — the same trim / min-label /
    backward-reach phases as Dataset join rounds. Every phase is a set
    operation or an integer min (order-invariant), so the two plans
    agree bit-for-bit."""
    edges = _bounded_blocks(edges)
    idx = _IndexedEdges(edges, src, dst, node_bytes=64)
    if not idx.fits:
        return _scc_distributed(edges, src, dst)
    nodes, n = idx.nodes, idx.n
    scc_id = np.full(n, -1, np.int64)
    active = np.ones(n, bool)

    while active.any():
        # ---- trim: peel trivial SCCs (no active in- or out-edges)
        while True:
            indeg = np.zeros(n, np.int64)
            outdeg = np.zeros(n, np.int64)
            for ip, op in idx.map(_active_deg_block, active):
                indeg += ip
                outdeg += op
            trivial = active & ((indeg == 0) | (outdeg == 0))
            if not trivial.any():
                break
            scc_id[trivial] = nodes[trivial]
            active &= ~trivial
        if not active.any():
            break
        # ---- forward min-label coloring to fixpoint
        lab = np.where(active, nodes, np.int64(1 << 62))
        while True:
            new = lab.copy()
            for part in idx.map(_minlab_block, lab, active):
                np.minimum(new, part, out=new)
            if np.array_equal(new, lab):
                break
            lab = new
        # ---- multi-pivot backward reachability within colors
        reach = active & (lab == nodes)      # each color's root
        while True:
            grew = False
            new = reach.copy()
            for part in idx.map(_backreach_block, lab, reach, active):
                before = new[part]
                new[part] = True
                if not before.all():
                    grew = True
            if not grew:
                break
            reach = new
        done = active & reach
        scc_id[done] = lab[done]
        active &= ~done

    return ray.data.from_arrow(pa.table({
        "node": pa.array(nodes), "scc_id": pa.array(scc_id)}))


def _distinct_col(ds: ray.data.Dataset, col: str) -> ray.data.Dataset:
    """Distinct int64 values of one column, as Dataset(node)."""
    from kgeng.ops.agg import distinct

    return distinct(ds.map_batches(
        lambda t: pa.table({"node": pc.cast(t[col], pa.int64())}),
        batch_format="pyarrow"), ["node"])


def _ren(ds: ray.data.Dataset, mapping: dict[str, str],
         keep: list[str]) -> ray.data.Dataset:
    """Project+rename helper for the join rounds below: emits ``keep``
    output columns, each sourced from ``mapping.get(name, name)``."""
    def f(t: pa.Table) -> pa.Table:
        return pa.table({k: pc.cast(t[mapping.get(k, k)], pa.int64())
                         for k in keep})
    return ds.map_batches(f, batch_format="pyarrow")


def _ijoin(left, right, key, how, left_cols, right_cols, **kw):
    """hash_join specialized for the all-int64 iterative plan-B rounds:
    explicit column NAMES and DTYPES so hash_join never schema-fetches
    a lazy input (on a plan with a sort/aggregate barrier that fetch
    EXECUTES the whole join chain once per call — measured 5-10x wall
    blowup on the scc/slpa round loops before this)."""
    from kgeng.ops.join import hash_join
    return hash_join(left, right, key=key, how=how,
                     left_cols=list(left_cols),
                     right_cols=list(right_cols),
                     left_types={c: "int64" for c in left_cols},
                     right_types={c: "int64" for c in right_cols}, **kw)


def _scc_distributed(edges: ray.data.Dataset, src: str,
                     dst: str) -> ray.data.Dataset:
    """Plan B SCC: the same trim / forward-min-label / backward-reach
    phases as plan A, with every n-vector living as a Dataset — only
    per-round row COUNTS (scalars) reach the driver. Each phase is a
    set operation (semi/anti joins) or an integer min over a
    ``union + groupby`` (order-invariant), so the result is
    bit-identical to plan A's. Node-count unbounded; per-task memory
    is one hash bucket's slice. Reference bar: server-side Pregel runs
    'scc' at any N (start_Pregel.py:28-57, arguments.py:187).

    Every per-round rebuild goes through ``repartition(8)`` before
    ``materialize()`` — each hash_join/groupby emits one block per
    bucket, so without it the block count COMPOUNDS round over round
    and the driver's per-bundle polling (~10 ms each) comes to dominate
    wall time (measured: ~0.5 s/round flat with it, 10 s+/round by
    round 50 without)."""
    live = mat(edges.map_batches(
        lambda t: pa.table({"s": pc.cast(t[src], pa.int64()),
                            "d": pc.cast(t[dst], pa.int64())}),
        batch_format="pyarrow"))
    active = _nodes_dataset(live, "s", "d")       # materialized
    assigned: ray.data.Dataset | None = None

    def assign(part: ray.data.Dataset) -> None:
        nonlocal assigned
        assigned = part if assigned is None else \
            mat(assigned.union(part).repartition(8))

    while active.count() > 0:
        # ---- trim loop: peel nodes with zero active in- OR out-degree
        # (each is its own SCC). 'both' = nodes appearing as BOTH a
        # source and a destination of a live edge; everything else in
        # the active set is trivial. Pure semi/anti joins — no nulls.
        while True:
            both = _ijoin(_distinct_col(live, "d"),
                             _distinct_col(live, "s"),
                             key="node", how="semi",
                             left_cols=["node"], right_cols=["node"])
            trivial = mat(_ijoin(active, both, key="node",
                                 how="anti", left_cols=["node"],
                                 right_cols=["node"])
                          .repartition(8))
            if trivial.count() == 0:
                break
            assign(mat(trivial.map_batches(
                lambda t: pa.table({"node": t["node"],
                                    "scc_id": t["node"]}),
                batch_format="pyarrow")))
            active = mat(_ijoin(active, trivial, key="node",
                                how="anti", left_cols=["node"],
                                right_cols=["node"])
                         .repartition(8))
            if active.count() == 0:
                break
            live = _ijoin(
                _ren(live, {"node": "s"}, ["node", "d"]), active,
                key="node", how="semi", left_cols=["node", "d"],
                right_cols=["node"])
            live = mat(_ren(
                _ijoin(_ren(live, {"node": "d", "d": "node"},
                               ["node", "d"]),
                          active, key="node", how="semi",
                          left_cols=["node", "d"],
                          right_cols=["node"]),
                {"s": "d", "d": "node"}, ["s", "d"])
                .repartition(8))
        if active.count() == 0:
            break

        # ---- forward min-label coloring to fixpoint (lab init = self)
        lab = mat(active.map_batches(
            lambda t: pa.table({"node": t["node"], "lab": t["node"]}),
            batch_format="pyarrow").repartition(8))
        while True:
            # cand[d] = min over live edges s->d of lab[s]
            cand = _ren(
                _ijoin(_ren(live, {"node": "s"}, ["node", "d"]),
                          lab, key="node", how="inner",
                          left_cols=["node", "d"],
                          right_cols=["node", "lab"]),
                {"node": "d"}, ["node", "lab"]) \
                .groupby("node").min("lab")
            cand = mat(cand.map_batches(
                lambda t: pa.table(
                    {"node": pc.cast(t["node"], pa.int64()),
                     "m": pc.cast(t["min(lab)"], pa.int64())})
                if "node" in t.column_names
                else pa.table({"node": pa.array([], pa.int64()),
                               "m": pa.array([], pa.int64())}),
                batch_format="pyarrow").repartition(8))
            changed = _ijoin(
                cand, lab, key="node", how="inner",
                left_cols=["node", "m"],
                right_cols=["node", "lab"]).map_batches(
                lambda t: pa.table({"chg": pc.cast(
                    pc.less(t["m"], t["lab"]), pa.int64())}),
                batch_format="pyarrow").sum("chg")
            if not changed:
                break
            # new lab = elementwise min(lab, cand): lab covers every
            # active node, so a union + groupby-min IS the min — and
            # avoids int-null columns from a left join entirely
            lab = mat(lab.union(_ren(cand, {"lab": "m"},
                                     ["node", "lab"]))
                .groupby("node").min("lab").map_batches(
                lambda t: pa.table(
                    {"node": pc.cast(t["node"], pa.int64()),
                     "lab": pc.cast(t["min(lab)"], pa.int64())})
                if "node" in t.column_names
                else pa.table({"node": pa.array([], pa.int64()),
                               "lab": pa.array([], pa.int64())}),
                batch_format="pyarrow").repartition(8))

        # ---- backward reachability within colors, from each root
        reach = mat(lab.map_batches(
            lambda t: pa.table({"node": t.filter(
                pc.equal(t["node"], t["lab"]))["node"]}),
            batch_format="pyarrow"))
        while True:
            # new reachers: live v->u with u reached and lab[v]==lab[u]
            hit = _ijoin(
                _ren(live, {"node": "d"}, ["s", "node"]), reach,
                key="node", how="semi", left_cols=["s", "node"],
                right_cols=["node"])
            hit = _ijoin(hit, lab, key="node", how="inner",
                            left_cols=["s", "node"],
                            right_cols=["node", "lab"])
            hit = _ijoin(_ren(hit, {"node": "s", "s": "node",
                                       "labd": "lab"},
                                 ["node", "labd"]),
                            lab, key="node", how="inner",
                            left_cols=["node", "labd"],
                            right_cols=["node", "lab"])
            # _ren normalizes the anti-join's pandas blocks back to
            # arrow (a union of mixed block types breaks the shuffle)
            newly = mat(_ren(_ijoin(
                _distinct_col(hit.map_batches(
                    lambda t: t.filter(pc.equal(t["lab"], t["labd"])),
                    batch_format="pyarrow"), "node"),
                reach, key="node", how="anti", left_cols=["node"],
                right_cols=["node"]), {}, ["node"]))
            if newly.count() == 0:
                break
            reach = mat(reach.union(newly).repartition(8))

        # assign every reached node its color; shrink active + live
        assign(mat(_ren(_ijoin(reach, lab, key="node", how="inner",
                               left_cols=["node"],
                               right_cols=["node", "lab"]),
                        {"scc_id": "lab"}, ["node", "scc_id"])))
        active = mat(_ijoin(active, reach, key="node",
                            how="anti", left_cols=["node"],
                            right_cols=["node"])
                     .repartition(8))
        if active.count() == 0:
            break
        live = _ijoin(
            _ren(live, {"node": "s"}, ["node", "d"]), active,
            key="node", how="semi", left_cols=["node", "d"],
            right_cols=["node"])
        live = mat(_ren(
            _ijoin(_ren(live, {"node": "d", "d": "node"},
                           ["node", "d"]),
                      active, key="node", how="semi",
                      left_cols=["node", "d"], right_cols=["node"]),
            {"s": "d", "d": "node"}, ["s", "d"])
            .repartition(8))

    if assigned is None:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "scc_id": pa.array([], pa.int64())}))
    return assigned


@_kernel
def _slpa_block(idx, nodes: np.ndarray, mem: np.ndarray, r: int):
    """One SLPA speak step over a block: edge u->v delivers one label
    from speaker u's memory (slot chosen by a partition-invariant hash
    of (round, u_id, v_id) over the r filled slots). Returns packed
    (listener_pos << 32 | label_pos, count) distinct pairs."""
    from kgeng.ops.agg import _splitmix64

    si, di, _ = idx
    if not len(si):
        return (np.zeros(0, np.int64), np.zeros(0, np.int64))
    h = _splitmix64(nodes[si].astype(np.uint64)
                    ^ (nodes[di].astype(np.uint64)
                       * np.uint64(0x9E3779B97F4A7C15))
                    ^ np.uint64(r))
    slot = (h % np.uint64(r)).astype(np.int64)
    lab = mem[si, slot]
    pack = (di.astype(np.int64) << 32) | lab.astype(np.int64)
    uniq, cnt = np.unique(pack, return_counts=True)
    return (uniq, cnt.astype(np.int64))


def slpa(edges: ray.data.Dataset, src: str = "src", dst: str = "dst",
         rounds: int = 10, threshold: float = 0.2) -> ray.data.Dataset:
    """SLPA overlapping community detection ('slpa' in the reference's
    Pregel list, arguments.py:187-188), deterministic variant: the
    speaker's memory slot is chosen by a hash of (round, speaker id,
    listener id) — partition/order invariant, so results are stable
    across cluster shapes (pinned rather than SQL-checked: the
    algorithm is inherently non-relational). Plan-A shape: the n x
    (rounds+1) int64 label-memory matrix is driver-held; each speak
    step is one round over the indexed edge blocks
    (:class:`_IndexedEdges`); per-round driver ingest is the distinct
    (listener, label) pair set (<= E, vocabulary-bounded in practice).

    Returns Dataset(node, primary_label, n_communities, communities)
    where communities are the labels (node ids) held in >= threshold
    of memory, sorted, '|'-joined.

    When the memory matrix exceeds ``_DRIVER_STATE_BYTES`` it runs
    plan B (:func:`_slpa_distributed`): the memory matrix lives as wide
    int64 columns on a Dataset, each speak round is one edge-memory
    join + one (listener, label) count shuffle + one bucketed argmax
    pass. The slot hash, counts and (count desc, label asc) tiebreaks
    are identical, so the plans agree bit-for-bit."""
    edges = _bounded_blocks(edges)
    idx = _IndexedEdges(edges, src, dst, node_bytes=8 * (rounds + 1))
    if not idx.fits:
        return _slpa_distributed(edges, src, dst, rounds, threshold)
    nodes, n = idx.nodes, idx.n
    mem = np.zeros((n, rounds + 1), np.int64)
    mem[:, 0] = np.arange(n)

    for r in range(1, rounds + 1):
        packs, cnts = _concat_pairs(idx.map(_slpa_block, nodes,
                                            mem[:, :r], r))
        new_col = np.arange(n)            # silent listeners keep self
        if len(packs):
            uniq, inv = np.unique(packs, return_inverse=True)
            tot = np.zeros(len(uniq), np.int64)
            np.add.at(tot, inv, cnts)
            li = (uniq >> 32).astype(np.int64)
            lab = (uniq & np.int64((1 << 32) - 1)).astype(np.int64)
            # per-listener argmax, tiebreak smallest label: sort by
            # (listener, -count, label), take first per listener
            order = np.lexsort((lab, -tot, li))
            li_s, lab_s = li[order], lab[order]
            first = np.ones(len(li_s), bool)
            first[1:] = li_s[1:] != li_s[:-1]
            new_col[li_s[first]] = lab_s[first]
        mem[:, r] = new_col

    # post-process, vectorized: one flat (node, label) count pass over
    # the whole memory matrix, then per-node argmax / threshold filter
    need = int(np.ceil(threshold * (rounds + 1)))
    rows = np.repeat(np.arange(n, dtype=np.int64), rounds + 1)
    pack = (rows << 32) | mem.reshape(-1)
    uniq, cnt = np.unique(pack, return_counts=True)
    ri = (uniq >> 32).astype(np.int64)
    lab = (uniq & np.int64((1 << 32) - 1)).astype(np.int64)
    order = np.lexsort((lab, -cnt, ri))      # per row: count desc, label asc
    ri_s, lab_s = ri[order], lab[order]
    first = np.ones(len(ri_s), bool)
    first[1:] = ri_s[1:] != ri_s[:-1]
    # ri_s is lexsort-primary so ri_s[first] is already 0..n-1 in order
    prim = (nodes[lab_s[first]] if len(ri_s)
            else np.zeros(0, np.int64))
    keepm = cnt >= need
    ncom = np.bincount(ri[keepm], minlength=n).astype(np.int64)
    # communities string: join only the kept labels (few per node)
    kr, kl = ri[keepm], nodes[lab[keepm]]
    o2 = np.lexsort((kl, kr))
    kr, kl = kr[o2], kl[o2]
    bounds = np.searchsorted(kr, np.arange(n + 1))
    coms = ["|".join(map(str, kl[bounds[i]:bounds[i + 1]]))
            for i in range(n)]
    return ray.data.from_arrow(pa.table({
        "node": pa.array(nodes),
        "primary_label": pa.array(prim),
        "n_communities": pa.array(ncom),
        "communities": pa.array(coms, pa.string()),
    }))


def _slpa_post_block(t: pa.Table, rounds: int,
                     threshold: float) -> pa.Table:
    """Row-local SLPA post-processing over one memory block: per node,
    count each label's occurrences across the rounds+1 memory slots,
    pick the (count desc, label asc) winner, threshold-filter the
    community set. Shared count/tiebreak logic with plan A's driver
    pass (labels are node ids here, positions there — nodes[] is
    sorted, so the orders coincide)."""
    n, R = len(t), rounds + 1
    node = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    M = np.stack([t[f"m{i}"].to_numpy(zero_copy_only=False)
                  .astype(np.int64) for i in range(R)], axis=1)
    rows = np.repeat(np.arange(n, dtype=np.int64), R)
    labs = M.reshape(-1)
    order = np.lexsort((labs, rows))
    rs, ls = rows[order], labs[order]
    newrun = np.ones(len(rs), bool)
    newrun[1:] = (rs[1:] != rs[:-1]) | (ls[1:] != ls[:-1])
    starts = np.flatnonzero(newrun)
    cnt = np.diff(np.append(starts, len(rs)))
    ri, li = rs[starts], ls[starts]
    o2 = np.lexsort((li, -cnt, ri))
    ri2, li2 = ri[o2], li[o2]
    first = np.ones(len(ri2), bool)
    first[1:] = ri2[1:] != ri2[:-1]
    prim = np.empty(n, np.int64)
    prim[ri2[first]] = li2[first]
    need = int(np.ceil(threshold * R))
    keep = cnt >= need
    kr, kl = ri[keep], li[keep]
    o3 = np.lexsort((kl, kr))
    kr, kl = kr[o3], kl[o3]
    ncom = np.bincount(kr, minlength=n).astype(np.int64)
    bounds = np.searchsorted(kr, np.arange(n + 1))
    coms = ["|".join(map(str, kl[bounds[i]:bounds[i + 1]]))
            for i in range(n)]
    return pa.table({
        "node": pa.array(node),
        "primary_label": pa.array(prim),
        "n_communities": pa.array(ncom),
        "communities": pa.array(coms, pa.string())})


def _slpa_distributed(edges: ray.data.Dataset, src: str, dst: str,
                      rounds: int, threshold: float) -> ray.data.Dataset:
    """Plan B SLPA: the n x (rounds+1) label memory lives as wide int64
    columns on a Dataset (labels are node IDS, not positions — the
    node array is sorted, so count/tiebreak orders match plan A's
    position space exactly). Each round: (1) one hash join ships each
    speaker's current memory row (<= rounds+1 int64s) to its out-edges
    and picks the slot by the SAME (round, speaker id, listener id)
    splitmix64 hash as plan A's ``_slpa_block``; (2) one
    (listener, label) groupby-count; (3) one coarse-bucketed pandas
    argmax pass ((count desc, label asc) — identical tiebreak);
    (4) one left join writes the new memory column (silent listeners
    keep self). Only scalars reach the driver. Node-count unbounded.
    Reference bar: server-side Pregel runs 'slpa' at any N
    (start_Pregel.py:28-57, arguments.py:187-188)."""
    from kgeng.ops.agg import _splitmix64
    e = mat(edges.map_batches(
        lambda t: pa.table({"s": pc.cast(t[src], pa.int64()),
                            "d": pc.cast(t[dst], pa.int64())}),
        batch_format="pyarrow"))
    mem = mat(_nodes_dataset(e, "s", "d").map_batches(
        lambda t: pa.table({"node": t["node"], "m0": t["node"]}),
        batch_format="pyarrow").repartition(8))

    for r in range(1, rounds + 1):
        mcols = [f"m{i}" for i in range(r)]

        def speak(t: pa.Table, _r=r, _mc=tuple(mcols)) -> pa.Table:
            sid = t["node"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            did = pc.cast(t["d"], pa.int64()) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            h = _splitmix64(sid.astype(np.uint64)
                            ^ (did.astype(np.uint64)
                               * np.uint64(0x9E3779B97F4A7C15))
                            ^ np.uint64(_r))
            slot = (h % np.uint64(_r)).astype(np.int64)
            M = np.stack([t[c].to_numpy(zero_copy_only=False)
                          .astype(np.int64) for c in _mc], axis=1)
            lab = np.take_along_axis(M, slot[:, None], 1)[:, 0]
            return pa.table({"node": pa.array(did),
                             "lab": pa.array(lab)})

        spoken = _ijoin(
            _ren(e, {"node": "s"}, ["node", "d"]), mem, key="node",
            how="inner", left_cols=["node", "d"],
            right_cols=["node"] + mcols) \
            .map_batches(speak, batch_format="pyarrow")
        counts = spoken.groupby(["node", "lab"]).count()

        def bkt(t: pa.Table) -> pa.Table:
            if "node" not in t.column_names:
                return pa.table({"node": pa.array([], pa.int64()),
                                 "lab": pa.array([], pa.int64()),
                                 "c": pa.array([], pa.int64()),
                                 "__b": pa.array([], pa.int64())})
            node = pc.cast(t["node"], pa.int64())
            b = _splitmix64(node.to_numpy(zero_copy_only=False)
                            .astype(np.uint64)) \
                % np.uint64(_ROUND_BUCKETS)
            return pa.table({"node": node,
                             "lab": pc.cast(t["lab"], pa.int64()),
                             "c": pc.cast(t["count()"], pa.int64()),
                             "__b": pa.array(b.astype(np.int64))})

        def best(df: "pd.DataFrame") -> pa.Table:
            df = df.sort_values(["node", "c", "lab"],
                                ascending=[True, False, True])
            df = df.drop_duplicates("node", keep="first")
            return pa.table({
                "node": pa.array(df["node"].to_numpy(np.int64)),
                "w": pa.array(df["lab"].to_numpy(np.int64))})

        winners = counts.map_batches(bkt, batch_format="pyarrow") \
            .groupby("__b").map_groups(best, batch_format="pandas")

        def upd(t: pa.Table, _col=f"m{r}") -> pa.Table:
            w = t["w"] if "w" in t.column_names \
                else pa.nulls(len(t), pa.int64())
            if pa.types.is_floating(w.type):
                # unmatched rows of a pandas left merge surface as NaN
                w = pc.if_else(pc.is_nan(w),
                               pa.nulls(len(t), pa.float64()), w)
            w = pc.cast(w, pa.int64())
            out = {c: t[c] for c in t.column_names if c != "w"}
            out[_col] = pc.coalesce(w, pc.cast(t["node"], pa.int64()))
            return pa.table(out)

        mem = mat(_ijoin(mem, winners, key="node", how="left",
                         left_cols=["node"] + mcols,
                         right_cols=["node", "w"])
                  .map_batches(upd, batch_format="pyarrow")
                  .repartition(8))

    return mem.map_batches(
        lambda t: _slpa_post_block(t, rounds, threshold),
        batch_format="pyarrow")


# --------------------------------------- label propagation (communities)

@_kernel
def _lpa_block(idx, labpos: np.ndarray, n: int):
    """Per-block (dst_pos, src_label_pos) pair counts, packed as
    dst*n + labpos (n-bounded by the plan-A budget, so the product
    stays well inside int64). Returns (packed keys, counts)."""
    si, di, _ = idx
    packed = di.astype(np.int64) * n + labpos[si]
    un, cn = np.unique(packed, return_counts=True)
    return un, cn.astype(np.int64)


def label_propagation_communities(edges: ray.data.Dataset,
                                  src: str = "src", dst: str = "dst",
                                  rounds: int = 4) -> ray.data.Dataset:
    """Synchronous label-propagation community detection —
    'labelpropagation' in the reference's Pregel algorithm list
    (arguments.py:187-188), run server-side there. Labels start as
    node ids; each round every node adopts the most frequent label
    among its IN-neighbors (edge rows count with multiplicity; ties
    break toward the smallest label); a node with no in-edge keeps its
    label. FIXED ``rounds`` — synchronous LPA can oscillate on
    bipartite structure, so a fixed round count is what makes the
    result deterministic and SQL-replayable
    (queries.labelprop_oracle_sql unrolls the same rounds).

    Plan A (the pagerank-plan-A shape): edge blocks stage once as
    :class:`_IndexedEdges`; each round runs one kernel per block
    computing packed (dst, src_label) pair counts (in-process at or
    below ``_LOCAL_EDGES`` edges, raw tasks above), and the driver
    merges the <= E pair partials with one sort+reduceat and an argmax
    lexsort. A full Dataset execution per round (joins + 2-key groupby
    + bucketed top-1) measured ~60 s of pure fixed scheduling per round
    at bench scale for milliseconds of numpy. The driver holds three
    n-vectors and the round's pair stream with its sorted copy (24
    bytes per node, 32 per edge).

    Plan B (past ``_DRIVER_STATE_BYTES``): fully distributed dataset
    rounds — per round one hash join of labels onto edge sources,
    combiner-style per-block (node,label) counts, a 2-key groupby sum,
    the bucketed top-1 argmax, and a left join carrying no-in-edge
    nodes. Only (node,label,count) int64 rows ever shuffle."""
    edges = _bounded_blocks(edges)
    ie = _IndexedEdges(edges, src, dst, node_bytes=24, edge_bytes=32)
    if not ie.fits:
        return _label_propagation_distributed(
            _ren(edges, {"src": src, "dst": dst}, ["src", "dst"])
            .materialize(), rounds)
    n = ie.n
    if n == 0:
        return ray.data.from_arrow(pa.table(
            {"node": pa.array([], pa.int64()),
             "label": pa.array([], pa.int64())}))
    labpos = np.arange(n, dtype=np.int64)
    for _ in range(rounds):
        keys, cnts = _concat_pairs(ie.map(_lpa_block, labpos, n))
        if keys.size == 0:
            break
        order = np.argsort(keys, kind="stable")
        keys, cnts = keys[order], cnts[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        ks = keys[starts]
        cs = np.add.reduceat(cnts, starts)
        dsts = ks // n
        lp = ks % n
        # argmax per dst, ties to the smallest label (nodes are sorted
        # ascending, so position order == value order)
        o2 = np.lexsort((lp, -cs, dsts))
        d_sorted = dsts[o2]
        first = np.flatnonzero(np.r_[True, d_sorted[1:] != d_sorted[:-1]])
        new = labpos.copy()
        new[d_sorted[first]] = lp[o2][first]
        labpos = new
    return ray.data.from_arrow(pa.table(
        {"node": pa.array(ie.nodes),
         "label": pa.array(ie.nodes[labpos])}))


def _label_propagation_distributed(eproj: ray.data.Dataset,
                                   rounds: int) -> ray.data.Dataset:
    """Plan B: see :func:`label_propagation_communities`."""
    import pandas as pd  # noqa: F401

    from kgeng.ops.rank import top_k_per_group
    nodes = _nodes_dataset(eproj, "src", "dst")
    lab = nodes.map_batches(
        lambda t: pa.table({"node": t["node"], "label": t["node"]}),
        batch_format="pyarrow").materialize()

    for _ in range(rounds):
        # labels onto edge sources: (dst, label) one row per edge
        contrib = _ijoin(_ren(eproj, {"node": "src"}, ["node", "dst"]),
                         lab, key="node", how="inner",
                         left_cols=["node", "dst"],
                         right_cols=["node", "label"])

        def cnt_partial(t: pa.Table) -> pa.Table:
            g = pa.table({"node": t["dst"], "label": t["label"]}) \
                .group_by(["node", "label"]).aggregate([([],
                                                         "count_all")])
            return g.rename_columns(["node", "label", "c"])

        from ray.data.aggregate import Sum
        counts = contrib.map_batches(cnt_partial,
                                     batch_format="pyarrow") \
            .groupby(["node", "label"]) \
            .aggregate(Sum("c", alias_name="c"))
        top1 = top_k_per_group(counts, key="node", value="c", k=1,
                               tie_breakers=["label"], descending=True)
        new = _ijoin(lab, _ren(top1, {"new": "label"}, ["node", "new"]),
                     key="node", how="left",
                     left_cols=["node", "label"],
                     right_cols=["node", "new"])

        def carry(t: pa.Table) -> pa.Table:
            # left-join nulls float the int column; coalesce + recast
            new_c = pc.coalesce(pc.cast(t["new"], pa.float64()),
                                pc.cast(t["label"], pa.float64()))
            return pa.table({"node": pc.cast(t["node"], pa.int64()),
                             "label": pc.cast(new_c, pa.int64())})

        lab = new.map_batches(carry, batch_format="pyarrow") \
            .materialize()

    return lab


# ----------------------------------------------- bounded harmonic (exact)

def _harmonic_driver(se: np.ndarray, de: np.ndarray, max_hops: int,
                     lcm: int) -> tuple[np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray]:
    """Plan A: dense vectorized multi-source BFS on the driver. Rows of
    the (V, V) boolean frontier are BFS roots; one round is a gather of
    frontier columns at edge sources + a maximum.reduceat over
    dst-grouped edges — numpy throughout, no per-node Python. Returns
    (sorted node ids, integer LCM//d harmonic sums, reached counts
    excluding self, integer distance sums) — the last two feed
    :func:`bounded_closeness` off the same BFS."""
    nodes = np.unique(np.concatenate([se, de]))
    V = len(nodes)
    si = np.searchsorted(nodes, se)
    di = np.searchsorted(nodes, de)
    # dedup edges, group by dst
    pk = di.astype(np.int64) * V + si
    pk = np.unique(pk)
    di_s, si_s = pk // V, pk % V
    grp_starts = np.flatnonzero(np.r_[True, di_s[1:] != di_s[:-1]])
    grp_dst = di_s[grp_starts]
    visited = np.zeros((V, V), bool)
    ar = np.arange(V)
    visited[ar, ar] = True
    frontier = visited.copy()
    s60 = np.zeros(V, np.int64)
    cnt = np.zeros(V, np.int64)
    sd = np.zeros(V, np.int64)
    for d in range(1, max_hops + 1):
        if not frontier.any():
            break
        red = np.maximum.reduceat(frontier[:, si_s], grp_starts, axis=1)
        new = np.zeros((V, V), bool)
        new[:, grp_dst] = red
        new &= ~visited
        visited |= new
        frontier = new
        n_new = new.sum(1)
        s60 += (lcm // d) * n_new
        cnt += n_new
        sd += d * n_new
    return nodes, s60, cnt, sd


def bounded_harmonic(edges: ray.data.Dataset, src: str = "src",
                     dst: str = "dst", max_hops: int = 6,
                     ndigits: int = 6) -> ray.data.Dataset:
    """EXACT harmonic centrality within ``max_hops`` (directed):
    harmonic(u) = sum over v != u reachable in d <= max_hops hops of
    1/d, with d the true shortest distance.

    The score is accumulated as the INTEGER sum of LCM(1..max_hops)//d
    (every term divides the LCM exactly), so partial-sum order across
    partitions can never move a float bit; both engines perform the
    same final double division + half-away round, keeping the
    recursive-CTE oracle bit-exact.

    Two plans (:func:`_bounded_bfs_plan` picks one):

    - plan A: dense vectorized multi-source BFS on the driver — V^2
      bits of frontier, one reduceat sweep per round. Right for the
      bounded-subgraph sizes this exact op is meant for.
    - plan B: all-pairs BFS as dataset rounds — the (root, node)
      frontier hash-joins the edge list, first-arrival depth kept by a
      (root, node) min-groupby, next frontier = rows whose depth equals
      the round number. Convergence is read from the MATERIALIZED
      row-count metadata (no extra per-round count execution). State
      is O(reachable pairs): inherently quadratic, so this exact op is
      the VERIFY-stage twin of ``effective_closeness`` (HyperBall) —
      the sketch is the 100-TB path."""
    import math

    lcm = math.lcm(*range(1, max_hops + 1))
    kind, payload = _bounded_bfs_plan(edges, src, dst, max_hops, lcm,
                                      "bounded_harmonic")
    if kind == "driver":
        nodes, s60, _cnt, _sd = payload
        h = pc.round(
            pc.divide(pc.cast(pa.array(s60), pa.float64()),
                      float(lcm)), ndigits=ndigits,
            round_mode="half_towards_infinity")
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nodes), "harmonic": h}))
    visited = payload

    def score(t: pa.Table) -> pa.Table:
        d = t["dist"].to_numpy(zero_copy_only=False)
        s = np.where(d > 0, lcm // np.maximum(d, 1), 0).astype(np.int64)
        return pa.table({"node": t["root"], "s": pa.array(s)})

    total = visited.map_batches(score, batch_format="pyarrow") \
        .groupby("node").sum("s")

    def finish(t: pa.Table) -> pa.Table:
        t = t.rename_columns(["node", "s"])
        h = pc.round(pc.divide(pc.cast(t["s"], pa.float64()),
                               float(lcm)), ndigits=ndigits,
                     round_mode="half_towards_infinity")
        return pa.table({"node": t["node"], "harmonic": h})

    return total.map_batches(finish, batch_format="pyarrow")


def bounded_closeness(edges: ray.data.Dataset, src: str = "src",
                      dst: str = "dst", max_hops: int = 6,
                      ndigits: int = 6) -> ray.data.Dataset:
    """EXACT closeness centrality within ``max_hops`` (directed):
    closeness(u) = reached / sum of true shortest distances, over nodes
    v != u reachable in d <= max_hops hops; 0 when nothing is reached.
    Both numerator and denominator accumulate as integers, so partial
    order can never move a float bit and the recursive-CTE oracle is
    bit-exact after the shared double division + half-away round. The
    exact verify-stage twin of :func:`effective_closeness` (HyperBall),
    same plan A/B convention as :func:`bounded_harmonic` (shared
    machinery: `_bounded_bfs_plan`)."""
    kind, payload = _bounded_bfs_plan(edges, src, dst, max_hops, 1,
                                      "bounded_closeness")
    if kind == "driver":
        nodes, _s, cnt, sd = payload
        with np.errstate(divide="ignore", invalid="ignore"):
            clos = np.where(sd > 0, cnt / np.maximum(sd, 1), 0.0)
        c = pc.round(pa.array(clos), ndigits=ndigits,
                     round_mode="half_towards_infinity")
        return ray.data.from_arrow(pa.table({
            "node": pa.array(nodes), "closeness": c}))
    visited = payload

    def score(t: pa.Table) -> pa.Table:
        d = t["dist"].to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t["root"],
            "c": pa.array((d > 0).astype(np.int64)),
            "s": pa.array(d)})

    from ray.data.aggregate import Sum
    total = visited.map_batches(score, batch_format="pyarrow") \
        .groupby("node").aggregate(Sum("c", alias_name="c"),
                                   Sum("s", alias_name="s"))

    def finish(t: pa.Table) -> pa.Table:
        c = pc.cast(t["c"], pa.float64()).to_numpy(zero_copy_only=False)
        s = pc.cast(t["s"], pa.float64()).to_numpy(zero_copy_only=False)
        clos = np.where(s > 0, c / np.maximum(s, 1.0), 0.0)
        out = pc.round(pa.array(clos), ndigits=ndigits,
                       round_mode="half_towards_infinity")
        return pa.table({"node": pc.cast(t["node"], pa.int64()),
                         "closeness": out})

    return total.map_batches(finish, batch_format="pyarrow")


def _bounded_bfs_plan(edges: ray.data.Dataset, src: str, dst: str,
                      max_hops: int, lcm: int, opname: str):
    """Shared plan selection + BFS core for the exact bounded
    centralities. Returns ``('driver', (nodes, s_lcm, cnt, sd))`` from
    the dense driver BFS (:func:`_harmonic_driver`) when its state
    fits ``_DRIVER_STATE_BYTES``, else ``('pairs', visited)`` where
    ``visited`` is the distributed Dataset(root, node, dist) of all
    shortest-path facts within ``max_hops``. Plan A holds the pulled
    edges (16 bytes each), three V x V boolean matrices and one V x E
    boolean gather per round: 3V^2 + V*E bytes."""
    from kgeng.ops.join import hash_join

    proj = edges.select_columns([src, dst])

    n_edges = proj.count()
    if 16 * n_edges <= _DRIVER_STATE_BYTES:
        t = pa.concat_tables(
            ray.get(b) for b in proj.to_arrow_refs())
        se = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        de = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        v = len(np.unique(np.concatenate([se, de])))
        if 3 * v * v + v * n_edges <= _DRIVER_STATE_BYTES:
            return "driver", _harmonic_driver(se, de, max_hops, lcm)

    def seed(t: pa.Table) -> pa.Table:
        ids = np.unique(np.concatenate([
            t[src].to_numpy(zero_copy_only=False).astype(np.int64),
            t[dst].to_numpy(zero_copy_only=False).astype(np.int64)]))
        # node ids travel through hash_join, whose nullable-int
        # convention floats the right side: ids >= 2^53 would round
        # silently (same hazard line_graph guards loudly)
        if len(ids) and (ids.max() >= (1 << 53) or ids.min() < 0):
            raise ValueError(
                f"{opname} requires node ids in [0, 2^53): "
                "larger ids corrupt in the join's float64 transit — "
                "remap ids first")
        return pa.table({"root": pa.array(ids), "node": pa.array(ids),
                         "dist": pa.array(np.zeros(len(ids), np.int64))})

    # per-block unique -> global distinct -> (n, n, 0) seed rows
    visited = proj.map_batches(seed, batch_format="pyarrow") \
        .groupby(["root", "node"]).min("dist")
    visited = visited.map_batches(
        lambda t: t.rename_columns(["root", "node", "dist"]),
        batch_format="pyarrow").materialize()
    frontier = visited

    def renamed_edges(t: pa.Table) -> pa.Table:
        return pa.table({"node": pc.cast(t[src], pa.int64()),
                         "nxt": pc.cast(t[dst], pa.int64())})

    hop = proj.map_batches(renamed_edges, batch_format="pyarrow") \
        .materialize()

    # convergence reads MATERIALIZED row-count metadata: a round that
    # adds no (root, node) pair leaves the count unchanged, and counting
    # a materialized dataset launches no execution (unlike counting the
    # lazy frontier filter, which re-ran the whole plan every round)
    prev_rows = visited.count()
    for t_round in range(1, max_hops + 1):
        j = hash_join(frontier.select_columns(["root", "node"]), hop,
                      key="node", num_buckets=_BFS_BUCKETS,
                      left_cols=["root", "node"],
                      right_cols=["node", "nxt"])

        def step(t: pa.Table, _d=t_round) -> pa.Table:
            return pa.table({
                "root": pc.cast(t["root"], pa.int64()),
                "node": pc.cast(t["nxt"], pa.int64()),
                "dist": pa.array(np.full(len(t), _d, np.int64))})

        cand = j.map_batches(step, batch_format="pyarrow")
        merged = visited.union(cand).groupby(["root", "node"]) \
            .min("dist")
        # map_batches rename (Dataset.rename_columns breaks on the
        # pandas blocks a groupby emits) + repartition: iterative
        # union/groupby loops otherwise double the block count per round
        visited = mat(merged.map_batches(
            lambda t: t.rename_columns(["root", "node", "dist"]),
            batch_format="pyarrow").repartition(_BFS_BUCKETS))
        rows = visited.count()
        if rows == prev_rows:
            break
        prev_rows = rows
        frontier = visited.filter(
            expr=f"dist == {t_round}")

    return "pairs", visited


# ------------------------------------------------------------ triangles

def _mix2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix of two int64 columns (bucketing only —
    collisions just co-locate more rows, never corrupt results)."""
    a = u.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    b = v.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    x = a ^ (b >> np.uint64(29)) ^ (b << np.uint64(17))
    return (x * np.uint64(0xD6E8FEB86659FD93))


def _segment_pairs(lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (i < j) index pairs WITHIN each segment of a concatenated
    array whose segment lengths are ``lens`` — fully vectorized (no
    Python loop over segments). Returns (first, second) global index
    arrays of length sum(C(len, 2))."""
    lens = np.asarray(lens, dtype=np.int64)
    if lens.size == 0 or int(lens.sum()) == 0:
        z = np.zeros(0, np.int64)
        return z, z
    ends = np.cumsum(lens)
    total = int(ends[-1])
    # partners remaining after each element inside its own segment
    rem = np.repeat(ends, lens) - np.arange(total, dtype=np.int64) - 1
    fi = np.repeat(np.arange(total, dtype=np.int64), rem)
    if fi.size == 0:
        return fi, fi.copy()
    off = (np.arange(fi.size, dtype=np.int64)
           - np.repeat(np.cumsum(rem) - rem, rem))
    return fi, fi + off + 1


def _canonical_undirected(edges: ray.data.Dataset, src: str,
                          dst: str) -> ray.data.Dataset:
    """Canonical undirected edge set as (u < v) int64 pairs: loops
    dropped, duplicates/reversals collapsed — one coarse-bucket shuffle
    of id pairs with a per-bucket ``lexsort`` dedup."""

    def canon(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        keep = u != v
        u, v = u[keep], v[keep]
        bkt = (_mix2(u, v) % np.uint64(_BUCKETS)).astype(np.int32)
        return pa.table({"u": pa.array(u), "v": pa.array(v),
                         "bkt": pa.array(bkt)})

    def dedup_group(df: pd.DataFrame) -> pa.Table:
        u = df["u"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        keep = np.ones(u.size, bool)
        keep[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        return pa.table({"u": pa.array(u[keep]), "v": pa.array(v[keep])})

    return edges.map_batches(canon, batch_format="pyarrow") \
        .groupby("bkt").map_groups(dedup_group, batch_format="pandas")


def _undirected_degrees(e: ray.data.Dataset) -> ray.data.Dataset:
    """(node, deg) from a canonical (u, v) edge set.

    Plan A: per-block partial endpoint counts (vocabulary-bounded —
    never more rows than min(2 x block edges, node count) per block)
    stream to the driver and reduce with one argsort + ``reduceat``
    (24x faster than the groupby at sf0.1: the sort shuffle dominates
    a 20k-node reduce). Aborts to the distributed groupby (plan B)
    the moment the pulled partials (16 bytes a row) exceed
    ``_DRIVER_STATE_BYTES`` — one wasted partial pass, never an OOM."""

    def deg_part(t: pa.Table) -> pa.Table:
        n = np.concatenate([t["u"].to_numpy(zero_copy_only=False),
                            t["v"].to_numpy(zero_copy_only=False)])
        un, cn = np.unique(n, return_counts=True)
        return pa.table({"node": pa.array(un.astype(np.int64)),
                         "cnt": pa.array(cn.astype(np.int64))})

    parts = e.map_batches(deg_part, batch_format="pyarrow")
    ns, cs, total = [], [], 0
    for b in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        total += len(b)
        if 16 * total > _DRIVER_STATE_BYTES:
            return parts.groupby("node").sum("cnt") \
                .map_batches(lambda t: t.rename_columns(["node", "deg"]),
                             batch_format="pyarrow")
        ns.append(b["node"].to_numpy(zero_copy_only=False))
        cs.append(b["cnt"].to_numpy(zero_copy_only=False))
    if total == 0:
        return ray.data.from_arrow(pa.table(
            {"node": pa.array([], pa.int64()),
             "deg": pa.array([], pa.int64())}))
    n = np.concatenate(ns)
    c = np.concatenate(cs)
    order = np.argsort(n, kind="stable")
    n, c = n[order], c[order]
    starts = np.flatnonzero(np.r_[True, n[1:] != n[:-1]])
    deg = np.add.reduceat(c, starts)
    return ray.data.from_arrow(pa.table(
        {"node": pa.array(n[starts]),
         "deg": pa.array(deg.astype(np.int64))}))


@_kernel
def _tri_wedge_chunk(pe: np.ndarray, lens: np.ndarray,
                     pivots: np.ndarray, bsl: np.ndarray):
    """Wedge enumeration + packed-edge closure for one chunk of pivot
    segments (fast plan A): ``bsl`` is the chunk's slice of the
    (deg, id)-sorted neighbor array, ``pe`` the broadcast sorted packed
    canonical edge set. Returns the chunk's (node, count) partial."""
    fi, se = _segment_pairs(lens)
    if fi.size == 0:
        z = np.zeros(0, np.int64)
        return z, z
    pv = np.repeat(pivots, lens)[fi]
    vv = bsl[fi]
    ww = bsl[se]
    pk = (np.minimum(vv, ww) << 32) | np.maximum(vv, ww)
    idx = np.searchsorted(pe, pk)
    hit = (idx < pe.size) & (pe[np.minimum(idx, pe.size - 1)] == pk)
    nn = np.concatenate([vv[hit], ww[hit], pv[hit]])
    un, cn = np.unique(nn, return_counts=True)
    return un, cn.astype(np.int64)


def _canon_block(a: np.ndarray,
                 b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (u < v) pairs of one block of edges: loops dropped,
    duplicates and reversals collapsed, sorted by (u, v) — the same
    pre-reduction _canonical_undirected fuses before its shuffle."""
    a, b = a.astype(np.int64), b.astype(np.int64)
    u = np.minimum(a, b)
    v = np.maximum(a, b)
    keep = u != v
    u, v = u[keep], v[keep]
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    keep = np.ones(u.size, bool)
    keep[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return u[keep], v[keep]


def _packed_edges(edges: ray.data.Dataset, src: str, dst: str,
                  edge_bytes: int, node_bytes: int):
    """The triangle kernels' plan choice. Each edge block is reduced to
    its canonical (u < v) pairs (_canon_block); ``m`` counts them (an
    upper bound on the canonical edge count). Plan A holds the
    canonical edge set on the driver as one sorted packed
    (u << 32 | v) int64 array ``pe`` plus its (node, degree) arrays,
    with ``edge_bytes`` per edge and ``node_bytes`` per node of driver
    state. It runs when the pairs (16 bytes each) and then that state
    fit ``_DRIVER_STATE_BYTES`` and every id packs into [0, 2^31).

    Returns ``(m, pe, nodes, deg, None)`` for plan A and
    ``(m, None, None, None, proj)`` for plan B, ``proj`` a Dataset of
    the per-block (u, v) pairs; a graph without a non-loop edge gives
    ``m == 0`` and no plan. At or below ``_LOCAL_EDGES`` input edges
    the pulled edges are ONE in-process block (no map stage)."""
    edges = edges.materialize()
    if edges.count() <= _LOCAL_EDGES:
        t = _pull_edges(edges, [src, dst])
        uu, vv = _canon_block(_blk_col(t, src), _blk_col(t, dst))
        m, proj = uu.size, None
    else:
        def canon(t: pa.Table) -> pa.Table:
            u, v = _canon_block(_blk_col(t, src), _blk_col(t, dst))
            return pa.table({"u": u, "v": v})

        proj = edges.map_batches(canon,
                                 batch_format="pyarrow").materialize()
        m = proj.count()
        uu = vv = None
        if 0 < 16 * m <= _DRIVER_STATE_BYTES:
            blks = list(proj.iter_batches(batch_size=None,
                                          batch_format="pyarrow"))
            uu = np.concatenate([_blk_col(t, "u") for t in blks])
            vv = np.concatenate([_blk_col(t, "v") for t in blks])
    if m == 0:
        return 0, None, None, None, None
    if (uu is not None and 16 * m <= _DRIVER_STATE_BYTES
            and int(uu.min()) >= 0 and int(vv.max()) < (1 << 31)):
        pe = np.unique((uu << 32) | vv)  # global dedup, sorted
        nodes, deg = np.unique(np.concatenate(
            [pe >> 32, pe & np.int64(0xFFFFFFFF)]), return_counts=True)
        if edge_bytes * pe.size + node_bytes * nodes.size \
                <= _DRIVER_STATE_BYTES:
            return m, pe, nodes, deg, None
    if proj is None:
        proj = ray.data.from_arrow(pa.table({"u": uu, "v": vv}))
    return m, None, None, None, proj


def _wedge_partials(kernel, pe: np.ndarray, nodes: np.ndarray,
                    deg: np.ndarray):
    """Fast plan A of the triangle kernels (see :func:`_packed_edges`).
    ``pe``, the sorted packed canonical edge set, is driver-held for
    the closure anyway, so orientation and wedge-work chunking run in
    numpy on the driver: every edge points from its lower (deg, id) end
    (``nodes``/``deg``), each pivot's out-neighbors sorted by (deg, id)
    form one segment, and ``kernel`` (_tri_wedge_chunk /
    _tri_edge_chunk) enumerates + closes the wedges of one chunk of
    segments. Yields each chunk's (keys, counts) partial — in-process
    at or below ``_LOCAL_EDGES`` edges, else from raw tasks (``pe``
    shipped once, partials fetched one at a time, so peak driver memory
    stays accumulator + one partial). This replaces two sort shuffles
    (``groupby(wb).map_groups`` wedge co-location and the final
    ``groupby(node).sum``) whose fixed task overhead dominated wall
    time at bench scale."""
    u, v = pe >> 32, pe & np.int64(0xFFFFFFFF)
    du = deg[np.searchsorted(nodes, u)]
    dv = deg[np.searchsorted(nodes, v)]
    ufirst = (du < dv) | ((du == dv) & (u < v))
    a = np.where(ufirst, u, v)
    b = np.where(ufirst, v, u)
    db = np.where(ufirst, dv, du)
    order = np.lexsort((b, db, a))
    a, b = a[order], b[order]
    del u, v, du, dv, db, ufirst, order
    segs = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
    lens = np.diff(np.r_[segs, a.size])
    pivots = a[segs]
    wseg = lens * (lens - 1) // 2
    total_w = int(wseg.sum())
    # chunks of ~equal wedge work (wedge cost is quadratic in pivot
    # out-degree, so equal-SEGMENT chunks would straggle); floor of
    # ~20k wedges per chunk keeps tiny graphs at a handful of chunks
    n_chunks = int(max(1, min(_BUCKETS * 4, total_w // 20_000 + 1,
                              lens.size)))
    cuts = np.searchsorted(np.cumsum(wseg), np.arange(1, n_chunks)
                           * (total_w / n_chunks))
    bounds = np.unique(np.r_[0, cuts, lens.size])
    eoff = np.r_[0, np.cumsum(lens)]
    chunks = [(lens[s0:s1], pivots[s0:s1], b[eoff[s0]:eoff[s1]])
              for s0, s1 in zip(bounds[:-1], bounds[1:])]
    if pe.size <= _LOCAL_EDGES:
        return (kernel(pe, *c) for c in chunks)
    pe_ref = ray.put(pe)
    return map(ray.get, [kernel.remote(pe_ref, *c) for c in chunks])


def _oriented_by_degree(proj: ray.data.Dataset) -> ray.data.Dataset:
    """Plan B front half of the triangle kernels: the canonical
    undirected edge set of ``proj``'s (u, v) pairs, each edge pointing
    from its lower (deg, id) end, degrees fetched by two joins (nothing
    node-sized on the driver). Returns Dataset(a, b, db, wb): edge
    a -> b, b's degree, and a's wedge bucket (4 x ``_BUCKETS``: wedge
    work is quadratic in pivot out-degree, so finer groups
    load-balance the heaviest stage). Out-degree after orientation is
    O(sqrt(m)), which bounds both the group sizes and the total wedge
    count to O(m^1.5). Materialized: the wedges and the closure both
    read it."""
    e = _canonical_undirected(proj, "u", "v").materialize()
    degs = _undirected_degrees(e).materialize()
    dj = _ijoin(e, _ren(degs, {"u": "node", "du": "deg"}, ["u", "du"]),
                key="u", how="inner", left_cols=["u", "v"],
                right_cols=["u", "du"])
    dj2 = _ijoin(dj, _ren(degs, {"v": "node", "dv": "deg"}, ["v", "dv"]),
                 key="v", how="inner", left_cols=["u", "v", "du"],
                 right_cols=["v", "dv"])

    def orient(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        du = t["du"].to_numpy(zero_copy_only=False).astype(np.int64)
        dv = t["dv"].to_numpy(zero_copy_only=False).astype(np.int64)
        ufirst = (du < dv) | ((du == dv) & (u < v))
        a = np.where(ufirst, u, v)
        bkt = ((a.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
               >> np.uint64(33)) % np.uint64(_BUCKETS * 4)
        return pa.table({"a": pa.array(a),
                         "b": pa.array(np.where(ufirst, v, u)),
                         "db": pa.array(np.where(ufirst, dv, du)),
                         "wb": pa.array(bkt.astype(np.int32))})

    return dj2.map_batches(orient, batch_format="pyarrow").materialize()


def _pivot_wedges(df: pd.DataFrame):
    """All wedges of one wedge-bucket group of oriented edges: per
    pivot ``a``, its out-neighbors sorted by (deg, id), so an emitted
    wedge (v, w) is already in oriented-edge order. Returns the (pivot,
    v, w) arrays."""
    a = df["a"].to_numpy(np.int64)
    b = df["b"].to_numpy(np.int64)
    db = df["db"].to_numpy(np.int64)
    order = np.lexsort((b, db, a))
    a, b = a[order], b[order]
    segs = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
    lens = np.diff(np.r_[segs, a.size])
    fi, se = _segment_pairs(lens)
    return a[fi], b[fi], b[se]


def triangle_counts(edges: ray.data.Dataset, src: str = "src",
                    dst: str = "dst") -> ray.data.Dataset:
    """Exact per-node triangle participation counts over an undirected
    graph (edges may arrive directed / duplicated / with loops).

    Degree-ordered node-iterator algorithm (each triangle is generated
    exactly once, at its lowest-(degree, id) corner): canonicalize
    (u < v, drop loops) + dedup, orient every edge from the lower
    (deg, id) endpoint to the higher, enumerate per-pivot neighbor
    pairs (wedges, the vectorized ``_segment_pairs`` kernel), and count
    each wedge closed by an edge at its three corners.

    Two plans (:func:`_packed_edges` picks one):

    - plan A (ids in [0, 2^31), the packed edge set plus three node
      vectors — 8 bytes per edge, 24 per node — within
      ``_DRIVER_STATE_BYTES``): the global dedup is one np.unique over
      packed pairs, orientation and chunking run on the driver, and
      each wedge chunk membership-tests its wedges against the packed
      set with one ``searchsorted`` (:func:`_wedge_partials`) — zero
      shuffles, and graphs of at most ``_LOCAL_EDGES`` edges run every
      step in-process;
    - plan B: join orientation (:func:`_oriented_by_degree`), wedges
      generated per wedge bucket, then semi-merged against the
      oriented edge set in one hash-bucket shuffle (exact two-column
      pandas merge per bucket) and reduced by ``groupby(node).sum``.
      Plan B takes any int64 ids, negatives included.

    All arithmetic is integer — results are exact, so the SQL oracle
    (a three-way self-join) hash-matches. Only (int64, int64) pairs
    ever shuffle; texts/payloads never enter the pipeline.

    Reference analogue: none (the reference delegates graph analytics
    to server-side Pregel, start_Pregel.py:194-198); triangles join
    the native family alongside pagerank/sssp/hits/closeness/harmonic/
    scc/slpa/k-core.
    """
    m, pe, nodes, deg, proj = _packed_edges(edges, src, dst, 8, 24)
    if m == 0:
        return ray.data.from_arrow(pa.table(
            {"node": pa.array([], pa.int64()),
             "n_triangles": pa.array([], pa.int64())}))
    if pe is not None:
        acc = np.zeros(nodes.size, np.int64)
        for un, cn in _wedge_partials(_tri_wedge_chunk, pe, nodes, deg):
            acc[np.searchsorted(nodes, un)] += cn
        mask = acc > 0
        return ray.data.from_arrow(pa.table(
            {"node": pa.array(nodes[mask]),
             "n_triangles": pa.array(acc[mask])}))

    oriented = _oriented_by_degree(proj)

    def wedges_group(df: pd.DataFrame) -> pa.Table:
        piv, v, w = _pivot_wedges(df)
        return pa.table({"v": pa.array(v), "w": pa.array(w),
                         "pivot": pa.array(piv),
                         "tag": pa.array(np.ones(v.size, np.int8))})

    wedges = oriented.groupby("wb").map_groups(wedges_group,
                                               batch_format="pandas")

    def edge_tagged(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        return pa.table({"v": pa.array(a), "w": pa.array(b),
                         "pivot": pa.array(np.full(a.size, -1, np.int64)),
                         "tag": pa.array(np.zeros(a.size, np.int8))})

    def close_bucket(t: pa.Table) -> pa.Table:
        v = t["v"].to_numpy(zero_copy_only=False)
        w = t["w"].to_numpy(zero_copy_only=False)
        bkt = (_mix2(v, w) % np.uint64(_BUCKETS)).astype(np.int32)
        return t.append_column("cb", pa.array(bkt))

    both = wedges.union(oriented.map_batches(edge_tagged,
                                             batch_format="pyarrow")) \
        .map_batches(close_bucket, batch_format="pyarrow")

    def close_group(df: pd.DataFrame) -> pa.Table:
        ed = df[df["tag"] == 0]
        wd = df[df["tag"] == 1]
        if len(ed) == 0 or len(wd) == 0:
            return pa.table({"node": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        m = wd[["v", "w", "pivot"]].merge(ed[["v", "w"]], on=["v", "w"],
                                          how="inner")
        nodes = np.concatenate([m["v"].to_numpy(np.int64),
                                m["w"].to_numpy(np.int64),
                                m["pivot"].to_numpy(np.int64)])
        un, cn = np.unique(nodes, return_counts=True)
        return pa.table({"node": pa.array(un),
                         "cnt": pa.array(cn.astype(np.int64))})

    return both.groupby("cb").map_groups(close_group,
                                         batch_format="pandas") \
        .groupby("node").sum("cnt") \
        .map_batches(lambda t: t.rename_columns(["node", "n_triangles"]),
                     batch_format="pyarrow")


def k_core(edges: ray.data.Dataset, k: int, src: str = "src",
           dst: str = "dst", max_rounds: int = 200) -> ray.data.Dataset:
    """The k-core of an undirected graph (maximal subgraph where every
    node has degree >= k), by distributed iterative peeling: each round
    computes degrees (per-block partials + one groupby), finds nodes
    below ``k``, and filters their edges out — a broadcast sorted-array
    ``searchsorted`` filter while the doomed ids (8 bytes each) fit
    ``_DRIVER_STATE_BYTES``, else two semi ``hash_join`` passes against
    the surviving nodes (plan B, nothing node-sized on the driver).
    Converges when a round removes nothing; ``max_rounds`` raises
    loudly instead of looping silently (pathological chains peel one
    node per round — raise k or pre-trim). Returns (node, deg): the
    surviving nodes with their in-core degrees. Exact, all-integer.

    Reference analogue: none (the reference delegates all graph
    analytics to server-side Pregel, start_Pregel.py:194-198); k-core
    completes the native family (pagerank/sssp/hits/closeness/
    harmonic/scc/slpa/triangles/components)."""
    from kgeng.ops.join import hash_join

    if k < 1:
        raise ValueError("k must be >= 1")
    e = _canonical_undirected(edges, src, dst).materialize()

    for _ in range(max_rounds):
        if e.count() == 0:
            break
        degs = mat(_undirected_degrees(e))
        bad = degs.filter(expr=f"deg < {k}")
        n_bad = bad.count()
        if n_bad == 0:
            return degs
        if 8 * n_bad <= _DRIVER_STATE_BYTES:
            doomed = np.sort(np.concatenate([
                t["node"].to_numpy(zero_copy_only=False)
                for t in bad.select_columns(["node"]).iter_batches(
                    batch_size=None, batch_format="pyarrow")]))
            ref = ray.put(doomed)

            def drop(t: pa.Table) -> pa.Table:
                d = ray.get(ref)
                u = t["u"].to_numpy(zero_copy_only=False)
                v = t["v"].to_numpy(zero_copy_only=False)
                iu = np.searchsorted(d, u)
                iv = np.searchsorted(d, v)
                hit_u = (iu < d.size) & (d[np.minimum(iu, d.size - 1)]
                                         == u)
                hit_v = (iv < d.size) & (d[np.minimum(iv, d.size - 1)]
                                         == v)
                return t.filter(pa.array(~(hit_u | hit_v)))

            e = mat(e.map_batches(drop, batch_format="pyarrow"))
        else:
            keep = degs.filter(expr=f"deg >= {k}") \
                .select_columns(["node"])
            e1 = hash_join(
                e, keep.map_batches(
                    lambda t: t.rename_columns(["u"]),
                    batch_format="pyarrow"),
                key="u", how="semi", num_buckets=_BUCKETS)
            e = mat(hash_join(
                e1, keep.map_batches(
                    lambda t: t.rename_columns(["v"]),
                    batch_format="pyarrow"),
                key="v", how="semi", num_buckets=_BUCKETS))
    else:
        raise RuntimeError(
            f"k_core did not converge within {max_rounds} rounds "
            f"(k={k}); raise max_rounds or pre-trim the graph")
    # graph fully peeled away: empty k-core with the output schema
    return ray.data.from_arrow(pa.table({
        "node": pa.array([], pa.int64()),
        "deg": pa.array([], pa.int64())}))


# --------------------------------------------------------- random walks

#: Seed-mix constants for the deterministic walk step choice (the
#: public-domain splitmix64/golden-ratio constants every other seeded
#: op in this repo uses; duplicated into the SQL oracle verbatim).
_WALK_G = 0x9E3779B97F4A7C15
_WALK_B = 0xBF58476D1CE4E5B9


def random_walks(edges: ray.data.Dataset, src: str = "src",
                 dst: str = "dst", walk_len: int = 4,
                 walks_per_node: int = 2) -> ray.data.Dataset:
    """Deterministic DeepWalk-style random-walk corpus generation — the
    sequence-sampling step before training graph embeddings
    (node2vec/DeepWalk) or walk-based features. The reference triggers
    graph algorithms server-side (start_Pregel.py:28-57); walks are the
    same per-node iterate-over-neighbors shape expressed Ray-native.

    Semantics (exactly SQL-replayable — no RNG state):

    - adjacency = DISTINCT (src, dst); rank(src, dst) = 0-based
      position of dst in ascending order within src; deg(src) = count
    - one walk per (distinct src node) x (walk index w <
      ``walks_per_node``), emitted as rows (start, walk, step, node)
      with step 0 = the start node
    - step t in 1..walk_len moves from cur to the neighbor at rank
      splitmix64((cur * G + w * B + t) mod 2^64) % deg(cur); a node
      with no outgoing edges ends the walk early (no further rows)

    Node ids must be non-negative int64 (the seed arithmetic wraps
    identically in numpy uint64 and DuckDB HUGEINT only then; map
    string keys through a dense-id pass first).

    Plan A: the CSR adjacency is pulled once to the driver and every
    step is three vectorized numpy gathers over all live walks — zero
    shuffles after the distinct. Its driver state is the adjacency (16
    bytes per edge) and the walk rows (32 bytes each, at most
    ``walks_per_node * (walk_len + 1)`` per source node). Plan B (past
    ``_DRIVER_STATE_BYTES``): the rank table is built with the bucketed-window pass, and each
    step is two hash-partitioned joins (degree fetch, then the
    (cur, choice) -> neighbor rank lookup) — edge- and walk-count
    unbounded, bit-identical to plan A by integer construction."""
    from kgeng.ops.agg import _splitmix64
    from kgeng.ops.agg import distinct

    if walk_len < 1 or walks_per_node < 1:
        raise ValueError("walk_len and walks_per_node must be >= 1")

    def _pair_block(t: pa.Table) -> pa.Table:
        # per-block sort + dedup (directed pairs kept as-is) — the
        # plan-A global dedup is then one driver lexsort over rows the
        # CSR pull reads anyway, so the distinct() shuffle disappears
        # entirely on the fast path (same fold as triangle_counts)
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        keep = np.ones(a.size, bool)
        keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        return pa.table({"src": pa.array(a[keep]),
                         "dst": pa.array(b[keep])})

    proj = edges.map_batches(_pair_block,
                             batch_format="pyarrow").materialize()
    # block-deduped edge count: an upper bound on |distinct| and on the
    # number of source nodes
    n_probe = proj.count()
    if n_probe * (16 + 32 * walks_per_node * (walk_len + 1)) \
            > _DRIVER_STATE_BYTES:
        return _walks_distributed(
            distinct(proj, ["src", "dst"]).materialize(),
            walk_len, walks_per_node)

    srcs, dsts = [], []
    for b in proj.iter_batches(batch_size=None, batch_format="pyarrow"):
        srcs.append(b["src"].to_numpy(zero_copy_only=False))
        dsts.append(b["dst"].to_numpy(zero_copy_only=False))
    srcv = np.concatenate(srcs) if srcs else np.zeros(0, np.int64)
    dstv = np.concatenate(dsts) if dsts else np.zeros(0, np.int64)
    if len(srcv) and (srcv.min() < 0 or dstv.min() < 0):
        raise ValueError("random_walks requires non-negative node ids")
    order = np.lexsort((dstv, srcv))
    srcv, dstv = srcv[order], dstv[order]
    if len(srcv):
        keep = np.ones(srcv.size, bool)
        keep[1:] = (srcv[1:] != srcv[:-1]) | (dstv[1:] != dstv[:-1])
        srcv, dstv = srcv[keep], dstv[keep]
    usrc, cnt = np.unique(srcv, return_counts=True)
    indptr = np.concatenate(([0], np.cumsum(cnt)))

    wpn = walks_per_node
    start = np.repeat(usrc, wpn)
    w = np.tile(np.arange(wpn, dtype=np.int64), len(usrc))
    cur = start.copy()
    alive = np.ones(len(start), bool)
    out_start = [start.copy()]
    out_w = [w.copy()]
    out_step = [np.zeros(len(start), np.int64)]
    out_node = [start.copy()]
    for t in range(1, walk_len + 1):
        pos = np.searchsorted(usrc, cur)
        pos_c = np.clip(pos, 0, max(len(usrc) - 1, 0))
        has = alive & (len(usrc) > 0) \
            & (usrc[pos_c] == cur) if len(usrc) else alive & False
        alive = has
        if not alive.any():
            break
        seed = (cur.astype(np.uint64) * np.uint64(_WALK_G)
                + w.astype(np.uint64) * np.uint64(_WALK_B)
                + np.uint64(t))
        h = _splitmix64(seed)
        deg = cnt[pos_c].astype(np.uint64)
        c = np.zeros(len(cur), np.int64)
        c[alive] = (h[alive] % deg[alive]).astype(np.int64)
        nxt = cur.copy()
        nxt[alive] = dstv[indptr[pos_c[alive]] + c[alive]]
        cur = nxt
        out_start.append(start[alive])
        out_w.append(w[alive])
        out_step.append(np.full(int(alive.sum()), t, np.int64))
        out_node.append(cur[alive])

    return ray.data.from_arrow(pa.table({
        "start": pa.array(np.concatenate(out_start)),
        "walk": pa.array(np.concatenate(out_w)),
        "step": pa.array(np.concatenate(out_step)),
        "node": pa.array(np.concatenate(out_node)),
    }))


def _walks_distributed(adj: ray.data.Dataset, walk_len: int,
                       wpn: int) -> ray.data.Dataset:
    """Plan B: join-based walk rounds over the ranked adjacency."""
    import pandas as pd

    from kgeng.ops.agg import _splitmix64
    from kgeng.ops.join import _bucket_ids, hash_join

    def bucket(t: pa.Table) -> pa.Table:
        b = _bucket_ids(t, "src", 64)
        return t.append_column("__bucket", pa.array(b.astype(np.int32)))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["src", "dst"], kind="mergesort")
        rk = g.groupby("src", sort=False).cumcount()
        return pd.DataFrame({
            "k": g["src"].astype(str) + ":" + rk.astype(str),
            "dst": g["dst"]})

    adjr = adj.map_batches(bucket, batch_format="pyarrow") \
        .groupby("__bucket").map_groups(per_bucket,
                                        batch_format="pandas") \
        .materialize()
    degt = adj.groupby("src").count().map_batches(
        lambda t: t.rename_columns(["cur", "deg"]),
        batch_format="pyarrow").materialize()

    def to_start(t: pa.Table) -> pa.Table:
        s = t["cur"].to_numpy(zero_copy_only=False)
        if len(s) and s.min() < 0:
            raise ValueError(
                "random_walks requires non-negative node ids")
        return pa.table({
            "start": pa.array(np.repeat(s, wpn)),
            "walk": pa.array(np.tile(np.arange(wpn, dtype=np.int64),
                                     len(s))),
            "node": pa.array(np.repeat(s, wpn)),
        })

    frontier = degt.map_batches(to_start, batch_format="pyarrow") \
        .materialize()
    outs = [frontier.map_batches(
        lambda t: pa.table({"start": t["start"], "walk": t["walk"],
                            "step": pa.array(
                                np.zeros(len(t), np.int64)),
                            "node": t["node"]}),
        batch_format="pyarrow")]
    for t_step in range(1, walk_len + 1):
        f = hash_join(
            frontier.map_batches(
                lambda t: pa.table({"start": t["start"],
                                    "walk": t["walk"],
                                    "cur": t["node"]}),
                batch_format="pyarrow"),
            degt, "cur",
            left_cols=["start", "walk", "cur"],
            right_cols=["cur", "deg"],
            left_types={"start": "int64", "walk": "int64",
                        "cur": "int64"},
            right_types={"cur": "int64", "deg": "int64"})

        def choose(t: pa.Table, _t=t_step) -> pa.Table:
            curv = t["cur"].to_numpy(zero_copy_only=False)
            wv = t["walk"].to_numpy(zero_copy_only=False)
            degv = t["deg"].to_numpy(zero_copy_only=False)
            seed = (curv.astype(np.uint64) * np.uint64(_WALK_G)
                    + wv.astype(np.uint64) * np.uint64(_WALK_B)
                    + np.uint64(_t))
            c = (_splitmix64(seed) % degv.astype(np.uint64)) \
                .astype(np.int64)
            k = pc.binary_join_element_wise(
                pc.cast(t["cur"], pa.string()),
                pc.cast(pa.array(c), pa.string()), ":")
            return pa.table({"start": t["start"], "walk": t["walk"],
                             "k": k})

        stepped = hash_join(
            f.map_batches(choose, batch_format="pyarrow"), adjr, "k",
            left_cols=["start", "walk", "k"], right_cols=["k", "dst"],
            left_types={"start": "int64", "walk": "int64"},
            right_types={"dst": "int64"})
        # hash_join surfaces right-side ints as float64 (nullable-int
        # convention); restore int64 before the value feeds the next
        # round's key strings and the output column
        frontier = stepped.map_batches(
            lambda t: pa.table({"start": t["start"], "walk": t["walk"],
                                "node": pc.cast(t["dst"], pa.int64())}),
            batch_format="pyarrow").materialize()
        outs.append(frontier.map_batches(
            lambda t, _t=t_step: pa.table({
                "start": t["start"], "walk": t["walk"],
                "step": pa.array(np.full(len(t), _t, np.int64)),
                "node": t["node"]}),
            batch_format="pyarrow"))

    res = outs[0]
    for o in outs[1:]:
        res = res.union(o)
    return res


# ------------------------------------------- edge triangle support (k-truss)

@_kernel
def _tri_edge_chunk(pe: np.ndarray, lens: np.ndarray,
                    pivots: np.ndarray, bsl: np.ndarray):
    """Wedge enumeration + packed-edge closure for one pivot chunk,
    counting per-EDGE (not per-node) triangle membership: every closed
    wedge (p; v, w) increments its three canonical packed edges.
    Returns (packed_edge_keys, counts) for this chunk."""
    fi, se = _segment_pairs(lens)
    if fi.size == 0:
        z = np.zeros(0, np.int64)
        return z, z
    pv = np.repeat(pivots, lens)[fi]
    vv = bsl[fi]
    ww = bsl[se]
    pk = (np.minimum(vv, ww) << 32) | np.maximum(vv, ww)
    idx = np.searchsorted(pe, pk)
    hit = (idx < pe.size) & (pe[np.minimum(idx, pe.size - 1)] == pk)
    pv, vv, ww, pk = pv[hit], vv[hit], ww[hit], pk[hit]
    e1 = (np.minimum(pv, vv) << 32) | np.maximum(pv, vv)
    e2 = (np.minimum(pv, ww) << 32) | np.maximum(pv, ww)
    keys = np.concatenate([pk, e1, e2])
    un, cn = np.unique(keys, return_counts=True)
    return un, cn.astype(np.int64)


def edge_triangle_support(edges: ray.data.Dataset, src: str = "src",
                          dst: str = "dst") -> ray.data.Dataset:
    """Per-EDGE triangle support |N(u) ∩ N(v)| over the undirected
    graph — the k-truss peeling kernel (an edge is in the k-truss iff
    support >= k-2). Same degree-ordered wedge generation and the same
    two plans as :func:`triangle_counts` (each triangle generated
    exactly once); each closed wedge credits its THREE canonical edges.

    Plan A (ids in [0, 2^31), packed edge set plus per-edge accumulator
    and two node vectors — 16 bytes per edge and per node — within
    ``_DRIVER_STATE_BYTES``): the packed sorted edge set doubles as the
    driver-side accumulator index, so the O(m^1.5) wedge stream never
    shuffles; per-chunk (edge, cnt) partials (:func:`_wedge_partials`,
    in-process at or below ``_LOCAL_EDGES`` edges) merge into one
    m-bounded array.
    Plan B: the wedge stream shuffles ONCE on its (v, w) packed key for
    a hash-bucket closure semi-merge, then the 3-edge fan-out reduces
    through ``groupby(edge_key).sum`` — nothing edge-sized on the
    driver. Output (u, v, support), u < v, support >= 1 rows only;
    integer-exact, so the three-way self-join SQL oracle hash-matches.

    Reference analogue: none (server-side Pregel family,
    start_Pregel.py:194-198); extends the native graph family's
    triangles/k-core pair toward trusses."""
    from ray.data.aggregate import Sum

    from kgeng.ops.join import hash_join

    m, pe, nodes, deg, proj = _packed_edges(edges, src, dst, 16, 16)
    if m == 0:
        return ray.data.from_arrow(pa.table({
            "u": pa.array([], pa.int64()),
            "v": pa.array([], pa.int64()),
            "support": pa.array([], pa.int64())}))
    if pe is not None:
        acc = np.zeros(pe.size, np.int64)
        for un, cn in _wedge_partials(_tri_edge_chunk, pe, nodes, deg):
            acc[np.searchsorted(pe, un)] += cn
        mask = acc > 0
        return ray.data.from_arrow(pa.table({
            "u": pa.array((pe[mask] >> 32).astype(np.int64)),
            "v": pa.array((pe[mask]
                           & np.int64(0xFFFFFFFF)).astype(np.int64)),
            "support": pa.array(acc[mask])}))

    # ---- plan B: fully distributed (no edge-sized driver state) ----
    oriented = _oriented_by_degree(proj)

    def pack(x: np.ndarray, y: np.ndarray) -> pa.Array:
        return pa.array((np.minimum(x, y) << 32) | np.maximum(x, y))

    def wedges_group(df: pd.DataFrame) -> pa.Table:
        ids = df[["a", "b"]].to_numpy(np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= (1 << 31)):
            raise ValueError("edge_triangle_support ids must pack into "
                             "31 bits; remap node ids upstream")
        pv_, v_, w_ = _pivot_wedges(df)
        return pa.table({"vw": pack(v_, w_), "pv": pack(pv_, v_),
                         "pw": pack(pv_, w_)})

    wedges = oriented.groupby("wb").map_groups(wedges_group,
                                               batch_format="pandas")
    epk = oriented.map_batches(
        lambda t: pa.table({"vw": pack(
            t["a"].to_numpy(zero_copy_only=False),
            t["b"].to_numpy(zero_copy_only=False))}),
        batch_format="pyarrow")
    closed = hash_join(wedges, epk, key="vw", how="semi",
                       num_buckets=_BUCKETS,
                       left_cols=["vw", "pv", "pw"], right_cols=["vw"],
                       left_types={c: "int64" for c in
                                   ("vw", "pv", "pw")},
                       right_types={"vw": "int64"})

    def fan3(t: pa.Table) -> pa.Table:
        ks = np.concatenate([
            t["vw"].to_numpy(zero_copy_only=False),
            t["pv"].to_numpy(zero_copy_only=False),
            t["pw"].to_numpy(zero_copy_only=False)])
        un, cn = np.unique(ks, return_counts=True)
        return pa.table({"k": pa.array(un),
                         "c": pa.array(cn.astype(np.int64))})

    merged = closed.map_batches(fan3, batch_format="pyarrow") \
        .groupby("k").aggregate(Sum("c", alias_name="support"))

    def unpack(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        return pa.table({
            "u": pa.array((k >> 32).astype(np.int64)),
            "v": pa.array((k & np.int64(0xFFFFFFFF)).astype(np.int64)),
            "support": pc.cast(t["support"], pa.int64())})

    return merged.map_batches(unpack, batch_format="pyarrow")
