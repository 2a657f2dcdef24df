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

The eleven iterative algorithms (pagerank, hits, sssp_hops,
bellman_ford_rounds, effective_closeness, bounded_harmonic,
bounded_closeness, scc, slpa, label_propagation_communities, k_core)
are each written once, as a vertex program in the Pregel / GAS shape:
the loop and its convergence test run on the driver, and a round is
``send`` (one message per edge, from the sender's state), a combine per
receiver (``sum``, ``min``, ``max``, ``or`` or ``mode``) and ``apply``
(the receiver's new state), all numpy over arrays of node state. One
round interface runs them on three backends, picked by one rule from
sizes the algorithm already measures (node count, edge count, rounds,
sketch width):

- in-process (plan A, at most ``_LOCAL_EDGES`` edges): the state is a
  dict of numpy arrays on the driver and a round is one call of
  :func:`_round_block` over the pulled edges (:class:`_IndexedEdges`);
- raw tasks (plan A, above): the same kernel runs as one Ray task per
  edge block, the state shipped once per round, and the driver reduces
  the per-block partials;
- Dataset (plan B, when the driver bytes plan A would hold exceed
  ``_DRIVER_STATE_BYTES``): the state is a Dataset and a round is two
  co-bucketed ``groupby(bucket).map_groups`` stages
  (:class:`_DatasetRounds`); the driver sees only scalar sums.

The three give the same rows. Triangles, ``edge_triangle_support`` and
``random_walks`` keep plans of their own under the same budget.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from kgeng.config import _DRIVER_SIDE_READ_BYTES
from kgeng.ops.join import _int_bucket_ids, by_key
from kgeng.ops.mat import mat, pull_blocks


def _round9(x, ndigits: int) -> np.ndarray:
    # numpy round is banker's; DuckDB round() is half-away-from-zero.
    # Ranks are strictly positive so half-UP matches half-away. This is
    # THE rounding that makes iterative results hash-match the SQL
    # oracles — every algorithm in this module must round through it.
    scale = 10.0 ** ndigits
    return np.floor(np.asarray(x, dtype=np.float64) * scale + 0.5) / scale


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

#: Most wedge-work chunks of the plan-A triangle kernels
#: (:func:`_wedge_partials`): one in-process call or raw task each.
_WEDGE_CHUNKS = 256


def _kernel(fn):
    """Mark a per-block kernel: ``fn`` stays a plain function, which the
    in-process backend calls directly, and gains ``fn.remote``, its
    raw-task form built from the same function."""
    fn.remote = ray.remote(fn).remote
    return fn


def _blk_col(blk, c) -> np.ndarray:
    """Column of an Arrow-or-pandas block as numpy, a fixed_size_binary
    column as a 2-D uint8 matrix; a zero-column empty partition
    (post-groupby artifact) reads as an empty array."""
    names = (blk.column_names if isinstance(blk, pa.Table)
             else list(blk.columns))
    if c not in names:
        return np.zeros(0, np.int64)
    v = blk[c]
    if not isinstance(blk, pa.Table):
        return v.to_numpy()
    if pa.types.is_fixed_size_binary(v.type):
        return _unpack_regs(v, v.type.byte_width)
    return v.to_numpy(zero_copy_only=False)


def _pull_edges(edges: ray.data.Dataset, cols: list[str]) -> pa.Table:
    """The ``cols`` of a small MATERIALIZED edge Dataset as one Arrow
    table on the driver — no Dataset execution, whatever the block
    format (see _blk_col); blocks over ``_DRIVER_SIDE_READ_BYTES`` raise
    before the pull (``pull_blocks``)."""
    blks = pull_blocks(edges, _DRIVER_SIDE_READ_BYTES)
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
def _ends_block(blk, src: str, dst: str):
    """Distinct endpoint ids of one block (driver unions the <=2E,
    <=blocks*N total — effectively N-bounded whenever E >> N, and when
    it isn't, N ~ 2E anyway)."""
    # int64 regardless of the edge columns' width: node ids / output
    # schemas must not silently inherit e.g. int32 from the source
    return np.unique(np.concatenate(
        [_blk_col(blk, src), _blk_col(blk, dst)])).astype(np.int64)


# ------------------------------------------------------ vertex programs
#
# A round of a vertex program, on every backend:
#
#   keep, vals = send(s, i, e)     one message per edge; ``s`` is the
#                                  node state (dict of arrays, ``node``
#                                  = ids), ``i`` each edge's sender row
#                                  in it, ``e["dst"]`` the receiver ids
#                                  and ``e["w"]`` the weights; ``keep``
#                                  (or None) masks the edges that send
#   ok = accept(s, j, vals)        optional: receiver-side filter, ``j``
#                                  each message's receiver row
#   agg, has = combine per receiver: "sum" (float64, has None), or
#                                  "min" / "max" / "or" (rows or
#                                  register matrices) / "mode" (most
#                                  frequent value, ties to the
#                                  smallest), with ``has`` marking
#                                  receivers that heard
#   s |= apply(s, agg, has)        the columns apply returns replace or
#                                  join the state
#
# A backend cuts the edges into parts (blocks, or buckets of
# receivers), reduces each part with ``_part`` and the parts with
# ``_merge``; both are exact for integers and registers, and a float
# sum only changes its addition order.


def _reduce_by(rcv: np.ndarray, vals: np.ndarray, ufunc):
    """(distinct receivers, ``ufunc``-reduced rows per receiver)."""
    if not len(rcv):
        return rcv.astype(np.int64), vals
    order = np.argsort(rcv, kind="stable")
    r = rcv[order]
    starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
    return r[starts].astype(np.int64), ufunc.reduceat(vals[order], starts,
                                                      axis=0)


def _pair_counts(r: np.ndarray, v: np.ndarray, c: np.ndarray | None = None):
    """Distinct (receiver, value) pairs with their counts (the summed
    ``c`` when given). One packed ``unique`` when receiver x value-range
    fits an int64, a two-key lexsort otherwise."""
    if not len(r):
        z = np.zeros(0, np.int64)
        return z, v.astype(np.int64), z
    lo = int(v.min())
    k = int(v.max()) - lo + 1
    if (int(r.max()) + 1) * k < 1 << 63:
        key = r.astype(np.int64) * k + (v - lo)
        if c is None:
            key, cnt = np.unique(key, return_counts=True)
        else:
            order = np.argsort(key, kind="stable")
            key = key[order]
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            key, cnt = key[starts], np.add.reduceat(c[order], starts)
        return key // k, key % k + lo, cnt.astype(np.int64)
    order = np.lexsort((v, r))
    r, v = r[order], v[order]
    starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1])
                                  | (v[1:] != v[:-1])])
    c = np.ones(len(r), np.int64) if c is None else c[order]
    return (r[starts].astype(np.int64), v[starts],
            np.add.reduceat(c, starts).astype(np.int64))


_UFUNC = {"min": np.minimum, "max": np.maximum, "or": np.bitwise_or}


def _part(combine: str, rcv: np.ndarray, vals: np.ndarray, n: int):
    """One part's partial: a dense n-float64 sum, or sparse
    (receivers, rows) for min/max, or (receivers, values, counts)."""
    if combine == "sum":
        return np.bincount(rcv, weights=vals, minlength=n)
    if combine == "mode":
        return _pair_counts(rcv, vals)
    return _reduce_by(rcv, vals, _UFUNC[combine])


def _merge(combine: str, parts, n: int):
    """The parts' partials (at least one), reduced as they arrive, as
    dense per-node (agg, has)."""
    if combine == "sum":
        acc = np.zeros(n, np.float64)
        for p in parts:
            acc += p
        return acc, None
    parts = list(parts)
    cat = parts[0] if len(parts) == 1 else \
        [np.concatenate(c) for c in zip(*parts)]
    if combine == "mode":
        r, v, c = cat if len(parts) == 1 else _pair_counts(*cat)
        order = np.lexsort((v, -c, r))  # per receiver: count desc, value asc
        r, v = r[order], v[order]
        first = np.r_[True, r[1:] != r[:-1]] if len(r) else r.astype(bool)
        r, v = r[first], v[first]
    else:
        r, v = cat if len(parts) == 1 else _reduce_by(*cat, _UFUNC[combine])
    agg = np.zeros((n,) + v.shape[1:], v.dtype)
    agg[r] = v
    has = np.zeros(n, bool)
    has[r] = True
    return agg, has


class _Lazy(dict):
    """A dict whose values are made on first read, each by the
    zero-argument callable of the same name it was built with."""

    def __init__(self, **makers):
        super().__init__()
        self._makers = makers

    def __missing__(self, key):
        v = self[key] = self._makers[key]()
        return v


@_kernel
def _round_block(idx, s: dict, send, combine: str, accept, reverse: bool):
    """One vertex-program round over one indexed edge block (see the
    notes above): sender and receiver are the edge's (src, dst), or
    (dst, src) when ``reverse``. Returns the block's ``_part``."""
    si, di, w = idx
    snd, rcv = (di, si) if reverse else (si, di)
    keep, vals = send(s, snd, _Lazy(dst=lambda: s["node"][rcv],
                                    w=lambda: w))
    if keep is not None:
        rcv, vals = rcv[keep], vals[keep]
    if accept is not None:
        ok = accept(s, rcv, vals)
        rcv, vals = rcv[ok], vals[ok]
    return _part(combine, rcv, vals, len(s["node"]))


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


def _by_src(edges: ray.data.Dataset, src: str) -> ray.data.Dataset:
    """Materialize; above ``_LOCAL_EDGES`` edges, sort by ``src``, so
    each raw-task partial of a reverse round (receivers are sources)
    covers a disjoint range of receivers: n rows per round in total,
    not per block. For the programs whose messages are register or
    bitset rows."""
    edges = edges.materialize()
    if edges.count() > _LOCAL_EDGES:
        edges = edges.sort(src).materialize()
    return edges


class _IndexedEdges:
    """Plan A's round backend: per-block (si, di[, w]) index arrays of a
    MATERIALIZED edge Dataset, staged once, with the backend picked from
    the edge count alone:

    - in-process (at most ``_LOCAL_EDGES`` edges): the blocks are pulled
      to the driver once and indexed as ONE block, and every kernel is
      called as a plain function;
    - raw tasks (above): the index arrays stay in the object store, one
      per block, and a kernel fans out as ``kernel.remote`` over them;
      each array or state argument ships once per round via ``ray.put``
      (workers read it zero-copy from plasma).

    The node state is a dict of n-row numpy arrays on the driver, the
    sorted ids as ``node``; :meth:`round` reduces the per-block partials
    in block order as they arrive.

    The plan rule: the caller's plan A holds ``state_bytes(n, m)``
    bytes on the driver for n nodes and m edges. Node discovery runs
    first; when that total exceeds ``_DRIVER_STATE_BYTES``, ``fits``
    is False, nothing is indexed, and :func:`_rounds` runs the
    algorithm on :class:`_DatasetRounds` instead."""

    def __init__(self, edges: ray.data.Dataset, src: str, dst: str,
                 weight: str | None = None,
                 state_bytes=lambda n, m: 0):
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
        self.fits = state_bytes(self.n, m) <= _DRIVER_STATE_BYTES
        if self.fits:
            self.idx = self._fan(_index_block, nodes, src, dst, weight)

    def _fan(self, kernel, *args) -> list:
        if self.local:
            return [kernel(i, *args) for i in self.idx]
        args = [ray.put(a) if isinstance(a, (np.ndarray, dict)) else a
                for a in args]
        return [kernel.remote(i, *args) for i in self.idx]

    def map(self, kernel, *args):
        """``kernel(block_index, *args)`` for every block, yielded in
        block order. Raw-task results are fetched one at a time, so a
        caller that reduces as it iterates holds its accumulator plus
        one partial."""
        out = self._fan(kernel, *args)
        return iter(out) if self.local else (ray.get(r) for r in out)

    def state(self, init) -> dict:
        """The first state: ``init(ids)`` gives the columns."""
        return {"node": self.nodes, **init(self.nodes)}

    def round(self, s: dict, send, combine: str, apply,
              reverse: bool = False, accept=None) -> dict:
        parts = self.map(_round_block, s, send, combine, accept, reverse)
        return {**s, **apply(s, *_merge(combine, parts, self.n))}

    def update(self, s: dict, fn) -> dict:
        """A node-local step: the columns ``fn(s)`` returns replace or
        join the state."""
        return {**s, **fn(s)}

    def sum(self, s: dict, fn) -> float:
        """The scalar sum of the array ``fn(s)``."""
        return float(fn(s).sum())

    def table(self, s: dict, fn) -> ray.data.Dataset:
        """The result rows: ``fn(s)`` gives the output columns."""
        return ray.data.from_arrow(pa.table(fn(s)))


# ----------------------------------------------------- Dataset rounds

_STATE, _EDGE, _MSG = 0, 1, 2


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


def _rows(kind: int, bucket: np.ndarray, cols: dict) -> pa.Table:
    """Rows of one kind (state, edge or message) in a round bucket;
    register matrices travel as fixed_size_binary."""
    return pa.table({
        "__b": pa.array(bucket, pa.int64()),
        "__k": pa.array(np.full(len(bucket), kind, np.int8)),
        **{c: _pack_regs(v) if v.ndim == 2 else pa.array(v)
           for c, v in cols.items()}})


def _of(t: pa.Table, kind: int) -> pa.Table:
    return t.filter(pc.equal(t["__k"], kind))


def _cols(t: pa.Table) -> dict:
    """The node state held by state rows, sorted by node."""
    order = np.argsort(_blk_col(t, "node"), kind="stable")
    return {c: _blk_col(t, c)[order] for c in t.column_names
            if not c.startswith("__")}


def _speak(t: pa.Table, send) -> pa.Table:
    """Stage 1, one bucket: the senders' state rows meet their edges;
    one message per kept edge, keyed by the receiver's bucket."""
    st, ed = _of(t, _STATE), _of(t, _EDGE)
    if not len(st) or not len(ed):
        none = np.zeros(0, np.int64)
        return _rows(_MSG, none, {"node": none})
    s = _cols(st)
    to, tb = _blk_col(ed, "__to"), _blk_col(ed, "__tb")
    w = _blk_col(ed, "__w") if "__w" in ed.column_names else None
    keep, vals = send(s, np.searchsorted(s["node"], _blk_col(ed, "node")),
                      {"dst": to, "w": w})
    if keep is not None:
        to, tb, vals = to[keep], tb[keep], vals[keep]
    return _rows(_MSG, tb, {"node": to, "__v": vals})


def _listen(t: pa.Table, send, combine: str, apply, accept,
            B: int) -> pa.Table:
    """Stage 2, one bucket: the receivers' state rows combine their
    messages and apply them; the new state rows go to their node's
    bucket of ``B``."""
    s = _cols(_of(t, _STATE))
    ms = _of(t, _MSG)
    if len(ms):
        j = np.searchsorted(s["node"], _blk_col(ms, "node"))
        vals = _blk_col(ms, "__v")
    else:
        # no message reached this bucket: an empty one of the
        # program's own dtype and shape
        j = np.zeros(0, np.int64)
        vals = send(s, j, {"dst": j, "w": j})[1]
    if accept is not None:
        ok = accept(s, j, vals)
        j, vals = j[ok], vals[ok]
    k = len(s["node"])
    s.update(apply(s, *_merge(combine, [_part(combine, j, vals, k)], k)))
    return _rows(_STATE, _int_bucket_ids(s["node"], B), s)


class _DatasetRounds:
    """Plan B's round backend: the round interface of
    :class:`_IndexedEdges` with the node state a Dataset, one row per
    node (int64 / float64 / bool columns, register matrices as
    fixed_size_binary) tagged with the node's round bucket (the hash
    and the ``join._BUCKETS`` count of :func:`kgeng.ops.join.by_key`,
    read when the backend is built). A round is
    two co-bucketed ``groupby(bucket).map_groups`` stages: state rows
    meet edge rows at the sender and emit one message per edge, keyed by
    the receiver (:func:`_speak`); the messages meet the receivers'
    state rows, which combine and apply them (:func:`_listen`). No join
    and no schema fetch; the driver sees only :meth:`sum`'s scalars.
    Memory per task is one bucket's slice of state, edges and
    messages."""

    def __init__(self, edges: ray.data.Dataset, src: str, dst: str,
                 weight: str | None, nodes: np.ndarray):
        from kgeng.ops import join

        self.nodes = nodes
        self.n = len(nodes)
        self._B = join._BUCKETS
        self._edges = (edges, src, dst, weight)
        self._dirs: dict[bool, ray.data.Dataset] = {}
        # the state is cut into as many blocks as the edges; every
        # block of either side is a task of each shuffle
        self._blocks = max(1, edges.num_blocks())
        self._nodes = ray.data.from_arrow(
            [pa.table({"node": c})
             for c in np.array_split(nodes, self._blocks)])

    def _edge_rows(self, reverse: bool) -> ray.data.Dataset:
        """The edges as rows in their sender's bucket, once per
        direction."""
        if reverse not in self._dirs:
            edges, src, dst, weight = self._edges
            a, b = (dst, src) if reverse else (src, dst)
            B = self._B

            def rows(t: pa.Table) -> pa.Table:
                u = _blk_col(t, a).astype(np.int64)
                v = _blk_col(t, b).astype(np.int64)
                cols = {"node": u, "__to": v,
                        "__tb": _int_bucket_ids(v, B)}
                if weight:
                    cols["__w"] = _blk_col(t, weight).astype(np.int64)
                return _rows(_EDGE, _int_bucket_ids(u, B), cols)

            self._dirs[reverse] = edges.map_batches(
                rows, batch_format="pyarrow").materialize()
        return self._dirs[reverse]

    def state(self, init) -> ray.data.Dataset:
        B = self._B

        def rows(t: pa.Table) -> pa.Table:
            node = _blk_col(t, "node")
            return _rows(_STATE, _int_bucket_ids(node, B),
                         {"node": node, **init(node)})

        return self._nodes.map_batches(rows, batch_format="pyarrow")

    def round(self, s: ray.data.Dataset, send, combine: str, apply,
              reverse: bool = False, accept=None) -> ray.data.Dataset:
        B = self._B
        msgs = self._edge_rows(reverse).union(s).groupby("__b") \
            .map_groups(lambda t: _speak(t, send), batch_format="pyarrow")
        new = msgs.union(s).groupby("__b").map_groups(
            lambda t: _listen(t, send, combine, apply, accept, B),
            batch_format="pyarrow")
        # each shuffle emits one block per input block: without the
        # repartition the state's block count grows every round
        return mat(new.repartition(self._blocks))

    def update(self, s: ray.data.Dataset, fn) -> ray.data.Dataset:
        B = self._B

        def rows(t: pa.Table) -> pa.Table:
            c = _cols(t)
            c.update(fn(c))
            return _rows(_STATE, _int_bucket_ids(c["node"], B), c)

        return s.map_batches(rows, batch_format="pyarrow", batch_size=None)

    def sum(self, s: ray.data.Dataset, fn) -> float:
        def part(t: pa.Table) -> pa.Table:
            return pa.table({"x": [float(fn(_cols(t)).sum())]})

        return s.map_batches(part, batch_format="pyarrow",
                             batch_size=None).sum("x") or 0.0

    def table(self, s: ray.data.Dataset, fn) -> ray.data.Dataset:
        return s.map_batches(lambda t: pa.table(fn(_cols(t))),
                             batch_format="pyarrow", batch_size=None)


def _rounds(edges: ray.data.Dataset, src: str, dst: str,
            weight: str | None = None, state_bytes=lambda n, m: 0):
    """The round backend of one algorithm run, by the plan rule:
    :class:`_IndexedEdges` when plan A's driver state fits, else
    :class:`_DatasetRounds`. Both hold the sorted node ids as
    ``nodes``."""
    ie = _IndexedEdges(edges, src, dst, weight, state_bytes)
    return ie if ie.fits else _DatasetRounds(edges, src, dst, weight,
                                             ie.nodes)


def _share(r: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """The rank a node sends along each out-edge (0 when dangling)."""
    out = deg > 0
    return np.where(out, r / np.where(out, deg, 1.0), 0.0)


def pagerank(edges: ray.data.Dataset, src: str = "src", dst: str = "dst",
             iters: int = 5, damping: float = 0.85,
             ndigits: int = 9) -> ray.data.Dataset:
    """PageRank over a directed edge Dataset; returns Dataset(node, rank).

    Multi-edges count multiply (dedup upstream if unwanted). See the
    module docstring for semantics, rounding, and the backends. The
    state is rank, out-degree and per-edge share (with the ids and the
    round's sum, 48 bytes per node on plan A); a round sends each
    node's share along its out-edges and sums it per receiver."""
    # materialize once; rebalance only when the incoming block count is
    # unsuitable for the per-block dense reduce (each extra pass over
    # the edges is a whole executor run)
    edges = _bounded_blocks(edges)
    g = _rounds(edges, src, dst, state_bytes=lambda n, m: 48 * n)
    n = g.n
    base = (1.0 - damping) / n
    s = g.state(lambda node: {
        "r": _round9(np.full(len(node), 1.0 / n), ndigits)})
    # out-degrees: one reverse round of unit messages
    s = g.round(s, lambda s, i, e: (None, np.ones(len(i))), "sum",
                lambda s, deg, _: {"deg": deg, "c": _share(s["r"], deg)},
                reverse=True)
    for _ in range(iters):
        dangling = g.sum(s, lambda s: s["r"][s["deg"] == 0]) / n

        def apply(s, inc, _, dangling=dangling):
            r = _round9(base + damping * (inc + dangling), ndigits)
            return {"r": r, "c": _share(r, s["deg"])}

        s = g.round(s, lambda s, i, e: (None, s["c"][i]), "sum", apply)
    return g.table(s, lambda s: {"node": s["node"], "rank": s["r"]})


def sssp_hops(edges: ray.data.Dataset, source: int, src: str = "src",
              dst: str = "dst") -> ray.data.Dataset:
    """Single-source shortest path in hops (BFS layers) — 'sssp' in the
    reference's Pregel algorithm list (arguments.py:187), run
    server-side there. Returns Dataset(node, dist) for REACHED nodes
    only (matches the recursive-CTE oracle's reachability semantics).

    One round per BFS layer: the nodes of the last layer send along
    their out-edges and every unreached receiver joins the next layer,
    until a layer is empty (exact BFS, no iteration cap; 24 bytes per
    node on plan A). Integer distances: the oracle is exact."""
    edges = _bounded_blocks(edges)
    g = _rounds(edges, src, dst, state_bytes=lambda n, m: 24 * n)
    s = g.state(lambda node: {"dist": np.where(node == source, 0, -1)})
    if not g.sum(s, lambda s: s["dist"] == 0):
        # isolated source: the seeded-CTE oracle semantics — one row
        # (source, 0) — not an error (matches the pre-round-4 contract)
        return ray.data.from_arrow(pa.table({
            "node": pa.array([source], pa.int64()),
            "dist": pa.array([0], pa.int64())}))
    d = 0
    while True:
        d += 1

        def layer(s, hit, _, d=d):
            return {"dist": np.where((hit > 0) & (s["dist"] < 0), d,
                                     s["dist"])}

        s = g.round(s, lambda s, i, e, d=d: (s["dist"][i] == d - 1,
                                             np.ones(len(i))),
                    "sum", layer)
        if not g.sum(s, lambda s, d=d: s["dist"] == d):
            break
    return g.table(s, _reached(-1))


def _moved(s):
    """The flag a round sets on each node it changed; its sum is the
    convergence test."""
    return s["moved"]


def _reached(unreached):
    """Output columns (node, dist) of the nodes whose distance is not
    ``unreached``."""
    def fn(s):
        ok = s["dist"] != unreached
        return {"node": s["node"][ok], "dist": s["dist"][ok]}
    return fn


def hits(edges: ray.data.Dataset, src: str = "src", dst: str = "dst",
         iters: int = 5, ndigits: int = 9) -> ray.data.Dataset:
    """HITS hubs-and-authorities ('hits' in the reference's Pregel
    algorithm list, arguments.py:187). Classic power iteration:
    auth(v) = sum of hub(u) over in-edges, hub(u) = sum of auth(v) over
    out-edges, each L2-normalized and rounded per round (IEEE sqrt is
    correctly rounded, so per-round rounding again pins the result
    across summation orders). Each half-round is one summing round and
    one scalar sum (the norm); 40 bytes per node on plan A."""
    edges = _bounded_blocks(edges)
    g = _rounds(edges, src, dst, state_bytes=lambda n, m: 40 * n)

    def norm(x: np.ndarray, s: float) -> np.ndarray:
        return _round9(x / s, ndigits) if s > 0 else x

    n = g.n
    s = g.state(lambda node: {
        "hub": norm(np.ones(len(node)), np.sqrt(float(n))),
        "auth": np.zeros(len(node))})
    for _ in range(iters):
        s = g.round(s, lambda s, i, e: (None, s["hub"][i]), "sum",
                    lambda s, a, _: {"auth": a})
        a = np.sqrt(g.sum(s, lambda s: s["auth"] * s["auth"]))
        s = g.update(s, lambda s, a=a: {"auth": norm(s["auth"], a)})
        s = g.round(s, lambda s, i, e: (None, s["auth"][i]), "sum",
                    lambda s, h, _: {"hub": h}, reverse=True)
        h = np.sqrt(g.sum(s, lambda s: s["hub"] * s["hub"]))
        s = g.update(s, lambda s, h=h: {"hub": norm(s["hub"], h)})
    return g.table(s, lambda s: {"node": s["node"], "hub": s["hub"],
                                 "auth": s["auth"]})


def _hll_init_regs(nodes: np.ndarray, p: int) -> np.ndarray:
    """Initial HyperBall register matrix: each node's ball contains
    itself — one splitmix64 hash per node sets a single register."""
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
    correction — pure float64 numpy, so every backend agrees
    bit-for-bit on identical registers."""
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

    A round sends each node's registers against its in-edges (a
    reverse round) and takes the elementwise max per receiver; rounds
    stop when no register moves. Plan A holds three n x 2^p byte
    matrices (registers, the round's merged candidates and the next
    registers), so the width ``p`` enters the plan rule; on raw tasks
    the edges are sorted by source (:func:`_by_src`). On plan B the
    registers are a fixed_size_binary column."""
    m = 1 << p
    g = _rounds(_by_src(edges, src), src, dst,
                state_bytes=lambda n, _: 3 * m * n)

    def init(node):
        regs = _hll_init_regs(node, p)
        return {"regs": regs, "est": _hll_estimate(regs, m),
                "sd": np.zeros(len(node))}

    s = g.state(init)
    for d in range(1, max_rounds + 1):
        def union(s, cand, has, d=d):
            regs = np.where(has[:, None], np.maximum(s["regs"], cand),
                            s["regs"])
            est = _hll_estimate(regs, m)
            return {"regs": regs, "est": est,
                    "sd": s["sd"] + d * np.maximum(est - s["est"], 0.0),
                    "moved": (regs != s["regs"]).any(axis=1)}

        s = g.round(s, lambda s, i, e: (None, s["regs"][i]), "max", union,
                    reverse=True)
        if not g.sum(s, _moved):
            break

    def closeness(s):
        reached = np.maximum(s["est"] - 1.0, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            clos = np.where(s["sd"] > 0, reached / s["sd"], 0.0)
        return {"node": s["node"], "closeness": _round9(clos, ndigits)}

    return g.table(s, closeness)


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

    A round sends dist + w along the out-edges of reached nodes and
    takes the min per receiver (int64, integer min is order-invariant);
    it stops early when no distance moves. 32 bytes per node on
    plan A."""
    INF = np.int64(2**62)

    edges = _bounded_blocks(edges)
    g = _rounds(edges, src, dst, weight=weight,
                state_bytes=lambda n, m: 32 * n)
    s = g.state(lambda node: {"dist": np.where(node == source, 0, INF)})
    if not g.sum(s, lambda s: s["dist"] == 0):
        raise ValueError(f"source {source} has no edges in the graph")

    def relax(s, i, e):
        d = s["dist"][i]
        return d < INF, d + e["w"]

    def apply(s, cand, has):
        new = np.where(has, np.minimum(s["dist"], cand), s["dist"])
        return {"dist": new, "moved": new != s["dist"]}

    for _ in range(rounds):
        s = g.round(s, relax, "min", apply)
        if not g.sum(s, _moved):
            break
    return g.table(s, _reached(INF))


def _ren(ds: ray.data.Dataset, mapping: dict[str, str],
         keep: list[str]) -> ray.data.Dataset:
    """Project+rename helper for the int64 joins of this module: emits
    ``keep`` output columns, each sourced from
    ``mapping.get(name, name)``."""
    def f(t: pa.Table) -> pa.Table:
        return pa.table({k: pc.cast(t[mapping.get(k, k)], pa.int64())
                         for k in keep})
    return ds.map_batches(f, batch_format="pyarrow")


def _ijoin(left, right, key, how, left_cols, right_cols):
    """hash_join of all-int64 inputs with explicit column NAMES and
    DTYPES, so hash_join never schema-fetches a lazy input (on a plan
    with a sort/aggregate barrier that fetch EXECUTES the whole join
    chain once per call, and cancels the rest of that execution)."""
    from kgeng.ops.join import hash_join
    return hash_join(left, right, key=key, how=how,
                     left_cols=list(left_cols),
                     right_cols=list(right_cols),
                     left_types={c: "int64" for c in left_cols},
                     right_types={c: "int64" for c in right_cols})


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
    joined = _ijoin(left, right, key="k", how="inner",
                    left_cols=["k", "a_hi", "a_lo"],
                    right_cols=["k", "b_hi", "b_lo"])

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


def _from_active(s, i, e):
    """Send 1.0 along every edge of an active sender."""
    return s["active"][i], np.ones(len(i))


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
    Every phase is a run of rounds (64 bytes per node on plan A), each
    a count or an integer min, so the result is the same on every
    backend. Returns Dataset(node, scc_id) where scc_id = min node id in
    the component (so the result is partition- and order-invariant by
    construction)."""
    edges = _bounded_blocks(edges)
    g = _rounds(edges, src, dst, state_bytes=lambda n, m: 64 * n)
    s = g.state(lambda node: {"scc_id": np.full(len(node), -1, np.int64),
                              "active": np.ones(len(node), bool)})

    def trim(s, outdeg, _):
        t = s["active"] & ((s["indeg"] == 0) | (outdeg == 0))
        return {"scc_id": np.where(t, s["node"], s["scc_id"]),
                "active": s["active"] & ~t, "moved": t}

    def color(s, lab, has):
        new = np.where(has & s["active"], np.minimum(s["lab"], lab),
                       s["lab"])
        return {"lab": new, "moved": new != s["lab"]}

    def reach(s, _, has):
        return {"reach": s["reach"] | has, "moved": has & ~s["reach"]}

    while g.sum(s, lambda s: s["active"]):
        # ---- trim: peel trivial SCCs (no active in- or out-edges)
        while True:
            s = g.round(s, _from_active, "sum",
                        lambda s, indeg, _: {"indeg": indeg})
            s = g.round(s, _from_active, "sum", trim, reverse=True)
            if not g.sum(s, _moved):
                break
        if not g.sum(s, lambda s: s["active"]):
            break
        # ---- forward min-label coloring to fixpoint
        s = g.update(s, lambda s: {"lab": np.where(
            s["active"], s["node"], np.int64(1 << 62))})
        while True:
            s = g.round(s, lambda s, i, e: (s["active"][i], s["lab"][i]),
                        "min", color)
            if not g.sum(s, _moved):
                break
        # ---- multi-pivot backward reachability within colors: an
        # active v joins when an edge v->u leads to a reached u of v's
        # color
        s = g.update(s, lambda s: {
            "reach": s["active"] & (s["lab"] == s["node"])})
        while True:
            s = g.round(
                s, lambda s, i, e: (s["reach"][i], s["lab"][i]),
                "min", reach, reverse=True,
                accept=lambda s, j, lab: s["active"][j]
                & (s["lab"][j] == lab))
            if not g.sum(s, _moved):
                break
        s = g.update(s, lambda s: {
            "scc_id": np.where(s["reach"], s["lab"], s["scc_id"]),
            "active": s["active"] & ~s["reach"]})
    return g.table(s, lambda s: {"node": s["node"],
                                 "scc_id": s["scc_id"]})


def _slpa_speak(s: dict, i: np.ndarray, e, r: int):
    """One SLPA speak step: edge u->v delivers one label of speaker u's
    memory, the slot chosen by a partition-invariant hash of
    (round, u id, v id) over the r filled slots."""
    from kgeng.ops.agg import _splitmix64

    h = _splitmix64(s["node"][i].astype(np.uint64)
                    ^ (e["dst"].astype(np.uint64)
                       * np.uint64(0x9E3779B97F4A7C15))
                    ^ np.uint64(r))
    slot = (h % np.uint64(r)).astype(np.int64)
    lab = np.empty(len(i), np.int64)
    for k in range(r):
        at = slot == k
        lab[at] = s[f"m{k}"][i[at]]
    return None, lab


def _slpa_communities(s: dict, rounds: int, threshold: float) -> dict:
    """SLPA's result per node: count each label's occurrences across
    the rounds+1 memory slots, pick the (count desc, label asc) winner,
    threshold-filter the community set."""
    node = s["node"]
    n, R = len(node), rounds + 1
    M = np.stack([s[f"m{i}"] for i in range(R)], axis=1)
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
    return {"node": node, "primary_label": prim, "n_communities": ncom,
            "communities": pa.array(coms, pa.string())}


def slpa(edges: ray.data.Dataset, src: str = "src", dst: str = "dst",
         rounds: int = 10, threshold: float = 0.2) -> ray.data.Dataset:
    """SLPA overlapping community detection ('slpa' in the reference's
    Pregel list, arguments.py:187-188), deterministic variant: the
    speaker's memory slot is chosen by a hash of (round, speaker id,
    listener id) — partition/order invariant, so results are stable
    across cluster shapes (pinned rather than SQL-checked: the
    algorithm is inherently non-relational). The label memory is
    rounds+1 int64 columns of node ids; each speak step is one round
    whose listeners keep the most frequent label heard (ties to the
    smallest; silent listeners keep themselves).

    Returns Dataset(node, primary_label, n_communities, communities)
    where communities are the labels (node ids) held in >= threshold
    of memory, sorted, '|'-joined."""
    edges = _bounded_blocks(edges)
    g = _rounds(edges, src, dst,
                state_bytes=lambda n, m: 8 * (rounds + 1) * n)
    s = g.state(lambda node: {"m0": node})
    for r in range(1, rounds + 1):
        s = g.round(s, lambda s, i, e, r=r: _slpa_speak(s, i, e, r),
                    "mode",
                    lambda s, lab, heard, r=r: {
                        f"m{r}": np.where(heard, lab, s["node"])})
    return g.table(s, lambda s: _slpa_communities(s, rounds, threshold))


# --------------------------------------- label propagation (communities)

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

    Each round is one "mode" round: on plan A one packed
    (receiver, label) ``unique`` per edge block, merged on the driver by
    an argmax lexsort. A full Dataset execution per round (joins +
    2-key groupby + bucketed top-1) measured ~60 s of pure fixed
    scheduling per round at bench scale for milliseconds of numpy. The
    driver holds three n-vectors and the round's pair stream with its
    sorted copy (24 bytes per node, 32 per edge)."""
    edges = _bounded_blocks(edges)
    g = _rounds(edges, src, dst,
                state_bytes=lambda n, m: 24 * n + 32 * m)
    s = g.state(lambda node: {"label": node})
    for _ in range(rounds):
        s = g.round(s, lambda s, i, e: (None, s["label"][i]), "mode",
                    lambda s, top, heard: {
                        "label": np.where(heard, top, s["label"])})
    return g.table(s, lambda s: {"node": s["node"], "label": s["label"]})


# ------------------------------------------ exact bounded BFS (balls)

def _exact_balls(edges: ray.data.Dataset, src: str, dst: str,
                 max_hops: int, lcm: int, finish) -> ray.data.Dataset:
    """Exact bounded BFS from every node at once, as one vertex program
    (HyperBall, Boldi & Vigna 2013, with exact registers): each node's
    state ``b`` is the packed bitset of the nodes it reaches, bit j the
    node of row j in the sorted ids, and round d ORs in the sets of its
    out-neighbors (a reverse round, the "or" combine). The popcount
    growth of round d is the number of nodes at distance exactly d,
    accumulated as integers: ``reached`` (self included), ``sd`` (sum of
    d x new) and ``hs`` (sum of lcm//d x new). Rounds stop after
    ``max_hops`` or when no set grows. Plan A holds the sets, the
    round's merged candidates and the new sets per node, and the
    messages with their sorted copy per edge, each a ceil(n/8)-byte
    row. Returns the rows ``finish(s)`` gives."""
    g = _rounds(_by_src(edges, src), src, dst,
                state_bytes=lambda n, m: (3 * n + 2 * m) * -(-n // 8))
    ids, width = g.nodes, -(-g.n // 8)
    # popcount of every byte value (numpy 1.26 has no bitwise_count)
    ones = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                         axis=1).sum(axis=1).astype(np.uint8)

    def init(node):
        j = np.searchsorted(ids, node)
        b = np.zeros((len(node), width), np.uint8)
        b[np.arange(len(node)), j >> 3] = np.left_shift(1, j & 7)
        zero = np.zeros(len(node), np.int64)
        return {"b": b, "reached": zero + 1, "sd": zero, "hs": zero}

    s = g.state(init)
    for d in range(1, max_hops + 1):
        def grow(s, cand, _, d=d):
            b = s["b"] | cand
            new = ones[b].sum(axis=1, dtype=np.int64) - s["reached"]
            return {"b": b, "reached": s["reached"] + new,
                    "sd": s["sd"] + d * new,
                    "hs": s["hs"] + lcm // d * new, "moved": new > 0}

        s = g.round(s, lambda s, i, e: (None, s["b"][i]), "or", grow,
                    reverse=True)
        if not g.sum(s, _moved):
            break
    return g.table(s, finish)


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
    recursive-CTE oracle bit-exact. The BFS is the exact-ball vertex
    program :func:`_exact_balls`, on every backend. Its state is
    inherently quadratic (n^2 bits), so this exact op is the
    VERIFY-stage twin of ``effective_closeness`` (HyperBall) — the
    sketch is the 100-TB path."""
    import math

    lcm = math.lcm(*range(1, max_hops + 1))
    return _exact_balls(edges, src, dst, max_hops, lcm, lambda s: {
        "node": s["node"],
        "harmonic": pc.round(
            pc.divide(pc.cast(pa.array(s["hs"]), pa.float64()),
                      float(lcm)), ndigits=ndigits,
            round_mode="half_towards_infinity")})


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
    on the same exact-ball program as :func:`bounded_harmonic`."""
    def finish(s):
        cnt, sd = s["reached"] - 1, s["sd"]
        clos = np.where(sd > 0, cnt / np.maximum(sd, 1), 0.0)
        return {"node": s["node"],
                "closeness": pc.round(pa.array(clos), ndigits=ndigits,
                                      round_mode="half_towards_infinity")}

    return _exact_balls(edges, src, dst, max_hops, 1, finish)


# ------------------------------------------------------------ triangles

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
    dropped, duplicates/reversals collapsed — one :func:`by_key`
    shuffle of id pairs with a per-bucket ``lexsort`` dedup."""

    def canon(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        keep = u != v
        return pa.table({"u": pa.array(u[keep]), "v": pa.array(v[keep])})

    def dedup_group(df: pd.DataFrame) -> pa.Table:
        u = df["u"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        keep = np.ones(u.size, bool)
        keep[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        return pa.table({"u": pa.array(u[keep]), "v": pa.array(v[keep])})

    return by_key(edges.map_batches(canon, batch_format="pyarrow"),
                  ["u", "v"], dedup_group)


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
    (the wedge co-location by pivot and the final
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
    n_chunks = int(max(1, min(_WEDGE_CHUNKS, total_w // 20_000 + 1,
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
    node-sized on the driver). Returns Dataset(a, b, db): edge a -> b
    and b's degree. Out-degree after orientation is O(sqrt(m)), which
    bounds both the pivot groups and the total wedge count to O(m^1.5).
    Materialized: the wedges and the closure both read it."""
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
        return pa.table({"a": pa.array(np.where(ufirst, u, v)),
                         "b": pa.array(np.where(ufirst, v, u)),
                         "db": pa.array(np.where(ufirst, dv, du))})

    return dj2.map_batches(orient, batch_format="pyarrow").materialize()


def _pivot_wedges(df: pd.DataFrame):
    """All wedges of one :func:`by_key` bucket of oriented edges, keyed
    by pivot: per pivot ``a``, its out-neighbors sorted by (deg, id), so
    an emitted wedge (v, w) is already in oriented-edge order. Returns
    the (pivot, v, w) arrays."""
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
      generated per pivot bucket, then semi-merged against the
      oriented edge set in one :func:`by_key` shuffle on (v, w) (exact
      two-column pandas merge per bucket) and reduced by
      ``groupby(node).sum``.
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

    wedges = by_key(oriented, "a", wedges_group)

    def edge_tagged(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        return pa.table({"v": pa.array(a), "w": pa.array(b),
                         "pivot": pa.array(np.full(a.size, -1, np.int64)),
                         "tag": pa.array(np.zeros(a.size, np.int8))})

    both = wedges.union(oriented.map_batches(edge_tagged,
                                             batch_format="pyarrow"))

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

    return by_key(both, ["v", "w"], close_group) \
        .groupby("node").sum("cnt") \
        .map_batches(lambda t: t.rename_columns(["node", "n_triangles"]),
                     batch_format="pyarrow")


def k_core(edges: ray.data.Dataset, k: int, src: str = "src",
           dst: str = "dst", max_rounds: int = 200) -> ray.data.Dataset:
    """The k-core of an undirected graph (maximal subgraph where every
    node has degree >= k), by iterative peeling as a vertex program
    over the canonical undirected edges: a node stays ``active`` while
    its degree among active nodes is at least ``k``. Each peel is one
    forward and one reverse summing round of 1 from every active sender
    (the in- plus out-degree, as in scc's trim; 40 bytes per node on
    plan A). A peel moves the active nodes whose degree fell to
    1..k-1; one left with no active neighbor leaves too, uncounted, as
    it holds no edge any more. Converges when a peel moves nothing;
    ``max_rounds`` peels raise loudly instead of looping silently
    (pathological chains peel one node per round — raise k or
    pre-trim). Returns (node, deg): the surviving nodes with their
    in-core degrees. Exact, all-integer.

    Reference analogue: none (the reference delegates all graph
    analytics to server-side Pregel, start_Pregel.py:194-198); k-core
    completes the native family (pagerank/sssp/hits/closeness/
    harmonic/scc/slpa/triangles/components)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    e = _bounded_blocks(_canonical_undirected(edges, src, dst))
    g = _rounds(e, "u", "v", state_bytes=lambda n, m: 40 * n)
    s = g.state(lambda node: {"active": np.ones(len(node), bool)})

    def peel(s, outdeg, _):
        deg = (s["indeg"] + outdeg).astype(np.int64)
        return {"deg": deg, "active": s["active"] & (deg >= k),
                "moved": s["active"] & (deg > 0) & (deg < k)}

    for _ in range(max_rounds):
        s = g.round(s, _from_active, "sum",
                    lambda s, indeg, _: {"indeg": indeg})
        s = g.round(s, _from_active, "sum", peel, reverse=True)
        if not g.sum(s, _moved):
            return g.table(s, lambda s: {"node": s["node"][s["active"]],
                                         "deg": s["deg"][s["active"]]})
    raise RuntimeError(
        f"k_core did not converge within {max_rounds} rounds "
        f"(k={k}); raise max_rounds or pre-trim the graph")


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
    from kgeng.ops.join import hash_join

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["src", "dst"], kind="mergesort")
        rk = g.groupby("src", sort=False).cumcount()
        return pd.DataFrame({
            "k": g["src"].astype(str) + ":" + rk.astype(str),
            "dst": g["dst"]})

    adjr = by_key(adj, "src", per_bucket).materialize()
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

    wedges = by_key(oriented, "a", wedges_group)
    epk = oriented.map_batches(
        lambda t: pa.table({"vw": pack(
            t["a"].to_numpy(zero_copy_only=False),
            t["b"].to_numpy(zero_copy_only=False))}),
        batch_format="pyarrow")
    closed = _ijoin(wedges, epk, key="vw", how="semi",
                    left_cols=["vw", "pv", "pw"], right_cols=["vw"])

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
