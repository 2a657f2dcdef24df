"""The plan rule of ops/graph: plan A runs in-process at or below
``graph._LOCAL_EDGES`` edges and on raw Ray tasks above
(_IndexedEdges and the triangle fast path), and plan B runs when plan
A's driver state exceeds ``graph._DRIVER_STATE_BYTES``."""

import fnmatch
import inspect

import numpy as np
import pyarrow as pa
import pytest
import ray.data

import tests.test_join_window as jw
import tests.test_training_ops as to
from kgeng.ops import agg, join, rank, sample, window
from kgeng.ops import graph as G
from tests.graph_plans import graph_plan

# every graph in these tests is far below the cutover, so on their own
# they check the in-process plan A against plan B; here each runs plan
# A on raw tasks
RAW_BACKEND_CASES = [
    jw.test_pagerank_plans_agree_and_match_numpy,
    jw.test_hits_matches_numpy_reference,
    jw.test_sssp_hops_matches_bfs_reference,
    jw.test_bellman_ford_rounds_matches_reference,
    jw.test_effective_closeness_tracks_exact_bfs,
    jw.test_scc_distributed_matches_plan_a_and_cutover,
    jw.test_slpa_distributed_matches_plan_a_and_cutover,
    jw.test_bounded_harmonic_matches_bfs_reference,
    jw.test_bounded_closeness_matches_bfs_reference,
    jw.test_k_core_random_parity_both_plans,
    jw.test_triangle_counts_random_parity_both_plans,
    to.test_edge_triangle_support_plans_agree_and_match_bruteforce,
    to.test_labelprop_plans_agree,
]


@pytest.mark.parametrize("case", RAW_BACKEND_CASES,
                         ids=lambda f: f.__name__)
def test_raw_task_backend_passes_reference_tests(case):
    case(plans=("raw",))


def _public(mod) -> list:
    return [f for name, f in vars(mod).items()
            if inspect.isfunction(f) and not name.startswith("_")
            and f.__module__ == mod.__name__]


def test_graph_functions_take_no_plan_parameters():
    """The plan is chosen from measured sizes only: no public function
    of the module takes a plan switch, a driver bound, a cutover or a
    bucket count. The keyed ops of window, rank, agg, join and sample
    take no bucket count either (``join._BUCKETS`` is the one count),
    except ``pack_sequences``: its bucket id is part of each
    ``seq_id``, which ``queries.packed_oracle_sql`` reproduces, so the
    count shapes the result."""
    banned = ("state", "num_buckets", "max_driver_*", "*cutover*")
    public = _public(G)
    assert len(public) >= 16
    for f in public:
        for p in inspect.signature(f).parameters:
            assert not any(fnmatch.fnmatch(p, b) for b in banned), \
                (f.__name__, p)
    keyed = [f for m in (window, rank, agg, join, sample)
             for f in _public(m) if f is not sample.pack_sequences]
    assert len(keyed) >= 40
    for f in keyed:
        assert "num_buckets" not in inspect.signature(f).parameters, \
            f.__name__


ZERO_BUDGET_CASES = {
    "pagerank": lambda ds: G.pagerank(ds, iters=1),
    "hits": lambda ds: G.hits(ds, iters=1),
    "bellman_ford": lambda ds: G.bellman_ford_rounds(ds, 0, 1),
    "sssp_hops": lambda ds: G.sssp_hops(ds, 0),
    "effective_closeness": lambda ds: G.effective_closeness(ds,
                                                            max_rounds=1),
    "scc": lambda ds: G.scc(ds),
    "slpa": lambda ds: G.slpa(ds, rounds=1),
    "label_propagation": lambda ds: G.label_propagation_communities(
        ds, rounds=1),
    "bounded_harmonic": lambda ds: G.bounded_harmonic(ds, max_hops=1),
    "bounded_closeness": lambda ds: G.bounded_closeness(ds, max_hops=1),
    "k_core": lambda ds: G.k_core(ds, k=2),
}


@pytest.mark.parametrize("name", ZERO_BUDGET_CASES)
def test_zero_budget_reaches_distributed_plan(name, monkeypatch):
    """Each of the eleven vertex programs runs its rounds on the
    Dataset backend (plan B) under a zero budget, and on no other
    backend."""
    calls = []
    for backend in (G._IndexedEdges, G._DatasetRounds):
        def spy(self, *a, _round=backend.round, **k):
            calls.append(type(self))
            return _round(self, *a, **k)
        monkeypatch.setattr(backend, "round", spy)
    ds = ray.data.from_arrow(pa.table({"src": [0, 1, 2, 2],
                                       "dst": [1, 2, 0, 3],
                                       "w": [1, 1, 1, 1]}))
    with graph_plan("distributed"):
        ZERO_BUDGET_CASES[name](ds).to_pandas()
    assert calls and set(calls) == {G._DatasetRounds}


@pytest.mark.parametrize("plan", ["local", "raw", "distributed"])
def test_mode_rounds_take_ids_spanning_int64(plan):
    """The "mode" combine packs (receiver, label) pairs into one int64
    when they fit and sorts two keys when they do not: label
    propagation over ids spread across the int64 range gives the rows
    of the same graph with dense ids, mapped back (the map keeps the id
    order, so ties break alike)."""
    rng = np.random.default_rng(23)
    src, dst = rng.integers(0, 30, 120), rng.integers(0, 30, 120)
    wide = np.sort(rng.choice(np.arange(-2**62, 2**62, 2**56),
                              30, replace=False))

    def run(ids):
        ds = ray.data.from_arrow(pa.table({"src": ids[src],
                                           "dst": ids[dst]}))
        out = G.label_propagation_communities(ds, rounds=3).to_pandas()
        return dict(zip(out["node"], out["label"]))

    with graph_plan(plan):
        got = run(wide)
    assert got == {wide[k]: wide[v] for k, v in run(np.arange(30)).items()}


@pytest.mark.parametrize("plan", ["local", "raw", "distributed"])
def test_exact_balls_take_ids_spanning_int64(plan):
    """The exact bounded centralities keep ids as int64 on every plan:
    over ids spread across the int64 range they give the rows of the
    same graph with dense ids, mapped back."""
    rng = np.random.default_rng(29)
    src, dst = rng.integers(0, 30, 90), rng.integers(0, 30, 90)
    wide = np.sort(rng.choice(np.arange(-2**62, 2**62, 2**56),
                              30, replace=False))

    def run(op, col, ids):
        ds = ray.data.from_arrow(pa.table({"src": ids[src],
                                           "dst": ids[dst]}))
        out = op(ds, max_hops=3).to_pandas()
        return dict(zip(out["node"], out[col]))

    for op, col in ((G.bounded_harmonic, "harmonic"),
                    (G.bounded_closeness, "closeness")):
        with graph_plan(plan):
            got = run(op, col, wide)
        dense = run(op, col, np.arange(30))
        assert got == {wide[k]: v for k, v in dense.items()}, col


@pytest.mark.parametrize("plan", ["local", "raw", "distributed"])
def test_k_core_max_rounds_raises(plan):
    """A 20-node chain peels two nodes per round at k=2, so two rounds
    cannot converge: k_core raises instead of returning a partial
    peel."""
    ds = ray.data.from_arrow(pa.table({"src": np.arange(19),
                                       "dst": np.arange(1, 20)}))
    with graph_plan(plan), pytest.raises(RuntimeError,
                                         match="did not converge"):
        G.k_core(ds, k=2, max_rounds=2).to_pandas()


def test_remaining_joins_pass_names_and_types(monkeypatch):
    """line_graph hands hash_join every column name and dtype, so no
    join fetches the schema of a lazy input; the exact bounded
    centralities and k_core join nothing on plan B."""
    from kgeng.ops import join

    calls = []
    real = join.hash_join
    monkeypatch.setattr(join, "hash_join",
                        lambda *a, **k: calls.append(k) or real(*a, **k))
    # a 4-clique plus a pendant node, which k_core(k=2) peels
    ds = ray.data.from_arrow(pa.table({"src": [0, 1, 2, 2, 3, 0, 3],
                                       "dst": [1, 2, 0, 3, 1, 3, 4]}))
    with graph_plan("distributed"):
        G.line_graph(ds).to_pandas()
        assert len(calls) == 1
        for arg in ("left_cols", "right_cols", "left_types",
                    "right_types"):
            assert calls[0].get(arg) is not None, (arg, calls[0])
        G.bounded_harmonic(ds, max_hops=2).to_pandas()
        G.bounded_closeness(ds, max_hops=2).to_pandas()
        G.k_core(ds, k=2).to_pandas()
    assert len(calls) == 1


def _graph(m: int) -> pa.Table:
    # skewed endpoints, so hubs and triangles exist
    rng = np.random.default_rng(m)
    nv = max(100, m // 8)
    return pa.table({"src": (rng.random(m) ** 2 * nv).astype(np.int64),
                     "dst": (rng.random(m) ** 2 * nv).astype(np.int64)})


def _analytics(ds: ray.data.Dataset) -> list:
    return [G.pagerank(ds).to_pandas().sort_values("node"),
            G.label_propagation_communities(ds).to_pandas()
            .sort_values("node"),
            G.triangle_counts(ds).to_pandas().sort_values("node")]


def test_small_graph_submits_no_raw_task(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("raw task submitted below the cutover")

    kernels = [f for f in vars(G).values()
               if inspect.isfunction(f) and hasattr(f, "remote")]
    assert {G._round_block, G._tri_wedge_chunk} <= set(kernels)
    for k in kernels:
        monkeypatch.setattr(k, "remote", refuse)
    pr, lp, tri = _analytics(
        ray.data.from_arrow(_graph(3000)).repartition(8))
    assert len(pr) == len(lp) > 0 and len(tri) > 0


def test_cutover_sweep_gives_identical_output(monkeypatch):
    """A graph of exactly ``_LOCAL_EDGES`` edges runs in-process and one
    of ``_LOCAL_EDGES + 1`` on raw tasks; each gives the same rows as
    the other backend does."""
    c = G._LOCAL_EDGES
    for m in (c, c + 1):
        ds = ray.data.from_arrow(_graph(m)).repartition(8).materialize()
        assert G._IndexedEdges(ds, "src", "dst").local == (m <= c)
        got = _analytics(ds)
        monkeypatch.setattr(G, "_LOCAL_EDGES", 0 if m <= c else m)
        want = _analytics(ds)
        monkeypatch.setattr(G, "_LOCAL_EDGES", c)
        for g, w in zip(got, want):
            assert g.reset_index(drop=True).equals(
                w.reset_index(drop=True)), m
