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
    jw.test_triangle_counts_random_parity_both_plans,
    to.test_edge_triangle_support_plans_agree_and_match_bruteforce,
    to.test_labelprop_plans_agree,
]


@pytest.mark.parametrize("case", RAW_BACKEND_CASES,
                         ids=lambda f: f.__name__)
def test_raw_task_backend_passes_reference_tests(case):
    case(plans=("raw",))


def test_graph_functions_take_no_plan_parameters():
    """The plan is chosen from measured sizes only: no public function
    of the module takes a plan switch, a driver bound, a cutover or a
    bucket count."""
    banned = ("state", "num_buckets", "max_driver_*", "*cutover*")
    public = [f for name, f in vars(G).items()
              if inspect.isfunction(f) and not name.startswith("_")
              and f.__module__ == G.__name__]
    assert len(public) >= 16
    for f in public:
        for p in inspect.signature(f).parameters:
            assert not any(fnmatch.fnmatch(p, b) for b in banned), \
                (f.__name__, p)


ZERO_BUDGET_CASES = {
    "pagerank": lambda ds: G.pagerank(ds, iters=1),
    "hits": lambda ds: G.hits(ds, iters=1),
    "bellman_ford": lambda ds: G.bellman_ford_rounds(ds, 0, 1),
}


@pytest.mark.parametrize("name", ZERO_BUDGET_CASES)
def test_zero_budget_reaches_distributed_plan(name, monkeypatch):
    """The three algorithms that had no plan-B fallback before the
    budget: a zero budget sends each to its ``_*_distributed`` plan."""
    calls = []
    plan_b = getattr(G, f"_{name}_distributed")
    monkeypatch.setattr(G, f"_{name}_distributed",
                        lambda *a: calls.append(name) or plan_b(*a))
    ds = ray.data.from_arrow(pa.table({"src": [0, 1, 2, 2],
                                       "dst": [1, 2, 0, 3],
                                       "w": [1, 1, 1, 1]}))
    with graph_plan("distributed"):
        ZERO_BUDGET_CASES[name](ds).to_pandas()
    assert calls == [name]


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
    assert len(kernels) >= 10
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
