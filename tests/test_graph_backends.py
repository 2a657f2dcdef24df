"""The two backends of the plan-A graph rounds (ops/graph._IndexedEdges
and the triangle fast path): in-process at or below
``graph._LOCAL_EDGES`` edges, raw Ray tasks above."""

import inspect

import numpy as np
import pyarrow as pa
import pytest
import ray.data

import tests.test_join_window as jw
import tests.test_training_ops as to
from kgeng.ops import graph as G

# every graph in these tests is far below the cutover, so on their own
# they check the in-process backend; here each runs once more on raw
# tasks
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
def test_raw_task_backend_passes_reference_tests(case, monkeypatch):
    monkeypatch.setattr(G, "_LOCAL_EDGES", 0)
    case()


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
