"""The four benchmark workloads. Each one generates its inputs from the
seed (``generate``), readies its steady state (``prepare``), and then runs
one operation at a time (``op``), whose output ``check`` verifies.

All kgeng entry points are looked up on their modules at call time, so the
traced run's wrappers (perfbench/tracing.py) see every call.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import checks, inputs, procs
from perfbench.tracing import dir_stats

# ---- input sizes (README.md explains each choice) -------------------------
BUILD_DOCS = 3072            # kg_build: dense docs, 200-entity world
BUILD_PART_ROWS = 512
WIDE_DOCS = 2048             # kg_wide: short docs over a large world
WIDE_ENTITIES = 2500
WIDE_WORD_REUSE = 4
WIDE_PART_ROWS = 512
APPEND_BASE_DOCS = 3072      # kg_append: 3 base parts + 1 fragment
APPEND_FRAG_DOCS = 1024
APPEND_SHARDS = 4
IMPORT_VERTICES = 8_000     # graph_import: edge-list file
IMPORT_EDGES = 60_000
IMPORT_WEIGHTED = 0.3
IMPORT_COMMENT_EVERY = 1000


def import_kgeng(batch):
    """Identity batch function that imports every kgeng module the
    workloads run in Ray workers."""
    import kgeng.io.bulk_sink  # noqa: F401
    import kgeng.io.graph_files  # noqa: F401
    import kgeng.ops.graph  # noqa: F401
    import kgeng.pipeline  # noqa: F401
    return batch


def _golden(d: str) -> tuple[pa.Table, set]:
    gold = pq.read_table(os.path.join(d, "golden_triples.parquet"),
                         columns=["subj", "pred", "obj"])
    ids = set(pq.read_table(os.path.join(d, "golden_entities.parquet"),
                            columns=["entity_id"])["entity_id"].to_pylist())
    return gold, ids


def _corpus_files(d: str) -> list[str]:
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet"))


class _KG:
    """Shared shape of the KG workloads: a fresh ``KGPipeline.run`` with
    checkpoints and ``out_dir`` per operation."""

    num_shards: int | None = None
    exact = False

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.inp = os.path.join(work, "in")
        self.ck = os.path.join(work, "ck")
        self.out = os.path.join(work, "out")
        self.corpus = os.path.join(self.inp, "corpus")
        self.gaz = os.path.join(self.inp, "gazetteer.parquet")
        self.n_triples = None

    def prepare(self) -> None:
        self.golden, self.golden_ids = _golden(self.inp)
        # warm-up: one build over the first part file, so no measured
        # operation pays a first call's costs
        warm = os.path.join(self.work, "warm")
        os.makedirs(os.path.join(warm, "corpus"))
        first = _corpus_files(self.corpus)[0]
        shutil.copyfile(first, os.path.join(warm, "corpus",
                                            os.path.basename(first)))
        self._run(os.path.join(warm, "corpus"), os.path.join(warm, "ck"),
                  os.path.join(warm, "out"))
        shutil.rmtree(warm)

    def _run(self, corpus=None, ck=None, out=None) -> float:
        from kgeng.pipeline import KGPipeline

        cpu0, t0 = procs.tree_cpu_s(), time.monotonic()
        res = KGPipeline(checkpoint_root=ck or self.ck,
                         num_shards=self.num_shards).run(
            corpus or self.corpus, self.gaz, out_dir=out or self.out)
        wall = time.monotonic() - t0
        self.cpu_s = procs.tree_cpu_s() - cpu0
        self.n_triples = res["n_triples"]
        return wall

    def op(self) -> float:
        shutil.rmtree(self.ck, ignore_errors=True)
        shutil.rmtree(self.out, ignore_errors=True)
        return self._run()

    def check(self) -> list[str]:
        return checks.check_graph(self.out, self.golden, self.golden_ids,
                                  self.n_triples, exact=self.exact)

    def output_bytes(self) -> int:
        return dir_stats(self.out)[0]

    def trace_counts(self, tracer) -> None:
        size, files = dir_stats(self.ck)
        tracer.count("checkpoint.bytes", size)
        tracer.count("checkpoint.files", files)

    def kernel_files(self) -> list[str]:
        return _corpus_files(self.corpus)

    def kernel_s(self) -> float:
        """Wall of the extract kernel (``Extract``) over the documents one
        operation extracts, in this process, with Ray out of the loop."""
        from kgeng.config import PipelineConfig
        from kgeng.ops.extract import Extract, load_gazetteer_dict

        det = Extract(load_gazetteer_dict(self.gaz), PipelineConfig().detect)
        tables = [pq.read_table(f) for f in self.kernel_files()]
        t0 = time.monotonic()
        for t in tables:
            for lo in range(0, t.num_rows, 2048):
                det(t.slice(lo, 2048))
        return time.monotonic() - t0


class KGBuild(_KG):
    rows = BUILD_DOCS

    def generate(self) -> None:
        inputs.dense_corpus(self.inp, BUILD_DOCS, self.seed,
                            BUILD_PART_ROWS)


class KGWide(_KG):
    rows = WIDE_DOCS

    def generate(self) -> None:
        inputs.wide_corpus(self.inp, WIDE_DOCS, WIDE_ENTITIES, self.seed,
                           WIDE_WORD_REUSE, WIDE_PART_ROWS)


class KGAppend(_KG):
    """Set-up builds the base with a fixed shard count and keeps a pristine
    copy of its checkpoints and graph. Each operation restores that copy
    (untimed), adds the fragment to the corpus, and re-runs: only the
    fragment's records shard may re-extract (the fragment and the one base
    part it shares the shard with), and the graph is rewritten."""

    rows = APPEND_FRAG_DOCS
    num_shards = APPEND_SHARDS
    exact = True

    def generate(self) -> None:
        self.parts = inputs.append_corpus(self.inp, APPEND_BASE_DOCS,
                                          APPEND_FRAG_DOCS, self.seed,
                                          APPEND_SHARDS)

    def prepare(self) -> None:
        golden_all = self.parts["golden_all"]
        self.golden = golden_all.select(["subj", "pred", "obj"])
        objs = [o for o in golden_all["obj"].to_pylist()
                if not o.startswith("media://")]
        self.golden_ids = set(golden_all["subj"].to_pylist()) | set(objs)
        self.frag_dst = os.path.join(
            self.corpus, os.path.basename(self.parts["fragment"]))
        super().op()  # the base build, which is also the warm-up
        base = checks.check_graph(
            self.out, self.parts["golden_base"], None, self.n_triples,
            exact=True)
        if base:
            raise RuntimeError(f"base build is wrong: {base}")
        self.ck_base, self.out_base = self.ck + ".base", self.out + ".base"
        os.rename(self.ck, self.ck_base)
        os.rename(self.out, self.out_base)

    def op(self) -> float:
        shutil.rmtree(self.ck, ignore_errors=True)
        shutil.rmtree(self.out, ignore_errors=True)
        shutil.copytree(self.ck_base, self.ck)
        shutil.copytree(self.out_base, self.out)
        before = checks.records_manifests(self.ck)
        shutil.copyfile(self.parts["fragment"], self.frag_dst)
        try:
            wall = self._run()
        finally:
            os.remove(self.frag_dst)
        self.rewritten = checks.rewritten_shards(self.ck, before)
        return wall

    def check(self) -> list[str]:
        problems = super().check()
        want = {"shard=%05d" % checks.expected_shard(self.frag_dst,
                                                     APPEND_SHARDS)}
        if self.rewritten != want:
            problems.append(f"records shards re-extracted: "
                            f"{sorted(self.rewritten)}, want {sorted(want)}")
        return problems

    def kernel_files(self) -> list[str]:
        # the fragment and the base part that shares its records shard
        shard = checks.expected_shard(self.frag_dst, APPEND_SHARDS)
        return [self.parts["fragment"]] + [
            f for f in _corpus_files(self.corpus)
            if checks.expected_shard(f, APPEND_SHARDS) == shard]


def _int_edges(t: pa.Table) -> pa.Table:
    return pa.table({"src": t["_src_id"].cast(pa.int64()),
                     "dst": t["_dst_id"].cast(pa.int64())})


class GraphImport:
    """The reference's load-then-Pregel job: import an edge-list file as
    vertex and edge JSONL collections, then run PageRank, label
    propagation and triangle counting over its edges."""

    rows = IMPORT_EDGES

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.path = os.path.join(work, "edges.txt")
        self.out = os.path.join(work, "out")

    def generate(self) -> None:
        self.gen = inputs.edge_list(self.path, IMPORT_VERTICES,
                                    IMPORT_EDGES, self.seed,
                                    IMPORT_WEIGHTED, IMPORT_COMMENT_EVERY)

    def prepare(self) -> None:
        # warm-up: the whole job over a small file, so no measured
        # operation pays a first call's costs
        warm = os.path.join(self.work, "warm.txt")
        inputs.edge_list(warm, IMPORT_VERTICES // 10, IMPORT_EDGES // 10,
                         self.seed, IMPORT_WEIGHTED, IMPORT_COMMENT_EVERY)
        self._run(warm)
        os.remove(warm)

    def op(self) -> float:
        return self._run(self.path)

    def _run(self, path: str) -> float:
        from kgeng.io import bulk_sink, graph_files
        from kgeng.ops import graph

        shutil.rmtree(self.out, ignore_errors=True)
        cfg = graph_files.CompatGraphConfig()
        self.vdir = os.path.join(self.out, cfg.vertex_coll)
        self.edir = os.path.join(self.out, cfg.edge_coll)
        cpu0, t0 = procs.tree_cpu_s(), time.monotonic()
        vertices, edges = graph_files.import_edge_list(path, cfg)
        bulk_sink.write_jsonl_collection(vertices, self.vdir)
        bulk_sink.write_jsonl_collection(edges, self.edir)
        ints = graph_files.read_edge_file(path, cfg, smart_ids=False) \
            .map_batches(_int_edges, batch_format="pyarrow").materialize()
        self.pr = graph.pagerank(ints).to_pandas()
        self.lp = graph.label_propagation_communities(ints).to_pandas()
        self.tri = graph.triangle_counts(ints).to_pandas()
        wall = time.monotonic() - t0
        self.cpu_s = procs.tree_cpu_s() - cpu0
        return wall

    def check(self) -> list[str]:
        return (checks.check_import(self.vdir, self.edir, self.gen)
                + checks.check_analytics(self.gen, self.pr, self.lp,
                                         self.tri))

    def output_bytes(self) -> int:
        return dir_stats(self.out)[0]

    def trace_counts(self, tracer) -> None:
        pass

    def kernel_s(self) -> float:
        return 0.0


WORKLOADS = {"kg_build": KGBuild, "kg_wide": KGWide,
             "kg_append": KGAppend, "graph_import": GraphImport}
