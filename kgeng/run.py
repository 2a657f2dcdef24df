"""CLI entry point — ``python -m kgeng.run`` (ray-job-submittable).

The analogue of the reference's importer.py / generator.py CLIs (§3 of
SURVEY.md): subcommands select a pipeline; Ray is initialised here (the
only library-adjacent place that owns a session) unless one exists.

    python -m kgeng.run kg --corpus DIR --gazetteer F --out DIR [--checkpoint DIR]
    python -m kgeng.run synth-corpus --n-docs N --out DIR
    python -m kgeng.run import-graphalytics --dir D --out DIR
    python -m kgeng.run import-edge-list --file F --out DIR
    python -m kgeng.run generate --graphtype clique|cliques-graph|k-partite ...
    python -m kgeng.run status --checkpoint DIR
    python -m kgeng.run query [NAME] [--sf-dir D] [--out F] [--limit N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ensure_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        # honor RAY_ADDRESS so `ray job submit` drivers attach to the
        # submitting cluster ("auto" inside a job runtime) instead of
        # forcing a fresh local instance; this sandbox presets
        # RAY_ADDRESS=local, so standalone behavior is unchanged.
        # num_cpus only applies to a locally-started instance — an
        # existing cluster's size is the cluster's own business.
        addr = os.environ.get("RAY_ADDRESS", "local")
        kw = {"num_cpus": num_cpus} if addr == "local" else {}
        ray.init(address=addr, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR", **kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv=None):
    p = argparse.ArgumentParser(prog="kgeng")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    kg = sub.add_parser("kg", help="run the KG-construction pipeline")
    kg.add_argument("--corpus", required=True)
    kg.add_argument("--gazetteer", required=True)
    kg.add_argument("--out", required=True)
    kg.add_argument("--checkpoint", default=None,
                    help="checkpoint root; a rerun over it resumes "
                         "(default: a temp dir removed at exit)")
    kg.add_argument("--no-resume", action="store_true")
    kg.add_argument("--num-shards", type=int, default=None)  # None = auto (size-based)

    sc = sub.add_parser("synth-corpus", help="generate a synthetic corpus")
    sc.add_argument("--n-docs", type=int, required=True)
    sc.add_argument("--out", required=True)
    sc.add_argument("--seed", type=int, default=None)

    ig = sub.add_parser("import-graphalytics")
    ig.add_argument("--dir", required=True)
    ig.add_argument("--out", required=True)
    ig.add_argument("--smart-attribute", default="smartProp")

    ie = sub.add_parser("import-edge-list")
    ie.add_argument("--file", required=True)
    ie.add_argument("--out", required=True)
    ie.add_argument("--smart-attribute", default="smartProp")

    ge = sub.add_parser("generate")
    ge.add_argument("--graphtype", required=True,
                    choices=["clique", "cliques-graph", "k-partite"])
    ge.add_argument("--out", required=True)
    ge.add_argument("--size", type=int, default=100)
    ge.add_argument("--num-parts", type=int, default=3)
    ge.add_argument("--min-size", type=int, default=10)
    ge.add_argument("--max-size", type=int, default=20)
    ge.add_argument("--prob-missing", type=float, default=0.0)
    ge.add_argument("--seed", type=int, default=0)
    ge.add_argument("--smart", action="store_true")

    st = sub.add_parser("status", help="print checkpoint manifests")
    st.add_argument("--checkpoint", required=True)

    q = sub.add_parser(
        "query", help="run a registered analytics query over an sf dir")
    q.add_argument("name", nargs="?", default=None,
                   help="query name (omit to list all)")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    q.add_argument("--out", default=None,
                   help="write result parquet here instead of printing")
    q.add_argument("--limit", type=int, default=20,
                   help="rows to print when --out is not given")

    args = p.parse_args(argv)

    if args.cmd == "status":
        # no Ray needed — the watch surface reads manifests only
        from kgeng.checkpoint import CheckpointStore

        store = CheckpointStore.__new__(CheckpointStore)
        store.root = args.checkpoint
        try:
            for m in sorted(store.manifests(),
                            key=lambda m: (m["stage"], m.get("shard") or 0)):
                print(json.dumps(m))
        except BrokenPipeError:  # e.g. piped into head
            pass
        return 0

    def _entry_mod():
        # __ray_entry__ lives at the repo root, one level above kgeng/
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        if root not in sys.path:
            sys.path.insert(0, root)
        import __ray_entry__ as entry_mod
        return entry_mod

    if args.cmd == "query":
        # listing and name validation need no Ray session
        reg = _entry_mod().queries()
        if args.name is None:
            for name in sorted(reg):
                print(name)
            return 0
        if args.name not in reg:
            print(f"unknown query {args.name!r}; run "
                  f"`python -m kgeng.run query` for the list",
                  file=sys.stderr)
            return 2

    _ensure_ray(args.num_cpus)
    import ray

    try:
        if args.cmd == "query":
            res = reg[args.name](args.sf_dir)
            import pandas as pd
            import ray.data

            if isinstance(res, ray.data.Dataset):
                if args.out:
                    res.write_parquet(args.out)
                    print(json.dumps({"query": args.name,
                                      "rows": res.count(),
                                      "out": args.out}))
                    return 0
                res = res.to_pandas()
            if not isinstance(res, pd.DataFrame):
                res = res.to_pandas()
            if args.out:
                res.to_parquet(os.path.join(args.out), index=False)
                print(json.dumps({"query": args.name, "rows": len(res),
                                  "out": args.out}))
            else:
                print(res.head(args.limit).to_string(index=False))
                print(f"[{len(res)} rows]")
        elif args.cmd == "kg":
            from kgeng.pipeline import KGPipeline

            pl = KGPipeline(checkpoint_root=args.checkpoint,
                            num_shards=args.num_shards)
            res = pl.run(args.corpus, args.gazetteer, out_dir=args.out,
                         resume=not args.no_resume)
            print(json.dumps({"triples": res["triples"].count(),
                              "entities": res["entities"].count(),
                              "graph": res.get("graph_manifest")}))
        elif args.cmd == "synth-corpus":
            from kgeng.synth.corpus import SEED, generate_corpus_ray

            d = generate_corpus_ray(args.out, args.n_docs,
                                    seed=args.seed or SEED)
            print(json.dumps({"corpus": d}))
        elif args.cmd == "import-graphalytics":
            from kgeng.io.graph_files import (CompatGraphConfig,
                                              import_graphalytics)

            cfg = CompatGraphConfig(smart_attribute=args.smart_attribute)
            v, e = import_graphalytics(args.dir, cfg)
            v.write_parquet(os.path.join(args.out, cfg.vertex_coll))
            e.write_parquet(os.path.join(args.out, cfg.edge_coll))
            print(json.dumps({"vertices": v.count(), "edges": e.count()}))
        elif args.cmd == "import-edge-list":
            from kgeng.io.graph_files import (CompatGraphConfig,
                                              import_edge_list)

            cfg = CompatGraphConfig(smart_attribute=args.smart_attribute)
            v, e = import_edge_list(args.file, cfg)
            v.write_parquet(os.path.join(args.out, cfg.vertex_coll))
            e.write_parquet(os.path.join(args.out, cfg.edge_coll))
            print(json.dumps({"vertices": v.count(), "edges": e.count()}))
        elif args.cmd == "generate":
            from kgeng.io.graph_files import CompatGraphConfig
            from kgeng.synth import graphs

            cfg = CompatGraphConfig(is_smart=args.smart)
            if args.graphtype == "clique":
                v, e = graphs.create_clique_graph(
                    args.size, cfg, args.prob_missing, args.seed)
            elif args.graphtype == "cliques-graph":
                v, e = graphs.create_cliques_graph(
                    args.num_parts, args.min_size, args.max_size, cfg,
                    prob_missing_intra=args.prob_missing, seed=args.seed)
            else:
                v, e = graphs.create_k_partite_graph(
                    args.num_parts, args.min_size, args.max_size, cfg,
                    seed=args.seed)
            v.write_parquet(os.path.join(args.out, cfg.vertex_coll))
            e.write_parquet(os.path.join(args.out, cfg.edge_coll))
            print(json.dumps({"vertices": v.count(), "edges": e.count()}))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
