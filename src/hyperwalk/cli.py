"""Command-line front-end: train / reconstruct / linkpred / project.

A run depends only on its flags and input files. All randomness flows from
one --seed through named substreams, so runs with identical flags write
byte-identical files, but for the ``wall_time_s`` of each train_log*.jsonl
record. A command does all its work, then creates --out and writes
manifest.json (the fully resolved configuration) and its other files last,
so a failed run leaves no --out; --dump-walks is written once walks exist.

A runtime failure prints ``error: <ExceptionType>: <message>`` to stderr.

This module lays out --out: it writes what the library returns, node and pair rows through
``TypedGraph.save_nodes``/``save_pairs``, JSON as strict as ``_write_json``'s. A flag for a
library parameter defaults to the library's value (WalkConfig, TrainConfig, evaluation).

``linkpred`` makes its split from --edge-type, --fraction and --seed on
every run and writes it to ``<out>/split/`` as output. A sweep over one
flag is a shell loop over ``linkpred``. ``reconstruct`` samples each edge
type's non-edges once, from one --seed substream in edge-type order, and
scores every table on that sample.

Exit codes: 0 ok, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, seeding
from .corpus import build_corpus
from .evaluation import (
    DEFAULT_BOUNDARIES,
    DEFAULT_MAX_NEG,
    link_prediction_eval,
    make_link_split,
    poincare_projection,
    reconstruct_tables,
    region_stats,
)
from .graph import load_graph
from .trainer import TrainConfig, load_embeddings_for_graph, train
from .walk import WalkConfig, dump_walks, generate_walks


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", required=True, help="node TSV: node_id<TAB>type_label")
    p.add_argument("--edges", required=True, help="edge TSV: src<TAB>dst[<TAB>edge_label]")
    p.add_argument("--out", default="out", help="output directory")


def _add_pipeline(p: argparse.ArgumentParser) -> None:
    """The walk and train flags; a config field's flag defaults to that field."""
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--walks", type=int, default=WalkConfig.walks_per_node, help="walks per node")
    p.add_argument("--walk-length", type=int, default=WalkConfig.walk_length)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=TrainConfig.negatives_per_positive)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--dim", default="10", help="dimension or comma list, e.g. 2,5,10")


def _dims(args) -> list[int]:
    """--dim: one dimension or a comma list, each >= 2 and none repeated."""
    dims = [int(x) for x in args.dim.split(",") if x]
    if not dims:
        raise ValueError(f"--dim {args.dim!r} lists no dimension")
    if min(dims) < 2:
        raise ValueError(f"embedding dimension must be >= 2, got {min(dims)}")
    repeated = [d for i, d in enumerate(dims) if d in dims[:i]]
    if repeated:
        raise ValueError(f"--dim lists dimension {repeated[0]} more than once")
    return dims


def _write_json(path: Path, obj) -> str:
    """Write obj to path as indented, strict JSON (no NaN or Infinity); returns the text."""
    text = json.dumps(obj, indent=2, allow_nan=False)
    path.write_text(text, encoding="utf-8")
    return text


def _boundaries_text(bounds) -> str:
    return ",".join(f"{b:g}" for b in bounds)


def _write_manifest(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = dict(sorted((k, v) for k, v in vars(args).items() if k != "func"))
    manifest = {"command": args.command, "config": config, "deterministic": True,
                "version": __version__}
    _write_json(out / "manifest.json", manifest)
    return out


def _pipeline_configs(args):
    wcfg = WalkConfig(walks_per_node=args.walks, walk_length=args.walk_length, seed=args.seed)
    tcfg = TrainConfig(lr=args.lr, batch_size=args.batch, epochs=args.epochs,
                       negatives_per_positive=args.negatives, seed=args.seed)
    return wcfg, tcfg


def _save_table(out: Path, dims, g, table, history) -> None:
    """embeddings{suffix}.tsv and train_log{suffix}.jsonl; suffix _d<dim> if --dim lists several."""
    suffix = "" if len(dims) == 1 else f"_d{table.dim}"
    g.save_nodes(out / f"embeddings{suffix}.tsv", table.coords)
    with open(out / f"train_log{suffix}.jsonl", "w", encoding="utf-8") as f:
        for h in history:
            f.write(json.dumps(h, allow_nan=False) + "\n")


def cmd_train(args) -> int:
    dims = _dims(args)
    wcfg, tcfg = _pipeline_configs(args)
    g = load_graph(args.nodes, args.edges)
    walks = generate_walks(g, wcfg)
    if args.dump_walks:
        dump_walks(walks, g, args.dump_walks)
    corpus = build_corpus(walks, args.window, g.n_nodes)
    trained = [train(g, corpus, tcfg, d) for d in dims]
    out = _write_manifest(args)
    for table, history in trained:
        _save_table(out, dims, g, table, history)
    return 0


def cmd_reconstruct(args) -> int:
    g = load_graph(args.nodes, args.edges)
    edge_types = [args.edge_type] if args.edge_type else [t.label for t in g.edge_types]
    tables = [load_embeddings_for_graph(path, g) for path in args.embeddings]
    rng = seeding.substream(args.seed, seeding.NONEDGES)
    by_type = [reconstruct_tables(g, tables, et, max_neg=args.max_neg, rng=rng)
               for et in edge_types]
    # table-major: each table's reports in edge-type order
    reports = [asdict(r) for per_table in zip(*by_type) for r in per_table]
    out = _write_manifest(args)
    print(_write_json(out / "reconstruction.json", reports))
    return 0


def cmd_linkpred(args) -> int:
    dims = _dims(args)
    wcfg, tcfg = _pipeline_configs(args)
    g = load_graph(args.nodes, args.edges)
    rng = seeding.substream(args.seed, seeding.SPLITS)
    split = make_link_split(g, args.edge_type, fraction=args.fraction, rng=rng)
    if split.warning:
        print(f"warning: {split.warning}", file=sys.stderr)
    tg = split.train_graph
    walks = generate_walks(tg, wcfg)
    corpus = build_corpus(walks, args.window, tg.n_nodes)
    trained = [train(tg, corpus, tcfg, d) for d in dims]
    reports = [asdict(link_prediction_eval(split, table)) for table, _ in trained]
    out = _write_manifest(args)
    split_dir = out / "split"  # tg keeps g's node ids in g's order, so it names the split's pairs
    split_dir.mkdir(exist_ok=True)
    tg.save(split_dir / "train_nodes.tsv", split_dir / "train_edges.tsv")
    tg.save_pairs(split_dir / "removed_edges.tsv", split.removed_edges)
    tg.save_pairs(split_dir / "non_edges.tsv", split.sampled_non_edges)
    meta = {"edge_type": split.edge_type, "fraction": split.fraction, "warning": split.warning}
    _write_json(split_dir / "split.json", meta)
    for table, history in trained:
        _save_table(out, dims, tg, table, history)
    print(_write_json(out / "link_prediction.json", reports))
    return 0


def cmd_project(args) -> int:
    g = load_graph(args.nodes, args.edges)
    emb = load_embeddings_for_graph(args.embeddings, g)
    report = None
    if args.region_type:
        if args.boundaries is None:  # resolved here, so the manifest records it
            args.boundaries = _boundaries_text(DEFAULT_BOUNDARIES)
        boundaries = [float(x) for x in args.boundaries.split(",") if x]
        report = asdict(region_stats(g, emb, args.region_type, boundaries))
    out = _write_manifest(args)
    g.save_nodes(out / "projection.tsv", poincare_projection(emb))
    if report is not None:
        print(_write_json(out / "regions.json", report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwalk",
        description="Heterogeneous network embedding in hyperbolic space "
        "with self-guided random walks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="embed a network and write embeddings + log")
    _add_common(p)
    _add_pipeline(p)
    p.add_argument("--dump-walks", default=None, help="optional walk dump path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", help="network-reconstruction AUC report")
    _add_common(p)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--embeddings", action="append", required=True, help="embedding TSV (repeatable)")
    p.add_argument("--edge-type", default=None)
    p.add_argument("--max-neg", type=int, default=DEFAULT_MAX_NEG)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("linkpred", help="20%% split, retrain, link-prediction AUC")
    _add_common(p)
    _add_pipeline(p)
    p.add_argument("--edge-type", required=True)
    p.add_argument("--fraction", type=float, default=0.2)
    p.set_defaults(func=cmd_linkpred)

    p = sub.add_parser("project", help="Poincare-disk projection and region stats")
    _add_common(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--region-type", default=None, help="node type for region stats")
    p.add_argument("--boundaries", default=None, help="with --region-type: band radii, "
                   f"default {_boundaries_text(DEFAULT_BOUNDARIES)}")
    p.set_defaults(func=cmd_project)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "boundaries", None) is not None and not args.region_type:
        parser.error("project: --boundaries is read only with --region-type")
    emb = getattr(args, "embeddings", None) or []  # one path for project, a list for reconstruct
    for path in [args.nodes, args.edges, *([emb] if isinstance(emb, str) else emb)]:
        if not os.path.exists(path):
            print(f"error: no such file: {path}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except Exception as exc:  # any runtime failure: report it, exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
