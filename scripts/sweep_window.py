#!/usr/bin/env python3
"""Window-size sensitivity of reconstruction AUC on the two-block graph.

Sweeps the corpus window while holding walks, training and evaluation at
defaults. For each window it reports the A-B reconstruction AUC and the
in-block coverage: the fraction of block-0 A-C pairs that the window
turns into positive pairs, a measure of how far the corpus reaches beyond
direct neighbourhoods.
"""

import argparse
import json

import numpy as np

from hyperwalk.corpus import build_corpus
from hyperwalk.evaluation import reconstruct
from hyperwalk.seeding import NONEDGES, substream
from hyperwalk.synthetic import two_block_graph
from hyperwalk.trainer import TrainConfig, train
from hyperwalk.walk import WalkConfig, generate_walks


def in_block_coverage(g, corpus):
    """Fraction of block-0 A-C pairs that appear as positives."""
    A, C = g.nodes_of_type("A"), g.nodes_of_type("C")
    half_a, half_c = A[: A.size // 2], C[: C.size // 2]
    pairs = corpus.pairs.astype(np.int64)  # int32 codes u * n + v wrap past 46,340 nodes
    positives = np.unique(pairs[:, 0] * g.n_nodes + pairs[:, 1])
    block = (half_a[:, None] * g.n_nodes + half_c[None, :]).ravel()
    return float(np.isin(block, positives).mean()) if block.size else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--windows", default="1,2,3,5,8")
    ap.add_argument("--dim", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    g = two_block_graph(np.random.default_rng(args.seed))
    walks = generate_walks(g, WalkConfig(seed=args.seed))
    rows = []
    print(f"{'window':>7} {'in-block coverage':>18} {'recon AUC':>10}")
    for w in (int(x) for x in args.windows.split(",") if x):
        corpus = build_corpus(walks, window=w, n_nodes=g.n_nodes)
        coverage = in_block_coverage(g, corpus)
        table, _ = train(g, corpus, TrainConfig(seed=args.seed), dim=args.dim)
        auc = reconstruct(g, table, "A-B", rng=substream(args.seed, NONEDGES)).auc
        rows.append({"window": w, "in_block_coverage": coverage, "reconstruction_auc": auc})
        print(f"{w:>7} {coverage:>18.3f} {auc:>10.4f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(rows, f, indent=2)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
