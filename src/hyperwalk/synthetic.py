"""Synthetic heterogeneous graphs for experiments and the test suite."""

from __future__ import annotations

import numpy as np

from .graph import TypedGraph


def two_block_graph(rng, sizes=(290, 20, 290)) -> TypedGraph:
    """Node types A, B and C, with ``sizes`` nodes in that order, each split
    into two planted blocks, hub-spoke schema.

    B acts as a small hub layer (venue-like); edges run A-B and B-C only,
    never A-C or within a type. Within each type the first n // 2 nodes (in
    insertion order) are block 0 and the rest are block 1. Pairs inside the
    same block link with probability 0.2, pairs straddling blocks with 0.01,
    so an edge carries no information beyond the block membership of its
    endpoints. Keeping the hub type small keeps per-leaf degree low, so the
    relations stay reconstructable from a low-dimensional embedding.
    """
    p_in, p_out = 0.2, 0.01
    nodes = []
    block = []
    for label, n in zip("ABC", sizes):
        for i in range(n):
            nodes.append((f"{label.lower()}{i}", label))
            block.append(0 if i < n // 2 else 1)
    offsets = np.cumsum([0, *sizes])
    edges = []
    hub = 1  # B's index in `sizes`
    for leaf in (0, 2):
        for i in range(offsets[leaf], offsets[leaf + 1]):
            for j in range(offsets[hub], offsets[hub + 1]):
                p = p_in if block[i] == block[j] else p_out
                if rng.random() < p:
                    edges.append((i, j))
    return TypedGraph(nodes, edges)


def powerlaw_bipartite_graph(rng) -> TypedGraph:
    """300 "author" and 400 "paper" nodes; author degrees follow a Zipf law of
    exponent 2 truncated at 200, and every paper gets at least one author."""
    n_hubs, n_items = 300, 400
    nodes = [(f"h{i}", "author") for i in range(n_hubs)]
    nodes += [(f"i{j}", "paper") for j in range(n_items)]
    degrees = np.minimum(rng.zipf(2.0, size=n_hubs), n_items // 2)
    edges = set()
    for i, d in enumerate(degrees):
        targets = rng.choice(n_items, size=int(d), replace=False)
        for j in targets:
            edges.add((i, n_hubs + int(j)))
    # keep every item attached so the graph has no isolated paper nodes
    linked = {v for _, v in edges}
    for j in range(n_items):
        v = n_hubs + j
        if v not in linked:
            edges.add((int(rng.integers(n_hubs)), v))
    return TypedGraph(nodes, sorted(edges))


def dblp_shaped_graph(rng) -> TypedGraph:
    """DBLP's node and type counts, 14,475 A, 14,376 P and 20 V nodes, with a
    random structure: each paper gets 1-3 distinct authors and one venue,
    drawn uniformly."""
    n_authors, n_papers, n_venues = 14475, 14376, 20
    nodes = [(f"a{i}", "A") for i in range(n_authors)]
    nodes += [(f"p{i}", "P") for i in range(n_papers)]
    nodes += [(f"v{i}", "V") for i in range(n_venues)]
    edges = []
    for p in range(n_papers):
        pi = n_authors + p
        for a in rng.choice(n_authors, size=int(rng.integers(1, 4)), replace=False):
            edges.append((int(a), pi))
        edges.append((pi, n_authors + n_papers + int(rng.integers(n_venues))))
    return TypedGraph(nodes, edges)
