"""Self-guided random walks.

The next-step distribution down-weights node types that are already
frequent in the walk so far: a neighbor of type t is chosen with
probability proportional to exp(-N_t) / (#neighbors of type t), where N_t
counts how often type t appears in the current sequence. Equivalently:
pick a type present in the neighborhood with probability ~ exp(-N_t),
then a uniform neighbor of that type. Both draws read the graph's flat
type-grouped adjacency, whose groups come in type-id order; :func:`type_weights`
computes the type weights for both the sampler and the exact distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import seeding
from .graph import TypedGraph


class DeadEnd(Exception):
    """The node has no neighbors."""


@dataclass
class WalkConfig:
    walks_per_node: int = 10
    walk_length: int = 80
    seed: int = 0

    def __post_init__(self):
        if self.walk_length < 2:
            raise ValueError("walk_length must be >= 2")
        if self.walks_per_node < 1:
            raise ValueError("walks_per_node must be >= 1")


def type_weights(types, type_counts) -> list[float]:
    """The self-guided law's weight exp(-N_t) for each neighbor type in ``types``.

    Counts are shifted by their minimum over ``types`` before
    exponentiation; the shift cancels on normalization and keeps the
    weights from underflowing on long walks.
    """
    shift = min(int(type_counts[t]) for t in types)
    return [math.exp(-(int(type_counts[t]) - shift)) for t in types]


def transition_distribution(g: TypedGraph, v: int, type_counts) -> dict[int, float]:
    """Exact next-step distribution over the neighbors of v."""
    groups = g.adjacency_groups(v)
    if not groups:
        raise DeadEnd(f"node {v} has no neighbors")
    weights = type_weights([t for t, _ in groups], type_counts)
    total = sum(weights)
    return {int(u): w / (total * arr.size) for (_, arr), w in zip(groups, weights) for u in arr}


def _adjacency(g: TypedGraph):
    return g.node_groups, g.group_types, g.group_offsets, g.adjacency


def _step(adj, v: int, type_counts, rng) -> int | None:
    """One self-guided draw at v; ``adj`` is :func:`_adjacency` as arrays or lists."""
    node_groups, group_types, group_offsets, neighbors = adj
    first, end = node_groups[v], node_groups[v + 1]
    if first == end:
        return None
    group = first
    if end - first > 1:
        weights = type_weights(group_types[first:end], type_counts)
        r = rng.random() * sum(weights)
        acc = 0.0
        group = end - 1
        for i, w in enumerate(weights, first):
            acc += w
            if r < acc:
                group = i
                break
    lo = group_offsets[group]
    size = group_offsets[group + 1] - lo
    return int(neighbors[lo if size == 1 else lo + rng.integers(size)])


def sample_transition(g: TypedGraph, v: int, type_counts, rng) -> int | None:
    """One draw from the self-guided transition at node v; None at dead ends.

    Samples a type with weight :func:`type_weights`, then a uniform neighbor
    of that type; this induces exactly :func:`transition_distribution`. A
    node with one neighbor type draws no type, and a type with one neighbor
    draws no neighbor.
    """
    return _step(_adjacency(g), v, type_counts, rng)


def _walk(adj, node_type, n_types: int, start: int, length: int, rng) -> list[int]:
    walk = [start]
    type_counts = [0] * n_types
    type_counts[node_type[start]] += 1
    for _ in range(length - 1):
        nxt = _step(adj, walk[-1], type_counts, rng)
        if nxt is None:
            break
        walk.append(nxt)
        type_counts[node_type[nxt]] += 1
    return walk


def self_guided_walk(g: TypedGraph, start: int, length: int, rng) -> list[int]:
    """Walk of up to ``length`` nodes from ``start``; truncated at dead ends.

    N_t counts every node of the walk so far, the start node included.
    """
    return _walk(_adjacency(g), g.node_type_of, len(g.node_types), start, length, rng)


def generate_walks(g: TypedGraph, cfg: WalkConfig) -> list[list[int]]:
    """walks_per_node walks from every node, deterministic given cfg.seed.

    Each (node, repetition) pair owns an independent RNG substream.
    """
    # lists are several times faster than arrays to read one element at a time
    adj, node_type = [a.tolist() for a in _adjacency(g)], g.node_type_of.tolist()
    return [
        _walk(adj, node_type, len(g.node_types), node, cfg.walk_length,
              seeding.substream(cfg.seed, seeding.WALKS, node, rep))
        for node in range(g.n_nodes)
        for rep in range(cfg.walks_per_node)
    ]


def dump_walks(walks: list[list[int]], g: TypedGraph, path) -> None:
    """One walk per line, space-separated external node ids."""
    with open(path, "w", encoding="utf-8") as f:
        for w in walks:
            f.write(" ".join(g.node_ids[v] for v in w) + "\n")
