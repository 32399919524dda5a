"""Self-guided random walks.

The next-step distribution down-weights node types that are already
frequent in the walk so far: a neighbor of type t is chosen with
probability proportional to exp(-N_t) / (#neighbors of type t), where N_t
counts how often type t appears in the current sequence. Equivalently:
pick a type present in the neighborhood with probability ~ exp(-N_t),
then a uniform neighbor of that type. :func:`type_weights` computes the
type weights for both the sampler and the exact distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def type_weights(groups, type_counts) -> list[float]:
    """The self-guided law's weight exp(-N_t) for each neighbor group's type.

    Counts are shifted by their minimum over the groups before
    exponentiation; the shift cancels on normalization and keeps the
    weights from underflowing on long walks.
    """
    shift = min(int(type_counts[t]) for t, _ in groups)
    return [math.exp(-(int(type_counts[t]) - shift)) for t, _ in groups]


def transition_distribution(g: TypedGraph, v: int, type_counts) -> dict[int, float]:
    """Exact next-step distribution over the neighbors of v."""
    groups = g.adjacency_groups(v)
    if not groups:
        raise DeadEnd(f"node {v} has no neighbors")
    weights = type_weights(groups, type_counts)
    total = sum(weights)
    dist: dict[int, float] = {}
    for (_, arr), w in zip(groups, weights):
        p = w / (total * arr.size)
        for u in arr:
            dist[int(u)] = p
    return dist


def sample_transition(g: TypedGraph, v: int, type_counts, rng) -> int | None:
    """One draw from the self-guided transition at node v; None at dead ends.

    Samples a type with weight :func:`type_weights`, then a uniform neighbor
    of that type; this induces exactly :func:`transition_distribution`. A
    node with one neighbor type draws no type, and a type with one neighbor
    draws no neighbor.
    """
    groups = g.adjacency_groups(v)
    if not groups:
        return None
    if len(groups) == 1:
        arr = groups[0][1]
    else:
        weights = type_weights(groups, type_counts)
        r = rng.random() * sum(weights)
        acc = 0.0
        arr = groups[-1][1]
        for (_, a), w in zip(groups, weights):
            acc += w
            if r < acc:
                arr = a
                break
    if arr.size == 1:
        return int(arr[0])
    return int(arr[rng.integers(arr.size)])


def self_guided_walk(g: TypedGraph, start: int, length: int, rng) -> list[int]:
    """Walk of up to ``length`` nodes from ``start``; truncated at dead ends.

    N_t counts every node of the walk so far, the start node included.
    """
    walk = [start]
    type_counts = np.zeros(len(g.node_types), dtype=np.int64)
    type_counts[g.node_type_of[start]] += 1
    for _ in range(length - 1):
        nxt = sample_transition(g, walk[-1], type_counts, rng)
        if nxt is None:
            break
        walk.append(nxt)
        type_counts[g.node_type_of[nxt]] += 1
    return walk


def generate_walks(g: TypedGraph, cfg: WalkConfig) -> list[list[int]]:
    """walks_per_node walks from every node, deterministic given cfg.seed.

    Each (node, repetition) pair owns an independent RNG substream.
    """
    return [
        self_guided_walk(
            g, node, cfg.walk_length, seeding.substream(cfg.seed, seeding.WALKS, node, rep)
        )
        for node in range(g.n_nodes)
        for rep in range(cfg.walks_per_node)
    ]


def dump_walks(walks: list[list[int]], g: TypedGraph, path) -> None:
    """One walk per line, space-separated external node ids."""
    with open(path, "w", encoding="utf-8") as f:
        for w in walks:
            f.write(" ".join(g.node_ids[v] for v in w) + "\n")
