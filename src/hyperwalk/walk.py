"""Self-guided random walks.

The next-step distribution down-weights node types that are already
frequent in the walk so far: a neighbor of type t is chosen with
probability proportional to exp(-N_t) / (#neighbors of type t), where N_t
counts how often type t appears in the current sequence. Equivalently:
pick a type present in the neighborhood with probability ~ exp(-N_t),
then a uniform neighbor of that type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .graph import TypedGraph


class DeadEnd(Exception):
    """The walk's last node has no neighbors."""


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


class WalkState:
    """A walk in progress: node sequence plus per-type occurrence counters."""

    def __init__(self, g: TypedGraph, start: int):
        self.graph = g
        self.sequence: list[int] = []
        self.type_counts = np.zeros(len(g.node_types), dtype=np.int64)
        self.append(start)

    def append(self, v: int) -> None:
        self.sequence.append(v)
        self.type_counts[self.graph.node_type_of[v]] += 1

    @property
    def last(self) -> int:
        return self.sequence[-1]


def transition_distribution(g: TypedGraph, state: WalkState) -> dict[int, float]:
    """Exact next-step distribution over neighbors of the walk's last node."""
    groups = g.adjacency_groups(state.last)
    if not groups:
        raise DeadEnd(f"node {state.last} has no neighbors")
    counts = state.type_counts
    shift = min(int(counts[t]) for t, _ in groups)
    type_weights = [math.exp(-(int(counts[t]) - shift)) for t, _ in groups]
    total = sum(type_weights)
    dist: dict[int, float] = {}
    for (t, arr), w in zip(groups, type_weights):
        p = w / (total * arr.size)
        for u in arr:
            dist[int(u)] = p
    return dist


def sample_transition(g, v, type_counts, rng) -> int | None:
    """One draw from the self-guided transition at node v; None at dead ends.

    Samples type-first (weights exp(-N_t) over types present, shifted by the
    minimum count before exponentiation), then a uniform neighbor of that
    type; this induces exactly the per-neighbor distribution above.
    """
    groups = g.adjacency_groups(v)
    if not groups:
        return None
    if len(groups) == 1:
        arr = groups[0][1]
    else:
        shift = min(int(type_counts[t]) for t, _ in groups)
        weights = [math.exp(-(int(type_counts[t]) - shift)) for t, _ in groups]
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
    """Walk of up to ``length`` nodes from ``start``; truncated at dead ends."""
    state = WalkState(g, start)
    for _ in range(length - 1):
        nxt = sample_transition(g, state.last, state.type_counts, rng)
        if nxt is None:
            break
        state.append(nxt)
    return state.sequence


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
