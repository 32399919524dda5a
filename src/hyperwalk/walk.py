"""Self-guided random walks, all walkers advanced in lock step.

The next-step law down-weights node types that are already frequent in
the walk so far: a neighbor of type t is chosen with probability
exp(-N_t) / (|neighbors of type t| * sum_s exp(-N_s)), the sum over the
types s present in the neighborhood, where N_t counts how often type t
appears in the current sequence, the start node included. Equivalently:
pick a present type with probability ~ exp(-N_t), then a uniform neighbor
of that type.

:func:`generate_walks` advances every walker one step per loop iteration
over NumPy arrays: a ``(walkers, T)`` type-count matrix holds each walk's
N_t, and the graph's ``type_offsets`` table locates the neighbors of each
(node, type). All draws come from one ``substream(seed, WALKS)``. The
result is a :class:`Walks`, one ``(W, L)`` int32 matrix padded with -1 that
reads like a list of walks. On the 28,871-node DBLP-shaped graph (1x40
walks) the walker makes about 7-12M steps/s on one core of a 2-core
machine, against about 150k for a walker that steps one walk at a time in
Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding
from .graph import TypedGraph


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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class Walks:
    """Walks as one ``(W, L)`` int32 matrix, each row padded with -1 after its walk.

    Reads as a list of walks: ``len(walks)``, ``walks[i]`` and iteration give
    each walk as a view of its row at its true length.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.lengths = np.count_nonzero(matrix >= 0, axis=1)

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.matrix[i, : self.lengths[i]]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __deepcopy__(self, memo) -> list[list[int]]:
        # an editable list of lists, whose walks may lose or gain nodes:
        # bench/selftest.py corrupts walks so, and tests/test_bench.py runs it
        return [w.tolist() for w in self]


def step(g: TypedGraph, nodes: np.ndarray, counts: np.ndarray, rng) -> np.ndarray:
    """One self-guided draw for each walker at ``nodes``, each of which has a neighbor.

    ``counts`` is the walkers' ``(len(nodes), T)`` type-count matrix; it
    gains the drawn neighbor's type. Each walker reads its T neighbor
    groups off ``g.type_offsets``, an absent type as an empty group, draws a
    type t present at its node with weight exp(-(N_t - min N)), the minimum
    over present types, then a uniform neighbor of type t. The shift by
    min N cancels on normalization, so a neighbor of type t is drawn with
    probability exp(-N_t) / (|neighbors of type t| * sum_s exp(-N_s)) over
    the present types s, and the weights cannot all underflow on long walks.
    """
    # type-major (T, walkers) arrays: the reductions over types run as
    # elementwise operations on whole rows of walkers
    n_types, n = counts.shape[1], len(nodes)
    bounds = np.take(g.type_offsets, nodes * n_types + np.arange(n_types + 1)[:, None])
    sizes = np.diff(bounds, axis=0)
    present = sizes > 0
    # an absent type counts +inf, so its weight is exp(-inf) = 0: left at 0
    # here, as NumPy's exp is slow on -inf
    masked = np.where(present, counts.T, np.inf)
    cum = np.exp(masked.min(axis=0) - masked, out=np.zeros(sizes.shape), where=present)
    for k in range(1, n_types):  # cumsum(axis=0), whose per-walker loops are slow
        np.add(cum[k - 1], cum[k], out=cum[k])
    # the least-counted present type weighs 1, so the total is >= 1 and
    # u * total < total for u < 1 under round-to-nearest: r never selects
    # a type past the last present one, and a type of weight 0 is skipped
    r = rng.random(n) * cum[-1]
    t = np.count_nonzero(cum <= r, axis=0)
    np.add(counts.T, t == np.arange(n_types)[:, None], out=counts.T)  # any memory order
    pick = t * n + np.arange(n)  # (t, walker) in the flat (T, walkers) arrays
    return g.adjacency[np.take(bounds, pick) + rng.integers(np.take(sizes, pick))]


def generate_walks(g: TypedGraph, cfg: WalkConfig) -> Walks:
    """walks_per_node walks from every node, deterministic given cfg.seed.

    Walk ``node * walks_per_node + rep`` starts at ``node``. A walk from a
    node without neighbors stops there; every other walk has
    ``cfg.walk_length`` nodes, since a step always lands on a node with a
    neighbor (the one it came from).
    """
    rng = seeding.substream(cfg.seed, seeding.WALKS)
    n_types = len(g.node_types)
    start = np.repeat(np.arange(g.n_nodes), cfg.walks_per_node)
    matrix = np.full((start.size, cfg.walk_length), -1, dtype=np.int32)
    matrix[:, 0] = start
    live = np.flatnonzero(g.type_offsets[(start + 1) * n_types] > g.type_offsets[start * n_types])
    nodes = start[live]
    counts = np.zeros((n_types, live.size)).T  # (walkers, T), type-major in memory
    counts[np.arange(live.size), g.node_type_of[nodes]] = 1
    for j in range(1, cfg.walk_length if live.size else 1):  # step needs a walker
        nodes = step(g, nodes, counts, rng)
        matrix[live, j] = nodes
    return Walks(matrix)


def dump_walks(walks: Walks, g: TypedGraph, path) -> None:
    """One walk per line, space-separated external node ids."""
    ids = np.asarray(g.node_ids, dtype=object)
    with open(path, "w", encoding="utf-8") as f:
        for w in walks:
            f.write(" ".join(ids[w]) + "\n")
