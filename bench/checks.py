"""Correctness checks on the outputs of one benchmark round.

Every check is computed apart from the program: it works from the edge list
the benchmark wrote and from plain NumPy, never from a ``TypedGraph`` lookup
or an ``evaluation`` helper. Each check raises ``CheckFailed`` with what it
saw; ``Checks.run`` collects the failures so a round reports all of them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class CheckFailed(AssertionError):
    """A program output broke a property the benchmark checks."""


class Checks:
    """Runs named checks and keeps the messages of those that fail."""

    def __init__(self):
        self.failures: list[str] = []

    def run(self, name: str, fn, *args, **kwargs) -> None:
        try:
            fn(*args, **kwargs)
        except CheckFailed as e:
            self.failures.append(f"{name}: {e}")


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# --- the reference graph ---------------------------------------------------


class RefGraph:
    """The graph as the benchmark wrote it: node types and an edge list.

    Node i is line i of the node file, so its index matches the one
    ``load_graph`` assigns.
    """

    def __init__(self, node_ids, node_labels, edges):
        self.node_ids = list(node_ids)
        self.type_labels = sorted(set(node_labels), key=list(node_labels).index)
        self.node_type = np.asarray([self.type_labels.index(x) for x in node_labels])
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def type_id(self, label: str) -> int:
        return self.type_labels.index(label)

    def codes(self, edges=None) -> np.ndarray:
        """Sorted unordered-pair codes min * n + max of an edge list."""
        return pair_codes(self.edges if edges is None else edges, self.n_nodes)

    def degree(self, edges=None) -> np.ndarray:
        e = self.edges if edges is None else edges
        return np.bincount(e.ravel(), minlength=self.n_nodes)

    def edges_between(self, ta: str, tb: str, edges=None) -> np.ndarray:
        """The edges (of ``edges``, default all) joining a ``ta`` and a ``tb`` node."""
        e = self.edges if edges is None else np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        x, y = self.node_type[e[:, 0]], self.node_type[e[:, 1]]
        a, b = sorted((self.type_id(ta), self.type_id(tb)))
        return e[(np.minimum(x, y) == a) & (np.maximum(x, y) == b)]

    def minus(self, removed) -> np.ndarray:
        """This edge list without the given edges."""
        e = self.edges
        codes = np.minimum(e[:, 0], e[:, 1]) * self.n_nodes + np.maximum(e[:, 0], e[:, 1])
        return e[~np.isin(codes, pair_codes(removed, self.n_nodes))]


def pair_codes(edges, n: int) -> np.ndarray:
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.unique(np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1]))


def is_member(codes: np.ndarray, sorted_codes: np.ndarray) -> np.ndarray:
    if sorted_codes.size == 0:
        return np.zeros(codes.shape, dtype=bool)
    i = np.minimum(np.searchsorted(sorted_codes, codes), sorted_codes.size - 1)
    return sorted_codes[i] == codes


def component_count(n: int, edges: np.ndarray) -> int:
    """Connected components of an n-node graph, by union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for u, v in np.asarray(edges, dtype=np.int64).tolist():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


# --- walks and corpus ------------------------------------------------------


def flatten_walks(walks) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.fromiter(map(len, walks), dtype=np.int64, count=len(walks))
    flat = np.fromiter(itertools.chain.from_iterable(walks), dtype=np.int64, count=int(lengths.sum()))
    return flat, lengths


def check_walks(walks, walks_per_node: int, walk_length: int, ref: RefGraph, edges: np.ndarray) -> None:
    """Walks on the graph with edge list ``edges`` (node indexing of ``ref``)."""
    n = ref.n_nodes
    expect(len(walks) == walks_per_node * n,
           f"{len(walks)} walks, expected {walks_per_node} x {n}")
    flat, lengths = flatten_walks(walks)
    expect(lengths.min() >= 1 and lengths.max() <= walk_length,
           f"walk lengths span {lengths.min()}..{lengths.max()}, limit {walk_length}")
    starts = np.r_[0, np.cumsum(lengths)[:-1]]
    expect(np.array_equal(flat[starts], np.repeat(np.arange(n), walks_per_node)),
           "a walk does not start at its node")
    step = np.ones(flat.size, dtype=bool)
    step[starts] = False  # position i is a step from flat[i-1] to flat[i]
    i = np.flatnonzero(step)
    u, v = flat[i - 1], flat[i]
    codes = np.minimum(u, v) * n + np.maximum(u, v)
    bad = ~is_member(codes, pair_codes(edges, n))
    expect(not bad.any(), f"{int(bad.sum())} walk steps are not edges, first {u[bad][:1]}->{v[bad][:1]}")
    short = lengths < walk_length
    ends = flat[starts + lengths - 1][short]
    expect(not ref.degree(edges)[ends].any(),
           f"{int((ref.degree(edges)[ends] > 0).sum())} short walks end at a node with neighbours")


def window_pair_count(walks, window: int) -> int:
    """Ordered (center, context) pairs within ``window`` positions, self-pairs dropped."""
    flat, lengths = flatten_walks(walks)
    starts = np.repeat(np.r_[0, np.cumsum(lengths)[:-1]], lengths)
    pos = np.arange(flat.size) - starts
    room = np.repeat(lengths, lengths) - pos - 1  # positions left in the walk
    total = 0
    for off in range(1, window + 1):
        fits = room[:-off] >= off
        total += 2 * int(np.count_nonzero(fits & (flat[:-off] != flat[off:])))
    return total


def check_corpus(corpus, walks, window: int) -> None:
    expected = window_pair_count(walks, window)
    expect(len(corpus) == expected, f"corpus holds {len(corpus)} pairs, walks give {expected}")
    s = int(np.asarray(corpus.node_freq).sum())
    expect(s == 2 * len(corpus), f"node_freq sums to {s}, expected 2 x {len(corpus)}")


# --- link split -----------------------------------------------------------


def check_split(split, ref: RefGraph, ta: str, tb: str, fraction_tenths: int, train_edges) -> None:
    """``train_edges``: the train graph's edge list as the program returned it."""
    n = ref.n_nodes
    expect(split.warning is None, f"split warning {split.warning!r}")
    e_t = ref.edges_between(ta, tb)
    want = len(e_t) * fraction_tenths // 10
    removed = np.asarray(split.removed_edges, dtype=np.int64).reshape(-1, 2)
    expect(len(removed) == want, f"{len(removed)} edges removed, expected floor({fraction_tenths}/10 x {len(e_t)}) = {want}")
    expect(len(ref.edges_between(ta, tb, removed)) == len(removed), "a removed edge is not of the split's type")
    removed_codes = pair_codes(removed, n)
    expect(removed_codes.size == len(removed), "an edge was removed twice")
    expect(is_member(removed_codes, ref.codes()).all(), "a removed edge is not an input edge")
    train_codes = pair_codes(train_edges, n)
    expect(not is_member(removed_codes, train_codes).any(), "a removed edge is still in the train graph")
    expect(np.array_equal(train_codes, ref.codes(ref.minus(removed))),
           "train graph edges differ from input edges minus removed edges")
    before, after = component_count(n, ref.edges), component_count(n, train_edges)
    expect(before == after, f"split changed the component count from {before} to {after}")
    non = np.asarray(split.sampled_non_edges, dtype=np.int64).reshape(-1, 2)
    expect(len(non) == len(removed), f"{len(non)} sampled non-edges for {len(removed)} removed edges")
    types = {frozenset((int(a), int(b))) for a, b in zip(ref.node_type[non[:, 0]], ref.node_type[non[:, 1]])}
    expect(types <= {frozenset((ref.type_id(ta), ref.type_id(tb)))}, "a sampled non-edge is not type-compatible")
    expect((non[:, 0] != non[:, 1]).all(), "a sampled non-edge is a self-pair")
    codes = np.minimum(non[:, 0], non[:, 1]) * n + np.maximum(non[:, 0], non[:, 1])
    expect(not is_member(codes, ref.codes()).any(), "a sampled non-edge is an input edge")


# --- training -------------------------------------------------------------


def minkowski_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x[:, :-1], y[:, :-1]) - x[:, -1] * y[:, -1]


def check_table(coords: np.ndarray, n_nodes: int, dim: int) -> None:
    coords = np.asarray(coords)
    expect(coords.shape == (n_nodes, dim + 1), f"table shape {coords.shape}, expected {(n_nodes, dim + 1)}")
    expect(np.isfinite(coords).all(), "a table row is not finite")
    expect((coords[:, -1] > 0).all(), "a row lies on the lower sheet")
    # float64 closure error of a point grows like x_last^2 * eps
    drift = np.abs(minkowski_inner(coords, coords) + 1.0) / np.maximum(1.0, coords[:, -1] ** 2)
    expect(drift.max() < 1e-9, f"a row is off the hyperboloid by {drift.max():.3g} (relative)")


def check_loss(history, negatives: int) -> None:
    ceiling = math.log(1 + negatives)  # the loss when every point coincides
    last = history[-1]["mean_loss"]
    expect(last < ceiling, f"last epoch mean loss {last:.4f} is not below ln(1 + {negatives}) = {ceiling:.4f}")


# --- AUC ------------------------------------------------------------------


def scores(coords: np.ndarray, pairs: np.ndarray, chunk: int = 262_144) -> np.ndarray:
    """Negated hyperbolic distance of each pair."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    out = np.empty(len(pairs))
    for s in range(0, len(pairs), chunk):
        p = pairs[s : s + chunk]
        a = np.maximum(-minkowski_inner(coords[p[:, 0]], coords[p[:, 1]]), 1.0)
        out[s : s + chunk] = -np.arccosh(a)
    return out


def rank_auc(pos, neg) -> float:
    """Mann-Whitney AUC with half credit for ties, from sorted mid-ranks."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    values, inverse, counts = np.unique(np.r_[pos, neg], return_inverse=True, return_counts=True)
    mid = np.cumsum(counts) - (counts - 1) / 2.0  # mean 1-based rank of each tie group
    rank_sum = mid[inverse[: pos.size]].sum()
    return float((rank_sum - pos.size * (pos.size + 1) / 2.0) / (pos.size * neg.size))


def hanley_mcneil_se(a: float, n_pos: int, n_neg: int) -> float:
    q1 = a / (2 - a)
    q2 = 2 * a * a / (1 + a)
    var = a * (1 - a) + (n_pos - 1) * (q1 - a * a) + (n_neg - 1) * (q2 - a * a)
    return math.sqrt(var / (n_pos * n_neg))


def all_non_edges(ref: RefGraph, edges: np.ndarray, ta: str, tb: str) -> np.ndarray:
    """Every (ta, tb) pair that is not in ``edges``; ta and tb are distinct types."""
    a = np.flatnonzero(ref.node_type == ref.type_id(ta))
    b = np.flatnonzero(ref.node_type == ref.type_id(tb))
    uu, vv = np.meshgrid(a, b, indexing="ij")
    pairs = np.stack([uu.ravel(), vv.ravel()], axis=1)
    codes = np.minimum(pairs[:, 0], pairs[:, 1]) * ref.n_nodes + np.maximum(pairs[:, 0], pairs[:, 1])
    return pairs[~is_member(codes, pair_codes(edges, ref.n_nodes))]


def sample_non_edges(ref: RefGraph, ta: str, tb: str, k: int, rng) -> np.ndarray:
    """k uniform type-compatible non-edges of the reference graph, with replacement."""
    a = np.flatnonzero(ref.node_type == ref.type_id(ta))
    b = np.flatnonzero(ref.node_type == ref.type_id(tb))
    u = a[rng.integers(a.size, size=2 * k)]
    v = b[rng.integers(b.size, size=2 * k)]
    keep = ~is_member(np.minimum(u, v) * ref.n_nodes + np.maximum(u, v), ref.codes())
    out = np.stack([u[keep], v[keep]], axis=1)[:k]
    expect(len(out) == k, "too few non-edges in the reference sample")
    return out


def auc_over_trained(coords, pos, neg, untrained: np.ndarray) -> tuple[float, int]:
    """AUC without the non-edges that touch an untrained node, and how many
    non-edges are left."""
    neg = np.asarray(neg)
    keep = ~(untrained[neg[:, 0]] | untrained[neg[:, 1]])
    return rank_auc(scores(coords, pos), scores(coords, neg[keep])), int(keep.sum())


def check_auc_exact(reported: float, coords, pos, neg, what: str) -> float:
    mine = rank_auc(scores(coords, pos), scores(coords, neg))
    expect(abs(mine - reported) <= 1e-9, f"{what} AUC {reported!r} but recomputed {mine!r}")
    return mine


def check_auc_sampled(reported: float, coords, pos, neg, what: str) -> float:
    mine = rank_auc(scores(coords, pos), scores(coords, neg))
    tol = 4 * hanley_mcneil_se(mine, len(pos), len(neg))
    expect(abs(mine - reported) <= tol,
           f"{what} AUC {reported:.4f} but recomputed {mine:.4f} on an own sample (4 se = {tol:.4f})")
    return mine


def check_above_chance(a: float, n_pos: int, n_neg: int, n_se: float, what: str) -> None:
    bar = 0.5 + n_se * hanley_mcneil_se(0.5, n_pos, n_neg)
    expect(a > bar, f"{what} AUC {a:.4f} is not above chance + {n_se:g} se = {bar:.4f}")


def block_of(ref: RefGraph) -> np.ndarray:
    """Planted block per node: ``two_block_graph`` puts the first n // 2 nodes
    of each type in block 0 and the rest in block 1."""
    block = np.zeros(ref.n_nodes, dtype=np.int64)
    for t in range(len(ref.type_labels)):
        members = np.flatnonzero(ref.node_type == t)
        block[members[members.size // 2 :]] = 1
    return block


def block_oracle_auc(ref: RefGraph, pos, neg) -> float:
    block = block_of(ref)
    pos, neg = np.asarray(pos), np.asarray(neg)
    return rank_auc(
        (block[pos[:, 0]] == block[pos[:, 1]]).astype(float),
        (block[neg[:, 0]] == block[neg[:, 1]]).astype(float),
    )


def check_below_oracle(lp: float, oracle: float, n_pos: int, n_neg: int) -> None:
    """A scorer cannot beat the block oracle by more than noise unless held-out
    edges leaked into training."""
    ceiling = oracle + 2 * hanley_mcneil_se(oracle, n_pos, n_neg)
    expect(lp <= ceiling, f"link-prediction AUC {lp:.4f} beats the block oracle {oracle:.4f} + 2 se = {ceiling:.4f}")
