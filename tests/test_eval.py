"""Reconstruction/link-prediction AUC, splits, regions, projection."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.stats import rankdata

from hyperwalk import evaluation, lorentz
from hyperwalk.corpus import index_dtype
from hyperwalk.evaluation import (
    _all_non_edges,
    _sample_non_edges,
    _score_pairs,
    auc,
    LinkSplit,
    link_prediction_eval,
    make_link_split,
    poincare_projection,
    reconstruct,
    region_stats,
)
from hyperwalk.graph import EdgeType, GraphError, TypedGraph
from hyperwalk.seeding import NONEDGES, SPLITS, substream
from hyperwalk.synthetic import dblp_shaped_graph, two_block_graph
from hyperwalk.trainer import INIT_SCALE, EmbeddingTable, init_embeddings
from tests.conftest import assert_same_graph, neighbors, random_points


def brute_force_auc(pos, neg):
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def embed_at(points):
    return EmbeddingTable(np.asarray(points, dtype=np.float64))


def neg_distance(emb, u, v):
    return -lorentz.hyperbolic_distance(emb.coords[u], emb.coords[v])


def rank_sum_auc(pos, neg):
    """The Mann-Whitney rank-sum formula over scipy's tie-averaged ranks."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    ranks = rankdata(np.concatenate([pos, neg]))
    return float(
        (ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2.0) / (pos.size * neg.size)
    )


# --- auc ------------------------------------------------------------------


def test_auc_perfect_separation():
    assert auc([2.0, 3.0], [0.0, 1.0]) == 1.0
    assert auc([0.0, 1.0], [2.0, 3.0]) == 0.0


def test_auc_tie_convention():
    assert auc([1.0], [1.0]) == 0.5


def test_auc_requires_both_sides():
    with pytest.raises(ValueError):
        auc([], [1.0])
    with pytest.raises(ValueError):
        auc([1.0], [])


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(0)
    a = auc(rng.normal(size=1000), rng.normal(size=1000))
    assert abs(a - 0.5) < 0.05


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_auc_equals_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_pos = int(rng.integers(1, 100))
    n_neg = int(rng.integers(1, 100))
    # coarse grid forces plenty of ties
    pos = rng.integers(0, 10, size=n_pos).astype(float)
    neg = rng.integers(0, 10, size=n_neg).astype(float)
    assert auc(pos, neg) == pytest.approx(brute_force_auc(pos, neg), abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 10.0))
@settings(max_examples=25, deadline=None)
def test_auc_invariant_under_increasing_transforms(seed, scale):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=20)
    neg = rng.normal(size=30)
    base = auc(pos, neg)
    assert auc(scale * pos + 3, scale * neg + 3) == pytest.approx(base, abs=1e-12)
    assert auc(np.exp(scale * pos), np.exp(scale * neg)) == pytest.approx(base, abs=1e-9)


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["ties", "continuous", "inf"]))
@settings(max_examples=90, deadline=None)
def test_auc_equals_the_rank_sum_formula_bitwise(seed, kind):
    rng = np.random.default_rng(seed)
    pos_neg = []
    for _ in range(2):
        n = int(rng.integers(1, 300))
        if kind == "ties":
            x = rng.integers(0, int(rng.integers(1, 12)), size=n).astype(float)
        else:
            x = rng.normal(size=n)
        if kind == "inf":
            x[rng.random(n) < 0.2] = np.inf
            x[rng.random(n) < 0.2] = -np.inf
        pos_neg.append(x)
    got, want = auc(*pos_neg), rank_sum_auc(*pos_neg)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("side", [0, 1])
def test_auc_is_nan_when_a_score_is_nan(side):
    scores = [np.array([0.5, 1.0, 2.0]), np.array([0.0, 1.0])]
    scores[side][1] = np.nan
    assert math.isnan(rank_sum_auc(*scores))
    assert math.isnan(auc(*scores))


def test_auc_leaves_its_inputs_unchanged():
    # reports sort the scores they computed in place; auc sorts a copy
    rng = np.random.default_rng(0)
    pos, neg = rng.normal(size=50), rng.normal(size=80)
    pos_before, neg_before = pos.copy(), neg.copy()
    assert auc(pos, neg) == rank_sum_auc(pos, neg)
    assert np.array_equal(pos, pos_before) and np.array_equal(neg, neg_before)


# --- _score_pairs and reconstruct ----------------------------------------


def test_score_pair_is_negated_distance(rng):
    pts = random_points(rng, 4, 3)
    emb = embed_at(pts)
    s = _score_pairs(emb, np.array([[0, 1], [1, 0], [2, 2]]))
    assert s[0] == pytest.approx(-lorentz.hyperbolic_distance(pts[0], pts[1]), abs=1e-12)
    assert s[0] == s[1] == neg_distance(emb, 0, 1)
    assert s[2] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("n", [0, 1, 6, 7, 21, 100])
def test_score_pairs_in_blocks_equals_whole_array_scoring_bitwise(monkeypatch, rng, n):
    monkeypatch.setattr(evaluation, "BLOCK", 7)
    emb = embed_at(random_points(rng, 30, 10, scale=3.0))
    pairs = rng.integers(0, 30, size=(n, 2))
    # scored first: np.empty may reuse the reference's freed buffer and hide unwritten scores
    got = _score_pairs(emb, pairs)
    whole = -np.asarray(
        lorentz.hyperbolic_distance(emb.coords[pairs[:, 0]], emb.coords[pairs[:, 1]])
    )
    assert got.shape == (n,) and got.tobytes() == whole.tobytes()


def geometric_line_graph():
    """Bipartite graph whose edges follow a 1-d geometric layout exactly.

    The a0-b0-a1-b1 cycle leaves room for connectivity-preserving removals.
    """
    nodes = [("a0", "A"), ("a1", "A"), ("b0", "B"), ("b1", "B"), ("b2", "B")]
    edges = [(0, 2), (0, 3), (1, 3), (1, 4), (1, 2)]
    return TypedGraph(nodes, edges)


def place_on_line(positions):
    pts = []
    for r in positions:
        x = np.array([np.sinh(r), np.cosh(r)])
        pts.append(np.array([x[0], 0.0, x[1]]))
    return embed_at(pts)


def test_reconstruct_perfect_embedding_gets_auc_one():
    g = geometric_line_graph()
    # linked pairs strictly closer than non-linked pairs on a line
    emb = place_on_line([0.0, 3.0, 0.5, 1.5, 3.5])
    rep = reconstruct(g, emb, "A-B")
    assert rep.auc == 1.0
    assert rep.n_pos == 5 and rep.n_neg == 1  # 6 compatible pairs - 5 edges
    assert not rep.negatives_sampled


def test_reconstruct_matches_brute_force(rng):
    g = geometric_line_graph()
    emb = embed_at(random_points(rng, 5, 3))
    rep = reconstruct(g, emb, "A-B")
    pos = [neg_distance(emb, u, v) for u, v in g.edges_of_type("A-B")]
    neg = [
        neg_distance(emb, a, b)
        for a in (0, 1)
        for b in (2, 3, 4)
        if not g.has_edges(a, b)
    ]
    assert rep.auc == pytest.approx(brute_force_auc(pos, neg), abs=1e-12)


def test_reconstruct_complete_relation_has_no_negatives(rng):
    nodes = [("a", "A"), ("b0", "B"), ("b1", "B")]
    g = TypedGraph(nodes, [(0, 1), (0, 2)])
    emb = embed_at(random_points(rng, 3, 2))
    with pytest.raises(ValueError):
        reconstruct(g, emb, "A-B")


def test_reconstruct_counts_the_edges_of_every_label_between_its_types(rng):
    # writes and reviews both join A to P, so a pair joined by either is no non-edge
    nodes = [("a0", "A"), ("a1", "A"), ("p0", "P"), ("p1", "P"), ("p2", "P")]
    emb = embed_at(random_points(rng, 5, 2))
    full = TypedGraph(nodes[:4], [(0, 2, "writes"), (1, 3, "writes"),
                                  (0, 3, "reviews"), (1, 2, "reviews")])
    for max_neg in (1, 10):  # sampling and enumerating alike
        with pytest.raises(GraphError, match="'writes' is complete: no non-edges exist"):
            reconstruct(full, EmbeddingTable(emb.coords[:4]), "writes", max_neg=max_neg, rng=rng)
    # 2 of the 6 A-P pairs are non-edges; they fit max_neg=3, so both are enumerated
    partial = TypedGraph(nodes, [(0, 2, "writes"), (1, 3, "writes"),
                                 (0, 3, "reviews"), (1, 4, "reviews")])
    rep = reconstruct(partial, emb, "writes", max_neg=3, rng=rng)
    assert not rep.negatives_sampled
    assert (rep.n_pos, rep.n_neg) == (2, 2)


def test_reconstruct_flags_sampled_negatives(rng):
    nodes = [(f"a{i}", "A") for i in range(4)] + [(f"b{i}", "B") for i in range(4)]
    g = TypedGraph(nodes, [(0, 4), (1, 5), (2, 6), (3, 7)])
    emb = embed_at(random_points(rng, 8, 3))
    rep = reconstruct(g, emb, "A-B", max_neg=2, rng=rng)  # 12 non-edges exist
    assert rep.negatives_sampled and rep.n_neg == 2
    # with no rng, the sample is the one of the CLI's reconstruct --seed 0
    want = reconstruct(g, emb, "A-B", max_neg=11, rng=substream(0, NONEDGES))
    assert reconstruct(g, emb, "A-B", max_neg=11) == want


@pytest.mark.parametrize("max_neg", [0, -5])
def test_reconstruct_rejects_max_neg_below_one(rng, max_neg):
    nodes = [(f"a{i}", "A") for i in range(4)] + [(f"b{i}", "B") for i in range(4)]
    g = TypedGraph(nodes, [(0, 4), (1, 5), (2, 6), (3, 7)])
    emb = embed_at(random_points(rng, 8, 3))
    with pytest.raises(ValueError, match=f"max_neg must be >= 1, got {max_neg}"):
        reconstruct(g, emb, "A-B", max_neg=max_neg, rng=rng)


def test_reports_count_pairs_that_touch_an_isolated_node(rng):
    # a3 has no edge, so all 3 of its A-B pairs are among the 8 non-edges
    nodes = [(f"a{i}", "A") for i in range(4)] + [(f"b{i}", "B") for i in range(3)]
    g = TypedGraph(nodes, [(0, 4), (1, 5), (2, 6), (0, 5)])
    emb = embed_at(random_points(rng, 7, 2))
    rep = reconstruct(g, emb, "A-B")
    assert not rep.negatives_sampled
    assert (rep.n_pos, rep.n_neg, rep.isolated_pairs) == (4, 8, 3)
    # link prediction counts on the train graph it was trained on
    split = LinkSplit(
        train_graph=g,
        removed_edges=np.array([[1, 4]]),
        sampled_non_edges=np.array([[3, 4], [2, 4]]),
        edge_type="A-B",
        fraction=0.2,
    )
    rep = link_prediction_eval(split, emb)
    assert (rep.n_pos, rep.n_neg, rep.isolated_pairs) == (1, 2, 1)


def a_p_reconstruct_peak():
    """tracemalloc peak of reconstruct("A-P") with 1M sampled non-edges on
    the DBLP-shaped graph of seed 5, untrained d=10 table."""
    g = dblp_shaped_graph(np.random.default_rng(5))
    table = init_embeddings(g, 10, INIT_SCALE, np.random.default_rng(5))
    tracemalloc.start()
    try:
        rep = reconstruct(g, table, "A-P", rng=substream(5, NONEDGES))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.negatives_sampled and rep.n_neg == evaluation.DEFAULT_MAX_NEG
    return peak


def test_reconstruct_transient_memory_stays_bounded():
    # scoring and ranking the 1M sampled non-edges as whole arrays peaked at
    # about 275 MiB
    peak = a_p_reconstruct_peak()
    assert peak < 64 * 2**20, f"reconstruct peaked at {peak / 2**20:.1f} MiB"


def test_reconstruct_a_p_peak_stays_within_a_few_blocks():
    # the uint16 pairs take 3.8 MiB and their scores 7.6 MiB; the rest is
    # O(BLOCK) gathers and the int32 index draws
    peak = a_p_reconstruct_peak()
    assert peak < 16 * 2**20, f"reconstruct peaked at {peak / 2**20:.1f} MiB"


# --- non-edges ------------------------------------------------------------


def sample_non_edges_whole(g, et, k, rng):
    """Non-edge sampling with each attempt's candidates tested all at once.

    Returns the pairs and the number of attempts.
    """
    A, B = (g.nodes_of_type(t) for t in et.endpoint_types)
    out = np.empty((k, 2), dtype=np.int64)
    filled = attempts = 0
    while filled < k:
        m = max(k - filled, 64)
        us = A[rng.integers(A.size, size=m)]
        vs = B[rng.integers(B.size, size=m)]
        ok = ~g.has_edges(us, vs) & (us != vs)
        take = min(int(ok.sum()), k - filled)
        sel = np.flatnonzero(ok)[:take]
        out[filled : filled + take, 0] = us[sel]
        out[filled : filled + take, 1] = vs[sel]
        filled += take
        attempts += 1
    return out, attempts


def all_non_edges_whole(g, et):
    """Every non-edge from one meshgrid of all compatible pairs."""
    ta, tb = et.endpoint_types
    uu, vv = np.meshgrid(g.nodes_of_type(ta), g.nodes_of_type(tb), indexing="ij")
    us, vs = uu.ravel(), vv.ravel()
    if ta == tb:
        keep = us < vs
        us, vs = us[keep], vs[keep]
    is_edge = g.has_edges(us, vs)
    return np.stack([us[~is_edge], vs[~is_edge]], axis=1)


def dense_graph(rng, same_type, keep=0.85):
    """A 10x10 bipartite A-B graph, or a 12-node X-X graph, with each
    compatible pair an edge with probability ``keep``."""
    if same_type:
        nodes = [(f"x{i}", "X") for i in range(12)]
        pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    else:
        nodes = [(f"a{i}", "A") for i in range(10)] + [(f"b{i}", "B") for i in range(10)]
        pairs = [(i, 10 + j) for i in range(10) for j in range(10)]
    edges = [pair for pair, e in zip(pairs, rng.random(len(pairs)) < keep) if e]
    g = TypedGraph(nodes, edges)
    return g, g.edge_type("X-X" if same_type else "A-B")


@pytest.mark.parametrize("same_type", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_non_edges_in_blocks_equals_whole_array_sampling(monkeypatch, same_type, seed):
    monkeypatch.setattr(evaluation, "BLOCK", 5)
    g, et = dense_graph(np.random.default_rng(seed), same_type)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _sample_non_edges(g, et, 150, got_rng)
    want, attempts = sample_non_edges_whole(g, et, 150, want_rng)
    assert attempts >= 3
    assert got.dtype == index_dtype(g.n_nodes) and np.array_equal(got, want)
    # the same draws were made: both generators are at the same state
    assert got_rng.integers(2**62) == want_rng.integers(2**62)


@pytest.mark.parametrize("n", [20, 290, 14_376, 14_475, 65_536])
def test_int32_index_draws_equal_int64_draws(n):
    # _sample_non_edges draws int32 candidate indices: the same values, and
    # the same generator state after, as int64 draws, whole or in pieces
    narrow, wide = np.random.default_rng(n), np.random.default_rng(n)
    for size in (100_003, 7, 1):
        assert np.array_equal(narrow.integers(n, size=size, dtype=np.int32),
                              wide.integers(n, size=size))
    assert narrow.integers(2**62) == wide.integers(2**62)


@pytest.mark.parametrize("t", ["A-P", "P-V"])
def test_sample_non_edges_equals_whole_int64_draws(t):
    # at the module's BLOCK, several blocks per attempt, against the
    # reference's whole int64 arrays (as the former 65,536-pair blocks drew them)
    g = dblp_shaped_graph(np.random.default_rng(5))
    et = g.edge_type(t)
    k = 3 * evaluation.BLOCK + 5
    got_rng, want_rng = substream(5, NONEDGES), substream(5, NONEDGES)
    got = _sample_non_edges(g, et, k, got_rng)
    want, _ = sample_non_edges_whole(g, et, k, want_rng)
    assert got.dtype == index_dtype(g.n_nodes) and np.array_equal(got, want)
    assert got_rng.integers(2**62) == want_rng.integers(2**62)


@pytest.mark.parametrize("seed", [0, 1])
def test_link_split_non_edges_in_blocks_equal_whole_array_sampling(monkeypatch, seed):
    monkeypatch.setattr(evaluation, "BLOCK", 3)
    g, et = dense_graph(np.random.default_rng(seed), same_type=False, keep=0.6)
    split = make_link_split(g, "A-B", 0.3, rng=np.random.default_rng(seed))
    want_rng = np.random.default_rng(seed)
    want_rng.permutation(len(g.edges_of_type(et)))  # the split's removal order
    want, _ = sample_non_edges_whole(g, et, len(split.removed_edges), want_rng)
    assert len(want) > evaluation.BLOCK
    assert np.array_equal(split.sampled_non_edges, want)


@pytest.mark.parametrize("block", [1, 7, 10, 23, 10_000])
@pytest.mark.parametrize("same_type", [False, True])
def test_all_non_edges_in_blocks_equals_one_meshgrid(monkeypatch, block, same_type):
    monkeypatch.setattr(evaluation, "BLOCK", block)
    g, et = dense_graph(np.random.default_rng(3), same_type, keep=0.5)
    got, want = _all_non_edges(g, et), all_non_edges_whole(g, et)
    assert got.dtype == index_dtype(g.n_nodes) and np.array_equal(got, want)


def test_all_non_edges_of_a_complete_relation_is_empty(monkeypatch):
    monkeypatch.setattr(evaluation, "BLOCK", 4)
    g, et = dense_graph(np.random.default_rng(0), same_type=False, keep=1.0)
    assert _all_non_edges(g, et).shape == (0, 2)


# --- link splits ----------------------------------------------------------


def cycle_graph(n):
    nodes = [(f"c{i}", "X") for i in range(n)]
    edges = [(i, (i + 1) % n) for i in range(n)]
    return TypedGraph(nodes, edges)


def count_components(g):
    seen = set()
    comps = 0
    for s in range(g.n_nodes):
        if s in seen:
            continue
        comps += 1
        stack = [s]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(int(w) for w in neighbors(g, v))
    return comps


def test_split_on_cycle_keeps_it_connected(rng):
    # a cycle has exactly one edge more than a spanning tree, so only one
    # of the floor(0.2 * 10) = 2 requested removals is achievable
    g = cycle_graph(10)
    split = make_link_split(g, "X-X", 0.2, rng=rng)
    assert len(split.removed_edges) == 1
    assert len(split.sampled_non_edges) == 1
    assert split.warning is not None
    assert count_components(split.train_graph) == 1


def test_split_on_chorded_cycle_removes_exactly_fraction(rng):
    # with two chords the graph has 3 spare edges: both requested removals
    # succeed and the component count is unchanged
    nodes = [(f"c{i}", "X") for i in range(10)]
    edges = [(i, (i + 1) % 10) for i in range(10)] + [(0, 5), (2, 7)]
    g = TypedGraph(nodes, edges)
    split = make_link_split(g, "X-X", 0.2, rng=rng)
    assert len(split.removed_edges) == 2
    assert len(split.sampled_non_edges) == 2
    assert split.warning is None
    assert count_components(split.train_graph) == 1


def test_split_on_tree_warns_and_removes_nothing(rng):
    nodes = [(f"t{i}", "X") for i in range(6)]
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]
    g = TypedGraph(nodes, edges)
    split = make_link_split(g, "X-X", 0.2, rng=rng)
    assert split.warning is not None
    assert len(split.removed_edges) == 0


def test_split_preserves_component_count(rng):
    g = geometric_line_graph()
    split = make_link_split(g, "A-B", 0.25, rng=rng)  # floor(0.25*4) = 1 edge
    assert count_components(split.train_graph) == count_components(g)
    assert len(split.removed_edges) == 1
    for u, v in split.sampled_non_edges:
        assert not g.has_edges(u, v)


@pytest.mark.parametrize("fraction", [-0.5, 0.0, 1.5])
def test_split_rejects_a_fraction_outside_unit_interval(fraction):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="fraction"):
        make_link_split(two_block_graph(np.random.default_rng(0)), "A-B", fraction, rng=rng)
    assert rng.bit_generator.state == state  # rejected before any draw


# --- the split against the greedy one-search-per-edge reference ----------


def reference_link_split(g, t, fraction, rng):
    """The split as first written: try edges in permutation order and run a
    BFS after each tentative removal, keeping it when the endpoints stay
    connected; then draw non-edges by rejection against a set of edges."""
    et = g.edge_type(t)
    edges_t = g.edges_of_type(et)
    target = int(fraction * len(edges_t))
    order = rng.permutation(len(edges_t))
    adj = [set(map(int, neighbors(g, v))) for v in range(g.n_nodes)]

    def connected(u, v):
        seen, queue = {u}, deque([u])
        while queue:
            for y in adj[queue.popleft()]:
                if y == v:
                    return True
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return False

    removed = []
    for i in order:
        if len(removed) == target:
            break
        u, v = map(int, edges_t[i])
        adj[u].discard(v)
        adj[v].discard(u)
        if connected(u, v):
            removed.append((u, v))
        else:
            adj[u].add(v)
            adj[v].add(u)
    warning = None
    if len(removed) < target:
        warning = f"only {len(removed)} of {target} edges removable without splitting components"
    gone = {(min(u, v), max(u, v)) for u, v in removed}
    kept = [(int(u), int(v)) for u, v in g.edges if (min(u, v), max(u, v)) not in gone]

    edge_set = {(int(u), int(v)) for u, v in g.edges}
    A = g.nodes_of_type(et.endpoint_types[0])
    B = g.nodes_of_type(et.endpoint_types[1])
    non_edges = []
    while len(non_edges) < len(removed):
        m = max(len(removed) - len(non_edges), 64)
        us = A[rng.integers(A.size, size=m)]
        vs = B[rng.integers(B.size, size=m)]
        ok = [u != v and (min(u, v), max(u, v)) not in edge_set for u, v in zip(us, vs)]
        non_edges += [(int(u), int(v)) for u, v, o in zip(us, vs, ok) if o]
    non_edges = non_edges[: len(removed)]
    return (
        np.asarray(removed, dtype=np.int64).reshape(-1, 2),
        np.asarray(non_edges, dtype=np.int64).reshape(-1, 2),
        kept,
        warning,
    )


def assert_split_matches_reference(g, t, fraction, seed):
    split = make_link_split(g, t, fraction, rng=np.random.default_rng(seed))
    removed, non_edges, kept, warning = reference_link_split(
        g, t, fraction, np.random.default_rng(seed)
    )
    assert split.removed_edges.dtype == np.int64
    assert split.sampled_non_edges.dtype == index_dtype(g.n_nodes)
    np.testing.assert_array_equal(split.removed_edges, removed)
    np.testing.assert_array_equal(split.sampled_non_edges, non_edges)
    assert split.train_graph.edges.tolist() == [list(e) for e in kept]
    labels = [e.label for e in split.train_graph.edge_types]
    kept_labels = [labels[te] for te in split.train_graph.edge_type_of]
    label_of = {
        (int(u), int(v)): g.edge_types[te].label for (u, v), te in zip(g.edges, g.edge_type_of)
    }
    assert kept_labels == [label_of[e] for e in kept]
    assert split.warning == warning
    return split


@st.composite
def typed_graphs(draw):
    """Small graphs over three node types, so edges of up to six types mix.

    Edges of one type are often bridged only through edges of others,
    e.g. a0-b0 alongside the path a0-c0-b0.
    """
    n = draw(st.integers(2, 12))
    types = draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1])
            .map(lambda e: (min(e), max(e))),
            min_size=1,
            max_size=3 * n,
        )
    )
    return TypedGraph([(f"n{i}", ty) for i, ty in enumerate(types)], sorted(pairs))


@given(
    g=typed_graphs(),
    pick=st.integers(0, 5),
    fraction=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_split_matches_greedy_reference(g, pick, fraction, seed):
    et = g.edge_types[pick % len(g.edge_types)]
    # non-edges are drawn by rejection, so at least one must exist
    sides = [g.nodes_of_type(t) for t in et.endpoint_types]
    assume(any(u != v and not g.has_edges(u, v) for u in sides[0] for v in sides[1]))
    assert_split_matches_reference(g, et.label, fraction, seed)


def test_split_removes_edges_bridged_only_by_other_types():
    # the A-B edges form a tree, so each is a bridge among A-B edges alone;
    # every one is removable because a path through C joins its endpoints
    nodes = [("a0", "A"), ("a1", "A"), ("b0", "B"), ("b1", "B"), ("c0", "C")]
    edges = [(0, 2), (1, 2), (1, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
    g = TypedGraph(nodes, edges)
    for seed in range(10):
        split = assert_split_matches_reference(g, "A-B", 1.0, seed)
        assert len(split.removed_edges) == 3 and split.warning is None
        assert count_components(split.train_graph) == 1


def test_split_matches_reference_on_planted_graph():
    g = two_block_graph(np.random.default_rng(0))
    split = assert_split_matches_reference(g, "A-B", 0.2, 0)
    assert len(split.removed_edges) == int(0.2 * len(g.edges_of_type("A-B")))


def tuple_rebuild(g, keep):
    """``edge_subgraph`` as first written in ``make_link_split``: g's nodes and
    the kept edges, as (u, v, label) tuples, through ``TypedGraph``; then the
    edge types that are left renumbered in g's order, not first-seen order."""
    nodes = [(nid, g.node_types[t].label) for nid, t in zip(g.node_ids, g.node_type_of)]
    kept = [
        (u, v, g.edge_types[te].label)
        for (u, v), te in zip(g.edges[keep].tolist(), g.edge_type_of[keep].tolist())
    ]
    h = TypedGraph(nodes, kept)
    in_g = [g.edge_type(t.label).id for t in h.edge_types]
    new_id = np.argsort(np.argsort(in_g))
    h.edge_types = sorted((EdgeType(int(new_id[t.id]), t.endpoint_types, t.label)
                           for t in h.edge_types), key=lambda t: t.id)
    h.edge_type_of = new_id[h.edge_type_of]
    return h


@pytest.mark.parametrize("graph", ["planted", "bridged"])
def test_split_train_graph_equals_the_tuple_rebuild(graph):
    if graph == "planted":
        g = two_block_graph(np.random.default_rng(0))
        fraction, types_left = 0.2, ["A-B", "B-C"]
    else:
        # every A-B edge is removable, so A-B is dropped and the others renumbered
        nodes = [("a0", "A"), ("a1", "A"), ("b0", "B"), ("b1", "B"), ("c0", "C")]
        g = TypedGraph(nodes, [(0, 2), (1, 2), (1, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
        fraction, types_left = 1.0, ["A-C", "B-C"]
    split = make_link_split(g, "A-B", fraction, rng=np.random.default_rng(0))
    gone = set(map(tuple, split.removed_edges.tolist()))
    keep = np.array([e not in gone for e in map(tuple, g.edges.tolist())])
    assert (~keep).sum() == len(split.removed_edges) > 0
    assert [t.label for t in split.train_graph.edge_types] == types_left
    assert_same_graph(split.train_graph, tuple_rebuild(g, keep))


@given(g=typed_graphs(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_edge_subgraph_equals_the_tuple_rebuild(g, data):
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=g.n_edges, max_size=g.n_edges)),
                    dtype=bool)
    assert_same_graph(g.edge_subgraph(keep), tuple_rebuild(g, keep))


def test_a_split_keeps_the_edge_type_ids_of_its_graph(split_graphs):
    # at graph seed 11 the split removes the first edge, an A-P edge, so a
    # P-V edge comes first among the kept ones
    g = split_graphs["dblp"]
    split = make_link_split(g, "A-P", 0.2, rng=substream(11, SPLITS))
    tg = split.train_graph
    assert g.edge_type_of[0] == g.edge_type("A-P").id
    assert (split.removed_edges == g.edges[0]).all(axis=1).any()
    assert tg.edge_types == g.edge_types
    emb = init_embeddings(tg, 2, INIT_SCALE, np.random.default_rng(0))
    report = reconstruct(tg, emb, g.edge_type("A-P"), max_neg=1000, rng=np.random.default_rng(0))
    assert report.edge_type == "A-P" and report.n_pos == len(tg.edges_of_type("A-P")) == 22_995


def component_removable(g, et, edges_t, order):
    """``_removable`` as first written: scipy labels the components of the
    other-type edges, then the backward union-find runs over those labels."""
    other = g.edges[g.edge_type_of != et.id]
    adj = coo_matrix(
        (np.ones(len(other), dtype=np.int8), (other[:, 0], other[:, 1])),
        shape=(g.n_nodes, g.n_nodes),
    )
    n_comp, label = connected_components(adj, directed=False)
    parent = list(range(n_comp))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    lu = label[edges_t[order, 0]].tolist()
    lv = label[edges_t[order, 1]].tolist()
    removable = np.zeros(len(order), dtype=bool)
    for j in range(len(order) - 1, -1, -1):
        a, b = find(lu[j]), find(lv[j])
        if a == b:
            removable[j] = True
        else:
            parent[a] = b
    return removable


@pytest.fixture(scope="module")
def split_graphs():
    return {
        "dblp": dblp_shaped_graph(np.random.default_rng(11)),
        "two_block": two_block_graph(np.random.default_rng(0)),
    }


@pytest.mark.parametrize("graph, t", [("dblp", "A-P"), ("dblp", "P-V"), ("two_block", "A-B")])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_is_byte_identical_to_the_component_reference(monkeypatch, split_graphs, graph, t, seed):
    g = split_graphs[graph]
    got = make_link_split(g, t, 0.2, rng=np.random.default_rng(seed))
    monkeypatch.setattr(evaluation, "_removable", component_removable)
    want = make_link_split(g, t, 0.2, rng=np.random.default_rng(seed))
    assert len(got.removed_edges) > 0 and got.warning == want.warning
    for a, b in (
        (got.removed_edges, want.removed_edges),
        (got.sampled_non_edges, want.sampled_non_edges),
        (got.train_graph.edges, want.train_graph.edges),
    ):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_link_prediction_perfect_memorizer(rng):
    g = geometric_line_graph()
    emb = place_on_line([0.0, 3.0, 0.5, 1.5, 3.5])  # memorizes the full graph
    split = make_link_split(g, "A-B", 0.25, rng=rng)
    rep = link_prediction_eval(split, emb)
    assert rep.auc == 1.0
    assert rep.n_pos == rep.n_neg == 1


def test_link_prediction_random_embedding_near_half():
    rng = np.random.default_rng(5)
    nodes = [(f"c{i}", "X") for i in range(200)]
    edges = [(i, (i + 1) % 200) for i in range(200)]
    edges += [tuple(sorted(rng.choice(200, size=2, replace=False))) for _ in range(100)]
    g = TypedGraph(nodes, edges)
    split = make_link_split(g, "X-X", 0.2, rng=rng)
    assert len(split.removed_edges) >= 30
    emb = embed_at(random_points(rng, 200, 3))
    rep = link_prediction_eval(split, emb)
    assert abs(rep.auc - 0.5) < 0.2  # 40 positives; wide but centered


# --- regions and projection ----------------------------------------------


def test_region_stats_all_at_origin(tiny_hetero):
    emb = embed_at(np.tile(lorentz.origin(2), (6, 1)))
    rep = region_stats(tiny_hetero, emb, "author")
    assert [b.count for b in rep.regions] == [2, 0, 0]
    assert rep.overflow.count == 0
    assert rep.regions[0].mean_degree == pytest.approx(1.5)  # a0 wrote 2 papers, a1 wrote 1
    assert rep.regions[1].mean_degree is None and rep.overflow.mean_degree is None  # empty bands


def test_region_partition_sums_to_type_count(rng):
    nodes = [(f"n{i}", "N") for i in range(30)]
    g = TypedGraph(nodes, [(i, (i + 1) % 30) for i in range(30)])
    emb = embed_at(random_points(rng, 30, 2, scale=3.0))
    rep = region_stats(g, emb, "N", boundaries=[1.0, 2.0, 3.0])
    total = sum(b.count for b in rep.regions) + rep.overflow.count
    assert total == 30


def test_region_assignment_uses_poincare_radius():
    emb = place_on_line([0.5, 2.5, 4.5, 6.5, 0.0])
    nodes = [(f"n{i}", "N") for i in range(5)]
    g = TypedGraph(nodes, [(0, 1), (1, 2), (2, 3), (3, 4)])
    rep = region_stats(g, emb, "N")
    assert [b.count for b in rep.regions] == [2, 1, 1]
    assert rep.overflow.count == 1


def test_region_radius_holds_far_from_the_origin():
    # at radius 40 the Poincare point rounds onto the unit sphere, where the
    # ball's distance formula no longer resolves it; arccosh(x_t) still does
    emb = place_on_line([20.0, 40.0])
    assert np.linalg.norm(lorentz.to_poincare(emb.coords[1])) == 1.0
    g = TypedGraph([("n0", "N"), ("n1", "N")], [(0, 1)])
    rep = region_stats(g, emb, "N", boundaries=[19.9, 20.1, 39.9, 40.1])
    assert [b.count for b in rep.regions] == [0, 1, 0, 1] and rep.overflow.count == 0
    assert poincare_projection(emb)[:, 2] == pytest.approx([20.0, 40.0], rel=1e-12)


def test_region_stats_rejects_boundaries_out_of_order():
    g = two_block_graph(np.random.default_rng(0), sizes=(30, 6, 30))
    emb = init_embeddings(g, 2, 1.0, np.random.default_rng(0))
    # in increasing order, a node goes to the first band whose upper boundary
    # is >= its radius, and 5 of the 30 A nodes lie beyond radius 1.0
    rep = region_stats(g, emb, "A", boundaries=[0.5, 1.0])
    assert [b.count for b in rep.regions] == [9, 16] and rep.overflow.count == 5
    for bad in ([1.0, 0.5], [0.5, 0.5], [], [float("nan")], [0.5, float("inf")]):
        with pytest.raises(ValueError, match="non-empty and strictly increasing"):
            region_stats(g, emb, "A", boundaries=bad)


def test_poincare_projection_roundtrip(rng):
    pts = random_points(rng, 5, 2, scale=1.5)
    pts[0] = lorentz.origin(2)
    rows = poincare_projection(embed_at(pts))
    assert len(rows) == 5
    for row in rows:
        p = row[:2]
        assert np.linalg.norm(p) < 1.0
        recomputed = 2 * np.arctanh(np.linalg.norm(p))  # distance from the ball's center
        assert row[2] == pytest.approx(recomputed, abs=1e-9)
    assert rows[0][0] == rows[0][1] == 0.0 or rows[0][2] == pytest.approx(0.0)


def test_poincare_projection_restricts_higher_dims(rng):
    pts = random_points(rng, 4, 5)
    rows = poincare_projection(embed_at(pts))
    assert rows.shape == (4, 3)
    # the same rows as the points restricted to their first two spatial coordinates
    flat = poincare_projection(embed_at(lorentz.normalize(pts[:, [0, 1, -1]])))
    np.testing.assert_array_equal(rows, flat)
