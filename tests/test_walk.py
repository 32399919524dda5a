"""Self-guided random walks: transition law, sampling, generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwalk import seeding
from hyperwalk.evaluation import make_link_split
from hyperwalk.graph import TypedGraph
from hyperwalk.synthetic import powerlaw_bipartite_graph, two_block_graph
from hyperwalk.walk import (
    DeadEnd,
    WalkConfig,
    dump_walks,
    generate_walks,
    sample_transition,
    self_guided_walk,
    transition_distribution,
)
from tests.test_graph import reference_build


def start_counts(g, v):
    """Type counts of a walk that has only visited v."""
    counts = np.zeros(len(g.node_types), dtype=np.int64)
    counts[g.node_type_of[v]] = 1
    return counts


def star_graph():
    """Center c with one type-A and one type-B neighbor."""
    nodes = [("c", "C"), ("a1", "A"), ("b1", "B")]
    return TypedGraph(nodes, [(0, 1), (0, 2)])


def test_transition_down_weights_frequent_types():
    # walk so far saw type A twice, type B once; next step from c:
    # P(b1) = e^{-1} / (e^{-2} + e^{-1}) = 1 / (1 + e^{-1})
    g = star_graph()
    counts = start_counts(g, 0)
    counts[g.node_type("A").id] = 2
    counts[g.node_type("B").id] = 1
    dist = transition_distribution(g, 0, counts)
    assert dist[2] == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)
    assert dist[1] == pytest.approx(math.exp(-1) / (1 + math.exp(-1)), abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_transition_uniform_within_a_type():
    nodes = [("c", "C"), ("a1", "A"), ("a2", "A"), ("b1", "B")]
    g = TypedGraph(nodes, [(0, 1), (0, 2), (0, 3)])
    dist = transition_distribution(g, 0, start_counts(g, 0))  # A and B tie at 0
    assert dist[1] == dist[2] == pytest.approx(0.25, abs=1e-12)
    assert dist[3] == pytest.approx(0.5, abs=1e-12)


def test_transition_raises_at_dead_end():
    g = TypedGraph([("a", "t"), ("b", "t")], [])
    with pytest.raises(DeadEnd):
        transition_distribution(g, 0, start_counts(g, 0))
    rng = np.random.default_rng(0)
    assert sample_transition(g, 0, start_counts(g, 0), rng) is None


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_transition_matches_per_neighbor_formula(seed):
    """Type-first sampling induces exp(-N_t)/|neighbors of type t| per node."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    labels = ["A", "B", "C"]
    nodes = [(f"n{i}", labels[int(rng.integers(3))]) for i in range(n)]
    edges = [(0, j) for j in range(1, n)]  # star: ensures <= 6ish neighbor groups
    g = TypedGraph(nodes, edges)
    counts = start_counts(g, 0)
    for _ in range(int(rng.integers(0, 20))):
        counts[int(rng.integers(3)) % len(g.node_types)] += 1
    dist = transition_distribution(g, 0, counts)
    weights = {}
    for v in g.neighbors(0):
        t = int(g.node_type_of[v])
        per_type = g.neighbors(0)[g.node_type_of[g.neighbors(0)] == t].size
        weights[int(v)] = math.exp(-int(counts[t])) / per_type
    z = sum(weights.values())
    for v, w in weights.items():
        assert dist[v] == pytest.approx(w / z, abs=1e-12)


def test_sample_transition_empirical_frequencies():
    g = star_graph()
    counts = start_counts(g, 0)
    counts[g.node_type("A").id] = 2
    counts[g.node_type("B").id] = 1
    dist = transition_distribution(g, 0, counts)
    rng = np.random.default_rng(7)
    n = 100_000
    hits = sum(sample_transition(g, 0, counts, rng) == 2 for _ in range(n))
    p = dist[2]
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * se


def test_walk_stays_on_edges(triangle):
    rng = np.random.default_rng(1)
    w = self_guided_walk(triangle, 0, 40, rng)
    assert w[0] == 0 and len(w) == 40
    for u, v in zip(w, w[1:]):
        assert v in triangle.neighbors(u)


def test_walk_truncates_at_dead_end():
    g = TypedGraph([("a", "t")], [])
    assert self_guided_walk(g, 0, 10, np.random.default_rng(0)) == [0]


def test_type_counts_include_the_start_node():
    # a1 -> c -> ?: with the start counted, N_A = N_C = 1 and N_B = 0, so
    # P(b1) = 1 / (1 + e^{-1}); without it, A and B would tie at 1/2
    g = star_graph()
    rng = np.random.default_rng(11)
    n = 20_000
    hits = sum(self_guided_walk(g, 1, 3, rng)[2] == 2 for _ in range(n))
    p = 1 / (1 + math.exp(-1))
    assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_generate_walks_shape_and_determinism(tiny_hetero):
    cfg = WalkConfig(walks_per_node=3, walk_length=10, seed=5)
    walks = generate_walks(tiny_hetero, cfg)
    assert len(walks) == tiny_hetero.n_nodes * 3
    starts = [w[0] for w in walks]
    assert starts == sorted(starts)
    assert walks == generate_walks(tiny_hetero, cfg)
    assert walks != generate_walks(tiny_hetero, WalkConfig(3, 10, seed=6))


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(walk_length=1)
    with pytest.raises(ValueError):
        WalkConfig(walks_per_node=0)


def test_dump_walks_uses_external_ids(tiny_hetero, tmp_path):
    walks = generate_walks(tiny_hetero, WalkConfig(1, 5, seed=0))
    out = tmp_path / "walks.txt"
    dump_walks(walks, tiny_hetero, out)
    lines = out.read_text().splitlines()
    assert len(lines) == len(walks)
    assert lines[0].split()[0] == "a0"
    ids = set(tiny_hetero.node_ids)
    assert all(tok in ids for line in lines for tok in line.split())


def reference_walks(g, cfg):
    """The per-step walker generate_walks replaced, over the per-node group
    lists of the per-edge builder (groups in first-seen order)."""
    nodes = [(nid, g.node_types[t].label) for nid, t in zip(g.node_ids, g.node_type_of)]
    adj = [
        [(t, np.asarray(ns)) for t, ns in groups]
        for groups in reference_build(nodes, g.edges.tolist())["groups"]
    ]
    walks = []
    for node in range(g.n_nodes):
        for rep in range(cfg.walks_per_node):
            rng = seeding.substream(cfg.seed, seeding.WALKS, node, rep)
            walk = [node]
            counts = np.zeros(len(g.node_types), dtype=np.int64)
            counts[g.node_type_of[node]] += 1
            while len(walk) < cfg.walk_length and adj[walk[-1]]:
                groups = adj[walk[-1]]
                arr = groups[0][1]
                if len(groups) > 1:
                    shift = min(int(counts[t]) for t, _ in groups)
                    weights = [math.exp(-(int(counts[t]) - shift)) for t, _ in groups]
                    r = rng.random() * sum(weights)
                    acc = 0.0
                    arr = groups[-1][1]
                    for (_, a), w in zip(groups, weights):
                        acc += w
                        if r < acc:
                            arr = a
                            break
                nxt = int(arr[0]) if arr.size == 1 else int(arr[rng.integers(arr.size)])
                walk.append(nxt)
                counts[g.node_type_of[nxt]] += 1
            walks.append(walk)
    return walks


@pytest.mark.parametrize("graph", ["two_block A-B train graph", "powerlaw bipartite"])
def test_generate_walks_match_the_per_step_reference(graph):
    if graph == "powerlaw bipartite":
        g = powerlaw_bipartite_graph(np.random.default_rng(1))
    else:
        full = two_block_graph(np.random.default_rng(0))
        g = make_link_split(full, "A-B", 0.2, rng=seeding.substream(0, seeding.SPLITS)).train_graph
    cfg = WalkConfig(walks_per_node=2, walk_length=40, seed=3)
    walks = generate_walks(g, cfg)
    assert walks == reference_walks(g, cfg)
    assert all(type(v) is int for w in walks for v in w)
