"""Self-guided random walks: transition law, lock-step sampling, generation."""

import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwalk.graph import TypedGraph
from hyperwalk.synthetic import dblp_shaped_graph
from hyperwalk.trainer import TrainConfig
from hyperwalk.walk import WalkConfig, dump_walks, generate_walks, step
from tests.conftest import exact_step_law, law_of_step, neighbors, walks_of


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
    dist = law_of_step(g, 0, counts)
    assert dist[2] == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)
    assert dist[1] == pytest.approx(math.exp(-1) / (1 + math.exp(-1)), abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_transition_uniform_within_a_type():
    nodes = [("c", "C"), ("a1", "A"), ("a2", "A"), ("b1", "B")]
    g = TypedGraph(nodes, [(0, 1), (0, 2), (0, 3)])
    dist = law_of_step(g, 0, start_counts(g, 0))  # A and B tie at 0
    assert dist[1] == dist[2] == pytest.approx(0.25, abs=1e-12)
    assert dist[3] == pytest.approx(0.5, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_transition_matches_per_neighbor_formula(seed):
    """step's law, read off with a stub rng, gives each neighbor of type t
    exp(-N_t)/|neighbors of type t|, normalized."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    labels = ["A", "B", "C"]
    nodes = [(f"n{i}", labels[int(rng.integers(3))]) for i in range(n)]
    edges = [(0, j) for j in range(1, n)]  # star: ensures <= 6ish neighbor groups
    g = TypedGraph(nodes, edges)
    counts = start_counts(g, 0)
    for _ in range(int(rng.integers(0, 20))):
        counts[int(rng.integers(3)) % len(g.node_types)] += 1
    dist = law_of_step(g, 0, counts)
    exact = exact_step_law(g, 0, counts)
    assert dist.keys() == exact.keys()
    for v, p in exact.items():
        assert dist[v] == pytest.approx(p, abs=1e-12)


def draw_steps(g, v, counts, n, seed):
    """n lock-step draws from one (node, type counts) state; returns the
    drawn nodes and the walkers' updated counts."""
    walkers = np.tile(np.asarray(counts, dtype=np.float64), (n, 1))
    nodes = step(g, np.full(n, v), walkers, np.random.default_rng(seed))
    return nodes, walkers


def max_abs_z(hits, n, dist):
    """Largest |z| of the empirical frequencies of ``dist``'s outcomes."""
    return max(abs(hits.get(u, 0) - n * p) / math.sqrt(n * p * (1 - p)) for u, p in dist.items())


def test_step_empirical_frequencies():
    g = star_graph()
    counts = start_counts(g, 0)
    counts[g.node_type("A").id] = 2
    counts[g.node_type("B").id] = 1
    n = 100_000
    nodes, walkers = draw_steps(g, 0, counts, n, seed=7)
    assert max_abs_z(dict(zip(*np.unique(nodes, return_counts=True))), n,
                     exact_step_law(g, 0, counts)) <= 3
    # each walker counted the type it stepped to
    assert np.array_equal(walkers - counts, np.eye(len(g.node_types))[g.node_type_of[nodes]])


def test_step_on_a_dblp_paper_node_matches_the_exact_law():
    g = dblp_shaped_graph(np.random.default_rng(0))
    a, v = g.node_type("A").id, g.node_type("V").id
    paper = next(int(p) for p in g.nodes_of_type("P") if neighbors(g, p).size == 4)
    # a walk that came to the paper from an author: N_A = N_P = 1
    counts = start_counts(g, paper)
    counts[a] = 1
    dist = exact_step_law(g, paper, counts)
    assert {int(g.node_type_of[u]) for u in dist} == {a, v}
    n = 400_000
    nodes, _ = draw_steps(g, paper, counts, n, seed=8)
    assert max_abs_z(dict(zip(*np.unique(nodes, return_counts=True))), n, dist) <= 3


def reference_step(g, nodes, counts, rng):
    """``walk.step`` as whole-array expressions: exp and cumsum over the
    (T, walkers) weights, an absent type's weight exp(-inf), 2-D picks.
    The step must draw the same nodes and counts from the same stream."""
    n_types = counts.shape[1]
    bounds = g.type_offsets[nodes * n_types + np.arange(n_types + 1)[:, None]]
    sizes = np.diff(bounds, axis=0)
    masked = np.where(sizes > 0, counts.T, np.inf)
    cum = np.exp(masked.min(axis=0) - masked).cumsum(axis=0)
    r = rng.random(len(nodes)) * cum[-1]
    t = np.count_nonzero(cum <= r, axis=0)
    walkers = np.arange(len(nodes))
    counts[walkers, t] += 1
    return g.adjacency[bounds[t, walkers] + rng.integers(sizes[t, walkers])]


@pytest.mark.parametrize("order", ["C", "F"])  # generate_walks keeps F-ordered counts
def test_step_equals_the_reference_step_in_either_memory_order(order):
    g = dblp_shaped_graph(np.random.default_rng(0))
    rng = np.random.default_rng(1)
    nodes = rng.choice(np.flatnonzero(g.degrees() > 0), 5000)
    counts = np.asarray(rng.integers(0, 40, size=(5000, len(g.node_types))), float, order=order)
    want_counts = counts.copy(order="K")
    got_rng, want_rng = np.random.default_rng(2), np.random.default_rng(2)
    got = step(g, nodes, counts, got_rng)
    want = reference_step(g, nodes, want_counts, want_rng)
    assert np.array_equal(got, want)
    assert counts.flags[f"{order}_CONTIGUOUS"] and np.array_equal(counts, want_counts)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@st.composite
def walk_graphs(draw):
    """Up to 12 nodes of 1-4 types, isolated ones among them, and up to 30 edges."""
    n_types = draw(st.integers(1, 4))
    types = draw(st.lists(st.integers(0, n_types - 1), min_size=1, max_size=12))
    n = len(types)
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    edges = sorted({(min(u, v), max(u, v)) for u, v in ends if u != v})
    return TypedGraph([(f"n{i}", f"T{t}") for i, t in enumerate(types)], edges)


@given(g=walk_graphs(), walks_per_node=st.integers(1, 3), walk_length=st.integers(2, 6),
       seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_generate_walks_equals_walks_of_the_reference_step(g, walks_per_node, walk_length, seed):
    cfg = WalkConfig(walks_per_node, walk_length, seed)
    with mock.patch("hyperwalk.walk.step", reference_step):
        want = generate_walks(g, cfg).matrix
    assert np.array_equal(generate_walks(g, cfg).matrix, want)


def two_step_law(g, s):
    """Exact probability of each two-step path s -> u -> w: the counts of the
    second step include the start node and u."""
    law = {}
    for u, p1 in exact_step_law(g, s, start_counts(g, s)).items():
        counts = start_counts(g, s)
        counts[g.node_type_of[u]] += 1
        for w, p2 in exact_step_law(g, u, counts).items():
            law[(u, w)] = p1 * p2
    return law


def test_type_counts_include_the_start_node(tiny_hetero):
    # e.g. on the star, a1 -> c -> ?: with the start counted, N_A = N_C = 1 and
    # N_B = 0, so P(b1) = 1 / (1 + e^{-1}); without it, A and B would tie at 1/2.
    # Every two-step path frequency of generate_walks matches the exact law.
    n = 20_000
    for g in (star_graph(), tiny_hetero):
        walks = generate_walks(g, WalkConfig(walks_per_node=n, walk_length=3, seed=11)).matrix
        for s in range(g.n_nodes):
            paths, hits = np.unique(walks[s * n : (s + 1) * n, 1:], axis=0, return_counts=True)
            law = two_step_law(g, s)
            assert set(map(tuple, paths.tolist())) <= set(law)
            assert max_abs_z(dict(zip(map(tuple, paths.tolist()), hits)), n, law) <= 4


def test_walk_stays_on_edges(triangle):
    walks = generate_walks(triangle, WalkConfig(walks_per_node=2, walk_length=40, seed=1))
    for w in walks:
        assert len(w) == 40
        for u, v in zip(w, w[1:]):
            assert v in neighbors(triangle, u)


def test_walk_truncates_at_dead_end():
    g = TypedGraph([("a", "t"), ("b", "t"), ("c", "u")], [(0, 2)])
    walks = generate_walks(g, WalkConfig(walks_per_node=2, walk_length=10, seed=0))
    assert [len(w) for w in walks] == [10, 10, 1, 1, 10, 10]
    assert walks[2].tolist() == [1]
    assert (walks.matrix[2:4, 1:] == -1).all()
    assert generate_walks(TypedGraph([], []), WalkConfig(2, 10)).matrix.shape == (0, 10)


def test_generate_walks_shape_and_determinism(tiny_hetero):
    cfg = WalkConfig(walks_per_node=3, walk_length=10, seed=5)
    walks = generate_walks(tiny_hetero, cfg)
    assert len(walks) == tiny_hetero.n_nodes * 3
    assert walks.matrix.dtype == np.int32 and walks.matrix.shape == (len(walks), 10)
    starts = [w[0] for w in walks]
    assert starts == sorted(starts)
    assert np.array_equal(walks.matrix, generate_walks(tiny_hetero, cfg).matrix)
    assert not np.array_equal(walks.matrix, generate_walks(tiny_hetero, WalkConfig(3, 10, seed=6)).matrix)


def test_walks_read_as_a_list_of_walks():
    lists = [[3, 1, 3], [2], [], [0, 1, 2, 3]]
    walks = walks_of(lists)
    assert walks.matrix.shape == (4, 4) and walks.matrix[1, 1] == -1
    assert len(walks) == 4
    assert [len(w) for w in walks] == [3, 1, 0, 4]
    assert [w.tolist() for w in walks] == lists
    assert walks[3].tolist() == [0, 1, 2, 3]
    edited = copy.deepcopy(walks)
    del edited[0][-1]
    assert edited[0] == [3, 1] and walks[0].tolist() == [3, 1, 3]
    assert len(walks_of([])) == 0


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(walk_length=1)
    with pytest.raises(ValueError):
        WalkConfig(walks_per_node=0)


@pytest.mark.parametrize("field, value, message", [
    ("seed", -1, "seed must be non-negative"),
    ("lr", 0.0, "lr, batch_size, negatives must be positive"),
    ("lr", float("nan"), "lr must be finite"),
    ("batch_size", 0, "lr, batch_size, negatives must be positive"),
    ("negatives_per_positive", 0, "lr, batch_size, negatives must be positive"),
    ("epochs", -1, "epochs must be >= 0"),
])
def test_train_config_validation(field, value, message):
    # rejected at construction, as WalkConfig's fields are, not inside train
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


def test_dump_walks_uses_external_ids(tiny_hetero, tmp_path):
    walks = generate_walks(tiny_hetero, WalkConfig(1, 5, seed=0))
    out = tmp_path / "walks.txt"
    dump_walks(walks, tiny_hetero, out)
    lines = out.read_text().splitlines()
    assert len(lines) == len(walks)
    assert lines[0].split()[0] == "a0"
    assert [line.split() for line in lines] == [[tiny_hetero.node_ids[v] for v in w] for w in walks]
