"""Typed graph container: construction, lookups, persistence."""

import numpy as np
import pytest

from hyperwalk.graph import (
    GraphError,
    TypedGraph,
    degree_stats,
    load_graph,
    neighbors_by_type,
)


def test_basic_counts(tiny_hetero):
    g = tiny_hetero
    assert g.n_nodes == 6
    assert g.n_edges == 6
    assert g.is_heterogeneous
    assert sorted(t.label for t in g.node_types) == ["author", "paper", "venue"]
    assert sorted(t.label for t in g.edge_types) == ["published_at", "writes"]


def test_node_lookup(tiny_hetero):
    g = tiny_hetero
    assert g.node_index("p1") == 3
    assert g.node_type("author").label == "author"
    assert g.node_types[g.node_type_of[3]].label == "paper"
    with pytest.raises(GraphError):
        g.node_index("nope")


def test_neighbors_are_symmetric(tiny_hetero):
    g = tiny_hetero
    for u, v in g.edges:
        assert v in g.neighbors(u)
        assert u in g.neighbors(v)
        assert g.has_edge(int(u), int(v)) and g.has_edge(int(v), int(u))
    assert not g.has_edge(0, 1)


def test_has_edges_matches_has_edge(tiny_hetero):
    g = tiny_hetero
    us, vs = np.divmod(np.arange(g.n_nodes**2), g.n_nodes)
    got = g.has_edges(us, vs)
    assert got.dtype == bool and got.shape == us.shape
    assert got.tolist() == [g.has_edge(int(u), int(v)) for u, v in zip(us, vs)]
    edges = {(int(u), int(v)) for u, v in g.edges}
    assert got.tolist() == [(u, v) in edges or (v, u) in edges for u, v in zip(us, vs)]
    assert TypedGraph([("a", "t"), ("b", "t")], []).has_edges([0], [1]).tolist() == [False]


def test_neighbors_by_type(tiny_hetero):
    g = tiny_hetero
    papers_of_a0 = neighbors_by_type(g, 0, "paper")
    assert sorted(g.node_ids[v] for v in papers_of_a0) == ["p0", "p1"]
    assert neighbors_by_type(g, 0, "venue").size == 0


def test_degrees(tiny_hetero):
    g = tiny_hetero
    degs = g.degrees()
    assert degs.sum() == 2 * g.n_edges
    assert g.degree(3) == 4  # p1: a0, a1, v0, v1
    stats = degree_stats(g)
    assert set(stats) == {"author", "paper", "venue"}


def test_edges_of_type(tiny_hetero):
    g = tiny_hetero
    w = g.edges_of_type("writes")
    assert len(w) == 3
    for u, v in w:
        labels = {g.node_types[g.node_type_of[u]].label, g.node_types[g.node_type_of[v]].label}
        assert labels == {"author", "paper"}


def test_save_load_roundtrip(tiny_hetero, tmp_path):
    g = tiny_hetero
    g.save(tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
    h = load_graph(tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
    assert h.n_nodes == g.n_nodes and h.n_edges == g.n_edges
    assert list(h.node_ids) == list(g.node_ids)
    np.testing.assert_array_equal(h.node_type_of, g.node_type_of)
    np.testing.assert_array_equal(np.sort(h.edges, axis=0), np.sort(g.edges, axis=0))


def test_rejects_bad_edges():
    with pytest.raises(GraphError):
        TypedGraph([("a", "t")], [(0, 1)])  # endpoint out of range
    with pytest.raises(GraphError):
        TypedGraph([("a", "t"), ("a", "t")], [])  # duplicate id


def test_isolated_node_has_no_neighbors():
    g = TypedGraph([("a", "t"), ("b", "t")], [])
    assert g.neighbors(0).size == 0
    assert g.adjacency_groups(0) == []
