"""Typed graph container: construction, lookups, persistence."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwalk.graph import GraphError, TypedGraph, load_graph
from tests.conftest import neighbors


def test_basic_counts(tiny_hetero):
    g = tiny_hetero
    assert g.n_nodes == 6
    assert g.n_edges == 6
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
        assert v in neighbors(g, u)
        assert u in neighbors(g, v)
        assert g.has_edges([u, v], [v, u]).all()
    assert not g.has_edges(0, 1)


def test_has_edges_matches_the_edge_set(tiny_hetero):
    g = tiny_hetero
    us, vs = np.divmod(np.arange(g.n_nodes**2), g.n_nodes)
    got = g.has_edges(us, vs)
    assert got.dtype == bool and got.shape == us.shape
    edges = {(int(u), int(v)) for u, v in g.edges}
    assert got.tolist() == [(u, v) in edges or (v, u) in edges for u, v in zip(us, vs)]
    assert TypedGraph([("a", "t"), ("b", "t")], []).has_edges([0], [1]).tolist() == [False]


def test_adjacency_groups(tiny_hetero):
    g = tiny_hetero
    paper, venue = g.node_type("paper").id, g.node_type("venue").id
    groups = dict(g.adjacency_groups(0))
    assert list(groups) == [paper]
    assert [g.node_ids[v] for v in groups[paper]] == ["p0", "p1"]  # edge order
    # p1: authors a1, a0 and venues v0, v1, in type-id order
    assert [(t, [g.node_ids[v] for v in a]) for t, a in g.adjacency_groups(3)] == [
        (g.node_type("author").id, ["a1", "a0"]),
        (venue, ["v0", "v1"]),
    ]


def test_degrees(tiny_hetero):
    g = tiny_hetero
    degs = g.degrees()
    assert degs.sum() == 2 * g.n_edges
    assert degs[3] == 4  # p1: a0, a1, v0, v1


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
    assert neighbors(g, 0).size == 0
    assert g.adjacency_groups(0) == []


# --- reference builder ----------------------------------------------------


def reference_build(nodes, edges):
    """The per-edge dict-loop builder that TypedGraph's array build replaced.

    Returns the edge fields TypedGraph sets and, per node, its neighbor
    groups as a list of (type id, neighbor list) in first-seen order.
    Raises GraphError with the messages TypedGraph uses.
    """
    type_by_label: dict = {}
    node_type_of = []
    for _, label in nodes:
        node_type_of.append(type_by_label.setdefault(label, len(type_by_label)))
    type_labels = list(type_by_label)
    n = len(nodes)
    edge_types: dict = {}  # label -> (id, endpoint types)
    auto_label: dict = {}
    canon: dict = {}
    dups = loops = 0
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references a node index out of range")
        label = e[2] if len(e) > 2 else None
        if u == v:
            loops += 1
            continue
        tu, tv = node_type_of[u], node_type_of[v]
        pair = (min(tu, tv), max(tu, tv))
        if label is None:
            label = auto_label.setdefault(pair, f"{type_labels[pair[0]]}-{type_labels[pair[1]]}")
        tid, expected = edge_types.setdefault(label, (len(edge_types), pair))
        if expected != pair:
            raise GraphError(
                f"edge ({nodes[u][0]}, {nodes[v][0]}) contradicts edge "
                f"type {label!r}: expected endpoint types {expected}, got {pair}"
            )
        key = (min(u, v), max(u, v))
        if key in canon:
            dups += 1
            continue
        canon[key] = tid
    grouped = [{} for _ in range(n)]
    for u, v in canon:
        grouped[u].setdefault(node_type_of[v], []).append(v)
        grouped[v].setdefault(node_type_of[u], []).append(u)
    if dups or loops:
        warnings.warn(f"collapsed {dups} duplicate edge(s), dropped {loops} self-loop(s)")
    return {
        "edges": [list(k) for k in canon],
        "edge_type_of": list(canon.values()),
        "edge_types": [(i, pair, label) for label, (i, pair) in edge_types.items()],
        "duplicate_edges": dups,
        "self_loops_dropped": loops,
        "groups": [list(g.items()) for g in grouped],
    }


def build(builder, nodes, edges):
    """(result or GraphError message, warning messages) of one builder."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = builder(nodes, edges)
        except GraphError as exc:
            out = str(exc)
    return out, [str(w.message) for w in caught]


def fields_of(g: TypedGraph):
    return {
        "edges": g.edges.tolist(),
        "edge_type_of": g.edge_type_of.tolist(),
        "edge_types": [(t.id, t.endpoint_types, t.label) for t in g.edge_types],
        "duplicate_edges": g.duplicate_edges,
        "self_loops_dropped": g.self_loops_dropped,
        "groups": [[(t, a.tolist()) for t, a in g.adjacency_groups(v)] for v in range(g.n_nodes)],
    }


@st.composite
def typed_edge_lists(draw):
    """Small graphs with 1-3 node types, duplicate edges in both orientations,
    self-loops, and explicit, inferred and absent edge labels; up to two
    isolated nodes come last, of a type that may have no edge at all."""
    n, labels = draw(st.integers(1, 9)), "ABC"[: draw(st.integers(1, 3))]
    nodes = [(f"n{i}", draw(st.sampled_from(labels))) for i in range(n)]
    type_ids: dict = {}
    for _, label in nodes:
        type_ids.setdefault(label, len(type_ids))
    edges = []
    for _ in range(draw(st.integers(0, 40))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        lu, lv = sorted((nodes[u][1], nodes[v][1]), key=type_ids.get)
        # labels are consistent per type pair: the inferred one, or one of two
        # others; one edge type may also carry more than one label
        form = draw(st.sampled_from(["absent", "none", "inferred", "rel0", "rel1"]))
        if form == "absent":
            edges.append((u, v))
        elif form == "none":
            edges.append((u, v, None))
        elif form == "inferred":
            edges.append((u, v, f"{lu}-{lv}"))
        else:
            edges.append((u, v, f"{form}:{''.join(sorted(lu + lv))}"))
    isolated = draw(st.integers(0, 2))
    nodes += [(f"n{i}", draw(st.sampled_from(labels + "Z"))) for i in range(n, n + isolated)]
    return nodes, edges


@given(case=typed_edge_lists(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_array_build_matches_the_per_edge_builder(case, data):
    nodes, edges = case
    ref, ref_warnings = build(reference_build, nodes, edges)
    g, new_warnings = build(TypedGraph, nodes, edges)
    assert new_warnings == ref_warnings
    got = fields_of(g)
    groups, ref_groups = got.pop("groups"), ref.pop("groups")
    assert got == ref
    for v, (mine, theirs) in enumerate(zip(groups, ref_groups)):
        assert [t for t, _ in mine] == sorted(t for t, _ in theirs), f"node {v}: type-id order"
        assert dict(mine) == dict(theirs), f"node {v}"
    # the walker reads every (node, type) slice, absent types included, so
    # their sizes must be 0, which adjacency_groups hides by dropping them
    n_types, offsets = len(g.node_types), g.type_offsets
    assert offsets.shape == (g.n_nodes * n_types + 1,) and offsets[0] == 0
    assert np.all(np.diff(offsets) >= 0) and offsets[-1] == 2 * g.n_edges
    for v, theirs in enumerate(ref_groups):
        for t in range(n_types):
            lo, hi = offsets[v * n_types + t : v * n_types + t + 2]
            assert g.adjacency[lo:hi].tolist() == dict(theirs).get(t, []), f"node {v}, type {t}"
    # one fault inserted anywhere raises the same message in both builders
    faulty = list(edges)
    at = data.draw(st.integers(0, len(edges)))
    if data.draw(st.booleans()):
        u = data.draw(st.integers(0, len(nodes) - 1))
        faulty.insert(at, (u, data.draw(st.sampled_from([-1, len(nodes)]))))
    else:
        # a label first seen on one endpoint-type pair, later on another
        pairs = {}
        for u in range(len(nodes)):
            for v in range(u + 1, len(nodes)):
                pairs.setdefault(tuple(sorted((nodes[u][1], nodes[v][1]))), (u, v))
        if len(pairs) < 2:
            return
        first, later = data.draw(st.permutations(list(pairs.values())))[:2]
        faulty.insert(at, (*first, "clash"))
        faulty.insert(data.draw(st.integers(at + 1, len(faulty))), (*later, "clash"))
    ref_msg, _ = build(reference_build, nodes, faulty)
    msg, _ = build(TypedGraph, nodes, faulty)
    assert isinstance(ref_msg, str) and msg == ref_msg
