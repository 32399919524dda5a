"""Typed graph container: construction, lookups, persistence."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwalk.graph import GraphError, NodeType, TypedGraph, load_graph
from tests.conftest import assert_same_graph, neighbors


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
    n_types = len(g.node_types)

    def group(v, t):
        """Node v's neighbors of type t, by id."""
        lo, hi = g.type_offsets[v * n_types + t : v * n_types + t + 2]
        return [g.node_ids[u] for u in g.adjacency[lo:hi]]

    author, paper, venue = (g.node_type(label).id for label in ("author", "paper", "venue"))
    assert [group(0, t) for t in (author, paper, venue)] == [[], ["p0", "p1"], []]  # edge order
    # p1: authors a1, a0 and venues v0, v1, in type-id order
    assert [group(3, t) for t in (author, paper, venue)] == [["a1", "a0"], [], ["v0", "v1"]]
    assert author < venue and [g.node_ids[u] for u in neighbors(g, 3)] == ["a1", "a0", "v0", "v1"]


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


def test_load_graph_rejects_a_repeated_node_id(tmp_path):
    nodes, edges = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    nodes.write_text("a\tA\nb\tB\n# c\n a \tA\n")
    edges.write_text("a\tb\n")
    with pytest.raises(GraphError) as e:
        load_graph(nodes, edges)
    assert str(e.value) == f"{nodes}:4: repeated node id 'a'"
    # the node file is checked whole before the edge file is read
    with pytest.raises(GraphError) as e:
        load_graph(nodes, tmp_path / "missing.tsv")
    assert str(e.value) == f"{nodes}:4: repeated node id 'a'"


@pytest.mark.parametrize("name, text, lineno, message", [
    pytest.param("nodes", "a\tA\nb\n", 2, "malformed node line", id="node-one-field"),
    pytest.param("nodes", "a\tA\tx\nb\tB\n", 1, "malformed node line", id="node-three-fields"),
    pytest.param("nodes", "a\tA\nb\tB\n  \tB\n", 3, "malformed node line", id="node-blank-id"),
    pytest.param("nodes", "a\tA\nb\t \n", 2, "malformed node line", id="node-blank-label"),
    pytest.param("edges", "a\n", 1, "malformed edge line", id="edge-one-field"),
    pytest.param("edges", "# c\na\tb\tA-B\tx\n", 2, "malformed edge line", id="edge-four-fields"),
    pytest.param("edges", "a\tb\n \tb\n", 2, "malformed edge line", id="edge-blank-source"),
    pytest.param("edges", "a\t\t\tA-B\n", 1, "malformed edge line", id="edge-blank-target"),
    pytest.param("edges", "a\tb\nb\tc\n", 2, "unknown node id 'c'", id="edge-unknown-id"),
])
def test_load_graph_names_the_line_at_fault(tmp_path, name, text, lineno, message):
    files = {"nodes": tmp_path / "nodes.tsv", "edges": tmp_path / "edges.tsv"}
    files["nodes"].write_text("a\tA\nb\tB\n")
    files["edges"].write_text("a\tb\n")
    files[name].write_text(text)
    with pytest.raises(GraphError) as e:
        load_graph(files["nodes"], files["edges"])
    assert str(e.value) == f"{files[name]}:{lineno}: {message}"


def test_isolated_node_has_no_neighbors():
    g = TypedGraph([("a", "t"), ("b", "t")], [])
    assert neighbors(g, 0).size == 0


@pytest.mark.filterwarnings("ignore:collapsed")
def test_a_label_only_on_collapsed_duplicates_names_no_edge_type():
    nodes = [("a", "A"), ("b", "B"), ("c", "B"), ("d", "A")]
    g = TypedGraph(nodes, [(0, 1), (1, 0, "y"), (2, 3, "z"), (3, 2)])
    assert [(t.id, t.endpoint_types, t.label) for t in g.edge_types] == [(0, (0, 1), "A-B"),
                                                                          (1, (0, 1), "z")]
    assert g.edge_type_of.tolist() == [0, 1]
    with pytest.raises(GraphError, match="contradicts edge type 'y'"):  # still checked
        TypedGraph(nodes, [(0, 1), (1, 0, "y"), (0, 3, "y")])


@pytest.mark.filterwarnings("ignore:collapsed")
def test_an_edge_subgraph_keeps_its_graphs_edge_type_ids():
    # Y is first named on the collapsed row b-a, so the parent numbers it
    # before X, while the kept edges name X first
    nodes = [("a", "A"), ("b", "B"), ("c", "C"), ("d", "A"), ("e", "B")]
    g = TypedGraph(nodes, [(0, 1, "W"), (1, 0, "Y"), (3, 2, "X"), (3, 4, "Y")])
    assert [t.label for t in g.edge_types] == ["W", "Y", "X"]
    assert g.edge_type_of.tolist() == [0, 2, 1]
    whole = g.edge_subgraph(np.ones(3, dtype=bool))
    assert whole.edge_types == g.edge_types and whole.edge_type_of.tolist() == [0, 2, 1]
    # W loses its only edge: it drops out, and Y and X keep their order
    part = g.edge_subgraph(np.array([False, True, True]))
    assert [(t.id, t.label) for t in part.edge_types] == [(0, "Y"), (1, "X")]
    assert part.edge_type_of.tolist() == [1, 0]


@pytest.mark.filterwarnings("ignore:collapsed")
def test_a_type_object_must_be_one_of_the_graphs_own():
    nodes = [("a", "A"), ("b", "B"), ("c", "C"), ("d", "A"), ("e", "B")]
    g = TypedGraph(nodes, [(0, 1, "W"), (1, 0, "Y"), (3, 2, "X"), (3, 4, "Y")])
    part = g.edge_subgraph(np.array([False, True, True]))
    assert part.edge_type(part.edge_type("X")) == part.edge_type(1)
    with pytest.raises(GraphError, match=r"EdgeType\(id=2, .*'X'\) is not one of this graph's edge"):
        part.edge_type(g.edge_type("X"))  # id 2 in g, 1 in part
    with pytest.raises(GraphError, match="not one of this graph's node types"):
        g.node_type(NodeType(0, "B"))
    assert g.node_type(g.node_type("B")).id == 1


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
    # a type named only on collapsed duplicates has no edge: ids are first-seen
    # order, so sorting the kept edges' ids renumbers them in that order
    new_id = {tid: i for i, tid in enumerate(sorted(set(canon.values())))}
    return {
        "edges": [list(k) for k in canon],
        "edge_type_of": [new_id[tid] for tid in canon.values()],
        "edge_types": [(new_id[i], pair, label) for label, (i, pair) in edge_types.items()
                       if i in new_id],
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
    ref_groups = ref.pop("groups")
    assert fields_of(g) == ref
    # the walker reads every (node, type) slice, absent types included
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


# --- load_graph against the tuple constructor -----------------------------


def load_tsv(nodes, edges, directory):
    """load_graph on node and edge files holding ``nodes`` and ``edges``,
    ``(node_id, type_label)`` pairs and ``(u, v[, label])`` index tuples;
    a label of None is written as no third field."""
    nodes_file, edges_file = Path(directory) / "nodes.tsv", Path(directory) / "edges.tsv"
    nodes_file.write_text("".join(f"{nid}\t{label}\n" for nid, label in nodes))
    rows = [[nodes[e[0]][0], nodes[e[1]][0], *[lab for lab in e[2:] if lab is not None]]
            for e in edges]
    edges_file.write_text("".join("\t".join(row) + "\n" for row in rows))
    return load_graph(nodes_file, edges_file)


def test_load_graph_equals_the_tuple_constructor(tmp_path):
    nodes_file, edges_file = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    nodes_file.write_text(
        "# id\ttype\n"
        "a1\tauthor\n"
        "  p1 \t paper\n"
        "\n"
        "a2\tauthor  \n"
        "p2\tpaper\n"
        "v1\tvenue\n"
    )
    edges_file.write_text(
        "# src\tdst\tlabel\n"
        "a1\tp1\n"
        " p1\ta1 \twrites\n"  # a duplicate, the other way round, under another label
        "a2\tp1\t writes\n"
        "\n"
        "p1\tv1\tpublished_at\n"
        "v1 \tp1\t venue-paper \n"  # a duplicate whose label names no edge
        "p2\tp2\n"  # a self-loop
        "a1\tp2\tauthor-paper\n"  # the inferred label, written out
        "p2\tv1\n"
    )
    nodes = [("a1", "author"), ("p1", "paper"), ("a2", "author"), ("p2", "paper"), ("v1", "venue")]
    edges = [(0, 1), (1, 0, "writes"), (2, 1, "writes"), (1, 4, "published_at"),
             (4, 1, "venue-paper"), (3, 3), (0, 3, "author-paper"), (3, 4, None)]
    loaded, load_warnings = build(lambda n, e: load_graph(nodes_file, edges_file), nodes, edges)
    want, want_warnings = build(TypedGraph, nodes, edges)
    assert load_warnings == want_warnings == ["collapsed 2 duplicate edge(s), dropped 1 self-loop(s)"]
    assert [t.label for t in want.edge_types] == ["author-paper", "writes", "published_at", "paper-venue"]
    assert_same_graph(loaded, want)


@given(case=typed_edge_lists())
@settings(max_examples=100, deadline=None)
def test_load_graph_equals_the_tuple_constructor_on_random_graphs(case):
    nodes, edges = case
    with tempfile.TemporaryDirectory() as directory:
        loaded, load_warnings = build(lambda n, e: load_tsv(n, e, directory), nodes, edges)
    want, want_warnings = build(TypedGraph, nodes, edges)
    assert load_warnings == want_warnings
    assert_same_graph(loaded, want)
