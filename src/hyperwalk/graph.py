"""Typed heterogeneous graphs: loading, storage, and adjacency queries.

Nodes carry a type (author, paper, ...); edges are undirected and get an
edge type inferred from the unordered pair of endpoint types unless an
explicit edge-type label is supplied. Node ids are opaque strings
externally and dense integers internally. One array core builds every graph
from index and label-code arrays: ``TypedGraph(nodes, edges)`` turns its tuples
into them, ``load_graph`` reads each file in one pass straight into them, and
``TypedGraph.edge_subgraph`` takes them from a graph's own arrays.

``adjacency`` holds both directions of every edge, sorted by (node, neighbor type),
in edge order within a group. With T node types, node v's neighbors of type t are
``adjacency[type_offsets[v * T + t]:type_offsets[v * T + t + 1]]``, an empty slice
when v has none; ``type_offsets`` has ``n_nodes * T + 1`` entries.

``TypedGraph.save_nodes`` writes every node row the package writes (node
files, embedding tables, projections), and ``TypedGraph.save_pairs`` every
pair row (edge files, held-out edges, sampled non-edges).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Malformed input or violated graph invariant."""


@dataclass(frozen=True)
class NodeType:
    id: int
    label: str


@dataclass(frozen=True)
class EdgeType:
    id: int
    endpoint_types: tuple[int, int]  # node-type ids, sorted
    label: str


class TypedGraph:
    """Immutable heterogeneous graph with type-grouped adjacency.

    Self-loops are dropped and duplicate edges collapse to their first occurrence;
    a label found only on collapsed duplicates names no edge type.

    Parameters
    ----------
    nodes : list of (node_id, type_label)
    edges : list of (src_index, dst_index) or (src_index, dst_index, edge_label)
        Indices into ``nodes``; an edge_label of None means "infer".
    """

    def __init__(self, nodes, edges):
        node_ids, index_of, type_id, node_type_of = [], {}, {}, []
        for node_id, label in nodes:
            if index_of.setdefault(node_id, len(node_ids)) != len(node_ids):
                raise GraphError(f"duplicate node id {node_id!r}")
            node_ids.append(node_id)
            node_type_of.append(type_id.setdefault(label, len(type_id)))
        codes: dict = {}  # edge label -> code, None ("infer") among them, in first-seen order
        rows = [(e[0], e[1], codes.setdefault(e[2] if len(e) > 2 else None, len(codes)))
                for e in edges]
        u, v, label_code = np.asarray(rows, dtype=np.int64).reshape(-1, 3).T
        self._build(node_ids, index_of, list(type_id), node_type_of, u, v, label_code, list(codes))

    @classmethod
    def _from_arrays(cls, *core, by_code=False) -> TypedGraph:
        g = cls.__new__(cls)
        g._build(*core, by_code=by_code)
        return g

    def _build(self, node_ids, index_of, type_labels, node_type_of, u, v, label_code, labels,
               by_code=False):
        """The array core that builds every graph. Node i is ``node_ids[i]``
        (``index_of`` inverts it) of type ``type_labels[node_type_of[i]]``; edge
        j joins node indices u[j] and v[j] under ``labels[label_code[j]]``, None
        meaning "infer". Index and code sequences are read as int64 arrays. Edge
        types are numbered in first-seen order, or in code order ``by_code``."""
        self.node_ids, self._index_of = node_ids, index_of
        self.node_types = [NodeType(i, label) for i, label in enumerate(type_labels)]
        self.node_type_of = np.asarray(node_type_of, dtype=np.int64)
        u, v, label_code = (np.asarray(a, dtype=np.int64) for a in (u, v, label_code))
        n = len(self.node_ids)
        bad = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))
        if bad.size:
            raise GraphError(f"edge ({u[bad[0]]}, {v[bad[0]]}) references a node index out of range")
        kept = np.flatnonzero(u != v)
        lo, hi = np.minimum(u, v)[kept], np.maximum(u, v)[kept]
        n_types = len(self.node_types)
        t_lo, t_hi = self.node_type_of[lo], self.node_type_of[hi]
        pair = np.minimum(t_lo, t_hi) * n_types + np.maximum(t_lo, t_hi)

        # name each distinct (label, type pair) in first-seen order, or in np.unique's
        # (by code); None takes the pair's label, and a label met again with another
        # pair contradicts its type
        combo = label_code[kept] * n_types**2 + pair
        combos, combo_first, combo_of_edge = np.unique(combo, return_index=True, return_inverse=True)
        type_of_combo = np.empty(combos.size, dtype=np.int64)
        types: dict[str, EdgeType] = {}
        for j in range(combos.size) if by_code else np.argsort(combo_first).tolist():
            code, p = divmod(int(combos[j]), n_types**2)
            ends = divmod(p, n_types)
            label = labels[code]
            if label is None:
                label = f"{self.node_types[ends[0]].label}-{self.node_types[ends[1]].label}"
            et = types.setdefault(label, EdgeType(len(types), ends, label))
            if et.endpoint_types != ends:
                i = kept[combo_first[j]]
                raise GraphError(
                    f"edge ({self.node_ids[u[i]]}, {self.node_ids[v[i]]}) contradicts edge "
                    f"type {label!r}: expected endpoint types {et.endpoint_types}, got {ends}"
                )
            type_of_combo[j] = et.id

        # dedup on canonical codes, keeping first occurrences in input order
        self._edge_codes, first = np.unique(lo * n + hi, return_index=True)
        first.sort()
        self.edges = np.stack([lo[first], hi[first]], axis=1)
        # a type named only on collapsed duplicates has no edge: keep the kept
        # edges' types, renumbered in their order
        etype = type_of_combo[combo_of_edge[first]]
        used = np.bincount(etype, minlength=len(types)) > 0
        kept_types = [t for t in types.values() if used[t.id]]
        self.edge_types = [EdgeType(i, t.endpoint_types, t.label) for i, t in enumerate(kept_types)]
        self.edge_type_of = (np.cumsum(used) - 1)[etype]
        self.duplicate_edges = len(kept) - len(first)
        self.self_loops_dropped = len(u) - len(kept)
        if self.duplicate_edges or self.self_loops_dropped:
            warnings.warn(
                f"collapsed {self.duplicate_edges} duplicate edge(s), dropped "
                f"{self.self_loops_dropped} self-loop(s)",
                stacklevel=3,  # the caller of __init__ or _from_arrays
            )

        # type-grouped adjacency: both directions of every edge, stably sorted
        # by key = (node, neighbor type), so a group keeps its neighbors in edge
        # order; a group's offset is the count of smaller keys
        nbr = self.edges[:, ::-1].ravel()
        key = self.edges.ravel() * n_types + self.node_type_of[nbr]
        self.adjacency = nbr[np.argsort(key, kind="stable")]
        self.type_offsets = np.concatenate([[0], np.bincount(key, minlength=n * n_types).cumsum()])

    def edge_subgraph(self, keep) -> TypedGraph:
        """This graph's nodes, sharing its id list and dict, with the edges
        ``edges[keep]`` and their types, numbered in this graph's order: types
        left without an edge are dropped, and the rest keep their order."""
        u, v = self.edges[keep].T
        return TypedGraph._from_arrays(
            self.node_ids, self._index_of, [t.label for t in self.node_types], self.node_type_of,
            u, v, self.edge_type_of[keep], [t.label for t in self.edge_types], by_code=True)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def node_index(self, node_id: str) -> int:
        try:
            return self._index_of[node_id]
        except KeyError:
            raise GraphError(f"unknown node id {node_id!r}") from None

    def node_type(self, label_or_id) -> NodeType:
        return _find_type(self.node_types, NodeType, "node", label_or_id)

    def edge_type(self, label_or_id) -> EdgeType:
        return _find_type(self.edge_types, EdgeType, "edge", label_or_id)

    def degrees(self) -> np.ndarray:
        """Degree of every node, indexed by node."""
        return np.bincount(self.edges.ravel(), minlength=self.n_nodes)

    def nodes_of_type(self, t) -> np.ndarray:
        t = self.node_type(t)
        return np.flatnonzero(self.node_type_of == t.id)

    def edges_of_type(self, t) -> np.ndarray:
        t = self.edge_type(t)
        return self.edges[self.edge_type_of == t.id]

    def has_edges(self, us, vs) -> np.ndarray:
        """Elementwise edge membership of the pairs (us[i], vs[i]), either orientation."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        codes = np.minimum(us, vs) * self.n_nodes + np.maximum(us, vs)
        if self._edge_codes.size == 0:
            return np.zeros(codes.shape, dtype=bool)
        i = np.minimum(np.searchsorted(self._edge_codes, codes), self._edge_codes.size - 1)
        return self._edge_codes[i] == codes

    def save_nodes(self, path, values=None) -> None:
        """One ``node_id<TAB>type_label[<TAB>value...]`` row per node, in index order.

        ``values`` is None or an (n_nodes, k) array whose row v follows node v's
        label. Each value is written as ``repr(float(x))``, the shortest decimal
        that reads back bit-exactly.
        """
        labels = [t.label for t in self.node_types]
        with open(path, "w", encoding="utf-8") as f:
            for v, (node_id, t) in enumerate(zip(self.node_ids, self.node_type_of.tolist())):
                row = [] if values is None else [repr(float(x)) for x in values[v]]
                f.write("\t".join([node_id, labels[t], *row]) + "\n")

    def save_pairs(self, path, pairs, labels=None) -> None:
        """One ``src_id<TAB>dst_id[<TAB>label]`` row per row of the (k, 2) node
        indices ``pairs``, in order; ``labels`` is None or k strings."""
        tails = [""] * len(pairs) if labels is None else ["\t" + s for s in labels]
        with open(path, "w", encoding="utf-8") as f:
            for (u, v), tail in zip(np.asarray(pairs).tolist(), tails):
                f.write(f"{self.node_ids[u]}\t{self.node_ids[v]}{tail}\n")

    def save(self, nodes_file, edges_file) -> None:
        self.save_nodes(nodes_file)
        labels = [t.label for t in self.edge_types]
        self.save_pairs(edges_file, self.edges, [labels[t] for t in self.edge_type_of.tolist()])


def _find_type(types: list, cls: type, kind: str, label_or_id):
    """The type in ``types`` given as one of its instances of cls, a label or an id."""
    if isinstance(label_or_id, cls):
        if label_or_id not in types:
            raise GraphError(f"{label_or_id} is not one of this graph's {kind} types")
        return label_or_id
    if isinstance(label_or_id, str):
        for t in types:
            if t.label == label_or_id:
                return t
        raise GraphError(f"unknown {kind} type {label_or_id!r}")
    return types[int(label_or_id)]


def _parse_tsv(path):
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip()
            if line and line[0] != "#":
                yield lineno, line.split("\t")


def load_graph(nodes_file, edges_file) -> TypedGraph:
    """Load a TypedGraph from node/edge TSV files, reading each in one pass.

    Nodes: ``node_id<TAB>type_label``. Edges: ``src<TAB>dst[<TAB>edge_label]``.
    Lines starting with ``#`` are skipped and fields are read stripped. Node
    rows are numbered as they are read; edge rows go straight into the index
    and label-code arrays of ``TypedGraph``'s array core, with no per-edge
    tuple. Duplicate edges are collapsed with a warning. A line with the
    wrong field count or a blank field, a repeated node id and an unknown
    node id raise GraphError naming the line; the node file is checked before
    the edge file is read.
    """
    node_ids, index_of, type_id, node_type_of = [], {}, {}, []
    for lineno, fields in _parse_tsv(nodes_file):
        nid, label = fields[0].strip(), fields[-1].strip()
        if len(fields) != 2 or not nid or not label:
            raise GraphError(f"{nodes_file}:{lineno}: malformed node line")
        if index_of.setdefault(nid, len(node_ids)) != len(node_ids):
            raise GraphError(f"{nodes_file}:{lineno}: repeated node id {nid!r}")
        node_ids.append(nid)
        node_type_of.append(type_id.setdefault(label, len(type_id)))
    ends, label_code, codes = [], [], {None: 0}
    for lineno, fields in _parse_tsv(edges_file):
        src, dst = fields[0].strip(), (fields[1].strip() if len(fields) > 1 else "")
        if len(fields) not in (2, 3) or not src or not dst:
            raise GraphError(f"{edges_file}:{lineno}: malformed edge line")
        try:
            ends += index_of[src], index_of[dst]
        except KeyError as exc:
            raise GraphError(f"{edges_file}:{lineno}: unknown node id {exc.args[0]!r}") from None
        # code 0 is None, "infer"; a last field never strips to empty, as _parse_tsv rstrips it
        label_code.append(codes.setdefault(fields[2].strip(), len(codes)) if len(fields) == 3 else 0)
    u, v = np.asarray(ends, dtype=np.int64).reshape(-1, 2).T
    return TypedGraph._from_arrays(node_ids, index_of, list(type_id), node_type_of, u, v,
                                   label_code, list(codes))
