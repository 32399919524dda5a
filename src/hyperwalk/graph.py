"""Typed heterogeneous graphs: loading, storage, and adjacency queries.

Nodes carry a type (author, paper, ...); edges are undirected and get an
edge type inferred from the unordered pair of endpoint types unless an
explicit edge-type label is supplied. Node ids are opaque strings
externally and dense integers internally.
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
    """Immutable heterogeneous graph with type-partitioned adjacency.

    Parameters
    ----------
    nodes : list of (node_id, type_label)
    edges : list of (src_index, dst_index) or (src_index, dst_index, edge_label)
        Indices into ``nodes``; an edge_label of None means "infer".
    """

    def __init__(self, nodes, edges):
        self.node_ids: list[str] = []
        seen_ids: dict[str, int] = {}
        type_by_label: dict[str, NodeType] = {}
        node_type_ids = []
        for node_id, label in nodes:
            if node_id in seen_ids:
                raise GraphError(f"duplicate node id {node_id!r}")
            seen_ids[node_id] = len(self.node_ids)
            self.node_ids.append(node_id)
            if label not in type_by_label:
                type_by_label[label] = NodeType(len(type_by_label), label)
            node_type_ids.append(type_by_label[label].id)
        self.node_types: list[NodeType] = sorted(type_by_label.values(), key=lambda t: t.id)
        self.node_type_of = np.asarray(node_type_ids, dtype=np.int64)
        self._index_of = seen_ids

        edge_type_by_label: dict[str, EdgeType] = {}
        pair_to_auto_label: dict[tuple[int, int], str] = {}
        canon_edges: dict[tuple[int, int], int] = {}
        self.duplicate_edges = 0
        self.self_loops_dropped = 0
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < len(self.node_ids) and 0 <= v < len(self.node_ids)):
                raise GraphError(f"edge ({u}, {v}) references a node index out of range")
            label = e[2] if len(e) > 2 else None
            if u == v:
                self.self_loops_dropped += 1
                continue
            tu, tv = int(self.node_type_of[u]), int(self.node_type_of[v])
            pair = (min(tu, tv), max(tu, tv))
            if label is None:
                if pair not in pair_to_auto_label:
                    la = self.node_types[pair[0]].label
                    lb = self.node_types[pair[1]].label
                    pair_to_auto_label[pair] = f"{la}-{lb}"
                label = pair_to_auto_label[pair]
            if label not in edge_type_by_label:
                edge_type_by_label[label] = EdgeType(len(edge_type_by_label), pair, label)
            et = edge_type_by_label[label]
            if et.endpoint_types != pair:
                raise GraphError(
                    f"edge ({self.node_ids[u]}, {self.node_ids[v]}) contradicts edge "
                    f"type {label!r}: expected endpoint types {et.endpoint_types}, got {pair}"
                )
            key = (min(u, v), max(u, v))
            if key in canon_edges:
                self.duplicate_edges += 1
                continue
            canon_edges[key] = et.id
        if self.duplicate_edges or self.self_loops_dropped:
            warnings.warn(
                f"collapsed {self.duplicate_edges} duplicate edge(s), dropped "
                f"{self.self_loops_dropped} self-loop(s)",
                stacklevel=2,
            )

        self.edge_types: list[EdgeType] = sorted(edge_type_by_label.values(), key=lambda t: t.id)
        if canon_edges:
            items = list(canon_edges.items())
            self.edges = np.asarray([k for k, _ in items], dtype=np.int64)
            self.edge_type_of = np.asarray([t for _, t in items], dtype=np.int64)
        else:
            self.edges = np.empty((0, 2), dtype=np.int64)
            self.edge_type_of = np.empty(0, dtype=np.int64)

        # type-grouped adjacency; per-node list of (type_id, neighbor array)
        grouped: list[dict[int, list[int]]] = [{} for _ in self.node_ids]
        for (u, v) in self.edges:
            grouped[u].setdefault(int(self.node_type_of[v]), []).append(int(v))
            grouped[v].setdefault(int(self.node_type_of[u]), []).append(int(u))
        self._adj_groups: list[list[tuple[int, np.ndarray]]] = [
            [(t, np.asarray(ns, dtype=np.int64)) for t, ns in g.items()] for g in grouped
        ]
        self._edge_codes = np.sort(self.edges[:, 0] * self.n_nodes + self.edges[:, 1])

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def is_heterogeneous(self) -> bool:
        return len(self.node_types) + len(self.edge_types) > 2

    def node_index(self, node_id: str) -> int:
        try:
            return self._index_of[node_id]
        except KeyError:
            raise GraphError(f"unknown node id {node_id!r}") from None

    def node_type(self, label_or_id) -> NodeType:
        if isinstance(label_or_id, NodeType):
            return label_or_id
        if isinstance(label_or_id, str):
            for t in self.node_types:
                if t.label == label_or_id:
                    return t
            raise GraphError(f"unknown node type {label_or_id!r}")
        return self.node_types[int(label_or_id)]

    def edge_type(self, label_or_id) -> EdgeType:
        if isinstance(label_or_id, EdgeType):
            return label_or_id
        if isinstance(label_or_id, str):
            for t in self.edge_types:
                if t.label == label_or_id:
                    return t
            raise GraphError(f"unknown edge type {label_or_id!r}")
        return self.edge_types[int(label_or_id)]

    def adjacency_groups(self, v: int) -> list[tuple[int, np.ndarray]]:
        """Neighbors of v grouped by neighbor type id, in first-seen order."""
        return self._adj_groups[v]

    def neighbors(self, v: int) -> np.ndarray:
        groups = self._adj_groups[v]
        if not groups:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([a for _, a in groups])

    def degree(self, v: int) -> int:
        return sum(a.size for _, a in self._adj_groups[v])

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

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges(u, v))

    def save(self, nodes_file, edges_file) -> None:
        with open(nodes_file, "w", encoding="utf-8") as f:
            for node_id, t in zip(self.node_ids, self.node_type_of):
                f.write(f"{node_id}\t{self.node_types[t].label}\n")
        with open(edges_file, "w", encoding="utf-8") as f:
            for (u, v), t in zip(self.edges, self.edge_type_of):
                f.write(
                    f"{self.node_ids[u]}\t{self.node_ids[v]}\t{self.edge_types[t].label}\n"
                )


def neighbors_by_type(g: TypedGraph, v: int, t) -> np.ndarray:
    """All neighbors of v whose node type is t, in stable (edge-input) order."""
    t = g.node_type(t)
    for tid, arr in g.adjacency_groups(v):
        if tid == t.id:
            return arr.copy()
    return np.empty(0, dtype=np.int64)


def degree_stats(g: TypedGraph) -> dict[str, dict[int, int]]:
    """Per-node-type degree histogram: {type_label: {degree: node count}}."""
    out: dict[str, dict[int, int]] = {t.label: {} for t in g.node_types}
    for t, d in zip(g.node_type_of.tolist(), g.degrees().tolist()):
        hist = out[g.node_types[t].label]
        hist[d] = hist.get(d, 0) + 1
    return out


def _parse_tsv(path):
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split("\t")


def load_graph(nodes_file, edges_file) -> TypedGraph:
    """Load a TypedGraph from node/edge TSV files.

    Nodes: ``node_id<TAB>type_label``. Edges: ``src<TAB>dst[<TAB>edge_label]``.
    Lines starting with ``#`` are skipped. Duplicate edges are collapsed with
    a warning; malformed lines and unknown node ids raise GraphError naming
    the offending line.
    """
    nodes = []
    for lineno, fields in _parse_tsv(nodes_file):
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise GraphError(f"{nodes_file}:{lineno}: malformed node line")
        nodes.append((fields[0].strip(), fields[1].strip()))
    index = {nid: i for i, (nid, _) in enumerate(nodes)}
    if len(index) != len(nodes):
        for i, (nid, _) in enumerate(nodes):
            if index[nid] != i:
                raise GraphError(f"duplicate node id {nid!r} in {nodes_file}")
    edges = []
    for lineno, fields in _parse_tsv(edges_file):
        if len(fields) not in (2, 3) or not fields[0] or not fields[1]:
            raise GraphError(f"{edges_file}:{lineno}: malformed edge line")
        src, dst = fields[0].strip(), fields[1].strip()
        for nid in (src, dst):
            if nid not in index:
                raise GraphError(f"{edges_file}:{lineno}: unknown node id {nid!r}")
        label = fields[2].strip() if len(fields) == 3 else None
        edges.append((index[src], index[dst], label))
    return TypedGraph(nodes, edges)
