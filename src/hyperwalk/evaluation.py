"""Network reconstruction, link prediction, and hierarchy diagnostics.

Pairs are scored by negated hyperbolic distance between their embeddings;
AUC is the Mann-Whitney statistic with half credit for ties.

Every step whose size grows with the number of scored pairs (up to
``max_neg`` non-edges) works through the pairs in blocks of ``BLOCK``, so
memory is the pair and score arrays plus O(BLOCK) temporaries. Sampled and
enumerated non-edges are node indices at the corpus's width,
``corpus.index_dtype``. AUC sorts the negative scores once and counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lorentz
from .corpus import index_dtype
from .graph import EdgeType, GraphError, TypedGraph
from .trainer import EmbeddingTable

DEFAULT_MAX_NEG = 1_000_000
# pairs gathered, scored or tested for edge membership at a time
BLOCK = 65_536


@dataclass
class AucReport:
    edge_type: str
    dimension: int
    auc: float
    n_pos: int
    n_neg: int
    # scored pairs with an endpoint of degree 0 in the graph scored on: such
    # a node gets no window pair, so train never moves it from its init
    isolated_pairs: int
    negatives_sampled: bool = False
    warning: str | None = None


@dataclass
class LinkSplit:
    train_graph: TypedGraph
    removed_edges: np.ndarray  # (k, 2) node indices
    sampled_non_edges: np.ndarray  # (k, 2) node indices
    edge_type: str
    fraction: float
    warning: str | None = None


def _score_pairs(emb: EmbeddingTable, pairs: np.ndarray) -> np.ndarray:
    """Negated hyperbolic distance of each (u, v) row: higher = more likely linked.

    Each block of pairs is gathered and scored on its own, indexing with
    the pairs' own dtype; a pair's score depends on that pair alone, so the
    blocks do not change its bits.
    """
    pairs = np.asarray(pairs).reshape(-1, 2)
    out = np.empty(len(pairs))
    for s in range(0, len(pairs), BLOCK):
        p = pairs[s : s + BLOCK]
        out[s : s + len(p)] = lorentz.hyperbolic_distance(emb.coords[p[:, 0]], emb.coords[p[:, 1]])
    return np.negative(out, out=out)


def _auc_report(g: TypedGraph, emb: EmbeddingTable, edge_type: str, pos, neg, **extra):
    """AucReport of the (k, 2) positive and negative pairs: their AUC, and how
    many have an endpoint isolated in g, the graph trained on."""
    isolated = g.degrees() == 0
    return AucReport(
        edge_type=edge_type,
        dimension=emb.dim,
        auc=auc(_score_pairs(emb, pos), _score_pairs(emb, neg)),
        n_pos=len(pos),
        n_neg=len(neg),
        isolated_pairs=sum(int(isolated[pairs].any(axis=1).sum()) for pairs in (pos, neg)),
        **extra,
    )


def auc(pos_scores, neg_scores) -> float:
    """P(random positive outscores random negative), ties counted half.

    Sorts the negatives once and counts, for each positive, the negatives
    below it and up to it. ``2 * wins + ties`` is an exact integer, so the
    result is the rank-sum (Mann-Whitney) formula's to the last bit. A NaN
    score on either side gives NaN.
    """
    pos = np.asarray(pos_scores, dtype=np.float64).ravel()
    neg = np.asarray(neg_scores, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score sets must be nonempty")
    if np.isnan(pos).any() or np.isnan(neg).any():
        return float("nan")
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left")
    up_to = np.searchsorted(neg, pos, side="right")
    twice_wins = int(below.sum()) + int(up_to.sum())
    return twice_wins / (2 * pos.size * neg.size)


def _compatible_sides(g: TypedGraph, et: EdgeType) -> tuple[np.ndarray, np.ndarray]:
    ta, tb = et.endpoint_types
    return g.nodes_of_type(ta), g.nodes_of_type(tb)


def _n_compatible_pairs(et: EdgeType, A: np.ndarray, B: np.ndarray) -> int:
    """Unordered pairs of distinct nodes with one end in A and one in B."""
    ta, tb = et.endpoint_types
    return A.size * B.size if ta != tb else A.size * (A.size - 1) // 2


def _sample_non_edges(g: TypedGraph, et: EdgeType, k: int, rng) -> np.ndarray:
    """k type-compatible non-edges of g, uniform per side, with replacement.

    Each attempt draws its candidates' indices into A and B whole, then
    gathers and tests them a block at a time and stops once k are kept.
    The pairs come as ``index_dtype(g.n_nodes)``; k = 0 draws nothing.
    """
    A, B = _compatible_sides(g, et)
    out = np.empty((k, 2), dtype=index_dtype(g.n_nodes))
    filled = 0
    attempts = 0
    while filled < k:
        m = max(k - filled, 64)
        iu = rng.integers(A.size, size=m)
        iv = rng.integers(B.size, size=m)
        for s in range(0, m, BLOCK):
            u, v = A[iu[s : s + BLOCK]], B[iv[s : s + BLOCK]]
            sel = np.flatnonzero(~g.has_edges(u, v) & (u != v))[: k - filled]
            out[filled : filled + sel.size, 0] = u[sel]
            out[filled : filled + sel.size, 1] = v[sel]
            filled += sel.size
            if filled == k:
                break
        attempts += 1
        if attempts > 10_000:
            raise GraphError(f"cannot sample non-edges for edge type {et.label!r}")
    return out


def _all_non_edges(g: TypedGraph, et: EdgeType) -> np.ndarray:
    """Every type-compatible non-edge, in row-major (A, B) order.

    Pairs are built and tested for about ``BLOCK`` at a time, a block of A
    rows against all of B, and come as ``index_dtype(g.n_nodes)``.
    """
    A, B = _compatible_sides(g, et)
    ta, tb = et.endpoint_types
    out = np.empty((_n_compatible_pairs(et, A, B), 2), dtype=index_dtype(g.n_nodes))
    filled = 0
    rows = max(BLOCK // max(B.size, 1), 1)
    for s in range(0, A.size, rows):
        uu, vv = np.meshgrid(A[s : s + rows], B, indexing="ij")
        us, vs = uu.ravel(), vv.ravel()
        if ta == tb:
            keep = us < vs
            us, vs = us[keep], vs[keep]
        non = ~g.has_edges(us, vs)
        n = int(non.sum())
        out[filled : filled + n, 0] = us[non]
        out[filled : filled + n, 1] = vs[non]
        filled += n
    return out[:filled]


def reconstruct(
    g: TypedGraph,
    emb: EmbeddingTable,
    t,
    max_neg: int = DEFAULT_MAX_NEG,
    rng=None,
) -> AucReport:
    """AUC of true edges of type t against type-compatible non-edges: pairs
    with no edge of any type between them.

    Enumerates all non-edges when their count fits max_neg, otherwise takes
    a uniform sample of max_neg (flagged in the report). Pairs are sampled or
    enumerated, and scored, in blocks of ``BLOCK``: memory is the O(max_neg)
    pair and score arrays plus O(BLOCK) temporaries.
    """
    if max_neg < 1:
        raise ValueError(f"max_neg must be >= 1, got {max_neg}")
    et = g.edge_type(t)
    positives = g.edges_of_type(et)
    if len(positives) == 0:
        raise GraphError(f"no edges of type {et.label!r}")
    A, B = _compatible_sides(g, et)
    same_ends = [s.id for s in g.edge_types if s.endpoint_types == et.endpoint_types]
    n_non = _n_compatible_pairs(et, A, B) - int(np.isin(g.edge_type_of, same_ends).sum())
    if n_non <= 0:
        raise GraphError(f"edge type {et.label!r} is complete: no non-edges exist")
    sampled = n_non > max_neg
    if sampled:
        if rng is None:
            rng = np.random.default_rng(0)
        negatives = _sample_non_edges(g, et, max_neg, rng)
    else:
        negatives = _all_non_edges(g, et)
    return _auc_report(g, emb, et.label, positives, negatives, negatives_sampled=sampled)


def _removable(g: TypedGraph, et: EdgeType, edges_t: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Mask over ``order``: True where greedy deletion in that order removes the edge.

    Deleting type-t edges one by one in ``order``, keeping each deletion
    that leaves the edge's endpoints connected, is the reverse-delete
    algorithm: edge ``order[j]`` goes exactly when its endpoints are already
    joined by the edges of other types plus the type-t edges after j. One
    union-find over the nodes decides every edge in near-linear time: it
    first joins the endpoints of every other-type edge, then takes the
    type-t edges backward from the last in ``order``, each one removable
    when its endpoints are already joined.
    """
    other = g.edges[g.edge_type_of != et.id]
    parent = list(range(g.n_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = []
    for u, v in np.concatenate([other, edges_t[order[::-1]]]).tolist():
        a, b = find(u), find(v)
        joined.append(a == b)
        if a != b:
            parent[a] = b
    return np.array(joined[len(other) :][::-1], dtype=bool)


def make_link_split(g: TypedGraph, t, fraction: float = 0.2, rng=None) -> LinkSplit:
    """Remove floor(fraction * |E_t|) edges of type t without changing the
    global connected-component count; pair them with equal-count sampled
    non-edges of the original graph.

    Candidates are tried in ``rng.permutation`` order and an edge is removed
    when its endpoints stay connected without it. That greedy is the
    reverse-delete algorithm, so one union-find pass decides it (see
    ``_removable``) in near-linear time, O((V + E) alpha(V)), rather than
    one graph search per candidate.

    If too many candidate edges are bridges, returns the maximal achievable
    split with a warning set. A fraction outside (0, 1] is a ValueError.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if rng is None:
        rng = np.random.default_rng(0)
    et = g.edge_type(t)
    idx_t = np.flatnonzero(g.edge_type_of == et.id)
    edges_t = g.edges[idx_t]
    target = int(fraction * len(edges_t))
    order = rng.permutation(len(edges_t))
    taken = order[np.flatnonzero(_removable(g, et, edges_t, order))[:target]]
    removed = edges_t[taken]
    warning = None
    if len(removed) < target:
        warning = f"only {len(removed)} of {target} edges removable without splitting components"
    keep = np.ones(g.n_edges, dtype=bool)
    keep[idx_t[taken]] = False
    nodes = [(nid, g.node_types[t_].label) for nid, t_ in zip(g.node_ids, g.node_type_of)]
    kept = [
        (u, v, g.edge_types[te].label)
        for (u, v), te in zip(g.edges[keep].tolist(), g.edge_type_of[keep].tolist())
    ]
    train_graph = TypedGraph(nodes, kept)
    non_edges = _sample_non_edges(g, et, len(removed), rng)
    return LinkSplit(
        train_graph=train_graph,
        removed_edges=removed,
        sampled_non_edges=non_edges,
        edge_type=et.label,
        warning=warning,
        fraction=fraction,
    )


def save_link_split(split: LinkSplit, out_dir, g: TypedGraph) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    split.train_graph.save(out / "train_nodes.tsv", out / "train_edges.tsv")
    for name, pairs in (
        ("removed_edges.tsv", split.removed_edges),
        ("non_edges.tsv", split.sampled_non_edges),
    ):
        with open(out / name, "w", encoding="utf-8") as f:
            for u, v in pairs:
                f.write(f"{g.node_ids[u]}\t{g.node_ids[v]}\n")
    with open(out / "split.json", "w", encoding="utf-8") as f:
        meta = {"edge_type": split.edge_type, "fraction": split.fraction, "warning": split.warning}
        json.dump(meta, f, indent=2)


def link_prediction_eval(split: LinkSplit, emb: EmbeddingTable) -> AucReport:
    """AUC over removed edges vs the split's sampled non-edges."""
    if len(split.removed_edges) == 0:
        raise ValueError("link split has no removed edges")
    return _auc_report(split.train_graph, emb, split.edge_type, split.removed_edges,
                       split.sampled_non_edges, warning=split.warning)


@dataclass
class RegionBand:
    upper_bound: float | None  # None marks the overflow bucket
    count: int
    mean_degree: float


@dataclass
class RegionReport:
    node_type: str
    boundaries: list[float]
    regions: list[RegionBand] = field(default_factory=list)
    overflow: RegionBand | None = None


def region_stats(
    g: TypedGraph, emb: EmbeddingTable, t, boundaries=(2.0, 4.0, 6.0)
) -> RegionReport:
    """Radial hierarchy bands for one node type.

    Each node goes to the first band whose upper boundary is >= its
    hyperbolic distance to the origin, arccosh of its time coordinate: the
    same radius as on the projected Poincare ball, without the ball's loss
    of precision as |p| -> 1. Nodes beyond the last boundary land in an
    overflow bucket. Boundaries must be a non-empty, strictly increasing list.
    """
    bounds = [float(b) for b in boundaries]
    if not bounds or not all(a < b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"boundaries must be non-empty and strictly increasing, got {bounds}")
    nt = g.node_type(t)
    nodes = g.nodes_of_type(nt)
    radius = np.asarray(lorentz.hyperbolic_distance(lorentz.origin(emb.dim), emb.coords[nodes]))
    degrees = g.degrees()[nodes].astype(np.float64)
    band = np.searchsorted(bounds, radius, side="left")
    bands = []
    for i, ub in enumerate([*bounds, None]):  # band len(bounds) is the overflow bucket
        mask = band == i
        n = int(mask.sum())
        bands.append(RegionBand(ub, n, float(degrees[mask].mean()) if n else float("nan")))
    return RegionReport(nt.label, bounds, regions=bands[:-1], overflow=bands[-1])


def export_projection(emb: EmbeddingTable, out, g: TypedGraph) -> None:
    """Poincare-disk projection TSV: node_id, type, p_1, p_2, radius.

    For dim > 2, the point is restricted to its first two spatial
    coordinates (time coordinate recomputed) before projecting. The radius
    is the restricted point's hyperbolic distance to the origin.
    """
    coords = emb.coords
    if emb.dim > 2:
        coords = lorentz.normalize(coords[:, [0, 1, -1]])
    p = lorentz.to_poincare(coords)
    radius = np.asarray(lorentz.hyperbolic_distance(lorentz.origin(2), coords))
    with open(out, "w", encoding="utf-8") as f:
        for v in range(emb.n_nodes):
            label = g.node_types[g.node_type_of[v]].label
            row = "\t".join(repr(float(x)) for x in (p[v, 0], p[v, 1], radius[v]))
            f.write(f"{g.node_ids[v]}\t{label}\t{row}\n")
