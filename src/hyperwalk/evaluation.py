"""Network reconstruction, link prediction, and hierarchy diagnostics.

Pairs are scored by negated hyperbolic distance between their embeddings;
AUC is the Mann-Whitney statistic with half credit for ties.

Every step whose size grows with the number of scored pairs (up to
``max_neg`` non-edges) works through the pairs in blocks of ``BLOCK``, so
memory is the pair and score arrays plus O(BLOCK) temporaries. At d = 10
each of a block's (BLOCK, dim + 1) float64 temporaries takes 0.7 MB, small
enough to stay in a core's L2 cache. Sampled and enumerated non-edges are
node indices at the corpus's width, ``corpus.index_dtype``; sampling draws
its candidates' indices as int32. AUC sorts the negative scores once and
counts: a report sorts the scores it computed in place, the public ``auc``
a copy.

Nothing here reads or writes a file: the CLI writes what these functions return.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lorentz, seeding
from .corpus import index_dtype
from .graph import EdgeType, GraphError, TypedGraph
from .trainer import EmbeddingTable

DEFAULT_MAX_NEG = 1_000_000
DEFAULT_BOUNDARIES = (2.0, 4.0, 6.0)  # region_stats' band radii
# pairs gathered, scored or tested for edge membership at a time
BLOCK = 8_192


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


def _auc_reports(g: TypedGraph, tables: list[EmbeddingTable], edge_type: str, pos, neg,
                 **extra) -> list[AucReport]:
    """One AucReport per table of the (k, 2) positive and negative pairs:
    their AUC, and how many have an endpoint isolated in g, the graph
    trained on."""
    isolated = g.degrees() == 0
    isolated_pairs = sum(_isolated_pairs(isolated, pairs) for pairs in (pos, neg))
    return [
        AucReport(
            edge_type=edge_type,
            dimension=emb.dim,
            auc=_pairs_auc(emb, pos, neg),
            n_pos=len(pos),
            n_neg=len(neg),
            isolated_pairs=isolated_pairs,
            **extra,
        )
        for emb in tables
    ]


def _isolated_pairs(isolated: np.ndarray, pairs: np.ndarray) -> int:
    """How many (u, v) rows of ``pairs`` have an endpoint marked in
    ``isolated``, counted ``BLOCK`` rows at a time."""
    return sum(int(np.count_nonzero(isolated[pairs[s : s + BLOCK]].any(axis=1)))
               for s in range(0, len(pairs), BLOCK))


def _pairs_auc(emb: EmbeddingTable, pos, neg) -> float:
    """``auc`` of the scores of the pairs, the negatives' sorted in place."""
    neg_scores = _score_pairs(emb, neg)
    neg_scores.sort()
    return _auc_sorted(_score_pairs(emb, pos), neg_scores)


def auc(pos_scores, neg_scores) -> float:
    """P(random positive outscores random negative), ties counted half.

    Sorts a copy of the negatives once and counts, for each positive, the
    negatives below it and up to it. ``2 * wins + ties`` is an exact
    integer, so the result is the rank-sum (Mann-Whitney) formula's to the
    last bit. A NaN score on either side gives NaN.
    """
    return _auc_sorted(pos_scores, np.sort(np.asarray(neg_scores, dtype=np.float64).ravel()))


def _auc_sorted(pos_scores, neg: np.ndarray) -> float:
    """``auc`` of the positives against negatives already sorted ascending,
    where NaNs sort last."""
    pos = np.asarray(pos_scores, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score sets must be nonempty")
    if np.isnan(pos).any() or np.isnan(neg[-1]):
        return float("nan")
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

    Each attempt draws its candidates' indices into A and B whole, as int32
    (the values, and the generator's state after, of an int64 draw), then
    gathers and tests them a block at a time and stops once k are kept.
    The pairs come as ``index_dtype(g.n_nodes)``; k = 0 draws nothing.
    """
    A, B = _compatible_sides(g, et)
    out = np.empty((k, 2), dtype=index_dtype(g.n_nodes))
    filled = 0
    attempts = 0
    while filled < k:
        m = max(k - filled, 64)
        iu = rng.integers(A.size, size=m, dtype=np.int32)
        iv = rng.integers(B.size, size=m, dtype=np.int32)
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


def reconstruct(g: TypedGraph, emb: EmbeddingTable, t, max_neg: int = DEFAULT_MAX_NEG,
                rng=None) -> AucReport:
    """AUC of true edges of type t against type-compatible non-edges: pairs
    with no edge of any type between them.

    Enumerates all non-edges when their count fits max_neg, otherwise takes
    a uniform sample of max_neg (flagged in the report), drawn from ``rng``,
    by default ``seeding.substream(0, seeding.NONEDGES)``. Pairs are sampled or
    enumerated, and scored, in blocks of ``BLOCK``: memory is the O(max_neg)
    pair and score arrays plus O(BLOCK) temporaries.
    """
    return reconstruct_tables(g, [emb], t, max_neg, rng)[0]


def reconstruct_tables(g: TypedGraph, tables: list[EmbeddingTable], t,
                       max_neg: int = DEFAULT_MAX_NEG, rng=None) -> list[AucReport]:
    """:func:`reconstruct` of each table, every one scored on the same
    non-edges: one sample (or enumeration) serves them all, so the reports
    equal one ``reconstruct`` call per table, each with a fresh ``rng`` of
    the same state."""
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
            rng = seeding.substream(0, seeding.NONEDGES)
        negatives = _sample_non_edges(g, et, max_neg, rng)
    else:
        negatives = _all_non_edges(g, et)
    return _auc_reports(g, tables, et.label, positives, negatives, negatives_sampled=sampled)


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
    joined = []
    for a, b in np.concatenate([other, edges_t[order[::-1]]]).tolist():
        # each endpoint's root, halving its path; inline, as a call per endpoint costs more
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        joined.append(a == b)
        if a != b:
            parent[a] = b
    return np.array(joined[len(other) :][::-1], dtype=bool)


def make_link_split(g: TypedGraph, t, fraction: float, rng) -> LinkSplit:
    """Remove floor(fraction * |E_t|) edges of type t without changing the
    global connected-component count; pair them with equal-count sampled
    non-edges of the original graph. ``fraction`` and the generator ``rng``
    are required; the CLI's --fraction and --seed give them.

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
    train_graph = g.edge_subgraph(keep)
    non_edges = _sample_non_edges(g, et, len(removed), rng)
    return LinkSplit(
        train_graph=train_graph,
        removed_edges=removed,
        sampled_non_edges=non_edges,
        edge_type=et.label,
        warning=warning,
        fraction=fraction,
    )


def link_prediction_eval(split: LinkSplit, emb: EmbeddingTable) -> AucReport:
    """AUC over removed edges vs the split's sampled non-edges."""
    if len(split.removed_edges) == 0:
        raise ValueError("link split has no removed edges")
    return _auc_reports(split.train_graph, [emb], split.edge_type, split.removed_edges,
                        split.sampled_non_edges, warning=split.warning)[0]


@dataclass
class RegionBand:
    upper_bound: float | None  # None marks the overflow bucket
    count: int
    mean_degree: float | None  # None for an empty band


@dataclass
class RegionReport:
    node_type: str
    boundaries: list[float]
    regions: list[RegionBand] = field(default_factory=list)
    overflow: RegionBand | None = None


def region_stats(g: TypedGraph, emb: EmbeddingTable, t,
                 boundaries=DEFAULT_BOUNDARIES) -> RegionReport:
    """Radial hierarchy bands for one node type.

    Each node goes to the first band whose upper boundary is >= its
    hyperbolic distance to the origin, arccosh of its time coordinate: the
    same radius as on the projected Poincare ball, without the ball's loss
    of precision as |p| -> 1. Nodes beyond the last boundary land in an
    overflow bucket. Boundaries must be a non-empty, strictly increasing list
    of finite numbers.
    """
    bounds = [float(b) for b in boundaries]
    increasing = all(a < b for a, b in zip(bounds, bounds[1:]))
    if not bounds or not increasing or not np.isfinite(bounds).all():
        raise ValueError(f"boundaries must be non-empty and strictly increasing finite numbers, "
                         f"got {bounds}")
    nt = g.node_type(t)
    nodes = g.nodes_of_type(nt)
    radius = np.asarray(lorentz.hyperbolic_distance(lorentz.origin(emb.dim), emb.coords[nodes]))
    degrees = g.degrees()[nodes].astype(np.float64)
    band = np.searchsorted(bounds, radius, side="left")
    bands = []
    for i, ub in enumerate([*bounds, None]):  # band len(bounds) is the overflow bucket
        mask = band == i
        n = int(mask.sum())
        bands.append(RegionBand(ub, n, float(degrees[mask].mean()) if n else None))
    return RegionReport(nt.label, bounds, regions=bands[:-1], overflow=bands[-1])


def poincare_projection(emb: EmbeddingTable) -> np.ndarray:
    """(n_nodes, 3) rows of p_1, p_2 on the Poincare disk and the radius.

    For dim > 2, the point is restricted to its first two spatial
    coordinates (time coordinate recomputed) before projecting. The radius
    is the restricted point's hyperbolic distance to the origin.
    """
    coords = emb.coords
    if emb.dim > 2:
        coords = lorentz.normalize(coords[:, [0, 1, -1]])
    p = lorentz.to_poincare(coords)
    radius = np.asarray(lorentz.hyperbolic_distance(lorentz.origin(2), coords))
    return np.column_stack([p, radius])
