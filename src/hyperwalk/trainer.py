"""Riemannian SGD on the hyperboloid for the negative-sampling softmax loss.

For each positive pair (u, v) with negatives M, the per-pair loss is

    -log( exp(-d^2(e_u, e_v)) / sum_{w in {v} u M} exp(-d^2(e_u, e_w)) )

evaluated with a log-sum-exp shift. Gradients flow through the squared
hyperbolic distance (smooth at coincidence), get projected onto tangent
spaces, and every touched point takes one exact exponential-map step per
batch, followed by re-normalization onto the manifold. A batch gathers,
sums and updates only the rows it touches, so its cost follows the batch
size, not the number of nodes. Each epoch's log record carries
``max_manifold_drift``, the largest |<x,x>_M + 1| of an updated point before
that re-normalization, and ``noise_collision_share``, the share of noise
draws equal to the anchor or its positive partner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import lorentz, seeding
from .corpus import SampleCorpus
from .graph import GraphError, TypedGraph, _parse_tsv

# half-width of the uniform spatial noise of the initial points around the origin
INIT_SCALE = 1e-3


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradient encountered."""


@dataclass
class TrainConfig:
    lr: float = 0.3
    batch_size: int = 512
    epochs: int = 5
    negatives_per_positive: int = 20
    seed: int = 0

    def __post_init__(self):
        if min(self.lr, self.batch_size, self.negatives_per_positive) <= 0:
            raise ValueError("lr, batch_size, negatives must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


class EmbeddingTable:
    """node index -> hyperboloid point; the trainable model state."""

    def __init__(self, coords: np.ndarray):
        self.coords = np.asarray(coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] < 3:
            raise ValueError("coords must be (n_nodes, dim + 1) with dim >= 2")

    @property
    def dim(self) -> int:
        return self.coords.shape[1] - 1

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    def save_tsv(self, path, g: TypedGraph) -> None:
        """``node_id<TAB>type_label<TAB>x_1<TAB>...<TAB>x_{d+1}``.

        Coordinates use shortest round-trip decimals, so a reload is
        bit-exact.
        """
        with open(path, "w", encoding="utf-8") as f:
            for v in range(self.n_nodes):
                label = g.node_types[g.node_type_of[v]].label
                coords = "\t".join(repr(float(c)) for c in self.coords[v])
                f.write(f"{g.node_ids[v]}\t{label}\t{coords}\n")


def load_embeddings_for_graph(path, g: TypedGraph) -> EmbeddingTable:
    """Load a :meth:`EmbeddingTable.save_tsv` file, its rows reordered to g's node indexing.

    Blank lines and lines starting with ``#`` are skipped, as in graph files.
    GraphError naming ``path:line`` is raised for a row whose field count
    differs from the first row's, a coordinate that is not a number or not
    finite, a point off the hyperboloid (time coordinate not within a relative
    1e-9 of sqrt(1 + |spatial|^2)) or a type label other than g's for that
    node. The file must name each node of g exactly once; otherwise ValueError.
    """
    ids, labels, rows, linenos = [], [], [], []
    width = None
    for lineno, fields in _parse_tsv(path):
        width = width or len(fields)  # the first row's
        if len(fields) != width:
            raise GraphError(f"{path}:{lineno}: {len(fields)} fields, the first row has {width}")
        try:
            rows.append([float(x) for x in fields[2:]])
        except ValueError:
            raise GraphError(f"{path}:{lineno}: a coordinate is not a number") from None
        ids.append(fields[0])
        labels.append(fields[1])
        linenos.append(lineno)
    table = EmbeddingTable(np.asarray(rows))
    bad = np.flatnonzero(~np.isfinite(table.coords).all(axis=1))
    if bad.size:
        raise GraphError(f"{path}:{linenos[bad[0]]}: a coordinate is not finite")
    # a relative test: <x,x>_M + 1 cancels catastrophically far from the origin
    time = lorentz.normalize(table.coords)[:, -1]
    bad = np.flatnonzero(np.abs(table.coords[:, -1] - time) > 1e-9 * time)
    if bad.size:
        raise GraphError(f"{path}:{linenos[bad[0]]}: the point is not on the hyperboloid")
    distinct = set(ids)
    if len(ids) != g.n_nodes or distinct != set(g.node_ids):
        raise ValueError(
            f"{path} must hold one row for each of the graph's {g.n_nodes} nodes; it has "
            f"{len(ids)} rows naming {len(distinct)} distinct ids, "
            f"{len(distinct.difference(g.node_ids))} of them not in the graph"
        )
    order = np.asarray([g.node_index(i) for i in ids])
    for lineno, node_id, label, t in zip(linenos, ids, labels, g.node_type_of[order].tolist()):
        if label != g.node_types[t].label:
            raise GraphError(f"{path}:{lineno}: node {node_id!r} is of type "
                             f"{g.node_types[t].label!r} in the graph, not {label!r}")
    coords = np.empty_like(table.coords)
    coords[order] = table.coords
    return EmbeddingTable(coords)


def init_embeddings(g: TypedGraph, d: int, init_scale: float, rng) -> EmbeddingTable:
    """All nodes near the hyperboloid origin with small uniform spatial noise."""
    if d < 2:
        raise ValueError("embedding dimension must be >= 2")
    spatial = rng.uniform(-init_scale, init_scale, size=(g.n_nodes, d))
    coords = np.empty((g.n_nodes, d + 1))
    coords[:, :-1] = spatial
    coords[:, -1] = np.sqrt(1.0 + np.sum(spatial**2, axis=1))
    return EmbeddingTable(coords)


def _sq_dist_grad_factor(d: np.ndarray) -> np.ndarray:
    # d(d^2)/dx = factor * (-y) with factor = 2 d / sinh d; finite limit 2 at d = 0
    small = d < 1e-7
    safe = np.where(small, 1.0, d)
    return np.where(small, 2.0, 2.0 * safe / np.sinh(safe))


def _pair_terms(U: np.ndarray, W: np.ndarray):
    """Loss and ambient gradients for B pairs against their candidate sets.

    Feature-major: U is (n+1, B) anchors and W is (n+1, B, K) candidates with
    the positive partner first, so each coordinate's values sit in one
    contiguous block. Returns per-pair losses (B,), softmax weights (B, K)
    and Minkowski-raised ambient gradients for the anchors (n+1, B) and the
    candidates (n+1, B, K).
    """
    inner = np.einsum("db,dbk->bk", U[:-1], W[:-1]) - U[-1][:, None] * W[-1]
    a = np.clip(-inner, 1.0, None)
    d = lorentz._arccosh(a)
    s = -d * d
    m = s.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(s - m), axis=1))
    loss = lse - s[:, 0]
    p = np.exp(s - lse[:, None])
    coeff = -p
    coeff[:, 0] += 1.0  # d loss / d (d^2) per candidate
    c = coeff * _sq_dist_grad_factor(d)
    grad_u = -np.einsum("bk,dbk->db", c, W)
    grad_w = -c * U[:, :, None]
    return loss, p, grad_u, grad_w


def train(
    g: TypedGraph, corpus: SampleCorpus, cfg: TrainConfig, dim: int
) -> tuple[EmbeddingTable, list[dict]]:
    """SGD over i.i.d. draws from the pair multiset; returns (table, epoch log).

    An epoch is ``ceil(P / batch_size)`` batches over the corpus's P pairs
    (uint16 or int32 node indices, see ``corpus.index_dtype``). Each batch
    draws its pair indices uniformly, with replacement, from
    ``substream(cfg.seed, PAIRS)``, the last batch only the remainder, so
    an epoch draws exactly P pairs: a one-epoch run leaves about 1/e of them
    unvisited and visits others more than once, and nothing ``train``
    allocates grows with P. A batch's pair columns join
    the int64 noise draws in one ``concatenate``, which widens them to int64.
    The epoch loop keeps the table feature-major, as one C-contiguous
    (dim + 1, n_nodes) array, and writes it back to the row-major
    ``table.coords`` once at the end. Each batch gathers (dim + 1, rows)
    blocks from it, so every per-row Minkowski sum and broadcast runs along
    the rows in contiguous memory, not across dim + 1 coordinates per row.
    Per batch, in this order: one draw of pair indices, one draw of fresh
    noise negatives, one ``_pair_terms`` call for the losses and gradients
    of all its pairs, one ``bincount`` per coordinate that sums the
    gradients per touched node, then one call each of
    ``lorentz.project_to_tangent``, ``exp_map`` and ``normalize`` on
    (touched, dim + 1) transposed views of the blocks: one
    exponential-map step per touched node, then re-normalization. The
    per-batch cost scales with the rows the batch touches, not with
    ``g.n_nodes``; only one scan of an n_nodes-long boolean mark is not.
    Negatives are plain word2vec-style noise drawn from
    ``corpus.noise_table``, i.e. in proportion to frequency**0.75: nothing
    is rejected, so a negative may be one of the anchor's positives or the
    anchor itself. Each epoch record holds ``epoch``, ``mean_loss`` (the
    loss summed over the epoch's P draws, divided by P), ``wall_time_s``,
    ``max_manifold_drift`` and ``noise_collision_share`` (the share of the
    epoch's noise draws that equal the anchor or its positive partner).
    Fully deterministic for a fixed cfg.seed.
    """
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    table = init_embeddings(g, dim, INIT_SCALE, seeding.substream(cfg.seed, seeding.INIT))
    coords = np.ascontiguousarray(table.coords.T)  # feature-major (dim + 1, n_nodes)
    neg_rng = seeding.substream(cfg.seed, seeding.NEGATIVES)
    pair_rng = seeding.substream(cfg.seed, seeding.PAIRS)
    k = cfg.negatives_per_positive
    noise = corpus.noise_table
    pairs = corpus.pairs
    # reused by every batch: seen marks the rows a batch touches (and is
    # cleared after), slot maps a touched node to its column in the batch's sums
    seen = np.zeros(g.n_nodes, dtype=bool)
    slot = np.empty(g.n_nodes, dtype=np.int64)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        loss_sum = 0.0
        max_drift = 0.0
        collisions = 0
        for b0 in range(0, len(pairs), cfg.batch_size):
            idx = pair_rng.integers(len(pairs), size=min(cfg.batch_size, len(pairs) - b0))
            u_idx = pairs[idx, 0]
            v_idx = pairs[idx, 1]
            negs = noise.sample(neg_rng, size=(idx.size, k))
            hits = (negs == u_idx[:, None]) | (negs == v_idx[:, None])
            collisions += int(np.count_nonzero(hits))
            w_idx = np.concatenate([v_idx[:, None], negs], axis=1)
            U = np.take(coords, u_idx, axis=1)
            W = np.take(coords, w_idx, axis=1)
            loss, _, grad_u, grad_w = _pair_terms(U, W)
            batch_loss = float(loss.sum())
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"non-finite loss in epoch {epoch}, batch {b0 // cfg.batch_size}"
                )
            # per-node mean of the per-pair gradients: a node pulled by many
            # pairs in one batch takes one averaged step, so step sizes stay
            # O(lr) no matter how often a hub appears in the batch
            flat_idx = np.concatenate([u_idx, w_idx.ravel()])
            flat_grad = np.concatenate([grad_u, grad_w.reshape(dim + 1, -1)], axis=1)
            seen[flat_idx] = True
            touched = np.flatnonzero(seen)  # ascending node order
            seen[touched] = False
            slot[touched] = np.arange(touched.size)
            flat_slot = slot[flat_idx]
            # a bincount per coordinate adds each node's terms in batch order,
            # over the touched columns only: its length does not grow with n_nodes
            acc = np.empty((dim + 1, touched.size))
            for j in range(dim + 1):
                acc[j] = np.bincount(flat_slot, weights=flat_grad[j], minlength=touched.size)
            acc /= np.bincount(flat_slot, minlength=touched.size)
            x = np.take(coords, touched, axis=1)
            # (touched, dim + 1) views: lorentz sees one point per row
            step = lorentz.project_to_tangent(x.T, -cfg.lr * acc.T)
            moved = lorentz.exp_map(x.T, step)
            if not np.all(np.isfinite(moved)):
                raise TrainingDiverged(
                    f"non-finite update in epoch {epoch}, batch {b0 // cfg.batch_size}"
                )
            normalized = lorentz.normalize(moved)
            # normalize recomputes the time coordinate as t' = sqrt(1 + |spatial|^2),
            # so the drift |<moved, moved>_M + 1| it removes is |t'^2 - t^2|
            drift = np.abs(normalized[:, -1] ** 2 - moved[:, -1] ** 2)
            max_drift = max(max_drift, float(drift.max()))
            coords[:, touched] = normalized.T
            loss_sum += batch_loss
        history.append(
            {
                "epoch": epoch,
                "mean_loss": loss_sum / len(pairs),
                "wall_time_s": time.perf_counter() - t0,
                "max_manifold_drift": max_drift,
                "noise_collision_share": collisions / (len(pairs) * k),
            }
        )
    table.coords[...] = coords.T
    return table, history
