"""Riemannian SGD on the hyperboloid for the negative-sampling softmax loss.

For each positive pair (u, v) with negatives M, the per-pair loss is

    -log( exp(-d^2(e_u, e_v)) / sum_{w in {v} u M} exp(-d^2(e_u, e_w)) )

evaluated with a log-sum-exp shift. Gradients flow through the squared
hyperbolic distance (smooth at coincidence), get projected onto tangent
spaces, and every touched point takes one exact exponential-map step per
batch, followed by re-normalization onto the manifold. A batch gathers,
sums and updates only the rows it touches, so its cost follows the batch
size, not the number of nodes. A batch holds no (dim + 1, B, K) candidate
gradient array: a candidate's gradient is its pair's anchor times one
scalar, formed one coordinate at a time into a reused buffer as the
per-node sums take it. Each epoch's log record carries
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
        if not np.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")
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


def load_embeddings_for_graph(path, g: TypedGraph) -> EmbeddingTable:
    """Load a ``g.save_nodes(path, table.coords)`` file, its rows reordered to g's node indexing.

    Rows are read by :func:`graph.load_graph`'s rule for node files: blank lines
    and lines starting with ``#`` are skipped and fields are read stripped.
    GraphError naming ``path:line`` is raised for a row whose field count
    differs from the first row's, an id not in g or seen on an earlier row, a
    type label other than g's for that node, a coordinate that is not a
    number or not finite, or a point off the hyperboloid (time coordinate not
    within a relative 1e-9 of sqrt(1 + |spatial|^2)). A file that leaves a
    node of g without a row raises GraphError naming the file, and rows of
    fewer than 3 coordinates (dim + 1 with dim >= 2) one naming the first row.
    """
    labels = [g.node_types[t].label for t in g.node_type_of.tolist()]
    seen = np.zeros(g.n_nodes, dtype=bool)
    order, rows, linenos = [], [], []
    width = None
    for lineno, fields in _parse_tsv(path):
        width = width or len(fields)  # the first row's
        if len(fields) != width:
            raise GraphError(f"{path}:{lineno}: {len(fields)} fields, the first row has {width}")
        node_id, label = fields[0].strip(), fields[1].strip() if width > 1 else ""
        try:
            v = g.node_index(node_id)
        except GraphError as exc:
            raise GraphError(f"{path}:{lineno}: {exc}") from None
        if seen[v]:
            raise GraphError(f"{path}:{lineno}: repeated node id {node_id!r}")
        seen[v] = True
        if label != labels[v]:
            raise GraphError(f"{path}:{lineno}: node {node_id!r} is of type "
                             f"{labels[v]!r} in the graph, not {label!r}")
        try:
            rows.append([float(x) for x in fields[2:]])
        except ValueError:
            raise GraphError(f"{path}:{lineno}: a coordinate is not a number") from None
        order.append(v)
        linenos.append(lineno)
    if not seen.all():
        missing = np.flatnonzero(~seen)
        raise GraphError(f"{path}: {missing.size} of the graph's {g.n_nodes} nodes have no row, "
                         f"the first {g.node_ids[missing[0]]!r}")
    if rows and width < 5:  # an id, a label and dim + 1 coordinates
        raise GraphError(f"{path}:{linenos[0]}: {width - 2} coordinates, at least 3 needed")
    coords = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
    if bad.size:
        raise GraphError(f"{path}:{linenos[bad[0]]}: a coordinate is not finite")
    # a relative test: <x,x>_M + 1 cancels catastrophically far from the origin
    time = lorentz.normalize(coords)[:, -1]
    bad = np.flatnonzero(np.abs(coords[:, -1] - time) > 1e-9 * time)
    if bad.size:
        raise GraphError(f"{path}:{linenos[bad[0]]}: the point is not on the hyperboloid")
    return EmbeddingTable(coords[np.argsort(order)])  # file row i holds node order[i]


def init_embeddings(g: TypedGraph, d: int, init_scale: float, rng) -> EmbeddingTable:
    """All nodes near the hyperboloid origin with small uniform spatial noise."""
    if d < 2:
        raise ValueError("embedding dimension must be >= 2")
    spatial = rng.uniform(-init_scale, init_scale, size=(g.n_nodes, d))
    coords = np.empty((g.n_nodes, d + 1))
    coords[:, :-1] = spatial
    coords[:, -1] = np.sqrt(1.0 + np.sum(spatial**2, axis=1))
    return EmbeddingTable(coords)


def _sq_dist_grad_factor(d: np.ndarray, out=None) -> np.ndarray:
    # d(d^2)/dx = factor * (-y) with factor = 2 d / sinh d; finite limit 2 at d = 0
    small = d < 1e-7
    safe = np.where(small, 1.0, d)
    f = np.divide(np.multiply(2.0, safe, out=out), np.sinh(safe, out=safe), out=out)
    np.copyto(f, 2.0, where=small)
    return f


def _pair_terms(U: np.ndarray, W: np.ndarray):
    """Loss and ambient gradients for B pairs against their candidate sets.

    Feature-major: U is (n+1, B) anchors and W is (n+1, B, K) candidates with
    the positive partner first, so each coordinate's values sit in one
    contiguous block. Returns per-pair losses (B,), the Minkowski-raised
    ambient gradients of the anchors (n+1, B), and the (B, K) scalars ``-c``
    that give the candidates' gradients: candidate (b, k)'s is
    ``-c[b, k] * U[:, b]``.
    """
    # in place wherever a plain expression would hold one more (B, K) array at
    # once; the same operations in the same order, so the same bits
    t = np.einsum("db,dbk->bk", U[:-1], W[:-1])
    t -= U[-1][:, None] * W[-1]  # the inner products
    d = lorentz._arccosh(np.clip(np.negative(t, out=t), 1.0, None, out=t))
    s = np.multiply(np.negative(d, out=t), d, out=t)  # -d * d
    m = s.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(s - m), axis=1))
    loss = lse - s[:, 0]
    c = -np.exp(s - lse[:, None])  # minus the weights p
    c[:, 0] += 1.0  # d loss / d (d^2) per candidate
    c *= _sq_dist_grad_factor(d, out=s)
    grad_u = -np.einsum("bk,dbk->db", c, W)
    return loss, grad_u, -c


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
    allocates grows with P. A batch writes its anchors, their partners and
    the noise draws, widened to int64, into one index buffer that every
    batch reuses. The epoch loop keeps the table feature-major, as one
    C-contiguous (dim + 1, n_nodes) array, and writes it back to the row-major
    ``table.coords`` once at the end. Each batch gathers (dim + 1, rows)
    blocks from it, so every per-row Minkowski sum and broadcast runs along
    the rows in contiguous memory, not across dim + 1 coordinates per row.
    Per batch, in this order: one draw of pair indices, one draw of fresh
    noise negatives, one ``_pair_terms`` call for the losses and gradients
    of all its pairs, one ``bincount`` per coordinate that sums the
    gradients per touched node, in batch order (each coordinate's weights,
    the anchors' gradients and then ``-c`` times the anchors, are formed in
    one reused buffer, so no (dim + 1, B, K) gradient array exists), then
    one call each of ``lorentz.project_to_tangent``, ``exp_map`` and
    ``normalize`` on (touched, dim + 1) transposed views of the blocks: one
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
    # a batch's node indices and one coordinate's gradient weights, in the
    # order anchors, then each anchor's partner and noise draws
    rows = min(cfg.batch_size, len(pairs)) * (k + 2)
    index_buf = np.empty(rows, dtype=np.int64)
    weight_buf = np.empty(rows)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        loss_sum = 0.0
        max_drift = 0.0
        collisions = 0
        for b0 in range(0, len(pairs), cfg.batch_size):
            idx = pair_rng.integers(len(pairs), size=min(cfg.batch_size, len(pairs) - b0))
            n = idx.size
            flat_idx = index_buf[: n * (k + 2)]
            u_idx, w_idx = flat_idx[:n], flat_idx[n:].reshape(n, k + 1)
            u_idx[:] = pairs[idx, 0]
            w_idx[:, 0] = pairs[idx, 1]
            w_idx[:, 1:] = noise.sample(neg_rng, size=(n, k))
            negs = w_idx[:, 1:]
            hits = (negs == u_idx[:, None]) | (negs == w_idx[:, :1])
            collisions += int(np.count_nonzero(hits))
            U = np.take(coords, u_idx, axis=1)
            W = np.take(coords, w_idx, axis=1)
            loss, grad_u, neg_c = _pair_terms(U, W)
            batch_loss = float(loss.sum())
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"non-finite loss in epoch {epoch}, batch {b0 // cfg.batch_size}"
                )
            # per-node mean of the per-pair gradients: a node pulled by many
            # pairs in one batch takes one averaged step, so step sizes stay
            # O(lr) no matter how often a hub appears in the batch
            seen[flat_idx] = True
            touched = np.flatnonzero(seen)  # ascending node order
            seen[touched] = False
            slot[touched] = np.arange(touched.size)
            flat_slot = slot[flat_idx]
            # a bincount per coordinate adds each node's terms in batch order,
            # over the touched columns only: its length does not grow with n_nodes
            weights = weight_buf[: flat_idx.size]
            acc = np.empty((dim + 1, touched.size))
            for j in range(dim + 1):
                weights[:n] = grad_u[j]
                np.multiply(neg_c, U[j][:, None], out=weights[n:].reshape(n, k + 1))
                acc[j] = np.bincount(flat_slot, weights=weights, minlength=touched.size)
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
