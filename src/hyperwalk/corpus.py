"""Positive-pair corpus and the frequency table for noise negatives.

A sliding window over each walk emits ordered pairs (center, context) in
both directions, with multiplicities kept and self-pairs dropped.
:func:`build_corpus` takes the pairs straight from the padded walk matrix
of a :class:`~hyperwalk.walk.Walks`, one window offset at a time, into one
preallocated pair array: about 9M pairs in 0.2 s from 1 x 40 walks on the
DBLP-shaped graph. The pairs are node indices at the narrowest width the
graph allows (:func:`index_dtype`): uint16, 4 bytes a pair, up to 65,536
nodes, else int32, 8 bytes a pair. The trainer draws pair indices from
them uniformly, with replacement, a batch at a time.

Training negatives are frequency-based noise: each is an independent draw
from ``SampleCorpus.noise_table``, with probability proportional to a
node's occurrence frequency in the pair multiset raised to
``NOISE_EXPONENT``. Nothing is rejected, so a negative may be one of the
anchor's positives or the anchor itself.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# Negatives are drawn in proportion to frequency**NOISE_EXPONENT, word2vec's
# smoothed unigram noise (Mikolov et al. 2013). At 1.0 every node is a
# negative in the same fixed ratio to its positive count, which cancels much
# of the pull that places hubs near the disk center; 0.75 draws hubs
# relatively less often.
NOISE_EXPONENT = 0.75

# most nodes a corpus indexes: pairs are at most int32
INDEX_MAX = np.iinfo(np.int32).max
# least pair entries node_freq counts at a time: bincount's int64 copy of a
# chunk takes 512 KB, or as much as the n_nodes-long counts each call returns
FREQ_CHUNK = 1 << 16


def index_dtype(n_nodes: int) -> type:
    """The narrowest dtype that holds every node index of an n_nodes graph:
    uint16 up to 65,536 nodes, else int32."""
    return np.uint16 if n_nodes <= 1 << 16 else np.int32


class AliasTable:
    """Walker/Vose alias method for O(1) draws from a discrete distribution."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.size == 0 or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        n = w.size
        p = w * (n / w.sum())
        self.prob = np.ones(n)
        self.alias = np.arange(n)
        small = [i for i in range(n) if p[i] < 1.0]
        large = [i for i in range(n) if p[i] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            self.prob[s] = p[s]
            self.alias[s] = g
            p[g] = (p[g] + p[s]) - 1.0
            (small if p[g] < 1.0 else large).append(g)
        # leftovers are 1.0 within float error; prob/alias defaults cover them

    def sample(self, rng, size):
        """An array of ``size`` independent draws."""
        idx = rng.integers(self.prob.size, size=size)
        keep = rng.random(size) < self.prob[idx]
        return np.where(keep, idx, self.alias[idx])


class SampleCorpus:
    """Multiset of positive pairs plus the frequency table for negatives.

    The pairs are stored as a ``(P, 2)`` array of ``index_dtype(n_nodes)``,
    4 bytes a pair up to 65,536 nodes and 8 above; an input of that dtype
    is kept without a copy. Every entry must be a node index in
    ``[0, n_nodes)`` and ``n_nodes`` must fit in int32, else ValueError.
    """

    def __init__(self, pairs: np.ndarray, n_nodes: int):
        pairs = np.asarray(pairs).reshape(-1, 2)
        self.n_nodes = int(n_nodes)
        if not 0 <= self.n_nodes <= INDEX_MAX:
            raise ValueError(f"n_nodes must be in [0, {INDEX_MAX}], got {self.n_nodes}")
        # checked before the narrowing cast, so an index past the dtype cannot wrap
        if pairs.size:
            lo, hi = int(pairs.min()), int(pairs.max())
            if lo < 0 or hi >= self.n_nodes:
                bad = lo if lo < 0 else hi
                raise ValueError(f"pair entry {bad} is not a node index in [0, {self.n_nodes})")
        self.pairs = pairs.astype(index_dtype(self.n_nodes), copy=False)
        # bincount copies its input to int64, so count a chunk at a time; a
        # chunk at least n_nodes long keeps the per-call counts from dominating
        flat = self.pairs.ravel()
        self.node_freq = np.zeros(self.n_nodes, dtype=np.int64)
        chunk = max(FREQ_CHUNK, self.n_nodes)
        for at in range(0, flat.size, chunk):
            self.node_freq += np.bincount(flat[at : at + chunk], minlength=self.n_nodes)

    def __len__(self) -> int:
        return len(self.pairs)

    @cached_property
    def noise_table(self) -> AliasTable:
        """Noise draws in proportion to node_freq**NOISE_EXPONENT, built on first use."""
        return AliasTable(self.node_freq.astype(np.float64) ** NOISE_EXPONENT)


def build_corpus(walks, window: int, n_nodes: int) -> SampleCorpus:
    """Sliding-window pair extraction over all walks.

    ``walks`` is a :class:`~hyperwalk.walk.Walks`. For each walk position i,
    emits ordered pairs (v_i, v_j) for every j != i with |i - j| <= window;
    revisit self-pairs (v, v) are dropped. Pairs come in the order (offset
    j - i, direction: forward (v_i, v_j) then reverse (v_j, v_i), walk,
    position i). Each offset's mask over the walk matrix is made twice,
    once to count the pairs and once to write them into one preallocated
    ``(P, 2)`` array of ``index_dtype(n_nodes)``, so one mask and one
    gathered column are held at a time. A walk node outside
    ``[0, n_nodes)`` is a ValueError.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    m = walks.matrix
    # checked on the int32 matrix, before the narrow pair array could wrap it
    top = int(m.max(initial=-1))
    if top >= n_nodes:
        raise ValueError(f"walk node {top} is not a node index in [0, {n_nodes})")
    offsets = range(1, min(window, m.shape[1] - 1) + 1)  # offsets that fit in a row
    counts = [np.count_nonzero(_keep(m, o)) for o in offsets]
    pairs = np.empty((2 * sum(counts), 2), dtype=index_dtype(n_nodes))
    at = 0
    for o, n in zip(offsets, counts):
        keep = _keep(m, o)
        for col, side in enumerate((m[:, :-o], m[:, o:])):
            pairs[at : at + n, col] = pairs[at + n : at + 2 * n, 1 - col] = side[keep]
        at += 2 * n
    return SampleCorpus(pairs, n_nodes)


def _keep(m: np.ndarray, o: int) -> np.ndarray:
    """Which (m[:, :-o], m[:, o:]) make a pair: the context is a node (padding
    only follows a walk, so then the center is one too) and differs from the
    center."""
    return (m[:, o:] >= 0) & (m[:, o:] != m[:, :-o])
