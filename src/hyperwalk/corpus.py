"""Positive-pair corpus and the frequency table for noise negatives.

A sliding window over each walk emits ordered pairs (center, context) in
both directions, with multiplicities kept and self-pairs dropped.
:func:`build_corpus` reads the pairs off the padded walk matrix of a
:class:`~hyperwalk.walk.Walks` and stores no pair array: the
:class:`WalkCorpus` it returns holds the walk matrix, without a copy, and
one int32 flat matrix index ("site") per kept forward pair, 2 bytes a pair
at any node count, in the pair order (offset, direction, walk, position).
``take(idx)`` decodes drawn pair indices into ``(idx.size, 2)`` node
indices at the narrowest width the graph allows (:func:`index_dtype`,
uint16 up to 65,536 nodes, else int32), and ``pairs`` builds the whole
``(P, 2)`` array on demand. On the DBLP-shaped graph, 1 x 40 walks give
about 9M pairs in 0.03-0.06 s. :class:`SampleCorpus` keeps an explicit
``(P, 2)`` pair array with the same interface. The trainer draws pair
indices uniformly, with replacement, a batch at a time.

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
# least pair entries or walk positions node_freq counts at a time: bincount's
# int64 copy of a chunk takes 512 KB, or as much as the n_nodes-long counts it returns
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
    """Explicit multiset of positive pairs plus the frequency table for negatives.

    The pairs are stored as a ``(P, 2)`` array of ``index_dtype(n_nodes)``,
    4 bytes a pair up to 65,536 nodes and 8 above; an input of that dtype
    is kept without a copy. Every entry must be a node index in
    ``[0, n_nodes)`` and ``n_nodes`` must fit in int32, else ValueError.
    :func:`build_corpus` returns a :class:`WalkCorpus`, which reads the same
    interface off the walk matrix instead.
    """

    def __init__(self, pairs: np.ndarray, n_nodes: int):
        pairs = np.asarray(pairs).reshape(-1, 2)
        self.n_nodes = _checked_n_nodes(n_nodes)
        # checked before the narrowing cast, so an index past the dtype cannot wrap
        if pairs.size:
            lo, hi = int(pairs.min()), int(pairs.max())
            if lo < 0 or hi >= self.n_nodes:
                bad = lo if lo < 0 else hi
                raise ValueError(f"pair entry {bad} is not a node index in [0, {self.n_nodes})")
        self._pairs = pairs.astype(index_dtype(self.n_nodes), copy=False)
        # bincount copies its input to int64, so count a chunk at a time; a
        # chunk at least n_nodes long keeps the per-call counts from dominating
        flat = self._pairs.ravel()
        self.node_freq = np.zeros(self.n_nodes, dtype=np.int64)
        chunk = max(FREQ_CHUNK, self.n_nodes)
        for at in range(0, flat.size, chunk):
            self.node_freq += np.bincount(flat[at : at + chunk], minlength=self.n_nodes)

    @property
    def pairs(self) -> np.ndarray:
        """The ``(P, 2)`` pair array, in the corpus's order."""
        return self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def take(self, idx: np.ndarray) -> np.ndarray:
        """The pairs at flat pair indices ``idx``: ``pairs[idx]``, shape ``(len(idx), 2)``."""
        return self._pairs[idx]

    @cached_property
    def noise_table(self) -> AliasTable:
        """Noise draws in proportion to node_freq**NOISE_EXPONENT, built on first use."""
        return AliasTable(self.node_freq.astype(np.float64) ** NOISE_EXPONENT)


class WalkCorpus(SampleCorpus):
    """The window pairs of a walk matrix, read off the matrix rather than stored.

    Holds the ``(W, L)`` walk matrix without a copy, one walk site a forward
    pair and ``node_freq``. Pair indices run over 2 x len(offsets) blocks in
    the order (offset, direction: forward then reverse, walk, position); the
    sites of offset o are the flat matrix indices s of the kept centres, in
    (walk, position) order, so the forward pair at s is
    ``(m.flat[s], m.flat[s + o])`` and the reverse pair its swap. Sites are
    int32, 2 bytes a pair at any node count (int64 past 2**31 matrix cells).
    :func:`build_corpus` makes one.
    """

    def __init__(self, matrix: np.ndarray, offsets, counts, sites: np.ndarray,
                 node_freq: np.ndarray, n_nodes: int):
        self.n_nodes = n_nodes
        self.matrix = matrix
        self.sites = sites
        self.node_freq = node_freq
        # per pair block: its end in pair indices, then the shifts that take a
        # pair index to its site index and a site to the pair's two entries
        ends, site_shift, first, second = [], [], [], []
        pair_at = site_at = 0
        for o, n in zip(offsets, counts):
            for first_o, second_o in ((0, o), (o, 0)):  # forward, reverse
                ends.append(pair_at + n)
                site_shift.append(site_at - pair_at)
                first.append(first_o)
                second.append(second_o)
                pair_at += n
            site_at += n
        self.blocks = np.array([ends, site_shift, first, second], dtype=np.int64)

    @property
    def pairs(self) -> np.ndarray:
        """The ``(P, 2)`` pair array of ``index_dtype(n_nodes)``, built on each
        call with two gathers per offset: nothing in training reads it."""
        pairs = np.empty((len(self), 2), dtype=index_dtype(self.n_nodes))
        start = 0
        for end, shift, _, o in self.blocks[:, ::2].T.tolist():  # forward blocks
            centre = self.sites[start + shift : end + shift]
            n = end - start
            pairs[start:end, 0] = pairs[end : end + n, 1] = np.take(self.matrix, centre)
            pairs[start:end, 1] = pairs[end : end + n, 0] = np.take(self.matrix, centre + o)
            start = end + n
        return pairs

    def __len__(self) -> int:
        return 2 * len(self.sites)

    def take(self, idx: np.ndarray) -> np.ndarray:
        """The pairs at flat pair indices ``idx``, as ``pairs[idx]`` would give
        them: a search over the block ends, one gather into the sites and two
        into the walk matrix."""
        ends, site_shift, first, second = self.blocks
        b = np.searchsorted(ends, idx, side="right")
        s = np.take(self.sites, idx + np.take(site_shift, b))
        out = np.empty((len(s), 2), dtype=index_dtype(self.n_nodes))
        out[:, 0] = np.take(self.matrix, s + np.take(first, b))
        out[:, 1] = np.take(self.matrix, s + np.take(second, b))
        return out


def _checked_n_nodes(n_nodes: int) -> int:
    n_nodes = int(n_nodes)
    if not 0 <= n_nodes <= INDEX_MAX:
        raise ValueError(f"n_nodes must be in [0, {INDEX_MAX}], got {n_nodes}")
    return n_nodes


def build_corpus(walks, window: int, n_nodes: int) -> WalkCorpus:
    """Sliding-window pair extraction over all walks.

    ``walks`` is a :class:`~hyperwalk.walk.Walks`. For each walk position i,
    emits ordered pairs (v_i, v_j) for every j != i with |i - j| <= window;
    revisit self-pairs (v, v) are dropped. Pairs come in the order (offset
    j - i, direction: forward (v_i, v_j) then reverse (v_j, v_i), walk,
    position i). The corpus keeps the walk matrix, without a copy, and
    records one site, the flat matrix index of the centre v_i, per kept
    forward pair (see :class:`WalkCorpus`); its ``pairs`` builds the pair
    array on demand. The matrix is read twice, a block of rows at a time,
    each offset's mask made per block: a count pass counts the pairs of each
    offset and the pairs each walk position is in (so ``node_freq`` needs no
    pass over the pairs), then a write pass writes each offset's sites into
    one preallocated array. A walk node outside ``[0, n_nodes)`` is a
    ValueError.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n_nodes = _checked_n_nodes(n_nodes)
    m = np.ascontiguousarray(walks.matrix)  # sites index its flat layout
    # checked on the int32 matrix, before a narrow pair array could wrap it
    top = int(m.max(initial=-1))
    if top >= n_nodes:
        raise ValueError(f"walk node {top} is not a node index in [0, {n_nodes})")
    length = m.shape[1]
    offsets = range(1, min(window, length - 1) + 1)  # offsets that fit in a row
    rows = max(1, max(FREQ_CHUNK, n_nodes) // max(length, 1))
    # count pass: each offset's kept pairs, and how many kept pairs each
    # walk position is in, at most 2 * len(offsets)
    counts = [0] * len(offsets)
    freq = np.zeros(n_nodes)  # float64 sums of integers: exact below 2**53
    for at in range(0, len(m), rows):
        block = m[at : at + rows]
        in_pairs = np.zeros(block.shape, dtype=np.min_scalar_type(2 * len(offsets)))
        for k, o in enumerate(offsets):
            keep = _keep(block, o)
            counts[k] += int(np.count_nonzero(keep))
            in_pairs[:, :-o] += keep
            in_pairs[:, o:] += keep
        # padding is in no pair, so its weight 0 may fall on node 0
        freq += np.bincount(np.maximum(block, 0).ravel(), in_pairs.ravel(), minlength=n_nodes)
    # write pass: within an offset's run of sites each block's kept centres
    # follow the earlier blocks', so a block appends its flatnonzero, shifted
    # to whole-matrix indices
    sites = np.empty(sum(counts), dtype=np.int32 if m.size <= INDEX_MAX else np.int64)
    run_at = np.cumsum([0] + counts[:-1])
    mask = np.zeros((min(rows, len(m)), length), dtype=bool)
    for at in range(0, len(m), rows):
        block = m[at : at + rows]
        centres = mask[: len(block)]
        for k, o in enumerate(offsets):
            centres[:, :-o] = _keep(block, o)
            centres[:, -o:] = False
            hits = np.flatnonzero(centres)
            np.add(hits, at * length, out=sites[run_at[k] : run_at[k] + hits.size], casting="unsafe")
            run_at[k] += hits.size
    node_freq = 2 * freq.astype(np.int64)  # both directions
    return WalkCorpus(m, offsets, counts, sites, node_freq, n_nodes)


def _keep(m: np.ndarray, o: int) -> np.ndarray:
    """Which (m[:, :-o], m[:, o:]) make a pair: the context is a node (padding
    only follows a walk, so then the center is one too) and differs from the
    center."""
    return (m[:, o:] >= 0) & (m[:, o:] != m[:, :-o])
