"""Positive-pair corpus and the frequency table for noise negatives.

A sliding window over each walk emits ordered pairs (center, context) in
both directions, with multiplicities kept and self-pairs dropped.
:func:`build_corpus` reads the pairs off the padded walk matrix of a
:class:`~hyperwalk.walk.Walks` and stores no pair array: the
:class:`WalkCorpus` it returns holds the walk matrix, without a copy, the
in-walk position of each kept forward pair's centre, one byte a forward
pair for walks up to 256 long, and the index of each walk's first position
per window offset, in the pair order (offset, direction, walk, position).
``take(idx)`` decodes drawn pair indices into ``(idx.size, 2)`` node
indices at the narrowest width the graph allows (:func:`index_dtype`,
uint16 up to 65,536 nodes, else int32), and ``pairs`` builds the whole
``(P, 2)`` array on demand. On the DBLP-shaped graph, 1 x 40 walks give
about 9M pairs in 0.03-0.05 s. :class:`SampleCorpus` keeps an explicit
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

    Holds the ``(W, L)`` walk matrix without a copy, ``node_freq``, and per
    kept forward pair only its centre's position within its walk. Pair
    indices run over 2 x len(offsets) blocks in the order (offset,
    direction: forward then reverse, walk, position). Offset o's positions
    fill the front of their own region of W x (L - o) slots of
    ``positions``, in (walk, position) order, and ``starts`` holds, for each
    (offset, walk), the index in ``positions`` of that walk's first one. The
    forward pair whose position is ``positions[s]`` and whose walk w is the
    last with ``starts`` at most s has centre site ``c = w * L +
    positions[s]`` and is ``(m.flat[c], m.flat[c + o])``; the reverse pair
    is its swap. Positions take ``np.min_scalar_type(L - 1)``, 1 byte a
    forward pair up to walks of 256 (uint16 beyond), and starts are int32
    (int64 past INDEX_MAX position slots). :func:`build_corpus` makes one.
    """

    def __init__(self, matrix: np.ndarray, offsets, counts, regions, positions: np.ndarray,
                 starts: np.ndarray, node_freq: np.ndarray, n_nodes: int):
        self.n_nodes = n_nodes
        self.matrix = matrix
        self.positions = positions
        self.starts = starts
        self.node_freq = node_freq
        # per offset: its kept forward pairs, and its region's first slot
        self.offsets, self.counts, self.regions = list(offsets), list(counts), list(regions)
        n_walks, length = matrix.shape
        # per pair block: its end in pair indices, the shift that takes a pair
        # index to its index in positions, then the shifts that take a walk's
        # row in starts times L, plus a position, to the pair's two entries
        ends, pos_shift, first, second = [], [], [], []
        pair_at = 0
        for k, (o, n, region) in enumerate(zip(self.offsets, self.counts, self.regions)):
            row_shift = -k * n_walks * length  # offset k's rows in starts follow k x W others
            for first_o, second_o in ((0, o), (o, 0)):  # forward, reverse
                ends.append(pair_at + n)
                pos_shift.append(region - pair_at)
                first.append(row_shift + first_o)
                second.append(row_shift + second_o)
                pair_at += n
        self.blocks = np.array([ends, pos_shift, first, second], dtype=np.int64)

    @property
    def pairs(self) -> np.ndarray:
        """The ``(P, 2)`` pair array of ``index_dtype(n_nodes)``, built on each
        call from the positions and starts of each offset: nothing in
        training reads it."""
        n_walks, length = self.matrix.shape
        pairs = np.empty((len(self), 2), dtype=index_dtype(self.n_nodes))
        walk_sites = np.arange(n_walks) * length
        start = 0
        for k, (o, n, at) in enumerate(zip(self.offsets, self.counts, self.regions)):
            first = self.starts[k * n_walks : (k + 1) * n_walks]
            centre = np.repeat(walk_sites, np.diff(first, append=at + n))
            centre += self.positions[at : at + n]
            end = start + n
            pairs[start:end, 0] = pairs[end : end + n, 1] = np.take(self.matrix, centre)
            pairs[start:end, 1] = pairs[end : end + n, 0] = np.take(self.matrix, centre + o)
            start = end + n
        return pairs

    def __len__(self) -> int:
        return 2 * sum(self.counts)

    def take(self, idx: np.ndarray) -> np.ndarray:
        """The pairs at flat pair indices ``idx``, as ``pairs[idx]`` would give
        them: a search over the block ends, a search over the walk starts and
        a gather into the positions, then two gathers into the walk matrix.
        The indices are decoded in ascending order, and the pairs written
        back in the caller's order: a search's queries then ascend within
        each block, so that each query finds the table rows the last one
        read still in cache."""
        order = np.argsort(idx)
        idx = np.take(idx, order)
        ends, pos_shift, first, second = self.blocks
        b = np.searchsorted(ends, idx, side="right")
        s = idx + np.take(pos_shift, b)
        # queries of the table's dtype: of another, searchsorted would cast
        # the whole table on every call
        row = np.searchsorted(self.starts, s.astype(self.starts.dtype, copy=False), side="right")
        centre = (row - 1) * self.matrix.shape[1] + np.take(self.positions, s)
        out = np.empty((len(s), 2), dtype=index_dtype(self.n_nodes))
        out[order, 0] = np.take(self.matrix, centre + np.take(first, b))
        out[order, 1] = np.take(self.matrix, centre + np.take(second, b))
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
    records the in-walk position i of each kept forward pair's centre,
    plus each walk's first kept centre per offset (see :class:`WalkCorpus`);
    its ``pairs`` builds the pair array on demand. The matrix is read once,
    a block of rows at a time, each offset's mask made per block: the mask
    counts the offset's pairs and the pairs each walk position is in (so
    ``node_freq`` needs no pass over the pairs), and writes the kept
    centres' positions into the offset's region, which holds as many slots
    as the offset has (walk, position) centres, kept or not. A walk node
    outside ``[0, n_nodes)`` is a ValueError.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n_nodes = _checked_n_nodes(n_nodes)
    m = np.ascontiguousarray(walks.matrix)  # centre sites index its flat layout
    # checked on the int32 matrix, before a narrow pair array could wrap it
    top = int(m.max(initial=-1))
    if top >= n_nodes:
        raise ValueError(f"walk node {top} is not a node index in [0, {n_nodes})")
    n_walks, length = m.shape
    offsets = range(1, min(window, length - 1) + 1)  # offsets that fit in a row
    rows = max(1, max(FREQ_CHUNK, n_nodes) // max(length, 1))
    # offset k's region starts at region[k]; written[k] is its next free slot
    region = np.cumsum([0] + [n_walks * (length - o) for o in offsets]).tolist()
    written = region[:-1]
    positions = np.empty(region[-1], dtype=np.min_scalar_type(max(length - 1, 0)))
    starts = np.empty(len(offsets) * n_walks, dtype=np.int32 if region[-1] <= INDEX_MAX else np.int64)
    freq = np.zeros(n_nodes)  # float64 sums of integers: exact below 2**53
    cols = np.broadcast_to(np.arange(length, dtype=positions.dtype), (rows, length))
    for at in range(0, n_walks, rows):
        block = m[at : at + rows]
        # how many kept pairs each walk position is in, at most 2 * len(offsets)
        in_pairs = np.zeros(block.shape, dtype=np.min_scalar_type(2 * len(offsets)))
        for k, o in enumerate(offsets):
            keep = _keep(block, o)
            in_pairs[:, :-o] += keep
            in_pairs[:, o:] += keep
            # the block's walks' kept centres, summed by einsum about twice
            # as fast as by count_nonzero, then their first ones' slots
            walk_end = np.cumsum(np.einsum("ij->i", keep, dtype=np.int32))
            first = starts[k * n_walks + at : k * n_walks + at + len(block)]
            first[0] = written[k]
            first[1:] = walk_end[:-1] + written[k]
            positions[written[k] : written[k] + walk_end[-1]] = cols[: len(block), :-o][keep]
            written[k] += int(walk_end[-1])
        # padding is in no pair, so its weight 0 may fall on node 0
        freq += np.bincount(np.maximum(block, 0).ravel(), in_pairs.ravel(), minlength=n_nodes)
    counts = [w - r for w, r in zip(written, region)]
    node_freq = 2 * freq.astype(np.int64)  # both directions
    return WalkCorpus(m, offsets, counts, region[:-1], positions, starts, node_freq, n_nodes)


def _keep(m: np.ndarray, o: int) -> np.ndarray:
    """Which (m[:, :-o], m[:, o:]) make a pair: the context is a node (padding
    only follows a walk, so then the center is one too) and differs from the
    center."""
    return (m[:, o:] >= 0) & (m[:, o:] != m[:, :-o])
