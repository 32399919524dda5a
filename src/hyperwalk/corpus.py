"""Positive-pair corpus and the frequency table for noise negatives.

A sliding window over each walk emits ordered pairs (center, context) in
both directions, with multiplicities kept and self-pairs dropped.
:func:`build_corpus` takes the pairs straight from the padded walk matrix
of a :class:`~hyperwalk.walk.Walks`, a chunk of walks at a time, into one
preallocated pair array: about 9M pairs in 0.3 s from 1 x 40 walks on the
DBLP-shaped graph.

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

# pair slots (walks x offsets x positions) per chunk of build_corpus: 16 MB
# of int32 pairs in both directions
_CHUNK_SLOTS = 1 << 20


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
    """Multiset of positive pairs plus the frequency table for negatives."""

    def __init__(self, pairs: np.ndarray, n_nodes: int):
        self.pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.n_nodes = int(n_nodes)
        self.node_freq = np.bincount(self.pairs.ravel(), minlength=self.n_nodes)

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
    revisit self-pairs (v, v) are dropped. Pairs come in the order (walk,
    offset j - i, forward (v_i, v_j) then reverse (v_j, v_i), position i).
    The walk matrix is read a chunk of rows at a time, once to count the
    pairs and once to write them into one preallocated array.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    m = walks.matrix
    k = min(window, m.shape[1] - 1)  # offsets that fit in a row
    if k < 1:
        return SampleCorpus(np.empty((0, 2), dtype=np.int64), n_nodes)
    rows = max(1, _CHUNK_SLOTS // (k * m.shape[1]))
    chunks = [m[lo : lo + rows] for lo in range(0, len(m), rows)]
    pairs = np.empty((sum(2 * np.count_nonzero(_windows(c, k)[2]) for c in chunks), 2), dtype=np.int64)
    at = 0
    for c in chunks:
        x, y, keep = _windows(c, k)
        # (walk, offset, direction, position, 2); each pair read as one 8-byte
        # item, so that one boolean mask compresses whole pairs in that order
        both = np.empty((*y.shape[:2], 2, y.shape[2], 2), dtype=np.int32)
        both[:, :, 0, :, 0] = both[:, :, 1, :, 1] = x
        both[:, :, 0, :, 1] = both[:, :, 1, :, 0] = y
        items = both.view(np.int64)[..., 0]
        got = items[np.repeat(keep[:, :, None], 2, axis=2)].view(np.int32).reshape(-1, 2)
        pairs[at : at + len(got)] = got
        at += len(got)
    return SampleCorpus(pairs, n_nodes)


def _windows(rows: np.ndarray, k: int):
    """Centers x ``(walks, 1, L)``, contexts y ``(walks, k, L)`` at offsets
    1..k, and which (x, y) make a pair: y is a node and differs from x."""
    L = rows.shape[1]
    padded = np.pad(rows, ((0, 0), (0, k)), constant_values=-1)  # padding only follows a walk
    x = rows[:, None, :]
    y = np.lib.stride_tricks.sliding_window_view(padded[:, 1:], L, axis=1)
    return x, y, (y >= 0) & (x != y)
