"""Sliding-window pair corpus and the alias table for noise negatives."""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperwalk.corpus import AliasTable, SampleCorpus, build_corpus, index_dtype
from hyperwalk.graph import TypedGraph
from hyperwalk.synthetic import two_block_graph
from hyperwalk.trainer import NOISE_EXPONENT
from hyperwalk.walk import WalkConfig, generate_walks
from tests.conftest import walks_of


def pair_set(c):
    return {(int(u), int(v)) for u, v in c.pairs}


def test_window_pairs_on_a_single_walk():
    c = build_corpus(walks_of([[0, 1, 2, 3]]), window=2, n_nodes=4)
    got = {(int(u), int(v)) for u, v in c.pairs}
    want = {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}
    assert got == want | {(v, u) for u, v in want}
    assert len(c) == 10  # ordered pairs, both directions


def test_window_one_keeps_only_adjacent_pairs():
    c = build_corpus(walks_of([[0, 1, 2]]), window=1, n_nodes=3)
    got = {(int(u), int(v)) for u, v in c.pairs}
    assert got == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_revisit_self_pairs_are_dropped():
    c = build_corpus(walks_of([[0, 1, 0]]), window=2, n_nodes=2)
    assert not any(u == v for u, v in c.pairs)
    assert pair_set(c) == {(0, 1), (1, 0)}


def test_multiplicities_are_kept():
    c = build_corpus(walks_of([[0, 1], [0, 1]]), window=5, n_nodes=2)
    assert len(c) == 4  # two walks x two directions


def test_node_freq_counts_pair_occurrences():
    c = build_corpus(walks_of([[0, 1, 2, 3]]), window=2, n_nodes=5)
    assert c.node_freq.tolist() == [int((c.pairs == i).sum()) for i in range(5)]
    assert c.node_freq[4] == 0


def test_build_corpus_rejects_bad_window():
    for window in (0, -1):
        with pytest.raises(ValueError, match="window"):
            build_corpus(walks_of([[0, 1, 2]]), window=window, n_nodes=3)


@pytest.mark.parametrize(
    "pairs, n_nodes, bad",
    [
        ([[0, 5]], 3, "5"),  # past the last node
        ([[-1, 0]], 3, "-1"),
        ([[0, 2**32 + 1]], 3, "4294967297"),  # would wrap to node 1 as int32
    ],
)
def test_sample_corpus_rejects_entries_that_are_not_nodes(pairs, n_nodes, bad):
    with pytest.raises(ValueError, match=rf"pair entry {bad} is not a node index"):
        SampleCorpus(np.array(pairs, dtype=np.int64), n_nodes)


def test_sample_corpus_rejects_more_nodes_than_int32_indexes():
    with pytest.raises(ValueError, match="n_nodes .* got 2147483648"):
        SampleCorpus(np.array([[0, 1]]), n_nodes=2**31)


@pytest.mark.parametrize("n_nodes, dtype", [(65_536, np.uint16), (65_537, np.int32)])
def test_corpus_pairs_take_the_narrowest_width_the_nodes_allow(n_nodes, dtype):
    top = n_nodes - 1  # 65,535 is uint16's largest value; 65,536 needs int32
    want = [[0, top], [top, 0]]
    assert index_dtype(n_nodes) is dtype
    built = build_corpus(walks_of([[0, top]]), window=1, n_nodes=n_nodes)
    for c in (SampleCorpus(np.array(want), n_nodes), built):
        assert c.pairs.dtype == dtype
        assert c.pairs.tolist() == want
        assert c.node_freq[top] == 2


def test_build_corpus_rejects_a_walk_node_past_n_nodes():
    # 65,536 would wrap to node 0 in a uint16 pair array
    with pytest.raises(ValueError, match="walk node 65536 is not a node index"):
        build_corpus(walks_of([[0, 65_536]]), window=1, n_nodes=65_536)


def test_corpus_build_traces_at_most_1_25_bytes_a_pair():
    # one uint8 position a forward pair is half a byte a pair; the slots of
    # dropped centres, the walk starts and a block's masks add the rest. The
    # int32 sites of a flat matrix index a pair took 2 bytes a pair, a
    # uint16 pair array 4, an int32 one 8.
    g = two_block_graph(np.random.default_rng(0))
    walks = generate_walks(g, WalkConfig(walks_per_node=10, walk_length=80, seed=0))
    tracemalloc.start()
    try:
        c = build_corpus(walks, window=5, n_nodes=g.n_nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(c) > 4_000_000
    assert c.positions.dtype == np.uint8 and c.starts.dtype == np.int32
    assert c.pairs.dtype == np.uint16
    assert c.matrix is walks.matrix  # held without a copy
    assert peak / len(c) <= 1.25
    # node_freq counted from the walk matrix, over several blocks of rows
    assert np.array_equal(c.node_freq, np.bincount(c.pairs.ravel(), minlength=g.n_nodes))


def in_block_coverage(g, corpus):
    """Fraction of the block-0 A-C pairs of a two-block layout that the corpus
    holds as positives. A and C are never adjacent, so this measures how far
    the window reaches beyond direct neighbourhoods."""
    A, C = g.nodes_of_type("A"), g.nodes_of_type("C")
    half_a, half_c = A[: A.size // 2], C[: C.size // 2]
    pairs = corpus.pairs.astype(np.int64)  # int32 codes u * n + v wrap past 46,340 nodes
    positives = np.unique(pairs[:, 0] * g.n_nodes + pairs[:, 1])
    block = (half_a[:, None] * g.n_nodes + half_c[None, :]).ravel()
    return float(np.isin(block, positives).mean()) if block.size else 0.0


def test_in_block_coverage_codes_pairs_without_wrapping():
    # 50,008 nodes with the A nodes last: an A index times n_nodes is past
    # 2**31, where an int32 code u * n + v would wrap
    labels = ["C"] * 4 + ["B"] * 50_000 + ["A"] * 4
    g = TypedGraph([(f"n{i}", t) for i, t in enumerate(labels)], [])
    a, c = g.nodes_of_type("A")[0], g.nodes_of_type("C")[0]
    assert a * g.n_nodes > np.iinfo(np.int32).max
    corpus = SampleCorpus(np.array([[a, c]]), g.n_nodes)
    # one of the 2 x 2 block-0 A-C pairs is a positive
    assert in_block_coverage(g, corpus) == 0.25


def test_in_block_coverage_grows_with_the_window_at_even_offsets():
    # A-C pairs sit at even walk offsets only (A-B-C), so window 1 reaches
    # none, window 3 adds nothing to window 2, and window 5 reaches further
    g = two_block_graph(np.random.default_rng(0))
    walks = generate_walks(g, WalkConfig(seed=0))
    cov = {
        w: in_block_coverage(g, build_corpus(walks, window=w, n_nodes=g.n_nodes))
        for w in (1, 2, 3, 5)
    }
    assert cov[1] == 0.0
    assert 0.0 < cov[2] == cov[3] < cov[5]

def test_alias_table_matches_weights():
    weights = np.array([1.0, 2.0, 3.0, 4.0])
    table = AliasTable(weights)
    rng = np.random.default_rng(3)
    n = 200_000
    draws = table.sample(rng, size=n)
    freq = np.bincount(draws, minlength=4) / n
    p = weights / weights.sum()
    se = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(freq - p) < 4 * se)


def test_alias_table_rejects_bad_weights():
    with pytest.raises(ValueError):
        AliasTable([])
    with pytest.raises(ValueError):
        AliasTable([0.0, 0.0])
    with pytest.raises(ValueError):
        AliasTable([1.0, -1.0])


def test_empty_corpus_rejects_sampling():
    c = build_corpus(walks_of([]), window=5, n_nodes=3)
    assert len(c) == 0 and c.pairs.shape == (0, 2)
    with pytest.raises(ValueError):
        AliasTable(c.node_freq ** NOISE_EXPONENT)  # all-zero noise weights


@given(seed=st.integers(0, 2**32 - 1), window=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_corpus_is_symmetric_and_self_free(seed, window):
    rng = np.random.default_rng(seed)
    walk = rng.integers(0, 6, size=int(rng.integers(2, 30))).tolist()
    c = build_corpus(walks_of([walk]), window=window, n_nodes=6)
    pairs = pair_set(c)
    for u, v in pairs:
        assert u != v
        assert (v, u) in pairs


def reference_build_corpus(walks, window: int) -> np.ndarray:
    """Per-walk pair extraction, self-pairs dropped, in build_corpus's order:
    for each offset, every walk's forward pairs, then every walk's reverse
    pairs."""
    forward = {}  # offset -> per-walk (centers, contexts)
    for w in walks:
        a = np.asarray(w, dtype=np.int64)
        for off in range(1, min(window, a.size - 1) + 1):
            x, y = a[:-off], a[off:]
            keep = x != y
            forward.setdefault(off, []).append((x[keep], y[keep]))
    us, vs = [], []
    for off in sorted(forward):
        x, y = (np.concatenate(side) for side in zip(*forward[off]))
        us.extend((x, y))
        vs.extend((y, x))
    if not us:
        return np.empty((0, 2), dtype=np.int64)
    return np.stack([np.concatenate(us), np.concatenate(vs)], axis=1)


# short walks over few nodes: length-1 walks, revisits (self-pairs) and
# windows at or beyond the walk length all occur; the empty set too
walk_sets = st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=12), max_size=8)


@given(walks=walk_sets, window=st.integers(1, 14), order=st.randoms(use_true_random=False))
@example(walks=[], window=3, order=random.Random(0))
@example(walks=[[2]], window=1, order=random.Random(0))  # walk length 1
@example(walks=[[0, 1, 0, 1, 1], [3, 4], [2]], window=9, order=random.Random(0))
@settings(max_examples=200, deadline=None)
def test_build_corpus_matches_the_per_walk_reference(walks, window, order):
    # the last example pads short walks, reaches past every walk and holds
    # revisit self-pairs at offsets 1 and 2
    c = build_corpus(walks_of(walks), window=window, n_nodes=5)
    want = reference_build_corpus(walks, window)
    assert c.pairs.dtype == index_dtype(5) == np.uint16
    assert np.array_equal(c.pairs, want)
    assert np.array_equal(c.node_freq, np.bincount(want.ravel(), minlength=5))
    # take decodes any draw of pair indices, repeats included, as pairs[idx]
    idx = np.array([order.randrange(len(want)) for _ in range(2 * len(want))], dtype=np.int64)
    got = c.take(idx)
    assert got.dtype == np.uint16 and got.shape == (idx.size, 2)
    assert np.array_equal(got, want[idx])


@pytest.mark.parametrize("index_max, dtype", [(8, np.int64), (9, np.int32)])
def test_starts_widen_to_int64_past_int32_position_slots(index_max, dtype):
    # offsets 1 and 2 of a 3 x 3 walk matrix take 3 x 2 + 3 x 1 = 9 position
    # slots: past an INDEX_MAX of 8, int32 starts would not index them all
    walks = [[0, 1, 2], [2, 1], [1, 2, 0]]
    with mock.patch("hyperwalk.corpus.INDEX_MAX", index_max):
        c = build_corpus(walks_of(walks), window=2, n_nodes=3)
    want = reference_build_corpus(walks, 2)
    assert c.positions.size == 9 and c.starts.dtype == dtype
    assert np.array_equal(c.pairs, want)
    assert np.array_equal(c.take(np.arange(len(want))[::-1]), want[::-1])


# walk lengths: empty rows (all padding), length-1 walks (a node without
# neighbours), and lengths about 256, where positions widen from uint8 to uint16
walk_sizes = st.lists(st.sampled_from([0, 0, 1, 1, 2, 7, 255, 256, 257, 300]), max_size=10)


@given(sizes=walk_sizes, window=st.sampled_from([1, 2, 5, 255, 256, 299, 300, 400]),
       seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([1, 3, 1 << 16]))
@example(sizes=[0, 0, 0, 7, 0, 0, 1, 1, 1, 7], window=5, seed=0, chunk=3)  # runs of walks without pairs
@example(sizes=[1, 256, 0], window=256, seed=1, chunk=1 << 16)  # the window reaches the walk length
@example(sizes=[257, 0, 300], window=400, seed=2, chunk=1 << 16)  # uint16 positions, window past L
@settings(max_examples=60, deadline=None)
def test_take_and_pairs_match_the_reference_on_long_and_empty_walks(sizes, window, seed, chunk):
    rng = np.random.default_rng(seed)
    # five nodes, so revisit self-pairs drop about one centre in five
    walks = [rng.integers(0, 5, size).tolist() for size in sizes]
    # a small FREQ_CHUNK decodes pairs in chunks that end inside and between blocks
    with mock.patch("hyperwalk.corpus.FREQ_CHUNK", chunk):
        c = build_corpus(walks_of(walks), window=window, n_nodes=5)
        pairs = c.pairs
    want = reference_build_corpus(walks, window)
    length = max(sizes, default=0)
    assert c.positions.dtype == (np.uint8 if length <= 256 else np.uint16)
    assert np.array_equal(pairs, want)
    idx = rng.integers(len(want), size=3 * len(want)) if len(want) else np.empty(0, np.int64)
    assert np.array_equal(c.take(idx), want[idx])


def test_take_rejects_indices_outside_the_corpus():
    # -1 must not decode as a pair of the first block, nor len(c) read past
    # the block table; pairs[-1] is (0, 2), the last reverse pair
    c = build_corpus(walks_of([[0, 1, 2, 1, 0], [2, 0]]), window=2, n_nodes=3)
    assert len(c) == 14 and c.pairs[-1].tolist() == [0, 2]
    for bad in (-1, len(c)):
        with pytest.raises(IndexError, match=rf"pair index {bad} is out of range .* 14 pairs"):
            c.take(np.array([3, bad, 0]))
    assert c.take(np.empty(0, dtype=np.int64)).shape == (0, 2)
    empty = build_corpus(walks_of([]), window=2, n_nodes=3)
    assert empty.take(np.empty(0, dtype=np.int64)).shape == (0, 2)
    with pytest.raises(IndexError, match="pair index 0 is out of range .* 0 pairs"):
        empty.take(np.array([0]))


@given(walks=st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=80), max_size=6),
       window=st.sampled_from([1, 2, 5, 64, 79, 100]), chunk=st.sampled_from([1, 50, 1 << 16]))
@settings(max_examples=100, deadline=None)
def test_node_freq_from_the_walks_equals_the_count_over_pairs(walks, window, chunk):
    # a small FREQ_CHUNK counts the walk matrix a row or a few at a time
    with mock.patch("hyperwalk.corpus.FREQ_CHUNK", chunk):
        c = build_corpus(walks_of(walks), window=window, n_nodes=10)
    want = np.bincount(c.pairs.ravel(), minlength=10)
    assert c.node_freq.dtype == np.int64 and np.array_equal(c.node_freq, want)
    assert np.array_equal(SampleCorpus(c.pairs, 10).node_freq, want)


@pytest.mark.parametrize("length, window", [(80, 64), (80, 79), (300, 200), (300, 299)])
def test_node_freq_counts_positions_in_more_pairs_than_a_byte_holds(length, window):
    # a middle position of a walk of distinct nodes is in up to length - 1
    # pairs, 299 at length 300: past int8 and uint8
    c = build_corpus(walks_of([list(range(length))] * 3), window=window, n_nodes=length)
    want = np.bincount(c.pairs.ravel(), minlength=length)
    assert np.array_equal(c.node_freq, want)
    assert want.max() == 6 * min(2 * window, length - 1)
