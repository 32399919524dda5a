"""Riemannian SGD trainer: loss oracle, gradients, descent, determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from hyperwalk import lorentz, seeding, trainer
from hyperwalk.corpus import AliasTable, SampleCorpus, build_corpus
from hyperwalk.graph import GraphError, TypedGraph, load_graph
from hyperwalk.seeding import substream
from hyperwalk.synthetic import dblp_shaped_graph, two_block_graph
from hyperwalk.trainer import (
    TrainConfig,
    init_embeddings,
    load_embeddings_for_graph,
    train,
)
from hyperwalk.walk import WalkConfig, generate_walks
from tests.conftest import (
    on_manifold,
    pair_gradients,
    pair_loss,
    random_point,
    random_points,
    walks_of,
)


def point_at(direction, length):
    """Hyperboloid point at the given arc length from the origin."""
    d = len(direction)
    u = np.zeros(d + 1)
    u[:d] = length * np.asarray(direction) / np.linalg.norm(direction)
    return lorentz.exp_map(lorentz.origin(d), u)


# --- pair loss and softmax ------------------------------------------------


def test_pair_loss_coincident_positive_one_distant_negative():
    # positive at distance 0 (score 0), negative at distance 2 (score -4):
    # loss = -log( e^0 / (e^0 + e^-4) ) = log(1 + e^-4)
    e_u = lorentz.origin(2)
    neg = point_at([1.0, 0.0], 2.0)
    loss = pair_loss(e_u, e_u.copy(), [neg])
    assert loss == pytest.approx(np.log(1 + np.exp(-4.0)), abs=1e-10)


def test_pair_loss_no_negatives_is_zero():
    e_u = point_at([1.0, 1.0], 0.7)
    assert pair_loss(e_u, e_u.copy()) == pytest.approx(0.0, abs=1e-12)


def test_pair_weights_sum_to_one_and_prefer_near_candidates():
    # _pair_terms' softmax weights over one pair's candidates, feature-major:
    # a candidate's weight is exp(-loss) with that candidate placed first
    e_u = lorentz.origin(2)
    near = point_at([1.0, 0.0], 0.5)
    far = point_at([0.0, 1.0], 2.5)
    W = np.stack([near, far], axis=1)[:, None, :]  # (n+1, B=1, K=2)
    loss, _, _ = trainer._pair_terms(e_u[:, None], W)
    swapped, _, _ = trainer._pair_terms(e_u[:, None], W[:, :, ::-1])
    assert loss.shape == swapped.shape == (1,)
    p = np.exp(-np.concatenate([loss, swapped]))  # the weights of near and far
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p[0] > p[1]


def test_pair_loss_decreases_as_positive_approaches():
    neg = point_at([0.0, 1.0], 1.5)
    e_u = lorentz.origin(2)
    losses = [pair_loss(e_u, point_at([1.0, 0.0], r), [neg]) for r in (2.0, 1.0, 0.25)]
    assert losses[0] > losses[1] > losses[2]


# --- the feature-major batch kernels against row-major references ---------


def row_major_pair_terms(U, W):
    """The row-major batch formula of ``_pair_terms``: U (B, n+1) anchors,
    W (B, K, n+1) candidates, gradients (B, n+1) and (B, K, n+1)."""
    inner = np.einsum("bd,bkd->bk", U[:, :-1], W[:, :, :-1]) - U[:, -1:] * W[:, :, -1]
    a = np.clip(-inner, 1.0, None)
    d = lorentz._arccosh(a)
    s = -d * d
    m = s.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(s - m), axis=1))
    loss = lse - s[:, 0]
    p = np.exp(s - lse[:, None])
    coeff = -p
    coeff[:, 0] += 1.0
    c = coeff * trainer._sq_dist_grad_factor(d)
    grad_u = -np.einsum("bk,bkd->bd", c, W)
    grad_w = -c[:, :, None] * U[:, None, :]
    return loss, grad_u, grad_w


def assert_close_to(actual, reference, rtol):
    # relative to the array's largest entry: a gradient sum may cancel to ~0
    np.testing.assert_allclose(actual, reference, rtol=rtol, atol=rtol * np.abs(reference).max())


@pytest.mark.parametrize("d", [2, 3, 10])
@pytest.mark.parametrize("batch", [512, 37])  # a full and a partial batch
def test_feature_major_pair_terms_match_the_row_major_formula(d, batch):
    rng = np.random.default_rng(d * 1000 + batch)
    k = 6
    U = random_points(rng, batch, d, scale=2.0)
    W = random_points(rng, batch * k, d, scale=2.0).reshape(batch, k, d + 1)
    W[0, 0] = U[0]  # a coincident pair: its distance takes the d < 1e-7 branch
    assert lorentz.hyperbolic_distance(U[0], W[0, 0]) < 1e-7
    ref = row_major_pair_terms(U, W)
    loss, grad_u, neg_c = trainer._pair_terms(
        np.ascontiguousarray(U.T), np.ascontiguousarray(W.transpose(2, 0, 1))
    )
    grad_w = neg_c * U.T[:, :, None]  # candidate (b, k)'s gradient is -c[b, k] * U[b]
    assert grad_u.shape == (d + 1, batch) and grad_w.shape == (d + 1, batch, k)
    assert_close_to(loss, ref[0], 1e-12)
    assert_close_to(grad_u.T, ref[1], 1e-12)
    assert_close_to(grad_w.transpose(1, 2, 0), ref[2], 1e-12)
    assert np.all(np.isfinite(grad_u[:, 0])) and np.all(np.isfinite(grad_w[:, 0, 0]))


def plain_pair_terms(U, W):
    """``_pair_terms`` as plain expressions, one new array per step: the
    reference its in-place version must match bit for bit."""
    inner = np.einsum("db,dbk->bk", U[:-1], W[:-1]) - U[-1][:, None] * W[-1]
    a = np.clip(-inner, 1.0, None)
    d = lorentz._arccosh(a)
    s = -d * d
    m = s.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(s - m), axis=1))
    loss = lse - s[:, 0]
    p = np.exp(s - lse[:, None])
    coeff = -p
    coeff[:, 0] += 1.0
    small = d < 1e-7
    safe = np.where(small, 1.0, d)
    c = coeff * np.where(small, 2.0, 2.0 * safe / np.sinh(safe))
    grad_u = -np.einsum("bk,dbk->db", c, W)
    return loss, grad_u, -c


def feature_major_batch(seed, batch, k, d=10):
    """Feature-major anchors (d+1, batch) and candidates (d+1, batch, k), with
    coincident pairs that take the d < 1e-7 branch."""
    rng = np.random.default_rng(seed)
    U = lorentz.normalize(rng.normal(size=(batch, d + 1))).T.copy()
    W = lorentz.normalize(rng.normal(size=(batch * k, d + 1))).T.reshape(d + 1, batch, k).copy()
    W[:, : batch // 7, 0] = U[:, : batch // 7]
    W[:, -1, -1] = U[:, -1]
    return U, W


@pytest.mark.parametrize("batch, k", [(512, 21), (37, 6), (1, 1)])
def test_pair_terms_equal_the_plain_expressions_bit_for_bit(batch, k):
    U, W = feature_major_batch(batch * 100 + k, batch, k)
    for got, want in zip(trainer._pair_terms(U, W), plain_pair_terms(U, W)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_pair_terms_hold_at_most_five_batch_arrays_at_once():
    # B = 8192 pairs against K = 20 negatives plus the partner: the plain
    # expressions peak at about nine (B, K + 1) float64 arrays, 12.2 MiB
    batch, k = 8192, 21
    U, W = feature_major_batch(0, batch, k)
    tracemalloc.start()
    try:
        trainer._pair_terms(U, W)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * batch * k * 8


@pytest.mark.parametrize("d", [2, 3, 10])
def test_update_kernels_agree_on_c_order_and_feature_major_views(d):
    # train hands lorentz (rows, n+1) transposed views of (n+1, rows) blocks
    rng = np.random.default_rng(d)
    rows = 300
    x = random_points(rng, rows, d, scale=2.0)
    # steps of train's size, |step| < 2: exp_map scales a rounding difference
    # in |step| by up to cosh(|step|), so long steps would need a looser bound
    g = rng.normal(size=(rows, d + 1)) * 0.05
    g[7] = 0.0  # a zero step takes exp_map's small-r branch
    xf, gf = np.ascontiguousarray(x.T).T, np.ascontiguousarray(g.T).T
    assert xf.flags.f_contiguous and not xf.flags.c_contiguous

    step = lorentz.project_to_tangent(x, g)
    step_f = lorentz.project_to_tangent(xf, gf)
    assert_close_to(step_f, step, 1e-15)
    moved = lorentz.exp_map(x, step)
    moved_f = lorentz.exp_map(xf, step_f)
    assert_close_to(moved_f, moved, 1e-15)
    assert np.array_equal(moved_f[7], x[7])
    normalized = lorentz.normalize(moved)
    before = moved_f.copy()
    normalized_f = lorentz.normalize(moved_f)
    assert_close_to(normalized_f, normalized, 1e-15)
    assert np.array_equal(moved_f, before)  # the input is left as it was
    assert normalized_f.flags.f_contiguous  # and its memory order is kept
    assert lorentz.normalize(moved).flags.c_contiguous


# --- gradients ------------------------------------------------------------


def geodesic_fd(f, x, eps=1e-5):
    """Finite-difference tangent gradient of f at x along a tangent basis."""
    d = x.size - 1
    basis = []
    for i in range(d + 1):
        e = np.zeros(d + 1)
        e[i] = 1.0
        h = lorentz.project_to_tangent(x, e)
        for b in basis:
            h = h - lorentz.minkowski_inner(h, b) * b
        n = lorentz.minkowski_inner(h, h)
        if n > 1e-12:
            basis.append(h / np.sqrt(n))
    grad = np.zeros(d + 1)
    for b in basis:
        df = (f(lorentz.exp_map(x, eps * b)) - f(lorentz.exp_map(x, -eps * b))) / (2 * eps)
        grad += df * b
    return grad


def test_pair_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for d in (2, 5):
        e_u = random_point(rng, d)
        e_v = random_point(rng, d)
        negs = [random_point(rng, d) for _ in range(3)]
        gu, gv, gn = pair_gradients(e_u, e_v, negs)
        fd_u = geodesic_fd(lambda x: pair_loss(x, e_v, negs), e_u)
        np.testing.assert_allclose(gu, fd_u, rtol=1e-4, atol=1e-7)
        fd_v = geodesic_fd(lambda x: pair_loss(e_u, x, negs), e_v)
        np.testing.assert_allclose(gv, fd_v, rtol=1e-4, atol=1e-7)
        for i in range(3):
            def f(x, i=i):
                ns = list(negs)
                ns[i] = x
                return pair_loss(e_u, e_v, ns)
            np.testing.assert_allclose(gn[i], geodesic_fd(f, negs[i]), rtol=1e-4, atol=1e-7)


def test_gradients_are_tangent():
    rng = np.random.default_rng(12)
    e_u, e_v = random_point(rng, 4), random_point(rng, 4)
    negs = [random_point(rng, 4) for _ in range(2)]
    gu, gv, gn = pair_gradients(e_u, e_v, negs)
    assert abs(lorentz.minkowski_inner(e_u, gu)) < 1e-9
    assert abs(lorentz.minkowski_inner(e_v, gv)) < 1e-9
    for x, g in zip(negs, gn):
        assert abs(lorentz.minkowski_inner(x, g)) < 1e-9


def test_coincident_pair_gradient_is_finite():
    e_u = lorentz.origin(3)
    gu, gv, _ = pair_gradients(e_u, e_u.copy(), [point_at([1, 0, 0], 1.0)])
    assert np.all(np.isfinite(gu)) and np.all(np.isfinite(gv))


def test_single_pair_descent_reaches_stationarity():
    # repeated steps on one positive pair with fixed negatives strictly
    # decrease the loss until within 1e-6 of a stationary point
    rng = np.random.default_rng(13)
    e_u, e_v = random_point(rng, 2, 1.5), random_point(rng, 2, 1.5)
    negs = [random_point(rng, 2, 1.5) for _ in range(3)]
    lr = 0.1
    prev = pair_loss(e_u, e_v, negs)
    for _ in range(2000):
        gu, gv, _ = pair_gradients(e_u, e_v, negs)
        e_u = lorentz.normalize(lorentz.exp_map(e_u, -lr * gu))
        e_v = lorentz.normalize(lorentz.exp_map(e_v, -lr * gv))
        cur = pair_loss(e_u, e_v, negs)
        assert cur < prev
        if prev - cur < 1e-6:
            break
        prev = cur
    else:
        pytest.fail("did not approach a stationary point in 2000 steps")


# --- embedding table and init --------------------------------------------


def test_init_embeddings_near_origin_on_manifold(tiny_hetero):
    emb = init_embeddings(tiny_hetero, 5, 1e-3, np.random.default_rng(0))
    assert emb.coords.shape == (6, 6)
    assert emb.dim == 5 and emb.n_nodes == 6
    assert on_manifold(emb.coords)
    assert np.all(np.abs(emb.coords[:, :-1]) <= 1e-3)
    with pytest.raises(ValueError):
        init_embeddings(tiny_hetero, 1, 1e-3, np.random.default_rng(0))


def test_embedding_tsv_roundtrip(tiny_hetero, tmp_path):
    emb = init_embeddings(tiny_hetero, 3, 0.5, np.random.default_rng(1))
    path = tmp_path / "emb.tsv"
    tiny_hetero.save_nodes(path, emb.coords)
    again = load_embeddings_for_graph(path, tiny_hetero)
    np.testing.assert_array_equal(again.coords, emb.coords)  # full precision
    first = path.read_text().splitlines()[0].split("\t")
    assert first[0] == "a0" and first[1] == "author" and len(first) == 2 + 4


def test_embedding_file_with_a_duplicated_id_is_rejected(tiny_hetero, tmp_path):
    emb = init_embeddings(tiny_hetero, 3, 0.5, np.random.default_rng(1))
    path = tmp_path / "emb.tsv"
    tiny_hetero.save_nodes(path, emb.coords)
    lines = path.read_text().splitlines()
    lines[1] = lines[0]  # right row count, one id twice and one missing
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="emb.tsv"):
        load_embeddings_for_graph(path, tiny_hetero)


def test_short_embedding_file_is_rejected(tiny_hetero, tmp_path):
    emb = init_embeddings(tiny_hetero, 3, 0.5, np.random.default_rng(1))
    path = tmp_path / "emb.tsv"
    tiny_hetero.save_nodes(path, emb.coords)
    path.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")  # drops a0
    with pytest.raises(ValueError, match="emb.tsv"):
        load_embeddings_for_graph(path, tiny_hetero)


def test_padded_fields_load_from_node_and_embedding_files_alike(tmp_path):
    g = TypedGraph([("a0", "A"), ("b0", "B")], [(0, 1)])
    table = init_embeddings(g, 2, 0.5, np.random.default_rng(0))
    nodes, edges, path = tmp_path / "nodes.tsv", tmp_path / "edges.tsv", tmp_path / "emb.tsv"
    g.save_nodes(path, table.coords)
    rows = path.read_text().splitlines()
    nodes.write_text(" a0 \tA \n b0\t B\n")
    path.write_text(" a0 \tA \t" + rows[0].split("\t", 2)[2] + "\n b0\t B\t"
                    + rows[1].split("\t", 2)[2] + "\n")
    edges.write_text("a0\tb0\n")
    loaded = load_graph(nodes, edges)
    assert loaded.node_ids == ["a0", "b0"]
    np.testing.assert_array_equal(load_embeddings_for_graph(path, loaded).coords, table.coords)


@pytest.mark.parametrize(
    "row, message",
    [("x9\tauthor", "emb.tsv:3: unknown node id 'x9'"),
     ("a0\tauthor", "emb.tsv:3: repeated node id 'a0'")],
)
def test_unknown_or_repeated_embedding_id_names_its_line(tiny_hetero, tmp_path, row, message):
    emb = init_embeddings(tiny_hetero, 3, 0.5, np.random.default_rng(1))
    path = tmp_path / "emb.tsv"
    tiny_hetero.save_nodes(path, emb.coords)
    lines = path.read_text().splitlines()
    lines[1:2] = ["", row + "\t" + lines[1].split("\t", 2)[2]]  # a blank line 2, the row on line 3
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GraphError, match=message):
        load_embeddings_for_graph(path, tiny_hetero)


def test_embedding_file_of_bare_ids_names_its_first_line(tiny_hetero, tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("a0\na1\n")  # no label and no coordinates
    with pytest.raises(GraphError, match="emb.tsv:1: node 'a0' is of type 'author' in the graph, not ''"):
        load_embeddings_for_graph(path, tiny_hetero)


def test_embedding_file_skips_blank_and_comment_lines(tiny_hetero, tmp_path):
    emb = init_embeddings(tiny_hetero, 3, 0.5, np.random.default_rng(1))
    path = tmp_path / "emb.tsv"
    tiny_hetero.save_nodes(path, emb.coords)
    lines = path.read_text().splitlines()
    path.write_text("# header\n" + "\n".join(lines[:3] + [""] + lines[3:]) + "\n\n")
    np.testing.assert_array_equal(load_embeddings_for_graph(path, tiny_hetero).coords, emb.coords)


@pytest.mark.parametrize(
    "coords, message",
    [
        ("0\t0\t1", "emb.tsv:3: 5 fields, the first row has 6"),
        ("0\t0\t0\t1\t0", "emb.tsv:3: 7 fields, the first row has 6"),
        ("x\t0\t0\t1", "emb.tsv:3: a coordinate is not a number"),
        ("nan\t0\t0\t1", "emb.tsv:3: a coordinate is not finite"),
        ("0\t0\t0\tinf", "emb.tsv:3: a coordinate is not finite"),
        # <x,x>_M + 1 is 1.0 at time coordinate 0, 25.0 here, and 0 on the lower sheet
        ("0\t0\t0\t0", "emb.tsv:3: the point is not on the hyperboloid"),
        ("3\t4\t0\t1", "emb.tsv:3: the point is not on the hyperboloid"),
        ("0\t0\t0\t-1", "emb.tsv:3: the point is not on the hyperboloid"),
    ],
)
def test_malformed_embedding_row_names_its_line(tiny_hetero, tmp_path, coords, message):
    emb = init_embeddings(tiny_hetero, 3, 0.5, np.random.default_rng(1))
    path = tmp_path / "emb.tsv"
    tiny_hetero.save_nodes(path, emb.coords)
    lines = path.read_text().splitlines()
    lines[1:2] = ["", "a1\tauthor\t" + coords]  # a blank line 2, the a1 row on line 3
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GraphError, match=message):
        load_embeddings_for_graph(path, tiny_hetero)


def test_embedding_row_must_carry_the_graphs_type_label(tmp_path):
    g = TypedGraph([("a", "A"), ("b", "B"), ("c", "B")], [(0, 1), (0, 2)])
    path = tmp_path / "emb.tsv"
    g.save_nodes(path, init_embeddings(g, 2, 0.5, np.random.default_rng(0)).coords)
    path.write_text(path.read_text().replace("\tB\t", "\tvenue\t"))  # b and c relabelled
    with pytest.raises(GraphError, match="emb.tsv:2: node 'b' is of type 'B' in the graph, not 'venue'"):
        load_embeddings_for_graph(path, g)


def test_trained_and_far_out_points_load_bit_exactly(trained, tmp_path):
    g, corpus, cfg = trained
    table, _ = train(g, corpus, cfg, dim=2)
    table.coords[1] = [np.sinh(40.0), 0.0, np.cosh(40.0)]  # radius 40
    path = tmp_path / "emb.tsv"
    g.save_nodes(path, table.coords)
    np.testing.assert_array_equal(load_embeddings_for_graph(path, g).coords, table.coords)


# --- training loop --------------------------------------------------------


@pytest.fixture
def trained(triangle):
    walks = [[0, 1, 2, 0, 1], [1, 2, 0, 1, 2], [2, 0, 1, 2, 0]] * 4
    corpus = build_corpus(walks_of(walks), window=2, n_nodes=3)
    cfg = TrainConfig(lr=0.1, batch_size=8, epochs=3, negatives_per_positive=2, seed=0)
    return triangle, corpus, cfg


def test_train_output_shape_and_history(trained):
    g, corpus, cfg = trained
    table, history = train(g, corpus, cfg, dim=2)
    assert table.coords.shape == (3, 3)
    assert len(history) == cfg.epochs
    assert all({"epoch", "mean_loss", "wall_time_s"} <= set(h) for h in history)
    assert on_manifold(table.coords)


def test_train_is_deterministic(trained):
    g, corpus, cfg = trained
    t1, _ = train(g, corpus, cfg, dim=3)
    t2, _ = train(g, corpus, cfg, dim=3)
    np.testing.assert_array_equal(t1.coords, t2.coords)
    t3, _ = train(g, corpus, TrainConfig(lr=0.1, batch_size=8, epochs=3,
                                         negatives_per_positive=2, seed=1), dim=3)
    assert not np.array_equal(t1.coords, t3.coords)


def test_manifold_drift_stays_small(trained):
    g, corpus, cfg = trained
    _, history = train(g, corpus, cfg, dim=2)
    assert all(0.0 <= h["max_manifold_drift"] < 1e-6 for h in history)


def test_train_rejects_empty_corpus(triangle):
    corpus = build_corpus(walks_of([]), window=2, n_nodes=3)
    with pytest.raises(ValueError):
        train(triangle, corpus, TrainConfig(), dim=2)


def test_train_rejects_a_corpus_over_another_node_count(triangle):
    # train's gathers do no bounds check of their own: a corpus node past
    # the graph would read a clipped row
    corpus = build_corpus(walks_of([[0, 1, 3]]), window=2, n_nodes=4)
    with pytest.raises(ValueError, match="corpus indexes 4 nodes, the graph has 3"):
        train(triangle, corpus, TrainConfig(), dim=2)


def test_explicit_and_walk_corpora_train_the_same():
    # the walk corpus decodes each batch's draws off the walk matrix; the
    # explicit one gathers rows of its materialised pairs
    g = two_block_graph(np.random.default_rng(1))
    walks = generate_walks(g, WalkConfig(walks_per_node=2, walk_length=10, seed=1))
    corpus = build_corpus(walks, window=3, n_nodes=g.n_nodes)
    explicit = SampleCorpus(corpus.pairs, g.n_nodes)
    assert np.array_equal(explicit.node_freq, corpus.node_freq)
    cfg = TrainConfig(batch_size=100, epochs=2, negatives_per_positive=4, seed=3)
    assert len(corpus) % cfg.batch_size != 0  # a partial last batch
    (t1, h1), (t2, h2) = (train(g, c, cfg, dim=3) for c in (corpus, explicit))
    assert np.array_equal(t1.coords, t2.coords)
    for a, b in zip(h1, h2, strict=True):
        assert {key: a[key] for key in a if key != "wall_time_s"} == {
            key: b[key] for key in b if key != "wall_time_s"}


def test_training_pulls_linked_nodes_together():
    # two cliques joined by nothing: in-clique distances should end up
    # smaller than cross-clique distances
    nodes = [(f"n{i}", "t") for i in range(6)]
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = TypedGraph(nodes, edges)
    walks = generate_walks(g, WalkConfig(walks_per_node=8, walk_length=10, seed=0))
    corpus = build_corpus(walks, window=2, n_nodes=6)
    cfg = TrainConfig(lr=0.2, batch_size=64, epochs=8, negatives_per_positive=3, seed=0)
    table, history = train(g, corpus, cfg, dim=2)
    assert history[-1]["mean_loss"] < history[0]["mean_loss"]
    within = lorentz.hyperbolic_distance(table.coords[0], table.coords[1])
    across = lorentz.hyperbolic_distance(table.coords[0], table.coords[3])
    assert within < across


def test_noise_collision_share_counts_draws_equal_to_anchor_or_partner():
    # one edge, two nodes: every noise draw is the anchor or its partner
    g = TypedGraph([("a", "A"), ("b", "B")], [(0, 1)])
    corpus = build_corpus(walks_of([[0, 1, 0, 1]]), window=1, n_nodes=2)
    cfg = TrainConfig(batch_size=2, epochs=2, negatives_per_positive=3, seed=0)
    _, history = train(g, corpus, cfg, dim=2)
    assert [h["noise_collision_share"] for h in history] == [1.0, 1.0]


def test_an_epoch_draws_as_many_pairs_as_the_corpus_holds(trained, monkeypatch):
    g, corpus, _ = trained
    cfg = TrainConfig(lr=0.1, batch_size=10, epochs=1, negatives_per_positive=2)
    assert len(corpus) % cfg.batch_size != 0  # a partial last batch
    batch_sizes = []
    pair_terms = trainer._pair_terms

    def counted(U, W):
        batch_sizes.append(U.shape[1])
        return pair_terms(U, W)

    monkeypatch.setattr(trainer, "_pair_terms", counted)
    train(g, corpus, cfg, dim=2)
    assert len(batch_sizes) == math.ceil(len(corpus) / cfg.batch_size)
    assert sum(batch_sizes) == len(corpus)
    assert batch_sizes[-1] == len(corpus) % cfg.batch_size
    assert set(batch_sizes[:-1]) == {cfg.batch_size}


class StopTraining(Exception):
    pass


def traced_peak_until_noise_draw(monkeypatch, g, corpus, cfg, dim, draws):
    """tracemalloc peak of ``train`` stopped as it asks for noise draw number ``draws``."""
    sample = AliasTable.sample
    calls = []

    def stop_at_draw(self, rng, size):
        calls.append(size)
        if len(calls) == draws:
            raise StopTraining
        return sample(self, rng, size)

    monkeypatch.setattr(AliasTable, "sample", stop_at_draw)
    tracemalloc.start()
    try:
        with pytest.raises(StopTraining):
            train(g, corpus, cfg, dim=dim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_train_allocates_nothing_as_long_as_the_corpus(monkeypatch):
    # criterion 6's 4.06M-pair corpus, stopped at its fifth noise draw: an
    # int32 index over the pairs alone would trace 15.5 MiB
    g = two_block_graph(np.random.default_rng(0))
    walks = generate_walks(g, WalkConfig(walks_per_node=10, walk_length=80, seed=0))
    corpus = build_corpus(walks, window=5, n_nodes=g.n_nodes)
    assert len(corpus) > 4_000_000
    peak = traced_peak_until_noise_draw(monkeypatch, g, corpus, TrainConfig(seed=0), 10, draws=5)
    assert peak < 8 * 2**20


def test_a_large_batch_holds_no_candidate_gradient_array(monkeypatch):
    # DBLP shape at batch 8192, stopped at its fourth noise draw: each of
    # the (dim + 1, B, K + 1) float64 candidate gradients and their
    # concatenation with the anchors' would take 14.4-15.1 MiB more
    g = dblp_shaped_graph(np.random.default_rng(5))
    walks = generate_walks(g, WalkConfig(walks_per_node=1, walk_length=6, seed=5))
    corpus = build_corpus(walks, window=5, n_nodes=g.n_nodes)
    cfg = TrainConfig(batch_size=8192, seed=0)
    peak = traced_peak_until_noise_draw(monkeypatch, g, corpus, cfg, 10, draws=4)
    assert peak < 64 * 2**20, f"train peaked at {peak / 2**20:.1f} MiB"


# --- the dense scatter the trainer used before it summed touched rows only ---


def dense_scatter_train(g, corpus, cfg, dim):
    """Reference: train's batch loop, with its feature-major blocks and its
    ``_pair_terms`` and ``lorentz`` calls, but a (dim + 1, n_nodes) scatter
    array and n_nodes-long bincounts per batch, plus a pair-by-pair count of
    noise collisions. Returns (row-major coords, history without wall_time_s)."""
    init = init_embeddings(g, dim, trainer.INIT_SCALE, substream(cfg.seed, seeding.INIT))
    coords = np.ascontiguousarray(init.coords.T)
    neg_rng = substream(cfg.seed, seeding.NEGATIVES)
    pair_rng = substream(cfg.seed, seeding.PAIRS)
    k = cfg.negatives_per_positive
    noise = AliasTable(corpus.node_freq ** trainer.NOISE_EXPONENT)
    pairs = corpus.pairs
    history = []
    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        max_drift = 0.0
        collisions = 0
        for b0 in range(0, len(pairs), cfg.batch_size):
            idx = pair_rng.integers(len(pairs), size=min(cfg.batch_size, len(pairs) - b0))
            u_idx = pairs[idx, 0]
            v_idx = pairs[idx, 1]
            negs = noise.sample(neg_rng, size=(idx.size, k))
            for u, v, row in zip(u_idx, v_idx, negs):
                collisions += sum(n in (u, v) for n in row)
            w_idx = np.concatenate([v_idx[:, None], negs], axis=1)
            # np.take, as train gathers: coords[:, idx] lays a block out in
            # another memory order, and the kernels' sums round by layout
            U = np.take(coords, u_idx, axis=1)
            W = np.take(coords, w_idx, axis=1)
            loss, grad_u, neg_c = trainer._pair_terms(U, W)
            grad_w = neg_c * U[:, :, None]
            flat_idx = np.concatenate([u_idx, w_idx.ravel()])
            flat_grad = np.concatenate([grad_u, grad_w.reshape(dim + 1, -1)], axis=1)
            acc_full = np.empty((dim + 1, g.n_nodes))
            for j in range(dim + 1):
                acc_full[j] = np.bincount(flat_idx, weights=flat_grad[j], minlength=g.n_nodes)
            counts = np.bincount(flat_idx, minlength=g.n_nodes)
            touched = np.flatnonzero(counts)
            acc = np.take(acc_full, touched, axis=1) / counts[touched]
            x = np.take(coords, touched, axis=1)
            step = lorentz.project_to_tangent(x.T, -cfg.lr * acc.T)
            moved = lorentz.exp_map(x.T, step)
            normalized = lorentz.normalize(moved)
            drift = np.abs(normalized[:, -1] ** 2 - moved[:, -1] ** 2)
            max_drift = max(max_drift, float(drift.max()))
            coords[:, touched] = normalized.T
            loss_sum += float(loss.sum())
        history.append(
            {
                "epoch": epoch,
                "mean_loss": loss_sum / len(pairs),
                "max_manifold_drift": max_drift,
                "noise_collision_share": collisions / (len(pairs) * k),
            }
        )
    return coords.T, history


def test_train_matches_dense_scatter_reference():
    # hub a0 sits in most windows, so it appears many times in each batch;
    # a9, b30 and c0 have no edge, so no pair or noise draw touches them
    nodes = [(f"a{i}", "A") for i in range(10)] + [(f"b{i}", "B") for i in range(31)]
    nodes += [("c0", "C")]
    edges = [(0, 10 + i) for i in range(24)]
    edges += [(1 + i % 8, 10 + (7 * i) % 24) for i in range(16)]
    g = TypedGraph(nodes, edges)
    isolated = [9, 40, 41]
    assert all(g.degrees()[v] == 0 for v in isolated)
    walks = generate_walks(g, WalkConfig(walks_per_node=3, walk_length=12, seed=5))
    corpus = build_corpus(walks, window=3, n_nodes=g.n_nodes)
    cfg = TrainConfig(lr=0.3, batch_size=64, epochs=2, negatives_per_positive=5, seed=11)
    assert len(corpus) % cfg.batch_size != 0  # a partial last batch
    hub_rows_per_batch = np.count_nonzero(corpus.pairs == 0) / len(corpus) * cfg.batch_size
    assert hub_rows_per_batch > 8

    table, history = train(g, corpus, cfg, dim=3)
    ref_coords, ref_history = dense_scatter_train(g, corpus, cfg, 3)
    assert np.array_equal(table.coords, ref_coords)
    for h, ref in zip(history, ref_history, strict=True):
        assert {key: value for key, value in h.items() if key != "wall_time_s"} == ref
    assert 0.0 < history[0]["noise_collision_share"] < 1.0
    init = init_embeddings(g, 3, trainer.INIT_SCALE, substream(cfg.seed, seeding.INIT))
    assert np.array_equal(table.coords[isolated], init.coords[isolated])
    assert not np.array_equal(table.coords[0], init.coords[0])
