"""Riemannian SGD trainer: loss oracle, gradients, descent, determinism."""

import numpy as np
import pytest

from hyperwalk import lorentz
from hyperwalk.corpus import build_corpus
from hyperwalk.graph import TypedGraph
from hyperwalk.seeding import substream
from hyperwalk.trainer import (
    EmbeddingTable,
    TrainConfig,
    init_embeddings,
    load_embeddings_for_graph,
    pair_gradients,
    pair_loss,
    pair_softmax,
    train,
)
from tests.conftest import random_point


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


def test_pair_softmax_sums_to_one_and_prefers_near_candidates():
    e_u = lorentz.origin(2)
    near = point_at([1.0, 0.0], 0.5)
    far = point_at([0.0, 1.0], 2.5)
    p = pair_softmax(e_u, np.stack([near, far]))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p[0] > p[1]


def test_pair_loss_decreases_as_positive_approaches():
    neg = point_at([0.0, 1.0], 1.5)
    e_u = lorentz.origin(2)
    losses = [pair_loss(e_u, point_at([1.0, 0.0], r), [neg]) for r in (2.0, 1.0, 0.25)]
    assert losses[0] > losses[1] > losses[2]


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
        e_u = lorentz.normalize(lorentz.exp_map(e_u, -lr * gu, check_tangent=False))
        e_v = lorentz.normalize(lorentz.exp_map(e_v, -lr * gv, check_tangent=False))
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
    assert lorentz.is_on_manifold(emb.coords)
    assert np.all(np.abs(emb.coords[:, :-1]) <= 1e-3)
    with pytest.raises(ValueError):
        init_embeddings(tiny_hetero, 1, 1e-3, np.random.default_rng(0))


def test_embedding_tsv_roundtrip(tiny_hetero, tmp_path):
    emb = init_embeddings(tiny_hetero, 3, 0.5, np.random.default_rng(1))
    path = tmp_path / "emb.tsv"
    emb.save_tsv(path, tiny_hetero)
    again = load_embeddings_for_graph(path, tiny_hetero)
    np.testing.assert_array_equal(again.coords, emb.coords)  # full precision
    first = path.read_text().splitlines()[0].split("\t")
    assert first[0] == "a0" and first[1] == "author" and len(first) == 2 + 4


def test_embedding_file_with_a_duplicated_id_is_rejected(tiny_hetero, tmp_path):
    emb = init_embeddings(tiny_hetero, 3, 0.5, np.random.default_rng(1))
    path = tmp_path / "emb.tsv"
    emb.save_tsv(path, tiny_hetero)
    lines = path.read_text().splitlines()
    lines[1] = lines[0]  # right row count, one id twice and one missing
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="emb.tsv"):
        load_embeddings_for_graph(path, tiny_hetero)


def test_short_embedding_file_is_rejected(tiny_hetero, tmp_path):
    emb = init_embeddings(tiny_hetero, 3, 0.5, np.random.default_rng(1))
    path = tmp_path / "emb.tsv"
    emb.save_tsv(path, tiny_hetero)
    path.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")  # drops a0
    with pytest.raises(ValueError, match="emb.tsv"):
        load_embeddings_for_graph(path, tiny_hetero)


# --- training loop --------------------------------------------------------


@pytest.fixture
def trained(triangle):
    walks = [[0, 1, 2, 0, 1], [1, 2, 0, 1, 2], [2, 0, 1, 2, 0]] * 4
    corpus = build_corpus(walks, window=2, n_nodes=3)
    cfg = TrainConfig(lr=0.1, batch_size=8, epochs=3, negatives_per_positive=2, seed=0)
    return triangle, corpus, cfg


def test_train_output_shape_and_history(trained):
    g, corpus, cfg = trained
    table, history = train(g, corpus, cfg, dim=2)
    assert table.coords.shape == (3, 3)
    assert len(history) == cfg.epochs
    assert all({"epoch", "mean_loss", "wall_time_s"} <= set(h) for h in history)
    assert lorentz.is_on_manifold(table.coords)


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
    corpus = build_corpus([], window=2, n_nodes=3)
    with pytest.raises(ValueError):
        train(triangle, corpus, TrainConfig(), dim=2)


def test_train_resumes_from_existing_table(trained):
    g, corpus, cfg = trained
    warm = init_embeddings(g, 2, 1e-3, substream(9, 2))
    table, _ = train(g, corpus, cfg, dim=2, table=warm)
    assert table is warm
    with pytest.raises(ValueError):
        train(g, corpus, cfg, dim=5, table=EmbeddingTable(warm.coords.copy()))


def test_training_pulls_linked_nodes_together():
    # two cliques joined by nothing: in-clique distances should end up
    # smaller than cross-clique distances
    nodes = [(f"n{i}", "t") for i in range(6)]
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = TypedGraph(nodes, edges)
    walks = []
    rng = np.random.default_rng(0)
    from hyperwalk.walk import self_guided_walk

    for start in range(6):
        for _ in range(8):
            walks.append(self_guided_walk(g, start, 10, rng))
    corpus = build_corpus(walks, window=2, n_nodes=6)
    cfg = TrainConfig(lr=0.2, batch_size=64, epochs=8, negatives_per_positive=3, seed=0)
    table, history = train(g, corpus, cfg, dim=2)
    assert history[-1]["mean_loss"] < history[0]["mean_loss"]
    within = lorentz.hyperbolic_distance(table.point(0), table.point(1))
    across = lorentz.hyperbolic_distance(table.point(0), table.point(3))
    assert within < across
