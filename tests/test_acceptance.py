"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE n: PASS/FAIL" line with the measured values before asserting,
so the verdicts survive in captured output either way.
"""

import functools
import math
import sys
import time

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.stats import spearmanr

from hyperwalk import lorentz
from hyperwalk.cli import main as cli_main
from hyperwalk.corpus import build_corpus
from hyperwalk.evaluation import auc, link_prediction_eval, make_link_split, reconstruct, region_stats
from hyperwalk.graph import TypedGraph
from hyperwalk.seeding import NONEDGES, SPLITS, substream
from hyperwalk.synthetic import two_block_graph
from hyperwalk.trainer import TrainConfig, train
from hyperwalk.walk import WalkConfig, generate_walks, step
from tests.conftest import (
    exact_step_law,
    law_of_step,
    neighbors,
    pair_gradients,
    pair_loss,
    random_point,
)


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # also reach the console under capture
        print(line, file=sys.__stdout__)
    return f"criterion {n}: {detail}"


def batch_points(rng, n, d, max_radius=4.0):
    direction = rng.normal(size=(n, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    u = np.zeros((n, d + 1))
    u[:, :d] = direction * rng.uniform(0.0, max_radius, size=(n, 1))
    return lorentz.exp_map(np.tile(lorentz.origin(d), (n, 1)), u)


# --- 1: geometry suite ----------------------------------------------------


def test_criterion_01_geometry_suite():
    t0 = time.perf_counter()
    worst = {"closure": 0.0, "symmetry": 0.0, "triangle": -np.inf, "tangent": 0.0, "geodesic": 0.0}
    rng = np.random.default_rng(101)
    for d in (2, 10, 25):
        n = 10_000
        x = batch_points(rng, n, d)
        y = batch_points(rng, n, d)
        z = batch_points(rng, n, d)
        worst["closure"] = max(
            worst["closure"], float(np.abs(lorentz.minkowski_inner(x, x) + 1).max())
        )
        dxy = lorentz.hyperbolic_distance(x, y)
        worst["symmetry"] = max(
            worst["symmetry"], float(np.abs(dxy - lorentz.hyperbolic_distance(y, x)).max())
        )
        slack = lorentz.hyperbolic_distance(x, z) - dxy - lorentz.hyperbolic_distance(y, z)
        worst["triangle"] = max(worst["triangle"], float(slack.max()))
        u = lorentz.project_to_tangent(x, rng.normal(size=(n, d + 1)))
        raw = np.sqrt(np.clip(lorentz.minkowski_inner(u, u), 1e-30, None))
        u = u * (rng.uniform(0.1, 2.0, size=n) / raw)[:, None]  # bounded step length
        worst["tangent"] = max(
            worst["tangent"], float(np.abs(lorentz.minkowski_inner(x, u)).max())
        )
        norm = np.sqrt(np.clip(lorentz.minkowski_inner(u, u), 0.0, None))
        dgeo = lorentz.hyperbolic_distance(x, lorentz.exp_map(x, u))
        worst["geodesic"] = max(worst["geodesic"], float(np.abs(dgeo - norm).max()))
    elapsed = time.perf_counter() - t0
    ok = (
        worst["closure"] < 1e-9
        and worst["symmetry"] < 1e-9
        and worst["triangle"] < 1e-9
        and worst["tangent"] < 1e-9
        and worst["geodesic"] < 1e-8
        and elapsed < 10
    )
    msg = report(1, ok, f"worst errors {worst}, {elapsed:.1f}s")
    assert ok, msg


# --- 2: gradient check ----------------------------------------------------


def geodesic_fd_gradient(f, x, eps=1e-5):
    d = x.size - 1
    basis = []
    for i in range(d + 1):
        e = np.zeros(d + 1)
        e[i] = 1.0
        h = lorentz.project_to_tangent(x, e)
        for b in basis:
            h = h - lorentz.minkowski_inner(h, b) * b
        nrm = lorentz.minkowski_inner(h, h)
        if nrm > 1e-12:
            basis.append(h / np.sqrt(nrm))
    grad = np.zeros(d + 1)
    for b in basis:
        df = (f(lorentz.exp_map(x, eps * b)) - f(lorentz.exp_map(x, -eps * b))) / (2 * eps)
        grad += df * b
    return grad


def test_criterion_02_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    max_rel = 0.0
    for d in (2, 10):
        for _ in range(100):
            e_u = random_point(rng, d)
            e_v = random_point(rng, d)
            negs = [random_point(rng, d) for _ in range(3)]
            analytic = pair_gradients(e_u, e_v, negs)
            points = [e_u, e_v, *negs]

            def loss_wrt(i, x):
                ps = list(points)
                ps[i] = x
                return pair_loss(ps[0], ps[1], ps[2:])

            grads = np.concatenate([analytic[0], analytic[1], *analytic[2]])
            fd = np.concatenate(
                [
                    geodesic_fd_gradient(lambda p, i=i: loss_wrt(i, p), x)
                    for i, x in enumerate(points)
                ]
            )
            rel = np.linalg.norm(fd - grads) / max(np.linalg.norm(grads), np.linalg.norm(fd))
            max_rel = max(max_rel, rel)
    elapsed = time.perf_counter() - t0
    ok = max_rel < 1e-4 and elapsed < 30
    msg = report(2, ok, f"max relative error {max_rel:.2e}, {elapsed:.1f}s")
    assert ok, msg


# --- 3: walk transition oracle -------------------------------------------


def random_bounded_graph(rng, max_neighbors=6):
    n = int(rng.integers(6, 16))
    labels = ["A", "B", "C"]
    nodes = [(f"n{i}", labels[int(rng.integers(3))]) for i in range(n)]
    edges = []
    deg = np.zeros(n, dtype=int)
    for _ in range(3 * n):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and deg[u] < max_neighbors and deg[v] < max_neighbors:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return TypedGraph(nodes, edges)


def test_criterion_03_walk_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    draw_rng = np.random.default_rng(3030)  # draws leave the graph sequence alone
    max_err = 0.0
    checked = 0
    empirical_checked = 0
    for gi in range(50):
        g = random_bounded_graph(rng)
        v = int(rng.integers(g.n_nodes))
        if neighbors(g, v).size == 0:
            continue
        type_counts = np.zeros(len(g.node_types), dtype=np.int64)
        type_counts[g.node_type_of[v]] = 1  # a walk that starts at v
        for t in range(len(g.node_types)):
            type_counts[t] += int(rng.integers(0, 6))
        # step's law, read off step with a stub rng, against the exact law
        dist = exact_step_law(g, v, type_counts)
        drawn = law_of_step(g, v, type_counts)
        gaps = [abs(drawn.get(w, 0.0) - dist.get(w, 0.0)) for w in drawn.keys() | dist.keys()]
        max_err = max(max_err, *gaps)
        checked += 1
        if empirical_checked < 3 and len(dist) >= 2:
            # many lock-step walkers, all in the same (node, counts) state
            draws = 100_000
            walkers = np.tile(type_counts, (draws, 1))
            nodes = step(g, np.full(draws, v), walkers, draw_rng)
            hits = np.bincount(nodes, minlength=g.n_nodes)
            for w, p in dist.items():
                se = math.sqrt(p * (1 - p) / draws)
                assert abs(hits[w] / draws - p) <= 3 * se + 1e-12, (
                    f"criterion 3: node {w} empirical {hits[w]/draws:.4f} vs {p:.4f}"
                )
            empirical_checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 40 and max_err < 1e-12 and empirical_checked == 3 and elapsed < 10
    msg = report(3, ok, f"{checked} graphs, max |Δp| {max_err:.1e}, "
                        f"{empirical_checked} empirical states, {elapsed:.1f}s")
    assert ok, msg


# --- 4: type balance ------------------------------------------------------


def skewed_three_type_graph(rng):
    """300 nodes at a 10:3:1 type-size skew; every node sees all three types."""
    sizes = {"A": 214, "B": 64, "C": 22}
    nodes = []
    by_type = {}
    for label, size in sizes.items():
        by_type[label] = list(range(len(nodes), len(nodes) + size))
        nodes += [(f"{label.lower()}{i}", label) for i in range(size)]
    edges = []
    for v in range(len(nodes)):
        for label in sizes:
            pool = [u for u in by_type[label] if u != v]
            for u in rng.choice(pool, size=2, replace=False):
                edges.append((v, int(u)))
    return TypedGraph(nodes, edges)


def type_frequencies(g, walks):
    counts = np.zeros(len(g.node_types))
    for w in walks:
        for v in w:
            counts[g.node_type_of[v]] += 1
    return counts / counts.sum()


def test_criterion_04_type_balance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    g = skewed_three_type_graph(rng)
    assert (np.diff(g.type_offsets) > 0).all()  # each (node, type) slice is nonempty

    walks = generate_walks(g, WalkConfig(walks_per_node=1, walk_length=80, seed=0))
    guided = type_frequencies(g, walks)
    guided_dev = float(np.abs(guided - 1 / 3).max())

    uniform_walks = []
    for start in range(g.n_nodes):
        seq = [start]
        for _ in range(79):
            nbrs = neighbors(g, seq[-1])
            seq.append(int(nbrs[rng.integers(nbrs.size)]))
        uniform_walks.append(seq)
    uniform_dev = float(np.abs(type_frequencies(g, uniform_walks) - 1 / 3).max())

    elapsed = time.perf_counter() - t0
    ok = guided_dev <= 0.05 and uniform_dev > 0.10 and elapsed < 30
    msg = report(4, ok, f"self-guided max deviation {guided_dev:.3f} (<=0.05), "
                        f"uniform {uniform_dev:.3f} (>0.10), {elapsed:.1f}s")
    assert ok, msg


# --- 5: AUC oracle --------------------------------------------------------


def test_criterion_05_auc_oracle():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(60):
        n_pos = int(rng.integers(1, 101))
        n_neg = int(rng.integers(1, 200 - n_pos + 1))
        pos = rng.integers(0, 12, size=n_pos).astype(float)
        neg = rng.integers(0, 12, size=n_neg).astype(float)
        fast = auc(pos, neg)
        brute = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg) / (n_pos * n_neg)
        worst = max(worst, abs(fast - brute))
        assert fast == brute, f"criterion 5: {fast} != brute force {brute}"
    msg = report(5, worst == 0.0, f"60 instances, exact equality (max |Δ| {worst})")
    assert worst == 0.0, msg


# --- 6 & 7: end-to-end on the planted two-block graph ---------------------


@functools.lru_cache(maxsize=None)
def synthetic_graph():
    return two_block_graph(np.random.default_rng(0))


@functools.lru_cache(maxsize=None)
def synthetic_corpus():
    g = synthetic_graph()
    walks = generate_walks(g, WalkConfig(walks_per_node=10, walk_length=80, seed=0))
    return build_corpus(walks, window=5, n_nodes=g.n_nodes)


@functools.lru_cache(maxsize=None)
def reconstruction_auc(dim):
    g = synthetic_graph()
    table, _ = train(g, synthetic_corpus(), TrainConfig(seed=0), dim=dim)
    rep = reconstruct(g, table, "A-B", rng=substream(0, NONEDGES))
    return rep.auc


def test_criterion_06_end_to_end_reconstruction():
    t0 = time.perf_counter()
    auc10 = reconstruction_auc(10)
    auc2 = reconstruction_auc(2)
    elapsed = time.perf_counter() - t0
    ok = auc10 >= 0.95 and auc10 >= auc2 - 0.02 and elapsed < 300
    msg = report(6, ok, f"reconstruction AUC d=10 {auc10:.4f} (>=0.95), "
                        f"d=2 {auc2:.4f} (trend {auc10:.4f} >= {auc2 - 0.02:.4f}), {elapsed:.0f}s")
    assert ok, msg


def planted_blocks(g):
    """Block id per node: two_block_graph puts the first n // 2 nodes of each
    type in block 0 and the rest in block 1."""
    block = np.zeros(g.n_nodes, dtype=np.int64)
    for t in g.node_types:
        members = g.nodes_of_type(t.label)
        block[members[members.size // 2 :]] = 1
    return block


def hanley_mcneil_se(a, n_pos, n_neg):
    """Standard error of an AUC a over n_pos positives and n_neg negatives."""
    q1 = a / (2 - a)
    q2 = 2 * a * a / (1 + a)
    var = a * (1 - a) + (n_pos - 1) * (q1 - a * a) + (n_neg - 1) * (q2 - a * a)
    return math.sqrt(var / (n_pos * n_neg))


def test_criterion_07_end_to_end_link_prediction():
    t0 = time.perf_counter()
    g = synthetic_graph()
    split = make_link_split(g, "A-B", 0.2, rng=substream(0, SPLITS))
    assert split.warning is None
    tg = split.train_graph
    walks = generate_walks(tg, WalkConfig(walks_per_node=10, walk_length=80, seed=0))
    corpus = build_corpus(walks, window=5, n_nodes=tg.n_nodes)
    table, _ = train(tg, corpus, TrainConfig(seed=0), dim=10)
    lp = link_prediction_eval(split, table).auc
    recon = reconstruction_auc(10)
    elapsed = time.perf_counter() - t0
    # A held-out edge of the planted graph carries no information beyond
    # block membership, so the ceiling is an oracle scoring same-block pairs
    # 1 and the rest 0; lp must not fall two standard errors below it.
    block = planted_blocks(g)
    pos, neg = split.removed_edges, split.sampled_non_edges
    oracle = auc(
        (block[pos[:, 0]] == block[pos[:, 1]]).astype(float),
        (block[neg[:, 0]] == block[neg[:, 1]]).astype(float),
    )
    se = hanley_mcneil_se(oracle, len(pos), len(neg))
    bar = oracle - 2 * se
    ok = lp >= bar and lp <= recon and elapsed < 300
    msg = report(7, ok, f"link-prediction AUC {lp:.4f} (>= block oracle {oracle:.4f} "
                        f"- 2 x se {se:.4f} = {bar:.4f}), "
                        f"ordering {lp:.4f} <= reconstruction {recon:.4f}, {elapsed:.0f}s")
    assert ok, msg


# --- 8: table layout on user-supplied shaped data -------------------------


def test_criterion_08_table_layout(tmp_path):
    # the published benchmark tables themselves need privately-shared data;
    # what must hold is that equivalently-shaped input reproduces the full
    # (edge type x dimension) AUC table layout through the CLI
    rng = np.random.default_rng(808)
    nodes = [(f"a{i}", "author") for i in range(20)]
    nodes += [(f"p{i}", "paper") for i in range(30)]
    nodes += [(f"v{i}", "venue") for i in range(3)]
    edges = [(int(rng.integers(20)), 20 + i, "P-A") for i in range(30) for _ in range(2)]
    edges += [(20 + i, 50 + int(rng.integers(3)), "P-V") for i in range(30)]
    g = TypedGraph(nodes, edges)
    nodes_tsv, edges_tsv = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    g.save(nodes_tsv, edges_tsv)

    run = tmp_path / "run"
    rc = cli_main(["train", "--nodes", str(nodes_tsv), "--edges", str(edges_tsv),
                   "--out", str(run), "--dim", "2,5", "--walks", "2",
                   "--walk-length", "10", "--epochs", "1", "--negatives", "3"])
    assert rc == 0
    rc = cli_main(["reconstruct", "--nodes", str(nodes_tsv), "--edges", str(edges_tsv),
                   "--out", str(tmp_path / "rec"),
                   "--embeddings", str(run / "embeddings_d2.tsv"),
                   "--embeddings", str(run / "embeddings_d5.tsv")])
    assert rc == 0
    import json

    rows = json.loads((tmp_path / "rec" / "reconstruction.json").read_text())
    got = {(r["edge_type"], r["dimension"]) for r in rows}
    want = {(et, d) for et in ("P-A", "P-V") for d in (2, 5)}
    fields_ok = all({"edge_type", "dimension", "auc", "n_pos", "n_neg"} <= set(r) for r in rows)
    ok = got == want and fields_ok and all(0.0 <= r["auc"] <= 1.0 for r in rows)
    msg = report(8, ok, f"CLI table rows {sorted(got)} with AUC per cell")
    assert ok, msg


# --- 9: determinism -------------------------------------------------------


def test_criterion_09_determinism(tmp_path):
    g = synthetic_graph()
    nodes_tsv, edges_tsv = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    g.save(nodes_tsv, edges_tsv)
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = cli_main(["train", "--nodes", str(nodes_tsv), "--edges", str(edges_tsv),
                       "--out", str(out), "--dim", "5", "--seed", "7", "--walks", "2",
                       "--walk-length", "20", "--epochs", "2", "--negatives", "5"])
        assert rc == 0
        blobs.append((out / "embeddings.tsv").read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    msg = report(9, ok, f"two single-threaded runs byte-identical ({len(blobs[0])} bytes)")
    assert ok, msg


# --- 10: hierarchy shape --------------------------------------------------


def powerlaw_bipartite_graph(rng) -> TypedGraph:
    """300 "author" and 400 "paper" nodes; author degrees follow a Zipf law of
    exponent 2 truncated at 200, and every paper gets at least one author."""
    n_hubs, n_items = 300, 400
    nodes = [(f"h{i}", "author") for i in range(n_hubs)]
    nodes += [(f"i{j}", "paper") for j in range(n_items)]
    degrees = np.minimum(rng.zipf(2.0, size=n_hubs), n_items // 2)
    edges = set()
    for i, d in enumerate(degrees):
        targets = rng.choice(n_items, size=int(d), replace=False)
        for j in targets:
            edges.add((i, n_hubs + int(j)))
    # keep every item attached so the graph has no isolated paper nodes
    linked = {v for _, v in edges}
    for j in range(n_items):
        v = n_hubs + j
        if v not in linked:
            edges.add((int(rng.integers(n_hubs)), v))
    return TypedGraph(nodes, sorted(edges))


def giant_component(g):
    """Boolean mask of the nodes in g's largest connected component."""
    adj = coo_matrix((np.ones(g.n_edges), g.edges.T), shape=(g.n_nodes, g.n_nodes))
    _, label = connected_components(adj, directed=False)
    return label == np.bincount(label).argmax()


def test_criterion_10_hierarchy_shape():
    # Hubs sit near the disk center: over the authors of the giant component,
    # hyperbolic radius and degree must be negatively rank-correlated. With no
    # association, Spearman's rho has standard error about 1/sqrt(n - 1), so
    # the bar is three standard errors below 0. Authors outside the giant
    # component are left out: they are few, of degree 1-2, and sit far out
    # whatever the ordering inside the component.
    t0 = time.perf_counter()
    g = powerlaw_bipartite_graph(np.random.default_rng(1))
    walks = generate_walks(g, WalkConfig(walks_per_node=10, walk_length=80, seed=0))
    corpus = build_corpus(walks, window=5, n_nodes=g.n_nodes)
    table, _ = train(g, corpus, TrainConfig(seed=0), dim=2)
    authors = g.nodes_of_type("author")
    authors = authors[giant_component(g)[authors]]
    radius = lorentz.hyperbolic_distance(lorentz.origin(2), table.coords[authors])
    degree = g.degrees()[authors]
    rho = spearmanr(radius, degree).statistic
    bar = -3 / math.sqrt(authors.size - 1)
    shuffled = spearmanr(np.random.default_rng(10).permutation(radius), degree).statistic
    bands = region_stats(g, table, "author", boundaries=[2.0, 4.0, 6.0]).regions
    elapsed = time.perf_counter() - t0
    ok = rho <= bar and elapsed < 300
    msg = report(10, ok, f"Spearman rho(radius, degree) over {authors.size} giant-component "
                         f"authors {rho:.3f} (<= {bar:.3f}; shuffled radii {shuffled:.3f}), "
                         f"radius bands 2/4/6 counts {[b.count for b in bands]} mean degrees "
                         f"{[round(b.mean_degree, 3) for b in bands]}, {elapsed:.0f}s")
    assert ok, msg
