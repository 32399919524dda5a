"""Shared fixtures and helpers for the hyperwalk test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hyperwalk import lorentz
from hyperwalk.graph import TypedGraph
from hyperwalk.trainer import _pair_terms
from hyperwalk.walk import Walks, step


def random_point(rng, d: int, scale: float = 1.0) -> np.ndarray:
    """A random hyperboloid point at radius uniform in (0, scale].

    Bounding the radius keeps |<x,x>+1| well below the manifold tolerance:
    the closure residual of float64 arithmetic grows like cosh(r)^2 * eps.
    """
    direction = rng.normal(size=d)
    direction /= max(np.linalg.norm(direction), 1e-12)
    u = np.zeros(d + 1)
    u[:d] = direction * rng.uniform(0.0, scale)
    return lorentz.exp_map(lorentz.origin(d), u)


def random_tangent(rng, x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """A tangent vector at x with norm uniform in (0, scale]."""
    u = lorentz.project_to_tangent(x, rng.normal(size=x.size))
    norm = np.sqrt(max(lorentz.minkowski_inner(u, u), 1e-24))
    return u * (rng.uniform(0.1, scale) / norm)


def random_points(rng, n: int, d: int, scale: float = 1.0) -> np.ndarray:
    return np.stack([random_point(rng, d, scale) for _ in range(n)])


def on_manifold(x, atol: float = 1e-9) -> bool:
    """Every point of x satisfies <x,x>_M = -1 to within atol, with x_last > 0."""
    x = np.asarray(x, dtype=np.float64)
    return bool(
        np.all(np.abs(lorentz.minkowski_inner(x, x) + 1.0) < atol) and np.all(x[..., -1] > 0)
    )


def neighbors(g: TypedGraph, v: int) -> np.ndarray:
    """Neighbors of v, grouped by type in type-id order; a view."""
    n_types = len(g.node_types)
    lo, hi = g.type_offsets[[v * n_types, (v + 1) * n_types]]
    return g.adjacency[lo:hi]


def assert_same_graph(a: TypedGraph, b: TypedGraph) -> None:
    """Every attribute of a equals b's: arrays in shape, values and dtype,
    everything else (id lists and dicts, type lists, counts) by ==."""
    assert vars(a).keys() == vars(b).keys()
    for name, x in vars(a).items():
        y = vars(b)[name]
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        else:
            assert x == y, name


def walks_of(lists) -> Walks:
    """Lists of node indices as a Walks matrix, each row padded with -1."""
    matrix = np.full((len(lists), max(map(len, lists), default=0)), -1, dtype=np.int32)
    for row, w in zip(matrix, lists):
        row[: len(w)] = w
    return Walks(matrix)


# --- the self-guided step's law --------------------------------------------


def exact_step_law(g: TypedGraph, v: int, counts) -> dict[int, float]:
    """The self-guided step's law at v under type counts N: each neighbor w
    of v has weight exp(-N_t) / (v's neighbors of w's type t), normalized."""
    nbrs = neighbors(g, v)
    types = g.node_type_of[nbrs]
    weights = np.exp(-np.asarray(counts, dtype=np.float64)[types]) / np.bincount(types)[types]
    return dict(zip(nbrs.tolist(), (weights / math.fsum(weights)).tolist()))


class StubRng:
    """Hands ``walk.step`` chosen draws: ``random`` returns u and
    ``integers(high)`` returns k, which must be below high."""

    def __init__(self, u, k):
        self.u, self.k = u, k

    def random(self, n):
        assert n == len(self.u)
        return self.u

    def integers(self, high):
        self.high = high
        assert (self.k < high).all(), "step asked for fewer neighbors than it picks from"
        return self.k


def law_of_step(g: TypedGraph, v: int, counts) -> dict[int, float]:
    """The law ``walk.step`` draws from at v under type counts, read off step itself.

    step picks a type from u = rng.random() and then the k-th neighbor of
    that type from k = rng.integers(size). The type it picks never falls as
    u grows, so a bisection on u, over 60 vectorised calls with a stub rng,
    finds where each type's interval of [0, 1) ends, to within 2^-60. Then
    every k below the size step asks for is handed to step at the middle of
    each interval: a neighbor's probability is its type's interval length
    times the share of those k that pick it.
    """
    counts = np.asarray(counts, dtype=np.float64)
    types = np.arange(len(g.node_types))

    def run(u, k):
        walkers = np.tile(counts, (len(u), 1))
        rng = StubRng(u, k)
        nodes = step(g, np.full(len(u), v), walkers, rng)
        return nodes, np.argmax(walkers - counts, axis=1), rng.high

    # ends[t]: the least u at which step picks a type past t; lo stays a u
    # at which it picks t or before, unless it picks past t at u = 0
    zeros = np.zeros(types.size, dtype=np.int64)
    lo = np.zeros(types.size)
    ends = np.where(run(lo, zeros)[1] > types, 0.0, 1.0)
    for _ in range(60):
        mid = np.minimum((lo + ends) / 2, np.nextafter(1.0, 0.0))  # rng.random() < 1
        past = run(mid, zeros)[1] > types
        lo, ends = np.where(past, lo, mid), np.where(past, mid, ends)
    starts = np.concatenate([[0.0], ends[:-1]])
    present = np.flatnonzero(ends > starts)
    middle = (starts + ends)[present] / 2
    _, picked, sizes = run(middle, np.zeros(present.size, dtype=np.int64))
    assert (picked == present).all(), "an interval's middle picks another type"
    k = np.concatenate([np.arange(size) for size in sizes])
    nodes, _, _ = run(np.repeat(middle, sizes), k)
    p = np.repeat((ends - starts)[present] / sizes, sizes)
    law = np.zeros(g.n_nodes)
    np.add.at(law, nodes, p)
    return {int(w): float(law[w]) for w in np.flatnonzero(law)}


# --- the trainer's loss for one pair ----------------------------------------


def pair_loss(e_u, e_v, negs=()) -> float:
    """The training loss of the pair (u, v) against the negatives negs."""
    W = np.stack([e_v, *negs]).astype(np.float64)  # the positive partner first
    loss, _, _ = _pair_terms(np.asarray(e_u, dtype=np.float64)[:, None], W.T[:, None, :])
    return float(loss[0])


def pair_gradients(e_u, e_v, negs=()):
    """Tangent-space gradients of :func:`pair_loss` for u, v and each negative."""
    e_u = np.asarray(e_u, dtype=np.float64)
    W = np.stack([e_v, *negs]).astype(np.float64)
    _, grad_u, neg_c = _pair_terms(e_u[:, None], W.T[:, None, :])
    grad_w = neg_c[0][:, None] * e_u  # candidate k's gradient is -c[k] * e_u
    gu = lorentz.project_to_tangent(e_u, grad_u[:, 0])
    gw = lorentz.project_to_tangent(W, grad_w)
    return gu, gw[0], list(gw[1:])


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_hetero():
    """6-node author/paper/venue graph used across module tests.

    a0 - p0 - v0        a0 also wrote p1; p1 appeared at v0.
    a1 - p1 /
    """
    nodes = [
        ("a0", "author"),
        ("a1", "author"),
        ("p0", "paper"),
        ("p1", "paper"),
        ("v0", "venue"),
        ("v1", "venue"),
    ]
    edges = [
        (0, 2, "writes"),
        (1, 3, "writes"),
        (0, 3, "writes"),
        (2, 4, "published_at"),
        (3, 4, "published_at"),
        (3, 5, "published_at"),
    ]
    return TypedGraph(nodes, edges)


@pytest.fixture
def triangle():
    """Homogeneous 3-cycle; the smallest graph with no dead ends."""
    nodes = [("x", "n"), ("y", "n"), ("z", "n")]
    edges = [(0, 1), (1, 2), (2, 0)]
    return TypedGraph(nodes, edges)
