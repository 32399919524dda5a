"""Shared fixtures and helpers for the hyperwalk test suite."""

from __future__ import annotations

import numpy as np
import pytest

from hyperwalk import lorentz
from hyperwalk.graph import TypedGraph


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
    """Neighbors of v, grouped by type as in ``g.adjacency_groups``; a view."""
    n_types = len(g.node_types)
    lo, hi = g.type_offsets[[v * n_types, (v + 1) * n_types]]
    return g.adjacency[lo:hi]


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
