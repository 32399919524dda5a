"""Hyperboloid-model geometry: hand-computed values and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwalk import lorentz
from tests.conftest import on_manifold, random_point, random_tangent

dims = st.integers(min_value=2, max_value=25)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


# --- hand-computed values -------------------------------------------------


def test_origin_is_on_manifold():
    for d in (2, 10, 25):
        x = lorentz.origin(d)
        assert on_manifold(x)
        assert x[-1] == 1.0 and not x[:-1].any()


def test_minkowski_inner_splits_space_and_time():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([4.0, 5.0, 6.0])
    assert lorentz.minkowski_inner(x, y) == 1 * 4 + 2 * 5 - 3 * 6


def test_distance_from_origin_is_tangent_norm():
    # exp along a unit tangent vector moves exactly one unit of arc length
    x = np.array([np.sinh(1.0), 0.0, np.cosh(1.0)])
    assert on_manifold(x)
    assert lorentz.hyperbolic_distance(lorentz.origin(2), x) == pytest.approx(1.0, abs=1e-12)


def test_to_poincare_known_point():
    x = np.array([np.sinh(1.0), 0.0, np.cosh(1.0)])
    p = lorentz.to_poincare(x)
    assert p == pytest.approx([np.tanh(0.5), 0.0], abs=1e-12)


def ball_distance(u, v):
    """Hyperbolic distance between two points of the open unit ball, the
    reference for the projection tests."""
    du, dv = np.sum(u * u, axis=-1), np.sum(v * v, axis=-1)
    diff = np.sum((u - v) ** 2, axis=-1)
    return np.arccosh(1.0 + 2.0 * diff / ((1.0 - du) * (1.0 - dv)))


def test_poincare_distance_half_radius_point():
    # d((0,0),(1/2,0)) = log((1 + 1/2) / (1 - 1/2)) = log 3
    d = ball_distance(np.zeros(2), np.array([0.5, 0.0]))
    assert d == pytest.approx(np.log(3.0), abs=1e-12)


# --- fast paths -------------------------------------------------------------


def test_exp_map_mixed_batch_equals_separate_calls():
    # zero and tiny rows take the first-order series, ordinary rows the closed
    # form; a batch mixing them must give each row the bits of its own path
    rng = np.random.default_rng(3)
    d = 10
    x = np.stack([random_point(rng, d, scale=1.5) for _ in range(9)])
    u = np.stack([random_tangent(rng, xi, scale=1.0) for xi in x])
    u[1] = 0.0
    u[4] *= 1e-11 / np.sqrt(lorentz.minkowski_inner(u[4], u[4]))
    u[7] *= 3e-9 / np.sqrt(lorentz.minkowski_inner(u[7], u[7]))
    small = np.zeros(9, dtype=bool)
    small[[1, 4, 7]] = True
    norms = np.sqrt(np.clip(lorentz.minkowski_inner(u, u), 0.0, None))
    assert np.array_equal(norms < 1e-8, small)
    mixed = lorentz.exp_map(x, u)
    assert np.array_equal(mixed[small], lorentz.exp_map(x[small], u[small]))
    assert np.array_equal(mixed[~small], lorentz.exp_map(x[~small], u[~small]))
    assert np.array_equal(mixed[1], x[1])


@pytest.mark.parametrize("d", [2, 3, 7, 8, 9, 10, 16, 25])
def test_minkowski_inner_equals_the_sliced_formula_bitwise(d):
    rng = np.random.default_rng(d)
    x = rng.normal(size=(257, d + 1)) * rng.uniform(0.1, 100.0, size=(257, 1))
    y = rng.normal(size=(257, d + 1))
    sliced = np.sum(x[..., :-1] * y[..., :-1], axis=-1) - x[..., -1] * y[..., -1]
    assert np.array_equal(lorentz.minkowski_inner(x, y), sliced)
    one = lorentz.minkowski_inner(x[5], y[5])
    assert type(one) is float
    assert one == np.sum(x[5, :-1] * y[5, :-1]) - x[5, -1] * y[5, -1]


# --- properties -----------------------------------------------------------


@given(seed=seeds, d=dims)
@settings(max_examples=50, deadline=None)
def test_exp_map_lands_on_manifold(seed, d):
    rng = np.random.default_rng(seed)
    x = random_point(rng, d, scale=2.0)
    u = random_tangent(rng, x, scale=2.0)
    y = lorentz.exp_map(x, u)
    assert on_manifold(y)


@given(seed=seeds, d=dims)
@settings(max_examples=50, deadline=None)
def test_exp_map_is_a_geodesic(seed, d):
    rng = np.random.default_rng(seed)
    x = random_point(rng, d)
    u = random_tangent(rng, x, scale=2.0)
    norm = np.sqrt(max(lorentz.minkowski_inner(u, u), 0.0))
    y = lorentz.exp_map(x, u)
    assert lorentz.hyperbolic_distance(x, y) == pytest.approx(norm, abs=1e-8)


@given(seed=seeds, d=dims)
@settings(max_examples=50, deadline=None)
def test_distance_symmetry_and_identity(seed, d):
    rng = np.random.default_rng(seed)
    x, y = random_point(rng, d, 2.0), random_point(rng, d, 2.0)
    assert lorentz.hyperbolic_distance(x, y) == pytest.approx(
        lorentz.hyperbolic_distance(y, x), abs=1e-12
    )
    assert lorentz.hyperbolic_distance(x, x) == pytest.approx(0.0, abs=1e-6)


@given(seed=seeds, d=dims)
@settings(max_examples=50, deadline=None)
def test_triangle_inequality(seed, d):
    rng = np.random.default_rng(seed)
    x, y, z = (random_point(rng, d, 1.5) for _ in range(3))
    dxz = lorentz.hyperbolic_distance(x, z)
    dxy = lorentz.hyperbolic_distance(x, y)
    dyz = lorentz.hyperbolic_distance(y, z)
    assert dxz <= dxy + dyz + 1e-9


@given(seed=seeds, d=dims)
@settings(max_examples=50, deadline=None)
def test_tangent_projection_is_orthogonal_and_idempotent(seed, d):
    rng = np.random.default_rng(seed)
    x = random_point(rng, d, 2.0)
    u = lorentz.project_to_tangent(x, rng.normal(size=d + 1))
    assert abs(lorentz.minkowski_inner(x, u)) < 1e-9
    again = lorentz.project_to_tangent(x, u)
    np.testing.assert_allclose(again, u, atol=1e-12)


@given(seed=seeds, d=dims)
@settings(max_examples=50, deadline=None)
def test_poincare_projection_preserves_distance(seed, d):
    rng = np.random.default_rng(seed)
    x, y = random_point(rng, d, 2.0), random_point(rng, d, 2.0)
    px, py = lorentz.to_poincare(x), lorentz.to_poincare(y)
    assert np.linalg.norm(px) < 1.0 and np.linalg.norm(py) < 1.0
    assert ball_distance(px, py) == pytest.approx(
        lorentz.hyperbolic_distance(x, y), rel=1e-6, abs=1e-6
    )


@given(seed=seeds, d=dims)
@settings(max_examples=50, deadline=None)
def test_normalize_restores_manifold(seed, d):
    rng = np.random.default_rng(seed)
    x = random_point(rng, d, 2.0) * (1.0 + rng.uniform(-1e-4, 1e-4))
    assert on_manifold(lorentz.normalize(x))
