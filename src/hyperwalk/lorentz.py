"""Hyperboloid-model geometry.

Points live on H^n = {x in R^{n+1} : <x,x>_M = -1, x_{n+1} > 0}, stored as
plain float64 arrays of n+1 ambient coordinates with the time-like
coordinate last. All functions broadcast over leading axes, so a table of
points of shape (m, n+1) works everywhere a single point does.

Any memory order works, and the results agree across orders up to the
rounding of the sums' order. The trainer passes (m, n+1) transposed views
of feature-major (n+1, m) blocks: NumPy then runs each elementwise product
and each sum over the coordinate axis along the m points, in contiguous
memory, instead of one short loop over n+1 coordinates per point, and the
outputs keep that order. ``normalize`` takes its sum of squares with
``np.einsum``, which forms no (m, n) temporary.

The trainer's gradient pipeline follows the standard Lorentz-model RSGD convention:
Euclidean partial derivatives, sign flip on the time-like coordinate,
projection onto the tangent space, then an exact exponential-map step.
"""

from __future__ import annotations

import numpy as np

_SMALL_NORM = 1e-8


def minkowski_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray | float:
    """<x,y>_M = sum_i x_i y_i - x_last y_last, over the last axis."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    if x.shape[-1] < 2:
        raise ValueError("need at least 2 ambient coordinates")
    # one product of whole rows: a product of strided slices costs about 2.5x
    xy = x * y
    out = np.sum(xy[..., :-1], axis=-1) - xy[..., -1]
    return out if out.ndim else float(out)


def _arccosh(a):
    # log(a + sqrt(a-1)sqrt(a+1)) avoids overflow of a**2 - 1 for large a.
    a = np.asarray(a, dtype=np.float64)
    return np.log(a + np.sqrt(a - 1.0) * np.sqrt(a + 1.0))


def origin(n: int) -> np.ndarray:
    """The point (0, ..., 0, 1) on H^n."""
    x = np.zeros(n + 1)
    x[-1] = 1.0
    return x


def normalize(x: np.ndarray) -> np.ndarray:
    """Re-project onto the hyperboloid by recomputing the time coordinate."""
    x = np.asarray(x, dtype=np.float64)
    out = np.copy(x)  # keeps x's memory order; x.copy() would force C order
    spatial = x[..., :-1]
    out[..., -1] = np.sqrt(1.0 + np.einsum("...i,...i->...", spatial, spatial))
    return out


def hyperbolic_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray | float:
    """arccosh(-<x,y>_M), with the argument clamped to [1, inf)."""
    a = np.clip(-minkowski_inner(x, y), 1.0, None)
    out = _arccosh(a)
    return out if np.ndim(out) else float(out)


def project_to_tangent(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Pi_x(u) = u + <u,x>_M x, the tangent-space projection at x."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    return u + np.asarray(minkowski_inner(u, x))[..., None] * x


def exp_map(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Follow the geodesic from x in tangent direction u for arc length |u|;
    u must be tangent at x (see :func:`project_to_tangent`), which is not checked."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    sq = np.clip(minkowski_inner(u, u), 0.0, None)
    r = np.sqrt(np.asarray(sq))
    small = r < _SMALL_NORM
    # one expression for every row: below _SMALL_NORM both coefficients are
    # 1, which gives the first-order series x + u exactly (sinh(r)/r is 0/0
    # at r = 0), and only the per-row coefficients are chosen by np.where
    safe = np.where(small, 1.0, r)
    a = np.where(small, 1.0, np.cosh(safe))
    b = np.where(small, 1.0, np.sinh(safe) / safe)
    return a[..., None] * x + b[..., None] * u


def to_poincare(x: np.ndarray) -> np.ndarray:
    """Stereographic projection of a hyperboloid point into the unit ball."""
    x = np.asarray(x, dtype=np.float64)
    return x[..., :-1] / (1.0 + x[..., -1:])

