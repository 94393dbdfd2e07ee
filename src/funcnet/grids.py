"""Uniform grids on [0, 1] and the discrete calculus built on them.

Every curve in this package lives on a uniform grid over the unit
interval; every integral is a composite trapezoid sum on that grid.
The second-difference operators defined here are zero-padded at the
boundary so that their output has the same length as their input.
"""

from __future__ import annotations

import numpy as np


class Grid:
    """A uniform grid of ``m`` points spanning [0, 1] inclusive."""

    __slots__ = ("m", "points", "h", "_weights")

    def __init__(self, m: int):
        if m < 2:
            raise ValueError(f"grid needs at least 2 points, got {m}")
        self.m = int(m)
        self.points = np.linspace(0.0, 1.0, self.m)
        self.h = 1.0 / (self.m - 1)
        self._weights = None

    @property
    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights w with sum(w * f) = trapezoid integral of f."""
        if self._weights is None:
            w = np.full(self.m, self.h)
            w[0] = w[-1] = 0.5 * self.h
            self._weights = w
        return self._weights

    def __eq__(self, other):
        return isinstance(other, Grid) and other.m == self.m

    def __hash__(self):
        return hash(("Grid", self.m))

    def __repr__(self):
        return f"Grid(m={self.m})"


def second_diff(values: np.ndarray, h: float, axis: int = -1, out=None) -> np.ndarray:
    """Central second difference along ``axis``, zero at both endpoints.

    Interior: (f[i-1] - 2 f[i] + f[i+1]) / h^2.  Exact for quadratics.
    The result goes to ``out`` (same shape as ``values``, not overlapping
    it) when given, else to a new array.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[axis] < 3:
        raise ValueError("need at least 3 points for a second difference")
    if out is None:
        out = np.empty(values.shape)
    v = np.moveaxis(values, axis, -1)
    o = np.moveaxis(out, axis, -1)
    inner = o[..., 1:-1]
    np.multiply(v[..., 1:-1], 2.0, out=inner)
    np.subtract(v[..., :-2], inner, out=inner)
    inner += v[..., 2:]
    inner /= h * h
    o[..., 0] = 0.0
    o[..., -1] = 0.0
    return out


def second_diff_adjoint(u: np.ndarray, h: float, axis: int = -1, out=None) -> np.ndarray:
    """Transpose of :func:`second_diff` under the standard inner product.

    Needed to form exact gradients of quadratic roughness penalties:
    for J(f) = ||W D f||^2 the gradient is 2 D^T (W^2 D f).  ``out`` is
    used as in :func:`second_diff`.
    """
    u = np.asarray(u, dtype=float)
    if out is None:
        out = np.empty(u.shape)
    # rows 0 and m-1 of the forward operator are identically zero, so only
    # u's interior enters: out[i] = ((0 - 2 u[i]) + u[i+1] + u[i-1]) / h^2
    # with u[0] = u[m-1] = 0, summed in that order so that fitted results
    # repeat bit for bit
    v = np.moveaxis(u, axis, -1)[..., 1:-1]
    o = np.moveaxis(out, axis, -1)
    o[..., 0] = 0.0
    o[..., -1] = 0.0
    inner = o[..., 1:-1]
    np.multiply(v, 2.0, out=inner)
    np.subtract(0.0, inner, out=inner)
    o[..., :-2] += v
    o[..., 2:] += v
    o /= h * h
    return out


def resample_values(values: np.ndarray, source: Grid, target: Grid) -> np.ndarray:
    """Row-wise linear resampling for a batch of curves (n, source.m)."""
    values = np.asarray(values, dtype=float)
    if source == target:
        return values.copy()
    return np.apply_along_axis(
        lambda row: np.interp(target.points, source.points, row), -1, values
    )
