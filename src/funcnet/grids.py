"""Uniform grids on [0, 1] and the discrete calculus built on them.

Every curve in this package lives on a uniform grid over the unit
interval; every integral is a composite trapezoid sum on that grid.
The second-difference operators defined here are zero-padded at the
boundary so that their output has the same length as their input.
"""

from __future__ import annotations

import math

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


def _blocks(values, axis, out):
    """``values`` and the array the result goes to, both C-contiguous and
    viewed as (outer, m, stride) blocks around ``axis``, so that
    neighbours along the axis lie ``stride`` apart in flat memory; the
    result array is ``out`` itself unless that is absent or not
    C-contiguous."""
    values = np.ascontiguousarray(values, dtype=float)
    shape = values.shape
    axis = axis % len(shape)
    blocks = (math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:]))
    if shape[axis] < 3:
        raise ValueError("need at least 3 points for a second difference")
    work = out if out is not None and out.flags.c_contiguous else np.empty(shape)
    return values.reshape(blocks), work.reshape(blocks), work


def _result(work, out):
    if out is None or out is work:
        return work
    out[...] = work
    return out


def second_diff(values: np.ndarray, h: float, axis: int = -1, out=None) -> np.ndarray:
    """Central second difference along ``axis``, zero at both endpoints.

    Interior: (f[i-1] - 2 f[i] + f[i+1]) / h^2.  Exact for quadratics.
    The result goes to ``out`` (same shape as ``values``, not overlapping
    it) when given, else to a new array.
    """
    v3, o3, work = _blocks(values, axis, out)
    v, o, s = v3.reshape(-1), o3.reshape(-1), v3.shape[2]
    # one shifted stencil over the flat array; the entries at the ends of
    # the axis mix neighbouring blocks and are overwritten below
    inner = o[s:-s]
    np.multiply(v[s:-s], 2.0, out=inner)
    np.subtract(v[:-2 * s], inner, out=inner)
    inner += v[2 * s:]
    inner /= h * h
    o3[:, 0] = 0.0
    o3[:, -1] = 0.0
    return _result(work, out)


def second_diff_adjoint(u: np.ndarray, h: float, axis: int = -1, out=None) -> np.ndarray:
    """Transpose of :func:`second_diff` under the standard inner product.

    Needed to form exact gradients of quadratic roughness penalties:
    for J(f) = ||W D f||^2 the gradient is 2 D^T (W^2 D f).  ``out`` is
    used as in :func:`second_diff`.
    """
    v3, o3, work = _blocks(u, axis, out)
    v, o, (_, m, s) = v3.reshape(-1), o3.reshape(-1), v3.shape
    # rows 0 and m-1 of the forward operator are identically zero, so only
    # u's interior enters: out[i] = ((0 - 2 u[i]) + u[i+1] + u[i-1]) / h^2
    # with u[0] = u[m-1] = 0, summed in that order so that fitted results
    # repeat bit for bit.  One flat stencil gives every row but 0, 1, m-2
    # and m-1, which read u's ends or a neighbouring block; those are
    # rewritten from u's interior alone.
    inner = o[s:-s]
    np.multiply(v[s:-s], 2.0, out=inner)
    np.subtract(0.0, inner, out=inner)
    inner += v[2 * s:]
    inner += v[:-2 * s]
    for row, neighbour in ((1, 2), (m - 2, m - 3)):
        np.multiply(v3[:, row], 2.0, out=o3[:, row])
        np.subtract(0.0, o3[:, row], out=o3[:, row])
        if m > 3:
            o3[:, row] += v3[:, neighbour]
    np.add(v3[:, 1], 0.0, out=o3[:, 0])
    np.add(v3[:, m - 2], 0.0, out=o3[:, m - 1])
    o /= h * h
    return _result(work, out)


def resample_values(values: np.ndarray, source: Grid, target: Grid) -> np.ndarray:
    """Row-wise linear resampling for a batch of curves (n, source.m)."""
    values = np.asarray(values, dtype=float)
    if source == target:
        return values.copy()
    return np.apply_along_axis(
        lambda row: np.interp(target.points, source.points, row), -1, values
    )
