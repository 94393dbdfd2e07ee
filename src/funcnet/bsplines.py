"""Clamped B-spline bases on [0, 1].

Knots are equally spaced in the interior with the first and last knot
repeated ``order`` times, so the basis is a partition of unity and the
first/last basis functions interpolate the endpoints.  Values and
derivatives come from one evaluator, de Boor's recurrence in numpy; the
derivatives feed the Gram matrices of the roughness penalties.
"""

from __future__ import annotations

import numpy as np

from .grids import Grid

# Refined grid used for Gram-matrix quadrature.  Products of basis
# derivatives are only piecewise smooth, so the integration grid is made
# much denser than any evaluation grid in the package.
GRAM_QUAD_POINTS = 8193


class BSplineBasis:
    """A family of ``num_basis`` clamped B-splines of a given order."""

    def __init__(self, num_basis: int, order: int = 4):
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        if num_basis < order:
            raise ValueError(
                f"need at least `order` basis functions ({order}), got {num_basis}"
            )
        self.num_basis = int(num_basis)
        self.order = int(order)
        self.degree = self.order - 1
        n_interior = self.num_basis - self.order
        interior = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
        self.knots = np.concatenate(
            [np.zeros(self.order), interior, np.ones(self.order)]
        )
        self._gram_cache: dict = {}

    def design(self, x, deriv: int = 0) -> np.ndarray:
        """Evaluation matrix: entry (i, d) is the ``deriv``-th derivative of
        basis function d at x[i].

        de Boor's recurrence on the knot interval of each point, with the
        operations of scipy's ``BSpline.design_matrix`` in the same order,
        so for ``deriv = 0`` the two agree bit for bit.  Its last ``deriv``
        levels differentiate instead (de Boor, *A Practical Guide to
        Splines*, ch. X).  Derivatives at a knot are taken from the right,
        at 1 from the left.  A scalar ``x`` gives one row and an empty one
        none.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim != 1:
            raise ValueError(f"expected points in a 1-D array, got shape {x.shape}")
        if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN fails both comparisons
            raise ValueError("points must be finite and lie in [0, 1]")
        if deriv < 0:
            raise ValueError(f"derivative order must be non-negative, got {deriv}")
        k, t = self.degree, self.knots
        out = np.zeros((x.size, self.num_basis))
        if deriv > k:
            return out
        ell = np.clip(np.searchsorted(t, x, "right") - 1, k, self.num_basis - 1)
        h = np.zeros((x.size, k + 1))
        h[:, 0] = 1.0
        for j in range(1, k + 1):
            hh = h[:, :j].copy()
            h[:, 0] = 0.0
            for n in range(1, j + 1):
                xb, xa = t[ell + n], t[ell + n - j]
                if j <= k - deriv:
                    w = hh[:, n - 1] / (xb - xa)
                    h[:, n - 1] += w * (xb - x)
                    h[:, n] = w * (x - xa)
                else:
                    w = j * hh[:, n - 1] / (xb - xa)
                    h[:, n - 1] -= w
                    h[:, n] = w
        np.put_along_axis(out, (ell - k)[:, None] + np.arange(k + 1), h, axis=1)
        return out

    def gram(self, da: int, db: int) -> np.ndarray:
        """Gram matrix G[a, b] = integral of v_a^(da) * v_b^(db) over [0, 1].

        Assembled by dense trapezoid quadrature on a refined grid; cached
        per (da, db).
        """
        key = (da, db)
        if key not in self._gram_cache:
            quad = Grid(GRAM_QUAD_POINTS)
            left = self.design(quad.points, da)
            right = left if db == da else self.design(quad.points, db)
            self._gram_cache[key] = left.T @ (quad.trapezoid_weights[:, None] * right)
        return self._gram_cache[key]

    def __eq__(self, other):
        return (
            isinstance(other, BSplineBasis)
            and other.num_basis == self.num_basis
            and other.order == self.order
        )

    def __hash__(self):
        return hash(("BSplineBasis", self.num_basis, self.order))

    def __repr__(self):
        return f"BSplineBasis(num_basis={self.num_basis}, order={self.order})"


def curvature_penalty_matrix(basis: BSplineBasis) -> np.ndarray:
    """Matrix G with coef^T G coef = integral of the squared second derivative."""
    if basis.order < 3:
        raise ValueError("curvature penalty needs at least quadratic splines")
    return basis.gram(2, 2)


def laplacian_penalty_matrix(
    row_basis: BSplineBasis, col_basis: BSplineBasis
) -> np.ndarray:
    """Quadratic form of the squared-Laplacian roughness of a tensor surface.

    For w(s, t) = sum_{c,d} W[c, d] v_c(s) u_d(t), the double integral of
    (w_ss + w_tt)^2 equals vec(W)^T P vec(W) with

        P = G2s x G0t + Xs x Xt^T + Xs^T x Xt + G0s x G2t

    where G0 / G2 are the plain and second-derivative Gram matrices of
    each axis and X[a, b] = integral of v_a'' v_b.  P is symmetric PSD.
    """
    if row_basis.order < 3 or col_basis.order < 3:
        raise ValueError("Laplacian penalty needs at least quadratic splines")
    g0s = row_basis.gram(0, 0)
    g2s = row_basis.gram(2, 2)
    xs = row_basis.gram(2, 0)
    g0t = col_basis.gram(0, 0)
    g2t = col_basis.gram(2, 2)
    xt = col_basis.gram(2, 0)
    p = (
        np.kron(g2s, g0t)
        + np.kron(xs, xt.T)
        + np.kron(xs.T, xt)
        + np.kron(g0s, g2t)
    )
    return 0.5 * (p + p.T)
