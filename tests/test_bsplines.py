"""Clamped B-spline bases and the roughness penalty matrices built on them."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.interpolate import BSpline

from funcnet.bsplines import (
    BSplineBasis,
    curvature_penalty_matrix,
    laplacian_penalty_matrix,
)
from funcnet.grids import Grid


def naive_bspline(x, k, i, knots):
    """Textbook Cox-de Boor recursion, used as an independent oracle."""
    if k == 0:
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        # close the last interval so the basis sums to one at x = 1
        if x == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    total = 0.0
    if knots[i + k] != knots[i]:
        total += (x - knots[i]) / (knots[i + k] - knots[i]) * naive_bspline(
            x, k - 1, i, knots
        )
    if knots[i + k + 1] != knots[i + 1]:
        total += (knots[i + k + 1] - x) / (
            knots[i + k + 1] - knots[i + 1]
        ) * naive_bspline(x, k - 1, i + 1, knots)
    return total


def test_design_matches_cox_de_boor():
    basis = BSplineBasis(7, order=4)
    xs = np.linspace(0.0, 1.0, 23)
    design = basis.design(xs)
    oracle = np.array(
        [
            [naive_bspline(x, basis.degree, i, basis.knots) for i in range(7)]
            for x in xs
        ]
    )
    npt.assert_allclose(design, oracle, atol=1e-12)


# evaluation grids of 2 to 8,193 points (0 and 1 included) and 5,000
# unsorted random points
SWEEP_POINTS = [np.linspace(0.0, 1.0, m) for m in (2, 3, 4, 7, 50, 101, 8193)] + [
    np.random.default_rng(0).random(5000)
]


@pytest.mark.parametrize("order", range(1, 7))
def test_design_matches_scipy_bit_for_bit(order):
    # the numpy recurrence makes scipy's operations in scipy's order
    for num in range(order, 40):
        basis = BSplineBasis(num, order)
        for x in SWEEP_POINTS:
            ref = BSpline.design_matrix(x, basis.knots, basis.degree).toarray()
            assert basis.design(x).tobytes() == ref.tobytes(), (num, order, x.size)


@pytest.mark.parametrize("bad", [[-1e-12], [0.5, 1.0 + 1e-12], [np.nan], [0.2, np.inf], [-np.inf]])
def test_design_rejects_points_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        BSplineBasis(6).design(bad)


def test_design_shapes_of_scalar_and_empty_points():
    basis = BSplineBasis(6)
    assert basis.design([]).shape == (0, 6)
    npt.assert_array_equal(basis.design(0.3), basis.design([0.3]))
    with pytest.raises(ValueError, match="1-D"):
        basis.design(np.full((2, 2), 0.5))


def test_partition_of_unity():
    for num, order in ((5, 4), (12, 4), (6, 3), (4, 2)):
        basis = BSplineBasis(num, order)
        rows = basis.design(np.linspace(0.0, 1.0, 57))
        npt.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(rows >= 0.0)


def test_clamped_endpoints():
    basis = BSplineBasis(9)
    d = basis.design([0.0, 1.0])
    npt.assert_allclose(d[0], np.eye(9)[0], atol=1e-12)
    npt.assert_allclose(d[1], np.eye(9)[-1], atol=1e-12)


def test_knots_are_clamped_and_uniform():
    basis = BSplineBasis(8, order=4)
    assert len(basis.knots) == 8 + 4
    npt.assert_allclose(basis.knots[:4], 0.0)
    npt.assert_allclose(basis.knots[-4:], 1.0)
    interior = basis.knots[4:-4]
    npt.assert_allclose(np.diff(interior), interior[0], rtol=1e-12)


def test_invalid_configurations():
    with pytest.raises(ValueError):
        BSplineBasis(3, order=4)
    with pytest.raises(ValueError):
        BSplineBasis(5, order=0)
    with pytest.raises(ValueError):
        curvature_penalty_matrix(BSplineBasis(4, order=2))


def test_derivative_design_by_finite_differences():
    basis = BSplineBasis(8)
    xs = np.linspace(0.1, 0.9, 11)  # stay away from the clamped ends
    eps = 1e-6
    fd = (basis.design(xs + eps) - basis.design(xs - eps)) / (2 * eps)
    npt.assert_allclose(basis.design(xs, 1), fd, atol=1e-5)


@pytest.mark.parametrize("order", range(1, 7))
def test_derivatives_match_scipy(order):
    # the same sweep as the values, plus the knots themselves; roundoff is
    # relative to the size of the matrix, as its entries cancel
    for num in range(order, 40):
        basis = BSplineBasis(num, order)
        splines = BSpline(basis.knots, np.eye(num), basis.degree)
        for x in SWEEP_POINTS + [np.unique(basis.knots)]:
            for deriv in range(1, order):
                ref = splines.derivative(deriv)(x)
                err = np.abs(basis.design(x, deriv) - ref).max()
                assert err <= 1e-13 * max(np.abs(ref).max(), 1.0), (num, order, deriv, x.size)


def test_derivative_beyond_degree_is_zero():
    basis = BSplineBasis(5, order=2)  # piecewise linear
    npt.assert_array_equal(basis.design(np.linspace(0, 1, 9), 2), np.zeros((9, 5)))
    with pytest.raises(ValueError, match="non-negative"):
        basis.design([0.5], -1)


def test_gram_symmetry_and_cache():
    basis = BSplineBasis(6)
    g = basis.gram(0, 0)
    npt.assert_allclose(g, g.T, atol=1e-14)
    assert basis.gram(0, 0) is g  # cached
    # eigenvalues of a Gram matrix are non-negative
    assert np.linalg.eigvalsh(g).min() > -1e-10


def test_gram_total_mass():
    # sum of all inner products is integral of (sum of basis)^2 = 1
    basis = BSplineBasis(9)
    npt.assert_allclose(basis.gram(0, 0).sum(), 1.0, rtol=1e-8)


def test_basis_functional_against_quadrature():
    # integrals of each basis function against f, taken through the design
    # matrix, match a per-function quadrature of the Cox-de Boor oracle
    basis = BSplineBasis(6)
    g = Grid(101)
    f = np.sin(2 * np.pi * g.points)
    vec = basis.design(g.points).T @ (g.trapezoid_weights * f)
    expected = [
        g.trapezoid_weights
        @ (np.array([naive_bspline(s, basis.degree, d, basis.knots) for s in g.points]) * f)
        for d in range(basis.num_basis)
    ]
    npt.assert_allclose(vec, expected, rtol=1e-12, atol=1e-15)


def test_curvature_penalty_on_known_functions():
    basis = BSplineBasis(10, order=4)
    pen = curvature_penalty_matrix(basis)
    grid = Grid(2001)
    design = basis.design(grid.points)

    # straight lines have zero curvature; cubic splines reproduce them
    coef_line, *_ = np.linalg.lstsq(design, 1.0 - 0.5 * grid.points, rcond=None)
    assert coef_line @ pen @ coef_line < 1e-16

    # f(s) = s^2 has integral of f''^2 equal to 4
    coef_quad, *_ = np.linalg.lstsq(design, grid.points**2, rcond=None)
    npt.assert_allclose(coef_quad @ pen @ coef_quad, 4.0, rtol=1e-6)


def gauss_nodes(basis):
    """Per-knot-cell Gauss-Legendre nodes/weights, exact through degree 7.

    The squared Laplacian of a tensor cubic spline is polynomial of degree
    at most 6 on each knot cell, so this quadrature has no truncation
    error at all -- an oracle independent of the package's refined
    trapezoid grids.
    """
    cells = np.unique(basis.knots)
    base_x, base_w = np.polynomial.legendre.leggauss(4)
    xs, ws = [], []
    for a, b in zip(cells[:-1], cells[1:]):
        xs.append(0.5 * (b - a) * base_x + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def test_laplacian_penalty_matches_exact_quadrature():
    row = BSplineBasis(6, order=4)
    col = BSplineBasis(5, order=4)
    pen = laplacian_penalty_matrix(row, col)

    xs_r, w_r = gauss_nodes(row)
    xs_c, w_c = gauss_nodes(col)
    d2_row = row.design(xs_r, 2)
    d0_row = row.design(xs_r)
    d2_col = col.design(xs_c, 2)
    d0_col = col.design(xs_c)

    rng = np.random.default_rng(42)
    for _ in range(3):
        coef = rng.normal(size=(row.num_basis, col.num_basis))
        surf = d2_row @ coef @ d0_col.T + d0_row @ coef @ d2_col.T
        exact = float(w_r @ (surf * surf) @ w_c)
        quad_form = float(coef.reshape(-1) @ pen @ coef.reshape(-1))
        npt.assert_allclose(quad_form, exact, rtol=1e-6)


def test_laplacian_penalty_is_psd():
    pen = laplacian_penalty_matrix(BSplineBasis(5), BSplineBasis(5))
    npt.assert_allclose(pen, pen.T, atol=1e-10)
    assert np.linalg.eigvalsh(pen).min() > -1e-8
