"""Grid calculus: trapezoid quadrature, second differences, resampling."""

import numpy as np
import numpy.testing as npt
import pytest

from funcnet.grids import Grid, resample_values, second_diff, second_diff_adjoint


def test_grid_basics():
    g = Grid(5)
    npt.assert_allclose(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.h == 0.25
    npt.assert_allclose(g.trapezoid_weights.sum(), 1.0)
    assert Grid(5) == Grid(5)
    assert Grid(5) != Grid(6)


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        Grid(1)


def test_trapezoid_exact_for_linear():
    # the composite trapezoid rule integrates piecewise-linear functions exactly
    g = Grid(17)
    npt.assert_allclose(g.trapezoid_weights @ (3.0 * g.points - 1.0), 0.5, atol=1e-14)


def test_trapezoid_converges_quadratically():
    exact = (1.0 - np.cos(1.0))
    errs = []
    for m in (11, 21, 41):
        g = Grid(m)
        errs.append(abs(g.trapezoid_weights @ np.sin(g.points) - exact))
    # halving h should cut the error by about 4
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_second_diff_exact_on_quadratics():
    g = Grid(30)
    vals = 2.0 * g.points**2 - g.points + 0.25
    d = second_diff(vals, g.h)
    npt.assert_allclose(d[1:-1], 4.0, atol=1e-9)
    assert d[0] == 0.0 and d[-1] == 0.0


def test_second_diff_needs_three_points():
    for op in (second_diff, second_diff_adjoint):
        with pytest.raises(ValueError):
            op(np.zeros(2), 0.5)
        with pytest.raises(ValueError):
            op(np.zeros((4, 2)), 0.5, axis=1)


def test_second_diff_axis_handling():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 7, 5))
    d0 = second_diff(a, 0.1, axis=1)
    d1 = np.stack([second_diff(a[i], 0.1, axis=0) for i in range(4)])
    npt.assert_allclose(d0, d1)


def test_second_diff_adjoint_is_transpose():
    # <D u, v> == <u, D^T v> for every pair, i.e. the adjoint is exact
    rng = np.random.default_rng(7)
    h = 1.0 / 12
    for _ in range(10):
        u = rng.normal(size=13)
        v = rng.normal(size=13)
        lhs = second_diff(u, h) @ v
        rhs = u @ second_diff_adjoint(v, h)
        npt.assert_allclose(lhs, rhs, rtol=1e-12)


def test_second_diff_adjoint_matches_dense_matrix():
    m, h = 9, 0.125
    dense = np.stack([second_diff(e, h) for e in np.eye(m)]).T
    rng = np.random.default_rng(3)
    v = rng.normal(size=m)
    npt.assert_allclose(second_diff_adjoint(v, h), dense.T @ v, rtol=1e-12)


def _dense_second_diff(m, h):
    """The zero-padded second-difference operator as an (m, m) matrix."""
    d = np.zeros((m, m))
    for i in range(1, m - 1):
        d[i, i - 1:i + 2] = (1.0, -2.0, 1.0)
    return d / (h * h)


@pytest.mark.parametrize("shape", [(3,), (11,), (3, 7), (6, 3), (5, 4), (2, 3, 4, 5),
                                   (3, 3, 3, 3), (4, 6, 5, 7)])
def test_second_differences_match_the_dense_matrix_on_every_axis(shape):
    rng = np.random.default_rng(len(shape))
    a = rng.normal(size=shape)
    # a strided view: neither C- nor Fortran-contiguous
    strided = rng.normal(size=tuple(2 * n for n in shape))[(slice(None, None, 2),) * len(shape)]
    for axis in range(-a.ndim, a.ndim):
        m = shape[axis]
        if m < 3:
            continue
        h = 1.0 / (m - 1)
        dense = _dense_second_diff(m, h)
        for values in (a, np.asfortranarray(a), strided):
            for op, matrix in ((second_diff, dense), (second_diff_adjoint, dense.T)):
                expected = np.moveaxis(np.tensordot(matrix, values, axes=([1], [axis])), 0, axis)
                got = op(values, h, axis=axis)
                npt.assert_allclose(got, expected, rtol=1e-12,
                                    atol=1e-12 * np.abs(expected).max())
                for out in (np.empty(shape), np.empty(shape[::-1]).T):
                    assert op(values, h, axis=axis, out=out) is out
                    npt.assert_array_equal(out, got)


def test_laplacian_on_polynomial_surface():
    # the Laplacian of a surface is the sum of its two directional second
    # differences, each zero-padded at its own boundary
    gr, gc = Grid(21), Grid(16)
    vals = gr.points[:, None] ** 2 + 3.0 * gc.points[None, :] ** 2
    lap = second_diff(vals, gr.h, axis=0) + second_diff(vals, gc.h, axis=1)
    npt.assert_allclose(lap[1:-1, 1:-1], 8.0, atol=1e-8)
    # corners are zero-padded in both directions
    assert lap[0, 0] == 0.0
    assert lap[-1, -1] == 0.0


def test_resample_linear_identity_and_refinement():
    g = Grid(11)
    values = (2.0 * g.points + 1.0)[None, :]
    same = resample_values(values, g, Grid(11))
    npt.assert_allclose(same, values)
    assert same is not values

    fine = resample_values(values, g, Grid(41))
    npt.assert_allclose(fine[0], 2.0 * Grid(41).points + 1.0, atol=1e-12)


def test_resample_values_batch():
    src, dst = Grid(20), Grid(50)
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(6, src.m))
    out = resample_values(batch, src, dst)
    assert out.shape == (6, dst.m)
    for i in range(6):
        npt.assert_allclose(
            out[i], np.interp(dst.points, src.points, batch[i])
        )
    # shared endpoints are preserved exactly
    npt.assert_allclose(out[:, 0], batch[:, 0])
    npt.assert_allclose(out[:, -1], batch[:, -1])
