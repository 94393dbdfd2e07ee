"""Basis-expanded functional network: equivalence with the direct form,
gradients, and Gram-form penalties."""

import numpy as np
import numpy.testing as npt
import pytest

from funcnet import fbnn
from funcnet.fbnn import FbnnConfig, FbnnNetwork, expand_to_direct
from funcnet.grids import Grid
from funcnet.training import TrainConfig, grad_check, train_fixed


def small_net(seed=0, activation="tanh"):
    cfg = FbnnConfig(
        input_points=10,
        output_points=8,
        input_count=1,
        hidden_neurons=(2, 2),
        hidden_points=(8, 8),
        num_intercept_basis=5,
        num_row_basis=5,
        num_col_basis=5,
        activation=activation,
    )
    return fbnn.init(cfg, seed=seed)


def test_expand_to_direct_is_equivalent():
    # realizing every coefficient expansion on its grid must reproduce the
    # basis network exactly: both evaluate the same discretized integrals
    net = small_net(seed=21)
    direct = expand_to_direct(net)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 1, 10))
    npt.assert_allclose(direct.predict(x), net.predict(x), atol=1e-10)


def test_expand_to_direct_on_relu():
    net = small_net(seed=4, activation="relu")
    direct = expand_to_direct(net)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 1, 10))
    npt.assert_allclose(direct.predict(x), net.predict(x), atol=1e-10)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 1, 10))
    y = rng.normal(size=(6, 8))
    for activation in ("tanh", "sigmoid"):
        net = small_net(seed=3, activation=activation)
        err = grad_check(net, x, y, eps=1e-5)
        assert err < 1e-4, f"{activation}: worst rel err {err:.3g}"


def test_penalty_gradient_matches_finite_differences():
    net = small_net(seed=5)
    _, grads = net.penalty(lam_b=0.9, lam_w=0.4)
    params = net.parameters()
    eps = 1e-6
    rng = np.random.default_rng(6)
    for p_idx in range(len(params)):
        flat = params[p_idx].reshape(-1)
        for c in rng.choice(flat.size, size=4, replace=False):
            keep = flat[c]
            flat[c] = keep + eps
            up = net.penalty(0.9, 0.4)[0]
            flat[c] = keep - eps
            dn = net.penalty(0.9, 0.4)[0]
            flat[c] = keep
            fd = (up - dn) / (2 * eps)
            npt.assert_allclose(grads[p_idx].reshape(-1)[c], fd, rtol=1e-4, atol=1e-8)


def test_gram_penalty_matches_exact_quadrature():
    # the coefficient quadratic form must agree with literally evaluating
    # the surface Laplacian and integrating its square; per-knot-cell
    # Gauss-Legendre (4 nodes) integrates the degree-6 integrand exactly
    net = small_net(seed=8)
    layer = net.layers[0]
    value = net.penalty(0.0, 1.0)[0]

    def cell_nodes(basis):
        cells = np.unique(basis.knots)
        bx, bw = np.polynomial.legendre.leggauss(4)
        xs = np.concatenate(
            [0.5 * (b - a) * bx + 0.5 * (a + b) for a, b in zip(cells, cells[1:])]
        )
        ws = np.concatenate([0.5 * (b - a) * bw for a, b in zip(cells, cells[1:])])
        return xs, ws

    xs_r, w_r = cell_nodes(layer.row_basis)
    xs_c, w_c = cell_nodes(layer.col_basis)
    d2_row = layer.row_basis.design(xs_r, 2)
    d0_row = layer.row_basis.design(xs_r)
    d2_col = layer.col_basis.design(xs_c, 2)
    d0_col = layer.col_basis.design(xs_c)

    dense = 0.0
    for lay in net.layers:
        for k in range(lay.out_count):
            for j in range(lay.in_count):
                coef = lay.w_coef[k, j]
                surf = d2_row @ coef @ d0_col.T + d0_row @ coef @ d2_col.T
                dense += float(w_r @ (surf * surf) @ w_c)
    npt.assert_allclose(value, dense, rtol=1e-6)


def test_intercept_penalty_is_curvature_only():
    net = small_net(seed=9)
    value = net.penalty(1.0, 0.0)[0]
    expected = 0.0
    for layer in net.layers:
        pen = layer.curvature_matrix
        for k in range(layer.out_count):
            expected += float(layer.b_coef[k] @ pen @ layer.b_coef[k])
    npt.assert_allclose(value, expected, rtol=1e-12)
    # freshly initialized intercepts are zero everywhere except possibly
    # the output layer, so the hidden contribution vanishes
    assert value >= 0.0


def test_init_determinism_and_shapes():
    a = small_net(seed=30)
    b = small_net(seed=30)
    for pa, pb in zip(a.parameters(), b.parameters()):
        npt.assert_array_equal(pa, pb)
    layer = a.layers[0]
    assert layer.b_coef.shape == (2, 5)
    assert layer.w_coef.shape == (2, 1, 5, 5)
    assert layer.design_col.shape == (10, 5)


def test_serialization_round_trip():
    net = small_net(seed=14, activation="sigmoid")
    clone = FbnnNetwork.from_dict(net.to_dict())
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 1, 10))
    npt.assert_array_equal(net.predict(x), clone.predict(x))
    assert clone.layers[0].row_basis == net.layers[0].row_basis


def test_config_validation():
    with pytest.raises(ValueError):
        FbnnConfig(10, 8, 1, (2,), (8, 8))
    with pytest.raises(ValueError):
        FbnnConfig(10, 8, 1, (2,), (8,), num_row_basis=2)
    with pytest.raises(ValueError):
        FbnnConfig(10, 8, 1, (2,), (8,), activation="step")


def test_training_reduces_loss():
    rng = np.random.default_rng(11)
    g_in, g_out = Grid(10), Grid(8)
    x = rng.normal(size=(25, 1, 10))
    beta = np.sin(2 * np.pi * g_in.points)
    y = np.outer(x[:, 0, :] @ (g_in.trapezoid_weights * beta),
                 np.cos(np.pi * g_out.points))
    net = small_net(seed=12)
    from funcnet.training import quadratic_loss

    before = quadratic_loss(net.predict(x), y, g_out)
    train_fixed(net, x, y, 80, TrainConfig(step_size=1e-2))
    after = quadratic_loss(net.predict(x), y, g_out)
    assert after < 0.5 * before


def test_parameter_count_is_independent_of_grid_size():
    # the whole point of the basis variant: grids refine, coefficients don't
    coarse = fbnn.init(
        FbnnConfig(10, 8, 1, (2,), (8,), 5, 5, 5), seed=1
    )
    fine = fbnn.init(
        FbnnConfig(40, 30, 1, (2,), (25,), 5, 5, 5), seed=1
    )
    for pc, pf in zip(coarse.parameters(), fine.parameters()):
        assert pc.shape == pf.shape
