"""Reference estimators: penalized function-on-function linear model and the
flattened vector neural network."""

import numpy as np
import numpy.testing as npt
import pytest

from funcnet.baselines import (
    FflmModel,
    VectorNN,
    fflm_fit,
    fflm_tune_lambda,
    vnn_init,
)
from funcnet.datagen import FuncDataset, generate
from funcnet.grids import Grid, second_diff
from funcnet.training import (
    TrainConfig,
    grad_check,
    quadratic_loss,
    rmse,
    train_early_stopping,
)


def linear_dataset(n=80, m=30, m_y=20, seed=0, noise=0.0):
    data = generate("linear", n=n, m=m, m_y=m_y, seed=seed)
    if noise == 0.0:
        return FuncDataset(data.x, data.y_clean, data.x_grid, data.y_grid)
    return data


def intercept_values(model):
    """The fitted intercept alpha on the response grid."""
    layer = model.layers[0]
    return layer.intercept_basis.design(layer.out_grid.points) @ layer.b_coef[0]


def beta_surface(model, r=0):
    """Coefficient surface beta_r on the (m, m_y) grid, s along rows."""
    layer = model.layers[0]
    vp = layer.col_basis.design(layer.in_grid.points)  # predictor basis
    vr = layer.row_basis.design(layer.out_grid.points)  # response basis
    return vp @ layer.w_coef[0, r].T @ vr.T


# --------------------------------------------------------------------- FFLM


def test_fflm_recovers_its_own_model():
    # build a dataset from a randomly drawn FFLM and refit with the same
    # bases: the least-squares solution must reproduce the predictions
    base = linear_dataset(n=90, seed=1)
    template = fflm_fit(base, num_intercept_basis=6, num_pred_basis=6,
                        num_resp_basis=6)
    layer = template.layers[0]
    rng = np.random.default_rng(5)
    truth = FflmModel.from_coefficients(
        rng.normal(size=layer.intercept_basis.num_basis),
        rng.normal(size=(layer.in_count, layer.col_basis.num_basis,
                         layer.row_basis.num_basis)),
        layer.intercept_basis,
        layer.col_basis,
        layer.row_basis,
        base.x_grid,
        base.y_grid,
    )
    clean = FuncDataset(base.x, truth.predict(base.x), base.x_grid, base.y_grid)
    refit = fflm_fit(clean, num_intercept_basis=6, num_pred_basis=6,
                     num_resp_basis=6)
    err = rmse(refit.predict(base.x), clean.y, base.y_grid)
    assert err < 1e-6


def test_fflm_fits_the_linear_scenario_exactly_without_noise():
    # the true response is exactly linear in the predictor, so the only
    # error left is spline approximation of the coefficient surface; it
    # should collapse once the basis is rich enough
    data = linear_dataset(n=100, seed=2)
    coarse = fflm_fit(data)
    assert rmse(coarse.predict(data.x), data.y, data.y_grid) < 5e-3
    rich = fflm_fit(data, num_intercept_basis=20, num_pred_basis=20,
                    num_resp_basis=20)
    assert rmse(rich.predict(data.x), data.y, data.y_grid) < 1e-6


def test_fflm_is_deterministic_and_permutation_invariant():
    data = linear_dataset(n=60, seed=3, noise=1.0)
    a = fflm_fit(data).layers[0]
    b = fflm_fit(data).layers[0]
    npt.assert_array_equal(a.w_coef, b.w_coef)

    perm = np.random.default_rng(0).permutation(data.n)
    shuffled = data.subset(perm)
    c = fflm_fit(shuffled).layers[0]
    npt.assert_allclose(a.w_coef, c.w_coef, atol=1e-8)
    npt.assert_allclose(a.b_coef, c.b_coef, atol=1e-8)


def test_fflm_penalty_flattens_the_surface():
    data = linear_dataset(n=70, seed=4, noise=1.0)
    rough_vals = []
    for lam in (0.0, 1e-2, 1e2):
        model = fflm_fit(data, lam=lam)
        beta = beta_surface(model)
        g_s, g_t = data.x_grid, data.y_grid
        lap = second_diff(beta, g_s.h, axis=0) + second_diff(beta, g_t.h, axis=1)
        rough_vals.append(
            float(g_s.trapezoid_weights @ (lap * lap) @ g_t.trapezoid_weights)
        )
    assert rough_vals[0] > rough_vals[1] > rough_vals[2]


def test_fflm_predictions_worsen_gracefully_with_heavy_smoothing():
    data = linear_dataset(n=70, seed=6, noise=1.0)
    free = fflm_fit(data, lam=0.0)
    stiff = fflm_fit(data, lam=1e6)
    err_free = rmse(free.predict(data.x), data.y, data.y_grid)
    err_stiff = rmse(stiff.predict(data.x), data.y, data.y_grid)
    assert err_stiff > err_free


def test_fflm_singular_design_raises():
    data = linear_dataset(n=2, seed=7)  # far fewer samples than coefficients
    with pytest.raises(np.linalg.LinAlgError):
        fflm_fit(data, lam=0.0)


def test_fflm_serialization_round_trip():
    data = linear_dataset(n=60, seed=8, noise=0.5)
    model = fflm_fit(data)
    clone = FflmModel.from_dict(model.to_dict())
    npt.assert_array_equal(model.predict(data.x), clone.predict(data.x))


def test_fflm_tune_lambda_returns_grid_member():
    data = linear_dataset(n=40, m=20, m_y=12, seed=9, noise=1.0)
    grid = (0.0, 1e-3, 1e3)
    pick = fflm_tune_lambda(data, grid, k=4, seed=1,
                            num_intercept_basis=5, num_pred_basis=5,
                            num_resp_basis=5)
    assert pick in grid
    with pytest.raises(ValueError):
        fflm_tune_lambda(data, (), k=4)


def test_fflm_intercept_values_shape():
    data = linear_dataset(n=50, seed=10)
    model = fflm_fit(data)
    assert intercept_values(model).shape == (data.y_grid.m,)
    assert beta_surface(model).shape == (data.x_grid.m, data.y_grid.m)


# ---------------------------------------------------------------- vector NN


def test_vnn_zero_weights_predict_zero():
    net = vnn_init(1, 12, 8, hidden=(6,), seed=0)
    for layer in net.layers:
        layer.w[:] = 0.0
        layer.b[:] = 0.0
    x = np.random.default_rng(1).normal(size=(4, 1, 12))
    npt.assert_array_equal(net.predict(x), np.zeros((4, 8)))


def test_vnn_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(7, 1, 12))
    y = rng.normal(size=(7, 8))
    for activation in ("tanh", "relu"):
        net = vnn_init(1, 12, 8, hidden=(6, 5), activation=activation, seed=3)
        err = grad_check(net, x, y, eps=1e-5)
        assert err < 1e-4, f"{activation}: worst rel err {err:.3g}"


def test_vnn_penalty_not_supported():
    net = vnn_init(1, 10, 6, hidden=(4,), seed=4)
    value, grads = net.penalty(0.0, 0.0)
    assert value == 0.0
    with pytest.raises(ValueError):
        net.penalty(0.0, 0.1)


def test_vnn_training_improves_on_linear_target():
    data = linear_dataset(n=80, m=20, m_y=12, seed=11)
    x, y = data.x, data.y
    net = vnn_init(1, 20, 12, hidden=(16,), seed=5)
    before = quadratic_loss(net.predict(x), y, data.y_grid)
    fit = train_early_stopping(net, (x[:60], y[:60]), (x[60:], y[60:]),
                               TrainConfig(step_size=1e-2, max_iterations=300,
                                           patience=50))
    after = quadratic_loss(net.predict(x), y, data.y_grid)
    assert after < 0.3 * before
    assert fit.best_iteration > 0


def test_vnn_serialization_round_trip():
    net = vnn_init(1, 10, 6, hidden=(5, 4), activation="relu", seed=6)
    clone = VectorNN.from_dict(net.to_dict())
    x = np.random.default_rng(7).normal(size=(3, 1, 10))
    npt.assert_array_equal(net.predict(x), clone.predict(x))


def test_vnn_init_determinism():
    a = vnn_init(1, 10, 6, hidden=(5,), seed=8)
    b = vnn_init(1, 10, 6, hidden=(5,), seed=8)
    c = vnn_init(1, 10, 6, hidden=(5,), seed=9)
    for pa, pb in zip(a.parameters(), b.parameters()):
        npt.assert_array_equal(pa, pb)
    assert any(np.abs(la.w - lc.w).max() > 1e-12 for la, lc in zip(a.layers, c.layers))


def test_vnn_validates_input_shape():
    net = vnn_init(1, 10, 6, hidden=(5,), seed=10)
    with pytest.raises(ValueError):
        net.predict(np.zeros((3, 1, 11)))
