"""Direct grid-valued functional network: forward oracle, exact gradients,
penalties, and serialization."""

import numpy as np
import numpy.testing as npt
import pytest

from funcnet import fbnn, fdnn
from funcnet.activations import Activation
from funcnet.baselines import vnn_init
from funcnet.fbnn import FbnnConfig
from funcnet.fdnn import FdnnConfig, FdnnLayer, FdnnNetwork
from funcnet.grids import Grid, second_diff
from funcnet.training import grad_check, quadratic_loss


def small_net(seed=0, activation="tanh"):
    cfg = FdnnConfig(
        input_points=10,
        output_points=8,
        input_count=1,
        hidden_neurons=(2, 2),
        hidden_points=(8, 8),
        activation=activation,
    )
    return fdnn.init(cfg, seed=seed)


def loop_forward(net, x):
    """Evaluate the network sample by sample with explicit Python loops."""
    n = x.shape[0]
    out = np.empty((n, net.output_grid.m))
    for i in range(n):
        h = [x[i, j] for j in range(net.input_count)]
        for layer in net.layers:
            q = layer.in_grid.trapezoid_weights
            nxt = []
            for k in range(layer.out_count):
                a = layer.b[k].copy()
                for j in range(len(h)):
                    # integral of w_{j,k}(s, t) h_j(t) dt for every s
                    for s_idx in range(layer.out_grid.m):
                        a[s_idx] += float(np.sum(q * layer.w[k, j, s_idx] * h[j]))
                nxt.append(layer.activation(a))
            h = nxt
        out[i] = h[0]
    return out


def test_forward_matches_loop_oracle():
    net = small_net(seed=3)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 1, 10))
    pred, cache = net.forward(x)
    npt.assert_allclose(pred, loop_forward(net, x), rtol=1e-12, atol=1e-14)
    assert len(cache) == len(net.layers)


def test_predict_shapes_and_input_validation():
    net = small_net()
    x = np.zeros((5, 1, 10))
    assert net.predict(x).shape == (5, 8)
    with pytest.raises(ValueError):
        net.predict(np.zeros((5, 2, 10)))
    with pytest.raises(ValueError):
        net.predict(np.zeros((5, 1, 9)))


def test_init_is_deterministic_and_seed_sensitive():
    a = small_net(seed=11)
    b = small_net(seed=11)
    c = small_net(seed=12)
    for pa, pb in zip(a.parameters(), b.parameters()):
        npt.assert_array_equal(pa, pb)
    assert any(
        np.abs(pa - pc).max() > 1e-12
        for pa, pc in zip(a.parameters(), c.parameters())
    )


def test_init_zero_intercepts_identity_output():
    net = small_net(seed=5)
    for layer in net.layers[:-1]:
        npt.assert_array_equal(layer.b, 0.0)
    assert net.layers[-1].activation == Activation("identity")


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 1, 10))
    y = rng.normal(size=(6, 8))
    for activation in ("tanh", "relu", "sigmoid"):
        net = small_net(seed=2, activation=activation)
        err = grad_check(net, x, y, eps=1e-5)
        assert err < 1e-4, f"{activation}: worst rel err {err:.3g}"


def test_penalty_gradient_matches_finite_differences():
    net = small_net(seed=4)
    value, grads = net.penalty(lam_b=0.7, lam_w=1.3)
    assert value > 0.0
    eps = 1e-6
    params = net.parameters()
    rng = np.random.default_rng(0)
    for p_idx in range(len(params)):
        flat = params[p_idx].reshape(-1)
        for c in rng.choice(flat.size, size=5, replace=False):
            keep = flat[c]
            flat[c] = keep + eps
            up = net.penalty(0.7, 1.3)[0]
            flat[c] = keep - eps
            dn = net.penalty(0.7, 1.3)[0]
            flat[c] = keep
            fd = (up - dn) / (2 * eps)
            npt.assert_allclose(grads[p_idx].reshape(-1)[c], fd, rtol=1e-4, atol=1e-8)


def test_penalty_value_is_quadrature_of_second_differences():
    net = small_net(seed=6)
    value, _ = net.penalty(lam_b=1.0, lam_w=0.0)
    expected = 0.0
    for layer in net.layers:
        q = layer.out_grid.trapezoid_weights
        d = second_diff(layer.b, layer.out_grid.h, axis=-1)
        expected += float(np.sum((d * d) @ q))
    npt.assert_allclose(value, expected, rtol=1e-12)


def test_penalty_zero_lambda_returns_zero_grads():
    net = small_net(seed=1)
    value, grads = net.penalty(0.0, 0.0)
    assert value == 0.0
    for g in grads:
        npt.assert_array_equal(g, 0.0)


def test_hidden_neuron_permutation_leaves_output_unchanged():
    # relabeling the neurons of a hidden layer, together with the matching
    # rows/columns of the adjacent weights, is a symmetry of the network
    net = small_net(seed=9)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 1, 10))
    before = net.predict(x)

    perm = np.array([1, 0])
    first, second = net.layers[0], net.layers[1]
    first.b = first.b[perm]
    first.w = first.w[perm]
    second.w = second.w[:, perm]

    npt.assert_allclose(net.predict(x), before, rtol=1e-12)


def test_serialization_round_trip():
    net = small_net(seed=13, activation="relu")
    doc = net.to_dict()
    clone = FdnnNetwork.from_dict(doc)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 1, 10))
    npt.assert_array_equal(net.predict(x), clone.predict(x))
    for pa, pb in zip(net.parameters(), clone.parameters()):
        npt.assert_array_equal(pa, pb)


def test_config_validation():
    with pytest.raises(ValueError):
        FdnnConfig(10, 8, 1, (4,), (50, 50))  # neuron/grid length mismatch
    with pytest.raises(ValueError):
        FdnnConfig(10, 8, 0, (4,), (50,))
    with pytest.raises(ValueError):
        FdnnConfig(10, 8, 1, (4,), (50,), activation="softplus")


def test_zero_hidden_layer_network_is_linear():
    # with no hidden layers the model is an integral operator plus intercept,
    # so predictions are affine in the input
    cfg = FdnnConfig(10, 8, 1, (), ())
    net = fdnn.init(cfg, seed=7)
    rng = np.random.default_rng(4)
    x1 = rng.normal(size=(1, 1, 10))
    x2 = rng.normal(size=(1, 1, 10))
    zero = np.zeros((1, 1, 10))
    base = net.predict(zero)
    lhs = net.predict(x1 + x2) - base
    rhs = (net.predict(x1) - base) + (net.predict(x2) - base)
    npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_layer_shape_validation():
    g10, g8 = Grid(10), Grid(8)
    act = Activation("tanh")
    with pytest.raises(ValueError):
        FdnnLayer(np.zeros((2, 8)), np.zeros((2, 1, 8, 9)), g10, g8, act)
    with pytest.raises(ValueError):
        FdnnNetwork([], g10, 1)


def test_training_reduces_loss_on_learnable_target():
    # sanity: a few gradient steps on a rank-one linear target reduce loss
    from funcnet.training import TrainConfig, train_fixed

    rng = np.random.default_rng(10)
    g_in, g_out = Grid(10), Grid(8)
    x = rng.normal(size=(30, 1, 10))
    beta = np.sin(2 * np.pi * g_in.points)
    y = np.outer(x[:, 0, :] @ (g_in.trapezoid_weights * beta),
                 np.cos(np.pi * g_out.points))
    net = small_net(seed=1)
    before = quadratic_loss(net.predict(x), y, g_out)
    train_fixed(net, x, y, 60, TrainConfig(step_size=1e-2))
    after = quadratic_loss(net.predict(x), y, g_out)
    assert after < 0.5 * before


# ------------------------------------------------------------------
# scratch buffers: what the network hands back stays the caller's
# ------------------------------------------------------------------


def test_predictions_survive_later_predicts():
    net = small_net(seed=14)
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(7, 1, 10)), rng.normal(size=(7, 1, 10))
    p1 = net.predict(a)
    kept = p1.copy()
    net.predict(b)
    net.forward(b)
    npt.assert_array_equal(p1, kept)


def test_gradients_survive_later_predicts_and_penalties():
    net = small_net(seed=15)
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(6, 1, 10)), rng.normal(size=(6, 8))
    pred, cache = net.forward(x)
    grads = net.backward(cache, pred - y)
    _, pen_grads = net.penalty(0.5, 0.5)
    kept = [g.copy() for g in grads + pen_grads]
    net.predict(rng.normal(size=(9, 1, 10)))
    net.penalty(2.0, 3.0)
    for g, k in zip(grads + pen_grads, kept):
        npt.assert_array_equal(g, k)


def test_backward_rejects_a_stale_cache():
    # every network kind runs the same loop, so the stamp guards them all
    makers = (
        small_net,
        lambda seed: fbnn.init(FbnnConfig(10, 8, 1, (2,), (8,), 5, 5, 5), seed=seed),
        lambda seed: vnn_init(1, 10, 8, hidden=(5, 4), seed=seed),
    )
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=(4, 1, 10)), rng.normal(size=(4, 8))
    for make in makers:
        net = make(16)
        pred, cache = net.forward(x)
        net.predict(x)  # predict keeps the cache valid
        net.backward(cache, pred - y)
        net.forward(x)
        with pytest.raises(ValueError, match="stale"):
            net.backward(cache, pred - y)
        with pytest.raises(ValueError, match="stale"):
            make(16).backward(net.forward(x)[1], pred - y)


@pytest.mark.parametrize("make", [
    lambda seed: small_net(seed, activation="relu"),
    lambda seed: fbnn.init(FbnnConfig(10, 8, 1, (2, 3), (8, 6), 5, 5, 5), seed=seed),
    lambda seed: vnn_init(1, 10, 8, hidden=(5, 4), seed=seed),
], ids=["fdnn", "fbnn", "vnn"])
@pytest.mark.parametrize("n, extra", [(6, 3), (40, 17)])
def test_backward_on_leading_rows_matches_a_forward_on_them(make, n, extra):
    # training forwards the stacked train and validation curves and runs
    # backward on the train rows only
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(n + extra, 1, 10)), rng.normal(size=(n, 8))
    net = make(18)
    pred, cache = net.forward(x[:n])
    expected = net.backward(cache, pred - y)
    stacked, cache = net.forward(x)
    npt.assert_array_equal(stacked[:n], pred)
    for got, want in zip(net.backward(cache, stacked[:n] - y), expected):
        npt.assert_array_equal(got, want)
    _, cache = net.forward(x[:n - 1])
    with pytest.raises(ValueError, match="does not match"):
        net.backward(cache, pred - y)


def test_mixed_batch_sizes_match_loop_oracle():
    net = small_net(seed=17, activation="relu")
    rng = np.random.default_rng(8)
    for n in (500, 100, 500):
        x = rng.normal(size=(n, 1, 10))
        expected = loop_forward(net, x)
        npt.assert_allclose(net.predict(x), expected, rtol=1e-12, atol=1e-14)
        npt.assert_allclose(net.forward(x)[0], expected, rtol=1e-12, atol=1e-14)


def _padded_second_diff(values, h, axis):
    """Zero-padded central second difference, written out directly."""
    v = np.moveaxis(values, axis, -1)
    out = np.zeros_like(v)
    out[..., 1:-1] = (v[..., :-2] - 2.0 * v[..., 1:-1] + v[..., 2:]) / (h * h)
    return np.moveaxis(out, -1, axis)


def test_penalty_matches_dense_operator_oracle():
    net = small_net(seed=18)
    lam_b, lam_w = 0.7, 1.3
    value, grads = net.penalty(lam_b, lam_w)
    expected_value = 0.0
    for idx, layer in enumerate(net.layers):
        hs, ht = layer.out_grid.h, layer.in_grid.h
        qs, qt = layer.out_grid.trapezoid_weights, layer.in_grid.trapezoid_weights
        ds = _padded_second_diff(np.eye(layer.out_grid.m), hs, axis=0)  # D e_j in column j
        dt = _padded_second_diff(np.eye(layer.in_grid.m), ht, axis=0)

        d2b = _padded_second_diff(layer.b, hs, axis=1)
        expected_value += lam_b * np.sum(d2b * d2b * qs)
        npt.assert_allclose(grads[2 * idx], 2.0 * lam_b * (qs * d2b) @ ds,
                            rtol=1e-12, atol=1e-12)

        lap = (_padded_second_diff(layer.w, hs, axis=2)
               + _padded_second_diff(layer.w, ht, axis=3))
        quad = qs[:, None] * qt[None, :]
        expected_value += lam_w * np.sum(lap * lap * quad)
        u = quad * lap
        gw = np.einsum("ia,kjit->kjat", ds, u) + np.einsum("kjsi,ia->kjsa", u, dt)
        npt.assert_allclose(grads[2 * idx + 1], 2.0 * lam_w * gw, rtol=1e-12, atol=1e-9)
    npt.assert_allclose(value, expected_value, rtol=1e-12)
