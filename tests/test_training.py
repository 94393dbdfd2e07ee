"""Loss, optimizers, early stopping, CV strategies, and gradient auditing."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from funcnet import fdnn
from funcnet.fdnn import FdnnConfig
from funcnet.grids import Grid
from funcnet.training import (
    Adam,
    CvResult,
    ES_STRATEGIES,
    FitResult,
    PlainGradient,
    TrainConfig,
    TrainingDiverged,
    cv_early_stopping,
    fd_error,
    grad_check,
    quadratic_loss,
    rmse,
    train_early_stopping,
    train_fixed,
    tune_lambda,
)


def tiny_net(seed=0):
    return fdnn.init(FdnnConfig(10, 8, 1, (2,), (8,)), seed=seed)


def toy_data(n=40, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    g_in, g_out = Grid(10), Grid(8)
    x = rng.normal(size=(n, 1, g_in.m))
    beta = np.sin(2 * np.pi * g_in.points)
    y = np.outer(x[:, 0, :] @ (g_in.trapezoid_weights * beta),
                 np.cos(np.pi * g_out.points))
    if noise:
        y = y + noise * rng.standard_normal(y.shape)
    return x, y, g_out


# ---------------------------------------------------------------- losses


def test_quadratic_loss_constant_residual():
    # a residual identically equal to c integrates to c^2 over [0, 1]
    g = Grid(13)
    pred = np.full((5, 13), 2.0)
    truth = np.zeros((5, 13))
    npt.assert_allclose(quadratic_loss(pred, truth, g), 4.0, rtol=1e-14)
    npt.assert_allclose(rmse(pred, truth, g), 2.0, rtol=1e-14)


def test_quadratic_loss_promotes_single_curve():
    g = Grid(6)
    assert quadratic_loss(np.ones(6), np.zeros(6), g) == pytest.approx(1.0)


def test_quadratic_loss_shape_errors():
    g = Grid(6)
    with pytest.raises(ValueError):
        quadratic_loss(np.ones((2, 6)), np.ones((3, 6)), g)
    with pytest.raises(ValueError):
        quadratic_loss(np.ones((2, 5)), np.ones((2, 5)), g)


# ------------------------------------------------------------- optimizers


def reference_adam(params, grad_fn, steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam with explicit bias correction, kept for comparison."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        grads = grad_fn(params)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mhat = m[i] / (1 - b1**t)
            vhat = v[i] / (1 - b2**t)
            params[i] = params[i] - lr * mhat / (np.sqrt(vhat) + eps)
    return params


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(1)
    start = [rng.normal(size=(3, 4)), rng.normal(size=5)]
    target = [rng.normal(size=(3, 4)), rng.normal(size=5)]

    def grad_fn(ps):
        return [2.0 * (p - t) for p, t in zip(ps, target)]

    expected = reference_adam(start, grad_fn, steps=7, lr=0.05)

    live = [p.copy() for p in start]
    opt = Adam(step_size=0.05)
    for _ in range(7):
        opt.step(live, grad_fn(live))
    for a, b in zip(live, expected):
        npt.assert_allclose(a, b, rtol=1e-12)


def test_plain_gradient_step():
    p = [np.array([1.0, -2.0])]
    PlainGradient(0.1).step(p, [np.array([10.0, 10.0])])
    npt.assert_allclose(p[0], [0.0, -3.0])


# ------------------------------------------------------------ TrainConfig


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(step_size=0.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(ValueError):
        TrainConfig(lam_w=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    assert TrainConfig(patience=math.inf).patience == math.inf


@pytest.mark.parametrize("field, value", [
    ("step_size", math.nan), ("step_size", math.inf), ("patience", math.nan),
    ("lam_b", math.nan), ("lam_b", math.inf), ("lam_w", math.nan), ("lam_w", math.inf),
])
def test_train_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("eps", [0.0, -1e-5, math.nan, math.inf])
def test_fd_error_rejects_a_useless_step(eps):
    p, g = np.zeros(2), np.zeros(2)
    with pytest.raises(ValueError, match="eps"):
        fd_error(lambda: float(p @ p), [p], [g], eps=eps)


def test_train_fixed_rejects_negative_iterations():
    x, y, _ = toy_data(n=10)
    with pytest.raises(ValueError, match="iterations"):
        train_fixed(tiny_net(), x, y, -3, TrainConfig())


def test_train_config_replace():
    cfg = TrainConfig(step_size=1e-2, lam_w=0.5)
    other = cfg.replace(lam_w=0.0)
    assert other.lam_w == 0.0 and other.step_size == 1e-2
    assert cfg.lam_w == 0.5  # original untouched


# ------------------------------------------------------------ train_fixed


def test_train_fixed_zero_iterations_is_a_no_op():
    net = tiny_net(seed=2)
    x, y, _ = toy_data()
    before = [p.copy() for p in net.parameters()]
    res = train_fixed(net, x, y, 0, TrainConfig())
    for a, b in zip(net.parameters(), before):
        npt.assert_array_equal(a, b)
    assert res.stopping_iteration == 0
    assert res.train_loss.size == 0
    assert math.isnan(res.best_val_loss)


def test_train_fixed_runs_exact_count_and_improves():
    net = tiny_net(seed=2)
    x, y, g = toy_data()
    start = quadratic_loss(net.predict(x), y, g)
    res = train_fixed(net, x, y, 50, TrainConfig(step_size=1e-2))
    assert res.train_loss.shape == (50,)
    assert res.stopping_iteration == 50
    assert res.train_loss[-1] < 0.8 * start


def test_train_fixed_divergence_raises():
    net = tiny_net(seed=3)
    x, y, _ = toy_data()
    with pytest.raises(TrainingDiverged) as info:
        train_fixed(net, x, 1e6 * y, 200, TrainConfig(step_size=1e4, optimizer="gd"))
    assert info.value.iteration >= 1


def test_train_fixed_minibatch_determinism():
    x, y, _ = toy_data(n=30)
    cfg = TrainConfig(step_size=1e-2, batch_size=8, seed=5)
    net_a = tiny_net(seed=4)
    net_b = tiny_net(seed=4)
    train_fixed(net_a, x, y, 20, cfg)
    train_fixed(net_b, x, y, 20, cfg)
    for pa, pb in zip(net_a.parameters(), net_b.parameters()):
        npt.assert_array_equal(pa, pb)


# --------------------------------------------------------- early stopping


def test_early_stopping_restores_best_parameters():
    x, y, g = toy_data(n=40, noise=0.5)
    xv, yv = x[30:], y[30:]
    xt, yt = x[:30], y[:30]
    net = tiny_net(seed=6)
    res = train_early_stopping(net, (xt, yt), (xv, yv),
                               TrainConfig(step_size=5e-2, max_iterations=400,
                                           patience=20))
    # the restored model reproduces the reported best validation loss
    npt.assert_allclose(
        quadratic_loss(net.predict(xv), yv, g), res.best_val_loss, rtol=1e-12
    )
    assert res.best_iteration <= res.stopping_iteration
    assert len(res.train_loss) == res.stopping_iteration
    assert res.val_loss is not None and len(res.val_loss) == res.stopping_iteration


def test_early_stopping_initial_state_can_win():
    # with a destructive step size the starting parameters stay the best
    x, y, _ = toy_data(n=20, noise=0.1)
    net = tiny_net(seed=7)
    before = [p.copy() for p in net.parameters()]
    res = train_early_stopping(net, (x[:15], y[:15]), (x[15:], y[15:]),
                               TrainConfig(step_size=50.0, max_iterations=100,
                                           patience=5, optimizer="gd"))
    assert res.best_iteration == 0
    for a, b in zip(net.parameters(), before):
        npt.assert_array_equal(a, b)


def test_early_stopping_divergence_restores_best_parameters():
    x, y, _ = toy_data(n=20, noise=0.1)
    train, val = (x[:15], y[:15]), (x[15:], y[15:])
    cfg = TrainConfig(step_size=1e6, max_iterations=200, patience=math.inf,
                      optimizer="gd")
    net = tiny_net(seed=3)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TrainingDiverged) as info:
        train_early_stopping(net, train, val, cfg)
    # replaying the iterations before the divergence gives the best seen
    replay = train_early_stopping(tiny_net(seed=3), train, val,
                                  cfg.replace(max_iterations=info.value.iteration - 1))
    for got, best in zip(net.parameters(), replay.parameters):
        npt.assert_array_equal(got, best)


def test_early_stopping_needs_validation_curves():
    x, y, _ = toy_data(n=20)
    with pytest.raises(ValueError, match="at least one validation curve"):
        train_early_stopping(tiny_net(), (x, y), (x[:0], y[:0]), TrainConfig())


def test_early_stopping_patience_bounds_the_run():
    x, y, _ = toy_data(n=20)
    net = tiny_net(seed=8)
    res = train_early_stopping(net, (x[:15], y[:15]), (x[15:], y[15:]),
                               TrainConfig(step_size=1e-3, max_iterations=5000,
                                           patience=3))
    assert res.stopping_iteration <= 5000
    assert res.stopping_iteration - res.best_iteration <= 3 or \
        res.stopping_iteration == 5000


def test_early_stopping_infinite_patience_runs_to_cap():
    x, y, _ = toy_data(n=20)
    net = tiny_net(seed=9)
    res = train_early_stopping(net, (x[:15], y[:15]), (x[15:], y[15:]),
                               TrainConfig(step_size=1e-3, max_iterations=40,
                                           patience=math.inf))
    assert res.stopping_iteration == 40


# ------------------------------------------- the loop before it was merged


def _old_step(model, x, y, cfg, optimizer, rng, iteration):
    if cfg.batch_size is not None and cfg.batch_size < x.shape[0]:
        idx = rng.choice(x.shape[0], size=cfg.batch_size, replace=False)
        x, y = x[idx], y[idx]
    pred, cache = model.forward(x)
    resid = pred - y
    data_loss = float(((resid * resid) @ model.output_grid.trapezoid_weights).mean())
    grads = model.backward(cache, resid)
    if cfg.lam_b > 0 or cfg.lam_w > 0:
        pen_value, pen_grads = model.penalty(cfg.lam_b, cfg.lam_w)
        for g, pg in zip(grads, pen_grads):
            g += pg
    else:
        pen_value = 0.0
    if not np.isfinite(data_loss + pen_value):
        raise TrainingDiverged(iteration)
    optimizer.step(model.parameters(), grads)


def _old_optimizer(cfg):
    return Adam(cfg.step_size) if cfg.optimizer == "adam" else PlainGradient(cfg.step_size)


def old_train_fixed(model, x, y, iterations, cfg):
    """train_fixed as it was: step, then score the step with predict."""
    optimizer, rng = _old_optimizer(cfg), np.random.default_rng(cfg.seed)
    history = np.empty(iterations)
    for i in range(1, iterations + 1):
        _old_step(model, x, y, cfg, optimizer, rng, i)
        history[i - 1] = quadratic_loss(model.predict(x), y, model.output_grid)
        if not np.isfinite(history[i - 1]):
            raise TrainingDiverged(i)
    return history


def old_train_early_stopping(model, train, val, cfg):
    """train_early_stopping as it was: step, then predict the train and
    validation curves apart; returns (train, val, stopping, best)."""
    (x, y), (xv, yv), grid = train, val, model.output_grid
    optimizer, rng = _old_optimizer(cfg), np.random.default_rng(cfg.seed)
    best_val = quadratic_loss(model.predict(xv), yv, grid)
    best_params, best_iteration, since, stop = [p.copy() for p in model.parameters()], 0, 0, 0
    train_hist, val_hist = [], []
    try:
        for i in range(1, cfg.max_iterations + 1):
            _old_step(model, x, y, cfg, optimizer, rng, i)
            train_now = quadratic_loss(model.predict(x), y, grid)
            val_now = quadratic_loss(model.predict(xv), yv, grid)
            if not (np.isfinite(train_now) and np.isfinite(val_now)):
                raise TrainingDiverged(i)
            train_hist.append(train_now)
            val_hist.append(val_now)
            stop = i
            if val_now < best_val:
                best_val, best_iteration, since = val_now, i, 0
                best_params = [p.copy() for p in model.parameters()]
            else:
                since += 1
                if since >= cfg.patience:
                    break
    finally:
        model.set_parameters(best_params)
    return train_hist, val_hist, stop, best_iteration


def _assert_same_parameters(a, b):
    for pa, pb in zip(a.parameters(), b.parameters()):
        npt.assert_array_equal(pa, pb)


@pytest.mark.parametrize("cfg", [
    TrainConfig(step_size=0.3, max_iterations=200, patience=3),
    TrainConfig(step_size=0.05, max_iterations=30, patience=100, lam_b=1e-3, lam_w=1e-3),
    TrainConfig(step_size=0.05, max_iterations=30, patience=100, batch_size=9, seed=4),
], ids=["patience", "penalised", "minibatch"])
def test_early_stopping_matches_the_old_loop(cfg):
    x, y, _ = toy_data(n=40, noise=0.5)
    train, val = (x[:30], y[:30]), (x[30:], y[30:])
    new_net, old_net = tiny_net(seed=21), tiny_net(seed=21)
    res = train_early_stopping(new_net, train, val, cfg)
    train_hist, val_hist, stop, best = old_train_early_stopping(old_net, train, val, cfg)
    npt.assert_array_equal(res.train_loss, train_hist)
    npt.assert_array_equal(res.val_loss, val_hist)
    assert (res.stopping_iteration, res.best_iteration) == (stop, best)
    _assert_same_parameters(new_net, old_net)
    if cfg.patience == 3:
        assert stop < cfg.max_iterations  # patience ended the run


@pytest.mark.parametrize("cfg", [
    TrainConfig(step_size=0.05),
    TrainConfig(step_size=0.05, batch_size=7, seed=3, lam_w=1e-3),
], ids=["full", "minibatch"])
def test_train_fixed_matches_the_old_loop(cfg):
    x, y, _ = toy_data(n=30)
    new_net, old_net = tiny_net(seed=22), tiny_net(seed=22)
    res = train_fixed(new_net, x, y, 25, cfg)
    npt.assert_array_equal(res.train_loss, old_train_fixed(old_net, x, y, 25, cfg))
    assert res.stopping_iteration == res.best_iteration == 25
    _assert_same_parameters(new_net, old_net)


def test_divergence_matches_the_old_loop():
    x, y, _ = toy_data(n=20, noise=0.1)
    train, val = (x[:15], y[:15]), (x[15:], y[15:])
    cfg = TrainConfig(step_size=1e6, max_iterations=200, patience=math.inf, optimizer="gd")
    nets = tiny_net(seed=3), tiny_net(seed=3)
    raised = []
    with np.errstate(over="ignore", invalid="ignore"):
        for net, run in zip(nets, (train_early_stopping, old_train_early_stopping)):
            with pytest.raises(TrainingDiverged) as info:
                run(net, train, val, cfg)
            raised.append(info.value.iteration)
        assert raised[0] == raised[1]
        _assert_same_parameters(*nets)
        fixed = tiny_net(seed=3), tiny_net(seed=3)
        raised = []
        for net, run in zip(fixed, (train_fixed, old_train_fixed)):
            with pytest.raises(TrainingDiverged) as info:
                run(net, x, 1e6 * y, 200, TrainConfig(step_size=1e4, optimizer="gd"))
            raised.append(info.value.iteration)
        assert raised[0] == raised[1]
        _assert_same_parameters(*fixed)


def _count_calls(net):
    """The curve counts of each forward and predict call on ``net``,
    recorded from here on."""
    calls = {"forward": [], "predict": []}
    for name in calls:
        method = getattr(net, name)

        def counted(x_in, _name=name, _method=method):
            calls[_name].append(len(x_in))
            return _method(x_in)

        setattr(net, name, counted)
    return calls


def test_full_batch_early_stopping_runs_one_forward_per_iteration():
    x, y, _ = toy_data(n=20)
    net = tiny_net(seed=23)
    calls = _count_calls(net)
    res = train_early_stopping(net, (x[:15], y[:15]), (x[15:], y[15:]),
                               TrainConfig(step_size=1e-2, max_iterations=12,
                                           patience=math.inf))
    assert res.stopping_iteration == 12
    # one forward on the 15 train and 5 validation curves per step, plus
    # the one that scores the last step
    assert calls == {"forward": [20] * 13, "predict": []}


@pytest.mark.parametrize("mode", ["fixed", "early_stopping"])
def test_minibatch_training_runs_one_forward_on_all_curves_per_step(mode):
    x, y, _ = toy_data(n=20)
    net = tiny_net(seed=24)
    calls = _count_calls(net)
    cfg = TrainConfig(step_size=1e-2, max_iterations=12, patience=math.inf, batch_size=6)
    if mode == "fixed":
        res = train_fixed(net, x, y, 12, cfg)
    else:
        res = train_early_stopping(net, (x[:15], y[:15]), (x[15:], y[15:]), cfg)
    assert res.stopping_iteration == 12
    # one forward on all 20 curves per step, the step's batch first, plus
    # the one that scores the last step
    assert calls == {"forward": [20] * 13, "predict": []}


# -------------------------------------------------------------- FitResult


def test_fit_result_export_round_trip(tmp_path):
    net = tiny_net(seed=10)
    x, y, _ = toy_data(n=25)
    res = train_early_stopping(net, (x[:20], y[:20]), (x[20:], y[20:]),
                               TrainConfig(step_size=1e-2, max_iterations=30,
                                           patience=10))
    res.test_rmse = 1.234

    jpath = tmp_path / "fit.json"
    res.to_json(jpath)
    doc = json.loads(jpath.read_text())
    assert doc["best_iteration"] == res.best_iteration
    assert doc["test_rmse"] == 1.234
    npt.assert_allclose(doc["train_loss"], res.train_loss)

    cpath = tmp_path / "fit.csv"
    res.to_csv(cpath)
    rows = cpath.read_text().strip().splitlines()
    assert rows[0] == "iteration,train_loss,val_loss"
    assert len(rows) == 1 + res.stopping_iteration
    first = rows[1].split(",")
    assert float(first[1]) == res.train_loss[0]
    assert float(first[2]) == res.val_loss[0]


def test_fit_result_of_no_iterations_exports_strict_json(tmp_path):
    x, y, _ = toy_data(n=10)
    res = train_fixed(tiny_net(), x, y, 0, TrainConfig())
    jpath = tmp_path / "fit.json"
    res.to_json(jpath)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    assert json.loads(jpath.read_text(), parse_constant=refuse)["best_val_loss"] is None


# ------------------------------------------------------------------- CV


def test_cv_early_stopping_all_strategies():
    x, y, _ = toy_data(n=30, noise=0.3)
    cfg = TrainConfig(step_size=2e-2, max_iterations=60, patience=10, seed=3)

    def factory(seed):
        return fdnn.init(FdnnConfig(10, 8, 1, (2,), (8,)), seed=seed)

    for strategy in ES_STRATEGIES:
        model, info = cv_early_stopping(factory, (x, y), k=3,
                                        strategy=strategy, cfg=cfg)
        assert isinstance(info, CvResult)
        assert info.strategy == strategy
        assert len(info.fold_best_iterations) == 3
        pred = model.predict(x)
        assert np.all(np.isfinite(pred))
        if strategy == "wavg":
            assert info.aggregate_iterations is None
        else:
            assert info.aggregate_iterations is not None


def test_cv_aggregation_rules():
    x, y, _ = toy_data(n=30, noise=0.3)
    cfg = TrainConfig(step_size=2e-2, max_iterations=60, patience=10, seed=3)

    def factory(seed):
        return fdnn.init(FdnnConfig(10, 8, 1, (2,), (8,)), seed=seed)

    per_strategy = {}
    for strategy in ("mean", "median", "max", "min"):
        _, info = cv_early_stopping(factory, (x, y), k=3,
                                    strategy=strategy, cfg=cfg)
        per_strategy[strategy] = info

    # the same seed yields the same folds, so the per-fold numbers agree
    folds = per_strategy["mean"].fold_best_iterations
    for info in per_strategy.values():
        assert info.fold_best_iterations == folds
    assert per_strategy["max"].aggregate_iterations == max(folds)
    assert per_strategy["min"].aggregate_iterations == min(folds)
    assert per_strategy["mean"].aggregate_iterations == int(
        round(float(np.mean(folds)))
    )
    assert per_strategy["median"].aggregate_iterations == int(
        round(float(np.median(folds)))
    )


def test_cv_retrain_is_reproducible():
    x, y, _ = toy_data(n=24, noise=0.2)
    cfg = TrainConfig(step_size=2e-2, max_iterations=40, patience=8, seed=11)

    def factory(seed):
        return fdnn.init(FdnnConfig(10, 8, 1, (2,), (8,)), seed=seed)

    model_a, info_a = cv_early_stopping(factory, (x, y), k=3, cfg=cfg)
    model_b, info_b = cv_early_stopping(factory, (x, y), k=3, cfg=cfg)
    assert info_a.aggregate_iterations == info_b.aggregate_iterations
    for pa, pb in zip(model_a.parameters(), model_b.parameters()):
        npt.assert_array_equal(pa, pb)


def test_cv_validates_arguments():
    x, y, _ = toy_data(n=10)

    def factory(seed):
        return tiny_net(0)

    with pytest.raises(ValueError):
        cv_early_stopping(factory, (x, y), k=1)
    with pytest.raises(ValueError):
        cv_early_stopping(factory, (x, y), k=11)
    with pytest.raises(ValueError):
        cv_early_stopping(factory, (x, y), strategy="mode")


# ------------------------------------------------------------ tune_lambda


def test_tune_lambda_returns_grid_member_and_prefers_smoothing_on_noise():
    # pure-noise response: any positive smoothing can only help validation
    rng = np.random.default_rng(12)
    x = rng.normal(size=(24, 1, 10))
    y = rng.standard_normal((24, 8))
    cfg = TrainConfig(step_size=2e-2, max_iterations=30, patience=30, seed=2)

    def factory(seed):
        return fdnn.init(FdnnConfig(10, 8, 1, (2,), (8,)), seed=seed)

    grid = [0.0, 1e-3, 1e-1]
    pick = tune_lambda(factory, (x, y), grid, k=3, cfg=cfg)
    assert pick in {(g, g) for g in grid}


def test_tune_lambda_accepts_pairs_and_rejects_empty():
    x, y, _ = toy_data(n=18, noise=0.2)
    cfg = TrainConfig(step_size=2e-2, max_iterations=15, patience=15, seed=4)

    def factory(seed):
        return fdnn.init(FdnnConfig(10, 8, 1, (2,), (8,)), seed=seed)

    pick = tune_lambda(factory, (x, y), [(0.0, 1e-2), (1e-2, 0.0)], k=3, cfg=cfg)
    assert pick in ((0.0, 1e-2), (1e-2, 0.0))
    with pytest.raises(ValueError):
        tune_lambda(factory, (x, y), [], k=3, cfg=cfg)


# ------------------------------------------------------------- grad_check


def test_grad_check_flags_a_corrupted_gradient():
    net = tiny_net(seed=13)
    x, y, _ = toy_data(n=12)
    clean = grad_check(net, x, y, eps=1e-5)
    assert clean < 1e-4

    original = net.backward

    def broken(cache, resid):
        grads = original(cache, resid)
        grads[0] = grads[0] + 1.0
        return grads

    net.backward = broken
    assert grad_check(net, x, y, eps=1e-5) > 1e-2


def test_grad_check_fails_on_a_nan_parameter():
    # max(worst, nan) keeps worst: a NaN error must not read as a perfect audit
    net = tiny_net(seed=13)
    x, y, _ = toy_data(n=3)
    net.layers[0].b[0, 0] = np.nan
    assert not grad_check(net, x, y, eps=1e-5) <= 1e-4
    p, g = np.ones(3), np.array([2.0, np.nan, 2.0])
    assert math.isnan(fd_error(lambda: float(p @ p), [p], [g]))


def test_grad_check_subsampling_matches_full_on_small_net():
    net = tiny_net(seed=14)
    x, y, _ = toy_data(n=10)
    full = grad_check(net, x, y, eps=1e-5)
    sub = grad_check(net, x, y, eps=1e-5, max_coords=10_000)
    npt.assert_allclose(full, sub)
