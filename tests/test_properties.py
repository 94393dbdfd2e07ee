"""Property checks over random small architectures of every network kind:
exact gradients, serialization round trips and, for the basis network,
equivalence with its direct expansion; and, for the linear model, recovery
of noiseless data and a closed form at which the network gradient vanishes."""

import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcnet import fbnn, fdnn
from funcnet.baselines import FflmModel, VectorNN, fflm_fit, vnn_init
from funcnet.bsplines import BSplineBasis
from funcnet.datagen import FuncDataset
from funcnet.fbnn import FbnnConfig, FbnnNetwork, expand_to_direct
from funcnet.fdnn import FdnnConfig, FdnnNetwork
from funcnet.grids import Grid
from funcnet.training import grad_check, rmse

KINDS = ("fdnn", "fbnn", "vnn")
CLASSES = {"fdnn": FdnnNetwork, "fbnn": FbnnNetwork, "vnn": VectorNN}

# 0-2 hidden layers of 1-3 neurons on grids of 4-9 points
ARCHITECTURES = st.fixed_dictionaries({
    "hidden": st.lists(st.tuples(st.integers(1, 3), st.integers(4, 9)), max_size=2),
    "m": st.integers(4, 9),
    "m_y": st.integers(4, 9),
    "num_basis": st.integers(4, 6),
    "activation": st.sampled_from(["tanh", "sigmoid"]),
    "seed": st.integers(0, 2**16),
})

FEW = settings(derandomize=True, max_examples=25, deadline=None)


def make(kind, arch):
    neurons = tuple(k for k, _ in arch["hidden"])
    points = tuple(m for _, m in arch["hidden"])
    m, m_y, act, seed = arch["m"], arch["m_y"], arch["activation"], arch["seed"]
    if kind == "fdnn":
        return fdnn.init(FdnnConfig(m, m_y, 1, neurons, points, act), seed)
    if kind == "fbnn":
        nb = arch["num_basis"]
        return fbnn.init(FbnnConfig(m, m_y, 1, neurons, points, nb, nb, nb, 4, act), seed)
    return vnn_init(1, m, m_y, neurons, act, seed)


def batch(arch, n=3):
    rng = np.random.default_rng(arch["seed"] + 1)
    return rng.normal(size=(n, 1, arch["m"])), rng.normal(size=(n, arch["m_y"]))


@pytest.mark.parametrize("kind", KINDS)
@FEW
@given(arch=ARCHITECTURES)
def test_gradients_match_finite_differences(kind, arch):
    # some coordinates of these small nets have gradients near 1e-8, where
    # the roundoff of a central difference with eps = 1e-5 alone reaches
    # 1e-4 of the gradient; eps = 1e-4 keeps it well below
    x, y = batch(arch)
    assert grad_check(make(kind, arch), x, y, eps=1e-4) <= 1e-4


@pytest.mark.parametrize("kind", KINDS)
@FEW
@given(arch=ARCHITECTURES)
def test_model_document_round_trip_predicts_identically(kind, arch):
    net = make(kind, arch)
    x, _ = batch(arch, n=5)
    clone = CLASSES[kind].from_dict(json.loads(json.dumps(net.to_dict())))
    npt.assert_array_equal(clone.predict(x), net.predict(x))


@FEW
@given(arch=ARCHITECTURES)
def test_expand_to_direct_predicts_the_same(arch):
    net = make("fbnn", arch)
    x, _ = batch(arch, n=5)
    npt.assert_allclose(expand_to_direct(net).predict(x), net.predict(x), rtol=0, atol=1e-10)


@FEW
@given(sizes=st.tuples(*[st.integers(5, 8)] * 3), r_count=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**16))
def test_fflm_recovers_noiseless_data_of_its_own_bases(sizes, r_count, seed):
    rng = np.random.default_rng(seed)
    x_grid, y_grid = Grid(20), Grid(15)
    b, c, d = sizes
    truth = FflmModel.from_coefficients(rng.normal(size=b), rng.normal(size=(r_count, c, d)),
                                        BSplineBasis(b), BSplineBasis(c), BSplineBasis(d),
                                        x_grid, y_grid)
    x = rng.normal(size=(60, r_count, x_grid.m))
    data = FuncDataset(x, truth.predict(x), x_grid, y_grid)
    refit = fflm_fit(data, b, c, d)
    assert rmse(refit.predict(x), data.y, y_grid) < 1e-6


@FEW
@given(sizes=st.tuples(*[st.integers(5, 8)] * 3), r_count=st.sampled_from([1, 2]),
       lam=st.sampled_from([0.0, 1e-3, 0.1]), seed=st.integers(0, 2**16))
def test_fflm_solution_is_a_stationary_point_of_the_network_objective(sizes, r_count,
                                                                      lam, seed):
    # the closed form minimizes the network loss plus penalty(0, lam), so the
    # network's exact gradient of that objective vanishes at the solution
    rng = np.random.default_rng(seed)
    x_grid, y_grid = Grid(20), Grid(15)
    x = rng.normal(size=(60, r_count, x_grid.m))
    y = rng.normal(size=(60, y_grid.m))
    model = fflm_fit(FuncDataset(x, y, x_grid, y_grid), *sizes, lam=lam)

    def gradient():
        pred, cache = model.forward(x)
        return model.penalty(0.0, lam, model.backward(cache, pred - y))[1]

    at_solution = gradient()
    model.set_parameters([np.zeros_like(p) for p in model.parameters()])
    for grad, at_zero in zip(at_solution, gradient(), strict=True):
        assert np.abs(grad).max() <= 1e-7 * np.abs(at_zero).max()
