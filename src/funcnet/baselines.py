"""Reference estimators: penalized functional linear model and a vector net.

The linear model is the basis network without a hidden layer, fitted in
closed form.  The vector network flattens the predictor curves into a
standard dense net.  Both run the shared network loop, so predictions,
penalties and gradients (and, for the vector net, training) come from it.
"""

from __future__ import annotations

import numpy as np

from . import training
from .activations import Activation
from .bsplines import BSplineBasis, laplacian_penalty_matrix
from .fbnn import FbnnLayer
from .grids import Grid
from .network import Network

# the model document's basis entries, in from_coefficients' order
_BASIS_KEYS = ("intercept_basis", "pred_basis", "resp_basis")


class FflmModel(Network):
    """Linear model Y(t) = alpha(t) + sum_r ∫ beta_r(s,t) X_r(s) ds: the basis
    network without a hidden layer.  Its one identity :class:`FbnnLayer`
    holds alpha in ``b_coef[0]`` and beta_r[c, d] (c on the predictor axis)
    in ``w_coef[0, r, d, c]``: rows on the response basis, columns on the
    predictor basis.  ``lam`` is the surface penalty it was fitted with."""

    kind = "fflm"
    layer_type = FbnnLayer

    def __init__(self, layers: list[FbnnLayer], input_grid: Grid, input_count: int,
                 lam: float = 0.0):
        super().__init__(layers, input_grid, input_count)
        self.lam = lam

    @classmethod
    def from_coefficients(cls, alpha, beta, intercept_basis: BSplineBasis,
                          pred_basis: BSplineBasis, resp_basis: BSplineBasis,
                          x_grid: Grid, y_grid: Grid, lam: float = 0.0) -> "FflmModel":
        """The model of intercept coefficients ``alpha`` (B,) and surface
        coefficients ``beta`` (R, C, D), C on the predictor axis."""
        beta = np.asarray(beta, dtype=float)
        layer = FbnnLayer(np.asarray(alpha, dtype=float)[None], beta.transpose(0, 2, 1)[None],
                          intercept_basis, resp_basis, pred_basis, x_grid, y_grid,
                          Activation("identity"))
        return cls([layer], x_grid, beta.shape[0], lam)

    def _layout(self) -> dict:
        layer = self.layers[0]
        bases = zip(_BASIS_KEYS, (layer.intercept_basis, layer.col_basis, layer.row_basis))
        return {
            "x_m": self.input_grid.m,
            "y_m": self.output_grid.m,
            "lam": self.lam,
            **{key: [basis.num_basis, basis.order] for key, basis in bases},
            "alpha_coef": layer.b_coef[0].tolist(),
            "beta_coef": layer.w_coef[0].transpose(0, 2, 1).tolist(),
        }

    @classmethod
    def _from_layout(cls, doc: dict) -> "FflmModel":
        bases = (BSplineBasis(*doc[key]) for key in _BASIS_KEYS)
        return cls.from_coefficients(doc["alpha_coef"], doc["beta_coef"], *bases,
                                     Grid(doc["x_m"]), Grid(doc["y_m"]), float(doc["lam"]))


def fflm_fit(data, num_intercept_basis: int = 15, num_pred_basis: int = 15,
             num_resp_basis: int = 15, lam: float = 0.0, order: int = 4) -> FflmModel:
    """Closed-form penalized least squares for the linear model.

    Minimizes mean ∫(Y - Yhat)^2 dt + lam * sum_r ∫∫(Δbeta_r)^2: the
    network loss plus the model's ``penalty(0, lam)``, so the intercept is
    unpenalized.  Raises if the normal matrix is not positive definite
    (under-determined at lam=0).
    """
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be finite and non-negative")
    x = np.asarray(data.x, dtype=float)
    y = np.asarray(data.y, dtype=float)
    n, r_count, _ = x.shape
    if n < 1:
        raise ValueError("need at least one sample")

    bases = [BSplineBasis(size, order)
             for size in (num_intercept_basis, num_pred_basis, num_resp_basis)]
    model = FflmModel.from_coefficients(
        np.zeros(num_intercept_basis), np.zeros((r_count, num_pred_basis, num_resp_basis)),
        *bases, data.x_grid, data.y_grid, lam)
    layer = model.layers[0]
    vi, vr = layer.design_intercept, layer.design_row
    # Z[i, r, c] = trapezoid of predictor basis c against predictor r of sample i
    z = np.tensordot(x * data.x_grid.trapezoid_weights, layer.design_col, axes=([2], [0]))
    q = data.y_grid.trapezoid_weights
    qvi = q[:, None] * vi
    qvr = q[:, None] * vr

    b = num_intercept_basis
    cd = num_pred_basis * num_resp_basis
    size = b + r_count * cd
    m = np.empty((size, size))
    rhs = np.empty(size)

    g_ii = vi.T @ qvi
    g_ir = vi.T @ qvr  # (B, D)
    g_rr = vr.T @ qvr  # (D, D)
    z_mean = z.mean(axis=0)  # (R, C)
    ybar = y.mean(axis=0)

    m[:b, :b] = g_ii
    rhs[:b] = qvi.T @ ybar
    yqv = y @ qvr  # (n, D)
    for r in range(r_count):
        sl = slice(b + r * cd, b + (r + 1) * cd)
        cross = np.kron(z_mean[r][None, :], g_ir)  # (B, C*D)
        m[:b, sl] = cross
        m[sl, :b] = cross.T
        rhs[sl] = (z[:, r, :].T @ yqv).reshape(cd) / n
        for r2 in range(r_count):
            s_rr = z[:, r, :].T @ z[:, r2, :] / n  # (C, C)
            m[sl, slice(b + r2 * cd, b + (r2 + 1) * cd)] = np.kron(s_rr, g_rr)
    if lam > 0:
        pen = laplacian_penalty_matrix(layer.col_basis, layer.row_basis)
        for r in range(r_count):
            sl = slice(b + r * cd, b + (r + 1) * cd)
            m[sl, sl] += lam * pen

    try:
        low = np.linalg.cholesky(m)
        coef = np.linalg.solve(low.T, np.linalg.solve(low, rhs))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "normal matrix is not positive definite; increase lam or reduce "
            "the basis sizes"
        ) from exc
    beta = coef[b:].reshape(r_count, num_pred_basis, num_resp_basis)
    model.set_parameters([coef[:b][None], beta.transpose(0, 2, 1)[None]])
    return model


def fflm_tune_lambda(data, lam_grid, k: int = 5, seed: int = 0,
                     num_intercept_basis: int = 15, num_pred_basis: int = 15,
                     num_resp_basis: int = 15, order: int = 4) -> float:
    """K-fold choice of the surface penalty for the linear model.

    Refits per fold at each candidate and scores mean validation loss;
    ties go to the larger (smoother) value.
    """
    if k < 2 or k > data.n:
        raise ValueError(f"need 2 <= k <= {data.n}")
    folds = training._kfold_indices(data.n, k, np.random.default_rng(seed))

    def fold_score(lam, _fold, val_idx):
        train_idx = np.setdiff1d(np.arange(data.n), val_idx)
        model = fflm_fit(data.subset(train_idx), num_intercept_basis, num_pred_basis,
                         num_resp_basis, lam=lam, order=order)
        pred = model.predict(data.x[val_idx])
        return training.quadratic_loss(pred, data.y[val_idx], data.y_grid)

    return training._select_lambda([float(v) for v in lam_grid], folds, fold_score)


class DenseLayer:
    """A dense layer of the vector network: a = h @ w.T + b on the
    flattened per-sample input of shape ``in_shape``."""

    param_names = ("b", "w")

    def __init__(self, b, w, activation: Activation, in_shape=None):
        b = np.asarray(b, dtype=float)
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("layer shapes inconsistent")
        self.in_shape = tuple(in_shape) if in_shape else (1, w.shape[1])
        if np.prod(self.in_shape) != w.shape[1]:
            raise ValueError(f"layer expects {w.shape[1]} inputs, not {self.in_shape}")
        self.out_shape = (1, w.shape[0])
        self.b = b
        self.w = w
        self.activation = activation

    def affine(self, h, a, _buffer, _reuse_input):
        n = h.shape[0]
        np.matmul(h.reshape(n, -1), self.w.T, out=a.reshape(n, -1))
        a += self.b

    def backward(self, h_in, _saved, delta_a, buffer, need_dh):
        n = h_in.shape[0]
        delta = delta_a.reshape(n, -1)
        gb, gw = delta.sum(axis=0), delta.T @ h_in.reshape(n, -1)
        if not need_dh:
            return gb, gw, None
        dh = buffer("dh", h_in.shape)
        np.matmul(delta, self.w, out=dh.reshape(n, -1))
        return gb, gw, dh

    def roughness(self, _which, _lam, _buffer, _grad):
        raise ValueError("the vector network has no roughness penalty")


class VectorNN(Network):
    """Dense net from flattened predictor curves to the response vector.

    The output vector is read as a curve on the response grid, so the
    same integrated quadratic loss applies.  ``activation`` names the
    hidden layers' activation; the last layer is linear.
    """

    kind = "vnn"

    def __init__(self, layers: list[DenseLayer], input_grid: Grid, input_count: int,
                 activation: Activation | None = None):
        super().__init__(layers, input_grid, input_count)
        self.activation = activation or layers[0].activation

    @classmethod
    def from_arrays(cls, weights, biases, input_count: int, input_grid: Grid,
                    activation: Activation) -> "VectorNN":
        """The net of dense (out, in) weight matrices and bias vectors."""
        last = len(weights) - 1
        layers = [
            DenseLayer(b, w, Activation("identity") if i == last else activation,
                       (input_count, input_grid.m) if i == 0 else None)
            for i, (w, b) in enumerate(zip(weights, biases, strict=True))
        ]
        return cls(layers, input_grid, input_count, activation)

    def _layout(self) -> dict:
        return {
            "input_count": self.input_count,
            "in_m": self.input_grid.m,
            "out_m": self.output_grid.m,
            "activation": self.activation.name,
            "weights": [layer.w.tolist() for layer in self.layers],
            "biases": [layer.b.tolist() for layer in self.layers],
        }

    @classmethod
    def _from_layout(cls, doc: dict) -> "VectorNN":
        net = cls.from_arrays(doc["weights"], doc["biases"], doc["input_count"],
                              Grid(doc["in_m"]), Activation(doc["activation"]))
        if net.output_grid.m != doc["out_m"]:
            raise ValueError("last layer must match the response grid")
        return net


def vnn_init(input_count: int, m: int, m_y: int, hidden=(128, 128),
             activation: str = "tanh", seed=0) -> VectorNN:
    """He-scaled random dense net; the final (identity) layer maps to m_y."""
    if any(k < 1 for k in hidden):
        raise ValueError("every hidden layer needs at least one neuron")
    rng = np.random.default_rng(seed)
    dims = [input_count * m, *hidden, m_y]
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(np.sqrt(2.0 / fan_in) * rng.standard_normal((fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return VectorNN.from_arrays(weights, biases, input_count, Grid(m), Activation(activation))
