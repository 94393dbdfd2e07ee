"""Reference computations for the benchmark's output checks, in plain numpy.

Nothing here imports funcnet.  The checks compare the program against
these formulas, written out again from the method's definition:

* quadrature is the composite trapezoid rule on a uniform grid of [0, 1];
* a continuous layer maps incoming curves H_j to
  act(b_k(s) + sum_j integral w_kj(s, t) H_j(t) dt);
* the loss is the mean over curves of the integrated squared residual;
* roughness is the integrated squared second difference of each
  intercept plus the doubly integrated squared Laplacian of each weight
  surface, both with second differences set to zero at the grid ends.
"""

from __future__ import annotations

import math

import numpy as np

ACTIVATIONS = {
    "relu": lambda a: np.maximum(a, 0.0),
    "tanh": np.tanh,
    "identity": lambda a: a,
}


def trapezoid_weights(m: int) -> np.ndarray:
    """Weights q with q @ f the trapezoid integral over [0, 1] of f on m points."""
    q = np.full(m, 1.0 / (m - 1))
    q[0] = q[-1] = 0.5 / (m - 1)
    return q


def second_diff_matrix(m: int) -> np.ndarray:
    """(f[i-1] - 2 f[i] + f[i+1]) / h^2 on interior rows; first and last rows zero."""
    d = np.zeros((m, m))
    i = np.arange(1, m - 1)
    d[i, i - 1] = 1.0
    d[i, i] = -2.0
    d[i, i + 1] = 1.0
    return d * (m - 1) ** 2


def fdnn_eval(layers, x) -> np.ndarray:
    """Network output (n, m_y) for inputs x of shape (n, J, m).

    ``layers`` holds (b, w, activation) with b of shape (K, S) and w of
    shape (K, J, S, T); the integral over t is one matrix product with
    the trapezoid-weighted incoming curves.
    """
    h = np.asarray(x, dtype=float)
    for b, w, act in layers:
        k, j, s, t = w.shape
        hq = (h * trapezoid_weights(t)).reshape(h.shape[0], j * t)
        a = hq @ w.transpose(1, 3, 0, 2).reshape(j * t, k * s)
        h = ACTIVATIONS[act](a.reshape(-1, k, s) + b)
    return h[:, 0, :]


def quadratic_loss(pred, y) -> float:
    resid = np.asarray(pred, dtype=float) - np.asarray(y, dtype=float)
    return float(np.mean((resid * resid) @ trapezoid_weights(resid.shape[1])))


def rmse(pred, y) -> float:
    return math.sqrt(quadratic_loss(pred, y))


def curve_roughness(b, lam: float) -> float:
    """lam times the integrated squared second difference of one curve."""
    m = b.shape[-1]
    d2 = second_diff_matrix(m) @ b
    return lam * float(np.sum(d2 * d2 * trapezoid_weights(m)))


def surface_roughness(w, lam: float) -> float:
    """lam times the double integral of the squared Laplacian of one surface w(s, t)."""
    s, t = w.shape
    lap = second_diff_matrix(s) @ w + w @ second_diff_matrix(t).T
    return lam * float(np.sum(lap * lap * np.outer(trapezoid_weights(s), trapezoid_weights(t))))


def roughness(layers, lam_b: float, lam_w: float) -> float:
    """lam_b * intercept roughness + lam_w * weight-surface roughness, summed over layers."""
    total = 0.0
    for b, w, _ in layers:
        total += sum(curve_roughness(row, lam_b) for row in b)
        total += sum(surface_roughness(w[k, j], lam_w)
                     for k in range(w.shape[0]) for j in range(w.shape[1]))
    return total


def max_relative_error(value, reference) -> float:
    """Largest absolute difference over the largest reference magnitude."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    return float(np.max(np.abs(value - reference))) / scale


def fd_worst_error(objective, arrays, grads, per_array: int, rng,
                   eps: float = 1e-5) -> float:
    """Worst relative error of ``grads`` against central differences.

    Each (writable, contiguous) array is perturbed in place at
    ``per_array`` sampled coordinates and restored.  ``objective(i, c)``
    evaluates the objective, or any part of it that holds every term
    depending on coordinate ``c`` of ``arrays[i]``: leaving out terms that
    cancel in the difference keeps their roundoff out of it.  Coordinates
    are drawn among those whose gradient is at least 1 % of the largest
    in their array, so that roundoff in the difference quotient stays far
    below the tolerance the checks apply.
    """
    worst = 0.0
    for i, (arr, grad) in enumerate(zip(arrays, grads)):
        flat = arr.reshape(-1)
        gflat = np.asarray(grad, dtype=float).reshape(-1)
        top = float(np.max(np.abs(gflat)))
        if top == 0.0:
            continue
        pool = np.flatnonzero(np.abs(gflat) >= 0.01 * top)
        for c in rng.choice(pool, size=min(per_array, pool.size), replace=False):
            keep = flat[c]
            flat[c] = keep + eps
            up = objective(i, c)
            flat[c] = keep - eps
            down = objective(i, c)
            flat[c] = keep
            numeric = (up - down) / (2.0 * eps)
            worst = max(worst, abs(numeric - gflat[c]) / max(abs(numeric), abs(gflat[c])))
    return worst


def mean_and_se(values) -> tuple[float, float]:
    """Sample mean and standard error (n - 1 denominator; 0 for one value)."""
    vals = [float(v) for v in values]
    n = len(vals)
    mean = sum(vals) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)


def param_dump_rows(input_m: int, input_count: int, hidden, hidden_points, output_m: int) -> int:
    """Data rows in a parameter-function dump: one per intercept value and weight value."""
    rows = 0
    in_m, in_count = input_m, input_count
    for out_count, out_m in [*zip(hidden, hidden_points), (1, output_m)]:
        rows += out_count * (out_m + in_count * out_m * in_m)
        in_m, in_count = out_m, out_count
    return rows
