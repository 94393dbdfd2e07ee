"""Loss, optimizers, early stopping, CV strategies, and gradient checks.

The networks trained here (FdnnNetwork, FbnnNetwork, VectorNN) share
one surface, defined once in :class:`funcnet.network.Network`:
``forward`` (predictions and a cache valid until the next ``forward``),
``backward`` (exact gradients of the discretized quadratic loss, from
the leading rows of a cache when there are fewer residuals than cached
curves), ``predict``, ``parameters`` / ``set_parameters`` (live arrays,
interleaved intercept/weight), ``penalty`` and ``output_grid``.  The
loops below never look inside a model or a cache beyond that.

:func:`train_fixed` and :func:`train_early_stopping` share one loop.
It runs one ``forward`` per iteration, on the train and validation
curves stacked once: that pass scores the previous step (logged losses,
early-stopping decision) and its leading rows are the cache for this
step's ``backward``.  On mini-batches the pass takes the curves with the
step's batch first.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid

SCHEMA_VERSION = 1

OPTIMIZERS = ("adam", "gd")

ES_STRATEGIES = ("mean", "median", "max", "min", "wavg")


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"non-finite loss at iteration {iteration}")


def quadratic_loss(pred, truth, grid: Grid) -> float:
    """Mean over samples of the trapezoid integral of the squared residual.

    ``pred`` and ``truth`` are (n, m) stacks of curves on ``grid``; a
    single curve of shape (m,) is promoted to a batch of one.
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    if pred.shape[1] != grid.m:
        raise ValueError(f"curves have {pred.shape[1]} points, grid has {grid.m}")
    resid = pred - truth
    per_sample = (resid * resid) @ grid.trapezoid_weights
    return float(per_sample.mean())


def rmse(pred, truth, grid: Grid) -> float:
    return math.sqrt(quadratic_loss(pred, truth, grid))


class Adam:
    """Adaptive-moment gradient scheme (decay 0.9/0.999, eps 1e-8)."""

    def __init__(self, step_size: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.step_size = step_size
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = None
        self._v = None
        self._scratch = None

    def step(self, params, grads):
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
            size = max(p.size for p in params)
            self._scratch = (np.empty(size), np.empty(size))
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correct1 = 1.0 - b1**self.t
        correct2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            s1, s2 = (s[:p.size].reshape(p.shape) for s in self._scratch)
            # the operations follow the commented expressions term by term,
            # so updates repeat bit for bit
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=s1)
            v *= b2
            np.multiply(g, 1.0 - b2, out=s1)
            s1 *= g
            v += s1
            # p -= step_size * (m / correct1) / (sqrt(v / correct2) + eps)
            np.divide(m, correct1, out=s1)
            s1 *= self.step_size
            np.divide(v, correct2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 /= s2
            p -= s1


class PlainGradient:
    def __init__(self, step_size: float):
        self.step_size = step_size

    def step(self, params, grads):
        for p, g in zip(params, grads):
            p -= self.step_size * g


def _make_optimizer(cfg: "TrainConfig"):
    if cfg.optimizer == "adam":
        return Adam(cfg.step_size)
    return PlainGradient(cfg.step_size)


@dataclass
class TrainConfig:
    step_size: float = 1e-3
    max_iterations: int = 1000
    patience: float = 50
    optimizer: str = "adam"
    batch_size: int | None = None
    lam_b: float = 0.0
    lam_w: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails each check
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be positive and finite")
        if not self.patience >= 1:
            raise ValueError("patience must be at least 1")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if not (0 <= self.lam_b < math.inf and 0 <= self.lam_w < math.inf):
            raise ValueError("smoothing parameters must be finite and non-negative")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")

    def replace(self, **kw) -> "TrainConfig":
        doc = {**self.__dict__, **kw}
        return TrainConfig(**doc)


@dataclass
class FitResult:
    """History of one training run plus the retained parameters."""

    train_loss: np.ndarray
    val_loss: np.ndarray | None
    stopping_iteration: int
    best_iteration: int
    best_val_loss: float
    parameters: list = field(repr=False)
    test_rmse: float | None = None

    def to_json(self, path):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "stopping_iteration": self.stopping_iteration,
            "best_iteration": self.best_iteration,
            # a run of no iterations has no best loss: null, since NaN is not JSON
            "best_val_loss": self.best_val_loss if math.isfinite(self.best_val_loss) else None,
            "test_rmse": self.test_rmse,
            "train_loss": np.asarray(self.train_loss).tolist(),
            "val_loss": None
            if self.val_loss is None
            else np.asarray(self.val_loss).tolist(),
        }
        text = json.dumps(doc, indent=2, allow_nan=False)
        with open(path, "w") as fh:
            fh.write(text)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "train_loss", "val_loss"])
            for i, tr in enumerate(self.train_loss, start=1):
                if self.val_loss is None:
                    writer.writerow([i, repr(float(tr)), ""])
                else:
                    writer.writerow(
                        [i, repr(float(tr)), repr(float(self.val_loss[i - 1]))]
                    )


def _copy_params(model):
    return [p.copy() for p in model.parameters()]


def _step(model, cache, resid, data_loss, cfg, optimizer, iteration):
    """One gradient update of the penalized objective, from the forward
    ``cache`` whose leading rows gave the residuals ``resid`` and the
    unpenalized loss ``data_loss``."""
    grads = model.backward(cache, resid)
    pen_value = 0.0
    if cfg.lam_b > 0 or cfg.lam_w > 0:
        pen_value = model.penalty(cfg.lam_b, cfg.lam_w, grads)[0]
    if not np.isfinite(data_loss + pen_value):
        raise TrainingDiverged(iteration)
    optimizer.step(model.parameters(), grads)


def _train(model, train, val, iterations: int, cfg: TrainConfig) -> FitResult:
    """The training loop behind :func:`train_fixed` and
    :func:`train_early_stopping`.

    Iteration i takes one optimizer step on the penalized loss of the
    ``train`` pair and logs the unpenalized losses of the parameters it
    leaves, on ``train`` and, when given, on the ``val`` pair.  With
    ``val`` the loop stops after ``cfg.patience`` iterations without a
    validation improvement, and the model ends with its best-validation
    parameters, also when :class:`TrainingDiverged` propagates.

    Each step's gradient comes from the forward pass that also scores
    the previous step: one ``forward`` on the [train; val] curves gives
    the logged losses, the stopping decision and the cache whose leading
    rows ``backward`` uses.  On mini-batches that pass takes the curves
    with the step's batch first, and the losses are summed over its
    predictions put back in order.  A final ``forward`` scores the last
    step.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    x, y = (np.asarray(a, dtype=float) for a in train)
    n = x.shape[0]
    x_all = x
    if val is not None:
        x_val, y_val = (np.asarray(a, dtype=float) for a in val)
        if x_val.shape[0] == 0:
            raise ValueError("early stopping needs at least one validation curve")
        x_all = np.concatenate([x, x_val])
    full_batch = cfg.batch_size is None or cfg.batch_size >= n
    grid = model.output_grid
    optimizer = _make_optimizer(cfg)
    rng = np.random.default_rng(cfg.seed)
    if not full_batch:
        x_order = np.empty(x_all.shape)
        outside = np.empty(x_all.shape[0], dtype=bool)

    train_hist: list[float] = []
    val_hist: list[float] = []
    best_val, best_iteration, best_params, since_improved = math.nan, 0, None, 0
    try:
        for i in range(iterations + 1):
            # score the parameters after i steps, in a forward that puts
            # step i + 1's batch first
            if full_batch or i == iterations:
                pred, cache = model.forward(x_all)
            else:
                idx = rng.choice(n, size=cfg.batch_size, replace=False)
                outside.fill(True)
                outside[idx] = False
                order = np.concatenate([idx, np.flatnonzero(outside)])
                batch_pred, cache = model.forward(np.take(x_all, order, axis=0, out=x_order))
                pred = np.empty_like(batch_pred)
                pred[order] = batch_pred
            train_now = quadratic_loss(pred[:n], y, grid)
            if val is not None:
                val_now = quadratic_loss(pred[n:], y_val, grid)
            if i > 0:
                if not np.isfinite(train_now) or (val is not None and not np.isfinite(val_now)):
                    raise TrainingDiverged(i)
                train_hist.append(train_now)
                if val is not None:
                    val_hist.append(val_now)
            if val is not None:
                if i == 0 or val_now < best_val:
                    best_val, best_iteration = val_now, i
                    best_params = _copy_params(model)
                    since_improved = 0
                else:
                    since_improved += 1
                    if since_improved >= cfg.patience:
                        break
            if i == iterations:
                break
            if full_batch:
                resid = pred[:n] - y
            else:
                resid = batch_pred[:cfg.batch_size] - y[idx]
                train_now = float(((resid * resid) @ grid.trapezoid_weights).mean())
            _step(model, cache, resid, train_now, cfg, optimizer, i + 1)
    finally:  # on divergence too, early stopping keeps the best parameters
        if best_params is not None:
            model.set_parameters(best_params)

    if val is None:  # the last parameters are the result
        best_val = train_hist[-1] if train_hist else math.nan
        best_iteration, best_params = iterations, _copy_params(model)
    return FitResult(
        train_loss=np.asarray(train_hist),
        val_loss=None if val is None else np.asarray(val_hist),
        stopping_iteration=len(train_hist),
        best_iteration=best_iteration,
        best_val_loss=float(best_val),
        parameters=best_params,
    )


def train_fixed(model, x, y, iterations: int, cfg: TrainConfig) -> FitResult:
    """Run exactly ``iterations`` updates; no validation, no early stop.

    The model keeps its final parameters.  Used to retrain after CV
    aggregation and for penalty-only fits.
    """
    return _train(model, (x, y), None, iterations, cfg)


def train_early_stopping(model, train, val, cfg: TrainConfig) -> FitResult:
    """Gradient training with patience-based early stopping.

    ``train`` and ``val`` are (x, y) pairs on the model's grids.  Each
    iteration takes one optimizer step on the penalized loss, then logs
    the unpenalized train and validation losses.  After ``cfg.patience``
    iterations without a validation improvement the loop stops; the
    model is restored to (and the result reports) the best-validation
    parameters, counting the initial state as iteration 0.  The model is
    restored the same way before :class:`TrainingDiverged` propagates.
    """
    return _train(model, train, val, cfg.max_iterations, cfg)


@dataclass
class CvResult:
    strategy: str
    fold_best_iterations: list[int]
    fold_val_losses: list[float]
    aggregate_iterations: int | None
    retrain_seed: object = None


def _kfold_indices(n: int, k: int, rng) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(perm, k)]


def _cv_folds(data, k: int, seed):
    """``(x, y, folds, seeds)``: k shuffled folds of the (x, y) pair
    ``data`` and k + 1 seeds for the models fitted on them."""
    if k < 2:
        raise ValueError("k must be at least 2")
    x, y = (np.asarray(a, dtype=float) for a in data)
    n = x.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available samples")
    children = np.random.SeedSequence(seed).spawn(k + 2)
    return x, y, _kfold_indices(n, k, np.random.default_rng(children[0])), children[1:]


def _fold_fit(model_factory, seed, x, y, val_idx, cfg) -> FitResult:
    """Early-stop a new model on the curves outside ``val_idx``,
    validating on those inside."""
    train_idx = np.setdiff1d(np.arange(x.shape[0]), val_idx)
    return train_early_stopping(model_factory(seed), (x[train_idx], y[train_idx]),
                                (x[val_idx], y[val_idx]), cfg)


def cv_early_stopping(model_factory, data, k: int = 5, strategy: str = "mean",
                      cfg: TrainConfig | None = None):
    """K-fold cross-validated early stopping.

    Each fold serves once as the validation set.  For mean/median/max/
    min, the per-fold best iterations are aggregated and a freshly
    initialized model is retrained on all data for exactly that many
    iterations.  For wavg, all folds share one initialization seed and
    the returned model carries the parameter-wise average of the fold
    models.  Returns (model, CvResult).
    """
    if cfg is None:
        cfg = TrainConfig()
    if strategy not in ES_STRATEGIES:
        raise ValueError(f"strategy must be one of {ES_STRATEGIES}")
    x, y, folds, seeds = _cv_folds(data, k, cfg.seed)
    fold_seeds, retrain_seed = seeds[:-1], seeds[-1]

    best_iters: list[int] = []
    val_losses: list[float] = []
    fold_models = []
    for fold_idx, val_idx in enumerate(folds):
        init_seed = fold_seeds[0] if strategy == "wavg" else fold_seeds[fold_idx]
        res = _fold_fit(model_factory, init_seed, x, y, val_idx, cfg)
        best_iters.append(res.best_iteration)
        val_losses.append(res.best_val_loss)
        if strategy == "wavg":
            fold_models.append(res.parameters)

    if strategy == "wavg":
        model = model_factory(fold_seeds[0])
        averaged = [
            np.mean([params[i] for params in fold_models], axis=0)
            for i in range(len(fold_models[0]))
        ]
        model.set_parameters(averaged)
        return model, CvResult(strategy, best_iters, val_losses, None)

    if strategy == "mean":
        agg = int(round(float(np.mean(best_iters))))
    elif strategy == "median":
        agg = int(round(float(np.median(best_iters))))
    elif strategy == "max":
        agg = int(max(best_iters))
    else:
        agg = int(min(best_iters))
    model = model_factory(retrain_seed)
    train_fixed(model, x, y, agg, cfg)
    return model, CvResult(strategy, best_iters, val_losses, agg, retrain_seed)


def tune_lambda(model_factory, data, lam_grid, k: int = 5,
                cfg: TrainConfig | None = None):
    """Pick the smoothing level minimizing mean validation loss over folds.

    Grid entries are either scalars (shared by both penalties) or
    (lam_b, lam_w) pairs.  Folds and fold initializations are shared
    across grid points so comparisons are paired; ties go to the larger
    (smoother) candidate.
    """
    if cfg is None:
        cfg = TrainConfig()
    pairs = [(entry, entry) if np.isscalar(entry) else entry for entry in lam_grid]
    pairs = [(float(lam_b), float(lam_w)) for lam_b, lam_w in pairs]
    x, y, folds, fold_seeds = _cv_folds(data, k, cfg.seed)

    def fold_score(lams, fold, val_idx):
        run_cfg = cfg.replace(lam_b=lams[0], lam_w=lams[1])
        return _fold_fit(model_factory, fold_seeds[fold], x, y, val_idx, run_cfg).best_val_loss

    return _select_lambda(pairs, folds, fold_score, key=lambda p: (p[0] + p[1], p[0]))


def _select_lambda(candidates, folds, fold_score, key=None):
    """The candidate, taken in ascending ``key`` order (least smoothing
    first), with the least mean ``fold_score(candidate, i, val_idx)`` over
    the ``folds``; a tie goes to the later, smoother one."""
    candidates = sorted(candidates, key=key)
    if not candidates:
        raise ValueError("lambda grid is empty")
    best, best_score = None, math.inf
    for candidate in candidates:
        score = float(np.mean([fold_score(candidate, i, val) for i, val in enumerate(folds)]))
        if score <= best_score:
            best, best_score = candidate, score
    return best


def fd_error(objective, params, grads, eps: float = 1e-5,
             max_coords: int | None = None, seed: int = 0) -> float:
    """Worst relative error of ``grads`` against central finite differences.

    ``objective()`` is evaluated with each coordinate of ``params`` (or a
    random subset of ``max_coords`` per array) moved by ±eps in place;
    the denominator is max(|analytic|, |numeric|, 1e-8).  A non-finite
    error (a NaN or infinite gradient, objective or difference) is
    returned at once, so that it fails every tolerance.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for param, grad in zip(params, grads):
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for c in coords:
            keep = flat[c]
            flat[c] = keep + eps
            up = objective()
            flat[c] = keep - eps
            down = objective()
            flat[c] = keep
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(gflat[c]), abs(numeric), 1e-8)
            error = abs(gflat[c] - numeric) / denom
            if not math.isfinite(error):
                return float(error)
            worst = max(worst, error)
    return worst


def grad_check(model, x, y, lam_b: float = 0.0, lam_w: float = 0.0,
               eps: float = 1e-5, max_coords: int | None = None,
               seed: int = 0) -> float:
    """:func:`fd_error` of the model's penalized quadratic-loss gradient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grid = model.output_grid

    def objective() -> float:
        value = quadratic_loss(model.predict(x), y, grid)
        if lam_b > 0 or lam_w > 0:
            value += model.penalty(lam_b, lam_w)[0]
        return value

    pred, cache = model.forward(x)
    grads = model.backward(cache, pred - y)
    if lam_b > 0 or lam_w > 0:
        model.penalty(lam_b, lam_w, grads)
    return fd_error(objective, model.parameters(), grads, eps, max_coords, seed)
