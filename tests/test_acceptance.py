"""Acceptance gate: one test per numbered criterion.

Each test prints one ``[criterion NN] PASS/FAIL`` line with its measured
quantities (written to the real stdout so the checklist is visible under
capture).  Criteria 3-5 rerun the headline simulation comparisons at ten
replicates with fixed seeds; the whole gate takes about 10 minutes on
two cores.  Replicate ``i`` always draws data with seed 100+i, splits
with 200+i, and initializes models with 300+i (vector NN), 400+i (direct
networks) and 500+i (basis networks), so every number here reproduces
bit-for-bit.
"""

import json
import time

import numpy as np

import funcnet as fn
from funcnet import cli, training
from funcnet.bsplines import BSplineBasis, laplacian_penalty_matrix


def _report(capsys, num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


def reference_replicate(kind, i):
    """One simulation replicate at the reference scale, 500/100/500 split."""
    data = fn.generate(fn.Scenario(kind), n=1100, m=100, m_y=75, seed=100 + i)
    train, val, test = fn.split(data, fn.SplitSpec(500, 100, 500, seed=200 + i))
    merged = fn.FuncDataset(
        np.concatenate([train.x, val.x]), np.concatenate([train.y, val.y]),
        train.x_grid, train.y_grid,
    )
    return train, val, test, merged


def rmse_on(model, part):
    return fn.rmse(model.predict(part.x), part.y, part.y_grid)


FDNN_DEEP = fn.FdnnConfig(100, 75, 1, (8, 8), (50, 50), "relu")
FDNN_FLAT = fn.FdnnConfig(100, 75, 1, (4,), (50,), "tanh")
FBNN_FLAT = fn.FbnnConfig(100, 75, 1, (4,), (50,), activation="tanh")
ES_DEEP = fn.TrainConfig(step_size=3e-2, max_iterations=4000, patience=300)
ES_FLAT = fn.TrainConfig(step_size=1e-2, max_iterations=4000, patience=300)
ES_VNN = fn.TrainConfig(step_size=3e-3, max_iterations=4000, patience=300)


def fit_fflm(merged, test):
    return rmse_on(fn.fflm_fit(merged), test)


def fit_fdnn(cfg, es, i, train, val, test):
    net = fn.fdnn.init(cfg, seed=400 + i)
    fn.train_early_stopping(net, (train.x, train.y), (val.x, val.y), es)
    return rmse_on(net, test)


def test_criterion_01_gradient_audit(tmp_path, capsys):
    started = time.monotonic()
    code = cli.main(["gradcheck", "--out", str(tmp_path)])
    elapsed = time.monotonic() - started
    report = json.loads((tmp_path / "gradcheck.json").read_text())
    ok = code == 0 and report["worst"] <= 1e-4 and elapsed < 60
    _report(capsys, 1, "gradient audit", ok,
            f"worst rel err {report['worst']:.2e}, {elapsed:.1f}s")


def test_criterion_02_linear_degeneracy(capsys):
    started = time.monotonic()
    _, _, test, merged = reference_replicate("linear", 1)
    r_linear = fit_fflm(merged, test)
    net = fn.fdnn.init(fn.FdnnConfig(100, 75, 1, (), (), "identity"), seed=401)
    fn.train_fixed(net, merged.x, merged.y, 6000,
                   fn.TrainConfig(step_size=1e-2, max_iterations=6000))
    r_net = rmse_on(net, test)
    elapsed = time.monotonic() - started
    ok = abs(r_net - r_linear) <= 0.05 and elapsed < 300
    _report(capsys, 2, "identity network degenerates to the linear model", ok,
            f"fdnn {r_net:.4f} vs fflm {r_linear:.4f}, "
            f"diff {abs(r_net - r_linear):.4f}, {elapsed:.0f}s")


def test_criterion_03_noise_floor(capsys):
    started = time.monotonic()
    rows = {"fflm": [], "fdnn": [], "fbnn": []}
    for i in range(1, 11):
        train, val, test, merged = reference_replicate("linear", i)
        rows["fflm"].append(fit_fflm(merged, test))
        rows["fdnn"].append(fit_fdnn(FDNN_FLAT, ES_FLAT, i, train, val, test))
        net = fn.fbnn.init(FBNN_FLAT, seed=500 + i)
        fn.train_early_stopping(net, (train.x, train.y), (val.x, val.y), ES_FLAT)
        rows["fbnn"].append(rmse_on(net, test))
    means = {kind: float(np.mean(vals)) for kind, vals in rows.items()}
    elapsed = time.monotonic() - started
    ok = all(1.00 <= m <= 1.10 for m in means.values()) and elapsed < 1800
    _report(capsys, 3, "all models reach the unit noise floor on linear data", ok,
            f"fflm {means['fflm']:.4f} fdnn {means['fdnn']:.4f} "
            f"fbnn {means['fbnn']:.4f}, {elapsed:.0f}s")


def test_criterion_04_nonlinear_separation(capsys):
    started = time.monotonic()
    rows = {"fflm": [], "vnn": [], "fdnn": []}
    for i in range(1, 11):
        train, val, test, merged = reference_replicate("complex_quadratic", i)
        rows["fflm"].append(fit_fflm(merged, test))
        vnn = fn.vnn_init(1, 100, 75, (128, 128), "relu", seed=300 + i)
        fn.train_early_stopping(vnn, (train.x, train.y), (val.x, val.y), ES_VNN)
        rows["vnn"].append(rmse_on(vnn, test))
        rows["fdnn"].append(fit_fdnn(FDNN_DEEP, ES_DEEP, i, train, val, test))
    means = {kind: float(np.mean(vals)) for kind, vals in rows.items()}
    elapsed = time.monotonic() - started
    ok = (means["fdnn"] <= 0.75 * means["vnn"]
          and means["fdnn"] <= 0.5 * means["fflm"]
          and elapsed < 3600)
    _report(capsys, 4, "functional network dominates on strongly nonlinear data", ok,
            f"fflm {means['fflm']:.3f} vnn {means['vnn']:.3f} "
            f"fdnn {means['fdnn']:.3f} -> {means['fdnn'] / means['vnn']:.2f}x vnn, "
            f"{means['fdnn'] / means['fflm']:.2f}x fflm, {elapsed:.0f}s")


def test_criterion_05_quadratic_improvement(capsys):
    started = time.monotonic()
    rows = {"fflm": [], "fdnn": []}
    for i in range(1, 11):
        train, val, test, merged = reference_replicate("quadratic", i)
        rows["fflm"].append(fit_fflm(merged, test))
        rows["fdnn"].append(fit_fdnn(FDNN_DEEP, ES_DEEP, i, train, val, test))
    m_lin, m_net = float(np.mean(rows["fflm"])), float(np.mean(rows["fdnn"]))
    ok = m_net <= 1.25 and m_net <= m_lin - 0.3
    _report(capsys, 5, "near-floor RMSE where the linear model fails", ok,
            f"fdnn {m_net:.4f} vs fflm {m_lin:.4f}, {time.monotonic() - started:.0f}s")


def test_criterion_06_regularization_tradeoff(tmp_path, capsys):
    # explicit roughness penalty replaces early stopping as the
    # regularizer: same fit quality to within the margin, far smoother
    # weight surfaces
    started = time.monotonic()
    train, _, _, _ = reference_replicate("cam", 1)
    lam_b, lam_w = training.tune_lambda(
        lambda seed: fn.fdnn.init(FDNN_FLAT, seed), (train.x, train.y),
        [1e-2, 1e-1, 1.0], k=2,
        cfg=ES_FLAT.replace(max_iterations=600, patience=100, seed=61),
    )
    rough = {"plain": [], "pen": []}
    rms = {"plain": [], "pen": []}
    last_pen = None
    for i in (1, 2, 3):
        train, val, test, merged = reference_replicate("cam", i)
        net = fn.fdnn.init(FDNN_FLAT, seed=400 + i)
        fn.train_early_stopping(net, (train.x, train.y), (val.x, val.y), ES_FLAT)
        rms["plain"].append(rmse_on(net, test))
        rough["plain"].append(net.penalty(0.0, 1.0)[0])

        pen = fn.fdnn.init(FDNN_FLAT, seed=400 + i)
        fn.train_fixed(pen, merged.x, merged.y, 2000,
                       ES_FLAT.replace(lam_b=lam_b, lam_w=lam_w))
        rms["pen"].append(rmse_on(pen, test))
        rough["pen"].append(pen.penalty(0.0, 1.0)[0])
        last_pen = pen

    # the plot-ready dump of the smoothed parameter functions must be
    # emitted and well-formed
    csv_path = tmp_path / "params_cam_fdnn.csv"
    cli._write_param_functions(str(csv_path),
                               [(layer.b, layer.w) for layer in last_pen.layers])
    body = [line.split(",") for line in csv_path.read_text().splitlines()]
    kinds = {row[3] for row in body[1:]}
    values = np.array([float(row[6]) for row in body[1:]])

    gap = abs(float(np.mean(rms["pen"])) - float(np.mean(rms["plain"])))
    ratio = float(np.mean(rough["plain"])) / float(np.mean(rough["pen"]))
    ok = (gap <= 0.20 and ratio >= 5.0
          and kinds == {"intercept", "weight"} and np.isfinite(values).all())
    _report(capsys, 6, "tuned penalty keeps RMSE while smoothing the weights", ok,
            f"rmse gap {gap:.4f}, roughness ratio {ratio:.0f}, lam {lam_w}, "
            f"{time.monotonic() - started:.0f}s")


def test_criterion_07_penalty_monotonicity(capsys):
    started = time.monotonic()
    data = fn.generate(fn.Scenario("linear"), n=120, m=40, m_y=30, seed=11)
    roughness = []
    for lam_w in (0.0, 1e-2, 1e-1, 1.0):
        net = fn.fdnn.init(fn.FdnnConfig(40, 30, 1, (3,), (20,), "tanh"), seed=77)
        fn.train_fixed(net, data.x, data.y, 300,
                       fn.TrainConfig(step_size=1e-2, max_iterations=300,
                                      lam_w=lam_w))
        roughness.append(net.penalty(0.0, 1.0)[0])
    ok = all(roughness[k + 1] <= roughness[k] for k in range(3))
    _report(capsys, 7, "fitted roughness non-increasing in the penalty weight", ok,
            " -> ".join(f"{v:.3g}" for v in roughness)
            + f", {time.monotonic() - started:.1f}s")


def test_criterion_08_basis_penalty_quadrature(capsys):
    # the Gram quadratic form must equal literally integrating the squared
    # surface Laplacian; per-knot-cell Gauss-Legendre (4 nodes) is exact
    # for the piecewise-polynomial integrand
    started = time.monotonic()

    def cell_nodes(basis):
        cells = np.unique(basis.knots)
        bx, bw = np.polynomial.legendre.leggauss(4)
        xs = np.concatenate(
            [0.5 * (b - a) * bx + 0.5 * (a + b) for a, b in zip(cells, cells[1:])]
        )
        ws = np.concatenate([0.5 * (b - a) * bw for a, b in zip(cells, cells[1:])])
        return xs, ws

    rng = np.random.default_rng(88)
    worst = 0.0
    for rows, cols in ((8, 6), (5, 5), (10, 7)):
        row_basis, col_basis = BSplineBasis(rows), BSplineBasis(cols)
        pen = laplacian_penalty_matrix(row_basis, col_basis)
        coef = rng.standard_normal((rows, cols))
        gram_value = float(coef.reshape(-1) @ pen @ coef.reshape(-1))
        xs_r, w_r = cell_nodes(row_basis)
        xs_c, w_c = cell_nodes(col_basis)
        surf = (row_basis.design(xs_r, 2) @ coef
                @ col_basis.design(xs_c).T
                + row_basis.design(xs_r) @ coef
                @ col_basis.design(xs_c, 2).T)
        dense = float(w_r @ (surf * surf) @ w_c)
        worst = max(worst, abs(gram_value - dense) / abs(dense))
    ok = worst <= 1e-6
    _report(capsys, 8, "coefficient penalty equals dense quadrature", ok,
            f"worst rel diff {worst:.2e}, {time.monotonic() - started:.2f}s")


def test_criterion_09_process_generator_statistics(capsys):
    started = time.monotonic()
    grid = fn.Grid(101)
    curves = fn.gp_sample(grid, fn.MaternParams(), 2000, seed=2024)
    var_err = float(np.abs(curves.var(axis=0, ddof=1) - 1.0).max())
    centered = curves - curves.mean(axis=0)
    lag = 50  # 0.5 on this grid
    covs = [(centered[:, i] * centered[:, i + lag]).sum() / (len(curves) - 1)
            for i in range(curves.shape[1] - lag)]
    cov_err = abs(float(np.mean(covs)) - 0.5240)
    ok = var_err <= 0.15 and cov_err <= 0.05
    _report(capsys, 9, "generator matches its covariance law", ok,
            f"max var dev {var_err:.3f}, lag-0.5 cov err {cov_err:.4f}, "
            f"{time.monotonic() - started:.2f}s")


def test_criterion_10_cv_stopping_strategies(capsys):
    started = time.monotonic()
    _, _, test, merged = reference_replicate("linear", 1)
    cfg = fn.TrainConfig(step_size=1e-2, max_iterations=400, patience=100,
                         seed=41)
    factory = lambda seed: fn.fdnn.init(FDNN_FLAT, seed)  # noqa: E731
    results = {}
    for strategy in training.ES_STRATEGIES:
        model, _ = training.cv_early_stopping(factory, (merged.x, merged.y),
                                              k=5, strategy=strategy, cfg=cfg)
        results[strategy] = rmse_on(model, test)
    ok = all(np.isfinite(v) for v in results.values())
    _report(capsys, 10, "every CV stopping strategy runs end to end", ok,
            " ".join(f"{k} {v:.3f}" for k, v in results.items())
            + f", {time.monotonic() - started:.0f}s")


def test_criterion_11_external_csv_pipeline(tmp_path, capsys):
    # a dataset supplied in the documented CSV layout (including missing
    # cells) drives the full CLI pipeline, and the functional networks
    # beat the linear model
    started = time.monotonic()
    data = fn.generate(fn.Scenario("quadratic"), n=440, m=50, m_y=40, seed=4242)
    path = tmp_path / "user.csv"
    fn.save_table(str(path), data)
    lines = path.read_text().splitlines()
    body = [row.split(",") for row in lines[1:]]
    rng = np.random.default_rng(9)
    for _ in range(200):
        body[int(rng.integers(len(body)))][1 + int(rng.integers(50 + 40))] = ""
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in body]) + "\n")

    split = ("--n-train", "240", "--n-val", "60", "--n-test", "140",
             "--m", "50", "--m-y", "40", "--seed", "21")
    runs = {
        "fflm": ("--model", "fflm"),
        "fdnn": ("--model", "fdnn", "--neurons", "6", "--grid-points", "40",
                 "--activation", "relu", "--step-size", "2e-2",
                 "--max-iterations", "1500", "--patience", "200"),
        "fbnn": ("--model", "fbnn", "--neurons", "6", "--grid-points", "40",
                 "--activation", "tanh", "--step-size", "1e-2",
                 "--max-iterations", "1500", "--patience", "200"),
    }
    scores = {}
    for name, flags in runs.items():
        out = tmp_path / name
        code = cli.main(["fit", "--data", str(path), *split, *flags,
                         "--out", str(out)])
        assert code == 0
        scores[name] = json.loads((out / "metrics.json").read_text())["test_rmse"]
    ok = scores["fdnn"] < scores["fflm"] and scores["fbnn"] < scores["fflm"]
    _report(capsys, 11, "user-supplied CSV pipeline, networks beat the linear model",
            ok, f"fflm {scores['fflm']:.3f} fdnn {scores['fdnn']:.3f} "
                f"fbnn {scores['fbnn']:.3f}, {time.monotonic() - started:.0f}s")
