"""One round of a benchmark workload, run in a fresh process by run.py.

A round sets the workload up (imports, data, model), makes its timed
calls into funcnet, checks every output against oracle.py or against
properties the method must have, and prints one JSON line of
measurements.  With ``--trace 1`` the round runs twice, once with the
span tracer installed, and also reports per-layer metrics.

    python3 perfbench/workloads.py --workload fdnn-deep-es --seed 1 --spawned <unix time>
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import funcnet  # noqa: E402
from funcnet import cli, datagen, fdnn, training  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402

# The fdnn workloads fit the acceptance gate's reference replicate 1
# (data seed 101, split seed 201), so that test_rmse reflects the fit and
# not the draw of data: across data seeds the complex_quadratic RMSE
# after a short fit spreads by half its median.  The workload seed draws
# the initial parameters and the mini-batch order.
DATA_SEED, SPLIT_SEED = 101, 201

SIZES = {
    "full": {"split": (500, 100, 500), "m": 100, "m_y": 75, "neurons": (8, 8),
             "points": (50, 50), "iterations": 150, "batch": 100, "predicts": 150,
             "fd_curves": 64, "cli_neurons": "4", "cli_points": "50", "cli_basis": 15,
             "cli_hidden": "128,128", "cli_iterations": 100},
    "tiny": {"split": (30, 6, 30), "m": 20, "m_y": 15, "neurons": (3, 3),
             "points": (10, 10), "iterations": 5, "batch": 10, "predicts": 3,
             "fd_curves": 8, "cli_neurons": "2", "cli_points": "10", "cli_basis": 6,
             "cli_hidden": "8,8", "cli_iterations": 5},
}

FDNN_WORKLOADS = {
    "fdnn-deep-es": {"scenario": "complex_quadratic", "activation": "relu",
                     "step_size": 3e-2, "lam": 0.0, "minibatch": False},
    "fdnn-smooth-minibatch": {"scenario": "cam", "activation": "tanh",
                              "step_size": 1e-2, "lam": 1e-2, "minibatch": True},
}
CLI_SCENARIOS = ("linear", "quadratic")
CLI_MODELS = ("fflm", "fdnn", "fbnn", "vnn")
CLI_REPLICATES = 2
WORKLOADS = (*FDNN_WORKLOADS, "cli-study")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layers_of(net):
    """Copies of a direct network's (b, w, activation name) per layer."""
    return [(layer.b.copy(), layer.w.copy(), layer.activation.name) for layer in net.layers]


# ----------------------------------------------------------------------
# fdnn-deep-es and fdnn-smooth-minibatch
# ----------------------------------------------------------------------

def fdnn_pass(name, size, seed, spawned, tracer=None):
    spec, dims = FDNN_WORKLOADS[name], SIZES[size]
    n_train, n_val, n_test = dims["split"]
    data = datagen.generate(datagen.Scenario(spec["scenario"]), n_train + n_val + n_test,
                            dims["m"], dims["m_y"], seed=DATA_SEED)
    train, val, test = datagen.split(data, datagen.SplitSpec(n_train, n_val, n_test, SPLIT_SEED))
    net = fdnn.init(fdnn.FdnnConfig(dims["m"], dims["m_y"], 1, dims["neurons"], dims["points"],
                                    spec["activation"]), seed=seed)
    iterations = dims["iterations"]
    cfg = training.TrainConfig(
        step_size=spec["step_size"], max_iterations=iterations, patience=iterations + 1,
        batch_size=dims["batch"] if spec["minibatch"] else None,
        lam_b=spec["lam"], lam_w=spec["lam"], seed=seed,
    )
    setup_s = time.time() - spawned
    run = {"setup_s": setup_s, "init_layers": layers_of(net), "net": net, "train": train,
           "val": val, "test": test, "attempted": 1 + dims["predicts"], "failed": 0, "errors": []}

    start = time.perf_counter()
    try:
        if spec["minibatch"]:
            x = np.concatenate([train.x, val.x])
            y = np.concatenate([train.y, val.y])
            result = training.train_fixed(net, x, y, iterations, cfg)
        else:
            result = training.train_early_stopping(net, (train.x, train.y), (val.x, val.y), cfg)
    except Exception as exc:  # a failed fit is counted, and the round ends
        run["failed"] = run["attempted"]
        run["errors"].append(f"fit raised {type(exc).__name__}: {exc}")
        return run
    run["fit_s"] = time.perf_counter() - start
    # Keep the history, not the parameter copy the result holds: the CLI
    # drops the result before it predicts, and a live copy changes which
    # heap pages predict's temporaries reuse (750 to 2650 page faults per
    # call, depending on the seed).
    run["result"] = result = dataclasses.replace(result, parameters=None)
    run["iterations"] = len(result.train_loss)

    times = []
    pred = None
    for _ in range(dims["predicts"]):
        start = time.perf_counter()
        try:
            pred = net.predict(test.x)
        except Exception as exc:  # counted as one failed operation
            run["failed"] += 1
            run["errors"].append(f"predict raised {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - start)
    run["predict_s"] = statistics.median(times) if times else math.nan
    run["pred"] = pred
    run["peak_rss_mb"] = peak_rss_mb()
    return run


def check_fdnn(name, size, seed, run):
    """Errors found in one fdnn round's outputs; empty when all hold."""
    spec, dims = FDNN_WORKLOADS[name], SIZES[size]
    errors = []
    if "pred" not in run or run["pred"] is None:
        return errors
    net, train, test = run["net"], run["train"], run["test"]
    result, lam = run["result"], spec["lam"]
    layers = layers_of(net)

    err = oracle.max_relative_error(run["pred"], oracle.fdnn_eval(layers, test.x))
    if not err <= 1e-9:
        errors.append(f"predict differs from the oracle network by {err:.2e} relative")
    run["test_rmse"] = oracle.rmse(run["pred"], test.y)

    if run["iterations"] != dims["iterations"]:
        errors.append(f"ran {run['iterations']} iterations, expected {dims['iterations']}")
    if not np.all(np.isfinite(result.train_loss)):
        errors.append("training loss history is not finite")

    # gradients: central differences of the oracle's (penalised) objective
    sub_x, sub_y = train.x[:dims["fd_curves"]], train.y[:dims["fd_curves"]]
    out, cache = net.forward(sub_x)
    grads = net.backward(cache, out - sub_y)
    if lam > 0:
        pen_value, pen_grads = net.penalty(lam, lam)
        grads = [g + pg for g, pg in zip(grads, pen_grads)]
        ref = oracle.roughness(layers, lam, lam)
        err = abs(pen_value - ref) / abs(ref)
        if not err <= 1e-10:
            errors.append(f"penalty differs from the oracle roughness by {err:.2e} relative")

    arrays = [a for b, w, _ in layers for a in (b, w)]

    def objective(i, c):
        """Loss plus the roughness of the one curve or surface holding coordinate c."""
        value = oracle.quadratic_loss(oracle.fdnn_eval(layers, sub_x), sub_y)
        if lam == 0:
            return value
        arr = arrays[i]
        if arr.ndim == 2:  # intercepts (K, S)
            return value + oracle.curve_roughness(arr[c // arr.shape[1]], lam)
        k, j = np.unravel_index(c, arr.shape)[:2]  # weights (K, J, S, T)
        return value + oracle.surface_roughness(arr[k, j], lam)

    worst = oracle.fd_worst_error(objective, arrays, grads, 4, np.random.default_rng(seed))
    if not worst <= 1e-4:
        errors.append(f"gradient differs from finite differences by {worst:.2e} relative")

    if spec["minibatch"] and size == "full":
        fitted = oracle.roughness(layers, 0.0, 1.0)
        initial = oracle.roughness(run["init_layers"], 0.0, 1.0)
        if not fitted <= initial / 5.0:
            errors.append(f"weight roughness {fitted:.3g} not far below its initial {initial:.3g}")
    elif not spec["minibatch"]:
        val = run["val"]
        best = result.best_val_loss
        initial = oracle.quadratic_loss(oracle.fdnn_eval(run["init_layers"], val.x), val.y)
        returned = oracle.quadratic_loss(oracle.fdnn_eval(layers, val.x), val.y)
        history_min = min(initial, float(np.min(result.val_loss)))
        at_best = initial if result.best_iteration == 0 else result.val_loss[result.best_iteration - 1]
        for label, value in (("returned model", returned), ("history minimum", history_min),
                             ("history at best_iteration", at_best)):
            if not abs(value - best) <= 1e-9 * abs(best):
                errors.append(f"best validation loss {best!r} differs from the {label} {value!r}")
        if size == "full":
            mean_curve = np.broadcast_to(train.y.mean(axis=0), test.y.shape)
            baseline = oracle.rmse(mean_curve, test.y)
            if not 0.9 <= run["test_rmse"] < baseline:
                errors.append(f"test RMSE {run['test_rmse']:.4f} outside [0.9, mean-curve "
                              f"RMSE {baseline:.4f})")
    return errors


def fdnn_metrics(run, dims):
    n_test = dims["split"][2]
    return {
        "setup_s": run["setup_s"],
        "fit_iters_per_s": run["iterations"] / run["fit_s"],
        "predict_curves_per_s": n_test / run["predict_s"],
        "replicates_per_min": 60.0 / (run["fit_s"] + run["predict_s"]),
        "test_rmse": run["test_rmse"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


# ----------------------------------------------------------------------
# cli-study
# ----------------------------------------------------------------------

def cli_argv(size, seed, out):
    dims = SIZES[size]
    n = sum(dims["split"])
    return [
        "benchmark", "--scenarios", ",".join(CLI_SCENARIOS), "--models", ",".join(CLI_MODELS),
        "--replicates", str(CLI_REPLICATES), "--n", str(n), "--m", str(dims["m"]),
        "--m-y", str(dims["m_y"]), "--neurons", dims["cli_neurons"],
        "--grid-points", dims["cli_points"], "--num-basis", str(dims["cli_basis"]),
        "--hidden", dims["cli_hidden"], "--activation", "tanh", "--step-size", "1e-2",
        "--max-iterations", str(dims["cli_iterations"]), "--patience", "inf",
        "--workers", "1", "--write-params", "true", "--seed", str(seed), "--out", str(out),
    ]


def cli_pass(size, seed, spawned, tracer=None):
    out = OUT / f"cli-study-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    argv = cli_argv(size, seed, out)
    rows = len(CLI_SCENARIOS) * len(CLI_MODELS) * CLI_REPLICATES
    run = {"out": out, "attempted": rows, "failed": 0, "errors": []}
    run["setup_s"] = time.time() - spawned
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with span, contextlib.redirect_stdout(sys.stderr):
        run["rc"] = cli.main(argv)
    run["fit_s"] = time.perf_counter() - start
    run["peak_rss_mb"] = peak_rss_mb()
    return run


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_cli(size, run):
    dims = SIZES[size]
    errors = []
    if run["rc"] != 0:
        errors.append(f"funcnet benchmark exited {run['rc']}")
        run["failed"] = run["attempted"]
        return errors
    out = run["out"]
    header, *rows = read_csv(out / "results.csv")
    if header != ["scenario", "model", "replicate", "rmse", "error"]:
        errors.append(f"results.csv header {header}")
        return errors
    if len(rows) != run["attempted"]:
        errors.append(f"results.csv has {len(rows)} rows, expected {run['attempted']}")
    failed = [r for r in rows if r[4] or not r[3]]
    run["failed"] = len(failed) + max(run["attempted"] - len(rows), 0)
    for r in failed:
        errors.append(f"row {r[:3]} failed: {r[4]}")
    ok = [r for r in rows if r not in failed]
    full = size == "full"
    for scenario, model, rep, value, _ in ok:
        rmse = float(value)
        if not math.isfinite(rmse) or (full and rmse < 0.9):
            errors.append(f"{scenario}/{model}/{rep} RMSE {rmse} not finite or below 0.9")
        if full and scenario == "linear" and model == "fflm" and not 0.95 <= rmse <= 1.10:
            errors.append(f"linear/fflm/{rep} RMSE {rmse:.4f} outside [0.95, 1.10]")
    run["linear_rmse"] = [float(r[3]) for r in ok if r[0] == "linear"]

    header, *summary = read_csv(out / "summary.csv")
    expected = {(s, m) for s in CLI_SCENARIOS for m in CLI_MODELS}
    if {(r[0], r[1]) for r in summary} != expected:
        errors.append("summary.csv does not list every scenario and model")
    for scenario, model, count, mean, se in summary:
        vals = [float(r[3]) for r in ok if r[0] == scenario and r[1] == model]
        if int(count) != len(vals) or not vals:
            errors.append(f"summary {scenario}/{model} counts {count}, results have {len(vals)}")
            continue
        ref_mean, ref_se = oracle.mean_and_se(vals)
        if abs(float(mean) - ref_mean) > 1e-6 or abs(float(se) - ref_se) > 1e-6:
            errors.append(f"summary {scenario}/{model} {mean}/{se} differs from "
                          f"{ref_mean:.6f}/{ref_se:.6f}")

    expected_rows = oracle.param_dump_rows(
        dims["m"], 1, [int(dims["cli_neurons"])], [int(dims["cli_points"])], dims["m_y"])
    dumps = sorted(p.name for p in out.glob("params_*.csv"))
    wanted = sorted(f"params_{s}_{m}.csv" for s in CLI_SCENARIOS for m in ("fdnn", "fbnn"))
    if dumps != wanted:
        errors.append(f"parameter dumps {dumps}, expected {wanted}")
    run["write_params_rows"] = 0
    for name in dumps:
        header, *body = read_csv(out / name)
        run["write_params_rows"] += len(body)
        if len(body) != expected_rows:
            errors.append(f"{name} has {len(body)} rows, its architecture implies {expected_rows}")
        values = np.array([float(r[6]) for r in body])
        if not np.all(np.isfinite(values)):
            errors.append(f"{name} holds non-finite values")
    return errors


def cli_metrics(run, dims):
    rows = run["attempted"]
    network_rows = sum(m != "fflm" for m in CLI_MODELS) * len(CLI_SCENARIOS) * CLI_REPLICATES
    return {
        "setup_s": run["setup_s"],
        "fit_iters_per_s": network_rows * dims["cli_iterations"] / run["fit_s"],
        "predict_curves_per_s": rows * dims["split"][2] / run["fit_s"],
        "replicates_per_min": 60.0 * rows / run["fit_s"],
        "test_rmse": statistics.fmean(run["linear_rmse"]) if run["linear_rmse"] else math.nan,
        "peak_rss_mb": run["peak_rss_mb"],
    }


# ----------------------------------------------------------------------

def one_pass(name, size, seed, spawned, tracer):
    if name == "cli-study":
        run = cli_pass(size, seed, spawned, tracer)
        if tracer:
            tracer.restore()
        run["errors"] += check_cli(size, run)
        shutil.rmtree(run["out"], ignore_errors=True)
    else:
        run = fdnn_pass(name, size, seed, spawned, tracer)
        if tracer:
            tracer.restore()
        run["errors"] += check_fdnn(name, size, seed, run)
    return run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--spawned", type=float, required=True,
                        help="unix time at which the parent started this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--spans", help="JSON-lines file the traced pass appends its spans to")
    args = parser.parse_args(argv)
    if not Path(funcnet.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"funcnet was imported from {funcnet.__file__}, not from this checkout")

    dims = SIZES[args.size]
    metrics = fdnn_metrics if args.workload in FDNN_WORKLOADS else cli_metrics
    report = {"attempted": 0, "failed": 0, "errors": []}
    # a traced round also runs untraced, alternating which goes first
    plan = [False] if not args.trace else [False, True] if args.round % 2 == 0 else [True, False]
    fit_s = {}
    for traced in plan:
        tracer = None
        if traced:
            tracer = spans.Tracer()
            spans.install(tracer)
        run = one_pass(args.workload, args.size, args.seed, args.spawned, tracer)
        report["attempted"] += run["attempted"]
        report["failed"] += run["failed"]
        report["errors"] += run["errors"]
        if "fit_s" not in run:
            continue
        fit_s[traced] = run["fit_s"]
        if traced:
            layers = spans.layer_metrics(tracer.spans)
            layers["cli.write_params_rows"] = float(run.get("write_params_rows", 0))
            report["layers"] = layers
            if args.spans:
                tracer.dump(args.spans, args.round)
        elif not report["errors"]:
            report["metrics"] = metrics(run, dims)
    if len(fit_s) == 2:
        report["layers"]["trace.overhead_pct"] = 100.0 * (fit_s[True] / fit_s[False] - 1.0)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
