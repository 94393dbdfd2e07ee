"""Command-line interface: simulate, fit, benchmark, gradcheck.

Every run is reproducible from its flags (or key=value config file; a
flag beats the file).  Exit codes: 0 success, 1 usage/config error,
2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import baselines, datagen, fbnn, fdnn, training
from .bsplines import BSplineBasis
from .gp import MaternParams
from .grids import Grid

SCHEMA_VERSION = 1

MODELS = ("fdnn", "fbnn", "fflm", "vnn")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in str(text).split(",") if part.strip())


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


_finite.__name__ = "finite float"  # argparse names the cast in its message


def _finite_or_inf(text: str) -> float:
    value = float(text)
    if math.isnan(value) or value == -math.inf:
        raise ValueError(f"expected a finite number or inf, got {text!r}")
    return value


_finite_or_inf.__name__ = "finite (or inf) float"


def _at_least(low: int):
    """Cast to an int of at least ``low``."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"expected an integer of at least {low}, got {text!r}")
        return value

    count.__name__ = f"integer >= {low}"
    return count


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(_finite(part) for part in str(text).split(",") if part.strip())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in str(text).split(",") if part.strip())


def _bool(text: str) -> bool:
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected true/false, 1/0, yes/no or on/off, got {text!r}")


# Every option of a subcommand, in --help order: key -> (cast, hard
# default[, choices]).  The flags, their config-file keys and the checks
# on both come from here.
_COMMON = {
    "seed": (int, 0),
    "out": (str, "runs"),
}
_FIRST_TERMS = ("as_printed", "s")
_SIM_DEFAULTS = {
    "scenario": (str, "linear", datagen.SCENARIOS),
    "first_term": (str, "as_printed", _FIRST_TERMS),
    "n": (int, 1100),
    "m": (int, 100),
    "m_y": (int, 75),
    "sigma2": (_finite, 1.0),
    "rho": (_finite, 0.5),
    "nu": (_finite, 2.5),
    **_COMMON,
}
_TRAIN_DEFAULTS = {
    "step_size": (_finite, 1e-2),
    "max_iterations": (_at_least(0), 2000),
    "patience": (_finite_or_inf, 100),
    "optimizer": (str, "adam", training.OPTIMIZERS),
    "batch_size": (_at_least(1), None),
    "lam": (_finite, None),
    "lam_b": (_finite, 0.0),
    "lam_w": (_finite, 0.0),
}
_ARCH_DEFAULTS = {
    "neurons": (_int_list, (4,)),
    "grid_points": (_int_list, (50,)),
    "num_basis": (int, 15),
    "hidden": (_int_list, (128, 128)),
    "activation": (str, "tanh"),
}
_FIT_DEFAULTS = {
    "data": (str, None),
    "m": (int, None),
    "m_y": (int, None),
    "model": (str, "fdnn", MODELS),
    "mode": (str, "early-stopping", ("early-stopping", "cv", "fixed")),
    "cv_strategy": (str, "mean", training.ES_STRATEGIES),
    "folds": (_at_least(2), 5),
    "iterations": (_at_least(0), 1000),
    **_ARCH_DEFAULTS,
    **_TRAIN_DEFAULTS,
    "lam_grid": (_float_list, None),
    "n_train": (int, None),
    "n_val": (int, None),
    "n_test": (int, None),
    "split_seed": (int, 0),
    **_COMMON,
}
_BENCH_DEFAULTS = {
    "scenarios": (_str_list, ("linear",)),
    "models": (_str_list, ("fdnn",)),
    "replicates": (_at_least(1), 10),
    "n": (int, 1100),
    "m": (int, 100),
    "m_y": (int, 75),
    "first_term": (str, "as_printed", _FIRST_TERMS),
    **_ARCH_DEFAULTS,
    **_TRAIN_DEFAULTS,
    "workers": (_at_least(1), 1),
    "write_params": (_bool, True),
    **_COMMON,
}
_GRADCHECK_DEFAULTS = {
    "eps": (_finite, 1e-5),
    "tolerance": (_finite, 1e-4),
    **_COMMON,
}
_COMMANDS = {
    "simulate": ("generate a scenario dataset CSV", _SIM_DEFAULTS),
    "fit": ("train one model on a dataset CSV", _FIT_DEFAULTS),
    "benchmark": ("scenario x model RMSE comparison", _BENCH_DEFAULTS),
    "gradcheck": ("finite-difference gradient audit", _GRADCHECK_DEFAULTS),
}
_CONFIG_KEYS = {"config"}.union(*(table for _, table in _COMMANDS.values()))


def build_parser() -> _Parser:
    parser = _Parser(prog="funcnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, table) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", default=None)
        for key, (cast, _, *choices) in table.items():
            sp.add_argument("--" + key.replace("_", "-"), default=None,
                            type=cast, choices=choices[0] if choices else None)
    return parser


def _read_config_file(path: str) -> dict:
    """Flat key=value text; '#' starts a comment; keys use underscores.

    Returns key -> (value text, line number).  A key that is not an
    option of any subcommand is an error, so one file can serve several
    subcommands but a misspelt key is not silently ignored.
    """
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise _UsageError(f"{path}:{lineno}: unknown option {key!r}")
            values[key] = (value.strip(), lineno)
    return values


def _apply_config_file(args: argparse.Namespace, table: dict):
    """Fill still-unset options from the config file, then hard defaults.

    File values go through the same cast and choices check as the flags.
    """
    file_cfg = _read_config_file(args.config) if args.config else {}
    for key, (cast, default, *choices) in table.items():
        if getattr(args, key) is not None:
            continue
        if key not in file_cfg:
            setattr(args, key, default)
            continue
        raw, lineno = file_cfg[key]
        try:
            value = cast(raw)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"{args.config}:{lineno}: {key} = {raw!r}: {exc}") from exc
        if choices and value not in choices[0]:
            raise _UsageError(f"{args.config}:{lineno}: {key} = {raw!r}: choose from "
                              f"{', '.join(choices[0])}")
        setattr(args, key, value)
    return args


def _write_json(path, doc):
    text = json.dumps(doc, indent=2, allow_nan=False)  # NaN is not JSON
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _finite_or_none(value):
    return value if math.isfinite(value) else None


def cmd_simulate(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    scenario = datagen.Scenario(args.scenario, args.first_term)
    matern = MaternParams(sigma2=args.sigma2, rho=args.rho, nu=args.nu)
    data = datagen.generate(scenario, args.n, args.m, args.m_y, matern, args.seed)
    csv_path = os.path.join(args.out, "dataset.csv")
    datagen.save_table(csv_path, data)
    _write_json(
        os.path.join(args.out, "dataset.json"),
        {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "scenario": args.scenario,
            "first_term": args.first_term,
            "n": args.n,
            "m": args.m,
            "m_y": args.m_y,
            "sigma2": args.sigma2,
            "rho": args.rho,
            "nu": args.nu,
            "seed": args.seed,
        },
    )
    print(f"wrote {csv_path} ({data.n} rows)")
    return 0


def _default_split(n: int) -> tuple[int, int, int]:
    """Default split proportions: 5/11 train, 1/11 validation, 5/11 test."""
    n_test = (5 * n) // 11
    n_val = n // 11
    return n - n_val - n_test, n_val, n_test


def _resolve_layout(args):
    layout = {"m": args.m, "m_y": args.m_y}
    sidecar = os.path.splitext(args.data)[0] + ".json"
    if None in layout.values() and os.path.exists(sidecar):
        with open(sidecar) as fh:
            doc = json.load(fh)
        for key in [key for key, value in layout.items() if value is None]:
            layout[key] = doc.get(key) if isinstance(doc, dict) else None
            if type(layout[key]) is not int:  # bool is an int subclass
                raise _UsageError(f"{sidecar}: {key!r} is missing or not an integer")
    if None in layout.values():
        raise _UsageError("--m/--m-y required (no dataset sidecar found)")
    return layout["m"], layout["m_y"]


def _build_network(kind: str, m: int, m_y: int, input_count: int, args, seed):
    """A new fdnn, fbnn or vnn network with the architecture flags of ``args``."""
    if kind == "vnn":
        return baselines.vnn_init(
            input_count, m, m_y, tuple(args.hidden), args.activation, seed
        )
    arch = dict(input_points=m, output_points=m_y, input_count=input_count,
                hidden_neurons=tuple(args.neurons), hidden_points=tuple(args.grid_points),
                activation=args.activation)
    if kind == "fdnn":
        return fdnn.init(fdnn.FdnnConfig(**arch), seed)
    bases = dict.fromkeys(("num_intercept_basis", "num_row_basis", "num_col_basis"),
                          args.num_basis)
    return fbnn.init(fbnn.FbnnConfig(**arch, **bases), seed)


def _smoothing(args) -> tuple[float, float]:
    """(lam_b, lam_w) for the networks: --lam sets both."""
    if args.lam is not None:
        return args.lam, args.lam
    return args.lam_b, args.lam_w


def _check_smoothing(args, models, m, m_y):
    """Refuse, before any work is done, a roughness penalty that vnn does
    not have or that fdnn cannot take on a grid of fewer than 3 points
    (the second differences need 3)."""
    lam_b, lam_w = _smoothing(args)
    grid = getattr(args, "lam_grid", None) or ()
    if not (lam_b > 0 or lam_w > 0 or any(grid)):
        return
    if "vnn" in models:
        raise _UsageError("model vnn has no roughness penalty; leave --lam, --lam-b, "
                          "--lam-w and --lam-grid at 0 for it")
    # intercepts live on the hidden and output grids, weights also on the input grid
    points = (args.grid_points if args.neurons else ()) + (m_y,)
    if lam_w > 0 or any(grid):
        points += (m,)
    if "fdnn" in models and min(points) < 3:
        raise _UsageError("a penalised fdnn needs at least 3 points on every grid "
                          "(--m, --m-y, --grid-points); raise them or drop the penalty")


def _split_sizes(args):
    """(n_train, n_val, n_test) from the flags, or None for the default split."""
    keys = ("n_train", "n_val", "n_test")
    missing = ["--" + key.replace("_", "-") for key in keys if getattr(args, key) is None]
    if not missing:
        return tuple(getattr(args, key) for key in keys)
    if len(missing) < len(keys):
        raise _UsageError(f"give all of --n-train/--n-val/--n-test or none; "
                          f"missing {', '.join(missing)}")
    return None


def _train_config(args) -> training.TrainConfig:
    lam_b, lam_w = _smoothing(args)
    return training.TrainConfig(
        step_size=args.step_size,
        max_iterations=args.max_iterations,
        patience=args.patience,
        optimizer=args.optimizer,
        batch_size=args.batch_size,
        lam_b=lam_b,
        lam_w=lam_w,
        seed=args.seed,
    )


def _rmse_of(model, part) -> float:
    return training.rmse(model.predict(part.x), part.y, part.y_grid)


def _merge(train, val) -> datagen.FuncDataset:
    return datagen.FuncDataset(
        np.concatenate([train.x, val.x]),
        np.concatenate([train.y, val.y]),
        train.x_grid,
        train.y_grid,
    )


def _fit_fflm(merged, args, lam_grid=None):
    """Closed-form linear fit (λ tuned by k-fold CV over ``lam_grid`` if given)."""
    bases = dict.fromkeys(("num_intercept_basis", "num_pred_basis", "num_resp_basis"),
                          args.num_basis)
    lam = args.lam if args.lam is not None else args.lam_w
    if lam_grid:
        lam = baselines.fflm_tune_lambda(merged, lam_grid, k=args.folds,
                                         seed=args.seed, **bases)
    return baselines.fflm_fit(merged, lam=lam, **bases), lam


def cmd_fit(args) -> int:
    if not args.data:
        raise _UsageError("fit requires --data PATH")
    sizes = _split_sizes(args)
    cfg = _train_config(args)
    m, m_y = _resolve_layout(args)
    _check_smoothing(args, [args.model], m, m_y)
    data = datagen.load_table(args.data, m, m_y)
    spec = datagen.SplitSpec(*(sizes or _default_split(data.n)), args.split_seed)
    train, val, test = datagen.split(data, spec)
    os.makedirs(args.out, exist_ok=True)
    input_count = data.x.shape[1]
    merged = _merge(train, val)  # what every mode but early stopping fits on

    def factory(seed):
        return _build_network(args.model, m, m_y, input_count, args, seed)

    history = None
    extra: dict = {}
    if args.model == "fflm":
        # the linear model needs no validation set
        model, lam = _fit_fflm(merged, args, args.lam_grid)
        if args.lam_grid:
            extra["tuned_lam"] = lam
    else:
        if args.lam_grid:
            lam_b, lam_w = training.tune_lambda(
                factory, (train.x, train.y), args.lam_grid, k=args.folds, cfg=cfg
            )
            cfg = cfg.replace(lam_b=lam_b, lam_w=lam_w)
            extra["tuned_lam_b"] = lam_b
            extra["tuned_lam_w"] = lam_w
        model = factory(args.seed)
        if args.mode == "early-stopping":
            history = training.train_early_stopping(
                model, (train.x, train.y), (val.x, val.y), cfg
            )
        elif args.mode == "fixed":
            history = training.train_fixed(model, merged.x, merged.y,
                                           args.iterations, cfg)
        else:
            model, cv_res = training.cv_early_stopping(
                factory, (merged.x, merged.y), k=args.folds,
                strategy=args.cv_strategy, cfg=cfg,
            )
            extra["cv"] = {
                "strategy": cv_res.strategy,
                "fold_best_iterations": cv_res.fold_best_iterations,
                "fold_val_losses": cv_res.fold_val_losses,
                "aggregate_iterations": cv_res.aggregate_iterations,
            }

    metrics = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "mode": args.mode if args.model != "fflm" else "closed-form",
        "train_rmse": _rmse_of(model, train),
        "val_rmse": _rmse_of(model, val) if val.n else None,
        "test_rmse": _rmse_of(model, test) if test.n else None,
        "lam_b": cfg.lam_b if args.model != "fflm" else None,
        "lam_w": cfg.lam_w if args.model != "fflm" else None,
        **extra,
    }
    if history is not None:
        metrics["stopping_iteration"] = history.stopping_iteration
        metrics["best_iteration"] = history.best_iteration
        history.to_csv(os.path.join(args.out, "history.csv"))
        history.to_json(os.path.join(args.out, "history.json"))
    _write_json(os.path.join(args.out, "model.json"), model.to_dict())
    _write_json(os.path.join(args.out, "metrics.json"), metrics)
    print(
        f"{args.model}: train {metrics['train_rmse']:.4f}"
        + (f", test {metrics['test_rmse']:.4f}" if metrics["test_rmse"] else "")
    )
    return 0


def _benchmark_tasks(args):
    """Expand the run matrix; one data stream per (scenario, replicate)."""
    root = np.random.SeedSequence(args.seed)
    scen_seeds = root.spawn(len(args.scenarios))
    tasks = []
    for s_idx, scenario in enumerate(args.scenarios):
        rep_seeds = scen_seeds[s_idx].spawn(args.replicates)
        for rep in range(args.replicates):
            streams = rep_seeds[rep].spawn(2 + len(args.models))
            for m_idx, model in enumerate(args.models):
                tasks.append(
                    {
                        "scenario": scenario,
                        "model": model,
                        "replicate": rep,
                        "data_seed": streams[0],
                        "split_seed": streams[1],
                        "model_seed": streams[2 + m_idx],
                    }
                )
    return tasks


def _run_benchmark_task(task, args, cfg) -> dict:
    scenario = datagen.Scenario(task["scenario"], args.first_term)
    data = datagen.generate(scenario, args.n, args.m, args.m_y,
                            seed=task["data_seed"])
    n_train, n_val, n_test = _default_split(data.n)
    train, val, test = datagen.split(
        data, datagen.SplitSpec(n_train, n_val, n_test, task["split_seed"])
    )
    model_seed = task["model_seed"]
    kind = task["model"]
    if kind == "fflm":
        model, _ = _fit_fflm(_merge(train, val), args)
    else:
        model = _build_network(kind, args.m, args.m_y, 1, args, model_seed)
        training.train_early_stopping(model, (train.x, train.y), (val.x, val.y), cfg)
    out = {
        "scenario": task["scenario"],
        "model": kind,
        "replicate": task["replicate"],
        "rmse": _rmse_of(model, test),
    }
    if task["replicate"] == 0 and kind in ("fdnn", "fbnn") and args.write_params:
        direct = fbnn.expand_to_direct(model) if kind == "fbnn" else model
        out["params"] = [(layer.b, layer.w) for layer in direct.layers]
    return out


def _task_wrapper(payload):
    task, args_dict, cfg = payload
    args = argparse.Namespace(**args_dict)
    try:
        return _run_benchmark_task(task, args, cfg)
    except Exception as exc:  # recorded, run continues
        return {
            "scenario": task["scenario"],
            "model": task["model"],
            "replicate": task["replicate"],
            "rmse": None,
            "error": f"{type(exc).__name__}: {exc}",
        }


def _write_param_functions(path, layers):
    """Plot-ready long CSV of a direct network's parameter functions, from
    its per-layer ``(b, w)`` arrays of shapes (K, S) and (K, J, S, T).

    Values are written as ``repr`` of the float, one surface at a time,
    with the header and ``\\r\\n`` line ends of ``csv.writer``.
    """
    with open(path, "w", newline="") as fh:
        fh.write("layer,neuron,source,kind,s,t,value\r\n")
        for l_idx, (b, w) in enumerate(layers):
            s_txt = [repr(v) for v in Grid(w.shape[2]).points.tolist()]
            t_txt = [repr(v) for v in Grid(w.shape[3]).points.tolist()]
            for k, (b_k, w_k) in enumerate(zip(b.tolist(), w.tolist())):
                fh.write("".join(f"{l_idx},{k},,intercept,{s},,{v!r}\r\n"
                                 for s, v in zip(s_txt, b_k)))
                for j, surface in enumerate(w_k):
                    fh.write("".join(f"{l_idx},{k},{j},weight,{s},{t},{v!r}\r\n"
                                     for s, row in zip(s_txt, surface)
                                     for t, v in zip(t_txt, row)))


def cmd_benchmark(args) -> int:
    for kind in args.models:
        if kind not in MODELS:
            raise _UsageError(f"unknown model {kind!r}; choose from {MODELS}")
    for name in args.scenarios:
        if name not in datagen.SCENARIOS:
            raise _UsageError(f"unknown scenario {name!r}")
    for flag, names in (("--models", args.models), ("--scenarios", args.scenarios)):
        twice = sorted({name for name in names if names.count(name) > 1})
        if twice:
            raise _UsageError(f"{flag} lists {', '.join(twice)} more than once")
    _check_smoothing(args, args.models, args.m, args.m_y)
    # a bad training or architecture flag fails here, not once per replicate
    cfg = _train_config(args)
    for kind in args.models:
        if kind == "fflm":
            BSplineBasis(args.num_basis)
        else:
            _build_network(kind, args.m, args.m_y, 1, args, 0)
    os.makedirs(args.out, exist_ok=True)
    tasks = _benchmark_tasks(args)
    args_dict = vars(args).copy()
    payloads = [(task, args_dict, cfg) for task in tasks]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_task_wrapper, payloads))
    else:
        rows = [_task_wrapper(p) for p in payloads]

    results_path = os.path.join(args.out, "results.csv")
    with open(results_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "model", "replicate", "rmse", "error"])
        for row in sorted(
            rows, key=lambda r: (r["scenario"], r["model"], r["replicate"])
        ):
            writer.writerow(
                [
                    row["scenario"],
                    row["model"],
                    row["replicate"],
                    "" if row["rmse"] is None else repr(float(row["rmse"])),
                    row.get("error", ""),
                ]
            )

    summary_path = os.path.join(args.out, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "model", "replicates", "mean_rmse", "se_rmse"])
        for scenario in args.scenarios:
            for kind in args.models:
                vals = [
                    row["rmse"]
                    for row in rows
                    if row["scenario"] == scenario
                    and row["model"] == kind
                    and row["rmse"] is not None
                ]
                if vals:
                    mean = float(np.mean(vals))
                    se = (
                        float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
                        if len(vals) > 1
                        else 0.0
                    )
                    writer.writerow([scenario, kind, len(vals), f"{mean:.6f}",
                                     f"{se:.6f}"])
                else:
                    writer.writerow([scenario, kind, 0, "", ""])

    for row in rows:
        if "params" in row:
            path = os.path.join(
                args.out, f"params_{row['scenario']}_{row['model']}.csv"
            )
            _write_param_functions(path, row["params"])

    failures = sum(1 for row in rows if row["rmse"] is None)
    print(f"wrote {results_path} and {summary_path}"
          + (f" ({failures} failed replicates)" if failures else ""))
    return 0


def cmd_gradcheck(args) -> int:
    """Finite-difference audit of all backward passes on small nets.

    The quadratic-loss gradient and the penalty gradient are audited
    against their own objectives; summing terms of very different
    magnitudes would manufacture near-zero denominators and report
    finite-difference roundoff instead of implementation error.
    """
    os.makedirs(args.out, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    m, m_hidden, m_y = 10, 8, 8
    batch = 3
    x = rng.standard_normal((batch, 1, m))
    y = rng.standard_normal((batch, m_y))

    arch = argparse.Namespace(neurons=(2,), grid_points=(m_hidden,), num_basis=5,
                              hidden=(6,), activation="tanh")
    nets = {kind: _build_network(kind, m, m_y, 1, arch, rng.integers(2**32))
            for kind in ("fdnn", "fbnn", "vnn")}
    report = {"schema_version": SCHEMA_VERSION, "eps": args.eps,
              "tolerance": args.tolerance, "errors": {}}
    errors = []
    for name, net in nets.items():
        err_loss = training.grad_check(net, x, y, eps=args.eps)
        entry = {"loss": err_loss}
        if name in ("fdnn", "fbnn"):
            err_pen = training.fd_error(lambda: net.penalty(1.0, 1.0)[0],
                                        net.parameters(), net.penalty(1.0, 1.0)[1],
                                        args.eps)
            entry["penalty"] = err_pen
            print(f"gradcheck {name}: loss {err_loss:.3e}, penalty {err_pen:.3e}")
        else:
            print(f"gradcheck {name}: loss {err_loss:.3e}")
        errors.extend(entry.values())
        # a non-finite error is written as null, since NaN is not JSON
        report["errors"][name] = {k: _finite_or_none(v) for k, v in entry.items()}
    # a NaN error must fail the audit, which max() alone would not ensure
    worst = math.nan if any(math.isnan(e) for e in errors) else max(errors)
    report["worst"] = _finite_or_none(worst)
    _write_json(os.path.join(args.out, "gradcheck.json"), report)
    if not worst <= args.tolerance:
        print(f"FAIL: worst error {worst:.3e} exceeds {args.tolerance:.1e}",
              file=sys.stderr)
        return 2
    print(f"OK: worst error {worst:.3e} within {args.tolerance:.1e}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args, _COMMANDS[args.command][1])
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "benchmark":
            return cmd_benchmark(args)
        return cmd_gradcheck(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help or hard exits
        return 0 if exc.code in (0, None) else 1
    except (training.TrainingDiverged, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
