"""Command-line interface: simulate, fit, benchmark, gradcheck.

Every run is reproducible from its flags (or key=value config file; a
flag beats the file).  Exit codes: 0 success, 1 usage/config error,
2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np

from . import baselines, datagen, fbnn, fdnn, training
from .bsplines import BSplineBasis
from .gp import MaternParams
from .grids import Grid

SCHEMA_VERSION = 1


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


_MIN_POINTS = 2  # the fewest points on a grid


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


def _arch(args, m, m_y, input_count) -> dict:
    return dict(input_points=m, output_points=m_y, input_count=input_count,
                hidden_neurons=tuple(args.neurons), hidden_points=tuple(args.grid_points),
                activation=args.activation)


def _new_fdnn(args, m, m_y, input_count, seed):
    return fdnn.init(fdnn.FdnnConfig(**_arch(args, m, m_y, input_count)), seed)


def _new_fbnn(args, m, m_y, input_count, seed):
    bases = dict.fromkeys(("num_intercept_basis", "num_row_basis", "num_col_basis"),
                          args.num_basis)
    return fbnn.init(fbnn.FbnnConfig(**_arch(args, m, m_y, input_count), **bases), seed)


def _new_vnn(args, m, m_y, input_count, seed):
    return baselines.vnn_init(input_count, m, m_y, tuple(args.hidden), args.activation, seed)


class _Kind(NamedTuple):
    """All that the commands need to know of a model kind."""

    # (args, m, m_y, input_count, seed) -> a new network with the
    # architecture flags of args; None for the closed-form linear fit
    build: Callable | None
    takes: tuple[str, ...]  # which of --lam, --lam-b, --lam-w, --lam-grid, --mode apply
    min_points: int  # fewest points a penalty needs on every grid it acts on
    direct: Callable | None  # model -> the direct network its parameter functions are dumped from


_PENALTIES = ("lam", "lam_b", "lam_w", "lam_grid")
_KINDS = {
    # second differences need 3 points
    "fdnn": _Kind(_new_fdnn, (*_PENALTIES, "mode"), 3, lambda net: net),
    "fbnn": _Kind(_new_fbnn, (*_PENALTIES, "mode"), 0, fbnn.expand_to_direct),
    # the linear model penalises its surface (λ_w) and not its intercept
    "fflm": _Kind(None, ("lam", "lam_w", "lam_grid"), 0, None),
    "vnn": _Kind(_new_vnn, ("mode",), 0, None),
}
MODELS = tuple(_KINDS)


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
    "n": (_at_least(1), 1100),
    "m": (_at_least(_MIN_POINTS), 100),
    "m_y": (_at_least(_MIN_POINTS), 75),
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
    "m": (_at_least(_MIN_POINTS), None),
    "m_y": (_at_least(_MIN_POINTS), None),
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
    "n": (_at_least(11), 1100),  # the default split needs 11 for a validation curve
    "m": (_at_least(_MIN_POINTS), 100),
    "m_y": (_at_least(_MIN_POINTS), 75),
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
    # every option but the output directory, in --help order
    options = {key: getattr(args, key) for key in _SIM_DEFAULTS if key != "out"}
    _write_json(os.path.join(args.out, "dataset.json"),
                {"schema_version": SCHEMA_VERSION, "command": "simulate", **options})
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
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise _UsageError(f"{sidecar}: not valid JSON: {exc}") from exc
        for key in [key for key, value in layout.items() if value is None]:
            layout[key] = doc.get(key) if isinstance(doc, dict) else None
            # bool is an int subclass
            if type(layout[key]) is not int or layout[key] < _MIN_POINTS:
                raise _UsageError(f"{sidecar}: {key!r} is missing or not an integer "
                                  f"of at least {_MIN_POINTS}")
    if None in layout.values():
        raise _UsageError("--m/--m-y required (no dataset sidecar found)")
    return layout["m"], layout["m_y"]


def _smoothing(args) -> tuple[float, float]:
    """(lam_b, lam_w) for the networks: --lam sets both."""
    if args.lam is not None:
        return args.lam, args.lam
    return args.lam_b, args.lam_w


def _check_models(args, models, m, m_y):
    """Refuse, before any data is read or generated, a roughness penalty on
    a grid too coarse for a listed model, a positive penalty or a --mode
    that a listed model does not take (naming every model that refuses
    it), and architecture flags a listed model cannot be built with."""
    lam_b, lam_w = _smoothing(args)
    grid = getattr(args, "lam_grid", None) or ()
    if lam_b > 0 or lam_w > 0 or any(grid):
        # intercepts live on the hidden and output grids, weights also on the input grid
        points = (args.grid_points if args.neurons else ()) + (m_y,)
        if lam_w > 0 or any(grid):
            points += (m,)
        for kind in models:
            if min(points) < _KINDS[kind].min_points:
                raise _UsageError(f"a penalised {kind} needs at least "
                                  f"{_KINDS[kind].min_points} points on every grid (--m, "
                                  "--m-y, --grid-points); raise them or drop the penalty")
    asked = {"lam": (args.lam or 0) > 0, "lam_b": args.lam_b > 0, "lam_w": args.lam_w > 0,
             "lam_grid": any(grid),
             "mode": getattr(args, "mode", None) not in (None, _FIT_DEFAULTS["mode"][1])}
    for key in [key for key, value in asked.items() if value]:
        refusing = [kind for kind in models if key not in _KINDS[kind].takes]
        if refusing:
            raise _UsageError(f"--{key.replace('_', '-')} does not apply to model "
                              f"{', '.join(refusing)}; leave it out")
    for kind in models:  # on one predictor curve, as every dataset has
        build = _KINDS[kind].build
        if build:
            build(args, m, m_y, 1, 0)
        else:
            BSplineBasis(args.num_basis)


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


def _fit(kind, args, train, val, cfg, seed, mode, lam_grid):
    """A new ``kind`` model fitted in ``mode``, its penalty first tuned by
    k-fold CV over ``lam_grid`` if given, with its training history (None
    for closed-form and CV fits) and, for ``metrics.json``, the penalties
    it was fitted with and any tuning or CV summary."""
    build = _KINDS[kind].build
    if build is None:  # closed form on train + validation; no validation set needed
        merged = _merge(train, val)
        bases = dict.fromkeys(("num_intercept_basis", "num_pred_basis", "num_resp_basis"),
                              args.num_basis)
        lam = args.lam if args.lam is not None else args.lam_w
        extra = {}
        if lam_grid:
            lam = extra["tuned_lam"] = baselines.fflm_tune_lambda(
                merged, lam_grid, k=args.folds, seed=seed, **bases)
        return (baselines.fflm_fit(merged, lam=lam, **bases), None,
                {"lam_b": None, "lam_w": lam, **extra})

    factory = functools.partial(build, args, train.x_grid.m, train.y_grid.m, train.x.shape[1])
    extra = {}
    if lam_grid:
        lam_b, lam_w = training.tune_lambda(factory, (train.x, train.y), lam_grid,
                                            k=args.folds, cfg=cfg)
        cfg = cfg.replace(lam_b=lam_b, lam_w=lam_w)
        extra = {"tuned_lam_b": lam_b, "tuned_lam_w": lam_w}
    history = None
    if mode == "early-stopping":
        model = factory(seed)
        history = training.train_early_stopping(model, (train.x, train.y), (val.x, val.y), cfg)
    elif mode == "fixed":
        model = factory(seed)
        merged = _merge(train, val)
        history = training.train_fixed(model, merged.x, merged.y, args.iterations, cfg)
    else:
        merged = _merge(train, val)
        model, cv_res = training.cv_early_stopping(
            factory, (merged.x, merged.y), k=args.folds, strategy=args.cv_strategy, cfg=cfg,
        )
        extra["cv"] = {
            "strategy": cv_res.strategy,
            "fold_best_iterations": cv_res.fold_best_iterations,
            "fold_val_losses": cv_res.fold_val_losses,
            "aggregate_iterations": cv_res.aggregate_iterations,
        }
    return model, history, {"lam_b": cfg.lam_b, "lam_w": cfg.lam_w, **extra}


def cmd_fit(args) -> int:
    if not args.data:
        raise _UsageError("fit requires --data PATH")
    sizes = _split_sizes(args)
    cfg = _train_config(args)
    m, m_y = _resolve_layout(args)
    _check_models(args, [args.model], m, m_y)
    data = datagen.load_table(args.data, m, m_y)
    spec = datagen.SplitSpec(*(sizes or _default_split(data.n)), args.split_seed)
    train, val, test = datagen.split(data, spec)
    os.makedirs(args.out, exist_ok=True)
    model, history, record = _fit(args.model, args, train, val, cfg, args.seed, args.mode,
                                  args.lam_grid)
    metrics = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "mode": args.mode if _KINDS[args.model].build else "closed-form",
        "train_rmse": _rmse_of(model, train),
        "val_rmse": _rmse_of(model, val) if val.n else None,
        "test_rmse": _rmse_of(model, test) if test.n else None,
        **record,
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
        + (f", test {metrics['test_rmse']:.4f}" if metrics["test_rmse"] is not None else "")
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
    kind = task["model"]
    model, _, _ = _fit(kind, args, train, val, cfg, task["model_seed"], "early-stopping", None)
    out = {"rmse": _rmse_of(model, test)}
    direct = _KINDS[kind].direct
    if task["replicate"] == 0 and direct and args.write_params:
        out["params"] = [(layer.b, layer.w) for layer in direct(model).layers]
    return out


def _task_wrapper(payload):
    """The result row of one task; a failure is recorded and the run continues."""
    task, args_dict, cfg = payload
    row = {key: task[key] for key in ("scenario", "model", "replicate")}
    try:
        row.update(_run_benchmark_task(task, argparse.Namespace(**args_dict), cfg))
    except Exception as exc:
        row.update(rmse=None, error=f"{type(exc).__name__}: {exc}")
    return row


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
    for flag, names, known in (("--models", args.models, MODELS),
                               ("--scenarios", args.scenarios, datagen.SCENARIOS)):
        for name in names:
            if name not in known:
                raise _UsageError(f"unknown {flag[2:-1]} {name!r}; choose from {known}")
        twice = sorted({name for name in names if names.count(name) > 1})
        if twice:
            raise _UsageError(f"{flag} lists {', '.join(twice)} more than once")
    # a bad training or architecture flag fails here, not once per replicate
    cfg = _train_config(args)
    _check_models(args, args.models, args.m, args.m_y)
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
    cells = {(scenario, kind): [] for scenario in args.scenarios for kind in args.models}
    with open(results_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "model", "replicate", "rmse", "error"])
        for row in sorted(rows, key=lambda r: (r["scenario"], r["model"], r["replicate"])):
            rmse = row["rmse"]
            writer.writerow([row["scenario"], row["model"], row["replicate"],
                             "" if rmse is None else repr(float(rmse)), row.get("error", "")])
            if rmse is not None:
                cells[row["scenario"], row["model"]].append(rmse)

    summary_path = os.path.join(args.out, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "model", "replicates", "mean_rmse", "se_rmse"])
        for (scenario, kind), vals in cells.items():
            if not vals:
                writer.writerow([scenario, kind, 0, "", ""])
                continue
            se = np.std(vals, ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
            writer.writerow([scenario, kind, len(vals), f"{np.mean(vals):.6f}", f"{se:.6f}"])

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
    nets = {kind: spec.build(arch, m, m_y, 1, rng.integers(2**32))
            for kind, spec in _KINDS.items() if spec.build}
    report = {"schema_version": SCHEMA_VERSION, "eps": args.eps,
              "tolerance": args.tolerance, "errors": {}}
    errors = []
    for name, net in nets.items():
        err_loss = training.grad_check(net, x, y, eps=args.eps)
        entry = {"loss": err_loss}
        if "lam" in _KINDS[name].takes:
            entry["penalty"] = training.fd_error(lambda: net.penalty(1.0, 1.0)[0],
                                                 net.parameters(), net.penalty(1.0, 1.0)[1],
                                                 args.eps)
        print(f"gradcheck {name}: " + ", ".join(f"{k} {v:.3e}" for k, v in entry.items()))
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
        return {"simulate": cmd_simulate, "fit": cmd_fit, "benchmark": cmd_benchmark,
                "gradcheck": cmd_gradcheck}[args.command](args)
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
