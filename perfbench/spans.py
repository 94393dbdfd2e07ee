"""Span tracing of funcnet's layers from outside the package.

A :class:`Tracer` replaces public functions and methods of funcnet's
modules with wrappers that record one span per call: name, start, end,
the span that was open when the call began (its parent) and an optional
count.  Spans stay in memory until the run writes them out.  Per-layer
metrics are derived from the spans of one round by :func:`layer_metrics`.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

FIT = "training.fit"

# spans timed per training iteration, counting only calls made inside a fit
PER_ITERATION = {
    "fdnn.forward_ms": "fdnn.forward",
    "fdnn.backward_ms": "fdnn.backward",
    "fdnn.penalty_ms": "fdnn.penalty",
    "activations.relu_ms": "activations.relu",
    "activations.relu_deriv_ms": "activations.relu_deriv",
    "activations.tanh_ms": "activations.tanh",
    "activations.tanh_deriv_ms": "activations.tanh_deriv",
    "grids.second_diff_ms": "grids.second_diff",
    "grids.second_diff_adjoint_ms": "grids.second_diff_adjoint",
    "training.optimizer_step_ms": "training.optimizer_step",
    "training.loss_ms": "training.loss",
    "fbnn.forward_ms": "fbnn.forward",
    "fbnn.backward_ms": "fbnn.backward",
    "fbnn.penalty_ms": "fbnn.penalty",
    "baselines.vnn_forward_ms": "baselines.vnn_forward",
    "baselines.vnn_backward_ms": "baselines.vnn_backward",
}

# spans totalled over the whole round, wherever they are called from
PER_ROUND = {
    "baselines.fflm_fit_ms": "baselines.fflm_fit",
    "baselines.fflm_predict_ms": "baselines.fflm_predict",
    "gp.gp_sample_ms": "gp.gp_sample",
    "datagen.generate_ms": "datagen.generate",
    "datagen.split_ms": "datagen.split",
    "bsplines.design_ms": "bsplines.design",
    "bsplines.gram_ms": "bsplines.gram",
    "cli.write_params_ms": "cli.write_params",
}


class Tracer:
    """Records spans as lists [name, start_ns, end_ns, parent index, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        record = [name, 0, 0, parent, 0]
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        return record

    def _close(self, record: list):
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, owner, attr: str, name, count=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a string or a function of the call's positional
        arguments; ``count(args, result)`` fills the span's count.  A
        missing attribute is reported and skipped, so its metrics read 0.
        """
        if not hasattr(owner, attr):
            print(f"perfbench: cannot trace {getattr(owner, '__name__', owner)}.{attr}",
                  file=sys.stderr)
            return
        original = getattr(owner, attr)
        own = attr in vars(owner)

        def wrapper(*args, **kwargs):
            record = self._open(name(args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record[4] = count(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, own))

    def restore(self):
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path, round_index: int):
        """Append this tracer's spans to a JSON-lines file."""
        with open(path, "a") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(json.dumps({"round": round_index, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "count": count}))
                fh.write("\n")


def install(tracer: Tracer):
    """Wrap the public entry points of every funcnet layer."""
    from funcnet import activations, baselines, bsplines, cli, datagen, fbnn, fdnn, gp, grids, training

    def curves(args, _result):
        return len(args[1])

    for cls, layer in ((fdnn.FdnnNetwork, "fdnn"), (fbnn.FbnnNetwork, "fbnn")):
        tracer.wrap(cls, "forward", f"{layer}.forward", curves)
        tracer.wrap(cls, "backward", f"{layer}.backward")
        tracer.wrap(cls, "penalty", f"{layer}.penalty")
    tracer.wrap(baselines.VectorNN, "forward", "baselines.vnn_forward", curves)
    tracer.wrap(baselines.VectorNN, "backward", "baselines.vnn_backward")
    tracer.wrap(baselines, "fflm_fit", "baselines.fflm_fit")
    tracer.wrap(baselines.FflmModel, "predict", "baselines.fflm_predict")
    tracer.wrap(activations.Activation, "__call__", lambda a: f"activations.{a[0].name}")
    tracer.wrap(activations.Activation, "deriv", lambda a: f"activations.{a[0].name}_deriv")
    # fdnn imported the difference operators by name, so both bindings are wrapped
    for module in (grids, fdnn):
        tracer.wrap(module, "second_diff", "grids.second_diff")
        tracer.wrap(module, "second_diff_adjoint", "grids.second_diff_adjoint")
    for module in (gp, datagen):
        tracer.wrap(module, "gp_sample", "gp.gp_sample")
    tracer.wrap(datagen, "generate", "datagen.generate")
    tracer.wrap(datagen, "split", "datagen.split")
    tracer.wrap(bsplines.BSplineBasis, "design", "bsplines.design")
    tracer.wrap(bsplines.BSplineBasis, "gram", "bsplines.gram")

    def iterations(_args, result):
        return len(result.train_loss)

    tracer.wrap(training, "train_early_stopping", FIT, iterations)
    tracer.wrap(training, "train_fixed", FIT, iterations)
    tracer.wrap(training.Adam, "step", "training.optimizer_step")
    tracer.wrap(training.PlainGradient, "step", "training.optimizer_step")
    tracer.wrap(training, "quadratic_loss", "training.loss")
    tracer.wrap(cli, "_run_benchmark_task", lambda a: f"cli.task_{a[0]['model']}")
    tracer.wrap(cli, "_write_param_functions", "cli.write_params")


def _self_ms(spans, idx_set) -> float:
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return sum(spans[i][2] - spans[i][1] - child_ns[i] for i in idx_set) / 1e6


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one round (``trace.overhead_pct`` excluded).

    Per-iteration figures divide the time of calls made inside training
    fits by the iterations those fits ran; per-round figures total every
    call; ``cli.task_*_ms`` are means per replicate row.
    """
    inside_fit = [False] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            inside_fit[i] = spans[parent][0] == FIT or inside_fit[parent]
    fits = [i for i, s in enumerate(spans) if s[0] == FIT]
    iters = sum(spans[i][4] for i in fits)

    def total_ms(name, fit_only):
        return sum(end - start for i, (n, start, end, _, _) in enumerate(spans)
                   if n == name and (inside_fit[i] or not fit_only)) / 1e6

    out = {}
    per_iter = max(iters, 1)
    for metric, span_name in PER_ITERATION.items():
        out[metric] = total_ms(span_name, True) / per_iter
    for metric, span_name in PER_ROUND.items():
        out[metric] = total_ms(span_name, False)
    fwd = [i for i, s in enumerate(spans) if s[0] == "fdnn.forward" and inside_fit[i]]
    out["fdnn.forward_calls_per_iter"] = len(fwd) / per_iter
    out["fdnn.forward_curves_per_iter"] = sum(spans[i][4] for i in fwd) / per_iter
    out["training.iteration_ms"] = sum(spans[i][2] - spans[i][1] for i in fits) / 1e6 / per_iter
    out["training.self_ms_per_iter"] = _self_ms(spans, fits) / per_iter
    out["training.iterations"] = float(iters)
    for kind in ("fflm", "fdnn", "fbnn", "vnn"):
        tasks = [s for s in spans if s[0] == f"cli.task_{kind}"]
        out[f"cli.task_{kind}_ms"] = (
            sum(s[2] - s[1] for s in tasks) / 1e6 / len(tasks) if tasks else 0.0
        )
    mains = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    out["cli.self_ms"] = _self_ms(spans, mains)
    return out
