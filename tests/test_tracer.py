"""The benchmark's span tracer (perfbench/spans.py) still fits the package.

The tracer wraps funcnet's entry points by name from outside the
package; an entry point it cannot find is reported and skipped, and its
per-layer metric then reads 0; so does a span the code never enters.
These checks only import the tracer.
"""

import importlib.util
from pathlib import Path

import numpy as np

from funcnet import baselines, cli
from funcnet.datagen import FuncDataset
from funcnet.grids import Grid

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_entry_point_and_restores_them(capsys):
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert "perfbench: cannot trace" not in capsys.readouterr().err
        wrapped = list(tracer._undo)
        assert wrapped

        # the linear model's fit and prediction are timed under their own names
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 1, 9))
        data = FuncDataset(x, rng.normal(size=(12, 7)), Grid(9), Grid(7))
        baselines.fflm_fit(data, 5, 5, 5, lam=1e-3).predict(x)
        names = {record[0] for record in tracer.spans}
        assert {"baselines.fflm_fit", "baselines.fflm_predict"} <= names
        assert not names & {"fbnn.forward", "fbnn.backward", "fbnn.penalty"}
    finally:
        tracer.restore()
    for owner, attr, original, _own in wrapped:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"


def test_benchmark_rows_and_fits_are_timed_under_their_names(tmp_path):
    # the per-kind row spans and the linear fit must be entered at run
    # time, not bypassed by a reference the command captured at import
    spans = load_spans()
    tracer = spans.Tracer()
    kinds = ("fflm", "fdnn", "fbnn", "vnn")
    try:
        spans.install(tracer)
        assert cli.main(["benchmark", "--scenarios", "linear", "--models", ",".join(kinds),
                         "--replicates", "2", "--n", "30", "--m", "9", "--m-y", "7",
                         "--neurons", "2", "--grid-points", "8", "--num-basis", "5",
                         "--hidden", "4", "--max-iterations", "3", "--patience", "inf",
                         "--out", str(tmp_path)]) == 0
        records = list(tracer.spans)
    finally:
        tracer.restore()
    names = [record[0] for record in records]
    for kind in kinds:
        assert names.count(f"cli.task_{kind}") == 2  # one per result row
    assert names.count("baselines.fflm_fit") == 2
    assert names.count("cli.write_params") == 2  # replicate 0 of fdnn and fbnn
    metrics = spans.layer_metrics(records)
    for name in (*(f"cli.task_{kind}_ms" for kind in kinds), "baselines.fflm_fit_ms",
                 "cli.write_params_ms"):
        assert metrics[name] > 0, name
