"""The benchmark's span tracer (perfbench/spans.py) still fits the package.

The tracer wraps funcnet's entry points by name from outside the
package; an entry point it cannot find is reported and skipped, and its
per-layer metric then reads 0.  These checks only import the tracer.
"""

import importlib.util
from pathlib import Path

import numpy as np

from funcnet import baselines
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
