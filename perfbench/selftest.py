"""Self-test of the benchmark at toy sizes; finishes in seconds.

    python3 perfbench/selftest.py

Checks the oracle against closed forms and against a deliberately wrong
gradient and network, checks that the tracer puts back every function it
wraps, runs every workload end to end at tiny sizes with and without
tracing, and checks that the benchmark refuses a tree without funcnet's
sources.  It lives outside ``tests/`` so the Tier-1 suite never runs it.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import funcnet  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402


def check(ok, what):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def oracle_closed_forms():
    m = 41
    t = np.linspace(0.0, 1.0, m)
    check(abs(oracle.trapezoid_weights(m) @ (3.0 * t + 1.0) - 2.5) < 1e-13,
          "trapezoid rule integrates a line exactly")
    d2 = oracle.second_diff_matrix(m) @ (t * t)
    check(np.allclose(d2[1:-1], 2.0) and d2[0] == 0.0 and d2[-1] == 0.0,
          "second difference of t^2 is 2 inside and 0 at the ends")
    check(abs(oracle.curve_roughness(t * t, 0.5) - 0.5 * 4.0 * (1.0 - 1.0 / (m - 1))) < 1e-9,
          "roughness of t^2 is 4 times the interior quadrature mass")
    surface = np.add.outer(3.0 * t, -2.0 * t[:21])
    check(abs(oracle.surface_roughness(surface, 1.0)) < 1e-9, "a plane has no roughness")
    mean, se = oracle.mean_and_se([1.0, 2.0, 3.0])
    check(mean == 2.0 and abs(se - math.sqrt(1.0 / 3.0)) < 1e-15, "mean and standard error")
    check(oracle.param_dump_rows(100, 1, [4], [50], 75) == 4 * (50 + 50 * 100) + 75 + 4 * 75 * 50,
          "parameter-dump row count of a one-hidden-layer network")


def oracle_catches_faults():
    x = np.linspace(-1.0, 2.0, 12)

    def cubic(_i, _c):
        return float(np.sum(x ** 3))

    rng = np.random.default_rng(0)
    check(oracle.fd_worst_error(cubic, [x], [3.0 * x * x], 6, rng) < 1e-8,
          "finite differences accept the exact gradient")
    check(oracle.fd_worst_error(cubic, [x], [3.03 * x * x], 6, rng) > 1e-3,
          "finite differences reject a gradient that is 1 % off")

    net = funcnet.fdnn.init(funcnet.FdnnConfig(12, 9, 1, (3, 2), (7, 6), "tanh"), seed=4)
    xs = np.random.default_rng(1).standard_normal((5, 1, 12))
    layers = [(layer.b.copy(), layer.w.copy(), layer.activation.name) for layer in net.layers]
    penalty = net.penalty(0.3, 0.7)[0]
    check(oracle.max_relative_error(net.predict(xs), oracle.fdnn_eval(layers, xs)) < 1e-12,
          "oracle network matches funcnet on a random tanh network")
    check(abs(penalty - oracle.roughness(layers, 0.3, 0.7)) < 1e-10 * penalty,
          "oracle roughness matches funcnet's penalty")
    layers[1][1][0, 1, 2, 3] += 1e-3
    check(oracle.max_relative_error(net.predict(xs), oracle.fdnn_eval(layers, xs)) > 1e-9,
          "oracle network differs after one weight changes")
    check(abs(penalty - oracle.roughness(layers, 0.3, 0.7)) > 1e-10 * penalty,
          "oracle roughness differs after one weight changes")


def tracer_restores():
    from funcnet import activations, fdnn, grids, training

    before = (fdnn.FdnnNetwork.forward, activations.Activation.__call__, grids.second_diff,
              fdnn.second_diff, training.train_fixed, training.Adam.step)
    tracer = spans.Tracer()
    spans.install(tracer)
    net = funcnet.fdnn.init(funcnet.FdnnConfig(12, 9, 1, (3,), (7,), "relu"), seed=4)
    xs = np.random.default_rng(1).standard_normal((5, 1, 12))
    ys = np.random.default_rng(2).standard_normal((5, 9))
    training.train_fixed(net, xs, ys, 4, training.TrainConfig(step_size=1e-2, lam_w=1e-3))
    tracer.restore()
    after = (fdnn.FdnnNetwork.forward, activations.Activation.__call__, grids.second_diff,
             fdnn.second_diff, training.train_fixed, training.Adam.step)
    check(all(a is b for a, b in zip(before, after)), "tracer puts back what it wrapped")
    layers = spans.layer_metrics(tracer.spans)
    check(layers["training.iterations"] == 4.0, "tracer counts training iterations")
    check(layers["fdnn.forward_calls_per_iter"] == 2.0,
          "tracer counts two forward calls per fixed-mode iteration")
    check(layers["fdnn.penalty_ms"] > 0 and layers["activations.relu_deriv_ms"] > 0,
          "tracer times the penalty and the relu derivative")


def run(argv, cwd):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def end_to_end():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(["perfbench/run.py", "--workload", "all", "--size", "tiny", "--seconds", "0",
                    "--trace", str(trace)], ROOT)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
        check(proc.returncode == 0, f"tiny run with --trace {trace} exits 0")
        lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
        names = [m["name"] for m in spec[kind]]
        for result in lines[:-1]:
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"tiny workload with --trace {trace} is correct and loses no operation")
            check(list(result["metrics"]) == names, f"it reports exactly the {kind} metrics")


def refuses_bare_tree():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = run(["perfbench/run.py", "--workload", "fdnn-deep-es", "--seed", "1",
                "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "a tree without funcnet's sources is refused without a result")


if __name__ == "__main__":
    oracle_closed_forms()
    oracle_catches_faults()
    tracer_restores()
    end_to_end()
    refuses_bare_tree()
    print("selftest passed")
