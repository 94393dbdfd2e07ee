"""funcnet benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload fdnn-deep-es --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a funcnet source tree; the package is imported from
its ``src`` directory.  Each round of a workload runs in a fresh process
(perfbench/workloads.py) with one worker and one BLAS thread, so its
set-up and peak memory are its own.  Rounds repeat until
``--seconds`` have passed; every metric is the median over the rounds.
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed,
with ``--trace 1`` the per-layer ones, and the spans go to
perfbench/out/spans-<workload>-seed<seed>.jsonl.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "workloads.py"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("fdnn-deep-es", "fdnn-smooth-minibatch", "cli-study")
# a run, its last round included, must end within this many seconds
RUN_BUDGET_S = 170.0


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("FUNCNET_WORKERS", None)  # would override --workers 1
    # One BLAS thread: with OpenBLAS's default of one thread per core, the
    # fit throughput of fdnn-deep-es spread by 13 % between runs on a
    # 2-core machine, against 2.4 % with one thread (see README.md).
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_rounds(workload, seed, seconds, trace, size):
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    if trace:
        spans_path.unlink(missing_ok=True)
    env = worker_env()
    began = time.monotonic()
    rounds = []
    while True:
        remaining = RUN_BUDGET_S - (time.monotonic() - began)
        if remaining <= 0:
            fail(f"{workload}: out of time after {len(rounds)} rounds")
        cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
               "--size", size, "--trace", str(trace), "--round", str(len(rounds)),
               "--spans", str(spans_path), "--spawned", repr(time.time())]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            fail(f"{workload}: round {len(rounds)} exceeded the run budget")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            fail(f"{workload}: round {len(rounds)} exited {proc.returncode}")
        rounds.append(json.loads(lines[-1]))
        if time.monotonic() - began >= seconds:
            return rounds


def summarise(workload, rounds, trace, spec):
    key, kind = ("layers", "per_layer") if trace else ("metrics", "end_to_end")
    errors = [e for r in rounds for e in r["errors"]]
    measured = [r[key] for r in rounds if key in r]
    metrics = {}
    for entry in spec[kind]:
        values = [m[entry["name"]] for m in measured]
        metrics[entry["name"]] = {"value": statistics.median(values) if values else None,
                                  "unit": entry["unit"]}
    for error in dict.fromkeys(errors):
        print(f"perfbench: {workload}: {error}", file=sys.stderr)
    width = max(len(name) for name in metrics)
    print(f"{workload}: {len(rounds)} rounds, medians")
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']!r:>22}  {m['unit']}")
    return {
        "correct": not errors and bool(measured),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy sizes (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "funcnet" / "__init__.py").is_file():
        fail(f"no funcnet sources under {ROOT / 'src'}; run from a funcnet source tree")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)

    print(f"machine: nproc {len(os.sched_getaffinity(0))}, python {platform.python_version()}, "
          f"numpy {metadata.version('numpy')}, scipy {metadata.version('scipy')}, 1 BLAS thread")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        rounds = run_rounds(name, args.seed, args.seconds, args.trace, args.size)
        results[name] = summarise(name, rounds, args.trace, spec)
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
