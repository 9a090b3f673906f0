"""Benchmark of the syncopf CLI study workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ccopf-grid1000, nlmc-case9, barrier-grid100 (see workloads.py).
Each run starts SETUPS worker processes one after the other. Every worker
imports syncopf from ``src/`` and writes the workload's case files; the
median time from process start to the end of that set-up, corrected for
the host's speed as the worker's probe read it (worker.py), is
``setup_s``. The last worker then runs the workload in closed loop from a
single client for S seconds and checks its outputs (worker.py).

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 the commands run under the per-layer
tracer (tracing.py) and the result holds the per-layer metrics. A line
before it, starting with '#', carries the round count, the host probe's
median, the set-up times and the end-to-end times of the run, corrected and
as wall time, also in traced runs.

The program runs with one BLAS thread. The exit code is 0 only when a
result was printed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ccopf-grid1000", "nlmc-case9", "barrier-grid100")
SETUPS = 5
DEADLINE_S = 170.0
REQUIRED = ("BENCHMARK.json", "src/syncopf/cli.py", "cases/case9_wind.json")
ONE_THREAD = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run(args) -> dict:
    """Start the workers; return the last worker's result with setup_s added."""
    out = HERE / "out" / f"{args.workload}-{os.getpid()}"
    env = {**os.environ, **ONE_THREAD}
    deadline = time.monotonic() + DEADLINE_S
    setup, setup_wall, procs = [], [], []
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out)]
    try:
        for i in range(SETUPS):
            last = i == SETUPS - 1
            t = time.perf_counter()
            proc = subprocess.Popen(base + ([] if last else ["--setup-only"]),
                                    stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
            procs.append(proc)
            line = proc.stdout.readline().split()
            wall = time.perf_counter() - t
            if len(line) != 3 or line[0] != "ready":
                raise RuntimeError("a worker failed during set-up")
            spent, scale = float(line[1]), float(line[2])
            setup.append((wall - spent) * scale)
            setup_wall.append(wall)
            if not last:
                proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0 or not stdout.strip():
            raise RuntimeError(f"the worker exited with {proc.returncode}")
        result = json.loads(stdout.strip().splitlines()[-1])
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(out, ignore_errors=True)
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
    result["info"]["setup_runs_s"] = setup
    result["info"]["setup_wall_s"] = setup_wall
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: not a syncopf checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    declared = declared_metrics(args.trace)
    if set(result["metrics"]) != set(declared):
        print(f"perfbench: the run measured {sorted(result['metrics'])}, "
              f"BENCHMARK.json declares {sorted(declared)}", file=sys.stderr)
        return 1
    info = result["info"]
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    metrics = {name: {"value": result["metrics"][name], "unit": u} for name, u in declared.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
