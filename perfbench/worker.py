"""One benchmark process, started by run.py.

It starts the host probe, imports syncopf from ``src/``, writes the
workload's case files and prints ``ready`` with the probe's readings; that
is the set-up whose wall time run.py measures. With ``--setup-only`` it
stops there. Otherwise it runs rounds of the workload's CLI commands in
closed loop, one command after the other through ``syncopf.cli.main`` in
this process, until the commands have taken ``--seconds`` of wall time. It
then checks the outputs and prints one JSON line with the per-round means.
"""
from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

PROBE_INTERVAL_S = 0.025
# About the probe kernel's median time on this host when it runs at full
# speed (README.md, "Machine"), so that host-corrected times read as wall
# times at that speed.
NOMINAL_PROBE_S = 1.6e-4


class HostProbe:
    """Samples the speed of the CPU this process runs on, while it runs.

    This host's vCPUs each change speed by up to 1.5x, independently of each
    other, for seconds to minutes at a time (README.md, "Steadiness"), so a
    reference kernel timed before or after the program misses the speed the
    program ran at. Every PROBE_INTERVAL_S of wall time SIGALRM runs a fixed
    kernel in this process, between two bytecodes of whatever the program is
    doing, and records how long the kernel took. The kernel does the two
    kinds of work the program does: interpreted Python, and small numpy
    calls including a BLAS product, on arrays allocated once so that the
    program's heap does not change its cost. ``spent`` sums the time
    spent in the handler, so that callers can take it out of what they time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._x = np.ones(40)
        self._m = np.full((40, 40), 1.0 / 40)
        self._mm = np.empty((40, 40))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        acc = 0
        for i in range(1500):
            acc += i * i
        x = self._x
        for _ in range(30):
            np.multiply(x, 0.5, out=x)
            np.add(x, 1.0, out=x)
        np.dot(self._m, self._m, out=self._mm)
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scale(self, samples) -> float:
        """Factor from wall time to host-corrected time over the given
        samples: below 1 while the host is slow."""
        return NOMINAL_PROBE_S / statistics.median(samples)


def run_rounds(plan, seconds: float, probe: HostProbe, tracer):
    """Closed-loop rounds until the commands have used `seconds` of wall time.

    Returns each round's wall time per kind of command, without the probe's
    time, and the probe's scale over that kind's commands in the round."""
    import syncopf.cli  # loaded at set-up; looked up here so that traced entry points are used
    rounds, scales, problems, errors = [], [], [], []
    attempted = 0
    first = None
    measured = 0.0
    while not rounds or measured < seconds:
        times = {"solve": 0.0, "validate": 0.0}
        samples = {"solve": [], "validate": []}
        if tracer is not None:
            tracer.round, tracer.recording = len(rounds), True
        for cmd in plan.commands:
            attempted += 1
            spent, since = probe.spent, len(probe.samples)
            t = time.perf_counter()
            try:
                code = syncopf.cli.main(cmd.argv)
            except Exception as exc:  # an escaped error is a failed command, not a crash
                code = repr(exc)
            times[cmd.kind] += time.perf_counter() - t - (probe.spent - spent)
            samples[cmd.kind] += probe.samples[since:]
            if code != 0:
                errors.append(f"{' '.join(cmd.argv[:2])} returned {code}")
        if tracer is not None:
            tracer.recording = False
        measured += sum(times.values())
        rounds.append(times)
        scales.append({kind: probe.scale(s) for kind, s in samples.items()})
        outputs = {path: path.read_bytes() for path in plan.outputs() if path.exists()}
        if first is None:
            first = outputs
        elif outputs != first:
            problems.append(f"round {len(rounds)} wrote other bytes than round 1")
    return rounds, scales, attempted, errors, problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    probe = HostProbe()  # before the program's imports, so that the set-up is sampled too
    import syncopf.cli
    from workloads import WORKLOADS

    plan = WORKLOADS[args.workload](args.seed, Path(args.out))
    plan.write_cases()
    print(f"ready {probe.spent!r} {probe.scale(probe.samples)!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    rounds, scales, attempted, errors, problems = run_rounds(plan, args.seconds, probe, tracer)
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks  # after the peak-RSS reading: the checks' imports are not the program's
    try:
        problems += checks.run_plan(plan)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"checks could not read the outputs: {exc!r}")

    # Each round's time of each kind is corrected by the probe's reading over
    # those commands, then averaged over the rounds (README.md, "Steadiness").
    wall = {kind: statistics.fmean(r[kind] for r in rounds) for kind in ("solve", "validate")}
    e2e = {kind: statistics.fmean(r[kind] * k[kind] for r, k in zip(rounds, scales))
           for kind in ("solve", "validate")}
    host_ref = statistics.median(probe.samples)
    if tracer is None:
        metrics = {"solve_s": e2e["solve"], "validate_s": e2e["validate"], "peak_rss_mb": peak_rss_mb}
    else:
        from tracing import layer_metrics, mean_metrics
        metrics = mean_metrics([layer_metrics(tracer, i) for i in range(len(rounds))])
        metrics["host.ref_s"] = host_ref
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": len(errors), "metrics": metrics,
        "info": {"rounds": len(rounds), "host_ref_s": host_ref, "solve_s": e2e["solve"],
                 "validate_s": e2e["validate"], "wall_solve_s": wall["solve"],
                 "wall_validate_s": wall["validate"], "round_scales": scales,
                 "round_solve_s": [r["solve"] for r in rounds],
                 "round_validate_s": [r["validate"] for r in rounds],
                 "errors": errors[:10], "problems": problems[:20]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
