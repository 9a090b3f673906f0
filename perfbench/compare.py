"""Run sets of benchmark runs and print each metric's median and quartiles.

    python3 perfbench/compare.py [--sets 2] [--seeds 10] [--trace]

Each set runs every workload of BENCHMARK.json once per seed, for the
benchmark's run_seconds, the workloads interleaved so that drift of the
host falls on all of them alike. Seeds differ between runs and between
sets. For each end-to-end metric the table gives, per set,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, and, from the second set on, the change
of the median against the first set; the bound from BENCHMARK.json is shown
next to them. The uncorrected wall times' medians and spreads follow. It also gives the share of failed operations of each set.
With --trace a traced run follows each untraced one, and the table adds the
per-layer medians and the tracing overhead: the traced run's solve_s and
validate_s against the untraced run's.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2][2:]), json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def summarize(runs, workloads, sets, bounds) -> None:
    for w in workloads:
        print(f"\n== {w}")
        first = {}
        for s in range(sets):
            mine = [r for r in runs if r["workload"] == w and r["set"] == s and not r["trace"]]
            att = sum(r["result"]["attempted"] for r in mine)
            fail = sum(r["result"]["failed"] for r in mine)
            wrong = sum(not r["result"]["correct"] for r in mine)
            host = spread([r["info"]["host_ref_s"] for r in mine])
            print(f"set {s}: {len(mine)} runs, failed {fail}/{att}, incorrect runs {wrong}, "
                  f"host.ref_s median {host['median']:.4g} (IQR share {host['iqr_share']:.3f})")
            for name in sorted(bounds):
                st = spread([r["result"]["metrics"][name]["value"] for r in mine])
                change = ""
                if s == 0:
                    first[name] = st["median"]
                else:
                    change = f" change {st['median'] / first[name] - 1:+.3f}"
                print(f"  {name:12s} median {st['median']:.5g} q1 {st['q1']:.5g} q3 {st['q3']:.5g} "
                      f"IQR share {st['iqr_share']:.3f} (bound {bounds[name]}){change}")
            for name in ("wall_solve_s", "wall_validate_s"):
                st = spread([r["info"][name] for r in mine])
                print(f"  {name:15s} median {st['median']:.5g} IQR share {st['iqr_share']:.3f} "
                      f"(uncorrected)")
        traced = [r for r in runs if r["workload"] == w and r["trace"]]
        if traced:
            plain = {(r["set"], r["seed"]): r for r in runs if r["workload"] == w and not r["trace"]}
            for kind in ("solve_s", "validate_s"):
                over = [r["info"][kind] / plain[(r["set"], r["seed"])]["info"][kind] - 1
                        for r in traced]
                print(f"  tracing overhead on {kind}: median {statistics.median(over):+.3f}")
            layers = defaultdict(list)
            for r in traced:
                for name, v in r["result"]["metrics"].items():
                    layers[name].append(v["value"])
            for name, values in sorted(layers.items()):
                print(f"  {name:30s} median {statistics.median(values):.6g} "
                      f"min {min(values):.6g} max {max(values):.6g}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for s in range(args.sets):
        for i in range(args.seeds):
            seed = 1000 * (s + 1) + i
            for w in workloads:
                info, result = one_run(w, seed, seconds, False)
                runs.append({"set": s, "workload": w, "seed": seed, "trace": False,
                             "info": info, "result": result})
                print(f"set {s} {w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} rounds={info['rounds']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
                if args.trace:
                    tinfo, tresult = one_run(w, seed, seconds, True)
                    runs.append({"set": s, "workload": w, "seed": seed, "trace": True,
                                 "info": tinfo, "result": tresult})
    summarize(runs, workloads, args.sets, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
