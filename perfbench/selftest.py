"""Show that every output check can fail.

    python3 perfbench/selftest.py

Produces real outputs on case9 through the CLI, confirms that each check
accepts them, then feeds each check deliberately wrong answers and expects
each to be rejected with the named message. Exits 1 if a correct output is
rejected or a wrong one accepted.
"""
from __future__ import annotations

import copy
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from syncopf.case_io import parse_case  # noqa: E402
from syncopf.cli import main as cli  # noqa: E402
from syncopf.powerflow import energy_function_solve, solve_pf  # noqa: E402
from workloads import CASE9  # noqa: E402


def consistent(grid, report, p, alpha):
    """The report with another dispatch and every derived field recomputed
    from it, so that only a check of the dispatch itself can object."""
    rep = copy.deepcopy(report)
    rep["dispatch"] = {"p": list(p), "alpha": list(alpha)}
    mean, sd = grid.gap_stats(p, alpha)
    thermal = checks.two_sided_tail(grid.pbar / grid.beta, mean, sd)
    sync = checks.two_sided_tail(1.0, mean, sd)
    for k, line in enumerate(rep["lines"]):
        line.update(mean_flow=float(grid.beta[k] * mean[k]), prob_thermal=float(thermal[k]),
                    prob_sync=float(sync[k]))
    for i, gen in enumerate(rep["generators"]):
        gen["prob_bounds"] = float(checks.generator_tail(grid, p, alpha)[i])
    rep["objective"] = grid.expected_cost(p, alpha)
    return rep


def main() -> int:
    out = HERE / "out" / f"selftest-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        return run(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run(out: Path) -> int:
    case = str(CASE9)
    for argv in (["solve", "ccopf", "--case", case, "--out", str(out / "cc.json"),
                  "--emit-plot-data", str(out / "cc.csv")],
                 ["validate", "--case", case, "--dispatch", str(out / "cc.json"),
                  "--samples", "200000", "--seed", "5", "--out", str(out / "val.json")],
                 ["solve", "barrier", "--case", case, "--out", str(out / "bar.json")]):
        if cli(argv) != 0:
            print(f"selftest: {argv[:2]} failed")
            return 1
    grid = checks.Grid.load(case)
    net, _ = parse_case(case)
    cc = checks.read_json(out / "cc.json")
    plot = (out / "cc.csv").read_text()
    val = checks.read_json(out / "val.json")
    bar = checks.read_json(out / "bar.json")
    p, alpha = np.array(cc["dispatch"]["p"]), np.array(cc["dispatch"]["alpha"])
    pb = np.array(bar["dispatch"]["p"])
    q_bar = grid.injections(pb, np.zeros(grid.g))
    recovery = solve_pf(net, q_bar)
    q = checks.profiles(grid, cc, seed=1)[0]
    convex, energy = solve_pf(net, q, enforce_thermal_cap=False), energy_function_solve(net, q)

    def ccopf(rep=cc, csv=plot):
        return checks.ccopf_report(grid, rep, csv)

    def conic(rep=cc):
        return checks.conic_optimum(grid, rep)

    def validation(res=val, samples=200_000, nonlinear=False):
        return checks.validation(grid, cc, res, samples, nonlinear)

    def powerflow(state=convex):
        return checks.powerflow_agreement(grid, q, state, energy)

    def barrier(rep=bar, rec=recovery):
        return checks.barrier_report(grid, rep, rec, 0.01)

    # a dispatch that pushes the binding line past its budget: move output
    # between the two generators with the most different effect on it
    mean, sd = grid.gap_stats(p, alpha)
    k = int(np.argmax(np.abs(mean) - checks.ndtri(grid.eps_defaults[0]) * sd - grid.pbar / grid.beta))
    effect = np.sign(mean[k]) * grid.gap_gen[k]
    up, down = int(np.argmax(effect)), int(np.argmin(effect))
    pushed = p.copy()
    pushed[up] += 0.02
    pushed[down] -= 0.02
    moved = alpha.copy()
    moved[0] += 0.05
    moved[1] -= 0.05
    trace = plot.strip().splitlines()
    first = trace[1].split(",")
    first[1] = repr(float(trace[-1].split(",")[1]) + 1.0)
    bad_trace = "\n".join([trace[0], ",".join(first)] + trace[2:]) + "\n"
    inflated = copy.deepcopy(cc)
    for line in inflated["lines"]:
        line["prob_thermal"] *= 1.1
    busiest = int(np.argmax(val["mc"]["thermal_freq"]))
    shifted = copy.deepcopy(val)
    shifted["mc"]["thermal_freq"][busiest] *= 1.5
    uncertified = copy.deepcopy(val)
    uncertified["certified"] = False
    nl = copy.deepcopy(val)
    nl["mc"].update(nonlinear=True, solve_failures=3, nl_sync_loss_freq=1.5e-5)
    leaky = copy.deepcopy(bar)
    leaky["lines"][0]["mean_flow"] += 1e-3

    cases = [
        # (name, check run on a correct answer, check run on a wrong one, expected message)
        ("ccopf: p scaled by 1.01", ccopf(), ccopf(consistent(grid, cc, 1.01 * p, alpha)), "sum(p)"),
        ("ccopf: alpha sums to 1.05", ccopf(),
         ccopf(consistent(grid, cc, p, alpha * 1.05)), "sum(alpha)"),
        ("ccopf: output moved onto the binding line", ccopf(),
         ccopf(consistent(grid, cc, pushed, alpha)), "chance constraint of line"),
        ("ccopf: thermal probabilities inflated 10%", ccopf(), ccopf(inflated), "prob_thermal"),
        ("ccopf: objective trace decreasing", ccopf(), ccopf(csv=bad_trace), "trace decreases"),
        ("conic: alpha moved off the optimum", conic(),
         conic(consistent(grid, cc, p, moved)), "direct conic optimum"),
        ("validate: not certified", validation(), validation(uncertified), "not certified"),
        ("validate: busiest line's frequency x1.5", validation(), validation(shifted), "binomial band"),
        ("validate: nonlinear solve failures", validation(),
         validation(nl, nonlinear=True), "nonlinear solve failures"),
        ("powerflow: rho off by 1e-6", powerflow(),
         powerflow(replace(convex, rho=convex.rho + 1e-6)), "disagree"),
        ("powerflow: interior profile flagged as pinned", powerflow(),
         powerflow(replace(convex, boundary_hit=True, feasible=False)), "pinned"),
        ("barrier: line flow off by 1e-3", barrier(), barrier(leaky), "conservation"),
        ("barrier: recovered angles scaled by 1.3", barrier(),
         barrier(rec=replace(recovery, theta=1.3 * recovery.theta)), "not a feasible sine flow"),
    ]
    ok = True
    for name, good, wrong, expect in cases:
        caught = any(expect in msg for msg in wrong)
        passed = not good and caught
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: correct answer "
              f"{'accepted' if not good else 'REJECTED ' + str(good)}; wrong answer "
              f"{'rejected' if caught else 'NOT rejected'} {wrong[:2]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
