"""Command-line interface.

Subcommands:

    solve {dc,scopf,barrier,ccopf} --case FILE [--out FILE] [--format json|csv]
    pf --case FILE (--dispatch REPORT | --injections SPEC)
    validate --case FILE --dispatch REPORT [--samples N] [--seed S] [--nonlinear-mc]
    risk --case FILE --line FROM,TO --threshold RHO --eps EPS [--nonlinear]

Exit codes: 0 optimal/certified, 1 usage or parse failure, 2 infeasible,
3 iteration limit or no convergence, 4 Monte Carlo certification
failure. Logging goes to stderr at the level named by SYNC_CCOPF_LOG;
stdout carries only the report.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .case_io import (
    GeneratorReport,
    LineReport,
    SolutionReport,
    _round_tree,
    parse_case,
    read_report,
    write_report,
)
from .cc_opf import analytic_violation_prob, generator_violation_prob, solve_cc_opf
from .det_opf import barrier_config_from_dc, solve_barrier_opf, solve_dc_opf, solve_scopf
from .errors import (
    BarrierDivergenceError,
    InfeasibleError,
    IterLimitError,
    NoConvergenceError,
    ParseError,
    SyncOpfError,
)
from .ld_risk import e_dc_closed_form, ld_condition_check, nonlinear_instanton
from .mc import certify, run_mc
from .network import Dispatch, injection_vector
from .powerflow import solve_pf

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CERTIFICATION = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # infeasibility here, so route usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    if int(text) <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return int(text)


def _setup_logging():
    level_name = os.environ.get("SYNC_CCOPF_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; every call returns it."""
    p = _Parser(prog="syncopf", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"syncopf {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, chance=True):
        sp.add_argument("--case", required=True, help="case file (JSON)")
        sp.add_argument("--out", help="write the report here instead of stdout")
        if chance:
            sp.add_argument("--eps-line", type=float, help="uniform thermal budget")
            sp.add_argument("--eps-sync", type=float, help="uniform sync budget")
            sp.add_argument("--eps-gen", type=float, help="uniform generator budget")

    sp = sub.add_parser("solve", help="solve an OPF variant")
    sp.add_argument("variant", choices=["dc", "scopf", "barrier", "ccopf"])
    add_common(sp)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--epsilon", type=float, default=0.01,
                    help="barrier relative suboptimality target")
    sp.add_argument("--tol-cut", type=float, default=1e-7)
    sp.add_argument("--max-iters", type=int, default=200,
                    help="ccopf: cap on cutting-plane iterations (other variants ignore it)")
    sp.add_argument("--add-all-cuts", action="store_true",
                    help="cut every violated line each iteration")
    sp.add_argument("--emit-plot-data", metavar="FILE",
                    help="write per-iteration objective/violation CSV")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("pf", help="solve the sine power flow at fixed injections")
    add_common(sp, chance=False)
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--dispatch", help="solution report supplying the dispatch")
    src.add_argument("--injections",
                     help="comma-separated bus net injections, or @file.json")
    sp.add_argument("--max-iters", type=int, default=200)
    sp.set_defaults(func=cmd_pf)

    sp = sub.add_parser("validate", help="Monte Carlo check of a dispatch report")
    add_common(sp)
    sp.add_argument("--dispatch", required=True, help="solution report to validate")
    sp.add_argument("--samples", type=_positive_int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--nonlinear-mc", action="store_true",
                    help="re-solve the sine power flow per sample")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("risk", help="instanton energy for one line threshold")
    add_common(sp, chance=False)
    sp.add_argument("--line", required=True, metavar="FROM,TO")
    sp.add_argument("--threshold", type=float, required=True,
                    help="angle-gap threshold rho")
    sp.add_argument("--eps", type=float, required=True,
                    help="rarity budget for the condition check")
    sp.add_argument("--dispatch", help="solution report (default: solve dc)")
    sp.add_argument("--nonlinear", action="store_true",
                    help="pin the sine of the angle gap instead")
    sp.set_defaults(func=cmd_risk)
    return p


def _load(args, chance_overrides=True):
    net, chance = parse_case(args.case)
    if chance_overrides:
        chance = chance.replace_defaults(
            eps_line=getattr(args, "eps_line", None),
            eps_sync=getattr(args, "eps_sync", None),
            eps_gen=getattr(args, "eps_gen", None),
        )
    return net, chance


def _emit(args, payload: bytes) -> None:
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode())


def _report_from_dispatch(net, variant, dispatch, mean_flow,
                          binding_t=None, binding_s=None, iterations=(),
                          status="optimal", objective=0.0):
    sens = net.gap_sensitivity
    mean, spread = sens.mean(dispatch), sens.spread(dispatch)
    prob_t = analytic_violation_prob(mean, spread, net.pbar / net.beta)
    prob_s = analytic_violation_prob(mean, spread, 1.0)
    sigma_tot = float(np.sqrt(np.sum(net.wind_sigma**2)))
    prob_g = generator_violation_prob(
        dispatch.p, dispatch.alpha, net.pmin, net.pmax, sigma_tot
    )
    lines = [
        LineReport(
            line=k,
            from_bus=ln.from_bus,
            to_bus=ln.to_bus,
            mean_flow=float(mean_flow[k]),
            prob_thermal=float(prob_t[k]),
            prob_sync=float(prob_s[k]),
            binding_thermal=bool(binding_t[k]) if binding_t is not None else False,
            binding_sync=bool(binding_s[k]) if binding_s is not None else False,
        )
        for k, ln in enumerate(net.lines)
    ]
    gens = [
        GeneratorReport(gen=i, bus=gen.bus, prob_bounds=float(prob_g[i]))
        for i, gen in enumerate(net.generators)
    ]
    return SolutionReport(
        variant=variant,
        status=status,
        objective=float(objective),
        p=[float(v) for v in dispatch.p],
        alpha=[float(v) for v in dispatch.alpha],
        lines=lines,
        generators=gens,
        iterations=list(iterations),
    )


def cmd_solve(args) -> int:
    net, chance = _load(args)
    if args.variant == "dc":
        res = solve_dc_opf(net)
        report = _report_from_dispatch(
            net, "dc", res.dispatch, res.flows, objective=res.objective
        )
    elif args.variant == "scopf":
        res = solve_scopf(net)
        status = "optimal" if res.sync_recovered else "sync-recovery-failed"
        report = _report_from_dispatch(
            net, "scopf", res.dispatch, res.flows,
            status=status, objective=res.objective,
        )
    elif args.variant == "barrier":
        cfg = barrier_config_from_dc(net, epsilon=args.epsilon)
        res = solve_barrier_opf(net, cfg)
        status = "optimal" if res.recovery.feasible else "sync-recovery-failed"
        report = _report_from_dispatch(
            net, "barrier", res.dispatch, net.beta * res.rho,
            status=status, objective=res.cost,
        )
    else:
        sol = solve_cc_opf(
            net, chance,
            tol_cut=args.tol_cut,
            max_iter=args.max_iters,
            add_all_violated=args.add_all_cuts,
        )
        report = _report_from_dispatch(
            net, "ccopf", sol.dispatch, sol.mean_flow,
            binding_t=sol.binding_thermal, binding_s=sol.binding_sync,
            iterations=sol.iteration_log, objective=sol.objective,
        )
        if args.emit_plot_data:
            _write_plot_data(args.emit_plot_data, sol)
    _emit(args, write_report(report, args.format))
    return EXIT_OK


def _write_plot_data(path, sol) -> None:
    rows = ["iteration,objective,violated_count,line,kind,violation"]
    cuts_by_iter = {rec.iteration: rec for rec in sol.iteration_log}
    for i, obj in enumerate(sol.objective_trace, start=1):
        rec = cuts_by_iter.get(i)
        tail = (
            f"{rec.line},{rec.kind},{rec.violation:.12g}" if rec is not None else ",,"
        )
        rows.append(f"{i},{obj:.12g},{sol.violated_counts[i - 1]},{tail}")
    Path(path).write_text("\n".join(rows) + "\n")


def _injections_from_args(net, args) -> np.ndarray:
    if args.dispatch:
        rep = read_report(Path(args.dispatch))
        return injection_vector(
            net, Dispatch(p=np.array(rep.p), alpha=np.array(rep.alpha))
        )
    spec = args.injections
    if spec.startswith("@"):
        values = json.loads(Path(spec[1:]).read_text())
    else:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    arr = np.asarray(values, dtype=float)
    if arr.shape != (net.n_bus,):
        raise ParseError(
            f"expected {net.n_bus} injections, got {arr.shape[0]}"
        )
    return arr


def cmd_pf(args) -> int:
    net, _ = _load(args, chance_overrides=False)
    q = _injections_from_args(net, args)
    state = solve_pf(net, q, max_iter=args.max_iters)
    doc = {
        "feasible": state.feasible,
        "boundary_hit": state.boundary_hit,
        "objective": state.objective,
        "iterations": state.iterations,
        "theta": state.theta.tolist(),
        "rho": state.rho.tolist(),
        "flows": state.flows(net).tolist(),
    }
    _emit(args, (json.dumps(_round_tree(doc), indent=2) + "\n").encode())
    return EXIT_OK


def cmd_validate(args) -> int:
    net, chance = _load(args)
    rep = read_report(Path(args.dispatch))
    dispatch = Dispatch(p=np.array(rep.p), alpha=np.array(rep.alpha))
    mc = run_mc(
        net, dispatch, n_samples=args.samples, seed=args.seed,
        nonlinear=True if args.nonlinear_mc else None,
    )
    ok, failures = certify(mc, chance)
    doc = {"certified": ok, "failures": failures, "mc": mc.to_dict()}
    _emit(args, (json.dumps(_round_tree(doc), indent=2) + "\n").encode())
    return EXIT_OK if ok else EXIT_CERTIFICATION


def cmd_risk(args) -> int:
    net, _ = _load(args, chance_overrides=False)
    try:
        frm, to = (int(tok) for tok in args.line.split(","))
    except ValueError:
        raise ParseError(f"--line expects FROM,TO bus ids, got {args.line!r}")
    line = net.line_between(frm, to)
    if args.dispatch:
        rep = read_report(Path(args.dispatch))
        dispatch = Dispatch(p=np.array(rep.p), alpha=np.array(rep.alpha))
    else:
        dispatch = solve_dc_opf(net).dispatch
    if args.nonlinear:
        res = nonlinear_instanton(net, dispatch, line, args.threshold)
        variant = "nonlinear"
    else:
        res = e_dc_closed_form(net, dispatch, line, args.threshold)
        variant = "dc"
    ok = ld_condition_check(res.energy, args.eps)
    doc = {
        "variant": variant,
        "line": line,
        "from": frm,
        "to": to,
        "threshold": args.threshold,
        "energy": res.energy,
        "log_inv_eps": float(np.log(1.0 / args.eps)),
        "rare_enough": ok,
        "residual": res.residual,
        "omega": res.omega.tolist(),
        "phi": res.phi,
    }
    _emit(args, (json.dumps(_round_tree(doc), indent=2) + "\n").encode())
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (IterLimitError, NoConvergenceError, BarrierDivergenceError) as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except SyncOpfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
