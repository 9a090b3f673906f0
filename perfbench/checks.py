"""Output checks, computed apart from the program.

Every check reads the case file itself and recomputes what the program
reports: line sensitivities from a sparse LU of the grounded Laplacian,
chance multipliers from ``scipy.special.ndtri``, Gaussian tails from
``scipy.special.ndtr``, the conic optimum from ``scipy.optimize`` and Monte
Carlo bands from the exact binomial quantiles. Nothing is compared with a
stored copy of earlier output. Each check returns a list of failure
messages; an empty list means the output passed.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.optimize import minimize
from scipy.special import ndtr, ndtri
from scipy.stats import binom

# Family-wise false-alarm level of the Monte Carlo band over all lines and
# generators of one validation. A 99% band would reject correct output in
# about one run in a hundred, and a benchmark run is not allowed to fail.
BAND_LEVEL = 1e-6
ROUNDING = 1e-9  # reports carry 12 significant digits


class Grid:
    """The case file's grid, with line sensitivities from a sparse solve."""

    def __init__(self, doc: dict):
        buses = sorted(doc["buses"], key=lambda b: int(b["id"]))
        index = {int(b["id"]): i for i, b in enumerate(buses)}
        self.n = len(buses)
        self.demand = np.array([float(b.get("d", 0.0)) for b in buses])
        self.mu = np.array([float(b.get("mu", 0.0)) for b in buses])
        self.sigma = np.array([float(b.get("sigma", 0.0)) for b in buses])
        self.wind = np.flatnonzero(self.sigma > 0)
        gens = doc["generators"]
        self.g = len(gens)
        self.gen_bus = np.array([index[int(x["bus"])] for x in gens])
        self.pmin = np.array([float(x["pmin"]) for x in gens])
        self.pmax = np.array([float(x["pmax"]) for x in gens])
        self.c1, self.c2, self.c3 = (np.array([float(x.get(k, 0.0)) for x in gens])
                                     for k in ("c1", "c2", "c3"))
        lines = doc["lines"]
        if len({frozenset((l["from"], l["to"])) for l in lines}) != len(lines):
            raise ValueError("the checks do not merge parallel lines")
        self.m = len(lines)
        self.frm = np.array([index[int(l["from"])] for l in lines])
        self.to = np.array([index[int(l["to"])] for l in lines])
        self.beta = np.array([float(l["beta"]) for l in lines])
        self.pbar = np.array([float(l["pbar"]) for l in lines])
        self.slack = index[int(doc.get("slack_bus", buses[-1]["id"]))]
        chance = doc.get("chance", {})
        self.eps_defaults = (chance.get("eps_line_default", 0.05),
                             chance.get("eps_sync_default", 0.0005),
                             chance.get("eps_gen_default", 0.05))
        if chance.get("overrides"):
            raise ValueError("the checks do not apply per-line budget overrides")

        cols = np.arange(self.m)
        self.incidence = scipy.sparse.csr_matrix(
            (np.r_[np.ones(self.m), -np.ones(self.m)], (np.r_[self.frm, self.to], np.r_[cols, cols])),
            shape=(self.n, self.m))
        lap = (self.incidence @ scipy.sparse.diags(self.beta) @ self.incidence.T).tocsc()
        keep = np.flatnonzero(np.arange(self.n) != self.slack)
        lu = scipy.sparse.linalg.splu(lap[keep][:, keep].tocsc())
        w = self.wind.size
        rhs = np.zeros((self.n, self.g + w + 1))
        rhs[self.gen_bus, np.arange(self.g)] = 1.0
        rhs[self.wind, self.g + np.arange(w)] = 1.0
        rhs[:, -1] = self.mu - self.demand
        theta = np.zeros_like(rhs)
        theta[keep] = lu.solve(rhs[keep])
        gap = theta[self.frm] - theta[self.to]
        self.gap_gen = gap[:, :self.g]  # angle gap per unit output of each generator
        self.gap_wind = gap[:, self.g:self.g + w]  # per unit wind at each wind bus
        self.gap_mean = gap[:, -1]  # from the mean wind and the load

    @classmethod
    def load(cls, path) -> "Grid":
        return cls(json.loads(Path(path).read_text()))

    @property
    def net_demand(self) -> float:
        return float(np.sum(self.demand - self.mu))

    @property
    def sigma_tot(self) -> float:
        return float(np.sqrt(np.sum(self.sigma ** 2)))

    def budgets(self, eps_line=None, eps_sync=None, eps_gen=None):
        d = self.eps_defaults
        return (d[0] if eps_line is None else eps_line,
                d[1] if eps_sync is None else eps_sync,
                d[2] if eps_gen is None else eps_gen)

    def gap_stats(self, p, alpha):
        """Mean and standard deviation of every line's angle gap."""
        mean = self.gap_gen @ p + self.gap_mean
        resid = self.gap_wind - (self.gap_gen @ alpha)[:, None]
        return mean, np.sqrt(np.sum((resid * self.sigma[self.wind]) ** 2, axis=1))

    def tightened_limits(self, eps_gen):
        """Generator output range under the eps_gen chance constraint."""
        margin = -ndtri(eps_gen) * self.sigma_tot
        return np.maximum(self.pmin + margin, 0.0), self.pmax - margin

    def expected_cost(self, p, alpha) -> float:
        return float(np.sum(self.c1 * (p * p + self.sigma_tot ** 2 * alpha * alpha)
                            + self.c2 * p + self.c3))

    def injections(self, p, alpha, wind_dev=None):
        wind = np.zeros(self.n) if wind_dev is None else wind_dev
        q = self.mu + wind - self.demand
        np.add.at(q, self.gen_bus, p - alpha * wind.sum())
        return q

    def flow_residual(self, theta, q) -> float:
        """Largest mismatch of the sine power-flow equations at theta."""
        flows = self.beta * np.sin(theta[self.frm] - theta[self.to])
        return float(np.max(np.abs(self.incidence @ flows - q)))


def two_sided_tail(bound, mean, sd):
    """P(|N(mean, sd^2)| > bound), elementwise."""
    mean = np.abs(mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = ndtr((mean - bound) / sd) + ndtr(-(bound + mean) / sd)
    return np.minimum(np.where(sd > 0, tail, (mean > bound).astype(float)), 1.0)


def _dispatch(report: dict):
    return (np.array(report["dispatch"]["p"], dtype=float),
            np.array(report["dispatch"]["alpha"], dtype=float))


def _close(got, want, rtol, atol) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= atol + rtol * np.abs(want)))


def generator_tail(grid: Grid, p, alpha):
    sd = np.abs(alpha) * grid.sigma_tot
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = ndtr((p - grid.pmax) / sd) + ndtr((grid.pmin - p) / sd)
    outside = ((p > grid.pmax) | (p < grid.pmin)).astype(float)
    return np.minimum(np.where(sd > 0, tail, outside), 1.0)


def ccopf_report(grid: Grid, report: dict, plot_csv: str, eps=(None, None),
                 tol_cut: float = 1e-7) -> list:
    """A CC-OPF report against the chance-constrained model it claims to solve."""
    bad = []
    eps_line, eps_sync, eps_gen = grid.budgets(*eps)
    p, alpha = _dispatch(report)
    if report["variant"] != "ccopf" or report["status"] != "optimal":
        bad.append(f"status {report['variant']}/{report['status']}")
    if abs(p.sum() - grid.net_demand) > ROUNDING * max(1.0, abs(grid.net_demand)):
        bad.append(f"sum(p) {p.sum():.12g} != net demand {grid.net_demand:.12g}")
    if abs(alpha.sum() - 1.0) > ROUNDING:
        bad.append(f"sum(alpha) {alpha.sum():.12g} != 1")

    lo, hi = grid.tightened_limits(eps_gen)
    if np.any(p < lo - ROUNDING) or np.any(p > hi + ROUNDING) or np.any(alpha < -ROUNDING):
        bad.append("a generator chance constraint is violated")
    mean, sd = grid.gap_stats(p, alpha)
    cap_t = grid.pbar / grid.beta
    for kind, bound, e in (("thermal", cap_t, eps_line), ("sync", 1.0, eps_sync)):
        viol = np.abs(mean) - ndtri(e) * sd - bound
        if np.max(viol) > tol_cut + ROUNDING:
            k = int(np.argmax(viol))
            bad.append(f"{kind} chance constraint of line {k} violated by {viol[k]:.3e}")

    lines = report["lines"]
    reported = {key: np.array([l[key] for l in lines]) for key in ("prob_thermal", "prob_sync", "mean_flow")}
    if not _close(reported["prob_thermal"], two_sided_tail(cap_t, mean, sd), 1e-6, 1e-12):
        bad.append("prob_thermal differs from the closed-form Gaussian tail")
    if not _close(reported["prob_sync"], two_sided_tail(1.0, mean, sd), 1e-6, 1e-12):
        bad.append("prob_sync differs from the closed-form Gaussian tail")
    gen_prob = np.array([x["prob_bounds"] for x in report["generators"]])
    if not _close(gen_prob, generator_tail(grid, p, alpha), 1e-6, 1e-12):
        bad.append("generator prob_bounds differs from the closed-form Gaussian tail")
    if not _close(reported["mean_flow"], grid.beta * mean, 1e-8, 1e-9):
        bad.append("mean_flow differs from beta times the mean angle gap")
    objective = float(report["objective"])
    if not _close(objective, grid.expected_cost(p, alpha), ROUNDING, 0.0):
        bad.append(f"objective {objective:.12g} is not the expected cost of the dispatch")

    rows = [r.split(",") for r in plot_csv.strip().splitlines()[1:]]
    trace = np.array([float(r[1]) for r in rows])
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)) or not rows:
        bad.append("objective trace rows are not numbered 1..n")
    elif np.any(np.diff(trace) < -ROUNDING * np.abs(trace[:-1])):
        bad.append("objective trace decreases")
    elif not _close(trace[-1], objective, ROUNDING, 0.0):
        bad.append("objective trace does not end at the reported objective")
    if len(report["iterations"]) != len(rows) - 1:
        bad.append("iteration log and objective trace disagree in length")
    return bad


def conic_optimum(grid: Grid, report: dict, eps=(None, None), rtol: float = 1e-6) -> list:
    """Solve the chance-constrained program directly with SLSQP and compare
    optimal costs. Only for small cases: the constraint Jacobian is dense."""
    eps_line, eps_sync, eps_gen = grid.budgets(*eps)
    g = grid.g
    lo, hi = grid.tightened_limits(eps_gen)
    sig2 = grid.sigma[grid.wind] ** 2
    bounds = np.r_[grid.pbar / grid.beta, np.ones(grid.m)]
    etas = np.r_[np.full(grid.m, -ndtri(eps_line)), np.full(grid.m, -ndtri(eps_sync))]
    dmat = np.vstack([grid.gap_gen, grid.gap_gen])

    def cons(x):
        mean, sd = grid.gap_stats(x[:g], x[g:])
        mean, sd = np.r_[mean, mean], np.r_[sd, sd]
        return np.r_[bounds - mean - etas * sd, bounds + mean - etas * sd]

    def cons_jac(x):
        resid = grid.gap_wind - (grid.gap_gen @ x[g:])[:, None]
        _, sd = grid.gap_stats(x[:g], x[g:])
        dsd = -(resid * sig2).sum(axis=1) / sd  # d sd / d (gap_gen @ alpha)
        dsd = np.r_[dsd, dsd][:, None] * dmat * etas[:, None]
        return np.vstack([np.hstack([-dmat, -dsd]), np.hstack([dmat, -dsd])])

    def cost(x):
        return grid.expected_cost(x[:g], x[g:])

    def cost_grad(x):
        return np.r_[2 * grid.c1 * x[:g] + grid.c2, 2 * grid.c1 * grid.sigma_tot ** 2 * x[g:]]

    share = (grid.net_demand - lo.sum()) / (hi - lo).sum()
    x0 = np.r_[lo + share * (hi - lo), np.full(g, 1.0 / g)]
    a_eq = np.zeros((2, 2 * g))
    a_eq[0, :g] = a_eq[1, g:] = 1.0
    res = minimize(cost, x0, jac=cost_grad, method="SLSQP",
                   bounds=list(zip(lo, hi)) + [(0.0, None)] * g,
                   constraints=[{"type": "eq", "fun": lambda x: a_eq @ x - [grid.net_demand, 1.0],
                                 "jac": lambda x: a_eq},
                                {"type": "ineq", "fun": cons, "jac": cons_jac}],
                   options={"ftol": 1e-9, "maxiter": 1000})
    if not res.success or np.min(cons(res.x)) < -1e-8:
        return [f"direct conic solve did not converge: {res.message}"]
    # relative to the part of the cost the dispatch controls: the constant
    # terms would hide a suboptimal alpha, whose cost weight is sigma_tot^2
    objective = float(report["objective"])
    if abs(res.fun - objective) > rtol * abs(res.fun - grid.c3.sum()):
        return [f"objective {objective:.12g} differs from the direct conic optimum {res.fun:.12g}"]
    return []


def validation(grid: Grid, report: dict, result: dict, samples: int, nonlinear: bool) -> list:
    """A validate output against the analytic law of the sampled model."""
    bad = []
    mc = result["mc"]
    if result["certified"] is not True or result["failures"]:
        bad.append(f"not certified: {result['failures'][:3]}")
    if mc["n_samples"] != samples or mc["nonlinear"] is not nonlinear:
        bad.append("sample count or mode differs from the command")
    p, alpha = _dispatch(report)
    mean, sd = grid.gap_stats(p, alpha)
    probs = np.r_[two_sided_tail(grid.pbar / grid.beta, mean, sd),
                  two_sided_tail(1.0, mean, sd), generator_tail(grid, p, alpha)]
    freqs = np.r_[mc["thermal_freq"], mc["sync_freq"], mc["gen_freq"]]
    counts = np.rint(freqs * samples)
    tail = BAND_LEVEL / (2 * probs.size)
    low, high = binom.ppf(tail, samples, probs), binom.isf(tail, samples, probs)
    outside = np.flatnonzero((counts < low) | (counts > high))
    if outside.size:
        i = int(outside[0])
        bad.append(f"{outside.size} frequencies outside the binomial band, e.g. entry {i}: "
                   f"{int(counts[i])} of {samples} against probability {probs[i]:.4g}")
    if nonlinear and (mc["solve_failures"] != 0 or mc.get("nl_sync_loss_freq") is None):
        bad.append(f"{mc['solve_failures']} nonlinear solve failures")
    return bad


def profiles(grid: Grid, report: dict, seed: int, count: int = 3):
    """Seeded injection profiles: the dispatch under half-sigma wind draws."""
    p, alpha = _dispatch(report)
    rng = np.random.default_rng([seed, 7])
    out = []
    for _ in range(count):
        wind = np.zeros(grid.n)
        wind[grid.wind] = 0.5 * grid.sigma[grid.wind] * rng.standard_normal(grid.wind.size)
        out.append(grid.injections(p, alpha, wind))
    return out


def powerflow_agreement(grid: Grid, q, convex, energy, tol: float = 1e-8) -> list:
    """solve_pf's state against energy_function_solve's at the same injections."""
    bad = []
    if convex.boundary_hit or not convex.feasible:
        bad.append("solve_pf pinned an interior profile at a cap")
    if np.max(np.abs(convex.rho - energy.rho)) > tol or np.max(np.abs(convex.theta - energy.theta)) > tol:
        bad.append("solve_pf and energy_function_solve disagree beyond 1e-8")
    if grid.flow_residual(convex.theta, q) > tol:
        bad.append("solve_pf's angles do not satisfy the sine flow equations")
    return bad


def barrier_report(grid: Grid, report: dict, recovery, epsilon: float) -> list:
    """A barrier report: conservation, limits, cost, and its recovered flow."""
    bad = []
    p, _ = _dispatch(report)
    if report["variant"] != "barrier" or report["status"] != "optimal":
        bad.append(f"status {report['variant']}/{report['status']}")
    flows = np.array([l["mean_flow"] for l in report["lines"]])
    q = grid.injections(p, np.zeros(grid.g))
    if np.max(np.abs(grid.incidence @ flows - q)) > 1e-7:
        bad.append(f"conservation violated by {np.max(np.abs(grid.incidence @ flows - q)):.3e}")
    if np.any(p < grid.pmin - ROUNDING) or np.any(p > grid.pmax + ROUNDING):
        bad.append("a generator leaves its limits")
    cost = float(np.sum(grid.c1 * p * p + grid.c2 * p + grid.c3))
    if not _close(float(report["objective"]), cost, ROUNDING, 0.0):
        bad.append("objective is not the generation cost of the dispatch")
    cap = np.minimum(1.0, grid.pbar / grid.beta)
    theta = recovery.theta
    sines = np.abs(np.sin(theta[grid.frm] - theta[grid.to]))
    if recovery.boundary_hit or not recovery.feasible or grid.flow_residual(theta, q) > 1e-8:
        bad.append("the recovered flow is not a feasible sine flow")
    if np.any(sines > (1.0 - epsilon) * cap + 1e-12):
        bad.append("the recovered flow fails the slack-sine check")
    return bad


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def run_plan(plan) -> list:
    """Run every check a workload plan lists on the files of its last round."""
    from syncopf.case_io import parse_case
    from syncopf.powerflow import energy_function_solve, solve_pf

    grids: dict = {}
    bad = []
    for kind, kw in plan.checks:
        case = kw["case"]
        if case not in grids:
            grids[case] = Grid.load(case)
        grid = grids[case]
        report = read_json(kw["report"])
        if kind == "ccopf":
            eps = kw.get("eps", (None, None))
            found = ccopf_report(grid, report, Path(kw["plot"]).read_text(), eps)
            if kw.get("conic"):
                found += conic_optimum(grid, report, eps)
        elif kind == "validate":
            found = validation(grid, report, read_json(kw["result"]), kw["samples"], kw["nonlinear"])
        elif kind == "powerflow":
            net, _ = parse_case(case)
            found = []
            for q in profiles(grid, report, kw["seed"]):
                found += powerflow_agreement(grid, q, solve_pf(net, q, enforce_thermal_cap=False),
                                             energy_function_solve(net, q))
        elif kind == "barrier":
            net, _ = parse_case(case)
            p, _ = _dispatch(report)
            q = grid.injections(p, np.zeros(grid.g))
            found = barrier_report(grid, report, solve_pf(net, q), kw["epsilon"])
        else:
            raise ValueError(f"unknown check {kind!r}")
        bad += [f"{Path(kw['report']).name}: {msg}" for msg in found]
    return bad
