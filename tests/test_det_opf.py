"""Tests for deterministic OPF: DC, sync-constrained, and barrier.

Covers: hand-solvable 2-bus dispatches, infeasibility detection, a
brute-force grid-search oracle for the 3-bus DC-OPF, SCOPF dominance
and tree exactness, and the barrier solve's certificates (cost bound,
angle-from-dual recovery, separation, divergence on loaded lines), its
honest termination, and its Schur-complement Newton step against a
dense solve of the unreduced primal-dual system.
"""
import math
from pathlib import Path

import numpy as np
import pytest

from syncopf import Bus, Generator, InfeasibleError, Line, Network, parse_case
import syncopf.det_opf as det_opf
from syncopf.det_opf import (
    BarrierConfig,
    barrier_config_from_dc,
    generation_cost,
    solve_barrier_opf,
    solve_dc_opf,
    solve_scopf,
)
from syncopf.errors import BarrierDivergenceError, NoConvergenceError, ValidationError
from syncopf.network import injection_vector
from syncopf.powerflow import psi_second, solve_pf

ROOT = Path(__file__).parent.parent
CASE9 = ROOT / "cases" / "case9_wind.json"
MESH100 = ROOT / "tests" / "data" / "mesh100.json"  # the barrier benchmark's grid


def two_bus(pbar=2.0, d2=0.5, c1=1.0, c2=0.0):
    return Network(
        buses=[Bus(1), Bus(2, demand=d2)],
        generators=[Generator(bus=1, pmin=0.0, pmax=3.0, c1=c1, c2=c2)],
        lines=[Line(1, 2, beta=1.0, pbar=pbar)],
        slack_bus=2,
    )


def triangle_two_gen():
    return Network(
        buses=[Bus(1), Bus(2), Bus(3, demand=1.5)],
        generators=[
            Generator(bus=1, pmin=0.0, pmax=2.0, c1=1.0, c2=0.1),
            Generator(bus=2, pmin=0.0, pmax=2.0, c1=0.5, c2=0.3),
        ],
        lines=[
            Line(1, 2, beta=1.0, pbar=5.0),
            Line(2, 3, beta=1.0, pbar=5.0),
            Line(1, 3, beta=1.0, pbar=5.0),
        ],
        slack_bus=3,
    )


def test_dc_two_bus_forced_dispatch():
    net = two_bus()
    res = solve_dc_opf(net)
    assert abs(res.dispatch.p[0] - 0.5) < 1e-9
    assert abs(res.flows[0] - 0.5) < 1e-9
    assert abs(res.objective - 0.25) < 1e-9


def test_dc_two_bus_thermal_infeasible():
    net = two_bus(pbar=0.4)
    with pytest.raises(InfeasibleError):
        solve_dc_opf(net)


def test_dc_triangle_matches_grid_search():
    net = triangle_two_gen()
    res = solve_dc_opf(net)

    # oracle: refine a 2-d grid over (p1, p2) with p1 + p2 = 1.5 enforced,
    # exact DC flows checked explicitly
    bred = net.laplacian_op.reduced_inverse()
    R = net.beta[:, None] * (bred[net.from_index] - bred[net.to_index])

    def feasible_cost(p1):
        p2 = 1.5 - p1
        if not (0 <= p1 <= 2 and 0 <= p2 <= 2):
            return np.inf
        q = np.array([p1, p2, -1.5])
        if np.any(np.abs(R @ q) > net.pbar + 1e-12):
            return np.inf
        return 1.0 * p1**2 + 0.1 * p1 + 0.5 * p2**2 + 0.3 * p2

    lo_v, hi_v = 0.0, 1.5
    best = None
    for _ in range(30):
        grid = np.linspace(lo_v, hi_v, 41)
        costs = [feasible_cost(g) for g in grid]
        i = int(np.argmin(costs))
        best = grid[i]
        span = (hi_v - lo_v) / 40.0
        lo_v, hi_v = max(0.0, best - span), min(1.5, best + span)
    oracle_cost = feasible_cost(best)
    assert abs(res.objective - oracle_cost) < 1e-4
    assert abs(res.dispatch.p[0] - best) < 1e-3


def test_scopf_matches_dc_when_caps_loose():
    net = triangle_two_gen()
    dc = solve_dc_opf(net)
    sc = solve_scopf(net)
    # DC-optimal angle spreads are well inside min(pbar/beta, 1) here
    diff = dc.theta[net.from_index] - dc.theta[net.to_index]
    assert np.max(np.abs(diff)) < np.min(net.effective_cap)
    assert np.allclose(sc.dispatch.p, dc.dispatch.p, atol=1e-8)
    assert abs(sc.objective - dc.objective) < 1e-8


def test_scopf_sync_bound_binds_before_thermal():
    net = two_bus(pbar=2.0, d2=1.2)
    dc = solve_dc_opf(net)
    assert abs(dc.flows[0] - 1.2) < 1e-9  # thermally fine
    with pytest.raises(InfeasibleError):
        solve_scopf(net)


def test_scopf_objective_dominates_dc():
    net = two_bus(pbar=0.9, d2=0.7)
    dc = solve_dc_opf(net)
    sc = solve_scopf(net)
    assert sc.objective >= dc.objective - 1e-10


def test_scopf_tree_flows_exact():
    net = Network(
        buses=[Bus(1), Bus(2, demand=0.3), Bus(3, demand=0.45)],
        generators=[Generator(bus=1, pmin=0.0, pmax=2.0, c1=1.0)],
        lines=[Line(1, 2, beta=1.2, pbar=2.0), Line(2, 3, beta=0.8, pbar=2.0)],
        slack_bus=3,
    )
    sc = solve_scopf(net)
    assert sc.sync_recovered
    q = injection_vector(net, sc.dispatch)
    fs = solve_pf(net, q)
    assert np.allclose(sc.flows, fs.flows(net), atol=1e-8)


def test_scopf_recovery_attached():
    net = two_bus(d2=0.6)
    sc = solve_scopf(net)
    assert sc.recovery is not None
    assert sc.sync_recovered
    assert abs(math.sin(sc.recovery.theta[0]) - 0.6) < 1e-9


# --- barrier ---------------------------------------------------------------

def test_barrier_two_bus_near_optimal():
    net = two_bus()
    cfg = barrier_config_from_dc(net, epsilon=0.01)
    res = solve_barrier_opf(net, cfg)
    # exact optimum dispatches 0.5 at cost 0.25
    assert res.objective <= (1.0 + 2 * 0.01) * 0.25 + 1e-8
    assert abs(res.cost - 0.25) < 0.01
    assert res.recovery.feasible


def test_barrier_angle_certificate():
    net = triangle_two_gen()
    cfg = barrier_config_from_dc(net, epsilon=0.01)
    res = solve_barrier_opf(net, cfg)
    assert res.eps_separation >= 0.05
    assert res.lemma_c_ok
    # delta sits at its cap 1 - |rho|/u at the optimum
    assert np.allclose(res.delta, 1.0 - np.abs(res.rho) / net.effective_cap, atol=1e-5)


def test_barrier_recovery_cost_bound():
    net = triangle_two_gen()
    cfg = barrier_config_from_dc(net, epsilon=0.01)
    res = solve_barrier_opf(net, cfg)
    assert res.recovery_cost_bound_ok(net)


@pytest.mark.parametrize("floor", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
def test_barrier_cost_floor_must_be_finite_and_positive(floor):
    with pytest.raises(ValidationError, match="cost_floor"):
        BarrierConfig(epsilon=0.01, cost_floor=floor)


def test_outflow_net_of_generation_keeps_its_bits():
    # (from - to) - generation, summed in that order, as the barrier's
    # residuals and right-hand sides were before Network.outflow
    net = parse_case(MESH100)[0]
    rng = np.random.default_rng(5)
    flow, p, n = rng.normal(size=net.n_line), rng.normal(size=net.n_gen), net.n_bus
    want = (np.bincount(net.from_index, flow, n) - np.bincount(net.to_index, flow, n)
            - np.bincount(net.gen_bus_index, p, n))
    assert np.array_equal(det_opf._outflow(net, flow, p), want)


def test_barrier_epsilon_refines_cost():
    net = two_bus()
    gaps = []
    for eps in (0.2, 0.05, 0.01):
        cfg = BarrierConfig(epsilon=eps, cost_floor=0.25)
        res = solve_barrier_opf(net, cfg)
        gaps.append(abs(res.cost - 0.25))
    assert gaps[2] <= gaps[0] + 1e-12


def test_barrier_loaded_line_diverges_or_separates_to_zero():
    # demand close to the sine cap: sin(theta) = 0.995 needs theta ~ 1.47
    net = two_bus(pbar=5.0, d2=0.995)
    cfg = BarrierConfig(epsilon=0.01, cost_floor=0.995**2)
    try:
        res = solve_barrier_opf(net, cfg)
    except BarrierDivergenceError:
        return
    assert res.eps_separation < 0.02


def test_barrier_stage_objectives_nonincreasing():
    net = triangle_two_gen()
    cfg = barrier_config_from_dc(net, epsilon=0.01)
    res = solve_barrier_opf(net, cfg)
    stages = np.array(res.stage_objectives)
    assert np.all(np.diff(stages) <= 1e-9)


@pytest.mark.parametrize("case", [CASE9, MESH100], ids=["case9", "mesh100"])
def test_barrier_stages_end_converged(case):
    net, _ = parse_case(case)
    res = solve_barrier_opf(net, barrier_config_from_dc(net, epsilon=0.01))
    # fewer Newton steps in all than one stage's MAX_STAGE_STEPS (100), so
    # no stage can have reached it
    assert res.iterations < 100
    assert res.residual <= 1e-8


@pytest.mark.parametrize(
    "limit, value", [("MAX_STAGE_STEPS", 1), ("MAX_STAGES", 3)], ids=["max_inner", "max_outer"]
)
def test_barrier_exhausted_limit_raises(limit, value, monkeypatch):
    net, _ = parse_case(CASE9)
    monkeypatch.setattr(det_opf, limit, value)
    with pytest.raises(NoConvergenceError):
        solve_barrier_opf(net, barrier_config_from_dc(net, epsilon=0.01))


@pytest.mark.parametrize("case", [CASE9, MESH100], ids=["case9", "mesh100"])
def test_barrier_dual_residual_bound_holds_and_is_tight(case):
    # beta_max is 17.4 on case9 and 20.0 on the mesh: the bound must hold
    # beyond beta_max <= 1, and bind on the minimum-separation line
    net, _ = parse_case(case)
    res = solve_barrier_opf(net, barrier_config_from_dc(net, epsilon=0.01))
    assert np.max(net.beta) > 10.0
    assert res.lemma_c_ok
    assert np.max(res.eta / res.eta_bound) >= 0.999
    assert res.eps_separation == np.min(res.delta)


def _unreduced_step(kkt, x, z, residual):
    """Dense solve of the full primal-dual Newton system in (dx, dnu, dz)."""
    net = kkt.net
    ng, m, n = net.n_gen, net.n_line, net.n_bus
    rho = x[ng : ng + m]
    u = net.effective_cap
    nx = ng + 2 * m
    ns = 3 * m + 2 * ng
    hess = np.diag(np.concatenate(
        [2.0 * net.cost_quad, kkt.D * net.beta * psi_second(rho), np.zeros(m)]
    ))
    gen_matrix = np.eye(n)[:, net.gen_bus_index]
    eq = np.hstack([-gen_matrix, net.incidence.toarray() * net.beta, np.zeros((n, m))])
    # slack Jacobian for (u - rho - u delta, u + rho - u delta, p - pmin, pmax - p, delta)
    jac = np.zeros((ns, nx))
    lines, gens = np.arange(m), np.arange(ng)
    jac[lines, ng + lines] = -1.0
    jac[lines, ng + m + lines] = -u
    jac[m + lines, ng + lines] = 1.0
    jac[m + lines, ng + m + lines] = -u
    jac[2 * m + gens, gens] = 1.0
    jac[2 * m + ng + gens, gens] = -1.0
    jac[2 * m + 2 * ng + lines, ng + m + lines] = 1.0
    kkt_matrix = np.block([
        [hess, eq.T, -jac.T],
        [eq, np.zeros((n, n)), np.zeros((n, ns))],
        [z[:, None] * jac, np.zeros((ns, n)), np.diag(kkt.slacks(x))],
    ])
    sol = np.linalg.solve(kkt_matrix, -np.concatenate(residual))
    return sol[:nx], sol[nx : nx + n], sol[nx + n :]


@pytest.mark.parametrize("cap_gap", [None, 1e-9], ids=["interior", "near-cap"])
def test_barrier_schur_step_matches_unreduced_kkt_solve(cap_gap):
    # near-cap: a fifth of the lines sit cap_gap below their cap with
    # z1 = 1e3, as late in a solve; eliminating the 2x2 blocks in (rho,
    # delta) rather than in slack coordinates loses six digits there
    net, _ = parse_case(MESH100)
    cfg = barrier_config_from_dc(net, epsilon=0.01)
    kkt = det_opf._BarrierKkt(net, cfg.d_value(net), cfg.phi_value(net))
    ng, m = net.n_gen, net.n_line
    rng = np.random.default_rng(2013)
    delta = rng.uniform(0.05, 0.6, m)
    rho = net.effective_cap * (1.0 - delta) * rng.uniform(-0.95, 0.95, m)
    z = rng.uniform(0.01, 5.0, 3 * m + 2 * ng)
    if cap_gap is not None:
        near = rng.random(m) < 0.2
        rho[near] = net.effective_cap[near] * (1.0 - delta[near]) - cap_gap
        z[:m][near] = 1e3
    x = np.concatenate([
        net.pmin + rng.uniform(0.05, 0.95, ng) * (net.pmax - net.pmin), rho, delta
    ])
    nu = rng.normal(size=net.n_bus)
    residual = kkt.residual(x, nu, z, 1e-3)
    got = kkt.step(x, z, *residual)
    want = _unreduced_step(kkt, x, z, residual)
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= 1e-10 * np.linalg.norm(w)


def test_barrier_infeasible_balance():
    net = Network(
        buses=[Bus(1), Bus(2, demand=5.0)],
        generators=[Generator(bus=1, pmin=0.0, pmax=1.0, c1=1.0)],
        lines=[Line(1, 2, beta=1.0, pbar=10.0)],
        slack_bus=2,
    )
    with pytest.raises(InfeasibleError):
        solve_barrier_opf(net, BarrierConfig(epsilon=0.01, cost_floor=1.0))


def test_generation_cost_helper():
    net = triangle_two_gen()
    assert abs(generation_cost(net, np.array([1.0, 0.5])) - (1.0 + 0.1 + 0.125 + 0.15)) < 1e-12
