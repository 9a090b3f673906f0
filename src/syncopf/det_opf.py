"""Deterministic OPF in three flavors.

solve_dc_opf is the classical linear-flow baseline. solve_scopf adds
per-line angle-difference caps |theta_i - theta_j| <= min(pbar/beta, 1)
so that the linear solution admits sine flows on every line; on trees
this change of variables is exact. solve_barrier_opf solves the convex
reformulation

    min f(p) + D sum_k beta_k [psi(rho_k) - phi log(delta_k)]
    s.t. conservation, |rho_k| + u_k delta_k <= u_k, delta >= 0,
         pmin <= p <= pmax

whose optimum certifies a near-optimal synchronizable dispatch: the
conservation duals scaled by 1/D approximate the phase angles, and the
slack variables delta measure each line's separation from its effective
capacity u_k = min(1, pbar/beta).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    BarrierDivergenceError,
    InfeasibleError,
    NoConvergenceError,
    SyncRecoveryFailedError,
    ValidationError,
)
from .network import Dispatch, Network, injection_vector
from .powerflow import MARGIN, FlowState, psi, psi_second, solve_pf
from .qp import INFEASIBLE, OPTIMAL, QuadraticProgram, solve_qp

logger = logging.getLogger(__name__)


def generation_cost(net: Network, p: np.ndarray) -> float:
    """Total quadratic generation cost sum_i c1 p^2 + c2 p + c3."""
    p = np.asarray(p, dtype=float)
    return float(
        np.sum(net.cost_quad * p * p + net.cost_lin * p + net.cost_const)
    )


@dataclass
class LinearOpfResult:
    """Dispatch plus linear-model angles and flows.

    flows[k] = beta_k (theta_i - theta_j) in per-unit; duals_balance and
    duals_flow come straight from the QP (flow duals ordered as all
    upper limits then all lower limits).
    """

    dispatch: Dispatch
    theta: np.ndarray
    flows: np.ndarray
    objective: float
    duals_balance: float
    duals_flow: np.ndarray


@dataclass
class ScopfResult(LinearOpfResult):
    recovery: FlowState | None = None

    @property
    def sync_recovered(self) -> bool:
        return self.recovery is not None and self.recovery.feasible


def _linear_opf(net: Network, flow_limit: np.ndarray) -> LinearOpfResult:
    ng = net.n_gen
    Q = np.diag(2.0 * net.cost_quad)
    c = net.cost_lin.copy()
    sens = net.gap_sensitivity
    RM = net.beta[:, None] * sens.gen  # flows = RM p + base
    base = net.beta * sens.offset
    A_in = np.vstack([RM, -RM])
    b_in = np.concatenate([flow_limit - base, flow_limit + base])
    qp = QuadraticProgram(
        Q=Q,
        c=c,
        A_eq=np.ones((1, ng)),
        b_eq=[float(np.sum(net.demand - net.wind_mean))],
        A_in=A_in,
        b_in=b_in,
        lo=net.pmin.copy(),
        hi=net.pmax.copy(),
    )
    sol = solve_qp(qp)
    if sol.status == INFEASIBLE:
        raise InfeasibleError("no dispatch satisfies balance, bounds, and flow limits")
    if sol.status != OPTIMAL:
        raise NoConvergenceError(f"linear OPF ended with status {sol.status}")
    p = sol.x
    disp = Dispatch(p=p, alpha=np.zeros(ng))
    q = injection_vector(net, disp)
    theta = net.solve_angles(q)
    flows = net.beta * (theta[net.from_index] - theta[net.to_index])
    return LinearOpfResult(
        dispatch=disp,
        theta=theta,
        flows=flows,
        objective=sol.objective + float(np.sum(net.cost_const)),
        duals_balance=float(sol.duals_eq[0]),
        duals_flow=sol.duals_in.copy(),
    )


def solve_dc_opf(net: Network) -> LinearOpfResult:
    """Minimize generation cost under linear flows and thermal limits."""
    return _linear_opf(net, net.pbar.copy())


def solve_scopf(
    net: Network, margin: float = MARGIN, recover: bool = True, strict: bool = False
) -> ScopfResult:
    """DC-OPF with synchronization-aware angle caps.

    The per-line flow limit becomes beta * (min(pbar/beta, 1) - margin),
    which under the linear model bounds |theta_i - theta_j| by the
    effective capacity. When recover is set, the nonlinear power flow is
    solved at the resulting injections and attached; with strict=True a
    failed recovery raises SyncRecoveryFailedError (carrying the result
    in its .result attribute) instead of returning quietly.
    """
    limit = net.beta * (net.effective_cap - margin)
    lin = _linear_opf(net, limit)
    result = ScopfResult(
        dispatch=lin.dispatch,
        theta=lin.theta,
        flows=lin.flows,
        objective=lin.objective,
        duals_balance=lin.duals_balance,
        duals_flow=lin.duals_flow,
    )
    if recover:
        q = injection_vector(net, lin.dispatch)
        result.recovery = solve_pf(net, q)
        if strict and not result.recovery.feasible:
            err = SyncRecoveryFailedError(
                "linear sync-constrained solution exists but nonlinear recovery "
                "hit a |rho| cap"
            )
            err.result = result
            raise err
    return result


@dataclass(frozen=True)
class BarrierConfig:
    """Parameters of the barrier reformulation.

    epsilon is the accuracy knob; cost_floor (C) a positive lower bound
    on the optimal cost, normally taken from a DC-OPF solve. The scale
    D = C epsilon / (pi beta_max) and weight phi = beta_max / (m log(1/
    epsilon)) are recomputed from these definitions on demand so they
    can never go stale.
    """

    epsilon: float
    cost_floor: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValidationError(f"epsilon must be in (0,1), got {self.epsilon}")
        if self.cost_floor <= 0.0:
            raise ValidationError(f"cost_floor must be > 0, got {self.cost_floor}")

    def d_value(self, net: Network) -> float:
        return self.cost_floor * self.epsilon / (math.pi * float(np.max(net.beta)))

    def phi_value(self, net: Network) -> float:
        return float(np.max(net.beta)) / (net.n_line * math.log(1.0 / self.epsilon))


def barrier_config_from_dc(net: Network, epsilon: float) -> BarrierConfig:
    """Standard construction: cost floor from the DC-OPF optimum."""
    dc = solve_dc_opf(net)
    floor = dc.objective
    if floor <= 0.0:
        logger.warning("DC-OPF cost %g not positive; using cost floor 1e-3", floor)
        floor = 1e-3
    return BarrierConfig(epsilon=epsilon, cost_floor=floor)


@dataclass
class BarrierResult:
    """Primal solution, scaled duals, and certificates of a barrier solve.

    theta_hat holds the conservation duals scaled by 1/D and shifted so
    the slack entry is zero; at the optimum arcsin(rho_k) differs from
    theta_hat_i - theta_hat_j by at most eta_bound_k per line whenever
    the separation eps_separation is positive. The certificate gap is
    objective - cost; psi is negative strictly inside (-1, 1), so the
    gap can dip below zero by at most d_value * sum(beta) * (pi/2 - 1),
    which recovery_cost_bound_ok accounts for.
    """

    dispatch: Dispatch
    rho: np.ndarray
    delta: np.ndarray
    theta_hat: np.ndarray
    objective: float
    cost: float
    config: BarrierConfig
    eps_separation: float
    eta: np.ndarray
    eta_bound: np.ndarray
    sine_residual: np.ndarray
    recovery: FlowState
    slacksine_ok: bool
    iterations: int
    stage_objectives: list[float] = field(default_factory=list)

    @property
    def gap(self) -> float:
        return self.objective - self.cost

    @property
    def lemma_c_ok(self) -> bool:
        # equality holds on the minimum-separation line when beta_max = 1,
        # so the check is tolerant to dual roundoff
        return bool(np.all(self.eta <= self.eta_bound * (1.0 + 1e-6) + 1e-9))

    def recovery_cost_bound_ok(self, net: Network) -> bool:
        allowance = self.config.d_value(net) * float(np.sum(net.beta)) * (
            math.pi / 2.0 - 1.0
        )
        return self.recovery.feasible and self.cost <= self.objective + allowance + 1e-8


def solve_barrier_opf(
    net: Network,
    cfg: BarrierConfig,
    tol: float = 1e-10,
    max_outer: int = 80,
    max_inner: int = 100,
    divergence_ceiling: float | None = None,
) -> BarrierResult:
    """Solve the barrier reformulation by a primal-dual interior method.

    Variables are (p, rho, delta) with the conservation equalities kept
    explicit so their multipliers (the angle estimates) come out of the
    KKT system directly. The capacity constraints |rho_k| +- u_k
    delta_k <= u_k and the generator bounds are handled with a vanishing
    log barrier; the formulation's own -phi log(delta) term keeps delta
    positive. Infeasibility of the underlying AC problem surfaces as
    BarrierDivergenceError when the objective passes the ceiling
    (default 1e6 * cost_floor).
    """
    n, m, ng = net.n_bus, net.n_line, net.n_gen
    if np.any(net.pmax - net.pmin < 1e-9):
        raise ValidationError(
            "barrier solve needs a strict generation interior (pmin < pmax)"
        )
    need = float(np.sum(net.demand - net.wind_mean))
    if np.sum(net.pmin) > need + 1e-9 or np.sum(net.pmax) < need - 1e-9:
        raise InfeasibleError("total generation limits cannot balance the load")

    D = cfg.d_value(net)
    phi = cfg.phi_value(net)
    u = net.effective_cap
    beta = net.beta
    ceiling = divergence_ceiling if divergence_ceiling is not None else 1e6 * cfg.cost_floor

    M = net.gen_matrix
    E = np.zeros((n, ng + 2 * m))
    E[:, :ng] = -M
    E[:, ng : ng + m] = net.incidence * beta
    rhs = net.wind_mean - net.demand

    sp = slice(0, ng)
    sr = slice(ng, ng + m)
    sd = slice(ng + m, ng + 2 * m)

    x = np.concatenate([(net.pmin + net.pmax) / 2.0, np.zeros(m), np.full(m, 0.5)])
    nu = np.zeros(n)

    def objective(xv) -> float:
        p, rho, delta = xv[sp], xv[sr], xv[sd]
        return generation_cost(net, p) + D * float(
            np.sum(beta * (psi(rho) - phi * np.log(delta)))
        )

    def slacks(xv):
        p, rho, delta = xv[sp], xv[sr], xv[sd]
        s1 = u - rho - u * delta
        s2 = u + rho - u * delta
        s3 = p - net.pmin
        s4 = net.pmax - p
        return s1, s2, s3, s4

    def residuals(xv, nuv, t):
        p, rho, delta = xv[sp], xv[sr], xv[sd]
        s1, s2, s3, s4 = slacks(xv)
        g = np.empty(ng + 2 * m)
        g[sp] = 2.0 * net.cost_quad * p + net.cost_lin - t / s3 + t / s4
        g[sr] = D * beta * np.arcsin(rho) + t / s1 - t / s2
        g[sd] = -D * beta * phi / delta + t * u / s1 + t * u / s2
        r_dual = g + E.T @ nuv
        r_pri = E @ xv - rhs
        return r_dual, r_pri

    n_ineq = 2 * m + 2 * ng
    t = max(1.0, abs(objective(x))) / n_ineq
    iterations = 0
    stage_objectives: list[float] = []

    for outer in range(max_outer):
        for inner in range(max_inner):
            iterations += 1
            p, rho, delta = x[sp], x[sr], x[sd]
            s1, s2, s3, s4 = slacks(x)
            r_dual, r_pri = residuals(x, nu, t)
            rnorm = max(np.max(np.abs(r_dual)), np.max(np.abs(r_pri)))
            if rnorm <= max(tol, 1e-3 * t):
                break

            H = np.zeros((ng + 2 * m, ng + 2 * m))
            hp = 2.0 * net.cost_quad + t / s3**2 + t / s4**2
            H[sp, sp] = np.diag(hp)
            hrr = D * beta * psi_second(rho) + t / s1**2 + t / s2**2
            hrd = t * u / s1**2 - t * u / s2**2
            hdd = D * beta * phi / delta**2 + t * u**2 / s1**2 + t * u**2 / s2**2
            idx_r = np.arange(ng, ng + m)
            idx_d = np.arange(ng + m, ng + 2 * m)
            H[idx_r, idx_r] = hrr
            H[idx_r, idx_d] = hrd
            H[idx_d, idx_r] = hrd
            H[idx_d, idx_d] = hdd

            nv = ng + 2 * m
            kkt = np.zeros((nv + n, nv + n))
            kkt[:nv, :nv] = H
            kkt[:nv, nv:] = E.T
            kkt[nv:, :nv] = E
            rhs_vec = -np.concatenate([r_dual, r_pri])
            try:
                sol = scipy.linalg.lu_solve(scipy.linalg.lu_factor(kkt), rhs_vec)
            except (scipy.linalg.LinAlgError, ValueError) as exc:
                raise NoConvergenceError(f"barrier KKT factorization failed: {exc}")
            dx, dnu = sol[:nv], sol[nv:]

            # fraction to boundary on every strict inequality
            alpha = 1.0
            for s_val, grad_dir in (
                (s1, -dx[sr] - u * dx[sd]),
                (s2, dx[sr] - u * dx[sd]),
                (s3, dx[sp]),
                (s4, -dx[sp]),
                (delta, dx[sd]),
            ):
                neg = grad_dir < 0
                if np.any(neg):
                    alpha = min(alpha, 0.99 * float(np.min(-s_val[neg] / grad_dir[neg])))

            ok = False
            for _ in range(50):
                x_try = x + alpha * dx
                nu_try = nu + alpha * dnu
                rd, rp = residuals(x_try, nu_try, t)
                new_norm = max(np.max(np.abs(rd)), np.max(np.abs(rp)))
                if new_norm <= (1.0 - 0.01 * alpha) * rnorm + 1e-15:
                    ok = True
                    break
                alpha *= 0.5
            if not ok:
                break
            x, nu = x_try, nu_try

            if objective(x) > ceiling:
                raise BarrierDivergenceError(
                    f"barrier objective exceeded ceiling {ceiling:.3e}; "
                    "underlying problem is at or beyond synchronization limits"
                )
        stage_objectives.append(objective(x))
        gap = t * n_ineq
        if gap <= 1e-11 * max(1.0, cfg.cost_floor):
            break
        t *= 0.15

    r_dual, r_pri = residuals(x, nu, 0.0)
    if np.max(np.abs(r_pri)) > 1e-7:
        raise NoConvergenceError(
            f"barrier solve left conservation residual {np.max(np.abs(r_pri)):.3e}"
        )

    p_hat, rho_hat, delta_hat = x[sp].copy(), x[sr].copy(), x[sd].copy()
    k_hat = objective(x)
    cost = generation_cost(net, p_hat)

    theta_hat = -nu / D
    theta_hat = theta_hat - theta_hat[net.slack_index]

    diff = theta_hat[net.from_index] - theta_hat[net.to_index]
    eta = np.abs(np.arcsin(rho_hat) - diff)
    eps_sep = float(np.min(1.0 - np.abs(rho_hat) / u))
    with np.errstate(divide="ignore"):
        eta_bound = 1.0 / (
            m * u * max(eps_sep, 1e-300) * math.log(1.0 / cfg.epsilon)
        )
    sine_residual = np.abs(rho_hat - np.sin(diff))

    q = injection_vector(net, Dispatch(p=p_hat, alpha=np.zeros(ng)))
    recovery = solve_pf(net, q)
    slack_ok = bool(
        np.all(
            np.abs(
                np.sin(
                    recovery.theta[net.from_index] - recovery.theta[net.to_index]
                )
            )
            <= (1.0 - cfg.epsilon) * u + 1e-12
        )
    )

    return BarrierResult(
        dispatch=Dispatch(p=p_hat, alpha=np.zeros(ng)),
        rho=rho_hat,
        delta=delta_hat,
        theta_hat=theta_hat,
        objective=k_hat,
        cost=cost,
        config=cfg,
        eps_separation=eps_sep,
        eta=eta,
        eta_bound=eta_bound,
        sine_residual=sine_residual,
        recovery=recovery,
        slacksine_ok=slack_ok,
        iterations=iterations,
        stage_objectives=stage_objectives,
    )
