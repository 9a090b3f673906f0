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
    ValidationError,
)
from .network import Dispatch, Network, injection_vector
from .powerflow import MARGIN, FlowState, psi, psi_second, solve_pf
from .qp import INFEASIBLE, OPTIMAL, QuadraticProgram, solve_qp

logger = logging.getLogger(__name__)

DIVERGENCE_FACTOR = 1e6  # the barrier diverges once its objective passes this times C
TOL_BARRIER = 1e-10  # floor of each barrier stage's residual target
MAX_STAGES = 80  # barrier stages before NoConvergenceError
MAX_STAGE_STEPS = 100  # Newton steps of one barrier stage before NoConvergenceError


def generation_cost(net: Network, p: np.ndarray) -> float:
    """Total quadratic generation cost sum_i c1 p^2 + c2 p + c3."""
    p = np.asarray(p, dtype=float)
    return float(
        np.sum(net.cost_quad * p * p + net.cost_lin * p + net.cost_const)
    )


@dataclass
class LinearOpfResult:
    """Dispatch plus linear-model angles and flows.

    flows[k] = beta_k (theta_i - theta_j) in per-unit.
    """

    dispatch: Dispatch
    theta: np.ndarray
    flows: np.ndarray
    objective: float


@dataclass
class ScopfResult(LinearOpfResult):
    recovery: FlowState

    @property
    def sync_recovered(self) -> bool:
        return self.recovery.feasible


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
    theta = net.laplacian_op.solve(q)
    flows = net.beta * (theta[net.from_index] - theta[net.to_index])
    return LinearOpfResult(
        dispatch=disp,
        theta=theta,
        flows=flows,
        objective=sol.objective + float(np.sum(net.cost_const)),
    )


def solve_dc_opf(net: Network) -> LinearOpfResult:
    """Minimize generation cost under linear flows and thermal limits."""
    return _linear_opf(net, net.pbar.copy())


def solve_scopf(net: Network) -> ScopfResult:
    """DC-OPF with synchronization-aware angle caps.

    The per-line flow limit becomes beta * (min(pbar/beta, 1) - MARGIN),
    which under the linear model bounds |theta_i - theta_j| by the
    effective capacity. The nonlinear power flow is solved at the
    resulting injections and attached as recovery; sync_recovered tells
    whether it stayed off every cap.
    """
    lin = _linear_opf(net, net.beta * (net.effective_cap - MARGIN))
    return ScopfResult(**vars(lin), recovery=solve_pf(net, injection_vector(net, lin.dispatch)))


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
        if not (0.0 < self.cost_floor < math.inf):  # NaN fails this too
            raise ValidationError(f"cost_floor must be finite and > 0, got {self.cost_floor}")

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
    the slack entry is zero. Stationarity in delta_k bounds the dual
    residual eta_k = |arcsin(rho_k) - (theta_hat_i - theta_hat_j)| by
    phi / (u_k delta_k), so eta_bound = phi / (u eps_separation) with the
    separation eps_separation = min delta; the bound is tight on the
    minimum-separation line. residual is the max-norm of the primal-dual
    residual that ended the last stage. The certificate gap is
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
    recovery: FlowState
    slacksine_ok: bool
    iterations: int
    residual: float
    stage_objectives: list[float] = field(default_factory=list)

    @property
    def gap(self) -> float:
        return self.objective - self.cost

    @property
    def lemma_c_ok(self) -> bool:
        # equality holds on the minimum-separation line, so the check is
        # tolerant to dual roundoff
        return bool(np.all(self.eta <= self.eta_bound * (1.0 + 1e-6) + 1e-9))

    def recovery_cost_bound_ok(self, net: Network) -> bool:
        allowance = self.config.d_value(net) * float(np.sum(net.beta)) * (
            math.pi / 2.0 - 1.0
        )
        return self.recovery.feasible and self.cost <= self.objective + allowance + 1e-8


@dataclass(frozen=True)
class _BarrierKkt:
    """Primal-dual residual and Newton step of the barrier reformulation.

    An iterate is x = (p, rho, delta), the conservation multipliers nu
    and the multipliers z = (z1, z2, z3, z4, z5) > 0 of the slacks
    s = (u - rho - u delta, u + rho - u delta, p - pmin, pmax - p, delta)
    > 0. At barrier parameter t the residual is

        r_d = grad f(x) + E^T nu - J^T z    stationarity, J = ds/dx
        r_p = E x - (wind_mean - demand)     conservation
        r_c = z s - tau                      centrality

    with f the objective without its log terms, E x = A (beta rho) - M p,
    and tau = t on the first 2m + 2g slacks. The formulation's own
    -D beta phi log(delta) term is carried the same way, as the fixed
    center tau = D beta phi on delta. No term divides by a slack, so the
    residual's rounding floor stays put as t -> 0.
    """

    net: Network
    D: float
    phi: float

    def split(self, x: np.ndarray):
        ng, m = self.net.n_gen, self.net.n_line
        return x[:ng], x[ng : ng + m], x[ng + m :]

    def objective(self, x: np.ndarray) -> float:
        p, rho, delta = self.split(x)
        return generation_cost(self.net, p) + self.D * float(
            np.sum(self.net.beta * (psi(rho) - self.phi * np.log(delta)))
        )

    def slacks(self, x: np.ndarray) -> np.ndarray:
        net = self.net
        p, rho, delta = self.split(x)
        u = net.effective_cap
        return np.concatenate(
            [u - rho - u * delta, u + rho - u * delta, p - net.pmin, net.pmax - p, delta]
        )

    def centers(self, t: float) -> np.ndarray:
        net = self.net
        return np.concatenate(
            [np.full(2 * (net.n_line + net.n_gen), t), self.D * self.phi * net.beta]
        )

    def slack_step(self, dx: np.ndarray) -> np.ndarray:
        """J dx: the change of the slacks along dx (they are linear in x)."""
        dp, drho, ddelta = self.split(dx)
        u = self.net.effective_cap
        return np.concatenate([-drho - u * ddelta, drho - u * ddelta, dp, -dp, ddelta])

    def _slack_grad(self, w: np.ndarray) -> np.ndarray:
        """J^T w for one weight per slack."""
        w1, w2, w3, w4, w5 = np.split(w, self._z_cuts)
        return np.concatenate([w3 - w4, w2 - w1, w5 - self.net.effective_cap * (w1 + w2)])

    @property
    def _z_cuts(self):
        m, ng = self.net.n_line, self.net.n_gen
        return [m, 2 * m, 2 * m + ng, 2 * m + 2 * ng]

    def residual(self, x, nu, z, t):
        net = self.net
        p, rho, delta = self.split(x)
        beta = net.beta
        grad = np.concatenate([
            2.0 * net.cost_quad * p + net.cost_lin - nu[net.gen_bus_index],
            self.D * beta * np.arcsin(rho) + beta * (nu[net.from_index] - nu[net.to_index]),
            np.zeros(net.n_line),
        ])
        r_d = grad - self._slack_grad(z)
        r_p = _outflow(net, beta * rho, p) - (net.wind_mean - net.demand)
        return r_d, r_p, z * self.slacks(x) - self.centers(t)

    def step(self, x, z, r_d, r_p, r_c):
        """Newton direction (dx, dnu, dz) of the residual (r_d, r_p, r_c).

        dz = -(r_c + z ds) / s is eliminated first; that puts z/s on the
        Hessian's diagonal. The Hessian is then diagonal in p with one
        2x2 block per line, taken in the line's slack coordinates
        (ds1, ds2) = (-drho - u ddelta, drho - u ddelta): there it is
        diag(z1/s1, z2/s2) plus a curvature term, so its huge entries near
        a cap never cancel. Eliminating p and the blocks leaves the n x n
        system S dnu = rhs with the SPD matrix
        S = M diag(1/h_p) M^T + A diag(w) A^T, a weighted Laplacian plus
        a generator diagonal, factored by Cholesky.
        """
        net = self.net
        rho = self.split(x)[1]
        u, beta = net.effective_cap, net.beta
        s = self.slacks(x)
        sig1, sig2, sig3, sig4, sig5 = np.split(z / s, self._z_cuts)
        w1, w2, w3, w4, w5 = np.split(r_c / s, self._z_cuts)
        r_dp, r_drho, r_ddelta = self.split(r_d)

        g_p = r_dp + w3 - w4
        h_p = 2.0 * net.cost_quad + sig3 + sig4
        # per line K (ds1, ds2) = -b, K = diag(sig1, sig2)
        # + cq (1, -1; -1, 1) + cr (1, 1; 1, 1), with det = det K
        cq = self.D * beta * psi_second(rho) / 4.0
        cr = sig5 / (4.0 * u * u)
        det = sig1 * sig2 + (sig1 + sig2) * (cq + cr) + 4.0 * cq * cr
        r_du = (r_ddelta + w5) / u
        b1 = w1 - (r_drho + r_du) / 2.0
        b2 = w2 + (r_drho - r_du) / 2.0

        # b gains beta (A^T dnu) (-1/2, 1/2), so that
        # drho = (ds2 - ds1) / 2 = drho_free - (w / beta) A^T dnu
        n, f, to = net.n_bus, net.from_index, net.to_index
        w = beta * beta * (sig1 + sig2 + 4.0 * cr) / (4.0 * det)
        S = np.zeros((n, n))
        np.add.at(S, (f, to), -w)
        np.add.at(S, (to, f), -w)
        S[np.diag_indices(n)] += (
            np.bincount(f, w, n) + np.bincount(to, w, n)
            + np.bincount(net.gen_bus_index, 1.0 / h_p, n)
        )
        drho_free = ((sig2 + 2.0 * cr) * b1 - (sig1 + 2.0 * cr) * b2) / (2.0 * det)
        rhs = r_p + _outflow(net, beta * drho_free, -g_p / h_p)
        try:
            dnu = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), rhs)
        except scipy.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"barrier Schur complement factorization failed: {exc}")

        half = beta * (dnu[f] - dnu[to]) / 2.0
        b1, b2 = b1 - half, b2 + half
        ds1 = -((sig2 + cq + cr) * b1 - (cr - cq) * b2) / det
        ds2 = -((sig1 + cq + cr) * b2 - (cr - cq) * b1) / det
        dp = (dnu[net.gen_bus_index] - g_p) / h_p
        ddelta = -(ds1 + ds2) / (2.0 * u)
        dx = np.concatenate([dp, (ds2 - ds1) / 2.0, ddelta])
        dz = -(r_c + z * np.concatenate([ds1, ds2, dp, -dp, ddelta])) / s
        return dx, dnu, dz


def _outflow(net: Network, flow: np.ndarray, p: np.ndarray) -> np.ndarray:
    """E x at each bus: the line flows leaving it, net of generation p."""
    return net.outflow(flow) - np.bincount(net.gen_bus_index, p, net.n_bus)


def _max_norm(parts) -> float:
    return max(float(np.max(np.abs(v))) for v in parts)


def _fraction_to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in (0, 1] that keeps v + a dv at least 1% of v."""
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, 0.99 * float(np.min(-v[neg] / dv[neg])))


def solve_barrier_opf(net: Network, cfg: BarrierConfig) -> BarrierResult:
    """Solve the barrier reformulation by a primal-dual interior method.

    Variables are (p, rho, delta) with the conservation equalities kept
    explicit so their multipliers (the angle estimates) come out of the
    Newton system directly. The capacity constraints |rho_k| + u_k
    delta_k <= u_k and the generator bounds carry explicit multipliers
    z with z s = t on a barrier parameter t that shrinks by 0.15 per
    stage; the formulation's own -phi log(delta) term is carried the
    same way with the fixed center D beta phi. Each stage runs Newton
    steps (see _BarrierKkt.step) with a fraction-to-boundary rule and
    backtracking on the residual's max-norm until that norm is at most
    max(TOL_BARRIER, 1e-3 t). The stages stop once the interior gap
    t * n_ineq is at most 1e-6 epsilon cost_floor, a millionth of the
    certificate's epsilon budget.

    Raises NoConvergenceError when a stage uses up MAX_STAGE_STEPS steps,
    its line search fails, or MAX_STAGES stages end above that gap.
    Infeasibility of the underlying AC problem surfaces as
    BarrierDivergenceError when the objective passes
    DIVERGENCE_FACTOR * cost_floor.
    """
    n, m, ng = net.n_bus, net.n_line, net.n_gen
    if np.any(net.pmax - net.pmin < 1e-9):
        raise ValidationError(
            "barrier solve needs a strict generation interior (pmin < pmax)"
        )
    need = float(np.sum(net.demand - net.wind_mean))
    if np.sum(net.pmin) > need + 1e-9 or np.sum(net.pmax) < need - 1e-9:
        raise InfeasibleError("total generation limits cannot balance the load")

    kkt = _BarrierKkt(net, cfg.d_value(net), cfg.phi_value(net))
    ceiling = DIVERGENCE_FACTOR * cfg.cost_floor

    x = np.concatenate([(net.pmin + net.pmax) / 2.0, np.zeros(m), np.full(m, 0.5)])
    nu = np.zeros(n)
    n_ineq = 2 * m + 2 * ng
    t = max(1.0, abs(kkt.objective(x))) / n_ineq
    z = kkt.centers(t) / kkt.slacks(x)
    iterations = 0
    stage_objectives: list[float] = []

    for _ in range(MAX_STAGES):
        res = kkt.residual(x, nu, z, t)
        rnorm = _max_norm(res)
        stage_tol = max(TOL_BARRIER, 1e-3 * t)
        for inner in range(MAX_STAGE_STEPS + 1):
            if rnorm <= stage_tol:
                break
            if inner == MAX_STAGE_STEPS:
                raise NoConvergenceError(
                    f"barrier stage at t={t:.3e} left residual {rnorm:.3e} "
                    f"after {MAX_STAGE_STEPS} Newton steps"
                )
            iterations += 1
            dx, dnu, dz = kkt.step(x, z, *res)
            alpha = _fraction_to_boundary(
                np.concatenate([kkt.slacks(x), z]), np.concatenate([kkt.slack_step(dx), dz])
            )
            for _ in range(50):
                trial = (x + alpha * dx, nu + alpha * dnu, z + alpha * dz)
                res = kkt.residual(*trial, t)
                new_norm = _max_norm(res)
                if rnorm - new_norm >= 0.01 * alpha * rnorm:
                    break
                alpha *= 0.5
            else:
                raise NoConvergenceError(
                    f"barrier line search failed at t={t:.3e} with residual {rnorm:.3e}"
                )
            (x, nu, z), rnorm = trial, new_norm

            if kkt.objective(x) > ceiling:
                raise BarrierDivergenceError(
                    f"barrier objective exceeded ceiling {ceiling:.3e}; "
                    "underlying problem is at or beyond synchronization limits"
                )
        stage_objectives.append(kkt.objective(x))
        if t * n_ineq <= 1e-6 * cfg.epsilon * cfg.cost_floor:
            break
        t *= 0.15
    else:
        raise NoConvergenceError(
            f"barrier gap {t * n_ineq / 0.15:.3e} still open after {MAX_STAGES} stages"
        )

    p_hat, rho_hat, delta_hat = (v.copy() for v in kkt.split(x))
    cost = generation_cost(net, p_hat)

    theta_hat = -nu / kkt.D
    theta_hat = theta_hat - theta_hat[net.slack_index]

    diff = theta_hat[net.from_index] - theta_hat[net.to_index]
    eta = np.abs(np.arcsin(rho_hat) - diff)
    eps_sep = float(np.min(delta_hat))
    eta_bound = kkt.phi / (net.effective_cap * eps_sep)

    q = injection_vector(net, Dispatch(p=p_hat, alpha=np.zeros(ng)))
    recovery = solve_pf(net, q)
    slack_ok = bool(
        np.all(
            np.abs(
                np.sin(
                    recovery.theta[net.from_index] - recovery.theta[net.to_index]
                )
            )
            <= (1.0 - cfg.epsilon) * net.effective_cap + 1e-12
        )
    )

    return BarrierResult(
        dispatch=Dispatch(p=p_hat, alpha=np.zeros(ng)),
        rho=rho_hat,
        delta=delta_hat,
        theta_hat=theta_hat,
        objective=kkt.objective(x),
        cost=cost,
        config=cfg,
        eps_separation=eps_sep,
        eta=eta,
        eta_bound=eta_bound,
        recovery=recovery,
        slacksine_ok=slack_ok,
        iterations=iterations,
        residual=rnorm,
        stage_objectives=stage_objectives,
    )
