"""Lossless power flow as a convex program, with angle recovery.

The AC power flow on a lossless, voltage-uniform network is equivalent
to minimizing the reactive-loss proxy

    sum_k beta_k psi(rho_k),    psi(x) = x arcsin(x) + sqrt(1-x^2) - pi/2

over per-arc sines rho_k subject to flow conservation, with |rho_k|
capped at min(1, pbar_k/beta_k). psi is the antiderivative of arcsin
started at -1, so at an interior optimum the conservation duals are
exactly the phase angles: arcsin(rho_k) = theta_i - theta_j. When the
optimum pins some |rho_k| at its cap no consistent angles exist and the
grid cannot be synchronized at that injection profile; solve_pf then
reports boundary_hit.

Two independent solvers are provided. solve_pf eliminates conservation
exactly through a spanning-tree parameterization and runs Newton on the
chord flows; energy_function_solve runs Newton on the classical energy
function in angle space, each step one sparse solve with the grounded
Laplacian (Network.laplacian). Their agreement on interior instances is
a standing cross-check used by the test suite. solve_pf is the
single-sample case of solve_pf_batch, which runs that Newton over a
stack of injection vectors at once (Monte Carlo re-solves a sub-batch
of samples per call).

The tree, its chords and the LU factors of its block T of the reduced
incidence do not depend on the injections, so they are built once per
Network (Network.spanning_tree) and every solve reuses them. The angles
follow from arcsin(rho_k) = theta_i - theta_j on the tree arcs, one
transposed solve T^T theta = arcsin(rho[tree]) with the same factors.
The particular flows of a stack come from T^-1 as stacked products
(SpanningTree.particular_flow), each row on its own. A Newton step on its
own solves with the sample's chord Hessian K^T diag(w) K, K the m x c
chord map; K is dense but mostly zero on a mesh (5.9% on a 100-bus one),
so the Hessians come stacked from the tree's sparse hessian_map
(SpanningTree.chord_hessian) and are solved densely. Monte Carlo passes
a start instead: the no-wind solution's chord flows y0 and the inverse
of its chord Hessian H0. Every sample then starts at y0 and takes chord
(simplified Newton) steps -H0^-1 g, one c x c product per sample, whose
rate is |I - H0^-1 H| (Kelley, Iterative Methods for Linear and
Nonlinear Equations, SIAM 1995, sec. 5.4). A sample's Hessian lies near
H0 (within about 1% on a 1000-bus grid), so a chord step contracts the
gradient nearly as a Newton step would. A sample whose chord
step does not halve max|gradient| (CHORD_RATE) takes that step as a
Newton step on its own Hessian instead, so a run forms and solves only
the fallbacks' Hessians.
Newton takes the full step whenever it shrinks max|gradient| by 0.9,
which always holds near the optimum, where an objective-decrease test
could no longer resolve progress; otherwise it backtracks (Armijo) on
the objective. Each sample of a batch takes its own steps and stops on
its own. A solve either reaches the gradient tolerance or ends failed:
solve_pf raises NoConvergenceError, solve_pf_batch marks the sample.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergenceError, UnbalancedInjectionsError
from .network import LaplacianOperator, Network

logger = logging.getLogger(__name__)

MARGIN = 1e-6  # offset turning each strict |rho| cap into a closed one
TOL_GRAD = 1e-10  # solve_pf's Newton stops at this max|gradient| over the chord flows
TOL_ENERGY = 1e-9  # energy_function_solve stops at this max|residual| of the sine balance
MAX_ITER_ENERGY = 100  # its Newton step cap
CHORD_RATE = 0.5  # a chord step must shrink max|gradient| by this, else the sample's Hessian steps


def psi(x):
    """Reactive-loss integrand, the antiderivative of arcsin from -1.

    Accepts scalars or arrays; raises DomainError outside [-1, 1].
    psi(-1) = psi(1) = 0 and psi(0) = 1 - pi/2.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise DomainError("psi argument outside [-1, 1]")
    arr = np.clip(arr, -1.0, 1.0)
    val = arr * np.arcsin(arr) + np.sqrt(1.0 - arr * arr) - np.pi / 2.0
    if np.isscalar(x):
        return float(val)
    return val


def psi_second(x):
    return 1.0 / np.sqrt(1.0 - np.asarray(x, dtype=float) ** 2)


@dataclass
class FlowState:
    """Result of a power flow solve.

    rho are the per-arc sines sin(theta_i - theta_j); theta the bus
    angles with the slack grounded at zero. feasible is False when the
    optimum was pinned at a |rho| cap (boundary_hit True), in which
    case rho is the clipped boundary point and theta is a best-effort
    tree-consistent recovery kept for diagnostics. objective is the
    value of the solving formulation at the returned point.
    """

    rho: np.ndarray
    theta: np.ndarray
    feasible: bool
    boundary_hit: bool
    objective: float
    iterations: int = 0

    def flows(self, net: Network) -> np.ndarray:
        return net.beta * self.rho


def pf_objective(net: Network, rho: np.ndarray) -> float:
    """The convex PF objective sum_k beta_k psi(rho_k)."""
    return float(np.sum(net.beta * psi(np.asarray(rho, dtype=float))))


def _extended_psi_terms(rho, cap):
    """psi value/derivatives with a C1 quadratic continuation beyond cap.

    Inside |rho| <= cap the true psi applies. Beyond, the function
    continues with matching value and slope and constant curvature
    psi''(cap), preserving convexity and smoothness so the interior
    optimum is untouched while boundary-seeking solves stay finite.
    The clipped argument lies inside (-1, 1), so psi's domain check is
    skipped.
    """
    s = np.sign(rho)
    edge = s * cap
    inside = np.abs(rho) <= cap
    safe = np.where(inside, rho, edge)
    root = np.sqrt(1.0 - safe * safe)
    g_in = np.arcsin(safe)
    v_in = safe * g_in + root - np.pi / 2.0
    h_in = 1.0 / root
    d = rho - edge
    v_out = v_in + g_in * d + 0.5 * h_in * d * d
    g_out = g_in + h_in * d
    val = np.where(inside, v_in, v_out)
    grad = np.where(inside, g_in, g_out)
    hess = h_in  # already the edge curvature where outside
    return val, grad, hess


@dataclass
class FlowBatch:
    """Result of solve_pf_batch, one row (or entry) per sample.

    rho are the per-arc sines clipped to the caps; boundary_hit marks the
    samples pinned within 10*MARGIN of a cap; iterations counts the Newton
    steps taken plus one (0 on a tree); own_hessian_steps counts the steps
    solved with the sample's own chord Hessian (every step without a start,
    only the fallbacks with one); failed marks the samples whose gradient is
    still above TOL_GRAD after max_iter steps, and residual holds each
    sample's final max|gradient| over the chord flows.
    """

    rho: np.ndarray
    boundary_hit: np.ndarray
    iterations: np.ndarray
    own_hessian_steps: np.ndarray
    failed: np.ndarray
    residual: np.ndarray


def solve_pf_batch(
    net: Network,
    injections: np.ndarray,
    enforce_thermal_cap: bool = True,
    max_iter: int = 200,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> FlowBatch:
    """Solve the convex lossless power flow for each row of an (S, n) stack
    of balanced injection vectors.

    The samples run one chord-flow Newton together, each with its own
    step rule (see the module docstring) and its own stopping test. Every
    product is stacked per sample, so each row's result depends on that
    row alone and not on the rows solved with it. The working set is a
    few S * n_line arrays of flows and their psi terms, plus the S * c^2
    doubles of the stacked chord Hessians (c chords) of the samples that
    take a step on their own Hessian. enforce_thermal_cap and max_iter as
    in solve_pf; a sample that misses TOL_GRAD within max_iter steps is
    marked failed instead of raising.

    start, a pair (y0, H0inv) of chord flows and the inverse of a chord
    Hessian near every sample's (say the no-wind solution's), makes every
    sample start at y0 and take chord steps -H0inv g; a sample whose step
    does not shrink max|gradient| by CHORD_RATE takes that step with its
    own Hessian instead (see the module docstring).
    """
    q = np.asarray(injections, dtype=float)
    if q.ndim != 2 or q.shape[1] != net.n_bus:
        raise UnbalancedInjectionsError(
            f"injection block shape {q.shape} != (S, {net.n_bus})"
        )
    total = q.sum(axis=1)
    unbalanced = np.flatnonzero(np.abs(total) > 1e-9)
    if unbalanced.size:
        raise UnbalancedInjectionsError(
            f"injections sum to {total[unbalanced[0]]:.3e}, not 0"
        )

    if enforce_thermal_cap:
        cap_full = net.effective_cap
    else:
        cap_full = np.ones(net.n_line)
    cap = cap_full - MARGIN

    basis = net.spanning_tree
    f0 = basis.particular_flow(q)
    K = basis.chord_map
    beta = net.beta

    def terms(f0, y):
        rho = (f0 + (K @ y[:, :, None])[:, :, 0]) / beta
        return (rho, *_extended_psi_terms(rho, cap))

    def gradient(g):
        return (K.T @ g[:, :, None])[:, :, 0]

    n_samples = q.shape[0]
    y = np.zeros((n_samples, basis.chords.size))
    if start is not None:
        y[:] = start[0]
    rho, val, g, h = terms(f0, y)
    grads = gradient(g)  # each sample's gradient at its iterate, carried from step to step
    iterations = np.zeros(n_samples, dtype=int)
    own_hessian_steps = np.zeros(n_samples, dtype=int)
    residual = np.zeros(n_samples)
    run = np.arange(n_samples if basis.chords.size else 0)  # samples still iterating
    for it in range(1, max_iter + 1):
        if not run.size:
            break
        grad = grads[run]
        # method forms: numpy's function wrappers cost microseconds a step,
        # as much as a whole step's arithmetic on a one-chord grid
        gnorm = np.abs(grad).max(axis=1)
        done = gnorm <= TOL_GRAD
        iterations[run[done]] = it
        residual[run[done]] = gnorm[done]
        run, grad, gnorm = run[~done], grad[~done], gnorm[~done]
        if not run.size:
            break
        ys, f0s = y[run], f0[run]
        if start is None:
            step, own = np.empty_like(grad), np.arange(run.size)
        else:
            # the chord step, one stacked product per sample: the 2-D product
            # g @ H0inv rounds a row by the stack it is in, so a sample's
            # result would depend on its sub-batch
            step = -(start[1] @ grad[:, :, None])[:, :, 0]
            trial = terms(f0s, ys + step)
            tgrad = gradient(trial[2])
            own = (np.abs(tgrad).max(axis=1) > CHORD_RATE * gnorm).nonzero()[0]
        if own.size:
            hess = basis.chord_hessian(h[run[own]] / beta)
            step[own] = -np.linalg.solve(hess, grad[own, :, None])[:, :, 0]
            del hess  # so that two Hessian stacks are never alive at once
            own_hessian_steps[run[own]] += 1
            trial = terms(f0s, ys + step)
            tgrad = gradient(trial[2])
        # full Newton step when it contracts the gradient (always true
        # near the optimum, where the objective's decrease falls below
        # rounding); otherwise Armijo backtracking on the extended
        # objective, whose decrease is resolvable far from it
        slow = (np.abs(tgrad).max(axis=1) > 0.9 * gnorm).nonzero()[0]
        if slow.size:
            val0 = np.sum(beta * val[run[slow]], axis=1)
            slope = np.sum(grad[slow] * step[slow], axis=1)
            t = np.ones(slow.size)
            back = np.arange(slow.size)  # searching samples, as positions in slow
            for _ in range(60):
                rows = slow[back]
                accept = np.sum(beta * trial[1][rows], axis=1) <= (  # trial[1]: psi values
                    val0[back] + 1e-4 * t[back] * slope[back])
                back = back[~accept]
                if not back.size:
                    break
                rows = slow[back]
                t[back] *= 0.5
                for arr, new in zip(trial, terms(f0s[rows], ys[rows] + t[back, None] * step[rows])):
                    arr[rows] = new
            step[slow] *= t[:, None]
            tgrad[slow] = gradient(trial[2][slow])
        y[run] = ys + step
        rho[run], val[run], _, h[run] = trial
        grads[run] = tgrad
    failed = np.zeros(n_samples, dtype=bool)
    if run.size:
        failed[run] = True
        iterations[run] = max_iter
        residual[run] = np.max(np.abs(grads[run]), axis=1)

    return FlowBatch(
        rho=np.clip(rho, -cap, cap),
        boundary_hit=(np.abs(rho) >= cap_full - 10.0 * MARGIN).any(axis=1),
        iterations=iterations,
        own_hessian_steps=own_hessian_steps,
        failed=failed,
        residual=residual,
    )


def solve_pf(
    net: Network,
    injections: np.ndarray,
    enforce_thermal_cap: bool = True,
    max_iter: int = 200,
) -> FlowState:
    """Solve the convex lossless power flow for balanced injections.

    The single-sample case of solve_pf_batch.

    Parameters
    ----------
    net : Network
    injections : array
        Per-bus net injections, summing to zero within 1e-9.
    enforce_thermal_cap : bool
        When True the per-arc cap is min(1, pbar/beta); when False only
        the synchronization cap |rho| < 1 applies (used by Monte Carlo
        counting, where thermal overloads are events, not constraints).
        Each cap is closed by MARGIN.
    max_iter : int
        Newton ends once max|gradient| over the chord flows is at most
        TOL_GRAD; NoConvergenceError when max_iter iterations do not get
        there.

    Returns
    -------
    FlowState
        With boundary_hit True (and feasible False) when the optimum is
        pinned within 10*MARGIN of a cap, the loss-of-synchrony
        signal; iterations is the Newton steps taken plus one (0 on a tree).
    """
    q = np.asarray(injections, dtype=float)
    if q.shape != (net.n_bus,):
        raise UnbalancedInjectionsError(
            f"injection vector length {q.shape} != ({net.n_bus},)"
        )
    batch = solve_pf_batch(net, q[None, :], enforce_thermal_cap, max_iter)
    if batch.failed[0]:
        raise NoConvergenceError(
            f"pf newton gradient {batch.residual[0]:.3e} above {TOL_GRAD:.1e} "
            f"after {max_iter} iterations"
        )
    rho = batch.rho[0]
    boundary_hit = bool(batch.boundary_hit[0])
    return FlowState(
        rho=rho,
        theta=net.spanning_tree.angles(np.arcsin(rho)),
        feasible=not boundary_hit,
        boundary_hit=boundary_hit,
        objective=pf_objective(net, rho),
        iterations=int(batch.iterations[0]),
    )


def energy_function_solve(net: Network, injections: np.ndarray) -> FlowState:
    """Minimize the energy function in angle space as an independent check.

    V(theta) = [sum_k beta_k (1 - cos(theta_i - theta_j)) - theta . q] / 2;
    its stationary points satisfy the sine flow equations
    sum_j beta_ij sin(theta_i - theta_j) = q_i. Started from zero angles
    (whose first Newton step is the DC solution), this finds the
    small-angle stationary point when one exists, each step weighting the
    Laplacian by max(beta cos(gap), 1e-3 beta). No thermal caps are
    applied here; the function exists to cross-check solve_pf.
    """
    q = np.asarray(injections, dtype=float)
    if q.shape != (net.n_bus,):
        raise UnbalancedInjectionsError(f"injection vector length {q.shape} != ({net.n_bus},)")
    if abs(q.sum()) > 1e-9:
        raise UnbalancedInjectionsError(f"injections sum to {q.sum():.3e}, not 0")
    f, to, beta, keep = net.from_index, net.to_index, net.beta, net.non_slack_index

    def value(th):
        return 0.5 * (np.sum(beta * (1.0 - np.cos(th[f] - th[to]))) - th @ q)

    def mismatch(th):
        # the sine balance at every bus but the slack, whose row it leaves 0
        r = net.outflow(beta * np.sin(th[f] - th[to])) - q
        r[net.slack_index] = 0.0
        return r

    theta = np.zeros(net.n_bus)
    for iters in range(1, MAX_ITER_ENERGY + 2):
        residual = mismatch(theta)
        if np.max(np.abs(residual), initial=0.0) <= TOL_ENERGY:
            break
        if iters > MAX_ITER_ENERGY:
            raise NoConvergenceError(
                f"energy newton residual {np.max(np.abs(residual)):.3e} after "
                f"{MAX_ITER_ENERGY} iterations"
            )
        # keep the Newton matrix positive definite; the line search on
        # the true energy keeps this a descent method regardless.
        # the overall 1/2 scaling cancels between gradient and Hessian.
        weights = np.maximum(beta * np.cos(theta[f] - theta[to]), 1e-3 * beta)
        step = -LaplacianOperator(net.laplacian(weights), keep).solve(residual)
        # full Newton step when it contracts the residual (always true
        # near the solution); otherwise damp on the energy value, whose
        # decrease is resolvable far from the optimum
        if np.linalg.norm(mismatch(theta + step)) <= 0.9 * np.linalg.norm(residual):
            theta = theta + step
            continue
        val0 = value(theta)
        slope = float(0.5 * residual @ step)
        t = 1.0
        for _ in range(60):
            if value(theta + t * step) <= val0 + 1e-4 * t * slope:
                break
            t *= 0.5
        theta = theta + t * step
    return FlowState(
        rho=np.sin(theta[f] - theta[to]),
        theta=theta,
        feasible=True,
        boundary_hit=False,
        objective=float(value(theta)),
        iterations=iters,
    )
