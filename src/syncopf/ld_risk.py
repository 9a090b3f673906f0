"""Large-deviation overload risk: instanton energy for a line threshold.

The most likely wind fluctuation that drives the angle gap of one line
to a threshold rho has Gaussian action E = sum(omega_i^2 / (2 sigma_i^2)).
With the linear flow response the minimizer is closed-form:

    E_DC = (mean_gap - rho)^2 / (2 * sum_i sigma_i^2 c_i^2)

with c_i the gap sensitivity to wind bus i (the line's gap under a unit
injection at wind bus i, minus the alpha-response term), and
omega_i = sigma_i^2 c_i phi where phi is the single equality multiplier.
The overload is deemed sufficiently rare for budget eps when
E >= log(1/eps), boundary inclusive.

The nonlinear variant pins sin(theta_k - theta_l) = rho under the full
sine balance equations and minimizes the same action; sine compression
makes the target harder to reach, so its energy dominates the linear
one near |rho| = 1. It runs Newton's method on the KKT system of that
problem, one sparse LU a step, and answers only with a synchronous state:
every line's |theta_k - theta_l| < pi/2.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import splu

from .errors import DomainError, NoConvergenceError, ZeroVarianceError
from .network import Dispatch, Network, injection_vector

logger = logging.getLogger(__name__)

MAX_NEWTON_STEPS = 50  # Newton step cap of nonlinear_instanton
TOL_KKT = 1e-12  # its KKT residual, relative to max(1, |omega / sigma^2|)


@dataclass
class InstantonResult:
    """Most likely fluctuation reaching the threshold.

    energy is the Gaussian action of omega; phi is the equality
    multiplier of the linear problem (None for the nonlinear variant);
    residual is the worst constraint defect at the returned point.
    """

    energy: float
    omega: np.ndarray
    phi: float | None
    residual: float
    theta: np.ndarray | None = None


def e_dc_closed_form(
    net: Network, dispatch: Dispatch, line: int, rho_threshold: float
) -> InstantonResult:
    """Closed-form instanton for the linear flow response.

    Raises ZeroVarianceError when no wind variance couples to the line's
    angle gap, since no finite fluctuation can move it.
    """
    if not 0 <= line < net.n_line:
        raise DomainError(f"line index {line} out of range")
    if not math.isfinite(rho_threshold):
        raise DomainError(f"threshold must be finite, got {rho_threshold}")
    sens = net.gap_sensitivity
    mean_gap = float(sens.mean(dispatch, line))
    d = sens.gen[line] @ dispatch.alpha  # the line's own row only
    coeff = sens.wind[line] - d
    sig = sens.sigma
    spread = float(sens.spread_at(d, line))
    # a spread within rounding of the sensitivities' scale is no exposure
    scale = max(np.max(np.abs(sens.wind), initial=0.0),
                np.abs(sens.gen[line]) @ np.abs(dispatch.alpha))
    if spread <= 1e-12 * scale * math.sqrt(sig @ sig):
        raise ZeroVarianceError(
            f"line {line}: angle gap has no wind variance, instanton undefined"
        )
    var_form = spread**2
    phi = (rho_threshold - mean_gap) / var_form
    omega = sig**2 * coeff * phi
    energy = (mean_gap - rho_threshold) ** 2 / (2.0 * var_form)
    residual = abs(mean_gap + coeff @ omega - rho_threshold)
    return InstantonResult(energy=energy, omega=omega, phi=phi, residual=residual)


def ld_condition_check(energy: float, eps: float) -> bool:
    """True when the threshold event is rare enough: E >= log(1/eps),
    boundary inclusive."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    return energy >= math.log(1.0 / eps)


def nonlinear_instanton(
    net: Network, dispatch: Dispatch, line: int, rho_threshold: float
) -> InstantonResult:
    """Minimum-action wind fluctuation pinning sin(theta_k - theta_l) at
    the threshold under the full sine balance equations.

    Newton's method on the KKT system in theta[keep], omega, a multiplier y
    per non-slack bus balance and y_pin of the pin, from the linear instanton,
    its DC angles and zero multipliers: one sparse LU of the Newton matrix a
    step, backtracking on the residual's max-norm. Raises NoConvergenceError
    unless that norm falls to TOL_KKT max(1, |omega / sigma^2|) within
    MAX_NEWTON_STEPS steps, every constraint holds to 1e-8 and every line's
    |gap| stays below pi/2.
    """
    if not 0 <= line < net.n_line:
        raise DomainError(f"line index {line} out of range")
    if not abs(rho_threshold) <= 1.0:  # NaN fails this too
        raise DomainError(f"nonlinear threshold must satisfy |rho| <= 1, got {rho_threshold}")
    wind, n_w, sig2 = net.wind_index, net.wind_index.size, net.wind_sigma[net.wind_index] ** 2
    if n_w == 0:
        raise ZeroVarianceError("no wind buses, instanton undefined")

    n, keep, f, to, beta = net.n_bus, net.non_slack_index, net.from_index, net.to_index, net.beta
    base_q = injection_vector(net, dispatch)[keep]
    # q(omega)[keep] = base_q + q_sens omega: a unit at each wind bus, less
    # each generator's alpha share of the wind total
    alpha_bus = scipy.sparse.csr_array(np.bincount(net.gen_bus_index, dispatch.alpha, n)[:, None])
    q_sens = (scipy.sparse.csr_array((np.ones(n_w), (wind, np.arange(n_w))), shape=(n, n_w))
              - alpha_bus @ scipy.sparse.csr_array(np.ones((1, n_w))))[keep]
    pin_col = net.incidence[keep][:, [line]]  # d gap / d theta[keep]
    cut = np.cumsum([n - 1, n_w, n - 1])  # z = (theta[keep], omega, y, y_pin)

    def kkt(z):  # the residual: stationarity in theta and omega, the balance, the pin
        theta, y = np.zeros(n), np.zeros(n)
        theta[keep], omega, y[keep], y_pin = np.split(z, cut)
        gap = theta[f] - theta[to]
        u = beta * (y[f] - y[to])
        u[line] += y_pin[0]
        r = np.concatenate([-net.outflow(np.cos(gap) * u)[keep], omega / sig2 + q_sens.T @ y[keep],
                            net.outflow(beta * np.sin(gap))[keep] - (base_q + q_sens @ omega),
                            [math.sin(gap[line]) - rho_threshold]])
        return r, float(np.max(np.abs(r))), theta, omega, gap, u

    def newton_matrix(gap, u):
        # [[L(sin(gap) u), 0, -J, -c], [0, 1/sigma^2, Q^T, 0], [J, -Q, 0, 0], [c^T, 0, 0, 0]]: L the
        # grounded Laplacian, J = L(beta cos(gap)), Q = q_sens, c = d pin / d theta[keep]
        jac, c = net.laplacian(beta * np.cos(gap)), pin_col * math.cos(gap[line])
        return scipy.sparse.bmat(
            [[net.laplacian(np.sin(gap) * u), None, -jac, -c],
             [None, scipy.sparse.dia_array((1.0 / sig2, 0), shape=(n_w, n_w)), q_sens.T, None],
             [jac, -q_sens, None, None], [c.T, None, None, None]], format="csc")

    try:
        omega0 = e_dc_closed_form(net, dispatch, line, rho_threshold).omega
    except ZeroVarianceError:
        omega0 = np.zeros(n_w)
    theta0 = net.laplacian_op.solve(injection_vector(net, dispatch, np.bincount(wind, omega0, n)))
    z = np.concatenate([theta0[keep], omega0, np.zeros(n)])  # y and y_pin start at zero
    state = kkt(z)
    for step in range(MAX_NEWTON_STEPS + 1):
        r, rnorm, theta, omega, gap, u = state
        if rnorm <= TOL_KKT * max(1.0, float(np.max(np.abs(omega / sig2)))):
            break
        if step == MAX_NEWTON_STEPS:
            raise NoConvergenceError(f"nonlinear instanton KKT residual {rnorm:.3e} "
                                     f"after {MAX_NEWTON_STEPS} Newton steps")
        try:
            dz = splu(newton_matrix(gap, u)).solve(-r)
        except RuntimeError as exc:  # SuperLU: the matrix is singular
            raise NoConvergenceError(f"nonlinear instanton Newton matrix: {exc}") from exc
        for t in (0.5**k for k in range(50)):
            state = kkt(z + t * dz)
            if rnorm - state[1] >= 0.01 * t * rnorm:
                break
        else:
            raise NoConvergenceError(f"nonlinear instanton line search failed at KKT residual "
                                     f"{rnorm:.3e} (last trial {state[1]:.3e})")
        z = z + t * dz
    residual = float(np.max(np.abs(r[cut[1]:])))
    energy = float(np.sum(omega**2 / (2.0 * sig2)))
    # written so that a NaN residual or energy fails the test too
    if not (residual <= 1e-8 and math.isfinite(energy)):
        raise NoConvergenceError(f"nonlinear instanton residual {residual:.3e} "
                                 f"(energy {energy:.6g}) not within 1e-8")
    worst = int(np.argmax(np.abs(gap)))
    if abs(gap[worst]) >= math.pi / 2:
        raise NoConvergenceError(f"no synchronous instanton for line {line}: line {worst} "
                                 f"({net.bus_ids[f[worst]]},{net.bus_ids[to[worst]]}) "
                                 f"has angle gap {gap[worst]:.4g}, beyond pi/2")
    logger.info("nonlinear instanton line %d: energy %.6g, residual %.2e", line, energy, residual)
    return InstantonResult(energy=energy, omega=omega, phi=None, residual=residual, theta=theta)
