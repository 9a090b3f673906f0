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
one near |rho| = 1.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergenceError, ZeroVarianceError
from .network import Dispatch, Network, injection_vector

logger = logging.getLogger(__name__)

MAX_ITER_SLSQP = 500  # SLSQP iteration cap of nonlinear_instanton


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
    var_form = float(sens.spread_at(d, line)) ** 2
    if var_form <= 1e-300:
        raise ZeroVarianceError(
            f"line {line}: angle gap has no wind variance, instanton undefined"
        )
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

    Initialized from the linear instanton and solved by SLSQP with
    analytic gradients; the returned point must satisfy all equalities
    to 1e-8 or NoConvergenceError is raised.
    """
    if not 0 <= line < net.n_line:
        raise DomainError(f"line index {line} out of range")
    if not abs(rho_threshold) <= 1.0:  # NaN fails this too
        raise DomainError(
            f"nonlinear threshold must satisfy |rho| <= 1, got {rho_threshold}"
        )
    wind = net.wind_index
    n_w = len(wind)
    if n_w == 0:
        raise ZeroVarianceError("no wind buses, instanton undefined")
    sig = net.wind_sigma[wind]

    n = net.n_bus
    keep = net.non_slack_index
    alpha_bus = np.bincount(net.gen_bus_index, dispatch.alpha, n)  # response over buses
    base_q = injection_vector(net, dispatch)

    scatter = np.zeros((n, n_w))
    scatter[wind, np.arange(n_w)] = 1.0
    # q(omega) = base_q + (scatter - alpha_bus 1^T) omega
    q_sens = scatter[keep] - np.outer(alpha_bus[keep], np.ones(n_w))

    f, to = net.from_index, net.to_index
    k_i, l_i = f[line], to[line]
    pin_keep = (keep == k_i) * 1.0 - (keep == l_i)  # d gap / d theta[keep]

    def split(z):
        theta = np.zeros(n)
        theta[keep] = z[: n - 1]
        return theta, z[n - 1 :]

    def objective(z):
        _, omega = split(z)
        return float(np.sum(omega**2 / (2.0 * sig**2)))

    def objective_grad(z):
        _, omega = split(z)
        return np.concatenate([np.zeros(n - 1), omega / sig**2])

    def balance(z):
        theta, omega = split(z)
        flows = net.beta * np.sin(theta[f] - theta[to])
        q = base_q[keep] + q_sens @ omega
        return net.outflow(flows)[keep] - q

    def balance_jac(z):
        theta, _ = split(z)
        j_theta = net.laplacian(net.beta * np.cos(theta[f] - theta[to])).toarray()
        return np.hstack([j_theta, -q_sens])

    def pin(z):
        theta, _ = split(z)
        return np.array([math.sin(theta[k_i] - theta[l_i]) - rho_threshold])

    def pin_jac(z):
        theta, _ = split(z)
        row = math.cos(theta[k_i] - theta[l_i]) * pin_keep
        return np.hstack([row, np.zeros(n_w)])[None, :]

    # start from the linear instanton and its induced linear angles
    try:
        lin = e_dc_closed_form(net, dispatch, line, rho_threshold)
        omega0 = lin.omega
    except ZeroVarianceError:
        omega0 = np.zeros(n_w)
    w_full = np.zeros(n)
    w_full[wind] = omega0
    q0 = injection_vector(net, dispatch, wind=w_full)
    theta0 = net.laplacian_op.solve(q0)
    z0 = np.concatenate([theta0[keep], omega0])

    from scipy.optimize import minimize  # imported here: it is slow to load, and no other call needs it

    res = minimize(
        objective,
        z0,
        jac=objective_grad,
        method="SLSQP",
        constraints=[
            {"type": "eq", "fun": balance, "jac": balance_jac},
            {"type": "eq", "fun": pin, "jac": pin_jac},
        ],
        options={"maxiter": MAX_ITER_SLSQP, "ftol": 1e-14},
    )
    theta, omega = split(res.x)
    residual = max(
        float(np.max(np.abs(balance(res.x)))) if n > 1 else 0.0,
        abs(float(pin(res.x)[0])),
    )
    energy = float(np.sum(omega**2 / (2.0 * sig**2)))
    # written so that a NaN residual or energy fails the test too
    if not (residual <= 1e-8 and math.isfinite(energy)):
        raise NoConvergenceError(
            f"nonlinear instanton residual {residual:.3e} (energy {energy:.6g}) "
            f"not within 1e-8 (solver status: {res.message})"
        )
    logger.info(
        "nonlinear instanton line %d: energy %.6g, residual %.2e", line, energy, residual
    )
    return InstantonResult(
        energy=energy,
        omega=omega,
        phi=None,
        residual=residual,
        theta=theta,
    )
