"""Tests for the large-deviation instanton: closed form vs a generic QP
solve, energy/omega consistency, scaling laws, the rarity condition, and
the nonlinear (sine-pinned) variant against the linear one."""
import math
from pathlib import Path

import numpy as np
import pytest

from syncopf import (
    Bus,
    DomainError,
    Generator,
    Line,
    Network,
    NoConvergenceError,
    ZeroVarianceError,
    e_dc_closed_form,
    ld_condition_check,
    nonlinear_instanton,
    parse_case,
    read_report,
)
import syncopf.ld_risk as ld_risk
from syncopf.network import Dispatch
from syncopf.qp import QuadraticProgram, solve_qp

ROOT = Path(__file__).resolve().parent.parent


def two_bus_wind(sigma=0.1):
    return Network(
        buses=[Bus(1), Bus(2, demand=1.0, wind_mean=0.2, wind_sigma=sigma)],
        generators=[Generator(bus=1, pmin=0.0, pmax=2.0, c1=1.0)],
        lines=[Line(1, 2, beta=2.0, pbar=5.0)],
    )


def stiff_triangle():
    """Weak pinned line (1,2) inside a stiff mesh: the sine target
    arcsin(rho) dominates the network's own angle amplification."""
    return Network(
        buses=[Bus(1), Bus(2, wind_sigma=0.3), Bus(3, demand=1.0)],
        generators=[Generator(bus=1, pmin=0.0, pmax=30.0, c1=1.0)],
        lines=[
            Line(1, 2, beta=0.1, pbar=5.0),
            Line(2, 3, beta=10.0, pbar=50.0),
            Line(1, 3, beta=10.0, pbar=50.0),
        ],
    )


def random_wind_net(rng, n=5):
    buses = []
    for i in range(1, n + 1):
        buses.append(
            Bus(
                i,
                demand=float(rng.uniform(0.0, 0.5)),
                wind_mean=float(rng.uniform(0.0, 0.2)) if i % 2 == 0 else 0.0,
                wind_sigma=float(rng.uniform(0.05, 0.3)) if i % 2 == 0 else 0.0,
            )
        )
    lines = [Line(i, i + 1, beta=float(rng.uniform(0.5, 2.0)), pbar=5.0) for i in range(1, n)]
    lines.append(Line(1, n, beta=float(rng.uniform(0.5, 2.0)), pbar=5.0))
    gens = [Generator(bus=1, pmin=0.0, pmax=10.0, c1=1.0), Generator(bus=3, pmin=0.0, pmax=10.0, c1=2.0)]
    return Network(buses, gens, lines)


def random_dispatch(net, rng):
    total = float(np.sum(net.demand - net.wind_mean))
    split = rng.dirichlet(np.ones(net.n_gen))
    alpha = rng.dirichlet(np.ones(net.n_gen))
    return Dispatch(p=total * split, alpha=alpha)


def test_two_bus_hand_energy():
    net = two_bus_wind(sigma=0.1)
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    res = e_dc_closed_form(net, disp, 0, 0.7)
    # mean gap 0.4, coefficient -1/2, variance form 0.0025
    assert res.energy == pytest.approx(18.0, abs=1e-10)
    assert res.omega[0] == pytest.approx(-0.6, abs=1e-10)
    assert res.residual <= 1e-12


def test_energy_equals_action_of_omega():
    rng = np.random.default_rng(3)
    for _ in range(20):
        net = random_wind_net(rng)
        disp = random_dispatch(net, rng)
        rho = float(rng.uniform(-0.8, 0.8))
        res = e_dc_closed_form(net, disp, int(rng.integers(net.n_line)), rho)
        sig = net.wind_sigma[net.wind_index]
        action = float(np.sum(res.omega**2 / (2.0 * sig**2)))
        assert res.energy == pytest.approx(action, abs=1e-10 * max(1.0, action))
        assert res.residual <= 1e-9


def test_closed_form_matches_qp_solve():
    rng = np.random.default_rng(11)
    for _ in range(25):
        net = random_wind_net(rng)
        disp = random_dispatch(net, rng)
        line = int(rng.integers(net.n_line))
        rho = float(rng.uniform(-0.9, 0.9))
        res = e_dc_closed_form(net, disp, line, rho)
        sens = net.gap_sensitivity
        mean_gap, coeff = sens.mean(disp)[line], sens.response(disp)[line]
        sig = net.wind_sigma[net.wind_index]
        qp = QuadraticProgram(
            Q=np.diag(1.0 / sig**2),
            c=np.zeros(len(sig)),
            A_eq=coeff[None, :],
            b_eq=np.array([rho - mean_gap]),
        )
        sol = solve_qp(qp)
        assert sol.status == "Optimal"
        assert res.energy == pytest.approx(sol.objective, abs=1e-8 * max(1.0, res.energy))


def test_energy_quadratic_in_distance():
    net = two_bus_wind()
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    base = e_dc_closed_form(net, disp, 0, 0.5).energy  # distance 0.1
    double = e_dc_closed_form(net, disp, 0, 0.6).energy  # distance 0.2
    assert double == pytest.approx(4.0 * base, rel=1e-12)


def test_energy_scales_inverse_variance():
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    e1 = e_dc_closed_form(two_bus_wind(sigma=0.1), disp, 0, 0.7).energy
    e2 = e_dc_closed_form(two_bus_wind(sigma=0.2), disp, 0, 0.7).energy
    assert e1 == pytest.approx(4.0 * e2, rel=1e-12)


def test_zero_variance_raises():
    net = Network(
        buses=[Bus(1), Bus(2, demand=1.0)],
        generators=[Generator(bus=1, pmin=0.0, pmax=2.0)],
        lines=[Line(1, 2, beta=2.0, pbar=5.0)],
    )
    disp = Dispatch(p=np.array([1.0]), alpha=np.array([1.0]))
    with pytest.raises(ZeroVarianceError):
        e_dc_closed_form(net, disp, 0, 0.5)


def test_line_index_domain():
    net = two_bus_wind()
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    with pytest.raises(DomainError):
        e_dc_closed_form(net, disp, 5, 0.5)


def test_condition_check_boundary_inclusive():
    eps = 0.01
    threshold = math.log(1.0 / eps)
    assert ld_condition_check(threshold, eps)
    assert ld_condition_check(threshold + 1e-12, eps)
    assert not ld_condition_check(threshold - 1e-9, eps)
    with pytest.raises(DomainError):
        ld_condition_check(1.0, 0.0)
    with pytest.raises(DomainError):
        ld_condition_check(1.0, 1.0)


def test_nonlinear_equals_dc_on_tree():
    # flows on a tree are forced by conservation, so both variants need
    # the same injection shift
    net = two_bus_wind(sigma=0.1)
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    dc = e_dc_closed_form(net, disp, 0, 0.7)
    nl = nonlinear_instanton(net, disp, 0, 0.7)
    assert nl.energy == pytest.approx(dc.energy, abs=1e-6)
    assert nl.residual <= 1e-8


def test_nonlinear_dominates_dc_near_boundary():
    net = stiff_triangle()
    disp = Dispatch(p=np.array([1.0]), alpha=np.array([1.0]))
    for rho in (0.5, 0.9, 0.97):
        dc = e_dc_closed_form(net, disp, 0, rho)
        nl = nonlinear_instanton(net, disp, 0, rho)
        assert nl.energy > dc.energy


def test_nonlinear_matches_dc_at_small_flows():
    net = stiff_triangle()
    disp = Dispatch(p=np.array([1.0]), alpha=np.array([1.0]))
    dc = e_dc_closed_form(net, disp, 0, 0.05)
    nl = nonlinear_instanton(net, disp, 0, 0.05)
    assert nl.energy == pytest.approx(dc.energy, rel=0.05)


def test_nonlinear_threshold_domain():
    net = two_bus_wind()
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    with pytest.raises(DomainError):
        nonlinear_instanton(net, disp, 0, 1.5)


def test_nonlinear_enforces_residual(monkeypatch):
    net = stiff_triangle()
    disp = Dispatch(p=np.array([1.0]), alpha=np.array([1.0]))
    monkeypatch.setattr(ld_risk, "MAX_NEWTON_STEPS", 1)
    with pytest.raises(NoConvergenceError, match="after 1 Newton steps"):
        nonlinear_instanton(net, disp, 0, 0.9)


class NanFactor:
    """A stand-in for splu whose solves are all NaN."""

    def __init__(self, matrix):
        pass

    def solve(self, rhs):
        return np.full_like(rhs, np.nan)


def test_nonlinear_nan_optimum_is_not_converged(monkeypatch):
    # NaN compares false with any tolerance, so a test of residual > tol lets it through
    monkeypatch.setattr(ld_risk, "splu", NanFactor)
    disp = Dispatch(p=np.array([1.0]), alpha=np.array([1.0]))
    with pytest.raises(NoConvergenceError, match="nan"):
        nonlinear_instanton(stiff_triangle(), disp, 0, 0.5)


def case9_at_dispatch():
    net, _ = parse_case(ROOT / "cases" / "case9_wind.json")
    rep = read_report(ROOT / "tests" / "data" / "ccopf_case9_wind.json")
    return net, Dispatch(p=np.array(rep.p), alpha=np.array(rep.alpha))


# The nonlinear instanton energy of each case9 line at its CC-OPF dispatch, at
# thresholds 0.3, 0.5, -0.5 and 0.9, as an SLSQP solve of the same problem gave
# it where the point it returned was synchronous (every |gap| < pi/2). None
# marks a run where that solve failed or returned a point beyond pi/2.
CASE9_RHOS = (0.3, 0.5, -0.5, 0.9)
CASE9_NONLINEAR_ENERGY = {
    0: (803.2096734307415, None, None, None),
    1: (183.88963543057153, 502.9346638450498, 532.1205755119868, None),
    2: (140.37258227002545, 320.9845351432871, 149.05120363702085, 952.6203434446355),
    3: (793.0705963724583, None, None, None),
    4: (275.0021967603369, 963.05365036449, 1711.2999159791473, 4025.400058150846),
    5: (577.2423379175339, 1554.9419630247255, 1416.8479871271825, None),
    6: (692.1280223157255, 1718.2220110814364, 1174.0310093164696, None),
    7: (129.89218526448786, 473.47404349336995, 997.1260455962706, None),
    8: (None, None, None, None),
}


@pytest.mark.parametrize("line, rho, energy", [
    (line, rho, energy) for line, energies in CASE9_NONLINEAR_ENERGY.items()
    for rho, energy in zip(CASE9_RHOS, energies)])
def test_nonlinear_case9_answers_are_synchronous(line, rho, energy):
    net, disp = case9_at_dispatch()
    try:
        res = nonlinear_instanton(net, disp, line, rho)
    except NoConvergenceError:
        assert energy is None  # only a run with no synchronous answer on record may fail
        return
    gap = res.theta[net.from_index] - res.theta[net.to_index]
    assert np.max(np.abs(gap)) < math.pi / 2
    if energy is not None:
        assert res.energy == pytest.approx(energy, rel=1e-9)


@pytest.mark.parametrize("ends, rho", [((8, 9), 0.9), ((9, 4), 0.3)])
def test_nonlinear_refuses_a_point_beyond_pi_over_2(ends, rho):
    # an SLSQP solve returned these with line 5-6 at an angle gap of 2.56 and
    # 1.75 rad (energies 734.8 and 955.5): no synchronous state
    net, disp = case9_at_dispatch()
    with pytest.raises(NoConvergenceError, match=r"synchronous.*\(5,6\)"):
        nonlinear_instanton(net, disp, net.line_between(*ends), rho)
