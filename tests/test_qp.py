"""Tests for the dense convex QP engine.

Covers: hand-checked KKT examples, dual sign conventions, infeasibility
detection, semidefinite regularization, randomized KKT certification,
inactive-constraint removal invariance, and feasible ill-conditioned
problems with dependent rows, and the KKT residual's warning.
"""
import dataclasses
import logging

import numpy as np
import pytest

import syncopf.qp as qp_mod
from syncopf.qp import OPTIMAL, INFEASIBLE, TOL_KKT, QuadraticProgram, _kkt_residual, solve_qp


def test_min_x_squared_with_lower_bound():
    # min x^2 s.t. x >= 1 -> x = 1, bound dual 2
    qp = QuadraticProgram(Q=[[2.0]], c=[0.0], lo=[1.0])
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL
    assert abs(sol.x[0] - 1.0) < 1e-10
    assert abs(sol.objective - 1.0) < 1e-10
    assert abs(sol.duals_lo[0] - 2.0) < 1e-8


def test_min_x_squared_with_inequality_row():
    # same problem phrased as -x <= -1
    qp = QuadraticProgram(Q=[[2.0]], c=[0.0], A_in=[[-1.0]], b_in=[-1.0])
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL
    assert abs(sol.x[0] - 1.0) < 1e-10
    assert abs(sol.duals_in[0] - 2.0) < 1e-8


def test_unconstrained_shifted_parabola():
    # min (x-3)^2 = x^2 - 6x + 9: solver sees Q=2, c=-6
    qp = QuadraticProgram(Q=[[2.0]], c=[-6.0])
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL
    assert abs(sol.x[0] - 3.0) < 1e-12
    assert abs(sol.objective + 9.0) < 1e-12  # add the constant 9 to get 0


def test_equality_constrained_symmetric():
    # min x^2 + y^2 s.t. x + y = 1 -> (0.5, 0.5), equality dual 1
    qp = QuadraticProgram(
        Q=2.0 * np.eye(2), c=np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[1.0]
    )
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-10)
    assert abs(sol.duals_eq[0] - 1.0) < 1e-8
    assert abs(sol.objective - 0.5) < 1e-10


def test_infeasible_box():
    qp = QuadraticProgram(Q=[[2.0]], c=[0.0], lo=[1.0], hi=[0.5])
    sol = solve_qp(qp)
    assert sol.status == INFEASIBLE


def test_infeasible_inequalities():
    # x <= 0 and x >= 1
    qp = QuadraticProgram(
        Q=[[2.0]], c=[0.0], A_in=[[1.0], [-1.0]], b_in=[0.0, -1.0]
    )
    sol = solve_qp(qp)
    assert sol.status == INFEASIBLE


def test_semidefinite_q_regularized():
    # Q singular: min y^2 + x s.t. x >= 0 pins x at its bound
    qp = QuadraticProgram(
        Q=np.diag([0.0, 2.0]), c=[1.0, -2.0], lo=[0.0, -np.inf]
    )
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL
    assert abs(sol.x[0]) < 1e-6
    assert abs(sol.x[1] - 1.0) < 1e-8


def test_equalities_combined_with_actives():
    # min (x-2)^2 + (y+1)^2 s.t. x + y = 0, y >= 0
    # substitute x=-y: minimize (y+2)^2+(y+1)^2 over y>=0 -> y=0, x=0
    qp = QuadraticProgram(
        Q=2.0 * np.eye(2),
        c=[-4.0, 2.0],
        A_eq=[[1.0, 1.0]],
        b_eq=[0.0],
        lo=[-np.inf, 0.0],
    )
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.x, [0.0, 0.0], atol=1e-8)


def _random_feasible_qp(rng, n, m_in, with_eq):
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.5 * np.eye(n)
    c = rng.normal(size=n)
    x_feas = rng.normal(size=n)
    A_in = rng.normal(size=(m_in, n))
    b_in = A_in @ x_feas + rng.uniform(0.1, 1.0, size=m_in)
    A_eq = b_eq = None
    if with_eq:
        A_eq = rng.normal(size=(1, n))
        b_eq = A_eq @ x_feas
    return QuadraticProgram(Q=Q, c=c, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in), x_feas


def _kkt_ok(qp, sol, tol=1e-8):
    grad = qp.Q @ sol.x + qp.c
    if qp.A_in is not None:
        grad = grad + qp.A_in.T @ sol.duals_in
    if qp.A_eq is not None:
        grad = grad - qp.A_eq.T @ sol.duals_eq
    if np.max(np.abs(grad)) > tol:
        return False
    if qp.A_eq is not None and np.max(np.abs(qp.A_eq @ sol.x - qp.b_eq)) > tol:
        return False
    if qp.A_in is not None:
        slack = qp.b_in - qp.A_in @ sol.x
        if np.min(slack) < -tol or np.min(sol.duals_in) < -tol:
            return False
        if np.max(np.abs(sol.duals_in * slack)) > tol:
            return False
    return True


def test_randomized_kkt_certification():
    rng = np.random.default_rng(123)
    for trial in range(30):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 12))
        qp, _ = _random_feasible_qp(rng, n, m, with_eq=bool(trial % 2))
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL, f"trial {trial}"
        assert _kkt_ok(qp, sol), f"trial {trial}: kkt residual {sol.kkt_residual}"


def test_optimal_beats_random_feasible_points():
    rng = np.random.default_rng(5)
    qp, x_feas = _random_feasible_qp(rng, 4, 6, with_eq=False)
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL

    def obj(x):
        return 0.5 * x @ qp.Q @ x + qp.c @ x

    for _ in range(200):
        x = x_feas + rng.normal(scale=0.3, size=4)
        if np.all(qp.A_in @ x <= qp.b_in):
            assert obj(x) >= sol.objective - 1e-8


def test_inactive_constraint_removal_invariance():
    rng = np.random.default_rng(9)
    qp, _ = _random_feasible_qp(rng, 3, 8, with_eq=False)
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL
    slack = qp.b_in - qp.A_in @ sol.x
    keep = slack < 1e-6
    if keep.all():
        pytest.skip("all constraints active in this draw")
    qp2 = QuadraticProgram(Q=qp.Q, c=qp.c, A_in=qp.A_in[keep], b_in=qp.b_in[keep])
    sol2 = solve_qp(qp2)
    assert sol2.status == OPTIMAL
    assert np.allclose(sol.x, sol2.x, atol=1e-8)
    assert abs(sol.objective - sol2.objective) < 1e-8


def test_deterministic_repeat():
    rng = np.random.default_rng(77)
    qp, _ = _random_feasible_qp(rng, 5, 10, with_eq=True)
    a = solve_qp(qp)
    b = solve_qp(qp)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def _ill_conditioned_qp(n, seed):
    # Q has condition number 1e7; the first m/4 rows of A are scaled copies
    # of the last m/4, and A x0 <= b holds with equality on about half the
    # rows, so the problem is feasible with many dependent active candidates
    rng = np.random.default_rng(seed)
    m = 4 * n
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    Q = U @ np.diag(np.geomspace(1.0, 1e7, n)) @ U.T
    c = rng.normal(size=n)
    x0 = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    A[: m // 4] = rng.uniform(0.5, 2.0, size=(m // 4, 1)) * A[-(m // 4):]
    b = A @ x0 + rng.uniform(0.0, 1e-3, size=m) * (rng.random(m) < 0.5)
    return QuadraticProgram(Q=0.5 * (Q + Q.T), c=c, A_in=A, b_in=b), x0


@pytest.mark.parametrize("n, seed", [(4, 147), (6, 74), (8, 117), (8, 195), (10, 84)])
def test_ill_conditioned_dependent_rows_solve_to_optimal(n, seed):
    # with the normal equations N Q^-1 N' formed at every step, four of these
    # read Infeasible and (8, 195) ended with a KKT residual of 1.2e-3
    qp, x0 = _ill_conditioned_qp(n, seed)
    assert np.all(qp.A_in @ x0 <= qp.b_in)
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL
    assert sol.kkt_residual <= 1e-8
    at_x0 = 0.5 * x0 @ qp.Q @ x0 + qp.c @ x0
    assert sol.objective <= at_x0 + 1e-12 * abs(at_x0)


@pytest.mark.parametrize("n, seed", [(11, 1068), (12, 1159), (5, 1242), (11, 1648), (11, 1027), (12, 1943)])
def test_large_dual_on_active_row_logs_no_kkt_warning(n, seed, caplog):
    # an active row with a dual of 1e8 to 1e9 and a slack of roundoff size:
    # the plain |dual * slack| read up to 1.5e-2 on these draws; on the last
    # two, duals of 2.4e11 and 5.8e9 left a stationarity sum of about
    # |dual| * eps, 1.4e-4 and 4.2e-6 in absolute terms
    qp, _ = _ill_conditioned_qp(n, seed)
    with caplog.at_level(logging.WARNING, logger=qp_mod.__name__):
        sol = solve_qp(qp)
    assert sol.status == OPTIMAL
    assert not caplog.records


def test_perturbed_dual_trips_kkt_warning(monkeypatch, caplog):
    # a dual of 1e-3 on the slackest row breaks stationarity by 2.8e-3, far
    # above the roundoff of terms that reach |dual| * |a| with duals near 9e8
    qp, _ = _ill_conditioned_qp(12, 1159)
    package = qp_mod._package

    def perturbed(*args):
        sol = package(*args)
        sol.duals_in[np.argmax(qp.b_in - qp.A_in @ sol.x)] += 1e-3  # on the slackest row
        return sol

    monkeypatch.setattr(qp_mod, "_package", perturbed)
    with caplog.at_level(logging.WARNING, logger=qp_mod.__name__):
        solve_qp(qp)
    assert any("KKT residual" in r.getMessage() for r in caplog.records)


def test_complementarity_alone_trips_kkt_residual():
    # min (x - 1)^2 / 2 s.t. x <= 2: x = 0.5 with dual 0.5 is stationary and
    # feasible, but the row has slack 1.5
    qp = QuadraticProgram(Q=[[1.0]], c=[-1.0], A_in=[[1.0]], b_in=[2.0])
    sol = solve_qp(qp)
    assert sol.kkt_residual <= 1e-12
    wrong = dataclasses.replace(sol, x=np.array([0.5]), duals_in=np.array([0.5]))
    assert _kkt_residual(qp, wrong) == pytest.approx(0.75 / (1.0 + 0.5 * 2.5))
    assert _kkt_residual(qp, wrong) > 100 * TOL_KKT


def test_stationarity_alone_trips_kkt_residual():
    # min (x - 1)^2 / 2 with no constraints: at x = 0.5 the gradient is -0.5,
    # and the roundoff of terms of size 0.5 + 1 takes off only a few eps
    qp = QuadraticProgram(Q=[[1.0]], c=[-1.0])
    sol = solve_qp(qp)
    assert sol.kkt_residual <= 1e-12
    wrong = dataclasses.replace(sol, x=np.array([0.5]))
    assert _kkt_residual(qp, wrong) == pytest.approx(0.5)


def test_dimension_validation():
    with pytest.raises(ValueError):
        QuadraticProgram(Q=np.eye(2), c=[1.0])
    with pytest.raises(ValueError):
        QuadraticProgram(Q=[[1.0, 0.5], [0.4, 1.0]], c=[0.0, 0.0])
