"""Tests for the dense convex QP engine.

Covers: hand-checked KKT examples, dual sign conventions, infeasibility
detection, semidefinite regularization, randomized KKT certification,
inactive-constraint removal invariance, feasible ill-conditioned
problems with dependent rows, the KKT residual's warning, a QP grown
by add_rows, whose solves resume where the last one ended, and the
finish of each solve (polish and residual) against its reference.
"""
import dataclasses
import logging

import numpy as np
import pytest

import qp_reference
import syncopf.qp as qp_mod
from syncopf import parse_case, solve_cc_opf
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
    # the same QP, built twice, solves to the same bits
    a, b = (solve_qp(_random_feasible_qp(np.random.default_rng(77), 5, 10, with_eq=True)[0])
            for _ in range(2))
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_solve_with_no_row_appended_only_finishes():
    # solved again, a QP takes no step: bare, it returns the same iterate,
    # and finished, as often as asked, the bits of a cold solve
    qp, _ = _random_feasible_qp(np.random.default_rng(77), 5, 10, with_eq=True)
    first = solve_qp(qp, finish=False)
    assert first.status == OPTIMAL and first.iterations > 0 and np.isnan(first.kkt_residual)
    finished, bare, again = solve_qp(qp), solve_qp(qp, finish=False), solve_qp(qp)
    assert finished.iterations == bare.iterations == again.iterations == 0
    assert bare.x.tobytes() == first.x.tobytes() and np.isnan(bare.kkt_residual)
    cold = solve_qp(dataclasses.replace(qp))
    for sol in (finished, again):
        for name in ("x", "duals_eq", "duals_in", "duals_lo", "duals_hi"):
            assert getattr(sol, name).tobytes() == getattr(cold, name).tobytes(), name
        assert sol.kkt_residual == cold.kkt_residual and sol.objective == cold.objective


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


def test_negative_dual_alone_trips_kkt_residual():
    # min (x - 1)^2 / 2 s.t. x <= 2: at x = 2 a dual of -1 on the tight row
    # is stationary and complementary, but of the wrong sign
    qp = QuadraticProgram(Q=[[1.0]], c=[-1.0], A_in=[[1.0]], b_in=[2.0])
    wrong = dataclasses.replace(solve_qp(qp), x=np.array([2.0]), duals_in=np.array([-1.0]))
    assert _kkt_residual(qp, wrong) == pytest.approx(1.0)


def test_dual_on_infinite_bound_trips_stationarity_alone():
    # min (x - 1)^2 / 2 s.t. x >= 0: a dual of 0.5 on the upper bound, which
    # is infinite, breaks stationarity by 0.5 and has no slack to complement
    qp = QuadraticProgram(Q=[[1.0]], c=[-1.0], lo=[0.0], hi=[np.inf])
    wrong = dataclasses.replace(solve_qp(qp), duals_hi=np.array([0.5]))
    assert _kkt_residual(qp, wrong) == pytest.approx(0.5)


def test_dimension_validation():
    with pytest.raises(ValueError):
        QuadraticProgram(Q=np.eye(2), c=[1.0])
    with pytest.raises(ValueError):
        QuadraticProgram(Q=[[1.0, 0.5], [0.4, 1.0]], c=[0.0, 0.0])


# --- a QP grown by add_rows -------------------------------------------------

def _grown_qp(rng, n):
    # bounds and an equality that bind, and 3n feasible inequality rows
    # revealed in batches: the QP of the first batch, and the other batches
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.5 * np.eye(n)
    c = 5.0 * rng.normal(size=n)
    x_feas = rng.uniform(-0.5, 0.5, size=n)
    A = rng.normal(size=(3 * n, n))
    b = A @ x_feas + rng.uniform(0.0, 0.5, size=3 * n)
    cuts = np.sort(rng.choice(np.arange(1, 3 * n), size=3, replace=False))
    common = dict(Q=Q, c=c, A_eq=rng.normal(size=(1, n)), lo=np.full(n, -1.0),
                  hi=np.where(rng.random(n) < 0.5, 1.0, np.inf))
    common["b_eq"] = common["A_eq"] @ x_feas
    ends = (*cuts, 3 * n)
    qp = QuadraticProgram(A_in=A[: ends[0]], b_in=b[: ends[0]], **common)
    return qp, [(A[i:j], b[i:j]) for i, j in zip(ends, ends[1:])]


def _active(qp):
    # the active rows of the working set the QP's last, Optimal, solve ended in
    return sorted(qp._rows.end.active)


def test_warm_start_equals_cold_solve():
    rng = np.random.default_rng(31)
    moved = 0
    for trial in range(40):
        qp, batches = _grown_qp(rng, int(rng.integers(2, 9)))
        prev = None
        for batch in [None, *batches]:
            if batch is not None:
                qp.add_rows(*batch)
            resumed = qp._rows.end is not None
            warm = solve_qp(qp)
            cold_qp = dataclasses.replace(qp)  # the same blocks, copied into a new QP
            cold = solve_qp(cold_qp)
            assert resumed == (prev is not None), trial
            assert warm.status == cold.status == OPTIMAL, trial
            assert _active(qp) == _active(cold_qp), trial
            for name in ("x", "duals_eq", "duals_in", "duals_lo", "duals_hi"):
                assert np.allclose(getattr(warm, name), getattr(cold, name), rtol=0, atol=1e-12)
            moved += prev is not None and not np.array_equal(warm.x, prev.x)
            prev = warm
    assert moved > 40  # appended rows cut off the previous optimum


def test_warm_start_appended_row_infeasible():
    # x >= 1, then x <= 0 appended
    qp = QuadraticProgram(Q=[[2.0]], c=[0.0], A_in=[[-1.0]], b_in=[-1.0], lo=[-5.0])
    sol = solve_qp(qp)
    assert sol.status == OPTIMAL and sol.x[0] == pytest.approx(1.0)
    qp.add_rows([[1.0]], [0.0])
    assert qp._rows.end is not None  # the solve resumes
    assert solve_qp(qp).status == INFEASIBLE
    assert solve_qp(dataclasses.replace(qp)).status == INFEASIBLE


def test_add_rows_refuses_misshapen_block():
    qp = QuadraticProgram(Q=np.eye(2), c=[0.0, 0.0], A_in=[[1.0, 0.0]], b_in=[1.0])
    with pytest.raises(ValueError, match="a has 3 columns, expected 2"):
        qp.add_rows([[1.0, 2.0, 3.0]], [1.0])
    with pytest.raises(ValueError, match="b length mismatch"):
        qp.add_rows([[1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(ValueError, match="b length mismatch"):
        qp.add_rows([[1.0, 2.0], [0.0, 1.0]], [1.0])
    assert qp.A_in.tolist() == [[1.0, 0.0]] and qp.b_in.tolist() == [1.0]
    qp.add_rows([0.0, 1.0], 2.0)  # one row, given as a vector and a number
    assert qp.A_in.tolist() == [[1.0, 0.0], [0.0, 1.0]] and qp.b_in.tolist() == [1.0, 2.0]
    # a QP with no inequality rows takes them too
    bare = QuadraticProgram(Q=np.eye(2), c=[-4.0, 0.0])
    bare.add_rows([[1.0, 0.0]], [1.0])
    assert solve_qp(bare).x.tolist() == [1.0, 0.0]


def test_qp_blocks_are_read_only():
    given = {"Q": np.eye(2), "c": np.zeros(2), "A_eq": np.ones((1, 2)), "b_eq": np.ones(1),
             "A_in": np.eye(2), "b_in": np.ones(2), "lo": np.zeros(2), "hi": np.full(2, 3.0)}
    qp = QuadraticProgram(**given)
    qp.add_rows([[1.0, 1.0]], [1.5])
    for name, value in given.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(qp, name, value)
        with pytest.raises(ValueError, match="read-only"):
            getattr(qp, name)[0] = 7.0
        value[...] = 7.0  # the QP holds its own copy
        assert 7.0 not in getattr(qp, name)
    assert qp.A_in.shape == (3, 2)


def test_qp_after_infeasible_solve_restarts_cold():
    rng = np.random.default_rng(8)
    qp, batches = _grown_qp(rng, 6)
    assert solve_qp(qp).status == OPTIMAL
    a, b = batches[0]
    qp.add_rows(np.vstack([a, -a[:1]]), np.r_[b, -b[0] - 1.0])  # a_0 x <= b_0 and >= b_0 + 1
    assert solve_qp(qp).status == INFEASIBLE
    assert qp._rows.end is None
    qp.add_rows(*batches[1])
    again, cold = solve_qp(qp), solve_qp(dataclasses.replace(qp))
    assert again.status == cold.status == INFEASIBLE
    assert again.iterations == cold.iterations
    assert np.array_equal(again.x, cold.x)


# --- the finish of a solve against its reference -------------------------------

@pytest.fixture
def finish_checks(monkeypatch):
    """Check the finish of every solve against tests/qp_reference.py: the
    polish gives the reference's x and duals bit for bit, and the residual
    agrees with the reference's to roundoff and lies on the same side of
    the warning threshold. Returns the list of residuals checked."""
    polish, residual, checked = qp_mod._polish, qp_mod._kkt_residual, []

    def polish_checked(qp, rows, system, x, duals):
        want_x, want_duals = qp_reference.polish(qp, rows, system[0], x, duals.copy())
        got = polish(qp, rows, system, x, duals)
        assert got[0].tobytes() == want_x.tobytes() and duals.tobytes() == want_duals.tobytes()
        return got

    def residual_checked(qp, sol, *known):
        got, want = residual(qp, sol, *known), qp_reference.kkt_residual(qp, sol)
        # residuals of the size of roundoff are summed in another order
        assert abs(got - want) <= 1e-12 + 1e-9 * want, (got, want)
        assert (got > 100 * TOL_KKT) == (want > 100 * TOL_KKT)
        checked.append(got)
        return got

    monkeypatch.setattr(qp_mod, "_polish", polish_checked)
    monkeypatch.setattr(qp_mod, "_kkt_residual", residual_checked)
    return checked


ILL_CONDITIONED = [(4, 147), (6, 74), (8, 117), (8, 195), (10, 84), (11, 1068), (12, 1159),
                   (5, 1242), (11, 1648), (11, 1027), (12, 1943)]


def test_finish_matches_reference_on_test_qps(finish_checks):
    # the randomized and the ill-conditioned QPs above, and grown QPs, whose
    # upper bounds are partly infinite
    rng = np.random.default_rng(123)
    for trial in range(30):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 12))
        assert solve_qp(_random_feasible_qp(rng, n, m, with_eq=bool(trial % 2))[0]).status == OPTIMAL
    for n, seed in ILL_CONDITIONED:
        assert solve_qp(_ill_conditioned_qp(n, seed)[0]).status == OPTIMAL
    rng = np.random.default_rng(31)
    for trial in range(10):
        qp, batches = _grown_qp(rng, int(rng.integers(2, 7)))
        solve_qp(qp)
        for batch in batches:
            qp.add_rows(*batch)
            solve_qp(qp)
    assert len(finish_checks) == 30 + len(ILL_CONDITIONED) + 10 * 4


@pytest.mark.parametrize("add_all", [False, True], ids=["one-cut", "all-violated"])
@pytest.mark.parametrize("case", ["cases/case9_wind.json", "cases/alternation.json",
                                  "tests/data/mesh100.json"])
def test_finish_matches_reference_in_cut_loops(case, add_all, finish_checks):
    # the loop finishes one QP, the one that meets its tolerance
    net, chance = parse_case(case)
    solve_cc_opf(net, chance, add_all_violated=add_all)
    assert len(finish_checks) == 1
