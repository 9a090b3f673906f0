"""Tests for the convex power flow solver and the energy-function check.

Covers: psi closed form against quadrature, 2-bus forced solutions,
boundary (loss of synchrony) detection, oracle agreement with an
independent Newton solve of the sine equations, conservation and
angle-recovery invariants on random networks, tree exactness, Newton
termination on random meshes, the cached spanning tree, its sparse chord
Hessian against the dense product, and the batched solve against the
single-sample one.
"""
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from syncopf import (
    Bus, DomainError, Generator, Line, Network, NoConvergenceError, UnbalancedInjectionsError,
    parse_case, read_report,
)
from syncopf.case_io import parse_case_dict
from syncopf.network import Dispatch, injection_vector
from syncopf.powerflow import (
    energy_function_solve,
    pf_objective,
    psi,
    solve_pf,
    solve_pf_batch,
)

DATA = Path(__file__).parent / "data"


def two_bus(beta=1.0, pbar=2.0):
    return Network(
        buses=[Bus(1), Bus(2)],
        generators=[Generator(bus=1, pmin=0.0, pmax=3.0)],
        lines=[Line(1, 2, beta=beta, pbar=pbar)],
        slack_bus=2,
    )


def triangle(pbar=10.0):
    return Network(
        buses=[Bus(1), Bus(2), Bus(3)],
        generators=[Generator(bus=1, pmin=0.0, pmax=3.0)],
        lines=[
            Line(1, 2, beta=1.0, pbar=pbar),
            Line(2, 3, beta=1.0, pbar=pbar),
            Line(1, 3, beta=1.0, pbar=pbar),
        ],
        slack_bus=3,
    )


def random_net(rng, n, extra_frac=0.5, beta_range=(0.5, 3.0), pbar=50.0):
    buses = [Bus(i) for i in range(1, n + 1)]
    lines = []
    for i in range(2, n + 1):
        j = int(rng.integers(1, i))
        lines.append(Line(j, i, beta=float(rng.uniform(*beta_range)), pbar=pbar))
    pairs = {(min(l.from_bus, l.to_bus), max(l.from_bus, l.to_bus)) for l in lines}
    target = int(extra_frac * n)
    while target > 0:
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        key = (min(a, b), max(a, b))
        if key not in pairs:
            pairs.add(key)
            lines.append(
                Line(int(a), int(b), beta=float(rng.uniform(*beta_range)), pbar=pbar)
            )
            target -= 1
    gens = [Generator(bus=1, pmin=0.0, pmax=10.0)]
    return Network(buses, gens, lines)


def ring_mesh(rng, n, extra=None):
    """A ring of n buses plus up to extra (by default n/2) random chords, with
    thermal limits at 0.3 to 1.2 of each line's susceptance."""
    pairs = [(i, i % n + 1) for i in range(1, n + 1)]
    seen = {frozenset(pair) for pair in pairs}
    for _ in range(n // 2 if extra is None else extra):
        a, b = (int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            pairs.append((a, b))
    beta = rng.uniform(0.5, 3.0, size=len(pairs))
    lines = [Line(a, b, beta=float(bb), pbar=float(bb * rng.uniform(0.3, 1.2)))
             for (a, b), bb in zip(pairs, beta)]
    return Network([Bus(i) for i in range(1, n + 1)], [Generator(bus=1, pmin=0.0, pmax=10.0)], lines)


def balanced(rng, n, scale=0.3):
    q = rng.normal(scale=scale, size=n)
    return q - q.mean()


def sine_newton_oracle(net, q, iters=100):
    """Independent damped Newton on the sine flow equations."""
    keep = [i for i in range(net.n_bus) if i != net.slack_index]
    A = net.incidence[keep, :].toarray()
    th = np.zeros(len(keep))
    for _ in range(iters):
        diff = A.T @ th
        r = A @ (net.beta * np.sin(diff)) - q[keep]
        if np.max(np.abs(r)) < 1e-12:
            break
        H = A @ ((net.beta * np.cos(diff))[:, None] * A.T)
        step = np.linalg.solve(H, -r)
        t = 1.0
        while t > 1e-8:
            r_t = A @ (net.beta * np.sin(A.T @ (th + t * step))) - q[keep]
            if np.linalg.norm(r_t) < np.linalg.norm(r):
                break
            t /= 2
        th = th + t * step
    full = np.zeros(net.n_bus)
    full[keep] = th
    return full


# --- psi -----------------------------------------------------------------

def test_psi_endpoints():
    assert psi(-1.0) == 0.0
    assert abs(psi(1.0)) < 1e-15
    assert abs(psi(0.0) - (1.0 - np.pi / 2.0)) < 1e-15


def test_psi_matches_quadrature():
    for x in (-0.9, -0.3, 0.0, 0.42, 0.77, 0.999):
        val, _ = scipy.integrate.quad(np.arcsin, -1.0, x)
        assert abs(psi(x) - val) < 1e-10


def test_psi_domain_error():
    with pytest.raises(DomainError):
        psi(1.5)
    with pytest.raises(DomainError):
        psi(np.array([0.0, -1.2]))


def test_psi_convexity_probe():
    rng = np.random.default_rng(4)
    a = rng.uniform(-0.999, 0.999, size=200)
    b = rng.uniform(-0.999, 0.999, size=200)
    mid = psi((a + b) / 2.0)
    assert np.all(mid <= (psi(a) + psi(b)) / 2.0 + 1e-12)


# --- solve_pf ------------------------------------------------------------

def test_two_bus_forced_flow():
    net = two_bus()
    fs = solve_pf(net, np.array([0.5, -0.5]))
    assert fs.feasible and not fs.boundary_hit
    assert abs(fs.rho[0] - 0.5) < 1e-12
    assert abs((fs.theta[0] - fs.theta[1]) - np.arcsin(0.5)) < 1e-12
    assert abs(fs.theta[1]) == 0.0


def test_two_bus_loss_of_synchrony():
    net = two_bus()
    fs = solve_pf(net, np.array([1.5, -1.5]))
    assert fs.boundary_hit
    assert not fs.feasible


def test_two_bus_thermal_cap_boundary():
    net = two_bus(beta=1.0, pbar=0.4)
    fs = solve_pf(net, np.array([0.5, -0.5]))
    assert fs.boundary_hit
    fs2 = solve_pf(net, np.array([0.5, -0.5]), enforce_thermal_cap=False)
    assert fs2.feasible and abs(fs2.rho[0] - 0.5) < 1e-12


def test_unbalanced_injections_rejected():
    net = two_bus()
    with pytest.raises(UnbalancedInjectionsError):
        solve_pf(net, np.array([0.5, -0.4]))


def test_triangle_against_sine_newton_oracle():
    net = triangle()
    q = np.array([1.2, -0.6, -0.6])
    fs = solve_pf(net, q)
    assert fs.feasible
    th = sine_newton_oracle(net, q)
    rho_oracle = np.sin(th[net.from_index] - th[net.to_index])
    assert np.allclose(fs.rho, rho_oracle, atol=1e-6)


def test_conservation_and_angle_recovery_random():
    rng = np.random.default_rng(21)
    for n in (5, 12, 30):
        net = random_net(rng, n)
        q = balanced(rng, n)
        fs = solve_pf(net, q)
        assert fs.feasible
        # conservation at every bus
        div = net.incidence @ (net.beta * fs.rho)
        assert np.max(np.abs(div - q)) < 1e-8
        # recovered angles reproduce the sines on every arc, chords included
        diff = fs.theta[net.from_index] - fs.theta[net.to_index]
        assert np.max(np.abs(np.sin(diff) - fs.rho)) < 1e-8
        assert fs.theta[net.slack_index] == 0.0


def test_objective_consistency():
    rng = np.random.default_rng(33)
    net = random_net(rng, 10)
    q = balanced(rng, 10)
    fs = solve_pf(net, q)
    assert abs(fs.objective - pf_objective(net, fs.rho)) < 1e-10


def test_tree_network_flows_forced():
    # on a tree conservation fixes flows; solver must reproduce them
    net = Network(
        buses=[Bus(1), Bus(2), Bus(3), Bus(4)],
        generators=[Generator(bus=1, pmin=0.0, pmax=5.0)],
        lines=[
            Line(1, 2, beta=2.0, pbar=5.0),
            Line(2, 3, beta=1.0, pbar=5.0),
            Line(2, 4, beta=1.5, pbar=5.0),
        ],
        slack_bus=4,
    )
    q = np.array([0.9, -0.2, -0.3, -0.4])
    fs = solve_pf(net, q)
    assert fs.feasible
    # hand flow solution: line 1-2 carries 0.9, 2-3 carries 0.3, 2-4 0.4
    assert np.allclose(net.beta * fs.rho, [0.9, 0.3, 0.4], atol=1e-12)


def test_newton_ends_on_random_meshes():
    # interior and cap-pinned optima alike end at the gradient tolerance in
    # a few steps; a stalled solve raises NoConvergenceError and fails here
    rng = np.random.default_rng(2026)
    worst = 0
    for _ in range(150):
        net = ring_mesh(rng, int(rng.integers(4, 31)))
        for scale in (0.5, 1.0, 2.0, 4.0, 8.0):
            q = balanced(rng, net.n_bus, scale=scale)
            for thermal in (True, False):
                worst = max(worst, solve_pf(net, q, enforce_thermal_cap=thermal).iterations)
    assert worst <= 25


def test_cached_tree_matches_fresh_network():
    # one spanning-tree factorization serves every solve on a Network
    rng = np.random.default_rng(77)
    net = ring_mesh(rng, 12)
    jobs = [(balanced(rng, 12, scale=scale), thermal)
            for scale in (0.3, 1.0, 3.0) for thermal in (True, False)]
    for k in [*range(len(jobs)), *rng.permutation(len(jobs))]:
        q, thermal = jobs[k]
        got = solve_pf(net, q, enforce_thermal_cap=thermal)
        fresh = Network(net.buses, net.generators, net.lines, slack_bus=net.slack_bus)
        want = solve_pf(fresh, q, enforce_thermal_cap=thermal)
        assert np.array_equal(got.rho, want.rho) and np.array_equal(got.theta, want.theta)
        assert (got.objective, got.iterations, got.boundary_hit) == (
            want.objective, want.iterations, want.boundary_hit)
    assert net.spanning_tree is net.spanning_tree


# --- the chord Hessian ---------------------------------------------------

def ring_with_parallels(rng, n):
    """A ring of n buses plus n/2 random lines, a third of them parallel to a
    line already there, parsed so that parallel lines merge into one."""
    pairs = [(i, i % n + 1) for i in range(1, n + 1)]
    for _ in range(n // 2):
        if rng.random() < 1 / 3:
            pairs.append(pairs[int(rng.integers(len(pairs)))][::-1])
        else:
            pairs.append(tuple(int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False)))
    doc = {
        "schema_version": "1",
        "buses": [{"id": i} for i in range(1, n + 1)],
        "generators": [{"bus": 1, "pmin": 0.0, "pmax": 10.0}],
        "lines": [{"from": a, "to": b, "beta": float(rng.uniform(0.5, 3.0)), "pbar": 5.0}
                  for a, b in pairs],
    }
    net, _ = parse_case_dict(doc)
    assert net.n_line < len(pairs)  # some lines were merged
    return net


def _hessian_nets():
    rng = np.random.default_rng(31)
    yield "case9", parse_case("cases/case9_wind.json")[0]
    yield "alternation", parse_case("cases/alternation.json")[0]
    yield "mesh100", parse_case(DATA / "mesh100.json")[0]
    for k in range(6):
        yield f"ring{k}", ring_with_parallels(rng, int(rng.integers(4, 41)))
    yield "tree", random_net(rng, 12, extra_frac=0.0)


@pytest.mark.parametrize("name, net", [pytest.param(*case, id=case[0]) for case in _hessian_nets()])
def test_chord_hessian_matches_dense_product(name, net):
    basis = net.spanning_tree
    K = basis.chord_map
    per_line = np.count_nonzero(K, axis=1)
    assert basis.hessian_map.shape == (K.shape[1] ** 2, net.n_line)
    assert basis.hessian_map.nnz == np.sum(per_line**2)
    w = np.random.default_rng(5).uniform(0.1, 10.0, size=(7, net.n_line))
    dense = K.T @ (w[:, :, None] * K)
    np.testing.assert_allclose(basis.chord_hessian(w), dense, rtol=1e-14, atol=0.0)
    if name == "tree":
        assert K.shape[1] == 0 and basis.hessian_map.nnz == 0
        q = np.array([balanced(np.random.default_rng(k), net.n_bus) for k in range(3)])
        assert (solve_pf_batch(net, q).iterations == 0).all()


@pytest.mark.parametrize("make", [
    lambda: parse_case(DATA / "mesh100.json")[0],
    lambda: ring_mesh(np.random.default_rng(1000), 1000, extra=150),
], ids=["mesh100", "ring1000"])
def test_chord_hessian_rows_do_not_depend_on_stack_size(make):
    # each row of a 40-row stack, bit for bit the Hessian of that row alone
    net = make()
    basis = net.spanning_tree
    w = np.random.default_rng(8).uniform(0.1, 10.0, size=(40, net.n_line))
    stacked = basis.chord_hessian(w)
    for s in (0, 1, 17, 39):
        assert np.array_equal(basis.chord_hessian(w[s:s + 1])[0], stacked[s])
    assert np.array_equal(basis.chord_hessian(w[5:9]), stacked[5:9])


# --- solve_pf_batch ------------------------------------------------------

def _batch_against_scalar(net, q, thermal):
    """solve_pf_batch over the rows of q, checked sample by sample against
    solve_pf on each row alone."""
    batch = solve_pf_batch(net, q, enforce_thermal_cap=thermal)
    assert not batch.failed.any()
    for s, row in enumerate(q):
        one = solve_pf(net, row, enforce_thermal_cap=thermal)
        assert batch.iterations[s] == one.iterations
        assert batch.boundary_hit[s] == one.boundary_hit
        assert np.max(np.abs(batch.rho[s] - one.rho)) <= 1e-12
    return batch


@pytest.mark.parametrize("case, report", [
    ("cases/case9_wind.json", "ccopf_case9_wind.json"),
    ("cases/alternation.json", "ccopf_alternation.json"),
    (DATA / "mesh100.json", "ccopf_mesh100.json"),
], ids=["case9", "alternation", "mesh100"])
def test_batch_matches_scalar_on_cases(case, report):
    # wind at six times its spread, so that some samples pin a thermal cap
    net, _ = parse_case(case)
    rep = read_report(DATA / report)
    dispatch = Dispatch(p=np.array(rep.p), alpha=np.array(rep.alpha))
    rng = np.random.default_rng(11)
    wind = np.zeros((40, net.n_bus))
    sigma = net.wind_sigma[net.wind_index]
    wind[:, net.wind_index] = 6.0 * sigma * rng.normal(size=(40, sigma.size))
    q = np.array([injection_vector(net, dispatch, wind=w) for w in wind])
    assert np.array_equal(injection_vector(net, dispatch, wind=wind), q)  # stacked wind
    hits = [_batch_against_scalar(net, q, thermal).boundary_hit.sum() for thermal in (True, False)]
    assert hits[0] > 0


def test_batch_matches_scalar_on_random_meshes():
    # the 1500 solves of test_newton_ends_on_random_meshes, whose steep
    # injections take the Armijo branch and pin flows at both caps
    rng = np.random.default_rng(2026)
    hits = {True: 0, False: 0}
    for _ in range(150):
        net = ring_mesh(rng, int(rng.integers(4, 31)))
        q = np.array([balanced(rng, net.n_bus, scale=scale) for scale in (0.5, 1.0, 2.0, 4.0, 8.0)])
        for thermal in (True, False):
            hits[thermal] += _batch_against_scalar(net, q, thermal).boundary_hit.sum()
    assert hits[True] > 0 and hits[False] > 0


def test_batch_marks_failures_and_scalar_raises():
    net, _ = parse_case(DATA / "mesh100.json")
    rng = np.random.default_rng(5)
    q = np.array([balanced(rng, net.n_bus, scale=0.05) for _ in range(3)])
    batch = solve_pf_batch(net, q, max_iter=1)
    assert batch.failed.all() and (batch.iterations == 1).all()
    assert (batch.residual > 1e-10).all()
    with pytest.raises(NoConvergenceError):
        solve_pf(net, q[0], max_iter=1)
    assert not solve_pf_batch(net, q).failed.any()


def test_batch_rejects_unbalanced_row():
    net = triangle()
    q = np.array([[1.2, -0.6, -0.6], [1.2, -0.6, -0.5]])
    with pytest.raises(UnbalancedInjectionsError):
        solve_pf_batch(net, q)


def test_batch_on_tree_takes_no_newton_step():
    net = two_bus()
    batch = solve_pf_batch(net, np.array([[0.5, -0.5], [1.5, -1.5]]))
    assert (batch.iterations == 0).all() and not batch.failed.any()
    assert batch.boundary_hit.tolist() == [False, True]
    assert abs(batch.rho[0, 0] - 0.5) < 1e-12


# --- energy_function_solve ------------------------------------------------

def test_energy_two_bus_matches_solve_pf():
    net = two_bus()
    q = np.array([0.5, -0.5])
    fs = energy_function_solve(net, q)
    assert abs((fs.theta[0] - fs.theta[1]) - np.pi / 6.0) < 1e-8


def test_energy_zero_injections():
    net = triangle()
    fs = energy_function_solve(net, np.zeros(3))
    assert np.allclose(fs.theta, 0.0)
    assert abs(fs.objective) < 1e-15


def test_energy_matches_solve_pf_on_random_tree():
    rng = np.random.default_rng(8)
    net = random_net(rng, 10, extra_frac=0.0)
    q = balanced(rng, 10, scale=0.2)
    fs_pf = solve_pf(net, q)
    fs_en = energy_function_solve(net, q)
    assert np.allclose(
        net.beta * fs_pf.rho, net.beta * fs_en.rho, atol=1e-6
    )


def test_energy_stationarity_random_mesh():
    rng = np.random.default_rng(13)
    net = random_net(rng, 15)
    q = balanced(rng, 15, scale=0.25)
    fs = energy_function_solve(net, q)
    diff = fs.theta[net.from_index] - fs.theta[net.to_index]
    resid = net.incidence @ (net.beta * np.sin(diff)) - q
    assert np.max(np.abs(resid)) < 1e-7


def test_two_formulations_agree_on_mesh():
    rng = np.random.default_rng(55)
    for _ in range(5):
        net = random_net(rng, 12)
        q = balanced(rng, 12, scale=0.3)
        fs_pf = solve_pf(net, q)
        if not fs_pf.feasible:
            continue
        fs_en = energy_function_solve(net, q)
        assert np.max(np.abs(fs_pf.rho - fs_en.rho)) < 1e-6
