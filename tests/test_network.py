"""Tests for the grid model and Laplacian operators.

Covers: construction validation, incidence/Laplacian structure, the
grounded Laplacian and bus balance for any line weights, the grounded
reduced inverse, the sparse gap sensitivities against the dense
one and their memory, injection vectors under affine response, and
randomized consistency of the linear solve.
"""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from syncopf import (
    Bus,
    DimensionMismatchError,
    DisconnectedGraphError,
    Dispatch,
    Generator,
    Line,
    Network,
    NonPositiveSusceptanceError,
    ValidationError,
    injection_vector,
    parse_case,
)

ROOT = Path(__file__).parent.parent


def two_bus(beta=1.0, slack=2):
    return Network(
        buses=[Bus(1), Bus(2, demand=0.5)],
        generators=[Generator(bus=1, pmin=0.0, pmax=2.0, c1=1.0)],
        lines=[Line(1, 2, beta=beta, pbar=1.0)],
        slack_bus=slack,
    )


def triangle(beta=1.0):
    return Network(
        buses=[Bus(1), Bus(2), Bus(3, demand=1.0)],
        generators=[Generator(bus=1, pmin=0.0, pmax=2.0)],
        lines=[
            Line(1, 2, beta=beta, pbar=10.0),
            Line(2, 3, beta=beta, pbar=10.0),
            Line(1, 3, beta=beta, pbar=10.0),
        ],
        slack_bus=3,
    )


def random_connected(rng, n):
    buses = [Bus(i) for i in range(1, n + 1)]
    lines = []
    for i in range(2, n + 1):
        j = int(rng.integers(1, i))
        lines.append(Line(j, i, beta=float(rng.uniform(0.5, 3.0)), pbar=10.0))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        lines.append(Line(int(a), int(b), beta=float(rng.uniform(0.5, 3.0)), pbar=10.0))
    gens = [Generator(bus=1, pmin=0.0, pmax=5.0)]
    return Network(buses, gens, lines)


def laplacian(net):
    """The full weighted Laplacian, from the densified incidence."""
    A = net.incidence.toarray()
    return (A * net.beta) @ A.T


def test_two_bus_laplacian_entries():
    net = two_bus()
    assert np.allclose(laplacian(net), [[1.0, -1.0], [-1.0, 1.0]])


def test_two_bus_reduced_inverse_application():
    net = two_bus()
    theta = net.laplacian_op.solve(np.array([0.5, -0.5]))
    assert np.allclose(theta, [0.5, 0.0])


def test_laplacian_row_sums_zero():
    rng = np.random.default_rng(7)
    for n in (3, 8, 20):
        net = random_connected(rng, n)
        assert np.allclose(laplacian(net).sum(axis=1), 0.0, atol=1e-12)


def test_triangle_reduced_inverse_matches_hand_computation():
    net = triangle()
    # slack is bus 3, so the reduced system keeps buses 1 and 2
    bred = net.laplacian_op.reduced_inverse()
    expect = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
    assert np.allclose(bred[:2, :2], expect, atol=1e-12)
    assert np.allclose(bred[2, :], 0.0)
    assert np.allclose(bred[:, 2], 0.0)


def test_incidence_one_plus_one_minus_per_column():
    net = triangle()
    A = net.incidence.toarray()
    assert A.shape == (3, 3)
    assert np.all(A.sum(axis=0) == 0)
    assert np.all(np.abs(A).sum(axis=0) == 2)


def test_balanced_solve_reproduces_injections():
    rng = np.random.default_rng(42)
    for n in (4, 17, 50):
        net = random_connected(rng, n)
        q = rng.normal(size=n)
        q -= q.mean()
        theta = net.laplacian_op.solve(q)
        assert abs(theta[net.slack_index]) == 0.0
        assert np.allclose(laplacian(net) @ theta, q, atol=1e-10)


def test_reduced_inverse_symmetric():
    rng = np.random.default_rng(3)
    net = random_connected(rng, 12)
    bred = net.laplacian_op.reduced_inverse()
    assert np.allclose(bred, bred.T, atol=1e-12)


def test_laplacian_matches_dense_product_for_any_weights():
    # negative weights too: the nonlinear instanton weighs by beta cos(gap)
    rng = np.random.default_rng(21)
    for n in (2, 9, 30):
        net = random_connected(rng, n)
        A = net.incidence.toarray()[net.non_slack_index]
        for w in (rng.uniform(0.1, 3.0, net.n_line), rng.normal(size=net.n_line)):
            got = net.laplacian(w)
            assert got.shape == (n - 1, n - 1)
            assert np.allclose(got.toarray(), (A * w) @ A.T, rtol=0, atol=1e-12)


def test_outflow_is_incidence_times_flow():
    rng = np.random.default_rng(22)
    net = random_connected(rng, 25)
    flow = rng.normal(size=net.n_line)
    assert np.allclose(net.outflow(flow), net.incidence @ flow, rtol=0, atol=1e-12)


def triplet_reduced(net):
    """The grounded Laplacian as LaplacianOperator assembled it from the lines
    before Network.laplacian existed: the reference for its bits."""
    n = net.n_bus
    pos = np.full(n, -1)
    pos[net.non_slack_index] = np.arange(n - 1)
    f, t = pos[net.from_index], pos[net.to_index]
    rows, cols = np.concatenate([f, t, f, t]), np.concatenate([f, t, t, f])
    vals = np.concatenate([net.beta, net.beta, -net.beta, -net.beta])
    grounded = (rows >= 0) & (cols >= 0)
    return scipy.sparse.csc_array(
        (vals[grounded], (rows[grounded], cols[grounded])), shape=(n - 1, n - 1)
    )


@pytest.mark.parametrize("path", ["cases/case9_wind.json", "tests/data/mesh100.json"],
                         ids=["case9", "mesh100"])
def test_laplacian_op_reduced_keeps_its_bits(path):
    net = parse_case(ROOT / path)[0]
    got, want = net.laplacian_op.reduced, triplet_reduced(net)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def shared_and_slack_generators():
    # a generator on the slack bus and two generators on bus 2
    return Network(
        buses=[Bus(1, demand=0.4), Bus(2, wind_mean=0.1, wind_sigma=0.05),
               Bus(3, demand=0.3, wind_sigma=0.02), Bus(4, demand=0.2)],
        generators=[Generator(bus=4, pmin=0.0, pmax=1.0),
                    Generator(bus=2, pmin=0.0, pmax=1.0),
                    Generator(bus=2, pmin=0.0, pmax=0.5)],
        lines=[Line(1, 2, beta=2.0, pbar=1.0), Line(2, 3, beta=1.5, pbar=1.0),
               Line(3, 4, beta=3.0, pbar=1.0), Line(4, 1, beta=0.5, pbar=1.0),
               Line(1, 3, beta=1.0, pbar=1.0)],
        slack_bus=4,
    )


def single_bus():
    return Network(
        buses=[Bus(1, demand=0.5, wind_sigma=0.1)],
        generators=[Generator(bus=1, pmin=0.0, pmax=1.0)],
        lines=[],
    )


@pytest.mark.parametrize("make", [
    lambda: parse_case(ROOT / "cases" / "case9_wind.json")[0],
    lambda: parse_case(ROOT / "cases" / "alternation.json")[0],
    lambda: parse_case(ROOT / "tests" / "data" / "mesh100.json")[0],
    shared_and_slack_generators,
    single_bus,
], ids=["case9", "alternation", "mesh100", "shared-and-slack-generators", "single-bus"])
def test_gap_sensitivity_matches_dense_reduced_inverse(make):
    net = make()
    bred = net.laplacian_op.reduced_inverse()
    rows = bred[net.from_index] - bred[net.to_index]
    sens = net.gap_sensitivity
    want = {"gen": rows[:, net.gen_bus_index], "wind": rows[:, net.wind_index],
            "offset": rows @ (net.wind_mean - net.demand)}
    for name, expect in want.items():
        got = getattr(sens, name)
        assert got.shape == expect.shape, name
        scale = np.max(np.abs(expect), initial=1.0)
        assert np.max(np.abs(got - expect), initial=0.0) <= 1e-12 * scale, name
    assert sens.gen.shape == (net.n_line, net.n_gen)


def test_gap_sensitivity_forms_no_dense_bus_matrix():
    # one 3000 x 3000 float matrix takes 69 MB; the sparse build must stay
    # well under that, so no n x n (or m x n) matrix can appear
    rng = np.random.default_rng(5)
    n = 3000
    buses = [Bus(i, demand=float(rng.uniform(0.0, 0.5)),
                 wind_sigma=0.05 if i % 60 == 0 else 0.0) for i in range(1, n + 1)]
    lines = [Line(i, i % n + 1, beta=float(rng.uniform(5.0, 20.0)), pbar=5.0)
             for i in range(1, n + 1)]
    for a, b in rng.choice(n, size=(n // 2, 2)) + 1:
        if a != b:
            lines.append(Line(int(a), int(b), beta=float(rng.uniform(5.0, 20.0)), pbar=5.0))
    gens = [Generator(bus=int(b), pmin=0.0, pmax=20.0)
            for b in rng.choice(n, size=80, replace=False) + 1]
    tracemalloc.start()
    try:
        net = Network(buses, gens, lines)
        sens = net.gap_sensitivity
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sens.gen.shape == (net.n_line, 80) and sens.wind.shape == (net.n_line, 50)
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MB"


def test_disconnected_graph_rejected():
    with pytest.raises(DisconnectedGraphError):
        Network(
            buses=[Bus(1), Bus(2), Bus(3)],
            generators=[Generator(bus=1, pmin=0.0, pmax=1.0)],
            lines=[Line(1, 2, beta=1.0, pbar=1.0)],
        )


def test_nonpositive_susceptance_rejected():
    with pytest.raises(NonPositiveSusceptanceError):
        Line(1, 2, beta=0.0, pbar=1.0)
    with pytest.raises(NonPositiveSusceptanceError):
        Line(1, 2, beta=-2.0, pbar=1.0)


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        Line(1, 1, beta=1.0, pbar=1.0)


def test_generator_bounds_validated():
    with pytest.raises(ValidationError):
        Generator(bus=1, pmin=2.0, pmax=1.0)


def test_default_slack_is_highest_bus():
    net = Network(
        buses=[Bus(5), Bus(2)],
        generators=[Generator(bus=2, pmin=0.0, pmax=1.0)],
        lines=[Line(2, 5, beta=1.0, pbar=1.0)],
    )
    assert net.slack_bus == 5


def test_injection_vector_zero_wind():
    net = triangle()
    disp = Dispatch(p=np.array([1.0]), alpha=np.array([1.0]))
    q = injection_vector(net, disp)
    assert np.allclose(q, [1.0, 0.0, -1.0])


def test_injection_vector_affine_response():
    # p=(1,0) at buses 1,2; d=(0,0.8); alpha=(1,0); w=(0.1,0)
    net = Network(
        buses=[Bus(1), Bus(2, demand=0.8)],
        generators=[
            Generator(bus=1, pmin=0.0, pmax=2.0),
            Generator(bus=2, pmin=0.0, pmax=2.0),
        ],
        lines=[Line(1, 2, beta=1.0, pbar=5.0)],
    )
    disp = Dispatch(p=np.array([1.0, 0.0]), alpha=np.array([1.0, 0.0]))
    q = injection_vector(net, disp, wind=np.array([0.1, 0.0]))
    assert np.allclose(q, [1.0, -0.8])


def test_injection_vector_sum_invariant_under_wind():
    rng = np.random.default_rng(11)
    net = triangle()
    disp = Dispatch(p=np.array([1.0]), alpha=np.array([1.0]))
    for _ in range(20):
        w = rng.normal(size=3)
        q = injection_vector(net, disp, wind=w)
        assert abs(q.sum() - (1.0 - 1.0)) < 1e-12


def test_injection_vector_slope_in_wind():
    # finite-difference slope wrt w_j is (indicator_j - M alpha) exactly
    net = triangle()
    disp = Dispatch(p=np.array([1.0]), alpha=np.array([1.0]))
    base = injection_vector(net, disp, wind=np.zeros(3))
    for j in range(3):
        w = np.zeros(3)
        w[j] = 1.0
        slope = injection_vector(net, disp, wind=w) - base
        expect = np.zeros(3)
        expect[j] += 1.0
        expect -= np.bincount(net.gen_bus_index, disp.alpha, net.n_bus)
        assert np.allclose(slope, expect, atol=1e-12)


def test_injection_vector_dimension_mismatch():
    net = triangle()
    disp = Dispatch(p=np.array([1.0, 2.0]), alpha=np.array([0.5, 0.5]))
    with pytest.raises(DimensionMismatchError):
        injection_vector(net, disp)


def test_unknown_bus_reference_rejected():
    with pytest.raises(ValidationError):
        Network(
            buses=[Bus(1), Bus(2)],
            generators=[Generator(bus=9, pmin=0.0, pmax=1.0)],
            lines=[Line(1, 2, beta=1.0, pbar=1.0)],
        )
