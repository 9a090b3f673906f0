"""Tests for the chance-constrained OPF: the Gaussian tail multiplier,
conic constraint algebra, analytic violation probabilities, the screen
of lines that can never bind, and the cutting-plane solve (termination,
certificates, degenerate limits)."""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

import syncopf.cc_opf as cc_mod
from syncopf import (
    Bus,
    ChanceSpec,
    DomainError,
    GapSensitivity,
    Generator,
    InfeasibleError,
    IterLimitError,
    Line,
    Network,
    ValidationError,
    build_conic_constraints,
    eta,
    parse_case,
    solve_cc_opf,
    solve_scopf,
)
from syncopf.cc_opf import (
    _bindable_lines,
    _CutRows,
    _tangents,
    analytic_violation_prob,
    expected_cost,
    generator_violation_prob,
)
from syncopf.case_io import parse_case_dict
from syncopf.network import Dispatch
from syncopf.qp import solve_qp


def two_bus_wind(sigma=0.1, pbar=1.6, mu=0.2, d=1.0):
    return Network(
        buses=[Bus(1), Bus(2, demand=d, wind_mean=mu, wind_sigma=sigma)],
        generators=[Generator(bus=1, pmin=0.0, pmax=2.0, c1=1.0, c2=0.0)],
        lines=[Line(1, 2, beta=2.0, pbar=pbar)],
    )


def two_bus_two_gen(pbar=0.7, sigma=0.1):
    return Network(
        buses=[Bus(1), Bus(2, demand=1.0, wind_mean=0.2, wind_sigma=sigma)],
        generators=[
            Generator(bus=1, pmin=0.0, pmax=2.0, c1=1.0, c2=0.0),
            Generator(bus=2, pmin=0.0, pmax=2.0, c1=4.0, c2=0.0),
        ],
        lines=[Line(1, 2, beta=2.0, pbar=pbar)],
    )


def triangle_wind(s2=0.15, s3=0.2, eps_l=0.25, eps_s=1e-6):
    net = Network(
        buses=[
            Bus(1),
            Bus(2, demand=1.2, wind_mean=0.15, wind_sigma=s2),
            Bus(3, demand=1.0, wind_mean=0.15, wind_sigma=s3),
        ],
        generators=[
            Generator(bus=1, pmin=0.0, pmax=2.8, c1=0.5, c2=0.1),
            Generator(bus=2, pmin=0.0, pmax=2.8, c1=0.8, c2=0.4),
        ],
        lines=[
            Line(1, 2, beta=1.0, pbar=0.9),
            Line(1, 3, beta=1.0, pbar=0.5),
            Line(2, 3, beta=1.0, pbar=0.95),
        ],
    )
    return net, ChanceSpec.uniform(net, eps_line=eps_l, eps_sync=eps_s, eps_gen=0.1)


# --- eta ---------------------------------------------------------------------

def test_eta_half_is_zero():
    assert eta(0.5) == 0.0


def test_eta_matches_symmetric_quantile():
    # -ndtri(x) avoids the 1 - x argument cancellation of ndtri(1 - x)
    for x in (0.3, 0.05, 1 / 60, 1e-4, 1e-9, 1e-12):
        want = float(-ndtri(x))
        assert abs(eta(x) - want) <= 1e-12 * max(1.0, want)


def test_eta_against_tail_quadrature():
    z = eta(0.02275)
    tail, err = quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2 * math.pi), z, 12.0)
    assert err < 1e-9
    assert abs(tail - 0.02275) <= 1e-9
    assert abs(z - 2.0) <= 1e-3


def test_eta_sqrt_log_limit():
    xs = [1e-4, 1e-6, 1e-8, 1e-12]
    ratios = [eta(x) / math.sqrt(2.0 * math.log(1.0 / x)) for x in xs]
    assert all(0.0 < r < 1.0 for r in ratios)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_eta_domain():
    for bad in (0.0, -0.1, 0.50001, 1.0):
        with pytest.raises(DomainError):
            eta(bad)


# --- conic constraint algebra ------------------------------------------------

def test_conic_lhs_two_bus_closed_form():
    net = two_bus_wind(sigma=0.1)
    table = build_conic_constraints(net, ChanceSpec.uniform(net))
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    # rowdiff = (1/beta, 0); wind sensitivity 0, response d = 1/2
    assert table.spread(disp)[0] == pytest.approx(0.05, abs=1e-12)
    assert table.mean(disp)[0] == pytest.approx(0.4, abs=1e-12)


def test_conic_lhs_matches_mc_std():
    net, chance = triangle_wind()
    table = build_conic_constraints(net, chance)
    disp = Dispatch(p=np.array([1.2, 0.85]), alpha=np.array([0.6, 0.4]))
    rng = np.random.default_rng(5)
    w = rng.normal(size=(200_000, 2)) * net.wind_sigma[net.wind_index]
    mean, spread = table.mean(disp), table.spread(disp)
    for k in range(net.n_line):
        gaps = mean[k] + w @ (net.gap_sensitivity.wind[k] - table.gen[k] @ disp.alpha)
        s_hat = gaps.std()
        assert s_hat == pytest.approx(spread[k], rel=0.02)


def _no_wind():
    net = Network(
        buses=[Bus(1), Bus(2, demand=0.6), Bus(3, demand=0.4)],
        generators=[Generator(bus=1, pmin=0.0, pmax=2.0, c1=1.0),
                    Generator(bus=3, pmin=0.0, pmax=2.0, c1=2.0)],
        lines=[Line(1, 2, beta=2.0, pbar=0.7), Line(2, 3, beta=1.0, pbar=0.7),
               Line(1, 3, beta=1.5, pbar=0.7)],
    )
    return net, ChanceSpec.uniform(net)


def _twin_wind():
    # all flow from wind buses 3 and 4 returns to the slack over line 0,
    # so both have the same sensitivity there and line 0's r is 0
    net = Network(
        buses=[Bus(1), Bus(2, demand=1.0), Bus(3, wind_mean=0.1, wind_sigma=0.1),
               Bus(4, wind_mean=0.1, wind_sigma=0.3)],
        generators=[Generator(bus=1, pmin=0.0, pmax=2.0, c1=1.0),
                    Generator(bus=3, pmin=0.0, pmax=2.0, c1=2.0)],
        lines=[Line(1, 2, beta=2.0, pbar=0.9), Line(2, 3, beta=1.0, pbar=0.9),
               Line(2, 4, beta=1.5, pbar=0.9), Line(3, 4, beta=3.0, pbar=0.9)],
        slack_bus=1,
    )
    return net, ChanceSpec.uniform(net)


# each grid with the lines whose S vanishes at its centre d_bar (on case9
# the generator leads, which carry no wind flow)
_GRIDS = {
    "case9": (lambda: parse_case("cases/case9_wind.json"), [0, 3, 6]),
    "alternation": (lambda: parse_case("cases/alternation.json"), []),
    "mesh100": (lambda: parse_case("tests/data/mesh100.json"), []),
    "one-wind-bus": (lambda: (two_bus_two_gen(), ChanceSpec.uniform(two_bus_two_gen())), [0]),
    "twin-wind": (_twin_wind, [0]),
    "no-wind": (_no_wind, [0, 1, 2]),
}


@pytest.mark.parametrize("load, vanishing", _GRIDS.values(), ids=_GRIDS.keys())
def test_closed_form_spread_matches_definition(load, vanishing):
    # S in line coordinates, and its tangents' slopes, against the norm
    # ||sigma * (W_l - d)|| that defines S, at random response levels d
    net, chance = load()
    sens, table = net.gap_sensitivity, build_conic_constraints(net, chance)
    lines = np.arange(net.n_line)
    rng = np.random.default_rng(8)

    def definition(d):
        return np.linalg.norm(sens.sigma * (sens.wind - d[:, None]), axis=1)

    scale = np.sqrt(table.c) * (1.0 + np.abs(sens.wind).max(initial=0.0, axis=1))
    for alpha in rng.dirichlet(np.ones(net.n_gen), size=10):
        disp = Dispatch(p=np.zeros(net.n_gen), alpha=alpha)
        d = sens.gen @ alpha
        want = definition(d)
        assert np.all(np.abs(sens.spread(disp) - want) <= 1e-14 * scale)
        assert np.array_equal(table.spread(disp), sens.spread(disp))

        cuts = _tangents(table, lines, d, 1)
        assert np.array_equal(cuts["line"], np.flatnonzero(table.spread_at(d) > 1e-14))
        k = cuts["line"]
        assert np.all(np.abs(cuts["s_hat"] - want[k]) <= 1e-14 * scale[k])
        slope = sens.sigma @ (sens.sigma * (d[k, None] - sens.wind[k])).T / want[k]
        assert np.allclose(cuts["grad"], slope, rtol=1e-12, atol=1e-14 * table.c)
        # steps on the scale S / sqrt(c) over which the slope turns
        h = np.zeros(net.n_line)
        h[k] = 1e-5 * want[k] / np.sqrt(table.c)
        central = (definition(d + h) - definition(d - h))[k] / (2.0 * h[k])
        assert np.allclose(cuts["grad"], central, rtol=1e-7, atol=1e-9 * np.sqrt(table.c))

    # at its centre a line's S is smallest, r_l; where that vanishes the
    # line gets no tangent, and with no wind it never gets one
    want = definition(table.d_bar)
    assert np.all(np.abs(table.spread_at(table.d_bar) - want) <= 1e-14 * scale)
    assert np.all(want[vanishing] <= 1e-14)
    others = np.setdiff1d(lines, vanishing)
    assert np.array_equal(_tangents(table, lines, table.d_bar, 0)["line"], others)
    far = _tangents(table, lines, table.d_bar + 1.0, 0)["line"]
    assert np.array_equal(far, lines if sens.sigma.size else [])


def test_violation_prob_zero_mean():
    sens = GapSensitivity(
        gen=np.zeros((1, 1)), wind=np.array([[0.5]]), offset=np.zeros(1),
        sigma=np.array([1.0]),
    )
    disp = Dispatch(p=np.array([0.0]), alpha=np.array([0.0]))
    prob = analytic_violation_prob(sens.mean(disp), sens.spread(disp), 1.0)
    # S = 0.5 = bound / 2, mean 0: two-sided prob is 2 Q(2)
    assert prob[0] == pytest.approx(0.04550026, abs=1e-7)


def test_violation_prob_deterministic_limits():
    sens = GapSensitivity(
        gen=np.zeros((1, 1)), wind=np.array([[0.0]]), offset=np.array([1.5]),
        sigma=np.array([0.0]),
    )
    disp = Dispatch(p=np.array([0.0]), alpha=np.array([1.0]))
    mean, spread = sens.mean(disp), sens.spread(disp)
    assert analytic_violation_prob(mean, spread, 1.0)[0] == 1.0
    assert analytic_violation_prob(mean, spread, 2.0)[0] == 0.0


def test_generator_violation_prob_gaussian():
    # p = 1, alpha = 0.5, sigma_tot = 0.4 -> sd = 0.2; box [0, 1.2]
    want = 0.5 * math.erfc((1.2 - 1.0) / 0.2 / math.sqrt(2)) + 0.5 * math.erfc(
        (1.0 - 0.0) / 0.2 / math.sqrt(2)
    )
    assert generator_violation_prob(1.0, 0.5, 0.0, 1.2, 0.4) == pytest.approx(
        want, abs=1e-14
    )
    assert generator_violation_prob(1.0, 0.0, 0.0, 1.2, 0.4) == 0.0
    assert generator_violation_prob(1.5, 0.0, 0.0, 1.2, 0.4) == 1.0


def _assemble_reference(table, lines, cuts):
    # the per-cut loop that the array code replaced, kept as the reference
    g = table.gen.shape[1]
    dmat, cap = table.gen[lines], np.minimum(table.bound, 1.0)[lines]
    zero = np.zeros((lines.size, g))
    rows_a = [np.hstack([dmat, zero]), np.hstack([-dmat, zero])]
    rows_b = [cap - table.offset[lines], cap + table.offset[lines]]
    for cut in cuts:
        k = cut["line"]
        d, off = table.gen[k], table.offset[k]
        intercept = cut["s_hat"] - cut["grad"] * cut["d_hat"]
        if abs(table.eta_t[k] - table.eta_s[k]) < 1e-15:
            kinds = [(table.eta_t[k], min(table.bound[k], 1.0))]
        else:
            kinds = [(table.eta_t[k], table.bound[k]), (table.eta_s[k], 1.0)]
        for eta_k, bound in kinds:
            if eta_k > 0.0:
                coeff = eta_k * cut["grad"] * d
                rhs = bound - eta_k * intercept
                rows_a.append(np.vstack([np.hstack([d, coeff]), np.hstack([-d, coeff])]))
                rows_b.append(np.array([rhs - off, rhs + off]))
    return np.vstack(rows_a), np.concatenate(rows_b)


def test_assembled_rows_match_per_cut_loop():
    net, _ = triangle_wind()
    # line 0: two row pairs per cut; line 1: equal budgets share one pair;
    # line 2: eta_t = 0 leaves only the sync pair
    chance = ChanceSpec(eps_line=[0.05, 0.05, 0.5], eps_sync=[1e-4, 0.05, 1e-4],
                        eps_gen=[0.1, 0.1])
    table = build_conic_constraints(net, chance)
    lines = np.arange(net.n_line)
    cuts = np.concatenate([_tangents(table, lines, np.zeros(net.n_line), 0),
                           _tangents(table, lines[::-1], np.array([0.3, -0.2, 0.1]), 1)])
    # base rows of every line, of two, and of none, as when all are screened
    for base in (lines, np.array([0, 2]), np.array([], dtype=int)):
        rows = _CutRows(table, base)
        for batch in (cuts[:2], cuts[2:5], cuts[:0], cuts[5:]):  # grows its buffer
            rows.add(batch)
        a_in, b_in = rows.view()
        a_ref, b_ref = _assemble_reference(table, base, cuts)
        assert np.array_equal(a_in, a_ref) and np.array_equal(b_in, b_ref)
        assert a_in.shape[0] == 2 * base.size + 2 * (2 + 1 + 1) * 2


# --- cutting-plane solve -----------------------------------------------------

def test_cc_unbinding_terminates_first_iteration():
    net = two_bus_wind()
    sol = solve_cc_opf(net, ChanceSpec.uniform(net))
    assert sol.status == "optimal"
    assert sol.iterations == 1
    assert sol.iteration_log == []
    assert sol.dispatch.p[0] == pytest.approx(0.8, abs=1e-8)
    assert sol.dispatch.alpha[0] == pytest.approx(1.0, abs=1e-12)
    # the screen drops the only line, yet the report still covers it
    assert sol.cuts.size == 0
    assert sol.violations.shape == (2,) and np.all(sol.violations < 0.0)


def test_cc_balance_and_participation_invariants():
    net, chance = triangle_wind()
    sol = solve_cc_opf(net, chance)
    assert np.sum(sol.dispatch.p) == pytest.approx(
        np.sum(net.demand - net.wind_mean), abs=1e-8
    )
    assert np.sum(sol.dispatch.alpha) == pytest.approx(1.0, abs=1e-10)
    assert np.all(sol.dispatch.alpha >= -1e-10)
    assert np.all(sol.dispatch.p >= -1e-10)


def test_cc_final_violations_within_tol():
    net, chance = triangle_wind()
    sol = solve_cc_opf(net, chance)
    assert sol.violations.max() <= 1e-7


def test_cc_objective_trace_nondecreasing():
    net, chance = triangle_wind()
    sol = solve_cc_opf(net, chance)
    trace = sol.objective_trace
    assert len(trace) == sol.iterations
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_cc_objective_matches_expected_cost():
    net, chance = triangle_wind()
    sol = solve_cc_opf(net, chance)
    sigma_sq = float(np.sum(net.wind_sigma**2))
    assert sol.objective == pytest.approx(
        expected_cost(net, sol.dispatch, sigma_sq), abs=1e-8
    )


def test_cc_binding_prob_equals_eps_one_sided():
    net = two_bus_two_gen(pbar=0.7)
    chance = ChanceSpec.uniform(net, eps_line=0.05, eps_sync=0.0005, eps_gen=0.05)
    sol = solve_cc_opf(net, chance)
    assert sol.binding_thermal[0]
    table = sol.table
    mean, spread = table.mean(sol.dispatch)[0], table.spread(sol.dispatch)[0]
    upper = ndtr((mean - table.bound[0]) / spread)
    lower = ndtr(-(table.bound[0] + mean) / spread)
    assert max(upper, lower) == pytest.approx(0.05, abs=1e-7)


def test_cc_iteration_log_contains_both_kinds():
    net, chance = triangle_wind()
    sol = solve_cc_opf(net, chance)
    kinds = {rec.kind for rec in sol.iteration_log}
    assert kinds == {"thermal", "sync"}
    numbers = [rec.iteration for rec in sol.iteration_log]
    assert numbers == sorted(numbers)


def test_cc_cuts_underestimate_s_everywhere():
    net, chance = triangle_wind()
    sol = solve_cc_opf(net, chance)
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = rng.dirichlet(np.ones(net.n_gen))
        spread = sol.table.spread(Dispatch(p=sol.dispatch.p, alpha=a))
        cuts = sol.cuts
        d = sol.table.gen[cuts["line"]] @ a
        value = cuts["s_hat"] + cuts["grad"] * (d - cuts["d_hat"])
        assert np.all(value <= spread[cuts["line"]] + 1e-9)


def test_cc_add_all_variant_same_optimum():
    net, chance = triangle_wind()
    a = solve_cc_opf(net, chance)
    b = solve_cc_opf(net, chance, add_all_violated=True)
    assert b.objective == pytest.approx(a.objective, abs=1e-6)
    assert b.iterations <= a.iterations


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cc_zero_wind_matches_scopf():
    net = Network(
        buses=[Bus(1), Bus(2, demand=1.0)],
        generators=[
            Generator(bus=1, pmin=0.0, pmax=2.0, c1=1.0, c2=0.0),
            Generator(bus=2, pmin=0.0, pmax=2.0, c1=4.0, c2=0.0),
        ],
        lines=[Line(1, 2, beta=2.0, pbar=0.7)],
    )
    chance = ChanceSpec.uniform(net)
    sol = solve_cc_opf(net, chance)
    assert sol.iterations == 1  # no cuts needed when S is identically zero
    ref = solve_scopf(net)
    assert np.allclose(sol.dispatch.p, ref.dispatch.p, atol=1e-6)
    ref0 = solve_scopf(net, margin=0.0)
    assert np.allclose(sol.dispatch.p, ref0.dispatch.p, atol=1e-7)


def test_cc_tightened_generation_bounds_hold():
    net, chance = triangle_wind()
    sol = solve_cc_opf(net, chance)
    sigma_tot = math.sqrt(float(np.sum(net.wind_sigma**2)))
    for i in range(net.n_gen):
        margin = eta(chance.eps_gen[i]) * sigma_tot
        assert sol.dispatch.p[i] >= net.pmin[i] + margin - 1e-8
        assert sol.dispatch.p[i] <= net.pmax[i] - margin + 1e-8


def test_cc_infeasible_tightening():
    net = two_bus_wind(sigma=0.5)
    chance = ChanceSpec.uniform(net, eps_gen=1e-6)
    # eta(1e-6) * 0.5 ~ 2.38 exceeds the whole [0, 2] range
    with pytest.raises(InfeasibleError):
        solve_cc_opf(net, chance)


def test_cc_iteration_limit():
    net, chance = triangle_wind()
    with pytest.raises(IterLimitError) as exc:
        solve_cc_opf(net, chance, max_iter=2)
    assert exc.value.iterations == 2


def test_cc_binding_flags_match_violations():
    net, chance = triangle_wind()
    sol = solve_cc_opf(net, chance)
    for k in range(net.n_line):
        assert sol.binding_thermal[k] == (sol.violations[2 * k] >= -1e-6)
        assert sol.binding_sync[k] == (sol.violations[2 * k + 1] >= -1e-6)


def test_cc_chance_dimension_mismatch():
    net, _ = triangle_wind()
    other = two_bus_wind()
    with pytest.raises(ValidationError):
        solve_cc_opf(net, ChanceSpec.uniform(other))


def _mesh100_tight_caps():
    # at its own caps no line of mesh100 needs a cut; at 0.6 of them the
    # loop takes 22 one-cut iterations, 8 cutting every violated line
    doc = json.loads((Path(__file__).parent / "data" / "mesh100.json").read_text())
    for line in doc["lines"]:
        line["pbar"] *= 0.6
    return parse_case_dict(doc)


@pytest.mark.parametrize("add_all", [False, True], ids=["one-cut", "all-violated"])
@pytest.mark.parametrize("load", [
    lambda: parse_case("cases/case9_wind.json"),
    lambda: parse_case("cases/alternation.json"),
    _mesh100_tight_caps,
], ids=["case9", "alternation", "mesh100"])
def test_warm_cut_iterations_equal_cold_solves(load, add_all, monkeypatch):
    # every QP of the loop resumes from the previous cut's optimum; a cold
    # solve of the same assembled QP gives the same bits
    net, chance = load()
    seen = []

    def spy(qp, warm=None):
        sol = solve_qp(qp, warm=warm)
        cold = solve_qp(qp)
        for name in ("x", "duals_eq", "duals_in", "duals_lo", "duals_hi"):
            assert np.array_equal(getattr(sol, name), getattr(cold, name)), (len(seen), name)
        seen.append((warm is not None, qp.A_in.shape[0]))
        return sol

    monkeypatch.setattr(cc_mod, "solve_qp", spy)
    res = solve_cc_opf(net, chance, add_all_violated=add_all)
    assert len(seen) == res.iterations > 1
    assert [w for w, _ in seen] == [False] + [True] * (res.iterations - 1)
    assert all(a < b for (_, a), (_, b) in zip(seen, seen[1:]))


# --- the screen of lines that can never bind ---------------------------------

def _generation_box(net, chance):
    # the set every QP optimum of the loop lies in: the tightened box,
    # with sum(p) = total (alpha lies in the simplex)
    margin = -ndtri(chance.eps_gen) * math.sqrt(float(np.sum(net.wind_sigma**2)))
    lo_p = np.maximum(net.pmin + margin, 0.0)
    return lo_p, net.pmax - margin, float(np.sum(net.demand - net.wind_mean))


def _knapsack_vertex(lo_p, hi_p, total, order):
    # fill total - sum(lo_p) above lo_p, generator by generator in order
    p, left = lo_p.copy(), total - lo_p.sum()
    for j in order:
        take = min(hi_p[j] - lo_p[j], max(left, 0.0))
        p[j] += take
        left -= take
    return p


def _feasible_draws(table, lo_p, hi_p, total, rng, n_mixed=10_000):
    """(P, A): rows are feasible (p, alpha) pairs.

    Every knapsack extreme point of every line (the greedy fills in the
    order of D_l, from either end) and 40 random-order fills, each paired
    with every simplex vertex; then n_mixed random mixtures of those
    points paired with random interior alphas."""
    g = lo_p.size
    orders = np.argsort(table.gen, axis=1)
    orders = list(orders) + [o[::-1] for o in orders] + [rng.permutation(g) for _ in range(40)]
    verts = np.array([_knapsack_vertex(lo_p, hi_p, total, o) for o in orders])
    mixed = rng.dirichlet(np.full(len(verts), 0.2), size=n_mixed) @ verts
    P = np.vstack([np.repeat(verts, g, axis=0), mixed])
    A = np.vstack([np.tile(np.eye(g), (len(verts), 1)), rng.dirichlet(np.full(g, 0.5), size=n_mixed)])
    return P, A


def _conic_slacks(table, sens, P, A):
    # (thermal, sync) slacks, draws x lines, straight from the definitions
    mean = np.abs(P @ table.gen.T + table.offset)
    d = A @ table.gen.T
    spread = np.column_stack([
        np.linalg.norm(sens.sigma * (sens.wind[l] - d[:, l : l + 1]), axis=1)
        for l in range(table.offset.size)
    ])
    return mean + table.eta_t * spread - table.bound, mean + table.eta_s * spread - 1.0


@pytest.mark.parametrize("case, golden, n_kept", [
    ("cases/case9_wind.json", "ccopf_case9_wind.json", 1),
    ("cases/alternation.json", "ccopf_alternation.json", 3),
    ("tests/data/mesh100.json", "ccopf_mesh100.json", 6),
], ids=["case9", "alternation", "mesh100"])
def test_screened_lines_never_bind(case, golden, n_kept):
    net, chance = parse_case(case)
    table = build_conic_constraints(net, chance)
    lo_p, hi_p, total = _generation_box(net, chance)
    kept = _bindable_lines(table, lo_p, hi_p, total)
    assert kept.size == n_kept and np.all(np.diff(kept) > 0)
    screened = np.setdiff1d(np.arange(net.n_line), kept)

    P, A = _feasible_draws(table, lo_p, hi_p, total, np.random.default_rng(11))
    assert P.shape[0] >= 10_000
    assert np.all(P >= lo_p - 1e-12) and np.all(P <= hi_p + 1e-12)
    assert np.allclose(P.sum(axis=1), total, atol=1e-9, rtol=0)
    assert np.all(A >= 0.0) and np.allclose(A.sum(axis=1), 1.0, atol=1e-12, rtol=0)
    thermal, sync = _conic_slacks(table, net.gap_sensitivity, P, A)
    assert thermal[:, screened].max(initial=-np.inf) <= 0.0
    assert sync[:, screened].max(initial=-np.inf) <= 0.0

    doc = json.loads((Path(__file__).parent / "data" / golden).read_text())
    binding = [ln["line"] for ln in doc["lines"] if ln["binding_thermal"] or ln["binding_sync"]]
    assert set(binding) <= set(kept.tolist())


@pytest.mark.parametrize("add_all", [False, True], ids=["one-cut", "all-violated"])
@pytest.mark.parametrize("load", [
    lambda: parse_case("cases/case9_wind.json"),
    lambda: parse_case("cases/alternation.json"),
    _mesh100_tight_caps,
], ids=["case9", "alternation", "mesh100"])
def test_screen_keeps_the_solve_and_its_reports(load, add_all, monkeypatch):
    # against the loop over every line: the same iterates, log and per-line
    # reports; only the screened lines' initial tangents are gone
    net, chance = load()
    sol = solve_cc_opf(net, chance, add_all_violated=add_all)
    monkeypatch.setattr(cc_mod, "_bindable_lines", lambda table, *box: np.arange(net.n_line))
    ref = solve_cc_opf(net, chance, add_all_violated=add_all)
    assert sol.iterations == ref.iterations and sol.objective_trace == ref.objective_trace
    assert sol.iteration_log == ref.iteration_log
    assert sol.violated_counts == ref.violated_counts
    for name in ("violations", "binding_thermal", "binding_sync", "mean_flow"):
        assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
    assert sol.violations.size == 2 * net.n_line and sol.mean_flow.size == net.n_line
    assert np.array_equal(sol.dispatch.p, ref.dispatch.p)
    assert np.array_equal(sol.dispatch.alpha, ref.dispatch.alpha)
    first = sol.cuts["line"][sol.cuts["iteration"] == 0]
    keep = (ref.cuts["iteration"] > 0) | np.isin(ref.cuts["line"], first)
    assert np.array_equal(sol.cuts, ref.cuts[keep])

