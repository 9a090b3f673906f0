"""Acceptance gate.

Nine criteria, one test each, covering angle recovery, tree exactness,
the barrier suboptimality and dual-residual guarantees, the Gaussian
quantile function, the equivalence of the conic constraints with the
large-deviation energy, Monte Carlo certification of the 9-bus case,
cutting-plane behavior, a 1000-bus scalability target, and bit-level
determinism of every report format. Each test prints a single
"criterion N: PASS" line on success; a failed assertion is the FAIL
line. Tolerances appear inline next to each assertion.
"""
import json
import math
import time

import numpy as np
from scipy.integrate import quad

from syncopf import (
    Bus,
    Generator,
    Line,
    Network,
    energy_function_solve,
    injection_vector,
    parse_case,
    read_report,
    solve_cc_opf,
    solve_pf,
)
from syncopf.case_io import ChanceSpec, serialize_case
from syncopf.cc_opf import eta
from syncopf.cli import main
from syncopf.det_opf import barrier_config_from_dc, solve_barrier_opf, solve_scopf
from syncopf.ld_risk import e_dc_closed_form
from syncopf.mc import Z99
from syncopf.network import Dispatch


# --- instance generators -----------------------------------------------------

def random_connected(rng, n_lo, n_hi, beta_lo=0.5, beta_hi=2.0, chords=True):
    """Random connected graph: a random spanning tree plus optional chords."""
    n = int(rng.integers(n_lo, n_hi + 1))
    pairs = [(int(rng.integers(1, i)), i) for i in range(2, n + 1)]
    seen = {frozenset(p) for p in pairs}
    if chords:
        for _ in range(int(rng.integers(0, n // 2 + 1))):
            a, b = rng.choice(n, size=2, replace=False) + 1
            key = frozenset((int(a), int(b)))
            if key not in seen:
                seen.add(key)
                pairs.append((int(min(a, b)), int(max(a, b))))
    buses = [Bus(i) for i in range(1, n + 1)]
    gens = [Generator(bus=1, pmin=0.0, pmax=1.0, c1=1.0)]
    lines = [
        Line(a, b, beta=float(bb), pbar=10.0)
        for (a, b), bb in zip(pairs, rng.uniform(beta_lo, beta_hi, len(pairs)))
    ]
    return Network(buses, gens, lines)


def synthetic_grid(n_bus=1000, n_line=1500, seed=42):
    """Ring plus random chords with dispersed generation, load, and wind."""
    rng = np.random.default_rng(seed)
    pairs = [(i, i + 1) for i in range(1, n_bus)] + [(n_bus, 1)]
    seen = {frozenset(p) for p in pairs}
    while len(pairs) < n_line:
        a, b = rng.choice(n_bus, size=2, replace=False) + 1
        key = frozenset((int(a), int(b)))
        if key not in seen:
            seen.add(key)
            pairs.append((int(a), int(b)))
    load_buses = set((rng.choice(n_bus, size=n_bus // 2, replace=False) + 1).tolist())
    wind_buses = (rng.choice(n_bus, size=50, replace=False) + 1).tolist()
    sigma = {b: float(s) for b, s in zip(wind_buses, rng.uniform(0.02, 0.06, size=50))}
    buses = []
    total = 0.0
    for i in range(1, n_bus + 1):
        d = float(rng.uniform(0.2, 0.8)) if i in load_buses else 0.0
        total += d
        s = sigma.get(i, 0.0)
        buses.append(Bus(i, demand=d, wind_mean=2.0 * s, wind_sigma=s))
    gen_buses = (rng.choice(n_bus, size=80, replace=False) + 1).tolist()
    gens = [
        Generator(bus=b, pmin=0.0, pmax=2.0 * total / 80.0,
                  c1=float(rng.uniform(0.5, 2.0)), c2=float(rng.uniform(0.0, 5.0)))
        for b in gen_buses
    ]
    beta = rng.uniform(5.0, 20.0, size=n_line)
    caps = beta * rng.uniform(0.25, 0.6, size=n_line)
    lines = [Line(a, b, beta=float(bb), pbar=float(cc))
             for (a, b), bb, cc in zip(pairs, beta, caps)]
    return Network(buses, gens, lines)


# --- criteria ----------------------------------------------------------------

def test_criterion_1_angle_recovery():
    # 200 random connected graphs, 5-50 buses, beta in [0.5, 2]; the
    # injections come from a hidden interior angle profile so they are
    # balanced and feasible by construction
    rng = np.random.default_rng(20260815)
    t0 = time.perf_counter()
    for _ in range(200):
        net = random_connected(rng, 5, 50)
        theta_star = rng.uniform(-0.35, 0.35, net.n_bus)
        gaps = theta_star[net.from_index] - theta_star[net.to_index]
        q = net.incidence @ (net.beta * np.sin(gaps))
        state = solve_pf(net, q)
        assert state.feasible and not state.boundary_hit
        gaps_hat = state.theta[net.from_index] - state.theta[net.to_index]
        assert np.max(np.abs(np.sin(gaps_hat) - state.rho)) <= 1e-8
        residual = q - net.incidence @ (net.beta * state.rho)
        assert np.max(np.abs(residual)) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 1: PASS (200 graphs, {elapsed:.1f}s)")


def test_criterion_2_tree_exactness():
    # on trees the sine flows equal the linear flows line for line
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(4, 21))
        pairs = [(int(rng.integers(1, i)), i) for i in range(2, n + 1)]
        buses = [Bus(i, demand=float(rng.uniform(0.05, 0.2))) for i in range(1, n + 1)]
        gens = [
            Generator(bus=i, pmin=0.0, pmax=1.0,
                      c1=float(rng.uniform(0.5, 2.0)), c2=float(rng.uniform(0.0, 1.0)))
            for i in range(1, n + 1)
        ]
        lines = [
            Line(a, b, beta=float(bb), pbar=float(bb * rng.uniform(0.6, 1.0)))
            for (a, b), bb in zip(pairs, rng.uniform(0.5, 2.0, len(pairs)))
        ]
        net = Network(buses, gens, lines)
        ref = solve_scopf(net)
        state = solve_pf(net, injection_vector(net, ref.dispatch))
        assert np.max(np.abs(state.flows(net) - ref.flows)) <= 1e-8
    print("criterion 2: PASS (100 trees)")


def test_criterion_3_barrier_certificates():
    # 50 strictly interior instances at epsilon = 0.01: the certified
    # barrier cost stays within 2% of the exact optimum, and the dual
    # residuals respect their per-line bound at healthy separation
    rng = np.random.default_rng(7)
    kept = 0
    while kept < 50:
        n = int(rng.integers(3, 6))
        pairs = [(int(rng.integers(1, i)), i) for i in range(2, n + 1)]
        if rng.random() < 0.5:
            a, b = sorted(rng.choice(n, size=2, replace=False) + 1)
            if (int(a), int(b)) not in pairs:
                pairs.append((int(a), int(b)))
        buses = [Bus(i, demand=float(rng.uniform(0.02, 0.08)) if i > 1 else 0.0)
                 for i in range(1, n + 1)]
        gens = [Generator(bus=1, pmin=0.0, pmax=1.5, c1=float(rng.uniform(0.5, 2.0)),
                          c2=float(rng.uniform(0.1, 1.0)))]
        if rng.random() < 0.5:
            gens.append(Generator(bus=n, pmin=0.0, pmax=1.5,
                                  c1=float(rng.uniform(0.5, 2.0)),
                                  c2=float(rng.uniform(0.1, 1.0))))
        lines = [Line(a, b, beta=float(rng.uniform(0.3, 1.0)), pbar=2.0)
                 for a, b in pairs]
        net = Network(buses, gens, lines)
        ref = solve_scopf(net)
        if not ref.sync_recovered or ref.objective <= 0:
            continue
        if solve_pf(net, injection_vector(net, ref.dispatch)).boundary_hit:
            continue
        res = solve_barrier_opf(net, barrier_config_from_dc(net, epsilon=0.01))
        if not res.slacksine_ok:
            continue
        kept += 1
        assert res.cost <= (1.0 + 2.0 * 0.01) * ref.objective + 1e-9
        if res.eps_separation >= 0.05:
            assert res.lemma_c_ok
    print("criterion 3: PASS (50 certified instances)")


def test_criterion_4_eta_function():
    assert eta(0.5) == 0.0

    def gauss_tail(z):
        val, _ = quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
                      z, np.inf)
        return val

    e = eta(0.02275)
    assert abs(e - 2.0) <= 1e-3
    assert abs(gauss_tail(e) - 0.02275) <= 1e-9  # quadrature oracle agreement
    ratios = [eta(x) / math.sqrt(2.0 * math.log(1.0 / x))
              for x in (1e-4, 1e-6, 1e-8, 1e-12)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r < 1.0 for r in ratios)
    assert ratios[-1] > 0.9  # approaching the asymptotic limit from below
    print(f"criterion 4: PASS (eta(0.02275)={e:.6f}, ratio tail={ratios[-1]:.4f})")


def test_criterion_5_ld_conic_equivalence():
    # a thermal row at equality with eta replaced by sqrt(2 log(1/eps))
    # is exactly the gap threshold whose instanton energy is log(1/eps)
    rng = np.random.default_rng(11)
    done = 0
    while done < 100:
        net = random_connected(rng, 3, 8)
        wind = rng.random(net.n_bus) < 0.5
        buses = [
            Bus(b.id,
                demand=float(rng.uniform(0.1, 0.4)) if b.id > 1 else 0.0,
                wind_mean=float(rng.uniform(0.0, 0.2)) if wind[i] else 0.0,
                wind_sigma=float(rng.uniform(0.05, 0.3)) if wind[i] else 0.0)
            for i, b in enumerate(net.buses)
        ]
        gens = [Generator(bus=1, pmin=0.0, pmax=5.0, c1=1.0),
                Generator(bus=net.buses[-1].id, pmin=0.0, pmax=5.0, c1=2.0)]
        net = Network(buses, gens, net.lines)
        total = float(np.sum(net.demand) - np.sum(net.wind_mean))
        disp = Dispatch(p=np.array(rng.dirichlet([2.0, 2.0])) * max(total, 0.1),
                        alpha=np.array(rng.dirichlet([2.0, 2.0])))
        spreads = net.gap_sensitivity.spread(disp)
        k = int(np.argmax(spreads))
        if spreads[k] <= 1e-8:
            continue
        done += 1
        eps = float(10.0 ** rng.uniform(-6.0, -1.0))
        target = math.log(1.0 / eps)
        m = net.gap_sensitivity.mean(disp)[k]
        side = 1.0 if m >= 0 else -1.0
        rho_t = m + side * math.sqrt(2.0 * target) * spreads[k]
        res = e_dc_closed_form(net, disp, k, rho_t)
        assert abs(res.energy - target) <= 1e-9
    print("criterion 5: PASS (100 instances)")


def _binding_one_sided_in_ci(report_path, mc_doc, eps_line, eps_sync, n):
    rep = read_report(report_path)
    checked = 0
    for k, lr in enumerate(rep.lines):
        for flag, eps, pos, neg in (
            (lr["binding_thermal"], eps_line, "thermal_pos", "thermal_neg"),
            (lr["binding_sync"], eps_sync, "sync_pos", "sync_neg"),
        ):
            if not flag:
                continue
            freq = mc_doc[pos][k] if lr["mean_flow"] >= 0 else mc_doc[neg][k]
            half = Z99 * math.sqrt(eps * (1.0 - eps) / n)
            assert abs(freq - eps) <= half, (k, freq, eps, half)
            checked += 1
    return checked


def test_criterion_6_mc_certification(tmp_path, capsys):
    n = 100_000
    bound_checks = 0
    for tag, eps_line, eps_sync in (
        ("base", 1.0 / 60.0, 1e-4),
        ("binding", 1e-2, 1e-2),
    ):
        rep_path = tmp_path / f"{tag}.json"
        overrides = ["--eps-line", repr(eps_line), "--eps-sync", repr(eps_sync)]
        assert main(["solve", "ccopf", "--case", "cases/case9_wind.json",
                     "--out", str(rep_path), *overrides]) == 0
        out_path = tmp_path / f"{tag}_mc.json"
        code = main(["validate", "--case", "cases/case9_wind.json",
                     "--dispatch", str(rep_path), "--samples", str(n),
                     "--seed", "2026", "--out", str(out_path), *overrides])
        assert code == 0  # every frequency within its budget plus CI
        doc = json.loads(out_path.read_text())
        assert doc["certified"] and doc["failures"] == []
        bound_checks += _binding_one_sided_in_ci(
            rep_path, doc["mc"], eps_line, eps_sync, n
        )
    assert bound_checks >= 2  # both variants returned binding constraints
    print(f"criterion 6: PASS ({bound_checks} binding one-sided checks in CI)")


def test_criterion_7_cutting_plane_behavior():
    net, chance = parse_case("cases/case9_wind.json")
    sol = solve_cc_opf(net, chance)
    assert sol.iterations <= 50
    trace = np.asarray(sol.objective_trace)
    assert np.all(np.diff(trace) >= -1e-9 * max(1.0, abs(trace[-1])))

    net, chance = parse_case("cases/alternation.json")
    assert np.all(net.pbar < net.beta)  # every cap is below the sync limit
    assert np.max(chance.eps_sync) <= 1e-4 * np.min(chance.eps_line)
    sol = solve_cc_opf(net, chance)
    kinds = {rec["kind"] for rec in sol.iteration_log}
    assert {"thermal", "sync"} <= kinds
    print(f"criterion 7: PASS (9-bus in {sol.iterations} iterations; "
          f"alternation kinds {sorted(kinds)})")


def test_criterion_8_scalability(tmp_path):
    net = synthetic_grid()
    chance = ChanceSpec.uniform(net, eps_line=0.02, eps_sync=1e-4, eps_gen=0.05)
    case_path = tmp_path / "synth1000.json"
    case_path.write_text(json.dumps(serialize_case(net, chance)))
    t0 = time.perf_counter()
    code = main(["solve", "ccopf", "--case", str(case_path),
                 "--out", str(tmp_path / "synth_report.json")])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 60.0
    print(f"criterion 8: PASS (1000 buses, 1500 lines in {elapsed:.1f}s)")


def test_energy_oracle_agrees_with_solve_pf_at_1000_buses():
    # the criterion-8 grid at its CC-OPF dispatch, where a dense angle-space
    # Hessian made the energy oracle slow
    net = synthetic_grid()
    chance = ChanceSpec.uniform(net, eps_line=0.02, eps_sync=1e-4, eps_gen=0.05)
    q = injection_vector(net, solve_cc_opf(net, chance).dispatch)
    convex, energy = solve_pf(net, q, enforce_thermal_cap=False), energy_function_solve(net, q)
    assert convex.feasible
    assert np.max(np.abs(convex.rho - energy.rho)) <= 1e-8
    assert np.max(np.abs(convex.theta - energy.theta)) <= 1e-8


def test_criterion_9_determinism(tmp_path):
    jobs = [
        ["solve", "ccopf", "--case", "cases/case9_wind.json"],
        ["solve", "ccopf", "--case", "cases/case9_wind.json", "--format", "csv"],
        ["solve", "dc", "--case", "cases/case9_wind.json"],
        ["solve", "scopf", "--case", "cases/case9_wind.json"],
        ["solve", "barrier", "--case", "cases/case9_wind.json"],
        ["solve", "ccopf", "--case", "cases/alternation.json"],
        ["risk", "--case", "cases/case9_wind.json", "--line", "8,9",
         "--threshold", "0.5", "--eps", "0.01"],
    ]
    dispatch = tmp_path / "dispatch.json"
    assert main(["solve", "ccopf", "--case", "cases/case9_wind.json",
                 "--out", str(dispatch)]) == 0
    jobs.append(["validate", "--case", "cases/case9_wind.json",
                 "--dispatch", str(dispatch), "--samples", "20000", "--seed", "11"])
    for idx, argv in enumerate(jobs):
        payloads = []
        for run in range(2):
            out = tmp_path / f"job{idx}_run{run}.bin"
            code = main([*argv, "--out", str(out)])
            assert code == 0, (argv, code)
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], argv
    print(f"criterion 9: PASS ({len(jobs)} report pairs byte-identical)")
