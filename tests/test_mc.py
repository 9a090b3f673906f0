"""Monte Carlo validator tests: bit-exact determinism, agreement with
analytic probabilities, per-side bookkeeping, tree exactness of the
nonlinear re-solve, and certification against chance budgets."""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from syncopf import Bus, ChanceSpec, Generator, Line, Network, certify, parse_case, read_report, run_mc
from syncopf.case_io import parse_case_dict
from syncopf.cc_opf import analytic_violation_prob
from syncopf.mc import NONLINEAR_DEFAULT_MAX, Z99, ci_halfwidth
from syncopf.network import Dispatch
from syncopf.powerflow import solve_pf_batch

import syncopf.mc as mc_mod

DATA = Path(__file__).parent / "data"


def two_bus(sigma=0.25, pbar=1.1):
    return Network(
        buses=[Bus(1), Bus(2, demand=1.0, wind_mean=0.2, wind_sigma=sigma)],
        generators=[Generator(bus=1, pmin=0.0, pmax=2.0, c1=1.0)],
        lines=[Line(1, 2, beta=2.0, pbar=pbar)],
    )


def mesh(wind=1.0):
    return Network(
        buses=[
            Bus(1),
            Bus(2, demand=0.6, wind_mean=0.1, wind_sigma=0.2 * wind),
            Bus(3, demand=0.8, wind_mean=0.1, wind_sigma=0.15 * wind),
        ],
        generators=[
            Generator(bus=1, pmin=0.0, pmax=2.0, c1=1.0),
            Generator(bus=3, pmin=0.0, pmax=2.0, c1=2.0),
        ],
        lines=[
            Line(1, 2, beta=1.5, pbar=0.9),
            Line(2, 3, beta=1.2, pbar=0.8),
            Line(1, 3, beta=1.0, pbar=0.9),
        ],
    )


def test_bit_exact_determinism():
    net = mesh()
    disp = Dispatch(p=np.array([0.7, 0.5]), alpha=np.array([0.5, 0.5]))
    a = run_mc(net, disp, n_samples=5000, seed=123, nonlinear=False)
    b = run_mc(net, disp, n_samples=5000, seed=123, nonlinear=False)
    assert np.array_equal(a.thermal_freq, b.thermal_freq)
    assert np.array_equal(a.sync_freq, b.sync_freq)
    assert np.array_equal(a.gen_freq, b.gen_freq)
    c = run_mc(net, disp, n_samples=300, seed=123, nonlinear=True)
    d = run_mc(net, disp, n_samples=300, seed=123, nonlinear=True)
    assert c.to_dict() == d.to_dict()


def _per_sample(monkeypatch, case, golden, n_samples, shift=0.0):
    """(iterations, boundary_hit, failed, rho) of each nonlinear sample that
    run_mc solves at a golden report's dispatch with seed 2026, with alpha
    moved by shift between the first two generators."""
    net, _ = parse_case(case)
    rep = read_report(DATA / golden)
    alpha = np.array(rep.alpha)
    alpha[:2] += (shift, -shift)
    samples = []

    def spy(*args, **kwargs):
        res = solve_pf_batch(*args, **kwargs)
        samples.extend(zip(res.iterations.tolist(), res.boundary_hit.tolist(),
                           res.failed.tolist(), res.rho))
        return res

    monkeypatch.setattr(mc_mod, "solve_pf_batch", spy)
    report = run_mc(net, Dispatch(p=np.array(rep.p), alpha=alpha), n_samples, seed=2026,
                    nonlinear=True)
    assert report.solve_failures == 0
    return samples


def _case9_newton_counts(monkeypatch, shift=0.0):
    """Newton iterations of each of 1000 nonlinear case9 samples at the
    golden report's dispatch, with alpha moved by shift between two
    generators."""
    samples = _per_sample(monkeypatch, "cases/case9_wind.json", "ccopf_case9_wind.json", 1000, shift)
    counts = [iters for iters, *_ in samples]
    assert len(counts) == 1000
    return counts


def test_case9_nonlinear_solves_take_few_newton_steps(monkeypatch):
    # near each optimum the objective's decrease is below rounding, so a
    # step rule that tests only that decrease would never end
    assert max(_case9_newton_counts(monkeypatch)) <= 10


def test_newton_counts_stable_under_last_bit_alpha_shift(monkeypatch):
    base = _case9_newton_counts(monkeypatch)
    for shift in (1.5e-14, -1.5e-14):
        assert _case9_newton_counts(monkeypatch, shift) == base


@pytest.mark.parametrize("case, golden", [
    ("cases/case9_wind.json", "ccopf_case9_wind.json"),
    (str(DATA / "mesh100.json"), "ccopf_mesh100.json"),
], ids=["case9", "mesh100"])
def test_sample_outcomes_do_not_depend_on_sub_batches(monkeypatch, case, golden):
    # the last sub-batch holds other samples at 997 than at 1000, and
    # sub-batches of 3 group every sample differently, so each sample
    # must come out of its own arithmetic alone
    whole = _per_sample(monkeypatch, case, golden, 1000)
    prefix = _per_sample(monkeypatch, case, golden, 997)
    monkeypatch.setattr(mc_mod, "_BATCH_SAMPLES", 3)
    regrouped = _per_sample(monkeypatch, case, golden, 1000)
    assert len(whole) == len(regrouped) == 1000 and len(prefix) == 997
    for other in (prefix, regrouped):
        for (*got, got_rho), (*want, want_rho) in zip(other, whole):
            assert got == want
            assert np.array_equal(got_rho, want_rho)


def test_seed_changes_stream():
    net = two_bus(sigma=0.25, pbar=1.1)
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    a = run_mc(net, disp, n_samples=5000, seed=1, nonlinear=False)
    b = run_mc(net, disp, n_samples=5000, seed=2, nonlinear=False)
    assert not np.array_equal(a.thermal_freq, b.thermal_freq)


def test_chunking_does_not_change_stream(monkeypatch):
    net = mesh()
    disp = Dispatch(p=np.array([0.7, 0.5]), alpha=np.array([0.5, 0.5]))
    whole = run_mc(net, disp, n_samples=4000, seed=9, nonlinear=False)
    monkeypatch.setattr(mc_mod, "_CHUNK_TARGET", 700)
    chunked = run_mc(net, disp, n_samples=4000, seed=9, nonlinear=False)
    assert np.array_equal(whole.thermal_freq, chunked.thermal_freq)
    assert np.array_equal(whole.sync_freq, chunked.sync_freq)
    assert np.array_equal(whole.gen_freq, chunked.gen_freq)


@pytest.mark.parametrize("seed", [0, 2026])
def test_normals_are_slices_of_one_philox_stream(seed):
    # every phase within a counter step of four doubles, and a numpy integer
    # start, which Philox.advance itself would reject
    ref = np.random.Generator(np.random.Philox(key=seed)).random(4200)
    for start in (0, 1, 2, 3, 4, 5, 6, 7, 1001, 1002, np.int64(4099), np.uint32(4096)):
        out = np.empty((3, 5))
        got = mc_mod._normals(seed, start, out)
        assert got is out
        want = ndtri(np.clip(ref[int(start):int(start) + 15], 1e-16, 1.0 - 1e-16)).reshape(3, 5)
        assert np.array_equal(got, want), start


def limits_grid():
    """Line 1-2 has pbar > beta, so sync is its tighter limit; line 3-4
    carries a mean gap beyond its cap whatever the wind."""
    return Network(
        buses=[Bus(1), Bus(2, demand=0.9, wind_mean=0.0, wind_sigma=0.15),
               Bus(3, demand=0.5, wind_mean=0.1, wind_sigma=0.1), Bus(4, demand=0.3)],
        generators=[Generator(bus=1, pmin=0.0, pmax=3.0, c1=1.0),
                    Generator(bus=3, pmin=0.0, pmax=2.0, c1=2.0)],
        lines=[Line(1, 2, beta=1.0, pbar=1.6), Line(2, 3, beta=2.0, pbar=2.0),
               Line(1, 3, beta=1.0, pbar=0.9), Line(3, 4, beta=3.0, pbar=0.05)],
    )


def windless_grid():
    return Network(
        buses=[Bus(1), Bus(2, demand=2.0), Bus(3, demand=0.4)],
        generators=[Generator(bus=1, pmin=0.0, pmax=3.0, c1=1.0)],
        lines=[Line(1, 2, beta=1.0, pbar=2.0), Line(2, 3, beta=1.0, pbar=0.1),
               Line(1, 3, beta=4.0, pbar=2.0)],
    )


def _golden(case, golden, wind_scale=1.0):
    doc = json.loads(Path(case).read_text())
    for bus in doc["buses"]:
        bus["sigma"] = wind_scale * bus.get("sigma", 0.0)
    net, _ = parse_case_dict(doc)
    rep = read_report(DATA / golden)
    return net, Dispatch(p=np.array(rep.p), alpha=np.array(rep.alpha))


SCREEN_CASES = {
    "case9": lambda: _golden("cases/case9_wind.json", "ccopf_case9_wind.json"),
    # at its own wind no line of mesh100 comes within 6 deviations of a limit
    "mesh100": lambda: _golden(DATA / "mesh100.json", "ccopf_mesh100.json", wind_scale=3.0),
    "limits": lambda: (limits_grid(), Dispatch(p=np.array([1.6, 0.0]), alpha=np.array([0.5, 0.5]))),
    "windless": lambda: (windless_grid(), Dispatch(p=np.array([2.4]), alpha=np.array([1.0]))),
}


def _dense_tallies(net, disp, n_samples, seed):
    """(thermal_pos, thermal_neg, sync_pos, sync_neg) counts from the gap of
    every line at every sample, drawn from run_mc's Philox stream, with no
    screen; also the largest |z| of the draws."""
    sens = net.gap_sensitivity
    mean, coeff = sens.mean(disp), sens.response(disp)
    cap_t = net.pbar / net.beta
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = ndtri(np.clip(rng.random((n_samples, net.wind_index.size)), 1e-16, 1.0 - 1e-16))
    w = z * sens.sigma
    counts = np.zeros((4, net.n_line), dtype=np.int64)
    for line in range(net.n_line):
        gap = mean[line] + w @ coeff[line]
        counts[:, line] = (np.count_nonzero(gap > cap_t[line]), np.count_nonzero(gap < -cap_t[line]),
                           np.count_nonzero(gap >= 1.0), np.count_nonzero(gap <= -1.0))
    z_max = float(np.max(np.linalg.norm(z, axis=1)))
    return counts, z_max


@pytest.mark.parametrize("name", list(SCREEN_CASES))
def test_screened_tallies_match_dense_reference(monkeypatch, name):
    net, disp = SCREEN_CASES[name]()
    n = 40_000
    want, z_max = _dense_tallies(net, disp, n, seed=31)
    if name == "limits":
        assert want[2, 0] > 0 and not want[:2, 0].any()  # sync binds below pbar/beta
        assert want[0, 3] == n and not want[2:, 3].any()  # over its cap whatever the wind
    if name == "windless":
        assert want[2, 0] == n and not want[:2, 0].any()
        assert want[1, 1] == n and not want[:, 2].any()
    for workers in (1, 2):
        monkeypatch.setattr(mc_mod, "_WORKERS", workers)
        for chunk_target in (mc_mod._CHUNK_TARGET, 997 * net.n_line):  # one chunk, then 41
            monkeypatch.setattr(mc_mod, "_CHUNK_TARGET", chunk_target)
            rep = run_mc(net, disp, n_samples=n, seed=31, nonlinear=False)
            got = np.array([rep.thermal_pos, rep.thermal_neg, rep.sync_pos, rep.sync_neg]) * n
            assert np.array_equal(np.rint(got).astype(np.int64), want)
    # the screen skips some lines in every chunk, and some lines it keeps trip
    sens = net.gap_sensitivity
    margin = np.minimum(net.pbar / net.beta, 1.0) - np.abs(sens.mean(disp))
    assert np.any(margin > 2.0 * sens.spread(disp) * z_max + 1e-6)
    assert np.any(want)


# with wind * 4 some nonlinear samples of the mesh lose synchrony and some
# overload a line
WORKER_CASES = {
    "mesh-linear": (mesh, [0.7, 0.5], [0.5, 0.5], 600, False, 37),
    "tight-nonlinear": (lambda: mesh(wind=4.0), [0.7, 0.5], [0.5, 0.5], 150, True, 13),
    # alpha off by 5e-9: samples with |total wind| > 0.2 leave injections
    # unbalanced, and are counted as solve failures
    "unbalanced-nonlinear": (lambda: mesh(wind=4.0), [0.7, 0.5], [0.5, 0.5 + 5e-9], 90, True, 11),
    "windless": (windless_grid, [2.4], [1.0], 300, True, 29),
    "fewer-samples-than-workers": (mesh, [0.7, 0.5], [0.5, 0.5], 2, False, 1),
}


@pytest.mark.parametrize("name", list(WORKER_CASES))
def test_reports_do_not_depend_on_workers(monkeypatch, name):
    build, p, alpha, n, nonlinear, chunk = WORKER_CASES[name]
    net = build()
    disp = Dispatch(p=np.array(p), alpha=np.array(alpha))
    monkeypatch.setattr(mc_mod, "_CHUNK_TARGET", chunk * net.n_line)
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many thread switches inside every range
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(mc_mod, "_WORKERS", workers)
            reports.append(run_mc(net, disp, n_samples=n, seed=17, nonlinear=nonlinear).to_dict())
    finally:
        sys.setswitchinterval(interval)
    assert reports[1] == reports[0] and reports[2] == reports[0]
    doc = reports[0]
    if name == "tight-nonlinear":
        assert doc["nl_sync_loss_freq"] > 0 and any(doc["nl_thermal_freq"])
        assert any(doc["nl_sync_line_freq"]) and any(doc["thermal_freq"])
    if name == "unbalanced-nonlinear":
        assert 0 < doc["solve_failures"] < n
    if name == "windless":
        assert any(doc["thermal_freq"]) and doc["solve_failures"] == 0


def test_generator_tally_matches_dense_count():
    # bounds put exactly on sample outputs, tied draws, alpha = 0 and
    # alpha < 0, one generator and one draw
    rng = np.random.default_rng(8)
    shapes = [(1, 1), (1, 5), (7, 1)] + [
        (int(rng.choice([1, 2, 3, 64, 1000])), int(rng.choice([1, 2, 5, 40]))) for _ in range(300)]
    for size, g in shapes:
        w = rng.normal(size=size) * rng.choice([1e-3, 1.0, 50.0])
        if rng.random() < 0.5:
            w = np.round(w, 1)
        p = rng.uniform(0.0, 2.0, g)
        alpha = rng.normal(size=g) * rng.choice([0.0, 1.0, 1e-8], size=g)
        out = p - np.outer(w, alpha)
        cols = np.arange(g)
        pmax = np.where(rng.random(g) < 0.5, out[rng.integers(0, size, g), cols],
                        rng.uniform(0.0, 3.0, g))
        pmin = np.where(rng.random(g) < 0.5, out[rng.integers(0, size, g), cols],
                        rng.uniform(-1.0, 1.0, g))
        over, under = mc_mod._generator_tally(np.sort(w), p, alpha, pmin, pmax)
        assert np.array_equal(over, np.count_nonzero(out > pmax, axis=0)), (size, g)
        assert np.array_equal(under, np.count_nonzero(out < pmin, axis=0)), (size, g)


def test_frequencies_match_analytic_probability():
    net = two_bus(sigma=0.25, pbar=1.1)
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    n = 200_000
    rep = run_mc(net, disp, n_samples=n, seed=77, nonlinear=False)
    sens = net.gap_sensitivity
    want = analytic_violation_prob(sens.mean(disp), sens.spread(disp), net.pbar / net.beta)[0]
    hw = 3.0 * math.sqrt(want * (1 - want) / n)
    assert abs(rep.thermal_freq[0] - want) <= hw
    assert want > 0.01  # the check is vacuous if nothing ever trips


def test_per_side_counts_sum():
    net = mesh()
    disp = Dispatch(p=np.array([0.9, 0.3]), alpha=np.array([0.7, 0.3]))
    rep = run_mc(net, disp, n_samples=20_000, seed=5, nonlinear=False)
    assert np.allclose(rep.thermal_pos + rep.thermal_neg, rep.thermal_freq)
    assert np.allclose(rep.sync_pos + rep.sync_neg, rep.sync_freq)
    assert np.allclose(rep.gen_over + rep.gen_under, rep.gen_freq)


def test_tree_thermal_counts_exact_nonlinear():
    # on a tree the sine flows equal the linear flows sample for sample
    net = two_bus(sigma=0.25, pbar=1.1)
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    rep = run_mc(net, disp, n_samples=600, seed=3, nonlinear=True)
    assert rep.nonlinear
    assert rep.solve_failures == 0
    assert np.array_equal(rep.thermal_freq, rep.nl_thermal_freq)


def test_nonlinear_default_threshold():
    net = two_bus()
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    small = run_mc(net, disp, n_samples=50, seed=1)
    assert small.nonlinear
    big = run_mc(net, disp, n_samples=NONLINEAR_DEFAULT_MAX + 1, seed=1)
    assert not big.nonlinear
    assert big.nl_thermal_freq is None


def test_gen_bound_frequency_matches_gaussian():
    # single responding generator: output 0.8 - W, W ~ N(0, 0.25^2)
    net = two_bus(sigma=0.25, pbar=50.0)
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    n = 200_000
    rep = run_mc(net, disp, n_samples=n, seed=13, nonlinear=False)
    want = 0.5 * math.erfc((2.0 - 0.8) / 0.25 / math.sqrt(2)) + 0.5 * math.erfc(
        0.8 / 0.25 / math.sqrt(2)
    )
    hw = 3.0 * math.sqrt(want * (1 - want) / n)
    assert abs(rep.gen_freq[0] - want) <= hw


def test_certify_passes_when_within_budget():
    net = two_bus(sigma=0.02, pbar=1.9)
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    rep = run_mc(net, disp, n_samples=10_000, seed=2, nonlinear=False)
    ok, failures = certify(rep, ChanceSpec.uniform(net))
    assert ok and failures == []


def test_certify_flags_excess():
    # dispatch parked right at the thermal cap trips ~50% of samples
    net = two_bus(sigma=0.2, pbar=0.8)
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    rep = run_mc(net, disp, n_samples=10_000, seed=2, nonlinear=False)
    ok, failures = certify(rep, ChanceSpec.uniform(net, eps_line=0.01))
    assert not ok
    assert any("thermal" in f for f in failures)


def _certify_loop(report, chance):
    """certify's failures entry by entry, in scalar arithmetic: the reference."""
    n = report.n_samples
    failures = []
    for what, name, freq, budgets in (("line", "thermal", report.thermal_freq, chance.eps_line),
                                      ("line", "sync", report.sync_freq, chance.eps_sync),
                                      ("generator", "bound", report.gen_freq, chance.eps_gen)):
        for k, eps in enumerate(budgets.tolist()):
            limit = eps + Z99 * math.sqrt(max(eps * (1.0 - eps), 0.0) / n)
            if freq[k] > limit:
                failures.append(f"{what} {k}: {name} frequency {freq[k]:.6g} > "
                                f"eps {eps:.6g} + CI {limit - eps:.2g}")
    return failures


def test_certify_failures_match_per_entry_loop():
    net = limits_grid()
    disp = Dispatch(p=np.array([1.6, 0.0]), alpha=np.array([0.5, 0.5]))
    rep = run_mc(net, disp, n_samples=4000, seed=3, nonlinear=False)
    chance = ChanceSpec(eps_line=np.linspace(1e-4, 0.02, net.n_line),
                        eps_sync=np.full(net.n_line, 1e-4), eps_gen=np.full(net.n_gen, 1e-3))
    want = _certify_loop(rep, chance)
    kinds = {f.split(" frequency")[0].split(": ")[1] for f in want}
    assert kinds == {"thermal", "sync", "bound"}  # lines and generators fail
    ok, got = certify(rep, chance)
    assert not ok and got == want
    # a frequency exactly on its limit passes, one just above it fails
    limit = chance.eps_gen + ci_halfwidth(chance.eps_gen, rep.n_samples)
    rep.gen_freq = limit.copy()
    rep.gen_freq[1] = np.nextafter(limit[1], 1.0)
    got = certify(rep, chance)[1]
    assert got == _certify_loop(rep, chance)
    gen_failures = [f for f in got if f.startswith("generator")]
    assert len(gen_failures) == 1 and gen_failures[0].startswith("generator 1:")


def test_ci_halfwidth_value():
    assert Z99 == pytest.approx(2.5758293035489004, abs=1e-12)
    assert ci_halfwidth(0.05, 10_000) == pytest.approx(
        2.5758293035489004 * math.sqrt(0.05 * 0.95 / 10_000), abs=1e-15
    )


def test_invalid_sample_count():
    net = two_bus()
    disp = Dispatch(p=np.array([0.8]), alpha=np.array([1.0]))
    with pytest.raises(ValueError):
        run_mc(net, disp, n_samples=0, seed=1)


def test_error_of_first_range_surfaces_after_the_others(monkeypatch):
    # two sample ranges; the calling thread's (from sample 0) fails at its
    # first draw, the pool's runs to its end before the error surfaces
    net = mesh()
    disp = Dispatch(p=np.array([0.7, 0.5]), alpha=np.array([0.5, 0.5]))
    monkeypatch.setattr(mc_mod, "_WORKERS", 2)
    monkeypatch.setattr(mc_mod, "_CHUNK_TARGET", 50 * net.n_line)
    normals, drawn = mc_mod._normals, []

    def failing_first(seed, start, out):
        if start == 0:
            raise RuntimeError("draw failed")
        drawn.append(normals(seed, start, out).shape[0])
        return out

    monkeypatch.setattr(mc_mod, "_normals", failing_first)
    with pytest.raises(RuntimeError, match="draw failed"):
        run_mc(net, disp, n_samples=200, seed=5, nonlinear=False)
    assert sum(drawn) == 100
