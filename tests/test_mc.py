"""Monte Carlo validator tests: bit-exact determinism, agreement with
analytic probabilities, per-side bookkeeping, tree exactness of the
nonlinear re-solve, and certification against chance budgets."""
import json
import math
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


def mesh():
    return Network(
        buses=[
            Bus(1),
            Bus(2, demand=0.6, wind_mean=0.1, wind_sigma=0.2),
            Bus(3, demand=0.8, wind_mean=0.1, wind_sigma=0.15),
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
