"""Monte Carlo validation of a dispatch under Gaussian wind.

Samples are generated from a counter-based Philox stream keyed by the
seed, so sample i is a pure function of (seed, i): reruns and chunked
processing reproduce bit-identical draws. Gaussians come from the
inverse normal CDF applied to the uniform stream.

The linear check mirrors the solver's own model: per-sample angle gaps
are mean + C w, thermal exceedances count |beta * gap| > pbar and sync
events |gap| >= 1, with per-side tallies. The nonlinear check re-solves
the sine power flow per sample (thermal cap off); boundary-pinned
solutions count as synchrony loss attributed to the pinned lines, and
solver failures are counted as sync loss but also reported separately.
On trees the linear and nonlinear flows coincide, so thermal counts
match sample for sample.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .case_io import ChanceSpec
from .errors import SyncOpfError, ValidationError
from .network import Dispatch, Network, injection_vector
from .powerflow import MARGIN, solve_pf

logger = logging.getLogger(__name__)

Z99 = float(ndtri(0.995))  # two-sided 99% normal quantile
NONLINEAR_DEFAULT_MAX = 10_000
_CHUNK_TARGET = 10_000_000  # upper bound on per-chunk matrix entries


def ci_halfwidth(p: float, n: int, z: float = Z99) -> float:
    """Half-width of the normal-approximation binomial confidence band."""
    return z * math.sqrt(max(p * (1.0 - p), 0.0) / n)


@dataclass
class McReport:
    """Empirical violation frequencies with their sampling setup."""

    n_samples: int
    seed: int
    nonlinear: bool
    thermal_freq: np.ndarray
    thermal_pos: np.ndarray
    thermal_neg: np.ndarray
    sync_freq: np.ndarray
    sync_pos: np.ndarray
    sync_neg: np.ndarray
    gen_freq: np.ndarray
    gen_over: np.ndarray
    gen_under: np.ndarray
    solve_failures: int = 0
    nl_thermal_freq: np.ndarray | None = None
    nl_sync_line_freq: np.ndarray | None = None
    nl_sync_loss_freq: float | None = None

    def to_dict(self) -> dict:
        doc = {
            "n_samples": self.n_samples,
            "seed": self.seed,
            "nonlinear": self.nonlinear,
            "ci_z": Z99,
            "thermal_freq": self.thermal_freq.tolist(),
            "thermal_pos": self.thermal_pos.tolist(),
            "thermal_neg": self.thermal_neg.tolist(),
            "sync_freq": self.sync_freq.tolist(),
            "sync_pos": self.sync_pos.tolist(),
            "sync_neg": self.sync_neg.tolist(),
            "gen_freq": self.gen_freq.tolist(),
            "gen_over": self.gen_over.tolist(),
            "gen_under": self.gen_under.tolist(),
            "solve_failures": self.solve_failures,
        }
        if self.nonlinear:
            doc["nl_thermal_freq"] = self.nl_thermal_freq.tolist()
            doc["nl_sync_line_freq"] = self.nl_sync_line_freq.tolist()
            doc["nl_sync_loss_freq"] = self.nl_sync_loss_freq
        return doc


def run_mc(
    net: Network,
    dispatch: Dispatch,
    n_samples: int,
    seed: int = 0,
    nonlinear: bool | None = None,
) -> McReport:
    """Sample wind, tally violation frequencies.

    nonlinear defaults to True only for n_samples <= 10_000; the sine
    re-solve is per-sample and priced accordingly. Raises
    ValidationError when the network has wind and the participation
    factors do not sum to 1, since such a dispatch leaves every wind
    deviation unbalanced.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    alpha_sum = float(np.sum(dispatch.alpha))
    if net.wind_index.size and abs(alpha_sum - 1.0) > 1e-6:
        raise ValidationError(
            f"participation factors sum to {alpha_sum:.6g}, not 1: the dispatch "
            "does not balance wind deviations"
        )
    if nonlinear is None:
        nonlinear = n_samples <= NONLINEAR_DEFAULT_MAX

    m, g = net.n_line, net.n_gen
    wind = net.wind_index
    n_w = len(wind)
    sens = net.gap_sensitivity
    sig = sens.sigma
    mean, coeff = sens.mean(dispatch), sens.response(dispatch)
    cap_t = net.pbar / net.beta

    rng = np.random.Generator(np.random.Philox(key=seed))
    chunk = max(1, min(n_samples, _CHUNK_TARGET // max(m, 1)))

    th_pos = np.zeros(m, dtype=np.int64)
    th_neg = np.zeros(m, dtype=np.int64)
    sy_pos = np.zeros(m, dtype=np.int64)
    sy_neg = np.zeros(m, dtype=np.int64)
    g_over = np.zeros(g, dtype=np.int64)
    g_under = np.zeros(g, dtype=np.int64)
    nl_th = np.zeros(m, dtype=np.int64)
    nl_sy = np.zeros(m, dtype=np.int64)
    nl_loss = 0
    failures = 0

    done = 0
    while done < n_samples:
        size = min(chunk, n_samples - done)
        if n_w:
            u = rng.random((size, n_w))
            w = ndtri(np.clip(u, 1e-16, 1.0 - 1e-16)) * sig
        else:
            w = np.zeros((size, 0))
        gaps = mean[None, :] + w @ coeff.T
        th_pos += np.count_nonzero(gaps > cap_t[None, :], axis=0)
        th_neg += np.count_nonzero(-gaps > cap_t[None, :], axis=0)
        sy_pos += np.count_nonzero(gaps >= 1.0, axis=0)
        sy_neg += np.count_nonzero(gaps <= -1.0, axis=0)

        w_tot = w.sum(axis=1)
        outputs = dispatch.p[None, :] - np.outer(w_tot, dispatch.alpha)
        g_over += np.count_nonzero(outputs > net.pmax[None, :], axis=0)
        g_under += np.count_nonzero(outputs < net.pmin[None, :], axis=0)

        if nonlinear:
            for s in range(size):
                w_full = np.zeros(net.n_bus)
                w_full[wind] = w[s]
                q = injection_vector(net, dispatch, wind=w_full)
                try:
                    state = solve_pf(net, q, enforce_thermal_cap=False)
                except SyncOpfError:
                    failures += 1
                    nl_loss += 1
                    continue
                if state.boundary_hit:
                    nl_loss += 1
                    pinned = np.abs(state.rho) >= 1.0 - 10.0 * MARGIN - 1e-12
                    nl_sy[pinned] += 1
                else:
                    nl_th += np.abs(net.beta * state.rho) > net.pbar
        done += size

    inv = 1.0 / n_samples
    report = McReport(
        n_samples=n_samples,
        seed=seed,
        nonlinear=nonlinear,
        thermal_freq=(th_pos + th_neg) * inv,
        thermal_pos=th_pos * inv,
        thermal_neg=th_neg * inv,
        sync_freq=(sy_pos + sy_neg) * inv,
        sync_pos=sy_pos * inv,
        sync_neg=sy_neg * inv,
        gen_freq=(g_over + g_under) * inv,
        gen_over=g_over * inv,
        gen_under=g_under * inv,
        solve_failures=failures,
        nl_thermal_freq=nl_th * inv if nonlinear else None,
        nl_sync_line_freq=nl_sy * inv if nonlinear else None,
        nl_sync_loss_freq=nl_loss * inv if nonlinear else None,
    )
    if failures:
        logger.warning("%d/%d nonlinear solves failed (counted as sync loss)",
                       failures, n_samples)
    return report


def certify(report: McReport, chance: ChanceSpec) -> tuple[bool, list]:
    """Check empirical frequencies against the chance budgets.

    A frequency fails certification when it exceeds its eps by more than
    the 99% binomial confidence half-width at eps. Returns (ok, list of
    human-readable failure descriptions). Linear-model frequencies are
    what the solver promised, so they are what is certified; nonlinear
    tallies are diagnostic.
    """
    n = report.n_samples
    failures = []
    for k, eps in enumerate(chance.eps_line):
        limit = eps + ci_halfwidth(eps, n)
        if report.thermal_freq[k] > limit:
            failures.append(
                f"line {k}: thermal frequency {report.thermal_freq[k]:.6g} > "
                f"eps {eps:.6g} + CI {limit - eps:.2g}"
            )
    for k, eps in enumerate(chance.eps_sync):
        limit = eps + ci_halfwidth(eps, n)
        if report.sync_freq[k] > limit:
            failures.append(
                f"line {k}: sync frequency {report.sync_freq[k]:.6g} > "
                f"eps {eps:.6g} + CI {limit - eps:.2g}"
            )
    for i, eps in enumerate(chance.eps_gen):
        limit = eps + ci_halfwidth(eps, n)
        if report.gen_freq[i] > limit:
            failures.append(
                f"generator {i}: bound frequency {report.gen_freq[i]:.6g} > "
                f"eps {eps:.6g} + CI {limit - eps:.2g}"
            )
    return (not failures, failures)
