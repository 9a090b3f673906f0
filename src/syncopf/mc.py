"""Monte Carlo validation of a dispatch under Gaussian wind.

Samples are generated from a counter-based Philox stream keyed by the
seed, so sample i is a pure function of (seed, i): reruns and chunked
processing reproduce bit-identical draws. Gaussians come from the
inverse normal CDF applied to the uniform stream.

The linear check mirrors the solver's own model: per-sample angle gaps
are mean + C w, thermal exceedances count |beta * gap| > pbar and sync
events |gap| >= 1, with per-side tallies. With w = z * sigma, line l's
deviation C_l w = (C_l * sigma) z is at most spread_l * |z| by
Cauchy-Schwarz, spread_l being the line's standard deviation. So a chunk
forms gaps only for the lines whose bound spread * max|z| reaches the
margin min(pbar / beta, 1) - |mean|. The bound carries one slack,
1e-9 * (|mean| + spread) * (1 + max|z|), far above the n_w * eps
rounding of the dot product and of the norms, so a skipped line would
have tallied no event in computed arithmetic either. Near an
optimum few lines come near a limit (3 of 1500 on a 1000-bus grid), and
a chunk then costs about its draws instead of lines * wind buses per
sample. Generator limits are tallied on the chunk's sorted total
deviations, by bisection per generator (see _generator_tally).

The nonlinear check re-solves the sine power flow of every sample
(thermal cap off) with solve_pf_batch, in sub-batches of
_BATCH_TARGET // (lines * chords) samples, so that a sub-batch's stacked
chord products hold no more than _BATCH_TARGET doubles (2 MB) unless one
sample alone needs more, as on a 1000-bus grid, which solves one sample
at a time. A sub-batch also holds at most _BATCH_SAMPLES samples (10 on
case9 and on a 100-bus mesh). That cap keeps a 1000-sample case9
validation at about 40 ms rather than 10 ms: perfbench's worker corrects
each command's time by host-probe samples taken every 25 ms and fails on
a command that gets none. Each sample's solve depends on that sample
alone, so the sub-batch size does not change the report. Boundary-pinned
solutions count as synchrony loss attributed to the pinned lines, and
solver failures (unbalanced injections included) are counted as sync
loss but also reported separately. On trees the linear and nonlinear
flows coincide, so thermal counts match sample for sample.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .case_io import ChanceSpec
from .errors import ValidationError
from .network import Dispatch, Network, injection_vector
from .powerflow import MARGIN, solve_pf_batch

logger = logging.getLogger(__name__)

Z99 = float(ndtri(0.995))  # two-sided 99% normal quantile
NONLINEAR_DEFAULT_MAX = 10_000
_CHUNK_TARGET = 10_000_000  # upper bound on per-chunk matrix entries
_BATCH_TARGET = 1 << 18  # about S * lines * chords entries per nonlinear sub-batch
_BATCH_SAMPLES = 10  # and at most this many samples; see the module docstring


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
    re-solve costs a Newton solve per sample and is priced accordingly. Raises
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
    # a chunk tallies only the lines whose bound spread * max|z| (with its
    # slack) reaches the margin; see the module docstring
    spread = sens.spread(dispatch)
    abs_mean = np.abs(mean)
    margin = np.minimum(cap_t, 1.0) - abs_mean
    if nonlinear:
        batch = max(1, min(_BATCH_SAMPLES,
                           _BATCH_TARGET // max(m * net.spanning_tree.chords.size, 1)))

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
            z = ndtri(np.clip(u, 1e-16, 1.0 - 1e-16))
            w = z * sig
            z_max = math.sqrt(float(np.max(np.einsum("ij,ij->i", z, z))))
        else:
            w = np.zeros((size, 0))
            z_max = 0.0
        live = np.flatnonzero(
            spread * z_max + 1e-9 * (abs_mean + spread) * (1.0 + z_max) >= margin)
        gaps = w @ coeff[live].T
        gaps += mean[live]
        th_pos[live] += np.count_nonzero(gaps > cap_t[live], axis=0)
        th_neg[live] += np.count_nonzero(gaps < -cap_t[live], axis=0)
        sy_pos[live] += np.count_nonzero(gaps >= 1.0, axis=0)
        sy_neg[live] += np.count_nonzero(gaps <= -1.0, axis=0)
        del gaps  # before the sub-batches and the next chunk's draws

        over, under = _generator_tally(np.sort(w.sum(axis=1)), dispatch.p, dispatch.alpha,
                                       net.pmin, net.pmax)
        g_over += over
        g_under += under

        if nonlinear:
            for lo in range(0, size, batch):
                w_full = np.zeros((min(batch, size - lo), net.n_bus))
                w_full[:, wind] = w[lo:lo + batch]
                q = injection_vector(net, dispatch, wind=w_full)
                unbalanced = np.abs(q.sum(axis=1)) > 1e-9
                res = solve_pf_batch(net, q[~unbalanced], enforce_thermal_cap=False)
                hit = res.boundary_hit & ~res.failed
                failures += np.count_nonzero(unbalanced) + np.count_nonzero(res.failed)
                nl_loss += np.count_nonzero(unbalanced) + np.count_nonzero(res.failed | hit)
                nl_sy += np.count_nonzero(
                    np.abs(res.rho[hit]) >= 1.0 - 10.0 * MARGIN - 1e-12, axis=0)
                interior = ~(res.boundary_hit | res.failed)
                nl_th += np.count_nonzero(
                    np.abs(net.beta * res.rho[interior]) > net.pbar, axis=0)
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
        solve_failures=int(failures),
        nl_thermal_freq=nl_th * inv if nonlinear else None,
        nl_sync_line_freq=nl_sy * inv if nonlinear else None,
        nl_sync_loss_freq=int(nl_loss) * inv if nonlinear else None,
    )
    if failures:
        logger.warning("%d/%d nonlinear solves failed (counted as sync loss)",
                       failures, n_samples)
    return report


def _generator_tally(w_sorted, p, alpha, pmin, pmax):
    """Per generator, the number of draws whose output p - alpha * w is
    above pmax and below pmin, for the total deviations w in ascending order.

    Rounding is monotone, so each output is monotone in w in floating
    point too: falling where alpha >= 0, rising where alpha < 0. Each
    event is then a run at one end of the sorted draws, and a bisection
    per generator finds where it ends, evaluating the same expression
    as a count over every draw would.
    """
    size = w_sorted.size
    rising = alpha < 0.0

    def count(event, leading):
        # event(out) holds on the first draws where leading, else on the
        # last; the draws before lo are in the first run, those from hi on
        # are not
        lo = np.zeros(p.size, dtype=np.int64)
        hi = np.full(p.size, size)
        for _ in range(size.bit_length()):
            mid = (lo + hi) // 2
            first = event(p - alpha * w_sorted[np.minimum(mid, size - 1)]) == leading
            live = lo < hi
            lo, hi = np.where(live & first, mid + 1, lo), np.where(live & ~first, mid, hi)
        return np.where(leading, lo, size - lo)

    return count(lambda out: out > pmax, ~rising), count(lambda out: out < pmin, rising)


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
