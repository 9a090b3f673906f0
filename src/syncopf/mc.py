"""Monte Carlo validation of a dispatch under Gaussian wind.

Samples are generated from a counter-based Philox stream keyed by the
seed, so sample i is a pure function of (seed, i): reruns and chunked
processing reproduce bit-identical draws. Gaussians come from the
inverse normal CDF applied to the uniform stream.

A run of more than one chunk is split into contiguous sample ranges, one
per CPU the process may run on (_WORKERS), at most one per chunk. Sample
i takes the n_w uniforms from stream position i * n_w on, and Philox
gives four doubles per counter step, so a range that starts at position
s builds its own generator, advances its counter by s // 4 and skips
s % 4 doubles (_normals): it draws exactly what one sequential stream
would. The calling thread tallies the first range while a thread pool
tallies the others; Philox, ndtri, sorting and BLAS release the
interpreter lock, so the ranges run at once. Each range returns integer
counts, whose sum does not depend on its order, so a report is byte for
byte the same on any number of CPUs. A range draws in chunks of
ceil(chunk / ranges) samples, so all ranges together hold the buffers
of one chunk. A run of one chunk (the 1000-sample nonlinear validations
of case9 and of a 100-bus mesh, say) stays one range on the calling
thread, with the same draws, sub-batches and solves as a sequential
run, so its time and the host-probe samples it gets (see below) do not
change.

The linear check mirrors the solver's own model: per-sample angle gaps
are mean + C w, thermal exceedances count |beta * gap| > pbar and sync
events |gap| >= 1, with per-side tallies. With w = z * sigma, line l's
deviation C_l w = (C_l * sigma) z is at most spread_l * |z| by
Cauchy-Schwarz, spread_l being the line's standard deviation. So a chunk
forms gaps only for the lines whose bound spread * max|z| reaches the
margin min(pbar / beta, 1) - |mean|. The bound carries one slack,
1e-9 * (|mean| + spread) * (1 + max|z|), far above the n_w * eps
rounding of the dot product and of the spreads, so a skipped line would
have tallied no event in computed arithmetic either. Near an
optimum few lines come near a limit (3 of 1500 on a 1000-bus grid), and
a chunk then costs about its draws instead of lines * wind buses per
sample. Generator limits are tallied on the chunk's sorted total
deviations, by bisection per generator (see _generator_tally).

The nonlinear check re-solves the sine power flow of every sample
(thermal cap off) with solve_pf_batch. A run first solves the no-wind
injections once, and every sample starts from that solution's chord
flows and takes chord steps with the inverse of its chord Hessian (see
the powerflow module), one c x c array per run (2 MB at 501 chords);
only a sample whose chord step does not contract falls back to Newton
steps on its own Hessian. When that nominal solve fails, is pinned at a
cap or its injections do not balance, the samples start from zero chord
flows and take Newton steps. The samples are solved in sub-batches of
S = _BATCH_TARGET // (lines * chords) samples, so that a sub-batch's
flow vectors (lines doubles each) and any fallback Hessians (chords^2
doubles each) stay under _BATCH_TARGET doubles (2 MB) unless one sample
alone needs more: a 1000-bus grid (1500 lines, 501 chords) solves one
sample at a time. A sub-batch also holds at most _BATCH_SAMPLES samples
(10 on case9 and on a 100-bus mesh). That cap keeps a 1000-sample case9
validation at about 30 ms rather than 5 ms: perfbench's worker corrects
each command's time by host-probe samples taken every 25 ms and fails
on a command that gets none. Each sample's solve depends on that
sample alone, so the sub-batch size does not change the report.
Boundary-pinned solutions count as synchrony loss attributed to the
pinned lines, and solver failures (unbalanced injections included) are
counted as sync loss but also reported separately. On trees the linear
and nonlinear flows coincide, so thermal counts match sample for sample.
"""
from __future__ import annotations

import functools
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtri

from .case_io import ChanceSpec
from .errors import NoConvergenceError, ValidationError
from .network import Dispatch, Network, injection_vector
from .powerflow import MARGIN, psi_second, solve_pf, solve_pf_batch

logger = logging.getLogger(__name__)

Z99 = float(ndtri(0.995))  # two-sided 99% normal quantile
NONLINEAR_DEFAULT_MAX = 10_000
_CHUNK_TARGET = 10_000_000  # upper bound on per-chunk matrix entries
_BATCH_TARGET = 1 << 18  # bounds S * lines * chords per nonlinear sub-batch
_BATCH_SAMPLES = 10  # and at most this many samples; see the module docstring
# the CPUs this process may run on: one sample range each (see the module docstring)
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def ci_halfwidth(p, n: int):
    """Half-width of the 99% normal-approximation binomial confidence band
    at probability p, or at each entry of an array p."""
    return Z99 * np.sqrt(np.maximum(p * (1.0 - p), 0.0) / n)


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
        """Every field in order, arrays as lists, with the 99% quantile ci_z
        after nonlinear; the nl_* fields only for a nonlinear run."""
        doc = {}
        for f in fields(self):
            if self.nonlinear or not f.name.startswith("nl_"):
                value = getattr(self, f.name)
                doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
            if f.name == "nonlinear":
                doc["ci_z"] = Z99
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
    deviation unbalanced, and for a seed outside [0, 2**128), which
    cannot key the Philox stream.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if not 0 <= seed < 1 << 128:
        raise ValidationError(f"seed must lie in [0, 2**128), got {seed}")
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
        basis = net.spanning_tree
        basis.tree_inverse, basis.hessian_map  # built here, before any thread reads them
        batch = max(1, min(_BATCH_SAMPLES, _BATCH_TARGET // max(m * basis.chords.size, 1)))
        # every sample starts at the no-wind flow and steps with the inverse
        # of its chord Hessian, unless that flow is pinned or not found
        start = nominal = None
        q0 = injection_vector(net, dispatch)
        if basis.chords.size and abs(q0.sum()) <= 1e-9:
            try:
                nominal = solve_pf(net, q0, enforce_thermal_cap=False)
            except NoConvergenceError:
                pass
        if nominal is not None and nominal.feasible:
            hess0 = basis.chord_hessian(psi_second(nominal.rho)[None] / net.beta)[0]
            start = ((net.beta * nominal.rho)[basis.chords], np.linalg.inv(hess0))

    chunk = max(1, min(n_samples, _CHUNK_TARGET // max(m, 1)))
    parts = min(_WORKERS, -(-n_samples // chunk))
    step = -(-chunk // parts)  # samples per chunk in each part: the same memory in all
    bounds = [n_samples * k // parts for k in range(parts + 1)]

    def tally(first: int, stop: int, buf: np.ndarray):
        """Event counts over samples [first, stop), drawn chunk by chunk
        into buf (z, then w = z * sigma in place): per line (thermal +/-,
        sync +/-, nonlinear thermal and sync), per generator (over, under)
        and in all (nonlinear sync loss, solve failures)."""
        lines = np.zeros((6, m), dtype=np.int64)
        gens = np.zeros((2, g), dtype=np.int64)
        events = np.zeros(2, dtype=np.int64)
        for lo in range(first, stop, step):
            w = _normals(seed, lo * n_w, buf[:min(step, stop - lo)])  # with no wind, empty
            size = w.shape[0]
            z_max = math.sqrt(float(np.max(np.einsum("ij,ij->i", w, w))))
            np.multiply(w, sig, out=w)
            live = np.flatnonzero(
                spread * z_max + 1e-9 * (abs_mean + spread) * (1.0 + z_max) >= margin)
            gaps = w @ coeff[live].T
            gaps += mean[live]
            lines[0, live] += np.count_nonzero(gaps > cap_t[live], axis=0)
            lines[1, live] += np.count_nonzero(gaps < -cap_t[live], axis=0)
            lines[2, live] += np.count_nonzero(gaps >= 1.0, axis=0)
            lines[3, live] += np.count_nonzero(gaps <= -1.0, axis=0)
            del gaps  # before the sub-batches and the next chunk's draws

            gens += _generator_tally(np.sort(w.sum(axis=1)), dispatch.p, dispatch.alpha,
                                     net.pmin, net.pmax)

            if nonlinear:
                for b in range(0, size, batch):
                    w_full = np.zeros((min(batch, size - b), net.n_bus))
                    w_full[:, wind] = w[b:b + batch]
                    q = injection_vector(net, dispatch, wind=w_full)
                    unbalanced = np.abs(q.sum(axis=1)) > 1e-9
                    res = solve_pf_batch(net, q[~unbalanced], enforce_thermal_cap=False,
                                         start=start)
                    hit = res.boundary_hit & ~res.failed
                    lost = np.count_nonzero(unbalanced)
                    events += (lost + np.count_nonzero(res.failed | hit),
                               lost + np.count_nonzero(res.failed))
                    # bool sums: np.count_nonzero with an axis is slower by its wrapper
                    lines[5] += (np.abs(res.rho[hit]) >= 1.0 - 10.0 * MARGIN - 1e-12).sum(axis=0)
                    interior = ~(res.boundary_hit | res.failed)
                    lines[4] += (np.abs(net.beta * res.rho[interior]) > net.pbar).sum(axis=0)
        return lines, gens, events

    # buffers allocated on this thread: one that a pool thread allocates and
    # frees stays in its malloc arena (+1.3 MB peak RSS over solve-validate rounds)
    ranges = [(lo, hi, np.empty((min(step, hi - lo), n_w))) for lo, hi in zip(bounds, bounds[1:])]
    # the other parts are queued before this thread takes the first one
    futures = [_pool(_WORKERS - 1).submit(tally, *r) for r in ranges[1:]]
    counts = []
    try:
        counts.append(tally(*ranges[0]))
    finally:  # the pool's ranges are joined before an error of the first surfaces
        counts += [f.result() for f in futures]
    lines, gens, events = (sum(c) for c in zip(*counts))  # integers: any order is exact
    th_pos, th_neg, sy_pos, sy_neg, nl_th, nl_sy = lines
    g_over, g_under = gens
    nl_loss, failures = (int(k) for k in events)

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


def _normals(seed: int, start: int, out: np.ndarray) -> np.ndarray:
    """Fill out, row by row, with the standard normals at positions start,
    start + 1, ... of the Philox stream keyed by seed, and return it."""
    start = int(start)  # advance() overflows on numpy integers
    bits = np.random.Philox(key=seed)
    bits.advance(start // 4)  # one counter step gives four doubles
    bits.random_raw(start % 4)
    np.random.Generator(bits).random(out=out)
    return ndtri(np.clip(out, 1e-16, 1.0 - 1e-16, out=out), out=out)


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """Threads for the sample ranges after the first, started on first use."""
    return ThreadPoolExecutor(workers, thread_name_prefix="syncopf-mc")


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
    for what, name, freq, eps in (
        ("line", "thermal", report.thermal_freq, chance.eps_line),
        ("line", "sync", report.sync_freq, chance.eps_sync),
        ("generator", "bound", report.gen_freq, chance.eps_gen),
    ):
        limit = eps + ci_halfwidth(eps, n)
        failures += [f"{what} {k}: {name} frequency {freq[k]:.6g} > "
                     f"eps {eps[k]:.6g} + CI {limit[k] - eps[k]:.2g}"
                     for k in np.flatnonzero(freq > limit)]
    return (not failures, failures)
