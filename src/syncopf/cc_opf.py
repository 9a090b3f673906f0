"""Chance-constrained OPF with affine wind balancing.

Wind deviations at the sigma-positive buses are independent Gaussians;
generators absorb the aggregate imbalance through participation factors
alpha (p_i(w) = p_i - alpha_i * sum(w), with sum(alpha) = 1). Angle
differences are then Gaussian. With D_l and W_l the sensitivities of
line l's angle gap to injections at the generator buses and at the wind
buses, the gap is D_l p + offset_l + (W_l - D_l alpha) w. Its standard
deviation || sigma * (W_l - D_l alpha) || depends on alpha only through
d = D_l alpha: in line coordinates (network.GapMoments) it is

    S_l(d) = sqrt(c (d - d_bar_l)^2 + r_l^2)

with c = sum(sigma^2), d_bar_l = sum(sigma^2 W_l) / c and r_l =
|| sigma * (W_l - d_bar_l) ||, the per-line conic form of Bienstock,
Chertkov & Harnett (SIAM Review 56(3), 2014). Each line carries two
conic constraints,

    |mean gap| + eta(eps_line) * S  <=  pbar/beta   (thermal)
    |mean gap| + eta(eps_sync) * S  <=  1           (synchronization)

with eta the Gaussian tail multiplier. build_conic_constraints returns
both for every line as one ConicTable; violations, probabilities and
tangents are array expressions over it. S is convex in d, so the conic
terms are handled by cutting planes: tangents of S are substituted
into the linear rows and the QP is re-solved until no constraint is
violated beyond tol_cut. Tangent substitution keeps the active set of
the dense QP engine at the size of the truly binding rows; an auxiliary
epigraph variable per line would pin one always-active row per line and
scale cubically on large cases. The feasible sets are identical.

Before the loop, the lines that can never bind are screened out
(_bindable_lines). Every QP optimum of the loop lies in the tightened
generator box with sum(p) fixed and alpha in the simplex. Over that set
the largest |mean gap| of a line is a fractional-knapsack LP, solved by
filling the box greedily in the order of D_l, and its largest S is at
one end of the interval [min D_l, max D_l] that d = D_l alpha sweeps,
since S is convex in d. A line whose two constraints hold with a
relative slack of 1e-6 even at those maxima is strictly feasible at every
point of the set, and so are its base rows and every tangent of it,
which underestimate S. Dropping its rows leaves the QP's feasible set,
and hence each optimum, unchanged, and it can never be the line to cut.
On a 1000-bus grid 1455 of 1500 lines are screened. The loop evaluates
only the other lines; the reported violations, binding flags and mean
flows come from one evaluation of every line at the optimum, and cut
and iteration-log line ids are network line ids.

The base rows and the initial tangents are assembled once (_CutRows);
each iteration appends only the new cuts' rows, so its QP is the
previous one with rows appended, and solve_qp resumes from the previous
optimum instead of starting over.

Generator limits are tightened by eta(eps_gen) times the total wind
standard deviation, not scaled by alpha.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, ndtri

from .case_io import ChanceSpec, IterationRecord
from .errors import DomainError, InfeasibleError, IterLimitError, ValidationError
from .network import Dispatch, GapMoments, Network
from .qp import INFEASIBLE, ITER_LIMIT, QuadraticProgram, solve_qp

logger = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)
_KINDS = ("thermal", "sync")  # order of each line's pair of rows in violations()
# one tangent of S_line at d_hat: S_line(d) >= s_hat + grad * (d - d_hat)
CUT_DTYPE = np.dtype([("line", np.intp), ("iteration", np.intp), ("d_hat", float),
                      ("s_hat", float), ("grad", float)])


def eta(eps: float) -> float:
    """Gaussian tail multiplier: P(Z > eta) = eps for standard normal Z.

    Defined for eps in (0, 0.5]; eta(0.5) = 0. -ndtri(eps) avoids the
    cancellation of ndtri(1 - eps) at small eps.
    """
    eps = float(eps)
    if not 0.0 < eps <= 0.5:
        raise DomainError(f"eta requires eps in (0, 0.5], got {eps}")
    return 0.0 - float(ndtri(eps))  # +0.0, not -0.0, at eps = 0.5


def _qfun(x):
    # Gaussian upper-tail probability, elementwise
    return 0.5 * erfc(x / _SQRT2)


@dataclass(frozen=True)
class ConicTable(GapMoments):
    """Every line's two chance constraints |mean gap| + eta * S <= bound:
    the gap moments in line coordinates, the thermal bound pbar/beta (the
    sync bound is 1) and the thermal and sync multipliers eta_t, eta_s."""

    gen: np.ndarray
    offset: np.ndarray
    c: float
    d_bar: np.ndarray
    r: np.ndarray
    bound: np.ndarray
    eta_t: np.ndarray
    eta_s: np.ndarray

    def subset(self, lines: np.ndarray) -> ConicTable:
        """The table of the given lines, in their order."""
        return ConicTable(**{k: v if k == "c" else v[lines] for k, v in vars(self).items()})


def build_conic_constraints(net: Network, chance: ChanceSpec) -> ConicTable:
    """The per-line table of thermal and sync conic constraints."""
    if len(chance.eps_line) != net.n_line or len(chance.eps_gen) != net.n_gen:
        raise ValidationError("chance spec does not match network dimensions")
    sens = net.gap_sensitivity
    return ConicTable(gen=sens.gen, offset=sens.offset, c=sens.c, d_bar=sens.d_bar, r=sens.r,
                      bound=net.pbar / net.beta, eta_t=-ndtri(chance.eps_line),
                      eta_s=-ndtri(chance.eps_sync))


def violations(table: ConicTable, dispatch: Dispatch) -> np.ndarray:
    """Signed slacks, positive where violated, as line-major (thermal,
    sync) pairs: entry 2l is line l's thermal row, 2l + 1 its sync row."""
    gap, s = np.abs(table.mean(dispatch)), table.spread(dispatch)
    thermal, sync = gap + table.eta_t * s - table.bound, gap + table.eta_s * s - 1.0
    return np.column_stack([thermal, sync]).ravel()


def analytic_violation_prob(mean, spread, bound) -> np.ndarray:
    """Exact two-sided Gaussian probability that |gap| > bound, elementwise."""
    m = np.abs(mean)
    with np.errstate(all="ignore"):
        p = np.minimum(_qfun((bound - m) / spread) + _qfun((bound + m) / spread), 1.0)
    return np.where(spread <= 1e-300, (m > bound).astype(float), p)


def generator_violation_prob(p, alpha, pmin, pmax, sigma_tot: float) -> np.ndarray:
    """Two-sided probability the responding output p - alpha*W leaves its
    box, elementwise over generators."""
    sd = np.abs(alpha) * sigma_tot
    with np.errstate(all="ignore"):
        prob = np.minimum(_qfun((pmax - p) / sd) + _qfun((p - pmin) / sd), 1.0)
    outside = np.logical_or(p > pmax, p < pmin).astype(float)
    return np.where(sd <= 1e-300, outside, prob)


def expected_cost(net: Network, dispatch: Dispatch, sigma_tot_sq: float) -> float:
    """Expected quadratic cost under affine response to total wind W."""
    p, a = dispatch.p, dispatch.alpha
    return float(
        np.sum(net.cost_quad * (p * p + sigma_tot_sq * a * a))
        + net.cost_lin @ p
        + np.sum(net.cost_const)
    )


def _tangents(table: ConicTable, lines: np.ndarray, d_hat: np.ndarray, iteration: int) -> np.ndarray:
    """Cuts of S at d_hat for the given lines, as a CUT_DTYPE array, with
    slopes c (d_hat - d_bar) / S; lines whose S vanishes there get none."""
    s_hat = table.spread_at(d_hat, lines)
    at = s_hat > 1e-14
    cuts = np.empty(np.count_nonzero(at), CUT_DTYPE)
    cuts["line"], cuts["iteration"], cuts["d_hat"], cuts["s_hat"] = (
        lines[at], iteration, d_hat[at], s_hat[at])
    cuts["grad"] = table.c * (cuts["d_hat"] - table.d_bar[cuts["line"]]) / cuts["s_hat"]
    return cuts


def _largest_gap(dmat, offset, lo_p, hi_p, total: float) -> np.ndarray:
    """The largest |D_l p + offset_l| over p in [lo_p, hi_p] with
    sum(p) = total, for every row D_l of dmat.

    Either extreme of D_l p fills total - sum(lo_p) above lo_p greedily,
    from the largest D_l entry down or from the smallest up.
    """
    order = np.argsort(dmat, axis=1)
    d_sorted = np.take_along_axis(dmat, order, axis=1)
    room = np.maximum(hi_p - lo_p, 0.0)[order]
    spare = total - float(np.sum(lo_p))

    def greedy(d, room):
        # the most of sum(d * x) with 0 <= x <= room, sum(x) = spare,
        # when d is in decreasing order
        before = np.cumsum(room, axis=1) - room
        return np.sum(d * np.clip(spare - before, 0.0, room), axis=1)

    base = dmat @ lo_p + offset
    high = base + greedy(d_sorted[:, ::-1], room[:, ::-1])
    low = base - greedy(-d_sorted, room)
    return np.maximum(high, -low)


def _bindable_lines(table: ConicTable, lo_p, hi_p, total: float) -> np.ndarray:
    """Sorted ids of the lines whose thermal or sync constraint can come
    within a relative 1e-6 of its bound at some (p, alpha) with p in
    [lo_p, hi_p], sum(p) = total and alpha in the simplex.

    The mean gap is bounded in blocks of lines, which keeps the sort's
    temporary arrays near 2 MB each. With no wind, c = r = 0 and S is 0
    at both ends of [min D_l, max D_l].
    """
    dmat = table.gen
    gap = np.empty(dmat.shape[0])
    block = max(1, 2**18 // dmat.shape[1])
    for i in range(0, gap.size, block):
        rows = slice(i, i + block)
        gap[rows] = _largest_gap(dmat[rows], table.offset[rows], lo_p, hi_p, total)
    spread = np.maximum(table.spread_at(dmat.min(axis=1)), table.spread_at(dmat.max(axis=1)))
    keep = (gap + table.eta_t * spread >= (1.0 - 1e-6) * table.bound) | (
        gap + table.eta_s * spread >= 1.0 - 1e-6
    )
    return np.flatnonzero(keep)


@dataclass
class CcSolution:
    """Chance-constrained dispatch with its certification data."""

    dispatch: Dispatch
    objective: float
    status: str
    iterations: int
    iteration_log: list = field(default_factory=list)  # of IterationRecord
    objective_trace: list = field(default_factory=list)
    violated_counts: list = field(default_factory=list)
    table: ConicTable | None = None
    cuts: np.ndarray = field(default_factory=lambda: np.empty(0, CUT_DTYPE))
    violations: np.ndarray | None = None  # line-major (thermal, sync) pairs
    binding_thermal: np.ndarray | None = None
    binding_sync: np.ndarray | None = None
    mean_flow: np.ndarray | None = None


class _CutRows:
    """The QP's inequality rows over (p, alpha): the base rows of the
    given lines, then each added cut's rows in the order the cuts were
    added.

    Base rows are the zero tangent S >= 0:  +-mean <= min(bound_t, 1).
    Each cut contributes +-mean + eta * tangent(alpha) <= bound for
    every kind with eta > 0 (eta = 0 rows duplicate the base), the
    thermal kind first; a line whose two kinds share eta gets one pair
    of rows against the smaller bound.

    The rows live in one buffer with spare capacity, so adding cuts
    writes only their rows, and view() returns the rows so far without
    a copy: each QP of the loop sees the rows of the one before as its
    leading rows, in the same memory.
    """

    def __init__(self, table: ConicTable, lines: np.ndarray):
        self.table = table
        dmat, off = table.gen[lines], table.offset[lines]
        k, g = dmat.shape
        cap = np.minimum(table.bound, 1.0)
        same = np.abs(table.eta_t - table.eta_s) < 1e-15
        self._eta = np.column_stack([table.eta_t, np.where(same, 0.0, table.eta_s)])
        self._bound = np.column_stack([np.where(same, cap, table.bound), np.ones(cap.size)])
        self._a = np.zeros((2 * k, 2 * g))
        self._a[:k, :g] = dmat
        self._a[k:, :g] = -dmat
        self._b = np.concatenate([cap[lines] - off, cap[lines] + off])
        self.size = 2 * k

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows so far as (A_in, b_in), views of the buffer."""
        return self._a[: self.size], self._b[: self.size]

    def add(self, cuts: np.ndarray) -> None:
        """Append the rows of cuts, a CUT_DTYPE array."""
        dmat, off = self.table.gen, self.table.offset
        g = dmat.shape[1]
        lines, grad = cuts["line"], cuts["grad"]
        intercept = cuts["s_hat"] - grad * cuts["d_hat"]
        cut_idx, kind = np.nonzero(self._eta[lines] > 0.0)  # cut-major, thermal first
        k = lines[cut_idx]
        eta_k = self._eta[k, kind]
        rhs = self._bound[k, kind] - eta_k * intercept[cut_idx]
        end = self.size + 2 * k.size
        if end > self._b.size:
            spare = end // 4 + end - self.size
            self._a = np.concatenate([self._a[: self.size], np.zeros((spare, 2 * g))])
            self._b = np.concatenate([self._b[: self.size], np.zeros(spare)])
        a, b = self._a[self.size : end], self._b[self.size : end]
        a[0::2, :g] = dmat[k]
        a[1::2, :g] = -dmat[k]
        a[0::2, g:] = a[1::2, g:] = (eta_k * grad[cut_idx])[:, None] * dmat[k]
        b[0::2] = rhs - off[k]
        b[1::2] = rhs + off[k]
        self.size = end


def solve_cc_opf(
    net: Network,
    chance: ChanceSpec,
    tol_cut: float = 1e-7,
    max_iter: int = 200,
    add_all_violated: bool = False,
) -> CcSolution:
    """Cutting-plane solve of the chance-constrained OPF.

    Each iteration solves a QP over (p, alpha) whose inequality rows are
    the accumulated tangents of the lines that can bind, evaluates their
    true conic violations, and either terminates (all <= tol_cut) or cuts
    the most violated line (ties broken toward the lowest line id;
    add_all_violated cuts every violated line at once). Raises
    InfeasibleError if the tightened generation bounds or the QP are
    infeasible, IterLimitError if the loop does not settle within
    max_iter iterations.
    """
    g = net.n_gen
    table = build_conic_constraints(net, chance)
    eta_g = -ndtri(chance.eps_gen)

    sigma_tot_sq = float(np.sum(net.wind_sigma**2))
    sigma_tot = math.sqrt(sigma_tot_sq)

    lo_p = np.maximum(net.pmin + eta_g * sigma_tot, 0.0)
    hi_p = net.pmax - eta_g * sigma_tot
    bad = lo_p > hi_p + 1e-12
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise InfeasibleError(
            f"tightened bounds empty for generator {idx}: "
            f"[{lo_p[idx]:.6g}, {hi_p[idx]:.6g}]"
        )
    total = float(np.sum(net.demand - net.wind_mean))
    if np.sum(lo_p) > total + 1e-9 or np.sum(hi_p) < total - 1e-9:
        raise InfeasibleError(
            "tightened generation range cannot meet net demand "
            f"{total:.6g} in [{np.sum(lo_p):.6g}, {np.sum(hi_p):.6g}]"
        )

    quad = np.concatenate([2.0 * net.cost_quad, 2.0 * net.cost_quad * sigma_tot_sq])
    lin = np.concatenate([net.cost_lin, np.zeros(g)])
    a_eq = np.zeros((2, 2 * g))
    a_eq[0, :g] = 1.0
    a_eq[1, g:] = 1.0
    b_eq = np.array([total, 1.0])
    lo = np.concatenate([lo_p, np.zeros(g)])
    hi = np.concatenate([hi_p, np.full(g, np.inf)])
    c3_total = float(np.sum(net.cost_const))

    Q = np.diag(quad)
    kept = _bindable_lines(table, lo_p, hi_p, total)
    watched = table.subset(kept)  # entry l of its violations is line kept[l // 2]'s
    cuts = [_tangents(table, kept, np.zeros(kept.size), 0)]
    rows = _CutRows(table, kept)
    rows.add(cuts[0])
    log: list[IterationRecord] = []
    trace: list[float] = []
    violated_counts: list[int] = []
    sol = None

    for it in range(1, max_iter + 1):
        a_in, b_in = rows.view()
        qp = QuadraticProgram(Q=Q, c=lin, A_eq=a_eq, b_eq=b_eq, A_in=a_in, b_in=b_in, lo=lo, hi=hi)
        # each QP is the previous one with the new cuts' rows appended
        sol = solve_qp(qp, warm=sol)
        if sol.status == INFEASIBLE:
            raise InfeasibleError("chance-constrained QP relaxation is infeasible")
        if sol.status == ITER_LIMIT:
            raise IterLimitError("QP engine hit its iteration cap", iterations=it)
        dispatch = Dispatch(p=sol.x[:g], alpha=sol.x[g:])
        viol = violations(watched, dispatch)
        trace.append(sol.objective + c3_total)
        violated_counts.append(int(np.sum(viol > tol_cut)))

        if np.max(viol, initial=-np.inf) <= tol_cut:
            viol = violations(table, dispatch)
            return CcSolution(
                dispatch=dispatch,
                objective=trace[-1],
                status="optimal",
                iterations=it,
                iteration_log=log,
                objective_trace=trace,
                violated_counts=violated_counts,
                table=table,
                cuts=np.concatenate(cuts),
                violations=viol,
                binding_thermal=viol[0::2] >= -1e-6,
                binding_sync=viol[1::2] >= -1e-6,
                mean_flow=net.beta * table.mean(dispatch),
            )

        worst = int(np.argmax(viol))
        line, kind = int(kept[worst // 2]), _KINDS[worst % 2]
        log.append(
            IterationRecord(iteration=it, line=line, kind=kind, violation=float(viol[worst]))
        )
        if add_all_violated:
            lines = kept[np.unique(np.flatnonzero(viol > tol_cut) // 2)]
        else:
            lines = np.array([line])
        new = _tangents(table, lines, table.gen[lines] @ dispatch.alpha, it)
        cuts.append(new)
        rows.add(new)
        logger.info(
            "cut iteration %d: line %d %s violation %.3e (%d violated)",
            it,
            line,
            kind,
            viol[worst],
            violated_counts[-1],
        )

    raise IterLimitError(
        f"cutting-plane loop did not converge in {max_iter} iterations",
        iterations=max_iter,
    )
