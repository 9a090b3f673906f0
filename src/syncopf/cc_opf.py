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

The loop builds one QP, with the base rows and the initial tangents,
and each iteration appends only the new cuts' rows to it
(_CutRows.rows, QuadraticProgram.add_rows), so that each solve_qp after
the first resumes from the previous optimum instead of starting over.
Each QP is solved without its finish (solve_qp(finish=False)) and cut
at its unpolished iterate. Only the QP whose iterate meets tol_cut is
finished, by a solve_qp that appends nothing and takes no step; should
the finished point exceed tol_cut, the loop cuts there and goes on.
A cut is a CUT_DTYPE record held as a tuple: _tangents and
_CutRows.rows make a cut and its rows in one pass of scalar arithmetic
per line, which at the one line of a cut costs less than array code,
and CcSolution.cuts gathers the records into one array at the end.

Generator limits are tightened by eta(eps_gen) times the total wind
standard deviation, not scaled by alpha.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, ndtri

from .case_io import CUT_KINDS, ChanceSpec, iteration_rows
from .errors import DomainError, InfeasibleError, IterLimitError, ValidationError
from .network import Dispatch, GapMoments, Network
from .qp import INFEASIBLE, ITER_LIMIT, QuadraticProgram, solve_qp

logger = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)
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
    out = np.empty(2 * gap.size)
    out[0::2] = gap + table.eta_t * s - table.bound
    out[1::2] = gap + table.eta_s * s - 1.0
    return out


def outside_prob(center, sd, lo, hi) -> np.ndarray:
    """Probability that a Gaussian of mean center and standard deviation sd
    falls outside [lo, hi], elementwise; a point mass where sd vanishes."""
    with np.errstate(all="ignore"):
        prob = np.minimum(_qfun((hi - center) / sd) + _qfun((center - lo) / sd), 1.0)
    outside = np.logical_or(center > hi, center < lo).astype(float)
    return np.where(sd <= 1e-300, outside, prob)


def analytic_violation_prob(mean, spread, bound) -> np.ndarray:
    """Exact two-sided Gaussian probability that |gap| > bound, elementwise."""
    return outside_prob(np.abs(mean), spread, -bound, bound)


def generator_violation_prob(p, alpha, pmin, pmax, sigma_tot: float) -> np.ndarray:
    """Two-sided probability the responding output p - alpha*W leaves its
    box, elementwise over generators."""
    return outside_prob(p, np.abs(alpha) * sigma_tot, pmin, pmax)


def expected_cost(net: Network, dispatch: Dispatch, sigma_tot_sq: float) -> float:
    """Expected quadratic cost under affine response to total wind W."""
    p, a = dispatch.p, dispatch.alpha
    return float(
        np.sum(net.cost_quad * (p * p + sigma_tot_sq * a * a))
        + net.cost_lin @ p
        + np.sum(net.cost_const)
    )


def _tangents(table: ConicTable, lines: np.ndarray, d_hat: np.ndarray, iteration: int) -> list:
    """Cuts of S at d_hat for the given lines, as CUT_DTYPE records (tuples),
    with slopes c (d_hat - d_bar) / S; lines whose S vanishes there get none."""
    c, cuts = table.c, []
    for line, d in zip(lines.tolist(), d_hat.tolist()):
        gap, r = d - float(table.d_bar[line]), float(table.r[line])
        s_hat = math.sqrt(c * (gap * gap) + r * r)  # GapMoments.spread_at
        if s_hat > 1e-14:
            cuts.append((line, iteration, d, s_hat, c * gap / s_hat))
    return cuts


def _largest_gap(dmat, offset, lo_p, hi_p, total: float) -> np.ndarray:
    """The largest |D_l p + offset_l| over p in [lo_p, hi_p] with
    sum(p) = total, for every row D_l of dmat.

    Either extreme of D_l p fills total - sum(lo_p) above lo_p greedily,
    from the largest D_l entry down or from the smallest up.
    """
    order = np.argsort(dmat, axis=1)
    # indexing and method forms: numpy's function wrappers cost more here
    d_sorted = dmat[np.arange(dmat.shape[0])[:, None], order]
    room = np.maximum(hi_p - lo_p, 0.0)[order]
    spare = total - float(lo_p.sum())

    def greedy(d, room):
        # the most of sum(d * x) with 0 <= x <= room, sum(x) = spare,
        # when d is in decreasing order
        before = np.cumsum(room, axis=1) - room
        return (d * np.minimum(np.maximum(spare - before, 0.0), room)).sum(axis=1)

    base = dmat @ lo_p + offset
    high = base + greedy(d_sorted[:, ::-1], room[:, ::-1])
    low = base - greedy(-d_sorted, room)
    return np.maximum(high, -low)


def _bindable_lines(table: ConicTable, lo_p, hi_p, total: float) -> np.ndarray:
    """Sorted ids of the lines whose thermal or sync constraint can come
    within a relative 1e-6 of its bound at some (p, alpha) with p in
    [lo_p, hi_p], sum(p) = total and alpha in the simplex.

    The mean gap is bounded in blocks of lines, which keeps the sort's
    temporary arrays near 2 MB each. Only the lines that a cheaper bound
    cannot drop are sorted: the greedy fill adds at most sum(max(D_l, 0)
    room) and spare max(D_l, 0) to the high side, and the mirror to the
    low side, give or take 1e-9 of the terms' size for rounding. With no
    wind, c = r = 0 and S is 0 at both ends of [min D_l, max D_l].
    """
    dmat, offset = table.gen, table.offset
    d_min, d_max = dmat.min(axis=1), dmat.max(axis=1)
    spread = np.maximum(table.spread_at(d_min), table.spread_at(d_max))

    def kept(gap, rows):
        return (gap + table.eta_t[rows] * spread[rows] >= (1.0 - 1e-6) * table.bound[rows]) | (
            gap + table.eta_s[rows] * spread[rows] >= 1.0 - 1e-6)

    room, spare = np.maximum(hi_p - lo_p, 0.0), max(total - float(lo_p.sum()), 0.0)
    slack = 1e-9 * (np.maximum(d_max, -d_min) * (np.abs(lo_p).sum() + room.sum()) + np.abs(offset))
    keep = np.zeros(offset.size, bool)
    block = max(1, 2**18 // dmat.shape[1])
    for i in range(0, offset.size, block):
        rows = slice(i, i + block)
        d, base = dmat[rows], dmat[rows] @ lo_p + offset[rows]
        pos = np.maximum(d, 0.0) @ room  # sum(max(-D_l, 0) room) is pos - D_l room
        high = base + np.minimum(pos, spare * np.maximum(d_max[rows], 0.0))
        low = base - np.minimum(pos - d @ room, spare * np.maximum(-d_min[rows], 0.0))
        rest = i + np.flatnonzero(kept(np.maximum(high, -low) + slack[rows], rows))
        keep[rest] = kept(_largest_gap(dmat[rest], offset[rest], lo_p, hi_p, total), rest)
    return np.flatnonzero(keep)


@dataclass
class CcSolution:
    """Chance-constrained dispatch with its certification data."""

    dispatch: Dispatch
    objective: float
    status: str
    iterations: int
    iteration_log: list = field(default_factory=list)  # rows keyed by case_io.ITERATION_FIELDS
    objective_trace: list = field(default_factory=list)
    violated_counts: list = field(default_factory=list)
    table: ConicTable | None = None
    cuts: np.ndarray = field(default_factory=lambda: np.empty(0, CUT_DTYPE))
    violations: np.ndarray | None = None  # line-major (thermal, sync) pairs
    binding_thermal: np.ndarray | None = None
    binding_sync: np.ndarray | None = None
    mean_flow: np.ndarray | None = None


class _CutRows:
    """The QP's inequality rows over (p, alpha): base(), the rows of the
    given lines, and rows(cuts), the rows of added cuts.

    Base rows are the zero tangent S >= 0:  +-mean <= min(bound_t, 1).
    Each cut contributes +-mean + eta * tangent(alpha) <= bound for
    every kind with eta > 0 (eta = 0 rows duplicate the base), the
    thermal kind first; a line whose two kinds share eta gets one pair
    of rows against the smaller bound.
    """

    def __init__(self, table: ConicTable, lines: np.ndarray):
        self.table, self.lines = table, lines
        cap = np.minimum(table.bound, 1.0)
        same = np.abs(table.eta_t - table.eta_s) < 1e-15
        self._eta = np.column_stack([table.eta_t, np.where(same, 0.0, table.eta_s)])
        self._bound = np.column_stack([np.where(same, cap, table.bound), np.ones(cap.size)])

    def base(self) -> tuple[np.ndarray, np.ndarray]:
        """The base rows as (a, b)."""
        dmat, off = self.table.gen[self.lines], self.table.offset[self.lines]
        k, g = dmat.shape
        cap = np.minimum(self.table.bound[self.lines], 1.0)
        a = np.zeros((2 * k, 2 * g))
        a[:k, :g] = dmat
        a[k:, :g] = -dmat
        return a, np.concatenate([cap - off, cap + off])

    def rows(self, cuts: list) -> tuple[np.ndarray, list]:
        """The rows of cuts, CUT_DTYPE records, as (a, b), in cut order."""
        gen, offset = self.table.gen, self.table.offset
        g = gen.shape[1]
        a, b = np.empty((4 * len(cuts), 2 * g)), []
        for line, _, d_hat, s_hat, grad in cuts:
            intercept = s_hat - grad * d_hat
            d, off = gen[line], float(offset[line])
            for eta, bound in zip(self._eta[line].tolist(), self._bound[line].tolist()):
                if eta > 0.0:
                    rhs = bound - eta * intercept
                    i = len(b)
                    a[i, :g], a[i + 1, :g] = d, -d
                    a[i : i + 2, g:] = eta * grad * d
                    b += (rhs - off, rhs + off)
        return a[: len(b)], b


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
    max_iter iterations, ValidationError unless tol_cut is finite and
    at least 0.
    """
    if not 0.0 <= tol_cut < math.inf:  # NaN fails this too
        raise ValidationError(f"tol_cut must be finite and >= 0, got {tol_cut}")
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

    kept = _bindable_lines(table, lo_p, hi_p, total)
    watched = table.subset(kept)  # entry l of its violations is line kept[l // 2]'s
    cuts = _tangents(table, kept, np.zeros(kept.size), 0)
    cut_rows = _CutRows(table, kept)
    qp = QuadraticProgram(Q=np.diag(quad), c=lin, A_eq=a_eq, b_eq=b_eq, lo=lo, hi=hi)
    qp.add_rows(*cut_rows.base())
    qp.add_rows(*cut_rows.rows(cuts))
    log: list[tuple] = []  # (iteration, line, kind, violation) of each cut
    trace: list[float] = []
    violated_counts: list[int] = []

    for it in range(1, max_iter + 1):
        # after the first, each solve resumes from the last one's iterate,
        # and the one that meets tol_cut is finished and checked again
        sol = solve_qp(qp, finish=False)
        if sol.status == INFEASIBLE:
            raise InfeasibleError("chance-constrained QP relaxation is infeasible")
        if sol.status == ITER_LIMIT:
            raise IterLimitError("QP engine hit its iteration cap", iterations=it)
        dispatch = Dispatch(p=sol.x[:g], alpha=sol.x[g:])
        viol = violations(watched, dispatch)
        if viol.max(initial=-np.inf) <= tol_cut:
            sol = solve_qp(qp)
            dispatch = Dispatch(p=sol.x[:g], alpha=sol.x[g:])
            viol = violations(watched, dispatch)
        trace.append(sol.objective + c3_total)
        violated_counts.append(int(np.count_nonzero(viol > tol_cut)))

        if viol.max(initial=-np.inf) <= tol_cut:
            viol = violations(table, dispatch)
            return CcSolution(
                dispatch=dispatch,
                objective=trace[-1],
                status="optimal",
                iterations=it,
                iteration_log=iteration_rows(zip(*log)),
                objective_trace=trace,
                violated_counts=violated_counts,
                table=table,
                cuts=np.array(cuts, CUT_DTYPE),
                violations=viol,
                binding_thermal=viol[0::2] >= -1e-6,
                binding_sync=viol[1::2] >= -1e-6,
                mean_flow=net.beta * table.mean(dispatch),
            )

        worst = int(viol.argmax())
        line, kind = int(kept[worst // 2]), CUT_KINDS[worst % 2]
        log.append((it, line, kind, float(viol[worst])))
        if add_all_violated:
            lines = kept[np.unique(np.flatnonzero(viol > tol_cut) // 2)]
        else:
            lines = np.array([line])
        new = _tangents(table, lines, table.gen[lines] @ dispatch.alpha, it)
        cuts += new
        qp.add_rows(*cut_rows.rows(new))
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
