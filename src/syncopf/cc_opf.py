"""Chance-constrained OPF with affine wind balancing.

Wind deviations at the sigma-positive buses are independent Gaussians;
generators absorb the aggregate imbalance through participation factors
alpha (p_i(w) = p_i - alpha_i * sum(w), with sum(alpha) = 1). Angle
differences are then Gaussian. Both moments come from one per-line
table, the network's GapSensitivity: with D_l and W_l the sensitivities
of line l's angle gap to injections at the generator buses and at the
wind buses, the line's angle gap is

    D_l p + offset_l + (W_l - D_l alpha) w

so its standard deviation is

    S_l(alpha) = || sigma * (W_l - D_l alpha) ||

Each line carries two conic constraints,

    |mean gap| + eta(eps_line) * S  <=  pbar/beta   (thermal)
    |mean gap| + eta(eps_sync) * S  <=  1           (synchronization)

with eta the Gaussian tail multiplier. build_conic_constraints returns
both for every line as one ConicTable; violations, probabilities and
tangents are array expressions over it. S is convex in alpha, so the
conic terms are handled by cutting planes: tangents of S are substituted
into the linear rows and the QP is re-solved until no constraint is
violated beyond tol_cut. Tangent substitution keeps the active set of
the dense QP engine at the size of the truly binding rows; an auxiliary
epigraph variable per line would pin one always-active row per line and
scale cubically on large cases. The feasible sets are identical.

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
from .network import Dispatch, GapSensitivity, Network
from .qp import INFEASIBLE, ITER_LIMIT, QuadraticProgram, solve_qp

logger = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)
_KINDS = ("thermal", "sync")  # order of each line's pair of rows in violations()


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
class ConicTable(GapSensitivity):
    """Every line's two chance constraints |mean gap| + eta * S <= bound.

    Extends the network's gap sensitivities with the thermal bound
    pbar/beta (the sync bound is 1) and the per-line thermal and sync
    multipliers eta_t and eta_s.
    """

    bound: np.ndarray
    eta_t: np.ndarray
    eta_s: np.ndarray


def build_conic_constraints(net: Network, chance: ChanceSpec) -> ConicTable:
    """The per-line table of thermal and sync conic constraints."""
    if len(chance.eps_line) != net.n_line or len(chance.eps_gen) != net.n_gen:
        raise ValidationError("chance spec does not match network dimensions")
    sens = net.gap_sensitivity
    return ConicTable(
        gen=sens.gen,
        wind=sens.wind,
        offset=sens.offset,
        sigma=sens.sigma,
        bound=net.pbar / net.beta,
        eta_t=-ndtri(chance.eps_line),
        eta_s=-ndtri(chance.eps_sync),
    )


def violations(table: ConicTable, dispatch: Dispatch) -> np.ndarray:
    """Signed slacks, positive where violated, as line-major (thermal,
    sync) pairs: entry 2l is line l's thermal row, 2l + 1 its sync row."""
    gap = np.abs(table.mean(dispatch))
    s = table.spread(dispatch)
    return np.column_stack(
        [gap + table.eta_t * s - table.bound, gap + table.eta_s * s - 1.0]
    ).ravel()


def analytic_violation_prob(mean, spread, bound) -> np.ndarray:
    """Exact two-sided Gaussian probability that |gap| > bound, elementwise."""
    m = np.abs(mean)
    with np.errstate(all="ignore"):
        p = np.minimum(_qfun((bound - m) / spread) + _qfun((bound + m) / spread), 1.0)
    return np.where(spread <= 1e-300, (m > bound).astype(float), p)


def one_sided_violation_probs(mean, spread, bound) -> tuple:
    """(upper, lower) tail probabilities of the signed gap, elementwise."""
    with np.errstate(all="ignore"):
        upper, lower = _qfun((bound - mean) / spread), _qfun((bound + mean) / spread)
    flat = spread <= 1e-300
    return (
        np.where(flat, (mean > bound).astype(float), upper),
        np.where(flat, (-mean > bound).astype(float), lower),
    )


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


@dataclass(frozen=True)
class Cut:
    """Tangent underestimator of S_l at response level d_hat."""

    line: int
    iteration: int
    d_hat: float
    s_hat: float
    grad: float

    def value(self, d: float) -> float:
        return self.s_hat + self.grad * (d - self.d_hat)


def _tangents(table: ConicTable, lines: np.ndarray, d_hat: np.ndarray, iteration: int) -> list:
    """Cuts of S at d_hat for the given lines; lines whose S vanishes there
    have no tangent and get none."""
    r = table.sigma * (table.wind[lines] - d_hat[:, None])
    s_hat = np.linalg.norm(r, axis=1)
    grad = -np.sum(table.sigma * r, axis=1)
    return [
        Cut(line=int(k), iteration=iteration, d_hat=float(d), s_hat=float(s), grad=float(gs / s))
        for k, d, s, gs in zip(lines, d_hat, s_hat, grad)
        if s > 1e-14
    ]


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
    cuts: list = field(default_factory=list)
    violations: np.ndarray | None = None  # line-major (thermal, sync) pairs
    binding_thermal: np.ndarray | None = None
    binding_sync: np.ndarray | None = None
    mean_flow: np.ndarray | None = None


class _CutRows:
    """The QP's inequality rows over (p, alpha): the base rows, then each
    added cut's rows in the order the cuts were added.

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

    def __init__(self, table: ConicTable):
        self.table = table
        dmat, off = table.gen, table.offset
        m, g = dmat.shape
        cap = np.minimum(table.bound, 1.0)
        same = np.abs(table.eta_t - table.eta_s) < 1e-15
        self._eta = np.column_stack([table.eta_t, np.where(same, 0.0, table.eta_s)])
        self._bound = np.column_stack([np.where(same, cap, table.bound), np.ones(m)])
        self._a = np.zeros((2 * m, 2 * g))
        self._a[:m, :g] = dmat
        self._a[m:, :g] = -dmat
        self._b = np.concatenate([cap - off, cap + off])
        self.size = 2 * m

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows so far as (A_in, b_in), views of the buffer."""
        return self._a[: self.size], self._b[: self.size]

    def add(self, cuts: list) -> None:
        """Append the rows of cuts."""
        dmat, off = self.table.gen, self.table.offset
        g = dmat.shape[1]
        lines = np.array([c.line for c in cuts], dtype=int)
        grad = np.array([c.grad for c in cuts])
        intercept = np.array([c.s_hat - c.grad * c.d_hat for c in cuts])
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
    the accumulated tangents, evaluates the true conic violations, and
    either terminates (all <= tol_cut) or cuts the most violated line
    (ties broken toward the lowest line id; add_all_violated cuts every
    violated line at once). Raises InfeasibleError if the tightened
    generation bounds or the QP are infeasible, IterLimitError if the
    loop does not settle within max_iter iterations.
    """
    g, m = net.n_gen, net.n_line
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
    cuts: list[Cut] = _tangents(table, np.arange(m), np.zeros(m), 0)
    rows = _CutRows(table)
    rows.add(cuts)
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
        viol = violations(table, dispatch)
        trace.append(sol.objective + c3_total)
        violated_counts.append(int(np.sum(viol > tol_cut)))

        worst = int(np.argmax(viol))
        if viol[worst] <= tol_cut:
            return CcSolution(
                dispatch=dispatch,
                objective=trace[-1],
                status="optimal",
                iterations=it,
                iteration_log=log,
                objective_trace=trace,
                violated_counts=violated_counts,
                table=table,
                cuts=cuts,
                violations=viol,
                binding_thermal=viol[0::2] >= -1e-6,
                binding_sync=viol[1::2] >= -1e-6,
                mean_flow=net.beta * table.mean(dispatch),
            )

        line, kind = worst // 2, _KINDS[worst % 2]
        log.append(
            IterationRecord(iteration=it, line=line, kind=kind, violation=float(viol[worst]))
        )
        if add_all_violated:
            lines = np.unique(np.flatnonzero(viol > tol_cut) // 2)
        else:
            lines = np.array([line])
        new = _tangents(table, lines, table.gen[lines] @ dispatch.alpha, it)
        cuts += new
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
