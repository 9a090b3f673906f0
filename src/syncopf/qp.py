"""Dense convex quadratic programming by the dual active-set method of
Goldfarb and Idnani.

Solves  min 1/2 x'Qx + c'x  subject to  A_eq x = b_eq, A_in x <= b_in,
lo <= x <= hi.  The method starts from the unconstrained minimizer,
repeatedly picks the most violated constraint, and takes primal/dual
steps that keep the working set optimal.  Every intermediate iterate is
dual feasible, so no phase-1 is needed and infeasibility is detected as
an unbounded dual step.

The working set (active rows N, one per column, in the internal form
a'x >= b) is carried by one factorization.  With Q = L L' and the QR
factorization L^{-1} N = Q1 R, the solver keeps

    J = L^{-T} [Q1 Q2]   (n x n)   and   R   (q x q, upper triangular)

so J's first q columns belong to the active rows and the rest span the
null space of N' in the metric of Q.  It starts from J = L^{-T} and an
empty R.  For a candidate row a, with d = J'a, the primal step is
z = J[:, q:] d[q:] and the dual step is r = R^{-1} d[:q].  Adding a row
applies one Householder reflection to J[:, q:], which zeroes d[q+1:],
and appends d[:q+1] as R's new column.  Dropping row i deletes column i
of R and returns it to triangular form with Givens rotations on
adjacent rows, applied to the matching column pairs of J as well.
Neither update forms N, Q^{-1}N or N Q^{-1} N'.

A final KKT polish (one direct solve on the active set, with a step of
iterative refinement) follows the iteration.  The iterates accumulate
roundoff over the adds and drops, and an active bound can end a few ulps
outside its limit: without the polish, case9's DC-OPF leaves a generator
one ulp above pmax, and its reported prob_bounds reads 1 instead of 0.

Sources: D. Goldfarb and A. Idnani, "A numerically stable dual method
for solving strictly convex quadratic programs", Math. Programming 27
(1983) 1-33; M. J. D. Powell, "On the quadratic programming algorithm
of Goldfarb and Idnani", Math. Programming Study 25 (1985) 46-61.

Dual sign convention at optimality:

    Q x + c + A_in' duals_in - A_eq' duals_eq
        - duals_lo + duals_hi = 0,   duals_in, duals_lo, duals_hi >= 0

so for min x^2 s.t. x >= 1 (a lower bound) the bound dual is 2, and for
min x^2 + y^2 s.t. x + y = 1 the equality dual is 1.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import NumericalBreakdownError

logger = logging.getLogger(__name__)

_REG = 1e-10
TOL_FEAS = 1e-8  # largest violation of an inequality row left at the end
TOL_KKT = 1e-8  # KKT residual above 100 * TOL_KKT is logged as a warning
_STEPS_PER_ROW = 10  # step cap: this many per variable and constraint row


@dataclass
class QuadraticProgram:
    """Problem data. Missing constraint blocks may be left as None."""

    Q: np.ndarray
    c: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_in: np.ndarray | None = None
    b_in: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        if self.Q.shape != (n, n):
            raise ValueError(f"Q shape {self.Q.shape} inconsistent with c length {n}")
        if not np.allclose(self.Q, self.Q.T, atol=1e-10):
            raise ValueError("Q must be symmetric")
        for name in ("A_eq", "A_in"):
            a = getattr(self, name)
            if a is not None:
                a = np.atleast_2d(np.asarray(a, dtype=float))
                if a.shape[1] != n:
                    raise ValueError(f"{name} has {a.shape[1]} columns, expected {n}")
                setattr(self, name, a)
        if (self.A_eq is None) != (self.b_eq is None):
            raise ValueError("A_eq and b_eq must be given together")
        if (self.A_in is None) != (self.b_in is None):
            raise ValueError("A_in and b_in must be given together")
        if self.b_eq is not None:
            self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
            if self.b_eq.size != self.A_eq.shape[0]:
                raise ValueError("b_eq length mismatch")
        if self.b_in is not None:
            self.b_in = np.asarray(self.b_in, dtype=float).ravel()
            if self.b_in.size != self.A_in.shape[0]:
                raise ValueError("b_in length mismatch")
        if self.lo is not None:
            self.lo = np.asarray(self.lo, dtype=float).ravel()
            if self.lo.size != n:
                raise ValueError("lo length mismatch")
        if self.hi is not None:
            self.hi = np.asarray(self.hi, dtype=float).ravel()
            if self.hi.size != n:
                raise ValueError("hi length mismatch")

    @property
    def n(self) -> int:
        return self.c.size


@dataclass
class QpSolution:
    x: np.ndarray
    status: str
    objective: float
    duals_eq: np.ndarray
    duals_in: np.ndarray
    duals_lo: np.ndarray
    duals_hi: np.ndarray
    iterations: int
    kkt_residual: float = 0.0


OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
ITER_LIMIT = "IterLimit"


class _Rows:
    """Stacked constraint rows in the internal form  a'x >= b.

    Order: equalities first (sign-flipped as needed during the solve),
    then user inequalities (negated), then lower bounds, then upper
    bounds (negated). Keeps bookkeeping for mapping duals back out.
    """

    def __init__(self, qp: QuadraticProgram):
        n = qp.n
        blocks_a: list[np.ndarray] = []
        blocks_b: list[np.ndarray] = []
        self.n_eq = 0 if qp.A_eq is None else qp.A_eq.shape[0]
        if qp.A_eq is not None:
            blocks_a.append(qp.A_eq)
            blocks_b.append(qp.b_eq)
        self.n_in = 0 if qp.A_in is None else qp.A_in.shape[0]
        if qp.A_in is not None:
            blocks_a.append(-qp.A_in)
            blocks_b.append(-qp.b_in)
        self.lo_idx = np.array([], dtype=int)
        self.hi_idx = np.array([], dtype=int)
        if qp.lo is not None:
            self.lo_idx = np.flatnonzero(np.isfinite(qp.lo))
            if self.lo_idx.size:
                rows = np.zeros((self.lo_idx.size, n))
                rows[np.arange(self.lo_idx.size), self.lo_idx] = 1.0
                blocks_a.append(rows)
                blocks_b.append(qp.lo[self.lo_idx])
        if qp.hi is not None:
            self.hi_idx = np.flatnonzero(np.isfinite(qp.hi))
            if self.hi_idx.size:
                rows = np.zeros((self.hi_idx.size, n))
                rows[np.arange(self.hi_idx.size), self.hi_idx] = -1.0
                blocks_a.append(rows)
                blocks_b.append(-qp.hi[self.hi_idx])
        if blocks_a:
            self.A = np.vstack(blocks_a)
            self.b = np.concatenate(blocks_b)
        else:
            self.A = np.zeros((0, n))
            self.b = np.zeros(0)
        self.m = self.A.shape[0]
        # internal sign flips applied to equality rows (see add_constraint)
        self.flip = np.ones(self.m)

    def is_eq(self, row: int) -> bool:
        return row < self.n_eq


def solve_qp(qp: QuadraticProgram) -> QpSolution:
    """Solve a convex QP and measure the result against its KKT system.

    Status Optimal means no inequality row is violated by more than
    TOL_FEAS at the end; kkt_residual then holds the max-norm KKT
    residual (stationarity net of the roundoff of its terms and
    complementarity relative to the dual and the row, see _kkt_residual
    and _complementarity), and one above 100 * TOL_KKT is logged as a warning.
    Deterministic for identical input.
    """
    n = qp.n
    rows = _Rows(qp)
    max_iter = _STEPS_PER_ROW * (n + rows.m)

    try:
        L = np.linalg.cholesky(qp.Q)
    except np.linalg.LinAlgError:
        logger.info("Q not positive definite; regularizing with %g * I", _REG)
        try:
            L = np.linalg.cholesky(qp.Q + _REG * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError("cholesky failed on regularized Q") from exc

    J = np.linalg.inv(L).T
    R = np.zeros((n, n))  # R[:q, :q] is the active rows' triangular factor
    x = -J @ (J.T @ qp.c)
    active: list[int] = []
    lam: list[float] = []

    iters = 0
    status = OPTIMAL

    def add_constraint(p: int) -> str:
        nonlocal x, iters
        sign = 1.0
        resid = rows.b[p] - rows.A[p] @ x
        if rows.is_eq(p) and resid < 0:
            sign = -1.0
        rows.flip[p] = sign
        a_new = rows.A[p] * sign
        b_new = rows.b[p] * sign
        lam_p = 0.0
        while True:
            iters += 1
            if iters > max_iter:
                return ITER_LIMIT
            q = len(active)
            d = J.T @ a_new
            z = J[:, q:] @ d[q:]
            r = dtrtrs(R[:q, :q], d[:q])[0] if q else d[:0]
            znp = a_new @ z
            viol = b_new - a_new @ x
            # dual blocking: only inequality rows can leave the active set
            t1 = np.inf
            blocker = -1
            for idx, j in enumerate(active):
                if rows.is_eq(j):
                    continue
                if r[idx] > 1e-12:
                    ratio = lam[idx] / r[idx]
                    if ratio < t1 - 1e-15:
                        t1 = ratio
                        blocker = idx
            if znp <= 1e-13:
                # no primal progress possible along this constraint
                if not np.isfinite(t1):
                    return INFEASIBLE
                t = t1
                for idx in range(len(active)):
                    lam[idx] -= t * r[idx]
                lam_p += t
                _drop(blocker)
                continue
            t2 = viol / znp
            t = min(t1, t2)
            if not np.isfinite(t):
                return INFEASIBLE
            x = x + t * z
            for idx in range(len(active)):
                lam[idx] -= t * r[idx]
            lam_p += t
            if t2 <= t1:
                _add(p, d, lam_p)
                return OPTIMAL
            _drop(blocker)

    def _add(p: int, d: np.ndarray, lam_p: float) -> None:
        # reflect d[q:] onto its first axis, so J'a has no entries past q
        q = len(active)
        v = d[q:].copy()
        head = -np.copysign(np.linalg.norm(v), v[0])
        v[0] -= head
        J[:, q:] -= np.outer(J[:, q:] @ v, v * (2.0 / (v @ v)))
        R[:q, q] = d[:q]
        R[q, q] = head
        active.append(p)
        lam.append(lam_p)

    def _drop(idx: int) -> None:
        # delete R's column idx, then rotate the Hessenberg rest back to
        # triangular form, turning J's column pairs alike
        q = len(active)
        R[:q, idx : q - 1] = R[:q, idx + 1 : q]
        R[:q, q - 1] = 0.0
        for k in range(idx, q - 1):
            h = np.hypot(R[k, k], R[k + 1, k])
            rot = np.array([[R[k, k], R[k + 1, k]], [-R[k + 1, k], R[k, k]]]) / h
            R[k : k + 2, k : q - 1] = rot @ R[k : k + 2, k : q - 1]
            R[k + 1, k] = 0.0
            J[:, k : k + 2] = J[:, k : k + 2] @ rot.T
        del active[idx]
        del lam[idx]

    # equalities first (pinned even when already satisfied), then
    # most-violated inequalities
    for p in range(rows.n_eq):
        status = add_constraint(p)
        if status != OPTIMAL:
            break

    if status == OPTIMAL:
        while True:
            if rows.m > rows.n_eq:
                viol = rows.b[rows.n_eq:] - rows.A[rows.n_eq:] @ x
                p_rel = int(np.argmax(viol))
                worst = viol[p_rel]
            else:
                worst = -np.inf
            if worst <= TOL_FEAS:
                break
            if iters > max_iter:
                status = ITER_LIMIT
                break
            p = rows.n_eq + p_rel
            if p in active:
                # numerically re-violated active row; nudge tolerance
                if worst <= 10 * TOL_FEAS:
                    break
                status = ITER_LIMIT
                break
            status = add_constraint(p)
            if status != OPTIMAL:
                break

    duals = np.zeros(rows.m)
    for idx, j in enumerate(active):
        duals[j] = lam[idx] * rows.flip[j]

    if status == OPTIMAL and active:
        x, duals = _polish(qp, rows, active, x, duals)

    sol = _package(qp, rows, x, duals, status, iters)
    if status == OPTIMAL:
        sol.kkt_residual = _kkt_residual(qp, sol)
        if sol.kkt_residual > 100 * TOL_KKT:
            logger.warning("KKT residual %.3e above tolerance", sol.kkt_residual)
    return sol


def _polish(qp, rows, active, x, duals):
    """Re-solve the equality-constrained KKT system on the active set.

    The active-set iteration accumulates roundoff over many drops and
    adds; one direct solve (plus a refinement pass) restores residuals
    to machine-level accuracy without changing the active set.
    """
    n = qp.n
    act = sorted(active)
    N = rows.A[act]
    k = len(act)
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = qp.Q
    kkt[:n, n:] = N.T
    kkt[n:, :n] = N
    rhs = np.concatenate([-qp.c, rows.b[act]])
    try:
        sol = np.linalg.solve(kkt, rhs)
        # one step of iterative refinement
        resid = rhs - kkt @ sol
        sol = sol + np.linalg.solve(kkt, resid)
    except np.linalg.LinAlgError:
        return x, duals
    x_new = sol[:n]
    # stationarity here reads Qx + c + N'y = 0; internal duals satisfy
    # Qx + c - N'd = 0, so d = -y
    y = sol[n:]
    duals_new = duals.copy()
    for i, j in enumerate(act):
        duals_new[j] = -y[i]
    # reject the polish if it breaks sign or feasibility
    ineq = [j for j in act if not rows.is_eq(j)]
    if any(duals_new[j] < -1e-9 for j in ineq):
        return x, duals
    if rows.m:
        worst = np.max(rows.b - rows.A @ x_new) if rows.m else 0.0
        eqr = (
            np.max(np.abs(rows.b[: rows.n_eq] - rows.A[: rows.n_eq] @ x_new))
            if rows.n_eq
            else 0.0
        )
        if worst > 1e-8 or eqr > 1e-8:
            return x, duals
    return x_new, duals_new


def _package(qp, rows, x, duals, status, iters) -> QpSolution:
    n = qp.n
    n_eq, n_in = rows.n_eq, rows.n_in
    duals_eq = duals[:n_eq].copy()
    duals_in = duals[n_eq : n_eq + n_in].copy()
    duals_lo = np.zeros(n)
    duals_hi = np.zeros(n)
    ofs = n_eq + n_in
    if rows.lo_idx.size:
        duals_lo[rows.lo_idx] = duals[ofs : ofs + rows.lo_idx.size]
        ofs += rows.lo_idx.size
    if rows.hi_idx.size:
        duals_hi[rows.hi_idx] = duals[ofs : ofs + rows.hi_idx.size]
    obj = 0.5 * x @ qp.Q @ x + qp.c @ x
    return QpSolution(
        x=x,
        status=status,
        objective=float(obj),
        duals_eq=duals_eq,
        duals_in=duals_in,
        duals_lo=duals_lo,
        duals_hi=duals_hi,
        iterations=iters,
    )


def _kkt_residual(qp: QuadraticProgram, sol: QpSolution) -> float:
    """Max-norm KKT residual: stationarity, feasibility, complementarity.

    A stationarity entry sums k terms, and with duals near 1e9 they cancel
    only to about k * eps times their summed magnitude.  That roundoff bound
    is taken off each entry before the max, so a residual of the size of
    roundoff reads 0 while an error above it shows at its full size.
    """
    x = sol.x
    grad = qp.Q @ x + qp.c
    size = np.abs(qp.Q) @ np.abs(x) + np.abs(qp.c)
    if qp.A_in is not None:
        grad = grad + qp.A_in.T @ sol.duals_in
        held = np.flatnonzero(sol.duals_in)  # most rows hold no dual and add nothing
        size = size + np.abs(sol.duals_in[held]) @ np.abs(qp.A_in[held])
    if qp.A_eq is not None:
        grad = grad - qp.A_eq.T @ sol.duals_eq
        size = size + np.abs(qp.A_eq.T) @ np.abs(sol.duals_eq)
    grad = grad - sol.duals_lo + sol.duals_hi
    size = size + np.abs(sol.duals_lo) + np.abs(sol.duals_hi)
    terms = x.size + len(sol.duals_in) + len(sol.duals_eq) + 2
    res = float(np.max(np.abs(grad) - terms * np.finfo(float).eps * size, initial=0.0))
    if qp.A_eq is not None and qp.A_eq.shape[0]:
        res = max(res, float(np.max(np.abs(qp.A_eq @ x - qp.b_eq))))
    if qp.A_in is not None and qp.A_in.shape[0]:
        ax = qp.A_in @ x
        slack = qp.b_in - ax
        size = np.abs(ax) + np.abs(qp.b_in)
        res = max(res, float(np.max(-slack.clip(max=0.0), initial=0.0)))
        res = max(res, _complementarity(sol.duals_in, slack, size))
        res = max(res, float(np.max(-sol.duals_in, initial=0.0)))
    if qp.lo is not None:
        gap = x - qp.lo
        fin = np.isfinite(qp.lo)
        if fin.any():
            res = max(res, float(np.max(-gap[fin].clip(max=0.0), initial=0.0)))
            size = np.abs(x[fin]) + np.abs(qp.lo[fin])
            res = max(res, _complementarity(sol.duals_lo[fin], gap[fin], size))
    if qp.hi is not None:
        gap = qp.hi - x
        fin = np.isfinite(qp.hi)
        if fin.any():
            res = max(res, float(np.max(-gap[fin].clip(max=0.0), initial=0.0)))
            size = np.abs(x[fin]) + np.abs(qp.hi[fin])
            res = max(res, _complementarity(sol.duals_hi[fin], gap[fin], size))
    return res


def _complementarity(dual, slack, size):
    """Largest |dual * slack| / (1 + |dual| * size), size being the
    magnitude of the terms whose difference is the slack.

    An active row's slack is known only to the roundoff of its size, and
    a large dual would magnify that roundoff in the plain product; a
    nonzero dual on a row with real slack still reads near
    |slack| / size, or |dual * slack| for a small dual.
    """
    return float(np.max(np.abs(dual * slack) / (1.0 + np.abs(dual) * size), initial=0.0))
