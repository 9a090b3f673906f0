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

A QP grows by appending inequality rows (QuadraticProgram.add_rows),
and a solve after rows were appended resumes from where the QP's last
Optimal solve ended: its J, R, unpolished x, active rows, multipliers
and equality sign flips, used in place, with the active bound rows
renumbered past the new rows.  Appended rows leave that state dual
feasible: x still minimizes the objective on the active rows and the
multipliers stay nonnegative, so the most-violated-row loop just
continues, and at first only the new rows can be violated beyond
TOL_FEAS.  A cold solve is the same loop started from an empty working
set; it is taken by a QP's first solve, after a solve that ended other
than Optimal, and when no row was appended since the last solve.

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
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import NumericalBreakdownError

logger = logging.getLogger(__name__)

_REG = 1e-10
TOL_FEAS = 1e-8  # largest violation of an inequality row left at the end
TOL_KKT = 1e-8  # KKT residual above 100 * TOL_KKT is logged as a warning
_EPS = np.finfo(float).eps
_STEPS_PER_ROW = 10  # step cap: this many per variable and constraint row


@dataclass(frozen=True, eq=False)
class QuadraticProgram:
    """Problem data. Missing constraint blocks may be left as None.

    The QP holds read-only copies of its blocks. add_rows appends
    inequality rows, the one change it takes after construction.
    """

    Q: np.ndarray
    c: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_in: np.ndarray | None = None
    b_in: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    _rows: _Rows = field(init=False, repr=False)

    def __post_init__(self):
        Q, c = np.atleast_2d(np.array(self.Q, dtype=float)), _vector(self.c)
        n, blocks = c.size, {"Q": Q, "c": c}
        if Q.shape != (n, n):
            raise ValueError(f"Q shape {Q.shape} inconsistent with c length {n}")
        # the exact test settles the usual, exactly symmetric Q at a tenth of the cost
        if not (np.array_equal(Q, Q.T) or np.allclose(Q, Q.T, atol=1e-10)):
            raise ValueError("Q must be symmetric")
        for a_name, b_name in (("A_eq", "b_eq"), ("A_in", "b_in")):
            a, b = getattr(self, a_name), getattr(self, b_name)
            if (a is None) != (b is None):
                raise ValueError(f"{a_name} and {b_name} must be given together")
            if a is not None:
                a, blocks[b_name] = _block(a, b, n, a_name, b_name)
                blocks[a_name] = a.copy()
        for name in ("lo", "hi"):
            if getattr(self, name) is not None:
                blocks[name] = _vector(getattr(self, name))
                if blocks[name].size != n:
                    raise ValueError(f"{name} length mismatch")
        A_in, b_in = blocks.pop("A_in", None), blocks.pop("b_in", None)
        for name, v in blocks.items():
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_rows", _Rows(self, A_in, b_in))
        self._show_rows()

    @property
    def n(self) -> int:
        return self.c.size

    def add_rows(self, a, b) -> None:
        """Append the inequality rows a x <= b, checked as A_in and b_in are."""
        self._rows.append(*_block(a, b, self.n, "a", "b"))
        self._show_rows()

    def _show_rows(self) -> None:
        object.__setattr__(self, "A_in", self._rows.A_in)
        object.__setattr__(self, "b_in", self._rows.b_in)


def _vector(v) -> np.ndarray:
    """A 1-D float copy of v."""
    return np.array(v, dtype=float).ravel()


def _block(a, b, n: int, a_name: str, b_name: str) -> tuple[np.ndarray, np.ndarray]:
    """a, of n columns, as a float array, and a float copy of b, of a's row count."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != n:
        raise ValueError(f"{a_name} has {a.shape[1]} columns, expected {n}")
    b = _vector(b)
    if b.size != a.shape[0]:
        raise ValueError(f"{b_name} length mismatch")
    return a, b


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
    """The constraint rows in the internal form  a'x >= b.

    Order: equalities first (sign-flipped as needed during the solve),
    then user inequalities (negated), then lower bounds, then upper
    bounds (negated). Nothing is stacked: a row is read from its block of
    the QP when it enters the working set, and a bound row stays the unit
    vector it stands for, so its residual b - a'x is lo - x (or x - hi)
    exactly.

    The user inequalities fill a buffer with spare capacity, whose rows
    so far the QP shows as read-only A_in and b_in; appending renumbers
    the bound rows. end is the working set of the last, Optimal, solve.
    """

    def __init__(self, qp: QuadraticProgram, A_in: np.ndarray | None, b_in: np.ndarray | None):
        # qp's blocks, not qp, which holds this object and is freed with it
        self.n, self.A_eq, self.b_eq = qp.n, qp.A_eq, qp.b_eq
        self.n_eq = 0 if qp.A_eq is None else qp.A_eq.shape[0]
        lo = np.full(qp.n, -np.inf) if qp.lo is None else qp.lo
        hi = np.full(qp.n, np.inf) if qp.hi is None else qp.hi
        self.lo_idx = np.flatnonzero(np.isfinite(lo))
        self.hi_idx = np.flatnonzero(np.isfinite(hi))
        self.lo, self.hi = lo[self.lo_idx], hi[self.hi_idx]
        self.m = self.n_eq + self.lo_idx.size + self.hi_idx.size
        self.n_in, self.A_in, self.b_in, self.end = 0, None, None, None  # end: a _WorkingSet
        self._a, self._b = (np.zeros((0, qp.n)), np.zeros(0)) if A_in is None else (A_in, b_in)
        if A_in is not None:
            self._show(b_in.size)

    def append(self, a: np.ndarray, b: np.ndarray) -> None:
        """Add the rows a x <= b after the user inequalities."""
        start, end = self.n_in, self.n_in + b.size
        if end > self._b.size:
            spare = end // 4 + end - start
            self._a = np.concatenate([self._a[:start], np.zeros((spare, self.n))])
            self._b = np.concatenate([self._b[:start], np.zeros(spare)])
        self._a[start:end], self._b[start:end] = a, b
        self._show(end)

    def _show(self, n_in: int) -> None:
        # the buffer's first n_in rows become A_in and b_in, read-only
        self.m, self.n_in = self.m + n_in - self.n_in, n_in
        self.A_in, self.b_in = self._a[:n_in], self._b[:n_in]
        self.A_in.flags.writeable = self.b_in.flags.writeable = False

    def row(self, p: int) -> tuple[np.ndarray, float]:
        """Row p as (a, b)."""
        if p < self.n_eq:
            return self.A_eq[p], self.b_eq[p]
        p -= self.n_eq
        if p < self.n_in:
            return -self.A_in[p], -self.b_in[p]
        p -= self.n_in
        a = np.zeros(self.n)
        if p < self.lo_idx.size:
            a[self.lo_idx[p]] = 1.0
            return a, self.lo[p]
        p -= self.lo_idx.size
        a[self.hi_idx[p]] = -1.0
        return a, -self.hi[p]

    def violations(self, x: np.ndarray) -> np.ndarray:
        """b - a'x over every row but the equalities, in row order."""
        ineq = self.A_in @ x - self.b_in if self.n_in else np.zeros(0)
        return np.concatenate([ineq, self.lo - x[self.lo_idx], x[self.hi_idx] - self.hi])


@dataclass
class _WorkingSet:
    """The dual iterate of Goldfarb and Idnani on the rows of one QP.

    x minimizes the objective subject to the active rows held as
    equalities; lam are their multipliers (internal sign, >= 0 on
    inequality rows), J and R the factorization of the module docstring,
    and flip the sign applied to each equality row when it was pinned.
    """

    J: np.ndarray
    R: np.ndarray  # R[:q, :q] is the active rows' triangular factor
    x: np.ndarray
    active: list[int]
    lam: list[float]
    flip: np.ndarray
    n_in: int  # the user inequalities when active was last numbered
    iters: int = 0  # steps taken by this solve

    @classmethod
    def empty(cls, qp: QuadraticProgram, rows: _Rows) -> _WorkingSet:
        """The unconstrained minimizer with no row active."""
        n = qp.n
        try:
            L = np.linalg.cholesky(qp.Q)
        except np.linalg.LinAlgError:
            logger.info("Q not positive definite; regularizing with %g * I", _REG)
            try:
                L = np.linalg.cholesky(qp.Q + _REG * np.eye(n))
            except np.linalg.LinAlgError as exc:
                raise NumericalBreakdownError("cholesky failed on regularized Q") from exc
        J = np.linalg.inv(L).T
        return cls(J, np.zeros((n, n)), -J @ (J.T @ qp.c), [], [], np.ones(rows.n_eq), rows.n_in)

    def resume(self, rows: _Rows) -> None:
        """Continue on rows: active bound rows move past the rows appended since."""
        end, shift = rows.n_eq + self.n_in, rows.n_in - self.n_in
        self.active = [j + shift if j >= end else j for j in self.active]
        self.n_in, self.iters = rows.n_in, 0

    def run(self, rows: _Rows) -> str:
        """Pin the equalities not yet active, then add the most violated
        row until none is violated by more than TOL_FEAS."""
        max_iter = _STEPS_PER_ROW * (rows.n + rows.m)
        for p in range(rows.n_eq):
            # pinned even when already satisfied
            if p not in self.active:
                status = self._add_constraint(rows, p, max_iter)
                if status != OPTIMAL:
                    return status
        while True:
            viol = rows.violations(self.x)
            if not viol.size:
                return OPTIMAL
            p_rel = int(viol.argmax())
            worst = viol[p_rel]
            if worst <= TOL_FEAS:
                return OPTIMAL
            if self.iters > max_iter:
                return ITER_LIMIT
            p = rows.n_eq + p_rel
            if p in self.active:
                # numerically re-violated active row; nudge tolerance
                return OPTIMAL if worst <= 10 * TOL_FEAS else ITER_LIMIT
            status = self._add_constraint(rows, p, max_iter)
            if status != OPTIMAL:
                return status

    def _add_constraint(self, rows: _Rows, p: int, max_iter: int) -> str:
        a_new, b_new = rows.row(p)
        if p < rows.n_eq:
            self.flip[p] = -1.0 if b_new - a_new @ self.x < 0 else 1.0
            a_new = a_new * self.flip[p]
            b_new = b_new * self.flip[p]
        J, R, active, lam = self.J, self.R, self.active, self.lam
        lam_p = 0.0
        while True:
            self.iters += 1
            if self.iters > max_iter:
                return ITER_LIMIT
            q = len(active)
            d = J.T @ a_new
            z = J[:, q:] @ d[q:]
            r = dtrtrs(R[:q, :q], d[:q])[0] if q else d[:0]
            znp = a_new @ z
            viol = b_new - a_new @ self.x
            # dual blocking: only inequality rows can leave the active set
            t1 = np.inf
            blocker = -1
            for idx, j in enumerate(active):
                if j < rows.n_eq:
                    continue
                if r[idx] > 1e-12:
                    ratio = lam[idx] / r[idx]
                    if ratio < t1 - 1e-15:
                        t1 = ratio
                        blocker = idx
            if znp <= 1e-13:
                # no primal progress possible along this constraint
                if not math.isfinite(t1):
                    return INFEASIBLE
                t = t1
                for idx in range(len(active)):
                    lam[idx] -= t * r[idx]
                lam_p += t
                self._drop(blocker)
                continue
            t2 = viol / znp
            t = min(t1, t2)
            if not math.isfinite(t):
                return INFEASIBLE
            self.x = self.x + t * z
            for idx in range(len(active)):
                lam[idx] -= t * r[idx]
            lam_p += t
            if t2 <= t1:
                self._add(p, d, lam_p)
                return OPTIMAL
            self._drop(blocker)

    def _add(self, p: int, d: np.ndarray, lam_p: float) -> None:
        # reflect d[q:] onto its first axis, so J'a has no entries past q
        J, R = self.J, self.R
        q = len(self.active)
        v = d[q:].copy()
        head = -math.copysign(math.sqrt(v @ v), v[0])  # the bits of np.linalg.norm
        v[0] -= head
        J[:, q:] -= (J[:, q:] @ v)[:, None] * (v * (2.0 / (v @ v)))
        R[:q, q] = d[:q]
        R[q, q] = head
        self.active.append(p)
        self.lam.append(lam_p)

    def _drop(self, idx: int) -> None:
        # delete R's column idx, then rotate the Hessenberg rest back to
        # triangular form, turning J's column pairs alike
        J, R = self.J, self.R
        q = len(self.active)
        R[:q, idx : q - 1] = R[:q, idx + 1 : q]
        R[:q, q - 1] = 0.0
        for k in range(idx, q - 1):
            h = np.hypot(R[k, k], R[k + 1, k])
            rot = np.array([[R[k, k], R[k + 1, k]], [-R[k + 1, k], R[k, k]]]) / h
            R[k : k + 2, k : q - 1] = rot @ R[k : k + 2, k : q - 1]
            R[k + 1, k] = 0.0
            J[:, k : k + 2] = J[:, k : k + 2] @ rot.T
        del self.active[idx]
        del self.lam[idx]


def solve_qp(qp: QuadraticProgram) -> QpSolution:
    """Solve a convex QP and measure the result against its KKT system.
    After add_rows on an Optimal QP, the solve resumes (module docstring).

    Status Optimal means no inequality row is violated by more than
    TOL_FEAS at the end; kkt_residual then holds the max-norm KKT
    residual (stationarity net of the roundoff of its terms and
    complementarity relative to the dual and the row, see _kkt_residual
    and _complementarity), and one above 100 * TOL_KKT is logged as a warning.
    Deterministic for identical input: the same QP built, grown and
    solved in the same order.
    """
    rows = qp._rows
    ws, rows.end = rows.end, None
    if ws is not None and ws.n_in < rows.n_in:
        ws.resume(rows)
    else:
        ws = _WorkingSet.empty(qp, rows)
    status = ws.run(rows)
    if status == OPTIMAL:
        rows.end = ws

    duals = np.zeros(rows.m)
    for j, lam_j in zip(ws.active, ws.lam):
        duals[j] = lam_j * ws.flip[j] if j < rows.n_eq else lam_j

    x = ws.x
    if status == OPTIMAL and ws.active:
        x, duals = _polish(qp, rows, ws.active, x, duals)

    sol = _package(qp, rows, x, duals, status, ws.iters)
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
    k = len(act)
    kkt = np.zeros((n + k, n + k))
    rhs = np.empty(n + k)
    kkt[:n, :n] = qp.Q
    rhs[:n] = -qp.c
    for i, j in enumerate(act, n):
        kkt[i, :n], rhs[i] = rows.row(j)
    kkt[:n, n:] = kkt[n:, :n].T
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
    # reject the polish if it breaks sign or feasibility
    if ((y[bisect_left(act, rows.n_eq):] > 1e-9).any()
            or rows.violations(x_new).max(initial=0.0) > 1e-8
            or rows.n_eq and np.abs(qp.b_eq - qp.A_eq @ x_new).max() > 1e-8):
        return x, duals
    duals_new = duals.copy()
    duals_new[act] = -y
    return x_new, duals_new


def _package(qp, rows, x, duals, status, iters) -> QpSolution:
    n_eq, ofs = rows.n_eq, rows.n_eq + rows.n_in  # the bound rows start at ofs
    duals_eq = duals[:n_eq].copy()
    duals_in = duals[n_eq:ofs].copy()
    duals_lo, duals_hi = np.zeros(qp.n), np.zeros(qp.n)
    duals_lo[rows.lo_idx] = duals[ofs : ofs + rows.lo_idx.size]
    duals_hi[rows.hi_idx] = duals[ofs + rows.lo_idx.size :]
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
    x, rows = sol.x, qp._rows
    grad = qp.Q @ x + qp.c
    size = np.abs(qp.Q) @ np.abs(x) + np.abs(qp.c)
    if rows.n_in:
        grad += qp.A_in.T @ sol.duals_in
        held = sol.duals_in.nonzero()[0]  # most rows hold no dual and add nothing
        size += np.abs(sol.duals_in[held]) @ np.abs(qp.A_in[held])
    if rows.n_eq:
        grad -= qp.A_eq.T @ sol.duals_eq
        size += np.abs(qp.A_eq.T) @ np.abs(sol.duals_eq)
    grad = grad - sol.duals_lo + sol.duals_hi
    size += np.abs(sol.duals_lo) + np.abs(sol.duals_hi)
    terms = x.size + sol.duals_in.size + sol.duals_eq.size + 2
    res = float((np.abs(grad) - terms * _EPS * size).max(initial=0.0))
    if rows.n_eq:
        res = max(res, float(np.abs(qp.A_eq @ x - qp.b_eq).max()))
    # the inequality rows and the finite bounds in one pass, each as lhs <= rhs
    ax, b_in = (qp.A_in @ x, qp.b_in) if rows.n_in else (x[:0], x[:0])
    lhs = np.concatenate([ax, -x[rows.lo_idx], x[rows.hi_idx]])
    rhs = np.concatenate([b_in, -rows.lo, rows.hi])
    dual = np.concatenate([sol.duals_in, sol.duals_lo[rows.lo_idx], sol.duals_hi[rows.hi_idx]])
    slack = rhs - lhs
    res = max(res, float((-slack).max(initial=0.0)),
              _complementarity(dual, slack, np.abs(lhs) + np.abs(rhs)))
    return max(res, float((-sol.duals_in).max(initial=0.0)))


def _complementarity(dual, slack, size):
    """Largest |dual * slack| / (1 + |dual| * size), size being the
    magnitude of the terms whose difference is the slack.

    An active row's slack is known only to the roundoff of its size, and
    a large dual would magnify that roundoff in the plain product; a
    nonzero dual on a row with real slack still reads near
    |slack| / size, or |dual * slack| for a small dual.
    """
    return float((np.abs(dual * slack) / (1.0 + np.abs(dual) * size)).max(initial=0.0))
