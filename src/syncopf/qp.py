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

An Optimal solve ends with a finish, a polish and then a measure,
unless the caller asks for the bare iterate (finish=False), whose
kkt_residual is NaN.  The polish solves the KKT system of the active
rows directly, with a step of iterative refinement.  The iterates
accumulate roundoff over the adds and drops, and an active bound can
end a few ulps outside its limit: without the polish, case9's DC-OPF
leaves a generator one ulp above pmax, and its reported prob_bounds
reads 1 instead of 0.  The KKT residual (_kkt_residual) reuses the
polish's system, which holds every row with a dual, and the
infeasibility the polish found, so it costs a few products on that
small system.  A residual above 100 * TOL_KKT is logged as a warning
and the status stays Optimal: the status already says that every row
holds to TOL_FEAS, and no caller acts on the residual.

A QP grows by appending inequality rows (QuadraticProgram.add_rows),
and a solve after rows were appended resumes from where the QP's last
Optimal solve ended: its J, R, unpolished x, active rows, multipliers
and equality sign flips, used in place, with the active bound rows
renumbered past the new rows.  Appended rows leave that state dual
feasible: x still minimizes the objective on the active rows and the
multipliers stay nonnegative, so the most-violated-row loop just
continues, and at first only the new rows can be violated beyond
TOL_FEAS.  A cold solve is the same loop started from an empty working
set; it is taken by a QP's first solve and after a solve that ended
other than Optimal.  With no row appended since, a solve resumes too,
takes no step and only finishes: a finish leaves the state as it was.

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
    then user inequalities (negated), then a lower bound per variable,
    then an upper bound per variable (negated). Nothing is stacked: a row
    is read from its block of the QP when it enters the working set, and
    a bound row stays the unit vector it stands for, so its residual
    b - a'x is lo - x (or x - hi) exactly. A bound that is not finite is
    a row whose residual is -inf: it is never violated, never enters the
    working set and holds no dual, and m counts only the other rows.

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
        self.lo = np.where(np.isfinite(lo), lo, -np.inf)
        self.hi = np.where(np.isfinite(hi), hi, np.inf)
        self.m = self.n_eq + int(np.isfinite(self.lo).sum() + np.isfinite(self.hi).sum())
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
        if p < self.n:
            a[p] = 1.0
            return a, self.lo[p]
        a[p - self.n] = -1.0
        return a, -self.hi[p - self.n]

    def violations(self, x: np.ndarray) -> np.ndarray:
        """b - a'x over every row but the equalities, in row order."""
        ineq = self.A_in @ x - self.b_in if self.n_in else x[:0]
        return np.concatenate((ineq, self.lo - x, x - self.hi))

    def infeasibility(self, x: np.ndarray) -> float:
        """The largest violation at x: of b - a'x over the inequality rows
        and bounds, and of |b - a'x| over the equalities; 0 if none."""
        viol = self.violations(x)
        if self.n_eq:
            viol = np.concatenate((viol, np.abs(self.b_eq - self.A_eq @ x)))
        return max(float(viol[viol.argmax()]), 0.0) if viol.size else 0.0


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
            r = dtrtrs(R[:q, :q], d[:q])[0].tolist() if q else []
            znp = float(a_new @ z)
            viol = float(b_new - a_new @ self.x)
            # dual blocking: only inequality rows can leave the active set
            t1 = math.inf
            blocker = -1
            for idx, (j, r_j) in enumerate(zip(active, r)):
                if j >= rows.n_eq and r_j > 1e-12:
                    ratio = lam[idx] / r_j
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


def solve_qp(qp: QuadraticProgram, finish: bool = True) -> QpSolution:
    """Solve a convex QP and measure the result against its KKT system.
    After an Optimal solve, the next one resumes (module docstring).

    Status Optimal means no inequality row is violated by more than
    TOL_FEAS at the end; kkt_residual then holds the max-norm KKT
    residual (_kkt_residual), and one above 100 * TOL_KKT is logged as a
    warning, or NaN with finish=False, which returns x unpolished.
    Deterministic for identical input: the same QP built, grown and
    solved in the same order.
    """
    rows = qp._rows
    ws, rows.end = rows.end, None
    if ws is not None:
        ws.resume(rows)
    else:
        ws = _WorkingSet.empty(qp, rows)
    status = ws.run(rows)

    duals = np.zeros(rows.n_eq + rows.n_in + 2 * qp.n)  # every row's, in row order
    for j, lam_j in zip(ws.active, ws.lam):
        duals[j] = lam_j * ws.flip[j] if j < rows.n_eq else lam_j
    x, worst, system = ws.x, None, None
    if status == OPTIMAL:
        rows.end = ws
        if finish and ws.active:
            system = _kkt_system(qp, rows, sorted(ws.active))
            x, worst = _polish(qp, rows, system, x, duals)

    sol = _package(qp, rows, x, duals, status, ws.iters)
    if status == OPTIMAL:
        sol.kkt_residual = _kkt_residual(qp, sol, worst, system) if finish else math.nan
        if sol.kkt_residual > 100 * TOL_KKT:
            logger.warning("KKT residual %.3e above tolerance", sol.kkt_residual)
    return sol


def _kkt_system(qp, rows, act):
    """The KKT system of the rows act, in row order: (act, the matrix
    [[Q, N'], [N, 0]], the right-hand side [-c, b]), N and b holding the
    rows' internal form a'x >= b."""
    n, k = qp.n, len(act)
    kkt = np.zeros((n + k, n + k))
    rhs = np.empty(n + k)
    kkt[:n, :n] = qp.Q
    rhs[:n] = -qp.c
    for i, j in enumerate(act, n):
        kkt[i, :n], rhs[i] = rows.row(j)
    kkt[:n, n:] = kkt[n:, :n].T
    return act, kkt, rhs


def _polish(qp, rows, system, x, duals):
    """Solve the KKT system of the active rows (module docstring): the
    polished x and its infeasibility, with its duals written into duals;
    or x and None, duals untouched, if it breaks a dual sign or a row."""
    act, kkt, rhs = system
    try:
        sol = np.linalg.solve(kkt, rhs)
        # one step of iterative refinement
        resid = rhs - kkt @ sol
        sol = sol + np.linalg.solve(kkt, resid)
    except np.linalg.LinAlgError:
        return x, None
    x_new = sol[:qp.n]
    # stationarity here reads Qx + c + N'y = 0; internal duals satisfy
    # Qx + c - N'd = 0, so d = -y
    y = sol[qp.n:]
    worst = rows.infeasibility(x_new)
    if worst > 1e-8 or any(y_j > 1e-9 for y_j in y[bisect_left(act, rows.n_eq):].tolist()):
        return x, None
    duals[act] = -y  # every nonzero dual is on an active row
    return x_new, worst


def _package(qp, rows, x, duals, status, iters) -> QpSolution:
    n_eq, ofs = rows.n_eq, rows.n_eq + rows.n_in  # the bound rows start at ofs
    obj = 0.5 * x @ qp.Q @ x + qp.c @ x
    return QpSolution(x=x, status=status, objective=float(obj), duals_eq=duals[:n_eq],
                      duals_in=duals[n_eq:ofs], duals_lo=duals[ofs : ofs + qp.n],
                      duals_hi=duals[ofs + qp.n :], iterations=iters)


def _kkt_residual(qp: QuadraticProgram, sol: QpSolution, worst: float | None = None,
                  system: tuple | None = None) -> float:
    """Max-norm KKT residual: stationarity, feasibility, complementarity
    and the sign of the inequality duals.

    A row that holds no dual adds to feasibility alone, so the rest is
    measured on a KKT system (_kkt_system) holding every row that holds
    one: system when it does, else that of those rows. With x and y =
    -dual, one product with its matrix gives the stationarity residual
    and each row's slack a'x - b, and one with the absolute values the
    magnitude ("size") of the terms behind each. Feasibility is
    rows.infeasibility(x), passed in as worst when the caller has it.

    A stationarity entry sums k terms, and with duals near 1e9 they cancel
    only to about k * eps times their summed magnitude.  That roundoff bound
    is taken off each entry before the max, so a residual of the size of
    roundoff reads 0 while an error above it shows at its full size.  So
    too, a row's complementarity is |y * slack| / (1 + |y| * size): an
    active row's slack is known only to the roundoff of its size, which a
    large dual would magnify in the plain product, while a dual on a row
    with real slack still reads near |slack| / size, or |y * slack| for a
    small dual.  A dual on a bound that is not finite adds to
    stationarity alone.
    """
    x, rows, n = sol.x, qp._rows, qp.n
    duals = np.concatenate((sol.duals_eq, sol.duals_in, sol.duals_lo, sol.duals_hi))
    held = duals.nonzero()[0].tolist()
    if system is None or not set(held).issubset(system[0]):
        system = _kkt_system(qp, rows, held)
    act, kkt, rhs = system
    v = np.concatenate((x, -duals[act]))
    resid = kkt @ v - rhs
    size = np.abs(kkt) @ np.abs(v) + np.abs(rhs)
    terms = n + sol.duals_in.size + sol.duals_eq.size + 2
    stat = np.abs(resid[:n]) - terms * _EPS * size[:n]
    res = max(float(stat[stat.argmax()]) if n else 0.0,
              rows.infeasibility(x) if worst is None else worst)
    # the system's inequality rows, then its bounds; y = -dual
    first, stop = n + bisect_left(act, rows.n_eq), n + bisect_left(act, rows.n_eq + rows.n_in)
    y, slack, mag = v.tolist(), resid.tolist(), size.tolist()
    for i in range(first, len(y)):
        if mag[i] < math.inf:  # a bound that is not finite has no slack
            res = max(res, abs(y[i] * slack[i]) / (1.0 + abs(y[i]) * mag[i]))
    return max([res] + y[first:stop])  # a negative inequality dual is a positive y
