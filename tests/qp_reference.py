"""The finish of solve_qp as it was before the KKT residual was measured
on the rows that hold a dual: the polish on the active rows and the
residual over every row, kept as the reference that tests/test_qp.py
checks the finish against.

Both read the rows as qp._rows numbers them: a lower and an upper bound
row per variable, where a bound that is not finite reads -inf or inf.
"""
from bisect import bisect_left

import numpy as np

_EPS = np.finfo(float).eps


def polish(qp, rows, active, x, duals):
    """Re-solve the equality-constrained KKT system on the active set;
    (x, duals) polished, or as given when the polish is rejected."""
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


def kkt_residual(qp, sol):
    """Max-norm KKT residual: stationarity, feasibility, complementarity.

    A stationarity entry sums k terms, and with duals near 1e9 they cancel
    only to about k * eps times their summed magnitude.  That roundoff bound
    is taken off each entry before the max, so a residual of the size of
    roundoff reads 0 while an error above it shows at its full size.
    """
    x, rows = sol.x, qp._rows
    lo_idx, hi_idx = np.flatnonzero(np.isfinite(rows.lo)), np.flatnonzero(np.isfinite(rows.hi))
    lo, hi = rows.lo[lo_idx], rows.hi[hi_idx]
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
    lhs = np.concatenate([ax, -x[lo_idx], x[hi_idx]])
    rhs = np.concatenate([b_in, -lo, hi])
    dual = np.concatenate([sol.duals_in, sol.duals_lo[lo_idx], sol.duals_hi[hi_idx]])
    slack = rhs - lhs
    res = max(res, float((-slack).max(initial=0.0)),
              _complementarity(dual, slack, np.abs(lhs) + np.abs(rhs)))
    return max(res, float((-sol.duals_in).max(initial=0.0)))


def _complementarity(dual, slack, size):
    """Largest |dual * slack| / (1 + |dual| * size), size being the
    magnitude of the terms whose difference is the slack."""
    return float((np.abs(dual * slack) / (1.0 + np.abs(dual) * size)).max(initial=0.0))
