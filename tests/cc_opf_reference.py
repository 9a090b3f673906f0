"""The cutting-plane loop of cc_opf.solve_cc_opf and its screen of lines
that can never bind, as they were before the loop left its QPs
unfinished and before the screen bounded the mean gap cheaply first:
every QP of the loop is finished (polished and measured) and each cut
is a tangent at the finished point, and every line's largest mean gap
comes from the knapsack. Kept as the reference that tests/test_cc_opf.py
checks the loop and the screen against.
"""
import math

import numpy as np
from scipy.special import ndtri

from syncopf.case_io import CUT_KINDS
from syncopf.cc_opf import (_CutRows, _largest_gap, _tangents, build_conic_constraints,
                            violations)
from syncopf.network import Dispatch
from syncopf.qp import OPTIMAL, QuadraticProgram, solve_qp


def bindable_lines(table, lo_p, hi_p, total):
    """The ids of cc_opf._bindable_lines, from every line's exact gap."""
    gap = _largest_gap(table.gen, table.offset, lo_p, hi_p, total)
    spread = np.maximum(table.spread_at(table.gen.min(axis=1)),
                        table.spread_at(table.gen.max(axis=1)))
    keep = (gap + table.eta_t * spread >= (1.0 - 1e-6) * table.bound) | (
        gap + table.eta_s * spread >= 1.0 - 1e-6)
    return np.flatnonzero(keep)


def cut_loop(net, chance, add_all_violated=False, tol_cut=1e-7, max_iter=200):
    """(log, iterations, dispatch, violations): the (iteration, line, kind)
    of each cut, and at the end the violations of every line."""
    g, table = net.n_gen, build_conic_constraints(net, chance)
    sigma_tot_sq = float(np.sum(net.wind_sigma**2))
    margin = -ndtri(chance.eps_gen) * math.sqrt(sigma_tot_sq)
    lo_p, hi_p = np.maximum(net.pmin + margin, 0.0), net.pmax - margin
    total = float(np.sum(net.demand - net.wind_mean))
    a_eq = np.zeros((2, 2 * g))
    a_eq[0, :g] = a_eq[1, g:] = 1.0
    qp = QuadraticProgram(Q=np.diag(np.concatenate([2.0 * net.cost_quad,
                                                    2.0 * net.cost_quad * sigma_tot_sq])),
                          c=np.concatenate([net.cost_lin, np.zeros(g)]), A_eq=a_eq,
                          b_eq=[total, 1.0], lo=np.concatenate([lo_p, np.zeros(g)]),
                          hi=np.concatenate([hi_p, np.full(g, np.inf)]))
    kept = bindable_lines(table, lo_p, hi_p, total)
    watched, rows = table.subset(kept), _CutRows(table, kept)
    qp.add_rows(*rows.base())
    qp.add_rows(*rows.rows(_tangents(table, kept, np.zeros(kept.size), 0)))
    log = []
    for it in range(1, max_iter + 1):
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL
        dispatch = Dispatch(p=sol.x[:g], alpha=sol.x[g:])
        viol = violations(watched, dispatch)
        if viol.max(initial=-np.inf) <= tol_cut:
            return log, it, dispatch, violations(table, dispatch)
        worst = int(viol.argmax())
        log.append((it, int(kept[worst // 2]), CUT_KINDS[worst % 2]))
        if add_all_violated:
            lines = kept[np.unique(np.flatnonzero(viol > tol_cut) // 2)]
        else:
            lines = kept[[worst // 2]]
        qp.add_rows(*rows.rows(_tangents(table, lines, table.gen[lines] @ dispatch.alpha, it)))
    raise AssertionError(f"no convergence in {max_iter} iterations")
