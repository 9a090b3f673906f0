"""Per-layer tracing from outside the program.

``install`` wraps the public entry points of each syncopf module in place,
in every syncopf module that holds a reference to them, so that calls made
from inside the package (``cc_opf`` calling ``solve_qp``, ``mc`` calling
``solve_pf``) are traced too. Spans are kept in memory with their parent
span and round; ``layer_metrics`` turns one round's spans and counts into
the per-layer metrics, averaged over rounds like the end-to-end ones. A layer's self time is its spans' time minus the
time of their direct children.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, round]
        self.counts = defaultdict(int)  # (round, name) -> count
        self._stack = []
        self.recording = False
        self.round = 0

    def wrap(self, name, fn, count=None):
        """fn, recording a span per call and adding count(result, exc, args, kwargs)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent, tracer.round])
            tracer._stack.append(idx)
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
                if count is not None:
                    for key, value in count(result, exc, args, kwargs).items():
                        tracer.counts[(tracer.round, key)] += value

        return traced


def _pf_counts(max_iter_default, stalled):
    def count(state, exc, args, kwargs):
        cap = kwargs.get("max_iter", max_iter_default)
        if state is not None:
            iters = state.iterations
        else:
            iters = cap if isinstance(exc, stalled) else 0
        return {"powerflow.solves": 1, "powerflow.newton_iters": iters,
                "powerflow.capped_solves": int(iters >= cap)}
    return count


def install(tracer: Tracer) -> None:
    """Replace the traced functions in every loaded syncopf module."""
    from syncopf import case_io, cc_opf, cli, det_opf, mc, network, powerflow, qp
    from syncopf.errors import NoConvergenceError

    targets = [
        ("cli.main", cli, "main", None),
        ("case_io.parse", case_io, "parse_case",
         lambda r, e, a, k: {"case_io.parse_calls": 1}),
        ("case_io.report", case_io, "write_report", None),
        ("case_io.report", case_io, "read_report", None),
        ("cc_opf.conic_build", cc_opf, "build_conic_constraints",
         lambda r, e, a, k: {"cc_opf.conic_build_calls": 1}),
        ("cc_opf.solve", cc_opf, "solve_cc_opf",
         lambda r, e, a, k: {"cc_opf.cut_iterations": r.iterations, "cc_opf.cuts": len(r.cuts)}
         if r is not None else {}),
        ("qp.solve", qp, "solve_qp",
         lambda r, e, a, k: {"qp.calls": 1, "qp.active_set_steps": r.iterations if r is not None else 0}),
        ("mc.run", mc, "run_mc",
         lambda r, e, a, k: {"mc.samples": r.n_samples} if r is not None else {}),
        ("powerflow.solve", powerflow, "solve_pf",
         _pf_counts(inspect.signature(powerflow.solve_pf).parameters["max_iter"].default,
                    NoConvergenceError)),
        ("det_opf.barrier", det_opf, "solve_barrier_opf",
         lambda r, e, a, k: {"det_opf.barrier_newton_steps": r.iterations,
                             "det_opf.barrier_stages": len(r.stage_objectives)}
         if r is not None else {}),
        ("det_opf.dc_opf", det_opf, "solve_dc_opf", None),
    ]
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "syncopf" or name.startswith("syncopf."))]
    for label, module, attr, count in targets:
        original = getattr(module, attr)
        traced = tracer.wrap(label, original, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
    network.Network.__init__ = tracer.wrap("network.build", network.Network.__init__)
    network.LaplacianOperator.reduced_inverse = tracer.wrap(
        "network.bred", network.LaplacianOperator.reduced_inverse)


# per-layer metric -> (span name, "total" or "self"); counts come from Tracer.counts
TIMES = {
    "network.build_s": ("network.build", "total"),
    "network.bred_s": ("network.bred", "total"),
    "case_io.parse_s": ("case_io.parse", "total"),
    "case_io.report_s": ("case_io.report", "total"),
    "cc_opf.solve_s": ("cc_opf.solve", "total"),
    "cc_opf.self_s": ("cc_opf.solve", "self"),
    "cc_opf.conic_build_s": ("cc_opf.conic_build", "total"),
    "qp.solve_s": ("qp.solve", "total"),
    "mc.run_s": ("mc.run", "total"),
    "mc.self_s": ("mc.run", "self"),
    "powerflow.solve_s": ("powerflow.solve", "total"),
    "det_opf.barrier_s": ("det_opf.barrier", "total"),
    "det_opf.dc_opf_s": ("det_opf.dc_opf", "total"),
    "cli.self_s": ("cli.main", "self"),
}
COUNTS = [
    "case_io.parse_calls", "cc_opf.conic_build_calls", "cc_opf.cut_iterations", "cc_opf.cuts",
    "qp.calls", "qp.active_set_steps", "mc.samples", "powerflow.solves",
    "powerflow.newton_iters", "powerflow.capped_solves", "det_opf.barrier_newton_steps",
    "det_opf.barrier_stages",
]


def layer_metrics(tracer: Tracer, rnd: int) -> dict:
    """Per-layer metrics of one round."""
    total = defaultdict(float)
    child = defaultdict(float)
    spans = tracer.spans
    for name, start, end, parent, r in spans:
        if r != rnd:
            continue
        total[name] += end - start
        if parent >= 0:
            child[spans[parent][0]] += end - start
    out = {metric: total[span] - (child[span] if how == "self" else 0.0)
           for metric, (span, how) in TIMES.items()}
    out.update({name: tracer.counts[(rnd, name)] for name in COUNTS})
    return out


def mean_metrics(per_round: list) -> dict:
    return {key: float(np.mean([r[key] for r in per_round])) for key in per_round[0]}
