"""Grid model: buses, generators, lines, and the Laplacian operators.

The network is a connected graph with susceptance-weighted lines. Every
angle-space computation uses two operators of the n x m incidence ``A``,
each assembled once: the bus balance ``A f`` (Network.outflow) and the
weighted Laplacian ``B = A diag(w) A^T`` grounded at the slack bus
(Network.laplacian), for any line weights ``w``. With positive weights
the grounded matrix is symmetric positive definite, and one sparse
factorization of it (LaplacianOperator) gives, for any balanced injection
vector ``q``, the angles with ``B theta = q`` and ``theta[slack] = 0``.
The line gap sensitivities (GapSensitivity) come from one such solve
under the susceptances (Network.laplacian_op).

Angles, flows, and injections are all in per-unit with uniform voltage
magnitudes, so the flow on line ``k = (i, j)`` is ``beta_k (theta_i -
theta_j)`` in the linear model and ``beta_k sin(theta_i - theta_j)`` in
the lossless AC model.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    DimensionMismatchError,
    DisconnectedGraphError,
    NonPositiveSusceptanceError,
    ValidationError,
)

logger = logging.getLogger(__name__)


def first_broken(rules, values) -> ValidationError | None:
    """The error of the first entry in values that breaks one of rules, or None.

    values maps each field of an entry type to one entry's value or to a
    column of values, one per entry. A rule is (broken, error class,
    message): broken(values) marks the entries that break it, and the
    message is formatted with the entry's fields. Of the rules that the
    first such entry breaks, the first in order is the one raised.
    """
    first = None
    for broken, error, message in rules:
        hits = np.asarray(broken(values))
        if np.count_nonzero(hits) and (first is None or hits.argmax() < first[0]):
            first = hits.argmax(), error, message
    if first is None:
        return None
    i, error, message = first
    return error(message.format(**{key: value[i:i + 1].tolist()[0] if np.ndim(value) else value
                                   for key, value in values.items()}))


def _not_finite_or_negative(x):
    return ~np.isfinite(x) | (x < 0)


def _not_finite_or_positive(x):
    return ~np.isfinite(x) | (x <= 0)


# The rules of each entry type, which its constructor checks and the case
# parser checks column by column.
BUS_RULES = (
    (lambda b: _not_finite_or_negative(b["demand"]), ValidationError,
     "bus {id}: demand must be finite and >= 0"),
    (lambda b: _not_finite_or_negative(b["wind_sigma"]), ValidationError,
     "bus {id}: wind_sigma must be finite and >= 0"),
    (lambda b: ~np.isfinite(b["wind_mean"]), ValidationError, "bus {id}: wind_mean must be finite"),
)
GENERATOR_RULES = (
    (lambda g: ~(np.isfinite(g["pmin"]) & np.isfinite(g["pmax"])), ValidationError,
     "generator at bus {bus}: bounds must be finite"),
    (lambda g: g["pmin"] > g["pmax"], ValidationError,
     "generator at bus {bus}: pmin {pmin} > pmax {pmax}"),
    (lambda g: _not_finite_or_negative(g["c1"]), ValidationError,
     "generator at bus {bus}: c1 must be finite and >= 0"),
    (lambda g: ~np.isfinite(g["c2"]), ValidationError, "generator at bus {bus}: c2 must be finite"),
    (lambda g: ~np.isfinite(g["c3"]), ValidationError, "generator at bus {bus}: c3 must be finite"),
)
LINE_RULES = (
    (lambda l: l["from_bus"] == l["to_bus"], ValidationError,
     "line {from_bus}-{to_bus}: self-loop"),
    (lambda l: _not_finite_or_positive(l["beta"]), NonPositiveSusceptanceError,
     "line {from_bus}-{to_bus}: beta must be > 0, got {beta}"),
    (lambda l: _not_finite_or_positive(l["pbar"]), ValidationError,
     "line {from_bus}-{to_bus}: pbar must be > 0, got {pbar}"),
)


class _Entry:
    """An entry checked against the RULES of its type when it is made."""

    RULES = ()

    def __post_init__(self):
        error = first_broken(self.RULES, vars(self))
        if error is not None:
            raise error


@dataclass(frozen=True)
class Bus(_Entry):
    """A single bus.

    Parameters
    ----------
    id : int
        External identifier, unique within a network.
    demand : float
        Mean real-power demand in per-unit (nonnegative).
    wind_mean : float
        Mean wind infeed at the bus, per-unit.
    wind_sigma : float
        Standard deviation of the zero-mean wind fluctuation. A bus
        belongs to the wind set exactly when this is positive.
    """

    RULES = BUS_RULES

    id: int
    demand: float = 0.0
    wind_mean: float = 0.0
    wind_sigma: float = 0.0


@dataclass(frozen=True)
class Generator(_Entry):
    """A dispatchable generator with quadratic cost c1*p^2 + c2*p + c3."""

    RULES = GENERATOR_RULES

    bus: int
    pmin: float
    pmax: float
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0


@dataclass(frozen=True)
class Line(_Entry):
    """A transmission line (arc) from ``from_bus`` to ``to_bus``.

    ``beta`` is the susceptance weight (strictly positive) and ``pbar``
    the thermal flow limit in per-unit.
    """

    RULES = LINE_RULES

    from_bus: int
    to_bus: int
    beta: float
    pbar: float


def id_column(ids) -> np.ndarray:
    """Whole-number ids as int64, or as Python ints where one is beyond int64."""
    try:
        return np.fromiter(ids, np.int64, len(ids))
    except OverflowError:
        return np.array(ids, dtype=object)


def entry_columns(entries, kind) -> dict:
    """entries, a list of kind (Bus, Generator or Line), as one column per
    field; columns, as the case parser reads them, are returned as they are."""
    if isinstance(entries, dict):
        return entries
    columns = {}
    for f in fields(kind):
        column = [getattr(e, f.name) for e in entries]
        columns[f.name] = id_column(column) if f.type == "int" else np.array(column)
    return columns


@dataclass(frozen=True)
class Dispatch:
    """A generation decision: setpoints ``p`` and affine response ``alpha``.

    Under wind deviation ``w`` with total ``W = sum(w)``, generator ``g``
    produces ``p[g] - alpha[g] * W``, so ``sum(alpha) == 1`` keeps the
    system balanced for every realization.
    """

    p: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.p.shape != self.alpha.shape:
            raise ValidationError("dispatch: p and alpha must have the same shape")


class GapMoments:
    """Mean and standard deviation of every line's angle gap in line
    coordinates. ``S_l = ||sigma * (W_l - D_l alpha)||`` depends on alpha
    only through ``d = D_l alpha``: with ``c = sum(sigma^2)``, ``d_bar_l =
    sum(sigma^2 W_l) / c`` and ``r_l = ||sigma * (W_l - d_bar_l)||``,
    ``S_l(d) = sqrt(c (d - d_bar_l)^2 + r_l^2)``. Subclasses provide
    ``gen`` (rows ``D_l``), ``offset``, ``c``, ``d_bar`` and ``r``."""

    def mean(self, dispatch: Dispatch, lines=...) -> np.ndarray:
        """Mean angle gap of the given lines (all by default)."""
        return self.gen[lines] @ dispatch.p + self.offset[lines]

    def spread(self, dispatch: Dispatch) -> np.ndarray:
        """Standard deviation S of every line's angle gap."""
        return self.spread_at(self.gen @ dispatch.alpha)

    def spread_at(self, d, lines=...) -> np.ndarray:
        """S of the given lines (all by default) at response levels d."""
        return np.sqrt(self.c * (d - self.d_bar[lines]) ** 2 + self.r[lines] ** 2)


@dataclass(frozen=True)
class GapSensitivity(GapMoments):
    """Linear map from a dispatch and the wind to every line's angle gap.

    Under dispatch ``(p, alpha)`` and zero-mean wind ``w`` at the wind
    buses, the linear-model angle gap of line ``l`` is

        gen[l] @ p + offset[l] + (wind[l] - gen[l] @ alpha) @ w

    Column ``j`` of ``gen`` (m x g) holds every line's gap under a unit
    injection at generator ``j``'s bus and column ``i`` of ``wind``
    (m x n_w) the same for wind bus ``i``, both balanced at the slack;
    ``offset`` (m) is the gap caused by the mean wind and the load, and
    ``sigma`` holds the standard deviations of ``w``; ``c``, ``d_bar``
    and ``r`` (see GapMoments) are derived from them once.
    """

    gen: np.ndarray
    wind: np.ndarray
    offset: np.ndarray
    sigma: np.ndarray
    c: float = field(init=False)
    d_bar: np.ndarray = field(init=False)
    r: np.ndarray = field(init=False)

    def __post_init__(self):
        # d_bar = 0 with no wind variance; r as sum(sigma^2 W^2) - c d_bar^2 would cancel
        c = float(np.sum(self.sigma**2))
        d_bar = np.divide(self.wind @ self.sigma**2, c, out=np.zeros(self.offset.size), where=c > 0)
        r = np.linalg.norm(self.sigma * (self.wind - d_bar[:, None]), axis=1)
        for name, value in (("c", c), ("d_bar", d_bar), ("r", r)):
            object.__setattr__(self, name, value)

    def response(self, dispatch: Dispatch) -> np.ndarray:
        """m x n_w sensitivity of every gap to the wind, net of the
        generators' affine response."""
        return self.wind - (self.gen @ dispatch.alpha)[:, None]


@dataclass(frozen=True)
class SpanningTree:
    """Spanning-tree factorization of flow conservation ``A f = q``.

    ``tree`` holds the arcs of a breadth-first spanning tree rooted at the
    slack bus and ``chords`` the other arcs, both sorted; ``keep`` indexes
    the non-slack buses and ``lu`` factors ``T``, the tree columns of the
    reduced incidence ``A[keep]``. ``T`` is invertible, so the flows that
    conserve ``q`` are exactly ``particular_flow(q) + chord_map @ y`` over
    chord flows ``y``: column c of ``chord_map`` is the tree-flow response
    to a unit flow on chord c, with that unit in place. ``chord_map`` is
    dense but mostly zero on a mesh (row k is nonzero only on the chords
    whose cycle runs through line k), so the chord Hessians
    ``chord_map^T diag(w) chord_map`` are formed through the sparse
    ``hessian_map`` (``chord_hessian``), one c x c matrix per row of a
    stack of line weights.
    """

    tree: np.ndarray
    chords: np.ndarray
    keep: np.ndarray
    lu: tuple
    chord_map: np.ndarray

    @cached_property
    def tree_inverse(self) -> np.ndarray:
        """``T^-1``, so that a stack of injection vectors solves as stacked
        products, each row on its own."""
        return scipy.linalg.lu_solve(self.lu, np.eye(self.keep.size))

    @cached_property
    def hessian_map(self) -> scipy.sparse.csc_array:
        """The (c^2) x m map from line weights ``w`` to the flattened chord
        Hessian ``sum_k w_k K_k^T K_k`` (``K = chord_map``, c chords): column
        k holds ``K[k, i] * K[k, j]`` at row ``i * c + j`` for every pair of
        chords i, j on which row k of ``K`` is nonzero."""
        m, c = self.chord_map.shape
        lines, chords = np.nonzero(self.chord_map)  # by line, then by chord
        values = self.chord_map[lines, chords]
        per_line = np.bincount(lines, minlength=m)
        start = np.cumsum(per_line) - per_line  # each line's first nonzero
        # entry e of line k pairs with each of line k's nonzeros in turn
        reps = per_line[lines]
        first = np.repeat(np.arange(lines.size), reps)
        second = np.arange(first.size) - np.repeat(np.cumsum(reps) - reps, reps)
        second += np.repeat(start[lines], reps)
        indptr = np.concatenate([[0], np.cumsum(per_line**2)])
        return scipy.sparse.csc_array(
            (values[first] * values[second], chords[first] * c + chords[second], indptr),
            shape=(c * c, m),
        )

    def chord_hessian(self, w: np.ndarray) -> np.ndarray:
        """``chord_map^T diag(w_s) chord_map`` for each row w_s of an (S, m)
        stack of line weights, as an (S, c, c) stack. Each entry is summed
        over the lines in one fixed order, so a row's Hessian depends on
        that row alone, not on the stack's size."""
        c = self.chords.size
        return (self.hessian_map @ w.T).T.reshape(w.shape[0], c, c)

    def particular_flow(self, q: np.ndarray) -> np.ndarray:
        """The flow with ``A f = q`` that is zero on every chord, for each
        row of an (S, n) stack of injection vectors."""
        f = np.zeros((q.shape[0], self.chord_map.shape[0]))
        # take, unlike q[:, keep], gives C order for every S, so that the
        # products below take the same path whatever the stack's size
        q_keep = np.take(q, self.keep, axis=1)
        f[:, self.tree] = (self.tree_inverse @ q_keep[:, :, None])[:, :, 0]
        return f

    def angles(self, gamma: np.ndarray) -> np.ndarray:
        """Bus angles with ``theta_i - theta_j = gamma_k`` on every tree arc
        ``k = (i, j)`` and the slack at zero: ``T^T theta[keep] = gamma[tree]``."""
        theta = np.zeros(self.keep.size + 1)
        theta[self.keep] = scipy.linalg.lu_solve(self.lu, gamma[self.tree], trans=1)
        return theta


class LaplacianOperator:
    """A grounded weighted Laplacian (Network.laplacian) and its factors.

    ``reduced`` is the matrix it is given, symmetric positive definite
    when every weight is positive. One sparse LU factorization of it,
    under a symmetric minimum-degree ordering, serves every solve.
    """

    def __init__(self, reduced: scipy.sparse.csc_array, non_slack_index: np.ndarray):
        self.reduced = reduced
        self._keep = non_slack_index
        self._lu = scipy.sparse.linalg.splu(
            reduced, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True)
        )

    def solve(self, q: np.ndarray) -> np.ndarray:
        """Angles with ``B theta = q`` and a zero at the slack, for a
        full-length injection vector ``q`` or an n x k stack of them
        as columns. The slack rows of ``q`` are ignored."""
        q, n = np.asarray(q, dtype=float), self._keep.size + 1
        if q.shape[0] != n:
            raise DimensionMismatchError(f"injection vector length {q.shape[0]} != {n}")
        theta = np.zeros(q.shape)
        theta[self._keep] = self._lu.solve(q[self._keep])
        return theta

    def reduced_inverse(self) -> np.ndarray:
        """Dense n x n inverse of ``reduced``, by a dense Cholesky factor, padded
        with a zero slack row and column. No solve in the package uses it: it is
        the reference the tests check the sparse solves against, and the
        benchmark's tracer (perfbench/tracing.py) wraps it by name."""
        n = self._keep.size + 1
        inv = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(self.reduced.toarray()), np.eye(n - 1)
        )
        full = np.zeros((n, n))
        full[np.ix_(self._keep, self._keep)] = 0.5 * (inv + inv.T)
        return full


class Network:
    """Validated, index-mapped grid model.

    Buses may appear in any order; internally they are sorted by id and
    all arrays are aligned to that order. The slack bus defaults to the
    highest bus id unless given explicitly. buses, generators and lines
    are each a list of entries (Bus, Generator, Line) or, as the case
    parser passes them, a dict of one column per entry field. The entry
    lists ``buses`` (in id order), ``generators`` and ``lines`` are built
    from the arrays on first read.
    """

    def __init__(self, buses, generators, lines, slack_bus: int | None = None):
        buses, gens, lines = (entry_columns(entries, kind) for entries, kind in
                              ((buses, Bus), (generators, Generator), (lines, Line)))
        if not buses["id"].size:
            raise ValidationError("network needs at least one bus")
        if not gens["bus"].size:
            raise ValidationError("network needs at least one generator")
        order = np.argsort(buses["id"], kind="stable")
        self.bus_ids = ids = buses["id"][order]
        if np.count_nonzero(ids[1:] == ids[:-1]):
            raise ValidationError("duplicate bus ids")

        self.gen_bus_index = self._positions(gens["bus"], "generator references unknown bus {}")
        # each line's two ends in turn: half-arc h lies on line h // 2
        ends = self._positions(np.array((lines["from_bus"], lines["to_bus"])).T.ravel(),
                               "line references unknown bus {}")
        self.from_index, self.to_index = ends.reshape(-1, 2).T.copy()

        n = ids.size
        self.n_bus, self.n_line, self.n_gen = n, self.from_index.size, self.gen_bus_index.size

        self.demand, self.wind_mean, self.wind_sigma = (
            buses[key][order] for key in ("demand", "wind_mean", "wind_sigma"))
        self.wind_index = np.flatnonzero(self.wind_sigma > 0)

        self.pmin, self.pmax = gens["pmin"], gens["pmax"]
        self.cost_quad, self.cost_lin, self.cost_const = gens["c1"], gens["c2"], gens["c3"]
        self.beta, self.pbar = lines["beta"], lines["pbar"]

        if slack_bus is None:
            slack_bus = ids[-1:].tolist()[0]
        self.slack_bus = slack_bus
        self.slack_index = int(
            self._positions(np.array([slack_bus]), "slack bus {} not in network")[0])
        self.non_slack_index = np.flatnonzero(np.arange(n) != self.slack_index)

        self._tree_arcs = self._bfs_tree_arcs(ends)

    def _positions(self, ids: np.ndarray, unknown: str) -> np.ndarray:
        """The index of each of ids among the buses. The first id that names
        no bus raises ValidationError(unknown.format(id))."""
        known = self.bus_ids
        if object in (known.dtype, ids.dtype):  # an id beyond int64
            known, ids = known.astype(object), ids.astype(object)
        pos = np.searchsorted(known, ids)
        missing = known.take(pos, mode="clip") != ids
        if np.count_nonzero(missing):
            first = missing.argmax()
            raise ValidationError(unknown.format(ids[first:first + 1].tolist()[0]))
        return pos

    def _bfs_tree_arcs(self, ends: np.ndarray) -> list[int]:
        """Arcs of a breadth-first spanning tree from the slack bus, found
        over CSR neighbour arrays: each bus's half-arcs, in arc order. ends
        holds the bus of every half-arc, the two of line k at 2k and 2k + 1.

        Raises DisconnectedGraphError when some bus is unreachable.
        """
        n, halves = self.n_bus, ends.size
        by_bus = np.argsort(ends * halves + np.arange(halves))  # by bus, then by arc
        start = np.zeros(n + 1, dtype=int)
        np.cumsum(np.bincount(ends, minlength=n), out=start[1:])
        start, neighbour, arc = start.tolist(), ends[by_bus ^ 1].tolist(), (by_bus >> 1).tolist()
        seen = [False] * n
        seen[self.slack_index] = True
        order, arcs = [self.slack_index], []
        for v in order:  # order grows while it is walked: a FIFO queue
            for h in range(start[v], start[v + 1]):
                w = neighbour[h]
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
                    arcs.append(arc[h])
        if len(order) < n:
            missing = self.bus_ids[np.logical_not(seen)].tolist()
            raise DisconnectedGraphError(
                f"buses unreachable from slack bus {self.slack_bus}: {missing}"
            )
        return arcs

    def columns(self, kind) -> tuple:
        """One array per field of kind (Bus, Generator or Line), in field
        order: the buses in id order, generator and line ends as bus ids."""
        ids = self.bus_ids
        return {Bus: (ids, self.demand, self.wind_mean, self.wind_sigma),
                Generator: (ids[self.gen_bus_index], self.pmin, self.pmax, self.cost_quad,
                            self.cost_lin, self.cost_const),
                Line: (ids[self.from_index], ids[self.to_index], self.beta, self.pbar)}[kind]

    @cached_property
    def buses(self) -> list[Bus]:
        """The buses in id order (built on first read)."""
        return list(map(Bus, *(column.tolist() for column in self.columns(Bus))))

    @cached_property
    def generators(self) -> list[Generator]:
        """The generators (built on first read)."""
        return list(map(Generator, *(column.tolist() for column in self.columns(Generator))))

    @cached_property
    def lines(self) -> list[Line]:
        """The lines (built on first read)."""
        return list(map(Line, *(column.tolist() for column in self.columns(Line))))

    def bus_index(self, bus_id: int) -> int:
        return int(self._positions(np.array([bus_id]), "unknown bus id {}")[0])

    def line_between(self, from_id: int, to_id: int) -> int:
        """Index of the first line joining two buses, in either orientation."""
        i, j = self.bus_index(from_id), self.bus_index(to_id)
        f, t = self.from_index, self.to_index
        hits = np.flatnonzero(((f == i) & (t == j)) | ((f == j) & (t == i)))
        if not hits.size:
            raise ValidationError(f"no line between buses {from_id} and {to_id}")
        return int(hits[0])

    @property
    def effective_cap(self) -> np.ndarray:
        """Per-line bound on |sin(angle difference)|: min(1, pbar/beta).

        Synchrony caps the sine at 1; the thermal limit caps the flow at
        pbar, i.e. the sine at pbar/beta. The smaller applies.
        """
        return np.minimum(1.0, self.pbar / self.beta)

    @cached_property
    def incidence(self) -> scipy.sparse.csr_array:
        """Sparse n x m incidence: +1 at each line's from bus, -1 at its to bus."""
        m, ends = self.n_line, np.concatenate([self.from_index, self.to_index])
        return scipy.sparse.csr_array(
            (np.repeat([1.0, -1.0], m), (ends, np.tile(np.arange(m), 2))), shape=(self.n_bus, m)
        )

    def laplacian(self, w: np.ndarray) -> scipy.sparse.csc_array:
        """The grounded weighted Laplacian ``A[keep] diag(w) A[keep]^T``, sparse
        (n - 1) x (n - 1), for any line weights w (negative ones too)."""
        n = self.n_bus
        pos = np.full(n, -1)
        pos[self.non_slack_index] = np.arange(n - 1)
        f, t = pos[self.from_index], pos[self.to_index]
        rows, cols = np.concatenate([f, t, f, t]), np.concatenate([f, t, t, f])
        vals = np.concatenate([w, w, -w, -w])
        grounded = (rows >= 0) & (cols >= 0)  # drop the slack's row and column
        return scipy.sparse.csc_array(
            (vals[grounded], (rows[grounded], cols[grounded])), shape=(n - 1, n - 1)
        )

    def outflow(self, flow: np.ndarray) -> np.ndarray:
        """The bus balance ``A flow``: the line flows leaving each bus."""
        n = self.n_bus
        return np.bincount(self.from_index, flow, n) - np.bincount(self.to_index, flow, n)

    @cached_property
    def laplacian_op(self) -> LaplacianOperator:
        """The factored grounded Laplacian of the susceptances (built on first
        use, then cached)."""
        return LaplacianOperator(self.laplacian(self.beta), self.non_slack_index)

    @cached_property
    def gap_sensitivity(self) -> GapSensitivity:
        """Line angle-gap sensitivities (built on first use, then cached):
        the differences across every line of the angles that one solve gives
        under a unit injection at each generator bus and each wind bus and
        under the mean wind net of the load."""
        g, n_w = self.n_gen, self.wind_index.size
        rhs = np.zeros((self.n_bus, g + n_w + 1))
        rhs[self.gen_bus_index, np.arange(g)] = 1.0
        rhs[self.wind_index, g + np.arange(n_w)] = 1.0
        rhs[:, -1] = self.wind_mean - self.demand
        theta = self.laplacian_op.solve(rhs)
        rows = theta[self.from_index] - theta[self.to_index]  # m x (g + n_w + 1)
        return GapSensitivity(gen=rows[:, :g], wind=rows[:, g:-1], offset=rows[:, -1],
                              sigma=self.wind_sigma[self.wind_index])

    @cached_property
    def spanning_tree(self) -> SpanningTree:
        """Spanning-tree factorization of conservation (built on first use,
        then cached)."""
        in_tree = np.zeros(self.n_line, dtype=bool)
        in_tree[self._tree_arcs] = True
        tree, chords = np.flatnonzero(in_tree), np.flatnonzero(~in_tree)
        keep = self.non_slack_index
        a_red = self.incidence[keep]
        lu = scipy.linalg.lu_factor(a_red[:, tree].toarray())
        chord_map = np.zeros((self.n_line, chords.size))
        chord_map[tree] = scipy.linalg.lu_solve(lu, -a_red[:, chords].toarray())
        chord_map[chords, np.arange(chords.size)] = 1.0
        return SpanningTree(tree, chords, keep, lu, chord_map)


def injection_vector(net: Network, dispatch: Dispatch, wind: np.ndarray | None = None) -> np.ndarray:
    """Net bus injections under a dispatch and a wind realization.

    ``wind`` is the vector of zero-mean fluctuations per bus (defaults
    to zero), or an (S, n) stack of them that gives one injection vector
    per row. The affine response subtracts ``alpha * sum(wind)`` from
    each generator, so the result sums to zero whenever the setpoints
    balance the mean load: sum(p) == sum(demand - wind_mean).
    """
    if dispatch.p.shape != (net.n_gen,):
        raise DimensionMismatchError(
            f"dispatch has {dispatch.p.shape[0]} generators, network has {net.n_gen}"
        )
    if wind is None:
        wind = np.zeros(net.n_bus)
    wind = np.asarray(wind, dtype=float)
    if wind.shape[-1:] != (net.n_bus,):
        raise DimensionMismatchError(f"wind vector length {wind.shape} != ({net.n_bus},)")
    total = wind.sum(axis=-1)
    gen_out = dispatch.p - dispatch.alpha * total[..., None]
    q = np.zeros(wind.shape)
    np.add.at(q, (..., net.gen_bus_index), gen_out)
    q += net.wind_mean
    q += wind
    q -= net.demand
    return q
