"""Grid model: buses, generators, lines, and the Laplacian operators.

The network is a connected graph with susceptance-weighted lines. All
linear analysis runs through the weighted Laplacian ``B = A diag(beta) A^T``
and its grounded inverse: with the slack row and column deleted the
reduced matrix is symmetric positive definite, and padding its inverse
back with a zero slack row and column gives the matrix written ``Bred``
here. For any balanced injection vector ``q`` (summing to zero),
``theta = Bred @ q`` solves ``B theta = q`` with ``theta[slack] = 0``.

Angles, flows, and injections are all in per-unit with uniform voltage
magnitudes, so the flow on line ``k = (i, j)`` is ``beta_k (theta_i -
theta_j)`` in the linear model and ``beta_k sin(theta_i - theta_j)`` in
the lossless AC model.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    DisconnectedGraphError,
    NonPositiveSusceptanceError,
    ValidationError,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Bus:
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

    id: int
    demand: float = 0.0
    wind_mean: float = 0.0
    wind_sigma: float = 0.0

    def __post_init__(self):
        if self.demand < 0 or not np.isfinite(self.demand):
            raise ValidationError(f"bus {self.id}: demand must be finite and >= 0")
        if self.wind_sigma < 0 or not np.isfinite(self.wind_sigma):
            raise ValidationError(f"bus {self.id}: wind_sigma must be finite and >= 0")
        if not np.isfinite(self.wind_mean):
            raise ValidationError(f"bus {self.id}: wind_mean must be finite")


@dataclass(frozen=True)
class Generator:
    """A dispatchable generator with quadratic cost c1*p^2 + c2*p + c3."""

    bus: int
    pmin: float
    pmax: float
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.pmin) and np.isfinite(self.pmax)):
            raise ValidationError(f"generator at bus {self.bus}: bounds must be finite")
        if self.pmin > self.pmax:
            raise ValidationError(
                f"generator at bus {self.bus}: pmin {self.pmin} > pmax {self.pmax}"
            )
        if self.c1 < 0:
            raise ValidationError(f"generator at bus {self.bus}: c1 must be >= 0")


@dataclass(frozen=True)
class Line:
    """A transmission line (arc) from ``from_bus`` to ``to_bus``.

    ``beta`` is the susceptance weight (strictly positive) and ``pbar``
    the thermal flow limit in per-unit.
    """

    from_bus: int
    to_bus: int
    beta: float
    pbar: float

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValidationError(f"line {self.from_bus}-{self.to_bus}: self-loop")
        if not np.isfinite(self.beta) or self.beta <= 0:
            raise NonPositiveSusceptanceError(
                f"line {self.from_bus}-{self.to_bus}: beta must be > 0, got {self.beta}"
            )
        if not np.isfinite(self.pbar) or self.pbar <= 0:
            raise ValidationError(
                f"line {self.from_bus}-{self.to_bus}: pbar must be > 0, got {self.pbar}"
            )


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


@dataclass(frozen=True)
class GapSensitivity:
    """Linear map from a dispatch and the wind to every line's angle gap.

    Under dispatch ``(p, alpha)`` and zero-mean wind ``w`` at the wind
    buses, the linear-model angle gap of line ``l`` is

        gen[l] @ p + offset[l] + (wind[l] - gen[l] @ alpha) @ w

    Row ``l`` of ``gen`` (m x g) and of ``wind`` (m x n_w) is the
    difference of the from-bus and to-bus rows of ``Bred`` at the
    generator and at the wind buses; ``offset`` (m) is the gap caused by
    the mean wind and the load, and ``sigma`` holds the standard
    deviations of ``w``.
    """

    gen: np.ndarray
    wind: np.ndarray
    offset: np.ndarray
    sigma: np.ndarray

    def mean(self, dispatch: Dispatch) -> np.ndarray:
        """Mean angle gap of every line."""
        return self.gen @ dispatch.p + self.offset

    def response(self, dispatch: Dispatch) -> np.ndarray:
        """m x n_w sensitivity of every gap to the wind, net of the
        generators' affine response."""
        return self.wind - (self.gen @ dispatch.alpha)[:, None]

    def spread(self, dispatch: Dispatch) -> np.ndarray:
        """Standard deviation S of every line's angle gap."""
        return np.linalg.norm(self.sigma * self.response(dispatch), axis=1)


@dataclass(frozen=True)
class SpanningTree:
    """Spanning-tree factorization of flow conservation ``A f = q``.

    ``tree`` holds the arcs of a breadth-first spanning tree rooted at the
    slack bus and ``chords`` the other arcs, both sorted; ``keep`` indexes
    the non-slack buses and ``lu`` factors ``T``, the tree columns of the
    reduced incidence ``A[keep]``. ``T`` is invertible, so the flows that
    conserve ``q`` are exactly ``particular_flow(q) + chord_map @ y`` over
    chord flows ``y``: column c of ``chord_map`` is the tree-flow response
    to a unit flow on chord c, with that unit in place.
    """

    tree: np.ndarray
    chords: np.ndarray
    keep: np.ndarray
    lu: tuple
    chord_map: np.ndarray

    def particular_flow(self, q: np.ndarray) -> np.ndarray:
        """The flow with ``A f = q`` that is zero on every chord."""
        f = np.zeros(self.chord_map.shape[0])
        f[self.tree] = scipy.linalg.lu_solve(self.lu, q[self.keep])
        return f

    def angles(self, gamma: np.ndarray) -> np.ndarray:
        """Bus angles with ``theta_i - theta_j = gamma_k`` on every tree arc
        ``k = (i, j)`` and the slack at zero: ``T^T theta[keep] = gamma[tree]``."""
        theta = np.zeros(self.keep.size + 1)
        theta[self.keep] = scipy.linalg.lu_solve(self.lu, gamma[self.tree], trans=1)
        return theta


class LaplacianOperator:
    """Weighted Laplacian of a connected network with a grounded slack bus.

    Holds the full matrix ``B``, a Cholesky factorization of the reduced
    matrix (slack row and column removed), and exposes both the linear
    solve ``q -> Bred q`` and the dense ``Bred`` matrix needed by the
    chance-constraint coefficients.
    """

    def __init__(self, incidence: np.ndarray, beta: np.ndarray, slack_index: int):
        self._n = incidence.shape[0]
        self._slack = slack_index
        self.matrix = (incidence * beta) @ incidence.T
        keep = [i for i in range(self._n) if i != slack_index]
        self._keep = np.array(keep, dtype=int)
        reduced = self.matrix[np.ix_(keep, keep)]
        try:
            self._chol = scipy.linalg.cho_factor(reduced)
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - guarded upstream
            raise DisconnectedGraphError(
                "reduced Laplacian is not positive definite"
            ) from exc
        self._dense_reduced_inverse: np.ndarray | None = None

    @property
    def slack_index(self) -> int:
        return self._slack

    def apply_reduced_inverse(self, q: np.ndarray) -> np.ndarray:
        """Return ``Bred @ q`` for a full-length injection vector ``q``.

        The slack component of ``q`` is ignored (Bred has a zero slack
        row and column); the result has a zero at the slack position.
        """
        q = np.asarray(q, dtype=float)
        if q.shape[-1] != self._n:
            raise DimensionMismatchError(
                f"injection vector length {q.shape[-1]} != {self._n}"
            )
        out = np.zeros_like(q)
        sol = scipy.linalg.cho_solve(self._chol, q[..., self._keep].T).T
        out[..., self._keep] = sol
        return out

    def reduced_inverse(self) -> np.ndarray:
        """Dense ``n x n`` matrix ``Bred`` (cached after first call)."""
        if self._dense_reduced_inverse is None:
            eye = np.eye(self._n - 1)
            inv = scipy.linalg.cho_solve(self._chol, eye)
            full = np.zeros((self._n, self._n))
            full[np.ix_(self._keep, self._keep)] = 0.5 * (inv + inv.T)
            self._dense_reduced_inverse = full
        return self._dense_reduced_inverse


class Network:
    """Validated, index-mapped grid model.

    Buses may appear in any order; internally they are sorted by id and
    all arrays are aligned to that order. The slack bus defaults to the
    highest bus id unless given explicitly.
    """

    def __init__(
        self,
        buses: list[Bus],
        generators: list[Generator],
        lines: list[Line],
        slack_bus: int | None = None,
    ):
        if not buses:
            raise ValidationError("network needs at least one bus")
        if not generators:
            raise ValidationError("network needs at least one generator")
        ids = [b.id for b in buses]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate bus ids")
        self.buses = sorted(buses, key=lambda b: b.id)
        self._index = {b.id: i for i, b in enumerate(self.buses)}
        self.generators = list(generators)
        self.lines = list(lines)

        for g in generators:
            if g.bus not in self._index:
                raise ValidationError(f"generator references unknown bus {g.bus}")
        for ln in lines:
            for b in (ln.from_bus, ln.to_bus):
                if b not in self._index:
                    raise ValidationError(f"line references unknown bus {b}")

        n, m, ng = len(self.buses), len(self.lines), len(self.generators)
        self.n_bus, self.n_line, self.n_gen = n, m, ng

        self.demand = np.array([b.demand for b in self.buses])
        self.wind_mean = np.array([b.wind_mean for b in self.buses])
        self.wind_sigma = np.array([b.wind_sigma for b in self.buses])
        self.wind_index = np.flatnonzero(self.wind_sigma > 0)

        self.gen_bus_index = np.array([self._index[g.bus] for g in self.generators])
        self.pmin = np.array([g.pmin for g in self.generators])
        self.pmax = np.array([g.pmax for g in self.generators])
        self.cost_quad = np.array([g.c1 for g in self.generators])
        self.cost_lin = np.array([g.c2 for g in self.generators])
        self.cost_const = np.array([g.c3 for g in self.generators])

        self.from_index = np.array([self._index[l.from_bus] for l in self.lines], dtype=int)
        self.to_index = np.array([self._index[l.to_bus] for l in self.lines], dtype=int)
        self.beta = np.array([l.beta for l in self.lines])
        self.pbar = np.array([l.pbar for l in self.lines])

        if slack_bus is None:
            slack_bus = self.buses[-1].id
        if slack_bus not in self._index:
            raise ValidationError(f"slack bus {slack_bus} not in network")
        self.slack_bus = slack_bus
        self.slack_index = self._index[slack_bus]

        self._tree_arcs = self._bfs_tree_arcs()

        # incidence: +1 at the tail (from) bus, -1 at the head (to) bus
        self.incidence = np.zeros((n, m))
        if m:
            self.incidence[self.from_index, np.arange(m)] = 1.0
            self.incidence[self.to_index, np.arange(m)] = -1.0

        self.laplacian_op = LaplacianOperator(self.incidence, self.beta, self.slack_index)

        # map generator outputs to bus injections
        self.gen_matrix = np.zeros((n, ng))
        self.gen_matrix[self.gen_bus_index, np.arange(ng)] = 1.0
        self._gap_sensitivity: GapSensitivity | None = None
        self._spanning_tree: SpanningTree | None = None

    def _bfs_tree_arcs(self) -> list[int]:
        """Arcs of a breadth-first spanning tree from the slack bus.

        Raises DisconnectedGraphError when some bus is unreachable.
        """
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_bus)]
        for k, (a, b) in enumerate(zip(self.from_index.tolist(), self.to_index.tolist())):
            adj[a].append((b, k))
            adj[b].append((a, k))
        seen = np.zeros(self.n_bus, dtype=bool)
        seen[self.slack_index] = True
        order, arcs = [self.slack_index], []
        for v in order:  # order grows while it is walked: a FIFO queue
            for w, k in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
                    arcs.append(k)
        if not seen.all():
            missing = [self.buses[i].id for i in np.flatnonzero(~seen)]
            raise DisconnectedGraphError(
                f"buses unreachable from slack bus {self.slack_bus}: {missing}"
            )
        return arcs

    def bus_index(self, bus_id: int) -> int:
        try:
            return self._index[bus_id]
        except KeyError:
            raise ValidationError(f"unknown bus id {bus_id}") from None

    def line_between(self, from_id: int, to_id: int) -> int:
        """Index of the line joining two buses, in either orientation."""
        i, j = self.bus_index(from_id), self.bus_index(to_id)
        for k in range(self.n_line):
            if {self.from_index[k], self.to_index[k]} == {i, j}:
                return k
        raise ValidationError(f"no line between buses {from_id} and {to_id}")

    @property
    def effective_cap(self) -> np.ndarray:
        """Per-line bound on |sin(angle difference)|: min(1, pbar/beta).

        Synchrony caps the sine at 1; the thermal limit caps the flow at
        pbar, i.e. the sine at pbar/beta. The smaller applies.
        """
        return np.minimum(1.0, self.pbar / self.beta)

    @property
    def bred(self) -> np.ndarray:
        return self.laplacian_op.reduced_inverse()

    @property
    def gap_sensitivity(self) -> GapSensitivity:
        """Line angle-gap sensitivities (built on first use, then cached)."""
        if self._gap_sensitivity is None:
            bred = self.bred
            rows = bred[self.from_index] - bred[self.to_index]  # m x n, transient
            # the columns of gen_matrix are one-hot, so this equals rows @ gen_matrix
            self._gap_sensitivity = GapSensitivity(
                gen=rows[:, self.gen_bus_index],
                wind=rows[:, self.wind_index],
                offset=rows @ (self.wind_mean - self.demand),
                sigma=self.wind_sigma[self.wind_index],
            )
        return self._gap_sensitivity

    @property
    def spanning_tree(self) -> SpanningTree:
        """Spanning-tree factorization of conservation (built on first use,
        then cached)."""
        if self._spanning_tree is None:
            in_tree = np.zeros(self.n_line, dtype=bool)
            in_tree[self._tree_arcs] = True
            tree, chords = np.flatnonzero(in_tree), np.flatnonzero(~in_tree)
            keep = np.flatnonzero(np.arange(self.n_bus) != self.slack_index)
            a_red = self.incidence[keep]
            lu = scipy.linalg.lu_factor(a_red[:, tree])
            chord_map = np.zeros((self.n_line, chords.size))
            chord_map[tree] = scipy.linalg.lu_solve(lu, -a_red[:, chords])
            chord_map[chords, np.arange(chords.size)] = 1.0
            self._spanning_tree = SpanningTree(tree, chords, keep, lu, chord_map)
        return self._spanning_tree

    def solve_angles(self, q: np.ndarray) -> np.ndarray:
        """Linear-model angles ``Bred @ q`` with the slack grounded at 0."""
        return self.laplacian_op.apply_reduced_inverse(q)


def injection_vector(net: Network, dispatch: Dispatch, wind: np.ndarray | None = None) -> np.ndarray:
    """Net bus injections under a dispatch and a wind realization.

    ``wind`` is the vector of zero-mean fluctuations per bus (defaults
    to zero). The affine response subtracts ``alpha * sum(wind)`` from
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
    if wind.shape != (net.n_bus,):
        raise DimensionMismatchError(f"wind vector length {wind.shape} != ({net.n_bus},)")
    total = wind.sum()
    gen_out = dispatch.p - dispatch.alpha * total
    return net.gen_matrix @ gen_out + net.wind_mean + wind - net.demand
