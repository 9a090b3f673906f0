"""The per-entry case parser, kept as the reference that the column parser
of syncopf.case_io is tested against.

parse_case_dict reads a case document the way the package read it before
it read columns: one checked Bus, Generator and Line object per entry,
parallel lines merged through a dict, bus ids mapped through a dict, and
the Network arrays built from the objects with a breadth-first spanning
tree over adjacency lists. It returns a ReferenceNetwork, which holds the
arrays under the Network's names, and the ChanceSpec; a malformed case
raises what the package raised. A chance override with a key that does
not apply to it (a line budget beside 'gen', say) raises ParseError, as
the package does now; the per-entry parser ignored such a key. So does a
key that the document, its chance section or an entry may not hold (a
misspelt "sgima", say), checked for the document, then for each list's
entries before any of their fields is read, then for the chance section.

serialize_case writes a Network and its ChanceSpec as the package wrote
them entry object by entry object, with a loop over the lines and the
generators for the chance overrides.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from syncopf.case_io import DEFAULT_EPS_GEN, DEFAULT_EPS_LINE, DEFAULT_EPS_SYNC, ChanceSpec
from syncopf.errors import (
    DisconnectedGraphError,
    NonPositiveSusceptanceError,
    ParseError,
    ValidationError,
)


@dataclass(frozen=True)
class Bus:
    id: int
    demand: float = 0.0
    wind_mean: float = 0.0
    wind_sigma: float = 0.0

    def __post_init__(self):
        if self.demand < 0 or not math.isfinite(self.demand):
            raise ValidationError(f"bus {self.id}: demand must be finite and >= 0")
        if self.wind_sigma < 0 or not math.isfinite(self.wind_sigma):
            raise ValidationError(f"bus {self.id}: wind_sigma must be finite and >= 0")
        if not math.isfinite(self.wind_mean):
            raise ValidationError(f"bus {self.id}: wind_mean must be finite")


@dataclass(frozen=True)
class Generator:
    bus: int
    pmin: float
    pmax: float
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.pmin) and math.isfinite(self.pmax)):
            raise ValidationError(f"generator at bus {self.bus}: bounds must be finite")
        if self.pmin > self.pmax:
            raise ValidationError(
                f"generator at bus {self.bus}: pmin {self.pmin} > pmax {self.pmax}"
            )
        if not math.isfinite(self.c1) or self.c1 < 0:
            raise ValidationError(f"generator at bus {self.bus}: c1 must be finite and >= 0")
        for name in ("c2", "c3"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"generator at bus {self.bus}: {name} must be finite")


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    beta: float
    pbar: float

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValidationError(f"line {self.from_bus}-{self.to_bus}: self-loop")
        if not math.isfinite(self.beta) or self.beta <= 0:
            raise NonPositiveSusceptanceError(
                f"line {self.from_bus}-{self.to_bus}: beta must be > 0, got {self.beta}"
            )
        if not math.isfinite(self.pbar) or self.pbar <= 0:
            raise ValidationError(
                f"line {self.from_bus}-{self.to_bus}: pbar must be > 0, got {self.pbar}"
            )


class ReferenceNetwork:
    """The arrays of a Network, built from entry objects."""

    def __init__(self, buses, generators, lines, slack_bus=None):
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

        n = len(self.buses)
        self.n_bus, self.n_line, self.n_gen = n, len(self.lines), len(self.generators)

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
        self.non_slack_index = np.flatnonzero(np.arange(n) != self.slack_index)

        self._tree_arcs = self._bfs_tree_arcs()

    def _bfs_tree_arcs(self) -> list[int]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_bus)]
        for k, (a, b) in enumerate(zip(self.from_index.tolist(), self.to_index.tolist())):
            adj[a].append((b, k))
            adj[b].append((a, k))
        seen = [False] * self.n_bus
        seen[self.slack_index] = True
        order, arcs = [self.slack_index], []
        for v in order:
            for w, k in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
                    arcs.append(k)
        if not all(seen):
            missing = [bus.id for bus, reached in zip(self.buses, seen) if not reached]
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
        i, j = self.bus_index(from_id), self.bus_index(to_id)
        for k in range(self.n_line):
            if {self.from_index[k], self.to_index[k]} == {i, j}:
                return k
        raise ValidationError(f"no line between buses {from_id} and {to_id}")


def _check_eps(value: float, label: str) -> float:
    value = float(value)
    if not (0.0 < value <= 0.5):
        raise ValidationError(f"{label} must lie in (0, 0.5], got {value}")
    return value


def _require(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise ParseError(f"{ctx}: missing required field '{key}'")
    return obj[key]


def _not_text(value):
    if isinstance(value, (str, bool)):
        raise ValueError(f"must be a number, got {value!r}")
    return value


def _whole_value(value) -> int:
    if type(value) is int:
        return value
    if isinstance(_not_text(value), float) and not value.is_integer():
        raise ValueError(f"must be a whole number, got {value!r}")
    return int(value)


def _whole(entry: dict, key: str) -> int:
    try:
        return _whole_value(entry[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field '{key}': {exc}") from None


def _number(entry: dict, key: str, default: float | None = None) -> float:
    value = entry[key] if default is None else entry.get(key, default)
    try:
        return value if type(value) is float else float(_not_text(value))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field '{key}': {exc}") from None


# the keys each list's entries may hold; any other key is a ParseError
ENTRY_KEYS = {"buses": ("id", "d", "mu", "sigma"),
              "generators": ("bus", "pmin", "pmax", "c1", "c2", "c3"),
              "lines": ("from", "to", "beta", "pbar")}


def _check_keys(obj: dict, known, where: str) -> None:
    for key in obj:
        if key not in known:
            raise ParseError(f"{where}: unknown key {key!r}")


def _entries(doc: dict, name: str, ctx: str, make) -> list:
    out = []
    try:
        entries = list(_require(doc, name, ctx))
    except TypeError as exc:
        raise ParseError(f"{ctx}: {name}[0]: {exc}") from exc
    # every entry's keys are checked before any entry's fields are read
    for i, entry in enumerate(entries):
        if isinstance(entry, dict):
            _check_keys(entry, ENTRY_KEYS[name], f"{ctx}: {name}[{i}]")
    try:
        for entry in entries:
            out.append(make(entry))
    except KeyError as exc:
        raise ParseError(f"{ctx}: {name}[{len(out)}]: missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{ctx}: {name}[{len(out)}]: {exc}") from exc
    return out


def _bus(b: dict) -> Bus:
    return Bus(id=_whole(b, "id"), demand=_number(b, "d", 0.0),
               wind_mean=_number(b, "mu", 0.0), wind_sigma=_number(b, "sigma", 0.0))


def _generator(g: dict) -> Generator:
    return Generator(bus=_whole(g, "bus"), pmin=_number(g, "pmin"), pmax=_number(g, "pmax"),
                     c1=_number(g, "c1", 0.0), c2=_number(g, "c2", 0.0),
                     c3=_number(g, "c3", 0.0))


def _line(l: dict) -> Line:
    return Line(from_bus=_whole(l, "from"), to_bus=_whole(l, "to"),
                beta=_number(l, "beta"), pbar=_number(l, "pbar"))


def _merge_parallel(lines: list[Line]) -> list[Line]:
    merged: dict[tuple[int, int], Line] = {}
    order: list[tuple[int, int]] = []
    for ln in lines:
        key = (min(ln.from_bus, ln.to_bus), max(ln.from_bus, ln.to_bus))
        if key in merged:
            old = merged[key]
            merged[key] = Line(
                old.from_bus, old.to_bus, beta=old.beta + ln.beta, pbar=old.pbar + ln.pbar
            )
        else:
            merged[key] = ln
            order.append(key)
    return [merged[k] for k in order]


def parse_case_dict(doc: dict, ctx: str = "case") -> tuple[ReferenceNetwork, ChanceSpec]:
    if not isinstance(doc, dict):
        raise ParseError(f"{ctx}: top level must be an object")
    version = str(doc.get("schema_version", "1"))
    if version != "1":
        raise ParseError(f"{ctx}: unrecognized schema_version {version!r}")
    _check_keys(doc, ("schema_version", "slack_bus", "buses", "generators", "lines", "chance"), ctx)

    buses = _entries(doc, "buses", ctx, _bus)
    gens = _entries(doc, "generators", ctx, _generator)
    if not gens:
        raise ValidationError(f"{ctx}: at least one generator required")
    lines = _merge_parallel(_entries(doc, "lines", ctx, _line))

    try:
        slack = _whole(doc, "slack_bus") if doc.get("slack_bus") is not None else None
    except ValueError as exc:
        raise ParseError(f"{ctx}: {exc}") from exc
    net = ReferenceNetwork(buses, gens, lines, slack_bus=slack)

    chance_doc = doc.get("chance", {})
    _check_keys(chance_doc, ("eps_line_default", "eps_sync_default", "eps_gen_default", "overrides"),
                f"{ctx}: chance")
    try:
        spec = ChanceSpec.uniform(
            net,
            eps_line=_number(chance_doc, "eps_line_default", DEFAULT_EPS_LINE),
            eps_sync=_number(chance_doc, "eps_sync_default", DEFAULT_EPS_SYNC),
            eps_gen=_number(chance_doc, "eps_gen_default", DEFAULT_EPS_GEN),
        )
    except ValueError as exc:
        raise ParseError(f"{ctx}: chance: {exc}") from exc
    eps_line = spec.eps_line.copy()
    eps_sync = spec.eps_sync.copy()
    eps_gen = spec.eps_gen.copy()
    for i, ov in enumerate(chance_doc.get("overrides", [])):
        c = f"{ctx}: chance.overrides[{i}]"
        if "from" in ov and "to" in ov:
            applies, what = ("from", "to", "eps_line", "eps_sync"), "line"
        elif "gen" in ov:
            applies, what = ("gen", "eps_gen"), "generator"
        else:
            raise ParseError(f"{c}: override needs 'gen' or 'from'/'to'")
        for key in ov:
            if key not in applies:
                raise ParseError(f"{c}: key {key!r} does not apply to a {what} override")
        try:
            if what == "generator":
                gi = _whole(ov, "gen")
                if not (0 <= gi < net.n_gen):
                    raise ValidationError(f"{c}: generator index {gi} out of range")
                if "eps_gen" in ov:
                    eps_gen[gi] = _check_eps(_number(ov, "eps_gen"), f"{c}: eps_gen")
            else:
                li = net.line_between(_whole(ov, "from"), _whole(ov, "to"))
                if "eps_line" in ov:
                    eps_line[li] = _check_eps(_number(ov, "eps_line"), f"{c}: eps_line")
                if "eps_sync" in ov:
                    eps_sync[li] = _check_eps(_number(ov, "eps_sync"), f"{c}: eps_sync")
        except ValueError as exc:
            raise ParseError(f"{c}: {exc}") from exc
    return net, ChanceSpec(eps_line=eps_line, eps_sync=eps_sync, eps_gen=eps_gen)


def serialize_case(net, chance: ChanceSpec) -> dict:
    doc = {
        "schema_version": "1",
        "slack_bus": net.slack_bus,
        "buses": [
            {"id": b.id, "d": b.demand, "mu": b.wind_mean, "sigma": b.wind_sigma}
            for b in net.buses
        ],
        "generators": [
            {
                "bus": g.bus,
                "pmin": g.pmin,
                "pmax": g.pmax,
                "c1": g.c1,
                "c2": g.c2,
                "c3": g.c3,
            }
            for g in net.generators
        ],
        "lines": [
            {"from": l.from_bus, "to": l.to_bus, "beta": l.beta, "pbar": l.pbar}
            for l in net.lines
        ],
        "chance": {
            "eps_line_default": float(chance.eps_line[0]) if net.n_line else DEFAULT_EPS_LINE,
            "eps_sync_default": float(chance.eps_sync[0]) if net.n_line else DEFAULT_EPS_SYNC,
            "eps_gen_default": float(chance.eps_gen[0]) if net.n_gen else DEFAULT_EPS_GEN,
            "overrides": _chance_overrides(net, chance),
        },
    }
    return doc


def _chance_overrides(net, chance: ChanceSpec) -> list[dict]:
    out = []
    if net.n_line:
        base_l, base_s = float(chance.eps_line[0]), float(chance.eps_sync[0])
        for k, ln in enumerate(net.lines):
            ov = {}
            if chance.eps_line[k] != base_l:
                ov["eps_line"] = float(chance.eps_line[k])
            if chance.eps_sync[k] != base_s:
                ov["eps_sync"] = float(chance.eps_sync[k])
            if ov:
                out.append({"from": ln.from_bus, "to": ln.to_bus, **ov})
    if net.n_gen:
        base_g = float(chance.eps_gen[0])
        for i in range(net.n_gen):
            if chance.eps_gen[i] != base_g:
                out.append({"gen": i, "eps_gen": float(chance.eps_gen[i])})
    return out
