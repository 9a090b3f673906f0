"""Case file parsing, chance-level configuration, and report serialization.

The native case format is a single JSON document:

    {
      "schema_version": "1",
      "slack_bus": 9,
      "buses":      [{"id": 1, "d": 0.0, "mu": 0.0, "sigma": 0.0}, ...],
      "generators": [{"bus": 1, "pmin": 0.1, "pmax": 2.5,
                      "c1": 0.11, "c2": 5.0, "c3": 150.0}, ...],
      "lines":      [{"from": 1, "to": 4, "beta": 17.36, "pbar": 2.5}, ...],
      "chance":     {"eps_line_default": 0.05, "eps_sync_default": 0.0005,
                     "eps_gen_default": 0.05,
                     "overrides": [{"from": 1, "to": 4, "eps_line": 0.01},
                                   {"gen": 0, "eps_gen": 0.02}]}
    }

Demands, wind, and limits are per-unit. Parallel lines between one bus
pair are merged by summing beta and pbar. A MATPOWER import shim covers
topology, limits, and polynomial costs; resistance and voltage data are
dropped with a logged warning since the model is lossless and
voltage-uniform.

Reports serialize deterministically: fixed key order, floats rounded to
12 significant digits, so byte-identical runs are byte-identical files.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .network import Bus, Generator, Line, Network

logger = logging.getLogger(__name__)

SCHEMA_VERSION = "1"

DEFAULT_EPS_LINE = 0.05
DEFAULT_EPS_SYNC = 0.0005  # ~two orders below the thermal default
DEFAULT_EPS_GEN = 0.05


def _check_eps(value: float, label: str) -> float:
    value = float(value)
    if not (0.0 < value <= 0.5):
        raise ValidationError(f"{label} must lie in (0, 0.5], got {value}")
    return value


@dataclass(frozen=True)
class ChanceSpec:
    """Per-constraint violation budgets epsilon, aligned to the network.

    eps_line and eps_sync have one entry per line, eps_gen one per
    generator; all strictly in (0, 0.5].
    """

    eps_line: np.ndarray
    eps_sync: np.ndarray
    eps_gen: np.ndarray

    def __post_init__(self):
        for name in ("eps_line", "eps_sync", "eps_gen"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if np.any(arr <= 0.0) or np.any(arr > 0.5):
                raise ValidationError(f"{name} entries must lie in (0, 0.5]")

    @classmethod
    def uniform(
        cls,
        net: Network,
        eps_line: float = DEFAULT_EPS_LINE,
        eps_sync: float = DEFAULT_EPS_SYNC,
        eps_gen: float = DEFAULT_EPS_GEN,
    ) -> "ChanceSpec":
        return cls(
            eps_line=np.full(net.n_line, _check_eps(eps_line, "eps_line")),
            eps_sync=np.full(net.n_line, _check_eps(eps_sync, "eps_sync")),
            eps_gen=np.full(net.n_gen, _check_eps(eps_gen, "eps_gen")),
        )

    def replace_defaults(
        self,
        eps_line: float | None = None,
        eps_sync: float | None = None,
        eps_gen: float | None = None,
    ) -> "ChanceSpec":
        """Uniform override of one or more budget families."""
        return ChanceSpec(
            eps_line=np.full_like(self.eps_line, _check_eps(eps_line, "eps_line"))
            if eps_line is not None
            else self.eps_line,
            eps_sync=np.full_like(self.eps_sync, _check_eps(eps_sync, "eps_sync"))
            if eps_sync is not None
            else self.eps_sync,
            eps_gen=np.full_like(self.eps_gen, _check_eps(eps_gen, "eps_gen"))
            if eps_gen is not None
            else self.eps_gen,
        )


def _require(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise ParseError(f"{ctx}: missing required field '{key}'")
    return obj[key]


def _merge_parallel(lines: list[Line]) -> list[Line]:
    merged: dict[tuple[int, int], Line] = {}
    order: list[tuple[int, int]] = []
    for ln in lines:
        key = (min(ln.from_bus, ln.to_bus), max(ln.from_bus, ln.to_bus))
        if key in merged:
            old = merged[key]
            logger.info(
                "merging parallel line %s-%s (beta %+g, pbar %+g)",
                ln.from_bus, ln.to_bus, ln.beta, ln.pbar,
            )
            merged[key] = Line(
                old.from_bus, old.to_bus, beta=old.beta + ln.beta, pbar=old.pbar + ln.pbar
            )
        else:
            merged[key] = ln
            order.append(key)
    return [merged[k] for k in order]


def parse_case_dict(doc: dict, ctx: str = "case") -> tuple[Network, ChanceSpec]:
    if not isinstance(doc, dict):
        raise ParseError(f"{ctx}: top level must be an object")
    version = str(doc.get("schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise ParseError(f"{ctx}: unrecognized schema_version {version!r}")

    buses = []
    for i, b in enumerate(_require(doc, "buses", ctx)):
        c = f"{ctx}: buses[{i}]"
        try:
            buses.append(
                Bus(
                    id=int(_require(b, "id", c)),
                    demand=float(b.get("d", 0.0)),
                    wind_mean=float(b.get("mu", 0.0)),
                    wind_sigma=float(b.get("sigma", 0.0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{c}: {exc}") from exc

    gens = []
    for i, g in enumerate(_require(doc, "generators", ctx)):
        c = f"{ctx}: generators[{i}]"
        try:
            gens.append(
                Generator(
                    bus=int(_require(g, "bus", c)),
                    pmin=float(_require(g, "pmin", c)),
                    pmax=float(_require(g, "pmax", c)),
                    c1=float(g.get("c1", 0.0)),
                    c2=float(g.get("c2", 0.0)),
                    c3=float(g.get("c3", 0.0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{c}: {exc}") from exc
    if not gens:
        raise ValidationError(f"{ctx}: at least one generator required")

    lines = []
    for i, l in enumerate(_require(doc, "lines", ctx)):
        c = f"{ctx}: lines[{i}]"
        try:
            lines.append(
                Line(
                    from_bus=int(_require(l, "from", c)),
                    to_bus=int(_require(l, "to", c)),
                    beta=float(_require(l, "beta", c)),
                    pbar=float(_require(l, "pbar", c)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{c}: {exc}") from exc
    lines = _merge_parallel(lines)

    slack = doc.get("slack_bus")
    net = Network(buses, gens, lines, slack_bus=int(slack) if slack is not None else None)

    chance_doc = doc.get("chance", {})
    spec = ChanceSpec.uniform(
        net,
        eps_line=chance_doc.get("eps_line_default", DEFAULT_EPS_LINE),
        eps_sync=chance_doc.get("eps_sync_default", DEFAULT_EPS_SYNC),
        eps_gen=chance_doc.get("eps_gen_default", DEFAULT_EPS_GEN),
    )
    eps_line = spec.eps_line.copy()
    eps_sync = spec.eps_sync.copy()
    eps_gen = spec.eps_gen.copy()
    for i, ov in enumerate(chance_doc.get("overrides", [])):
        c = f"{ctx}: chance.overrides[{i}]"
        if "gen" in ov:
            gi = int(ov["gen"])
            if not (0 <= gi < net.n_gen):
                raise ValidationError(f"{c}: generator index {gi} out of range")
            if "eps_gen" in ov:
                eps_gen[gi] = _check_eps(ov["eps_gen"], f"{c}: eps_gen")
        elif "from" in ov and "to" in ov:
            li = net.line_between(int(ov["from"]), int(ov["to"]))
            if "eps_line" in ov:
                eps_line[li] = _check_eps(ov["eps_line"], f"{c}: eps_line")
            if "eps_sync" in ov:
                eps_sync[li] = _check_eps(ov["eps_sync"], f"{c}: eps_sync")
        else:
            raise ParseError(f"{c}: override needs 'gen' or 'from'/'to'")
    return net, ChanceSpec(eps_line=eps_line, eps_sync=eps_sync, eps_gen=eps_gen)


def parse_case(path) -> tuple[Network, ChanceSpec]:
    """Parse a JSON case file into a validated Network and ChanceSpec."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read case file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_case_dict(doc, ctx=str(path))


def serialize_case(net: Network, chance: ChanceSpec) -> dict:
    """Inverse of parse_case_dict up to default filling and line merging."""
    doc = {
        "schema_version": SCHEMA_VERSION,
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


def _chance_overrides(net: Network, chance: ChanceSpec) -> list[dict]:
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


# --- solution reports -------------------------------------------------------

@dataclass
class LineReport:
    line: int
    from_bus: int
    to_bus: int
    mean_flow: float
    prob_thermal: float
    prob_sync: float
    binding_thermal: bool = False
    binding_sync: bool = False


@dataclass
class GeneratorReport:
    gen: int
    bus: int
    prob_bounds: float


@dataclass
class IterationRecord:
    iteration: int
    line: int
    kind: str  # thermal | sync | gen-min | gen-max
    violation: float


@dataclass
class SolutionReport:
    """Solver output in serializable form.

    Probabilities are the exact two-sided analytic values under the
    Gaussian wind model; iteration records carry the cutting-plane
    history for the alternation analysis.
    """

    variant: str
    status: str
    objective: float
    p: list
    alpha: list
    lines: list  # of LineReport
    generators: list  # of GeneratorReport
    iterations: list = field(default_factory=list)  # of IterationRecord

    def __post_init__(self):
        for lr in self.lines:
            if not (0.0 <= lr.prob_thermal <= 1.0 and 0.0 <= lr.prob_sync <= 1.0):
                raise ValidationError("line probabilities must lie in [0, 1]")
        for gr in self.generators:
            if not 0.0 <= gr.prob_bounds <= 1.0:
                raise ValidationError("generator probabilities must lie in [0, 1]")
        last = 0
        for it in self.iterations:
            if it.iteration <= last:
                raise ValidationError("iteration numbers must be strictly increasing")
            last = it.iteration


def _round12(x):
    if isinstance(x, bool) or not isinstance(x, float):
        return x
    if math.isnan(x) or math.isinf(x):
        return x
    return float(f"{x:.12g}")


def _round_tree(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, list):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    return obj


def report_to_dict(report: SolutionReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "variant": report.variant,
        "status": report.status,
        "objective": report.objective,
        "dispatch": {"p": list(map(float, report.p)), "alpha": list(map(float, report.alpha))},
        "lines": [
            {
                "line": lr.line,
                "from": lr.from_bus,
                "to": lr.to_bus,
                "mean_flow": lr.mean_flow,
                "prob_thermal": lr.prob_thermal,
                "prob_sync": lr.prob_sync,
                "binding_thermal": lr.binding_thermal,
                "binding_sync": lr.binding_sync,
            }
            for lr in report.lines
        ],
        "generators": [
            {"gen": gr.gen, "bus": gr.bus, "prob_bounds": gr.prob_bounds}
            for gr in report.generators
        ],
        "iterations": [
            {
                "iteration": it.iteration,
                "line": it.line,
                "kind": it.kind,
                "violation": it.violation,
            }
            for it in report.iterations
        ],
    }


def report_from_dict(doc: dict) -> SolutionReport:
    try:
        return SolutionReport(
            variant=doc["variant"],
            status=doc["status"],
            objective=float(doc["objective"]),
            p=[float(v) for v in doc["dispatch"]["p"]],
            alpha=[float(v) for v in doc["dispatch"]["alpha"]],
            lines=[
                LineReport(
                    line=int(l["line"]),
                    from_bus=int(l["from"]),
                    to_bus=int(l["to"]),
                    mean_flow=float(l["mean_flow"]),
                    prob_thermal=float(l["prob_thermal"]),
                    prob_sync=float(l["prob_sync"]),
                    binding_thermal=bool(l["binding_thermal"]),
                    binding_sync=bool(l["binding_sync"]),
                )
                for l in doc["lines"]
            ],
            generators=[
                GeneratorReport(
                    gen=int(g["gen"]), bus=int(g["bus"]), prob_bounds=float(g["prob_bounds"])
                )
                for g in doc["generators"]
            ],
            iterations=[
                IterationRecord(
                    iteration=int(r["iteration"]),
                    line=int(r["line"]),
                    kind=str(r["kind"]),
                    violation=float(r["violation"]),
                )
                for r in doc.get("iterations", [])
            ],
        )
    except KeyError as exc:
        raise ParseError(f"report missing field {exc}") from exc


def write_report(report: SolutionReport, fmt: str = "json") -> bytes:
    """Serialize deterministically; 'json' is full-fidelity, 'csv' is the
    per-line flow table (line_id, mean_flow, prob_thermal, prob_sync)."""
    if fmt == "json":
        doc = _round_tree(report_to_dict(report))
        return (json.dumps(doc, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["line_id", "mean_flow", "prob_thermal", "prob_sync"])
        for lr in report.lines:
            w.writerow(
                [
                    lr.line,
                    f"{lr.mean_flow:.12g}",
                    f"{lr.prob_thermal:.12g}",
                    f"{lr.prob_sync:.12g}",
                ]
            )
        return buf.getvalue().encode()
    raise ValueError(f"unknown report format {fmt!r}")


def read_report(source) -> SolutionReport:
    """Parse a JSON report written by write_report: str or bytes hold the
    JSON text itself, a Path names the report file."""
    if isinstance(source, (bytes, str)):
        text = source.decode() if isinstance(source, bytes) else source
    else:
        text = Path(source).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid report JSON: {exc.msg}") from exc
    return report_from_dict(doc)


def read_flow_table(data: bytes) -> list[dict]:
    """Parse the CSV flow table back into row dictionaries."""
    rows = []
    reader = csv.DictReader(io.StringIO(data.decode()))
    for row in reader:
        rows.append(
            {
                "line_id": int(row["line_id"]),
                "mean_flow": float(row["mean_flow"]),
                "prob_thermal": float(row["prob_thermal"]),
                "prob_sync": float(row["prob_sync"]),
            }
        )
    return rows


# --- MATPOWER shim ----------------------------------------------------------

def import_matpower(path) -> tuple[Network, ChanceSpec]:
    """Topology-only import of a MATPOWER .m case.

    Reads bus demands, branch susceptances (1/x) and ratings, generator
    limits, and polynomial costs up to degree 2, all converted to
    per-unit on baseMVA. Resistance, shunts, and voltage data are
    dropped with a warning; wind fields are left zero for the caller to
    fill in.
    """
    text = Path(path).read_text()
    base = re.search(r"mpc\.baseMVA\s*=\s*([0-9.eE+-]+)\s*;", text)
    base_mva = float(base.group(1)) if base else 100.0

    def block(name):
        m = re.search(rf"mpc\.{name}\s*=\s*\[(.*?)\];", text, re.S)
        if not m:
            return []
        rows = []
        for raw in re.split(r"[;\n]", m.group(1)):
            raw = raw.split("%")[0].strip()
            if not raw:
                continue
            rows.append([float(tok) for tok in raw.replace(",", " ").split()])
        return rows

    bus_rows = block("bus")
    gen_rows = block("gen")
    branch_rows = block("branch")
    cost_rows = block("gencost")
    if not bus_rows or not branch_rows:
        raise ParseError(f"{path}: no bus/branch tables found")

    logger.warning(
        "MATPOWER import drops resistance, shunt, and voltage data (lossless, "
        "voltage-uniform model)"
    )

    buses = [Bus(id=int(r[0]), demand=float(r[2]) / base_mva) for r in bus_rows]
    lines = []
    for r in branch_rows:
        status = r[10] if len(r) > 10 else 1.0
        if status == 0:
            continue
        x = r[3]
        if x <= 0:
            raise ValidationError(f"{path}: branch {int(r[0])}-{int(r[1])} needs x > 0")
        rate = r[5] / base_mva if len(r) > 5 and r[5] > 0 else 99.0
        lines.append(Line(int(r[0]), int(r[1]), beta=1.0 / x, pbar=rate))

    gens = []
    for i, r in enumerate(gen_rows):
        status = r[7] if len(r) > 7 else 1.0
        if status == 0:
            continue
        c1 = c2 = c3 = 0.0
        if i < len(cost_rows):
            cr = cost_rows[i]
            if cr and cr[0] == 2:
                coeffs = cr[4:]
                # polynomial of degree n-1, highest order first, $/MWh units
                if len(coeffs) == 3:
                    c1 = coeffs[0] * base_mva**2
                    c2 = coeffs[1] * base_mva
                    c3 = coeffs[2]
                elif len(coeffs) == 2:
                    c2 = coeffs[0] * base_mva
                    c3 = coeffs[1]
                elif len(coeffs) == 1:
                    c3 = coeffs[0]
        gens.append(
            Generator(
                bus=int(r[0]),
                pmin=float(r[9]) / base_mva if len(r) > 9 else 0.0,
                pmax=float(r[8]) / base_mva if len(r) > 8 else 99.0,
                c1=c1,
                c2=c2,
                c3=c3,
            )
        )

    net = Network(buses, gens, _merge_parallel(lines))
    return net, ChanceSpec.uniform(net)
