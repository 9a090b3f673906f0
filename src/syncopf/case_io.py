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

Reports serialize deterministically through one writer, write_json:
fixed key order, json's indent=2 layout, floats rounded to 12
significant digits, so byte-identical runs are byte-identical files.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
from dataclasses import asdict, dataclass, field, fields
from itertools import starmap
from json.encoder import encode_basestring_ascii
from operator import itemgetter
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


def _whole_value(value) -> int:
    """value as an int; a number with a fractional part is refused rather
    than truncated."""
    if type(value) is int:
        return value
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"must be a whole number, got {value!r}")
    return int(value)


def _whole(entry: dict, key: str) -> int:
    """entry[key], which must be present, as an int by _whole_value."""
    try:
        return _whole_value(entry[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field '{key}': {exc}") from None


def _number(entry: dict, key: str, default: float | None = None) -> float:
    """entry[key] as a float; the key is required when default is None."""
    value = entry[key] if default is None else entry.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field '{key}': {exc}") from None


def _entries(doc: dict, name: str, ctx: str, make) -> list:
    """make(entry) for every entry of the list doc[name]. An error names
    the entry by its index; the message is built only when one is raised."""
    out = []
    try:
        for entry in _require(doc, name, ctx):
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

    buses = _entries(doc, "buses", ctx, _bus)
    gens = _entries(doc, "generators", ctx, _generator)
    if not gens:
        raise ValidationError(f"{ctx}: at least one generator required")
    lines = _merge_parallel(_entries(doc, "lines", ctx, _line))

    try:
        slack = _whole(doc, "slack_bus") if doc.get("slack_bus") is not None else None
    except ValueError as exc:
        raise ParseError(f"{ctx}: {exc}") from exc
    net = Network(buses, gens, lines, slack_bus=slack)

    chance_doc = doc.get("chance", {})
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
        try:
            if "gen" in ov:
                gi = _whole(ov, "gen")
                if not (0 <= gi < net.n_gen):
                    raise ValidationError(f"{c}: generator index {gi} out of range")
                if "eps_gen" in ov:
                    eps_gen[gi] = _check_eps(_number(ov, "eps_gen"), f"{c}: eps_gen")
            elif "from" in ov and "to" in ov:
                li = net.line_between(_whole(ov, "from"), _whole(ov, "to"))
                if "eps_line" in ov:
                    eps_line[li] = _check_eps(_number(ov, "eps_line"), f"{c}: eps_line")
                if "eps_sync" in ov:
                    eps_sync[li] = _check_eps(_number(ov, "eps_sync"), f"{c}: eps_sync")
            else:
                raise ParseError(f"{c}: override needs 'gen' or 'from'/'to'")
        except ValueError as exc:
            raise ParseError(f"{c}: {exc}") from exc
    return net, ChanceSpec(eps_line=eps_line, eps_sync=eps_sync, eps_gen=eps_gen)


def _read_json(source, what: str):
    """The JSON document in source: a Path names the file, str or bytes hold
    the text itself. A file that cannot be read or parsed is a ParseError."""
    if isinstance(source, Path):
        what = f"{what} file {source}"
        try:
            source = source.read_text()
        except OSError as exc:
            raise ParseError(f"cannot read {what}: {exc}") from exc
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def parse_case(path) -> tuple[Network, ChanceSpec]:
    """Parse a JSON case file into a validated Network and ChanceSpec."""
    path = Path(path)
    return parse_case_dict(_read_json(path, "case"), ctx=str(path))


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


# --- JSON output ------------------------------------------------------------

def _float_json(x: float) -> str:
    """x rounded to 12 significant digits, as float.__repr__ writes the
    rounded value.

    For 1e-307 <= |x| < 1e11, and for zero, the '.12g' string is that repr
    but for a missing '.0' on whole numbers: a decimal of at most 15
    significant digits names a normal double that no shorter decimal names,
    so repr's shortest round-trip digits are the '.12g' digits, and both
    formats switch to an exponent below 1e-4 alike. Elsewhere the rounded
    value is parsed back and written by float.__repr__: subnormals keep
    fewer digits, '.12g' writes an exponent from 1e12 where repr waits for
    1e16, and NaN and the infinities read NaN and Infinity as json writes
    them.
    """
    ax = abs(x)
    if ax < 1e11 and (ax >= 1e-307 or ax == 0.0):
        s = f"{x:.12g}"
        return s if "." in s or "e" in s else s + ".0"
    if x != x:
        return "NaN"
    if ax == math.inf:
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(float(f"{x:.12g}"))


_JSON_SCALARS = {
    float: _float_json,
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_values(values, nl: str) -> list[str]:
    """Each of values written as an element of a container, on a line
    that starts with nl."""
    get = _JSON_SCALARS.get
    kinds = set(map(type, values))
    if len(kinds) == 1 and (f := get(kinds.pop())) is not None:
        return list(map(f, values))  # all of one scalar type, as a column mostly is
    return [f(v) if (f := get(type(v))) else _json_text(v, nl) for v in values]


def _json_objects(dicts: list[dict], nl: str, keys: tuple) -> list[str]:
    """Each of dicts, whose keys are keys in this order, written from a line
    that starts with nl: one template for all, filled column by column."""
    inner = nl + "  "
    fields = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
    template = "{" + inner + ("," + inner).join(fields) + nl + "}"
    columns = [_json_values([d[k] for d in dicts], inner) for k in keys]
    return [template % row for row in zip(*columns)]


def _json_text(obj, nl: str) -> str:
    """obj laid out as json.dumps(obj, indent=2) lays it out, nl being the
    newline and indent of the line obj starts on."""
    scalar = _JSON_SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = nl + "  "
        keys = tuple(obj[0]) if type(obj[0]) is dict else ()
        if keys and all(type(d) is dict and tuple(d) == keys for d in obj):
            items = _json_objects(obj, inner, keys)
        else:
            items = _json_values(obj, inner)
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(obj, dict):
        return _json_objects([obj], nl, tuple(obj))[0] if obj else "{}"
    for base in (float, int, str):  # subclasses, such as numpy's float64
        if isinstance(obj, base):
            return _JSON_SCALARS[base](obj)
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def write_json(doc) -> bytes:
    """The one JSON writer of reports and CLI output.

    doc is made of dicts with str keys, lists, str, int, float, bool and
    None. The result is byte for byte json.dumps(doc, indent=2) + "\\n",
    ASCII-only, with every float rounded to 12 significant digits first,
    so equal runs write equal files.
    """
    return (_json_text(doc, "\n") + "\n").encode()


# --- solution reports -------------------------------------------------------

def _each(kind):
    """The column reader that converts every value with kind."""
    return lambda column: list(map(kind, column))


_floats, _strs = _each(float), _each(str)


def _wholes(column: list) -> list:
    """The column of ids or counts, each value read by _whole_value."""
    if set(map(type, column)) <= {int}:  # as json.loads reads whole numbers
        return column
    return list(map(_whole_value, column))


def _bools(column: list) -> list:
    """The column, whose values must be JSON booleans."""
    if not set(map(type, column)) <= {bool}:
        wrong = next(v for v in column if type(v) is not bool)
        raise ValueError(f"must be true or false, got {wrong!r}")
    return column


# The keys of a report's line and generator rows, in the order they are
# written, and the reader of each field's column.
LINE_FIELDS = ("line", "from", "to", "mean_flow", "prob_thermal", "prob_sync",
               "binding_thermal", "binding_sync")
_LINE_KINDS = (_wholes, _wholes, _wholes, _floats, _floats, _floats, _bools, _bools)
GENERATOR_FIELDS = ("gen", "bus", "prob_bounds")
_GENERATOR_KINDS = (_wholes, _wholes, _floats)


def _row_builder(keys: tuple):
    """The function of equal-length columns that returns
    [dict(zip(keys, row)) for row in zip(*columns)], compiled from a dict
    display of keys, which builds a row in about half the time."""
    names = [f"v{i}" for i in range(len(keys))]
    display = ", ".join(f"{key!r}: {name}" for key, name in zip(keys, names))
    return eval(f"lambda columns: [{{{display}}} for {', '.join(names)} in zip(*columns)]")


line_rows = _row_builder(LINE_FIELDS)
generator_rows = _row_builder(GENERATOR_FIELDS)


@dataclass
class IterationRecord:
    iteration: int
    line: int
    kind: str  # thermal | sync | gen-min | gen-max
    violation: float


_ITERATION_FIELDS = tuple(f.name for f in fields(IterationRecord))
_ITERATION_KINDS = (_wholes, _wholes, _strs, _floats)


@dataclass
class SolutionReport:
    """Solver output in serializable form.

    Probabilities are the exact two-sided analytic values under the
    Gaussian wind model; iteration records carry the cutting-plane
    history for the alternation analysis. lines and generators hold the
    rows as they are written: dicts keyed by LINE_FIELDS and
    GENERATOR_FIELDS.
    """

    variant: str
    status: str
    objective: float
    p: list
    alpha: list
    lines: list
    generators: list
    iterations: list = field(default_factory=list)  # of IterationRecord

    def __post_init__(self):
        thermal, sync = LINE_FIELDS[4:6]
        for lr in self.lines:
            if not (0.0 <= lr[thermal] <= 1.0 and 0.0 <= lr[sync] <= 1.0):
                raise ValidationError("line probabilities must lie in [0, 1]")
        bounds = GENERATOR_FIELDS[2]
        for gr in self.generators:
            if not 0.0 <= gr[bounds] <= 1.0:
                raise ValidationError("generator probabilities must lie in [0, 1]")
        last = 0
        for it in self.iterations:
            if it.iteration <= last:
                raise ValidationError("iteration numbers must be strictly increasing")
            last = it.iteration


def report_to_dict(report: SolutionReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "variant": report.variant,
        "status": report.status,
        "objective": report.objective,
        "dispatch": {"p": list(map(float, report.p)), "alpha": list(map(float, report.alpha))},
        "lines": report.lines,
        "generators": report.generators,
        "iterations": [asdict(it) for it in report.iterations],
    }


def _columns(rows, name: str, keys: tuple, kinds: tuple) -> list[list]:
    """kind([row[key] for row in rows]) for every key and its column reader
    kind; ValueError names the list and the field of a malformed row."""
    columns = []
    for key, kind in zip(keys, kinds):
        try:
            columns.append(kind(list(map(itemgetter(key), rows))))
        except KeyError:
            raise ValueError(f"{name}: missing field '{key}'") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name}: field '{key}': {exc}") from exc
    return columns


def _finite_floats(values) -> list:
    values = list(map(float, values))
    if not all(map(math.isfinite, values)):
        raise ValueError("a value is not finite")
    return values


def report_from_dict(doc) -> SolutionReport:
    """The report doc, as json.loads reads it, with every field checked and
    converted; a malformed one raises ParseError."""
    if not isinstance(doc, dict):
        raise ParseError("report: top level must be an object")
    try:
        # the dispatch is read as a table of one row, with p and alpha its fields
        (p,), (alpha,) = _columns([doc["dispatch"]], "dispatch", ("p", "alpha"),
                                  (_each(_finite_floats),) * 2)
        lines = _columns(doc["lines"], "lines", LINE_FIELDS, _LINE_KINDS)
        gens = _columns(doc["generators"], "generators", GENERATOR_FIELDS, _GENERATOR_KINDS)
        iterations = _columns(doc.get("iterations", []), "iterations",
                              _ITERATION_FIELDS, _ITERATION_KINDS)
        return SolutionReport(
            variant=doc["variant"],
            status=doc["status"],
            objective=_number(doc, "objective"),
            p=p,
            alpha=alpha,
            lines=line_rows(lines),
            generators=generator_rows(gens),
            iterations=list(starmap(IterationRecord, zip(*iterations))),
        )
    except KeyError as exc:
        raise ParseError(f"report missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"report: {exc}") from exc


def write_report(report: SolutionReport, fmt: str = "json") -> bytes:
    """Serialize deterministically; 'json' is full-fidelity, 'csv' is the
    per-line flow table (line_id, mean_flow, prob_thermal, prob_sync)."""
    if fmt == "json":
        return write_json(report_to_dict(report))
    if fmt == "csv":
        line, *floats = LINE_FIELDS[0], *LINE_FIELDS[3:6]
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["line_id", *floats])
        columns = [[f"{lr[key]:.12g}" for lr in report.lines] for key in floats]
        w.writerows(zip([lr[line] for lr in report.lines], *columns))
        return buf.getvalue().encode()
    raise ValueError(f"unknown report format {fmt!r}")


def read_report(source) -> SolutionReport:
    """Parse a JSON report written by write_report: str or bytes hold the
    JSON text itself, a Path names the report file."""
    if not isinstance(source, (bytes, str)):
        source = Path(source)
    return report_from_dict(_read_json(source, "report"))


def read_flow_table(data: bytes) -> list[dict]:
    """Parse the CSV flow table back into row dictionaries."""
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return [dict(zip(header, (int(row[0]), *map(float, row[1:])))) for row in rows]


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
