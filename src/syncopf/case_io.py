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
pair are merged by summing beta and pbar. A chance override sets the
budgets of one line ("from"/"to") or one generator ("gen"). A key that
does not apply there, or that the layout above does not show, is a
ParseError. A MATPOWER import shim covers topology, limits, and
polynomial costs; resistance and voltage data are dropped with a logged
warning since the model is lossless and voltage-uniform.

parse_case_dict reads the entries as columns through _CASE_KEYS, one array
per field of Bus, Generator or Line, and hands them to Network as they are:
no entry object is made. A column of plain numbers is converted in one
step; any other column is read value by value by _whole or _number. Each
entry type's RULES are checked as array predicates on the columns. A
malformed case raises the error that reading its entries one by one would
raise: that of the first entry with a field of the wrong kind or a broken
rule, the first such field or rule of that entry.

Reports serialize deterministically through one writer, write_json:
fixed key order, json's indent=2 layout, floats rounded to 12
significant digits, so byte-identical runs are byte-identical files.
LINE_FIELDS, GENERATOR_FIELDS and ITERATION_FIELDS map each key of a
report's rows, in written order, to the reader of its column.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
from dataclasses import MISSING, dataclass, field, fields
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .network import Bus, Generator, Line, Network, entry_columns, first_broken, id_column

logger = logging.getLogger(__name__)

SCHEMA_VERSION = "1"

DEFAULT_EPS_LINE = 0.05
DEFAULT_EPS_SYNC = 0.0005  # ~two orders below the thermal default
DEFAULT_EPS_GEN = 0.05

# The budget families of the entries a chance override names: the case keys
# that name one entry (a line by its two ends, a generator by its index) and,
# in ChanceSpec's field order, each family the override may set, with its
# default budget.
_LINE_ENDS = ("from", "to")
_BUDGETS = {Line: (_LINE_ENDS, {"eps_line": DEFAULT_EPS_LINE, "eps_sync": DEFAULT_EPS_SYNC}),
            Generator: (("gen",), {"eps_gen": DEFAULT_EPS_GEN})}
# ... and each family's case key for its default budget, and that default
_DEFAULTS = {name: (f"{name}_default", default)
             for _, families in _BUDGETS.values() for name, default in families.items()}


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
        for name in _DEFAULTS:
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if np.count_nonzero((arr <= 0.0) | (arr > 0.5)):
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
        return ChanceSpec(**{
            name: getattr(self, name) if value is None
            else np.full_like(getattr(self, name), _check_eps(value, name))
            for name, value in zip(_DEFAULTS, (eps_line, eps_sync, eps_gen))})


def _not_text(value):
    """value, unless it is a string or a boolean: int() and float() read both."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"must be a number, got {value!r}")
    return value


def _whole_value(value) -> int:
    """value, a number, as an int; a number with a fractional part is
    refused rather than truncated."""
    if type(value) is int:
        return value
    if isinstance(_not_text(value), float) and not value.is_integer():
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
        return value if type(value) is float else float(_not_text(value))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field '{key}': {exc}") from None


def _column(entries: list, key: str, whole: bool, default) -> tuple[np.ndarray, Exception | None]:
    """The values of key in entries, read by _whole or by _number with its
    default (None where the key is required), as an array, and the error of
    the first entry that cannot be read (None if every entry can): the
    array then holds the values of the entries before it. A column of plain
    ints (or floats, for a float field), as json.loads reads numbers, is
    converted whole."""
    try:
        try:
            raw = list(map(itemgetter(key), entries))
        except KeyError:
            if default is None:
                raise
            raw = [entry.get(key, default) for entry in entries]
        if set(map(type, raw)) <= ({int} if whole else {float, int}):
            return (id_column(raw) if whole else np.fromiter(raw, float, len(raw))), None
    except (KeyError, TypeError, AttributeError, OverflowError):
        pass
    values, error = [], None
    try:
        for entry in entries:
            values.append(_whole(entry, key) if whole else _number(entry, key, default))
    except KeyError as exc:
        error = ValueError(f"missing required field {exc}")
    except (TypeError, ValueError, AttributeError) as exc:
        error = exc
    return (id_column(values) if whole else np.array(values, dtype=float)), error


# The case keys of each entry type: the list that holds its entries and the
# key of each of its fields, in field order.
_CASE_KEYS = {Bus: ("buses", ("id", "d", "mu", "sigma")),
              Generator: ("generators", ("bus", "pmin", "pmax", "c1", "c2", "c3")),
              Line: ("lines", (*_LINE_ENDS, "beta", "pbar"))}
# ... and, derived once, each field with its key, whether it is a whole
# number, and its default (None where the key is required)
_SCHEMA = {kind: tuple((f.name, key, f.type == "int", None if f.default is MISSING else f.default)
                       for f, key in zip(fields(kind), keys))
           for kind, (_, keys) in _CASE_KEYS.items()}
# The keys a case document and its chance section may hold
_DOC_KEYS = frozenset(["schema_version", "slack_bus", "chance", *(n for n, _ in _CASE_KEYS.values())])
_CHANCE_KEYS = frozenset(["overrides", *(key for key, _ in _DEFAULTS.values())])


def _check_keys(entries: list, known: frozenset, where) -> None:
    """ParseError for the first key not in known over the entries that are objects,
    in order (where(i) names entry i); other entries are left to the field readers."""
    try:
        if set().union(*entries) <= known:  # every key at once, in C
            return
    except TypeError:  # an entry that holds no keys
        pass
    for i, entry in enumerate(entries):
        stray = [key for key in entry if key not in known] if isinstance(entry, dict) else ()
        if stray:
            raise ParseError(f"{where(i)}: unknown key {stray[0]!r}")


def _entries(doc: dict, ctx: str, kind) -> dict:
    """The entries of kind (Bus, Generator or Line) in doc as one column per
    field, checked as if entry by entry: the first entry that holds a field
    of the wrong kind (a ParseError naming the entry by its index) or breaks
    one of kind.RULES (that rule's error) is the one reported."""
    name = _CASE_KEYS[kind][0]
    if name not in doc:
        raise ParseError(f"{ctx}: missing required field '{name}'")
    try:
        entries = list(doc[name])
    except TypeError as exc:
        raise ParseError(f"{ctx}: {name}[0]: {exc}") from exc
    _check_keys(entries, frozenset(_CASE_KEYS[kind][1]), lambda i: f"{ctx}: {name}[{i}]")
    columns, bad, error = {}, len(entries), None
    for field_name, key, whole, default in _SCHEMA[kind]:
        column, field_error = _column(entries, key, whole, default)
        columns[field_name] = column
        if field_error is not None and column.size < bad:
            bad, error = column.size, field_error
    # the entries before the first unreadable one, checked against the rules
    broken = first_broken(kind.RULES, columns if error is None else
                          {key: column[:bad] for key, column in columns.items()})
    if broken is not None:
        raise broken
    if error is not None:
        raise ParseError(f"{ctx}: {name}[{bad}]: {error}") from error
    return columns


def _merge_parallel(lines: dict) -> dict:
    """The line columns with parallel lines (one bus pair, in either
    orientation) merged into the first of them, beta and pbar summed in
    line order."""
    low = np.minimum(lines["from_bus"], lines["to_bus"])
    high = np.maximum(lines["from_bus"], lines["to_bus"])
    order = np.lexsort((high, low))  # by bus pair, each pair's lines in line order
    low, high = low[order], high[order]
    starts = np.concatenate([[True], (low[1:] != low[:-1]) | (high[1:] != high[:-1])])
    if starts.all():
        return lines
    first = np.empty_like(order)  # the first line of each line's bus pair
    first[order] = order[starts][np.cumsum(starts) - 1]
    rows = list(zip(*(column.tolist() for column in lines.values())))
    sums = {}  # first line of a pair -> the pair's lines so far, merged
    for k in np.flatnonzero(first != np.arange(first.size)).tolist():
        old = sums.get(first[k]) or Line(*rows[first[k]])
        frm, to, beta, pbar = rows[k]
        logger.info("merging parallel line %s-%s (beta %+g, pbar %+g)", frm, to, beta, pbar)
        sums[first[k]] = Line(old.from_bus, old.to_bus, beta=old.beta + beta, pbar=old.pbar + pbar)
    keep = np.flatnonzero(first == np.arange(first.size))
    merged = {key: column[keep] for key, column in lines.items()}
    slots = np.searchsorted(keep, list(sums))
    merged["beta"][slots] = [line.beta for line in sums.values()]
    merged["pbar"][slots] = [line.pbar for line in sums.values()]
    return merged


def parse_case_dict(doc: dict, ctx: str = "case") -> tuple[Network, ChanceSpec]:
    if not isinstance(doc, dict):
        raise ParseError(f"{ctx}: top level must be an object")
    version = str(doc.get("schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise ParseError(f"{ctx}: unrecognized schema_version {version!r}")
    _check_keys([doc], _DOC_KEYS, lambda i: ctx)

    buses = _entries(doc, ctx, Bus)
    gens = _entries(doc, ctx, Generator)
    if not gens["bus"].size:
        raise ValidationError(f"{ctx}: at least one generator required")
    lines = _merge_parallel(_entries(doc, ctx, Line))

    try:
        slack = _whole(doc, "slack_bus") if doc.get("slack_bus") is not None else None
    except ValueError as exc:
        raise ParseError(f"{ctx}: {exc}") from exc
    net = Network(buses, gens, lines, slack_bus=slack)

    chance_doc = doc.get("chance", {})
    if not isinstance(chance_doc, dict):
        raise ParseError(f"{ctx}: chance: must be an object, not {type(chance_doc).__name__}")
    _check_keys([chance_doc], _CHANCE_KEYS, lambda i: f"{ctx}: chance")
    try:
        spec = ChanceSpec.uniform(net, **{name: _number(chance_doc, key, default)
                                          for name, (key, default) in _DEFAULTS.items()})
    except ValueError as exc:
        raise ParseError(f"{ctx}: chance: {exc}") from exc
    overrides = chance_doc.get("overrides", [])
    if not isinstance(overrides, list):
        raise ParseError(f"{ctx}: chance.overrides: must be a list, not {type(overrides).__name__}")
    if not overrides:
        return net, spec
    budgets = {name: getattr(spec, name).copy() for name in _DEFAULTS}
    for i, ov in enumerate(overrides):
        c = f"{ctx}: chance.overrides[{i}]"
        if not isinstance(ov, dict):
            raise ParseError(f"{c}: must be an object, not {type(ov).__name__}")
        kind = next((kind for kind, (keys, _) in _BUDGETS.items()
                     if all(key in ov for key in keys)), None)
        if kind is None:
            raise ParseError(f"{c}: override needs 'gen' or 'from'/'to'")
        keys, families = _BUDGETS[kind]
        stray = [key for key in ov if key not in keys and key not in families]
        if stray:
            raise ParseError(f"{c}: key {stray[0]!r} does not apply to a "
                             f"{kind.__name__.lower()} override")
        try:
            ids = [_whole(ov, key) for key in keys]
            index = net.line_between(*ids) if kind is Line else ids[0]
            if kind is Generator and not 0 <= index < net.n_gen:
                raise ValidationError(f"{c}: generator index {index} out of range")
            for name in families:
                if name in ov:
                    budgets[name][index] = _check_eps(_number(ov, name), f"{c}: {name}")
        except ValueError as exc:
            raise ParseError(f"{c}: {exc}") from exc
    return net, ChanceSpec(**budgets)


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
    """Inverse of parse_case_dict up to default filling and line merging: the
    entries from the Network's columns, each budget family's entry 0 as its
    default, and an override for each entry whose budgets differ from it."""
    doc = {"schema_version": SCHEMA_VERSION, "slack_bus": net.slack_bus}
    for kind, (name, keys) in _CASE_KEYS.items():
        doc[name] = [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in net.columns(kind)))]
    budgets = {name: getattr(chance, name) for name in _DEFAULTS}
    doc["chance"] = {key: float(budgets[name][0]) if budgets[name].size else default
                     for name, (key, default) in _DEFAULTS.items()}
    # a line is named by its ends, its first fields; a generator by its index
    named_by = {Line: [end.tolist() for end in net.columns(Line)[:len(_LINE_ENDS)]],
                Generator: [range(net.n_gen)]}
    overrides = doc["chance"]["overrides"] = []
    for kind, (keys, families) in _BUDGETS.items():  # lines, then generators
        differs = {name: budgets[name] != budgets[name][:1] for name in families}
        for k in np.flatnonzero(np.any(list(differs.values()), axis=0)).tolist():
            overrides.append({key: column[k] for key, column in zip(keys, named_by[kind])}
                             | {name: float(budgets[name][k])
                                for name in families if differs[name][k]})
    return doc


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

def _floats(column: list) -> list:
    """The column of numbers as floats."""
    if not set(map(type, column)) <= {float, int}:  # as json.loads reads numbers
        for value in column:
            _not_text(value)
    return list(map(float, column))


def _wholes(column: list) -> list:
    """The column of ids or counts, each value read by _whole_value."""
    if set(map(type, column)) <= {int}:  # as json.loads reads whole numbers
        return column
    return list(map(_whole_value, column))


def _one_of(*values):
    """The column reader that takes only these JSON values: true is not 1."""
    kinds, allowed = set(map(type, values)), set(values)

    def read(column: list) -> list:
        if not (set(map(type, column)) <= kinds and set(column) <= allowed):
            wrong = next(v for v in column if type(v) not in kinds or v not in values)
            raise ValueError(f"must be {' or '.join(map(json.dumps, values))}, got {wrong!r}")
        return column
    return read


# the kind of a cut, as a report's iteration rows name it; cc_opf.violations
# pairs each line's rows in this order
CUT_KINDS = ("thermal", "sync")


def _text(doc: dict, key: str) -> str:
    """doc[key], which must be a JSON string."""
    value = doc[key]
    if type(value) is not str:
        raise ValueError(f"field '{key}': must be a string, got {value!r}")
    return value


# The keys of a report's line, generator and cut-iteration rows, in the
# order they are written, each with the reader of its column.
LINE_FIELDS = {"line": _wholes, "from": _wholes, "to": _wholes, "mean_flow": _floats,
               "prob_thermal": _floats, "prob_sync": _floats,
               "binding_thermal": _one_of(True, False), "binding_sync": _one_of(True, False)}
GENERATOR_FIELDS = {"gen": _wholes, "bus": _wholes, "prob_bounds": _floats}
ITERATION_FIELDS = {"iteration": _wholes, "line": _wholes, "kind": _one_of(*CUT_KINDS),
                    "violation": _floats}


def _row_builder(keys):
    """The function of equal-length columns that returns
    [dict(zip(keys, row)) for row in zip(*columns)], compiled from a dict
    display of keys, which builds a row in about half the time."""
    names = [f"v{i}" for i in range(len(keys))]
    display = ", ".join(f"{key!r}: {name}" for key, name in zip(keys, names))
    return eval(f"lambda columns: [{{{display}}} for {', '.join(names)} in zip(*columns)]")


line_rows = _row_builder(LINE_FIELDS)
generator_rows = _row_builder(GENERATOR_FIELDS)
iteration_rows = _row_builder(ITERATION_FIELDS)


@dataclass
class SolutionReport:
    """Solver output in serializable form.

    Probabilities are the exact two-sided analytic values under the
    Gaussian wind model; iterations carry the cutting-plane history for
    the alternation analysis. lines, generators and iterations hold the
    rows as they are written: dicts keyed by LINE_FIELDS,
    GENERATOR_FIELDS and ITERATION_FIELDS.
    """

    variant: str
    status: str
    objective: float
    p: list
    alpha: list
    lines: list
    generators: list
    iterations: list = field(default_factory=list)

    def __post_init__(self):
        for lr in self.lines:
            if not (0.0 <= lr["prob_thermal"] <= 1.0 and 0.0 <= lr["prob_sync"] <= 1.0):
                raise ValidationError("line probabilities must lie in [0, 1]")
        for gr in self.generators:
            if not 0.0 <= gr["prob_bounds"] <= 1.0:
                raise ValidationError("generator probabilities must lie in [0, 1]")
        last = 0
        for it in self.iterations:
            if it["iteration"] <= last:
                raise ValidationError("iteration numbers must be strictly increasing")
            last = it["iteration"]


def report_to_dict(report: SolutionReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "variant": report.variant,
        "status": report.status,
        "objective": report.objective,
        "dispatch": {"p": list(map(float, report.p)), "alpha": list(map(float, report.alpha))},
        "lines": report.lines,
        "generators": report.generators,
        "iterations": report.iterations,
    }


def _columns(rows, name: str, readers: dict) -> list[list]:
    """read([row[key] for row in rows]) for every key and its column reader
    read in readers; ValueError names the list and the field of a malformed
    row."""
    columns = []
    for key, read in readers.items():
        try:
            columns.append(read(list(map(itemgetter(key), rows))))
        except KeyError:
            raise ValueError(f"{name}: missing field '{key}'") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name}: field '{key}': {exc}") from exc
    return columns


def _finite_floats(values) -> list:
    values = _floats(values)
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
        (p,), (alpha,) = _columns([doc["dispatch"]], "dispatch", dict.fromkeys(
            ("p", "alpha"), lambda column: list(map(_finite_floats, column))))
        lines = _columns(doc["lines"], "lines", LINE_FIELDS)
        gens = _columns(doc["generators"], "generators", GENERATOR_FIELDS)
        iterations = _columns(doc.get("iterations", []), "iterations", ITERATION_FIELDS)
        return SolutionReport(
            variant=_text(doc, "variant"),
            status=_text(doc, "status"),
            objective=_number(doc, "objective"),
            p=p,
            alpha=alpha,
            lines=line_rows(lines),
            generators=generator_rows(gens),
            iterations=iteration_rows(iterations),
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
        floats = ("mean_flow", "prob_thermal", "prob_sync")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["line_id", *floats])
        columns = [[f"{lr[key]:.12g}" for lr in report.lines] for key in floats]
        w.writerows(zip([lr["line"] for lr in report.lines], *columns))
        return buf.getvalue().encode()
    raise ValueError(f"unknown report format {fmt!r}")


def read_report(source) -> SolutionReport:
    """Parse a JSON report written by write_report: str or bytes hold the
    JSON text itself, a Path names the report file."""
    if not isinstance(source, (bytes, str)):
        source = Path(source)
    return report_from_dict(_read_json(source, "report"))


# --- MATPOWER shim ----------------------------------------------------------

def import_matpower(path) -> tuple[Network, ChanceSpec]:
    """Topology-only import of a MATPOWER .m case.

    Reads bus demands, branch susceptances (1/x) and ratings, generator
    limits, and polynomial costs up to degree 2, all converted to
    per-unit on baseMVA. Resistance, shunts, and voltage data are
    dropped with a warning; wind fields are left zero for the caller to
    fill in.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read MATPOWER file {path}: {exc}") from exc
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

    net = Network(buses, gens, _merge_parallel(entry_columns(lines, Line)))
    return net, ChanceSpec.uniform(net)
