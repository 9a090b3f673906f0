"""The column case parser against the per-entry reference parser it
replaced (case_parser_reference): the same Network arrays, bit for bit,
and the same ChanceSpec for valid cases; the same exception class and
message for malformed ones. Also serialize_case against the per-entry
writer it replaced, Network.line_between against the loop it replaced,
and the chance section's malformed shapes."""
import copy
import importlib.util
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import case_parser_reference as reference
from syncopf import Bus, ChanceSpec, Generator, Line, Network, ParseError, ValidationError
from syncopf.case_io import parse_case_dict, serialize_case

ROOT = Path(__file__).resolve().parent.parent

ARRAYS = ("demand", "wind_mean", "wind_sigma", "wind_index", "gen_bus_index", "pmin", "pmax",
          "cost_quad", "cost_lin", "cost_const", "from_index", "to_index", "beta", "pbar",
          "non_slack_index")
SCALARS = ("n_bus", "n_line", "n_gen", "slack_bus", "slack_index", "_tree_arcs")


def assert_same_network(net, ref):
    for name in ARRAYS:
        got, want = getattr(net, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for name in SCALARS:
        got, want = getattr(net, name), getattr(ref, name)
        assert got == want and type(got) is type(want), name
    for kind in ("buses", "generators", "lines"):
        # repr: 1 == 1.0, but their reprs differ
        got, want = getattr(net, kind), getattr(ref, kind)
        assert [repr(vars(e)) for e in got] == [repr(vars(e)) for e in want], kind


def outcome(parse, doc):
    """parse(doc) as (network, spec), or as the (class, message) it raised."""
    try:
        return parse(copy.deepcopy(doc))
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_outcome(doc):
    got, want = outcome(parse_case_dict, doc), outcome(reference.parse_case_dict, doc)
    if isinstance(want[0], type):
        assert got == want
        return want
    assert not isinstance(got[0], type), got
    assert_same_network(got[0], want[0])
    for name in ("eps_line", "eps_sync", "eps_gen"):
        assert getattr(got[1], name).tobytes() == getattr(want[1], name).tobytes(), name
    return None


def grid_doc(n_bus, n_line, n_gen, seed):
    """A ring with random chords, as a case document."""
    rng = np.random.default_rng(seed)
    pairs = [(i, i % n_bus + 1) for i in range(1, n_bus + 1)]
    seen = {frozenset(p) for p in pairs}
    while len(pairs) < n_line:
        a, b = (int(x) for x in rng.choice(n_bus, size=2, replace=False) + 1)
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            pairs.append((a, b))
    return {
        "buses": [{"id": i, "d": float(d), "mu": float(s), "sigma": float(s)}
                  for i, d, s in zip(range(1, n_bus + 1), rng.uniform(0, 1, n_bus),
                                     rng.uniform(0, 0.05, n_bus) * (rng.random(n_bus) < 0.1))],
        "generators": [{"bus": int(b), "pmin": 0.0, "pmax": 5.0, "c1": float(c)}
                       for b, c in zip(rng.choice(n_bus, n_gen, replace=False) + 1,
                                       rng.uniform(0.5, 2.0, n_gen))],
        "lines": [{"from": a, "to": b, "beta": float(x), "pbar": float(x / 3)}
                  for (a, b), x in zip(pairs, rng.uniform(5, 20, n_line))],
    }


@pytest.mark.parametrize("path", ["cases/case9_wind.json", "cases/alternation.json",
                                  "tests/data/mesh100.json", "grid1000"])
def test_reference_cases_parse_to_the_same_arrays(path):
    doc = (grid_doc(1000, 1500, 80, 42) if path == "grid1000"
           else json.loads((ROOT / path).read_text()))
    assert assert_same_outcome(doc) is None


# --- malformed cases: one mutation at a time ----------------------------------

def base_doc():
    """Five buses out of id order, three generators, and seven lines, two of
    them parallel to a third; chance overrides on a line and a generator."""
    return {
        "schema_version": "1",
        "buses": [
            {"id": 4, "d": 0.2, "mu": 0.1, "sigma": 0.05},
            {"id": 1, "d": 0.0},
            {"id": 7, "d": 0.5, "sigma": 0.02},
            {"id": 2, "d": 0.3, "mu": 0.0, "sigma": 0.0},
            {"id": 5, "d": 0.1},
        ],
        "generators": [
            {"bus": 1, "pmin": 0.0, "pmax": 2.0, "c1": 1.0, "c2": 0.5},
            {"bus": 7, "pmin": 0.1, "pmax": 1.0, "c1": 2.0, "c3": 1.0},
            {"bus": 5, "pmin": 0.0, "pmax": 1.5},
        ],
        "lines": [
            {"from": 1, "to": 2, "beta": 1.5, "pbar": 1.0},
            {"from": 2, "to": 4, "beta": 2.0, "pbar": 0.8},
            {"from": 4, "to": 7, "beta": 1.0, "pbar": 0.7},
            {"from": 2, "to": 1, "beta": 0.5, "pbar": 0.4},
            {"from": 7, "to": 5, "beta": 3.0, "pbar": 1.2},
            {"from": 5, "to": 1, "beta": 1.2, "pbar": 0.9},
            {"from": 1, "to": 2, "beta": 0.25, "pbar": 0.1},
        ],
        "chance": {"eps_line_default": 0.04,
                   "overrides": [{"from": 7, "to": 4, "eps_sync": 1e-4},
                                 {"gen": 2, "eps_gen": 0.2}]},
    }


FIELDS = {
    "buses": {"id": "whole", "d": "nonneg", "mu": "finite", "sigma": "nonneg"},
    "generators": {"bus": "whole", "pmin": "finite", "pmax": "finite", "c1": "nonneg",
                   "c2": "finite", "c3": "finite"},
    "lines": {"from": "whole", "to": "whole", "beta": "positive", "pbar": "positive"},
}
WRONG_KINDS = ["1.5", "x", True, False, None, [1], {"a": 1}, 10**400]
NON_FINITE = [float("nan"), float("inf"), -float("inf")]
# the values that break each kind of number's rule
BREAKING = {"whole": [1.5, -0.5, float("nan"), float("inf")], "nonneg": [-1e-9, -2],
            "finite": [], "positive": [0, 0.0, -1.0]}


def mutations(kind):
    """(label, mutate(entries, i)) for the entry at index i of doc[kind]."""
    def set_to(key, value):
        return lambda entries, i: entries[i].__setitem__(key, value)

    out = []
    for key, rule in FIELDS[kind].items():
        out.append((f"{key} missing", lambda entries, i, key=key: entries[i].pop(key, None)))
        for value in WRONG_KINDS + NON_FINITE + BREAKING[rule]:
            out.append((f"{key}={value!r}", set_to(key, value)))
        if rule == "whole":
            out.append((f"{key} unknown", set_to(key, 99)))
            out.append((f"{key} whole float", set_to(key, 2.0)))
            out.append((f"{key} beyond int64", set_to(key, 10**30)))
    for value in ([], None, "id", 3, [1, 2]):
        out.append((f"entry {value!r}", lambda entries, i, value=value:
                    entries.__setitem__(i, value)))
    out.append(("unknown key", lambda entries, i: entries[i].__setitem__("sgima", 0.1)))
    out.append(("unknown key and a bad field", lambda entries, i: entries[i].update(
        {"extra": 1, next(iter(FIELDS[kind])): "x"})))
    if kind == "buses":
        out.append(("duplicate id", lambda entries, i: entries[i].__setitem__(
            "id", entries[(i + 1) % len(entries)]["id"])))
        out.append(("isolated bus", lambda entries, i: entries[i].__setitem__("id", 40)))
    if kind == "generators":
        out.append(("pmin > pmax", lambda entries, i: entries[i].update(pmin=3, pmax=2.5)))
    if kind == "lines":
        out.append(("self-loop", lambda entries, i: entries[i].__setitem__(
            "to", entries[i]["from"])))
        out.append(("parallel", lambda entries, i: entries[i].update(
            {"from": entries[0]["to"], "to": entries[0]["from"]})))
        out.append(("removed", lambda entries, i: entries.pop(i)))
    return out


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("kind", ["buses", "generators", "lines"])
def test_mutated_case_raises_as_the_reference(kind, position):
    mismatches = []
    for label, mutate in mutations(kind):
        doc = base_doc()
        entries = doc[kind]
        mutate(entries, {"first": 0, "middle": len(entries) // 2, "last": -1}[position])
        try:
            assert_same_outcome(doc)
        except AssertionError as exc:
            mismatches.append(f"{label}: {exc}")
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.pop("buses"),
    lambda doc: doc.update(buses=5),
    lambda doc: doc.update(buses=None),
    lambda doc: doc.update(buses="ab"),
    lambda doc: doc.update(buses=[]),
    lambda doc: doc.update(generators=[]),
    lambda doc: doc.update(lines={}),
    lambda doc: doc.update(slack_bus=40),
    lambda doc: doc.update(slack_bus=2.5),
    lambda doc: doc.update(slack_bus=4.0),
    lambda doc: doc["lines"][2].update(beta=1e308) or doc["lines"].append(
        {"from": 7, "to": 4, "beta": 1e308, "pbar": 1.0}),
    lambda doc: doc["lines"][3].update(pbar=1.7e308) or doc["lines"][6].update(pbar=1.7e308),
    lambda doc: doc["lines"].extend([{"from": 1, "to": 2, "beta": "x", "pbar": -1},
                                     {"from": 2, "to": 2, "beta": 1, "pbar": 1}]),
], ids=["no buses", "buses a number", "buses null", "buses a string", "buses empty",
        "generators empty", "lines an object", "unknown slack", "fractional slack",
        "whole float slack", "merged beta overflows", "merged pbar overflows",
        "two bad lines"])
def test_malformed_document_raises_as_the_reference(mutate):
    doc = base_doc()
    mutate(doc)
    assert_same_outcome(doc)


def test_first_bad_entry_across_fields_and_rules():
    # a wrong kind at entry 3 and a broken rule at entry 2: entry 2's rule
    doc = base_doc()
    doc["lines"][3]["beta"] = "x"
    doc["lines"][2]["pbar"] = -1.0
    assert assert_same_outcome(doc)[0] is ValidationError
    # the same entry: its fields are read before its rules are checked
    doc["lines"][2]["to"] = "y"
    assert assert_same_outcome(doc)[0] is ParseError
    # two bad fields of one entry: the first in reading order
    doc = base_doc()
    doc["generators"][1].update(c3="z", pmin=None)
    assert "'pmin'" in assert_same_outcome(doc)[1]


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc["buses"][4].update(sgima=doc["buses"][4].pop("sigma")),
     "case: buses[4]: unknown key 'sgima'"),
    (lambda doc: doc["chance"].update(eps_line_defualt=0.01),
     "case: chance: unknown key 'eps_line_defualt'"),
    (lambda doc: doc.update(slack=9), "case: unknown key 'slack'"),
    (lambda doc: doc["generators"][2].update(cost=1.0), "case: generators[2]: unknown key 'cost'"),
    # keys are checked before fields: the bad beta of line 0 is not the one reported
    (lambda doc: doc["lines"][0].update(beta="x") or doc["lines"][8].update(r=0.01),
     "case: lines[8]: unknown key 'r'"),
], ids=["bus sigma misspelt", "chance default misspelt", "document", "generator", "line"])
def test_unknown_key_is_a_parse_error(mutate, message):
    # each of these once parsed: the misspelt sigma as no wind at bus 5, the
    # misspelt default as every line budget left at 0.05
    doc = json.loads((ROOT / "cases/case9_wind.json").read_text())
    mutate(doc)
    assert outcome(parse_case_dict, doc) == outcome(reference.parse_case_dict, doc) == (ParseError, message)


# --- the chance section -----------------------------------------------------

@pytest.mark.parametrize("chance, match", [
    ([], r"chance: must be an object, not list"),
    (None, r"chance: must be an object, not NoneType"),
    ({"overrides": [1]}, r"chance\.overrides\[0\]: must be an object, not int"),
    ({"overrides": [{"gen": 0, "eps_gen": 0.1}, None]},
     r"chance\.overrides\[1\]: must be an object"),
    ({"overrides": [["gen", 0]]}, r"chance\.overrides\[0\]: must be an object, not list"),
    ({"overrides": None}, r"chance\.overrides: must be a list, not NoneType"),
    ({"overrides": 3}, r"chance\.overrides: must be a list, not int"),
])
def test_malformed_chance_section_is_one_parse_error(chance, match):
    doc = base_doc()
    doc["chance"] = chance
    with pytest.raises(ParseError, match=match):
        parse_case_dict(doc)


@pytest.mark.parametrize("override, message", [
    ({"gen": 0, "eps_line": 0.01}, "key 'eps_line' does not apply to a generator override"),
    ({"from": 1, "to": 4, "eps_gen": 0.01}, "key 'eps_gen' does not apply to a line override"),
    ({"from": 1, "to": 4, "eps_lin": 0.01}, "key 'eps_lin' does not apply to a line override"),
    ({"gen": 0, "from": 1, "to": 4, "eps_line": 0.01},
     "key 'gen' does not apply to a line override"),
    ({"gen": 0, "to": 4, "eps_gen": 0.01}, "key 'to' does not apply to a generator override"),
])
def test_override_key_that_does_not_apply_is_a_parse_error(override, message):
    # each of these once parsed and changed no budget
    doc = json.loads((ROOT / "cases/case9_wind.json").read_text())
    doc["chance"]["overrides"] = [{"from": 4, "to": 5, "eps_line": 0.02}, override]
    want = (ParseError, f"case: chance.overrides[1]: {message}")
    assert outcome(parse_case_dict, doc) == outcome(reference.parse_case_dict, doc) == want


def test_malformed_chance_section_is_one_line_cli_error(tmp_path, capsys):
    from syncopf.cli import main

    doc = base_doc()
    doc["chance"] = {"overrides": [1]}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "dc", "--case", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: chance.overrides[0]: must be an object, not int\n"


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc["buses"][4].update(sgima=doc["buses"][4].pop("sigma")),
     "buses[4]: unknown key 'sgima'"),
    (lambda doc: doc["chance"].update(eps_line_defualt=0.01), "chance: unknown key 'eps_line_defualt'"),
], ids=["bus", "chance"])
def test_unknown_key_is_one_line_cli_error(tmp_path, capsys, mutate, message):
    from syncopf.cli import main

    doc = json.loads((ROOT / "cases/case9_wind.json").read_text())
    mutate(doc)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "ccopf", "--case", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: {message}\n")


# --- serialize_case ------------------------------------------------------------

def synthetic_grid1000() -> dict:
    """The 1000-bus grid of the benchmark's ccopf-grid1000 workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclass
    spec.loader.exec_module(workloads)
    return workloads.synthetic_case(1000, 1500, 80, 50, 42, (0.02, 1e-4, 0.05))


def case9_with_overrides() -> dict:
    """case9 with line, sync and generator overrides, one line holding both
    line budgets."""
    doc = json.loads((ROOT / "cases/case9_wind.json").read_text())
    doc["chance"]["overrides"] = [{"from": 5, "to": 4, "eps_line": 0.01, "eps_sync": 1e-4},
                                  {"from": 7, "to": 8, "eps_sync": 2e-4},
                                  {"gen": 2, "eps_gen": 0.02},
                                  {"from": 9, "to": 4, "eps_line": 0.03}]
    return doc


SERIALIZED = {
    "case9": lambda: json.loads((ROOT / "cases/case9_wind.json").read_text()),
    "case9-overrides": case9_with_overrides,
    "mesh100": lambda: json.loads((ROOT / "tests/data/mesh100.json").read_text()),
    "alternation": lambda: json.loads((ROOT / "cases/alternation.json").read_text()),
    "grid1000": synthetic_grid1000,
}


@pytest.mark.parametrize("name", SERIALIZED)
def test_serialize_case_writes_what_the_entry_objects_wrote(name):
    net, chance = parse_case_dict(SERIALIZED[name]())
    got, want = serialize_case(net, chance), reference.serialize_case(net, chance)
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # also 1 against 1.0


@pytest.mark.parametrize("name", SERIALIZED)
def test_serialized_case_parses_back_bit_for_bit(name):
    net, chance = parse_case_dict(SERIALIZED[name]())
    net2, chance2 = parse_case_dict(json.loads(json.dumps(serialize_case(net, chance))))
    assert_same_network(net2, net)
    assert net2.bus_ids.tobytes() == net.bus_ids.tobytes()
    for f in fields(ChanceSpec):
        got, want = getattr(chance2, f.name), getattr(chance, f.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name


# --- Network.line_between -----------------------------------------------------

def test_line_between_matches_the_loop_on_the_1000_bus_grid():
    net, _ = parse_case_dict(grid_doc(1000, 1500, 80, 42))
    # the loop's answer for every bus pair: the first line joining it, in line order
    first = {}
    for k, (f, t) in enumerate(zip(net.from_index.tolist(), net.to_index.tolist())):
        first.setdefault(frozenset((f, t)), k)
    ids = net.bus_ids.tolist()
    for pair, k in first.items():
        i, j = (ids[b] for b in pair)
        assert net.line_between(i, j) == net.line_between(j, i) == k
        assert type(net.line_between(i, j)) is int
    for frm, to, match in [(1, 3, "no line between buses 1 and 3"), (5, 5, "no line between"),
                           (1, 1001, "unknown bus id 1001"), (0, 2, "unknown bus id 0")]:
        assert frozenset((frm, to)) not in first
        with pytest.raises(ValidationError, match=match):
            net.line_between(frm, to)


def test_line_between_returns_the_first_of_parallel_lines():
    net = Network([Bus(3), Bus(1), Bus(2)], [Generator(bus=1, pmin=0.0, pmax=1.0)],
                  [Line(1, 2, 1.0, 1.0), Line(3, 2, 1.0, 1.0), Line(2, 3, 2.0, 1.0)])
    assert net.line_between(3, 2) == net.line_between(2, 3) == 1


# --- Networks built from entry objects ------------------------------------------

def multigraph(rng):
    """Entries of a random connected multigraph, buses out of id order, for
    both the package and the reference."""
    n = int(rng.integers(1, 15))
    ids = (rng.permutation(40)[:n] - 5).tolist()
    pairs = [(ids[int(rng.integers(0, i))], ids[i]) for i in range(1, n)]
    for _ in range(int(rng.integers(0, 2 * n))):
        if n > 1:
            a, b = rng.choice(n, size=2, replace=False)
            pairs.append((ids[a], ids[b]))
    order = rng.permutation(len(pairs))
    pairs = [pairs[k][::1 if rng.random() < 0.5 else -1] for k in order]
    wind = rng.uniform(0, 0.1, n) * (rng.random(n) < 0.5)
    buses = [(i, float(d), float(w), float(w)) for i, d, w in zip(ids, rng.uniform(0, 1, n), wind)]
    gens = [(ids[int(g)], 0.0, 1.0, 1.0, 0.0, 0.0) for g in rng.integers(0, n, 3)]
    lines = [(a, b, float(x), 1.0) for (a, b), x in zip(pairs, rng.uniform(1, 2, len(pairs)))]
    slack = ids[int(rng.integers(0, n))] if rng.random() < 0.5 else None
    return buses, gens, lines, slack


def test_network_from_entries_matches_the_reference_on_multigraphs():
    rng = np.random.default_rng(2026)
    for _ in range(300):
        buses, gens, lines, slack = multigraph(rng)
        net = Network([Bus(*b) for b in buses], [Generator(*g) for g in gens],
                      [Line(*l) for l in lines], slack_bus=slack)
        ref = reference.ReferenceNetwork([reference.Bus(*b) for b in buses],
                                         [reference.Generator(*g) for g in gens],
                                         [reference.Line(*l) for l in lines], slack_bus=slack)
        assert_same_network(net, ref)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests need hypothesis; the tests above do not
    st = None

if st is not None:
    def number(lo, hi):
        """A float in [lo, hi], or sometimes an int there."""
        return st.floats(lo, hi) | st.integers(int(np.ceil(lo)), int(np.floor(hi)))

    def optional(draw, entry, key, values):
        if draw(st.booleans()):
            entry[key] = draw(values)

    @st.composite
    def valid_cases(draw):
        n = draw(st.integers(1, 10))
        ids = draw(st.lists(st.integers(-20, 60), min_size=n, max_size=n, unique=True))
        def written(i):  # an id as an int or as a whole-number float
            return float(i) if draw(st.booleans()) else i

        buses = []
        for i in ids:
            entry = {"id": written(i)}
            optional(draw, entry, "d", number(0, 3))
            optional(draw, entry, "mu", number(-1, 1))
            optional(draw, entry, "sigma", number(0, 0.2))
            buses.append(entry)
        gens = []
        for _ in range(draw(st.integers(1, 4))):
            pmin = draw(number(-1, 2))
            entry = {"bus": written(draw(st.sampled_from(ids))), "pmin": pmin,
                     "pmax": draw(number(pmin, 4) if isinstance(pmin, float)
                                  else st.integers(pmin, 4))}
            optional(draw, entry, "c1", number(0, 5))
            optional(draw, entry, "c2", number(-5, 5))
            optional(draw, entry, "c3", number(-5, 5))
            gens.append(entry)
        tree = [(ids[draw(st.integers(0, k - 1))], ids[k]) for k in range(1, n)]
        chords = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                               .filter(lambda p: p[0] != p[1]), max_size=n)) if n > 1 else []
        pairs = []
        for pair in tree + chords:  # each pair once to three times, either way round
            pairs += [pair[::draw(st.sampled_from([1, -1]))]
                      for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3])))]
        pairs = draw(st.permutations(pairs))
        lines = [{"from": written(a), "to": written(b), "beta": draw(number(1e-3, 50).filter(bool)),
                  "pbar": draw(number(1e-3, 5).filter(bool))} for a, b in pairs]
        doc = {"buses": draw(st.permutations(buses)), "generators": gens, "lines": lines}
        if draw(st.booleans()):
            doc["slack_bus"] = draw(st.sampled_from(ids))
        chance = {}
        for key in ("eps_line_default", "eps_sync_default", "eps_gen_default"):
            optional(draw, chance, key, st.floats(1e-4, 0.5))
        overrides = [{"gen": draw(st.integers(0, len(gens) - 1)),
                      "eps_gen": draw(st.floats(1e-4, 0.5))}
                     for _ in range(draw(st.integers(0, 2)))]
        if pairs:
            overrides += [{"from": a, "to": b, "eps_line": draw(st.floats(1e-4, 0.5))}
                          for a, b in draw(st.lists(st.sampled_from(pairs), max_size=3))]
        if overrides:
            chance["overrides"] = draw(st.permutations(overrides))
        if chance or draw(st.booleans()):
            doc["chance"] = chance
        return doc

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(valid_cases())
    def test_valid_case_parses_as_the_reference(doc):
        assert assert_same_outcome(doc) is None

    BAD_VALUES = st.sampled_from(WRONG_KINDS + NON_FINITE + [1.5, -1, 0, 99, 10**30, -1e-9])

    @st.composite
    def mutated_cases(draw):
        """A valid case with one to three fields or entries made bad."""
        doc = draw(valid_cases())
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["buses", "generators", "lines"]))
            if not doc[kind]:
                continue
            i = draw(st.integers(0, len(doc[kind]) - 1))
            how = draw(st.sampled_from(["value", "value", "missing", "entry"]))
            key = draw(st.sampled_from(sorted(FIELDS[kind])))
            if how == "entry":
                doc[kind][i] = draw(st.sampled_from([None, [], "id", 2]))
            elif isinstance(doc[kind][i], dict):
                if how == "missing":
                    doc[kind][i].pop(key, None)
                else:
                    doc[kind][i][key] = draw(BAD_VALUES)
        return doc

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(mutated_cases())
    def test_mutated_case_parses_or_raises_as_the_reference(doc):
        assert_same_outcome(doc)
