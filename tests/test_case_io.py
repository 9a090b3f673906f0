"""Case and report serialization tests: JSON schema parsing, chance
overrides, round-trips, deterministic 12-digit output, and the
MATPOWER topology import."""
import json

import numpy as np
import pytest

from syncopf import (
    ChanceSpec,
    ParseError,
    SolutionReport,
    ValidationError,
    import_matpower,
    parse_case,
    read_report,
    serialize_case,
    write_report,
)
from syncopf.case_io import (
    GENERATOR_FIELDS,
    LINE_FIELDS,
    IterationRecord,
    parse_case_dict,
    read_flow_table,
    report_from_dict,
    report_to_dict,
)


def small_doc():
    return {
        "schema_version": "1",
        "slack_bus": 1,
        "buses": [
            {"id": 1, "d": 0.0},
            {"id": 2, "d": 0.5, "mu": 0.1, "sigma": 0.05},
            {"id": 3, "d": 0.3},
        ],
        "generators": [
            {"bus": 1, "pmin": 0.0, "pmax": 2.0, "c1": 1.0, "c2": 0.5},
            {"bus": 3, "pmin": 0.0, "pmax": 1.0, "c1": 2.0},
        ],
        "lines": [
            {"from": 1, "to": 2, "beta": 1.5, "pbar": 1.0},
            {"from": 2, "to": 3, "beta": 2.0, "pbar": 0.8},
        ],
    }


def line_row(line, frm, to, mean_flow, prob_thermal, prob_sync,
             binding_thermal=False, binding_sync=False):
    return dict(zip(LINE_FIELDS, (line, frm, to, mean_flow, prob_thermal, prob_sync,
                                  binding_thermal, binding_sync)))


def gen_row(gen, bus, prob_bounds):
    return dict(zip(GENERATOR_FIELDS, (gen, bus, prob_bounds)))


def sample_report():
    return SolutionReport(
        variant="ccopf",
        status="optimal",
        objective=1.0 / 3.0,
        p=[0.6, 0.2],
        alpha=[0.75, 0.25],
        lines=[
            line_row(0, 1, 2, 0.41, 0.012, 0.0001, binding_thermal=True),
            line_row(1, 2, 3, -0.1, 0.0, 0.0),
        ],
        generators=[gen_row(0, 1, 0.003), gen_row(1, 3, 0.0)],
        iterations=[
            IterationRecord(1, 0, "thermal", 0.02),
            IterationRecord(2, 0, "sync", 0.001),
        ],
    )


def test_parse_case9():
    net, chance = parse_case("cases/case9_wind.json")
    assert net.n_bus == 9 and net.n_gen == 3 and net.n_line == 9
    assert net.slack_bus == 9
    k = net.line_between(3, 6)
    assert net.lines[k].beta == pytest.approx(17.0648464164)
    assert np.all(chance.eps_line == 0.05)
    assert np.all(chance.eps_sync == 0.0005)
    assert np.all(chance.eps_gen == 0.05)
    assert net.buses[net.bus_index(5)].wind_sigma == 0.3


def test_defaults_filled():
    net, chance = parse_case_dict(small_doc())
    b1 = net.buses[net.bus_index(1)]
    assert b1.demand == 0.0 and b1.wind_mean == 0.0 and b1.wind_sigma == 0.0
    assert net.generators[0].pmin == 0.0 and net.generators[1].c2 == 0.0
    assert np.all(chance.eps_line == 0.05)


def test_serialize_round_trip():
    doc = small_doc()
    doc["chance"] = {
        "eps_line_default": 0.02,
        "overrides": [
            {"from": 2, "to": 3, "eps_line": 0.008, "eps_sync": 1e-4},
            {"gen": 1, "eps_gen": 0.01},
        ],
    }
    net, chance = parse_case_dict(doc)
    net2, chance2 = parse_case_dict(serialize_case(net, chance))
    assert [b.id for b in net2.buses] == [b.id for b in net.buses]
    assert [(l.from_bus, l.to_bus, l.beta, l.pbar) for l in net2.lines] == [
        (l.from_bus, l.to_bus, l.beta, l.pbar) for l in net.lines
    ]
    assert np.array_equal(chance2.eps_line, chance.eps_line)
    assert np.array_equal(chance2.eps_sync, chance.eps_sync)
    assert np.array_equal(chance2.eps_gen, chance.eps_gen)


def test_parallel_lines_merged():
    doc = small_doc()
    doc["lines"].append({"from": 2, "to": 1, "beta": 0.5, "pbar": 0.4})
    net, _ = parse_case_dict(doc)
    assert net.n_line == 2
    k = net.line_between(1, 2)
    assert net.lines[k].beta == pytest.approx(2.0)
    assert net.lines[k].pbar == pytest.approx(1.4)


def test_chance_overrides_applied():
    doc = small_doc()
    doc["chance"] = {
        "eps_sync_default": 0.001,
        "overrides": [{"from": 1, "to": 2, "eps_line": 0.009}, {"gen": 0, "eps_gen": 0.2}],
    }
    net, chance = parse_case_dict(doc)
    k = net.line_between(1, 2)
    assert chance.eps_line[k] == 0.009
    assert chance.eps_line[1 - k] == 0.05
    assert np.all(chance.eps_sync == 0.001)
    assert chance.eps_gen[0] == 0.2 and chance.eps_gen[1] == 0.05


def test_override_bad_gen_index():
    doc = small_doc()
    doc["chance"] = {"overrides": [{"gen": 5, "eps_gen": 0.1}]}
    with pytest.raises(ValidationError, match="out of range"):
        parse_case_dict(doc)


def test_override_unknown_line():
    doc = small_doc()
    doc["chance"] = {"overrides": [{"from": 1, "to": 3, "eps_line": 0.1}]}
    with pytest.raises(ValidationError, match="no line"):
        parse_case_dict(doc)


def test_eps_domain():
    doc = small_doc()
    for bad in (0.0, 0.6, -0.1):
        doc["chance"] = {"eps_line_default": bad}
        with pytest.raises(ValidationError):
            parse_case_dict(doc)
    doc["chance"] = {"eps_line_default": 0.5}
    parse_case_dict(doc)  # boundary is allowed


def test_wrong_schema_version():
    doc = small_doc()
    doc["schema_version"] = "7"
    with pytest.raises(ParseError, match="schema_version"):
        parse_case_dict(doc)


def test_missing_field_is_named(tmp_path):
    doc = small_doc()
    del doc["lines"][0]["beta"]
    with pytest.raises(ParseError, match="beta"):
        parse_case_dict(doc)


def _set(doc, path, value):
    """Set doc[path[0]][path[1]]... to value; return the value it held."""
    *head, last = path
    for key in head:
        doc = doc[key]
    old, doc[last] = doc[last], value
    return old


@pytest.mark.parametrize("path", [
    ("buses", 1, "d"), ("generators", 0, "pmax"), ("lines", 1, "beta"),
    ("chance", "eps_line_default"), ("chance", "overrides", 0, "eps_gen"),
])
def test_float_field_beyond_float_range_is_parse_error(path):
    doc = small_doc()
    doc["chance"] = {"eps_line_default": 0.05, "overrides": [{"gen": 0, "eps_gen": 0.2}]}
    _set(doc, path, 10**400)  # float() raises OverflowError
    with pytest.raises(ParseError, match=path[-1]):
        parse_case_dict(doc)


@pytest.mark.parametrize("path, field", [
    (("buses", 0, "id"), "id"), (("generators", 1, "bus"), "bus"),
    (("lines", 0, "from"), "from"), (("lines", 0, "to"), "to"), (("slack_bus",), "slack_bus"),
    (("chance", "overrides", 0, "gen"), "gen"), (("chance", "overrides", 1, "from"), "from"),
    (("chance", "overrides", 1, "to"), "to"),
])
def test_integer_field_with_fraction_is_parse_error(path, field):
    doc = small_doc()
    doc["chance"] = {"overrides": [{"gen": 0, "eps_gen": 0.2},
                                   {"from": 1, "to": 2, "eps_line": 0.01}]}
    whole = _set(doc, path, 1.7)  # read as 1 by int(), which truncates
    with pytest.raises(ParseError, match=f"'{field}'"):
        parse_case_dict(doc)
    _set(doc, path, float(whole))  # a whole number written as a float still reads
    parse_case_dict(doc)


def test_bad_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": "1",\n  "buses": [}\n')
    with pytest.raises(ParseError, match="line 2"):
        parse_case(path)


def test_missing_file():
    with pytest.raises(ParseError, match="cannot read"):
        parse_case("cases/no_such_case.json")


def test_negative_sigma_rejected():
    doc = small_doc()
    doc["buses"][1]["sigma"] = -0.1
    with pytest.raises(ValidationError):
        parse_case_dict(doc)


def test_report_json_round_trip():
    rep = sample_report()
    back = read_report(write_report(rep, fmt="json"))
    assert back.variant == rep.variant and back.status == rep.status
    assert back.objective == pytest.approx(rep.objective, rel=1e-11)
    assert back.lines[0]["binding_thermal"] and not back.lines[1]["binding_thermal"]
    assert [it.kind for it in back.iterations] == ["thermal", "sync"]
    assert back.p == pytest.approx(rep.p)


def test_read_report_str_is_json_text(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(write_report(sample_report(), fmt="json"))
    assert read_report(path).variant == sample_report().variant
    with pytest.raises(ParseError):
        read_report(str(path))  # a str is the JSON text, never a file name


def test_report_json_deterministic_and_rounded():
    rep = sample_report()
    a = write_report(rep, fmt="json")
    b = write_report(rep, fmt="json")
    assert a == b
    assert a.endswith(b"\n")
    assert json.loads(a)["objective"] == 0.333333333333


def test_csv_golden_bytes():
    rep = sample_report()
    want = (
        b"line_id,mean_flow,prob_thermal,prob_sync\n"
        b"0,0.41,0.012,0.0001\n"
        b"1,-0.1,0,0\n"
    )
    assert write_report(rep, fmt="csv") == want


def test_read_flow_table_inverse():
    rep = sample_report()
    rows = read_flow_table(write_report(rep, fmt="csv"))
    assert rows == [
        {"line_id": 0, "mean_flow": 0.41, "prob_thermal": 0.012, "prob_sync": 0.0001},
        {"line_id": 1, "mean_flow": -0.1, "prob_thermal": 0.0, "prob_sync": 0.0},
    ]


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="format"):
        write_report(sample_report(), fmt="xml")


def test_report_validation():
    with pytest.raises(ValidationError, match="probabilities"):
        SolutionReport(
            variant="dc",
            status="optimal",
            objective=0.0,
            p=[1.0],
            alpha=[1.0],
            lines=[line_row(0, 1, 2, 0.1, 1.5, 0.0)],
            generators=[],
        )
    with pytest.raises(ValidationError, match="increasing"):
        SolutionReport(
            variant="dc",
            status="optimal",
            objective=0.0,
            p=[1.0],
            alpha=[1.0],
            lines=[],
            generators=[],
            iterations=[IterationRecord(2, 0, "thermal", 0.1), IterationRecord(2, 0, "sync", 0.1)],
        )


def test_report_from_dict_missing_field():
    doc = report_to_dict(sample_report())
    del doc["dispatch"]
    with pytest.raises(ParseError, match="missing field"):
        report_from_dict(doc)


@pytest.mark.parametrize("path, value", [
    pytest.param(path, value, id="/".join(map(str, path)))
    for path, value in [
        (("lines", 0, "binding_thermal"), "false"),  # bool() reads any nonempty string as True
        (("lines", 1, "binding_sync"), 0),
        (("lines", 1, "line"), 1.7),  # int() truncates
        (("lines", 0, "from"), 2.5),
        (("generators", 1, "gen"), 0.5),
        (("generators", 0, "bus"), 3.25),
        (("iterations", 1, "iteration"), 2.5),
        (("iterations", 0, "line"), 0.1),
    ]
])
def test_report_field_of_wrong_kind_is_parse_error(path, value):
    doc = report_to_dict(sample_report())
    _set(doc, path, value)
    with pytest.raises(ParseError, match=f"field '{path[-1]}'"):
        report_from_dict(doc)


def test_report_whole_numbers_written_as_floats_still_read():
    doc = report_to_dict(sample_report())
    for path in (("lines", 1, "line"), ("generators", 1, "bus"), ("iterations", 1, "iteration")):
        whole = _set(doc, path, None)
        _set(doc, path, float(whole))
    back = report_from_dict(doc)
    assert back.lines[1]["line"] == 1 and type(back.lines[1]["line"]) is int
    assert type(back.generators[1]["bus"]) is int and back.iterations[1].iteration == 2


def test_report_number_beyond_float_range_is_parse_error():
    doc = report_to_dict(sample_report())
    _set(doc, ("lines", 0, "mean_flow"), 10**400)  # float() raises OverflowError
    with pytest.raises(ParseError, match="mean_flow"):
        report_from_dict(doc)


MATPOWER_FIXTURE = """\
function mpc = case3
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;
\t2\t1\t90\t30\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;
\t3\t2\t60\t20\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;
];
mpc.gen = [
\t1\t50\t0\t300\t-300\t1\t100\t1\t250\t10\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0;
\t3\t40\t0\t300\t-300\t1\t100\t1\t100\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0;
\t3\t40\t0\t300\t-300\t1\t100\t0\t100\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0;
];
mpc.branch = [
\t1\t2\t0.01\t0.05\t0\t120\t250\t250\t0\t0\t1\t-360\t360;
\t2\t3\t0.01\t0.20\t0\t0\t250\t250\t0\t0\t1\t-360\t360;
\t1\t3\t0.01\t0.10\t0\t80\t250\t250\t0\t0\t0\t-360\t360;
];
mpc.gencost = [
\t2\t0\t0\t3\t0.02\t11\t5;
\t2\t0\t0\t2\t9\t3;
\t2\t0\t0\t2\t9\t3;
];
"""


def test_matpower_import(tmp_path):
    path = tmp_path / "case3.m"
    path.write_text(MATPOWER_FIXTURE)
    net, chance = import_matpower(path)
    assert net.n_bus == 3
    assert net.n_line == 2  # status-0 branch dropped
    assert net.n_gen == 2  # status-0 generator dropped
    k = net.line_between(1, 2)
    assert net.lines[k].beta == pytest.approx(1.0 / 0.05)
    assert net.lines[k].pbar == pytest.approx(1.2)  # rateA / baseMVA
    assert net.lines[net.line_between(2, 3)].pbar == 99.0  # zero rating means unlimited
    assert net.buses[net.bus_index(2)].demand == pytest.approx(0.9)
    g0, g1 = net.generators
    assert (g0.pmax, g0.pmin) == (2.5, 0.1)
    assert g0.c1 == pytest.approx(0.02 * 100**2)
    assert g0.c2 == pytest.approx(11 * 100)
    assert g0.c3 == pytest.approx(5.0)
    assert (g1.c1, g1.c2, g1.c3) == (0.0, 900.0, 3.0)
    assert np.all(chance.eps_line == 0.05)


def test_matpower_bad_reactance(tmp_path):
    path = tmp_path / "bad.m"
    path.write_text(MATPOWER_FIXTURE.replace("0.01\t0.05", "0.01\t-0.05"))
    with pytest.raises(ValidationError, match="x > 0"):
        import_matpower(path)


def test_chance_uniform_and_replace():
    net, _ = parse_case_dict(small_doc())
    spec = ChanceSpec.uniform(net, eps_line=0.1)
    assert spec.eps_line.shape == (2,) and spec.eps_gen.shape == (2,)
    spec2 = spec.replace_defaults(eps_sync=0.002)
    assert np.all(spec2.eps_line == 0.1) and np.all(spec2.eps_sync == 0.002)
    with pytest.raises(ValidationError):
        spec.replace_defaults(eps_line=0.7)
