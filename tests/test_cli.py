"""End-to-end command-line tests driven through main(argv): exit codes,
report emission, option overrides, and cross-command consistency."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from syncopf import parse_case, read_report, solve_dc_opf, solve_pf
from syncopf.case_io import read_flow_table, write_report
from syncopf.cli import EXIT_USAGE, build_parser, main
from syncopf.network import Dispatch, injection_vector

DATA = Path(__file__).parent / "data"


def write_case(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tree_doc():
    return {
        "schema_version": "1",
        "slack_bus": 1,
        "buses": [
            {"id": 1, "d": 0.0},
            {"id": 2, "d": 1.0, "mu": 0.2, "sigma": 0.1},
        ],
        "generators": [{"bus": 1, "pmin": 0.0, "pmax": 2.0, "c1": 1.0}],
        "lines": [{"from": 1, "to": 2, "beta": 2.0, "pbar": 1.5}],
    }


def infeasible_doc():
    doc = tree_doc()
    doc["buses"][1]["d"] = 5.0  # demand beyond every generator limit
    return doc


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_solve_dc_stdout_json(tmp_path, capsys):
    case = write_case(tmp_path, tree_doc())
    code, out = run(capsys, ["solve", "dc", "--case", case])
    assert code == 0
    doc = json.loads(out)
    assert doc["variant"] == "dc" and doc["status"] == "optimal"
    net, _ = parse_case(case)
    assert doc["objective"] == pytest.approx(solve_dc_opf(net).objective, rel=1e-10)
    assert doc["dispatch"]["p"] == pytest.approx([0.8])


def test_solve_ccopf_out_file_csv(tmp_path, capsys):
    out_path = tmp_path / "flows.csv"
    code, out = run(
        capsys,
        ["solve", "ccopf", "--case", "cases/case9_wind.json",
         "--out", str(out_path), "--format", "csv"],
    )
    assert code == 0
    assert out == ""  # --out suppresses stdout
    rows = read_flow_table(out_path.read_bytes())
    assert len(rows) == 9
    assert all(0.0 <= r["prob_thermal"] <= 1.0 for r in rows)


def test_solve_then_validate_certifies(tmp_path, capsys):
    rep_path = tmp_path / "ccopf.json"
    code, _ = run(
        capsys,
        ["solve", "ccopf", "--case", "cases/case9_wind.json", "--out", str(rep_path)],
    )
    assert code == 0
    code, out = run(
        capsys,
        ["validate", "--case", "cases/case9_wind.json", "--dispatch", str(rep_path),
         "--samples", "20000", "--seed", "7"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] and doc["failures"] == []
    assert doc["mc"]["n_samples"] == 20000


def test_validate_rejects_bad_dispatch(tmp_path, capsys):
    # balanced dispatch whose mean flow already exceeds the thermal cap
    doc = tree_doc()
    doc["lines"][0]["pbar"] = 0.5
    doc["buses"][1]["sigma"] = 0.3
    case = write_case(tmp_path, doc)
    rep_path = tmp_path / "bad.json"
    rep_path.write_bytes(write_report(_report_for(case, p=0.8), fmt="json"))
    code, out = run(
        capsys,
        ["validate", "--case", case, "--dispatch", str(rep_path),
         "--samples", "20000", "--eps-line", "0.01"],
    )
    assert code == 4
    parsed = json.loads(out)
    assert not parsed["certified"]
    assert any("thermal" in f for f in parsed["failures"])


def test_validate_rejects_dispatch_without_wind_response(tmp_path, capsys):
    # alpha = 0, as solve dc, scopf and barrier report: no generator
    # balances the wind, so no sample is a balanced injection
    case = write_case(tmp_path, tree_doc())
    rep_path = tmp_path / "dc.json"
    rep_path.write_bytes(write_report(_report_for(case, p=0.8, alpha=0.0), fmt="json"))
    code, out = run(
        capsys, ["validate", "--case", case, "--dispatch", str(rep_path), "--samples", "200"]
    )
    assert code == 1
    assert out == ""


def _report_for(case, p, alpha=1.0):
    # minimal hand-built report carrying only the dispatch fields
    from syncopf.case_io import GeneratorReport, LineReport, SolutionReport

    return SolutionReport(
        variant="ccopf",
        status="optimal",
        objective=0.0,
        p=[p],
        alpha=[alpha],
        lines=[LineReport(0, 1, 2, p, 0.0, 0.0)],
        generators=[GeneratorReport(0, 1, 0.0)],
    )


def test_pf_inline_injections(tmp_path, capsys):
    case = write_case(tmp_path, tree_doc())
    code, out = run(capsys, ["pf", "--case", case, "--injections", "0.5,-0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] and not doc["boundary_hit"]
    assert doc["flows"][0] == pytest.approx(0.5, abs=1e-9)
    assert doc["rho"][0] == pytest.approx(0.25, abs=1e-9)


def test_pf_injections_from_file(tmp_path, capsys):
    case = write_case(tmp_path, tree_doc())
    inj = tmp_path / "inj.json"
    inj.write_text("[0.5, -0.5]")
    code, out = run(capsys, ["pf", "--case", case, "--injections", f"@{inj}"])
    assert code == 0
    assert json.loads(out)["feasible"]


def test_pf_wrong_injection_count(tmp_path, capsys):
    case = write_case(tmp_path, tree_doc())
    code, _ = run(capsys, ["pf", "--case", case, "--injections", "0.5"])
    assert code == 1


def test_pf_matches_report_flows_on_tree(tmp_path, capsys):
    case = write_case(tmp_path, tree_doc())
    rep_path = tmp_path / "dc.json"
    run(capsys, ["solve", "dc", "--case", case, "--out", str(rep_path)])
    code, out = run(capsys, ["pf", "--case", case, "--dispatch", str(rep_path)])
    assert code == 0
    rep = read_report(rep_path)
    flows = json.loads(out)["flows"]
    for lr, f in zip(rep.lines, flows):
        assert f == pytest.approx(lr.mean_flow, abs=1e-8)


def test_pf_at_golden_alternation_dispatch_converges(capsys):
    # near this optimum a decrease test on the objective cannot resolve
    # progress; Newton must still end by its gradient test, at a sine flow
    # that conserves the injections to rounding
    report = DATA / "ccopf_alternation.json"
    code, out = run(capsys, ["pf", "--case", "cases/alternation.json", "--dispatch", str(report)])
    assert code == 0
    assert json.loads(out)["iterations"] <= 10
    net, _ = parse_case("cases/alternation.json")
    rep = read_report(report)
    q = injection_vector(net, Dispatch(p=np.array(rep.p), alpha=np.array(rep.alpha)))
    state = solve_pf(net, q)
    gap = state.theta[net.from_index] - state.theta[net.to_index]
    assert np.max(np.abs(net.incidence @ (net.beta * np.sin(gap)) - q)) <= 1e-12


def test_risk_fields(tmp_path, capsys):
    case = write_case(tmp_path, tree_doc())
    code, out = run(
        capsys,
        ["risk", "--case", case, "--line", "1,2", "--threshold", "0.9",
         "--eps", "0.01"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["variant"] == "dc" and (doc["from"], doc["to"]) == (1, 2)
    assert doc["rare_enough"] is (doc["energy"] >= doc["log_inv_eps"])
    assert doc["energy"] > 0 and len(doc["omega"]) == 1


def test_risk_nonlinear_variant(tmp_path, capsys):
    case = write_case(tmp_path, tree_doc())
    base = run(
        capsys,
        ["risk", "--case", case, "--line", "1,2", "--threshold", "0.9",
         "--eps", "0.01"],
    )[1]
    code, out = run(
        capsys,
        ["risk", "--case", case, "--line", "1,2", "--threshold", "0.9",
         "--eps", "0.01", "--nonlinear"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["variant"] == "nonlinear"
    # the instances coincide on a tree
    assert doc["energy"] == pytest.approx(json.loads(base)["energy"], rel=1e-6)


def test_barrier_flags_capped_recovery(capsys):
    # on this 20-bus mesh the barrier optimum's sine flow pins at a cap
    code, out = run(
        capsys, ["solve", "barrier", "--case", str(DATA / "barrier_recovery_capped.json")]
    )
    assert code == 0
    assert json.loads(out)["status"] == "sync-recovery-failed"


def _assert_matches(want, got, path="$"):
    # non-float fields equal; floats within 1e-12 absolute or 1e-9 relative
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_matches(want[key], got[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (w, g) in enumerate(zip(want, got)):
            _assert_matches(w, g, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert abs(got - want) <= max(1e-12, 1e-9 * abs(want)), (path, want, got)
    else:
        assert type(got) is type(want) and got == want, (path, want, got)


@pytest.mark.parametrize("case, golden", [
    ("cases/case9_wind.json", "ccopf_case9_wind.json"),
    ("cases/alternation.json", "ccopf_alternation.json"),
    (str(DATA / "mesh100.json"), "ccopf_mesh100.json"),
], ids=["case9_wind", "alternation", "mesh100"])
def test_ccopf_report_matches_golden(case, golden, capsys):
    code, out = run(capsys, ["solve", "ccopf", "--case", case])
    assert code == 0
    _assert_matches(json.loads((DATA / golden).read_text()), json.loads(out))


@pytest.mark.parametrize("case, golden", [
    ("cases/alternation.json", "ccopf_alternation.json"),
    (str(DATA / "mesh100.json"), "ccopf_mesh100.json"),
], ids=["alternation", "mesh100"])
def test_ccopf_report_matches_golden_bytes(case, golden, capsys):
    code, out = run(capsys, ["solve", "ccopf", "--case", case])
    assert code == 0
    assert out == (DATA / golden).read_text()


@pytest.mark.parametrize(
    "case, golden",
    [("cases/case9_wind.json", "barrier_case9_wind.json"),
     (str(DATA / "mesh100.json"), "barrier_mesh100.json")],
)
def test_barrier_report_matches_golden(case, golden, capsys):
    # frozen from the previous barrier solver, whose last stages never met
    # their tolerance, so only the cost and the dispatch are held tightly
    code, out = run(capsys, ["solve", "barrier", "--case", case])
    assert code == 0
    want, got = json.loads((DATA / golden).read_text()), json.loads(out)
    assert list(got) == list(want)
    assert (got["variant"], got["status"]) == (want["variant"], want["status"])
    assert len(got["lines"]) == len(want["lines"])
    assert abs(got["objective"] - want["objective"]) <= 1e-9 * abs(want["objective"])
    assert np.max(np.abs(np.subtract(got["dispatch"]["p"], want["dispatch"]["p"]))) <= 1e-5
    assert got["dispatch"]["alpha"] == want["dispatch"]["alpha"]


@pytest.mark.parametrize(
    "case, dispatch, options, golden",
    [("cases/case9_wind.json", "ccopf_case9_wind.json",
      ["--samples", "1000", "--seed", "2026", "--nonlinear-mc"], "validate_case9_wind.json"),
     (str(DATA / "mesh100.json"), "ccopf_mesh100.json",
      ["--samples", "1000", "--seed", "2026", "--nonlinear-mc"], "validate_mesh100.json"),
     ("cases/case9_wind.json", "ccopf_case9_wind.json", [], "validate_case9_wind_default.json"),
     ("cases/case9_wind.json", "ccopf_case9_wind.json",
      ["--samples", "200000", "--seed", "2026"], "validate_case9_wind_linear.json")],
    ids=["case9", "mesh100", "case9-default", "case9-linear"],
)
def test_validate_report_matches_golden_bytes(case, dispatch, options, golden, capsys):
    # the nonlinear reports were frozen from the per-sample solve_pf loop that
    # the batched re-solve replaced; the linear one (line 4 trips, the others
    # never come near a limit) from the unscreened linear tally
    code, out = run(capsys, ["validate", "--case", case, "--dispatch", str(DATA / dispatch), *options])
    assert code == 0
    assert out == (DATA / golden).read_text()


def test_barrier_ignores_max_iters(capsys):
    # --max-iters caps ccopf's cut iterations; the barrier keeps its own
    # stage count, so a small cap leaves its report unchanged
    argv = ["solve", "barrier", "--case", "cases/case9_wind.json"]
    code, want = run(capsys, argv)
    assert code == 0
    code, got = run(capsys, argv + ["--max-iters", "5"])
    assert code == 0
    assert got == want


def test_missing_case_file(capsys):
    code, _ = run(capsys, ["solve", "dc", "--case", "nowhere.json"])
    assert code == 1


def test_infeasible_exit_code(tmp_path, capsys):
    case = write_case(tmp_path, infeasible_doc())
    code, _ = run(capsys, ["solve", "ccopf", "--case", case])
    assert code == 2


def test_iteration_limit_exit_code(capsys):
    code, _ = run(
        capsys,
        ["solve", "ccopf", "--case", "cases/case9_wind.json", "--max-iters", "1",
         "--eps-line", "0.016667", "--eps-sync", "0.0001"],
    )
    assert code == 3


def test_usage_errors(capsys):
    assert main(["solve"]) == 1  # missing variant and --case
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main([]) == 1


@pytest.mark.parametrize("samples", ["0", "-5", "ten"])
def test_validate_rejects_nonpositive_samples(samples, capsys):
    code = main(["validate", "--case", "cases/case9_wind.json",
                 "--dispatch", str(DATA / "ccopf_case9_wind.json"), "--samples", samples])
    assert code == EXIT_USAGE


def test_emit_plot_data(tmp_path, capsys):
    plot = tmp_path / "trace.csv"
    code, _ = run(
        capsys,
        ["solve", "ccopf", "--case", "cases/case9_wind.json",
         "--out", str(tmp_path / "r.json"), "--emit-plot-data", str(plot)],
    )
    assert code == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == "iteration,objective,violated_count,line,kind,violation"
    assert len(lines) >= 3
    objs = [float(l.split(",")[1]) for l in lines[1:]]
    assert objs == sorted(objs)
    assert lines[-1].endswith(",,")  # converged pass adds no cut


def test_eps_line_override_changes_objective(capsys):
    loose = json.loads(
        run(capsys, ["solve", "ccopf", "--case", "cases/case9_wind.json"])[1]
    )
    tight = json.loads(
        run(
            capsys,
            ["solve", "ccopf", "--case", "cases/case9_wind.json",
             "--eps-line", "0.005"],
        )[1]
    )
    assert tight["objective"] > loose["objective"]


def test_logging_env_keeps_stdout_clean(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYNC_CCOPF_LOG", "INFO")
    case = write_case(tmp_path, tree_doc())
    code, out = run(capsys, ["solve", "dc", "--case", case])
    assert code == 0
    json.loads(out)  # stdout is still pure JSON


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("syncopf ")


def test_shared_parser_answers_like_fresh_ones(capsys):
    # main builds its parser once per process; a run of different commands
    # through it must read exactly as with a new parser for each
    argvs = [
        ["solve", "ccopf", "--case", "cases/case9_wind.json"],
        ["solve", "--case", "cases/case9_wind.json"],  # usage error: no variant
        ["--version"],
        ["validate", "--case", "cases/case9_wind.json",
         "--dispatch", str(DATA / "ccopf_case9_wind.json"), "--samples", "1000"],
    ]

    def answers(fresh):
        got = []
        for argv in argvs:
            if fresh:
                build_parser.cache_clear()
            code = main(argv)
            got.append((code, *capsys.readouterr()))
        return got

    fresh = answers(fresh=True)
    assert [code for code, _, _ in fresh] == [0, 1, 0, 0]
    assert answers(fresh=False) == fresh
    assert build_parser() is build_parser()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only the nonlinear instanton minimizes; every other command would pay
    # for loading scipy.optimize at start-up
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, syncopf.cli; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
