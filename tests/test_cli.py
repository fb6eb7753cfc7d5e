import csv
import io
import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from funcon import cli

SIMPLE_CONFIG = """
name: simple-pde
independent:
  - {name: x, interval: [0.0, 1.0], points: 8}
  - {name: y, interval: [0.0, 1.0], points: 8}
dependent:
  - name: u
    basis: {family: chebyshev, degree: 8}
    constraints:
      - {dim: x, terms: [{order: 0, at: 0.0}], value: "y^3"}
      - {dim: x, terms: [{order: 0, at: 1.0}], value: "(1 + y^3)*exp(-1)"}
      - {dim: y, terms: [{order: 0, at: 0.0}], value: "x*exp(-x)"}
      - {dim: y, terms: [{order: 0, at: 1.0}], value: "exp(-x)*(x + 1)"}
residuals:
  - "u_xx + u_yy - exp(-x)*(x - 2 + y^3 + 6*y)"
analytic: {u: "exp(-x)*(x + y^3)"}
test_points: [25, 25]
seed: 0
"""


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_writes_json_report(tmp_path, runner):
    cfg = _write(tmp_path, SIMPLE_CONFIG)
    out = tmp_path / "report.json"
    result = runner.invoke(cli.main, ["solve", "--config", cfg,
                                      "--out", str(out), "--format", "json"])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["metrics"]["max_error"] < 1e-6
    assert doc["xi"]["u"]
    assert doc["config"]["name"] == "simple-pde"


def test_unknown_key_is_named_and_exits_1(tmp_path, runner):
    cfg = _write(tmp_path, SIMPLE_CONFIG.replace("residuals:", "residualss:"))
    result = runner.invoke(cli.main, ["solve", "--config", cfg])
    assert result.exit_code == 1
    assert "residualss" in result.output


def test_bad_expression_positioned(tmp_path, runner):
    cfg = _write(tmp_path, SIMPLE_CONFIG.replace(
        '"y^3"', '"y ^* 3"'))
    result = runner.invoke(cli.main, ["solve", "--config", cfg])
    assert result.exit_code == 1
    assert "offset" in result.output


def test_nonconvergent_nonlinear_exits_2(tmp_path, runner):
    doc = yaml.safe_load(SIMPLE_CONFIG)
    doc["residuals"] = ["u_xx + u_yy + u^2 + 10"]  # no solution nearby
    del doc["analytic"]
    doc["solver"] = {"nlls_max_iter": 3, "method": "svd-pinv"}
    cfg = _write(tmp_path, yaml.safe_dump(doc))
    out = tmp_path / "r.json"
    result = runner.invoke(cli.main, ["solve", "--config", cfg,
                                      "--out", str(out)])
    assert result.exit_code == 2
    assert out.exists()  # report still written
    rep = json.loads(out.read_text())
    assert rep["metrics"]["reason"] == "max-iterations"


def test_stalled_nonlinear_exits_2_with_residual_history(tmp_path, runner):
    doc = yaml.safe_load(SIMPLE_CONFIG)
    doc["residuals"] = ["u_xx + u_yy + u^2 + 10"]  # no solution nearby
    del doc["analytic"]
    cfg = _write(tmp_path, yaml.safe_dump(doc))
    out = tmp_path / "r.json"
    result = runner.invoke(cli.main, ["solve", "--config", cfg,
                                      "--out", str(out)])
    assert result.exit_code == 2
    rep = json.loads(out.read_text())
    assert rep["metrics"]["reason"] == "stalled"
    history = rep["residual_history"]
    assert len(history) == rep["metrics"]["iterations"] + 1
    assert all(isinstance(h, float) for h in history)


def test_linear_report_has_empty_residual_history(tmp_path, runner):
    cfg = _write(tmp_path, SIMPLE_CONFIG)
    out = tmp_path / "r.json"
    runner.invoke(cli.main, ["solve", "--config", cfg, "--out", str(out)])
    assert json.loads(out.read_text())["residual_history"] == []
    # the CSV report keeps to the scalar metrics
    result = runner.invoke(cli.main, ["solve", "--config", cfg,
                                      "--format", "csv"])
    keys = [row[0] for row in csv.reader(io.StringIO(result.stdout))]
    assert "residual_history" not in keys and "reason" in keys


def test_report_lists_step_routes_outside_metrics(tmp_path, runner):
    doc = yaml.safe_load(SIMPLE_CONFIG)
    doc["residuals"] = ["u_xx + u_yy + u^2 + 10"]  # Gauss-Newton, stalls
    del doc["analytic"]
    out = tmp_path / "r.json"
    runner.invoke(cli.main, ["solve", "--config",
                             _write(tmp_path, yaml.safe_dump(doc)),
                             "--out", str(out)])
    rep = json.loads(out.read_text())
    routes = rep["step_routes"]
    assert len(routes) == rep["metrics"]["iterations"] > 0
    assert set(routes) <= {"qr", "svd"}
    assert "step_routes" not in rep["metrics"]
    lin = tmp_path / "lin.json"
    runner.invoke(cli.main, ["solve", "--config",
                             _write(tmp_path, SIMPLE_CONFIG, "lin.yaml"),
                             "--out", str(lin)])
    assert json.loads(lin.read_text())["step_routes"] == []


def _assert_named_exit_1(result, *fragments):
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught error
    assert "Traceback" not in result.output
    assert result.stdout == ""
    assert len(result.stderr.strip().splitlines()) == 1
    for fragment in fragments:
        assert fragment in result.output


@pytest.mark.parametrize("edit,fragments", [
    (lambda doc: doc.update(params={"k": float("inf")}),
     ("params.k", "finite")),
    (lambda doc: doc["dependent"][0]["constraints"][0].update(value=1e400),
     ("dependent[0].constraints[0].value", "finite")),
    (lambda doc: doc["residuals"].__setitem__(0, "u_xx + 1e400*u_yy"),
     ("residuals[0]", "overflows")),
])
def test_non_finite_numbers_rejected_by_key(tmp_path, runner, edit, fragments):
    doc = yaml.safe_load(SIMPLE_CONFIG)
    edit(doc)
    cfg = _write(tmp_path, yaml.safe_dump(doc))
    _assert_named_exit_1(runner.invoke(cli.main, ["solve", "--config", cfg]),
                         "config error", *fragments)


def test_non_finite_result_exits_2_with_report(tmp_path, runner):
    doc = yaml.safe_load(SIMPLE_CONFIG)
    doc["residuals"] = ["u_xx + u_yy - exp(800)"]  # forcing overflows to inf
    cfg = _write(tmp_path, yaml.safe_dump(doc))
    out = tmp_path / "r.json"
    result = runner.invoke(cli.main, ["solve", "--config", cfg,
                                      "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert json.loads(out.read_text())["metrics"]["reason"] == "non-finite"


def _residual(text):
    return lambda doc: doc["residuals"].__setitem__(0, text)


def _basis(**entries):
    return lambda doc: doc["dependent"][0]["basis"].update(entries)


def _first_constraint(**entries):
    return lambda doc: doc["dependent"][0]["constraints"][0].update(entries)


def _duplicate_constraint(doc):
    cons = doc["dependent"][0]["constraints"]
    cons.append(dict(cons[0]))


@pytest.mark.parametrize("edit,fragments", [
    (_duplicate_constraint, ("problem error", "SingularSupportError")),
    (lambda doc: doc["residuals"].__setitem__(0, "u_xx + u_yy - ln(x)"),
     ("problem error", "ExprEvalError", "ln of non-positive value")),
    (lambda doc: doc.update(solver={"method": "svd"}),
     ("config error", "solver.method", "'svd'")),
    (lambda doc: doc.update(solver={"mode": "weak"}),
     ("config error", "solver.mode")),
    (_residual("u_xx + u_yy - w"), ("problem error", "unknown symbol 'w'")),
    (_residual("u_zz"), ("problem error", "unknown dimensions ['z']")),
    (_first_constraint(value="x + 1"), ("problem error", "must not depend")),
    (_residual("u_xx + u_yy - 10^400"),
     ("problem error", "ExprEvalError", "overflows")),
    (lambda doc: doc["independent"][0].update(points=1),
     ("config error", "independent[0].points", ">= 2")),
    (lambda doc: doc["independent"][0].update(interval=[1.0, 0.0]),
     ("problem error", "x0 < xf")),
    (_basis(degree=-1), ("config error", "dependent[0].basis.degree")),
    (_basis(family="foo"), ("problem error", "'foo'")),
    (lambda doc: doc["dependent"][0]["constraints"][0]["terms"][0].update(
        order=-1), ("problem error", "order")),
    (lambda doc: doc.update(solver={"nlls_tol": 0},
                            residuals=["u_xx + u_yy + u^2"]),
     ("config error", "solver.nlls_tol")),
    (_basis(family="elm", activation="foo"), ("problem error", "'foo'")),
    (lambda doc: doc.update(solver={"method": "qr"}),
     ("problem error", "RankDeficientError")),
    (lambda doc: doc.update(solver={"method": "cholesky"}),
     ("problem error", "RankDeficientError")),
    # the solver's numbers are checked on the linear path too
    (lambda doc: doc.update(solver={"nlls_tol": 0}),
     ("config error", "solver.nlls_tol", "> 0")),
    (lambda doc: doc.update(solver={"nlls_tol": "abc"}),
     ("config error", "solver.nlls_tol", "'abc'")),
    (lambda doc: doc.update(solver={"nlls_max_iter": 0}),
     ("config error", "solver.nlls_max_iter", ">= 1")),
    (lambda doc: doc.update(solver={"nlls_max_iter": 2.7}),
     ("config error", "solver.nlls_max_iter", "2.7")),
    (lambda doc: doc["independent"][0].update(points="abc"),
     ("config error", "independent[0].points", "'abc'")),
    (_basis(degree="x"), ("config error", "dependent[0].basis.degree", "'x'")),
    (_basis(family="elm", neurons=0),
     ("config error", "dependent[0].basis.neurons")),
    (_basis(family="elm", seed=-1), ("config error", "dependent[0].basis.seed")),
    (lambda doc: doc.update(test_points=[25, 2.5]),
     ("config error", "test_points", "2.5")),
    # malformed shapes and unknown dimensions, each once a traceback or,
    # for the removal of an undeclared dimension, silently accepted
    (lambda doc: doc["independent"][0].update(interval=[0, 0.5, 1]),
     ("config error", "independent[0].interval", "[lo, hi]")),
    (lambda doc: doc["independent"][0].update(interval=5),
     ("config error", "independent[0].interval", "5")),
    (_basis(removal={"x": 3.5}),
     ("config error", "dependent[0].basis.removal.x", "3.5")),
    (_basis(removal={"z": 1}),
     ("config error", "dependent[0].basis.removal.z", "unknown dimension")),
    (lambda doc: doc["dependent"][0].update(supports={"x": 3}),
     ("config error", "dependent[0].supports.x", "3")),
    (lambda doc: doc["dependent"][0].update(supports={"q": [0, 1]}),
     ("config error", "dependent[0].supports.q", "unknown dimension")),
    (_basis(family="elm", init_range=3),
     ("config error", "dependent[0].basis.init_range", "3")),
    (_first_constraint(terms=3),
     ("config error", "dependent[0].constraints[0].terms", "3")),
    (_first_constraint(terms=[{"order": 0, "at": 0.0,
                               "integral_over": ["q", 0, 1]}]),
     ("config error", "dependent[0].constraints[0].terms[0].integral_over",
      "unknown dimension 'q'")),
    (lambda doc: doc.update(analytic={"q": "1"}),
     ("config error", "analytic.q", "unknown dependent variable")),
    (lambda doc: doc.update(analytic=[1]), ("config error", "analytic")),
    (lambda doc: doc.update(params=[1]), ("config error", "params")),
    (lambda doc: doc.update(extras=[{"name": 3, "init": 0.0}]),
     ("config error", "extras[0].name", "3")),
    # independent variables, dependent variables, params and extras share
    # one namespace; each collision was once accepted with exit 0
    (lambda doc: doc.update(params={"x": 1.0}),
     ("config error", "params.x", "'x'", "independent[0].name")),
    (lambda doc: doc["dependent"].append(dict(doc["dependent"][0])),
     ("config error", "dependent[1].name", "'u'", "dependent[0].name")),
    (lambda doc: doc["dependent"][0].update(name="y"),
     ("config error", "dependent[0].name", "'y'", "independent[1].name")),
    (lambda doc: doc["dependent"][0].update(name=[1]),
     ("config error", "dependent[0].name", "[1]")),
    (lambda doc: doc.update(extras=[{"name": "u", "init": 0.0}]),
     ("config error", "extras[0].name", "'u'", "dependent[0].name")),
    (lambda doc: doc.update(params={"c": 1.0},
                            extras=[{"name": "c", "init": 0.0}]),
     ("config error", "extras[0].name", "'c'", "params.c")),
    # once silently reduced to the integral alone
    (_first_constraint(terms=[{"integral": [0, 1], "at": 0.0, "order": 1}]),
     ("config error", "dependent[0].constraints[0].terms[0]",
      "'integral' cannot be combined with 'at', 'order'")),
    # once a problem error naming BasisSpec.window, which no config can set
    (_basis(family="laguerre"),
     ("config error", "dependent[0].basis.family", "'laguerre'",
      "BasisSpec.window")),
    # a family that is not a name, once a TypeError traceback
    (_basis(family=[1]), ("config error", "dependent[0].basis.family", "[1]")),
    (_basis(family={"kind": "chebyshev"}),
     ("config error", "dependent[0].basis.family", "'kind'")),
    # a number as a residual, once an AssertionError traceback
    (lambda doc: doc.update(residuals=[1]),
     ("config error", "residuals[0]", "expression string", "1")),
    # a seed or name of the wrong type, each once solved with exit 0 and
    # written into the report as given
    (lambda doc: doc.update(seed="abc"), ("config error", "seed", "'abc'")),
    (lambda doc: doc.update(seed=-1), ("config error", "seed", ">= 0", "-1")),
    (lambda doc: doc.update(seed=True), ("config error", "seed", "True")),
    (lambda doc: doc.update(name=[1]), ("config error", "name", "[1]")),
])
def test_problem_errors_named_without_traceback(tmp_path, runner, edit,
                                                fragments):
    doc = yaml.safe_load(SIMPLE_CONFIG)
    edit(doc)
    cfg = _write(tmp_path, yaml.safe_dump(doc))
    _assert_named_exit_1(runner.invoke(cli.main, ["solve", "--config", cfg]),
                         *fragments)


@pytest.mark.parametrize("seeds", ["abc", "5", "3..1", "-1..2"])
def test_bench_bad_seeds_named_without_traceback(runner, seeds):
    _assert_named_exit_1(
        runner.invoke(cli.main, ["bench", "--suite", "wave1d",
                                 "--seeds", seeds]),
        "error: --seeds", repr(seeds))


def test_config_round_trip():
    problem = cli.problem_from_config(yaml.safe_load(SIMPLE_CONFIG))
    doc = cli.canonical_config(problem, seed=0)
    again = cli.problem_from_config(doc)
    assert again == problem
    # canonical emission is stable
    assert cli.canonical_config(again, seed=0) == doc


def test_plotdata_matches_report(tmp_path, runner):
    cfg = _write(tmp_path, SIMPLE_CONFIG)
    out = tmp_path / "report.json"
    runner.invoke(cli.main, ["solve", "--config", cfg, "--out", str(out)])
    plot = tmp_path / "plot.csv"
    result = runner.invoke(cli.main, ["plotdata", "--report", str(out),
                                      "--out", str(plot)])
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(plot.read_text())))
    header, data = rows[0], rows[1:]
    assert header == ["x", "y", "u", "u_true", "abs_error_u"]
    assert len(data) == 25 * 25
    errs = np.array([float(r[4]) for r in data])
    rep = json.loads(out.read_text())
    # max |error| column equals the report's max_error (same grid)
    assert errs.max() == pytest.approx(rep["metrics"]["max_error"], rel=1e-12)


def _csv_report(tmp_path, runner):
    cfg = _write(tmp_path, SIMPLE_CONFIG)
    out = tmp_path / "report.csv"
    runner.invoke(cli.main, ["solve", "--config", cfg, "--out", str(out),
                             "--format", "csv"])
    return out.read_text()


def _json_report(edit):
    def write(tmp_path, runner):
        cfg = _write(tmp_path, SIMPLE_CONFIG)
        out = tmp_path / "report.json"
        runner.invoke(cli.main, ["solve", "--config", cfg, "--out", str(out)])
        doc = json.loads(out.read_text())
        edit(doc)
        return json.dumps(doc)
    return write


def _declare_extra_c(doc):
    doc["config"]["extras"] = [{"name": "c", "init": 0.5}]


def _truth_undefined_on_plot_grid(doc):
    # an analytic solution undefined for x < 0.5; with no test_points,
    # plotdata samples 100 points per dimension over [0, 1]
    doc["config"]["analytic"] = {"u": "sqrt(x - 0.5)"}
    doc["config"].pop("test_points")


@pytest.mark.parametrize("report,fragments", [
    (_csv_report, ("report error", "not a JSON report")),
    (_json_report(lambda doc: doc.pop("config")), ("report error", "'config'")),
    (_json_report(lambda doc: doc.pop("xi")), ("report error", "'xi'")),
    (_json_report(lambda doc: doc["xi"].pop("u")),
     ("report error", "xi", "'u'")),
    (_json_report(lambda doc: doc["xi"]["u"].pop()),
     ("report error", "xi.u", "41 coefficients")),
    (_json_report(lambda doc: doc["xi"].update(u=[1.0])),
     ("report error", "xi.u", "41 coefficients")),
    (_json_report(lambda doc: doc["xi"].update(u="abc")),
     ("report error", "xi.u")),
    (_json_report(_declare_extra_c), ("report error", "extras", "'c'")),
    (_json_report(lambda doc: (_declare_extra_c(doc),
                               doc.update(extras={"c": "abc"}))),
     ("report error", "extras.c", "'abc'")),
    # once an ExprEvalError traceback
    (_json_report(_truth_undefined_on_plot_grid),
     ("problem error", "ExprEvalError", "sqrt of negative value")),
], ids=["csv", "no-config", "no-xi", "no-u", "short-u", "one-u", "text-u",
        "no-c", "text-c", "sqrt-truth"])
def test_plotdata_bad_report_named_without_traceback(tmp_path, runner,
                                                     report, fragments):
    path = _write(tmp_path, report(tmp_path, runner), name="bad-report")
    _assert_named_exit_1(runner.invoke(cli.main, ["plotdata", "--report",
                                                  path]),
                         *fragments)


def test_plotdata_without_analytic_omits_truth_columns(tmp_path, runner):
    doc = yaml.safe_load(SIMPLE_CONFIG)
    del doc["analytic"]
    cfg = _write(tmp_path, yaml.safe_dump(doc))
    out = tmp_path / "r.json"
    runner.invoke(cli.main, ["solve", "--config", cfg, "--out", str(out)])
    plot = tmp_path / "p.csv"
    runner.invoke(cli.main, ["plotdata", "--report", str(out),
                             "--out", str(plot)])
    header = plot.read_text().splitlines()[0].split(",")
    assert header == ["x", "y", "u"]


def test_unknown_suite_exits_1(runner):
    result = runner.invoke(cli.main, ["bench", "--suite", "nope"])
    assert result.exit_code == 1
    assert "unknown suite" in result.output


def test_bench_deterministic_modulo_wall_time(tmp_path, runner):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        result = runner.invoke(cli.main, ["bench", "--suite", "wave1d",
                                          "--out", str(out)])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        drop = rows[0].index("wall_seconds")
        outs.append([tuple(v for i, v in enumerate(r) if i != drop)
                     for r in rows])
    assert outs[0] == outs[1]


def test_result_table_columns():
    rows = cli.run_suite("wave1d")
    assert len(rows) == 1
    assert set(cli.RESULT_COLUMNS) >= set(rows[0].keys())
    assert rows[0]["mean_error"] < 1e-12


def test_per_seed_suite_repeats_its_best_row():
    rows = cli.run_suite("simple-pde-xtfc", range(2))
    assert [r["seed"] for r in rows] == [0, 1, "best"]
    assert rows[0]["max_error"] != rows[1]["max_error"]
    best = min(rows[:2], key=lambda r: r["max_error"])
    assert rows[2] == {**best, "seed": "best"}
    assert list(rows[2]) == list(best)


def test_elm_basis_via_config(tmp_path, runner):
    doc = yaml.safe_load(SIMPLE_CONFIG)
    doc["dependent"][0]["basis"] = {"family": "elm", "activation": "tanh",
                                    "neurons": 62, "seed": 0}
    doc["solver"] = {"method": "svd-pinv"}
    cfg = _write(tmp_path, yaml.safe_dump(doc))
    out = tmp_path / "r.json"
    result = runner.invoke(cli.main, ["solve", "--config", cfg,
                                      "--out", str(out)])
    assert result.exit_code == 0, result.output
    rep = json.loads(out.read_text())
    assert rep["metrics"]["max_error"] < 1e-6
    assert len(rep["xi"]["u"]) == 62


def test_convection_diffusion_suite_has_four_rows():
    rows = cli.run_suite("convection-diffusion")
    assert [r["problem"] for r in rows] == [
        "convdiff-pe1-whole", "convdiff-pe1-split",
        "convdiff-pe1e+06-whole", "convdiff-pe1e+06-split"]
    by_name = {r["problem"]: r for r in rows}
    assert by_name["convdiff-pe1-whole"]["max_error"] <= 1e-13
    assert by_name["convdiff-pe1e+06-split"]["max_error"] <= 1e-9
    # the whole-domain run at Pe=1e6 is the documented failure case
    assert by_name["convdiff-pe1e+06-whole"]["max_error"] > 1e-2


def test_independent_names_must_be_single_letters():
    doc = yaml.safe_load(SIMPLE_CONFIG)
    doc["independent"][0]["name"] = "xx"
    with pytest.raises(cli.ConfigError, match="single-letter"):
        cli.problem_from_config(doc)


def test_simple_pde_sweep_produces_20_feasible_rows():
    # cells with m > n are skipped exactly like the reference table
    rows = cli.run_suite("simple-pde")
    assert len(rows) == 20
    cells = [(r["n"], r["m"]) for r in rows]
    expected = [(n, m) for n in (5, 10, 15, 20, 25, 30)
                for m in (5, 10, 15, 20, 25) if m <= n]
    assert cells == expected
    # headline cell reproduces the reference accuracy
    best = {(r["n"], r["m"]): r["max_error"] for r in rows}
    assert best[(15, 15)] <= 1e-13
    assert best[(5, 5)] < 1e-2
