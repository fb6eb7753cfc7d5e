"""Command-line front end: declarative problem configs, the benchmark suite,
and plot-data emission.

Config files are YAML with a fixed schema (see README); unknown keys are
rejected with the offending key named.  Exit codes: 0 success, 1 config,
usage or problem error (the error is named), 2 solver non-convergence or a
non-finite result (the report is still written).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys

import click
import numpy as np
import yaml

from funcon import exprfn, problems
from funcon.desolve import (
    BasisSpec,
    ConstraintSpec,
    DeProblem,
    DependentVar,
    ElmSpec,
    ExtraUnknown,
    IndependentVar,
    ProblemBuild,
    SolveReport,
    solve,
)
from funcon.solvers import LSQ_METHODS, RankDeficientError

__all__ = ["main", "ConfigError", "load_config", "problem_from_config",
           "canonical_config", "run_suite", "SUITES"]


class ConfigError(ValueError):
    """Schema violation; message names the offending key/path."""


def _require(mapping, path, required, optional=()):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected a mapping")
    allowed = set(required) | set(optional)
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"{path}: missing required key {key!r}")


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path, minimum):
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(
            f"{path}: expected an integer >= {minimum}, got {value!r}")
    return value


def _items(value, path):
    """A list; an absent optional list is empty."""
    value = [] if value is None else value
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    return value


def _pair(value, path):
    """[lo, hi]: a list of two finite numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: expected [lo, hi], got {value!r}")
    return tuple(_number(v, path) for v in value)


def _integers(value, path, minimum):
    """A list of integers, each >= minimum."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of integers, got {value!r}")
    return tuple(_integer(v, path, minimum) for v in value)


def _dimension(value, path, names):
    if value not in names:
        raise ConfigError(f"{path}: unknown dimension {value!r}")


def _mapping(value, path, known=None, what="dimension"):
    """A mapping, empty when absent; with ``known``, its keys must be among
    those names of a ``what``."""
    value = value or {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping")
    for key in value:
        if known is not None and key not in known:
            raise ConfigError(f"{path}.{key}: unknown {what} {key!r}")
    return value


def _expression(value, path):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _number(value, path)
    if isinstance(value, str):
        try:
            exprfn.parse(value)
        except exprfn.ExprSyntaxError as err:
            raise ConfigError(f"{path}: {err}") from err
        return value
    raise ConfigError(f"{path}: expected a number or expression string")


def load_config(path_or_stream):
    if hasattr(path_or_stream, "read"):
        return yaml.safe_load(path_or_stream)
    with open(path_or_stream, "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def _claim(taken, name, path):
    """Record ``name`` as declared at ``path``: independent variables,
    dependent variables, params and extras share one namespace."""
    if name in taken:
        raise ConfigError(f"{path}: name {name!r} is already declared at "
                          f"{taken[name]}")
    taken[name] = path


def problem_from_config(doc) -> DeProblem:
    """Validate a parsed config document and build the DeProblem."""
    _require(doc, "config",
             required=("name", "independent", "dependent", "residuals"),
             optional=("params", "extras", "solver", "analytic",
                       "test_points", "seed"))
    if not isinstance(doc["name"], str):
        raise ConfigError(f"name: expected a string, got {doc['name']!r}")
    if doc.get("seed") is not None:
        _integer(doc["seed"], "seed", 0)
    indep = []
    names = []
    taken = {}
    for i, item in enumerate(_items(doc["independent"], "independent")):
        p = f"independent[{i}]"
        _require(item, p, ("name", "interval", "points"), ("spacing",))
        name = item["name"]
        if not (isinstance(name, str) and len(name) == 1 and name.isalpha()):
            raise ConfigError(
                f"{p}.name: independent variables need single-letter names "
                f"(partial tags are letter suffixes), got {name!r}")
        lo, hi = _pair(item["interval"], f"{p}.interval")
        spacing = item.get("spacing", "cgl")
        if spacing not in ("cgl", "uniform"):
            raise ConfigError(f"{p}.spacing: must be 'cgl' or 'uniform'")
        _claim(taken, name, f"{p}.name")
        indep.append(IndependentVar(
            name, (lo, hi), _integer(item["points"], f"{p}.points", 2), spacing))
        names.append(name)

    deps = []
    for i, item in enumerate(_items(doc["dependent"], "dependent")):
        p = f"dependent[{i}]"
        _require(item, p, ("name", "basis", "constraints"), ("supports",))
        if not isinstance(item["name"], str):
            raise ConfigError(f"{p}.name: expected a name, "
                              f"got {item['name']!r}")
        _claim(taken, item["name"], f"{p}.name")
        basis = _basis_from_config(item["basis"], f"{p}.basis", names)
        cons = []
        for j, c in enumerate(_items(item["constraints"], f"{p}.constraints")):
            cp = f"{p}.constraints[{j}]"
            _require(c, cp, ("dim", "terms", "value"))
            _dimension(c["dim"], f"{cp}.dim", names)
            if not _items(c["terms"], f"{cp}.terms"):
                raise ConfigError(f"{cp}.terms: needs at least one term")
            terms = [_term(t, f"{cp}.terms[{k}]", names)
                     for k, t in enumerate(c["terms"])]
            cons.append(ConstraintSpec(c["dim"], tuple(terms),
                                       _expression(c["value"], f"{cp}.value")))
        supports = {k: _integers(v, f"{p}.supports.{k}", 0) for k, v in
                    _mapping(item.get("supports"), f"{p}.supports",
                             names).items()}
        deps.append(DependentVar(item["name"], tuple(cons), basis, supports))

    residuals = []
    for i, r in enumerate(_items(doc["residuals"], "residuals")):
        # a number would be a residual that no unknown enters
        if not isinstance(r, str):
            raise ConfigError(f"residuals[{i}]: expected an expression "
                              f"string, got {r!r}")
        residuals.append(_expression(r, f"residuals[{i}]"))
    params = {}
    for k, v in _mapping(doc.get("params"), "params").items():
        _claim(taken, k, f"params.{k}")
        params[k] = _number(v, f"params.{k}")
    extras = []
    for i, e in enumerate(_items(doc.get("extras"), "extras")):
        p = f"extras[{i}]"
        _require(e, p, ("name", "init"), ("lower", "upper"))
        if not isinstance(e["name"], str):
            raise ConfigError(f"{p}.name: expected a name, got {e['name']!r}")
        _claim(taken, e["name"], f"{p}.name")
        extras.append(ExtraUnknown(
            e["name"], _number(e["init"], f"{p}.init"),
            None if e.get("lower") is None else _number(e["lower"], p),
            None if e.get("upper") is None else _number(e["upper"], p)))

    solver = doc.get("solver") or {}
    _require(solver, "solver", (), ("method", "mode", "nlls_tol",
                                    "nlls_max_iter"))
    if solver.get("method", "svd-pinv") not in LSQ_METHODS:
        raise ConfigError(f"solver.method: unknown method "
                          f"{solver['method']!r}; options: {LSQ_METHODS}")
    if solver.get("mode", "embedded") not in ("embedded", "spectral"):
        raise ConfigError("solver.mode: must be 'embedded' or 'spectral'")
    nlls_tol = _number(solver.get("nlls_tol", 1e-13), "solver.nlls_tol")
    if not nlls_tol > 0:
        raise ConfigError(f"solver.nlls_tol: expected a number > 0, "
                          f"got {nlls_tol!r}")
    analytic = {k: _expression(v, f"analytic.{k}") for k, v in _mapping(
        doc.get("analytic"), "analytic", [d.name for d in deps],
        "dependent variable").items()}
    test_points = doc.get("test_points")
    if test_points is not None:
        test_points = _integers(test_points, "test_points", 1)
        if len(test_points) != len(indep):
            raise ConfigError("test_points: one count per independent variable")

    return DeProblem(
        name=doc["name"],
        independent=tuple(indep),
        dependent=tuple(deps),
        residuals=tuple(residuals),
        params=params,
        extras=tuple(extras),
        method=solver.get("method", "svd-pinv"),
        mode=solver.get("mode", "embedded"),
        nlls_tol=nlls_tol,
        nlls_max_iter=_integer(solver.get("nlls_max_iter", 50),
                               "solver.nlls_max_iter", 1),
        analytic=analytic,
        test_points=test_points,
    )


def _term(t, path, names):
    """One constraint term, checked: a point derivative, an own-dimension
    integral, or a point derivative integrated over another dimension."""
    _require(t, path, (), ("order", "at", "coeff", "integral",
                           "integral_over"))
    if "at" not in t and "integral" not in t:
        raise ConfigError(f"{path}: needs 'at' or 'integral'")
    mixed = [key for key in ("at", "order", "integral_over") if key in t]
    if "integral" in t and mixed:
        raise ConfigError(f"{path}: 'integral' cannot be combined with "
                          f"{', '.join(map(repr, mixed))}")
    _number(t.get("coeff", 1.0), f"{path}.coeff")
    if "integral" in t:
        _pair(t["integral"], f"{path}.integral")
    if "at" in t:
        _number(t["at"], f"{path}.at")
        order = t.get("order", 0)
        if isinstance(order, bool) or not isinstance(order, int):
            # the sign is checked where the operator is built
            raise ConfigError(f"{path}.order: expected an integer, "
                              f"got {order!r}")
    if "integral_over" in t:
        over = t["integral_over"]
        if not isinstance(over, (list, tuple)) or len(over) != 3:
            raise ConfigError(f"{path}.integral_over: expected [dim, lo, hi], "
                              f"got {over!r}")
        _dimension(over[0], f"{path}.integral_over", names)
        _pair(over[1:], f"{path}.integral_over")
    return dict(t)


def _basis_from_config(item, path, names):
    _require(item, path, ("family",),
             ("degree", "removal", "activation", "neurons", "seed",
              "init_range"))
    family = item["family"]
    if not isinstance(family, str):
        raise ConfigError(f"{path}.family: expected a family name, "
                          f"got {family!r}")
    if family == "elm":
        return ElmSpec(item.get("activation", "tanh"),
                       _integer(item.get("neurons", 100), f"{path}.neurons", 1),
                       _integer(item.get("seed", 0), f"{path}.seed", 0),
                       _pair(item.get("init_range", [-1.0, 1.0]),
                             f"{path}.init_range"))
    if family in ("laguerre", "hermite-prob", "hermite-phys"):
        raise ConfigError(f"{path}.family: {family!r} needs a finite window, "
                          "which only the library API sets (BasisSpec.window)")
    removal = {}
    for k, v in _mapping(item.get("removal"), f"{path}.removal",
                         names).items():
        # -1 keeps every index, k drops the first k, a list drops those
        vp = f"{path}.removal.{k}"
        removal[k] = _integers(v, vp, 0) if isinstance(v, (list, tuple)) \
            else _integer(v, vp, -1)
    return BasisSpec(family, _integer(item.get("degree", 10), f"{path}.degree", 0),
                     removal)


def canonical_config(problem: DeProblem, seed=None) -> dict:
    """Emit a config document that re-parses to the same problem."""
    doc = {
        "name": problem.name,
        "independent": [
            {"name": v.name, "interval": [v.interval[0], v.interval[1]],
             "points": v.points, "spacing": v.spacing}
            for v in problem.independent],
        "dependent": [],
        "residuals": [r if isinstance(r, str) else exprfn.to_source(r)
                      for r in problem.residuals],
        "solver": {"method": problem.method, "mode": problem.mode,
                   "nlls_tol": problem.nlls_tol,
                   "nlls_max_iter": problem.nlls_max_iter},
    }
    for dep in problem.dependent:
        basis = dep.basis
        if isinstance(basis, ElmSpec):
            bdoc = {"family": "elm", "activation": basis.activation,
                    "neurons": basis.neurons, "seed": basis.seed,
                    "init_range": list(basis.init_range)}
        else:
            bdoc = {"family": basis.family, "degree": basis.degree}
            if basis.removal:
                bdoc["removal"] = {k: (v if isinstance(v, int) else list(v))
                                   for k, v in basis.removal.items()}
        cdocs = []
        for c in dep.constraints:
            cdocs.append({"dim": c.dim, "terms": [dict(t) for t in c.terms],
                          "value": c.value})
        ddoc = {"name": dep.name, "basis": bdoc, "constraints": cdocs}
        if dep.supports:
            ddoc["supports"] = {k: list(v) for k, v in dep.supports.items()}
        doc["dependent"].append(ddoc)
    if problem.params:
        doc["params"] = dict(problem.params)
    if problem.extras:
        doc["extras"] = [{"name": e.name, "init": e.init,
                          "lower": e.lower, "upper": e.upper}
                         for e in problem.extras]
    if problem.analytic:
        doc["analytic"] = dict(problem.analytic)
    if problem.test_points:
        doc["test_points"] = list(problem.test_points)
    if seed is not None:
        doc["seed"] = seed
    return doc


def report_to_dict(report: SolveReport, problem: DeProblem) -> dict:
    return {
        "problem": report.problem,
        "config": canonical_config(problem, seed=report.seed),
        "xi": {k: list(map(float, v)) for k, v in report.xi.items()},
        "extras": {k: float(v) for k, v in report.extras.items()},
        "metrics": {
            "max_residual": report.max_residual,
            "mean_residual": report.mean_residual,
            "max_error": report.max_error,
            "mean_error": report.mean_error,
            "iterations": report.iterations,
            "reason": report.reason,
            "wall_seconds": report.wall_seconds,
            "columns": report.columns,
            "training_points": report.training_points,
        },
        # lists, so outside the scalar metrics that the CSV report tabulates
        "residual_history": list(map(float, report.residual_history)),
        "step_routes": list(report.step_routes),
    }


def _write_report(report, problem, out, fmt):
    doc = report_to_dict(report, problem)
    if fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = _csv([("key", "value"), *doc["metrics"].items()])
    _emit(text, out)


def _csv(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _emit(text, out):
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is "-"."""
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# benchmark suites

RESULT_COLUMNS = ("problem", "n", "m", "max_error", "mean_error",
                  "max_residual", "iterations", "reason", "converged",
                  "wall_seconds", "seed")


def _row(problem_id, n, m, rep, seed=None):
    return {
        "problem": problem_id, "n": n, "m": m,
        "max_error": rep.max_error, "mean_error": rep.mean_error,
        "max_residual": rep.max_residual, "iterations": rep.iterations,
        "reason": rep.reason, "converged": rep.converged,
        "wall_seconds": rep.wall_seconds, "seed": seed,
    }


def _suite_simple_pde(seeds):
    rows = []
    for n in (5, 10, 15, 20, 25, 30):
        for m in (5, 10, 15, 20, 25):
            if m > n:
                continue  # infeasible cells are skipped
            rep = solve(problems.simple_pde(n, m))
            rows.append(_row("simple-pde", n, m, rep))
    return rows


def _suite_convection_diffusion(seeds):
    from funcon.desolve import solve_split
    rows = []
    for pe in (1.0, 1e6):
        rep = solve(problems.convection_diffusion(pe))
        rows.append(_row(f"convdiff-pe{pe:g}-whole", 200, 190, rep))
        prob, split = problems.convection_diffusion_split(pe)
        rep = solve_split(prob, split)
        rows.append(_row(f"convdiff-pe{pe:g}-split", 200, 190, rep))
    return rows


def _suite_balloon(seeds):
    rows = []
    state = None
    for alt in sorted(problems.BALLOON_ATMOSPHERE):
        rep, state = problems.solve_balloon(alt, warm_start=state)
        rows.append(_row(f"balloon-{alt}km", 140, 50, rep))
    return rows


def _one(problem_id, n, m, make):
    """A suite of one row: the solve of ``make()``."""
    return lambda seeds: [_row(problem_id, n, m, solve(make()))]


def _per_seed(problem_id, n, m, make):
    """A suite of one row per seed, the solve of ``make(seed)``, then the
    row of least ``max_error`` again with seed "best"."""
    def suite(seeds):
        rows = [_row(problem_id, n, m, solve(make(seed), seed=seed), seed)
                for seed in seeds]
        best = min(rows, key=lambda r: r["max_error"])
        return rows + [{**best, "seed": "best"}]
    return suite


SUITES = {
    "simple-pde": _suite_simple_pde,
    "simple-pde-spectral": _one(
        "simple-pde-spectral", 15, 15,
        lambda: problems.simple_pde(15, 15, mode="spectral")),
    "simple-pde-xtfc": _per_seed(
        "simple-pde-xtfc", 15, 132,
        lambda seed: problems.simple_pde_xtfc(15, 132, seed)),
    "wave1d": _one("wave1d", 30, 20, problems.wave1d),
    "wave2d": _one("wave2d", 11, 9, problems.wave2d_tfc),
    "wave2d-xtfc": _per_seed(
        "wave2d-xtfc", 11, 650,
        lambda seed: problems.wave2d_xtfc(11, 650, seed)),
    "biharmonic-cart": _one("biharmonic-cart", 20, 26,
                            problems.biharmonic_cartesian),
    "biharmonic-polar": _one("biharmonic-polar", 30, 30,
                             problems.biharmonic_polar),
    "convection-diffusion": _suite_convection_diffusion,
    "balloon": _suite_balloon,
}


def run_suite(name, seeds=range(10)):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; options: {sorted(SUITES)}")
    return SUITES[name](list(seeds))


# ---------------------------------------------------------------------------
# commands

@click.group()
def main():
    """Constraint-embedding DE solver."""


@main.command("solve")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", default="-")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="json")
def cmd_solve(config_path, out_path, fmt):
    """Solve a declarative problem config and write the report."""
    try:
        doc = load_config(config_path)
        problem = problem_from_config(doc)
    except (ConfigError, yaml.YAMLError) as err:
        click.echo(f"config error: {err}", err=True)
        sys.exit(1)
    seed = (doc or {}).get("seed", 0)
    try:
        report = solve(problem, seed=seed)
    except (ValueError, RankDeficientError) as err:
        # the library's checks all raise ValueError subclasses; the
        # factorization routes' rank checks raise RankDeficientError
        click.echo(f"problem error: {type(err).__name__}: {err}", err=True)
        sys.exit(1)
    _write_report(report, problem, out_path, fmt)
    sys.exit(0 if report.converged else 2)


@main.command("bench")
@click.option("--suite", required=True)
@click.option("--out", "out_path", default="-")
@click.option("--seeds", default="0..9", help="seed range lo..hi for "
              "stochastic suites")
def cmd_bench(suite, out_path, seeds):
    """Run a benchmark suite and emit its result table."""
    try:
        rows = run_suite(suite, _seed_range(seeds))
    except (KeyError, ConfigError) as err:
        click.echo(f"error: {err.args[0]}", err=True)
        sys.exit(1)
    table = [RESULT_COLUMNS] + [[r.get(k) for k in RESULT_COLUMNS]
                                for r in rows]
    _emit(_csv(table), out_path)
    sys.exit(0)


def _seed_range(text):
    """The seeds of ``--seeds lo..hi``, both ends included."""
    lo, sep, hi = text.partition("..")
    if not (sep and lo.isdigit() and hi.isdigit() and int(lo) <= int(hi)):
        raise ConfigError(f"--seeds: expected lo..hi with integers "
                         f"0 <= lo <= hi, got {text!r}")
    return range(int(lo), int(hi) + 1)


@main.command("plotdata")
@click.option("--report", "report_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", default="-")
def cmd_plotdata(report_path, out_path):
    """Sample a solved report on its test grid as CSV for external plotting."""
    try:
        doc = _read_report(report_path)
        rows = plot_rows(problem_from_config(doc["config"]), doc)
    except ConfigError as err:
        click.echo(f"report error: {err}", err=True)
        sys.exit(1)
    except ValueError as err:
        # the library's checks, as in ``solve``: e.g. a domain error of the
        # analytic solution on the sampled grid
        click.echo(f"problem error: {type(err).__name__}: {err}", err=True)
        sys.exit(1)
    _emit(_csv(rows), out_path)
    sys.exit(0)


def _read_report(path):
    """The JSON report ``solve`` wrote to ``path``; ConfigError names what
    is missing from it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"not a JSON report ({err})") from err
    if not isinstance(doc, dict):
        raise ConfigError("not a JSON report (expected an object)")
    for key in ("config", "xi"):
        if key not in doc:
            raise ConfigError(f"missing required key {key!r}")
    return doc


def plot_rows(problem: DeProblem, doc):
    """Header + data rows: coordinates, solution, and (when an analytic
    solution is declared) the truth and absolute error."""
    if problem.test_points is None:
        problem = dataclasses.replace(
            problem, test_points=tuple(100 for _ in problem.independent))
    bld = ProblemBuild(problem)
    pts = bld.test_grid()
    xi_full, extras = _report_unknowns(doc, bld)
    names = [v.name for v in problem.independent]
    out_rows = []
    header = list(names)
    preds = {}
    truths = {}
    for dep in problem.dependent:
        preds[dep.name], truth = bld.solution_and_truth(dep.name, pts,
                                                        xi_full, extras)
        header.append(dep.name)
        if truth is not None:
            truths[dep.name] = truth
            header.append(dep.name + "_true")
            header.append("abs_error_" + dep.name)
    out_rows.append(header)
    for i in range(pts.shape[0]):
        row = [repr(float(v)) for v in pts[i]]
        for dep in problem.dependent:
            row.append(repr(float(preds[dep.name][i])))
            if dep.name in truths:
                t = float(truths[dep.name][i])
                row.append(repr(t))
                row.append(repr(abs(float(preds[dep.name][i]) - t)))
        out_rows.append(row)
    return out_rows


def _report_unknowns(doc, bld):
    """The report's coefficients, laid out as ``bld`` lays them out, and its
    value of each declared extra; ConfigError names what is missing."""
    xi, given = doc["xi"], doc.get("extras", {})
    for key, value in (("xi", xi), ("extras", given)):
        if not isinstance(value, dict):
            raise ConfigError(f"{key}: expected a mapping")
    xi_full = np.zeros(bld.layout.width)
    for dep in bld.problem.dependent:
        if dep.name not in xi:
            raise ConfigError(f"xi: missing dependent variable {dep.name!r}")
        cols = bld.layout.slice_of(dep.name)
        try:
            coef = np.asarray(xi[dep.name], dtype=float)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"xi.{dep.name}: expected numbers ({err})") \
                from err
        if coef.shape != xi_full[cols].shape:
            raise ConfigError(f"xi.{dep.name}: expected {xi_full[cols].size} "
                              f"coefficients, got shape {coef.shape}")
        xi_full[cols] = coef
    extras = {}
    for extra in bld.problem.extras:
        if extra.name not in given:
            raise ConfigError(f"extras: missing value of {extra.name!r}")
        extras[extra.name] = _number(given[extra.name], f"extras.{extra.name}")
    return xi_full, extras


if __name__ == "__main__":
    main()
