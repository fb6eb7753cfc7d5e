import dataclasses
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import funcon
from funcon import basis as B
from funcon import constraint_core as C
from funcon import desolve as D
from funcon import exprfn as E
from funcon import multivar as M
from funcon import problems as P
from funcon.solvers import NllsConfig, nlls


def first_order_ode(residual="y_x - 1", m=1, value=2.0):
    """y(0) = value with a degree-m Legendre free function on [0, 1]."""
    return D.DeProblem(
        name="toy",
        independent=(D.IndependentVar("x", (0.0, 1.0), 8),),
        dependent=(D.DependentVar("y", (
            D.ConstraintSpec("x", ({"order": 0, "at": 0.0},), value),
        ), D.BasisSpec("legendre", m)),),
        residuals=(residual,),
        method="scaled-qr",
    )


def test_assemble_linear_single_column_constant():
    # residual u_x with CE y = g + kappa - g(0) and a single affine basis
    # function: the column is constant (the basis slope through the CE)
    bld = D.ProblemBuild(first_order_ode())
    A, b = D.assemble_linear(bld)
    assert A.shape == (8, 1)
    np.testing.assert_allclose(A[:, 0], A[0, 0], rtol=1e-14)
    assert A[0, 0] != 0.0
    # solving y_x - 1 = 0 gives y = x + 2 exactly
    rep = D.solve(first_order_ode())
    bld = D.ProblemBuild(first_order_ode())
    xs = np.linspace(0, 1, 11)[:, None]
    got = bld.evaluate_solution("y", xs, rep.xi["y"], {})
    np.testing.assert_allclose(got, xs[:, 0] + 2.0, atol=1e-13)


def test_non_affine_residual_detected():
    prob = first_order_ode(residual="y*y_x - 1")
    with pytest.raises(D.NonAffineResidualError):
        D.assemble_linear(D.ProblemBuild(prob))


@pytest.mark.parametrize("src,affine", [
    ("y_x + 3*y - x", True),
    ("sin(x)*y_x + y/2", True),
    ("sin(y)", False),
    ("y^2", False),
    ("y_x/y", False),
    ("exp(-x)*(y_xx + y)", True),
    # sign's partial is taken as 0, so a tag under it must not pass as affine
    ("y_x + sign(y) - 1", False),
    ("y*sign(x) + y_x", True),
    ("y_x*y_xx", False),
    ("(y+1)^2 - y^2", False),
])
def test_affinity_classification(src, affine):
    assert D.ProblemBuild(first_order_ode(residual=src)).is_affine() == affine


def test_linear_problem_through_nonlinear_path_one_iteration():
    prob = dataclasses.replace(first_order_ode("y_x - 3*y", m=12, value=1.0),
                               method="svd-pinv")
    bld = D.ProblemBuild(prob)
    res, jac = D.assemble_nonlinear(bld)
    result = nlls(res, jac, np.zeros(bld.layout.width),
                  NllsConfig(tol=prob.nlls_tol, method=prob.method))
    assert result.iterations == 1
    assert result.reason == "residual-inf-norm"
    lin = D.solve(prob)
    np.testing.assert_allclose(result.xi, lin.xi["y"], atol=1e-9)


def _decay_ode(family, window):
    """y_x + y = 0, y(0) = 1 on [0, 1] (y = exp(-x)): 20 CGL points and a
    degree-12 free function of ``family`` on the basis window ``window``."""
    return D.DeProblem(
        name="decay",
        independent=(D.IndependentVar("x", (0.0, 1.0), 20),),
        dependent=(D.DependentVar("y", (
            D.ConstraintSpec("x", ({"order": 0, "at": 0.0},), 1.0),
        ), D.BasisSpec(family, 12, window=window)),),
        residuals=("y_x + y",),
        analytic={"y": "exp(-x)"},
        test_points=(101,),
    )


@pytest.mark.parametrize("family,window", [
    ("laguerre", (0.0, 2.0)),
    ("hermite-prob", (-1.0, 1.0)),
    ("hermite-phys", (-1.0, 1.0)),
])
def test_infinite_domain_families_solve_on_a_window(family, window):
    # The degree-12 interpolation remainder of exp(-x) on [0, 1] is at most
    # max |f^(13)| / 13! = 1/13! ~ 1.6e-10; 1e-9 leaves room for rounding.
    report = D.solve(_decay_ode(family, {"x": window}))
    assert report.converged
    assert report.max_error <= 1e-9
    with pytest.raises(ValueError, match="declare a finite window for 'x'"):
        D.ProblemBuild(_decay_ode(family, {}))


# affine problems whose linear system is assembled tag by tag
_LINEAR = {
    "embedded": lambda: P.simple_pde(8, 6),
    "spectral": lambda: P.simple_pde(8, 6, mode="spectral"),
    # 400 points: the ELM rows and the CE's gathered terms span two blocks
    "elm": lambda: P.simple_pde_xtfc(20, neurons=30, seed=1),
    # eight partial tags in one residual
    "many-tags": lambda: P.biharmonic_polar(8, 8),
    # derivative constraint rows
    "spectral-wave1d": lambda: dataclasses.replace(P.wave1d(8, 6),
                                                   mode="spectral"),
    # y_x in both residuals: its rows are scaled in place at the last only
    "shared-tags": lambda: dataclasses.replace(
        first_order_ode(m=4),
        residuals=("(1 + x)*y_x - 1 - x", "x*y_x + y - x - 2")),
}


@pytest.mark.parametrize("name", sorted(_LINEAR))
def test_assemble_linear_is_the_first_gauss_newton_system(name):
    # affine residual: A = J(q) for any q and b = -L(0), bit for bit as the
    # closures give them
    bld = D.ProblemBuild(_LINEAR[name]())
    A, b = D.assemble_linear(bld)
    res, jac = D.assemble_nonlinear(bld)
    q = np.random.default_rng(2).standard_normal(bld.layout.width)
    np.testing.assert_array_equal(A, jac(q))
    np.testing.assert_array_equal(b, -res(np.zeros(bld.layout.width)))
    np.testing.assert_allclose(A @ q - b, res(q), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("make", [
    lambda: P.simple_pde_xtfc(48, neurons=100, seed=1),
    lambda: P.biharmonic_polar(20, 14),
], ids=["elm", "tensor"])
def test_linear_assembly_holds_three_full_size_arrays(make):
    # Held at once, in (n, width) float arrays for n grid points: A (one
    # residual), one tag's rows and one working array of the feature (a
    # tensor feature's gathered factor; an ELM feature's temporaries are
    # ROW_BLOCK rows each).  The allowance of six ROW_BLOCK-row arrays
    # covers those temporaries, the CE's terms on the distinct points, the
    # 1-D tables and the n-vectors.  Holding every tag's rows (2 and 8
    # here) until A is formed exceeds it.
    bld = D.ProblemBuild(make())
    pts = bld.grid()
    width = bld.layout.width
    tracemalloc.start()
    try:
        D.assemble_linear(bld, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * pts.shape[0] * width * 8 + 6 * B.ROW_BLOCK * width * 8


def test_integral_over_a_dimension_without_constraints():
    # y has no CE, so the integral over y in a constraint on x orders
    # nothing; both constraints on x hold for any coefficients
    base = P.simple_pde(8, 6)
    (dep,) = base.dependent
    integral = D.ConstraintSpec("x", ({"order": 0, "at": 1.0,
                                       "integral_over": ["y", 0.0, 1.0]},), 0.5)
    bld = D.ProblemBuild(dataclasses.replace(base, dependent=(
        dataclasses.replace(dep, constraints=(dep.constraints[0], integral)),)))
    assert M.order_dimensions(bld.constraints["u"]).forced == ()
    z, w = C.gauss_legendre(0.0, 1.0)
    ys = np.linspace(0.0, 1.0, 5)
    for seed in range(3):
        xi = np.random.default_rng(seed).standard_normal(bld.layout.width)
        on_x1 = bld.evaluate_solution(
            "u", np.column_stack([np.ones_like(z), z]), xi, {})
        on_x0 = bld.evaluate_solution(
            "u", np.column_stack([np.zeros_like(ys), ys]), xi, {})
        assert abs(w @ on_x1 - 0.5) <= 1e-13
        np.testing.assert_allclose(on_x0, ys**3, rtol=0, atol=1e-13)


def _spectral_with_extra(n, extra):
    """Spectral simple-pde whose x=0 boundary value is c*y^3."""
    base = P.simple_pde(n, n, mode="spectral")
    (dep,) = base.dependent
    cons = (D.ConstraintSpec("x", ({"order": 0, "at": 0.0},), "c*y^3"),) \
        + dep.constraints[1:]
    return dataclasses.replace(
        base, dependent=(dataclasses.replace(dep, constraints=cons),),
        extras=(extra,))


def test_spectral_constraint_rows_reach_gauss_newton():
    # the x=0 boundary value c*y^3 carries an extra, so the solve takes the
    # Gauss-Newton path; only the spectral constraint rows pin c to 1
    prob = _spectral_with_extra(10, D.ExtraUnknown("c", 0.5))
    rep = D.solve(prob)
    assert rep.converged
    assert rep.extras["c"] == pytest.approx(1.0, abs=1e-8)
    assert rep.max_error <= 1e-9


# small problems for each kind of free function, kappa and mode
_BUILDS = {
    "chebyshev-custom-supports": lambda: P.biharmonic_polar(8, 8),
    "elm": lambda: P.simple_pde_xtfc(8, neurons=30, seed=1),
    "spectral": lambda: P.simple_pde(6, 6, mode="spectral"),
    "spectral-extra": lambda: _spectral_with_extra(
        6, D.ExtraUnknown("c", 0.5, 0.0, 2.0)),
    "split-expr-kappa": lambda: D._split_problem(
        *P.convection_diffusion_split(1.0, n=20, m=12)),
    "balloon-branch-kappa": lambda: P.balloon(52, n=20, m=10),
}


def _random_state(bld, rng, spill):
    """Coefficients, then each extra drawn across its bounds widened by
    ``spill`` of their span on each side (beyond them the clamp is active)."""
    q = [rng.uniform(-1.0, 1.0, bld.layout.width)]
    for e in bld.problem.extras:
        lo = -3.0 if e.lower is None else e.lower
        hi = 3.0 if e.upper is None else e.upper
        q.append([rng.uniform(lo - spill * (hi - lo), hi + spill * (hi - lo))])
    return np.concatenate(q)


def _random_points(bld, rng, n=40):
    return np.column_stack([rng.uniform(*v.interval, n)
                            for v in bld.problem.independent])


@pytest.mark.parametrize("name", sorted(_BUILDS))
def test_solution_values_equal_coefficient_rows(name):
    # the CE around the solved free function gives the values that the
    # coefficient rows give at the same xi
    bld = D.ProblemBuild(_BUILDS[name]())
    width = bld.layout.width
    zero = (0,) * len(bld.var_names)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def check(seed):
        rng = np.random.default_rng(seed)
        q = _random_state(bld, rng, 0.0)
        extras, _ = bld.clamp_extras(
            {e.name: q[width + i] for i, e in enumerate(bld.problem.extras)})
        pts = _random_points(bld, rng)
        for dep in bld.problem.dependent:
            got = bld.evaluate_solution(dep.name, pts, q[:width], extras)
            want = bld.fields[dep.name].eval(pts, zero, extras).value(q[:width])
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    check()


@pytest.mark.parametrize("name", sorted(n for n, make in _BUILDS.items()
                                         if not make().extras))
def test_affine_verdict_means_a_constant_jacobian(name):
    # the verdict and the Jacobian come from the same partials: an affine
    # residual without extras has the same Jacobian at every q
    bld = D.ProblemBuild(_BUILDS[name]())
    assert bld.is_affine()
    _, jacobian = D.assemble_nonlinear(bld)
    j0 = jacobian(np.zeros(bld.layout.width))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def check(seed):
        q = _random_state(bld, np.random.default_rng(seed), 0.0)
        np.testing.assert_array_equal(jacobian(q), j0)

    check()


def _fresh_system(bld, pts, q):
    """Residual and Jacobian at ``q`` from a full evaluation of the
    coefficient-row expressions at q's extras: the reference for
    ``assemble_nonlinear``, which evaluates rows once and offsets per q."""
    width = bld.layout.width
    names = [e.name for e in bld.problem.extras]
    extras, gates = bld.clamp_extras(
        {nm: q[width + i] for i, nm in enumerate(names)})
    xi = q[:width]
    evals = bld.partial_evals(pts, extras)
    bindings = bld.ctx.bindings(pts, extras)
    bindings.update({tag: ev.value(xi) for tag, ev in evals.items()})
    n = pts.shape[0]

    def at(e):
        return np.broadcast_to(np.asarray(E.evaluate(e, bindings), dtype=float),
                               (n,))

    res, jac = [], []
    for r in bld._residuals:
        present = E.free_variables(r)
        J = np.zeros((n, width + len(names)))
        dfdt = {tag: at(E.differentiate(r, tag, 1))
                for tag in bld._tags if tag in present}
        for tag, c in dfdt.items():
            J[:, :width] += c[:, None] * evals[tag].rows
        for i, nm in enumerate(names):
            col = np.zeros(n)
            if nm in present:
                col += at(E.differentiate(r, nm, 1))
            for tag, c in dfdt.items():
                g = evals[tag].grads.get(nm)
                if g is not None:
                    col += c * g
            J[:, width + i] = col * gates[nm]
        res.append(at(r))
        jac.append(J)
    for c in bld.constraint_evals(bld.fields, extras):
        J = np.zeros((c.rows.shape[0], width + len(names)))
        J[:, :width] = c.rows
        for i, nm in enumerate(names):
            if nm in c.grads:
                J[:, width + i] = c.grads[nm] * gates[nm]
        res.append(c.value(xi))
        jac.append(J)
    return np.concatenate(res), np.vstack(jac)


@pytest.mark.parametrize("name", sorted(_BUILDS))
def test_assembly_equals_fresh_partial_evaluations(name):
    # rows once per grid plus offsets per iterate give exactly the system
    # that a full evaluation at each iterate's extras gives
    bld = D.ProblemBuild(_BUILDS[name]())
    pts = bld.grid()
    residual, jacobian = D.assemble_nonlinear(bld, pts)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def check(seed):
        q = _random_state(bld, np.random.default_rng(seed), 0.25)
        # and at the initial extras, whose offsets come with the rows
        q0 = q.copy()
        q0[bld.layout.width:] = [e.init for e in bld.problem.extras]
        for at in (q, q0):
            want_res, want_jac = _fresh_system(bld, pts, at)
            np.testing.assert_array_equal(residual(at), want_res)
            np.testing.assert_array_equal(jacobian(at), want_jac)

    check()


_FAMILIES = ("chebyshev", "legendre", "laguerre", "hermite-prob",
             "hermite-phys", "fourier")
# collocation windows for the families with infinite native domains
_WINDOWS = {"laguerre": (0.0, 4.0), "hermite-prob": (-2.0, 2.0),
            "hermite-phys": (-2.0, 2.0)}


def _finite(lo, hi):
    # no subnormal numbers: the rounding bound below is relative, and a
    # subnormal result has less than double precision
    return st.floats(lo, hi, allow_subnormal=False)


@st.composite
def _separable_problems(draw):
    """A random problem whose constrained expression acts on each dimension
    alone: 1-3 dimensions, 1-3 constraints on each mixing value, derivative,
    relative (two-point) and own-dimension integral terms, constant or
    expression kappas, custom supports on one dimension, and a residual
    that mentions 1-3 partial tags of orders 0-3.  Integral terms sit on
    one dimension only, which bounds the recursive reference's quadrature
    work.  Returns (problem, points)."""
    dims = draw(st.integers(1, 3))
    names = "xyz"[:dims]
    family = draw(st.sampled_from(_FAMILIES))
    integral_dim = draw(st.integers(0, dims - 1))
    independent, constraints, supports = [], [], {}
    for k, name in enumerate(names):
        lo = draw(_finite(-2.0, 0.0))
        hi = lo + draw(_finite(0.5, 3.0))
        independent.append(D.IndependentVar(name, (lo, hi), 5))
        at = _finite(lo, hi)
        coeff = _finite(0.5, 2.0) | _finite(-2.0, -0.5)
        kinds = ["value", "derivative", "relative"]
        if k == integral_dim:
            kinds.append("integral")
        count = draw(st.integers(1, 3))
        for _ in range(count):
            kind = draw(st.sampled_from(kinds))
            if kind == "value":
                terms = ({"order": 0, "at": draw(at)},)
            elif kind == "derivative":
                terms = ({"order": draw(st.integers(1, 2)), "at": draw(at),
                          "coeff": draw(coeff)},)
            elif kind == "relative":
                terms = ({"order": 0, "at": draw(at)},
                         {"order": 0, "at": draw(at), "coeff": -1.0})
            else:
                a, b = sorted((draw(at), draw(at)))
                assume(b - a > 0.05)
                terms = ({"integral": [a, b], "coeff": draw(coeff)},)
                if draw(st.booleans()):  # with a point term in one operator
                    terms += ({"order": 0, "at": draw(at)},)
            others = [n for n in names if n != name]
            value = draw(_finite(-2.0, 2.0))
            if others and draw(st.booleans()):
                o = draw(st.sampled_from(others))
                value = f"{value!r}*{o}^2 + sin({o})"
            constraints.append(D.ConstraintSpec(name, terms, value))
        if draw(st.booleans()) and not supports:
            supports[name] = tuple(sorted(draw(st.lists(
                st.integers(0, count + 2), min_size=count, max_size=count,
                unique=True))))
    tags = draw(st.lists(st.tuples(*[st.integers(0, 3)] * dims),
                         min_size=1, max_size=3, unique=True))
    residual = " + ".join(
        "u" + ("_" + "".join(n * o for n, o in zip(names, orders))
               if any(orders) else "") for orders in tags)
    problem = D.DeProblem(
        name="separable", independent=tuple(independent),
        dependent=(D.DependentVar(
            "u", tuple(constraints),
            D.BasisSpec(family, draw(st.integers(2, 8)),
                        window={n: _WINDOWS[family] for n in names}
                        if family in _WINDOWS else {}),
            supports),),
        residuals=(residual,))
    # a mesh of 2-3 random coordinates per dimension: repeated coordinates
    axes = [draw(st.lists(_finite(*v.interval), min_size=2, max_size=3))
            for v in independent]
    return problem, D._mesh([np.array(a) for a in axes])


def _absolute_rows(bld, pts, orders):
    """The projected rows' expression in absolute values: per dimension
    |T| + (|S| |alpha|) (|C| |T|), with |C| the operator with absolute
    coefficients, multiplied over the dimensions at the retained indices."""
    feature = bld.features["u"]
    out = np.ones((pts.shape[0], feature.count))
    for k, (fam, dmap) in enumerate(zip(feature.families, feature.maps)):
        def table(x, d):
            return np.abs(B.eval_basis(fam, dmap, x, d))

        tab = table(pts[:, k], orders[k])
        if k in bld.projections["u"]:
            ce, _ = bld.projections["u"][k]
            applied = C.apply_operator_columns([C.ConstraintOperator(
                [dataclasses.replace(s, coeff=abs(s.coeff))
                 for s in c.operator.specs]) for c in ce.constraints], table)
            switching = np.abs(ce.supports.table(pts[:, k], orders[k])) \
                @ np.abs(ce.alpha)
            tab = tab + switching @ applied
        out *= tab[:, feature._idx[:, k]]
    return out


@given(_separable_problems())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_projected_rows_equal_recursive_rows(drawn):
    # Both paths evaluate one multilinear expression in different orders.
    # Per dimension, C[T] sums at most two specs of at most 64 quadrature
    # products each (the recursive path accumulates the same products over
    # (n, width) arrays), phi is a sum of at most 3 support products and
    # the projection adds at most 3 products to T: by the standard
    # summation bound each path is within (2*64 + 3 + 3 + 3 + 1) eps = 138
    # eps of the expression in absolute values per dimension, and the row
    # multiplies d <= 3 factors.  So |projected - recursive| <=
    # 2 * d * (138 + 1) * (eps |R| + tiny), R from ``_absolute_rows``; the
    # smallest normal number ``tiny`` covers products that underflow.
    # Offsets and gradients come from the same CE of the zero function:
    # equal exactly.
    problem, pts = drawn
    try:
        bld = D.ProblemBuild(problem)
    except C.SingularSupportError:
        assume(False)
    assert "u" in bld.projections
    gamma = 2 * len(bld.var_names) * 139
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    evals = bld.partial_evals(pts, {})
    for tag, (base, orders) in bld._tags.items():
        want = bld.fields[base].eval(pts, orders, {})
        got = evals[tag]
        assert got.rows.shape == want.rows.shape
        bound = gamma * (eps * _absolute_rows(bld, pts, orders) + tiny)
        assert np.all(np.abs(got.rows - want.rows) <= bound)
        np.testing.assert_array_equal(got.offset, want.offset)
        assert got.grads.keys() == want.grads.keys()
        for name in want.grads:
            np.testing.assert_array_equal(got.grads[name], want.grads[name])


class _AbsSupports:
    """|S^(d)(x)|, the support table in absolute values."""

    def __init__(self, supports):
        self.supports = supports

    def table(self, x, d):
        return np.abs(self.supports.table(x, d))


class _AbsKappa:
    """|kappa|, the kappa values in absolute values."""

    def __init__(self, kappa):
        self.kappa = kappa

    def eval(self, ctx, pts, orders, extras):
        k = self.kappa.eval(ctx, pts, orders, extras)
        return C.AffineEval(k.rows, np.abs(k.offset), {})


def _absolute_solution(bld, pts, coef):
    """The recursive CE's expression for u's values in absolute values:
    each CE u = g + sum_j phi_j (kappa_j - C_j[g]) becomes |g| + sum_j
    |S| |alpha| (|kappa_j| + |C_j| [|g|]), with |g| = |T| |coef| at the
    leaves.  Negated operator coefficients turn the recursion's
    subtraction into the addition of |C_j|[|g|]."""
    feature = bld.features["u"]
    ces = []
    for ce in bld.ces["u"]:
        cons = tuple(C.Constraint(
            C.ConstraintOperator([dataclasses.replace(s, coeff=-abs(s.coeff))
                                  for s in c.operator.specs]),
            _AbsKappa(c.kappa)) for c in ce.constraints)
        ces.append(dataclasses.replace(
            ce, constraints=cons, supports=_AbsSupports(ce.supports),
            alpha=np.abs(ce.alpha)))
    leaves = C.CallableField(
        lambda p, orders: np.abs(feature.eval(p, orders)) @ np.abs(coef),
        bld.var_names, bld.problem.params)
    zero = (0,) * len(bld.var_names)
    return M.compose_recursive(ces, leaves).eval(pts, zero, {}).offset


@given(_separable_problems(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_projected_values_equal_recursive_values(drawn, seed):
    # The projected path contracts coef with the projected 1-D tables and
    # adds the offsets' CE; the recursive path runs the CE around the
    # contraction of coef with the plain tables.  Both evaluate one
    # multilinear expression in coef and the kappas, in different orders.
    # Per dimension each path stays within 139 eps of the expression in
    # absolute values, as in ``test_projected_rows_equal_recursive_rows``;
    # the contraction adds at most sum_k (m_k + 1) additions and d
    # products, and the offsets one addition.  So |projected - recursive|
    # <= 2 * (139 d + sum_k (m_k + 1) + d + 1) * (eps |U| + tiny (1 +
    # sum |coef|)), U from ``_absolute_solution``; ``tiny`` covers products
    # that underflow.
    problem, pts = drawn
    try:
        bld = D.ProblemBuild(problem)
    except C.SingularSupportError:
        assume(False)
    assert "u" in bld.projections
    feature = bld.features["u"]
    coef = np.random.default_rng(seed).uniform(-2.0, 2.0, feature.count)
    d = len(bld.var_names)
    gamma = 2 * (139 * d + sum(f.degree + 1 for f in feature.families) + d + 1)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    got = bld.evaluate_solution("u", pts, coef, {})
    solved = C.CallableField(
        lambda p, orders: feature.values(p, orders, coef),
        bld.var_names, problem.params)
    want = bld.compose("u", solved).eval(pts, (0,) * d, {}).offset
    assert got.shape == want.shape == (pts.shape[0],)
    bound = gamma * (eps * _absolute_solution(bld, pts, coef)
                     + tiny * (1 + np.abs(coef).sum()))
    assert np.all(np.abs(got - want) <= bound)


def _foreign_integral_problem():
    """simple-pde whose x = 1 condition holds on average over y."""
    base = P.simple_pde(8, 6)
    (dep,) = base.dependent
    cons = list(dep.constraints)
    cons[1] = D.ConstraintSpec(
        "x", ({"order": 0, "at": 1.0, "integral_over": ["y", 0.0, 1.0]},),
        1.0)
    return dataclasses.replace(
        base, dependent=(dataclasses.replace(dep, constraints=tuple(cons)),))


def _component_kappa_problem():
    """Two variables on simple-pde's grid: v(x, 0) = 1 - u(x, 0/2) through
    a component kappa that references u's constrained expression."""
    base = P.simple_pde(8, 6)
    (dep,) = base.dependent

    def make(ref):
        v_cons = (D.ConstraintSpec("x", ({"order": 0, "at": 0.0},), 0.0),
                  D.ConstraintSpec("y", ({"order": 0, "at": 0.0},), ref))
        return dataclasses.replace(
            base, residuals=base.residuals + ("v_xx + v_yy",),
            dependent=(dep, D.DependentVar("v", v_cons, dep.basis)))

    # the referenced field must share the build's layout, which the
    # constraint values do not change
    u = D.ProblemBuild(make(0.0)).fields["u"]
    return make(C.ComponentKappa(1.0, ((1.0, u, {1: (0, 0.5)}),)))


@pytest.mark.parametrize("make,recursive", [
    (lambda: P.simple_pde_xtfc(8, neurons=30, seed=1), "u"),
    (_foreign_integral_problem, "u"),
    (_component_kappa_problem, "v"),
])
def test_recursive_rows_where_no_projection_applies(make, recursive):
    # ELM features, foreign integrals and component kappas keep the
    # recursive CE: their rows are exactly those of ``fields``
    bld = D.ProblemBuild(make())
    assert recursive not in bld.projections
    pts = bld.grid()
    evals = bld.partial_evals(pts, {})
    for tag, (base, orders) in bld._tags.items():
        if base != recursive:
            continue
        want = bld.fields[base].eval(pts, orders, {})
        np.testing.assert_array_equal(evals[tag].rows, want.rows)
        np.testing.assert_array_equal(evals[tag].offset, want.offset)


def test_nonlinear_jacobian_matches_finite_differences():
    # randomly probed exact Jacobian of a genuinely nonlinear residual
    prob = dataclasses.replace(first_order_ode("y_x + y^2 - exp(x)", m=6),
                               method="svd-pinv")
    bld = D.ProblemBuild(prob)
    res, jac = D.assemble_nonlinear(bld)
    rng = np.random.default_rng(0)
    q = rng.uniform(-0.5, 0.5, bld.layout.width)
    J = jac(q)
    h = 1e-6
    for j in range(q.size):
        qp = q.copy(); qp[j] += h
        qm = q.copy(); qm[j] -= h
        fd = (res(qp) - res(qm)) / (2 * h)
        scale = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(J[:, j] - fd) / scale) < 1e-5


def test_extras_jacobian_via_kappa_gradient():
    # kappa depends on a clamped extra; the jacobian column must chain
    # through the symbolic kappa gradient and the clamp gate
    prob = D.DeProblem(
        name="extra-kappa",
        independent=(D.IndependentVar("x", (0.0, 1.0), 6),),
        dependent=(D.DependentVar("y", (
            D.ConstraintSpec("x", ({"order": 0, "at": 0.0},), "sin(c)"),
        ), D.BasisSpec("legendre", 4)),),
        residuals=("y_x - y - c^2",),
        extras=(D.ExtraUnknown("c", 0.4, 0.0, 1.0),),
        method="svd-pinv",
    )
    bld = D.ProblemBuild(prob)
    res, jac = D.assemble_nonlinear(bld)
    rng = np.random.default_rng(1)
    q = np.concatenate([rng.uniform(-0.3, 0.3, bld.layout.width), [0.4]])
    J = jac(q)
    h = 1e-7
    qp = q.copy(); qp[-1] += h
    qm = q.copy(); qm[-1] -= h
    fd = (res(qp) - res(qm)) / (2 * h)
    np.testing.assert_allclose(J[:, -1], fd, atol=1e-6)
    # clamped outside the band: the gate zeroes the column
    q[-1] = 1.7
    assert np.all(jac(q)[:, -1] == 0.0)


# ---------------------------------------------------------------------------
# inequality clamping

def test_clamp_scalar_cases():
    assert D.clamp_scalar(-10.0, 0.0, 1.0) == (0.0, 0.0)
    assert D.clamp_scalar(0.5, 0.0, 1.0) == (0.5, 1.0)
    assert D.clamp_scalar(10.0, 0.0, 1.0) == (1.0, 0.0)
    with pytest.raises(ValueError):
        D.clamp_scalar(0.5, 1.0, 0.0)


class _Const:
    def __init__(self, v):
        self.v = v

    def eval(self, pts, orders):
        pts = np.atleast_2d(pts)
        if any(orders):
            return np.zeros(pts.shape[0])
        return np.full(pts.shape[0], self.v)


def test_clamp_below_lower_bound():
    clamped = D.InequalityClamp(_Const(-10.0), 0.0, 1.0)
    pts = np.linspace(0, 1, 5)[:, None]
    np.testing.assert_array_equal(clamped.eval(pts, (0,)), 0.0)
    np.testing.assert_array_equal(clamped.eval(pts, (1,)), 0.0)


def test_clamp_identity_within_bounds():
    clamped = D.InequalityClamp(_Const(0.25), 0.0, 1.0)
    pts = np.linspace(0, 1, 5)[:, None]
    np.testing.assert_array_equal(clamped.eval(pts, (0,)), 0.25)


def test_clamp_inconsistent_bounds():
    clamped = D.InequalityClamp(_Const(0.0), "1 + x", "x")
    with pytest.raises(ValueError, match="inconsistent"):
        clamped.eval(np.array([[0.5]]), (0,))


def test_clamp_composed_with_point_constraint_ce():
    # CE forces y(0.5) = 0.3, inside the band, so the clamp keeps it
    prob = first_order_ode(m=5, value=0.0)
    prob = dataclasses.replace(prob, dependent=(
        D.DependentVar("y", (
            D.ConstraintSpec("x", ({"order": 0, "at": 0.5},), 0.3),
        ), D.BasisSpec("legendre", 5)),))
    bld = D.ProblemBuild(prob)
    rng = np.random.default_rng(2)
    xi = rng.uniform(-3, 3, bld.layout.width)
    inner = types.SimpleNamespace(
        eval=lambda pts, orders: bld.fields["y"].eval(pts, orders).value(xi))
    clamped = D.InequalityClamp(inner, -0.5, 0.8)
    val = clamped.eval(np.array([[0.5]]), (0,))[0]
    assert val == pytest.approx(0.3, abs=1e-12)
    # and the output never leaves the band anywhere
    pts = np.linspace(0, 1, 101)[:, None]
    out = clamped.eval(pts, (0,))
    assert out.min() >= -0.5 - 1e-14 and out.max() <= 0.8 + 1e-14


def test_clamp_never_violates_random_bounds():
    rng = np.random.default_rng(3)
    pts = np.linspace(0, 1, 53)[:, None]
    for _ in range(25):
        lo = float(rng.uniform(-1, 0))
        hi = lo + float(rng.uniform(0.1, 2))
        level = float(rng.uniform(-3, 3))
        clamped = D.InequalityClamp(_Const(level), lo, hi)
        out = clamped.eval(pts, (0,))
        assert np.all(out >= lo - 1e-14) and np.all(out <= hi + 1e-14)


def test_clamp_derivative_follows_active_bound():
    clamped = D.InequalityClamp(_Const(5.0), "0", "sin(x) + 2")
    pts = np.array([[0.3], [0.9]])
    np.testing.assert_allclose(clamped.eval(pts, (0,)),
                               np.sin(pts[:, 0]) + 2, atol=1e-14)
    np.testing.assert_allclose(clamped.eval(pts, (1,)),
                               np.cos(pts[:, 0]), atol=1e-14)


# ---------------------------------------------------------------------------
# solve dispatch / reports

def test_solve_report_fields():
    rep = D.solve(P.simple_pde(6, 5))
    assert rep.problem == "simple-pde"
    assert rep.columns == 17
    assert rep.training_points == 36
    assert rep.reason == "linear"
    assert rep.converged
    assert rep.max_error is not None and rep.mean_error <= rep.max_error
    assert rep.wall_seconds > 0


_HASH_PROBE = """
from funcon import desolve, problems
rep = desolve.solve(problems.biharmonic_polar(12, 12))
print(rep.xi["u"].tobytes().hex(), repr(rep.max_residual))
"""


def test_results_independent_of_hash_seed():
    # partial tags are summed in a fixed order, so string hashing (which
    # orders sets) cannot move the last bits of a solution
    src = os.path.dirname(os.path.dirname(funcon.__file__))
    outputs = set()
    for hash_seed in ("0", "1", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _HASH_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("residual", ["y_x + y - 1", "y*y_x + y - 1"])
def test_non_finite_result_is_not_converged(residual):
    rep = D.solve(first_order_ode(residual, m=4, value=math.inf))
    assert rep.reason == "non-finite"
    assert not rep.converged


def test_warm_start_from_solution_stops_at_once():
    prob = D.DeProblem(
        name="riccati",
        independent=(D.IndependentVar("x", (0.0, 1.0), 40),),
        dependent=(D.DependentVar("y", (
            D.ConstraintSpec("x", ({"order": 0, "at": 0.0},), 0.5),
        ), D.BasisSpec("legendre", 30)),),
        residuals=("y_x - y^2",),
        analytic={"y": "1/(2 - x)"},
        test_points=(50,),
        method="scaled-qr",
    )
    cold = D.solve(prob)
    assert cold.converged and cold.iterations > 1
    warm = D.solve(prob, x0=cold.xi["y"])
    assert warm.converged and warm.iterations <= 1
    np.testing.assert_allclose(warm.xi["y"], cold.xi["y"], rtol=0, atol=1e-13)


def test_warm_start_of_wrong_length_names_the_expected_one():
    prob = first_order_ode("y*y_x - 1", m=4)
    with pytest.raises(ValueError, match="expected 4 entries"):
        D.solve(prob, x0=np.zeros(3))


def test_balloon_wall_time_covers_every_stage(monkeypatch):
    stages = []
    builds = []

    def recording(*args, **kwargs):
        t0 = time.perf_counter()
        result = nlls(*args, **kwargs)
        stages.append(time.perf_counter() - t0)
        return result

    build_init = D.ProblemBuild.__init__

    def counting(self, problem):
        builds.append(problem.name)
        build_init(self, problem)

    monkeypatch.setattr(P, "nlls", recording)
    monkeypatch.setattr(D, "nlls", recording)
    monkeypatch.setattr(D.ProblemBuild, "__init__", counting)
    rep, _ = P.solve_balloon(52)
    assert len(stages) == 2  # frozen shape, then beta and ell released
    assert rep.wall_seconds >= sum(stages)
    assert builds == ["balloon-52km"]  # both stages share one build


def test_cold_balloon_assembles_once_and_matches_a_fresh_assembly(monkeypatch):
    # the released stage reuses the frozen stage's closures; a fresh
    # assembly of the same build from the same start gives the same bits
    starts = []
    partial_evals = []

    def recording(residual, jacobian, xi0, config=None):
        starts.append(np.array(xi0, dtype=float))
        return nlls(residual, jacobian, xi0, config)

    evals = D.ProblemBuild.partial_evals

    def counting(self, *args, **kwargs):
        partial_evals.append(self.problem.name)
        return evals(self, *args, **kwargs)

    monkeypatch.setattr(P, "nlls", recording)
    monkeypatch.setattr(D, "nlls", recording)
    monkeypatch.setattr(D.ProblemBuild, "partial_evals", counting)
    rep, _ = P.solve_balloon(52)
    assert partial_evals == ["balloon-52km"]
    fresh = D._solve(D.ProblemBuild(P.balloon(52)), None, starts[1], 0.0)
    assert (fresh.iterations, fresh.reason) == (rep.iterations, rep.reason)
    assert fresh.residual_history == rep.residual_history
    for name, xi in rep.xi.items():
        np.testing.assert_array_equal(fresh.xi[name], xi)
    assert fresh.extras == rep.extras


def test_offsets_at_the_initial_extras_are_evaluated_once(monkeypatch):
    # the rows' evaluation gives the offsets at the initial extras, so
    # ``_tag_evals`` runs only at other extras: never on the linear path
    # nor in a cold balloon's frozen stage (extras pinned at their initial
    # values), but for a warm start at other extras
    calls = []
    tag_evals = D.ProblemBuild._tag_evals

    def counting(self, *args, **kwargs):
        calls.append(self.problem.name)
        return tag_evals(self, *args, **kwargs)

    frozen = []

    def recording(*args, **kwargs):
        before = len(calls)
        result = nlls(*args, **kwargs)
        frozen.append(len(calls) - before)
        return result

    monkeypatch.setattr(D.ProblemBuild, "_tag_evals", counting)
    monkeypatch.setattr(P, "nlls", recording)
    assert D.solve(P.simple_pde()).converged
    assert calls == []
    _, state = P.solve_balloon(52)
    assert frozen == [0]
    calls.clear()
    P.solve_balloon(54, warm_start=state)
    assert calls and set(calls) == {"balloon-54km"}


def test_step_routes_balloon_qr_and_split_svd():
    # the balloon Jacobians (560 x 202) are tall and certified; the split's
    # (400 x 379) are near-square and stay on xGELSD
    rep, _ = P.solve_balloon(52)
    assert rep.step_routes == ["qr"] * rep.iterations and rep.iterations
    split = D.solve_split(*P.convection_diffusion_split(1.0))
    assert split.step_routes == ["svd"] * split.iterations
    assert split.iterations


def test_balloon_state_is_a_secant_predictor(monkeypatch):
    # the state carries the last two (altitude, solution) pairs; 53 km,
    # with one pair before it, starts from that solution, and 54 km from
    # the linear extrapolation of 52 and 53 km, extras clamped
    starts = []

    def recording(residual, jacobian, xi0, config=None):
        starts.append(np.array(xi0, dtype=float))
        return nlls(residual, jacobian, xi0, config)

    monkeypatch.setattr(D, "nlls", recording)
    _, s52 = P.solve_balloon(52)
    assert [alt for alt, _ in s52] == [52]
    _, s53 = P.solve_balloon(53, warm_start=s52)
    assert [alt for alt, _ in s53] == [52, 53]
    np.testing.assert_array_equal(s53[0][1], s52[0][1])
    np.testing.assert_array_equal(starts[-1], s52[0][1])
    rep54, s54 = P.solve_balloon(54, warm_start=s53)
    assert [alt for alt, _ in s54] == [53, 54]
    (a0, x52), (a1, x53) = s53
    secant = x53 + (54 - a1) / (a1 - a0) * (x53 - x52)
    bld = D.ProblemBuild(P.balloon(54))
    width = bld.layout.width
    np.testing.assert_array_equal(starts[-1][:width], secant[:width])
    extras, _ = bld.clamp_extras(dict(zip(("beta", "ell"), secant[width:])))
    np.testing.assert_array_equal(starts[-1][width:], list(extras.values()))
    assert rep54.reason == "residual-inf-norm"
    # an extrapolated extra past its bound starts on the bound
    far = ((53, s53[1][1]), (54, s54[1][1] + np.r_[np.zeros(width), 0, 1e3]))
    P.solve_balloon(55, warm_start=far)
    assert starts[-1][-1] == P.balloon(55).extras[1].upper
    # a bare solution vector, the state's format before the pairs, is named
    with pytest.raises(ValueError, match=r"\(altitude, solution\) pairs"):
        P.solve_balloon(55, warm_start=s54[1][1])


def test_embedded_constraints_hold_regardless_of_convergence():
    # even arbitrary coefficients satisfy the boundary data at machine precision
    bld = D.ProblemBuild(P.simple_pde(6, 5))
    rng = np.random.default_rng(4)
    ys = rng.uniform(0, 1, 200)
    pts = np.column_stack([np.zeros(200), ys])
    vals = bld.evaluate_solution("u", pts, rng.standard_normal(17), {})
    np.testing.assert_allclose(vals, ys ** 3, atol=1e-12)


def test_error_monotonicity_trend_simple_pde():
    errs = [D.solve(P.simple_pde(30, m)).max_error for m in (5, 10, 15)]
    assert errs[1] <= errs[0] * 10
    assert errs[2] <= errs[1] * 10
    assert errs[2] < errs[0]


def test_spectral_mode_appends_constraint_rows():
    prob = P.simple_pde(8, 6, mode="spectral")
    bld = D.ProblemBuild(prob)
    A, b = D.assemble_linear(bld)
    # 64 residual rows + 4 constraints x 8 boundary points
    assert A.shape[0] == 64 + 32
    assert bld.features["u"].count == 28  # full total-degree basis, no removal


def test_solve_split_c1_continuity_structural():
    prob, split = P.convection_diffusion_split(1.0, n=40, m=24)
    rep = D.solve_split(prob, split)
    xp = rep.extras["xp"]
    assert 0 < xp < 1
    assert rep.max_error < 1e-10  # Pe = 1 is easy on both halves


def test_split_pe1e6_stops_stalled_within_criterion_8():
    # past its best residual (iteration 3) Gauss-Newton wanders at the
    # rounding floor; the stall stop ends it there, not converged, and the
    # errors stay inside criterion 8's bounds
    rep = D.solve_split(*P.convection_diffusion_split(1e6))
    assert rep.reason == "stalled" and not rep.converged
    assert rep.iterations < 50
    assert len(rep.residual_history) == rep.iterations + 1
    assert rep.max_error <= 1e-9 and rep.mean_error <= 1e-11


_SPLIT_PROBE = """
from funcon import desolve, problems
rep = desolve.solve_split(*problems.convection_diffusion_split(1e6))
print(rep.reason, rep.iterations)
"""


def test_split_pe1e6_stop_independent_of_blas_threads():
    src = os.path.dirname(os.path.dirname(funcon.__file__))
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _SPLIT_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1
    assert outputs.pop().split()[0] == "stalled"


def test_split_continuity_for_any_coefficients():
    prob, split = P.convection_diffusion_split(1.0, n=20, m=12)
    bld = D.ProblemBuild(D._split_problem(prob, split))
    rng = np.random.default_rng(5)
    xi = rng.standard_normal(bld.layout.width)
    extras = {"xp": 0.37, "yp": -0.8, "dyp": 2.2}
    left_end = bld.evaluate_solution("y1", np.array([[1.0]]), xi, extras)[0]
    right_start = bld.evaluate_solution("y2", np.array([[-1.0]]), xi, extras)[0]
    assert left_end == pytest.approx(extras["yp"], abs=1e-12)
    assert right_start == pytest.approx(extras["yp"], abs=1e-12)
    # slopes in problem coordinates: dy/dx = c_k * dy/dz
    c1 = 2.0 / extras["xp"]
    c2 = 2.0 / (1 - extras["xp"])
    dzl = bld.fields["y1"].eval(np.array([[1.0]]), (1,), extras).value(xi)[0]
    dzr = bld.fields["y2"].eval(np.array([[-1.0]]), (1,), extras).value(xi)[0]
    assert c1 * dzl == pytest.approx(extras["dyp"], abs=1e-11)
    assert c2 * dzr == pytest.approx(extras["dyp"], abs=1e-11)


def test_solve_split_requires_endpoint_values():
    prob = first_order_ode()
    with pytest.raises(ValueError, match="endpoint"):
        D.solve_split(prob, D.SplitSpec(0.5, 0.1, 0.9))


@pytest.mark.parametrize("activation", ["sin", "sigmoid", "swish"])
def test_elm_activations_solve_a_decay_ode(activation):
    # y' + y = 0, y(0) = 1 with a random-feature free function
    prob = D.DeProblem(
        name=f"decay-{activation}",
        independent=(D.IndependentVar("x", (0.0, 1.0), 40),),
        dependent=(D.DependentVar("y", (
            D.ConstraintSpec("x", ({"order": 0, "at": 0.0},), 1.0),
        ), D.ElmSpec(activation, 40, seed=3, init_range=(-10.0, 10.0))),),
        residuals=("y_x + y",),
        analytic={"y": "exp(-x)"},
        test_points=(200,),
        method="svd-pinv",
    )
    rep = D.solve(prob)
    assert rep.max_error < 1e-6


def test_infinite_native_domain_requires_window():
    prob = dataclasses.replace(
        first_order_ode(),
        dependent=(D.DependentVar("y", (
            D.ConstraintSpec("x", ({"order": 0, "at": 0.0},), 1.0),
        ), D.BasisSpec("laguerre", 6)),))
    with pytest.raises(ValueError, match="window"):
        D.ProblemBuild(prob)
    windowed = dataclasses.replace(
        prob,
        independent=(D.IndependentVar("x", (0.0, 1.0), 24),),
        dependent=(D.DependentVar("y", (
            D.ConstraintSpec("x", ({"order": 0, "at": 0.0},), 1.0),
        ), D.BasisSpec("laguerre", 10, window={"x": (0.0, 6.0)})),))
    rep = D.solve(dataclasses.replace(
        windowed, residuals=("y_x + y",), analytic={"y": "exp(-x)"},
        test_points=(60,)))
    assert rep.max_error < 1e-9


def test_kappa_must_not_depend_on_own_variable():
    prob = dataclasses.replace(
        first_order_ode(),
        dependent=(D.DependentVar("y", (
            D.ConstraintSpec("x", ({"order": 0, "at": 0.0},), "x + 1"),
        ), D.BasisSpec("legendre", 3)),))
    with pytest.raises(ValueError, match="must not depend"):
        D.ProblemBuild(prob)


def test_unknown_symbol_in_residual_rejected():
    with pytest.raises(ValueError, match="unknown symbol"):
        D.ProblemBuild(first_order_ode(residual="y_x + zipzap"))


def test_partial_along_unknown_dimension_rejected():
    with pytest.raises(ValueError, match="unknown"):
        D.ProblemBuild(first_order_ode(residual="y_t"))


@pytest.mark.parametrize("change,message", [
    (dict(params={"x": 1.0}),
     "'x' is declared as independent variable and as param"),
    (dict(independent=(D.IndependentVar("x", (0.0, 1.0), 8),) * 2),
     "'x' is declared as independent variable and as independent variable"),
    (dict(dependent=first_order_ode().dependent * 2),
     "'y' is declared as dependent variable and as dependent variable"),
    (dict(extras=(D.ExtraUnknown("y", 0.0),)),
     "'y' is declared as dependent variable and as extra"),
    (dict(params={"c": 1.0}, extras=(D.ExtraUnknown("c", 0.0),)),
     "'c' is declared as param and as extra"),
])
def test_problem_names_must_be_distinct(change, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(first_order_ode(), **change)


def _spacing(problem, spacing):
    first, *rest = problem.independent
    return dict(independent=(dataclasses.replace(first, spacing=spacing),
                             *rest))


def _dependent(problem, **change):
    (dep,) = problem.dependent
    return dict(dependent=(dataclasses.replace(dep, **change),))


def _extra_constraint(problem, dim):
    con = D.ConstraintSpec(dim, ({"order": 0, "at": 0.0},), 0.0)
    return _dependent(problem, constraints=(
        *problem.dependent[0].constraints, con))


@pytest.mark.parametrize("change,message", [
    (lambda p: dict(mode="Spectral"),
     "mode must be 'embedded' or 'spectral', got 'Spectral'"),
    (lambda p: _spacing(p, "CGL"),
     "independent variable 'x': spacing must be 'cgl' or 'uniform', "
     "got 'CGL'"),
    (lambda p: dict(test_points=(20,)),
     "test_points must be one integer count >= 1 per independent variable "
     "('x', 'y'), got (20,)"),
    (lambda p: dict(test_points=(0, 5)),
     "test_points must be one integer count >= 1 per independent variable "
     "('x', 'y'), got (0, 5)"),
    (lambda p: _extra_constraint(p, "q"),
     "dependent variable 'u': constraint on 'q', which is not an "
     "independent variable ('x', 'y')"),
    (lambda p: _dependent(p, supports={"q": (0, 1)}),
     "dependent variable 'u': supports on 'q', which is not an "
     "independent variable ('x', 'y')"),
    (lambda p: _dependent(p, basis=D.BasisSpec("chebyshev", 6,
                                               removal={"q": 2})),
     "dependent variable 'u': basis removal on 'q', which is not an "
     "independent variable ('x', 'y')"),
    (lambda p: _dependent(p, basis=D.BasisSpec("chebyshev", 6,
                                               window={"q": (0, 1)})),
     "dependent variable 'u': basis window on 'q', which is not an "
     "independent variable ('x', 'y')"),
], ids=["mode", "spacing", "test-points-length", "test-points-zero",
        "constraint-dim", "supports-dim", "removal-dim", "window-dim"])
def test_bad_declarations_name_the_field_and_value(change, message):
    # each used to solve silently or end in a bare IndexError, ValueError
    # or KeyError from deep inside the build
    problem = P.simple_pde(8, 6)
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(problem, **change(problem))


def test_builtin_problems_declare_distinct_names():
    balloon = P.balloon()
    problems = [
        P.simple_pde(), P.simple_pde("spectral"), P.simple_pde_xtfc(),
        P.wave1d(), P.wave2d_tfc(), P.wave2d_xtfc(),
        P.biharmonic_cartesian(), P.biharmonic_polar(),
        P.convection_diffusion(1.0),
        D._split_problem(*P.convection_diffusion_split(1e6)),
        balloon,
        # the balloon with its extras given as params
        dataclasses.replace(balloon, extras=(), params={
            **balloon.params, "beta": 1.0, "ell": 12.0}),
    ]
    for problem in problems:
        D.ProblemBuild(problem)
