import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcon import constraint_core as C
from funcon import exprfn as E
from funcon import multivar as M


def point(order, at, coeff=1.0, foreign=()):
    return C.PointDeriv(order, at, coeff, foreign)


def con(kappa, *specs):
    return C.Constraint(C.ConstraintOperator(specs), C.as_kappa(kappa))


# constraints of the multivariate non-integral example:
# u(0,y) = y^2 sin(pi y); u(1,y) + u(2,y) = y sin(pi y);
# u_y(x,0) = 0; u(x,0) = u(x,1)
def nonintegral_constraints():
    cx = [con(E.parse("y^2*sin(pi*y)"), point(0, 0.0)),
          con(E.parse("y*sin(pi*y)"), point(0, 1.0), point(0, 2.0))]
    cy = [con(0.0, point(1, 0.0)),
          con(0.0, point(0, 0.0), point(0, 1.0, -1.0))]
    return {0: cx, 1: cy}


def nonintegral_ces():
    return M.build_dimension_ces(nonintegral_constraints(),
                                 {1: C.MonomialSupports([1, 2])})


# constraints of the multivariate integral example:
# u(x,0) = 2 u_y(x,1); u(x,2) = sin(x); int_-1^1 u(2,y) dy = 5
def integral_constraints():
    cx = [con(5.0, point(0, 2.0, foreign=((1, -1.0, 1.0),)))]
    cy = [con(0.0, point(0, 0.0), point(1, 1.0, -2.0)),
          con(E.parse("sin(x)"), point(0, 2.0))]
    return {0: cx, 1: cy}


# ---------------------------------------------------------------------------
# processing order

def test_order_integral_example_x_first():
    order = M.order_dimensions(integral_constraints())
    assert order.order == (0, 1)
    assert (0, 1) in order.forced


def test_order_without_integrals_is_identity():
    order = M.order_dimensions(nonintegral_constraints())
    assert order.order == (0, 1)
    assert order.forced == ()


def test_mutually_referencing_integrals_rejected():
    # int u(x,0) dx and int u(0,y) dy refer to one another
    cons = {0: [con(1.0, point(0, 0.0, foreign=((1, 0.0, 1.0),)))],
            1: [con(1.0, point(0, 0.0, foreign=((0, 0.0, 1.0),)))]}
    with pytest.raises(M.CyclicIntegralDependencyError):
        M.order_dimensions(cons)


def _lowest_ready_order(nodes, before):
    """Reference order: repeatedly take the lowest node whose every
    required predecessor is taken (``before`` holds pairs (a, b), a before
    b); None when no node is ready."""
    order, left = [], sorted(nodes)
    while left:
        ready = [v for v in left
                 if all(a in order for a, b in before if b == v)]
        if not ready:
            return None
        order.append(ready[0])
        left.remove(ready[0])
    return order


def _foreign_integral_constraints(n, precedences):
    """Dimensions 0..n-1, each with a point constraint, plus one integral
    over dimension j inside a constraint on l per precedence (l, j)."""
    cons = {k: [con(0.0, point(0, 0.0))] for k in range(n)}
    for l, j in precedences:
        cons[l].append(con(1.0, point(0, 1.0, foreign=((j, 0.0, 1.0),))))
    return cons


@st.composite
def _precedence_sets(draw, cyclic):
    n = draw(st.integers(2, 4))
    perm = draw(st.permutations(range(n)))
    pairs = [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6))
    if cyclic:  # a cycle through the first k dimensions of perm
        k = draw(st.integers(2, n))
        edges += [(perm[i], perm[(i + 1) % k]) for i in range(k)]
        edges = draw(st.permutations(edges))
    return n, edges


@given(_precedence_sets(cyclic=False))
@settings(max_examples=100, deadline=None)
def test_order_respects_precedences_lowest_ready_first(case):
    n, edges = case
    order = M.order_dimensions(_foreign_integral_constraints(n, edges))
    assert sorted(order.forced) == sorted(edges)
    for l, j in edges:
        assert order.order.index(l) < order.order.index(j)
    assert list(order.order) == _lowest_ready_order(range(n), edges)


@given(_precedence_sets(cyclic=True))
@settings(max_examples=50, deadline=None)
def test_cyclic_precedences_raise(case):
    n, edges = case
    with pytest.raises(M.CyclicIntegralDependencyError):
        M.order_dimensions(_foreign_integral_constraints(n, edges))


# ---------------------------------------------------------------------------
# integral switching augmentation

def test_augmented_alpha_golden():
    cons = integral_constraints()
    order, ces = M.build_dimension_ces(cons)
    expect = [[0.5, 0.5], [11 / 4, 13 / 4], [-3 / 2, -3 / 2]]
    np.testing.assert_allclose(ces[1].alpha, expect, atol=1e-12)
    assert order.order == (0, 1)


def test_no_foreign_integrals_leaves_ce_unchanged():
    cons = [con(1.0, point(0, 0.0)), con(2.0, point(0, 1.0))]
    plain = C.build_univariate_ce(cons)
    aug = M.augment_integral_switching(cons, ())
    np.testing.assert_array_equal(plain.alpha, aug.alpha)


def test_augmented_switching_zero_integrals():
    # oracle: Gauss-Legendre quadrature of each switching function
    _, ces = M.build_dimension_ces(integral_constraints())
    z, w = C.gauss_legendre(-1.0, 1.0)
    phi = ces[1].switching(z)
    np.testing.assert_allclose(w @ phi, 0.0, atol=1e-12)
    assert ces[1].kronecker_defect() < 1e-12


# ---------------------------------------------------------------------------
# recursive composition

def test_nonintegral_example_boundary_function():
    _, ces = nonintegral_ces()
    g = C.ExprField(E.parse("x^2*cos(y) + sin(2*x)"), ("x", "y"))
    u = M.compose_recursive([ces[0], ces[1]], g)
    ys = np.linspace(0, 1, 50)
    pts = np.column_stack([np.zeros(50), ys])
    got = u.eval(pts, (0, 0)).offset
    np.testing.assert_allclose(got, ys ** 2 * np.sin(np.pi * ys), atol=1e-12)


def test_nonintegral_example_order_invariance():
    _, ces = nonintegral_ces()
    g = C.ExprField(E.parse("x^2*cos(y) + sin(2*x)"), ("x", "y"))
    u1 = M.compose_recursive([ces[0], ces[1]], g)
    u2 = M.compose_recursive([ces[1], ces[0]], g)
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 2, 40), rng.uniform(0, 1, 40)])
    np.testing.assert_allclose(u1.eval(pts, (0, 0)).offset,
                               u2.eval(pts, (0, 0)).offset, atol=1e-12)


def test_free_function_already_satisfying_passes_through():
    # constraints: u(0,y) = 0, u(x,0) = 0; g = x*y satisfies both
    cons = {0: [con(0.0, point(0, 0.0))], 1: [con(0.0, point(0, 0.0))]}
    _, ces = M.build_dimension_ces(cons)
    g = C.ExprField(E.parse("x*y"), ("x", "y"))
    u = M.compose_recursive([ces[0], ces[1]], g)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, (30, 2))
    np.testing.assert_allclose(u.eval(pts, (0, 0)).offset,
                               pts[:, 0] * pts[:, 1], atol=1e-13)


def test_three_dimensional_order_invariance():
    cons = {0: [con(0.0, point(0, 0.0)), con(0.0, point(0, 1.0))],
            1: [con(0.0, point(0, 0.0)), con(0.0, point(0, 1.0))],
            2: [con(E.parse("sin(pi*x)*sin(pi*y)"), point(0, 0.0)),
                con(0.0, point(1, 0.0))]}
    _, ces = M.build_dimension_ces(cons)
    g = C.ExprField(E.parse("cos(x*y) + t^2*x"), ("x", "y", "t"))
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, (25, 3))
    base = None
    for perm in permutations([ces[0], ces[1], ces[2]]):
        u = M.compose_recursive(list(perm), g)
        vals = u.eval(pts, (0, 0, 0)).offset
        if base is None:
            base = vals
        else:
            np.testing.assert_allclose(vals, base, atol=1e-12)


def test_multivariate_projection_idempotence():
    _, ces = nonintegral_ces()
    ordered = [ces[0], ces[1]]
    g = C.ExprField(E.parse("exp(x/2)*cos(3*y) + x*y^2"), ("x", "y"))
    u = M.compose_recursive(ordered, g)
    probe = C.CallableField(lambda pts, orders: u.eval(pts, orders).offset,
                            ("x", "y"))
    uu = M.compose_recursive(ordered, probe)
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(0, 2, 30), rng.uniform(0, 1, 30)])
    np.testing.assert_allclose(uu.eval(pts, (0, 0)).offset,
                               u.eval(pts, (0, 0)).offset, atol=1e-12)


def test_multivariate_constraint_satisfaction_random_free_functions():
    _, ces = nonintegral_ces()
    ordered = [ces[0], ces[1]]
    rng = np.random.default_rng(4)
    ys = np.linspace(0, 1, 13)
    xs = np.linspace(0, 2, 13)
    for _ in range(20):
        cx = rng.uniform(-1, 1, 3)
        trig = rng.uniform(0.5, 2.0)
        g = C.CallableField(_poly_trig_probe(cx, trig), ("x", "y"))
        u = M.compose_recursive(ordered, g)
        p = np.column_stack([np.zeros_like(ys), ys])
        np.testing.assert_allclose(u.eval(p, (0, 0)).offset,
                                   ys ** 2 * np.sin(np.pi * ys), atol=1e-10)
        p1 = np.column_stack([np.ones_like(ys), ys])
        p2 = np.column_stack([2 * np.ones_like(ys), ys])
        np.testing.assert_allclose(
            u.eval(p1, (0, 0)).offset + u.eval(p2, (0, 0)).offset,
            ys * np.sin(np.pi * ys), atol=1e-10)
        p0 = np.column_stack([xs, np.zeros_like(xs)])
        np.testing.assert_allclose(u.eval(p0, (0, 1)).offset, 0.0, atol=1e-10)
        pa = np.column_stack([xs, np.zeros_like(xs)])
        pb = np.column_stack([xs, np.ones_like(xs)])
        np.testing.assert_allclose(u.eval(pa, (0, 0)).offset,
                                   u.eval(pb, (0, 0)).offset, atol=1e-10)


def _poly_trig_probe(cx, freq):
    # polynomial-times-trig probe with exact symbolic derivatives
    c0, c1, c2, f = (float(v) for v in (*cx, freq))
    expr = E.parse(f"({c0!r} + {c1!r}*x + {c2!r}*x^2*y)"
                   f"*cos({f!r}*y) + sin({f!r}*x)*y^2")
    field = C.ExprField(expr, ("x", "y"))
    return lambda pts, orders: field.eval(pts, orders).offset


# ---------------------------------------------------------------------------
# tensor form

def test_tensor_entry_m22_is_gy00():
    _, ces = nonintegral_ces()
    tf = M.build_tensor_form([ces[0], ces[1]])
    g = C.ExprField(E.parse("x^2*cos(y) + sin(2*x) + x*y"), ("x", "y"))
    entry = tf.m_entry(g, {0: 0, 1: 0})
    pts = np.array([[0.37, 0.91]])  # entry is constant in x and y
    got = entry.eval(pts, (0, 0)).offset[0]
    gy = E.differentiate(E.parse("x^2*cos(y) + sin(2*x) + x*y"), "y")
    expect = E.evaluate(gy, {"x": 0.0, "y": 0.0})
    assert got == pytest.approx(expect, abs=1e-13)


def test_tensor_equals_recursive_nonintegral():
    _, ces = nonintegral_ces()
    ordered = [ces[0], ces[1]]
    tf = M.build_tensor_form(ordered)
    g = C.ExprField(E.parse("x^2*cos(y) + sin(2*x)"), ("x", "y"))
    u = M.compose_recursive(ordered, g)
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(0, 2, 100), rng.uniform(0, 1, 100)])
    np.testing.assert_allclose(tf.eval(g, pts).offset,
                               u.eval(pts, (0, 0)).offset, atol=1e-12)


def test_tensor_equals_recursive_integral_example():
    order, ces = M.build_dimension_ces(integral_constraints())
    ordered = [ces[k] for k in order.order]
    tf = M.build_tensor_form(ordered)
    g = C.ExprField(E.parse("x*y + cos(x)*y^2 + sin(y)*x^2"), ("x", "y"))
    u = M.compose_recursive(ordered, g)
    rng = np.random.default_rng(6)
    pts = np.column_stack([rng.uniform(0, 2, 100), rng.uniform(-1, 2, 100)])
    np.testing.assert_allclose(tf.eval(g, pts).offset,
                               u.eval(pts, (0, 0)).offset, atol=1e-12)


def test_tensor_entries_zero_for_zero_constraints():
    cons = {0: [con(0.0, point(0, 0.0))], 1: [con(0.0, point(0, 0.0))]}
    _, ces = M.build_dimension_ces(cons)
    tf = M.build_tensor_form([ces[0], ces[1]])
    g = C.ExprField(E.parse("0"), ("x", "y"))
    pts = np.array([[0.3, 0.8], [0.1, 0.2]])
    for active in ({0: 0}, {1: 0}, {0: 0, 1: 0}):
        vals = tf.m_entry(g, active).eval(pts, (0, 0)).offset
        np.testing.assert_allclose(vals, 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# free-function null space

def test_null_space_products_of_supports():
    _, ces = nonintegral_ces()
    ordered = [ces[0], ces[1]]
    # supports: x-dim {1, x}; y-dim {y, y^2}: add s_i(x) * s_j(y) products
    g0 = C.ExprField(E.parse("sin(x + y) + x^2*y^3"), ("x", "y"))
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(0, 2, 30), rng.uniform(0, 1, 30)])
    base = M.compose_recursive(ordered, g0).eval(pts, (0, 0)).offset
    for prod in ["y", "y^2", "x*y", "x*y^2"]:
        g = C.ExprField(E.parse(f"sin(x + y) + x^2*y^3 + 2.7*{prod}"),
                        ("x", "y"))
        vals = M.compose_recursive(ordered, g).eval(pts, (0, 0)).offset
        np.testing.assert_allclose(vals, base, atol=1e-12)


def test_integral_augmentation_null_matrix_golden():
    # delta - (alpha S)^T for the augmented y-dimension CE; B = (alpha S)^T
    _, ces = M.build_dimension_ces(integral_constraints())
    N = M.free_function_null_matrix(ces[1])
    B = np.eye(3) - N
    np.testing.assert_allclose(B, [[1, 6, -3], [0, 1, 0], [0, 2, 0]],
                               atol=1e-12)
    # row 2 (support y) vanishes; rows 1 and 3 (supports 1, y^2) are parallel
    np.testing.assert_allclose(N[1], 0.0, atol=1e-12)
    np.testing.assert_allclose(N[0] * (-0.5), N[2] * (-1.5), atol=1e-12)


def test_integral_augmentation_null_space_behaviour():
    order, ces = M.build_dimension_ces(integral_constraints())
    ordered = [ces[k] for k in order.order]
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.uniform(0, 2, 40), rng.uniform(-1, 2, 40)])
    base_expr = "x*y^3 + sin(x)"
    base = M.compose_recursive(
        ordered, C.ExprField(E.parse(base_expr), ("x", "y"))
    ).eval(pts, (0, 0)).offset
    # terms proportional to y drop out
    with_y = M.compose_recursive(
        ordered, C.ExprField(E.parse(base_expr + " + 1.3*y"), ("x", "y"))
    ).eval(pts, (0, 0)).offset
    np.testing.assert_allclose(with_y, base, atol=1e-12)
    # effects of 1 and y^2 are proportional: adding c*(y^2 - 3) changes nothing
    # (rows of delta - (alpha S)^T for supports 1 and y^2 are dependent:
    #  effect(1) = 3 * effect(y^2), so y^2 - 3 is in the null space)
    combo = M.compose_recursive(
        ordered, C.ExprField(E.parse(base_expr + " + 0.9*(y^2 - 3)"), ("x", "y"))
    ).eval(pts, (0, 0)).offset
    np.testing.assert_allclose(combo, base, atol=1e-12)


# ---------------------------------------------------------------------------
# component graphs

def test_component_graphs_example_yields_six():
    # u(0)+v(0)+w(0) = 5; u_x(1)+v(2) = pi; u_x(3)+v_x(4) = e; v(1)+w(2) = 1
    constraints = [("u", "v", "w"), ("u", "v"), ("u", "v"), ("v", "w")]
    graphs = M.enumerate_component_graphs(constraints, ("u", "v", "w"))
    assert len(graphs) == 6
    for g in graphs:
        A = g.adjacency_matrix()
        P = A.copy()
        for _ in range(2):
            P = P @ A
        assert not P.any()  # nilpotent (3 nodes)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_build_order_puts_edge_targets_first(data):
    variables = ("u", "v", "w", "z")[:data.draw(st.integers(2, 4))]
    constraints = data.draw(st.lists(
        st.lists(st.sampled_from(variables), min_size=2, max_size=3,
                 unique=True).map(tuple), min_size=1, max_size=3))
    for g in M.enumerate_component_graphs(constraints, variables):
        A = g.adjacency_matrix()
        assert sorted(g.build_order) == sorted(variables)
        pos = {v: i for i, v in enumerate(g.build_order)}
        for i, j in zip(*np.nonzero(A)):
            assert pos[variables[j]] < pos[variables[i]]
        # leaves first, the lowest-index ready variable at each step
        before = [(j, i) for i, j in zip(*np.nonzero(A))]
        assert g.build_order == tuple(
            variables[k] for k in _lowest_ready_order(range(len(variables)),
                                                       before))


def test_single_component_constraint_two_graphs():
    graphs = M.enumerate_component_graphs([("u", "v")], ("u", "v"))
    assert len(graphs) == 2
    assert {g.assignment[0] for g in graphs} == {"u", "v"}


def test_cyclic_adjacency_rejected():
    # oracle: brute-force matrix powers of [[0,1],[1,0]] never vanish
    A = np.array([[0, 1], [1, 0]])
    P = A.copy()
    vanished = False
    for _ in range(4):
        P = P @ A
        if not P.any():
            vanished = True
    assert not vanished
    # mutual assignment (c1 on u, c2 on v) is filtered out
    graphs = M.enumerate_component_graphs([("u", "v"), ("u", "v")], ("u", "v"))
    assignments = {g.assignment for g in graphs}
    assert ("u", "v") not in assignments
    assert ("v", "u") not in assignments
    assert assignments == {("u", "u"), ("v", "v")}


def test_build_order_leaves_first():
    graphs = M.enumerate_component_graphs([("u", "v")], ("u", "v"))
    for g in graphs:
        placed = g.assignment[0]
        other = "v" if placed == "u" else "u"
        assert g.build_order == (other, placed)


# ---------------------------------------------------------------------------
# intersection rule

def _component_example(extra_v_constraint):
    # u(x,0) = 5 and u(0,y) + v(0,y) = 3 (dims: 0 = x, 1 = y)
    regular = {"u": [M.ConstraintLocus("u", 1, (0.0,))]}
    if extra_v_constraint:
        regular["v"] = [M.ConstraintLocus("v", 1, (0.0,))]
    comp = [M.ComponentInfo((("u", 0, 0.0), ("v", 0, 0.0)))]
    return regular, comp


def test_intersection_rule_selects_v_only():
    regular, comp = _component_example(extra_v_constraint=False)
    graphs = M.enumerate_component_graphs([("u", "v")], ("u", "v"))
    accepted = []
    for g in graphs:
        ok, diag = M.check_intersection_validity(g, regular, comp)
        if ok:
            accepted.append(g.assignment[0])
        else:
            assert diag  # diagnostics name the conflict
    assert accepted == ["v"]


def test_intersection_rule_consistent_case_accepts_both():
    regular, comp = _component_example(extra_v_constraint=True)
    graphs = M.enumerate_component_graphs([("u", "v")], ("u", "v"))
    accepted = {g.assignment[0]
                for g in graphs
                if M.check_intersection_validity(g, regular, comp)[0]}
    assert accepted == {"u", "v"}


def test_intersection_rule_no_intersections():
    regular = {"u": [M.ConstraintLocus("u", 0, (1.0,))]}  # same dim: no cross
    comp = [M.ComponentInfo((("u", 0, 0.0), ("v", 0, 0.0)))]
    for g in M.enumerate_component_graphs([("u", "v")], ("u", "v")):
        ok, _ = M.check_intersection_validity(g, regular, comp)
        assert ok


def test_integral_example_constraints_for_random_free_functions():
    order, ces = M.build_dimension_ces(integral_constraints())
    ordered = [ces[k] for k in order.order]
    rng = np.random.default_rng(9)
    xs = np.linspace(0, 2, 11)
    zq, wq = C.gauss_legendre(-1.0, 1.0)
    for _ in range(20):
        c0, c1, f = (float(v) for v in
                     (*rng.uniform(-1, 1, 2), rng.uniform(0.5, 2)))
        g = C.ExprField(E.parse(f"({c0!r}*x + {c1!r}*x^2*y^2)*cos({f!r}*y)"),
                        ("x", "y"))
        u = M.compose_recursive(ordered, g)
        lhs = u.eval(np.column_stack([xs, 0 * xs]), (0, 0)).offset \
            - 2 * u.eval(np.column_stack([xs, np.ones_like(xs)]), (0, 1)).offset
        np.testing.assert_allclose(lhs, 0.0, atol=1e-10)
        top = u.eval(np.column_stack([xs, 2 + 0 * xs]), (0, 0)).offset
        np.testing.assert_allclose(top, np.sin(xs), atol=1e-10)
        ring = u.eval(np.column_stack([2 * np.ones_like(zq), zq]),
                      (0, 0)).offset
        assert wq @ ring == pytest.approx(5.0, abs=1e-10)


def test_linear_constraints_example_with_component_and_integral():
    # u(0,y) = cos(pi y); int_-1^2 u(1,y) dy = e; u(x,1) - u(x,2) = -2;
    # u(x,0) + v(x,0) = 5; v(0,y) = 5 - cos(pi y).
    # The component constraint goes on v (u has the integral at x=1 and v has
    # nothing there), so u is built first and v's kappa references u's CE.
    cons_u = {
        0: [con(E.parse("cos(pi*y)"), point(0, 0.0)),
            con(math.e, point(0, 1.0, foreign=((1, -1.0, 2.0),)))],
        1: [con(-2.0, point(0, 1.0), point(0, 2.0, -1.0))],
    }
    order_u, ces_u = M.build_dimension_ces(cons_u)
    assert order_u.order == (0, 1)
    gu = C.ExprField(E.parse("x*y + sin(x) + y^2"), ("x", "y"))
    u = M.compose_recursive([ces_u[k] for k in order_u.order], gu)

    cons_v = {
        0: [con(E.parse("5 - cos(pi*y)"), point(0, 0.0))],
        1: [C.Constraint(C.ConstraintOperator([point(0, 0.0)]),
                         C.ComponentKappa(5.0, ((1.0, u, {1: (0, 0.0)}),)))],
    }
    order_v, ces_v = M.build_dimension_ces(cons_v)
    gv = C.ExprField(E.parse("x^2*y*cos(y)*exp(x)"), ("x", "y"))
    v = M.compose_recursive([ces_v[k] for k in order_v.order], gv)

    ys = np.linspace(-1, 2, 9)
    xs = np.linspace(0, 1, 9)
    # u constraints
    np.testing.assert_allclose(
        u.eval(np.column_stack([0 * ys, ys]), (0, 0)).offset,
        np.cos(np.pi * ys), atol=1e-10)
    zq, wq = C.gauss_legendre(-1.0, 2.0)
    ring = u.eval(np.column_stack([np.ones_like(zq), zq]), (0, 0)).offset
    assert wq @ ring == pytest.approx(math.e, abs=1e-10)
    np.testing.assert_allclose(
        u.eval(np.column_stack([xs, np.ones_like(xs)]), (0, 0)).offset
        - u.eval(np.column_stack([xs, 2 * np.ones_like(xs)]), (0, 0)).offset,
        -2.0, atol=1e-10)
    # v constraints, including the component coupling
    np.testing.assert_allclose(
        v.eval(np.column_stack([0 * ys, ys]), (0, 0)).offset,
        5 - np.cos(np.pi * ys), atol=1e-10)
    su = u.eval(np.column_stack([xs, 0 * xs]), (0, 0)).offset
    sv = v.eval(np.column_stack([xs, 0 * xs]), (0, 0)).offset
    np.testing.assert_allclose(su + sv, 5.0, atol=1e-10)


# ---------------------------------------------------------------------------
# component kappa composition across dependent variables

def test_component_constraint_univariate_pair():
    # u(0) + v(0) = 5 and u_x(2) + v(3) = 4, both embedded into u
    gv = C.ExprField(E.parse("x^2"), ("x",))
    # v has no constraints: v = g_v
    cons_u = [
        C.Constraint(C.ConstraintOperator([point(0, 0.0)]),
                     C.ComponentKappa(5.0, ((1.0, gv, {0: (0, 0.0)}),))),
        C.Constraint(C.ConstraintOperator([point(1, 2.0)]),
                     C.ComponentKappa(4.0, ((1.0, gv, {0: (0, 3.0)}),))),
    ]
    ce = C.build_univariate_ce(cons_u, C.MonomialSupports([0, 1]))
    gu = C.ExprField(E.parse("sin(x)"), ("x",))
    u = M.compose_recursive([ce], gu)
    x = np.array([[0.0]])
    u0 = u.eval(x, (0,)).offset[0]
    v0 = 0.0  # g_v(0) = 0
    assert u0 + v0 == pytest.approx(5.0, abs=1e-13)
    ux2 = u.eval(np.array([[2.0]]), (1,)).offset[0]
    v3 = 9.0  # g_v(3) = 9
    assert ux2 + v3 == pytest.approx(4.0, abs=1e-13)
