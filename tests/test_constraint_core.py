import math

import numpy as np
import pytest

from funcon import constraint_core as C


def op_point(*terms):
    """terms: (order, location[, coeff])"""
    return C.ConstraintOperator([C.PointDeriv(o, a, *rest)
                                 for (o, a, *rest) in terms])


class PolyProbe:
    """Exact polynomial evaluable with derivatives and integrals."""

    def __init__(self, coeffs):
        self.p = np.polynomial.Polynomial(coeffs)

    def deriv(self, x, d):
        return float(self.p.deriv(d)(x)) if d else float(self.p(x))

    def integral(self, a, b):
        q = self.p.integ()
        return float(q(b) - q(a))


# ---------------------------------------------------------------------------
# constraint operators

def test_apply_operator_worked_example():
    # operator of "3 = 2 y(2) + pi y_xx(0)" applied to f(x) = x^2
    op = C.ConstraintOperator([C.PointDeriv(0, 2.0, 2.0),
                               C.PointDeriv(2, 0.0, math.pi)])
    f = PolyProbe([0, 0, 1])
    assert C.apply_operator(op, f) == pytest.approx(8 + 2 * math.pi, abs=1e-14)


def test_apply_operator_integral_of_one():
    op = C.ConstraintOperator([C.DefiniteIntegral(-2.0, 3.0)])
    assert C.apply_operator(op, PolyProbe([1])) == pytest.approx(5.0, abs=1e-14)


def test_apply_operator_quadrature_fallback():
    op = C.ConstraintOperator([C.DefiniteIntegral(0.0, math.pi)])

    class SinProbe:
        def deriv(self, x, d):
            assert d == 0
            return math.sin(x)

    assert C.apply_operator(op, SinProbe()) == pytest.approx(2.0, abs=1e-13)


def test_operator_linearity_probe():
    rng = np.random.default_rng(0)
    op = C.ConstraintOperator([C.PointDeriv(0, 1.5, 2.0),
                               C.PointDeriv(1, -0.5, -3.0),
                               C.DefiniteIntegral(0.0, 2.0, 0.7)])
    for _ in range(10):
        f = PolyProbe(rng.uniform(-1, 1, 4))
        g = PolyProbe(rng.uniform(-1, 1, 4))
        fg = PolyProbe(f.p.coef + g.p.coef)
        lhs = C.apply_operator(op, fg)
        rhs = C.apply_operator(op, f) + C.apply_operator(op, g)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        a = rng.uniform(-2, 2)
        assert C.apply_operator(op, PolyProbe(a * f.p.coef)) == \
            pytest.approx(a * C.apply_operator(op, f), abs=1e-12)


# ---------------------------------------------------------------------------
# support matrices and switching coefficients (golden values)

POINT_CONSTRAINTS = (
    C.Constraint.point(1.0, 0.0),            # y(0) = 1
    C.Constraint.point(2.0, 1.0, order=1),   # y_x(1) = 2
    C.Constraint.point(3.0, 2.0),            # y(2) = 3
)

INTEGRAL_CONSTRAINTS = (
    C.Constraint(C.ConstraintOperator([C.DefiniteIntegral(-2, 3)]),
                 C.ConstKappa(5.0)),
    C.Constraint(C.ConstraintOperator([C.DefiniteIntegral(0, 2, 3.0)]),
                 C.ConstKappa(2.0)),
)


def test_support_matrix_point_example():
    S = C.support_matrix(POINT_CONSTRAINTS, C.MonomialSupports([0, 2, 3]))
    np.testing.assert_allclose(S, [[1, 0, 0], [0, 2, 3], [1, 4, 8]], atol=1e-14)


def test_support_matrix_singular_monomials_detected():
    S = C.support_matrix(POINT_CONSTRAINTS, C.MonomialSupports([0, 1, 2]))
    np.testing.assert_allclose(S, [[1, 0, 0], [0, 1, 2], [1, 2, 4]], atol=1e-14)
    with pytest.raises(C.SingularSupportError) as err:
        C.solve_switching(S)
    assert err.value.cond > 1e12 or not np.isfinite(err.value.cond)


def test_support_matrix_integral_example():
    S = C.support_matrix(INTEGRAL_CONSTRAINTS, C.MonomialSupports([0, 1]))
    np.testing.assert_allclose(S, [[5, 2.5], [6, 6]], atol=1e-14)


def test_switching_coefficients_point_example():
    S = C.support_matrix(POINT_CONSTRAINTS, C.MonomialSupports([0, 2, 3]))
    alpha = C.solve_switching(S)
    expect = [[1, 0, 0], [0.75, 2, -0.75], [-0.5, -1, 0.5]]
    np.testing.assert_allclose(alpha, expect, atol=1e-14)


def test_switching_coefficients_integral_example():
    S = C.support_matrix(INTEGRAL_CONSTRAINTS, C.MonomialSupports([0, 1]))
    alpha = C.solve_switching(S)
    # S alpha = I; consistent with the documented switching functions
    # phi1 = (2 - 2x)/5 and phi2 = (2x - 1)/6
    np.testing.assert_allclose(alpha, [[2 / 5, -1 / 6], [-2 / 5, 1 / 3]],
                               atol=1e-14)
    np.testing.assert_allclose(S @ alpha, np.eye(2), atol=1e-14)


def test_identity_support_matrix():
    S = np.eye(3)
    np.testing.assert_array_equal(C.solve_switching(S), np.eye(3))


def test_switching_functions_point_example():
    ce = C.build_univariate_ce(POINT_CONSTRAINTS, C.MonomialSupports([0, 2, 3]))
    x = np.linspace(-1, 3, 21)
    phi = ce.switching(x)
    np.testing.assert_allclose(phi[:, 0], (-2 * x ** 3 + 3 * x ** 2 + 4) / 4,
                               atol=1e-12)
    np.testing.assert_allclose(phi[:, 1], -x ** 3 + 2 * x ** 2, atol=1e-12)
    np.testing.assert_allclose(phi[:, 2], (2 * x ** 3 - 3 * x ** 2) / 4,
                               atol=1e-12)


def test_switching_functions_integral_example():
    ce = C.build_univariate_ce(INTEGRAL_CONSTRAINTS, C.MonomialSupports([0, 1]))
    x = np.linspace(-2, 3, 21)
    phi = ce.switching(x)
    np.testing.assert_allclose(phi[:, 0], (2 - 2 * x) / 5, atol=1e-12)
    np.testing.assert_allclose(phi[:, 1], (2 * x - 1) / 6, atol=1e-12)


def test_single_constraint_ce():
    # y(0) = kappa with s = {1}: y = g + kappa - g(0)
    ce = C.build_univariate_ce([C.Constraint.point(4.0, 0.0)])
    g = C.ExprFunction1D("x^3 + 2*x")
    for x in np.linspace(-1, 1, 7):
        assert C.evaluate_ce(ce, g, x) == pytest.approx(
            g.deriv(x, 0) + 4.0 - g.deriv(0.0, 0), abs=1e-14)


# ---------------------------------------------------------------------------
# projection functionals

def test_projection_value_worked_example():
    con = C.Constraint(C.ConstraintOperator([C.PointDeriv(0, 2.0, 2.0),
                                             C.PointDeriv(2, 0.0, math.pi)]),
                       C.ConstKappa(3.0))
    rho = C.projection_value(con, PolyProbe([0, 0, 1]))
    assert rho == pytest.approx(3 - (8 + 2 * math.pi), abs=1e-14)


def test_projection_zero_when_constraint_satisfied():
    con = C.Constraint.point(5.0, 1.0)  # y(1) = 5
    g = PolyProbe([3, 2])  # 3 + 2x -> g(1) = 5
    assert C.projection_value(con, g) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# constrained expression evaluation

class CEProbe:
    """The output of a univariate CE as an evaluable-with-derivatives."""

    def __init__(self, ce, g):
        self.ce = ce
        self.g = g

    def deriv(self, x, d):
        return C.evaluate_ce(self.ce, self.g, x, d)


def test_ce_forces_constraints():
    ce = C.build_univariate_ce(POINT_CONSTRAINTS, C.MonomialSupports([0, 2, 3]))
    g = C.ExprFunction1D("sin(2*x) + x^4")
    assert C.evaluate_ce(ce, g, 0.0) == pytest.approx(1.0, abs=1e-13)
    assert C.evaluate_ce(ce, g, 1.0, d=1) == pytest.approx(2.0, abs=1e-13)
    assert C.evaluate_ce(ce, g, 2.0) == pytest.approx(3.0, abs=1e-13)


def test_ce_projection_idempotence():
    ce = C.build_univariate_ce(POINT_CONSTRAINTS, C.MonomialSupports([0, 2, 3]))
    g0 = C.ExprFunction1D("x^3")
    once = CEProbe(ce, g0)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-1, 3, 20):
        twice = C.evaluate_ce(ce, once, x)
        assert twice == pytest.approx(once.deriv(x, 0), abs=1e-12)


def test_support_span_invariance():
    ce = C.build_univariate_ce(POINT_CONSTRAINTS, C.MonomialSupports([0, 2, 3]))
    rng = np.random.default_rng(4)
    for _ in range(5):
        beta = rng.uniform(-2, 2, 3)
        g = PolyProbe([0, 0, 0, 1])  # x^3
        shifted = PolyProbe([beta[0], 0, beta[1], 1 + beta[2]])
        for x in rng.uniform(-1, 3, 10):
            a = C.evaluate_ce(ce, g, x)
            b = C.evaluate_ce(ce, shifted, x)
            assert a == pytest.approx(b, abs=1e-12)


def test_switching_kronecker_property():
    ce = C.build_univariate_ce(POINT_CONSTRAINTS, C.MonomialSupports([0, 2, 3]))
    assert ce.kronecker_defect() < 1e-12
    ce2 = C.build_univariate_ce(INTEGRAL_CONSTRAINTS, C.MonomialSupports([0, 1]))
    assert ce2.kronecker_defect() < 1e-12


# ---------------------------------------------------------------------------
# randomized constraint-satisfaction property

def _random_constraints(rng):
    n = int(rng.integers(1, 5))
    cons = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        kappa = float(np.round(rng.uniform(-3, 3), 3))
        if kind == 0:  # value/derivative at a point
            cons.append(C.Constraint.point(kappa, float(rng.uniform(-2, 2)),
                                           order=int(rng.integers(0, 3))))
        elif kind == 1:  # weighted two-point combination
            specs = [C.PointDeriv(int(rng.integers(0, 2)),
                                  float(rng.uniform(-2, 2)),
                                  float(rng.choice([-2, -1, 1, 2])))
                     for _ in range(2)]
            cons.append(C.Constraint(C.ConstraintOperator(specs),
                                     C.ConstKappa(kappa)))
        elif kind == 2:  # integral
            a = float(rng.uniform(-2, 0))
            b = a + float(rng.uniform(0.5, 3))
            cons.append(C.Constraint(
                C.ConstraintOperator([C.DefiniteIntegral(a, b,
                                                         float(rng.uniform(0.5, 2)))]),
                C.ConstKappa(kappa)))
        else:  # relative
            a, b = rng.uniform(-2, 2, 2)
            cons.append(C.Constraint(
                C.ConstraintOperator([C.PointDeriv(0, float(a), 1.0),
                                      C.PointDeriv(0, float(b), -1.0)]),
                C.ConstKappa(0.0)))
    return cons


def test_random_constraint_sets_satisfied():
    rng = np.random.default_rng(11)
    built = 0
    attempts = 0
    while built < 100 and attempts < 400:
        attempts += 1
        cons = _random_constraints(rng)
        try:
            ce = C.build_univariate_ce(cons)
        except C.SingularSupportError:
            continue
        g = PolyProbe(rng.uniform(-1, 1, 6))
        probe = CEProbe(ce, g)
        for con in cons:
            want = con.kappa.value
            got = C.apply_operator(con.operator, probe)
            assert got == pytest.approx(want, abs=1e-10)
        built += 1
    assert built == 100


def test_ce_returns_g_when_g_satisfies_constraints():
    # surjectivity: a free function already satisfying the constraints
    # passes through unchanged
    cons = [C.Constraint.point(1.0, 0.0), C.Constraint.point(3.0, 1.0)]
    ce = C.build_univariate_ce(cons)
    g = PolyProbe([1, 2])  # 1 + 2x satisfies both
    for x in np.linspace(-1, 2, 9):
        assert C.evaluate_ce(ce, g, x) == pytest.approx(g.deriv(x, 0), abs=1e-14)


def test_build_requires_matching_support_count():
    with pytest.raises(ValueError, match="support"):
        C.build_univariate_ce(POINT_CONSTRAINTS, C.MonomialSupports([0, 1]))
