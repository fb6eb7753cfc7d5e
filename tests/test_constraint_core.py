import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from funcon import basis as B
from funcon import constraint_core as C
from funcon import exprfn as E


def op_point(*terms):
    """terms: (order, location[, coeff])"""
    return C.ConstraintOperator([C.PointDeriv(o, a, *rest)
                                 for (o, a, *rest) in terms])


class PolyProbe:
    """Exact polynomial evaluable with derivatives."""

    def __init__(self, coeffs):
        self.p = np.polynomial.Polynomial(coeffs)

    def deriv(self, x, d):
        return float(self.p.deriv(d)(x)) if d else float(self.p(x))


class ExprProbe:
    """Evaluable with derivatives from an expression in x."""

    def __init__(self, source):
        self.expr = E.parse(source)
        self._derivs = {0: self.expr}

    def deriv(self, x, d):
        if d not in self._derivs:
            self._derivs[d] = E.differentiate(self.expr, "x", d)
        return E.evaluate(self._derivs[d], {"x": x})


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
# the quadrature rule (``ConstraintOperator.taps``) against closed forms
#
# 64 Gauss-Legendre nodes integrate polynomials of degree <= 127 exactly, so
# on polynomials the taps differ from the closed forms by rounding alone.
# Bound written before the first run: 128 (eps R + tiny), R the majorant of
# each closed form (absolute coefficients, each integral over [lo, hi]
# replaced by (hi - lo) max(|lo|, |hi|)^e, which bounds both sides' terms).
# It covers, per tap, a few eps in leggauss's nodes and weights (a node's
# error scaled by the degree, at most 7 here), the 3 roundings mapping them
# to [lo, hi], at most 12 in evaluating a monomial term and one in the
# weight, plus 63 for summing 64 taps and about 10 in the closed form:
# about 100 roundings of R.

_TAP_BOUND = 128


def _monomial_factor(e, axis):
    """(closed form, majorant) of one variable's factor x^e in a monomial:
    ``axis`` is ("at", value, derivative order) or ("over", lo, hi)."""
    if axis[0] == "over":
        _, lo, hi = axis
        return ((hi ** (e + 1) - lo ** (e + 1)) / (e + 1),
                (hi - lo) * max(abs(lo), abs(hi)) ** e)
    _, v, d = axis
    if d > e:
        return 0.0, 0.0
    ff = math.prod(range(e - d + 1, e + 1))
    return ff * v ** (e - d), ff * abs(v) ** (e - d)


def _polynomial_closed_form(coefs, coeff, axes):
    """coeff times the polynomial sum c x^p y^q z^r of ``coefs`` ({(p, q,
    r): c}) with each variable fixed, differentiated or integrated as its
    axis says: (closed form, majorant)."""
    exact = major = 0.0
    for powers, c in coefs.items():
        factors = [_monomial_factor(e, a) for e, a in zip(powers, axes)]
        exact += c * math.prod(f for f, _ in factors)
        major += abs(c) * math.prod(m for _, m in factors)
    return coeff * exact, abs(coeff) * major


@st.composite
def _polynomials(draw):
    """A random polynomial in x, y, z of degree <= 3 per variable, as
    {(p, q, r): coefficient} and as an expression."""
    coefs = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 3),
        st.integers(-5, 5).filter(bool).map(float), min_size=1, max_size=6))
    source = " + ".join(f"{c!r}*x^{p}*y^{q}*z^{r}"
                        for (p, q, r), c in coefs.items())
    return coefs, C.ExprField(E.parse(source), ("x", "y", "z"))


_interval = st.tuples(st.floats(-2.0, 0.0), st.floats(0.25, 2.0))
_coordinate = st.floats(-2.0, 2.0)
_coeff = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)


def _within_tap_bound(got, want, major):
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    assert np.all(np.abs(got - want) <= _TAP_BOUND * (eps * major + tiny))


@given(_polynomials(), _interval, _coeff,
       st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=4),
       st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_own_integral_taps_equal_closed_form(poly, interval, coeff, yz,
                                             dy, dz):
    # coeff * int_lo^hi d^dy/dy^dy d^dz/dz^dz f(x, y, z) dx, at rows whose
    # x differs (the result is constant in x)
    (coefs, field), (lo, hi) = poly, interval
    op = C.ConstraintOperator([C.DefiniteIntegral(lo, hi, coeff)])
    pts = np.array([(0.5 * i, y, z) for i, (y, z) in enumerate(yz)])
    got = C._apply_op_to_field(op, field, pts, (0, dy, dz), 0, None).offset
    for row, (y, z) in zip(got, yz):
        want, major = _polynomial_closed_form(
            coefs, coeff, [("over", lo, hi), ("at", y, dy), ("at", z, dz)])
        _within_tap_bound(row, want, major)


@given(_polynomials(), _coordinate, st.integers(0, 2), _coeff, _interval,
       _interval, st.lists(_coordinate, min_size=1, max_size=3),
       st.integers(0, 2), st.booleans())
@settings(max_examples=30, deadline=None)
def test_integral_over_taps_equal_closed_form(poly, at, dx, coeff, over_y,
                                              over_z, zs, dz, both):
    # coeff * int d^dx/dx^dx f(at, y, z) dy (and dz when ``both``): an
    # ``integral_over`` term on x, with z's derivative order carried through
    # when z is not integrated
    coefs, field = poly
    foreign = ((1, *over_y),) + (((2, *over_z),) if both else ())
    op = C.ConstraintOperator([C.PointDeriv(dx, at, coeff, foreign)])
    pts = np.array([(0.25, 0.5, z) for z in zs])
    orders = (0, 0, 0 if both else dz)
    got = C._apply_op_to_field(op, field, pts, orders, 0, None).offset
    for row, z in zip(got, zs):
        want, major = _polynomial_closed_form(
            coefs, coeff, [("at", at, dx), ("over", *over_y),
                           ("over", *over_z) if both else ("at", z, dz)])
        _within_tap_bound(row, want, major)
    # a derivative along an integrated dimension drops the term
    zero = C._apply_op_to_field(op, field, pts, (0, 1, 0), 0, None)
    assert not np.any(zero.offset) and zero.rows is None


@given(st.integers(1, 8), _interval, _coeff, _coordinate, st.integers(0, 3),
       _interval)
@settings(max_examples=60, deadline=None)
def test_operator_columns_without_hook_equal_exact_integrals(
        k, interval, coeff, at, d, over):
    # the taps of an own-dimension integral against exact monomial
    # integrals, and a foreign integral's taps (their nodes ignored: f has
    # no other variables) against the interval's length
    supports = C.MonomialSupports.default(k)
    (lo, hi), (flo, fhi) = interval, over
    ops = [C.ConstraintOperator([C.DefiniteIntegral(lo, hi, coeff)]),
           C.ConstraintOperator([C.PointDeriv(d, at, coeff,
                                              ((1, flo, fhi),))])]
    got = C.apply_operator_columns(ops, supports.table)
    assert got.shape == (2, k)
    for p in range(k):
        want, major = _polynomial_closed_form(
            {(p, 0, 0): 1.0}, coeff, [("over", lo, hi)] + [("at", 0.0, 0)] * 2)
        _within_tap_bound(got[0, p], want, major)
        want, major = _polynomial_closed_form(
            {(p, 0, 0): 1.0}, coeff,
            [("at", at, d), ("over", flo, fhi), ("at", 0.0, 0)])
        _within_tap_bound(got[1, p], want, major)


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


def test_support_matrix_walks_the_operator_taps():
    # alpha is solved against the functional the expression applies: each
    # integral row, augmentation rows included, is the sum over the
    # operator's taps, with no closed-form integral in its place
    cons = INTEGRAL_CONSTRAINTS + POINT_CONSTRAINTS[:1]
    extra = ((-1.0, 1.0), (0.0, 0.75))
    supports = C.MonomialSupports.default(len(cons) + len(extra))
    ops = [c.operator for c in cons] + [
        C.ConstraintOperator([C.DefiniteIntegral(lo, hi)]) for lo, hi in extra]
    np.testing.assert_array_equal(C.support_matrix(cons, supports, extra),
                                  C.apply_operator_columns(ops, supports.table))


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
    g = ExprProbe("x^3 + 2*x")
    for x in np.linspace(-1, 1, 7):
        assert C.evaluate_ce(ce, g, x) == pytest.approx(
            g.deriv(x, 0) + 4.0 - g.deriv(0.0, 0), abs=1e-14)


# ---------------------------------------------------------------------------
# projection functionals

def test_projection_value_worked_example():
    con = C.Constraint(C.ConstraintOperator([C.PointDeriv(0, 2.0, 2.0),
                                             C.PointDeriv(2, 0.0, math.pi)]),
                       C.ConstKappa(3.0))
    rho = con.kappa.value - C.apply_operator(con.operator,
                                             PolyProbe([0, 0, 1]))
    assert rho == pytest.approx(3 - (8 + 2 * math.pi), abs=1e-14)


def test_projection_zero_when_constraint_satisfied():
    con = C.Constraint.point(5.0, 1.0)  # y(1) = 5
    g = PolyProbe([3, 2])  # 3 + 2x -> g(1) = 5
    assert con.kappa.value - C.apply_operator(con.operator, g) == \
        pytest.approx(0.0, abs=1e-14)


def test_evaluate_ce_rejects_non_constant_kappa():
    con = C.Constraint(C.ConstraintOperator([C.PointDeriv(0, 0.0)]),
                       C.ExprKappa(E.parse("2*p")))
    ce = C.build_univariate_ce([con])
    with pytest.raises(ValueError, match="constant kappas"):
        C.evaluate_ce(ce, PolyProbe([1, 2]), 0.5)


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
    g = ExprProbe("sin(2*x) + x^4")
    assert C.evaluate_ce(ce, g, 0.0) == pytest.approx(1.0, abs=1e-13)
    assert C.evaluate_ce(ce, g, 1.0, d=1) == pytest.approx(2.0, abs=1e-13)
    assert C.evaluate_ce(ce, g, 2.0) == pytest.approx(3.0, abs=1e-13)


def test_ce_projection_idempotence():
    ce = C.build_univariate_ce(POINT_CONSTRAINTS, C.MonomialSupports([0, 2, 3]))
    g0 = ExprProbe("x^3")
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


def test_evaluate_ce_gives_each_alternating_probe_its_own_rho():
    # rho = kappa - C[g] is remembered for the last probe object only
    ce = C.build_univariate_ce(POINT_CONSTRAINTS, C.MonomialSupports([0, 2, 3]))
    probes = [PolyProbe([1.0, -2.0, 0.5, 3.0]),
              PolyProbe([0.25, 1.0, -1.0, 0.0, 2.0])]
    for x in np.linspace(-1.0, 3.0, 7):
        for g in probes + probes[::-1]:
            fresh = C.build_univariate_ce(POINT_CONSTRAINTS,
                                          C.MonomialSupports([0, 2, 3]))
            assert C.evaluate_ce(ce, g, x) == C.evaluate_ce(fresh, g, x)
            assert C.evaluate_ce(ce, CEProbe(ce, g), x) == \
                C.evaluate_ce(fresh, CEProbe(fresh, g), x)


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


# ---------------------------------------------------------------------------
# recursive CE at distinct rows against one point at a time

def test_distinct_rows_ignore_own_column_and_keep_signed_zeros():
    pts = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 2.0], [-0.0, 3.0]])
    first, inverse = C._distinct_rows(pts, 1)
    assert len(first) == 2
    np.testing.assert_array_equal(
        pts[first][inverse][:, 0].view(np.int64), pts[:, 0].view(np.int64))
    first, inverse = C._distinct_rows(pts, 0)
    assert len(first) == 3
    np.testing.assert_array_equal(pts[first][inverse][:, 1], pts[:, 1])


_ELM_ACTIVATION_BOUND = 5.0  # |sin^(d)| <= 1 and |tanh^(d)| <= 4.1, d <= 4


def _finite(lo, hi):
    return st.floats(lo, hi, allow_subnormal=False)


def _feature(draw, dims, intervals):
    """An ELM (sin or tanh) or a tensor-product (Chebyshev, Legendre or
    Fourier) free function; the highest derivative order it takes."""
    if draw(st.booleans()):
        activation = draw(st.sampled_from(("sin", "tanh")))
        family = B.ElmFamily(activation, draw(st.integers(1, 6)), dims,
                             draw(st.integers(0, 2**31 - 1)))
        maps = [B.DomainMap(lo, hi, 0.0, 1.0) for lo, hi in intervals]
        # tanh derivatives stop at order 4: the total order stays <= 3
        return B.ElmFeature(family, maps), 2 if activation == "sin" else 1
    kind = draw(st.sampled_from(("chebyshev", "legendre", "fourier")))
    z0, zf = B.NATIVE_DOMAINS[kind]
    degree = draw(st.integers(1, 4))
    return B.TensorFeature(
        [B.BasisFamily(kind, degree) for _ in range(dims)],
        [B.DomainMap(lo, hi, z0, zf) for lo, hi in intervals],
        total_degree=degree), 2


@st.composite
def _ce_fields(draw):
    """A random recursive CE around an ELM or tensor free function: 1-3
    dimensions, each constrained or not, 1-2 constraints per constrained
    dimension mixing point, derivative, relative, own-dimension integral and
    foreign ``integral_over`` terms, with constant, expression (over the
    other variables, a param and the extra c) or component kappas (another
    variable's field at the constraint's slice).  At most one term
    integrates, which bounds the reference's quadrature work.  Returns
    (field, pts, orders, extras) with pts a shuffled mesh holding 0.0 and
    -0.0 and some repeated rows."""
    dims = draw(st.integers(1, 3))
    names = "xyz"[:dims]
    intervals = [(draw(_finite(-2.0, -0.25)), draw(_finite(0.25, 2.0)))
                 for _ in names]
    u, max_order = _feature(draw, dims, intervals)
    v, v_order = _feature(draw, dims, intervals)
    max_order = min(max_order, v_order)
    width = u.count + v.count
    ctx = C.FieldContext(names, {"p": 1.5})
    u_field = C.FeatureField(ctx, u, slice(0, u.count), width)
    v_field = C.FeatureField(ctx, v, slice(u.count, width), width)
    integrals = 1
    field = u_field
    for k in draw(st.lists(st.integers(0, dims - 1), min_size=1,
                           max_size=dims, unique=True)):
        lo, hi = intervals[k]
        at = _finite(lo, hi)
        coeff = _finite(0.5, 2.0) | _finite(-2.0, -0.5)
        others = [j for j in range(dims) if j != k]
        cons = []
        for _ in range(draw(st.integers(1, 2))):
            kinds = ["point", "derivative", "relative"]
            if integrals:
                kinds.append("integral")
                if others:
                    kinds.append("foreign")
            kind = draw(st.sampled_from(kinds))
            if kind == "point":
                specs = [C.PointDeriv(0, draw(at))]
            elif kind == "derivative":
                specs = [C.PointDeriv(draw(st.integers(1, max_order)),
                                      draw(at), draw(coeff))]
            elif kind == "relative":
                specs = [C.PointDeriv(0, draw(at)),
                         C.PointDeriv(0, draw(at), -1.0)]
            elif kind == "integral":
                a, b = sorted((draw(at), draw(at)))
                assume(b - a > 0.05)
                specs = [C.DefiniteIntegral(a, b, draw(coeff))]
                integrals -= 1
            else:
                j = draw(st.sampled_from(others))
                specs = [C.PointDeriv(0, draw(at), draw(coeff),
                                      ((j, *intervals[j]),))]
                integrals -= 1
            value = draw(_finite(-2.0, 2.0))
            kappa = draw(st.sampled_from(("const", "expr", "component")))
            if kappa != "const":
                o = names[draw(st.sampled_from(others))] if others else "p"
                value = E.parse(f"{value!r}*{o}^2 + sin({o}) + c*p")
            kappa = C.as_kappa(value) if kappa != "component" else \
                C.ComponentKappa(value, ((draw(coeff), v_field,
                                          {k: (0, draw(at))}),))
            cons.append(C.Constraint(C.ConstraintOperator(specs), kappa))
        try:
            ce = C.build_univariate_ce(cons, dim=k)
        except C.SingularSupportError:
            assume(False)
        field = C.CEField(field, ce)
    axes = [draw(st.lists(_finite(lo, hi) | st.sampled_from((0.0, -0.0)),
                          min_size=1, max_size=2 if dims == 3 else 3))
            for lo, hi in intervals]
    axes[0] += [0.0, -0.0]
    mesh = np.array(np.meshgrid(*axes, indexing="ij")).reshape(dims, -1).T
    rows = draw(st.permutations(list(range(len(mesh))) + draw(st.lists(
        st.integers(0, len(mesh) - 1), max_size=4))))
    orders = tuple(draw(st.integers(0, max_order - 1)) for _ in names)
    return field, mesh[rows], orders, {"c": draw(_finite(-2.0, 2.0))}


def _magnitude(field, pts, orders, extras):
    """``field.eval`` with every term replaced by its magnitude: absolute
    coefficients, weights, kappas and switching products |S| |alpha|.  An
    ELM feature's magnitude A |w|^d (1 + |z| |w| + |b|) also bounds how far
    rounding of its pre-activation w . z + b moves it, in units of eps.
    Every helper returns arrays of its own, so terms combine in place."""
    if isinstance(field, C.CEField):
        k = field.ce.dim
        out = _magnitude(field.inner, pts, orders, extras)
        phi = np.abs(field.ce.supports.table(pts[:, k], orders[k])) \
            @ np.abs(field.ce.alpha)
        cross = tuple(0 if j == k else d for j, d in enumerate(orders))
        for j, con in enumerate(field.ce.constraints):
            rho = C._ae_iadd(
                _kappa_magnitude(con.kappa, field.ctx, pts, cross, extras),
                _operator_magnitude(con.operator, field.inner, pts, cross, k,
                                    extras))
            C._ae_iadd(out, C._ae_iscale(rho, phi[:, j]))
        return out
    feature = field.feature
    if isinstance(feature, B.ElmFeature):
        w, b = feature.family.weights, feature.family.biases
        z = np.column_stack([m.to_basis(pts[:, k])
                             for k, m in enumerate(feature.maps)])
        scale = np.ones(len(b))
        for k, d in enumerate(orders):
            scale = scale * np.abs(w[:, k] * feature.maps[k].slope) ** d
        table = _ELM_ACTIVATION_BOUND * scale * (1 + np.abs(z) @ np.abs(w.T)
                                                 + np.abs(b))
    else:
        table = np.abs(feature.eval(pts, orders))
    rows = np.zeros((pts.shape[0], field.width))
    rows[:, field.col_slice] = table
    return C.AffineEval(rows, np.zeros(pts.shape[0]), {})


def _absolute(ae):
    rows = None if ae.rows is None else np.abs(ae.rows)
    return C.AffineEval(rows, np.abs(ae.offset),
                        {k: np.abs(g) for k, g in ae.grads.items()})


def _kappa_magnitude(kappa, ctx, pts, orders, extras):
    if not isinstance(kappa, C.ComponentKappa):
        return _absolute(kappa.eval(ctx, pts, orders, extras))
    out = _absolute(C.as_kappa(kappa.base).eval(ctx, pts, orders, extras))
    for coeff, other, fixed in kappa.refs:
        if any(orders[j] for j in fixed):
            continue
        pts2, orders2 = pts.copy(), list(orders)
        for j, (d, loc) in fixed.items():
            pts2[:, j], orders2[j] = loc, d
        C._ae_iadd(out, C._ae_iscale(
            _magnitude(other, pts2, tuple(orders2), extras), abs(coeff)))
    return out


def _operator_magnitude(op, inner, pts, orders, k, extras):
    out = C._zero(pts.shape[0])
    for s in op.specs:
        orders2 = list(orders)
        if isinstance(s, C.PointDeriv):
            if any(orders[j] for j, _, _ in s.foreign):
                continue
            orders2[k] = s.order
            # (dimension, nodes, weights) of each coordinate the term fixes
            axes = [(k, [s.location], [1.0])] + [
                (j, *C.gauss_legendre(lo, hi)) for j, lo, hi in s.foreign]
        else:
            orders2[k] = 0
            axes = [(k, *C.gauss_legendre(s.lower, s.upper))]
        for nodes in itertools.product(*(zip(t, w) for _, t, w in axes)):
            pts2, weight = pts.copy(), abs(s.coeff)
            for (j, _, _), (t, w) in zip(axes, nodes):
                pts2[:, j] = t
                weight *= abs(w)
            C._ae_iadd(out, C._ae_iscale(
                _magnitude(inner, pts2, tuple(orders2), extras), weight))
    return out


@given(_ce_fields())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_distinct_row_ce_equals_pointwise_ce(drawn):
    # Both evaluations compute every entry by the same operations in the
    # same order.  Only the batched products differ: the switching values
    # S alpha (at most 3 products) and an ELM's pre-activation w . z + b
    # (at most 4), each within 4 eps of its magnitude, which ``_magnitude``
    # includes.  Along any entry's deepest chain there are at most 3 CE
    # levels, each adding g, phi * (kappa - C[g]) and summing at most 2
    # terms of at most 64 quadrature products (about 72 roundings), plus
    # one component kappa's level and a foreign rule of 64 nodes: under
    # 4 * 72 + 64 + 8 = 360 roundings, so each path is within 360 eps of
    # the exact value in units of the magnitude R.  Written before the
    # first run: |batched - pointwise| <= 1024 (eps R + tiny), with the
    # smallest normal number ``tiny`` for products that underflow.  A CE
    # skips a constraint whose switching function vanishes at every point,
    # so one point may lack a gradient that another has: the batched
    # gradients carry the union of the points' keys, zero where one lacks.
    field, pts, orders, extras = drawn
    got = field.eval(pts, orders, extras)
    rows = [field.eval(p[None, :], orders, extras) for p in pts]
    want = C.AffineEval(np.vstack([r.rows for r in rows]),
                        np.concatenate([r.offset for r in rows]),
                        {name: np.concatenate([r.grads.get(name, [0.0])
                                               for r in rows])
                         for name in set().union(*(r.grads for r in rows))})
    mag = _magnitude(field, pts, orders, extras)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny

    def within(a, b, r):
        assert a.shape == b.shape
        assert np.all(np.abs(a - b) <= 1024 * (eps * r + tiny))

    within(got.rows, want.rows, mag.rows)
    within(got.offset, want.offset, mag.offset)
    assert got.grads.keys() == want.grads.keys()
    for name in want.grads:
        within(got.grads[name], want.grads[name], mag.grads[name])


# ---------------------------------------------------------------------------
# evaluations that do not depend on the coefficients carry no rows

def test_kappas_and_probe_fields_have_no_rows():
    pts = np.array([[0.0, 1.0], [0.5, -1.0], [1.0, 2.0]])
    ctx = C.FieldContext(("x", "y"), {"p": 1.5})
    expr = E.parse("p*y^2 + c*sin(y)")
    branch = C.BranchKappa(((lambda extras: extras["c"] > 0, expr),
                            (lambda extras: True, E.parse("y"))))
    probe = C.ExprField(expr, ("x", "y"), {"p": 1.5})
    ce = C.build_univariate_ce([
        C.Constraint.point(1.0, 0.0),
        C.Constraint(op_point((1, 1.0)), C.ExprKappa(E.parse("c*y")))])
    fields = (probe, C.CallableField(lambda p, orders: p[:, 0], ("x", "y")),
              C.CEField(probe, ce))
    for orders in [(0, 0), (0, 1), (1, 0), (2, 1)]:
        for kappa in (C.ConstKappa(2.0), C.ExprKappa(expr), branch):
            assert kappa.eval(ctx, pts, orders, {"c": 0.5}).rows is None
        for field in fields:
            assert field.eval(pts, orders, {"c": 0.5}).rows is None


def _with_zero_rows(ae, width):
    """``ae`` with absent rows replaced by an explicit all-zero block."""
    rows = np.zeros((len(ae.offset), width)) if ae.rows is None else ae.rows
    return C.AffineEval(rows, ae.offset, ae.grads)


def _owned(ae):
    """A copy of ``ae`` whose arrays are its own, to combine in place."""
    return C.AffineEval(None if ae.rows is None else ae.rows.copy(),
                        ae.offset.copy(),
                        {name: g.copy() for name, g in ae.grads.items()})


def _sum(a, b):
    return C._ae_iadd(_owned(a), _owned(b))


def _assert_same_affine(got, want, width):
    np.testing.assert_array_equal(_with_zero_rows(got, width).rows, want.rows)
    np.testing.assert_array_equal(got.offset, want.offset)
    assert got.grads.keys() == want.grads.keys()
    for name in want.grads:
        np.testing.assert_array_equal(got.grads[name], want.grads[name])


_entries = st.floats(-1e3, 1e3)


@st.composite
def _affine_evals(draw):
    """(a, b, s, xi, width): two evaluations at the same n points, each
    with rows of one width or none and gradients in some of the extras c
    and d, a scalar or per-point scale, and coefficients."""
    n, width = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def vector(size):
        return np.array(draw(st.lists(_entries, min_size=size,
                                      max_size=size)), dtype=float)

    def evaluation():
        rows = vector(n * width).reshape(n, width) \
            if draw(st.booleans()) else None
        grads = {name: vector(n)
                 for name in draw(st.sets(st.sampled_from("cd")))}
        return C.AffineEval(rows, vector(n), grads)

    a, b = evaluation(), evaluation()
    s = draw(_entries) if draw(st.booleans()) else vector(n)
    return a, b, s, vector(width), width


@given(_affine_evals())
@settings(max_examples=200, deadline=None)
def test_absent_rows_act_as_zero_rows(drawn):
    a, b, s, xi, width = drawn
    za, zb = _with_zero_rows(a, width), _with_zero_rows(b, width)
    left, right = _owned(a), _owned(b)
    rows = right.rows if a.rows is None else left.rows
    total = C._ae_iadd(left, right)
    _assert_same_affine(total, _sum(za, zb), width)
    _assert_same_affine(_sum(b, a), _sum(zb, za), width)
    _assert_same_affine(C._ae_iscale(_owned(a), s),
                        C._ae_iscale(_owned(za), s), width)
    np.testing.assert_array_equal(a.value(xi), za.value(xi))
    # the sum is written into the left side's arrays; a left side without
    # rows takes the right side's rows as they are
    assert total is left and total.rows is rows


class _ZeroRowsField(C.Field):
    """``inner``'s evaluations with an all-zero row block for absent rows."""

    def __init__(self, inner, width):
        super().__init__(inner.ctx)
        self.inner, self.width = inner, width

    def eval(self, pts, orders, extras=None):
        return _with_zero_rows(self.inner.eval(pts, orders, extras), self.width)


@given(st.lists(st.lists(_coordinate, min_size=1, max_size=3), min_size=3,
                max_size=3),
       st.lists(st.integers(0, 8), max_size=4), st.integers(0, 2),
       st.sampled_from(("point", "derivative", "integral", "foreign")),
       _coordinate, _coeff, st.tuples(*[st.integers(0, 1)] * 3))
@settings(max_examples=100, deadline=None)
def test_gathered_operator_without_rows_equals_zero_rows(
        axes, repeats, k, kind, at, coeff, orders):
    # the operator is evaluated at the distinct points of the other
    # coordinates and gathered back to every row, with or without rows
    mesh = np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1).T
    pts = mesh[list(range(len(mesh))) + [i % len(mesh) for i in repeats]]
    other = (k + 1) % 3
    spec = {"point": C.PointDeriv(0, at, coeff),
            "derivative": C.PointDeriv(2, at, coeff),
            "integral": C.DefiniteIntegral(-1.0, at + 2.5, coeff),
            "foreign": C.PointDeriv(1, at, coeff, ((other, -1.0, 0.5),))}[kind]
    op = C.ConstraintOperator([spec, C.PointDeriv(0, -at, 0.5)])
    probe = C.ExprField(E.parse("x^2*y*z + c*sin(x + 2*y)*z^3 + p*y^2"),
                        ("x", "y", "z"), {"p": 1.5})
    orders = tuple(0 if j == k else d for j, d in enumerate(orders))
    got = C._apply_op_to_field(op, probe, pts, orders, k, {"c": 0.7})
    want = C._apply_op_to_field(op, _ZeroRowsField(probe, 2), pts, orders, k,
                                {"c": 0.7})
    assert got.rows is None
    _assert_same_affine(got, want, 2)


# ---------------------------------------------------------------------------
# a CE composes in its inner field's result, so results are the caller's own

def _aliasing_ces():
    """A CE on x (value and slope) around one on y (an integral).  The
    kappas of the slope and the integral name the extra c, so gradients in
    c come from the kappa alone, from C[g] alone and from both."""
    on_x = C.build_univariate_ce([C.Constraint.point(1.0, 0.0),
                                  C.Constraint(op_point((1, 1.0)),
                                               C.ExprKappa(E.parse("c*y")))],
                                 dim=0)
    on_y = C.build_univariate_ce([C.Constraint(
        C.ConstraintOperator([C.DefiniteIntegral(0.0, 1.0)]),
        C.ExprKappa(E.parse("x + c*(1 + x^2)")))], dim=1)
    return on_y, on_x


_EXTRAS = {"c": 0.7}


def _grid_20x20():
    # 400 rows: the gathered terms span two row blocks
    axis = np.linspace(0.0, 1.0, 20)
    return np.array(np.meshgrid(axis, axis, indexing="ij")).reshape(2, -1).T


def test_ce_evaluations_share_no_arrays():
    ctx = C.FieldContext(("x", "y"))
    feature = B.ElmFeature(B.ElmFamily("tanh", 12, 2, seed=5),
                           [B.DomainMap(0.0, 1.0, 0.0, 1.0)] * 2)
    field = C.FeatureField(ctx, feature, slice(0, 12), 12)
    for ce in _aliasing_ces():
        field = C.CEField(field, ce)
    pts = _grid_20x20()
    first = field.eval(pts, (1, 0), _EXTRAS)
    kept = _owned(first)
    second = field.eval(pts, (1, 0), _EXTRAS)
    assert first.grads.keys() == {"c"}
    for got in (first, second):
        _assert_same_affine(got, kept, 12)
    arrays = [[ev.rows, ev.offset, *ev.grads.values()]
              for ev in (first, second)]
    for a in arrays[0]:
        for b in arrays[1]:
            assert not np.shares_memory(a, b)


def test_ce_rows_agree_across_row_blocks():
    # 400 rows span two row blocks; each half of them fits in one
    ctx = C.FieldContext(("x", "y"))
    feature = B.TensorFeature([B.BasisFamily("chebyshev", 5)] * 2,
                              [B.DomainMap(0.0, 1.0, -1.0, 1.0)] * 2)
    field = C.FeatureField(ctx, feature, slice(0, feature.count),
                           feature.count)
    for ce in _aliasing_ces():
        field = C.CEField(field, ce)
    pts = _grid_20x20()
    whole = field.eval(pts, (1, 0), _EXTRAS)
    halves = [field.eval(half, (1, 0), _EXTRAS)
              for half in (pts[:200], pts[200:])]
    assert whole.grads.keys() == {"c"}
    pairs = [(whole.rows, [h.rows for h in halves]),
             (whole.offset, [h.offset for h in halves])]
    pairs += [(g, [h.grads[name] for h in halves])
              for name, g in whole.grads.items()]
    for got, parts in pairs:
        np.testing.assert_allclose(got, np.concatenate(parts),
                                   rtol=1e-13, atol=1e-13)


def test_ce_gradient_is_the_offsets_slope_in_an_extra():
    # every kappa is affine in c, so the offset is too: its gradient, which
    # the outer CE sums from its kappa and from C[g], is the exact slope
    field = C.ExprField(E.parse("x^2*y + y^3"), ("x", "y"))
    for ce in _aliasing_ces():
        field = C.CEField(field, ce)
    pts = _grid_20x20()
    at = [field.eval(pts, (0, 0), {"c": c}) for c in (0.7, 1.7)]
    assert at[0].grads.keys() == {"c"}
    np.testing.assert_allclose(at[1].offset - at[0].offset,
                               at[0].grads["c"], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(at[1].grads["c"], at[0].grads["c"],
                               rtol=1e-12, atol=1e-12)


def test_ce_leaves_a_probes_arrays_unchanged():
    # the probe hands out arrays it keeps
    truth = C.ExprField(E.parse("x^2*y + y^3"), ("x", "y"))
    handed = []

    def values(p, orders):
        out = truth.eval(p, orders).offset
        handed.append((out, out.copy()))
        return out

    field = C.CallableField(values, ("x", "y"))
    for ce in _aliasing_ces():
        field = C.CEField(field, ce)
    field.eval(_grid_20x20(), (1, 0), _EXTRAS)
    assert handed
    for out, copy in handed:
        np.testing.assert_array_equal(out, copy)
