import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcon import exprfn as E


def test_parse_product_of_two_calls():
    e = E.parse("sin(pi*x)*cos(pi*t)")
    assert isinstance(e, E.Bin) and e.op == "*"
    assert isinstance(e.left, E.Call) and e.left.fn == "sin"
    assert isinstance(e.right, E.Call) and e.right.fn == "cos"


def test_parse_true_solution_expression():
    e = E.parse("exp(-x)*(x + y^3)")
    assert E.evaluate(e, {"x": 0.0, "y": 1.0}) == pytest.approx(1.0, abs=1e-15)


def test_parse_error_offset_and_expected():
    with pytest.raises(E.ExprSyntaxError) as err:
        E.parse("x +* 2")
    assert err.value.offset == 3
    assert err.value.expected  # non-empty expected-token set


def test_overflowing_literal_rejected():
    with pytest.raises(E.ExprSyntaxError, match="overflows") as err:
        E.parse("y_x + 1e400*y")
    assert err.value.offset == 6


def test_unknown_function_rejected():
    with pytest.raises(E.ExprSyntaxError, match="unknown function"):
        E.parse("foo(x)")


def test_evaluate_constants():
    assert E.evaluate(E.parse("pi"), {}) == pytest.approx(math.pi, abs=0)
    assert E.evaluate(E.parse("e"), {}) == pytest.approx(math.e, abs=0)


def test_evaluate_boundary_layer_solution_at_endpoint():
    # analytic convection-diffusion solution: y(1) = 0
    e = E.parse("(1 - exp(Pe*(x-1)))/(1 - exp(-Pe))")
    assert E.evaluate(e, {"Pe": 1.0, "x": 1.0}) == 0.0


def test_unbound_variable_error():
    with pytest.raises(E.ExprEvalError, match="unbound variable 'q'"):
        E.evaluate(E.parse("q + 1"), {})


@pytest.mark.parametrize("src,binds", [
    ("ln(x)", {"x": -1.0}),
    ("ln(x)", {"x": 0.0}),
    ("1/x", {"x": 0.0}),
    ("sqrt(x)", {"x": -4.0}),
    ("x^0.5", {"x": -4.0}),
    ("x^(-1)", {"x": 0.0}),
    ("10^400", {}),  # overflows the float range
    ("sign(x)", {"x": 0.0}),
])
def test_domain_errors_raise(src, binds):
    with pytest.raises(E.ExprEvalError):
        E.evaluate(E.parse(src), binds)


def test_array_evaluation():
    e = E.parse("sin(x)*y")
    x = np.linspace(0, 1, 5)
    out = E.evaluate(e, {"x": x, "y": 2.0})
    assert np.allclose(out, np.sin(x) * 2.0)


def test_differentiate_power():
    d = E.differentiate(E.parse("x^2"), "x")
    assert d == E.parse("2*x")


def test_differentiate_order_zero_identity():
    e = E.parse("sin(x) + x^3")
    assert E.differentiate(e, "x", 0) is e


def test_derivative_of_boundary_function_at_zero():
    # oracle: central finite difference, h = 1e-6
    e = E.parse("y^2*sin(pi*y)")
    f = lambda y: E.evaluate(e, {"y": y})
    h = 1e-6
    fd = (f(h) - f(-h)) / (2 * h)
    d = E.differentiate(e, "y")
    val = E.evaluate(d, {"y": 0.0})
    assert abs(val - fd) < 1e-6
    assert val == pytest.approx(0.0, abs=1e-12)


def test_second_derivative_of_sine():
    d2 = E.differentiate(E.parse("sin(pi*x)"), "x", 2)
    rng = np.random.default_rng(0)
    for x in rng.uniform(-2, 2, 10):
        expect = -math.pi ** 2 * math.sin(math.pi * x)
        assert E.evaluate(d2, {"x": x}) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("fn", E.FUNCTIONS)
def test_every_function_derivative_matches_central_differences(fn):
    # oracle: central differences with h = 1e-6, whose error (about
    # h^2 |f'''| + eps/h) stays under 1e-9 here.  u = 2x + 0.1 runs over
    # [0.3, 1.1], inside every domain (ln, sqrt and sign need u > 0, and
    # tan's pole is at pi/2); the factor 2 checks the chain rule
    e = E.parse(f"{fn}(2*x + 0.1)")
    x = np.linspace(0.1, 0.5, 5)
    h = 1e-6
    fd = (E.evaluate(e, {"x": x + h}) - E.evaluate(e, {"x": x - h})) / (2 * h)
    sym = E.evaluate(E.differentiate(e, "x"), {"x": x})
    np.testing.assert_allclose(sym, fd, rtol=1e-7, atol=1e-7)


def test_abs_derivative_flagged_at_zero():
    d = E.differentiate(E.parse("abs(x)"), "x")
    assert E.evaluate(d, {"x": 2.0}) == 1.0
    assert E.evaluate(d, {"x": -2.0}) == -1.0
    with pytest.raises(E.ExprEvalError, match="not differentiable"):
        E.evaluate(d, {"x": 0.0})


def test_partial_tag_canonicalization():
    assert E.canonical_partial_name("u_yx") == "u_xy"
    assert E.canonical_partial_name("u_xxyy") == "u_xxyy"
    assert E.split_partial_tag("u_xxy") == ("u", {"x": 2, "y": 1})
    assert E.split_partial_tag("theta") == ("theta", {})
    # u_yx and u_xy bind to the same slot
    e = E.parse("u_yx - u_xy")
    assert E.evaluate(e, {"u_xy": 3.5}) == 0.0


def _canonical_by_regex(name):
    """Reference for ``canonical_partial_name``: the tag regex on every name."""
    m = E._PARTIAL_RE.match(name)
    return name if m is None else m.group(1) + "_" + "".join(
        sorted(m.group(2)))


@given(st.one_of(
    st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,3}(_[A-Za-z]{1,4})?", fullmatch=True),
    st.text(alphabet="uvxyzAB09_ .", max_size=8)))
@settings(max_examples=300, deadline=None)
def test_canonical_partial_name_matches_the_regex_on_every_name(name):
    # names without "_" return before the regex; the result is the same
    assert E.canonical_partial_name(name) == _canonical_by_regex(name)
    for tag, canon in (("u_yx", "u_xy"), ("theta", "theta"), ("u_", "u_")):
        assert E.canonical_partial_name(tag) == canon


def test_mixed_partial_symmetry_numeric():
    e = E.parse("sin(x*y) + x^2*y^3 + exp(x - y)")
    dxy = E.differentiate(E.differentiate(e, "x"), "y")
    dyx = E.differentiate(E.differentiate(e, "y"), "x")
    rng = np.random.default_rng(1)
    for _ in range(20):
        b = {"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 1)}
        assert E.evaluate(dxy, b) == pytest.approx(E.evaluate(dyx, b), rel=1e-10)


def test_substitute():
    e = E.parse("x^2 + sin(x)")
    s = E.substitute(e, "x", E.parse("2*t"))
    assert E.evaluate(s, {"t": 0.5}) == pytest.approx(1.0 + math.sin(1.0))


# ---------------------------------------------------------------------------
# random-expression generator for the derivative property and round-trips

_FUNCS = ("sin", "cos", "tanh", "exp", "sinh", "cosh")


def _random_expr(rng, depth, vars_=("x", "y")):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.integers(0, 3)
        if kind == 0:
            return E.Num(float(np.round(rng.uniform(-3, 3), 3)))
        if kind == 1:
            return E.Var(str(rng.choice(vars_)))
        return E.Const(str(rng.choice(["pi", "e"])))
    op = rng.integers(0, 6)
    if op < 3:
        return E.Bin("+-*"[op], _random_expr(rng, depth - 1, vars_),
                     _random_expr(rng, depth - 1, vars_))
    if op == 3:
        return E.Neg(_random_expr(rng, depth - 1, vars_))
    if op == 4:
        # bounded-argument call keeps evaluation well away from singularities
        inner = _random_expr(rng, depth - 1, vars_)
        return E.Call(str(rng.choice(_FUNCS)), E.Call("tanh", inner))
    return E.Bin("^", E.Call("cosh", _random_expr(rng, depth - 2 if depth > 1 else 0, vars_)),
                 E.Num(float(rng.integers(1, 3))))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_derivative_matches_finite_differences_1000_random_exprs():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(1000):
        e = _random_expr(rng, int(rng.integers(1, 7)))
        d = E.differentiate(e, "x")
        x0, y0 = rng.uniform(-1, 1, 2)
        h = 1e-6

        def f(x):
            return E.evaluate(e, {"x": x, "y": y0})

        try:
            fd = (f(x0 + h) - f(x0 - h)) / (2 * h)
            sym = E.evaluate(d, {"x": x0, "y": y0})
        except E.ExprEvalError:
            continue
        if not (np.isfinite(fd) and np.isfinite(sym)):
            continue
        scale = max(1.0, abs(fd), abs(f(x0)))
        assert abs(sym - fd) / scale < 1e-5, E.to_source(e)
        checked += 1
    assert checked > 900


def test_print_parse_round_trip_structural():
    # printer/parser stability on parser-normalized ASTs (simplification is
    # applied by construction, so raw generator nodes normalize first)
    rng = np.random.default_rng(7)
    for _ in range(300):
        raw = _random_expr(rng, int(rng.integers(1, 6)))
        e = E.parse(E.to_source(raw))
        assert E.parse(E.to_source(e)) == e, E.to_source(raw)


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_totality(source):
    # any byte string either parses or raises a positioned syntax error
    try:
        E.parse(source)
    except E.ExprSyntaxError as err:
        assert 0 <= err.offset <= len(source.encode("utf-8", "ignore")) + 1


def test_concurrent_evaluation_is_reentrant():
    # expressions are immutable; parallel evaluation must agree with serial
    from concurrent.futures import ThreadPoolExecutor

    e = E.parse("sin(x)*exp(-x^2) + tanh(3*x)")
    xs = np.linspace(-2, 2, 64)
    serial = [E.evaluate(e, {"x": x}) for x in xs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda x: E.evaluate(e, {"x": x}), xs))
    assert serial == parallel


def test_round_trip_of_parsed_sources():
    for src in ["sin(pi*x)*cos(pi*t)", "exp(-x)*(x + y^3)", "x - -3",
                "2^-3", "-x^2", "(x + y)/(x - y)", "1/r^3*u_r"]:
        e = E.parse(src)
        assert E.parse(E.to_source(e)) == e
