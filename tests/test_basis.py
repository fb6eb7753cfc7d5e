import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcon import basis as B


def test_cgl_small_counts():
    np.testing.assert_allclose(B.cgl_nodes(3), [-1.0, 0.0, 1.0], atol=1e-16)
    np.testing.assert_array_equal(B.cgl_nodes(2), [-1.0, 1.0])


def test_cgl_five_nodes_match_direct_formula():
    # oracle: -cos(j pi / 4)
    expect = [-1.0, -math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2, 1.0]
    np.testing.assert_allclose(B.cgl_nodes(5), expect, atol=1e-15)
    z = B.cgl_nodes(40)
    assert z[0] == -1.0 and z[-1] == 1.0
    assert np.all(np.diff(z) > 0)


def test_cgl_rejects_single_point():
    with pytest.raises(ValueError):
        B.cgl_nodes(1)


def test_chebyshev_all_ones_at_right_endpoint():
    fam = B.BasisFamily("chebyshev", 4)
    row = fam.table(np.array([1.0]), 0)
    np.testing.assert_array_equal(row, [[1, 1, 1, 1, 1]])


def test_legendre_value_one_at_right_endpoint():
    fam = B.BasisFamily("legendre", 4)
    row = fam.table(np.array([1.0]), 0)
    np.testing.assert_allclose(row, 1.0, atol=1e-15)


def test_chebyshev_first_derivative_oracle():
    # dT2/dz = 4z at z = 0.5 -> 2.0; oracle: finite difference on the
    # order-0 recursion, h = 1e-7
    fam = B.BasisFamily("chebyshev", 4)
    h = 1e-7
    fd = (fam.table(np.array([0.5 + h]), 0) - fam.table(np.array([0.5 - h]), 0)) / (2 * h)
    sym = fam.table(np.array([0.5]), 1)
    assert abs(sym[0, 2] - 2.0) < 1e-14
    np.testing.assert_allclose(sym, fd, atol=1e-5)


def test_elm_init_deterministic():
    w1, b1 = B.elm_init(3, 20, 2, -1, 1)
    w2, b2 = B.elm_init(3, 20, 2, -1, 1)
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(b1, b2)


def test_elm_init_uniform_mean():
    w, b = B.elm_init(0, 100000, 1, -1, 1)
    # CLT bound: 3 sigma / sqrt(n) with sigma = 1/sqrt(3)
    assert abs(w.mean()) < 0.02
    assert w.min() >= -1 and w.max() < 1


def test_elm_init_rejects_bad_range():
    with pytest.raises(ValueError):
        B.elm_init(0, 5, 1, 1.0, -1.0)


def test_legendre_orthogonality_by_quadrature():
    # <L_i, L_j> = 2 delta_ij / (2i+1), 200-node Gauss-Legendre
    z, w = np.polynomial.legendre.leggauss(200)
    fam = B.BasisFamily("legendre", 8)
    T = fam.table(z, 0)
    G = T.T @ (w[:, None] * T)
    for i in range(9):
        for j in range(9):
            expect = 2.0 / (2 * i + 1) if i == j else 0.0
            assert abs(G[i, j] - expect) < 1e-12


def test_chebyshev_integral_identity():
    z, w = np.polynomial.legendre.leggauss(200)
    fam = B.BasisFamily("chebyshev", 10)
    T = fam.table(z, 0)
    vals = w @ T
    for k in range(11):
        expect = 0.0 if k == 1 else ((-1.0) ** k + 1) / (1 - k ** 2)
        assert abs(vals[k] - expect) < 1e-12


def test_fourier_derivative_closed_form():
    fam = B.BasisFamily("fourier", 8)
    z = np.linspace(-math.pi, math.pi, 11)
    for d in range(5):
        got = fam.table(z, d)
        # independent construction of the mod-4 shifted sin/cos table
        expect = np.zeros_like(got)
        if d == 0:
            expect[:, 0] = 1.0
        for k in range(1, 9):
            f = math.ceil(k / 2)
            base = np.sin(f * z + d * math.pi / 2) if k % 2 == 1 \
                else np.cos(f * z + d * math.pi / 2)
            expect[:, k] = f ** d * base
        np.testing.assert_allclose(got, expect, atol=1e-12)


@pytest.mark.parametrize("kind,window", [
    ("chebyshev", (-1, 1)),
    ("legendre", (-1, 1)),
    ("fourier", (-math.pi, math.pi)),
    ("laguerre", (0.05, 8.0)),
    ("hermite-prob", (-3.0, 3.0)),
    ("hermite-phys", (-3.0, 3.0)),
])
def test_derivative_recursions_match_richardson_fd(kind, window):
    fam = B.BasisFamily(kind, 10)
    rng = np.random.default_rng(5)
    z = rng.uniform(window[0] + 0.05, window[1] - 0.05, 20)
    h = 1e-4 * max(1.0, abs(window[1]))
    for d in range(1, 5):
        f = lambda t: fam.table(t, d - 1)
        coarse = (f(z + h) - f(z - h)) / (2 * h)
        fine = (f(z + h / 2) - f(z - h / 2)) / h
        rich = (4 * fine - coarse) / 3
        got = fam.table(z, d)
        scale = np.maximum(1.0, np.abs(rich))
        assert np.max(np.abs(got - rich) / scale) < 1e-7


@pytest.mark.parametrize("kind,module,prefix,window", [
    ("chebyshev", "chebyshev", "cheb", (-1.0, 1.0)),
    ("legendre", "legendre", "leg", (-1.0, 1.0)),
    ("laguerre", "laguerre", "lag", (0.0, 8.0)),
    ("hermite-prob", "hermite_e", "herme", (-3.0, 3.0)),
    ("hermite-phys", "hermite", "herm", (-3.0, 3.0)),
])
def test_polynomial_tables_match_numpy(kind, module, prefix, window):
    # d-th derivative of basis function k: the vander matrix of degree m - d
    # times the d-times differentiated unit coefficient vectors
    poly = getattr(np.polynomial, module)
    vander, der = getattr(poly, prefix + "vander"), getattr(poly, prefix + "der")
    m = 12
    z = np.random.default_rng(7).uniform(*window, 50)
    for d in range(5):
        want = vander(z, m - d) @ der(np.eye(m + 1), d)
        got = B.BasisFamily(kind, m).table(z, d)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def test_chain_rule_scaling():
    fam = B.BasisFamily("chebyshev", 6)
    dmap = B.DomainMap(0.0, 2.0, -1.0, 1.0)
    x = np.linspace(0, 2, 9)
    for d in range(4):
        native = fam.table(dmap.to_basis(x), d)
        problem = B.eval_basis(fam, dmap, x, d)
        np.testing.assert_allclose(problem, native * dmap.slope ** d, rtol=1e-14)


def test_domain_map_round_trip():
    dmap = B.DomainMap(1.0, 4.0, -1.0, 1.0)
    x = np.linspace(1, 4, 7)
    np.testing.assert_allclose(dmap.to_problem(dmap.to_basis(x)), x, atol=1e-14)
    assert dmap.slope > 0
    with pytest.raises(ValueError):
        B.DomainMap(2.0, 1.0, -1.0, 1.0)


def test_eval_basis_errors():
    fam = B.BasisFamily("chebyshev", 4)
    dmap = B.DomainMap.identity()
    with pytest.raises(ValueError, match="outside"):
        B.eval_basis(fam, dmap, [1.5], 0)
    with pytest.raises(ValueError, match="order"):
        B.eval_basis(fam, dmap, [0.5], -1)
    with pytest.raises(ValueError, match="removal"):
        B.BasisFamily("chebyshev", 4, removal=6)


def test_removal_specs():
    # a spec normalizes to the index set that TensorFeature's multi-index
    # rule reads; the 1-D table keeps every column
    fam = B.BasisFamily("chebyshev", 4, removal=2)
    dmap = B.DomainMap.identity()
    full = B.eval_basis(fam, dmap, [0.3], 0)
    assert full.shape == (1, 5) and fam.removal == (0, 1)
    fam2 = B.BasisFamily("chebyshev", 4, removal=(1, 3))
    assert fam2.removal == (1, 3)
    # -1 means no removal
    fam3 = B.BasisFamily("chebyshev", 4, removal=-1)
    assert fam3.removal == ()


def test_tensor_retained_counts_match_reference_table():
    # 2-D expansion, two constraints per dimension: degree -> retained count
    expected = {5: 17, 10: 62, 15: 132, 20: 227, 25: 347}
    maps = [B.DomainMap(0, 1, -1, 1)] * 2
    for m, count in expected.items():
        fams = [B.BasisFamily("chebyshev", m, removal=2)] * 2
        feat = B.TensorFeature(fams, maps, total_degree=m)
        assert feat.count == count


def test_tensor_retained_counts_3d():
    # 3-D wave-equation expansion counts (two constraints per dimension)
    expected = {3: 12, 6: 76, 9: 212, 12: 447, 15: 808, 18: 1322}
    maps = [B.DomainMap(0, 1, -1, 1)] * 3
    for m, count in expected.items():
        fams = [B.BasisFamily("chebyshev", m, removal=2)] * 3
        feat = B.TensorFeature(fams, maps, total_degree=m)
        assert feat.count == count


# a finite window of each family's native domain for the problem interval
_WINDOWS = {"chebyshev": (-1.0, 1.0), "legendre": (-1.0, 1.0),
            "fourier": (-math.pi, math.pi), "laguerre": (0.0, 6.0),
            "hermite-prob": (-3.0, 3.0), "hermite-phys": (-3.0, 3.0)}


@st.composite
def _tensor_cases(draw):
    """(feature, points, orders, coef): 1-3 dimensions, each of any family,
    degree 0-8 and removal set, an optional total-degree cap, orders 0-3,
    and points on a mesh, scattered with repeated coordinates, or single."""
    dims = draw(st.integers(1, 3))
    fams, maps = [], []
    for _ in range(dims):
        kind = draw(st.sampled_from(sorted(_WINDOWS)))
        degree = draw(st.integers(0, 8))
        removal = draw(st.sets(st.integers(0, degree)))
        fams.append(B.BasisFamily(kind, degree, tuple(removal)))
        maps.append(B.DomainMap(-0.5, 2.0, *_WINDOWS[kind]))
    feat = B.TensorFeature(fams, maps, draw(st.none() | st.integers(0, 12)))
    orders = tuple(draw(st.integers(0, 3)) for _ in range(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a few coordinates per dimension, endpoints included
    pools = [np.concatenate([[-0.5, 2.0], rng.uniform(-0.5, 2.0, 3)])
             for _ in range(dims)]
    layout = draw(st.sampled_from(["mesh", "scattered", "single"]))
    if layout == "mesh":
        axes = [rng.choice(pool, draw(st.integers(1, 4)), replace=False)
                for pool in pools]
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([g.ravel() for g in grid])
    else:
        n = 1 if layout == "single" else draw(st.integers(2, 30))
        pts = np.column_stack([rng.choice(pool, n) for pool in pools])
    return feat, pts, orders, rng.normal(size=feat.count)


def _rows_by_point(feat, pts, orders):
    """Reference rows: per point, the product of the 1-D table entries."""
    rows = np.empty((pts.shape[0], feat.count))
    for p, x in enumerate(pts):
        tables = [B.eval_basis(fam, dmap, x[k], orders[k])[0]
                  for k, (fam, dmap) in enumerate(zip(feat.families,
                                                      feat.maps))]
        for c, idx in enumerate(feat.indices):
            value = 1.0
            for k, i in enumerate(idx):
                value *= tables[k][i]
            rows[p, c] = value
    return rows


@given(_tensor_cases())
@settings(max_examples=150, deadline=None)
def test_tensor_rows_equal_per_point_products(case):
    feat, pts, orders, _ = case
    np.testing.assert_array_equal(feat.eval(pts, orders),
                                  _rows_by_point(feat, pts, orders))


@given(_tensor_cases())
@settings(max_examples=150, deadline=None)
def test_tensor_values_match_rows_within_dot_product_bound(case):
    feat, pts, orders, coef = case
    rows = feat.eval(pts, orders)
    # the contraction reorders a sum of count products of d + 1 factors
    bound = ((feat.count + len(orders)) * np.finfo(float).eps
             * (np.abs(rows) @ np.abs(coef)))
    got = feat.values(pts, orders, coef)
    assert got.shape == (pts.shape[0],)
    assert np.all(np.abs(got - rows @ coef) <= bound)


def test_tensor_eval_holds_no_second_full_size_array():
    # eval holds its (n, count) result, one ROW_BLOCK-row block of a
    # gathered factor and the gathered 1-D tables (n x 13 each): about 1.4
    # results here.  A full-size gathered factor is a second result.
    fams = [B.BasisFamily("chebyshev", 12), B.BasisFamily("chebyshev", 12)]
    feat = B.TensorFeature(fams, [B.DomainMap(0, 1, -1, 1)] * 2)
    x = np.linspace(0, 1, 40)
    pts = np.column_stack([g.ravel() for g in np.meshgrid(x, x)])
    tracemalloc.start()
    try:
        rows = feat.eval(pts, (1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (1600, 169)
    assert peak <= 1.6 * rows.nbytes


def test_tensor_feature_values_are_products():
    maps = [B.DomainMap(0, 1, -1, 1), B.DomainMap(0, 2, -1, 1)]
    fams = [B.BasisFamily("chebyshev", 3), B.BasisFamily("chebyshev", 3)]
    feat = B.TensorFeature(fams, maps, total_degree=3)
    pts = np.array([[0.3, 1.1], [0.9, 0.2]])
    vals = feat.eval(pts, (0, 0))
    for c, (i, j) in enumerate(feat.indices):
        ti = B.eval_basis(fams[0], maps[0], pts[:, 0], 0)[:, i]
        tj = B.eval_basis(fams[1], maps[1], pts[:, 1], 0)[:, j]
        np.testing.assert_allclose(vals[:, c], ti * tj, rtol=1e-14)


def test_elm_feature_derivatives_match_fd():
    fam = B.ElmFamily("tanh", 25, 2, seed=1)
    maps = [B.DomainMap(0, 1, 0, 1), B.DomainMap(0, 1, 0, 1)]
    feat = B.ElmFeature(fam, maps)
    pts = np.array([[0.4, 0.7]])
    h = 1e-6
    for orders in [(1, 0), (0, 1), (2, 0), (1, 1)]:
        lower = tuple(d - 1 if k == 0 and orders[0] else d
                      for k, d in enumerate(orders))
        if orders == (0, 1):
            lower = (0, 0)
            step = np.array([[0.0, h]])
        else:
            step = np.array([[h, 0.0]])
            lower = (orders[0] - 1, orders[1])
        fd = (feat.eval(pts + step, lower) - feat.eval(pts - step, lower)) / (2 * h)
        got = feat.eval(pts, orders)
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("act", ["sin", "tanh", "sigmoid", "swish", "relu"])
def test_activation_derivatives(act):
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, 50)
    x = x[np.abs(x) > 1e-3]  # keep relu away from its kink
    h = 1e-5
    top = 2 if act == "relu" else 4
    for d in range(1, top + 1):
        fd = (B._activation_deriv(act, x + h, d - 1)
              - B._activation_deriv(act, x - h, d - 1)) / (2 * h)
        got = B._activation_deriv(act, x, d)
        if act == "relu" and d >= 2:
            np.testing.assert_array_equal(got, 0.0)
        else:
            np.testing.assert_allclose(got, fd, atol=1e-6)


def _sigmoid_ref(x):
    return 1.0 / (1.0 + np.exp(-x))


def _tanh_sech2(x):
    t = np.tanh(x)
    return t, 1.0 - t * t


def _sig(x, d):
    s = _sigmoid_ref(x)
    return [s, s * (1 - s), s * (1 - s) * (1 - 2 * s),
            s * (1 - s) * (1 - 6 * s + 6 * s * s),
            s * (1 - s) * (1 - 2 * s) * (1 - 12 * s + 12 * s * s)][d]


# reference activation derivatives, d = 0..4, in the closed forms and the
# operation order of the implementation; tanh forms sech^2 at every order
_ACTIVATION_REF = {
    "sin": lambda x, d: [np.sin, np.cos, lambda t: -np.sin(t),
                         lambda t: -np.cos(t)][d % 4](x),
    "tanh": lambda x, d: (lambda t, s: [
        t, s, -2.0 * t * s, s * (4.0 * t * t - 2.0 * s),
        t * s * (16.0 * s - 8.0 * t * t)][d])(*_tanh_sech2(x)),
    "sigmoid": _sig,
    "swish": lambda x, d: x * _sigmoid_ref(x) if d == 0
    else x * _sig(x, d) + d * _sig(x, d - 1),
    "relu": lambda x, d: [np.maximum(x, 0.0), (x > 0).astype(float)][d]
    if d < 2 else np.zeros_like(x),
}


@pytest.mark.parametrize("act", sorted(_ACTIVATION_REF))
@pytest.mark.parametrize("d", range(5))
def test_activation_values_equal_reference_bit_for_bit(act, d):
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-30, 30, 200), [0.0, -0.0, 1e-300]])
    np.testing.assert_array_equal(B._activation_deriv(act, x, d),
                                  _ACTIVATION_REF[act](x, d))


def _recurrence_loop(kind, z, m, d):
    """Reference: the three-term recursion stepped one derivative order q
    at a time, over a (d+1, len(z), m+1) table."""
    z = np.asarray(z, dtype=float)
    tab = np.zeros((d + 1, z.shape[0], m + 1))
    tab[0, :, 0] = 1.0
    for k in range(m):
        alpha, beta, s, c = B._THREE_TERM[kind](k)
        w = beta + alpha * z
        for q in range(d + 1):
            lower = tab[q - 1, :, k] if q >= 1 else 0.0
            prev = tab[q, :, k - 1] if k >= 1 else 0.0
            nxt = w * tab[q, :, k]
            nxt += (q * alpha) * lower
            nxt *= s
            nxt -= c * prev
            tab[q, :, k + 1] = nxt
    return tab[d]


@pytest.mark.parametrize("kind", sorted(B._THREE_TERM))
@pytest.mark.parametrize("d", range(5))
def test_recurrence_table_equals_per_order_loop(kind, d):
    # the same operations in the same order per entry: bit-for-bit equal
    rng = np.random.default_rng(4)
    z = np.concatenate([[-1.0, 1.0, 0.0], np.sort(rng.uniform(-1, 1, 9)),
                        rng.uniform(0.0, 3.0, 4)])
    for m in (0, 1, 7, 40):
        got = B._recurrence_table(kind, z, m, d)
        assert got.shape == (z.size, m + 1) and got.flags.c_contiguous
        np.testing.assert_array_equal(got, _recurrence_loop(kind, z, m, d))


def test_native_domains_table():
    assert B.NATIVE_DOMAINS["chebyshev"] == (-1.0, 1.0)
    assert B.NATIVE_DOMAINS["legendre"] == (-1.0, 1.0)
    assert B.NATIVE_DOMAINS["fourier"] == (-math.pi, math.pi)
    assert B.NATIVE_DOMAINS["laguerre"][0] == 0.0
    assert math.isinf(B.NATIVE_DOMAINS["laguerre"][1])
    assert math.isinf(B.NATIVE_DOMAINS["hermite-prob"][0])
