import logging
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import funcon
from funcon import solvers as S


def _hilbert(n):
    i = np.arange(1, n + 1)
    return 1.0 / (i[:, None] + i[None, :] - 1.0)


def _svd_pinv(A, b):
    """Reference for svd-pinv: the thin SVD applied explicitly, dropping
    singular values at or below max(s) * 1e-14 * max(shape)."""
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    cutoff = s.max(initial=0.0) * 1e-14 * max(A.shape)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return vt.T @ (inv * (u.T @ b))


def test_identity_system():
    b = np.array([3.0, -1.0, 2.0])
    for method in S.LSQ_METHODS:
        np.testing.assert_allclose(S.lstsq(np.eye(3), b, method), b, atol=1e-14)


def test_all_methods_agree_on_well_conditioned_systems():
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = rng.standard_normal((40, 10))
        xi_true = rng.standard_normal(10)
        b = A @ xi_true  # consistent system
        sols = [S.lstsq(A, b, m) for m in S.LSQ_METHODS]
        for s in sols:
            np.testing.assert_allclose(s, xi_true, rtol=1e-9)


def test_scaled_qr_matches_normal_equations():
    # oracle: the normal-equations solution
    rng = np.random.default_rng(1)
    A = rng.standard_normal((40, 10))
    b = rng.standard_normal(40)
    ref = S.lstsq(A, b, "normal")
    got = S.lstsq(A, b, "scaled-qr")
    np.testing.assert_allclose(got, ref, atol=1e-10)


def test_svd_beats_cholesky_on_hilbert():
    # direct residual comparison on an ill-conditioned system
    A = _hilbert(8)
    b = np.ones(8)
    r_svd = np.linalg.norm(A @ S.lstsq(A, b, "svd-pinv") - b)
    try:
        r_chol = np.linalg.norm(A @ S.lstsq(A, b, "cholesky") - b)
    except S.RankDeficientError:
        r_chol = np.inf  # cholesky of A^T A may fail outright at this conditioning
    assert r_svd <= r_chol + 1e-12


def test_rank_deficiency_raises_for_qr_and_cholesky():
    A = np.zeros((6, 3))
    A[:, 0] = 1.0
    A[:, 1] = 2.0  # duplicate direction
    A[:, 2] = np.arange(6)
    A[:, 1] = A[:, 0] * 2
    b = np.ones(6)
    for method in ("qr", "scaled-qr", "cholesky", "normal"):
        with pytest.raises(S.RankDeficientError):
            S.lstsq(A, b, method)
    # the svd path returns the min-norm solution instead
    xi = S.lstsq(A, b, "svd-pinv")
    np.testing.assert_allclose(xi, _svd_pinv(A, b), atol=1e-10)


def test_svd_pinv_cutoff_drops_below_and_keeps_above():
    # singular values 1, 2c and c/2 around the cutoff c = 1e-14 * 3
    c = 1e-14 * 3
    A = np.diag([1.0, 2 * c, c / 2])
    xi = S.lstsq(A, np.ones(3), "svd-pinv")
    assert xi[2] == 0.0
    np.testing.assert_allclose(xi[:2], [1.0, 1 / (2 * c)], rtol=1e-12)


@st.composite
def _lstsq_systems(draw):
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["tall", "square", "wide", "rank-deficient"]))
    if kind == "tall":
        m = max(m, n)
    elif kind == "square":
        m = n
    elif kind == "wide":
        m = min(m, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "rank-deficient":
        r = draw(st.integers(0, max(min(m, n) - 1, 0)))
        A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    else:
        A = rng.standard_normal((m, n))
    return A, rng.standard_normal(m)


@given(_lstsq_systems())
@settings(max_examples=200, deadline=None)
def test_svd_pinv_matches_explicit_svd_reference(system):
    # Bound, fixed before running: both routes are backward stable with
    # relative backward error at most eps_b = 10 * max(m, n) * u, so each
    # lies within Wedin's bound (Higham, Accuracy and Stability of Numerical
    # Algorithms, Thm 20.1) of the exact min-norm solution x of the kept
    # rank-r problem: kappa*eps_b/(1 - kappa*eps_b) * (2 + (kappa + 1) *
    # ||r|| / (||A|| ||x||)) * ||x||, kappa the ratio of the largest to the
    # smallest kept singular value.  The two routes differ by at most twice
    # that.  At rank 0, A is zero and both routes give exactly 0.
    A, b = system
    got = S.lstsq(A, b, "svd-pinv")
    ref = _svd_pinv(A, b)
    assert got.shape == ref.shape == (A.shape[1],)
    s = np.linalg.svd(A, compute_uv=False)
    kept = s[s > s.max(initial=0.0) * 1e-14 * max(A.shape)]
    if kept.size == 0:
        assert not got.any() and not ref.any()
        return
    kappa = kept[0] / kept[-1]
    eps_b = 10 * max(A.shape) * np.finfo(float).eps
    assert kappa * eps_b < 0.5
    x_norm = np.linalg.norm(ref)
    rho = np.linalg.norm(A @ ref - b) / (kept[0] * x_norm)
    bound = 2 * kappa * eps_b / (1 - kappa * eps_b) * (2 + (kappa + 1) * rho)
    assert np.linalg.norm(got - ref) <= bound * x_norm


def _explicit_q(A, b):
    """Reference for the QR routes: Q formed explicitly, x = R^-1 (Q^T b)."""
    q, r = np.linalg.qr(A)
    return np.linalg.solve(r, q.T @ b)


@given(_lstsq_systems().filter(lambda s: s[0].shape[0] >= s[0].shape[1]),
       st.sampled_from(["qr", "scaled-qr"]))
@settings(max_examples=200, deadline=None)
def test_qr_routes_match_explicit_q_reference(system, method):
    # Bound, fixed before running: the route and the reference are both
    # Householder QR least squares, backward stable with relative backward
    # error at most eps_b = 10 * max(m, n) * u, so each lies within Wedin's
    # bound (as in the svd-pinv test above, here at full rank) of the exact
    # solution y of the system they factor, A for qr and A D^-1 for
    # scaled-qr (D the column norms, x = D^-1 y); they differ by at most
    # twice that bound in y.  The route raises only when R's smallest
    # diagonal entry is at most eps * max(m, n) times its largest, and
    # sigma_min <= min |r_ii|, max |r_ii| <= sigma_max, so a raise needs
    # sigma_min <= 2 * eps_b * sigma_max once R's own rounding is counted.
    A, b = system
    scale = np.ones(A.shape[1])
    if method == "scaled-qr":
        scale = np.linalg.norm(A, axis=0)
        scale[scale == 0] = 1.0
    As = A / scale
    s = np.linalg.svd(As, compute_uv=False)
    eps_b = 10 * max(A.shape) * np.finfo(float).eps
    try:
        got = S.lstsq(A, b, method) * scale
    except S.RankDeficientError:
        assert s[-1] <= 2 * eps_b * s[0]
        return
    ref = _explicit_q(As, b)
    kappa = s[0] / s[-1]
    assume(kappa * eps_b < 0.5)
    y_norm = np.linalg.norm(ref)
    rho = np.linalg.norm(As @ ref - b) / (s[0] * y_norm)
    bound = 2 * kappa * eps_b / (1 - kappa * eps_b) * (2 + (kappa + 1) * rho)
    assert np.linalg.norm(got - ref) <= bound * y_norm


def test_importing_funcon_loads_no_scipy():
    # scipy.linalg would map a second OpenBLAS next to numpy's
    src = os.path.dirname(os.path.dirname(funcon.__file__))
    probe = ("import sys, funcon, funcon.cli; print(sorted(m for m in "
             "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout.strip() == "[]"


def test_underdetermined_rejected_for_square_factorizations():
    A = np.ones((2, 5))
    with pytest.raises(ValueError):
        S.lstsq(A, np.ones(2), "qr")


def test_unknown_method():
    with pytest.raises(ValueError, match="unknown"):
        S.lstsq(np.eye(2), np.ones(2), "magic")


@pytest.mark.parametrize("method", S.LSQ_METHODS)
def test_non_finite_system_gives_nan_solution(method):
    A = np.eye(3)
    A[1, 2] = np.inf
    assert np.isnan(S.lstsq(A, np.ones(3), method)).all()
    assert np.isnan(S.lstsq(np.eye(3), np.array([1.0, np.nan, 0.0]),
                            method)).all()


# ---------------------------------------------------------------------------
# Gauss-Newton

def test_non_finite_residual_stops_iteration():
    res = lambda x: np.array([np.inf * x[0] - 1.0])
    jac = lambda x: np.array([[1.0]])
    out = S.nlls(res, jac, np.array([1.0]))
    assert (out.reason, out.iterations, out.converged) == \
        ("non-finite", 0, False)


def test_scalar_root():
    # L(xi) = xi^2 - 4 from xi0 = 1 -> 2, quadratic convergence
    res = lambda x: np.array([x[0] ** 2 - 4.0])
    jac = lambda x: np.array([[2.0 * x[0]]])
    out = S.nlls(res, jac, [1.0], S.NllsConfig())
    assert abs(out.xi[0] - 2.0) < 1e-13
    assert out.iterations <= 8
    assert out.reason == "residual-inf-norm"
    assert out.residual_history[0] == pytest.approx(3.0)


def test_affine_converges_in_one_iteration():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((8, 3))
    xi_true = rng.standard_normal(3)
    b = A @ xi_true
    res = lambda x: A @ x - b
    jac = lambda x: A
    out = S.nlls(res, jac, np.zeros(3))
    assert out.iterations == 1
    assert out.reason == "residual-inf-norm"
    np.testing.assert_allclose(out.xi, xi_true, atol=1e-12)


def test_no_real_root_never_converges():
    res = lambda x: np.array([x[0] ** 2 + 1.0])
    jac = lambda x: np.array([[2.0 * x[0]]])
    # generic start: the iterates bounce forever and the residual never
    # halves from its start, so the stall stop ends the loop at the window
    out = S.nlls(res, jac, [0.7], S.NllsConfig(max_iter=50))
    assert out.reason == "stalled"
    assert out.iterations == S.STALL_WINDOW == 5
    assert not out.converged
    assert min(out.residual_history) >= 1.0
    # from exactly 1.0 Gauss-Newton lands on the stationary point xi = 0,
    # where the step vanishes; either way the residual never reaches tol
    out2 = S.nlls(res, jac, [1.0], S.NllsConfig(max_iter=50))
    assert out2.reason in ("step-inf-norm", "max-iterations")
    assert min(out2.residual_history) >= 1.0


def _scripted(norms):
    """Residual whose inf-norm at iterate k (xi = [k]) is norms[k]; the
    Jacobian steps xi by exactly 1."""
    res = lambda x: np.array([norms[int(round(x[0]))]])
    jac = lambda x: np.array([[-norms[int(round(x[0]))]]])
    return res, jac


def test_plateau_stops_stalled_at_anchor_plus_window():
    # halvings up to iteration 3 move the anchor; 0.9 * 0.1 never halves it
    norms = [10.0, 4.0, 1.0, 0.1] + [0.09, 0.06, 0.07, 0.08] * 5
    res, jac = _scripted(norms)
    out = S.nlls(res, jac, [0.0], S.NllsConfig(max_iter=50))
    assert out.reason == "stalled"
    assert out.iterations == 3 + S.STALL_WINDOW
    assert not out.converged
    assert out.residual_history == norms[:out.iterations + 1]


def test_halving_residual_never_stalls():
    # each norm is exactly half the one before, not below it, so the anchor
    # moves every second iterate, well inside the window
    norms = [2.0 ** -k for k in range(40)]
    res, jac = _scripted(norms)
    out = S.nlls(res, jac, [0.0], S.NllsConfig(tol=1e-300, max_iter=30))
    assert out.reason == "max-iterations"
    assert out.iterations == 30


def test_max_iterations_wins_over_stall():
    res, jac = _scripted([1.0] * 20)
    out = S.nlls(res, jac, [0.0], S.NllsConfig(max_iter=S.STALL_WINDOW))
    assert (out.reason, out.iterations) == ("max-iterations", S.STALL_WINDOW)
    assert not out.converged


def test_step_norm_stop_with_large_residual():
    # inconsistent affine system: best fit reached in one step, then the
    # step norm vanishes while the residual stays at 1
    A = np.array([[1.0], [1.0]])
    b = np.array([1.0, -1.0])
    res = lambda x: A @ x - b
    jac = lambda x: A
    out = S.nlls(res, jac, [0.5])
    assert out.reason == "step-inf-norm"
    assert out.residual_history[-1] == pytest.approx(1.0)


def test_first_satisfied_condition_wins():
    # residual already below tol at entry -> reason is residual, 0 iterations
    res = lambda x: np.array([0.0])
    jac = lambda x: np.array([[1.0]])
    out = S.nlls(res, jac, [1.0])
    assert out.reason == "residual-inf-norm"
    assert out.iterations == 0


def test_determinism():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((20, 4))
    b = rng.standard_normal(20)
    res = lambda x: A @ x - b + 0.01 * (x ** 2).sum()
    jac = lambda x: A + 0.02 * x[None, :].repeat(20, axis=0)
    r1 = S.nlls(res, jac, np.zeros(4), S.NllsConfig(max_iter=10))
    r2 = S.nlls(res, jac, np.zeros(4), S.NllsConfig(max_iter=10))
    np.testing.assert_array_equal(r1.xi, r2.xi)
    assert r1.residual_history == r2.residual_history


def test_config_validation():
    with pytest.raises(ValueError):
        S.NllsConfig(tol=0.0)
    with pytest.raises(ValueError):
        S.NllsConfig(max_iter=0)


# ---------------------------------------------------------------------------
# the certified QR step inside Gauss-Newton

def _one_step(A, b):
    """One Gauss-Newton step from zero on A xi = b: (step, route)."""
    out = S.nlls(lambda x: A @ x - b, lambda x: A, np.zeros(A.shape[1]),
                 S.NllsConfig(max_iter=1))
    assert out.iterations == 1
    return out.xi, out.step_routes[0]


@st.composite
def _tall_steps(draw):
    """A tall system with k live columns, m >= floor(1.6 k), zero columns
    inserted, and live singular values 1 = s_1 >= ... >= s_k:
    "full-rank": kappa up to 1e6; "above" and "below": s_k a factor
    3/2..3 above or 1/20..7/10 of the cutoff rcond * s_1; "scaled": a
    full-rank system with column norms spread over 1e-4..1e4."""
    kind = draw(st.sampled_from(["full-rank", "above", "below", "scaled"]))
    k = draw(st.integers(1 if kind in ("full-rank", "scaled") else 2, 20))
    m = draw(st.integers(8 * k // 5, 3 * k + 5))
    zeros = draw(st.integers(0, 3))
    n = k + zeros
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rcond = 1e-14 * max(m, n)
    if kind in ("above", "below"):
        lo, hi = (1.5, 3.0) if kind == "above" else (0.05, 0.7)
        s_min = draw(st.floats(lo, hi)) * rcond
    else:
        s_min = 10.0 ** -draw(st.floats(0.0, 6.0))
    s = np.geomspace(1.0, s_min, k)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((k, k)))[0]
    live_cols = (u * s) @ v.T
    if kind == "scaled":
        live_cols *= 10.0 ** rng.uniform(-4, 4, k)
    A = np.zeros((m, n))
    live = np.sort(rng.choice(n, k, replace=False))
    A[:, live] = live_cols
    return kind, A, rng.standard_normal(m), live


@given(_tall_steps())
@settings(max_examples=300, deadline=None)
def test_certified_qr_step_matches_explicit_svd_reference(system):
    # Bound, fixed before running: a certified step is the exact solution of
    # a system whose columns moved by at most eps_c ||a_j|| (Householder QR,
    # Higham Thm 19.4), a normwise perturbation of at most sqrt(n) eps_c
    # ||A||_2; eps_b = 10 max(m, n) sqrt(n) u covers it and the reference's
    # own backward error, so both lie within Wedin's bound (as in
    # test_svd_pinv_matches_explicit_svd_reference, at full live rank) of
    # the exact least-squares solution, and differ by at most twice it.
    kind, A, b, live = system
    step, route = _one_step(A, b)
    rcond = 1e-14 * max(A.shape)
    if route == "svd":
        # the fallback is xGELSD on the untouched system
        np.testing.assert_array_equal(
            step, np.linalg.lstsq(A, b, rcond=rcond)[0])
        assert kind != "full-rank"
        return
    assert route == "qr" and kind != "below"
    dead = np.setdiff1d(np.arange(A.shape[1]), live)
    assert not step[dead].any()
    # the certificate proved that the cutoff keeps every live direction
    s = np.linalg.svd(A[:, live], compute_uv=False)
    assert s[-1] > rcond * s[0]
    ref = _svd_pinv(A, b)
    kappa = s[0] / s[-1]
    eps_b = 10 * max(A.shape) * np.sqrt(A.shape[1]) * np.finfo(float).eps
    assert kappa * eps_b < 0.5
    x_norm = np.linalg.norm(ref)
    rho = np.linalg.norm(A @ ref - b) / (s[0] * x_norm)
    bound = 2 * kappa * eps_b / (1 - kappa * eps_b) * (2 + (kappa + 1) * rho)
    assert np.linalg.norm(step - ref) <= bound * x_norm


@given(st.integers(1, 20), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=100, deadline=None)
def test_near_square_jacobian_never_attempts_qr(k, seed, data):
    # m < floor(1.6 k) live-column rows, wide systems included
    m = data.draw(st.integers(1, max(8 * k // 5 - 1, 1)))
    assume(m < 8 * k // 5)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, k))
    b = rng.standard_normal(m)
    with mock.patch.object(np.linalg, "qr", side_effect=AssertionError):
        step, route = _one_step(A, b)
    assert route == "svd"
    np.testing.assert_array_equal(
        step, np.linalg.lstsq(A, b, rcond=1e-14 * max(A.shape))[0])


def test_fallback_hands_lstsq_the_callers_jacobian_unchanged():
    rng = np.random.default_rng(5)
    J = rng.standard_normal((40, 6))
    J[:, 5] = J[:, 4]  # rank 5: the certificate fails
    kept = J.copy()
    b = rng.standard_normal(40)
    seen = []
    lstsq = np.linalg.lstsq

    def spy(a, rhs, rcond=None):
        seen.append(a)
        return lstsq(a, rhs, rcond=rcond)

    with mock.patch.object(np.linalg, "lstsq", spy):
        step, route = _one_step(J, b)
    assert route == "svd"
    assert len(seen) == 1 and seen[0] is J
    np.testing.assert_array_equal(J, kept)
    np.testing.assert_array_equal(step, lstsq(kept, b, rcond=40e-14)[0])


def test_other_methods_report_their_own_route():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((30, 4))
    b = rng.standard_normal(30)
    for method in ("scaled-qr", "normal"):
        out = S.nlls(lambda x: A @ x - b, lambda x: A, np.zeros(4),
                     S.NllsConfig(max_iter=1, method=method))
        assert out.step_routes == [method]


def test_nlls_logs_one_debug_line_per_step(caplog):
    res = lambda x: np.array([x[0] ** 2 - 4.0, x[0] - 2.0])
    jac = lambda x: np.array([[2.0 * x[0]], [1.0]])
    with caplog.at_level(logging.DEBUG, logger="funcon.solvers"):
        out = S.nlls(res, jac, [1.0])
    lines = [r.getMessage() for r in caplog.records
             if r.name == "funcon.solvers"]
    assert out.converged and len(lines) == out.iterations > 0
    assert len(out.step_routes) == out.iterations
    for it, (line, norm, route) in enumerate(
            zip(lines, out.residual_history, out.step_routes)):
        assert line == (f"nlls iteration {it}: residual inf-norm "
                        f"{norm:.3e}, route {route}")
    assert out.step_routes[0] == "qr"
