"""Linear least-squares variants and the Gauss-Newton iterative solver.

The iterative loop is plain Gauss-Newton: solve J dxi = -L each step, no
damping or line search; divergence control (e.g. clamped unknowns) is the
caller's job.  Stopping conditions, in order: a non-finite residual,
residual infinity norm below tol, step infinity norm below tol, iteration
count past max_iter, and a stall (``STALL_WINDOW`` iterations without the
residual infinity norm halving).  Only the residual and step stops,
``CONVERGED_REASONS``, count as converged; "max-iterations", "stalled" and
"non-finite" do not.

Every least-squares route runs on numpy's own LAPACK (``np.linalg``);
svd-pinv is LAPACK's divide-and-conquer least squares, xGELSD, and the QR
routes factor [A | b] once, in R-only mode, so Q is never formed.  funcon
imports no scipy: ``scipy.linalg`` would map a second OpenBLAS, with its own
load time, memory and thread pool, into every process that imports funcon.

Where each route runs: ``lstsq`` runs exactly the method it is given.
``nlls`` under svd-pinv first tries a certified QR step on a tall Jacobian
(``_certified_qr_step``): when the R factor proves that the cutoff drops no
singular value, the min-norm solution is the unique least-squares solution
and the QR solve gives it, with route "qr"; every other Jacobian goes to
``lstsq`` untouched, route "svd".  ``NllsResult.step_routes`` records the
route of each step, and each step logs one DEBUG line.  Linear solves never
take the QR step: their tensor systems carry dead columns of rounding size
and their ELM systems are rank-deficient, so the certificate would fail and
only add its cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CONVERGED_REASONS",
    "LSQ_METHODS",
    "RankDeficientError",
    "lstsq",
    "NllsConfig",
    "NllsResult",
    "STALL_WINDOW",
    "nlls",
]

LSQ_METHODS = ("normal", "qr", "scaled-qr", "svd-pinv", "cholesky")

# the Gauss-Newton stop reasons that count as converged
CONVERGED_REASONS = ("residual-inf-norm", "step-inf-norm")

# Gauss-Newton iterations without the residual inf-norm halving before it
# stops as "stalled"; ``nlls`` says why 5
STALL_WINDOW = 5

# The certified QR step's margin over the svd-pinv cutoff.  Householder QR
# (column scaling included) returns the exact R factor of A + dA with
# ||da_j|| <= g ||a_j|| for each column, g = c0*m*k*u with u the unit
# roundoff and c0 a small integer (Higham, Accuracy and Stability of
# Numerical Algorithms, Thm 19.4).  So ||dA||_2 <= g ||A||_F, and with
# U = ||RD||_F, sigma_max(A) <= U (1 + g) and sigma_min(A) >=
# 1/||D^-1 R^-1||_F - g U (1 + g).  The cutoff keeps every singular value
# when sigma_min(A) > rcond sigma_max(A), which the certificate
# 1/||D^-1 R^-1||_F > c rcond U implies once c >= 1 + g/rcond + O(g).  With
# rcond = 1e-14 max(m, n) and m <= max(m, n), g/rcond <= c0 k u/1e-14 =
# 0.011 c0 k.  c = 1e3 covers that worst case up to c0 k = 9e4 columns,
# far past the widest system funcon assembles (an ELM layout, 650 columns).
# The inverse that gives the bound has relative error about kappa(R) k u
# (Higham ch. 8); once the certificate holds that is at most about
# 0.011 sqrt(k)/c, since column scaling keeps kappa(R) within sqrt(k) of
# kappa(RD) (van der Sluis), so it needs no margin of its own.
_CERTIFY_MARGIN = 1e3


class RankDeficientError(np.linalg.LinAlgError):
    pass


def _qr_solve(A, b):
    # one QR of [A | b], Q never formed: R is the leading n x n block and
    # Q^T b the first n entries of column n
    n = A.shape[1]
    rb = np.linalg.qr(np.column_stack([A, b]), mode="r")
    r = rb[:n, :n]
    d = np.abs(np.diag(r))
    if d.min() <= d.max() * np.finfo(float).eps * max(A.shape):
        raise RankDeficientError("rank-deficient matrix in QR path")
    # R is zero below its diagonal, so LU's partial pivoting swaps no rows
    return np.linalg.solve(r, rb[:n, n])


def _svd_rcond(shape):
    # svd-pinv drops singular values at or below max(s) times this
    return 1e-14 * max(shape)


def _certified_qr_step(A, b):
    """svd-pinv's solution of a tall A xi = b through one QR, or None.

    A counts as tall when m >= floor(1.6 k), k its nonzero columns: xGELSD's
    own crossover (ILAENV ispec 6), past which LAPACK also starts from a QR
    of A.  Zero columns get exactly 0, as in the min-norm solution.  The
    others are factored column-scaled as in scaled-qr, [A D^-1 | b] = QR,
    and the step is solved with R.  It is returned only when
    1/||D^-1 R^-1||_F > c rcond ||RD||_F (c = ``_CERTIFY_MARGIN``) proves
    that the cutoff drops nothing, so that the min-norm solution is the
    unique least-squares solution; R^-1 serves only this bound.  Two cheaper
    tests return None early, each a proof that the certificate fails:
    sigma_min <= min ||a_j|| and sigma_min(RD) <= min |r_jj d_j|.  None for
    every other A, including a non-finite one.
    """
    m, n = A.shape
    live = A.any(axis=0)
    k = int(np.count_nonzero(live))
    if k == 0 or m < 8 * k // 5 or not np.isfinite(b).all():
        return None
    d = np.linalg.norm(A, axis=0)[live]
    rcond = _svd_rcond(A.shape)
    # false for a NaN or infinite norm too
    if not d.min() > rcond * d.max():
        return None
    ab = np.empty((m, k + 1))
    np.divide(A if k == n else A[:, live], d, out=ab[:, :k])
    ab[:, k] = b
    rb = np.linalg.qr(ab, mode="r")
    r = rb[:k, :k]
    rd = np.abs(np.diagonal(r)) * d
    if not rd.min() > rcond * rd.max():
        return None
    lower = 1.0 / np.linalg.norm(np.linalg.inv(r) / d[:, None])
    if not lower > _CERTIFY_MARGIN * rcond * np.linalg.norm(r * d):
        return None
    xi = np.zeros(n)
    # R is zero below its diagonal, so LU's partial pivoting swaps no rows
    xi[live] = np.linalg.solve(r, rb[:k, k]) / d
    return xi


def lstsq(A: np.ndarray, b: np.ndarray, method: str = "scaled-qr") -> np.ndarray:
    """Minimize ||A xi - b||_2.

    scaled-qr rescales columns by their inverse 2-norms before factorization
    and unscales the solution; svd-pinv is the SVD route for rank-deficient
    and ill-conditioned systems (singular values at or below
    max(s)*1e-14*max(shape) are dropped, min-norm solution).  svd-pinv calls
    xGELSD through ``np.linalg.lstsq``: it applies the SVD's factors to b
    without forming U or V^T, with the same cutoff through ``rcond``.
    A system with a non-finite entry has an all-NaN solution on every route.
    """
    if method not in LSQ_METHODS:
        raise ValueError(f"unknown least-squares method {method!r}; "
                         f"options: {LSQ_METHODS}")
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if method in ("qr", "cholesky", "scaled-qr") and A.shape[0] < A.shape[1]:
        raise ValueError(f"{method} path needs rows >= cols, got {A.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        return np.full(A.shape[1], np.nan)
    if method == "qr":
        return _qr_solve(A, b)
    if method == "scaled-qr":
        norms = np.linalg.norm(A, axis=0)
        norms[norms == 0] = 1.0
        return _qr_solve(A / norms, b) / norms
    if method == "svd-pinv":
        return np.linalg.lstsq(A, b, rcond=_svd_rcond(A.shape))[0]
    # normal or cholesky: numpy's LinAlgError on a singular A^T A, named
    try:
        if method == "normal":
            return np.linalg.solve(A.T @ A, A.T @ b)
        c = np.linalg.cholesky(A.T @ A)
    except np.linalg.LinAlgError as err:
        raise RankDeficientError(str(err)) from err
    return np.linalg.solve(c.T, np.linalg.solve(c, A.T @ b))


@dataclass
class NllsConfig:
    tol: float = 1e-13
    max_iter: int = 50
    method: str = "svd-pinv"

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class NllsResult:
    xi: np.ndarray
    iterations: int
    # one of ``CONVERGED_REASONS`` (converged);
    # max-iterations | stalled | non-finite (not converged)
    reason: str
    residual_history: list = field(default_factory=list)
    # least-squares route per step: "qr" (certified QR step) or "svd"
    # (xGELSD) under svd-pinv, the method's name under any other method
    step_routes: list = field(default_factory=list)

    @property
    def converged(self):
        return self.reason in CONVERGED_REASONS


def nlls(residual, jacobian, xi0, config: NllsConfig = None) -> NllsResult:
    """Gauss-Newton iteration xi <- xi + dxi with J dxi = -L by least squares.

    Stall stop: the anchor is iteration 0 at first, and moves to each
    iteration whose residual inf-norm is below half of the anchor's; the
    loop stops with reason "stalled", not converged, when it is
    ``STALL_WINDOW`` iterations past the anchor.  Why 5: inside its basin,
    Gauss-Newton on a consistent problem reduces the residual at least
    linearly, and quadratically at full rank, so the residual halves within
    a step or two.  Five steps without one halving mean the iterate sits at
    the rounding floor of the residual or outside the basin, and the same
    undamped step will not help.  Unlike the step test at the rounding
    floor, the stall test needs no norm to cross a tolerance by chance, so
    rounding (say, of another BLAS thread count) does not decide whether it
    fires.

    Each step logs one DEBUG line: the iteration, the residual inf-norm of
    the iterate it steps from, and the least-squares route.
    """
    # imported here, not with funcon: the linear solves never log, and with
    # ``logging`` (and the ``string`` and ``traceback`` modules it loads)
    # imported at module level, the tensor-poly and elm-features benchmark
    # workloads read 0.2-0.3 MB more peak RSS in 10 of 10 runs each
    import logging
    log = logging.getLogger(__name__)
    config = config or NllsConfig()
    xi = np.atleast_1d(np.asarray(xi0, dtype=float)).copy()
    history = []
    routes = []
    it = 0
    anchor = 0
    dxi = None
    while True:
        L = np.atleast_1d(np.asarray(residual(xi), dtype=float))
        history.append(float(np.abs(L).max()))
        if history[-1] < 0.5 * history[anchor]:
            anchor = it
        # stopping conditions, checked in order each pass
        if not np.isfinite(L).all():
            return NllsResult(xi, it, "non-finite", history, routes)
        if history[-1] < config.tol:
            return NllsResult(xi, it, "residual-inf-norm", history, routes)
        if dxi is not None and np.abs(dxi).max() < config.tol:
            return NllsResult(xi, it, "step-inf-norm", history, routes)
        if it >= config.max_iter:
            return NllsResult(xi, it, "max-iterations", history, routes)
        if it - anchor >= STALL_WINDOW:
            return NllsResult(xi, it, "stalled", history, routes)
        J = np.atleast_2d(np.asarray(jacobian(xi), dtype=float))
        dxi = None
        if config.method == "svd-pinv":
            dxi = _certified_qr_step(J, -L)
        if dxi is not None:
            routes.append("qr")
        else:
            dxi = lstsq(J, -L, method=config.method)
            routes.append("svd" if config.method == "svd-pinv"
                          else config.method)
        log.debug("nlls iteration %d: residual inf-norm %.3e, route %s",
                  it, history[-1], routes[-1])
        xi = xi + dxi
        it += 1
