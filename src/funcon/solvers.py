"""Linear least-squares variants and the Gauss-Newton iterative solver.

The iterative loop is plain Gauss-Newton: solve J dxi = -L each step, no
damping or line search; divergence control (e.g. clamped unknowns) is the
caller's job.  Stopping conditions, in order: a non-finite residual,
residual infinity norm below tol, step infinity norm below tol, iteration
count past max_iter, and a stall (``STALL_WINDOW`` iterations without the
residual infinity norm halving).  Only the residual and step stops count as
converged; "max-iterations", "stalled" and "non-finite" do not.

Every least-squares route runs on numpy's own LAPACK (``np.linalg``);
svd-pinv is LAPACK's divide-and-conquer least squares, xGELSD, and the QR
routes factor [A | b] once, in R-only mode, so Q is never formed.  funcon
imports no scipy: ``scipy.linalg`` would map a second OpenBLAS, with its own
load time, memory and thread pool, into every process that imports funcon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LSQ_METHODS",
    "RankDeficientError",
    "lstsq",
    "NllsConfig",
    "NllsResult",
    "STALL_WINDOW",
    "nlls",
]

LSQ_METHODS = ("normal", "qr", "scaled-qr", "svd-pinv", "cholesky")

# Gauss-Newton iterations without the residual inf-norm halving before it
# stops as "stalled"; ``nlls`` says why 5
STALL_WINDOW = 5


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
    if method == "normal":
        return np.linalg.solve(A.T @ A, A.T @ b)
    if method == "qr":
        return _qr_solve(A, b)
    if method == "scaled-qr":
        norms = np.linalg.norm(A, axis=0)
        norms[norms == 0] = 1.0
        return _qr_solve(A / norms, b) / norms
    if method == "svd-pinv":
        return np.linalg.lstsq(A, b, rcond=1e-14 * max(A.shape))[0]
    if method == "cholesky":
        try:
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
    # residual-inf-norm | step-inf-norm (converged);
    # max-iterations | stalled | non-finite (not converged)
    reason: str
    residual_history: list = field(default_factory=list)

    @property
    def converged(self):
        return self.reason in ("residual-inf-norm", "step-inf-norm")


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
    """
    config = config or NllsConfig()
    xi = np.atleast_1d(np.asarray(xi0, dtype=float)).copy()
    history = []
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
            return NllsResult(xi, it, "non-finite", history)
        if history[-1] < config.tol:
            return NllsResult(xi, it, "residual-inf-norm", history)
        if dxi is not None and np.abs(dxi).max() < config.tol:
            return NllsResult(xi, it, "step-inf-norm", history)
        if it >= config.max_iter:
            return NllsResult(xi, it, "max-iterations", history)
        if it - anchor >= STALL_WINDOW:
            return NllsResult(xi, it, "stalled", history)
        J = np.atleast_2d(np.asarray(jacobian(xi), dtype=float))
        dxi = lstsq(J, -L, method=config.method)
        xi = xi + dxi
        it += 1
