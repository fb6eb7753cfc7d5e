"""Benchmark problem definitions: the PDE/ODE suite solved in the docs/tests.

Each builder returns a ready-to-solve DeProblem (plus a SplitSpec where
relevant).  Numbers such as grid sizes and degrees default to the reference
configurations quoted in the README benchmark table.
"""

from __future__ import annotations

import math
import time

import numpy as np

from funcon import exprfn
from funcon.constraint_core import BranchKappa
from funcon.desolve import (
    BasisSpec,
    ConstraintSpec,
    DeProblem,
    DependentVar,
    ElmSpec,
    ExtraUnknown,
    IndependentVar,
    ProblemBuild,
    SplitSpec,
    _solve,
    assemble_nonlinear,
)
from funcon.solvers import NllsConfig, nlls

__all__ = [
    "simple_pde",
    "simple_pde_xtfc",
    "wave1d",
    "wave2d_tfc",
    "wave2d_xtfc",
    "biharmonic_cartesian",
    "biharmonic_polar",
    "convection_diffusion",
    "convection_diffusion_split",
    "balloon",
    "BALLOON_ATMOSPHERE",
    "BALLOON_CONSTANTS",
]


def _value(dim, at, value, order=0, coeff=1.0):
    return ConstraintSpec(dim, ({"order": order, "at": at, "coeff": coeff},), value)


def _relative(dim, a, b, order=0):
    return ConstraintSpec(
        dim, ({"order": order, "at": a, "coeff": 1.0},
              {"order": order, "at": b, "coeff": -1.0}), 0.0)


# ---------------------------------------------------------------------------
# Poisson-type 2-D problem with a known smooth solution

def simple_pde(n=15, m=15, mode="embedded"):
    """u_xx + u_yy = exp(-x)(x - 2 + y^3 + 6y) on the unit square with
    Dirichlet data from u = exp(-x)(x + y^3)."""
    return DeProblem(
        name="simple-pde" if mode == "embedded" else "simple-pde-spectral",
        independent=(IndependentVar("x", (0.0, 1.0), n),
                     IndependentVar("y", (0.0, 1.0), n)),
        dependent=(DependentVar("u", (
            _value("x", 0.0, "y^3"),
            _value("x", 1.0, "(1 + y^3)*exp(-1)"),
            _value("y", 0.0, "x*exp(-x)"),
            _value("y", 1.0, "exp(-x)*(x + 1)"),
        ), BasisSpec("chebyshev", m)),),
        residuals=("u_xx + u_yy - exp(-x)*(x - 2 + y^3 + 6*y)",),
        analytic={"u": "exp(-x)*(x + y^3)"},
        test_points=(100, 100),
        mode=mode,
    )


def simple_pde_xtfc(n=15, neurons=132, seed=0):
    base = simple_pde(n=n)
    return DeProblem(
        name="simple-pde-xtfc",
        independent=base.independent,
        dependent=(DependentVar("u", base.dependent[0].constraints,
                                ElmSpec("tanh", neurons, seed)),),
        residuals=base.residuals,
        analytic=base.analytic,
        test_points=base.test_points,
    )


# ---------------------------------------------------------------------------
# wave equations

def wave1d(n=30, m=20):
    """u_xx = u_tt (k = 1), fixed ends, initial shape sin(pi x) at rest."""
    return DeProblem(
        name="wave1d",
        independent=(IndependentVar("x", (0.0, 1.0), n),
                     IndependentVar("t", (0.0, 1.0), n)),
        dependent=(DependentVar("u", (
            _value("x", 0.0, 0.0),
            _value("x", 1.0, 0.0),
            _value("t", 0.0, "sin(pi*x)"),
            _value("t", 0.0, 0.0, order=1),
        ), BasisSpec("legendre", m)),),
        residuals=("u_xx - u_tt",),
        analytic={"u": "sin(pi*x)*cos(pi*t)"},
        test_points=(100, 100),
    )


def _wave2d_dependents(basis):
    return (DependentVar("u", (
        _value("x", 0.0, 0.0),
        _value("x", 1.0, 0.0),
        _value("y", 0.0, 0.0),
        _value("y", 1.0, 0.0),
        _value("t", 0.0, "sin(pi*x)*sin(pi*y)"),
        _value("t", 0.0, 0.0, order=1),
    ), basis),)


def wave2d_tfc(n=11, m=9, spacing="cgl"):
    """u_xx + u_yy = 64 u_tt (k = 8), clamped membrane, Chebyshev expansion."""
    return DeProblem(
        name="wave2d",
        independent=(IndependentVar("x", (0.0, 1.0), n, spacing),
                     IndependentVar("y", (0.0, 1.0), n, spacing),
                     IndependentVar("t", (0.0, 1.0), n, spacing)),
        dependent=_wave2d_dependents(BasisSpec("chebyshev", m)),
        residuals=("u_xx + u_yy - 64*u_tt",),
        analytic={"u": "sin(pi*x)*sin(pi*y)*cos(pi*sqrt(2)/8*t)"},
        test_points=(15, 15, 15),
    )


def wave2d_xtfc(n=11, neurons=650, seed=0):
    return DeProblem(
        name="wave2d-xtfc",
        independent=(IndependentVar("x", (0.0, 1.0), n, "uniform"),
                     IndependentVar("y", (0.0, 1.0), n, "uniform"),
                     IndependentVar("t", (0.0, 1.0), n, "uniform")),
        dependent=_wave2d_dependents(ElmSpec("tanh", neurons, seed)),
        residuals=("u_xx + u_yy - 64*u_tt",),
        analytic={"u": "sin(pi*x)*sin(pi*y)*cos(pi*sqrt(2)/8*t)"},
        test_points=(15, 15, 15),
    )


# ---------------------------------------------------------------------------
# biharmonic plate problems

def biharmonic_cartesian(n=20, m=26):
    """nabla^4 u = 4 pi^2 sin(pi x) sin(pi y), simply supported unit plate."""
    cons = []
    for dim, other in (("x", "y"), ("y", "x")):
        for at in (0.0, 1.0):
            cons.append(_value(dim, at, 0.0))
            cons.append(_value(dim, at, 0.0, order=2))
    return DeProblem(
        name="biharmonic-cart",
        independent=(IndependentVar("x", (0.0, 1.0), n),
                     IndependentVar("y", (0.0, 1.0), n)),
        dependent=(DependentVar("u", tuple(cons), BasisSpec("chebyshev", m)),),
        residuals=(
            "u_xxxx + 2*u_xxyy + u_yyyy - 4*pi^2*sin(pi*x)*sin(pi*y)",),
        analytic={"u": "sin(pi*x)*sin(pi*y)/pi^2"},
        test_points=(100, 100),
    )


def biharmonic_polar(n=30, m=30):
    """nabla^4 u = 0 on an annulus, r in [1, 4], angle a in [0, 2 pi];
    boundary data from the exact solution, periodicity in the angle enforced
    through value..third-derivative relative constraints."""
    two_pi = 2.0 * math.pi
    u_true = "r^3/16*sin(3*a) + r^2/4*sin(2*a) + r^2/8 + pi*cos(a)/r"
    cons = (
        _value("r", 1.0, "sin(2*a)/4 + sin(3*a)/16 + pi*cos(a) + 1/8"),
        _value("r", 4.0, "4*sin(2*a) + 4*sin(3*a) + pi*cos(a)/4 + 2"),
        _value("r", 1.0, "sin(2*a)/2 + 3*sin(3*a)/8 + 2*pi*cos(a) + 1/4",
               order=2),
        _value("r", 4.0, "sin(2*a)/2 + 3*sin(3*a)/2 + pi*cos(a)/32 + 1/4",
               order=2),
        _relative("a", 0.0, two_pi, order=0),
        _relative("a", 0.0, two_pi, order=1),
        _relative("a", 0.0, two_pi, order=2),
        _relative("a", 0.0, two_pi, order=3),
    )
    residual = ("u_rrrr + 2/r^2*u_rraa + 1/r^4*u_aaaa + 2/r*u_rrr"
                " - 2/r^3*u_raa - 1/r^2*u_rr + 4/r^4*u_aa + 1/r^3*u_r")
    return DeProblem(
        name="biharmonic-polar",
        independent=(IndependentVar("r", (1.0, 4.0), n),
                     IndependentVar("a", (0.0, two_pi), n)),
        dependent=(DependentVar(
            "u", cons, BasisSpec("chebyshev", m, removal={"a": (1, 2, 3, 4)}),
            supports={"a": (1, 2, 3, 4)}),),
        residuals=(residual,),
        analytic={"u": u_true},
        test_points=(100, 100),
    )


# ---------------------------------------------------------------------------
# convection-diffusion (steep boundary layer; whole vs split domain)

def convection_diffusion(pe, n=200, m=190):
    """y_xx - Pe y_x = 0, y(0)=1, y(1)=0 on [0, 1]."""
    return DeProblem(
        name=f"convection-diffusion-pe{pe:g}",
        independent=(IndependentVar("x", (0.0, 1.0), n),),
        dependent=(DependentVar("y", (
            _value("x", 0.0, 1.0),
            _value("x", 1.0, 0.0),
        ), BasisSpec("legendre", m)),),
        residuals=(f"y_xx - {pe!r}*y_x",),
        params={"Pe": float(pe)},
        analytic={"y": "(1 - exp(Pe*(x - 1)))/(1 - exp(-Pe))"},
        test_points=(1000,),
        method="scaled-qr",
    )


def convection_diffusion_split(pe, n=200, m=190):
    problem = convection_diffusion(pe, n, m)
    split = SplitSpec(xp_init=0.5, xp_lower=1e-3, xp_upper=1.0 - 1e-3,
                      yp_init=0.5, dyp_init=0.0)
    return problem, split


# ---------------------------------------------------------------------------
# natural tandem balloon shape

# altitude (km) -> (atmospheric density kg/m^3, gas mass kg, gravity m/s^2)
BALLOON_ATMOSPHERE = {
    52: (1.28, 11.62, 8.719),
    53: (1.15, 10.74, 8.716),
    54: (1.03, 9.97, 8.713),
    55: (0.921, 9.29, 8.71),
    56: (0.818, 8.67, 8.707),
    57: (0.721, 8.12, 8.704),
    58: (0.629, 7.58, 8.702),
    59: (0.545, 7.14, 8.699),
    60: (0.469, 6.812, 8.696),
    61: (0.41, 6.675, 8.693),
    62: (0.341, 6.2675, 8.69),
}

BALLOON_CONSTANTS = {
    "wfilm": 0.095,   # zero-pressure film mass per area, kg/m^2
    "ws": 0.215,      # super-pressure film mass per area, kg/m^2
    "Mg": 4e-3,       # lifting gas molecular weight, kg/mol
    "Matm": 4.34e-2,  # atmosphere molecular weight, kg/mol
    "Rs": 2.5,        # super-pressure balloon radius, m (not tabulated)
    "payload": 208.0,  # payload mass, kg; L = payload * gravity
}


def _balloon_t0_expr():
    """Total vertical load at the contact point as a function of beta; the
    spherical-cap area/volume switch branches at beta = pi/2."""
    h = "(Rs*(1 - cos(beta)))"
    vs = "(4/3*pi*Rs^3)"
    # cap of height h: A = 2 pi Rs h, V = pi/3 h^2 (3 Rs - h)
    a_low = f"(2*pi*Rs*{h})"
    v_low = f"(pi/3*{h}^2*(3*Rs - {h}))"
    h0 = f"(2*Rs - {h})"
    a_high = f"(4*pi*Rs^2 - 2*pi*Rs*{h0})"
    v_high = f"({vs} - pi/3*{h0}^2*(3*Rs - {h0}))"

    def t0(area, vol):
        return (f"(payload*grav + grav*(wfilm + ws)*{area}"
                f" + grav*({vol}/{vs}*msg - rho*{vol}))")

    kappa_low = exprfn.parse(f"2*pi*cos(beta)/{t0(a_low, v_low)}")
    kappa_high = exprfn.parse(f"2*pi*cos(beta)/{t0(a_high, v_high)}")
    return BranchKappa((
        (lambda extras: extras.get("beta", 0.0) < math.pi / 2, kappa_low),
        (lambda extras: True, kappa_high),
    ))


def balloon(altitude=52, n=140, m=50, sigma_c=0.0):
    """Natural tandem balloon shape: four coupled first-order ODEs on the
    basis domain z in [-1, 1], with the contact angle beta and film length
    ell solved alongside the expansion coefficients.

    Uses q = 1/(sigma_m r) to avoid the meridional-stress singularity at the
    closing point r = 0.
    """
    rho, msg, grav = BALLOON_ATMOSPHERE[altitude]
    c = "(2/(ell - Rs*beta))"
    y0 = "(Rs*(1 - cos(beta)))"
    params = dict(BALLOON_CONSTANTS)
    params.update({
        "rho": rho, "msg": msg, "grav": grav,
        "b": grav * rho * (1.0 - params["Mg"] / params["Matm"]),
        "sigc": float(sigma_c),
    })
    residuals = (
        f"{c}*theta_z - q*sigc*cos(theta) + q*r*wfilm*sin(theta)"
        f" + q*r*b*(y - {y0})",
        f"{c}*q_z + q^2*(sigc*sin(theta) + wfilm*r*cos(theta))",
        f"{c}*r_z - sin(theta)",
        f"{c}*y_z - cos(theta)",
    )
    basis = BasisSpec("chebyshev", m)
    deps = (
        DependentVar("theta", (
            _value("z", -1.0, "pi/2 - beta"),
            _value("z", 1.0, -math.pi / 2),
        ), basis),
        DependentVar("q", (_value("z", -1.0, _balloon_t0_expr()),), basis),
        DependentVar("r", (
            _value("z", -1.0, "Rs*sin(beta)"),
            _value("z", 1.0, 0.0),
        ), basis),
        DependentVar("y", (_value("z", -1.0, y0),), basis),
    )
    return DeProblem(
        name=f"balloon-{altitude}km",
        independent=(IndependentVar("z", (-1.0, 1.0), n),),
        dependent=deps,
        residuals=residuals,
        params=params,
        extras=(
            ExtraUnknown("beta", 1.0, 0.05, math.pi - 0.05),
            ExtraUnknown("ell", 12.0, 4.0, 60.0),
        ),
    )


def solve_balloon(altitude=52, warm_start=None):
    """Staged balloon solve on ``balloon(altitude)``'s default grid and
    degree: plain Gauss-Newton diverges from a cold start when the domain
    parameters float, so first solve the over-determined shape over the
    coefficients alone, with beta and ell pinned at their
    ``ExtraUnknown.init`` values, then release them.  Both stages share one
    ProblemBuild and its residual and Jacobian closures.

    Returns (report, state); the report's wall time covers both stages.
    ``state`` holds the sweep's last one or two (altitude, solution) pairs,
    oldest first, each solution being [coefficients..., beta, ell].  Passed
    back as ``warm_start``, it replaces the frozen stage with a predictor
    for this altitude: the secant step, linear extrapolation in altitude
    from the last two solutions (Allgower & Georg, Introduction to
    Numerical Continuation Methods, ch. 2), with beta and ell clamped to
    their bounds; after a single pair (or two at one altitude), that pair's
    solution itself.
    """
    t0 = time.perf_counter()
    problem = balloon(altitude)
    bld = ProblemBuild(problem)
    width = bld.layout.width
    closures = None
    pairs = ()
    if warm_start is None:
        closures = residual, jacobian = assemble_nonlinear(bld)
        pinned = np.array([e.init for e in problem.extras])
        frozen = nlls(
            lambda xi: residual(np.concatenate([xi, pinned])),
            lambda xi: jacobian(np.concatenate([xi, pinned]))[:, :width],
            np.zeros(width),
            NllsConfig(tol=problem.nlls_tol, max_iter=30,
                       method=problem.method))
        x0 = np.concatenate([frozen.xi, pinned])
    else:
        pairs = tuple(warm_start)
        try:
            (a0, s0), (a1, s1) = pairs[0], pairs[-1]
        except (TypeError, ValueError) as err:
            raise ValueError("warm_start must be the state that solve_balloon "
                             "returns: (altitude, solution) pairs") from err
        x0 = s1
        if a1 != a0:
            x0 = s1 + (altitude - a1) / (a1 - a0) * (s1 - s0)
            extras, _ = bld.clamp_extras(
                {e.name: x0[width + i] for i, e in enumerate(problem.extras)})
            x0[width:] = list(extras.values())
    report = _solve(bld, None, x0, t0, closures)
    solution = np.concatenate([*report.xi.values(),
                               [report.extras[e.name] for e in problem.extras]])
    return report, (*pairs[-1:], (altitude, solution))
