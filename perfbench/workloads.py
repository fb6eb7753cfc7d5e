"""The benchmark's workloads: fixed case lists with pinned accuracy bounds.

Each case calls one public entry point (``desolve.solve``,
``desolve.solve_split`` or ``problems.solve_balloon``) on a problem built
here.  Every bound names its source: a criterion of
``tests/test_acceptance.py`` or, for the two cases no criterion pins, the
stated reason.  No bound comes from a run.

Only ``elm-features`` uses the workload seed: it picks the three ELM seeds.
``tensor-poly`` and ``gauss-newton`` are deterministic and ignore it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("tensor-poly", "elm-features", "gauss-newton")


@dataclass(frozen=True)
class Bound:
    quantity: str  # a SolveReport field: max_error | mean_error | max_residual
    limit: float
    source: str


@dataclass(frozen=True)
class Case:
    case_id: str
    call: object   # state dict -> SolveReport; state carries warm starts
    bounds: tuple


def _crit(n, quantity, limit, note=""):
    return Bound(quantity, limit,
                 f"tests/test_acceptance.py criterion {n}{note}")


def elm_seeds(seed):
    """Three ELM seeds drawn from the workload seed."""
    rng = random.Random(seed)
    return tuple(rng.randrange(2**31 - 1) for _ in range(3))


def build(workload, seed):
    """Import funcon and construct the workload's problem definitions."""
    from funcon import desolve, problems

    def solve(problem, case_seed=None):
        return lambda state: desolve.solve(problem, seed=case_seed)

    if workload == "tensor-poly":
        return [
            Case("simple-pde", solve(problems.simple_pde(15, 15)),
                 (_crit(1, "max_error", 1e-13),)),
            Case("wave1d", solve(problems.wave1d()),
                 (_crit(4, "mean_error", 1e-12),)),
            # no criterion pins the polynomial wave2d run; criterion 5 holds
            # the same PDE on the same 15^3 test grid to mean <= 1e-3
            Case("wave2d-tfc", solve(problems.wave2d_tfc()),
                 (Bound("mean_error", 1e-3,
                        "stated: criterion 5's mean bound for the same PDE "
                        "and test grid; no criterion pins this case"),)),
            Case("biharmonic-cart", solve(problems.biharmonic_cartesian()),
                 (_crit(6, "mean_error", 1e-12),)),
            Case("biharmonic-polar", solve(problems.biharmonic_polar()),
                 (_crit(7, "mean_error", 1e-6),)),
        ]
    if workload == "elm-features":
        cases = []
        for s in elm_seeds(seed):
            cases.append(Case(f"wave2d-xtfc-s{s}",
                              solve(problems.wave2d_xtfc(11, 650, s), s),
                              (_crit(5, "mean_error", 1e-3),)))
            cases.append(Case(f"simple-pde-xtfc-s{s}",
                              solve(problems.simple_pde_xtfc(15, 132, s), s),
                              (_crit(3, "max_error", 1e-9,
                                     ", applied per seed, not best-of-10"),)))
        return cases
    if workload == "gauss-newton":
        def split(pe):
            problem, spec = problems.convection_diffusion_split(pe)
            return lambda state: desolve.solve_split(problem, spec)

        def balloon(altitude):
            def call(state):
                report, state["balloon"] = problems.solve_balloon(
                    altitude, warm_start=state.get("balloon"))
                return report
            return call

        cases = [
            # no criterion pins the split solve at Pe=1; criterion 8 holds
            # the same ODE at Pe=1 on the whole domain to max <= 1e-13
            Case("split-pe1", split(1.0),
                 (Bound("max_error", 1e-13,
                        "stated: criterion 8's Pe=1 whole-domain bound for "
                        "the same ODE; no criterion pins the split solve"),)),
            Case("split-pe1e6", split(1e6),
                 (_crit(8, "max_error", 1e-9), _crit(8, "mean_error", 1e-11))),
        ]
        for alt in sorted(problems.BALLOON_ATMOSPHERE):
            cases.append(Case(f"balloon-{alt}km", balloon(alt),
                              (_crit(9, "max_residual", 1e-12),)))
        return cases
    raise ValueError(f"unknown workload {workload!r}; options: {WORKLOADS}")


def check(case, report):
    """(ok, headroom, why): ``headroom`` is min over bounds of
    log10(limit / value), positive while every bound holds."""
    import numpy as np
    values = [report.max_residual, report.mean_residual,
              *report.xi.values(), *report.extras.values()]
    values += [v for v in (report.max_error, report.mean_error)
               if v is not None]
    if not all(np.isfinite(v).all() for v in values):
        return False, None, "non-finite result"
    headroom = math.inf
    for b in case.bounds:
        value = getattr(report, b.quantity)
        if value is None:
            return False, None, f"{b.quantity} missing"
        headroom = min(headroom, math.log10(b.limit / max(value, 1e-300)))
    if headroom < 0:
        return False, headroom, "accuracy bound missed"
    return True, headroom, ""
