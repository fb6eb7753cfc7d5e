"""Multivariate constrained expressions.

Composition is recursive: the univariate CE for the first processed
dimension becomes the free function of the next dimension's CE, and so on.
Dimensions that appear as integration variables in other dimensions'
integral constraints must be processed after them, and their switching
functions gain zero-integral conditions (one extra support function each).

Also provides the compact tensor form (an independent evaluation route used
as a correctness oracle) and component-constraint assignment graphs with the
nilpotent-adjacency acyclicity test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from funcon.constraint_core import (
    AffineEval,
    CEField,
    ConstraintOperator,
    Field,
    PointDeriv,
    _ae_iadd,
    _ae_iscale,
    _apply_op_to_field,
    _zero,
    build_univariate_ce,
    support_matrix,
)

__all__ = [
    "CyclicIntegralDependencyError",
    "ProcessingOrder",
    "order_dimensions",
    "integral_conditions_for",
    "augment_integral_switching",
    "build_dimension_ces",
    "compose_recursive",
    "TensorForm",
    "build_tensor_form",
    "free_function_null_matrix",
    "ComponentGraph",
    "enumerate_component_graphs",
    "check_intersection_validity",
]


class CyclicIntegralDependencyError(ValueError):
    """Integral constraints whose integration variables refer to one another."""


@dataclass(frozen=True)
class ProcessingOrder:
    order: tuple
    forced: tuple  # (dim_with_integral, integration_dim) precedences


def _foreign_integrals(constraints_by_dim):
    """(l, j, lo, hi) for each integral over dimension j inside a point
    constraint on dimension l, in constraint order."""
    for l, cons in constraints_by_dim.items():
        for c in cons:
            for s in c.operator.specs:
                if isinstance(s, PointDeriv):
                    for j, lo, hi in s.foreign:
                        yield l, j, lo, hi


def _precedences(constraints_by_dim):
    """(l, j) for an integral over dimension j inside a constraint on l:
    l's CE is processed before j's.  A dimension without constraints has no
    CE, so an integral over it orders nothing."""
    return [(l, j) for l, j, _, _ in _foreign_integrals(constraints_by_dim)
            if j != l and constraints_by_dim.get(j)]


def _topological(nodes, edges):
    """``nodes`` in an order that puts a before b for every edge (a, b),
    the lowest ready node first (Kahn's algorithm); None when the edges
    have a cycle."""
    succ = {v: set() for v in nodes}
    indeg = dict.fromkeys(nodes, 0)
    for a, b in edges:
        if b not in succ[a]:
            succ[a].add(b)
            indeg[b] += 1
    ready = [v for v in nodes if indeg[v] == 0]
    order = []
    while ready:
        v = min(ready)
        ready.remove(v)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return order if len(order) == len(nodes) else None


def order_dimensions(constraints_by_dim: dict) -> ProcessingOrder:
    """Valid processing order; deterministic (lowest dimension index first
    among the ready set).  Raises CyclicIntegralDependencyError if integral
    constraints' integration variables refer to one another."""
    forced = _precedences(constraints_by_dim)
    order = _topological(sorted(constraints_by_dim), forced)
    if order is None:
        raise CyclicIntegralDependencyError(
            "integral constraints' integration variables refer to one another; "
            "no valid processing order exists")
    return ProcessingOrder(tuple(order), tuple(forced))


def integral_conditions_for(constraints_by_dim: dict, k) -> list:
    """(lo, hi) integration intervals over dimension k appearing in other
    dimensions' constraints; each becomes a zero-integral switching condition."""
    return [(lo, hi) for l, j, lo, hi in _foreign_integrals(constraints_by_dim)
            if l != k and j == k]


def augment_integral_switching(constraints, foreign_intervals, dim=0,
                               supports=None):
    """Univariate CE whose switching functions additionally integrate to zero
    over each foreign interval.  With no foreign intervals this is the plain
    construction."""
    return build_univariate_ce(constraints, supports=supports, dim=dim,
                               extra_conditions=tuple(foreign_intervals))


def build_dimension_ces(constraints_by_dim: dict, supports_by_dim=None):
    """Build every dimension's (possibly augmented) univariate CE plus the
    processing order.  Returns (order, {dim: UnivariateCE})."""
    supports_by_dim = supports_by_dim or {}
    order = order_dimensions(constraints_by_dim)
    ces = {}
    for k, cons in constraints_by_dim.items():
        if not cons:
            continue
        ces[k] = augment_integral_switching(
            cons, integral_conditions_for(constraints_by_dim, k),
            dim=k, supports=supports_by_dim.get(k))
    return order, ces


def compose_recursive(ces_in_order, g_field: Field) -> Field:
    """Wrap the free function in each dimension's CE following the processing
    order (first processed dimension innermost).

    The free function must be admissible: defined wherever constraint
    operators evaluate it and locally smooth enough near constraint
    intersections that its mixed partials commute; this is a caller
    obligation that cannot be verified for black-box functions.
    """
    out = g_field
    for ce in ces_in_order:
        out = CEField(out, ce)
    return out


# ---------------------------------------------------------------------------
# tensor form

class _RhoField(Field):
    """rho^k_j over the raw free function, as a field (constant in x_k)."""

    def __init__(self, g_field, ce, j):
        super().__init__(g_field.ctx)
        self.g = g_field
        self.ce = ce
        self.j = j

    def eval(self, pts, orders, extras=None):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        k = self.ce.dim
        if orders[k] != 0:
            return _zero(pts.shape[0])
        con = self.ce.constraints[self.j]
        kap = con.kappa.eval(self.ctx, pts, tuple(orders), extras)
        cg = _apply_op_to_field(con.operator, self.g, pts, tuple(orders), k, extras)
        return _ae_iadd(kap, _ae_iscale(cg, -1.0))


class _OpApplied(Field):
    """A constraint operator applied to a field (constant in the op's dim)."""

    def __init__(self, inner, op: ConstraintOperator, dim):
        super().__init__(inner.ctx)
        self.inner = inner
        self.op = op
        self.dim = dim

    def eval(self, pts, orders, extras=None):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if orders[self.dim] != 0:
            return _zero(pts.shape[0])
        return _apply_op_to_field(self.op, self.inner, pts, tuple(orders),
                                  self.dim, extras)


@dataclass(frozen=True)
class TensorForm:
    """u = g + M_{i1..in} Phi_{i1}(x_1) ... Phi_{in}(x_n), built from the
    processed univariate CEs; M entries are closures over operator chains."""

    ces: tuple  # in processing order

    def eval(self, g_field: Field, pts, extras=None) -> AffineEval:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[0]
        zero_orders = (0,) * len(g_field.ctx.var_names)
        out = g_field.eval(pts, zero_orders, extras)
        phis = []
        for ce in self.ces:
            phis.append([np.ones(n), *ce.switching(pts[:, ce.dim], d=0).T])
        ranges = [range(len(ce.constraints) + 1) for ce in self.ces]
        for idx in product(*ranges):
            active = [pos for pos, i in enumerate(idx) if i > 0]
            if not active:
                continue
            entry = self.m_entry(g_field, {pos: idx[pos] - 1 for pos in active})
            values = entry.eval(pts, zero_orders, extras)
            scale = np.ones(n)
            for pos, i in enumerate(idx):
                scale = scale * phis[pos][i]
            _ae_iadd(out, _ae_iscale(values, scale))
        return out

    def m_entry(self, g_field, active: dict) -> Field:
        """M element for the given {position-in-order: constraint index} map:
        the innermost projection functional comes from the earliest processed
        dimension, later dimensions' operators wrap around it, and the sign is
        (-1)^(m+1) for m active dimensions."""
        positions = sorted(active)
        first = positions[0]
        entry: Field = _RhoField(g_field, self.ces[first], active[first])
        for pos in positions[1:]:
            ce = self.ces[pos]
            entry = _OpApplied(entry, ce.constraints[active[pos]].operator, ce.dim)
        sign = (-1.0) ** (len(positions) + 1)
        return _Scaled(entry, sign)


class _Scaled(Field):
    def __init__(self, inner, factor):
        super().__init__(inner.ctx)
        self.inner = inner
        self.factor = factor

    def eval(self, pts, orders, extras=None):
        return _ae_iscale(self.inner.eval(pts, orders, extras), self.factor)


def build_tensor_form(ces_in_order) -> TensorForm:
    return TensorForm(tuple(ces_in_order))


def free_function_null_matrix(ce) -> np.ndarray:
    """delta - (alpha S)^T over the support functions.

    A zero row means terms linearly dependent on that support function never
    affect the CE output; linearly dependent rows mean the corresponding
    support functions' effects differ only by a constant factor.  Without
    integral augmentation this matrix is identically zero.
    """
    S = support_matrix(ce.constraints, ce.supports)
    return np.eye(len(ce.supports)) - (ce.alpha @ S).T


# ---------------------------------------------------------------------------
# component-constraint assignment graphs

@dataclass(frozen=True)
class ComponentGraph:
    variables: tuple
    assignment: tuple  # per component constraint, the variable carrying it
    adjacency: tuple   # row-major 0/1 entries
    build_order: tuple  # leaves first

    def adjacency_matrix(self):
        n = len(self.variables)
        return np.array(self.adjacency, dtype=int).reshape(n, n)


def enumerate_component_graphs(component_constraints, variables) -> list:
    """All acyclic directed graphs for a set of component constraints.

    ``component_constraints`` is a sequence of tuples of participating
    variable names (each of length >= 2).  Every source/target pair inside a
    constraint contributes one edge; all 2^n orientation combinations are
    generated and reduced to those whose adjacency matrix is nilpotent
    (distinct adjacency matrices only).  Each surviving graph determines the
    variable every constraint is embedded into (the root of the constraint's
    internal sub-tournament) and a construction order that traces the graph
    backwards from leaves to roots.
    """
    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    pair_list = []  # (constraint position, var a, var b)
    for ci, members in enumerate(component_constraints):
        if len(members) < 2:
            raise ValueError("component constraints name at least two variables")
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pair_list.append((ci, members[i], members[j]))
    graphs = []
    seen = set()
    for flips in product((0, 1), repeat=len(pair_list)):
        A = np.zeros((n, n), dtype=int)
        edges_by_constraint = [dict() for _ in component_constraints]
        ok = True
        for (ci, a, b), flip in zip(pair_list, flips):
            src, dst = (a, b) if flip == 0 else (b, a)
            A[index[src], index[dst]] = 1
            outs = edges_by_constraint[ci]
            outs[src] = outs.get(src, 0) + 1
        if np.linalg.matrix_power(A != 0, n).any():
            continue  # not nilpotent: the graph has a cycle
        key = A.tobytes()
        if key in seen:
            continue
        seen.add(key)
        assignment = []
        for ci, members in enumerate(component_constraints):
            outs = edges_by_constraint[ci]
            owner = [v for v in members
                     if outs.get(v, 0) == len(members) - 1]
            if len(owner) != 1:
                ok = False
                break
            assignment.append(owner[0])
        if not ok:
            continue
        # leaves first: every edge's target before its source
        build = tuple(variables[i] for i in _topological(
            range(n), np.argwhere(A.T).tolist()))
        graphs.append(ComponentGraph(variables, tuple(assignment),
                                     tuple(A.ravel().tolist()), build))
    return graphs


@dataclass(frozen=True)
class ConstraintLocus:
    """Geometric locus of a constraint: hyperplanes x_dim = location."""

    var: str
    dim: int
    locations: tuple


@dataclass(frozen=True)
class ComponentInfo:
    """A component constraint: per participant (var, dim, location)."""

    participants: tuple


def check_intersection_validity(graph: ComponentGraph, regular: dict,
                                components) -> tuple:
    """Accept or reject an assignment using the constraint-intersection rule.

    ``regular`` maps variable name to its ConstraintLocus list; ``components``
    aligns with the graph's assignment.  Placing a component constraint on a
    variable that has another constraint crossing it is rejected unless every
    other participant also has a constraint through the intersection point
    (then the values can be consistent there and either placement works).
    """
    diagnostics = []
    for info, placed_on in zip(components, graph.assignment):
        spec = {v: (dim, loc) for v, dim, loc in info.participants}
        dim_c, loc_c = spec[placed_on]
        for locus in regular.get(placed_on, ()):
            if locus.dim == dim_c:
                continue
            for cross_loc in locus.locations:
                covered = True
                for other, _, _ in info.participants:
                    if other == placed_on:
                        continue
                    hit = any(
                        ol.dim == locus.dim and cross_loc in ol.locations
                        for ol in regular.get(other, ()))
                    if not hit:
                        covered = False
                        diagnostics.append(
                            f"component constraint on {placed_on!r} intersects its "
                            f"constraint at x{locus.dim}={cross_loc}, but {other!r} "
                            f"has no constraint there")
                if not covered:
                    return False, diagnostics
    return True, diagnostics

