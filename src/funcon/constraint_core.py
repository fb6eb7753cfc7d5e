"""Univariate constrained expressions.

A constraint operator is a weighted sum of point-derivative evaluations and
definite integrals acting on one variable's slices.  Switching functions are
linear combinations of support functions (monomials by default) satisfying
the Kronecker property against the constraint operators, and the constrained
expression is

    y(x, g) = g(x) + sum_j phi_j(x) * (kappa_j - C_j[g]).

An operator's only discretization is its quadrature rule,
``ConstraintOperator.taps``, and every application walks it:
``apply_operator_columns`` on evaluables f(x, d) -> (n, cols) along the
operator's own variable (support matrices with their augmentation rows,
scalar probes through ``apply_operator``, C[T] for projected-table
assembly), and ``_apply_op_to_field`` on the recursive CE's fields.  So the
switching coefficients are solved against the same functional the
expression applies; no integral is taken in closed form.

Fields evaluate in an *affine-in-xi* representation: an evaluation of a
field at N points returns rows (N, width), an offset (N,), and the offset's
gradients with respect to named scalar extras, with no rows (None, read as
zero) when it does not depend on xi.  The expression is one linear map for
any free function g: around a ``FeatureField`` h(x)^T xi its rows are
coefficient rows; around a ``CallableField`` the offset holds plain values
(the kappa terms for g = 0, the solution for a solved h(x)^T xi).  A
``separable`` CE (no augmentation rows, foreign integrals or component
kappas) acts on functions of its own variable alone, so around a
tensor-product basis its coefficient rows come from the projected 1-D table
T - phi (C T) (see ``basis.TensorFeature``); the recursive ``CEField`` is
the general route and the fallback for the other cases.  Built expressions
are immutable and evaluation is reentrant.

The recursive route applies each operator C_j (along x_k) to the inner
field at the distinct points of the other coordinates only: rho_j =
kappa_j - C_j[g] is constant in x_k, so on a grid with n_k nodes along x_k
the inner field is evaluated at n / n_k points per tap, and the results
are gathered back to every row.  A field's evaluation returns arrays its
caller owns, so every combination of evaluations is made in place
(``_ae_iadd``, ``_ae_iscale``), and one kernel, ``_add_rho``, adds each
term phi_j rho_j into the rows, the offset and each gradient of the inner
level's result, gathering the rows ``basis.ROW_BLOCK`` at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from funcon import exprfn
from funcon.basis import ROW_BLOCK
from funcon.exprfn import Expr

__all__ = [
    "PointDeriv",
    "DefiniteIntegral",
    "ConstraintOperator",
    "Constraint",
    "ConstKappa",
    "ExprKappa",
    "BranchKappa",
    "ComponentKappa",
    "MonomialSupports",
    "SingularSupportError",
    "UnivariateCE",
    "build_univariate_ce",
    "support_matrix",
    "solve_switching",
    "apply_operator",
    "apply_operator_columns",
    "evaluate_ce",
    "AffineEval",
    "UnknownLayout",
    "FeatureField",
    "ExprField",
    "CallableField",
    "CEField",
    "gauss_legendre",
]

def gauss_legendre(a: float, b: float):
    """Nodes and weights of 64-point Gauss-Legendre quadrature on [a, b],
    exact for polynomials of degree up to 127.  Computed per call (about a
    millisecond), so ``numpy.polynomial`` loads only for integral terms."""
    z, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * (b - a)
    return a + half * (z + 1.0), half * w


class SingularSupportError(ValueError):
    """The support basis cannot interpolate the requested constraints."""

    def __init__(self, cond):
        self.cond = cond
        super().__init__(
            f"support matrix is singular or near-singular (cond estimate {cond:.3e}); "
            "supply a different support basis")


# ---------------------------------------------------------------------------
# evaluation specs and operators

@dataclass(frozen=True)
class PointDeriv:
    """coeff * d^order f / dx^order at x=location, optionally integrated over
    foreign dimensions ((dim index, lo, hi), ...) for multivariate integral
    constraints."""

    order: int
    location: float
    coeff: float = 1.0
    foreign: tuple = ()

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("derivative order must be >= 0")


@dataclass(frozen=True)
class DefiniteIntegral:
    """coeff * integral of f over [lower, upper] in the operator's own variable."""

    lower: float
    upper: float
    coeff: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError("integral bounds must be finite")


@dataclass(frozen=True)
class ConstraintOperator:
    """Linear functional: weighted sum of evaluation specs.

    ``taps`` is its quadrature rule, built once and walked by every
    application: one flat tuple of (weight, own-dimension order, own
    coordinate, ((foreign dim, node), ...)), spec after spec.  A point term
    is one tap of weight coeff; each integral, own-dimension or foreign,
    takes 64-node Gauss-Legendre quadrature, its weights multiplied into
    coeff."""

    specs: tuple
    taps: tuple = dc_field(init=False, repr=False, compare=False)

    def __init__(self, specs):
        specs = tuple(specs)
        if not specs:
            raise ValueError("a constraint operator needs at least one term")
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "taps",
                           tuple(t for s in specs for t in self._rule(s)))

    @staticmethod
    def _rule(s):
        if isinstance(s, DefiniteIntegral):
            nodes, w = gauss_legendre(s.lower, s.upper)
            return tuple((s.coeff * wt, 0, t, ()) for t, wt in zip(nodes, w))
        taps = ((s.coeff, s.order, s.location, ()),)
        for j, lo, hi in s.foreign:
            nodes, w = gauss_legendre(lo, hi)
            taps = tuple((weight * wt, d, x, foreign + ((j, t),))
                         for weight, d, x, foreign in taps
                         for t, wt in zip(nodes, w))
        return taps


def apply_operator_columns(ops, f):
    """C[f_c] for each operator C of ``ops`` and every column c of an
    evaluable along the operators' own variable, summed over the operators'
    taps: ``f(x, d)`` gives the d-th derivatives at the points ``x``, shape
    (len(x), cols), and is called once per derivative order at all of the
    operators' taps.  Foreign nodes are ignored, since f has no other
    variables: their weights sum to the interval's length.  Returns shape
    (len(ops), cols)."""
    points = {}  # derivative order -> tap coordinates, in walking order
    for op in ops:
        for _, d, x, _ in op.taps:
            points.setdefault(d, []).append(x)
    values = {d: iter(f(np.array(x, dtype=float), d))
              for d, x in points.items()}
    rows = []
    for op in ops:
        total = 0.0
        for weight, d, _, _ in op.taps:
            total = total + weight * next(values[d])
        rows.append(total)
    return np.array(rows)


def apply_operator(op: ConstraintOperator, f) -> float:
    """Apply a constraint operator to a univariate evaluable at its taps;
    ``f`` provides ``deriv(x, d)``."""
    def column(x, d):
        return np.array([[f.deriv(t, d)] for t in x.tolist()], dtype=float)

    return float(apply_operator_columns([op], column)[0, 0])


# ---------------------------------------------------------------------------
# kappa variants

def _on_grid(e, bindings, n):
    """An expression's values at n points, broadcast to (n,) (read-only)."""
    return np.broadcast_to(np.asarray(exprfn.evaluate(e, bindings),
                                      dtype=float), (n,))


@dataclass(frozen=True)
class ConstKappa:
    value: float

    def eval(self, ctx, pts, orders, extras):
        value = 0.0 if any(orders) else float(self.value)
        return AffineEval(None, np.full(pts.shape[0], value), {})


@dataclass(frozen=True)
class ExprKappa:
    """kappa as an expression over the other independent variables, extras,
    and fixed parameters."""

    expr: Expr
    # ((variable, order), ...) -> (derivative, its free variables)
    _dcache: dict = dc_field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def _partial(self, key):
        """The expression differentiated by each (variable, order) of
        ``key`` in turn, with its free variables; derived once per key."""
        if key not in self._dcache:
            e = self.expr
            for name, d in key:
                e = exprfn.differentiate(e, name, d)
            self._dcache[key] = (e, exprfn.free_variables(e))
        return self._dcache[key]

    def eval(self, ctx, pts, orders, extras):
        n = pts.shape[0]
        key = tuple((name, d) for name, d in zip(ctx.var_names, orders) if d)
        e, present = self._partial(key)
        bindings = ctx.bindings(pts, extras)
        off = _on_grid(e, bindings, n).copy()
        grads = {name: _on_grid(self._partial(key + ((name, 1),))[0],
                                bindings, n).copy()
                 for name in extras or () if name in present}
        return AffineEval(None, off, grads)


@dataclass(frozen=True)
class BranchKappa:
    """Piecewise-smooth kappa: the first branch whose predicate accepts the
    current extras is used, with symbolic partials of that branch."""

    branches: tuple  # ((predicate(extras) -> bool, Expr), ...)
    _kappas: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_kappas", tuple(
            ExprKappa(expr) for _, expr in self.branches))

    def eval(self, ctx, pts, orders, extras):
        for (pred, _), kappa in zip(self.branches, self._kappas):
            if pred(extras or {}):
                return kappa.eval(ctx, pts, orders, extras)
        raise ValueError("no kappa branch matched the current extras")


@dataclass(frozen=True)
class ComponentKappa:
    """kappa = base - sum coeff * (other variable's CE evaluated at fixed
    slices); refs are (coeff, field, {dim: (order, location)})."""

    base: object  # Expr or float
    refs: tuple
    _base: object = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_base", ExprKappa(self.base) if isinstance(
            self.base, Expr) else ConstKappa(float(self.base)))

    def eval(self, ctx, pts, orders, extras):
        out = self._base.eval(ctx, pts, orders, extras)
        for coeff, other, fixed in self.refs:
            if any(orders[j] for j in fixed):
                continue  # constant along fixed dims once sliced
            pts2 = pts.copy()
            orders2 = list(orders)
            for j, (d, loc) in fixed.items():
                pts2[:, j] = loc
                orders2[j] = d
            ref = other.eval(pts2, tuple(orders2), extras)
            _ae_iadd(out, _ae_iscale(ref, -float(coeff)))
        return out


@dataclass(frozen=True)
class Constraint:
    """operator applied to the dependent variable equals kappa."""

    operator: ConstraintOperator
    kappa: object  # ConstKappa | ExprKappa | BranchKappa | ComponentKappa

    @staticmethod
    def point(value, location, order=0, coeff=1.0):
        """Convenience: coeff * y^(order)(location) = value."""
        return Constraint(ConstraintOperator([PointDeriv(order, location, coeff)]),
                          as_kappa(value))


def as_kappa(value):
    """Coerce a float / Expr / kappa object into a kappa."""
    if isinstance(value, (ConstKappa, ExprKappa, BranchKappa, ComponentKappa)):
        return value
    if isinstance(value, Expr):
        return ExprKappa(value)
    return ConstKappa(float(value))


# ---------------------------------------------------------------------------
# support functions (monomials with exact derivative rules)

class MonomialSupports:
    """Support basis x^p for a tuple of powers; default 1, x, ..., x^(k-1)."""

    def __init__(self, powers):
        self.powers = tuple(int(p) for p in powers)
        if any(p < 0 for p in self.powers):
            raise ValueError("monomial powers must be non-negative")

    @staticmethod
    def default(k):
        return MonomialSupports(range(k))

    def __len__(self):
        return len(self.powers)

    def deriv(self, x, j, d):
        p = self.powers[j]
        if d > p:
            return np.zeros_like(np.asarray(x, dtype=float))
        coef = 1.0
        for i in range(d):
            coef *= p - i
        return coef * np.asarray(x, dtype=float) ** (p - d)

    def table(self, x, d):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.column_stack([self.deriv(x, j, d) for j in range(len(self))])


def support_matrix(constraints, supports: MonomialSupports,
                   extra_conditions=()) -> np.ndarray:
    """S_ij = C_i[s_j] at the operators' taps; extra integral-augmentation
    conditions are stacked as additional rows (each a plain definite
    integral over this dimension, taken at its taps too)."""
    ops = [c.operator for c in constraints]
    ops += [ConstraintOperator([DefiniteIntegral(lo, hi)])
            for lo, hi in extra_conditions]
    return apply_operator_columns(ops, supports.table)


_COND_LIMIT = 1e12


def solve_switching(S: np.ndarray, n_constraints=None) -> np.ndarray:
    """alpha solving S alpha = [I; 0]; raises SingularSupportError when the
    condition estimate exceeds 1e12."""
    S = np.asarray(S, dtype=float)
    if S.shape[0] != S.shape[1]:
        raise ValueError("stacked support matrix must be square")
    k = S.shape[0] if n_constraints is None else n_constraints
    cond = np.linalg.cond(S)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSupportError(cond)
    rhs = np.zeros((S.shape[0], k))
    rhs[:k, :k] = np.eye(k)
    return np.linalg.solve(S, rhs)


@dataclass(frozen=True)
class UnivariateCE:
    """Constrained expression data for one dimension."""

    dim: int
    constraints: tuple
    supports: MonomialSupports
    alpha: np.ndarray = dc_field(repr=False, compare=False, default=None)
    extra_conditions: tuple = ()
    # [(probe, rho)] of the last ``evaluate_ce`` call, or empty
    _rho: list = dc_field(default_factory=list, init=False, repr=False,
                          compare=False)

    def switching(self, x, d=0) -> np.ndarray:
        """phi_j^(d)(x) for all j, shape (npoints, nconstraints)."""
        return self.supports.table(x, d) @ self.alpha

    @property
    def separable(self) -> bool:
        """Whether the CE maps every function of its own variable alone to
        one: no augmentation rows, no foreign integrals and no component
        kappa (the only kappa with coefficient rows).  Around a tensor
        product it then acts on one factor, as the projection
        P T = T - phi (C[T]) of that factor's table."""
        return not self.extra_conditions and not any(
            isinstance(c.kappa, ComponentKappa)
            or any(isinstance(s, PointDeriv) and s.foreign
                   for s in c.operator.specs)
            for c in self.constraints)

    def kronecker_defect(self) -> float:
        """max |C_i[phi_j] - delta_ij| over the native constraints."""
        S = support_matrix(self.constraints, self.supports)
        prod = S @ self.alpha
        return float(np.max(np.abs(prod - np.eye(len(self.constraints)))))


def build_univariate_ce(constraints, supports=None, dim=0,
                        extra_conditions=()) -> UnivariateCE:
    """Build switching coefficients for a set of constraints on one dimension.

    ``extra_conditions`` holds (lo, hi) intervals from other dimensions'
    integral constraints; each adds a zero-integral condition and requires one
    more support function.
    """
    constraints = tuple(constraints)
    n = len(constraints) + len(extra_conditions)
    if supports is None:
        supports = MonomialSupports.default(n)
    if len(supports) != n:
        raise ValueError(
            f"{n} support functions required (constraints + augmentation rows), "
            f"got {len(supports)}")
    S = support_matrix(constraints, supports, extra_conditions)
    alpha = solve_switching(S, n_constraints=len(constraints))
    return UnivariateCE(dim=dim, constraints=constraints, supports=supports,
                        alpha=alpha, extra_conditions=tuple(extra_conditions))


# ---------------------------------------------------------------------------
# affine field machinery

@dataclass
class AffineEval:
    """u = rows @ xi + offset, with d(offset)/d(extra) per named extra;
    ``rows`` is None (zero) when u does not depend on xi."""

    rows: np.ndarray | None
    offset: np.ndarray
    grads: dict

    def value(self, xi):
        return (0.0 if self.rows is None else self.rows @ xi) + self.offset


def _zero(n):
    return AffineEval(None, np.zeros(n), {})


def _ae_iadd(a: AffineEval, b: AffineEval) -> AffineEval:
    """a + b written into a's arrays, which the caller owns; b's arrays
    may become a's.  Absent rows (None) act as zero rows."""
    if a.rows is None:
        a.rows = b.rows
    elif b.rows is not None:
        a.rows += b.rows
    a.offset += b.offset
    for k, v in b.grads.items():
        if k in a.grads:
            a.grads[k] += v
        else:
            a.grads[k] = v
    return a


def _ae_iscale(a: AffineEval, s) -> AffineEval:
    """a times s, a scalar or one factor per row, written into a's arrays,
    which the caller owns."""
    if a.rows is not None:
        a.rows *= s[:, None] if np.ndim(s) else s
    a.offset *= s
    for v in a.grads.values():
        v *= s
    return a


@dataclass(frozen=True)
class UnknownLayout:
    """Column layout of the global coefficient vector."""

    names: tuple
    sizes: tuple

    @property
    def width(self):
        return int(sum(self.sizes))

    def slice_of(self, name):
        start = 0
        for n, s in zip(self.names, self.sizes):
            if n == name:
                return slice(start, start + s)
            start += s
        raise KeyError(name)


@dataclass(frozen=True)
class FieldContext:
    """Shared evaluation context: variable names and parameters."""

    var_names: tuple
    params: dict = dc_field(default_factory=dict)

    def bindings(self, pts, extras=None):
        """The names an expression reads at ``pts``: the params, each
        variable's coordinate column and the extras."""
        b = dict(self.params)
        for j, name in enumerate(self.var_names):
            b[name] = pts[:, j]
        if extras:
            b.update(extras)
        return b


class Field:
    """Evaluable with mixed partial derivatives, affine in the coefficients.

    ``eval`` returns fresh arrays that its caller owns: no array of the
    result is held by the field or shared with another result, so a caller
    may compose it in place (``CEField`` does)."""

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx

    def eval(self, pts, orders, extras=None) -> AffineEval:
        raise NotImplementedError


class FeatureField(Field):
    """Free function g = h(x)^T xi in one slice of ``width`` coefficients."""

    def __init__(self, ctx, feature, col_slice, width):
        super().__init__(ctx)
        self.feature = feature
        self.col_slice = col_slice
        self.width = width

    def eval(self, pts, orders, extras=None):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rows = _place_columns(lambda: self.feature.eval(pts, orders),
                              pts.shape[0], self.col_slice, self.width)
        return AffineEval(rows, np.zeros(pts.shape[0]), {})


def _place_columns(block, n, col_slice, width):
    """The (n, cols) array ``block()`` in the columns ``col_slice`` of an
    (n, width) array of zeros, or that array itself when the slice spans
    every column.  The zeros are allocated before the block is made:
    allocated after it, they sit above its freed memory in the heap, and a
    run of Gauss-Newton solves peaked about 0.3 MB higher in resident
    memory."""
    if col_slice.indices(width) == (0, width, 1):
        return block()
    rows = np.zeros((n, width))
    rows[:, col_slice] = block()
    return rows


class ExprField(Field):
    """Probe field from a symbolic expression (no coefficients)."""

    def __init__(self, expr: Expr, var_names, params=None):
        super().__init__(FieldContext(tuple(var_names), dict(params or {})))
        self._kappa = ExprKappa(expr)

    def eval(self, pts, orders, extras=None):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._kappa.eval(self.ctx, pts, orders, extras)


class CallableField(Field):
    """Probe field from fn(pts, orders) -> values; ``params`` bind the
    kappas of constrained expressions composed around it."""

    def __init__(self, fn, var_names, params=None):
        super().__init__(FieldContext(tuple(var_names), dict(params or {})))
        self.fn = fn

    def eval(self, pts, orders, extras=None):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        # a copy: ``fn`` may return an array it keeps
        off = np.array(self.fn(pts, orders), dtype=float).reshape(pts.shape[0])
        return AffineEval(None, off, {})


def _distinct_rows(pts, k):
    """(first, inverse): indices of one row per distinct point of ``pts``
    with column k ignored, and the index of each row's distinct point, so
    ``pts[first][inverse]`` equals ``pts`` outside column k.  Coordinates
    compare by their bits (0.0 and -0.0 differ).  The integer code of a row
    is built one column at a time from that column's 1-D ``np.unique`` and
    renumbered after each column, so it stays below n squared."""
    n = pts.shape[0]
    first, code = np.arange(min(n, 1)), np.zeros(n, dtype=np.int64)
    for j in range(pts.shape[1]):
        if j != k:
            values, col = np.unique(pts[:, j].view(np.int64),
                                    return_inverse=True)
            _, first, code = np.unique(code * len(values) + col,
                                       return_index=True, return_inverse=True)
    return first, code


def _apply_op_distinct(op: ConstraintOperator, inner: Field, pts, orders, k,
                       extras):
    """(result, inverse): C^k_j applied to a multivariate field at the
    distinct points of the coordinates other than x_k, and the index of
    each row of ``pts`` into them (None when every row is distinct), so
    the result at the rows ``inverse`` indexes is the operator at every
    row.

    Cross-derivative orders for the other dimensions are carried through
    (the own-dimension order is set by each tap; the result is constant in
    x_k): the sum over the operator's taps of the weight times the inner
    field at the tap's coordinates.  A tap integrated over a dimension the
    orders differentiate is constant along it and drops out.  On a grid of
    n points with n_k nodes along x_k the inner field is evaluated at
    n / n_k points per tap, not at n."""
    first, inverse = _distinct_rows(pts, k)
    if len(first) < pts.shape[0]:
        pts = pts[first]
    else:
        inverse = None
    out = None
    for weight, d, x, foreign in op.taps:
        if any(orders[j] for j, _ in foreign):
            continue
        orders2 = list(orders)
        orders2[k] = d
        pts2 = pts.copy()
        pts2[:, k] = x
        for j, t in foreign:
            pts2[:, j] = t
        term = _ae_iscale(inner.eval(pts2, tuple(orders2), extras), weight)
        out = term if out is None else _ae_iadd(out, term)
    return (_zero(pts.shape[0]) if out is None else out), inverse


def _apply_op_to_field(op: ConstraintOperator, inner: Field, pts, orders, k,
                       extras) -> AffineEval:
    """C^k_j applied to a multivariate field at every row of ``pts`` (see
    ``_apply_op_distinct``)."""
    a, inverse = _apply_op_distinct(op, inner, pts, orders, k, extras)
    if inverse is None:
        return a
    return AffineEval(None if a.rows is None else a.rows[inverse],
                      a.offset[inverse],
                      {name: g[inverse] for name, g in a.grads.items()})


def _add_rho(out, kap, cg, inverse, p):
    """out + (kap - cg[inverse]) * p for one array of an evaluation: its
    rows (n, width), p per row, its offset or a gradient (n,); any of out,
    kap and cg None when absent (zero).  Written into ``out``, or a fresh
    array for None: rows ``ROW_BLOCK`` at a time, so the gathered product
    never exists at full size, a vector in one block.  Each entry takes the
    operations of the full-size expression (a - b is a + (-b) exactly)."""
    if kap is None and cg is None:
        return out
    shape = (cg if kap is None else kap).shape[1:]
    n = p.shape[0]
    step = ROW_BLOCK if shape else n
    if shape:
        p = p[:, None]
    fresh = out is None
    if fresh:
        out = np.empty((n, *shape))
    for lo in range(0, n, step):
        blk = slice(lo, lo + step)
        c = None if cg is None else cg[blk] if inverse is None \
            else cg[inverse[blk]]
        rho = -c if kap is None else kap[blk] if c is None else kap[blk] - c
        if fresh:
            np.multiply(rho, p[blk], out=out[blk])
        else:
            out[blk] += rho * p[blk]
    return out


class CEField(Field):
    """One univariate constrained expression applied around an inner field.

    The inner field's result is its own (see ``Field``), so ``_add_rho``
    adds each term phi_j (kappa_j - C_j[g]) into its rows, offset and
    gradients in place.  C_j[g] stays on the distinct points of the other
    coordinates and is gathered back to every row inside that kernel."""

    def __init__(self, inner: Field, ce: UnivariateCE):
        super().__init__(inner.ctx)
        self.inner = inner
        self.ce = ce

    def eval(self, pts, orders, extras=None):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        orders = tuple(orders)
        k = self.ce.dim
        out = self.inner.eval(pts, orders, extras)
        phi = self.ce.switching(pts[:, k], d=orders[k])
        cross = orders[:k] + (0,) + orders[k + 1:]
        for j, con in enumerate(self.ce.constraints):
            p = phi[:, j]
            if not np.any(p):
                continue
            kap = con.kappa.eval(self.ctx, pts, cross, extras)
            cg, inverse = _apply_op_distinct(con.operator, self.inner, pts,
                                             cross, k, extras)
            out.rows = _add_rho(out.rows, kap.rows, cg.rows, inverse, p)
            out.offset = _add_rho(out.offset, kap.offset, cg.offset, inverse,
                                  p)
            for name in {**kap.grads, **cg.grads}:
                out.grads[name] = _add_rho(out.grads.get(name),
                                           kap.grads.get(name),
                                           cg.grads.get(name), inverse, p)
            del kap, cg  # before the next constraint's terms are made
        return out


# ---------------------------------------------------------------------------
# univariate convenience layer: one CE around a scalar probe, with constant
# kappas (fields, ODEs included, take ``CEField``)

def evaluate_ce(ce: UnivariateCE, g, x, d=0):
    """y^(d)(x) for a univariate CE and probe free function g.

    ``g`` provides deriv(x, d), and every operator is applied at its taps;
    every kappa must be constant.  Returns a scalar for scalar x, an array
    otherwise.

    rho = kappa - C[g] is computed once per probe: ``ce`` remembers the
    last probe object it saw (holding it, so its identity cannot pass to
    another) with its rho, and reuses that rho while ``g`` is that same
    object.  So ``g.deriv`` must be pure: the same arguments give the same
    value for the probe's lifetime.
    """
    if not all(isinstance(c.kappa, ConstKappa) for c in ce.constraints):
        raise ValueError("evaluate_ce expects constant kappas; component and "
                         "expression kappas are evaluated through fields")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    phi = ce.switching(x_arr, d=d)
    memo = ce._rho[:]  # one read: another thread may replace the entry
    if memo and memo[0][0] is g:
        rho = memo[0][1]
    else:
        rho = np.array([c.kappa.value - apply_operator(c.operator, g)
                        for c in ce.constraints])
        ce._rho[:] = [(g, rho)]
    out = np.asarray([g.deriv(t, d) for t in x_arr], dtype=float) + phi @ rho
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out
