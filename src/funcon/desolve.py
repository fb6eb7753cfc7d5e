"""Differential-equation problem assembly and solution.

A ``DeProblem`` declares independent variables with grids, dependent
variables with constraints and a free-function family, residual expressions
over the dependent variables' partials, optional clamped scalar extras, and
solver settings.  ``solve`` dispatches between one-shot linear least squares
(affine residuals, no extras) and Gauss-Newton, evaluates errors on a uniform
test grid (endpoints included), and returns a ``SolveReport``.

``ProblemBuild`` differentiates each residual once in every unknown it
mentions.  Those partials are the Jacobian's coefficients and also choose the
path: a residual is affine when none of its partials in the partial tags
mentions a tag and no tag sits under ``sign``, the one function whose partial
is taken as 0.

Constraints hold at machine precision by construction whenever the mode is
"embedded"; "spectral" mode skips the constrained expression and instead
appends one constraint row per boundary training point, on the linear and
the Gauss-Newton path alike.

Each dependent variable's processed univariate CEs (``ProblemBuild.ces``)
compose around the free function a caller holds: zero for the kappa
offsets, once per grid at the initial extras and once per Gauss-Newton
iterate at other extras.  Coefficient rows are evaluated once per grid.
When every CE of a tensor-feature variable is separable (point and
own-dimension integral constraints, constant or expression kappas), the
build applies each dimension's operators to its full 1-D basis table once,
C[T]; the rows are products of the projected tables T - phi (C T) at the
retained multi-indices (``ProblemBuild.projections``), and solution values
contract xi with the projected tables one dimension at a time, plus the
offsets.  Spectral mode, with no CE, takes the plain tables.  ELM features,
foreign integrals and component kappas take the recursive CE around
h(x)^T xi, whose values the feature's ``values`` gives without building
rows.  The linear path assembles its matrix one partial tag at a time
(``assemble_linear``), holding one tag's rows at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from funcon import exprfn
from funcon import multivar
from funcon.basis import (
    BasisFamily,
    DomainMap,
    ElmFamily,
    ElmFeature,
    TensorFeature,
    cgl_nodes,
    eval_basis,
    uniform_nodes,
)
from funcon.constraint_core import (
    AffineEval,
    CallableField,
    Constraint,
    ConstraintOperator,
    DefiniteIntegral,
    ExprField,
    ExprKappa,
    FeatureField,
    FieldContext,
    MonomialSupports,
    PointDeriv,
    UnknownLayout,
    _ae_iadd,
    _ae_iscale,
    _apply_op_to_field,
    _on_grid,
    _place_columns,
    apply_operator_columns,
    as_kappa,
)
from funcon.exprfn import Expr
from funcon.solvers import CONVERGED_REASONS, NllsConfig, lstsq, nlls

__all__ = [
    "NonAffineResidualError",
    "IndependentVar",
    "BasisSpec",
    "ElmSpec",
    "ConstraintSpec",
    "DependentVar",
    "ExtraUnknown",
    "DeProblem",
    "SolveReport",
    "SplitSpec",
    "ProblemBuild",
    "assemble_linear",
    "assemble_nonlinear",
    "solve",
    "solve_split",
    "clamp_scalar",
    "InequalityClamp",
]


class NonAffineResidualError(ValueError):
    """Residual contains products or nonlinear functions of the unknowns."""


def _as_expr(e):
    return e if isinstance(e, Expr) else exprfn.parse(str(e))


# ---------------------------------------------------------------------------
# problem declaration

@dataclass(frozen=True)
class IndependentVar:
    name: str
    interval: tuple
    points: int
    spacing: str = "cgl"  # cgl | uniform

    def __post_init__(self):
        if self.spacing not in ("cgl", "uniform"):
            raise ValueError(f"independent variable {self.name!r}: spacing "
                             f"must be 'cgl' or 'uniform', got {self.spacing!r}")

    def nodes(self):
        lo, hi = self.interval
        base = cgl_nodes(self.points) if self.spacing == "cgl" \
            else uniform_nodes(self.points)
        return lo + (base + 1.0) * 0.5 * (hi - lo)


@dataclass(frozen=True)
class BasisSpec:
    """Tensor-product polynomial/Fourier expansion with a total-degree cap."""

    family: str = "chebyshev"
    degree: int = 10
    removal: dict = dc_field(default_factory=dict)  # dim name -> spec override
    window: dict = dc_field(default_factory=dict)   # finite windows, if needed


@dataclass(frozen=True)
class ElmSpec:
    activation: str = "tanh"
    neurons: int = 100
    seed: int = 0
    init_range: tuple = (-1.0, 1.0)


@dataclass(frozen=True)
class ConstraintSpec:
    """Declarative constraint on one dimension of one dependent variable.

    ``terms`` are dicts: {"order": d, "at": a, "coeff": w} for point
    derivatives (optionally "integral_over": [dim, lo, hi]) or
    {"integral": [lo, hi], "coeff": w} for own-dimension integrals.
    ``value`` is kappa: a number, an expression string over the other
    independent variables / extras / params, or a kappa object.
    """

    dim: str
    terms: tuple
    value: object


@dataclass(frozen=True)
class DependentVar:
    name: str
    constraints: tuple
    basis: object  # BasisSpec | ElmSpec
    supports: dict = dc_field(default_factory=dict)  # dim name -> powers


@dataclass(frozen=True)
class ExtraUnknown:
    name: str
    init: float
    lower: float = None
    upper: float = None


@dataclass(frozen=True)
class DeProblem:
    name: str
    independent: tuple
    dependent: tuple
    residuals: tuple
    params: dict = dc_field(default_factory=dict)
    extras: tuple = ()
    method: str = "svd-pinv"
    mode: str = "embedded"  # embedded | spectral
    nlls_tol: float = 1e-13
    nlls_max_iter: int = 50
    analytic: dict = dc_field(default_factory=dict)  # dep name -> expression
    test_points: tuple = None  # per-dim counts, uniform; None disables errors

    def __post_init__(self):
        # one namespace: residuals, kappas and reports look names up in it
        kinds = {}
        for kind, names in (
                ("independent variable", [v.name for v in self.independent]),
                ("dependent variable", [d.name for d in self.dependent]),
                ("param", list(self.params)),
                ("extra", [e.name for e in self.extras])):
            for name in names:
                if name in kinds:
                    raise ValueError(f"name {name!r} is declared as "
                                     f"{kinds[name]} and as {kind}")
                kinds[name] = kind
        if self.mode not in ("embedded", "spectral"):
            raise ValueError(f"mode must be 'embedded' or 'spectral', got "
                             f"{self.mode!r}")
        dims = tuple(v.name for v in self.independent)
        for dep in self.dependent:
            # (field, dimension name) for each dimension the variable names
            named = [("constraint", cs.dim) for cs in dep.constraints]
            named += [("supports", d) for d in dep.supports]
            named += [(f"basis {f}", d) for f in ("removal", "window")
                      for d in getattr(dep.basis, f, ())]
            for what, dim in named:
                if dim not in dims:
                    raise ValueError(
                        f"dependent variable {dep.name!r}: {what} on "
                        f"{dim!r}, which is not an independent variable "
                        f"{dims}")
        if self.test_points is not None and (
                len(self.test_points) != len(dims) or not all(
                    isinstance(c, (int, np.integer)) and c >= 1
                    for c in self.test_points)):
            raise ValueError(f"test_points must be one integer count >= 1 per "
                             f"independent variable {dims}, got "
                             f"{self.test_points!r}")


# ---------------------------------------------------------------------------
# construction

def _constraint_from_spec(spec: ConstraintSpec, dim_index: dict):
    specs = []
    for t in spec.terms:
        coeff = float(t.get("coeff", 1.0))
        if "integral" in t:
            lo, hi = t["integral"]
            specs.append(DefiniteIntegral(float(lo), float(hi), coeff))
        else:
            foreign = ()
            if "integral_over" in t:
                dname, lo, hi = t["integral_over"]
                foreign = ((dim_index[dname], float(lo), float(hi)),)
            specs.append(PointDeriv(int(t.get("order", 0)), float(t["at"]),
                                    coeff, foreign))
    value = spec.value
    if isinstance(value, str):
        value = exprfn.parse(value)
    kappa = as_kappa(value)
    if isinstance(kappa, ExprKappa) and \
            spec.dim in exprfn.free_variables(kappa.expr):
        raise ValueError(
            f"kappa for a constraint on {spec.dim!r} must not depend on "
            f"{spec.dim!r} itself: {exprfn.to_source(kappa.expr)!r}")
    return Constraint(ConstraintOperator(specs), kappa)


class ProblemBuild:
    """Everything derived from a DeProblem needed to assemble and evaluate."""

    def __init__(self, problem: DeProblem):
        self.problem = problem
        self.var_names = tuple(v.name for v in problem.independent)
        self.dim_index = {n: i for i, n in enumerate(self.var_names)}
        self.extras_spec = {e.name: e for e in problem.extras}

        features = {}
        constraints = {}
        for dep in problem.dependent:
            cons_by_dim = {}
            for cs in dep.constraints:
                k = self.dim_index[cs.dim]
                cons_by_dim.setdefault(k, []).append(
                    _constraint_from_spec(cs, self.dim_index))
            constraints[dep.name] = cons_by_dim
            features[dep.name] = self._feature_for(dep, cons_by_dim)
        self.layout = UnknownLayout(tuple(features),
                                    tuple(f.count for f in features.values()))
        self.ctx = FieldContext(self.var_names, dict(problem.params))

        self.features, self.constraints = features, constraints
        zero = CallableField(lambda pts, orders: np.zeros(len(pts)),
                             self.var_names, problem.params)
        self.ces, self.fields, self.offsets = {}, {}, {}
        # the dependent variables whose rows come from projected 1-D tables:
        # name -> {dim: (ce, C[T])}, T that dimension's full basis table
        self.projections = {}
        for dep in problem.dependent:
            cons_by_dim = {} if problem.mode == "spectral" \
                else constraints[dep.name]
            order, ces = multivar.build_dimension_ces(
                cons_by_dim, self._supports(dep, cons_by_dim))
            # processed univariate CEs in processing order; none in spectral
            self.ces[dep.name] = tuple(ces[k] for k in order.order if k in ces)
            self.fields[dep.name] = self.compose(dep.name, FeatureField(
                self.ctx, features[dep.name], self.layout.slice_of(dep.name),
                self.layout.width))
            self.offsets[dep.name] = self.compose(dep.name, zero)
            feature = features[dep.name]
            if isinstance(feature, TensorFeature) and all(
                    ce.separable for ce in self.ces[dep.name]):
                self.projections[dep.name] = {
                    ce.dim: (ce, _operators_on_table(ce, feature))
                    for ce in self.ces[dep.name]}

        self._residuals = tuple(_as_expr(r) for r in problem.residuals)
        self._tags = self._collect_tags()
        # each residual's partials in the unknowns it mentions, tags in
        # ``_tags`` order then extras: the Jacobian's coefficients, and the
        # affine verdict (first residual that is not affine, or None)
        self._partials = tuple(self._differentiate(r) for r in self._residuals)
        self._nonaffine = next(
            (r for r, d in zip(self._residuals, self._partials)
             if not self._affine(r, d)), None)

    def _supports(self, dep, cons_by_dim):
        """The declared support bases by dimension index.  A constrained
        dimension's basis needs one function per constraint and one per
        augmentation row (another dimension's integral over it)."""
        out = {}
        for d, powers in dep.supports.items():
            k = self.dim_index[d]
            need = len(cons_by_dim.get(k, ())) + len(
                multivar.integral_conditions_for(cons_by_dim, k))
            if k in cons_by_dim and len(powers) != need:
                raise ValueError(
                    f"dependent variable {dep.name!r}: supports on {d!r} need "
                    f"{need} functions (constraints + augmentation rows), got "
                    f"{len(powers)}")
            out[k] = MonomialSupports(powers)
        return out

    def _maps(self, spec):
        from funcon.basis import NATIVE_DOMAINS
        z0, zf = NATIVE_DOMAINS[spec.family]
        maps = []
        for v in self.problem.independent:
            if v.name in spec.window:
                w0, wf = spec.window[v.name]
            elif np.isfinite(z0) and np.isfinite(zf):
                w0, wf = z0, zf
            else:
                raise ValueError(
                    f"{spec.family} has an infinite native domain; declare a "
                    f"finite window for {v.name!r} via BasisSpec.window")
            maps.append(DomainMap(v.interval[0], v.interval[1], w0, wf))
        return maps

    def _feature_for(self, dep, cons_by_dim):
        spec = dep.basis
        if isinstance(spec, ElmSpec):
            fam = ElmFamily(spec.activation, spec.neurons,
                            len(self.var_names), spec.seed,
                            spec.init_range[0], spec.init_range[1])
            maps = [DomainMap(v.interval[0], v.interval[1], 0.0, 1.0)
                    for v in self.problem.independent]
            return ElmFeature(fam, maps)
        families = []
        for i, v in enumerate(self.problem.independent):
            if self.problem.mode == "spectral":
                removal = 0  # no constrained expression, keep the full basis
            elif v.name in spec.removal:
                removal = spec.removal[v.name]
            else:
                removal = len(cons_by_dim.get(i, ()))
            families.append(BasisFamily(spec.family, spec.degree, removal))
        return TensorFeature(families, self._maps(spec),
                             total_degree=spec.degree)

    # -- residual analysis ---------------------------------------------------

    def _collect_tags(self):
        dep_names = {d.name for d in self.problem.dependent}
        known = set(self.var_names) | set(self.problem.params) \
            | set(self.extras_spec) | dep_names
        tags = {}
        for r in self._residuals:
            # sorted: the tag order is the summation order of every
            # assembled row, so it must not follow the hash seed
            for name in sorted(exprfn.free_variables(r)):
                base, orders = exprfn.split_partial_tag(name)
                if base in dep_names:
                    bad = set(orders) - set(self.var_names)
                    if bad:
                        raise ValueError(
                            f"partial tag {name!r} differentiates along unknown "
                            f"dimensions {sorted(bad)}")
                    tags[name] = (base, tuple(orders.get(v, 0)
                                              for v in self.var_names))
                elif name not in known:
                    raise ValueError(f"unknown symbol {name!r} in residual")
        return tags

    def _differentiate(self, r):
        present = exprfn.free_variables(r)
        return {nm: exprfn.differentiate(r, nm, 1)
                for nm in (*self._tags, *self.extras_spec) if nm in present}

    def _affine(self, r, partials):
        """Affine in the tags: no tag partial mentions a tag, and no tag sits
        under ``sign``, whose partial the Jacobian takes as 0."""
        return not _tag_under_sign(r, self._tags) and all(
            self._tags.keys().isdisjoint(exprfn.free_variables(d))
            for nm, d in partials.items() if nm in self._tags)

    def is_affine(self):
        return self._nonaffine is None

    # -- evaluation helpers ----------------------------------------------------

    def compose(self, dep_name, g):
        """One dependent variable's constrained expression around ``g``."""
        return multivar.compose_recursive(self.ces[dep_name], g)

    def grid(self):
        return _mesh([v.nodes() for v in self.problem.independent])

    def test_grid(self):
        counts = self.problem.test_points
        if counts is None:
            return None
        return _mesh([np.linspace(v.interval[0], v.interval[1], c)
                      for v, c in zip(self.problem.independent, counts)])

    def clamp_extras(self, values):
        """Clamped extras and their gates by name, from ``values`` in
        declaration order: the unknown vector's tail ``q[width:]``, or the
        inits."""
        used, gates = {}, {}
        for spec, value in zip(self.problem.extras, values, strict=True):
            used[spec.name], gates[spec.name] = clamp_scalar(
                value, spec.lower, spec.upper)
        return used, gates

    def partial_evals(self, pts, extras, tags=None):
        """Coefficient rows, offset and extras gradients per partial tag:
        of ``tags``, or of every tag in tag order when None.

        A dependent variable in ``projections`` takes its rows from the
        tensor feature's projected 1-D tables and its offset and gradients
        from the CE of the zero function, which carries every kappa term.
        The recursive CE around h(x)^T xi serves only the others (ELM
        features, foreign integrals, component kappas) and the offsets.
        The arrays are fresh, as a ``Field``'s are."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = {}
        for tag in self._tags if tags is None else tags:
            base, orders = self._tags[tag]
            if base not in self.projections:
                out[tag] = self.fields[base].eval(pts, orders, extras)
                continue
            off = self.offsets[base].eval(pts, orders, extras)
            rows = _place_columns(
                lambda: self.features[base].eval(
                    pts, orders, projection=self.projections[base]),
                pts.shape[0], self.layout.slice_of(base), self.layout.width)
            out[tag] = AffineEval(rows, off.offset, off.grads)
        return out

    def _tag_evals(self, fields, pts, extras):
        return {tag: fields[base].eval(pts, orders, extras)
                for tag, (base, orders) in self._tags.items()}

    def constraint_evals(self, fields, extras):
        """Spectral mode's constraint rows: C[u] - kappa for each constraint
        of u = ``fields[dep]``, sampled at every training node combination of
        the other dimensions.  Empty in embedded mode, where the constrained
        expression satisfies the constraints by construction."""
        if self.problem.mode != "spectral":
            return []
        axes = [v.nodes() for v in self.problem.independent]
        zero = (0,) * len(axes)
        out = []
        for dep in self.problem.dependent:
            u = fields[dep.name]
            for k, cons in self.constraints[dep.name].items():
                pts = _mesh([a if j != k else np.array([0.0])
                             for j, a in enumerate(axes)])
                for con in cons:
                    lhs = _apply_op_to_field(con.operator, u, pts, zero, k, extras)
                    kap = con.kappa.eval(u.ctx, pts, zero, extras)
                    out.append(_ae_iadd(lhs, _ae_iscale(kap, -1.0)))
        return out

    def evaluate_solution(self, dep_name, pts, xi, extras):
        """Values (n,) of one dependent variable at coefficients ``xi``.

        A variable in ``projections`` contracts xi with its projected 1-D
        tables (``TensorFeature.values`` with the projection) and adds the
        offsets, the CE of the zero function.  The others (ELM features,
        foreign integrals, component kappas) take their CE around the
        solved free function h(x)^T xi, which ``feature.values`` evaluates
        without an (n, count) row matrix."""
        feature = self.features[dep_name]
        coef = xi[self.layout.slice_of(dep_name)]
        zero = (0,) * len(self.var_names)
        if dep_name in self.projections:
            return feature.values(pts, zero, coef, self.projections[dep_name]) \
                + self.offsets[dep_name].eval(pts, zero, extras).offset
        solved = CallableField(
            lambda p, orders: feature.values(p, orders, coef),
            self.var_names, self.problem.params)
        return self.compose(dep_name, solved).eval(pts, zero, extras).offset

    def solution_and_truth(self, dep_name, pts, xi, extras):
        """(prediction, analytic solution) of one dependent variable on
        ``pts``; the truth is None when the problem declares none."""
        pred = self.evaluate_solution(dep_name, pts, xi, extras)
        expr = self.problem.analytic.get(dep_name)
        if expr is None:
            return pred, None
        truth = ExprField(_as_expr(expr), self.var_names, self.problem.params)
        return pred, truth.eval(pts, (0,) * len(self.var_names), extras).offset


def _operators_on_table(ce, feature):
    """C_j[T_i] for the full 1-D basis table T of ``feature`` along ce.dim,
    shape (constraints, degree + 1), at the operators' taps, as the
    recursive CE takes them.  The table is evaluated once per derivative
    order (the recurrences act on each point alone)."""
    fam, dmap = feature.families[ce.dim], feature.maps[ce.dim]
    return apply_operator_columns(
        [c.operator for c in ce.constraints],
        lambda x, d: eval_basis(fam, dmap, x, d))


def _mesh(axes):
    """Every combination of the axes' nodes, first axis slowest: (n, dims)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _tag_under_sign(e, tags):
    if isinstance(e, exprfn.Call):
        if e.fn == "sign":
            return not tags.keys().isdisjoint(exprfn.free_variables(e.arg))
        return _tag_under_sign(e.arg, tags)
    if isinstance(e, exprfn.Neg):
        return _tag_under_sign(e.arg, tags)
    if isinstance(e, exprfn.Bin):
        return _tag_under_sign(e.left, tags) or _tag_under_sign(e.right, tags)
    return False


# ---------------------------------------------------------------------------
# assembly

def assemble_linear(bld: ProblemBuild, pts=None):
    """(A, b) for affine residuals: the first Gauss-Newton system at zero
    coefficients, A = J(0) and b = -L(0), bit for bit as
    ``assemble_nonlinear``'s closures give them.  One row per residual per
    grid point, then spectral mode's constraint rows.  Columns are ordered
    dependent variable by dependent variable, retained basis index within.

    The partial tags are evaluated one at a time: each tag's rows are
    scaled by its coefficient in every residual that mentions it, added
    into that residual's block of A, and dropped, so A and one tag's rows
    are the only full-size arrays held.  The blocks sum their tags in tag
    order, as the Jacobian does.  The coefficients (the residuals' partials
    in the tags) mention no tag, so they need the grid alone."""
    if bld.problem.extras:
        raise NonAffineResidualError("extras require the nonlinear path")
    if not bld.is_affine():
        raise NonAffineResidualError(
            f"residual {exprfn.to_source(bld._nonaffine)!r} is not affine in "
            f"the unknowns")
    pts = bld.grid() if pts is None else pts
    n, width = pts.shape[0], bld.layout.width
    bindings = bld.ctx.bindings(pts)
    coefs = [{tag: _on_grid(d, bindings, n) for tag, d in partials.items()}
             for partials in bld._partials]
    cons = bld.constraint_evals(bld.fields, {})
    A = np.zeros((len(coefs) * n + sum(len(c.offset) for c in cons), width))
    blocks = [A[i * n:(i + 1) * n] for i in range(len(coefs))]
    xi0 = np.zeros(width)
    for tag in bld._tags:
        (ev,) = bld.partial_evals(pts, {}, (tag,)).values()
        bindings[tag] = ev.rows @ xi0 + ev.offset
        uses = [i for i, coef in enumerate(coefs) if tag in coef]
        for i in uses:
            c = coefs[i][tag][:, None]
            # the rows are this evaluation's own: the last use scales them
            blocks[i] += np.multiply(c, ev.rows, out=ev.rows) \
                if i == uses[-1] else c * ev.rows
        del ev  # before the next tag's rows are made
    start = len(coefs) * n
    for c in cons:
        A[start:start + len(c.offset)] = c.rows
        start += len(c.offset)
    b = np.concatenate([_on_grid(r, bindings, n) for r in bld._residuals]
                       + [c.rows @ xi0 + c.offset for c in cons])
    return A, -b


def assemble_nonlinear(bld: ProblemBuild, pts=None):
    """Residual and exact-Jacobian closures over the stacked unknown vector
    [xi..., extras...]; extras enter through kappas and residual symbols with
    symbolic partials, clamped extras through the Heaviside-zero gate.  The
    rows are the residuals on the grid, then spectral mode's constraint rows
    C[u] - kappa.  Extras enter the constrained expressions only through
    kappa offsets, so rows are evaluated once and offsets per iterate."""
    problem = bld.problem
    pts = bld.grid() if pts is None else pts
    width = bld.layout.width
    extra_names = [e.name for e in problem.extras]
    bindings0 = bld.ctx.bindings(pts)
    n = pts.shape[0]
    # rows are the same for any extras; the initial ones bind the kappas
    init, _ = bld.clamp_extras([e.init for e in problem.extras])
    evals = bld.partial_evals(pts, init)
    rows = {tag: ev.rows for tag, ev in evals.items()}
    cons0 = bld.constraint_evals(bld.fields, init)
    con_rows = [c.rows for c in cons0]
    # raw extras -> offsets; residual and jacobian at one q share it.  The
    # rows' evaluation gave the offsets at the initial extras already
    key0 = np.array([e.init for e in problem.extras], dtype=float).tobytes()
    last = {key0: (evals, cons0)}

    def state(q):
        xi = q[:width]
        extras, gates = bld.clamp_extras(q[width:])
        key = q[width:].tobytes()
        if key not in last:
            last.clear()
            last[key] = (bld._tag_evals(bld.offsets, pts, extras),
                         bld.constraint_evals(bld.offsets, extras))
        offs, cons = last[key]
        bindings = dict(bindings0)
        bindings.update(extras)
        for tag, ev in offs.items():
            bindings[tag] = rows[tag] @ xi + ev.offset
        return xi, gates, offs, cons, bindings

    def residual(q):
        xi, _, _, cons, bindings = state(q)
        out = [_on_grid(r, bindings, n) for r in bld._residuals]
        out += [cr @ xi + c.offset for cr, c in zip(con_rows, cons)]
        return np.concatenate(out)

    def jacobian(q):
        _, gates, offs, cons, bindings = state(q)
        blocks = []
        for partials in bld._partials:
            J = np.zeros((n, width + len(extra_names)))
            coef = {nm: _on_grid(d, bindings, n) for nm, d in partials.items()}
            dfdt = {tag: c for tag, c in coef.items() if tag in bld._tags}
            for tag, c in dfdt.items():
                J[:, :width] += c[:, None] * rows[tag]
            for i, nm in enumerate(extra_names):
                col = np.zeros(n)
                if nm in coef:
                    col += coef[nm]
                for tag, c in dfdt.items():
                    g = offs[tag].grads.get(nm)
                    if g is not None:
                        col += c * g
                J[:, width + i] = col * gates[nm]
            blocks.append(J)
        for cr, c in zip(con_rows, cons):
            J = np.zeros((cr.shape[0], width + len(extra_names)))
            J[:, :width] = cr
            for i, nm in enumerate(extra_names):
                if nm in c.grads:
                    J[:, width + i] = c.grads[nm] * gates[nm]
            blocks.append(J)
        return np.vstack(blocks)

    return residual, jacobian


# ---------------------------------------------------------------------------
# inequality clamping

def clamp_scalar(value, lower=None, upper=None):
    """Clamp with the zero-derivative convention at the active bound.
    Returns (clamped value, gate) with gate 1 when the raw value is inside."""
    if lower is not None and upper is not None and lower > upper:
        raise ValueError("inconsistent clamp bounds")
    if lower is not None and value < lower:
        return lower, 0.0
    if upper is not None and value > upper:
        return upper, 0.0
    return value, 1.0


class InequalityClamp:
    """Bound an evaluable between f_lo(x) and f_hi(x) pointwise.

    The output never leaves the band; the derivative follows the active
    bound when clamped and the inner evaluable otherwise (Heaviside pieces
    differentiate to zero).
    """

    def __init__(self, inner, f_lo, f_hi, var_names=("x",)):
        self.inner = inner
        self.var_names = tuple(var_names)
        self.f_lo, self.f_hi = (
            CallableField(f, var_names) if callable(f)
            else ExprField(_as_expr(f), var_names) for f in (f_lo, f_hi))

    def eval(self, pts, orders=None):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        orders = tuple(orders or (0,) * len(self.var_names))
        zero = (0,) * len(self.var_names)
        lo = self.f_lo.eval(pts, zero).offset
        hi = self.f_hi.eval(pts, zero).offset
        if np.any(lo > hi):
            raise ValueError("inconsistent clamp bounds: f_lo > f_hi")
        inner0 = np.asarray(self.inner.eval(pts, zero), dtype=float)
        below = inner0 < lo
        above = inner0 > hi
        if any(orders):
            out = np.asarray(self.inner.eval(pts, orders), dtype=float).copy()
            if below.any():
                out[below] = self.f_lo.eval(pts, orders).offset[below]
            if above.any():
                out[above] = self.f_hi.eval(pts, orders).offset[above]
            return out
        return np.where(below, lo, np.where(above, hi, inner0))


# ---------------------------------------------------------------------------
# solving and reporting

@dataclass
class SolveReport:
    problem: str
    xi: dict
    extras: dict
    max_residual: float
    mean_residual: float
    max_error: float = None
    mean_error: float = None
    iterations: int = 0
    # linear or one of ``CONVERGED_REASONS`` (converged);
    # max-iterations | stalled | non-finite (not converged)
    reason: str = "linear"
    wall_seconds: float = 0.0
    seed: int = None
    columns: int = 0
    training_points: int = 0
    # Gauss-Newton residual inf-norm per iterate; empty on the linear path
    residual_history: list = dc_field(default_factory=list)
    # least-squares route per Gauss-Newton step (``NllsResult.step_routes``)
    step_routes: list = dc_field(default_factory=list)

    @property
    def converged(self):
        return self.reason in ("linear", *CONVERGED_REASONS)


def _test_errors(bld, xi, extras):
    pts = bld.test_grid()
    if pts is None or not bld.problem.analytic:
        return None, None
    errs = []
    for dep in bld.problem.analytic:
        pred, truth = bld.solution_and_truth(dep, pts, xi, extras)
        errs.append(np.abs(pred - truth))
    err = np.concatenate(errs)
    return float(err.max()), float(err.mean())


def solve(problem: DeProblem, seed=None, x0=None) -> SolveReport:
    """Dispatch linear vs nonlinear assembly, solve, and report metrics.

    ``x0`` is the Gauss-Newton start [coefficients..., extras...]; it
    defaults to zero coefficients and each extra's ``init``.  The one-shot
    linear path needs no start and ignores it.  A non-finite solution or
    residual is reported with reason "non-finite", never as converged.
    """
    t0 = time.perf_counter()
    return _solve(ProblemBuild(problem), seed, x0, t0)


def _solve(bld, seed, x0, t0, closures=None):
    """``solve`` on a built problem; wall time counts from ``t0``.
    ``closures`` is ``assemble_nonlinear(bld)``'s pair when the caller has
    it already: the same grid and rows, so it is not assembled again."""
    problem = bld.problem
    pts = bld.grid()
    width = bld.layout.width
    size = width + len(problem.extras)
    if x0 is None:
        x0 = np.concatenate([np.zeros(width), [e.init for e in problem.extras]])
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (size,):
        raise ValueError(
            f"x0 has shape {x0.shape}; expected {size} entries: {width} "
            f"coefficients then {len(problem.extras)} extras")
    if bld.is_affine() and not problem.extras:
        A, b = assemble_linear(bld, pts)
        q = lstsq(A, b, method=problem.method)
        resid = A @ q - b
        iterations, reason, history, routes = 0, "linear", [], []
    else:
        residual, jacobian = closures or assemble_nonlinear(bld, pts)
        cfg = NllsConfig(tol=problem.nlls_tol, max_iter=problem.nlls_max_iter,
                         method=problem.method)
        result = nlls(residual, jacobian, x0, cfg)
        q = result.xi
        resid = residual(q)
        iterations, reason = result.iterations, result.reason
        history, routes = result.residual_history, result.step_routes
    if not (np.isfinite(q).all() and np.isfinite(resid).all()):
        reason = "non-finite"
    xi = q[:width]
    extras_used, _ = bld.clamp_extras(q[width:])
    max_err, mean_err = _test_errors(bld, xi, extras_used)
    return SolveReport(
        problem=problem.name,
        xi={d.name: xi[bld.layout.slice_of(d.name)] for d in problem.dependent},
        extras=extras_used,
        max_residual=float(np.abs(resid).max()),
        mean_residual=float(np.abs(resid).mean()),
        max_error=max_err,
        mean_error=mean_err,
        iterations=iterations,
        reason=reason,
        wall_seconds=time.perf_counter() - t0,
        seed=seed,
        columns=width,
        training_points=pts.shape[0],
        residual_history=history,
        step_routes=routes,
    )


# ---------------------------------------------------------------------------
# domain splitting (1-D, C^1 continuity at a solved-for split point)

@dataclass(frozen=True)
class SplitSpec:
    xp_init: float
    xp_lower: float
    xp_upper: float
    yp_init: float = 0.0
    dyp_init: float = 0.0


def solve_split(problem: DeProblem, split: SplitSpec, seed=None) -> SolveReport:
    """Solve a 1-D problem on two subdomains joined at an unknown split point.

    The original problem must have a single independent variable, one
    dependent variable with exactly the two endpoint value constraints, and
    residuals over that variable.  Both sub-expressions are written on the
    basis domain z in [-1, 1]; the split point enters as a clamped extra and
    the C^1 continuity unknowns (value and slope at the split) are solved
    jointly by Gauss-Newton.  Errors are measured in x on each subdomain.
    """
    t0 = time.perf_counter()
    bld = ProblemBuild(_split_problem(problem, split))
    report = _solve(bld, seed, None, t0)

    if problem.analytic and problem.test_points:
        (iv,) = problem.independent
        (dep,) = problem.dependent
        x0, xf = iv.interval
        xp = report.extras["xp"]
        xi_full = np.concatenate(list(report.xi.values()))
        (count,) = problem.test_points
        errs = []
        truth = ExprField(_as_expr(problem.analytic[dep.name]), (iv.name,),
                          problem.params)
        for nm, lo, hi in ((dep.name + "1", x0, xp), (dep.name + "2", xp, xf)):
            xs = np.linspace(lo, hi, count)
            z = -1.0 + 2.0 * (xs - lo) / (hi - lo)
            pred = bld.evaluate_solution(nm, z[:, None], xi_full, report.extras)
            errs.append(np.abs(pred - truth.eval(xs[:, None], (0,)).offset))
        err = np.concatenate(errs)
        report.max_error = float(err.max())
        report.mean_error = float(err.mean())
    report.problem = problem.name
    report.wall_seconds = time.perf_counter() - t0
    return report


def _split_problem(problem: DeProblem, split: SplitSpec) -> DeProblem:
    """The two-subdomain problem that ``solve_split`` solves: dependent
    variables <name>1 and <name>2 over z, extras xp, yp and dyp."""
    (iv,) = problem.independent
    (dep,) = problem.dependent
    x0, xf = iv.interval
    ends = {}
    for c in dep.constraints:
        (term,) = c.terms
        ends[float(term["at"])] = float(c.value)
    if set(ends) != {x0, xf}:
        raise ValueError("split solve expects endpoint value constraints only")

    # map x in [x0, xp] -> z in [-1, 1] (sub 1) and [xp, xf] -> z (sub 2);
    # slopes: c1 = 2/(xp - x0), c2 = 2/(xf - xp)
    c1 = f"(2/(xp - {x0!r}))"
    c2 = f"(2/({xf!r} - xp))"

    def transform(r_expr, dep_name, c_expr):
        e = _as_expr(r_expr)
        for tag in sorted(exprfn.free_variables(e)):
            base, orders = exprfn.split_partial_tag(tag)
            if base != dep.name:
                continue
            d = orders.get(iv.name, 0)
            new_tag = dep_name if d == 0 else dep_name + "_" + "z" * d
            repl = exprfn.parse(f"{c_expr}^{d}*{new_tag}") if d else \
                exprfn.parse(new_tag)
            e = exprfn.substitute(e, tag, repl)
        # explicit x dependence: x = midpoint formula of the subdomain
        if iv.name in exprfn.free_variables(e):
            if dep_name.endswith("1"):
                xmap = exprfn.parse(f"{x0!r} + (xp - {x0!r})*(z + 1)/2")
            else:
                xmap = exprfn.parse(f"xp + ({xf!r} - xp)*(z + 1)/2")
            e = exprfn.substitute(e, iv.name, xmap)
        return e

    name1, name2 = dep.name + "1", dep.name + "2"
    residuals = []
    for r in problem.residuals:
        residuals.append(transform(r, name1, c1))
        residuals.append(transform(r, name2, c2))

    return DeProblem(
        name=problem.name + "-split",
        independent=(IndependentVar("z", (-1.0, 1.0), iv.points, iv.spacing),),
        dependent=(
            DependentVar(name1, (
                ConstraintSpec("z", ({"order": 0, "at": -1.0},), ends[x0]),
                ConstraintSpec("z", ({"order": 0, "at": 1.0},), "yp"),
                ConstraintSpec("z", ({"order": 1, "at": 1.0},),
                               f"dyp*(xp - {x0!r})/2"),
            ), dep.basis),
            DependentVar(name2, (
                ConstraintSpec("z", ({"order": 0, "at": -1.0},), "yp"),
                ConstraintSpec("z", ({"order": 1, "at": -1.0},),
                               f"dyp*({xf!r} - xp)/2"),
                ConstraintSpec("z", ({"order": 0, "at": 1.0},), ends[xf]),
            ), dep.basis),
        ),
        residuals=tuple(residuals),
        params=problem.params,
        extras=(
            ExtraUnknown("xp", split.xp_init, split.xp_lower, split.xp_upper),
            ExtraUnknown("yp", split.yp_init),
            ExtraUnknown("dyp", split.dyp_init),
        ),
        nlls_tol=problem.nlls_tol,
        nlls_max_iter=problem.nlls_max_iter,
    )
