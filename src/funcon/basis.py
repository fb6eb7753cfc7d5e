"""Free-function building blocks: orthogonal polynomial / Fourier families with
exact derivative recursions, ELM random-feature layers, CGL nodes, and linear
domain maps.

Families are immutable after construction and all evaluation is pure.  The
only RNG consumer is ELM hidden-layer initialization, confined to
construction time.  Collocation for every family defaults to CGL nodes
mapped linearly onto the problem interval (families with infinite native
domains require an explicit finite window from the caller).

A ``TensorFeature`` builds each 1-D table only at the unique coordinates of
its points.  ``eval`` multiplies the tables into coefficient rows;
``values`` gives h(x)^T coef without rows, by contracting the dense
coefficient tensor with the tables one dimension at a time.  A constrained
expression whose every dimension acts on functions of that dimension alone
projects each 1-D table, T - phi (C T): ``eval(pts, orders, projection)``
multiplies the projected tables into the expression's coefficient rows, and
``values(pts, orders, coef, projection)`` contracts them with coef into the
expression's coefficient part, without rows either way.  An ``ElmFeature``
evaluates its matrix, and ``values`` its products with coef, ``ROW_BLOCK``
rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

__all__ = [
    "cgl_nodes",
    "uniform_nodes",
    "DomainMap",
    "BasisFamily",
    "ElmFamily",
    "elm_init",
    "eval_basis",
    "TensorFeature",
    "ElmFeature",
    "NATIVE_DOMAINS",
    "ROW_BLOCK",
]

NATIVE_DOMAINS = {
    "chebyshev": (-1.0, 1.0),
    "legendre": (-1.0, 1.0),
    "fourier": (-math.pi, math.pi),
    "laguerre": (0.0, math.inf),
    "hermite-prob": (-math.inf, math.inf),
    "hermite-phys": (-math.inf, math.inf),
}


def cgl_nodes(n: int) -> np.ndarray:
    """Chebyshev-Gauss-Lobatto nodes z_j = -cos(j*pi/(n-1)) on [-1, 1]."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    j = np.arange(n)
    return -np.cos(j * np.pi / (n - 1))


def uniform_nodes(n: int) -> np.ndarray:
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    return np.linspace(-1.0, 1.0, n)


@dataclass(frozen=True)
class DomainMap:
    """Linear map between a problem interval [x0, xf] and a basis interval
    [z0, zf]; ``slope`` is dz/dx, the chain-rule constant for derivatives."""

    x0: float
    xf: float
    z0: float
    zf: float

    def __post_init__(self):
        if not self.xf > self.x0:
            raise ValueError("problem interval must have x0 < xf")
        if not self.zf > self.z0:
            raise ValueError("basis interval must have z0 < zf")

    @property
    def slope(self) -> float:
        return (self.zf - self.z0) / (self.xf - self.x0)

    def to_basis(self, x):
        return self.z0 + self.slope * (np.asarray(x, dtype=float) - self.x0)

    def to_problem(self, z):
        return self.x0 + (np.asarray(z, dtype=float) - self.z0) / self.slope

    @staticmethod
    def identity(z0=-1.0, zf=1.0):
        return DomainMap(z0, zf, z0, zf)


def _normalize_removal(nC, count):
    """Removal spec: -1 none, int k the first k, or an explicit index set."""
    if nC is None or (isinstance(nC, int) and nC == -1):
        return ()
    if isinstance(nC, int):
        if nC > count:
            raise ValueError(f"removal of {nC} exceeds {count} basis functions")
        return tuple(range(nC))
    idx = tuple(sorted(set(int(i) for i in nC)))
    if idx and (idx[0] < 0 or idx[-1] >= count):
        raise ValueError(f"removal indices {idx} out of range for {count} functions")
    return idx


# ---------------------------------------------------------------------------
# univariate recursions (native variable z); rows = points, cols = 0..m

# (alpha, beta, s, c) at step k of the three-term recursion
# P_{k+1} = s*(beta + alpha*z)*P_k - c*P_{k-1}, with P_0 = 1 and P_{-1} = 0
_THREE_TERM = {
    "chebyshev": lambda k: (1.0, 0.0, 1.0 if k == 0 else 2.0, 1.0),
    "legendre": lambda k: (1.0, 0.0, (2.0 * k + 1.0) / (k + 1.0),
                           k / (k + 1.0)),
    "laguerre": lambda k: (-1.0, 2.0 * k + 1.0, 1.0 / (k + 1.0),
                           k * (1.0 / (k + 1.0))),
    "hermite-prob": lambda k: (1.0, 0.0, 1.0, float(k)),
    "hermite-phys": lambda k: (1.0, 0.0, 2.0, 2.0 * k),
}


def _recurrence_table(kind, z, m, d):
    """d-th z-derivative of basis functions 0..m at points z, shape (len(z), m+1).

    Polynomial families carry their three-term recursion along for every
    derivative order q up to d simultaneously, one (d+1, len(z)) slab per
    degree step; differentiating the recursion q times gives
    P^(q)_{k+1} = s*((beta + alpha*z)*P^(q)_k + q*alpha*P^(q-1)_k)
    - c*P^(q)_{k-1}.
    """
    z = np.asarray(z, dtype=float)
    if kind == "fourier":
        return _fourier_table(z, m, d)
    coefficients = _THREE_TERM[kind]
    # tab[k, q] holds the q-th derivative of P_k while recursing
    tab = np.zeros((m + 1, d + 1, z.shape[0]))
    tab[0, 0] = 1.0
    q = np.arange(1, d + 1, dtype=float)[:, None]
    for k in range(m):
        alpha, beta, s, c = coefficients(k)
        nxt = (beta + alpha * z) * tab[k]
        nxt[1:] += (q * alpha) * tab[k, :-1]
        nxt *= s
        if k >= 1:
            nxt -= c * tab[k - 1]
        tab[k + 1] = nxt
    return np.ascontiguousarray(tab[:, d].T)


def _fourier_table(z, m, d):
    # basis: 1, sin(z), cos(z), sin(2z), cos(2z), ...; d-th derivative by the
    # mod-4 phase shift of sin/cos
    npts = z.shape[0]
    out = np.zeros((npts, m + 1))
    if d == 0:
        out[:, 0] = 1.0
    for k in range(1, m + 1):
        f = math.ceil(k / 2)
        arg = f * z
        scale = float(f) ** d
        if k % 2 == 1:  # sin branch
            phase = [np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)][d % 4]
        else:  # cos branch
            phase = [np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t), np.sin][d % 4]
        out[:, k] = scale * phase(arg)
    return out


@dataclass(frozen=True)
class BasisFamily:
    """Univariate basis family with degree m (m+1 functions before removal)."""

    kind: str
    degree: int
    removal: tuple = ()

    def __post_init__(self):
        if self.kind not in NATIVE_DOMAINS:
            raise ValueError(f"unknown basis family {self.kind!r}")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        object.__setattr__(
            self, "removal", _normalize_removal(self.removal, self.degree + 1))

    @property
    def native_domain(self):
        return NATIVE_DOMAINS[self.kind]

    def table(self, z, d):
        """Native-variable derivative table, all columns (no removal)."""
        if d < 0:
            raise ValueError("derivative order must be >= 0")
        return _recurrence_table(self.kind, np.atleast_1d(z), self.degree, d)


def eval_basis(family: BasisFamily, domain_map: DomainMap, x,
               d: int) -> np.ndarray:
    """Problem-variable derivative matrix H^(d), shape (npoints, degree + 1).

    Columns follow basis index order, every index included: the removal
    spec acts on tensor multi-indices (``TensorFeature``), not here.  The
    chain-rule factor slope^d is included, so the entries are derivatives
    with respect to the problem variable.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = family.native_domain
    z = domain_map.to_basis(x)
    if math.isfinite(lo) and math.isfinite(hi):
        eps = 1e-12 * max(1.0, abs(hi - lo))
        if np.any(z < lo - eps) or np.any(z > hi + eps):
            raise ValueError("points map outside the basis native domain")
    return family.table(z, d) * domain_map.slope ** d


# ---------------------------------------------------------------------------
# ELM random features

# Rows per block wherever a full (npoints, width) temporary is avoided: the
# ELM feature matrix and its products, and the recursive constrained
# expression's gathered terms.  Every entry takes the same operations in
# any block, so the block size moves no bit.
ROW_BLOCK = 256

_ELM_ACTIVATIONS = ("sin", "tanh", "sigmoid", "swish", "relu")


def elm_init(seed: int, neurons: int, in_dim: int, lo: float, hi: float):
    """Draw hidden weights (neurons, in_dim) and biases (neurons,) i.i.d.
    uniform on [lo, hi); deterministic for a given seed."""
    if not lo < hi:
        raise ValueError(f"invalid range ({lo}, {hi})")
    rng = np.random.default_rng(seed)
    w = rng.uniform(lo, hi, size=(neurons, in_dim))
    b = rng.uniform(lo, hi, size=neurons)
    return w, b


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _activation_deriv(name, x, d):
    """d-th derivative of the activation, d <= 4 (relu uses the all-zero
    convention beyond first order)."""
    if name == "sin":
        return [np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)][d % 4](x)
    if name == "tanh":
        t = np.tanh(x)
        if d == 0:
            return t
        s = 1.0 - t * t  # sech^2
        if d == 1:
            return s
        if d == 2:
            return -2.0 * t * s
        if d == 3:
            return s * (4.0 * t * t - 2.0 * s)
        if d == 4:
            return t * s * (16.0 * s - 8.0 * t * t)
        raise ValueError("tanh derivatives implemented up to order 4")
    if name == "sigmoid":
        s = _sigmoid(x)
        if d == 0:
            return s
        if d == 1:
            return s * (1 - s)
        if d == 2:
            return s * (1 - s) * (1 - 2 * s)
        if d == 3:
            return s * (1 - s) * (1 - 6 * s + 6 * s * s)
        if d == 4:
            return s * (1 - s) * (1 - 2 * s) * (1 - 12 * s + 12 * s * s)
        raise ValueError("sigmoid derivatives implemented up to order 4")
    if name == "swish":
        s = _sigmoid(x)
        if d == 0:
            return x * s
        # d^n(x*s) = x*s^(n) + n*s^(n-1)
        return x * _activation_deriv("sigmoid", x, d) \
            + d * _activation_deriv("sigmoid", x, d - 1)
    if name == "relu":
        if d == 0:
            return np.maximum(x, 0.0)
        if d == 1:
            return (x > 0).astype(float)
        return np.zeros_like(x)
    raise ValueError(f"unknown ELM activation {name!r}")


@dataclass(frozen=True)
class ElmFamily:
    """Single hidden layer with fixed random weights; linear in the output
    coefficients.  Hidden parameters are frozen after construction."""

    activation: str
    neurons: int
    in_dim: int
    seed: int
    lo: float = -1.0
    hi: float = 1.0
    weights: np.ndarray = field(default=None, compare=False, repr=False)
    biases: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.activation not in _ELM_ACTIVATIONS:
            raise ValueError(f"unknown ELM activation {self.activation!r}")
        w, b = elm_init(self.seed, self.neurons, self.in_dim, self.lo, self.hi)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)


# ---------------------------------------------------------------------------
# multivariate feature maps: rows of the free function g = h(x)^T xi

class TensorFeature:
    """Tensor product of univariate families with per-dimension maps.

    Retained multi-indices obey per-dimension caps, an optional total-degree
    cap, and the removal rule: an index tuple is dropped only when every
    coordinate lies in that dimension's removal set (one support function
    per dimension, the multivariate null-space rule).
    """

    def __init__(self, families, maps, total_degree=None):
        if len(families) != len(maps):
            raise ValueError("one DomainMap per family required")
        self.families = tuple(families)
        self.maps = tuple(maps)
        self.total_degree = total_degree
        removed = [set(f.removal) for f in self.families]
        # product order is lexicographic, so the indices come out sorted
        self.indices = tuple(
            idx for idx in product(*(range(f.degree + 1)
                                     for f in self.families))
            if (total_degree is None or sum(idx) <= total_degree)
            and not all(i in r for i, r in zip(idx, removed)))
        # column j's basis index in dimension k is _idx[j, k]
        self._idx = np.asarray(self.indices, dtype=int).reshape(
            len(self.indices), len(self.families))

    @property
    def count(self):
        return len(self.indices)

    def _tables(self, pts, orders, projection=None):
        """Per dimension k, the full 1-D table of derivative orders[k] at
        every point, shape (npoints, degree_k + 1).  Each table is built at
        the unique coordinates only and gathered back by the inverse index;
        the recursions are elementwise, so the entries are exactly those of
        a table built at every point.

        ``projection`` maps a dimension k to (ce, applied): that dimension's
        univariate constrained expression and its operators applied to the
        full table, ``applied[j, i]`` = C_j[T_i].  Dimension k's table is
        then the projected T - phi (C T), phi the switching functions'
        derivatives of order orders[k]."""
        projection = projection or {}
        tables = []
        for k, (fam, dmap) in enumerate(zip(self.families, self.maps)):
            coords, inverse = np.unique(pts[:, k], return_inverse=True)
            table = eval_basis(fam, dmap, coords, orders[k])
            if k in projection:
                ce, applied = projection[k]
                table = table - ce.switching(coords, orders[k]) @ applied
            tables.append(table[inverse])
        return tables

    def eval(self, pts: np.ndarray, orders, projection=None) -> np.ndarray:
        """Mixed-partial feature matrix, shape (npoints, count); with a
        ``projection`` (see ``_tables``), the rows of the constrained
        expression that projects those dimensions.  The other dimensions'
        gathered factors are multiplied in ``ROW_BLOCK`` rows at a time."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        first, *rest = self._tables(pts, orders, projection)
        cols = first[:, self._idx[:, 0]]
        for lo in range(0, len(cols), ROW_BLOCK):
            for k, table in enumerate(rest, 1):
                cols[lo:lo + ROW_BLOCK] *= table[lo:lo + ROW_BLOCK,
                                                 self._idx[:, k]]
        return cols

    def values(self, pts: np.ndarray, orders, coef,
               projection=None) -> np.ndarray:
        """Mixed partial of h(x)^T coef, shape (npoints,), without the
        (npoints, count) matrix: coef is scattered into the dense
        (m_1+1) x ... x (m_d+1) tensor (zeros at dropped indices) and
        contracted with the 1-D tables one dimension at a time.  With a
        ``projection`` (see ``_tables``) the tables are the projected ones,
        so this is the coefficient part of the constrained expression that
        projects those dimensions, (rows of ``eval``) @ coef."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[0]
        dense = np.zeros([fam.degree + 1 for fam in self.families])
        dense[tuple(self._idx.T)] = coef
        first, *rest = self._tables(pts, orders, projection)
        acc = first @ dense.reshape(dense.shape[0], -1)
        for table in rest:
            acc = np.einsum("nj,njr->nr", table,
                            acc.reshape(n, table.shape[1], -1))
        return acc.reshape(n)


class ElmFeature:
    """Joint random-feature map h_j(x) = act(w_j . z(x) + b_j)."""

    def __init__(self, family: ElmFamily, maps):
        if len(maps) != family.in_dim:
            raise ValueError("one DomainMap per input dimension required")
        self.family = family
        self.maps = tuple(maps)

    @property
    def count(self):
        return self.family.neurons

    def eval(self, pts: np.ndarray, orders) -> np.ndarray:
        """Mixed-partial feature matrix, shape (npoints, neurons), written
        ``ROW_BLOCK`` rows at a time into one preallocated array, so the
        pre-activations and the activation's temporaries never exist at
        full size."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        z = np.column_stack([m.to_basis(pts[:, k]) for k, m in enumerate(self.maps)])
        total = int(sum(orders))
        scale = np.ones(self.family.neurons)
        for k, d in enumerate(orders):
            if d:
                scale = scale * (self.family.weights[:, k] * self.maps[k].slope) ** d
        out = np.empty((z.shape[0], self.count))
        for lo in range(0, z.shape[0], ROW_BLOCK):
            arg = z[lo:lo + ROW_BLOCK] @ self.family.weights.T + self.family.biases
            vals = _activation_deriv(self.family.activation, arg, total)
            if total:
                np.multiply(vals, scale, out=out[lo:lo + ROW_BLOCK])
            else:
                out[lo:lo + ROW_BLOCK] = vals
        return out

    def values(self, pts: np.ndarray, orders, coef) -> np.ndarray:
        """Mixed partial of h(x)^T coef, shape (npoints,); random features
        are not separable, so this is the feature matrix times coef, one
        block of ``ROW_BLOCK`` rows at a time."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty(pts.shape[0])
        for lo in range(0, pts.shape[0], ROW_BLOCK):
            out[lo:lo + ROW_BLOCK] = self.eval(pts[lo:lo + ROW_BLOCK],
                                               orders) @ coef
        return out
