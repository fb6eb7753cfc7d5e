"""Span tracing around funcon's public functions, installed from outside.

``install`` replaces every binding of each function in ``LAYERS`` (the
defining module's attribute, every by-name import in other funcon modules,
or the class attribute for methods) with a wrapper that records one span per
call: name, start, end, parent span and case id, plus per-call attributes
such as the matrix cells a call returned.  The returned callable restores
the originals.  ``layer_metrics`` turns the spans of one pass into the
per-layer metrics.

Nothing in the program changes: with the wrappers removed, the code runs
exactly as shipped.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, field

CASE = "case"  # name of the root span around each case


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = None   # index of the parent span in Tracer.spans
    case: str = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span store; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.case = None
        self._seen = set()  # (feature id, orders, points digest) per case

    def begin_case(self, case_id):
        self.case = case_id
        self._seen = set()

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               case=self.case))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, post=None):
        """Callable that runs ``fn`` inside a span; ``post(tracer, span,
        args, result)`` may record attributes and returns the result."""
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            return post(self, span, args, result) if post else result
        traced.__wrapped__ = fn
        return traced

    def repeats(self, owner, orders, pts):
        """Whether this case already called ``owner`` on these points and
        orders: the calls a table cache would serve."""
        key = (id(owner), tuple(orders), pts.shape,
               hashlib.blake2b(pts.tobytes(), digest_size=16).digest())
        seen = key in self._seen
        self._seen.add(key)
        return seen


# ---------------------------------------------------------------------------
# per-call attributes

def _cells(tracer, span, args, result):
    span.attrs["cells"] = int(result.size)
    return result


def _tensor_eval(tracer, span, args, result):
    feature, pts, orders = args[0], args[1], args[2]
    span.attrs["cells"] = int(result.size)
    span.attrs["repeat_calls"] = int(tracer.repeats(feature, orders, pts))
    return result


def _lstsq(tracer, span, args, result):
    A = args[0]
    span.attrs["cells"] = int(A.shape[0] * A.shape[1])
    return result


def _nlls(tracer, span, args, result):
    hist = result.residual_history
    span.attrs["iterations"] = int(result.iterations)
    span.attrs["useful"] = sum(1 for a, b in zip(hist, hist[1:]) if b < a)
    span.attrs["max_iter_stops"] = int(result.reason == "max-iterations")
    return result


def _points(tracer, span, args, result):
    span.attrs["points"] = int(len(args[2]))
    return result


def _closures(tracer, span, args, result):
    residual, jacobian = result
    return (tracer.wrap("desolve.residual", residual),
            tracer.wrap("desolve.jacobian", jacobian))


# (span name, module, attribute path, attribute hook)
LAYERS = (
    ("exprfn.parse", "exprfn", "parse", None),
    ("exprfn.evaluate", "exprfn", "evaluate", None),
    ("exprfn.differentiate", "exprfn", "differentiate", None),
    ("basis.TensorFeature.eval", "basis", "TensorFeature.eval", _tensor_eval),
    ("basis.ElmFeature.eval", "basis", "ElmFeature.eval", _cells),
    ("constraint_core.build_univariate_ce", "constraint_core",
     "build_univariate_ce", None),
    ("constraint_core.CEField.eval", "constraint_core", "CEField.eval", None),
    ("multivar.build_dimension_ces", "multivar", "build_dimension_ces", None),
    ("solvers.lstsq", "solvers", "lstsq", _lstsq),
    ("solvers.nlls", "solvers", "nlls", _nlls),
    ("desolve.ProblemBuild", "desolve", "ProblemBuild.__init__", None),
    ("desolve.partial_evals", "desolve", "ProblemBuild.partial_evals", None),
    ("desolve.evaluate_solution", "desolve", "ProblemBuild.evaluate_solution",
     _points),
    ("desolve.assemble_linear", "desolve", "assemble_linear", None),
    ("desolve.assemble_nonlinear", "desolve", "assemble_nonlinear", _closures),
)


def install(tracer):
    """Patch every binding of every layer; returns a function that undoes it."""
    mods = {name: m for name, m in sys.modules.items()
            if name == "funcon" or name.startswith("funcon.")}
    undo = []
    for span_name, modname, path, post in LAYERS:
        owner = mods["funcon." + modname]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapped = tracer.wrap(span_name, original, post)
        targets = [owner] if cls_path else [
            m for m in mods.values() if vars(m).get(attr) is original]
        for target in targets:
            setattr(target, attr, wrapped)
            undo.append((target, attr, original))
        if not cls_path:
            # bindings under another name would escape the trace
            for m in mods.values():
                for k, v in vars(m).items():
                    if v is original:
                        raise RuntimeError(f"unpatched binding {m.__name__}.{k}")

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
    return uninstall


# ---------------------------------------------------------------------------
# metrics from spans

# metric name -> unit; every one is emitted on every workload (0 if unused)
LAYER_METRICS = {}
for _name, _kinds in (
        ("desolve.evaluate_solution", ("calls", "total_s", "points")),
        ("constraint_core.CEField.eval", ("calls", "self_s")),
        ("basis.TensorFeature.eval",
         ("calls", "self_s", "cells", "repeat_calls")),
        ("basis.ElmFeature.eval", ("calls", "self_s", "cells")),
        ("desolve.partial_evals", ("calls", "total_s")),
        ("desolve.residual", ("calls", "total_s")),
        ("desolve.jacobian", ("calls", "total_s")),
        ("solvers.lstsq", ("calls", "self_s", "cells")),
        ("solvers.nlls", ("calls", "iterations", "s_per_iter",
                          "max_iter_stops", "useful_iter_ratio")),
        ("desolve.ProblemBuild", ("calls", "total_s")),
        ("multivar.build_dimension_ces", ("calls", "total_s")),
        ("constraint_core.build_univariate_ce", ("calls", "self_s")),
        ("desolve.assemble_linear", ("calls", "total_s")),
        ("desolve.assemble_nonlinear", ("calls",)),
        ("exprfn.evaluate", ("calls", "self_s")),
        ("exprfn.differentiate", ("calls", "self_s")),
        ("exprfn.parse", ("calls",)),
        ("trace", ("unattributed_s", "overhead_s"))):
    for _kind in _kinds:
        LAYER_METRICS[f"{_name}.{_kind}"] = (
            "s" if _kind.endswith("_s") or _kind == "s_per_iter"
            else "ratio" if _kind.endswith("_ratio") else "count")

# metrics that are exact counts, so they must repeat between traced passes
COUNT_METRICS = tuple(k for k, u in LAYER_METRICS.items() if u == "count")


def layer_metrics(spans):
    """Per-layer metrics of one traced pass.  The self time of the ``CASE``
    root spans is the time no layer span accounts for.
    ``trace.overhead_s`` is left for the caller, who has the untraced run."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start

    def outermost(i):
        name = spans[i].name
        p = spans[i].parent
        while p is not None:
            if spans[p].name == name:
                return False
            p = spans[p].parent
        return True

    acc = {}
    for i, s in enumerate(spans):
        a = acc.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = s.end - s.start
        a["calls"] += 1
        a["self_s"] += dur - child_s[i]
        if outermost(i):
            a["total_s"] += dur
        for k, v in s.attrs.items():
            a[k] = a.get(k, 0) + v

    out = {}
    for metric in LAYER_METRICS:
        layer, kind = metric.rsplit(".", 1)
        a = acc.get(layer, {})
        if kind == "s_per_iter":
            value = a["total_s"] / a["iterations"] if a.get("iterations") else 0.0
        elif kind == "useful_iter_ratio":
            value = a["useful"] / a["iterations"] if a.get("iterations") else 0.0
        else:
            value = a.get(kind, 0)
        out[metric] = value
    out["trace.unattributed_s"] = acc.get(CASE, {}).get("self_s", 0.0)
    out["trace.overhead_s"] = 0.0
    return out
