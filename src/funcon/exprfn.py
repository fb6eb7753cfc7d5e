"""Small analytic expression language: parser, evaluator, exact symbolic derivatives.

Used for boundary functions, forcing terms, analytic solutions, and
declarative DE residuals.  The grammar covers real literals, named
variables (including dependent-variable partial tags like ``u_xxy``),
``+ - * / ^``, unary minus, the constants ``pi`` and ``e`` and the
functions of ``_FUNCTIONS``, one row each: numpy function, domain test
and message, derivative rule.  Each binary operator is one entry of
``_BINARY`` (numeric operation) and of ``_BUILD`` (simplifying constructor).

Expressions are immutable; evaluation is reentrant and accepts scalars
or numpy arrays as bindings.  Simplification is deliberately limited to
constant folding and 0/1 identities.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Const",
    "Bin",
    "Neg",
    "Call",
    "ExprSyntaxError",
    "ExprEvalError",
    "parse",
    "evaluate",
    "differentiate",
    "to_source",
    "free_variables",
    "substitute",
    "canonical_partial_name",
    "split_partial_tag",
]

CONSTANTS = {"pi": math.pi, "e": math.e}


class ExprSyntaxError(ValueError):
    """Parse failure; carries the byte offset and the expected-token set."""

    def __init__(self, message, offset, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected: " + ", ".join(expected) + ")"
        super().__init__(detail)


class ExprEvalError(ValueError):
    """Domain error or unbound variable during evaluation."""


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Const(Expr):
    name: str


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


# ---------------------------------------------------------------------------
# the functions: name -> (numpy function, domain (test for bad arguments,
# message) or None, derivative rule f'(u) as an Expr)

_FUNCTIONS = {
    "sin": (np.sin, None, lambda u: Call("cos", u)),
    "cos": (np.cos, None, lambda u: _neg(Call("sin", u))),
    "tan": (np.tan, None,
            lambda u: _div(Num(1.0), _pow(Call("cos", u), Num(2.0)))),
    "sinh": (np.sinh, None, lambda u: Call("cosh", u)),
    "cosh": (np.cosh, None, lambda u: Call("sinh", u)),
    "tanh": (np.tanh, None,
             lambda u: _sub(Num(1.0), _pow(Call("tanh", u), Num(2.0)))),
    "exp": (np.exp, None, lambda u: Call("exp", u)),
    "ln": (np.log, (lambda x: np.asarray(x) <= 0, "ln of non-positive value"),
           lambda u: _div(Num(1.0), u)),
    "sqrt": (np.sqrt, (lambda x: np.asarray(x) < 0, "sqrt of negative value"),
             lambda u: _div(Num(0.5), Call("sqrt", u))),
    "abs": (np.abs, None, lambda u: Call("sign", u)),
    "sign": (np.sign, (lambda x: np.asarray(x) == 0,
                       "sign undefined at 0 (abs is not differentiable there)"),
             lambda u: Num(0.0)),
}
FUNCTIONS = tuple(_FUNCTIONS)


# ---------------------------------------------------------------------------
# partial-derivative identifier convention: u_xxy means d^3 u / dx^2 dy, with
# suffix letters kept alphabetically sorted (mixed-partial symmetry).

_PARTIAL_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)_([A-Za-z]+)$")


def canonical_partial_name(name: str) -> str:
    """Sort the suffix letters of a partial tag; other names pass through."""
    if "_" not in name:
        # no partial tag, and no regex match to try (the common case)
        return name
    m = _PARTIAL_RE.match(name)
    if m is None:
        return name
    base, suffix = m.groups()
    return base + "_" + "".join(sorted(suffix))


def split_partial_tag(name):
    """Split ``u_xxy`` into ``("u", {"x": 2, "y": 1})``; plain names give {}."""
    m = _PARTIAL_RE.match(name)
    if m is None:
        return name, {}
    base, suffix = m.groups()
    orders: dict[str, int] = {}
    for ch in suffix:
        orders[ch] = orders.get(ch, 0) + 1
    return base, orders


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip trailing whitespace cleanly
            if source[pos:].strip() == "":
                break
            raise ExprSyntaxError(
                f"unexpected character {source[pos]!r}", pos,
                ("number", "identifier", "operator"))
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExprSyntaxError(f"got {text or 'end of input'!r}", pos, (op,))

    def parse(self):
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(
                f"trailing input {text!r}", pos, ("+", "-", "*", "/", "^", "end"))
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                e = _BUILD[text](e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                e = _BUILD[text](e, self.factor())
            else:
                return e

    def factor(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return _neg(self.factor())
        if kind == "op" and text == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right-associative; exponent may carry a unary sign
            return _pow(base, self.factor())
        return base

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(
                    f"numeric literal {text!r} overflows to inf", pos)
            return Num(value)
        if kind == "ident":
            nkind, ntext, npos = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(
                        f"unknown function {text!r}", pos, FUNCTIONS)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in CONSTANTS:
                return Const(text)
            return Var(canonical_partial_name(text))
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(
            f"got {text or 'end of input'!r}", pos,
            ("number", "identifier", "("))


def parse(source: str) -> Expr:
    """Parse UTF-8 text into an Expr, raising ExprSyntaxError on bad input."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# smart constructors: constant folding plus 0/1 identities only

def _is_num(e, value=None):
    return isinstance(e, Num) and (value is None or e.value == value)


def _add(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Bin("+", a, b)


def _sub(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return Bin("-", a, b)


def _mul(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Bin("*", a, b)


def _div(a, b):
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return Bin("/", a, b)


def _pow(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if _is_num(a) and _is_num(b):
        base, expo = a.value, b.value
        if base > 0 or expo == int(expo):
            try:
                return Num(float(base ** expo))
            except (OverflowError, ZeroDivisionError):
                pass
    return Bin("^", a, b)


def _neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


_BUILD = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}


# ---------------------------------------------------------------------------
# evaluation

def _check(cond, message):
    if isinstance(cond, np.ndarray):
        bad = bool(np.any(cond))
    else:
        bad = bool(cond)
    if bad:
        raise ExprEvalError(message)


def evaluate(e: Expr, bindings: dict):
    """Evaluate a closed expression; raises ExprEvalError on domain errors.

    Bindings may hold floats or numpy arrays; partial tags in the bindings
    are canonicalized so u_yx and u_xy refer to the same slot.
    """
    env = {canonical_partial_name(k): v for k, v in bindings.items()}
    out = _eval(e, env)
    if np.isscalar(out) or (isinstance(out, np.ndarray) and out.ndim == 0):
        return float(out)
    return out


def _eval(e, env):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Var):
        if e.name not in env:
            raise ExprEvalError(f"unbound variable {e.name!r}")
        return env[e.name]
    if isinstance(e, Neg):
        return -_eval(e.arg, env)
    if isinstance(e, Bin):
        return _BINARY[e.op](_eval(e.left, env), _eval(e.right, env))
    if isinstance(e, Call):
        fn, domain, _ = _FUNCTIONS[e.fn]
        x = _eval(e.arg, env)
        if domain is not None:
            _check(domain[0](x), domain[1])
        return fn(x)
    raise AssertionError(type(e))


def _eval_div(a, b):
    _check(b == 0, "division by zero")
    return a / b


def _eval_pow(a, b):
    b_arr = np.asarray(b)
    integral = np.all(b_arr == np.floor(b_arr))
    if not integral:
        _check(np.asarray(a) < 0, "non-integer power of negative base")
    _check((np.asarray(a) == 0) & (b_arr < 0), "zero raised to negative power")
    try:
        return a ** b
    except OverflowError as err:
        raise ExprEvalError("power overflows the float range") from err


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": _eval_div, "^": _eval_pow}


# ---------------------------------------------------------------------------
# symbolic differentiation

def differentiate(e: Expr, var: str, order: int = 1) -> Expr:
    """Exact symbolic derivative of order ``order`` with respect to ``var``."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    var = canonical_partial_name(var)
    out = e
    for _ in range(order):
        out = _diff(out, var)
    return out


def _diff(e, var):
    if isinstance(e, (Num, Const)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.name == var else Num(0.0)
    if isinstance(e, Neg):
        return _neg(_diff(e.arg, var))
    if isinstance(e, Bin):
        a, b = e.left, e.right
        da, db = _diff(a, var), _diff(b, var)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if e.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, Num(2.0)))
        if e.op == "^":
            if _is_num(b):
                # d(u^n) = n u^(n-1) u'
                return _mul(_mul(b, _pow(a, Num(b.value - 1.0))), da)
            # general: u^v (v' ln u + v u'/u)
            term = _add(_mul(db, Call("ln", a)), _div(_mul(b, da), a))
            return _mul(_pow(a, b), term)
        raise AssertionError(e.op)
    if isinstance(e, Call):
        return _mul(_FUNCTIONS[e.fn][2](e.arg), _diff(e.arg, var))
    raise AssertionError(type(e))


# ---------------------------------------------------------------------------
# canonical printer (round-trips through parse)

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 2.5  # unary minus binds tighter than * but looser than ^
_PREC_POW = 3
_PREC_ATOM = 9


def _prec(e):
    if isinstance(e, Num):
        return _PREC_NEG if e.value < 0 else _PREC_ATOM
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Bin):
        return {"+": _PREC_ADD, "-": _PREC_ADD,
                "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}[e.op]
    return _PREC_ATOM


def _fmt_number(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(e: Expr) -> str:
    """Render an Expr as parseable text."""
    return _print(e)


def _wrap(child, parent_prec, strict=False):
    text = _print(child)
    p = _prec(child)
    if p < parent_prec or (strict and p == parent_prec):
        return "(" + text + ")"
    return text


def _print(e):
    if isinstance(e, Num):
        return _fmt_number(e.value)
    if isinstance(e, (Var, Const)):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_NEG, strict=True)
    if isinstance(e, Call):
        return f"{e.fn}({_print(e.arg)})"
    if isinstance(e, Bin):
        if e.op in "+-":
            left = _wrap(e.left, _PREC_ADD)
            right = _wrap(e.right, _PREC_ADD, strict=True)
            return f"{left} {e.op} {right}"
        if e.op in "*/":
            left = _wrap(e.left, _PREC_MUL)
            right = _wrap(e.right, _PREC_MUL, strict=True)
            return f"{left}{e.op}{right}"
        # power: right-associative, base binds strictly
        left = _wrap(e.left, _PREC_POW, strict=True)
        right = _wrap(e.right, _PREC_POW)
        return f"{left}^{right}"
    raise AssertionError(type(e))


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    """Replace every occurrence of variable ``name`` with another expression."""
    name = canonical_partial_name(name)
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, (Num, Const)):
        return e
    if isinstance(e, Neg):
        return _neg(substitute(e.arg, name, replacement))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, name, replacement))
    if isinstance(e, Bin):
        return _BUILD[e.op](substitute(e.left, name, replacement),
                            substitute(e.right, name, replacement))
    raise AssertionError(type(e))


def free_variables(e: Expr) -> set:
    """Names of all Vars in the expression (partial tags included)."""
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, (Neg, Call)):
            stack.append(node.arg)
        elif isinstance(node, Bin):
            stack.append(node.left)
            stack.append(node.right)
    return out
