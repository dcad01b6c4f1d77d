"""Minimal symbolic expression engine over chart coordinates.

Expressions are immutable trees over real literals, coordinate variables,
the four arithmetic operations, integer powers, unary negation, and the
functions sin, cos, exp.  They evaluate to IEEE doubles and differentiate
exactly.  The only rewriting performed is constant folding and the 0/1
identities; correctness is always judged by evaluation, never by canonical
form.

Grammar accepted by :func:`parse` (EBNF)::

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = { "+" | "-" } power ;
    power   = atom [ "^" exponent ] ;
    exponent= [ "-" ] integer | "(" [ "-" ] integer ")" ;
    atom    = number | name | name "(" expr ")" | "(" expr ")" ;

where ``name`` is a chart coordinate or one of ``sin``, ``cos``, ``exp``,
and ``^`` is right-grouping with an integer literal exponent.  A tree or a
parenthesis nesting deeper than ``MAX_DEPTH`` levels is rejected.

Coordinate indices are 0-based throughout the library.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EvalDomainError,
    ExprSyntaxError,
    InputError,
    OutsideBoxError,
    UnknownIdentifierError,
)

__all__ = [
    "Chart",
    "Expr",
    "Const",
    "Var",
    "CompiledExprs",
    "parse",
    "const",
    "var",
    "sin",
    "cos",
    "exp",
    "ZERO",
    "ONE",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def plain(point) -> list[float]:
    """A point as a list of Python floats, for messages and records."""
    return [float(v) for v in point]


def _domain_error(what: str, expr, point) -> EvalDomainError:
    return EvalDomainError(f"{what} {expr} at {plain(point)}", plain(point))


@dataclass(frozen=True)
class Chart:
    """Named coordinates on an open box, with the first ``leaf_count``
    coordinates spanning the foliated block.

    The box interval of each leaf coordinate must contain 0: ODE
    integration and quadrature start on the zero slice of those
    coordinates.
    """

    coord_names: tuple[str, ...]
    leaf_count: int = 0
    box: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        names = tuple(self.coord_names)
        object.__setattr__(self, "coord_names", names)
        if len(set(names)) != len(names):
            raise InputError(f"duplicate coordinate names in {names}")
        for name in names:
            if not _NAME_RE.fullmatch(name) or name in _FUNCTIONS:
                raise InputError(f"invalid coordinate name {name!r}")
        n = len(names)
        if not 0 <= self.leaf_count <= n:
            raise InputError(
                f"leaf_count {self.leaf_count} out of range for {n} coordinates"
            )
        box = tuple((float(lo), float(hi)) for lo, hi in self.box) or tuple(
            (-1.0, 1.0) for _ in names
        )
        if len(box) != n:
            raise InputError(f"box needs {n} intervals, got {len(box)}")
        for i, (lo, hi) in enumerate(box):
            if not lo < hi:
                raise InputError(f"box interval for {names[i]} is not open: [{lo}, {hi}]")
            if i < self.leaf_count and not lo <= 0.0 <= hi:
                raise InputError(
                    f"leaf coordinate {names[i]} has box [{lo}, {hi}] not containing 0"
                )
        object.__setattr__(self, "box", box)

    @property
    def n(self) -> int:
        return len(self.coord_names)

    def index(self, name: str) -> int:
        try:
            return self.coord_names.index(name)
        except ValueError:
            raise UnknownIdentifierError(name) from None

    def contains(self, point, slack: float = 1e-9) -> bool:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.n,):
            return False
        widths = [hi - lo for lo, hi in self.box]
        return all(
            lo - slack * (1.0 + w) <= x <= hi + slack * (1.0 + w)
            for x, (lo, hi), w in zip(point, self.box, widths)
        )

    def require_inside(self, point):
        if not self.contains(point):
            raise OutsideBoxError(f"point {plain(point)} outside chart box {self.box}")

    def widths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.box])

    def sample_points(
        self, seed: int = 0, n_random: int = 32, margin: float = 0.0
    ) -> list[np.ndarray]:
        """Default verification samples: a 3-per-axis interior tensor grid
        over the first min(n, 4) coordinates plus ``n_random`` uniform
        points, reproducibly seeded.  ``margin`` shrinks the sampling box
        by that fraction on each side (finite-difference checks need room
        for their stencils)."""
        fractions = (0.25, 0.5, 0.75)
        gridded = min(self.n, 4)
        axes = []
        for i in range(self.n):
            lo, hi = self.box[i]
            if i < gridded:
                axes.append([lo + f * (hi - lo) for f in fractions])
            else:
                axes.append([0.5 * (lo + hi)])
        mesh = np.meshgrid(*axes, indexing="ij")
        points = [np.array(p) for p in zip(*(m.ravel() for m in mesh))]
        rng = np.random.default_rng(seed)
        widths = self.widths()
        lows = np.array([lo for lo, _ in self.box]) + margin * widths
        spans = (1.0 - 2.0 * margin) * widths
        for _ in range(n_random):
            points.append(lows + rng.random(self.n) * spans)
        return points


class Expr:
    """Base class for expression nodes.  Immutable; arithmetic operators
    build new folded nodes."""

    __slots__ = ()

    def eval(self, point) -> float:
        try:
            value = self._eval(point)
        except OverflowError:
            raise _domain_error("overflow evaluating", self, point) from None
        except ValueError:  # sin or cos of an infinite intermediate
            raise _domain_error("non-finite value inside", self, point) from None
        if not math.isfinite(value):
            raise _domain_error("non-finite value for", self, point)
        return value

    def _eval(self, point) -> float:
        raise NotImplementedError

    def diff(self, index: int) -> "Expr":
        raise NotImplementedError

    def __add__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else _add(self, other)

    def __radd__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else _add(other, self)

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else _sub(self, other)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else _sub(other, self)

    def __mul__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else _mul(self, other)

    def __rmul__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else _mul(other, self)

    def __truediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else _div(self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else _div(other, self)

    def __pow__(self, exponent):
        return _pow(self, exponent)

    def __neg__(self):
        return _neg(self)

    def __str__(self):
        return self._fmt(0)

    def __repr__(self):
        return f"<Expr {self._fmt(0)}>"

    def _fmt(self, prec: int) -> str:
        raise NotImplementedError


def _coerce(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    return NotImplemented


@dataclass(frozen=True, repr=False)
class Const(Expr):
    value: float

    def _eval(self, point):
        return self.value

    def diff(self, index):
        return ZERO

    def _fmt(self, prec):
        if self.value < 0 and prec > 0:
            return f"({self.value!r})"
        return repr(self.value)


@dataclass(frozen=True, repr=False)
class Var(Expr):
    index: int
    name: str

    def _eval(self, point):
        return float(point[self.index])

    def diff(self, index):
        return ONE if index == self.index else ZERO

    def _fmt(self, prec):
        return self.name


@dataclass(frozen=True, repr=False)
class Add(Expr):
    left: Expr
    right: Expr

    def _eval(self, point):
        return self.left._eval(point) + self.right._eval(point)

    def diff(self, index):
        return _add(self.left.diff(index), self.right.diff(index))

    def _fmt(self, prec):
        s = f"{self.left._fmt(1)} + {self.right._fmt(1)}"
        return f"({s})" if prec > 1 else s


@dataclass(frozen=True, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr

    def _eval(self, point):
        return self.left._eval(point) - self.right._eval(point)

    def diff(self, index):
        return _sub(self.left.diff(index), self.right.diff(index))

    def _fmt(self, prec):
        s = f"{self.left._fmt(1)} - {self.right._fmt(2)}"
        return f"({s})" if prec > 1 else s


@dataclass(frozen=True, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr

    def _eval(self, point):
        return self.left._eval(point) * self.right._eval(point)

    def diff(self, index):
        return _add(
            _mul(self.left.diff(index), self.right),
            _mul(self.left, self.right.diff(index)),
        )

    def _fmt(self, prec):
        s = f"{self.left._fmt(2)}*{self.right._fmt(2)}"
        return f"({s})" if prec > 2 else s


@dataclass(frozen=True, repr=False)
class Div(Expr):
    left: Expr
    right: Expr

    def _eval(self, point):
        denom = self.right._eval(point)
        if denom == 0.0:
            raise _domain_error("division by zero in", self, point)
        return self.left._eval(point) / denom

    def diff(self, index):
        # (u/v)' = u'/v - u*v'/v^2
        u, v = self.left, self.right
        return _sub(_div(u.diff(index), v), _div(_mul(u, v.diff(index)), _mul(v, v)))

    def _fmt(self, prec):
        s = f"{self.left._fmt(2)}/{self.right._fmt(3)}"
        return f"({s})" if prec > 2 else s


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    arg: Expr

    def _eval(self, point):
        return -self.arg._eval(point)

    def diff(self, index):
        return _neg(self.arg.diff(index))

    def _fmt(self, prec):
        s = f"-{self.arg._fmt(3)}"
        return f"({s})" if prec > 1 else s


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int

    def _eval(self, point):
        base = self.base._eval(point)
        if base == 0.0 and self.exponent < 0:
            raise _domain_error("division by zero in", self, point)
        return base**self.exponent

    def diff(self, index):
        return _mul(
            _mul(Const(float(self.exponent)), _pow(self.base, self.exponent - 1)),
            self.base.diff(index),
        )

    def _fmt(self, prec):
        exp = self.exponent if self.exponent >= 0 else f"({self.exponent})"
        s = f"{self.base._fmt(4)}^{exp}"
        return f"({s})" if prec > 3 else s


@dataclass(frozen=True, repr=False)
class Func(Expr):
    name: str
    arg: Expr
    fn: object = field(compare=False)

    def _eval(self, point):
        return self.fn(self.arg._eval(point))

    def diff(self, index):
        inner = self.arg.diff(index)
        if self.name == "sin":
            outer = Func("cos", self.arg, math.cos)
        elif self.name == "cos":
            outer = _neg(Func("sin", self.arg, math.sin))
        elif self.name == "exp":
            outer = self
        else:  # pragma: no cover
            raise NotImplementedError(self.name)
        return _mul(outer, inner)

    def _fmt(self, prec):
        return f"{self.name}({self.arg._fmt(0)})"


ZERO = Const(0.0)
ONE = Const(1.0)

_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def _div(a, b):
    if _is_const(b) and b.value != 0.0:
        if _is_const(a):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    return Div(a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(base, exponent):
    if not isinstance(exponent, int):
        raise InputError(f"only integer powers are supported, got {exponent!r}")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if _is_const(base) and (base.value != 0.0 or exponent > 0):
        return Const(base.value**exponent)
    return Pow(base, exponent)


def const(value) -> Const:
    return Const(float(value))


def var(chart: Chart, name: str) -> Var:
    return Var(chart.index(name), name)


def sin(arg: Expr) -> Expr:
    if _is_const(arg):
        return Const(math.sin(arg.value))
    return Func("sin", arg, math.sin)


def cos(arg: Expr) -> Expr:
    if _is_const(arg):
        return Const(math.cos(arg.value))
    return Func("cos", arg, math.cos)


def exp(arg: Expr) -> Expr:
    if _is_const(arg):
        return Const(math.exp(arg.value))
    return Func("exp", arg, math.exp)


_FUNC_BUILDERS = {"sin": sin, "cos": cos, "exp": exp}


# -- compiled evaluation ------------------------------------------------------

# instruction kinds of a compiled program
_BINARY, _DIV, _NEG, _ELEMENTWISE = range(4)
_BINARY_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}
# what math.sin/cos/exp and float power raise where Expr.eval fails
_ELEMENT_ERRORS = (ArithmeticError, ValueError)


def _elementwise(fn, x):
    """fn on each element as a Python float, with a mask of the elements
    where it raises (None when none does).  math.exp and float power are
    used instead of numpy's, which differ from them in the last bit."""
    items = x.tolist()
    if not isinstance(items, list):  # a constant
        items = [items]
    try:
        return np.fromiter(map(fn, items), float, len(items)), None
    except _ELEMENT_ERRORS:
        pass
    out = np.empty(len(items))
    bad = np.zeros(len(items), dtype=bool)
    for i, v in enumerate(items):
        try:
            out[i] = fn(v)
        except _ELEMENT_ERRORS:
            out[i] = math.nan
            bad[i] = True
    return out, bad


def _either(a, b):
    if a is None:
        return b
    return a if b is None else a | b


class CompiledExprs:
    """A fixed list of expressions compiled once into a straight-line
    program over batches of points.  Equal subtrees are computed once.

    Arithmetic is numpy's on whole batches; sin, cos, exp and powers run
    per element on Python floats.  Every value is therefore bit-identical
    to :meth:`Expr.eval`, and a point is flagged exactly where
    ``Expr.eval`` raises there.
    """

    def __init__(self, exprs):
        self.exprs = tuple(exprs)
        self._init: list = []  # slot values before a run: constants, else None
        self._vars: list = []  # (slot, coordinate index)
        self._code: list = []  # (slot, kind, function, operand, operand)
        slots: dict = {}  # structural key -> slot
        seen: dict = {}  # id(node) -> slot

        def slot(e) -> int:
            s = seen.get(id(e))
            if s is not None:
                return s
            if isinstance(e, Const):
                key = ("const", float(e.value).hex())
            elif isinstance(e, Var):
                key = ("var", e.index)
            elif isinstance(e, Func):
                key = ("func", e.name, slot(e.arg))
            elif isinstance(e, Pow):
                key = ("pow", e.exponent, slot(e.base))
            elif isinstance(e, Neg):
                key = ("neg", slot(e.arg))
            else:
                key = (type(e).__name__, slot(e.left), slot(e.right))
            s = slots.get(key)
            if s is None:
                s = slots[key] = len(self._init)
                self._init.append(np.float64(e.value) if isinstance(e, Const) else None)
                if isinstance(e, Var):
                    self._vars.append((s, e.index))
                elif isinstance(e, Func):
                    self._code.append((s, _ELEMENTWISE, e.fn, key[2], None))
                elif isinstance(e, Pow):
                    self._code.append((s, _ELEMENTWISE, lambda v, k=e.exponent: v**k, key[2], None))
                elif isinstance(e, Neg):
                    self._code.append((s, _NEG, None, key[1], None))
                elif isinstance(e, Div):
                    self._code.append((s, _DIV, None, key[1], key[2]))
                elif not isinstance(e, Const):
                    self._code.append((s, _BINARY, _BINARY_OPS[type(e)], key[1], key[2]))
            seen[id(e)] = s
            return s

        self._out = [slot(e) for e in self.exprs]

    def evaluate(self, points):
        """(values, bad) at a batch of points (N x n): ``values[e, i]`` is
        expression e at point i, and ``bad[e, i]`` marks where
        ``Expr.eval`` raises instead (``bad`` is None when it never does)."""
        pts = np.asarray(points, dtype=float)
        vals = list(self._init)
        bad = [None] * len(vals)
        for s, index in self._vars:
            vals[s] = pts[:, index]
        with np.errstate(all="ignore"):
            for s, kind, fn, a, b in self._code:
                if kind == _BINARY:
                    vals[s] = fn(vals[a], vals[b])
                    flag = None
                elif kind == _ELEMENTWISE:
                    vals[s], flag = _elementwise(fn, vals[a])
                elif kind == _NEG:
                    vals[s] = -vals[a]
                    flag = None
                else:
                    zero = vals[b] == 0.0
                    flag = zero if zero.any() else None
                    vals[s] = vals[a] / vals[b]
                if flag is not None or bad[a] is not None or (b is not None and bad[b] is not None):
                    bad[s] = _either(_either(flag, bad[a]), None if b is None else bad[b])
        out = np.empty((len(self._out), len(pts)))
        for e, s in enumerate(self._out):
            out[e] = vals[s]
        flags = ~np.isfinite(out)
        for e, s in enumerate(self._out):
            if bad[s] is not None:
                flags[e] |= bad[s]
        return out, (flags if flags.any() else None)

    def raise_at(self, e: int, point):
        """Raise what ``Expr.eval`` raises for expression e at a flagged point."""
        self.exprs[e].eval(point)
        raise AssertionError(f"{self.exprs[e]} was flagged at {plain(point)} but evaluates")

    def __call__(self, points) -> np.ndarray:
        """Values at a batch of points; raises the error ``Expr.eval``
        raises at the first point, and there at the first expression,
        where it fails."""
        values, bad = self.evaluate(points)
        if bad is not None:
            i = int(np.flatnonzero(bad.any(axis=0))[0])
            self.raise_at(int(np.flatnonzero(bad[:, i])[0]), np.asarray(points, dtype=float)[i])
        return values


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


# Deepest expression tree, and parenthesis nesting, that parse accepts: Expr
# recursion on such a tree and its brackets stays well inside Python's default
# recursion limit.
MAX_DEPTH = 100


def _height(e: Expr) -> int:
    """Number of levels of an expression tree, counted without recursion."""
    height, level = 0, [e]
    while level:
        height += 1
        level = [c for node in level for c in (
            (node.left, node.right) if isinstance(node, (Add, Sub, Mul, Div))
            else (node.arg,) if isinstance(node, (Neg, Func))
            else (node.base,) if isinstance(node, Pow) else ())]
    return height


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                raise ExprSyntaxError(f"unexpected character {rest[0]!r}", pos)
            for kind in ("number", "name", "op"):
                if m.group(kind) is not None:
                    self.tokens.append((kind, m.group(kind), m.start(kind)))
                    break
            pos = m.end()
        self.i = 0
        self.nesting = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.next()
        if text != value:
            raise ExprSyntaxError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def nested(self, rule, pos: int):
        """rule() inside one more level of parentheses."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExprSyntaxError(f"parentheses nested deeper than {MAX_DEPTH} levels", pos)
        out = rule()
        self.expect(")")
        self.nesting -= 1
        return out

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", pos)
        if _height(e) > MAX_DEPTH:
            raise ExprSyntaxError(f"expression tree deeper than {MAX_DEPTH} levels", 0)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            e = _add(e, rhs) if op == "+" else _sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.unary()
            e = _mul(e, rhs) if op == "*" else _div(e, rhs)
        return e

    def unary(self) -> Expr:
        sign = 1
        while self.peek()[1] in ("+", "-"):
            if self.next()[1] == "-":
                sign = -sign
        e = self.power()
        return _neg(e) if sign < 0 else e

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            return _pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        kind, text, pos = self.next()
        if text == "(":
            return self.nested(self.exponent, pos)
        sign = 1
        while text in ("-", "+"):
            if text == "-":
                sign = -sign
            kind, text, pos = self.next()
        if kind != "number" or any(c in text for c in ".eE"):
            raise ExprSyntaxError(f"integer exponent expected, found {text!r}", pos)
        return sign * int(text)

    def atom(self) -> Expr:
        kind, text, pos = self.next()
        if text == "(":
            return self.nested(self.expr, pos)
        if kind == "number":
            return Const(float(text))
        if kind == "name":
            if text in _FUNC_BUILDERS:
                self.expect("(")
                return _FUNC_BUILDERS[text](self.nested(self.expr, pos))
            if text in self.chart.coord_names:
                return Var(self.chart.index(text), text)
            raise UnknownIdentifierError(text, pos)
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", pos)


def parse(text: str, chart: Chart) -> Expr:
    """Parse an infix expression over the chart coordinates, at most MAX_DEPTH deep."""
    return _Parser(text, chart).parse()
