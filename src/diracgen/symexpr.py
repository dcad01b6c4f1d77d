"""Minimal symbolic expression engine over chart coordinates.

Expressions are immutable trees over real literals, coordinate variables,
the four arithmetic operations, integer powers, unary negation, and the
functions sin, cos, exp.  They differentiate exactly, and evaluate to IEEE
doubles through one evaluator, :class:`CompiledExprs`, whose every node is
a numpy ufunc on a whole batch of points (``Expr.eval`` is a one-point
batch).  The only rewriting performed is constant folding, by the same
instructions, and the 0/1 identities; correctness is always judged by
evaluation, never by canonical form.

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
import sys
from dataclasses import dataclass

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


# Most random sample points Chart.sample_points draws.
MAX_SAMPLES = 10_000


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
        if not names:
            raise InputError("a chart needs at least one coordinate")
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

    def outside(self, points, slack: float = 1e-9) -> np.ndarray:
        """Mask over points (..., n): outside the box widened by slack * (1 + width)."""
        lo, hi = np.array(self.box).T
        pad = slack * (1.0 + (hi - lo))
        return ~((lo - pad <= points) & (points <= hi + pad)).all(axis=-1)

    def require_inside(self, points):
        """OutsideBoxError at the first of points (an n-vector or a stack) outside the box."""
        points = np.asarray(points, dtype=float)
        stack = points.reshape(-1, self.n) if points.shape[-1:] == (self.n,) else points[None]
        bad = np.flatnonzero(self.outside(stack) if stack.shape[-1:] == (self.n,) else True)
        if bad.size:
            raise OutsideBoxError(f"point {plain(stack[bad[0]])} outside chart box {self.box}")

    def checked_samples(self, samples, **default) -> np.ndarray:
        """samples (sample_points(**default) when None) as an (N, n) float
        array; InputError if there is none (a sampled check on no sample
        certifies nothing), one is no n-vector or one has a NaN or
        infinite coordinate (a check there certifies no point)."""
        points = np.asarray(self.sample_points(**default) if samples is None else samples, dtype=float)
        if points.size == 0:
            raise InputError("no sample points: a sampled check needs at least one")
        if points.ndim != 2 or points.shape[1] != self.n:
            raise InputError(f"sample points must be {self.n}-vectors, got shape {points.shape}")
        for i in np.flatnonzero(~np.isfinite(points).all(axis=1))[:1]:
            raise InputError(f"sample point {plain(points[i])} is not finite")
        return points

    def widths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.box])

    def sample_points(
        self, seed: int = 0, n_random: int = 32, margin: float = 0.0
    ) -> list[np.ndarray]:
        """Default verification samples: a 3-per-axis interior tensor grid
        over the first min(n, 4) coordinates plus ``n_random`` uniform
        points, reproducibly seeded.  ``margin`` shrinks the sampling box
        by that fraction on each side (finite-difference checks need room
        for their stencils).  More than ``MAX_SAMPLES`` random points is an
        InputError."""
        if n_random > MAX_SAMPLES:
            raise InputError(f"{n_random} random samples, above the cap of {MAX_SAMPLES}")
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
        """The value at one point, or its error: a one-point batch of a program."""
        return float(CompiledExprs([self])(np.asarray(point, dtype=float)[None])[0, 0])

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

    def diff(self, index):
        return ONE if index == self.index else ZERO

    def _fmt(self, prec):
        return self.name


@dataclass(frozen=True, repr=False)
class Add(Expr):
    left: Expr
    right: Expr

    def diff(self, index):
        return _add(self.left.diff(index), self.right.diff(index))

    def _fmt(self, prec):
        s = f"{self.left._fmt(1)} + {self.right._fmt(1)}"
        return f"({s})" if prec > 1 else s


@dataclass(frozen=True, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr

    def diff(self, index):
        return _sub(self.left.diff(index), self.right.diff(index))

    def _fmt(self, prec):
        s = f"{self.left._fmt(1)} - {self.right._fmt(2)}"
        return f"({s})" if prec > 1 else s


@dataclass(frozen=True, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr

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

    def diff(self, index):
        return _neg(self.arg.diff(index))

    def _fmt(self, prec):
        s = f"-{self.arg._fmt(3)}"
        return f"({s})" if prec > 1 else s


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int

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

    def diff(self, index):
        a = self.arg
        outer = self if self.name == "exp" else Func("cos", a) if self.name == "sin" else _neg(Func("sin", a))
        return _mul(outer, a.diff(index))

    def _fmt(self, prec):
        return f"{self.name}({self.arg._fmt(0)})"


ZERO = Const(0.0)
ONE = Const(1.0)


# A node's check gives (words its message starts with, mask) for each failure
# it may flag, from the values of its last operand and its own; a failure
# always gives a value that is not finite, so only such values are checked.
# A division by zero names the node, the others the whole expression.
_ZERO_DIVISION = "division by zero in"


def _zero_denominator(y, value):
    return ((_ZERO_DIVISION, y == 0.0),)


def _elementwise_failures(x, value):
    """Of sin, cos, exp and powers: 0^-k divides by zero, ±inf from any
    other finite x overflows, and sin or cos of ±inf (NaN from ±inf) is a
    non-finite value inside."""
    inf = np.isinf(value)
    zero = inf & (x == 0.0)
    return ((_ZERO_DIVISION, zero), ("overflow evaluating", inf & ~zero & np.isfinite(x)),
            ("non-finite value inside", np.isinf(x) & np.isnan(value)))


# every node as one numpy operation on whole batches (a ufunc, or one through an operator)
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _instruction(e: Expr):
    """(function, check) of node e: the batch function of its operands'
    values that computes it, and the check of its failures (or None)."""
    if isinstance(e, Func):
        return _FUNCTIONS[e.name], _elementwise_failures
    if isinstance(e, Pow):
        return (lambda x, k=float(e.exponent): np.power(x, k)), _elementwise_failures
    if isinstance(e, Neg):
        return operator.neg, None
    return _BINARY[type(e)], _zero_denominator if isinstance(e, Div) else None


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
    if abs(exponent) > sys.float_info.max:  # np.power takes it as a float
        raise InputError("an integer power beyond the largest float")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    return _folded(Pow(base, exponent))


def const(value) -> Const:
    return Const(float(value))


def var(chart: Chart, name: str) -> Var:
    return Var(chart.index(name), name)


def _folded(e: Func | Pow) -> Expr:
    """e as the Const its program computes when its operand is a constant;
    e itself where that flags a failure (an overflow, 0^-k, or sin of an
    infinite literal), so that evaluation reports the error at a point."""
    if not isinstance(e.arg if isinstance(e, Func) else e.base, Const):
        return e
    program = CompiledExprs([e])
    value = program.evaluate(np.empty((1, 0)))[0][0, 0]
    return e if program._last[3] else Const(float(value))


def sin(arg: Expr) -> Expr:
    return _folded(Func("sin", arg))


def cos(arg: Expr) -> Expr:
    return _folded(Func("cos", arg))


def exp(arg: Expr) -> Expr:
    return _folded(Func("exp", arg))


# -- compiled evaluation ------------------------------------------------------


def _finite(values) -> bool:
    """Whether every value is finite: their sum is, unless it overflows."""
    return math.isfinite(np.add.reduce(values, axis=None))


class CompiledExprs:
    """A list of expressions compiled, once and whole, into a straight-line
    program over batches of points.  Equal subtrees are computed once.

    Every node runs as one numpy operation on the whole batch (``np.sin``,
    ``np.cos``, ``np.exp`` and ``np.power`` for the functions and powers),
    so a batch gives each point the bits it gets alone.  An expression
    fails at a point where one of its nodes flags a failure there (the
    checks above) or where its value is not finite.

    The program keeps its last evaluation, keyed on a private copy of the
    points: evaluating it again at the same points, bit for bit, returns
    the same read-only arrays.
    """

    def __init__(self, exprs):
        self.exprs = tuple(exprs)
        self._init: list = []  # slot values before a run: constants, else None
        self._nodes: list = []  # a node computed in each slot, for messages
        self._vars: list = []  # (slot, coordinate index)
        self._code: list = []  # (slot, function, check, operand, operand or None)
        self._last = None  # (points, values, bad, failures) of the last evaluation
        slots: dict = {}  # structural key -> slot
        seen: dict = {}  # id(node) -> slot; every node stays alive in self.exprs
        self._out = [self._slot(e, slots, seen) for e in self.exprs]  # slot of each expression

    def _slot(self, e, slots: dict, seen: dict) -> int:
        """The slot of node e, its operands' first (a closure would hold itself in a cycle)."""
        s = seen.get(id(e))
        if s is not None:
            return s
        kind = type(e)
        if kind is Const:
            key = (kind, float(e.value).hex())
        elif kind is Var:
            key = (kind, e.index)
        elif kind is Func:
            key = (kind, e.name, self._slot(e.arg, slots, seen), None)
        elif kind is Pow:
            key = (kind, e.exponent, self._slot(e.base, slots, seen), None)
        elif kind is Neg:
            key = (kind, None, self._slot(e.arg, slots, seen), None)
        else:
            key = (kind, None, self._slot(e.left, slots, seen), self._slot(e.right, slots, seen))
        s = slots.get(key)
        if s is None:
            s = slots[key] = len(self._init)
            self._init.append(np.float64(e.value) if kind is Const else None)
            self._nodes.append(e)
            if kind is Var:
                self._vars.append((s, e.index))
            elif kind is not Const:
                self._code.append((s, *_instruction(e), *key[2:]))
        seen[id(e)] = s
        return s

    def evaluate(self, points):
        """(values, bad) at a batch of points (N x n): ``values[e, i]`` is
        expression e at point i, and ``bad[e, i]`` marks where it fails
        there (``bad`` is None when it never does)."""
        pts = np.array(points, dtype=float, order="C")
        last = self._last
        if last is not None and last[0].shape == pts.shape and last[0].tobytes() == pts.tobytes():
            return last[1], last[2]
        self._last = None  # freed before this evaluation
        vals = list(self._init)
        failures = []  # (slot, words, mask) of each failure, in program order
        for s, index in self._vars:  # one point runs on scalars, with the same bits
            vals[s] = pts[0, index] if len(pts) == 1 else pts[:, index]
        with np.errstate(all="ignore"):
            for s, fn, check, a, b in self._code:
                x = vals[a] if b is None else vals[b]
                vals[s] = value = fn(x) if b is None else fn(vals[a], x)
                if check is not None and not _finite(value):
                    failures += [(s, words, np.broadcast_to(mask, len(pts))) for words, mask in check(x, value)
                                 if mask.any()]
            out = np.empty((len(self._out), len(pts)))
            for e, s in enumerate(self._out):
                out[e] = vals[s]
            finite = not failures and _finite(out)
        flags = None
        if not finite:
            bad = [False] * len(vals)
            for s, _, mask in failures:
                bad[s] = bad[s] | mask
            for s, _, _, a, b in self._code:  # a failure taints what is computed from it
                bad[s] = bad[s] | bad[a] | (b is not None and bad[b])
            flags = ~np.isfinite(out)
            for e, s in enumerate(self._out):
                flags[e] |= bad[s]
            flags = flags if flags.any() else None  # a sum that overflows flags nothing
        for array in (pts, out, flags):
            if array is not None:
                array.flags.writeable = False
        self._last = (pts, out, flags, failures)
        return out, flags

    def _error(self, e: int, i: int) -> EvalDomainError:
        """The error of expression e at point i of the kept evaluation: its
        first node, each after its operands and left to right, that flags
        a failure there; else its value is not finite."""
        pts, _, _, failures = self._last
        words_at = {s: words for s, words, mask in failures if mask[i]}
        operands = {s: (a, b) for s, _, _, a, b in self._code}
        done = set()

        def first(s):  # the first slot under s, after its operands, that flags at point i
            done.add(s)
            for c in operands.get(s, ()):
                if c is not None and c not in done and (hit := first(c)) is not None:
                    return hit
            return s if s in words_at else None

        s, expr = first(self._out[e]), self.exprs[e]
        if s is None:
            return _domain_error("non-finite value for", expr, pts[i])
        return _domain_error(words_at[s], self._nodes[s] if words_at[s] == _ZERO_DIVISION else expr, pts[i])

    def first_error(self, points, exprs=None, at=None):
        """The EvalDomainError of the first failure of the expressions exprs
        (indices, default all) at the points at (indices, default all), or
        None: point by point in the order of at, and at a point expression
        by expression."""
        _, bad = self.evaluate(points)
        if bad is None:
            return None
        exprs = range(bad.shape[0]) if exprs is None else exprs
        at = range(bad.shape[1]) if at is None else at
        hit = bad[np.ix_(exprs, at)]
        for p in np.flatnonzero(hit.any(axis=0))[:1]:
            return self._error(exprs[np.flatnonzero(hit[:, p])[0]], at[p])
        return None

    def raise_first(self, points, exprs=None, at=None):
        """Raise the error of first_error, if any."""
        error = self.first_error(points, exprs, at)
        if error is not None:
            raise error

    def __call__(self, points) -> np.ndarray:
        """Values at a batch of points; raises the error at the first point,
        and there at the first expression, where one fails."""
        values, bad = self.evaluate(points)
        if bad is not None:
            self.raise_first(points)
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
        if len(text) > 309:  # above the largest float, which has 309 digits; int() refuses 4,301
            raise ExprSyntaxError(f"integer exponent of {len(text)} digits, more than 309", pos)
        return sign * int(text)

    def atom(self) -> Expr:
        kind, text, pos = self.next()
        if text == "(":
            return self.nested(self.expr, pos)
        if kind == "number":
            return Const(float(text))
        if kind == "name":
            if text in _FUNCTIONS:
                self.expect("(")
                return _folded(Func(text, self.nested(self.expr, pos)))
            if text in self.chart.coord_names:
                return Var(self.chart.index(text), text)
            raise UnknownIdentifierError(text, pos)
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", pos)


def parse(text: str, chart: Chart) -> Expr:
    """Parse an infix expression over the chart coordinates, at most MAX_DEPTH deep."""
    return _Parser(text, chart).parse()
