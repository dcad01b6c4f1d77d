"""Vector fields, one-forms, sections of TM + T*M, and their pairing.

All objects are symbolic: coefficients are :class:`~diracgen.symexpr.Expr`
trees over a shared chart, differentiated exactly.  No bracket is built
here: dirac._courant forms Courant brackets from evaluated 1-jets, and
distribution.check_bracket_hypothesis the bracket with a leaf coordinate
field as a leaf derivative.  The symbolic brackets they are tested against
live in tests/pointwise.py.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ChartMismatchError, InputError
from .symexpr import Chart, CompiledExprs, Expr, ZERO, _coerce

__all__ = [
    "VectorField",
    "OneForm",
    "PontryaginSection",
    "pairing",
]


def _as_coeffs(chart: Chart, coeffs) -> tuple[Expr, ...]:
    out = tuple(_coerce(c) for c in coeffs)
    if len(out) != chart.n:
        raise InputError(f"expected {chart.n} coefficients, got {len(out)}")
    return out


def _same_chart(*objects):
    chart = objects[0].chart
    for obj in objects[1:]:
        if obj.chart is not chart and obj.chart != chart:
            raise ChartMismatchError(
                f"objects built over different charts: {chart.coord_names} "
                f"vs {obj.chart.coord_names}"
            )
    return chart


@dataclass(frozen=True)
class _Coefficients:
    """n coefficient expressions over a chart, with the arithmetic that
    vector fields and one-forms share; each result has the type of self."""

    chart: Chart
    coeffs: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.chart, self.coeffs))

    @functools.cached_property
    def _program(self) -> CompiledExprs:
        return CompiledExprs(self.coeffs)

    def __call__(self, point) -> np.ndarray:
        return self._program(np.asarray(point, dtype=float)[None])[:, 0].copy()

    def __add__(self, other):
        chart = _same_chart(self, other)
        return type(self)(chart, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        chart = _same_chart(self, other)
        return type(self)(chart, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, factor):
        factor = _coerce(factor)
        return type(self)(self.chart, tuple(factor * c for c in self.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    @classmethod
    def zero(cls, chart: Chart):
        return cls(chart, (ZERO,) * chart.n)

    @classmethod
    def coordinate(cls, chart: Chart, index: int):
        coeffs = [ZERO] * chart.n
        coeffs[index] = _coerce(1.0)
        return cls(chart, tuple(coeffs))


@dataclass(frozen=True)
class VectorField(_Coefficients):
    """A vector field: its coefficients on the coordinate fields."""


@dataclass(frozen=True)
class OneForm(_Coefficients):
    """A one-form: its coefficients on the coordinate differentials."""

    def contract(self, X: VectorField) -> Expr:
        """The function alpha(X)."""
        _same_chart(self, X)
        return sum((a * x for a, x in zip(self.coeffs, X.coeffs)), ZERO)


@dataclass(frozen=True)
class PontryaginSection:
    """A pair (vector field, one-form) over a shared chart."""

    vf: VectorField
    form: OneForm

    def __post_init__(self):
        _same_chart(self.vf, self.form)

    @property
    def chart(self) -> Chart:
        return self.vf.chart

    def __call__(self, point) -> np.ndarray:
        """Evaluate to a 2n-vector: vector components then form components."""
        return np.concatenate([self.vf(point), self.form(point)])

    def __add__(self, other):
        return PontryaginSection(self.vf + other.vf, self.form + other.form)

    def __sub__(self, other):
        return PontryaginSection(self.vf - other.vf, self.form - other.form)

    def __mul__(self, factor):
        return PontryaginSection(self.vf * factor, self.form * factor)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    @classmethod
    def zero(cls, chart: Chart) -> "PontryaginSection":
        return cls(VectorField.zero(chart), OneForm.zero(chart))

    @classmethod
    def from_vector(cls, X: VectorField) -> "PontryaginSection":
        return cls(X, OneForm.zero(X.chart))


def _components(s: PontryaginSection) -> list:
    """The 2n coefficient expressions of a section, vector part first."""
    return [*s.vf.coeffs, *s.form.coeffs]


def pairing(a: PontryaginSection, b: PontryaginSection) -> Expr:
    """Symmetric fiberwise pairing <(u, alpha), (v, beta)> = beta(u) + alpha(v)."""
    _same_chart(a.vf, b.vf)
    return b.form.contract(a.vf) + a.form.contract(b.vf)
