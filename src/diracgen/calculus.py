"""Vector fields, one-forms, sections of TM + T*M, and their brackets.

All objects are symbolic: coefficients are :class:`~diracgen.symexpr.Expr`
trees over a shared chart, so brackets of brackets stay exactly
differentiable.  Two-forms are never materialized; the contraction
``i_Y d(alpha)`` is a fused componentwise operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartMismatchError, InputError
from .symexpr import Chart, Expr, ZERO, _coerce

__all__ = [
    "VectorField",
    "OneForm",
    "PontryaginSection",
    "pairing",
    "lie_bracket",
    "lie_derivative_form",
    "exterior_interior",
    "differential",
    "skew_bracket",
    "courant_bracket",
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
class VectorField:
    chart: Chart
    coeffs: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.chart, self.coeffs))

    def __call__(self, point) -> np.ndarray:
        return np.array([c.eval(point) for c in self.coeffs])

    def apply(self, f: Expr) -> Expr:
        """Directional derivative X[f]."""
        out = ZERO
        for i, c in enumerate(self.coeffs):
            out = out + c * f.diff(i)
        return out

    def __add__(self, other):
        chart = _same_chart(self, other)
        return VectorField(chart, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        chart = _same_chart(self, other)
        return VectorField(chart, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, factor):
        factor = _coerce(factor)
        return VectorField(self.chart, tuple(factor * c for c in self.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        return cls(chart, (ZERO,) * chart.n)

    @classmethod
    def coordinate(cls, chart: Chart, index: int) -> "VectorField":
        coeffs = [ZERO] * chart.n
        coeffs[index] = _coerce(1.0)
        return cls(chart, tuple(coeffs))


@dataclass(frozen=True)
class OneForm:
    chart: Chart
    coeffs: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.chart, self.coeffs))

    def __call__(self, point) -> np.ndarray:
        return np.array([c.eval(point) for c in self.coeffs])

    def contract(self, X: VectorField) -> Expr:
        """The function alpha(X)."""
        _same_chart(self, X)
        out = ZERO
        for a, x in zip(self.coeffs, X.coeffs):
            out = out + a * x
        return out

    def __add__(self, other):
        chart = _same_chart(self, other)
        return OneForm(chart, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        chart = _same_chart(self, other)
        return OneForm(chart, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, factor):
        factor = _coerce(factor)
        return OneForm(self.chart, tuple(factor * c for c in self.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    @classmethod
    def zero(cls, chart: Chart) -> "OneForm":
        return cls(chart, (ZERO,) * chart.n)

    @classmethod
    def coordinate(cls, chart: Chart, index: int) -> "OneForm":
        coeffs = [ZERO] * chart.n
        coeffs[index] = _coerce(1.0)
        return cls(chart, tuple(coeffs))


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


def pairing(a: PontryaginSection, b: PontryaginSection) -> Expr:
    """Symmetric fiberwise pairing <(u, alpha), (v, beta)> = beta(u) + alpha(v)."""
    _same_chart(a.vf, b.vf)
    return b.form.contract(a.vf) + a.form.contract(b.vf)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^j = sum_i (X^i d_i Y^j - Y^i d_i X^j)."""
    chart = _same_chart(X, Y)
    coeffs = []
    for j in range(chart.n):
        c = ZERO
        for i in range(chart.n):
            c = c + X.coeffs[i] * Y.coeffs[j].diff(i) - Y.coeffs[i] * X.coeffs[j].diff(i)
        coeffs.append(c)
    return VectorField(chart, tuple(coeffs))


def lie_derivative_form(X: VectorField, alpha: OneForm) -> OneForm:
    """Cartan formula d(i_X alpha) + i_X d(alpha), componentwise
    (L_X alpha)_j = sum_i (X^i d_i alpha_j + alpha_i d_j X^i)."""
    chart = _same_chart(X, alpha)
    coeffs = []
    for j in range(chart.n):
        c = ZERO
        for i in range(chart.n):
            c = c + X.coeffs[i] * alpha.coeffs[j].diff(i) + alpha.coeffs[i] * X.coeffs[i].diff(j)
        coeffs.append(c)
    return OneForm(chart, tuple(coeffs))


def exterior_interior(Y: VectorField, alpha: OneForm) -> OneForm:
    """The contraction i_Y d(alpha): component j is sum_i Y^i (d_i alpha_j - d_j alpha_i)."""
    chart = _same_chart(Y, alpha)
    coeffs = []
    for j in range(chart.n):
        c = ZERO
        for i in range(chart.n):
            c = c + Y.coeffs[i] * (alpha.coeffs[j].diff(i) - alpha.coeffs[i].diff(j))
        coeffs.append(c)
    return OneForm(chart, tuple(coeffs))


def differential(f: Expr, chart: Chart) -> OneForm:
    """The exact one-form df."""
    return OneForm(chart, tuple(f.diff(j) for j in range(chart.n)))


def skew_bracket(a: PontryaginSection, b: PontryaginSection) -> PontryaginSection:
    """Skew-symmetric bracket
    ([X, Y], L_X beta - L_Y alpha + (1/2) d(alpha(Y) - beta(X)))."""
    chart = _same_chart(a.vf, b.vf)
    X, alpha = a.vf, a.form
    Y, beta = b.vf, b.form
    vf = lie_bracket(X, Y)
    form = (
        lie_derivative_form(X, beta)
        - lie_derivative_form(Y, alpha)
        + differential(alpha.contract(Y) - beta.contract(X), chart) * 0.5
    )
    return PontryaginSection(vf, form)


def courant_bracket(a: PontryaginSection, b: PontryaginSection) -> PontryaginSection:
    """Non-skew bracket ([X, Y], L_X beta - i_Y d(alpha))."""
    _same_chart(a.vf, b.vf)
    X, alpha = a.vf, a.form
    Y, beta = b.vf, b.form
    return PontryaginSection(
        lie_bracket(X, Y), lie_derivative_form(X, beta) - exterior_interior(Y, alpha)
    )
