"""Shared helpers: random expression and section corpora for the
bracket-identity suites, the quotient maps of the lift tests, the
stacked intersection of a Dirac structure with the vertical orthogonal,
and a spy on the Step-2 rounds."""

import numpy as np
import pytest
from hypothesis import settings

from diracgen.calculus import OneForm, PontryaginSection, VectorField
from diracgen.dirac import QuotientMap, _dirac_and_action_values, _intersections
from diracgen.invariant_gen import _Solver
from diracgen.symexpr import Chart, Const, Var, cos, exp, parse, sin


# CI selects this profile (pytest --hypothesis-profile=ci): every property
# test then draws the same examples on every run, so a CI failure repeats
# locally with the same command.
settings.register_profile("ci", derandomize=True)


def make_chart(n: int, k: int = 0, box=None) -> Chart:
    names = tuple(f"x{i+1}" for i in range(n))
    if box is None:
        return Chart(coord_names=names, leaf_count=k)
    return Chart(coord_names=names, leaf_count=k, box=tuple(box))


def random_expr(rng: np.random.Generator, chart: Chart, depth: int = 2):
    """Random polynomial/exp/trig expression with small coefficients, so
    evaluations on the unit box stay well scaled."""
    choice = rng.integers(0, 6 if depth > 0 else 3)
    if choice == 0:
        return Const(float(rng.integers(-3, 4)))
    if choice == 1:
        i = int(rng.integers(0, chart.n))
        return Var(i, chart.coord_names[i])
    if choice == 2:
        i = int(rng.integers(0, chart.n))
        j = int(rng.integers(0, chart.n))
        return Var(i, chart.coord_names[i]) * Var(j, chart.coord_names[j])
    if choice == 3:
        return random_expr(rng, chart, depth - 1) + random_expr(rng, chart, depth - 1)
    if choice == 4:
        return random_expr(rng, chart, depth - 1) * random_expr(rng, chart, depth - 1)
    fn = (sin, cos, exp)[int(rng.integers(0, 3))]
    i = int(rng.integers(0, chart.n))
    return fn(Const(0.5) * Var(i, chart.coord_names[i]))


def random_vector_field(rng, chart: Chart, depth: int = 2) -> VectorField:
    return VectorField(chart, tuple(random_expr(rng, chart, depth) for _ in range(chart.n)))


def random_one_form(rng, chart: Chart, depth: int = 2, annihilate: int = 0) -> OneForm:
    coeffs = [random_expr(rng, chart, depth) for _ in range(chart.n)]
    for j in range(annihilate):
        coeffs[j] = Const(0.0)
    return OneForm(chart, tuple(coeffs))


def random_section(rng, chart: Chart, depth: int = 2, annihilate: int = 0) -> PontryaginSection:
    return PontryaginSection(
        random_vector_field(rng, chart, depth),
        random_one_form(rng, chart, depth, annihilate),
    )


def random_points(rng, chart: Chart, count: int) -> list:
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    return [lo + (hi - lo) * rng.random(chart.n) for _ in range(count)]


def cubic_quotient(a, b, box2):
    chart = Chart(coord_names=("x1", "x2"), leaf_count=1, box=((-1.0, 1.0), box2))
    target = Chart(coord_names=("y",), leaf_count=0)
    return QuotientMap(chart, target, (parse(f"{a!r}*x2 + {b!r}*x2^3", chart),))


def linear_quotient(A, box2, box3):
    chart = Chart(coord_names=("x1", "x2", "x3"), leaf_count=1, box=((-1.0, 1.0), box2, box3))
    target = Chart(coord_names=("y1", "y2"), leaf_count=0)
    rows = tuple(parse(f"{row[0]!r}*x2 + {row[1]!r}*x3", chart) for row in A)
    return QuotientMap(chart, target, rows)


def wide_quotient(a, b, box2, box3):
    """One target coordinate from two transverse ones: a Jacobian wider than
    the target, so the minimum-norm step splits between x2 and x3."""
    chart = Chart(coord_names=("x1", "x2", "x3"), leaf_count=1, box=((-1.0, 1.0), box2, box3))
    target = Chart(coord_names=("y",), leaf_count=0)
    return QuotientMap(chart, target, (parse(f"{a!r}*x2 + {b!r}*x3", chart),))


def intersections(D, action, samples) -> list:
    """The basis columns and dimension of the intersection of D with the
    vertical orthogonal at each sample, as constant_rank_scan computes them
    in one stacked batch."""
    dims, basis = _intersections(*_dirac_and_action_values(D, action, np.array(samples, dtype=float)))
    return [(list(B[:, :dim].T), int(dim)) for B, dim in zip(basis, dims)]


def box_point(chart, fractions):
    return np.array([lo + t * (hi - lo) for (lo, hi), t in zip(chart.box, fractions)])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def step_2_rounds(monkeypatch):
    """The number of points of each _Solver._H call (one per Step-2 round)
    made while the test runs."""
    calls = []

    def spy(solver, points, _original=_Solver._H):
        calls.append(len(points))
        return _original(solver, points)

    monkeypatch.setattr(_Solver, "_H", spy)
    return calls
