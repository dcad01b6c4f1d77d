"""The stacked checks against their one-point references (tests/pointwise.py):
every record, rank and raised error must be the same, bit for bit."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pointwise
from diracgen.calculus import OneForm, PontryaginSection, VectorField
from diracgen.dirac import (
    DiracStructure,
    InfinitesimalAction,
    PoissonBivector,
    QuotientMap,
    characteristic_distributions,
    constant_rank_scan,
    descending_generators,
    graph_of_poisson,
    intersect_D_Kperp,
    invariant_annihilator_generators,
    is_closed,
    pushforward_check,
)
from diracgen.distribution import GeneralizedDistribution, check_bracket_hypothesis
from diracgen.errors import DiracgenError, InputError
from diracgen.invariant_gen import FoliatedProblem, run
from diracgen.symexpr import Chart, parse

from conftest import make_chart, random_expr, random_points, random_section, random_vector_field


def section(chart, vec, form):
    return PontryaginSection(
        VectorField(chart, tuple(parse(c, chart) for c in vec)),
        OneForm(chart, tuple(parse(c, chart) for c in form)),
    )


def outcome(fn):
    """What fn() returns, as bytes (records, ranks and arrays by repr), or the
    error it raises: type, message and point."""
    try:
        value = fn()
    except DiracgenError as exc:
        return ("raised", type(exc).__name__, str(exc), exc.point)
    return ("returned", json.dumps(_plain(value), sort_keys=True))


def _plain(value):
    if hasattr(value, "as_dict"):
        return value.as_dict()
    if hasattr(value, "records"):
        return [r.as_dict() for r in value]
    if isinstance(value, np.ndarray):
        return [repr(v) for v in value.ravel()] + [list(value.shape)]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    return value


class Reduction:
    """A reduction by the x1 translation on the box (-1, 1)^n.

    Positives are graphs of Poisson bivectors independent of x1 (f(x2)
    dx1^dx2, a constant skew matrix times f(x2) for n = 3, and + g(x3, x4)
    dx3^dx4 for n = 4) with the graph sections of dx2..dxn as the family;
    negatives are graphs of the closed 2-form x1 f(x2) dx1^dx2 (+ g dx3^dx4),
    whose intersection rank jumps on x1 = 0.  The quotient is the projection
    onto x2..xn, or y = x + a x^3 in each of them, plus tilt * x1 in the
    first (so that with a tilt the fiber partners leave the fiber)."""

    def __init__(self, n, negative, cubic, tilt, c, samples):
        names = tuple(f"x{i + 1}" for i in range(n))
        chart = self.chart = Chart(coord_names=names, leaf_count=1, box=((-1.0, 1.0),) * n)
        f = f"({1.0 + abs(c[0])!r} + {c[1]!r}*sin({c[2]!r}*x2))"
        entries = {}
        if n == 3 and not negative:
            for (i, j), cij in zip(((0, 1), (0, 2), (1, 2)), c[3:6]):
                entries[(i, j)] = f"{cij!r}*{f}"
        else:
            entries[(0, 1)] = f"x1*{f}" if negative else f
            if n == 4:
                entries[(2, 3)] = f"({1.0 + abs(c[6])!r} + {c[7]!r}*x3*x4 + {c[8]!r}*cos(x3))"
        matrix = [["0"] * n for _ in range(n)]
        for (i, j), e in entries.items():
            matrix[i][j], matrix[j][i] = e, f"-({e})"
        self.action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
        a = abs(c[9]) if cubic else 0.0
        target = Chart(coord_names=tuple(f"y{i + 2}" for i in range(n - 1)), leaf_count=0,
                       box=((-1.0 - a, 1.0 + a),) * (n - 1))
        self.q = QuotientMap(chart, target, tuple(parse(f"x{i + 2} + {a!r}*x{i + 2}^3 + {tilt if i == 0 else 0}*x1",
                                                        chart) for i in range(n - 1)))
        self.samples = samples
        self.negative = negative
        if negative:
            unit = lambda j: ["1" if i == j else "0" for i in range(n)]  # noqa: E731
            self.pi = None
            self.D = DiracStructure(chart, tuple(section(chart, unit(j), matrix[j]) for j in range(n)))
            self.family = ()
        else:
            self.pi = PoissonBivector(chart, tuple(tuple(parse(e, chart) for e in row) for row in matrix))
            self.D = graph_of_poisson(self.pi, samples)
            self.family = tuple(
                section(chart, [matrix[i][j] for i in range(n)], ["1" if i == j else "0" for i in range(n)])
                for j in range(1, n)
            )


@st.composite
def reductions(draw):
    n = draw(st.integers(2, 4))
    negative = draw(st.booleans())
    cubic = draw(st.booleans())
    tilt = draw(st.sampled_from([0.0, 0.0, 0.25]))
    c = draw(st.lists(st.floats(-0.45, 0.45), min_size=10, max_size=10))
    count = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    samples = [np.zeros(n)] + [rng.uniform(-0.8, 0.8, size=n) for _ in range(count)]
    return Reduction(n, negative, cubic, tilt, c, samples)


class TestStackedEqualsPointwise:
    @settings(max_examples=60, deadline=None)
    @given(reductions(), st.integers(0, 3))
    def test_every_record_is_bit_identical(self, red, seed):
        D, action, q, samples = red.D, red.action, red.q, red.samples
        same = lambda got, want: outcome(got) == outcome(want)  # noqa: E731
        if red.pi is not None:
            assert same(lambda: red.pi.antisymmetry_residual(samples),
                        lambda: pointwise.antisymmetry_residual(red.pi, samples))
        assert same(lambda: D.validate(samples), lambda: pointwise.dirac_validate(D, samples))
        assert same(lambda: q.validate(action, samples), lambda: pointwise.quotient_validate(q, action, samples))
        assert same(lambda: constant_rank_scan(D, action, samples),
                    lambda: pointwise.constant_rank_scan(D, action, samples))
        for m in samples[:2]:
            assert same(lambda: intersect_D_Kperp(D, action, m), lambda: pointwise.intersect_D_Kperp(D, action, m))
            assert same(lambda: characteristic_distributions(D, m),
                        lambda: pointwise.characteristic_distributions(D, m))
        if red.negative:
            record, _ = constant_rank_scan(D, action, samples)
            assert not record.passed
            return
        problem = FoliatedProblem(chart=red.chart, generators=red.family)
        result = descending_generators(D, action, problem, samples=samples)
        supplied = [r for r in result.report if r.check.startswith("supplied-family")]
        assert outcome(lambda: supplied) == outcome(lambda: pointwise.supplied_family(D, action, problem, samples,
                                                                                       problem.tol))
        assert same(lambda: pushforward_check(D, action, q, result, samples=samples, seed=seed),
                    lambda: pointwise.pushforward_check(D, action, q, result, samples, seed=seed))
        theta = GeneralizedDistribution(red.chart, (PontryaginSection.from_vector(VectorField.coordinate(red.chart, 0)),))
        family = GeneralizedDistribution(red.chart, red.family)
        assert same(lambda: check_bracket_hypothesis(family, theta, D.generators[0], samples, 1e-9),
                    lambda: pointwise.check_bracket_hypothesis(family, theta, D.generators[0], samples, 1e-9))


def _without_x1(rng, chart):
    """A random expression in x2..xn of chart."""
    sub = make_chart(chart.n - 1)
    text = re.sub(r"x(\d+)", lambda g: f"x{int(g.group(1)) + 1}", str(random_expr(rng, sub)))
    return parse(text, chart)


class TestRandomSections:
    """The same comparison on random expressions, whose values carry
    rounding in every product, so that a change in any summation order
    shows (for sums over 4 or more terms on the BLAS checked, hence n up
    to 6)."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 2), st.integers(0, 3))
    def test_every_record_is_bit_identical(self, seed, n, d, r):
        rng = np.random.default_rng(seed)
        chart = make_chart(n, k=1)
        samples = random_points(rng, chart, 4)
        same = lambda got, want: outcome(got) == outcome(want)  # noqa: E731
        D = DiracStructure(chart, tuple(random_section(rng, chart) for _ in range(n)))
        action = InfinitesimalAction(chart, tuple(random_vector_field(rng, chart) for _ in range(d)))
        q = QuotientMap(chart, make_chart(n - 1), tuple(random_expr(rng, chart) for _ in range(n - 1)))
        assert same(lambda: D.validate(samples), lambda: pointwise.dirac_validate(D, samples))
        assert same(lambda: q.validate(action, samples), lambda: pointwise.quotient_validate(q, action, samples))
        assert same(lambda: constant_rank_scan(D, action, samples),
                    lambda: pointwise.constant_rank_scan(D, action, samples))
        for m in samples[:2]:
            assert same(lambda: intersect_D_Kperp(D, action, m), lambda: pointwise.intersect_D_Kperp(D, action, m))
            assert same(lambda: characteristic_distributions(D, m),
                        lambda: pointwise.characteristic_distributions(D, m))
        columns = [random_section(rng, chart) for _ in range(r + 1)]

        def frame(m):  # C-contiguous, as a batch of frames is: a product's rounding follows the layout
            return np.ascontiguousarray(pointwise.matrix_at(columns, m).T)

        assert same(lambda: pushforward_check(D, action, q, frame, samples=samples, seed=seed, check_closedness=False),
                    lambda: pointwise.pushforward_check(D, action, q, frame, samples, seed=seed,
                                                        check_closedness=False))
        theta = GeneralizedDistribution(chart, (PontryaginSection.from_vector(VectorField.coordinate(chart, 0)),))
        family = GeneralizedDistribution(chart, tuple(columns))
        assert same(lambda: check_bracket_hypothesis(family, theta, columns[0], samples, 1e-9),
                    lambda: pointwise.check_bracket_hypothesis(family, theta, columns[0], samples, 1e-9))
        # an x1-independent family with no dx1 part, straightened unchanged
        members = tuple(
            PontryaginSection(VectorField(chart, tuple(_without_x1(rng, chart) for _ in range(n))),
                              OneForm(chart, (parse("0", chart),) + tuple(_without_x1(rng, chart) for _ in range(n - 1))))
            for _ in range(r + 1)
        )
        translation = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
        problem = FoliatedProblem(chart=chart, generators=members)
        supplied = lambda: [rec for rec in descending_generators(D, translation, problem, samples=samples).report  # noqa: E731
                            if rec.check.startswith("supplied-family")]
        assert same(supplied, lambda: pointwise.supplied_family(D, translation, problem, samples, problem.tol))


def _two_failures():
    """Four samples; the two with x2 = 0 make 1/x2 fail."""
    chart = Chart(coord_names=("x1", "x2"), leaf_count=1, box=((-1.0, 1.0), (-1.0, 1.0)))
    samples = [np.array([0.1, 0.3]), np.array([0.2, 0.0]), np.array([0.3, 0.5]), np.array([0.4, 0.0])]
    action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
    D = DiracStructure(chart, (section(chart, ("1", "0"), ("0", "1")), section(chart, ("0", "1"), ("-1", "0"))))
    bad_D = DiracStructure(chart, (section(chart, ("1", "0"), ("0", "1/x2")), D.generators[1]))
    q = QuotientMap(chart, Chart(coord_names=("y",)), (parse("x2", chart),))
    bad_q = QuotientMap(chart, Chart(coord_names=("y",)), (parse("x2 + 0.01/x2", chart),))
    family = (section(chart, ("1", "0"), ("0", "1")),)
    bad_family = (section(chart, ("1", "1/x2"), ("0", "1")),)
    frame = descending_generators(D, action, FoliatedProblem(chart=chart, generators=family), samples=samples)
    theta = GeneralizedDistribution(chart, (PontryaginSection.from_vector(VectorField.coordinate(chart, 0)),))
    pi = PoissonBivector(chart, ((parse("0", chart), parse("1/x2", chart)), (parse("-1/x2", chart), parse("0", chart))))
    problem = FoliatedProblem(chart=chart, generators=bad_family)
    return {
        "validate": (lambda: bad_D.validate(samples), lambda: pointwise.dirac_validate(bad_D, samples)),
        "quotient": (lambda: bad_q.validate(action, samples), lambda: pointwise.quotient_validate(bad_q, action, samples)),
        "poisson": (lambda: graph_of_poisson(pi, samples), lambda: pointwise.antisymmetry_residual(pi, samples)),
        "rank-scan": (lambda: constant_rank_scan(bad_D, action, samples),
                      lambda: pointwise.constant_rank_scan(bad_D, action, samples)),
        "descending": (lambda: descending_generators(D, action, problem, samples=samples),
                       lambda: pointwise.supplied_family(D, action, problem, samples, 1e-7)),
        "hypothesis": (lambda: check_bracket_hypothesis(GeneralizedDistribution(chart, bad_family), theta, None,
                                                        samples, 1e-9),
                       lambda: pointwise.check_bracket_hypothesis(GeneralizedDistribution(chart, bad_family), theta,
                                                                  None, samples, 1e-9)),
        "pushforward": (lambda: pushforward_check(D, action, bad_q, frame, samples=samples),
                        lambda: pointwise.pushforward_check(D, action, bad_q, frame, samples)),
    }


@pytest.mark.parametrize("check", sorted(_two_failures()))
def test_first_failing_sample_raises(check):
    got, want = _two_failures()[check]
    result = outcome(got)
    assert result == outcome(want)
    assert result[0] == "raised" and result[3] == [0.2, 0.0]


def _no_samples():
    chart = make_chart(2, k=1)
    D = DiracStructure(chart, (section(chart, ("1", "0"), ("0", "1")), section(chart, ("0", "1"), ("-1", "0"))))
    pi = PoissonBivector(chart, ((parse("0", chart), parse("1", chart)), (parse("-1", chart), parse("0", chart))))
    action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),), (((0.0,),),))
    q = QuotientMap(chart, Chart(coord_names=("y",)), (parse("x2", chart),))
    problem = FoliatedProblem(chart=chart, generators=(section(chart, ("1", "0"), ("0", "1")),))
    forms = FoliatedProblem(chart=chart, generators=(section(chart, ("0", "0"), ("0", "1")),))
    result = run(problem)
    theta = GeneralizedDistribution(chart, (PontryaginSection.from_vector(VectorField.coordinate(chart, 0)),))
    return {
        "DiracStructure.validate": lambda: D.validate([]),
        "InfinitesimalAction.validate": lambda: action.validate([]),
        "QuotientMap.validate": lambda: q.validate(action, []),
        "graph_of_poisson": lambda: graph_of_poisson(pi, []),
        "is_closed": lambda: is_closed(D, []),
        "constant_rank_scan": lambda: constant_rank_scan(D, action, []),
        "descending_generators": lambda: descending_generators(D, action, problem, samples=[]),
        "invariant_annihilator_generators": lambda: invariant_annihilator_generators(action, forms, samples=[]),
        "pushforward_check": lambda: pushforward_check(D, action, q, result, samples=[]),
        "check_bracket_hypothesis": lambda: check_bracket_hypothesis(D.as_distribution(), theta, None, [], 1e-9),
        "run": lambda: run(problem, samples=[]),
    }


@pytest.mark.parametrize("entry", sorted(_no_samples()))
def test_no_samples_is_input_error(entry):
    with pytest.raises(InputError, match="no sample points"):
        _no_samples()[entry]()


@pytest.mark.parametrize("samples", [[[0.1, 0.2, 0.3]], [[0.1]], [0.1, 0.2]])
def test_samples_of_the_wrong_shape_are_input_errors(samples):
    chart = make_chart(2, k=1)
    D = DiracStructure(chart, (section(chart, ("1", "0"), ("0", "1")), section(chart, ("0", "1"), ("-1", "0"))))
    with pytest.raises(InputError):
        D.validate(samples)

