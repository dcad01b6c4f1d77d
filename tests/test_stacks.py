"""The stacked checks against their one-point references (tests/pointwise.py):
every record, rank and raised error must be the same, bit for bit."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import pointwise
from diracgen.calculus import OneForm, PontryaginSection, VectorField
from diracgen.dirac import (
    DiracStructure,
    InfinitesimalAction,
    PoissonBivector,
    QuotientMap,
    constant_rank_scan,
    descending_generators,
    graph_of_poisson,
    invariant_annihilator_generators,
    is_closed,
    least_squares,
    push_frame,
    pushforward_check,
)
from diracgen.distribution import GeneralizedDistribution, check_bracket_hypothesis
from diracgen.errors import DiracgenError, InputError
from diracgen.invariant_gen import FoliatedProblem, run
from diracgen.symexpr import Chart, CompiledExprs, parse

from conftest import (
    box_point,
    cubic_quotient,
    intersections,
    linear_quotient,
    make_chart,
    random_expr,
    random_points,
    random_section,
    random_vector_field,
    wide_quotient,
)


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
        self.action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),), (((0.0,),),))
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
def reduction_inputs(draw):
    """The arguments of a Reduction."""
    n = draw(st.integers(2, 4))
    negative = draw(st.booleans())
    cubic = draw(st.booleans())
    tilt = draw(st.sampled_from([0.0, 0.0, 0.25]))
    c = draw(st.lists(st.floats(-0.45, 0.45), min_size=10, max_size=10))
    count = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    samples = [np.zeros(n)] + [rng.uniform(-0.8, 0.8, size=n) for _ in range(count)]
    return n, negative, cubic, tilt, c, samples


reductions = reduction_inputs().map(lambda args: Reduction(*args))


class TestStackedEqualsPointwise:
    @settings(max_examples=60, deadline=None)
    @given(reductions, st.integers(0, 3))
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
        assert same(lambda: intersections(D, action, samples),
                    lambda: [pointwise.intersect_D_Kperp(D, action, m) for m in samples])
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
        family = GeneralizedDistribution(red.chart, red.family)
        assert same(lambda: check_bracket_hypothesis(family, D.generators[0], samples, 1e-9),
                    lambda: pointwise.check_bracket_hypothesis(family, D.generators[0], samples, 1e-9))


def _reduce(red, problem, samples, seed=0) -> list:
    """Every check of a reduction on the objects of red (and problem), at the
    samples, as outcome bytes."""
    D, action, q = red.D, red.action, red.q
    checks = [lambda: D.validate(samples), lambda: action.validate(samples), lambda: q.validate(action, samples),
              lambda: is_closed(D, samples), lambda: constant_rank_scan(D, action, samples)]
    if problem is not None:
        def reduced():
            result = descending_generators(D, action, problem, samples=samples)
            return [result.report, pushforward_check(D, action, q, result, samples=samples, seed=seed)]

        checks.append(reduced)
    return [outcome(check) for check in checks]


class TestOneProgramPerInput:
    """Each input compiles one program and keeps its last evaluation, keyed
    on a copy of the samples: the checks on one set of objects at sample sets
    A, A, B, A, with A's array changed in place before each of its later
    runs, give the records of fresh objects at each."""

    @settings(max_examples=40, deadline=None)
    @given(reduction_inputs(), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.floats(-0.8, 0.8)),
                                        min_size=1, max_size=4))
    def test_records_follow_the_samples(self, args, edits):
        n, negative, cubic, tilt, c, samples = args
        red = Reduction(*args)
        problem = None if negative else FoliatedProblem(chart=red.chart, generators=red.family)
        A = np.array(samples)
        B = A[::-1] * 0.5
        for step, at in enumerate((A, A, B, A)):
            if step and at is A:  # A's array changes in place after the checks read it
                i, j, value = edits[step % len(edits)]
                A[i % len(A), j % n] = value
            fresh = Reduction(n, negative, cubic, tilt, c, list(at))
            fresh_problem = None if negative else FoliatedProblem(chart=fresh.chart, generators=fresh.family)
            assert _reduce(red, problem, at) == _reduce(fresh, fresh_problem, at)

    def test_a_reduction_builds_one_program_per_input(self, monkeypatch):
        built = []
        init = CompiledExprs.__init__

        def counted(self, exprs):
            built.append(self)
            init(self, exprs)

        monkeypatch.setattr(CompiledExprs, "__init__", counted)
        chart = make_chart(3, k=1, box=((-1.0, 1.0),) * 3)
        samples = chart.sample_points(n_random=2, margin=0.1)
        red = Reduction(3, False, True, 0.25, [0.1] * 10, samples)
        problem = FoliatedProblem(chart=red.chart, generators=red.family)
        records = _reduce(red, problem, samples)
        # the quotient map, the bivector's antisymmetry check, D, the action
        # and the family; the Step-1 program is never built, as the family is
        # constant along the leaves and Step 2 is the identity
        programs = {id(red.q._program), id(red.D._program), id(red.action._program),
                    id(problem._solver._generator_exprs)}
        assert len(built) == 5 and programs < {id(p) for p in built}
        before = len(built)
        assert _reduce(red, problem, samples) == records  # the same objects build nothing more
        assert len(built) == before

    def test_checks_at_one_sample_set_evaluate_d_once(self):
        """D's program holds its pairings and partials from the start, so
        validity, closedness and the rank scan share one evaluation of it."""
        chart = make_chart(3, k=1, box=((-1.0, 1.0),) * 3)
        samples = chart.sample_points(n_random=2, margin=0.1)
        red = Reduction(3, False, True, 0.25, [0.1] * 10, samples)
        red.D.validate(samples)
        kept = red.D._program._last
        is_closed(red.D, samples)
        constant_rank_scan(red.D, red.action, samples)
        assert kept is not None and red.D._program._last is kept

    def test_checks_at_one_sample_set_evaluate_the_action_once(self):
        """The action's program holds its partials from the start, and the
        foliated-chart check reads its first eight samples from the
        evaluation at all of them, so validity, the rank scan and the
        descending checks share one evaluation of it."""
        chart = make_chart(3, k=1, box=((-1.0, 1.0),) * 3)
        samples = chart.sample_points(n_random=2, margin=0.1)
        assert len(samples) > 8
        red = Reduction(3, False, True, 0.25, [0.1] * 10, samples)
        red.action.validate(samples)
        kept = red.action._program._last
        red.q.validate(red.action, samples)
        constant_rank_scan(red.D, red.action, samples)
        problem = FoliatedProblem(chart=red.chart, generators=red.family)
        assert descending_generators(red.D, red.action, problem, samples=samples).report.passed
        assert kept is not None and red.action._program._last is kept


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.data())
def test_bracket_hypothesis_reads_every_leaf_field(seed, n, data):
    """The hypothesis on charts with k = 1..n-1 leaf coordinates, with an
    extra section: the brackets with each leaf field (d_l, 0), l < k."""
    k = data.draw(st.integers(1, n - 1), label="k")
    rng = np.random.default_rng(seed)
    chart = make_chart(n, k=k)
    family = GeneralizedDistribution(chart, tuple(random_section(rng, chart, annihilate=k)
                                                  for _ in range(data.draw(st.integers(1, 3), label="r"))))
    extra = random_section(rng, chart, annihilate=k)
    samples = random_points(rng, chart, 4)
    assert outcome(lambda: check_bracket_hypothesis(family, extra, samples, 1e-9)) == outcome(
        lambda: pointwise.check_bracket_hypothesis(family, extra, samples, 1e-9))


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
        assert same(lambda: intersections(D, action, samples),
                    lambda: [pointwise.intersect_D_Kperp(D, action, m) for m in samples])
        columns = [random_section(rng, chart) for _ in range(r + 1)]

        def frames(points):  # C-contiguous, as a batch of frames is: a product's rounding follows the layout
            return [np.ascontiguousarray(pointwise.matrix_at(columns, m).T) for m in points]

        assert same(lambda: pushforward_check(D, action, q, frames, samples=samples, seed=seed, check_closedness=False),
                    lambda: pointwise.pushforward_check(D, action, q, frames, samples, seed=seed,
                                                        check_closedness=False))
        family = GeneralizedDistribution(chart, tuple(columns))
        assert same(lambda: check_bracket_hypothesis(family, columns[0], samples, 1e-9),
                    lambda: pointwise.check_bracket_hypothesis(family, columns[0], samples, 1e-9))
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


_unit = st.floats(0.0, 1.0)
_coeff = st.floats(0.1, 10.0)
_signed = st.tuples(_coeff, st.booleans()).map(lambda t: t[0] if t[1] else -t[0])
_interval = st.tuples(st.floats(-3.0, 2.0), st.floats(0.1, 3.0)).map(lambda t: (t[0], t[0] + t[1]))


@st.composite
def lift_stacks(draw):
    """(q, x0, targets): a cubic, linear or wide-Jacobian quotient, a start
    inside the box, and a stack holding q(x0) (residual 0 at once), images
    of box points (one on a face of the box, one twice) and a target beyond
    the image of the box, in a drawn order."""
    kind = draw(st.sampled_from(["cubic", "linear", "wide"]))
    if kind == "cubic":
        q = cubic_quotient(draw(_coeff), draw(_coeff), draw(_interval))
        top = q(np.array([0.0, q.source.box[1][1]]))[0]
        beyond = np.array([top + draw(st.floats(1e-6, 10.0))])
    elif kind == "linear":
        A = draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4).map(lambda v: (v[:2], v[2:])))
        assume(abs(A[0][0] * A[1][1] - A[0][1] * A[1][0]) >= 0.25)
        q = linear_quotient(A, draw(_interval), draw(_interval))
        z = box_point(q.source, (0.5, 0.5, draw(_unit)))
        z[1] = q.source.box[1][1] + draw(st.floats(0.01, 2.0))  # beyond a face: sigma_min * gap away
        beyond = q(z)
    else:
        a, b, box2, box3 = draw(_signed), draw(_signed), draw(_interval), draw(_interval)
        q = wide_quotient(a, b, box2, box3)
        beyond = np.array([max(a * x2 + b * x3 for x2 in box2 for x3 in box3) + draw(st.floats(1e-6, 10.0))])
    n = q.source.n
    x0 = box_point(q.source, draw(st.tuples(*[_unit] * n)))
    inside = [box_point(q.source, draw(st.tuples(*[_unit] * n))) for _ in range(draw(st.integers(1, 3)))]
    face = box_point(q.source, draw(st.tuples(*[_unit] * n)))
    face[draw(st.integers(1, n - 1))] = q.source.box[1][draw(st.integers(0, 1))]
    targets = [q(x0)] + [q(m) for m in inside] + [q(face), beyond, q(inside[0])]
    order = draw(st.permutations(range(len(targets))))
    return q, x0, np.array([targets[i] for i in order])


# a cubic whose Newton steps from 0 overshoot the box and halve; the case of
# TestLift.test_clipped_first_step_still_reaches_the_target, which stops at a
# face of the box and re-solves over the other coordinate; and x2^2 below its
# minimum, whose steps grow as x2 nears 0 until 30 halvings do not lower it
_HALVING = (cubic_quotient(0.1, 10.0, (-1.0, 1.0)), np.array([0.0, 0.0]), np.array([[1.0], [0.3], [12.0], [1.0]]))
_CLIPPING = (wide_quotient(1.0, 0.01, (0.0, 1.0), (0.0, 100.0)), np.array([0.0, 0.5, 50.0]),
             np.array([[0.9 + 0.9], [0.5 + 0.5], [2.5], [0.9 + 0.9]]))
_square = Chart(coord_names=("x1", "x2"), leaf_count=1)
_EXHAUSTING = (QuotientMap(_square, Chart(coord_names=("y",)), (parse("x2^2", _square),)), np.array([0.0, 0.5]),
               np.array([[-1.0], [0.09], [0.25], [2.0], [-1.0]]))


class _Seen:
    """A quotient map that records where the one-target reference evaluates
    it: q as "q", its Jacobian as "J"."""

    def __init__(self, q):
        self.q, self.source, self.events, self.points = q, q.source, "", []

    def __call__(self, x):
        self.events += "q"
        self.points.append(np.array(x))
        return self.q(x)

    def jacobian(self, x):
        self.events += "J"
        return self.q.jacobian(x)


class TestStackedLift:
    """One Gauss–Newton over a stack of targets lifts each target bit for bit
    as the one-target reference (tests/pointwise.py) does."""

    @settings(max_examples=120, deadline=None)
    @given(lift_stacks())
    @example(_HALVING)
    @example(_CLIPPING)
    @example(_EXHAUSTING)
    def test_each_target_lifts_as_alone(self, stack):
        q, x0, targets = stack
        x, residuals, jacobians = least_squares(q, targets, x0)
        assert x.shape == (len(targets), q.source.n) and residuals.shape == (len(targets),)
        for y, got_x, got, J in zip(targets, x, residuals, jacobians):
            want_x, want = pointwise.least_squares(q, y, x0)
            assert got_x.tobytes() == want_x.tobytes() and got.tobytes() == want.tobytes()
            assert J.tobytes() == q.jacobian(got_x).tobytes()  # the Jacobian where the lift ends
            one_x, one = least_squares(q, y, x0)
            assert one_x.tobytes() == want_x.tobytes() and one.tobytes() == want.tobytes()

    @staticmethod
    def _seen(q, x0, targets):
        """Where the reference evaluates q for each target, and the residuals it returns."""
        seen = [_Seen(q) for _ in targets]
        return seen, [pointwise.least_squares(s, y, x0)[1] for s, y in zip(seen, targets)]

    def test_the_pinned_stacks_halve_clip_and_exhaust(self):
        # each holds reachable and unreachable targets, and targets that stop
        # at different steps; _HALVING halves a step, _CLIPPING evaluates q on
        # a face of the box that the start is not on, and one target of
        # _EXHAUSTING stops after 30 halvings while another steps on
        for (q, x0, targets), shows in ((_HALVING, "Jqq"), (_CLIPPING, None), (_EXHAUSTING, "J" + "q" * 30)):
            seen, residuals = self._seen(q, x0, targets)
            assert min(residuals) <= 1e-8 < max(residuals)
            assert len({s.events.count("J") for s in seen}) > 1
            if shows:
                assert any(shows in s.events for s in seen)
            else:
                lo, hi = np.array(q.source.box).T
                assert any(((m == lo) | (m == hi)).any() for s in seen for m in s.points)
        exhausted = [s.events.endswith("J" + "q" * 30) for s in self._seen(*_EXHAUSTING)[0]]
        assert any(exhausted) and not all(exhausted)


def _two_failures():
    """Check -> (stacked call, pointwise call, test of the raised error's
    point); where the stacked check reads an input first that the one-point
    check reads later at a sample, the pointwise call evaluates that input
    alone, sample by sample.  Four samples; the two with x2 = 0 make 1/x2 fail.  The lift
    entries use a quotient that evaluates at their samples but overflows
    past x2 = 7.1e-6, its Jacobian from x2 = 6.92e-6: the closure targets
    of a sample at 0 are lifted from the first sample through there, while
    the 2-delta stencil point of a sample at -0.08 + 6.95e-6 is reached
    with q finite and the Jacobian failing; a sample at -0.95 has a stencil
    point below q(-1) that cannot be lifted."""
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
    pi = PoissonBivector(chart, ((parse("0", chart), parse("1/x2", chart)), (parse("-1/x2", chart), parse("0", chart))))
    problem = FoliatedProblem(chart=chart, generators=bad_family)
    lift_q = QuotientMap(chart, Chart(coord_names=("y",), box=((-2.0, 2.0),)),
                         (parse("x2 + 1e-308*exp(100000000*x2)", chart),))

    def lifting(transverse):
        points = [np.array([0.1 * (i + 1), x2]) for i, x2 in enumerate(transverse)]
        return (lambda: pushforward_check(D, action, lift_q, frame, samples=points),
                lambda: pointwise.pushforward_check(D, action, lift_q, frame, points))

    def at_sample(point):
        return point == [0.2, 0.0]

    def past_the_cliff(point):  # an iterate of a lift from the first sample
        return point[0] == 0.1 and point[1] > 6.9e-6

    def unreachable(point):
        return point is None

    table = {
        "validate": (lambda: bad_D.validate(samples), lambda: pointwise.dirac_validate(bad_D, samples)),
        "quotient": (lambda: bad_q.validate(action, samples), lambda: pointwise.quotient_validate(bad_q, action, samples)),
        "poisson": (lambda: graph_of_poisson(pi, samples), lambda: pointwise.antisymmetry_residual(pi, samples)),
        "rank-scan": (lambda: constant_rank_scan(bad_D, action, samples),
                      lambda: pointwise.constant_rank_scan(bad_D, action, samples)),
        "descending": (lambda: descending_generators(D, action, problem, samples=samples),
                       lambda: pointwise.supplied_family(D, action, problem, samples, 1e-7)),
        "hypothesis": (lambda: check_bracket_hypothesis(GeneralizedDistribution(chart, bad_family), None, samples, 1e-9),
                       lambda: pointwise.check_bracket_hypothesis(GeneralizedDistribution(chart, bad_family), None,
                                                                  samples, 1e-9)),
        # q, read first, fails at the samples where its Jacobian does
        "pushforward": (lambda: pushforward_check(D, action, bad_q, frame, samples=samples),
                        lambda: [bad_q(m) for m in samples]),
    }
    # each input is one program, and a check reads its inputs in a fixed
    # order, each at every sample: the first failing input raises at its
    # first failing sample (descending_generators: the action, in the
    # foliation check, then the family, then D); every input fails with its
    # own expression
    fam_D = DiracStructure(chart, (D.generators[0], section(chart, ("0", "1"), ("-1", "3/x2"))))
    fam_action = InfinitesimalAction(chart, (VectorField(chart, (parse("x2/x2", chart), parse("0", chart))),))
    members = [section(chart, ("1", "0"), ("0", "1")), section(chart, ("0", "4/x2"), ("0", "1"))]
    fam_q = QuotientMap(chart, Chart(coord_names=("y",)), (parse("x2 + 5/x2", chart),))

    def descending(D, action, family):
        p = FoliatedProblem(chart=chart, generators=tuple(family))
        return (lambda: descending_generators(D, action, p, samples=samples),
                lambda: pointwise.supplied_family(D, action, p, samples, 1e-7))

    # the family is read at every sample before D, so its second member fails first
    family_first = lambda: [pointwise.matrix_at(members, m) for m in samples]  # noqa: E731
    table.update({
        "descending-action-before-family": descending(fam_D, fam_action, members),
        "descending-action-before-D": descending(fam_D, fam_action, family),
        "descending-family-before-D": (descending(fam_D, action, members)[0], family_first),
        "rank-scan-D-before-action": (lambda: constant_rank_scan(fam_D, fam_action, samples),
                                      lambda: pointwise.constant_rank_scan(fam_D, fam_action, samples)),
        "quotient-jacobian-before-action": (lambda: fam_q.validate(fam_action, samples),
                                            lambda: pointwise.quotient_validate(fam_q, fam_action, samples)),
    })
    table = {check: (*calls, at_sample) for check, calls in table.items()}
    table.update({
        "lift-crosses-overflow": (*lifting([-0.3, 0.0, -0.5, -0.2]), past_the_cliff),
        "lift-jacobian-overflows": (*lifting([-0.3, -0.08 + 6.95e-6, -0.5, -0.2]), past_the_cliff),
        "lift-after-unreachable": (*lifting([-0.3, -0.95, 0.0, -0.2]), unreachable),
        "lift-before-unreachable": (*lifting([-0.3, 0.0, -0.95, -0.2]), past_the_cliff),
    })
    return table


@pytest.mark.parametrize("check", sorted(_two_failures()))
def test_first_failing_sample_raises(check):
    got, want, where = _two_failures()[check]
    result = outcome(got)
    assert result == outcome(want)
    assert result[0] == "raised" and where(result[3])


class TestOverflowingDefectsFailTheirRecords:
    """A defect whose vectors are near or above the largest float fails its
    record, in the stacked check and in the one-point reference alike: with
    the same finite value where both measure the vectors at a smaller scale,
    and NaN where a pairing meets inf - inf."""

    chart = make_chart(3, k=1)
    action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
    D = DiracStructure(chart, (section(chart, ("0", "1", "0"), ("1", "0", "0")),
                               section(chart, ("-1", "0", "0"), ("0", "1", "0")),
                               section(chart, ("0", "0", "0"), ("0", "0", "1"))))
    samples = [np.array([0.1, 0.2, 0.3]), np.array([0.3, -0.2, 0.1])]

    def _judged(self, got, want, check, worst):
        with np.errstate(over="ignore", invalid="ignore"):  # the reference does not silence its overflows
            records = [next(r for r in fn() if r.check == check) for fn in (got, want)]
        for record in records:
            assert not record.passed
            assert record.worst_residual == pytest.approx(worst, rel=1e-14, nan_ok=True)

    @pytest.mark.parametrize("form, worst", [
        ((0.0, 1e200, 1e200), 0.5**0.5),  # |v|^2 overflows: residual (0, 0, 1e200)
        ((1.5e308, 1.5e308, 0.0), 0.5**0.5),  # |v| is above the largest float, the residual is not
        ((1.5e308, 0.0, 1.5e308), 1.0),  # both are
    ])
    def test_pullback_residual(self, form, worst):
        # J = [0, 1, 0]: the pull-back residual is the form less its x2 part
        q = QuotientMap(self.chart, Chart(coord_names=("y",)), (parse("x2", self.chart),))
        F = np.zeros((6, 1))
        F[3:, 0] = form
        assert push_frame(q, lambda m: F, self.samples[0], 1e-7)[2] == pytest.approx(worst, rel=1e-14)
        frames = lambda points: [F] * len(points)  # noqa: E731
        self._judged(lambda: pushforward_check(self.D, self.action, q, frames, samples=self.samples,
                                               check_closedness=False),
                     lambda: pointwise.pushforward_check(self.D, self.action, q, frames, self.samples,
                                                         check_closedness=False),
                     "pushed-forms-are-pullbacks", worst)

    def test_isotropy(self):
        # pushed forms (1e200, 0), (0, -1e200) and vectors (0, 1e200), (1e200, 0):
        # the pairings are 0 on the diagonal and inf - inf off it
        q = QuotientMap(self.chart, Chart(coord_names=("y", "z")), (parse("x2", self.chart), parse("x3", self.chart)))
        F = np.zeros((6, 2))
        F[2, 0], F[4, 0], F[1, 1], F[5, 1] = 1e200, 1e200, 1e200, -1e200
        frames = lambda points: [F] * len(points)  # noqa: E731
        got = lambda: pushforward_check(self.D, self.action, q, frames, samples=self.samples)
        want = lambda: pointwise.pushforward_check(self.D, self.action, q, frames, self.samples)
        with np.errstate(over="ignore", invalid="ignore"):
            assert outcome(got) == outcome(want)
        self._judged(got, want, "reduced-isotropy", np.nan)

    @pytest.mark.parametrize("vector, form, worst", [
        (("0", "0", "0"), ("0", "1e200", "1e200"), 0.5),  # |v|^2 overflows
        (("0", "0", "0"), ("0", "1.5e308", "1.5e308"), 0.5),  # |v| is above the largest float
        (("0", "1.7e308", "1.7e308"), ("0", "1.7e308", "0"), (2 / 3) ** 0.5),  # and so is the residual
    ])
    def test_supplied_family_member(self, vector, form, worst):
        # the member's residual in D's span over 1 + its norm
        member = FoliatedProblem(chart=self.chart, generators=(section(self.chart, vector, form),))

        def supplied():
            report = descending_generators(self.D, self.action, member, samples=self.samples).report
            return [r for r in report if r.check.startswith("supplied-family")]

        self._judged(supplied, lambda: pointwise.supplied_family(self.D, self.action, member, self.samples, 1e-7),
                     "supplied-family-in-intersection", worst)

    def test_frame_span_warns_nothing(self):
        # run() on the member (0; 0, 1e200, 1e200), with no silencer: tier-1
        # turns a RuntimeWarning into a failure; its norms, whose squares
        # overflow, are finite, so the frame spans it up to rounding
        member = FoliatedProblem(chart=self.chart, generators=(
            section(self.chart, ("0", "0", "0"), ("0", "1e200", "1e200")),))
        record = next(r for r in run(member, samples=self.samples).report if r.check == "frame-spans-distribution")
        assert record.passed and record.worst_residual < 1e-15


def _sampled_checks(samples):
    """Every public check that takes samples, on a 2-D chart with k = 1 and a
    constant Poisson bivector, at samples."""
    chart = make_chart(2, k=1)
    D = DiracStructure(chart, (section(chart, ("1", "0"), ("0", "1")), section(chart, ("0", "1"), ("-1", "0"))))
    pi = PoissonBivector(chart, ((parse("0", chart), parse("1", chart)), (parse("-1", chart), parse("0", chart))))
    action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),), (((0.0,),),))
    q = QuotientMap(chart, Chart(coord_names=("y",)), (parse("x2", chart),))
    problem = FoliatedProblem(chart=chart, generators=(section(chart, ("1", "0"), ("0", "1")),))
    forms = FoliatedProblem(chart=chart, generators=(section(chart, ("0", "0"), ("0", "1")),))
    result = run(problem)
    return {
        "DiracStructure.validate": lambda: D.validate(samples),
        "InfinitesimalAction.validate": lambda: action.validate(samples),
        "QuotientMap.validate": lambda: q.validate(action, samples),
        "graph_of_poisson": lambda: graph_of_poisson(pi, samples),
        "is_closed": lambda: is_closed(D, samples),
        "constant_rank_scan": lambda: constant_rank_scan(D, action, samples),
        "descending_generators": lambda: descending_generators(D, action, problem, samples=samples),
        "invariant_annihilator_generators": lambda: invariant_annihilator_generators(action, forms, samples=samples),
        "pushforward_check": lambda: pushforward_check(D, action, q, result, samples=samples),
        "check_bracket_hypothesis": lambda: check_bracket_hypothesis(
            GeneralizedDistribution(D.chart, D.generators), None, samples, 1e-9),
        "run": lambda: run(problem, samples=samples),
    }


@pytest.mark.parametrize("entry", sorted(_sampled_checks([])))
def test_no_samples_is_input_error(entry):
    with pytest.raises(InputError, match="no sample points"):
        _sampled_checks([])[entry]()


@settings(max_examples=40, deadline=None)
@given(
    entry=st.sampled_from(sorted(_sampled_checks([]))),
    samples=st.lists(st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=2), min_size=1, max_size=4),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    where=st.tuples(st.integers(0, 3), st.integers(0, 1)),
)
def test_non_finite_samples_are_input_errors(entry, samples, bad, where):
    # a check at a NaN or infinite coordinate certifies no point
    samples = np.array(samples)
    i, j = where[0] % len(samples), where[1]
    samples[i, j] = bad
    with pytest.raises(InputError, match=r"sample point \[.*\] is not finite"):
        _sampled_checks(samples)[entry]()


@pytest.mark.parametrize("samples", [[[0.1, 0.2, 0.3]], [[0.1]], [0.1, 0.2]])
def test_samples_of_the_wrong_shape_are_input_errors(samples):
    chart = make_chart(2, k=1)
    D = DiracStructure(chart, (section(chart, ("1", "0"), ("0", "1")), section(chart, ("0", "1"), ("-1", "0"))))
    with pytest.raises(InputError):
        D.validate(samples)

