"""Expression trees: parsing, evaluation, exact differentiation, charts."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracgen.calculus import OneForm, PontryaginSection, VectorField
from diracgen.distribution import _leaf_bracket
from diracgen.errors import (
    EvalDomainError,
    ExprSyntaxError,
    InputError,
    OutsideBoxError,
    UnknownIdentifierError,
)
from diracgen.symexpr import (
    MAX_DEPTH,
    Add,
    Chart,
    CompiledExprs,
    Const,
    Div,
    Func,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    cos,
    exp,
    parse,
    sin,
)

from conftest import make_chart, random_expr, random_points
from pointwise import courant_bracket, expr_value, skew_bracket


@pytest.fixture
def chart3():
    return make_chart(3)


class TestParseEval:
    def test_zero_literal(self, chart3):
        assert parse("0", chart3).eval(np.zeros(3)) == 0.0

    def test_polynomial_plus_sin(self, chart3):
        wide = Chart(
            coord_names=("x1", "x2", "x3"),
            leaf_count=0,
            box=((-3.0, 3.0),) * 3,
        )
        e = parse("x1*x1 + sin(x2)", wide)
        assert e.eval(np.array([2.0, 0.0, 1.0])) == pytest.approx(4.0)

    def test_division_by_zero(self):
        chart = make_chart(2)
        e = parse("1/x1", chart)
        with pytest.raises(EvalDomainError):
            e.eval(np.array([0.0, 0.0]))

    @pytest.mark.parametrize("text", ["exp(exp(exp(10*x2)))", "(1e6*x2+2e6)^100"])
    def test_overflow_is_a_domain_error(self, text):
        chart = make_chart(2)
        with pytest.raises(EvalDomainError):
            parse(text, chart).eval(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("text", ["exp(1e200)", "1e200^2", "2^99999", "sin(1e400)"])
    def test_constant_that_cannot_fold_is_a_domain_error_where_evaluated(self, text):
        # parsing keeps the node instead of raising OverflowError or ValueError
        chart = make_chart(2)
        expr = parse(f"x1*{text}", chart)
        for evaluate in (lambda: expr.eval(np.array([0.5, 0.0])), lambda: CompiledExprs([expr])(np.array([[0.5, 0.0]]))):
            with pytest.raises(EvalDomainError):
                evaluate()

    def test_exp_at_zero(self, chart3):
        assert parse("exp(x1)", chart3).eval(np.zeros(3)) == pytest.approx(1.0)

    def test_product(self):
        wide = Chart(coord_names=("x1", "x2"), leaf_count=0, box=((-5.0, 5.0),) * 2)
        assert parse("x1*x2", wide).eval(np.array([3.0, 4.0])) == pytest.approx(12.0)

    def test_pythagorean_identity(self, chart3):
        e = parse("sin(x1)^2 + cos(x1)^2", chart3)
        for x in (-0.7, 0.0, 0.93):
            assert e.eval(np.array([x, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-15)

    def test_syntax_error_reports_position(self, chart3):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x1 + * x2", chart3)
        assert exc.value.position is not None

    def test_unknown_identifier(self, chart3):
        with pytest.raises(UnknownIdentifierError):
            parse("x9 + 1", chart3)

    def test_power_is_integer_only(self, chart3):
        with pytest.raises(InputError):
            parse("x1^1.5", chart3)

    @pytest.mark.parametrize("digits", [310, 5000])  # int() itself refuses more than 4300 digits
    def test_exponent_above_309_digits_is_a_syntax_error(self, chart3, digits):
        with pytest.raises(ExprSyntaxError, match=f"integer exponent of {digits} digits, more than 309") as exc:
            parse("x1^-" + "9" * digits, chart3)
        assert exc.value.position == 4

    def test_exponent_of_309_digits_is_read(self, chart3):
        # leading zeros count as digits; one above the largest float is rejected by the power itself
        assert parse("x1^" + "0" * 308 + "3", chart3) == parse("x1^3", chart3)
        with pytest.raises(InputError, match="beyond the largest float"):
            parse("x1^" + "9" * 309, chart3)


def _nest(pattern: str, depth: int, leaf: str = "x1") -> str:
    for _ in range(depth):
        leaf = pattern.format(leaf)
    return leaf


class TestDepthCap:
    """parse rejects a tree or a parenthesis nesting deeper than MAX_DEPTH;
    a tree at the cap can be differentiated, bracketed, hashed, evaluated
    and compiled."""

    @pytest.mark.parametrize("text", [
        "(" * 3000 + "x1" + ")" * 3000,
        " + ".join(["x1"] * 3000),
        "x1^" + "(" * 3000 + "2" + ")" * 3000,
        " + ".join(["x1"] * (MAX_DEPTH + 1)),
        _nest("sin({})", MAX_DEPTH),
        _nest("2*({})", MAX_DEPTH),
        "(" * (MAX_DEPTH + 1) + "x1" + ")" * (MAX_DEPTH + 1),
    ])
    def test_too_deep_is_a_syntax_error(self, chart3, text):
        with pytest.raises(ExprSyntaxError, match="deeper than"):
            parse(text, chart3)

    @pytest.mark.parametrize("text", [
        " + ".join(["x1*x2"] * (MAX_DEPTH - 1)),
        _nest("x2/(2 + {})", (MAX_DEPTH - 1) // 2),
        _nest("exp(0.01*{})", (MAX_DEPTH - 1) // 2),
        _nest("cos({})", MAX_DEPTH - 1),
        _nest("({})^2", MAX_DEPTH - 1),
        "/".join(["x2"] + ["(2 + x1)"] * (MAX_DEPTH - 2)),
        "(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1),
    ])
    def test_deepest_accepted_tree_stays_in_the_recursion_limit(self, chart3, text):
        e = parse(text, chart3)
        s = PontryaginSection(VectorField(chart3, (e, e, e)), OneForm(chart3, (e, e, e)))
        exprs = [c for b in (courant_bracket(s, s), skew_bracket(s, s)) for c in (*b.vf.coeffs, *b.form.coeffs)]
        exprs += _leaf_bracket(s, 0)
        hash(tuple(exprs))
        m = np.array([0.1, 0.2, 0.3])
        values, _ = CompiledExprs(exprs).evaluate(m[None])
        for e, value in zip(exprs, values[:, 0]):
            assert e.eval(m) == value and str(e)


class TestDiff:
    def test_diff_exp(self, chart3):
        e = parse("exp(x1)", chart3)
        d = e.diff(0)
        for m in random_points(np.random.default_rng(0), chart3, 5):
            assert d.eval(m) == pytest.approx(e.eval(m))

    def test_diff_product(self, chart3):
        d = parse("x1*x2", chart3).diff(1)
        m = np.array([0.3, -0.4, 0.9])
        assert d.eval(m) == pytest.approx(0.3)

    def test_diff_constant(self, chart3):
        assert parse("7", chart3).diff(2) is not None
        assert parse("7", chart3).diff(2).eval(np.zeros(3)) == 0.0

    def test_linearity(self, chart3, rng):
        e1 = random_expr(rng, chart3)
        e2 = random_expr(rng, chart3)
        a, b = 2.5, -1.25
        combo = Const(a) * e1 + Const(b) * e2
        for m in random_points(rng, chart3, 10):
            assert combo.diff(1).eval(m) == pytest.approx(
                a * e1.diff(1).eval(m) + b * e2.diff(1).eval(m), rel=1e-12, abs=1e-12
            )

    def test_finite_difference_agreement(self, chart3, rng):
        h = 1e-4
        for _ in range(30):
            e = random_expr(rng, chart3)
            i = int(rng.integers(0, 3))
            for m in random_points(rng, chart3, 3):
                m = 0.9 * m  # keep the stencil inside the box
                mp, mm = m.copy(), m.copy()
                mp[i] += h
                mm[i] -= h
                fd = (e.eval(mp) - e.eval(mm)) / (2 * h)
                scale = 1.0 + abs(e.diff(i).eval(m))
                assert abs(e.diff(i).eval(m) - fd) <= 1e-5 * scale


class TestRoundTrip:
    def test_print_parse_round_trip_random(self, chart3, rng):
        for _ in range(100):
            e = random_expr(rng, chart3, depth=3)
            back = parse(str(e), chart3)
            for m in random_points(rng, chart3, 3):
                assert back.eval(m) == pytest.approx(e.eval(m), rel=1e-12, abs=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_print_parse_round_trip_property(self, seed):
        chart = make_chart(2)
        r = np.random.default_rng(seed)
        e = random_expr(r, chart, depth=3)
        back = parse(str(e), chart)
        for m in random_points(r, chart, 2):
            assert back.eval(m) == pytest.approx(e.eval(m), rel=1e-12, abs=1e-12)


# Literals and coordinates that reach every failure a program flags: zero
# denominators (signed zeros too), 0^-k, and exp or powers that overflow.
_LITERALS = (0.0, -0.0, 1.0, -2.5, 0.3, 40.0, 1e150, -1e300)
_COORDS = (0.0, -0.0, 0.7, -1.3, 2.0, 25.0, 710.0, -1e160)
_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
# coordinates beyond _COORDS: any float, and the infinities and NaN
_FLOATS = st.one_of(st.sampled_from(_COORDS), st.floats(-50.0, 50.0), st.floats(allow_subnormal=False))


def _trees(n_vars: int):
    """Unfolded expression trees over every node kind."""
    leaves = st.one_of(
        st.sampled_from(_LITERALS).map(Const),
        st.integers(0, n_vars - 1).map(lambda i: Var(i, f"x{i + 1}")),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda op, a, b: op(a, b), st.sampled_from([Add, Sub, Mul, Div]), children, children),
            children.map(Neg),
            st.builds(Pow, children, st.integers(-3, 4)),
            st.builds(Func, st.sampled_from(sorted(_MATH)), children),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _ulps(a: float, b: float) -> int:
    """Distance in units in the last place between two finite floats."""
    return 0 if a == b else abs(int(_bits(a)) - int(_bits(b)))


def _folded_at(e, point):
    """e rebuilt through the folding builders, each coordinate replaced by
    its value at point."""
    if isinstance(e, Var):
        return Const(float(point[e.index]))
    if isinstance(e, Const):
        return e
    if isinstance(e, Neg):
        return -_folded_at(e.arg, point)
    if isinstance(e, Pow):
        return _folded_at(e.base, point) ** e.exponent
    if isinstance(e, Func):
        return {"sin": sin, "cos": cos, "exp": exp}[e.name](_folded_at(e.arg, point))
    left, right = _folded_at(e.left, point), _folded_at(e.right, point)
    return {Add: left.__add__, Sub: left.__sub__, Mul: left.__mul__, Div: left.__truediv__}[type(e)](right)


class TestCompiledExprs:
    """Programs against expr_value, a walk of each tree that evaluates node by
    node with numpy's elementwise functions and the same failure rules."""

    @given(
        st.lists(_trees(3), min_size=1, max_size=4),
        st.lists(st.tuples(*[st.sampled_from(_COORDS)] * 3), min_size=1, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_and_fails_where_the_reference_fails(self, exprs, coords):
        points = np.array(coords, dtype=float)
        values, bad = CompiledExprs(exprs).evaluate(points)
        bad = np.zeros(values.shape, dtype=bool) if bad is None else bad
        for e, expr in enumerate(exprs):
            for i, m in enumerate(points):
                want = expr_value(expr, m)
                assert bad[e, i] == isinstance(want, str)
                if not bad[e, i]:
                    assert _bits(values[e, i]) == _bits(want)  # bit for bit, signed zeros included

    @given(
        st.lists(_trees(2), min_size=1, max_size=3),
        st.lists(st.tuples(*[st.sampled_from(_COORDS)] * 2), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_call_raises_the_references_first_error(self, exprs, coords):
        points = np.array(coords, dtype=float)
        first = next(
            (want for m in points for want in (expr_value(e, m) for e in exprs) if isinstance(want, str)),
            None,
        )
        compiled = CompiledExprs(exprs)
        if first is None:
            values = compiled(points)
            assert np.array_equal(values, [[expr_value(e, m) for m in points] for e in exprs])
        else:
            with pytest.raises(EvalDomainError) as exc:
                compiled(points)
            assert str(exc.value) == first

    def test_errors_name_the_first_failing_node_left_to_right(self):
        chart = make_chart(2)
        e = parse("exp(1000*x1)/x2 + 1/x2", chart)
        with pytest.raises(EvalDomainError, match=r"^overflow evaluating"):
            e.eval(np.array([1.0, 0.0]))
        with pytest.raises(EvalDomainError, match=r"^division by zero in 1.0/x2 at"):
            CompiledExprs([parse("1/x2 + exp(1000*x1)", chart), e])(np.array([[1.0, 0.0]]))

    def test_shared_subtrees_are_computed_once(self, chart3):
        e = parse("exp(x1)*sin(x2) + exp(x1)", chart3)
        compiled = CompiledExprs([e, e.diff(0)])
        assert len([c for c in compiled._code if c[1] is np.exp]) == 1
        m = np.array([[0.3, -0.2, 0.1]])
        assert np.array_equal(compiled(m)[:, 0], [e.eval(m[0]), e.diff(0).eval(m[0])])

    def test_kept_evaluation_is_keyed_on_the_points_bit_for_bit(self, chart3):
        e = parse("exp(x1)*sin(x2)", chart3)
        compiled = CompiledExprs([e])
        m = np.array([[0.3, -0.2, 0.1], [0.0, 0.2, -0.3]])
        first, _ = compiled.evaluate(m)
        assert compiled.evaluate(m.copy())[0] is first and not first.flags.writeable
        m[1, 0] = -0.0  # a point that differs only in the sign of a zero is another point
        assert compiled.evaluate(m)[0] is not first

    def test_a_dropped_program_leaves_no_cyclic_garbage(self, chart3):
        # a program with its kept evaluation is freed when dropped, not by the
        # cyclic collector
        e = parse("exp(x1)*sin(x2) + x3^2/(1 + x1)", chart3)
        exprs = [e, e.diff(0), e.diff(2)]
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            compiled = CompiledExprs(exprs)
            compiled.evaluate(np.array([[0.3, -0.2, 0.1], [0.0, 0.2, -0.3]]))
            del compiled
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_error_points_are_plain_floats(self):
        chart = make_chart(2)
        with pytest.raises(EvalDomainError) as exc:
            CompiledExprs([parse("1/x2", chart)])(np.array([[0.5, 0.0]]))
        assert "np.float64" not in str(exc.value)
        assert exc.value.point == [0.5, 0.0]


class TestEvaluatorProperties:
    @given(st.lists(_trees(3), min_size=1, max_size=4), st.lists(st.tuples(*[_FLOATS] * 3), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_a_batch_equals_each_point_alone(self, exprs, coords):
        # Steps 1 and 4 evaluate a point alone or inside a batch of nodes
        points = np.array(coords, dtype=float)
        compiled = CompiledExprs(exprs)
        values, bad = compiled.evaluate(points)
        bad = np.zeros(values.shape, dtype=bool) if bad is None else bad
        errors = {(e, i): str(compiled.first_error(points, [e], [i])) for e, i in zip(*np.nonzero(bad))}
        for i, m in enumerate(points):
            one, one_bad = compiled.evaluate(m[None])
            assert np.array_equal(bad[:, i], np.zeros(len(exprs), bool) if one_bad is None else one_bad[:, 0])
            for e, expr in enumerate(exprs):
                if bad[e, i]:
                    with pytest.raises(EvalDomainError) as exc:
                        expr.eval(m)
                    assert str(exc.value) == errors[e, i]
                else:
                    assert _bits(one[e, 0]) == _bits(values[e, i]) == _bits(expr.eval(m))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=16), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_functions_and_powers_within_2_ulp_of_math_and_alone_as_in_a_batch(self, xs, seed):
        # numpy's functions and powers in place of math.sin/cos/exp and float
        # power move a value by at most 2 ulp, and a point gets the same bits
        # alone as in a batch; random floats reach the last bits where they differ
        xs = [*xs, *np.random.default_rng(seed).uniform(-40.0, 40.0, 48)]
        x1 = Var(0, "x1")
        nodes = [Func(name, x1) for name in sorted(_MATH)] + [Pow(x1, k) for k in (-3, -2, -1, 2, 3, 4, 7, 40)]
        compiled = CompiledExprs(nodes)
        values = np.array(compiled.evaluate(np.array(xs)[:, None])[0])
        for i, x in enumerate(xs):
            assert np.array_equal(_bits(compiled.evaluate([[x]])[0][:, 0]), _bits(values[:, i]))
        for node, row in zip(nodes, values):
            for x, value in zip(xs, row):
                try:
                    want = _MATH[node.name](x) if isinstance(node, Func) else x**node.exponent
                except (ArithmeticError, ValueError):  # math's overflow or domain error
                    continue
                if math.isfinite(want):
                    assert _ulps(value, want) <= 2, (str(node), x, value, want)

    @given(_trees(2), st.tuples(_FLOATS, _FLOATS))
    @settings(max_examples=300, deadline=None)
    def test_a_folded_constant_equals_the_unfolded_expression(self, e, point):
        want = expr_value(e, point)
        folded = _folded_at(e, point)
        if not isinstance(want, str):
            # equal, though the 0 and 1 identities may drop the sign of a zero
            assert isinstance(folded, Const) and folded.value == want
        if isinstance(e, Func) and isinstance(e.arg, Var) or isinstance(e, Pow) and isinstance(e.base, Var):
            # one node: folded exactly where it flags no failure of its own
            own = isinstance(want, str) and not want.startswith("non-finite value for")
            assert isinstance(folded, Const) != own
            if not own:
                assert _bits(folded.value) == _bits(CompiledExprs([e]).evaluate(np.array([point]))[0][0, 0])


class TestChart:
    def test_dimensions(self):
        chart = make_chart(3, k=1)
        assert chart.n == 3
        assert chart.leaf_count == 1

    def test_leaf_box_must_contain_zero(self):
        with pytest.raises(InputError):
            Chart(coord_names=("a", "b"), leaf_count=1, box=((1.0, 2.0), (-1.0, 1.0)))

    def test_transverse_box_need_not_contain_zero(self):
        chart = Chart(coord_names=("a", "b"), leaf_count=1, box=((-1.0, 1.0), (1.0, 2.0)))
        assert chart.box[1] == (1.0, 2.0)

    @pytest.mark.parametrize("interval", [(0.5, 0.5), (1.0, -1.0), (float("nan"), 1.0)])
    def test_box_interval_must_be_open(self, interval):
        with pytest.raises(InputError):
            Chart(coord_names=("a", "b"), leaf_count=1, box=((-1.0, 1.0), interval))

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError):
            Chart(coord_names=("a", "a"), leaf_count=0)

    def test_no_coordinates_rejected(self):
        with pytest.raises(InputError, match="at least one coordinate"):
            Chart(coord_names=())

    def test_outside_box_rejected(self):
        chart = make_chart(2)
        with pytest.raises(OutsideBoxError):
            chart.require_inside(np.array([2.0, 0.0]))

    def test_require_inside_raises_at_the_first_outside_point_of_a_stack(self):
        chart = make_chart(2)
        points = np.array([[0.5, 0.0], [0.0, 1.5], [2.0, 0.0]])
        with pytest.raises(OutsideBoxError) as stacked:
            chart.require_inside(points)
        with pytest.raises(OutsideBoxError) as one:
            chart.require_inside(points[1])
        assert str(stacked.value) == str(one.value)
        chart.require_inside(points[:1])
        chart.require_inside(points[:0])

    @settings(max_examples=60)
    @given(data=st.data())
    def test_outside_mask_at_each_slack_bound(self, data):
        # the mask against the comparisons spelled out one coordinate at a
        # time, on points at each widened bound and one ulp to either side
        n = data.draw(st.integers(1, 4))
        box = [(lo, lo + w) for lo, w in data.draw(st.lists(
            st.tuples(st.floats(-10.0, 10.0), st.floats(1e-3, 10.0)), min_size=n, max_size=n))]
        chart = make_chart(n, box=box)
        slack = data.draw(st.sampled_from([1e-9, 0.0, 1e-3]))
        edges = []
        for lo, hi in chart.box:
            w = hi - lo
            bounds = [lo - slack * (1.0 + w), hi + slack * (1.0 + w)]
            edges.append([0.5 * (lo + hi), math.nan] + [np.nextafter(b, d) for b in bounds for d in (-np.inf, np.inf)]
                         + bounds)
        points = np.array(data.draw(st.lists(
            st.tuples(*[st.sampled_from(e) for e in edges]), min_size=1, max_size=12)))

        def contained(m):
            return all(lo - slack * (1.0 + (hi - lo)) <= x <= hi + slack * (1.0 + (hi - lo))
                       for x, (lo, hi) in zip(m, chart.box))

        mask = chart.outside(points, slack)
        assert mask.tolist() == [not contained(m) for m in points]

    def test_sample_points_deterministic(self):
        chart = make_chart(3, k=1)
        a = chart.sample_points(seed=7)
        b = chart.sample_points(seed=7)
        assert len(a) == len(b)
        for p, q in zip(a, b):
            assert np.array_equal(p, q)

    def test_sample_points_inside_box(self):
        chart = make_chart(4, k=2)
        for m in chart.sample_points(seed=3):
            chart.require_inside(m)
