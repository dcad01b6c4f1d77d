"""Expression trees: parsing, evaluation, exact differentiation, charts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracgen.calculus import OneForm, PontryaginSection, VectorField, courant_bracket, skew_bracket
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


# Literals and coordinates that reach every failure Expr.eval has: zero
# denominators (signed zeros too), 0^-k, and exp or powers that overflow.
_LITERALS = (0.0, -0.0, 1.0, -2.5, 0.3, 40.0, 1e150, -1e300)
_COORDS = (0.0, -0.0, 0.7, -1.3, 2.0, 25.0, 710.0, -1e160)
_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


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
            st.builds(lambda name, a: Func(name, a, _FUNCS[name]), st.sampled_from(sorted(_FUNCS)), children),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def _reference(expr, point):
    """Expr.eval at point, or the message of the EvalDomainError it raises."""
    try:
        return expr.eval(point)
    except EvalDomainError as exc:
        return str(exc)


class TestCompiledExprs:
    @given(
        st.lists(_trees(3), min_size=1, max_size=4),
        st.lists(st.tuples(*[st.sampled_from(_COORDS)] * 3), min_size=1, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_and_fails_where_eval_fails(self, exprs, coords):
        points = np.array(coords, dtype=float)
        values, bad = CompiledExprs(exprs).evaluate(points)
        bad = np.zeros(values.shape, dtype=bool) if bad is None else bad
        for e, expr in enumerate(exprs):
            for i, m in enumerate(points):
                want = _reference(expr, m)
                assert bad[e, i] == isinstance(want, str)
                if not bad[e, i]:
                    # bit for bit, signed zeros included
                    assert np.array_equal(values[e, i : i + 1].view(np.int64),
                                          np.array([want]).view(np.int64))

    @given(
        st.lists(_trees(2), min_size=1, max_size=3),
        st.lists(st.tuples(*[st.sampled_from(_COORDS)] * 2), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_call_raises_what_eval_raises_first(self, exprs, coords):
        points = np.array(coords, dtype=float)
        first = next(
            (want for m in points for want in (_reference(e, m) for e in exprs) if isinstance(want, str)),
            None,
        )
        compiled = CompiledExprs(exprs)
        if first is None:
            values = compiled(points)
            assert np.array_equal(values, [[e.eval(m) for m in points] for e in exprs])
        else:
            with pytest.raises(EvalDomainError) as exc:
                compiled(points)
            assert str(exc.value) == first

    def test_shared_subtrees_are_computed_once(self, chart3):
        e = parse("exp(x1)*sin(x2) + exp(x1)", chart3)
        compiled = CompiledExprs([e, e.diff(0)])
        assert len([c for c in compiled._code if c[2] is math.exp]) == 1
        m = np.array([[0.3, -0.2, 0.1]])
        assert np.array_equal(compiled(m)[:, 0], [e.eval(m[0]), e.diff(0).eval(m[0])])

    def test_error_points_are_plain_floats(self):
        chart = make_chart(2)
        with pytest.raises(EvalDomainError) as exc:
            CompiledExprs([parse("1/x2", chart)])(np.array([[0.5, 0.0]]))
        assert "np.float64" not in str(exc.value)
        assert exc.value.point == [0.5, 0.0]


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

    def test_outside_box_rejected(self):
        chart = make_chart(2)
        with pytest.raises(OutsideBoxError):
            chart.require_inside(np.array([2.0, 0.0]))

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
