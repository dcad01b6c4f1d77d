"""Pointwise linear algebra on generalized distributions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diracgen.calculus import OneForm, PontryaginSection, VectorField
from diracgen.distribution import (
    GeneralizedDistribution,
    _leaf_bracket,
    _norms,
    check_bracket_hypothesis,
    span_defects,
    span_residuals,
    svd_rank,
)
from diracgen.errors import ChartMismatchError, InputError
from diracgen.symexpr import CompiledExprs, parse

from conftest import make_chart, random_expr, random_points
from pointwise import contains, leaf_fields, membership_residual, rank_at, skew_bracket


def section(chart, vec, form):
    return PontryaginSection(
        VectorField(chart, tuple(parse(c, chart) for c in vec)),
        OneForm(chart, tuple(parse(c, chart) for c in form)),
    )


@pytest.fixture
def chart2():
    return make_chart(2)


@pytest.fixture
def chart3():
    return make_chart(3)


class TestRank:
    def test_constant_rank_two(self, chart2):
        D = GeneralizedDistribution(
            chart2,
            (
                PontryaginSection.from_vector(VectorField.coordinate(chart2, 0)),
                PontryaginSection.from_vector(VectorField.coordinate(chart2, 1)),
            ),
        )
        for m in random_points(np.random.default_rng(0), chart2, 5):
            assert rank_at(D, m) == 2

    def test_singular_point(self, chart2):
        D = GeneralizedDistribution(
            chart2, (section(chart2, ("x1", "0"), ("0", "0")),)
        )
        assert rank_at(D, np.array([0.0, 0.0])) == 0
        assert rank_at(D, np.array([1.0, 0.0])) == 1

    def test_rank_lower_semicontinuous_near_singular_point(self, chart2, rng):
        D = GeneralizedDistribution(
            chart2, (section(chart2, ("x1", "0"), ("0", "0")),)
        )
        base_rank = rank_at(D, np.array([0.0, 0.5]))
        for _ in range(10):
            nearby = np.array([0.0, 0.5]) + 0.05 * (rng.random(2) - 0.5)
            assert rank_at(D, nearby) >= base_rank

    def test_symplectic_graph_rank(self, chart2):
        # graph of pi12 = 1: {(-d2, dx1), (d1, dx2)}
        D = GeneralizedDistribution(
            chart2,
            (
                section(chart2, ("0", "-1"), ("1", "0")),
                section(chart2, ("1", "0"), ("0", "1")),
            ),
        )
        for m in random_points(np.random.default_rng(1), chart2, 5):
            assert rank_at(D, m) == 2

    def test_empty_generators_rejected(self, chart2):
        with pytest.raises(InputError):
            GeneralizedDistribution(chart2, ())


class TestSvdRank:
    def test_zero_and_empty_matrices_have_rank_zero(self):
        assert svd_rank(np.zeros((3, 2))) == 0
        rank, u, vt = svd_rank(np.zeros((0, 3)), bases=True)
        assert rank == 0 and u.shape == (0, 0)
        assert np.array_equal(vt, np.eye(3))

    def test_threshold_is_relative_to_largest_singular_value(self):
        M = np.diag([1e6, 1e-2, 1e-5])
        assert svd_rank(M, tol=1e-12) == 3
        assert svd_rank(M, tol=1e-9) == 2
        assert svd_rank(M, tol=1e-7) == 1
        assert svd_rank(1e-12 * M, tol=1e-9) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        rank=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_low_rank_products(self, rows, cols, rank, seed):
        rank = min(rank, rows, cols)
        r = np.random.default_rng(seed)
        M = r.standard_normal((rows, rank)) @ r.standard_normal((rank, cols))
        got, u, vt = svd_rank(M, bases=True)
        assert got == rank == svd_rank(M)
        # U[:, :rank] spans the columns, Vt[rank:] spans the null space
        scale = 1.0 + np.abs(M).max()
        assert np.abs(M @ vt[rank:].T).max(initial=0.0) <= 1e-10 * scale
        col_basis = u[:, :rank]
        assert np.abs(M - col_basis @ (col_basis.T @ M)).max() <= 1e-10 * scale


class TestMembership:
    def test_generator_value_contained(self, chart3, rng):
        D = GeneralizedDistribution(
            chart3,
            (
                section(chart3, ("0", "exp(x1)", "0"), ("0", "exp(x1)", "0")),
                section(chart3, ("1", "0", "0"), ("0", "0", "0")),
            ),
        )
        for m in random_points(rng, chart3, 5):
            for g in D.generators:
                assert contains(D, m, g(m), 1e-9)

    def test_orthogonal_unit_vector_not_contained(self, chart2):
        D = GeneralizedDistribution(
            chart2, (section(chart2, ("1", "0"), ("0", "0")),)
        )
        v = np.array([0.0, 1.0, 0.0, 0.0])  # Euclidean-orthogonal, unit norm
        assert not contains(D, np.zeros(2), v, 1e-7)

    def test_explicit_coefficients(self, chart3):
        D = GeneralizedDistribution(
            chart3,
            (
                section(chart3, ("0", "1", "0"), ("0", "0", "0")),
                section(chart3, ("0", "0", "0"), ("0", "0", "1")),
            ),
        )
        v = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
        assert contains(D, np.zeros(3), v, 1e-12)

    def test_residual_scale(self, chart2):
        D = GeneralizedDistribution(
            chart2, (section(chart2, ("1", "0"), ("0", "0")),)
        )
        v = np.array([0.0, 3.0, 0.0, 0.0])
        assert membership_residual(D, np.zeros(2), v) == pytest.approx(3.0)


class TestStackedLeastSquares:
    """span_residuals solves a whole stack in one call, bit for bit as
    np.linalg.lstsq and np.linalg.norm solve and measure each matrix."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 4),
        count=st.integers(1, 6),
        deficient=st.booleans(),
        transposed=st.booleans(),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_lstsq(self, rows, cols, count, deficient, transposed, log_scale, seed):
        # rows < cols, rows == cols and rows > cols all occur
        r = np.random.default_rng(seed)
        A = r.standard_normal((count, rows, cols)) * 10.0**log_scale
        if deficient and cols > 1:
            A[..., -1] = 2.0 * A[..., 0]  # rank-deficient
        if transposed:  # each matrix the transpose of a row-major one
            A = np.ascontiguousarray(np.swapaxes(A, 1, 2)).swapaxes(1, 2)
        v = r.standard_normal((count, rows)) * 10.0**log_scale
        coeff, residual = span_residuals(A, v)
        for i in range(count):
            x, *_ = np.linalg.lstsq(A[i], v[i], rcond=None)
            assert np.array_equal(coeff[i], x)
            assert residual[i] == np.linalg.norm(A[i] @ x - v[i])

    def test_empty_stack(self):
        coeff, residual = span_residuals(np.zeros((0, 4, 2)), np.zeros((0, 4)))
        assert coeff.shape == (0, 2) and residual.shape == (0,)


class TestNorms:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 6), length=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_numpy_below_overflow_and_hypot_above(self, rows, length, seed):
        # row scales from 1e-300 to 1e307, entries down to 1e-20 of the row's:
        # the squares of about half the rows overflow, their norms do not
        r = np.random.default_rng(seed)
        x = r.standard_normal((rows, length)) * 10.0 ** r.uniform(-300.0, 307.0, (rows, 1))
        x *= 10.0 ** r.integers(-20, 1, (rows, length))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = _norms(x)
        for row, norm in zip(x, norms):
            with np.errstate(over="ignore"):
                expected = np.linalg.norm(row)
            if np.isfinite(expected):
                assert norm == expected
            else:
                assert abs(norm - math.hypot(*row)) <= 1e-15 * math.hypot(*row)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 3), exponent=st.integers(500, 1023),
           seed=st.integers(0, 2**32 - 1))
    @example(rows=2, cols=3, exponent=1022, seed=2)  # |v| is finite, its least-squares coefficients are not
    def test_defects_of_large_vectors_do_not_depend_on_their_scale(self, rows, cols, exponent, seed):
        # v with entries below 2 in size, times 2^exponent: from about 2^511 on
        # its sum of squares overflows, and from about 2^1022 on its norm can
        # be above the largest float too; its defect over 1 + |v| is that of
        # v over |v|
        r = np.random.default_rng(seed)
        A, v = r.standard_normal((rows, cols)), r.uniform(-1.99, 1.99, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = span_defects(A, v * 2.0**exponent)
        expected = span_residuals(A, v)[1] / np.linalg.norm(v)
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-15)


class TestBracketHypothesis:
    @pytest.fixture
    def chart3(self):
        return make_chart(3, k=1)

    def test_exp_example_passes(self, chart3, rng):
        D = GeneralizedDistribution(
            chart3, (section(chart3, ("0", "exp(x1)", "0"), ("0", "exp(x1)", "0")),)
        )
        samples = random_points(rng, chart3, 10)
        report = check_bracket_hypothesis(D, None, samples, 1e-9)
        assert report.passed

    def test_extra_section_passes(self, chart3, rng):
        D = GeneralizedDistribution(
            chart3,
            (
                section(chart3, ("0", "1", "0"), ("0", "0", "0")),
                section(chart3, ("0", "0", "0"), ("0", "0", "1")),
            ),
        )
        extra = section(chart3, ("0", "x1", "0"), ("0", "0", "x1"))
        samples = random_points(rng, chart3, 10)
        report = check_bracket_hypothesis(D, extra, samples, 1e-9)
        assert report.passed

    def test_violating_extra_fails(self, chart3, rng):
        D = GeneralizedDistribution(
            chart3, (section(chart3, ("0", "0", "0"), ("0", "1", "0")),)
        )
        extra = section(chart3, ("0", "0", "x1"), ("0", "0", "0"))
        samples = random_points(rng, chart3, 10)
        report = check_bracket_hypothesis(D, extra, samples, 1e-9)
        failures = report.failures()
        assert failures
        assert all(f.check.startswith("bracket-hypothesis-extra") for f in failures)

    def test_each_leaf_field_has_its_records(self, rng):
        # on a chart with two leaf coordinates, d2 of the dx3 part x2 leaves
        # the span of d1, d2 and (d3, x2 dx3); d1 of the generator is 0
        chart = make_chart(3, k=2)
        D = GeneralizedDistribution(chart, (section(chart, ("0", "0", "1"), ("0", "0", "x2")),))
        report = check_bracket_hypothesis(D, None, random_points(rng, chart, 5), 1e-9)
        assert [(r.check, r.passed) for r in report] == [("bracket-hypothesis-generators[0,0]", True),
                                                          ("bracket-hypothesis-generators[0,1]", False)]

    def test_generators_over_another_chart_are_rejected(self, chart3):
        with pytest.raises(ChartMismatchError):
            GeneralizedDistribution(chart3, (section(make_chart(2), ("0", "1"), ("0", "0")),))

    def test_no_leaf_fields_no_records(self, rng):
        chart = make_chart(3)
        D = GeneralizedDistribution(chart, (section(chart, ("0", "x1", "0"), ("0", "0", "x1")),))
        assert list(check_bracket_hypothesis(D, None, random_points(rng, chart, 3), 1e-9)) == []


def _component(rng, chart, kind: str):
    """An expression of the given kind: a random tree, structurally zero,
    zero but not structurally, or with a negated variable or a quotient, whose
    partials fold to -0.0 or keep a Div node."""
    n = chart.n
    i, j = (int(v) for v in rng.integers(1, n + 1, size=2))
    text = {"zero": "0", "x2 - x2": "x2 - x2", "neg": f"-x{i}", "div": f"x{i}/(3 + x{j})"}.get(kind)
    return random_expr(rng, chart) if text is None else parse(text, chart)


class TestLeafRows:
    """check_bracket_hypothesis forms each bracket [(d_l, 0), s] as rows of
    leaf derivatives (_leaf_bracket): each row is the tree that the symbolic
    skew bracket of tests/pointwise.py folds to, with the same values."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.data())
    def test_rows_are_the_symbolic_skew_bracket(self, seed, n, data):
        k = data.draw(st.integers(1, n - 1), label="k")
        leaf_kinds = data.draw(st.lists(st.sampled_from(["zero", "x2 - x2", "random"]), min_size=k, max_size=k),
                               label="leaf form components")
        kinds = data.draw(st.lists(st.sampled_from(["random", "zero", "neg", "div"]), min_size=2 * n - k,
                                   max_size=2 * n - k), label="other components")
        rng = np.random.default_rng(seed)
        chart = make_chart(n, k=k)
        comps = [_component(rng, chart, kind) for kind in kinds[:n] + leaf_kinds + kinds[n:]]
        s = PontryaginSection(VectorField(chart, tuple(comps[:n])), OneForm(chart, tuple(comps[n:])))
        points = np.array(random_points(rng, chart, 3))
        for l, theta in enumerate(leaf_fields(chart)):
            rows = _leaf_bracket(s, l)
            oracle = skew_bracket(theta, s)
            want = [*oracle.vf.coeffs, *oracle.form.coeffs]
            assert [str(e) for e in rows] == [str(e) for e in want]
            assert rows == want
            values = CompiledExprs(rows)(points)
            assert values.T.tobytes() == np.array([oracle(m) for m in points]).tobytes()

    def test_negative_zero_partials_fold_to_zero(self):
        # d_1 of -x3 is the constant -0.0; the skew bracket's sums give 0.0
        chart = make_chart(3, k=1)
        s = section(chart, ("0", "-x3", "x1"), ("x2 - x2", "-x3", "0"))
        rows = _leaf_bracket(s, 0)
        assert [str(e) for e in rows] == ["0.0", "0.0", "1.0", "0.0", "0.0", "0.0"]
        assert not any(np.signbit(CompiledExprs(rows)(np.zeros((1, 3)))[:, 0]))

