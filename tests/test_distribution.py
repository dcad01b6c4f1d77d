"""Pointwise linear algebra on generalized distributions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diracgen.calculus import OneForm, PontryaginSection, VectorField
from diracgen.distribution import (
    GeneralizedDistribution,
    _norms,
    TangentDistribution,
    annihilator_basis,
    check_bracket_hypothesis,
    pointwise_orthogonal_basis,
    span_defects,
    span_residuals,
    svd_rank,
)
from diracgen.errors import InputError
from diracgen.symexpr import parse

from conftest import make_chart, random_points
from pointwise import contains, membership_residual, rank_at


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


class TestOrthogonal:
    def test_one_dimensional_isotropic(self):
        chart = make_chart(1)
        D = GeneralizedDistribution(
            chart, (section(chart, ("1",), ("0",)),)
        )
        basis = pointwise_orthogonal_basis(D, np.zeros(1))
        # (d1, 0) pairs to zero with itself, so it lies in its own orthogonal
        assert len(basis) == 1
        assert abs(basis[0][1]) < 1e-12  # no form component in the orthogonal

    def test_full_rank_has_trivial_orthogonal(self, chart2):
        gens = tuple(
            section(chart2, vec, form)
            for vec, form in [
                (("1", "0"), ("0", "0")),
                (("0", "1"), ("0", "0")),
                (("0", "0"), ("1", "0")),
                (("0", "0"), ("0", "1")),
            ]
        )
        D = GeneralizedDistribution(chart2, gens)
        assert pointwise_orthogonal_basis(D, np.zeros(2)) == []

    def test_lagrangian_is_self_orthogonal(self, chart2):
        D = GeneralizedDistribution(
            chart2,
            (
                section(chart2, ("0", "-1"), ("1", "0")),
                section(chart2, ("1", "0"), ("0", "1")),
            ),
        )
        m = np.array([0.3, -0.2])
        basis = pointwise_orthogonal_basis(D, m)
        assert len(basis) == 2
        for w in basis:
            assert contains(D, m, w, 1e-9)

    def test_double_orthogonal_returns_span(self, chart2, rng):
        D = GeneralizedDistribution(
            chart2,
            (
                section(chart2, ("x1", "1"), ("0", "x2")),
                section(chart2, ("0", "0"), ("1", "0")),
            ),
        )
        for m in random_points(rng, chart2, 5):
            first = pointwise_orthogonal_basis(D, m)
            helper = GeneralizedDistribution(
                chart2,
                tuple(
                    PontryaginSection(
                        VectorField(chart2, tuple(float(v) for v in w[:2])),
                        OneForm(chart2, tuple(float(v) for v in w[2:])),
                    )
                    for w in first
                ),
            )
            second = pointwise_orthogonal_basis(helper, m)
            assert len(second) == len(D.generators)
            for w in second:
                assert contains(D, m, w, 1e-9)
            # mutual containment: original generators lie in the double orthogonal
            span2 = np.array(second)
            for g in D.generators:
                v = g(m)
                coeff, *_ = np.linalg.lstsq(span2.T, v, rcond=None)
                assert np.linalg.norm(span2.T @ coeff - v) < 1e-9


class TestAnnihilator:
    def test_coordinate_field(self, chart3):
        T = TangentDistribution(chart3, (VectorField.coordinate(chart3, 0),))
        basis = annihilator_basis(T, np.zeros(3))
        assert len(basis) == 2
        for eta in basis:
            assert abs(eta[0]) < 1e-12

    def test_rotation_at_point(self, chart2):
        box = ((-2.0, 2.0), (-2.0, 2.0))
        chart = make_chart(2, box=box)
        V = TangentDistribution(
            chart, (VectorField(chart, (parse("0 - x2", chart), parse("x1", chart))),)
        )
        basis = annihilator_basis(V, np.array([1.0, 0.0]))
        assert len(basis) == 1
        # at (1, 0) the generator is d2, so the annihilator is dx1
        assert abs(basis[0][1]) < 1e-12
        assert abs(basis[0][0]) == pytest.approx(1.0)

    def test_full_rank_empty(self, chart2):
        T = TangentDistribution(
            chart2,
            (VectorField.coordinate(chart2, 0), VectorField.coordinate(chart2, 1)),
        )
        assert annihilator_basis(T, np.zeros(2)) == []


class TestBracketHypothesis:
    def theta(self, chart, k):
        return GeneralizedDistribution(
            chart,
            tuple(
                PontryaginSection.from_vector(VectorField.coordinate(chart, l))
                for l in range(k)
            ),
        )

    def test_exp_example_passes(self, chart3, rng):
        D = GeneralizedDistribution(
            chart3, (section(chart3, ("0", "exp(x1)", "0"), ("0", "exp(x1)", "0")),)
        )
        samples = random_points(rng, chart3, 10)
        report = check_bracket_hypothesis(D, self.theta(chart3, 1), None, samples, 1e-9)
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
        report = check_bracket_hypothesis(D, self.theta(chart3, 1), extra, samples, 1e-9)
        assert report.passed

    def test_violating_extra_fails(self, chart3, rng):
        D = GeneralizedDistribution(
            chart3, (section(chart3, ("0", "0", "0"), ("0", "1", "0")),)
        )
        extra = section(chart3, ("0", "0", "x1"), ("0", "0", "0"))
        samples = random_points(rng, chart3, 10)
        report = check_bracket_hypothesis(D, self.theta(chart3, 1), extra, samples, 1e-9)
        failures = report.failures()
        assert failures
        assert all(f.check.startswith("bracket-hypothesis-extra") for f in failures)
