"""The pairing, and the symbolic brackets and Lie derivatives of
tests/pointwise.py (the oracle of the library's brackets): hand oracles
and algebraic identities."""

import numpy as np
import pytest

from diracgen.calculus import OneForm, PontryaginSection, VectorField, pairing
from diracgen.errors import ChartMismatchError
from diracgen.symexpr import ZERO, Chart, Const, Var, parse

from conftest import make_chart, random_points, random_section, random_vector_field
from pointwise import courant_bracket, differential, exterior_interior, lie_bracket, lie_derivative_form, skew_bracket


@pytest.fixture
def chart2():
    return make_chart(2)


@pytest.fixture
def chart3():
    return make_chart(3)


def section(chart, vec, form):
    return PontryaginSection(
        VectorField(chart, tuple(parse(c, chart) for c in vec)),
        OneForm(chart, tuple(parse(c, chart) for c in form)),
    )


class TestPairing:
    def test_diagonal(self, chart2):
        a = section(chart2, ("1", "0"), ("1", "0"))
        assert pairing(a, a).eval(np.zeros(2)) == pytest.approx(2.0)

    def test_disjoint_indices(self, chart2):
        a = section(chart2, ("1", "0"), ("0", "0"))
        b = section(chart2, ("0", "0"), ("0", "1"))
        assert pairing(a, b).eval(np.array([0.3, 0.7])) == 0.0

    def test_hand_oracle(self, chart2):
        # <(x1 d1, x2 dx2), (d2, dx1)> = x1 + x2
        a = section(chart2, ("x1", "0"), ("0", "x2"))
        b = section(chart2, ("0", "1"), ("1", "0"))
        m = np.array([0.2, -0.5])
        assert pairing(a, b).eval(m) == pytest.approx(0.2 - 0.5)


class TestLieBracket:
    def test_coordinate_fields_commute(self, chart2):
        out = lie_bracket(VectorField.coordinate(chart2, 0), VectorField.coordinate(chart2, 1))
        assert np.allclose(out(np.array([0.4, -0.1])), 0.0)

    def test_single_product_rule_term(self, chart2):
        X = VectorField.coordinate(chart2, 0)
        Y = VectorField(chart2, (parse("0", chart2), parse("x1", chart2)))
        out = lie_bracket(X, Y)
        assert np.allclose(out(np.array([0.3, 0.9])), [0.0, 1.0])

    def test_hand_expansion(self, chart2):
        # [x1 d2, x2 d1] = x1 d1 - x2 d2
        X = VectorField(chart2, (parse("0", chart2), parse("x1", chart2)))
        Y = VectorField(chart2, (parse("x2", chart2), parse("0", chart2)))
        m = np.array([0.7, -0.2])
        assert np.allclose(lie_bracket(X, Y)(m), [0.7, 0.2])

    def test_antisymmetry_and_jacobi(self, chart3, rng):
        X = random_vector_field(rng, chart3)
        Y = random_vector_field(rng, chart3)
        Z = random_vector_field(rng, chart3)
        anti = lie_bracket(X, Y) + lie_bracket(Y, X)
        jacobi = (
            lie_bracket(X, lie_bracket(Y, Z))
            + lie_bracket(Y, lie_bracket(Z, X))
            + lie_bracket(Z, lie_bracket(X, Y))
        )
        for m in random_points(rng, chart3, 10):
            assert np.allclose(anti(m), 0.0, atol=1e-9)
            assert np.allclose(jacobi(m), 0.0, atol=1e-9)

    def test_chart_mismatch(self, chart2, chart3):
        with pytest.raises(ChartMismatchError):
            lie_bracket(VectorField.zero(chart2), VectorField.zero(chart3))


class TestLieDerivativeForm:
    def test_exp_form(self, chart2):
        X = VectorField.coordinate(chart2, 0)
        alpha = OneForm(chart2, (parse("0", chart2), parse("exp(x1)", chart2)))
        out = lie_derivative_form(X, alpha)
        m = np.array([0.4, 0.1])
        assert np.allclose(out(m), alpha(m))

    def test_rotation_invariant_radial_form(self, chart2):
        X = VectorField(chart2, (parse("0 - x2", chart2), parse("x1", chart2)))
        alpha = OneForm(chart2, (parse("x1", chart2), parse("x2", chart2)))
        out = lie_derivative_form(X, alpha)
        for m in random_points(np.random.default_rng(1), chart2, 10):
            assert np.allclose(out(m), 0.0, atol=1e-12)

    def test_zero_form(self, chart2, rng):
        X = random_vector_field(rng, chart2)
        out = lie_derivative_form(X, OneForm.zero(chart2))
        assert np.allclose(out(np.array([0.2, 0.3])), 0.0)


class TestExteriorInterior:
    def test_closed_form(self, chart2):
        alpha = OneForm(chart2, (parse("x1", chart2), parse("0", chart2)))
        out = exterior_interior(VectorField.coordinate(chart2, 0), alpha)
        assert np.allclose(out(np.array([0.5, 0.5])), 0.0)

    def test_hand_oracle(self, chart2):
        # i_{d1} d(x2 dx1) = -dx2
        alpha = OneForm(chart2, (parse("x2", chart2), parse("0", chart2)))
        out = exterior_interior(VectorField.coordinate(chart2, 0), alpha)
        assert np.allclose(out(np.array([0.1, 0.9])), [0.0, -1.0])

    def test_d_squared_zero(self, chart2, rng):
        f = parse("x1*x2", chart2)
        Y = random_vector_field(rng, chart2)
        out = exterior_interior(Y, differential(f, chart2))
        for m in random_points(rng, chart2, 5):
            assert np.allclose(out(m), 0.0, atol=1e-12)


class TestSkewBracket:
    def test_self_bracket_vanishes(self, chart3, rng):
        a = random_section(rng, chart3)
        out = skew_bracket(a, a)
        for m in random_points(rng, chart3, 5):
            assert np.allclose(out(m), 0.0, atol=1e-10)

    def test_leaf_field_with_exp_section(self, chart3):
        theta = PontryaginSection.from_vector(VectorField.coordinate(chart3, 0))
        g = section(chart3, ("0", "exp(x1)", "0"), ("0", "exp(x1)", "0"))
        out = skew_bracket(theta, g)
        for m in random_points(np.random.default_rng(2), chart3, 5):
            assert np.allclose(out(m), g(m), atol=1e-12)

    def test_constant_sections(self, chart3):
        a = PontryaginSection.from_vector(VectorField.coordinate(chart3, 0))
        b = PontryaginSection.from_vector(VectorField.coordinate(chart3, 1))
        assert np.allclose(skew_bracket(a, b)(np.zeros(3)), 0.0)

    def test_antisymmetry_random(self, chart3, rng):
        a = random_section(rng, chart3)
        b = random_section(rng, chart3)
        out = skew_bracket(a, b) + skew_bracket(b, a)
        for m in random_points(rng, chart3, 10):
            assert np.allclose(out(m), 0.0, atol=1e-9)

    def test_bilinearity(self, chart2, rng):
        s1 = random_section(rng, chart2)
        s2 = random_section(rng, chart2)
        t = random_section(rng, chart2)
        a1, a2 = 1.5, -0.75
        lhs = skew_bracket(a1 * s1 + a2 * s2, t)
        rhs_1 = skew_bracket(s1, t)
        rhs_2 = skew_bracket(s2, t)
        for m in random_points(rng, chart2, 5):
            assert np.allclose(lhs(m), a1 * rhs_1(m) + a2 * rhs_2(m), atol=1e-9)

    def test_leaf_specialization(self, chart3, rng):
        # [(Y,0),(X,alpha)] = (L_Y X, L_Y alpha) when alpha(Y) = 0
        Y = VectorField(chart3, (parse("x2", chart3), parse("0", chart3), parse("0", chart3)))
        alpha_coeffs = (Const(0.0), parse("x1*x3", chart3), parse("exp(x2)", chart3))
        alpha = OneForm(chart3, alpha_coeffs)
        X = random_vector_field(rng, chart3)
        out = skew_bracket(PontryaginSection.from_vector(Y), PontryaginSection(X, alpha))
        expected_vf = lie_bracket(Y, X)
        expected_form = lie_derivative_form(Y, alpha)
        for m in random_points(rng, chart3, 10):
            assert np.allclose(out(m)[:3], expected_vf(m), atol=1e-10)
            assert np.allclose(out(m)[3:], expected_form(m), atol=1e-10)


class TestCourantBracket:
    def test_constant_sections(self, chart2):
        a = PontryaginSection.from_vector(VectorField.coordinate(chart2, 0))
        b = PontryaginSection.from_vector(VectorField.coordinate(chart2, 1))
        assert np.allclose(courant_bracket(a, b)(np.zeros(2)), 0.0)

    def test_discrepancy_with_skew(self, chart3, rng):
        # courant - skew = (0, (1/2) d<a,b>)
        a = random_section(rng, chart3)
        b = random_section(rng, chart3)
        diff_c = courant_bracket(a, b)
        diff_s = skew_bracket(a, b)
        half_d = differential(pairing(a, b), chart3) * 0.5
        for m in random_points(rng, chart3, 10):
            delta = diff_c(m) - diff_s(m)
            assert np.allclose(delta[:3], 0.0, atol=1e-9)
            assert np.allclose(delta[3:], half_d(m), atol=1e-9)

    def test_self_bracket_is_exact(self, chart2, rng):
        # [a, a] = (0, d(alpha(X)))
        a = random_section(rng, chart2)
        out = courant_bracket(a, a)
        d_exact = differential(a.form.contract(a.vf), chart2)
        for m in random_points(rng, chart2, 10):
            assert np.allclose(out(m)[:2], 0.0, atol=1e-9)
            assert np.allclose(out(m)[2:], d_exact(m), atol=1e-9)


class TestFunctionLinearity:
    def test_scaling_by_function(self, chart3, rng):
        # [(Y,0), f (X,a)] = (Y f)(X,a) + f [(Y,0),(X,a)], valid when a(Y) = 0
        Y = VectorField(chart3, (parse("x3", chart3), parse("0", chart3), parse("0", chart3)))
        f = parse("exp(x1) + x2", chart3)
        s = random_section(rng, chart3, annihilate=1)
        theta = PontryaginSection.from_vector(Y)
        lhs = skew_bracket(theta, f * s)
        term = skew_bracket(theta, s)
        Yf = sum((c * f.diff(i) for i, c in enumerate(Y.coeffs)), ZERO)  # Y[f]
        for m in random_points(rng, chart3, 10):
            rhs = Yf.eval(m) * s(m) + f.eval(m) * term(m)
            assert np.allclose(lhs(m), rhs, atol=1e-9)
