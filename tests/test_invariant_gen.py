"""The four-step straightening pipeline against closed-form oracles."""

import numpy as np
import pytest

from diracgen.calculus import OneForm, PontryaginSection, VectorField
from diracgen.errors import EvalDomainError, HypothesisViolated, InputError, NonUniqueCoefficients
from diracgen.invariant_gen import (
    FoliatedProblem,
    build_B,
    build_H,
    compute_Pi,
    beta_fields,
    fundamental_matrix,
    leaf_directional_derivative,
    run,
    solve_coefficients,
    split_tilde,
    transformed_frame,
)
from diracgen.invariant_gen import _solver
from diracgen.symexpr import Chart, parse

from conftest import make_chart, random_points


def section(chart, vec, form):
    return PontryaginSection(
        VectorField(chart, tuple(parse(c, chart) for c in vec)),
        OneForm(chart, tuple(parse(c, chart) for c in form)),
    )


@pytest.fixture
def chart3():
    return make_chart(3, k=1)


def e1_problem(chart3, **kw):
    g = section(chart3, ("0", "exp(x1)", "0"), ("0", "exp(x1)", "0"))
    return FoliatedProblem(chart=chart3, generators=(g,), **kw)


def e2_problem(chart3, **kw):
    g1 = section(chart3, ("0", "1", "0"), ("0", "0", "0"))
    g2 = section(chart3, ("0", "0", "0"), ("0", "0", "1"))
    extra = section(chart3, ("0", "x1", "0"), ("0", "0", "x1"))
    return FoliatedProblem(chart=chart3, generators=(g1, g2), extra=extra, **kw)


class TestSplitTilde:
    def test_component_split(self, chart3):
        s = section(chart3, ("1", "exp(x1)", "0"), ("0", "exp(x1)", "0"))
        leaf, tilde = split_tilde(s, 1)
        m = np.array([0.5, 0.1, -0.3])
        assert np.allclose(leaf(m), [1.0, 0.0, 0.0])
        assert np.allclose(tilde(m), [0.0, np.exp(0.5), 0.0, 0.0, np.exp(0.5), 0.0])

    def test_pure_transverse(self, chart3):
        s = section(chart3, ("0", "1", "0"), ("0", "0", "0"))
        leaf, tilde = split_tilde(s, 1)
        assert np.allclose(leaf(np.zeros(3)), 0.0)
        assert np.allclose(tilde(np.zeros(3))[:3], [0.0, 1.0, 0.0])

    def test_leaf_form_component_rejected(self, chart3):
        s = section(chart3, ("1", "0", "0"), ("1", "0", "0"))
        with pytest.raises(InputError):
            split_tilde(s, 1)

    def test_leaf_form_component_zero_at_midpoint_rejected(self, chart3):
        # x2 on dx1 vanishes at the box midpoint but not on the box
        g = section(chart3, ("0", "exp(x1)", "0"), ("x2", "exp(x1)", "0"))
        with pytest.raises(InputError):
            FoliatedProblem(chart=chart3, generators=(g,))

    def test_leaf_form_component_vanishing_everywhere_accepted(self, chart3):
        s = section(chart3, ("0", "1", "0"), ("x2 - x2", "0", "0"))
        split_tilde(s, 1)


class TestSolveCoefficients:
    def test_e1_coefficients(self, chart3, rng):
        p = e1_problem(chart3)
        for m in random_points(rng, chart3, 5):
            A, Bs = solve_coefficients(p, m)
            assert np.allclose(Bs[0], [[1.0]], atol=1e-12)
            assert np.allclose(A, 0.0, atol=1e-12)

    def test_constant_generators(self, chart3):
        p = e2_problem(chart3)
        A, Bs = solve_coefficients(p, np.array([0.3, -0.2, 0.1]))
        assert np.allclose(Bs[0], 0.0)
        assert np.allclose(A, 0.0)

    def test_hypothesis_violation(self, chart3):
        g = section(chart3, ("0", "1", "x1"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g,))
        with pytest.raises(HypothesisViolated) as exc:
            solve_coefficients(p, np.array([0.3, 0.0, 0.0]))
        assert exc.value.stage == "Step 1"

    def test_dependent_tilde_components(self, chart3):
        g1 = section(chart3, ("0", "exp(x1)", "0"), ("0", "0", "0"))
        g2 = section(chart3, ("0", "2*exp(x1)", "0"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g1, g2))
        with pytest.raises(NonUniqueCoefficients):
            solve_coefficients(p, np.array([0.2, 0.0, 0.0]))


class TestFundamentalMatrix:
    def test_scalar_exponential(self, chart3):
        p = e1_problem(chart3)
        for x in (-0.8, 0.37, 0.9):
            W = fundamental_matrix(p, 0, np.array([x, 0.1, 0.2]))
            assert W[0, 0] == pytest.approx(np.exp(x), rel=1e-9)

    def test_zero_coefficient_gives_identity(self, chart3):
        p = e2_problem(chart3)
        W = fundamental_matrix(p, 0, np.array([0.7, 0.0, 0.0]))
        assert np.allclose(W, np.eye(2))

    def test_nilpotent_exponential(self, chart3):
        # tilde matrix T = T0 (I + x N) gives B_1 = N, so W_1 = I + x N^T
        g1 = section(chart3, ("0", "1", "0"), ("0", "0", "0"))
        g2 = section(chart3, ("0", "x1", "1"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g1, g2))
        x = 0.6
        W = fundamental_matrix(p, 0, np.array([x, 0.0, 0.0]))
        assert np.allclose(W, [[1.0, 0.0], [x, 1.0]], atol=1e-9)

    def test_ode_residual_by_differences(self, chart3):
        p = e1_problem(chart3)
        solver = _solver(p)
        m = np.array([0.41, 0.1, 0.2])
        d = 1e-3
        mp, mm = m.copy(), m.copy()
        mp[0] += d
        mm[0] -= d
        fd = (solver.fundamental_matrix(0, mp) - solver.fundamental_matrix(0, mm)) / (2 * d)
        rhs = solver.coefficients(m)[1][0].T @ solver.fundamental_matrix(0, m)
        assert np.abs(fd - rhs).max() < 1e-6


class TestBuildH:
    def test_k1_equals_W(self, chart3):
        p = e1_problem(chart3)
        m = np.array([0.5, -0.1, 0.3])
        assert np.allclose(build_H(p, m), fundamental_matrix(p, 0, m))

    def test_constant_generators_identity(self, chart3):
        p = e2_problem(chart3)
        assert np.allclose(build_H(p, np.array([0.4, 0.2, -0.6])), np.eye(2))

    def test_k2_commuting_diagonal(self):
        chart = make_chart(4, k=2)
        b1, b2, c1, c2 = 0.7, -0.4, -0.3, 0.5
        g1 = section(
            chart,
            ("0", "0", f"exp({b1}*x1 + {b2}*x2)", "0"),
            ("0", "0", "0", "0"),
        )
        g2 = section(
            chart,
            ("0", "0", "0", f"exp({c1}*x1 + {c2}*x2)"),
            ("0", "0", "0", "0"),
        )
        p = FoliatedProblem(chart=chart, generators=(g1, g2))
        m = np.array([0.6, -0.5, 0.1, 0.2])
        H = build_H(p, m)
        expected = np.diag(
            [np.exp(b1 * m[0] + b2 * m[1]), np.exp(c1 * m[0] + c2 * m[1])]
        )
        assert np.allclose(H, expected, atol=1e-8)

    def test_build_B_inverts_H_transpose(self, chart3, rng):
        p = e1_problem(chart3)
        for m in random_points(rng, chart3, 5):
            assert np.allclose(build_B(p, m) @ build_H(p, m).T, np.eye(1), atol=1e-10)


class TestTransformedFrame:
    def test_e1_constant_frame(self, chart3, rng):
        p = e1_problem(chart3)
        frame = transformed_frame(p)
        expected = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        for m in random_points(rng, chart3, 8):
            assert np.allclose(frame(m).ravel(), expected, atol=1e-8)

    def test_constant_generators_unchanged(self, chart3):
        p = e2_problem(chart3)
        frame = transformed_frame(p)
        m = np.array([0.3, 0.7, -0.2])
        G = np.column_stack([g(m) for g in p.generators])
        assert np.allclose(frame(m), G)

    def test_leaf_invariance_by_differences(self, chart3, rng):
        p = e1_problem(chart3)
        frame = transformed_frame(p)
        for m in random_points(rng, chart3, 4):
            dF = leaf_directional_derivative(frame, chart3, m, 0)
            assert np.abs(dF[1:]).max() < 1e-6  # transverse and form rows


class TestBetaFields:
    def test_e2_decomposition(self, chart3):
        p = e2_problem(chart3)
        sigma, beta = beta_fields(p, np.array([0.4, 0.0, 0.0]))
        assert np.allclose(beta[0], [1.0, 1.0], atol=1e-12)
        assert np.allclose(sigma, 0.0, atol=1e-12)

    def test_constant_extra(self, chart3):
        g1 = section(chart3, ("0", "1", "0"), ("0", "0", "0"))
        g2 = section(chart3, ("0", "0", "0"), ("0", "0", "1"))
        extra = section(chart3, ("0", "2", "0"), ("0", "0", "3"))
        p = FoliatedProblem(chart=chart3, generators=(g1, g2), extra=extra)
        sigma, beta = beta_fields(p, np.array([0.1, 0.0, 0.0]))
        assert np.allclose(beta, 0.0)
        assert np.allclose(sigma, 0.0)

    def test_leaf_direction_goes_to_sigma(self, chart3):
        g1 = section(chart3, ("0", "1", "0"), ("0", "0", "0"))
        g2 = section(chart3, ("0", "0", "0"), ("0", "0", "1"))
        extra = section(chart3, ("x1", "0", "0"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g1, g2), extra=extra)
        sigma, beta = beta_fields(p, np.array([0.5, 0.0, 0.0]))
        assert np.allclose(beta, 0.0, atol=1e-12)
        assert np.allclose(sigma[0], [1.0], atol=1e-12)


class TestComputePi:
    def test_e2_oracle(self, chart3, rng):
        p = e2_problem(chart3)
        for m in random_points(rng, chart3, 6):
            assert np.allclose(compute_Pi(p, m), [-m[0], -m[0]], atol=1e-9)

    def test_constant_extra_gives_zero(self, chart3):
        g1 = section(chart3, ("0", "1", "0"), ("0", "0", "0"))
        g2 = section(chart3, ("0", "0", "0"), ("0", "0", "1"))
        extra = section(chart3, ("0", "2", "0"), ("0", "0", "3"))
        p = FoliatedProblem(chart=chart3, generators=(g1, g2), extra=extra)
        assert np.allclose(compute_Pi(p, np.array([0.8, 0.1, 0.2])), 0.0)

    def test_exponential_weight(self, chart3):
        # H = e^{x1}, beta_1 = e^{-x1}: R = x1 and Pi = -x1 e^{-x1}
        g = section(chart3, ("0", "exp(x1)", "0"), ("0", "0", "0"))
        extra = section(chart3, ("0", "x1", "0"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g,), extra=extra)
        x = 0.7
        Pi = compute_Pi(p, np.array([x, 0.0, 0.0]))
        assert Pi[0] == pytest.approx(-x * np.exp(-x), abs=1e-8)

    def test_zero_on_zero_slice(self, chart3):
        p = e2_problem(chart3)
        assert np.allclose(compute_Pi(p, np.array([0.0, 0.4, -0.3])), 0.0)

    def test_R_identity_by_differences(self, chart3):
        # (tilde frame) B (d_l R) equals (tilde generators) beta_l
        g = section(chart3, ("0", "exp(x1)", "0"), ("0", "0", "0"))
        extra = section(chart3, ("0", "x1*x1", "0"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g,), extra=extra)
        solver = _solver(p)
        m = np.array([0.43, 0.1, -0.2])
        dR = leaf_directional_derivative(lambda q: solver._R(np.asarray([q]))[0], chart3, m, 0, delta=1e-3)
        T = np.array([[e.eval(m) for e in row] for row in solver.tilde_exprs])
        _, beta = solver.beta_sigma(m)
        lhs = T @ solver.build_B(m) @ dR
        rhs = T @ beta[0]
        assert np.allclose(lhs, rhs, atol=1e-6)


class TestCorrectedSection:
    def test_e2_combined_vanishes(self, chart3, rng):
        p = e2_problem(chart3)
        solver = _solver(p)
        for m in random_points(rng, chart3, 6):
            corr = solver.correction(m)
            assert np.allclose(corr[1], -m[0], atol=1e-9)  # -x1 on the d2 slot
            assert np.allclose(corr[5], -m[0], atol=1e-9)  # -x1 on the dx3 slot
            assert np.allclose(solver.combined(m), 0.0, atol=1e-9)

    def test_beta_zero_keeps_extra(self, chart3):
        g1 = section(chart3, ("0", "1", "0"), ("0", "0", "0"))
        g2 = section(chart3, ("0", "0", "0"), ("0", "0", "1"))
        extra = section(chart3, ("0", "2", "0"), ("0", "0", "3"))
        p = FoliatedProblem(chart=chart3, generators=(g1, g2), extra=extra)
        solver = _solver(p)
        m = np.array([0.6, 0.2, -0.1])
        assert np.allclose(solver.correction(m), 0.0)
        assert np.allclose(solver.combined(m), p.extra(m))


class TestRun:
    def test_e1_all_pass(self, chart3):
        result = run(e1_problem(chart3))
        assert result.report.passed

    def test_e2_all_pass_combined_zero(self, chart3, rng):
        result = run(e2_problem(chart3))
        assert result.report.passed
        for m in random_points(rng, chart3, 4):
            assert np.allclose(result.combined(m), 0.0, atol=1e-8)

    def test_every_record_names_its_stage(self, chart3):
        stages = {r.check: r.stage for r in run(e2_problem(chart3)).report}
        assert stages == {
            "frame-spans-distribution": "Step 3",
            "frame-leaf-invariance[0]": "Step 2",
            "correction-in-distribution": "Step 4",
            "corrected-leaf-invariance[0]": "Step 4",
        }

    def test_violation_aborts_with_stage(self, chart3):
        g = section(chart3, ("0", "1", "x1"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g,))
        with pytest.raises(HypothesisViolated) as exc:
            run(p)
        assert exc.value.stage == "Step 1"

    def test_empty_sample_list_passes_vacuously(self, chart3):
        result = run(e2_problem(chart3), samples=[])
        assert result.report.passed and len(result.report) == 4
        assert len(result.frames([])) == 0

    def test_k0_returns_generators(self):
        chart = make_chart(2, k=0)
        g = section(chart, ("x1", "0"), ("0", "1"))
        p = FoliatedProblem(chart=chart, generators=(g,))
        result = run(p)
        assert result.report.passed
        assert [(r.check, r.stage) for r in result.report] == [("trivial-foliation", "")]
        m = np.array([0.3, 0.4])
        assert np.allclose(result.frame(m).ravel(), g(m))


class TestLeafDirectionalDerivative:
    def test_fourth_order_accuracy(self):
        chart = make_chart(2)
        f = lambda m: np.array([np.sin(2.0 * m[0])])
        m = np.array([0.3, 0.0])
        d = leaf_directional_derivative(f, chart, m, 0)
        assert d[0] == pytest.approx(2.0 * np.cos(0.6), abs=1e-6)

    def test_probe_clamped_near_boundary(self):
        chart = make_chart(2)
        f = lambda m: np.array([m[0] ** 2])
        d = leaf_directional_derivative(f, chart, np.array([1.0, 0.0]), 0)
        # clamped to 1 - 2*delta inside the box
        delta = 0.01 * 2.0
        assert d[0] == pytest.approx(2.0 * (1.0 - 2 * delta), abs=1e-9)


class PointwiseReference:
    """Steps 1-4 one point at a time, as the construction reads: scalar
    Expr.eval, one small np.linalg call per point, no caches."""

    def __init__(self, p):
        self.p = p
        n, k = p.n, p.k
        tilde = [split_tilde(g, k)[1] for g in p.generators]
        self.T = [[t.vf.coeffs[j] for t in tilde] for j in range(k, n)] + [
            [t.form.coeffs[j] for t in tilde] for j in range(k, n)
        ]
        if p.extra is not None:
            _, et = split_tilde(p.extra, k)
            self.ex = [et.vf.coeffs[j] for j in range(k, n)] + [et.form.coeffs[j] for j in range(k, n)]

    def B(self, m, l):
        T = np.array([[e.eval(m) for e in row] for row in self.T])
        dT = np.array([[e.diff(l).eval(m) for e in row] for row in self.T])
        q, r = np.linalg.qr(T)
        return np.linalg.solve(r, q.T @ dT)

    def W(self, j, m):
        p = self.p
        x = float(m[j])
        W = np.eye(p.r)
        if x == 0.0:
            return W
        h = np.copysign(p.ode_step, x)
        n_full = int(abs(x) // p.ode_step)

        def rhs(y):
            q = np.array(m, dtype=float)
            q[j] = y
            return self.B(q, j).T

        def step(x0, dx, W):
            k1 = rhs(x0) @ W
            mid = rhs(x0 + 0.5 * dx)
            k2 = mid @ (W + 0.5 * dx * k1)
            k3 = mid @ (W + 0.5 * dx * k2)
            k4 = rhs(x0 + dx) @ (W + dx * k3)
            return W + (dx / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        for i in range(n_full):
            W = step(i * h, h, W)
        rem = x - n_full * h
        if abs(rem) > 1e-15 * max(1.0, abs(x)):
            W = step(n_full * h, rem, W)
        return W

    def H(self, m):
        k = self.p.k
        H = self.W(k - 1, m)
        for j in range(k - 1, 0, -1):
            q = np.array(m, dtype=float)
            q[j:k] = 0.0
            H = H @ np.linalg.solve(self.W(j, q), self.W(j - 1, q))
        return H

    def Bmat(self, m):
        return np.linalg.solve(self.H(m).T, np.eye(self.p.r))

    def frame(self, m):
        return np.column_stack([g(m) for g in self.p.generators]) @ self.Bmat(m)

    def integrand(self, q, l):
        T = np.array([[e.eval(q) for e in row] for row in self.T])
        beta, *_ = np.linalg.lstsq(T, np.array([e.diff(l).eval(q) for e in self.ex]), rcond=None)
        return self.H(q).T @ beta

    def Pi(self, m):
        p = self.p
        R = np.zeros(p.r)
        for l in range(p.k - 1, -1, -1):
            base = np.array(m, dtype=float)
            base[l + 1 : p.k] = 0.0

            def f(tau):
                q = base.copy()
                q[l] = tau
                return self.integrand(q, l)

            upper = float(m[l])
            if upper == 0.0:
                continue
            sign, length, panel = np.copysign(1.0, upper), abs(upper), 2.0 * p.quad_step
            total, x = np.zeros(p.r), 0.0
            for _ in range(int(length // panel)):
                total += (panel / 6.0) * (f(sign * x) + 4.0 * f(sign * (x + p.quad_step)) + f(sign * (x + panel)))
                x += panel
            rem = length - x
            if rem > 1e-15 * max(1.0, length):
                total += (rem / 6.0) * (f(sign * x) + 4.0 * f(sign * (x + 0.5 * rem)) + f(sign * length))
            R += sign * total
        return -self.Bmat(m) @ R


def k2_problem():
    chart = make_chart(4, k=2)
    a = "exp(0.7*x1 - 0.4*x2)"
    b = "exp(-0.3*x1 + 0.5*x2)*(1 + 0.2*sin(x3))"
    g1 = section(chart, ("0", "0", a, f"0.5*{b}"), ("0", "0", "0", "0"))
    g2 = section(chart, ("0", "0", f"0.2*{a}", b), ("0", "0", "0", "0"))
    extra = section(chart, ("0", "0", f"sin(x1)*{a}", f"sin(x1)*0.5*{b}"), ("0", "0", "0", "0"))
    return FoliatedProblem(chart=chart, generators=(g1, g2), extra=extra, ode_step=0.05, quad_step=0.05)


class TestBatchedAgainstPointwise:
    """The line-batched solver gives the per-point construction's values."""

    @pytest.mark.parametrize("name", ["e1", "e2", "k2"])
    def test_steps_match_reference(self, chart3, rng, name):
        if name == "k2":
            p = k2_problem()
        else:
            make = e1_problem if name == "e1" else e2_problem
            p = make(chart3, ode_step=0.05, quad_step=0.05)
        ref = PointwiseReference(p)
        # repeated and nearby points reuse cached lines and panels
        points = random_points(rng, p.chart, 4)
        points += [m + 0.01 * np.eye(p.n)[0] for m in points[:2]] + points[:1]
        for m in points:
            for j in range(p.k):
                np.testing.assert_allclose(fundamental_matrix(p, j, m), ref.W(j, m), rtol=1e-13, atol=0)
            np.testing.assert_allclose(build_B(p, m), ref.Bmat(m), rtol=1e-13, atol=0)
            np.testing.assert_allclose(transformed_frame(p)(m), ref.frame(m), rtol=1e-13, atol=0)
            if p.extra is not None:
                np.testing.assert_allclose(compute_Pi(p, m), ref.Pi(m), rtol=1e-13, atol=0)

    def test_step1_violation_raises_at_first_node_past_it(self, chart3):
        # the leaf derivative of 5e-9 exp(20 x1 - 10) passes tol = 1e-7 just
        # past x1 = 0.5: nodes up to 0.5 pass, the next node (0.525) fails
        g = section(chart3, ("0", "1", "5e-9*exp(20*x1 - 10)"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g,), ode_step=0.05)
        h = 0.05
        with pytest.raises(HypothesisViolated) as exc:
            fundamental_matrix(p, 0, np.array([0.9, 0.1, 0.2]))
        assert exc.value.stage == "Step 1"
        assert exc.value.point == [10 * h + 0.5 * h, 0.1, 0.2]
        # the grid up to the failing step was kept: points before it still evaluate
        W = fundamental_matrix(p, 0, np.array([0.45, 0.1, 0.2]))
        np.testing.assert_allclose(W, PointwiseReference(p).W(0, np.array([0.45, 0.1, 0.2])), rtol=1e-13)

    @pytest.mark.parametrize("name", ["e2", "k2"])
    def test_section_values_match_reference(self, chart3, rng, name):
        # generator and extra values come from one compiled batch
        p = k2_problem() if name == "k2" else e2_problem(chart3, ode_step=0.05, quad_step=0.05)
        ref = PointwiseReference(p)
        points = random_points(rng, p.chart, 5)
        solver = _solver(p)
        frames = solver.frames(points)
        corrections = solver.corrections(points)
        combined = solver.combined_values(points)
        for m, F, c, e in zip(points, frames, corrections, combined):
            G = np.column_stack([g(m) for g in p.generators])
            np.testing.assert_allclose(F, ref.frame(m), rtol=1e-13, atol=0)
            np.testing.assert_allclose(c, G @ ref.Pi(m), rtol=1e-13, atol=0)
            np.testing.assert_allclose(e, p.extra(m) + G @ ref.Pi(m), rtol=1e-13, atol=0)
            assert np.array_equal(solver.frame(m), F) and np.array_equal(solver.combined(m), e)

    def test_section_value_errors_match_pointwise(self, chart3):
        # 1/x2 in a generator and 1/x3 in the extra section: the batch raises
        # what evaluating the section at the first failing point raises
        g = section(chart3, ("0", "1", "0"), ("0", "0", "1/x2"))
        extra = section(chart3, ("0", "0", "0"), ("0", "0", "1/x3"))
        p = FoliatedProblem(chart=chart3, generators=(g,), extra=extra, ode_step=0.05, quad_step=0.05)
        points = np.array([[0.3, 0.5, 0.2], [0.2, 0.4, 0.0], [0.1, 0.0, 0.4]])
        for evaluate, bad, value in (
            (_solver(p).frames, points[2], g),
            (_solver(p).combined_values, points[1], extra),
        ):
            with pytest.raises(EvalDomainError) as expected:
                value(bad)
            with pytest.raises(EvalDomainError) as raised:
                evaluate(points)
            assert str(raised.value) == str(expected.value)
            assert raised.value.point == expected.value.point

    def test_batch_raises_the_per_point_first_error(self, chart3):
        # a batch checks the box of every point before integrating, but point
        # by point the Step-1 failure on the first point's line comes first
        g = section(chart3, ("0", "1", "5e-9*exp(20*x1 - 10)"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g,), ode_step=0.05)
        with pytest.raises(HypothesisViolated) as exc:
            _solver(p).frames([[0.9, 0.1, 0.2], [0.0, 2.0, 0.0]])
        assert exc.value.point == [10 * 0.05 + 0.5 * 0.05, 0.1, 0.2]


class TestLineCachesAreBounded:
    def test_many_points_keep_the_caches_bounded(self, chart3, rng):
        from diracgen.invariant_gen import LINE_CACHE_SIZE, _Solver

        g = section(chart3, ("0", "exp(x1)*(2 + x2)", "0"), ("0", "0", "exp(x1)*(1 + x3)"))
        extra = section(chart3, ("0", "x1*exp(x1)*(2 + x2)", "0"), ("0", "0", "x1*exp(x1)*(1 + x3)"))
        p = FoliatedProblem(chart=chart3, generators=(g,), extra=extra, ode_step=0.1, quad_step=0.1)
        solver = _Solver(p)
        points = random_points(rng, chart3, 2000)
        first = [(solver.frame(m), solver.Pi(m)) for m in points[:5]]
        for m in points[5:]:
            solver.frame(m)
            solver.Pi(m)
        assert len(solver._lines) <= LINE_CACHE_SIZE
        assert len(solver._panels) <= LINE_CACHE_SIZE
        fresh = _Solver(p)
        for m, (F, Pi) in zip(points[:5], first):  # long evicted: recomputed from the zero slice
            assert np.array_equal(solver.frame(m), F) and np.array_equal(fresh.frame(m), F)
            assert np.array_equal(solver.Pi(m), Pi) and np.array_equal(fresh.Pi(m), Pi)

    def test_batch_with_more_lines_than_the_cache_holds(self, chart3, rng):
        from diracgen.invariant_gen import LINE_CACHE_SIZE, _Solver

        g = section(chart3, ("0", "exp(x1)*(2 + x2)", "0"), ("0", "0", "exp(x1)*(1 + x3)"))
        extra = section(chart3, ("0", "x1*exp(x1)*(2 + x2)", "0"), ("0", "0", "x1*exp(x1)*(1 + x3)"))
        p = FoliatedProblem(chart=chart3, generators=(g,), extra=extra, ode_step=0.1, quad_step=0.1)
        points = random_points(rng, chart3, LINE_CACHE_SIZE + 40)
        # every line twice, the second time further out
        points += [np.array([0.5 * m[0], m[1], m[2]]) for m in points]
        solver = _Solver(p)
        frames, combined = solver.frames(points), solver.combined_values(points)
        fresh = _Solver(p)
        for m, F, c in zip(points, frames, combined):
            assert np.array_equal(fresh.frame(m), F) and np.array_equal(fresh.combined(m), c)


class TestRunEvaluatesEachPointOnce:
    """run() evaluates the frame (and the correction) in one batch over the
    samples and every stencil point, and its report is the one the
    point-by-point construction gives."""

    @staticmethod
    def problem(chart3, name):
        if name == "k2":
            return k2_problem()
        make = e1_problem if name == "e1" else e2_problem
        return make(chart3, ode_step=0.05, quad_step=0.05)

    @pytest.mark.parametrize("name", ["e1", "e2", "k2"])
    def test_no_point_reaches_the_frame_batch_twice(self, chart3, name, monkeypatch):
        from diracgen.invariant_gen import _Solver

        p = self.problem(chart3, name)
        calls = []
        original = _Solver._B

        def spy(solver, points):
            calls.append(np.array(points))
            return original(solver, points)

        monkeypatch.setattr(_Solver, "_B", spy)
        samples = p.chart.sample_points(seed=3, n_random=6, margin=0.1)
        run(p, samples=samples)
        # one batch for the frames, and one for the corrections when there is an extra section
        assert len(calls) == (1 if p.extra is None else 2)
        for points in calls:
            assert len(points) == len(samples) * (1 + 4 * p.k)
            assert len(np.unique(points, axis=0)) == len(points)

    @pytest.mark.parametrize("name", ["e1", "e2", "k2"])
    def test_report_matches_the_pointwise_construction(self, chart3, rng, name):
        from diracgen.distribution import GeneralizedDistribution, membership_residual, span_residual
        from diracgen.report import record_from_samples

        p = self.problem(chart3, name)
        ref = PointwiseReference(p)
        samples = random_points(rng, p.chart, 2)
        D = GeneralizedDistribution(p.chart, p.generators)
        n, k = p.n, p.k

        def generators(m):
            return np.column_stack([g(m) for g in p.generators])

        def correction(m):
            return generators(m) @ ref.Pi(m)

        def leaf_records(fn, check, stage):
            out = []
            for l in range(k):
                pairs = []
                for m in samples:
                    d = leaf_directional_derivative(fn, p.chart, m, l)
                    defect = max(np.abs(d[k:n]).max(initial=0.0), np.abs(d[n:]).max(initial=0.0))
                    pairs.append((defect / (1.0 + np.abs(fn(m)).max()), m))
                out.append(record_from_samples(f"{check}[{l}]", pairs, p.tol, stage=stage))
            return out

        pairs = []
        for m in samples:
            F, G = ref.frame(m), generators(m)
            worst = max(
                [membership_residual(D, m, c) / (1.0 + np.linalg.norm(c)) for c in F.T]
                + [span_residual(F, c) / (1.0 + np.linalg.norm(c)) for c in G.T]
            )
            pairs.append((worst, m))
        expected = [record_from_samples("frame-spans-distribution", pairs, p.tol, stage="Step 3")]
        expected += leaf_records(ref.frame, "frame-leaf-invariance", "Step 2")
        if p.extra is not None:
            pairs = [(membership_residual(D, m, correction(m)) / (1.0 + np.linalg.norm(correction(m))), m)
                     for m in samples]
            expected.append(record_from_samples("correction-in-distribution", pairs, p.tol, stage="Step 4"))
            expected += leaf_records(lambda m: p.extra(m) + correction(m), "corrected-leaf-invariance", "Step 4")

        got = run(p, samples=samples).report.records
        assert [(r.check, r.stage, r.passed, r.failing_point) for r in got] == [
            (r.check, r.stage, r.passed, r.failing_point) for r in expected
        ]
        for r, want in zip(got, expected):
            assert r.worst_residual == pytest.approx(want.worst_residual, rel=1e-6, abs=1e-12)


class TestLockstepLines:
    """_extend steps the lines of a batch together, longest first."""

    @staticmethod
    def solver(chart3):
        from diracgen.invariant_gen import _Solver

        # W = exp(1000 x2 x1) overflows near x1 = 0.71 / x2, where the
        # generator itself still evaluates
        g = section(chart3, ("0", "exp(x2*(1000*x1 - 700))", "0"), ("0", "0", "0"))
        return _Solver(FoliatedProblem(chart=chart3, generators=(g,)))

    @staticmethod
    def line(point, target):
        return [[np.eye(1)], np.array(point, dtype=float), target]

    def test_lines_overflowing_at_the_same_step_raise_at_the_first(self, chart3):
        from diracgen.errors import NumericalBreakdownError

        solver = self.solver(chart3)
        h = solver.p.ode_step
        lines = [self.line([0.0, 1.0, 0.3], 475), self.line([0.0, 1.0, -0.4], 475)]
        with pytest.raises(NumericalBreakdownError) as exc:
            solver._extend(0, lines, h)
        assert exc.value.point == [0.0, 1.0, 0.3] and exc.value.stage == "Step 2"

    def test_the_line_overflowing_first_raises(self, chart3):
        from diracgen.errors import NumericalBreakdownError

        solver = self.solver(chart3)
        h = solver.p.ode_step
        lines = [self.line([0.0, 0.9, 0.3], 475), self.line([0.0, 1.0, -0.4], 475)]
        with pytest.raises(NumericalBreakdownError) as exc:
            solver._extend(0, lines, h)
        assert exc.value.point == [0.0, 1.0, -0.4]

    def test_each_line_as_if_integrated_alone(self, chart3):
        solver = self.solver(chart3)
        h = solver.p.ode_step
        # lines of different lengths, one of them already part-grown
        lines = [self.line([0.0, 0.2, 0.1], 40), self.line([0.0, 0.5, 0.0], 250), self.line([0.0, 0.7, 0.6], 7)]
        solver._extend(0, lines[2:], h)
        alone = [self.line(line[1], line[2]) for line in lines]
        solver._extend(0, lines, h)
        for line in alone:
            solver._extend(0, [line], h)
        for line, ref in zip(lines, alone):
            assert len(line[0]) == line[2] + 1
            assert all(np.array_equal(a, b) for a, b in zip(line[0], ref[0]))
