"""The four-step straightening pipeline against closed-form oracles."""

import dataclasses
import functools
import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracgen.calculus import OneForm, PontryaginSection, VectorField
from diracgen.errors import (
    DiracgenError, EvalDomainError, HypothesisViolated, InputError, NonUniqueCoefficients, OutsideBoxError,
)
from diracgen.invariant_gen import (
    MAX_LINE_STEPS,
    FoliatedProblem,
    _decompose,
    _householder,
    _stencil,
    compute_Pi,
    fundamental_matrix,
    run,
    solve_coefficients,
    split_tilde,
)
from diracgen.symexpr import MAX_SAMPLES, Chart, CompiledExprs, parse

from conftest import make_chart, random_points
from pointwise import leaf_directional_derivative


def section(chart, vec, form):
    return PontryaginSection(
        VectorField(chart, tuple(parse(c, chart) for c in vec)),
        OneForm(chart, tuple(parse(c, chart) for c in form)),
    )


@pytest.fixture
def chart3():
    return make_chart(3, k=1)


def H_at(p, m):
    return p._solver._H(p._solver._checked([m]))[0]


def B_at(p, m):
    return p._solver._evaluate([m])[2][0]


def Hbeta_at(p, nodes):
    """H^T beta_l (N, k, r) at the nodes, H (Step 2) before beta (Step 4)."""
    return p._solver._Hbeta(nodes, p._solver._H(nodes))


def R_at(p, points):
    """R (N, r) at each point, from one integrand batch over the Simpson
    nodes of every leaf coordinate."""
    nodes, R = p._solver._simpson(np.asarray(points, dtype=float))
    return R(Hbeta_at(p, nodes))


def correction_at(p, m):
    """(Z, gamma) = G Pi at m."""
    G, _, _, Pi = p._solver._evaluate([m], corrected=True)
    return (G @ Pi[..., None])[0, :, 0]


def step1(p, nodes, leaf=False):
    """B (N, k, r, r) and, with leaf, A (N, k, r, k) at the nodes."""
    solver = p._solver
    return solver._decomposition(solver._generator_decomposition, p.r, nodes, "Step 1", "a generator", leaf=leaf)


def step4(p, nodes, leaf=False):
    """beta (N, k, r, 1) and, with leaf, sigma (N, k, 1, k) of the extra
    section at the nodes."""
    solver = p._solver
    return solver._decomposition(solver._extra_decomposition, 1, nodes, "Step 4", "the extra section", leaf=leaf)


def beta_fields(p, m):
    """sigma (k x k, over the leaf fields) and beta (k x r, over the
    generators) of the leaf derivatives of the extra section at m."""
    beta, sigma = step4(p, p._solver._checked([m]), leaf=True)
    return sigma[0, :, 0], beta[0, ..., 0]


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

    def test_dependent_tilde_components_constant_along_the_leaves(self, chart3):
        # Step 2 integrates nothing for this family, but the coefficients
        # still come from solving T, which a dependent T leaves undetermined
        g1 = section(chart3, ("0", "1", "0"), ("0", "0", "0"))
        g2 = section(chart3, ("0", "2", "0"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g1, g2))
        assert p._solver.constant_tilde
        with pytest.raises(NonUniqueCoefficients) as exc:
            solve_coefficients(p, np.array([0.2, 0.0, 0.0]))
        assert exc.value.stage == "Step 1"


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
        m = np.array([0.41, 0.1, 0.2])
        d = 1e-3
        mp, mm = m.copy(), m.copy()
        mp[0] += d
        mm[0] -= d
        fd = (fundamental_matrix(p, 0, mp) - fundamental_matrix(p, 0, mm)) / (2 * d)
        rhs = solve_coefficients(p, m)[1][0].T @ fundamental_matrix(p, 0, m)
        assert np.abs(fd - rhs).max() < 1e-6


class TestH:
    def test_k1_equals_W(self, chart3):
        p = e1_problem(chart3)
        m = np.array([0.5, -0.1, 0.3])
        assert np.allclose(H_at(p, m), fundamental_matrix(p, 0, m))

    def test_constant_generators_identity(self, chart3):
        p = e2_problem(chart3)
        assert np.allclose(H_at(p, np.array([0.4, 0.2, -0.6])), np.eye(2))

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
        H = H_at(p, m)
        expected = np.diag(
            [np.exp(b1 * m[0] + b2 * m[1]), np.exp(c1 * m[0] + c2 * m[1])]
        )
        assert np.allclose(H, expected, atol=1e-8)

    def test_B_inverts_H_transpose(self, chart3, rng):
        p = e1_problem(chart3)
        for m in random_points(rng, chart3, 5):
            assert np.allclose(B_at(p, m) @ H_at(p, m).T, np.eye(1), atol=1e-10)


class TestFrame:
    def test_e1_constant_frame(self, chart3, rng):
        p = e1_problem(chart3)
        frame = p._solver.frame
        expected = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        for m in random_points(rng, chart3, 8):
            assert np.allclose(frame(m).ravel(), expected, atol=1e-8)

    def test_constant_generators_unchanged(self, chart3):
        p = e2_problem(chart3)
        frame = p._solver.frame
        m = np.array([0.3, 0.7, -0.2])
        G = np.column_stack([g(m) for g in p.generators])
        assert np.allclose(frame(m), G)

    def test_leaf_invariance_by_differences(self, chart3, rng):
        p = e1_problem(chart3)
        frame = p._solver.frame
        for m in random_points(rng, chart3, 4):
            dF = leaf_directional_derivative(frame, chart3, m, 0)
            assert np.abs(dF[1:]).max() < 1e-6  # transverse and form rows


class TestBetaDecomposition:
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

    def test_no_leaf_coordinates(self):
        # k = 0: nothing to differentiate along, so sigma is 0 x 0 and beta 0 x r
        chart = Chart(coord_names=("x1", "x2"), leaf_count=0, box=((-1.0, 1.0), (-1.0, 1.0)))
        g1 = section(chart, ("1", "x1"), ("0", "0"))
        g2 = section(chart, ("0", "1"), ("x2", "0"))
        extra = section(chart, ("x1", "0"), ("0", "1"))
        p = FoliatedProblem(chart=chart, generators=(g1, g2), extra=extra)
        sigma, beta = beta_fields(p, np.array([0.3, -0.2]))
        assert sigma.shape == (0, 0) and beta.shape == (0, 2)


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

    @pytest.mark.parametrize("k", [0, 1])
    def test_no_extra_section_is_input_error(self, k):
        # on the zero slice too, where there is no panel to integrate
        chart = make_chart(3, k=k)
        p = FoliatedProblem(chart=chart, generators=(section(chart, ("0", "1", "0"), ("0", "0", "1")),))
        with pytest.raises(InputError, match="^no extra section in this problem$"):
            compute_Pi(p, np.array([0.0, 0.4, -0.3]))

    def test_R_identity_by_differences(self, chart3):
        # (tilde frame) B (d_l R) equals (tilde generators) beta_l
        g = section(chart3, ("0", "exp(x1)", "0"), ("0", "0", "0"))
        extra = section(chart3, ("0", "x1*x1", "0"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g,), extra=extra)
        solver = p._solver
        m = np.array([0.43, 0.1, -0.2])
        dR = leaf_directional_derivative(lambda q: R_at(p, [q])[0], chart3, m, 0, delta=1e-3)
        T = np.array([[e.eval(m) for e in row] for row in PointwiseReference(p).T])
        _, beta = beta_fields(p, m)
        lhs = T @ B_at(p, m) @ dR
        rhs = T @ beta[0]
        assert np.allclose(lhs, rhs, atol=1e-6)


class TestCorrectedSection:
    def test_e2_combined_vanishes(self, chart3, rng):
        p = e2_problem(chart3)
        solver = p._solver
        for m in random_points(rng, chart3, 6):
            corr = correction_at(p, m)
            assert np.allclose(corr[1], -m[0], atol=1e-9)  # -x1 on the d2 slot
            assert np.allclose(corr[5], -m[0], atol=1e-9)  # -x1 on the dx3 slot
            assert np.allclose(solver.combined(m), 0.0, atol=1e-9)

    def test_beta_zero_keeps_extra(self, chart3):
        g1 = section(chart3, ("0", "1", "0"), ("0", "0", "0"))
        g2 = section(chart3, ("0", "0", "0"), ("0", "0", "1"))
        extra = section(chart3, ("0", "2", "0"), ("0", "0", "3"))
        p = FoliatedProblem(chart=chart3, generators=(g1, g2), extra=extra)
        solver = p._solver
        m = np.array([0.6, 0.2, -0.1])
        assert np.allclose(correction_at(p, m), 0.0)
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

    def test_empty_sample_list_is_input_error(self, chart3):
        # a check on no sample certifies nothing
        with pytest.raises(InputError):
            run(e2_problem(chart3), samples=[])
        result = run(e2_problem(chart3), samples=[[0.1, 0.2, 0.3]])
        assert len(result.frames([])) == 0

    @pytest.mark.parametrize("name", ["e1", "e2", "k2", "k0", "k0+extra"])
    def test_kept_values_are_the_functions_values(self, chart3, name):
        if name.startswith("k0"):
            chart = make_chart(2, k=0)
            extra = section(chart, ("x2", "0"), ("0", "x1")) if name == "k0+extra" else None
            p = FoliatedProblem(chart=chart, generators=(section(chart, ("x1", "0"), ("0", "1")),), extra=extra)
        else:
            p = TestRunEvaluatesEachPointOnce.problem(chart3, name)
        result = run(p, samples=p.chart.sample_points(seed=5, n_random=4, margin=0.1))
        assert (result.sample_Pi is None) == (p.extra is None)
        assert (result.sample_combined is None) == (result.combined is None)
        for i, m in enumerate(result.samples):
            assert result.sample_frames[i].tobytes() == result.frame(m).tobytes()
            assert result.sample_B[i].tobytes() == B_at(p, m).tobytes()
            assert result.sample_H[i].tobytes() == H_at(p, m).tobytes()
            if p.extra is not None:
                assert result.sample_Pi[i].tobytes() == compute_Pi(p, m).tobytes()
            if result.combined is not None:
                assert result.sample_combined[i].tobytes() == result.combined(m).tobytes()

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
    """Steps 1-4 one point at a time, as the construction reads: one-point
    batches of programs compiled once, one small np.linalg call (or, in
    Steps 1 and 4, one Householder solve) per point, no caches."""

    def __init__(self, p):
        self.p = p
        n, k = p.n, p.k
        tilde = [split_tilde(g, k)[1] for g in p.generators]
        self.T = [[t.vf.coeffs[j] for t in tilde] for j in range(k, n)] + [
            [t.form.coeffs[j] for t in tilde] for j in range(k, n)
        ]
        flat = [e for row in self.T for e in row]
        self._T = CompiledExprs(flat)
        self._dT = [CompiledExprs([e.diff(l) for e in flat]) for l in range(k)]
        if p.extra is not None:
            _, et = split_tilde(p.extra, k)
            self.ex = [et.vf.coeffs[j] for j in range(k, n)] + [et.form.coeffs[j] for j in range(k, n)]
            self._dE = [CompiledExprs([e.diff(l) for e in self.ex]) for l in range(k)]

    @staticmethod
    def _at(program, m, shape):
        return program(np.asarray(m, dtype=float)[None])[:, 0].reshape(shape)

    def B(self, m, l):
        shape = (len(self.T), self.p.r)
        T, dT = self._at(self._T, m, shape), self._at(self._dT[l], m, shape)
        # the kernel on one node (against LAPACK: TestHouseholder)
        return _householder(T[..., None], dT[..., None])[0][..., 0]

    def W(self, j, m):
        p = self.p
        x = float(m[j])
        W = np.eye(p.r)
        if x == 0.0:
            return W
        h = np.copysign(p.ode_step, x)
        n_full = int(abs(x) // p.ode_step)
        if abs((n_full + 1) * p.ode_step - abs(x)) <= 1e-15 * max(1.0, abs(x)):
            n_full += 1  # one rounding below a grid node: read the grid there

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

        # each step applies its propagator: the step taken from the identity
        I = np.eye(p.r)
        for i in range(n_full):
            W = step(i * h, h, I) @ W
        rem = x - n_full * h
        if abs(rem) > 1e-15 * max(1.0, abs(x)):
            W = step(n_full * h, rem, I) @ W
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
        T, dE = self._at(self._T, q, (len(self.T), self.p.r)), self._at(self._dE[l], q, len(self.ex))
        # the kernel on one node (against LAPACK: TestStep4Beta)
        beta = _householder(T[..., None], dE[:, None, None])[0][:, 0, 0]
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

            if m[l] != 0.0:
                R += composite_simpson(f, float(m[l]), p.quad_step)
        return -self.Bmat(m) @ R


def composite_simpson(f, upper: float, step: float):
    """Composite Simpson quadrature of f along 0 .. upper, one node at a
    time: panels of width 2 * step from 0, then a final partial panel."""
    sign, length, panel = np.copysign(1.0, upper), abs(upper), 2.0 * step
    total, x = 0.0, 0.0
    for _ in range(int(length // panel)):
        total += (panel / 6.0) * (f(sign * x) + 4.0 * f(sign * (x + step)) + f(sign * (x + panel)))
        x += panel
    rem = length - x
    if rem > 1e-15 * max(1.0, length):
        total += (rem / 6.0) * (f(sign * x) + 4.0 * f(sign * (x + 0.5 * rem)) + f(sign * length))
    return sign * total


def k2_problem():
    chart = make_chart(4, k=2)
    a = "exp(0.7*x1 - 0.4*x2)"
    b = "exp(-0.3*x1 + 0.5*x2)*(1 + 0.2*sin(x3))"
    g1 = section(chart, ("0", "0", a, f"0.5*{b}"), ("0", "0", "0", "0"))
    g2 = section(chart, ("0", "0", f"0.2*{a}", b), ("0", "0", "0", "0"))
    extra = section(chart, ("0", "0", f"sin(x1)*{a}", f"sin(x1)*0.5*{b}"), ("0", "0", "0", "0"))
    return FoliatedProblem(chart=chart, generators=(g1, g2), extra=extra, ode_step=0.05, quad_step=0.05)


@functools.cache
def simpson_problem(k: int):
    """A leaf-dependent family with an extra section, k = 1 or 2: one
    problem (and solver) per k for every example drawn."""
    if k == 2:
        return k2_problem()
    chart = make_chart(3, k=1)
    g = section(chart, ("0", "exp(x1)*(2 + x2)", "0"), ("0", "0", "exp(x1)*(1 + x3)"))
    extra = section(chart, ("0", "x1*exp(x1)*(2 + x2)", "0"), ("0", "0", "x1*exp(x1)*(1 + x3)"))
    return FoliatedProblem(chart=chart, generators=(g,), extra=extra, ode_step=0.05, quad_step=0.05)


class TestSimpsonTotals:
    """_simpson sums the panels of each line from the zero slice as the
    composite Simpson reference does node by node, and adds the integrals
    from l = k-1 down: the same bits (up to the sign of a zero), whether its
    upper limits come in one batch, one at a time or in shuffled chunks."""

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.sampled_from([1, 2]),
        l=st.integers(0, 1),
        bases=st.lists(st.lists(st.floats(-0.95, 0.95), min_size=4, max_size=4), min_size=1, max_size=3),
        limits=st.lists(
            st.tuples(
                st.integers(0, 2),  # the line
                st.sampled_from([-1.0, 1.0]),
                st.integers(0, 9),  # full panels
                st.one_of(st.just(0.0), st.floats(0.0, 0.999)),  # partial panel, as a fraction of one
            ),
            min_size=1,
            max_size=6,
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_totals_match_the_reference(self, k, l, bases, limits, order):
        p = simpson_problem(k)
        solver, l, panel = p._solver, l % k, 2.0 * p.quad_step
        points = []
        for line, sign, full, part in limits:
            m = np.array(bases[line % len(bases)][: p.n])
            m[l] = sign * min((full + part) * panel, 0.99)
            points.append(m)
        points = np.array(points)

        def one(m, l):
            def f(tau):
                q = m.copy()
                q[l] = tau
                return Hbeta_at(p, q[None])[0, l]

            return np.zeros(p.r) + composite_simpson(f, float(m[l]), p.quad_step)  # 0.0 with no panel

        want = np.zeros_like(points[:, : p.r])
        for j in range(p.k - 1, -1, -1):
            bases = points.copy()
            bases[:, j + 1 : p.k] = 0.0
            want += [one(m, j) for m in bases]
        shuffled = list(range(len(points)))
        order.shuffle(shuffled)
        chunks = np.array_split(shuffled, order.randint(1, len(points)))
        in_chunks = np.empty_like(want)
        for chunk in chunks:
            in_chunks[chunk] = R_at(p, points[chunk])
        for got in (R_at(p, points), np.array([R_at(p, m[None])[0] for m in points]), in_chunks):
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


class TestHouseholder:
    """The batched Step-1 kernel against LAPACK, node by node."""

    @staticmethod
    def node_matrix(rng, M, r, scale, cond):
        U = np.linalg.qr(rng.standard_normal((M, r)))[0]
        V = np.linalg.qr(rng.standard_normal((r, r)))[0]
        return scale * (U * np.logspace(0.0, -np.log10(cond), r)) @ V.T

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.integers(1, 3),
        extra_rows=st.integers(0, 5),
        c=st.integers(1, 4),
        nodes=st.integers(1, 6),
        exponent=st.integers(-150, 150),
        log_cond=st.floats(0.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_lapack_within_the_condition_number(self, r, extra_rows, c, nodes, exponent, log_cond, seed):
        rng = np.random.default_rng(seed)
        M, scale, cond = r + extra_rows, 10.0**exponent, 10.0**log_cond
        T = np.stack([self.node_matrix(rng, M, r, scale, cond) for _ in range(nodes)], axis=-1)
        C = scale * rng.standard_normal((M, c, nodes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, diag = _householder(T, C)
        assert np.isfinite(X).all() and not (diag.min(axis=0) <= 1e-12 * diag.max(axis=0)).any()
        for i in range(nodes):
            q, R = np.linalg.qr(T[..., i])
            expected = np.linalg.solve(R, q.T @ C[..., i])
            assert np.linalg.norm(X[..., i] - expected) <= 5e-13 * cond * np.linalg.norm(expected)
            np.testing.assert_allclose(diag[:, i], np.abs(np.diagonal(R)), rtol=1e-13 * cond)

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.integers(1, 3),
        rows=st.integers(0, 5),
        kind=st.sampled_from(["zero", "duplicate", "short"]),
        exponent=st.integers(-150, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dependent_columns_are_degenerate(self, r, rows, kind, exponent, seed):
        rng = np.random.default_rng(seed)
        # a short system has fewer rows than columns; the others at least as many
        M = min(rows, r - 1) if kind == "short" else r + rows
        if kind == "duplicate" and r == 1:
            kind = "zero"  # one column has nothing to duplicate
        T = 10.0**exponent * rng.standard_normal((M, r, 3))
        a, b = sorted(rng.choice(r, size=2, replace=False)) if r > 1 else (0, 0)
        if kind == "zero":
            T[:, b] = 0.0
        elif kind == "duplicate":
            T[:, b] = T[:, a]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, diag = _householder(T, rng.standard_normal((M, 2, 3)))
        assert (diag.min(axis=0) <= 1e-12 * np.maximum(diag.max(axis=0), 1e-300)).all()

    @settings(max_examples=30, deadline=None)
    @given(
        r=st.integers(1, 3),
        c=st.integers(1, 2),
        M=st.integers(10, 14),
        nodes=st.integers(2, 40),
        exponent=st.integers(-150, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_node_and_a_batch_give_the_same_bits(self, r, c, M, nodes, exponent, seed):
        # ten or more rows: a numpy reduction over them would sum one column
        # (r = c = 1 at one node) pairwise but a stack of columns row by row
        rng = np.random.default_rng(seed)
        T = 10.0**exponent * rng.standard_normal((M, r, nodes))
        C = rng.standard_normal((M, c, nodes))
        X, diag = _householder(T, C)
        for i in range(nodes):
            Xi, diag_i = _householder(T[..., i : i + 1], C[..., i : i + 1])
            assert np.array_equal(Xi[..., 0], X[..., i]) and np.array_equal(diag_i[:, 0], diag[:, i])


class TestStep4Beta:
    """Step 4 solves with the Step-1 kernel: each node's beta is the same
    alone and in a batch, agrees with LAPACK, and a degenerate T raises."""

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.integers(1, 3),
        nodes=st.integers(1, 6),
        exponent=st.integers(-150, 150),
        log_cond=st.floats(0.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_beta_matches_lapack_and_one_node_alone(self, r, nodes, exponent, log_cond, seed):
        rng = np.random.default_rng(seed)
        chart = make_chart(3, k=1)
        scale, cond = 10.0**exponent, 10.0**log_cond
        # T = T0 + x2 T1, constant along the leaves, conditioned as drawn
        T0 = TestHouseholder.node_matrix(rng, 4, r, scale, cond).tolist()
        T1 = (0.05 * (scale / cond) * rng.standard_normal((4, r))).tolist()
        T = [[f"({T0[i][g]!r}) + ({T1[i][g]!r})*x2" for g in range(r)] for i in range(4)]
        # the extra section's transverse part is sum_g c_g T_g, so its leaf
        # derivative lies in the span of T, with beta_g = d c_g / dx1
        a, b, d = rng.standard_normal((3, r)).tolist()
        c = [f"({a[g]!r})*sin(({b[g]!r})*x1 + ({d[g]!r})*x3)" for g in range(r)]
        e = [" + ".join(f"({c[g]})*({T[i][g]})" for g in range(r)) for i in range(4)]
        gens = tuple(section(chart, ("0", T[0][g], T[1][g]), ("0", T[2][g], T[3][g])) for g in range(r))
        p = FoliatedProblem(chart=chart, generators=gens, extra=section(chart, ("0", e[0], e[1]), ("0", e[2], e[3])))
        points = np.array(random_points(rng, chart, nodes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta = step4(p, points)[0][:, 0, :, 0]
        ref = PointwiseReference(p)
        for m, got in zip(points, beta):
            assert np.array_equal(step4(p, m[None])[0][0, 0, :, 0], got)
            Tm = np.array([[x.eval(m) for x in row] for row in ref.T])
            expected = np.linalg.lstsq(Tm, np.array([x.diff(0).eval(m) for x in ref.ex]), rcond=None)[0]
            bound = 5e-13 * np.linalg.cond(Tm) * np.linalg.norm(expected)
            assert np.linalg.norm(got - expected) <= bound

    def test_degenerate_T_at_a_quadrature_node_raises_in_step1(self):
        # T = x1 - 0.12 vanishes at the Simpson node 0.08 + 0.04 == 0.12 (quad
        # step 0.04); the RK4 nodes of the sample and its stencil points
        # (steps of 0.1, midpoints, their tails) stay at least 0.02 from it,
        # but Step 2 integrates H to the Simpson nodes too, and the tail to
        # that node ends there: Step 1 meets it before Step 4 does
        chart = make_chart(3, k=1)
        g = section(chart, ("0", "x1 - 0.12", "0"), ("0", "0", "0"))
        extra = section(chart, ("0", "sin(x1)*(x1 - 0.12)", "0"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart, generators=(g,), extra=extra, ode_step=0.1, quad_step=0.04)
        with pytest.raises(NonUniqueCoefficients) as exc:
            run(p, samples=[[0.3, 0.1, 0.2]])
        assert exc.value.stage == "Step 1"
        assert exc.value.point == [0.12, 0.1, 0.2]

    def test_degenerate_T_constant_along_the_leaves_raises_in_step4(self):
        # Step 2 has nothing to integrate here (each B_l is 0) and runs no Step 1,
        # but Step 4 solves T beta = (leaf derivative of the extra section),
        # which a dependent T leaves undetermined
        chart = make_chart(2, k=1)
        g = section(chart, ("0", "1"), ("0", "0"))
        p = FoliatedProblem(chart=chart, generators=(g, g), extra=section(chart, ("0", "sin(x1)"), ("0", "0")))
        with pytest.raises(NonUniqueCoefficients) as exc:
            beta_fields(p, [0.1, 0.2])
        assert exc.value.stage == "Step 4"

    def test_T_is_judged_before_the_leaf_components(self, chart3):
        # at the node [0, 0, 0.2] T is dependent and the leaf component 1/x2
        # fails to evaluate: T's rank is checked first, as in Step 1
        g1 = section(chart3, ("1/x2", "1", "0"), ("0", "0", "0"))
        g2 = section(chart3, ("0", "2", "0"), ("0", "0", "0"))
        extra = section(chart3, ("0", "sin(x1)", "0"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g1, g2), extra=extra)
        with pytest.raises(NonUniqueCoefficients) as exc:
            step4(p, np.array([[0.0, 0.0, 0.2]]))
        assert exc.value.stage == "Step 4" and exc.value.point == [0.0, 0.0, 0.2]

    def test_nothing_to_solve_without_leaves(self):
        # k = 0: there is no leaf derivative to decompose, so a dependent T is no error
        chart = make_chart(2)
        g = section(chart, ("0", "1"), ("0", "0"))
        p = FoliatedProblem(chart=chart, generators=(g, g), extra=section(chart, ("0", "x1"), ("0", "0")))
        sigma, beta = beta_fields(p, [0.1, 0.2])
        assert sigma.shape == (0, 0) and beta.shape == (0, 2)

    def test_residual_check_holds_above_the_largest_float(self):
        # T = e_1 and C = 8e307 in each of six rows: X = 8e307 leaves 8e307 in
        # five rows, 0.91 of |C|, which is itself above the largest float
        T = np.zeros((6, 1, 1))
        T[0] = 1.0
        X, degenerate, residual, violated = _decompose(T, np.full((6, 1, 1), 8e307), 1, 1e-7)
        assert X[0, 0, 0] == 8e307 and not degenerate[0] and violated[0, 0]
        assert residual[0, 0] == pytest.approx(5**0.5 * 8e307, rel=1e-15)


class TestOneDecomposition:
    """Steps 1 and 4 are one method (_Solver._decomposition): each node's B
    and beta are the same bits alone and in a batch, and where several
    checks fail at one node the two steps raise the same kind of error,
    the first in check order."""

    @staticmethod
    def problem(k, r, seed, inject=()):
        """A family on n = k + 2 coordinates whose transverse part T0 G(x) has
        G upper triangular with exp(...) on the diagonal, nonzero leaf
        components, and an extra section sum_g c_g(x) (T0 G)_g.  inject names
        failures at x_{k+1} = 0: "T" (T fails to evaluate), "degenerate"
        (generator 0's transverse part vanishes), "residual" (the leaf
        derivatives of generator 0 and of the extra section leave the span,
        there and elsewhere) and "leaf" (a leaf component fails to evaluate)."""
        rng = np.random.default_rng(seed)
        chart = make_chart(k + 2, k=k)
        x = chart.coord_names
        t = x[k]

        def linear(weights):
            return " + ".join(f"({w!r})*{x[l]}" for l, w in enumerate(weights))

        T0, c = rng.standard_normal((4, r)).tolist(), rng.standard_normal((r, r)).tolist()
        exponents = rng.standard_normal((r, k)).tolist()
        T = [[f"({T0[i][g]!r})*exp({linear(exponents[g])})"
              + "".join(f" + ({T0[i][a]!r})*({c[a][g]!r})*{x[0]}" for a in range(g)) for i in range(4)]
             for g in range(r)]
        a, b, d = rng.standard_normal((3, r)).tolist()
        e = [" + ".join(f"({a[g]!r})*sin(({b[g]!r})*{x[0]} + ({d[g]!r})*{x[k + 1]})*({T[g][i]})" for g in range(r))
             for i in range(4)]

        def leaf():  # nowhere zero: |u| (2 + sin) >= |u| >= 0.5
            u, w = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])), float(rng.standard_normal())
            return f"({u!r})*(2 + sin(({w!r})*{x[0]} + {x[k + 1]}))"

        leaves = [[leaf() for _ in range(k)] for _ in range(r + 1)]
        if "residual" in inject:
            v = rng.standard_normal((2, 4)).tolist()
            T[0] = [f"{T[0][i]} + ({v[0][i]!r})*{x[0]}" for i in range(4)]
            e = [f"{e[i]} + ({v[1][i]!r})*{x[0]}" for i in range(4)]
        if "degenerate" in inject:
            T[0] = [f"{t}*({row})" for row in T[0]]
        if "T" in inject:
            T[0][0] = f"{T[0][0]} + 1/{t}"
        if "leaf" in inject:
            leaves[0][0] = f"{leaves[0][0]} + 1/{t}"
        gens = tuple(section(chart, (*leaves[g], T[g][0], T[g][1]), ("0",) * k + (T[g][2], T[g][3]))
                     for g in range(r))
        return FoliatedProblem(chart=chart, generators=gens,
                               extra=section(chart, (*leaves[r], e[0], e[1]), ("0",) * k + (e[2], e[3])))

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 2), r=st.integers(1, 3), nodes=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_one_node_and_a_batch_give_the_same_bits(self, k, r, nodes, seed):
        p = self.problem(k, r, seed)
        points = np.array(random_points(np.random.default_rng(seed), p.chart, nodes))
        assert not p._solver.constant_tilde
        for step in (step1, step4):
            beta = step(p, points)[0]
            for i in range(nodes):
                assert step(p, points[i : i + 1])[0][0].tobytes() == beta[i].tobytes()

    CHECK_ORDER = (("T", EvalDomainError), ("degenerate", NonUniqueCoefficients),
                   ("residual", HypothesisViolated), ("leaf", EvalDomainError))

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 2),
        r=st.integers(1, 3),
        inject=st.sets(st.sampled_from([name for name, _ in CHECK_ORDER])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_coincident_failures_raise_the_same_kind_in_both_steps(self, k, r, inject, seed):
        p = self.problem(k, r, seed, inject)
        points = np.array(random_points(np.random.default_rng(seed), p.chart, 3))
        points[0, k] = 0.0  # every injected failure is at the first node
        raised = []
        for step in (step1, step4):
            try:
                step(p, points)
                raised.append(None)
            except (EvalDomainError, HypothesisViolated, NonUniqueCoefficients) as error:
                raised.append(error)
        kind = next((kind for name, kind in self.CHECK_ORDER if name in inject), None)
        assert [type(error) if error else None for error in raised] == [kind, kind]
        if kind is not None:
            assert raised[0].point == raised[1].point == points[0].tolist()
            if kind is EvalDomainError:  # from a row the two programs share
                assert str(raised[0]) == str(raised[1])
            else:
                assert (raised[0].stage, raised[1].stage) == ("Step 1", "Step 4")


def test_leaf_coefficients_match_the_sums_entry_by_entry(rng):
    # A and sigma, each one stacked product, against their defining sums
    # dX_l[j, g] - X[j] . B_l[:, g] and dE_l[j] - X[j] . beta_l, within the
    # rounding of those sums; the leaf parts are free of the hypotheses
    p = k2_problem()

    def with_leaf(s, a, b):  # s with the leaf vector components a and b
        return section(p.chart, (a, b) + tuple(map(str, s.vf.coeffs[2:])), ("0",) * 4)

    leaf = ("sin(x3)*exp(x1)", "x1*x2 + x4")
    p = dataclasses.replace(p, generators=(with_leaf(p.generators[0], *leaf), with_leaf(p.generators[1], *leaf[::-1])),
                            extra=with_leaf(p.extra, "x2*cos(x1)", "exp(x2 - x1)"))
    eps = np.finfo(float).eps
    for m in random_points(rng, p.chart, 4):
        A, Bs = solve_coefficients(p, m)
        sigma, beta = beta_fields(p, m)
        X = np.array([[g.vf.coeffs[j].eval(m) for g in p.generators] for j in range(p.k)])
        assert np.abs(X).min() > 0.0 and np.abs(A).min() > 0.0 and np.abs(sigma).min() > 0.0
        for l in range(p.k):
            for j in range(p.k):
                dE = p.extra.vf.coeffs[j].diff(l).eval(m)
                assert abs(sigma[l, j] - (dE - X[j] @ beta[l])) <= 8 * eps * (abs(dE) + np.abs(X[j]) @ np.abs(beta[l]))
                for g in range(p.r):
                    dX = p.generators[g].vf.coeffs[j].diff(l).eval(m)
                    expected = dX - X[j] @ Bs[l][:, g]
                    assert abs(A[l, g, j] - expected) <= 8 * eps * (abs(dX) + np.abs(X[j]) @ np.abs(Bs[l][:, g]))


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
            np.testing.assert_allclose(B_at(p, m), ref.Bmat(m), rtol=1e-13, atol=0)
            np.testing.assert_allclose(p._solver.frame(m), ref.frame(m), rtol=1e-13, atol=0)
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
        result = run(p, samples=random_points(rng, p.chart, 5))
        for m, F, Pi, e in zip(result.samples, result.sample_frames, result.sample_Pi, result.sample_combined):
            G = np.column_stack([g(m) for g in p.generators])
            np.testing.assert_allclose(F, ref.frame(m), rtol=1e-13, atol=0)
            np.testing.assert_allclose(G @ Pi, G @ ref.Pi(m), rtol=1e-13, atol=0)
            np.testing.assert_allclose(e, p.extra(m) + G @ ref.Pi(m), rtol=1e-13, atol=0)

    def test_section_value_errors_match_pointwise(self, chart3):
        # 1/x2 in a generator and 1/x3 in the extra section: the batch raises
        # what evaluating the section at the first failing point raises
        g = section(chart3, ("0", "1", "0"), ("0", "0", "1/x2"))
        extra = section(chart3, ("0", "0", "0"), ("0", "0", "1/x3"))
        p = FoliatedProblem(chart=chart3, generators=(g,), extra=extra, ode_step=0.05, quad_step=0.05)
        good = FoliatedProblem(chart=chart3, generators=(section(chart3, ("0", "1", "0"), ("0", "0", "1")),),
                               extra=extra, ode_step=0.05, quad_step=0.05)
        points = np.array([[0.3, 0.5, 0.2], [0.2, 0.4, 0.0], [0.1, 0.0, 0.4]])
        for evaluate, bad, value in (
            (p._solver.frames, points[2], g),
            (lambda pts: run(good, samples=pts), points[1], extra),
        ):
            with pytest.raises(EvalDomainError) as expected:
                value(bad)
            with pytest.raises(EvalDomainError) as raised:
                evaluate(points)
            assert str(raised.value) == str(expected.value)
            assert raised.value.point == expected.value.point

    def test_a_batch_checks_the_box_before_step_1(self, chart3):
        # the first point's line fails Step 1 past x1 = 0.5, the second point
        # is outside the box: the box of every point is checked first
        g = section(chart3, ("0", "1", "5e-9*exp(20*x1 - 10)"), ("0", "0", "0"))
        p = FoliatedProblem(chart=chart3, generators=(g,), ode_step=0.05)
        with pytest.raises(OutsideBoxError, match=r"^point \[0.0, 2.0, 0.0\] outside chart box"):
            p._solver.frames([[0.9, 0.1, 0.2], [0.0, 2.0, 0.0]])
        with pytest.raises(HypothesisViolated) as exc:
            p._solver.frames([[0.9, 0.1, 0.2]])
        assert exc.value.point == [10 * 0.05 + 0.5 * 0.05, 0.1, 0.2]


class TestNoLineState:
    def test_a_solver_keeps_nothing_of_the_lines_it_integrates(self, chart3, rng):
        from diracgen.invariant_gen import _Solver

        g = section(chart3, ("0", "exp(x1)*(2 + x2)", "0"), ("0", "0", "exp(x1)*(1 + x3)"))
        extra = section(chart3, ("0", "x1*exp(x1)*(2 + x2)", "0"), ("0", "0", "x1*exp(x1)*(1 + x3)"))
        p = FoliatedProblem(chart=chart3, generators=(g,), extra=extra, ode_step=0.1, quad_step=0.1)
        solver = _Solver(p)
        points = np.array(random_points(rng, chart3, 60))

        def Pis(solver, points):
            return solver._evaluate(points, corrected=True)[3]

        F, Pi = solver.frames(points[:5]), Pis(solver, points[:5])  # builds every program
        state = {key: (value, len(value) if isinstance(value, list) else None) for key, value in vars(solver).items()}
        for m in points[5:]:
            solver.frame(m)
            Pis(solver, m[None])
        solver.frames(points)
        Pis(solver, points)
        assert vars(solver).keys() == state.keys()
        for key, (value, length) in state.items():
            assert vars(solver)[key] is value and (length is None or len(value) == length)
        fresh = _Solver(p)
        assert np.array_equal(solver.frames(points[:5]), F) and np.array_equal(fresh.frames(points[:5]), F)
        assert np.array_equal(Pis(solver, points[:5]), Pi) and np.array_equal(Pis(fresh, points[:5]), Pi)


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
        calls = {"_B": [], "_H": []}
        for method in calls:
            def spy(solver, points, *args, _method=method, _original=getattr(_Solver, method)):
                calls[_method].append(np.array(points))
                return _original(solver, points, *args)

            monkeypatch.setattr(_Solver, method, spy)
        samples = p.chart.sample_points(seed=3, n_random=6, margin=0.1)
        run(p, samples=samples)
        # one batch, whose H the corrections share when there is an extra
        # section: the Simpson nodes follow the points in it
        assert len(calls["_B"]) == len(calls["_H"]) == 1
        points = calls["_B"][0]
        assert len(points) == len(samples) * (1 + 4 * p.k)
        assert len(np.unique(points, axis=0)) == len(points)
        assert np.array_equal(calls["_H"][0][: len(points)], points)
        assert len(calls["_H"][0]) == len(points) + (p.extra is not None) * len(p._solver._simpson(points)[0])

    @pytest.mark.parametrize("name", ["e1", "e2", "k2"])
    def test_report_matches_the_pointwise_construction(self, chart3, rng, name):
        from diracgen.distribution import GeneralizedDistribution
        from pointwise import membership_residual, span_residual
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


def run_points(p, samples) -> np.ndarray:
    """The points run() evaluates the frame at: the samples, then the
    stencil points of every sample for each leaf coordinate."""
    samples = np.asarray(samples, dtype=float)
    return np.concatenate([samples] + [_stencil(p.chart, samples, l)[0].reshape(-1, p.n) for l in range(p.k)])


def outcome(exc) -> tuple:
    """An error as (type, message, point, stage)."""
    return type(exc).__name__, str(exc), exc.point, exc.stage


def pointwise_error(p, points):
    """The stage-major reference for run() on a problem with an extra
    section.  Each point of run()'s batch goes alone through run()'s
    stages, in their order (_Solver): 0 the box, 1 H over the point and its
    Simpson nodes (Steps 1 and 2), 2 B's condition, 3 the generators at the
    point (Step 3), 4 Step 4 at the nodes.  Returns the earliest stage any
    point fails in and the outcomes of the errors raised there, or (None,
    []) when no point fails."""
    solver, failed = p._solver, []
    for m in points:
        m = m[None]
        for stage, check in enumerate([
            lambda: solver._checked(m),
            lambda: solver._H(np.concatenate([m, solver._simpson(m)[0]])),
            lambda: solver._B(m, solver._H(m)),
            lambda: solver.generator_matrices(m),
            lambda: step4(p, solver._simpson(m)[0]),
        ]):
            try:
                check()
            except DiracgenError as exc:
                failed.append((stage, outcome(exc)))
                break
    first = min((stage for stage, _ in failed), default=None)
    return first, [error for stage, error in failed if stage == first]


@st.composite
def one_pass_problems(draw, fail=st.sampled_from(["none", "point", "node", "both"])):
    """(problem, samples): k leaf and r transverse coordinates, generator i
    sum_j mix_ij f_j (d/dx^{k+j} + dx^{k+j}) with mix unit lower triangular
    and f_j = exp(a_j . x_leaf) (2 + sin x^{k+j}), so each leaf derivative
    stays in the family's span, and an extra section with drawn
    components.  A failure may be placed at a sample (a generator divides
    by zero there) and past a drawn x1 on Step-4 nodes (the extra
    section's leaf derivative leaves the span)."""
    k, r, fail = draw(st.integers(0, 2)), draw(st.integers(1, 3)), draw(fail)
    n = k + r
    x = [f"x{i + 1}" for i in range(n)]
    c = st.sampled_from(["-0.7", "-0.3", "0.4", "0.9"])
    samples = draw(st.lists(st.lists(st.floats(-0.9, 0.9), min_size=n, max_size=n), min_size=1, max_size=3))
    f = ["*".join([f"exp({c_j}*{x[l]})" for l, c_j in zip(range(k), draw(st.lists(c, min_size=k, max_size=k)))]
                  + [f"(2 + sin({x[k + j]}))"]) for j in range(r)]
    if fail in ("point", "both"):
        f[0] += f"/({x[k]} - {samples[draw(st.integers(0, len(samples) - 1))][k]!r})"
    gens = []
    for i in range(r):
        mix = [draw(st.sampled_from(["0", "0.5", "-0.5"])) for _ in range(i)] + ["1"]
        slots = [f"{a}*{f_j}" for a, f_j in zip(mix, f)] + ["0"] * (r - i - 1)
        gens.append(section(make_chart(n, k=k), ["0"] * k + slots, ["0"] * k + slots))
    chart = gens[0].chart
    term = st.sampled_from(["sin({c}*{a})", "{c}*{a}*{b}", "exp({c}*{a})*{b}"])
    vector = [draw(term).format(c=draw(c), a=draw(st.sampled_from(x)), b=draw(st.sampled_from(x))) for _ in range(n)]
    form = ["0"] * k + vector[k:]
    if fail in ("node", "both") and k:  # on the vector component alone
        vector[k] += f" + 1e-9*exp(40*(x1 - {draw(st.sampled_from(['-0.3', '0.1', '0.5']))}))"
    extra = section(chart, vector, form)
    return FoliatedProblem(chart=chart, generators=tuple(gens), extra=extra, ode_step=0.1, quad_step=0.1), samples


class TestOneStep2Pass:
    """With an extra section, run() evaluates H once, over its points and
    the Simpson nodes of every leaf coordinate, and the extra section's
    decomposition once, over the nodes; it keeps the values of the one-point
    functions, and it raises an error that one of its points raises alone,
    in the earliest stage any of them fails in."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_round_counts(self, k, monkeypatch):
        from diracgen.invariant_gen import _Solver

        calls = {"_fundamental": 0, "_B_on_line": 0, "_decomposition": 0}
        for method in calls:
            def spy(solver, *args, _method=method, _original=getattr(_Solver, method), **kwargs):
                calls[_method] += 1
                return _original(solver, *args, **kwargs)

            monkeypatch.setattr(_Solver, method, spy)
        p = dataclasses.replace(simpson_problem(k))  # a fresh solver
        run(p, samples=p.chart.sample_points(seed=3, n_random=6, margin=0.1))
        # one Step-2 round per leaf coordinate; Step 1 once in each, Step 4 once
        assert calls == {"_fundamental": k, "_B_on_line": k, "_decomposition": k + 1}

    def test_the_one_point_correction_makes_one_round(self, monkeypatch):
        from diracgen.invariant_gen import _Solver

        calls = []
        for method in ("_H", "_fundamental", "_decomposition"):
            def spy(solver, *args, _method=method, _original=getattr(_Solver, method), **kwargs):
                calls.append((_method, len(args[0])) if _method == "_H" else _method)
                return _original(solver, *args, **kwargs)

            monkeypatch.setattr(_Solver, method, spy)
        p = k2_problem()
        m = p.chart.sample_points(seed=3, n_random=1, margin=0.1)[-1]
        rounds = []
        for evaluate in (p._solver.combined, lambda m: compute_Pi(p, m)):
            calls.clear()
            evaluate(m)
            rounds.append(list(calls))
        # the point and its Simpson nodes in one H; one W per leaf index,
        # each solving Step 1, then Step 4 once
        H = ("_H", 1 + len(p._solver._simpson(m[None])[0]))
        assert rounds == [[H] + ["_fundamental", "_decomposition"] * 2 + ["_decomposition"]] * 2

    def test_a_sample_outside_the_box_fails_before_step_4_plans_its_panels(self, chart3):
        # planned from 1e12, the line would take 2.5e14 panels
        with pytest.raises(OutsideBoxError, match=r"point \[1000000000000.0, 0.0, 0.0\] outside chart box"):
            run(e2_problem(chart3), samples=[[0.5, 0.0, 0.0], [1e12, 0.0, 0.0]])

    @settings(max_examples=40, deadline=None)
    @given(case=one_pass_problems())
    def test_run_keeps_the_one_point_values_and_errors(self, case):
        p, samples = case
        stage, expected = pointwise_error(p, run_points(p, samples))
        if stage is None:
            result = run(p, samples=samples)
            for i, m in enumerate(result.samples):
                assert result.sample_Pi[i].tobytes() == compute_Pi(p, m).tobytes()
                if p.k:
                    assert result.sample_combined[i].tobytes() == result.combined(m).tobytes()
        else:
            with pytest.raises(DiracgenError) as raised:
                run(p, samples=samples)
            assert outcome(raised.value) in expected


# the stages (pointwise_error) each injected failure may be raised in
INJECTED = {"box": {0}, "step1": {1}, "step2": {2}, "step3": {3}, "step4": {4}, "overflow": {1, 2}}


@st.composite
def injected_problems(draw):
    """(problem, samples, stages): k = 1 or 2 leaf and two transverse
    coordinates, generator j f_j (d/dx^{k+j} + dx^{k+j}) with f_j =
    exp(a_j x1 + c_j x_k) (2 + sin x^{k+j}), an extra section with drawn
    components, and a failure injected in each drawn stage:
    - box: a sample lies outside the box;
    - step1: the first generator's leaf derivative leaves the span past a
      drawn x1;
    - step2: a_0 is large, so B's condition number passes 1 / tol past a
      drawn |x1|;
    - step3: the first generator's dx1 component divides by zero on the
      x^{k+1} slice of a drawn sample; no decomposition reads it, so only
      the generators at the points evaluate it;
    - step4: the extra section's leaf derivative leaves the span past a
      drawn x1;
    - overflow: the first two generators turn into each other at the rate
      w along x1, (cos, sin) and (-sin, cos) on (f_0, f_1), so their values
      stay bounded while each RK4 step multiplies W by about (0.1 w)^4 / 24,
      and W overflows (Step 2) past a drawn number of steps; for k = 2 the
      product H of finite W's may overflow instead (B's condition)."""
    stages = draw(st.sets(st.sampled_from(["step1", "step2", "step3", "step4", "overflow"])))
    k = draw(st.integers(1, 2))
    if draw(st.integers(0, 4)) == 0:  # rarer: it comes first wherever it is drawn
        stages.add("box")
    n = k + 2
    x = [f"x{i + 1}" for i in range(n)]
    # off the default samples' grid (-0.5, 0, 0.5), where the step3 component must vanish
    value = st.sampled_from([-0.85, -0.55, -0.35, -0.15, 0.15, 0.35, 0.65, 0.85])
    samples = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=3))
    small = st.sampled_from(["-0.7", "0.4", "0.9"])
    # a_0 = 25 passes 1 / tol from |x1| = 0.65; T stays far from degenerate
    a = [draw(st.sampled_from(["18", "25"])) if "step2" in stages else draw(small), "0"]
    f = [f"exp({a_j}*x1 + {draw(small)}*{x[k - 1]})*(2 + sin({x[k + j]}))" for j, a_j in enumerate(a)]
    past = st.sampled_from(["-0.3", "0.1", "0.5"])
    vectors, forms = [["0"] * n for _ in f], [["0"] * n for _ in f]
    for j, f_j in enumerate(f):
        vectors[j][k + j] = forms[j][k + j] = f_j
    if "overflow" in stages:
        steps = draw(st.sampled_from([3, 5, 7]))
        w = (24.0 * 10.0 ** (308.25 / (steps - 0.5))) ** 0.25 / 0.1
        c, s = f"cos({w!r}*x1)", f"sin({w!r}*x1)"
        turned = [[f"{c}*{f[0]}", f"{s}*{f[1]}"], [f"-{s}*{f[0]}", f"{c}*{f[1]}"]]
        for j in range(2):
            vectors[j][k : k + 2] = forms[j][k : k + 2] = turned[j]
    if "step1" in stages:  # on the vector component alone
        vectors[0][k] += f" + 1e-9*exp(40*(x1 - {draw(past)}))"
    if "step3" in stages:
        forms[0][0] = f"(x1 - x1)/({x[k]} - {draw(st.sampled_from(samples))[k]!r})"
    chart = make_chart(n, k=k)
    gens = tuple(section(chart, vector, form) for vector, form in zip(vectors, forms))
    term = st.sampled_from(["sin({c}*{a})", "{c}*{a}*{b}", "exp({c}*{a})*{b}"])
    vector = [draw(term).format(c=draw(small), a=draw(st.sampled_from(x)), b=draw(st.sampled_from(x)))
              for _ in range(n)]
    form = ["0"] * k + vector[k:]
    if "step4" in stages:
        vector[k] += f" + 1e-9*exp(40*(x1 - {draw(past)}))"
    if "box" in stages:
        samples[draw(st.integers(0, len(samples) - 1))][k] = 1.5
    extra = section(chart, vector, form)
    return FoliatedProblem(chart=chart, generators=gens, extra=extra, ode_step=0.1, quad_step=0.1), samples, stages


class TestOneErrorOrder:
    """Each stage checks its whole batch and raises at its first failing
    point, and the stages run in a fixed order (_Solver): with failures
    injected at drawn points in drawn stages, run() raises if and only if
    one of its points raises alone, and then an error that one of them
    raises alone, from the earliest stage any of them fails in."""

    @settings(max_examples=40, deadline=None)
    @given(case=injected_problems())
    def test_the_earliest_stage_raises_at_a_point_that_raises_alone(self, case):
        p, samples, stages = case
        stage, expected = pointwise_error(p, run_points(p, samples))
        try:
            run(p, samples=samples)
        except DiracgenError as exc:
            assert outcome(exc) in expected
            assert stage in set().union(*(INJECTED[name] for name in stages))
        else:
            assert stage is None


class TestLockstepLines:
    """_extend steps the lines of a batch together, longest first, and
    returns their grids as one array; _fundamental raises at the first
    point, in input order, whose W is not finite."""

    @staticmethod
    def solver(chart3):
        from diracgen.invariant_gen import _Solver

        # W = exp(1000 x2 x1) overflows near x1 = 0.71 / x2, where the
        # generator itself still evaluates
        g = section(chart3, ("0", "exp(x2*(1000*x1 - 700))", "0"), ("0", "0", "0"))
        return _Solver(FoliatedProblem(chart=chart3, generators=(g,)))

    @staticmethod
    def extend(solver, lines):
        """_extend on lines [(head, count)] with step ode_step."""
        heads, counts = zip(*lines)
        return solver._extend(0, np.array(heads, dtype=float), list(counts), solver.p.ode_step)

    def test_points_overflowing_at_the_same_step_raise_at_the_first(self, chart3):
        from diracgen.errors import NumericalBreakdownError

        solver = self.solver(chart3)
        with pytest.raises(NumericalBreakdownError) as exc:
            solver._fundamental(0, np.array([[0.95, 1.0, 0.3], [0.95, 1.0, -0.4]]))
        assert exc.value.point == [0.95, 1.0, 0.3] and exc.value.stage == "Step 2"

    def test_the_first_point_in_input_order_raises(self, chart3):
        from diracgen.errors import NumericalBreakdownError

        # the line of the first point breaks first (x2 = 1), at a step past
        # that point, which passes alone; of the points that break, the
        # second comes first in input order, though its line breaks later
        solver = self.solver(chart3)
        points = np.array([[0.3, 1.0, 0.3], [0.9, 0.9, 0.3], [0.9, 1.0, 0.3]])
        solver._fundamental(0, points[:1])
        with pytest.raises(NumericalBreakdownError) as exc:
            solver._fundamental(0, points)
        assert exc.value.point == [0.9, 0.9, 0.3]

    def test_each_line_as_if_integrated_alone(self, chart3):
        solver = self.solver(chart3)
        # lines of different lengths, one of them with no step
        lines = [([0.0, 0.2, 0.1], 40), ([0.0, 0.5, 0.0], 250), ([0.0, 0.9, 0.5], 0), ([0.0, 0.7, 0.6], 7)]
        grid, _ = self.extend(solver, lines)
        starts = np.cumsum([0] + [count for _, count in lines])
        assert grid.shape == (starts[-1], 1, 1)
        for (head, count), start in zip(lines, starts):
            alone, _ = self.extend(solver, [(head, count)])
            assert np.array_equal(grid[start : start + count], alone)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.3, 0.6, 0.75, 0.95]), st.sampled_from([0.75, 0.8, 0.9, 1.0]),
                              st.sampled_from([-0.4, 0.3])), min_size=1, max_size=4))
    def test_the_first_point_to_break_raises(self, points):
        from diracgen.errors import NumericalBreakdownError

        solver = self.solver(make_chart(3, k=1))
        points = np.array(points)

        def alone(m):  # W at m, or None where it breaks
            try:
                return solver._fundamental(0, m[None])[0]
            except NumericalBreakdownError:
                return None

        each = [alone(m) for m in points]
        broken = [m.tolist() for m, W in zip(points, each) if W is None]
        if not broken:
            assert all(np.array_equal(W, Wm) for W, Wm in zip(solver._fundamental(0, points), each))
            return
        with pytest.raises(NumericalBreakdownError) as exc:
            solver._fundamental(0, points)
        assert exc.value.point == broken[0]


def problem_with_step(name, h):
    p = k2_problem() if name == "k2" else e1_problem(make_chart(3, k=1))
    return dataclasses.replace(p, ode_step=h)


class TestStepOneOncePerNode:
    """_fundamental solves Step 1 once per distinct RK4 node, and a point
    within rounding of a grid node reads the grid."""

    @staticmethod
    def recorded(p, j, points):
        from diracgen.invariant_gen import _Solver

        solver, nodes = _Solver(p), []
        decomposition = solver._decomposition

        def spy(program, S, at, *args, **kwargs):
            nodes.append(at.copy())
            return decomposition(program, S, at, *args, **kwargs)

        solver._decomposition = spy
        W = solver._fundamental(j, np.array(points, dtype=float))
        # + 0.0 makes -0.0 and 0.0 one key, as == compares them
        return W, [tuple(row) for row in (np.concatenate(nodes) + 0.0).tolist()] if nodes else []

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(["e1", "k2"]),
        h=st.sampled_from([0.02, None]),
        data=st.data(),
    )
    def test_each_node_once_and_every_pointwise_node_among_them(self, name, h, data):
        p = problem_with_step(name, h)
        step = p.ode_step
        j = data.draw(st.integers(0, p.k - 1))
        leaf = st.one_of(
            st.floats(-0.9, 0.9),
            st.integers(-40, 40).map(lambda i: i * step),
            st.integers(-40, 40).map(lambda i: float(np.nextafter(i * step, 0.0))),
            st.sampled_from([0.0, -0.0, 0.5, -0.25]),
        )
        # few transverse values, so points share lines, start nodes and rows
        other = st.sampled_from([0.1, -0.3, 0.0])
        points = data.draw(st.lists(st.tuples(*[leaf if c == j else other for c in range(p.n)]),
                                    min_size=1, max_size=8))
        W, nodes = self.recorded(p, j, points)
        assert len(set(nodes)) == len(nodes)
        for m, Wm in zip(points, W):
            alone, used = self.recorded(p, j, [m])
            assert set(used) <= set(nodes)
            assert np.array_equal(alone[0], Wm)

    @settings(max_examples=25, deadline=None)
    @given(h=st.sampled_from([0.02, None]), i=st.integers(1, 45), sign=st.sampled_from([1.0, -1.0]))
    def test_a_point_one_ulp_from_a_grid_node_reads_it(self, h, i, sign):
        from diracgen.invariant_gen import _Solver

        p = problem_with_step("e1", h)
        node = sign * i * p.ode_step
        solver = _Solver(p)
        points = np.array([[x, 0.1, 0.2] for x in (np.nextafter(node, 0.0), np.nextafter(node, 2.0 * node))])
        W = solver._fundamental(0, points)
        grid, _ = solver._extend(0, np.array([[0.0, 0.1, 0.2]]), [i], sign * p.ode_step)
        assert np.array_equal(W[0], grid[i - 1]) and np.array_equal(W[1], grid[i - 1])


@pytest.mark.parametrize("key", ["ode_step", "quad_step", "tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-3])
def test_numerics_must_be_finite_and_positive(chart3, key, value):
    g = section(chart3, ("0", "0", "1"), ("0", "0", "0"))
    with pytest.raises(InputError, match=key):
        FoliatedProblem(chart=chart3, generators=(g,), **{key: value})


def test_tol_above_one_is_rejected(chart3):
    """A tol above 1 would reject every linear solve as singular, I included."""
    g = section(chart3, ("0", "0", "1"), ("0", "0", "0"))
    FoliatedProblem(chart=chart3, generators=(g,), tol=1.0)
    with pytest.raises(InputError, match="^tol: 1.5 is above 1$"):
        FoliatedProblem(chart=chart3, generators=(g,), tol=1.5)


@pytest.mark.parametrize("key, steps_per_unit", [("ode_step", 1.0), ("quad_step", 2.0)])
def test_steps_per_line_are_capped(key, steps_per_unit):
    """The longest leaf line of a box (-1, 3) x ... reaches 3 from the zero
    slice: one step fewer than the cap passes, one more is an input error."""
    chart = Chart(coord_names=("x1", "x2", "x3"), leaf_count=1, box=((-1.0, 3.0), (-1.0, 1.0), (-1.0, 1.0)))
    g = section(chart, ("0", "0", "1"), ("0", "0", "0"))
    other = "quad_step" if key == "ode_step" else "ode_step"
    FoliatedProblem(chart=chart, generators=(g,), **{key: 3.0 / (steps_per_unit * MAX_LINE_STEPS), other: 0.1})
    with pytest.raises(InputError, match=f"^{key}: .* above the cap of {MAX_LINE_STEPS}"):
        FoliatedProblem(chart=chart, generators=(g,), **{key: 3.0 / (steps_per_unit * (MAX_LINE_STEPS + 1)),
                                                         other: 0.1})


def test_default_steps_stay_far_below_the_cap(chart3):
    p = FoliatedProblem(chart=chart3, generators=(section(chart3, ("0", "0", "1"), ("0", "0", "0")),))
    assert 1.0 / p.ode_step <= MAX_LINE_STEPS / 100 and 1.0 / (2.0 * p.quad_step) <= MAX_LINE_STEPS / 100


def test_sample_count_is_capped(chart3):
    assert len(chart3.sample_points(n_random=MAX_SAMPLES)) == 27 + MAX_SAMPLES
    with pytest.raises(InputError, match=f"above the cap of {MAX_SAMPLES}"):
        chart3.sample_points(n_random=MAX_SAMPLES + 1)


def test_family_constant_along_the_leaves_skips_the_transform(chart3):
    """With the transverse family constant along the leaves, H = I and the
    transform B = (H^T)^-1 is I without a solve, bit for bit."""
    gens = (section(chart3, ("0", "1", "x2"), ("0", "0", "0")), section(chart3, ("0", "0", "1"), ("0", "x3", "1")))
    p = FoliatedProblem(chart=chart3, generators=gens)
    solver = p._solver
    points = np.array(random_points(np.random.default_rng(5), chart3, 6))
    H = solver._H(points)
    solved = solver._solve_square(np.swapaxes(H, 1, 2), np.broadcast_to(np.eye(2), H.shape), points, "Step 2")
    assert solver.constant_tilde and solver._B(points, H).tobytes() == solved.tobytes()


def test_solver_goes_with_its_problem(chart3):
    """A problem holds its solver, which holds no reference back to it: both
    go with the last reference to the problem and its results, without
    waiting for the garbage collector."""
    p = FoliatedProblem(chart=chart3, generators=(section(chart3, ("0", "exp(x1)", "0"), ("0", "exp(x1)", "0")),))
    result = run(p)
    solver = weakref.ref(p._solver)
    gc.disable()
    try:
        del p, result
        assert solver() is None
    finally:
        gc.enable()
