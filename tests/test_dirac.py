"""Dirac structures, characteristic data, and the reduction pipeline."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from diracgen.calculus import (
    OneForm,
    PontryaginSection,
    VectorField,
    courant_bracket,
    lie_bracket,
    lie_derivative_form,
)
from diracgen import dirac
from diracgen.dirac import (
    DiracStructure,
    InfinitesimalAction,
    PoissonBivector,
    QuotientMap,
    _Lift,
    _courant,
    _jets,
    characteristic_distributions,
    constant_rank_scan,
    descending_generators,
    graph_of_poisson,
    intersect_D_Kperp,
    invariant_annihilator_generators,
    is_closed,
    push_frame,
    pushforward_check,
    vertical_and_K,
)
from diracgen.distribution import annihilator_basis, contains, membership_residual
from diracgen.errors import EvalDomainError, InputError, NumericalBreakdownError, VerificationError
from diracgen.invariant_gen import FoliatedProblem, run
from diracgen.report import record_from_samples
from diracgen.symexpr import Chart, Const, parse

from conftest import make_chart, random_expr, random_points, random_section, random_vector_field


def section(chart, vec, form):
    return PontryaginSection(
        VectorField(chart, tuple(parse(c, chart) for c in vec)),
        OneForm(chart, tuple(parse(c, chart) for c in form)),
    )


def canonical_pi(chart):
    return PoissonBivector(chart, ((parse("0", chart), parse("1", chart)),
                                   (parse("-1", chart), parse("0", chart))))


@pytest.fixture
def chart2():
    return make_chart(2)


@pytest.fixture
def chart2k1():
    return make_chart(2, k=1)


class TestGraphOfPoisson:
    def test_sign_convention_oracle(self, chart2):
        D = graph_of_poisson(canonical_pi(chart2))
        m = np.zeros(2)
        assert np.allclose(D.generators[0](m), [0.0, -1.0, 1.0, 0.0])
        assert np.allclose(D.generators[1](m), [1.0, 0.0, 0.0, 1.0])
        assert D.validate().passed

    def test_zero_bivector(self, chart2):
        pi = PoissonBivector(chart2, ((0.0, 0.0), (0.0, 0.0)))
        D = graph_of_poisson(pi)
        m = np.zeros(2)
        assert np.allclose(D.generators[0](m), [0.0, 0.0, 1.0, 0.0])
        assert np.allclose(D.generators[1](m), [0.0, 0.0, 0.0, 1.0])

    def test_constant_symplectic_r4(self):
        chart = make_chart(4)
        pi = PoissonBivector(
            chart,
            (
                (0.0, 0.0, 1.0, 0.0),
                (0.0, 0.0, 0.0, 1.0),
                (-1.0, 0.0, 0.0, 0.0),
                (0.0, -1.0, 0.0, 0.0),
            ),
        )
        D = graph_of_poisson(pi)
        report = D.validate()
        assert report.passed

    def test_non_antisymmetric_rejected(self, chart2):
        pi = PoissonBivector(chart2, ((0.0, 1.0), (1.0, 0.0)))
        with pytest.raises(InputError):
            graph_of_poisson(pi)

    def test_random_antisymmetric_isotropy(self, chart2, rng):
        for _ in range(10):
            a = parse(f"{rng.normal():.6f} + {rng.normal():.6f}*x1", chart2)
            pi = PoissonBivector(chart2, ((parse("0", chart2), a),
                                          (-1.0 * a, parse("0", chart2))))
            D = graph_of_poisson(pi)
            assert D.validate(tol=1e-9).passed

    def test_non_isotropic_generator_set_rejected(self, chart2):
        D = DiracStructure(
            chart2,
            (
                section(chart2, ("1", "0"), ("1", "0")),
                section(chart2, ("0", "1"), ("0", "0")),
            ),
        )
        report = D.validate()
        assert not report.passed


class TestIsClosed:
    def test_constant_pi_closed(self, chart2):
        assert is_closed(graph_of_poisson(canonical_pi(chart2))).passed

    def test_linear_pi_closed_in_2d(self, chart2):
        a = parse("x1", chart2)
        pi = PoissonBivector(chart2, ((parse("0", chart2), a),
                                      (-1.0 * a, parse("0", chart2))))
        assert is_closed(graph_of_poisson(pi)).passed

    def test_nonclosed_two_form_graph_fails(self):
        chart = make_chart(3)
        # graph of omega = x3 dx1 ^ dx2, which is not a closed two-form
        D = DiracStructure(
            chart,
            (
                section(chart, ("1", "0", "0"), ("0", "x3", "0")),
                section(chart, ("0", "1", "0"), ("-x3", "0", "0")),
                section(chart, ("0", "0", "1"), ("0", "0", "0")),
            ),
        )
        assert D.validate().passed
        report = is_closed(D)
        assert not report.passed
        assert any(r.failing_point is not None for r in report.failures())

    def test_overflowing_bracket_is_domain_error(self, chart2):
        big = "exp(700*x1)"
        D = DiracStructure(chart2, (section(chart2, (big, "0"), ("0", "0")),
                                    section(chart2, (big, "0"), ("0", "0"))))
        with pytest.raises(EvalDomainError) as err:
            is_closed(D, [np.array([0.0, 0.0]), np.array([1.0, 0.0])])
        assert err.value.point == [1.0, 0.0]


def _with_coefficients(s: PontryaginSection, replace) -> PontryaginSection:
    """s with the coefficients at the given flat indices (vector part first)
    replaced by constants."""
    comps = [*s.vf.coeffs, *s.form.coeffs]
    for index, value in replace:
        comps[index % len(comps)] = Const(value)
    n = s.chart.n
    return PontryaginSection(VectorField(s.chart, comps[:n]), OneForm(s.chart, comps[n:]))


def _closure_reference(D: DiracStructure, samples, tol) -> list:
    """is_closed point by point: the symbolic Courant bracket of every
    ordered pair, evaluated with Expr.eval, and membership_residual."""
    dist = D.as_distribution()
    records = []
    for i, a in enumerate(D.generators):
        for j, b in enumerate(D.generators):
            if i != j:
                bracket = courant_bracket(a, b)
                pairs = [(membership_residual(dist, m, bracket(m)) / (1.0 + np.linalg.norm(bracket(m))), m)
                         for m in samples]
                records.append(record_from_samples(f"courant-closure[{i},{j}]", pairs, tol, stage="validity"))
    return [r.as_dict() for r in records]


_replacements = st.lists(st.tuples(st.integers(0, 15), st.sampled_from([0.0, 1.0, -2.5])), max_size=6)


class TestOneBracket:
    """dirac forms every bracket with _courant on 1-jets; on exact jets it
    is bit-identical to the symbolic calculus.courant_bracket."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 4), st.integers(0, 4),
           _replacements, _replacements)
    def test_jet_bracket_equals_symbolic_bracket(self, seed, n, ann_a, ann_b, replace_a, replace_b):
        rng = np.random.default_rng(seed)
        chart = make_chart(n)
        a = _with_coefficients(random_section(rng, chart, annihilate=min(ann_a, n)), replace_a)
        b = _with_coefficients(random_section(rng, chart, annihilate=min(ann_b, n)), replace_b)
        points = random_points(rng, chart, 4)
        V, dV = _jets([a, b], points)
        got = _courant(V[:, 0], dV[:, 0], V[:, 1], dV[:, 1])
        symbolic = courant_bracket(a, b)
        assert np.array_equal(got, np.array([symbolic(m) for m in points]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_is_closed_matches_pointwise_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        chart = make_chart(n)
        rows = [[Const(0.0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = random_expr(rng, chart, 1)
                rows[j][i] = -rows[i][j]
        samples = chart.sample_points(seed=seed % 1000, n_random=6)
        D = graph_of_poisson(PoissonBivector(chart, tuple(map(tuple, rows))), samples)
        got = [r.as_dict() for r in is_closed(D, samples, 1e-9)]
        assert got == _closure_reference(D, samples, 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 3))
    def test_action_validation_matches_symbolic_lie_bracket(self, seed, n, d):
        rng = np.random.default_rng(seed)
        chart = make_chart(n)
        gens = [random_vector_field(rng, chart) for _ in range(d)]
        c = rng.integers(-2, 3, size=(d, d, d)).astype(float).tolist()
        samples = random_points(rng, chart, 5)
        pairs = []
        for a, xa in enumerate(gens):
            for b, xb in enumerate(gens):
                residual = lie_bracket(xa, xb)
                for e, xe in enumerate(gens):
                    residual = residual + c[a][b][e] * xe
                pairs += [(float(np.abs(residual(m)).max(initial=0.0)), m) for m in samples]
        want = record_from_samples("action-anti-homomorphism", pairs, 1e-9, stage="validity")
        got = InfinitesimalAction(chart, gens, c).validate(samples)
        assert [r.as_dict() for r in got] == [want.as_dict()]


class TestCharacteristicDistributions:
    def test_symplectic_plane(self, chart2):
        D = graph_of_poisson(canonical_pi(chart2))
        G0, G1, P0, P1 = characteristic_distributions(D, np.zeros(2))
        assert len(G1) == 2 and len(G0) == 0
        assert len(P1) == 2 and len(P0) == 0

    def test_zero_bivector(self, chart2):
        D = graph_of_poisson(PoissonBivector(chart2, ((0.0, 0.0), (0.0, 0.0))))
        G0, G1, P0, P1 = characteristic_distributions(D, np.zeros(2))
        assert len(G1) == 0
        assert len(P1) == 2

    def test_rank_two_pi_on_r3(self):
        chart = make_chart(3)
        pi = PoissonBivector(
            chart,
            ((0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        )
        D = graph_of_poisson(pi)
        G0, G1, P0, P1 = characteristic_distributions(D, np.zeros(3))
        span = np.array(G1)
        assert len(G1) == 2
        assert np.abs(span[:, 2]).max() < 1e-12  # G1 = span{d1, d2}
        assert len(G0) == 0
        assert len(P0) == 1
        assert np.abs(P0[0][:2]).max() < 1e-12  # P0 = span{dx3}


class TestVerticalAndK:
    def test_rotation(self):
        chart = Chart(coord_names=("x1", "x2"), leaf_count=0,
                      box=((0.5, 1.5), (-0.5, 0.5)))
        xi = VectorField(chart, (parse("0 - x2", chart), parse("x1", chart)))
        action = InfinitesimalAction(chart, (xi,))
        V, K, vperp = vertical_and_K(action)
        basis = vperp(np.array([1.0, 0.0]))
        assert len(basis) == 1
        assert abs(basis[0][1]) < 1e-12  # dx1 direction

    def test_trivial_action(self, chart2):
        action = InfinitesimalAction(chart2, ())
        V, K, vperp = vertical_and_K(action)
        assert len(vperp(np.zeros(2))) == 2

    def test_translation(self, chart2):
        action = InfinitesimalAction(chart2, (VectorField.coordinate(chart2, 0),))
        _, _, vperp = vertical_and_K(action)
        for m in random_points(np.random.default_rng(0), chart2, 5):
            basis = vperp(m)
            assert len(basis) == 1
            assert abs(basis[0][0]) < 1e-12


class TestIntersectDKperp:
    def test_trivial_action_gives_D(self, chart2):
        D = graph_of_poisson(canonical_pi(chart2))
        action = InfinitesimalAction(chart2, ())
        _, rank = intersect_D_Kperp(D, action, np.zeros(2))
        assert rank == 2

    def test_zero_pi_translation(self, chart2):
        D = graph_of_poisson(PoissonBivector(chart2, ((0.0, 0.0), (0.0, 0.0))))
        action = InfinitesimalAction(chart2, (VectorField.coordinate(chart2, 0),))
        basis, rank = intersect_D_Kperp(D, action, np.array([0.3, -0.1]))
        assert rank == 1
        assert abs(basis[0][2]) < 1e-12  # form part has no dx1 component

    def test_canonical_translation(self, chart2):
        D = graph_of_poisson(canonical_pi(chart2))
        action = InfinitesimalAction(chart2, (VectorField.coordinate(chart2, 0),))
        basis, rank = intersect_D_Kperp(D, action, np.zeros(2))
        assert rank == 1
        w = basis[0]
        # span{(d1, dx2)}
        assert abs(w[1]) < 1e-12 and abs(w[2]) < 1e-12
        assert w[0] == pytest.approx(w[3])

    def test_constant_rank_scan_witnesses(self, chart2k1):
        # graph of omega = x1 dx1 ^ dx2: intersection rank jumps at x1 = 0
        D = DiracStructure(
            chart2k1,
            (
                section(chart2k1, ("1", "0"), ("0", "x1")),
                section(chart2k1, ("0", "1"), ("-x1", "0")),
            ),
        )
        action = InfinitesimalAction(chart2k1, (VectorField.coordinate(chart2k1, 0),))
        samples = chart2k1.sample_points(seed=0)
        record, ranks = constant_rank_scan(D, action, samples)
        assert not record.passed
        assert "rank 1" in record.detail and "rank 2" in record.detail
        assert record.failing_point is not None


def translation_setup():
    chart = make_chart(2, k=1)
    D = graph_of_poisson(canonical_pi(chart))
    action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
    gen = section(chart, ("1", "0"), ("0", "1"))
    problem = FoliatedProblem(chart=chart, generators=(gen,))
    return chart, D, action, problem


class TestDescendingGenerators:
    def test_translation_identity_transform(self, rng):
        chart, D, action, problem = translation_setup()
        result = descending_generators(D, action, problem)
        assert result.report.passed
        for m in random_points(rng, chart, 4):
            assert np.allclose(result.frame(m).ravel(), [1.0, 0.0, 0.0, 1.0], atol=1e-8)

    def test_regraded_generator_strips_factor(self, rng):
        chart = make_chart(2, k=1)
        D = graph_of_poisson(canonical_pi(chart))
        action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
        gen = section(chart, ("exp(x1)", "0"), ("0", "exp(x1)"))
        problem = FoliatedProblem(chart=chart, generators=(gen,))
        result = descending_generators(D, action, problem)
        assert result.report.passed
        for m in random_points(rng, chart, 4):
            assert np.allclose(result.frame(m).ravel(), [1.0, 0.0, 0.0, 1.0], atol=1e-7)

    def test_non_foliated_chart_detected(self):
        chart = make_chart(2, k=1)
        D = graph_of_poisson(canonical_pi(chart))
        xi = VectorField(chart, (parse("1", chart), parse("1", chart)))
        action = InfinitesimalAction(chart, (xi,))
        gen = section(chart, ("1", "0"), ("0", "1"))
        problem = FoliatedProblem(chart=chart, generators=(gen,))
        with pytest.raises(InputError):
            descending_generators(D, action, problem)


class TestInvariantAnnihilator:
    def test_already_invariant_unchanged(self, rng):
        chart = make_chart(2, k=1)
        action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
        gen = section(chart, ("0", "0"), ("0", "1"))
        problem = FoliatedProblem(chart=chart, generators=(gen,))
        result = invariant_annihilator_generators(action, problem)
        assert result.report.passed
        assert all(r.stage for r in result.report)
        assert result.report.records[-1].stage == "descending"
        for m in random_points(rng, chart, 3):
            assert np.allclose(result.frame(m).ravel(), [0.0, 0.0, 0.0, 1.0])

    def test_exp_factor_stripped(self, rng):
        chart = make_chart(3, k=1)
        action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
        gen = section(chart, ("0", "0", "0"), ("0", "exp(x1)", "0"))
        problem = FoliatedProblem(chart=chart, generators=(gen,))
        result = invariant_annihilator_generators(action, problem)
        assert result.report.passed
        expected = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        for m in random_points(rng, chart, 4):
            assert np.allclose(result.frame(m).ravel(), expected, atol=1e-7)

    def test_rotation_in_polar(self, rng):
        chart = Chart(coord_names=("theta", "r"), leaf_count=1,
                      box=((-3.0, 3.0), (1.0, 2.0)))
        action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
        gen = section(chart, ("0", "0"), ("0", "exp(0.3*theta)*r"))
        problem = FoliatedProblem(chart=chart, generators=(gen,))
        result = invariant_annihilator_generators(action, problem)
        assert result.report.passed
        # straightened form is r*dr at theta = 0, independent of theta
        lo = np.array([1.2, 0.0])
        for theta in (-2.0, 0.0, 1.7):
            m = np.array([theta, 1.4])
            F = result.frame(m)
            assert F[3, 0] == pytest.approx(1.4, abs=1e-6)

    def test_vector_part_rejected(self):
        chart = make_chart(2, k=1)
        action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
        gen = section(chart, ("0", "1"), ("0", "1"))
        problem = FoliatedProblem(chart=chart, generators=(gen,))
        with pytest.raises(InputError):
            invariant_annihilator_generators(action, problem)


class TestPushforward:
    def test_translation_reduction(self):
        chart, D, action, problem = translation_setup()
        result = descending_generators(D, action, problem)
        target = make_chart(1)
        q = QuotientMap(chart, Chart(coord_names=("y",), leaf_count=0), (parse("x2", chart),))
        report = pushforward_check(D, action, q, result)
        assert report.passed
        Xbar, abar, residual = push_frame(q, result.frame, np.array([0.3, 0.4]), 1e-7)
        assert np.allclose(Xbar, 0.0, atol=1e-9)
        assert abar[0, 0] == pytest.approx(1.0)
        assert residual < 1e-9

    def test_nonlinear_quotient_lift(self):
        chart, D, action, problem = translation_setup()
        result = descending_generators(D, action, problem)
        target = Chart(coord_names=("y",), leaf_count=0, box=((-2.0, 2.0),))
        q = QuotientMap(chart, target, (parse("x2 + x2^3", chart),))
        report = pushforward_check(D, action, q, result)
        assert report.passed
        assert "reduced-closure" in [r.check for r in report]
        lift = _Lift(q, np.array([0.0, 0.0]))
        x = lift(np.array([1.0]))
        # the real root of t^3 + t - 1
        assert x[1] == pytest.approx(0.6823278038280193, abs=1e-9)
        assert q(x)[0] == pytest.approx(1.0, abs=1e-8)
        # y = 5 needs x2 > 1, outside the source box
        with pytest.raises(VerificationError):
            lift(np.array([5.0]))

    def test_one_frame_batch_matches_point_by_point(self):
        chart, D, action, problem = translation_setup()
        result = descending_generators(D, action, problem)
        target = Chart(coord_names=("y",), leaf_count=0, box=((-2.0, 2.0),))
        q = QuotientMap(chart, target, (parse("x2 + x2^3", chart),))
        batches = []
        frames = result.frames

        def counted(points):
            batches.append(len(points))
            return frames(points)

        result.frames = counted
        batched = pushforward_check(D, action, q, result)
        pointwise = pushforward_check(D, action, q, result.frame)
        assert [r.as_dict() for r in batched] == [r.as_dict() for r in pointwise]
        # samples, 10 fiber pairs, 6 lifted targets with a 4-point stencil each
        assert batches == [len(chart.sample_points(margin=0.1)) + 2 * 10 + 6 * 5]

    def test_errors_keep_the_point_by_point_order(self):
        # the stencil of the first target reaches past q(box) = [-2, 2], so
        # its lift fails; point by point, the frame error at the second
        # sample comes first
        chart, D, action, problem = translation_setup()
        target = Chart(coord_names=("y",), leaf_count=0, box=((-3.0, 3.0),))
        q = QuotientMap(chart, target, (parse("x2 + x2^3", chart),))
        samples = [np.array([0.0, 0.99]), np.array([0.2, 0.5])]
        F = np.array([[0.0], [0.0], [0.0], [1.0]])

        def frame(m):
            if m[1] == 0.5:
                raise NumericalBreakdownError("frame fails here", point=list(m))
            return F

        with pytest.raises(NumericalBreakdownError):
            pushforward_check(D, action, q, frame, samples=samples)
        with pytest.raises(VerificationError):
            pushforward_check(D, action, q, lambda m: F, samples=samples)

    def test_every_record_names_its_stage(self):
        chart, D, action, problem = translation_setup()
        samples = chart.sample_points(n_random=4, margin=0.1)
        result = descending_generators(D, action, problem, samples=samples)
        q = QuotientMap(chart, Chart(coord_names=("y",), leaf_count=0), (parse("x2", chart),))
        pushed = pushforward_check(D, action, q, result, samples=samples)
        validity = D.validate(samples)
        validity.extend(action.validate(samples))
        validity.extend(q.validate(action, samples))
        validity.extend(is_closed(D, samples))
        scan, _ = constant_rank_scan(D, action, samples)
        stages = {r.check: r.stage for rep in (result.report, pushed, validity) for r in rep}
        stages[scan.check] = scan.stage
        assert stages == {
            "frame-spans-distribution": "Step 3",
            "frame-leaf-invariance[0]": "Step 2",
            "supplied-family-in-intersection": "rank scan",
            "supplied-family-spans-intersection": "rank scan",
            "frame-forms-action-invariant[0]": "descending",
            "frame-vectors-preserve-vertical[0]": "descending",
            "pushed-forms-are-pullbacks": "pushforward",
            "reduced-rank": "pushforward",
            "reduced-isotropy": "pushforward",
            "fiber-consistency": "pushforward",
            "reduced-closure": "pushforward",
            "lagrangian-rank": "validity",
            "lagrangian-isotropy": "validity",
            "quotient-submersion-rank": "validity",
            "quotient-constant-on-fibers": "validity",
            "courant-closure[0,1]": "validity",
            "courant-closure[1,0]": "validity",
            "constant-rank-intersection": "rank scan",
        }

    def test_trivial_action_identity_quotient(self, chart2, rng):
        D = graph_of_poisson(canonical_pi(chart2))
        action = InfinitesimalAction(chart2, ())
        target = Chart(coord_names=("y1", "y2"), leaf_count=0)
        q = QuotientMap(chart2, target, (parse("x1", chart2), parse("x2", chart2)))
        problem = FoliatedProblem(chart=chart2, generators=D.generators)
        result = run(problem)
        report = pushforward_check(D, action, q, result)
        assert report.passed
        m = np.array([0.2, -0.4])
        Xbar, abar, _ = push_frame(q, result.frame, m, 1e-7)
        assert np.allclose(np.vstack([Xbar, abar]), D.matrix_at(m))

    def test_rotation_annulus_reduction(self):
        chart = Chart(coord_names=("theta", "r"), leaf_count=1,
                      box=((-3.0, 3.0), (1.0, 2.0)))
        D = graph_of_poisson(canonical_pi(chart))
        action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
        gen = section(chart, ("1", "0"), ("0", "1"))
        problem = FoliatedProblem(chart=chart, generators=(gen,))
        result = descending_generators(D, action, problem)
        assert result.report.passed
        target = Chart(coord_names=("rbar",), leaf_count=0, box=((1.0, 2.0),))
        q = QuotientMap(chart, target, (parse("r", chart),))
        report = pushforward_check(D, action, q, result)
        assert report.passed
        names = [r.check for r in report]
        assert "reduced-rank" in names and "reduced-closure" in names

    def test_reduced_pairing_identity(self, rng):
        chart, D, action, problem = translation_setup()
        result = descending_generators(D, action, problem)
        q = QuotientMap(chart, Chart(coord_names=("y",), leaf_count=0), (parse("x2", chart),))
        for m in random_points(rng, chart, 5):
            F = result.frame(m)
            Xbar, abar, _ = push_frame(q, result.frame, m, 1e-7)
            n = chart.n
            for i in range(F.shape[1]):
                for j in range(F.shape[1]):
                    source = F[n:, j] @ F[:n, i] + F[n:, i] @ F[:n, j]
                    target_val = abar[:, j] @ Xbar[:, i] + abar[:, i] @ Xbar[:, j]
                    assert target_val == pytest.approx(source, abs=1e-9)


_unit = st.floats(0.0, 1.0)
_coeff = st.floats(0.1, 10.0)
_interval = st.tuples(st.floats(-3.0, 2.0), st.floats(0.1, 3.0)).map(lambda t: (t[0], t[0] + t[1]))


def _cubic_quotient(a, b, box2):
    chart = Chart(coord_names=("x1", "x2"), leaf_count=1, box=((-1.0, 1.0), box2))
    target = Chart(coord_names=("y",), leaf_count=0)
    return QuotientMap(chart, target, (parse(f"{a!r}*x2 + {b!r}*x2^3", chart),))


def _linear_quotient(A, box2, box3):
    chart = Chart(coord_names=("x1", "x2", "x3"), leaf_count=1, box=((-1.0, 1.0), box2, box3))
    target = Chart(coord_names=("y1", "y2"), leaf_count=0)
    rows = tuple(parse(f"{row[0]!r}*x2 + {row[1]!r}*x3", chart) for row in A)
    return QuotientMap(chart, target, rows)


def _wide_quotient(a, b, box2, box3):
    """One target coordinate from two transverse ones: a Jacobian wider than
    the target, so the minimum-norm step splits between x2 and x3."""
    chart = Chart(coord_names=("x1", "x2", "x3"), leaf_count=1, box=((-1.0, 1.0), box2, box3))
    target = Chart(coord_names=("y",), leaf_count=0)
    return QuotientMap(chart, target, (parse(f"{a!r}*x2 + {b!r}*x3", chart),))


def _box_point(chart, fractions):
    return np.array([lo + t * (hi - lo) for (lo, hi), t in zip(chart.box, fractions)])


def _assert_lifts(q, reference, m):
    y = q(m)
    x = _Lift(q, reference)(y)
    assert q.source.contains(x, slack=0.0)
    assert np.linalg.norm(q(x) - y) <= 1e-8


class TestLift:
    """The box-clamped Gauss-Newton lift through a quotient map."""

    @settings(max_examples=150, deadline=None)
    @given(_coeff, _coeff, _interval, st.tuples(_unit, _unit), st.tuples(_unit, _unit))
    def test_cubic_lifts_every_source_point(self, a, b, box2, at, ref):
        q = _cubic_quotient(a, b, box2)
        _assert_lifts(q, _box_point(q.source, ref), _box_point(q.source, at))

    @settings(max_examples=100, deadline=None)
    @given(_coeff, _coeff, _interval, st.tuples(_unit, _unit), st.floats(1e-6, 10.0), st.booleans())
    def test_cubic_rejects_targets_outside_the_image(self, a, b, box2, ref, gap, above):
        q = _cubic_quotient(a, b, box2)
        lo, hi = box2
        y = q(np.array([0.0, hi]))[0] + gap if above else q(np.array([0.0, lo]))[0] - gap
        with pytest.raises(VerificationError):
            _Lift(q, _box_point(q.source, ref))(np.array([y]))

    _matrix = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4).map(lambda v: (v[:2], v[2:]))

    @settings(max_examples=100, deadline=None)
    @given(_matrix, _interval, _interval, st.tuples(_unit, _unit, _unit), st.tuples(_unit, _unit, _unit))
    def test_linear_map_lifts_every_source_point(self, A, box2, box3, at, ref):
        assume(abs(A[0][0] * A[1][1] - A[0][1] * A[1][0]) >= 0.25)
        q = _linear_quotient(A, box2, box3)
        _assert_lifts(q, _box_point(q.source, ref), _box_point(q.source, at))

    @settings(max_examples=100, deadline=None)
    @given(_matrix, _interval, _interval, st.tuples(_unit, _unit, _unit),
           st.tuples(_unit, _unit), st.floats(0.01, 2.0), st.integers(0, 3))
    def test_linear_map_rejects_targets_outside_the_image(self, A, box2, box3, ref, at, gap, side):
        assume(abs(A[0][0] * A[1][1] - A[0][1] * A[1][0]) >= 0.25)
        q = _linear_quotient(A, box2, box3)
        # a source point beyond one face of the (x2, x3) box: its image is
        # at least sigma_min * gap > 1e-8 away from the image of the box
        z = _box_point(q.source, (0.5, *at))
        lo, hi = q.source.box[1 + side // 2]
        z[1 + side // 2] = hi + gap if side % 2 else lo - gap
        with pytest.raises(VerificationError):
            _Lift(q, _box_point(q.source, ref))(q(z))

    _signed = st.tuples(_coeff, st.booleans()).map(lambda t: t[0] if t[1] else -t[0])
    _skewed = st.tuples(st.floats(-50.0, 50.0), st.floats(0.1, 100.0)).map(lambda t: (t[0], t[0] + t[1]))

    @settings(max_examples=150, deadline=None)
    @given(_signed, _signed, _skewed, _skewed, st.tuples(_unit, _unit, _unit), st.tuples(_unit, _unit, _unit))
    def test_wide_jacobian_lifts_every_source_point(self, a, b, box2, box3, at, ref):
        q = _wide_quotient(a, b, box2, box3)
        _assert_lifts(q, _box_point(q.source, ref), _box_point(q.source, at))

    @settings(max_examples=100, deadline=None)
    @given(_signed, _signed, _skewed, _skewed, st.tuples(_unit, _unit, _unit), st.floats(1e-6, 10.0),
           st.booleans())
    def test_wide_jacobian_rejects_targets_outside_the_image(self, a, b, box2, box3, ref, gap, above):
        q = _wide_quotient(a, b, box2, box3)
        ends = [a * x2 + b * x3 for x2 in box2 for x3 in box3]
        y = max(ends) + gap if above else min(ends) - gap
        with pytest.raises(VerificationError):
            _Lift(q, _box_point(q.source, ref))(np.array([y]))

    def test_clipped_first_step_still_reaches_the_target(self):
        # the minimum-norm step moves mostly x2, which the box stops at 1;
        # x3 alone must then carry the rest of the residual
        q = _wide_quotient(1.0, 0.01, (0.0, 1.0), (0.0, 100.0))
        _assert_lifts(q, np.array([0.0, 0.5, 50.0]), np.array([0.0, 0.9, 90.0]))

    def test_repeated_target_lifts_to_the_same_point(self):
        q = _cubic_quotient(1.0, 1.0, (-1.0, 1.0))
        lift = _Lift(q, np.array([0.0, 0.0]))
        state = dict(vars(lift))
        first = lift(np.array([1.0]))
        second = lift(np.array([1.0]))
        assert np.array_equal(first, second) and first is not second
        assert vars(lift).keys() == state.keys()
        assert all(vars(lift)[key] is value for key, value in state.items())

    def test_lift_calls_the_module_solver(self, monkeypatch):
        calls = []
        solver = dirac.least_squares

        def counted(*args, **kwargs):
            calls.append(args)
            return solver(*args, **kwargs)

        monkeypatch.setattr(dirac, "least_squares", counted)
        q = _cubic_quotient(1.0, 1.0, (-1.0, 1.0))
        _Lift(q, np.array([0.0, 0.0]))(np.array([1.0]))
        assert len(calls) == 1

    def test_import_leaves_scipy_out(self):
        code = "import sys, diracgen, diracgen.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=root)
        assert out.stdout.strip() == "False"


class TestActionSymmetryIdentities:
    def test_lie_derivative_of_generators_stays_in_D(self, chart2, rng):
        # rotation is a symmetry of the canonical symplectic structure
        D = graph_of_poisson(canonical_pi(chart2))
        xi = VectorField(chart2, (parse("0 - x2", chart2), parse("x1", chart2)))
        dist = D.as_distribution()
        for g in D.generators:
            moved = PontryaginSection(
                lie_bracket(xi, g.vf), lie_derivative_form(xi, g.form)
            )
            for m in random_points(rng, chart2, 5):
                assert contains(dist, m, moved(m), 1e-9)

    def test_lie_derivative_of_vperp_form_kills_generators(self, chart2, rng):
        # radial form annihilates the rotation field; so does its Lie derivative
        xi = VectorField(chart2, (parse("0 - x2", chart2), parse("x1", chart2)))
        alpha = OneForm(chart2, (parse("x1", chart2), parse("x2", chart2)))
        moved = lie_derivative_form(xi, alpha)
        for m in random_points(rng, chart2, 5):
            assert abs(float(moved(m) @ xi(m))) < 1e-12

    def test_structure_constants_validated(self, chart2):
        xi1 = VectorField.coordinate(chart2, 0)
        xi2 = VectorField.coordinate(chart2, 1)
        action = InfinitesimalAction(
            chart2, (xi1, xi2), (((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)))
        )
        assert action.validate().passed
