"""Acceptance suite: ten oracle-backed end-to-end criteria.

Each test prints one summary line of the form ``[PASS]``/``[FAIL]`` with
the measured worst residual, then asserts at the pinned tolerance.  Run
with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from diracgen.calculus import OneForm, PontryaginSection, VectorField, pairing
from diracgen.dirac import (
    DiracStructure,
    InfinitesimalAction,
    PoissonBivector,
    QuotientMap,
    graph_of_poisson,
    invariant_annihilator_generators,
    is_closed,
    push_frame,
    pushforward_check,
    descending_generators,
)
from diracgen.invariant_gen import FoliatedProblem, compute_Pi, fundamental_matrix, run
from diracgen.symexpr import ZERO, Chart, Const, parse

from conftest import (
    make_chart,
    random_one_form,
    random_points,
    random_section,
    random_vector_field,
)
from pointwise import (
    courant_bracket,
    differential,
    leaf_directional_derivative,
    lie_bracket,
    lie_derivative_form,
    skew_bracket,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = os.path.join(ROOT, "problems")


def verdict(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def section(chart, vec, form):
    return PontryaginSection(
        VectorField(chart, tuple(parse(c, chart) for c in vec)),
        OneForm(chart, tuple(parse(c, chart) for c in form)),
    )


def test_criterion_01_bracket_algebra_suite():
    """Antisymmetry, the Courant/skew discrepancy, and the two leaf-field
    bracket specializations over a randomized corpus; residual <= 1e-9."""
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    n_sections = 0
    for n in (2, 3, 4):
        chart = make_chart(n)
        points = random_points(rng, chart, 100)
        for _ in range(14):
            a = random_section(rng, chart, depth=1)
            b = random_section(rng, chart, depth=1)
            n_sections += 2
            anti = skew_bracket(a, b) + skew_bracket(b, a)
            disc_c = courant_bracket(a, b)
            disc_s = skew_bracket(a, b)
            half_d = differential(pairing(a, b), chart) * 0.5
            for m in points:
                worst = max(worst, float(np.abs(anti(m)).max()))
                delta = disc_c(m) - disc_s(m)
                worst = max(worst, float(np.abs(delta[:n]).max()))
                worst = max(worst, float(np.abs(delta[n:] - half_d(m)).max()))
        # leaf-field specializations: Y tangent to x1, forms kill dx1
        for _ in range(6):
            Y = VectorField(
                chart,
                (parse("x2", chart),) + (Const(0.0),) * (n - 1),
            )
            s = random_section(rng, chart, depth=1, annihilate=1)
            n_sections += 1
            theta = PontryaginSection.from_vector(Y)
            lhs = skew_bracket(theta, s)
            exp_vf = lie_bracket(Y, s.vf)
            exp_form = lie_derivative_form(Y, s.form)
            f = parse("exp(x1) + x2", chart)
            lhs_f = skew_bracket(theta, f * s)
            term = skew_bracket(theta, s)
            Yf = sum((c * f.diff(i) for i, c in enumerate(Y.coeffs)), ZERO)  # Y[f]
            for m in points[:50]:
                worst = max(worst, float(np.abs(lhs(m)[:n] - exp_vf(m)).max()))
                worst = max(worst, float(np.abs(lhs(m)[n:] - exp_form(m)).max()))
                rhs = Yf.eval(m) * s(m) + f.eval(m) * term(m)
                worst = max(worst, float(np.abs(lhs_f(m) - rhs).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0 and n_sections >= 100
    verdict(
        "criterion 1 (bracket algebra suite)",
        ok,
        f"{n_sections} sections, worst residual {worst:.3e} (tol 1e-9), {elapsed:.2f}s (< 10s)",
    )


def e1_problem():
    chart = make_chart(3, k=1)
    g = section(chart, ("0", "exp(x1)", "0"), ("0", "exp(x1)", "0"))
    # 4th-order integration at step 0.02 leaves errors far below the
    # 1e-6 target while keeping the end-to-end run inside its time budget
    return FoliatedProblem(chart=chart, generators=(g,), ode_step=0.02)


def test_criterion_02_e1_end_to_end():
    """Straightening strips the e^{x1} factor; frame matches the constant
    oracle within 1e-6 and the span/invariance residuals stay below 1e-6."""
    t0 = time.perf_counter()
    p = e1_problem()
    result = run(p, tol=1e-6)
    frame = result.frame
    oracle = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    worst_frame = 0.0
    for m in p.chart.sample_points(margin=0.1):
        worst_frame = max(worst_frame, float(np.abs(frame(m).ravel() - oracle).max()))
    worst_check = max(r.worst_residual for r in result.report)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_frame <= 1e-6
        and result.report.passed
        and worst_check <= 1e-6
        and elapsed < 5.0
    )
    verdict(
        "criterion 2 (E1 end-to-end)",
        ok,
        f"frame error {worst_frame:.3e}, check residual {worst_check:.3e} "
        f"(tol 1e-6), {elapsed:.2f}s (< 5s)",
    )


def e2_problem(extra_coeff="x1"):
    chart = make_chart(3, k=1)
    g1 = section(chart, ("0", "1", "0"), ("0", "0", "0"))
    g2 = section(chart, ("0", "0", "0"), ("0", "0", "1"))
    extra = section(chart, ("0", extra_coeff, "0"), ("0", "0", extra_coeff))
    return FoliatedProblem(chart=chart, generators=(g1, g2), extra=extra)


def test_criterion_03_e2_correction():
    """The correction coefficients match the exact antiderivative oracle
    (-x1, -x1) and cancel the extra section."""
    p = e2_problem()
    result = run(p, tol=1e-6)
    worst_pi = 0.0
    worst_combined = 0.0
    for m in p.chart.sample_points(margin=0.1):
        Pi = compute_Pi(p, m)
        worst_pi = max(worst_pi, float(np.abs(Pi - [-m[0], -m[0]]).max()))
        worst_combined = max(worst_combined, float(np.abs(result.combined(m)).max()))
    worst_check = max(r.worst_residual for r in result.report)
    ok = worst_pi <= 1e-6 and worst_combined <= 1e-6 and worst_check <= 1e-6
    verdict(
        "criterion 3 (E2 Step-4 correction)",
        ok,
        f"Pi error {worst_pi:.3e}, combined norm {worst_combined:.3e}, "
        f"property residual {worst_check:.3e} (tol 1e-6)",
    )


def test_criterion_04_fourth_order_convergence():
    """Halving the ODE and quadrature steps shrinks the fundamental-matrix
    defect and the correction error by at least 8x per halving."""
    chart = make_chart(3, k=1)
    x_probe = 0.8
    delta = 1e-4

    # fundamental-matrix defect |dW/dx - B^T W| with W = e^{x^2}
    g = section(chart, ("0", "exp(x1^2)", "0"), ("0", "0", "0"))
    defects = []
    for h in (0.2, 0.1, 0.05, 0.025):
        p = FoliatedProblem(chart=chart, generators=(g,), ode_step=h)

        def W(x):
            return fundamental_matrix(p, 0, np.array([x, 0.0, 0.0]))[0, 0]

        fd = (-W(x_probe + 2 * delta) + 8 * W(x_probe + delta)
              - 8 * W(x_probe - delta) + W(x_probe - 2 * delta)) / (12 * delta)
        defects.append(abs(fd - 2.0 * x_probe * W(x_probe)))

    pi_errors = []
    for h in (0.2, 0.1, 0.05, 0.025):
        p = e2_problem("sin(x1)")
        p = FoliatedProblem(
            chart=p.chart, generators=p.generators, extra=p.extra,
            ode_step=h, quad_step=h,
        )
        Pi = compute_Pi(p, np.array([x_probe, 0.0, 0.0]))
        pi_errors.append(float(np.abs(Pi + np.sin(x_probe)).max()))

    w_factors = [defects[i] / defects[i + 1] for i in range(3)]
    pi_factors = [pi_errors[i] / pi_errors[i + 1] for i in range(3)]
    ok = all(f >= 8.0 for f in w_factors) and all(f >= 8.0 for f in pi_factors)
    verdict(
        "criterion 4 (4th-order convergence)",
        ok,
        f"W-defect factors {[f'{f:.1f}' for f in w_factors]}, "
        f"Pi-error factors {[f'{f:.1f}' for f in pi_factors]} (all >= 8)",
    )


def test_criterion_05_step2_leaf_independence():
    """Finite differences of the transverse frame block along the leaf
    coordinates stay below 1e-5 x scale, on E1 and on a k=2 example with
    the closed-form diagonal transform."""
    worst = 0.0

    p1 = e1_problem()
    frame1 = p1._solver.frame
    for m in p1.chart.sample_points(margin=0.1)[:20]:
        scale = 1.0 + float(np.abs(frame1(m)).max())
        dF = leaf_directional_derivative(frame1, p1.chart, m, 0)
        worst = max(worst, float(np.abs(dF[1:]).max()) / scale)

    chart = make_chart(4, k=2)
    b1, b2, c1, c2 = 0.7, -0.4, -0.3, 0.5
    g1 = section(chart, ("0", "0", f"exp({b1}*x1 + {b2}*x2)", "0"), ("0",) * 4)
    g2 = section(chart, ("0", "0", "0", f"exp({c1}*x1 + {c2}*x2)"), ("0",) * 4)
    p2 = FoliatedProblem(chart=chart, generators=(g1, g2))
    frame2 = p2._solver.frame
    worst_H = 0.0
    for m in p2.chart.sample_points(margin=0.1)[:20]:
        scale = 1.0 + float(np.abs(frame2(m)).max())
        for l in (0, 1):
            dF = leaf_directional_derivative(frame2, p2.chart, m, l)
            worst = max(worst, float(np.abs(dF[2:]).max()) / scale)
        H = p2._solver._H(np.array([m]))[0]
        oracle = np.diag([np.exp(b1 * m[0] + b2 * m[1]), np.exp(c1 * m[0] + c2 * m[1])])
        worst_H = max(worst_H, float(np.abs(H - oracle).max()))
    ok = worst <= 1e-5 and worst_H <= 1e-6
    verdict(
        "criterion 5 (Step-2 leaf independence)",
        ok,
        f"leaf-derivative residual {worst:.3e} (tol 1e-5), "
        f"diagonal H oracle error {worst_H:.3e}",
    )


def test_criterion_06_invariant_annihilator_pipeline():
    """Spanning family of the vertical annihilator is straightened into
    action-invariant forms; Lie-derivative residual <= 1e-6."""
    chart = make_chart(3, k=1)
    action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
    gen = section(chart, ("0", "0", "0"), ("0", "exp(x1)", "0"))
    problem = FoliatedProblem(chart=chart, generators=(gen,))
    result = invariant_annihilator_generators(action, problem, tol=1e-6)
    invariance = [
        r for r in result.report if r.check.startswith("annihilator-frame-action-invariant")
    ]
    worst = max(r.worst_residual for r in invariance)

    polar = Chart(coord_names=("theta", "r"), leaf_count=1,
                  box=((-3.0, 3.0), (1.0, 2.0)))
    p_action = InfinitesimalAction(polar, (VectorField.coordinate(polar, 0),))
    p_gen = section(polar, ("0", "0"), ("0", "exp(0.3*theta)*r"))
    p_problem = FoliatedProblem(chart=polar, generators=(p_gen,))
    p_result = invariant_annihilator_generators(p_action, p_problem, tol=1e-6)
    p_invariance = [
        r for r in p_result.report if r.check.startswith("annihilator-frame-action-invariant")
    ]
    worst = max(worst, max(r.worst_residual for r in p_invariance))
    ok = result.report.passed and p_result.report.passed and worst <= 1e-6
    verdict(
        "criterion 6 (invariant annihilator pipeline)",
        ok,
        f"Lie-derivative residual {worst:.3e} (tol 1e-6), translation and polar cases",
    )


def test_criterion_07_dirac_suite():
    """Random antisymmetric bivectors certify Lagrangian; constant ones
    certify closed; a non-isotropic family is rejected."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(50):
        n = 2 if trial % 2 == 0 else 3
        chart = make_chart(n)
        entries = {}
        for i in range(n):
            for j in range(i + 1, n):
                coeff = float(rng.normal())
                name = chart.coord_names[int(rng.integers(0, n))]
                entries[(i, j)] = parse(f"{coeff:.6f} + {float(rng.normal()):.6f}*{name}", chart)
        comps = [[Const(0.0)] * n for _ in range(n)]
        for (i, j), e in entries.items():
            comps[i][j] = e
            comps[j][i] = -1.0 * e
        pi = PoissonBivector(chart, tuple(tuple(row) for row in comps))
        report = graph_of_poisson(pi).validate(tol=1e-9)
        assert report.passed
        worst = max(worst, max(r.worst_residual for r in report))

    chart2 = make_chart(2)
    const_pi = PoissonBivector(chart2, ((0.0, 1.0), (-1.0, 0.0)))
    closed_ok = is_closed(graph_of_poisson(const_pi)).passed

    non_isotropic = DiracStructure(
        chart2,
        (
            section(chart2, ("1", "0"), ("1", "0")),
            section(chart2, ("0", "1"), ("0", "0")),
        ),
    )
    rejected = not non_isotropic.validate().passed
    ok = worst <= 1e-9 and closed_ok and rejected
    verdict(
        "criterion 7 (Dirac suite)",
        ok,
        f"50 random bivectors, worst Lagrangian residual {worst:.3e} (tol 1e-9); "
        f"constant pi closed: {closed_ok}; non-isotropic rejected: {rejected}",
    )


def test_criterion_08_translation_reduction():
    """Full reduction of the canonical structure by the x1 translation:
    reduced rank 1, isotropy and fiber consistency within 1e-6, closedness
    certified at samples."""
    chart = make_chart(2, k=1)
    D = graph_of_poisson(PoissonBivector(chart, ((0.0, 1.0), (-1.0, 0.0))))
    action = InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
    gen = section(chart, ("1", "0"), ("0", "1"))
    problem = FoliatedProblem(chart=chart, generators=(gen,))
    result = descending_generators(D, action, problem)
    q = QuotientMap(chart, Chart(coord_names=("y",), leaf_count=0), (parse("x2", chart),))
    report = pushforward_check(D, action, q, result, tol=1e-6)
    by_name = {r.check: r for r in report}
    rank_ok = by_name["reduced-rank"].passed
    iso = by_name["reduced-isotropy"].worst_residual
    fiber = by_name["fiber-consistency"].worst_residual
    closed_ok = by_name["reduced-closure"].passed
    ok = (
        result.report.passed
        and rank_ok
        and iso <= 1e-6
        and fiber <= 1e-6
        and closed_ok
    )
    verdict(
        "criterion 8 (translation reduction)",
        ok,
        f"rank 1: {rank_ok}, isotropy {iso:.3e}, fiber consistency {fiber:.3e} "
        f"(tol 1e-6), closedness certified: {closed_ok}",
    )


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "diracgen.cli", *args],
        capture_output=True, text=True, cwd=ROOT,
    )


def test_criterion_09_negative_controls():
    """Hypothesis violation aborts in Step 1 (exit 1), a singular transform
    aborts in Step 2 (exit 3), and a rank-jumping intersection fails the
    scan with two witness points."""
    bad = run_cli("invariant-generators", os.path.join(PROBLEMS, "bad_hypothesis.json"))
    step1_ok = bad.returncode == 1 and "Step 1" in bad.stderr

    breakdown = run_cli(
        "invariant-generators", os.path.join(PROBLEMS, "numerical_breakdown.json")
    )
    step2_ok = breakdown.returncode == 3 and "Step 2" in breakdown.stderr

    jump = run_cli("dirac-reduce", os.path.join(PROBLEMS, "rank_jump.json"))
    recs = [json.loads(line) for line in jump.stdout.splitlines()]
    scan = [r for r in recs if r.get("check") == "constant-rank-intersection"]
    witnesses_ok = (
        jump.returncode == 1
        and scan
        and not scan[0]["passed"]
        and "rank 1" in scan[0]["detail"]
        and "rank 2" in scan[0]["detail"]
    )
    ok = step1_ok and step2_ok and witnesses_ok
    verdict(
        "criterion 9 (negative controls)",
        ok,
        f"Step-1 abort exit 1: {step1_ok}; Step-2 breakdown exit 3: {step2_ok}; "
        f"rank scan with witnesses: {witnesses_ok}",
    )


def test_criterion_10_determinism():
    """Repeated reduction runs with a fixed seed emit byte-identical
    machine-readable reports."""
    args = ("dirac-reduce", os.path.join(PROBLEMS, "translation_reduce.json"), "--seed", "3")
    a = run_cli(*args)
    b = run_cli(*args)
    ok = a.returncode == 0 and a.stdout == b.stdout and len(a.stdout) > 0
    verdict(
        "criterion 10 (deterministic reports)",
        ok,
        f"two runs, {len(a.stdout.splitlines())} records each, byte-identical: {a.stdout == b.stdout}",
    )
