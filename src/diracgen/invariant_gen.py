"""Constructive straightening of a spanning family along a foliation.

Given a chart whose first k coordinates span an involutive subbundle, and
r sections (X_i, alpha^i) of TM + I-annihilator whose brackets with the
leaf fields stay in the span of the leaf fields and the family, this
module produces a new spanning frame (Z_i, gamma_i) whose brackets with
the leaf fields stay tangent to the leaves, plus a correction (Z, gamma)
for an optional extra section.

The pipeline is numeric-by-evaluation on top of exact symbolic brackets:

1. at each point, solve the linear system expressing the leaf derivative
   of each generator over the leaf fields and the generators (matrices
   A and B_1..B_k);
2. integrate the fundamental matrices W_j of dY/dx^j = B_j^T Y with
   identity value on the x^j = 0 slice (fixed-step classic Runge-Kutta),
   and combine them into the nested product H and its transform
   B = (H^T)^{-1};
3. the frame at a point is the evaluated generator matrix times B;
4. the correction coefficients Pi = -B R come from nested composite
   Simpson integrals of H^T beta_l along coordinate lines.

Leaf coordinate indices are 0-based (0 .. k-1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import OneForm, PontryaginSection, VectorField
from .distribution import GeneralizedDistribution, membership_residual, span_residual
from .errors import (
    HypothesisViolated,
    InputError,
    NonUniqueCoefficients,
    NumericalBreakdownError,
)
from .report import CheckRecord, Report, record_from_samples
from .symexpr import ZERO, Chart

__all__ = [
    "FoliatedProblem",
    "InvariantFrameResult",
    "split_tilde",
    "coordinate_derivative",
    "solve_coefficients",
    "fundamental_matrix",
    "build_H",
    "build_B",
    "transformed_frame",
    "beta_fields",
    "compute_Pi",
    "run",
    "leaf_directional_derivative",
]

DEFAULT_TOL = 1e-7


def coordinate_derivative(s: PontryaginSection, l: int) -> PontryaginSection:
    """The bracket of the l-th coordinate leaf field with s, which is the
    componentwise coordinate derivative of all coefficients."""
    chart = s.chart
    return PontryaginSection(
        VectorField(chart, tuple(c.diff(l) for c in s.vf.coeffs)),
        OneForm(chart, tuple(c.diff(l) for c in s.form.coeffs)),
    )


def require_vanishing(expr, chart: Chart, message: str):
    """Raise InputError with message unless expr is structurally zero or
    vanishes at every default sample of the chart."""
    if expr == ZERO:
        return
    for probe in chart.sample_points():
        value = expr.eval(probe)
        if abs(value) > 1e-12:
            raise InputError(f"{message} (value {value:.3e} at {list(map(float, probe))})")


def split_tilde(s: PontryaginSection, k: int) -> tuple[VectorField, PontryaginSection]:
    """Split s into its leaf-tangent vector part (first k coordinates) and
    the transverse remainder.  The form must have no components on the
    first k coordinate differentials (checked by require_vanishing)."""
    chart = s.chart
    for j in range(k):
        require_vanishing(
            s.form.coeffs[j], chart,
            f"form component {j} of a section over the leaf block is nonzero; "
            "sections must annihilate the leaf fields",
        )
    leaf = VectorField(chart, tuple(s.vf.coeffs[:k]) + (ZERO,) * (chart.n - k))
    tilde = PontryaginSection(
        VectorField(chart, (ZERO,) * k + tuple(s.vf.coeffs[k:])),
        OneForm(chart, (ZERO,) * k + tuple(s.form.coeffs[k:])),
    )
    return leaf, tilde


@dataclass(frozen=True)
class FoliatedProblem:
    """Inputs for the straightening construction.

    ``generators`` must be pointwise independent (evaluated rank exactly r)
    on the box, and their forms must vanish on the first ``chart.leaf_count``
    coordinate differentials; likewise for ``extra``.
    """

    chart: Chart
    generators: tuple[PontryaginSection, ...]
    extra: PontryaginSection | None = None
    ode_step: float | None = None
    quad_step: float | None = None
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise InputError("need at least one generator")
        for g in self.generators:
            if g.chart != self.chart:
                raise InputError("generator chart differs from problem chart")
        if self.extra is not None and self.extra.chart != self.chart:
            raise InputError("extra section chart differs from problem chart")
        width = max(hi - lo for lo, hi in self.chart.box)
        if self.ode_step is None:
            object.__setattr__(self, "ode_step", 1e-3 * width)
        if self.quad_step is None:
            object.__setattr__(self, "quad_step", self.ode_step)
        if self.ode_step <= 0 or self.quad_step <= 0:
            raise InputError("steps must be positive")
        # probe the leaf-annihilation condition early
        for s in self.generators + ((self.extra,) if self.extra else ()):
            split_tilde(s, self.k)

    @property
    def n(self) -> int:
        return self.chart.n

    @property
    def k(self) -> int:
        return self.chart.leaf_count

    @property
    def r(self) -> int:
        return len(self.generators)


class _Solver:
    """Point evaluators for every stage, with trajectory caching for the
    fundamental matrices (re-evaluations along a coordinate line reuse the
    integration grid)."""

    def __init__(self, problem: FoliatedProblem):
        self.p = problem
        p = problem
        self.tilde = [split_tilde(g, p.k)[1] for g in p.generators]
        # transverse coefficient expressions, stacked as in the linear system:
        # rows are vector components k..n-1 then form components k..n-1,
        # columns index the generators.
        self.tilde_exprs = [
            [t.vf.coeffs[j] for t in self.tilde] for j in range(p.k, p.n)
        ] + [[t.form.coeffs[j] for t in self.tilde] for j in range(p.k, p.n)]
        self.dtilde_exprs = [
            [[e.diff(l) for e in row] for row in self.tilde_exprs] for l in range(p.k)
        ]
        self.constant_tilde = all(
            e is ZERO or e == ZERO for row in self.dtilde_exprs for cell in row for e in cell
        )
        if p.extra is not None:
            _, extra_tilde = split_tilde(p.extra, p.k)
            self.extra_tilde_exprs = [extra_tilde.vf.coeffs[j] for j in range(p.k, p.n)] + [
                extra_tilde.form.coeffs[j] for j in range(p.k, p.n)
            ]
        self._coeff_cache: dict = {}
        self._beta_cache: dict = {}
        self._lines: dict = {}

    # -- Step 1 -----------------------------------------------------------

    def tilde_matrix(self, m) -> np.ndarray:
        return np.array([[e.eval(m) for e in row] for row in self.tilde_exprs])

    def _coefficients(self, m) -> tuple[np.ndarray, list[np.ndarray]]:
        """A (k x r x k) and the matrices B_0..B_{k-1} at m."""
        key = tuple(np.asarray(m, dtype=float))
        hit = self._coeff_cache.get(key)
        if hit is not None:
            return hit
        p = self.p
        m = np.asarray(m, dtype=float)
        p.chart.require_inside(m)
        if self.constant_tilde:
            Bs = [np.zeros((p.r, p.r)) for _ in range(p.k)]
        else:
            T = self.tilde_matrix(m)
            q, rfac = np.linalg.qr(T)
            diag = np.abs(np.diag(rfac))
            scale = max(diag.max(initial=0.0), 1.0e-300)
            if diag.size < p.r or diag.min() <= 1e-12 * scale:
                raise NonUniqueCoefficients(
                    "transverse components of the generators are pointwise dependent; "
                    "re-present the family with an independent local frame",
                    point=list(m),
                )
            Bs = []
            for l in range(p.k):
                dT = np.array([[e.eval(m) for e in row] for row in self.dtilde_exprs[l]])
                B_l = np.linalg.solve(rfac, q.T @ dT)
                residual = np.linalg.norm(T @ B_l - dT)
                if residual > p.tol * (1.0 + np.linalg.norm(dT)):
                    raise HypothesisViolated(
                        f"leaf derivative of a generator leaves the span "
                        f"(residual {residual:.3e})",
                        point=list(m),
                        stage="Step 1",
                    )
                Bs.append(B_l)
        A = np.zeros((p.k, p.r, p.k))
        X_leaf = np.array(
            [[g.vf.coeffs[j].eval(m) for g in p.generators] for j in range(p.k)]
        )  # k x r
        for l in range(p.k):
            for i in range(p.r):
                dX = np.array(
                    [p.generators[i].vf.coeffs[j].diff(l).eval(m) for j in range(p.k)]
                )
                A[l, i] = dX - X_leaf @ Bs[l][:, i]
        result = (A, Bs)
        self._coeff_cache[key] = result
        return result

    def B_matrix(self, m, l: int) -> np.ndarray:
        return self._coefficients(m)[1][l]

    # -- Step 2 -----------------------------------------------------------

    def _rk4_step(self, j: int, point: np.ndarray, x0: float, h: float, W: np.ndarray):
        def rhs(x):
            q = point.copy()
            q[j] = x
            return self.B_matrix(q, j).T

        k1 = rhs(x0) @ W
        mid = rhs(x0 + 0.5 * h)
        k2 = mid @ (W + 0.5 * h * k1)
        k3 = mid @ (W + 0.5 * h * k2)
        k4 = rhs(x0 + h) @ (W + h * k3)
        out = W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(out)):
            raise NumericalBreakdownError(
                "non-finite values while integrating a fundamental matrix",
                point=list(point),
                stage="Step 2",
            )
        return out

    def fundamental_matrix(self, j: int, m) -> np.ndarray:
        """W_j at m: solution of dY/dx^j = B_j^T Y along the x^j line
        through m, with identity value on the x^j = 0 slice."""
        p = self.p
        if not 0 <= j < p.k:
            raise InputError(f"leaf index {j} out of range 0..{p.k - 1}")
        m = np.asarray(m, dtype=float)
        p.chart.require_inside(m)
        if self.constant_tilde:
            return np.eye(p.r)
        x = float(m[j])
        if x == 0.0:
            return np.eye(p.r)
        h = math.copysign(p.ode_step, x)
        frozen = tuple(v for i, v in enumerate(m) if i != j)
        line = self._lines.setdefault((j, frozen), {0: np.eye(p.r)})
        n_full = int(abs(x) // p.ode_step)
        sign = 1 if x > 0 else -1
        # extend the cached grid along this line as far as needed
        grown = max((sign * i for i in line if sign * i >= 0), default=0)
        point = m.copy()
        while grown < n_full:
            W = line[sign * grown]
            line[sign * (grown + 1)] = self._rk4_step(j, point, grown * h, h, W)
            grown += 1
        W = line[sign * n_full]
        rem = x - n_full * h
        if abs(rem) > 1e-15 * max(1.0, abs(x)):
            W = self._rk4_step(j, point, n_full * h, rem, W)
        return W

    def build_H(self, m) -> np.ndarray:
        """Nested product of fundamental-matrix ratios with successively
        zeroed leaf coordinates; reduces to W of the last leaf index for a
        one-dimensional foliation."""
        p = self.p
        m = np.asarray(m, dtype=float)
        if p.k == 0:
            return np.eye(p.r)
        H = self.fundamental_matrix(p.k - 1, m)
        for j in range(p.k - 1, 0, -1):
            q = m.copy()
            q[j : p.k] = 0.0
            Wj = self.fundamental_matrix(j, q)
            Wprev = self.fundamental_matrix(j - 1, q)
            H = H @ self._solve_square(Wj, Wprev, q, "Step 2")
        return H

    def _solve_square(self, A, B, point, stage):
        cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond > 1.0 / self.p.tol:
            raise NumericalBreakdownError(
                f"singular matrix (condition number {cond:.3e})",
                point=list(point),
                stage=stage,
            )
        return np.linalg.solve(A, B)

    def build_B(self, m) -> np.ndarray:
        H = self.build_H(m)
        B = self._solve_square(H.T, np.eye(self.p.r), m, "Step 2")
        return B

    # -- Step 3 -----------------------------------------------------------

    def generator_matrix(self, m) -> np.ndarray:
        """Evaluated generators as columns of a 2n x r matrix."""
        return np.column_stack([g(m) for g in self.p.generators])

    def frame(self, m) -> np.ndarray:
        """The straightened frame: columns i are the values of (Z_i, gamma_i)."""
        return self.generator_matrix(m) @ self.build_B(m)

    # -- Step 4 -----------------------------------------------------------

    def beta_sigma(self, m) -> tuple[np.ndarray, np.ndarray]:
        """Decomposition coefficients of the leaf derivatives of the extra
        section: sigma (k x k, over the leaf fields) and beta (k x r, over
        the generators)."""
        p = self.p
        if p.extra is None:
            raise InputError("no extra section in this problem")
        key = tuple(np.asarray(m, dtype=float))
        hit = self._beta_cache.get(key)
        if hit is not None:
            return hit
        m = np.asarray(m, dtype=float)
        p.chart.require_inside(m)
        T = self.tilde_matrix(m)
        beta = np.zeros((p.k, p.r))
        sigma = np.zeros((p.k, p.k))
        X_leaf = np.array(
            [[g.vf.coeffs[j].eval(m) for g in p.generators] for j in range(p.k)]
        )
        for l in range(p.k):
            d_ex = np.array([e.diff(l).eval(m) for e in self.extra_tilde_exprs])
            sol, *_ = np.linalg.lstsq(T, d_ex, rcond=None)
            residual = np.linalg.norm(T @ sol - d_ex)
            if residual > p.tol * (1.0 + np.linalg.norm(d_ex)):
                raise HypothesisViolated(
                    f"leaf derivative of the extra section leaves the span "
                    f"(residual {residual:.3e})",
                    point=list(m),
                    stage="Step 4",
                )
            beta[l] = sol
            for j in range(p.k):
                sigma[l, j] = p.extra.vf.coeffs[j].diff(l).eval(m) - X_leaf[j] @ sol
        self._beta_cache[key] = (sigma, beta)
        return sigma, beta

    def _Hbeta(self, q, l: int) -> np.ndarray:
        _, beta = self.beta_sigma(q)
        return self.build_H(q).T @ beta[l]

    def R_vector(self, m) -> np.ndarray:
        """Sum over leaf coordinates of line integrals of H^T beta_l: the
        l-th integral runs along x^l from the zero slice, with all later
        leaf coordinates zeroed."""
        p = self.p
        m = np.asarray(m, dtype=float)
        R = np.zeros(p.r)
        for l in range(p.k - 1, -1, -1):
            base = m.copy()
            base[l + 1 : p.k] = 0.0

            def integrand(tau, _l=l, _base=base):
                q = _base.copy()
                q[_l] = tau
                return self._Hbeta(q, _l)

            R += _simpson_line(integrand, float(m[l]), p.quad_step, p.r)
        return R

    def Pi(self, m) -> np.ndarray:
        return -self.build_B(m) @ self.R_vector(m)

    def correction(self, m) -> np.ndarray:
        """Value of (Z, gamma) at m."""
        return self.generator_matrix(m) @ self.Pi(m)

    def combined(self, m) -> np.ndarray:
        """Value of (X + Z, alpha + gamma) at m."""
        return self.p.extra(m) + self.correction(m)


def _simpson_line(f, upper: float, step: float, dim: int) -> np.ndarray:
    """Composite Simpson quadrature of a vector-valued integrand from 0 to
    upper, panels of width 2*step, final partial panel allowed."""
    total = np.zeros(dim)
    if upper == 0.0:
        return total
    sign = math.copysign(1.0, upper)
    length = abs(upper)
    panel = 2.0 * step
    n_full = int(length // panel)
    x = 0.0
    for _ in range(n_full):
        a = sign * x
        mid = sign * (x + step)
        b = sign * (x + panel)
        total += (panel / 6.0) * (f(a) + 4.0 * f(mid) + f(b))
        x += panel
    rem = length - x
    if rem > 1e-15 * max(1.0, length):
        a = sign * x
        mid = sign * (x + 0.5 * rem)
        b = sign * length
        total += (rem / 6.0) * (f(a) + 4.0 * f(mid) + f(b))
    return sign * total


@functools.lru_cache(maxsize=32)
def _solver(problem: FoliatedProblem) -> _Solver:
    return _Solver(problem)


def solve_coefficients(p: FoliatedProblem, m):
    """The matrices (A, B_0..B_{k-1}) of the pointwise linear system for
    the leaf derivatives of the generators."""
    A, Bs = _solver(p)._coefficients(np.asarray(m, dtype=float))
    return A, list(Bs)


def fundamental_matrix(p: FoliatedProblem, j: int, m) -> np.ndarray:
    return _solver(p).fundamental_matrix(j, m)


def build_H(p: FoliatedProblem, m) -> np.ndarray:
    return _solver(p).build_H(np.asarray(m, dtype=float))


def build_B(p: FoliatedProblem, m) -> np.ndarray:
    return _solver(p).build_B(np.asarray(m, dtype=float))


def transformed_frame(p: FoliatedProblem):
    """Evaluator m -> 2n x r matrix whose columns are the straightened
    frame values."""
    return _solver(p).frame


def beta_fields(p: FoliatedProblem, m):
    return _solver(p).beta_sigma(np.asarray(m, dtype=float))


def compute_Pi(p: FoliatedProblem, m) -> np.ndarray:
    return _solver(p).Pi(np.asarray(m, dtype=float))


def leaf_directional_derivative(fn, chart: Chart, m, l: int, delta: float | None = None):
    """Fourth-order central finite difference of a point evaluator along
    the l-th coordinate, with the probe clamped into the box interior so
    the stencil fits."""
    m = np.asarray(m, dtype=float).copy()
    lo, hi = chart.box[l]
    width = hi - lo
    if delta is None:
        delta = 0.01 * width
    m[l] = min(max(m[l], lo + 2 * delta), hi - 2 * delta)

    def at(offset):
        q = m.copy()
        q[l] += offset
        return fn(q)

    return (-at(2 * delta) + 8.0 * at(delta) - 8.0 * at(-delta) + at(-2 * delta)) / (
        12.0 * delta
    )


@dataclass
class InvariantFrameResult:
    """Outputs of the construction: the straightened frame, the optional
    correction, the intermediate matrix fields, and the verification
    report for the span/invariance properties."""

    problem: FoliatedProblem
    frame: object  # m -> 2n x r
    B_field: object  # m -> r x r
    Pi_field: object | None  # m -> r
    correction: object | None  # m -> 2n vector (Z, gamma)
    combined: object | None  # m -> 2n vector (X + Z, alpha + gamma)
    report: Report = field(default_factory=Report)


def _leaf_invariance(fn, p: FoliatedProblem, samples, tol: float, check: str, stage: str) -> Report:
    """One record per leaf coordinate l: the l-th leaf derivative of the
    section (or frame) evaluator fn must have vanishing transverse vector
    components and vanishing form components."""
    n, k = p.n, p.k
    report = Report()
    for l in range(k):
        pairs = []
        for m in samples:
            d = leaf_directional_derivative(fn, p.chart, m, l)
            scale = 1.0 + float(np.abs(fn(m)).max(initial=0.0))
            defect = max(
                float(np.abs(d[k:n]).max(initial=0.0)),
                float(np.abs(d[n:]).max(initial=0.0)),
            )
            pairs.append((defect / scale, m))
        report.add(record_from_samples(f"{check}[{l}]", pairs, tol, stage=stage))
    return report


def run(
    p: FoliatedProblem,
    samples=None,
    tol: float | None = None,
    seed: int = 0,
) -> InvariantFrameResult:
    """Full pipeline with verification: span equality of the frame and the
    generators, leaf-invariance of the frame brackets, and (when an extra
    section is present) leaf-invariance of the corrected section."""
    tol = p.tol if tol is None else tol
    solver = _solver(p)
    if samples is None:
        samples = p.chart.sample_points(seed=seed, margin=0.1)
    report = Report()
    k, r = p.k, p.r

    if k == 0:
        frame = solver.generator_matrix
        report.add(
            CheckRecord(
                check="trivial-foliation",
                passed=True,
                detail="no leaf coordinates: generators returned unchanged",
            )
        )
        return InvariantFrameResult(
            problem=p,
            frame=frame,
            B_field=lambda m: np.eye(r),
            Pi_field=None,
            correction=None,
            combined=None,
            report=report,
        )

    D = GeneralizedDistribution(p.chart, p.generators)

    # (i) span equality at each sample, by mutual membership
    pairs = []
    for m in samples:
        F = solver.frame(m)
        G = solver.generator_matrix(m)
        worst = 0.0
        for col in F.T:
            worst = max(worst, membership_residual(D, m, col) / (1.0 + np.linalg.norm(col)))
        for col in G.T:
            worst = max(worst, span_residual(F, col) / (1.0 + np.linalg.norm(col)))
        pairs.append((worst, m))
    report.add(record_from_samples("frame-spans-distribution", pairs, tol, stage="Step 3"))

    # (ii) brackets of the frame with the leaf fields stay tangent to the leaves
    report.extend(_leaf_invariance(solver.frame, p, samples, tol, "frame-leaf-invariance", "Step 2"))

    correction = combined = Pi_field = None
    if p.extra is not None:
        Pi_field = solver.Pi
        correction = solver.correction
        combined = solver.combined
        pairs = []
        for m in samples:
            c = solver.correction(m)
            pairs.append((membership_residual(D, m, c) / (1.0 + np.linalg.norm(c)), m))
        report.add(record_from_samples("correction-in-distribution", pairs, tol, stage="Step 4"))
        report.extend(_leaf_invariance(
            solver.combined, p, samples, tol, "corrected-leaf-invariance", "Step 4"))

    return InvariantFrameResult(
        problem=p,
        frame=solver.frame,
        B_field=solver.build_B,
        Pi_field=Pi_field,
        correction=correction,
        combined=combined,
        report=report,
    )
