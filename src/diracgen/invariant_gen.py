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

Steps 1, 2 and 4 work on whole coordinate lines and batches of points,
with values bit-identical to evaluating one point at a time.

Leaf coordinate indices are 0-based (0 .. k-1).
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .calculus import OneForm, PontryaginSection, VectorField
from .distribution import _norms, span_residuals
from .errors import (
    DiracgenError,
    HypothesisViolated,
    InputError,
    NonUniqueCoefficients,
    NumericalBreakdownError,
)
from .report import CheckRecord, Report, record_from_samples
from .symexpr import ZERO, Chart, CompiledExprs, plain

__all__ = [
    "FoliatedProblem",
    "InvariantFrameResult",
    "split_tilde",
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


def require_vanishing(expr, chart: Chart, message: str):
    """Raise InputError with message unless expr is structurally zero or
    vanishes at every default sample of the chart."""
    if expr == ZERO:
        return
    for probe in chart.sample_points():
        value = expr.eval(probe)
        if abs(value) > 1e-12:
            raise InputError(f"{message} (value {value:.3e} at {plain(probe)})")


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


# Coordinate lines each solver keeps: Step-2 integration grids and Step-4
# Simpson running totals, each in its own cache.  Past this many, the least
# recently used line is dropped; it is recomputed from the zero slice, with
# the same values, when it is needed again.
LINE_CACHE_SIZE = 128


def _components(s: PontryaginSection) -> list:
    """The 2n coefficient expressions of a section, vector part first."""
    return [*s.vf.coeffs, *s.form.coeffs]


def _lru_get(cache: OrderedDict, key, make):
    value = cache.get(key)
    if value is None:
        value = cache[key] = make()
        if len(cache) > LINE_CACHE_SIZE:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return value


def _group_flags(bad, sizes, n_points: int) -> list:
    """For each group of consecutive expressions (of the given sizes), the
    points where one of them fails to evaluate."""
    if bad is None:
        return [np.zeros(n_points, dtype=bool)] * len(sizes)
    bounds = np.cumsum([0] + sizes)
    return [bad[a:b].any(axis=0) for a, b in zip(bounds[:-1], bounds[1:])]


def _first_failure(checks) -> tuple[int, int] | None:
    """(point, check) of the first failure: points in order, and at a point
    the checks in the order given (each a boolean array over the points)."""
    failed = np.array(checks)
    hits = np.flatnonzero(failed.any(axis=0))
    if hits.size == 0:
        return None
    i = int(hits[0])
    return i, int(np.flatnonzero(failed[:, i])[0])


# What evaluating a batch can raise at a failing point.
_POINT_ERRORS = (DiracgenError, np.linalg.LinAlgError)


def _batch(points, compute, one):
    """compute(points) on a batch of points.  If it fails, one(m) runs at
    each point in turn, so the error raised is the one a point-by-point pass
    meets first."""
    points = np.asarray(points, dtype=float)
    try:
        return compute(points)
    except _POINT_ERRORS:
        if len(points) > 1:
            for m in points:
                one(m)
        raise


def _line_points(point: np.ndarray, j: int, xs) -> np.ndarray:
    """Copies of point with coordinate j set to each of xs."""
    out = np.repeat(point[None], len(xs), axis=0)
    out[:, j] = xs
    return out


class _Panels:
    """Composite-Simpson state of one Step-4 line: the panel boundaries, the
    integrand there (from the zero slice on, once the line first grows), and
    the running total after each full panel."""

    def __init__(self, r: int):
        self.x = [0.0]
        self.f = []
        self.total = [np.zeros(r)]


class _Solver:
    """Batched evaluators for every stage.  Expressions are compiled and
    differentiated once, here.  Step 1 runs on all RK4 nodes of a line in
    one stacked solve; Step 2 keeps the integration grid of each coordinate
    line and Step 4 the Simpson totals of each quadrature line, so every
    later point on a line only adds its own last partial step or panel.

    Batches check every node.  When one fails, the work is redone point by
    point with the same code, so the error raised is the one the per-point
    order meets first."""

    def __init__(self, problem: FoliatedProblem):
        self.p = p = problem
        n, k = p.n, p.k
        self.tilde = [split_tilde(g, k)[1] for g in p.generators]
        # transverse coefficient expressions, stacked as in the linear system:
        # rows are vector components k..n-1 then form components k..n-1,
        # columns index the generators.
        self.tilde_exprs = [
            [t.vf.coeffs[j] for t in self.tilde] for j in range(k, n)
        ] + [[t.form.coeffs[j] for t in self.tilde] for j in range(k, n)]
        T = [e for row in self.tilde_exprs for e in row]
        dT = [e.diff(l) for l in range(k) for e in T]
        self.constant_tilde = all(e == ZERO for e in dT)
        X_leaf = [g.vf.coeffs[j] for j in range(k) for g in p.generators]  # k x r
        dX = [g.vf.coeffs[j].diff(l) for l in range(k) for g in p.generators for j in range(k)]
        # Step 1 at a node evaluates T, then each dT_l, then the leaf parts for A
        self._step1_exprs = CompiledExprs(([] if self.constant_tilde else T + dT) + X_leaf + dX)
        if p.extra is not None:
            _, extra_tilde = split_tilde(p.extra, k)
            d_extra = [
                e.diff(l)
                for l in range(k)
                for e in (
                    [extra_tilde.vf.coeffs[j] for j in range(k, n)]
                    + [extra_tilde.form.coeffs[j] for j in range(k, n)]
                    + list(p.extra.vf.coeffs[:k])
                )
            ]
            # Step 4 at a node evaluates T, the leaf parts, then per l the
            # transverse and the leaf derivatives of the extra section
            self._beta_exprs = CompiledExprs(T + X_leaf + d_extra)
            self._extra_exprs = CompiledExprs(_components(p.extra))
        # every generator component, generator by generator, in the order
        # evaluating one generator at a point takes them
        self._generator_exprs = CompiledExprs([c for g in p.generators for c in _components(g)])
        self._lines: OrderedDict = OrderedDict()  # (j, frozen, x > 0) -> [W at i*h]
        self._panels: OrderedDict = OrderedDict()  # (l, frozen, sign) -> _Panels

    # -- Step 1 -----------------------------------------------------------

    def _step1(self, nodes: np.ndarray, with_A: bool = False):
        """B_0..B_{k-1} at each node, shape (N, k, r, r), and A (N, k, r, k)
        when asked for.  Every check runs at every node; the first failure
        (nodes in order, at a node in the per-point order) raises."""
        p = self.p
        N, k, r = len(nodes), p.k, p.r
        M = 2 * (p.n - k)
        vals, bad = self._step1_exprs.evaluate(nodes)
        tilde_rows = 0 if self.constant_tilde else M * r * (k + 1)
        flags = _group_flags(bad, ([] if self.constant_tilde else [M * r] * (k + 1)) + [k * r, k * k * r], N)
        if self.constant_tilde:
            B = np.zeros((N, k, r, r))
            checks = flags
        else:
            T = vals[: M * r].T.reshape(N, M, r)
            dT = vals[M * r : M * r * (k + 1)].T.reshape(N, k, M, r)
            q, R = np.linalg.qr(T)
            diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
            if diag.shape[1] < r:
                degenerate = np.ones(N, dtype=bool)
                B = violated = None
            else:
                scale = np.maximum(diag.max(axis=1), 1.0e-300)
                degenerate = diag.min(axis=1) <= 1e-12 * scale
                R[flags[0] | degenerate] = np.eye(r)  # unused there: a check fails first
                B = np.linalg.solve(R[:, None], np.swapaxes(q, 1, 2)[:, None] @ dT)
                with np.errstate(over="ignore", invalid="ignore"):  # an overflow is compared as inf
                    residual = _norms((T[:, None] @ B - dT).reshape(N, k, M * r))
                    violated = residual > p.tol * (1.0 + _norms(dT.reshape(N, k, M * r)))
            checks = [flags[0], degenerate]
            for l in range(k):
                checks += [flags[1 + l], np.zeros(N, dtype=bool) if violated is None else violated[:, l]]
            checks += flags[-2:]
        failure = _first_failure(checks)
        if failure is not None:
            i, c = failure
            point = nodes[i]
            if not self.constant_tilde and c == 1:
                raise NonUniqueCoefficients(
                    "transverse components of the generators are pointwise dependent; "
                    "re-present the family with an independent local frame",
                    point=plain(point),
                    stage="Step 1",
                )
            if not self.constant_tilde and c < 2 + 2 * k and c % 2 == 1:
                l = (c - 3) // 2
                residual = np.linalg.norm(T[i] @ B[i, l] - dT[i, l])
                raise HypothesisViolated(
                    f"leaf derivative of a generator leaves the span (residual {residual:.3e})",
                    point=plain(point),
                    stage="Step 1",
                )
            self._step1_exprs.raise_at(int(np.flatnonzero(bad[:, i])[0]), point)
        if not with_A:
            return B, None
        leaf = vals[tilde_rows:].T.reshape(N, k * r + k * k * r)
        X_leaf = leaf[:, : k * r].reshape(N, k, r)
        dX = leaf[:, k * r :].reshape(N, k, r, k)
        A = np.zeros((N, k, r, k))
        for i in range(N):
            for l in range(k):
                for g in range(r):
                    A[i, l, g] = dX[i, l, g] - X_leaf[i] @ B[i, l][:, g]
        return B, A

    def coefficients(self, m) -> tuple[np.ndarray, np.ndarray]:
        """A (k x r x k) and the matrices B_0..B_{k-1} (k x r x r) at m."""
        m = np.asarray(m, dtype=float)
        self.p.chart.require_inside(m)
        B, A = self._step1(m[None], with_A=True)
        return A[0], B[0]

    # -- Step 2 -----------------------------------------------------------

    @staticmethod
    def _rk4(B: np.ndarray, W: np.ndarray, h) -> np.ndarray:
        """One classical RK4 step of dY/dx = B^T Y for a stack of lines: B
        (L, 3, r, r) holds B at the start, midpoint and end of each step."""
        Bt = np.swapaxes(B, -1, -2)
        with np.errstate(over="ignore", invalid="ignore"):  # the callers check finiteness
            k1 = Bt[:, 0] @ W
            k2 = Bt[:, 1] @ (W + 0.5 * h * k1)
            k3 = Bt[:, 1] @ (W + 0.5 * h * k2)
            k4 = Bt[:, 2] @ (W + h * k3)
            return W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def _B_on_line(self, nodes: np.ndarray, j: int) -> np.ndarray:
        """B_j at RK4 nodes taken three per step: shape (steps, 3, r, r)."""
        r = self.p.r
        return self._step1(nodes)[0][:, j].reshape(-1, 3, r, r)

    def _breakdown(self, point):
        return NumericalBreakdownError(
            "non-finite values while integrating a fundamental matrix",
            point=plain(point),
            stage="Step 2",
        )

    def _extend(self, j: int, lines: list, h: float):
        """Grow each grid Ws of lines (Ws, point, target), which holds W at
        i*h on the x^j line through point, to index target.  Step 1 runs at
        the new RK4 nodes of all lines in one stacked call.  The lines step
        in lockstep on one array, longest first, so the lines still growing
        are its leading rows."""
        lines = [line for line in lines if line[2] >= len(line[0])]
        if not lines:
            return
        counts = [target - len(Ws) + 1 for Ws, _, target in lines]
        nodes = []
        for (Ws, point, _), count in zip(lines, counts):
            x0 = np.arange(len(Ws) - 1, len(Ws) - 1 + count) * h
            nodes.append(_line_points(point, j, np.stack([x0, x0 + 0.5 * h, x0 + h], axis=1).ravel()))
        try:
            B = self._B_on_line(np.concatenate(nodes), j)
        except _POINT_ERRORS:
            if len(lines) > 1:
                raise  # the caller redoes its points one at a time
            B = None  # redone step by step below, where the per-point order raises
        starts = np.cumsum([0] + counts)
        order = sorted(range(len(lines)), key=lambda a: -counts[a])
        # growing[s]: how many lines take step s (the leading ones in order)
        growing = np.searchsorted(-np.array(sorted(counts, reverse=True)), -np.arange(max(counts)))
        first = starts[order]  # row in B (and in grown) of each line's first step
        grown = np.empty((starts[-1], self.p.r, self.p.r))
        W = np.stack([lines[a][0][-1] for a in order])
        for s, live in enumerate(growing):
            rows = first[:live] + s
            Bs = self._B_on_line(nodes[0][3 * s : 3 * s + 3], j) if B is None else B[rows]
            W = self._rk4(Bs, W[:live], h)
            finite = np.isfinite(W).all(axis=(1, 2))
            if not finite.all():
                raise self._breakdown(lines[min(order[a] for a in np.flatnonzero(~finite))][1])
            grown[rows] = W
        for (Ws, _, _), start, count in zip(lines, starts, counts):
            # a copy: a line dropped from the cache frees its own steps
            Ws.extend(grown[start : start + count].copy())

    def _fundamental(self, j: int, points: np.ndarray) -> np.ndarray:
        """W_j at each point (N x n).  The grids of all lines through the
        points grow in one batch per direction, then the last partial step
        of every point runs in one more."""
        p = self.p
        r = p.r
        out = np.empty((len(points), r, r))
        out[:] = np.eye(r)
        if self.constant_tilde:
            return out
        rows = points.tolist()
        xs = points[:, j].tolist()
        live = [i for i, x in enumerate(xs) if x != 0.0]
        n_full = {i: int(abs(xs[i]) // p.ode_step) for i in live}
        grids, lines = {}, {}
        for i in live:
            row = rows[i]
            key = (j, tuple(row[:j] + row[j + 1 :]), xs[i] > 0.0)
            if key not in lines:  # looked up once: a big batch may evict it from the cache
                lines[key] = [_lru_get(self._lines, key, lambda: [np.eye(r)]), points[i], 0]
            line = lines[key]
            line[2] = max(line[2], n_full[i])
            grids[i] = line[0]
        for positive in (True, False):
            h = math.copysign(p.ode_step, 1.0 if positive else -1.0)
            self._extend(j, [line for key, line in lines.items() if key[2] == positive], h)
        for i in live:
            out[i] = grids[i][n_full[i]]
        steps = {}  # point -> (start, length) of its last partial step
        for i in live:
            h = math.copysign(p.ode_step, xs[i])
            rem = xs[i] - n_full[i] * h
            if abs(rem) > 1e-15 * max(1.0, abs(xs[i])):
                steps[i] = (n_full[i] * h, rem)
        if steps:
            todo = list(steps)
            nodes = np.repeat(points[todo], 3, axis=0)
            nodes[:, j] = [x for x0, dx in steps.values() for x in (x0, x0 + 0.5 * dx, x0 + dx)]
            B = self._B_on_line(nodes, j)
            last = self._rk4(B, out[todo], np.array([dx for _, dx in steps.values()])[:, None, None])
            for i, W in zip(todo, last):
                if not np.all(np.isfinite(W)):
                    raise self._breakdown(points[i])
            out[todo] = last
        return out

    def fundamental_matrix(self, j: int, m) -> np.ndarray:
        """W_j at m: solution of dY/dx^j = B_j^T Y along the x^j line
        through m, with identity value on the x^j = 0 slice."""
        p = self.p
        if not 0 <= j < p.k:
            raise InputError(f"leaf index {j} out of range 0..{p.k - 1}")
        m = np.asarray(m, dtype=float)
        p.chart.require_inside(m)
        return self._fundamental(j, m[None])[0]

    def _solve_square(self, A, B, points, stage):
        cond = np.linalg.cond(A)
        singular = ~np.isfinite(cond) | (cond > 1.0 / self.p.tol)
        if singular.any():
            i = int(np.flatnonzero(singular)[0])
            raise NumericalBreakdownError(
                f"singular matrix (condition number {cond[i]:.3e})",
                point=plain(points[i]),
                stage=stage,
            )
        return np.linalg.solve(A, B)

    def _H(self, points: np.ndarray) -> np.ndarray:
        """Nested product of fundamental-matrix ratios with successively
        zeroed leaf coordinates, at each point; reduces to W of the last
        leaf index for a one-dimensional foliation."""
        p = self.p
        if p.k == 0:
            return np.broadcast_to(np.eye(p.r), (len(points), p.r, p.r)).copy()
        H = self._fundamental(p.k - 1, points)
        for j in range(p.k - 1, 0, -1):
            q = points.copy()
            q[:, j : p.k] = 0.0
            Wj = self._fundamental(j, q)
            Wprev = self._fundamental(j - 1, q)
            H = H @ self._solve_square(Wj, Wprev, q, "Step 2")
        return H

    def _B(self, points: np.ndarray) -> np.ndarray:
        H = self._H(points)
        eye = np.broadcast_to(np.eye(self.p.r), H.shape)
        return self._solve_square(np.swapaxes(H, 1, 2), eye, points, "Step 2")

    def _checked(self, points) -> np.ndarray:
        """points (N x n) as floats, each checked to lie in the box when the
        fundamental matrices will be integrated there."""
        points = np.asarray(points, dtype=float)
        if self.p.k:
            for m in points:
                self.p.chart.require_inside(m)
        return points

    def build_H(self, m) -> np.ndarray:
        return self._H(self._checked([m]))[0]

    def build_B(self, m) -> np.ndarray:
        return self._B(self._checked([m]))[0]

    # -- Step 3 -----------------------------------------------------------

    def generator_matrices(self, points) -> np.ndarray:
        """Evaluated generators as columns of a 2n x r matrix at each point
        (N, 2n, r), from one compiled batch."""
        points = np.asarray(points, dtype=float).reshape(-1, self.p.n)
        values = self._generator_exprs(points).reshape(self.p.r, 2 * self.p.n, len(points))
        return np.ascontiguousarray(values.transpose(2, 1, 0))

    def generator_matrix(self, m) -> np.ndarray:
        return self.generator_matrices([m])[0]

    def _frames(self, points: np.ndarray) -> np.ndarray:
        return self.generator_matrices(points) @ self._B(self._checked(points))

    def frames(self, points) -> np.ndarray:
        """The straightened frame at each point (N, 2n, r), with the lines of
        all points integrated together."""
        return _batch(np.reshape(points, (-1, self.p.n)), self._frames, self.frame)

    def frame(self, m) -> np.ndarray:
        """The straightened frame: columns i are the values of (Z_i, gamma_i)."""
        return self._frames(np.asarray([m], dtype=float))[0]

    # -- Step 4 -----------------------------------------------------------

    def _beta(self, points: np.ndarray, with_sigma: bool = False):
        """Decomposition coefficients of the leaf derivatives of the extra
        section at each point: beta (N, k, r, over the generators) and, when
        asked for, sigma (N, k, k, over the leaf fields).  Every check runs
        at every point; the first failure (points in order, at a point in
        the per-point order) raises."""
        p = self.p
        if p.extra is None:
            raise InputError("no extra section in this problem")
        N, k, r = len(points), p.k, p.r
        M = 2 * (p.n - k)
        vals, bad = self._beta_exprs.evaluate(points)
        flags = _group_flags(bad, [M * r, k * r] + [M, k] * k, N)
        T = vals[: M * r].T.reshape(N, M, r)
        X_leaf = vals[M * r : (M + k) * r].T.reshape(N, k, r)
        d_extra = vals[(M + k) * r :].T.reshape(N, k, M + k)
        beta = np.zeros((N, k, r))
        residual = np.zeros((N, k))
        # one stacked least-squares solve for every (point, l) that evaluates
        at = np.nonzero(~(flags[0][:, None] | np.stack(flags[2 : 2 + 2 * k : 2], axis=1)))
        beta[at], residual[at] = span_residuals(T[at[0]], d_extra[at][:, :M])
        violated = residual > p.tol * (1.0 + _norms(d_extra[:, :, :M]))
        checks = flags[:2]
        for l in range(k):
            checks += [flags[2 + 2 * l], violated[:, l], flags[3 + 2 * l]]
        failure = _first_failure(checks)
        if failure is not None:
            i, c = failure
            if c >= 2 and c % 3 == 0:
                raise HypothesisViolated(
                    f"leaf derivative of the extra section leaves the span "
                    f"(residual {residual[i, (c - 3) // 3]:.3e})",
                    point=plain(points[i]),
                    stage="Step 4",
                )
            self._beta_exprs.raise_at(int(np.flatnonzero(bad[:, i])[0]), points[i])
        if not with_sigma:
            return beta, None
        sigma = np.zeros((N, k, k))
        for i in range(N):
            for l in range(k):
                for j in range(k):
                    sigma[i, l, j] = d_extra[i, l, M + j] - X_leaf[i, j] @ beta[i, l]
        return beta, sigma

    def beta_sigma(self, m) -> tuple[np.ndarray, np.ndarray]:
        """Decomposition coefficients of the leaf derivatives of the extra
        section: sigma (k x k, over the leaf fields) and beta (k x r, over
        the generators)."""
        if self.p.extra is None:
            raise InputError("no extra section in this problem")
        m = np.asarray(m, dtype=float)
        self.p.chart.require_inside(m)
        beta, sigma = self._beta(m[None], with_sigma=True)
        return sigma[0], beta[0]

    def _Hbeta(self, points: np.ndarray, l: int) -> np.ndarray:
        beta = self._beta(points)[0][:, l]
        return (np.swapaxes(self._H(points), 1, 2) @ beta[..., None])[..., 0]

    def _integrand(self, l: int, points: np.ndarray) -> np.ndarray:
        """H^T beta_l at each point, in one batch."""
        return _batch(points, lambda q: self._Hbeta(q, l), lambda m: self._Hbeta(m[None], l))

    def _simpson(self, l: int, bases: np.ndarray) -> np.ndarray:
        """For each base point, composite Simpson quadrature of H^T beta_l
        along x^l from 0 to its x^l, panels of width 2*quad_step, final
        partial panel allowed.  Full panels are computed once per line and
        shared by every upper limit on it, and the running total keeps the
        per-panel summation order.  The new panels of all lines, then the
        partial panels of all points, are evaluated in one batch each."""
        p = self.p
        step = p.quad_step
        panel = 2.0 * step
        out = np.zeros((len(bases), p.r))
        queries, lines = [], {}
        for i, upper in enumerate(bases[:, l].tolist()):
            if upper == 0.0:
                continue
            sign = math.copysign(1.0, upper)
            length = abs(upper)
            n_full = int(length // panel)
            if n_full == 0 and length <= 1e-15 * max(1.0, length):
                out[i] *= sign
                continue
            p.chart.require_inside(bases[i])
            key = (l, tuple(bases[i, :l]) + tuple(bases[i, l + 1 :]), sign)
            if key not in lines:  # looked up once: a big batch may evict it from the cache
                lines[key] = [_lru_get(self._panels, key, lambda: _Panels(p.r)), bases[i], sign, 0]
            grow = lines[key]
            grow[3] = max(grow[3], n_full)
            queries.append((i, grow[0], sign, length, n_full))
        plans, nodes = [], []
        for line, base, sign, n_full in lines.values():
            taus = [] if line.f else [sign * 0.0]
            x = line.x[-1]
            bounds = []
            for _ in range(len(line.x) - 1, n_full):
                taus += [sign * (x + step), sign * (x + panel)]
                x += panel
                bounds.append(x)
            if taus:
                plans.append((line, bounds, len(taus)))
                nodes.append(_line_points(base, l, taus))
        if nodes:
            values = self._integrand(l, np.concatenate(nodes))
            start = 0
            for line, bounds, count in plans:
                f = values[start : start + count]
                start += count
                if not line.f:
                    line.f.append(f[0])
                    f = f[1:]
                if bounds:
                    f = f.reshape(-1, 2, p.r)
                    fa = np.concatenate([line.f[-1][None], f[:-1, 1]])
                    part = (panel / 6.0) * (fa + 4.0 * f[:, 0] + f[:, 1])
                    line.x += bounds
                    line.f += list(f[:, 1])
                    line.total += list(np.cumsum(np.concatenate([line.total[-1][None], part]), axis=0)[1:])
        partial, nodes = [], []
        for i, line, sign, length, n_full in queries:
            x = line.x[n_full]
            rem = length - x
            if rem > 1e-15 * max(1.0, length):
                partial.append((i, line, sign, n_full, rem))
                nodes.append(_line_points(bases[i], l, [sign * (x + 0.5 * rem), sign * length]))
            else:
                out[i] = sign * line.total[n_full]
        if nodes:
            f = self._integrand(l, np.concatenate(nodes)).reshape(-1, 2, p.r)
            for (i, line, sign, n_full, rem), (fmid, fb) in zip(partial, f):
                total = line.total[n_full] + (rem / 6.0) * (line.f[n_full] + 4.0 * fmid + fb)
                out[i] = sign * total
        return out

    def _R(self, points: np.ndarray) -> np.ndarray:
        """Sum over leaf coordinates of line integrals of H^T beta_l, at each
        point: the l-th integral runs along x^l from the zero slice, with all
        later leaf coordinates zeroed."""
        p = self.p
        R = np.zeros((len(points), p.r))
        for l in range(p.k - 1, -1, -1):
            bases = points.copy()
            bases[:, l + 1 : p.k] = 0.0
            R += self._simpson(l, bases)
        return R

    def _Pi(self, points: np.ndarray) -> np.ndarray:
        B = self._B(self._checked(points))
        return (-B @ self._R(points)[..., None])[..., 0]

    def Pi(self, m) -> np.ndarray:
        return self._Pi(np.asarray([m], dtype=float))[0]

    def _corrections(self, points: np.ndarray) -> np.ndarray:
        G = self.generator_matrices(points)
        return (G @ self._Pi(points)[..., None])[..., 0]

    def corrections(self, points) -> np.ndarray:
        """Values of (Z, gamma) at each point (N, 2n)."""
        return _batch(np.reshape(points, (-1, self.p.n)), self._corrections, self.correction)

    def correction(self, m) -> np.ndarray:
        """Value of (Z, gamma) at m."""
        return self._corrections(np.asarray([m], dtype=float))[0]

    def extra_values(self, points) -> np.ndarray:
        """Values of the extra section (X, alpha) at each point (N, 2n)."""
        return self._extra_exprs(points).T

    def _combined(self, points: np.ndarray) -> np.ndarray:
        E = self.extra_values(points)
        return E + self._corrections(points)

    def combined_values(self, points) -> np.ndarray:
        """Values of (X + Z, alpha + gamma) at each point (N, 2n)."""
        return _batch(np.reshape(points, (-1, self.p.n)), self._combined, self.combined)

    def combined(self, m) -> np.ndarray:
        """Value of (X + Z, alpha + gamma) at m."""
        return self._combined(np.asarray([m], dtype=float))[0]


@functools.lru_cache(maxsize=32)
def _solver(problem: FoliatedProblem) -> _Solver:
    return _Solver(problem)


def solve_coefficients(p: FoliatedProblem, m):
    """The matrices (A, B_0..B_{k-1}) of the pointwise linear system for
    the leaf derivatives of the generators."""
    A, Bs = _solver(p).coefficients(m)
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


def _stencil(chart: Chart, m, l: int, delta: float | None = None):
    """The four points of the fourth-order central difference along the l-th
    coordinate (offsets +2d, +d, -d, -2d), with the probe clamped into the
    box interior so the stencil fits; returns (points, d).  For a stack of
    probes (N x n) the points are N x 4 x n."""
    m = np.array(m, dtype=float)
    lo, hi = chart.box[l]
    width = hi - lo
    if delta is None:
        delta = 0.01 * width
    m[..., l] = np.minimum(np.maximum(m[..., l], lo + 2 * delta), hi - 2 * delta)
    points = np.repeat(m[..., None, :], 4, axis=-2)
    points[..., l] += [2 * delta, delta, -delta, -2 * delta]
    return points, delta


def _difference(values, delta: float):
    """The derivative from the values at the points of _stencil."""
    return (-values[0] + 8.0 * values[1] - 8.0 * values[2] + values[3]) / (12.0 * delta)


def leaf_directional_derivative(fn, chart: Chart, m, l: int, delta: float | None = None):
    """Fourth-order central finite difference of a point evaluator along
    the l-th coordinate, with the probe clamped into the box interior so
    the stencil fits."""
    points, delta = _stencil(chart, m, l, delta)
    return _difference([fn(q) for q in points], delta)


@dataclass
class InvariantFrameResult:
    """Outputs of the construction: the straightened frame, the optional
    correction, and the verification report for the span/invariance
    properties."""

    problem: FoliatedProblem
    frame: object  # m -> 2n x r
    correction: object | None  # m -> 2n vector (Z, gamma)
    combined: object | None  # m -> 2n vector (X + Z, alpha + gamma)
    report: Report = field(default_factory=Report)
    frames: object = None  # points (N x n) -> N x 2n x r, evaluated as one batch


def _leaf_invariance(
    values, deltas, p: FoliatedProblem, samples, tol: float, check: str, stage: str
) -> Report:
    """One record per leaf coordinate l: the l-th leaf derivative of the
    section (or frame) must have vanishing transverse vector components and
    vanishing form components.  values holds the section at the N samples,
    then at the _stencil points of every sample for each leaf coordinate in
    turn (N x 4 rows each, with step deltas[l])."""
    n, N = p.n, len(samples)
    axes = tuple(range(1, values.ndim))
    scale = 1.0 + np.abs(values[:N]).max(axis=axes, initial=0.0)
    report = Report()
    for l, delta in enumerate(deltas):
        stencil = values[N * (1 + 4 * l) : N * (5 + 4 * l)].reshape(N, 4, *values.shape[1:])
        d = np.abs(_difference(np.moveaxis(stencil, 1, 0), delta))
        defect = np.maximum(d[:, p.k : n].max(axis=axes, initial=0.0), d[:, n:].max(axis=axes, initial=0.0))
        report.add(record_from_samples(f"{check}[{l}]", zip(defect / scale, samples), tol, stage=stage))
    return report


def _span_defects(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """For each point i and column c of V[i], the least-squares residual of
    V[i][:, c] in the columns of A[i], over 1 + its norm: shape (N, c)."""
    V = np.swapaxes(V, 1, 2)
    return span_residuals(A[:, None], V)[1] / (1.0 + _norms(V))


def run(
    p: FoliatedProblem,
    samples=None,
    tol: float | None = None,
    seed: int = 0,
) -> InvariantFrameResult:
    """Full pipeline with verification: span equality of the frame and the
    generators, leaf-invariance of the frame brackets, and (when an extra
    section is present) leaf-invariance of the corrected section.

    The frame (and the correction) is evaluated once, in one batch, at the
    samples and at the stencil points of every leaf-invariance check."""
    tol = p.tol if tol is None else tol
    solver = _solver(p)
    if samples is None:
        samples = p.chart.sample_points(seed=seed, margin=0.1)
    report = Report()
    k = p.k

    if k == 0:
        report.add(
            CheckRecord(
                check="trivial-foliation",
                passed=True,
                detail="no leaf coordinates: generators returned unchanged",
            )
        )
        return InvariantFrameResult(
            problem=p,
            frame=solver.generator_matrix,
            correction=None,
            combined=None,
            report=report,
            frames=solver.generator_matrices,
        )

    samples = np.array(samples, dtype=float).reshape(-1, p.n)
    N = len(samples)
    stencils = [_stencil(p.chart, samples, l) for l in range(k)]
    points = np.concatenate([samples] + [q.reshape(-1, p.n) for q, _ in stencils])
    deltas = [delta for _, delta in stencils]
    frames = solver.frames(points)
    G = solver.generator_matrices(samples)
    # the generators laid out as the transpose of a row-major matrix, as
    # membership_residual takes them, so the residuals are bit-identical
    G_columns = np.ascontiguousarray(np.swapaxes(G, 1, 2)).swapaxes(1, 2)

    # (i) span equality at each sample, by mutual membership
    F = frames[:N]
    worst = np.maximum(_span_defects(G_columns, F).max(axis=1), _span_defects(F, G).max(axis=1))
    report.add(record_from_samples("frame-spans-distribution", zip(worst, samples), tol, stage="Step 3"))

    # (ii) brackets of the frame with the leaf fields stay tangent to the leaves
    report.extend(_leaf_invariance(frames, deltas, p, samples, tol, "frame-leaf-invariance", "Step 2"))

    correction = combined = None
    if p.extra is not None:
        correction = solver.correction
        combined = solver.combined
        corrections = solver.corrections(points)
        defects = _span_defects(G_columns, corrections[:N, :, None])[:, 0]
        report.add(record_from_samples(
            "correction-in-distribution", zip(defects, samples), tol, stage="Step 4"))
        report.extend(_leaf_invariance(
            solver.extra_values(points) + corrections, deltas, p, samples, tol,
            "corrected-leaf-invariance", "Step 4"))

    return InvariantFrameResult(
        problem=p,
        frame=solver.frame,
        correction=correction,
        combined=combined,
        report=report,
        frames=solver.frames,
    )
