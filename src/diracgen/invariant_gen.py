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

Steps 1 and 4 are one decomposition: each writes the leaf derivative of a
section s as sigma_l (leaf fields) + beta_l (generators), s each generator
in Step 1 (beta_l = B_l, sigma_l = A) and the extra section in Step 4.
One method (_Solver._decomposition) solves it at all nodes at once, with
one Householder kernel and one residual check (_decompose), from one
program per section list.  Steps 1, 2 and 4 work on whole coordinate lines
and batches of points, with values bit-identical to evaluating one point
at a time; Steps 2 and 4 group their points into coordinate lines the same
way (_group_lines).  In Step 2, Step 1 runs once per distinct RK4 node,
each step applies its propagator Phi = RK4(B, I, h), and a point within
rounding of a grid node reads it.  A solver keeps no line state: Step 2
integrates its lines from the zero slice, and Step 4 plans the Simpson
nodes of every leaf coordinate first (_simpson), evaluates H^T beta at
all of them in one batch and sums the full panels of each line from the
zero slice.  Every caller makes one Step-2 pass (_Solver._evaluate): one H
over the points and, for the correction, those nodes gives B and the
integrand.  Every stage checks its whole batch and raises at its first
failing point, and the stages run in one fixed order (_Solver).

Leaf coordinate indices are 0-based (0 .. k-1).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import OneForm, PontryaginSection, VectorField, _components
from .distribution import _scale, span_defects
from .errors import (
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
    "compute_Pi",
    "run",
]

DEFAULT_TOL = 1e-7
# Most RK4 steps (Step 2) and Simpson panels (Step 4) a problem may take on one
# leaf line, from the zero slice to the farthest end of its interval.
MAX_LINE_STEPS = 100_000


def require_positive(value, name: str) -> float:
    """value as a float, or InputError unless it is a finite positive number."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not (math.isfinite(number) and number > 0.0):
        raise InputError(f"{name}: must be a finite positive number, got {value!r}")
    return number


def require_vanishing(expr, chart: Chart, message: str):
    """Raise InputError with message unless expr is structurally zero or
    vanishes at every default sample of the chart."""
    if expr == ZERO:
        return
    program, probes = CompiledExprs([expr]), np.array(chart.sample_points())
    values, bad = program.evaluate(probes)
    for i in np.flatnonzero((np.abs(values[0]) > 1e-12) | (False if bad is None else bad[0]))[:1]:
        program.raise_first(probes, [0], [i])
        raise InputError(f"{message} (value {values[0, i]:.3e} at {plain(probes[i])})")


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
        for name in ("ode_step", "quad_step", "tol"):
            require_positive(getattr(self, name), name)
        if self.tol > 1.0:  # it would reject the condition number 1 of I as singular
            raise InputError(f"tol: {self.tol!r} is above 1")
        # the longest leaf line runs from the zero slice to the farthest end of a leaf interval
        reach = max((max(-lo, hi) for lo, hi in self.chart.box[: self.k]), default=0.0)
        for name, what, per_step in (("ode_step", "RK4 steps", 1.0), ("quad_step", "Simpson panels", 2.0)):
            count = reach / (per_step * float(getattr(self, name)))
            if count > MAX_LINE_STEPS:
                raise InputError(f"{name}: {getattr(self, name)!r} takes {count:.3g} {what} on the longest "
                                 f"leaf line, above the cap of {MAX_LINE_STEPS}")
        # probe the leaf-annihilation condition early
        for s in self.generators + ((self.extra,) if self.extra else ()):
            split_tilde(s, self.k)

    @functools.cached_property
    def _solver(self) -> _Solver:
        """The batched evaluators of every stage, built the first time a stage
        needs them; they keep this problem's compiled programs."""
        return _Solver(self)

    @property
    def n(self) -> int:
        return self.chart.n

    @property
    def k(self) -> int:
        return self.chart.leaf_count

    @property
    def r(self) -> int:
        return len(self.generators)


def _householder(T: np.ndarray, C: np.ndarray):
    """Least-squares solve of T X = C by Householder QR at every node, node
    axis last: T (M, r, N), C (M, c, N).  Returns X (r, c, N) and |R_jj|
    (r, N), 0 from row M on when M < r.  Every step is one numpy operation
    over all nodes and sums run row by row, so a node alone and in a batch
    gives the same bits."""
    (M, r, N), c = T.shape, C.shape[1]
    A = np.zeros((max(M, r), r + c, N))  # reflected in place into R and Q^T C
    A[:M, :r], A[:M, r:] = T, C
    with np.errstate(all="ignore"):  # the caller judges degenerate and non-finite nodes
        for j in range(r):
            x, rest = A[j:, j], A[j:, j + 1 :]
            norm = functools.reduce(np.hypot, x[1:], np.abs(x[0]))  # no overflow before 1e308
            beta = -np.copysign(norm, x[0])
            live = norm > 0.0  # a zero column reflects nothing
            tau = np.where(live, (beta - x[0]) / beta, 0.0)
            v = x[1:] / np.where(live, x[0] - beta, 1.0)  # the reflector below its leading 1
            s = tau * functools.reduce(np.add, (v_i * row for v_i, row in zip(v, rest[1:])), rest[0])
            rest[0] -= s
            rest[1:] -= v[:, None] * s
            A[j, j] = beta
        X = np.empty((r, c, N))
        for i in range(r - 1, -1, -1):
            X[i] = (A[i, r:] - sum(A[i, j] * X[j] for j in range(i + 1, r))) / A[i, i]
    return X, np.abs(A[np.arange(r), np.arange(r)])


def _decompose(T: np.ndarray, C: np.ndarray, width: int, tol: float):
    """Steps 1 and 4: T X = C by _householder, T (M, r, N), C (M, c, N) in
    groups of width columns, one per leaf index.  Returns X (r, c, N), the
    degenerate nodes (none when there is nothing to solve, c = 0), and per
    group and node |T X - C| and whether it exceeds tol * (1 + |C|), at the
    _scale of C; lengths sum squares node axis last, not in the bits of
    np.linalg.norm (the residual shows only in HypothesisViolated)."""
    (M, r, N), groups = T.shape, C.shape[1] // width
    X, diag = _householder(T, C)
    degenerate = (diag.min(axis=0) <= 1e-12 * np.maximum(diag.max(axis=0), 1.0e-300)) & (groups > 0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is compared as inf
        TX = sum(T[:, a, None] * X[a] for a in range(r))
        R, V = (TX - C).reshape(M, groups, width, N), C.reshape(M, groups, width, N)
        s = _scale(np.abs(V).max(axis=(0, 2), initial=0.0))
        R, V = R / s[:, None], V / s[:, None]
        residual = np.sqrt(np.square(R).sum(axis=(0, 2)))
        if np.isinf(residual).any():  # a finite residual whose squares overflow: sum them at its own _scale
            t = _scale(np.abs(R).max(axis=(0, 2)))
            residual = np.where(np.isinf(residual), t * np.sqrt(np.square(R / t[:, None]).sum(axis=(0, 2))), residual)
        return X, degenerate, s * residual, residual > tol * (1.0 / s + np.sqrt(np.square(V).sum(axis=(0, 2))))


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """The index of the first row equal (==) to each row of a finite matrix."""
    order = np.lexsort(rows.T)  # stable: each run of equal rows starts at its first
    new = np.r_[True, (np.diff(rows[order], axis=0) != 0.0).any(axis=1)]  # finite: x - y == 0 iff x == y
    first = np.empty(len(rows), dtype=int)
    first[order] = order[new][np.cumsum(new) - 1]
    return first


def _others(j, points: np.ndarray, key) -> np.ndarray:
    """Rows (the point with x^j zeroed, key), equal (==) where the other coordinates and key are."""
    others = np.column_stack([points, key])
    others[np.arange(len(points)), j] = 0.0
    return others


def _runs(counts: np.ndarray):
    """For runs of counts[a] items end to end: the run of each item, and its place there."""
    of = np.repeat(np.arange(len(counts)), counts)
    return of, np.arange(len(of)) - (np.cumsum(counts) - counts)[of]


def _group_lines(j, points: np.ndarray, counts: np.ndarray):
    """Group points (x^j nonzero, j one leaf index or one per point) into
    x^j lines, one per (j, other coordinates, sign of x^j), in order of first
    appearance.  Returns the first point of each line, the line of each point
    and the largest count on each line."""
    of = _first_rows(_others(j, points, 2 * np.asarray(j) + (points[np.arange(len(points)), j] > 0.0)))
    heads = of == np.arange(len(points))
    first, line = np.flatnonzero(heads), (np.cumsum(heads) - 1)[of]
    largest = np.zeros(len(first), dtype=int)
    np.maximum.at(largest, line, counts)
    return first, line, largest


class _Solver:
    """Batched evaluators for every stage.  Expressions are differentiated
    and compiled once per problem.  The generators and the extra section
    compile when the solver is built.  The decomposition programs
    (_decomposition_rows), one for Step 1 and one for Step 4, compile the
    first time their step needs them; Step 1's rows are differentiated when
    the solver is built, since constant_tilde reads them.  Steps 1 and 4
    are one method, _decomposition: it reads its program with the node axis
    last and solves all nodes at once (_decompose).  Step 2 keeps no line
    state: each _H makes one _fundamental pass, which integrates the grid of
    every coordinate line of every leaf index through its points from the
    zero slice, as one array (_extend), and memory is bounded by the batch.
    Every caller takes G, H, B and Pi from one _evaluate call, whose Step 4
    reads H from the _H that gives B.

    Each stage checks its whole batch and raises at its first failing point
    or node, and the stages run in this order: every point in the box; Step
    1 at the RK4 nodes of every leaf index j from k-1 down (per j,
    _B_on_line's order: lines in order of their first point, their grid
    steps, then the tails); Step 2's breakdown check, per j from k-1 down;
    B's condition; the generators at the points (Step 3); Step 4's
    decomposition at the Simpson nodes."""

    def __init__(self, problem: FoliatedProblem):
        # a copy: the problem holds its solver, and a reference back would make
        # a cycle that only the garbage collector frees
        self.p = p = copy.copy(problem)
        M, k, r = 2 * (p.n - p.k), p.k, p.r
        self._generator_rows = self._decomposition_rows(p.generators)
        # every dT_l is structurally zero: each B_l is 0, and Step 2 integrates nothing
        self.constant_tilde = all(e == ZERO for e in self._generator_rows[M * r : M * r * (k + 1)])
        if p.extra is not None:
            self._extra_exprs = CompiledExprs(_components(p.extra))
        # every generator component, generator by generator, in the order
        # evaluating one generator at a point takes them
        self._generator_exprs = CompiledExprs([c for g in p.generators for c in _components(g)])

    def _decomposition_rows(self, sections) -> list:
        """The rows of the program that decomposes the leaf derivatives d_l s
        of the sections, in check order: T, the transverse components of the
        generators (vector components k..n-1 then form components k..n-1,
        each by generator); per l the same rows of d_l s, each by section;
        the generators' leaf components (by leaf index, then generator); per
        l the leaf vector components of d_l s, by section, then leaf index."""
        p, k = self.p, self.p.k
        transverse = [*range(k, p.n), *range(p.n + k, 2 * p.n)]
        gens, comps = [_components(g) for g in p.generators], [_components(s) for s in sections]
        return ([c[j] for j in transverse for c in gens]
                + [c[j].diff(l) for l in range(k) for j in transverse for c in comps]
                + [c[j] for j in range(k) for c in gens]
                + [c[j].diff(l) for l in range(k) for c in comps for j in range(k)])

    @functools.cached_property
    def _generator_decomposition(self) -> CompiledExprs:
        """Step 1's program, s each generator."""
        return CompiledExprs(self._generator_rows)

    @functools.cached_property
    def _extra_decomposition(self) -> CompiledExprs:
        """Step 4's program, s the extra section."""
        return CompiledExprs(self._decomposition_rows([self.p.extra]))

    # -- Steps 1 and 4 ----------------------------------------------------

    def _decomposition(self, program: CompiledExprs, S: int, nodes: np.ndarray, stage: str, what: str,
                       leaf: bool = False):
        """d_l s = sigma_l (leaf fields) + beta_l (generators) for the S
        sections of program (_decomposition_rows) at each node: beta (N, k,
        r, S) and, with leaf, sigma = d_l s_leaf - X_leaf beta_l (N, k, S, k),
        else None.  Every check runs at every node, in check order: T
        evaluates, T is not degenerate, per l the transverse rows of d_l s
        evaluate and their residual holds, then the leaf rows evaluate.  The
        first failure (nodes in order, at a node in check order) raises."""
        p = self.p
        N, k, r = len(nodes), p.k, p.r
        M = 2 * (p.n - k)
        vals, bad = program.evaluate(nodes)
        ends = M * r + M * S * np.arange(k + 1)  # of T and of each d_l s's transverse rows
        # the program's rows, node axis last: T (M, r, N) and every d_l s as
        # right-hand sides (M, k*S, N), columns l*S + s
        T = vals[: M * r].reshape(M, r, N)
        C = vals[M * r : ends[-1]].reshape(k, M, S, N).swapaxes(0, 1).reshape(M, k * S, N)
        X, degenerate, residual, violated = _decompose(T, C, S, p.tol)
        checks = np.empty((2 * k + 3, N), dtype=bool)
        checks[0::2] = False if bad is None else [bad[a:b].any(axis=0) for a, b in zip([0, *ends], [*ends, len(vals)])]
        checks[1::2] = np.vstack([degenerate, violated])
        hits = np.flatnonzero(checks.any(axis=0))
        if hits.size:
            i = hits[0]
            c, point = np.flatnonzero(checks[:, i])[0], plain(nodes[i])
            if c == 1:
                raise NonUniqueCoefficients("transverse components of the generators are pointwise dependent; "
                                            "re-present the family with an independent local frame",
                                            point=point, stage=stage)
            if c % 2:
                raise HypothesisViolated(f"leaf derivative of {what} leaves the span (residual "
                                         f"{residual[c // 2 - 1, i]:.3e})", point=point, stage=stage)
            program.raise_first(nodes, at=[i])
        beta = X.reshape(r, k, S, N).transpose(3, 1, 0, 2)
        if not leaf:
            return beta, None
        X_leaf = vals[ends[-1] : ends[-1] + k * r].T.reshape(N, k, r)
        d_leaf = vals[ends[-1] + k * r :].T.reshape(N, k, S, k)
        return beta, d_leaf - np.swapaxes(X_leaf[:, None] @ beta, -1, -2)

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

    def _B_on_line(self, heads: np.ndarray, j: np.ndarray, ids: np.ndarray, x: np.ndarray) -> np.ndarray:
        """B_j at the three RK4 nodes of each step a, on the x^j line through
        heads[a] at x^j = x[a], j = j[a]: shape (steps, 3, r, r).  A node is
        its line's id ids[a] (one per j and set of other coordinates) and its
        x^j; Step 1 runs once per distinct node (==), at its first
        occurrence, in one batch ordered by j from k-1 down."""
        step = np.repeat(np.arange(len(heads)), 3)  # the step of each node
        first = _first_rows(np.column_stack([ids[step], x.ravel()]))
        solved = np.flatnonzero(first == np.arange(len(first)))
        solved = solved[np.argsort(-j[step[solved]], kind="stable")]
        nodes = heads[step[solved]]
        nodes[np.arange(len(solved)), j[step[solved]]] = x.ravel()[solved]
        row = np.empty(len(first), dtype=int)  # the row of each solved node in the batch
        row[solved] = np.arange(len(solved))
        B = self._decomposition(self._generator_decomposition, self.p.r, nodes, "Step 1", "a generator")[0]
        return B[row[first], j[step]].reshape(-1, 3, *B.shape[2:])

    def _extend(self, j, heads: np.ndarray, counts, h, tails=()):
        """The grid of W at i*h, i = 1 .. counts[a], on the x^j line through
        each head a (j one leaf index, or one per line; h one step, or one
        per line), from I on the zero slice: one array, W at i*h of line a in
        row starts[a] + i - 1, with starts the running sum of counts; and the
        propagator of each tail (line, n, dx), the step of length dx from
        node n of that line.  Every step is W <- Phi W with Phi = _rk4(B, I,
        dx) from its own nodes, all formed in one batch; the lines step in
        lockstep, longest first (the lines still growing lead).  Nothing is
        judged here: non-finite stays non-finite under Phi W, so _fundamental
        judges the W its points read."""
        r, L = self.p.r, len(heads)
        h = np.broadcast_to(np.asarray(h, dtype=float), L)
        j = np.broadcast_to(j, L)
        counts = np.asarray(counts, dtype=int)
        grid, step = _runs(counts)  # the line of each grid step, and the node it starts from
        tails = np.reshape(tails, (-1, 3))
        line = np.concatenate([grid, tails[:, 0].astype(int)])
        if not len(line):
            return np.empty((0, r, r)), np.empty((0, r, r))
        n = np.concatenate([step, tails[:, 1]])
        dx = np.concatenate([h[grid], tails[:, 2]])
        x0 = n * h[line]
        # the ± lines through the same other coordinates share an id, and so their zero-slice node
        ids = _first_rows(_others(j, heads, j))[line]
        eye = np.repeat(np.eye(r)[None], len(line), axis=0)
        x = np.stack([x0, x0 + 0.5 * dx, x0 + dx], axis=1)
        Phi = self._rk4(self._B_on_line(heads[line], j[line], ids, x), eye, dx[:, None, None])
        if not len(grid):
            return np.empty((0, r, r)), Phi
        by_length = np.argsort(-counts, kind="stable")
        # growing[s]: how many lines take step s (the leading ones in by_length)
        growing = np.searchsorted(-counts[by_length], -np.arange(counts.max()))
        # the grid rows step by step, each step's lines longest first
        order = np.lexsort((np.argsort(by_length)[grid], step))
        W, grown, by_step = np.repeat(np.eye(r)[None], L, axis=0), np.empty((len(grid), r, r)), Phi[order]
        with np.errstate(over="ignore", invalid="ignore"):  # judged below
            for a, live in zip(np.cumsum(growing) - growing, growing):
                W = by_step[a : a + live] @ W[:live]
                grown[a : a + live] = W
        Ws = np.empty_like(grown)
        Ws[order] = grown
        return Ws, Phi[len(grid) :]

    def _fundamental(self, j, points: np.ndarray) -> np.ndarray:
        """W_j at each point (N x n), j one leaf index or one per point, from
        one _extend call over all lines through the points, each integrated
        from the zero slice to its farthest point, and the propagator of each
        point's last partial step.  A point within rounding of a grid node
        reads the grid there rather than take a full-length partial step.
        The first point, in input order, whose W is not finite raises."""
        r, step = self.p.r, self.p.ode_step
        out, j = np.repeat(np.eye(r)[None], len(points), axis=0), np.broadcast_to(j, len(points))
        x = points[np.arange(len(points)), j]
        live = np.flatnonzero(x != 0.0)
        if self.constant_tilde or not live.size:
            return out
        x = x[live]
        count, rounding = (np.abs(x) // step).astype(int), 1e-15 * np.maximum(1.0, np.abs(x))
        count += np.abs((count + 1) * step - np.abs(x)) <= rounding  # one rounding below a grid node: read it
        dx = x - np.copysign(count * step, x)
        first, line, target = _group_lines(j[live], points[live], count)
        tails = np.flatnonzero(np.abs(dx) > rounding)
        grid, Phi = self._extend(j[live[first]], points[live[first]], target, np.where(x[first] > 0.0, step, -step),
                                 np.column_stack([line[tails], count[tails], dx[tails]]))
        on = np.flatnonzero(count)  # past the zero slice: read the grid
        out[live[on]] = grid[(np.cumsum(target) - target)[line[on]] + count[on] - 1]
        if tails.size:
            at = live[tails]
            with np.errstate(over="ignore", invalid="ignore"):  # judged below
                out[at] = Phi @ out[at]
        for i in np.flatnonzero(~np.isfinite(out).all(axis=(1, 2)))[:1]:
            raise NumericalBreakdownError("non-finite values while integrating a fundamental matrix",
                                          point=plain(points[i]), stage="Step 2")
        return out

    def _solve_square(self, A, B, points, stage):
        cond = np.linalg.cond(A)
        singular = ~np.isfinite(cond) | (cond > 1.0 / self.p.tol)
        if singular.any():
            i = int(np.flatnonzero(singular)[0])
            raise NumericalBreakdownError(f"singular matrix (condition number {cond[i]:.3e})",
                                          point=plain(points[i]), stage=stage)
        return np.linalg.solve(A, B)

    def _H(self, points: np.ndarray) -> np.ndarray:
        """Nested product of fundamental-matrix ratios with successively
        zeroed leaf coordinates, at each point: W_{k-1}(x) W_{k-2}(q) ...
        W_0(q), q with leaf coordinates j..k-1 zeroed for W_{j-1}, as each
        ratio's denominator W_j(q) is I on the x^j = 0 slice.  One
        _fundamental pass gives every W, leaf index by leaf index from k-1."""
        p, N = self.p, len(points)
        if p.k == 0:
            return np.broadcast_to(np.eye(p.r), (N, p.r, p.r)).copy()
        q = np.repeat(points[None], p.k, axis=0)
        for s in range(p.k):  # W_j reads x^{j+1} .. x^{k-1} zeroed, j = k-1-s
            q[s, :, p.k - s : p.k] = 0.0
        H, *W = self._fundamental(np.repeat(np.arange(p.k)[::-1], N), q.reshape(-1, p.n)).reshape(p.k, N, p.r, p.r)
        with np.errstate(over="ignore", invalid="ignore"):  # _B judges a non-finite H singular
            for W_j in W:
                H = H @ W_j
        return H

    def _B(self, points: np.ndarray, H: np.ndarray) -> np.ndarray:
        """(H^T)^-1 at each point, from H there."""
        if self.constant_tilde:  # H = I, so B is I, bit for bit as the solve below gives it
            return np.repeat(np.eye(self.p.r)[None], len(points), axis=0)
        eye = np.broadcast_to(np.eye(self.p.r), H.shape)
        return self._solve_square(np.swapaxes(H, 1, 2), eye, points, "Step 2")

    def _checked(self, points) -> np.ndarray:
        """points (N x n) as floats, each checked to lie in the box when the
        fundamental matrices will be integrated there."""
        points = np.asarray(points, dtype=float)
        if self.p.k:
            self.p.chart.require_inside(points)
        return points

    # -- Step 3 -----------------------------------------------------------

    def generator_matrices(self, points) -> np.ndarray:
        """Evaluated generators as columns of a 2n x r matrix at each point
        (N, 2n, r), from one compiled batch."""
        points = np.asarray(points, dtype=float).reshape(-1, self.p.n)
        values = self._generator_exprs(points).reshape(self.p.r, 2 * self.p.n, len(points))
        return np.ascontiguousarray(values.transpose(2, 1, 0))

    def generator_matrix(self, m) -> np.ndarray:
        return self.generator_matrices([m])[0]

    def frames(self, points) -> np.ndarray:
        """The straightened frame at each point (N, 2n, r), with the lines of
        all points integrated together."""
        G, _, B, _ = self._evaluate(np.reshape(points, (-1, self.p.n)))
        return G @ B

    def frame(self, m) -> np.ndarray:
        """The straightened frame: columns i are the values of (Z_i, gamma_i)."""
        return self.frames([m])[0]

    # -- Step 4 -----------------------------------------------------------

    def _simpson(self, points: np.ndarray):
        """Plan R at each point, the sum over l = k-1 .. 0 of the composite
        Simpson quadratures of H^T beta_l along x^l from 0 to the point's
        x^l, with the later leaf coordinates zeroed: panels of width
        2*quad_step, final partial panel allowed.  Returns the nodes of every
        l, per line the zero slice and each full panel's midpoint and end up
        to the line's farthest upper limit (one lattice, signed per line),
        then each point's partial panel; and the function that turns H^T
        beta there (_Hbeta) into R.  It sums every full panel at once, runs
        each line's total in panel order (zero-padded past its last panel),
        and every upper limit reads the running total there."""
        p = self.p
        step = p.quad_step
        panel = 2.0 * step
        plans, nodes = [], [np.empty((0, p.n))]
        for l in range(p.k - 1, -1, -1):
            bases = points.copy()
            bases[:, l + 1 : p.k] = 0.0
            length = np.abs(bases[:, l])
            n_full = (length // panel).astype(int)
            live = np.flatnonzero((n_full > 0) | (length > 1e-15 * np.maximum(1.0, length)))
            if not live.size:
                continue
            sign, length, n_full = np.copysign(1.0, bases[live, l]), length[live], n_full[live]
            first, line, target = _group_lines(l, bases[live], n_full)
            # the panel boundaries from the zero slice, one by one, and the midpoint before each
            x = np.cumsum(np.r_[0.0, np.full(target.max(), panel)])
            lattice = np.empty(2 * len(x) - 1)
            lattice[0::2], lattice[1::2] = x, x[:-1] + step
            rem = length - x[n_full]
            at = np.flatnonzero(rem > 1e-15 * np.maximum(1.0, length))
            q = np.repeat(bases[live[np.r_[first, at]]], np.r_[2 * target + 1, np.full(at.size, 2)], axis=0)
            of, i = _runs(2 * target + 1)
            # per line its lattice, then the partial panels
            q[:, l] = np.concatenate([sign[first][of] * lattice[i], np.column_stack(
                [sign[at] * (x[n_full[at]] + 0.5 * rem[at]), sign[at] * length[at]]).ravel()])
            nodes.append(q)
            plans.append((l, live, sign, n_full, line, target, rem, at))

        def R(f):
            R = np.zeros((len(points), p.r))
            for (l, live, sign, n_full, line, target, rem, at), g in zip(
                    plans, np.split(f, np.cumsum([len(q) for q in nodes[1:]], dtype=int)[:-1])):
                g, starts = g[:, l], np.cumsum(2 * target + 1) - (2 * target + 1)
                of, i = _runs(target)  # the line of each full panel, and its place there
                a = starts[of] + 2 * i  # its first node
                totals = np.zeros((len(target), target.max() + 1, p.r))
                totals[of, i + 1] = (panel / 6.0) * (g[a] + 4.0 * g[a + 1] + g[a + 2])
                # each upper limit: the total of its full panels, plus its partial panel
                total = np.cumsum(totals, axis=1)[line, n_full]
                fa = g[starts[line[at]] + 2 * n_full[at]]  # at each partial panel's start
                fmid, fb = g[starts[-1] + 2 * target[-1] + 1 :].reshape(-1, 2, p.r).swapaxes(0, 1)
                total[at] += (rem[at, None] / 6.0) * (fa + 4.0 * fmid + fb)
                R[live] += sign[:, None] * total
            return R

        return np.concatenate(nodes), R

    def _Hbeta(self, nodes: np.ndarray, H: np.ndarray) -> np.ndarray:
        """H^T beta_l at each node for every leaf index l (N, k, r), from H there."""
        if not len(nodes):  # no panel to integrate: nothing is evaluated
            return np.empty((0, self.p.k, self.p.r))
        beta = self._decomposition(self._extra_decomposition, 1, nodes, "Step 4", "the extra section")[0]
        return (np.swapaxes(H, 1, 2)[:, None] @ beta)[..., 0]

    def _evaluate(self, points, corrected: bool = False):
        """G, H, B and, when corrected, Pi = -B R at each point (else None),
        from one Step-2 pass: one H over the points (for B) and, when
        corrected, the Simpson nodes of every leaf coordinate (for H^T
        beta).  The stages run in order (_Solver): the box, Steps 1 and 2,
        B, G (Step 3), then Step 4."""
        points = self._checked(points)  # in the box before any planning
        N = len(points)
        nodes, R = self._simpson(points) if corrected else (points[:0], None)
        H = self._H(np.concatenate([points, nodes]))
        B = self._B(points, H[:N])
        G = self.generator_matrices(points)
        Pi = None if R is None else (-B @ R(self._Hbeta(nodes, H[N:]))[..., None])[..., 0]
        return G, H[:N], B, Pi

    def extra_values(self, points) -> np.ndarray:
        """Values of the extra section (X, alpha) at each point (N, 2n)."""
        return self._extra_exprs(points).T

    def combined(self, m) -> np.ndarray:
        """Value of (X + Z, alpha + gamma) at m."""
        point = np.asarray([m], dtype=float)
        X = self.extra_values(point)
        G, _, _, Pi = self._evaluate(point, corrected=True)
        return (X + (G @ Pi[..., None])[..., 0])[0]


def solve_coefficients(p: FoliatedProblem, m):
    """The matrices (A, B_0..B_{k-1}) of the pointwise linear system for
    the leaf derivatives of the generators at m: A (k x r x k) and each
    B_l (r x r)."""
    solver = p._solver
    B, A = solver._decomposition(solver._generator_decomposition, p.r, solver._checked([m]), "Step 1", "a generator",
                                 leaf=True)
    return A[0], list(B[0])


def fundamental_matrix(p: FoliatedProblem, j: int, m) -> np.ndarray:
    """W_j at m: solution of dY/dx^j = B_j^T Y along the x^j line through
    m, with identity value on the x^j = 0 slice."""
    if not 0 <= j < p.k:
        raise InputError(f"leaf index {j} out of range 0..{p.k - 1}")
    return p._solver._fundamental(j, p._solver._checked([m]))[0]


def compute_Pi(p: FoliatedProblem, m) -> np.ndarray:
    """Pi = -B R at m, from the one Step-2 pass of combined(m)."""
    if p.extra is None:
        raise InputError("no extra section in this problem")
    return p._solver._evaluate([m], corrected=True)[3][0]


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


@dataclass
class InvariantFrameResult:
    """Outputs of the construction: the straightened frame, the optional
    corrected extra section, the verification report for the span/invariance
    properties, and the values run() evaluated at its N samples, row i at
    samples[i], and at their leaf stencils, row [l, i, j] at the j-th
    _stencil point of samples[i] along x^l (default step), bit-identical to
    the functions' values there."""

    problem: FoliatedProblem
    frame: object  # m -> 2n x r
    combined: object | None  # m -> 2n vector (X + Z, alpha + gamma)
    frames: object  # points (N x n) -> N x 2n x r, evaluated as one batch
    report: Report = field(default_factory=Report)
    samples: np.ndarray | None = None  # N x n
    sample_frames: np.ndarray | None = None  # N x 2n x r
    stencil_frames: np.ndarray | None = None  # k x N x 4 x 2n x r, empty when k = 0
    sample_B: np.ndarray | None = None  # N x r x r, the transform (H^T)^-1
    sample_H: np.ndarray | None = None  # N x r x r, the nested product H of Step 2
    sample_Pi: np.ndarray | None = None  # N x r, with an extra section
    sample_combined: np.ndarray | None = None  # N x 2n, with an extra section and k >= 1


def _leaf_invariance(
    values, stencils, deltas, p: FoliatedProblem, samples, tol: float, check: str, stage: str
) -> Report:
    """One record per leaf coordinate l: the l-th leaf derivative of the
    section (or frame) must have vanishing transverse vector components and
    vanishing form components.  values holds the section at the N samples,
    stencils[l] at the _stencil points of each sample along x^l (N x 4, with
    step deltas[l]).  Each sample's stencil is differenced at the _scale s of
    its values, where no difference overflows."""
    n, N = p.n, len(samples)
    axes = tuple(range(1, values.ndim))
    top = np.abs(values).max(axis=axes, initial=0.0)
    s = _scale(top)
    scale = 1.0 / s + top / s
    report = Report()
    for l, (stencil, delta) in enumerate(zip(stencils, deltas)):
        d = np.abs(_difference(np.moveaxis(stencil / s.reshape(N, 1, *[1] * len(axes)), 1, 0), delta))
        defect = np.maximum(d[:, p.k : n].max(axis=axes, initial=0.0), d[:, n:].max(axis=axes, initial=0.0))
        report.add(record_from_samples(f"{check}[{l}]", zip(defect / scale, samples), tol, stage=stage))
    return report


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
    samples and at the stencil points of every leaf-invariance check; the
    result keeps the frames at both (sample_frames, stencil_frames) and the
    other values at the samples."""
    tol = p.tol if tol is None else tol
    solver = p._solver
    samples = p.chart.checked_samples(samples, seed=seed, margin=0.1)
    report = Report()
    N, k = len(samples), p.k
    stencils = [_stencil(p.chart, samples, l) for l in range(k)]
    points = np.concatenate([samples] + [q.reshape(-1, p.n) for q, _ in stencils])
    deltas = [delta for _, delta in stencils]
    # G, H and B once, for the frames and the corrections, and with an
    # extra section Pi from the same Step-2 pass
    G, H, B, Pi = solver._evaluate(points, corrected=p.extra is not None)

    def at_stencils(values):  # the rows past the samples: k x N x 4 x ...
        return values[N:].reshape(k, N, 4, *values.shape[1:])

    frames = G @ B if k else G
    F = frames[:N]
    result = InvariantFrameResult(
        problem=p, frame=solver.frame if k else solver.generator_matrix, combined=None, report=report,
        frames=solver.frames if k else solver.generator_matrices, samples=samples, sample_frames=F,
        stencil_frames=at_stencils(frames), sample_B=B[:N], sample_H=H[:N])
    if k == 0:
        report.add(CheckRecord(check="trivial-foliation", passed=True,
                               detail="no leaf coordinates: generators returned unchanged"))
        result.sample_Pi = Pi
        return result

    # the generators laid out as the transpose of a row-major matrix, as the
    # one-point lstsq on the generator columns takes them: bit-identical
    G_columns = np.ascontiguousarray(np.swapaxes(G[:N], 1, 2)).swapaxes(1, 2)

    # (i) span equality at each sample, by mutual membership
    worst = np.maximum(span_defects(G_columns[:, None], np.swapaxes(F, 1, 2)).max(axis=1),
                       span_defects(F[:, None], np.swapaxes(G[:N], 1, 2)).max(axis=1))
    report.add(record_from_samples("frame-spans-distribution", zip(worst, samples), tol, stage="Step 3"))

    # (ii) brackets of the frame with the leaf fields stay tangent to the leaves
    report.extend(_leaf_invariance(F, result.stencil_frames, deltas, p, samples, tol, "frame-leaf-invariance",
                                   "Step 2"))

    if p.extra is not None:
        corrections = (G @ Pi[..., None])[..., 0]
        defects = span_defects(G_columns[:, None], corrections[:N, None])[:, 0]
        report.add(record_from_samples(
            "correction-in-distribution", zip(defects, samples), tol, stage="Step 4"))
        combined = solver.extra_values(points) + corrections
        report.extend(_leaf_invariance(combined[:N], at_stencils(combined), deltas, p, samples, tol,
                                       "corrected-leaf-invariance", "Step 4"))
        result.combined = solver.combined
        result.sample_Pi, result.sample_combined = Pi[:N], combined[:N]
    return result
