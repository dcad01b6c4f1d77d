"""Dirac structures and regular reduction on explicit charts.

Covers: graphs of Poisson bivectors, Lagrangian/closedness certification,
vertical distributions of infinitesimal actions, the pointwise
intersection of a Dirac structure with the orthogonal of the vertical
block, descending (push-forwardable) generators via the straightening
construction, invariant annihilator frames, and the pushforward check
certifying the reduced structure on a user-supplied quotient chart.

Everything pointwise is sampled evidence, not proof: a pass certifies the
checked properties at the sample set to the stated tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import OneForm, PontryaginSection, VectorField, pairing
from .distribution import (
    DEFAULT_RANK_TOL,
    GeneralizedDistribution,
    TangentDistribution,
    _norms,
    annihilator_basis,
    membership_residual,
    rank_at,
    span_residuals,
    svd_rank,
)
from .errors import EvalDomainError, InputError, VerificationError
from .invariant_gen import (
    _POINT_ERRORS,
    FoliatedProblem,
    InvariantFrameResult,
    _components,
    _difference,
    _stencil,
    require_vanishing,
    run,
)
from .report import CheckRecord, Report, record_from_samples
from .symexpr import ZERO, Chart, CompiledExprs, Expr, _coerce, plain

__all__ = [
    "DiracStructure",
    "PoissonBivector",
    "InfinitesimalAction",
    "QuotientMap",
    "graph_of_poisson",
    "is_closed",
    "characteristic_distributions",
    "vertical_and_K",
    "intersect_D_Kperp",
    "constant_rank_scan",
    "descending_generators",
    "invariant_annihilator_generators",
    "pushforward_check",
    "push_frame",
]


@dataclass(frozen=True)
class DiracStructure:
    """A Lagrangian subbundle presented by exactly n spanning sections."""

    chart: Chart
    generators: tuple[PontryaginSection, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if len(self.generators) != self.chart.n:
            raise InputError(
                f"a Dirac structure on a {self.chart.n}-dimensional chart needs exactly "
                f"{self.chart.n} generators, got {len(self.generators)}"
            )
        for g in self.generators:
            if g.chart != self.chart:
                raise InputError("generator chart differs from Dirac structure chart")

    def as_distribution(self) -> GeneralizedDistribution:
        return GeneralizedDistribution(self.chart, self.generators)

    def matrix_at(self, m) -> np.ndarray:
        """Evaluated generators as columns of a 2n x n matrix."""
        return np.column_stack([g(m) for g in self.generators])

    def validate(self, samples=None, tol: float = 1e-9) -> Report:
        """Certify rank n and pairwise isotropy of the generators at the
        samples; together these make the span Lagrangian."""
        if samples is None:
            samples = self.chart.sample_points()
        report = Report()
        dist = self.as_distribution()
        rank_pairs = [
            (0.0 if rank_at(dist, m, tol) == self.chart.n else 1.0, m) for m in samples
        ]
        report.add(record_from_samples("lagrangian-rank", rank_pairs, 0.0,
                                       detail=f"rank equals chart dimension {self.chart.n}",
                                       stage="validity"))
        iso = []
        exprs = [
            pairing(a, b)
            for i, a in enumerate(self.generators)
            for b in self.generators[i:]
        ]
        for m in samples:
            worst = max(abs(e.eval(m)) for e in exprs)
            iso.append((worst, m))
        report.add(record_from_samples("lagrangian-isotropy", iso, tol, stage="validity"))
        return report


@dataclass(frozen=True)
class PoissonBivector:
    chart: Chart
    components: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        n = self.chart.n
        rows = tuple(tuple(_coerce(c) for c in row) for row in self.components)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InputError(f"bivector components must form an {n} x {n} matrix")
        object.__setattr__(self, "components", rows)

    def antisymmetry_residual(self, samples) -> float:
        worst = 0.0
        n = self.chart.n
        for m in samples:
            M = np.array([[c.eval(m) for c in row] for row in self.components])
            worst = max(worst, float(np.abs(M + M.T).max()))
        return worst

    def sharp(self, alpha: OneForm) -> VectorField:
        """The anchor map: (sharp alpha)^i = sum_j pi^{ij} alpha_j, so that
        sharp(df) is the Hamiltonian vector field {f, .}."""
        coeffs = []
        for i in range(self.chart.n):
            c = ZERO
            for j in range(self.chart.n):
                c = c + self.components[i][j] * alpha.coeffs[j]
            coeffs.append(c)
        return VectorField(self.chart, tuple(coeffs))


@dataclass(frozen=True)
class InfinitesimalAction:
    """Generators of a Lie algebra action; optional structure constants
    c[a][b][d] for the expansion of [xi_a, xi_b] over the generators (with
    the anti-homomorphism sign: [xi_a, xi_b]_M + sum_d c_ab^d xi_d,M = 0)."""

    chart: Chart
    generators: tuple[VectorField, ...]
    structure_constants: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.chart != self.chart:
                raise InputError("action generator chart differs from action chart")

    def validate(self, samples=None, tol: float = 1e-9) -> Report:
        report = Report()
        if self.structure_constants is None or not self.generators:
            return report
        if samples is None:
            samples = self.chart.sample_points()
        n, d = self.chart.n, len(self.generators)
        c = np.array(self.structure_constants, dtype=float).reshape(d * d, d)  # row (a, b) of each pair
        pairs = [(a, b) for a in range(d) for b in range(d)]
        X, dX = _jets([PontryaginSection.from_vector(x) for x in self.generators], samples)
        residual = _pair_brackets(X, dX, pairs)[..., :n]
        with np.errstate(over="ignore", invalid="ignore"):  # judged by _require_finite
            for e in range(d):
                residual = residual + c[:, e, None] * X[:, None, e, :n]
        _require_finite(residual, pairs, samples, "action bracket residual")
        worst = np.abs(residual).max(axis=2, initial=0.0)
        report.add(record_from_samples(
            "action-anti-homomorphism",
            ((worst[s, p], m) for p in range(len(pairs)) for s, m in enumerate(samples)),
            tol, stage="validity"))
        return report


@dataclass(frozen=True)
class QuotientMap:
    """Explicit submersion onto a lower-dimensional target chart, constant
    along the vertical distribution."""

    source: Chart
    target: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        comps = tuple(_coerce(c) for c in self.components)
        if len(comps) != self.target.n:
            raise InputError(
                f"quotient map needs {self.target.n} components, got {len(comps)}"
            )
        object.__setattr__(self, "components", comps)
        jacobian = tuple(tuple(c.diff(j) for j in range(self.source.n)) for c in comps)  # [i][j]: d_j of c_i
        object.__setattr__(self, "_jacobian_exprs", jacobian)

    def __call__(self, m) -> np.ndarray:
        return np.array([c.eval(m) for c in self.components])

    def jacobian(self, m) -> np.ndarray:
        return np.array([[d.eval(m) for d in row] for row in self._jacobian_exprs])

    def validate(self, action: InfinitesimalAction, samples=None, tol: float = 1e-7) -> Report:
        if samples is None:
            samples = self.source.sample_points()
        report = Report()
        rank_pairs = []
        vert_pairs = []
        for m in samples:
            J = self.jacobian(m)
            rank_pairs.append((0.0 if svd_rank(J) == self.target.n else 1.0, m))
            worst = 0.0
            for xi in action.generators:
                worst = max(worst, float(np.abs(J @ xi(m)).max(initial=0.0)))
            vert_pairs.append((worst, m))
        report.add(record_from_samples("quotient-submersion-rank", rank_pairs, 0.0, stage="validity"))
        report.add(record_from_samples("quotient-constant-on-fibers", vert_pairs, tol,
                                       stage="validity"))
        return report


def graph_of_poisson(pi: PoissonBivector, samples=None, tol: float = 1e-9) -> DiracStructure:
    """Dirac structure spanned by (sharp dx^j, dx^j) for each coordinate."""
    if samples is None:
        samples = pi.chart.sample_points()
    residual = pi.antisymmetry_residual(samples)
    if residual > tol:
        raise InputError(f"bivector is not antisymmetric (residual {residual:.3e})")
    gens = []
    for j in range(pi.chart.n):
        dxj = OneForm.coordinate(pi.chart, j)
        gens.append(PontryaginSection(pi.sharp(dxj), dxj))
    return DiracStructure(pi.chart, tuple(gens))


def is_closed(D: DiracStructure, samples=None, tol: float = 1e-7) -> Report:
    """Sampled closure test: all pairwise Courant brackets of the
    generators stay in the pointwise span.  The brackets at every sample
    come from one batch of exact 1-jets, their residuals from one stacked
    least-squares call."""
    if samples is None:
        samples = D.chart.sample_points()
    S = len(D.generators)
    pairs = [(i, j) for i in range(S) for j in range(S) if i != j]
    V, dV = _jets(D.generators, samples)
    brackets = _pair_brackets(V, dV, pairs)
    _require_finite(brackets, pairs, samples, "Courant bracket of generators")
    # the generators laid out as the transpose of row-major values, as
    # membership_residual takes them, so the residuals are bit-identical
    residuals = span_residuals(np.swapaxes(V, 1, 2)[:, None], brackets)[1] / (1.0 + _norms(brackets))
    report = Report()
    for p, (i, j) in enumerate(pairs):
        report.add(record_from_samples(
            f"courant-closure[{i},{j}]", zip(residuals[:, p], samples), tol, stage="validity"))
    return report


def characteristic_distributions(D: DiracStructure, m, tol: float = DEFAULT_RANK_TOL):
    """Pointwise bases of the four characteristic spaces: vectors paired
    with zero form (G0), all reachable vectors (G1), and the analogous
    cotangent spaces (P0, P1)."""
    n = D.chart.n
    M = D.matrix_at(m)
    top, bottom = M[:n], M[n:]
    rank_top, u_top, vt_top = svd_rank(top, tol, bases=True)
    rank_bottom, u_bottom, vt_bottom = svd_rank(bottom, tol, bases=True)
    G1 = [u_top[:, i] for i in range(rank_top)]
    P1 = [u_bottom[:, i] for i in range(rank_bottom)]
    G0 = [top @ c for c in vt_bottom[rank_bottom:]]
    P0 = [bottom @ c for c in vt_top[rank_top:]]
    G0 = [v for v in G0 if np.linalg.norm(v) > tol]
    P0 = [v for v in P0 if np.linalg.norm(v) > tol]
    return G0, G1, P0, P1


def vertical_and_K(action: InfinitesimalAction):
    """The vertical distribution V, the block K = V + {0}, and a pointwise
    basis map for the annihilator of V (the form condition cutting out the
    orthogonal of K)."""
    chart = action.chart
    V = TangentDistribution(chart, action.generators)
    if action.generators:
        K_gens = tuple(PontryaginSection.from_vector(x) for x in action.generators)
    else:
        K_gens = (PontryaginSection.zero(chart),)
    K = GeneralizedDistribution(chart, K_gens)

    def vperp_basis(m, tol=DEFAULT_RANK_TOL):
        return annihilator_basis(V, m, tol)

    return V, K, vperp_basis


def intersect_D_Kperp(
    D: DiracStructure, action: InfinitesimalAction, m, tol: float = DEFAULT_RANK_TOL
):
    """Pointwise basis of the subspace of D(m) whose form part annihilates
    the vertical space; returns (basis columns, rank)."""
    n = D.chart.n
    M = D.matrix_at(m)
    bottom = M[n:]
    rows = np.array([xi(m) @ bottom for xi in action.generators]) if action.generators else np.zeros((0, n))
    rank, _, vt = svd_rank(rows, tol, bases=True)
    basis = M @ vt[rank:].T
    return [basis[:, i] for i in range(basis.shape[1])], basis.shape[1]


def constant_rank_scan(
    D: DiracStructure, action: InfinitesimalAction, samples, tol: float = DEFAULT_RANK_TOL
):
    """Scan the rank of the D / vertical-orthogonal intersection over the
    samples.  Returns (record, ranks); on failure the record's detail names
    two witness points with different ranks."""
    ranks = []
    for m in samples:
        _, rank = intersect_D_Kperp(D, action, m, tol)
        ranks.append((list(map(float, m)), rank))
    values = {rank for _, rank in ranks}
    if len(values) <= 1:
        record = CheckRecord(
            check="constant-rank-intersection",
            passed=True,
            detail=f"rank {ranks[0][1]} at all {len(ranks)} samples",
            stage="rank scan",
        )
    else:
        lo = min(values)
        hi = max(values)
        p_lo = next(p for p, rank in ranks if rank == lo)
        p_hi = next(p for p, rank in ranks if rank == hi)
        record = CheckRecord(
            check="constant-rank-intersection",
            passed=False,
            worst_residual=float(hi - lo),
            failing_point=p_lo,
            detail=f"rank {lo} at {p_lo} but rank {hi} at {p_hi}",
            stage="rank scan",
        )
    return record, ranks


def _jets(sections, points):
    """Exact 1-jets of S sections at N points: values V (N, S, 2n), vector
    part first, and first partials dV (N, S, n, 2n), dV[p, s, i, c] =
    d_i V[p, s, c].  One compiled batch of every component, then every
    Expr.diff partial, so it raises what Expr.eval raises at the first
    point, then the first expression, that fails."""
    points = np.asarray(points, dtype=float)
    N, n = points.shape
    comps = [c for s in sections for c in _components(s)]
    S = len(comps) // (2 * n)
    partials = [c.diff(i) for s in range(S) for i in range(n) for c in comps[2 * n * s : 2 * n * (s + 1)]]
    out = CompiledExprs(comps + partials)(points)
    values = np.ascontiguousarray(out[: len(comps)].T).reshape(N, S, 2 * n)
    return values, np.ascontiguousarray(out[len(comps) :].T).reshape(N, S, n, 2 * n)


def _frame_jets(frames, chart: Chart, samples):
    """1-jets of the frame columns at the samples, as _jets lays them out
    (a frame of r columns is r sections); the partials are fourth-order
    finite differences of the whole frame, one per coordinate.  The frames
    at all samples and stencil points are one batch, in the order a
    point-by-point pass evaluates them."""
    samples = np.asarray(samples, dtype=float)
    N, n = samples.shape
    stencils = [_stencil(chart, samples, i) for i in range(n)]
    points = np.concatenate([samples[:, None], *(q for q, _ in stencils)], axis=1)
    values = np.asarray(frames(points.reshape(-1, n)), dtype=float).reshape(N, 1 + 4 * n, 2 * n, -1)
    return _stencil_jets(values, np.array([delta for _, delta in stencils]))


def _stencil_jets(values, deltas):
    """1-jets from frame-like values (..., 1 + 4n, 2n, r) at a point and then
    at the _stencil points of each coordinate i (step deltas[i]) in turn."""
    n = len(deltas)
    stencil = values[..., 1:, :, :].reshape(*values.shape[:-3], n, 4, *values.shape[-2:])
    dF = _difference(np.moveaxis(stencil, -3, 0), deltas[:, None, None])
    return np.swapaxes(values[..., 0, :, :], -1, -2), np.moveaxis(dF, -1, -3)


def _courant(Va, dVa, Vb, dVb) -> np.ndarray:
    """Courant bracket ([X, Y], L_X beta - i_Y d alpha) of a = (X, alpha)
    and b = (Y, beta) from their 1-jets, over any broadcast stack; returns
    (..., 2n).  The sums run over i in the association of the trees that
    calculus.lie_bracket, lie_derivative_form and exterior_interior build,
    so on exact jets the result is bit-identical to evaluating
    calculus.courant_bracket.  An overflow is left in the result, for the
    caller's finiteness check or the record's non-finite residual."""
    n = Va.shape[-1] // 2
    X, Y, beta = Va[..., :n], Vb[..., :n], Vb[..., n:]
    shape = np.broadcast_shapes(Va.shape, Vb.shape)[:-1] + (n,)
    vec, lie, con = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            vec = (vec + X[..., i, None] * dVb[..., i, :n]) - Y[..., i, None] * dVa[..., i, :n]
            lie = (lie + X[..., i, None] * dVb[..., i, n:]) + beta[..., i, None] * dVa[..., :, i]
            con = con + Y[..., i, None] * (dVa[..., i, n:] - dVa[..., :, n + i])
        return np.concatenate([vec, lie - con], axis=-1)


def _pair_brackets(V, dV, pairs) -> np.ndarray:
    """Courant brackets of sections i and j of one jet for each pair (i, j):
    shape (N, len(pairs), 2n)."""
    a, b = [i for i, _ in pairs], [j for _, j in pairs]
    return _courant(V[:, a], dV[:, a], V[:, b], dV[:, b])


def _require_finite(values, pairs, samples, what: str):
    """Raise EvalDomainError, as evaluating the symbolic expression does, at
    the first pair, then sample, where values (N, pairs, m) are not finite."""
    bad = ~np.isfinite(values).all(axis=2)
    if bad.any():
        p, s = np.argwhere(bad.T)[0]
        point = plain(samples[s])
        raise EvalDomainError(f"non-finite value for {what} {list(pairs[p])} at {point}", point)


def _worst(a) -> np.ndarray:
    """Largest absolute entry of a (N, ...) stack at each of its N points."""
    return np.abs(a).reshape(len(a), -1).max(axis=1, initial=0.0)


def _action_brackets(action: InfinitesimalAction, result: InvariantFrameResult, samples):
    """Courant brackets [(xi, 0), (Z, gamma)] = ([xi, Z], L_xi gamma) of
    each action generator xi (exact jets) with each frame column (finite-
    difference jets) at the samples: shape (N, #generators, r, 2n); and
    1 + the largest absolute frame entry at each sample."""
    F, dF = _frame_jets(result.frames, result.problem.chart, samples)
    xi, dxi = _jets([PontryaginSection.from_vector(x) for x in action.generators], samples)
    brackets = _courant(xi[:, :, None], dxi[:, :, None], F[:, None], dF[:, None])
    return brackets, 1.0 + _worst(F)


def _check_foliated_presentation(action: InfinitesimalAction, problem: FoliatedProblem, samples):
    """The chart must present the vertical distribution as the span of the
    first k coordinate fields."""
    k = problem.k
    for m in samples[: min(len(samples), 8)]:
        vals = np.array([xi(m) for xi in action.generators])
        if vals.size == 0:
            if k != 0:
                raise InputError("action has no generators but the chart declares leaves")
            return
        transverse = float(np.abs(vals[:, k:]).max(initial=0.0))
        if transverse > 1e-9 * (1.0 + np.abs(vals).max()):
            raise InputError(
                "chart is not foliated for this action: a generator has components "
                f"beyond the leaf block at {plain(m)}"
            )
        if svd_rank(vals[:, :k]) != k:
            raise InputError(
                f"action generators do not span the leaf block at {plain(m)}"
            )


def descending_generators(
    D: DiracStructure,
    action: InfinitesimalAction,
    problem: FoliatedProblem,
    samples=None,
    tol: float | None = None,
) -> InvariantFrameResult:
    """Straighten a user-supplied spanning family of the D / vertical-
    orthogonal intersection into descending generators, and verify the
    descending-section conditions: invariance of the frame forms under the
    action generators, and stability of the vertical distribution under
    brackets with the frame vectors."""
    tol = problem.tol if tol is None else tol
    if samples is None:
        samples = problem.chart.sample_points(margin=0.1)
    _check_foliated_presentation(action, problem, samples)
    n, k = problem.n, problem.k

    dist = D.as_distribution()
    supplied = GeneralizedDistribution(problem.chart, problem.generators)
    member_pairs = []
    span_pairs = []
    for m in samples:
        worst = 0.0
        for g in problem.generators:
            v = g(m)
            worst = max(worst, membership_residual(dist, m, v) / (1.0 + np.linalg.norm(v)))
            form = v[n:]
            for xi in action.generators:
                worst = max(worst, abs(float(form @ xi(m))) / (1.0 + np.linalg.norm(v)))
        member_pairs.append((worst, m))
        basis, rank = intersect_D_Kperp(D, action, m)
        worst_span = 0.0 if rank == len(problem.generators) else 1.0
        for w in basis:
            worst_span = max(
                worst_span, membership_residual(supplied, m, w) / (1.0 + np.linalg.norm(w))
            )
        span_pairs.append((worst_span, m))

    result = run(problem, samples=samples, tol=tol)
    result.report.add(record_from_samples(
        "supplied-family-in-intersection", member_pairs, tol, stage="rank scan"))
    result.report.add(record_from_samples(
        "supplied-family-spans-intersection", span_pairs, tol, stage="rank scan"))

    brackets, scale = _action_brackets(action, result, samples)
    for idx_xi in range(len(action.generators)):
        B = brackets[:, idx_xi]
        # vertical means: no components beyond the leaf block
        forms, vectors = _worst(B[..., n:]) / scale, _worst(B[..., k:n]) / scale
        result.report.add(record_from_samples(
            f"frame-forms-action-invariant[{idx_xi}]", zip(forms, samples), tol, stage="descending"))
        result.report.add(record_from_samples(
            f"frame-vectors-preserve-vertical[{idx_xi}]", zip(vectors, samples), tol, stage="descending"))
    return result


def invariant_annihilator_generators(
    action: InfinitesimalAction,
    problem: FoliatedProblem,
    samples=None,
    tol: float | None = None,
) -> InvariantFrameResult:
    """Straighten a supplied spanning family of the vertical annihilator
    (sections with zero vector part) into action-invariant forms."""
    tol = problem.tol if tol is None else tol
    if samples is None:
        samples = problem.chart.sample_points(margin=0.1)
    _check_foliated_presentation(action, problem, samples)
    n = problem.n
    for g in problem.generators:
        for c in g.vf.coeffs:
            require_vanishing(c, problem.chart, "annihilator generators must have zero vector part")
    result = run(problem, samples=samples, tol=tol)
    brackets, scale = _action_brackets(action, result, samples)
    for idx_xi in range(len(action.generators)):
        result.report.add(record_from_samples(
            f"annihilator-frame-action-invariant[{idx_xi}]",
            zip(_worst(brackets[:, idx_xi, ..., n:]) / scale, samples), tol, stage="descending"))
    return result


# Gauss–Newton steps of one lift, and halvings of one step.
LIFT_MAX_ITER = 50
LIFT_MAX_HALVINGS = 30


def _projected_step(J: np.ndarray, r: np.ndarray, x, lo, hi) -> np.ndarray:
    """Minimum-norm least-squares step for J step = -r that leaves fixed the
    coordinates sitting at a bound of the box and pointing out of it,
    re-solved over the free coordinates until none points out."""
    step = np.linalg.lstsq(J, -r, rcond=None)[0]
    free = np.ones(x.shape, dtype=bool)
    while True:
        out = free & (((x <= lo) & (step < 0)) | ((x >= hi) & (step > 0)))
        if not out.any():
            return step
        free &= ~out
        step = np.zeros_like(x)
        if free.any():
            step[free] = np.linalg.lstsq(J[:, free], -r, rcond=None)[0]


def least_squares(q: QuotientMap, ybar, x0) -> np.ndarray:
    """Box-constrained Gauss–Newton solve of q(x) = ybar from x0, with the
    exact Jacobian of q.  Each step is the minimum-norm least-squares step
    over the coordinates not held at a bound (_projected_step), clipped to
    the source box and halved until the residual norm falls.  Stops when no
    halving lowers it, when it is 0, or after LIFT_MAX_ITER steps; returns
    the last point reached."""
    lo, hi = np.array(q.source.box).T
    ybar = np.asarray(ybar, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = q(x) - ybar
    norm = np.linalg.norm(r)
    for _ in range(LIFT_MAX_ITER):
        if norm == 0.0:
            break
        step = _projected_step(q.jacobian(x), r, x, lo, hi)
        for _ in range(LIFT_MAX_HALVINGS):
            trial = np.clip(x + step, lo, hi)
            if np.array_equal(trial, x):  # a shorter step cannot move either
                return x
            r_trial = q(trial) - ybar
            norm_trial = np.linalg.norm(r_trial)
            if norm_trial < norm:
                break
            step = 0.5 * step
        else:
            return x
        x, r, norm = trial, r_trial, norm_trial
    return x


class _Lift:
    """Numerically invert a quotient map from a reference source point.
    Keeps no state per point: a repeated target lifts to the same point."""

    def __init__(self, q: QuotientMap, reference: np.ndarray):
        self.q = q
        self.reference = np.asarray(reference, dtype=float)

    def __call__(self, ybar) -> np.ndarray:
        ybar = np.asarray(ybar, dtype=float)
        x = least_squares(self.q, ybar, self.reference)
        residual = np.linalg.norm(self.q(x) - ybar)
        if residual > 1e-8:
            raise VerificationError(
                f"could not lift target point {plain(ybar)} through the quotient map "
                f"(residual {residual:.3e})"
            )
        return x


def _push(q: QuotientMap, F: np.ndarray, J: np.ndarray):
    """Push an evaluated frame value F through the quotient map, whose
    Jacobian at the frame's point is J (see push_frame)."""
    n = q.source.n
    Xbar = J @ F[:n]
    abar = np.zeros((q.target.n, F.shape[1]))
    worst = 0.0
    for i in range(F.shape[1]):
        gamma = F[n:, i]
        sol, *_ = np.linalg.lstsq(J.T, gamma, rcond=None)
        worst = max(worst, float(np.linalg.norm(J.T @ sol - gamma)) / (1.0 + np.linalg.norm(gamma)))
        abar[:, i] = sol
    return Xbar, abar, worst


def push_frame(q: QuotientMap, frame, m, tol: float):
    """Push one frame value through the quotient map: target vectors are
    Jacobian images, target forms solve the pull-back equations by least
    squares.  Returns (target vectors, target forms, worst pull-back
    residual).  ``tol`` is not used; it stays in the signature for the
    callers that pass it."""
    F = np.asarray(frame(m), dtype=float)
    return _push(q, F, q.jacobian(m))


def pushforward_check(
    D: DiracStructure,
    action: InfinitesimalAction,
    q: QuotientMap,
    frame,
    samples=None,
    tol: float = 1e-6,
    n_fiber_pairs: int = 10,
    seed: int = 0,
    check_closedness: bool = True,
) -> Report:
    """Certify the reduced structure: frame forms are pull-backs, pushed
    values are constant on fibers, the pushed family has target rank and
    is isotropic, and (when requested) target Courant brackets of the
    pushed sections stay in their span.

    Every frame value the checks need (samples, fiber pairs, lifted closure
    targets and their stencils) is evaluated in one batch when frame is an
    InvariantFrameResult, else point by point."""
    if isinstance(frame, InvariantFrameResult) and frame.frames is not None:
        frames = frame.frames
    else:
        one = frame.frame if isinstance(frame, InvariantFrameResult) else frame

        def frames(points):
            return [one(m) for m in points]

    chart = q.source
    if samples is None:
        samples = chart.sample_points(margin=0.1)
    report = Report()
    nbar = q.target.n
    k = chart.leaf_count
    rng = np.random.default_rng(seed)

    # The points whose frame values the checks need and the Jacobian there,
    # in the order a point-by-point pass meets them.  An error on the way is
    # raised once the frames before it are evaluated, so the error raised is
    # that pass's first.
    points, jacobians = [], []

    def need(m) -> int:
        points.append(m)
        jacobians.append(q.jacobian(m))
        return len(points) - 1

    fibers = []  # (m2, q difference, index of m or None off the fiber)
    closure = []  # (ybar, index of its lift), its stencil lifts following
    error = None
    try:
        for m in samples:
            need(m)
        # fiber consistency: perturb leaf coordinates, compare pushed values
        for i in range(n_fiber_pairs):
            m = samples[i % len(samples)]
            m2 = np.asarray(m, dtype=float).copy()
            for l in range(k):
                lo, hi = chart.box[l]
                w = hi - lo
                m2[l] = lo + 0.1 * w + 0.8 * w * rng.random()
            qdiff = float(np.abs(q(m) - q(m2)).max(initial=0.0))
            if qdiff > 1e-9:
                fibers.append((m2, qdiff, None))
                continue
            fibers.append((m2, qdiff, need(m)))
            need(m2)
        if check_closedness:
            lift = _Lift(q, samples[0])
            for ybar in [q(m) for m in samples[: min(len(samples), 6)]]:
                at = need(lift(ybar))
                deltas = []  # the same for every target
                for i in range(nbar):
                    stencil, delta = _stencil(q.target, ybar, i)
                    for y in stencil:
                        need(lift(y))
                    deltas.append(delta)
                closure.append((ybar, at))
    except _POINT_ERRORS as exc:
        error = exc
    values = frames(points)
    if error is not None:
        raise error
    pushed = [_push(q, np.asarray(F, dtype=float), J) for F, J in zip(values, jacobians)]
    sections = np.stack([np.vstack(p[:2]) for p in pushed])  # pushed (Xbar, abar), 2 nbar x r each

    basic_pairs = []
    rank_pairs = []
    iso_pairs = []
    for m, (Xbar, abar, residual), stacked in zip(samples, pushed, sections):
        basic_pairs.append((residual, m))
        rank_pairs.append((0.0 if svd_rank(stacked) == nbar else 1.0, m))
        worst = 0.0
        for i in range(stacked.shape[1]):
            for j in range(stacked.shape[1]):
                val = abar[:, j] @ Xbar[:, i] + abar[:, i] @ Xbar[:, j]
                worst = max(worst, abs(float(val)))
        iso_pairs.append((worst, m))
    report.add(record_from_samples("pushed-forms-are-pullbacks", basic_pairs, tol,
                                   stage="pushforward"))
    report.add(record_from_samples("reduced-rank", rank_pairs, 0.0,
                                   detail=f"pushed family has rank {nbar}", stage="pushforward"))
    report.add(record_from_samples("reduced-isotropy", iso_pairs, tol, stage="pushforward"))

    fiber_pairs = []
    for m2, qdiff, at in fibers:
        if at is None:
            fiber_pairs.append((1.0 + qdiff, m2))
            continue
        scale = 1.0 + float(np.abs(sections[at]).max(initial=0.0))
        fiber_pairs.append((float(np.abs(sections[at] - sections[at + 1]).max(initial=0.0)) / scale, m2))
    report.add(record_from_samples("fiber-consistency", fiber_pairs, tol, stage="pushforward"))

    if check_closedness:
        lifts = np.array([at for _, at in closure])
        # each target's section, then its stencil sections: (targets, 1 + 4 nbar, 2 nbar, r)
        values = sections[lifts[:, None] + np.arange(1 + 4 * nbar)]
        V, dV = _stencil_jets(values, np.array(deltas))
        r = V.shape[1]
        brackets = _pair_brackets(V, dV, [(i, j) for i in range(r) for j in range(r) if i != j])
        residuals = span_residuals(values[:, 0, None], brackets)[1] / (1.0 + _norms(brackets))
        closure_pairs = zip(residuals.max(axis=1, initial=0.0), [ybar for ybar, _ in closure])
        report.add(record_from_samples("reduced-closure", closure_pairs, tol, stage="pushforward"))
    return report
