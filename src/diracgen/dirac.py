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

from .calculus import (
    OneForm,
    PontryaginSection,
    VectorField,
    courant_bracket,
    lie_bracket,
    pairing,
)
from .distribution import (
    DEFAULT_RANK_TOL,
    GeneralizedDistribution,
    TangentDistribution,
    annihilator_basis,
    membership_residual,
    rank_at,
    span_residual,
    svd_rank,
)
from .errors import InputError, VerificationError
from .invariant_gen import (
    _POINT_ERRORS,
    FoliatedProblem,
    InvariantFrameResult,
    _difference,
    _stencil,
    require_vanishing,
    run,
)
from .report import CheckRecord, Report, record_from_samples
from .symexpr import ZERO, Chart, Expr, _coerce, plain

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

    @property
    def dim(self) -> int:
        return len(self.generators)

    def validate(self, samples=None, tol: float = 1e-9) -> Report:
        report = Report()
        if self.structure_constants is None or not self.generators:
            return report
        if samples is None:
            samples = self.chart.sample_points()
        c = self.structure_constants
        pairs = []
        for a, xa in enumerate(self.generators):
            for b, xb in enumerate(self.generators):
                residual = lie_bracket(xa, xb)
                for d, xd in enumerate(self.generators):
                    residual = residual + float(c[a][b][d]) * xd
                for m in samples:
                    pairs.append((float(np.abs(residual(m)).max(initial=0.0)), m))
        report.add(record_from_samples("action-anti-homomorphism", pairs, tol, stage="validity"))
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
        object.__setattr__(self, "_jacobian_exprs", _partials(comps, self.source.n))

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
    generators stay in the pointwise span."""
    if samples is None:
        samples = D.chart.sample_points()
    dist = D.as_distribution()
    report = Report()
    for i, a in enumerate(D.generators):
        for j, b in enumerate(D.generators):
            if i == j:
                continue
            bracket = courant_bracket(a, b)
            pairs = []
            for m in samples:
                v = bracket(m)
                pairs.append(
                    (membership_residual(dist, m, v) / (1.0 + np.linalg.norm(v)), m)
                )
            report.add(record_from_samples(f"courant-closure[{i},{j}]", pairs, tol, stage="validity"))
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


def _frame_jets(frames, chart: Chart, samples):
    """(m, F, dF) at each sample: the frame value and its coordinate
    gradient, one finite difference of the whole frame per coordinate.  The
    frames at all samples and stencil points are one batch, in the order a
    point-by-point pass evaluates them."""
    stencils = [[_stencil(chart, m, i) for i in range(chart.n)] for m in samples]
    values = frames([
        q for m, stencil in zip(samples, stencils) for q in (m, *(q for points, _ in stencil for q in points))
    ])
    size = 1 + 4 * chart.n
    jets = []
    for s, (m, stencil) in enumerate(zip(samples, stencils)):
        at = values[size * s : size * (s + 1)]
        dF = [_difference(at[1 + 4 * i : 5 + 4 * i], delta) for i, (_, delta) in enumerate(stencil)]
        jets.append((m, at[0], dF))
    return jets


def _partials(exprs, n: int) -> tuple:
    """All first partial derivatives: row i holds d_j of exprs[i], j < n."""
    return tuple(tuple(e.diff(j) for j in range(n)) for e in exprs)


def _action_defects(xi: VectorField, dxi_exprs, m, F, dF, n: int):
    """Lie derivatives along xi of all frame columns (Z, gamma) at once,
    from the frame value F and gradient dF at m (dxi_exprs are the partials
    of xi, see _partials):
    (L_xi gamma)_j = sum_i xi^i d_i(gamma_j) + gamma_i d_j(xi^i) and
    [Z, xi]^j = sum_a Z^a d_a(xi^j) - xi^a d_a(Z^j), each an n x r array."""
    xi_val = xi(m)
    dxi = [[d.eval(m) for d in row] for row in dxi_exprs]  # dxi[i][j] = d_j xi^i
    lie_form = np.array([
        sum(xi_val[i] * dF[i][n + j] for i in range(n))
        + sum(F[n + i] * dxi[i][j] for i in range(n))
        for j in range(n)
    ])
    bracket = np.array([
        sum(F[a] * dxi[j][a] for a in range(n)) - sum(xi_val[a] * dF[a][j] for a in range(n))
        for j in range(n)
    ])
    return lie_form, bracket


def _max_abs(a) -> float:
    return float(np.abs(a).max(initial=0.0))


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

    jets = _frame_jets(result.frames, problem.chart, samples)
    for idx_xi, xi in enumerate(action.generators):
        dxi = _partials(xi.coeffs, n)
        pairs_form = []
        pairs_vf = []
        for m, F, dF in jets:
            scale = 1.0 + _max_abs(F)
            lie_form, bracket = _action_defects(xi, dxi, m, F, dF, n)
            pairs_form.append((_max_abs(lie_form) / scale, m))
            # vertical means: no components beyond the leaf block
            pairs_vf.append((_max_abs(bracket[k:]) / scale, m))
        result.report.add(record_from_samples(
            f"frame-forms-action-invariant[{idx_xi}]", pairs_form, tol, stage="descending"))
        result.report.add(record_from_samples(
            f"frame-vectors-preserve-vertical[{idx_xi}]", pairs_vf, tol, stage="descending"))
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
    jets = _frame_jets(result.frames, problem.chart, samples)
    for idx_xi, xi in enumerate(action.generators):
        dxi = _partials(xi.coeffs, n)
        pairs = [(_max_abs(_action_defects(xi, dxi, m, F, dF, n)[0]) / (1.0 + _max_abs(F)), m)
                 for m, F, dF in jets]
        result.report.add(record_from_samples(
            f"annihilator-frame-action-invariant[{idx_xi}]", pairs, tol, stage="descending"))
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
    closure = []  # (ybar, index of its lift, stencil deltas)
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
                deltas = []
                for i in range(nbar):
                    stencil, delta = _stencil(q.target, ybar, i)
                    for y in stencil:
                        need(lift(y))
                    deltas.append(delta)
                closure.append((ybar, at, deltas))
    except _POINT_ERRORS as exc:
        error = exc
    values = frames(points)
    if error is not None:
        raise error
    pushed = [_push(q, np.asarray(F, dtype=float), J) for F, J in zip(values, jacobians)]

    basic_pairs = []
    rank_pairs = []
    iso_pairs = []
    for m, (Xbar, abar, residual) in zip(samples, pushed):
        basic_pairs.append((residual, m))
        stacked = np.vstack([Xbar, abar])
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
        s1 = np.hstack([*pushed[at][:2]])
        s2 = np.hstack([*pushed[at + 1][:2]])
        scale = 1.0 + float(np.abs(s1).max(initial=0.0))
        fiber_pairs.append((float(np.abs(s1 - s2).max(initial=0.0)) / scale, m2))
    report.add(record_from_samples("fiber-consistency", fiber_pairs, tol, stage="pushforward"))

    if check_closedness:
        def section(i):
            return np.vstack(pushed[i][:2])

        closure_pairs = []
        for ybar, at, deltas in closure:
            S = section(at)
            grads = [
                _difference([section(at + 1 + 4 * i + s) for s in range(4)], delta)
                for i, delta in enumerate(deltas)
            ]
            worst = 0.0
            r = S.shape[1]
            for i in range(r):
                for j in range(r):
                    if i == j:
                        continue
                    bracket = _target_courant(S, grads, nbar, i, j)
                    worst = max(worst, span_residual(S, bracket) / (1.0 + np.linalg.norm(bracket)))
            closure_pairs.append((worst, ybar))
        report.add(record_from_samples("reduced-closure", closure_pairs, tol, stage="pushforward"))
    return report


def _target_courant(S: np.ndarray, grads, nbar: int, i: int, j: int) -> np.ndarray:
    """Courant bracket of pushed sections i and j from sampled values S
    (2 nbar x r) and coordinate gradients of the pushed field."""
    X_i, a_i = S[:nbar, i], S[nbar:, i]
    X_j, a_j = S[:nbar, j], S[nbar:, j]
    dX_i = np.array([grads[b][:nbar, i] for b in range(nbar)])  # dX_i[b] = d_b X_i
    dX_j = np.array([grads[b][:nbar, j] for b in range(nbar)])
    da_i = np.array([grads[b][nbar:, i] for b in range(nbar)])
    da_j = np.array([grads[b][nbar:, j] for b in range(nbar)])
    vec = np.zeros(nbar)
    form = np.zeros(nbar)
    for b in range(nbar):
        vec[b] = sum(X_i[a] * dX_j[a][b] - X_j[a] * dX_i[a][b] for a in range(nbar))
        lie = sum(X_i[a] * da_j[a][b] + a_j[a] * dX_i[b][a] for a in range(nbar))
        contraction = sum(X_j[a] * (da_i[a][b] - da_i[b][a]) for a in range(nbar))
        form[b] = lie - contraction
    return np.concatenate([vec, form])
