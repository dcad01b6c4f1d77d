"""One-point references for the stacked checks of diracgen, and the
symbolic brackets they are tested against.

Each check here computes one sample at a time, as the library did before
its checks were stacked: values by one-point batches (``Expr.eval``, a
section's call, or a program compiled once), ranks by one
``np.linalg.svd`` per matrix, memberships by one ``np.linalg.lstsq`` per
vector, a running maximum over the samples that keeps a NaN, and one
Gauss–Newton lift per target.  The tests compare the
library's stacked records, ranks and errors with these, bit for bit; where
the squares of a vector's entries overflow, each side scales it its own
way, and they agree within rounding.

The brackets are exact: their coefficients are ``Expr`` trees, whose
evaluation the library's brackets on evaluated 1-jets (``dirac._courant``)
and leaf-derivative rows (``distribution.check_bracket_hypothesis``) must
match bit for bit.
"""

import math

import numpy as np

from diracgen.calculus import OneForm, PontryaginSection, VectorField, _same_chart, pairing
from diracgen.dirac import LIFT_MAX_HALVINGS, LIFT_MAX_ITER, LIFT_TOL, _courant, _pair_brackets, _stencil_jets
from diracgen.distribution import GeneralizedDistribution, span_defects
from diracgen.errors import InputError, VerificationError
from diracgen.invariant_gen import InvariantFrameResult, _difference, _stencil
from diracgen.report import CheckRecord, Report, record_from_samples
from diracgen.symexpr import ZERO, Add, CompiledExprs, Const, Div, Func, Mul, Neg, Pow, Sub, Var, plain

RANK_TOL = 1e-9


# -- the symbolic brackets ------------------------------------------------------


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^j = sum_i (X^i d_i Y^j - Y^i d_i X^j)."""
    chart = _same_chart(X, Y)
    coeffs = []
    for j in range(chart.n):
        c = ZERO
        for i in range(chart.n):
            c = c + X.coeffs[i] * Y.coeffs[j].diff(i) - Y.coeffs[i] * X.coeffs[j].diff(i)
        coeffs.append(c)
    return VectorField(chart, tuple(coeffs))


def lie_derivative_form(X: VectorField, alpha: OneForm) -> OneForm:
    """Cartan formula d(i_X alpha) + i_X d(alpha), componentwise
    (L_X alpha)_j = sum_i (X^i d_i alpha_j + alpha_i d_j X^i)."""
    chart = _same_chart(X, alpha)
    coeffs = []
    for j in range(chart.n):
        c = ZERO
        for i in range(chart.n):
            c = c + X.coeffs[i] * alpha.coeffs[j].diff(i) + alpha.coeffs[i] * X.coeffs[i].diff(j)
        coeffs.append(c)
    return OneForm(chart, tuple(coeffs))


def exterior_interior(Y: VectorField, alpha: OneForm) -> OneForm:
    """The contraction i_Y d(alpha): component j is sum_i Y^i (d_i alpha_j - d_j alpha_i)."""
    chart = _same_chart(Y, alpha)
    a, n = alpha.coeffs, chart.n
    return OneForm(chart, tuple(sum((Y.coeffs[i] * (a[j].diff(i) - a[i].diff(j)) for i in range(n)), ZERO)
                                for j in range(n)))


def differential(f, chart) -> OneForm:
    """The exact one-form df."""
    return OneForm(chart, tuple(f.diff(j) for j in range(chart.n)))


def skew_bracket(a: PontryaginSection, b: PontryaginSection) -> PontryaginSection:
    """Skew-symmetric bracket
    ([X, Y], L_X beta - L_Y alpha + (1/2) d(alpha(Y) - beta(X)))."""
    chart = _same_chart(a.vf, b.vf)
    X, alpha = a.vf, a.form
    Y, beta = b.vf, b.form
    vf = lie_bracket(X, Y)
    form = (
        lie_derivative_form(X, beta)
        - lie_derivative_form(Y, alpha)
        + differential(alpha.contract(Y) - beta.contract(X), chart) * 0.5
    )
    return PontryaginSection(vf, form)


def courant_bracket(a: PontryaginSection, b: PontryaginSection) -> PontryaginSection:
    """Non-skew bracket ([X, Y], L_X beta - i_Y d(alpha))."""
    _same_chart(a.vf, b.vf)
    X, alpha = a.vf, a.form
    Y, beta = b.vf, b.form
    return PontryaginSection(
        lie_bracket(X, Y), lie_derivative_form(X, beta) - exterior_interior(Y, alpha)
    )


def leaf_fields(chart) -> tuple:
    """The leaf fields (d_l, 0), l < chart.leaf_count."""
    return tuple(PontryaginSection.from_vector(VectorField.coordinate(chart, l)) for l in range(chart.leaf_count))


def leaf_directional_derivative(fn, chart, m, l: int, delta: float | None = None):
    """Fourth-order central finite difference of a point evaluator along
    the l-th coordinate, with the probe clamped into the box interior so
    the stencil fits."""
    points, delta = _stencil(chart, m, l, delta)
    return _difference([fn(q) for q in points], delta)


# -- the evaluator --------------------------------------------------------------

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}


class _Flagged(Exception):
    pass


def expr_value(expr, point):
    """expr at one point by a walk of its tree, each node after its
    operands, left to right, by numpy's elementwise function on float64
    scalars.  Returns the value as a float, or the message of the error
    evaluating expr there raises: the first node that flags names it (a
    zero denominator or 0^-k: division by zero in that node; exp or a power
    that gives ±inf from a finite operand: overflow evaluating expr; sin or
    cos of ±inf: non-finite value inside expr), else a value that is not
    finite does (non-finite value for expr)."""

    def walk(e):
        if isinstance(e, Const):
            return np.float64(e.value)
        if isinstance(e, Var):
            return np.float64(point[e.index])
        if isinstance(e, Neg):
            return np.negative(walk(e.arg))
        if isinstance(e, Func):
            x = walk(e.arg)
            value = _FUNCTIONS[e.name](x)
            if e.name == "exp" and np.isinf(value) and np.isfinite(x):
                raise _Flagged(f"overflow evaluating {expr}")
            if e.name != "exp" and np.isinf(x):
                raise _Flagged(f"non-finite value inside {expr}")
            return value
        if isinstance(e, Pow):
            x = walk(e.base)
            value = np.power(x, float(e.exponent))
            if x == 0.0 and e.exponent < 0:
                raise _Flagged(f"division by zero in {e}")
            if np.isinf(value) and np.isfinite(x):
                raise _Flagged(f"overflow evaluating {expr}")
            return value
        left, right = walk(e.left), walk(e.right)
        if isinstance(e, Div) and right == 0.0:
            raise _Flagged(f"division by zero in {e}")
        return _BINARY[type(e)](left, right)

    with np.errstate(all="ignore"):
        try:
            value = walk(expr)
        except _Flagged as exc:
            return f"{exc} at {plain(point)}"
    return float(value) if np.isfinite(value) else f"non-finite value for {expr} at {plain(point)}"


def matrix_at(sections, m) -> np.ndarray:
    """The sections evaluated at m, as rows."""
    return np.array([g(m) for g in sections])


def rank(matrix, tol: float = RANK_TOL, bases: bool = False):
    """Numerical rank of one matrix: singular values above tol * sigma_max."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        rows, cols = matrix.shape
        return (0, np.eye(rows), np.eye(cols)) if bases else 0
    if bases:
        u, sv, vt = np.linalg.svd(matrix)
    else:
        sv = np.linalg.svd(matrix, compute_uv=False)
    r = int(np.sum(sv > tol * sv[0])) if sv[0] > 0.0 else 0
    return (r, u, vt) if bases else r


def rank_at(delta: GeneralizedDistribution, m, tol: float = RANK_TOL) -> int:
    return rank(matrix_at(delta.generators, m), tol)


def span_residual(A, v) -> float:
    """Least-squares residual of v in the columns of A."""
    x = np.linalg.lstsq(A, v, rcond=None)[0]
    return float(np.linalg.norm(A @ x - v))


def membership_residual(delta: GeneralizedDistribution, m, v) -> float:
    return span_residual(matrix_at(delta.generators, m).T, np.asarray(v, dtype=float))


def length(v) -> float:
    """np.linalg.norm of v, or math.hypot's where that overflows."""
    with np.errstate(over="ignore"):
        size = np.linalg.norm(v)
    return size if np.isfinite(size) or not np.isfinite(v).all() else math.hypot(*np.ravel(v))


def relative(defect, v) -> float:
    """defect(v) / (1 + |v|) for a defect that scales with v, |v| by
    np.linalg.norm; where that overflows though v is finite, both are taken
    of v over its largest entry, the norm by math.hypot."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        size = np.linalg.norm(v)
    if np.isfinite(size) or not np.isfinite(v).all():
        return defect(v) / (1.0 + size)
    s = float(np.abs(v).max())
    return defect(v / s) / (1.0 / s + math.hypot(*(v / s)))


def contains(delta: GeneralizedDistribution, m, v, tol: float) -> bool:
    v = np.asarray(v, dtype=float)
    return membership_residual(delta, m, v) <= tol * (1.0 + np.linalg.norm(v))


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


def least_squares(q, ybar, x0) -> tuple[np.ndarray, float]:
    """dirac.least_squares for one target: Gauss–Newton on q's one-point values,
    each step clipped to the box and halved until the residual norm falls."""
    lo, hi = np.array(q.source.box).T
    ybar = np.asarray(ybar, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = q(x) - ybar
    norm = length(r)
    for _ in range(LIFT_MAX_ITER):
        if norm == 0.0:
            break
        step = _projected_step(q.jacobian(x), r, x, lo, hi)
        for _ in range(LIFT_MAX_HALVINGS):
            trial = np.clip(x + step, lo, hi)
            if np.array_equal(trial, x):  # a shorter step cannot move either
                return x, norm
            r_trial = q(trial) - ybar
            norm_trial = length(r_trial)
            if norm_trial < norm:
                break
            step = 0.5 * step
        else:
            return x, norm
        x, r, norm = trial, r_trial, norm_trial
    return x, norm


def lift(q, reference, ybar) -> np.ndarray:
    """The lift of ybar through q from reference, or VerificationError."""
    ybar = np.asarray(ybar, dtype=float)
    x, _ = least_squares(q, ybar, np.asarray(reference, dtype=float))
    residual = length(q(x) - ybar)
    if residual > LIFT_TOL:
        raise VerificationError(
            f"could not lift target point {plain(ybar)} through the quotient map "
            f"(residual {residual:.3e})"
        )
    return x


def _require_samples(samples):
    if len(samples) == 0:
        raise InputError("no sample points")


# -- the checks ---------------------------------------------------------------


def dirac_validate(D, samples, tol: float = 1e-9) -> Report:
    _require_samples(samples)
    report = Report()
    n = D.chart.n
    rank_pairs = [(0.0 if rank(matrix_at(D.generators, m), tol) == n else 1.0, m) for m in samples]
    report.add(record_from_samples("lagrangian-rank", rank_pairs, 0.0,
                                   detail=f"rank equals chart dimension {n}", stage="validity"))
    pairings = CompiledExprs([pairing(a, b) for i, a in enumerate(D.generators) for b in D.generators[i:]])
    iso = [(max(abs(float(v)) for v in pairings(np.asarray(m)[None])[:, 0]), m) for m in samples]
    report.add(record_from_samples("lagrangian-isotropy", iso, tol, stage="validity"))
    return report


def antisymmetry_residual(pi, samples) -> float:
    worst, n = 0.0, len(pi.components)
    components = CompiledExprs([c for row in pi.components for c in row])
    for m in samples:
        M = components(np.asarray(m)[None])[:, 0].reshape(n, n)
        worst = max(worst, float(np.abs(M + M.T).max()))
    return worst


def quotient_validate(q, action, samples, tol: float = 1e-7) -> Report:
    _require_samples(samples)
    report = Report()
    rank_pairs, vert_pairs = [], []
    for m in samples:
        J = q.jacobian(m)
        rank_pairs.append((0.0 if rank(J) == q.target.n else 1.0, m))
        worst = 0.0
        for xi in action.generators:
            worst = float(np.maximum(worst, np.abs(J @ xi(m)).max(initial=0.0)))
        vert_pairs.append((worst, m))
    report.add(record_from_samples("quotient-submersion-rank", rank_pairs, 0.0, stage="validity"))
    report.add(record_from_samples("quotient-constant-on-fibers", vert_pairs, tol, stage="validity"))
    return report


def intersect_D_Kperp(D, action, m, tol: float = RANK_TOL):
    n = D.chart.n
    M = np.column_stack([g(m) for g in D.generators])
    bottom = M[n:]
    rows = np.array([xi(m) @ bottom for xi in action.generators]) if action.generators else np.zeros((0, n))
    r, _, vt = rank(rows, tol, bases=True)
    basis = M @ vt[r:].T
    return [basis[:, i] for i in range(basis.shape[1])], basis.shape[1]


def constant_rank_scan(D, action, samples, tol: float = RANK_TOL):
    ranks = []
    for m in samples:
        _, r = intersect_D_Kperp(D, action, m, tol)
        ranks.append((list(map(float, m)), r))
    values = {r for _, r in ranks}
    if len(values) <= 1:
        record = CheckRecord(check="constant-rank-intersection", passed=True,
                             detail=f"rank {ranks[0][1]} at all {len(ranks)} samples", stage="rank scan")
    else:
        lo, hi = min(values), max(values)
        p_lo = next(p for p, r in ranks if r == lo)
        p_hi = next(p for p, r in ranks if r == hi)
        record = CheckRecord(check="constant-rank-intersection", passed=False, worst_residual=float(hi - lo),
                             failing_point=p_lo, detail=f"rank {lo} at {p_lo} but rank {hi} at {p_hi}",
                             stage="rank scan")
    return record, ranks


def check_foliated_presentation(action, problem, samples):
    k, names = problem.k, problem.chart.coord_names
    if not action.generators:
        if k != 0:
            raise InputError("action has no generators but the chart declares leaves")
        return
    for a, xi in enumerate(action.generators):
        for i in range(k, problem.n):
            if xi.coeffs[i] != ZERO:
                raise InputError(
                    f"chart is not foliated for this action: generator {a} has a component along {names[i]} "
                    f"(coordinate {i}), beyond the leaf block; write 0 for a component that vanishes"
                )
    for m in samples:
        vals = np.array([xi(m) for xi in action.generators])
        if rank(vals[:, :k]) != k:
            raise InputError(f"action generators do not span the leaf block at {plain(m)}")


def action_brackets(action, result):
    """dirac._action_brackets with the frame differenced along every
    coordinate, from a second evaluation of result.frames at the samples and
    at their stencils along each coordinate."""
    samples = result.samples
    (N, n), chart = samples.shape, result.problem.chart
    stencils = [_stencil(chart, samples, i) for i in range(n)]
    points = np.concatenate([samples[:, None], *(q for q, _ in stencils)], axis=1).reshape(-1, n)
    values = np.asarray(result.frames(points), dtype=float).reshape(N, 1 + 4 * n, 2 * n, -1)
    F, dF = _stencil_jets(values[:, 0], values[:, 1:].reshape(N, n, 4, *values.shape[2:]),
                          np.array([delta for _, delta in stencils]))
    xi, dxi = action._jets(samples)
    brackets = _courant(xi[:, :, None], dxi[:, :, None], F[:, None], dF[:, None])
    return brackets, 1.0 + np.abs(F).reshape(N, -1).max(axis=1, initial=0.0)


def supplied_family(D, action, problem, samples, tol) -> Report:
    """The two supplied-family records of descending_generators."""
    _require_samples(samples)
    check_foliated_presentation(action, problem, samples)
    n = problem.n
    dist = GeneralizedDistribution(D.chart, D.generators)
    supplied = GeneralizedDistribution(problem.chart, problem.generators)
    member_pairs, span_pairs = [], []
    for m in samples:
        worst = 0.0
        for g in problem.generators:
            v = g(m)
            worst = float(np.maximum(worst, relative(lambda u: membership_residual(dist, m, u), v)))
            for xi in action.generators:
                worst = float(np.maximum(worst, relative(lambda u: abs(float(u[n:] @ xi(m))), v)))
        member_pairs.append((worst, m))
        basis, r = intersect_D_Kperp(D, action, m)
        worst_span = 0.0 if r == len(problem.generators) else 1.0
        for w in basis:
            worst_span = float(np.maximum(worst_span, relative(lambda u: membership_residual(supplied, m, u), w)))
        span_pairs.append((worst_span, m))
    return Report([
        record_from_samples("supplied-family-in-intersection", member_pairs, tol, stage="rank scan"),
        record_from_samples("supplied-family-spans-intersection", span_pairs, tol, stage="rank scan"),
    ])


def check_bracket_hypothesis(D, extra, samples, tol) -> Report:
    _require_samples(samples)
    leaves = leaf_fields(D.chart)
    span = GeneralizedDistribution(D.chart, leaves + D.generators)
    report = Report()

    def run_pairs(sections, check_name):
        for i, sec in enumerate(sections):
            for l, theta in enumerate(leaves):
                bracket = skew_bracket(theta, sec)
                pairs = []
                with np.errstate(over="ignore", invalid="ignore"):
                    for m in samples:
                        v = bracket(m)
                        pairs.append((relative(lambda u: membership_residual(span, m, u), v), m))
                report.add(record_from_samples(
                    f"{check_name}[{i},{l}]", pairs, tol,
                    detail="bracket of generator with leaf field stays in leaf+distribution span",
                    stage="hypotheses"))

    run_pairs(D.generators, "bracket-hypothesis-generators")
    if extra is not None:
        run_pairs([extra], "bracket-hypothesis-extra")
    return report


def push(q, F, J):
    """One frame value F pushed through q, whose Jacobian there is J."""
    n = q.source.n
    Xbar = J @ F[:n]
    abar = np.zeros((q.target.n, F.shape[1]))
    worst = 0.0
    for i in range(F.shape[1]):
        gamma = F[n:, i]
        abar[:, i] = np.linalg.lstsq(J.T, gamma, rcond=None)[0]
        worst = float(np.maximum(worst, relative(lambda u: span_residual(J.T, u), gamma)))
    return Xbar, abar, worst


def pushforward_check(D, action, q, frame, samples, tol=1e-6, n_fiber_pairs=10, seed=0,
                      check_closedness=True) -> Report:
    """pushforward_check gathering and judging one point at a time; the
    frame values are still one call, over the points in the order met,
    once every point is gathered."""
    _require_samples(samples)
    frames = frame.frames if isinstance(frame, InvariantFrameResult) else frame
    chart = q.source
    report = Report()
    nbar = q.target.n
    k = chart.leaf_count
    rng = np.random.default_rng(seed)
    points, jacobians = [], []

    def need(m) -> int:
        points.append(m)
        jacobians.append(q.jacobian(m))
        return len(points) - 1

    fibers, closure = [], []
    for m in samples:
        need(m)
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
        for ybar in [q(m) for m in samples[: min(len(samples), 6)]]:
            at = need(lift(q, samples[0], ybar))
            deltas = []
            for i in range(nbar):
                stencil, delta = _stencil(q.target, ybar, i)
                for y in stencil:
                    need(lift(q, samples[0], y))
                deltas.append(delta)
            closure.append((ybar, at))
    values = frames(points)
    pushed = [push(q, np.asarray(F, dtype=float), J) for F, J in zip(values, jacobians)]
    sections = np.stack([np.vstack(p[:2]) for p in pushed])

    basic_pairs, rank_pairs, iso_pairs = [], [], []
    for m, (Xbar, abar, residual), stacked in zip(samples, pushed, sections):
        basic_pairs.append((residual, m))
        rank_pairs.append((0.0 if rank(stacked) == nbar else 1.0, m))
        worst = 0.0
        for i in range(stacked.shape[1]):
            for j in range(stacked.shape[1]):
                val = abar[:, j] @ Xbar[:, i] + abar[:, i] @ Xbar[:, j]
                worst = float(np.maximum(worst, abs(float(val))))
        iso_pairs.append((worst, m))
    report.add(record_from_samples("pushed-forms-are-pullbacks", basic_pairs, tol, stage="pushforward"))
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
        values = sections[lifts[:, None] + np.arange(1 + 4 * nbar)]
        V, dV = _stencil_jets(values[:, 0], values[:, 1:].reshape(len(values), nbar, 4, *values.shape[2:]),
                              np.array(deltas))
        r = V.shape[1]
        brackets = _pair_brackets(V, dV, [(i, j) for i in range(r) for j in range(r) if i != j])
        residuals = span_defects(values[:, 0, None], brackets)
        closure_pairs = zip(residuals.max(axis=1, initial=0.0), [ybar for ybar, _ in closure])
        report.add(record_from_samples("reduced-closure", closure_pairs, tol, stage="pushforward"))
    return report
