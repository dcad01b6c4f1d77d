"""Dirac structures and regular reduction on explicit charts.

Covers: graphs of Poisson bivectors, Lagrangian/closedness certification,
vertical distributions of infinitesimal actions, the pointwise
intersection of a Dirac structure with the orthogonal of the vertical
block, descending (push-forwardable) generators via the straightening
construction, invariant annihilator frames, and the pushforward check
certifying the reduced structure on a user-supplied quotient chart.

Everything pointwise is sampled evidence, not proof: a pass certifies the
checked properties at the sample set to the stated tolerance.

Each input compiles one program, whole: a DiracStructure its components,
pairings and exact partials, an InfinitesimalAction its generators and
their exact partials (both the first time a check needs them), a
FoliatedProblem its family (in its solver), a QuotientMap its components
and Jacobian (when it is built).  A program keeps its last evaluation, so
the checks at one sample set evaluate each input once.  Each check reads
rows of those programs, its ranks from one stacked SVD and its residuals
from one stacked least squares, bit-identical to one point at a time; the
lift runs all closure targets of a check in one stacked Gauss–Newton, each
target ending where lifting it alone ends.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .calculus import OneForm, PontryaginSection, VectorField, _components, pairing
from .distribution import (
    DEFAULT_RANK_TOL,
    _norms,
    _scaled,
    span_defects,
    span_residuals,
    stacked,
    svd_rank,
)
from .errors import EvalDomainError, InputError, VerificationError
from .invariant_gen import (
    FoliatedProblem,
    InvariantFrameResult,
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
    "constant_rank_scan",
    "descending_generators",
    "invariant_annihilator_generators",
    "pushforward_check",
    "push_frame",
]


def _read(samples, *parts) -> list:
    """The values (rows, N) of each part (program, rows) at the samples, from
    each program's last evaluation when that was at the same samples.  The
    parts are read in order, and a part that fails raises at its first
    failing sample, there at its first failing row."""
    out = []
    for program, rows in parts:
        values, bad = program.evaluate(samples)
        if bad is not None and bad[rows.start : rows.stop].any():
            program.raise_first(samples, rows)
        out.append(values[rows.start : rows.stop])
    return out


class _Sections(CompiledExprs):
    """The program of an input's sections, each ``width`` components on n
    coordinates: their values (rows ``values``), then ``more`` (rows
    ``more``), then their exact partials (rows ``partials``): d_i of each
    component, section by section, then i by i."""

    def __init__(self, comps, width: int, n: int, more=()):
        comps, more = list(comps), list(more)
        partials = [c.diff(i) for s in range(0, len(comps), width) for i in range(n) for c in comps[s : s + width]]
        super().__init__(comps + more + partials)
        self.width, self.n = width, n
        self.values, self.more = range(len(comps)), range(len(comps), len(comps) + len(more))
        self.partials = range(len(comps) + len(more), len(self.exprs))

    def jets(self, samples):
        """Values V (N, S, width) and partials dV (N, S, n, width),
        dV[p, s, i, c] = d_i V[p, s, c], at the samples."""
        values, partials = _read(samples, (self, self.values), (self, self.partials))
        V = stacked(values, self.width)
        return V, stacked(partials, self.width).reshape(*V.shape[:2], self.n, self.width)


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

    @functools.cached_property
    def _program(self) -> _Sections:
        """D's one program: its generators, their pairings (rows ``more``)
        and their partials, which is_closed reads wherever D is validated."""
        gens, n = self.generators, self.chart.n
        return _Sections([c for g in gens for c in _components(g)], 2 * n, n,
                         [pairing(a, b) for i, a in enumerate(gens) for b in gens[i:]])

    def validate(self, samples=None, tol: float = 1e-9) -> Report:
        """Certify rank n and pairwise isotropy of the generators at the
        samples; together these make the span Lagrangian.  The generators
        (ranks) at every sample are read first, then the pairings."""
        samples = self.chart.checked_samples(samples)
        n, program = self.chart.n, self._program
        values, pairs = _read(samples, (program, program.values), (program, program.more))
        ranks = svd_rank(stacked(values, 2 * n), tol)
        return Report([
            record_from_samples("lagrangian-rank", zip(np.where(ranks == n, 0.0, 1.0), samples), 0.0,
                                detail=f"rank equals chart dimension {n}", stage="validity"),
            record_from_samples("lagrangian-isotropy", zip(np.abs(pairs).max(axis=0), samples), tol,
                                stage="validity"),
        ])


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
        """Largest |pi^ij + pi^ji| over the samples, from one compiled batch."""
        M = stacked(CompiledExprs([c for row in self.components for c in row])(samples), self.chart.n)
        with np.errstate(over="ignore"):  # a sum past the largest float is an inf residual
            return float(np.abs(M + np.swapaxes(M, 1, 2)).max(initial=0.0))

    def sharp(self, alpha: OneForm) -> VectorField:
        """The anchor map: (sharp alpha)^i = sum_j pi^{ij} alpha_j, so that
        sharp(df) is the Hamiltonian vector field {f, .}."""
        n = self.chart.n
        return VectorField(self.chart, tuple(sum((self.components[i][j] * alpha.coeffs[j] for j in range(n)), ZERO)
                                             for i in range(n)))


@dataclass(frozen=True)
class InfinitesimalAction:
    """Generators of a Lie algebra action; optional structure constants
    c[a][b][d] for the expansion of [xi_a, xi_b] over the generators (with
    the anti-homomorphism sign: [xi_a, xi_b]_M + sum_d c_ab^d xi_d,M = 0),
    d x d x d finite numbers for d generators."""

    chart: Chart
    generators: tuple[VectorField, ...]
    structure_constants: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.chart != self.chart:
                raise InputError("action generator chart differs from action chart")
        if self.structure_constants is not None:
            d = len(self.generators)
            try:
                c = np.array(self.structure_constants, dtype=float)
            except (TypeError, ValueError, OverflowError):
                c = np.array(np.nan)
            if c.size != d**3 or (d and c.shape != (d, d, d)) or not np.isfinite(c).all():
                raise InputError(f"structure constants must be {d} x {d} x {d} finite numbers")

    @functools.cached_property
    def _program(self) -> _Sections:
        """The action's one program: its generators' coefficients and their
        partials."""
        return _Sections([c for xi in self.generators for c in xi.coeffs], self.chart.n, self.chart.n)

    def _jets(self, samples):
        """Exact 1-jets of the sections (xi, 0) at the samples: zero form
        parts and partials, as the sections' ZERO components evaluate."""
        return tuple(np.concatenate([a, np.zeros(a.shape)], axis=-1) for a in self._program.jets(samples))

    def validate(self, samples=None, tol: float = 1e-9) -> Report:
        samples = self.chart.checked_samples(samples)
        report = Report()
        if self.structure_constants is None or not self.generators:
            return report
        n, d = self.chart.n, len(self.generators)
        c = np.array(self.structure_constants, dtype=float).reshape(d * d, d)  # row (a, b) of each pair
        pairs = [(a, b) for a in range(d) for b in range(d)]
        X, dX = self._jets(samples)
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
        # q's one program: the components, then the Jacobian row by row (rows partials)
        object.__setattr__(self, "_program", _Sections(comps, 1, self.source.n))

    def __call__(self, m) -> np.ndarray:
        return _read(np.asarray(m, dtype=float)[None], (self._program, self._program.values))[0][:, 0].copy()

    def jacobian(self, m) -> np.ndarray:
        J = _read(np.asarray(m, dtype=float)[None], (self._program, self._program.partials))[0][:, 0]
        return J.reshape(self.target.n, self.source.n).copy()

    def validate(self, action: InfinitesimalAction, samples=None, tol: float = 1e-7) -> Report:
        """Full rank of the Jacobian and the action generators in its kernel
        at every sample: the Jacobian at every sample is read first, then
        the action."""
        samples = self.source.checked_samples(samples)
        n, nbar = self.source.n, self.target.n
        J, X = (stacked(v, n) for v in _read(samples, (self._program, self._program.partials),
                                             (action._program, action._program.values)))
        with np.errstate(over="ignore", invalid="ignore"):  # an inf image fails the record
            JX = (J[:, None] @ X[..., None])[..., 0]  # J @ xi at each sample, one product each
        vertical = np.abs(JX).max(axis=(1, 2), initial=0.0)  # a NaN image fails the record too
        return Report([
            record_from_samples("quotient-submersion-rank", zip(np.where(svd_rank(J) == nbar, 0.0, 1.0), samples),
                                0.0, stage="validity"),
            record_from_samples("quotient-constant-on-fibers", zip(vertical, samples), tol, stage="validity"),
        ])


def graph_of_poisson(pi: PoissonBivector, samples=None, tol: float = 1e-9) -> DiracStructure:
    """Dirac structure spanned by (sharp dx^j, dx^j) for each coordinate."""
    samples = pi.chart.checked_samples(samples)
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
    come from D's exact 1-jets, their residuals from one stacked
    least-squares call."""
    samples = D.chart.checked_samples(samples)
    S = len(D.generators)
    pairs = [(i, j) for i in range(S) for j in range(S) if i != j]
    V, dV = D._program.jets(samples)
    brackets = _pair_brackets(V, dV, pairs)
    _require_finite(brackets, pairs, samples, "Courant bracket of generators")
    # the generators laid out as the transpose of row-major values, as a
    # one-point np.linalg.lstsq on the generator columns takes them
    residuals = span_defects(np.swapaxes(V, 1, 2)[:, None], brackets)
    report = Report()
    for p, (i, j) in enumerate(pairs):
        report.add(record_from_samples(
            f"courant-closure[{i},{j}]", zip(residuals[:, p], samples), tol, stage="validity"))
    return report


def _as_columns(rows: np.ndarray) -> np.ndarray:
    """Section values (N, S, 2n) as C-contiguous columns (N, 2n, S), as np.column_stack lays them out."""
    return np.ascontiguousarray(np.swapaxes(rows, 1, 2))


def _dirac_and_action_values(D: DiracStructure, action: InfinitesimalAction, samples):
    """D's generators as columns (N, 2n, n), then the action's (N, d, n):
    D at every sample is read first, then the action."""
    M, X = _read(samples, (D._program, D._program.values), (action._program, action._program.values))
    return _as_columns(stacked(M, 2 * D.chart.n)), stacked(X, D.chart.n)


def _intersections(M: np.ndarray, X: np.ndarray, tol: float = DEFAULT_RANK_TOL):
    """The subspace of D whose form part annihilates the vertical space at N
    points, from D's generators as columns M (N, 2n, n) and the action's X
    (N, d, n): dimensions (N,) and bases (N, 2n, n), zero past the dimension;
    every product keeps its one-point shape, so its values too."""
    n = M.shape[2]
    rows = (X[:, :, None, :] @ M[:, None, n:])[:, :, 0, :]  # xi @ bottom, one vector-matrix product each
    ranks, _, vt = svd_rank(rows, tol, bases=True)
    basis = np.zeros(M.shape)
    for rank in set(ranks.tolist()):  # not np.unique, whose first call imports numpy.ma
        at = ranks == rank
        basis[at, :, : n - rank] = M[at] @ np.swapaxes(vt[at, rank:], 1, 2)
    return n - ranks, basis


def constant_rank_scan(D: DiracStructure, action: InfinitesimalAction, samples, tol: float = DEFAULT_RANK_TOL):
    """Scan the rank of the D / vertical-orthogonal intersection over the
    samples, from one batch and one stacked SVD.  Returns (record, ranks);
    on failure the record's detail names two witness points with different
    ranks."""
    samples = D.chart.checked_samples(samples)
    dims, _ = _intersections(*_dirac_and_action_values(D, action, samples), tol)
    ranks = [(plain(m), int(rank)) for m, rank in zip(samples, dims)]
    lo, hi = int(dims.min()), int(dims.max())
    p_lo, p_hi = (plain(samples[np.argmax(dims == rank)]) for rank in (lo, hi))
    record = CheckRecord(check="constant-rank-intersection", passed=lo == hi, stage="rank scan",
                         detail=f"rank {lo} at all {len(ranks)} samples")
    if lo != hi:
        record.worst_residual, record.failing_point = float(hi - lo), p_lo
        record.detail = f"rank {lo} at {p_lo} but rank {hi} at {p_hi}"
    return record, ranks


def _stencil_jets(values, stencils, deltas):
    """1-jets from frame-like values (..., 2n, r) at a point and at the
    _stencil points of each of its coordinates i (..., n, 4, 2n, r), with
    step deltas[i]: a frame of r columns is r sections.  A difference that
    overflows stays in the partials, for the bracket's record to judge."""
    with np.errstate(over="ignore", invalid="ignore"):
        dF = _difference(np.moveaxis(stencils, -3, 0), deltas[:, None, None])
    return np.swapaxes(values, -1, -2), np.moveaxis(dF, -1, -3)


def _courant(Va, dVa, Vb, dVb) -> np.ndarray:
    """Courant bracket ([X, Y], L_X beta - i_Y d alpha) of a = (X, alpha)
    and b = (Y, beta) from their 1-jets, over any broadcast stack; returns
    (..., 2n).  The sums run over i in the association of the trees that
    the symbolic brackets of tests/pointwise.py build, so on exact jets the
    result is bit-identical to evaluating their courant_bracket.  An
    overflow is left in the result, for the caller's finiteness check or
    the record's non-finite residual."""
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


def _action_brackets(action: InfinitesimalAction, result: InvariantFrameResult):
    """Courant brackets [(xi, 0), (Z, gamma)] = ([xi, Z], L_xi gamma) of
    each action generator xi (exact jets) with each frame column at the
    result's samples: shape (N, #generators, r, 2n); and 1 + the largest
    absolute frame entry at each sample.  The frame's jets are fourth-order
    differences of the frames run() kept at its leaf stencils, so no frame
    is evaluated here.  The bracket reads the frame's partial along x^i only
    times xi^i, so the frame is differenced only where some xi^i is not
    structurally zero, a leaf coordinate (_check_foliated_presentation), and
    its partials along the other coordinates are 0."""
    p, samples = result.problem, result.samples
    directions = [i for i in range(p.n) if any(xi.coeffs[i] != ZERO for xi in action.generators)]
    deltas = np.array([_stencil(p.chart, samples, i)[1] for i in directions])
    F, dF = _stencil_jets(result.sample_frames, np.moveaxis(result.stencil_frames[directions], 0, 1), deltas)
    partials = np.zeros(F.shape[:2] + (p.n, 2 * p.n))
    partials[:, :, directions] = dF
    xi, dxi = action._jets(samples)
    brackets = _courant(xi[:, :, None], dxi[:, :, None], F[:, None], partials[:, None])
    return brackets, 1.0 + _worst(F)


def _check_foliated_presentation(action: InfinitesimalAction, problem: FoliatedProblem, samples):
    """The chart must present the vertical distribution as the span of the
    first k coordinate fields.  Every action component beyond the leaf block
    must be structurally zero (0 as written, checked before any evaluation),
    so the action moves only along the leaf stencils run() evaluates; then
    the leaf components must span the leaf block at every sample, from one
    evaluation of the action, reported at the first that breaks it."""
    k, program = problem.k, action._program
    if not action.generators:
        if k != 0:
            raise InputError("action has no generators but the chart declares leaves")
        return
    beyond = [(a, i) for a, xi in enumerate(action.generators) for i in range(k, problem.n) if xi.coeffs[i] != ZERO]
    for a, i in beyond[:1]:
        raise InputError(f"chart is not foliated for this action: generator {a} has a component along "
                         f"{problem.chart.coord_names[i]} (coordinate {i}), beyond the leaf block; "
                         "write 0 for a component that vanishes")
    values, _ = program.evaluate(samples)
    program.raise_first(samples, program.values)
    X = stacked(values[program.values.start : program.values.stop], problem.n)
    for i in np.flatnonzero(svd_rank(X[..., :k]) != k)[:1]:
        raise InputError(f"action generators do not span the leaf block at {plain(samples[i])}")


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
    brackets with the frame vectors.

    That the family lies in and spans the intersection is checked from the
    programs of the family (its solver's), D and the action, with one
    stacked least-squares call per direction.  The action is checked as
    written first (no component beyond the leaf block), then the inputs
    are read in this order, each at every sample: the action (the
    foliated-chart check), the family, then D.  The brackets with the
    action read the frames run() kept, so the verdict takes one Step-2
    round."""
    tol = problem.tol if tol is None else tol
    chart = problem.chart
    samples = chart.checked_samples(samples, margin=0.1)
    _check_foliated_presentation(action, problem, samples)
    n, k, r = problem.n, problem.k, problem.r

    # the family, D, then the action, each at every sample
    family = problem._solver._generator_exprs
    G, rows, X = _read(samples, (family, range(2 * n * r)), (D._program, D._program.values),
                       (action._program, action._program.values))
    G, X, rows = stacked(G, 2 * n), stacked(X, n), stacked(rows, 2 * n)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN defect fails its record
        # each member in D's span and its form against each action generator,
        # then each basis vector of the intersection in the family's span
        s, scaled, norms = _scaled(G)
        size = 1.0 / s + norms
        inside = span_residuals(np.swapaxes(rows, 1, 2)[:, None], scaled)[1] / size
        paired = np.abs((scaled[:, :, None, None, n:] @ X[:, None, :, :, None])[..., 0, 0]) / size[..., None]
        member = np.concatenate([inside, paired.reshape(len(G), -1)], axis=1).max(axis=1, initial=0.0)
        dims, basis = _intersections(_as_columns(rows), X)
        W = np.swapaxes(basis, 1, 2)
        spans = span_defects(np.swapaxes(G, 1, 2)[:, None], W)
        spans[np.arange(n) >= dims[:, None]] = 0.0  # the zero columns past the dimension
        span = np.maximum(np.where(dims == r, 0.0, 1.0), spans.max(axis=1, initial=0.0))

    result = run(problem, samples=samples, tol=tol)
    result.report.add(record_from_samples(
        "supplied-family-in-intersection", zip(member, samples), tol, stage="rank scan"))
    result.report.add(record_from_samples(
        "supplied-family-spans-intersection", zip(span, samples), tol, stage="rank scan"))

    brackets, scale = _action_brackets(action, result)
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
    (sections with zero vector part) into action-invariant forms.  The
    action must be written on the leaf block (_check_foliated_presentation),
    and the brackets with it read the frames run() kept, so the verdict
    takes one Step-2 round."""
    tol = problem.tol if tol is None else tol
    chart = problem.chart
    samples = chart.checked_samples(samples, margin=0.1)
    _check_foliated_presentation(action, problem, samples)
    n = problem.n
    for g in problem.generators:
        for c in g.vf.coeffs:
            require_vanishing(c, problem.chart, "annihilator generators must have zero vector part")
    result = run(problem, samples=samples, tol=tol)
    brackets, scale = _action_brackets(action, result)
    for idx_xi in range(len(action.generators)):
        result.report.add(record_from_samples(
            f"annihilator-frame-action-invariant[{idx_xi}]",
            zip(_worst(brackets[:, idx_xi, ..., n:]) / scale, samples), tol, stage="descending"))
    return result


# Gauss–Newton steps of one lift, and halvings of one step.
LIFT_MAX_ITER = 50
LIFT_MAX_HALVINGS = 30
# Largest residual |q(x) - ybar| of a lifted point.
LIFT_TOL = 1e-8


def _projected_steps(J: np.ndarray, r: np.ndarray, x, lo, hi) -> np.ndarray:
    """Minimum-norm least-squares steps J[t] step = -r[t], bit-identical to
    np.linalg.lstsq, each re-solved over its free coordinates while one at a
    bound of the box points out of it (which then stays fixed)."""
    step = span_residuals(J, -r)[0]
    free = np.ones(x.shape, dtype=bool)
    while True:
        out = free & (((x <= lo) & (step < 0)) | ((x >= hi) & (step > 0)))
        if not out.any():
            return step
        free &= ~out
        for t in np.flatnonzero(out.any(axis=1)):  # rare: one re-solve per target
            step[t] = 0.0
            if free[t].any():
                step[t, free[t]] = span_residuals(J[t][:, free[t]], -r[t])[0]


def least_squares(q: QuotientMap, ybar, x0, values=None):
    """Box-constrained Gauss–Newton solve of q(x) = ybar from x0 with the
    exact Jacobian of q, for one target (nbar,) or a stack (T, nbar) in
    lockstep.  Each step (_projected_steps) is clipped to the source box and
    halved until the residual norm falls; each target stops where solving
    it alone stops: when no halving lowers it, when it is 0, or after
    LIFT_MAX_ITER steps.  q and its Jacobian come from one compiled batch per
    halving; ``values`` are those at x0, when the caller has them.  Returns
    the points reached and their residual norms |q(x) - ybar|, and for a
    stack also the Jacobians there (T, nbar, n), NaN where q's Jacobian
    cannot be evaluated; a target whose lift meets a point where q or its
    Jacobian fails stops there with residual NaN (a single target raises
    that error)."""
    n, nbar = q.source.n, q.target.n
    lo, hi = np.array(q.source.box).T
    Y = np.asarray(ybar, dtype=float).reshape(-1, nbar)

    def evaluate(points):  # q, then its Jacobian: NaN where either cannot be evaluated
        values, bad = q._program.evaluate(points)
        return values if bad is None else np.where(bad, np.nan, values)

    start = np.clip(np.asarray(x0, dtype=float), lo, hi)
    if values is None or not np.array_equal(start, x0):
        values = evaluate(start[None])[:, 0]
    x, r = np.repeat(start[None], len(Y), axis=0), values[:nbar] - Y
    J = np.repeat(stacked(values[nbar:, None], n), len(Y), axis=0)
    norm = _norms(r)
    live = norm > 0.0  # neither 0 nor NaN
    for _ in range(LIFT_MAX_ITER):
        norm[live & np.isnan(J).any(axis=(1, 2))] = np.nan  # the Jacobian at x fails
        live &= norm > 0.0
        at = np.flatnonzero(live)
        if not at.size:
            break
        base, step = x[at], _projected_steps(J[at], r[at], x[at], lo, hi)
        for _ in range(LIFT_MAX_HALVINGS):
            trial = np.clip(base + step, lo, hi)
            moved = ~(trial == base).all(axis=1)
            live[at[~moved]] = False  # a shorter step cannot move either
            at, base, step, trial = at[moved], base[moved], step[moved], trial[moved]
            if not at.size:
                break
            values = evaluate(trial)
            r_trial = values[:nbar].T - Y[at]
            norm_trial = _norms(r_trial)
            done = np.isnan(norm_trial) | (norm_trial < norm[at])  # q failed there, or the residual fell
            x[at[done]], r[at[done]], norm[at[done]] = trial[done], r_trial[done], norm_trial[done]
            J[at[done]] = stacked(values[nbar:], n)[done]
            at, base, step = at[~done], base[~done], 0.5 * step[~done]
        live[at] = False  # no halving lowered the residual
    if np.ndim(ybar) > 1:
        return x, norm, J
    if np.isnan(norm[0]):
        q._program(x[:1])  # raises what evaluating q or its Jacobian raises there
    return x[0], norm[0]


def _push(q: QuotientMap, F: np.ndarray, J: np.ndarray):
    """push_frame at N points: frame values F (N, 2n, r), Jacobians J (N,
    target n, n); the target vectors and forms are C-contiguous."""
    n = q.source.n
    s, gamma, norms = _scaled(np.swapaxes(F[:, n:], 1, 2))  # (N, r, n): the form of each column
    abar, residual = span_residuals(np.swapaxes(J, 1, 2)[:, None], gamma)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual fails the record
        worst = (residual / (1.0 / s + norms)).max(axis=1, initial=0.0)
        return J @ F[:, :n], np.ascontiguousarray(np.swapaxes(abar * s[..., None], 1, 2)), worst


def _push_at(q: QuotientMap, F: np.ndarray, samples: np.ndarray):
    """_push at samples (N, n), with q and its Jacobian there from one
    evaluation of q's program: q at each sample (N, target n), then the
    target vectors, forms and worst residuals."""
    values, nbar = q._program(samples), q.target.n
    return (values[:nbar].T, *_push(q, F, stacked(values[nbar:], q.source.n)))


def push_frame(q: QuotientMap, frame, m, tol: float):
    """Push one frame value through the quotient map: target vectors are
    Jacobian images, target forms solve the pull-back equations by least
    squares.  Returns (target vectors, target forms, worst pull-back
    residual).  ``tol`` is not used; it stays in the signature for the
    callers that pass it."""
    F = np.asarray(frame(m), dtype=float)
    Xbar, abar, worst = _push(q, F[None], q.jacobian(m)[None])
    return Xbar[0], abar[0], float(worst[0])


# Fiber partners pushforward_check draws: each is sample i % N with its leaf
# coordinates redrawn, and the pushed values must agree across each pair.
FIBER_PAIRS = 10


def pushforward_check(
    D: DiracStructure,
    action: InfinitesimalAction,
    q: QuotientMap,
    frame,
    samples=None,
    tol: float = 1e-6,
    seed: int = 0,
    check_closedness: bool = True,
) -> Report:
    """Certify the reduced structure: frame forms are pull-backs, pushed
    values are constant on fibers, the pushed family has target rank and
    is isotropic, and (when requested) target Courant brackets of the
    pushed sections stay in their span.

    frame is an InvariantFrameResult or a function from points (N, n) to
    frames (N, 2n, r).  Every frame value the checks need (samples, fiber
    pairs, lifted closure targets and their stencils) is evaluated in one
    batch, through its frames when it is a result; q and its Jacobian in one
    compiled batch before the lifts and one per halving of the stacked lift,
    which returns the Jacobians at the lifted points.  An error is raised
    at its first failing point, in this order: q where the checks read it
    (the samples with a fiber partner, which hold the closure targets, then
    the partners), the Jacobian at the samples and the on-fiber partners,
    the lifts in target order, then the frames."""
    frames = frame.frames if isinstance(frame, InvariantFrameResult) else frame
    chart = q.source
    samples = chart.checked_samples(samples, margin=0.1)
    N, n, nbar, k = len(samples), chart.n, q.target.n, chart.leaf_count

    # fiber partners, their leaf coordinates inside the box
    rng = np.random.default_rng(seed)
    base = np.arange(FIBER_PAIRS) % N
    partners = samples[base]
    lo, hi = np.array(chart.box)[:k].T
    w = hi - lo
    partners[:, :k] = lo + 0.1 * w + 0.8 * w * rng.random((FIBER_PAIRS, k))
    source = np.concatenate([samples, partners])
    program, JAC = q._program, q._program.partials
    values, _ = program.evaluate(source)
    program.raise_first(source, range(nbar), np.r_[base, N + np.arange(FIBER_PAIRS)])
    qv, J = values[:nbar].T, stacked(values[nbar:], n)
    with np.errstate(over="ignore"):  # an overflowing difference is off the fiber
        qdiff = np.abs(qv[base] - qv[N:]).max(axis=1, initial=0.0)
    on = ~(qdiff > 1e-9)
    # the points whose frames the checks need: the samples, then each
    # partner on its sample's fiber after that sample
    gathered = np.concatenate([np.arange(N), np.stack([base, N + np.arange(FIBER_PAIRS)], axis=1)[on].ravel()])
    program.raise_first(source, JAC, gathered)

    # closure: each target, then its stencil points, lifted from the first sample
    targets = min(N, 6) if check_closedness else 0
    lifted, lifted_J = np.empty((0, n)), np.empty((0, nbar, n))
    if targets:
        stencils = [_stencil(q.target, qv[:targets], i) for i in range(nbar)]
        deltas = np.array([delta for _, delta in stencils])
        ys = np.concatenate([qv[:targets, None], *(s for s, _ in stencils)], axis=1).reshape(-1, nbar)
        lifted, residual, lifted_J = least_squares(q, ys, samples[0], values[:, 0])
        # the first target whose lift fails or ends where the Jacobian cannot be evaluated
        for t in np.flatnonzero(~(residual <= LIFT_TOL) | np.isnan(lifted_J).any(axis=(1, 2)))[:1]:
            if residual[t] <= LIFT_TOL:
                program.raise_first(lifted[t][None], JAC)
            if not np.isnan(residual[t]):
                raise VerificationError(f"could not lift target point {plain(ys[t])} through the "
                                        f"quotient map (residual {residual[t]:.3e})")
            program.raise_first(lifted[t][None])  # it met a point where q or its Jacobian cannot be evaluated

    values = frames(np.concatenate([source[gathered], lifted]))
    Xbar, abar, residual = _push(q, np.asarray(values, dtype=float), np.concatenate([J[gathered], lifted_J]))
    sections = np.concatenate([Xbar, abar], axis=1)  # pushed (Xbar, abar), 2 nbar x r each

    # abar_j . Xbar_i at each sample, one dot product each: P[:, j, i]
    A, V = np.swapaxes(abar[:N], 1, 2), np.swapaxes(Xbar[:N], 1, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN fails the record
        P = (A[:, :, None, None, :] @ V[:, None, :, :, None])[..., 0, 0]
        iso = np.abs(np.swapaxes(P, 1, 2) + P).max(axis=(1, 2), initial=0.0)
    fiber = 1.0 + qdiff
    at = N + 2 * np.arange(on.sum())  # each on-fiber sample's section; its partner's follows
    scale = 1.0 + np.abs(sections[at]).max(axis=(1, 2), initial=0.0)
    fiber[on] = np.abs(sections[at] - sections[at + 1]).max(axis=(1, 2), initial=0.0) / scale
    report = Report([
        record_from_samples("pushed-forms-are-pullbacks", zip(residual[:N], samples), tol, stage="pushforward"),
        record_from_samples("reduced-rank", zip(np.where(svd_rank(sections[:N]) == nbar, 0.0, 1.0), samples), 0.0,
                            detail=f"pushed family has rank {nbar}", stage="pushforward"),
        record_from_samples("reduced-isotropy", zip(iso, samples), tol, stage="pushforward"),
        record_from_samples("fiber-consistency", zip(fiber, partners), tol, stage="pushforward"),
    ])

    if targets:
        # each target's section, then its stencil sections: (targets, 1 + 4 nbar, 2 nbar, r)
        values = sections[len(gathered) :].reshape(targets, 1 + 4 * nbar, *sections.shape[1:])
        V, dV = _stencil_jets(values[:, 0], values[:, 1:].reshape(targets, nbar, 4, *sections.shape[1:]), deltas)
        r = V.shape[1]
        brackets = _pair_brackets(V, dV, [(i, j) for i in range(r) for j in range(r) if i != j])
        residuals = span_defects(values[:, 0, None], brackets)
        closure_pairs = zip(residuals.max(axis=1, initial=0.0), qv[:targets])
        report.add(record_from_samples("reduced-closure", closure_pairs, tol, stage="pushforward"))
    return report

