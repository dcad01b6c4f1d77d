"""Generalized distributions as finite spanning families, with the
pointwise linear algebra used by every hypothesis check: numerical rank,
membership by least squares, pointwise orthogonals, and annihilators.

The smooth orthogonal is deliberately never computed as an object: it
quantifies over all smooth sections.  Only pointwise orthogonals are
available; for constant-rank subbundles the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .calculus import PontryaginSection, VectorField, skew_bracket
from .errors import ChartMismatchError, InputError
from .report import Report, record_from_samples
from .symexpr import Chart

__all__ = [
    "GeneralizedDistribution",
    "TangentDistribution",
    "rank_at",
    "contains",
    "membership_residual",
    "pointwise_orthogonal_basis",
    "annihilator_basis",
    "check_bracket_hypothesis",
    "DEFAULT_RANK_TOL",
]

DEFAULT_RANK_TOL = 1e-9


def _shared_chart(chart, generators):
    for g in generators:
        if g.chart != chart:
            raise ChartMismatchError("generator chart differs from distribution chart")
    return chart


@dataclass(frozen=True)
class GeneralizedDistribution:
    """A finite spanning family of sections of TM + T*M."""

    chart: Chart
    generators: tuple[PontryaginSection, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise InputError("a generalized distribution needs at least one generator")
        _shared_chart(self.chart, self.generators)

    def matrix_at(self, m) -> np.ndarray:
        """Evaluated generators as rows of a (#generators x 2n) matrix."""
        return np.array([g(m) for g in self.generators])


@dataclass(frozen=True)
class TangentDistribution:
    chart: Chart
    generators: tuple[VectorField, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        _shared_chart(self.chart, self.generators)

    def matrix_at(self, m) -> np.ndarray:
        if not self.generators:
            return np.zeros((0, self.chart.n))
        return np.array([g(m) for g in self.generators])


def svd_rank(matrix, tol: float = DEFAULT_RANK_TOL, bases: bool = False):
    """Numerical rank: the number of singular values above tol * sigma_max,
    and 0 for an empty or zero matrix.  With ``bases`` set, returns
    (rank, U, Vt) from the full SVD, so that U[:, :rank] spans the column
    space and the rows Vt[rank:] span the null space."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        rows, cols = matrix.shape
        return (0, np.eye(rows), np.eye(cols)) if bases else 0
    if bases:
        u, sv, vt = np.linalg.svd(matrix)
    else:
        sv = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(sv > tol * sv[0])) if sv[0] > 0.0 else 0
    return (rank, u, vt) if bases else rank


def rank_at(delta: GeneralizedDistribution, m, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank of the evaluated generator family at m."""
    return svd_rank(delta.matrix_at(m), tol)


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each trailing-axis vector, with the same dot product
    (so bit-identical to it)."""
    x = np.ascontiguousarray(x)
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _lstsq_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def span_residuals(A, v) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients and residuals of expressing each vector
    v[..., :] in the columns of the matrix A[..., :, :] (stacks broadcast).

    One call of the gufunc that ``np.linalg.lstsq`` itself calls, with its
    ``rcond``, so each coefficient vector is bit-identical to
    ``np.linalg.lstsq(A[i], v[i], rcond=None)[0]``, and each residual to
    ``np.linalg.norm(A[i] @ x - v[i])``."""
    A = np.asarray(A, dtype=float)
    v = np.asarray(v, dtype=float)
    rcond = np.finfo(float).eps * max(A.shape[-2:])
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        coeff = _umath_linalg.lstsq(A, v[..., None], rcond, signature="ddd->ddid")[0]
    if A.shape[-2] == 0:
        coeff[...] = 0.0
    return coeff[..., 0], _norms((A @ coeff)[..., 0] - v)


def span_residual(A: np.ndarray, v) -> float:
    """Least-squares residual of expressing v in the columns of A."""
    return float(span_residuals(np.asarray(A, dtype=float)[None], np.asarray(v, dtype=float)[None])[1][0])


def membership_residual(delta: GeneralizedDistribution, m, v) -> float:
    """Least-squares residual of expressing the 2n-vector v in the
    evaluated generators at m."""
    return span_residual(delta.matrix_at(m).T, v)


def contains(delta: GeneralizedDistribution, m, v, tol: float) -> bool:
    """True iff v lies in the pointwise span of the generators at m, with
    residual tolerance tol*(1 + |v|)."""
    v = np.asarray(v, dtype=float)
    return membership_residual(delta, m, v) <= tol * (1.0 + np.linalg.norm(v))


def pointwise_orthogonal_basis(
    delta: GeneralizedDistribution, m, tol: float = DEFAULT_RANK_TOL
) -> list[np.ndarray]:
    """Basis of the fiberwise orthogonal of the span at m, relative to the
    pairing <(u, a), (v, b)> = b(u) + a(v).

    The pairing of w = (w_v, w_f) with a generator value g = (g_v, g_f)
    is g_f . w_v + g_v . w_f, so the constraint matrix is the generator
    matrix with its vector and form blocks swapped.
    """
    n = delta.chart.n
    G = delta.matrix_at(m)
    rank, _, vt = svd_rank(np.hstack([G[:, n:], G[:, :n]]), tol, bases=True)
    return list(vt[rank:])


def annihilator_basis(
    T: TangentDistribution, m, tol: float = DEFAULT_RANK_TOL
) -> list[np.ndarray]:
    """Basis of the covectors annihilating all generator values at m.
    Caller asserts locally constant rank of T near m."""
    rank, _, vt = svd_rank(T.matrix_at(m), tol, bases=True)
    return list(vt[rank:])


def check_bracket_hypothesis(
    D: GeneralizedDistribution,
    Theta: GeneralizedDistribution,
    extra: PontryaginSection | None,
    samples,
    tol: float,
) -> Report:
    """Verify the two bracket hypotheses of the invariant-frame theorem:
    brackets of D generators (and of the optional extra section) with
    Theta generators must lie in the span of Theta + D at every sample.

    Failures are report entries, not exceptions.
    """
    span = GeneralizedDistribution(D.chart, Theta.generators + D.generators)
    report = Report()

    def run_pairs(sections, check_name):
        for i, sec in enumerate(sections):
            for l, theta in enumerate(Theta.generators):
                bracket = skew_bracket(theta, sec)
                pairs = []
                for m in samples:
                    v = bracket(m)
                    pairs.append((membership_residual(span, m, v) / (1.0 + np.linalg.norm(v)), m))
                report.add(
                    record_from_samples(
                        f"{check_name}[{i},{l}]",
                        pairs,
                        tol,
                        detail="bracket of generator with leaf field stays in leaf+distribution span",
                        stage="hypotheses",
                    )
                )

    run_pairs(D.generators, "bracket-hypothesis-generators")
    if extra is not None:
        run_pairs([extra], "bracket-hypothesis-extra")
    return report
