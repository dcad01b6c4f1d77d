"""Generalized distributions as finite spanning families, with the stacked
linear algebra used by every hypothesis check: numerical rank by one stacked
SVD and membership by one stacked least-squares call (each bit-identical to
its one-point computation, kept in tests/pointwise.py), and the bracket
hypothesis of the invariant-frame theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .calculus import PontryaginSection, _components
from .errors import ChartMismatchError, InputError
from .report import Report, record_from_samples
from .symexpr import ONE, ZERO, Chart, CompiledExprs

__all__ = [
    "GeneralizedDistribution",
    "svd_rank",
    "span_residuals",
    "check_bracket_hypothesis",
    "DEFAULT_RANK_TOL",
]

DEFAULT_RANK_TOL = 1e-9


@dataclass(frozen=True)
class GeneralizedDistribution:
    """A finite spanning family of sections of TM + T*M."""

    chart: Chart
    generators: tuple[PontryaginSection, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise InputError("a generalized distribution needs at least one generator")
        if any(g.chart != self.chart for g in self.generators):
            raise ChartMismatchError("generator chart differs from distribution chart")


def stacked(values: np.ndarray, width: int) -> np.ndarray:
    """Compiled values (expressions x points) of consecutive groups of
    ``width`` expressions, as a C-contiguous (points, groups, width) array."""
    return np.ascontiguousarray(values.T).reshape(values.shape[1], values.shape[0] // width, width)


def svd_rank(matrices, tol: float = DEFAULT_RANK_TOL, bases: bool = False):
    """Numerical rank of each matrix of a stack (..., rows, cols): the number
    of singular values above tol * sigma_max (0 for an empty or zero
    matrix), from one SVD call whose values are bit-identical to one
    np.linalg.svd per matrix; an int for a single matrix.  With ``bases``
    set, returns (ranks, U, Vt) from the full SVDs: U[..., :, :rank] spans
    the column space, the rows Vt[..., rank:, :] the null space."""
    a = np.asarray(matrices, dtype=float)
    u, sv, vt = np.linalg.svd(a) if bases else (None, np.linalg.svd(a, compute_uv=False), None)
    ranks = np.sum(sv > tol * sv[..., :1], axis=-1)
    ranks = ranks if ranks.ndim else int(ranks)
    return (ranks, u, vt) if bases else ranks


def _binade(top: np.ndarray) -> np.ndarray:
    """The power of two that brings each top (finite and nonzero) into [1, 2)."""
    return np.ldexp(1.0, np.frexp(top)[1] - 1)


def _scale(top: np.ndarray) -> np.ndarray:
    """The scale s of vectors whose largest entries in size are top:
    _binade(top) where top is finite and at least 1 (so 1 / s never
    overflows), else 1.  A power of two scales exactly."""
    return np.where((top >= 1.0) & np.isfinite(top), _binade(top), 1.0)


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each trailing-axis vector, with the same dot product
    (so bit-identical to it) where that is finite; a finite vector whose sum
    of squares overflows is first scaled by _binade."""
    x = np.ascontiguousarray(x)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])
        big = np.isinf(norms)
        if big.any() and (big := big & np.isfinite(x).all(axis=-1)).any():
            scale = _binade(np.abs(x).max(axis=-1))
            norms = np.where(big, scale * _norms(x / scale[..., None]), norms)
    return norms


def _scaled(V: np.ndarray):
    """(s, V / s, |V / s|) for the vectors V[..., :], s their _scale.  The
    defect |R| / (1 + |V|) of a residual R that scales with V is |R / s|
    over 1 / s + |V / s|: the same bits where neither overflows, and finite
    also where 1 + |V|, or a least-squares coefficient of V, is above the
    largest float."""
    s = _scale(np.abs(V).max(axis=-1, initial=0.0))
    V = V / s[..., None]
    return s, V, _norms(V)


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


def span_defects(A, v) -> np.ndarray:
    """The residual of each vector v[..., :] in the columns of A[..., :, :]
    over 1 + |v| (span_residuals, measured at _scaled's scale)."""
    s, v, norms = _scaled(np.asarray(v, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the record
        return span_residuals(A, v)[1] / (1.0 / s + norms)


def _leaf_bracket(s: PontryaginSection, l: int) -> list:
    """The 2n components of the bracket [(d_l, 0), s] of the l-th leaf field
    with s = (X, beta): d_l X^j, then d_l beta_j - (1/2) d_j beta_l.  Each
    is the tree the symbolic skew bracket folds to (its sums start from a
    zero constant, which turns a constant -0.0 into 0.0)."""
    X, beta = s.vf.coeffs, s.form.coeffs
    return ([ZERO + x.diff(l) for x in X]
            + [(ZERO + b.diff(l)) + 0.5 * (-beta[l]).diff(j) for j, b in enumerate(beta)])


def check_bracket_hypothesis(
    D: GeneralizedDistribution,
    extra: PontryaginSection | None,
    samples,
    tol: float,
) -> Report:
    """Verify the two bracket hypotheses of the invariant-frame theorem:
    brackets of D generators (and of the optional extra section) with the
    leaf fields (d_l, 0), l < D.chart.leaf_count, must lie in the span of
    the leaf fields and D at every sample.

    The brackets and the span are one compiled batch, the residuals one
    stacked least-squares call.  Failures are report entries, not
    exceptions; an evaluation error is raised at the first sample where a
    bracket or the span fails, there at the first failing bracket, else
    the span.
    """
    chart = D.chart
    samples = chart.checked_samples(samples)
    width = 2 * chart.n
    named = [("bracket-hypothesis-generators", i, sec) for i, sec in enumerate(D.generators)]
    named += [("bracket-hypothesis-extra", 0, extra)] if extra is not None else []
    brackets = [(f"{name}[{i},{l}]", _leaf_bracket(sec, l))
                for name, i, sec in named for l in range(chart.leaf_count)]
    leaves = [ONE if j == l else ZERO for l in range(chart.leaf_count) for j in range(width)]
    compiled = CompiledExprs([c for _, b in brackets for c in b] + leaves
                             + [c for g in D.generators for c in _components(g)])
    values, P = compiled(samples), len(brackets)
    V = stacked(values[: P * width], width)
    # the span laid out as the transpose of row-major values, as a one-point
    # np.linalg.lstsq on the generator columns takes it
    A = np.swapaxes(stacked(values[P * width :], width), 1, 2)[:, None]
    residuals = span_defects(A, V)
    return Report([
        record_from_samples(check, zip(residuals[:, p], samples), tol, stage="hypotheses",
                            detail="bracket of generator with leaf field stays in leaf+distribution span")
        for p, (check, _) in enumerate(brackets)
    ])
