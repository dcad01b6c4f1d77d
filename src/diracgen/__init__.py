"""Invariant generators for generalized distributions on explicit charts,
with Dirac/Poisson reduction checks.

Public API re-exports: charts and symbolic expressions, sections of
TM + T*M and their pairing, generalized distributions and the bracket
hypothesis, the four-step straightening pipeline producing leaf-invariant
frames, and Dirac structure verification and reduction.  Every check runs
on batches of points; the symbolic brackets and one-point references the
checks are tested against live in tests/pointwise.py.
"""

from .symexpr import Chart, Expr, parse, const, var, sin, cos, exp
from .errors import (
    DiracgenError,
    InputError,
    ExprSyntaxError,
    UnknownIdentifierError,
    ChartMismatchError,
    OutsideBoxError,
    EvalDomainError,
    VerificationError,
    HypothesisViolated,
    NonUniqueCoefficients,
    NumericalBreakdownError,
)
from .calculus import (
    VectorField,
    OneForm,
    PontryaginSection,
    pairing,
)
from .distribution import (
    GeneralizedDistribution,
    svd_rank,
    span_residuals,
    check_bracket_hypothesis,
)
from .invariant_gen import (
    FoliatedProblem,
    InvariantFrameResult,
    solve_coefficients,
    fundamental_matrix,
    compute_Pi,
    run,
)
from .dirac import (
    DiracStructure,
    PoissonBivector,
    InfinitesimalAction,
    QuotientMap,
    graph_of_poisson,
    is_closed,
    constant_rank_scan,
    descending_generators,
    invariant_annihilator_generators,
    pushforward_check,
)
from .report import CheckRecord, Report

__version__ = "0.1.0"
