"""Invariant generators for generalized distributions on explicit charts,
with Dirac/Poisson reduction checks.

Public API re-exports: charts and symbolic expressions, tensor calculus on
sections of TM + T*M, generalized distributions, the four-step
straightening pipeline producing leaf-invariant frames, and Dirac
structure verification and reduction.
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
    lie_bracket,
    lie_derivative_form,
    exterior_interior,
    differential,
    skew_bracket,
    courant_bracket,
)
from .distribution import (
    GeneralizedDistribution,
    TangentDistribution,
    section_values,
    svd_rank,
    span_residuals,
    pointwise_orthogonal_basis,
    annihilator_basis,
    check_bracket_hypothesis,
)
from .invariant_gen import (
    FoliatedProblem,
    InvariantFrameResult,
    solve_coefficients,
    fundamental_matrix,
    build_H,
    build_B,
    transformed_frame,
    beta_fields,
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
    characteristic_distributions,
    vertical_and_K,
    intersect_D_Kperp,
    constant_rank_scan,
    descending_generators,
    invariant_annihilator_generators,
    pushforward_check,
)
from .report import CheckRecord, Report

__version__ = "0.1.0"
