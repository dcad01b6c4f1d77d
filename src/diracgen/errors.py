"""Exception hierarchy shared by all diracgen modules."""


class DiracgenError(Exception):
    """Base class for all library errors.  ``point`` and ``stage`` say where
    the error arose, when known."""

    def __init__(self, message, point=None, stage=None):
        super().__init__(message)
        self.point, self.stage = point, stage


class InputError(DiracgenError):
    """Malformed user input (bad expression, bad problem file, bad chart)."""


class ExprSyntaxError(InputError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(InputError):
    def __init__(self, name, position=None):
        where = f" (at position {position})" if position is not None else ""
        super().__init__(f"unknown identifier {name!r}{where}")
        self.name = name
        self.position = position


class ChartMismatchError(InputError):
    """Two objects built over different charts were combined."""


class OutsideBoxError(InputError):
    """A point outside the chart box was passed to an evaluator."""


class EvalDomainError(DiracgenError):
    """Division by zero or non-finite value during evaluation."""


class VerificationError(DiracgenError):
    """A hypothesis or output property failed numerically (exit code 1)."""


class HypothesisViolated(VerificationError):
    """A bracket hypothesis fails at a point: the derivative of a generator
    does not decompose over the leaf fields and the generator family."""


class NonUniqueCoefficients(VerificationError):
    """The transverse component matrix of the generators is rank deficient,
    so the coefficient matrices of the linear system are not determined."""


class NumericalBreakdownError(DiracgenError):
    """Singular or non-finite intermediate matrix (exit code 3)."""
