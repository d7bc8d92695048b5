"""Exception hierarchy shared by all nilj modules."""


class NiljError(Exception):
    """Base class for all library errors."""


class InternalCheckError(NiljError):
    """A computed result failed its own re-verification: a fault of the engine, not of the input."""


class FieldMismatchError(NiljError):
    """Operands live over different scalar fields."""


class DimensionMismatchError(NiljError):
    """Vector/matrix/subspace shapes are incompatible."""


class SingularMatrixError(NiljError):
    """An invertible matrix was required."""


class RootNotInFieldError(NiljError):
    """A required square root does not exist in the field.

    ``radicand`` records the offending field element.
    """

    def __init__(self, radicand):
        self.radicand = radicand
        super().__init__(f"no square root of {radicand!r} in the field")


class CaseNotCoveredError(NiljError):
    """The input falls outside the documented case split."""


class NotNilpotentError(NiljError, ArithmeticError):
    """The algebra's power filtration does not reach zero."""


class InvalidCocycleError(NiljError):
    """A claimed cocycle fails the cocycle-space membership check."""


class NotAnExtensionError(NiljError):
    """The algebra cannot be written as a central extension as requested."""


class FieldReductionError(NiljError):
    """Rational structure constants cannot be reduced modulo the prime."""


class SearchBudgetExceededError(NiljError):
    """An exhaustive enumeration would exceed its candidate budget."""


class UnknownAlgebraError(NiljError):
    """Catalog lookup failed."""


class InadmissibleParameterError(NiljError):
    """A parameter binding violates the entry's admissibility constraints."""


class DocumentError(NiljError):
    """An algebra document is malformed."""
