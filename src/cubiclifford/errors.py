"""Domain errors. Each carries a stable machine-readable code for the CLI."""


class CubicliffordError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "domain-error"

    def __init__(self, message=""):
        super().__init__(message or self.__doc__)


class FieldMismatch(CubicliffordError):
    """Operands belong to different coefficient fields."""

    code = "field-mismatch"


class DivisionByZero(CubicliffordError):
    """Division by the zero scalar."""

    code = "division-by-zero"


class ZeroInput(CubicliffordError):
    """Zero is not in the multiplicative group."""

    code = "zero-input"


class UnsupportedFieldForTest(CubicliffordError):
    """Power-class testing is not available for this field/exponent."""

    code = "unsupported-field-for-test"


class UnsupportedField(CubicliffordError):
    """Operation requires a field feature (e.g. omega) this field lacks."""

    code = "unsupported-field"


class MissingAssignment(CubicliffordError):
    """Evaluation point does not assign every variable."""

    code = "missing-assignment"


class VariableMismatch(CubicliffordError):
    """Polynomials are over different variable lists."""

    code = "variable-mismatch"


class ParseError(CubicliffordError):
    """Expression text does not conform to the grammar."""

    code = "syntax-error"

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbol(ParseError):
    """Expression uses a symbol outside the grammar."""

    code = "unknown-symbol"


class SingularMatrix(CubicliffordError):
    """2x2 matrix has determinant zero."""

    code = "singular-matrix"


class NonTermination(CubicliffordError):
    """Rewriting exceeded its step budget; signals an implementation bug."""

    code = "non-termination"


class DegenerateForm(CubicliffordError):
    """Binary cubic form has discriminant zero."""

    code = "degenerate-form"


class SquareRootAbsent(CubicliffordError):
    """Required square root does not exist in the field."""

    code = "square-root-absent"


class BudgetExceeded(CubicliffordError):
    """Requested enumeration exceeds the step budget."""

    code = "budget-exceeded"


class NumberTooLarge(CubicliffordError):
    """A number in the result is too long for the interpreter to print, or
    a monomial exponent is above its bound."""

    code = "number-too-large"


class CurveMismatch(CubicliffordError):
    """Points lie on different curves."""

    code = "curve-mismatch"


class FormMismatch(CubicliffordError):
    """Elements are specialized at different forms."""

    code = "form-mismatch"


class PreconditionFailed(CubicliffordError):
    """The defining inequality of the requested construction fails."""

    code = "precondition-failed"


class HypothesisNotMet(CubicliffordError):
    """The operation's field hypothesis (a required square root) fails."""

    code = "hypothesis-not-met"
