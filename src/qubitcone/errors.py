"""Exception hierarchy shared by the whole package.

Two broad families matter for the CLI exit codes: MalformedInput (bad files
or arguments, exit 2) and DomainError (numerically meaningful but rejected
inputs, exit 3). InvalidMeasurement maps to exit 1 like a failed `validate`.
"""


class QubitConeError(Exception):
    """Base class for all package errors."""


class MalformedInput(QubitConeError):
    """Unparsable or structurally wrong input (file, JSON, CLI argument)."""


class InvalidMeasurement(QubitConeError):
    """Measurement elements do not sum to the identity within tolerance."""


class DomainError(QubitConeError):
    """Input is well-formed but outside the numeric domain of the operation."""


class NotPositive(DomainError):
    """Hermitian matrix has a negative eigenvalue beyond tolerance."""


class NotUnitary(DomainError):
    pass


class ZeroElement(DomainError):
    pass


class NotTimelike(DomainError):
    pass


class NotNull(DomainError):
    pass


class BadAxis(DomainError):
    pass


class NotRestricted(DomainError):
    pass


class NotDecomposable(DomainError):
    pass


class LambdaOutOfRange(DomainError):
    pass


class TooLarge(DomainError):
    pass


class NonPositiveTrace(DomainError):
    pass


class NullOrSpacelike(DomainError):
    pass


class NotNormalized(DomainError):
    pass
