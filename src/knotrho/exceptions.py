"""Exception hierarchy for knotrho.

Parse failures and validation failures are distinct classes so callers
(and the CLI's exit codes) can tell malformed input apart from
well-formed input that violates a mathematical precondition.
"""


class KnotRhoError(Exception):
    """Base class for all knotrho errors."""


class InvalidParameterError(KnotRhoError, ValueError):
    """A numeric parameter is outside an operation's domain."""


class InvalidSlopeError(InvalidParameterError):
    """A surgery slope that is not a nonzero int (a bool is not), or (0, 0)."""


class InconsistentModulusError(InvalidParameterError):
    """Modulus does not match the homology of the surgered manifold."""


class InvalidSeifertMatrixError(KnotRhoError, ValueError):
    """Entries fail the Seifert-matrix invariants (e.g. unimodularity)."""


class SeifertJSONError(KnotRhoError, ValueError):
    """Seifert matrix JSON is malformed (distinct from validation failure)."""


class KnotSpecError(KnotRhoError, ValueError):
    """Textual knot spec cannot be parsed; carries the error position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class MissingCableDataError(KnotRhoError, ValueError):
    """A cable-link Seifert matrix is required but was not supplied."""


class CertificationError(KnotRhoError, ArithmeticError):
    """A float-mode result is uncertified and strict mode was requested."""


class InternalInconsistencyError(KnotRhoError, AssertionError):
    """Two supposedly-equal computation routes disagreed; a bug, not bad input."""


class ConductorLimitError(KnotRhoError, ValueError):
    """Exact mode refused: cyclotomic degree too large to build safely."""
