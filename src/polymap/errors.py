"""Exception types shared across the package."""

from __future__ import annotations


class PolymapError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PolymapError):
    """Malformed polynomial or session text; carries a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(PolymapError):
    """A variable name that does not exist in the relevant context."""


class ContextMismatchError(PolymapError):
    """Two values from different polynomial rings were combined."""


class PreconditionError(PolymapError):
    """An operation was called outside its stated domain."""


class TargetNotAffineSpaceError(PreconditionError):
    """The operation needs a target with zero defining ideal."""


class NotDominantError(PreconditionError):
    """The operation needs a map with dense image."""


class NotInjectiveError(PreconditionError):
    """The operation needs an injective map."""


class NotEtaleError(PreconditionError):
    """The operation needs a constant nonzero Jacobian determinant."""


class MissingAssertionError(PreconditionError):
    """A hypothesis the engine cannot decide for this input is not asserted by its
    flag: factoriality of a target that is not affine space (``assert_factorial``)
    or etaleness of a map that is not a self-map of affine space (``assert_etale``)."""


class DegenerateDivisorError(PreconditionError):
    """Divisibility transfer hit the f∘Φ ≡ 0, g∘Φ ≢ 0 degenerate case."""


class EngineInconsistencyError(PolymapError):
    """Two independently computed verdicts that must agree did not; engine bug."""


class SessionFormatError(PolymapError):
    """Malformed session file, or a malformed session or certificate in a report."""
