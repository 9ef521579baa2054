"""Exception types shared across the toolkit."""


class ShiftError(Exception):
    """Base class for all toolkit errors."""


class EmptyPeriod(ShiftError):
    """A left ray was given an empty period word."""


class EmptyLetterInRay(ShiftError):
    """The empty letter occurred inside a left ray."""


class BadRange(ShiftError):
    """A window was requested with start > end."""


class NoRay(ShiftError):
    """A tail ray was requested from the empty point or past its length."""


class CutoffTooSmall(ShiftError):
    """An enumeration cutoff does not cover the mentioned letters."""


class NotInLanguage(ShiftError):
    """A word or ray does not belong to the language of the space."""


class AllowlistUnsupported(ShiftError):
    """Minimality is only defined for pure forbidden-list specifications."""


class InconsistentOverlaps(ShiftError):
    """Adjacent block letters do not overlap consistently."""


class NotFiniteStep(ShiftError):
    """The edge-shift construction needs a finite-step specification."""


class NotMinimal(ShiftError):
    """The operation requires a minimal forbidden specification."""


class NotShiftInvariantEmptyClass(ShiftError):
    """A local rule's empty-output class is not closed under the shift."""


class ParseError(ShiftError):
    """A textual point, ray, pattern, or spec could not be parsed."""


class FiniteAlphabetTails(ShiftError):
    """Forbidden tails over a finite alphabet are not decided yet."""
