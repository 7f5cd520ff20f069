"""Exceptions raised by phisq."""


class PhisqError(Exception):
    """Base class for all phisq errors."""


class ParseError(PhisqError, ValueError):
    """Input text or factored entries match no accepted grammar, or an argument leaves its documented range."""


class ZeroValueError(ParseError):
    """A numerator or denominator of 0 was supplied; only positive values exist here."""


class FactorizationFailure(PhisqError):
    """A cofactor could not be split within the configured effort budget."""


class ExponentOverflowError(PhisqError):
    """An exponent left the supported signed 64-bit range."""


class UnsupportedScaleError(PhisqError):
    """Input is beyond the width for which exact primality testing is available."""
