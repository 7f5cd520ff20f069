"""Exceptions raised by phisq, and how a refusal names a number."""


def shown(n: int, noun: str) -> str:
    """n as written below 10**49, else "a D-digit <noun>"; D is counted without str(), which refuses huge n."""
    d = (n.bit_length() - 1) * 30102999 // 10**8 + 1  # at most D, as log10(2) > 0.30102999
    while n >= 10**d:
        d += 1
    return str(n) if d < 50 else f"a {d}-digit {noun}"


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
