"""Exceptions raised by phisq, and how a refusal names a number or quotes outside text."""


def shown(n: int, noun: str) -> str:
    """str(n) if |n| < 10**49, else "a D-digit [negative ]<noun>"; D is counted without str(), which refuses huge n."""
    d = (n.bit_length() - 1) * 30102999 // 10**8 + 1  # at most D, as log10(2) > 0.30102999
    while abs(n) >= 10**d:
        d += 1
    return str(n) if d < 50 else f"a {d}-digit {'negative ' * (n < 0)}{noun}"


def cut(text: str, form=str, limit: int = 100) -> str:
    """form(text), str or repr, for a refusal; past limit characters once JSON-escaped (as a
    --json record escapes it), form() of text's longest prefix within limit // 2, and len(text)."""
    from json import dumps  # here, not at import: json loads re, which importing phisq does not
    if len(dumps(form(text))) - 2 <= limit:
        return form(text)
    k = limit // 2
    while len(dumps(form(text[:k]))) - 2 > limit // 2:
        k -= 1
    return f"{form(text[:k])}... ({len(text)} characters)"


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
