"""Canonical factored forms of positive integers and rationals.

A FactoredInteger is a finite map prime -> exponent >= 1; the empty map is 1.
A FactoredRational allows nonzero signed exponents; the empty map is 1, and
numerator and denominator are coprime by construction.  Both types are
immutable, hashable, and keep their primes in ascending order.

Validation happens once, at the boundary: the public constructors, factor()
and the parsers certify every key with the exact primality test and check
order and exponent range.  Results of this module's own arithmetic on values
that are already valid (products, inverses, numerator and denominator) are
canonical by construction and skip that check; products still report
exponent overflow.

Both render as (and parse from) the literal grammar

    term ("*" term)*        term = <nat> "^" <signed int>

so values round-trip through text, e.g.  "2^1 * 3^2 * 5^-1".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import ExponentOverflowError, ParseError, ZeroValueError
from .primes import factorize, is_prime

# Exponents are kept inside the signed 64-bit range; arithmetic that would
# leave it reports ExponentOverflowError instead of silently continuing.
EXPONENT_LIMIT = 2**63 - 1

# Factored values are expanded to plain integers (verify's common value, the
# CLI's --expanded) only while bit_size() stays within this many bits.
EXPANSION_BIT_LIMIT = 5_000_000


def check_exponent(p: int, e: int) -> None:
    """Raise ExponentOverflowError if e, the exponent of p, leaves +/-EXPONENT_LIMIT."""
    if abs(e) > EXPONENT_LIMIT:
        raise ExponentOverflowError(f"exponent {e} for prime {p} exceeds +/-{EXPONENT_LIMIT}")


def _check_entries(entries: tuple[tuple[int, int], ...], allow_negative: bool) -> None:
    previous = 1
    for p, e in entries:
        if p <= previous:
            raise ValueError(f"prime keys must be distinct and ascending, got {p} after {previous}")
        if not is_prime(p):
            raise ValueError(f"key {p} is not prime")
        if e == 0 or (e < 0 and not allow_negative):
            raise ValueError(f"invalid exponent {e} for prime {p}")
        check_exponent(p, e)
        previous = p


def _merge(
    a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """Exponent-wise sum of two entry tuples, zero entries removed."""
    acc = dict(a)
    for p, e in b:
        s = acc.get(p, 0) + e
        check_exponent(p, s)
        if s == 0:
            acc.pop(p, None)
        else:
            acc[p] = s
    return tuple(sorted(acc.items()))


def _canonical(cls, entries: tuple[tuple[int, int], ...]):
    """An instance of cls holding entries already known to be canonical, unchecked."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "entries", entries)
    return obj


def _render(entries: tuple[tuple[int, int], ...]) -> str:
    if not entries:
        return "1"
    return " * ".join(f"{p}^{e}" for p, e in entries)


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer as an ascending tuple of (prime, exponent >= 1)."""

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        _check_entries(self.entries, allow_negative=False)

    @classmethod
    def from_factors(cls, factors) -> "FactoredInteger":
        """Build from any iterable of (prime, exponent) pairs or a mapping."""
        items = factors.items() if hasattr(factors, "items") else factors
        return cls(tuple(sorted(items)))

    @property
    def factors(self) -> dict[int, int]:
        return dict(self.entries)

    @property
    def is_one(self) -> bool:
        return not self.entries

    def value(self) -> int:
        """Expand back to the ordinary integer."""
        return prod(p**e for p, e in self.entries)

    __int__ = value

    def bit_size(self) -> int:
        """Cheap upper bound on value().bit_length()."""
        return sum(e * p.bit_length() for p, e in self.entries)

    def __mul__(self, other: "FactoredInteger") -> "FactoredInteger":
        if not isinstance(other, FactoredInteger):
            return NotImplemented
        return _canonical(FactoredInteger, _merge(self.entries, other.entries))

    def as_rational(self) -> "FactoredRational":
        return _canonical(FactoredRational, self.entries)

    def __str__(self) -> str:
        return _render(self.entries)

    def __repr__(self) -> str:
        return f"FactoredInteger({_render(self.entries)!r})"


@dataclass(frozen=True)
class FactoredRational:
    """A positive rational as an ascending tuple of (prime, nonzero exponent)."""

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        _check_entries(self.entries, allow_negative=True)

    @classmethod
    def from_factors(cls, factors) -> "FactoredRational":
        items = factors.items() if hasattr(factors, "items") else factors
        return cls(tuple(sorted(items)))

    @property
    def factors(self) -> dict[int, int]:
        return dict(self.entries)

    @property
    def is_one(self) -> bool:
        return not self.entries

    def numerator(self) -> FactoredInteger:
        return _canonical(FactoredInteger, tuple((p, e) for p, e in self.entries if e > 0))

    def denominator(self) -> FactoredInteger:
        return _canonical(FactoredInteger, tuple((p, -e) for p, e in self.entries if e < 0))

    def value(self) -> Fraction:
        """Expand back to an exact fraction."""
        return Fraction(self.numerator().value(), self.denominator().value())

    def __mul__(self, other: "FactoredRational | FactoredInteger") -> "FactoredRational":
        if not isinstance(other, (FactoredRational, FactoredInteger)):
            return NotImplemented
        return _canonical(FactoredRational, _merge(self.entries, other.entries))

    def inverse(self) -> "FactoredRational":
        return _canonical(FactoredRational, tuple((p, -e) for p, e in self.entries))

    def __str__(self) -> str:
        return _render(self.entries)

    def __repr__(self) -> str:
        return f"FactoredRational({_render(self.entries)!r})"


def factor(n: int) -> FactoredInteger:
    """Factor a positive integer into canonical form."""
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    return FactoredInteger(tuple(factorize(n).items()))


_NAT_RE = re.compile(r"\d+")
_EXP_RE = re.compile(r"[+-]?\d+")


def _parse_nat(text: str, what: str) -> int:
    s = text.strip()
    if not _NAT_RE.fullmatch(s):
        raise ParseError(f"{what} must be an unsigned integer, got {text!r}")
    n = int(s)
    if n == 0:
        raise ZeroValueError(f"{what} must be positive, got 0")
    return n


def _parse_literal_entries(text: str) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    for term in text.split("*"):
        base_text, sep, exp_text = term.partition("^")
        if not sep:
            raise ParseError(f"term {term.strip()!r} is missing an exponent (expected p^e)")
        base_s = base_text.strip()
        exp_s = exp_text.strip()
        if not _NAT_RE.fullmatch(base_s):
            raise ParseError(f"base {base_text.strip()!r} must be an unsigned integer")
        if not _EXP_RE.fullmatch(exp_s):
            raise ParseError(f"exponent {exp_text.strip()!r} must be a signed integer")
        p = int(base_s)
        e = int(exp_s)
        if not is_prime(p):
            raise ParseError(f"base {p} is not prime")
        if p in acc:
            raise ParseError(f"prime {p} appears more than once")
        if e == 0:
            raise ParseError(f"exponent for prime {p} must be nonzero")
        check_exponent(p, e)
        acc[p] = e
    return tuple(sorted(acc.items()))


def parse_rational(text: str) -> FactoredRational:
    """Parse "<nat>", "<nat>/<nat>", or a factored literal like "2^3 * 5^-1".

    Fractions need not be in lowest terms; canonical form comes out of the
    exponent arithmetic.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty input")
    if "^" in s:
        return FactoredRational(_parse_literal_entries(s))
    if "/" in s:
        num_text, _, den_text = s.partition("/")
        num = factor(_parse_nat(num_text, "numerator"))
        den = factor(_parse_nat(den_text, "denominator"))
        return num.as_rational() * den.as_rational().inverse()
    return factor(_parse_nat(s, "value")).as_rational()


def parse_integer(text: str) -> FactoredInteger:
    """Parse "<nat>" or a factored literal with all exponents >= 1."""
    s = text.strip()
    if not s:
        raise ParseError("empty input")
    if "^" in s:
        entries = _parse_literal_entries(s)
        for p, e in entries:
            if e < 0:
                raise ParseError(f"exponent {e} for prime {p} does not denote an integer")
        return FactoredInteger(entries)
    return factor(_parse_nat(s, "value"))
