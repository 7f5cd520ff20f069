"""Canonical factored forms of positive rationals and integers.

A FactoredRational is a finite map prime -> nonzero exponent; the empty map
is 1, and numerator and denominator are coprime by construction.  An integer
is a rational with every exponent >= 1: FactoredInteger adds only that rule
and an int-valued value(), and equals the rational with the same entries.
Values are slotted, immutable, hashable and picklable, with primes ascending.

Each key is certified once.  Constructors, from_factors() and the literal
parsers run the one validator (exact primality, order, one range test per
exponent); factor(), which also reads the parsers' plain numerals, and the
fraction reader trust factorize, which certifies every prime it returns.
Results computed inside the package from valid values (products, inverses,
numerator and denominator, totients, the construction's m and n, a ratio
verify finds equal to r) are canonical by construction and skip it.  Any
other computed prime -> exponent map (products, totients, verify's ratio, a
fraction's two sides) becomes a value through _checked alone, which sorts it,
drops zeros and reports overflow.

Values render as (and parse from) the literal grammar

    term ("*" term)*        term = <nat> "^" <signed int>

so values round-trip through text, e.g.  "2^1 * 3^2 * 5^-1".  A literal is
read in a fixed number of whole-text passes (split, strip, isdecimal, int); only
a literal they refuse is walked term by term, to name its first wrong part.
The dicts _BASES and _EXPONENTS, one per role, map each raw numeral text of an
accepted literal (whitespace kept) to the int the passes read from it, and a
literal whose numerals all are known is read from them.  They are filled only
after the validator accepted a literal, and only from a literal of at most
4096 terms whose numerals all are at most 32 characters long, so a kept
numeral reads the same under any int() digit limit.  Both are emptied at
is_prime's cache bound; threads may share them, as a clear only causes refills.
"""

from __future__ import annotations

import sys
from itertools import repeat
from math import prod
from operator import contains, itemgetter

from .errors import ExponentOverflowError, ParseError, UnsupportedScaleError, ZeroValueError, cut, shown
from .primes import _CACHE_SIZE, factorize, is_prime

# Exponents are kept inside the signed 64-bit range; arithmetic that would
# leave it reports ExponentOverflowError instead of silently continuing.
EXPONENT_LIMIT = 2**63 - 1

# Factored values are expanded to plain integers (verify's common value, the
# CLI's --expanded) only while bit_size() stays within this many bits.
EXPANSION_BIT_LIMIT = 5_000_000


def check_exponent(p: int, e: int) -> None:
    """Raise ExponentOverflowError if e, the exponent of p, leaves +/-EXPONENT_LIMIT."""
    if abs(e) > EXPONENT_LIMIT:
        raise ExponentOverflowError(f"exponent {shown(e, 'number')} for prime {p} exceeds +/-{EXPONENT_LIMIT}")


def _canonical(cls, entries: tuple[tuple[int, int], ...]):
    """An instance of cls holding entries already known to be canonical, unchecked."""
    obj = object.__new__(cls)
    _set_entries(obj, entries)
    return obj


def _checked(cls, acc: dict[int, int]):
    """A cls of a map of known primes to exponents, sorted, with zeros dropped and the range checked."""
    exps = acc.values()
    if acc and (max(exps) > EXPONENT_LIMIT or min(exps) < -EXPONENT_LIMIT):
        for p in sorted(acc):  # ascending, so the least prime past the limit is named
            check_exponent(p, acc[p])
    return _canonical(cls, tuple(sorted(filter(itemgetter(1), acc.items()))))


class FactoredRational:
    """A positive rational as an ascending tuple of (prime, nonzero exponent)."""

    __slots__ = ("entries",)
    _integral = False  # whether every exponent must be >= 1

    def __init__(self, entries: tuple[tuple[int, int], ...] = ()) -> None:
        _set_entries(self, entries)
        self.__post_init__()

    def __post_init__(self) -> None:  # the old name: bench/tracing.py wraps it to count objects
        previous = 1
        least = 1 if self._integral else -EXPONENT_LIMIT
        for p, e in self.entries:
            if not is_prime(p):
                raise ParseError(f"base {shown(p, 'number')} is not prime")
            if p <= previous:
                raise ParseError(f"prime keys must be distinct and ascending, got {p} after {previous}")
            if not least <= e <= EXPONENT_LIMIT or e == 0:  # only a wrong entry: zero, range, sign
                if e == 0:
                    raise ParseError(f"exponent for prime {p} must be nonzero")
                check_exponent(p, e)
                if e < 0 and self._integral:
                    raise ParseError(f"exponent {e} for prime {p} does not denote an integer")
            previous = p

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self.entries,)

    @classmethod
    def from_factors(cls, factors: dict[int, int]) -> FactoredRational:
        """Build from a prime -> exponent mapping."""
        return cls(tuple(sorted(factors.items())))

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
        from fractions import Fraction  # here, not at import: it loads decimal too
        return Fraction(self.numerator().value(), self.denominator().value())

    def bit_size(self) -> int:
        """Cheap upper bound on the bit lengths of numerator and denominator together."""
        return sum(abs(e) * p.bit_length() for p, e in self.entries)

    def __mul__(self, other: FactoredRational) -> FactoredRational:
        """The product; an integer when both factors are integers."""
        if not isinstance(other, FactoredRational):
            return NotImplemented
        acc = dict(self.entries)
        for p, e in other.entries:
            acc[p] = acc.get(p, 0) + e
        return _checked(FactoredInteger if self._integral and other._integral else FactoredRational, acc)

    def inverse(self) -> FactoredRational:
        return _canonical(FactoredRational, tuple((p, -e) for p, e in self.entries))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        return " * ".join(f"{p}^{e}" for p, e in self.entries) or "1"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


_set_entries = FactoredRational.entries.__set__


class FactoredInteger(FactoredRational):
    """A positive integer: a FactoredRational whose exponents are all >= 1."""

    __slots__ = ()
    _integral = True

    def value(self) -> int:
        """Expand back to the ordinary integer."""
        return prod(p**e for p, e in self.entries)


def factor(n: int) -> FactoredInteger:
    """Factor a positive integer into canonical form; factorize certifies every prime,
    returns them ascending, and each exponent is below n.bit_length()."""
    return _canonical(FactoredInteger, tuple(factorize(n).items()))


def _decimal(text: str) -> int:
    """int() of a numeral, refusing one past Python's int-string conversion limit."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        digits = len(text.lstrip("+-"))
        if limit and digits > limit:
            raise UnsupportedScaleError(
                f"a numeral of {digits} digits exceeds the {limit}-digit limit for reading integers"
            ) from None
        raise


def _parse_nat(text: str, what: str) -> int:
    s = text.strip()
    if not s.isdecimal():
        raise ParseError(f"{what} must be an unsigned integer, got {cut(text, repr)}")
    n = _decimal(s)
    if n == 0:
        raise ZeroValueError(f"{what} must be positive, got 0")
    return n


# Raw numeral text -> its int, for the bases and the exponents of accepted literals.
_BASES: dict[str, int] = {}
_EXPONENTS: dict[str, int] = {}
_KEY_LIMIT = 32  # characters: far below the least digit limit int() can be given, 640
_TERM_LIMIT = 4096  # terms: the fill of a longer literal would add about 7% to a cold library-scale parse


def _remember(raw: list[str], numbers: list[int]) -> None:
    """Keep a short accepted literal's raw numerals with their ints if none is long; past the bound, empty both dicts."""
    if len(raw) <= 2 * _TERM_LIMIT and max(map(len, raw)) <= _KEY_LIMIT:
        _BASES.update(zip(raw[::2], numbers[::2]))
        _EXPONENTS.update(zip(raw[1::2], numbers[1::2]))
        if len(_BASES) > _CACHE_SIZE or len(_EXPONENTS) > _CACHE_SIZE:
            _BASES.clear()
            _EXPONENTS.clear()


def _parse_literal(text: str, cls):
    """A factored literal as a cls; the grammar is checked here, the values by cls."""
    terms = text.split("*")
    # One "^" in each term and no "_", which int() reads as a digit separator; then each base
    # is decimal and each numeral, stripped, is one int() can read: a sign only on an exponent.
    if text.count("^") == len(terms) and all(map(contains, terms, repeat("^"))) and "_" not in text:
        raw = text.replace("*", "^").split("^")
        factors, numbers = {}, None
        if raw[0] in _BASES:  # else the lookups would stop at once, at the price of a KeyError
            try:  # every numeral known from an accepted literal
                factors = dict(zip(map(_BASES.__getitem__, raw[::2]), map(_EXPONENTS.__getitem__, raw[1::2])))
            except KeyError:
                pass
        if not factors:
            parts = list(map(str.strip, raw))
            if all(map(str.isdecimal, parts[::2])):
                try:
                    numbers = list(map(int, parts))
                except ValueError:  # an exponent off the grammar, or a numeral past the digit limit
                    pass
                else:
                    factors = dict(zip(numbers[::2], numbers[1::2]))
        if len(factors) == len(terms):  # no base repeated
            value = cls.from_factors(factors)
            if numbers is not None:
                _remember(raw, numbers)
            return value
    # A refusal: read term by term, to name its first wrong part.
    acc: dict[int, int] = {}
    for term in terms:
        base_text, sep, exp_text = term.partition("^")
        if not sep:
            raise ParseError(f"term {cut(term.strip(), repr)} is missing an exponent (expected p^e)")
        base, exp = base_text.strip(), exp_text.strip()
        if not base.isdecimal():
            raise ParseError(f"base {cut(base, repr)} must be an unsigned integer")
        if not (exp[1:] if exp[:1] in ("+", "-") else exp).isdecimal():
            raise ParseError(f"exponent {cut(exp, repr)} must be a signed integer")
        p = _decimal(base)
        if p in acc:
            raise ParseError(f"prime {shown(p, 'number')} appears more than once")
        acc[p] = _decimal(exp)
    return cls.from_factors(acc)


def _parse(text: str, cls):
    """A numeral, a factored literal or, when cls takes negative exponents, a fraction, as a cls."""
    s = text.strip()
    if not s:
        raise ParseError("empty input")
    if "^" in s:
        return _parse_literal(s, cls)
    if "/" in s and not cls._integral:
        num_text, _, den_text = s.partition("/")
        acc = factorize(_parse_nat(num_text, "numerator"))
        for p, e in factorize(_parse_nat(den_text, "denominator")).items():
            acc[p] = acc.get(p, 0) - e
        return _checked(FactoredRational, acc)
    return factor(_parse_nat(s, "value"))


def parse_rational(text: str) -> FactoredRational:
    """Parse "<nat>", "<nat>/<nat>", or a factored literal like "2^3 * 5^-1".

    Fractions need not be in lowest terms; canonical form comes out of the
    exponent arithmetic.
    """
    return _parse(text, FactoredRational)


def parse_integer(text: str) -> FactoredInteger:
    """Parse "<nat>" or a factored literal with all exponents >= 1."""
    return _parse(text, FactoredInteger)
