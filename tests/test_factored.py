import copy
import json
import pickle
import random
import re
import subprocess
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from math import prod
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import phisq.factored
from phisq.errors import ExponentOverflowError, ParseError, UnsupportedScaleError, ZeroValueError, shown
from phisq.factored import (
    EXPONENT_LIMIT,
    FactoredInteger,
    FactoredRational,
    factor,
    parse_integer,
    parse_rational,
)
from phisq.oracle import brute_force_minimal
from phisq.primes import _CACHE_SIZE, PRIMALITY_BOUND, factorize, is_prime, primes_up_to
from phisq.represent import represent, verify
from test_primes import next_prime


SRC = str(Path(__file__).resolve().parents[1] / "src")

PRIMES_TO_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97]


def rational_of(factors):
    return FactoredRational.from_factors(factors)


# --- construction invariants ---

def test_integer_rejects_composite_key():
    with pytest.raises(ValueError):
        FactoredInteger(((4, 1),))


def test_integer_rejects_bad_exponents():
    with pytest.raises(ValueError):
        FactoredInteger(((2, 0),))
    with pytest.raises(ValueError):
        FactoredInteger(((2, -1),))


def test_integer_rejects_unsorted_or_duplicate_keys():
    with pytest.raises(ValueError):
        FactoredInteger(((3, 1), (2, 1)))
    with pytest.raises(ValueError):
        FactoredInteger(((2, 1), (2, 1)))


def test_rational_rejects_zero_exponent():
    with pytest.raises(ValueError):
        FactoredRational(((2, 0),))


def test_exponent_limit_enforced():
    FactoredInteger(((2, EXPONENT_LIMIT),))  # the boundary itself is fine
    with pytest.raises(ExponentOverflowError):
        FactoredInteger(((2, EXPONENT_LIMIT + 1),))


def test_empty_maps_denote_one():
    assert FactoredInteger().value() == 1
    assert FactoredRational().value() == Fraction(1)
    assert str(FactoredInteger()) == "1"


# --- expand / factor ---

def test_expand_fixtures():
    assert FactoredInteger.from_factors({2: 2, 7: 1, 11: 1, 47: 1}).value() == 14476
    assert FactoredInteger.from_factors({3: 2}).value() == 9


def test_factor_fixtures():
    assert factor(39330).factors == {2: 1, 3: 2, 5: 1, 19: 1, 23: 1}
    assert factor(20010).factors == {2: 1, 3: 1, 5: 1, 23: 1, 29: 1}
    assert factor(1).factors == {}


def test_factor_trusts_factorize_and_literals_stay_validated(monkeypatch):
    # factorize certifies every prime it returns; factor() must not certify
    # them a second time, while constructors and literals still must.
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called by the validator")

    monkeypatch.setattr(phisq.factored, "is_prime", refuse)
    n = 2**5 * 3**3 * 7 * 931392751327
    assert factor(n).factors == {2: 5, 3: 3, 7: 1, 931392751327: 1}
    with pytest.raises(AssertionError, match="validator"):
        FactoredInteger(((4, 1),))
    with pytest.raises(AssertionError, match="validator"):
        parse_rational("4^2")
    with pytest.raises(ValueError, match="can only factor positive integers, got 0"):
        factor(0)


@pytest.mark.parametrize("n", [1000003 * 1000033, next_prime(2**29) * next_prime(2**40)])
def test_factor_keeps_the_ascending_order_factorize_returns(n):
    # factor wraps factorize's entries unsorted; dict equality would not see the order.
    f = factor(n)
    assert f.entries == tuple(factorize(n).items())
    assert [p for p, _ in f.entries] == sorted(f.factors) and len(f.entries) == 2


def test_factor_expand_round_trip():
    for n in range(1, 3000):
        assert factor(n).value() == n


# --- rational arithmetic ---

def test_mul_fixtures():
    assert rational_of({19: 1}) * rational_of({19: -1}) == FactoredRational()
    assert rational_of({2: 1}) * rational_of({2: 1}) == rational_of({2: 2})
    assert rational_of({19: 1, 47: -1}) * rational_of({47: 1}) == rational_of({19: 1})


def test_mul_identity_and_commutativity():
    a = rational_of({2: 3, 5: -1})
    one = FactoredRational()
    assert a * one == a
    assert one * a == a
    b = rational_of({3: 2, 5: 4})
    assert a * b == b * a


def test_inverse_fixtures():
    assert FactoredRational().inverse() == FactoredRational()
    assert rational_of({2: -1}).inverse() == rational_of({2: 1})
    assert rational_of({19: 1, 47: -1}).inverse() == rational_of({19: -1, 47: 1})


def test_inverse_is_involution_and_cancels():
    rng = random.Random(11)
    for _ in range(100):
        a = random_rational_under_100(rng)
        assert a.inverse().inverse() == a
        assert a * a.inverse() == FactoredRational()


def random_rational_under_100(rng):
    chosen = rng.sample(PRIMES_TO_100, rng.randint(0, 6))
    exps = [e for e in range(-6, 7) if e != 0]
    return rational_of({p: rng.choice(exps) for p in chosen})


def test_mul_is_a_homomorphism():
    # Cross-multiplied integer comparison, independent of Fraction internals.
    rng = random.Random(13)
    for _ in range(300):
        a = random_rational_under_100(rng)
        b = random_rational_under_100(rng)
        ab = a * b
        na, da = a.numerator().value(), a.denominator().value()
        nb, db = b.numerator().value(), b.denominator().value()
        nab, dab = ab.numerator().value(), ab.denominator().value()
        assert nab * da * db == na * nb * dab


def test_canonical_form_after_arithmetic():
    rng = random.Random(17)
    for _ in range(200):
        r = random_rational_under_100(rng) * random_rational_under_100(rng)
        keys = [p for p, _ in r.entries]
        assert keys == sorted(keys)
        assert all(e != 0 for _, e in r.entries)
        assert not (set(r.numerator().factors) & set(r.denominator().factors))


def test_mul_result_type():
    assert type(factor(6) * factor(10)) is FactoredInteger
    assert (factor(6) * factor(10)).value() == 60
    for product in (factor(6) * rational_of({2: -1}), rational_of({2: -1}) * factor(6)):
        assert type(product) is FactoredRational
        assert product == rational_of({3: 1})
    assert type(factor(6).inverse()) is FactoredRational


@pytest.mark.parametrize("cls", [FactoredRational, FactoredInteger])
def test_a_plain_int_is_neither_a_factor_nor_an_equal(cls):
    # __mul__ and __eq__ answer NotImplemented, so Python refuses the product and falls back to identity.
    two = cls.from_factors({2: 1})
    with pytest.raises(TypeError):
        two * 2
    assert (two == 2) is False


def test_mul_exponent_overflow_is_reported():
    a = rational_of({2: EXPONENT_LIMIT})
    with pytest.raises(ExponentOverflowError):
        a * a
    # Past the limit at two primes, the smaller is named, whichever factor brings it.
    twice = rational_of({2: EXPONENT_LIMIT, 3: -EXPONENT_LIMIT})
    for x, y in ((twice, twice), (twice, rational_of({2: 1, 3: -1})), (rational_of({2: 1, 3: -1}), twice)):
        with pytest.raises(ExponentOverflowError) as info:
            x * y
        assert str(info.value) == f"exponent {x.factors[2] + y.factors[2]} for prime 2 exceeds +/-{EXPONENT_LIMIT}"
    with pytest.raises(ExponentOverflowError) as info:
        rational_of({3: -EXPONENT_LIMIT}) * rational_of({2: 1, 3: -1})
    assert str(info.value) == f"exponent {-EXPONENT_LIMIT - 1} for prime 3 exceeds +/-{EXPONENT_LIMIT}"
    # A smaller prime cancelling to zero leaves the refusal standing.
    with pytest.raises(ExponentOverflowError) as info:
        rational_of({2: 5, 3: EXPONENT_LIMIT}) * rational_of({2: -5, 3: 1})
    assert str(info.value) == f"exponent {EXPONENT_LIMIT + 1} for prime 3 exceeds +/-{EXPONENT_LIMIT}"
    # One below the limit on either side, the product answers, at the limit.
    high = factor(2) * FactoredInteger(((2, EXPONENT_LIMIT - 1), (3, 1)))
    assert type(high) is FactoredInteger and high == FactoredInteger(((2, EXPONENT_LIMIT), (3, 1)))
    low = rational_of({2: 1 - EXPONENT_LIMIT, 3: 4}) * rational_of({2: -1, 3: -4})
    assert low == rational_of({2: -EXPONENT_LIMIT})


def test_scale_refusals_name_a_huge_number_by_its_digit_count():
    # From 10**49 on, a number is named by its digit count, counted without
    # str(), which raises ValueError past 4300 digits; below, it is echoed.
    bound = f": >= deterministic bound {PRIMALITY_BOUND}"
    with pytest.raises(UnsupportedScaleError) as info:
        factor(2**127 - 1)
    assert str(info.value) == f"cannot certify primality of {2**127 - 1}{bound}"
    for n, digits in ((10**3000 + 1, 2983), (10**5000 + 1, 4989)):
        with pytest.raises(UnsupportedScaleError) as info:
            factor(n)
        assert str(info.value) == f"cannot certify primality of a {digits}-digit number{bound}"


# --- parsing ---

def test_parse_fraction_fixtures():
    assert parse_rational("19/47") == rational_of({19: 1, 47: -1})
    assert parse_rational("1") == FactoredRational()
    assert parse_rational("6/4") == rational_of({2: -1, 3: 1})


def test_parse_accepts_non_lowest_terms():
    assert parse_rational("100/10") == rational_of({2: 1, 5: 1})
    assert parse_rational("12/3").entries == ((2, 2),)  # 3 cancels, and its zero is dropped


def test_parse_factored_literal():
    assert parse_rational("2^3 * 5^-1") == rational_of({2: 3, 5: -1})
    assert parse_rational("47^+2") == rational_of({47: 2})
    assert parse_rational("  19 ^ 1*47^-1 ") == rational_of({19: 1, 47: -1})
    assert parse_rational("2^\t3 *\n5 ^-1") == rational_of({2: 3, 5: -1})  # any whitespace


def test_literal_round_trips_through_str():
    rng = random.Random(19)
    for _ in range(100):
        r = random_rational_under_100(rng)
        if r.is_one:
            continue
        assert parse_rational(str(r)) == r


def test_parse_rejects_malformed_input():
    # "²" is a digit to str.isdigit, but int() refuses it.
    for bad in ["", "abc", "1/2/3", "2^", "^3", "2**3", "2^1 * x^2", "-3", "1.5", "²", "2^²", "2^-²", "²^1", "2^--3", "2^+-3",
                "2^1_0", "3^1 * 2^-1_0", "1_3^1"]:
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_parse_rejects_zero_values():
    with pytest.raises(ZeroValueError):
        parse_rational("0")
    with pytest.raises(ZeroValueError):
        parse_rational("0/5")
    with pytest.raises(ZeroValueError):
        parse_rational("5/0")


def test_parse_rejects_bad_literals():
    with pytest.raises(ParseError):
        parse_rational("4^2")  # composite base
    with pytest.raises(ParseError):
        parse_rational("2^1 * 2^1")  # duplicate prime
    with pytest.raises(ParseError):
        parse_rational("2^0")  # zero exponent


def test_parse_integer():
    assert parse_integer("55836").factors == {2: 2, 3: 3, 11: 1, 47: 1}
    assert parse_integer("2^2 * 3^3 * 11^1 * 47^1").value() == 55836
    assert parse_integer("1").factors == {}
    with pytest.raises(ParseError):
        parse_integer("2^-1")
    with pytest.raises(ZeroValueError):
        parse_integer("0")
    with pytest.raises(ParseError, match="value must be an unsigned integer, got '4/2'"):
        parse_integer("4/2")  # the fraction form is for rationals, even a whole one


def test_numerator_denominator_split():
    r = parse_rational("19/47")
    assert r.numerator().value() == 19
    assert r.denominator().value() == 47
    assert r.value() == Fraction(19, 47)


def test_factored_values_are_immutable_and_hashable():
    a = factor(12)
    # An integer equals, and hashes like, the rational with the same entries.
    for b in (factor(12), parse_rational("12"), parse_rational("24/2"), rational_of({2: 2, 3: 1})):
        assert a == b and hash(a) == hash(b)
    assert factor(12) != rational_of({2: 2, 3: -1})
    assert isinstance(a, FactoredRational)
    assert repr(a) == "FactoredInteger('2^2 * 3^1')"
    assert repr(rational_of({2: -1})) == "FactoredRational('2^-1')"
    # Every write raises, on either type: no entries change, none go, and no attribute is added.
    for b in (a, rational_of({2: -1})):
        with pytest.raises(AttributeError):
            b.entries = ()
        with pytest.raises(AttributeError):
            del b.entries
        with pytest.raises(AttributeError):
            b.other = 1
        assert not hasattr(b, "__dict__")  # slotted: no per-value dict


def test_values_and_results_survive_copy_and_pickle_and_refuse_writes():
    # A slotted class that refuses writes needs its own __reduce__ for all three.
    r = parse_rational("19/47")
    rep = represent(r)
    report = verify(rep.m, rep.n, r)
    report.common_value  # a cached value travels along
    for value in (factor(12), r, rep, report, brute_force_minimal(r, 20000)):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value
        with pytest.raises(AttributeError):
            value.other = 1
    with pytest.raises(AttributeError):
        report.common_value = 0  # the cache is written only by reading it


# --- the parsers against the regexes that once read the grammar ------------

# A term is matched whole by TERM_RE; a term it refuses is taken apart to name
# the wrong part, with NAT_RE for the base.
NAT_RE = re.compile(r"\d+")
TERM_RE = re.compile(r"\s*(\d+)\s*\^\s*([+-]?\d+)\s*")


def reference_quote(text):
    """repr(text) while its JSON escaping takes at most 100 characters, else the repr of the longest
    prefix whose escaping takes at most 50, then "... (N characters)": the documented rule, apart from errors.cut."""

    def width(s):
        return len(json.dumps(repr(s))) - 2

    if width(text) <= 100:
        return repr(text)
    k = 0
    while width(text[: k + 1]) <= 50:
        k += 1
    return f"{text[:k]!r}... ({len(text)} characters)"


def reference_literal(text, cls):
    """The literal grammar read term by term with the regexes."""
    acc = {}
    for term in text.split("*"):
        match = TERM_RE.fullmatch(term)
        if match is None:
            base_text, sep, exp_text = term.partition("^")
            if not sep:
                raise ParseError(f"term {reference_quote(term.strip())} is missing an exponent (expected p^e)")
            if not NAT_RE.fullmatch(base_text.strip()):
                raise ParseError(f"base {reference_quote(base_text.strip())} must be an unsigned integer")
            raise ParseError(f"exponent {reference_quote(exp_text.strip())} must be a signed integer")
        p = reference_int(match[1])
        if p in acc:
            raise ParseError(f"prime {shown(p, 'number')} appears more than once")
        acc[p] = reference_int(match[2])
    return cls.from_factors(acc)


def reference_nat(text, what):
    s = text.strip()
    if not NAT_RE.fullmatch(s):
        raise ParseError(f"{what} must be an unsigned integer, got {reference_quote(text)}")
    n = reference_int(s)
    if n == 0:
        raise ZeroValueError(f"{what} must be positive, got 0")
    return n


def reference_parse(text, cls):
    """parse_rational (cls FactoredRational) or parse_integer (FactoredInteger), with the regexes."""
    s = text.strip()
    if not s:
        raise ParseError("empty input")
    if "^" in s:
        return reference_literal(s, cls)
    if "/" in s and cls is FactoredRational:
        num_text, _, den_text = s.partition("/")
        return factor(reference_nat(num_text, "numerator")) * factor(reference_nat(den_text, "denominator")).inverse()
    return factor(reference_nat(s, "value"))


def reference_int(numeral):
    limit = sys.get_int_max_str_digits()
    digits = len(numeral.lstrip("+-"))
    if limit and digits > limit:
        raise UnsupportedScaleError(
            f"a numeral of {digits} digits exceeds the {limit}-digit limit for reading integers"
        )
    return int(numeral)


def literal_outcome(read, text, cls):
    try:
        value = read(text, cls)
    except (ParseError, UnsupportedScaleError, ExponentOverflowError) as exc:
        return type(exc), str(exc)
    return type(value), value.entries


@contextmanager
def int_digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# ASCII and non-ASCII digits (Arabic-Indic three, fullwidth five), Unicode
# whitespace that str.strip() removes, signs, the three operators, "_", which
# int() would read as a digit separator, and "²", a digit to str.isdigit only.
PARSE_ALPHABET = "²0123579٣５  \x1c \t+-^*/_x"
SPACE = st.text("  \x1c \t", max_size=2)
SMALL_NUMERAL = st.one_of(
    st.sampled_from(("2", "3", "5", "7", "٣", "５", "1٣", "97", "²", "1_3")),
    st.text("0123579٣５", min_size=1, max_size=3),
)


@st.composite
def near_literals(draw):
    """Texts close to the grammar: terms of small numerals, some zero-padded to the digit limit."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        base = "0" * draw(st.sampled_from((0, 0, 638, 639))) + draw(SMALL_NUMERAL)
        sign = draw(st.sampled_from(("", "", "+", "-", "--", "+-")))
        exp = sign + "0" * draw(st.sampled_from((0, 0, 639))) + draw(SMALL_NUMERAL)
        term = draw(SPACE) + base + draw(SPACE) + "^" + draw(SPACE) + exp + draw(SPACE)
        terms.append(draw(st.sampled_from((term,) * 6 + (term.replace("^", ""), term + "^1", "x" + term))))
    return "*".join(terms)


# Plain numerals and fractions of them, as near_literals builds terms.
NEAR_NUMERALS = st.tuples(SPACE, SMALL_NUMERAL, st.sampled_from(("", "/", "/ ")), SMALL_NUMERAL).map(
    lambda parts: parts[0] + parts[1] + (parts[2] + parts[3] if parts[2] else "")
)


# Fractions of numerals far past three digits, each side a product of small primes,
# primes on either side of the trial bound (rho splits those above it) and at most
# one 36-40-bit prime, times a factor both sides share; or a side that is 0, or a
# multiple of the primality bound, which factorize refuses by naming its cofactor.
NEAR_TRIAL_BOUND = (999953, 999983, 1000003, 1000033, 1000037, 1000039)
WIDE_PRIMES = tuple(next_prime(2**b + 2 ** (b - 2)) for b in range(35, 40))
PAST_BOUND = tuple(PRIMALITY_BOUND * k for k in (1, 2, 1000003, 1000033))
SMOOTH = st.tuples(
    st.lists(st.sampled_from((2, 3, 5, 7, 97, 1009, 1021)), max_size=4),
    st.lists(st.sampled_from(NEAR_TRIAL_BOUND), max_size=3),
).map(lambda parts: prod(parts[0]) * prod(parts[1]))
FACTORED_SIDE = st.tuples(SMOOTH, st.sampled_from((1, 1, *WIDE_PRIMES))).map(prod)
LARGE_SIDE = st.one_of(FACTORED_SIDE, FACTORED_SIDE, FACTORED_SIDE, st.just(0), st.sampled_from(PAST_BOUND))
LARGE_FRACTIONS = st.tuples(SPACE, SMOOTH, LARGE_SIDE, st.sampled_from(("/", " / ")), LARGE_SIDE).map(
    lambda parts: f"{parts[0]}{parts[1] * parts[2]}{parts[3]}{parts[1] * parts[4]}"
)

# Literals over 100-600 consecutive primes, whole or with one edit: a dropped or doubled
# "*" or "^", an inserted "_", sign, Unicode space or Unicode digit, a base repeated far
# from its first use, or a base or exponent zero-padded past the 4300-digit limit.
LITERAL_PRIMES = tuple(primes_up_to(8000))
INSERTED = ("_", "+", "-", " ", "\u2003", "\x1c", "\u3000", "٣", "５")


def edit_at(draw, text, sep):
    """text with one drawn occurrence of sep dropped or doubled."""
    i = draw(st.sampled_from([k for k, c in enumerate(text) if c == sep]))
    return text[:i] + sep * draw(st.sampled_from((0, 2))) + text[i + 1 :]


@st.composite
def wide_literals(draw):
    k = draw(st.integers(100, 600))
    start = draw(st.integers(0, len(LITERAL_PRIMES) - k))
    rng = draw(st.randoms(use_true_random=False))
    bases = [str(p) for p in LITERAL_PRIMES[start : start + k]]
    exps = [str(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in bases]
    edit = draw(st.sampled_from(("none", "*", "^", "insert", "repeat", "pad")))
    if edit == "repeat":
        bases[draw(st.integers(3 * k // 4, k - 1))] = bases[draw(st.integers(0, k // 4))]
    elif edit == "pad":
        i = draw(st.integers(0, k - 1))
        if draw(st.booleans()):
            bases[i] = "0" * 4300 + bases[i]
        else:
            exps[i] = exps[i][:-1] + "0" * 4300 + exps[i][-1]
    text = " * ".join(map("^".join, zip(bases, exps)))
    if edit in ("*", "^"):
        text = edit_at(draw, text, edit)
    elif edit == "insert":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(INSERTED)) + text[i:]
    return text


PARSERS = {FactoredRational: parse_rational, FactoredInteger: parse_integer}


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.text(PARSE_ALPHABET, max_size=24), near_literals(), NEAR_NUMERALS, LARGE_FRACTIONS, wide_literals()),
    st.sampled_from((FactoredRational, FactoredInteger)),
    st.sampled_from((0, 640, 4300)),
)
@example(f"{PAST_BOUND[2]}/{PAST_BOUND[0]}", FactoredRational, 0)  # both refused: the numerator's cofactor is named
@example(f"{1000003 * 1000037 * WIDE_PRIMES[0]}/{1000037**2 * 1000039 * 6}", FactoredRational, 640)
def test_parsers_match_the_regex_reference(text, cls, limit):
    # parse_rational or parse_integer (by cls): the same value and class, or the same
    # exception type and message, as the regexes give.
    with int_digit_limit(limit):
        expected = literal_outcome(reference_parse, text, cls)
        assert literal_outcome(lambda t, c: PARSERS[c](t), text, cls) == expected
        if "^" in text and expected[0] in PARSERS:
            # An accepted literal is read by the whole-text passes: the term-by-term walk,
            # which reads each numeral through _decimal, is reached only to name a refusal.
            with patch.object(phisq.factored, "_decimal", side_effect=AssertionError("the walk read it")):
                assert PARSERS[cls](text).entries == expected[1]


@pytest.mark.parametrize("text", [
    "2^\t3 *\n5 ^-1", "\x1c2 ^ \x1c+3\x1c*\u30005^-0002", "٣^٣ * ５^-１", "2^1 * " + "0" * 700 + "3^1",
    "3^1 * 2^1", "  19 ^ 1*47^-1 ", " * ".join(f"{p}^{(-1) ** p}" for p in LITERAL_PRIMES),
], ids=["tab-newline", "separators-and-signs", "unicode-digits", "zero-padded", "descending", "spaces", "primes-to-8000"])
def test_the_passes_read_every_literal_they_accept(text):
    # Whitespace str.strip removes (int() alone keeps U+001C-U+001F), Unicode digits, signs,
    # leading zeros and any order: the term-by-term walk, the only reader of _decimal on
    # this path, is never reached.
    expected = reference_parse(text, FactoredRational)
    with patch.object(phisq.factored, "_decimal", side_effect=AssertionError("the walk read it")):
        assert parse_rational(text) == expected


@pytest.mark.parametrize("text, message", [
    ("2^3^4 * 5^1", "exponent '3^4' must be a signed integer"),
    ("2^1 * 3^^1 * 5", "exponent '^1' must be a signed integer"),
    ("2^1 * 3 * 5^1^1", "term '3' is missing an exponent (expected p^e)"),
    ("2^1 * 3^1_0", "exponent '1_0' must be a signed integer"),
    ("2^1 * 3^- 1", "exponent '- 1' must be a signed integer"),
    ("2^1 * +3^1", "base '+3' must be an unsigned integer"),
    ("2^1 * 3^1 * 5^1 * 3^1", "prime 3 appears more than once"),
], ids=["two-carets-in-a-term", "doubled-caret", "term-without-caret", "underscore", "spaced-sign", "signed-base",
        "repeated-base"])
def test_a_literal_refusal_names_its_first_wrong_part(text, message):
    # Each of these passes some whole-text check (the caret count, the bases, int()) and
    # fails another; the walk names the first wrong part.
    with pytest.raises(ParseError) as info:
        parse_rational(text)
    assert str(info.value) == message
    assert literal_outcome(reference_parse, text, FactoredRational) == (ParseError, message)


# --- the numeral dicts, which answer the passes' ints for numerals read before

def clear_numeral_dicts():
    phisq.factored._BASES.clear()
    phisq.factored._EXPONENTS.clear()


def numeral_dicts():
    return dict(phisq.factored._BASES), dict(phisq.factored._EXPONENTS)


def other_role(text):
    """A literal holding text's raw numerals with bases and exponents swapped, between two
    terms of primes past LITERAL_PRIMES, so that no numeral loses its outer whitespace."""
    raw = text.strip().replace("*", "^").split("^")
    return "*".join(["8009^1", *(f"{e}^{b}" for b, e in zip(raw[::2], raw[1::2])), "8011^1"])


DEFAULT_DIGIT_LIMIT = 4300  # CPython's


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.text(PARSE_ALPHABET, max_size=24), near_literals(), NEAR_NUMERALS, LARGE_FRACTIONS, wide_literals()),
    st.sampled_from((FactoredRational, FactoredInteger)),
    st.sampled_from((640, DEFAULT_DIGIT_LIMIT)),
)
@example("2^+5", FactoredRational, 640)
@example("+5^2", FactoredRational, DEFAULT_DIGIT_LIMIT)  # "+5" is known as an exponent only
def test_the_numeral_dicts_never_change_an_outcome(text, cls, limit):
    # Cold, warm, and with the text's numerals known in the other role: each time the same
    # value and class, or the same exception type and message, as the regexes give.
    with int_digit_limit(limit):
        expected = literal_outcome(reference_parse, text, cls)
        read = lambda t, c: PARSERS[c](t)  # noqa: E731
        clear_numeral_dicts()
        assert literal_outcome(read, text, cls) == expected
        assert literal_outcome(read, text, cls) == expected
        clear_numeral_dicts()
        literal_outcome(read, other_role(text), FactoredRational)
        assert literal_outcome(read, text, cls) == expected


def test_a_numeral_is_read_from_the_dicts_only_in_its_role():
    clear_numeral_dicts()
    assert parse_rational("3^1") == rational_of({3: 1})
    assert parse_rational("2^+5") == rational_of({2: 5})
    assert numeral_dicts() == ({"3": 3, "2": 2}, {"1": 1, "+5": 5})
    with pytest.raises(ParseError) as info:
        parse_rational("+5^1")
    assert str(info.value) == "base '+5' must be an unsigned integer"


def test_a_literal_the_validator_refuses_stores_nothing():
    clear_numeral_dicts()
    for _ in range(2):
        with pytest.raises(ParseError, match="^base 4 is not prime$"):
            parse_rational("4^1 * 3^1")
    assert numeral_dicts() == ({}, {})


@pytest.mark.parametrize("long, short, factors", [
    ("0" * 31 + "13^1", "0" * 30 + "13^1", {13: 1}),
    ("2^-" + "0" * 31 + "1", "2^-" + "0" * 30 + "1", {2: -1}),
    ("2^1" + " " * 32 + "* 3^1", "2^1" + " " * 31 + "* 3^1", {2: 1, 3: 1}),
], ids=["base", "exponent", "spaces"])
def test_a_literal_with_a_numeral_past_32_characters_stores_nothing(long, short, factors):
    clear_numeral_dicts()
    for _ in range(2):
        assert parse_rational(long) == rational_of(factors)
        assert numeral_dicts() == ({}, {})
    assert parse_rational(short) == rational_of(factors)
    assert max(map(len, (*phisq.factored._BASES, *phisq.factored._EXPONENTS))) == 32


def test_the_numeral_dicts_stay_within_the_cache_bound():
    # 17 literals of the same 4096 primes, each prime padded to 32 characters by a variant of
    # its own, with exponents of 2^62 and more: 69,632 numerals in each role, each key held
    # in four bytes a character, each exponent in the largest int an exponent takes.
    clear_numeral_dicts()
    zero = "\U0001d7ce"  # MATHEMATICAL BOLD DIGIT ZERO, a decimal digit outside the BMP

    def padded(n, spaces):
        return zero * (32 - spaces - len(str(n))) + str(n) + " " * spaces

    def deep_size(d):
        return sys.getsizeof(d) + sum(map(sys.getsizeof, d)) + sum(map(sys.getsizeof, d.values()))

    primes = primes_up_to(40000)[:4096]
    full = 0
    for j in range(17):
        parse_rational("*".join(f"{padded(p, j)}^{padded(2**62 + 4096 * j + i, 0)}" for i, p in enumerate(primes)))
        sizes = len(phisq.factored._BASES), len(phisq.factored._EXPONENTS)
        assert sizes == (((j + 1) * 4096,) * 2 if j < 16 else (0, 0))  # past the bound: both emptied
        if sizes[0] == _CACHE_SIZE:
            # Both dicts at the bound; a base near PRIMALITY_BOUND would take 8 bytes more than these.
            bases, exps = phisq.factored._BASES, phisq.factored._EXPONENTS
            full = deep_size(bases) + deep_size(exps)
            full += sum(sys.getsizeof(PRIMALITY_BOUND) - sys.getsizeof(p) for p in bases.values())
    assert 30 * 2**20 < full <= 36 * 2**20  # 31.7 MiB on CPython 3.13, 33.7 on 3.11, about 35 on 3.10


def test_a_literal_of_more_than_4096_terms_is_not_kept():
    clear_numeral_dicts()
    primes = primes_up_to(40000)
    assert len(parse_rational("*".join(f"{p}^1" for p in primes[:4097])).entries) == 4097
    assert numeral_dicts() == ({}, {})
    assert len(parse_rational("*".join(f"{p}^1" for p in primes[:4096])).entries) == 4096
    assert tuple(map(len, numeral_dicts())) == (4096, 1)


def test_a_value_planted_in_the_base_dict_is_read():
    # Read from the dict, not by the passes, which would read "0007" as 7.
    clear_numeral_dicts()
    parse_rational("3^1")
    phisq.factored._BASES["0007"] = 11
    try:
        assert parse_rational("0007^1") == rational_of({11: 1})
    finally:
        clear_numeral_dicts()
    assert parse_rational("0007^1") == rational_of({7: 1})


def test_threads_read_the_numeral_dicts_while_another_clears_them():
    literals = [
        " * ".join(f"{p}^{(-1) ** i * (i % 3 + 1)}" for i, p in enumerate(LITERAL_PRIMES[:200])),
        "2^+5 * 3^1", "3^1 * 2^+5", "+5^1", "4^1 * 3^1", "2^1 * 3^1 * 2^1", "٣^٣ * ５^-1",
    ]
    cold = {}
    for text in literals:
        clear_numeral_dicts()
        cold[text] = literal_outcome(lambda t, c: parse_rational(t), text, FactoredRational)
    wrong, done = [], threading.Event()

    def read():
        for _ in range(300):
            for text in literals:
                outcome = literal_outcome(lambda t, c: parse_rational(t), text, FactoredRational)
                if outcome != cold[text]:
                    wrong.append((text, outcome))

    def clear():
        while not done.is_set():
            clear_numeral_dicts()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=read) for _ in range(2)]
        clearer = threading.Thread(target=clear)
        for thread in (*readers, clearer):
            thread.start()
        for thread in readers:
            thread.join(timeout=120)
        done.set()
        clearer.join(timeout=10)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in (*readers, clearer))
    assert wrong == []


# --- the constructors against the entry-by-entry walk ---------------------------

# Past PRIMALITY_BOUND and prime to every Miller-Rabin base: is_prime raises on it.
UNCERTIFIABLE = 43**16


def reference_validate(entries, integral):
    """Each entry checked in turn: primality, order, a nonzero exponent, range, then sign."""
    previous = 1
    for p, e in entries:
        if not is_prime(p):
            raise ParseError(f"base {shown(p, 'number')} is not prime")
        if p <= previous:
            raise ParseError(f"prime keys must be distinct and ascending, got {p} after {previous}")
        if e == 0:
            raise ParseError(f"exponent for prime {p} must be nonzero")
        if abs(e) > EXPONENT_LIMIT:
            raise ExponentOverflowError(f"exponent {shown(e, 'number')} for prime {p} exceeds +/-{EXPONENT_LIMIT}")
        if e < 0 and integral:
            raise ParseError(f"exponent {e} for prime {p} does not denote an integer")
        previous = p


def construction_outcome(build, entries):
    try:
        value = build(entries)
    except (ParseError, ExponentOverflowError, UnsupportedScaleError) as exc:
        return type(exc), str(exc)
    return value.entries if value is not None else entries


ENTRY_BASES = st.one_of(
    st.sampled_from(PRIMES_TO_100), st.integers(-2, 120),
    st.sampled_from((UNCERTIFIABLE, PRIMALITY_BOUND, 2**61 - 1, 1000003 * 1000033)),
)
ENTRY_EXPONENTS = st.one_of(
    st.integers(-4, 4),
    st.sampled_from((EXPONENT_LIMIT, EXPONENT_LIMIT + 1, -EXPONENT_LIMIT, -EXPONENT_LIMIT - 1, 2**70)),
)


@st.composite
def near_valid_entries(draw):
    """Ascending distinct primes with small nonzero exponents, then at most two entries replaced or swapped."""
    entries = sorted(draw(st.dictionaries(st.sampled_from(PRIMES_TO_100), st.sampled_from((-3, -1, 1, 2)), max_size=10)).items())
    for _ in range(draw(st.integers(0, 2))):
        if not entries:
            break
        i, j = draw(st.integers(0, len(entries) - 1)), draw(st.integers(0, len(entries) - 1))
        if draw(st.booleans()):
            entries[i] = (draw(ENTRY_BASES), draw(ENTRY_EXPONENTS))
        else:
            entries[i], entries[j] = entries[j], entries[i]
    return tuple(entries)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(near_valid_entries(), st.lists(st.tuples(ENTRY_BASES, ENTRY_EXPONENTS), max_size=6).map(tuple)),
    st.sampled_from((FactoredRational, FactoredInteger)),
)
@example(((2, 0), (UNCERTIFIABLE, 1)), FactoredRational)
@example(((3, 1), (2, 1), (UNCERTIFIABLE, 1)), FactoredInteger)
@example(((2, -1), (UNCERTIFIABLE, 1)), FactoredInteger)
def test_constructors_refuse_as_the_entry_by_entry_walk(entries, cls):
    # The same value, or the same exception type and message, whichever entry is wrong first.
    expected = construction_outcome(lambda e: reference_validate(e, cls._integral), entries)
    assert construction_outcome(cls, entries) == expected


@pytest.mark.parametrize("cls", [FactoredRational, FactoredInteger])
def test_a_zero_exponent_is_named_before_a_base_past_the_primality_bound(cls):
    # is_prime raises at the later base; the entries are checked in order, so the zero is named first.
    with pytest.raises(ParseError, match="^exponent for prime 2 must be nonzero$"):
        cls(((2, 0), (UNCERTIFIABLE, 1)))
    with pytest.raises(UnsupportedScaleError):
        cls(((2, 1), (UNCERTIFIABLE, 1)))


def test_importing_phisq_loads_no_re():
    # -S keeps site's own imports out, so the modules left are phisq's and Python's core.
    script = "import sys; sys.path.insert(0, sys.argv[1]); import phisq; print('re' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", script, SRC], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_duplicate_prime_is_refused_before_its_exponent_is_read():
    with int_digit_limit(640):
        for text in ("2^1 * 2^" + "1" * 641, "2^1 * 0002^-" + "1" * 700):
            with pytest.raises(ParseError, match="prime 2 appears more than once"):
                parse_rational(text)


def test_literal_numerals_at_the_digit_limit():
    padded = "0" * 4399 + "7"
    with int_digit_limit(0):
        assert parse_rational(f"2^{padded} * {padded}^-1") == rational_of({2: 7, 7: -1})
    with int_digit_limit(4300):
        with pytest.raises(UnsupportedScaleError, match="a numeral of 4400 digits exceeds the 4300-digit limit"):
            parse_rational(f"2^{padded}")
    with int_digit_limit(640):
        for text in ("2^" + "0" * 640 + "1", "0" * 640 + "2^1", "3^1 * 2^-" + "0" * 640 + "1"):
            with pytest.raises(UnsupportedScaleError) as info:
                parse_rational(text)
            assert str(info.value) == "a numeral of 641 digits exceeds the 640-digit limit for reading integers"
        assert parse_rational("2^" + "0" * 639 + "1") == rational_of({2: 1})
