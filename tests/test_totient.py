import random
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from phisq import primes
from phisq.errors import ExponentOverflowError, FactorizationFailure
from phisq.factored import EXPONENT_LIMIT, FactoredInteger, factor
from phisq.totient import totient, totient_of_square

PRIMES_TO_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97]


def phi_by_counting(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_totient_fixtures():
    assert totient(FactoredInteger.from_factors({3: 2})).factors == {2: 1, 3: 1}
    assert totient(FactoredInteger()).factors == {}
    assert totient(FactoredInteger.from_factors({2: 1})).factors == {}


def test_totient_matches_counting_oracle():
    for n in range(1, 2001):
        assert totient(factor(n)).value() == phi_by_counting(n), n


def test_totient_of_square_fixtures():
    t = totient_of_square(factor(39330))
    assert t.value() == 373792320 == 19 * 19673280
    assert totient_of_square(FactoredInteger()).factors == {}
    assert totient_of_square(FactoredInteger.from_factors({2: 2})).factors == {2: 3}


def test_square_identity_factored_paths():
    for n in range(1, 10**4 + 1):
        f = factor(n)
        assert totient_of_square(f).value() == n * totient(f).value()


def test_results_are_fully_factored():
    t = totient_of_square(factor(55836))
    keys = [p for p, _ in t.entries]
    assert keys == sorted(keys)
    assert all(e >= 1 for _, e in t.entries)
    # phi(55836^2) = 2^5 * 3^5 * 5 * 11 * 23 * 47 * ... check by expansion
    assert t.value() == 55836 * totient(factor(55836)).value()


def test_multiplicative_over_coprime_parts():
    rng = random.Random(23)
    for _ in range(200):
        chosen = rng.sample(PRIMES_TO_100, rng.randint(0, 8))
        split = rng.randint(0, len(chosen))
        a = FactoredInteger.from_factors({p: rng.randint(1, 6) for p in chosen[:split]})
        b = FactoredInteger.from_factors({p: rng.randint(1, 6) for p in chosen[split:]})
        assert totient(a * b).value() == totient(a).value() * totient(b).value()


def test_exponent_overflow_is_reported():
    # 2a - 1 past the limit, and p - 1 = 2^2 pushing 2^(LIMIT - 1) past it.
    with pytest.raises(ExponentOverflowError):
        totient_of_square(FactoredInteger(((3, 2**62 + 1),)))
    with pytest.raises(ExponentOverflowError):
        totient(FactoredInteger(((2, EXPONENT_LIMIT), (5, 1))))
    assert totient(FactoredInteger(((2, EXPONENT_LIMIT), (3, 1)))).factors == {2: EXPONENT_LIMIT}
    # totient subtracts f's exponents from phi(n^2)'s, 2a - 1 = 2^64 - 3 here: only the result is checked.
    assert totient(FactoredInteger(((2, EXPONENT_LIMIT),))).factors == {2: EXPONENT_LIMIT - 1}
    assert totient(FactoredInteger(((3, EXPONENT_LIMIT),))).factors == {2: 1, 3: EXPONENT_LIMIT - 1}
    # Past the limit at two primes, the smaller is named: 2 at 2^63 + 1 from
    # itself and 3 - 1 = 2 on top, 3 at 2^63 + 1.
    with pytest.raises(ExponentOverflowError) as info:
        totient_of_square(FactoredInteger(((2, 2**62 + 1), (3, 2**62 + 1))))
    assert str(info.value) == f"exponent {2**63 + 2} for prime 2 exceeds +/-{EXPONENT_LIMIT}"
    # 5 - 1 = 2^2 and 19 - 1 = 2 * 3^2 push both 2 and 3 past it.
    with pytest.raises(ExponentOverflowError) as info:
        totient(FactoredInteger(((2, EXPONENT_LIMIT), (3, EXPONENT_LIMIT), (5, 1), (19, 1))))
    assert str(info.value) == f"exponent {EXPONENT_LIMIT + 3} for prime 2 exceeds +/-{EXPONENT_LIMIT}"


def test_phi_square_value_fixtures():
    # phi(n^2) as a plain value, through the factored path.
    assert totient_of_square(factor(1)).value() == 1
    assert totient_of_square(factor(10)).value() == 40
    assert totient_of_square(factor(7)).value() == 42


def test_refusal_is_not_cached(monkeypatch, emptied_stores):
    # p - 1 = 2^3 * 3 * 1000003 * 1000033: the cofactor past trial division needs rho.
    p = 24 * 1000003 * 1000033 + 1
    f = factor(p)
    monkeypatch.setattr(primes, "RHO_MAX_ATTEMPTS", 0)
    messages = []
    for _ in range(2):
        with pytest.raises(FactorizationFailure) as info:
            totient_of_square(f)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == (
        "could not split cofactor 1000036000099 within 0 rho attempts"
    )
    assert p not in primes._p_minus_1
    monkeypatch.undo()
    assert totient_of_square(f).factors == {2: 3, 3: 1, 1000003: 1, 1000033: 1, p: 1}


def outcome(thunk):
    """thunk's result, or the message of its ExponentOverflowError."""
    try:
        return thunk()
    except ExponentOverflowError as exc:
        return str(exc)


# Exponents small, or where 2a - 1 reaches the edge of the range.
SIDE = st.dictionaries(
    st.sampled_from(PRIMES_TO_100), st.one_of(st.integers(1, 4), st.integers(2**62 - 2, 2**62 + 2)), max_size=6
).map(FactoredInteger.from_factors)


@settings(max_examples=300, deadline=None)
@given(SIDE)
@example(FactoredInteger(((2, 2**62 + 1), (3, 2**62 + 1))))
def test_totient_times_n_is_totient_of_square(f):
    # phi(n) * n = phi(n^2), refusals included: both name the same least prime and exponent.
    assert outcome(lambda: totient(f) * f) == outcome(lambda: totient_of_square(f))
