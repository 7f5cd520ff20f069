"""Property-based checks of factorization (skipped without hypothesis)."""

from math import prod
from random import Random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from phisq import primes  # noqa: E402
from phisq.primes import (  # noqa: E402
    PRIMALITY_BOUND,
    TRIAL_DIVISION_BOUND,
    _p_minus_1,
    factorize,
    is_prime,
    primes_up_to,
)
from test_primes import all_bases_is_prime, next_prime, reference_factorize  # noqa: E402


def _primes(lo: int, hi: int):
    return st.integers(min_value=lo, max_value=hi).map(next_prime)


# n log-uniform below the bound: a bit length first, then n of that length.
BELOW_BOUND = st.integers(1, PRIMALITY_BOUND.bit_length()).flatmap(
    lambda b: st.integers(1 << (b - 1), min(1 << b, PRIMALITY_BOUND) - 1)
)


@settings(max_examples=1000, deadline=None)
@given(BELOW_BOUND)
@example(2**61 - 1)
@example(PRIMALITY_BOUND - 2)
def test_is_prime_agrees_with_all_13_bases(n):
    assert is_prime(n) == all_bases_is_prime(n)


# Primes below the trial-division bound with multiplicities, and at most two
# primes above it, one of up to 2^45 and one of up to 2^30: rho then splits the
# cofactor quickly and it stays below the exact-primality bound.
SMALL = st.dictionaries(_primes(2, 999_983), st.integers(min_value=1, max_value=4), max_size=6)
LARGE = st.tuples(
    st.lists(_primes(TRIAL_DIVISION_BOUND, 2**45 - 2**10), max_size=1),
    st.lists(_primes(TRIAL_DIVISION_BOUND, 2**30), max_size=1),
).map(lambda pair: pair[0] + pair[1])


@settings(max_examples=200, deadline=None)
@given(SMALL, LARGE)
def test_factorize_returns_the_multiset_it_was_given(small, large):
    expected = dict(small)
    for p in large:
        expected[p] = expected.get(p, 0) + 1
    n = 1
    for p, e in expected.items():
        n *= p**e
    assert factorize(n) == dict(sorted(expected.items()))


# Products of primes below 2^16, each to a power of 1..6, and at most one prime
# of 2^30..2^45: every prime below 2^16 is found by one stage's gcd and split.
SMOOTH = st.dictionaries(st.sampled_from(primes_up_to(1 << 16)), st.integers(min_value=1, max_value=6), max_size=8)


@settings(max_examples=80, deadline=None)
@given(SMOOTH, st.none() | _primes(2**30, 2**45 - 2**10))
@example({1021: 6, 1031: 1, 1033: 2, 1039: 3}, None)
@example({p: 6 for p in (2, 3, 5, 7, 11, 13, 17, 19)}, 2**40 + 15)
def test_factorize_equals_full_trial_division(smooth, large):
    n = prod(p**e for p, e in smooth.items()) * (large or 1)
    assert factorize(n) == reference_factorize(n)


# A few primes of 2^36..2^60, drawn once from a fixed seed: their p - 1 reach
# the block stage of trial division, and one of them needs rho.
_RNG = Random(20201)
LARGE_PRIMES = [next_prime(_RNG.randrange(2**36, 2**60)) for _ in range(6)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(primes_up_to(10**5)) | st.sampled_from(LARGE_PRIMES))
@example(2)
def test_factor_p_minus_1_is_factorize_of_p_minus_1(p):
    assert _p_minus_1[p] == tuple(factorize(p - 1).items())
    assert _p_minus_1[p] is _p_minus_1[p]  # stored on the first read


def test_factor_p_minus_1_cache_is_bounded_like_is_prime(monkeypatch):
    # One bound for both; with it patched to 4, the memo empties itself each time it holds 4.
    assert is_prime.cache_info().maxsize == primes._CACHE_SIZE
    monkeypatch.setattr(primes, "_CACHE_SIZE", 4)
    _p_minus_1.clear()
    sizes = []
    for p in primes_up_to(30):
        assert _p_minus_1[p] == tuple(factorize(p - 1).items())
        sizes.append(len(_p_minus_1))
    assert sizes == [1, 2, 3, 4, 1, 2, 3, 4, 1, 2]
    assert list(_p_minus_1) == [23, 29]
