"""Acceptance suite: every criterion asserted at zero tolerance, with the
stated runtime budgets.  Each test prints one PASS line on success (run with
-s to see them); a failed assert is the FAIL line.

Criteria 3, 4 and 8 share one randomized suite of 1000 ratios (primes <= 97,
exponents in [-6, 6], fixed seed), built once per session.
"""

import time
from math import gcd
from random import Random

import pytest

from phisq.factored import factor, parse_rational
from phisq.oracle import (
    brute_force_minimal,
    injectivity_scan,
    phi_square_sequence,
    random_rational,
)
from phisq.primes import primes_up_to
from phisq.represent import represent, verify
from phisq.totient import totient_of_square

SUITE_SEED = 97_2026
SUITE_SIZE = 1000


def euler_phi(n):
    """Independent trial-division totient, the oracle side of the checks."""
    out = n
    t = n
    p = 2
    while p * p <= t:
        if t % p == 0:
            while t % p == 0:
                t //= p
            out -= out // p
        p += 1
    if t > 1:
        out -= out // t
    return out


@pytest.fixture(scope="module")
def random_suite():
    """1000 ratios with their representations and verification reports."""
    rng = Random(SUITE_SEED)
    cases = [random_rational(rng, max_prime=97, max_exponent=6) for _ in range(SUITE_SIZE)]
    start = time.perf_counter()
    results = []
    for r in cases:
        rep = represent(r)
        results.append((r, rep, verify(rep.m, rep.n, r)))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_known_pair_19_47():
    start = time.perf_counter()
    m = factor(39330)
    n = factor(55836)
    report = verify(m, n, parse_rational("19/47"))
    elapsed = time.perf_counter() - start
    assert report.holds
    assert report.common_value == 19673280
    assert m.factors == {2: 1, 3: 2, 5: 1, 19: 1, 23: 1}
    assert n.factors == {2: 2, 3: 3, 11: 1, 47: 1}
    assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"
    print(f"\ncriterion 1 (pair 39330/55836 for 19/47, {elapsed * 1000:.2f} ms): PASS")


def test_criterion_2_known_pair_47_58():
    start = time.perf_counter()
    report = verify(factor(14476), factor(20010), parse_rational("47/58"))
    elapsed = time.perf_counter() - start
    assert report.holds
    assert report.common_value == 1700160
    assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"
    print(f"\ncriterion 2 (pair 14476/20010 for 47/58, {elapsed * 1000:.2f} ms): PASS")


def test_criterion_3_round_trip_1000(random_suite):
    results, elapsed = random_suite
    holding = sum(1 for _, _, report in results if report.holds)
    assert holding == SUITE_SIZE
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    print(f"\ncriterion 3 (round-trip {holding}/{SUITE_SIZE}, {elapsed:.2f} s): PASS")


def test_criterion_4_prime_bound(random_suite):
    results, _ = random_suite
    for r, rep, _ in results:
        primes_of_mn = set(rep.m.factors) | set(rep.n.factors)
        if r.is_one:
            assert rep.m.is_one and rep.n.is_one
        else:
            top = r.entries[-1][0]
            assert all(p <= top for p in primes_of_mn), (str(r), sorted(primes_of_mn))
    rep_one = represent(parse_rational("1"))
    assert rep_one.m.is_one and rep_one.n.is_one
    print(f"\ncriterion 4 (prime bound in {SUITE_SIZE}/{SUITE_SIZE} cases, r=1 -> (1,1)): PASS")


def test_criterion_5_square_identity_to_1e4():
    start = time.perf_counter()
    for n in range(1, 10**4 + 1):
        assert totient_of_square(factor(n)).value() == n * euler_phi(n), n
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f} s"
    print(f"\ncriterion 5 (phi(n^2) = n*phi(n) for n <= 10^4, {elapsed:.2f} s): PASS")


def test_criterion_6_injectivity_to_1e5():
    start = time.perf_counter()
    collision = injectivity_scan(10**5)
    elapsed = time.perf_counter() - start
    assert collision is None
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    print(f"\ncriterion 6 (no phi(n^2) collision below 10^5, {elapsed:.2f} s): PASS")


def test_criterion_7_oracle_agreement():
    start = time.perf_counter()
    found = missed = 0
    for p in range(1, 11):
        for q in range(1, 11):
            if gcd(p, q) != 1:
                continue
            r = parse_rational(f"{p}/{q}")
            result = brute_force_minimal(r, 200)
            if result.found:
                found += 1
                assert verify(factor(result.m), factor(result.n), r).holds, (p, q)
            else:
                missed += 1
            rep = represent(r)
            assert verify(rep.m, rep.n, r).holds, (p, q)  # same ratio either way
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    print(
        f"\ncriterion 7 (oracle vs construction on {found + missed} reduced "
        f"fractions: {found} found, {missed} none under 200, {elapsed:.2f} s): PASS"
    )


def test_criterion_8_recursion_depth(random_suite):
    results, _ = random_suite
    primes = primes_up_to(97)
    for r, rep, _ in results:
        if r.is_one:
            assert rep.depth == 0
        else:
            top = r.entries[-1][0]
            pi_top = sum(1 for p in primes if p <= top)
            assert rep.depth <= pi_top, (str(r), rep.depth, pi_top)
    print(f"\ncriterion 8 (depth <= pi(largest prime) in all {SUITE_SIZE} cases): PASS")


def test_criterion_9_sequence():
    assert phi_square_sequence(10) == [1, 2, 6, 8, 20, 12, 42, 32, 54, 40]
    sieved = phi_square_sequence(10**4)
    per_value = [totient_of_square(factor(k)).value() for k in range(1, 10**4 + 1)]
    assert sieved == per_value
    print("\ncriterion 9 (sequence fixture and sieve = per-value to 10^4): PASS")
