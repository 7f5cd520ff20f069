import random

import pytest

from phisq.errors import ExponentOverflowError
from phisq.factored import (
    EXPONENT_LIMIT,
    FactoredInteger,
    FactoredRational,
    factor,
    parse_rational,
)
from phisq.oracle import random_rational
from phisq.primes import prime_pi, primes_up_to
from phisq.represent import represent, verify
from phisq.totient import totient_of_square


def euler_phi(n):
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


def phi_square(n):
    return n * euler_phi(n)


# --- powers of two: the generic rules, with q - 1 = 1 ---

def represent_two_to(a):
    return represent(FactoredRational.from_factors({2: a} if a else {}))


def test_power_of_two_fixtures():
    for a, pair, depth in [(2, (4, 2), 1), (-1, (1, 2), 1), (0, (1, 1), 0)]:
        rep = represent_two_to(a)
        assert (rep.m.value(), rep.n.value()) == pair, a
        assert rep.depth == depth, a
    assert phi_square(4) * 1 == phi_square(2) * 4  # phi(16)/phi(4) = 4
    assert phi_square(1) * 2 == phi_square(2) * 1  # phi(1)/phi(4) = 1/2


def test_power_of_two_sweep_against_direct_phi():
    for a in range(-12, 13):
        rep = represent_two_to(a)
        assert rep.depth == (1 if a else 0), a
        for f in (rep.m, rep.n):
            assert set(f.factors) <= {2}, a
        num, den = (2**a, 1) if a >= 0 else (1, 2**-a)
        assert phi_square(rep.m.value()) * den == phi_square(rep.n.value()) * num, a


# --- the construction ---

def test_represent_fixtures():
    one = represent(FactoredRational())
    assert one.m.value() == 1 and one.n.value() == 1 and one.depth == 0

    three = represent(parse_rational("3"))
    assert (three.m.value(), three.n.value()) == (3, 2)

    two = represent(parse_rational("2"))
    assert (two.m.value(), two.n.value()) == (2, 1)


def test_represent_19_47_canonical_output():
    # Regression pin for the fixed (b, c) choices; verified by hand-tracing
    # the largest-prime elimination: 47 -> 23 -> 19 -> 11 -> 5 -> 3 -> 2.
    rep = represent(parse_rational("19/47"))
    assert rep.m.value() == 13110
    assert rep.n.value() == 18612
    assert rep.depth == 7
    assert verify(rep.m, rep.n, rep.ratio).holds


def test_represent_small_ratios_against_direct_phi():
    for p in range(1, 12):
        for q in range(1, 12):
            r = parse_rational(f"{p}/{q}")
            rep = represent(r)
            m, n = rep.m.value(), rep.n.value()
            assert phi_square(m) * q == phi_square(n) * p, (p, q)


def test_round_trip_randomized():
    rng = random.Random(29)
    for _ in range(300):
        r = random_rational(rng)
        rep = represent(r)
        assert verify(rep.m, rep.n, r).holds
        assert rep.ratio == r


def test_prime_bound_and_depth():
    rng = random.Random(31)
    for _ in range(300):
        r = random_rational(rng)
        rep = represent(r)
        primes_of_mn = set(rep.m.factors) | set(rep.n.factors)
        if r.is_one:
            assert not primes_of_mn and rep.depth == 0
        else:
            top = r.entries[-1][0]
            assert all(p <= top for p in primes_of_mn)
            assert rep.depth <= prime_pi(top)


def test_inversion_symmetry_on_odd_negative_branch():
    cases = [
        {3: -1},
        {5: -3},
        {2: 1, 5: -3},
        {2: -2, 3: 4, 7: -5},
        {19: 1, 47: -1},
    ]
    for factors in cases:
        r = FactoredRational.from_factors(factors)
        top_exp = r.entries[-1][1]
        assert top_exp < 0 and top_exp % 2 != 0  # the branch under test
        rep = represent(r)
        flipped = represent(r.inverse())
        assert rep.m == flipped.n
        assert rep.n == flipped.m
        assert rep.depth == flipped.depth


def test_represent_is_deterministic():
    r = parse_rational("2^3 * 3^-2 * 53^5")
    assert represent(r) == represent(r)


def test_exponent_overflow_propagates():
    r = FactoredRational.from_factors({2: -EXPONENT_LIMIT, 3: 1})
    with pytest.raises(ExponentOverflowError):
        represent(r)
    # 7^1 divides r by 6 * 7, pushing 3 from -EXPONENT_LIMIT past the limit.
    r = parse_rational(f"7^1 * 3^-{EXPONENT_LIMIT}")
    with pytest.raises(ExponentOverflowError):
        represent(r)


# --- verification ---

def test_verify_known_pairs():
    report = verify(factor(39330), factor(55836), parse_rational("19/47"))
    assert report.holds
    assert report.common_value == 19673280
    assert report.lhs == report.expected

    report = verify(factor(14476), factor(20010), parse_rational("47/58"))
    assert report.holds
    assert report.common_value == 1700160


def test_verify_trivial_and_negative():
    one = FactoredInteger()
    assert verify(one, one, FactoredRational()).holds

    report = verify(factor(2), one, parse_rational("3"))
    assert not report.holds
    assert report.common_value is None
    assert report.lhs == parse_rational("2")


def test_verify_common_value_scales_both_sides():
    rng = random.Random(37)
    for _ in range(50):
        r = random_rational(rng, max_prime=31, max_exponent=3)
        rep = represent(r)
        report = verify(rep.m, rep.n, r)
        assert report.holds
        p = r.numerator().value()
        q = r.denominator().value()
        assert report.common_value * p == totient_of_square(rep.m).value()
        assert report.common_value * q == totient_of_square(rep.n).value()


# --- deep inputs: one step per prime, no recursion limit ---

def alternating_product(limit):
    """All primes <= limit, exponents cycling 1, -2, 3, -1, 2, -3."""
    return FactoredRational.from_factors(
        {p: (-1) ** i * (i % 3 + 1) for i, p in enumerate(primes_up_to(limit))}
    )


@pytest.mark.parametrize("limit", [20_000, 100_000])
def test_deep_products_construct_and_verify(limit):
    r = alternating_product(limit)
    rep = represent(r)
    assert verify(rep.m, rep.n, r).holds
    top = r.entries[-1][0]
    assert all(p <= top for p in set(rep.m.factors) | set(rep.n.factors))
    assert rep.depth <= prime_pi(top)
