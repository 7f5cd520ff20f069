"""Euler's totient and the map n -> phi(n^2), evaluated exactly in factored form.

For n = p1^a1 * ... * pk^ak,

    phi(n)   = prod pi^(ai-1) * (pi - 1)
    phi(n^2) = prod pi^(2*ai-1) * (pi - 1) = n * phi(n)

One accumulator, _totient_exponents, builds phi(n^k) as a plain exponent map;
each prime's (p - 1) is factored once per process (primes._factor_p_minus_1,
an LRU cache bounded like is_prime's). totient and totient_of_square build
their value from it with factored._checked: the primes come from f or from
factorize, so only the exponents, which grow, are range-checked.
"""

from .factored import FactoredInteger, _checked
from .primes import _factor_p_minus_1


def _totient_exponents(f: FactoredInteger, k: int) -> dict[int, int]:
    """phi(n^k) for the n that f denotes, as a prime -> exponent map; zeros and range are unchecked."""
    acc: dict[int, int] = {}
    get = acc.get
    for p, a in f.entries:
        acc[p] = k * a - 1  # f ascends and each p - 1 adds only primes below p, so p is new to acc
        for q, b in _factor_p_minus_1(p):
            acc[q] = get(q, 0) + b
    return acc


def totient(f: FactoredInteger) -> FactoredInteger:
    """phi of the integer denoted by f, fully factored."""
    return _checked(FactoredInteger, _totient_exponents(f, 1))


def totient_of_square(f: FactoredInteger) -> FactoredInteger:
    """phi(n^2) for the integer n denoted by f, fully factored."""
    return _checked(FactoredInteger, _totient_exponents(f, 2))
