"""Euler's totient and the map n -> phi(n^2), evaluated exactly in factored form.

For n = p1^a1 * ... * pk^ak,

    phi(n)   = prod pi^(ai-1) * (pi - 1)
    phi(n^2) = prod pi^(2*ai-1) * (pi - 1) = n * phi(n)

Results come back fully factored: each prime's (p - 1) is factored once per
process (primes._factor_p_minus_1, an LRU cache bounded like is_prime's), so
the output is a canonical FactoredInteger ready for further exponent
arithmetic. Its primes come from f or from factorize, so they are not
certified again; only the exponents, which grow, are checked.
"""

from .factored import FactoredInteger, _trusted_integer
from .primes import _factor_p_minus_1


def _accumulate(acc: dict[int, int], p: int, e: int) -> None:
    if e:
        acc[p] = acc.get(p, 0) + e
    for q, b in _factor_p_minus_1(p):
        acc[q] = acc.get(q, 0) + b


def totient(f: FactoredInteger) -> FactoredInteger:
    """phi of the integer denoted by f, fully factored."""
    acc: dict[int, int] = {}
    for p, a in f.entries:
        _accumulate(acc, p, a - 1)
    return _trusted_integer(acc)


def totient_of_square(f: FactoredInteger) -> FactoredInteger:
    """phi(n^2) for the integer n denoted by f, fully factored."""
    acc: dict[int, int] = {}
    for p, a in f.entries:
        _accumulate(acc, p, 2 * a - 1)
    return _trusted_integer(acc)
