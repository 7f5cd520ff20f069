"""Euler's totient and the map n -> phi(n^2), evaluated exactly in factored form.

For n = p1^a1 * ... * pk^ak,

    phi(n)   = prod pi^(ai-1) * (pi - 1)
    phi(n^2) = prod pi^(2*ai-1) * (pi - 1) = n * phi(n)

One accumulator, _phi_ratio, builds phi(m^2)/phi(n^2) as a plain exponent map
in one pass: a prime p on one side, with exponent a, adds +/-(2a - 1) to p and
+/- the factors of p - 1 (read from primes._p_minus_1); one on both sides,
a in m and b in n, adds only 2(a - b), as its p - 1 factors cancel unread.
totient_of_square reads the map with n = 1, totient less f's exponents (phi(n)
= phi(n^2)/n), represent.verify its pair's; each range-checks only the result.
"""

from .factored import FactoredInteger, _checked
from .primes import _p_minus_1


def _phi_ratio(m_entries, n_entries) -> dict[int, int]:
    """phi(m^2)/phi(n^2) for the entries of m and n, as a prime -> exponent map; zeros and range are unchecked."""
    acc: dict[int, int] = {}
    get = acc.get
    rest = dict(n_entries)
    pop = rest.pop
    for p, a in m_entries:
        b = pop(p, 0)
        # m ascends and each p - 1 adds only primes below p, so p is new to acc.
        if b:
            acc[p] = 2 * (a - b)
        else:
            acc[p] = 2 * a - 1
            for q, c in _p_minus_1[p]:
                acc[q] = get(q, 0) + c
    for p, b in rest.items():
        acc[p] = get(p, 0) - 2 * b + 1
        for q, c in _p_minus_1[p]:
            acc[q] = get(q, 0) - c
    return acc


def totient(f: FactoredInteger) -> FactoredInteger:
    """phi of the integer denoted by f, fully factored."""
    acc = _phi_ratio(f.entries, ())
    for p, a in f.entries:
        acc[p] -= a
    return _checked(FactoredInteger, acc)


def totient_of_square(f: FactoredInteger) -> FactoredInteger:
    """phi(n^2) for the integer n denoted by f, fully factored."""
    return _checked(FactoredInteger, _phi_ratio(f.entries, ()))
