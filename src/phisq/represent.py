"""Construct (m, n) with phi(m^2)/phi(n^2) = r for any positive rational r.

The construction peels the largest remaining prime q of r, with exponent a,
one step at a time:

  * a even: drop q from r and give q^b to m and q^c to n, where b - c = a/2
    and both are >= 1. The factors (q - 1) introduced by the totients cancel,
    leaving exactly q^a.
  * a odd and positive: give q^((a+1)/2) to m alone; its totient contributes
    q^a * (q - 1), so r is divided by (q - 1) * q^a, which removes q and only
    touches primes below q.
  * a odd and negative: the mirror image, symmetric placement on n. Give
    q^((|a|+1)/2) to n and multiply r by (q - 1) * q^|a|. Every rule commutes
    with inversion, so this is exactly representing 1/r and swapping the pair.

q = 2 needs no rule of its own, because q - 1 = 1; r = 1 gives (1, 1).

The steps run as one loop over a mutable prime -> exponent map, popping primes
in descending order from a max-heap; the primes a step pulls in from q - 1 are
all below q, so the heap order is never violated. m and n grow as plain maps
and become FactoredIntegers once, at the end. depth counts the peeling steps.
Each step eliminates the current largest prime, so depth is at most the number
of primes up to the largest prime of r, and all primes of m*n stay at or below
it.
"""

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .factored import EXPANSION_BIT_LIMIT, FactoredInteger, FactoredRational, _trusted_integer, check_exponent
from .primes import _factor_p_minus_1
from .totient import totient_of_square


@dataclass(frozen=True)
class Representation:
    """Result pair in factored form, with the input ratio echoed back."""

    m: FactoredInteger
    n: FactoredInteger
    ratio: FactoredRational
    depth: int


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking phi(m^2)/phi(n^2) against an expected ratio.

    When the check holds and r = p/q in lowest terms, common_value is the
    shared cofactor with phi(m^2) = p * common_value and
    phi(n^2) = q * common_value (omitted if its expansion would be enormous).
    """

    holds: bool
    lhs: FactoredRational
    expected: FactoredRational
    common_value: int | None = None


def represent(r: FactoredRational) -> Representation:
    """Find (m, n) with phi(m^2)/phi(n^2) = r and all primes of m*n <= max prime of r."""
    rest = dict(r.entries)
    heap = [-p for p in rest]
    heapify(heap)
    m: dict[int, int] = {}
    n: dict[int, int] = {}
    depth = 0
    while heap:
        q = -heappop(heap)
        a = rest.pop(q, 0)
        if a == 0:
            continue  # stale heap entry: the exponent of q cancelled to zero
        depth += 1
        if a % 2 == 0:
            half = a // 2
            c = max(1, 1 - half)
            m[q], n[q] = c + half, c
        else:
            side, sign = (m, 1) if a > 0 else (n, -1)
            side[q] = (abs(a) + 1) // 2
            for p, e in _factor_p_minus_1(q):
                old = rest.get(p, 0)
                s = old - sign * e
                check_exponent(p, s)
                if s == 0:
                    del rest[p]
                else:
                    rest[p] = s
                    if old == 0:
                        heappush(heap, -p)
    # Every prime came from r or from factorize: no need to certify them again.
    return Representation(m=_trusted_integer(m), n=_trusted_integer(n), ratio=r, depth=depth)


def verify(m: FactoredInteger, n: FactoredInteger, r: FactoredRational) -> VerificationReport:
    """Check phi(m^2)/phi(n^2) = r by exact factored arithmetic."""
    tm = totient_of_square(m)
    tn = totient_of_square(n)
    lhs = tm * tn.inverse()
    holds = lhs == r
    common = None
    if holds and tn.bit_size() <= EXPANSION_BIT_LIMIT:
        q = r.denominator().value()
        common, rem = divmod(tn.value(), q)
        assert rem == 0  # q | phi(n^2) whenever the ratio holds exactly
    return VerificationReport(holds=holds, lhs=lhs, expected=r, common_value=common)
