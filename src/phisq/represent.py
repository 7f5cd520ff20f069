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
it. Each new exponent is compared with EXPONENT_LIMIT in the loop itself.

verify range-checks phi(m^2) and phi(n^2) (totient's one accumulator), forms their
difference once, and expands common_value from exponents: phi(n^2)'s less q's.
"""

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import prod

from .factored import EXPANSION_BIT_LIMIT, EXPONENT_LIMIT, FactoredInteger, FactoredRational, check_exponent
from .factored import _canonical, _in_range, _merge, _trusted_integer
from .primes import _factor_p_minus_1
from .totient import _totient_exponents


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
            c = 1 if half >= 0 else 1 - half
            m[q], n[q] = c + half, c
        else:
            side, sign = (m, 1) if a > 0 else (n, -1)
            side[q] = (a * sign + 1) // 2
            for p, e in _factor_p_minus_1(q):
                old = rest.get(p, 0)
                s = old - sign * e
                if not -EXPONENT_LIMIT <= s <= EXPONENT_LIMIT:
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
    tm = _in_range(_totient_exponents(m, 2))
    tn = _in_range(_totient_exponents(n, 2))
    lhs = _canonical(FactoredRational, _merge(tm, [(p, -e) for p, e in tn.items()]))
    holds = lhs.entries == r.entries
    common = None
    if holds and sum(e * p.bit_length() for p, e in tn.items()) <= EXPANSION_BIT_LIMIT:
        tn.update((p, tn.get(p, 0) + e) for p, e in r.entries if e < 0)
        assert min(tn.values(), default=0) >= 0  # q | phi(n^2) whenever the ratio holds exactly
        common = prod(p**e for p, e in tn.items())
    return VerificationReport(holds=holds, lhs=lhs, expected=r, common_value=common)
