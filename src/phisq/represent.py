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

The steps run as one loop over a mutable prime -> exponent map, taking the
larger of two tops: the end of the ascending list of r's primes, and a max-heap
of the primes r lacks. The primes a step pulls in from q - 1 are all below q, so
the order is never violated. A prime enters the heap once, when it enters the
map; one whose exponent cancels to zero stays there until it is taken, and is
skipped. m and n grow as plain maps and become FactoredIntegers once, at the
end. depth counts the peeling steps. Each step eliminates the current largest
prime, so depth is at most the number of primes up to the largest prime of r,
and all primes of m*n stay at or below it. Each new exponent is compared with
EXPONENT_LIMIT in the loop itself, and each q - 1 is read from primes._p_minus_1.

verify reads phi(m^2)/phi(n^2) from totient._phi_ratio and range-checks only
that ratio: a pair whose totients alone leave the exponent range is answered
whenever the ratio stays in it. A ratio equal to r is answered with r itself,
canonical and in range; any other goes through _checked, whose refusal names
the least prime whose exponent in the ratio leaves the range, with that
exponent (negative when phi(n^2) holds more of that prime). Both results are
named tuples; the report's common_value is expanded when first read, as
prod p^(2b - 1) * (p - 1) over n's primes divided by q, so it factors no p - 1.
"""

from collections import namedtuple
from functools import cached_property
from heapq import heappop, heappush
from math import prod
from operator import countOf

from .factored import EXPANSION_BIT_LIMIT, EXPONENT_LIMIT, FactoredInteger, FactoredRational, check_exponent
from .factored import _canonical, _checked
from .primes import _p_minus_1
from .totient import _phi_ratio


class Representation(namedtuple("Representation", "m n ratio depth")):
    """The pair m, n (FactoredIntegers) for ratio, the input echoed back, and the depth."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "holds lhs expected n")):
    """Outcome of checking phi(m^2)/phi(n^2), computed as lhs, against expected.

    When the check holds and r = p/q in lowest terms, common_value is the
    shared cofactor with phi(m^2) = p * common_value and
    phi(n^2) = q * common_value (None if its expansion would be enormous).
    It is computed from n when first read, and kept in the instance __dict__.
    """

    __setattr__ = FactoredRational.__setattr__  # cached_property writes __dict__ itself

    @cached_property
    def common_value(self) -> int | None:
        if not self.holds:
            return None
        # phi(n^2) = prod p^(2b - 1) * (p - 1) has at most this many bits; no p - 1 is factored.
        n = self.n.entries
        if sum((2 * b - 1) * p.bit_length() + (p - 1).bit_length() for p, b in n) > EXPANSION_BIT_LIMIT:
            return None
        q = self.expected.denominator().value()
        common, rem = divmod(prod(p ** (2 * b - 1) * (p - 1) for p, b in n), q)
        assert rem == 0  # q | phi(n^2) whenever the ratio holds exactly
        return common


def represent(r: FactoredRational) -> Representation:
    """Find (m, n) with phi(m^2)/phi(n^2) = r and all primes of m*n <= max prime of r."""
    rest = dict(r.entries)
    get, p_minus_1 = rest.get, _p_minus_1
    low, high = -EXPONENT_LIMIT, EXPONENT_LIMIT
    primes = list(rest)  # ascending, as r's entries are
    new: list[int] = []  # a max-heap of negated primes that r lacks, brought in by some q - 1
    m: dict[int, int] = {}
    n: dict[int, int] = {}
    depth = 0
    while primes or new:
        q = -heappop(new) if new and (not primes or -new[0] > primes[-1]) else primes.pop()
        a = rest[q]  # q stays in rest: no later step reaches a prime this large
        if a == 0:
            continue  # the exponent of q cancelled to zero
        depth += 1
        if a % 2 == 0:
            half = a // 2
            c = 1 if half >= 0 else 1 - half
            m[q], n[q] = c + half, c
            continue
        if a > 0:
            m[q] = (a + 1) // 2
            sign = -1  # r is divided by (q - 1) * q^a
        else:
            n[q] = (1 - a) // 2
            sign = 1  # r is multiplied by (q - 1) * q^|a|
        for p, e in p_minus_1[q]:
            s = get(p)
            if s is None:
                heappush(new, -p)  # once: p stays in rest, even at 0
                s = 0
            s += sign * e
            if not low <= s <= high:
                check_exponent(p, s)
            rest[p] = s
    # Canonical as built: every prime came from r or from factorize, each was popped once in
    # descending order, and every exponent is at most 2^62, as r's are within EXPONENT_LIMIT.
    m_f = _canonical(FactoredInteger, tuple(reversed(m.items())))
    n_f = _canonical(FactoredInteger, tuple(reversed(n.items())))
    return tuple.__new__(Representation, (m_f, n_f, r, depth))


def verify(m: FactoredInteger, n: FactoredInteger, r: FactoredRational) -> VerificationReport:
    """Check phi(m^2)/phi(n^2) = r by exact factored arithmetic."""
    acc = _phi_ratio(m.entries, n.entries)
    # r holds when each of its exponents is matched and no other prime is left nonzero.
    if dict(r.entries).items() <= acc.items() and len(acc) - countOf(acc.values(), 0) == len(r.entries):
        lhs = r if type(r) is FactoredRational else _canonical(FactoredRational, r.entries)
    else:
        lhs = _checked(FactoredRational, acc)
    return tuple.__new__(VerificationReport, (lhs.entries == r.entries, lhs, r, n))
