"""Independent brute-force checks for the constructive algorithm.

Everything here works on plain integers with a totient sieve, deliberately
avoiding the factored-arithmetic path it is meant to cross-check.

The sequence, the search and the injectivity scan all read one table per
process, v[k] = phi(k^2) = k * phi(k) for k = 0..L, kept beside phi(0..L).  A
request past L extends both by the values phi(L+1..limit) alone, in place while
limit <= 1 << 16 (the bound of the primes caches); a larger request extends
copies, which serve that one request and are dropped.  Each request reads only
v[1..limit] of its own limit (the search's index stops at its answer's top), so
a larger kept table never changes an answer.  The plain sequence text is
rendered once per process in the same way: the decimal lines of v[1..K],
K <= 1 << 16, are kept, grown by the values they lack, and sliced per request.
"""

from array import array
from collections import namedtuple
from itertools import accumulate, islice
from math import isqrt
from operator import mul
from random import Random

from .errors import ParseError, UnsupportedScaleError, shown
from .factored import FactoredRational
from .primes import primes_up_to


# Sieves past this many values are refused before anything is allocated: a
# search or sequence peaks at ~125 bytes per value (tracemalloc, 10^6 values,
# CPython 3.11), so 10^7 already takes ~1.3 GB.
_SIEVE_CAP = 10**7

# The largest L whose table v[0..L] and phi(0..L) outlive the request that built them.
_KEEP_LIMIT = 1 << 16
_table: list[int] = [0]
_phi: list[int] = [0]
# The rendering "\n" + "\n".join(str(v[k]) for k = 1..K), and _digits[k], the digits in
# its first k lines (summed in C by accumulate): line k ends at offset _digits[k] + k.
_text = ""
_digits = array("I", [0])


def sieve_totients(limit: int, phi: list[int] | None = None) -> list[int]:
    """phi(0..limit), by extending phi = [phi(0), ..., phi(L)] in place (a fresh
    list if phi is None) with phi(L+1..limit) alone; phi is returned as is if
    L >= limit.

    Each new j > 1 is either prime, phi(j) = j - 1, or j = m * p with p its
    least prime factor, and then phi(j) = phi(m) * (p if p | m else p - 1),
    where m < j is already known.  Least factors come from slice writes: every
    d <= isqrt(limit) is written over its multiples in descending order, so
    the last d to write j is its least prime factor, and a j no d writes is
    prime.
    """
    if limit > _SIEVE_CAP:
        raise UnsupportedScaleError(f"a totient sieve to {shown(limit, 'limit')} exceeds the cap of {_SIEVE_CAP}")
    phi = [] if phi is None else phi
    phi += range(len(phi), min(limit + 1, 2))  # phi(0) = 0, phi(1) = 1
    lo = len(phi)
    if lo > limit:
        return phi
    least = [0] * (limit + 1 - lo)  # least[j - lo]: j's least prime factor, 0 if j is prime
    for d in range(isqrt(limit), 1, -1):
        start = -lo % d
        least[start::d] = [d] * len(range(start, len(least), d))
    append = phi.append
    for j, p in zip(range(lo, limit + 1), least):
        if p:
            m = j // p
            append(phi[m] * (p - 1 if m % p else p))
        else:
            append(j - 1)
    return phi


def _phi_squares(limit: int) -> list[int]:
    """The table v[0..L], L >= limit >= 1, with v[k] = phi(k^2) = k * phi(k);
    callers must not mutate it.  Sieves, from the kept phi on, only when limit
    is past the kept table."""
    global _phi
    if limit < 1:
        raise ParseError(f"limit must be >= 1, got {shown(limit, 'number')}")
    if limit < len(_table):
        return _table
    if limit <= _KEEP_LIMIT:
        phi = _phi = sieve_totients(limit, _phi)
        v = _table
    else:
        phi = sieve_totients(limit, _phi[:])
        v = _table[:]
    v += map(mul, range(len(v), limit + 1), islice(phi, len(v), limit + 1))
    return v


def phi_square_sequence(limit: int) -> list[int]:
    """[phi(1^2), phi(2^2), ..., phi(limit^2)], i.e. k * phi(k) for k = 1..limit."""
    return _phi_squares(limit)[1 : limit + 1]


def phi_square_text(limit: int) -> str:
    """The lines str(phi(k^2)) for k = 1..limit, joined by newlines: a slice of
    the rendering kept up to _KEEP_LIMIT, then the values past it, if any."""
    global _text
    v = _phi_squares(limit)
    stop = min(limit, _KEEP_LIMIT)
    if len(_digits) <= stop:
        lines = [str(x) for x in v[len(_digits) : stop + 1]]
        _digits[-1:] = array("I", accumulate(map(len, lines), initial=_digits[-1]))
        _text += "\n" + "\n".join(lines)
    return "\n".join([_text[1 : _digits[stop] + stop], *[str(x) for x in v[stop + 1 : limit + 1]]])


def injectivity_scan(limit: int) -> tuple[int, int] | None:
    """First pair (m, n), m < n <= limit, with phi(m^2) = phi(n^2), else None."""
    if limit < 2:
        raise ParseError(f"limit must be >= 2, got {shown(limit, 'number')}")
    v = _phi_squares(limit)
    index: dict[int, int] = {}
    for k in range(1, limit + 1):
        if (j := index.setdefault(v[k], k)) != k:
            return j, k
    return None


class SearchResult(namedtuple("SearchResult", "found m n bound")):
    """Minimal verifying pair m, n under a bound, or an explicit miss with m = n = None."""

    __slots__ = ()


def brute_force_minimal(r: FactoredRational, bound: int) -> SearchResult:
    """Search m, n <= bound for phi(m^2)/phi(n^2) = r = p/q: an O(bound) sieve, then O(max(m, n)) steps.

    Pairs are taken in increasing (max(m, n), m, n) order, so the first hit
    is the minimal one.  One loop over top indexes v[top] = phi(top^2) by
    value, then looks up m = v^-1(v[top] * p / q) with m < top and
    n = v^-1(v[top] * q / p) with n <= top; a sieved miss takes the bound's
    steps.  The index is exact only if k -> phi(k^2) is injective (it is:
    OEIS A002618), checked as each k is indexed: a collision at or below the
    answer's top raises RuntimeError naming both k.

    A hit has p | phi(m^2) and q | phi(n^2), both at most bound^2, and every
    prime of phi(k^2) = k * phi(k) is at most k.  So r misses, unexpanded and
    unsieved, if a prime of r exceeds the bound or a side passes 4 * bits(bound)
    bits (a prime's bit length is at most twice its log2); neither rule implies
    the other.  A bound past the cap is refused by the sieve all the same.
    """
    if bound < 1:
        raise ParseError(f"bound must be >= 1, got {shown(bound, 'number')}")
    num, den = r.numerator(), r.denominator()
    wide = max(num.bit_size(), den.bit_size()) > 4 * bound.bit_length()
    if bound <= _SIEVE_CAP and (wide or r.entries and r.entries[-1][0] > bound):
        return SearchResult(found=False, m=None, n=None, bound=bound)
    v = _phi_squares(bound)
    p, q = num.value(), den.value()
    index: dict[int, int] = {}
    # p and q are coprime, so q divides v[top] * p exactly when it divides v[top].
    for top in range(1, bound + 1):
        w = v[top]
        if (j := index.setdefault(w, top)) != top:
            raise RuntimeError(f"phi(k^2) collides at k = {j} and k = {top}")
        if not w % q and (m := index.get(w // q * p, top)) < top:  # the pair (m, top)
            return SearchResult(found=True, m=m, n=top, bound=bound)
        if not w % p and (n := index.get(w // p * q, top + 1)) <= top:  # the pair (top, n)
            return SearchResult(found=True, m=top, n=n, bound=bound)
    return SearchResult(found=False, m=None, n=None, bound=bound)


def random_rational(rng: Random, max_prime: int = 97, max_exponent: int = 6) -> FactoredRational:
    """Random factored rational for round-trip suites: a few distinct primes
    <= max_prime with nonzero exponents in [-max_exponent, max_exponent]."""
    pool = primes_up_to(max_prime)
    k = rng.randint(0, min(10, len(pool)))
    chosen = rng.sample(pool, k)
    nonzero = [e for e in range(-max_exponent, max_exponent + 1) if e != 0]
    return FactoredRational.from_factors({p: rng.choice(nonzero) for p in chosen})
