"""Independent brute-force checks for the constructive algorithm.

Everything here works on plain integers with a totient sieve, deliberately
avoiding the factored-arithmetic path it is meant to cross-check.

The sequence, the search and the injectivity scan all read one table per
process, v[k] = phi(k^2) = k * phi(k) for k = 0..L, kept beside phi(0..L).  A
request past L extends both by the values phi(L+1..limit) alone, in place while
limit <= 1 << 16 (the bound of the primes caches); a larger request extends
copies, which serve that one request and are dropped.  The search's value
index v[k] -> k is kept beside the kept table, grown to the largest stage a
search has reached and never past its first collision.  Each request reads
only v[1..limit] of its own limit, and the index only up to its stage, so a
larger kept table or index never changes an answer.  The plain sequence text is
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
    index = _Index(_phi_squares(limit))
    index.grow(limit)
    return index.collision


class SearchResult(namedtuple("SearchResult", "found m n bound")):
    """Minimal verifying pair m, n under a bound, or an explicit miss with m = n = None."""

    __slots__ = ()


class _Index(dict):
    """The value index v[k] -> k of the table v for k = 1..len(self), grown in C.
    It stops before the first k whose value an earlier j holds, and keeps that
    pair as collision = (j, k)."""

    collision: tuple[int, int] | None = None

    def __init__(self, v: list[int]):
        self.v = v

    def grow(self, limit: int) -> None:
        n = len(self)
        if self.collision or limit <= n:
            return
        self.update(zip(islice(self.v, n + 1, limit + 1), range(n + 1, limit + 1)))
        if len(self) < limit:  # update kept the last k of a repeated value: redo by hand to name the first
            self.clear()
            for k in range(1, limit + 1):
                if (j := self.setdefault(self.v[k], k)) != k:
                    self.collision = (j, k)
                    return


# The search's index of the kept table, grown with it; a new table starts a new one.
_index = None


def _candidates(v: list[int], x: int, ell: int, limit: int) -> list[int]:
    """The k <= limit with x | v[k], in no order, for ell the largest prime of x
    (1 if x = 1): multiples of ell or of a prime s = 1 (mod 2 * ell), v[s] = s * (s - 1).
    For ell = 2 that is every odd prime, and for 3 and 5 a filter of every k is faster."""
    if ell <= 5:
        ks = range(1, limit + 1)
    else:
        ks = set(range(ell, limit + 1, ell))
        for s in range(2 * ell + 1, limit + 1, 2 * ell):
            if v[s] == s * (s - 1):
                ks.update(range(s, limit + 1, s))
    return [k for k in ks if not v[k] % x]


def brute_force_minimal(r: FactoredRational, bound: int) -> SearchResult:
    """Search m, n <= bound for phi(m^2)/phi(n^2) = r = p/q: an O(bound) sieve, then one side's candidates.

    With v[k] = phi(k^2) = k * phi(k), a pair has v[m] * q = v[n] * p, so
    p | v[m] and q | v[n] (p, q coprime).  A prime ell | v[k] divides k or
    s - 1 for a prime s | k, as phi(k) = prod s^(a-1) * (s - 1) over s^a || k.
    So the search walks the side x whose largest prime ell is the larger, over
    the multiples of ell and of primes s = 1 (mod ell) only, about
    L * (1 + ln ln L) / ell of the k <= L; it keeps the k with x | v[k] and
    looks up each one's partner in a value index.  Stages L = 64, 128, ... run
    up to the bound, and the first with a pair answers the least in
    (max(m, n), m, n) order, as it sees every pair with m, n <= L.

    The index of the kept table is kept beside it; a copy past the kept bound
    gets its own, grown with the stages.  It is exact only if k -> phi(k^2)
    is injective (it is: OEIS A002618), checked as each k is indexed: the
    first collision (j, k) raises RuntimeError if and only if k is at or below
    the answer's top, or at or below the bound on a miss.

    A hit has p | phi(m^2) and q | phi(n^2), both at most bound^2, and every
    prime of phi(k^2) = k * phi(k) is at most k.  So r misses, unexpanded and
    unsieved, if a prime of r exceeds the bound or a side passes 4 * bits(bound)
    bits (a prime's bit length is at most twice its log2); neither rule implies
    the other.  A bound past the cap is refused by the sieve all the same.
    """
    global _index
    if bound < 1:
        raise ParseError(f"bound must be >= 1, got {shown(bound, 'number')}")
    num, den = r.numerator(), r.denominator()
    wide = max(num.bit_size(), den.bit_size()) > 4 * bound.bit_length()
    if bound <= _SIEVE_CAP and (wide or r.entries and r.entries[-1][0] > bound):
        return SearchResult(found=False, m=None, n=None, bound=bound)
    v = _phi_squares(bound)
    p, q = num.value(), den.value()
    index = _index if _index is not None and _index.v is v else _Index(v)
    if v is _table:
        _index = index
    largest = {e > 0: b for b, e in r.entries}  # each side's largest prime, as the entries ascend
    walk_p = largest.get(True, 1) > largest.get(False, 1)
    x, y, ell = (p, q, largest.get(True, 1)) if walk_p else (q, p, largest.get(False, 1))
    top = 0
    while top < bound:
        top = min(max(2 * top, 64), bound)
        index.grow(top)
        j, c = index.collision or (0, bound + 1)
        limit = min(top, c - 1)  # the index is exact below its collision
        hits = [(k, i) for k in _candidates(v, x, ell, limit) if (i := index.get(v[k] // x * y, limit + 1)) <= limit]
        if hits:
            m, n = min(hits if walk_p else [(i, k) for k, i in hits], key=lambda mn: (max(mn), mn))
            return SearchResult(found=True, m=m, n=n, bound=bound)
        if top >= c:
            raise RuntimeError(f"phi(k^2) collides at k = {j} and k = {c}")
    return SearchResult(found=False, m=None, n=None, bound=bound)


def random_rational(rng: Random, max_prime: int = 97, max_exponent: int = 6) -> FactoredRational:
    """Random factored rational for round-trip suites: a few distinct primes
    <= max_prime with nonzero exponents in [-max_exponent, max_exponent]."""
    pool = primes_up_to(max_prime)
    k = rng.randint(0, min(10, len(pool)))
    chosen = rng.sample(pool, k)
    nonzero = [e for e in range(-max_exponent, max_exponent + 1) if e != 0]
    return FactoredRational.from_factors({p: rng.choice(nonzero) for p in chosen})
