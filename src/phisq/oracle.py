"""Independent brute-force checks for the constructive algorithm.

Everything here works on plain integers with a totient sieve, deliberately
avoiding the factored-arithmetic path it is meant to cross-check.

The sequence, the search and the injectivity scan all read one _Table per
process: phi, v[k] = phi(k^2) = k * phi(k), the value index v[k] -> k and the
decimal lines of v.  Each part grows by the values it lacks, in place while a
request's limit is at most _KEEP_LIMIT (README, "Per-process stores"); a larger
request builds a table of its own from nothing, which serves it alone, shares
no list with the kept one and renders no text.  A request reads v and a
collision only up to its own limit, so what ran before never changes an answer.

Every function here is safe to call from threads: a request on the kept table
holds one lock from _table_for until it has read the table, and a request past
the kept bound, whose table no other request sees, builds and reads it without.
"""

from array import array
from collections import namedtuple
from contextlib import nullcontext
from itertools import accumulate, islice, repeat
from math import isqrt
from operator import lshift, mul
from random import Random
from threading import Lock

from .errors import ParseError, UnsupportedScaleError, shown
from .factored import FactoredRational
from .primes import _CACHE_SIZE, primes_up_to


# Sieves past this many values are refused before anything is allocated: a
# search or sequence peaks at ~125 bytes per value (tracemalloc, 10^6 values,
# CPython 3.11), so 10^7 already takes ~1.3 GB.
_SIEVE_CAP = 10**7

# The largest limit whose table outlives the request that built it.
_KEEP_LIMIT = _CACHE_SIZE

# The kept text marks the end of every _MARK-th line; a read formats the lines past its last mark
# to find its own end.  At 16 that adds about 1 us to a warm read, at 64 3-4 us, and both
# render 20,000 lines in about 1.4 ms (2 vCPU Xeon, CPython 3.11.7).
_MARK = 16


def sieve_totients(limit: int, phi: list[int] | None = None) -> list[int]:
    """phi(0..limit), by extending phi = [phi(0), ..., phi(L)] in place (a fresh
    list if phi is None) with phi(L+1..limit) alone; phi is returned as is if
    L >= limit.

    Only odd j run in Python.  Each new odd j > 1 is either prime, phi(j) =
    j - 1, or j = m * p with p its least prime factor, and then phi(j) =
    phi(m) * (p if p | m else p - 1), where m < j is odd and already known.
    Least factors come from slice writes: every odd d <= isqrt(limit) is
    written over its odd multiples in descending order, so the last d to
    write j is its least prime factor, and a j no d writes is prime.  Each
    even j = 2^t * o, o odd, is then phi(o) << (t - 1), one extended-slice
    assignment per t.  phi is padded before it is filled, so if anything
    raises on the way (MemoryError, KeyboardInterrupt) it is cut back.
    """
    if limit > _SIEVE_CAP:
        raise UnsupportedScaleError(f"a totient sieve to {shown(limit, 'limit')} exceeds the cap of {_SIEVE_CAP}")
    phi = [] if phi is None else phi
    phi += range(len(phi), min(limit + 1, 2))  # phi(0) = 0, phi(1) = 1
    lo = len(phi)
    if lo > limit:
        return phi
    odd = lo | 1  # the least new odd j
    least = [0] * len(range(odd, limit + 1, 2))  # least[i]: the least prime factor of odd + 2 * i, 0 if prime
    for d in range(isqrt(limit) - 1 | 1, 1, -2):
        start = -odd * (d + 1) // 2 % d  # odd + 2 * start is d's first odd multiple from odd on
        least[start::d] = [d] * len(range(start, len(least), d))
    phi += [0] * (limit + 1 - lo)
    try:
        for j, p in zip(range(odd, limit + 1, 2), least):
            if p:
                m = j // p
                phi[j] = phi[m] * (p - 1 if m % p else p)
            else:
                phi[j] = j - 1
        for t in range(1, limit.bit_length()):
            start = lo + ((1 << t) - lo) % (2 << t)  # the least new j = 2^t (mod 2^(t + 1))
            odds = phi[start >> t : (limit >> t) + 1 : 2]
            phi[start :: 2 << t] = map(lshift, odds, repeat(t - 1)) if t > 1 else odds
    except BaseException:
        del phi[lo:]
        raise
    return phi


def _lines(values: list[int]) -> str:
    """A newline and then str(x), for each x of values, formatted in C by one %."""
    return "\n%d" * len(values) % tuple(values)


class _Table:
    """phi(0..L) and v[0..L]; the index v[k] -> k for k = 1..len(index), stopped
    by its first collision (j, k), v[j] = v[k], which grow_index alone reads; and the
    rendering _lines(v[1..lines]), whose line c * _MARK ends at offset marks[c]."""

    def __init__(self):
        self.phi, self.v, self.index, self.collision = [0], [0], {}, None
        self.text, self.marks, self.lines = "", array("I", [0]), 0

    def grow(self, limit: int) -> None:
        """Extends phi and v to limit by the values they lack; phi through the module's sieve_totients."""
        v = self.v
        if limit >= len(v):
            phi = self.phi = sieve_totients(limit, self.phi)
            v += map(mul, range(len(v), limit + 1), islice(phi, len(v), limit + 1))

    def grow_index(self, limit: int) -> tuple[int, int] | None:
        """Indexes v[k] -> k up to limit, in C, unless a collision stopped it; returns the
        first collision (j, k) with k <= limit, else None: the index is exact below k."""
        index, v, n = self.index, self.v, len(self.index)
        if not self.collision and limit > n:
            index.update(zip(islice(v, n + 1, limit + 1), range(n + 1, limit + 1)))
            if len(index) < limit:  # update kept the last k of a repeated value: redo by hand to name the first
                index.clear()
                for k in range(1, limit + 1):
                    if (j := index.setdefault(v[k], k)) != k:
                        self.collision = (j, k)
                        break
        return self.collision if self.collision and self.collision[1] <= limit else None

    def grow_text(self, stop: int) -> None:
        """Renders the lines of v up to stop that the text lacks: from its last mark on, whole parts of
        _MARK lines, each formatted in C, then the tail; text, marks and lines change once all are formatted."""
        if self.lines < stop:
            marks, v = self.marks, self.v
            a, b = (len(marks) - 1) * _MARK, stop - stop % _MARK  # the last mark kept and the last one to be
            # zip of one iterator _MARK times hands the values over _MARK at a time.
            parts = list(map(("\n%d" * _MARK).__mod__, zip(*[iter(v[a + 1 : b + 1])] * _MARK)))
            ends = array("I", accumulate(map(len, parts), initial=marks[-1]))[1:]
            self.text = "".join([self.text[: marks[-1]], *parts, _lines(v[b + 1 : stop + 1])])
            marks += ends
            self.lines = stop


_kept = _Table()
_lock = Lock()  # held by each reader of the kept table from _table_for until it has read it


def _held(limit: int):
    """What a reader of the table for limit holds while it reads: _lock for the kept
    table, nothing for a table of its own, which no other request sees."""
    return _lock if limit <= _KEEP_LIMIT else nullcontext()


def _table_for(limit: int) -> _Table:
    """The table grown to limit >= 1: the kept one while limit <= _KEEP_LIMIT, else a
    new one for this request alone, without phi once v is built; callers must not mutate v."""
    if limit < 1:
        raise ParseError(f"limit must be >= 1, got {shown(limit, 'number')}")
    if limit > _KEEP_LIMIT:
        table = _Table()
        table.grow(limit)
        table.phi = None
        return table
    _kept.grow(limit)
    return _kept


def phi_square_sequence(limit: int) -> list[int]:
    """[phi(1^2), phi(2^2), ..., phi(limit^2)], i.e. k * phi(k) for k = 1..limit."""
    with _held(limit):
        return _table_for(limit).v[1 : limit + 1]


def phi_square_text(limit: int) -> str:
    """The lines str(phi(k^2)) for k = 1..limit, joined by newlines: a slice of the kept rendering
    up to its last mark and the length of the tail past it, or past _KEEP_LIMIT one join of blocks
    of _KEEP_LIMIT lines, each formatted whole."""
    with _held(limit):
        table = _table_for(limit)
        if table is _kept:
            table.grow_text(limit)
            c = limit // _MARK
            return table.text[1 : table.marks[c] + len(_lines(table.v[c * _MARK + 1 : limit + 1]))]
    v = table.v
    return "\n".join([_lines(v[k : k + _KEEP_LIMIT])[1:] for k in range(1, limit + 1, _KEEP_LIMIT)])


def injectivity_scan(limit: int) -> tuple[int, int] | None:
    """First pair (m, n), m < n <= limit, with phi(m^2) = phi(n^2), else None."""
    if limit < 2:
        raise ParseError(f"limit must be >= 2, got {shown(limit, 'number')}")
    with _held(limit):
        return _table_for(limit).grow_index(limit)


class SearchResult(namedtuple("SearchResult", "found m n bound")):
    """Minimal verifying pair m, n under a bound, or an explicit miss with m = n = None."""

    __slots__ = ()


def _candidates(v: list[int], x: int, ell: int, limit: int) -> list[int]:
    """The k <= limit with x | v[k], in no order, for ell the largest prime of x
    (1 if x = 1): multiples of ell or of a prime s = 1 (mod ell), v[s] = s * (s - 1).
    For odd ell such an s is 1 (mod 2 * ell), and the walk steps through those.
    For ell <= 5 every k is filtered instead: at ell = 2 the walk would miss the
    primes s = 3 (mod 4), and at 3 and 5 the filter measured faster."""
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

    The index is the table's own, grown with the stages.  It is exact only if
    k -> phi(k^2) is injective (it is: OEIS A002618), checked as each k is
    indexed: the first collision (j, k) raises RuntimeError if and only if k is
    at or below the answer's top, or at or below the bound on a sieved miss.

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
    with _held(bound):
        table = _table_for(bound)
        v, index = table.v, table.index
        p, q = num.value(), den.value()
        largest = {e > 0: b for b, e in r.entries}  # each side's largest prime, as the entries ascend
        walk_p = largest.get(True, 1) > largest.get(False, 1)
        x, y, ell = (p, q, largest.get(True, 1)) if walk_p else (q, p, largest.get(False, 1))
        top = 0
        while top < bound:
            top = min(max(2 * top, 64), bound)
            j, c = table.grow_index(top) or (0, top + 1)
            limit = c - 1  # the index is exact below its collision
            hits = [(k, i) for k in _candidates(v, x, ell, limit)
                    if (i := index.get(v[k] // x * y, limit + 1)) <= limit]
            if hits:
                m, n = min(hits if walk_p else [(i, k) for k, i in hits], key=lambda mn: (max(mn), mn))
                return SearchResult(found=True, m=m, n=n, bound=bound)
            if c <= top:
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
