"""Independent brute-force checks for the constructive algorithm.

Everything here works on plain integers with a totient sieve, deliberately
avoiding the factored-arithmetic path it is meant to cross-check.
"""

from dataclasses import dataclass
from random import Random

from .errors import UnsupportedScaleError
from .factored import FactoredRational
from .primes import primes_up_to


# Sieves past this many values are refused before anything is allocated: a
# search or sequence costs ~140 bytes per value, so 10^7 already takes ~1.4 GB.
_SIEVE_CAP = 10**7


def sieve_totients(limit: int) -> list[int]:
    """phi(0..limit) by the classic in-place multiplicative sieve."""
    if limit > _SIEVE_CAP:
        raise UnsupportedScaleError(f"a totient sieve to {limit} exceeds the cap of {_SIEVE_CAP}")
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:  # i is prime
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    return phi


def phi_square_sequence(limit: int) -> list[int]:
    """[phi(1^2), phi(2^2), ..., phi(limit^2)], i.e. k * phi(k) for k = 1..limit."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    phi = sieve_totients(limit)
    return [k * phi[k] for k in range(1, limit + 1)]


def _index_phi_squares(limit: int) -> tuple[list[int], dict[int, int], tuple[int, int] | None]:
    """v[k] = phi(k^2) = k * phi(k) for k <= limit and the index v[k] -> k, built
    up to the first collision v[j] = v[k], j < k, returned third as (j, k)."""
    v = sieve_totients(limit)
    index: dict[int, int] = {}
    for k in range(1, limit + 1):
        v[k] *= k
        if (j := index.setdefault(v[k], k)) != k:
            return v, index, (j, k)
    return v, index, None


def injectivity_scan(limit: int) -> tuple[int, int] | None:
    """First pair (m, n), m < n <= limit, with phi(m^2) = phi(n^2), else None."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    return _index_phi_squares(limit)[2]


@dataclass(frozen=True)
class SearchResult:
    """Minimal verifying pair under a bound, or an explicit miss."""

    found: bool
    m: int | None
    n: int | None
    bound: int


def brute_force_minimal(r: FactoredRational, bound: int) -> SearchResult:
    """Search m, n <= bound for phi(m^2)/phi(n^2) = r = p/q, in O(bound) steps.

    Pairs are taken in increasing (max(m, n), m, n) order, so the first hit
    is the minimal one. Once v[k] = phi(k^2) is indexed by value, each
    top = max(m, n) costs two exact lookups: m = v^-1(v[top] * p / q) with
    m < top, then n = v^-1(v[top] * q / p) with n <= top. The index is only
    exact if k -> phi(k^2) is injective below the bound (it is: OEIS
    A002618), and that is checked, not assumed: a collision raises
    RuntimeError naming both k.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    p = r.numerator().value()
    q = r.denominator().value()
    v, index, collision = _index_phi_squares(bound)
    if collision is not None:
        raise RuntimeError(f"phi(k^2) collides at k = {collision[0]} and k = {collision[1]}")
    for top in range(1, bound + 1):
        x, rest = divmod(v[top] * p, q)  # phi(m^2) for the pair (m, top)
        if not rest and (m := index.get(x, top)) < top:
            return SearchResult(found=True, m=m, n=top, bound=bound)
        x, rest = divmod(v[top] * q, p)  # phi(n^2) for the pair (top, n)
        if not rest and (n := index.get(x, top + 1)) <= top:
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
