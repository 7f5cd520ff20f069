"""Exact primality testing and integer factorization at desk scale.

Primality is decided by Miller-Rabin with the first k primes as bases, k
chosen from n by OEIS A014233, whose k-th entry is the least odd composite
that is a strong pseudoprime to the first k prime bases (Jaeschke, Math.
Comp. 61 (1993); Sorenson and Webster, Math. Comp. 86 (2017)).  Below that
entry the first k bases are a complete test, so a 40-bit n needs 5 bases,
and every n below 3,317,044,064,679,887,385,961,981 (about 3.3e24) at most
13.  Nothing probabilistic is ever accepted: numbers at or above that bound
raise UnsupportedScaleError instead of getting a "probably prime" answer.

Factorization finds the primes below TRIAL_DIVISION_BOUND that full trial
division by 2, 3 and the candidates 6k +- 1 would find, one stage at a time:
the primes below 1025 first, then fixed blocks of candidates.  Each stage
takes one gcd g of the cofactor with the product of its primes.  g is small
and squarefree, so it is split by the stage's candidates until c * c > g
leaves a prime, and the cofactor is divided only by the primes found.  Before
each block, a cofactor that changed and lies below the primality bound is
tested with is_prime; a prime cofactor ends trial division, and so does the
next stage starting past the cofactor's square root.  No stage passes the
last divisor full trial division would try, so the cofactor left over is
exactly the one full trial division leaves.  It, and every piece Brent's
variant of Pollard's rho splits off it, has no prime factor below the first
divisor f not tried, so one loop certifies each piece: below f * f it is
prime, else is_prime decides and a composite is split again.  Rho is seeded
from the cofactor, so factorization is deterministic, and every result and
refusal (UnsupportedScaleError, FactorizationFailure, with their messages) is
that of full trial division.  One sieve of the odd numbers lists the primes:
the first stage's, those of primes_up_to and prime_pi, and every block's.
Rho's advance takes two steps per reduction mod the cofactor, and its product
two differences, at the residues one reduction each gives, so it finds the
same factors.

The totients and the construction need p - 1 factored for each prime p they
meet.  The dict _p_minus_1 factors each prime's p - 1 on its first read, and
empties itself at _CACHE_SIZE entries; a refusal is raised, not stored.
Threads may share it: a fill stores the same pairs whoever makes it, and a
clear only causes refills.  The README's table "Per-process stores" gives
every store of the package, its bound and its memory at the bound.
"""

from bisect import bisect_right
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod
from random import Random

from .errors import FactorizationFailure, UnsupportedScaleError, shown

# psi_13 of OEIS A014233: the 13 bases below are a proven-exact test below it.
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PRODUCT = prod(_MR_BASES)
# psi_1 .. psi_12 of OEIS A014233: psi_k is the least odd composite that passes
# the first k bases, so any n below it needs only those; psi_13 is the bound.
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)

TRIAL_DIVISION_BOUND = 10**6
# Full trial division tries f and f + 2 for f = 5, 11, 17, ... up to the
# bound, so the last stage ends at the first f = 6k + 5 past it.
_TRIAL_END = TRIAL_DIVISION_BOUND + 1 + (4 - TRIAL_DIVISION_BOUND) % 6
# The first stage takes the primes below this f (6k + 5, just above 32^2); from
# it on, candidates go in blocks of this many pairs.
_BLOCK_START = 1025
_BLOCK_PAIRS = 512

# Effort budget for splitting one stubborn cofactor.
RHO_MAX_ATTEMPTS = 16
RHO_MAX_ITERATIONS = 2_000_000

_CACHE_SIZE = 1 << 16  # the bound of every per-process store that grows with its input


@lru_cache(maxsize=_CACHE_SIZE)
def is_prime(n: int) -> bool:
    """Decide primality of n >= 0 exactly.

    Raises UnsupportedScaleError for n >= PRIMALITY_BOUND, where no proven
    deterministic base set is available.
    """
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES  # every prime up to the last base is a base
    if gcd(n, _MR_PRODUCT) > 1:
        return False  # before the bound: a huge n with a small factor is refused as composite
    if n >= PRIMALITY_BOUND:
        raise UnsupportedScaleError(
            f"cannot certify primality of {shown(n, 'number')}: >= deterministic bound {PRIMALITY_BOUND}"
        )
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_split(n: int) -> int:
    """Find a nontrivial factor of an odd composite n with Brent's rho.

    Deterministic: parameters come from an RNG seeded with n.  Raises
    FactorizationFailure once the effort budget is exhausted.
    """
    rng = Random(n)
    for _ in range(RHO_MAX_ATTEMPTS):
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        iterations = 0
        x = ys = y
        while g == 1 and iterations < RHO_MAX_ITERATIONS:
            # The advance takes two steps per reduction (t is y's next term,
            # unreduced), and two differences share one reduction of q, so each
            # y, q and gcd is the residue a reduction per step gives.  Only r = 1
            # leaves an odd count of steps.
            x = y
            if r == 1:
                y = (y * y + c) % n
            for _ in range(r // 2):
                t = y * y + c
                y = (t * t + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                if r == 1:
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                for _ in range(min(m, r - k) // 2):
                    y = (y * y + c) % n
                    a = x - y
                    y = (y * y + c) % n
                    q = q * a * (x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            iterations += r
        if g == n:
            # Backtrack one step at a time to recover the factor.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
    raise FactorizationFailure(
        f"could not split cofactor {n} within {RHO_MAX_ATTEMPTS} rho attempts"
    )


def _sieve(stop: int) -> bytearray:
    """1 at i for each 2i + 1 below stop >= 1 that is 1 or prime, else 0: the one sieve of Eratosthenes here."""
    sieve = bytearray([1]) * (stop // 2)
    for p in range(3, isqrt(stop - 1) + 1, 2):
        if sieve[p // 2]:  # p is prime: its odd multiples from p * p are not
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return sieve


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit: 2, then the odd ones _sieve flags."""
    return [2, *compress(range(3, limit + 1, 2), _sieve(limit + 1)[1:])] if limit >= 2 else []


def prime_pi(x: int) -> int:
    """Count of primes <= x: the flag of 1 counts 2."""
    return _sieve(x + 1).count(1) if x >= 2 else 0


_SMALL_PRIMES = primes_up_to(_BLOCK_START - 1)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)


@lru_cache(maxsize=None)
def _odd_sieve() -> bytearray:
    """_sieve(_TRIAL_END), built once, by the first block any walk reaches."""
    return _sieve(_TRIAL_END)


@lru_cache(maxsize=None)
def _block_product(f: int) -> int:
    """Product of the primes among the trial candidates of the block at f.

    When factorize reaches the block, its cofactor has no prime factor below
    f, so its gcd with this product is the product of the block's primes that
    divide it, which factorize then splits.  The block is read from _odd_sieve.
    """
    stop = min(f + 6 * _BLOCK_PAIRS, _TRIAL_END)
    return prod(compress(range(f, stop, 2), _odd_sieve()[f // 2 : stop // 2]))  # f and stop are odd


def _split(g: int, candidates) -> list[int]:
    """The primes of a squarefree g > 1, ascending.

    candidates ascend through every prime of g, and each composite among them
    has a prime factor that g lacks.  Once c * c > g, what is left of g has no
    factor up to its square root, so it is prime.
    """
    found = []
    for c in candidates:
        if c * c > g:
            break
        if g % c == 0:
            g //= c
            found.append(c)
    if g > 1:
        found.append(g)
    return found


def _strip(n: int, p: int) -> tuple[int, int]:
    """n with every factor p divided out, and how many: p^2, p^4, ... first, so e costs ~log2(e) steps."""
    if n % p:
        return n, 0
    n, e = _strip(n, p * p)
    return (n // p, 2 * e + 1) if n % p == 0 else (n, 2 * e)


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization of n >= 1 as a prime -> exponent dict, primes ascending."""
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    out: dict[int, int] = {}
    # The first stage's primes lie below _BLOCK_START, each later stage's in one block.
    stop, product, candidates = _BLOCK_START, _SMALL_PRODUCT, _SMALL_PRIMES
    tested = 1  # the last cofactor given to is_prime
    while True:
        # g is squarefree and holds exactly the stage's primes that divide n.
        g = gcd(n, product)
        if g > 1:
            for p in _split(g, candidates):
                n, out[p] = _strip(n, p)
        f = stop
        if f * f > n or f >= _TRIAL_END:
            break
        if n != tested and n < PRIMALITY_BOUND:
            tested = n
            if is_prime(n):
                f = n  # n < f * f: certified below, not tested again
                break
        stop = min(f + 6 * _BLOCK_PAIRS, _TRIAL_END)
        product, candidates = _block_product(f), range(f, stop, 2)
    # n is 1, a prime, or a cofactor with no prime factor below f, and so is
    # every piece rho splits off it: a piece below f * f is prime.  out holds
    # trial division's primes ascending, all below n, so only a split needs a sort.
    stack = [n] if n > 1 else []
    split = False
    while stack:
        c = stack.pop()
        if c < f * f or is_prime(c):
            out[c] = out.get(c, 0) + 1
            continue
        d = _rho_split(c)
        stack += d, c // d
        split = True
    return dict(sorted(out.items())) if split else out


class _PMinus1(dict):
    """p -> factorize(p - 1) as ascending (prime, exponent) pairs, factored on p's first read."""

    def __missing__(self, p: int) -> tuple[tuple[int, int], ...]:
        pairs = tuple(factorize(p - 1).items())
        if len(self) >= _CACHE_SIZE:
            self.clear()  # not oldest first: next(iter(self)) walks the freed slots at the front
        self[p] = pairs
        return pairs


_p_minus_1 = _PMinus1()
