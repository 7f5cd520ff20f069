"""Plain-integer arithmetic that the benchmark generates inputs and checks answers with.

Nothing here imports phisq: a check must not share code with what it judges.
"""

from functools import lru_cache
from math import isqrt, log

# Miller-Rabin with these bases is exact below 3.3e24; the benchmark only
# tests numbers below 2^41.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Above this, prime_count_floor uses Rosser's bound instead of a sieve.
_SIEVE_LIMIT = 200_000


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
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


def random_prime(rng, bits: int) -> int:
    """A uniformly drawn prime with exactly `bits` bits."""
    while True:
        n = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


def primes_up_to(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p, flag in enumerate(sieve) if flag]


def phi_squares(limit: int) -> list[int]:
    """[0, 1*phi(1), 2*phi(2), ..., limit*phi(limit)]: phi(k^2) by a totient sieve."""
    phi = list(range(limit + 1))
    for p in primes_up_to(limit):
        for k in range(p, limit + 1, p):
            phi[k] -= phi[k] // p
    return [k * phi[k] for k in range(limit + 1)]


def minimal_pair(v: list[int], index: dict[int, int], p: int, q: int, bound: int):
    """Smallest (m, n) <= bound in (max(m, n), m) order with v[m] * q == v[n] * p.

    v[k] = phi(k^2) is injective (index maps each value back to k, and the
    caller has checked there is no collision), so for each top there is at
    most one partner on each side and the scan is linear.
    """
    for top in range(1, bound + 1):
        num, rem = divmod(v[top] * p, q)
        m = index.get(num) if rem == 0 else None
        if m is not None and m < top:
            return m, top
        num, rem = divmod(v[top] * q, p)
        n = index.get(num) if rem == 0 else None
        if n is not None and n <= top:
            return top, n
    return None


def phi_square(factors: dict[int, int]) -> int:
    """phi(k^2) = prod p^(2e-1) * (p-1) for k given as prime -> exponent."""
    out = 1
    for p, e in factors.items():
        out *= p ** (2 * e - 1) * (p - 1)
    return out


def split(factors: dict[int, int]) -> tuple[int, int]:
    """Numerator and denominator of the rational prime -> signed exponent."""
    num = den = 1
    for p, e in factors.items():
        if e > 0:
            num *= p**e
        else:
            den *= p**-e
    return num, den


@lru_cache(maxsize=None)
def prime_count_floor(x: int) -> int:
    """A number <= pi(x): exact by sieve up to _SIEVE_LIMIT, else x / ln x (Rosser 1941, x >= 17)."""
    if x <= _SIEVE_LIMIT:
        return len(primes_up_to(x))
    return int(x / log(x))


def check_pair(m: dict[int, int], n: dict[int, int], depth: int, r: dict[int, int]) -> str | None:
    """Why (m, n, depth) is not a valid answer for the rational r, or None if it is.

    Checks phi(m^2)/phi(n^2) = r by cross-multiplication, that no prime of m*n
    exceeds the largest prime of r, and that depth <= pi(largest prime of r).
    """
    num, den = split(r)
    if phi_square(m) * den != phi_square(n) * num:
        return "phi(m^2)/phi(n^2) != r"
    top = max(r, default=1)
    if any(p > top for p in (*m, *n)):
        return f"a prime of m*n exceeds the largest prime {top} of r"
    if depth > (prime_count_floor(top) if r else 0):
        return f"depth {depth} exceeds pi({top})"
    return None
