"""The benchmark's four workloads: seeded streams of requests with their checks.

A workload is an endless stream of Op records drawn from one Random(seed).
The program receives only the generated text; everything else an Op holds is
what the benchmark needs to judge the answer with reference.py.

Streams come in cycles of a fixed request mix. Within a cycle each size
parameter is stratified (one draw from each k-th of its range), so every seed
sees nearly the same distribution of request costs and the medians and tail
percentiles do not depend on which seed a run gets.
"""

import io
from bisect import bisect_left
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil
from typing import Callable, Iterator

import reference


@dataclass(frozen=True)
class Op:
    text: str  # the input as the program sees it, for failure listings
    call: Callable[[], object]  # the timed request
    check: Callable[[object], str | None]  # untimed: None if the answer is right, else why not


@dataclass(frozen=True)
class Workload:
    cycle: Callable  # (rng, lib) -> list[Op], one cycle of the mix
    cycle_len: int
    ops_per_s: float  # nominal rate that sizes the fixed list to --seconds
    tail: float  # the tail percentile, fixed so that >= 10 samples lie beyond it
    trace_ops: int  # requests in the traced run

    def op_count(self, seconds: float) -> int:
        """The fixed list length for a run of `seconds`, in whole cycles."""
        least = ceil(10 / (1 - self.tail))  # ops needed for 10 samples beyond the tail
        cycles = max(ceil(least / self.cycle_len), round(seconds * self.ops_per_s / self.cycle_len))
        return cycles * self.cycle_len

    def stream(self, rng, lib) -> Iterator[Op]:
        while True:
            ops = self.cycle(rng, lib)
            rng.shuffle(ops)
            yield from ops


def _strata(rng, k: int) -> list[float]:
    """k draws from [0, 1), one from each k-th of the interval, in random order."""
    u = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(u)
    return u


def _literal(r: dict[int, int]) -> str:
    return " * ".join(f"{p}^{e}" for p, e in sorted(r.items())) or "1"


def _fraction(r: dict[int, int]) -> str:
    num, den = reference.split(r)
    return f"{num}/{den}"


def _merge(*maps: dict[int, int], sign: int = 1) -> dict[int, int]:
    """Exponent-wise sum of factor maps (the later ones times sign), zeros dropped."""
    out = dict(maps[0])
    for m in maps[1:]:
        for p, e in m.items():
            out[p] = out.get(p, 0) + sign * e
    return {p: e for p, e in out.items() if e}


def _solve(lib, text: str):
    """parse_rational -> represent -> verify, the library path a caller takes."""
    r = lib.factored.parse_rational(text)
    rep = lib.represent.represent(r)
    return rep, lib.represent.verify(rep.m, rep.n, r).holds


def _solve_op(lib, text: str, r: dict[int, int]) -> Op:
    def check(result) -> str | None:
        rep, holds = result
        if holds is not True:
            return "the library's own verify did not hold"
        return reference.check_pair(rep.m.factors, rep.n.factors, rep.depth, r)

    return Op(text, lambda: _solve(lib, text), check)


def _cli(lib, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = lib.cli.main(argv)
    return code, out.getvalue()


# --- small_ratios ----------------------------------------------------------

_SMALL_PRIMES = reference.primes_up_to(1000)
_SMALL_EXPONENTS = [e for e in range(-6, 7) if e]


def small_ratios(rng, lib) -> list[Op]:
    """One ratio as a factored literal and one as p/q: up to 10 primes <= 1000, |e| <= 6."""
    ops = []
    for form in (_literal, _fraction):
        chosen = rng.sample(_SMALL_PRIMES, rng.randint(0, 10))
        r = {p: rng.choice(_SMALL_EXPONENTS) for p in chosen}
        ops.append(_solve_op(lib, form(r), r))
    return ops


# --- wide_products ---------------------------------------------------------

_WIDE_PRIMES = reference.primes_up_to(8000)
_WIDE_SUCCEEDS = 19  # products over all primes <= 2000..4000 (303..550 primes)
_WIDE_TOO_DEEP = 8000  # 1007 primes: past the recursive construction's depth limit
_WIDE_EXPONENTS = (-3, -2, -1, 1, 2, 3)


def wide_products(rng, lib) -> list[Op]:
    bounds = [2000 + 2000 * u for u in _strata(rng, _WIDE_SUCCEEDS)] + [_WIDE_TOO_DEEP]
    ops = []
    for bound in bounds:
        r = {p: rng.choice(_WIDE_EXPONENTS) for p in _WIDE_PRIMES if p <= bound}
        ops.append(_solve_op(lib, _literal(r), r))
    return ops


# --- big_factor ------------------------------------------------------------

_CO_PRIMES = reference.primes_up_to(100)
_PRIMES16 = reference.primes_up_to(1 << 16)
_LAST_FACTORS = [1] + _PRIMES16


def _cofactor(rng) -> dict[int, int]:
    """A small smooth factor map: up to three primes below 100."""
    return {p: rng.randint(1, 2) for p in rng.sample(_CO_PRIMES, rng.randint(0, 3))}


def _big_prime(rng, u: float, lo_bits: float, hi_bits: float) -> int:
    """A prime near 2^(lo_bits + u*(hi_bits - lo_bits)) whose p - 1 has no prime factor above 2^16.

    Smooth p - 1 keeps the library's factoring of p - 1 (in represent and in
    verify's totients) small, so a request's cost is set by its size, which
    the strata fix, rather than by the luck of p - 1. The benchmark knows
    phi(p^2) without factoring anything.
    """
    lo = int(2 ** (lo_bits + u * (hi_bits - lo_bits)))
    hi = lo + lo // 64
    while True:
        x = 2
        while x << 16 < lo:
            x *= rng.choice(_PRIMES16)
        # The last factor k (1 or a prime <= 2^16) puts p = x*k + 1 in [lo, hi).
        first = bisect_left(_LAST_FACTORS, -(-(lo - 1) // x))
        last = bisect_left(_LAST_FACTORS, (hi - 2) // x + 1)
        if first < last:
            p = x * _LAST_FACTORS[rng.randrange(first, last)] + 1
            if reference.is_prime(p):
                return p


def _verify_op(lib, rng, m: dict[int, int], n: dict[int, int], truthful: bool) -> Op:
    ratio = Fraction(reference.phi_square(m), reference.phi_square(n)) * (1 if truthful else 2)
    args = (str(reference.split(m)[0]), str(reference.split(n)[0]), f"{ratio.numerator}/{ratio.denominator}")

    def call():
        mf = lib.factored.parse_integer(args[0])
        nf = lib.factored.parse_integer(args[1])
        rf = lib.factored.parse_rational(args[2])
        return lib.represent.verify(mf, nf, rf).holds

    def check(holds) -> str | None:
        return None if holds is truthful else f"verify said {holds}, the truth is {truthful}"

    return Op("verify " + " ".join(args), call, check)


_BIG_RATIOS = 12  # p/q, each side a smooth part times one prime of 2^36..2^40
_BIG_SEMIPRIMES = 3  # p holds a 2^28..2^30 prime times a 2^40 prime: trial division runs to 10^6, rho splits
_BIG_VERIFIES = 4  # verify m n r, m and n each holding one prime of 2^36..2^40; one claim is false
_BIG_TOO_WIDE = 1  # three 2^40 primes: the cofactor left by trial division is past the primality bound


def big_factor(rng, lib) -> list[Op]:
    def side(u, lo_bits=36, hi_bits=40):
        return _merge(_cofactor(rng), {_big_prime(rng, u, lo_bits, hi_bits): 1})

    # Both sides of a request take the same stratum, so its cost, which grows
    # with the square root of its primes, is stratified too.
    ops = []
    for u in _strata(rng, _BIG_RATIOS):
        r = _merge(side(u), side(u), sign=-1)
        ops.append(_solve_op(lib, _fraction(r), r))
    for u in _strata(rng, _BIG_SEMIPRIMES):
        num = _merge(side(u, 28, 30), {_big_prime(rng, 1, 39, 40): 1})
        r = _merge(num, _cofactor(rng), sign=-1)
        ops.append(_solve_op(lib, _fraction(r), r))
    for i, u in enumerate(_strata(rng, _BIG_VERIFIES)):
        ops.append(_verify_op(lib, rng, side(u), side(u), truthful=i > 0))
    for _ in range(_BIG_TOO_WIDE):
        r = _merge(_cofactor(rng), *({_big_prime(rng, rng.random(), 39, 40): 1} for _ in range(3)))
        ops.append(_solve_op(lib, _fraction(r), r))
    return ops


# --- oracle_scans ----------------------------------------------------------

_SCAN_LIMIT = 20000
_SCAN_HITS, _SCAN_MISSES, _SCAN_SEQUENCES = 3, 3, 4
_SCAN_BOUND = 2000  # for hits; misses draw their bound


@lru_cache(maxsize=None)
def _table() -> tuple[list[int], dict[int, int]]:
    """phi(k^2) for k <= _SCAN_LIMIT and the map back from value to k."""
    v = reference.phi_squares(_SCAN_LIMIT)
    index = {x: k for k, x in enumerate(v) if k}
    if len(index) != _SCAN_LIMIT:
        raise RuntimeError("phi(k^2) collides below the scan limit; minimal_pair needs injectivity")
    return v, index


def _fields(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _search_op(lib, p: int, q: int, bound: int) -> Op:
    expected = reference.minimal_pair(*_table(), p, q, bound)
    text = f"{p}/{q}"

    def check(result) -> str | None:
        code, out = result
        got = _fields(out)
        if code != 0:
            return f"exit code {code}"
        if expected is None:
            return None if got.get("found") == "false" else f"found a pair where none exists: {got}"
        pair = (int(got.get("m", 0)), int(got.get("n", 0)))
        return None if got.get("found") == "true" and pair == expected else f"got {got}, minimal is {expected}"

    return Op(f"search {text} --bound {bound}", lambda: _cli(lib, ["search", text, "--bound", str(bound)]), check)


def _sequence_op(lib, limit: int) -> Op:
    v = _table()[0]

    def check(result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        values = [int(x) for x in out.split()]
        return None if values == v[1 : limit + 1] else "sequence differs from the reference sieve"

    return Op(f"sequence {limit}", lambda: _cli(lib, ["sequence", str(limit)]), check)


def oracle_scans(rng, lib) -> list[Op]:
    """Searches that hit, searches that provably miss, and sequences, through phisq.cli.main."""
    v, index = _table()
    ops = []
    for u in _strata(rng, _SCAN_HITS):
        # A search costs about top^2 for the minimal pair's top = max(m, n), so
        # the pair is drawn until its own minimal pair has the stratified top.
        top = 1000 + int(1000 * u)
        while True:
            pair = (top, rng.randint(1, top))[:: rng.choice((1, -1))]
            ratio = Fraction(v[pair[0]], v[pair[1]])
            if reference.minimal_pair(v, index, ratio.numerator, ratio.denominator, top) == pair:
                break
        ops.append(_search_op(lib, ratio.numerator, ratio.denominator, _SCAN_BOUND))
    for u in _strata(rng, _SCAN_MISSES):
        # A prime above bound^2 cannot divide phi(k^2) = k * phi(k) < k^2 for any k <= bound.
        bound = 1000 + int(1000 * u)
        big = reference.random_prime(rng, (bound * bound).bit_length() + 1)
        ratio = Fraction(big * rng.randint(1, 50), rng.randint(1, 50))
        ops.append(_search_op(lib, ratio.numerator, ratio.denominator, bound))
    for u in _strata(rng, _SCAN_SEQUENCES):
        ops.append(_sequence_op(lib, 5000 + int(15000 * u)))
    return ops


# ops_per_s is the speed-scaled rate (see run.REFERENCE_S) measured at the
# commit that defined the benchmark; it only sizes the lists to about --seconds.
WORKLOADS = {
    "small_ratios": Workload(small_ratios, cycle_len=2, ops_per_s=3000, tail=0.99, trace_ops=12000),
    "wide_products": Workload(wide_products, cycle_len=20, ops_per_s=9.5, tail=0.9, trace_ops=60),
    "big_factor": Workload(big_factor, cycle_len=20, ops_per_s=14, tail=0.9, trace_ops=100),
    "oracle_scans": Workload(oracle_scans, cycle_len=10, ops_per_s=7.5, tail=0.9, trace_ops=20),
}
