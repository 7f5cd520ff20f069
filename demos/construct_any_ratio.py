#!/usr/bin/env python3
"""Build (m, n) with phi(m^2)/phi(n^2) = r for ratios of every flavor.

The construction peels off the largest prime of r one step at a time, so the
construction depth (number of steps) never exceeds the number of primes up to
the largest prime, and m*n only ever contains primes that are <= that largest
prime.
"""

from phisq import parse_rational, prime_pi, represent, verify

RATIOS = [
    "1",
    "2",
    "3",
    "19/47",
    "360/7",
    "2^10 * 3^-7 * 97^3",  # factored literals keep huge values exact and tiny
]

for text in RATIOS:
    r = parse_rational(text)
    rep = represent(r)
    report = verify(rep.m, rep.n, r)
    print(f"r = {text}")
    print(f"  m = {rep.m}")
    print(f"  n = {rep.n}")
    if rep.m.bit_size() < 64 and rep.n.bit_size() < 64:
        print(f"  expanded: m = {rep.m.value()}, n = {rep.n.value()}")
    top = r.entries[-1][0] if r.entries else None
    print(f"  verified phi(m^2)/phi(n^2) = r: {report.holds}")
    if top is not None:
        primes_used = sorted(set(rep.m.factors) | set(rep.n.factors))
        print(f"  largest prime of r: {top}; primes of m*n: {primes_used}")
        print(f"  construction depth {rep.depth} <= pi({top}) = {prime_pi(top)}")
    print()
