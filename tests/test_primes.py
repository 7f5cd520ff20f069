import random
import sys
import threading
from bisect import bisect_left
from math import gcd, prod

import pytest

from phisq import primes
from phisq.errors import FactorizationFailure, UnsupportedScaleError
from phisq.primes import PRIMALITY_BOUND, factorize, is_prime, prime_pi, primes_up_to

# Mersenne prime above the deterministic Miller-Rabin bound.
M127 = 2**127 - 1
P40 = 1099511627791  # the first prime above 2^40


def trial_division_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_small_values_against_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_known_fixtures():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(19673280)  # even, visibly composite


def test_carmichael_and_strong_pseudoprimes_rejected():
    assert not is_prime(561)
    assert not is_prime(41041)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not is_prime(3825123056546413051)  # strong pseudoprime to bases 2..31


# --- Miller-Rabin bases chosen by n's size ------------------------------------

BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least prime factor of each psi_k of OEIS A014233, psi_13 included.
PSI_FACTOR = {
    2047: 23,
    1373653: 829,
    25326001: 2251,
    3215031751: 151,
    2152302898747: 6763,
    3474749660383: 1303,
    341550071728321: 10670053,
    3825123056546413051: 149491,
    318665857834031151167461: 399165290221,
    3317044064679887385961981: 1287836182261,
}


def strong_probable_prime(n, a):
    """Whether odd n > a passes the Miller-Rabin round to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def all_bases_is_prime(n):
    """Primality by all 13 bases, whatever n's size: the test is_prime must agree with."""
    if n < 2:
        return False
    for p in BASES:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, a) for a in BASES)


def test_psi_table_is_consistent():
    psi = primes._MR_PSI + (PRIMALITY_BOUND,)
    assert primes._MR_BASES == BASES
    assert len(psi) == len(BASES)
    assert list(psi) == sorted(psi)
    for n in psi:
        f = PSI_FACTOR[n]
        assert 1 < f < n and n % f == 0
        # psi_k passes the first k bases and fails the next; a value listed
        # j times passes j more.
        passed = 0
        while passed < len(BASES) and strong_probable_prime(n, BASES[passed]):
            passed += 1
        assert passed == psi.count(n) + psi.index(n), n


def test_each_psi_is_refused_and_its_neighbours_match_all_bases():
    for psi in primes._MR_PSI:
        assert not is_prime(psi), psi
        for d in (-4, -2, 2, 4):
            assert is_prime(psi + d) == all_bases_is_prime(psi + d), psi + d
    for d in (-4, -2):
        assert is_prime(PRIMALITY_BOUND + d) == all_bases_is_prime(PRIMALITY_BOUND + d)


def test_strong_pseudoprimes_to_base_2_below_2e5_are_refused():
    limit = 2 * 10**5
    sieve = bytearray([1]) * limit
    for p in range(2, 448):
        sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    pseudoprimes = [n for n in range(3, limit, 2) if not sieve[n] and strong_probable_prime(n, 2)]
    assert pseudoprimes[0] == primes._MR_PSI[0] == 2047
    assert len(pseudoprimes) == 19  # OEIS A001262 below 2 * 10**5
    for n in pseudoprimes:
        assert not is_prime(n), n


def test_large_primes_below_bound():
    assert is_prime(2**61 - 1)
    assert is_prime(1000003)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_primality_beyond_bound_raises():
    with pytest.raises(UnsupportedScaleError):
        is_prime(M127)
    with pytest.raises(UnsupportedScaleError):
        is_prime(PRIMALITY_BOUND)
    # Echoed below 10**49, named by its digit count from there on.
    below, above = 10**49 - 9, 10**49 + 9  # neither has a factor among the bases
    bound = f">= deterministic bound {PRIMALITY_BOUND}"
    for n, shown in ((below, str(below)), (above, "a 50-digit number"), (M127**200, "a 7647-digit number")):
        with pytest.raises(UnsupportedScaleError) as info:
            is_prime(n)
        assert str(info.value) == f"cannot certify primality of {shown}: {bound}"


def test_factorize_round_trip_exhaustive():
    for n in range(1, 10**5 + 1):
        f = factorize(n)
        value = 1
        for p, e in f.items():
            assert is_prime(p)
            assert e >= 1
            value *= p**e
        assert value == n


def test_factorize_round_trip_sampled_to_1e6():
    rng = random.Random(5)
    for _ in range(5000):
        n = rng.randrange(1, 10**6 + 1)
        value = 1
        for p, e in factorize(n).items():
            value *= p**e
        assert value == n


def test_factorize_round_trip_randomized_large():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10**12)
        f = factorize(n)
        value = 1
        for p, e in f.items():
            assert is_prime(p)
            value *= p**e
        assert value == n


def test_factorize_fixtures():
    assert factorize(1) == {}
    assert factorize(39330) == {2: 1, 3: 2, 5: 1, 19: 1, 23: 1}
    assert factorize(20010) == {2: 1, 3: 1, 5: 1, 23: 1, 29: 1}
    assert factorize(14476) == {2: 2, 7: 1, 11: 1, 47: 1}
    assert factorize(2**67 - 1) == {193707721: 1, 761838257287: 1}


def test_factorize_keys_ascending():
    assert list(factorize(55836)) == [2, 3, 11, 47]


@pytest.mark.parametrize(
    "n",
    [
        2**5 * 3 * 1019 * 10007**2 * 999983,  # trial division reduces it to 1
        2**5 * 1019 * (10**9 + 7),  # one certified cofactor is left
        3 * P40,  # the cofactor ends trial division before the blocks
        1000003 * 1000033 * 1000037,  # rho splits three pieces
        2**5 * 1019 * 1000037 * 1000039,  # trial primes, then two rho pieces
        1000003**2 * 1000033,
    ],
)
def test_factorize_returns_primes_ascending_on_every_path(n):
    factors = factorize(n)
    assert factors == reference_factorize(n)
    assert_ascending(factors, n)


def test_factorize_is_deterministic():
    n = 1000003 * 1000033 * 10007
    assert factorize(n) == factorize(n) == {10007: 1, 1000003: 1, 1000033: 1}


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


# factorize itself caches nothing, but primes._p_minus_1 does: a test that
# patches the rho budget and reaches p - 1 through the construction or a
# totient must call primes._p_minus_1.clear() first, or it may read a
# factorization stored under the full budget.
def test_threads_share_the_p_minus_1_memo(monkeypatch):
    # A fill stores the same pairs whoever makes it, and a clear only causes refills: with the
    # bound at 8, six threads switching every microsecond read only factorize(p - 1).
    monkeypatch.setattr(primes, "_CACHE_SIZE", 8)
    primes._p_minus_1.clear()
    ps = primes_up_to(400)
    expected = {p: tuple(factorize(p - 1).items()) for p in ps}
    wrong, sizes = [], []

    def read(k):
        for _ in range(20):
            for p in ps[k:] + ps[:k]:
                if primes._p_minus_1[p] != expected[p]:
                    wrong.append(p)
                sizes.append(len(primes._p_minus_1))

    threads = [threading.Thread(target=read, args=(7 * k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(sizes) == 6 * 20 * len(ps)
    assert max(sizes) <= 8 - 1 + 6  # each thread stores at most one entry past the bound's check


def test_factorize_reports_exhausted_budget(monkeypatch):
    monkeypatch.setattr(primes, "RHO_MAX_ATTEMPTS", 0)
    with pytest.raises(FactorizationFailure):
        factorize(1000003 * 1000033)


# Products of two primes and the factor _rho_split returns for each; the last
# two end their walk with g == n and backtrack.
RHO_SPLITS = [
    (1048583 * 2097169, 1048583),
    (33554467 * 33554501, 33554467),
    (268435459 * 2147483659, 268435459),
    (845102747 * 7541879063, 845102747),
    (2788373123 * 8347702141, 2788373123),
    (8165354051 * 9077199101, 9077199101),
    (13944972719 * 27785488559, 27785488559),
    (18660026393 * 31589644859, 31589644859),
    (756097 * 1048123, 1048123),
    (572179 * 1015601, 1015601),
]


@pytest.mark.parametrize("n, factor", RHO_SPLITS)
def test_rho_split_returns_the_recorded_factor(n, factor):
    assert primes._rho_split(n) == factor


def test_factorize_beyond_primality_bound_raises():
    with pytest.raises(UnsupportedScaleError):
        factorize(M127)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prime_pi():
    assert prime_pi(1) == 0
    assert prime_pi(2) == 1
    assert prime_pi(97) == 25
    assert prime_pi(10**4) == 1229


# --- factorize against full trial division ----------------------------------


def reference_factorize(n):
    """factorize with plain trial division over every candidate to the bound.

    This is the loop the staged trial division replaced, kept as the oracle:
    the staged version must give the same factors, hand rho the same
    cofactors and raise the same errors with the same messages.
    """
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f <= primes.TRIAL_DIVISION_BOUND:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n == 1:
        return dict(sorted(out.items()))
    if f * f > n:
        out[n] = out.get(n, 0) + 1
        return dict(sorted(out.items()))
    stack = [n]
    while stack:
        c = stack.pop()
        if primes.is_prime(c):
            out[c] = out.get(c, 0) + 1
            continue
        d = primes._rho_split(c)
        stack.append(d)
        stack.append(c // d)
    return dict(sorted(out.items()))


@pytest.fixture
def rho_args(monkeypatch):
    """The arguments of every _rho_split call, in order."""
    calls = []
    split = primes._rho_split

    def recording(n):
        calls.append(n)
        return split(n)

    monkeypatch.setattr(primes, "_rho_split", recording)
    return calls


def outcome(fn, n, rho_args):
    """(factors or (error type, message), cofactors given to rho) of fn(n)."""
    rho_args.clear()
    try:
        result = fn(n)
    except (FactorizationFailure, UnsupportedScaleError) as exc:
        result = (type(exc), str(exc))
    return result, list(rho_args)


def assert_matches_reference(values, rho_args):
    for n in values:
        result = outcome(factorize, n, rho_args)
        assert result == outcome(reference_factorize, n, rho_args), n
        assert_ascending(result[0], n)


def assert_ascending(factors, n):
    # Dict equality ignores order, so the reference suites' == would not see an unsorted map.
    if isinstance(factors, dict):
        assert list(factors) == sorted(factors), n


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def primes_near(x, radius=20):
    return [p for p in range(max(2, x - radius), x + radius) if is_prime(p)]


def test_staged_matches_reference_on_smooth_times_large_primes(rho_args):
    # Beside the first large prime of 2^10..2^46, any others stay below 2^30,
    # so rho splits every cofactor below the primality bound quickly; three
    # large primes often land past the bound and are refused instead.
    rng = random.Random(20261018)
    values = []
    for _ in range(30):
        n = 1
        for p in rng.sample(primes_up_to(1000), rng.randint(0, 5)):
            n *= p ** rng.randint(1, 3)
        for i in range(rng.randint(1, 3)):
            n *= next_prime(1 << rng.randint(10, 45 if i == 0 else 29) | rng.getrandbits(10))
        values.append(n)
    assert_matches_reference(values, rho_args)


def test_staged_matches_reference_at_switch_and_block_edges(rho_args):
    block = 6 * primes._BLOCK_PAIRS
    last_block = primes._TRIAL_END - (primes._TRIAL_END - primes._BLOCK_START) % block
    edges = [primes._BLOCK_START + block * k for k in (0, 1, 2, 100)]
    edges += [last_block, primes._TRIAL_END]
    values = []
    for edge in edges:
        near = primes_near(edge)
        for p in near:
            values += [p, p * p, p * P40]
        for p, q in zip(near, near[1:]):
            values += [p * q, p * p * q]
        values.append(near[0] * near[-1] * 1000003 * 1000033)
    assert_matches_reference(values, rho_args)


def test_products_of_primes_just_above_trial_bound(rho_args):
    # Neither factor is a trial divisor and the product exceeds the square of
    # the last one, so full trial division hands the whole product to rho once.
    near = [p for p in range(10**6, 1_003_000) if is_prime(p)]
    pairs = list(zip(near, near[1:]))
    assert (1000037, 1000039) in pairs
    for p, q in pairs:
        assert outcome(factorize, p * q, rho_args) == ({p: 1, q: 1}, [p * q])
    sample = pairs[::20] + [pairs[-1], (1000037, 1000039)]
    assert_matches_reference([p * q for p, q in sample], rho_args)


def test_staged_matches_reference_past_primality_bound(rho_args):
    values = [M127 * k for k in (1, 2, 15, 1021, 7 * 1031, 999983, 1000003, 5 * P40)]
    values.append(1000003 * 1000033 * P40 * P40)
    assert_matches_reference(values, rho_args)


def test_staged_matches_reference_on_exhausted_budget(monkeypatch, rho_args):
    monkeypatch.setattr(primes, "RHO_MAX_ATTEMPTS", 0)
    n = 1000003 * 1000033
    assert outcome(factorize, n, rho_args) == outcome(reference_factorize, n, rho_args)
    assert rho_args == [n]


# --- rho against the loop with one reduction per step -----------------------


def reference_rho_split(n, gcd=gcd):
    """_rho_split with one reduction mod n per step, the loop the paired steps replaced.

    Kept as the oracle: the paired steps reduce the same residues, so they must
    take the same gcds, return the same factor and raise the same message
    under the same budget.
    """
    rng = random.Random(n)
    for _ in range(primes.RHO_MAX_ATTEMPTS):
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        iterations = 0
        x = ys = y
        while g == 1 and iterations < primes.RHO_MAX_ITERATIONS:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
            iterations += r
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
    raise FactorizationFailure(f"could not split cofactor {n} within {primes.RHO_MAX_ATTEMPTS} rho attempts")


def random_prime(rng):
    """The least prime at or above a random number of 20 to 32 bits."""
    bits = rng.randint(20, 32)
    return next_prime(rng.getrandbits(bits) | 1 << (bits - 1))


RHO_RNG = random.Random(20261020)
RHO_SEMIPRIMES = [random_prime(RHO_RNG) * random_prime(RHO_RNG) for _ in range(100)]


def rho_outcome(split, n):
    """split(n), or the type and message of the FactorizationFailure it raises."""
    try:
        return split(n)
    except FactorizationFailure as exc:
        return type(exc), str(exc)


def test_rho_split_matches_the_one_reduction_loop(monkeypatch):
    # Every value given to gcd is the same residue mod n in both loops, so a
    # walk shifted by one step fails here even where it finds the same factor.
    calls = []

    def recording(a, b):
        calls.append((a % b, b))
        return gcd(a, b)

    monkeypatch.setattr(primes, "gcd", recording)
    for n in RHO_SEMIPRIMES:
        calls.clear()
        factor, gcds = primes._rho_split(n), list(calls)
        calls.clear()
        assert (factor, gcds) == (reference_rho_split(n, recording), calls), n


@pytest.mark.parametrize("budget", [2, 300, 1000, 3000])
def test_rho_split_refuses_where_the_one_reduction_loop_does(monkeypatch, budget):
    # Budgets that end each walk after 1, 8, 9 and 11 doublings of r refuse every
    # cofactor, about seven in ten, half and one in five: each is split or
    # refused, with the same factor or message, by both loops.
    monkeypatch.setattr(primes, "RHO_MAX_ITERATIONS", budget)
    outcomes = [rho_outcome(primes._rho_split, n) for n in RHO_SEMIPRIMES]
    assert outcomes == [rho_outcome(reference_rho_split, n) for n in RHO_SEMIPRIMES]
    assert any(isinstance(o, tuple) for o in outcomes)


# --- one gcd per stage, split candidate by candidate -------------------------

BLOCK = 6 * primes._BLOCK_PAIRS
# The block whose first candidate, 13313, is prime.
PRIME_START = primes._BLOCK_START + 4 * BLOCK
# The last block is cut short by _TRIAL_END.
LAST_BLOCK = primes._TRIAL_END - (primes._TRIAL_END - primes._BLOCK_START) % BLOCK
STARTS = (primes._BLOCK_START, primes._BLOCK_START + BLOCK, PRIME_START, primes._BLOCK_START + 100 * BLOCK, LAST_BLOCK)


def primes_in_block(start):
    return [p for p in range(start, min(start + BLOCK, primes._TRIAL_END)) if is_prime(p)]


def test_every_block_product_is_the_product_of_its_primes():
    # Both caches are cleared, so each product is read from a sieve built here.
    primes._odd_sieve.cache_clear()
    primes._block_product.cache_clear()
    ps = primes_up_to(primes._TRIAL_END)
    for f in range(primes._BLOCK_START, primes._TRIAL_END, BLOCK):
        block = ps[bisect_left(ps, f) : bisect_left(ps, min(f + BLOCK, primes._TRIAL_END))]
        assert primes._block_product(f) == prod(block), f


def test_staged_matches_reference_on_products_within_one_block(rho_args):
    # Two or three primes of one block make its gcd g >= f^2; with three, what
    # is left of g after the first prime is split off is still composite.
    assert is_prime(PRIME_START)
    values = []
    for start in STARTS:
        block = primes_in_block(start)
        lo, mid, hi = block[0], block[len(block) // 2], block[-1]
        for n in (lo * block[1], lo * hi, mid * hi, lo * block[1] * block[2], lo * mid * hi, mid * block[-2] * hi):
            values += [n, n * 2**5 * 3 * 1021, n * lo]
        values.append(lo * mid * hi * P40)
    assert_matches_reference(values, rho_args)


def test_staged_matches_reference_on_squares_and_cubes_of_block_primes(rho_args):
    values = []
    for start in STARTS:
        block = primes_in_block(start)
        for p in (block[0], block[1], block[-1]):
            values += [p**2, p**3, p**2 * 1019, p**3 * block[len(block) // 2]]
        values.append(block[0] ** 3 * P40)
    assert_matches_reference(values, rho_args)


def test_staged_matches_reference_on_powers_of_every_small_prime(rho_args):
    small = primes_up_to(primes._BLOCK_START - 1)
    assert small[-1] == 1021
    values = [p**e for p in small for e in range(1, 7)]
    values += [p**e * q for p, q in zip(small, small[::-1]) for e in (2, 6)]
    values += [p**6 * P40 for p in small[::17]]
    assert_matches_reference(values, rho_args)


def test_staged_matches_reference_on_the_truncated_last_block(rho_args):
    block = primes_in_block(LAST_BLOCK)
    assert LAST_BLOCK + BLOCK > primes._TRIAL_END > block[-1]
    values = [p * P40 for p in block[::6] + [block[-1]]]
    values += [block[0] * block[-1] * P40, block[-1] ** 2 * P40]
    assert_matches_reference(values, rho_args)


# --- each prime's exponent stripped by repeated squaring --------------------

STRIP_EXPONENTS = (1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 14000)


@pytest.mark.parametrize("e", STRIP_EXPONENTS)
def test_prime_powers_on_the_trial_division_path(e):
    # The first stage's largest prime, a first-block prime, a later block's and
    # the largest trial divisor; the last one only to e = 1000, as every block's
    # gcd with a 280,000-bit power would take about a second.
    for p in (2, 3, 1019, 1031, 10007, 999983):
        if p < 10**5 or e <= 1000:
            assert factorize(p**e) == {p: e}, (p, e)
    assert factorize(2**e * 3**e * 1019**e * 10007**e) == {2: e, 3: e, 1019: e, 10007: e}
    assert factorize(2**e * 3 * 1031**2 * 10007 ** (e + 1)) == {2: e, 3: 1, 1031: 2, 10007: e + 1}


@pytest.mark.parametrize("e", STRIP_EXPONENTS)
def test_prime_powers_beside_a_rho_cofactor(e, rho_args):
    # Trial division strips the powers and leaves the semiprime to rho.
    n = 2**e * 1019**e * 10007 * 1000003 * 1000033
    assert factorize(n) == {2: e, 1019: e, 10007: 1, 1000003: 1, 1000033: 1}
    assert rho_args == [1000003 * 1000033]


def test_repeated_primes_past_the_trial_bound_match_reference(rho_args):
    # Powers of primes above the trial bound are counted one piece at a time
    # by rho, as full trial division would leave them.
    values = [1000003**2, 1000003**3, 1000003**2 * 1000033, 2**65 * 1000003**2 * 1000033]
    assert_matches_reference(values, rho_args)
    assert factorize(2**65 * 1000003**2 * 1000033) == {2: 65, 1000003: 2, 1000033: 1}


# --- one certify-or-split loop after trial division --------------------------


@pytest.fixture
def tested(monkeypatch):
    """The arguments of every is_prime call factorize makes, in order."""
    calls = []
    check = primes.is_prime

    def recording(n):
        calls.append(n)
        return check(n)

    monkeypatch.setattr(primes, "is_prime", recording)
    return calls


def test_rho_pieces_below_the_square_of_the_trial_end_are_not_tested(tested, rho_args):
    # Every piece rho splits off has no prime factor below _TRIAL_END, so one
    # below its square (just above 10^12) is prime without a test; only the
    # composite cofactors are tested, and factors and rho arguments stay those
    # of full trial division.
    values = [
        1000003 * 1000033,
        2**5 * 1019 * 1000037 * 1000039,
        1000003 * 999999999989,
        1000003**2 * 1000033,
        1000003 * 1000033 * 1000037,
    ]
    for n in values:
        tested.clear()
        result = outcome(factorize, n, rho_args)
        calls = list(tested)
        assert result == outcome(reference_factorize, n, rho_args), n
        assert all(p < 10**12 for p in result[0])
        assert calls and all(c >= primes._TRIAL_END**2 and not is_prime(c) for c in calls), (n, calls)


def test_the_prime_that_ends_trial_division_is_tested_once(tested):
    for n in (10**9 + 7, 2**5 * 1019 * (10**9 + 7), 3 * P40):
        tested.clear()
        factors = factorize(n)
        assert tested == [max(factors)], n
        assert factors == reference_factorize(n)
