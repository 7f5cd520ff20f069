import importlib
import random
from heapq import heapify, heappop, heappush
from itertools import compress

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from phisq import factored, primes
from phisq.errors import ExponentOverflowError
from phisq.factored import (
    EXPANSION_BIT_LIMIT,
    EXPONENT_LIMIT,
    FactoredInteger,
    FactoredRational,
    _canonical,
    _checked,
    factor,
    check_exponent,
    parse_integer,
    parse_rational,
)
from phisq.oracle import random_rational
from phisq.primes import factorize, prime_pi, primes_up_to
from phisq.represent import Representation, VerificationReport, represent, verify
from phisq.totient import _phi_ratio, totient_of_square
from test_acceptance import euler_phi
from test_primes import next_prime


def phi_square(n):
    return n * euler_phi(n)


# --- powers of two: the generic rules, with q - 1 = 1 ---

def represent_two_to(a):
    return represent(FactoredRational.from_factors({2: a} if a else {}))


def test_power_of_two_fixtures():
    for a, pair, depth in [(2, (4, 2), 1), (-1, (1, 2), 1), (0, (1, 1), 0)]:
        rep = represent_two_to(a)
        assert (rep.m.value(), rep.n.value()) == pair, a
        assert rep.depth == depth, a
    assert phi_square(4) * 1 == phi_square(2) * 4  # phi(16)/phi(4) = 4
    assert phi_square(1) * 2 == phi_square(2) * 1  # phi(1)/phi(4) = 1/2


def test_power_of_two_sweep_against_direct_phi():
    for a in range(-12, 13):
        rep = represent_two_to(a)
        assert rep.depth == (1 if a else 0), a
        for f in (rep.m, rep.n):
            assert set(f.factors) <= {2}, a
        num, den = (2**a, 1) if a >= 0 else (1, 2**-a)
        assert phi_square(rep.m.value()) * den == phi_square(rep.n.value()) * num, a


# --- the construction ---

def test_represent_fixtures():
    one = represent(FactoredRational())
    assert one.m.value() == 1 and one.n.value() == 1 and one.depth == 0

    three = represent(parse_rational("3"))
    assert (three.m.value(), three.n.value()) == (3, 2)

    two = represent(parse_rational("2"))
    assert (two.m.value(), two.n.value()) == (2, 1)


def test_represent_19_47_canonical_output():
    # Regression pin for the fixed (b, c) choices; verified by hand-tracing
    # the largest-prime elimination: 47 -> 23 -> 19 -> 11 -> 5 -> 3 -> 2.
    rep = represent(parse_rational("19/47"))
    assert rep.m.value() == 13110
    assert rep.n.value() == 18612
    assert rep.depth == 7
    assert verify(rep.m, rep.n, rep.ratio).holds


def test_represent_small_ratios_against_direct_phi():
    for p in range(1, 12):
        for q in range(1, 12):
            r = parse_rational(f"{p}/{q}")
            rep = represent(r)
            m, n = rep.m.value(), rep.n.value()
            assert phi_square(m) * q == phi_square(n) * p, (p, q)


def test_round_trip_randomized():
    rng = random.Random(29)
    for _ in range(300):
        r = random_rational(rng)
        rep = represent(r)
        assert verify(rep.m, rep.n, r).holds
        assert rep.ratio == r


def test_prime_bound_and_depth():
    rng = random.Random(31)
    for _ in range(300):
        r = random_rational(rng)
        rep = represent(r)
        primes_of_mn = set(rep.m.factors) | set(rep.n.factors)
        if r.is_one:
            assert not primes_of_mn and rep.depth == 0
        else:
            top = r.entries[-1][0]
            assert all(p <= top for p in primes_of_mn)
            assert rep.depth <= prime_pi(top)


def test_inversion_symmetry_on_odd_negative_branch():
    cases = [
        {3: -1},
        {5: -3},
        {2: 1, 5: -3},
        {2: -2, 3: 4, 7: -5},
        {19: 1, 47: -1},
    ]
    for factors in cases:
        r = FactoredRational.from_factors(factors)
        top_exp = r.entries[-1][1]
        assert top_exp < 0 and top_exp % 2 != 0  # the branch under test
        rep = represent(r)
        flipped = represent(r.inverse())
        assert rep.m == flipped.n
        assert rep.n == flipped.m
        assert rep.depth == flipped.depth


def test_represent_is_deterministic():
    r = parse_rational("2^3 * 3^-2 * 53^5")
    assert represent(r) == represent(r)


def test_exponent_overflow_propagates():
    r = FactoredRational.from_factors({2: -EXPONENT_LIMIT, 3: 1})
    with pytest.raises(ExponentOverflowError):
        represent(r)
    # 7^1 divides r by 6 * 7, pushing 3 from -EXPONENT_LIMIT past the limit.
    r = parse_rational(f"7^1 * 3^-{EXPONENT_LIMIT}")
    with pytest.raises(ExponentOverflowError):
        represent(r)


# --- verification ---

def test_verify_known_pairs():
    report = verify(factor(39330), factor(55836), parse_rational("19/47"))
    assert report.holds
    assert report.common_value == 19673280
    assert report.lhs == report.expected

    report = verify(factor(14476), factor(20010), parse_rational("47/58"))
    assert report.holds
    assert report.common_value == 1700160


def test_verify_trivial_and_negative():
    one = FactoredInteger()
    assert verify(one, one, FactoredRational()).holds

    report = verify(factor(2), one, parse_rational("3"))
    assert not report.holds
    assert report.common_value is None
    assert report.lhs == parse_rational("2")


def test_verify_common_value_scales_both_sides():
    rng = random.Random(37)
    for _ in range(50):
        r = random_rational(rng, max_prime=31, max_exponent=3)
        rep = represent(r)
        report = verify(rep.m, rep.n, r)
        assert report.holds
        p = r.numerator().value()
        q = r.denominator().value()
        assert report.common_value * p == totient_of_square(rep.m).value()
        assert report.common_value * q == totient_of_square(rep.n).value()


# --- deep inputs: one step per prime, no recursion limit ---

def alternating_product(limit):
    """All primes <= limit, exponents cycling 1, -2, 3, -1, 2, -3."""
    return FactoredRational.from_factors(
        {p: (-1) ** i * (i % 3 + 1) for i, p in enumerate(primes_up_to(limit))}
    )


@pytest.mark.parametrize("limit", [20_000, 100_000])
def test_deep_products_construct_and_verify(limit):
    r = alternating_product(limit)
    rep = represent(r)
    assert verify(rep.m, rep.n, r).holds
    top = r.entries[-1][0]
    assert all(p <= top for p in set(rep.m.factors) | set(rep.n.factors))
    assert rep.depth <= prime_pi(top)


def test_each_p_minus_1_is_factored_once_per_process(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(primes, "factorize", counting)
    monkeypatch.setattr(factored, "factorize", counting)
    primes._p_minus_1.clear()

    def run():
        r = parse_rational("2^3 * 7^-1 * 97^5")
        rep = represent(r)
        assert verify(rep.m, rep.n, r).holds

    run()
    assert sorted(calls) == [1, 6, 96]  # p - 1 for the peeled primes 2, 7 and 97, once each
    calls.clear()
    run()
    assert calls == []


# --- the construction against the heap loop it replaced -----------------------

def reference_represent(r):
    """The construction as a max-heap of negated primes, each pushed once when it enters the map."""
    rest = dict(r.entries)
    heap = [-p for p in rest]
    heapify(heap)
    m, n, depth = {}, {}, 0
    while heap:
        q = -heappop(heap)
        a = rest.pop(q)
        if a == 0:
            continue
        depth += 1
        if a % 2 == 0:
            half = a // 2
            c = 1 if half >= 0 else 1 - half
            m[q], n[q] = c + half, c
            continue
        if a > 0:
            m[q], sign = (a + 1) // 2, -1
        else:
            n[q], sign = (1 - a) // 2, 1
        for p, e in factorize(q - 1).items():
            if p not in rest:
                heappush(heap, -p)
            s = rest.get(p, 0) + sign * e
            if abs(s) > EXPONENT_LIMIT:
                check_exponent(p, s)
            rest[p] = s
    m_f = FactoredInteger(tuple(sorted(m.items())))
    n_f = FactoredInteger(tuple(sorted(n.items())))
    return Representation(m_f, n_f, r, depth)


def construction_outcome(build, r):
    try:
        return build(r)
    except ExponentOverflowError as exc:
        return type(exc), str(exc)


PRIMES_TO_400 = primes_up_to(400)


@st.composite
def construction_inputs(draw):
    """Primes <= 400; or a largest prime q whose q - 1 cancels some of r's exponents to zero;
    or a prime below 20 with its exponent within 3 of +/-EXPONENT_LIMIT, and a larger prime
    with an odd exponent, so a step may push it past the limit."""
    factors = draw(st.dictionaries(st.sampled_from(PRIMES_TO_400), st.integers(-9, 9).filter(bool), max_size=12))
    kind = draw(st.sampled_from(("plain", "cancel", "overflow")))
    if kind == "cancel":
        q = draw(st.sampled_from(PRIMES_TO_400[1:]))
        a = draw(st.sampled_from((-3, -1, 1, 3)))
        factors = {p: e for p, e in factors.items() if p < q} | {q: a}
        for p, c in factorize(q - 1).items():
            if draw(st.booleans()):
                factors[p] = c if a > 0 else -c  # q's step leaves p at 0
    elif kind == "overflow":
        p = draw(st.sampled_from(PRIMES_TO_400[:8]))
        factors[p] = draw(st.sampled_from((1, -1))) * (EXPONENT_LIMIT - draw(st.integers(0, 3)))
        factors[draw(st.sampled_from(PRIMES_TO_400[8:]))] = draw(st.sampled_from((-1, 1)))  # its q - 1 holds 2
    return FactoredRational.from_factors(factors)


@settings(max_examples=300, deadline=None)
@given(construction_inputs())
@example(parse_rational("7^1 * 3^1 * 2^1"))  # 7's step cancels 3 and 2 to zero
@example(parse_rational(f"7^1 * 3^-{EXPONENT_LIMIT}"))
def test_represent_matches_the_heap_loop(r):
    # The same m, n (entries in order), ratio and depth, or the same refusal.
    assert construction_outcome(represent, r) == construction_outcome(reference_represent, r)


def large_prime_product(count=2000, seed=41):
    """About count primes of 2^23..2^24 with odd exponents: each q - 1 brings primes r lacks."""
    rng = random.Random(seed)
    chosen = {next_prime(rng.randrange(2**23, 2**24 - 2**12)) for _ in range(count)}
    return FactoredRational.from_factors({p: rng.choice((-3, -1, 1, 3)) for p in chosen})


FIXED_INPUTS = {
    "19/47": lambda: parse_rational("19/47"),
    "three-primes": lambda: parse_rational("2^3 * 3^-2 * 53^5"),
    "alternating-3000": lambda: alternating_product(3000),
    "large-primes": large_prime_product,
}


@pytest.mark.parametrize("name", FIXED_INPUTS)
def test_represent_matches_the_heap_loop_on_fixed_inputs(name):
    # Each of the large primes' q - 1 brings primes that r lacks into the newcomer heap; no wall-time gate.
    r = FIXED_INPUTS[name]()
    assert represent(r) == reference_represent(r)


# --- the fused verify against the path through totient_of_square -------------

def reference_verify(m, n, r):
    """(lhs, holds, common_value) by totient_of_square, inverse, product and divmod."""
    tn = totient_of_square(n)
    lhs = totient_of_square(m) * tn.inverse()
    holds = lhs == r
    common = None
    if holds and tn.bit_size() <= EXPANSION_BIT_LIMIT:
        common, rem = divmod(tn.value(), r.denominator().value())
        assert rem == 0
    return lhs, holds, common


def assert_verify_matches_reference(m, n, r):
    report = verify(m, n, r)
    assert (report.lhs, report.holds, report.common_value) == reference_verify(m, n, r)
    assert report.expected is r
    assert type(report.lhs) is FactoredRational


RATIONALS = st.dictionaries(
    st.sampled_from(PRIMES_TO_400), st.integers(min_value=-9, max_value=9).filter(bool), max_size=12
).map(FactoredRational.from_factors)


@settings(max_examples=200, deadline=None)
@given(RATIONALS)
def test_fused_verify_matches_reference_on_true_and_false_claims(r):
    rep = represent(r)
    # A prime that divides none of r, m and n.
    new = next(p for p in primes_up_to(800) if p not in r.factors | rep.m.factors | rep.n.factors)
    for claim in (r, r * factor(2), r * factor(new), r.inverse()):
        assert_verify_matches_reference(rep.m, rep.n, claim)
    assert verify(rep.m, rep.n, r).holds
    assert_verify_matches_reference(rep.n, rep.m, r.inverse())


@settings(max_examples=100, deadline=None)
@given(RATIONALS, RATIONALS)
def test_fused_verify_matches_reference_on_unrelated_pairs(a, b):
    m, n = a.numerator(), b.denominator()
    assert_verify_matches_reference(m, n, a)
    assert_verify_matches_reference(m, n, reference_verify(m, n, a)[0])


def test_fused_verify_common_value_at_the_expansion_guard():
    # phi((2^k)^2) = 2^(2k-1), and bit_size counts 2 bits per power of 2:
    # k = 1,250,000 is the last k whose common value is expanded.
    for k, common in ((1_250_000, 2**2_499_999), (1_250_001, None)):
        f = FactoredInteger(((2, k),))
        assert verify(f, f, FactoredRational()).common_value == common
        assert_verify_matches_reference(f, f, FactoredRational())


# phi(F^2) holds 3^(2^63 + 1): past the exponent range on its own.
F = FactoredInteger(((3, 2**62 + 1),))


def test_verify_range_checks_the_ratio_not_each_side():
    # Only the ratio is range-checked. Where the sides cancel it holds; else the
    # refusal names the ratio's exponent, negative where phi(n^2) holds more.
    report = verify(F, F, FactoredRational())
    assert report.holds
    assert report.lhs == FactoredRational()
    assert report.common_value is None  # phi(n^2) is far past EXPANSION_BIT_LIMIT
    for m, n, e in ((factor(2), F, -(2**63 + 1)), (F, factor(2), 2**63 + 1)):
        with pytest.raises(ExponentOverflowError, match=rf"^exponent {e} for prime 3 exceeds"):
            verify(m, n, FactoredRational())


# --- verify looks up p - 1 only for primes on one side ------------------------

EXPONENTS = st.integers(min_value=1, max_value=6)
# Per prime of one shared set: equal exponents, or independent ones where 0
# leaves the prime off that side.
SIDES = st.one_of(
    EXPONENTS.map(lambda a: (a, a)),
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(PRIMES_TO_400), SIDES, min_size=1, max_size=12))
def test_fused_verify_matches_reference_on_shared_primes(sides):
    m = FactoredInteger.from_factors({p: a for p, (a, _) in sides.items() if a})
    n = FactoredInteger.from_factors({p: b for p, (_, b) in sides.items() if b})
    lhs = reference_verify(m, n, FactoredRational())[0]
    for claim in (lhs, lhs * factor(2), lhs * factor(401), lhs.inverse(), FactoredRational()):
        assert_verify_matches_reference(m, n, claim)
        assert_verify_matches_reference(n, m, claim.inverse())


def test_verify_skips_p_minus_1_on_both_sides_and_expands_on_read(monkeypatch):
    # verify's one accumulator is totient._phi_ratio: its lookups are the ones counted.
    looked_up = []

    class Recording(dict):
        """Empty, so every read is a miss: each is recorded and answered from the memo."""

        def __missing__(self, p):
            looked_up.append(p)
            return primes._p_minus_1[p]

    f = FactoredInteger(tuple((p, i % 3 + 1) for i, p in enumerate(primes_up_to(2000))))
    phi_f_squared = totient_of_square(f).value()
    monkeypatch.setattr(importlib.import_module("phisq.totient"), "_p_minus_1", Recording())

    report = verify(f, f, FactoredRational())
    assert report.holds
    # Nor does the common value factor a p - 1.
    assert report.common_value == phi_f_squared
    assert looked_up == []
    # Only the primes on one side are looked up, each once.
    m, n = f * factor(2003 * 2011), f * factor(2017)
    report = verify(m, n, parse_rational("1/3"))
    assert sorted(looked_up) == [2003, 2011, 2017]
    # 2002 = 2 * 7 * 11 * 13, 2010 = 2 * 3 * 5 * 67 and 2016 = 2^5 * 3^2 * 7.
    assert report.lhs == parse_rational("2^-3 * 3^-1 * 5^1 * 11^1 * 13^1 * 67^1 * 2003^1 * 2011^1 * 2017^-1")

    r = parse_rational("19/47")
    rep = represent(r)
    report = verify(rep.m, rep.n, r)
    assert report.holds
    assert "common_value" not in vars(report)  # not computed until it is read
    assert report.common_value == reference_verify(rep.m, rep.n, r)[2]
    assert vars(report)["common_value"] == report.common_value  # then kept


def test_verify_answers_where_only_cancelling_factors_overflow():
    # phi((3^(2^62) * 7)^2) holds 3^(2^63 - 1) from 3 and 3^1 from 7 - 1: past
    # the range in all. On both sides the two cancel, and the ratio is 1.
    f = FactoredInteger(((3, 2**62), (7, 1)))
    report = verify(f, f, FactoredRational())
    assert report.holds
    assert report.lhs == FactoredRational()
    assert report.common_value is None  # phi(n^2) is far past EXPANSION_BIT_LIMIT
    # Against 13, 13 - 1 = 2^2 * 3 takes the 3^1 of 7 - 1 back: a prime on one
    # side each, and the exponent of 3 in the ratio is 2^63 - 1, in range.
    r = parse_rational(f"3^{2**63 - 1} * 7^1 * 13^-1")
    report = verify(f, factor(13), r)
    assert report.holds
    assert report.lhs == r
    assert report.common_value == 12  # phi(13^2) / 13
    # On one side alone the overflow stands, named by the ratio's exponent: negative from n.
    for m, n, e in ((f, FactoredInteger(), 2**63), (FactoredInteger(), f, -(2**63))):
        with pytest.raises(ExponentOverflowError, match=rf"^exponent {e} for prime 3 exceeds"):
            verify(m, n, FactoredRational())


def test_verify_answers_a_side_the_other_sides_factors_bring_back():
    # 7 - 1 and 13 - 1 put 3^2 on the other side, so the exponent of 3 in the
    # ratio, 2^63 + 1 - 2, is in range though F's own is not: the pair answers.
    r = parse_rational(f"2^-2 * 3^{2**63 - 1} * 7^-1 * 13^-1")
    for m, n, claim, common in ((F, factor(7 * 13), r, 18), (factor(7 * 13), F, r.inverse(), None)):
        report = verify(m, n, claim)
        assert report.holds
        assert report.lhs == claim
        # phi(91^2) = 6552 = 364 * 18; phi(F^2) is far past EXPANSION_BIT_LIMIT.
        assert report.common_value == common


# --- verify never builds a side's totient -------------------------------------

G = FactoredInteger(((3, 2**62), (7, 1)))
# Pairs whose totients leave the exponent range on their own, from the tests above.
PAST_ON_A_SIDE = [
    (F, F), (factor(2), F), (F, factor(2)), (F, factor(7 * 13)), (factor(7 * 13), F),
    (G, G), (G, factor(13)), (G, FactoredInteger()), (FactoredInteger(), G),
]


def verify_outcome(m, n, r):
    """(holds, lhs) of verify, or the type and message of its refusal."""
    try:
        report = verify(m, n, r)
    except ExponentOverflowError as exc:
        return type(exc), str(exc)
    return report.holds, report.lhs


def test_verify_answers_and_refuses_without_a_sides_totient(monkeypatch):
    before = [verify_outcome(m, n, FactoredRational()) for m, n in PAST_ON_A_SIDE]

    def no_totient(f):
        raise AssertionError(f"a side's totient was built for {f}")

    # Bound in either module: a verify that imported them would meet the stubs too.
    for module in ("phisq.totient", "phisq.represent"):
        for name in ("totient", "totient_of_square"):
            monkeypatch.setattr(importlib.import_module(module), name, no_totient, raising=False)
    assert [verify_outcome(m, n, FactoredRational()) for m, n in PAST_ON_A_SIDE] == before
    # Both answers and refusals are among them.
    assert True in (b[0] for b in before) and ExponentOverflowError in (b[0] for b in before)


def reference_ratio_outcome(m, n, r):
    """verify_outcome by a plain dict over factorize(p - 1) that range-checks only the ratio."""
    acc = {}
    for f, sign in ((m, 1), (n, -1)):
        for p, a in f.factors.items():
            acc[p] = acc.get(p, 0) + sign * (2 * a - 1)
            for q, c in factorize(p - 1).items():
                acc[q] = acc.get(q, 0) + sign * c
    ratio = {p: e for p, e in sorted(acc.items()) if e}
    for p, e in ratio.items():
        if abs(e) > EXPONENT_LIMIT:
            return ExponentOverflowError, f"exponent {e} for prime {p} exceeds +/-{EXPONENT_LIMIT}"
    lhs = FactoredRational(tuple(ratio.items()))
    return lhs == r, lhs


# Exponents of m and n: small, or near 2^62, where 2a - 1 reaches the range's edge.
NEAR_THE_EDGE = st.one_of(st.integers(1, 4), st.integers(2**62 - 2, 2**62 + 2))
SIDE = st.dictionaries(st.sampled_from(primes_up_to(50)), NEAR_THE_EDGE, max_size=5).map(
    FactoredInteger.from_factors
)


@settings(max_examples=300, deadline=None)
@given(SIDE, SIDE, st.sampled_from(["one", "ratio", "ratio * 53"]))
@example(F, F, "one")
@example(F, factor(7 * 13), "ratio")
@example(factor(2), F, "one")
def test_verify_matches_a_reference_that_range_checks_only_the_ratio(m, n, claim):
    # The claim is 1, the ratio, or a false one: 53 divides no phi(k^2) with primes <= 50.
    found = reference_ratio_outcome(m, n, FactoredRational())
    r = FactoredRational()
    if claim != "one" and found[0] is not ExponentOverflowError:
        r = found[1] * factor(53) if claim == "ratio * 53" else found[1]
    assert verify_outcome(m, n, r) == reference_ratio_outcome(m, n, r)


@settings(max_examples=200, deadline=None)
@given(SIDE, SIDE)
@example(factor(7 * 13), factor(3 * 5))
def test_verify_ratio_is_the_ratio_of_the_sides_totients(m, n):
    # Where both totients are in range, so is their ratio, and verify must read it.
    try:
        expected = totient_of_square(m) * totient_of_square(n).inverse()
    except ExponentOverflowError:
        assume(False)
    assert verify(m, n, expected).lhs == expected


# --- verify answers a holding claim with r itself -------------------------------

def reference_checked(cls, acc):
    """factored._checked as it was before verify reused r: the sorted keys, their exponents
    range-checked in key order, then the entries with a nonzero exponent."""
    keys = sorted(acc)
    exps = list(map(acc.__getitem__, keys))
    if exps and (max(exps) > EXPONENT_LIMIT or min(exps) < -EXPONENT_LIMIT):
        for p, e in zip(keys, exps):
            check_exponent(p, e)
    return _canonical(cls, tuple(compress(zip(keys, exps), exps)))


def checked_outcome(check, cls, acc):
    """The class and entries check builds, or its refusal's message."""
    try:
        found = check(cls, acc)
    except ExponentOverflowError as exc:
        return str(exc)
    return type(found), found.entries


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(primes_up_to(50)), st.integers(-2, 2) | NEAR_THE_EDGE.map(lambda e: 2 * e - 1), max_size=6))
@example({5: 0, 3: EXPONENT_LIMIT + 1, 2: -EXPONENT_LIMIT - 1})  # the least prime past the range is named
def test_checked_matches_the_reference(acc):
    # Keys in any order, zeros, and exponents on either side of the range's edge.
    for cls in (FactoredRational, FactoredInteger):
        assert checked_outcome(_checked, cls, acc) == checked_outcome(reference_checked, cls, acc)


def checked_verify(m, n, r):
    """verify as it was before it reused r: the ratio always goes through reference_checked."""
    lhs = reference_checked(FactoredRational, _phi_ratio(m.entries, n.entries))
    return tuple.__new__(VerificationReport, (lhs.entries == r.entries, lhs, r, n))


def report_outcome(check, m, n, r):
    """holds, lhs's class and entries, and common_value; or the refusal's type and message."""
    try:
        report = check(m, n, r)
    except ExponentOverflowError as exc:
        return type(exc), str(exc)
    return report.holds, type(report.lhs), report.lhs.entries, report.common_value


CLAIMS = ("ratio", "integer", "exponent + 1", "exponent - 1", "extra prime", "missing prime", "one")


@settings(max_examples=400, deadline=None)
@given(SIDE, SIDE, st.sampled_from(CLAIMS), st.integers(0, 9))
@example(factor(2**3 * 7), FactoredInteger(), "integer", 0)  # phi(56^2) = 2^6 * 3 * 7
@example(factor(7 * 13), factor(3 * 5), "missing prime", 0)
@example(F, factor(7 * 13), "ratio", 0)  # the ratio holds 3^(2^63 - 1)
@example(F, factor(7 * 13), "exponent - 1", 1)  # ... and the claim 3^(2^63 - 2)
@example(F, factor(2), "one", 0)  # the ratio itself is past the range
def test_verify_matches_the_checked_path(m, n, claim, i):
    # The claim is the ratio (as a FactoredInteger where it is one), the ratio with one
    # exponent off by 1, with a prime added or taken away, or 1.
    ratio = report_outcome(checked_verify, m, n, FactoredRational())
    r = FactoredRational()
    if ratio[0] is not ExponentOverflowError and claim != "one":
        entries = list(ratio[2])
        k = i % len(entries) if entries else 0
        if claim == "integer":
            assume(all(e > 0 for _, e in entries))
        elif claim in ("exponent + 1", "exponent - 1") and entries:
            p, e = entries[k]
            entries[k] = p, e + (1 if claim == "exponent + 1" else -1)
            entries = [(p, e) for p, e in entries if e]
        elif claim == "extra prime":
            entries.append((53, 1))  # 53 divides no phi(k^2) with primes <= 50
        elif claim == "missing prime" and entries:
            del entries[k]
        assume(all(abs(e) <= EXPONENT_LIMIT for _, e in entries))
        r = (FactoredInteger if claim == "integer" else FactoredRational)(tuple(entries))
    assert report_outcome(verify, m, n, r) == report_outcome(checked_verify, m, n, r)


def test_verify_refuses_a_claim_that_leaves_out_a_prime_of_the_ratio():
    # 19/47 is the ratio; the claim 19 matches every exponent it has, but 47 is left over.
    r = parse_rational("19/47")
    rep = represent(r)
    for claim in ("19^1", "47^-1", "1"):
        report = verify(rep.m, rep.n, parse_rational(claim))
        assert not report.holds
        assert report.lhs == r
        assert report.common_value is None
    report = verify(rep.m, rep.n, r)
    assert report.holds and report.lhs is r
    # A FactoredInteger claim holds, answered by a FactoredRational of its entries.
    m, n = factor(2**3 * 7), FactoredInteger()
    claim = parse_integer("2^6 * 3^1 * 7^1")
    report = verify(m, n, claim)
    assert report.holds and type(report.lhs) is FactoredRational and report.lhs == claim
