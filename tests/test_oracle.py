import copy
import functools
import importlib
import io
import json
import random
import threading
from bisect import bisect_right
from contextlib import ExitStack, redirect_stdout
from fractions import Fraction
from itertools import accumulate
from math import gcd, prod
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule, run_state_machine_as_test

from phisq import oracle, primes
from phisq.cli import EXIT_INVARIANT_VIOLATION, main
from phisq.errors import ParseError, UnsupportedScaleError
from phisq.factored import FactoredRational, parse_rational
from phisq.oracle import (
    SearchResult,
    brute_force_minimal,
    injectivity_scan,
    phi_square_sequence,
    random_rational,
    sieve_totients,
)
from phisq.primes import primes_up_to
from phisq.represent import represent
from conftest import empty_stores
from test_acceptance import euler_phi

# The module, not the function the package exports under the same name.
represent_module = importlib.import_module("phisq.represent")


# Each test starts from an empty kept table (values, phi, index and rendering),
# and a table built from a patched sieve_totients is gone once the test ends.
pytestmark = pytest.mark.usefixtures("emptied_stores")


def classic_totients(limit):
    """phi(0..limit) by the classic in-place multiplicative sieve, which
    sieve_totients used before it became a least-factor recurrence."""
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:  # i is prime
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    return phi


_REFERENCE_LIMIT = 70000


@functools.cache
def reference_totients():
    return classic_totients(_REFERENCE_LIMIT)


def test_sieve_matches_trial_division_phi():
    phi = sieve_totients(2000)
    for n in range(1, 2001):
        assert phi[n] == euler_phi(n), n


def test_sequence_fixtures():
    assert phi_square_sequence(10) == [1, 2, 6, 8, 20, 12, 42, 32, 54, 40]
    assert phi_square_sequence(1) == [1]
    assert phi_square_sequence(3) == [1, 2, 6]
    with pytest.raises(ValueError):
        phi_square_sequence(0)


def test_text_refuses_a_limit_below_one_even_on_a_warm_table():
    with pytest.raises(ParseError, match="limit must be >= 1, got 0"):
        oracle.phi_square_text(0)
    assert oracle.phi_square_text(20).count("\n") == 19
    with pytest.raises(ParseError, match="limit must be >= 1, got -5"):
        oracle.phi_square_text(-5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: phi_square_sequence(0), "limit must be >= 1, got 0"),
        (lambda: brute_force_minimal(parse_rational("3"), 0), "bound must be >= 1, got 0"),
        (lambda: injectivity_scan(1), "limit must be >= 2, got 1"),
        # Past 49 digits a number is named by its length, sign and all.
        (lambda: phi_square_sequence(-(10**49) + 1), f"limit must be >= 1, got {-(10**49) + 1}"),
        (lambda: brute_force_minimal(parse_rational("3"), -(10**49)), "bound must be >= 1, got a 50-digit negative number"),
        (lambda: injectivity_scan(-(10**4999)), "limit must be >= 2, got a 5000-digit negative number"),
    ],
    ids=["sequence", "search", "injectivity", "sequence-49-digits", "search-50-digits", "injectivity-5000-digits"],
)
def test_oracles_own_their_range_checks(call, message):
    # ParseError, which main maps to exit 1, and still a ValueError for library callers.
    with pytest.raises(ParseError, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)


def test_injectivity_scan_finds_nothing():
    assert injectivity_scan(2) is None
    assert injectivity_scan(100) is None
    assert injectivity_scan(10**4) is None


def test_injectivity_scan_answers_the_same_on_a_warm_table():
    phi_square_sequence(20000)
    test_injectivity_scan_finds_nothing()


def test_injectivity_scan_reports_first_collision(monkeypatch):
    # A corrupted totient table must surface as a collision.
    monkeypatch.setattr(oracle, "sieve_totients", lambda limit, phi=None: [0, 1] + [0] * (limit - 1))
    assert injectivity_scan(10) == (2, 3)


_KEPT = oracle._KEEP_LIMIT


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.one_of(st.integers(1, 3000), st.sampled_from([_KEPT - 1, _KEPT, _KEPT + 1, 20000])),
    min_size=1, max_size=5,
))
def test_sequence_equals_a_fresh_sieve_in_any_order(limits):
    # Growing, shrinking and crossing the kept bound in any order gives the
    # sieve's own answer, and no table past the bound is kept.
    with empty_stores() as kept:
        for limit in limits:
            phi = sieve_totients(limit)
            assert phi_square_sequence(limit) == [k * phi[k] for k in range(1, limit + 1)], limits
            assert len(kept.v) <= _KEPT + 1


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.one_of(st.integers(1, 3000), st.sampled_from([_KEPT - 1, _KEPT, _KEPT + 1, 20000])),
    min_size=1, max_size=5,
))
def test_sequence_text_equals_a_fresh_sieve_in_any_order(limits):
    # The plain output is a slice of the kept rendering, grown in any order:
    # it is byte for byte a fresh render, and never covers more than the bound.
    with empty_stores() as kept:
        for limit in limits:
            phi = sieve_totients(limit)
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["sequence", str(limit)]) == 0
            assert out.getvalue() == "\n".join(str(k * phi[k]) for k in range(1, limit + 1)) + "\n", limits
            assert kept.text.count("\n") == kept.lines <= _KEPT
            rendering_holds(kept)


def rendering_holds(table):
    """The table's text is the lines of v[1..lines], and marks[c] is the length of its lines 1..c * _MARK."""
    mark, lines = oracle._MARK, table.lines
    rendered = [f"\n{x}" for x in table.v[1 : lines + 1]]
    assert table.text == "".join(rendered)
    ends = list(accumulate(map(len, rendered), initial=0))
    assert list(table.marks) == ends[::mark]


def test_the_kept_text_reads_at_and_around_each_mark():
    # Reads that end one short of a mark, on it and one past it, each growing the text
    # or reading a warm slice of it, are byte for byte a fresh render; 4096 is a mark too.
    mark, phi = oracle._MARK, reference_totients()
    limits = (1, mark - 1, mark, mark + 1, 3 * mark - 1, 2 * mark, 3 * mark, 3 * mark + 1, 2, 5 * mark + 7, 4096, 4097)
    for limit in limits:
        assert oracle.phi_square_text(limit) == "\n".join(str(k * phi[k]) for k in range(1, limit + 1)), limit
        rendering_holds(oracle._kept)
    assert oracle._kept.lines == max(limits)


def test_sequence_json_equals_a_fresh_sieve():
    for limit in [1, 3000, _KEPT + 1, 20]:
        phi = sieve_totients(limit)
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["sequence", str(limit), "--json"]) == 0
        assert json.loads(out.getvalue())["values"] == [k * phi[k] for k in range(1, limit + 1)]


def test_text_past_the_kept_bound_is_a_render_of_the_sieve_across_block_edges():
    # Past the bound the text is joined in blocks of _KEEP_LIMIT lines: at an
    # edge no line is lost, repeated or joined without its newline.
    # Within the classic sieve's reach, the reference shares no code with phisq's sieve.
    sieved, classic = sieve_totients(3 * _KEPT + 5), reference_totients()
    for limit, phi in ((_KEPT + 1, sieved), (65600, classic), (2 * _KEPT, sieved), (2 * _KEPT + 1, sieved),
                       (3 * _KEPT + 5, sieved)):
        assert oracle.phi_square_text(limit) == "\n".join(str(k * phi[k]) for k in range(1, limit + 1)), limit
    assert len(oracle._kept.v) == 1


def test_mutating_a_sequence_leaves_the_next_answer():
    values = phi_square_sequence(100)
    values[:] = [0] * 100
    assert phi_square_sequence(10) == [1, 2, 6, 8, 20, 12, 42, 32, 54, 40]
    assert phi_square_sequence(100)[-1] == 100 * euler_phi(100)


def test_table_is_sieved_only_when_it_grows(monkeypatch):
    sieved = []
    monkeypatch.setattr(oracle, "sieve_totients", lambda limit, phi=None: sieved.append(limit) or sieve_totients(limit, phi))
    phi_square_sequence(100)
    phi_square_sequence(50)
    injectivity_scan(100)
    brute_force_minimal(parse_rational("3"), 80)
    phi_square_sequence(200)
    assert sieved == [100, 200]
    # Past the kept bound every request sieves, and the kept table stays.
    phi_square_sequence(_KEPT + 1)
    phi_square_sequence(_KEPT + 1)
    phi_square_sequence(150)
    assert sieved == [100, 200, _KEPT + 1, _KEPT + 1]
    # A request at the kept bound itself grows the kept table.
    phi_square_sequence(_KEPT)
    phi_square_sequence(_KEPT)
    assert sieved[4:] == [_KEPT] and len(oracle._kept.v) == _KEPT + 1


def test_sieve_equals_the_classic_sieve():
    # Every small limit, either side of a square (a new d <= isqrt(limit)) and
    # of the kept bound, and the largest reference limit.
    phi = reference_totients()
    for limit in [*range(-3, 300), 960, 961, 962, 65535, 65536, 65537, _REFERENCE_LIMIT]:
        assert sieve_totients(limit) == phi[: max(limit + 1, 0)], limit


@settings(max_examples=40, deadline=None)
@given(st.integers(0, _REFERENCE_LIMIT), st.integers(0, _REFERENCE_LIMIT))
@example(0, 1)
@example(1, 2)
@example(2, 4)
@example(3, 9)
@example(120, 121)
@example(140, 20000)
def test_an_extended_sieve_equals_a_fresh_one(a, b):
    low, limit = sorted((a, b))
    phi = sieve_totients(low)
    assert sieve_totients(limit, phi) is phi
    assert phi == sieve_totients(limit) == reference_totients()[: limit + 1], (low, limit)
    # A list that already reaches the limit is returned as it is.
    assert sieve_totients(low, phi) is phi and len(phi) == limit + 1


def per_prime_totients(limit):
    """phi(0..limit) from each prime's own pass over its multiples, phi(j) = j * prod (1 - 1/p):
    no least factor, parity or slice in it."""
    phi, prime = list(range(limit + 1)), [True] * (limit + 1)
    for p in range(2, limit + 1):
        if prime[p]:
            for j in range(p, limit + 1, p):
                prime[j] = j == p
                phi[j] = phi[j] // p * (p - 1)
    return phi


_SIEVE_EDGES = st.one_of(
    st.integers(0, 2100),
    st.sampled_from([(1 << t) + d for t in range(1, 12) for d in (-1, 0, 1)]),
)


@settings(max_examples=60, deadline=None)
@given(_SIEVE_EDGES, _SIEVE_EDGES)
@example(0, 0)
@example(0, 1)
@example(0, 2048)
@example(1, 2)
@example(1, 1025)
@example(2, 3)
@example(2, 1024)
@example(7, 16)
@example(8, 33)
@example(15, 64)
@example(64, 127)
@example(1023, 2049)
def test_an_extension_from_either_parity_equals_a_per_prime_sieve(a, b):
    # A table grown from lo to limit, each odd or even, at and beside powers of two,
    # where the even values' shifts change.
    lo, limit = sorted((a, b))
    phi = sieve_totients(lo)
    assert sieve_totients(limit, phi) is phi
    assert phi == per_prime_totients(limit), (lo, limit)


class Brittle(list):
    """A list whose writes through __setitem__ raise MemoryError once the given number of them is spent."""

    def __init__(self, values, writes):
        super().__init__(values)
        self.writes = writes

    def __setitem__(self, key, value):
        self.writes -= 1
        if self.writes == 0:
            raise MemoryError
        super().__setitem__(key, value)


def test_an_interrupted_extension_leaves_phi_as_it_was():
    # phi(101..1000) takes 450 writes of odd values, then one slice write for each
    # shift t = 1..9 of the even ones.  A fault at any of them cuts phi back to
    # phi(0..100), so no placeholder is left for a later request to read.
    old = sieve_totients(100)
    for fault in (1, 2, 200, 450, 451, 452, 455, 459):
        phi = Brittle(old, fault)
        with pytest.raises(MemoryError):
            sieve_totients(1000, phi)
        assert phi == old, fault
        assert sieve_totients(1000, phi) is phi and phi == reference_totients()[:1001], fault
    # With a write to spare, nothing raises.
    phi = Brittle(old, 460)
    assert sieve_totients(1000, phi) == reference_totients()[:1001]


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.one_of(st.integers(1, 3000), st.sampled_from([_KEPT - 1, _KEPT, _KEPT + 1, _KEPT + 2, 20000])),
    min_size=1, max_size=6,
))
def test_table_equals_the_classic_sieve_in_any_order(limits):
    # Growing and shrinking across the kept bound, on the kept path and the
    # dropped one, gives k * phi(k) of the classic sieve; the kept lists stay
    # equal to it and never pass the bound.
    phi = reference_totients()
    with empty_stores() as table:
        for limit in limits:
            assert oracle._table_for(limit).v[: limit + 1] == [k * phi[k] for k in range(limit + 1)], limits
            kept = len(table.v) - 1
            assert kept <= _KEPT and len(table.phi) == kept + 1
            assert table.phi == phi[: kept + 1]
            assert table.v == [k * phi[k] for k in range(kept + 1)]


def test_a_growth_computes_only_the_missing_values():
    phi_square_sequence(100)
    table, phi = oracle._kept.v, oracle._kept.phi
    old_table, old_phi = table[:], phi[:]
    phi_square_sequence(200)
    # The same lists, grown by exactly phi(101..200) and v[101..200]; the
    # values they held are the very same objects, not recomputed ones.
    assert oracle._kept.v is table and oracle._kept.phi is phi
    assert len(phi) - len(old_phi) == len(table) - len(old_table) == 100
    assert all(a is b for a, b in zip(old_phi, phi)) and all(a is b for a, b in zip(old_table, table))
    assert table == [k * euler_phi(k) for k in range(201)]


def printed(*argv):
    """What main(argv) prints on stdout; it must exit 0."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def test_a_request_past_the_kept_bound_leaves_the_kept_lists(monkeypatch):
    # Every part of the kept table is warm: values, phi, rendering and index.
    assert oracle.phi_square_text(3000).count("\n") == 2999
    assert injectivity_scan(3000) is None
    kept = oracle._kept
    parts = {name: getattr(kept, name) for name in ("v", "phi", "index", "collision", "text", "marks", "lines")}
    contents = {name: copy.copy(part) for name, part in parts.items()}
    handed = []
    monkeypatch.setattr(
        oracle, "sieve_totients", lambda limit, phi=None: handed.append(len(phi)) or sieve_totients(limit, phi)
    )

    past = _KEPT + 1  # a prime: phi(past^2) = past * (past - 1)
    requests = [
        ("sequence", lambda: printed("sequence", str(past)), lambda out: out.endswith(f"\n{past * (past - 1)}\n")),
        (
            "sequence --json", lambda: printed("sequence", str(past), "--json"),
            lambda out: json.loads(out)["values"][-1] == past * (past - 1),
        ),
        (
            "search hit", lambda: repr(brute_force_minimal(parse_rational("19/47"), 100000)),
            lambda out: out == repr(SearchResult(True, 13110, 18612, 100000)),
        ),
        (
            "search miss", lambda: repr(brute_force_minimal(parse_rational("7/65521"), past)),
            lambda out: out == repr(SearchResult(False, None, None, past)),
        ),
        ("injectivity scan", lambda: repr(injectivity_scan(past)), lambda out: out == "None"),
        (
            "phi_square_sequence", lambda: repr(phi_square_sequence(past)),
            lambda out: out.endswith(f", {past * euler_phi(past)}]"),
        ),
    ]
    for name, answer, holds in requests:
        with empty_stores():
            on_an_empty_table = answer()
        handed.clear()
        out = answer()
        assert holds(out) and out == on_an_empty_table, name
        # The request's own table started empty: the sieve was handed phi(0)
        # alone, and every part of the kept table is the same object with the
        # same contents.
        assert handed == [1], (name, handed)
        assert oracle._kept is kept, name
        for part, value in parts.items():
            assert getattr(kept, part) is value and value == contents[part], (name, part)
    with pytest.raises(UnsupportedScaleError):
        phi_square_sequence(oracle._SIEVE_CAP + 1)
    assert len(kept.v) == 3001 and len(kept.index) == kept.lines == 3000


def test_a_table_past_the_kept_bound_drops_phi_before_it_is_indexed(monkeypatch):
    # A one-request table serves a request that reads only v: holding
    # phi(0..bound) while the index grows would add a list as long as the table
    # to the peak.
    indexed = []
    grow_index = oracle._Table.grow_index
    monkeypatch.setattr(oracle._Table, "grow_index", lambda table, limit: indexed.append(table) or grow_index(table, limit))
    assert injectivity_scan(_KEPT + 1) is None
    assert brute_force_minimal(parse_rational("7/65521"), _KEPT + 1) == SearchResult(False, None, None, _KEPT + 1)
    assert indexed and all(table is not oracle._kept and table.phi is None for table in indexed)
    assert len(indexed[-1].v) == _KEPT + 2


_SMALL_KEEP = 64
_SMALL_LIMITS = st.one_of(st.sampled_from([_SMALL_KEEP - 1, _SMALL_KEEP, _SMALL_KEEP + 1]),
                          st.integers(1, 3 * _SMALL_KEEP))


def planted(table, j, c):
    """table, whose v[c] is made v[j] as soon as it holds v[c], before its index or text reads it."""
    grow = table.grow

    def grow_and_collide(limit):
        grow(limit)
        if len(table.v) > c:
            table.v[c] = table.v[j]

    table.grow = grow_and_collide
    grow_and_collide(0)
    return table


def outcome(call):
    """call()'s answer, or the type and message of the RuntimeError it raises."""
    try:
        return call()
    except RuntimeError as exc:
        return RuntimeError, str(exc)


def answered_on(table, call):
    """outcome(call) with table as the kept one, and the kept one back."""
    with empty_stores(table):
        return outcome(call)


class TableMachine(RuleBasedStateMachine):
    """A model of the table with _KEEP_LIMIT at 64 and _MARK at 5: requests on either side of
    the bound, in any order, each answering as on an empty table, while the kept
    lists hold their invariants and never pass the bound.

    One rule plants a collision (j, c) in the kept table, v[c] = v[j], and the
    empty table each answer is compared against carries it too.  A table past
    the bound is a new one and stays clean.  Each run's kept table, grown under
    the patched bounds and perhaps planted, is put back once the run ends."""

    def __init__(self):
        super().__init__()
        self.stores = ExitStack()
        self.stores.enter_context(empty_stores())
        self.collision = None

    def teardown(self):
        self.stores.close()

    def empty(self):
        return planted(oracle._Table(), *self.collision) if self.collision else oracle._Table()

    def check(self, call):
        # The answer on the kept table, then on an empty one.
        answer = outcome(call)
        assert answered_on(self.empty(), call) == answer
        return answer

    def unread(self):
        """The least k >= 2 whose kept value neither the index nor the text has read."""
        kept = oracle._kept
        return max(len(kept.index), kept.lines, 1) + 1

    @precondition(lambda self: self.collision is None and self.unread() <= _SMALL_KEEP)
    @rule(data=st.data())
    def collide(self, data):
        # A value the kept table holds now, or once it grows to it.
        c = data.draw(st.integers(self.unread(), _SMALL_KEEP), label="c")
        j = data.draw(st.integers(1, c - 1), label="j")
        planted(oracle._kept, j, c)
        self.collision = (j, c)

    @rule(limit=_SMALL_LIMITS, as_json=st.booleans())
    def sequence(self, limit, as_json):
        self.check(lambda: printed("sequence", str(limit), *["--json"] * as_json))

    @rule(limit=_SMALL_LIMITS)
    def text(self, limit):
        self.check(lambda: oracle.phi_square_text(limit))

    @rule(limit=_SMALL_LIMITS.filter(lambda limit: limit >= 2))
    def scan(self, limit):
        answer = self.check(lambda: injectivity_scan(limit))
        j, c = self.collision or (0, limit + 1)
        assert answer == ((j, c) if c <= limit <= _SMALL_KEEP else None)

    @rule(p=st.integers(1, 60), q=st.integers(1, 60), bound=_SMALL_LIMITS, near=st.sampled_from([None, -1, 0, 1]))
    def search(self, p, q, bound, near):
        if self.collision and near is not None:  # a bound next to a planted c
            bound = max(self.collision[1] + near, 1)
        call = lambda: brute_force_minimal(parse_rational(f"{p}/{q}"), bound)
        table = oracle._Table()
        answer, clean = self.check(call), answered_on(table, call)
        # The collision raises iff c is at or below the clean answer's top, or the bound on a
        # miss that reads the table: a prime above the bound or a side too wide misses unread.
        j, c = self.collision if self.collision and bound <= _SMALL_KEEP else (0, bound + 1)
        top = max(clean.m, clean.n) if clean.found else bound if len(table.v) > 1 else 0
        assert answer == ((RuntimeError, f"phi(k^2) collides at k = {j} and k = {c}") if c <= top else clean)

    @invariant()
    def kept_lists_hold(self):
        kept, phi = oracle._kept, reference_totients()
        top = len(kept.v) - 1
        assert top <= _SMALL_KEEP and kept.phi == phi[: top + 1]
        v = [k * phi[k] for k in range(top + 1)]
        j, c = self.collision or (0, top + 1)
        if c <= top:
            v[c] = v[j]  # the planted collision, and nothing else
        assert kept.v == v
        assert kept.lines <= top
        rendering_holds(kept)
        # The index is exact up to its length; it stops at the planted collision and meets no other.
        n = len(kept.index)
        assert n <= top and kept.index == {v[k]: k for k in range(1, n + 1)}
        assert kept.collision is None and n < c or kept.collision == self.collision and n == c - 1 and c <= top


def test_the_table_answers_as_an_empty_one_in_any_order(monkeypatch):
    monkeypatch.setattr(oracle, "_KEEP_LIMIT", _SMALL_KEEP)
    monkeypatch.setattr(oracle, "_MARK", 5)  # about a dozen marks in the model's kept text
    run_state_machine_as_test(TableMachine, settings=settings(max_examples=60, stateful_step_count=20, deadline=None))


READERS = {
    "sequence": phi_square_sequence,
    "text": oracle.phi_square_text,
    "scan": injectivity_scan,
    "search": lambda limit: brute_force_minimal(parse_rational("3"), limit),
}


@pytest.mark.parametrize("first, second", [("sequence", "scan"), ("text", "search")])
def test_two_threads_grow_the_kept_table_one_after_the_other(monkeypatch, first, second):
    # The first sieve that grow calls works out phi's new values from the phi it was
    # handed, then waits until a second thread's request has sieved inside _table_for,
    # and only then appends them, as a thread switch inside sieve_totients would.
    # Unlocked, the second sieve extends the same phi in between and phi is extended
    # twice; held by the lock, the second thread waits, and so the wait times out.
    monkeypatch.setattr(oracle, "_KEEP_LIMIT", _SMALL_KEEP)
    calls = [lambda: READERS[first](40), lambda: READERS[second](60), lambda: phi_square_sequence(_SMALL_KEEP)]
    expected = [answered_on(oracle._Table(), call) for call in calls]
    waiting, second_sieved, sieves = threading.Event(), threading.Event(), []

    def interrupted(limit, phi=None):
        sieves.append(limit)
        if len(sieves) > 1:
            phi = sieve_totients(limit, phi)
            second_sieved.set()
            return phi
        new = sieve_totients(limit, phi[:])[len(phi) :]
        waiting.set()
        second_sieved.wait(timeout=0.5)
        phi += new
        return phi

    monkeypatch.setattr(oracle, "sieve_totients", interrupted)
    answers = [None, None]
    threads = [threading.Thread(target=lambda i=i: answers.__setitem__(i, outcome(calls[i]))) for i in (0, 1)]
    threads[0].start()
    assert waiting.wait(timeout=10)
    threads[1].start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert answers == expected[:2]
    TableMachine.kept_lists_hold(SimpleNamespace(collision=None))
    # A later request that grows the kept table reads what the two left behind.
    assert outcome(calls[2]) == expected[2]
    TableMachine.kept_lists_hold(SimpleNamespace(collision=None))


@pytest.mark.parametrize(
    "past, kept", [("sequence", "text"), ("text", "scan"), ("scan", "search"), ("search", "sequence")]
)
def test_a_request_past_the_kept_bound_leaves_the_lock_to_the_kept_table(monkeypatch, past, kept):
    # A one-request table shares nothing with the kept one, so it is built and read
    # without _lock: while its sieve waits, a request on the kept table answers.
    calls = [lambda: READERS[past](_KEPT + 1), lambda: READERS[kept](100)]
    expected = [answered_on(oracle._Table(), call) for call in calls]
    building, release = threading.Event(), threading.Event()

    def held(limit, phi=None):
        if limit > _KEPT:
            building.set()
            release.wait(timeout=10)
        return sieve_totients(limit, phi)

    monkeypatch.setattr(oracle, "sieve_totients", held)
    answers = [None, None]
    threads = [threading.Thread(target=lambda i=i: answers.__setitem__(i, outcome(calls[i]))) for i in (0, 1)]
    threads[0].start()
    try:
        assert building.wait(timeout=10)
        threads[1].start()
        threads[1].join(timeout=5)
        assert not threads[1].is_alive() and answers[1] == expected[1]
        assert answers[0] is None  # the past-bound request is still waiting on its sieve
    finally:
        release.set()
        for thread in threads:
            if thread.is_alive():
                thread.join(timeout=10)
    assert answers == expected


def test_the_sieve_names_a_huge_limit_by_its_digit_count():
    # Counted without str(), which raises ValueError past 4300 digits.
    for limit, shown in ((10**49 - 1, str(10**49 - 1)), (10**49, "a 50-digit limit"), (10**5000, "a 5001-digit limit")):
        with pytest.raises(UnsupportedScaleError) as info:
            sieve_totients(limit)
        assert str(info.value) == f"a totient sieve to {shown} exceeds the cap of {oracle._SIEVE_CAP}"


def test_the_table_needs_nothing_from_the_factored_path(monkeypatch):
    # The selftest checks the factored path against this table, which must not
    # lean on the primes module it is checking.
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called into the factored path")

    r = parse_rational("19/47")
    monkeypatch.setattr(oracle, "primes_up_to", refuse)
    monkeypatch.setattr(primes, "factorize", refuse)
    monkeypatch.setattr(primes, "is_prime", refuse)
    # The search is the construction's check, so it must not ask the construction either.
    monkeypatch.setattr(represent_module, "represent", refuse)
    values = phi_square_sequence(20000)
    for k in [1, 2, 97, 1024, 9973, 10000, 19997, 20000]:
        assert values[k - 1] == k * euler_phi(k), k
    assert injectivity_scan(20000) is None
    assert brute_force_minimal(r, 20000) == SearchResult(True, 13110, 18612, 20000)


def test_a_collision_counts_only_within_the_callers_limit(monkeypatch):
    # A corrupted sieve makes phi(50^2) = phi(51^2) = 2550 in a table built
    # to 100.  The scan sees it exactly when its limit reaches 51; the search
    # sees it exactly when its own scan reaches k = 51, and so never on a hit
    # at a lower top, which reads no k past that top.
    def corrupted(limit, phi=None):
        phi = sieve_totients(limit)
        phi[50], phi[51] = 51, 50
        return phi

    monkeypatch.setattr(oracle, "sieve_totients", corrupted)
    assert phi_square_sequence(100)[49:51] == [2550, 2550]
    assert injectivity_scan(60) == (50, 51)
    assert injectivity_scan(50) is None
    assert brute_force_minimal(parse_rational("3"), 10) == SearchResult(True, 3, 2, 10)
    assert brute_force_minimal(parse_rational("3"), 60) == SearchResult(True, 3, 2, 60)
    assert brute_force_minimal(parse_rational("19/47"), 50) == SearchResult(False, None, None, 50)
    # A miss, and the hit (1, 60) for 1/960 = phi(1)/phi(60^2), both pass k = 51.
    for text in ("19/47", "1/960"):
        with pytest.raises(RuntimeError, match="k = 50 and k = 51"):
            brute_force_minimal(parse_rational(text), 60)
    # The scan and the search grow one index, in either order.  A search whose
    # stages stop below the collision, then a scan below it, read none; a scan
    # at the collision reads it.
    with empty_stores() as kept:
        assert phi_square_sequence(100)[49:51] == [2550, 2550]
        assert brute_force_minimal(parse_rational("1/768"), 40) == SearchResult(False, None, None, 40)
        assert len(kept.index) == 40
        assert injectivity_scan(50) is None
        assert injectivity_scan(51) == (50, 51)
    # A scan past the collision, then a search hit below it, still answers.
    with empty_stores() as kept:
        assert injectivity_scan(100) == (50, 51)
        assert brute_force_minimal(parse_rational("3"), 60) == SearchResult(True, 3, 2, 60)
        assert injectivity_scan(50) is None and injectivity_scan(51) == (50, 51)
        assert kept.collision == (50, 51) and len(kept.index) == 50


def test_brute_force_fixtures():
    assert brute_force_minimal(parse_rational("3"), 10) == SearchResult(True, 3, 2, 10)
    assert brute_force_minimal(parse_rational("1"), 10) == SearchResult(True, 1, 1, 10)
    assert brute_force_minimal(parse_rational("2"), 10) == SearchResult(True, 2, 1, 10)
    # 20 = phi(5^2)/phi(1^2): a prime of r at the bound still hits; past it, r misses.
    assert brute_force_minimal(parse_rational("20"), 5) == SearchResult(True, 5, 1, 5)
    assert brute_force_minimal(parse_rational("20"), 4) == SearchResult(False, None, None, 4)
    # 5/3 walks its 5 side, and the partner of m = 5 is n = 6, the bound itself.
    assert brute_force_minimal(parse_rational("5/3"), 6) == SearchResult(True, 5, 6, 6)
    # The least pair's top is the last stage, 1024 = 2^4 * 64, or one past the bound.
    r = parse_rational("2^18 * 3^-11")
    assert brute_force_minimal(r, 1024) == SearchResult(True, 1024, 729, 1024)
    assert brute_force_minimal(r, 1023) == SearchResult(False, None, None, 1023)


def test_brute_force_none_under_bound():
    # phi(n^2) = 0 mod 47 forces n in {47, 94} below 100, and neither
    # completes a pair: no m <= 100 has m*phi(m) in {874, 1748}.
    result = brute_force_minimal(parse_rational("19/47"), 100)
    assert result == SearchResult(False, None, None, 100)


def test_brute_force_result_is_minimal_in_scan_order():
    # Independent enumeration of every solution, then explicit min().
    for text in ["3", "1/3", "4/5", "6", "9/8"]:
        r = parse_rational(text)
        p, q = r.numerator().value(), r.denominator().value()
        bound = 60
        solutions = [
            (m, n)
            for m in range(1, bound + 1)
            for n in range(1, bound + 1)
            if phi_sq(m) * q == phi_sq(n) * p
        ]
        result = brute_force_minimal(r, bound)
        if solutions:
            best = min(solutions, key=lambda mn: (max(mn), mn[0], mn[1]))
            assert (result.m, result.n) == best
        else:
            assert not result.found


def phi_sq(k):
    return k * euler_phi(k)


def test_brute_force_found_pairs_satisfy_ratio():
    rng = random.Random(41)
    for _ in range(20):
        p = rng.randint(1, 10)
        q = rng.randint(1, 10)
        g = gcd(p, q)
        r = parse_rational(f"{p // g}/{q // g}")
        result = brute_force_minimal(r, 120)
        if result.found:
            assert phi_sq(result.m) * (q // g) == phi_sq(result.n) * (p // g)
            assert max(result.m, result.n) <= 120


def reference_minimal(r, bound):
    """The O(bound^2) pair scan brute_force_minimal used before its value index."""
    p = r.numerator().value()
    q = r.denominator().value()
    phi = sieve_totients(bound)
    lhs = [0] * (bound + 1)  # phi(k^2) * q
    rhs = [0] * (bound + 1)  # phi(k^2) * p
    for k in range(1, bound + 1):
        v = k * phi[k]
        lhs[k] = v * q
        rhs[k] = v * p
    for top in range(1, bound + 1):
        for m in range(1, top):
            if lhs[m] == rhs[top]:
                return SearchResult(found=True, m=m, n=top, bound=bound)
        for n in range(1, top + 1):
            if lhs[top] == rhs[n]:
                return SearchResult(found=True, m=top, n=n, bound=bound)
    return SearchResult(found=False, m=None, n=None, bound=bound)


def index_minimal(r, bound):
    """The search before it walked candidates: one loop over top indexes
    v[top] = phi(top^2) by value, raising at the first collision, then looks up
    m = v^-1(v[top] * p / q) with m < top and n = v^-1(v[top] * q / p) with
    n <= top.  It reads a table of its own from oracle.sieve_totients."""
    v = [k * f for k, f in enumerate(oracle.sieve_totients(bound))]
    p, q = r.numerator().value(), r.denominator().value()
    index = {}
    for top in range(1, bound + 1):
        w = v[top]
        if (j := index.setdefault(w, top)) != top:
            raise RuntimeError(f"phi(k^2) collides at k = {j} and k = {top}")
        if not w % q and (m := index.get(w // q * p, top)) < top:
            return SearchResult(found=True, m=m, n=top, bound=bound)
        if not w % p and (n := index.get(w // p * q, top + 1)) <= top:
            return SearchResult(found=True, m=top, n=n, bound=bound)
    return SearchResult(found=False, m=None, n=None, bound=bound)


_SCAN_TOP = 2100
STAGE_EDGES = [edge + d for edge in (64, 128, 256, 512, 1024, 2048) for d in (-1, 0, 1)]
PRIMES_TO_TOP = primes_up_to(_SCAN_TOP)


@functools.cache
def values_to_top():
    return [k * f for k, f in enumerate(reference_totients()[: _SCAN_TOP + 1])]


def rational(f):
    return parse_rational(str(Fraction(f)))


ratios = st.one_of(
    # Attained: v[a] / v[b] has a pair with max(m, n) <= max(a, b).
    st.tuples(st.integers(1, _SCAN_TOP), st.integers(1, _SCAN_TOP)).map(
        lambda ab: rational(Fraction(values_to_top()[ab[0]], values_to_top()[ab[1]]))
    ),
    st.just(rational(1)),
    st.integers(2, 3000).map(rational),
    st.integers(2, 3000).map(lambda n: rational(Fraction(1, n))),
    # Only 2 and 3, which the search walks through every k.
    st.tuples(st.integers(-20, 20), st.integers(-12, 12)).map(lambda ab: rational(Fraction(2) ** ab[0] * Fraction(3) ** ab[1])),
    # Sieved misses, mostly: a prime up to the top over or under a small number.
    st.tuples(st.sampled_from(PRIMES_TO_TOP[100:]), st.integers(1, 60), st.sampled_from([1, -1])).map(
        lambda t: rational(Fraction(t[0], t[1]) ** t[2])
    ),
)


# A bound near the least pair's top (the top itself if d = 0; the scan's top on a miss), or a given one.
bounds = st.one_of(
    st.sampled_from([-1, 0, 1]).map(lambda d: ("near", d)),
    st.sampled_from(STAGE_EDGES).map(lambda b: ("at", b)),
    st.integers(1, _SCAN_TOP).map(lambda b: ("at", b)),
)
TWO_THREE = parse_rational("2^18 * 3^-11")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 1, 100, 1500, _SCAN_TOP, 20000]), st.lists(st.tuples(ratios, bounds), min_size=1, max_size=3))
@example(0, [(TWO_THREE, ("near", -1)), (TWO_THREE, ("near", 0)), (TWO_THREE, ("near", 1))])
@example(20000, [(parse_rational("19/47"), ("at", 2048)), (TWO_THREE, ("at", 1025)), (rational(1), ("at", 1))])
def test_search_equals_the_index_scan(warm, searches):
    # On a cold table or one sieved to `warm`, searches in turn share the kept
    # index, and each answers as the full index scan does.
    with empty_stores():
        if warm:
            phi_square_sequence(warm)
        for r, (kind, b) in searches:
            if kind == "near":
                first = index_minimal(r, _SCAN_TOP)
                b = max(max(first.m, first.n) + b, 1) if first.found else _SCAN_TOP
            assert brute_force_minimal(r, b) == index_minimal(r, b), (r, b)


CANDIDATE_CASES = [
    (1, 1, 50),
    (2, 2, 100),
    (2**7, 2, 300),
    (3, 3, 100),
    (2 * 3**4, 3, 500),
    (5**2, 5, 400),
    (7, 7, 200),  # the multiples of 29, the first prime 1 (mod 7)
    (2 * 7**2, 7, 1000),
    (47, 47, 1000),  # the multiples of 283 = 6 * 47 + 1
    (3 * 11 * 13, 13, 2000),
    (997, 997, 1000),  # the largest prime below the limit
    (1009, 1009, 1000),  # the least prime above it
]


@pytest.mark.parametrize("x, ell, limit", CANDIDATE_CASES)
def test_candidates_are_exactly_the_ks_x_divides(x, ell, limit):
    v = values_to_top()
    assert sorted(oracle._candidates(v, x, ell, limit)) == [k for k in range(1, limit + 1) if v[k] % x == 0]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, _SCAN_TOP), st.data())
def test_candidates_equal_a_filter_of_every_k(limit, data):
    # x's largest prime ell is 2, 3, a middle prime, one near the limit or one past it.
    at_most = PRIMES_TO_TOP[: bisect_right(PRIMES_TO_TOP, limit)] or [2]
    ell = data.draw(st.one_of(
        st.sampled_from([2, 3]),
        st.sampled_from(PRIMES_TO_TOP[3:60]),
        st.sampled_from(at_most[-3:]),
        st.just(PRIMES_TO_TOP[bisect_right(PRIMES_TO_TOP, limit)] if limit < PRIMES_TO_TOP[-1] else 2111),
    ), label="ell")
    rest = data.draw(st.dictionaries(st.sampled_from(PRIMES_TO_TOP[:8]).filter(ell.__gt__), st.integers(1, 3), max_size=2), label="rest")
    x = ell ** data.draw(st.integers(1, 3), label="power") * prod(b**e for b, e in rest.items())
    v = values_to_top()
    assert sorted(oracle._candidates(v, x, ell, limit)) == [k for k in range(1, limit + 1) if v[k] % x == 0], (x, ell)


@pytest.mark.parametrize("bound", [1, 2, 7, 300])
def test_search_matches_reference_on_small_ratios(bound):
    for p in range(1, 25):
        for q in range(1, 25):
            if gcd(p, q) == 1:
                r = parse_rational(f"{p}/{q}")
                assert brute_force_minimal(r, bound) == reference_minimal(r, bound), (p, q)


def naive_pairs(p, q, bound):
    """Every (m, n) with m, n <= bound and phi(m^2) * q = phi(n^2) * p, by a
    plain double loop over the sieve (p/q need not be reduced)."""
    phi = sieve_totients(bound)
    return [
        (m, n)
        for m in range(1, bound + 1)
        for n in range(1, bound + 1)
        if m * phi[m] * q == n * phi[n] * p
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(1, 60), st.just(1)),
    st.one_of(st.integers(1, 60), st.just(1)),
    st.integers(1, 300),
)
@example(6, 4, 300)
@example(1, 1, 300)
@example(1, 7, 300)
@example(12, 1, 300)
def test_search_equals_a_naive_double_loop(p, q, bound):
    # The search tests divisibility before multiplying; the text p/q is not reduced.
    pairs = naive_pairs(p, q, bound)
    result = brute_force_minimal(parse_rational(f"{p}/{q}"), bound)
    if pairs:
        assert (result.m, result.n) == min(pairs, key=lambda mn: (max(mn), mn[0], mn[1]))
    else:
        assert not result.found


def first_pairs(limit):
    """Each ratio phi(m^2)/phi(n^2) with m, n <= limit -> its first (m, n) in (max(m, n), m, n) order."""
    first = {}
    for top in range(1, limit + 1):
        for m, n in [(m, top) for m in range(1, top)] + [(top, n) for n in range(1, top + 1)]:
            first.setdefault(Fraction(phi_sq(m), phi_sq(n)), (m, n))
    return first


def test_search_misses_unexpanded_only_where_no_pair_exists():
    # A side of r far past bound^2 is a miss without expanding r; an exhaustive
    # pair table decides every ratio 2^a * c, on both sides of that threshold.
    first = first_pairs(64)
    hits = 0
    for c in (Fraction(1), Fraction(3), Fraction(1, 5), Fraction(7, 3)):
        for a in range(-40, 41):
            ratio = c * Fraction(2) ** a
            r = parse_rational(str(ratio))
            pair = first.get(ratio)
            for bound in range(1, 65):
                expected = pair if pair is not None and max(pair) <= bound else None
                result = brute_force_minimal(r, bound)
                assert ((result.m, result.n) if result.found else None) == expected, (ratio, bound)
                hits += expected is not None
    assert hits > 0


PRIMES_TO_700 = primes_up_to(700)


def no_table(limit):
    raise AssertionError(f"a table to {limit} was read")


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(0, 20),
    st.integers(-3, 3).filter(bool),
    st.dictionaries(st.sampled_from(PRIMES_TO_700[:25]), st.integers(-3, 3).filter(bool), max_size=3),
)
@example(1, 0, 1, {})
@example(300, 0, -1, {2: 3})
def test_search_answers_a_prime_above_the_bound_without_a_table(bound, above, e, rest):
    # Every prime of k * phi(k) is at most k, so r with a prime past the bound
    # misses; the search must say so as the full scan does, without reading a table.
    big = PRIMES_TO_700[bisect_right(PRIMES_TO_700, bound) + above]
    r = FactoredRational.from_factors({**rest, big: e})
    expected = reference_minimal(r, bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_table_for", no_table)
        assert brute_force_minimal(r, bound) == expected


@pytest.mark.parametrize("bound", [1, 2, 7, 300])
def test_search_answers_the_same_on_a_warm_table(bound):
    # Cold, the first search above builds the table to its own bound; here the
    # table already reaches far past it.
    phi_square_sequence(20000)
    test_search_matches_reference_on_small_ratios(bound)


def test_search_matches_reference_on_attained_ratios():
    # v[a]/v[b] has a pair with max(m, n) <= max(a, b): probe just below,
    # at and above that top.
    v = [0] + phi_square_sequence(400)
    rng = random.Random(47)
    for _ in range(40):
        a, b = rng.randint(1, 400), rng.randint(1, 400)
        g = gcd(v[a], v[b])
        r = parse_rational(f"{v[a] // g}/{v[b] // g}")
        for bound in {max(a, b) - 1, max(a, b), 400} - {0}:
            assert brute_force_minimal(r, bound) == reference_minimal(r, bound), (a, b, bound)
        assert brute_force_minimal(r, max(a, b)).found


def test_search_refuses_a_colliding_index(monkeypatch, capsys):
    # A corrupted sieve gives phi(2) = 3, so phi(2^2) = phi(3^2) = 6, at the top
    # of the true pair (3, 2) for 3: the value index would be wrong there, so
    # the search must stop instead of answering.
    def corrupted(limit, phi=None):
        phi = sieve_totients(limit)
        phi[2] = 3
        return phi

    monkeypatch.setattr(oracle, "sieve_totients", corrupted)
    with pytest.raises(RuntimeError, match="k = 2 and k = 3"):
        brute_force_minimal(parse_rational("3"), 10)
    assert main(["search", "3", "--bound", "10", "--json"]) == EXIT_INVARIANT_VIOLATION
    body = json.loads(capsys.readouterr().err)
    assert body["status"] == "internal_invariant_violation"
    assert "k = 2 and k = 3" in body["error"]


def set_phi_50_51(phi):
    phi[50], phi[51] = 51, 50  # phi(50^2) = phi(51^2) = 2550


def set_phi_60_to_4(phi):
    phi[60] = 4  # phi(60^2) = 240 = phi(30^2)


@pytest.mark.parametrize("corrupt, j, c", [(set_phi_50_51, 50, 51), (set_phi_60_to_4, 30, 60)], ids=["past-the-index", "into-the-index"])
def test_a_kept_index_meets_a_collision_the_table_grew_into(monkeypatch, corrupt, j, c):
    # A clean search keeps its index of the table to 40.  A corrupted sieve then
    # grows the kept table in place to 100, with a first collision (j, c) whose
    # c lies past that index, and whose j lies past it or in it.
    assert brute_force_minimal(parse_rational("1/768"), 40) == SearchResult(False, None, None, 40)
    kept = oracle._kept
    table, index = kept.v, kept.index
    assert len(index) == 40

    def corrupted(limit, phi=None):
        phi = sieve_totients(limit, phi)
        if len(phi) > c:
            corrupt(phi)
        return phi

    monkeypatch.setattr(oracle, "sieve_totients", corrupted)
    assert phi_square_sequence(100)[c - 1] == phi_square_sequence(100)[j - 1]
    assert oracle._kept is kept and kept.v is table and kept.index is index
    # Hits below c answer, at any bound: (3, 2) for 3, (1, 48) for 1/768.
    for bound in (c - 1, c, 64, 100):
        assert brute_force_minimal(parse_rational("3"), bound) == SearchResult(True, 3, 2, bound)
        assert brute_force_minimal(parse_rational("1/768"), bound) == SearchResult(True, 1, 48, bound)
    # A miss below c answers; a miss whose bound reaches c, or a search whose
    # least pair would lie past c, raises, exactly as the full index scan does.
    assert brute_force_minimal(parse_rational("19/47"), c - 1) == SearchResult(False, None, None, c - 1)
    for text, bound in (("19/47", c), ("19/47", 100), ("1/1536", 100)):
        with pytest.raises(RuntimeError, match=f"k = {j} and k = {c}$"):
            index_minimal(parse_rational(text), bound)
        with pytest.raises(RuntimeError, match=f"k = {j} and k = {c}$"):
            brute_force_minimal(parse_rational(text), bound)
    assert kept.collision == (j, c) and len(index) == c - 1


def test_a_new_table_starts_a_new_index(monkeypatch):
    # An index that met a collision in one table is never read for the next.
    def corrupted(limit, phi=None):
        phi = sieve_totients(limit, phi)
        phi[2] = 3
        return phi

    with monkeypatch.context() as mp:
        mp.setattr(oracle, "sieve_totients", corrupted)
        with pytest.raises(RuntimeError, match="k = 2 and k = 3"):
            brute_force_minimal(parse_rational("3"), 10)
    with empty_stores() as kept:
        assert brute_force_minimal(parse_rational("3"), 10) == SearchResult(True, 3, 2, 10)
        assert kept.collision is None and len(kept.index) == 10


def test_search_at_a_large_bound():
    # No k <= 10^5 has a prime above 10^10 > k^2 > phi(k^2) in phi(k^2): a
    # miss that scans the whole bound.
    result = brute_force_minimal(parse_rational("10000000019"), 100000)
    assert result == SearchResult(False, None, None, 100000)
    # The minimal pair for 19/47 is the construction's own (13110, 18612).
    assert brute_force_minimal(parse_rational("19/47"), 100000) == SearchResult(True, 13110, 18612, 100000)
    assert not brute_force_minimal(parse_rational("19/47"), 18611).found


def one_sided(m0, n0):
    """The product of the primes that divide exactly one of m0 and n0 (each to some power)."""
    g, a, b = gcd(m0, n0), m0, n0
    while (d := gcd(a, g)) > 1:
        a //= d
    while (d := gcd(b, g)) > 1:
        b //= d
    return a * b


def constructed(p, q):
    """The construction's pair (m0, n0) for p/q, as integers."""
    rep = represent(parse_rational(f"{p}/{q}"))
    return rep.m.value(), rep.n.value()


@functools.cache
def pairs_to_200():
    """Each reduced ratio p/q = phi(m^2)/phi(n^2) with m, n <= 200 -> the construction's
    pair for it and every such (m, n), in the search's (max(m, n), m, n) order."""
    v = [k * e for k, e in enumerate(classic_totients(200))]
    pairs = {}
    for top in range(1, 201):
        for m, n in [(m, top) for m in range(1, top)] + [(top, n) for n in range(1, top + 1)]:
            g = gcd(v[m], v[n])
            pairs.setdefault((v[m] // g, v[n] // g), []).append((m, n))
    return {pq: (constructed(*pq), found) for pq, found in pairs.items()}


def test_the_search_finds_the_constructions_pair_first():
    # Every ratio of pairs m, n <= 200: the construction's pair is the first the
    # search meets, at a bound of its own top, and nothing lies below that top.
    table = pairs_to_200()
    assert len(table) == 30743
    for (p, q), ((m0, n0), pairs) in table.items():
        r = parse_rational(f"{p}/{q}")
        top = max(m0, n0)
        assert pairs[0] == (m0, n0), (p, q)
        assert brute_force_minimal(r, top) == SearchResult(True, m0, n0, top), (p, q)
        if top > 1:
            assert brute_force_minimal(r, top - 1) == SearchResult(False, None, None, top - 1), (p, q)


def test_every_pair_is_a_multiple_of_the_constructions_pair():
    # The pairs of a ratio are exactly (k * m0, k * n0), k coprime to the primes
    # that divide exactly one of m0, n0: none is missing and none is extra.
    for (m0, n0), pairs in pairs_to_200().values():
        allowed = one_sided(m0, n0)
        multiples = [(k * m0, k * n0) for k in range(1, 200 // max(m0, n0) + 1) if gcd(k, allowed) == 1]
        assert pairs == multiples, (m0, n0)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 10**5), st.integers(1, 10**5))
@example(39330, 55836)  # the selftest's pair for 19/47: 3 * (13110, 18612)
@example(14476, 20010)
@example(1, 1)
def test_a_pair_up_to_1e5_is_a_multiple_of_the_least(m, n):
    g = gcd(phi_sq(m), phi_sq(n))
    p, q = phi_sq(m) // g, phi_sq(n) // g
    m0, n0 = constructed(p, q)
    k, rest = divmod(m, m0)
    assert rest == 0 and n == k * n0 and gcd(k, one_sided(m0, n0)) == 1, (m0, n0)
    r = parse_rational(f"{p}/{q}")
    top = max(m0, n0)
    assert brute_force_minimal(r, top) == SearchResult(True, m0, n0, top)
    if top > 1:
        assert not brute_force_minimal(r, top - 1).found


def test_oracles_agree_with_sympy_totient():
    sympy = pytest.importorskip("sympy")
    assert phi_square_sequence(2000) == [k * sympy.totient(k) for k in range(1, 2001)]
    for text in ["3", "1/3", "4/5", "6", "9/8", "19/47", "47/58"]:
        r = parse_rational(text)
        result = brute_force_minimal(r, 20010)
        assert result.found, text
        p, q = r.numerator().value(), r.denominator().value()
        m, n = result.m, result.n
        assert m * sympy.totient(m) * q == n * sympy.totient(n) * p, text


def test_random_rational_respects_ranges():
    rng = random.Random(43)
    for _ in range(200):
        r = random_rational(rng, max_prime=97, max_exponent=6)
        keys = [p for p, _ in r.entries]
        assert keys == sorted(keys)
        for p, e in r.entries:
            assert p <= 97
            assert e != 0 and -6 <= e <= 6
