"""The CLI contract under fuzzed command lines (skipped without hypothesis).

Every command line ends in a documented exit code, and a refusal stays short.
The shapes drawn are those that finish fast: there is no per-request work
budget yet, so numerals stay below 10^12 (or past the 4300-digit reading
limit), literal bases come from a fixed pool, and bounds and limits stay at
most 2000 (or past the sieve cap).  selftest takes no input and is left out.
"""

import io
import string
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from phisq import cli  # noqa: E402
from phisq.primes import primes_up_to  # noqa: E402

PAST_THE_DIGIT_LIMIT = st.integers(4301, 4400).map(lambda digits: "7" * digits)
NUMERAL = st.one_of(st.integers(0, 10**12 - 1).map(str), PAST_THE_DIGIT_LIMIT)
BASE = st.one_of(st.sampled_from(primes_up_to(10**6)), st.sampled_from((0, 1, 4, int("1" * 4000))))
EXPONENT = st.one_of(
    st.integers(-3, 3),
    st.sampled_from((2**62, 2**63 - 1)).flatmap(lambda e: st.integers(e - 2, e + 2)).flatmap(
        lambda e: st.sampled_from((e, -e))
    ),
)
LITERAL = st.lists(st.tuples(BASE, EXPONENT), min_size=1, max_size=4).map(
    lambda terms: " * ".join(f"{p}^{e}" for p, e in terms)
)
FRACTION = st.one_of(
    NUMERAL.map(lambda n: f"0/{n}"),
    NUMERAL.map(lambda n: f"{n}/0"),
    st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)
# No digits, so other text never reads as a numeral, and no character that repr or
# JSON escape: either would make a refusal that quotes it several times its length.
OTHER = st.text(string.ascii_letters + " ^*/+-_.,:;!?()[]{}<>=#%&@~|`$'", max_size=200)
VALUE = st.one_of(NUMERAL, LITERAL, FRACTION, OTHER)
# Never between 2000 and the sieve cap: a sieve to 10^6 takes seconds and ~125 MB.
LIMIT = st.one_of(st.integers(-2, 2000).map(str), st.integers(10**7 + 1, 10**12).map(str), PAST_THE_DIGIT_LIMIT)

OPERANDS = {
    "represent": st.tuples(VALUE),
    "verify": st.tuples(VALUE, VALUE, VALUE),
    "factor": st.tuples(VALUE),
    "sequence": st.tuples(LIMIT),
    "search": st.tuples(VALUE, LIMIT).map(lambda ab: (ab[0], "--bound", ab[1])),
}


@st.composite
def command_lines(draw):
    """A command (or an unknown word) with its operands, and the global flags anywhere."""
    command = draw(st.sampled_from((*OPERANDS, "frobnicate", "Represent", "sequences")))
    operands = draw(OPERANDS.get(command, st.tuples(VALUE)))
    argv = [command, *operands]
    for flag in draw(st.lists(st.sampled_from(tuple(cli.FLAGS)), max_size=2, unique=True)):
        argv.insert(draw(st.integers(0, len(argv))), flag)
    return argv


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_every_command_line_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    # Exit 3 is a library fault, never the input's.
    assert code in (0, 1, 2, 4), (argv, err.getvalue())
    assert bool(err.getvalue()) == (code in (1, 2)), argv
    # A refusal may quote other text whole, so the bound holds when each argument is
    # a numeral, a literal (the only drawn text past 200 characters with a "^"), or short.
    if all(a.isdecimal() or "^" in a or len(a) <= 200 for a in argv):
        assert len(err.getvalue()) <= 500, (argv, err.getvalue())
