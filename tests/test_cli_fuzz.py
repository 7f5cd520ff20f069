"""The CLI contract under fuzzed command lines (skipped without hypothesis).

Every command line ends in a documented exit code, and a refusal stays short,
plain and --json, whatever text it quotes.  The shapes drawn are those that
finish fast: there is no per-request work budget yet, so numerals stay below
10^12 (or past the 4300-digit reading limit), literal bases come from a fixed
pool, and bounds and limits stay at most 2000 (or past the sieve cap).  Other
text is arbitrary: control characters, quotes, backslashes and non-ASCII, up
to a few thousand characters.  selftest takes no input and is left out.

Where a line is answered (exit 0 or 4), its plain lines, read back, say what
its --json record says.  Few fuzzed lines get that far, so lines that are
answered are also drawn on purpose: ratios and integers over the primes up
to 1000, and limits and bounds up to 2000.

The reader is also held, line by line, to the argparse parser it replaced,
kept in argparse_reference.py: it reads each line as argparse does, or
leaves it with argparse's refusal and message.  That property runs only
where the installed argparse still reads a refused command as 3.11 did.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import prod
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from argparse_reference import reading, reference  # noqa: E402
from phisq import cli  # noqa: E402
from phisq.errors import ParseError  # noqa: E402
from phisq.factored import parse_integer, parse_rational  # noqa: E402
from phisq.primes import primes_up_to  # noqa: E402
from phisq.represent import represent  # noqa: E402

PAST_THE_DIGIT_LIMIT = st.integers(4301, 4400).map(lambda digits: "7" * digits)
NUMERAL = st.one_of(st.integers(0, 10**12 - 1).map(str), PAST_THE_DIGIT_LIMIT)
BASE = st.one_of(st.sampled_from(primes_up_to(10**6)), st.sampled_from((0, 1, 4, int("1" * 4000))))
# Numerals of 50 to 4200 digits, within Python's int-string limit: a refusal names them by their length.
HUGE = st.integers(50, 4200).map(lambda digits: 10**digits - 1)
EXPONENT = st.one_of(
    st.integers(-3, 3),
    HUGE.flatmap(lambda e: st.sampled_from((e, -e))),
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
# Characters that repr or JSON escape, some several times over, besides any at all.
ESCAPED = st.sampled_from("\"'\\\x00\x1b\n\t\x7f\x85\xa0\u2028é€\U0001f600\U000e0001 ^*/")
CHARACTER = st.one_of(st.characters(), ESCAPED)
OTHER = st.one_of(
    st.text(CHARACTER, max_size=300),
    st.tuples(st.text(CHARACTER, min_size=1, max_size=3), st.integers(1, 1500)).map(lambda tn: tn[0] * tn[1]),
)
VALUE = st.one_of(NUMERAL, LITERAL, FRACTION, OTHER)
# Never between 2000 and the sieve cap: a sieve to 10^6 takes seconds and ~125 MB.
LIMIT = st.one_of(
    st.integers(-2, 2000).map(str),
    st.integers(10**7 + 1, 10**12).map(str),
    HUGE.map(lambda n: str(-n)),
    PAST_THE_DIGIT_LIMIT,
    OTHER,
)

OPERANDS = {
    "represent": st.tuples(VALUE),
    "verify": st.tuples(VALUE, VALUE, VALUE),
    "factor": st.tuples(VALUE),
    "sequence": st.tuples(LIMIT),
    "search": st.tuples(VALUE, LIMIT).map(lambda ab: (ab[0], "--bound", ab[1])),
}


def with_flags(draw, argv):
    """argv with the global flags drawn in anywhere."""
    for flag in draw(st.lists(st.sampled_from(tuple(cli.FLAGS)), max_size=2, unique=True)):
        argv.insert(draw(st.integers(0, len(argv))), flag)
    return argv


@st.composite
def command_lines(draw):
    """A command (or an unknown word) with its operands, and the global flags anywhere."""
    command = draw(st.sampled_from((*OPERANDS, "frobnicate", "Represent", "sequences")))
    operands = draw(OPERANDS.get(command, st.tuples(VALUE)))
    return with_flags(draw, [command, *operands])


def literal(factors):
    return " * ".join(f"{p}^{e}" for p, e in factors.items()) or "1"


def side(factors, sign):
    """The product of p^|e| over the factors whose exponent has this sign."""
    return prod(p ** abs(e) for p, e in factors.items() if e * sign > 0)


# Ratios over the primes up to 1000 as literals or fractions, and integers as literals or numerals.
SMALL_PRIME = st.sampled_from(primes_up_to(1000))
FACTORS = st.dictionaries(SMALL_PRIME, st.integers(-3, 3).filter(bool), max_size=5)
WHOLE = st.dictionaries(SMALL_PRIME, st.integers(1, 3), max_size=5)
RATIO = FACTORS.flatmap(lambda f: st.sampled_from((literal(f), f"{side(f, 1)}/{side(f, -1)}")))
NUMERAL_OVER_SMALL_PRIMES = WHOLE.map(lambda f: str(side(f, 1)))
INTEGER = st.one_of(WHOLE.map(literal), NUMERAL_OVER_SMALL_PRIMES)
SMALL_LIMIT = st.integers(1, 2000).map(str)


def represented(ratio):
    """m, n and ratio, where m and n are the construction's pair for it."""
    rep = represent(parse_rational(ratio))
    return str(rep.m), str(rep.n), ratio


ACCEPTED = {
    "represent": st.tuples(RATIO),
    "verify": st.one_of(st.tuples(INTEGER, INTEGER, RATIO), RATIO.map(represented)),
    "factor": st.tuples(NUMERAL_OVER_SMALL_PRIMES),
    "sequence": st.tuples(SMALL_LIMIT),
    "search": st.tuples(RATIO, SMALL_LIMIT).map(lambda ab: (ab[0], "--bound", ab[1])),
}


@st.composite
def accepted_lines(draw):
    """A command with operands it answers, and the global flags anywhere."""
    command = draw(st.sampled_from(tuple(ACCEPTED)))
    return with_flags(draw, [command, *draw(ACCEPTED[command])])


def factors(record):
    """A --json factor map with its keys read back as primes."""
    return {int(p): e for p, e in record.items()}


def assert_same_meaning(command, out, record):
    """The plain output of an answered line, read back, equals its --json record."""
    if command == "sequence":
        assert list(map(int, out.split())) == record["values"]
        return
    head = f"input: {record['input']}\n"
    assert out.startswith(head), (out, record)
    lines = out[len(head):].rstrip("\n").split("\n")
    fields = dict(line.split(": ", 1) for line in lines if ": " in line)
    if command == "represent":
        expanded = "value" in record["m"]
        assert fields.keys() == {"m", "n", "depth", "verified"} | ({"m value", "n value"} if expanded else set())
        for name in "mn":
            assert parse_integer(fields[name]).factors == factors(record[name]["factors"])
            if expanded:
                assert int(fields[f"{name} value"]) == record[name]["value"]
        assert int(fields["depth"]) == record["depth"]
        assert fields["verified"] == json.dumps(record["verified"])
    elif command == "verify":
        common = record["common_value"]
        names = {"m", "n", "computed ratio", "expected ratio", "holds"}
        assert fields.keys() == names | ({"common value"} if common is not None else set())
        assert parse_integer(fields["m"]).factors == factors(record["m"]["factors"])
        assert parse_integer(fields["n"]).factors == factors(record["n"]["factors"])
        assert parse_rational(fields["computed ratio"]).factors == factors(record["computed"])
        assert parse_rational(fields["expected ratio"]).factors == factors(record["expected"])
        assert fields["holds"] == json.dumps(record["holds"])
        assert common is None or int(fields["common value"]) == common
    elif command == "factor":
        assert fields.keys() == {"factors"}
        assert parse_integer(fields["factors"]).factors == factors(record["factors"])
    else:
        assert command == "search"
        assert fields.keys() == {"bound", "found"} | ({"m", "n"} if record["found"] else set())
        assert int(fields["bound"]) == record["bound"]
        assert fields["found"] == json.dumps(record["found"])
        if record["found"]:
            assert (int(fields["m"]), int(fields["n"])) == (record["m"], record["n"])
        else:
            assert record["m"] is None and record["n"] is None
            assert lines[-1] == f"no pair with max(m, n) <= {record['bound']}"


def run_both_ways(argv):
    """Runs a line plain and under --json, which keeps its drawn place when it has one: each
    ends in a documented exit code, and where answered, both say the same.  Returns the code."""
    plain = [a for a in argv if a != "--json"]
    outputs = []
    for line in (plain, argv if "--json" in argv else [*plain, "--json"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(line)
        # Exit 3 is a library fault, never the input's.
        assert code in (0, 1, 2, 4), (line, err.getvalue())
        assert bool(err.getvalue()) == (code in (1, 2)), line
        # A refusal quotes outside text only after bounding it, as repr and JSON escape it.
        assert len(err.getvalue()) <= 500, (line, err.getvalue())
        outputs.append((code, out.getvalue()))
    (code, out), (json_code, json_out) = outputs
    assert code == json_code, argv
    if code in (0, 4):
        record = json.loads(json_out)
        assert_same_meaning(record["command"], out, record)
    return code


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_every_command_line_ends_in_a_documented_exit_code(argv):
    run_both_ways(argv)


@settings(max_examples=300, deadline=None)
@given(accepted_lines())
def test_an_answered_line_says_the_same_plain_and_under_json(argv):
    assert run_both_ways(argv) in (0, 4), argv


def reference_differs():
    """Why the running argparse does not read these lines as the reference did, or "" where it does."""
    choices = "(choose from 'represent', 'verify', 'factor', 'sequence', 'search', 'selftest')"
    for argv, command in ((["frobnicate"], "frobnicate"), (["--", "search", "3", "--bound", "5"], "--")):
        if reading(reference, argv) != (ParseError, f"argument command: invalid choice: {command!r} {choices}"):
            version = sys.version.split()[0]
            return f"argparse {version} reads {argv} otherwise (it unquotes choices or accepts '-- search ...')"
    return ""


# Tokens the reader takes for options or operands by their shape, and option shapes it
# reads apart, repeated or glued with "=".
DASHED = st.sampled_from(("-h", "--help", "--", "-", "-1", "-.5", "-x", "--bound", "--bo", "--limit"))
INSERTED = st.one_of(
    DASHED.map(lambda t: [t]),
    VALUE.map(lambda v: [v]),
    LIMIT.map(lambda v: ["--bound", v]),
    LIMIT.map(lambda v: [f"--bound={v}"]),
)


@st.composite
def widened_command_lines(draw):
    """command_lines(), as drawn, or with one token dropped, or one or two tokens put in anywhere or in one's place."""
    argv = draw(command_lines())
    change = draw(st.sampled_from(("keep", "drop", "insert", "replace")))
    at = draw(st.integers(0, len(argv) - (change != "insert")))
    if change == "drop":
        del argv[at]
    elif change != "keep":
        argv[at:at + (change == "replace")] = draw(INSERTED)
    return argv


# Each --bound is read in turn, so the first can refuse the line.
REPEATED_BOUND = st.tuples(VALUE, LIMIT, LIMIT).map(lambda t: ["search", t[0], "--bound", t[1], "--bound", t[2]])


REFERENCE_DIFFERS = reference_differs()


@pytest.mark.skipif(bool(REFERENCE_DIFFERS), reason=REFERENCE_DIFFERS)
@settings(max_examples=1000, deadline=None)
@given(st.one_of(widened_command_lines(), REPEATED_BOUND))
# A "--" beside the operand that fills the last slot, after an extra operand, and after an option's value.
@example(["sequence", "5", "--"])
@example(["factor", "12", "13", "--"])
@example(["search", "3", "--bound", "5", "--"])
def test_the_reader_reads_a_line_as_argparse_does_or_leaves_it(line):
    # The same namespace, help on both sides, or the same refusal, message and all.
    # (The plain lines are checked on every Python in tests/test_cli.py.)
    assert reading(lambda argv: cli._read(argv, SimpleNamespace()), line) == reading(reference, line), line
