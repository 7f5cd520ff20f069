import functools
import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from argparse_reference import reference
from phisq import cli
from phisq.cli import (
    EXIT_INVARIANT_VIOLATION,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_UNSUPPORTED_SCALE,
    EXIT_VERIFY_FALSE,
    main,
)
from phisq.errors import FactorizationFailure
from phisq.factored import EXPONENT_LIMIT
from phisq.primes import prime_pi, primes_up_to

M127 = 2**127 - 1  # beyond the exact-primality bound
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out or err)


def test_represent_plain(capsys):
    code, out, err = run(capsys, "represent", "19/47")
    assert code == EXIT_OK
    assert "m: 2^1 * 3^1 * 5^1 * 19^1 * 23^1" in out
    assert "n: 2^2 * 3^2 * 11^1 * 47^1" in out
    assert "verified: true" in out
    assert "m value" not in out  # expansion only on request


def test_represent_json_schema(capsys):
    code, body = run_json(capsys, "represent", "19/47", "--expanded")
    assert code == EXIT_OK
    assert body["command"] == "represent"
    assert body["input"] == "19/47"
    assert body["status"] == "ok"
    assert body["m"]["factors"] == {"2": 1, "3": 1, "5": 1, "19": 1, "23": 1}
    assert body["m"]["value"] == 13110
    assert body["n"]["value"] == 18612
    assert body["verified"] is True
    assert body["depth"] == 7


def test_represent_without_expanded_omits_values(capsys):
    code, body = run_json(capsys, "represent", "1")
    assert code == EXIT_OK
    assert body["m"] == {"factors": {}}
    assert body["n"] == {"factors": {}}
    assert body["verified"] is True and body["depth"] == 0


def test_represent_accepts_factored_literals(capsys):
    code, body = run_json(capsys, "represent", "2^3 * 3^-2 * 53^5")
    assert code == EXIT_OK
    assert body["verified"] is True


def test_verify_holds(capsys):
    code, out, err = run(capsys, "verify", "39330", "55836", "19/47")
    assert code == EXIT_OK
    assert "holds: true" in out
    assert "common value: 19673280" in out


def test_verify_second_known_pair(capsys):
    code, body = run_json(capsys, "verify", "14476", "20010", "47/58")
    assert code == EXIT_OK
    assert body["holds"] is True
    assert body["common_value"] == 1700160


def test_verify_false_exits_4(capsys):
    code, out, err = run(capsys, "verify", "2", "1", "3")
    assert code == EXIT_VERIFY_FALSE
    assert "holds: false" in out
    assert "computed ratio: 2^1" in out


def test_verify_accepts_factored_literals(capsys):
    code, body = run_json(capsys, "verify", "2^2 * 7^1 * 11^1 * 47^1", "20010", "47/58")
    assert code == EXIT_OK
    assert body["holds"] is True


def test_factor_command(capsys):
    code, out, err = run(capsys, "factor", "55836")
    assert code == EXIT_OK
    assert "factors: 2^2 * 3^3 * 11^1 * 47^1" in out
    code, body = run_json(capsys, "factor", "55836")
    assert body["factors"] == {"2": 2, "3": 3, "11": 1, "47": 1}
    assert body["value"] == 55836


def test_factor_names_a_huge_cofactor_by_its_digit_count(capsys):
    # 10^3000 + 1 leaves a cofactor of about 3000 digits past the primality bound.
    message = r"cannot certify primality of a \d+-digit number: >= deterministic bound \d+"
    code, out, err = run(capsys, "factor", str(10**3000 + 1))
    assert code == EXIT_UNSUPPORTED_SCALE
    assert out == ""
    assert re.fullmatch(f"error: {message}\n", err)
    assert len(err) < 200
    # The record's "error" stays short, and its "input", past 100 characters, is cut
    # to its first 50 and the argument's length, so the whole line does too.
    code, out, err = run(capsys, "factor", str(10**3000 + 1), "--json")
    assert code == EXIT_UNSUPPORTED_SCALE
    assert out == "" and len(err) < 500
    body = json.loads(err)
    assert body["status"] == "unsupported_scale"
    assert re.fullmatch(message, body["error"])
    assert body["input"] == f"{'1' + '0' * 49}... (3001 characters)"


def test_literal_refusals_name_a_huge_base_by_its_digit_count(capsys):
    ones = "1" * 4000  # divisible by 11, so refused as not prime
    for literal, message in (
        (f"{ones}^1", "base a 4000-digit number is not prime"),
        (f"{ones}^1 * {ones}^2", "prime a 4000-digit number appears more than once"),
    ):
        code, out, err = run(capsys, "represent", literal)
        assert (code, out, err) == (EXIT_PARSE_ERROR, "", f"error: {message}\n")
        assert len(err) < 200
        # The record's "error" is as short, and its "input" is cut to a head and the length.
        code, body = run_json(capsys, "represent", literal)
        assert code == EXIT_PARSE_ERROR
        assert (body["status"], body["error"]) == ("parse_error", message)
        assert body["input"] == f"{ones[:50]}... ({len(literal)} characters)"


LONG_TEXT_REFUSALS = {
    "numeral": ["verify", "0/" + "7" * 4400, "1", "1"],
    # Short, but a backslash takes 2 characters in repr and 4 in a record ...
    "escaped-short": ["represent", "\\" * 90],
    # ... and an escape character 4 in repr and 5 in a record, or 6 in a record's echo.
    "escaped-prefix": ["represent", "\x1b" * 200],
    "term": ["represent", "2^1 * " + "x" * 3000],
    "base": ["represent", "x" * 3000 + "^1"],
    "exponent": ["represent", "2^" + "x" * 3000],
    "factor": ["factor", "1" * 4000 + "^0"],
    "bound": ["search", "3", "--bound", "y" * 3000],
    "command": ["x" * 3000],
}


@pytest.mark.parametrize("argv", LONG_TEXT_REFUSALS.values(), ids=LONG_TEXT_REFUSALS)
def test_a_refusal_quotes_long_outside_text_by_a_prefix_and_its_length(capsys, argv):
    # Bounded as shown, after repr and JSON escaping; usage messages are bounded whole.
    for line in (argv, [*argv, "--json"]):
        code, out, err = run(capsys, *line)
        assert (code, out) == (EXIT_PARSE_ERROR, "")
        assert len(err) <= 500 and re.search(r"\.\.\. \(\d+ characters\)", err), err


HUGE_NUMBER_REFUSALS = {
    # A negative numeral is an operand or an option's value.
    "limit": (["sequence", "-" + "1" * 4000], "limit must be >= 1, got a 4000-digit negative number"),
    "bound": (["search", "3", "--bound", "-" + "1" * 4000], "bound must be >= 1, got a 4000-digit negative number"),
    "exponent": (
        ["represent", "2^-" + "9" * 4000],
        f"exponent a 4000-digit negative number for prime 2 exceeds +/-{EXPONENT_LIMIT}",
    ),
}


@pytest.mark.parametrize("argv, message", HUGE_NUMBER_REFUSALS.values(), ids=HUGE_NUMBER_REFUSALS)
def test_a_refusal_names_a_huge_number_by_its_digit_count(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert out == "" and message in err and len(err) <= 500, err
    code, body = run_json(capsys, *argv)
    assert body["error"] == message and len(json.dumps(body)) <= 500, body


def test_a_long_quote_is_the_repr_of_a_prefix_and_the_length(capsys):
    code, body = run_json(capsys, "verify", "0/" + "7" * 4400, "1", "1")
    assert body["error"] == f"value must be an unsigned integer, got '0/{'7' * 46}'... (4402 characters)"
    assert body["input"] == f"m=0/{'7' * 46}... (4412 characters)"


def test_factor_refuses_non_ascii_digits_by_its_own_rule(capsys):
    # "²" is a digit to str.isdigit but not to the numeral grammar.
    for text in ("²", "1²"):
        code, out, err = run(capsys, "factor", text)
        assert code == EXIT_PARSE_ERROR
        assert err == f"error: factor takes a plain positive integer, got {text!r}\n"


def test_sequence_plain_streams_one_per_line(capsys):
    code, out, err = run(capsys, "sequence", "5")
    assert code == EXIT_OK
    assert out.splitlines() == ["1", "2", "6", "8", "20"]


def test_sequence_json(capsys):
    code, body = run_json(capsys, "sequence", "10")
    assert code == EXIT_OK
    assert body["values"] == [1, 2, 6, 8, 20, 12, 42, 32, 54, 40]


def test_sequence_builds_only_the_output_it_prints(capsys, monkeypatch):
    calls = []
    for name in ("phi_square_sequence", "phi_square_text"):
        build = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda limit, build=build, name=name: calls.append(name) or build(limit))
    code, out, err = run(capsys, "sequence", "5")
    assert (code, out, calls) == (EXIT_OK, "1\n2\n6\n8\n20\n", ["phi_square_text"])
    calls.clear()
    code, body = run_json(capsys, "sequence", "5")
    assert (code, body["values"], calls) == (EXIT_OK, [1, 2, 6, 8, 20], ["phi_square_sequence"])


def test_sequence_rejects_bad_limit(capsys):
    code, out, err = run(capsys, "sequence", "0")
    assert code == EXIT_PARSE_ERROR
    code, out, err = run(capsys, "sequence", "abc")
    assert code == EXIT_PARSE_ERROR


def test_search_found(capsys):
    code, body = run_json(capsys, "search", "3", "--bound", "10")
    assert code == EXIT_OK
    assert body["found"] is True
    assert (body["m"], body["n"]) == (3, 2)


def test_search_none_under_bound_is_not_an_error(capsys):
    code, body = run_json(capsys, "search", "19/47", "--bound", "100")
    assert code == EXIT_OK
    assert body["found"] is False
    assert body["m"] is None and body["n"] is None


def in_1_gb(argv, timeout):
    """The exit code, stdout's line count and last line, and stderr of `phisq argv` in a
    child limited to a 1 GB address space.  stdout is counted as it comes, not held; the
    timeout only guards a hang."""
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30));"
        "from phisq.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile() as err, subprocess.Popen(
        [sys.executable, "-c", code, *argv], stdout=subprocess.PIPE, stderr=err, env=env
    ) as proc:
        guard = threading.Timer(timeout, proc.kill)
        guard.start()
        lines, tail = 0, b""
        try:
            while chunk := proc.stdout.read(1 << 16):
                lines, tail = lines + chunk.count(b"\n"), (tail + chunk)[-(1 << 16) :]
            proc.wait()
        finally:
            guard.cancel()
        err.seek(0)
        return proc.returncode, lines, tail.rstrip(b"\n").rpartition(b"\n")[2].decode(), err.read().decode()


def search_in_1_gb(ratio, bound, timeout):
    """The --json record of `phisq search ratio --bound bound` in a child limited to a
    1 GB address space, after asserting it exited 0; the timeout only guards a hang."""
    code, lines, last, err = in_1_gb(["search", ratio, "--bound", str(bound), "--json"], timeout)
    assert code == EXIT_OK, err
    body = json.loads(last)
    return body["status"], body["bound"], body["found"], body["m"], body["n"]


def test_search_answers_a_miss_without_expanding_a_huge_ratio():
    # 2^99999999999999 expanded would take ~12 TB, and the sieve to 10^7 ~0.8 GB; under
    # a 1 GB address space the miss must still come back, and quickly.
    for bound in (10, 10000000):
        assert search_in_1_gb("2^99999999999999", bound, 30) == ("ok", bound, False, None, None)
    # Nor a ratio whose prime lies above the bound: no k <= bound has it in k * phi(k).
    assert search_in_1_gb("10000019/2", 10000000, 30) == ("ok", 10000000, False, None, None)


def test_search_hit_at_the_sieve_cap_fits_in_1_gb():
    # The sieve to 10^7 takes ~0.8 GB; the value index stops at the hit's top, 2,
    # where an index of the whole bound would need another ~0.5 GB.  The child's peak
    # address space (VmPeak) and resident size (VmHWM), on x86-64 Linux:
    #   CPython 3.10.13: 836 MiB, 806 MiB;    CPython 3.11.7: 841 MiB, 809 MiB;
    #   CPython 3.12.1:  830 MiB, 805 MiB;    CPython 3.13.0: 831 MiB, 801 MiB;
    # so the margin under the limit is at least ~180 MiB on each.
    assert search_in_1_gb("1/2", 10000000, 600) == ("ok", 10000000, True, 1, 2)


# The exit-code contract at the grammar's edge: each line in a child limited to 1 GB,
# with its exit code, stdout's line count and last line (where a row gives it), and its
# exact stderr.
LIMIT = "9223372036854775807"  # EXPONENT_LIMIT
OVER = "9223372036854775808"
SIEVE_CAP = "error: a totient sieve to 10000001 exceeds the cap of 10000000\n"
EDGES = {
    "sequence-at-the-cap": (["sequence", "10000000"], EXIT_OK, 10**7, "40000000000000", ""),
    "sequence-past-the-cap": (["sequence", "10000001"], EXIT_UNSUPPORTED_SCALE, 0, None, SIEVE_CAP),
    "json-sequence-past-the-cap": (
        ["--json", "sequence", "10000001"], EXIT_UNSUPPORTED_SCALE, 0, None,
        '{"command": "sequence", "input": "10000001", "status": "unsupported_scale",'
        ' "error": "a totient sieve to 10000001 exceeds the cap of 10000000"}\n',
    ),
    # At the search cap: past it the sieve refuses; at it a prime above the bound or a side too
    # wide misses before any table is built.  `search 7/1000003 --bound 10000000`, whose value
    # index does not fit in 1 GB, still ends in exit 3 and has no row yet.
    "search-past-the-cap": (["search", "7/1000003", "--bound", "10000001"], EXIT_UNSUPPORTED_SCALE, 0, None, SIEVE_CAP),
    "json-search-past-the-cap": (
        ["--json", "search", "7/1000003", "--bound", "10000001"], EXIT_UNSUPPORTED_SCALE, 0, None,
        '{"command": "search", "input": "7/1000003", "status": "unsupported_scale",'
        ' "error": "a totient sieve to 10000001 exceeds the cap of 10000000"}\n',
    ),
    "search-at-the-cap-prime-above-the-bound": (
        ["search", "7/10000019", "--bound", "10000000"], EXIT_OK, 4, "no pair with max(m, n) <= 10000000", "",
    ),
    "search-at-the-cap-side-too-wide": (
        ["search", "2^97", "--bound", "10000000"], EXIT_OK, 4, "no pair with max(m, n) <= 10000000", "",
    ),
    "exponent-at-the-limit": (["represent", f"2^{LIMIT}"], EXIT_OK, 5, "verified: true", ""),
    "negative-exponent-at-the-limit": (["represent", f"3^-{LIMIT}"], EXIT_OK, 5, "verified: true", ""),
    "exponent-past-the-limit": (
        ["represent", f"3^{OVER}"], EXIT_UNSUPPORTED_SCALE, 0, None,
        f"error: exponent {OVER} for prime 3 exceeds +/-{LIMIT}\n",
    ),
    "negative-exponent-past-the-limit": (
        ["represent", f"3^-{OVER}"], EXIT_UNSUPPORTED_SCALE, 0, None,
        f"error: exponent -{OVER} for prime 3 exceeds +/-{LIMIT}\n",
    ),
    # Python's default int-string limit is 4300 digits: the longest numeral int() reads.
    "exponent-of-4300-digits": (
        ["represent", "3^" + "1" * 4300], EXIT_UNSUPPORTED_SCALE, 0, None,
        f"error: exponent a 4300-digit number for prime 3 exceeds +/-{LIMIT}\n",
    ),
    "exponent-of-4301-digits": (
        ["represent", "3^" + "1" * 4301], EXIT_UNSUPPORTED_SCALE, 0, None,
        "error: a numeral of 4301 digits exceeds the 4300-digit limit for reading integers\n",
    ),
    # At EXPANSION_BIT_LIMIT: m = 2^2500000 is 5,000,000 bits, which the bit check lets through to
    # the 4300-digit limit, and m = 2^2500001 one bit past it.
    "expanded-at-the-bit-limit": (
        ["represent", "2^4999998", "--expanded"], EXIT_UNSUPPORTED_SCALE, 0, None,
        "error: expanded value would exceed 4300 decimal digits; rerun without --expanded\n",
    ),
    "expanded-past-the-bit-limit": (
        ["represent", "2^5000000", "--expanded"], EXIT_UNSUPPORTED_SCALE, 0, None,
        "error: expanded value would exceed 5000000 bits; rerun without --expanded\n",
    ),
    "factor-below-the-primality-bound": (
        ["factor", "3317044064679887385961980"], EXIT_OK, 2,
        "factors: 2^2 * 3^4 * 5^1 * 127^1 * 18778597^1 * 858557454841^1", "",
    ),
    "factor-at-the-primality-bound": (
        ["factor", "3317044064679887385961981"], EXIT_UNSUPPORTED_SCALE, 0, None,
        "error: cannot certify primality of 3317044064679887385961981: >= deterministic bound"
        " 3317044064679887385961981\n",
    ),
}


@pytest.mark.parametrize("argv, expected, lines, last, message", EDGES.values(), ids=EDGES)
def test_a_line_at_the_grammars_edge_ends_in_its_exit_code_in_1_gb(argv, expected, lines, last, message):
    code, out_lines, out_last, err = in_1_gb(argv, 600)
    assert code == expected, err
    assert len(err) <= 500 and "Traceback" not in err, err
    assert out_lines == lines
    assert last is None or out_last == last
    assert err == message


def test_search_requires_bound(capsys):
    code, out, err = run(capsys, "search", "3")
    assert code == EXIT_PARSE_ERROR


def test_parse_error_exit_code_and_stream(capsys):
    code, out, err = run(capsys, "represent", "19/0")
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert "error:" in err
    code, body = run_json(capsys, "represent", "x")
    assert code == EXIT_PARSE_ERROR
    assert body["status"] == "parse_error"


def test_unsupported_scale_exit_code(capsys):
    code, body = run_json(capsys, "represent", f"{M127}^2")
    assert code == EXIT_UNSUPPORTED_SCALE
    assert body["status"] == "unsupported_scale"


def test_expanded_refuses_huge_values(capsys):
    # Past EXPANSION_BIT_LIMIT, and past Python's int-string conversion limit.
    digits = f"{sys.get_int_max_str_digits()} decimal digits"
    for literal, limit in [("2^20000000", "5000000 bits"), ("2^40000", digits)]:
        code, out, err = run(capsys, "represent", literal, "--expanded")
        assert code == EXIT_UNSUPPORTED_SCALE
        assert err == f"error: expanded value would exceed {limit}; rerun without --expanded\n"
        code, body = run_json(capsys, "represent", literal, "--expanded")
        assert code == EXIT_UNSUPPORTED_SCALE
        assert body["status"] == "unsupported_scale"


def test_verify_omits_common_value_past_the_digit_limit(capsys):
    # phi((2^20000)^2) = 2^39999 has 12041 digits, past the conversion limit.
    code, out, err = run(capsys, "verify", "2^20000", "2^20000", "1")
    assert code == EXIT_OK
    assert "holds: true" in out
    assert "common value" not in out
    code, body = run_json(capsys, "verify", "2^20000", "2^20000", "1")
    assert code == EXIT_OK
    assert body["holds"] is True and body["common_value"] is None
    code, out, err = run(capsys, "verify", "2^20000", "2^20000", "3")
    assert code == EXIT_VERIFY_FALSE


LONG = "7" * 4400  # past Python's default 4300-digit int-string conversion limit


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", LONG],
        ["represent", LONG],
        ["represent", f"{LONG}/3"],
        ["represent", f"3/{LONG}"],
        ["represent", f"2^1 * {LONG}^1"],
        ["represent", f"2^-{LONG}"],
        ["verify", LONG, "1", "1"],
        ["sequence", LONG],
        ["search", "3", "--bound", LONG],
    ],
)
def test_numerals_past_the_digit_limit_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_UNSUPPORTED_SCALE
    limit = sys.get_int_max_str_digits()
    assert err == f"error: a numeral of 4400 digits exceeds the {limit}-digit limit for reading integers\n"
    code, body = run_json(capsys, *argv)
    assert code == EXIT_UNSUPPORTED_SCALE
    assert body["status"] == "unsupported_scale"


@pytest.mark.parametrize("flags", [["--json"], ["--expanded"], ["--json", "--expanded"]])
def test_global_flags_before_or_after_the_command_spelled_in_full(capsys, flags):
    before = run(capsys, *flags, "represent", "19/47")
    after = run(capsys, "represent", "19/47", *flags)
    assert before == after
    assert before[0] == EXIT_OK
    assert before[1] != run(capsys, "represent", "19/47")[1]
    for flag in flags:
        abbreviation = flag[:4]
        for argv in ([abbreviation, "represent", "19/47"], ["represent", "19/47", abbreviation]):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_PARSE_ERROR
            assert out == ""
            assert err == f"error: unrecognized arguments: {abbreviation}\n"


def test_unknown_command_is_parse_error(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == EXIT_PARSE_ERROR


def test_usage_errors_honour_json(capsys):
    for argv, command in [(["search", "3"], "search"), (["frobnicate"], None), ([], None)]:
        code, out, err = run(capsys, *argv, "--json")
        assert code == EXIT_PARSE_ERROR
        assert out == ""
        body = json.loads(err)
        assert body["command"] == command
        assert body["input"] == ""
        assert body["status"] == "parse_error"
        assert body["error"]


def test_sieve_past_the_cap_exits_2(capsys):
    # Refused before the sieve is allocated, so this costs nothing, also for a ratio
    # whose size or prime alone proves a miss. A limit of 50 or more digits is named by its
    # digit count, not echoed in full.
    cases = {
        "10000001": "a totient sieve to 10000001 exceeds the cap of 10000000",
        str(10**49 - 1): f"a totient sieve to {10**49 - 1} exceeds the cap of 10000000",
        str(10**49): "a totient sieve to a 50-digit limit exceeds the cap of 10000000",
        "1" * 4001: "a totient sieve to a 4001-digit limit exceeds the cap of 10000000",
    }
    for limit, message in cases.items():
        searches = (["search", r, "--bound", limit] for r in ("3", "2^99999", "10000019/2"))
        for argv in (["sequence", limit], *searches):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_UNSUPPORTED_SCALE
            assert out == ""
            assert err == f"error: {message}\n"
            assert len(err) < 200
            code, body = run_json(capsys, *argv)
            assert body["status"] == "unsupported_scale"
            assert body["error"] == message


def test_one_shot_commands_import_neither_dataclasses_nor_fractions(capsys):
    # A deterministic guard on what a one-shot run imports, not a time gate. -S keeps
    # site's own imports out, so the child's modules are phisq's and Python's core.
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from phisq.cli import main\n"
        "argvs = (['represent', '2/3'], ['--json', 'verify', '13110', '18612', '19/47'],\n"
        "         ['search', '3', '--bound', '10'], ['sequence', '10'], ['factor', '12'], ['selftest'],\n"
        "         ['frobnicate'], ['--help'])\n"
        "codes = [main(argv) for argv in argvs]\n"
        "heavy = sorted({'dataclasses', 'inspect', 'fractions', 'decimal', 'argparse', 'gettext'} & set(sys.modules))\n"
        "print(codes, heavy)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script, SRC], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # No line loads argparse: not a well-formed one, a refused one, nor help.
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 1, 0] []"
    assert "invalid choice: 'frobnicate' (choose from 'represent', " in proc.stderr
    assert proc.stderr == run(capsys, "frobnicate")[2]


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h", "--json"], ["represent", "-h"], ["sequence", "-h", "--json"], ["search", "3", "--help"]]
)
def test_help_is_printed_to_stdout_and_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    command = next((a for a in argv if a in cli.COMMANDS), None)
    usage = f"usage: phisq {command} [-h]" if command else "usage: phisq [-h] [--json] [--expanded] command ..."
    assert out.startswith(usage), out
    assert out.count("usage:") == 1


def record(command, error):
    """The --json record of a refused line: the command the reader accepted before it refused, or None, and no input."""
    return json.dumps({"command": command, "input": "", "status": "parse_error", "error": error})


CHOICES = "(choose from 'represent', 'verify', 'factor', 'sequence', 'search', 'selftest')"

# Command lines, each with its exit code and exact stderr, on every Python: argparse 3.11's
# reading of them for this program, except where a row says otherwise.  Under --json the
# stderr of a refusal is its record.
LINES = {
    "equals": (["search", "3", "--bound=10"], EXIT_OK, ""),
    "double-dash": (["represent", "--", "2/3"], EXIT_OK, ""),
    "double-dash-after-the-operands": (["sequence", "5", "--"], EXIT_OK, ""),
    "double-dash-past-the-operands": (["factor", "12", "13", "--"], EXIT_PARSE_ERROR, "unrecognized arguments: 13 --"),
    "double-dash-after-a-value": (["search", "3", "--bound", "5", "--"], EXIT_PARSE_ERROR,
                                  "unrecognized arguments: --"),
    "double-dash-as-a-value": (["search", "3", "--bound", "--", "5"], EXIT_PARSE_ERROR,
                               "argument --bound: expected one argument"),
    "double-dash-as-the-command": (["--", "search", "3", "--bound", "5"], EXIT_PARSE_ERROR,
                                   "argument command: invalid choice: '--' (choose from 'represent', 'verify', "
                                   "'factor', 'sequence', 'search', 'selftest')"),
    "double-dash-alone": (["--expanded", "--"], EXIT_PARSE_ERROR, "the following arguments are required: command"),
    # After the first "--", a second is an operand (argparse 3.11 made it an empty list: exit 3).
    "second-double-dash": (["verify", "1", "--", "--", "2"], EXIT_PARSE_ERROR,
                           "value must be an unsigned integer, got '--'"),
    "abbreviated-option": (["search", "3", "--bo", "10"], EXIT_PARSE_ERROR,
                           "the following arguments are required: --bound"),
    "repeated-option": (["search", "3", "--bound", "x", "--bound", "10"], EXIT_PARSE_ERROR,
                        "argument --bound: invalid int value: 'x'"),
    "repeated-option-keeps-the-last": (["search", "3", "--bound", "0", "--bound", "10"], EXIT_OK, ""),
    "other-commands-option": (["represent", "2/3", "--bound", "10"], EXIT_PARSE_ERROR,
                              "unrecognized arguments: --bound 10"),
    "dash-operand": (["sequence", "-5"], EXIT_PARSE_ERROR, "limit must be >= 1, got -5"),
    "dash-decimal": (["sequence", "-.5"], EXIT_PARSE_ERROR, "argument limit: invalid int value: '-.5'"),
    "dash-value": (["search", "3", "--bound", "-5"], EXIT_PARSE_ERROR, "bound must be >= 1, got -5"),
    "spaced-dash-token": (["sequence", "- 5"], EXIT_PARSE_ERROR, "argument limit: invalid int value: '- 5'"),
    "unknown-option": (["sequence", "-x"], EXIT_PARSE_ERROR, "the following arguments are required: limit"),
    "help": (["represent", "-h"], EXIT_OK, ""),
    "help-before-a-bad-int": (["sequence", "-h", "abc"], EXIT_OK, ""),
    "bad-int-before-help": (["sequence", "abc", "-h"], EXIT_PARSE_ERROR, "argument limit: invalid int value: 'abc'"),
    # -h takes no value: glued to one, it is an unknown option (argparse 3.11 named the value).
    "glued-help": (["represent", "2/3", "-hx"], EXIT_PARSE_ERROR, "unrecognized arguments: -hx"),
    "missing-operand": (["verify", "1", "2"], EXIT_PARSE_ERROR, "the following arguments are required: ratio"),
    "only-an-option": (["search", "--bound", "10"], EXIT_PARSE_ERROR, "the following arguments are required: ratio"),
    "missing-before-unknown": (["search", "-x"], EXIT_PARSE_ERROR,
                               "the following arguments are required: ratio, --bound"),
    "extra-operand": (["factor", "12", "13"], EXIT_PARSE_ERROR, "unrecognized arguments: 13"),
    "operand-to-selftest": (["selftest", "x"], EXIT_PARSE_ERROR, "unrecognized arguments: x"),
    "missing-option": (["search", "3"], EXIT_PARSE_ERROR, "the following arguments are required: --bound"),
    "missing-value": (["search", "3", "--bound"], EXIT_PARSE_ERROR, "argument --bound: expected one argument"),
    "unknown-command": (["Represent", "2/3"], EXIT_PARSE_ERROR,
                        "argument command: invalid choice: 'Represent' (choose from 'represent', 'verify', "
                        "'factor', 'sequence', 'search', 'selftest')"),
    "no-command": (["--expanded"], EXIT_PARSE_ERROR, "the following arguments are required: command"),
    "not-an-int": (["sequence", "abc"], EXIT_PARSE_ERROR, "argument limit: invalid int value: 'abc'"),
    "plain-leading-zeros": (["--json", "sequence", "007"], EXIT_OK, ""),
    "plain-flags-after": (["factor", "55836", "--json", "--expanded"], EXIT_OK, ""),
    "plain-option-first": (["search", "--bound", "10", "3", "--expanded"], EXIT_OK, ""),
    # A command name after a token read as the command names no command in the record.
    "json-double-dash-as-the-command": (["--json", "--", "search", "3", "--bound", "5"], EXIT_PARSE_ERROR,
                                        record(None, f"argument command: invalid choice: '--' {CHOICES}")),
    "json-negative-numeral-as-the-command": (["--json", "-5", "search"], EXIT_PARSE_ERROR,
                                             record(None, f"argument command: invalid choice: '-5' {CHOICES}")),
    "json-dash-as-the-command": (["--json", "-", "search"], EXIT_PARSE_ERROR,
                                 record(None, f"argument command: invalid choice: '-' {CHOICES}")),
    "json-unknown-command": (["--json", "frobnicate"], EXIT_PARSE_ERROR,
                             record(None, f"argument command: invalid choice: 'frobnicate' {CHOICES}")),
    "json-missing-option": (["--json", "search", "3"], EXIT_PARSE_ERROR,
                            record("search", "the following arguments are required: --bound")),
    "json-not-an-int": (["--json", "search", "3", "--bound", "x"], EXIT_PARSE_ERROR,
                        record("search", "argument --bound: invalid int value: 'x'")),
}


# Plain lines, one per command, with the global flags before and after.
WELL_FORMED = [
    ["represent", "19/47", "--json"],
    ["--expanded", "verify", "39330", "55836", "19/47"],
    ["factor", "55836", "--json", "--expanded"],
    ["--json", "sequence", "007"],
    ["search", "--bound", "10", "3", "--expanded"],
    ["--json", "selftest", "--expanded"],
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda argv: " ".join(argv))
def test_the_reader_reads_a_plain_line_as_argparse_does(argv):
    # Every Python's argparse reads these alike, so the check runs on all of them.
    args = cli._read(argv, SimpleNamespace())
    assert args is not None
    assert vars(args) == vars(reference(argv))


@pytest.mark.parametrize("argv, expected, message", LINES.values(), ids=LINES)
def test_a_command_line_ends_in_its_exit_code_and_message(capsys, argv, expected, message):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (expected, message and (message if "--json" in argv else f"error: {message}") + "\n"), out
    assert out.startswith("usage: phisq") == ("-h" in argv and code == EXIT_OK)


def test_selftest_passes(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == EXIT_OK
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_selftest_json(capsys):
    code, body = run_json(capsys, "selftest")
    assert code == EXIT_OK
    assert body["all_passed"] is True
    assert len(body["checks"]) == 5
    assert all(c["passed"] for c in body["checks"])


def test_selftest_names_failing_check_when_corrupted(capsys, monkeypatch):
    # Simulate a corrupted totient table: the injectivity scan "finds" a
    # collision, and selftest must fail naming that check, with exit code 3.
    monkeypatch.setattr(cli, "injectivity_scan", lambda limit: (2, 3))
    code, out, err = run(capsys, "selftest")
    assert code == EXIT_INVARIANT_VIOLATION
    assert "FAIL  injectivity of phi(n^2) to 10^4" in out
    assert "collision (2, 3)" in out


def test_selftest_corruption_sets_status(capsys, monkeypatch):
    # A corrupted phi(n^2) path must fail the identity check, not crash.
    monkeypatch.setattr(cli, "totient_of_square", lambda f: f)
    code, body = run_json(capsys, "selftest")
    assert code == EXIT_INVARIANT_VIOLATION
    assert body["status"] == "internal_invariant_violation"
    failing = [c["name"] for c in body["checks"] if not c["passed"]]
    assert failing == ["identity phi(n^2) = n*phi(n) to 10^4"]


# --- unexpected exceptions: exit 3, one JSON status, never a traceback ---

@pytest.mark.parametrize(
    "exc", [RecursionError("maximum recursion depth exceeded"), MemoryError(), AssertionError("x")]
)
def test_unexpected_exception_maps_to_exit_3(capsys, monkeypatch, exc):
    def broken(r):
        raise exc

    monkeypatch.setattr(cli, "represent", broken)
    code, out, err = run(capsys, "represent", "2/3")
    assert code == EXIT_INVARIANT_VIOLATION
    assert out == ""
    assert err.startswith(f"error: {type(exc).__name__}")
    assert "Traceback" not in err
    code, body = run_json(capsys, "represent", "2/3")
    assert code == EXIT_INVARIANT_VIOLATION
    assert body["status"] == "internal_invariant_violation"
    assert body["command"] == "represent"
    assert body["input"] == "2/3"
    assert type(exc).__name__ in body["error"]


# --- deep inputs and exponent overflow through the real entry point ---

def run_module(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "phisq", *argv], capture_output=True, text=True, env=env
    )


def test_a_closed_output_pipe_is_not_a_fault():
    # As in "phisq sequence 200000 | head -n 1": about 1.9 MB of values, far past a pipe's
    # buffer, so the child is still writing when the reader closes its end after one line.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "phisq", "sequence", "200000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    # The command's own code; no error line and no "Exception ignored" at exit.
    assert (code, err) == (EXIT_OK, b"")


def test_module_represents_all_primes_to_20000():
    literal = " * ".join(f"{p}^{(-1) ** i * (i % 3 + 1)}" for i, p in enumerate(primes_up_to(20000)))
    proc = run_module("represent", literal, "--json")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    body = json.loads(proc.stdout)
    assert body["verified"] is True
    assert body["depth"] <= prime_pi(20000)


def test_module_exponent_overflow_exits_2():
    proc = run_module("represent", f"7^1 * 3^-{EXPONENT_LIMIT}", "--json")
    assert proc.returncode == EXIT_UNSUPPORTED_SCALE
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["status"] == "unsupported_scale"


def test_verify_answers_where_only_cancelling_factors_overflow(capsys):
    # phi((3^(2^62) * 7)^2) holds 3^(2^63): past the range, but on both sides it cancels.
    f = "3^4611686018427387904 * 7^1"
    code, out, err = run(capsys, "verify", f, f, "1")
    assert code == EXIT_OK
    assert "holds: true" in out
    assert "common value" not in out
    # Only the ratio is range-checked: 3^(2^63 + 1) on both sides cancels too ...
    g = "3^4611686018427387905"
    code, out, err = run(capsys, "verify", g, g, "1")
    assert (code, err) == (EXIT_OK, "")
    assert "holds: true" in out
    # ... and a refusal names the ratio's exponent, negative where it comes from n.
    for m, n, e in ((f, "1", 2**63), ("1", f, -(2**63))):
        code, body = run_json(capsys, "verify", m, n, "1")
        assert code == EXIT_UNSUPPORTED_SCALE
        assert body["error"] == f"exponent {e} for prime 3 exceeds +/-{EXPONENT_LIMIT}"


def test_verify_never_factors_p_minus_1_of_a_prime_on_both_sides(capsys, monkeypatch):
    # Were any p - 1 looked up, for the check or for the common value, the
    # failure would exit 2. The mapping is empty and refuses every read, so
    # what earlier tests left in the memo cannot answer one.
    class Unfactorable(dict):
        def __missing__(self, p):
            raise FactorizationFailure(f"cannot factor {p - 1}")

    for module in ("phisq.represent", "phisq.totient"):
        monkeypatch.setattr(importlib.import_module(module), "_p_minus_1", Unfactorable())
    f = "7^2 * 1000003^1"
    code, body = run_json(capsys, "verify", f, f, "1")
    assert code == EXIT_OK
    assert body["holds"] is True
    assert body["common_value"] == 7**3 * 6 * 1000003 * 1000002


def test_main_dispatches_through_the_module_attribute(capsys, monkeypatch):
    # The traced benchmark rebinds cmd_* with *args, **kwargs wrappers; main must
    # look the command up per call and hand it the parsed namespace.
    argv = ["search", "3", "--bound", "10"]
    plain = run(capsys, *argv)
    as_json = run(capsys, *argv, "--json")
    calls = []
    inner = cli.cmd_search

    @functools.wraps(inner)
    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, "cmd_search", wrapper)
    assert run(capsys, *argv) == plain
    assert run(capsys, *argv, "--json") == as_json
    assert len(calls) == 2
    assert all(kwargs == {} and args[0].ratio == "3" and args[0].bound == 10 for args, kwargs in calls)
