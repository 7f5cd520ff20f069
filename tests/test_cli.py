import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from phisq import cli
from phisq.cli import (
    EXIT_INVARIANT_VIOLATION,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_UNSUPPORTED_SCALE,
    EXIT_VERIFY_FALSE,
    main,
)
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


def test_sequence_plain_streams_one_per_line(capsys):
    code, out, err = run(capsys, "sequence", "5")
    assert code == EXIT_OK
    assert out.splitlines() == ["1", "2", "6", "8", "20"]


def test_sequence_json(capsys):
    code, body = run_json(capsys, "sequence", "10")
    assert code == EXIT_OK
    assert body["values"] == [1, 2, 6, 8, 20, 12, 42, 32, 54, 40]


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
    # Refused before the sieve is allocated, so this costs nothing.
    for argv in (["sequence", "10000001"], ["search", "3", "--bound", "10000001"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_UNSUPPORTED_SCALE
        assert out == ""
        assert err == "error: a totient sieve to 10000001 exceeds the cap of 10000000\n"
        code, body = run_json(capsys, *argv)
        assert body["status"] == "unsupported_scale"


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
    monkeypatch.setattr(cli, "phi_square_value", lambda k: k)
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
