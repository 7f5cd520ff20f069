"""Golden CLI corpus: every command, its refusals and one input per error class.

Each line of golden/cli.jsonl holds one argv for `phisq` with the exit code,
stdout and stderr it gave when the corpus was recorded, plain and --json.
The factor, represent and verify inputs hold primes above the trial-division
range, semiprimes that rho must split, and cofactors past the exact-primality
bound, so any change to factorization that alters a result, a refusal or an
error message shows up here. The rest cover sequence, search, selftest, one
single-fault input per parse-error class, the --expanded refusal and
exponent overflow. To re-record after an intended change of output, run

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff of tests/golden/cli.jsonl.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from phisq.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.jsonl"

M127 = 2**127 - 1  # beyond the exact-primality bound
P29, P40 = 536870923, 1099511627791  # the first primes above 2^29 and 2^40
# Primes of 2^36..2^40, as in the benchmark's big_factor workload.
B1, B2, B3, B4, B5, B6 = 931392751327, 430359554543, 140793097369, 574939449571, 938643700009, 984043920917
B7 = 1031740503931
W1, W2, W3 = 830099682619, 605258153629, 690620645287  # three 2^39..2^40 primes: too wide together
S1 = 955914041  # a prime of 2^28..2^30

FACTOR_INPUTS = [
    999999999989,
    1000000000039,
    P29 * P40,
    2**67 - 1,
    1000037 * 1000039,
    999983 * 1000003,
    1000003 * 1000033 * 10007,
    2**5 * 3**3 * 7 * B1,
    S1 * B5,
    W1 * W2 * W3,
    M127,
]

REPRESENT_INPUTS = [
    "999999999989/1000000000039",
    f"{2**3 * 5 * B1}/{3**2 * 7 * B2}",
    f"{11 * B3}/{2**4 * B4}",
    f"{3 * S1 * B5}/{2**2 * 5}",
    f"{1000037 * 1000039}/2",
    f"{W1 * W2 * W3}/7",
    str(M127),
]

# One fault each: bad literal, zero numerator, zero denominator, non-prime
# base, duplicate prime, zero exponent.
PARSE_ERRORS = ["2^1 * x^2", "0", "5/0", "4^2", "2^1 * 2^1", "2^0"]


def _phi_square(factors: dict[int, int]) -> int:
    """phi(k^2) = k * phi(k) for k given by its factorization, in plain integers."""
    value = 1
    for p, e in factors.items():
        value *= p ** (2 * e - 1) * (p - 1)
    return value


def _value(factors: dict[int, int]) -> int:
    value = 1
    for p, e in factors.items():
        value *= p**e
    return value


def _verify_argv(m: dict[int, int], n: dict[int, int], truthful: bool) -> list[str]:
    ratio = Fraction(_phi_square(m), _phi_square(n)) * (1 if truthful else 2)
    return ["verify", str(_value(m)), str(_value(n)), f"{ratio.numerator}/{ratio.denominator}"]


def corpus_argvs() -> list[list[str]]:
    commands = [["factor", str(n)] for n in FACTOR_INPUTS]
    commands += [["represent", text] for text in REPRESENT_INPUTS]
    commands.append(["represent", "999999999989/1000000000039", "--expanded"])
    commands += [
        _verify_argv({2: 1, B1: 1}, {3: 1, B2: 1}, truthful=True),
        _verify_argv({2: 1, B1: 1}, {3: 1, B2: 1}, truthful=False),
        _verify_argv({B6: 1}, {5: 1, B7: 1}, truthful=True),
        _verify_argv({7: 2, S1: 1}, {P40: 1}, truthful=True),
    ]
    commands += [["sequence", limit] for limit in ("1", "10", "5000")]
    commands += [
        ["search", "3", "--bound", "10"],
        ["search", "19/47", "--bound", "100"],
        ["search", "1", "--bound", "1"],
        ["search", "1/3", "--bound", "10"],  # a hit with m < max(m, n)
        ["search", "3", "--bound", "2"],  # a miss one below the minimal pair (3, 2)
        ["search", "3", "--bound", "3"],  # a hit at max(m, n) == bound, m == max(m, n)
        ["search", "1/3", "--bound", "3"],  # a hit at max(m, n) == bound, m < max(m, n)
        ["search", "19/47", "--bound", "2000"],  # a miss at the benchmark's bound
        ["selftest"],
    ]
    commands += [["represent", text] for text in PARSE_ERRORS]
    commands += [
        ["verify", "2^-1", "1", "1"],  # a negative exponent in an integer
        ["search", "3"],  # --bound missing
        ["frobnicate"],  # unknown command
        ["represent", "2^20000000", "--expanded"],
        ["represent", "7^1 * 3^-9223372036854775807"],
        # Range checks owned by the oracles: a warmed sequence table must not hide them.
        ["sequence", "0"],
        ["sequence", "-3"],
        ["search", "3", "--bound", "0"],
        # Refusals before any factoring: factor's digits-only rule, a literal
        # term without an exponent, an empty integer.
        ["factor", "2^3"],
        ["represent", "2^1 * 3"],
        ["verify", "", "1", "1"],
    ]
    return [argv + extra for argv in commands for extra in ([], ["--json"])]


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def corpus_lines() -> list[str]:
    return [json.dumps(run_cli(argv)) for argv in corpus_argvs()]


def test_golden_cli_corpus_is_unchanged():
    expected = GOLDEN.read_text().splitlines()
    got = corpus_lines()
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(corpus_lines()) + "\n")
