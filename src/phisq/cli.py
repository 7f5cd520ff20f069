"""Command-line front end.

Subcommands: represent, verify, factor, sequence, search, selftest.
Exit codes are a stable scripting contract:

    0  success (and, for verify, the ratio holds)
    1  parse error in any input
    2  unsupported scale (factorization failure, exponent overflow, an
       integer beyond the exact-primality bound, a decimal numeral, read
       or printed, longer than Python's int-string conversion limit, or a
       sequence limit or search bound past the sieve cap of 10^7)
    3  internal invariant violation (a self-check that can only fail if the
       library itself is wrong, or any unexpected exception, reported by
       type instead of a traceback)
    4  verify ran cleanly but the ratio does not hold
"""

import argparse
import functools
import inspect
import json
import os
import sys
from random import Random

from .errors import ExponentOverflowError, FactorizationFailure, ParseError, UnsupportedScaleError
from .factored import (
    EXPANSION_BIT_LIMIT,
    FactoredInteger,
    FactoredRational,
    _decimal,
    factor,
    parse_integer,
    parse_rational,
)
from .oracle import brute_force_minimal, injectivity_scan, phi_square_sequence, random_rational
from .primes import prime_pi
from .represent import represent, verify
from .totient import phi_square_value, totient

EXIT_OK = 0
EXIT_PARSE_ERROR = 1
EXIT_UNSUPPORTED_SCALE = 2
EXIT_INVARIANT_VIOLATION = 3
EXIT_VERIFY_FALSE = 4

# The JSON record's status for each exit code.
STATUS = {
    EXIT_OK: "ok",
    EXIT_PARSE_ERROR: "parse_error",
    EXIT_UNSUPPORTED_SCALE: "unsupported_scale",
    EXIT_INVARIANT_VIOLATION: "internal_invariant_violation",
    EXIT_VERIFY_FALSE: "ok",
}

SELFTEST_SEED = 20260811

# A command's JSON payload, its plain lines (own order and labels) and exit code.
Result = tuple[dict, list[str], int]


def _factors_obj(f: FactoredRational) -> dict[str, int]:
    return {str(p): e for p, e in f.entries}


def _printable(value: int) -> bool:
    """Whether str(value) stays within Python's int-string conversion limit."""
    limit = sys.get_int_max_str_digits()
    return not limit or value < 10**limit


def _integer_body(f: FactoredInteger, expanded: bool) -> dict:
    body: dict = {"factors": _factors_obj(f)}
    if expanded:
        if f.bit_size() > EXPANSION_BIT_LIMIT:
            raise UnsupportedScaleError(
                f"expanded value would exceed {EXPANSION_BIT_LIMIT} bits; "
                "rerun without --expanded"
            )
        value = f.value()
        if not _printable(value):
            raise UnsupportedScaleError(
                f"expanded value would exceed {sys.get_int_max_str_digits()} decimal digits; "
                "rerun without --expanded"
            )
        body["value"] = value
    return body


def cmd_represent(ratio: str, expanded: bool = False) -> Result:
    r = parse_rational(ratio)
    rep = represent(r)
    report = verify(rep.m, rep.n, r)
    payload = {
        "m": _integer_body(rep.m, expanded),
        "n": _integer_body(rep.n, expanded),
        "verified": report.holds,
        "depth": rep.depth,
    }
    lines = [f"input: {ratio}", f"m: {rep.m}", f"n: {rep.n}"]
    if expanded:
        lines += [f"m value: {payload['m']['value']}", f"n value: {payload['n']['value']}"]
    lines += [f"depth: {rep.depth}", f"verified: {str(report.holds).lower()}"]
    # A failed check is unreachable unless the construction itself is broken.
    return payload, lines, EXIT_OK if report.holds else EXIT_INVARIANT_VIOLATION


def cmd_verify(m: str, n: str, ratio: str) -> Result:
    mf = parse_integer(m)
    nf = parse_integer(n)
    report = verify(mf, nf, parse_rational(ratio))
    common = report.common_value
    if common is not None and not _printable(common):
        common = None
    payload = {
        "m": {"factors": _factors_obj(mf)},
        "n": {"factors": _factors_obj(nf)},
        "holds": report.holds,
        "computed": _factors_obj(report.lhs),
        "expected": _factors_obj(report.expected),
        "common_value": common,
    }
    lines = [
        f"input: m={m} n={n} r={ratio}",
        f"m: {mf}",
        f"n: {nf}",
        f"computed ratio: {report.lhs}",
        f"expected ratio: {report.expected}",
        f"holds: {str(report.holds).lower()}",
    ]
    if common is not None:
        lines.append(f"common value: {common}")
    return payload, lines, EXIT_OK if report.holds else EXIT_VERIFY_FALSE


def cmd_factor(n: str) -> Result:
    s = n.strip()
    if not s.isdigit():
        raise ParseError(f"factor takes a plain positive integer, got {n!r}")
    f = parse_integer(s)
    payload = {"factors": _factors_obj(f), "value": f.value()}
    lines = [f"input: {n}", f"factors: {f}"]
    return payload, lines, EXIT_OK


def cmd_sequence(limit: int) -> Result:
    if limit < 1:
        raise ParseError(f"limit must be >= 1, got {limit}")
    values = phi_square_sequence(limit)
    payload = {"limit": limit, "values": values}
    lines = [str(v) for v in values]
    return payload, lines, EXIT_OK


def cmd_search(ratio: str, bound: int) -> Result:
    if bound < 1:
        raise ParseError(f"bound must be >= 1, got {bound}")
    r = parse_rational(ratio)
    result = brute_force_minimal(r, bound)
    payload = {"bound": bound, "found": result.found, "m": result.m, "n": result.n}
    lines = [f"input: {ratio}", f"bound: {bound}", f"found: {str(result.found).lower()}"]
    if result.found:
        lines += [f"m: {result.m}", f"n: {result.n}"]
    else:
        lines.append(f"no pair with max(m, n) <= {bound}")
    return payload, lines, EXIT_OK


def _check_known_pair(m: int, n: int, ratio: str, common: int) -> tuple[bool, str]:
    report = verify(factor(m), factor(n), parse_rational(ratio))
    ok = report.holds and report.common_value == common
    return ok, f"verify({m}, {n}, {ratio}) -> holds={report.holds}, common={report.common_value}"


def _check_square_identity(limit: int = 10**4) -> tuple[bool, str]:
    for k in range(1, limit + 1):
        if phi_square_value(k) != k * totient(factor(k)).value():
            return False, f"phi(k^2) != k*phi(k) at k={k}"
    return True, f"phi(k^2) = k*phi(k) for k <= {limit}"


def _check_injectivity(limit: int = 10**4) -> tuple[bool, str]:
    collision = injectivity_scan(limit)
    if collision is not None:
        return False, f"collision {collision} below {limit}"
    return True, f"no collision below {limit}"


def _check_round_trip(cases: int = 200) -> tuple[bool, str]:
    rng = Random(SELFTEST_SEED)
    for i in range(cases):
        r = random_rational(rng)
        rep = represent(r)
        if not verify(rep.m, rep.n, r).holds:
            return False, f"round-trip failed for case {i}: r = {r}"
        top = r.entries[-1][0] if r.entries else None
        mn_primes = set(rep.m.factors) | set(rep.n.factors)
        if top is None:
            if mn_primes:
                return False, f"r = 1 must give m = n = 1, got {rep.m}, {rep.n}"
        elif any(p > top for p in mn_primes) or rep.depth > prime_pi(top):
            return False, f"prime bound or depth violated for r = {r}"
    return True, f"{cases} random ratios represented and verified"


def cmd_selftest() -> Result:
    checks = [
        ("known pair 39330/55836 for 19/47", lambda: _check_known_pair(39330, 55836, "19/47", 19673280)),
        ("known pair 14476/20010 for 47/58", lambda: _check_known_pair(14476, 20010, "47/58", 1700160)),
        ("identity phi(n^2) = n*phi(n) to 10^4", _check_square_identity),
        ("injectivity of phi(n^2) to 10^4", _check_injectivity),
        ("random round-trip x200", _check_round_trip),
    ]
    results = []
    lines = []
    all_ok = True
    for name, run in checks:
        ok, detail = run()
        all_ok &= ok
        results.append({"name": name, "passed": ok, "detail": detail})
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<42} {detail}")
    lines.append(f"selftest: {'all checks passed' if all_ok else 'FAILURES PRESENT'}")
    return {"checks": results, "all_passed": all_ok}, lines, EXIT_OK if all_ok else EXIT_INVARIANT_VIOLATION


# The global flags: declared once, on the top-level parser, and accepted before
# or after the command, spelled in full.
FLAGS = {"--json": "emit one JSON object", "--expanded": "also emit expanded decimal values"}

# Each command: its help, the input its JSON record echoes, and its arguments
# with their argparse options, named as the parameters of cmd_<command>.
COMMANDS = {
    "represent": (
        "find (m, n) with phi(m^2)/phi(n^2) = ratio", "{ratio}",
        {"ratio": {"help": '"p/q", "n", or a factored literal like "2^3 * 5^-1"'}},
    ),
    "verify": ("check phi(m^2)/phi(n^2) = ratio", "m={m} n={n} r={ratio}", {"m": {}, "n": {}, "ratio": {}}),
    "factor": ("prime factorization of a positive integer", "{n}", {"n": {}}),
    "sequence": ("phi(k^2) for k = 1..limit", "{limit}", {"limit": {"type": int}}),
    "search": (
        "minimal (m, n) with m, n <= bound", "{ratio}",
        {"ratio": {}, "--bound": {"type": int, "required": True, "help": "search m, n <= bound"}},
    ),
    "selftest": ("run the built-in cross-check suite", "", {}),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParseError (exit code 1)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # type=int reads through _decimal: past the digit limit is exit 2, as for any numeral.
        self.register("type", int, _decimal)

    def error(self, message):
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged.
    parser = _Parser(
        prog="phisq", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False
    )
    for flag, text in FLAGS.items():
        parser.add_argument(flag, action="store_true", help=text)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (text, echo, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(echo=echo)
        for argument, options in arguments.items():
            p.add_argument(argument, **options)
    return parser


def _output(args: argparse.Namespace, code: int, payload: dict, lines: list[str]) -> str:
    """The plain lines, or under --json one record: command, input, status, then the payload."""
    if not args.json:
        return "\n".join(lines)
    echo = args.echo.format_map(vars(args))
    return json.dumps({"command": args.command, "input": echo, "status": STATUS[code], **payload})


def _describe_unexpected(exc: Exception) -> str:
    """Exception type, message and innermost frame, in one line instead of a traceback."""
    text = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
    tb = exc.__traceback__
    if tb is not None:
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        text += f" (in {code.co_name}, {os.path.basename(code.co_filename)}:{tb.tb_lineno})"
    return text


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Move the global flags in front of the command, where they are declared. Abbreviations
    # are refused, so an accepted and a rejected line both choose JSON by the exact "--json".
    argv = sorted(argv, key=lambda a: a not in FLAGS)
    args = None
    try:
        args = build_parser().parse_args(argv)
        # Looked up per call, not bound in the parser: the traced benchmark rebinds cmd_*.
        run = globals()[f"cmd_{args.command}"]
        payload, lines, code = run(**{p: getattr(args, p) for p in inspect.signature(run).parameters})
        # Rendered inside the try: formatting a large integer can raise too.
        print(_output(args, code, payload, lines))
        return code
    except ParseError as exc:
        code, message = EXIT_PARSE_ERROR, str(exc)
    except (FactorizationFailure, ExponentOverflowError, UnsupportedScaleError) as exc:
        code, message = EXIT_UNSUPPORTED_SCALE, str(exc)
    except Exception as exc:
        # Anything else (RecursionError, MemoryError, a failed assert) is a bug
        # in the library, never the input's fault: report it, never crash.
        code, message = EXIT_INVARIANT_VIOLATION, _describe_unexpected(exc)
    if args is None:
        # A rejected line still tells --json, and a known command; its input is not echoed.
        first = next((a for a in argv if not a.startswith("-")), None)
        args = argparse.Namespace(json="--json" in argv, command=first if first in COMMANDS else None, echo="")
    print(_output(args, code, {"error": message}, [f"error: {message}"]), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
