"""Command-line front end.

Subcommands: represent, verify, factor, sequence, search, selftest.
Exit codes are a stable scripting contract:

    0  success (and, for verify, the ratio holds)
    1  parse error in any input
    2  unsupported scale (factorization failure, exponent overflow, or an
       integer beyond the exact-primality bound)
    3  internal invariant violation (a self-check that can only fail if the
       library itself is wrong, or any unexpected exception, reported by
       type instead of a traceback)
    4  verify ran cleanly but the ratio does not hold
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from random import Random

from .errors import (
    ExponentOverflowError,
    FactorizationFailure,
    ParseError,
    UnsupportedScaleError,
)
from .factored import EXPANSION_BIT_LIMIT, FactoredInteger, factor, parse_integer, parse_rational
from .oracle import brute_force_minimal, injectivity_scan, random_rational
from .primes import prime_pi
from .represent import represent, verify
from .totient import phi_square_value, totient

EXIT_OK = 0
EXIT_PARSE_ERROR = 1
EXIT_UNSUPPORTED_SCALE = 2
EXIT_INVARIANT_VIOLATION = 3
EXIT_VERIFY_FALSE = 4

STATUS_OK = "ok"
STATUS_PARSE_ERROR = "parse_error"
STATUS_UNSUPPORTED_SCALE = "unsupported_scale"
STATUS_INVARIANT_VIOLATION = "internal_invariant_violation"

SELFTEST_SEED = 20260811


@dataclass
class OutputRecord:
    """One command's result: structured payload plus equivalent plain lines.

    payload is present exactly when status is "ok" or the command produced a
    full report anyway (selftest failures, an unverifiable represent);
    errors carry no payload, only the error message.
    """

    command: str
    input_echo: str
    payload: dict | None
    status: str = STATUS_OK
    lines: list[str] = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        body = {"command": self.command, "input": self.input_echo, "status": self.status}
        if self.payload is not None:
            body.update(self.payload)
        if self.error is not None:
            body["error"] = self.error
        return body


def _factors_obj(f: FactoredInteger) -> dict[str, int]:
    return {str(p): e for p, e in f.entries}


def _integer_body(f: FactoredInteger, expanded: bool) -> dict:
    body: dict = {"factors": _factors_obj(f)}
    if expanded:
        if f.bit_size() > EXPANSION_BIT_LIMIT:
            raise UnsupportedScaleError(
                f"expanded value would exceed {EXPANSION_BIT_LIMIT} bits; "
                "rerun without --expanded"
            )
        body["value"] = f.value()
    return body


def cmd_represent(ratio_text: str, expanded: bool = False) -> tuple[OutputRecord, int]:
    r = parse_rational(ratio_text)
    rep = represent(r)
    report = verify(rep.m, rep.n, r)
    payload = {
        "m": _integer_body(rep.m, expanded),
        "n": _integer_body(rep.n, expanded),
        "verified": report.holds,
        "depth": rep.depth,
    }
    lines = [f"input: {ratio_text}", f"m: {rep.m}", f"n: {rep.n}"]
    if expanded:
        lines += [f"m value: {payload['m']['value']}", f"n value: {payload['n']['value']}"]
    lines += [f"depth: {rep.depth}", f"verified: {str(report.holds).lower()}"]
    if not report.holds:
        # Unreachable unless the construction itself is broken.
        record = OutputRecord("represent", ratio_text, payload, STATUS_INVARIANT_VIOLATION, lines)
        return record, EXIT_INVARIANT_VIOLATION
    return OutputRecord("represent", ratio_text, payload, STATUS_OK, lines), EXIT_OK


def cmd_verify(m_text: str, n_text: str, ratio_text: str) -> tuple[OutputRecord, int]:
    m = parse_integer(m_text)
    n = parse_integer(n_text)
    r = parse_rational(ratio_text)
    report = verify(m, n, r)
    payload = {
        "m": {"factors": _factors_obj(m)},
        "n": {"factors": _factors_obj(n)},
        "holds": report.holds,
        "computed": {str(p): e for p, e in report.lhs.entries},
        "expected": {str(p): e for p, e in report.expected.entries},
        "common_value": report.common_value,
    }
    echo = f"m={m_text} n={n_text} r={ratio_text}"
    lines = [
        f"input: {echo}",
        f"m: {m}",
        f"n: {n}",
        f"computed ratio: {report.lhs}",
        f"expected ratio: {report.expected}",
        f"holds: {str(report.holds).lower()}",
    ]
    if report.common_value is not None:
        lines.append(f"common value: {report.common_value}")
    record = OutputRecord("verify", echo, payload, STATUS_OK, lines)
    return record, EXIT_OK if report.holds else EXIT_VERIFY_FALSE


def cmd_factor(nat_text: str) -> tuple[OutputRecord, int]:
    s = nat_text.strip()
    if not s.isdigit():
        raise ParseError(f"factor takes a plain positive integer, got {nat_text!r}")
    f = parse_integer(s)
    payload = {"factors": _factors_obj(f), "value": f.value()}
    lines = [f"input: {nat_text}", f"factors: {f}"]
    return OutputRecord("factor", nat_text, payload, STATUS_OK, lines), EXIT_OK


def cmd_sequence(limit: int) -> tuple[OutputRecord, int]:
    if limit < 1:
        raise ParseError(f"limit must be >= 1, got {limit}")
    values = [phi_square_value(k) for k in range(1, limit + 1)]
    payload = {"limit": limit, "values": values}
    lines = [str(v) for v in values]
    return OutputRecord("sequence", str(limit), payload, STATUS_OK, lines), EXIT_OK


def cmd_search(ratio_text: str, bound: int) -> tuple[OutputRecord, int]:
    if bound < 1:
        raise ParseError(f"bound must be >= 1, got {bound}")
    r = parse_rational(ratio_text)
    result = brute_force_minimal(r, bound)
    payload = {"bound": bound, "found": result.found, "m": result.m, "n": result.n}
    lines = [f"input: {ratio_text}", f"bound: {bound}", f"found: {str(result.found).lower()}"]
    if result.found:
        lines += [f"m: {result.m}", f"n: {result.n}"]
    else:
        lines.append(f"no pair with max(m, n) <= {bound}")
    return OutputRecord("search", ratio_text, payload, STATUS_OK, lines), EXIT_OK


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


def cmd_selftest() -> tuple[OutputRecord, int]:
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
    status = STATUS_OK if all_ok else STATUS_INVARIANT_VIOLATION
    record = OutputRecord("selftest", "", {"checks": results, "all_passed": all_ok}, status, lines)
    return record, EXIT_OK if all_ok else EXIT_INVARIANT_VIOLATION


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParseError (exit code 1)."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    # The flags are accepted both before and after the subcommand; SUPPRESS
    # keeps the subparser from clobbering a value given up front.
    common = _Parser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="emit one JSON object"
    )
    common.add_argument(
        "--expanded",
        action="store_true",
        default=argparse.SUPPRESS,
        help="also emit expanded decimal values",
    )
    parser = _Parser(prog="phisq", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", action="store_true", help="emit one JSON object")
    parser.add_argument("--expanded", action="store_true", help="also emit expanded decimal values")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("represent", parents=[common], help="find (m, n) with phi(m^2)/phi(n^2) = ratio")
    p.add_argument("ratio", help='"p/q", "n", or a factored literal like "2^3 * 5^-1"')

    p = sub.add_parser("verify", parents=[common], help="check phi(m^2)/phi(n^2) = ratio")
    p.add_argument("m")
    p.add_argument("n")
    p.add_argument("ratio")

    p = sub.add_parser("factor", parents=[common], help="prime factorization of a positive integer")
    p.add_argument("n")

    p = sub.add_parser("sequence", parents=[common], help="phi(k^2) for k = 1..limit")
    p.add_argument("limit", type=int)

    p = sub.add_parser("search", parents=[common], help="minimal (m, n) by exhaustive scan")
    p.add_argument("ratio")
    p.add_argument("--bound", type=int, required=True, help="search m, n <= bound")

    sub.add_parser("selftest", parents=[common], help="run the built-in cross-check suite")
    return parser


def _dispatch(args: argparse.Namespace) -> tuple[OutputRecord, int]:
    if args.command == "represent":
        return cmd_represent(args.ratio, expanded=args.expanded)
    if args.command == "verify":
        return cmd_verify(args.m, args.n, args.ratio)
    if args.command == "factor":
        return cmd_factor(args.n)
    if args.command == "sequence":
        return cmd_sequence(args.limit)
    if args.command == "search":
        return cmd_search(args.ratio, args.bound)
    return cmd_selftest()


def _input_echo(args: argparse.Namespace) -> str:
    if args is None or not getattr(args, "command", None):
        return ""
    if args.command == "verify":
        return f"m={args.m} n={args.n} r={args.ratio}"
    for attr in ("ratio", "n", "limit"):
        if hasattr(args, attr):
            return str(getattr(args, attr))
    return ""


def _error_record(args: argparse.Namespace | None, status: str, message: str) -> OutputRecord:
    command = getattr(args, "command", None) or ""
    return OutputRecord(command, _input_echo(args), None, status, [f"error: {message}"], error=message)


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
    args = None
    try:
        args = build_parser().parse_args(argv)
        record, code = _dispatch(args)
    except ParseError as exc:
        record, code = _error_record(args, STATUS_PARSE_ERROR, str(exc)), EXIT_PARSE_ERROR
    except (FactorizationFailure, ExponentOverflowError, UnsupportedScaleError) as exc:
        record, code = _error_record(args, STATUS_UNSUPPORTED_SCALE, str(exc)), EXIT_UNSUPPORTED_SCALE
    except Exception as exc:
        # Anything else (RecursionError, MemoryError, a failed assert) is a bug
        # in the library, never the input's fault: report it, never crash.
        record = _error_record(args, STATUS_INVARIANT_VIOLATION, _describe_unexpected(exc))
        code = EXIT_INVARIANT_VIOLATION
    stream = sys.stderr if record.error is not None else sys.stdout
    if getattr(args, "json", False):
        print(json.dumps(record.to_dict()), file=stream)
    else:
        print("\n".join(record.lines), file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
