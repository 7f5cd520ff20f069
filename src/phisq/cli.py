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

import functools
import json
import os
import sys
from random import Random
from types import SimpleNamespace

from .errors import ExponentOverflowError, FactorizationFailure, ParseError, UnsupportedScaleError, cut
from .factored import (
    EXPANSION_BIT_LIMIT,
    FactoredInteger,
    FactoredRational,
    _decimal,
    factor,
    parse_integer,
    parse_rational,
)
from .oracle import brute_force_minimal, injectivity_scan, phi_square_sequence, phi_square_text, random_rational
from .primes import prime_pi
from .represent import represent, verify
from .totient import totient_of_square

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


def cmd_represent(args: SimpleNamespace) -> Result:
    r = parse_rational(args.ratio)
    rep = represent(r)
    report = verify(rep.m, rep.n, r)
    payload = {
        "m": _integer_body(rep.m, args.expanded),
        "n": _integer_body(rep.n, args.expanded),
        "verified": report.holds,
        "depth": rep.depth,
    }
    lines = [f"input: {args.ratio}", f"m: {rep.m}", f"n: {rep.n}"]
    if args.expanded:
        lines += [f"m value: {payload['m']['value']}", f"n value: {payload['n']['value']}"]
    lines += [f"depth: {rep.depth}", f"verified: {str(report.holds).lower()}"]
    # A failed check is unreachable unless the construction itself is broken.
    return payload, lines, EXIT_OK if report.holds else EXIT_INVARIANT_VIOLATION


def cmd_verify(args: SimpleNamespace) -> Result:
    mf = parse_integer(args.m)
    nf = parse_integer(args.n)
    report = verify(mf, nf, parse_rational(args.ratio))
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
        f"input: m={args.m} n={args.n} r={args.ratio}",
        f"m: {mf}",
        f"n: {nf}",
        f"computed ratio: {report.lhs}",
        f"expected ratio: {report.expected}",
        f"holds: {str(report.holds).lower()}",
    ]
    if common is not None:
        lines.append(f"common value: {common}")
    return payload, lines, EXIT_OK if report.holds else EXIT_VERIFY_FALSE


def cmd_factor(args: SimpleNamespace) -> Result:
    s = args.n.strip()
    if not s.isdecimal():
        raise ParseError(f"factor takes a plain positive integer, got {cut(args.n, repr)}")
    f = parse_integer(s)
    payload = {"factors": _factors_obj(f), "value": f.value()}
    lines = [f"input: {args.n}", f"factors: {f}"]
    return payload, lines, EXIT_OK


def cmd_sequence(args: SimpleNamespace) -> Result:
    # Only the output main prints is built: the value list or the text.
    if args.json:
        return {"limit": args.limit, "values": phi_square_sequence(args.limit)}, [], EXIT_OK
    return {}, [phi_square_text(args.limit)], EXIT_OK


def cmd_search(args: SimpleNamespace) -> Result:
    result = brute_force_minimal(parse_rational(args.ratio), args.bound)
    payload = {"bound": args.bound, "found": result.found, "m": result.m, "n": result.n}
    lines = [f"input: {args.ratio}", f"bound: {args.bound}", f"found: {str(result.found).lower()}"]
    if result.found:
        lines += [f"m: {result.m}", f"n: {result.n}"]
    else:
        lines.append(f"no pair with max(m, n) <= {args.bound}")
    return payload, lines, EXIT_OK


def _check_known_pair(m: int, n: int, ratio: str, common: int) -> tuple[bool, str]:
    report = verify(factor(m), factor(n), parse_rational(ratio))
    ok = report.holds and report.common_value == common
    return ok, f"verify({m}, {n}, {ratio}) -> holds={report.holds}, common={report.common_value}"


def _check_square_identity() -> tuple[bool, str]:
    # The factored path against the sieve oracle, which shares none of its code.
    for k, sieved in enumerate(phi_square_sequence(10**4), 1):
        if totient_of_square(factor(k)).value() != sieved:
            return False, f"phi(k^2) != k*phi(k) at k={k}"
    return True, "phi(k^2) = k*phi(k) for k <= 10000"


def _check_injectivity() -> tuple[bool, str]:
    collision = injectivity_scan(10**4)
    if collision is not None:
        return False, f"collision {collision} below 10000"
    return True, "no collision below 10000"


def _check_round_trip() -> tuple[bool, str]:
    rng = Random(SELFTEST_SEED)
    for i in range(200):
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
    return True, "200 random ratios represented and verified"


def cmd_selftest(args: SimpleNamespace) -> Result:
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
# with their argparse options, whose "type" _read honours too; cmd_<command> reads them
# from the parsed namespace.
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


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain, well-formed line, or None to leave the line to argparse.

    Plain is: the global flags first (main sorts them there), a command, exactly its
    operands, and each of its options once, as "--bound 7".  Any other token that starts
    with "-" (help, "--", "--bound=7", a negative numeral), a repeated or missing option,
    a missing or extra operand, and an int that _decimal refuses with ValueError are left
    to argparse, which alone prints help and usage messages.
    """
    flags = [a for a in argv if a in FLAGS]
    command, *rest = argv[len(flags):] or [None]
    if command not in COMMANDS:
        return None
    _, echo, arguments = COMMANDS[command]
    operands, options = [], {}
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            operands.append(token)
        elif token in arguments and token not in options:
            options[token] = next(tokens, "-")  # a missing value is declined like a "-" token
            if options[token].startswith("-"):
                return None
        else:
            return None
    names = [a for a in arguments if not a.startswith("-")]
    if len(operands) != len(names) or len(options) != len(arguments) - len(names):
        return None
    args = SimpleNamespace(**{flag.lstrip("-"): flag in flags for flag in FLAGS}, command=command, echo=echo)
    for argument, text in (*zip(names, operands), *options.items()):
        if arguments[argument].get("type") is int:
            try:
                text = _decimal(text)
            except ValueError:
                return None  # for argparse's own message
        setattr(args, argument.lstrip("-"), text)
    return args


@functools.cache
def build_parser():
    """The argparse parser of every line _read leaves; built once per process, as parse_args leaves it unchanged."""
    import argparse  # here, not at import: a well-formed line loads neither argparse nor gettext

    class _Parser(argparse.ArgumentParser):
        """argparse whose usage errors are ParseErrors (exit 1), cut at 200 characters: the command list takes ~100."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # type=int reads through _decimal: past the digit limit is exit 2, as for any numeral.
            self.register("type", int, _decimal)

        def error(self, message):
            raise ParseError(cut(message, limit=200))

    parser = _Parser(
        prog="phisq", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False
    )
    for flag, text in FLAGS.items():
        parser.add_argument(flag, action="store_true", help=text)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (text, echo, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.set_defaults(echo=echo)
        for argument, options in arguments.items():
            p.add_argument(argument, **options)
    return parser


def _output(args: SimpleNamespace, code: int, payload: dict, lines: list[str]) -> str:
    """The plain lines, or under --json one record: command, input (cut in a refusal), status, payload."""
    if not args.json:
        return "\n".join(lines)
    echo = args.echo.format_map(vars(args))
    if "error" in payload:
        echo = cut(echo)
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
        # A plain, well-formed line is read here; argparse, loaded only then, reads any other.
        args = _read(argv) or build_parser().parse_args(argv, SimpleNamespace())
        # Looked up per call, not bound in the parser: the traced benchmark rebinds cmd_*.
        payload, lines, code = globals()[f"cmd_{args.command}"](args)
        # Rendered inside the try: formatting a large integer can raise too.
        print(_output(args, code, payload, lines))
        return code
    except SystemExit as exc:
        # Help, which argparse has printed to stdout; its usage errors raise ParseError.
        return exc.code
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
        args = SimpleNamespace(json="--json" in argv, command=first if first in COMMANDS else None, echo="")
    print(_output(args, code, {"error": message}, [f"error: {message}"]), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
