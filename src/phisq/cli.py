"""Command-line front end: a command, its operands and options, and the global flags.

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

A reader that closes the output early (phisq sequence 200000 | head -n 1) is
neither a fault nor the input's: the command's own code, nothing on stderr.
"""

import json
import os
import re
import sys
from random import Random
from types import SimpleNamespace

from .errors import ExponentOverflowError, FactorizationFailure, ParseError, UnsupportedScaleError, cut
from .factored import (
    EXPANSION_BIT_LIMIT,
    FactoredInteger,
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


def _printable(value: int) -> bool:
    """Whether str(value) stays within Python's int-string conversion limit."""
    limit = sys.get_int_max_str_digits()
    return not limit or value < 10**limit


def _integer_body(f: FactoredInteger, expanded: bool) -> dict:
    body: dict = {"factors": f.factors}
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
        "m": {"factors": mf.factors},
        "n": {"factors": nf.factors},
        "holds": report.holds,
        "computed": report.lhs.factors,
        "expected": report.expected.factors,
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
    payload = {"factors": f.factors, "value": f.value()}
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


# The global flags, before or after the command, spelled in full.
FLAGS = {"--json": "emit one JSON object", "--expanded": "also emit expanded decimal values"}
HELP = ("-h", "--help")
# Each command: its help, the input its JSON record echoes, and its arguments: operands in order,
# and options, each required and taking one value; cmd_<command> reads them in _read's namespace.
COMMANDS = {
    "represent": ("find (m, n) with phi(m^2)/phi(n^2) = ratio", "{ratio}", ("ratio",)),
    "verify": ("check phi(m^2)/phi(n^2) = ratio", "m={m} n={n} r={ratio}", ("m", "n", "ratio")),
    "factor": ("prime factorization of a positive integer", "{n}", ("n",)),
    "sequence": ("phi(k^2) for k = 1..limit", "{limit}", ("limit",)),
    "search": ("minimal (m, n) with m, n <= bound", "{ratio}", ("ratio", "--bound")),
    "selftest": ("run the built-in cross-check suite", "", ()),
}
INTS = {"limit", "--bound"}  # read through _decimal: past the digit limit is exit 2, as for any numeral


def _refusal(message: str) -> ParseError:
    """A usage error, cut at 200 characters: the command list takes ~100."""
    return ParseError(cut(message, limit=200))


def _operand(token: str, options=()) -> bool:
    """Whether token is an operand: "-", a negative number, no leading dash, or a space not after "<option>="."""
    if not token.startswith("-") or token == "-" or re.match(r"-\d*\.?\d+$", token):  # argparse's negative number
        return True
    return " " in token and token.partition("=")[0] not in options


def _help(usage: str) -> None:
    """Print the usage line, the commands and global flags, and this docstring."""
    rows = [f"  {name:<12}{text}" for name, text in ({n: t for n, (t, _, _) in COMMANDS.items()} | FLAGS).items()]
    print(f"usage: phisq {usage}\n", *rows, "", __doc__ or "", sep="\n")  # no docstring under python -OO


def _read(argv: list[str], args: SimpleNamespace) -> SimpleNamespace | None:
    """args, filled in from a command line, or None once its help is printed; a usage error raises ParseError.

    The flags are set first, the command once it is accepted and the echo last, so a refused
    line leaves args as far as it was read.  The grammar and messages are those argparse 3.11
    gave this program (the README lists them).  After the first "--" every token is an
    operand; that "--" is dropped next to an operand that fills a slot, and before the
    command it is the command.
    """
    vars(args).update({flag[2:]: flag in argv for flag in FLAGS})
    extras, tokens = [], (token for token in argv if token not in FLAGS)
    for command in tokens:  # help and unknown options, up to the command
        if command == "--" or _operand(command):
            break
        if command in HELP:
            return _help("[-h] [--json] [--expanded] command ...")
        extras.append(command)
    else:
        command = None
    if command is None or command == "--" and next(tokens, None) is None:
        raise _refusal("the following arguments are required: command")
    if command not in COMMANDS:
        raise _refusal(f"argument command: invalid choice: {command!r} (choose from {', '.join(map(repr, COMMANDS))})")
    _, echo, arguments = COMMANDS[command]
    args.command = command
    slots = [a for a in arguments if a[0] != "-"]
    dashed = filled = False  # past the first "--"; whether the last token filled a slot
    for token in tokens:
        operand = dashed or _operand(token, arguments)
        last, filled = filled, operand and bool(slots)
        name, equals, value = token.partition("=")
        if token == "--" and not dashed:
            dashed = True
            if not slots and not last:
                extras.append(token)
            continue
        if filled:
            name, value = slots.pop(0), token
        elif not operand and token in HELP:
            shown = (f"{a} {a[2:].upper()}" if a[0] == "-" else a for a in arguments)
            return _help(" ".join([command, "[-h]", *shown]))
        elif not operand and name in arguments:  # an option, which takes one value
            if not equals:
                value = next(tokens, "--")
                if value == "--" or not _operand(value, arguments):
                    raise _refusal(f"argument {name}: expected one argument")
        else:
            extras.append(token)
            continue
        if name in INTS:
            try:
                value = _decimal(value)
            except ValueError:
                raise _refusal(f"argument {name}: invalid int value: {value!r}") from None
        setattr(args, name.lstrip("-"), value)
    missing = [a for a in arguments if not hasattr(args, a.lstrip("-"))]
    if missing:
        raise _refusal(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _refusal(f"unrecognized arguments: {' '.join(extras)}")
    args.echo = echo
    return args


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
    # What a refused line's record shows where the reader did not get that far: no command, no input.
    args, code = SimpleNamespace(command=None, echo=""), EXIT_OK
    try:
        if _read(sys.argv[1:] if argv is None else argv, args) is not None:  # else help, printed by _read
            # Looked up per call, not bound in the reader: the traced benchmark rebinds cmd_*.
            payload, lines, code = globals()[f"cmd_{args.command}"](args)
            # Rendered inside the try: formatting a large integer can raise too.
            print(_output(args, code, payload, lines))
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader left early. Point stdout at devnull, where the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except ParseError as exc:
        code, message = EXIT_PARSE_ERROR, str(exc)
    except (FactorizationFailure, ExponentOverflowError, UnsupportedScaleError) as exc:
        code, message = EXIT_UNSUPPORTED_SCALE, str(exc)
    except Exception as exc:
        # Anything else (RecursionError, MemoryError, a failed assert) is a bug
        # in the library, never the input's fault: report it, never crash.
        code, message = EXIT_INVARIANT_VIOLATION, _describe_unexpected(exc)
    print(_output(args, code, {"error": message}, [f"error: {message}"]), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
