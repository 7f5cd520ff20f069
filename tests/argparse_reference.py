"""The argparse parser phisq read its command lines with before it had its own reader.

It is kept for the tests only, as the reference for the reader's grammar and messages:
tests/test_cli.py checks plain lines against it on every Python, and the differential
property in tests/test_cli_fuzz.py checks drawn lines where the installed argparse still
reads a refused command as 3.11 did.
"""

import functools
import io
from contextlib import redirect_stdout

from phisq import cli
from phisq.errors import ParseError, UnsupportedScaleError, cut
from phisq.factored import _decimal

# The parser as phisq had it, copied unchanged, with its tables.
REFERENCE_FLAGS = {"--json": "emit one JSON object", "--expanded": "also emit expanded decimal values"}
REFERENCE_COMMANDS = {
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


@functools.cache
def build_parser():
    """The argparse parser phisq read command lines with; built once, as parse_args leaves it unchanged."""
    import argparse  # here, not at import: only where the reference runs

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
    for flag, text in REFERENCE_FLAGS.items():
        parser.add_argument(flag, action="store_true", help=text)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (text, echo, arguments) in REFERENCE_COMMANDS.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.set_defaults(echo=echo)
        for argument, options in arguments.items():
            p.add_argument(argument, **options)
    return parser


def reference(argv):
    """The reference's namespace for a line, with the global flags moved in front, where it declares them."""
    return build_parser().parse_args(sorted(argv, key=lambda a: a not in cli.FLAGS))


def reading(parse, argv):
    """vars() of what parse(argv) returns, "help" once it has printed help, or the type and message of its refusal."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            args = parse(argv)
    except (ParseError, UnsupportedScaleError) as exc:
        return type(exc), str(exc)
    except SystemExit:  # argparse, once it has printed help
        args = None
    return vars(args) if args is not None else "help" if out.getvalue().startswith("usage: phisq") else None
