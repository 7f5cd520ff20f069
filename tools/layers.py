"""Print where one phisq command spends its time: each phisq module's share of self time and its calls.

    python tools/layers.py -- represent 19/47
    python tools/layers.py -- --json search 19/47 --bound 2000

Everything after "--" is the command line phisq reads.  It runs once, in this
process, through phisq.cli.main under cProfile; its output is discarded and
its exit code printed.  A module's self time is the time spent in its own
Python functions, and its calls count how often they ran.  The rest of the
profiled time, spent in builtins and in the standard library, is listed as
"outside".  A hit of is_prime's lru_cache or of the p - 1 dict runs in C and
is not seen as a call: its time lands in the caller.  phisq is imported before the
profile starts, as installed or from PYTHONPATH, else from this checkout's src.
Shares of a short command swing by a few points from run to run.
A reader that closes the pipe early ends it with exit 0, as it ends phisq.
"""

import cProfile
import io
import os
import pstats
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import phisq.cli  # noqa: E402

PACKAGE = Path(phisq.cli.__file__).resolve().parent


def layers(stats: pstats.Stats) -> tuple[dict[str, list], float]:
    """{module: [self seconds, calls]} over phisq's modules, and the total profiled seconds."""
    found: dict[str, list] = {}
    total = 0.0
    for (filename, _, _), (_, calls, self_s, _, _) in stats.stats.items():
        total += self_s
        path = Path(filename)
        if path.suffix == ".py" and path.resolve().parent == PACKAGE:
            entry = found.setdefault(path.stem, [0.0, 0])
            entry[0] += self_s
            entry[1] += calls
    return found, total


def main(argv: list[str]) -> int:
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    profile = cProfile.Profile()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = profile.runcall(phisq.cli.main, argv)
    found, total = layers(pstats.Stats(profile))
    outside = total - sum(s for s, _ in found.values())
    try:
        print(f"exit {code}; {total * 1e3:.3f} ms of self time profiled")
        print(f"{'layer':<10} {'self':>7} {'calls':>10}")
        for name, (self_s, calls) in sorted(found.items(), key=lambda item: -item[1][0]):
            print(f"{name:<10} {self_s / total:>7.1%} {calls:>10}")
        print(f"{'outside':<10} {outside / total:>7.1%}")
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
    except BrokenPipeError:
        # The reader left early. As in phisq.cli.main, point stdout at devnull, where the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
