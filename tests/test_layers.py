"""tools/layers.py profiles one command and prints each phisq module's share of self time."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def layers(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layers.py"), *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_layers_lists_each_module_the_command_reaches():
    proc = layers("--", "represent", "19/47")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("exit 0; ")
    rows = {m[1]: (float(m[2]), m[3]) for m in map(re.compile(r"(\w+) +([\d.]+)% *(\d*)$").match, lines[2:]) if m}
    assert {"cli", "factored", "primes", "represent", "totient", "outside"} <= rows.keys()
    assert all(int(calls) > 0 for name, (_, calls) in rows.items() if name != "outside")
    assert abs(sum(share for share, _ in rows.values()) - 100) < 1


def test_layers_passes_the_exit_code_through_and_needs_a_command():
    proc = layers("--", "represent", "19/0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("exit 1; ")
    assert layers().returncode == 2


def test_layers_exits_cleanly_when_its_reader_closes_early():
    # As in "python tools/layers.py -- factor 1000036000099 | true": the read end is closed
    # before the profiled command (a cold trial-division walk) ends, so the table's first
    # line meets a closed pipe.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "tools" / "layers.py"), "--", "factor", "1000036000099"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (0, b"")
