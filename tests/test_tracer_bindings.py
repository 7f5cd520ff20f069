"""The benchmark's traced run still finds every phisq entry point it wraps.

bench/tracing.py binds FactoredInteger, FactoredRational, __post_init__,
value, the parsers, represent, verify, totient_of_square and the cmd_*
functions by name; a rename would silently zero that layer's metrics, so a
short traced run must list nothing as missing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_run_finds_every_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["--workload", "small_ratios", "--seed", "1", "--seconds", "1", "--trace", "1", "--ops", "20"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "entry points not found" not in proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
