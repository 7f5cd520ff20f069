"""The benchmark's traced run still finds every phisq entry point it wraps.

bench/tracing.py binds FactoredInteger, FactoredRational, __post_init__,
value, the parsers, represent, verify, totient_of_square and the cmd_*
functions by name; a rename would silently zero that layer's metrics, so a
short traced run must list nothing as missing.  Each run is made from a copy of
bench/ and src/, so its results and span logs land in the copy's .bench_out/, not
in the checkout's.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of bench/ and src/: run.py writes under the copy, and refuses a linked src."""
    root = tmp_path_factory.mktemp("checkout")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
    return root


def traced_run(root: Path, workload: str) -> dict:
    """A short traced run of one workload: asserts it ran clean, returns its last JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1", "--ops", "20"]
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *argv],
        capture_output=True, text=True, env=env, cwd=root, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "entry points not found" not in proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_finds_every_entry_point(checkout):
    report = traced_run(checkout, "small_ratios")
    assert report["correct"] is True
    # Objects are counted by wrapping __post_init__: a constructor that stopped
    # calling it would read 0 here without listing anything as missing.
    assert report["metrics"]["factored.objects_built"]["value"] > 0
    assert report["metrics"]["factored.entries_built"]["value"] > 0


def test_traced_run_sees_the_cli_commands(checkout):
    # main looks cmd_* up per call, so the wrappers the tracer binds over them
    # are the ones that run: the CLI and oracle layers read above zero.
    report = traced_run(checkout, "oracle_scans")
    assert report["correct"] is True
    assert report["metrics"]["cli.sequence_s"]["value"] > 0
    assert report["metrics"]["oracle.search_s"]["value"] > 0
    # The oracle calls sieve_totients through its module attribute, so the
    # wrapper sees the sieve that builds the shared table.
    assert report["metrics"]["oracle.sieve_s"]["value"] > 0


def test_traced_run_sees_verify_on_wide_products(checkout):
    # verify no longer goes through totient_of_square or FactoredInteger.value;
    # its own span must still be bound and read above zero.
    report = traced_run(checkout, "wide_products")
    assert report["correct"] is True
    assert report["metrics"]["represent.verify_s"]["value"] > 0
