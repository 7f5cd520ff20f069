"""phisq benchmark: one closed-loop client sending a seeded, fixed list of requests.

    python3 bench/run.py --workload small_ratios --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; phisq is imported from the checkout's
src/. Every run is a fresh interpreter, so is_prime's cache starts empty.
The request list comes from --seed alone and its length from --seconds (a
nominal rate per workload, in whole cycles of the mix), so two commits given
the same arguments answer the same requests. Each request is sent when the
previous one returns, and its answer is checked outside the timed region by
plain-integer arithmetic in reference.py. A request that raises or answers
wrongly counts as failed and ranks slower than every success in the latency
percentiles; a wrong answer also makes "correct" false. Every reported time
is scaled to a reference machine speed (see REFERENCE_S), with the unscaled
figure printed beside it.

--trace 0 prints the end-to-end metrics. --trace 1 runs the first trace_ops
requests with spans around phisq's entry points (tracing.py) and prints the
per-layer metrics; the tracing overhead comes from an untraced twin run of
the same requests (--ops) in a fresh interpreter.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it give each metric with its unit and
sample count, the machine and any failed requests. The same report, and the
traced run's spans, are written under .bench_out/ in the checkout.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from random import Random
from time import perf_counter
from types import SimpleNamespace

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 7  # fresh interpreters timed for setup_s; the median is reported
SETUP_ARGS = ("-m", "phisq", "represent", "2/3")
CHILD_TIMEOUT_S = 150
# Host contention on a shared machine swings CPU speed by up to 1.5x for tens
# of seconds at a time, which no run length averages out. So every reported
# time is scaled by REFERENCE_S / (the latest timing of reference_loop()): it
# reads as on a machine where that loop takes REFERENCE_S. The loop is re-timed
# every SPEED_EVERY_S of busy time, between requests; unscaled figures are
# printed beside the scaled ones.
REFERENCE_S = 0.004
SPEED_EVERY_S = 0.25
# A run sized by --seconds stops early, and says so, once its unscaled busy
# time passes this many times --seconds, so a slow machine or commit still
# ends in time. Runs of a given number of requests (--ops) are not cut.
CAP_FACTOR = 1.5
SHOWN_FAILURES = 10


def machine() -> dict:
    """nproc, Python and CPU model; /proc/cpuinfo is only read."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": cpu,
    }


def child(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter in the checkout with its src/ on the path; waits for it to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        s = 0
        for i in range(50_000):
            s += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def speed_scale() -> float:
    return REFERENCE_S / reference_loop()


def measure_setup() -> tuple[list[float], list[float]]:
    """Scaled and unscaled wall times of `python -m phisq represent 2/3` in fresh interpreters.

    One warm-up launch is not counted. The speed is taken before and after.
    """
    before = speed_scale()
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = perf_counter()
        proc = child(list(SETUP_ARGS))
        elapsed = perf_counter() - t0
        if proc.returncode != 0 or "verified: true" not in proc.stdout:
            raise RuntimeError(f"setup command failed ({proc.returncode}): {proc.stdout}{proc.stderr}")
        if i:
            times.append(elapsed)
    scale = (before + speed_scale()) / 2
    return [t * scale for t in times], times


def run_ops(ops, cap_s: float = float("inf"), tracer=None) -> dict:
    """The closed loop: time each request, then check its answer untimed."""
    ok, ok_raw, raised, wrong = [], [], [], []
    busy = raw = since = 0.0
    scale = speed_scale()
    for i, op in enumerate(ops):
        if raw >= cap_s:
            print(f"stopped at the time cap of {cap_s:g} s after {i} requests")
            break
        if since >= SPEED_EVERY_S:
            scale, since = speed_scale(), 0.0
        t0 = perf_counter()
        try:
            result = tracer.run(i, op.call) if tracer else op.call()
        except Exception as exc:  # a failed request: counted, listed, ranked slowest
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = perf_counter() - t0
        raw += elapsed
        since += elapsed
        busy += elapsed * scale
        if error is not None:
            raised.append((op.text, error))
        elif (problem := op.check(result)) is not None:
            wrong.append((op.text, problem))
        else:
            ok.append(elapsed * scale)
            ok_raw.append(elapsed)
    return {"ok": ok, "ok_raw": ok_raw, "raised": raised, "wrong": wrong, "busy": busy, "raw_busy": raw}


def end_to_end(res: dict, tail: float) -> dict:
    """Latency and throughput metrics as name -> (value, unit, samples, note)."""
    n = len(res["ok"]) + len(res["raised"]) + len(res["wrong"])
    failed = n - len(res["ok"])
    beyond = n - max(ceil(tail * n), 1)

    def pct(q: float, key: str, busy: str) -> float:
        # Nearest rank over all requests, failures ranked after every success.
        # A rank that lands on a failure reads as the whole run's busy time.
        times = sorted(res[key])
        rank = max(ceil(q * n), 1)
        return (times[rank - 1] if rank <= len(times) else res[busy]) * 1000

    def both(q: float) -> tuple[float, str]:
        return pct(q, "ok", "busy"), f"unscaled {pct(q, 'ok_raw', 'raw_busy'):.4g}"

    p50, p50_raw = both(0.5)
    ptail, ptail_raw = both(tail)
    return {
        "throughput_ops_s": (
            len(res["ok"]) / res["busy"], "1/s", n,
            f"checked correct per busy second; unscaled {len(res['ok']) / res['raw_busy']:.4g}",
        ),
        "latency_p50_ms": (p50, "ms", n, p50_raw),
        "latency_tail_ms": (ptail, "ms", n, f"p{tail * 100:g}, {beyond} samples beyond it; {ptail_raw}"),
        "ok_ratio": (len(res["ok"]) / n, "ratio", n, f"failed_ratio {failed / n:.4f} = {failed}/{n}"),
    }


def library() -> SimpleNamespace:
    """phisq's modules, looked up per call so the traced run's wrappers are seen."""
    names = ("factored", "represent", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"phisq.{n}") for n in names})


def plain_run(args, workload) -> tuple[dict, dict]:
    setup, setup_raw = measure_setup()
    stream = workload.stream(Random(args.seed), library())
    if args.ops:
        res = run_ops(next(stream) for _ in range(args.ops))
    else:
        res = run_ops((next(stream) for _ in range(workload.op_count(args.seconds))), CAP_FACTOR * args.seconds)
    metrics = end_to_end(res, workload.tail)
    metrics["setup_s"] = (
        statistics.median(setup), "s", len(setup),
        f"python -m phisq represent 2/3; unscaled {statistics.median(setup_raw):.4g}",
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss_mb, "MB", 1, "this process")
    return res, metrics


def traced_run(args, workload) -> tuple[dict, dict]:
    from tracing import PREDICTIONS, Tracer

    count = args.ops or workload.trace_ops
    twin = child([
        str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--ops", str(count),
    ])
    if twin.returncode != 0:
        raise RuntimeError(f"untraced twin run failed ({twin.returncode}): {twin.stderr}")
    untraced = json.loads(twin.stdout.splitlines()[-1])["metrics"]["throughput_ops_s"]["value"]

    is_prime = importlib.import_module("phisq.primes").is_prime
    stream = workload.stream(Random(args.seed), library())
    ops = [next(stream) for _ in range(count)]
    tracer = Tracer()
    tracer.install()
    before = is_prime.cache_info()
    res = run_ops(ops, tracer=tracer)
    after = is_prime.cache_info()
    traced = end_to_end(res, workload.tail)["throughput_ops_s"][0]
    hits = after.hits - before.hits
    calls = hits + after.misses - before.misses
    metrics = {}
    overhead = untraced / traced - 1 if traced else 0.0  # 0 when no request succeeded
    for name, (value, unit) in tracer.metrics(hits, calls, overhead).items():
        moves, where, flat = PREDICTIONS.get(name, ("", "", ""))
        note = f"should move {moves} on {where}" + (f"; flat on {flat}" if flat else "") if moves else ""
        metrics[name] = (value, unit, len(ops), note)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    if tracer.missing:
        print("entry points not found, their metrics read 0:", ", ".join(tracer.missing))
    return res, metrics


def report(args, res: dict, metrics: dict) -> dict:
    facts = machine()
    n = len(res["ok"]) + len(res["raised"]) + len(res["wrong"])
    print(f"workload {args.workload}  seed {args.seed}  requests {n}  trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, unit, samples, note) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} n={samples:<7} {note}")
    for kind in ("raised", "wrong"):
        if res[kind]:
            print(f"{len(res[kind])} requests {kind}:")
            for text, why in res[kind][:SHOWN_FAILURES]:
                print(f"  {text[:100]}{'...' if len(text) > 100 else ''}  -> {why[:200]}")
    result = {
        "correct": not res["wrong"],
        "attempted": n,
        "failed": n - len(res["ok"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    full = {
        **result, "workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": facts,
        "samples": {name: m[2] for name, m in metrics.items()},
        "notes": {name: m[3] for name, m in metrics.items() if m[3]},
        "raised": res["raised"], "wrong": res["wrong"],
    }
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(full, f, indent=1)
    return result


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = child([
            str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run only the first N requests (the traced run's twin)")
    args = parser.parse_args()
    if not (SRC / "phisq" / "__init__.py").is_file():
        print(f"no phisq sources under {SRC}: run from the root of a phisq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    phisq = importlib.import_module("phisq")
    if Path(phisq.__file__).resolve().parent != SRC / "phisq":
        print(f"imported phisq from {phisq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    res, metrics = (traced_run if args.trace else plain_run)(args, workload)
    print(json.dumps(report(args, res, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
