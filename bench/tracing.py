"""The traced run: spans around phisq's entry points, installed from the benchmark.

Wrappers exist only in the traced run's process; the program's source is not
touched. Each wrapped call records a span (name, start, end, parent span,
operation id). Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover, and
a layer's self time is the sum over the spans it owns.
"""

import gzip
import importlib
import json
from array import array
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

LAYERS = ("factored", "primes", "totient", "represent", "oracle", "cli")

# (module, attribute, span name). Every attribute of a phisq module that holds
# the same function object gets the wrapper, so calls made inside the library
# (factorize as bound in factored and in totient, say) are seen too.
FUNCTIONS = (
    ("phisq.factored", "parse_rational", "factored.parse"),
    ("phisq.factored", "parse_integer", "factored.parse"),
    ("phisq.primes", "factorize", "primes.factorize"),
    ("phisq.primes", "_rho_split", "primes.rho"),
    ("phisq.totient", "totient_of_square", "totient.square"),
    ("phisq.represent", "represent", "represent.construct"),
    ("phisq.represent", "verify", "represent.verify"),
    ("phisq.oracle", "sieve_totients", "oracle.sieve"),
    ("phisq.oracle", "brute_force_minimal", "oracle.search"),
    ("phisq.cli", "main", "cli.main"),
)
METHODS = (("phisq.factored", "FactoredInteger", "value", "factored.expand"),)
# Construction validates every entry; it is counted, not spanned, because
# the deep construction builds thousands of objects per request.
COUNTED = (("phisq.factored", "FactoredInteger"), ("phisq.factored", "FactoredRational"))

# Where a change to each layer should show: (end-to-end metric, workloads where
# it should move, workloads where it should stay flat). Written before any
# optimisation, from each layer's share of traced self time, so a later change
# can be held to it. Metrics not listed here are read, not predicted.
PREDICTIONS = {
    "factored.objects_built": ("throughput_ops_s", "wide_products, small_ratios", "big_factor"),
    "factored.entries_built": ("throughput_ops_s", "wide_products, small_ratios", "big_factor"),
    "factored.parse_s": ("latency_p50_ms", "small_ratios", ""),
    "factored.expand_s": ("latency_tail_ms", "oracle_scans (sequence), wide_products (common_value)", ""),
    "primes.factorize_calls": ("latency_p50_ms", "big_factor", "wide_products"),
    "primes.factorize_s": ("latency_p50_ms", "big_factor", "wide_products"),
    "primes.rho_calls": ("throughput_ops_s", "big_factor (rho requests sit above the median)", "all others"),
    "primes.rho_s": ("throughput_ops_s", "big_factor (rho requests sit above the median)", "all others"),
    "primes.is_prime_calls": ("throughput_ops_s", "wide_products, small_ratios (validation rechecks)", "big_factor"),
    "primes.is_prime_hit_ratio": ("throughput_ops_s", "wide_products, small_ratios (falls once validation stops rechecking)", ""),
    "totient.square_calls": ("latency_p50_ms", "small_ratios, oracle_scans (sequence)", "big_factor"),
    "totient.square_s": ("latency_p50_ms", "small_ratios, oracle_scans (sequence)", "big_factor"),
    "represent.construct_s": ("throughput_ops_s", "wide_products, small_ratios", "big_factor"),
    "represent.depth_max": ("throughput_ops_s", "wide_products", ""),
    "represent.depth_sum": ("throughput_ops_s", "wide_products", ""),
    "represent.verify_s": ("latency_p50_ms", "small_ratios", "big_factor"),
    "oracle.sieve_s": ("throughput_ops_s", "oracle_scans", "all others"),
    "oracle.search_s": ("throughput_ops_s", "oracle_scans", "all others"),
    "cli.sequence_s": ("latency_tail_ms", "oracle_scans", "all others"),
    "cli.main_self_s": ("latency_tail_ms", "oracle_scans", "all others"),
}


class Tracer:
    def __init__(self):
        # One column per span field; typed arrays keep a million spans in ~25 MB.
        self.names: list[str] = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, or -1
        self.ops = array("q")  # the request the span belongs to
        self.stack: list[int] = []
        self.op = -1
        self.objects = 0
        self.entries = 0
        self.depths: list[int] = []
        self.missing: list[str] = []
        self._root = self._span("bench.op", lambda call: call())

    def _span(self, name: str, fn, on_result=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ids, starts, ends, parents, ops, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self.ops, self.stack
        )

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            try:
                starts[idx] = perf_counter()
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, fn):
        @wraps(fn)
        def wrapper(obj):
            self.objects += 1
            self.entries += len(obj.entries)
            return fn(obj)

        return wrapper

    def install(self) -> None:
        """Wrap the entry points; anything not found is listed in self.missing."""
        cli = importlib.import_module("phisq.cli")
        commands = tuple(("phisq.cli", a, f"cli.{a}") for a in vars(cli) if a.startswith("cmd_"))
        modules = [m for n, m in sys.modules.items() if n == "phisq" or n.startswith("phisq.")]
        for modname, attr, name in FUNCTIONS + commands:
            fn = getattr(importlib.import_module(modname), attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            on_result = self._depth if name == "represent.construct" else None
            _rebind(modules, fn, self._span(name, fn, on_result))
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(modname), cls_name, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{cls_name}.{attr}")
                continue
            _rebind([cls], fn, self._span(name, fn))
        for modname, cls_name in COUNTED:
            cls = getattr(importlib.import_module(modname), cls_name, None)
            fn = getattr(cls, "__post_init__", None)
            if fn is None:
                self.missing.append(f"{modname}.{cls_name}.__post_init__")
                continue
            cls.__post_init__ = self._counted(fn)

    def _depth(self, representation) -> None:
        self.depths.append(representation.depth)

    def run(self, op_id: int, call):
        """Run one request under a root span that its library spans hang from."""
        self.op = op_id
        return self._root(call)

    def times(self) -> tuple[dict, dict, Counter]:
        """Self time, total time and call count per span name."""
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        names, name_ids = self.names, self.name_ids
        for nid, start, end, parent in zip(name_ids, self.starts, self.ends, self.parents):
            name, d = names[nid], end - start
            own[name] += d
            total[name] += d
            calls[name] += 1
            if parent >= 0:
                own[names[name_ids[parent]]] -= d
        return own, total, calls

    def metrics(self, is_prime_hits: int, is_prime_calls: int, overhead: float) -> dict:
        """Per-layer metrics as name -> (value, unit).

        Every *_s metric is self time, except cli.sequence_s, which is the
        whole sequence command: routing it elsewhere moves its children.
        """
        own, total, calls = self.times()
        out = {
            "factored.objects_built": (self.objects, "count"),
            "factored.entries_built": (self.entries, "count"),
            "factored.parse_s": (own["factored.parse"], "s"),
            "factored.expand_s": (own["factored.expand"], "s"),
            "primes.factorize_calls": (calls["primes.factorize"], "count"),
            "primes.factorize_s": (own["primes.factorize"], "s"),
            "primes.rho_calls": (calls["primes.rho"], "count"),
            "primes.rho_s": (own["primes.rho"], "s"),
            "primes.is_prime_calls": (is_prime_calls, "count"),
            "primes.is_prime_hit_ratio": (is_prime_hits / is_prime_calls if is_prime_calls else 0.0, "ratio"),
            "totient.square_calls": (calls["totient.square"], "count"),
            "totient.square_s": (own["totient.square"], "s"),
            "represent.construct_s": (own["represent.construct"], "s"),
            "represent.depth_max": (max(self.depths, default=0), "count"),
            "represent.depth_sum": (sum(self.depths), "count"),
            "represent.verify_s": (own["represent.verify"], "s"),
            "oracle.sieve_s": (own["oracle.sieve"], "s"),
            "oracle.search_s": (own["oracle.search"], "s"),
            "cli.sequence_s": (total["cli.cmd_sequence"], "s"),
            "cli.main_self_s": (own["cli.main"], "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(t for n, t in own.items() if n.startswith(layer + ".")), "s")
        out["trace.overhead_ratio"] = (overhead, "ratio")
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: a header naming the fields, then one list per span."""
        with gzip.open(path, "wt") as f:
            f.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op"]}) + "\n")
            for nid, start, end, parent, op in zip(self.name_ids, self.starts, self.ends, self.parents, self.ops):
                f.write(f'["{self.names[nid]}", {start!r}, {end!r}, {parent}, {op}]\n')


def _rebind(owners, fn, wrapper) -> None:
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is fn:
                setattr(owner, attr, wrapper)
