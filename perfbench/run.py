"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {oneshot,session,churn} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program under test is loaded from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, and a ``perfbench:`` line
on standard error carries the diagnostics (host probe, set-up samples,
absent wrap targets).

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
the client runs for ``S`` seconds (and at least :data:`MIN_OPS` ops, so
the p99 has ten samples beyond it).  Set-up time is the median of
several set-ups, most in fresh processes started before and after the
timed phase, so the samples span the whole run.  ``--trace 1`` reports
the per-layer metrics: a traced half, whose first ops form a fixed count
window, then an untraced half that prices the tracing.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
HASH_SEED = "0"

WORKLOADS = ("oneshot", "session", "churn")
#: Set-ups in fresh processes per untraced run, besides the run's own:
#: half before the timed phase, half after it.
SETUP_CHILDREN = 6
#: Fewest timed ops per untraced run: a p99 needs ten samples beyond it.
MIN_OPS = 1000
#: Consecutive timed ops per p99 window; each window's p99 has ten
#: samples beyond it, and the run reports the median over windows.
P99_WINDOW = 1000
#: Timed ops after which peak RSS is read, the same in every run, so the
#: figure does not follow throughput.  Every run reaches it.
RSS_AT_OPS = {"oneshot": 1000, "session": 20000, "churn": 5000}
#: Ops at the start of the traced half whose counts must repeat exactly.
COUNT_WINDOW = {"oneshot": 100, "session": 5000, "churn": 1000}

#: Per-layer timings: metric -> (span names, self or inclusive time),
#: each the mean per op of the traced half, in ms.
LAYER_TIMES = {
    "source.parse_ms": (("source.parse",), "self"),
    "source.infer_ms": (("source.infer",), "self"),
    "elaborate.self_ms": (("elaborate",), "self"),
    "systemf.typecheck_ms": (("systemf.typecheck",), "self"),
    "systemf.eval_ms": (("systemf.eval",), "self"),
    "core.resolution.ms": (("core.resolution",), "self"),
    "core.parser.type_ms": (("core.parser.type",), "self"),
    "core.pretty.ms": (("core.pretty",), "self"),
    "core.resolution.size_ms": (("core.resolution.size",), "self"),
    "obs.merge_ms": (("obs.merge",), "self"),
    "service.request_ms": (("service.request", "service.push"), "incl"),
    "service.self_ms": (("service.request", "service.push"), "self"),
}

#: Program counters: metric -> ResolutionStats field.
LAYER_COUNTS = {
    "core.resolution.queries": "queries",
    "core.resolution.steps": "resolve_steps",
    "core.resolution.max_depth": "max_depth",
    "core.cache.hits": "cache_hits",
    "core.cache.misses": "cache_misses",
    "core.env.lookups": "lookup_calls",
    "core.env.unify_calls": "unify_calls",
    "core.env.candidates_pruned": "candidates_pruned",
    "core.env.compiled_hits": "compiled_hits",
    "service.coalesced": "coalesced_requests",
    "service.shed": "shed_requests",
    "service.timeouts": "deadline_timeouts",
}


def host_probe() -> float:
    """A fixed pure-Python loop, in ms; recorded, never used to normalise."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def timed_phase(client, seconds: float, min_ops: int, on_op=None) -> tuple[array.array, float]:
    """Closed loop for ``seconds`` (and ``min_ops`` ops); (latencies, busy s).

    Inputs are generated in chunks outside the clock: ``busy`` is wall
    time minus generation.  Ops left in the last chunk stay in
    ``client.pending`` for the next phase, because a stream with
    pushes and pops must be sent whole.  ``on_op(n)`` runs, unclocked,
    before op ``n``.
    """
    latencies = array.array("d")  # 8 bytes per op: barely moves peak RSS
    busy = 0.0
    clock = time.perf_counter
    while True:
        chunk = client.pending or client.next_ops(client.chunk)
        client.pending = []
        started = clock()
        for i, op in enumerate(chunk):
            if on_op is not None:
                paused = clock()
                on_op(len(latencies))
                started += clock() - paused
            t0 = clock()
            got = client.call(op)
            latencies.append(clock() - t0)
            client.check(op, got)
            if len(latencies) >= min_ops and busy + (clock() - started) >= seconds:
                client.pending = chunk[i + 1:]
                return latencies, busy + (clock() - started)
        busy += clock() - started


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def windowed_p99(latencies) -> float:
    """Median over consecutive full windows of :data:`P99_WINDOW` ops of each
    window's p99, so a host stall in a minority of the run does not set it."""
    return statistics.median(
        percentile(sorted(latencies[i:i + P99_WINDOW]), 0.99)
        for i in range(0, len(latencies) - P99_WINDOW + 1, P99_WINDOW)
    )


def set_up(client) -> float:
    """Import, build and warm; returns seconds (input generation excluded)."""
    start = time.perf_counter()
    client.setup()
    for op in client.warmup:
        client.check(op, client.call(op))
    elapsed = time.perf_counter() - start
    loaded = os.path.abspath(sys.modules["repro"].__file__)
    if not loaded.startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: loaded {loaded}, not the checkout's program")
    return elapsed


def child_setups(args, client, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, one after another.

    Their warm-up ops are checked too and count into ``client``'s tally.
    """
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        child = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(child["setup_s"])
        client.attempted += child["attempted"]
        client.failed += child["failed"]
    return samples


def end_to_end(args, client, diag: dict) -> dict:
    setups = child_setups(args, client, SETUP_CHILDREN // 2)
    setups.append(set_up(client))
    gc.collect()
    rss_ops = RSS_AT_OPS[args.workload]
    latencies, busy = timed_phase(client, 0, rss_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rest, rest_busy = timed_phase(client, args.seconds - busy, max(1, MIN_OPS - rss_ops))
    latencies += rest
    busy += rest_busy
    setups += child_setups(args, client, SETUP_CHILDREN - SETUP_CHILDREN // 2)
    diag["setup_samples"] = setups
    return {
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "latency_p50_ms": (percentile(sorted(latencies), 0.50) * 1e3, "ms"),
        "latency_p99_ms": (windowed_p99(latencies) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": ((client.attempted - client.failed) / client.attempted, "ratio"),
    }


def per_layer(args, client, diag: dict) -> dict:
    from tracing import Tracer

    set_up(client)
    tracer = Tracer()
    tracer.install()
    diag["absent"] = list(tracer.absent)
    window = COUNT_WINDOW[args.workload]
    snapshot: dict = {}

    def on_op(n: int) -> None:
        tracer.op_id = n
        if n == window:
            tracer.enabled = False
            snapshot["counters"] = client.counters()
            snapshot["resolution_calls"] = tracer.totals("core.resolution")[2]
            tracer.enabled = True

    # Counters stay on in both halves, so only the wrappers differ; the
    # untraced half always runs second, on a process warmed by the first.
    half = args.seconds / 2
    gc.collect()
    client.observe = True
    client.reset_counters()
    before = client.counters()
    tracer.enabled = True
    traced, traced_busy = timed_phase(client, half, window + 1, on_op)
    tracer.enabled = False
    tracer.uninstall()
    gc.collect()
    plain, plain_busy = timed_phase(client, half, 1)

    ops = len(traced)
    metrics = {}
    for name, (spans, kind) in LAYER_TIMES.items():
        total = sum(tracer.totals(s)[0 if kind == "incl" else 1] for s in spans)
        metrics[name] = (total / ops, "ms")
    push_ms, _, pushes = tracer.totals("service.push")
    metrics["service.push_ms"] = (push_ms / pushes if pushes else 0.0, "ms")
    metrics["core.resolution.calls"] = (snapshot["resolution_calls"], "count")

    after = snapshot["counters"]
    for name, field in LAYER_COUNTS.items():
        if field not in after:
            diag["absent"].append(f"counter {field}")
            metrics[name] = (0, "count")
        elif field == "max_depth":
            metrics[name] = (after[field], "count")
        else:
            metrics[name] = (after[field] - before.get(field, 0), "count")
    hits = metrics["core.cache.hits"][0]
    probes = hits + metrics["core.cache.misses"][0]
    metrics["core.cache.hit_ratio"] = (hits / probes if probes else 0.0, "ratio")

    traced_rate, plain_rate = ops / traced_busy, len(plain) / plain_busy
    metrics["trace.overhead_pct"] = ((plain_rate / traced_rate - 1) * 100, "%")
    diag["traced_ops"], diag["untraced_ops"] = ops, len(plain)
    diag["absent_layers"] = [
        m for m, (spans, _) in LAYER_TIMES.items()
        if all(tracer.is_absent(s) for s in spans if s != "service.push")
    ]
    os.makedirs(OUT_DIR, exist_ok=True)
    diag["spans"] = tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time (internal)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Fixed string hashing, so counts repeat exactly for one seed.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)
    sys.path.insert(0, SRC)

    import clients

    probe_before = host_probe()
    client = clients.make_client(args.workload, args.seed)
    if args.setup_only:
        setup_s = set_up(client)
        client.close()
        print(json.dumps({"setup_s": setup_s, "attempted": client.attempted,
                          "failed": client.failed}))
        return 0
    diag: dict = {"workload": args.workload, "seed": args.seed}
    try:
        if args.trace:
            metrics = per_layer(args, client, diag)
        else:
            metrics = end_to_end(args, client, diag)
    finally:
        client.close()
    probe_after = host_probe()
    diag["host.probe_ms"] = [probe_before, probe_after]
    if args.trace:
        metrics["host.probe_ms"] = ((probe_before + probe_after) / 2, "ms")

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>14.6g} {unit}")
    print("perfbench: " + json.dumps(diag), file=sys.stderr)
    print(json.dumps({
        "correct": client.attempted > 0 and client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
