"""Steadiness report: run each workload repeatedly, print the spread.

    python3 perfbench/steady.py [--workloads oneshot,session,churn]
        [--runs 10] [--seconds RUN_SECONDS] [--first-seed 1]

Each run is a fresh untraced ``run.py`` process with its own seed
(``first-seed``, ``first-seed + 1``, ...), one after another, measuring
``run_seconds`` from BENCHMARK.json unless ``--seconds`` says otherwise.
Per workload and end-to-end metric it
prints the median, the interquartile range as Python's
``statistics.quantiles(values, n=4)`` gives it (absolute and as a share
of the median), the minimum and maximum, and the range of the host
probe (``host.probe_ms``, a fixed pure-Python loop timed before and
after every run).  Where BENCHMARK.json gives the metric a bound, the
share is compared with it.  Raw results go to
``.perfbench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``run.py`` process: its result, with the diagnostics line attached."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for line in done.stderr.splitlines():
        if line.startswith("perfbench: {"):
            result["diagnostics"] = json.loads(line[len("perfbench: "):])
    return result


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def report(workload: str, results: list[dict], limits: dict) -> None:
    print(f"== {workload}: {len(results)} runs, seeds "
          f"{[r['diagnostics']['seed'] for r in results]}")
    print(f"   correct in every run: {all(r['correct'] for r in results)}")
    names = list(results[0]["metrics"])
    print(f"   {'metric':28s} {'median':>12s} {'IQR':>10s} {'IQR/med':>8s} "
          f"{'min':>12s} {'max':>12s}  bound")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else 0.0
        bound = limits.get(name)
        mark = "" if bound is None else f"{bound:.2f}" + (" OVER" if share > bound else "")
        print(f"   {name:28s} {median:12.6g} {q3 - q1:10.4g} {share:8.2%} "
              f"{min(values):12.6g} {max(values):12.6g}  {mark}")
    probes = [p for r in results for p in r["diagnostics"]["host.probe_ms"]]
    print(f"   host.probe_ms range: {min(probes):.2f} .. {max(probes):.2f} ms")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="oneshot,session,churn")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    benchmark = spec()
    limits = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = args.seconds or benchmark["run_seconds"]
    os.makedirs(OUT_DIR, exist_ok=True)
    for workload in args.workloads.split(","):
        results = [
            run_once(workload, args.first_seed + i, seconds)
            for i in range(args.runs)
        ]
        with open(os.path.join(OUT_DIR, f"steady-{workload}.json"), "w",
                  encoding="utf-8") as out:
            json.dump(results, out, indent=1)
        report(workload, results, limits)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
