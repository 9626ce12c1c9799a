"""Self-test of the benchmark itself.

    python3 perfbench/selfcheck.py [--seconds 4] [--seed 1]

Checks, in order:

1. No benchmark source names a lookup or strategy toggle that the
   ROADMAP deletes, so the benchmark survives those deletions.
2. The tracer skips a wrap target that does not exist, reports it as
   absent, and still wraps the others.
3. Every workload prints exactly the metrics BENCHMARK.json lists, with
   their units, in both modes, and answers every op correctly.
4. One seed run twice gives identical per-layer counts, and the
   service never sheds or times out a request.

Exit code 0 when all hold.  :data:`HELD_OUT_SEED` is never used while
tuning the benchmark; claims of a gain should be confirmed on it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from steady import run_once

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Seed kept out of all tuning runs (those used seeds 1 to 10).
HELD_OUT_SEED = 7919

#: Names the ROADMAP removes; this file is the only one that may say them.
DELETED_TOGGLES = re.compile(
    r"use_index|use_compiled|set_indexing|set_compiling|subtyping", re.IGNORECASE
)

WORKLOADS = ("oneshot", "session", "churn")


def check_toggles() -> list[str]:
    problems = []
    for name in sorted(os.listdir(HERE)):
        path = os.path.join(HERE, name)
        if not name.endswith(".py") or path == os.path.abspath(__file__):
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if DELETED_TOGGLES.search(line):
                    problems.append(f"{name}:{lineno}: names a deleted toggle: {line.strip()}")
    return problems


def check_absent_target() -> list[str]:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from tracing import TARGETS, Tracer

    tracer = Tracer()
    tracer.install(TARGETS + [
        ("gone.function", "repro.pipeline", "no_such_function"),
        ("gone.module", "repro.no_such_module", "anything"),
    ])
    try:
        installed = len(tracer.installed)
        problems = []
        if sorted(tracer.absent) != ["repro.no_such_module.anything",
                                     "repro.pipeline.no_such_function"]:
            problems.append(f"absent targets reported as {tracer.absent}")
        if installed != len(TARGETS):
            problems.append(f"wrapped {installed} of {len(TARGETS)} present targets")
        if not tracer.is_absent("gone.function"):
            problems.append("a missing target's span is not reported absent")
        return problems
    finally:
        tracer.uninstall()


def check_runs(seed: int, seconds: float) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        found = []
        plain = run_once(workload, seed, seconds)
        traced = [run_once(workload, seed, seconds, trace=1) for _ in range(2)]
        for mode, result in [("end_to_end", plain), ("per_layer", traced[0])]:
            want = {m["name"]: m["unit"] for m in spec[mode]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                found.append(f"{workload} {mode}: printed {got}, listed {want}")
        for result in [plain] + traced:
            if not result["correct"]:
                found.append(f"{workload}: {result['failed']} of "
                             f"{result['attempted']} ops answered wrongly")
        counts = [
            {n: m["value"] for n, m in r["metrics"].items() if m["unit"] in ("count", "ratio")}
            for r in traced
        ]
        if counts[0] != counts[1]:
            diff = {n: (counts[0][n], counts[1].get(n))
                    for n in counts[0] if counts[0][n] != counts[1].get(n)}
            found.append(f"{workload}: counts differ between two runs of seed {seed}: {diff}")
        for name in ("service.shed", "service.timeouts"):
            if counts[0].get(name):
                found.append(f"{workload}: {name} = {counts[0][name]}, must be 0")
        print(f"selfcheck: {workload}: {'FAIL' if found else 'ok'}")
        problems += found
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=4)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    problems = check_toggles() + check_absent_target()
    problems += check_runs(args.seed, args.seconds)
    for problem in problems:
        print(f"selfcheck: FAIL: {problem}")
    print(f"selfcheck: held-out seed for later claims: {HELD_OUT_SEED}")
    print("selfcheck: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
