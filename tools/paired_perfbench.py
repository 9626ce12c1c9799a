"""Paired A/B perfbench: a base and a change, run alternately.

    python3 tools/paired_perfbench.py --base HEAD --change . \\
        --workload session --pairs 10 --seconds 30 --seed 3 [--trace 0] \\
        [--json results.json]

``--base`` and ``--change`` each name a checkout directory or a git
revision of this repository; a revision is exported with ``git archive``
into a temporary directory that is removed at exit.  ``.`` is the
working tree as it stands, uncommitted edits included.

Each pair runs ``perfbench/run.py`` once from each side, on the same
workload, seed and seconds, one process at a time.  The side that goes
first alternates (base first in even pairs, change first in odd ones),
so a slow phase of the host lands on both sides alike.  Per metric the
report gives each side's median and interquartile range
(``statistics.quantiles(values, n=4)``), the median of the paired
change/base ratios, how many pairs favour the change, and whether the
gain of the medians is larger than the base's IQR.  Which way is better
comes from ``BENCHMARK.json``; a metric it does not name is reported
without a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout(spec: str, scratch: str) -> str:
    """A directory holding ``spec``: itself if a directory, else an export."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    rev = subprocess.run(
        ["git", "rev-parse", "--verify", spec + "^{commit}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    target = os.path.join(scratch, rev[:12])
    if not os.path.isdir(target):
        os.makedirs(target)
        archive = os.path.join(scratch, rev[:12] + ".tar")
        subprocess.run(["git", "archive", "-o", archive, rev], cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(target, filter="data")
            else:  # Python before 3.11.4
                tar.extractall(target)
        os.remove(archive)
    return target


def run_once(tree: str, args: argparse.Namespace) -> dict:
    """One ``run.py`` process in ``tree``: its last-line JSON result."""
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=tree, capture_output=True, text=True, timeout=max(900, 30 * args.seconds),
    )
    if done.returncode != 0:
        raise RuntimeError(f"run.py in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def directions() -> dict[str, str]:
    """Metric name -> ``higher``/``lower`` is better, from BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def report(pairs: list[dict], better: dict[str, str]) -> list[dict]:
    """Print the per-metric table; return its rows."""
    rows = []
    first = pairs[0]
    names = [n for n in first["base"]["metrics"] if n in first["change"]["metrics"]]
    print(f"{'metric':28s} {'base med':>11s} {'base IQR':>10s} {'chg med':>11s} "
          f"{'chg IQR':>10s} {'ratio':>7s} {'favour':>7s}  gain>IQR")
    for name in names:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        ratios = [c / b for b, c in zip(base, change) if b]
        row = {
            "metric": name,
            "base_median": statistics.median(base),
            "base_iqr": iqr(base),
            "change_median": statistics.median(change),
            "change_iqr": iqr(change),
            "median_ratio": statistics.median(ratios) if ratios else None,
            "favour": None,
            "gain_exceeds_iqr": None,
        }
        direction = better.get(name)
        if direction is not None:
            sign = 1 if direction == "higher" else -1
            row["favour"] = sum(sign * (c - b) > 0 for b, c in zip(base, change))
            gain = sign * (row["change_median"] - row["base_median"])
            row["gain_exceeds_iqr"] = gain > row["base_iqr"]
        rows.append(row)
        ratio = "-" if row["median_ratio"] is None else f"{row['median_ratio']:.3f}"
        favour = "-" if row["favour"] is None else f"{row['favour']}/{len(pairs)}"
        verdict = row["gain_exceeds_iqr"]
        verdict = "-" if verdict is None else str(verdict)
        print(f"{name:28s} {row['base_median']:>11.5g} {row['base_iqr']:>10.4g} "
              f"{row['change_median']:>11.5g} {row['change_iqr']:>10.4g} "
              f"{ratio:>7s} {favour:>7s}  {verdict}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="directory or git revision")
    parser.add_argument("--change", default=".", help="directory or git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run and the table here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    scratch = tempfile.mkdtemp(prefix="paired-perfbench-")
    try:
        trees = {"base": checkout(args.base, scratch),
                 "change": checkout(args.change, scratch)}
        pairs = []
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"order": list(order)}
            for side in order:
                pair[side] = run_once(trees[side], args)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
                  f"correct base={pair['base']['correct']} "
                  f"change={pair['change']['correct']}", file=sys.stderr)
        print(f"== {args.workload}, seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}, {args.pairs} pairs: base {args.base}, "
              f"change {args.change}")
        rows = report(pairs, directions())
        if args.json:
            with open(args.json, "w", encoding="utf-8") as f:
                json.dump({"args": vars(args), "pairs": pairs, "table": rows},
                          f, indent=1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
