#!/usr/bin/env python3
"""Regenerate the paper's stated results as one table (EXPERIMENTS.md).

The paper's evaluation is its worked examples and theorems; this harness
runs every one and prints a paper-vs-measured row, so the whole claim
surface of the reproduction is auditable in one command::

    python benchmarks/report.py

Besides the human-readable table, every run writes a machine-readable
snapshot (``BENCH_<date>.json`` in the repository root by default;
``--json PATH`` overrides) containing the per-row verdicts and wall
times, the aggregate resolution counters for the whole run, and -- unless
``--quick`` is passed -- a timing section covering the two headline
performance claims: indexed (compiled) lookup vs the naive scan on
a wide environment, and cached vs uncached repeated resolution.
``--quick`` is the CI smoke mode: correctness rows only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core import BOOL, CHAR, INT, ImplicitEnv, TVar, pair, rule
from repro.core.resolution import ResolutionStrategy, resolvable, resolve
from repro.errors import (
    ImplicitCalculusError,
    NoMatchingRuleError,
    OverlappingRulesError,
    ResolutionDivergenceError,
)
from repro.logic import env_entails
from repro.pipeline import Semantics, run_core, run_source

from tests.conftest import OVERVIEW_PROGRAMS

A = TVar("a")

ISORT = """
let isort : forall a . {a -> a -> Bool} => [a] -> [a] = \\xs . sortBy ? xs in
implicit ltInt in (isort [2, 1, 3], isort [5, 9, 3])
"""

EQ_PROGRAM = """
interface Eq a = { eq : a -> a -> Bool };
let eqv : forall a . {Eq a} => a -> a -> Bool = eq ? in
let eqInt1 : Eq Int = Eq { eq = primEqInt } in
let eqInt2 : Eq Int = Eq { eq = \\x y . isEven x && isEven y } in
let eqBool : Eq Bool = Eq { eq = primEqBool } in
let eqPair : forall a b . {Eq a, Eq b} => Eq (a, b) =
  Eq { eq = \\x y . eqv (fst x) (fst y) && eqv (snd x) (snd y) } in
let p1 : (Int, Bool) = (4, True) in
let p2 : (Int, Bool) = (8, True) in
implicit {eqInt1, eqBool, eqPair} in
  (eqv p1 p2, implicit {eqInt2} in eqv p1 p2)
"""

SHOW_PROGRAM = """
let show : forall a . {a -> String} => a -> String = ? in
let comma : forall a . {a -> String} => [a] -> String =
  \\xs . intercalate "," (map ? xs) in
let space : forall a . {a -> String} => [a] -> String =
  \\xs . intercalate " " (map ? xs) in
let o : {Int -> String, {Int -> String} => [Int] -> String} => String =
  show [1, 2, 3] in
implicit showInt in
  (implicit comma in o, implicit space in o)
"""

ROWS: list[dict] = []
_CLOCK = [0.0]


def snapshot_meta() -> dict:
    """Provenance header for BENCH_<date>.json: commit, python, platform.

    Additive -- the schema stays ``repro-bench/1`` and older consumers
    that ignore unknown keys keep working.  The commit hash is best
    effort: outside a git checkout it is recorded as ``unknown``.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip() or "unknown"
    except Exception:  # noqa: BLE001 - git absent or not a checkout
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def row(exp_id: str, what: str, stated: str, measured: str) -> None:
    now = time.perf_counter()
    seconds, _CLOCK[0] = now - _CLOCK[0], now
    status = "ok" if stated == measured or stated in measured else "FAIL"
    ROWS.append(
        {
            "id": exp_id,
            "experiment": what,
            "stated": stated,
            "measured": measured,
            "status": status,
            # Wall time since the previous row: attributes each row the
            # work computed for it (coarse but trend-comparable).
            "seconds": round(seconds, 6),
        }
    )


def both_semantics(program: str) -> str:
    values = {run_source(program, semantics=s) for s in Semantics}
    if len(values) != 1:
        return f"DISAGREE {values}"
    return repr(values.pop())


def _run_experiments() -> None:
    # E1
    row("E1", "isort (section 1)", "((1, 2, 3), (3, 5, 9))", both_semantics(ISORT))

    # E2
    for name in sorted(OVERVIEW_PROGRAMS):
        build, expected = OVERVIEW_PROGRAMS[name]
        program = build()
        values = {run_core(program, semantics=s).value for s in Semantics}
        measured = repr(values.pop()) if len(values) == 1 else f"DISAGREE {values}"
        row("E2", f"overview: {name}", repr(expected), measured)

    # E3
    pair_env = ImplicitEnv.empty().push([INT, rule(pair(A, A), [A], ["a"])])
    row(
        "E3",
        "Int; forall a.{a}=>a*a |-r Int*Int",
        "resolvable",
        "resolvable" if resolvable(pair_env, pair(INT, INT)) else "stuck",
    )
    row(
        "E3",
        "... |-r {Int}=>Int*Int (no recursion)",
        "size 1",
        f"size {resolve(pair_env, rule(pair(INT, INT), [INT])).size()}",
    )
    partial_env = ImplicitEnv.empty().push(
        [BOOL, rule(pair(A, A), [BOOL, A], ["a"])]
    )
    d = resolve(partial_env, rule(pair(INT, INT), [INT]))
    from repro.core.resolution import ByAssumption, ByResolution

    kinds = sorted(type(p).__name__ for p in d.premises)
    row(
        "E3",
        "partial resolution premise mix",
        "['ByAssumption', 'ByResolution']",
        repr(kinds),
    )
    bt_env = (
        ImplicitEnv.empty()
        .push([CHAR])
        .push([rule(INT, [CHAR])])
        .push([rule(INT, [BOOL])])
    )
    row(
        "E3",
        "Char;Char=>Int;Bool=>Int |-r Int",
        "stuck (entailed semantically)",
        (
            "stuck" if not resolvable(bt_env, INT) else "resolved"
        )
        + (" (entailed semantically)" if env_entails(bt_env, INT) else " (not entailed)"),
    )

    # E4 / E5
    row("E4", "Eq type class figure", "(False, True)", both_semantics(EQ_PROGRAM))
    row("E5", "higher-order show", "('1,2,3', '1 2 3')", both_semantics(SHOW_PROGRAM))

    # E7
    loop_env = ImplicitEnv.empty().push([rule(INT, [CHAR]), rule(CHAR, [INT])])
    try:
        resolve(loop_env, INT)
        measured = "resolved?!"
    except ResolutionDivergenceError:
        measured = "divergence caught"
    row("E7", "{Char}=>Int, {Int}=>Char |-r Int", "divergence caught", measured)

    # E9
    from repro.core.types import TCon

    tx, ty, tz = TCon("X"), TCon("Y"), TCon("Z")
    ext_env = ImplicitEnv.empty().push([rule(ty, [tz]), rule(tz, [tx])])
    query = rule(ty, [tx])
    measured = (
        ("syntactic stuck" if not resolvable(ext_env, query) else "syntactic ok")
        + ", "
        + (
            "extending ok"
            if resolvable(ext_env, query, strategy=ResolutionStrategy.EXTENDING)
            else "extending stuck"
        )
    )
    row("E9", "{C}=>B, {A}=>C |-r {A}=>B", "syntactic stuck, extending ok", measured)

    # B13 agreement smoke: the sharded deployment is an optimisation,
    # not a semantics change -- a 2-shard supervisor and a single
    # process must produce byte-identical session transcripts.  Runs in
    # ``--quick`` too, so CI exercises the multi-process path.
    from benchmarks.bench_sharded_service import sharded_agreement

    agree, total = sharded_agreement(sessions=8)
    row(
        "B13",
        "sharded vs single-process transcripts",
        "8/8 agree",
        f"{agree}/{total} agree",
    )

    # B16 agreement smoke: the modus-ponens subtyping decision agrees
    # with syntactic resolution on the wide workload (docs/RESOLUTION.md).
    from benchmarks.bench_subtyping import measure_subtyping

    sub = measure_subtyping(width=30, reps=1)
    row(
        "B16",
        "subtyping decision vs syntactic resolution",
        "all agree",
        "all agree"
        if sub["agreements"] == sub["queries"]
        else f"{sub['agreements']}/{sub['queries']} agree",
    )


def _run_timings() -> dict:
    """The two headline performance claims, as wall-clock measurements."""
    from benchmarks.bench_env_indexing import _timed, indexed_workload
    from repro.core.cache import ResolutionCache
    from repro.core.env import OverlapPolicy
    from repro.core.resolution import Resolver
    from repro.fuzz.reference import NaiveEnv

    timings: dict = {}

    env, queries = indexed_workload(120)
    policy = OverlapPolicy.MOST_SPECIFIC
    resolver = Resolver(policy=policy, cache=None)
    naive = _timed(resolver, NaiveEnv.of(env), queries)
    indexed = _timed(resolver, env, queries)
    timings["wide_lookup"] = {
        "width": 120,
        "naive_seconds": round(naive, 6),
        "indexed_seconds": round(indexed, 6),
        "speedup": round(naive / indexed, 2) if indexed else None,
    }

    from benchmarks.conftest import nested_pair_type, pair_env

    env2 = pair_env()
    query = nested_pair_type(7)

    def resolve_many(resolver):
        start = time.perf_counter()
        for _ in range(40):
            resolver.resolve(env2, query)
        return time.perf_counter() - start

    uncached = resolve_many(Resolver(cache=None))
    cached = resolve_many(Resolver(cache=ResolutionCache()))
    timings["repeated_resolution"] = {
        "depth": 7,
        "repetitions": 40,
        "uncached_seconds": round(uncached, 6),
        "cached_seconds": round(cached, 6),
        "speedup": round(uncached / cached, 2) if cached else None,
    }

    # B11: the resolution service -- warm-session throughput vs one-shot
    # pipeline calls, tail latency, and coalescing collapse.
    from benchmarks.bench_service import measure_service

    timings["service"] = measure_service(one_shot_calls=150, warm_requests=300)

    # B12: compiled trie matchers vs the naive scan, wide and deep.
    from benchmarks.bench_compiled_env import measure_compiled_env

    timings["compiled_env"] = measure_compiled_env(width=120, depth=60)

    # B13: sharded-service scaling -- 4 worker processes vs 1, over 1k
    # warm sessions.  The ``scaling`` figure is honest for the machine
    # it ran on (``cpus`` is recorded next to it): one core cannot show
    # multi-core scaling.
    from benchmarks.bench_sharded_service import measure_sharded_service

    timings["sharded_service"] = measure_sharded_service()

    # B14: persistent derivation store -- a disk-warmed restart (open
    # the store, rebuild the index, bulk-decode the environment's
    # records, answer every query) vs cold proof search on a 120-rule
    # environment.
    from benchmarks.bench_persistent_store import measure_persistent_store

    timings["persistent_store"] = measure_persistent_store()

    # B15: corecursive resolution closes depth-60 recursive instances
    # the fuel-bounded engine cannot finish (docs/RESOLUTION.md).
    from benchmarks.bench_corecursive import measure_corecursive

    timings["corecursive"] = measure_corecursive()

    # B16: the modus-ponens subtyping decision agrees with syntactic
    # resolution on the wide workload at a measured relative cost
    # (docs/RESOLUTION.md) -- an agreement claim, not a speedup claim.
    from benchmarks.bench_subtyping import measure_subtyping

    timings["subtyping"] = measure_subtyping()
    return timings


def main(argv: list[str] | None = None) -> int:
    from repro.obs import ResolutionStats, collecting

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="where to write the machine-readable snapshot "
        "(default: BENCH_<date>.json in the repository root)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: correctness rows only, skip the timing sweeps",
    )
    args = parser.parse_args(argv)

    stats = ResolutionStats()
    _CLOCK[0] = time.perf_counter()
    with collecting(stats):
        _run_experiments()
        timings = {} if args.quick else _run_timings()

    width = max(len(r["experiment"]) for r in ROWS) + 2
    print(f"{'ID':<4} {'experiment':<{width}} stated -> measured")
    print("-" * (width + 40))
    failures = 0
    for r in ROWS:
        print(
            f"{r['id']:<4} {r['experiment']:<{width}} "
            f"{r['stated']}  ->  {r['measured']}  [{r['status']}]"
        )
        if r["status"] != "ok" or "DISAGREE" in r["measured"]:
            failures += 1
    print("-" * (width + 40))
    print(f"{len(ROWS)} experiments, {failures} failure(s)")
    for name, numbers in timings.items():
        print(f"{name}: " + ", ".join(f"{k}={v}" for k, v in numbers.items()))

    date = datetime.date.today().isoformat()
    json_path = Path(
        args.json if args.json else Path(__file__).resolve().parent.parent / f"BENCH_{date}.json"
    )
    snapshot = {
        "schema": "repro-bench/1",
        "date": date,
        "meta": snapshot_meta(),
        "quick": args.quick,
        "rows": ROWS,
        "resolution_stats": stats.as_dict(),
        "timings": timings,
        "failures": failures,
    }
    json_path.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {json_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
