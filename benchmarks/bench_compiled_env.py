"""B12: compiled discrimination-trie matchers on wide and deep workloads.

Two workload shapes bracket where rule lookup spends its time:

* **wide** -- B10's many-rules scope (one extract rule per constructor
  plus variable-headed catch-alls) under the MOST_SPECIFIC policy.
  Every query matches one rigid rule *and* the catch-alls, so the naive
  reference scan (:class:`repro.fuzz.reference.NaiveEnv`) re-runs
  generic matching over the whole frame and the quadratic
  ``_more_specific`` overlap resolution on every repetition; production
  lookup answers from the trie, pointer-checking matchers and the
  memoized overlap decision.  This is the >= 10x case.
* **deep** -- a ground derivation chain ``D0; {D0}=>D1; ...``: resolving
  ``D<depth>`` performs ``depth`` recursive lookups, one per rule
  application, so the per-lookup saving is measured through the
  resolver rather than around it (informational).

``test_compiled_speedup_on_wide_envs`` asserts the >= 10x floor
(compiled vs naive, frames already built, cache off);
``measure_compiled_env`` feeds the same numbers into
``benchmarks/report.py``'s ``BENCH_<date>.json`` snapshot.
"""

import time

import pytest

from repro.core.env import ImplicitEnv, OverlapPolicy, RuleEntry
from repro.core.resolution import Resolver
from repro.core.types import INT, TCon, TVar, Type, rule
from repro.fuzz.reference import NaiveEnv
from repro.obs import ResolutionStats, collecting

WIDTHS = (20, 100, 300)
FLEX_RULES = 2
REPS = 40


def compiled_workload(width: int) -> tuple[ImplicitEnv, list[Type]]:
    """B10's wide-scope shape: every query overlaps the catch-alls."""
    a = TVar("a")
    entries = [
        RuleEntry(rule(TCon(f"C{i}", (a,)), [], ["a"]), payload=i)
        for i in range(width)
    ]
    for j in range(FLEX_RULES):
        entries.append(RuleEntry(rule(a, [TCon(f"Missing{j}")], ["a"])))
    env = ImplicitEnv.empty().push(entries)
    queries = [TCon(f"C{i}", (INT,)) for i in range(0, width, max(1, width // 10))]
    return env, queries


def deep_workload(depth: int) -> tuple[ImplicitEnv, Type]:
    """A ground rule chain whose resolution recurses ``depth`` times."""
    entries: list = [TCon("D0")]
    for i in range(1, depth + 1):
        entries.append(rule(TCon(f"D{i}"), [TCon(f"D{i - 1}")]))
    return ImplicitEnv.empty().push(entries), TCon(f"D{depth}")


def _timed(env: ImplicitEnv, queries: list[Type], reps: int = REPS) -> float:
    resolver = Resolver(policy=OverlapPolicy.MOST_SPECIFIC, cache=None)
    start = time.perf_counter()
    for query in queries:
        for _ in range(reps):
            resolver.resolve(env, query)
    return time.perf_counter() - start


def _warmed(env: ImplicitEnv, queries: list[Type]) -> ImplicitEnv:
    """Build the compiled frames first, so the one-off build cost is not
    measured against the steady-state claim (it is amortized over the
    environment's lifetime)."""
    for query in queries:
        env.lookup(query, OverlapPolicy.MOST_SPECIFIC)
    return env


@pytest.mark.slow
def test_compiled_speedup_on_wide_envs():
    env, queries = compiled_workload(120)
    naive = _timed(NaiveEnv.of(env), queries)
    compiled = _timed(_warmed(env, queries), queries)
    assert naive >= 10.0 * compiled, (
        f"compiled speedup below 10x on a 120-rule environment: "
        f"naive {naive:.4f}s vs compiled {compiled:.4f}s"
    )


@pytest.mark.slow
def test_compiled_never_loses_on_deep_chains():
    env, query = deep_workload(60)
    naive = _timed(NaiveEnv.of(env), [query], reps=5)
    compiled = _timed(_warmed(env, [query]), [query], reps=5)
    # Informational shape: deep chains are recursion-bound, so only a
    # loose no-regression bound is asserted (generous slack for noise).
    assert compiled <= naive * 1.5 + 0.05, (
        f"compiled path regressed a deep chain: compiled {compiled:.4f}s "
        f"vs naive {naive:.4f}s"
    )


def test_compiled_and_interpreted_agree_on_the_workloads():
    env, queries = compiled_workload(50)
    policy = OverlapPolicy.MOST_SPECIFIC
    for query in queries:
        compiled = env.lookup(query, policy)
        interpreted = NaiveEnv.of(env).lookup(query, policy)
        assert compiled.entry is interpreted.entry
    deep_env, deep_query = deep_workload(10)
    resolver = Resolver(policy=policy, cache=None)
    d1 = resolver.resolve(deep_env, deep_query)
    d2 = resolver.resolve(NaiveEnv.of(deep_env), deep_query)
    assert d1.size() == d2.size() == 11


def test_compiled_counters_flow_through_stats():
    env, queries = compiled_workload(20)
    stats = ResolutionStats()
    with collecting(stats):
        env.lookup(queries[0], OverlapPolicy.MOST_SPECIFIC)
    assert stats.compiled_hits >= 1
    assert stats.compiled_fallbacks == 0  # no generic rules in this workload
    # Only the matching constructor rule and the catch-alls are tried.
    assert stats.candidates_pruned == 20 - 1


def measure_compiled_env(width: int = 120, depth: int = 60) -> dict:
    """Wall-clock numbers for ``benchmarks/report.py`` (B12)."""
    env, queries = compiled_workload(width)
    naive = _timed(NaiveEnv.of(env), queries)
    compiled = _timed(_warmed(env, queries), queries)
    deep_env, deep_query = deep_workload(depth)
    deep_naive = _timed(NaiveEnv.of(deep_env), [deep_query], reps=5)
    deep_compiled = _timed(_warmed(deep_env, [deep_query]), [deep_query], reps=5)
    return {
        "width": width,
        "naive_seconds": round(naive, 6),
        "compiled_seconds": round(compiled, 6),
        "speedup_vs_naive": round(naive / compiled, 2) if compiled else None,
        "deep_depth": depth,
        "deep_naive_seconds": round(deep_naive, 6),
        "deep_compiled_seconds": round(deep_compiled, 6),
    }


@pytest.mark.parametrize("mode", ["naive", "compiled"])
@pytest.mark.parametrize("width", WIDTHS)
def test_wide_compiled_lookup(benchmark, mode, width):
    env, queries = compiled_workload(width)
    env = NaiveEnv.of(env) if mode == "naive" else _warmed(env, queries)
    policy = OverlapPolicy.MOST_SPECIFIC

    def lookup_sweep():
        for query in queries:
            env.lookup(query, policy)

    benchmark.group = f"B12 compiled width={width}"
    benchmark(lookup_sweep)
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["queries"] = len(queries)
