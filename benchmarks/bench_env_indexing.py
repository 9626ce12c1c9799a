"""B10: indexed (compiled) rule lookup on wide environments.

The workload is the many-rules shape type-class-heavy programs produce:
one scope providing a rule per (distinct) head constructor, plus a
couple of variable-headed rules that match anything.  The naive
reference scan (:class:`repro.fuzz.reference.NaiveEnv`) tries the whole
frame -- O(width) matching attempts per query -- while production
lookup's discrimination trie narrows each scan to the one rigid
candidate plus the variable-headed rules.

``test_indexing_speedup_and_cache_no_regression`` asserts the
acceptance thresholds: >= 2x wall-clock speedup of production lookup
over the naive scan on 100+-rule environments with the derivation cache
off, and no (loosely bounded) regression with the cache on, where
repeated queries bypass lookup entirely.  It is marked ``slow``; the
pytest-benchmark rows report the per-query numbers.
"""

import time

import pytest

from repro.core.cache import ResolutionCache
from repro.core.env import ImplicitEnv, OverlapPolicy, RuleEntry
from repro.core.resolution import Resolver
from repro.core.types import INT, TCon, TVar, Type, rule
from repro.fuzz.reference import NaiveEnv
from repro.obs import ResolutionStats

WIDTHS = (20, 100, 300)
FLEX_RULES = 2
REPS = 40


def indexed_workload(width: int) -> tuple[ImplicitEnv, list[Type]]:
    """One frame of ``width`` distinct-constructor rules plus a couple of
    variable-headed rules, and a query spread across the constructors."""
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


def run_queries(resolver: Resolver, env: ImplicitEnv, queries: list[Type]) -> None:
    for query in queries:
        for _ in range(REPS):
            resolver.resolve(env, query)


def _timed(resolver: Resolver, env: ImplicitEnv, queries: list[Type]) -> float:
    start = time.perf_counter()
    run_queries(resolver, env, queries)
    return time.perf_counter() - start


@pytest.mark.slow
def test_indexing_speedup_and_cache_no_regression():
    env, queries = indexed_workload(120)
    naive_env = NaiveEnv.of(env)
    policy = OverlapPolicy.MOST_SPECIFIC

    naive = _timed(Resolver(policy=policy, cache=None), naive_env, queries)
    indexed = _timed(Resolver(policy=policy, cache=None), env, queries)
    assert naive >= 2.0 * indexed, (
        f"indexing speedup below 2x on a 120-rule environment: "
        f"naive {naive:.4f}s vs indexed {indexed:.4f}s"
    )

    # With the derivation cache on, repeated queries are answered by the
    # memo and lookup barely runs; indexing must not cost anything
    # noticeable there (loose bound: generous slack for timer noise).
    cached_naive = _timed(
        Resolver(policy=policy, cache=ResolutionCache()), naive_env, queries
    )
    cached_indexed = _timed(
        Resolver(policy=policy, cache=ResolutionCache()), env, queries
    )
    assert cached_indexed <= 2.0 * cached_naive + 0.01, (
        f"indexing regressed the cached path: indexed {cached_indexed:.4f}s "
        f"vs naive {cached_naive:.4f}s"
    )


def test_indexed_and_naive_agree_on_the_workload():
    env, queries = indexed_workload(50)
    policy = OverlapPolicy.MOST_SPECIFIC
    for query in queries:
        indexed = env.lookup(query, policy)
        naive = NaiveEnv.of(env).lookup(query, policy)
        assert indexed.entry is naive.entry


def test_index_prunes_almost_everything():
    env, queries = indexed_workload(100)
    stats = ResolutionStats()
    from repro.obs import collecting

    with collecting(stats):
        env.lookup(queries[0], OverlapPolicy.MOST_SPECIFIC)
    width = 100 + FLEX_RULES
    assert stats.compiled_hits == 1
    # Everything but the one rigid candidate and the flex bucket is pruned.
    assert stats.candidates_pruned == width - 1 - FLEX_RULES


@pytest.mark.parametrize("mode", ["naive", "indexed"])
@pytest.mark.parametrize("width", WIDTHS)
def test_wide_lookup(benchmark, mode, width):
    env, queries = indexed_workload(width)
    if mode == "naive":
        env = NaiveEnv.of(env)
    policy = OverlapPolicy.MOST_SPECIFIC

    def lookup_sweep():
        for query in queries:
            env.lookup(query, policy)

    benchmark.group = f"B10 indexing width={width}"
    benchmark(lookup_sweep)
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["queries"] = len(queries)
