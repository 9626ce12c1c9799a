"""Regression tests for the observability layer (repro.obs).

The counter tests are *exact*: each expected dictionary is hand-derived
from the resolution rules, so any change to how often lookup/unification
runs -- intended or not -- shows up as a diff against a worked example.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ResolutionCache
from repro.core.env import ImplicitEnv
from repro.core.resolution import Resolver
from repro.core.types import BOOL, INT, rule
from repro.logic.encode import env_entails
from repro.obs import (
    CACHE_HIT,
    CACHE_MISS,
    QUERY,
    SUCCESS,
    ResolutionStats,
    Tracer,
    active_stats,
    collecting,
    record_lookup,
    record_unify,
)


@pytest.fixture
def simple_env():
    """``Bool; {Bool} => Int``: resolving Int takes one recursive step."""
    return ImplicitEnv.empty().push([BOOL, rule(INT, [BOOL])])


class TestHandComputedCounters:
    """Exact counters for section 3.2-style examples.

    Derivation for ``simple_env |- Int`` (cold cache):

    * 1 query, 2 resolution steps (Int, then the recursive Bool), so
      max_depth is 1 and both steps miss the cache;
    * 2 environment lookups (one per step);
    * 0 unification attempts: each frame's trie narrows the 2-entry
      scan to the single entry with the right head (2 compiled hits, 2
      pruned candidates), and both heads are ground, so the compiled
      matcher compares them by identity; the naive scan would have
      attempted 4 unifications.
    """

    def test_simple_resolution_counts(self, simple_env):
        stats = ResolutionStats()
        Resolver(cache=ResolutionCache(), stats=stats).resolve(simple_env, INT)
        assert stats.as_dict() == {
            "queries": 1,
            "resolve_steps": 2,
            "max_depth": 1,
            "cache_hits": 0,
            "cache_misses": 2,
            "lookup_calls": 2,
            "unify_calls": 0,
            "candidates_pruned": 2,
            "compiled_hits": 2,
            "compiled_fallbacks": 0,
            "entails_calls": 0,
            "coalesced_requests": 0,
            "shed_requests": 0,
            "deadline_timeouts": 0,
            "fuzz_cases": 0,
            "fuzz_disagreements": 0,
            "fuzz_shrink_steps": 0,
            "shard_dispatches": 0,
            "shard_rebalances": 0,
            "worker_restarts": 0,
            "wire_bytes_in": 0,
            "wire_bytes_out": 0,
            "store_hits": 0,
            "store_loads": 0,
            "store_evictions": 0,
            "store_corrupt_records": 0,
            "store_bytes": 0,
            "corec_cycles_closed": 0,
            "corec_guard_rejections": 0,
            "subtyping_checks": 0,
        }
        assert stats.fuel_consumed == 2  # one unit per resolution step

    def test_second_identical_resolve_is_a_pure_hit(self, simple_env):
        stats = ResolutionStats()
        resolver = Resolver(cache=ResolutionCache(), stats=stats)
        resolver.resolve(simple_env, INT)
        resolver.resolve(simple_env, INT)
        # One extra query and one extra step, answered entirely by the
        # cache: zero new lookups, zero new unifications.
        assert stats.as_dict() == {
            "queries": 2,
            "resolve_steps": 3,
            "max_depth": 1,
            "cache_hits": 1,
            "cache_misses": 2,
            "lookup_calls": 2,
            "unify_calls": 0,
            "candidates_pruned": 2,
            "compiled_hits": 2,
            "compiled_fallbacks": 0,
            "entails_calls": 0,
            "coalesced_requests": 0,
            "shed_requests": 0,
            "deadline_timeouts": 0,
            "fuzz_cases": 0,
            "fuzz_disagreements": 0,
            "fuzz_shrink_steps": 0,
            "shard_dispatches": 0,
            "shard_rebalances": 0,
            "worker_restarts": 0,
            "wire_bytes_in": 0,
            "wire_bytes_out": 0,
            "store_hits": 0,
            "store_loads": 0,
            "store_evictions": 0,
            "store_corrupt_records": 0,
            "store_bytes": 0,
            "corec_cycles_closed": 0,
            "corec_guard_rejections": 0,
            "subtyping_checks": 0,
        }
        assert stats.hit_rate() == pytest.approx(1 / 3)

    def test_rule_resolution_counts(self):
        # Rule-type query whose context matches the rule's own context:
        # no recursion at all (the paper's "rule resolution" case).
        env = ImplicitEnv.empty().push([rule(INT, [BOOL])])
        query = rule(INT, [BOOL])
        stats = ResolutionStats()
        resolver = Resolver(cache=ResolutionCache(), stats=stats)
        resolver.resolve(env, query)
        assert stats.as_dict() == {
            "queries": 1,
            "resolve_steps": 1,
            "max_depth": 0,
            "cache_hits": 0,
            "cache_misses": 1,
            "lookup_calls": 1,
            "unify_calls": 0,
            "candidates_pruned": 0,
            "compiled_hits": 1,
            "compiled_fallbacks": 0,
            "entails_calls": 0,
            "coalesced_requests": 0,
            "shed_requests": 0,
            "deadline_timeouts": 0,
            "fuzz_cases": 0,
            "fuzz_disagreements": 0,
            "fuzz_shrink_steps": 0,
            "shard_dispatches": 0,
            "shard_rebalances": 0,
            "worker_restarts": 0,
            "wire_bytes_in": 0,
            "wire_bytes_out": 0,
            "store_hits": 0,
            "store_loads": 0,
            "store_evictions": 0,
            "store_corrupt_records": 0,
            "store_bytes": 0,
            "corec_cycles_closed": 0,
            "corec_guard_rejections": 0,
            "subtyping_checks": 0,
        }
        resolver.resolve(env, query)
        after = stats.as_dict()
        assert after["cache_hits"] == 1
        assert after["lookup_calls"] == 1  # pure hit: no new work
        assert after["unify_calls"] == 0

    def test_cache_disabled_records_no_probes(self, simple_env):
        stats = ResolutionStats()
        resolver = Resolver(cache=None, stats=stats)
        resolver.resolve(simple_env, INT)
        resolver.resolve(simple_env, INT)
        assert stats.as_dict() == {
            "queries": 2,
            "resolve_steps": 4,
            "max_depth": 1,
            "cache_hits": 0,
            "cache_misses": 0,  # never consulted
            "lookup_calls": 4,
            "unify_calls": 0,
            "candidates_pruned": 4,
            "compiled_hits": 4,
            "compiled_fallbacks": 0,
            "entails_calls": 0,
            "coalesced_requests": 0,
            "shed_requests": 0,
            "deadline_timeouts": 0,
            "fuzz_cases": 0,
            "fuzz_disagreements": 0,
            "fuzz_shrink_steps": 0,
            "shard_dispatches": 0,
            "shard_rebalances": 0,
            "worker_restarts": 0,
            "wire_bytes_in": 0,
            "wire_bytes_out": 0,
            "store_hits": 0,
            "store_loads": 0,
            "store_evictions": 0,
            "store_corrupt_records": 0,
            "store_bytes": 0,
            "corec_cycles_closed": 0,
            "corec_guard_rejections": 0,
            "subtyping_checks": 0,
        }
        assert stats.hit_rate() == 0.0


class TestEntailmentCounters:
    def test_uncached_entailment_always_searches(self, simple_env):
        # Every check runs the prover, and the prover's clause scan is
        # not an environment lookup: it leaves the compiled-matcher
        # counters alone.
        stats = ResolutionStats()
        with collecting(stats):
            assert env_entails(simple_env, INT)
            assert env_entails(simple_env, INT)
        assert stats.entails_calls == 2
        assert stats.compiled_hits == stats.candidates_pruned == 0
        assert stats.unify_calls > 0


class TestCollecting:
    def test_nested_collectors_are_lexical(self):
        outer, inner = ResolutionStats(), ResolutionStats()
        assert active_stats() is None
        with collecting(outer):
            record_lookup()
            with collecting(inner):
                record_lookup()
                record_unify()
                assert active_stats() is inner
            record_lookup()
            assert active_stats() is outer
        assert active_stats() is None
        assert outer.lookup_calls == 2
        assert inner.lookup_calls == 1
        assert inner.unify_calls == 1

    def test_collecting_none_is_a_noop(self):
        with collecting(None) as scope:
            assert scope is None
            assert active_stats() is None
            record_lookup()  # silently dropped

    def test_resolver_stats_field_routes_without_ambient_scope(self, simple_env):
        stats = ResolutionStats()
        Resolver(cache=None, stats=stats).resolve(simple_env, INT)
        assert stats.queries == 1
        assert active_stats() is None

    def test_pipeline_stats_parameter(self):
        from repro.pipeline import run_source

        stats = ResolutionStats()
        result = run_source(
            "implicit showInt in let s : String = ? 3 in s", stats=stats
        )
        assert result == "3"
        assert stats.queries > 0
        assert stats.lookup_calls > 0
        assert stats.resolve_steps > 0


class TestStatsValue:
    def test_merge_adds_counters_and_maxes_depth(self):
        a = ResolutionStats(queries=1, resolve_steps=2, max_depth=3, unify_calls=4)
        b = ResolutionStats(queries=10, resolve_steps=20, max_depth=1, unify_calls=40)
        a.merge(b)
        assert a.queries == 11
        assert a.resolve_steps == 22
        assert a.max_depth == 3
        assert a.unify_calls == 44

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=30, max_size=30),
        st.lists(
            st.one_of(st.just(0), st.integers(min_value=0, max_value=50)),
            min_size=30,
            max_size=30,
        ),
    )
    def test_merge_equals_the_field_by_field_definition(self, mine, theirs):
        names = [f.name for f in fields(ResolutionStats)]
        assert len(names) == 30
        a = ResolutionStats(**dict(zip(names, mine)))
        b = ResolutionStats(**dict(zip(names, theirs)))
        expected = {
            name: max(x, y) if name == "max_depth" else x + y
            for name, x, y in zip(names, mine, theirs)
        }
        a.merge(b)
        assert a.as_dict() == expected
        assert b.as_dict() == dict(zip(names, theirs))  # other is untouched

    def test_reset_and_snapshot(self):
        stats = ResolutionStats(queries=5, cache_hits=2)
        frozen = stats.snapshot()
        stats.reset()
        assert stats.queries == 0
        assert frozen.queries == 5  # snapshot is independent
        assert frozen.cache_hits == 2

    def test_format_mentions_every_counter(self):
        text = ResolutionStats(cache_hits=1, cache_misses=1).format()
        for name in ResolutionStats().as_dict():
            assert name in text
        assert "hit_rate" in text
        assert "50.0%" in text


class TestTracer:
    def test_trace_narrates_misses_then_hits(self, simple_env):
        tracer = Tracer()
        resolver = Resolver(cache=ResolutionCache(), tracer=tracer)
        resolver.resolve(simple_env, INT)
        resolver.resolve(simple_env, INT)
        kinds = [event.kind for event in tracer]
        assert kinds == [
            QUERY, CACHE_MISS,          # outer Int, cold
            QUERY, CACHE_MISS, SUCCESS,  # recursive Bool
            SUCCESS,                     # outer Int completes
            QUERY, CACHE_HIT,            # second resolve: answered instantly
        ]
        depths = [event.depth for event in tracer]
        assert max(depths) == 1
        assert "Int" in tracer.render()

    def test_bounded_buffer_counts_drops(self):
        tracer = Tracer(limit=2)
        for i in range(5):
            tracer.emit(QUERY, 0, f"q{i}")
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert "3 event(s) dropped" in tracer.render()
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_cli_stats_flag_prints_counters(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "program.impl"
        path.write_text("implicit showInt in let s : String = ? 3 in s")
        assert main(["run", str(path), "--stats", "--trace"]) == 0
        captured = capsys.readouterr()
        assert "3" in captured.out
        assert "-- resolution stats --" in captured.err
        assert "hit_rate" in captured.err
        assert "-- resolution trace --" in captured.err
