"""Unit tests for the resolution derivation cache (repro.core.cache).

Each test pins down one of the invariants documented in the module's
docstring: lexical scoping through the environment fingerprint, evidence
identity through the payload witness, fuel monotonicity, and the hard
rule that divergence is never cached.
"""

import gc

import pytest

from repro.core.cache import ResolutionCache, derivation_key
from repro.core.env import ImplicitEnv, OverlapPolicy, RuleEntry
from repro.core.resolution import ResolutionStrategy, Resolver
from repro.core.types import BOOL, CHAR, INT, TVar, canonical_key, pair, rule
from repro.errors import (
    AmbiguousRuleTypeError,
    NoMatchingRuleError,
    OverlappingRulesError,
    ResolutionDivergenceError,
)
from repro.obs import ResolutionStats
from repro.span import Span

A = TVar("a")
SYN = ResolutionStrategy.SYNTACTIC
REJECT = OverlapPolicy.REJECT

#: Appendix: ``{ {Char}=>Int, {Int}=>Char } |-r Int`` loops forever.
DIVERGING_FRAME = [rule(INT, [CHAR]), rule(CHAR, [INT])]


def nested_pair(depth: int):
    t = INT
    for _ in range(depth):
        t = pair(t, t)
    return t


class TestCacheKey:
    def test_key_components(self, pair_env):
        key = ResolutionCache.key_for(pair_env, INT, SYN, REJECT)
        assert key == (
            pair_env.fingerprint(),
            pair_env.payload_witness(),
            canonical_key(INT),
            SYN,
            REJECT,
        )

    def test_push_changes_key_pop_restores_it(self, pair_env):
        outer_key = ResolutionCache.key_for(pair_env, INT, SYN, REJECT)
        inner = pair_env.push([BOOL])
        assert ResolutionCache.key_for(inner, INT, SYN, REJECT) != outer_key
        # "Popping" is just resuming use of the immutable outer env.
        assert ResolutionCache.key_for(pair_env, INT, SYN, REJECT) == outer_key

    def test_structurally_equal_envs_share_keys(self):
        pair_rule = rule(pair(A, A), [A], ["a"])
        e1 = ImplicitEnv.empty().push([INT, pair_rule])
        e2 = ImplicitEnv.empty().push([INT, pair_rule])
        assert e1 is not e2
        assert e1.fingerprint() == e2.fingerprint()
        assert hash(e1.fingerprint()) == hash(e2.fingerprint())
        assert ResolutionCache.key_for(e1, INT, SYN, REJECT) == ResolutionCache.key_for(
            e2, INT, SYN, REJECT
        )

    def test_distinct_payloads_split_keys(self):
        # Same types, different evidence objects: the fingerprint agrees
        # but the witness must not, or the elaborator would read stale
        # evidence off a cached derivation.
        e1 = ImplicitEnv.empty().push([RuleEntry(INT, payload="evidence-1")])
        e2 = ImplicitEnv.empty().push([RuleEntry(INT, payload="evidence-2")])
        assert e1.fingerprint() == e2.fingerprint()
        assert ResolutionCache.key_for(e1, INT, SYN, REJECT) != ResolutionCache.key_for(
            e2, INT, SYN, REJECT
        )

    def test_strategy_and_policy_are_part_of_the_key(self, pair_env):
        keys = {
            ResolutionCache.key_for(pair_env, INT, strategy, policy)
            for strategy in ResolutionStrategy
            for policy in OverlapPolicy
        }
        assert len(keys) == len(ResolutionStrategy) * len(OverlapPolicy)

    def test_entry_pins_its_environment(self):
        env = ImplicitEnv.empty().push([RuleEntry(INT, payload="evidence")])
        cache = ResolutionCache()
        resolver = Resolver(cache=cache)
        resolver.resolve(env, INT)
        key = cache.key_for(env, INT, SYN, REJECT)
        entry = cache.get(key, resolver.fuel)
        # The strong reference keeps payload ids in the key from being
        # recycled while the entry lives.
        assert entry.env is env

    def test_payload_less_entries_do_not_pin_their_environment(self, pair_env):
        # An all-None witness has no ids to protect: the entry must not
        # keep a popped scope (and its compiled frames) alive.
        cache = ResolutionCache()
        resolver = Resolver(cache=cache)
        scope = pair_env.push([CHAR])
        resolver.resolve(scope, INT)
        with pytest.raises(NoMatchingRuleError):
            resolver.resolve(scope, BOOL)
        for query in (INT, BOOL):
            entry = cache.get(cache.key_for(scope, query, SYN, REJECT), resolver.fuel)
            assert entry.env is None
        entries = list(cache._entries.values())
        assert not any(e in gc.get_referrers(scope) for e in entries)

    def test_failure_entry_keeps_its_query_type(self, pair_env):
        cache = ResolutionCache()
        resolver = Resolver(cache=cache)
        query = rule(BOOL, [CHAR])
        with pytest.raises(NoMatchingRuleError):
            resolver.resolve(pair_env, query)
        entry = cache.get(cache.key_for(pair_env, query, SYN, REJECT), resolver.fuel)
        assert not entry.is_success
        assert entry.query is query


class TestFuelMonotonicity:
    def test_probe_below_recorded_fuel_misses(self, pair_env):
        cache = ResolutionCache()
        Resolver(cache=cache, fuel=100).resolve(pair_env, INT)
        key = cache.key_for(pair_env, INT, SYN, REJECT)
        assert cache.get(key, 100) is not None
        assert cache.get(key, 1000) is not None  # more fuel always fine
        assert cache.get(key, 99) is None

    def test_success_at_lower_fuel_widens_the_entry(self, pair_env):
        cache = ResolutionCache()
        Resolver(cache=cache, fuel=100).resolve(pair_env, INT)
        key = cache.key_for(pair_env, INT, SYN, REJECT)
        assert cache.get(key, 8) is None
        # Recomputing at fuel 8 observes the same outcome and lowers the
        # entry's bound instead of duplicating it.
        Resolver(cache=cache, fuel=8).resolve(pair_env, INT)
        assert cache.get(key, 8) is not None
        assert len(cache) == 1  # the bound was widened, not re-inserted

    def test_deep_success_never_served_to_shallow_fuel(self, pair_env):
        # A derivation needing 5 fuel units, cached by a deep resolver,
        # must not let a fuel=3 resolver skip past its own bound.
        deep_query = nested_pair(4)
        cache = ResolutionCache()
        shallow = Resolver(cache=cache, fuel=3)
        with pytest.raises(ResolutionDivergenceError):
            shallow.resolve(pair_env, deep_query)
        assert len(cache) == 0
        Resolver(cache=cache, fuel=512).resolve(pair_env, deep_query)
        assert len(cache) == 5  # pair^4 .. pair^1 and Int
        with pytest.raises(ResolutionDivergenceError):
            shallow.resolve(pair_env, deep_query)


class TestDivergenceNeverCached:
    def test_divergence_leaves_no_entry_and_is_recomputed(self):
        env = ImplicitEnv.empty().push(DIVERGING_FRAME)
        cache = ResolutionCache()
        stats = ResolutionStats()
        resolver = Resolver(cache=cache, stats=stats)
        with pytest.raises(ResolutionDivergenceError):
            resolver.resolve(env, INT)
        assert len(cache) == 0
        first_misses = stats.cache_misses
        with pytest.raises(ResolutionDivergenceError):
            resolver.resolve(env, INT)
        assert len(cache) == 0
        # The second attempt re-ran the whole search: no negative hit.
        assert stats.cache_hits == 0
        assert stats.cache_misses > first_misses

    def test_put_failure_refuses_divergence(self):
        cache = ResolutionCache()
        env = ImplicitEnv.empty()
        key = cache.key_for(env, INT, SYN, REJECT)
        with pytest.raises(ValueError):
            cache.put_failure(key, ResolutionDivergenceError("loop"), env, fuel=5)
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "strategy",
        [s for s in ResolutionStrategy if s is not ResolutionStrategy.CORECURSIVE],
    )
    def test_no_strategy_caches_divergence(self, strategy):
        env = ImplicitEnv.empty().push(DIVERGING_FRAME)
        cache = ResolutionCache()
        resolver = Resolver(cache=cache, strategy=strategy, fuel=64)
        with pytest.raises(ResolutionDivergenceError):
            resolver.resolve(env, INT)
        assert len(cache) == 0

    def test_corecursive_closes_the_cycle_instead(self):
        # The appendix's diverging environment is exactly the workload
        # the corecursive strategy exists for: the Int/Char loop is
        # guarded (each step changes the head), so it resolves -- and
        # the closed derivation MAY be cached (it is a complete proof).
        env = ImplicitEnv.empty().push(DIVERGING_FRAME)
        cache = ResolutionCache()
        resolver = Resolver(
            cache=cache, strategy=ResolutionStrategy.CORECURSIVE, fuel=64
        )
        derivation = resolver.resolve(env, INT)
        assert derivation.cycle is not None


class TestNegativeCaching:
    def test_no_match_failure_is_cached(self, pair_env):
        cache = ResolutionCache()
        stats = ResolutionStats()
        resolver = Resolver(cache=cache, stats=stats)
        with pytest.raises(NoMatchingRuleError) as first:
            resolver.resolve(pair_env, CHAR)
        assert len(cache) == 1
        with pytest.raises(NoMatchingRuleError) as second:
            resolver.resolve(pair_env, CHAR)
        assert stats.cache_hits == 1
        # The cached failure is replayed as a fresh, equal exception.
        assert type(second.value) is type(first.value)
        assert str(second.value) == str(first.value)
        assert second.value.code == first.value.code
        assert second.value.span == first.value.span

    def test_cached_failure_pins_no_frames(self, pair_env):
        # Re-raising one cached exception object would grow its
        # traceback on every hit and keep each request's frames alive.
        cache = ResolutionCache()
        resolver = Resolver(cache=cache)
        key = ResolutionCache.key_for(pair_env, CHAR, SYN, REJECT)
        for _ in range(1000):
            with pytest.raises(NoMatchingRuleError) as caught:
                resolver.resolve(pair_env, CHAR)
            assert caught.value.__traceback__ is not None
            cached = cache.get(key, resolver.fuel).outcome
            assert cached.__traceback__ is None
            assert cached is not caught.value
        assert cached.__context__ is None and cached.__cause__ is None
        assert len(cache) == 1

    def test_replayed_failure_keeps_code_and_span(self, pair_env):
        cache = ResolutionCache()
        resolver = Resolver(cache=cache)
        key = ResolutionCache.key_for(pair_env, CHAR, SYN, REJECT)
        span = Span.point(3, 7)
        cache.put_failure(
            key, NoMatchingRuleError("no rule", span=span), pair_env, resolver.fuel
        )
        with pytest.raises(NoMatchingRuleError) as caught:
            resolver.resolve(pair_env, CHAR)
        assert caught.value.args == ("no rule",)
        assert caught.value.span == span
        assert caught.value.code == NoMatchingRuleError.code

    def test_overlap_failure_is_cached(self):
        env = ImplicitEnv.empty().push([rule(INT, [BOOL]), rule(INT, [CHAR])])
        cache = ResolutionCache()
        stats = ResolutionStats()
        resolver = Resolver(cache=cache, stats=stats)
        for _ in range(2):
            with pytest.raises(OverlappingRulesError):
                resolver.resolve(env, INT)
        assert len(cache) == 1
        assert stats.cache_hits == 1

    def test_ambiguous_rule_type_propagates_uncached(self):
        # 'a' does not occur in the head: lookup raises the "ambiguous
        # instantiation" error, which is a TypecheckError, not a
        # resolution verdict -- it must never become a cache entry.
        env = ImplicitEnv.empty().push([rule(INT, [pair(A, A)], ["a"])])
        cache = ResolutionCache()
        resolver = Resolver(cache=cache)
        for _ in range(2):
            with pytest.raises(AmbiguousRuleTypeError):
                resolver.resolve(env, INT)
        assert len(cache) == 0


class TestEviction:
    def test_fifo_eviction(self):
        cache = ResolutionCache(max_entries=2)
        env = ImplicitEnv.empty().push([INT, BOOL, CHAR])
        resolver = Resolver(cache=cache)
        resolver.resolve(env, INT)
        resolver.resolve(env, BOOL)
        assert len(cache) == 2
        resolver.resolve(env, CHAR)  # evicts the oldest (Int) entry
        assert len(cache) == 2
        assert cache.key_for(env, INT, SYN, REJECT) not in cache
        assert cache.key_for(env, BOOL, SYN, REJECT) in cache
        assert cache.key_for(env, CHAR, SYN, REJECT) in cache

    def test_clear(self, pair_env):
        cache = ResolutionCache()
        Resolver(cache=cache).resolve(pair_env, INT)
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            ResolutionCache(max_entries=0)


class TestDerivationKey:
    def test_equal_trees_despite_fresh_tokens(self, pair_env):
        query = rule(pair(INT, INT), [INT])
        d1 = Resolver(cache=None).resolve(pair_env, query)
        d2 = Resolver(cache=None).resolve(pair_env, query)
        assert d1.assumptions[0] is not d2.assumptions[0]
        assert derivation_key(d1) == derivation_key(d2)

    def test_distinct_proofs_get_distinct_keys(self, pair_env):
        d_simple = Resolver(cache=None).resolve(pair_env, pair(INT, INT))
        d_rule = Resolver(cache=None).resolve(pair_env, rule(pair(INT, INT), [INT]))
        assert derivation_key(d_simple) != derivation_key(d_rule)

    def test_extending_strategy_token_payloads_are_canonicalised(self):
        # E9's extending example: {Y,[Z]}, {Z,[X]} proves {X}=>Y by pushing
        # the assumed X as an Assumption-payload entry, so the innermost
        # lookup's payload IS a token.  Two runs mint different tokens, but
        # the structural key must agree.
        from repro.core.types import TCon

        X, Y, Z = TCon("X"), TCon("Y"), TCon("Z")
        env = ImplicitEnv.empty().push([rule(Y, [Z]), rule(Z, [X])])
        query = rule(Y, [X])
        extending = ResolutionStrategy.EXTENDING
        d1 = Resolver(cache=None, strategy=extending).resolve(env, query)
        d2 = Resolver(cache=None, strategy=extending).resolve(env, query)
        assert derivation_key(d1) == derivation_key(d2)
