"""Indexed environment lookup (the compiled discrimination tries).

Production lookup selects candidates through each frame's trie; it must
be *observably equivalent* to the naive frame scan
(:class:`repro.fuzz.reference.NaiveEnv`): same matches in the same
entry order, hence the same results, the same overlap failures, and the
same error messages.  These are the unit-level checks; the randomized
differential tests live in ``tests/property/test_property_index.py``.
"""

import pytest

from repro.core.compile_env import CompiledFrame, token_extents, type_query_tokens
from repro.core.env import ImplicitEnv, OverlapPolicy, RuleEntry
from repro.core.types import (
    BOOL,
    INT,
    STRING,
    TFun,
    TVar,
    head_symbol,
    pair,
    rule,
)
from repro.errors import NoMatchingRuleError, OverlappingRulesError
from repro.fuzz.reference import NaiveEnv
from repro.obs import ResolutionStats, collecting


class TestHeadSymbol:
    def test_constructors_carry_name_and_arity(self):
        assert head_symbol(INT) == ("con", "Int", 0)
        assert head_symbol(pair(INT, BOOL)) == ("con", "Pair", 2)
        assert head_symbol(INT) != head_symbol(BOOL)

    def test_function_types_share_one_symbol(self):
        assert head_symbol(TFun(INT, BOOL)) == head_symbol(TFun(STRING, STRING))

    def test_rigid_variables_are_distinguished_by_name(self):
        assert head_symbol(TVar("a")) is not None
        assert head_symbol(TVar("a")) != head_symbol(TVar("b"))

    def test_flexible_variables_have_no_symbol(self):
        assert head_symbol(TVar("a"), frozenset({"a"})) is None
        assert head_symbol(TVar("a"), frozenset({"b"})) is not None

    def test_rule_types_bucket_by_shape(self):
        r1 = rule(INT, [BOOL])
        r2 = rule(BOOL, [STRING])
        r3 = rule(INT, [BOOL, STRING])
        assert head_symbol(r1) == head_symbol(r2)
        assert head_symbol(r1) != head_symbol(r3)


def _candidates(compiled: CompiledFrame, tau) -> list[int]:
    tokens = type_query_tokens(tau)
    return compiled.trie.retrieve(tokens, token_extents(tokens))


class TestMergePositions:
    def test_merges_sorted_and_preserves_order(self):
        # Rigid candidates and flex-headed rules come back as one list
        # in entry order, whichever of the two groups is empty.
        a = TVar("a")
        flex = rule(a, [INT], ["a"])
        mixed = CompiledFrame(
            tuple(RuleEntry(r) for r in (flex, INT, INT, flex, BOOL, INT))
        )
        assert _candidates(mixed, INT) == [0, 1, 2, 3, 5]
        assert _candidates(CompiledFrame((RuleEntry(flex),) * 2), INT) == [0, 1]
        rigid = CompiledFrame((RuleEntry(BOOL), RuleEntry(INT), RuleEntry(INT)))
        assert _candidates(rigid, INT) == [1, 2]


class TestFrameIndex:
    def test_buckets_by_rigid_head_and_flex(self):
        a = TVar("a")
        frame = (
            RuleEntry(INT),                        # 0: rigid Int
            RuleEntry(rule(a, [INT], ["a"])),      # 1: flex (variable head)
            RuleEntry(rule(pair(a, a), [a], ["a"])),  # 2: rigid Pair/2
            RuleEntry(BOOL),                       # 3: rigid Bool
        )
        compiled = CompiledFrame(frame)
        # Candidates are the rules whose head skeleton fits, plus the
        # flex rule, in entry order.
        assert _candidates(compiled, INT) == [0, 1]
        assert _candidates(compiled, pair(INT, BOOL)) == [1, 2]
        # Unknown symbols still reach the flex rule.
        assert _candidates(compiled, STRING) == [1]

    def test_indexes_are_shared_structurally_on_push(self):
        env = ImplicitEnv.empty().push([INT]).push([BOOL])
        child = env.push([STRING])
        shared = child.compiled_frames()[:2]
        assert all(x is y for x, y in zip(shared, env.compiled_frames()))
        assert len(child.compiled_frames()) == 3


@pytest.fixture
def wideish_env():
    a = TVar("a")
    return ImplicitEnv.empty().push(
        [
            INT,
            BOOL,
            rule(pair(a, a), [a], ["a"]),
            rule(a, [STRING], ["a"]),  # flex-headed: matches anything
            TFun(INT, INT),
        ]
    )


class TestIndexedLookupEquivalence:
    @pytest.mark.parametrize(
        "query", [INT, BOOL, pair(INT, INT), TFun(INT, INT), rule(INT, [BOOL])]
    )
    def test_same_result_with_and_without_index(self, wideish_env, query):
        policy = OverlapPolicy.MOST_SPECIFIC
        indexed = wideish_env.lookup(query, policy)
        naive = NaiveEnv.of(wideish_env).lookup(query, policy)
        assert indexed.entry is naive.entry
        assert indexed == naive

    def test_same_failure_message_on_no_match(self):
        env = ImplicitEnv.empty().push([INT])
        with pytest.raises(NoMatchingRuleError) as e_indexed:
            env.lookup(BOOL)
        with pytest.raises(NoMatchingRuleError) as e_naive:
            NaiveEnv.of(env).lookup(BOOL)
        assert str(e_indexed.value) == str(e_naive.value)

    def test_same_overlap_error_in_entry_order(self):
        a = TVar("a")
        env = ImplicitEnv.empty().push(
            [rule(pair(a, a), [a], ["a"]), pair(INT, INT)]
        )
        with pytest.raises(OverlappingRulesError) as e_indexed:
            env.lookup(pair(INT, INT))
        with pytest.raises(OverlappingRulesError) as e_naive:
            NaiveEnv.of(env).lookup(pair(INT, INT))
        assert str(e_indexed.value) == str(e_naive.value)

    def test_flex_headed_rules_are_never_pruned(self):
        a = TVar("a")
        env = ImplicitEnv.empty().push([rule(a, [INT], ["a"]), INT])
        # STRING only matches the variable-headed rule.
        result = env.lookup(STRING)
        assert result.entry.rho == rule(a, [INT], ["a"])

    def test_lookup_all_agrees(self, wideish_env):
        indexed = list(wideish_env.lookup_all(pair(INT, INT)))
        naive = list(NaiveEnv.of(wideish_env).lookup_all(pair(INT, INT)))
        assert indexed == naive
        assert [m.entry for m in indexed] == [m.entry for m in naive]


class TestCountersAndToggle:
    def test_index_counters_record_pruned_candidates(self, wideish_env):
        stats = ResolutionStats()
        with collecting(stats):
            wideish_env.lookup(INT, OverlapPolicy.MOST_SPECIFIC)
        # One frame consulted; candidates are Int plus the flex rule, the
        # other three entries are pruned without a matching attempt.  The
        # compiled matchers bind without unification, leaving one
        # instance check inside the most-specific decision (its converse
        # direction is pruned by the head-symbol check).
        assert stats.compiled_hits == 1
        assert stats.candidates_pruned == 3
        assert stats.unify_calls == 1

    def test_naive_scan_records_no_index_counters(self, wideish_env):
        stats = ResolutionStats()
        with collecting(stats):
            NaiveEnv.of(wideish_env).lookup(INT, OverlapPolicy.MOST_SPECIFIC)
        assert stats.compiled_hits == 0
        assert stats.candidates_pruned == 0
        assert stats.unify_calls == 6  # five scan attempts + one instance check
