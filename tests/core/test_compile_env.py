"""Unit tests for the compiled environment matchers.

The differential guarantees (compiled == the naive reference scan on
random environments, under both overlap policies) live in
``tests/property/test_property_compile.py`` and the ``compiled`` fuzz
oracle; this module pins the compilation machinery itself -- token
streams, extents, trie retrieval, the three matcher kinds, the
corruption hook, the counters and the ownership of compiled frames
(shared on ``push``, built on first lookup).
"""

from __future__ import annotations

import pytest

from repro.core import BOOL, CHAR, INT, ImplicitEnv, TFun, TVar, pair, rule
from repro.core.compile_env import (
    STAR,
    CompiledFrame,
    DiscriminationTrie,
    corrupt_tries,
    token_extents,
    type_pattern_tokens,
    type_query_tokens,
)
from repro.core.env import OverlapPolicy, RuleEntry
from repro.errors import (
    AmbiguousRuleTypeError,
    NoMatchingRuleError,
    OverlappingRulesError,
)
from repro.fuzz.reference import NaiveEnv
from repro.obs import ResolutionStats, collecting


a = TVar("a")
b = TVar("b")


# ---------------------------------------------------------------------------
# Token streams and extents.
# ---------------------------------------------------------------------------


def test_pattern_tokens_star_bound_variables_only():
    tokens = type_pattern_tokens(pair(a, TFun(INT, b)), frozenset({"a"}))
    # Pair(2), *, ->(2), Int(0), v:b(0) -- only the *bound* variable stars.
    assert len(tokens) == 5
    assert tokens[1] is STAR
    assert tokens[0][1] == 2 and tokens[2][1] == 2
    assert tokens[3][1] == 0 and tokens[4] == (("v", "b"), 0)


def test_query_tokens_have_no_stars_and_mirror_patterns():
    tau = pair(INT, TFun(BOOL, CHAR))
    query = type_query_tokens(tau)
    assert all(tok is not STAR for tok in query)
    # A pattern with no bound variables tokenizes identically.
    assert type_pattern_tokens(tau, frozenset()) == query


def test_rule_type_queries_are_opaque_leaves():
    rho = rule(INT, [BOOL], [])
    tokens = type_query_tokens(pair(rho, INT))
    assert tokens[1] == (("r", 0, 1), 0)


def test_token_extents_span_whole_subterms():
    tokens = type_query_tokens(pair(INT, pair(BOOL, INT)))
    # Pair Int Pair Bool Int
    assert token_extents(tokens) == [5, 2, 5, 4, 5]


# ---------------------------------------------------------------------------
# Trie retrieval: over-approximating, never under-approximating.
# ---------------------------------------------------------------------------


def _trie_for(heads_and_bounds):
    trie = DiscriminationTrie()
    for pos, (head, bound) in enumerate(heads_and_bounds):
        trie.insert(type_pattern_tokens(head, frozenset(bound)), pos)
    return trie


def _retrieve(trie, tau):
    tokens = type_query_tokens(tau)
    return trie.retrieve(tokens, token_extents(tokens))


def test_trie_exact_star_and_miss():
    trie = _trie_for(
        [
            (INT, ()),  # 0: ground
            (pair(a, a), ("a",)),  # 1: stars under Pair
            (pair(INT, BOOL), ()),  # 2: rigid Pair
            (TFun(a, INT), ("a",)),  # 3: function head
        ]
    )
    assert _retrieve(trie, INT) == [0]
    assert _retrieve(trie, pair(INT, BOOL)) == [1, 2]
    assert _retrieve(trie, pair(pair(INT, INT), BOOL)) == [1]
    assert _retrieve(trie, TFun(BOOL, INT)) == [3]
    assert _retrieve(trie, CHAR) == []


def test_trie_retrieval_is_sorted_entry_order():
    heads = [(pair(a, b), ("a", "b")), (pair(INT, INT), ()), (pair(a, a), ("a",))]
    trie = _trie_for(heads)
    assert _retrieve(trie, pair(INT, INT)) == [0, 1, 2]


# ---------------------------------------------------------------------------
# The three matcher kinds.
# ---------------------------------------------------------------------------


def _frame(*rhos):
    return tuple(RuleEntry(rho) for rho in rhos)


def test_ground_rule_matches_by_identity():
    frame = _frame(INT)
    compiled = CompiledFrame(frame)
    assert compiled.rules[0].kind == "ground"
    [(pos, result)] = compiled.matches(INT)
    assert pos == 0 and result.entry is frame[0]
    assert result.head is INT and result.context == ()
    assert compiled.matches(BOOL) == []


def test_ground_rule_with_undetermined_variable_is_ambiguous():
    # forall a. {a} => Int: matching Int leaves `a` undetermined -- the
    # compiled path must raise exactly what the naive scan raises.
    rho = rule(INT, [a], ["a"])
    env = ImplicitEnv.empty().push([rho])
    with pytest.raises(AmbiguousRuleTypeError) as interpreted:
        NaiveEnv.of(env).lookup(INT)
    with pytest.raises(AmbiguousRuleTypeError) as compiled:
        env.lookup(INT)
    assert str(compiled.value) == str(interpreted.value)


def test_extract_rule_binds_and_checks_repeats():
    frame = _frame(rule(pair(a, a), [a], ["a"]))
    compiled = CompiledFrame(frame)
    assert compiled.rules[0].kind == "extract"
    [(_, result)] = compiled.matches(pair(INT, INT))
    assert result.type_args == (INT,)
    assert result.context == (INT,)
    assert result.head is pair(INT, INT)
    # Repeated-occurrence check rejects Pair Int Bool.
    assert compiled.matches(pair(INT, BOOL)) == []


def test_extract_rule_constant_context_is_precomputed():
    frame = _frame(rule(TFun(a, a), [INT], ["a"]))
    compiled = CompiledFrame(frame)
    [(_, r1)] = compiled.matches(TFun(BOOL, BOOL))
    [(_, r2)] = compiled.matches(TFun(CHAR, CHAR))
    assert r1.context is r2.context  # the precomputed constant tuple


def test_rule_type_heads_fall_back_to_generic():
    inner = rule(INT, [BOOL], [])
    frame = _frame(rule(pair(inner, a), [a], ["a"]))
    compiled = CompiledFrame(frame)
    assert compiled.rules[0].kind == "generic"
    [(_, result)] = compiled.matches(pair(inner, INT))
    assert result.entry is frame[0]


# ---------------------------------------------------------------------------
# Whole-environment lookup, corruption, counters.
# ---------------------------------------------------------------------------


def test_compiled_lookup_matches_interpreted_choices():
    env = (
        ImplicitEnv.empty()
        .push([INT, rule(pair(a, a), [a], ["a"])])
        .push([rule(pair(INT, INT), [], [])])
    )
    naive = NaiveEnv.of(env)
    tau = pair(INT, INT)
    assert env.lookup(tau).entry is naive.lookup(tau).entry
    with pytest.raises(NoMatchingRuleError) as exc:
        env.lookup(CHAR)
    with pytest.raises(NoMatchingRuleError) as interpreted:
        naive.lookup(CHAR)
    assert str(exc.value) == str(interpreted.value)


def test_overlap_policies_agree_with_interpreted():
    env = ImplicitEnv.empty().push(
        [rule(pair(a, b), [], ["a", "b"]), rule(pair(INT, INT), [], [])]
    )
    naive = NaiveEnv.of(env)
    tau = pair(INT, INT)
    with pytest.raises(OverlappingRulesError) as left:
        env.lookup(tau, OverlapPolicy.REJECT)
    with pytest.raises(OverlappingRulesError) as right:
        naive.lookup(tau, OverlapPolicy.REJECT)
    assert str(left.value) == str(right.value)
    winner = env.lookup(tau, OverlapPolicy.MOST_SPECIFIC)
    expected = naive.lookup(tau, OverlapPolicy.MOST_SPECIFIC)
    assert winner.entry is expected.entry
    # The decision is memoized; a second query takes the memo path.
    again = env.lookup(tau, OverlapPolicy.MOST_SPECIFIC)
    assert again.entry is expected.entry


def test_corruption_drops_candidates():
    env = ImplicitEnv.empty().push([INT])
    assert env.lookup(INT).entry is env.frames()[0][0]
    with corrupt_tries():
        with pytest.raises(NoMatchingRuleError):
            env.lookup(INT)
    # And back to normal once the scope closes.
    assert env.lookup(INT).entry is env.frames()[0][0]


def test_compiled_counters_and_fallbacks():
    inner = rule(INT, [BOOL], [])
    env = ImplicitEnv.empty().push([INT, rule(pair(inner, a), [a], ["a"])])
    stats = ResolutionStats()
    with collecting(stats):
        env.lookup(INT)
        env.lookup(pair(inner, INT))
    assert stats.compiled_hits >= 2
    assert stats.compiled_fallbacks >= 1  # the generic rule was consulted
    assert stats.candidates_pruned >= 1  # Int never reaches the Pair rule


# ---------------------------------------------------------------------------
# Ownership: compiled frames live in the environment.
# ---------------------------------------------------------------------------


def test_env_memo_returns_same_artifact_and_shares_frames():
    base = ImplicitEnv.empty().push([INT, BOOL])
    extended = base.push([CHAR])
    assert base.compiled_frames() is base.compiled_frames()
    # `push` shares the parent's compiled frames by reference, so
    # compiling the extension does not recompile the base.
    assert extended.compiled_frames()[0] is base.compiled_frames()[0]
    extended.lookup(INT)
    assert base.compiled_frames()[0]._code is not None


def test_frame_memo_is_identity_keyed():
    one = ImplicitEnv.empty().push(_frame(INT, BOOL))
    other = ImplicitEnv.empty().push(_frame(INT, BOOL))
    # Equal-but-distinct frames get their own artifacts: results carry
    # each environment's own entry objects.
    assert one.compiled_frames()[0] is not other.compiled_frames()[0]
    assert one.lookup(INT).entry is one.frames()[0][0]
    assert other.lookup(INT).entry is other.frames()[0][0]
    assert one.frames()[0][0] is not other.frames()[0][0]


def test_frames_compile_on_first_lookup_only():
    outer = ImplicitEnv.empty().push([INT])
    env = outer.push([BOOL])
    assert all(c._code is None for c in env.compiled_frames())
    # The inner frame answers; the outer frame is never consulted.
    env.lookup(BOOL)
    inner_code = env.compiled_frames()[1]._code
    assert inner_code is not None
    assert env.compiled_frames()[0]._code is None
    env.lookup(INT)
    assert env.compiled_frames()[0]._code is not None
    assert env.compiled_frames()[1]._code is inner_code
