"""Unit tests for the resolution judgment (rule TyRes) -- experiments E3, E9."""

import pytest

from repro.errors import (
    NoMatchingRuleError,
    ResolutionDivergenceError,
)
from repro.core.env import ImplicitEnv, RuleEntry
from repro.core.resolution import (
    ByAssumption,
    ByResolution,
    ResolutionStrategy,
    Resolver,
    resolvable,
    resolve,
)
from repro.core.types import BOOL, CHAR, INT, TCon, TVar, pair, rule

A = TVar("a")


class TestSimpleResolution:
    """E3: ``Int; forall a.{a} => a*a |-r Int*Int`` (recursive querying)."""

    def test_example_resolves(self, pair_env):
        derivation = resolve(pair_env, pair(INT, INT))
        assert derivation.size() == 2  # pair rule, then Int

    def test_size_is_memoized_and_survives_replace(self, pair_env):
        from dataclasses import replace

        derivation = resolve(pair_env, pair(pair(INT, INT), pair(INT, INT)), cache=None)
        assert derivation.size() == 3
        assert derivation._size == 3
        # The memo is no field: equality, repr and replace() ignore it.
        copy = replace(derivation)
        assert copy == derivation
        assert copy._size is None and copy.size() == 3
        assert "_size" not in repr(derivation)

    def test_recursion_structure(self, pair_env):
        derivation = resolve(pair_env, pair(INT, INT))
        (premise,) = derivation.premises
        assert isinstance(premise, ByResolution)
        assert premise.derivation.head == INT

    def test_base_case(self, pair_env):
        derivation = resolve(pair_env, INT)
        assert derivation.premises == ()

    def test_failure_reports_missing_type(self, pair_env):
        with pytest.raises(NoMatchingRuleError):
            resolve(pair_env, BOOL)

    def test_recursive_failure(self):
        # {Bool} => Int with no Bool in scope: first step matches, the
        # recursive step fails (extended report, "Lookup Failures").
        env = ImplicitEnv.empty().push([rule(INT, [BOOL])])
        with pytest.raises(NoMatchingRuleError):
            resolve(env, INT)


class TestRuleResolution:
    """E3: the same environment answers ``{Int} => Int*Int`` without
    recursion (rule-type queries match contexts exactly)."""

    def test_rule_query_no_recursion(self, pair_env):
        derivation = resolve(pair_env, rule(pair(INT, INT), [INT]))
        assert derivation.size() == 1
        (premise,) = derivation.premises
        assert isinstance(premise, ByAssumption)
        assert premise.token.rho == INT

    def test_polymorphic_rule_query(self, pair_env):
        # ?(forall a . {a} => a * a) resolves against the rule itself.
        rho = rule(pair(A, A), [A], ["a"])
        derivation = resolve(pair_env, rho)
        assert derivation.size() == 1


class TestPartialResolution:
    """E3: ``Bool; forall a.{Bool,a} => a*a |-r {Int} => Int*Int``:
    ``Bool`` is resolved eagerly, ``Int`` stays an assumption."""

    def test_partial(self, partial_env):
        derivation = resolve(partial_env, rule(pair(INT, INT), [INT]))
        kinds = {type(p) for p in derivation.premises}
        assert kinds == {ByAssumption, ByResolution}
        resolved = [
            p.derivation.head for p in derivation.premises if isinstance(p, ByResolution)
        ]
        assert resolved == [BOOL]

    def test_partial_requires_assumption_match(self, partial_env):
        # Query assuming String: Bool resolved, Int NOT available.
        with pytest.raises(NoMatchingRuleError):
            resolve(partial_env, rule(pair(INT, INT), [TCon("String")]))


class TestNoBacktracking:
    """Section 3.2 "Semantic Resolution": TyRes commits to the nearest
    head match and does not backtrack."""

    def test_stuck_on_topmost(self, backtracking_env):
        assert not resolvable(backtracking_env, INT)

    def test_entailment_nevertheless_holds(self, backtracking_env):
        from repro.logic import env_entails

        assert env_entails(backtracking_env, INT)

    def test_backtracking_strategy_resolves(self, backtracking_env):
        derivation = resolve(
            backtracking_env, INT, strategy=ResolutionStrategy.BACKTRACKING
        )
        # Falls back to {Char} => Int and then Char.
        assert derivation.size() == 2


class TestExtendingStrategy:
    """E9: the displayed EXTENDING rule proves {A}=>B from {C}=>B, {A}=>C."""

    def setup_method(self):
        X, Y, Z = TCon("X"), TCon("Y"), TCon("Z")
        self.X, self.Y, self.Z = X, Y, Z
        self.env = ImplicitEnv.empty().push([rule(Y, [Z]), rule(Z, [X])])
        self.query = rule(Y, [X])

    def test_syntactic_fails(self):
        assert not resolvable(self.env, self.query)

    def test_extending_succeeds(self):
        assert resolvable(self.env, self.query, strategy=ResolutionStrategy.EXTENDING)

    def test_backtracking_succeeds(self):
        assert resolvable(
            self.env, self.query, strategy=ResolutionStrategy.BACKTRACKING
        )

    def test_paper_example_erratum(self, backtracking_env):
        # The paper claims the extending rule resolves
        # Char; {Char}=>Int; {Bool}=>Int |-r {Char}=>Int, but the displayed
        # rule still commits to the nearest head match ({Bool}=>Int) and
        # fails; only backtracking resolves it.  See DESIGN.md.
        query = rule(INT, [CHAR])
        assert not resolvable(backtracking_env, query)
        assert not resolvable(
            backtracking_env, query, strategy=ResolutionStrategy.EXTENDING
        )
        assert resolvable(
            backtracking_env, query, strategy=ResolutionStrategy.BACKTRACKING
        )


class TestDivergence:
    def test_mutual_recursion_diverges(self):
        # Appendix: { {Char}=>Int, {Int}=>Char } |-r Int loops.
        env = ImplicitEnv.empty().push([rule(INT, [CHAR]), rule(CHAR, [INT])])
        with pytest.raises(ResolutionDivergenceError):
            resolve(env, INT)

    def test_fuel_is_configurable(self):
        env = ImplicitEnv.empty().push([rule(INT, [CHAR]), rule(CHAR, [INT])])
        with pytest.raises(ResolutionDivergenceError):
            Resolver(fuel=8).resolve(env, INT)

    def test_divergence_not_masked_by_backtracking(self):
        env = ImplicitEnv.empty().push([rule(INT, [CHAR]), rule(CHAR, [INT])])
        with pytest.raises(ResolutionDivergenceError):
            resolve(env, INT, strategy=ResolutionStrategy.BACKTRACKING)


class TestDerivationShape:
    def test_lookup_payload_surfaces(self, pair_env):
        env = ImplicitEnv.empty().push([RuleEntry(INT, payload="evidence")])
        derivation = resolve(env, INT)
        assert derivation.lookup.payload == "evidence"

    def test_assumption_tokens_are_identity(self):
        rho = rule(INT, [BOOL])
        env = ImplicitEnv.empty().push([rho])
        # Uncached resolution mints fresh tokens per derivation (the
        # memoized facade may legitimately share one tree across calls).
        d1 = resolve(env, rho, cache=None)
        d2 = resolve(env, rho, cache=None)
        assert d1.assumptions[0] is not d2.assumptions[0]
        # Tokens compare by identity, never by field value.
        assert d1.assumptions[0] != d2.assumptions[0]
