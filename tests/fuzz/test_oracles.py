"""Unit tests for the oracle matrix: classification and fault wiring.

The smoke test (`test_fuzz_smoke.py`) establishes that the oracles
*agree* at scale; these tests pin the harness mechanics instead -- that
each oracle really runs both engines, classifies correctly, and that
fault injection flips exactly the targeted oracle.
"""

from __future__ import annotations

import pytest

from repro.core.types import CHAR, INT, TVar, pair, rule
from repro.core.builders import ask, crule
from repro.core.terms import IntLit, PairE
from repro.fuzz import (
    FuzzCase,
    OracleContext,
    generate_case,
    generate_corpus,
    inject_fault,
    oracle_names,
)
from repro.fuzz.oracles import ORACLES, classify, Outcome


@pytest.fixture(scope="module")
def ctx():
    with OracleContext() as context:
        yield context


def _case(frames, query, overlapping=False):
    return FuzzCase(
        seed=0, index=0, frames=frames, query=query, overlapping=overlapping
    )


@pytest.fixture
def resolvable():
    """``{Int; forall a.{a} => (a,a)} |- (Int, Int)`` -- resolves."""
    a = TVar("a")
    rho = rule(pair(a, a), [a], ["a"])
    poly = crule(rho, PairE(ask(a), ask(a)))
    return _case(((( IntLit(3), INT), (poly, rho)),), pair(INT, INT))


@pytest.fixture
def unresolvable():
    """``{Int} |- Char`` -- fails on both sides of every pair."""
    return _case((((IntLit(3), INT),),), CHAR)


class TestClassification:
    def test_equal_ok_outcomes_agree(self):
        v = classify("x", Outcome("ok", 1), Outcome("ok", 1))
        assert v.classification == "agree"
        assert not v.disagrees

    def test_equal_failures_are_both_fail(self):
        v = classify("x", Outcome("fail", "E"), Outcome("fail", "E"))
        assert v.classification == "both_fail"

    def test_any_difference_disagrees(self):
        assert classify("x", Outcome("ok", 1), Outcome("ok", 2)).disagrees
        assert classify("x", Outcome("ok", 1), Outcome("fail", "E")).disagrees
        assert classify("x", Outcome("fail", "A"), Outcome("fail", "B")).disagrees


class TestOracleMatrix:
    def test_matrix_has_at_least_five_engine_pairs(self):
        assert set(oracle_names()) >= {
            "compiled",
            "cache",
            "logic",
            "semantics",
            "service",
        }
        assert set(oracle_names()) >= {"alpha", "permute", "lint"}

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_resolvable_case_agrees(self, name, resolvable, ctx):
        verdict = ORACLES[name](resolvable, ctx)
        assert verdict.classification == "agree", verdict.as_dict()

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_unresolvable_case_never_disagrees(self, name, unresolvable, ctx):
        verdict = ORACLES[name](unresolvable, ctx)
        assert not verdict.disagrees, verdict.as_dict()

    def test_overlap_fails_identically_everywhere(self, ctx):
        case = _case(
            (((IntLit(1), INT), (IntLit(2), INT)),), INT, overlapping=True
        )
        for name in ("compiled", "cache", "semantics", "service"):
            verdict = ORACLES[name](case, ctx)
            assert verdict.classification == "both_fail", (
                name,
                verdict.as_dict(),
            )

    def test_logic_oracle_is_one_sided(self, ctx):
        # Overlap: deterministic resolution rejects, backchaining still
        # finds a proof.  Theorem 1 claims only the forward implication,
        # so this must classify as agreement, not disagreement.
        case = _case(
            (((IntLit(1), INT), (IntLit(2), INT)),), INT, overlapping=True
        )
        verdict = ORACLES["logic"](case, ctx)
        assert verdict.classification == "agree"
        assert verdict.left.status == "fail"
        assert verdict.note == "entailment over-approximates"


class TestFaultInjection:
    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_fault_flips_only_the_targeted_oracle(self, name, resolvable, ctx):
        with inject_fault(name):
            assert ORACLES[name](resolvable, ctx).disagrees
            for other in ORACLES:
                if other != name:
                    assert not ORACLES[other](resolvable, ctx).disagrees

    def test_fault_does_not_touch_failing_cases(self, unresolvable, ctx):
        # The fault corrupts successes; a case both engines reject is
        # reported identically with or without it.
        with inject_fault("cache"):
            assert ORACLES["cache"](unresolvable, ctx).classification == (
                "both_fail"
            )

    def test_fault_scope_is_lexical(self, resolvable, ctx):
        with inject_fault("cache"):
            assert ORACLES["cache"](resolvable, ctx).disagrees
        assert ORACLES["cache"](resolvable, ctx).classification == "agree"


class TestGeneratedCorpusProperties:
    def test_signatures_are_alpha_invariant_across_corpus(self, ctx):
        # A tighter loop than the smoke test: the alpha oracle on 60
        # cases of an unrelated seed, checked individually for a
        # readable failure.
        for case in generate_corpus(23, 60):
            verdict = ORACLES["alpha"](case, ctx)
            assert not verdict.disagrees, (case.as_json(), verdict.as_dict())

    def test_service_oracle_closes_its_sessions(self, ctx):
        service = ctx.service()
        before = ctx._session_counter
        for case in generate_corpus(29, 10):
            ORACLES["service"](case, ctx)
        assert ctx._session_counter == before + 10
        # All per-case sessions were closed again.
        response = service.handle_sync({"id": 1, "op": "session/list"})
        if response.get("ok"):  # op exists: assert none of ours leaked
            names = response["result"].get("sessions", [])
            assert not [n for n in names if str(n).startswith("fuzz-")]

    def test_generated_case_example_still_resolves(self, ctx):
        case = generate_case(0, 0)
        assert ORACLES["compiled"](case, ctx).classification == "agree"


class TestCorecursiveOracle:
    """The 12th oracle: fuel-bounded search vs the corecursive engine."""

    def test_augmentation_is_deterministic(self, resolvable):
        from repro.fuzz.gen import augment_recursive

        first = augment_recursive(resolvable)
        second = augment_recursive(resolvable)
        assert first.frames == second.frames
        assert first.query == second.query
        # The recursive frame is appended; the base case is untouched.
        assert first.frames[: len(resolvable.frames)] == resolvable.frames

    def test_cycle_closure_refines_fuel_divergence(self, ctx):
        # The flagship env: fuel diverges, corecursion closes the loop.
        from repro.core.types import TCon, list_of

        a = TVar("a")
        eq = lambda t: TCon("Eq", (t,))  # noqa: E731
        rho = rule(eq(list_of(a)), [eq(a), eq(list_of(a))], ["a"])
        case = _case(
            (
                ((IntLit(0), eq(INT)), (crule(rho, ask(eq(list_of(a)))), rho)),
            ),
            eq(list_of(INT)),
        )
        verdict = ORACLES["corecursive"](case, ctx)
        assert verdict.classification == "agree", verdict.as_dict()

    def test_guard_disabled_engine_is_caught_by_revalidation(self, resolvable, ctx):
        # Disabling the engine guard lets the canary's bare self-loop
        # close; the engine-independent revalidation rejects the
        # resulting evidence, and that surfaces as a disagreement.
        from repro.core.resolution import corec_guard

        with corec_guard(False):
            verdict = ORACLES["corecursive"](resolvable, ctx)
        assert verdict.disagrees
        assert verdict.right.detail == "UnguardedCycleEvidence"

    def test_guard_is_restored_after_the_fault(self, resolvable, ctx):
        with inject_fault("corecursive"):
            ORACLES["corecursive"](resolvable, ctx)
        from repro.core.resolution import _corec_guard_enabled

        assert _corec_guard_enabled
        assert ORACLES["corecursive"](resolvable, ctx).classification == "agree"
