"""The delta-debugging shrinker: minimality, determinism, soundness."""

from __future__ import annotations

import pytest

from repro.fuzz import (
    OracleContext,
    generate_case,
    inject_fault,
    run_fuzz,
    shrink_case,
)
from repro.fuzz.oracles import ORACLES


@pytest.fixture(scope="module")
def ctx():
    with OracleContext() as context:
        yield context


def _first_disagreement(oracle, seed=0, cases=30):
    """The first case the faulted ``oracle`` disagrees on (unshrunk)."""
    with inject_fault(oracle), OracleContext() as ctx:
        for index in range(cases):
            case = generate_case(seed, index)
            if ORACLES[oracle](case, ctx).disagrees:
                return case
    raise AssertionError("no disagreeing case found")


class TestShrinking:
    @pytest.mark.parametrize("oracle", ["index", "cache", "semantics", "service"])
    def test_faulted_disagreement_shrinks_to_at_most_3_rules(self, oracle):
        case = _first_disagreement(oracle)
        with inject_fault(oracle), OracleContext() as ctx:
            shrunk, steps = shrink_case(case, ORACLES[oracle], ctx)
            assert shrunk.rule_count() <= 3
            assert shrunk.rule_count() <= case.rule_count()
            # Still a counterexample after minimization.
            assert ORACLES[oracle](shrunk, ctx).disagrees
        if case.rule_count() > shrunk.rule_count():
            assert steps > 0

    def test_shrinking_is_deterministic(self):
        case = _first_disagreement("cache")
        results = []
        for _ in range(2):
            with inject_fault("cache"), OracleContext() as ctx:
                shrunk, steps = shrink_case(case, ORACLES["cache"], ctx)
                results.append((shrunk.as_json(), steps))
        assert results[0] == results[1]

    def test_shrunk_case_is_a_fixpoint(self):
        case = _first_disagreement("cache")
        with inject_fault("cache"), OracleContext() as ctx:
            once, _ = shrink_case(case, ORACLES["cache"], ctx)
            twice, steps = shrink_case(once, ORACLES["cache"], ctx)
            assert twice.as_json() == once.as_json()
            assert steps == 0

    def test_agreeing_case_shrinks_nowhere(self, ctx):
        # Without a fault nothing disagrees, so every candidate is
        # rejected and the case comes back unchanged.
        case = generate_case(0, 0)
        shrunk, steps = shrink_case(case, ORACLES["cache"], ctx)
        assert shrunk.as_json() == case.as_json()
        assert steps == 0


class TestArtifacts:
    def test_fault_run_writes_replayable_artifact(self, tmp_path):
        from repro.fuzz import load_artifact, replay_artifact

        with inject_fault("cache"):
            report = run_fuzz(
                0,
                20,
                oracles=["cache"],
                artifact_dir=str(tmp_path),
            )
        assert report.disagreements
        first = report.disagreements[0]
        assert first.shrunk.rule_count() <= 3
        assert first.artifact_path is not None
        payload = load_artifact(first.artifact_path)
        assert payload["fault"] == "cache"
        assert payload["oracle"] == "cache"
        assert payload["verdict"]["classification"] == "disagree"
        # Replay restores the fault from the artifact itself.
        result = replay_artifact(payload)
        assert result.reproduced
        # ... and reproduces identically a second time.
        again = replay_artifact(payload)
        assert again.verdict == result.verdict

    def test_no_shrink_mode_keeps_the_original(self):
        with inject_fault("cache"):
            report = run_fuzz(0, 20, oracles=["cache"], shrink=False)
        assert report.disagreements
        d = report.disagreements[0]
        assert d.shrunk.as_json() == d.case.as_json()
        assert d.shrink_steps == 0


class TestRunner:
    def test_clean_run_reports_ok(self):
        report = run_fuzz(0, 25)
        assert report.ok
        assert report.cases_run == 25
        assert report.comparisons == 25 * len(report.oracles)
        assert report.agreements + report.both_failed == report.comparisons

    def test_unknown_oracle_is_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            run_fuzz(0, 1, oracles=["nonesuch"])

    def test_budget_truncates_cleanly(self):
        report = run_fuzz(0, 10_000, budget_s=0.0)
        assert report.budget_exhausted
        assert report.cases_run < 10_000
        assert report.ok

    def test_counters_thread_through_stats(self):
        from repro.obs import ResolutionStats, collecting

        stats = ResolutionStats()
        with collecting(stats), inject_fault("cache"):
            run_fuzz(0, 20, oracles=["cache"])
        assert stats.fuzz_cases == 20
        assert stats.fuzz_disagreements > 0
        assert stats.fuzz_shrink_steps > 0
