"""Direct unit tests for the session journal's fold/compact semantics."""

from __future__ import annotations

import json

import pytest

from repro.core.env import OverlapPolicy
from repro.core.resolution import ResolutionStrategy
from repro.pipeline import Semantics
from repro.store.journal import SessionJournal, config_doc, config_from_doc


@pytest.fixture
def journal(tmp_path):
    j = SessionJournal(str(tmp_path / "sessions.log"))
    yield j
    j.close()


class TestReplayFolding:
    def test_lifecycle_folds_to_surviving_frames(self, journal):
        journal.record_new("a", None, ["Int"])
        journal.record_push("a", ["Bool"])
        journal.record_push("a", ["Char"])
        journal.record_pop("a")
        state = journal.replay()
        assert sorted(state) == ["a"]
        assert state["a"].frames == [["Int"], ["Bool"]]
        assert state["a"].config is None

    def test_new_without_rules_starts_with_no_frames(self, journal):
        journal.record_new("a", None, [])
        assert journal.replay()["a"].frames == []

    def test_close_drops_the_session(self, journal):
        journal.record_new("a", None, ["Int"])
        journal.record_close("a")
        assert journal.replay() == {}

    def test_renewed_name_forgets_the_old_frames(self, journal):
        journal.record_new("a", None, ["Int"])
        journal.record_push("a", ["Bool"])
        journal.record_new("a", None, ["Char"])
        assert journal.replay()["a"].frames == [["Char"]]

    def test_events_for_unknown_sessions_are_ignored(self, journal):
        journal.record_push("ghost", ["Int"])
        journal.record_pop("ghost")
        journal.record_close("ghost")
        journal.record_new("a", None, ["Int"])
        state = journal.replay()
        assert sorted(state) == ["a"]

    def test_pop_below_the_bottom_frame_is_ignored(self, journal):
        journal.record_new("a", None, [])
        journal.record_pop("a")
        journal.record_pop("a")
        assert journal.replay()["a"].frames == []


class TestDamageTolerance:
    def test_non_json_event_is_skipped(self, journal):
        journal.record_new("a", None, ["Int"])
        journal.log.append(b"\x00 not json at all")
        journal.record_push("a", ["Bool"])
        state = journal.replay()
        assert state["a"].frames == [["Int"], ["Bool"]]

    def test_json_event_missing_required_keys_is_skipped(self, journal):
        journal.record_new("a", None, ["Int"])
        journal.log.append(json.dumps({"rules": ["Bool"]}).encode())
        journal.log.append(json.dumps({"op": "push"}).encode())
        assert journal.replay()["a"].frames == [["Int"]]

    def test_unknown_op_is_ignored_not_fatal(self, journal):
        journal.record_new("a", None, ["Int"])
        journal.log.append(
            json.dumps({"op": "frobnicate", "name": "a"}).encode()
        )
        assert journal.replay()["a"].frames == [["Int"]]


class TestRewrite:
    def test_rewrite_is_replay_idempotent(self, tmp_path):
        path = str(tmp_path / "sessions.log")
        journal = SessionJournal(path)
        journal.record_new("b", None, ["Int"])
        journal.record_push("b", ["Bool"])
        journal.record_new("a", {"fuel": 7}, [])
        journal.record_push("a", ["Char"])
        journal.record_pop("a")
        journal.record_close("gone")
        state = journal.replay()
        journal.rewrite(state)
        journal.close()

        reopened = SessionJournal(path)
        try:
            again = reopened.replay()
            assert sorted(again) == sorted(state)
            for name in state:
                assert again[name].frames == state[name].frames
                assert again[name].config == state[name].config
        finally:
            reopened.close()

    def test_rewrite_bounds_growth(self, tmp_path):
        path = str(tmp_path / "sessions.log")
        journal = SessionJournal(path)
        for _ in range(50):
            journal.record_push("a", ["Int"])  # unknown session: all noise
        journal.record_new("keep", None, ["Int"])
        journal.rewrite(journal.replay())
        # After compaction exactly one event (the surviving `new`) is left.
        assert len(list(journal.log.scan())) == 1
        journal.close()

    def test_rewrite_of_the_empty_state_empties_the_log(self, journal):
        journal.record_new("a", None, ["Int"])
        journal.record_close("a")
        journal.rewrite(journal.replay())
        assert list(journal.log.scan()) == []


class TestConfigDocs:
    def test_round_trip_through_plain_json(self):
        from repro.service.sessions import SessionConfig

        config = SessionConfig(
            policy=OverlapPolicy.MOST_SPECIFIC,
            strategy=ResolutionStrategy.CORECURSIVE,
            fuel=123,
            semantics=Semantics.OPERATIONAL,
            cache_entries=9,
        )
        doc = config_doc(config)
        assert json.loads(json.dumps(doc)) == doc  # plain JSON, no objects
        restored = config_from_doc(doc)
        assert restored.policy is OverlapPolicy.MOST_SPECIFIC
        assert restored.strategy is ResolutionStrategy.CORECURSIVE
        assert restored.fuel == 123
        assert restored.semantics is Semantics.OPERATIONAL
        assert restored.cache_entries == 9
        assert restored == config

    def test_old_use_index_key_is_ignored_on_replay(self):
        # Journals written while lookup had an indexing toggle carry a
        # "use_index" key; replaying them must still restore the session.
        doc = {
            "policy": "reject",
            "strategy": "syntactic",
            "fuel": 64,
            "semantics": "elaborate",
            "use_index": False,
            "cache_entries": 16,
        }
        restored = config_from_doc(doc)
        assert restored.fuel == 64 and restored.cache_entries == 16
        assert not hasattr(restored, "use_index")

    def test_old_subtyping_strategy_reads_as_syntactic(self):
        # Journals written while ``subtyping`` was a strategy name it; the
        # session must still restore, as the syntactic strategy it
        # always behaved like.
        doc = {
            "policy": "reject",
            "strategy": "subtyping",
            "fuel": 64,
            "semantics": "elaborate",
            "cache_entries": 16,
        }
        assert config_from_doc(doc).strategy is ResolutionStrategy.SYNTACTIC
