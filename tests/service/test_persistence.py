"""Service persistence: ``--cache-dir`` warm restarts (repro.service).

Two layers of the same guarantee.  A single-process
:class:`ResolutionService` given a ``cache_dir`` journals its sessions
and persists derivations, so a restarted service rebuilds every session
and answers from disk.  A :class:`ShardSupervisor` given a ``cache_dir``
hands each worker its own store directory, so a *crashed and respawned*
shard worker restores its sessions from its own journal + store instead
of the supervisor's in-memory replay -- the ISSUE's regression case.
"""

import os

import pytest

from repro.service.protocol import ErrorCode
from repro.service.server import ResolutionService
from repro.service.shards import ShardSupervisor

CHAIN = ["C0"] + ["{C%d} => C%d" % (i - 1, i) for i in range(1, 9)]


def call(svc, op, params=None, request_id=1):
    return svc.handle_sync({"id": request_id, "op": op, "params": params or {}})


def new_session(svc, name="t", rules=CHAIN):
    assert call(svc, "session/new", {"name": name})["ok"]
    assert call(svc, "session/push_rules", {"session": name, "rules": rules})["ok"]


class TestServiceRestart:
    def test_restart_restores_sessions_disk_warm(self, tmp_path):
        cache_dir = str(tmp_path)
        svc = ResolutionService(workers=2, queue_depth=16, cache_dir=cache_dir)
        try:
            new_session(svc)
            assert call(svc, "resolve", {"session": "t", "type": "C8"})["ok"]
        finally:
            svc.shutdown()

        svc = ResolutionService(workers=2, queue_depth=16, cache_dir=cache_dir)
        try:
            assert svc.sessions_restored == 1
            # No session/new, no push_rules: the session came from the
            # journal, its derivations from the store.
            response = call(svc, "resolve", {"session": "t", "type": "C8"})
            assert response["ok"] and response["result"]["resolved"]
            stats = call(svc, "server/stats")["result"]
            assert stats["sessions_restored"] == 1
            assert stats["store"]["counters"]["store_loads"] > 0
            assert stats["store"]["records"] > 0
        finally:
            svc.shutdown()

    def test_restored_failure_outcomes_replay_too(self, tmp_path):
        cache_dir = str(tmp_path)
        svc = ResolutionService(workers=2, queue_depth=16, cache_dir=cache_dir)
        try:
            new_session(svc)
            bad = call(svc, "resolve", {"session": "t", "type": "Bool"})
            assert bad["error"]["code"] == ErrorCode.RESOLUTION_FAILURE
        finally:
            svc.shutdown()
        svc = ResolutionService(workers=2, queue_depth=16, cache_dir=cache_dir)
        try:
            bad = call(svc, "resolve", {"session": "t", "type": "Bool"})
            assert bad["error"]["code"] == ErrorCode.RESOLUTION_FAILURE
        finally:
            svc.shutdown()

    def test_closed_sessions_stay_closed_across_restart(self, tmp_path):
        cache_dir = str(tmp_path)
        svc = ResolutionService(workers=2, queue_depth=16, cache_dir=cache_dir)
        try:
            new_session(svc, name="keep")
            new_session(svc, name="drop")
            assert call(svc, "session/close", {"session": "drop"})["ok"]
        finally:
            svc.shutdown()
        svc = ResolutionService(workers=2, queue_depth=16, cache_dir=cache_dir)
        try:
            assert svc.sessions_restored == 1
            assert call(svc, "resolve", {"session": "keep", "type": "C8"})["ok"]
            ghost = call(svc, "resolve", {"session": "drop", "type": "C8"})
            assert ghost["error"]["code"] == ErrorCode.UNKNOWN_SESSION
        finally:
            svc.shutdown()

    def test_journal_naming_the_old_subtyping_strategy_restores(self, tmp_path):
        # Journals written while ``subtyping`` was a strategy carry it in
        # the session config; such a session restores as syntactic.
        from repro.core.parser import parse_core_type
        from repro.service.wire import encode_type
        from repro.store import SessionJournal

        journal = SessionJournal(os.path.join(str(tmp_path), "sessions.log"))
        config = {
            "policy": "reject",
            "strategy": "subtyping",
            "fuel": 512,
            "semantics": "elaborate",
            "cache_entries": 64,
        }
        journal.record_new(
            "old", config, [encode_type(parse_core_type(r)) for r in CHAIN]
        )
        journal.close()
        svc = ResolutionService(workers=2, queue_depth=16, cache_dir=str(tmp_path))
        try:
            assert svc.sessions_restored == 1
            assert call(svc, "resolve", {"session": "old", "type": "C8"})["ok"]
            stats = call(svc, "session/stats", {"session": "old"})["result"]
            assert stats["config"]["strategy"] == "syntactic"
        finally:
            svc.shutdown()

    def test_stateless_service_has_no_store_section(self):
        svc = ResolutionService(workers=2, queue_depth=16)
        try:
            stats = call(svc, "server/stats")["result"]
            assert "store" not in stats
        finally:
            svc.shutdown()


class TestShardCrashRecovery:
    """The ISSUE's regression: a respawned worker answers from disk."""

    def test_respawned_worker_restores_from_its_own_store(self, tmp_path):
        cache_dir = str(tmp_path)
        sup = ShardSupervisor(
            workers=2, threads=2, queue_depth=32, cache_dir=cache_dir
        )
        try:
            new_session(sup, name="warm")
            assert call(sup, "resolve", {"session": "warm", "type": "C8"})["ok"]
            slot = sup._sessions["warm"].slot
            assert os.path.isdir(os.path.join(cache_dir, f"shard-{slot}"))

            sup.kill_worker(slot)
            assert sup.check_health() == 1

            # First retried request after the crash: the replacement
            # worker must already hold the session, warmed from disk --
            # the supervisor skipped its in-memory replay.
            response = call(sup, "resolve", {"session": "warm", "type": "C8"})
            assert response["ok"] and response["result"]["resolved"]

            stats = call(sup, "server/stats")["result"]
            entry = next(s for s in stats["shards"] if s["slot"] == slot)
            assert entry["alive"]
            assert entry["sessions_restored"] == 1
            assert entry["store"]["counters"]["store_loads"] > 0
            assert sup.stats.worker_restarts == 1
        finally:
            sup.shutdown()

    def test_crash_without_cache_dir_still_replays_in_memory(self):
        # The pre-existing guarantee must survive the new code path.
        sup = ShardSupervisor(workers=2, threads=2, queue_depth=32)
        try:
            new_session(sup, name="warm")
            slot = sup._sessions["warm"].slot
            sup.kill_worker(slot)
            assert sup.check_health() == 1
            response = call(sup, "resolve", {"session": "warm", "type": "C8"})
            assert response["ok"] and response["result"]["resolved"]
        finally:
            sup.shutdown()
