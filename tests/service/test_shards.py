"""Worker lifecycle tests for the shard supervisor (repro.service.shards).

Covers the ISSUE's three deterministic lifecycle guarantees: crash-restart
with session re-warm, graceful drain, and consistent-hash stability.
"""

import pytest

from repro.service.protocol import ErrorCode, Request
from repro.service.shards import HashRing, ShardSupervisor


@pytest.fixture
def supervisor():
    sup = ShardSupervisor(workers=2, threads=2, queue_depth=32)
    yield sup
    sup.shutdown()


def call(sup, op, params=None, request_id=1):
    return sup.handle_sync({"id": request_id, "op": op, "params": params or {}})


class TestHashRing:
    def test_lookup_is_deterministic_and_total(self):
        ring = HashRing()
        ring.add(0)
        ring.add(1)
        ring.add(2)
        keys = [b"key-%d" % i for i in range(500)]
        first = [ring.lookup(k) for k in keys]
        assert set(first) == {0, 1, 2}  # every slot owns some keys
        assert first == [ring.lookup(k) for k in keys]

    def test_adding_a_slot_remaps_about_one_in_n(self):
        ring = HashRing()
        for slot in range(4):
            ring.add(slot)
        keys = [b"session-%d" % i for i in range(2000)]
        before = {k: ring.lookup(k) for k in keys}
        ring.add(4)
        moved = [k for k in keys if ring.lookup(k) != before[k]]
        # Consistent hashing: only keys now owned by the new slot move,
        # and their fraction is ~1/5 (generous bounds for vnode noise).
        assert all(ring.lookup(k) == 4 for k in moved)
        assert 0.10 < len(moved) / len(keys) < 0.35

    def test_remove_restores_prior_ownership(self):
        ring = HashRing()
        for slot in range(3):
            ring.add(slot)
        keys = [b"k%d" % i for i in range(300)]
        before = [ring.lookup(k) for k in keys]
        ring.add(3)
        ring.remove(3)
        assert before == [ring.lookup(k) for k in keys]
        assert ring.slots() == {0, 1, 2}

    def test_empty_ring_raises(self):
        with pytest.raises(ValueError):
            HashRing().lookup(b"x")
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


class TestRouting:
    def test_same_session_always_lands_on_one_shard(self, supervisor):
        call(supervisor, "session/new", {"name": "sticky", "rules": ["Int"]})
        slot = supervisor._sessions["sticky"].slot
        for _ in range(5):
            response = call(
                supervisor, "resolve", {"session": "sticky", "type": "Int"}
            )
            assert response["ok"], response
            assert supervisor._sessions["sticky"].slot == slot

    def test_equal_rule_frames_share_a_shard(self, supervisor):
        rules = ["forall a . {a} => (a, a)", "Int"]
        call(supervisor, "session/new", {"name": "one", "rules": rules})
        call(supervisor, "session/new", {"name": "two", "rules": rules})
        assert (
            supervisor._sessions["one"].slot == supervisor._sessions["two"].slot
        )

    def test_error_messages_match_single_process(self, supervisor):
        unknown = call(supervisor, "resolve", {"session": "nope", "type": "Int"})
        assert unknown["error"]["code"] == ErrorCode.UNKNOWN_SESSION
        assert unknown["error"]["message"] == "no session named 'nope'"
        bad = call(supervisor, "resolve", {"session": 9, "type": "Int"})
        assert bad["error"]["message"] == "'session' must be a string"
        bad_op = call(supervisor, "frobnicate", {})
        assert bad_op["error"]["code"] == ErrorCode.UNKNOWN_OP
        assert bad_op["error"]["message"] == "unknown op 'frobnicate'"
        call(supervisor, "session/new", {"name": "dup"})
        dup = call(supervisor, "session/new", {"name": "dup"})
        assert dup["error"]["message"] == "session 'dup' already exists"
        bad_deadline = call(
            supervisor,
            "resolve",
            {"session": "dup", "type": "Int", "deadline_ms": -1},
        )
        assert (
            bad_deadline["error"]["message"]
            == "'deadline_ms' must be a non-negative number"
        )

    def test_auto_names_are_supervisor_scoped(self, supervisor):
        first = call(supervisor, "session/new", {})
        second = call(supervisor, "session/new", {})
        names = {first["result"]["session"], second["result"]["session"]}
        assert names == {"s1", "s2"}


class TestCrashRestart:
    def test_session_rehydrates_and_resolves_identically(self, supervisor):
        call(
            supervisor,
            "session/new",
            {"name": "warm", "rules": ["Int"]},
        )
        call(
            supervisor,
            "session/push_rules",
            {"session": "warm", "rules": ["forall a . {a} => (a, a)"]},
        )
        before = call(
            supervisor, "resolve", {"session": "warm", "type": "(Int, Int)"}
        )
        assert before["ok"], before
        supervisor.kill_worker(supervisor._sessions["warm"].slot)
        after = call(
            supervisor, "resolve", {"session": "warm", "type": "(Int, Int)"}
        )
        assert after == before  # byte-identical response after re-warm
        assert supervisor.stats.worker_restarts == 1
        # Push/pop state survived too: the initial rules and the pushed
        # frame each pop exactly once, then the environment is empty.
        assert call(supervisor, "session/pop", {"session": "warm"})["ok"]
        assert call(supervisor, "session/pop", {"session": "warm"})["ok"]
        empty = call(supervisor, "session/pop", {"session": "warm"})
        assert "already empty" in empty["error"]["message"]

    def test_in_flight_requests_fail_retryable_on_crash(self):
        sup = ShardSupervisor(workers=1, threads=2, queue_depth=32)
        try:
            pending = sup.process(
                Request(1, "debug/sleep", {"seconds": 5.0})
            )
            sup.kill_worker(0)
            response = pending.result(timeout=10)
            assert response["error"]["code"] == ErrorCode.WORKER_FAILED
            assert response["error"]["retryable"] is True
            assert response["id"] == 1
        finally:
            sup.shutdown()

    def test_stopped_and_killed_workers_release_both_pipes(self):
        sup = ShardSupervisor(workers=2, threads=2, queue_depth=32)
        killed, stopped = sup._shards[0], sup._shards[1]
        sup.kill_worker(0)
        sup.shutdown()
        for shard in (killed, stopped):
            assert shard.process.stdin.closed and shard.process.stdout.closed

    def test_check_health_restarts_dead_workers(self, supervisor):
        supervisor.kill_worker(0)
        supervisor.kill_worker(1)
        assert supervisor.check_health() == 2
        assert supervisor.check_health() == 0
        assert supervisor.stats.worker_restarts == 2
        assert call(supervisor, "session/new", {"name": "alive"})["ok"]


class TestDrain:
    def test_in_flight_completes_and_new_work_sheds(self, supervisor):
        pending = supervisor.process(Request(1, "debug/sleep", {"seconds": 0.5}))
        supervisor.drain()
        shed = call(supervisor, "resolve", {"session": "x", "type": "Int"})
        assert shed["error"]["code"] == ErrorCode.OVERLOADED
        assert shed["error"]["retryable"] is True
        assert shed["error"]["backoff_ms"] > 0
        new_session = call(supervisor, "session/new", {"name": "late"})
        assert new_session["error"]["code"] == ErrorCode.OVERLOADED
        # The in-flight sleeper still completes normally.
        response = pending.result(timeout=30)
        assert response["ok"], response
        # Control ops keep answering during drain.
        assert call(supervisor, "ping")["ok"]
        assert call(supervisor, "server/stats")["ok"]

    def test_shutdown_op_drains_and_sets_stopping(self, supervisor):
        response = call(supervisor, "shutdown")
        assert response["result"] == {"stopping": True}
        assert supervisor.stopping.is_set()
        shed = call(supervisor, "resolve", {"session": "x", "type": "Int"})
        assert shed["error"]["code"] == ErrorCode.OVERLOADED


class TestRebalance:
    def test_add_worker_migrates_only_remapped_sessions(self):
        sup = ShardSupervisor(workers=2, threads=2, queue_depth=32)
        try:
            total = 16
            for i in range(total):
                response = call(
                    sup,
                    "session/new",
                    {"name": f"m{i}", "rules": ["{Int} => D%d" % i, "Int"]},
                )
                assert response["ok"], response
            before = {name: r.slot for name, r in sup._sessions.items()}
            migrated = sup.add_worker()
            assert sup.workers() == 3
            assert migrated == sup.stats.shard_rebalances
            moved = [
                name
                for name, record in sup._sessions.items()
                if record.slot != before[name]
            ]
            assert len(moved) == migrated
            assert all(sup._sessions[name].slot == 2 for name in moved)
            assert migrated < total  # strictly partial remap
            # Every session still resolves, wherever it now lives.
            for i in range(total):
                response = call(
                    sup, "resolve", {"session": f"m{i}", "type": "D%d" % i}
                )
                assert response["ok"], (i, response)
        finally:
            sup.shutdown()


class TestAggregateStats:
    def test_counters_sum_across_shards(self, supervisor):
        for i in range(6):
            call(supervisor, "session/new", {"name": f"st{i}", "rules": ["Int"]})
            assert call(
                supervisor, "resolve", {"session": f"st{i}", "type": "Int"}
            )["ok"]
        view = call(supervisor, "server/stats")["result"]
        assert view["workers"] == 2
        per_shard = [s for s in view["shards"] if s["alive"]]
        assert len(per_shard) == 2
        assert view["shard_requests"] == sum(s["requests"] for s in per_shard)
        assert view["sessions"] == sum(s["sessions"] for s in per_shard) == 6
        totals = view["counters"]
        for key in ("queries", "resolve_steps", "lookup_calls"):
            assert totals[key] == sum(
                s["counters"][key] for s in per_shard
            ), key
        assert totals["shard_dispatches"] >= 12
        assert totals["wire_bytes_out"] > 0
        assert totals["wire_bytes_in"] > 0
