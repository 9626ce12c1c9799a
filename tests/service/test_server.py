"""The resolution service: dispatch, deadlines, shedding, coalescing.

Everything here drives an in-process :class:`ResolutionService` (no
pipes), so the tests exercise the real worker pool, singleflight and
counter plumbing while staying deterministic: blocking is always on
explicit events or on ``debug/sleep``, never on timing guesses.
"""

import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.core.cache import ResolutionCache
from repro.core.env import ImplicitEnv, RuleEntry
from repro.core.parser import parse_core_type
from repro.core.resolution import Resolver
from repro.errors import DeadlineExceededError
from repro.pipeline import Semantics, run_source
from repro.service.protocol import ErrorCode, encode
from repro.service.server import ResolutionService

CHAIN = ["C0"] + ["{C%d} => C%d" % (i - 1, i) for i in range(1, 9)]


@pytest.fixture
def service():
    svc = ResolutionService(workers=4, queue_depth=16)
    yield svc
    svc.shutdown()


def new_session(service, name="t", rules=CHAIN):
    assert service.handle_sync(
        {"id": 0, "op": "session/new", "params": {"name": name}}
    )["ok"]
    if rules:
        assert service.handle_sync(
            {
                "id": 0,
                "op": "session/push_rules",
                "params": {"session": name, "rules": rules},
            }
        )["ok"]


class TestDispatch:
    def test_unknown_op(self, service):
        response = service.handle_sync({"id": 1, "op": "frobnicate"})
        assert response["error"]["code"] == ErrorCode.UNKNOWN_OP

    def test_unknown_session(self, service):
        response = service.handle_sync(
            {"id": 1, "op": "resolve", "params": {"session": "ghost", "type": "Int"}}
        )
        assert response["error"]["code"] == ErrorCode.UNKNOWN_SESSION

    def test_resolve_and_failure(self, service):
        new_session(service)
        ok = service.handle_sync(
            {"id": 1, "op": "resolve", "params": {"session": "t", "type": "C8"}}
        )
        assert ok["ok"] and ok["result"]["resolved"]
        bad = service.handle_sync(
            {"id": 2, "op": "resolve", "params": {"session": "t", "type": "Bool"}}
        )
        assert bad["error"]["code"] == ErrorCode.RESOLUTION_FAILURE
        assert not bad["error"]["retryable"]

    def test_session_new_with_initial_rules(self, service):
        response = service.handle_sync(
            {
                "id": 1,
                "op": "session/new",
                "params": {"name": "seeded", "rules": ["Int", "Bool"]},
            }
        )
        assert response["ok"] and response["result"]["depth"] == 1
        ok = service.handle_sync(
            {"id": 2, "op": "resolve", "params": {"session": "seeded", "type": "Int"}}
        )
        assert ok["ok"] and ok["result"]["resolved"]

    def test_session_new_bad_initial_rules_is_atomic(self, service):
        # A rule string that fails to parse must not leave the session
        # registered under the requested name.
        response = service.handle_sync(
            {
                "id": 1,
                "op": "session/new",
                "params": {"name": "broken", "rules": ["(((("]},
            }
        )
        assert response["error"]["code"] == ErrorCode.PROGRAM_PARSE_ERROR
        retry = service.handle_sync(
            {"id": 2, "op": "session/new", "params": {"name": "broken"}}
        )
        assert retry["ok"]

    def test_session_new_unknown_param_rejected(self, service):
        response = service.handle_sync(
            {"id": 1, "op": "session/new", "params": {"name": "x", "ruless": []}}
        )
        assert response["error"]["code"] == ErrorCode.INVALID_REQUEST
        assert "ruless" in response["error"]["message"]

    def test_program_parse_error(self, service):
        new_session(service)
        response = service.handle_sync(
            {
                "id": 1,
                "op": "run_source",
                "params": {"session": "t", "program": "let let let"},
            }
        )
        assert response["error"]["code"] == ErrorCode.PROGRAM_PARSE_ERROR

    def test_per_request_stats_attachment(self, service):
        new_session(service)
        response = service.handle_sync(
            {
                "id": 1,
                "op": "resolve",
                "params": {"session": "t", "type": "C3", "stats": True},
            }
        )
        assert response["stats"]["queries"] == 1
        assert response["stats"]["resolve_steps"] >= 4  # C3 -> C2 -> C1 -> C0

    def test_session_cache_warms_across_requests(self, service):
        new_session(service)
        for _ in range(2):
            service.handle_sync(
                {"id": 1, "op": "resolve", "params": {"session": "t", "type": "C8"}}
            )
        stats = service.handle_sync(
            {"id": 2, "op": "session/stats", "params": {"session": "t"}}
        )["result"]
        assert stats["counters"]["cache_hits"] >= 1
        assert stats["cache_entries"] >= 1

    def test_push_pop_change_what_resolves(self, service):
        new_session(service, rules=["Int"])
        assert not service.handle_sync(
            {"id": 1, "op": "resolve", "params": {"session": "t", "type": "Bool"}}
        )["ok"]
        service.handle_sync(
            {
                "id": 2,
                "op": "session/push_rules",
                "params": {"session": "t", "rules": ["Bool"]},
            }
        )
        assert service.handle_sync(
            {"id": 3, "op": "resolve", "params": {"session": "t", "type": "Bool"}}
        )["ok"]
        service.handle_sync(
            {"id": 4, "op": "session/pop", "params": {"session": "t"}}
        )
        assert not service.handle_sync(
            {"id": 5, "op": "resolve", "params": {"session": "t", "type": "Bool"}}
        )["ok"]

    def test_shutdown_rejects_new_work_as_retryable(self, service):
        new_session(service)
        service.handle_sync({"id": 1, "op": "shutdown"})
        response = service.handle_sync(
            {"id": 2, "op": "resolve", "params": {"session": "t", "type": "C0"}}
        )
        assert response["error"]["code"] == ErrorCode.SHUTTING_DOWN
        assert response["error"]["retryable"]


class TestLintOp:
    def test_lint_program_reports_findings_as_data(self, service):
        new_session(service, rules=None)
        response = service.handle_sync(
            {
                "id": 1,
                "op": "lint",
                "params": {
                    "session": "t",
                    "program": "def bad : forall b . {b} => Int = 42;\nbad",
                },
            }
        )
        assert response["ok"]  # findings are data, not failures
        result = response["result"]
        assert result["errors"] == 1 and result["warnings"] == 0
        (d,) = result["diagnostics"]
        assert d["code"] == "IC0402"
        assert d["span"]["line"] == 1 and d["span"]["column"] == 11

    def test_lint_clean_program(self, service):
        new_session(service, rules=None)
        response = service.handle_sync(
            {"id": 1, "op": "lint", "params": {"session": "t", "program": "1 + 1"}}
        )
        assert response["ok"]
        assert response["result"]["diagnostics"] == []

    def test_lint_session_environment(self, service):
        # Without a program the session's own rule frames are linted:
        # forall a . {a} => a violates termination, and the duplicated
        # Int across frames is a shadowing warning.
        new_session(service, rules=["Int", "forall a . {a} => a"])
        service.handle_sync(
            {
                "id": 1,
                "op": "session/push_rules",
                "params": {"session": "t", "rules": ["Int"]},
            }
        )
        response = service.handle_sync(
            {"id": 2, "op": "lint", "params": {"session": "t"}}
        )
        assert response["ok"]
        found = {d["code"] for d in response["result"]["diagnostics"]}
        assert {"IC0401", "IC0502"} <= found

    def test_lint_respects_session_policy(self, service):
        # Int and forall a . a overlap under reject, resolve by
        # specificity under most_specific.
        for name, policy in [("strict", "reject"), ("loose", "most_specific")]:
            assert service.handle_sync(
                {
                    "id": 1,
                    "op": "session/new",
                    "params": {"name": name, "policy": policy},
                }
            )["ok"]
            service.handle_sync(
                {
                    "id": 2,
                    "op": "session/push_rules",
                    "params": {"session": name, "rules": ["Int", "forall a . a"]},
                }
            )
        strict = service.handle_sync(
            {"id": 3, "op": "lint", "params": {"session": "strict"}}
        )["result"]
        loose = service.handle_sync(
            {"id": 4, "op": "lint", "params": {"session": "loose"}}
        )["result"]
        assert any(d["code"] == "IC0301" for d in strict["diagnostics"])
        assert not any(d["code"] == "IC0301" for d in loose["diagnostics"])

    def test_lint_bad_program_param(self, service):
        new_session(service, rules=None)
        response = service.handle_sync(
            {"id": 1, "op": "lint", "params": {"session": "t", "program": 42}}
        )
        assert response["error"]["code"] == ErrorCode.INVALID_REQUEST


class TestDeadlines:
    def test_expired_while_queued(self, service):
        new_session(service)
        response = service.handle_sync(
            {
                "id": 1,
                "op": "resolve",
                "params": {"session": "t", "type": "C0", "deadline_ms": 0},
            }
        )
        assert response["error"]["code"] == ErrorCode.TIMEOUT
        assert response["error"]["retryable"]

    def test_exceeded_during_execution(self, service):
        response = service.handle_sync(
            {
                "id": 1,
                "op": "debug/sleep",
                "params": {"seconds": 3.0, "deadline_ms": 50},
            }
        )
        assert response["error"]["code"] == ErrorCode.TIMEOUT

    def test_timeouts_are_counted(self, service):
        new_session(service)
        service.handle_sync(
            {
                "id": 1,
                "op": "resolve",
                "params": {"session": "t", "type": "C0", "deadline_ms": 0},
            }
        )
        counters = service.handle_sync({"id": 2, "op": "server/stats"})["result"][
            "counters"
        ]
        assert counters["deadline_timeouts"] == 1

    def test_resolver_deadline_raises_in_core(self):
        # The mechanism under the service: a Resolver past its deadline
        # refuses further fuel steps.
        env = ImplicitEnv.empty().push(
            [RuleEntry(parse_core_type(text)) for text in CHAIN]
        )
        resolver = Resolver(deadline=time.monotonic() - 1.0)
        with pytest.raises(DeadlineExceededError):
            resolver.resolve(env, parse_core_type("C8"))

    def test_invalid_deadline_param(self, service):
        response = service.handle_sync(
            {"id": 1, "op": "debug/sleep", "params": {"deadline_ms": -5}}
        )
        assert response["error"]["code"] == ErrorCode.INVALID_REQUEST

    def test_deadline_reaches_the_operational_semantics(self):
        # run_core with OPERATIONAL semantics resolves at runtime via the
        # Interpreter, which must honour the request deadline too.
        from repro.core.builders import ask, implicit
        from repro.core.terms import IntLit
        from repro.core.types import INT
        from repro.pipeline import Semantics, run_core

        program = implicit([IntLit(3)], ask(INT), INT)
        expired = Resolver(deadline=time.monotonic() - 1.0)
        with pytest.raises(DeadlineExceededError):
            run_core(program, resolver=expired, semantics=Semantics.OPERATIONAL)


class TestLoadShedding:
    def test_burst_past_watermark_is_shed_with_backoff(self):
        service = ResolutionService(workers=1, queue_depth=1)
        try:
            outcomes = [
                service.process_line(
                    '{"id": %d, "op": "debug/sleep", "params": {"seconds": 0.5}}' % i
                )
                for i in range(4)
            ]
            # Worker holds one sleeper for 0.5s and the queue holds one
            # more, so of four instant submissions at least one must be
            # rejected inline (a dict, not a Future).
            shed = [o for o in outcomes if isinstance(o, dict)]
            assert shed, "burst was not shed"
            for response in shed:
                error = response["error"]
                assert error["code"] == ErrorCode.OVERLOADED
                assert error["retryable"]
                assert error["backoff_ms"] > 0
                assert error["details"]["watermark"] == 1
            for outcome in outcomes:
                if isinstance(outcome, Future):
                    assert outcome.result(timeout=10)["ok"]
            counters = service.handle_sync({"id": 9, "op": "server/stats"})[
                "result"
            ]["counters"]
            assert counters["shed_requests"] == len(shed)
        finally:
            service.shutdown()

    def test_control_ops_are_never_shed(self):
        service = ResolutionService(workers=1, queue_depth=1)
        try:
            blockers = [
                service.process_line(
                    '{"id": %d, "op": "debug/sleep", "params": {"seconds": 0.3}}' % i
                )
                for i in range(2)
            ]
            # Pool saturated; stats must still answer inline.
            assert service.handle_sync({"id": 9, "op": "server/stats"})["ok"]
            for outcome in blockers:
                if isinstance(outcome, Future):
                    outcome.result(timeout=10)
        finally:
            service.shutdown()


class TestCoalescing:
    def test_identical_concurrent_resolves_share_one_execution(
        self, service, monkeypatch
    ):
        new_session(service)
        started = threading.Event()
        release = threading.Event()
        executions = []
        original = Resolver.resolve

        def gated(self, env, rho, **internal):
            executions.append(rho)
            started.set()
            assert release.wait(timeout=10)
            return original(self, env, rho, **internal)

        monkeypatch.setattr(Resolver, "resolve", gated)
        request = {
            "op": "resolve",
            "params": {"session": "t", "type": "C8", "stats": True},
        }
        leader = service.process_line('{"id": 100, %s}' % _tail(request))
        assert started.wait(timeout=10)
        followers = [
            service.process_line('{"id": %d, %s}' % (101 + i, _tail(request)))
            for i in range(3)
        ]
        deadline = time.monotonic() + 10
        while service.flight.waiting() < 3:  # all three parked on the leader
            assert time.monotonic() < deadline, "followers never joined the flight"
            time.sleep(0.005)
        release.set()
        responses = [leader.result(timeout=10)] + [
            f.result(timeout=10) for f in followers
        ]
        assert all(r["ok"] for r in responses)
        assert len({r["result"]["matched"] for r in responses}) == 1
        assert executions == [parse_core_type("C8")]  # exactly one proof built
        assert sum(r["stats"]["coalesced_requests"] for r in responses) == 3
        counters = service.handle_sync({"id": 9, "op": "server/stats"})["result"][
            "counters"
        ]
        assert counters["coalesced_requests"] == 3

    def test_different_queries_do_not_coalesce(self, service, monkeypatch):
        new_session(service)
        release = threading.Event()
        calls = []
        original = Resolver.resolve

        def gated(self, env, rho, **internal):
            calls.append(str(rho))
            assert release.wait(timeout=10)
            return original(self, env, rho, **internal)

        monkeypatch.setattr(Resolver, "resolve", gated)
        futures = [
            service.process_line(
                '{"id": %d, "op": "resolve",'
                ' "params": {"session": "t", "type": "C%d"}}' % (i, i)
            )
            for i in range(3)
        ]
        deadline = time.monotonic() + 10
        while len(calls) < 3:  # every query got its own execution
            assert time.monotonic() < deadline
            time.sleep(0.005)
        release.set()
        assert all(f.result(timeout=10)["ok"] for f in futures)
        assert service.flight.waiting() == 0

    def test_coalescing_can_be_disabled(self):
        service = ResolutionService(workers=2, queue_depth=8, coalesce=False)
        try:
            assert service.flight is None
            new_session(service)
            assert service.handle_sync(
                {"id": 1, "op": "resolve", "params": {"session": "t", "type": "C1"}}
            )["ok"]
        finally:
            service.shutdown()


def _tail(request):
    return json.dumps(request)[1:-1]


def _resolve_line(request_id, query, **params):
    return json.dumps(
        {
            "id": request_id,
            "op": "resolve",
            "params": {"session": "t", "type": query, **params},
        }
    )


class TestCacheHitsInline:
    """A resolve the derivation cache holds is answered on the calling thread."""

    def test_hit_is_answered_inline(self, service):
        new_session(service)
        miss = service.process_line(_resolve_line(1, "C8"))
        assert isinstance(miss, Future)
        assert miss.result(timeout=10)["ok"]
        hit = service.process_line(_resolve_line(2, "C8"))
        assert isinstance(hit, dict)
        assert hit["ok"] and hit["result"]["size"] == 9

    @pytest.mark.parametrize(
        "query, params",
        [
            ("C8", {}),
            ("C5", {"explain": True, "signature": True}),
            ("Bool", {}),  # a cached resolution_failure
        ],
    )
    def test_inline_hit_matches_the_pooled_answer(
        self, service, monkeypatch, query, params
    ):
        new_session(service)
        service.handle_sync(json.loads(_resolve_line(0, query)))  # warm
        line = _resolve_line(7, query, stats=True, **params)
        inline = service.process_line(line)
        assert isinstance(inline, dict)
        # Hide the entry from the probe: the same hit then runs on a worker.
        monkeypatch.setattr(ResolutionCache, "holds", lambda self, key, fuel: False)
        pooled = service.process_line(line)
        assert isinstance(pooled, Future)
        pooled = pooled.result(timeout=10)
        assert encode(inline) == encode(pooled)
        assert inline["stats"]["cache_hits"] == 1
        assert inline["stats"]["cache_misses"] == 0

    def test_hit_is_answered_while_the_pool_is_saturated(self):
        service = ResolutionService(workers=1, queue_depth=1)
        try:
            new_session(service)
            assert service.handle_sync(json.loads(_resolve_line(0, "C8")))["ok"]
            blocker = service.process_line(
                '{"id": 1, "op": "debug/sleep", "params": {"seconds": 2.0}}'
            )
            sleepers = [blocker]
            while all(isinstance(s, Future) for s in sleepers):
                assert len(sleepers) < 8, "pool never saturated"
                sleepers.append(
                    service.process_line(
                        '{"id": 2, "op": "debug/sleep", "params": {"seconds": 0}}'
                    )
                )
            # Pool and queue are full: new work is shed, a hit is not.
            hit = service.process_line(_resolve_line(3, "C8"))
            assert isinstance(hit, dict) and hit["ok"], hit
            assert not blocker.done()
            for sleeper in sleepers:
                if isinstance(sleeper, Future):
                    sleeper.result(timeout=10)
        finally:
            service.shutdown()

    def test_expired_deadline_on_a_hit_still_times_out(self, service):
        new_session(service)
        service.handle_sync(json.loads(_resolve_line(0, "C0")))
        response = service.process_line(_resolve_line(1, "C0", deadline_ms=0))
        assert isinstance(response, dict)
        assert response["error"]["code"] == ErrorCode.TIMEOUT
        counters = service.handle_sync({"id": 2, "op": "server/stats"})["result"][
            "counters"
        ]
        assert counters["deadline_timeouts"] == 1

    @pytest.mark.parametrize(
        "params, code",
        [
            ({"session": "t", "type": "(((("}, ErrorCode.PROGRAM_PARSE_ERROR),
            ({"session": "t", "type": 42}, ErrorCode.INVALID_REQUEST),
            ({"session": "ghost", "type": "C0"}, ErrorCode.UNKNOWN_SESSION),
            # Duplicate quantifiers (the coded answer is pinned by
            # test_duplicate_quantifiers_are_parse_errors).
            ({"session": "t", "type": "forall a a . {a} => a"}, None),
        ],
    )
    def test_bad_queries_are_left_to_the_worker(self, service, params, code):
        new_session(service)
        outcome = service.process_line(
            json.dumps({"id": 1, "op": "resolve", "params": params})
        )
        assert isinstance(outcome, Future)
        response = outcome.result(timeout=10)
        assert not response["ok"]
        assert code is None or response["error"]["code"] == code

    def test_deeply_nested_query_is_answered_and_service_survives(self, service):
        # Deep enough to exhaust the recursive-descent parser's stack.
        query = "(" * 2000 + "C0" + ")" * 2000
        new_session(service)
        outcome = service.process_line(_resolve_line(1, query))
        assert isinstance(outcome, Future)
        response = outcome.result(timeout=10)
        assert not response["ok"]
        ping = service.process_line('{"id": 2, "op": "ping"}')
        assert isinstance(ping, dict) and ping["ok"]

    def test_query_text_is_parsed_once(self, service, monkeypatch):
        from repro.service import server

        new_session(service)
        parsed = []

        def counting(text):
            parsed.append(text)
            return parse_core_type(text)

        monkeypatch.setattr(server, "parse_core_type", counting)
        query = "{C0} => C8"
        for i in range(3):
            assert service.handle_sync(json.loads(_resolve_line(i, query)))["ok"]
        assert parsed == [query]

    def test_cached_failure_query_is_parsed_once(self, service, monkeypatch):
        from repro.service import server

        new_session(service)
        parsed = []

        def counting(text):
            parsed.append(text)
            return parse_core_type(text)

        monkeypatch.setattr(server, "parse_core_type", counting)
        query = "Bool"  # unprovided: a cached resolution_failure
        for i in range(3):
            response = service.handle_sync(json.loads(_resolve_line(i, query)))
            assert response["error"]["code"] == ErrorCode.RESOLUTION_FAILURE
        assert parsed == [query]

    def test_duplicate_quantifiers_are_parse_errors(self, service):
        rho = "forall a a . {a} => a"
        created = service.handle_sync(
            {"id": 1, "op": "session/new", "params": {"name": "d", "rules": [rho]}}
        )
        assert created["error"]["code"] == ErrorCode.PROGRAM_PARSE_ERROR
        assert "duplicate quantified variable 'a'" in created["error"]["message"]
        new_session(service)
        response = service.handle_sync(json.loads(_resolve_line(2, rho)))
        assert response["error"]["code"] == ErrorCode.PROGRAM_PARSE_ERROR

    def test_disk_only_entry_is_loaded_by_a_worker(self, tmp_path, monkeypatch):
        from repro.store import DerivationStore

        service = ResolutionService(workers=1, queue_depth=4, cache_dir=str(tmp_path))
        try:
            assert service.handle_sync(
                {
                    "id": 0,
                    "op": "session/new",
                    "params": {"name": "t", "rules": CHAIN, "cache_entries": 1},
                }
            )["ok"]
            # C2 resolves through C1; with one in-memory slot, C1 is left
            # on disk only.
            assert service.handle_sync(json.loads(_resolve_line(1, "C2")))["ok"]
            fetch_threads = []
            original = DerivationStore.fetch

            def recording(self, key, fuel):
                fetch_threads.append(threading.current_thread())
                return original(self, key, fuel)

            monkeypatch.setattr(DerivationStore, "fetch", recording)
            outcome = service.process_line(_resolve_line(2, "C1", stats=True))
            assert isinstance(outcome, Future)
            response = outcome.result(timeout=10)
            assert response["ok"] and response["stats"]["store_hits"] == 1
            assert fetch_threads
            assert threading.current_thread() not in fetch_threads
        finally:
            service.shutdown()


PINNED = (
    "queries",
    "resolve_steps",
    "cache_hits",
    "cache_misses",
    "deadline_timeouts",
    "shed_requests",
    "coalesced_requests",
)


def _pinned(counters):
    return {name: counters[name] for name in PINNED}


def _expected(**nonzero):
    """The pinned counters, all zero unless given."""
    return {name: nonzero.get(name, 0) for name in PINNED}


def _session_stats(service, name="t"):
    return service.handle_sync(
        {"id": 0, "op": "session/stats", "params": {"session": name}}
    )["result"]


def _server_stats(service):
    return service.handle_sync({"id": 0, "op": "server/stats"})["result"]


class TestCounters:
    """Exact ``session/stats`` and ``server/stats`` counters per request kind.

    ``server/stats`` counts every request, the stats request itself too.
    """

    def test_cache_miss_then_hit(self, service):
        new_session(service)  # 2 requests
        for i in range(2):
            assert service.handle_sync(json.loads(_resolve_line(i, "C8")))["ok"]
        session = _session_stats(service)
        assert session["requests"] == 2
        want = _expected(queries=2, resolve_steps=10, cache_hits=1, cache_misses=9)
        assert _pinned(session["counters"]) == want
        server = _server_stats(service)
        assert server["requests"] == 6
        assert _pinned(server["counters"]) == want

    def test_unknown_session(self, service):
        new_session(service)
        response = service.handle_sync(
            {"id": 1, "op": "resolve", "params": {"session": "ghost", "type": "C0"}}
        )
        assert response["error"]["code"] == ErrorCode.UNKNOWN_SESSION
        session = _session_stats(service)
        assert session["requests"] == 0
        want = _expected()
        assert _pinned(session["counters"]) == want
        server = _server_stats(service)
        assert server["requests"] == 5
        assert _pinned(server["counters"]) == want

    def test_unparsable_query_counts_one_session_request(self, service):
        new_session(service)
        response = service.handle_sync(json.loads(_resolve_line(1, "((((")))
        assert response["error"]["code"] == ErrorCode.PROGRAM_PARSE_ERROR
        session = _session_stats(service)
        assert session["requests"] == 1
        want = _expected()
        assert _pinned(session["counters"]) == want
        server = _server_stats(service)
        assert server["requests"] == 5
        assert _pinned(server["counters"]) == want

    def test_deadline_expired_while_queued(self):
        service = ResolutionService(workers=1, queue_depth=4)
        try:
            new_session(service)
            blocker = service.process_line(
                '{"id": 1, "op": "debug/sleep", "params": {"seconds": 0.3}}'
            )
            queued = service.process_line(_resolve_line(2, "C0", deadline_ms=50))
            assert isinstance(queued, Future)
            response = queued.result(timeout=10)
            assert response["error"]["code"] == ErrorCode.TIMEOUT
            assert blocker.result(timeout=10)["ok"]
            session = _session_stats(service)
            assert session["requests"] == 1
            want = _expected(deadline_timeouts=1)
            assert _pinned(session["counters"]) == want
            server = _server_stats(service)
            assert server["requests"] == 6
            assert _pinned(server["counters"]) == want
        finally:
            service.shutdown()

    def test_shed_at_the_watermark(self):
        service = ResolutionService(workers=1, queue_depth=1)
        try:
            new_session(service)
            running = service.process_line(
                '{"id": 1, "op": "debug/sleep", "params": {"seconds": 0.3}}'
            )
            deadline = time.monotonic() + 10
            while service.pool.queue_depth():  # the worker took it
                assert time.monotonic() < deadline
                time.sleep(0.005)
            queued = service.process_line(
                '{"id": 2, "op": "debug/sleep", "params": {"seconds": 0}}'
            )
            shed = service.process_line(_resolve_line(3, "C0"))
            assert isinstance(shed, dict)
            assert shed["error"]["code"] == ErrorCode.OVERLOADED
            for sleeper in (running, queued):
                assert sleeper.result(timeout=10)["ok"]
            session = _session_stats(service)
            assert session["requests"] == 0
            assert _pinned(session["counters"]) == _expected()
            server = _server_stats(service)
            assert server["requests"] == 7
            assert _pinned(server["counters"]) == _expected(shed_requests=1)
        finally:
            service.shutdown()


class TestArrivalOrder:
    """A queued request answers against the session as it stood on arrival,
    as if requests were served in arrival order."""

    def _queued_then_pushed(self, service, request, rules):
        """Send ``request`` behind a sleeper, push ``rules``; its answer."""
        assert service.handle_sync(
            {"id": 0, "op": "session/new", "params": {"name": "s", "rules": ["Int"]}}
        )["ok"]
        sleeper = service.process_line(
            '{"id": 1, "op": "debug/sleep", "params": {"seconds": 0.3}}'
        )
        queued = service.process_line(json.dumps({"id": 2, **request}))
        assert isinstance(queued, Future)
        pushed = service.handle_sync(
            {
                "id": 3,
                "op": "session/push_rules",
                "params": {"session": "s", "rules": rules},
            }
        )
        assert pushed["ok"]
        assert sleeper.result(timeout=10)["ok"]
        return queued.result(timeout=10)

    def test_queued_resolve_is_not_overtaken_by_a_push(self):
        service = ResolutionService(workers=1)
        try:
            request = {"op": "resolve", "params": {"session": "s", "type": "Bool"}}
            response = self._queued_then_pushed(service, request, ["Bool"])
            assert response["error"]["code"] == ErrorCode.RESOLUTION_FAILURE
            # Sent after the push, the same query sees the new frame.
            assert service.handle_sync({"id": 4, **request})["ok"]
        finally:
            service.shutdown()

    def test_queued_lint_is_not_overtaken_by_a_push(self):
        service = ResolutionService(workers=1)
        try:
            request = {"op": "lint", "params": {"session": "s"}}
            # A second Int frame shadows the first (IC0502).
            response = self._queued_then_pushed(service, request, ["Int"])
            assert response["ok"] and response["result"]["diagnostics"] == []
            after = service.handle_sync({"id": 4, **request})["result"]
            assert [d["code"] for d in after["diagnostics"]] == ["IC0502"]
        finally:
            service.shutdown()


class TestConcurrentDifferential:
    """Server answers under concurrency == single-threaded pipeline answers."""

    PROGRAMS = [
        "1 + 2 * 3",
        "implicit showInt in let s : String = ? 3 in s",
        "if True then 10 else 20",
        '"a" ++ "bc"',
    ]
    QUERIES = ["C0", "C3", "C8"]

    def test_mixed_concurrent_load_matches_pipeline(self, service):
        new_session(service)
        # Ground truth, computed single-threaded through the public API.
        expected_values = {p: repr(run_source(p)) for p in self.PROGRAMS}
        env = ImplicitEnv.empty().push(
            [RuleEntry(parse_core_type(text)) for text in CHAIN]
        )
        reference = Resolver()
        expected_matches = {
            q: str(reference.resolve(env, parse_core_type(q)).lookup.entry.rho)
            for q in self.QUERIES
        }

        def drive(i):
            if i % 2 == 0:
                program = self.PROGRAMS[i % len(self.PROGRAMS)]
                response = service.handle_sync(
                    {
                        "id": i,
                        "op": "run_source",
                        "params": {"session": "t", "program": program},
                    }
                )
                assert response["ok"], response
                return ("run", program, response["result"]["value"])
            query = self.QUERIES[i % len(self.QUERIES)]
            response = service.handle_sync(
                {
                    "id": i,
                    "op": "resolve",
                    "params": {"session": "t", "type": query},
                }
            )
            assert response["ok"], response
            return ("resolve", query, response["result"]["matched"])

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(drive, range(40)))
        for kind, key, got in results:
            want = expected_values[key] if kind == "run" else expected_matches[key]
            assert got == want, (kind, key)

    def test_semantics_agree_through_the_server(self, service):
        new_session(service)
        values = {}
        for semantics in (Semantics.ELABORATE.value, Semantics.OPERATIONAL.value):
            response = service.handle_sync(
                {
                    "id": 1,
                    "op": "run_source",
                    "params": {
                        "session": "t",
                        "program": "implicit showInt in let s : String = ? 3 in s",
                        "semantics": semantics,
                    },
                }
            )
            assert response["ok"]
            values[semantics] = response["result"]["value"]
        assert values["elaborate"] == values["operational"]
