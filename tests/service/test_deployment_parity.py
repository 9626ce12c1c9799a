"""Both deployments answer every op of the vocabulary alike.

A one-shard :class:`ShardSupervisor` and a single-process
:class:`ResolutionService` share one op vocabulary and one set of
parameter checks (:mod:`repro.service.protocol`).  For every op this
sends one valid and one invalid request to both and requires identical
responses, so an op known to one deployment and not the other, or a
check with a different message, fails here.
"""

import pytest

from repro.service.server import ResolutionService
from repro.service.shards import ShardSupervisor

CHAIN = ["C0"] + ["{C%d} => C%d" % (i - 1, i) for i in range(1, 6)]

#: op -> (set-up requests, a valid request's params, an invalid one's).
#: A params value that is not an object is invalid for every op.
CASES = {
    "ping": ([], {"echo": [1, "x"]}, "not an object"),
    "version": ([], {}, ["not", "an", "object"]),
    "server/stats": ([], {}, 7),
    "session/new": (
        [],
        {"name": "new", "rules": ["Int"], "policy": "most_specific"},
        {"name": "new2", "rules": "Int"},
    ),
    "session/push_rules": (
        [("session/new", {"name": "push"})],
        {"session": "push", "rules": ["Char", "{Char} => Bool"]},
        {"session": "push", "rules": ["Char", 3]},
    ),
    "session/pop": (
        [("session/new", {"name": "pop", "rules": ["Int"]})],
        {"session": "pop"},
        {"session": 5},
    ),
    "session/stats": ([], {"session": "t"}, {"session": "nope"}),
    "session/close": (
        [("session/new", {"name": "close"})],
        {"session": "close"},
        {"session": "close"},  # already closed by the valid request
    ),
    "resolve": ([], {"session": "t", "type": "C5"}, {"session": "t", "type": 3}),
    "typecheck": (
        [],
        {"session": "t", "program": "1", "core": True},
        {"session": "t", "program": "1", "deadline_ms": -1},
    ),
    "run_core": ([], {"session": "t", "program": "1"}, {"session": "t"}),
    "run_source": (
        [],
        {"session": "t", "program": "1 + 2"},
        {"session": 3, "program": "1"},
    ),
    "lint": ([], {"session": "t"}, {"session": "t", "program": 5}),
    "subtyping/check": (
        [],
        {"session": "t", "type": "C5"},
        {"session": "t"},
    ),
    "debug/sleep": ([], {"seconds": 0}, {"seconds": -1}),
}


@pytest.fixture(scope="module")
def services():
    single = ResolutionService(workers=2, queue_depth=16)
    sharded = ShardSupervisor(workers=1, threads=2, queue_depth=16)
    for svc in (single, sharded):
        assert _call(svc, "session/new", {"name": "t", "rules": CHAIN})["ok"]
    yield single, sharded
    single.shutdown()
    sharded.shutdown()


def _call(svc, op, params):
    return svc.handle_sync({"id": 1, "op": op, "params": params})


def _comparable(op, response):
    if op == "server/stats" and response.get("ok"):
        # Deployment-specific views (uptime, shards); the counters agree.
        return {"ok": True, "counters": sorted(response["result"]["counters"])}
    return response


def test_the_cases_cover_the_whole_vocabulary():
    from repro.service.protocol import SERVER_OPS, SESSION_OPS, WORK_OPS

    assert set(CASES) | {"shutdown"} == set(SERVER_OPS + SESSION_OPS + WORK_OPS)


@pytest.mark.parametrize("op", sorted(CASES))
def test_both_deployments_answer_alike(services, op):
    setup, valid, invalid = CASES[op]
    answers = []
    for svc in services:
        for setup_op, params in setup:
            assert _call(svc, setup_op, params)["ok"]
        answers.append(
            [_comparable(op, _call(svc, op, p)) for p in (valid, invalid)]
        )
    (single_valid, single_invalid), (sharded_valid, sharded_invalid) = answers
    assert single_valid["ok"], single_valid
    assert not single_invalid["ok"], single_invalid
    assert sharded_valid == single_valid
    assert sharded_invalid == single_invalid


def test_unknown_ops_and_shutdown_answer_alike():
    single = ResolutionService(workers=1, queue_depth=4)
    sharded = ShardSupervisor(workers=1, threads=1, queue_depth=4)
    try:
        for op in ("nope", "session/nope"):
            reply = _call(single, op, {})
            assert reply["error"]["code"] == "unknown_op"
            assert _call(sharded, op, {}) == reply
        bad = _call(single, "shutdown", [])
        assert not bad["ok"] and _call(sharded, "shutdown", []) == bad
        assert _call(single, "shutdown", {}) == _call(sharded, "shutdown", {})
    finally:
        single.shutdown()
        sharded.shutdown()


#: Scripts written whole before any answer is read: each request reaches
#: ``process`` while the ones before it may still be in flight.
PIPELINED = {
    "new-then-resolve": [
        ("session/new", {"name": "p", "rules": ["Int"]}),
        ("resolve", {"session": "p", "type": "Int"}),
    ],
    "new-twice": [
        ("session/new", {"name": "q", "rules": ["Int"]}),
        ("session/new", {"name": "q", "rules": ["Bool"]}),
        ("resolve", {"session": "q", "type": "Int"}),
    ],
    "push-pop-close": [
        ("session/new", {"name": "r"}),
        ("session/push_rules", {"session": "r", "rules": ["Int"]}),
        ("resolve", {"session": "r", "type": "Int"}),
        ("session/pop", {"session": "r"}),
        ("session/pop", {"session": "r"}),
        ("resolve", {"session": "r", "type": "Int"}),
        ("session/close", {"session": "r"}),
        ("resolve", {"session": "r", "type": "Int"}),
        ("session/new", {"name": "r", "rules": ["Bool"]}),
        ("resolve", {"session": "r", "type": "Bool"}),
    ],
}


def _pipelined(svc, script):
    from concurrent.futures import Future

    from repro.service.protocol import Request

    outcomes = [
        svc.process(Request(i, op, params)) for i, (op, params) in enumerate(script)
    ]
    return [
        o.result(timeout=30) if isinstance(o, Future) else o for o in outcomes
    ]


@pytest.mark.parametrize("name", sorted(PIPELINED))
def test_pipelined_session_ops_answer_alike(name):
    single = ResolutionService(workers=1, queue_depth=16)
    sharded = ShardSupervisor(workers=2, threads=1, queue_depth=16)
    try:
        expected = _pipelined(single, PIPELINED[name])
        assert _pipelined(sharded, PIPELINED[name]) == expected
    finally:
        single.shutdown()
        sharded.shutdown()
