"""Direct tests for the two transports, one per stream type.

:func:`repro.service.server.serve_stdio` serves both deployments over
stdio; these drive it against a real :class:`ShardSupervisor` with
``StringIO`` doubles and check the loop's obligations: inline control
responses, Future completions written as they land, blank-line
tolerance, clean stop on ``shutdown`` and on EOF.  The single process
runs the same loop in ``test_client_e2e.py``.

:func:`repro.service.frontend.serve_tcp` serves both deployments over
TCP; these run it over real sockets, in process and as ``repro serve``.
"""

from __future__ import annotations

import io
import json
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.service.frontend import serve_tcp
from repro.service.server import ResolutionService, serve_stdio
from repro.service.shards import ShardSupervisor


@pytest.fixture
def service():
    svc = ShardSupervisor(workers=1, threads=2, queue_depth=8)
    yield svc
    svc.shutdown()


def _drive(service, lines: list[str]) -> list[dict]:
    stdin = io.StringIO("".join(line + "\n" for line in lines))
    stdout = io.StringIO()
    assert serve_stdio(service, stdin=stdin, stdout=stdout) == 0
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def _by_id(responses: list[dict]) -> dict[int, dict]:
    return {r["id"]: r for r in responses}


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _connect(port: int) -> socket.socket:
    for _ in range(200):
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=30)
        except OSError:
            time.sleep(0.05)
    raise AssertionError("TCP server never came up")


def _serve_tcp_in_thread(service) -> "tuple[threading.Thread, int]":
    port = _free_port()
    thread = threading.Thread(
        target=serve_tcp, args=(service, "127.0.0.1", port), daemon=True
    )
    thread.start()
    return thread, port


class TestStdio:
    def test_control_and_work_ops_round_trip(self, service):
        responses = _drive(
            service,
            [
                '{"id": 1, "op": "ping"}',
                '{"id": 2, "op": "session/new",'
                ' "params": {"name": "s", "rules": ["Int"]}}',
                '{"id": 3, "op": "resolve",'
                ' "params": {"session": "s", "type": "Int"}}',
                '{"id": 4, "op": "subtyping/check",'
                ' "params": {"session": "s", "type": "Int"}}',
            ],
        )
        by_id = _by_id(responses)
        assert sorted(by_id) == [1, 2, 3, 4]
        assert by_id[1]["ok"]
        assert by_id[3]["result"]["resolved"] is True
        assert by_id[4]["result"]["holds"] is True

    def test_blank_lines_are_skipped(self, service):
        responses = _drive(
            service, ['{"id": 1, "op": "ping"}', "", "   ", '{"id": 2, "op": "ping"}']
        )
        assert sorted(_by_id(responses)) == [1, 2]

    def test_eof_ends_the_loop_and_shuts_the_service_down(self, service):
        assert _drive(service, []) == []
        assert service.stopping.is_set()  # finally-clause shutdown ran

    def test_shutdown_request_stops_before_remaining_input(self, service):
        responses = _drive(
            service,
            [
                '{"id": 1, "op": "ping"}',
                '{"id": 2, "op": "shutdown"}',
                '{"id": 3, "op": "ping"}',
            ],
        )
        by_id = _by_id(responses)
        assert sorted(by_id) == [1, 2]  # id 3 never dispatched
        assert by_id[2]["ok"]

    def test_future_completions_are_all_written(self, service):
        # debug/sleep parks one worker; the concurrent resolve must not
        # be lost, and both completions must be written before exit.
        responses = _drive(
            service,
            [
                '{"id": 1, "op": "session/new",'
                ' "params": {"name": "s", "rules": ["Int"]}}',
                '{"id": 2, "op": "debug/sleep", "params": {"seconds": 0.05}}',
                '{"id": 3, "op": "resolve",'
                ' "params": {"session": "s", "type": "Int"}}',
            ],
        )
        by_id = _by_id(responses)
        assert sorted(by_id) == [1, 2, 3]
        assert by_id[2]["ok"] and by_id[3]["ok"]

    def test_protocol_errors_still_answer_inline(self, service):
        responses = _drive(service, ['{"id": 1, "op": "no/such/op"}'])
        assert responses[0]["error"]["code"]


#: One client's script: its own session, pushes, resolves and a failure.
def _script(client: int) -> list[dict]:
    name = f"c{client}"
    steps = [
        ("session/new", {"name": name, "rules": ["Int"]}),
        ("resolve", {"session": name, "type": "Int"}),
        ("session/push_rules", {"session": name, "rules": ["{Int} => Bool"]}),
        ("resolve", {"session": name, "type": "Bool"}),
        ("resolve", {"session": name, "type": "Char"}),
        ("session/pop", {"session": name}),
        ("resolve", {"session": name, "type": "Bool"}),
        ("run_core", {"session": name, "program": "1"}),
        ("session/close", {"session": name}),
    ]
    return [
        {"id": 100 * client + i, "op": op, "params": params}
        for i, (op, params) in enumerate(steps)
    ]


DEPLOYMENTS = {
    "single": lambda: ResolutionService(workers=2, queue_depth=16),
    "sharded": lambda: ShardSupervisor(workers=2, threads=2, queue_depth=16),
}


class TestTcp:
    def test_ping_then_shutdown_over_a_real_socket(self):
        service = ResolutionService(workers=2, queue_depth=8)
        thread, port = _serve_tcp_in_thread(service)
        conn = _connect(port)
        try:
            conn.sendall(b'{"id": 1, "op": "ping"}\n{"id": 2, "op": "shutdown"}\n')
            reader = conn.makefile("r", encoding="utf-8")
            responses = _by_id([json.loads(reader.readline()) for _ in range(2)])
            assert responses[1]["ok"] and responses[2]["ok"]
            reader.close()
        finally:
            conn.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert service.stopping.is_set()

    def test_a_line_that_is_not_utf8_is_a_parse_error(self):
        service = ResolutionService(workers=1, queue_depth=4)
        thread, port = _serve_tcp_in_thread(service)
        conn = _connect(port)
        try:
            conn.sendall(b'\xff\xfe{"id": 1}\n{"id": 2, "op": "shutdown"}\n')
            reader = conn.makefile("r", encoding="utf-8")
            bad, stop = (json.loads(reader.readline()) for _ in range(2))
            reader.close()
        finally:
            conn.close()
        thread.join(timeout=10)
        assert bad["id"] is None and bad["error"]["code"] == "parse_error"
        assert stop["result"]["stopping"]

    @pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
    def test_concurrent_connections_match_the_in_process_transcript(
        self, deployment
    ):
        scripts = [_script(client) for client in (1, 2)]
        reference = DEPLOYMENTS[deployment]()
        try:
            expected = [
                [reference.handle_sync(request) for request in script]
                for script in scripts
            ]
        finally:
            reference.shutdown()
        service = DEPLOYMENTS[deployment]()
        thread, port = _serve_tcp_in_thread(service)
        conns = [_connect(port) for _ in scripts]
        readers = [conn.makefile("r", encoding="utf-8") for conn in conns]
        answers: list[list[dict]] = [[] for _ in scripts]

        def converse(index: int) -> None:
            # One request at a time per connection, both connections at once.
            for request in scripts[index]:
                conns[index].sendall(json.dumps(request).encode() + b"\n")
                answers[index].append(json.loads(readers[index].readline()))

        talkers = [
            threading.Thread(target=converse, args=(i,)) for i in range(len(scripts))
        ]
        try:
            for talker in talkers:
                talker.start()
            for talker in talkers:
                talker.join(timeout=60)
            conns[0].sendall(b'{"id": 0, "op": "shutdown"}\n')
            assert json.loads(readers[0].readline())["result"]["stopping"]
        finally:
            for reader, conn in zip(readers, conns):
                reader.close()
                conn.close()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert answers == expected

    @pytest.mark.parametrize("workers", ["0", "1"])
    def test_shutdown_closes_the_other_connections_cleanly(self, workers):
        port = _free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--tcp", f"127.0.0.1:{port}",
             "--workers", workers, "--threads", "1"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        idle = []
        try:
            for _ in range(2):
                conn = _connect(port)
                conn.sendall(b'{"id": 1, "op": "ping"}\n')
                idle.append((conn, conn.makefile("rb")))
                assert json.loads(idle[-1][1].readline())["ok"]
            with _connect(port) as third, third.makefile("rb") as reader:
                third.sendall(b'{"id": 2, "op": "shutdown"}\n')
                assert json.loads(reader.readline())["result"]["stopping"]
            assert proc.wait(timeout=30) == 0
            # The server closed the idle connections: they read EOF.
            assert all(reader.readline() == b"" for _, reader in idle)
            stderr = proc.stderr.read().decode()
            assert "Traceback" not in stderr, stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stderr.close()
            for conn, reader in idle:
                reader.close()
                conn.close()
