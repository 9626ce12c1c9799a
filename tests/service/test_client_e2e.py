"""End-to-end: the Python client against real server processes.

These tests spawn actual ``repro serve`` subprocesses (stdio) and TCP
listeners, so they cover the transports, the out-of-order response
matching and the clean-shutdown path the CI smoke job relies on.
"""

import subprocess
import sys
import threading

import pytest

from repro.service.client import ServiceClient, ServiceError, run_smoke
from repro.service.frontend import serve_tcp
from repro.service.server import ResolutionService

SERVE_SMALL = [
    sys.executable,
    "-m",
    "repro",
    "serve",
    "--stdio",
    "--workers",
    "0",
    "--threads",
    "2",
    "--queue-depth",
    "8",
]


@pytest.fixture
def stdio_client():
    client = ServiceClient.spawn_stdio(SERVE_SMALL)
    yield client
    try:
        client.shutdown()
    except Exception:  # noqa: BLE001 - already shut down by the test
        pass
    client.close()


class TestStdioTransport:
    def test_full_session_conversation(self, stdio_client):
        client = stdio_client
        assert client.ping()["pong"]
        assert client.version()["protocol"] >= 1
        session = client.session("work")
        assert session.push_rules(["Int", "{Int} => (Int, Int)"]) == 1
        result = session.resolve("(Int, Int)")
        assert result["resolved"] and result["matched"] == "{Int} => (Int, Int)"
        run = session.run_source("1 + 2")
        assert run["value"] == "3" and run["type"] == "Int"
        check = session.typecheck("if True then 1 else 2")
        assert check["type"] == "Int"
        stats = session.stats()
        assert stats["requests"] >= 3

    def test_errors_surface_as_service_errors(self, stdio_client):
        session = stdio_client.session("err")
        with pytest.raises(ServiceError) as excinfo:
            session.resolve("Bool")
        assert excinfo.value.code == "resolution_failure"
        assert not excinfo.value.retryable

    def test_pipelined_requests_match_by_id(self, stdio_client):
        session = stdio_client.session("pipe")
        session.push_rules(["Int"])
        # Six in flight fits the 2-worker/8-deep server even if every
        # request lands in the queue before a worker wakes up.
        futures = [session.resolve_async("Int") for _ in range(6)]
        responses = [f.result(timeout=30) for f in futures]
        assert len({r["id"] for r in responses}) == 6  # distinct ids, all matched
        assert all(r["ok"] for r in responses), responses

    def test_shutdown_is_clean(self):
        client = ServiceClient.spawn_stdio(SERVE_SMALL)
        client.ping()
        client.shutdown()
        assert client.returncode == 0


class TestTcpTransport:
    def test_two_connections_share_sessions(self):
        service = ResolutionService(workers=2, queue_depth=8)
        # Bind on a fixed ephemeral port chosen by the OS first, so the
        # test does not race the listener: serve_tcp needs a concrete
        # port, so grab one ourselves and hand it over.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        server_thread = threading.Thread(
            target=serve_tcp, args=(service, "127.0.0.1", port), daemon=True
        )
        server_thread.start()
        deadline_client = None
        try:
            for _ in range(100):  # wait for the listener to come up
                try:
                    deadline_client = ServiceClient.connect_tcp("127.0.0.1", port)
                    break
                except OSError:
                    import time

                    time.sleep(0.02)
            assert deadline_client is not None
            session = deadline_client.session("shared")
            session.push_rules(["Int"])
            second = ServiceClient.connect_tcp("127.0.0.1", port)
            try:
                # Sessions are server-scoped, not connection-scoped.
                result = second.call(
                    "resolve", {"session": "shared", "type": "Int"}
                )
                assert result["resolved"]
            finally:
                second.close()
            deadline_client.call("shutdown")
        finally:
            if deadline_client is not None:
                deadline_client.close()
            server_thread.join(timeout=10)
            assert not server_thread.is_alive()


class TestSmokeDrive:
    @pytest.mark.slow
    def test_ci_smoke_drive(self):
        # The exact workload CI runs: tiny server, mixed traffic, one
        # forced timeout, one forced shed, clean shutdown.
        result = subprocess.run(
            [sys.executable, "-m", "repro.service.client", "--smoke"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "SMOKE OK" in result.stdout

    def test_smoke_helper_against_inline_server(self):
        # Faster variant used in the default test tier: same drive, but
        # through a client bound to a subprocess with the smoke shape.
        client = ServiceClient.spawn_stdio(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--stdio",
                "--workers",
                "0",
                "--threads",
                "1",
                "--queue-depth",
                "1",
            ]
        )
        try:
            outcomes = run_smoke(client, requests=15, verbose=False)
            assert outcomes["overloaded"] >= 1
            assert outcomes["timeout"] >= 1
            assert outcomes["ok"] > 0
            client.shutdown()
            assert client.returncode == 0
        finally:
            client.close()
