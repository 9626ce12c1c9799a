"""Python client for the resolution service, plus the CI smoke driver.

Three transports behind one :class:`ServiceClient` API:

* ``ServiceClient.spawn_stdio()`` -- fork a ``repro serve --stdio``
  subprocess and talk over its pipes (what the CI smoke job does);
* ``ServiceClient.connect_tcp(host, port)`` -- a TCP socket;
* ``ServiceClient.in_process(service)`` -- call straight into a
  :class:`~repro.service.server.ResolutionService` with no serialization
  thread (used by the differential tests and the B11 load generator,
  which wants to measure the server, not the pipes -- requests still go
  through the real worker pool, shedding and coalescing).

Pipelining: :meth:`ServiceClient.call_async` sends without waiting; a
reader thread routes responses to pending calls by ``id``, so a client
can keep many requests in flight on one connection (this is how the
smoke driver provokes a shed).

Run the smoke drives (each spawns its own server)::

    python -m repro.service.client --smoke          # single process
    python -m repro.service.client --smoke-sharded  # 2 shard processes
"""

from __future__ import annotations

import argparse
import json
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable

from .protocol import ErrorCode


class ServiceError(Exception):
    """An error response, surfaced client-side."""

    def __init__(self, error: dict):
        super().__init__(f"{error.get('code')}: {error.get('message')}")
        self.code = error.get("code")
        self.message = error.get("message")
        self.retryable = bool(error.get("retryable"))
        self.backoff_ms = error.get("backoff_ms")
        self.details = error.get("details")


class ServiceClient:
    """One connection to a resolution server (see module docstring)."""

    def __init__(
        self,
        send_line: Callable[[str], None] | None,
        read_line: Callable[[], str] | None,
        *,
        service: Any = None,
        process: subprocess.Popen | None = None,
        close_io: Callable[[], None] | None = None,
    ):
        self._send_line = send_line
        self._read_line = read_line
        self._service = service
        self._process = process
        self._close_io = close_io
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._pending: dict[Any, Future] = {}
        self._reader: threading.Thread | None = None
        self._closed = False
        if read_line is not None:
            self._reader = threading.Thread(
                target=self._read_loop, name="repro-client-reader", daemon=True
            )
            self._reader.start()

    # -- constructors ------------------------------------------------------

    @classmethod
    def spawn_stdio(cls, argv: list[str] | None = None) -> "ServiceClient":
        """Start ``repro serve --stdio`` as a subprocess and connect."""
        command = argv or [sys.executable, "-m", "repro", "serve", "--stdio"]
        process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,  # line buffered
        )
        assert process.stdin is not None and process.stdout is not None

        def send_line(text: str) -> None:
            process.stdin.write(text + "\n")
            process.stdin.flush()

        return cls(
            send_line,
            process.stdout.readline,
            process=process,
            close_io=process.stdin.close,
        )

    @classmethod
    def connect_tcp(cls, host: str, port: int) -> "ServiceClient":
        sock = socket.create_connection((host, port))
        reader = sock.makefile("r", encoding="utf-8")

        def send_line(text: str) -> None:
            sock.sendall(text.encode("utf-8") + b"\n")

        def close_io() -> None:
            try:
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            sock.close()

        return cls(send_line, reader.readline, close_io=close_io)

    @classmethod
    def in_process(cls, service: Any) -> "ServiceClient":
        """Wrap a :class:`ResolutionService` directly (no pipes)."""
        return cls(None, None, service=service)

    # -- plumbing ----------------------------------------------------------

    def _read_loop(self) -> None:
        assert self._read_line is not None
        while True:
            line = self._read_line()
            if not line:
                break
            try:
                response = json.loads(line)
            except json.JSONDecodeError:
                continue  # not ours to crash on; pending calls will time out
            with self._lock:
                future = self._pending.pop(response.get("id"), None)
            if future is not None:
                future.set_result(response)
        with self._lock:
            pending, self._pending = dict(self._pending), {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed the stream"))

    def call_async(self, op: str, params: dict | None = None) -> Future:
        """Send one request; the Future resolves to the raw response dict."""
        request_id = next(self._ids)
        payload = {"id": request_id, "op": op, "params": params or {}}
        if self._service is not None:
            future: Future = Future()
            outcome = self._service.process_line(json.dumps(payload))
            if isinstance(outcome, dict):
                future.set_result(outcome)
            else:
                outcome.add_done_callback(
                    lambda f: future.set_result(f.result())
                )
            return future
        future = Future()
        with self._lock:
            if self._closed:
                raise ConnectionError("client is closed")
            self._pending[request_id] = future
        assert self._send_line is not None
        self._send_line(json.dumps(payload))
        return future

    def call(self, op: str, params: dict | None = None, timeout: float = 60.0) -> dict:
        """Send and wait; returns ``result``, raises :class:`ServiceError`."""
        response = self.call_async(op, params).result(timeout=timeout)
        if not response.get("ok"):
            raise ServiceError(response.get("error") or {})
        return response.get("result", {})

    def call_raw(
        self, op: str, params: dict | None = None, timeout: float = 60.0
    ) -> dict:
        """Send and wait; returns the whole response (errors included)."""
        return self.call_async(op, params).result(timeout=timeout)

    # -- conveniences ------------------------------------------------------

    def ping(self) -> dict:
        return self.call("ping")

    def version(self) -> dict:
        return self.call("version")

    def server_stats(self) -> dict:
        return self.call("server/stats")

    def session(self, name: str | None = None, **config: Any) -> "SessionHandle":
        params: dict[str, Any] = dict(config)
        if name is not None:
            params["name"] = name
        result = self.call("session/new", params)
        return SessionHandle(self, result["session"])

    def shutdown(self) -> dict:
        result = self.call("shutdown")
        self.close()
        return result

    def close(self) -> None:
        with self._lock:
            self._closed = True
        if self._close_io is not None:
            try:
                self._close_io()
            except Exception:  # noqa: BLE001 - already tearing down
                pass
        if self._process is not None:
            self._process.wait(timeout=30)
        if self._reader is not None:
            self._reader.join(timeout=10)

    @property
    def returncode(self) -> int | None:
        return self._process.returncode if self._process is not None else None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SessionHandle:
    """Client-side view of one server session."""

    def __init__(self, client: ServiceClient, name: str):
        self.client = client
        self.name = name

    def __enter__(self) -> "SessionHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _params(self, extra: dict | None = None) -> dict:
        params = {"session": self.name}
        if extra:
            params.update(extra)
        return params

    def push_rules(self, rules: list[str]) -> int:
        return self.client.call(
            "session/push_rules", self._params({"rules": rules})
        )["depth"]

    def pop(self) -> int:
        return self.client.call("session/pop", self._params())["depth"]

    def resolve(self, type_text: str, **params: Any) -> dict:
        return self.client.call(
            "resolve", self._params({"type": type_text, **params})
        )

    def resolve_async(self, type_text: str, **params: Any) -> Future:
        return self.client.call_async(
            "resolve", self._params({"type": type_text, **params})
        )

    def typecheck(self, program: str, **params: Any) -> dict:
        return self.client.call(
            "typecheck", self._params({"program": program, **params})
        )

    def run_core(self, program: str, **params: Any) -> dict:
        return self.client.call(
            "run_core", self._params({"program": program, **params})
        )

    def run_source(self, program: str, **params: Any) -> dict:
        return self.client.call(
            "run_source", self._params({"program": program, **params})
        )

    def stats(self) -> dict:
        return self.client.call("session/stats", self._params())

    def close(self) -> dict:
        return self.client.call("session/close", self._params())


# ---------------------------------------------------------------------------
# The CI smoke drive: 50 mixed requests incl. one timeout and one shed.
# ---------------------------------------------------------------------------

SMOKE_CHAIN_DEPTH = 40


def _chain_rules(depth: int) -> list[str]:
    """``C0``, ``{C0} => C1``, ..., a linear resolution chain."""
    rules = ["C0"]
    rules.extend("{C%d} => C%d" % (i - 1, i) for i in range(1, depth + 1))
    return rules


def run_smoke(client: ServiceClient, requests: int = 50, verbose: bool = True) -> dict:
    """Drive mixed traffic; returns observed outcome counts.

    Expects a server configured with ``--workers 1 --queue-depth 1`` for
    a deterministic shed (the default invocation of ``--smoke`` passes
    exactly that).
    """

    def note(message: str) -> None:
        if verbose:
            print(message, flush=True)

    outcomes = {"ok": 0, "timeout": 0, "overloaded": 0, "resolution_failure": 0}
    assert client.version()["protocol"] >= 1
    session = client.session("smoke")
    session.push_rules(_chain_rules(SMOKE_CHAIN_DEPTH))

    # A deterministic shed: with one worker and a one-deep queue, a burst
    # of sleepers saturates both the worker and the queue within
    # milliseconds, so at least one burst member is rejected at the door
    # (the 0.4s blocker guarantees the queue cannot drain mid-burst).
    burst = [client.call_async("debug/sleep", {"seconds": 0.4})]
    burst.extend(
        client.call_async("debug/sleep", {"seconds": 0.0}) for _ in range(5)
    )
    shed = None
    for future in burst:
        response = future.result(timeout=30)
        if not response.get("ok"):
            assert response["error"]["code"] == ErrorCode.OVERLOADED, response
            shed = response
    assert shed is not None, "never saw an overloaded rejection"
    assert shed["error"]["retryable"] and shed["error"]["backoff_ms"] > 0
    outcomes["overloaded"] += 1
    note(f"shed observed: backoff_ms={shed['error']['backoff_ms']}")

    # A forced timeout: a zero deadline expires before execution starts.
    timed_out = client.call_raw(
        "resolve",
        {"session": "smoke", "type": f"C{SMOKE_CHAIN_DEPTH}", "deadline_ms": 0},
    )
    assert not timed_out.get("ok") and timed_out["error"]["code"] == ErrorCode.TIMEOUT
    outcomes["timeout"] += 1
    note("forced timeout observed")

    # Mixed steady-state traffic.  Sequential, with honest client-side
    # retry: on this deliberately tiny server (one worker, one queue
    # slot) a request can still race a draining burst remnant and shed,
    # and backing off as the error instructs is the protocol's answer.
    for i in range(requests):
        kind = i % 5
        if kind == 0:
            payload = ("resolve", {"session": "smoke", "type": f"C{i % SMOKE_CHAIN_DEPTH}"})
        elif kind == 1:
            payload = ("run_source", {"session": "smoke", "program": "1 + %d" % i})
        elif kind == 2:
            payload = (
                "typecheck",
                {"session": "smoke", "program": "if True then %d else 0" % i},
            )
        elif kind == 3:
            payload = ("resolve", {"session": "smoke", "type": "Unresolvable"})
        else:
            payload = ("session/stats", {"session": "smoke"})
        for _ in range(50):
            response = client.call_raw(*payload)
            error = response.get("error") or {}
            if response.get("ok") or not error.get("retryable"):
                break
            time.sleep((error.get("backoff_ms") or 25) / 1000.0)
        if response.get("ok"):
            outcomes["ok"] += 1
        else:
            code = response["error"]["code"]
            assert code == ErrorCode.RESOLUTION_FAILURE, response
            outcomes[code] += 1
    stats = client.server_stats()
    counters = stats["counters"]
    assert counters["shed_requests"] >= 1, counters
    assert counters["deadline_timeouts"] >= 1, counters
    assert outcomes["resolution_failure"] >= 1, outcomes
    note(f"server counters: {counters}")
    note(f"outcomes: {outcomes}")
    return outcomes


def run_smoke_sharded(
    client: ServiceClient, sessions: int = 8, verbose: bool = True
) -> dict:
    """Drive push/resolve/pop across many sessions of a sharded server.

    Expects a server started with ``--workers 2`` (or more).  Asserts
    that ``subtyping/check`` reaches a shard and holds, and that the
    aggregated ``server/stats`` view really sums the per-shard counters
    and request totals.
    """

    def note(message: str) -> None:
        if verbose:
            print(message, flush=True)

    assert client.version()["protocol"] >= 2
    handles = []
    for i in range(sessions):
        handle = client.session(f"shard-smoke-{i}")
        handle.push_rules(
            ["Int", "forall a . {a} => (a, a)", "{Int} => D%d" % i]
        )
        handles.append(handle)
    for i, handle in enumerate(handles):
        assert handle.resolve("(Int, Int)")["size"] == 2
        assert handle.resolve("D%d" % i)["resolved"]
        # Every op of the shared vocabulary reaches a shard, this one too.
        checked = client.call(
            "subtyping/check", {"session": handle.name, "type": "(Int, Int)"}
        )
        assert checked["holds"], checked
        handle.push_rules(["Char"])
        assert handle.resolve("Char")["resolved"]
        assert handle.pop() == 1
        failed = client.call_raw(
            "resolve", {"session": handle.name, "type": "Char"}
        )
        assert failed["error"]["code"] == ErrorCode.RESOLUTION_FAILURE, failed
    stats = client.server_stats()
    assert stats["workers"] >= 2, stats
    per_shard = [s for s in stats["shards"] if s.get("alive")]
    assert len(per_shard) == stats["workers"], stats["shards"]
    # The one `--stats` view really is the sum over every shard.
    assert stats["shard_requests"] == sum(s["requests"] for s in per_shard)
    assert stats["sessions"] == sum(s["sessions"] for s in per_shard)
    totals = stats["counters"]
    for key in ("queries", "resolve_steps", "lookup_calls", "unify_calls"):
        assert totals[key] == sum(s["counters"][key] for s in per_shard), key
    assert totals["queries"] >= sessions * 4
    assert totals["shard_dispatches"] >= sessions * 7
    assert totals["wire_bytes_out"] > 0 and totals["wire_bytes_in"] > 0
    for handle in handles:
        handle.close()
    note(
        "sharded smoke: %d sessions over %d shards, %d dispatches, "
        "%d wire bytes out / %d in"
        % (
            sessions,
            stats["workers"],
            totals["shard_dispatches"],
            totals["wire_bytes_out"],
            totals["wire_bytes_in"],
        )
    )
    return stats


def _smoke_main(args: argparse.Namespace) -> int:
    serve_argv = [
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
    client = ServiceClient.spawn_stdio(serve_argv)
    try:
        run_smoke(client, requests=args.requests)
        client.shutdown()
    finally:
        client.close()
    if client.returncode != 0:
        print(f"server exited with {client.returncode}", file=sys.stderr)
        return 1
    print(f"SMOKE OK ({args.requests} mixed requests, clean shutdown)")
    return 0


def _smoke_sharded_main(args: argparse.Namespace) -> int:
    serve_argv = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--stdio",
        "--workers",
        "2",
        "--threads",
        "2",
    ]
    client = ServiceClient.spawn_stdio(serve_argv)
    try:
        run_smoke_sharded(client, sessions=args.sessions)
        client.shutdown()
    finally:
        client.close()
    if client.returncode != 0:
        print(f"server exited with {client.returncode}", file=sys.stderr)
        return 1
    print(
        f"SHARDED SMOKE OK ({args.sessions} sessions over 2 shards, "
        "clean shutdown)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="spawn a small server and drive the CI smoke workload",
    )
    parser.add_argument(
        "--smoke-sharded",
        action="store_true",
        help="spawn a 2-shard server and drive multi-session traffic, "
        "asserting cross-shard stats aggregation",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=50,
        help="mixed requests to drive in --smoke mode (default 50)",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=8,
        help="sessions to drive in --smoke-sharded mode (default 8)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke_main(args)
    if args.smoke_sharded:
        return _smoke_sharded_main(args)
    parser.error("nothing to do (pass --smoke or --smoke-sharded)")
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
