"""Every transport bounds a request line at ``MAX_LINE_BYTES``.

An over-long line is answered ``invalid_request`` with ``id: null``,
dropped through its newline, and the connection and server keep
serving.  Each stream type has one transport that serves both
deployments, so each case runs against both.  The stdio cases run the
real ``repro serve`` over pipes.
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
from repro.service.protocol import MAX_LINE_BYTES, read_bounded_line
from repro.service.server import ResolutionService
from repro.service.shards import ShardSupervisor

OVERLONG = b"x" * (MAX_LINE_BYTES + 10) + b"\n"
#: Past asyncio's 64 KiB default stream limit, well under the cap.
BIG_ECHO = "y" * 100_000


def _ping(request_id: int, echo: str = "") -> bytes:
    line = {"id": request_id, "op": "ping", "params": {"echo": echo}}
    return json.dumps(line).encode("utf-8") + b"\n"


def _assert_the_cap_is_answered(read_response) -> None:
    big = read_response()
    assert big["id"] == 1 and big["result"]["echo"] == BIG_ECHO
    capped = read_response()
    assert capped["id"] is None
    assert capped["error"]["code"] == "invalid_request"
    assert str(MAX_LINE_BYTES) in capped["error"]["message"]
    after = read_response()
    assert after["id"] == 2 and after["result"]["pong"]


class TestReadBoundedLine:
    @pytest.mark.parametrize("stream", [io.BytesIO, io.StringIO])
    def test_the_cap_excludes_the_newline(self, stream):
        fits = "a" * MAX_LINE_BYTES + "\n"
        over = "b" * (MAX_LINE_BYTES + 1) + "\n"
        text = fits + over + "next\n"
        source = stream(text.encode() if stream is io.BytesIO else text)
        first = read_bounded_line(source.readline)
        assert len(first) == MAX_LINE_BYTES + 1
        assert read_bounded_line(source.readline) is None
        assert read_bounded_line(source.readline) in ("next\n", b"next\n")
        assert not read_bounded_line(source.readline)

    def test_an_over_long_last_line_without_newline_is_dropped(self):
        source = io.BytesIO(b"c" * (3 * MAX_LINE_BYTES))
        assert read_bounded_line(source.readline) is None
        assert read_bounded_line(source.readline) == b""


@pytest.mark.parametrize("workers", ["0", "1"])
def test_stdio_server_survives_an_over_long_line(workers):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--stdio",
         "--workers", workers, "--threads", "1"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    payload = _ping(1, BIG_ECHO) + OVERLONG + _ping(2)

    def send() -> None:  # the big echo reply must be read while we write
        proc.stdin.write(payload)
        proc.stdin.flush()

    writer = threading.Thread(target=send, daemon=True)
    try:
        writer.start()
        _assert_the_cap_is_answered(lambda: json.loads(proc.stdout.readline()))
        writer.join(timeout=30)
        proc.stdin.write(b'{"id": 3, "op": "shutdown"}\n')
        proc.stdin.flush()
        assert json.loads(proc.stdout.readline())["result"]["stopping"]
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdin.close()
        proc.stdout.close()


@pytest.mark.parametrize(
    "deployment",
    [
        pytest.param(lambda: ResolutionService(workers=1, queue_depth=4), id="single"),
        pytest.param(
            lambda: ShardSupervisor(workers=1, threads=1, queue_depth=4),
            id="sharded",
        ),
    ],
)
def test_tcp_server_survives_an_over_long_line(deployment):
    service = deployment()
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    thread = threading.Thread(
        target=serve_tcp, args=(service, "127.0.0.1", port), daemon=True
    )
    thread.start()
    conn = None
    for _ in range(100):
        try:
            conn = socket.create_connection(("127.0.0.1", port), timeout=10)
            break
        except OSError:
            time.sleep(0.05)
    assert conn is not None, "TCP transport never came up"
    payload = _ping(1, BIG_ECHO) + OVERLONG + _ping(2)
    writer = threading.Thread(target=conn.sendall, args=(payload,), daemon=True)
    reader = conn.makefile("rb")
    try:
        writer.start()
        _assert_the_cap_is_answered(lambda: json.loads(reader.readline()))
        writer.join(timeout=30)
        conn.sendall(b'{"id": 3, "op": "shutdown"}\n')
        assert json.loads(reader.readline())["result"]["stopping"]
    finally:
        reader.close()
        conn.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
