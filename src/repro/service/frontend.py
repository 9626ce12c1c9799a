"""The TCP transport: one asyncio server for both deployments.

``repro serve --tcp HOST:PORT`` runs one event loop that owns every
connection, whether it fronts a single-process
:class:`~repro.service.server.ResolutionService` or a
:class:`~repro.service.shards.ShardSupervisor`.  Each incoming JSON line
is dispatched synchronously (``process_line`` does not block: control
ops and derivation-cache hits answer inline, the rest is queued on a
pool or written to a shard's pipe) and a returned
:class:`concurrent.futures.Future` is awaited as a task, so thousands of
in-flight requests cost one coroutine each instead of one thread each.
Completions are written as they land, out of order.

Stdio is served by the threaded loop in :mod:`repro.service.server`
instead: on a pipe the threaded loop is the faster of the two, and an
event loop cannot watch a regular file at all (docs/PERFORMANCE.md,
"Transports").
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future
from typing import Any, Awaitable, Callable

from .protocol import LINE_TOO_LONG, MAX_LINE_BYTES, encode


async def _read_bounded(stream: asyncio.StreamReader) -> "str | None":
    """One line, or ``None`` for a line over the stream's limit
    (:data:`~repro.service.protocol.MAX_LINE_BYTES`), which is read
    through its newline and dropped.  Bytes that are not UTF-8 are
    replaced, so such a line is answered ``parse_error`` like any other
    line that is not JSON."""
    try:
        return (await stream.readuntil(b"\n")).decode("utf-8", "replace")
    except asyncio.IncompleteReadError as exc:
        return exc.partial.decode("utf-8", "replace")  # EOF: the last line, or ""
    except asyncio.LimitOverrunError:
        pass
    while True:
        try:
            await stream.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            await stream.readexactly(exc.consumed)


async def _pump_async(
    service: Any,
    readline: Callable[[], Awaitable["str | None"]],
    write_line: Callable[[str], Awaitable[None]],
) -> None:
    """One connection's loop: read, dispatch, write completions.

    Answers an over-long line (``readline`` gives ``None``) with
    ``invalid_request``, returns on EOF or once a ``shutdown`` request
    has been answered, then drains outstanding tasks so shutdown is
    clean, never lossy.
    """
    tasks: set[asyncio.Task] = set()

    async def complete(pending: Awaitable[dict]) -> None:
        await write_line(encode(await pending))

    while True:
        line = await readline()
        if line is None:
            await write_line(LINE_TOO_LONG)
            continue
        if not line:
            break
        if not line.strip():
            continue
        outcome = service.process_line(line)
        if isinstance(outcome, Future):
            task = asyncio.ensure_future(complete(asyncio.wrap_future(outcome)))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            continue
        await write_line(encode(outcome))
        if service.stopping.is_set():
            break
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)


async def _tcp_main(service: Any, host: str, port: int) -> None:
    stopped = asyncio.Event()
    #: Each open connection's task, with its reader and writer.
    connections: dict[
        asyncio.Task, tuple[asyncio.StreamReader, asyncio.StreamWriter]
    ] = {}

    async def serve_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async def write_line(text: str) -> None:
            if writer.is_closing():
                return  # client went away; nothing to tell it
            try:
                writer.write(text.encode("utf-8") + b"\n")
                await writer.drain()
            except OSError:
                pass

        try:
            await _pump_async(service, lambda: _read_bounded(reader), write_line)
        finally:
            writer.close()
        if service.stopping.is_set():
            stopped.set()

    def connect(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # A plain callback, not a coroutine, so every connection's task
        # is registered the moment it exists and shutdown can await it.
        if stopped.is_set():
            writer.close()
            return
        task = asyncio.ensure_future(serve_connection(reader, writer))
        connections[task] = (reader, writer)
        task.add_done_callback(connections.pop)

    server = await asyncio.start_server(connect, host, port, limit=MAX_LINE_BYTES)
    # From Python 3.12.1 on, leaving ``async with server`` waits for every
    # connection to close, so the connections are ended inside it.
    async with server:
        await stopped.wait()
        server.close()
        # A shutdown stops the whole server, not just the connection
        # that asked.  Every other connection ends as if its client had
        # closed its input: its answers in flight are still written,
        # then it closes.
        while connections:
            for reader, writer in connections.values():
                writer.transport.pause_reading()
                reader.feed_eof()
            await asyncio.wait(list(connections))


def serve_tcp(service: Any, host: str, port: int) -> int:
    """Serve JSON lines over TCP until a ``shutdown`` request."""
    try:
        asyncio.run(_tcp_main(service, host, port))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        service.shutdown()
    return 0
