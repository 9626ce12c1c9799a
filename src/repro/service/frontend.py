"""Async front-end transports for the sharded resolution service.

One event loop owns request intake (``repro serve --workers N``): each
incoming JSON line is dispatched synchronously (routing in the shard
supervisor is non-blocking -- validation, a hash-ring lookup and a pipe
write) and the returned :class:`concurrent.futures.Future` is awaited
as a task, so thousands of in-flight requests cost one coroutine each
instead of one thread each.  Completions are written as they land,
out of order, exactly like the threaded transports in ``server.py``.

Works unchanged against a single-process
:class:`~repro.service.server.ResolutionService` too -- both expose the
same ``process_line`` / ``stopping`` / ``shutdown`` surface -- but the
threaded transports remain the default for ``--workers 0`` so the
single-process path is byte-for-byte what it was.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from concurrent.futures import Future
from typing import Any, Awaitable, Callable, TextIO

from .protocol import LINE_TOO_LONG, MAX_LINE_BYTES, encode, read_bounded_line


async def _read_bounded(stream: asyncio.StreamReader) -> "str | None":
    """One line, or ``None`` for a line over the stream's limit
    (:data:`~repro.service.protocol.MAX_LINE_BYTES`), which is read
    through its newline and dropped."""
    try:
        return (await stream.readuntil(b"\n")).decode("utf-8")
    except asyncio.IncompleteReadError as exc:
        return exc.partial.decode("utf-8")  # EOF: the last line, or ""
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
    """The async transport loop: read, dispatch, write completions.

    Mirrors ``server._pump``: answers an over-long line (``readline``
    gives ``None``) with ``invalid_request``, returns on EOF or once a
    ``shutdown`` request has been answered, then drains outstanding
    tasks so shutdown is clean, never lossy.
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


async def _stdio_main(service: Any, stdin: TextIO, stdout: TextIO) -> None:
    loop = asyncio.get_running_loop()
    write_lock = threading.Lock()

    async def write_line(text: str) -> None:
        with write_lock:
            stdout.write(text + "\n")
            stdout.flush()

    try:
        stream = asyncio.StreamReader(limit=MAX_LINE_BYTES)
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(stream), stdin
        )

        async def readline() -> "str | None":
            return await _read_bounded(stream)

    except (ValueError, OSError, AttributeError):
        # Not a pipe/tty (a regular file, or a test double without a
        # fileno): fall back to reading on the default executor.
        async def readline() -> "str | None":
            return await loop.run_in_executor(
                None, read_bounded_line, stdin.readline
            )

    await _pump_async(service, readline, write_line)


def serve_stdio_async(
    service: Any, stdin: TextIO | None = None, stdout: TextIO | None = None
) -> int:
    """Serve JSON lines over stdio on an event loop until EOF/shutdown."""
    try:
        asyncio.run(
            _stdio_main(
                service,
                stdin if stdin is not None else sys.stdin,
                stdout if stdout is not None else sys.stdout,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        service.shutdown()
    return 0


async def _tcp_main(service: Any, host: str, port: int) -> None:
    stopped = asyncio.Event()

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async def write_line(text: str) -> None:
            try:
                writer.write(text.encode("utf-8") + b"\n")
                await writer.drain()
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass  # client went away; nothing to tell it

        await _pump_async(service, lambda: _read_bounded(reader), write_line)
        try:
            writer.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        if service.stopping.is_set():
            # Like the threaded TCP transport: shutdown stops the whole
            # server, all connections, not just the issuing one.
            stopped.set()

    server = await asyncio.start_server(handle, host, port, limit=MAX_LINE_BYTES)
    async with server:
        await stopped.wait()


def serve_tcp_async(service: Any, host: str, port: int) -> int:
    """Serve JSON lines over TCP on an event loop; task per connection."""
    try:
        asyncio.run(_tcp_main(service, host, port))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        service.shutdown()
    return 0
