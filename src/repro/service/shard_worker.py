"""One shard: a full resolution service behind compact wire frames.

``python -m repro.service.shard_worker`` is what the shard supervisor
(:mod:`repro.service.shards`) spawns N times.  Each worker is a
shared-nothing process owning its own :class:`ResolutionService` --
sessions, derivation caches, compiled tries, bounded thread pool,
singleflight coalescing and load shedding all live *per shard* -- and
speaks the compact wire format of :mod:`repro.service.wire` on
stdin/stdout: one frame per line, responses out of order, matched on
the id field.  The loop is the stdio transport's own
(:func:`repro.service.server._pump`), given a wire-frame handler and
encoder in place of the JSON ones.

A frame that does not decode is answered with a ``parse_error``
response addressed to the frame's (best-effort) id -- the
malformed-frame path the ``sharded`` fuzz oracle's corruption arm
exercises.  EOF on stdin or a ``shutdown`` op drains in-flight work and
exits 0.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import Future
from functools import partial

from .protocol import ErrorCode, error_response
from .server import ResolutionService, _pump
from . import wire


def _handle_frame(service: ResolutionService, line: str) -> "dict | Future":
    """One wire frame -> a response dict or a Future of one."""
    line = line.rstrip("\n")
    try:
        request = wire.decode_request(line)
    except wire.WireError as exc:
        return error_response(
            wire.peek_id(line), ErrorCode.PARSE_ERROR, f"malformed wire frame: {exc}"
        )
    return service.process(request)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument("--no-coalesce", action="store_true")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="per-shard persistent derivation store + session journal; a "
        "respawned worker restores its own sessions disk-warm from here "
        "instead of relying on supervisor replay",
    )
    args = parser.parse_args(argv)
    service = ResolutionService(
        workers=args.threads,
        queue_depth=args.queue_depth,
        coalesce=not args.no_coalesce,
        cache_dir=args.cache_dir,
    )
    # The supervisor is this pipe's only writer and has already capped
    # each client line, so frames are read whole, without a cap.
    return _pump(
        service,
        sys.stdin.readline,
        sys.stdout,
        partial(_handle_frame, service),
        wire.encode_response,
    )


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
