"""Shard supervisor: N shared-nothing worker processes, one front door.

The sharded deployment of the resolution service (``repro serve
--workers N``)::

    clients (JSON lines) --> transport: threaded stdio loop (server.py)
                                  |  or asyncio TCP server (frontend.py)
                                  v
                          ShardSupervisor.process
            control ops inline | session + work ops routed
                                  v
            consistent hash ring over session keys (wire.session_key:
            env fingerprint when created with rules, else name digest)
                                  v
        shard 0 .. shard N-1: each a subprocess running a complete
        ResolutionService (repro.service.shard_worker) -- own sessions,
        derivation caches, compiled tries, thread pool, singleflight
        coalescing and load shedding -- spoken to in the compact wire
        format of repro.service.wire.

Because one session's key never changes, its ``push_rules`` / ``pop`` /
``resolve`` traffic always lands on the same warm shard.  A shard reads
its pipe in order, so the supervisor changes its session table when it
routes a session op, not when the shard answers (and undoes the change
if the shard answers an error): a ``resolve`` written right behind a
``session/new`` finds its session, as it does in a single process.  The
supervisor keeps a *warm log* per session (creation params plus every
pushed frame, already wire-encoded) so it can

* **crash-restart**: a dead worker is respawned on next use (or by the
  health checker) and every session assigned to that slot is replayed
  onto the replacement (``worker_restarts`` counts these);
* **rebalance**: ``add_worker`` extends the ring; only the ~1/N
  sessions whose keys now belong to the new shard migrate
  (``shard_rebalances``), the consistent-hashing stability guarantee;
* **drain**: ``drain()`` stops intake (new session/work requests are
  shed with a retryable ``overloaded`` + backoff) while in-flight
  requests complete; ``shutdown()`` then stops the workers cleanly.

The supervisor routes from the op vocabulary in
:mod:`repro.service.protocol`.  What it must inspect to route -- session
names, rules, deadlines -- it validates with the same shared checks the
single-process server calls, in the same order; everything else (query
and program text, ``subtyping/check``, ...) the owning shard validates.
So the two deployments answer byte-for-byte alike, which the
``sharded`` fuzz oracle checks on every push/resolve/pop sequence.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable

from ..core.parser import parse_core_type
from ..core.types import Type
from ..errors import ParseError
from ..obs import ResolutionStats
from .protocol import (
    SERVER_OPS,
    SESSION_OPS,
    SESSIONLESS_OPS,
    WORK_OPS,
    ErrorCode,
    ProtocolError,
    Request,
    Service,
    claim_session_name,
    deadline_of,
    dispatch_table,
    error_response,
    find_session,
    ok_response,
    rules_param,
    session_new_params,
    unknown_op,
)
from .sessions import SessionConfig
from . import wire

#: Virtual nodes per shard on the consistent-hash ring.  Plenty for the
#: ~1/N remap property at single-digit shard counts.
DEFAULT_VNODES = 64

#: Backoff hint attached to drain-time sheds.
DRAIN_BACKOFF_MS = 100

_REPLAY_TIMEOUT_S = 30.0


class HashRing:
    """Consistent hashing with virtual nodes over byte keys.

    Point positions are SHA-256 based, so the ring layout -- and
    therefore session placement -- is stable across processes and runs.
    """

    def __init__(self, vnodes: int = DEFAULT_VNODES):
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._points: list[tuple[int, int]] = []  # (position, slot)

    @staticmethod
    def _position(data: bytes) -> int:
        return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")

    def add(self, slot: int) -> None:
        for i in range(self.vnodes):
            point = (self._position(b"slot%d#%d" % (slot, i)), slot)
            bisect.insort(self._points, point)

    def remove(self, slot: int) -> None:
        self._points = [p for p in self._points if p[1] != slot]

    def slots(self) -> set[int]:
        return {slot for _, slot in self._points}

    def lookup(self, key: bytes) -> int:
        """The slot owning ``key``: first ring point at or after it."""
        if not self._points:
            raise ValueError("empty hash ring")
        position = self._position(key)
        index = bisect.bisect_left(self._points, (position, -1))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


class ShardProcess:
    """One worker subprocess plus its reader thread and in-flight table.

    ``submit`` rewrites request ids to a per-shard counter (client ids
    are not unique across connections), ships the wire frame, and hands
    back a Future of the decoded response with the original id
    restored.  A dead worker (EOF, broken pipe) fails every in-flight
    request with a retryable ``worker_failed`` error.
    """

    def __init__(
        self,
        slot: int,
        argv: list[str],
        on_bytes: Callable[[int, int], None] | None = None,
    ):
        self.slot = slot
        self.process = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        assert self.process.stdin is not None and self.process.stdout is not None
        self._on_bytes = on_bytes
        self._lock = threading.Lock()
        self._pending: dict[int, tuple[Any, Future]] = {}
        self._wire_ids = itertools.count(1)
        self._dead = False
        self._reader = threading.Thread(
            target=self._read_loop, name=f"repro-shard-{slot}", daemon=True
        )
        self._reader.start()

    def alive(self) -> bool:
        return not self._dead and self.process.poll() is None

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def submit(self, request: Request) -> Future:
        wire_id = next(self._wire_ids)
        frame = wire.maybe_corrupt(
            wire.encode_request(Request(wire_id, request.op, request.params))
        )
        future: Future = Future()
        with self._lock:
            if self._dead:
                future.set_result(self._down_response(request.id))
                return future
            self._pending[wire_id] = (request.id, future)
        try:
            self.process.stdin.write(frame + "\n")
            self.process.stdin.flush()
        except (BrokenPipeError, OSError, ValueError):
            self._fail_pending()
            return future
        if self._on_bytes is not None:
            self._on_bytes(len(frame) + 1, 0)
        return future

    def _read_loop(self) -> None:
        stdout = self.process.stdout
        assert stdout is not None
        for line in stdout:
            line = line.rstrip("\n")
            if not line:
                continue
            if self._on_bytes is not None:
                self._on_bytes(0, len(line) + 1)
            try:
                response = wire.decode_response(line)
            except wire.WireError:
                continue  # a garbled response line cannot be matched
            with self._lock:
                entry = self._pending.pop(response.get("id"), None)
            if entry is not None:
                original_id, future = entry
                response["id"] = original_id
                future.set_result(response)
        self._fail_pending()

    @staticmethod
    def _down_response(request_id: Any) -> dict:
        return error_response(
            request_id,
            ErrorCode.WORKER_FAILED,
            f"shard worker exited mid-request",
            backoff_ms=50,
        )

    def _fail_pending(self) -> None:
        with self._lock:
            self._dead = True
            pending, self._pending = dict(self._pending), {}
        for original_id, future in pending.values():
            if not future.done():
                future.set_result(self._down_response(original_id))

    def kill(self) -> None:
        """Hard-kill the worker (crash-injection for lifecycle tests)."""
        self.process.kill()
        self.process.wait(timeout=10)
        self._reader.join(timeout=10)
        self._close_pipes()

    def stop(self, timeout: float = 10.0) -> None:
        """Close stdin (the worker drains and exits 0) and reap."""
        self._close(self.process.stdin)
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.wait(timeout=10)
        self._reader.join(timeout=10)
        self._close_pipes()

    def _close_pipes(self) -> None:
        """Close both pipes of a reaped worker.  Stdout is closed only once
        the reader thread has exited, so the close cannot race its read."""
        self._close(self.process.stdin)
        if not self._reader.is_alive():
            self._close(self.process.stdout)

    @staticmethod
    def _close(pipe: Any) -> None:
        try:
            if pipe is not None:
                pipe.close()
        except OSError:  # flushing stdin into a dead worker
            pass


class _SessionRecord:
    """The supervisor-side warm log for one session."""

    __slots__ = ("name", "key", "slot", "extras", "frames")

    def __init__(self, name: str, key: bytes, slot: int, extras: dict):
        self.name = name
        self.key = key
        self.slot = slot
        #: Non-name/rules ``session/new`` params (config), forwarded
        #: verbatim on replay.
        self.extras = extras
        #: One entry per live environment frame: the parsed rule types
        #: (cheap to hold -- interned) in push order.
        self.frames: list[list[Type]] = []


class ShardSupervisor(Service):
    """Routes requests to shard workers; owns placement and warm logs.

    A :class:`~repro.service.protocol.Service` like
    :class:`~repro.service.server.ResolutionService`, so every existing
    transport and the in-process client drive it unchanged.
    """

    #: Ops the supervisor forwards to a shard; the rest of the
    #: vocabulary it answers itself, and anything else is ``unknown_op``.
    _ROUTED_OPS = frozenset(SESSION_OPS + WORK_OPS)

    def __init__(
        self,
        *,
        workers: int = 2,
        threads: int = 2,
        queue_depth: int = 64,
        coalesce: bool = True,
        vnodes: int = DEFAULT_VNODES,
        health_interval: float | None = None,
        cache_dir: str | None = None,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive (0 means unsharded)")
        self.threads = threads
        self.queue_depth = queue_depth
        self.coalesce = coalesce
        #: With a cache dir, every shard slot gets its own persistent
        #: store + session journal under ``cache_dir/shard-<slot>`` (one
        #: directory per slot keeps the single-writer lock honest), and a
        #: respawned worker restores its sessions disk-warm from there --
        #: ``_shard_for`` then skips the in-memory warm-log replay.
        self.cache_dir = cache_dir
        self.stats = ResolutionStats()
        self._stats_lock = threading.Lock()
        self.requests = 0
        self.stopping = threading.Event()
        self._draining = False
        self._started = time.monotonic()
        self._lock = threading.Lock()  # shards + sessions + naming
        self._ring = HashRing(vnodes)
        self._shards: dict[int, ShardProcess] = {}
        self._sessions: dict[str, _SessionRecord] = {}
        self._auto_names = itertools.count(1)
        self._round_robin = itertools.count()
        self.sessions_created = 0
        for slot in range(workers):
            self._shards[slot] = self._spawn(slot)
            self._ring.add(slot)
        self._local = dispatch_table(self, SERVER_OPS)
        self._health_thread: threading.Thread | None = None
        if health_interval is not None:
            self._health_thread = threading.Thread(
                target=self._health_loop,
                args=(health_interval,),
                name="repro-shard-health",
                daemon=True,
            )
            self._health_thread.start()

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self, slot: int) -> ShardProcess:
        argv = [
            sys.executable,
            "-m",
            "repro.service.shard_worker",
            "--threads",
            str(self.threads),
            "--queue-depth",
            str(self.queue_depth),
        ]
        if not self.coalesce:
            argv.append("--no-coalesce")
        if self.cache_dir is not None:
            import os

            argv.extend(
                ["--cache-dir", os.path.join(self.cache_dir, f"shard-{slot}")]
            )
        return ShardProcess(slot, argv, on_bytes=self._count_bytes)

    def _count_bytes(self, sent: int, received: int) -> None:
        with self._stats_lock:
            self.stats.wire_bytes_out += sent
            self.stats.wire_bytes_in += received

    def _shard_for(self, slot: int) -> ShardProcess:
        """The live shard at ``slot``, restarting and re-warming if dead."""
        with self._lock:
            shard = self._shards[slot]
            if shard.alive():
                return shard
            replacement = self._spawn(slot)
            self._shards[slot] = replacement
            records = [r for r in self._sessions.values() if r.slot == slot]
        with self._stats_lock:
            self.stats.worker_restarts += 1
        if self.cache_dir is None:
            for record in records:
                self._replay(replacement, record)
        # else: the replacement restored its sessions (and their cached
        # derivations) from its own journal + store during startup.
        return replacement

    def _replay(self, shard: ShardProcess, record: _SessionRecord) -> None:
        """Re-warm one session onto ``shard`` from its warm log."""
        params: dict[str, Any] = {"name": record.name, **record.extras}
        with self._lock:
            frames = list(record.frames)
        steps = [Request(None, "session/new", params)]
        steps.extend(
            Request(None, "session/push_rules",
                    {"session": record.name, "rules": list(frame)})
            for frame in frames
        )
        for step in steps:
            response = shard.submit(step).result(timeout=_REPLAY_TIMEOUT_S)
            if not response.get("ok"):  # pragma: no cover - defensive
                raise RuntimeError(
                    f"session {record.name!r} failed to re-warm: {response}"
                )

    def check_health(self) -> int:
        """Probe every slot, restarting dead workers; returns restarts."""
        restarted = 0
        with self._lock:
            slots = sorted(self._shards)
        for slot in slots:
            with self._lock:
                dead = not self._shards[slot].alive()
            if dead and not self.stopping.is_set():
                self._shard_for(slot)
                restarted += 1
        return restarted

    def _health_loop(self, interval: float) -> None:  # pragma: no cover
        while not self.stopping.wait(interval):
            try:
                self.check_health()
            except Exception:
                pass  # never let the health checker kill the server

    def kill_worker(self, slot: int) -> None:
        """Crash-injection hook for the lifecycle tests."""
        with self._lock:
            shard = self._shards[slot]
        shard.kill()

    def add_worker(self) -> int:
        """Extend the ring by one shard; migrate only remapped sessions.

        Returns the number of sessions that moved -- by consistent
        hashing, only keys now owned by the new shard's virtual nodes,
        i.e. ~1/N of them.
        """
        with self._lock:
            slot = max(self._shards) + 1
            self._shards[slot] = self._spawn(slot)
            self._ring.add(slot)
            moved = [
                record
                for record in self._sessions.values()
                if self._ring.lookup(record.key) != record.slot
            ]
        migrated = 0
        for record in moved:
            target_slot = self._ring.lookup(record.key)
            target = self._shard_for(target_slot)
            self._replay(target, record)
            old_slot = record.slot
            record.slot = target_slot
            migrated += 1
            with self._stats_lock:
                self.stats.shard_rebalances += 1
            with self._lock:
                old = self._shards.get(old_slot)
            if old is not None and old.alive():
                old.submit(
                    Request(None, "session/close", {"session": record.name})
                )
        return migrated

    def workers(self) -> int:
        with self._lock:
            return len(self._shards)

    # -- entry point -------------------------------------------------------

    def process(self, request: Request) -> "dict | Future":
        with self._stats_lock:
            self.requests += 1
        op = request.op
        try:
            handler = self._local.get(op)
            if handler is not None:
                return ok_response(request.id, handler(request))
            if op in self._ROUTED_OPS:
                return self._route(request)
            return unknown_op(request)
        except ProtocolError as exc:
            return error_response(request.id, exc.code, str(exc))
        except ParseError as exc:
            return error_response(request.id, ErrorCode.PROGRAM_PARSE_ERROR, str(exc))
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return error_response(request.id, ErrorCode.INTERNAL, repr(exc))

    # -- local operations --------------------------------------------------

    def _op_shutdown(self, request: Request) -> dict:
        self._draining = True
        self.stopping.set()
        return {"stopping": True}

    # -- routing -----------------------------------------------------------

    def _route(self, request: Request) -> "dict | Future":
        if self._draining:
            return error_response(
                request.id, ErrorCode.OVERLOADED, "supervisor is draining",
                backoff_ms=DRAIN_BACKOFF_MS,
            )
        op = request.op
        if op == "session/new":
            return self._route_session_new(request)
        if op in SESSION_OPS:
            return self._route_session_op(request)
        # The single-process admission order: deadline validity is
        # checked before the session is looked at.
        deadline_of(request.params)
        if op in SESSIONLESS_OPS:
            with self._lock:
                slots = sorted(self._shards)
            slot = slots[next(self._round_robin) % len(slots)]
            return self._dispatch(self._shard_for(slot), request)
        record = self._record_of(request.params.get("session"))
        if op == "resolve" and isinstance(request.params.get("type"), str):
            # Ship structure: the worker interns the decoded type instead
            # of re-running the text parser.  A query that does not parse
            # goes as text, and the shard answers and counts it.
            try:
                rho = parse_core_type(request.params["type"])
            except (ParseError, RecursionError):
                pass
            else:
                request = Request(request.id, op, {**request.params, "type": rho})
        return self._dispatch(self._shard_for(record.slot), request)

    def _record_of(self, name: object) -> _SessionRecord:
        with self._lock:
            return find_session(self._sessions, name)

    def _route_session_new(self, request: Request) -> "dict | Future":
        params = request.params
        name, rules, extras = session_new_params(params)
        if extras:
            # Surface config errors locally in the single-process order
            # (before rule parsing); the worker re-validates on arrival.
            SessionConfig.from_params(params)
        with self._lock:
            name = claim_session_name(name, self._sessions, self._auto_names)
        parsed = [_parsed(r) for r in rules] if rules else []
        key = wire.session_key(name, parsed)
        slot = self._ring.lookup(key)
        shard = self._shard_for(slot)
        record = _SessionRecord(name, key, slot, extras)
        if parsed:
            record.frames.append(parsed)
        with self._lock:
            # Again: another connection may have taken the name since.
            claim_session_name(name, self._sessions, self._auto_names)
            self._sessions[name] = record
        forward: dict[str, Any] = {"name": name, **extras}
        if parsed:
            forward["rules"] = parsed

        def settle(response: dict) -> None:
            with self._lock:
                if response.get("ok"):
                    self.sessions_created += 1
                elif self._sessions.get(name) is record:
                    del self._sessions[name]

        return self._dispatch(
            shard, Request(request.id, "session/new", forward), settle
        )

    def _route_session_op(self, request: Request) -> "dict | Future":
        op = request.op
        record = self._record_of(request.params.get("session"))
        shard = self._shard_for(record.slot)
        if op == "session/push_rules":
            parsed = [_parsed(r) for r in rules_param(request.params.get("rules"))]
            request = Request(
                request.id, op, {"session": record.name, "rules": parsed}
            )
            with self._lock:
                record.frames.append(parsed)

            def settle(response: dict) -> None:
                if not response.get("ok"):
                    with self._lock:
                        _remove_identical(record.frames, parsed)

            return self._dispatch(shard, request, settle)
        if op == "session/pop":
            with self._lock:
                depth = len(record.frames)
                popped = record.frames.pop() if depth else None

            def settle(response: dict) -> None:
                if popped is not None and not response.get("ok"):
                    with self._lock:
                        record.frames.insert(depth - 1, popped)

            return self._dispatch(shard, request, settle)
        if op == "session/close":
            with self._lock:
                if self._sessions.get(record.name) is record:
                    del self._sessions[record.name]

            def settle(response: dict) -> None:
                if not response.get("ok"):
                    with self._lock:
                        self._sessions.setdefault(record.name, record)

            return self._dispatch(shard, request, settle)
        return self._dispatch(shard, request)

    def _dispatch(
        self,
        shard: ShardProcess,
        request: Request,
        settle: Callable[[dict], None] | None = None,
    ) -> Future:
        """Submit ``request`` to ``shard``; ``settle`` sees the response
        before the caller does."""
        with self._stats_lock:
            self.stats.shard_dispatches += 1
        inner = shard.submit(request)
        if settle is None:
            return inner
        outer: Future = Future()

        def finish(future: Future) -> None:
            response = future.result()
            settle(response)
            outer.set_result(response)

        inner.add_done_callback(finish)
        return outer

    # -- stats -------------------------------------------------------------

    def _op_server_stats(self, request: Request) -> dict:
        """One ``server/stats`` view summing counters across every shard."""
        shards = []
        total = self.stats.snapshot()
        with self._lock:
            slots = sorted(self._shards)
        shard_requests = 0
        for slot in slots:
            with self._lock:
                shard = self._shards[slot]
            if not shard.alive():
                shards.append({"slot": slot, "alive": False})
                continue
            response = shard.submit(
                Request(None, "server/stats", {})
            ).result(timeout=_REPLAY_TIMEOUT_S)
            if not response.get("ok"):  # pragma: no cover - defensive
                shards.append({"slot": slot, "alive": False})
                continue
            view = response["result"]
            shard_requests += view.get("requests", 0)
            entry = {
                "slot": slot,
                "alive": True,
                "requests": view.get("requests", 0),
                "sessions": view.get("sessions", 0),
                "counters": view.get("counters", {}),
            }
            if "store" in view:  # per-shard persistence (--cache-dir)
                entry["store"] = view["store"]
                entry["sessions_restored"] = view.get("sessions_restored", 0)
            shards.append(entry)
            total.merge(ResolutionStats(**view.get("counters", {})))
        with self._stats_lock:
            requests = self.requests
        with self._lock:
            sessions = len(self._sessions)
            created = self.sessions_created
            workers = len(self._shards)
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "requests": requests,
            "shard_requests": shard_requests,
            "sessions": sessions,
            "sessions_created": created,
            "workers": workers,
            "threads_per_worker": self.threads,
            "coalescing": self.coalesce,
            "shards": shards,
            "counters": total.as_dict(),
        }

    # -- lifecycle ---------------------------------------------------------

    def drain(self) -> None:
        """Stop intake; in-flight requests keep completing."""
        self._draining = True

    def shutdown(self, timeout: float = 30.0) -> None:
        """Drain, wait for in-flight work, then stop every worker."""
        self.drain()
        self.stopping.set()
        deadline = time.monotonic() + timeout
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            while shard.pending_count() and time.monotonic() < deadline:
                time.sleep(0.01)
        for shard in shards:
            shard.stop()

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()


def _parsed(text: "str | Type") -> Type:
    return text if isinstance(text, Type) else parse_core_type(text)


def _remove_identical(frames: list[list[Type]], frame: list[Type]) -> None:
    """Drop the last entry of ``frames`` that *is* ``frame``, if any."""
    for index in range(len(frames) - 1, -1, -1):
        if frames[index] is frame:
            del frames[index]
            return


#: The in-process facade name used by the fuzz oracle and the benches.
ShardedService = ShardSupervisor
