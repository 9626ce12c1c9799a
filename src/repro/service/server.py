"""The resolution server: operation dispatch plus stdio/TCP transports.

Architecture (see ``docs/SERVICE.md`` for the wire-level view)::

    transport (stdio line loop / TCP connection threads)
        |  parse_request
        v
    ResolutionService.process_line
        |-- control ops (session/*, stats, ping, shutdown): inline,
        |   they only touch registry state under short locks
        |-- a `resolve` the session's derivation cache already holds:
        |   answered inline on the calling thread (never queued, shed
        |   or coalesced)
        `-- other work ops (resolve, typecheck, run_*): submitted to the
            bounded WorkerPool -> Future[response dict]
                |-- queue past watermark  -> `overloaded` (shed at the door)
                |-- deadline expired while queued -> `timeout`
                `-- singleflight: identical concurrent work keyed on the
                    derivation-cache key shares one execution

Responses may complete out of order; transports write them under a lock
as their futures land, and clients match on ``id``.

Every work request collects into a fresh per-request
:class:`~repro.obs.ResolutionStats` (the recorder slot is thread-local),
which is then merged into the owning session's totals and the server's
totals -- served by ``session/stats`` and ``server/stats``.
"""

from __future__ import annotations

import socketserver
import sys
import threading
import time
import weakref
from concurrent.futures import Future, wait as wait_futures
from typing import Any, Callable, TextIO

from ..core.cache import ResolutionCache
from ..core.parser import parse_core_expr, parse_core_type
from ..core.pretty import pretty_type
from ..core.terms import EMPTY_SIGNATURE
from ..core.types import Type
from ..errors import (
    DeadlineExceededError,
    EvalError,
    ImplicitCalculusError,
    ParseError,
    ResolutionError,
)
from ..obs import ResolutionStats, collecting
from ..pipeline import Semantics, compile_source, run_core, typecheck_core
from .protocol import (
    SERVER_OPS,
    SESSION_OPS,
    WORK_OPS,
    ErrorCode,
    ProtocolError,
    Request,
    Service,
    deadline_of,
    dispatch_table,
    encode,
    error_response,
    LINE_TOO_LONG,
    ok_response,
    query_param,
    read_bounded_line,
    rules_param,
    session_new_params,
    unknown_op,
)
from .sessions import SessionConfig, SessionRegistry
from .worker import Overloaded, SingleFlight, WorkerPool

#: Cap for ``debug/sleep`` so a hostile client cannot park a worker.
MAX_DEBUG_SLEEP = 5.0


class ResolutionService(Service):
    """Dispatches decoded requests; owns sessions, pool and counters."""

    def __init__(
        self,
        *,
        workers: int = 4,
        queue_depth: int = 64,
        coalesce: bool = True,
        default_config: SessionConfig | None = None,
        cache_dir: str | None = None,
    ):
        self.registry = SessionRegistry()
        self.pool = WorkerPool(workers=workers, watermark=queue_depth)
        self.flight = SingleFlight() if coalesce else None
        self.default_config = default_config or SessionConfig()
        self.stats = ResolutionStats()
        self._stats_lock = threading.Lock()
        #: Query text -> its parsed, interned type.  Weak-valued: an entry
        #: lives exactly as long as a derivation cache or a caller holds
        #: the type, so the memo needs no bound of its own.
        self._query_types: "weakref.WeakValueDictionary[str, Type]" = (
            weakref.WeakValueDictionary()
        )
        self.requests = 0
        self.stopping = threading.Event()
        self._started = time.monotonic()
        #: Durable layer (``--cache-dir``): a shared derivation store all
        #: session caches read/write through, plus a session journal so a
        #: restart rebuilds sessions disk-warm (docs/PERSISTENCE.md).
        self.store = None
        self.journal = None
        self.sessions_restored = 0
        if cache_dir is not None:
            import os

            from ..store import DerivationStore, SessionJournal

            self.store = DerivationStore(cache_dir)
            self.journal = SessionJournal(os.path.join(cache_dir, "sessions.log"))
            self._restore_sessions()
        self._control: dict[str, Callable[[Request], Any]] = dispatch_table(
            self, SERVER_OPS + SESSION_OPS
        )
        self._work: dict[
            str, Callable[[Request, float | None, ResolutionStats], Any]
        ] = dispatch_table(self, WORK_OPS)

    # -- durable sessions --------------------------------------------------

    def _restore_sessions(self) -> None:
        """Rebuild journaled sessions at startup, caches disk-warm.

        Each restored push routes through :meth:`Session.push_rules`,
        which warms the new environment's persisted derivations out of
        the store -- the replacement for supervisor-side request replay.
        The journal is then compacted down to the surviving state.
        """
        from ..store import config_from_doc
        from .wire import decode_type

        state = self.journal.replay()
        for name in sorted(state):
            journaled = state[name]
            session = None
            try:
                config = (
                    config_from_doc(journaled.config)
                    if journaled.config is not None
                    else self.default_config
                )
                session = self.registry.create(name, config, store=self.store)
                for frame in journaled.frames:
                    session.push_rules([decode_type(w) for w in frame])
            except Exception:  # noqa: BLE001 - damaged journal state degrades
                if session is not None:
                    try:
                        self.registry.close(name)
                    except Exception:  # noqa: BLE001
                        pass
                state.pop(name, None)
                continue
            self.sessions_restored += 1
        self.journal.rewrite(state)

    @staticmethod
    def _wire_rules(rules: "list[str | Type] | None") -> "list[str] | None":
        """Rules as wire strings for the journal; ``None`` if uncodable."""
        from .wire import WireError, encode_type

        if not rules:
            return []
        try:
            return [
                encode_type(r if isinstance(r, Type) else parse_core_type(r))
                for r in rules
            ]
        except (WireError, ImplicitCalculusError):
            return None

    # -- entry point -------------------------------------------------------

    def process(self, request: Request) -> "dict | Future":
        """One request -> a response dict or a Future of one.

        Control operations and derivation-cache hits complete inline;
        other work operations return a :class:`~concurrent.futures.Future`
        resolving to the response dict (never raising -- errors are
        encoded as error responses).
        """
        with self._stats_lock:
            self.requests += 1
        handler = self._control.get(request.op)
        if handler is not None:
            try:
                return ok_response(request.id, handler(request))
            except ProtocolError as exc:
                return error_response(request.id, exc.code, str(exc))
            except ParseError as exc:
                # Rule-type strings in session/new and session/push_rules.
                return error_response(
                    request.id, ErrorCode.PROGRAM_PARSE_ERROR, str(exc)
                )
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                return error_response(request.id, ErrorCode.INTERNAL, repr(exc))
        if request.op not in self._work:
            return unknown_op(request)
        if self.stopping.is_set():
            return error_response(
                request.id,
                ErrorCode.SHUTTING_DOWN,
                "server is shutting down",
                backoff_ms=100,
            )
        try:
            deadline = deadline_of(request.params)
        except ProtocolError as exc:
            return error_response(request.id, exc.code, str(exc))
        if request.op == "resolve":
            request, cached = self._probe(request)
            if cached:
                return self._execute(request, deadline)
        try:
            return self.pool.submit(lambda: self._execute(request, deadline))
        except Overloaded as exc:
            with self._stats_lock:
                self.stats.shed_requests += 1
            return error_response(
                request.id,
                ErrorCode.OVERLOADED,
                str(exc),
                backoff_ms=exc.backoff_ms,
                details={"queue_depth": exc.depth, "watermark": exc.watermark},
            )

    # -- request execution -------------------------------------------------

    def _query_type(self, params: dict) -> Type:
        """The ``type`` param of a query op as an interned :class:`Type`.

        The compact wire path ships the query pre-parsed (decoding
        interned it); query text is parsed once and then served from
        the memo.
        """
        query = params.get("type")
        if isinstance(query, Type):
            return query
        rho = self._query_types.get(query_param(query))
        if rho is None:
            rho = self._query_types[query] = parse_core_type(query)
        return rho

    def _probe(self, request: Request) -> "tuple[Request, bool]":
        """Parse a ``resolve`` query once and probe the session's cache.

        Returns the request with its query parsed (the worker reuses the
        :class:`Type`) and whether the in-memory derivation cache already
        holds the answer.  The probe never reads through to a disk store
        and records no counters: :meth:`_execute` then resolves as usual
        and counts the hit, or recomputes if the entry was evicted in
        between -- on the calling thread, reading through to a
        ``--cache-dir`` store if the session has one.  A request the
        worker must reject (unknown session, bad query) is left for it
        to answer.
        """
        try:
            session = self.registry.get(request.params.get("session"))
            rho = self._query_type(request.params)
        except Exception:
            # Whatever the failure (a coded error, a RecursionError on a
            # deeply nested query), the worker answers it as before: an
            # exception escaping here would end the transport loop.
            return request, False
        request = Request(request.id, request.op, {**request.params, "type": rho})
        resolver = session.resolver
        cache = resolver.cache
        if cache is None:
            return request, False
        key = ResolutionCache.key_for(
            session.current_env(), rho, resolver.strategy, resolver.policy
        )
        return request, cache.holds(key, resolver.fuel)

    def _execute(self, request: Request, deadline: float | None) -> dict:
        """Runs on a worker thread, or inline for a derivation-cache hit;
        always returns a response dict."""
        request_stats = ResolutionStats()
        session = None
        session_name = request.params.get("session")
        try:
            if session_name is not None:
                session = self.registry.get(session_name)
            if deadline is not None and time.monotonic() >= deadline:
                # Expired while queued: answer without wasting the worker.
                raise DeadlineExceededError(
                    "deadline expired before execution started"
                )
            with collecting(request_stats):
                result = self._work[request.op](request, deadline, request_stats)
            response = ok_response(request.id, result)
        except ProtocolError as exc:
            response = error_response(request.id, exc.code, str(exc))
        except DeadlineExceededError as exc:
            request_stats.deadline_timeouts += 1
            response = error_response(
                request.id, ErrorCode.TIMEOUT, str(exc), backoff_ms=50
            )
        except ResolutionError as exc:
            response = error_response(
                request.id,
                ErrorCode.RESOLUTION_FAILURE,
                str(exc),
                details={"error": type(exc).__name__},
            )
        except ParseError as exc:
            response = error_response(
                request.id, ErrorCode.PROGRAM_PARSE_ERROR, str(exc)
            )
        except EvalError as exc:
            response = error_response(request.id, ErrorCode.EVAL_ERROR, str(exc))
        except ImplicitCalculusError as exc:
            response = error_response(
                request.id,
                ErrorCode.TYPE_ERROR,
                str(exc),
                details={"error": type(exc).__name__},
            )
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            response = error_response(request.id, ErrorCode.INTERNAL, repr(exc))
        if request.params.get("stats"):
            response["stats"] = request_stats.as_dict()
        if session is not None:
            session.record(request_stats)
        with self._stats_lock:
            self.stats.merge(request_stats)
        return response

    def _coalesced(
        self,
        key: tuple | None,
        fn: Callable[[], Any],
        request_stats: ResolutionStats,
    ) -> Any:
        """Run ``fn`` through singleflight when a key is available."""
        if key is None or self.flight is None:
            return fn()
        result, coalesced = self.flight.do(key, fn)
        if coalesced:
            request_stats.coalesced_requests += 1
        return result

    # -- control operations ------------------------------------------------

    def _op_server_stats(self, request: Request) -> dict:
        with self._stats_lock:
            counters = self.stats.as_dict()
            requests = self.requests
        result = {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "requests": requests,
            "sessions": len(self.registry),
            "sessions_created": self.registry.created,
            "workers": self.pool.workers,
            "queue_depth": self.pool.queue_depth(),
            "queue_watermark": self.pool.watermark,
            "queue_high_water": self.pool.high_water,
            "coalescing": self.flight is not None,
            "counters": counters,
        }
        if self.store is not None:
            result["store"] = self.store.stats_view()
            result["sessions_restored"] = self.sessions_restored
        return result

    def _op_shutdown(self, request: Request) -> dict:
        self.stopping.set()
        return {"stopping": True}

    def _op_session_new(self, request: Request) -> dict:
        name, rules, config_params = session_new_params(request.params)
        config = (
            SessionConfig.from_params(request.params)
            if config_params
            else self.default_config
        )
        session = self.registry.create(name, config, store=self.store)
        depth = 0
        if rules:
            try:
                depth = session.push_rules(rules)
            except Exception:
                # A bad initial frame must not leave a half-built session
                # behind under the requested name.
                self.registry.close(session.name)
                raise
        if self.journal is not None:
            wired = self._wire_rules(rules)
            if wired is not None:
                from ..store import config_doc

                self.journal.record_new(
                    session.name,
                    config_doc(config) if config is not self.default_config else None,
                    wired,
                )
        return {"session": session.name, "depth": depth}

    def _op_session_push_rules(self, request: Request) -> dict:
        session = self.registry.get(request.params.get("session"))
        rules = rules_param(request.params.get("rules"))
        depth = session.push_rules(rules)
        if self.journal is not None:
            wired = self._wire_rules(rules)
            if wired is not None:
                self.journal.record_push(session.name, wired)
        return {"session": session.name, "depth": depth}

    def _op_session_pop(self, request: Request) -> dict:
        session = self.registry.get(request.params.get("session"))
        depth = session.pop()
        if self.journal is not None:
            self.journal.record_pop(session.name)
        return {"session": session.name, "depth": depth}

    def _op_session_stats(self, request: Request) -> dict:
        return self.registry.get(request.params.get("session")).stats_result()

    def _op_session_close(self, request: Request) -> dict:
        session = self.registry.close(request.params.get("session"))
        if self.journal is not None:
            self.journal.record_close(session.name)
        return {"session": session.name, "closed": True}

    # -- work operations ---------------------------------------------------

    def _op_resolve(
        self, request: Request, deadline: float | None, request_stats: ResolutionStats
    ) -> dict:
        session = self.registry.get(request.params.get("session"))
        rho = self._query_type(request.params)
        env = session.current_env()
        resolver = session.resolver_for(deadline)
        key = None
        if deadline is None:
            cache_key = ResolutionCache.key_for(
                env, rho, resolver.strategy, resolver.policy
            )
            # The derivation-cache key *is* the identity of this unit of
            # work: identical concurrent queries share one proof.  A query
            # the cache already answers has nothing to share.
            if resolver.cache is None or not resolver.cache.holds(
                cache_key, resolver.fuel
            ):
                key = ("resolve", session.name, cache_key, resolver.fuel)

        def work() -> dict:
            derivation = resolver.resolve(env, rho)
            result = {
                "resolved": True,
                "query": str(rho),
                "matched": str(derivation.lookup.entry.rho),
                "size": derivation.size(),
            }
            if request.params.get("explain"):
                from ..core.explain import explain_derivation

                result["explain"] = explain_derivation(derivation)
            if request.params.get("signature"):
                from ..fuzz.oracles import derivation_signature
                from .wire import encode_signature

                result["signature"] = encode_signature(
                    derivation_signature(derivation)
                )
            return result

        return self._coalesced(key, work, request_stats)

    def _op_subtyping_check(
        self, request: Request, deadline: float | None, request_stats: ResolutionStats
    ) -> dict:
        """Decide the query by intersection subtyping (decision only).

        Unlike ``resolve`` this never produces evidence, so it cannot
        fail with a resolution error: the three-valued verdict *is* the
        answer, and ``holds`` folds it to a boolean for callers that
        only care whether the paper's modus-ponens relation accepts.
        """
        from ..subtyping import SubtypingVerdict, decide

        session = self.registry.get(request.params.get("session"))
        rho = self._query_type(request.params)
        env = session.current_env()

        def work() -> dict:
            result = decide(env, rho)
            return {
                "query": str(rho),
                "holds": result.verdict is SubtypingVerdict.HOLDS,
                "verdict": result.verdict.value,
                "steps": result.steps,
                "conjuncts": result.conjuncts,
                "reason": result.reason,
            }

        return self._coalesced(None, work, request_stats)

    def _session_and_semantics(
        self, request: Request
    ) -> tuple[Any, Semantics, bool]:
        session = self.registry.get(request.params.get("session"))
        semantics_name = request.params.get("semantics")
        if semantics_name is None:
            semantics = session.config.semantics
        else:
            try:
                semantics = Semantics(semantics_name)
            except ValueError as exc:
                raise ProtocolError(ErrorCode.INVALID_REQUEST, str(exc)) from exc
        verify = bool(request.params.get("verify", False))
        return session, semantics, verify

    @staticmethod
    def _program_text(request: Request) -> str:
        text = request.params.get("program")
        if not isinstance(text, str):
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "'program' must be a string")
        return text

    def _op_typecheck(
        self, request: Request, deadline: float | None, request_stats: ResolutionStats
    ) -> dict:
        session, _, _ = self._session_and_semantics(request)
        text = self._program_text(request)
        core = bool(request.params.get("core", False))
        resolver = session.resolver_for(deadline)
        key = None
        if deadline is None:
            key = ("typecheck", session.name, core, text,
                   resolver.strategy, resolver.policy, resolver.fuel)

        def work() -> dict:
            if core:
                expr, signature = parse_core_expr(text), EMPTY_SIGNATURE
            else:
                compiled = compile_source(text)
                expr, signature = compiled.expr, compiled.signature
            tau = typecheck_core(expr, signature=signature, resolver=resolver)
            return {"type": pretty_type(tau)}

        return self._coalesced(key, work, request_stats)

    def _run_program(
        self,
        request: Request,
        deadline: float | None,
        request_stats: ResolutionStats,
        core: bool,
    ) -> dict:
        session, semantics, verify = self._session_and_semantics(request)
        text = self._program_text(request)
        resolver = session.resolver_for(deadline)
        key = None
        if deadline is None:
            key = ("run", session.name, core, text, semantics, verify,
                   resolver.strategy, resolver.policy, resolver.fuel)

        def work() -> dict:
            if core:
                expr, signature = parse_core_expr(text), EMPTY_SIGNATURE
            else:
                compiled = compile_source(text)
                expr, signature = compiled.expr, compiled.signature
            run = run_core(
                expr,
                signature=signature,
                resolver=resolver,
                semantics=semantics,
                verify=verify,
            )
            return {
                "type": pretty_type(run.type),
                "value": repr(run.value),
                "semantics": semantics.value,
            }

        return self._coalesced(key, work, request_stats)

    def _op_run_core(
        self, request: Request, deadline: float | None, request_stats: ResolutionStats
    ) -> dict:
        return self._run_program(request, deadline, request_stats, core=True)

    def _op_run_source(
        self, request: Request, deadline: float | None, request_stats: ResolutionStats
    ) -> dict:
        return self._run_program(request, deadline, request_stats, core=False)

    def _op_lint(
        self, request: Request, deadline: float | None, request_stats: ResolutionStats
    ) -> dict:
        """Static diagnostics over a source program or the session env.

        With a ``program`` param the source text is linted in full
        (parse, well-formedness, style); without one the session's
        current implicit environment is linted frame by frame.  Findings
        are data, not failures: the response is always ``ok`` and
        carries the sorted diagnostic list.
        """
        from ..diagnostics import lint_env, lint_source

        session = self.registry.get(request.params.get("session"))
        policy = session.config.policy
        text = request.params.get("program")
        if text is not None and not isinstance(text, str):
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "'program' must be a string")
        env = session.current_env()
        key = ("lint", session.name, policy, text, env.fingerprint())

        def work() -> dict:
            if text is not None:
                diagnostics = lint_source(text, policy=policy)
            else:
                diagnostics = lint_env(env, policy=policy)
            return {
                "diagnostics": [d.as_dict() for d in diagnostics],
                "errors": sum(d.severity.value == "error" for d in diagnostics),
                "warnings": sum(d.severity.value == "warning" for d in diagnostics),
            }

        return self._coalesced(key, work, request_stats)

    def _op_debug_sleep(
        self, request: Request, deadline: float | None, request_stats: ResolutionStats
    ) -> dict:
        seconds = request.params.get("seconds", 0.1)
        if not isinstance(seconds, (int, float)) or seconds < 0:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, "'seconds' must be non-negative"
            )
        seconds = min(float(seconds), MAX_DEBUG_SLEEP)
        end = time.monotonic() + seconds
        while True:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise DeadlineExceededError("debug/sleep exceeded its deadline")
            if now >= end:
                return {"slept": seconds}
            time.sleep(min(0.01, end - now))

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> None:
        self.stopping.set()
        self.pool.shutdown(wait=True)
        if self.journal is not None:
            self.journal.close()
            self.journal = None
        if self.store is not None:
            self.store.close()
            self.store = None


# ---------------------------------------------------------------------------
# Transports.
# ---------------------------------------------------------------------------


def _pump(
    service: ResolutionService,
    read_line: Callable[[], "str | None"],
    write_line: Callable[[str], None],
) -> None:
    """Shared transport loop: read, dispatch, write completions.

    ``read_line`` returns ``None`` for a line over
    :data:`~repro.service.protocol.MAX_LINE_BYTES` (answered with
    ``invalid_request``) and ``""`` at EOF.  ``write_line`` must be safe
    to call from worker callback threads (the transports pass a
    lock-guarded writer).  Returns when the input is exhausted or a
    ``shutdown`` request was answered; outstanding futures are drained
    before returning so shutdown is clean, never lossy.
    """
    outstanding: set[Future] = set()
    tracking = threading.Lock()
    while True:
        line = read_line()
        if line is None:
            write_line(LINE_TOO_LONG)
            continue
        if not line:
            break
        if not line.strip():
            continue
        outcome = service.process_line(line)
        if isinstance(outcome, Future):
            with tracking:
                outstanding.add(outcome)

            def _finish(future: Future) -> None:
                with tracking:
                    outstanding.discard(future)
                write_line(encode(future.result()))

            outcome.add_done_callback(_finish)
            continue
        write_line(encode(outcome))
        if service.stopping.is_set():
            break
    with tracking:
        pending = tuple(outstanding)
    wait_futures(pending)


def serve_stdio(
    service: ResolutionService,
    stdin: TextIO | None = None,
    stdout: TextIO | None = None,
) -> int:
    """Serve JSON-lines over stdio until EOF or a ``shutdown`` request."""
    reader = stdin if stdin is not None else sys.stdin
    writer = stdout if stdout is not None else sys.stdout
    write_lock = threading.Lock()

    def write_line(text: str) -> None:
        with write_lock:
            writer.write(text + "\n")
            writer.flush()

    try:
        _pump(service, lambda: read_bounded_line(reader.readline), write_line)
    finally:
        service.shutdown()
    return 0


def serve_tcp(service: ResolutionService, host: str, port: int) -> int:
    """Serve JSON-lines over TCP; one thread per connection.

    A ``shutdown`` request stops the whole server (all connections), not
    just the issuing connection.
    """

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:  # pragma: no cover - exercised via tests
            write_lock = threading.Lock()

            def write_line(text: str) -> None:
                with write_lock:
                    try:
                        self.wfile.write(text.encode("utf-8") + b"\n")
                        self.wfile.flush()
                    except (BrokenPipeError, OSError):
                        pass  # client went away; nothing to tell it

            def read_line() -> "str | None":
                data = read_bounded_line(self.rfile.readline)
                return data if data is None else data.decode("utf-8")

            _pump(service, read_line, write_line)
            if service.stopping.is_set():
                threading.Thread(target=server.shutdown, daemon=True).start()

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server((host, port), Handler) as server:
        try:
            server.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:  # pragma: no cover
            pass
        finally:
            service.shutdown()
    return 0
