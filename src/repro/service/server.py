"""The resolution server: operation dispatch plus the stdio transport.

Architecture (see ``docs/SERVICE.md`` for the wire-level view)::

    transport (stdio line loop here / asyncio TCP server, frontend.py)
        |  parse_request
        v
    ResolutionService.process
        |-- control ops (session/*, stats, ping, shutdown): inline,
        |   they only touch registry state under short locks
        `-- work ops: checked and snapshotted once, on arrival, into a Job
                |-- a `resolve` the session's derivation cache holds:
                |   _execute(job) inline (never queued, shed or coalesced)
                `-- the rest: the bounded WorkerPool runs _execute(job)
                    -> Future[response dict]
                        |-- queue past watermark  -> `overloaded` (shed)
                        |-- deadline expired while queued -> `timeout`
                        `-- singleflight: identical concurrent work keyed
                            on the derivation-cache key shares one run

A job answers against the session as it stood on arrival, so a queued
request is not overtaken by a later ``session/push_rules``.  Responses
may complete out of order; transports write them as their futures land,
and clients match on ``id``.

The stdio loop (:func:`serve_stdio`) serves both deployments, and the
shard worker runs it on its wire-frame pipe.  It keeps ``asyncio`` out
of this module's imports: a process that only resolves in-process never
pays for the event loop.

Every work request collects into a fresh per-request
:class:`~repro.obs.ResolutionStats` (the recorder slot is thread-local),
which is then merged into the owning session's totals and the server's
totals -- served by ``session/stats`` and ``server/stats``.
"""

from __future__ import annotations

import sys
import threading
import time
import weakref
from concurrent.futures import Future, wait as wait_futures
from functools import partial
from typing import Any, Callable, TextIO

from ..core.cache import ResolutionCache
from ..core.env import ImplicitEnv
from ..core.parser import parse_core_expr, parse_core_type
from ..core.pretty import pretty_type
from ..core.resolution import Resolver
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
from ..pipeline import (
    Semantics, compile_source, run_core, stack_depth_errors, typecheck_core,
)
from .protocol import (
    SERVER_OPS,
    SESSION_OPS,
    SESSIONLESS_OPS,
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
from .sessions import Session, SessionConfig, SessionRegistry
from .worker import Overloaded, SingleFlight, WorkerPool

#: Cap for ``debug/sleep`` so a hostile client cannot park a worker.
MAX_DEBUG_SLEEP = 5.0


class Job:
    """One work request, checked and snapshotted once, on arrival.

    :meth:`ResolutionService.process` fills it in; the op's ``_op_*``
    method checks its params and returns ``work``, the thunk that
    :meth:`ResolutionService._execute` runs, inline for a cache hit or
    on the pool.  ``work`` closes over the snapshot (for ``resolve``:
    the interned query type and its derivation-cache key).  A request
    that fails a check carries the exception in ``error`` instead, and
    ``_execute`` answers with it.
    """

    __slots__ = ("request", "deadline", "session", "env", "resolver",
                 "work", "flight", "inline", "error")

    def __init__(self, request: Request, deadline: float | None):
        self.request = request
        self.deadline = deadline
        self.session: Session | None = None
        self.env: ImplicitEnv | None = None
        self.resolver: Resolver | None = None
        self.work: Callable[[], Any] | None = None
        #: Singleflight key, ``None`` when the job must run on its own.
        self.flight: tuple | None = None
        #: A derivation-cache hit, answered on the calling thread.
        self.inline = False
        self.error: Exception | None = None


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
        self._work: dict[str, Callable[[Job], Callable[[], Any]]] = (
            dispatch_table(self, WORK_OPS)
        )

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
        prepare = self._work.get(request.op)
        if prepare is None:
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
        job = Job(request, deadline)
        try:
            if request.op not in SESSIONLESS_OPS:
                session = job.session = self.registry.get(request.params.get("session"))
                job.env = session.current_env()
                job.resolver = session.resolver_for(deadline)
            job.work = prepare(job)
        except Exception as exc:  # noqa: BLE001 - answered by _execute
            # Whatever the failure (a coded error, a RecursionError on a
            # deeply nested query), the pool answers it like any other
            # work, so a bad request queues and sheds as a good one does.
            job.error = exc
        if job.inline:
            return self._execute(job)
        try:
            return self.pool.submit(partial(self._execute, job))
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

    def _execute(self, job: Job) -> dict:
        """Run one job, on a worker thread or inline for a derivation-cache
        hit; always returns a response dict."""
        request = job.request
        request_stats = ResolutionStats()
        try:
            if job.error is not None:
                raise job.error
            if job.deadline is not None and time.monotonic() >= job.deadline:
                # Expired while queued: answer without wasting the worker.
                raise DeadlineExceededError(
                    "deadline expired before execution started"
                )
            with collecting(request_stats):
                if job.flight is None or self.flight is None:
                    result = job.work()
                else:
                    result, coalesced = self.flight.do(job.flight, job.work)
                    request_stats.coalesced_requests += coalesced
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
        if job.session is not None:
            job.session.record(request_stats)
        with self._stats_lock:
            self.stats.merge(request_stats)
        return response

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
    #
    # Each runs on arrival: it checks its params against the job's
    # snapshot and returns the thunk that _execute later runs.

    def _op_resolve(self, job: Job) -> Callable[[], dict]:
        env, resolver = job.env, job.resolver
        rho = self._query_type(job.request.params)
        key = ResolutionCache.key_for(env, rho, resolver.strategy, resolver.policy)
        cache = resolver.cache
        if cache is not None and cache.holds(key, resolver.fuel):
            # A hit runs on the calling thread: never queued, shed or
            # coalesced (there is no proof to share).
            job.inline = True
        elif job.deadline is None:
            # The derivation-cache key *is* the identity of this unit of
            # work: identical concurrent queries share one proof.
            job.flight = ("resolve", job.session.name, key, resolver.fuel)
        params = job.request.params

        def work() -> dict:
            derivation = resolver.resolve(env, rho, _key=key)
            result = {
                "resolved": True,
                "query": str(rho),
                "matched": str(derivation.lookup.entry.rho),
                "size": derivation.size(),
            }
            if params.get("explain"):
                from ..core.explain import explain_derivation

                result["explain"] = explain_derivation(derivation)
            if params.get("signature"):
                from ..fuzz.oracles import derivation_signature
                from .wire import encode_signature

                result["signature"] = encode_signature(
                    derivation_signature(derivation)
                )
            return result

        return work

    def _op_subtyping_check(self, job: Job) -> Callable[[], dict]:
        """Decide the query by intersection subtyping (decision only).

        Unlike ``resolve`` this never produces evidence, so it cannot
        fail with a resolution error: the three-valued verdict *is* the
        answer, and ``holds`` folds it to a boolean for callers that
        only care whether the paper's modus-ponens relation accepts.
        """
        from ..subtyping import SubtypingVerdict, decide

        env = job.env
        rho = self._query_type(job.request.params)

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

        return work

    @staticmethod
    def _semantics(job: Job) -> Semantics:
        name = job.request.params.get("semantics")
        if name is None:
            return job.session.config.semantics
        try:
            return Semantics(name)
        except ValueError as exc:
            raise ProtocolError(ErrorCode.INVALID_REQUEST, str(exc)) from exc

    @staticmethod
    def _program_text(job: Job) -> str:
        text = job.request.params.get("program")
        if not isinstance(text, str):
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "'program' must be a string")
        return text

    @staticmethod
    def _parse_program(text: str, core: bool) -> tuple:
        if core:
            return parse_core_expr(text), EMPTY_SIGNATURE
        compiled = compile_source(text)
        return compiled.expr, compiled.signature

    def _op_typecheck(self, job: Job) -> Callable[[], dict]:
        self._semantics(job)  # checked as for the run ops, though unused
        text = self._program_text(job)
        core = bool(job.request.params.get("core", False))
        resolver = job.resolver
        if job.deadline is None:
            job.flight = ("typecheck", job.session.name, core, text,
                          resolver.strategy, resolver.policy, resolver.fuel)

        def work() -> dict:
            with stack_depth_errors():
                expr, signature = self._parse_program(text, core)
                tau = typecheck_core(expr, signature=signature, resolver=resolver)
            return {"type": pretty_type(tau)}

        return work

    def _run_program(self, job: Job, core: bool) -> Callable[[], dict]:
        semantics = self._semantics(job)
        verify = bool(job.request.params.get("verify", False))
        text = self._program_text(job)
        resolver = job.resolver
        if job.deadline is None:
            job.flight = ("run", job.session.name, core, text, semantics, verify,
                          resolver.strategy, resolver.policy, resolver.fuel)

        def work() -> dict:
            with stack_depth_errors():
                expr, signature = self._parse_program(text, core)
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

        return work

    def _op_run_core(self, job: Job) -> Callable[[], dict]:
        return self._run_program(job, core=True)

    def _op_run_source(self, job: Job) -> Callable[[], dict]:
        return self._run_program(job, core=False)

    def _op_lint(self, job: Job) -> Callable[[], dict]:
        """Static diagnostics over a source program or the session env.

        With a ``program`` param the source text is linted in full
        (parse, well-formedness, style); without one the session's
        implicit environment, as it stood on arrival, is linted frame
        by frame.  Findings are data, not failures: the response is
        always ``ok`` and carries the sorted diagnostic list.
        """
        from ..diagnostics import lint_env, lint_source

        policy = job.session.config.policy
        text = job.request.params.get("program")
        if text is not None and not isinstance(text, str):
            raise ProtocolError(ErrorCode.INVALID_REQUEST, "'program' must be a string")
        env = job.env
        job.flight = ("lint", job.session.name, policy, text, env.fingerprint())

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

        return work

    def _op_debug_sleep(self, job: Job) -> Callable[[], dict]:
        seconds = job.request.params.get("seconds", 0.1)
        if not isinstance(seconds, (int, float)) or seconds < 0:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, "'seconds' must be non-negative"
            )
        seconds = min(float(seconds), MAX_DEBUG_SLEEP)
        deadline = job.deadline

        def work() -> dict:
            end = time.monotonic() + seconds
            while True:
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    raise DeadlineExceededError("debug/sleep exceeded its deadline")
                if now >= end:
                    return {"slept": seconds}
                time.sleep(min(0.01, end - now))

        return work

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
# The stdio transport (TCP is the asyncio server in ``frontend.py``).
# ---------------------------------------------------------------------------


def _pump(
    service: Service,
    read_line: Callable[[], "str | None"],
    stdout: TextIO,
    handle_line: "Callable[[str], dict | Future]",
    encode_response: Callable[[dict], str],
) -> int:
    """The stdio loop: read, dispatch, write completions, shut down.

    ``read_line`` returns ``None`` for a line over
    :data:`~repro.service.protocol.MAX_LINE_BYTES` (answered with
    ``invalid_request``) and ``""`` at EOF.  ``handle_line`` answers one
    line with a response dict or a Future of one; ``encode_response``
    turns a response into its line.
    Completions are written under a lock from whichever thread finishes
    them.  Returns when the input is exhausted or a ``shutdown`` request
    was answered, after every outstanding future has been written and
    the service shut down.
    """
    write_lock = threading.Lock()

    def write_line(text: str) -> None:
        with write_lock:
            stdout.write(text + "\n")
            stdout.flush()

    outstanding: set[Future] = set()
    tracking = threading.Lock()

    def finish(future: Future) -> None:
        with tracking:
            outstanding.discard(future)
        write_line(encode_response(future.result()))

    try:
        while True:
            line = read_line()
            if line is None:
                write_line(LINE_TOO_LONG)
                continue
            if not line:
                break
            if not line.strip():
                continue
            outcome = handle_line(line)
            if isinstance(outcome, Future):
                with tracking:
                    outstanding.add(outcome)
                outcome.add_done_callback(finish)
                continue
            write_line(encode_response(outcome))
            if service.stopping.is_set():
                break
        with tracking:
            pending = tuple(outstanding)
        wait_futures(pending)
    finally:
        service.shutdown()
    return 0


def serve_stdio(
    service: Service, stdin: TextIO | None = None, stdout: TextIO | None = None
) -> int:
    """Serve JSON lines over stdio until EOF or a ``shutdown`` request."""
    reader = stdin if stdin is not None else sys.stdin
    return _pump(
        service,
        lambda: read_bounded_line(reader.readline),
        stdout if stdout is not None else sys.stdout,
        service.process_line,
        encode,
    )
