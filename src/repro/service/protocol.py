"""The JSON-lines wire protocol of the resolution service.

One request per line, one response per line, UTF-8, ``\n``-terminated.
Responses carry the request's ``id`` and may arrive **out of order**
(the server executes requests on a worker pool), so clients match
replies by id rather than by position.

Request::

    {"id": 1, "op": "resolve", "params": {"session": "s1", "type": "Int"}}

Success response::

    {"id": 1, "ok": true, "result": {...}}

Error response::

    {"id": 1, "ok": false,
     "error": {"code": "overloaded", "message": "...",
               "retryable": true, "backoff_ms": 25}}

``retryable`` tells the client whether resending the identical request
can succeed later: ``overloaded`` and ``timeout`` are retryable
(transient budget/capacity conditions); ``resolution_failure`` and the
protocol errors are not (the same request will fail the same way).

The operation vocabulary (:data:`SERVER_OPS`, :data:`SESSION_OPS`,
:data:`WORK_OPS`; both deployments dispatch from these tuples):

=================== ========================================================
``ping``            liveness probe; echoes ``params``
``version``         package + protocol versions
``server/stats``    server-wide counters, queue depth, session count
``shutdown``        stop accepting requests, drain, exit cleanly
``session/new``     create a named session (environment + warm resolver)
``session/push_rules`` push one rule-set frame (a list of rule-type
                    strings) onto the session's environment
``session/pop``     pop the innermost frame
``session/stats``   per-session counters, cache size, environment depth
``session/close``   drop the session and its caches
``resolve``         resolve a query type against the session environment
``typecheck``       type check a program (source or core syntax)
``run_core``        type check + execute a core-calculus program
``run_source``      parse, encode, type check + execute a source program
``lint``            static diagnostics (docs/DIAGNOSTICS.md): over a
                    ``program`` param when given, else over the
                    session's implicit environment; always ``ok``,
                    findings are returned as data
``subtyping/check`` decide a query ``type`` by modus-ponens intersection
                    subtyping against the session environment
``debug/sleep``     hold a worker for ``seconds`` (load/shed testing only)
=================== ========================================================

The parameter checks both deployments share live here too, so the
single-process server and the shard supervisor answer a bad request
with the same code and message.  Each raises :class:`ProtocolError`.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Container, Iterator, TypeVar

from .. import __version__
from ..core.types import Type

T = TypeVar("T")

#: Bumped on incompatible wire changes; served by the ``version`` op so
#: clients can refuse to talk to a server they do not understand.
#: 2: sharded deployments (``repro serve --workers N``) may answer with
#: ``worker_failed`` when a shard process dies mid-request.
PROTOCOL_VERSION = 2

#: The longest request line any transport accepts, newline excluded: in
#: bytes, or in characters on a text stream (never fewer bytes).  A
#: longer line is read through its newline, dropped, and answered with
#: ``invalid_request`` (``id: null``); the connection stays open.
MAX_LINE_BYTES = 1 << 20

#: Answered by the front door itself.
SERVER_OPS = ("ping", "version", "server/stats", "shutdown")
#: Session lifecycle: answered inline by the service owning the session.
SESSION_OPS = ("session/new", "session/push_rules", "session/pop",
               "session/stats", "session/close")
#: Deadline-checked work for a worker pool; all but
#: :data:`SESSIONLESS_OPS` name a ``session``.
WORK_OPS = ("resolve", "typecheck", "run_core", "run_source", "lint",
            "subtyping/check", "debug/sleep")
SESSIONLESS_OPS = frozenset({"debug/sleep"})


class ErrorCode:
    """The closed vocabulary of ``error.code`` values."""

    PARSE_ERROR = "parse_error"  # request line is not valid JSON
    INVALID_REQUEST = "invalid_request"  # JSON, but not a valid request
    UNKNOWN_OP = "unknown_op"
    UNKNOWN_SESSION = "unknown_session"
    RESOLUTION_FAILURE = "resolution_failure"  # Delta |-r rho failed
    TYPE_ERROR = "type_error"  # static semantics rejected the program
    PROGRAM_PARSE_ERROR = "program_parse_error"  # program text did not parse
    EVAL_ERROR = "eval_error"
    TIMEOUT = "timeout"  # deadline exceeded (queue or resolution)
    OVERLOADED = "overloaded"  # shed: queue past its watermark
    SHUTTING_DOWN = "shutting_down"
    WORKER_FAILED = "worker_failed"  # shard process died mid-request
    INTERNAL = "internal"

    #: Codes a client may retry verbatim after backing off.  A
    #: ``worker_failed`` retry lands on the restarted, re-warmed shard.
    RETRYABLE = frozenset({TIMEOUT, OVERLOADED, SHUTTING_DOWN, WORKER_FAILED})


class ProtocolError(Exception):
    """A malformed request line (carries the response error code)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Request:
    """One decoded request."""

    id: Any
    op: str
    params: dict[str, Any] = field(default_factory=dict)


def parse_request(line: str) -> Request:
    """Decode one request line, raising :class:`ProtocolError` if bad."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(ErrorCode.PARSE_ERROR, f"bad JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, "request must be a JSON object"
        )
    op = payload.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, "request needs a non-empty string 'op'"
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, "'params' must be a JSON object"
        )
    return Request(id=payload.get("id"), op=op, params=params)


def ok_response(request_id: Any, result: Any) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any,
    code: str,
    message: str,
    *,
    backoff_ms: int | None = None,
    details: dict | None = None,
) -> dict:
    error: dict[str, Any] = {
        "code": code,
        "message": message,
        "retryable": code in ErrorCode.RETRYABLE,
    }
    if backoff_ms is not None:
        error["backoff_ms"] = backoff_ms
    if details:
        error["details"] = details
    return {"id": request_id, "ok": False, "error": error}


def encode(response: dict) -> str:
    """One response as a single JSON line (no embedded newlines)."""
    return json.dumps(response, separators=(",", ":"), default=str)


#: The answer to a line over :data:`MAX_LINE_BYTES`, encoded.
LINE_TOO_LONG = encode(error_response(
    None, ErrorCode.INVALID_REQUEST,
    f"request line longer than {MAX_LINE_BYTES} bytes",
))


def read_bounded_line(readline: Callable[[int], T]) -> "T | None":
    """One line from a file's ``readline(size)``, ``None`` if over the cap.

    An over-long line is read through its newline (or EOF) and dropped,
    so the next call starts on the next request.
    """
    line = readline(MAX_LINE_BYTES + 1)
    if len(line) <= MAX_LINE_BYTES or line[-1:] in ("\n", b"\n"):
        return line
    while line and line[-1:] not in ("\n", b"\n"):
        line = readline(MAX_LINE_BYTES + 1)
    return None


def unknown_op(request: Request) -> dict:
    return error_response(
        request.id, ErrorCode.UNKNOWN_OP, f"unknown op {request.op!r}"
    )


def dispatch_table(owner: object, ops: tuple[str, ...]) -> dict[str, Callable]:
    """``op -> owner._op_<op with '/' as '_'>``; a missing handler fails
    at construction, so the vocabulary and a dispatcher cannot drift."""
    return {op: getattr(owner, "_op_" + op.replace("/", "_")) for op in ops}


class Service:
    """What both deployments offer their transports: :meth:`process`
    (per deployment), the line and dict entry points, and the ops every
    deployment answers alike."""

    stopping: threading.Event

    def process(self, request: Request) -> "dict | Future":
        raise NotImplementedError

    def process_line(self, line: str) -> "dict | Future":
        """One request line -> a response dict or a Future of one."""
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            return error_response(None, exc.code, str(exc))
        return self.process(request)

    def handle_sync(self, request_payload: dict) -> dict:
        """Convenience for in-process callers: dict in, dict out."""
        outcome = self.process_line(json.dumps(request_payload))
        return outcome.result() if isinstance(outcome, Future) else outcome

    def _op_ping(self, request: Request) -> dict:
        return {"pong": True, "echo": request.params.get("echo")}

    def _op_version(self, request: Request) -> dict:
        return {
            "package": __version__,
            "protocol": PROTOCOL_VERSION,
            "python": sys.version.split()[0],
        }


# -- parameter checks ---------------------------------------------------------


def deadline_of(params: dict) -> float | None:
    """The absolute ``time.monotonic()`` deadline a work request asks for."""
    deadline_ms = params.get("deadline_ms")
    if deadline_ms is None:
        return None
    if not isinstance(deadline_ms, (int, float)) or deadline_ms < 0:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            "'deadline_ms' must be a non-negative number",
        )
    return time.monotonic() + deadline_ms / 1000.0


def query_param(query: object) -> "str | Type":
    """The ``type`` param of a query op: text, or a type the compact
    wire path already decoded."""
    if isinstance(query, (str, Type)):
        return query
    raise ProtocolError(ErrorCode.INVALID_REQUEST, "'type' must be a string")


def rules_param(rules: object) -> list:
    """A ``rules`` param: rule-type strings (or decoded types)."""
    if not isinstance(rules, list) or not all(
        isinstance(r, (str, Type)) for r in rules
    ):
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, "'rules' must be a list of type strings"
        )
    return rules


def session_new_params(params: dict) -> "tuple[str | None, list | None, dict]":
    """A ``session/new`` request's name, rules and configuration params."""
    name = params.get("name")
    if name is not None and not isinstance(name, str):
        raise ProtocolError(ErrorCode.INVALID_REQUEST, "'name' must be a string")
    rules = params.get("rules")
    if rules is not None:
        rules_param(rules)
    config = {k: v for k, v in params.items() if k != "name" and k != "rules"}
    return name, rules, config


def claim_session_name(
    name: str | None, taken: Container[str], auto_names: Iterator[int]
) -> str:
    """``name``, or the next free ``sN``; the caller locks ``taken``."""
    if name is None:
        name = f"s{next(auto_names)}"
        while name in taken:
            name = f"s{next(auto_names)}"
    elif name in taken:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"session {name!r} already exists"
        )
    return name


def find_session(sessions: "dict[str, T]", name: object) -> T:
    """``sessions[name]``; the caller locks ``sessions``."""
    if not isinstance(name, str):
        raise ProtocolError(ErrorCode.INVALID_REQUEST, "'session' must be a string")
    session = sessions.get(name)
    if session is None:
        raise ProtocolError(ErrorCode.UNKNOWN_SESSION, f"no session named {name!r}")
    return session
