"""repro.service -- a concurrent resolution server for the implicit calculus.

The paper's core judgment ``Delta |-r rho`` has exactly the shape of a
query service: a long-lived rule environment answering many small
queries.  Every one-shot entry point (:mod:`repro.pipeline`, the CLI)
rebuilds environments and throws away the derivation cache and frame
indexes between invocations; this package makes the resolver a
persistent, concurrent backend instead:

* :mod:`repro.service.protocol` -- the JSON-lines request/response wire
  format and its error vocabulary;
* :mod:`repro.service.sessions` -- named sessions holding a persistent
  :class:`~repro.core.env.ImplicitEnv` and a warm
  :class:`~repro.core.resolution.Resolver` (derivation cache, frame
  indexes) so clients amortize environment construction across
  thousands of queries;
* :mod:`repro.service.worker` -- the bounded thread pool with in-flight
  request coalescing (singleflight) and watermark load-shedding;
* :mod:`repro.service.server` -- operation dispatch plus the threaded
  stdio transport behind ``repro serve --stdio`` (both deployments, and
  the shard worker's pipe);
* :mod:`repro.service.wire` -- the compact wire format spoken between
  the shard supervisor and its worker processes (postfix type codec
  over the hash-consing tables, so decoding interns for free);
* :mod:`repro.service.shards` -- the shard supervisor behind ``repro
  serve --workers N``: consistent-hash session routing, crash-restart
  with warm-log replay, graceful drain, cross-shard stats aggregation;
* :mod:`repro.service.shard_worker` -- the per-shard subprocess entry
  point (a full single-process service speaking wire frames over the
  stdio loop);
* :mod:`repro.service.frontend` -- the asyncio TCP server behind
  ``repro serve --tcp`` (both deployments);
* :mod:`repro.service.client` -- the Python client used by the examples,
  the tests, the B11 load generator and the CI smoke drive.

Protocol, session lifecycle, sharding and deadline/load-shed semantics
are documented in ``docs/SERVICE.md``.
"""

from .protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    ProtocolError,
    Request,
    error_response,
    ok_response,
    parse_request,
)
from .server import ResolutionService, serve_stdio
from .sessions import Session, SessionConfig, SessionRegistry
from .wire import WireError
from .worker import Overloaded, SingleFlight, WorkerPool

#: Names resolved lazily by ``__getattr__`` (heavyweight or
#: subprocess-spawning modules that most importers never touch).
_LAZY = {
    "ServiceClient": "client",
    "SessionHandle": "client",
    "HashRing": "shards",
    "ShardSupervisor": "shards",
    "ShardedService": "shards",
    "serve_tcp": "frontend",
}


def __getattr__(name: str):
    # The client is imported lazily so that ``python -m
    # repro.service.client`` does not trigger the double-import warning
    # for the module it is itself executing; the shard and TCP modules
    # so that in-process use never pays for them (nor for asyncio).
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ErrorCode",
    "HashRing",
    "Overloaded",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "ResolutionService",
    "ServiceClient",
    "Session",
    "SessionConfig",
    "SessionHandle",
    "SessionRegistry",
    "ShardSupervisor",
    "ShardedService",
    "SingleFlight",
    "WireError",
    "WorkerPool",
    "error_response",
    "ok_response",
    "parse_request",
    "serve_stdio",
    "serve_tcp",
]
