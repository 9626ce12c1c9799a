"""Named sessions: long-lived environments with warm resolvers.

A session is the unit of amortization.  It owns

* an immutable :class:`~repro.core.env.ImplicitEnv` *stack* manipulated
  by ``session/push_rules`` / ``session/pop`` (push parses rule-type
  strings and extends the environment; pop resurfaces the previous
  environment object, whose fingerprint -- and therefore all its cache
  entries and compiled frames -- re-hit);
* one shared :class:`~repro.core.resolution.Resolver` whose
  :class:`~repro.core.cache.ResolutionCache` stays warm across requests
  (the cache is thread-safe, so concurrent requests on one session
  share it directly);
* session-cumulative :class:`~repro.obs.ResolutionStats`, aggregated
  from the per-request stats objects under the session lock.

Requests never mutate shared state except by *replacing* the session's
environment reference under the lock; in-flight requests that already
read the old reference keep resolving against it unperturbed (the
environments are immutable), which gives push/pop snapshot semantics.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace

from ..core.cache import ResolutionCache
from ..core.env import ImplicitEnv, OverlapPolicy, RuleEntry
from ..core.parser import parse_core_type
from ..core.resolution import DEFAULT_FUEL, ResolutionStrategy, Resolver
from ..core.types import Type
from ..obs import ResolutionStats
from ..pipeline import Semantics
from .protocol import (
    ErrorCode,
    ProtocolError,
    claim_session_name,
    find_session,
)


@dataclass(frozen=True)
class SessionConfig:
    """Per-session resolution and execution configuration."""

    policy: OverlapPolicy = OverlapPolicy.REJECT
    strategy: ResolutionStrategy = ResolutionStrategy.SYNTACTIC
    fuel: int = DEFAULT_FUEL
    semantics: Semantics = Semantics.ELABORATE
    cache_entries: int = 4096

    @staticmethod
    def from_params(params: dict) -> "SessionConfig":
        """Decode the ``session/new`` params, with protocol-level errors."""
        unknown = set(params) - {
            "name",
            "rules",
            "policy",
            "strategy",
            "semantics",
            "fuel",
            "cache_entries",
        }
        if unknown:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"unknown session parameter(s): {', '.join(sorted(unknown))}",
            )
        try:
            policy = OverlapPolicy(params.get("policy", "reject"))
            strategy = ResolutionStrategy(params.get("strategy", "syntactic"))
            semantics = Semantics(params.get("semantics", "elaborate"))
        except ValueError as exc:
            raise ProtocolError(ErrorCode.INVALID_REQUEST, str(exc)) from exc
        fuel = params.get("fuel", DEFAULT_FUEL)
        cache_entries = params.get("cache_entries", 4096)
        if not isinstance(fuel, int) or fuel <= 0:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, "'fuel' must be a positive integer"
            )
        if not isinstance(cache_entries, int) or cache_entries <= 0:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                "'cache_entries' must be a positive integer",
            )
        return SessionConfig(
            policy=policy,
            strategy=strategy,
            fuel=fuel,
            semantics=semantics,
            cache_entries=cache_entries,
        )


class Session:
    """One named session (see module docstring)."""

    def __init__(self, name: str, config: SessionConfig, store=None):
        self.name = name
        self.config = config
        self.lock = threading.Lock()
        self.env = ImplicitEnv.empty()
        #: Environments shadowed by pushes; ``pop`` restores the exact
        #: parent *object*, so its memoized fingerprint, compiled frames
        #: and payload witness come back without recomputation.
        self._parents: list[ImplicitEnv] = []
        #: The server's :class:`~repro.store.DerivationStore`, or
        #: ``None``.  With a store the session cache reads through to
        #: disk and every push eagerly warms the new environment's
        #: persisted derivations back into memory.
        self._store = store
        if store is not None:
            from ..store import PersistentResolutionCache

            cache: ResolutionCache = PersistentResolutionCache(
                store, max_entries=config.cache_entries
            )
        else:
            cache = ResolutionCache(max_entries=config.cache_entries)
        self.resolver = Resolver(
            policy=config.policy,
            strategy=config.strategy,
            fuel=config.fuel,
            cache=cache,
        )
        self.stats = ResolutionStats()
        self.requests = 0
        self.closed = False

    # -- environment lifecycle -------------------------------------------

    def push_rules(self, rules: "list[str | Type]") -> int:
        """Push one frame of rules; returns the new depth.

        Items are rule-type strings (the JSON protocol) or already
        parsed/interned :class:`Type` objects (the compact wire path:
        the shard worker decodes straight to interned types, so there
        is no text parser on the sharded hot path).
        """
        entries = [
            RuleEntry(r if isinstance(r, Type) else parse_core_type(r))
            for r in rules
        ]
        with self.lock:
            self._parents.append(self.env)
            self.env = self.env.push(entries)
            env = self.env
            depth = len(env)
        if self._store is not None and self.resolver.cache is not None:
            # Outside the session lock: warming only seeds the (thread
            # safe) cache, and concurrent requests may resolve -- and
            # miss -- against the new environment in the meantime.
            self._store.warm_cache(self.resolver.cache, env)
        return depth

    def pop(self) -> int:
        """Resurface the previous environment; returns the new depth."""
        with self.lock:
            if not self._parents:
                raise ProtocolError(
                    ErrorCode.INVALID_REQUEST,
                    f"session {self.name!r}: environment is already empty",
                )
            self.env = self._parents.pop()
            return len(self.env)

    def current_env(self) -> ImplicitEnv:
        with self.lock:
            return self.env

    # -- per-request views ------------------------------------------------

    def resolver_for(self, deadline: float | None) -> Resolver:
        """The session resolver, specialized with a request deadline.

        The returned resolver *shares* the session's (thread-safe)
        derivation cache -- that sharing is the entire point of a
        session -- while the deadline rides along as an operational
        attachment checked on every fuel step.
        """
        if deadline is None:
            return self.resolver
        return replace(self.resolver, deadline=deadline)

    def record(self, request_stats: ResolutionStats) -> None:
        """Aggregate one finished request into the session totals."""
        with self.lock:
            self.requests += 1
            self.stats.merge(request_stats)

    # -- introspection -----------------------------------------------------

    def stats_result(self) -> dict:
        with self.lock:
            cache = self.resolver.cache
            return {
                "session": self.name,
                "requests": self.requests,
                "env_depth": len(self.env),
                "env_rules": sum(len(f) for f in self.env.frames()),
                "cache_entries": len(cache) if cache is not None else 0,
                "config": {
                    "policy": self.config.policy.value,
                    "strategy": self.config.strategy.value,
                    "fuel": self.config.fuel,
                    "semantics": self.config.semantics.value,
                },
                "counters": self.stats.as_dict(),
            }


class SessionRegistry:
    """The server's name -> session table."""

    def __init__(self):
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}
        self._auto_names = itertools.count(1)
        self.created = 0

    def create(
        self, name: str | None, config: SessionConfig, store=None
    ) -> Session:
        with self._lock:
            name = claim_session_name(name, self._sessions, self._auto_names)
            session = Session(name, config, store=store)
            self._sessions[name] = session
            self.created += 1
            return session

    def get(self, name: object) -> Session:
        with self._lock:
            return find_session(self._sessions, name)

    def close(self, name: str) -> Session:
        session = self.get(name)
        with self._lock:
            self._sessions.pop(name, None)
        session.closed = True
        return session

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)
