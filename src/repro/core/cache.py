"""Memoized resolution: a derivation cache over ``Delta |-r rho``.

Resolution is the hot path of the whole system -- the type checker, the
elaborator and the logic interpretation all re-resolve structurally
identical queries against the same environments.  This module caches
whole :class:`~repro.core.resolution.Derivation` trees keyed on

    (environment fingerprint, payload witness,
     canonical_key(query), strategy, overlap policy)

so a repeated query is answered by one dictionary probe instead of a
full proof search.  Since types are hash-consed
(:mod:`repro.core.types`), ``canonical_key`` is usually a cached-field
read and key hashing reuses each node's memoized hash, keeping probes
cheap even for deep queries.

Correctness invariants (each is load-bearing; the differential tests in
``tests/integration/test_cache_transparency.py`` pin them down):

* **Lexical scoping.**  The key's first component is the environment's
  structural :class:`~repro.core.env.EnvFingerprint`, computed
  incrementally on ``push``.  Pushing a frame changes the key (a nested
  scope can never be served an outer scope's derivation), and popping
  back to the old environment re-yields the old fingerprint, so prior
  entries re-hit.
* **Evidence identity.**  Structural equality of environments is not
  enough for consumers that read *payloads* off the derivation (the
  elaborator's ``TrRes`` turns ``lookup.payload`` into a System F term).
  The key therefore also contains the environment's
  :meth:`~repro.core.env.ImplicitEnv.payload_witness` -- per-entry
  payload object identities -- and every cache entry whose witness names
  a payload keeps a strong reference to the environment it was computed
  against, so those ids can never be recycled by the allocator while the
  cache lives.  Two keys match only if the payloads are the *same
  objects*.  A payload-less environment (an all-``None`` witness) has no
  ids to protect, so its entries do not keep it -- or its compiled
  frames -- alive after the scope that pushed it is gone.
* **Fuel monotonicity.**  An outcome (success or failure) observed with
  ``f`` units of fuel is identical for every fuel ``>= f``: fuel only
  converts deep exploration into :class:`ResolutionDivergenceError`, and
  divergence always propagates (even the backtracking strategy re-raises
  it), so a non-diverging run never had a branch cut short.  Entries
  record the smallest fuel at which their outcome was observed and only
  answer probes with at least that much fuel; probes with less recompute
  (and lower the recorded bound on success).
* **Divergence is never cached.**  A query that exhausts its fuel raises
  :class:`ResolutionDivergenceError` and leaves no entry -- neither
  positive nor negative -- because a later probe may arrive with more
  fuel and deserve the deeper search.  :meth:`ResolutionCache.put_failure`
  enforces this with a hard error.
* **Failures are replayed as fresh exceptions.**  A negative entry keeps
  a traceback-free copy of the failure, and every hit raises a new copy
  of it (:func:`fresh_failure`), so no request's stack frames stay
  reachable from the cache.  It also keeps the failed query's
  :class:`~repro.core.types.Type`, as a success does through its
  derivation, so weak memos keyed on query text (the service's) keep
  answering while the entry lives.

Eviction is FIFO with a configurable bound; resolution caches are
workload-local, and insertion order approximates age well enough without
the bookkeeping of an LRU chain on the hot path.

The cache is **thread-safe**: the resolution server
(:mod:`repro.service`) shares one cache per session across a pool of
worker threads, so probes and inserts are serialized on a per-cache
lock.  The critical sections are a dictionary probe or an
insert-plus-FIFO-evict -- short enough that the lock is uncontended in
practice -- and entries themselves are immutable apart from the
monotonically shrinking ``min_fuel`` bound, which is only rewritten
under the same lock.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from ..errors import (
    DeadlineExceededError,
    ResolutionDivergenceError,
    ResolutionError,
)
from .env import ImplicitEnv, OverlapPolicy
from .types import Type, canonical_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .resolution import Derivation, ResolutionStrategy

DEFAULT_MAX_ENTRIES = 4096


class _Entry:
    """One cached outcome plus the metadata needed to replay it safely."""

    __slots__ = ("outcome", "is_success", "min_fuel", "env", "query")

    def __init__(
        self,
        outcome: Any,
        is_success: bool,
        min_fuel: int,
        key: tuple,
        env: ImplicitEnv | None,
        query: Type | None = None,
    ):
        self.outcome = outcome
        self.is_success = is_success
        self.min_fuel = min_fuel
        #: Strong reference pinning the payload ids in the key, ``None``
        #: when the key's witness names none (see module docs).
        witness = key[1]
        self.env = env if witness.count(None) != len(witness) else None
        #: A failure's query type (a success's derivation holds its own).
        self.query = query


class ResolutionCache:
    """A bounded memo table for resolution outcomes."""

    __slots__ = ("_entries", "max_entries", "_lock")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._entries: dict[tuple, _Entry] = {}
        self.max_entries = max_entries
        self._lock = threading.Lock()

    # -- keys ------------------------------------------------------------

    @staticmethod
    def key_for(
        env: ImplicitEnv,
        rho: Type,
        strategy: "ResolutionStrategy",
        policy: OverlapPolicy,
    ) -> tuple:
        """The full cache key for one resolution step."""
        return (
            env.fingerprint(),
            env.payload_witness(),
            canonical_key(rho),
            strategy,
            policy,
        )

    # -- probes ----------------------------------------------------------

    def holds(self, key: tuple, fuel: int) -> bool:
        """Whether the in-memory table answers ``key`` at ``fuel``.

        Unlike :meth:`get` this never reads through to a backing store
        (subclasses keep it as is), so it is safe on a thread that must
        not do disk I/O; the service uses it to spot cache hits.
        """
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and fuel >= entry.min_fuel

    def get(self, key: tuple, fuel: int) -> _Entry | None:
        """The entry for ``key`` usable at ``fuel``, or ``None``.

        An entry only answers when the probe has at least as much fuel as
        the outcome was observed with (fuel monotonicity, module docs).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or fuel < entry.min_fuel:
                return None
            return entry

    def put_success(
        self, key: tuple, derivation: "Derivation", env: ImplicitEnv, fuel: int
    ) -> None:
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing.is_success:
                # Same deterministic outcome observed at lower fuel: widen the
                # entry's applicability instead of re-inserting.
                if fuel < existing.min_fuel:
                    existing.min_fuel = fuel
                return
            self._insert(key, _Entry(derivation, True, fuel, key, env))

    def put_failure(
        self,
        key: tuple,
        error: ResolutionError,
        env: ImplicitEnv,
        fuel: int,
        query: Type | None = None,
    ) -> None:
        if isinstance(error, (ResolutionDivergenceError, DeadlineExceededError)):
            raise ValueError(
                "refusing to cache a fuel- or deadline-dependent outcome as "
                "a negative result; it is not a property of the query"
            )
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and not existing.is_success:
                if fuel < existing.min_fuel:
                    existing.min_fuel = fuel
                return
            self._insert(
                key, _Entry(fresh_failure(error), False, fuel, key, env, query)
            )

    def _insert(self, key: tuple, entry: _Entry) -> None:
        # Caller holds ``self._lock``.
        entries = self._entries
        if key not in entries and len(entries) >= self.max_entries:
            entries.pop(next(iter(entries)))  # FIFO: dicts preserve insertion
        entries[key] = entry

    def seed(
        self,
        key: tuple,
        outcome: Any,
        is_success: bool,
        min_fuel: int,
        env: ImplicitEnv | None,
    ) -> None:
        """Adopt an externally computed entry (persistent-store warm-up).

        Unlike :meth:`put_success`/:meth:`put_failure` this performs no
        write-through in subclasses: the caller is handing us an entry
        that already lives on disk.  ``env`` may be ``None`` when the
        entry's payload witness is all-``None`` (nothing to pin).
        """
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                if min_fuel < existing.min_fuel:
                    existing.min_fuel = min_fuel
                return
            self._insert(key, _Entry(outcome, is_success, min_fuel, key, env))

    # -- maintenance -----------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries


def fresh_failure(error: ResolutionError) -> ResolutionError:
    """A new exception equal to ``error``: same class, args and attributes
    (``span`` among them), but no traceback, cause or context."""
    fresh = type(error).__new__(type(error), *error.args)
    fresh.__dict__.update(error.__dict__)
    return fresh


# ---------------------------------------------------------------------------
# Structural derivation identity (for the differential test harness).
# ---------------------------------------------------------------------------


def derivation_key(derivation: "Derivation") -> tuple:
    """A structural key identifying a derivation tree.

    :class:`~repro.core.resolution.Assumption` tokens compare by
    *identity* (each tree owns fresh binders), so ``Derivation`` equality
    cannot be used to check that a cached tree matches a freshly computed
    one.  This key replaces every token by its ``(index, type)`` role --
    including tokens appearing as lookup payloads under the extending
    strategies -- yielding a canonical form that is equal exactly when
    two trees represent the same proof.
    """
    from .resolution import Assumption, ByAssumption, ByCorecursion, ByResolution

    def premise_key(premise) -> tuple:
        if isinstance(premise, ByAssumption):
            return ("assume", premise.token.index, canonical_key(premise.token.rho))
        if isinstance(premise, ByCorecursion):
            # Cycle tokens also compare by identity; their role is fully
            # described by the goal they loop back to.
            return ("corec", canonical_key(premise.token.rho))
        if isinstance(premise, ByResolution):
            return ("resolve", derivation_key(premise.derivation))
        raise TypeError(f"unknown premise {premise!r}")

    payload = derivation.lookup.payload
    if isinstance(payload, Assumption):
        payload_key: tuple | None = ("token", payload.index, canonical_key(payload.rho))
    else:
        payload_key = None

    return (
        canonical_key(derivation.query),
        derivation.tvars,
        tuple(canonical_key(rho) for rho in derivation.context),
        canonical_key(derivation.head),
        canonical_key(derivation.lookup.entry.rho),
        tuple(canonical_key(tau) for tau in derivation.lookup.type_args),
        tuple(canonical_key(rho) for rho in derivation.lookup.context),
        canonical_key(derivation.lookup.head),
        payload_key,
        tuple(premise_key(p) for p in derivation.premises),
        derivation.cycle is not None,
    )
