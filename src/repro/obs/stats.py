"""Resolution statistics: the counters behind ``repro --stats``.

The ROADMAP's north star asks the hot path (resolution, ``Delta |-r
rho``) to run "as fast as the hardware allows" *with observability to
prove it*.  This module supplies the proof side: a plain counter object
(:class:`ResolutionStats`) plus a process-global *recorder slot* that the
low-level machinery (environment lookup, unification, the logic engine)
reports into with near-zero overhead when nobody is listening.

Design notes:

* Counters are recorded through module-level functions
  (:func:`record_lookup`, :func:`record_unify`, ...) guarded by a single
  ``is None`` check, so instrumented call sites cost one slot read when
  collection is off.  This keeps the signatures of ``ImplicitEnv.lookup``
  and ``match_type`` untouched -- every consumer (type checker,
  elaborator, operational semantics, logic engine) is observable without
  plumbing a stats object through each layer.
* The slot is **thread-local**: each thread owns its own recorder, so
  concurrent requests in the resolution server (:mod:`repro.service`)
  collect into disjoint per-request objects without locking the hot
  path.  Aggregation across threads is explicit -- collect per thread,
  then :meth:`ResolutionStats.merge` under a lock.
* The slot is scoped with the :func:`collecting` context manager, which
  saves and restores the previous occupant, so nested collections behave
  lexically (the innermost collector wins).
* ``ResolutionStats`` is deliberately a mutable, additive value: use
  :meth:`ResolutionStats.merge` to aggregate across runs (the benchmark
  suite does this to report whole-session hit rates).

Counter glossary (see also ``docs/OBSERVABILITY.md``):

============== ============================================================
``queries``         top-level ``Resolver.resolve`` calls
``resolve_steps``   recursive resolution steps; each consumes one unit of
                    fuel, so this is exactly the *fuel consumed*
``max_depth``       deepest recursion reached by any query
``cache_hits``      resolution steps answered from the derivation cache
``cache_misses``    resolution steps that had to be computed (cache on)
``lookup_calls``    environment lookups (``Delta(tau)``; one per scanned
                    *query*, not per scanned frame)
``unify_calls``     head-matching/unification attempts (one per candidate
                    rule inspected, plus one per logic-engine backchain)
``candidates_pruned`` rule entries (or clauses) a compiled scan's trie
                    proved irrelevant without a matching attempt: the
                    frame width minus the trie's candidates
``compiled_hits``   scans answered through a compiled discrimination-trie
                    matcher (one per frame consulted by an environment
                    lookup, plus one per logic-engine backchain;
                    :mod:`repro.core.compile_env`)
``compiled_fallbacks`` candidate rules a compiled scan had to hand back
                    to the generic matcher (heads embedding rule types)
``entails_calls``   logic-engine entailment checks (``Delta+ |= rho+``)
``entails_hits``    entailment checks answered from the entailment memo
``coalesced_requests`` service requests answered by sharing another
                    in-flight identical request's computation
                    (singleflight; :mod:`repro.service.worker`)
``shed_requests``   service requests rejected with ``overloaded`` because
                    the worker queue was past its watermark
``deadline_timeouts`` service requests that exceeded their deadline
                    (either in the queue or mid-resolution)
``fuzz_cases``      generated cases evaluated by the fuzz harness
                    (``repro fuzz``; :mod:`repro.fuzz`)
``fuzz_disagreements`` oracle comparisons classified as *disagree* --
                    any non-zero value here is a found bug (or an
                    injected fault in the harness's self-tests)
``fuzz_shrink_steps`` accepted delta-debugging reductions while
                    minimizing disagreeing cases
``shard_dispatches`` requests the shard supervisor forwarded to a worker
                    process (:mod:`repro.service.shards`)
``shard_rebalances`` sessions migrated to a different shard after the
                    consistent-hash ring changed (``add_worker``)
``worker_restarts`` dead shard workers respawned (and their sessions
                    re-warmed from the supervisor's warm logs)
``wire_bytes_in``   compact-wire bytes received from shard workers
``wire_bytes_out``  compact-wire bytes sent to shard workers
``store_hits``      resolution probes answered from the persistent
                    derivation store (disk read-through;
                    :mod:`repro.store`)
``store_loads``     records bulk-loaded from disk into an in-memory
                    cache by warm-start (``DerivationStore.warm_cache``)
``store_evictions`` records evicted from the store index to honor the
                    size budget (space reclaimed at next compaction)
``store_corrupt_records`` records quarantined because their CRC or
                    framing failed verification (torn tails excluded:
                    those are truncated, not quarantined)
``store_bytes``     bytes appended to the persistent derivation log
``corec_cycles_closed`` goals the corecursive strategy discharged by a
                    back-reference to an alpha-equivalent ancestor goal
                    (a ``mu``-bound evidence node instead of divergence)
``corec_guard_rejections`` cycles the guardedness check refused because
                    no step on the loop was productive (reported as
                    divergence, exactly like fuel exhaustion)
``subtyping_checks`` intersection-subtyping decisions computed by the
                    modus-ponens backend (:mod:`repro.subtyping`), from
                    either entry point: the ``subtyping/check`` service
                    op or the ``subtyping`` fuzz oracle
============== ============================================================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields


@dataclass
class ResolutionStats:
    """Additive counters describing resolution work (see module docs)."""

    queries: int = 0
    resolve_steps: int = 0
    max_depth: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    lookup_calls: int = 0
    unify_calls: int = 0
    candidates_pruned: int = 0
    compiled_hits: int = 0
    compiled_fallbacks: int = 0
    entails_calls: int = 0
    entails_hits: int = 0
    coalesced_requests: int = 0
    shed_requests: int = 0
    deadline_timeouts: int = 0
    fuzz_cases: int = 0
    fuzz_disagreements: int = 0
    fuzz_shrink_steps: int = 0
    shard_dispatches: int = 0
    shard_rebalances: int = 0
    worker_restarts: int = 0
    wire_bytes_in: int = 0
    wire_bytes_out: int = 0
    store_hits: int = 0
    store_loads: int = 0
    store_evictions: int = 0
    store_corrupt_records: int = 0
    store_bytes: int = 0
    corec_cycles_closed: int = 0
    corec_guard_rejections: int = 0
    subtyping_checks: int = 0

    # -- derived ---------------------------------------------------------

    @property
    def fuel_consumed(self) -> int:
        """Alias: each resolution step burns exactly one unit of fuel."""
        return self.resolve_steps

    def hit_rate(self) -> float:
        """Cache hits over all cache consultations (0.0 when cache off)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def merge(self, other: "ResolutionStats") -> None:
        """Add ``other``'s counters into this object (max for depths).

        Only the counters that fired in ``other`` are touched: a
        per-request stats object usually has a handful of non-zero
        counters out of the 33.
        """
        mine = self.__dict__
        for name, value in other.__dict__.items():
            if value:
                if name == "max_depth":
                    if value > mine[name]:
                        mine[name] = value
                else:
                    mine[name] += value

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def snapshot(self) -> "ResolutionStats":
        return ResolutionStats(**self.as_dict())

    def format(self) -> str:
        """Human-readable table (the body of ``repro --stats`` output)."""
        rows = list(self.as_dict().items())
        rows.append(("hit_rate", f"{self.hit_rate():.1%}"))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


# ---------------------------------------------------------------------------
# The thread-local recorder slot.
# ---------------------------------------------------------------------------

_SLOT = threading.local()


def active_stats() -> ResolutionStats | None:
    """The stats object currently collecting *in this thread*, if any."""
    return getattr(_SLOT, "stats", None)


class collecting:
    """Route this thread's counters into ``stats`` for the block.

    ``collecting(None)`` is a no-op context (convenient for optional
    ``stats=`` parameters on the pipeline entry points).  A class, not a
    generator: the service enters one per request, and a generator-based
    context manager costs several times as much.
    """

    __slots__ = ("_stats", "_previous")

    def __init__(self, stats: ResolutionStats | None):
        self._stats = stats
        self._previous: ResolutionStats | None = None

    def __enter__(self) -> ResolutionStats | None:
        if self._stats is not None:
            self._previous = getattr(_SLOT, "stats", None)
            _SLOT.stats = self._stats
        return self._stats

    def __exit__(self, *exc_info: object) -> None:
        if self._stats is not None:
            _SLOT.stats = self._previous


def record_lookup() -> None:
    """One environment lookup (``Delta(tau)``)."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.lookup_calls += 1


def record_unify() -> None:
    """One head-matching / unification attempt."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.unify_calls += 1


def record_compiled(fallbacks: int = 0, pruned: int = 0) -> None:
    """One compiled-matcher scan that skipped ``pruned`` irrelevant
    entries, ``fallbacks`` of whose candidates fell back to generic
    matching."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.compiled_hits += 1
        stats.compiled_fallbacks += fallbacks
        stats.candidates_pruned += pruned


def record_entails(hit: bool = False) -> None:
    """One logic-engine entailment check (memoized or not)."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.entails_calls += 1
        if hit:
            stats.entails_hits += 1


def record_fuzz_case() -> None:
    """One generated case evaluated by the fuzz harness."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.fuzz_cases += 1


def record_fuzz_disagreement() -> None:
    """One oracle comparison classified as *disagree*."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.fuzz_disagreements += 1


def record_fuzz_shrink(steps: int) -> None:
    """``steps`` accepted reductions while minimizing one case."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.fuzz_shrink_steps += steps


def record_store_hit() -> None:
    """One resolution probe answered from the persistent store."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.store_hits += 1


def record_store_loads(count: int) -> None:
    """``count`` records warm-loaded from disk into an in-memory cache."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.store_loads += count


def record_store_eviction(count: int = 1) -> None:
    """``count`` records evicted to honor the store's size budget."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.store_evictions += count


def record_store_corrupt(count: int = 1) -> None:
    """``count`` records quarantined by CRC/framing verification."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.store_corrupt_records += count


def record_store_bytes(count: int) -> None:
    """``count`` bytes appended to the persistent derivation log."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.store_bytes += count


def record_corec_cycle() -> None:
    """One goal discharged corecursively (a cycle closed)."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.corec_cycles_closed += 1


def record_corec_guard_rejection() -> None:
    """One cycle refused by the guardedness check."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.corec_guard_rejections += 1


def record_subtyping_check() -> None:
    """One modus-ponens subtyping decision computed."""
    stats = getattr(_SLOT, "stats", None)
    if stats is not None:
        stats.subtyping_checks += 1
