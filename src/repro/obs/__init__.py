"""Observability for the resolution hot path: counters and traces.

Two complementary views of the same machinery:

* :mod:`repro.obs.stats` -- cheap aggregate counters (cache hits/misses,
  lookups, unifications, recursion depth, fuel) collected through a
  process-global recorder slot; surfaced by ``repro --stats`` and the
  benchmark suite.
* :mod:`repro.obs.trace` -- an optional per-resolver event stream that
  narrates the proof search for ``explain``-style debugging
  (``repro --trace``).

The package sits *below* :mod:`repro.core` in the import graph (it
imports nothing from it), so any layer may report into it without
cycles.
"""

from .stats import (
    ResolutionStats,
    active_stats,
    collecting,
    record_compiled,
    record_entails,
    record_fuzz_case,
    record_fuzz_disagreement,
    record_fuzz_shrink,
    record_lookup,
    record_store_bytes,
    record_store_corrupt,
    record_store_eviction,
    record_store_hit,
    record_store_loads,
    record_unify,
)
from .trace import (
    CACHE_HIT,
    CACHE_MISS,
    FAILURE,
    QUERY,
    SUCCESS,
    TraceEvent,
    Tracer,
)

__all__ = [
    "ResolutionStats",
    "active_stats",
    "collecting",
    "record_compiled",
    "record_entails",
    "record_fuzz_case",
    "record_fuzz_disagreement",
    "record_fuzz_shrink",
    "record_lookup",
    "record_store_bytes",
    "record_store_corrupt",
    "record_store_eviction",
    "record_store_hit",
    "record_store_loads",
    "record_unify",
    "TraceEvent",
    "Tracer",
    "QUERY",
    "CACHE_HIT",
    "CACHE_MISS",
    "SUCCESS",
    "FAILURE",
]
