"""The persistent derivation store and its cache adapter.

:class:`DerivationStore` owns one :class:`~repro.store.log.RecordLog`
(``derivations.log`` under the store directory) plus an in-memory index
rebuilt on open: ``(env digest, strategy, policy, canonical key) ->
(offset, length, fuel, kind)``.  Outcomes stay on disk -- a fetch
re-reads and re-verifies the record -- so a warm process pays memory
only for what it actually touches (``warm_cache`` is the exception: it
bulk-decodes one environment's records into a
:class:`~repro.core.cache.ResolutionCache` for cold-start elimination).

Eviction is LRU over the index against a byte budget of *live* records:
appending past ``max_bytes`` drops least-recently-used index entries
until live bytes fit.  Dead records stay in the file (append-only) until
:meth:`DerivationStore.compact` rewrites the log with exactly the live
set, which is also when quarantined byte ranges are reclaimed.

:class:`PersistentResolutionCache` is the adapter the resolution engine
sees: an ordinary :class:`ResolutionCache` whose misses read through to
the store and whose inserts write through (when the entry is
persistable; see :mod:`repro.store.codec`).  It is what
``repro run --cache-dir`` and the service's sessions use.

Counters: each store keeps a private ``stats`` object *and* reports into
the ambient :mod:`repro.obs` recorder slot, so per-request collection in
the service sees store activity without plumbing.
"""

from __future__ import annotations

import os
import threading
from typing import Any

from ..core.cache import DEFAULT_MAX_ENTRIES, ResolutionCache
from ..core.env import ImplicitEnv
from ..errors import StoreCorruptionError
from ..obs import ResolutionStats
from ..obs.stats import (
    record_store_bytes,
    record_store_corrupt,
    record_store_eviction,
    record_store_hit,
    record_store_loads,
)
from ..service.wire import WireError
from . import codec
from .log import _FRAME_OVERHEAD, RecordLog, crc_bypass_enabled

#: Default byte budget for live records (64 MiB).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

LOG_NAME = "derivations.log"


class _DanglingRef(StoreCorruptionError):
    """A record references a child that is no longer indexed.

    Distinguished from real corruption: eviction legitimately removes
    children out from under referencing parents, so a dangling parent is
    *dropped* (it can never be served again) without counting toward
    ``store_corrupt_records`` or failing ``verify``.
    """


class _IndexEntry:
    __slots__ = ("offset", "length", "min_fuel", "is_success")

    def __init__(self, offset: int, length: int, min_fuel: int, is_success: bool):
        self.offset = offset
        self.length = length
        self.min_fuel = min_fuel
        self.is_success = is_success

    @property
    def frame_bytes(self) -> int:
        return _FRAME_OVERHEAD + self.length


class DerivationStore:
    """A directory holding persisted resolution outcomes (module docs)."""

    def __init__(
        self,
        directory: str,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        read_only: bool = False,
    ):
        if not read_only:
            os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.max_bytes = max_bytes
        self.read_only = read_only
        self.stats = ResolutionStats()
        self._lock = threading.RLock()
        #: index in LRU order (oldest first); dict preserves insertion.
        self._index: dict[tuple, _IndexEntry] = {}
        #: env digest -> ordered set of index keys, for warm-up sweeps.
        self._by_env: dict[str, dict[tuple, None]] = {}
        self._live_bytes = 0
        self.log = RecordLog(
            os.path.join(directory, LOG_NAME), kind="derivations", read_only=read_only
        )
        self._load_index()

    # -- open-time index rebuild ----------------------------------------

    def _load_index(self) -> None:
        corrupt = len(self.log.quarantined)
        for offset, payload in self.log.scan():
            try:
                record = codec.decode_record(payload)
            except StoreCorruptionError:
                corrupt += 1
                continue
            self._adopt(record.index_key(), _IndexEntry(
                offset, len(payload), record.min_fuel, record.is_success
            ))
        if corrupt:
            self.stats.store_corrupt_records += corrupt
            record_store_corrupt(corrupt)

    def _adopt(self, ikey: tuple, entry: _IndexEntry) -> None:
        previous = self._index.pop(ikey, None)
        if previous is not None:
            self._live_bytes -= previous.frame_bytes
        self._index[ikey] = entry
        self._live_bytes += entry.frame_bytes
        self._by_env.setdefault(ikey[0], {})[ikey] = None

    # -- the read path ---------------------------------------------------

    def fetch(self, key: tuple, fuel: int) -> tuple[Any, bool, int] | None:
        """Look ``key`` up on disk: ``(outcome, is_success, min_fuel)``.

        Returns ``None`` on a miss, on insufficient fuel, or when the
        record no longer verifies (it is quarantined, never raised --
        unless CRC bypass is on, in which case garbled records surface
        as :class:`~repro.errors.StoreCorruptionError`, the fuzz fault
        arm's probe).
        """
        witness = key[1]
        if not codec.witness_is_bare(witness):
            return None
        ikey = codec.index_key(
            codec.env_digest(key[0]), key[3], key[4], key[2]
        )
        with self._lock:
            entry = self._index.get(ikey)
            if entry is None or fuel < entry.min_fuel:
                return None
            payload = self.log.read_payload(entry.offset, entry.length)
            if payload is None:
                self._quarantine(ikey, entry)
                return None
            try:
                record = codec.decode_record(payload)
                outcome = record.outcome(self._deref_for(ikey[:3], {}, set()))
            except _DanglingRef:
                self._drop_entry(ikey, entry)
                return None
            except Exception as exc:
                if crc_bypass_enabled():
                    raise StoreCorruptionError(
                        f"store served a garbled record with CRC bypass on: {exc}"
                    ) from exc
                self._quarantine(ikey, entry)
                return None
            # LRU touch: re-insert at the young end.
            self._index.pop(ikey)
            self._index[ikey] = entry
            self.stats.store_hits += 1
            record_store_hit()
            return outcome, record.is_success, entry.min_fuel

    def _drop_entry(self, ikey: tuple, entry: _IndexEntry) -> None:
        # Caller holds ``self._lock``.  Unservable but not corrupt (a
        # dangling reference after eviction): no corruption accounting.
        if self._index.pop(ikey, None) is not None:
            self._live_bytes -= entry.frame_bytes

    def _quarantine(self, ikey: tuple, entry: _IndexEntry) -> None:
        # Caller holds ``self._lock``.
        self._index.pop(ikey, None)
        self._live_bytes -= entry.frame_bytes
        self.log.quarantined.append((entry.offset, entry.frame_bytes))
        self.stats.store_corrupt_records += 1
        record_store_corrupt()

    def _deref_for(self, prefix: tuple, memo: dict, visiting: set):
        """A premise dereferencer bound to one (digest, strategy, policy).

        Resolves ``["ref", ckey]`` premises through the index, re-reading
        and decoding the referenced record (recursively -- references
        nest).  ``memo`` makes a warm sweep linear in records; the
        ``visiting`` set turns a (corruption-made) reference cycle into
        :class:`StoreCorruptionError` instead of unbounded recursion.
        Caller holds ``self._lock``.
        """

        def deref(ckey: tuple):
            ik = prefix + (ckey,)
            hit = memo.get(ik)
            if hit is not None:
                return hit
            if ik in visiting:
                raise StoreCorruptionError("cyclic premise reference")
            entry = self._index.get(ik)
            if entry is None:
                raise _DanglingRef(
                    "dangling premise reference (child record evicted or lost)"
                )
            payload = self.log.read_payload(entry.offset, entry.length)
            if payload is None:
                raise StoreCorruptionError("referenced record no longer verifies")
            record = codec.decode_record(payload)
            if not record.is_success:
                raise StoreCorruptionError("premise reference to a failure record")
            visiting.add(ik)
            try:
                outcome = record.outcome(deref)
            finally:
                visiting.discard(ik)
            memo[ik] = outcome
            return outcome

        return deref

    def warm_cache(
        self, cache: ResolutionCache, env: ImplicitEnv
    ) -> int:
        """Bulk-load every record for ``env`` into ``cache``; returns the
        count.  The cold-start eliminator: a restarted process calls this
        once per environment instead of re-running proof search."""
        witness = env.payload_witness()
        if not codec.witness_is_bare(witness):
            return 0
        fingerprint = env.fingerprint()
        digest = codec.env_digest(fingerprint)
        loaded = 0
        #: One memo for the whole sweep: referenced children decode once
        #: no matter how many parents share them.
        memo: dict[tuple, Any] = {}
        with self._lock:
            for ikey in tuple(self._by_env.get(digest, ())):
                entry = self._index.get(ikey)
                if entry is None:
                    continue
                payload = self.log.read_payload(entry.offset, entry.length)
                if payload is None:
                    self._quarantine(ikey, entry)
                    continue
                try:
                    record = codec.decode_record(payload)
                    outcome = record.outcome(
                        self._deref_for(ikey[:3], memo, set())
                    )
                except _DanglingRef:
                    self._drop_entry(ikey, entry)
                    continue
                except Exception as exc:
                    if crc_bypass_enabled():
                        raise StoreCorruptionError(
                            f"store warmed a garbled record with CRC bypass on: {exc}"
                        ) from exc
                    self._quarantine(ikey, entry)
                    continue
                if record.is_success:
                    memo[ikey] = outcome
                key = (fingerprint, witness, record.ckey, record.strategy, record.policy)
                cache.seed(key, outcome, record.is_success, entry.min_fuel, env)
                loaded += 1
        if loaded:
            self.stats.store_loads += loaded
            record_store_loads(loaded)
        return loaded

    # -- the write path --------------------------------------------------

    def persist(
        self, key: tuple, outcome: Any, is_success: bool, min_fuel: int
    ) -> bool:
        """Append one cache entry if it is persistable and new."""
        if self.read_only:
            return False
        if not codec.persistable(outcome, is_success, key[1]):
            return False
        digest = codec.env_digest(key[0])
        ikey = codec.index_key(digest, key[3], key[4], key[2])
        prefix = ikey[:3]
        with self._lock:
            if ikey in self._index:
                return False
            try:
                payload = codec.encode_record(
                    key,
                    outcome,
                    is_success,
                    min_fuel,
                    have_ref=lambda ck: prefix + (ck,) in self._index,
                )
            except WireError:
                return False  # types the wire codec cannot carry
            offset, length = self.log.append(payload)
            entry = _IndexEntry(offset, length, min_fuel, is_success)
            self._adopt(ikey, entry)
            self.stats.store_bytes += entry.frame_bytes
            record_store_bytes(entry.frame_bytes)
            self._enforce_budget()
        return True

    def _enforce_budget(self) -> None:
        # Caller holds ``self._lock``.  Evict least-recently-used index
        # entries until live records fit the byte budget; the file itself
        # shrinks at the next compaction.
        evicted = 0
        while self._live_bytes > self.max_bytes and len(self._index) > 1:
            ikey, entry = next(iter(self._index.items()))
            self._index.pop(ikey)
            self._live_bytes -= entry.frame_bytes
            evicted += 1
        if evicted:
            self.stats.store_evictions += evicted
            record_store_eviction(evicted)

    # -- maintenance -----------------------------------------------------

    def verify(self) -> dict:
        """Full integrity pass: re-read and decode every live record.

        Returns a report dict; ``report["quarantined"]`` counts records
        (and byte ranges) that failed CRC or decode -- the CI smoke job
        asserts this is non-zero after corrupting the log mid-file.
        """
        bad = 0
        dangling = 0
        checked = 0
        memo: dict[tuple, Any] = {}
        with self._lock:
            for ikey, entry in tuple(self._index.items()):
                checked += 1
                payload = self.log.read_payload(entry.offset, entry.length)
                if payload is None:
                    self._quarantine(ikey, entry)
                    bad += 1
                    continue
                try:
                    record = codec.decode_record(payload)
                    outcome = record.outcome(self._deref_for(ikey[:3], memo, set()))
                    if record.is_success:
                        memo[ikey] = outcome
                except _DanglingRef:
                    self._drop_entry(ikey, entry)
                    dangling += 1
                except Exception:
                    self._quarantine(ikey, entry)
                    bad += 1
            report = {
                "path": self.log.path,
                "schema": self.log.header.get("schema"),
                "records": len(self._index),
                "checked": checked,
                "quarantined": len(self.log.quarantined),
                "quarantined_now": bad,
                "dangling_dropped": dangling,
                "torn_tail_bytes": self.log.torn_tail_bytes,
                "file_bytes": self.log.size_bytes(),
                "live_bytes": self._live_bytes,
            }
        report["ok"] = report["quarantined"] == 0 and report["torn_tail_bytes"] == 0
        return report

    def compact(self) -> dict:
        """Rewrite the log with exactly the live records (LRU order
        preserved), reclaiming evicted and quarantined space."""
        with self._lock:
            payloads: list[bytes] = []
            survivors: list[tuple[tuple, _IndexEntry]] = []
            for ikey, entry in self._index.items():
                payload = self.log.read_payload(entry.offset, entry.length)
                if payload is None:
                    self.stats.store_corrupt_records += 1
                    record_store_corrupt()
                    continue
                payloads.append(payload)
                survivors.append((ikey, entry))
            before = self.log.size_bytes()
            self.log.replace_all(payloads)
            # Re-point the index at the rewritten offsets.
            self._index = {}
            self._by_env = {}
            self._live_bytes = 0
            for (ikey, entry), (offset, length) in zip(
                survivors, self.log.record_spans()
            ):
                self._adopt(
                    ikey, _IndexEntry(offset, length, entry.min_fuel, entry.is_success)
                )
            return {
                "records": len(self._index),
                "bytes_before": before,
                "bytes_after": self.log.size_bytes(),
            }

    def clear(self) -> dict:
        with self._lock:
            dropped = len(self._index)
            self.log.replace_all([])
            self._index = {}
            self._by_env = {}
            self._live_bytes = 0
            return {"dropped": dropped}

    def stats_view(self) -> dict:
        with self._lock:
            view = self.stats.as_dict()
            return {
                "records": len(self._index),
                "file_bytes": self.log.size_bytes(),
                "live_bytes": self._live_bytes,
                "quarantined": len(self.log.quarantined),
                "counters": {k: v for k, v in view.items() if k.startswith("store_")},
            }

    def close(self) -> None:
        self.log.close()

    def __enter__(self) -> "DerivationStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._index)


class PersistentResolutionCache(ResolutionCache):
    """A :class:`ResolutionCache` backed by a :class:`DerivationStore`.

    Misses read through to disk; inserts write through (persistable
    entries only).  Everything else -- fuel monotonicity, divergence
    refusal, thread safety -- is inherited unchanged, which is exactly
    the point: the resolution engine cannot tell it is talking to disk,
    and the ``store`` fuzz oracle holds it to that.
    """

    __slots__ = ("store",)

    def __init__(self, store: DerivationStore, max_entries: int = DEFAULT_MAX_ENTRIES):
        super().__init__(max_entries)
        self.store = store

    def get(self, key: tuple, fuel: int):
        entry = super().get(key, fuel)
        if entry is not None:
            return entry
        fetched = self.store.fetch(key, fuel)
        if fetched is None:
            return None
        outcome, is_success, min_fuel = fetched
        self.seed(key, outcome, is_success, min_fuel, None)
        return super().get(key, fuel)

    def put_success(self, key, derivation, env, fuel) -> None:
        super().put_success(key, derivation, env, fuel)
        self.store.persist(key, derivation, True, fuel)

    def put_failure(self, key, error, env, fuel, query=None) -> None:
        super().put_failure(key, error, env, fuel, query)  # raises on divergence
        self.store.persist(key, error, False, fuel)

    def warm(self, env: ImplicitEnv) -> int:
        """Preload this cache with every stored record for ``env``."""
        return self.store.warm_cache(self, env)
