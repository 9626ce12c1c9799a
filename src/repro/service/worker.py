"""Bounded execution: worker pool, load-shedding, request coalescing.

Three small mechanisms compose into the server's overload behaviour:

* :class:`WorkerPool` -- a fixed set of threads draining a **bounded**
  queue.  ``submit`` never blocks: when the queue is at its watermark
  the request is rejected immediately with :class:`Overloaded`, which
  the server turns into a retryable ``overloaded`` error carrying a
  suggested backoff.  Rejecting at the door keeps tail latency bounded:
  a request that cannot start soon is cheaper to retry than to queue.
* :class:`SingleFlight` -- in-flight request coalescing.  Identical
  concurrent computations (same key -- the server keys resolution work
  on the derivation-cache key: environment fingerprint, payload
  witness, canonical query key, strategy, policy) share one execution;
  followers block on the leader's result and report as
  ``coalesced_requests``.  This is the concurrent complement of the
  derivation cache: the cache collapses *sequential* repeats,
  singleflight collapses *simultaneous* ones, including the stampede
  on a cold cache entry.
* Deadlines -- ``submit`` stamps no clocks itself; the server passes a
  monotonic deadline through to the job, which checks it both before
  executing (a request that expired while queued is answered
  ``timeout`` without wasting a worker) and during resolution (via
  :attr:`repro.core.resolution.Resolver.deadline`).
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Any, Callable

#: Suggested client backoff when shedding, scaled by queue pressure.
DEFAULT_BACKOFF_MS = 25


class Overloaded(Exception):
    """The worker queue is past its watermark; retry after backing off."""

    def __init__(self, depth: int, watermark: int, backoff_ms: int):
        super().__init__(
            f"worker queue at {depth}/{watermark}; retry in ~{backoff_ms}ms"
        )
        self.depth = depth
        self.watermark = watermark
        self.backoff_ms = backoff_ms


class WorkerPool:
    """A fixed thread pool over a bounded queue (see module docstring)."""

    def __init__(self, workers: int = 4, watermark: int = 64):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if watermark <= 0:
            raise ValueError("watermark must be positive")
        self.watermark = watermark
        self._queue: "queue.Queue[tuple[Future, Callable[[], Any]] | None]" = (
            queue.Queue(maxsize=watermark)
        )
        self._threads = [
            threading.Thread(
                target=self._run, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        self._shutdown = threading.Event()
        self.high_water = 0
        for thread in self._threads:
            thread.start()

    # -- submission --------------------------------------------------------

    def submit(self, fn: Callable[[], Any]) -> Future:
        """Enqueue ``fn``; raises :class:`Overloaded` instead of blocking."""
        if self._shutdown.is_set():
            raise RuntimeError("pool is shut down")
        future: Future = Future()
        try:
            self._queue.put_nowait((future, fn))
        except queue.Full:
            depth = self._queue.qsize()
            raise Overloaded(
                depth,
                self.watermark,
                # More pressure, longer suggested backoff: a crude but
                # monotone signal clients can feed into jittered retry.
                DEFAULT_BACKOFF_MS * max(1, depth // max(1, self.watermark // 4)),
            ) from None
        depth = self._queue.qsize()
        if depth > self.high_water:
            self.high_water = depth
        return future

    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def workers(self) -> int:
        return len(self._threads)

    # -- worker loop -------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            future, fn = item
            # Drop the job before waiting for the next one: an idle
            # worker must not keep its last job's snapshot alive.
            item = None
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(fn())
                except BaseException as exc:  # noqa: BLE001 - relayed to caller
                    future.set_exception(exc)
            future = fn = None

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work, drain the queue, join the workers."""
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        for _ in self._threads:
            self._queue.put(None)  # one poison pill per worker, after the drain
        if wait:
            for thread in self._threads:
                thread.join()


class SingleFlight:
    """Coalesce concurrent identical computations onto one leader."""

    class _Call:
        __slots__ = ("done", "result", "error", "waiters")

        def __init__(self):
            self.done = threading.Event()
            self.result: Any = None
            self.error: BaseException | None = None
            self.waiters = 0

    def __init__(self):
        self._lock = threading.Lock()
        self._calls: dict[Any, SingleFlight._Call] = {}

    def waiting(self) -> int:
        """Followers currently parked on in-flight leaders (for tests)."""
        with self._lock:
            return sum(call.waiters for call in self._calls.values())

    def do(self, key: Any, fn: Callable[[], Any]) -> tuple[Any, bool]:
        """Run ``fn`` once per concurrent ``key``; ``(result, coalesced)``.

        The leader executes ``fn`` and publishes; followers block until
        the leader finishes and observe the same result (or re-raise the
        same exception).  ``coalesced`` is ``True`` for followers only.
        Results are removed once the flight lands, so *sequential*
        repeats re-execute -- caching across time is the derivation
        cache's job, not this class's.
        """
        with self._lock:
            call = self._calls.get(key)
            if call is None:
                call = self._calls[key] = SingleFlight._Call()
                leader = True
            else:
                call.waiters += 1
                leader = False
        if not leader:
            call.done.wait()
            if call.error is not None:
                raise call.error
            return call.result, True
        try:
            call.result = fn()
        except BaseException as exc:  # noqa: BLE001 - replayed to followers
            call.error = exc
            raise
        finally:
            with self._lock:
                self._calls.pop(key, None)
            call.done.set()
        return call.result, False
