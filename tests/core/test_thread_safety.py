"""Concurrency hardening for the shared core structures.

The service executes requests on a thread pool, so the process-wide
structures it leans on -- the hash-consing intern table, the resolution
derivation cache, the entailment memos -- must tolerate concurrent use.
These tests hammer them from a :class:`ThreadPoolExecutor` and assert
two things: no exceptions escape, and the answers are the same ones a
single thread would compute (the naive reference scan included).

They are regression tests for real hazards: ``WeakValueDictionary
.setdefault`` is check-then-act in pure Python, so unlocked interning
can hand two threads two distinct "canonical" instances; the cache's
size-bounded insert is a check-len-pop-insert sequence that can corrupt
its FIFO under races.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.cache import ResolutionCache
from repro.core.env import ImplicitEnv, RuleEntry
from repro.core.parser import parse_core_type
from repro.core.resolution import Resolver
from repro.core.types import INT, TCon, TFun, pair
from repro.fuzz.reference import NaiveEnv

THREADS = 8
ROUNDS = 60


def _hammer(worker, threads=THREADS):
    """Run ``worker(index)`` across threads, surfacing any exception."""
    barrier = threading.Barrier(threads)

    def run(index):
        barrier.wait()  # maximize overlap: everyone starts together
        return worker(index)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [f.result() for f in [pool.submit(run, i) for i in range(threads)]]


class TestInterning:
    def test_concurrent_construction_yields_one_canonical_instance(self):
        def build(index):
            # Same structural types from every thread, plus per-thread
            # churn so the intern table is mutating throughout.
            shared = []
            for i in range(ROUNDS):
                shared.append(TFun(TCon(f"S{i}"), pair(INT, TCon(f"S{i}"))))
                TCon(f"private-{index}-{i}")  # immediately collectable churn
            return shared

        results = _hammer(build)
        for built in results[1:]:
            for left, right in zip(results[0], built):
                assert left is right  # hash-consing held: one instance

    def test_equal_types_stay_identical_under_churn(self):
        probe = parse_core_type("{Int} => (Int, Bool)")

        def build(index):
            for i in range(ROUNDS):
                again = parse_core_type("{Int} => (Int, Bool)")
                assert again is probe
                parse_core_type(f"(Int, C{index}x{i})")  # background allocation
            return True

        assert all(_hammer(build))


class TestCacheConcurrency:
    def test_concurrent_put_get_never_corrupts(self):
        cache = ResolutionCache(max_entries=32)  # small: constant eviction
        env = ImplicitEnv.empty().push(
            [RuleEntry(parse_core_type("Int")), RuleEntry(parse_core_type("Bool"))]
        )
        resolver = Resolver(cache=cache)
        queries = [parse_core_type(t) for t in ("Int", "Bool")]

        def churn(index):
            for i in range(ROUNDS):
                derivation = resolver.resolve(env, queries[(index + i) % 2])
                assert derivation is not None
                cache.clear() if (index == 0 and i % 20 == 19) else None
            return len(cache)

        sizes = _hammer(churn)
        assert all(size <= 32 for size in sizes)

    def test_shared_resolver_across_threads_matches_naive(self):
        chain = ["C0"] + ["{C%d} => C%d" % (i - 1, i) for i in range(1, 12)]
        entries = [RuleEntry(parse_core_type(t)) for t in chain]
        env = ImplicitEnv.empty().push(entries)
        shared = Resolver(cache=ResolutionCache())

        # Ground truth: the naive reference scan, single-threaded.  The
        # shared environment's compiled frames are first built by
        # whichever worker thread looks up first.
        naive_env = NaiveEnv.of(ImplicitEnv.empty().push(entries))
        naive = {
            f"C{i}": str(
                Resolver(cache=None)
                .resolve(naive_env, parse_core_type(f"C{i}"))
                .lookup.entry.rho
            )
            for i in range(12)
        }

        def query(index):
            out = {}
            for i in range(ROUNDS):
                name = f"C{(index + i) % 12}"
                derivation = shared.resolve(env, parse_core_type(name))
                out[name] = str(derivation.lookup.entry.rho)
            return out

        for result in _hammer(query):
            for name, matched in result.items():
                assert matched == naive[name]  # compiled == naive, under threads


class TestLazyCompiledFrames:
    def test_racing_first_lookups_see_whole_artifacts(self):
        # Every thread's first lookup may build the shared frame's trie;
        # a reader that saw a half-built artifact would miss an entry or
        # return another frame's.  A tiny switch interval forces thread
        # switches in the middle of the build.
        entries = [RuleEntry(TCon(f"K{i}")) for i in range(200)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                env = ImplicitEnv.empty().push(entries)

                def first(index):
                    picks = [(index * 7 + i) % len(entries) for i in range(40)]
                    found = [env.lookup(TCon(f"K{p}")).entry for p in picks]
                    return all(f is entries[p] for f, p in zip(found, picks))

                assert all(_hammer(first))
        finally:
            sys.setswitchinterval(previous)
