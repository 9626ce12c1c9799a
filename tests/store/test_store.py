"""The derivation store and its cache adapter (repro.store.store).

The contract under test is the ISSUE's: resolution outcomes written
through :class:`PersistentResolutionCache` survive a process restart
(warm-start), stay within a byte budget (LRU eviction), reclaim space
on compaction, and tolerate arbitrary log damage without ever crashing
or serving a wrong answer -- damaged records are quarantined and
recomputed.
"""

import os

import pytest

from repro.core.cache import ResolutionCache
from repro.core.env import ImplicitEnv, OverlapPolicy, RuleEntry
from repro.core.resolution import ResolutionStrategy, Resolver
from repro.core.types import INT, TCon, TVar, canonical_key, rule
from repro.errors import NoMatchingRuleError, StoreCorruptionError
from repro.fuzz.oracles import derivation_signature
from repro.store import DerivationStore, PersistentResolutionCache

LOG = "derivations.log"
FUEL = 10**6


def chain_env(depth: int = 6) -> ImplicitEnv:
    """``C0; {C0 a} => C1 a; ...`` -- proofs are premise chains."""
    a = TVar("a")
    entries = []
    for i in range(depth):
        context = [] if i == 0 else [TCon(f"C{i-1}", (a,))]
        entries.append(RuleEntry(rule(TCon(f"C{i}", (a,)), context, ["a"])))
    return ImplicitEnv.empty().push(entries)


def top_query(depth: int = 6):
    return TCon(f"C{depth-1}", (INT,))


def cache_key(env, query):
    return (
        env.fingerprint(),
        env.payload_witness(),
        canonical_key(query),
        ResolutionStrategy.SYNTACTIC,
        OverlapPolicy.REJECT,
    )


def resolve_through(store, env, query):
    return Resolver(cache=PersistentResolutionCache(store)).resolve(env, query)


class TestWriteReadThrough:
    def test_resolution_outcomes_reach_disk(self, tmp_path):
        env = chain_env()
        with DerivationStore(str(tmp_path)) as store:
            resolve_through(store, env, top_query())
            assert len(store) == 6  # one record per chain link
            assert store.stats.store_bytes > 0

    def test_restart_serves_from_disk(self, tmp_path):
        env, query = chain_env(), top_query()
        with DerivationStore(str(tmp_path)) as store:
            cold = resolve_through(store, env, query)
        with DerivationStore(str(tmp_path)) as store:
            warm = resolve_through(store, env, query)
            assert store.stats.store_hits >= 1
        assert derivation_signature(cold) == derivation_signature(warm)

    def test_failures_persist_and_replay(self, tmp_path):
        env = chain_env()
        with DerivationStore(str(tmp_path)) as store:
            with pytest.raises(NoMatchingRuleError):
                resolve_through(store, env, TCon("Missing"))
        with DerivationStore(str(tmp_path)) as store:
            fetched = store.fetch(cache_key(env, TCon("Missing")), FUEL)
            assert fetched is not None
            outcome, is_success, _fuel = fetched
            assert not is_success and isinstance(outcome, NoMatchingRuleError)

    def test_fuel_monotonicity_survives_the_disk_hop(self, tmp_path):
        env, query = chain_env(), top_query()
        with DerivationStore(str(tmp_path)) as store:
            resolve_through(store, env, query)
            entry = store.fetch(cache_key(env, query), FUEL)
            assert entry is not None
            min_fuel = entry[2]
            # A caller with less fuel than the recorded requirement must
            # miss: a cached success under more fuel proves nothing for a
            # smaller budget.
            assert store.fetch(cache_key(env, query), min_fuel - 1) is None

    def test_payload_bearing_envs_are_never_persisted(self, tmp_path):
        a = TVar("a")
        env = ImplicitEnv.empty().push(
            [RuleEntry(rule(TCon("C0", (a,)), [], ["a"]), payload=object())]
        )
        with DerivationStore(str(tmp_path)) as store:
            resolve_through(store, env, TCon("C0", (INT,)))
            assert len(store) == 0  # witness not bare: gate holds


class TestWarmStart:
    def test_warm_loads_every_record_for_the_env(self, tmp_path):
        env, query = chain_env(), top_query()
        with DerivationStore(str(tmp_path)) as store:
            resolve_through(store, env, query)
        with DerivationStore(str(tmp_path)) as store:
            cache = PersistentResolutionCache(store)
            assert cache.warm(env) == 6
            assert store.stats.store_loads == 6
            # Warmed entries are served from memory: resolving the whole
            # chain touches the disk read path zero times.
            Resolver(cache=cache).resolve(env, query)
            assert store.stats.store_hits == 0

    def test_warm_is_env_scoped(self, tmp_path):
        env, other = chain_env(), chain_env(3)
        with DerivationStore(str(tmp_path)) as store:
            resolve_through(store, env, top_query())
        with DerivationStore(str(tmp_path)) as store:
            assert PersistentResolutionCache(store).warm(other) == 0


class TestPremiseSharing:
    def test_chain_records_store_premises_by_reference(self, tmp_path):
        with DerivationStore(str(tmp_path)) as store:
            resolve_through(store, chain_env(12), top_query(12))
        data = (tmp_path / LOG).read_bytes()
        assert data.count(b'"ref"') >= 10  # all but the leaf record
        # The payoff: O(n) bytes, not O(n^2) embedded subtrees.
        assert len(data) < 6000

    def test_dangling_reference_drops_parent_without_corruption(self, tmp_path):
        # A budget this small evicts each child right after its parent's
        # reference to it is written; the survivor's premise chain
        # dangles.  That is *eviction*, not corruption: fetch misses,
        # the entry is dropped, and no corrupt counter moves.
        env, query = chain_env(8), top_query(8)
        with DerivationStore(str(tmp_path), max_bytes=700) as store:
            resolve_through(store, env, query)
            assert store.stats.store_evictions > 0
            survivors = len(store)
            assert store.fetch(cache_key(env, query), FUEL) is None
            assert len(store) < survivors
            assert store.stats.store_corrupt_records == 0


class TestEviction:
    def test_live_bytes_honor_the_budget(self, tmp_path):
        budget = 900
        with DerivationStore(str(tmp_path), max_bytes=budget) as store:
            resolve_through(store, chain_env(16), top_query(16))
            assert store.stats.store_evictions > 0
            view = store.stats_view()
            assert view["live_bytes"] <= budget
            assert view["records"] < 16
            # Append-only: the file keeps the dead bytes until compaction.
            assert view["file_bytes"] > view["live_bytes"]

    def test_compaction_reclaims_evicted_space(self, tmp_path):
        with DerivationStore(str(tmp_path), max_bytes=900) as store:
            resolve_through(store, chain_env(16), top_query(16))
            live = store.stats_view()["live_bytes"]
            report = store.compact()
            assert report["bytes_after"] < report["bytes_before"]
            assert store.stats_view()["file_bytes"] <= live + 256  # + header

    def test_compaction_preserves_servable_records(self, tmp_path):
        env, query = chain_env(), top_query()
        with DerivationStore(str(tmp_path)) as store:
            cold = resolve_through(store, env, query)
            store.compact()
            fetched = store.fetch(cache_key(env, query), FUEL)
            assert fetched is not None
            assert derivation_signature(fetched[0]) == derivation_signature(cold)


class TestCorruptionTolerance:
    def tamper_middle_record(self, store_dir):
        path = os.path.join(store_dir, LOG)
        with DerivationStore(store_dir, read_only=True) as store:
            spans = store.log.record_spans()
        offset, _length = spans[len(spans) // 2]
        with open(path, "r+b") as fh:
            fh.seek(offset + 5)
            fh.write(b"\xff")

    def test_damaged_log_opens_quarantines_and_recomputes(self, tmp_path):
        env, query = chain_env(), top_query()
        with DerivationStore(str(tmp_path)) as store:
            cold = resolve_through(store, env, query)
        self.tamper_middle_record(str(tmp_path))
        with DerivationStore(str(tmp_path)) as store:  # never crashes
            assert store.stats.store_corrupt_records >= 1
            report = store.verify()
            assert not report["ok"] and report["quarantined"] >= 1
            # Resolution still succeeds: quarantined links recompute.
            warm = resolve_through(store, env, query)
            assert derivation_signature(cold) == derivation_signature(warm)

    def test_verify_is_clean_on_an_undamaged_store(self, tmp_path):
        with DerivationStore(str(tmp_path)) as store:
            resolve_through(store, chain_env(), top_query())
            report = store.verify()
            assert report["ok"]
            assert report["quarantined"] == 0 and report["torn_tail_bytes"] == 0
            assert report["checked"] == 6

    def test_garbage_payload_decode_is_a_coded_error(self):
        from repro.store.codec import decode_record

        with pytest.raises(StoreCorruptionError) as exc:
            decode_record(b"not json at all")
        assert exc.value.code == "IC0604"


class TestOldStrategyValue:
    """Stores written while ``subtyping`` was a strategy stay readable."""

    def test_subtyping_records_verify_and_serve_as_syntactic(self, tmp_path):
        env, query = chain_env(), top_query()
        with DerivationStore(str(tmp_path)) as store:
            cold = resolve_through(store, env, query)
            payloads = [p for _, p in store.log.scan()]
            old = [
                p.replace(b'"s":"syntactic"', b'"s":"subtyping"') for p in payloads
            ]
            assert old != payloads
            store.log.replace_all(old)
        with DerivationStore(str(tmp_path)) as store:
            assert store.verify()["ok"]
            assert store.stats.store_corrupt_records == 0
            warm = resolve_through(store, env, query)
            assert store.stats.store_hits >= 1
        assert derivation_signature(cold) == derivation_signature(warm)


class TestMaintenance:
    def test_clear_drops_everything(self, tmp_path):
        env, query = chain_env(), top_query()
        with DerivationStore(str(tmp_path)) as store:
            resolve_through(store, env, query)
            assert store.clear() == {"dropped": 6}
            assert len(store) == 0
            assert store.fetch(cache_key(env, query), FUEL) is None

    def test_read_only_view_while_a_writer_holds_the_lock(self, tmp_path):
        env = chain_env()
        with DerivationStore(str(tmp_path)) as writer:
            resolve_through(writer, env, top_query())
            with DerivationStore(str(tmp_path), read_only=True) as reader:
                view = reader.stats_view()
                assert view["records"] == 6
                assert reader.verify()["ok"]
                assert not reader.persist(
                    cache_key(env, TCon("C0", (INT,))), None, True, FUEL
                )

    def test_stats_view_counts_only_store_counters(self, tmp_path):
        with DerivationStore(str(tmp_path)) as store:
            resolve_through(store, chain_env(), top_query())
            counters = store.stats_view()["counters"]
            assert set(counters) == {
                "store_hits",
                "store_loads",
                "store_evictions",
                "store_corrupt_records",
                "store_bytes",
            }


class TestCyclicDerivations:
    """Corecursive proofs persist: the ``fix`` structure survives disk.

    A cycle head is encoded with an explicit ``"cy"`` marker and its
    back-references as ``["cyc", sig]`` premises; decoding re-mints one
    :class:`CycleToken` per head and rebinds every back-reference to it,
    so round-trips are O(n) and guardedness is preserved.
    """

    @staticmethod
    def recursive_env():
        a = TVar("a")
        return ImplicitEnv.empty().push(
            [
                RuleEntry(TCon("Eq", (INT,))),
                RuleEntry(
                    rule(
                        TCon("Eq", (TCon("List", (a,)),)),
                        [TCon("Eq", (a,)), TCon("Eq", (TCon("List", (a,)),))],
                        ["a"],
                    )
                ),
            ]
        )

    @staticmethod
    def query():
        return TCon("Eq", (TCon("List", (INT,)),))

    def corec_key(self, env, query):
        return (
            env.fingerprint(),
            env.payload_witness(),
            canonical_key(query),
            ResolutionStrategy.CORECURSIVE,
            OverlapPolicy.REJECT,
        )

    def test_codec_round_trips_the_cycle(self):
        from repro.core.resolution import derivation_cycles_guarded
        from repro.store.codec import decode_record, encode_record

        env, query = self.recursive_env(), self.query()
        derivation = Resolver(strategy=ResolutionStrategy.CORECURSIVE).resolve(
            env, query
        )
        assert derivation.cycle is not None
        payload = encode_record(self.corec_key(env, query), derivation, True, FUEL)
        decoded = decode_record(payload).outcome()
        assert decoded.cycle is not None
        assert derivation_signature(decoded) == derivation_signature(derivation)
        assert derivation_cycles_guarded(decoded)

    def test_cyclic_proofs_warm_start_across_restarts(self, tmp_path):
        env, query = self.recursive_env(), self.query()

        def resolve_corec(store):
            return Resolver(
                strategy=ResolutionStrategy.CORECURSIVE,
                cache=PersistentResolutionCache(store),
            ).resolve(env, query)

        with DerivationStore(str(tmp_path)) as store:
            cold = resolve_corec(store)
            assert len(store) >= 1
        with DerivationStore(str(tmp_path)) as store:
            warm = resolve_corec(store)
            assert store.stats.store_hits >= 1
        assert derivation_signature(cold) == derivation_signature(warm)
        assert warm.cycle is not None

    def test_unbound_back_reference_is_corruption(self):
        import json as _json

        from repro.store.codec import decode_record, encode_record

        env, query = self.recursive_env(), self.query()
        derivation = Resolver(strategy=ResolutionStrategy.CORECURSIVE).resolve(
            env, query
        )
        payload = encode_record(self.corec_key(env, query), derivation, True, FUEL)
        doc = _json.loads(payload)

        def strip_cy(node):
            node.pop("cy", None)
            for premise in node.get("pr", []):
                if premise[0] == "r":
                    strip_cy(premise[1])

        strip_cy(doc["d"])
        tampered = _json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        with pytest.raises(StoreCorruptionError, match="not open"):
            decode_record(tampered).outcome()
