"""Sessions: config decoding, environment lifecycle, the registry."""

import pytest

from repro.core.env import OverlapPolicy
from repro.core.resolution import ResolutionStrategy
from repro.pipeline import Semantics
from repro.service.protocol import ErrorCode, ProtocolError
from repro.service.sessions import Session, SessionConfig, SessionRegistry


class TestSessionConfig:
    def test_defaults(self):
        config = SessionConfig.from_params({})
        assert config.policy is OverlapPolicy.REJECT
        assert config.strategy is ResolutionStrategy.SYNTACTIC
        assert config.semantics is Semantics.ELABORATE

    def test_explicit_values(self):
        config = SessionConfig.from_params(
            {
                "policy": "most_specific",
                "strategy": "backtracking",
                "semantics": "operational",
                "fuel": 99,
                "cache_entries": 10,
            }
        )
        assert config.policy is OverlapPolicy.MOST_SPECIFIC
        assert config.strategy is ResolutionStrategy.BACKTRACKING
        assert config.fuel == 99
        assert config.cache_entries == 10

    @pytest.mark.parametrize(
        "params",
        [
            {"policy": "bogus"},
            {"strategy": "bogus"},
            {"semantics": "bogus"},
            {"fuel": 0},
            {"fuel": "lots"},
            {"cache_entries": -1},
            {"use_index": "yes"},
        ],
    )
    def test_bad_params_are_protocol_errors(self, params):
        with pytest.raises(ProtocolError) as excinfo:
            SessionConfig.from_params(params)
        assert excinfo.value.code == ErrorCode.INVALID_REQUEST

    def test_unknown_params_are_rejected_by_name(self):
        # A typo'd parameter must fail loudly, not silently configure
        # nothing (e.g. "ruless" instead of "rules").
        with pytest.raises(ProtocolError) as excinfo:
            SessionConfig.from_params({"fuel": 10, "ruless": ["Int"]})
        assert excinfo.value.code == ErrorCode.INVALID_REQUEST
        assert "ruless" in str(excinfo.value)

    def test_retired_use_index_is_an_unknown_parameter(self):
        with pytest.raises(ProtocolError) as excinfo:
            SessionConfig.from_params({"use_index": True})
        assert excinfo.value.code == ErrorCode.INVALID_REQUEST
        assert "unknown session parameter(s): use_index" in str(excinfo.value)


class TestSessionLifecycle:
    def test_push_parses_and_deepens(self):
        session = Session("s", SessionConfig())
        assert session.push_rules(["Int"]) == 1
        assert session.push_rules(["Bool", "{Bool} => (Int, Bool)"]) == 2
        assert len(session.current_env()) == 2

    def test_pop_restores_the_exact_parent_object(self):
        # Object identity is what makes pop cheap: the parent's memoized
        # fingerprint and frame indexes come back with it.
        session = Session("s", SessionConfig())
        session.push_rules(["Int"])
        parent = session.current_env()
        session.push_rules(["Bool"])
        assert session.current_env() is not parent
        assert session.pop() == 1
        assert session.current_env() is parent

    def test_pop_on_empty_is_a_protocol_error(self):
        session = Session("s", SessionConfig())
        with pytest.raises(ProtocolError):
            session.pop()

    def test_push_with_unparsable_rule_leaves_env_untouched(self):
        session = Session("s", SessionConfig())
        with pytest.raises(Exception):
            session.push_rules(["Int", "=>=> nope"])
        assert len(session.current_env()) == 0

    def test_deadline_specializes_but_shares_the_cache(self):
        session = Session("s", SessionConfig())
        assert session.resolver_for(None) is session.resolver
        timed = session.resolver_for(123.0)
        assert timed.deadline == 123.0
        assert timed.cache is session.resolver.cache


class TestSessionRegistry:
    def test_auto_names_never_collide(self):
        registry = SessionRegistry()
        registry.create("s1", SessionConfig())
        auto = registry.create(None, SessionConfig())
        assert auto.name != "s1"
        assert registry.names() == sorted(["s1", auto.name])

    def test_duplicate_name_rejected(self):
        registry = SessionRegistry()
        registry.create("x", SessionConfig())
        with pytest.raises(ProtocolError):
            registry.create("x", SessionConfig())

    def test_unknown_session_code(self):
        registry = SessionRegistry()
        with pytest.raises(ProtocolError) as excinfo:
            registry.get("ghost")
        assert excinfo.value.code == ErrorCode.UNKNOWN_SESSION

    def test_close_removes(self):
        registry = SessionRegistry()
        registry.create("x", SessionConfig())
        registry.close("x")
        assert len(registry) == 0
        with pytest.raises(ProtocolError):
            registry.get("x")


class TestCorecursiveSessions:
    def test_config_accepts_the_corecursive_strategy(self):
        config = SessionConfig.from_params({"strategy": "corecursive"})
        assert config.strategy is ResolutionStrategy.CORECURSIVE

    def test_service_resolves_a_recursive_instance(self):
        # End to end through the op table: the recursive Eq rule
        # diverges under the default strategy but resolves in a
        # corecursive session (docs/RESOLUTION.md).
        from repro.service import ResolutionService

        rules = ["Eq Int", "forall a. {Eq a, Eq [a]} => Eq [a]"]

        def drive(strategy):
            svc = ResolutionService(workers=1, queue_depth=8)
            try:
                def call(op, params):
                    return svc.handle_sync({"id": 1, "op": op, "params": params})

                assert call("session/new", {"name": "t", "strategy": strategy})["ok"]
                assert call(
                    "session/push_rules", {"session": "t", "rules": rules}
                )["ok"]
                return call("resolve", {"session": "t", "type": "Eq [Int]"})
            finally:
                svc.shutdown()

        corec = drive("corecursive")
        assert corec["ok"] and corec["result"]["resolved"]

        fuel = drive("syntactic")
        assert not fuel["ok"]
        assert "fuel" in fuel["error"]["message"]  # divergence, not no-match
