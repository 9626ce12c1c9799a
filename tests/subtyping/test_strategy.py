"""Modus-ponens subtyping outside resolution: production resolution never
runs the decision, and the ``subtyping/check`` service op exposes it."""

from __future__ import annotations

import pytest

from repro.core import INT, pair
from repro.core.resolution import Resolver
from repro.obs import ResolutionStats, collecting


def test_plain_syntactic_resolution_runs_no_subtyping_check(pair_env):
    stats = ResolutionStats()
    with collecting(stats):
        Resolver().resolve(pair_env, pair(INT, INT))
    assert stats.subtyping_checks == 0


class TestServiceOp:
    @pytest.fixture
    def service(self):
        from repro.service.server import ResolutionService

        svc = ResolutionService(workers=2, queue_depth=8)
        yield svc
        svc.shutdown()

    @staticmethod
    def _new_session(service, rules):
        assert service.handle_sync(
            {
                "id": 0,
                "op": "session/new",
                "params": {"name": "s", "rules": rules},
            }
        )["ok"]

    def test_subtyping_check_holds(self, service):
        self._new_session(service, ["Int", "forall a . {a} => (a, a)"])
        response = service.handle_sync(
            {
                "id": 1,
                "op": "subtyping/check",
                "params": {"session": "s", "type": "(Int, Int)"},
            }
        )
        assert response["ok"], response
        result = response["result"]
        assert result["holds"] is True
        assert result["verdict"] == "holds"
        assert result["conjuncts"] == 2
        assert result["steps"] > 0

    def test_subtyping_check_denies_without_erroring(self, service):
        # Unlike `resolve`, a negative answer is a result, not an error.
        self._new_session(service, ["Int"])
        response = service.handle_sync(
            {
                "id": 1,
                "op": "subtyping/check",
                "params": {"session": "s", "type": "Bool"},
            }
        )
        assert response["ok"], response
        assert response["result"]["holds"] is False
        assert response["result"]["verdict"] == "fails"

    def test_subtyping_check_validates_the_query(self, service):
        from repro.service.protocol import ErrorCode

        self._new_session(service, ["Int"])
        response = service.handle_sync(
            {"id": 1, "op": "subtyping/check", "params": {"session": "s"}}
        )
        assert response["error"]["code"] == ErrorCode.INVALID_REQUEST
