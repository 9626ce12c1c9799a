"""Closed-loop clients: one per workload, each calling public entry points.

A client turns generated inputs (:mod:`workloads`) into calls and checks
every reply against its independent expectation.  ``repro`` is imported
in :meth:`setup` only, so set-up time covers the imports.

The entry points used are the ones the ROADMAP keeps:
``repro.pipeline.run_source_full``, ``ResolutionService(workers=1)
.handle_sync`` with the JSON protocol, and the session ``policy``.
"""

from __future__ import annotations

import itertools
import sys

import workloads

#: Mismatches printed per run; all of them are counted.
_MAX_REPORTED_MISMATCHES = 10


class Client:
    """Common bookkeeping: attempted/failed counts and mismatch reports."""

    chunk = 256  # ops generated per batch, outside the timed region

    def __init__(self, seed: int):
        self.seed = seed
        self.warmup: list = []  # ops sent during set-up, generated beforehand
        self.attempted = 0
        self.failed = 0
        self.observe = False  # collect the program's counters (oneshot only)
        self.pending: list = []

    def mismatch(self, op, got) -> None:
        self.failed += 1
        if self.failed <= _MAX_REPORTED_MISMATCHES:
            print(f"perfbench: mismatch: {op!r} -> {got!r}", file=sys.stderr)


class OneShot(Client):
    """``run_source_full(text)`` per program, each with a fresh resolver."""

    chunk = 64
    warmup_programs = 16

    def __init__(self, seed: int):
        super().__init__(seed)
        self._next = 0
        self.stats = None
        # A separate index range, so timed programs are never repeats.
        self.warmup = [
            workloads.oneshot_program(seed, -1 - i) for i in range(self.warmup_programs)
        ]

    def next_ops(self, n: int):
        ops = [workloads.oneshot_program(self.seed, self._next + i) for i in range(n)]
        self._next += n
        return ops

    def setup(self) -> None:
        from repro.obs import ResolutionStats
        from repro.pipeline import run_source_full

        self._run = run_source_full
        self._new_stats = ResolutionStats
        self.reset_counters()

    def call(self, op):
        try:
            if self.observe:
                return self._run(op[0], stats=self.stats)[1].value
            return self._run(op[0])[1].value
        except Exception as exc:  # noqa: BLE001 - a failure is a result here
            return exc

    def check(self, op, got) -> None:
        self.attempted += 1
        if not _same(got, op[1]):
            self.mismatch(op[0], got)

    def reset_counters(self) -> None:
        self.stats = self._new_stats()

    def counters(self) -> dict:
        return _flat(self.stats.as_dict())

    def close(self) -> None:
        pass


def _flat(counters: dict) -> dict:
    """Counter name -> value, also if the counters come grouped by subsystem."""
    flat = {}
    for name, value in counters.items():
        if isinstance(value, dict):
            flat.update(_flat(value))
        else:
            flat[name] = value
    return flat


def _same(got, want) -> bool:
    """Equality that also tells ``True`` from ``1``."""
    if type(got) is not type(want):
        return False
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want


class Service(Client):
    """One warm session on an in-process ``ResolutionService(workers=1)``."""

    chunk = 1024

    def __init__(self, seed: int, inputs: workloads.ServiceInputs):
        super().__init__(seed)
        self.inputs = inputs
        self.warmup = inputs.warmup
        self._ids = itertools.count(1)

    def next_ops(self, n: int):
        return list(itertools.islice(self.inputs.stream, n))

    def setup(self) -> None:
        from repro.service.server import ResolutionService

        self.service = ResolutionService(workers=1)
        self._request(
            "session/new", {"name": "bench", "policy": self.inputs.policy}, required=True
        )
        for frame in self.inputs.frames:
            self._request(
                "session/push_rules", {"session": "bench", "rules": frame}, required=True
            )

    def _request(self, op: str, params: dict, required: bool = False) -> dict:
        reply = self.service.handle_sync({"id": next(self._ids), "op": op, "params": params})
        if required and not reply.get("ok"):
            raise RuntimeError(f"{op} failed during set-up: {reply}")
        return reply

    def call(self, op):
        return self.service.handle_sync(
            {"id": next(self._ids), "op": op.op, "params": op.params}
        )

    def check(self, op, got) -> None:
        self.attempted += 1
        want = op.expect
        if op.op != "resolve":
            good = got.get("ok") and got["result"].get("depth") == want
        elif want.ok:
            result = got.get("result") or {}
            good = (
                got.get("ok")
                and result.get("size") == want.size
                and "".join(str(result.get("matched")).split()) == "".join(want.matched.split())
            )
        else:
            good = not got.get("ok") and got["error"].get("code") == "resolution_failure"
        if not good:
            self.mismatch(op, got)

    def reset_counters(self) -> None:
        pass  # server counters are cumulative; windows are differences

    def counters(self) -> dict:
        reply = self._request("server/stats", {}, required=True)
        return _flat(reply["result"].get("counters", {}))

    def close(self) -> None:
        self._request("shutdown", {})
        self.service.shutdown()


def make_client(workload: str, seed: int) -> Client:
    """Build the client and generate its inputs (no ``repro`` import)."""
    if workload == "oneshot":
        return OneShot(seed)
    if workload == "session":
        return Service(seed, workloads.session_inputs(seed))
    if workload == "churn":
        return Service(seed, workloads.churn_inputs(seed))
    raise ValueError(f"unknown workload {workload!r}")
