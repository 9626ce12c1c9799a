"""Differential and metamorphic oracles over generated cases.

Each oracle runs one :class:`~repro.fuzz.gen.FuzzCase` through a *pair*
of semantically equivalent engines and classifies the outcome:

``agree``
    both sides succeeded with equal (alpha-invariant) results;
``both_fail``
    both sides failed with the identical error class;
``disagree``
    anything else -- the case is a counterexample worth shrinking.

The engine pairs mirror every redundancy the repo has accumulated:

=============  ==========================================================
``index``      every match, not only the chosen one: production
               ``lookup_all`` (trie-selected candidates, every frame,
               nearness order) vs the naive frame scan's, so a trie
               that drops, adds or reorders a shadowed or overlapping
               match disagrees even where resolution would not notice
``compiled``   production lookup (compiled discrimination-trie
               matchers, :mod:`repro.core.compile_env`) vs the naive
               frame scan (:mod:`repro.fuzz.reference`), run under
               *both* overlap policies so the compiled path's failure
               behaviour (overlap rejection, specificity selection,
               ambiguity) is compared too
``cache``      memoized resolution (two resolves through one cache)
               vs cache-disabled resolution
``logic``      the deterministic Resolver vs the logic engine's
               backchaining (Theorem 1: resolution implies entailment;
               the converse is *not* claimed, so a Resolver failure
               with a successful entailment still counts as agreement)
``semantics``  SMALLSTEP vs OPERATIONAL evaluation of the case program
``service``    the in-process pipeline vs the concurrent resolution
               service (sessions, worker pool, protocol encode/decode)
``sharded``    the single-process service vs the sharded service (a
               2-worker :class:`~repro.service.shards.ShardSupervisor`,
               real subprocesses, compact wire frames): full response
               transcripts of identical session push/resolve/pop
               scripts must agree byte for byte, error codes and
               messages included
``alpha``      metamorphic: resolution is invariant under a bijective
               renaming of every type variable in the case
``permute``    metamorphic: under the ``no_overlap`` policy, permuting
               entries *within* a frame cannot change the outcome
``lint``       metamorphic: ``repro lint`` findings (JSON) are stable
               under re-parse of the pretty-printed rule environment
``store``      cold resolution vs resolution replayed through the
               persistent derivation store (:mod:`repro.store`): write
               through to disk, reopen, warm a fresh cache and resolve
               again; then tamper every record on disk *without*
               updating its frame CRC and reopen once more -- the
               quarantine path must fire while resolution still agrees
               (a quarantined record is recomputed, never trusted)
``corecursive`` the fuel-bounded syntactic engine vs the corecursive
               engine (cycle detection + mu-bound recursive evidence):
               on queries both answer the derivation signatures must
               agree; on a generator mix extended with recursive rule
               shapes (:func:`~repro.fuzz.gen.augment_recursive`) the
               corecursive engine must *refine* every fuel divergence
               into either a guarded recursive proof or a definite
               failure, and every returned proof must independently
               pass :func:`~repro.core.resolution.derivation_cycles_guarded`;
               a fixed unguarded canary (``{C} => C |- C``) must be
               rejected by both engines.  The fault arm disables the
               engine's guardedness check, so the canary (and every
               generated unguarded loop) yields evidence the oracle's
               independent validation refuses -- proving the check is
               load-bearing
``subtyping``  three-way agreement around the modus-ponens
               intersection-subtyping backend (:mod:`repro.subtyping`):
               on queries all sides handle, the subtyping verdict must
               equal the logic engine's entailment, a Resolver success
               must be subtyping-provable (resolution implies
               subtyping), and every ``HOLDS`` derivation must pass
               :func:`repro.subtyping.check_entailment` independently.
               Carve-outs (docs/TESTING.md): budget-dependent outcomes
               on any side, and conjuncts with premise-only quantified
               variables (the procedure reports ``EXHAUSTED`` rather
               than guessing).  The fault arm corrupts the
               *translation* -- :func:`repro.subtyping.set_conjunct_drop`
               silently loses one conjunct -- so every query whose
               proof needs the lost implication becomes a one-sided
               ``FAILS``: an incomplete-translation bug of exactly the
               class this oracle guards against
=============  ==========================================================

Success results are compared through :func:`derivation_signature`, an
alpha-invariant structural summary of the derivation tree (canonical
type keys, matched rules, premise shapes), so incidental differences in
fresh-variable naming can never masquerade as disagreements.

Fault injection (test-only): :func:`inject_fault` corrupts one side of
the named oracle so the shrinker, artifact writer and ``--replay`` path
can be exercised end to end without a real bug in the engines.  Most
oracles flip right-hand successes into a sentinel failure
(:func:`_faulted`); the ``compiled`` oracle instead corrupts the *trie
itself* (every scan drops its last candidate -- a missing-edge,
incomplete-index bug), and the ``sharded`` oracle corrupts the *wire
frames* the supervisor sends its workers (the opcode field is flipped,
so every frame is malformed), so each injected failure exercises the
exact class of bug its oracle exists to catch -- for ``sharded``, both
the oracle and the worker's malformed-frame error path fire at once,
and the ``store`` oracle disables CRC verification while replaying its
tampered log, so the flipped outcomes reach resolution: the exact
disagreement a missing (or broken) checksum would cause in production.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..core.cache import ResolutionCache
from ..core.env import ImplicitEnv, OverlapPolicy
from ..core.pretty import pretty_type
from ..core.resolution import (
    ByAssumption,
    ByCorecursion,
    ByResolution,
    Derivation,
    ResolutionStrategy,
    Resolver,
    corec_guard,
    derivation_cycles_guarded,
)
from ..core.types import Type, canonical_key
from ..errors import ImplicitCalculusError
from ..pipeline import Semantics, run_core
from .gen import (
    FuzzCase,
    augment_recursive,
    rename_case,
    rename_type,
    renaming_for_case,
)

# ---------------------------------------------------------------------------
# Outcomes and verdicts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """One engine's answer: ``ok`` with a comparable detail, or ``fail``
    with the error class name."""

    status: str  # "ok" | "fail"
    detail: Any

    def describe(self) -> str:
        return f"{self.status}: {self.detail!r}"


@dataclass(frozen=True)
class Verdict:
    """The classified comparison of two outcomes for one oracle."""

    oracle: str
    classification: str  # "agree" | "disagree" | "both_fail"
    left: Outcome
    right: Outcome
    note: str = ""

    @property
    def disagrees(self) -> bool:
        return self.classification == "disagree"

    def as_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "classification": self.classification,
            "left": self.left.describe(),
            "right": self.right.describe(),
            "note": self.note,
        }


def classify(oracle: str, left: Outcome, right: Outcome, note: str = "") -> Verdict:
    if left == right:
        kind = "both_fail" if left.status == "fail" else "agree"
    else:
        kind = "disagree"
    return Verdict(oracle, kind, left, right, note)


# ---------------------------------------------------------------------------
# Test-only fault injection.
# ---------------------------------------------------------------------------

_FAULT: str | None = None

_INJECTED = Outcome("fail", "InjectedFault")


def set_fault(name: str | None) -> str | None:
    """Corrupt one side of the named oracle; returns the previous fault."""
    global _FAULT
    previous = _FAULT
    _FAULT = name
    return previous


@contextmanager
def inject_fault(name: str | None) -> Iterator[None]:
    previous = set_fault(name)
    try:
        yield
    finally:
        set_fault(previous)


def _faulted(oracle: str, outcome: Outcome) -> Outcome:
    """The right-hand outcome, corrupted when a fault targets ``oracle``.

    The corruption flips successes into a sentinel failure, so every
    case the engines *can* resolve becomes a disagreement -- which is
    exactly what a real one-sided bug would look like to the harness.
    """
    if _FAULT == oracle and outcome.status == "ok":
        return _INJECTED
    return outcome


# ---------------------------------------------------------------------------
# Alpha-invariant derivation signatures.
# ---------------------------------------------------------------------------


def derivation_signature(
    derivation: Derivation, unmap: dict[str, str] | None = None
) -> tuple:
    """A structural, alpha-invariant summary of a derivation tree.

    ``unmap`` (used by the ``alpha`` oracle) renames the variables of a
    renamed case back before keying, so the signature of the renamed
    run is directly comparable with the original's.
    """

    def key(tau: Type) -> tuple:
        if unmap:
            tau = rename_type(tau, unmap)
        return canonical_key(tau)

    premises = []
    for premise in derivation.premises:
        if isinstance(premise, ByAssumption):
            premises.append(("assume", premise.token.index))
        elif isinstance(premise, ByCorecursion):
            premises.append(("corec", key(premise.token.rho)))
        else:
            assert isinstance(premise, ByResolution)
            premises.append(
                ("resolve", derivation_signature(premise.derivation, unmap))
            )
    return (key(derivation.query), key(derivation.lookup.entry.rho), tuple(premises))


def resolve_outcome(
    case: FuzzCase,
    *,
    env=None,
    query: Type | None = None,
    cache: ResolutionCache | None = None,
    unmap: dict[str, str] | None = None,
    policy: OverlapPolicy = OverlapPolicy.REJECT,
    strategy: ResolutionStrategy = ResolutionStrategy.SYNTACTIC,
) -> Outcome:
    """Run one resolution through a configured Resolver; normalize."""
    resolver = Resolver(
        policy=policy,
        strategy=strategy,
        cache=cache,
    )
    try:
        derivation = resolver.resolve(
            case.env() if env is None else env,
            case.query if query is None else query,
        )
    except ImplicitCalculusError as exc:
        return Outcome("fail", type(exc).__name__)
    return Outcome("ok", derivation_signature(derivation, unmap))


# ---------------------------------------------------------------------------
# The shared per-run context (owns the lazily started in-process service).
# ---------------------------------------------------------------------------


class OracleContext:
    """Shared machinery for one fuzz run (service, session naming)."""

    def __init__(self):
        self._service = None
        self._sharded = None
        self._session_counter = 0

    def service(self):
        if self._service is None:
            from ..service.server import ResolutionService

            self._service = ResolutionService(workers=2, queue_depth=32)
        return self._service

    def sharded(self):
        if self._sharded is None:
            from ..service.shards import ShardSupervisor

            self._sharded = ShardSupervisor(
                workers=2, threads=2, queue_depth=32
            )
        return self._sharded

    def next_session_name(self) -> str:
        self._session_counter += 1
        return f"fuzz-{self._session_counter}"

    def close(self) -> None:
        if self._service is not None:
            self._service.shutdown()
            self._service = None
        if self._sharded is not None:
            self._sharded.shutdown()
            self._sharded = None

    def __enter__(self) -> "OracleContext":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Engine-pair oracles.
# ---------------------------------------------------------------------------


def lookup_all_outcome(env: ImplicitEnv, query: Type) -> Outcome:
    """Every match of ``query`` in ``env``, by entry position; normalized."""
    position = {
        id(entry): (i, j)
        for i, frame in enumerate(env.frames())
        for j, entry in enumerate(frame)
    }
    matches = tuple(
        (
            position[id(m.entry)],
            tuple(canonical_key(t) for t in m.type_args),
            tuple(canonical_key(t) for t in m.context),
            canonical_key(m.head),
        )
        for m in env.lookup_all(query)
    )
    if not matches:
        return Outcome("fail", "NoMatchingRuleError")
    return Outcome("ok", matches)


def oracle_index(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """Trie-indexed vs naive retrieval of *all* matches of the query."""
    from .reference import NaiveEnv

    env = case.env()
    left = lookup_all_outcome(env, case.query)
    right = _faulted("index", lookup_all_outcome(NaiveEnv.of(env), case.query))
    return classify("index", left, right)


def _policy_pair(case: FuzzCase, **kwargs) -> Outcome:
    """One composite outcome covering *both* overlap policies.

    The compiled matcher must reproduce not just successes but the
    interpreted path's failure behaviour -- overlap rejection under
    REJECT, specificity selection and ambiguity under MOST_SPECIFIC --
    so each side of the ``compiled`` oracle is the pair of per-policy
    outcomes.  The composite counts as "ok" if either policy resolved
    (mirroring how single-policy oracles report ``both_fail`` only when
    nothing resolves), with the full per-policy detail kept so any
    divergence in *which* policy failed, or how, still disagrees.
    """
    outcomes = []
    for policy in (OverlapPolicy.REJECT, OverlapPolicy.MOST_SPECIFIC):
        out = resolve_outcome(case, policy=policy, **kwargs)
        outcomes.append((policy.name, out.status, out.detail))
    status = "fail" if all(s == "fail" for _, s, _ in outcomes) else "ok"
    return Outcome(status, tuple(outcomes))


def oracle_compiled(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """Compiled trie matchers vs the naive frame scan.

    Unlike the other oracles, the fault arm does not flip outcomes after
    the fact: it corrupts the discrimination tries themselves (every
    scan silently drops its last candidate), so the injected bug is of
    exactly the class -- an incomplete index -- this oracle guards
    against.
    """
    from ..core.compile_env import corrupt_tries
    from .reference import NaiveEnv

    if _FAULT == "compiled":
        with corrupt_tries():
            left = _policy_pair(case)
    else:
        left = _policy_pair(case)
    right = _policy_pair(case, env=NaiveEnv.of(case.env()))
    return classify("compiled", left, right, note="both overlap policies")


def oracle_cache(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """Cached vs uncached resolution (PR 1's transparency claim).

    The cached side resolves *twice* through one warm cache; the second
    (hit-serving) outcome is the one compared, and the two cached
    outcomes must agree with each other as well.
    """
    cache = ResolutionCache()
    first = resolve_outcome(case, cache=cache)
    second = resolve_outcome(case, cache=cache)
    if first != second:
        return Verdict(
            "cache", "disagree", first, second, note="cold vs warm cache differ"
        )
    right = _faulted("cache", resolve_outcome(case, cache=None))
    return classify("cache", second, right)


def oracle_logic(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """Resolver vs logic-engine backchaining (paper Theorem 1).

    The theorem is an implication: deterministic resolution success must
    entail ``Delta-dagger |= rho-dagger``.  The converse direction is
    explicitly not claimed (the logic engine proves more, e.g. through
    overlapped or shadowed rules), so a Resolver failure never counts
    against the entailment side -- unless *both* deny the query, which
    is reported as ``both_fail`` for corpus statistics.
    """
    from ..logic.encode import env_entails

    left = resolve_outcome(case)
    entailed = env_entails(case.env(), case.query)
    right = _faulted("logic", Outcome("ok", ("entails", entailed)))
    if right.status == "fail":
        return Verdict("logic", "disagree", left, right)
    if left.status == "ok":
        kind = "agree" if right.detail == ("entails", True) else "disagree"
        return Verdict("logic", kind, left, right)
    if right.detail == ("entails", False):
        return Verdict("logic", "both_fail", left, right)
    return Verdict(
        "logic", "agree", left, right, note="entailment over-approximates"
    )


def _run_outcome(case: FuzzCase, semantics: Semantics) -> Outcome:
    try:
        run = run_core(
            case.program(),
            resolver=Resolver(cache=ResolutionCache()),
            semantics=semantics,
        )
    except ImplicitCalculusError as exc:
        return Outcome("fail", type(exc).__name__)
    return Outcome("ok", (pretty_type(run.type), repr(run.value)))


def oracle_semantics(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """SMALLSTEP vs OPERATIONAL execution of the elaborated program."""
    left = _run_outcome(case, Semantics.SMALLSTEP)
    right = _faulted("semantics", _run_outcome(case, Semantics.OPERATIONAL))
    return classify("semantics", left, right)


def oracle_service(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """In-process pipeline vs the concurrent resolution service.

    The service side goes through the real request path: session
    creation, per-frame ``session/push_rules`` (re-parsing the
    pretty-printed rule types), worker-pool dispatch and protocol
    encoding.  Compared on the service's own result shape: the matched
    rule's printed type and the derivation size.
    """
    service = ctx.service()
    name = ctx.next_session_name()
    service_outcome: Outcome | None = None
    response = service.handle_sync(
        {"id": 1, "op": "session/new", "params": {"name": name}}
    )
    if not response.get("ok"):
        service_outcome = Outcome("fail", response["error"]["code"])
    if service_outcome is None:
        for frame in case.frames:
            response = service.handle_sync(
                {
                    "id": 2,
                    "op": "session/push_rules",
                    "params": {
                        "session": name,
                        "rules": [pretty_type(rho) for _, rho in frame],
                    },
                }
            )
            if not response.get("ok"):
                service_outcome = Outcome("fail", response["error"]["code"])
                break
    if service_outcome is None:
        response = service.handle_sync(
            {
                "id": 3,
                "op": "resolve",
                "params": {"session": name, "type": pretty_type(case.query)},
            }
        )
        if response.get("ok"):
            result = response["result"]
            service_outcome = Outcome("ok", (result["matched"], result["size"]))
        else:
            error = response["error"]
            detail = (error.get("details") or {}).get("error", error["code"])
            service_outcome = Outcome("fail", detail)
    service.handle_sync(
        {"id": 4, "op": "session/close", "params": {"session": name}}
    )
    # Pipeline side, normalized to the service's result shape.
    resolver = Resolver(cache=None)
    try:
        derivation = resolver.resolve(case.env(), case.query)
        left = Outcome(
            "ok", (str(derivation.lookup.entry.rho), derivation.size())
        )
    except ImplicitCalculusError as exc:
        left = Outcome("fail", type(exc).__name__)
    return classify("service", left, _faulted("service", service_outcome))


def _drive_session_script(service, name: str, case: FuzzCase) -> list[dict]:
    """Run one fixed session script; return the full response transcript.

    The script exercises the whole session lifecycle: create, one
    ``push_rules`` per case frame, resolve (with the wire-encoded
    derivation signature), then -- when there is a frame to pop -- pop
    and resolve again against the shallower environment, and close.
    Request ids are fixed, so two transcripts from equivalent services
    are comparable byte for byte.
    """
    transcript: list[dict] = []

    def call(request_id: int, op: str, params: dict) -> dict:
        response = service.handle_sync(
            {"id": request_id, "op": op, "params": params}
        )
        transcript.append(response)
        return response

    call(1, "session/new", {"name": name})
    for frame in case.frames:
        call(
            2,
            "session/push_rules",
            {"session": name, "rules": [pretty_type(rho) for _, rho in frame]},
        )
    resolve_params = {
        "session": name,
        "type": pretty_type(case.query),
        "signature": True,
    }
    call(3, "resolve", resolve_params)
    if case.frames:
        call(4, "session/pop", {"session": name})
        call(5, "resolve", dict(resolve_params))
    call(6, "session/close", {"session": name})
    return transcript


def _transcript_outcome(transcript: list[dict]) -> Outcome:
    import json

    resolved = next((r for r in transcript if r.get("id") == 3), None)
    status = "ok" if resolved is not None and resolved.get("ok") else "fail"
    return Outcome(status, json.dumps(transcript, sort_keys=True))


def oracle_sharded(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """Single-process service vs the sharded service (real subprocesses).

    Both sides run the identical session script
    (:func:`_drive_session_script`) and the *entire* transcripts must
    match byte for byte -- success results (including the wire-encoded
    derivation signatures), error codes, error messages, and depths
    alike, so identical failures classify as ``both_fail``.

    The fault arm corrupts every wire frame the supervisor sends (the
    opcode field is replaced), proving that the worker's malformed-frame
    ``parse_error`` path and this oracle both fire.
    """
    from ..service import wire

    name = ctx.next_session_name()
    left = _transcript_outcome(
        _drive_session_script(ctx.service(), name, case)
    )
    if _FAULT == "sharded":
        previous = wire.set_wire_corruption(True)
        try:
            right_transcript = _drive_session_script(ctx.sharded(), name, case)
        finally:
            wire.set_wire_corruption(previous)
    else:
        right_transcript = _drive_session_script(ctx.sharded(), name, case)
    right = _transcript_outcome(right_transcript)
    return classify(
        "sharded", left, right, note="single-process vs 2-shard transcripts"
    )


# ---------------------------------------------------------------------------
# Metamorphic oracles.
# ---------------------------------------------------------------------------


def oracle_alpha(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """Resolution is invariant under bijective alpha-renaming."""
    mapping = renaming_for_case(case)
    unmap = {fresh: old for old, fresh in mapping.items()}
    left = resolve_outcome(case)
    renamed = rename_case(case, mapping)
    right = _faulted("alpha", resolve_outcome(renamed, unmap=unmap))
    return classify("alpha", left, right, note="alpha-renamed replay")


def oracle_permute(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """Within-frame entry order is irrelevant under ``no_overlap``.

    Lookup collects *all* matches of a frame before deciding, so a
    permutation inside a frame can change neither the unique winner nor
    the overlap failure.  (Frame *stack* order is load-bearing -- it is
    the paper's lexical scoping -- and is left untouched.)
    """
    rng = random.Random(case.seed * 7919 + case.index + 1)
    frames = tuple(
        tuple(rng.sample(frame, len(frame))) for frame in case.frames
    )
    permuted = FuzzCase(
        seed=case.seed,
        index=case.index,
        frames=frames,
        query=case.query,
        overlapping=case.overlapping,
    )
    left = resolve_outcome(case)
    right = _faulted("permute", resolve_outcome(permuted))
    return classify("permute", left, right, note="within-frame permutation")


def oracle_lint(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """``repro lint`` JSON is stable under re-parse of printed rules."""
    from ..core.parser import parse_core_type
    from ..diagnostics import lint_env, render_json

    left_json = render_json(lint_env(case.env()), "<fuzz>")
    reparsed = FuzzCase(
        seed=case.seed,
        index=case.index,
        frames=tuple(
            tuple((e, parse_core_type(pretty_type(rho))) for e, rho in frame)
            for frame in case.frames
        ),
        query=case.query,
        overlapping=case.overlapping,
    )
    right_json = render_json(lint_env(reparsed.env()), "<fuzz>")
    left = Outcome("ok", left_json)
    right = _faulted("lint", Outcome("ok", right_json))
    return classify("lint", left, right, note="lint JSON re-parse stability")


def _tamper_store_log(path: str) -> int:
    """Flip every record's outcome on disk, leaving the CRCs stale.

    This is on-disk corruption of exactly the class the frame checksum
    exists to catch: each payload is rewritten to a *decodable* record
    whose outcome contradicts the original (successes become
    ``NoMatchingRuleError`` failures, failures swap error class), while
    the trailing CRC stays a checksum of nothing.  Under normal
    verification every tampered frame quarantines at reopen; under CRC
    bypass the flipped outcomes decode cleanly and reach resolution.
    Returns the number of records tampered.
    """
    import json
    import zlib

    from ..store.log import MARKER, RecordLog, _LEN

    log = RecordLog(path, kind="derivations", read_only=True)
    try:
        spans = log.record_spans()
        payloads = [log.read_payload(off, plen) for off, plen in spans]
        header_end = spans[0][0] if spans else log.size_bytes()
    finally:
        log.close()
    with open(path, "rb") as fh:
        head = fh.read(header_end)
    frames = []
    tampered = 0
    for payload in payloads:
        if payload is None:
            continue
        doc = json.loads(payload.decode("utf-8"))
        if doc.get("k") == "D":
            doc.pop("d", None)
            doc["k"] = "F"
            doc["err"] = ["NoMatchingRuleError", "store fault arm tampered this"]
        else:
            doc["err"] = ["OverlappingRulesError", "store fault arm tampered this"]
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        stale_crc = (zlib.crc32(blob) ^ 0xDEADBEEF) & 0xFFFFFFFF
        frames.append(
            bytes([MARKER]) + _LEN.pack(len(blob)) + blob + _LEN.pack(stale_crc)
        )
        tampered += 1
    with open(path, "wb") as fh:
        fh.write(head + b"".join(frames))
    return tampered


def oracle_store(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """Cold resolution vs the persistent derivation store (module docs).

    Three sub-checks per case, each against the same cold baseline:

    1. *write-through transparency*: resolving through a
       :class:`~repro.store.PersistentResolutionCache` agrees;
    2. *disk-warmed replay*: after close + reopen + ``warm``, the
       decoded derivation reproduces the cold signature;
    3. *quarantine*: after :func:`_tamper_store_log` (stale CRCs), the
       reopened store must count corrupt records (when any existed)
       and resolution must *still* agree, because quarantined records
       are recomputed, never trusted.

    The fault arm runs the tampered replay with CRC verification
    bypassed instead, so every flipped outcome reaches resolution.
    """
    import os
    import shutil
    import tempfile

    from ..store import DerivationStore, PersistentResolutionCache, set_crc_bypass
    from ..store.store import LOG_NAME

    env = case.env()
    left = resolve_outcome(case, env=env)
    tmp = tempfile.mkdtemp(prefix="repro-fuzz-store-")
    try:
        log_path = os.path.join(tmp, LOG_NAME)
        store = DerivationStore(tmp)
        try:
            written = resolve_outcome(
                case, env=env, cache=PersistentResolutionCache(store)
            )
        finally:
            store.close()
        if written != left:
            return classify("store", left, written, note="write-through resolve")

        if _FAULT == "store":
            _tamper_store_log(log_path)
            previous = set_crc_bypass(True)
            try:
                store = DerivationStore(tmp)
                try:
                    warmed = PersistentResolutionCache(store)
                    warmed.warm(env)
                    right = resolve_outcome(case, env=env, cache=warmed)
                finally:
                    store.close()
            finally:
                set_crc_bypass(previous)
            return classify("store", left, right, note="tampered log, CRC bypassed")

        store = DerivationStore(tmp)
        try:
            warmed = PersistentResolutionCache(store)
            warmed.warm(env)
            right = resolve_outcome(case, env=env, cache=warmed)
        finally:
            store.close()
        if right != left:
            return classify("store", left, right, note="disk-warmed replay")

        tampered = _tamper_store_log(log_path)
        store = DerivationStore(tmp)
        try:
            if tampered and store.stats.store_corrupt_records == 0:
                return Verdict(
                    "store",
                    "disagree",
                    left,
                    Outcome("fail", "QuarantineDidNotFire"),
                    note="stale-CRC records were served, not quarantined",
                )
            warmed = PersistentResolutionCache(store)
            warmed.warm(env)
            right = resolve_outcome(case, env=env, cache=warmed)
        finally:
            store.close()
        return classify("store", left, right, note="post-quarantine recompute")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _corec_outcome(env, query: Type) -> Outcome:
    """The corecursive engine's answer, independently guard-validated.

    A returned derivation whose cycles do not pass
    :func:`derivation_cycles_guarded` is reported as its own failure
    class: this re-validation is *outside* the engine, so disabling the
    engine's internal check (the fault arm) cannot go unnoticed.
    """
    resolver = Resolver(strategy=ResolutionStrategy.CORECURSIVE)
    try:
        derivation = resolver.resolve(env, query)
    except ImplicitCalculusError as exc:
        return Outcome("fail", type(exc).__name__)
    if not derivation_cycles_guarded(derivation):
        return Outcome("fail", "UnguardedCycleEvidence")
    return Outcome("ok", derivation_signature(derivation))


def _fuel_vs_corec(env, query: Type, note: str) -> Verdict:
    """Compare the fuel-bounded engine against the corecursive engine.

    The comparison is *asymmetric* in exactly one direction, mirroring
    the ``logic`` oracle's treatment of Theorem 1: a fuel divergence is
    an "I gave up", which the corecursive engine is allowed -- indeed
    expected -- to refine into either a guarded recursive proof or a
    definite failure.  Everything else must match exactly.
    """
    left = resolve_outcome(
        FuzzCase(seed=0, index=0, frames=(), query=query), env=env, query=query
    )
    right = _faulted("corecursive", _corec_outcome(env, query))
    if right.detail == "UnguardedCycleEvidence":
        # Never a benign refinement: the engine handed back a proof its
        # own soundness condition forbids.
        return Verdict("corecursive", "disagree", left, right, note=note)
    if left == Outcome("fail", "ResolutionDivergenceError") and right != _INJECTED:
        if right.status == "ok":
            return Verdict(
                "corecursive",
                "agree",
                left,
                right,
                note=f"{note}: cycle closed where fuel diverges",
            )
        return Verdict(
            "corecursive",
            "both_fail",
            left,
            right,
            note=f"{note}: divergence refined to a definite failure",
        )
    return classify("corecursive", left, right, note=note)


def oracle_corecursive(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """Fuel-bounded vs corecursive resolution (module docs).

    Three sub-checks per case, first disagreement wins:

    1. the plain case -- on queries both engines answer, signatures
       must agree (the corecursive engine is a conservative extension);
    2. the recursively augmented case
       (:func:`~repro.fuzz.gen.augment_recursive`) -- the corecursive
       engine must tame the recursive instance workload;
    3. a fixed unguarded canary ``{C} => C |- C`` -- both engines must
       reject it, whatever the generated case looks like.

    The fault arm disables the engine's guardedness check for all three,
    so the canary's unguarded loop closes into evidence that the
    oracle's independent validation (:func:`_corec_outcome`) refuses --
    every case disagrees, proving the check is load-bearing.
    """
    if _FAULT == "corecursive":
        with corec_guard(False):
            return _oracle_corecursive_checks(case)
    return _oracle_corecursive_checks(case)


def _oracle_corecursive_checks(case: FuzzCase) -> Verdict:
    from ..core.types import TCon, rule as mk_rule

    env = case.env()
    plain = _fuel_vs_corec(env, case.query, "plain case")
    if plain.disagrees:
        return plain
    augmented = augment_recursive(case)
    recursive = _fuel_vs_corec(
        augmented.env(), augmented.query, "recursive augmentation"
    )
    if recursive.disagrees:
        return recursive
    canary_head = TCon("CorecCanary")
    canary_env = ImplicitEnv.empty().push([mk_rule(canary_head, [canary_head])])
    canary = _fuel_vs_corec(canary_env, canary_head, "unguarded canary")
    if canary.disagrees:
        return canary
    return recursive


def oracle_subtyping(case: FuzzCase, ctx: OracleContext) -> Verdict:
    """Three-way agreement around the intersection-subtyping backend.

    The sides: the deterministic ``Resolver`` (left), the modus-ponens
    subtyping decision (:func:`repro.subtyping.decide`) and the logic
    engine's entailment (both folded into the right outcome).  On the
    comparable fragment:

    1. every ``HOLDS`` derivation must survive the independent checker
       (:func:`repro.subtyping.check_entailment`) -- evidence the
       search produced but cannot justify is its own failure class;
    2. the subtyping verdict must equal entailment (both decide the
       semantic relation over the same translation);
    3. a Resolver success must be subtyping-provable (resolution
       implies subtyping -- the paper's direction); the converse is
       *not* claimed: an intersection forgets nearness and overlap
       policies, so subtyping proving more is agreement, like the
       ``logic`` oracle's over-approximation.

    Carve-outs (documented in docs/TESTING.md): an ``EXHAUSTED``
    subtyping verdict (step budget, or a premise-only quantified
    variable) and budget-dependent Resolver outcomes (fuel divergence,
    deadlines) are outside the fragment and classify as agreement with
    an explanatory note.

    The fault arm corrupts the translation itself -- one conjunct is
    silently dropped -- rather than flipping outcomes after the fact.
    """
    from ..logic.encode import env_entails
    from ..subtyping import (
        SubtypingVerdict,
        check_entailment,
        conjunct_drop,
        decide,
    )

    env = case.env()
    left = resolve_outcome(case, env=env)
    if _FAULT == "subtyping":
        with conjunct_drop(True):
            result = decide(env, case.query)
    else:
        result = decide(env, case.query)
    if result.verdict is SubtypingVerdict.HOLDS and not check_entailment(
        env, case.query, result.derivation
    ):
        return Verdict(
            "subtyping",
            "disagree",
            left,
            Outcome("fail", "InvalidSubtypingDerivation"),
            note="derivation failed independent re-checking",
        )
    entailed = env_entails(env, case.query)
    right = Outcome(
        "ok", ("subtyping", result.verdict.value, "entails", entailed)
    )
    if result.verdict is SubtypingVerdict.EXHAUSTED:
        return Verdict(
            "subtyping", "agree", left, right, note=f"carve-out: {result.reason}"
        )
    holds = result.verdict is SubtypingVerdict.HOLDS
    if holds != entailed:
        return Verdict(
            "subtyping",
            "disagree",
            left,
            right,
            note="subtyping vs entailment verdicts differ",
        )
    if left.status == "ok":
        if holds:
            return Verdict("subtyping", "agree", left, right)
        return Verdict(
            "subtyping",
            "disagree",
            left,
            right,
            note="resolution succeeded but subtyping denies it",
        )
    if left.detail in ("ResolutionDivergenceError", "DeadlineExceededError"):
        return Verdict(
            "subtyping",
            "agree",
            left,
            right,
            note="carve-out: budget-dependent Resolver outcome",
        )
    if holds:
        return Verdict(
            "subtyping",
            "agree",
            left,
            right,
            note="subtyping over-approximates deterministic resolution",
        )
    return Verdict("subtyping", "both_fail", left, right)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

OracleFn = Callable[[FuzzCase, OracleContext], Verdict]

#: The oracle matrix, in the order `repro fuzz` runs them.
ORACLES: dict[str, OracleFn] = {
    "index": oracle_index,
    "compiled": oracle_compiled,
    "cache": oracle_cache,
    "logic": oracle_logic,
    "semantics": oracle_semantics,
    "service": oracle_service,
    "sharded": oracle_sharded,
    "alpha": oracle_alpha,
    "permute": oracle_permute,
    "lint": oracle_lint,
    "store": oracle_store,
    "corecursive": oracle_corecursive,
    "subtyping": oracle_subtyping,
}


def oracle_names() -> tuple[str, ...]:
    return tuple(ORACLES)
