"""Implicit environments and rule lookup (Fig. 1 of the paper).

An implicit environment ``Delta`` is a *stack of rule sets*; nesting of
rule applications pushes a new set.  Lookup of a queried type ``tau``:

* proceeds from the innermost (topmost) rule set outwards -- this gives
  the lexical scoping and the "nearest match wins" behaviour of the
  overview examples;
* within one rule set, finds entries ``rho = forall a-bar'.rho-bar' => tau'``
  whose head matches ``tau`` under a one-way unifier ``theta``
  (``theta tau' = tau``);
* fails with :class:`OverlappingRulesError` when several distinct entries
  of the *same* set match -- the paper's ``no_overlap`` condition -- unless
  the :class:`OverlapPolicy.MOST_SPECIFIC` policy of the companion
  material is selected, in which case a unique most-specific match is
  chosen (and its absence is an error).

Entries carry an arbitrary *payload*: ``None`` during pure type checking,
a System F evidence term during elaboration, a runtime closure in the
operational semantics.  This mirrors how the paper reuses one lookup
relation across Fig. 1, Fig. 2 and the big-step semantics.

Lookup is *indexed*, in the logic-programming sense Theorem 1's reading
of an environment invites: every environment owns one
:class:`~repro.core.compile_env.CompiledFrame` per rule set -- a
discrimination trie over the rule heads plus per-rule matchers --
shared by reference with everything pushed on top of it and built on
its first lookup, so a scope that is never queried costs one small
object.  The compiled path is observably equivalent to the naive frame
scan (same matches, in the same entry order, hence the same results
*and* the same overlap failures); the naive scan survives as the
reference arm of the ``compiled`` fuzz oracle
(:mod:`repro.fuzz.reference`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from ..errors import (
    AmbiguousRuleTypeError,
    NoMatchingRuleError,
    OverlappingRulesError,
)
from ..obs import record_lookup
from .subst import fresh_tvar, subst_type
from .types import RuleType, TVar, Type, canonical_key, head_symbol, promote
from .unify import match_type

class OverlapPolicy(enum.Enum):
    """How to handle several matching rules within one rule set."""

    #: The paper's ``no_overlap``: any overlap within a set is an error.
    REJECT = "reject"
    #: The companion material's two-level priority scheme: within a set,
    #: the unique most-specific matching rule wins.
    MOST_SPECIFIC = "most_specific"


@dataclass(frozen=True)
class RuleEntry:
    """One rule in a rule set: its type plus a stage-specific payload."""

    rho: Type
    payload: Any = None

    def parts(self) -> tuple[tuple[str, ...], tuple[Type, ...], Type]:
        return promote(self.rho)


@dataclass(frozen=True)
class LookupResult:
    """The outcome of a successful lookup.

    * ``entry`` -- the matched environment entry;
    * ``type_args`` -- instantiations of the entry's quantified variables,
      in declaration order (feeds ``x |tau-bar|`` in rule ``TrRes``);
    * ``context`` -- the instantiated context ``theta rho-bar'``;
    * ``head`` -- the instantiated head (alpha-equal to the query).
    """

    entry: RuleEntry
    type_args: tuple[Type, ...]
    context: tuple[Type, ...]
    head: Type

    @property
    def payload(self) -> Any:
        return self.entry.payload


class EnvFingerprint:
    """A structural, frame-stack-aware identity token for an environment.

    Two environments carry equal fingerprints **iff** their frame stacks
    are structurally equal: same number of frames, and frame-by-frame the
    same sequence of entry types up to alpha-equivalence (payloads are
    deliberately ignored -- see :meth:`ImplicitEnv.payload_witness` for
    the companion token that distinguishes evidence).  Equality is exact
    (full canonical keys are retained), while the hash is *chained*: each
    ``push`` combines the parent's hash with the new frame's key in O(new
    frame), so fingerprints are cheap to extend incrementally and equal
    key sequences always hash alike.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: tuple, hash_: int):
        self.key = key
        self._hash = hash_

    def extend(self, frame_key: tuple) -> "EnvFingerprint":
        return EnvFingerprint(self.key + (frame_key,), hash((self._hash, frame_key)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, EnvFingerprint):
            return NotImplemented
        return self._hash == other._hash and self.key == other.key

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"EnvFingerprint(depth={len(self.key)}, hash={self._hash:#x})"


_EMPTY_FINGERPRINT = EnvFingerprint((), hash(("implicit-env-root",)))


def _frame_key(frame: tuple[RuleEntry, ...]) -> tuple:
    """The structural key of one rule set (entry order is significant)."""
    return tuple(canonical_key(entry.rho) for entry in frame)


class ImplicitEnv:
    """An immutable stack of rule sets (``Delta ::= . | Delta; rho-bar``)."""

    __slots__ = ("_frames", "_fingerprint", "_witness", "_compiled")

    def __init__(
        self,
        frames: tuple[tuple[RuleEntry, ...], ...] = (),
        fingerprint: EnvFingerprint | None = None,
        compiled: "tuple[CompiledFrame, ...] | None" = None,
    ):
        self._frames = frames
        self._fingerprint = fingerprint
        self._witness: tuple | None = None
        self._compiled = compiled

    @staticmethod
    def empty() -> "ImplicitEnv":
        return ImplicitEnv()

    def push(self, entries: Iterable[RuleEntry | Type]) -> "ImplicitEnv":
        """Extend with a new innermost rule set.

        Bare types are wrapped in payload-less entries for convenience.
        The child's fingerprint is derived incrementally from this
        environment's: pushing extends the key chain, and "popping" --
        resuming use of this (immutable) environment -- re-yields the old
        fingerprint, so caches keyed on it re-hit after a scope exits.
        The child's compiled frames are likewise incremental: it adds one
        (not yet built) :class:`CompiledFrame` for the new frame and
        shares this environment's by reference.
        """
        frame = tuple(
            e if isinstance(e, RuleEntry) else RuleEntry(e) for e in entries
        )
        return ImplicitEnv(
            self._frames + (frame,),
            self.fingerprint().extend(_frame_key(frame)),
            self.compiled_frames() + (CompiledFrame(frame),),
        )

    def compiled_frames(self) -> "tuple[CompiledFrame, ...]":
        """Per-frame compiled matchers, outermost first (created lazily
        for directly-constructed environments, incrementally via
        :meth:`push`; each builds its trie on its first lookup)."""
        compiled = self._compiled
        if compiled is None:
            compiled = tuple(CompiledFrame(frame) for frame in self._frames)
            self._compiled = compiled
        return compiled

    def fingerprint(self) -> EnvFingerprint:
        """The structural fingerprint of this frame stack (see
        :class:`EnvFingerprint`; computed lazily for directly-constructed
        environments, incrementally via :meth:`push`)."""
        fp = self._fingerprint
        if fp is None:
            fp = _EMPTY_FINGERPRINT
            for frame in self._frames:
                fp = fp.extend(_frame_key(frame))
            self._fingerprint = fp
        return fp

    def payload_witness(self) -> tuple:
        """Identity token for the payloads carried by this environment.

        The structural fingerprint ignores payloads, but consumers such
        as the elaborator read evidence off lookup results, so a
        derivation cache must not conflate structurally equal
        environments carrying *different* evidence.  The witness is the
        per-entry tuple of payload object identities (``None`` for bare
        entries); a cache that keys on ``(fingerprint, witness)`` and
        keeps the witnessed environment alive (so ids cannot be recycled)
        therefore only ever matches environments whose payloads are the
        very same objects.  Pure type checking pushes payload-less
        entries, making the witness a tuple of ``None`` -- structurally
        equal environments then share cache entries, which is the hot
        path the cache exists for.
        """
        witness = self._witness
        if witness is None:
            witness = tuple(
                None if entry.payload is None else id(entry.payload)
                for frame in self._frames
                for entry in frame
            )
            self._witness = witness
        return witness

    def frames(self) -> tuple[tuple[RuleEntry, ...], ...]:
        """Outermost-first tuple of rule sets."""
        return self._frames

    def entries(self) -> Iterator[RuleEntry]:
        """All entries, innermost frame first."""
        for frame in reversed(self._frames):
            yield from frame

    def __len__(self) -> int:
        return len(self._frames)

    def __bool__(self) -> bool:
        return bool(self._frames)

    def lookup(
        self, tau: Type, policy: OverlapPolicy = OverlapPolicy.REJECT
    ) -> LookupResult:
        """Find the rule for ``tau`` (Fig. 1's ``Delta(tau)``).

        Raises :class:`NoMatchingRuleError` if no frame matches,
        :class:`OverlappingRulesError` on ambiguous overlap, and
        :class:`AmbiguousRuleTypeError` if matching leaves a quantified
        variable of the winning rule uninstantiated (the extended report's
        "ambiguous instantiation" runtime error, caught here statically).
        """
        record_lookup()
        for compiled in reversed(self.compiled_frames()):
            matched = compiled.matches(tau)
            if not matched:
                continue
            if len(matched) > 1:
                if policy is OverlapPolicy.REJECT:
                    raise overlap_error(tau, [r for _, r in matched])
                return compiled.most_specific(matched, tau)
            return matched[0][1]
        raise no_match_error(tau)

    def lookup_all(self, tau: Type) -> Iterator[LookupResult]:
        """All matches for ``tau`` in nearness order (inner frames first).

        Used by the ``BACKTRACKING`` resolution strategy -- the "fully
        semantic" notion of resolution the paper discusses and rejects --
        which may fall back to a farther rule when a nearer one gets
        stuck.  No ``no_overlap`` check is performed: provability, not
        coherence, is the point of that strategy.
        """
        record_lookup()
        for compiled in reversed(self.compiled_frames()):
            for _, result in compiled.matches(tau):
                yield result


def overlap_error(tau: Type, matches: list[LookupResult]) -> OverlappingRulesError:
    """The ``no_overlap`` failure for several matches in one rule set."""
    return OverlappingRulesError(
        f"query {tau} matches {len(matches)} rules in one rule set: "
        + ", ".join(str(m.entry.rho) for m in matches)
    )


def no_match_error(tau: Type) -> NoMatchingRuleError:
    return NoMatchingRuleError(f"no rule matching {tau} in the implicit environment")


def _try_match(entry: RuleEntry, tau: Type) -> LookupResult | None:
    tvars, context, head = entry.parts()
    fresh = tuple(fresh_tvar(v.split("%")[0]) for v in tvars)
    renaming = {old: TVar(new) for old, new in zip(tvars, fresh)}
    head_f = subst_type(renaming, head)
    theta = match_type(head_f, tau, fresh)
    if theta is None:
        return None
    missing = [v for v in fresh if v not in theta]
    if missing:
        # ``unambiguous`` rules never reach this (all tvars occur in the
        # head); hand-built environments can, and the paper classifies it
        # as the "ambiguous instantiation" error.
        raise AmbiguousRuleTypeError(
            f"matching {entry.rho} against {tau} leaves quantified variable(s) "
            f"{', '.join(tvars[fresh.index(m)] for m in missing)} undetermined"
        )
    type_args = tuple(theta[v] for v in fresh)
    inst_context = tuple(subst_type(theta, subst_type(renaming, rho)) for rho in context)
    return LookupResult(
        entry=entry,
        type_args=type_args,
        context=inst_context,
        head=subst_type(theta, head_f),
    )


def _instance_of(a: LookupResult, b: LookupResult) -> bool:
    """Whether ``a``'s head is a substitution instance of ``b``'s head."""
    _, _, a_head = a.entry.parts()
    b_tvars, _, b_head = b.entry.parts()
    # Head-symbol prune: a rigid-headed pattern can only instantiate to
    # heads with the identical root constructor.
    b_sym = head_symbol(b_head, frozenset(b_tvars))
    if b_sym is not None and b_sym != head_symbol(a_head):
        return False
    fresh_b = tuple(fresh_tvar("s") for _ in b_tvars)
    ren_b = {old: TVar(new) for old, new in zip(b_tvars, fresh_b)}
    # a's own quantified variables act as rigid constants here.
    return match_type(subst_type(ren_b, b_head), a_head, fresh_b) is not None


def _rigid_symbols(result: LookupResult) -> int:
    """Number of non-variable nodes in a rule head (pattern refinement)."""
    from .types import TVar as _TVar, subterms

    tvars, _, head = result.entry.parts()
    bound = set(tvars)
    return sum(
        1
        for t in subterms(head)
        if not (isinstance(t, _TVar) and t.name in bound)
    )


def _more_specific(a: LookupResult, b: LookupResult) -> bool:
    """Whether ``a`` is strictly more specific than ``b``.

    Primary order: the standard instance preorder on heads (``Int -> Int``
    is more specific than ``forall a. a -> a``).  The companion material
    additionally wants ``forall a. a -> Int`` to beat ``forall a. a -> a``
    at the query ``Int -> Int`` even though the two heads are incomparable
    in the instance preorder; we realise its (underspecified) meet
    operation by a pattern-refinement tiebreak: more rigid symbols in the
    head means more specific, provided neither head is an instance of the
    other.
    """
    a_inst_b = _instance_of(a, b)
    b_inst_a = _instance_of(b, a)
    if a_inst_b and not b_inst_a:
        return True
    if b_inst_a:
        return False
    return _rigid_symbols(a) > _rigid_symbols(b)


# Imported last: compile_env builds on the matching helpers above.
from .compile_env import CompiledFrame  # noqa: E402
