"""Compiled environment matchers: discrimination tries + per-rule code.

Theorem 1 reads an implicit environment as a logic program; classic
first-argument indexing would exploit only the root symbol of that
reading.  This module compiles each *frozen* rule set the rest of the
way down, in the classic term-indexing style (discrimination tries over
flattened term skeletons, as in the Handbook of Automated Reasoning's
indexing chapter and Kiselyov et al.'s typeclasses-as-logic-programming
line):

* every frame gets a :class:`DiscriminationTrie` over the preorder token
  stream of its rule heads -- one walk over the hash-consed query term
  selects the candidate rule positions (a *superset* of the true matches,
  in entry order; completeness is what the differential oracles pin);
* every rule gets a specialized matcher replacing generic unification:

  - **ground** heads (no quantified variable, no embedded rule type)
    match by *pointer equality* -- hash-consing makes structural equality
    of simple types object identity, so the whole match is one ``is``;
  - **extracting** heads (rigid skeleton around quantified variables,
    no embedded rule type) run a precompiled instruction sequence that
    checks the skeleton and binds each variable's subterm directly --
    no freshening, no substitution, no occurs checks.  The instantiated
    head *is* the query (interning again), and contexts that mention no
    variable are returned as precomputed constants;
  - **generic** heads (any head embedding a :class:`RuleType`) fall back
    to the interpreted ``_try_match``.  Rule-type matching involves
    context *set* unification, whose equality is coarser than canonical
    keys, so only the general engine reproduces it exactly; the
    ``compiled_fallbacks`` counter makes the fallback rate observable.

Frame compilation additionally memoizes the MOST_SPECIFIC overlap
decision per *set of matched positions* (with a pairwise
``_more_specific`` memo underneath), and whole match scans per interned
query object -- sound because frames are immutable, types are interned
and matching is deterministic.  These memos, not the trie walk, are
where most of the steady-state wide-environment speedup comes from; the
trie is what keeps the *first* scan of each query sublinear in the
frame width.

Compiled frames are owned by the environment (:class:`ImplicitEnv`
keeps one :class:`CompiledFrame` per rule set and ``push`` shares the
parent's by reference), and each is built on its first lookup: until
then it is one small object, so short-lived scopes that are never
queried cost nothing extra.  Push/pop never sees a stale artifact
because environments and frames are immutable: popping resumes the
parent environment, which still holds its own compiled frames.  Lookup
results carry the very same :class:`RuleEntry` objects as the frame.

The compiled path is the only production lookup.  It is observably
equivalent to the naive frame scan -- same results, same failures,
byte-identical messages -- which ``tests/property/test_property_compile.py``
and the ``compiled`` fuzz oracle enforce against the reference scan in
:mod:`repro.fuzz.reference`.  The tries serve environment lookup only:
the logic engine (:mod:`repro.logic`) is a plain reference prover that
scans its clauses in program order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from ..errors import AmbiguousRuleTypeError, OverlappingRulesError
from ..obs import record_compiled
from .env import ImplicitEnv, LookupResult, RuleEntry, _more_specific, _try_match
from .subst import subst_type
from .types import (
    RuleType,
    TCon,
    TFun,
    TVar,
    Type,
    canonical_key,
    ftv,
    subterms,
)
from .unify import _Fail, _unify

__all__ = [
    "DiscriminationTrie",
    "CompiledFrame",
    "set_trie_corruption",
    "corrupt_tries",
    "type_pattern_tokens",
    "type_query_tokens",
    "token_extents",
    "most_specific_error",
    "trie_key",
]

_EMPTY_FSET: frozenset[str] = frozenset()


# ---------------------------------------------------------------------------
# Fault injection (the `compiled` fuzz oracle's trie-corruption arm).
# ---------------------------------------------------------------------------

_CORRUPT = False


def set_trie_corruption(enabled: bool) -> bool:
    """Drop the last trie candidate of every scan (simulating a missing
    trie edge, i.e. an *incomplete* index); returns the previous value."""
    global _CORRUPT
    previous = _CORRUPT
    _CORRUPT = bool(enabled)
    return previous


@contextmanager
def corrupt_tries() -> Iterator[None]:
    """Scoped :func:`set_trie_corruption` (test-only)."""
    previous = set_trie_corruption(True)
    try:
        yield
    finally:
        set_trie_corruption(previous)


# ---------------------------------------------------------------------------
# Token streams: types flattened to preorder (token, arity) sequences.
# ---------------------------------------------------------------------------

#: A pattern position standing for "any one subterm" (a quantified
#: variable, or an embedded rule type matched conservatively).
STAR = None


def type_pattern_tokens(head: Type, bound: frozenset[str]) -> list:
    """The trie insertion stream of a rule head.

    Each element is either :data:`STAR` or a ``(token, arity)`` pair;
    quantified variables and embedded rule types become stars (one-subterm
    wildcards), everything else its exact constructor token.
    """
    out: list = []
    stack: list[Type] = [head]
    while stack:
        t = stack.pop()
        if isinstance(t, TVar):
            out.append(STAR if t.name in bound else (("v", t.name), 0))
        elif isinstance(t, TCon):
            out.append((("c", t.name, len(t.args)), len(t.args)))
            stack.extend(reversed(t.args))
        elif isinstance(t, TFun):
            out.append((("f",), 2))
            stack.append(t.res)
            stack.append(t.arg)
        else:  # RuleType: conservatively one-subterm wildcard
            out.append(STAR)
    return out


def type_query_tokens(tau: Type) -> list[tuple[tuple, int]]:
    """The retrieval stream of a query: every position is rigid.

    Rule types appear as opaque leaves -- only a pattern star can consume
    them, which is exactly how :func:`type_pattern_tokens` emits them.
    """
    out: list[tuple[tuple, int]] = []
    stack: list[Type] = [tau]
    while stack:
        t = stack.pop()
        if isinstance(t, TVar):
            out.append((("v", t.name), 0))
        elif isinstance(t, TCon):
            out.append((("c", t.name, len(t.args)), len(t.args)))
            stack.extend(reversed(t.args))
        elif isinstance(t, TFun):
            out.append((("f",), 2))
            stack.append(t.res)
            stack.append(t.arg)
        else:
            out.append((("r", len(t.tvars), len(t.context)), 0))
    return out


def token_extents(tokens: list) -> list[int]:
    """``extents[i]`` = index one past the subterm starting at token ``i``.

    Lets a pattern star skip a whole query subterm in O(1) during
    retrieval.  Computed with a pending-arity stack in one forward pass.
    """
    extents = [0] * len(tokens)
    pending: list[list[int]] = []  # [start, remaining children]
    for i, tok in enumerate(tokens):
        arity = tok[1]
        pending.append([i, arity])
        while pending and pending[-1][1] == 0:
            start, _ = pending.pop()
            extents[start] = i + 1
            if pending:
                pending[-1][1] -= 1
    return extents


class _TrieNode:
    __slots__ = ("edges", "star", "positions")

    def __init__(self):
        self.edges: dict[tuple[tuple, int], _TrieNode] = {}
        self.star: _TrieNode | None = None
        self.positions: list[int] = []


class DiscriminationTrie:
    """A discrimination trie over preorder token streams.

    Retrieval returns the sorted positions of every stored pattern that
    could match the query -- an over-approximation (stars are matched
    structurally, not semantically), never an under-approximation, so
    downstream matchers only ever *filter* the candidate list.
    """

    __slots__ = ("root",)

    def __init__(self):
        self.root = _TrieNode()

    def insert(self, tokens: list, position: int) -> None:
        node = self.root
        for tok in tokens:
            if tok is STAR:
                child = node.star
                if child is None:
                    child = node.star = _TrieNode()
            else:
                child = node.edges.get(tok)
                if child is None:
                    child = node.edges[tok] = _TrieNode()
            node = child
        node.positions.append(position)

    def retrieve(
        self, tokens: list[tuple[tuple, int]], extents: list[int]
    ) -> list[int]:
        """Sorted candidate positions for the query token stream.

        Each node has one path from the root, and that path fixes how
        many query tokens it has consumed, so no node is visited twice
        and each stored position is found at most once.
        """
        n = len(tokens)
        found: list[int] = []
        stack: list[tuple[_TrieNode, int]] = [(self.root, 0)]
        while stack:
            node, i = stack.pop()
            if i == n:
                found.extend(node.positions)
                continue
            child = node.edges.get(tokens[i])
            if child is not None:
                stack.append((child, i + 1))
            if node.star is not None:
                stack.append((node.star, extents[i]))
        found.sort()
        return found

    def describe(self) -> tuple:
        """A deterministic structural summary (edges sorted by token)."""

        def node_key(node: _TrieNode) -> tuple:
            edges = tuple(
                (tok, node_key(child))
                for tok, child in sorted(node.edges.items())
            )
            star = node_key(node.star) if node.star is not None else None
            return (edges, star, tuple(node.positions))

        return node_key(self.root)


# ---------------------------------------------------------------------------
# Per-rule specialized matchers.
# ---------------------------------------------------------------------------


def _contains_rule_type(tau: Type) -> bool:
    return any(isinstance(t, RuleType) for t in subterms(tau))


def _same_type(t1: Type, t2: Type) -> bool:
    """Zero-flex type equality, exactly as ``match_type`` would compare a
    repeated-variable occurrence: identity for interned simple trees,
    full no-flex unification when rule types are involved (whose context
    *set* pairing is coarser than canonical-key equality)."""
    if t1 is t2:
        return True
    try:
        _unify(t1, t2, _EMPTY_FSET, {}, frozenset())
    except _Fail:
        return False
    return True


class _GroundRule:
    """Pointer-equality fast path for fully rigid heads."""

    __slots__ = ("entry", "head", "result", "ambiguous")

    kind = "ground"

    def __init__(self, entry: RuleEntry, tvars: tuple[str, ...],
                 context: tuple[Type, ...], head: Type):
        self.entry = entry
        self.head = head
        # A ground head leaves *every* quantified variable undetermined;
        # `_try_match` raises, and so do we (same wording, built lazily
        # around the query below).
        self.ambiguous = ", ".join(tvars) if tvars else None
        self.result = (
            None
            if tvars
            else LookupResult(entry=entry, type_args=(), context=context, head=head)
        )

    def match(self, tau: Type) -> LookupResult | None:
        if tau is not self.head:
            return None
        if self.ambiguous is not None:
            raise AmbiguousRuleTypeError(
                f"matching {self.entry.rho} against {tau} leaves quantified "
                f"variable(s) {self.ambiguous} undetermined"
            )
        return self.result

    def describe(self) -> tuple:
        return ("ground", canonical_key(self.head), self.ambiguous is not None)


class _ExtractRule:
    """Precompiled skeleton-check + binder-extraction matcher.

    ``ops`` is a preorder instruction list run against an explicit stack
    seeded with the query; maximal variable-free subterms of the head
    collapse into single pointer-equality checks.
    """

    __slots__ = (
        "entry", "tvars", "ops", "nslots", "missing",
        "context", "context_ops", "needs_subst",
    )

    kind = "extract"

    def __init__(self, entry: RuleEntry, tvars: tuple[str, ...],
                 context: tuple[Type, ...], head: Type):
        self.entry = entry
        self.tvars = tvars
        self.nslots = len(tvars)
        slot_of = {name: i for i, name in enumerate(tvars)}
        bound = frozenset(tvars)
        head_vars = ftv(head) & bound
        # Variables absent from the head are undetermined by any match.
        self.missing = ", ".join(v for v in tvars if v not in head_vars) or None
        ops: list[tuple] = []
        seen: set[int] = set()
        stack: list[Type] = [head]
        while stack:
            t = stack.pop()
            if ftv(t).isdisjoint(bound):
                ops.append(("e", t))
            elif isinstance(t, TVar):
                slot = slot_of[t.name]
                if slot in seen:
                    ops.append(("k", slot))
                else:
                    seen.add(slot)
                    ops.append(("b", slot))
            elif isinstance(t, TCon):
                ops.append(("c", t.name, len(t.args)))
                stack.extend(reversed(t.args))
            else:  # TFun (RuleType heads are classified generic)
                ops.append(("f",))
                stack.append(t.res)
                stack.append(t.arg)
        self.ops = tuple(ops)
        self.context = context
        # Per-element context plan: constants pass through untouched,
        # variable-mentioning elements are substituted at match time.
        self.context_ops = tuple(
            (False, rho) if ftv(rho).isdisjoint(bound) else (True, rho)
            for rho in context
        )
        self.needs_subst = any(flag for flag, _ in self.context_ops)

    def match(self, tau: Type) -> LookupResult | None:
        slots: list[Type | None] = [None] * self.nslots
        stack: list[Type] = [tau]
        for op in self.ops:
            t = stack.pop()
            code = op[0]
            if code == "c":
                if type(t) is not TCon or t.name != op[1] or len(t.args) != op[2]:
                    return None
                stack.extend(reversed(t.args))
            elif code == "b":
                slots[op[1]] = t
            elif code == "e":
                if t is not op[1]:
                    return None
            elif code == "f":
                if type(t) is not TFun:
                    return None
                stack.append(t.res)
                stack.append(t.arg)
            else:  # "k": repeated-occurrence check
                if not _same_type(slots[op[1]], t):
                    return None
        if self.missing is not None:
            raise AmbiguousRuleTypeError(
                f"matching {self.entry.rho} against {tau} leaves quantified "
                f"variable(s) {self.missing} undetermined"
            )
        if self.needs_subst:
            theta = {name: slots[i] for i, name in enumerate(self.tvars)}
            context = tuple(
                subst_type(theta, rho) if flag else rho
                for flag, rho in self.context_ops
            )
        else:
            context = self.context
        # theta(head) rebuilds exactly the query's structure, which
        # interning collapses back onto the query object itself.
        return LookupResult(
            entry=self.entry,
            type_args=tuple(slots),  # type: ignore[arg-type]
            context=context,
            head=tau,
        )

    def describe(self) -> tuple:
        slot_names = {name: i for i, name in enumerate(self.tvars)}
        ops = tuple(
            ("e", canonical_key(op[1])) if op[0] == "e" else op
            for op in self.ops
        )
        # Context elements canonicalized with binders as slot indices so
        # alpha-variant rules describe identically.
        to_slots = {name: TVar(f"%{i}") for name, i in slot_names.items()}
        ctx = tuple(
            (flag, canonical_key(subst_type(to_slots, rho)))
            for flag, rho in self.context_ops
        )
        return ("extract", ops, self.missing is not None, ctx)


class _GenericRule:
    """Interpreted fallback (heads embedding rule types)."""

    __slots__ = ("entry",)

    kind = "generic"

    def __init__(self, entry: RuleEntry, tvars: tuple[str, ...],
                 context: tuple[Type, ...], head: Type):
        self.entry = entry

    def match(self, tau: Type) -> LookupResult | None:
        return _try_match(self.entry, tau)

    def describe(self) -> tuple:
        return ("generic", canonical_key(self.entry.rho))


def _compile_rule(entry: RuleEntry):
    tvars, context, head = entry.parts()
    if _contains_rule_type(head):
        return _GenericRule(entry, tvars, context, head)
    if ftv(head).isdisjoint(tvars):
        return _GroundRule(entry, tvars, context, head)
    return _ExtractRule(entry, tvars, context, head)


# ---------------------------------------------------------------------------
# Compiled frames.
# ---------------------------------------------------------------------------

_AMBIGUOUS = object()
#: Per-frame cap on memoized query scans (cleared wholesale on overflow;
#: steady-state programs query far fewer distinct types per scope).
_MAX_SCAN_MEMO = 1024


class _FrameCode:
    """A built frame: matchers, trie and the memos over them."""

    __slots__ = ("rules", "trie", "pairs", "decisions", "scans")

    def __init__(self, frame: tuple[RuleEntry, ...]):
        self.rules = tuple(_compile_rule(entry) for entry in frame)
        trie = DiscriminationTrie()
        for pos, entry in enumerate(frame):
            tvars, _, head = entry.parts()
            trie.insert(type_pattern_tokens(head, frozenset(tvars)), pos)
        self.trie = trie
        #: ``(p, q) -> bool`` memo of ``_more_specific`` between entries.
        self.pairs: dict[tuple[int, int], bool] = {}
        #: matched-position-set -> winning position (or _AMBIGUOUS).
        self.decisions: dict[tuple[int, ...], Any] = {}
        #: id(query) -> (query, matches | None, fallbacks, pruned, exception).
        #: Sound to memoize whole scans: the frame is immutable, queries
        #: are interned, and matching is deterministic -- so a repeated
        #: query replays the recorded outcome (including an ambiguity
        #: error).  The value pins the query, keeping its id valid.
        self.scans: dict[int, tuple] = {}


class CompiledFrame:
    """One rule set compiled to a trie plus per-rule matchers.

    Nothing is compiled until the first :meth:`matches` call; the build
    goes into a local :class:`_FrameCode` published by one assignment,
    so a concurrent lookup sees either no artifact or a whole one (two
    racing first lookups may both build; either result is correct).
    """

    __slots__ = ("frame", "_code")

    def __init__(self, frame: tuple[RuleEntry, ...]):
        self.frame = frame
        self._code: _FrameCode | None = None

    def _built(self) -> _FrameCode:
        code = self._code
        if code is None:
            code = _FrameCode(self.frame)
            self._code = code
        return code

    @property
    def rules(self) -> tuple:
        return self._built().rules

    @property
    def trie(self) -> DiscriminationTrie:
        return self._built().trie

    def matches(self, tau: Type) -> list[tuple[int, LookupResult]]:
        """All matches in entry order, via the trie and compiled rules.

        Scans are memoized per query object; ``compiled_hits`` /
        ``compiled_fallbacks`` / ``candidates_pruned`` count *logical*
        scans, so a memoized replay records the same counters the
        original scan did.
        """
        code = self._built()
        memo = None if _CORRUPT else code.scans.get(id(tau))
        if memo is not None and memo[0] is tau:
            record_compiled(memo[2], memo[3])
            if memo[4] is not None:
                raise memo[4]
            return memo[1]
        tokens = type_query_tokens(tau)
        positions = code.trie.retrieve(tokens, token_extents(tokens))
        if _CORRUPT and positions:
            positions = positions[:-1]
        found: list[tuple[int, LookupResult]] = []
        fallbacks = 0
        pruned = len(self.frame) - len(positions)
        error: AmbiguousRuleTypeError | None = None
        rules = code.rules
        try:
            for pos in positions:
                rule = rules[pos]
                if rule.kind == "generic":
                    fallbacks += 1
                result = rule.match(tau)
                if result is not None:
                    found.append((pos, result))
        except AmbiguousRuleTypeError as exc:
            error = exc
        record_compiled(fallbacks, pruned)
        if not _CORRUPT:
            scans = code.scans
            if len(scans) >= _MAX_SCAN_MEMO:
                scans.clear()
            scans[id(tau)] = (
                tau,
                None if error is not None else found,
                fallbacks,
                pruned,
                error,
            )
        if error is not None:
            raise error
        return found

    def most_specific(
        self, matched: list[tuple[int, LookupResult]], tau: Type
    ) -> LookupResult:
        """MOST_SPECIFIC winner with position-set memoization.

        The first match that is more specific than every other wins,
        else the overlap error (:func:`most_specific_error`).
        """
        code = self._built()
        key = tuple(pos for pos, _ in matched)
        decision = code.decisions.get(key)
        if decision is None:
            pairs = code.pairs
            for pos, result in matched:
                for other_pos, other in matched:
                    if other_pos == pos:
                        continue
                    verdict = pairs.get((pos, other_pos))
                    if verdict is None:
                        verdict = _more_specific(result, other)
                        pairs[(pos, other_pos)] = verdict
                    if not verdict:
                        break
                else:
                    decision = pos
                    break
            else:
                decision = _AMBIGUOUS
            code.decisions[key] = decision
        if decision is _AMBIGUOUS:
            raise most_specific_error(tau, [r for _, r in matched])
        for pos, result in matched:
            if pos == decision:
                return result
        raise AssertionError("memoized winner not among current matches")

    def describe(self) -> tuple:
        return (
            tuple(rule.describe() for rule in self.rules),
            self.trie.describe(),
        )


def most_specific_error(tau: Type, matches: list[LookupResult]) -> OverlappingRulesError:
    """The MOST_SPECIFIC failure: no match beats every other one."""
    return OverlappingRulesError(
        f"query {tau}: no unique most-specific rule among: "
        + ", ".join(str(m.entry.rho) for m in matches)
    )


def trie_key(env: ImplicitEnv) -> bytes:
    """Deterministic serialized identity of an environment's compiled
    frames: equal fingerprints (alpha-equivalent frame stacks) yield
    byte-identical keys."""
    return repr(tuple(c.describe() for c in env.compiled_frames())).encode()
