"""Type-directed resolution ``Delta |-r rho`` (paper rule ``TyRes``).

The unified resolution rule of section 3.2 subsumes:

* *simple resolution* -- a simple type promotes to ``forall.{} => tau``
  and the matched rule's entire context is resolved recursively;
* *rule resolution* -- a queried rule type whose context coincides with
  the matched rule's context requires no recursion;
* *partial resolution* -- the novel middle ground: the part
  ``rho-bar' - rho-bar`` of the matched context not assumed by the query
  is resolved recursively, the rest is abstracted over.

``resolve`` produces a full :class:`Derivation` tree rather than a bare
yes/no.  The same tree drives the type checker (which only needs success),
the elaborator (rule ``TrRes`` reads evidence off the tree) and the
metatheory tests (which replay the tree against the logical
interpretation).

Four strategies are provided:

* ``SYNTACTIC`` -- the paper's rule ``TyRes``: the environment stays fixed
  throughout recursive resolution.  Simpler to reason about; the default.
* ``EXTENDING`` -- the stronger variant displayed (and rejected) in
  section 3.2, which adds the queried context ``rho-bar`` to the
  environment for recursive steps.  It proves ``{A}=>B`` from ``{C}=>B``
  and ``{A}=>C``, which ``SYNTACTIC`` cannot.  NOTE (erratum): the
  paper's accompanying example ``Char; {Char}=>Int; {Bool}=>Int |-r
  {Char}=>Int`` still fails under the *displayed* rule, because lookup
  commits to the lexically nearest head match (``{Bool}=>Int``); making
  it succeed additionally requires backtracking over candidate rules.
* ``BACKTRACKING`` -- extending *plus* backtracking across all matching
  rules in nearness order: the closest executable approximation of the
  "fully semantic" resolution (``Delta-dagger |= rho-dagger``) that the
  paper describes and rejects for its unpredictability and cost.  It does
  resolve the erratum example above.  Implemented for experiment E9.
* ``CORECURSIVE`` -- the paper's ``TyRes`` search extended with cycle
  detection (Farka, Komendantskaya & Hammond's corecursive type-class
  resolution): when a recursive premise is alpha-equivalent to a goal
  already on the search stack, the proof closes the loop with a
  :class:`ByCorecursion` back-reference instead of burning fuel to
  divergence, and the elaborator reads the marked ancestor back as a
  System F ``fix`` (mu-bound) evidence term.  A *guardedness* check
  keeps this sound: a cycle is only closed when at least one rule step
  on the loop is productive -- it discharges additional premises
  (context size > 1) or moves to a structurally different goal --
  otherwise the cycle is reported as divergence, exactly like fuel
  exhaustion (see :func:`derivation_cycles_guarded` and
  docs/RESOLUTION.md).

Resolution success implies modus-ponens intersection subtyping
(Marntirosian et al. 2020).  That theorem is checked by the
``subtyping`` fuzz oracle against :mod:`repro.subtyping`, not on every
production query.

Recursive resolution may diverge (appendix "Termination of Resolution");
a fuel bound turns divergence into :class:`ResolutionDivergenceError`.
The static termination conditions live in :mod:`repro.core.termination`.

Resolution is memoized: every :class:`Resolver` owns a
:class:`~repro.core.cache.ResolutionCache` (pass ``cache=None`` to
disable) keyed on the environment's structural fingerprint, its payload
witness, the query's canonical key, and the strategy/policy pair.  Cache
discipline -- fuel monotonicity, never caching divergence, evidence
identity -- is documented in :mod:`repro.core.cache`; per-query counters
and an optional trace stream live in :mod:`repro.obs`.
"""

from __future__ import annotations

import enum
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from ..errors import (
    DeadlineExceededError,
    NoMatchingRuleError,
    OverlappingRulesError,
    ResolutionDivergenceError,
)
from ..obs import active_stats, collecting
from ..obs.stats import (
    ResolutionStats,
    record_corec_cycle,
    record_corec_guard_rejection,
)
from ..obs.trace import CACHE_HIT, CACHE_MISS, FAILURE, QUERY, SUCCESS, Tracer
from .cache import ResolutionCache, fresh_failure
from .env import ImplicitEnv, LookupResult, OverlapPolicy, RuleEntry
from .types import Type, canonical_key, promote

DEFAULT_FUEL = 512


class ResolutionStrategy(enum.Enum):
    """Which recursive-resolution rule to use (see module docstring)."""

    SYNTACTIC = "syntactic"
    EXTENDING = "extending"
    BACKTRACKING = "backtracking"
    CORECURSIVE = "corecursive"

    @classmethod
    def _missing_(cls, value: object) -> "ResolutionStrategy | None":
        # Journals, store records and clients from before the subtyping
        # cross-check strategy was removed may still name it.  It always
        # answered exactly like SYNTACTIC, so that is what it reads as.
        if value == "subtyping":
            return cls.SYNTACTIC
        return None


@dataclass(frozen=True, eq=False)
class Assumption:
    """Evidence-less assumption of one element of a query's context.

    Compared by identity: each :class:`Derivation` owns fresh tokens so
    that nested partial resolutions cannot confuse their assumption
    binders.  The elaborator maps tokens to the lambda-bound evidence
    variables of the ``TrRes`` output.
    """

    rho: Type
    index: int


class Premise:
    """How one element of the matched rule's context was discharged."""

    __slots__ = ()


@dataclass(frozen=True)
class ByAssumption(Premise):
    """Discharged by the query's own context (no recursion; the

    ``rho_i in rho-bar`` branch of ``TyRes``/``TrRes``)."""

    token: Assumption


@dataclass(frozen=True)
class ByResolution(Premise):
    """Discharged by a recursive resolution (``Delta |-r rho_i``)."""

    derivation: "Derivation"


@dataclass(frozen=True, eq=False)
class CycleToken:
    """Identity-compared binder for a corecursive back-reference.

    Minted once per cycle *head* (the ancestor goal some descendant
    premise loops back to) and shared by every :class:`ByCorecursion`
    premise that closes onto it; the head derivation carries the same
    token in its ``cycle`` field.  The elaborator maps tokens to the
    ``fix``-bound evidence variables of the mu-term it emits.
    """

    rho: Type


@dataclass(frozen=True)
class ByCorecursion(Premise):
    """Discharged by a back-reference to an alpha-equivalent ancestor
    goal still under resolution (the ``CORECURSIVE`` strategy's cycle
    closure): the premise's evidence is the ancestor's own ``fix``-bound
    evidence variable."""

    token: CycleToken


@dataclass(frozen=True)
class Derivation:
    """A successful derivation of ``Delta |-r rho``.

    ``premises`` is aligned with ``lookup.context``: premise *i* discharges
    the *i*-th element of the instantiated matched context, so the
    elaborator can apply the looked-up evidence to arguments in order.

    ``cycle`` is non-``None`` exactly when this node is the head of a
    corecursive cycle: some :class:`ByCorecursion` premise in the subtree
    carries the same token, and the node's evidence is wrapped in a
    System F ``fix`` binder.
    """

    query: Type
    tvars: tuple[str, ...]
    context: tuple[Type, ...]
    head: Type
    lookup: LookupResult
    assumptions: tuple[Assumption, ...]
    premises: tuple[Premise, ...]
    cycle: CycleToken | None = None
    #: Memo of :meth:`size`: the tree is frozen, so it is walked once.
    _size: int | None = field(default=None, init=False, repr=False, compare=False)

    def size(self) -> int:
        """Number of lookup steps in the whole tree (bench metric)."""
        size = self._size
        if size is None:
            size = 1 + sum(
                p.derivation.size()
                for p in self.premises
                if isinstance(p, ByResolution)
            )
            object.__setattr__(self, "_size", size)
        return size


# ---------------------------------------------------------------------------
# Corecursive search machinery (the CORECURSIVE strategy).
# ---------------------------------------------------------------------------

#: Global guardedness toggle.  Test-only: the ``corecursive`` fuzz
#: oracle's fault arm disables the engine-internal check to prove it is
#: load-bearing (an unguarded engine accepts non-productive cycles the
#: static re-validation then rejects).
_corec_guard_enabled = True


def set_corec_guard(enabled: bool) -> bool:
    """Enable/disable the corecursive guardedness check; returns the
    previous setting.  Production code never calls this."""
    global _corec_guard_enabled
    previous = _corec_guard_enabled
    _corec_guard_enabled = bool(enabled)
    return previous


@contextmanager
def corec_guard(enabled: bool):
    """Lexically scoped :func:`set_corec_guard`."""
    previous = set_corec_guard(enabled)
    try:
        yield
    finally:
        set_corec_guard(previous)


class _OpenGoal:
    """One goal on the corecursive search stack.

    ``productive_step`` records whether the rule step that *led here*
    from the parent goal was productive (discharged additional premises
    or moved to a structurally different goal); the guardedness of a
    cycle is the disjunction of the step flags along its loop.
    ``escaped`` collects tokens bound at shallower stack entries that
    this goal's subtree references -- a derivation with escaped tokens
    is open (its meaning depends on the enclosing proof) and must never
    be cached.
    """

    __slots__ = ("key", "rho", "productive_step", "token", "escaped")

    def __init__(self, key: tuple, rho: Type, productive_step: bool):
        self.key = key
        self.rho = rho
        self.productive_step = productive_step
        self.token: CycleToken | None = None
        self.escaped: set[CycleToken] = set()


def derivation_cycles_guarded(derivation: Derivation) -> bool:
    """Statically re-validate the guardedness of every cycle in a tree.

    Walks the finished derivation and checks, for each
    :class:`ByCorecursion` premise, that at least one rule step on the
    path from its binding cycle head down to the back-reference is
    productive (instantiated context longer than one, or a child goal
    not alpha-equal to the instantiated head).  This is the same
    criterion the engine enforces during search, recomputed from the
    tree alone -- the ``corecursive`` fuzz oracle uses it as an
    independent check that does *not* depend on the engine-internal
    toggle, so a guard-disabled engine cannot sneak an unguarded proof
    past the harness.  Also ``False`` for malformed trees whose
    back-reference names no enclosing cycle head.
    """
    work: list[tuple[Derivation, dict[int, bool]]] = [(derivation, {})]
    while work:
        d, flags = work.pop()
        if d.cycle is not None:
            flags = dict(flags)
            flags[id(d.cycle)] = False
        ctx_many = len(d.lookup.context) > 1
        head_key = canonical_key(d.lookup.head)
        for premise in d.premises:
            if isinstance(premise, ByCorecursion):
                productive = (
                    ctx_many or canonical_key(premise.token.rho) != head_key
                )
                if not flags.get(id(premise.token), False) and not productive:
                    return False
                if id(premise.token) not in flags:
                    return False
            elif isinstance(premise, ByResolution):
                child = premise.derivation
                productive = (
                    ctx_many or canonical_key(child.query) != head_key
                )
                work.append(
                    (child, {t: f or productive for t, f in flags.items()})
                )
    return True


@dataclass(frozen=True)
class Resolver:
    """Configured resolution engine.

    ``cache``, ``stats`` and ``tracer`` are operational attachments, not
    semantics: they are excluded from equality/hash, and the differential
    test harness asserts that cached and cache-disabled resolvers agree
    on every derivation and every failure.
    """

    policy: OverlapPolicy = OverlapPolicy.REJECT
    strategy: ResolutionStrategy = ResolutionStrategy.SYNTACTIC
    fuel: int = DEFAULT_FUEL
    #: Wall-clock deadline as a :func:`time.monotonic` timestamp, or
    #: ``None`` for no deadline.  Checked on every fuel-consuming
    #: resolution step, so a stuck proof search surfaces as a structured
    #: :class:`~repro.errors.DeadlineExceededError` instead of hanging a
    #: server worker.  Like fuel exhaustion, the outcome depends on the
    #: budget rather than the query: it is never cached and propagates
    #: through every strategy (including backtracking).  Operational, not
    #: semantic, hence excluded from equality.
    deadline: float | None = field(default=None, compare=False)
    #: Per-resolver derivation memo; ``None`` disables caching entirely.
    cache: ResolutionCache | None = field(
        default_factory=ResolutionCache, compare=False
    )
    #: Counters for this resolver's queries; ``None`` falls back to the
    #: ambient :func:`repro.obs.collecting` scope, if any.
    stats: ResolutionStats | None = field(default=None, compare=False)
    #: Optional trace-event stream (``repro --trace``).
    tracer: Tracer | None = field(default=None, compare=False)

    def resolve(self, env: ImplicitEnv, rho: Type) -> Derivation:
        """Derive ``Delta |-r rho`` or raise a :class:`ResolutionError`."""
        import sys

        # Each fuel unit costs a handful of Python frames; make sure the
        # fuel bound fires before the interpreter's recursion limit does.
        needed = self.fuel * 12 + 1000
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        if self.stats is not None and active_stats() is not self.stats:
            with collecting(self.stats):
                return self._resolve_query(env, rho)
        return self._resolve_query(env, rho)

    def _resolve_query(self, env: ImplicitEnv, rho: Type) -> Derivation:
        stats = active_stats()
        if stats is not None:
            stats.queries += 1
        if self.strategy is ResolutionStrategy.CORECURSIVE:
            return self._resolve(env, rho, self.fuel, stack=[])
        return self._resolve(env, rho, self.fuel)

    def resolvable(self, env: ImplicitEnv, rho: Type) -> bool:
        from ..errors import ResolutionError

        try:
            self.resolve(env, rho)
        except ResolutionError:
            return False
        return True

    def _resolve(
        self,
        env: ImplicitEnv,
        rho: Type,
        fuel: int,
        depth: int = 0,
        stack: list[_OpenGoal] | None = None,
        step_productive: bool = False,
    ) -> Derivation:
        if fuel <= 0:
            raise ResolutionDivergenceError(
                f"resolution exceeded fuel while resolving {rho}; "
                "the rule environment likely violates the termination condition"
            )
        deadline = self.deadline
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceededError(
                f"resolution exceeded its deadline while resolving {rho}"
            )
        stats = active_stats()
        if stats is not None:
            stats.resolve_steps += 1
            if depth > stats.max_depth:
                stats.max_depth = depth
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(QUERY, depth, str(rho))

        cache = self.cache
        key: tuple | None = None
        if cache is not None:
            key = cache.key_for(env, rho, self.strategy, self.policy)
            entry = cache.get(key, fuel)
            if entry is not None and stack and not entry.is_success:
                # An open ancestor goal could rescue this failure by a
                # corecursive cycle; recompute in this proof context.
                entry = None
            if entry is not None:
                if stats is not None:
                    stats.cache_hits += 1
                if tracer is not None:
                    tracer.emit(
                        CACHE_HIT,
                        depth,
                        str(rho),
                        "derivation" if entry.is_success else "failure",
                    )
                if entry.is_success:
                    return entry.outcome
                raise fresh_failure(entry.outcome)
            if stats is not None:
                stats.cache_misses += 1
            if tracer is not None:
                tracer.emit(CACHE_MISS, depth, str(rho))

        goal: _OpenGoal | None = None
        if stack is not None:
            goal = _OpenGoal(canonical_key(rho), rho, step_productive)
            stack.append(goal)
        try:
            try:
                derivation = self._resolve_step(env, rho, fuel, depth, stack)
            finally:
                if goal is not None:
                    stack.pop()
        except (ResolutionDivergenceError, DeadlineExceededError):
            raise  # never cached: the outcome depends on the budget
        except (NoMatchingRuleError, OverlappingRulesError) as exc:
            # Under the corecursive strategy a non-root failure is only
            # valid relative to the open goals above it (a different
            # proof context could rescue it with a cycle), so only
            # root-level failures enter the cache.
            if cache is not None and not stack:
                cache.put_failure(key, exc, env, fuel, rho)
            if tracer is not None:
                tracer.emit(FAILURE, depth, str(rho), type(exc).__name__)
            raise
        if goal is not None and goal.token is not None:
            derivation = replace(derivation, cycle=goal.token)
        # A derivation whose subtree references a still-open ancestor
        # token is an open proof fragment; it must not be cached (its
        # meaning depends on the enclosing proof).
        if cache is not None and (goal is None or not goal.escaped):
            cache.put_success(key, derivation, env, fuel)
        if tracer is not None:
            tracer.emit(SUCCESS, depth, str(rho))
        return derivation

    def _resolve_step(
        self,
        env: ImplicitEnv,
        rho: Type,
        fuel: int,
        depth: int,
        stack: list[_OpenGoal] | None = None,
    ) -> Derivation:
        """One uncached application of the unified resolution rule."""
        tvars, context, head = promote(rho)
        assumptions = tuple(Assumption(r, i) for i, r in enumerate(context))
        recurse_env = env
        if (
            self.strategy in (ResolutionStrategy.EXTENDING, ResolutionStrategy.BACKTRACKING)
            and assumptions
        ):
            recurse_env = env.push(
                RuleEntry(tok.rho, payload=tok) for tok in assumptions
            )
        if self.strategy is ResolutionStrategy.BACKTRACKING:
            return self._resolve_backtracking(
                env, recurse_env, rho, tvars, context, head, assumptions, fuel, depth
            )
        result = env.lookup(head, self.policy)
        premises = self._discharge(
            recurse_env, result, assumptions, fuel, depth, stack
        )
        return Derivation(
            query=rho,
            tvars=tvars,
            context=context,
            head=head,
            lookup=result,
            assumptions=assumptions,
            premises=premises,
        )

    def _discharge(
        self,
        recurse_env: ImplicitEnv,
        result: "LookupResult",
        assumptions: tuple[Assumption, ...],
        fuel: int,
        depth: int = 0,
        stack: list[_OpenGoal] | None = None,
    ) -> tuple[Premise, ...]:
        """Discharge each element of the matched rule's context (TyRes)."""
        by_key = {canonical_key(tok.rho): tok for tok in assumptions}
        step_many = len(result.context) > 1
        head_key = canonical_key(result.head) if stack is not None else None
        premises: list[Premise] = []
        for rho_i in result.context:
            token = by_key.get(canonical_key(rho_i))
            if token is not None:
                premises.append(ByAssumption(token))
                continue
            if stack is not None:
                key_i = canonical_key(rho_i)
                productive = step_many or key_i != head_key
                cycle = self._close_cycle(rho_i, key_i, productive, stack)
                if cycle is not None:
                    premises.append(cycle)
                    continue
                premises.append(
                    ByResolution(
                        self._resolve(
                            recurse_env,
                            rho_i,
                            fuel - 1,
                            depth + 1,
                            stack=stack,
                            step_productive=productive,
                        )
                    )
                )
            else:
                premises.append(
                    ByResolution(
                        self._resolve(recurse_env, rho_i, fuel - 1, depth + 1)
                    )
                )
        return tuple(premises)

    def _close_cycle(
        self,
        rho_i: Type,
        key_i: tuple,
        step_productive: bool,
        stack: list[_OpenGoal],
    ) -> ByCorecursion | None:
        """Close a corecursive cycle if ``rho_i`` repeats an open goal.

        Returns ``None`` when no ancestor goal on the search stack is
        alpha-equivalent to ``rho_i`` (the caller recurses normally).
        An unguarded cycle -- no productive step anywhere on the loop --
        is divergence: closing it would produce evidence no lazy
        unfolding can justify (``fix x. x``).
        """
        for j in range(len(stack) - 1, -1, -1):
            goal = stack[j]
            if goal.key != key_i:
                continue
            guarded = step_productive or any(
                g.productive_step for g in stack[j + 1 :]
            )
            if not guarded and _corec_guard_enabled:
                record_corec_guard_rejection()
                raise ResolutionDivergenceError(
                    f"resolution cycle at {rho_i} is not guarded (no "
                    "productive step on the loop); corecursive resolution "
                    "treats it as divergent"
                )
            if goal.token is None:
                goal.token = CycleToken(goal.rho)
            for below in stack[j + 1 :]:
                below.escaped.add(goal.token)
            record_corec_cycle()
            return ByCorecursion(goal.token)
        return None

    def _resolve_backtracking(
        self,
        env: ImplicitEnv,
        recurse_env: ImplicitEnv,
        rho: Type,
        tvars: tuple[str, ...],
        context: tuple[Type, ...],
        head: Type,
        assumptions: tuple[Assumption, ...],
        fuel: int,
        depth: int = 0,
    ) -> Derivation:
        from ..errors import ResolutionError

        last_error: ResolutionError | None = None
        for result in recurse_env.lookup_all(head):
            try:
                premises = self._discharge(
                    recurse_env, result, assumptions, fuel, depth
                )
            except ResolutionError as exc:
                if isinstance(exc, (ResolutionDivergenceError, DeadlineExceededError)):
                    raise
                last_error = exc
                continue
            return Derivation(
                query=rho,
                tvars=tvars,
                context=context,
                head=head,
                lookup=result,
                assumptions=assumptions,
                premises=premises,
            )
        if last_error is not None:
            raise last_error
        raise NoMatchingRuleError(
            f"no rule matching {head} in the implicit environment"
        )


_DEFAULT = Resolver()
_UNSET: ResolutionCache | None = ResolutionCache(max_entries=1)  # sentinel


def resolve(
    env: ImplicitEnv,
    rho: Type,
    *,
    policy: OverlapPolicy = OverlapPolicy.REJECT,
    strategy: ResolutionStrategy = ResolutionStrategy.SYNTACTIC,
    fuel: int = DEFAULT_FUEL,
    deadline: float | None = None,
    cache: ResolutionCache | None = _UNSET,
    stats: ResolutionStats | None = None,
    tracer: Tracer | None = None,
) -> Derivation:
    """Functional facade over :class:`Resolver`.

    Default-configured calls share one module-level resolver (and hence
    one derivation cache), so repeated queries memoize across calls;
    evidence identity is still guaranteed by the payload witness in the
    cache key.  Pass ``cache=None`` to force uncached resolution.
    """
    if (
        cache is _UNSET
        and stats is None
        and tracer is None
        and deadline is None
        and (policy, strategy, fuel)
        == (_DEFAULT.policy, _DEFAULT.strategy, _DEFAULT.fuel)
    ):
        return _DEFAULT.resolve(env, rho)
    if cache is _UNSET:
        cache = ResolutionCache()
    return Resolver(
        policy=policy,
        strategy=strategy,
        fuel=fuel,
        deadline=deadline,
        cache=cache,
        stats=stats,
        tracer=tracer,
    ).resolve(env, rho)


def resolvable(env: ImplicitEnv, rho: Type, **kwargs) -> bool:
    from ..errors import ResolutionError

    try:
        resolve(env, rho, **kwargs)
    except ResolutionError:
        return False
    return True
