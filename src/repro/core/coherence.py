"""Coherence conditions (extended report section 3.4 and the companion

material "Resolution with Overlapping Rules").

A program is *coherent* iff every query has a single, lexically nearest
match that is the same statically and at runtime: runtime type
instantiation must not change which rule wins.  The classic failure::

    let f : forall b. b -> b =
      implicit { \\x.x      : forall a. a -> a } in
      implicit { \\n.n + 1  : Int -> Int       } in
        ?(b -> b)

Statically the nearest match is ``forall a. a -> a``; but when ``b`` is
instantiated to ``Int`` at runtime, ``Int -> Int`` becomes the nearest
match.  The paper's static system rejects such programs.

This module provides:

* the companion's ruleset predicates -- :func:`nonoverlap`,
  :func:`distinct`, :func:`unique_instances`, :func:`has_most_specific`;
* the definitional lookup-stability check :func:`lookup_stable`
  (``theta(Delta(tau)) = (theta Delta)(theta tau)``), used by the
  metatheory property tests; and
* a conservative static analysis :func:`check_query_coherence` that
  rejects queries whose winner could change under instantiation of the
  query's free type variables.

The static analysis treats *all* free variables of the query head as
runtime-instantiable, which is sound but conservative: the companion
material itself notes that e.g. ``forall a b. {a, b} => a * b`` is
rejected by such checking even though many of its uses are safe, and
therefore defers uniqueness checks to rule-application sites (where our
type checker enforces them via its duplicate-evidence check).  We expose
the analysis as an opt-in (``strict_coherence``) on the type checker and
elaborator, matching that design discussion.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from ..errors import CoherenceError, NoMatchingRuleError, OverlappingRulesError
from .compile_env import CompiledFrame
from .env import ImplicitEnv, OverlapPolicy, RuleEntry
from .subst import Subst, fresh_tvar, subst_type
from .types import (
    RuleType,
    TVar,
    Type,
    ftv,
    head_symbol,
    promote,
    types_alpha_eq,
)
from .unify import mgu, unifiable


# ---------------------------------------------------------------------------
# Companion predicates on rule sets
# ---------------------------------------------------------------------------


def nonoverlap(rho1: Type, rho2: Type) -> bool:
    """``forall theta. theta rho1 != theta rho2`` -- no substitution can

    make the two rules produce values of the same type.  Since a rule
    produces values of its *head* type, this compares heads with the
    quantified variables of both rules renamed apart and substitutable
    (e.g. ``forall a. a -> Int`` and ``forall b. Int -> b`` overlap at
    ``Int -> Int``)."""
    h1 = _freshened_head(rho1)
    h2 = _freshened_head(rho2)
    if _rigid_syms_differ(h1, h2):
        return True
    return not unifiable(h1, h2)


def distinct(context1: Iterable[Type], context2: Iterable[Type]) -> bool:
    """Pairwise :func:`nonoverlap` across two rule sets."""
    context2 = tuple(context2)
    return all(nonoverlap(r1, r2) for r1 in context1 for r2 in context2)


def distinct_context(context: Iterable[Type]) -> bool:
    """Pairwise :func:`nonoverlap` within one rule set (``distinct_rs``)."""
    return all(nonoverlap(r1, r2) for r1, r2 in combinations(tuple(context), 2))


def unique_instances(context: Iterable[Type]) -> bool:
    """The companion's *uniqueness of instances*: no substitution can make

    the heads of two distinct rules coincide (static *and* dynamic
    uniqueness: ``{alpha, Int}`` fails because ``alpha`` may become
    ``Int`` at runtime)."""
    heads = [_freshened_head(rho) for rho in context]
    return all(
        _rigid_syms_differ(h1, h2) or not unifiable(h1, h2)
        for (h1, h2) in combinations(heads, 2)
    )


def has_most_specific(context: Iterable[Type]) -> bool:
    """The companion's *existence of a most specific rule* condition.

    For every pair of rules whose heads can both match a common instance
    (their *meet*), overlap resolution by specificity must not get stuck:
    looking the meet up in the rule set under the MOST_SPECIFIC policy
    must select a unique winner.  ``{forall a. a -> Int, forall a. Int ->
    a}`` fails (at ``Int -> Int`` neither wins); adding the rule
    ``Int -> Int`` itself repairs the set.
    """
    context = tuple(context)
    compiled = CompiledFrame(tuple(RuleEntry(rho) for rho in context))
    heads = [_freshened_head(rho) for rho in context]
    for h1, h2 in combinations(heads, 2):
        if _rigid_syms_differ(h1, h2):
            continue
        theta = mgu(h1, h2)
        if theta is None:
            continue
        meet = subst_type(theta, h1)
        try:
            result = env_frame_lookup(compiled, meet, OverlapPolicy.MOST_SPECIFIC)
        except OverlappingRulesError:
            return False
        if result is None:  # pragma: no cover - meet always matches
            return False
    return True


def _freshened_head(rho: Type) -> Type:
    """The rule head with quantified variables renamed apart."""
    tvars, _, head = promote(rho)
    renaming = {old: TVar(fresh_tvar(old.split("%")[0])) for old in tvars}
    return subst_type(renaming, head)


def _rigid_syms_differ(h1: Type, h2: Type) -> bool:
    """Head-symbol prune for two-way unifiability of freshened heads.

    The predicates above quantify over *all* substitutions, so every free
    variable of either head is flexible -- which is exactly the reading
    :func:`head_symbol` gives when the flex set is the head's own free
    variables.  Two heads with distinct *rigid* root symbols cannot be
    identified by any substitution, so :func:`unifiable` need not run.
    """
    s1 = head_symbol(h1, ftv(h1))
    if s1 is None:
        return False
    s2 = head_symbol(h2, ftv(h2))
    return s2 is not None and s1 != s2


# ---------------------------------------------------------------------------
# Lookup stability (the ``coherent`` predicate of the proofs appendix)
# ---------------------------------------------------------------------------


def subst_env(theta: Subst, env: ImplicitEnv) -> ImplicitEnv:
    """Apply a substitution to every rule type of an environment."""
    out = ImplicitEnv.empty()
    for frame in env.frames():
        out = out.push(
            type(entry)(subst_type(theta, entry.rho), entry.payload)
            for entry in frame
        )
    return out


def lookup_stable(
    env: ImplicitEnv,
    tau: Type,
    theta: Subst,
    policy: OverlapPolicy = OverlapPolicy.REJECT,
) -> bool:
    """Definitional check: ``theta(Delta(tau)) == (theta Delta)(theta tau)``.

    Both lookups must succeed and agree (as instantiated rule types), or
    both must fail, for the environment to be coherent at ``tau`` under
    ``theta``.
    """
    theta_env = subst_env(theta, env)
    try:
        before = env.lookup(tau, policy)
        before_position = _entry_position(env, before.entry)
        before_rho = subst_type(theta, _result_rho(before))
        before_failed = False
    except (NoMatchingRuleError, OverlappingRulesError):
        before_failed = True
    try:
        after = theta_env.lookup(subst_type(theta, tau), policy)
        after_position = _entry_position(theta_env, after.entry)
        after_rho = _result_rho(after)
        after_failed = False
    except (NoMatchingRuleError, OverlappingRulesError):
        after_failed = True
    if before_failed or after_failed:
        # Failure before instantiation and success after is benign for
        # stability tests; only a *changed* success is incoherent.
        return before_failed
    # The *same rule* (by position in the stack) must win, and yield the
    # same instantiated result type.
    return before_position == after_position and types_alpha_eq(
        before_rho, after_rho
    )


def _entry_position(env: ImplicitEnv, entry) -> tuple[int, int]:
    for i, frame in enumerate(env.frames()):
        for j, candidate in enumerate(frame):
            if candidate is entry:
                return (i, j)
    raise AssertionError("lookup returned an entry not present in the environment")


def _result_rho(result) -> Type:
    from .types import rule

    return rule(result.head, result.context)


# ---------------------------------------------------------------------------
# Conservative static coherence analysis for queries
# ---------------------------------------------------------------------------


def check_query_coherence(
    env: ImplicitEnv, rho: Type, policy: OverlapPolicy = OverlapPolicy.REJECT
) -> None:
    """Reject queries whose winning rule could change at runtime.

    The query head's free type variables stand for types chosen at
    runtime.  The check finds the static winner, then scans for rules
    that *could* match some instantiation of the head (two-way
    unifiability) and would take priority over the winner -- i.e. they
    sit in a strictly nearer rule set, or in the winner's own rule set.
    Any such rule makes the program incoherent.
    """
    _, _, head = promote(rho)
    frames = env.frames()
    winner_frame, winner_entry = _winning_entry(env, head, policy)
    if winner_frame is None:
        return  # unresolvable; resolution itself reports the error
    for depth in range(len(frames) - 1, winner_frame - 1, -1):
        for entry in frames[depth]:
            if depth == winner_frame and entry is winner_entry:
                continue
            candidate = _freshened_head(entry.rho)
            if unifiable(candidate, head):
                raise CoherenceError(
                    f"query {rho} is incoherent: its static match "
                    f"{winner_entry.rho} can be shadowed at runtime by "
                    f"{entry.rho} under some instantiation of "
                    f"{sorted(ftv(head)) or 'its rule variables'}"
                )


def _winning_entry(env: ImplicitEnv, head: Type, policy: OverlapPolicy):
    compiled = env.compiled_frames()
    for depth in range(len(compiled) - 1, -1, -1):
        result = env_frame_lookup(compiled[depth], head, policy)
        if result is not None:
            return depth, result.entry
    return None, None


def env_frame_lookup(compiled: CompiledFrame, head: Type, policy: OverlapPolicy):
    """Lookup restricted to one (compiled) rule set (internal helper)."""
    matched = compiled.matches(head)
    if not matched:
        return None
    if len(matched) > 1:
        if policy is OverlapPolicy.REJECT:
            raise OverlappingRulesError(
                f"query {head} matches {len(matched)} rules in one rule set"
            )
        return compiled.most_specific(matched, head)
    return matched[0][1]
