"""Uniform proof search for first-order hereditary Harrop formulas.

The solver follows the standard lambda-Prolog discipline:

* right rules first: conjunctions split, implication goals extend the
  program, universal goals introduce fresh skolem constants;
* atomic goals trigger *backchaining*: pick a program clause (any clause,
  with full backtracking -- this is the "semantic" search the paper's
  deterministic resolution deliberately approximates), rename its
  variables to fresh logic variables, unify the head, and prove the body.

Backchaining selects candidate clauses through a :class:`ClauseTrie` --
a discrimination trie over whole clause-head skeletons (shared machinery
with :mod:`repro.core.compile_env`), so an atomic goal only attempts
unification against clauses whose head skeleton could match it, goal
subterms beyond the root pruning too.  Goal positions holding unbound
logic variables are retrieved flexibly (they match any one pattern
subterm), which keeps the candidate set a superset of the unifiable
clauses; candidate order is program order, so solution enumeration
order is that of the plain scan.  Implication goals extend the trie
with a root-screened side list.  The trie for a program derived from an
environment is memoized alongside ``program_of_env``'s
fingerprint-keyed memo, so it is shared across entailment checks.

Search is depth-bounded so that the entailment check is a decision
procedure usable inside property tests: ``True`` means provable within
the bound, ``False`` means no proof was found within the bound.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..obs import record_compiled, record_entails, record_unify
from .terms import (
    Atom,
    Clause,
    Conj,
    ForallG,
    Goal,
    Implies,
    Struct,
    Term,
    Var,
    fresh_const,
    fresh_var,
    instantiate_clause,
)

Subst = Mapping[str, Term]


def walk(term: Term, subst: Subst) -> Term:
    while isinstance(term, Var) and term.name in subst:
        term = subst[term.name]
    return term


def occurs(name: str, term: Term, subst: Subst) -> bool:
    term = walk(term, subst)
    match term:
        case Var(other):
            return other == name
        case Struct(_, args):
            return any(occurs(name, a, subst) for a in args)
    raise TypeError(f"not a Term: {term!r}")


def unify(t1: Term, t2: Term, subst: Subst) -> dict[str, Term] | None:
    """First-order unification; returns an extended substitution or None."""
    t1 = walk(t1, subst)
    t2 = walk(t2, subst)
    if isinstance(t1, Var) and isinstance(t2, Var) and t1.name == t2.name:
        return dict(subst)
    if isinstance(t1, Var):
        if occurs(t1.name, t2, subst):
            return None
        out = dict(subst)
        out[t1.name] = t2
        return out
    if isinstance(t2, Var):
        return unify(t2, t1, subst)
    assert isinstance(t1, Struct) and isinstance(t2, Struct)
    if t1.functor != t2.functor or len(t1.args) != len(t2.args):
        return None
    out: dict[str, Term] | None = dict(subst)
    for a, b in zip(t1.args, t2.args):
        out = unify(a, b, out)
        if out is None:
            return None
    return out


# ---------------------------------------------------------------------------
# Compiled clause selection: discrimination tries over head skeletons.
# ---------------------------------------------------------------------------


def _clause_pattern_tokens(head: Term) -> list:
    """Preorder trie-insertion stream of a clause head (Vars are stars)."""
    from ..core.compile_env import STAR

    out: list = []
    stack: list[Term] = [head]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.append(STAR)
        else:
            out.append(((t.functor, len(t.args)), len(t.args)))
            stack.extend(reversed(t.args))
    return out


def _goal_tokens(term: Term, subst: Subst) -> tuple[list, frozenset[int]]:
    """Retrieval stream of a goal term under ``subst``; positions still
    holding unbound variables after walking are flagged flexible."""
    out: list = []
    flex: set[int] = set()
    stack: list[Term] = [term]
    while stack:
        t = walk(stack.pop(), subst)
        if isinstance(t, Var):
            flex.add(len(out))
            out.append((("flex",), 0))
        else:
            out.append(((t.functor, len(t.args)), len(t.args)))
            stack.extend(reversed(t.args))
    return out, frozenset(flex)


class ClauseTrie:
    """Whole-skeleton clause selection; candidate lists preserve
    program order."""

    __slots__ = ("trie", "width")

    def __init__(self, program: tuple[Clause, ...]):
        from ..core.compile_env import DiscriminationTrie

        trie = DiscriminationTrie()
        for pos, clause in enumerate(program):
            trie.insert(_clause_pattern_tokens(clause.head), pos)
        self.trie = trie
        self.width = len(program)

    def candidates_for(self, term: Term, subst: Subst) -> list[int]:
        from ..core.compile_env import token_extents

        tokens, flex = _goal_tokens(term, subst)
        return self.trie.retrieve(tokens, token_extents(tokens), flex)

    def extended(self, clauses: tuple[Clause, ...]) -> "_ExtendedClauseTrie":
        """The selection structure of ``program + clauses`` (implication
        goals); added clauses are screened by root symbol only."""
        extra = tuple(
            (
                self.width + i,
                (clause.head.functor, len(clause.head.args))
                if isinstance(clause.head, Struct)
                else None,
            )
            for i, clause in enumerate(clauses)
        )
        return _ExtendedClauseTrie(self, extra, self.width + len(clauses))


class _ExtendedClauseTrie:
    """A :class:`ClauseTrie` plus implication-added clauses.

    The base trie is immutable and shared; extension clauses live in a
    side list screened per goal by root symbol (they are few and local).
    Base positions all precede extension positions, so concatenation
    keeps program order.
    """

    __slots__ = ("base", "extra", "width")

    def __init__(self, base, extra: tuple, width: int):
        self.base = base
        self.extra = extra
        self.width = width

    def candidates_for(self, term: Term, subst: Subst) -> list[int]:
        positions = list(self.base.candidates_for(term, subst))
        goal_head = walk(term, subst)
        rigid = (
            (goal_head.functor, len(goal_head.args))
            if isinstance(goal_head, Struct)
            else None
        )
        for pos, sym in self.extra:
            if sym is None or rigid is None or sym == rigid:
                positions.append(pos)
        return positions

    def extended(self, clauses: tuple[Clause, ...]) -> "_ExtendedClauseTrie":
        extra = tuple(
            (
                self.width + i,
                (clause.head.functor, len(clause.head.args))
                if isinstance(clause.head, Struct)
                else None,
            )
            for i, clause in enumerate(clauses)
        )
        return _ExtendedClauseTrie(self, extra, self.width + len(clauses))


_TRIE_LOCK = threading.Lock()
_MAX_TRIES = 128
#: id(program) -> (program, ClauseTrie).  Keeping the program pins its
#: id, so a hit is always the same tuple object; ``program_of_env``
#: already memoizes programs per environment fingerprint, which makes
#: this effectively fingerprint-keyed for encoded environments.
_TRIE_MEMO: dict[int, tuple[tuple[Clause, ...], "ClauseTrie"]] = {}


def clause_trie_for(program: tuple[Clause, ...]) -> ClauseTrie:
    """The (memoized) compiled clause selection for a program."""
    key = id(program)
    with _TRIE_LOCK:
        hit = _TRIE_MEMO.get(key)
        if hit is not None and hit[0] is program:
            return hit[1]
    trie = ClauseTrie(program)
    with _TRIE_LOCK:
        _TRIE_MEMO[key] = (program, trie)
        while len(_TRIE_MEMO) > _MAX_TRIES:
            _TRIE_MEMO.pop(next(iter(_TRIE_MEMO)))
    return trie


def clear_clause_tries() -> None:
    """Drop the memoized clause tries (tests)."""
    with _TRIE_LOCK:
        _TRIE_MEMO.clear()


_MEMO_MISS = object()
_UNSET = object()


@dataclass(frozen=True)
class Engine:
    """A depth-bounded hereditary Harrop prover.

    ``memo``, when supplied, caches :meth:`entails` verdicts keyed on
    ``(program, goal, max_depth)``.  Terms, goals and clauses are frozen
    dataclasses, so the key is structural; the verdict is a pure function
    of it (fresh renaming inside the search never leaks into the
    boolean), which makes memoization transparent.  Enumerating
    :meth:`solve` directly bypasses the memo -- only the decision
    procedure is cached.
    """

    max_depth: int = 64
    memo: dict | None = field(default=None, compare=False)

    def solve(
        self,
        program: tuple[Clause, ...],
        goal: Goal,
        subst: Subst,
        depth: int,
        index: "ClauseTrie | None" = _UNSET,  # type: ignore[assignment]
    ) -> Iterator[dict[str, Term]]:
        if index is _UNSET:
            index = self.clause_selection(program)
        if depth <= 0:
            return
        match goal:
            case Atom(term):
                yield from self._backchain(program, term, subst, depth, index)
            case Conj(goals):
                yield from self._solve_all(program, goals, subst, depth, index)
            case Implies(clauses, inner):
                clauses = tuple(clauses)
                yield from self.solve(
                    program + clauses,
                    inner,
                    subst,
                    depth,
                    None if index is None else index.extended(clauses),
                )
            case ForallG(vars, inner):
                renaming: dict[str, Term] = {v: fresh_const(v) for v in vars}
                from .terms import rename_goal

                yield from self.solve(
                    program, rename_goal(inner, renaming), subst, depth, index
                )
            case _:
                raise TypeError(f"not a Goal: {goal!r}")

    def clause_selection(self, program: tuple[Clause, ...]) -> "ClauseTrie | None":
        """The candidate-selection structure backchaining threads through
        the search (``None`` scans every clause)."""
        return clause_trie_for(program)

    def _solve_all(
        self,
        program: tuple[Clause, ...],
        goals: tuple[Goal, ...],
        subst: Subst,
        depth: int,
        index: "ClauseTrie | None" = None,
    ) -> Iterator[dict[str, Term]]:
        if not goals:
            yield dict(subst)
            return
        head, rest = goals[0], goals[1:]
        for subst1 in self.solve(program, head, subst, depth, index):
            yield from self._solve_all(program, rest, subst1, depth, index)

    def _backchain(
        self,
        program: tuple[Clause, ...],
        term: Term,
        subst: Subst,
        depth: int,
        index: "ClauseTrie | None" = None,
    ) -> Iterator[dict[str, Term]]:
        candidates: Iterable[Clause] = program
        if index is not None:
            # Only clauses whose head skeleton could unify with the goal.
            positions = index.candidates_for(term, subst)
            record_compiled(0, len(program) - len(positions))
            candidates = (program[pos] for pos in positions)
        for clause in candidates:
            renaming: dict[str, Term] = {
                v: Var(fresh_var(v)) for v in clause.vars
            }
            fresh = instantiate_clause(clause, renaming)
            record_unify()
            subst1 = unify(fresh.head, term, subst)
            if subst1 is None:
                continue
            yield from self._solve_all(program, fresh.body, subst1, depth - 1, index)

    def entails(self, program: Iterable[Clause], goal: Goal) -> bool:
        """Whether ``program |= goal`` has a proof within the depth bound."""
        program = tuple(program)
        memo = self.memo
        if memo is not None:
            key = (program, goal, self.max_depth)
            cached = memo.get(key, _MEMO_MISS)
            if cached is not _MEMO_MISS:
                record_entails(hit=True)
                return cached
        record_entails()
        result = False
        for _ in self.solve(program, goal, {}, self.max_depth):
            result = True
            break
        if memo is not None:
            memo[key] = result
        return result


def entails(
    program: Iterable[Clause],
    goal: Goal,
    max_depth: int = 64,
    *,
    memo: dict | None = None,
) -> bool:
    return Engine(max_depth=max_depth, memo=memo).entails(program, goal)
