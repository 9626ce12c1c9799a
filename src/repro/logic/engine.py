"""Uniform proof search for first-order hereditary Harrop formulas.

The solver follows the standard lambda-Prolog discipline:

* right rules first: conjunctions split, implication goals extend the
  program, universal goals introduce fresh skolem constants;
* atomic goals trigger *backchaining*: pick a program clause (any clause,
  with full backtracking -- this is the "semantic" search the paper's
  deterministic resolution deliberately approximates), rename its
  variables to fresh logic variables, unify the head, and prove the body.

Backchaining scans the program in clause order, so solutions are
enumerated in program order.  This module is a plain reference: it
exists to check the paper's Theorem 1 and runs only under tests, the
``logic``/``subtyping`` fuzz oracles and the benchmarks, so it carries
no clause index and no memo tables.

Search is depth-bounded so that the entailment check is a decision
procedure usable inside property tests: ``True`` means provable within
the bound, ``False`` means no proof was found within the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ..obs import record_entails, record_unify
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


@dataclass(frozen=True)
class Engine:
    """A depth-bounded hereditary Harrop prover."""

    max_depth: int = 64

    def solve(
        self,
        program: tuple[Clause, ...],
        goal: Goal,
        subst: Subst,
        depth: int,
    ) -> Iterator[dict[str, Term]]:
        if depth <= 0:
            return
        match goal:
            case Atom(term):
                yield from self._backchain(program, term, subst, depth)
            case Conj(goals):
                yield from self._solve_all(program, goals, subst, depth)
            case Implies(clauses, inner):
                yield from self.solve(program + tuple(clauses), inner, subst, depth)
            case ForallG(vars, inner):
                renaming: dict[str, Term] = {v: fresh_const(v) for v in vars}
                from .terms import rename_goal

                yield from self.solve(
                    program, rename_goal(inner, renaming), subst, depth
                )
            case _:
                raise TypeError(f"not a Goal: {goal!r}")

    def _solve_all(
        self,
        program: tuple[Clause, ...],
        goals: tuple[Goal, ...],
        subst: Subst,
        depth: int,
    ) -> Iterator[dict[str, Term]]:
        if not goals:
            yield dict(subst)
            return
        head, rest = goals[0], goals[1:]
        for subst1 in self.solve(program, head, subst, depth):
            yield from self._solve_all(program, rest, subst1, depth)

    def _backchain(
        self,
        program: tuple[Clause, ...],
        term: Term,
        subst: Subst,
        depth: int,
    ) -> Iterator[dict[str, Term]]:
        for clause in program:
            renaming: dict[str, Term] = {
                v: Var(fresh_var(v)) for v in clause.vars
            }
            fresh = instantiate_clause(clause, renaming)
            record_unify()
            subst1 = unify(fresh.head, term, subst)
            if subst1 is None:
                continue
            yield from self._solve_all(program, fresh.body, subst1, depth - 1)

    def entails(self, program: Iterable[Clause], goal: Goal) -> bool:
        """Whether ``program |= goal`` has a proof within the depth bound."""
        record_entails()
        for _ in self.solve(tuple(program), goal, {}, self.max_depth):
            return True
        return False


def entails(program: Iterable[Clause], goal: Goal, max_depth: int = 64) -> bool:
    return Engine(max_depth=max_depth).entails(program, goal)
