"""The logical interpretation ``(.)-dagger`` of types (paper section 3.2).

::

    alpha-dagger            = alpha-dagger           (a propositional variable)
    Int-dagger              = Int-dagger             (a propositional constant)
    (t1 -> t2)-dagger       = t1-dagger ->d t2-dagger  (uninterpreted functor)
    (forall a-bar. P => t)-dagger
                            = forall a-bar. /\\ P-dagger => t-dagger

A simple type is read as the proposition "a value of this type is
available in the implicit environment".  Rule types are implications; the
function arrow is deliberately *not* an implication (the paper restricts
implicational reasoning to rule types), so it becomes an uninterpreted
binary functor.

Rule types can occur as rule *heads* (higher-order rules); the
corresponding formula ``P1 => (P2 => A)`` is curried into the
hereditary-Harrop clause ``(P1 /\\ P2) => A`` when a rule is used as a
program clause, which is a logical equivalence.
"""

from __future__ import annotations

from ..core.env import ImplicitEnv
from ..core.types import RuleType, TCon, TFun, TVar, Type
from .terms import Atom, Clause, ForallG, Goal, Implies, Struct, Term, Var


def type_term(tau: Type, bound: frozenset[str]) -> Term:
    """The term encoding of a type's proposition.

    ``bound`` lists type variables currently quantified (encoded as logic
    variables); all other type variables are rigid constants.
    """
    match tau:
        case TVar(name):
            if name in bound:
                return Var(name)
            return Struct(f"tv:{name}")
        case TCon(name, args):
            return Struct(f"ty:{name}", tuple(type_term(a, bound) for a in args))
        case TFun(arg, res):
            return Struct("fun", (type_term(arg, bound), type_term(res, bound)))
        case RuleType():
            # A rule type in *term position* (e.g. under a constructor).
            # Encode it as an opaque structure so matching remains
            # syntactic, mirroring the calculus's treatment of rule types
            # nested inside constructors.
            inner = bound | frozenset(tau.tvars)
            return Struct(
                f"rule:{len(tau.tvars)}",
                tuple(type_term(r, inner) for r in tau.context)
                + (type_term(tau.head, inner),),
            )
    raise TypeError(f"not a Type: {tau!r}")


def goal_of_type(rho: Type, bound: frozenset[str] = frozenset()) -> Goal:
    """``rho-dagger`` in goal position."""
    if not isinstance(rho, RuleType):
        return Atom(type_term(rho, bound))
    inner = bound | frozenset(rho.tvars)
    assumptions = tuple(clause_of_type(r, inner) for r in rho.context)
    body = goal_of_type(rho.head, inner)
    if assumptions:
        body = Implies(assumptions, body)
    if rho.tvars:
        body = ForallG(rho.tvars, body)
    return body


def clause_of_type(rho: Type, bound: frozenset[str] = frozenset()) -> Clause:
    """``rho-dagger`` in program (clause) position.

    Nested rule heads are curried into one clause:
    ``forall a.P1 => (P2 => A)`` becomes ``forall a.(P1 /\\ P2) => A``.
    """
    vars_acc: list[str] = []
    body_acc: list[Goal] = []
    current: Type = rho
    scope = set(bound)
    while isinstance(current, RuleType):
        vars_acc.extend(current.tvars)
        scope.update(current.tvars)
        frozen = frozenset(scope)
        body_acc.extend(goal_of_type(r, frozen) for r in current.context)
        current = current.head
    return Clause(
        tuple(vars_acc), tuple(body_acc), type_term(current, frozenset(scope))
    )


def program_of_env(env: ImplicitEnv) -> tuple[Clause, ...]:
    """``Delta-dagger``: every rule of the environment as a clause.

    The logical reading forgets scoping priority -- entailment only asks
    whether *some* proof exists, which is exactly why it over-approximates
    the paper's deterministic resolution (Theorem 1 is an implication, not
    an equivalence).
    """
    return tuple(clause_of_type(entry.rho) for entry in env.entries())


def env_entails(env: ImplicitEnv, rho: Type, max_depth: int = 64) -> bool:
    """Check ``Delta-dagger |= rho-dagger`` with the bounded prover."""
    from .engine import entails

    return entails(program_of_env(env), goal_of_type(rho), max_depth=max_depth)
