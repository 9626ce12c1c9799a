"""Type substitutions (appendix "Substitution" of the extended report).

A substitution ``theta`` maps type-variable names to types.  Substitutions
act on types and on expressions (whose annotations embed types).  Binders
in rule types are respected: bound variables shadow the substitution, and
binders are freshened when a capture would otherwise occur -- the paper
assumes binders are "renamed apart", which freshening realises.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Mapping

from .terms import (
    App,
    BoolLit,
    Expr,
    If,
    IntLit,
    Lam,
    ListLit,
    PairE,
    Prim,
    Project,
    Query,
    Record,
    RuleAbs,
    RuleApp,
    StrLit,
    TyApp,
    Var,
)
from .types import RuleType, TCon, TFun, TVar, Type, ftv

Subst = Mapping[str, Type]

_fresh_counter = itertools.count()


def fresh_tvar(prefix: str = "t") -> str:
    """A globally fresh type-variable name."""
    return f"{prefix}%{next(_fresh_counter)}"


def subst_type(theta: Subst, tau: Type) -> Type:
    """Apply ``theta`` to ``tau``, avoiding capture under rule binders."""
    if not theta:
        return tau
    if theta.keys().isdisjoint(ftv(tau)):
        # No free variable of ``tau`` is in the substitution's domain:
        # the result is ``tau`` itself.  The cached free-variable set
        # makes this an O(domain) probe, and returning the interned node
        # unchanged preserves physical sharing for downstream fast paths.
        return tau
    match tau:
        case TVar(name):
            return theta.get(name, tau)
        case TCon(name, args):
            if not args:
                return tau
            return TCon(name, tuple(subst_type(theta, a) for a in args))
        case TFun(arg, res):
            return TFun(subst_type(theta, arg), subst_type(theta, res))
        case RuleType():
            inner, tvars = _enter_binder(theta, tau.tvars)
            renaming = {
                old: inner[old] for old in tau.tvars if old in inner and old not in theta
            }
            # _enter_binder folds the renaming into ``inner``; nothing extra
            # to do here -- the assert documents the invariant.
            del renaming
            return RuleType(
                tvars,
                tuple(subst_type(inner, rho) for rho in tau.context),
                subst_type(inner, tau.head),
            )
    raise TypeError(f"not a Type: {tau!r}")


def _enter_binder(
    theta: Subst, tvars: tuple[str, ...]
) -> tuple[dict[str, Type], tuple[str, ...]]:
    """Adjust ``theta`` for descending under binder ``tvars``.

    Bound variables are removed from the substitution (shadowing).  If a
    bound variable occurs free in the range of the remaining substitution,
    it is renamed to a fresh variable to avoid capture.
    """
    inner = {name: tau for name, tau in theta.items() if name not in tvars}
    if not inner:
        return inner, tvars
    range_ftv: set[str] = set()
    for tau in inner.values():
        range_ftv |= ftv(tau)
    new_tvars = []
    for name in tvars:
        if name in range_ftv:
            fresh = fresh_tvar(name.split("%")[0])
            inner[name] = TVar(fresh)
            new_tvars.append(fresh)
        else:
            new_tvars.append(name)
    return inner, tuple(new_tvars)


def subst_context(theta: Subst, context: Iterable[Type]) -> tuple[Type, ...]:
    """Apply ``theta`` pointwise to a context (re-canonicalised by callers
    that rebuild rule types; standalone contexts keep their order)."""
    return tuple(subst_type(theta, rho) for rho in context)


def compose(after: Subst, before: Subst) -> dict[str, Type]:
    """The substitution ``after . before`` (apply ``before`` first)."""
    out: dict[str, Type] = {name: subst_type(after, tau) for name, tau in before.items()}
    for name, tau in after.items():
        out.setdefault(name, tau)
    return out


def zip_subst(tvars: Iterable[str], taus: Iterable[Type]) -> dict[str, Type]:
    """Build ``[a-bar |-> tau-bar]``, checking arity."""
    tvars = tuple(tvars)
    taus = tuple(taus)
    if len(tvars) != len(taus):
        raise ValueError(
            f"type-argument arity mismatch: {len(tvars)} variables, {len(taus)} types"
        )
    return dict(zip(tvars, taus))


def subst_expr(theta: Subst, e: Expr) -> Expr:
    """Apply a type substitution to every type annotation inside ``e``.

    This is the appendix's substitution on expressions; it never touches
    term variables.  Rule abstractions shadow their quantified variables
    exactly as in :func:`subst_type`.
    """
    if not theta:
        return e
    match e:
        case IntLit() | BoolLit() | StrLit() | Var() | Prim():
            return e
        case Lam(var, var_type, body):
            return Lam(var, subst_type(theta, var_type), subst_expr(theta, body))
        case App(fn, arg):
            return App(subst_expr(theta, fn), subst_expr(theta, arg))
        case Query(rho):
            return Query(subst_type(theta, rho))
        case RuleAbs(rho, body):
            if isinstance(rho, RuleType):
                inner, tvars = _enter_binder(theta, rho.tvars)
                new_rho: Type = RuleType(
                    tvars,
                    tuple(subst_type(inner, r) for r in rho.context),
                    subst_type(inner, rho.head),
                )
                return RuleAbs(new_rho, subst_expr(inner, body))
            return RuleAbs(subst_type(theta, rho), subst_expr(theta, body))
        case TyApp(expr, type_args):
            return TyApp(
                subst_expr(theta, expr), tuple(subst_type(theta, t) for t in type_args)
            )
        case RuleApp(expr, args):
            return RuleApp(
                subst_expr(theta, expr),
                tuple((subst_expr(theta, a), subst_type(theta, rho)) for a, rho in args),
            )
        case If(cond, then, orelse):
            return If(subst_expr(theta, cond), subst_expr(theta, then), subst_expr(theta, orelse))
        case PairE(first, second):
            return PairE(subst_expr(theta, first), subst_expr(theta, second))
        case ListLit(elems, elem_type):
            return ListLit(
                tuple(subst_expr(theta, el) for el in elems),
                None if elem_type is None else subst_type(theta, elem_type),
            )
        case Record(iface, type_args, fields):
            return Record(
                iface,
                tuple(subst_type(theta, t) for t in type_args),
                tuple((name, subst_expr(theta, f)) for name, f in fields),
            )
        case Project(expr, field):
            return Project(subst_expr(theta, expr), field)
    raise TypeError(f"not an Expr: {e!r}")


def map_types(f: Callable[[Type], Type], e: Expr) -> Expr:
    """Apply ``f`` to every type annotation inside ``e``, verbatim.

    Unlike :func:`subst_expr` nothing is renamed under a rule binder, so
    ``f`` sees each annotation exactly as written.  A node all of whose
    parts come back as the same objects is returned itself, not rebuilt.
    """

    def ex(x: Expr) -> Expr:
        match x:
            case App(fn, arg):
                new: tuple = (ex(fn), ex(arg))
            case Lam(var, var_type, body):
                new = (var, f(var_type), ex(body))
            case TyApp(expr, type_args):
                new = (ex(expr), _map(f, type_args))
            case Query(rho):
                new = (f(rho),)
            case RuleAbs(rho, body):
                new = (f(rho), ex(body))
            case RuleApp(expr, args):
                new = (ex(expr), _map_pairs(ex, f, args))
            case If(cond, then, orelse):
                new = (ex(cond), ex(then), ex(orelse))
            case PairE(first, second):
                new = (ex(first), ex(second))
            case ListLit(elems, elem_type):
                new = (_map(ex, elems), None if elem_type is None else f(elem_type))
            case Record(iface, type_args, fields):
                # str(name) is name: field names are kept as they are.
                new = (iface, _map(f, type_args), _map_pairs(str, ex, fields))
            case Project(expr, field):
                new = (ex(expr), field)
            case _:  # a variable, primitive or literal
                return x
        for name, value in zip(x.__match_args__, new):  # type: ignore[attr-defined]
            if getattr(x, name) is not value:
                return type(x)(*new)
        return x

    return ex(e)


def _map(f: Callable, items: tuple) -> tuple:
    new = tuple(map(f, items))
    return items if all(map(operator.is_, new, items)) else new


def _map_pairs(f: Callable, g: Callable, pairs: tuple) -> tuple:
    new = tuple((f(a), g(b)) for a, b in pairs)
    if all(a is c and b is d for (a, b), (c, d) in zip(pairs, new)):
        return pairs
    return new
