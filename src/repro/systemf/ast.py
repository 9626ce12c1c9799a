"""Abstract syntax of the System F target language (paper section 4).

The paper elaborates lambda_=> into "System F extended with the integer
and unit types"; since our lambda_=> carries the examples' extensions
(booleans, strings, pairs, lists, records, primitives), the target carries
the same ones.  Types::

    T ::= alpha | T -> T | forall alpha . T | K T-bar

and expressions::

    E ::= x | \\x:T.E | E E | /\\alpha.E | E T | literals | extensions

``FForall`` types compare up to alpha-equivalence via canonical keys, in
the same style as :mod:`repro.core.types`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping


class FType:
    """Base class of System F types."""

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover
        return pretty_ftype(self)


@dataclass(frozen=True)
class FTVar(FType):
    name: str


@dataclass(frozen=True)
class FTCon(FType):
    name: str
    args: tuple[FType, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class FTFun(FType):
    arg: FType
    res: FType


@dataclass(frozen=True, eq=False)
class FForall(FType):
    var: str
    body: FType

    def canonical_key(self, bound: Mapping[str, int] | None = None) -> tuple:
        return ftype_key(self, dict(bound or {}))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FForall):
            return NotImplemented
        return ftype_key(self, {}) == ftype_key(other, {})

    def __hash__(self) -> int:
        return hash(ftype_key(self, {}))


F_INT = FTCon("Int")
F_BOOL = FTCon("Bool")
F_STRING = FTCon("String")
F_UNIT = FTCon("Unit")


def f_pair(a: FType, b: FType) -> FTCon:
    return FTCon("Pair", (a, b))


def f_list(a: FType) -> FTCon:
    return FTCon("List", (a,))


def f_forall(tvars: Iterable[str], body: FType) -> FType:
    out = body
    for name in reversed(tuple(tvars)):
        out = FForall(name, out)
    return out


def f_fun(*types: FType) -> FType:
    if not types:
        raise ValueError("f_fun() needs at least one type")
    out = types[-1]
    for t in reversed(types[:-1]):
        out = FTFun(t, out)
    return out


def ftype_key(t: FType, bound: dict[str, int]) -> tuple:
    match t:
        case FTVar(name):
            if name in bound:
                return ("bv", bound[name])
            return ("fv", name)
        case FTCon(name, args):
            return ("con", name, tuple(ftype_key(a, bound) for a in args))
        case FTFun(arg, res):
            return ("fun", ftype_key(arg, bound), ftype_key(res, bound))
        case FForall(var, body):
            inner = dict(bound)
            inner[var] = len(bound)
            return ("forall", ftype_key(body, inner))
    raise TypeError(f"not an FType: {t!r}")


def ftypes_eq(a: FType, b: FType) -> bool:
    """Alpha-equivalence of System F types."""
    return a is b or ftype_key(a, {}) == ftype_key(b, {})


def ftype_ftv(t: FType) -> frozenset[str]:
    match t:
        case FTVar(name):
            return frozenset((name,))
        case FTCon(_, args):
            out: frozenset[str] = frozenset()
            for a in args:
                out |= ftype_ftv(a)
            return out
        case FTFun(arg, res):
            return ftype_ftv(arg) | ftype_ftv(res)
        case FForall(var, body):
            return ftype_ftv(body) - {var}
    raise TypeError(f"not an FType: {t!r}")


_fresh = itertools.count()


def subst_ftype(theta: Mapping[str, FType], t: FType) -> FType:
    """Capture-avoiding substitution on System F types."""
    if not theta:
        return t
    match t:
        case FTVar(name):
            return theta.get(name, t)
        case FTCon(name, args):
            return FTCon(name, tuple(subst_ftype(theta, a) for a in args))
        case FTFun(arg, res):
            return FTFun(subst_ftype(theta, arg), subst_ftype(theta, res))
        case FForall(var, body):
            inner = {k: v for k, v in theta.items() if k != var}
            if not inner:
                return t
            range_ftv: set[str] = set()
            for tau in inner.values():
                range_ftv |= ftype_ftv(tau)
            if var in range_ftv:
                fresh = f"{var}%f{next(_fresh)}"
                inner[var] = FTVar(fresh)
                return FForall(fresh, subst_ftype(inner, body))
            return FForall(var, subst_ftype(inner, body))
    raise TypeError(f"not an FType: {t!r}")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class FExpr:
    """Base class of System F expressions."""

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover
        return pretty_fexpr(self)


@dataclass(frozen=True)
class FVar(FExpr):
    name: str


@dataclass(frozen=True)
class FIntLit(FExpr):
    value: int


@dataclass(frozen=True)
class FBoolLit(FExpr):
    value: bool


@dataclass(frozen=True)
class FStrLit(FExpr):
    value: str


@dataclass(frozen=True)
class FLam(FExpr):
    var: str
    var_type: FType
    body: FExpr


@dataclass(frozen=True)
class FApp(FExpr):
    fn: FExpr
    arg: FExpr


@dataclass(frozen=True)
class FTyLam(FExpr):
    """A type abstraction ``/\\alpha. E``."""

    var: str
    body: FExpr


@dataclass(frozen=True)
class FTyApp(FExpr):
    """A type application ``E T``."""

    expr: FExpr
    type_arg: FType


@dataclass(frozen=True)
class FIf(FExpr):
    cond: FExpr
    then: FExpr
    orelse: FExpr


@dataclass(frozen=True)
class FPair(FExpr):
    first: FExpr
    second: FExpr


@dataclass(frozen=True)
class FListLit(FExpr):
    elems: tuple[FExpr, ...]
    elem_type: FType

    def __post_init__(self) -> None:
        if not isinstance(self.elems, tuple):
            object.__setattr__(self, "elems", tuple(self.elems))


@dataclass(frozen=True)
class FPrim(FExpr):
    """A built-in primitive (shared table, see :mod:`repro.core.prims`)."""

    name: str


@dataclass(frozen=True)
class FRecord(FExpr):
    iface: str
    type_args: tuple[FType, ...]
    fields: tuple[tuple[str, FExpr], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.type_args, tuple):
            object.__setattr__(self, "type_args", tuple(self.type_args))
        if not isinstance(self.fields, tuple):
            object.__setattr__(self, "fields", tuple(tuple(f) for f in self.fields))


@dataclass(frozen=True)
class FProject(FExpr):
    expr: FExpr
    field: str


@dataclass(frozen=True)
class FFix(FExpr):
    """A recursive binder ``fix x:T. E`` (the elaboration of corecursive
    evidence: a resolution cycle closes into a mu-bound System F term).

    Typing is the standard fixpoint rule -- under ``x : T`` the body must
    have type ``T``, and the whole term has type ``T``.  Operationally
    ``fix x:T.E`` unfolds to ``E[x := fix x:T.E]``; the big-step
    evaluator ties the knot through the environment instead
    (:mod:`repro.systemf.eval`).
    """

    var: str
    var_type: FType
    body: FExpr


def f_app(fn: FExpr, *args: FExpr) -> FExpr:
    out = fn
    for a in args:
        out = FApp(out, a)
    return out


def f_tyapp(expr: FExpr, types: Iterable[FType]) -> FExpr:
    out = expr
    for t in types:
        out = FTyApp(out, t)
    return out


def f_tylam(tvars: Iterable[str], body: FExpr) -> FExpr:
    out = body
    for name in reversed(tuple(tvars)):
        out = FTyLam(name, out)
    return out


def f_lam(bindings: Iterable[tuple[str, FType]], body: FExpr) -> FExpr:
    out = body
    for name, t in reversed(tuple(bindings)):
        out = FLam(name, t, out)
    return out


# ---------------------------------------------------------------------------
# Pretty printing (compact; for error messages and tests)
# ---------------------------------------------------------------------------


def pretty_ftype(t: FType, prec: int = 2) -> str:
    match t:
        case FTVar(name):
            return name
        case FTCon("Pair", (a, b)):
            return f"({pretty_ftype(a)}, {pretty_ftype(b)})"
        case FTCon("List", (a,)):
            return f"[{pretty_ftype(a)}]"
        case FTCon(name, ()):
            return name
        case FTCon(name, args):
            text = name + " " + " ".join(pretty_ftype(a, 0) for a in args)
            return f"({text})" if prec < 1 else text
        case FTFun(arg, res):
            text = f"{pretty_ftype(arg, 1)} -> {pretty_ftype(res, 2)}"
            return f"({text})" if prec < 2 else text
        case FForall(var, body):
            text = f"forall {var}. {pretty_ftype(body, 2)}"
            return f"({text})" if prec < 2 else text
    raise TypeError(f"not an FType: {t!r}")


def pretty_fexpr(e: FExpr, prec: int = 10) -> str:
    match e:
        case FVar(name):
            return name
        case FIntLit(v):
            return str(v)
        case FBoolLit(v):
            return "True" if v else "False"
        case FStrLit(v):
            return repr(v)
        case FPrim(name):
            return f"#{name}"
        case FLam(var, var_type, body):
            text = f"\\{var}:{pretty_ftype(var_type)}. {pretty_fexpr(body)}"
            return f"({text})" if prec < 10 else text
        case FApp(fn, arg):
            text = f"{pretty_fexpr(fn, 2)} {pretty_fexpr(arg, 1)}"
            return f"({text})" if prec < 2 else text
        case FTyLam(var, body):
            text = f"/\\{var}. {pretty_fexpr(body)}"
            return f"({text})" if prec < 10 else text
        case FTyApp(expr, t):
            text = f"{pretty_fexpr(expr, 2)} @{pretty_ftype(t, 0)}"
            return f"({text})" if prec < 2 else text
        case FIf(cond, then, orelse):
            text = (
                f"if {pretty_fexpr(cond)} then {pretty_fexpr(then)} "
                f"else {pretty_fexpr(orelse)}"
            )
            return f"({text})" if prec < 10 else text
        case FPair(first, second):
            return f"({pretty_fexpr(first)}, {pretty_fexpr(second)})"
        case FListLit(elems, _):
            return "[" + ", ".join(pretty_fexpr(el) for el in elems) + "]"
        case FRecord(iface, _, fields):
            body = ", ".join(f"{n} = {pretty_fexpr(f)}" for n, f in fields)
            return f"{iface} {{{body}}}"
        case FProject(expr, field):
            return f"{pretty_fexpr(expr, 1)}.{field}"
        case FFix(var, var_type, body):
            text = f"fix {var}:{pretty_ftype(var_type)}. {pretty_fexpr(body)}"
            return f"({text})" if prec < 10 else text
    raise TypeError(f"not an FExpr: {e!r}")
