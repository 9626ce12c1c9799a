"""Type inference and the type-directed encoding into lambda_=> (Fig. 4).

The source language infers what the core makes explicit: type arguments
and implicit resolution sites.  Inference is Hindley-Milner-flavoured,
with mutable *metavariables* (written ``?m0``, ``?m1``, ...) solved by
unification:

* rule ``TyLVar`` -- a use of a let-bound ``u : forall a-bar.
  sigma-bar => T`` instantiates ``a-bar`` with fresh metavariables and
  emits ``u[?m-bar] with ?sigma_i-bar``: explicit type application plus
  one *query per context element*;
* rule ``TyIVar`` -- the bare query ``?`` gets a fresh metavariable as its
  type, later fixed by unification (a Coq-style placeholder);
* rule ``TyImp`` -- ``implicit u-bar in E`` wraps the translated body in a
  rule abstraction over the schemes of ``u-bar`` and immediately applies
  it to the named values;
* rule ``TyLet`` -- ``let u : sigma = E1 in E2`` requires its annotation
  (as in the paper) and translates to ``(\\u:[sigma]. e2) |[sigma]|.e1``;
* rule ``TyRec`` -- interface implementations infer the interface's type
  arguments from their field definitions.

Crucially, inference never *resolves* queries -- it only determines their
types.  Resolution (and all its error conditions) happens in the core
pipeline on the translated program, exactly as the paper's staging
prescribes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core.builders import let_
from ..core.subst import map_types, subst_type
from ..core.terms import (
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
    Signature,
    StrLit,
    TyApp,
    Var,
)
from ..core.typecheck import unambiguous
from ..core.types import (
    BOOL,
    INT,
    RuleType,
    STRING,
    TCon,
    TFun,
    TVar,
    Type,
    ftv,
    pair,
    list_of,
    promote,
    rule,
    types_alpha_eq,
)
from ..errors import SourceTypeError
from .ast import (
    SApp,
    SBoolLit,
    SExpr,
    SIf,
    SImplicit,
    SIntLit,
    SLam,
    SLet,
    SList,
    SPair,
    SProgram,
    SQuery,
    SRecord,
    SStrLit,
    SVar,
)
from .prelude import Binding, Origin, prelude

_META_PREFIX = "?m"


_AMBIGUOUS = (
    "ambiguous program: a type could not be inferred "
    "(add an annotation or use the value monomorphically)"
)


def _is_meta(name: str) -> bool:
    return name.startswith("?")


@dataclass(frozen=True)
class CompiledSource:
    """The output of :func:`compile_program`."""

    signature: Signature
    expr: Expr  # closed lambda_=> program
    type: Type  # its inferred source type


class SourceInferencer:
    """One inference run (holds the metavariable store)."""

    def __init__(self, signature: Signature):
        self.signature = signature
        self._solutions: dict[str, Type] = {}
        self._counter = itertools.count()
        self._rigid_in_scope: set[str] = set()

    # -- metavariables -----------------------------------------------------

    def fresh_meta(self) -> TVar:
        return TVar(f"{_META_PREFIX}{next(self._counter)}")

    def _walk(self, tau: Type) -> Type:
        solutions = self._solutions  # keyed by metavariable names only
        while isinstance(tau, TVar) and tau.name in solutions:
            tau = solutions[tau.name]
        return tau

    def zonk(self, tau: Type, *, strict: bool = False) -> Type:
        """Substitute solved metavariables throughout ``tau``.

        With ``strict=True`` an unsolved metavariable is an ambiguity
        error (the program's behaviour would depend on an arbitrary
        instantiation).  A type with no solved metavariable in its cached
        free-variable set is returned as it is.
        """
        tau = self._walk(tau)
        if self._solutions.keys().isdisjoint(tau._ftv):
            if strict and any(_is_meta(name) for name in tau._ftv):
                raise SourceTypeError(_AMBIGUOUS)
            return tau
        match tau:
            case TCon(name, args):
                return TCon(name, tuple(self.zonk(a, strict=strict) for a in args))
            case TFun(arg, res):
                return TFun(self.zonk(arg, strict=strict), self.zonk(res, strict=strict))
            case RuleType():
                return RuleType(
                    tau.tvars,
                    tuple(self.zonk(r, strict=strict) for r in tau.context),
                    self.zonk(tau.head, strict=strict),
                )
        raise TypeError(f"not a Type: {tau!r}")

    def _occurs(self, name: str, tau: Type) -> bool:
        tau = self._walk(tau)
        match tau:
            case TVar(other):
                return other == name
            case TCon(_, args):
                return any(self._occurs(name, a) for a in args)
            case TFun(arg, res):
                return self._occurs(name, arg) or self._occurs(name, res)
            case RuleType():
                return any(self._occurs(name, r) for r in tau.context) or self._occurs(
                    name, tau.head
                )
        raise TypeError(f"not a Type: {tau!r}")

    def unify(self, t1: Type, t2: Type, where: str) -> None:
        t1 = self._walk(t1)
        t2 = self._walk(t2)
        if t1 is t2:  # interned: one object per simple type
            return
        if isinstance(t1, TVar) and _is_meta(t1.name):
            if self._occurs(t1.name, t2):
                raise SourceTypeError(f"infinite type in {where}: {t1} ~ {t2}")
            self._solutions[t1.name] = t2
            return
        if isinstance(t2, TVar) and _is_meta(t2.name):
            self.unify(t2, t1, where)
            return
        match t1, t2:
            case (TCon(n1, a1), TCon(n2, a2)) if n1 == n2 and len(a1) == len(a2):
                for x, y in zip(a1, a2):
                    self.unify(x, y, where)
                return
            case (TFun(p1, r1), TFun(p2, r2)):
                self.unify(p1, p2, where)
                self.unify(r1, r2, where)
                return
            case (RuleType(), RuleType()):
                if types_alpha_eq(self.zonk(t1), self.zonk(t2)):
                    return
        raise SourceTypeError(
            f"type mismatch in {where}: {self.zonk(t1)} vs {self.zonk(t2)}"
        )

    # -- inference + translation -------------------------------------------

    def infer(self, e: SExpr, env: dict[str, Binding]) -> tuple[Type, Expr]:
        match e:
            case SIntLit(v):
                return INT, IntLit(v)
            case SBoolLit(v):
                return BOOL, BoolLit(v)
            case SStrLit(v):
                return STRING, StrLit(v)
            case SVar(name):
                return self._infer_var(name, env)
            case SQuery():
                meta = self.fresh_meta()
                return meta, Query(meta)
            case SLam(params, body):
                inner = dict(env)
                metas: list[tuple[str, TVar]] = []
                for param in params:
                    meta = self.fresh_meta()
                    metas.append((param, meta))
                    inner[param] = Binding(meta, Origin.MONO)
                body_type, body_core = self.infer(body, inner)
                out_type: Type = body_type
                out_core = body_core
                for param, meta in reversed(metas):
                    out_type = TFun(meta, out_type)
                    out_core = Lam(param, meta, out_core)
                return out_type, out_core
            case SApp(fn, arg):
                fn_type, fn_core = self.infer(fn, env)
                arg_type, arg_core = self.infer(arg, env)
                result = self.fresh_meta()
                self.unify(fn_type, TFun(arg_type, result), "application")
                return result, App(fn_core, arg_core)
            case SLet(name, scheme, bound, body):
                return self._infer_let(name, scheme, bound, body, env)
            case SImplicit(names, body):
                return self._infer_implicit(names, body, env)
            case SIf(cond, then, orelse):
                cond_type, cond_core = self.infer(cond, env)
                self.unify(cond_type, BOOL, "if-condition")
                then_type, then_core = self.infer(then, env)
                else_type, else_core = self.infer(orelse, env)
                self.unify(then_type, else_type, "if-branches")
                return then_type, If(cond_core, then_core, else_core)
            case SPair(first, second):
                first_type, first_core = self.infer(first, env)
                second_type, second_core = self.infer(second, env)
                return pair(first_type, second_type), PairE(first_core, second_core)
            case SList(elems):
                elem_type: Type = self.fresh_meta()
                cores: list[Expr] = []
                for el in elems:
                    actual, core = self.infer(el, env)
                    self.unify(actual, elem_type, "list literal")
                    cores.append(core)
                return list_of(elem_type), ListLit(tuple(cores), elem_type)
            case SRecord(iface, fields):
                return self._infer_record(iface, fields, env)
        raise SourceTypeError(f"cannot infer type of {e!r}")

    # TyVar / TyLVar -------------------------------------------------------

    def _infer_var(self, name: str, env: dict[str, Binding]) -> tuple[Type, Expr]:
        binding = env.get(name)
        if binding is None:
            raise SourceTypeError(f"unbound variable {name!r}")
        if binding.origin is Origin.MONO:
            return binding.scheme, Var(name)
        base: Expr = Prim(name) if binding.origin is Origin.PRIM else Var(name)
        tvars, context, head = promote(binding.scheme)
        if not tvars and not context:
            return binding.scheme, base
        metas = [self.fresh_meta() for _ in tvars]
        theta = dict(zip(tvars, metas))
        expr: Expr = TyApp(base, tuple(metas)) if tvars else base
        inst_context = tuple(subst_type(theta, rho_i) for rho_i in context)
        if inst_context:
            expr = RuleApp(expr, tuple((Query(r), r) for r in inst_context))
        return subst_type(theta, head), expr

    # TyLet ------------------------------------------------------------------

    def _infer_let(
        self,
        name: str,
        scheme: Type | None,
        bound: SExpr,
        body: SExpr,
        env: dict[str, Binding],
    ) -> tuple[Type, Expr]:
        if scheme is None:
            return self._infer_let_generalised(name, bound, body, env)
        if not unambiguous(scheme):
            raise SourceTypeError(
                f"let-annotation {scheme} for {name!r} is ambiguous: a "
                "quantified variable does not occur in the head"
            )
        scheme = self._freshen_scheme(scheme)
        tvars, _, head = promote(scheme)
        self._rigid_in_scope.update(tvars)
        self._rigid_in_scope.update(ftv(scheme))
        bound_type, bound_core = self.infer(bound, env)
        self.unify(bound_type, head, f"let-binding of {name!r}")
        inner = dict(env)
        inner[name] = Binding(scheme, Origin.LET)
        body_type, body_core = self.infer(body, inner)
        if isinstance(scheme, RuleType):
            translated = App(Lam(name, scheme, body_core), RuleAbs(scheme, bound_core))
        else:
            translated = let_(name, scheme, bound_core, body_core)
        return body_type, translated

    def _infer_let_generalised(
        self, name: str, bound: SExpr, body: SExpr, env: dict[str, Binding]
    ) -> tuple[Type, Expr]:
        """Unannotated let: standard HM generalisation (section 5.2).

        Metavariables free in the bound expression's type but not in the
        environment become quantified rigid variables.  The implicit
        *context* is never generalised: a query inside the bound
        expression must resolve from the enclosing scopes (annotate the
        let to abstract over implicit evidence instead).
        """
        bound_type, bound_core = self.infer(bound, env)
        resolved = self.zonk(bound_type)
        env_metas: set[str] = set()
        for binding in env.values():
            for var in ftv(self.zonk(binding.scheme)):
                if _is_meta(var):
                    env_metas.add(var)
        # Monomorphism restriction for implicits: metavariables that occur
        # in a query type inside the bound expression must stay
        # un-generalised so the query can still resolve against concrete
        # rules (generalising them would skolemise the query).
        query_metas: set[str] = set()
        for rho in _query_types(bound_core):
            for var in ftv(self.zonk(rho)):
                if _is_meta(var):
                    query_metas.add(var)
        gen_metas = [
            var
            for var in sorted(ftv(resolved))
            if _is_meta(var) and var not in env_metas and var not in query_metas
        ]
        if not gen_metas:
            inner = dict(env)
            inner[name] = Binding(resolved, Origin.MONO)
            body_type, body_core = self.infer(body, inner)
            return body_type, let_(name, resolved, bound_core, body_core)
        # Solve each generalised metavariable to a fresh rigid variable;
        # zonking then rewrites the bound expression consistently.
        rigid_names: list[str] = []
        for meta in gen_metas:
            fresh = f"g%{next(self._counter)}"
            rigid_names.append(fresh)
            self._solutions[meta] = TVar(fresh)
            self._rigid_in_scope.add(fresh)
        scheme = RuleType(tuple(rigid_names), (), self.zonk(resolved))
        inner = dict(env)
        inner[name] = Binding(scheme, Origin.LET)
        body_type, body_core = self.infer(body, inner)
        translated = App(Lam(name, scheme, body_core), RuleAbs(scheme, bound_core))
        return body_type, translated

    def _freshen_scheme(self, scheme: Type) -> Type:
        """Rename quantified variables that clash with names already used.

        The core calculus assumes binders are renamed apart; nested lets
        reusing ``a`` would otherwise trip the ``TyRule`` freshness check.
        """
        if not isinstance(scheme, RuleType):
            return scheme
        clashes = [v for v in scheme.tvars if v in self._rigid_in_scope]
        if not clashes:
            return scheme
        renaming = {v: TVar(f"{v}%{next(self._counter)}") for v in clashes}
        new_tvars = tuple(
            renaming[v].name if v in renaming else v for v in scheme.tvars
        )
        # Rebuild the binder explicitly: subst_type treats the scheme's own
        # quantified variables as bound (shadowed), so the renaming must be
        # applied to the open context/head, not to the closed scheme.
        return RuleType(
            new_tvars,
            tuple(subst_type(renaming, r) for r in scheme.context),
            subst_type(renaming, scheme.head),
        )

    # TyImp ------------------------------------------------------------------

    def _infer_implicit(
        self, names: tuple[str, ...], body: SExpr, env: dict[str, Binding]
    ) -> tuple[Type, Expr]:
        evidence: list[tuple[Expr, Type]] = []
        for name in names:
            binding = env.get(name)
            if binding is None:
                raise SourceTypeError(f"implicit names an unbound variable {name!r}")
            value: Expr = Prim(name) if binding.origin is Origin.PRIM else Var(name)
            evidence.append((value, binding.scheme))
        body_type, body_core = self.infer(body, env)
        context = tuple(rho for _, rho in evidence)
        wrapper = RuleAbs(RuleType((), context, body_type), body_core)
        return body_type, RuleApp(wrapper, tuple(evidence))

    # TyRec ------------------------------------------------------------------

    def _infer_record(
        self, iface: str, fields: tuple[tuple[str, SExpr], ...], env: dict[str, Binding]
    ) -> tuple[Type, Expr]:
        decl = self.signature.get(iface)
        if decl is None:
            raise SourceTypeError(f"unknown interface {iface!r}")
        if {n for n, _ in fields} != set(decl.field_names()):
            raise SourceTypeError(
                f"implementation of {iface} must define exactly the fields "
                f"{list(decl.field_names())}"
            )
        metas = [self.fresh_meta() for _ in decl.tvars]
        theta = dict(zip(decl.tvars, metas))
        cores: list[tuple[str, Expr]] = []
        for fname, fexpr in fields:
            expected = subst_type(theta, decl.field_type(fname))
            actual, core = self.infer(fexpr, env)
            self.unify(actual, expected, f"field {iface}.{fname}")
            cores.append((fname, core))
        return TCon(iface, tuple(metas)), Record(iface, tuple(metas), tuple(cores))

    # -- finalisation --------------------------------------------------------

    def zonk_expr(self, e: Expr) -> Expr:
        """Replace every solved metavariable in the translated program.

        Metavariable solutions mention *rigid* variables that must be
        captured by the rule binders already present in the translated
        term (that capture is the whole point of the encoding), so this
        deliberately does NOT use the capture-avoiding
        :func:`repro.core.subst.subst_expr`: metavariable names (``?m*``)
        are never bound by any binder, making verbatim replacement sound.

        A node whose types mention no solved metavariable is returned
        unchanged, not rebuilt; an unsolved metavariable anywhere makes
        the program ambiguous.
        """
        return map_types(lambda tau: self.zonk(tau, strict=True), e)


def _query_types(e: Expr) -> list[Type]:
    """All types queried anywhere inside a translated core expression."""
    out: list[Type] = []

    def walk(x: object) -> None:
        if isinstance(x, Query):
            out.append(x.rho)
        if isinstance(x, Expr):
            for attr in x.__dataclass_fields__:  # type: ignore[attr-defined]
                walk(getattr(x, attr))
        elif isinstance(x, tuple):
            for item in x:
                walk(item)

    walk(e)
    return out


def selector_bindings(signature: Signature) -> list[tuple[str, Type, Expr]]:
    """Field-selector definitions for every interface (paper convention:

    a field ``u : T`` of ``interface I a-bar`` is a regular function
    ``u : forall a-bar . I a-bar -> T``)."""
    out: list[tuple[str, Type, Expr]] = []
    for decl in signature:
        iface_type = TCon(decl.name, tuple(TVar(v) for v in decl.tvars))
        for fname, ftype in decl.fields:
            scheme = rule(TFun(iface_type, ftype), (), decl.tvars)
            body: Expr = Lam("r", iface_type, Project(Var("r"), fname))
            if isinstance(scheme, RuleType):
                definition: Expr = RuleAbs(scheme, body)
            else:
                definition = body
            out.append((fname, scheme, definition))
    return out


def compile_program(program: SProgram) -> CompiledSource:
    """Infer, translate and close a source program (Fig. 4 end-to-end)."""
    signature = Signature(program.interfaces)
    inferencer = SourceInferencer(signature)
    env = prelude()
    selectors = selector_bindings(signature)
    for fname, scheme, _ in selectors:
        if fname in env:
            raise SourceTypeError(
                f"interface field {fname!r} collides with a primitive name"
            )
        env[fname] = Binding(scheme, Origin.FIELD)
        inferencer._rigid_in_scope.update(promote(scheme)[0])
    body_type, body_core = inferencer.infer(program.body, env)
    # Wrap the program in the selector definitions (outermost first).
    wrapped = body_core
    for fname, scheme, definition in reversed(selectors):
        if isinstance(scheme, RuleType):
            wrapped = App(Lam(fname, scheme, wrapped), definition)
        else:
            wrapped = let_(fname, scheme, definition, wrapped)
    final_type = inferencer.zonk(body_type, strict=True)
    final_core = inferencer.zonk_expr(wrapped)
    return CompiledSource(signature=signature, expr=final_core, type=final_type)
