"""The type translation ``|.|`` from lambda_=> to System F (Fig. 2).

::

    |alpha|                         = alpha
    |Int|                           = Int            (and every constructor)
    |tau1 -> tau2|                  = |tau1| -> |tau2|
    |forall a-bar.{rho-bar} => tau| = forall a-bar. |rho1| -> ... -> |rhon| -> |tau|

Contexts are canonically ordered (see :mod:`repro.core.types`), which
makes the translation unique as the paper requires.  The degenerate rule
type ``{} => tau`` does not exist in our representation (it *is* ``tau``),
so the paper's ``|{} => tau| = () -> |tau|`` clause is not needed; a rule
with quantifiers but an empty context translates to a bare ``forall``,
whose type abstraction already suspends evaluation.
"""

from __future__ import annotations

from ..core.terms import InterfaceDecl, Signature
from ..core.types import RuleType, TCon, TFun, TVar, Type
from ..systemf.ast import FTCon, FTFun, FTVar, FType, f_forall, f_fun
from ..systemf.typecheck import FInterface, FSignature


def translate_type(tau: Type) -> FType:
    """``|tau|`` -- the System F image of a lambda_=> type.

    Memoized on the hash-consed ``tau`` itself (its ``_ftype`` slot), so
    each distinct type is translated once and every use of it shares one
    System F object.
    """
    try:
        return tau._ftype  # type: ignore[attr-defined]
    except AttributeError:  # first translation of this node; the slot is unset
        pass
    match tau:
        case TVar(name):
            out: FType = FTVar(name)
        case TCon(name, args):
            out = FTCon(name, tuple(translate_type(a) for a in args))
        case TFun(arg, res):
            out = FTFun(translate_type(arg), translate_type(res))
        case RuleType():
            body = f_fun(
                *(translate_type(rho) for rho in tau.context),
                translate_type(tau.head),
            )
            out = f_forall(tau.tvars, body)
        case _:
            raise TypeError(f"not a Type: {tau!r}")
    object.__setattr__(tau, "_ftype", out)
    return out


def translate_interface(decl: InterfaceDecl) -> FInterface:
    return FInterface(
        name=decl.name,
        tvars=decl.tvars,
        fields=tuple((name, translate_type(t)) for name, t in decl.fields),
    )


def translate_signature(signature: Signature) -> FSignature:
    return FSignature(translate_interface(decl) for decl in signature)
