"""High-level pipelines: the public one-call API of the library.

Two entry paths, mirroring the paper's architecture:

* **core** -- a lambda_=> program (built with :mod:`repro.core.builders`
  or parsed) is type checked (Fig. 1), then either *elaborated* to System
  F and run there (section 4, the paper's definitional dynamic semantics)
  or interpreted *directly* by the big-step operational semantics
  (extended report).  Both produce the same values on coherent programs
  (experiment T3).

* **source** -- a source-language program (section 5) is parsed, inferred
  and encoded into lambda_=>, then follows the core path.

Example::

    >>> from repro import run_source
    >>> run_source('implicit showInt in let s : String = ? 3 in s')
    '3'
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from .core.resolution import Resolver
from .core.terms import EMPTY_SIGNATURE, Expr, Signature
from .obs import ResolutionStats, collecting
from .core.typecheck import TypeChecker
from .core.types import Type
from .elaborate.translate import Elaborator
from .elaborate.types import translate_signature, translate_type
from .opsem.interp import Interpreter
from .source.infer import CompiledSource, compile_program
from .source.parser import parse_program
from .systemf.ast import FExpr, ftypes_eq
from .systemf.eval import feval
from .systemf.typecheck import FTypeChecker
from .errors import StackDepthError, SystemFTypeError


class Semantics(enum.Enum):
    """Which dynamic semantics executes the core program."""

    ELABORATE = "elaborate"  # translate to System F, big-step evaluate
    #: translate to System F, reduce with the paper's single-step -->*
    #: (substitution-based; slower, but textually faithful to section 4)
    SMALLSTEP = "smallstep"
    OPERATIONAL = "operational"  # direct big-step interpretation


@dataclass(frozen=True)
class CoreRun:
    """Everything produced by a full core-pipeline run."""

    expr: Expr
    type: Type
    value: Any
    systemf: FExpr | None = None


def typecheck_core(
    expr: Expr,
    *,
    signature: Signature = EMPTY_SIGNATURE,
    resolver: Resolver | None = None,
    strict_coherence: bool = False,
    stats: ResolutionStats | None = None,
) -> Type:
    """Fig. 1: ``. | . |- e : tau``."""
    checker = TypeChecker(
        signature=signature,
        resolver=resolver or Resolver(),
        strict_coherence=strict_coherence,
    )
    with collecting(stats):
        return checker.check_program(expr)


def elaborate_core(
    expr: Expr,
    *,
    signature: Signature = EMPTY_SIGNATURE,
    resolver: Resolver | None = None,
    verify: bool = True,
    stats: ResolutionStats | None = None,
) -> tuple[Type, FExpr]:
    """Fig. 2: ``. | . |- e : tau ~> E``.

    With ``verify=True`` the System F result is re-checked against
    ``|tau|`` -- the statement of the paper's type-preservation theorem --
    before being returned.
    """
    elaborator = Elaborator(signature=signature, resolver=resolver or Resolver())
    with collecting(stats):
        tau, target = elaborator.elaborate_program(expr)
    if verify:
        f_checker = FTypeChecker(signature=translate_signature(signature))
        actual = f_checker.check_program(target)
        expected = translate_type(tau)
        if not ftypes_eq(actual, expected):
            raise SystemFTypeError(
                f"type preservation violated: elaborated term has type "
                f"{actual}, expected |{tau}| = {expected}"
            )
    return tau, target


def run_core(
    expr: Expr,
    *,
    signature: Signature = EMPTY_SIGNATURE,
    resolver: Resolver | None = None,
    semantics: Semantics = Semantics.ELABORATE,
    verify: bool = False,
    stats: ResolutionStats | None = None,
) -> CoreRun:
    """Type check and execute a closed lambda_=> program."""
    resolver = resolver or Resolver()
    with collecting(stats):
        if semantics in (Semantics.ELABORATE, Semantics.SMALLSTEP):
            tau, target = elaborate_core(
                expr, signature=signature, resolver=resolver, verify=verify
            )
            if semantics is Semantics.SMALLSTEP:
                from .systemf.smallstep import eval_smallstep

                return CoreRun(
                    expr=expr, type=tau, value=eval_smallstep(target), systemf=target
                )
            return CoreRun(expr=expr, type=tau, value=feval(target), systemf=target)
        tau = typecheck_core(expr, signature=signature, resolver=resolver)
        interpreter = Interpreter(
            policy=resolver.policy,
            strategy=resolver.strategy,
            fuel=resolver.fuel,
            deadline=resolver.deadline,
        )
        return CoreRun(expr=expr, type=tau, value=interpreter.run(expr))


@contextmanager
def stack_depth_errors() -> Iterator[None]:
    """Report a ``RecursionError`` in the block as :class:`StackDepthError`.

    The CLI and the service's program ops run the pipeline under this,
    so a program too deep for the recursive stages after the parser
    gets one coded error instead of a traceback or an ``internal``
    answer.  Making those stages stack safe is the real fix.
    """
    try:
        yield
        return
    except RecursionError:
        pass
    # Raised outside the handler, so the error does not keep the
    # RecursionError's thousands of frames alive as its context.
    raise StackDepthError(
        "program too deep for inference, elaboration, type checking or "
        "evaluation (maximum recursion depth exceeded)"
    )


def compile_source(source: str) -> CompiledSource:
    """Parse and encode a source program into lambda_=> (Fig. 4)."""
    return compile_program(parse_program(source))


def run_source(
    source: str,
    *,
    resolver: Resolver | None = None,
    semantics: Semantics = Semantics.ELABORATE,
    verify: bool = False,
    stats: ResolutionStats | None = None,
) -> Any:
    """Parse, encode, type check and execute a source program."""
    compiled = compile_source(source)
    run = run_core(
        compiled.expr,
        signature=compiled.signature,
        resolver=resolver,
        semantics=semantics,
        verify=verify,
        stats=stats,
    )
    return run.value


def run_source_full(
    source: str,
    *,
    resolver: Resolver | None = None,
    semantics: Semantics = Semantics.ELABORATE,
    verify: bool = True,
    stats: ResolutionStats | None = None,
) -> tuple[CompiledSource, CoreRun]:
    """Like :func:`run_source` but returning all intermediate artifacts."""
    compiled = compile_source(source)
    run = run_core(
        compiled.expr,
        signature=compiled.signature,
        resolver=resolver,
        semantics=semantics,
        verify=verify,
        stats=stats,
    )
    return compiled, run
