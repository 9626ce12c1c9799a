"""The static diagnostics pass: collect-don't-raise well-formedness lint.

The paper's pitch is *predictable* implicit resolution; its sections
3.3-3.4 well-formedness conditions (termination, no-overlap,
unambiguity, coherence) are exactly the properties a front end should
report statically, before a query ever runs.  The runtime pipeline
enforces them by **raising** at the first violation; this module walks a
parsed program **without executing it** and reports *every* violation it
can find, as :class:`~repro.diagnostics.diagnostic.Diagnostic` records
with stable codes and source spans.

Two layers of analysis:

* **Syntactic** (always on): per-construct checks that need no type
  inference -- annotation unambiguity (IC0402), termination of rules
  made implicit (IC0401), static overlap within one ``implicit`` set
  (IC0301), unbound names and unknown interfaces (IC0202), plus the
  IC05xx style lints (unused / shadowed / duplicated implicit rules).
  These carry precise spans and all of them are reported in one pass.
* **Semantic** (``check_semantic=True``, the default): when the
  syntactic layer found no errors, the program is additionally pushed
  through inference and the Fig. 1 type checker in a ``try``; the first
  exception -- resolution failure, incoherence under
  ``strict_coherence``, divergence, ... -- is converted into one more
  diagnostic via its :mod:`repro.errors` code.

The same checks are exposed at the core-calculus level
(:func:`lint_rules`, :func:`lint_env`) so the resolution service can
lint a warm session's rule stack without any source text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.coherence import _freshened_head, nonoverlap
from ..core.env import ImplicitEnv, OverlapPolicy
from ..core.pretty import pretty_type
from ..core.resolution import Resolver
from ..core.subst import fresh_tvar, subst_type
from ..core.terms import Signature
from ..core.termination import check_rule_termination
from ..core.typecheck import TypeChecker, unambiguous
from ..core.types import TVar, Type, canonical_key, ftv, promote
from ..core.unify import unifiable
from ..errors import (
    ImplicitCalculusError,
    ParseError,
    StackDepthError,
    TerminationError,
)
from ..span import Span
from .codes import severity_for
from .diagnostic import Diagnostic, Severity

__all__ = ["lint_source", "lint_program", "lint_rules", "lint_env", "Analyzer"]


def lint_source(
    text: str,
    *,
    policy: OverlapPolicy = OverlapPolicy.REJECT,
    check_semantic: bool = True,
    strict_coherence: bool = False,
) -> list[Diagnostic]:
    """Lint source text; parse failures become IC01xx diagnostics, and a
    program too deep for the recursive passes one IC0405 diagnostic."""
    from ..pipeline import stack_depth_errors
    from ..source.parser import parse_program

    try:
        program = parse_program(text)
    except ParseError as exc:
        return [_from_exception(exc)]
    try:
        with stack_depth_errors():
            return lint_program(
                program,
                policy=policy,
                check_semantic=check_semantic,
                strict_coherence=strict_coherence,
            )
    except StackDepthError as exc:
        return [_from_exception(exc)]


def lint_program(
    program,
    *,
    policy: OverlapPolicy = OverlapPolicy.REJECT,
    check_semantic: bool = True,
    strict_coherence: bool = False,
) -> list[Diagnostic]:
    """Lint a parsed :class:`~repro.source.ast.SProgram`."""
    analyzer = Analyzer(
        policy=policy,
        check_semantic=check_semantic,
        strict_coherence=strict_coherence,
    )
    return analyzer.lint_program(program)


# ---------------------------------------------------------------------------
# Core-calculus level: lint bare rule sets and environments.
# ---------------------------------------------------------------------------


def lint_rules(
    context: tuple[Type, ...] | list[Type],
    *,
    policy: OverlapPolicy = OverlapPolicy.REJECT,
    where: str = "rule set",
) -> list[Diagnostic]:
    """Static checks over one rule set (no spans: core types carry none).

    Reports unambiguity (IC0402), termination (IC0401) and static
    overlap (IC0301) for every rule -- the checks ``implicit`` performs
    on source programs, usable on e.g. a service session frame.
    """
    out: list[Diagnostic] = []
    rules = tuple(context)
    for rho in rules:
        if not unambiguous(rho):
            out.append(
                _make(
                    "IC0402",
                    f"rule {pretty_type(rho)} in {where} is ambiguous: a "
                    "quantified variable does not occur in the rule head",
                )
            )
        try:
            check_rule_termination(rho)
        except TerminationError as exc:
            out.append(_make("IC0401", f"{where}: {exc}"))
    out.extend(_overlap_pairs(rules, policy, where))
    return out


def lint_env(
    env: ImplicitEnv, *, policy: OverlapPolicy = OverlapPolicy.REJECT
) -> list[Diagnostic]:
    """Lint every frame of an implicit environment, innermost first.

    Frame 0 is the innermost rule set (matching the scope numbering of
    :func:`repro.core.explain.explain_failure`).  Alpha-equal rule
    types recurring in an inner frame additionally get the IC0502
    shadowing lint, since the outer occurrence can never win.
    """
    out: list[Diagnostic] = []
    frames = tuple(reversed(env.frames()))
    seen_outer: dict[tuple, int] = {}
    for depth in range(len(frames) - 1, -1, -1):
        rhos = tuple(entry.rho for entry in frames[depth])
        out.extend(lint_rules(rhos, policy=policy, where=f"scope {depth}"))
        for rho in rhos:
            key = canonical_key(rho)
            outer_depth = seen_outer.get(key)
            if outer_depth is not None:
                out.append(
                    _make(
                        "IC0502",
                        f"rule {pretty_type(rho)} in scope {depth} shadows "
                        f"the identical rule in enclosing scope {outer_depth}",
                    )
                )
            else:
                seen_outer[key] = depth
    return out


# ---------------------------------------------------------------------------
# Internals.
# ---------------------------------------------------------------------------


def _make(code: str, message: str, span: Span | None = None) -> Diagnostic:
    return Diagnostic(code, severity_for(code), message, span)


def _from_exception(exc: ImplicitCalculusError) -> Diagnostic:
    message = " ".join(str(exc).split())
    return Diagnostic(exc.code, severity_for(exc.code), message, exc.span)


def _overlap_pairs(
    rules: tuple[Type, ...],
    policy: OverlapPolicy,
    where: str,
    spans: tuple[Span | None, ...] | None = None,
    names: tuple[str, ...] | None = None,
) -> list[Diagnostic]:
    """Pairwise static overlap within one rule set.

    Under ``REJECT`` (the paper's ``no_overlap``) any two rules whose
    heads can be unified violate well-formedness.  Under
    ``MOST_SPECIFIC`` overlap is the point; only pairs with no unique
    most-specific winner at their meet are reported (the companion's
    *existence of a most specific rule* condition).
    """
    from ..core.coherence import has_most_specific

    out: list[Diagnostic] = []
    for j in range(len(rules)):
        for i in range(j):
            if nonoverlap(rules[i], rules[j]):
                continue
            if policy is OverlapPolicy.MOST_SPECIFIC and has_most_specific(
                (rules[i], rules[j])
            ):
                continue
            if names:
                left = f"{names[i]} ({pretty_type(rules[i])})"
                right = f"{names[j]} ({pretty_type(rules[j])})"
            else:
                left = pretty_type(rules[i])
                right = pretty_type(rules[j])
            qualifier = (
                "" if policy is OverlapPolicy.REJECT else " with no most-specific winner"
            )
            out.append(
                _make(
                    "IC0301",
                    f"{where}: rules {left} and {right} overlap{qualifier}: "
                    "both heads can match one query",
                    spans[j] if spans else None,
                )
            )
    return out


def _flex_unifiable(head_a: Type, head_b: Type) -> bool:
    """Two-way unifiability with *every* free variable flexible."""
    return unifiable(_freshen_all(head_a), _freshen_all(head_b))


def _freshen_all(tau: Type) -> Type:
    renaming = {
        name: TVar(fresh_tvar(name.split("%")[0].lstrip("?") or "d"))
        for name in ftv(tau)
    }
    return subst_type(renaming, tau)


@dataclass
class _ImplicitFrame:
    """One enclosing ``implicit`` scope, for shadow/unused bookkeeping."""

    #: (name, scheme, span) per rule brought into scope.
    rules: list[tuple[str, Type, Span | None]] = field(default_factory=list)


class Analyzer:
    """One lint run over one program (holds the finding list)."""

    def __init__(
        self,
        *,
        policy: OverlapPolicy = OverlapPolicy.REJECT,
        check_semantic: bool = True,
        strict_coherence: bool = False,
    ):
        self.policy = policy
        self.check_semantic = check_semantic
        self.strict_coherence = strict_coherence
        self.diagnostics: list[Diagnostic] = []

    # -- public entry ------------------------------------------------------

    def lint_program(self, program) -> list[Diagnostic]:
        from ..source.infer import selector_bindings
        from ..source.prelude import Binding, Origin, prelude

        env: dict[str, Type | None] = {
            name: binding.scheme for name, binding in prelude().items()
        }
        signature = self._check_interfaces(program)
        for fname, scheme, _ in selector_bindings(signature):
            if fname in env:
                self._report(
                    "IC0202",
                    f"interface field {fname!r} collides with a primitive name",
                    _interface_span(program, fname),
                )
            env[fname] = scheme
        self._walk(program.body, env, [])
        if self.check_semantic and not self._has_errors():
            self._semantic_pass(program)
        self.diagnostics.sort(key=Diagnostic.sort_key)
        return self.diagnostics

    # -- interfaces --------------------------------------------------------

    def _check_interfaces(self, program) -> Signature:
        signature = Signature()
        for decl in program.interfaces:
            if signature.get(decl.name) is not None:
                self._report(
                    "IC0202",
                    f"duplicate interface declaration {decl.name!r}",
                    decl.span,
                )
                continue
            signature.add(decl)
        return signature

    # -- expression walk ---------------------------------------------------

    def _walk(
        self,
        e,
        env: dict[str, Type | None],
        implicit_stack: list[_ImplicitFrame],
    ) -> None:
        from ..source.ast import (
            SApp,
            SIf,
            SImplicit,
            SLam,
            SLet,
            SList,
            SPair,
            SRecord,
            SVar,
        )

        if isinstance(e, SVar):
            if e.name not in env:
                self._report("IC0202", f"unbound variable {e.name!r}", e.span)
            return
        if isinstance(e, SLam):
            inner = dict(env)
            for param in e.params:
                inner[param] = None
            self._walk(e.body, inner, implicit_stack)
            return
        if isinstance(e, SLet):
            if e.scheme is not None and not unambiguous(e.scheme):
                self._report(
                    "IC0402",
                    f"annotation {pretty_type(e.scheme)} for {e.name!r} is "
                    "ambiguous: a quantified variable does not occur in the "
                    "rule head",
                    e.scheme_span or e.span,
                )
            self._walk(e.bound, env, implicit_stack)
            inner = dict(env)
            inner[e.name] = e.scheme
            self._walk(e.body, inner, implicit_stack)
            return
        if isinstance(e, SImplicit):
            self._check_implicit(e, env, implicit_stack)
            return
        if isinstance(e, SRecord):
            for _, fexpr in e.fields:
                self._walk(fexpr, env, implicit_stack)
            return
        if isinstance(e, (SApp, SIf, SPair, SList)):
            for child in _children(e):
                self._walk(child, env, implicit_stack)
            return
        # Literals and queries: nothing to check syntactically.

    def _check_implicit(
        self,
        e,
        env: dict[str, Type | None],
        implicit_stack: list[_ImplicitFrame],
    ) -> None:
        spans = e.name_spans or (None,) * len(e.names)
        frame = _ImplicitFrame()
        seen: dict[str, int] = {}
        known_rules: list[tuple[str, Type, Span | None]] = []
        for position, (name, span) in enumerate(zip(e.names, spans)):
            if name in seen:
                self._report(
                    "IC0503",
                    f"implicit set names {name!r} twice; the second "
                    "occurrence is redundant",
                    span,
                )
                continue
            seen[name] = position
            if name not in env:
                self._report(
                    "IC0202",
                    f"implicit names an unbound variable {name!r}",
                    span,
                )
                continue
            scheme = env[name]
            if scheme is None:
                continue  # lambda-bound or inferred: scheme unknown statically
            known_rules.append((name, scheme, span))
            frame.rules.append((name, scheme, span))
            try:
                check_rule_termination(scheme)
            except TerminationError:
                _, context, head = promote(scheme)
                self._report(
                    "IC0401",
                    f"rule {name} : {pretty_type(scheme)} violates the "
                    "termination conditions: a context head is not strictly "
                    f"smaller than the rule head {pretty_type(head)} (recursive "
                    "resolution through this rule may diverge)",
                    span,
                )
            self._check_shadowing(name, scheme, span, implicit_stack)
        self.diagnostics.extend(
            _overlap_pairs(
                tuple(scheme for _, scheme, _ in known_rules),
                self.policy,
                "implicit rule set",
                spans=tuple(span for _, _, span in known_rules),
                names=tuple(name for name, _, _ in known_rules),
            )
        )
        self._walk(e.body, env, implicit_stack + [frame])
        self._check_unused(known_rules, e.body, env)

    def _check_shadowing(
        self,
        name: str,
        scheme: Type,
        span: Span | None,
        implicit_stack: list[_ImplicitFrame],
    ) -> None:
        key = canonical_key(scheme)
        for outer in reversed(implicit_stack):
            for outer_name, outer_scheme, _ in outer.rules:
                if canonical_key(outer_scheme) == key:
                    self._report(
                        "IC0502",
                        f"implicit rule {name} : {pretty_type(scheme)} shadows "
                        f"{outer_name} from an enclosing implicit scope "
                        "(the nearer rule always wins here)",
                        span,
                    )
                    return

    def _check_unused(
        self,
        rules: list[tuple[str, Type, Span | None]],
        body,
        env: dict[str, Type | None],
    ) -> None:
        """IC0501: a rule no query in the body could ever select.

        Conservative: demands are the types of explicit ``?`` queries
        (unknown until inference, so they count as matching anything)
        plus the instantiated context heads of every context-carrying
        let-bound variable used in the body.  A rule is only flagged
        when *no* demand could unify with its head.
        """
        has_wildcard, demands = _collect_demands(body, env)
        if has_wildcard:
            return
        for name, scheme, span in rules:
            head = _freshened_head(scheme)
            if any(_flex_unifiable(head, demand) for demand in demands):
                continue
            self._report(
                "IC0501",
                f"implicit rule {name} : {pretty_type(scheme)} is unused: "
                "no query in its scope can match its head",
                span,
            )

    # -- semantic layer ----------------------------------------------------

    def _semantic_pass(self, program) -> None:
        """Push the program through inference + Fig. 1 type checking.

        Only runs when the syntactic layer is clean, and contributes at
        most one diagnostic (the pipeline raises at its first failure);
        codes already reported are skipped so findings never duplicate.
        """
        from ..source.infer import compile_program

        try:
            compiled = compile_program(program)
            checker = TypeChecker(
                signature=compiled.signature,
                resolver=Resolver(policy=self.policy),
                strict_coherence=self.strict_coherence,
            )
            checker.check_program(compiled.expr)
        except ImplicitCalculusError as exc:
            if any(d.code == exc.code for d in self.diagnostics):
                return
            self.diagnostics.append(_from_exception(exc))

    # -- helpers -----------------------------------------------------------

    def _report(self, code: str, message: str, span: Span | None = None) -> None:
        self.diagnostics.append(_make(code, message, span))

    def _has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)


def _children(e) -> tuple:
    """Direct sub-expressions of a source AST node."""
    from ..source.ast import SExpr

    out = []
    for name in e.__dataclass_fields__:
        value = getattr(e, name)
        if isinstance(value, SExpr):
            out.append(value)
        elif isinstance(value, tuple):
            out.extend(v for v in value if isinstance(v, SExpr))
    return tuple(out)


def _collect_demands(
    body, env: dict[str, Type | None]
) -> tuple[bool, list[Type]]:
    """What the body may ask the implicit environment for.

    Returns ``(has_wildcard, heads)``: ``has_wildcard`` is True when the
    body contains a bare ``?`` (its type is unknown until inference, so
    it may demand anything); ``heads`` are the context heads of every
    context-carrying binding used under the body (with all variables
    flexible, since uses instantiate them freely).
    """
    from ..source.ast import SExpr, SLet, SQuery, SVar

    schemes: dict[str, Type | None] = dict(env)
    has_wildcard = False
    demands: list[Type] = []

    def walk(e, local: dict[str, Type | None]) -> None:
        nonlocal has_wildcard
        if isinstance(e, SQuery):
            has_wildcard = True
            return
        if isinstance(e, SVar):
            scheme = local.get(e.name)
            if scheme is not None:
                _, context, _ = promote(scheme)
                for rho in context:
                    _, _, head = promote(rho)
                    demands.append(head)
            return
        if isinstance(e, SLet):
            walk(e.bound, local)
            inner = dict(local)
            inner[e.name] = e.scheme
            walk(e.body, inner)
            return
        for child in _children_any(e):
            walk(child, local)

    def _children_any(e) -> tuple:
        out = []
        for name in getattr(e, "__dataclass_fields__", ()):
            value = getattr(e, name)
            if isinstance(value, SExpr):
                out.append(value)
            elif isinstance(value, tuple):
                out.extend(v for v in value if isinstance(v, SExpr))
        return tuple(out)

    walk(body, schemes)
    return has_wildcard, demands


def _interface_span(program, field_name: str) -> Span | None:
    for decl in program.interfaces:
        if field_name in decl.field_names():
            return decl.span
    return None
