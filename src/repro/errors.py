"""Exception hierarchy for the implicit-calculus reproduction.

The paper distinguishes several classes of ill-behaved programs (extended
report, section "Runtime Errors and Coherence Failures"):

* *lookup failures* -- a query has no matching rule, or several matching
  rules within the same rule set (overlap);
* *ambiguous instantiations* -- a rule type quantifies a variable that does
  not occur in its head, so resolution cannot determine the instantiation;
* *coherence failures* -- the lexically nearest match is not unique, or
  differs between static resolution and runtime instantiation;
* *divergence* -- recursive resolution that never terminates.

Each class maps to a dedicated exception so that callers (type checker,
resolution engine, interpreters, source-language front end) can signal
precisely which well-formedness condition a program violates.

Every class additionally carries a **stable diagnostic code** (its
``code`` class attribute) and an optional source :class:`~repro.span.Span`
(``span`` keyword argument / attribute), so errors surface identically
through exceptions, the CLI and the ``repro lint`` static pass.  The code
bands follow ``docs/DIAGNOSTICS.md``:

========  ==========================================================
IC01xx    lexing / parsing
IC02xx    typing (core, source, System F, kinds, plain resolution)
IC03xx    overlap and coherence (sections 3.3-3.4)
IC04xx    termination, ambiguity and resolution budgets
IC05xx    style warnings (emitted only by ``repro lint``)
IC06xx    persistence (the on-disk derivation store, ``repro cache``)
========  ==========================================================

The full catalogue -- including the lint-only IC05xx codes that have no
exception class -- lives in :mod:`repro.diagnostics.codes`, and
``tests/docs`` asserts it stays in lockstep with ``docs/DIAGNOSTICS.md``.
"""

from __future__ import annotations

from .span import Span


class ImplicitCalculusError(Exception):
    """Base class for every error raised by this library.

    ``code`` is the stable diagnostic code of the class (see
    ``docs/DIAGNOSTICS.md``); ``span`` is the source range the error
    points at, when the raiser knows one (front-end errors do, checks on
    hand-built core terms usually do not).
    """

    code: str = "IC0001"

    def __init__(self, *args: object, span: Span | None = None):
        super().__init__(*args)
        self.span = span


class TypecheckError(ImplicitCalculusError):
    """A static typing judgment of the core calculus failed."""

    code = "IC0201"


class ResolutionError(TypecheckError):
    """Resolution ``Delta |-r rho`` failed."""

    code = "IC0208"


class NoMatchingRuleError(ResolutionError):
    """Lookup found no rule whose head matches the queried type."""

    code = "IC0207"


class OverlappingRulesError(ResolutionError):
    """Lookup found several matching rules in one rule set (``no_overlap``)."""

    code = "IC0301"


class AmbiguousRuleTypeError(TypecheckError):
    """A rule type violates the ``unambiguous`` condition of Fig. 1.

    A quantified type variable does not occur in the rule head, e.g.
    ``forall a. {a} => Int``, so instantiations of ``a`` are unobservable
    and resolution would be ambiguous.
    """

    code = "IC0402"


class ResolutionDivergenceError(ResolutionError):
    """Recursive resolution exceeded its fuel (dynamic divergence guard)."""

    code = "IC0403"


class DeadlineExceededError(ResolutionError):
    """Resolution exceeded its wall-clock deadline.

    Raised by :class:`~repro.core.resolution.Resolver` when a deadline is
    attached (the resolution server maps per-request deadlines onto the
    fuel loop; see ``docs/SERVICE.md``).  Like divergence, the outcome is
    a property of the *budget*, not the query, so it is never cached and
    always propagates -- even through the backtracking strategy.
    """

    code = "IC0404"


class StackDepthError(ImplicitCalculusError):
    """A program too deep for the recursive stages after the parser.

    Inference, elaboration, both type checkers and evaluation recurse on
    the syntax tree, so a long flat sequence (thousands of ``+``
    operands or ``def`` lines) is as deep for them as thousands of
    nesting levels.  The parsers cap nesting themselves (IC0102); past
    them, :func:`repro.pipeline.stack_depth_errors` reports the
    interpreter's ``RecursionError`` as this error.
    """

    code = "IC0405"


class TerminationError(ImplicitCalculusError):
    """A rule violates the static termination conditions of the appendix."""

    code = "IC0401"


class CoherenceError(TypecheckError):
    """A program violates a coherence condition (companion material)."""

    code = "IC0302"


class UnificationError(ImplicitCalculusError):
    """One-way matching unification failed (internal signalling)."""

    code = "IC0205"


class ParseError(ImplicitCalculusError):
    """Concrete syntax could not be parsed."""

    code = "IC0102"

    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: int | None = None,
        span: Span | None = None,
    ):
        if span is None and line is not None:
            span = Span.point(line, 1 if column is None else column)
        location = "" if line is None else f" at {line}:{column}"
        super().__init__(f"{message}{location}", span=span)
        self.line = line
        self.column = column


class LexError(ParseError):
    """The lexer hit an unterminated literal or a stray character.

    Always carries a line/column (regression: lexer errors used to be
    reported by raw character offset only).
    """

    code = "IC0101"


class EvalError(ImplicitCalculusError):
    """A runtime error in one of the evaluators (should not occur for

    programs accepted by the static semantics; exercised by tests that
    bypass type checking).
    """

    code = "IC0206"


class SystemFTypeError(ImplicitCalculusError):
    """The System F target term failed to type check."""

    code = "IC0203"


class SourceTypeError(ImplicitCalculusError):
    """The source-language front end rejected a program."""

    code = "IC0202"


class StoreError(ImplicitCalculusError):
    """The persistent derivation store failed (I/O, format, lifecycle).

    Base class of the IC06xx band; see ``docs/PERSISTENCE.md``.  Note
    the asymmetry with corruption *inside* the log: torn tails and
    CRC-failed records are quarantined and never raise (the store
    degrades to a smaller cache), while structural problems -- a
    foreign file, an incompatible schema, a concurrent writer -- refuse
    loudly with a subclass of this error.
    """

    code = "IC0601"


class StoreSchemaError(StoreError):
    """The store header does not match the supported schema version.

    Raised on open when the log was written by an incompatible code
    version (or is not a derivation store at all).  The store refuses
    to load rather than guess; ``repro cache clear`` rebuilds it.
    """

    code = "IC0602"


class StoreLockedError(StoreError):
    """Another live process holds the store's single-writer lock.

    Retryable: ``backoff_ms`` suggests how long to wait before
    retrying.  Stale locks (dead holder pid) are stolen automatically,
    so this only fires while the holder is actually alive.
    """

    code = "IC0603"

    def __init__(self, *args: object, backoff_ms: int = 100, span: Span | None = None):
        super().__init__(*args, span=span)
        self.backoff_ms = backoff_ms


class StoreCorruptionError(StoreError):
    """A store record decoded to garbage while verification was bypassed.

    Never raised in normal operation -- CRC-failed records are
    quarantined silently -- but surfaced by ``repro cache verify``
    reporting and by the fuzz harness's fault arm, which disables CRC
    checking precisely to prove that garbled records *would* be served
    without it.
    """

    code = "IC0604"
