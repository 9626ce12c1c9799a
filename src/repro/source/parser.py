"""Recursive-descent parser for the source language.

Concrete syntax (after Fig. 3 of the paper, in ASCII)::

    program    ::= interface* expr
    interface  ::= 'interface' UIdent lident* '=' '{' field (',' field)* '}' ';'?
    field      ::= lident ':' scheme

    scheme     ::= ['forall' lident+ '.'] ['{' scheme (',' scheme)* '}' '=>'] type
    type       ::= btype ['->' type]
    btype      ::= UIdent atype* | atype
    atype      ::= UIdent | lident | '[' type ']'
                 | '(' scheme ')' | '(' type ',' type ')'

    expr       ::= 'let' lident ':' scheme '=' expr 'in' expr
                 | 'implicit' names 'in' expr
                 | '\\' lident+ '.' expr
                 | 'if' expr 'then' expr 'else' expr
                 | opexpr
    names      ::= lident | '{' lident (',' lident)* '}'
    opexpr     ::= standard precedence climbing over
                   '||' < '&&' < ('==' '<' '<=') < '++' < ('+' '-') < '*' < app
    app        ::= atom atom*
    atom       ::= INT | STRING | 'True' | 'False' | lident | '?'
                 | '(' expr ')' | '(' expr ',' expr ')' | '[' expr,* ']'
                 | UIdent '{' lident '=' expr, ... '}'       (interface impl)

Binary operators are parsed by one precedence-climbing loop and desugar
to prelude primitives (``+`` to ``add``, ``==``
to ``primEqInt``, ``++`` to ``concat``, ...); they are ordinary functions
and can be shadowed by ``let``.  Comments are ``-- ...``.

Nesting is capped: every bracket, parenthesis, record or context brace,
lambda, ``let``, ``implicit`` and ``if`` opens one level, and more than
:data:`MAX_NESTING` open levels is a parse error (IC0102) at the opening
token, not a ``RecursionError`` in some later stage.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Callable

from ..core.terms import InterfaceDecl
from ..core.types import TCon, TFun, TVar, Type, list_of, pair, rule
from ..errors import ParseError
from ..span import Span
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
    with_span,
)
from .lexer import Token, TokenStream, tokenize

#: operator -> (prelude function, precedence).  Higher binds tighter.
BINARY_OPERATORS: dict[str, tuple[str, int]] = {
    "||": ("or", 1),
    "&&": ("and", 2),
    "==": ("primEqInt", 3),
    "<": ("ltInt", 3),
    "<=": ("leqInt", 3),
    "++": ("concat", 4),
    "+": ("add", 5),
    "-": ("sub", 5),
    "*": ("mul", 6),
}

#: Deepest syntactic nesting accepted (docs/DIAGNOSTICS.md, IC0102).
#: Large enough for every program the recursive stages can run at the
#: interpreter's default recursion limit (up to 493 nested ``if``s), and
#: small enough that every program at the cap runs end to end.
MAX_NESTING = 512
#: Each nesting level costs a handful of Python frames in each later
#: stage (at most 5, for parentheses); make sure the cap fires before the
#: interpreter's recursion limit does.  This is the limit
#: ``Resolver.resolve`` sets for its default fuel (also 512), so the two
#: never move it back and forth.
_RECURSION_LIMIT = MAX_NESTING * 12 + 1000


def token_stream(source: str) -> TokenStream:
    """Tokenize ``source`` for either parser (raising the recursion limit
    to cover :data:`MAX_NESTING`)."""
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    return TokenStream(tokenize(source))


def _enter(stream: TokenStream, opener: Token) -> None:
    """Open one nesting level at ``opener`` (closed by ``depth -= 1``)."""
    stream.depth += 1
    if stream.depth > MAX_NESTING:
        raise ParseError(
            f"nesting deeper than {MAX_NESTING} levels",
            opener.line,
            opener.column,
            span=opener.span(),
        )


def parse_program(source: str) -> SProgram:
    """Parse a complete source program.

    A program is interface declarations, then top-level definitions, then
    a main expression.  ``def u [: sigma] = E;`` is sugar for a ``let``
    wrapped around everything that follows::

        def inc : Int -> Int = \\n . n + 1;
        inc 41

    parses as ``let inc : Int -> Int = \\n . n + 1 in inc 41``.
    """
    stream = token_stream(source)
    interfaces: list[InterfaceDecl] = []
    while stream.at_keyword("interface"):
        interfaces.append(_parse_interface(stream))
    definitions: list[tuple[str, Type | None, SExpr, Span, Span | None]] = []
    while stream.at_keyword("def"):
        definitions.append(_parse_definition(stream))
    body = _parse_expr(stream)
    if stream.current.kind != "EOF":
        raise stream.error("unexpected trailing input")
    for name, scheme, bound, span, scheme_span in reversed(definitions):
        body = SLet(name, scheme, bound, body, span=span, scheme_span=scheme_span)
    return SProgram(tuple(interfaces), body)


def _parse_definition(
    stream: TokenStream,
) -> tuple[str, Type | None, SExpr, Span, Span | None]:
    start = stream.current
    stream.eat_keyword("def")
    name = stream.eat("LIDENT").text
    scheme = None
    scheme_span = None
    if stream.try_symbol(":"):
        scheme_start = stream.current
        scheme = _parse_scheme(stream)
        scheme_span = stream.span_from(scheme_start)
    stream.eat_symbol("=")
    bound = _parse_expr(stream)
    stream.eat_symbol(";")
    return name, scheme, bound, stream.span_from(start), scheme_span


def parse_expr(source: str) -> SExpr:
    """Parse a bare source expression (no interface declarations)."""
    stream = token_stream(source)
    body = _parse_expr(stream)
    if stream.current.kind != "EOF":
        raise stream.error("unexpected trailing input")
    return body


def parse_scheme(source: str) -> Type:
    """Parse a type scheme (used by tests and the REPL helpers)."""
    stream = token_stream(source)
    scheme = _parse_scheme(stream)
    if stream.current.kind != "EOF":
        raise stream.error("unexpected trailing input")
    return scheme


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


def _parse_interface(stream: TokenStream) -> InterfaceDecl:
    start = stream.current
    stream.eat_keyword("interface")
    name = stream.eat("UIDENT").text
    tvars: list[str] = []
    while stream.current.kind == "LIDENT":
        tvars.append(stream.advance().text)
    stream.eat_symbol("=")
    stream.eat_symbol("{")
    fields: list[tuple[str, Type]] = []
    while True:
        field_name = stream.eat("LIDENT").text
        stream.eat_symbol(":")
        fields.append((field_name, _parse_scheme(stream)))
        if not stream.try_symbol(","):
            break
    stream.eat_symbol("}")
    stream.try_symbol(";")
    return InterfaceDecl(
        name, tuple(tvars), tuple(fields), span=stream.span_from(start)
    )


# ---------------------------------------------------------------------------
# Types and schemes
# ---------------------------------------------------------------------------


def _parse_scheme(stream: TokenStream) -> Type:
    tvars: list[str] = []
    if stream.at_keyword("forall"):
        stream.advance()
        while stream.current.kind == "LIDENT":
            token = stream.advance()
            if token.text in tvars:
                raise ParseError(
                    f"duplicate quantified variable {token.text!r}",
                    token.line,
                    token.column,
                    span=token.span(),
                )
            tvars.append(token.text)
        stream.eat_symbol(".")
    context: list[Type] = []
    if stream.at_symbol("{") and _brace_is_context(stream):
        _enter(stream, stream.advance())
        if not stream.at_symbol("}"):
            while True:
                context.append(_parse_scheme(stream))
                if not stream.try_symbol(","):
                    break
        stream.eat_symbol("}")
        stream.eat_symbol("=>")
        stream.depth -= 1
    body = _parse_type(stream)
    return rule(body, tuple(context), tuple(tvars))


def _brace_is_context(stream: TokenStream) -> bool:
    """Disambiguate a context ``{...} =>`` by scanning to the brace mate."""
    depth = 0
    offset = 0
    while True:
        token = stream.peek(offset)
        if token.kind == "EOF":
            return False
        if token.kind == "SYMBOL" and token.text == "{":
            depth += 1
        elif token.kind == "SYMBOL" and token.text == "}":
            depth -= 1
            if depth == 0:
                after = stream.peek(offset + 1)
                return after.kind == "SYMBOL" and after.text == "=>"
        offset += 1


def _parse_type(stream: TokenStream) -> Type:
    parts = [_parse_btype(stream)]
    while stream.try_symbol("->"):
        parts.append(_parse_btype(stream))
    result = parts.pop()
    while parts:
        result = TFun(parts.pop(), result)
    return result


def _parse_btype(stream: TokenStream) -> Type:
    if stream.current.kind == "UIDENT":
        name = stream.advance().text
        args: list[Type] = []
        while _at_atype(stream):
            args.append(_parse_atype(stream))
        return TCon(name, tuple(args))
    return _parse_atype(stream)


def _at_atype(stream: TokenStream) -> bool:
    token = stream.current
    if token.kind in ("UIDENT", "LIDENT"):
        return True
    return token.kind == "SYMBOL" and token.text in ("(", "[")


def _parse_atype(stream: TokenStream) -> Type:
    token = stream.current
    if token.kind == "UIDENT":
        stream.advance()
        return TCon(token.text)
    if token.kind == "LIDENT":
        stream.advance()
        return TVar(token.text)
    if stream.at_symbol("["):
        _enter(stream, stream.advance())
        inner = list_of(_parse_type(stream))
        stream.eat_symbol("]")
    elif stream.at_symbol("("):
        _enter(stream, stream.advance())
        inner = _parse_scheme(stream)
        if stream.try_symbol(","):
            inner = pair(inner, _parse_type(stream))
        stream.eat_symbol(")")
    else:
        raise stream.error("expected a type")
    stream.depth -= 1
    return inner


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _parse_expr(stream: TokenStream) -> SExpr:
    # A right-nested chain of binders (``\\x . let y = e in implicit z in
    # ...``) is parsed in this loop; each binder is then wrapped round the
    # body, and every binder's span ends where the body does.
    binders: list[tuple[Token, Callable[..., SExpr]]] = []
    while True:
        start = stream.current
        if start.kind == "KEYWORD" and start.text == "let":
            _enter(stream, stream.advance())
            name = stream.eat("LIDENT").text
            scheme = None
            scheme_span = None
            if stream.try_symbol(":"):
                scheme_start = stream.current
                scheme = _parse_scheme(stream)
                scheme_span = stream.span_from(scheme_start)
            stream.eat_symbol("=")
            bound = _parse_expr(stream)
            stream.eat_keyword("in")
            wrap = partial(SLet, name, scheme, bound, scheme_span=scheme_span)
        elif start.kind == "KEYWORD" and start.text == "implicit":
            _enter(stream, stream.advance())
            names: list[str] = []
            name_spans: list[Span] = []
            braced = stream.try_symbol("{")
            while True:
                token = stream.eat("LIDENT")
                names.append(token.text)
                name_spans.append(token.span())
                if not (braced and stream.try_symbol(",")):
                    break
            if braced:
                stream.eat_symbol("}")
            stream.eat_keyword("in")
            wrap = partial(SImplicit, tuple(names), name_spans=tuple(name_spans))
        elif start.kind == "SYMBOL" and start.text == "\\":
            _enter(stream, stream.advance())
            params: list[str] = [stream.eat("LIDENT").text]
            while stream.current.kind == "LIDENT":
                params.append(stream.advance().text)
            stream.eat_symbol(".")
            wrap = partial(SLam, tuple(params))
        else:
            break
        binders.append((start, wrap))
    # ``start`` is now the body's first token.
    if start.kind == "KEYWORD" and start.text == "if":
        _enter(stream, stream.advance())
        cond = _parse_expr(stream)
        stream.eat_keyword("then")
        then = _parse_expr(stream)
        stream.eat_keyword("else")
        orelse = _parse_expr(stream)
        body = SIf(cond, then, orelse, span=stream.span_from(start))
        stream.depth -= 1
    else:
        body = _parse_operators(stream, 1)
    if binders:
        end = stream.last.span()
        for start, wrap in reversed(binders):
            body = wrap(body, span=start.span().merge(end))
        stream.depth -= len(binders)
    return body


def _parse_operators(stream: TokenStream, min_precedence: int) -> SExpr:
    """Precedence climbing: operators binding at least ``min_precedence``
    (all binary operators are left-associative)."""
    start = stream.current
    left = _parse_application(stream)
    while True:
        token = stream.current
        spec = BINARY_OPERATORS.get(token.text) if token.kind == "SYMBOL" else None
        if spec is None or spec[1] < min_precedence:
            return left
        stream.advance()
        op_span = token.span()
        right = _parse_operators(stream, spec[1] + 1)
        left = SApp(
            with_span(SApp(with_span(SVar(spec[0]), op_span), left), op_span),
            right,
            span=stream.span_from(start),
        )


def _parse_application(stream: TokenStream) -> SExpr:
    start = stream.current
    expr = _parse_atom(stream)
    while _at_atom(stream):
        expr = SApp(expr, _parse_atom(stream), span=stream.span_from(start))
    return expr


def _at_atom(stream: TokenStream) -> bool:
    token = stream.current
    if token.kind in ("INT", "STRING", "LIDENT", "UIDENT"):
        return True
    if token.kind == "KEYWORD" and token.text in ("True", "False"):
        return True
    return token.kind == "SYMBOL" and token.text in ("(", "[", "?")


def _parse_atom(stream: TokenStream) -> SExpr:
    token = stream.current
    if token.kind == "INT":
        stream.advance()
        return SIntLit(int(token.text), span=token.span())
    if token.kind == "STRING":
        stream.advance()
        return SStrLit(token.text, span=token.span())
    if stream.at_keyword("True"):
        stream.advance()
        return SBoolLit(True, span=token.span())
    if stream.at_keyword("False"):
        stream.advance()
        return SBoolLit(False, span=token.span())
    if token.kind == "LIDENT":
        stream.advance()
        return SVar(token.text, span=token.span())
    if token.kind == "UIDENT":
        return _parse_record(stream)
    if stream.try_symbol("?"):
        return SQuery(span=token.span())
    if stream.at_symbol("("):
        _enter(stream, stream.advance())
        expr = _parse_expr(stream)
        if stream.try_symbol(","):
            second = _parse_expr(stream)
            stream.eat_symbol(")")
            expr = SPair(expr, second, span=stream.span_from(token))
        else:
            stream.eat_symbol(")")
    elif stream.at_symbol("["):
        _enter(stream, stream.advance())
        elems: list[SExpr] = []
        if not stream.at_symbol("]"):
            while True:
                elems.append(_parse_expr(stream))
                if not stream.try_symbol(","):
                    break
        stream.eat_symbol("]")
        expr = SList(tuple(elems), span=stream.span_from(token))
    else:
        raise stream.error("expected an expression")
    stream.depth -= 1
    return expr


def _parse_record(stream: TokenStream) -> SExpr:
    start = stream.current
    iface = stream.eat("UIDENT").text
    _enter(stream, stream.eat_symbol("{"))
    fields: list[tuple[str, SExpr]] = []
    while True:
        name = stream.eat("LIDENT").text
        stream.eat_symbol("=")
        fields.append((name, _parse_expr(stream)))
        if not stream.try_symbol(","):
            break
    stream.eat_symbol("}")
    stream.depth -= 1
    return SRecord(iface, tuple(fields), span=stream.span_from(start))
