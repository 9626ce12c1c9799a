"""Concrete syntax for the core calculus lambda_=>.

While the source language (section 5) hides instantiation, core programs
spell everything out, mirroring the paper's notation in ASCII::

    rule({Int, Bool} => (Int, Bool), (?Int + 1, not ?Bool))
        with {1 : Int, True : Bool}

Grammar::

    expr     ::= '\\' lident ':' type '.' expr
               | 'if' expr 'then' expr 'else' expr
               | 'implicit' '{' binding,* '}' 'in' expr ':' type
               | opexpr
    opexpr   ::= precedence climbing over || && (== < <=) ++ (+ -) (*)
    wexpr    ::= appexpr ['with' '{' binding,* '}']*
    binding  ::= expr [':' scheme]
    appexpr  ::= postfix postfix*
    postfix  ::= atom ('[' type,* ']' | '.' lident)*
    atom     ::= INT | STRING | 'True' | 'False' | lident
               | '#' lident                                  (primitive)
               | '?' atype | '?' '(' scheme ')'               (query)
               | 'rule' '(' scheme ',' expr ')'               (rule abs)
               | UIdent '[' type,* ']' '{' lident '=' expr,* '}'  (record)
               | '(' expr ')' | '(' expr ',' expr ')' | '[' expr,* ']'

Types and schemes reuse the source-language type grammar (the two
languages share their type syntax by construction).  Bindings without an
annotation must be closed expressions; their rule type is inferred with
an empty environment, as in the paper's lightened notation.  Nesting is
capped as in the source parser (:data:`repro.source.parser.MAX_NESTING`).
"""

from __future__ import annotations

from ..errors import ParseError
from ..source.lexer import TokenStream
from ..source.parser import (
    BINARY_OPERATORS,
    _enter,
    _parse_atype,
    _parse_scheme,
    token_stream,
)
from .prims import PRIMS
from .terms import (
    App,
    BoolLit,
    Expr,
    If,
    IntLit,
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
from .types import RuleType, Type, rule


def parse_core_expr(source: str) -> Expr:
    """Parse a core-calculus expression."""
    stream = token_stream(source)
    expr = _parse_expr(stream)
    if stream.current.kind != "EOF":
        raise stream.error("unexpected trailing input")
    return expr


def parse_core_type(source: str) -> Type:
    """Parse a core-calculus type or rule type."""
    stream = token_stream(source)
    scheme = _parse_scheme(stream)
    if stream.current.kind != "EOF":
        raise stream.error("unexpected trailing input")
    return scheme


def _parse_expr(stream: TokenStream) -> Expr:
    if stream.at_symbol("\\"):
        _enter(stream, stream.advance())
        name = stream.eat("LIDENT").text
        stream.eat_symbol(":")
        var_type = _parse_scheme(stream)
        stream.eat_symbol(".")
        from .terms import Lam

        expr: Expr = Lam(name, var_type, _parse_expr(stream))
    elif stream.at_keyword("if"):
        _enter(stream, stream.advance())
        cond = _parse_expr(stream)
        stream.eat_keyword("then")
        then = _parse_expr(stream)
        stream.eat_keyword("else")
        orelse = _parse_expr(stream)
        expr = If(cond, then, orelse)
    elif stream.at_keyword("implicit"):
        _enter(stream, stream.advance())
        stream.eat_symbol("{")
        bindings = _parse_bindings(stream)
        stream.eat_symbol("}")
        stream.eat_keyword("in")
        body = _parse_expr(stream)
        stream.eat_symbol(":")
        result_type = _parse_scheme(stream)
        context = tuple(rho for _, rho in bindings)
        expr = RuleApp(RuleAbs(RuleType((), context, result_type), body), bindings)
    else:
        return _parse_operators(stream, 1)
    stream.depth -= 1
    return expr


def _parse_bindings(stream: TokenStream) -> tuple[tuple[Expr, Type], ...]:
    bindings: list[tuple[Expr, Type]] = []
    while True:
        expr = _parse_expr(stream)
        if stream.try_symbol(":"):
            rho = _parse_scheme(stream)
        else:
            rho = _infer_closed(expr, stream)
        bindings.append((expr, rho))
        if not stream.try_symbol(","):
            break
    return tuple(bindings)


def _infer_closed(expr: Expr, stream: TokenStream) -> Type:
    from ..errors import TypecheckError
    from .typecheck import TypeChecker

    try:
        return TypeChecker().check_program(expr)
    except TypecheckError as exc:
        raise ParseError(
            f"binding {expr} needs a type annotation ({exc})",
            stream.current.line,
            stream.current.column,
        ) from exc


def _parse_operators(stream: TokenStream, min_precedence: int) -> Expr:
    """Precedence climbing, as in the source parser."""
    left = _parse_with(stream)
    while True:
        token = stream.current
        spec = BINARY_OPERATORS.get(token.text) if token.kind == "SYMBOL" else None
        if spec is None or spec[1] < min_precedence:
            return left
        stream.advance()
        right = _parse_operators(stream, spec[1] + 1)
        left = App(App(Prim(spec[0]), left), right)


def _parse_with(stream: TokenStream) -> Expr:
    expr = _parse_application(stream)
    while stream.at_keyword("with"):
        stream.advance()
        stream.eat_symbol("{")
        bindings = _parse_bindings(stream)
        stream.eat_symbol("}")
        expr = RuleApp(expr, bindings)
    return expr


def _parse_application(stream: TokenStream) -> Expr:
    expr = _parse_postfix(stream)
    while _at_atom(stream):
        expr = App(expr, _parse_postfix(stream))
    return expr


def _bracket_starts_list_literal(stream: TokenStream) -> bool:
    """Disambiguate ``e[...]``: a bracket whose first token can only start

    an expression (a literal) is a list-literal *argument*, not a type
    application.  ``f [x]`` parses as type application; write ``f ([x])``
    to pass a list of variables."""
    after = stream.peek(1)
    if after.kind in ("INT", "STRING"):
        return True
    if after.kind == "KEYWORD" and after.text in ("True", "False"):
        return True
    if after.kind == "SYMBOL" and after.text == "]":
        return False  # `e[]` is malformed either way; let types report it
    return False


def _parse_postfix(stream: TokenStream) -> Expr:
    expr = _parse_atom(stream)
    while True:
        if stream.at_symbol("[") and not _bracket_starts_list_literal(stream):
            stream.advance()
            type_args: list[Type] = []
            while True:
                type_args.append(_parse_scheme(stream))
                if not stream.try_symbol(","):
                    break
            stream.eat_symbol("]")
            expr = TyApp(expr, tuple(type_args))
        elif stream.at_symbol(".") and stream.peek(1).kind == "LIDENT":
            stream.advance()
            expr = Project(expr, stream.advance().text)
        else:
            return expr


def _at_atom(stream: TokenStream) -> bool:
    token = stream.current
    if token.kind in ("INT", "STRING", "LIDENT", "UIDENT"):
        return True
    if token.kind == "KEYWORD" and token.text in ("True", "False", "rule"):
        return True
    return token.kind == "SYMBOL" and token.text in ("(", "[", "?", "#")


def _parse_atom(stream: TokenStream) -> Expr:
    token = stream.current
    if token.kind == "INT":
        stream.advance()
        return IntLit(int(token.text))
    if token.kind == "STRING":
        stream.advance()
        return StrLit(token.text)
    if stream.at_keyword("True"):
        stream.advance()
        return BoolLit(True)
    if stream.at_keyword("False"):
        stream.advance()
        return BoolLit(False)
    if stream.at_keyword("rule"):
        _enter(stream, stream.advance())
        stream.eat_symbol("(")
        rho = _parse_scheme(stream)
        stream.eat_symbol(",")
        body = _parse_expr(stream)
        stream.eat_symbol(")")
        stream.depth -= 1
        return RuleAbs(rho, body)
    if token.kind == "LIDENT":
        stream.advance()
        return Var(token.text)
    if stream.try_symbol("#"):
        name = stream.eat("LIDENT").text
        if name not in PRIMS:
            raise ParseError(f"unknown primitive #{name}", token.line, token.column)
        return Prim(name)
    if stream.try_symbol("?"):
        if stream.try_symbol("("):
            rho = _parse_scheme(stream)
            stream.eat_symbol(")")
            return Query(rho)
        return Query(_parse_atype(stream))
    if token.kind == "UIDENT":
        return _parse_record(stream)
    if stream.at_symbol("("):
        _enter(stream, stream.advance())
        expr = _parse_expr(stream)
        if stream.try_symbol(","):
            expr = PairE(expr, _parse_expr(stream))
        stream.eat_symbol(")")
    elif stream.at_symbol("["):
        _enter(stream, stream.advance())
        elems: list[Expr] = []
        if not stream.at_symbol("]"):
            while True:
                elems.append(_parse_expr(stream))
                if not stream.try_symbol(","):
                    break
        stream.eat_symbol("]")
        expr = ListLit(tuple(elems))
    else:
        raise stream.error("expected a core expression")
    stream.depth -= 1
    return expr


def _parse_record(stream: TokenStream) -> Expr:
    iface = stream.eat("UIDENT").text
    type_args: list[Type] = []
    if stream.try_symbol("["):
        while True:
            type_args.append(_parse_scheme(stream))
            if not stream.try_symbol(","):
                break
        stream.eat_symbol("]")
    _enter(stream, stream.eat_symbol("{"))
    fields: list[tuple[str, Expr]] = []
    while True:
        name = stream.eat("LIDENT").text
        stream.eat_symbol("=")
        fields.append((name, _parse_expr(stream)))
        if not stream.try_symbol(","):
            break
    stream.eat_symbol("}")
    stream.depth -= 1
    return Record(iface, tuple(type_args), tuple(fields))
