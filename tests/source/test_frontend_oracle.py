"""Differential tests: the regex lexer and precedence-climbing parser
against the reference front end they replaced (``reference_lexer``,
``reference_parser``).

* Random token soups -- comments, escapes, unterminated strings,
  non-ASCII letters, stray characters -- lex to identical tokens
  (kinds, texts, positions, spans) or to an identical ``LexError``.
* Random well-formed programs, and every ``examples/programs/*.impl``,
  parse to identical ``SProgram`` trees, spans included.
* Random token sequences parse identically or fail with an identical
  ``ParseError``.

The one intended difference is a non-ASCII digit: the reference lexed
``²`` or ``١`` as an ``INT`` (and ``int('²')`` then crashed its parser);
the lexer now reports it as an unexpected character, asserted
explicitly below.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.source.lexer import tokenize
from repro.source.parser import parse_program

from . import reference_lexer, reference_parser

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "programs"

#: Characters for token soups: every lexeme class and its edges, but no
#: non-ASCII digit (the intended difference, tested separately).
SOUP_PIECES = list("abxyZQ_'0189 \t\r\n\"\\-=>{}()[],;:.?+*<#&|$@%~`!^")
SOUP_PIECES += ["--", "é", "ß", "Ω", "ǅ", "Ⅻ", "½", "́", " ", "ᵃ"]
SOUP_PIECES += ['\\"', "\\n", "\\t", '"s p"', "let", "in", "True", "forall"]

NON_ASCII_DIGITS = ["²", "³", "١", "٣", "߁", "෧"]


def lex_outcome(tokenize_fn, text: str):
    try:
        return [
            (t.kind, t.text, t.line, t.column, t.span()) for t in tokenize_fn(text)
        ]
    except ParseError as exc:
        return ("error", type(exc).__name__, str(exc), exc.line, exc.column, exc.span)


def shape(node):
    """A comparable view of a syntax tree *including* the spans that
    ``==`` ignores (fields declared ``compare=False``)."""
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return (type(node).__name__,) + tuple(
            (f.name, shape(getattr(node, f.name))) for f in dataclasses.fields(node)
        )
    if isinstance(node, tuple):
        return tuple(shape(item) for item in node)
    return repr(node)


def parse_outcome(parse_fn, text: str):
    try:
        return shape(parse_fn(text))
    except ParseError as exc:
        return ("error", type(exc).__name__, str(exc), exc.line, exc.column, exc.span)


soups = st.lists(st.sampled_from(SOUP_PIECES), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(soups)
def test_token_soups_lex_identically(text):
    assert lex_outcome(tokenize, text) == lex_outcome(reference_lexer.tokenize, text)


@settings(max_examples=150, deadline=None)
@given(soups, st.sampled_from(NON_ASCII_DIGITS), soups)
def test_non_ascii_digit_is_the_intended_difference(prefix, digit, rest):
    prefix += "\n"  # the digit starts a line: no identifier or comment swallows it
    before = lex_outcome(reference_lexer.tokenize, prefix)
    text = prefix + digit + rest
    if before[0] == "error":
        # Both fail inside the prefix, before the digit; unless an
        # unterminated string there now closes later in the text.
        if "unterminated" not in before[2]:
            assert lex_outcome(tokenize, text) == before
        return
    eof_line, eof_column = before[-1][2], before[-1][3]
    # The reference lexed the digit as an INT ...
    assert any(
        (t.kind, t.text, t.line, t.column) == ("INT", digit, eof_line, eof_column)
        for t in reference_lexer.tokenize(prefix + digit)
    )
    # ... the lexer refuses it, at its position, as IC0101.
    outcome = lex_outcome(tokenize, text)
    assert outcome[:5] == (
        "error",
        "LexError",
        f"unexpected character {digit!r} at {eof_line}:{eof_column}",
        eof_line,
        eof_column,
    )


def test_superscript_crashed_the_reference_parser():
    # The bug the ASCII-only INT fixes: '²'.isdigit() but int('²') fails.
    try:
        reference_parser.parse_program("²")
    except ValueError:
        pass
    else:  # pragma: no cover - the reference is frozen
        raise AssertionError("the reference parser accepted '²'")
    outcome = parse_outcome(parse_program, "²")
    assert outcome[1:3] == ("LexError", "unexpected character '²' at 1:1")


# ---------------------------------------------------------------------------
# Well-formed programs
# ---------------------------------------------------------------------------

LIDENTS = st.sampled_from(["x", "y", "f", "eq", "show", "x'", "_y", "é"])
UIDENTS = st.sampled_from(["Int", "Bool", "Eq", "Show", "List"])
OPERATORS = st.sampled_from(["||", "&&", "==", "<", "<=", "++", "+", "-", "*"])
#: Separators between tokens: spaces, newlines, tabs and comments.
GAPS = st.sampled_from([" ", " ", " ", "  ", "\n", "\t", " -- note\n", "\n  "])


def _join(draw, parts: list[str]) -> str:
    out = parts[0]
    for part in parts[1:]:
        out += draw(GAPS) + part
    return out


types = st.recursive(
    st.one_of(UIDENTS, st.sampled_from(["a", "b"])),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"{p[0]} -> {p[1]}"),
        inner.map(lambda t: f"[{t}]"),
        inner.map(lambda t: f"({t})"),
        st.tuples(inner, inner).map(lambda p: f"({p[0]}, {p[1]})"),
        st.tuples(UIDENTS, inner).map(lambda p: f"{p[0]} ({p[1]})"),
    ),
    max_leaves=6,
)
schemes = st.one_of(
    types,
    st.tuples(types, types).map(lambda p: f"{{{p[0]}}} => {p[1]}"),
    st.tuples(types, types).map(lambda p: f"forall a b . {{Eq a, {p[0]}}} => {p[1]}"),
)

atoms = st.one_of(
    st.integers(0, 999).map(str),
    st.sampled_from(['"s"', '"a\\nb"', '"q\\"q"', "True", "False", "?"]),
    LIDENTS,
)


def _operand(expr: str) -> str:
    """Parenthesize binder and ``if`` forms, which extend to the right
    and cannot be operands or arguments."""
    return f"({expr})" if expr.startswith(("\\", "let", "implicit", "if")) else expr


@st.composite
def _compound(draw, inner):
    kind = draw(st.integers(0, 10))
    e1, e2, e3 = draw(inner), draw(inner), draw(inner)
    if kind == 0:
        return _join(draw, [_operand(e1), draw(OPERATORS), _operand(e2)])
    if kind == 1:
        return _join(
            draw,
            [f"({_operand(e1)}", draw(OPERATORS), _operand(e2), draw(OPERATORS), f"{_operand(e3)})"],
        )
    if kind == 2:
        return _join(draw, ["(", e1, ")"]) + " " + f"({e2})"
    if kind == 3:
        return _join(draw, ["(", e1, ",", e2, ")"])
    if kind == 4:
        return _join(draw, ["[", e1, ",", e2, "]"]) if draw(st.booleans()) else "[]"
    if kind == 5:
        params = " ".join(draw(st.lists(LIDENTS, min_size=1, max_size=3)))
        return _join(draw, ["\\", params, ".", e1])
    if kind == 6:
        annotation = f": {draw(schemes)} " if draw(st.booleans()) else ""
        return _join(draw, ["let", draw(LIDENTS), f"{annotation}=", e1, "in", e2])
    if kind == 7:
        names = draw(st.lists(LIDENTS, min_size=1, max_size=3))
        bound = names[0] if len(names) == 1 and draw(st.booleans()) else (
            "{" + ", ".join(names) + "}"
        )
        return _join(draw, ["implicit", bound, "in", e1])
    if kind == 8:
        return _join(draw, ["if", e1, "then", e2, "else", e3])
    if kind == 9:
        return _join(draw, ["Eq", "{", "eq", "=", e1, ",", "ne", "=", e2, "}"])
    return _join(draw, [f"({e1})", f"({e2})", _operand(e3)])


expressions = st.recursive(atoms, _compound, max_leaves=12)


@st.composite
def programs(draw):
    parts = []
    for _ in range(draw(st.integers(0, 2))):
        fields = ", ".join(
            f"{name} : {draw(schemes)}"
            for name in draw(st.lists(LIDENTS, min_size=1, max_size=2, unique=True))
        )
        parts.append(f"interface {draw(UIDENTS)} a = {{ {fields} }};")
    for _ in range(draw(st.integers(0, 2))):
        annotation = f" : {draw(schemes)}" if draw(st.booleans()) else ""
        parts.append(f"def {draw(LIDENTS)}{annotation} = {draw(expressions)};")
    parts.append(draw(expressions))
    return _join(draw, parts)


@settings(max_examples=300, deadline=None)
@given(programs())
def test_well_formed_programs_parse_identically(text):
    expected = parse_outcome(reference_parser.parse_program, text)
    assert expected[0] != "error", expected  # the generator is well-formed
    assert parse_outcome(parse_program, text) == expected


def test_example_programs_parse_identically():
    paths = sorted(EXAMPLES.glob("*.impl"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert parse_outcome(parse_program, text) == parse_outcome(
            reference_parser.parse_program, text
        ), path.name


# ---------------------------------------------------------------------------
# Malformed token sequences: identical errors
# ---------------------------------------------------------------------------

TOKEN_PIECES = [
    "x", "Eq", "1", '"s"', "True", "?", "(", ")", "[", "]", "{", "}", ",", ";",
    ":", ".", "=", "\\", "+", "*", "==", "&&", "->", "=>", "let", "in",
    "implicit", "if", "then", "else", "def", "interface", "forall", "Int",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=25).map(" ".join))
def test_token_sequences_fail_identically(text):
    assert parse_outcome(parse_program, text) == parse_outcome(
        reference_parser.parse_program, text
    )
