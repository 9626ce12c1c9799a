"""The lexer shared by the source and core parsers: one compiled regex.

Token kinds:

* ``INT``, ``STRING`` -- literals (``INT`` is ASCII ``[0-9]+`` only);
* ``LIDENT``/``UIDENT`` -- lower/upper-case identifiers (type variables
  and term variables vs. constructors and interfaces);
* ``KEYWORD`` -- reserved words;
* ``SYMBOL`` -- punctuation and operators, longest-match first;
* ``EOF``.

Comments run from ``--`` to end of line (Haskell style, as in the paper's
listings).
"""

from __future__ import annotations

import re

from ..errors import LexError, ParseError
from ..span import Span

KEYWORDS = frozenset(
    {
        "let",
        "in",
        "implicit",
        "interface",
        "def",
        "if",
        "then",
        "else",
        "rule",
        "with",
        "forall",
        "True",
        "False",
    }
)

SYMBOLS = (
    "=>",
    "->",
    "==",
    "&&",
    "||",
    "++",
    "<=",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ";",
    ":",
    ".",
    "=",
    "\\",
    "?",
    "+",
    "-",
    "*",
    "<",
    "#",
)

#: One alternative per lexeme class, tried in order.  ``word`` starts with
#: any word character but a decimal digit; :func:`tokenize` refuses the
#: non-letters that admits (``²``, ``½``), so an identifier starts with
#: ``str.isalpha()`` or ``_`` and continues with ``str.isalnum()``,
#: ``_`` or ``'``.  ``bad`` catches every other character.
_LEXEME = re.compile(
    r"(?P<space>[ \t\r]+)"
    r"|(?P<newline>\n)"
    r"|(?P<comment>--[^\n]*)"
    r"|(?P<INT>[0-9]+)"
    r'|(?P<STRING>"(?:[^"\\]|\\.)*")'
    r"|(?P<word>[^\W\d][\w']*)"
    f"|(?P<SYMBOL>{'|'.join(map(re.escape, SYMBOLS))})"
    r"|(?P<bad>.)",
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


class Token:
    """One lexeme: its kind, text (a string literal's decoded value) and
    1-based start position."""

    __slots__ = ("kind", "text", "line", "column", "_span")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self._span: Span | None = None

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"

    def span(self) -> Span:
        """The source range this token covers (its start line only: a
        string literal with a raw newline still counts as one line)."""
        span = self._span
        if span is None:
            line, column = self.line, self.column
            span = self._span = Span(line, column, line, column + max(len(self.text), 1))
        return span


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    # Only a newline token starts a line: after a string literal with a
    # raw newline inside, columns count on from the literal's line.
    line, line_start, comment_start = 1, 0, -1
    for match in _LEXEME.finditer(source):
        kind = match.lastgroup
        if kind == "space":
            continue
        start = match.start()
        column = start - line_start + 1
        if kind == "newline":
            line += 1
            line_start = start + 1
        elif kind == "word":
            text = match.group()
            first = text[0]
            if text in KEYWORDS:
                append(Token("KEYWORD", text, line, column))
            elif first.isalpha() or first == "_":
                append(Token("UIDENT" if first.isupper() else "LIDENT", text, line, column))
            else:
                raise LexError(f"unexpected character {first!r}", line, column)
        elif kind == "STRING":
            text = match.group()[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(_unescape, text)
            append(Token("STRING", text, line, column))
        elif kind == "comment":
            comment_start = start
        elif kind == "bad":
            char = match.group()
            if char == '"':
                raise LexError("unterminated string literal", line, column)
            raise LexError(f"unexpected character {char!r}", line, column)
        else:
            append(Token(kind, match.group(), line, column))
    # A comment on the last line does not advance EOF past its start.
    end = comment_start if comment_start >= line_start else len(source)
    append(Token("EOF", "", line, end - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual parser conveniences."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self.current = tokens[0]
        #: The most recently consumed token (for building end positions).
        self.last = tokens[0]
        #: Open nesting levels (capped by ``repro.source.parser.MAX_NESTING``).
        self.depth = 0

    def span_from(self, start: Token) -> Span:
        """Span covering ``start`` through the last consumed token."""
        return start.span().merge(self.last.span())

    def peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self._pos += 1
            self.current = self._tokens[self._pos]
            self.last = token
        return token

    def at_symbol(self, *texts: str) -> bool:
        token = self.current
        return token.kind == "SYMBOL" and token.text in texts

    def at_keyword(self, *texts: str) -> bool:
        token = self.current
        return token.kind == "KEYWORD" and token.text in texts

    def eat_symbol(self, text: str) -> Token:
        if not self.at_symbol(text):
            raise self.error(f"expected {text!r}")
        return self.advance()

    def eat_keyword(self, text: str) -> Token:
        if not self.at_keyword(text):
            raise self.error(f"expected keyword {text!r}")
        return self.advance()

    def eat(self, kind: str) -> Token:
        if self.current.kind != kind:
            raise self.error(f"expected {kind}")
        return self.advance()

    def try_symbol(self, text: str) -> bool:
        if self.at_symbol(text):
            self.advance()
            return True
        return False

    def error(self, message: str) -> ParseError:
        token = self.current
        found = token.text or "end of input"
        return ParseError(
            f"{message}, found {found!r}",
            token.line,
            token.column,
            span=token.span(),
        )
