"""Reference lexer: the hand-written per-character scanner that preceded
the regex lexer in :mod:`repro.source.lexer`, kept as a test oracle
(``tests/source/test_frontend_oracle.py``).

Token kinds:

* ``INT``, ``STRING`` -- literals;
* ``LIDENT``/``UIDENT`` -- lower/upper-case identifiers (type variables
  and term variables vs. constructors and interfaces);
* ``KEYWORD`` -- reserved words;
* ``SYMBOL`` -- punctuation and operators, longest-match first;
* ``EOF``.

Comments run from ``--`` to end of line (Haskell style, as in the paper's
listings).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LexError, ParseError
from repro.span import Span

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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"

    def span(self) -> Span:
        """The source range this token covers (single-line tokens only,
        which is every token this lexer produces -- string literals may
        *contain* escaped newlines but never raw ones)."""
        return Span.point(self.line, self.column, max(len(self.text), 1))


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, column = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            column = 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            tokens.append(Token("INT", source[start:i], line, column))
            column += i - start
            continue
        if ch == '"':
            start = i
            i += 1
            chunks: list[str] = []
            while i < n and source[i] != '"':
                if source[i] == "\\" and i + 1 < n:
                    escape = source[i + 1]
                    chunks.append({"n": "\n", "t": "\t"}.get(escape, escape))
                    i += 2
                else:
                    chunks.append(source[i])
                    i += 1
            if i >= n:
                raise LexError("unterminated string literal", line, column)
            i += 1
            tokens.append(Token("STRING", "".join(chunks), line, column))
            column += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] in "_'"):
                i += 1
            text = source[start:i]
            if text in KEYWORDS:
                kind = "KEYWORD"
            elif text[0].isupper():
                kind = "UIDENT"
            else:
                kind = "LIDENT"
            tokens.append(Token(kind, text, line, column))
            column += i - start
            continue
        for symbol in SYMBOLS:
            if source.startswith(symbol, i):
                tokens.append(Token("SYMBOL", symbol, line, column))
                i += len(symbol)
                column += len(symbol)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("EOF", "", line, column))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual parser conveniences."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    @property
    def last(self) -> Token:
        """The most recently consumed token (for building end positions)."""
        return self._tokens[max(self._pos - 1, 0)]

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
