"""Unit tests for the shared lexer."""

import pytest

from repro.errors import LexError, ParseError
from repro.source.lexer import Token, TokenStream, tokenize
from repro.span import Span


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


class TestTokenize:
    def test_identifiers(self):
        assert kinds("foo Bar _x a'") == [
            ("LIDENT", "foo"),
            ("UIDENT", "Bar"),
            ("LIDENT", "_x"),
            ("LIDENT", "a'"),
        ]

    def test_keywords(self):
        assert kinds("let in implicit interface if then else True False") == [
            ("KEYWORD", k)
            for k in "let in implicit interface if then else True False".split()
        ]

    def test_numbers(self):
        assert kinds("0 42 1234") == [("INT", "0"), ("INT", "42"), ("INT", "1234")]

    def test_strings(self):
        assert kinds('"hello" "a b"') == [("STRING", "hello"), ("STRING", "a b")]

    def test_string_escapes(self):
        assert kinds(r'"a\nb" "q\"q"') == [("STRING", "a\nb"), ("STRING", 'q"q')]

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated"):
            tokenize('"oops')

    def test_longest_match_symbols(self):
        assert kinds("=> -> == = -") == [
            ("SYMBOL", "=>"),
            ("SYMBOL", "->"),
            ("SYMBOL", "=="),
            ("SYMBOL", "="),
            ("SYMBOL", "-"),
        ]

    def test_comments_skipped(self):
        assert kinds("1 -- comment here\n2") == [("INT", "1"), ("INT", "2")]

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("a $ b")

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "EOF"


class TestLexErrorPositions:
    """Regression: lexical failures carry line/column and a span."""

    def test_unexpected_character_position(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("a b\n  $ c")
        assert (excinfo.value.line, excinfo.value.column) == (2, 3)
        assert "2:3" in str(excinfo.value)
        assert excinfo.value.span == Span.point(2, 3)

    def test_unterminated_string_position(self):
        with pytest.raises(LexError) as excinfo:
            tokenize('let s = "oops')
        assert (excinfo.value.line, excinfo.value.column) == (1, 9)
        assert excinfo.value.span == Span.point(1, 9)

    def test_lex_error_is_a_parse_error_with_code(self):
        # LexError refines ParseError (callers catching ParseError keep
        # working) and carries the IC0101 band, not the parser's IC0102.
        with pytest.raises(ParseError) as excinfo:
            tokenize("$")
        assert isinstance(excinfo.value, LexError)
        assert excinfo.value.code == "IC0101"
        assert ParseError.code == "IC0102"

    def test_non_ascii_digit_is_unexpected(self):
        # '²'.isdigit() is true, but INT is ASCII [0-9]+ only: a lone
        # superscript used to reach int('²') and crash with ValueError.
        for source, column in (("²", 1), ("1²", 2), ("a ١", 3)):
            with pytest.raises(LexError) as excinfo:
                tokenize(source)
            assert str(excinfo.value).startswith("unexpected character")
            assert (excinfo.value.line, excinfo.value.column) == (1, column)
            assert excinfo.value.code == "IC0101"

    def test_digits_continue_identifiers(self):
        # Identifiers start with str.isalpha() or '_' and continue with
        # str.isalnum(), '_' or "'", so non-ASCII digits may follow.
        assert kinds("x² y١ é1") == [
            ("LIDENT", "x²"),
            ("LIDENT", "y١"),
            ("LIDENT", "é1"),
        ]

    def test_token_spans(self):
        tokens = tokenize("ab\n  cde")
        assert tokens[0].span() == Span(1, 1, 1, 3)
        assert tokens[1].span() == Span(2, 3, 2, 6)


class TestTokenStream:
    def test_advance_and_peek(self):
        stream = TokenStream(tokenize("a b"))
        assert stream.peek(1).text == "b"
        assert stream.advance().text == "a"
        assert stream.current.text == "b"

    def test_eof_is_sticky(self):
        stream = TokenStream(tokenize("a"))
        stream.advance()
        stream.advance()
        assert stream.current.kind == "EOF"

    def test_eat_errors(self):
        stream = TokenStream(tokenize("a"))
        with pytest.raises(ParseError):
            stream.eat("INT")
        with pytest.raises(ParseError):
            stream.eat_symbol("(")
        with pytest.raises(ParseError):
            stream.eat_keyword("let")

    def test_try_symbol(self):
        stream = TokenStream(tokenize("( a"))
        assert stream.try_symbol("(")
        assert not stream.try_symbol(")")
        assert stream.current.text == "a"
