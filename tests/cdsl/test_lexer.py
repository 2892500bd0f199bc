"""Unit tests for the lexer."""

import pytest

from repro.cdsl.lexer import Lexer, tokenize
from repro.utils.errors import LexError


def kinds(source):
    return [t.kind for t in tokenize(source) if not t.is_eof]


def texts(source):
    return [t.text for t in tokenize(source) if not t.is_eof]


def test_empty_source_yields_only_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].is_eof


def test_identifiers_and_keywords_are_distinguished():
    tokens = tokenize("int foo while bar_2")
    assert [t.kind for t in tokens[:-1]] == ["keyword", "ident", "keyword", "ident"]


def test_decimal_number_token():
    token = tokenize("12345")[0]
    assert token.kind == "number"
    assert token.text == "12345"


def test_hex_number_token():
    token = tokenize("0xfff")[0]
    assert token.kind == "number"
    assert token.text == "0xfff"


def test_number_with_suffixes():
    assert texts("1u 2UL 3l") == ["1u", "2UL", "3l"]


def test_multichar_operators_use_maximal_munch():
    assert texts("a <<= b >> c <= d") == ["a", "<<=", "b", ">>", "c", "<=", "d"]


def test_arrow_and_increment_operators():
    assert texts("p->x++") == ["p", "->", "x", "++"]


def test_string_literal():
    token = tokenize('"hello %d\\n"')[0]
    assert token.kind == "string"
    assert token.text.startswith('"')


def test_char_literal():
    token = tokenize("'a'")[0]
    assert token.kind == "char"


def test_line_and_column_tracking():
    tokens = tokenize("int a;\nint b;")
    b_token = [t for t in tokens if t.text == "b"][0]
    assert b_token.line == 2
    assert b_token.col == 5


def test_line_comment_is_skipped():
    assert texts("a // comment until end\n b") == ["a", "b"]


def test_block_comment_is_skipped():
    assert texts("a /* x \n y */ b") == ["a", "b"]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError) as excinfo:
        tokenize("a /* never\nclosed")
    # Reported at the end of input, not lexed as a "/" operator.
    assert str(excinfo.value).endswith("unterminated block comment")
    assert (excinfo.value.line, excinfo.value.col) == (2, 7)


def test_preprocessor_lines_are_skipped():
    assert texts("#include <stdio.h>\nint a;") == ["int", "a", ";"]


def test_unexpected_character_raises_with_location():
    with pytest.raises(LexError) as excinfo:
        tokenize("int a = `;")
    assert excinfo.value.line == 1


def test_unterminated_string_raises():
    with pytest.raises(LexError) as excinfo:
        tokenize('int a;\n  "never closed')
    assert (excinfo.value.line, excinfo.value.col) == (2, 3)


def test_lexer_is_reusable_per_instance():
    lexer = Lexer("a + b")
    tokens = lexer.tokenize()
    assert [t.text for t in tokens[:-1]] == ["a", "+", "b"]


def test_tokens_are_immutable_tuples():
    token = tokenize("x")[0]
    assert token == ("ident", "x", 1, 1)
    with pytest.raises(AttributeError):
        token.text = "y"
