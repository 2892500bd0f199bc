"""A regular-expression lexer for the C subset.

One master pattern is matched at the current position.  It skips trivia
(whitespace, ``//`` and ``/* */`` comments, ``#`` lines) and then matches
exactly one token alternative: an identifier, a number, a string or
character literal, an operator (longest first, so maximal munch holds),
the end of input, or one of the error alternatives that name what went
wrong.  The token language is ASCII: outside string and character literals
and comments, any other character is an unexpected character.

The lexer tracks 1-based line and column numbers for every token, computed
from the newline offsets it passes; those positions become the ``(line,
offset)`` sites that debug information and the crash-site mapping oracle
work with.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.utils.errors import LexError

KEYWORDS = {
    "void", "char", "short", "int", "long", "unsigned", "signed",
    "struct", "if", "else", "for", "while", "do", "return", "break",
    "continue", "sizeof", "static", "const", "volatile", "extern",
}

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

# Trivia is possessive: the token alternatives after it always match (the
# last one takes any character), so nothing ever backtracks into it.  An
# unclosed "/*" fails the comment alternative and is caught by
# ``open_comment`` before it can lex as the "/" operator.
_TOKEN_RE = re.compile(r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*[\s\S]*?\*/ | \#[^\n]* )*+
    (?:
        (?P<ident> [A-Za-z_][A-Za-z0-9_]* )
      | (?P<number> 0[xX][0-9a-fA-F]*[uUlL]* | [0-9]+[uUlL]* )
      | (?P<string> "(?:[^"\\]|\\[\s\S])*" )
      | (?P<char> '(?:[^'\\]|\\[\s\S])*' )
      | (?P<open_comment> /\* )
      | (?P<op> """ + "|".join(map(re.escape, _OPERATORS)) + r""" )
      | (?P<eof> \Z )
      | (?P<open_string> " )
      | (?P<open_char> ' )
      | (?P<unexpected> [\s\S] )
    )
""", re.VERBOSE)

_UNTERMINATED = {"open_string": "unterminated string literal",
                 "open_char": "unterminated character literal"}


class Token(NamedTuple):
    """One lexeme with the 1-based line and column where it starts.

    ``kind`` is one of ``"ident"``, ``"keyword"``, ``"number"``,
    ``"string"``, ``"char"``, ``"op"`` and ``"eof"``; ``text`` is the
    lexeme as written (string and character literals keep their quotes).
    An immutable named tuple, because the lexer builds one per lexeme.
    """

    kind: str
    text: str
    line: int
    col: int

    @property
    def is_eof(self) -> bool:
        return self.kind == "eof"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind}({self.text!r})@{self.line}:{self.col}"


class Lexer:
    """Tokenize C-subset source text."""

    def __init__(self, source: str) -> None:
        self.source = source

    def tokenize(self) -> List[Token]:
        """Return every token of the source, ending with one ``eof`` token.

        Raises :class:`~repro.utils.errors.LexError` at an unexpected
        character, at the opening quote of an unterminated string or
        character literal, and at the end of input for an unterminated
        block comment.
        """
        source = self.source
        match = _TOKEN_RE.match
        count = source.count
        tokens: List[Token] = []
        append = tokens.append
        # ``tuple.__new__`` skips the Python-level ``__new__`` that
        # NamedTuple generates; the lexer builds one token per lexeme.
        make = tuple.__new__
        pos = 0
        line = 1
        line_start = 0
        # Newlines before ``scanned`` are counted in ``line``; ``scanned``
        # is the start of the last token, so newlines inside string and
        # character literals are counted when the next token is found.
        scanned = 0
        while True:
            m = match(source, pos)
            kind = m.lastgroup
            start = m.start(kind)
            newlines = count("\n", scanned, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", scanned, start) + 1
            scanned = start
            pos = m.end()
            text = m.group(kind)
            if kind == "ident":
                if text in KEYWORDS:
                    kind = "keyword"
            elif kind == "eof":
                append(Token("eof", "", line, start - line_start + 1))
                return tokens
            elif kind in _UNTERMINATED:
                raise LexError(_UNTERMINATED[kind], line,
                               start - line_start + 1)
            elif kind == "unexpected":
                raise LexError(f"unexpected character {text!r}", line,
                               start - line_start + 1)
            elif kind == "open_comment":
                end = len(source)
                newlines = count("\n", start, end)
                if newlines:
                    line += newlines
                    line_start = source.rindex("\n", start, end) + 1
                raise LexError("unterminated block comment", line,
                               end - line_start + 1)
            append(make(Token, (kind, text, line, start - line_start + 1)))


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper returning the token list for *source*."""
    return Lexer(source).tokenize()
