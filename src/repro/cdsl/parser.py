"""Recursive-descent parser for the C subset.

Binary expressions are parsed by precedence climbing: one loop iteration
per operator over an operator-to-level table, rather than one recursive
call per precedence level per operand.

The grammar covers the language produced by the seed generator and used by
the paper's example programs: global and local variable declarations (with
initializer lists), struct definitions, functions, the usual statements, and
the full C expression precedence for the operators in the subset.

The parser produces the AST defined in :mod:`repro.cdsl.ast_nodes`; semantic
analysis (:mod:`repro.cdsl.sema`) resolves names and computes types
afterwards.
"""

from __future__ import annotations

import functools
import re
from typing import List, Optional

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.lexer import Token, tokenize
from repro.cdsl.source import SourceLocation
from repro.utils.errors import ParseError

_TYPE_KEYWORDS = {"void", "char", "short", "int", "long", "unsigned", "signed", "struct"}
_QUALIFIER_KEYWORDS = {"const", "volatile", "static", "extern"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

# Binary operator -> precedence level, lowest first.  Every binary operator
# of the subset is left-associative.
_BINARY_LEVELS = {op: level for level, ops in enumerate((
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)) for op in ops}

# A character literal holds one character or one escape sequence: up to
# three octal digits, "x" and hex digits, or one escaped character, which
# is a simple escape (``_SIMPLE_ESCAPES``) or else stands for itself.
_CHAR_LITERAL = re.compile(
    r"'(?:([^\\])|\\([0-7]{1,3})|\\x([0-9a-fA-F]+)|\\([^x]))'")
_SIMPLE_ESCAPES = {"a": 7, "b": 8, "f": 12, "n": 10, "r": 13, "t": 9,
                   "v": 11}

# One frozen location per (line, column), shared by every parse.  Parsed
# units stay alive in the frontend cache, and each full garbage collection
# walks every object they hold; interned locations are walked once.  The
# bound is far above the positions of any generated program.
_location = functools.lru_cache(maxsize=1 << 16)(SourceLocation)


class Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.index = 0
        self.struct_types: dict[str, ct.StructType] = {}

    # -- token helpers -------------------------------------------------------

    # The token list ends in "eof", which ``_advance`` never passes, and
    # lookahead (``offset=1``) happens only at a non-eof token, so the
    # helpers index the list directly.

    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.index + offset]

    def _advance(self) -> Token:
        tok = self.tokens[self.index]
        if not tok.is_eof:
            self.index += 1
        return tok

    def _check(self, kind: str, text: Optional[str] = None, offset: int = 0) -> bool:
        tok = self.tokens[self.index + offset]
        return tok.kind == kind and (text is None or tok.text == text)

    def _match(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self._peek()
        if not self._check(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return self._advance()

    @staticmethod
    def _loc(tok: Token) -> SourceLocation:
        return _location(tok.line, tok.col)

    # -- entry points --------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        decls: List[ast.Node] = []
        first = self._peek()
        while not self._peek().is_eof:
            decls.extend(self._parse_external_declaration())
        return ast.TranslationUnit(decls, loc=self._loc(first))

    def parse_expression(self) -> ast.Expr:
        """Parse a standalone expression (used by tests and the reducer)."""
        expr = self._parse_expr()
        if not self._peek().is_eof:
            tok = self._peek()
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return expr

    # -- declarations --------------------------------------------------------

    def _parse_external_declaration(self) -> List[ast.Node]:
        start = self._peek()
        qualifiers = self._parse_qualifiers()
        base_type, struct_def = self._parse_base_type()
        out: List[ast.Node] = []
        if struct_def is not None and self._check("op", ";"):
            # A bare "struct tag { ... };" definition.
            self._advance()
            out.append(struct_def)
            return out
        if struct_def is not None:
            out.append(struct_def)

        # Could be a function definition or a (list of) variable declarations.
        name_tok, ctype = self._parse_declarator(base_type)
        if self._check("op", "("):
            fn = self._parse_function_rest(name_tok, ctype, start)
            out.append(fn)
            return out
        decls = [self._finish_declarator(name_tok, ctype, qualifiers, is_global=True)]
        while self._match("op", ","):
            name_tok, ctype = self._parse_declarator(base_type)
            decls.append(self._finish_declarator(name_tok, ctype, qualifiers, is_global=True))
        self._expect("op", ";")
        out.append(ast.DeclStmt(decls, loc=self._loc(start)))
        return out

    def _parse_qualifiers(self) -> List[str]:
        qualifiers: List[str] = []
        while self._peek().kind == "keyword" and self._peek().text in _QUALIFIER_KEYWORDS:
            qualifiers.append(self._advance().text)
        return qualifiers

    def _parse_base_type(self) -> tuple[ct.CType, Optional[ast.StructDef]]:
        """Parse a type specifier (possibly defining a struct on the way)."""
        tok = self._peek()
        if tok.kind != "keyword" or tok.text not in _TYPE_KEYWORDS:
            raise ParseError(f"expected type specifier, found {tok.text!r}", tok.line, tok.col)
        if tok.text == "struct":
            return self._parse_struct_specifier()
        words: List[str] = []
        while (self._peek().kind == "keyword"
               and self._peek().text in _TYPE_KEYWORDS
               and self._peek().text != "struct"):
            words.append(self._advance().text)
            # also consume interleaved qualifiers ("unsigned const int")
            while self._peek().kind == "keyword" and self._peek().text in _QUALIFIER_KEYWORDS:
                self._advance()
        return self._type_from_words(words, tok), None

    def _type_from_words(self, words: List[str], tok: Token) -> ct.CType:
        if not words:
            raise ParseError("missing type specifier", tok.line, tok.col)
        if words == ["void"]:
            return ct.VOID
        signed = True
        if "unsigned" in words:
            signed = False
            words = [w for w in words if w != "unsigned"]
        words = [w for w in words if w != "signed"]
        if not words or words == ["int"]:
            base = ct.INT
        elif "char" in words:
            base = ct.CHAR
        elif "short" in words:
            base = ct.SHORT
        elif "long" in words:
            base = ct.LONG
        else:
            raise ParseError(f"unsupported type {' '.join(words)!r}", tok.line, tok.col)
        if signed:
            return base
        return {ct.CHAR: ct.UCHAR, ct.SHORT: ct.USHORT,
                ct.INT: ct.UINT, ct.LONG: ct.ULONG}[base]

    def _parse_struct_specifier(self) -> tuple[ct.CType, Optional[ast.StructDef]]:
        struct_tok = self._expect("keyword", "struct")
        tag_tok = self._expect("ident")
        tag = tag_tok.text
        if not self._check("op", "{"):
            if tag not in self.struct_types:
                # Forward reference: create an empty placeholder.
                self.struct_types[tag] = ct.StructType.create(tag, [])
            return self.struct_types[tag], None
        self._advance()  # "{"
        members: List[tuple[str, ct.CType]] = []
        while not self._check("op", "}"):
            self._parse_qualifiers()
            base_type, _ = self._parse_base_type()
            while True:
                name_tok, ctype = self._parse_declarator(base_type)
                members.append((name_tok.text, ctype))
                if not self._match("op", ","):
                    break
            # The paper writes "struct a { int x }" without a trailing
            # semicolon on the field; accept both spellings.
            self._match("op", ";")
        self._expect("op", "}")
        struct_type = ct.StructType.create(tag, members)
        self.struct_types[tag] = struct_type
        return struct_type, ast.StructDef(struct_type, loc=self._loc(struct_tok))

    def _parse_declarator(self, base_type: ct.CType) -> tuple[Token, ct.CType]:
        """Parse ``* ... name [N]...`` and return (name token, full type)."""
        ctype = base_type
        while self._match("op", "*"):
            ctype = ct.PointerType(ctype)
        name_tok = self._expect("ident")
        # Array suffixes: the outermost dimension is written first.
        dims: List[int] = []
        while self._match("op", "["):
            size_tok = self._expect("number")
            dims.append(_int_literal(size_tok)[0])
            self._expect("op", "]")
        for dim in reversed(dims):
            ctype = ct.ArrayType(ctype, dim)
        return name_tok, ctype

    def _finish_declarator(self, name_tok: Token, ctype: ct.CType,
                           qualifiers: List[str], is_global: bool) -> ast.VarDecl:
        init: Optional[ast.Node] = None
        if self._match("op", "="):
            init = self._parse_initializer()
        return ast.VarDecl(name_tok.text, ctype, init, is_global=is_global,
                           qualifiers=qualifiers, loc=self._loc(name_tok))

    def _parse_initializer(self) -> ast.Node:
        if self._check("op", "{"):
            open_tok = self._advance()
            items: List[ast.Node] = []
            if not self._check("op", "}"):
                items.append(self._parse_initializer())
                while self._match("op", ","):
                    if self._check("op", "}"):
                        break
                    items.append(self._parse_initializer())
            self._expect("op", "}")
            return ast.InitList(items, loc=self._loc(open_tok))
        return self._parse_assignment()

    def _parse_function_rest(self, name_tok: Token, return_type: ct.CType,
                             start: Token) -> ast.FunctionDecl:
        self._expect("op", "(")
        params: List[ast.ParamDecl] = []
        if not self._check("op", ")"):
            if self._check("keyword", "void") and self._check("op", ")", offset=1):
                self._advance()
            else:
                while True:
                    self._parse_qualifiers()
                    base_type, _ = self._parse_base_type()
                    p_name, p_type = self._parse_declarator(base_type)
                    params.append(ast.ParamDecl(p_name.text, ct.decay(p_type),
                                                loc=self._loc(p_name)))
                    if not self._match("op", ","):
                        break
        self._expect("op", ")")
        if self._match("op", ";"):
            body = None
        else:
            body = self._parse_compound()
        return ast.FunctionDecl(name_tok.text, return_type, params, body,
                                loc=self._loc(start))

    # -- statements ----------------------------------------------------------

    def _parse_compound(self) -> ast.CompoundStmt:
        open_tok = self._expect("op", "{")
        stmts: List[ast.Stmt] = []
        while not self._check("op", "}"):
            stmts.append(self._parse_statement())
        self._expect("op", "}")
        return ast.CompoundStmt(stmts, loc=self._loc(open_tok))

    def _starts_declaration(self) -> bool:
        tok = self._peek()
        return tok.kind == "keyword" and (tok.text in _TYPE_KEYWORDS
                                          or tok.text in _QUALIFIER_KEYWORDS)

    def _parse_statement(self) -> ast.Stmt:
        tok = self._peek()
        if self._check("op", "{"):
            return self._parse_compound()
        if self._check("op", ";"):
            self._advance()
            return ast.EmptyStmt(loc=self._loc(tok))
        if tok.kind == "keyword":
            if tok.text == "if":
                return self._parse_if()
            if tok.text == "while":
                return self._parse_while()
            if tok.text == "for":
                return self._parse_for()
            if tok.text == "return":
                self._advance()
                value = None if self._check("op", ";") else self._parse_expr()
                self._expect("op", ";")
                return ast.ReturnStmt(value, loc=self._loc(tok))
            if tok.text == "break":
                self._advance()
                self._expect("op", ";")
                return ast.BreakStmt(loc=self._loc(tok))
            if tok.text == "continue":
                self._advance()
                self._expect("op", ";")
                return ast.ContinueStmt(loc=self._loc(tok))
            if self._starts_declaration():
                return self._parse_local_declaration()
        expr = self._parse_expr()
        self._expect("op", ";")
        return ast.ExprStmt(expr, loc=self._loc(tok))

    def _parse_local_declaration(self) -> ast.DeclStmt:
        start = self._peek()
        qualifiers = self._parse_qualifiers()
        base_type, _ = self._parse_base_type()
        decls = []
        while True:
            name_tok, ctype = self._parse_declarator(base_type)
            decls.append(self._finish_declarator(name_tok, ctype, qualifiers,
                                                 is_global=False))
            if not self._match("op", ","):
                break
        self._expect("op", ";")
        return ast.DeclStmt(decls, loc=self._loc(start))

    def _parse_if(self) -> ast.IfStmt:
        tok = self._expect("keyword", "if")
        self._expect("op", "(")
        cond = self._parse_expr()
        self._expect("op", ")")
        then = self._parse_statement()
        otherwise = None
        if self._match("keyword", "else"):
            otherwise = self._parse_statement()
        return ast.IfStmt(cond, then, otherwise, loc=self._loc(tok))

    def _parse_while(self) -> ast.WhileStmt:
        tok = self._expect("keyword", "while")
        self._expect("op", "(")
        cond = self._parse_expr()
        self._expect("op", ")")
        body = self._parse_statement()
        return ast.WhileStmt(cond, body, loc=self._loc(tok))

    def _parse_for(self) -> ast.ForStmt:
        tok = self._expect("keyword", "for")
        self._expect("op", "(")
        init: Optional[ast.Node] = None
        if not self._check("op", ";"):
            if self._starts_declaration():
                init = self._parse_local_declaration()
            else:
                init = ast.ExprStmt(self._parse_expr(), loc=self._loc(tok))
                self._expect("op", ";")
        else:
            self._advance()
        if isinstance(init, ast.DeclStmt):
            pass  # _parse_local_declaration consumed the ";"
        cond = None if self._check("op", ";") else self._parse_expr()
        self._expect("op", ";")
        step = None if self._check("op", ")") else self._parse_expr()
        self._expect("op", ")")
        body = self._parse_statement()
        return ast.ForStmt(init, cond, step, body, loc=self._loc(tok))

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        """Full expression including the comma operator."""
        first = self._parse_assignment()
        if not self._check("op", ","):
            return first
        parts = [first]
        while self._match("op", ","):
            parts.append(self._parse_assignment())
        return ast.CommaExpr(parts, loc=first.loc)

    def _parse_assignment(self) -> ast.Expr:
        lhs = self._parse_conditional()
        tok = self._peek()
        if tok.kind == "op" and tok.text in _ASSIGN_OPS:
            self._advance()
            rhs = self._parse_assignment()
            return ast.Assignment(tok.text, lhs, rhs, loc=self._loc(tok))
        return lhs

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._check("op", "?"):
            q = self._advance()
            then = self._parse_assignment()
            self._expect("op", ":")
            otherwise = self._parse_conditional()
            return ast.Conditional(cond, then, otherwise, loc=self._loc(q))
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: parse an operand followed by any binary
        operators of level *min_level* or higher (see ``_BINARY_LEVELS``).

        One loop iteration per operator; its right operand binds only
        operators of a higher level, which makes every level
        left-associative.
        """
        lhs = self._parse_unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.index]
            if tok.kind != "op":
                return lhs
            level = _BINARY_LEVELS.get(tok.text, -1)
            if level < min_level:
                return lhs
            self.index += 1
            rhs = self._parse_binary(level + 1)
            lhs = ast.BinaryOp(tok.text, lhs, rhs, loc=self._loc(tok))

    def _parse_unary(self) -> ast.Expr:
        tok = self.tokens[self.index]
        if tok.kind == "op" and tok.text in ("++", "--"):
            self._advance()
            operand = self._parse_unary()
            return ast.IncDec(tok.text, operand, is_prefix=True, loc=self._loc(tok))
        if tok.kind == "op" and tok.text in ("-", "+", "!", "~"):
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(tok.text, operand, loc=self._loc(tok))
        if tok.kind == "op" and tok.text == "*":
            self._advance()
            operand = self._parse_unary()
            return ast.Deref(operand, loc=self._loc(tok))
        if tok.kind == "op" and tok.text == "&":
            self._advance()
            operand = self._parse_unary()
            return ast.AddressOf(operand, loc=self._loc(tok))
        if tok.kind == "keyword" and tok.text == "sizeof":
            self._advance()
            if self._check("op", "(") and self._is_type_start(1):
                self._advance()
                target_type = self._parse_type_name()
                self._expect("op", ")")
                return ast.SizeofExpr(target_type=target_type, loc=self._loc(tok))
            operand = self._parse_unary()
            return ast.SizeofExpr(operand=operand, loc=self._loc(tok))
        if tok.kind == "op" and tok.text == "(" and self._is_type_start(1):
            self._advance()
            target_type = self._parse_type_name()
            self._expect("op", ")")
            operand = self._parse_unary()
            return ast.Cast(target_type, operand, loc=self._loc(tok))
        return self._parse_postfix()

    def _is_type_start(self, offset: int) -> bool:
        tok = self._peek(offset)
        return tok.kind == "keyword" and (tok.text in _TYPE_KEYWORDS
                                          or tok.text in _QUALIFIER_KEYWORDS)

    def _parse_type_name(self) -> ct.CType:
        self._parse_qualifiers()
        base_type, _ = self._parse_base_type()
        ctype = base_type
        while self._match("op", "*"):
            ctype = ct.PointerType(ctype)
        return ctype

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self.tokens[self.index]
            if tok.kind != "op":
                return expr
            text = tok.text
            if text == "[":
                self._advance()
                index = self._parse_expr()
                self._expect("op", "]")
                expr = ast.ArraySubscript(expr, index, loc=self._loc(tok))
            elif text == "(":
                if not isinstance(expr, ast.Identifier):
                    raise ParseError("only direct calls are supported", tok.line, tok.col)
                self._advance()
                args: List[ast.Expr] = []
                if not self._check("op", ")"):
                    args.append(self._parse_assignment())
                    while self._match("op", ","):
                        args.append(self._parse_assignment())
                self._expect("op", ")")
                expr = ast.Call(expr.name, args, loc=expr.loc)
            elif text == ".":
                self._advance()
                field = self._expect("ident")
                expr = ast.MemberAccess(expr, field.text, arrow=False, loc=self._loc(field))
            elif text == "->":
                self._advance()
                field = self._expect("ident")
                expr = ast.MemberAccess(expr, field.text, arrow=True, loc=self._loc(field))
            elif text in ("++", "--"):
                self._advance()
                expr = ast.IncDec(tok.text, expr, is_prefix=False, loc=self._loc(tok))
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self.tokens[self.index]
        if tok.kind == "number":
            self._advance()
            value, suffix = _int_literal(tok)
            return ast.IntLiteral(value, suffix, loc=self._loc(tok))
        if tok.kind == "string":
            self._advance()
            return ast.StringLiteral(tok.text[1:-1], loc=self._loc(tok))
        if tok.kind == "char":
            self._advance()
            return ast.IntLiteral(_char_value(tok), loc=self._loc(tok))
        if tok.kind == "ident":
            self._advance()
            return ast.Identifier(tok.text, loc=self._loc(tok))
        if self._check("op", "("):
            self._advance()
            expr = self._parse_expr()
            self._expect("op", ")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def _int_literal(tok: Token) -> tuple[int, str]:
    """Split an integer literal into (value, suffix), reading it as C does:
    ``0x``/``0X`` starts a hexadecimal literal, any other leading ``0`` an
    octal one.  A malformed literal raises ``ParseError`` at its token."""
    body = tok.text.rstrip("uUlL")
    suffix = tok.text[len(body):]
    try:
        if body[:2] in ("0x", "0X"):
            return int(body[2:], 16), suffix
        if body.startswith("0"):
            return int(body, 8), suffix
        return int(body, 10), suffix
    except ValueError:
        raise ParseError(f"malformed integer literal {tok.text!r}",
                         tok.line, tok.col) from None


def _char_value(tok: Token) -> int:
    """The C value of a character literal: its one character or escape
    sequence, which must fit an ``unsigned char``, converted to ``char``
    and then to ``int``.  Anything else raises ``ParseError`` at the
    token."""
    m = _CHAR_LITERAL.fullmatch(tok.text)
    if m is not None:
        plain, octal, hexadecimal, escaped = m.groups()
        if plain is not None:
            code = ord(plain)
        elif octal is not None:
            code = int(octal, 8)
        elif hexadecimal is not None:
            code = int(hexadecimal, 16)
        else:
            code = _SIMPLE_ESCAPES.get(escaped, ord(escaped))
        if ct.UCHAR.contains(code):
            return ct.CHAR.wrap(code)
    raise ParseError(f"malformed character literal {tok.text!r}",
                     tok.line, tok.col)


def parse_program(source: str) -> ast.TranslationUnit:
    """Parse C-subset *source* into a :class:`~repro.cdsl.ast_nodes.TranslationUnit`.

    Only syntax is checked; run :func:`~repro.cdsl.sema.analyze` on the
    result to resolve names and types.  Raises
    :class:`~repro.utils.errors.ParseError` (or ``LexError``) on malformed
    input, including expressions nested deeper than the interpreter's
    recursion limit allows: C11 requires 63 levels of parenthesized
    expressions, and about 140 parse at the default limit.

    Example::

        unit = parse_program("int main() { return 0; }")
        unit.function_named("main")  # -> FunctionDecl
    """
    parser = Parser(source)
    try:
        return parser.parse_translation_unit()
    except RecursionError:
        raise _too_deep(parser) from None


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression, mainly for tests and synthesis helpers."""
    parser = Parser(source)
    try:
        return parser.parse_expression()
    except RecursionError:
        raise _too_deep(parser) from None


def _too_deep(parser: Parser) -> ParseError:
    tok = parser._peek()
    return ParseError("expression nested too deeply", tok.line, tok.col)
