"""The C-subset frontend: lexer, parser, semantic analysis and printer."""

from repro.cdsl import ast_nodes, ctypes_
from repro.cdsl.lexer import Lexer, Token, tokenize
from repro.cdsl.parser import Parser, parse_expression, parse_program
from repro.cdsl.printer import Printer, print_expr, print_program, print_stmt
from repro.cdsl.sema import Scope, Sema, SemanticInfo, VarSymbol, analyze
from repro.cdsl.source import UNKNOWN_LOCATION, SourceLocation
from repro.cdsl.visitor import (
    NodeTransformer,
    clone,
    clone_fresh,
    count_nodes,
    enclosing_statement,
    find_nodes,
    insert_before,
    parent_map,
    replace_node,
    walk,
)

__all__ = [
    "ast_nodes",
    "ctypes_",
    "Lexer",
    "Token",
    "tokenize",
    "Parser",
    "parse_expression",
    "parse_program",
    "Printer",
    "print_expr",
    "print_program",
    "print_stmt",
    "Scope",
    "Sema",
    "SemanticInfo",
    "VarSymbol",
    "analyze",
    "UNKNOWN_LOCATION",
    "SourceLocation",
    "NodeTransformer",
    "clone",
    "clone_fresh",
    "count_nodes",
    "enclosing_statement",
    "find_nodes",
    "insert_before",
    "parent_map",
    "replace_node",
    "walk",
]
