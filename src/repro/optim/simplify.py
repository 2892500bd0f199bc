"""Algebraic simplification (a small "instcombine").

Rewrites expressions using identities that hold for every *defined*
execution: ``x * 0 -> 0``, ``x * 1 -> x``, ``x + 0 -> x``, ``x - 0 -> x``,
``x / 1 -> x``, ``0 / x -> 0``, ``x & 0 -> 0``, ``x | 0 -> x``,
``x ^ 0 -> x``, ``x << 0 -> x``, ``!(!e) -> (e != 0)`` and double negation.

Several of these erase a subexpression whose evaluation would have been the
program's UB (e.g. an overflowing multiply under ``* 0``), so — like real
compilers — this pass can hide UB from the sanitizer pass that runs later.
The operand is only dropped when it is side-effect free.
"""

from __future__ import annotations

from repro.cdsl import ast_nodes as ast
from repro.cdsl.sema import SemanticInfo
from repro.cdsl.visitor import NodeTransformer
from repro.optim.passes import OptimizationPass, is_pure_expr, typed_literal


class AlgebraicSimplifyPass(OptimizationPass):
    name = "simplify"

    def run(self, unit: ast.TranslationUnit, sema: SemanticInfo) -> bool:
        simplifier = _Simplifier()
        for fn in unit.functions:
            if fn.body is not None:
                simplifier.visit(fn.body)
        return simplifier.changed


def _const(expr: ast.Expr) -> int | None:
    return expr.value if isinstance(expr, ast.IntLiteral) else None


class _Simplifier(NodeTransformer):
    def __init__(self) -> None:
        self.changed = False

    def _mark(self) -> None:
        self.changed = True

    def visit_BinaryOp(self, node: ast.BinaryOp):
        self.generic_visit(node)
        lhs_const = _const(node.lhs)
        rhs_const = _const(node.rhs)
        op = node.op

        if op == "*":
            if rhs_const == 0 and is_pure_expr(node.lhs):
                self._mark()
                return _zero_like(node)
            if lhs_const == 0 and is_pure_expr(node.rhs):
                self._mark()
                return _zero_like(node)
            if rhs_const == 1:
                self._mark()
                return node.lhs
            if lhs_const == 1:
                self._mark()
                return node.rhs
        elif op == "+":
            if rhs_const == 0:
                self._mark()
                return node.lhs
            if lhs_const == 0:
                self._mark()
                return node.rhs
        elif op == "-":
            if rhs_const == 0:
                self._mark()
                return node.lhs
        elif op == "/":
            if rhs_const == 1:
                self._mark()
                return node.lhs
            if lhs_const == 0 and is_pure_expr(node.rhs) and rhs_const != 0:
                self._mark()
                return _zero_like(node)
        elif op == "&":
            if (rhs_const == 0 and is_pure_expr(node.lhs)) or \
                    (lhs_const == 0 and is_pure_expr(node.rhs)):
                self._mark()
                return _zero_like(node)
        elif op == "|":
            if rhs_const == 0:
                self._mark()
                return node.lhs
            if lhs_const == 0:
                self._mark()
                return node.rhs
        elif op == "^":
            if rhs_const == 0:
                self._mark()
                return node.lhs
            if lhs_const == 0:
                self._mark()
                return node.rhs
        elif op in ("<<", ">>"):
            if rhs_const == 0:
                self._mark()
                return node.lhs
        elif op == "&&":
            if lhs_const == 0:
                self._mark()
                return _zero_like(node)
        elif op == "||":
            if lhs_const is not None and lhs_const != 0:
                self._mark()
                return _one_like(node)
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp):
        self.generic_visit(node)
        if node.op == "-" and isinstance(node.operand, ast.UnaryOp) \
                and node.operand.op == "-":
            self._mark()
            return node.operand.operand
        if node.op == "!" and isinstance(node.operand, ast.UnaryOp) \
                and node.operand.op == "!":
            inner = node.operand.operand
            self._mark()
            cmp = ast.BinaryOp("!=", inner, ast.IntLiteral(0, loc=inner.loc),
                               loc=node.loc)
            cmp.ctype = node.ctype
            return cmp
        return node


def _zero_like(node: ast.Expr) -> ast.IntLiteral:
    # Suffixed so the replaced expression's type survives re-analysis.
    return typed_literal(0, node)


def _one_like(node: ast.Expr) -> ast.IntLiteral:
    return typed_literal(1, node)
