"""Constant folding.

Folds arithmetic/logical/relational operations over integer literals into a
single literal, folds casts of literals, and simplifies branches whose
condition is a constant.  Folding follows the C abstract machine for defined
operations and deliberately refuses to fold operations whose result would be
undefined (division by zero, out-of-range shifts, signed overflow): real
compilers keep those expressions — and that is what leaves UB visible to the
sanitizer pass at higher optimization levels.
"""

from __future__ import annotations

from typing import Optional

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.sema import SemanticInfo
from repro.cdsl.visitor import NodeTransformer
from repro.optim.passes import OptimizationPass, typed_literal


class ConstantFoldPass(OptimizationPass):
    name = "constant-fold"

    def run(self, unit: ast.TranslationUnit, sema: SemanticInfo) -> bool:
        folder = _Folder()
        for fn in unit.functions:
            if fn.body is not None:
                folder.visit(fn.body)
        return folder.changed


class _Folder(NodeTransformer):
    def __init__(self) -> None:
        self.changed = False

    # -- expressions ---------------------------------------------------------

    def visit_BinaryOp(self, node: ast.BinaryOp):
        self.generic_visit(node)
        lhs = _literal_value(node.lhs)
        rhs = _literal_value(node.rhs)
        if lhs is None or rhs is None:
            return node
        folded = _fold_binary(node.op, lhs, rhs, node.ctype)
        if folded is None:
            return node
        self.changed = True
        return _literal(folded, node)

    def visit_UnaryOp(self, node: ast.UnaryOp):
        self.generic_visit(node)
        value = _literal_value(node.operand)
        if value is None:
            return node
        if node.op == "-":
            result = -value
        elif node.op == "+":
            result = value
        elif node.op == "!":
            result = 0 if value else 1
        elif node.op == "~":
            result = ~value
        else:
            return node
        if isinstance(node.ctype, ct.IntType) and not node.ctype.contains(result):
            result = node.ctype.wrap(result)
        self.changed = True
        return _literal(result, node)

    def visit_Cast(self, node: ast.Cast):
        self.generic_visit(node)
        value = _literal_value(node.operand)
        if value is None or not isinstance(node.target_type, ct.IntType):
            return node
        self.changed = True
        return _literal(node.target_type.wrap(value), node)

    def visit_Conditional(self, node: ast.Conditional):
        self.generic_visit(node)
        cond = _literal_value(node.cond)
        if cond is None:
            return node
        self.changed = True
        return node.then if cond else node.otherwise

    # -- statements ----------------------------------------------------------

    def visit_IfStmt(self, node: ast.IfStmt):
        self.generic_visit(node)
        cond = _literal_value(node.cond)
        if cond is None:
            return node
        self.changed = True
        if cond:
            return node.then
        if node.otherwise is not None:
            return node.otherwise
        return None  # delete the statement entirely

    def visit_WhileStmt(self, node: ast.WhileStmt):
        self.generic_visit(node)
        cond = _literal_value(node.cond)
        if cond == 0:
            self.changed = True
            return None
        return node


# ---------------------------------------------------------------------------
# folding helpers
# ---------------------------------------------------------------------------

def _literal(value: int, template: ast.Expr) -> ast.IntLiteral:
    # Suffixed so the template's type survives semantic re-analysis (see
    # repro.optim.passes.literal_suffix).
    return typed_literal(value, template)


def _literal_value(expr: ast.Expr) -> Optional[int]:
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    return None


def _fold_binary(op: str, lhs: int, rhs: int, ctype) -> Optional[int]:
    """Fold a defined operation; return None when folding is not allowed."""
    int_type = ctype if isinstance(ctype, ct.IntType) else ct.INT
    if op == "+":
        result = lhs + rhs
    elif op == "-":
        result = lhs - rhs
    elif op == "*":
        result = lhs * rhs
    elif op in ("/", "%"):
        if rhs == 0:
            return None  # undefined: leave it for the sanitizer / runtime
        quotient = abs(lhs) // abs(rhs)
        if (lhs >= 0) != (rhs >= 0):
            quotient = -quotient
        result = quotient if op == "/" else lhs - quotient * rhs
    elif op in ("<<", ">>"):
        if rhs < 0 or rhs >= int_type.bits:
            return None  # undefined shift: do not fold
        result = lhs << rhs if op == "<<" else lhs >> rhs
    elif op == "&":
        result = lhs & rhs
    elif op == "|":
        result = lhs | rhs
    elif op == "^":
        result = lhs ^ rhs
    elif op == "&&":
        return 1 if (lhs and rhs) else 0
    elif op == "||":
        return 1 if (lhs or rhs) else 0
    elif op in ("==", "!=", "<", ">", "<=", ">="):
        table = {"==": lhs == rhs, "!=": lhs != rhs, "<": lhs < rhs,
                 ">": lhs > rhs, "<=": lhs <= rhs, ">=": lhs >= rhs}
        return int(table[op])
    else:
        return None
    if int_type.signed and not int_type.contains(result):
        return None  # signed overflow is UB: leave the expression alone
    return int_type.wrap(result)
