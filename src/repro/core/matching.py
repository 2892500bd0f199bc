"""Expression matching — ``GetMatchedExpr`` of Algorithm 1 (paper §3.2.1).

Given a seed program and a target UB type, statically scan the program for
every expression whose *code construct* matches the second column of
Table 1: array subscripts for array buffer overflow, pointer dereferences
for the pointer/memory UB types, arithmetic operators for the arithmetic UB
types, and branch conditions for use-of-uninitialized-memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.visitor import enclosing_statement, parent_map, walk
from repro.core.ub_types import UBType


@dataclass
class MatchedExpr:
    """One matched code construct and where it lives in the program."""

    ub_type: UBType
    expr: ast.Expr
    function: ast.FunctionDecl
    stmt: Optional[ast.Stmt]
    #: role-specific sub-expressions used by profiling/synthesis, keyed by
    #: role name ("index", "pointer", "lhs", "rhs", ...).
    operands: dict

    @property
    def key(self) -> str:
        """Stable profiling key for this match (based on node identity)."""
        return f"m{self.expr.node_id}"


def get_matched_exprs(unit: ast.TranslationUnit, ub_type: UBType) -> List[MatchedExpr]:
    """Find all expressions matching *ub_type*'s code construct (Table 1)."""
    matches: List[MatchedExpr] = []
    for fn in unit.functions:
        if fn.body is None:
            continue
        # Matching never mutates the tree, so one parent map (built at the
        # function's first match) serves every match in it.
        parents = None
        for node in walk(fn.body):
            operands = _match_node(node, ub_type)
            if operands is None:
                continue
            if parents is None:
                parents = parent_map(fn.body)
            stmt = enclosing_statement(fn.body, node, parents)
            matches.append(MatchedExpr(ub_type=ub_type, expr=node, function=fn,
                                       stmt=stmt, operands=operands))
        if ub_type == UBType.USE_OF_UNINIT_MEMORY:
            matches.extend(_match_conditions(fn))
    return matches


# ---------------------------------------------------------------------------
# per-UB-type matchers
# ---------------------------------------------------------------------------

def _match_node(node: ast.Node, ub_type: UBType) -> Optional[dict]:
    if not isinstance(node, ast.Expr):
        return None
    if ub_type == UBType.BUFFER_OVERFLOW_ARRAY:
        return _match_array_subscript(node)
    if ub_type == UBType.BUFFER_OVERFLOW_POINTER:
        return _match_pointer_deref(node, require_identifier=False)
    if ub_type == UBType.USE_AFTER_FREE:
        return _match_pointer_deref(node, require_identifier=True)
    if ub_type == UBType.USE_AFTER_SCOPE:
        return _match_pointer_deref(node, require_identifier=True)
    if ub_type == UBType.NULL_POINTER_DEREF:
        return _match_pointer_deref(node, require_identifier=True)
    if ub_type == UBType.INTEGER_OVERFLOW:
        return _match_arith(node)
    if ub_type == UBType.SHIFT_OVERFLOW:
        return _match_shift(node)
    if ub_type == UBType.DIVIDE_BY_ZERO:
        return _match_division(node)
    # USE_OF_UNINIT_MEMORY is matched at statement level (_match_conditions).
    return None


def _match_array_subscript(node: ast.Expr) -> Optional[dict]:
    """``a[x]`` where ``a`` is a declared array (known compile-time size)."""
    if not isinstance(node, ast.ArraySubscript):
        return None
    base = node.base
    if not isinstance(base, ast.Identifier) or base.symbol is None:
        return None
    ctype = base.symbol.ctype
    if not isinstance(ctype, ct.ArrayType):
        return None
    return {"base": base, "index": node.index, "length": ctype.length,
            "element_size": ctype.element.sizeof()}


def _match_pointer_deref(node: ast.Expr, require_identifier: bool) -> Optional[dict]:
    """``*p`` (and ``p[i]`` where ``p`` is a pointer variable)."""
    if isinstance(node, ast.Deref):
        pointer = node.pointer
        if require_identifier and not (isinstance(pointer, ast.Identifier)
                                       and pointer.symbol is not None
                                       and isinstance(ct.decay(pointer.symbol.ctype),
                                                      ct.PointerType)):
            return None
        elem_size = node.ctype.sizeof() if node.ctype is not None else 4
        return {"pointer": pointer, "element_size": elem_size}
    if isinstance(node, ast.ArraySubscript):
        base = node.base
        if not (isinstance(base, ast.Identifier) and base.symbol is not None
                and isinstance(base.symbol.ctype, ct.PointerType)):
            return None
        elem_size = node.ctype.sizeof() if node.ctype is not None else 4
        return {"pointer": base, "index": node.index, "element_size": elem_size}
    return None


def _match_arith(node: ast.Expr) -> Optional[dict]:
    """``x op y`` with a signed integer result (op in +, -, *)."""
    if not isinstance(node, ast.BinaryOp) or node.op not in ("+", "-", "*"):
        return None
    ctype = node.ctype
    if not (isinstance(ctype, ct.IntType) and ctype.signed and ctype.bits >= 32):
        return None
    return {"lhs": node.lhs, "rhs": node.rhs, "op": node.op, "bits": ctype.bits}


def _match_shift(node: ast.Expr) -> Optional[dict]:
    if not isinstance(node, ast.BinaryOp) or node.op not in ("<<", ">>"):
        return None
    lhs_type = ct.integer_promote(node.lhs.ctype or ct.INT)
    bits = lhs_type.bits if isinstance(lhs_type, ct.IntType) else 32
    return {"lhs": node.lhs, "rhs": node.rhs, "op": node.op, "bits": bits}


def _match_division(node: ast.Expr) -> Optional[dict]:
    if not isinstance(node, ast.BinaryOp) or node.op not in ("/", "%"):
        return None
    return {"lhs": node.lhs, "rhs": node.rhs, "op": node.op}


def _match_conditions(fn: ast.FunctionDecl) -> List[MatchedExpr]:
    """``if (x)`` / ``while (x)`` conditions of integer type (Table 1 row 9)."""
    matches: List[MatchedExpr] = []
    for node in walk(fn.body):
        cond = None
        if isinstance(node, (ast.IfStmt, ast.WhileStmt)):
            cond = node.cond
        elif isinstance(node, ast.ForStmt):
            cond = node.cond
        if cond is None:
            continue
        if cond.ctype is not None and not isinstance(cond.ctype, ct.IntType):
            continue
        matches.append(MatchedExpr(
            ub_type=UBType.USE_OF_UNINIT_MEMORY, expr=cond, function=fn,
            stmt=node, operands={"condition": cond}))
    return matches
