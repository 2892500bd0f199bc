"""UndefinedBehaviorSanitizer: instrumentation pass and runtime.

UBSan inserts tailored checks around individual operations (paper §5,
"Sanitization"): overflow checks on signed arithmetic, bound checks on
shifts, zero checks on divisions, null checks on pointer dereferences and
bound checks on constant-size array indexing.

Seeded defects model the folding/shortening and check-placement mistakes of
the paper's Table 6 (e.g. the boolean-widened division of Fig. 12b or the
``++(*p)`` null-check confusion of Fig. 12e).
"""

from __future__ import annotations

from typing import Optional

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.sema import SemanticInfo
from repro.cdsl.source import SourceLocation
from repro.sanitizers import report as rk
from repro.sanitizers.base import (
    InstrumentationContext,
    SanitizerPass,
    make_check,
    make_report,
)
from repro.vm.errors import SanitizerReport
from repro.vm.memory import Memory, MemoryObject

#: Accesses below this address are reported as null dereferences, mirroring
#: the real runtimes' treatment of the zero page.  All VM segments start at
#: 0x1_0000 or above (:mod:`repro.vm.memory`), so only null-based pointer
#: arithmetic lands here.
_NULL_PAGE = 4096


class UbsanPass(SanitizerPass):
    """The compile-time half of UBSan."""

    name = rk.UBSAN

    def instrument(self, unit: ast.TranslationUnit, sema: SemanticInfo,
                   ctx: InstrumentationContext) -> ast.TranslationUnit:
        for fn in unit.functions:
            if fn.body is not None:
                _instrument_stmt(fn.body, ctx)
        return unit

    def build_runtime(self, ctx: InstrumentationContext) -> "UbsanRuntime":
        return UbsanRuntime()


def _instrument_stmt(stmt: ast.Stmt, ctx: InstrumentationContext) -> None:
    if isinstance(stmt, ast.CompoundStmt):
        for inner in stmt.stmts:
            _instrument_stmt(inner, ctx)
    elif isinstance(stmt, ast.DeclStmt):
        for decl in stmt.decls:
            if isinstance(decl.init, ast.Expr):
                decl.init = _instrument_expr(decl.init, ctx)
    elif isinstance(stmt, ast.ExprStmt):
        stmt.expr = _instrument_expr(stmt.expr, ctx)
    elif isinstance(stmt, ast.IfStmt):
        stmt.cond = _instrument_expr(stmt.cond, ctx)
        _instrument_stmt(stmt.then, ctx)
        if stmt.otherwise is not None:
            _instrument_stmt(stmt.otherwise, ctx)
    elif isinstance(stmt, ast.WhileStmt):
        stmt.cond = _instrument_expr(stmt.cond, ctx)
        _instrument_stmt(stmt.body, ctx)
    elif isinstance(stmt, ast.ForStmt):
        if isinstance(stmt.init, ast.Stmt):
            _instrument_stmt(stmt.init, ctx)
        elif isinstance(stmt.init, ast.Expr):
            stmt.init = _instrument_expr(stmt.init, ctx)
        if stmt.cond is not None:
            stmt.cond = _instrument_expr(stmt.cond, ctx)
        if stmt.step is not None:
            stmt.step = _instrument_expr(stmt.step, ctx)
        _instrument_stmt(stmt.body, ctx)
    elif isinstance(stmt, ast.ReturnStmt):
        if stmt.value is not None:
            stmt.value = _instrument_expr(stmt.value, ctx)


def _instrument_expr(expr: ast.Expr, ctx: InstrumentationContext,
                     in_compound_assign: bool = False,
                     in_incdec: bool = False) -> ast.Expr:
    # Recurse with context flags first.
    if isinstance(expr, ast.Assignment):
        compound = expr.op != "="
        expr.value = _instrument_expr(expr.value, ctx,
                                      in_compound_assign=compound)
        expr.target = _instrument_expr(expr.target, ctx,
                                       in_compound_assign=compound)
        return expr
    if isinstance(expr, ast.IncDec):
        expr.operand = _instrument_expr(expr.operand, ctx, in_incdec=True)
        return expr
    if isinstance(expr, ast.AddressOf):
        # &expr performs no dereference; skip the null check on the operand
        # itself but instrument nested expressions.
        _instrument_children(expr.operand, ctx)
        return expr

    _instrument_children(expr, ctx, in_compound_assign, in_incdec)

    flags = {"in_compound_assign": in_compound_assign, "in_incdec": in_incdec}

    if isinstance(expr, ast.BinaryOp):
        result_type = expr.ctype
        if expr.op in ("+", "-", "*") and _is_signed_int(result_type):
            detail = {"op": expr.op, "bits": result_type.bits, **flags}
            return make_check("ubsan_arith", expr, ctx, detail)
        if expr.op in ("<<", ">>"):
            lhs_type = ct.integer_promote(expr.lhs.ctype or ct.INT)
            bits = lhs_type.bits if isinstance(lhs_type, ct.IntType) else 32
            detail = {"op": expr.op, "bits": bits, **flags}
            return make_check("ubsan_shift", expr, ctx, detail)
        if expr.op in ("/", "%"):
            detail = {"op": expr.op, **flags}
            return make_check("ubsan_div", expr, ctx, detail)
        return expr

    if isinstance(expr, ast.Deref):
        size = expr.ctype.sizeof() if expr.ctype is not None else 1
        return make_check("ubsan_null", expr, ctx, {"size": size, **flags})

    if isinstance(expr, ast.MemberAccess) and expr.arrow:
        size = expr.ctype.sizeof() if expr.ctype is not None else 1
        return make_check("ubsan_null", expr, ctx, {"size": size, **flags})

    if isinstance(expr, ast.ArraySubscript):
        base_type = expr.base.ctype
        if isinstance(base_type, ct.ArrayType):
            detail = {"length": base_type.length,
                      "size": base_type.element.sizeof(), **flags}
            return make_check("ubsan_bounds", expr, ctx, detail)
        if isinstance(ct.decay(base_type) if base_type else None, ct.PointerType):
            # p[i] dereferences p just like *(p + i): it needs the same null
            # check (-fsanitize=null instruments every access through a
            # pointer base).
            size = expr.ctype.sizeof() if expr.ctype is not None else 1
            return make_check("ubsan_null", expr, ctx, {"size": size, **flags})
        return expr

    return expr


def _instrument_children(expr: ast.Expr, ctx: InstrumentationContext,
                         in_compound_assign: bool = False,
                         in_incdec: bool = False) -> None:
    for field_name in expr._fields:
        value = getattr(expr, field_name, None)
        if isinstance(value, ast.Expr):
            setattr(expr, field_name,
                    _instrument_expr(value, ctx, in_compound_assign, in_incdec))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, ast.Expr):
                    value[i] = _instrument_expr(item, ctx, in_compound_assign,
                                                in_incdec)


def _is_signed_int(ctype: Optional[ct.CType]) -> bool:
    return isinstance(ctype, ct.IntType) and ctype.signed


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------

class UbsanRuntime:
    """Evaluates UBSan checks; keeps no shadow state."""

    def attach(self, memory: Memory) -> None:
        return None

    def on_alloc(self, memory: Memory, obj: MemoryObject) -> None:
        return None

    def on_free(self, memory: Memory, obj: MemoryObject) -> None:
        return None

    def on_scope_enter(self, memory: Memory, obj: MemoryObject) -> None:
        return None

    def on_scope_exit(self, memory: Memory, obj: MemoryObject) -> None:
        return None

    def check(self, kind: str, detail: dict, operands: dict,
              memory: Memory, loc: SourceLocation) -> Optional[SanitizerReport]:
        if kind == "ubsan_arith":
            return self._check_arith(detail, operands, loc)
        if kind == "ubsan_shift":
            return self._check_shift(detail, operands, loc)
        if kind == "ubsan_div":
            return self._check_div(detail, operands, loc)
        if kind == "ubsan_null":
            return self._check_null(operands, loc)
        if kind == "ubsan_bounds":
            return self._check_bounds(detail, operands, loc)
        return None

    def _check_arith(self, detail: dict, operands: dict,
                     loc: SourceLocation) -> Optional[SanitizerReport]:
        ctype = operands.get("ctype")
        if not isinstance(ctype, ct.IntType) or not ctype.signed:
            return None
        lhs, rhs, op = operands.get("lhs", 0), operands.get("rhs", 0), operands.get("op")
        exact = {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs}.get(op)
        if exact is None:
            return None
        if ctype.contains(exact):
            return None
        return make_report(rk.UBSAN, rk.SIGNED_INTEGER_OVERFLOW, loc,
                           message=f"{lhs} {op} {rhs} cannot be represented "
                                   f"in type {ctype}")

    def _check_shift(self, detail: dict, operands: dict,
                     loc: SourceLocation) -> Optional[SanitizerReport]:
        bits = detail.get("bits", 32)
        rhs = operands.get("rhs", 0)
        if 0 <= rhs < bits:
            return None
        return make_report(rk.UBSAN, rk.SHIFT_OUT_OF_BOUNDS, loc,
                           message=f"shift amount {rhs} is out of range for "
                                   f"{bits}-bit type")

    def _check_div(self, detail: dict, operands: dict,
                   loc: SourceLocation) -> Optional[SanitizerReport]:
        rhs = operands.get("rhs", 1)
        if rhs != 0:
            return None
        return make_report(rk.UBSAN, rk.DIVISION_BY_ZERO, loc,
                           message="division by zero")

    def _check_null(self, operands: dict,
                    loc: SourceLocation) -> Optional[SanitizerReport]:
        addr = operands.get("addr", 1)
        # Null-page semantics, like the real runtimes: an access whose
        # address lands in the first page is a null dereference (p[i] with a
        # null p computes 0 + i*size, which is never exactly 0 for i > 0).
        # Every legitimate VM segment starts far above this page.
        if not 0 <= addr < _NULL_PAGE:
            return None
        return make_report(rk.UBSAN, rk.NULL_POINTER_DEREFERENCE, loc,
                           message="load/store through a null pointer")

    def _check_bounds(self, detail: dict, operands: dict,
                      loc: SourceLocation) -> Optional[SanitizerReport]:
        length = detail.get("length")
        index = operands.get("index")
        if length is None or index is None:
            return None
        if 0 <= index < length:
            return None
        return make_report(rk.UBSAN, rk.ARRAY_INDEX_OUT_OF_BOUNDS, loc,
                           message=f"index {index} out of bounds for array "
                                   f"of {length} elements")
