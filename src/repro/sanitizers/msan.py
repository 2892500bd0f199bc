"""MemorySanitizer: instrumentation pass and runtime.

MSan tracks whether memory is initialized (the VM's taint substrate,
:mod:`repro.vm.values`) and reports when an uninitialized value influences
control flow.  The pass wraps every branch condition (``if``, ``while``,
``for``, the ternary operator) in an ``msan_use`` check; the runtime simply
reports when the checked value carries taint.

The seeded LLVM defect in this sanitizer models the paper's Fig. 12f:
subtracting a constant from an uninitialized value is (incorrectly) treated
as producing a fully-defined value, so the branch check never fires.
"""

from __future__ import annotations

from typing import Optional

from repro.cdsl import ast_nodes as ast
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


class MsanPass(SanitizerPass):
    """The compile-time half of MSan."""

    name = rk.MSAN

    def instrument(self, unit: ast.TranslationUnit, sema: SemanticInfo,
                   ctx: InstrumentationContext) -> ast.TranslationUnit:
        for fn in unit.functions:
            if fn.body is not None:
                _instrument_stmt(fn.body, ctx)
        return unit

    def build_runtime(self, ctx: InstrumentationContext) -> "MsanRuntime":
        return MsanRuntime(ctx)


def _wrap_condition(cond: ast.Expr, ctx: InstrumentationContext) -> ast.Expr:
    return make_check("msan_use", cond, ctx, {"use": "branch"})


def _instrument_stmt(stmt: ast.Stmt, ctx: InstrumentationContext) -> None:
    if isinstance(stmt, ast.CompoundStmt):
        for inner in stmt.stmts:
            _instrument_stmt(inner, ctx)
    elif isinstance(stmt, ast.IfStmt):
        stmt.cond = _wrap_condition(stmt.cond, ctx)
        _instrument_stmt(stmt.then, ctx)
        if stmt.otherwise is not None:
            _instrument_stmt(stmt.otherwise, ctx)
    elif isinstance(stmt, ast.WhileStmt):
        stmt.cond = _wrap_condition(stmt.cond, ctx)
        _instrument_stmt(stmt.body, ctx)
    elif isinstance(stmt, ast.ForStmt):
        if stmt.cond is not None:
            stmt.cond = _wrap_condition(stmt.cond, ctx)
        _instrument_stmt(stmt.body, ctx)
    elif isinstance(stmt, ast.ExprStmt):
        stmt.expr = _instrument_expr(stmt.expr, ctx)
    elif isinstance(stmt, ast.ReturnStmt):
        if stmt.value is not None and _in_main(ctx):
            stmt.value = make_check("msan_use", stmt.value, ctx, {"use": "return"})


def _in_main(ctx: InstrumentationContext) -> bool:
    # MSan also flags returning uninitialized values from main; we apply the
    # check unconditionally since the subset's programs return from main.
    return True


def _instrument_expr(expr: ast.Expr, ctx: InstrumentationContext) -> ast.Expr:
    # The ternary operator's condition is also a "use" of the value.
    if isinstance(expr, ast.Conditional):
        expr.cond = _wrap_condition(expr.cond, ctx)
    for field_name in expr._fields:
        value = getattr(expr, field_name, None)
        if isinstance(value, ast.Expr) and field_name != "cond":
            setattr(expr, field_name, _instrument_expr(value, ctx))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, ast.Expr):
                    value[i] = _instrument_expr(item, ctx)
    return expr


class MsanRuntime:
    """Evaluates MSan checks against the VM's taint bits."""

    def __init__(self, ctx: InstrumentationContext) -> None:
        overrides = ctx.runtime_overrides()
        self.ignore_taint = bool(overrides.get("msan_ignore_taint", False))

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
        if kind != "msan_use" or self.ignore_taint:
            return None
        if not operands.get("tainted"):
            return None
        return make_report(rk.MSAN, rk.USE_OF_UNINITIALIZED_VALUE, loc,
                           message="conditional depends on uninitialized value")
