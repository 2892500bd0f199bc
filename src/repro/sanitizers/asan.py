"""AddressSanitizer: instrumentation pass and runtime.

The pass wraps every memory access (pointer dereference, array subscript,
``->`` member access) in an ``asan_access`` check.  The runtime keeps the
shadow/poison state in the VM memory:

* allocation poisons a red zone of :data:`~repro.sanitizers.base.ASAN_REDZONE`
  bytes on each side of the object (so, as in the paper, overflows are only
  detectable up to 32 bytes past the object);
* ``free`` poisons the heap block (use-after-free);
* leaving a lexical scope poisons the stack slot (use-after-scope), and
  re-entering it unpoisons it.

Seeded defects can suppress individual checks (``No Sanitizer Check`` /
``Incorrect Sanitizer Check`` / ``Incorrect Sanitizer Optimization``
categories) or weaken the runtime (``Wrong Red-Zone Buffer``, scope/free
poisoning skips).
"""

from __future__ import annotations

from typing import Optional

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.sema import SemanticInfo
from repro.cdsl.source import SourceLocation
from repro.sanitizers import report as rk
from repro.sanitizers.base import (
    ASAN_REDZONE,
    InstrumentationContext,
    SanitizerPass,
    make_check,
    make_report,
)
from repro.vm.errors import SanitizerReport
from repro.vm.memory import Memory, MemoryObject

#: ASan's shadow memory maps 8 application bytes to one shadow byte, so
#: scope-exit / free poisoning covers the object's slot rounded up to the
#: next granule boundary.  An access just past a dead object's end therefore
#: reads the use-after-scope/use-after-free poison value, not the redzone
#: value (cf. the paper's §2.1 shadow-memory discussion).
SHADOW_GRANULE = 8


def _granule_end(obj: MemoryObject) -> int:
    return obj.base + -(-obj.size // SHADOW_GRANULE) * SHADOW_GRANULE


class AsanPass(SanitizerPass):
    """The compile-time half of ASan."""

    name = rk.ASAN

    def instrument(self, unit: ast.TranslationUnit, sema: SemanticInfo,
                   ctx: InstrumentationContext) -> ast.TranslationUnit:
        for fn in unit.functions:
            if fn.body is not None:
                _instrument_stmt(fn.body, ctx)
        return unit

    def build_runtime(self, ctx: InstrumentationContext) -> "AsanRuntime":
        return AsanRuntime(ctx)


# ---------------------------------------------------------------------------
# Instrumentation walker
# ---------------------------------------------------------------------------

def _instrument_stmt(stmt: ast.Stmt, ctx: InstrumentationContext) -> None:
    if isinstance(stmt, ast.CompoundStmt):
        for inner in stmt.stmts:
            _instrument_stmt(inner, ctx)
    elif isinstance(stmt, ast.DeclStmt):
        for decl in stmt.decls:
            if isinstance(decl.init, ast.Expr):
                decl.init = _instrument_expr(decl.init, ctx)
            elif isinstance(decl.init, ast.InitList):
                _instrument_init_list(decl.init, ctx)
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
    # break/continue/empty statements carry no expressions.


def _instrument_init_list(init: ast.InitList, ctx: InstrumentationContext) -> None:
    for i, item in enumerate(init.items):
        if isinstance(item, ast.InitList):
            _instrument_init_list(item, ctx)
        elif isinstance(item, ast.Expr):
            init.items[i] = _instrument_expr(item, ctx)


def _instrument_expr(expr: ast.Expr, ctx: InstrumentationContext,
                     is_write: bool = False, skip_wrap: bool = False) -> ast.Expr:
    """Recursively instrument *expr*, wrapping memory accesses in checks."""
    if isinstance(expr, ast.Assignment):
        expr.value = _instrument_expr(expr.value, ctx)
        expr.target = _instrument_expr(expr.target, ctx, is_write=True)
        return expr
    if isinstance(expr, ast.IncDec):
        expr.operand = _instrument_expr(expr.operand, ctx, is_write=True)
        return expr
    if isinstance(expr, ast.AddressOf):
        # Taking an address performs no access: do not wrap the operand
        # itself, but still instrument accesses nested deeper (e.g. the
        # index of &a[b[i]]).
        expr.operand = _instrument_expr(expr.operand, ctx, skip_wrap=True)
        return expr

    # Instrument children first (bottom-up), then consider wrapping self.
    _instrument_children(expr, ctx)

    if skip_wrap or not _is_memory_access(expr):
        return expr
    detail = _access_detail(expr, is_write)
    return make_check("asan_access", expr, ctx, detail)


def _instrument_children(expr: ast.Expr, ctx: InstrumentationContext) -> None:
    for field_name in expr._fields:
        value = getattr(expr, field_name, None)
        if isinstance(value, ast.Expr):
            setattr(expr, field_name, _instrument_expr(value, ctx))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, ast.Expr):
                    value[i] = _instrument_expr(item, ctx)


def _is_memory_access(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Deref):
        return True
    if isinstance(expr, ast.ArraySubscript):
        return True
    if isinstance(expr, ast.MemberAccess):
        return expr.arrow
    return False


def _access_detail(expr: ast.Expr, is_write: bool) -> dict:
    size = expr.ctype.sizeof() if expr.ctype is not None else 1
    detail = {"size": size, "is_write": is_write}
    if isinstance(expr, ast.MemberAccess) and expr.arrow:
        base_type = ct.decay(expr.base.ctype) if expr.base.ctype else None
        if isinstance(base_type, ct.PointerType) and isinstance(base_type.pointee, ct.StructType):
            field_info = base_type.pointee.field_named(expr.field)
            if field_info is not None:
                detail["offset"] = field_info.offset
    return detail


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------

class AsanRuntime:
    """The run-time half of ASan: shadow poisoning and check evaluation."""

    def __init__(self, ctx: InstrumentationContext) -> None:
        overrides = ctx.runtime_overrides()
        self.redzone = int(overrides.get("redzone", ASAN_REDZONE))
        self.skip_scope_poisoning = bool(overrides.get("skip_scope_poisoning", False))
        self.skip_free_poisoning = bool(overrides.get("skip_free_poisoning", False))
        self.struct_array_redzone_min_fields = int(
            overrides.get("struct_array_redzone_min_fields", 0))
        self.global_array_padding_slack = int(
            overrides.get("global_array_padding_slack", 0))
        self._scope_exited_once: set = set()

    # -- allocation events -----------------------------------------------------

    def attach(self, memory: Memory) -> None:
        return None

    def on_alloc(self, memory: Memory, obj: MemoryObject) -> None:
        if (self.struct_array_redzone_min_fields and obj.kind == "global"
                and isinstance(obj.ctype, ct.ArrayType)
                and isinstance(obj.ctype.element, ct.StructType)
                and len(obj.ctype.element.fields) >= self.struct_array_redzone_min_fields):
            # Wrong Red-Zone Buffer defect: this object gets no protection.
            return
        if (self.global_array_padding_slack and obj.kind == "global"
                and isinstance(obj.ctype, ct.ArrayType)):
            # The defect treats the first few bytes past the array as padding
            # (cf. Fig. 12d): poison only beyond the slack.
            slack = self.global_array_padding_slack
            memory.poison(obj.base - self.redzone, self.redzone)
            memory.poison(obj.end + slack, max(0, self.redzone - slack))
            return
        memory.poison_redzones(obj, self.redzone)

    def on_free(self, memory: Memory, obj: MemoryObject) -> None:
        if self.skip_free_poisoning:
            return
        memory.poison(obj.base, _granule_end(obj) - obj.base)

    def on_scope_enter(self, memory: Memory, obj: MemoryObject) -> None:
        memory.unpoison(obj.base, obj.size)

    def on_scope_exit(self, memory: Memory, obj: MemoryObject) -> None:
        if self.skip_scope_poisoning:
            # The "Incorrect Sanitizer Optimization" scope defect (cf. the
            # paper's Fig. 12c): the scope check is dropped when a loop is
            # exited, i.e. from the second time the same slot leaves scope.
            if obj.oid in self._scope_exited_once:
                return
            self._scope_exited_once.add(obj.oid)
        memory.poison(obj.base, _granule_end(obj) - obj.base)

    # -- checks ------------------------------------------------------------------

    def check(self, kind: str, detail: dict, operands: dict,
              memory: Memory, loc: SourceLocation) -> Optional[SanitizerReport]:
        if kind != "asan_access":
            return None
        addr = operands.get("addr", 0)
        size = operands.get("size", detail.get("size", 1))
        if not memory.is_poisoned(addr, size):
            return None
        report_kind = self._classify(memory, addr)
        access = "WRITE" if operands.get("is_write") else "READ"
        return make_report(rk.ASAN, report_kind, loc,
                           message=f"{access} of size {size} at 0x{addr:x}",
                           address=addr, size=size)

    def _classify(self, memory: Memory, addr: int) -> str:
        obj = memory.object_at(addr)
        if obj is not None and obj.freed:
            return rk.HEAP_USE_AFTER_FREE
        if obj is not None and obj.dead:
            return rk.STACK_USE_AFTER_SCOPE
        nearest = memory.nearest_object(addr, self.redzone) if obj is None else obj
        if (obj is None and nearest is not None and not nearest.is_live
                and nearest.base <= addr < _granule_end(nearest)):
            # The access lands in the granule padding of a dead/freed slot:
            # its shadow byte carries the scope/free poison value, not the
            # redzone value, so real ASan headlines it as a use-after.
            return (rk.HEAP_USE_AFTER_FREE if nearest.freed
                    else rk.STACK_USE_AFTER_SCOPE)
        if nearest is None:
            return rk.STACK_BUFFER_OVERFLOW
        return {
            "global": rk.GLOBAL_BUFFER_OVERFLOW,
            "stack": rk.STACK_BUFFER_OVERFLOW,
            "heap": rk.HEAP_BUFFER_OVERFLOW,
        }.get(nearest.kind, rk.STACK_BUFFER_OVERFLOW)
