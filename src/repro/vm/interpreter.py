"""The execution engine (VM) for compiled programs.

The interpreter executes the (possibly optimized and sanitizer-instrumented)
AST directly.  It provides everything the paper's testing loop needs from a
real machine:

* a flat memory model with globals, stack frames and a heap
  (:mod:`repro.vm.memory`),
* benign-by-default undefined behaviour — a missed UB does **not** crash the
  simulated process, it silently reads garbage / wraps / writes into a spill
  area, which is exactly the false-negative situation UBfuzz detects,
* sanitizer checks: :class:`~repro.cdsl.ast_nodes.SanitizerCheck` nodes are
  evaluated by collecting their operands and asking the attached
  :class:`SanitizerRuntime` whether to abort with a report,
* the ``(line, offset)`` sites the crash-site mapping oracle reads: the
  crash site of a sanitizer abort and the set of executed sites, plus a
  per-site hook (``site_callback``) for the readers that need sites in
  execution order, and
* profiling hooks used by the UB program generator (paper §3.2.2).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Protocol

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.sema import SemanticInfo, VarSymbol
from repro.cdsl.source import SourceLocation
from repro.vm.errors import (
    BreakSignal,
    ContinueSignal,
    ExecutionResult,
    ExecutionTimeout,
    ExitSignal,
    ReturnSignal,
    SanitizerAbort,
    SanitizerReport,
    VMFault,
)
from repro.telemetry import runtime as telemetry
from repro.vm.memory import Memory, MemoryObject
from repro.vm.values import RuntimeValue, coerce, make_value

DEFAULT_MAX_STEPS = 200_000
_MAX_CALL_DEPTH = 64


class SanitizerRuntime(Protocol):
    """The runtime side of a sanitizer, attached to a compiled binary.

    The concrete implementations live in :mod:`repro.sanitizers`; the VM only
    relies on this protocol so the dependency points from sanitizers to the
    VM and not the other way around.
    """

    def attach(self, memory: Memory) -> None: ...

    def on_alloc(self, memory: Memory, obj: MemoryObject) -> None: ...

    def on_free(self, memory: Memory, obj: MemoryObject) -> None: ...

    def on_scope_enter(self, memory: Memory, obj: MemoryObject) -> None: ...

    def on_scope_exit(self, memory: Memory, obj: MemoryObject) -> None: ...

    def check(self, kind: str, detail: dict, operands: dict,
              memory: Memory, loc: SourceLocation) -> Optional[SanitizerReport]: ...


class NullRuntime:
    """A no-op sanitizer runtime used for binaries built without -fsanitize."""

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
        return None


class Frame:
    """One function activation: maps symbol uid -> MemoryObject."""

    _counter = 0

    def __init__(self, function: ast.FunctionDecl) -> None:
        Frame._counter += 1
        self.frame_id = Frame._counter
        self.function = function
        self.slots: Dict[int, MemoryObject] = {}
        self.decl_slots: Dict[int, MemoryObject] = {}


class Interpreter:
    """Executes one program.  Create a fresh instance per run.

    The result keeps the run's executed-site set and crash site, not the
    order the sites ran in.  A reader that needs that order passes
    ``site_callback``: it receives the ``(line, offset)`` site of every
    step at a known location, in execution order.
    """

    def __init__(self, unit: ast.TranslationUnit, sema: SemanticInfo,
                 runtime: Optional[SanitizerRuntime] = None,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 profile_collector=None,
                 site_callback: Optional[Callable[[tuple[int, int]], None]] = None,
                 call_hook: Optional[Callable[[str], None]] = None) -> None:
        self.unit = unit
        self.sema = sema
        self.runtime = runtime or NullRuntime()
        self.max_steps = max_steps
        self.profile_collector = profile_collector
        self.site_callback = site_callback
        self.call_hook = call_hook

        self.memory = Memory()
        self.runtime.attach(self.memory)
        self.globals: Dict[int, MemoryObject] = {}
        self.frames: List[Frame] = []
        self._scope_stack: List[List[MemoryObject]] = []
        self._strings: Dict[int, str] = {}
        self._string_keys: Dict[str, int] = {}
        self.stdout: List[str] = []
        self.steps = 0
        self.executed_sites: set[tuple[int, int]] = set()
        self.last_site: Optional[tuple[int, int]] = None
        # Per-run evaluator caches (precomputed values keyed by node id;
        # node ids are unique within one translation unit and the annotated
        # types never change during a run).
        self._const_cache: Dict[int, RuntimeValue] = {}
        self._binop_type_cache: Dict[int, tuple] = {}

        if profile_collector is not None:
            self.memory.alloc_hooks.append(profile_collector.on_alloc)
            self.memory.free_hooks.append(profile_collector.on_free)

    # ------------------------------------------------------------------ run

    def run(self) -> ExecutionResult:
        """Execute the program's ``main`` and return the outcome."""
        try:
            self._setup_globals()
            main = self.unit.function_named("main")
            if main is None or main.body is None:
                raise VMFault("program has no main function")
            value = self._call_function(main, [])
            return self._result("ok", exit_code=int(value) & 0xFFFFFFFF)
        except SanitizerAbort as abort:
            site = abort.report.location.site() if abort.report.location.is_known \
                else self.last_site
            return self._result("sanitizer_report", report=abort.report,
                                crash_site=site)
        except ExitSignal as sig:
            return self._result("ok", exit_code=sig.code)
        except ExecutionTimeout:
            return self._result("timeout")
        except (VMFault, RecursionError) as fault:
            return self._result("vm_error", error=str(fault))

    def _result(self, status: str, exit_code: Optional[int] = None,
                report: Optional[SanitizerReport] = None,
                crash_site: Optional[tuple[int, int]] = None,
                error: Optional[str] = None) -> ExecutionResult:
        # One telemetry touch per run, never per tick: the VM hot loop must
        # stay instrumentation-free (the nullable fast-path rule).
        registry = telemetry.metrics()
        if registry is not None:
            registry.inc("vm.runs")
            registry.inc("vm.steps", self.steps)
        return ExecutionResult(
            status=status, exit_code=exit_code, report=report,
            crash_site=crash_site,
            executed_sites=frozenset(self.executed_sites),
            stdout="".join(self.stdout), steps=self.steps, error=error)

    # --------------------------------------------------------------- setup

    def _setup_globals(self) -> None:
        # Two phases: allocate all globals first (so initializers may take
        # the address of globals declared later), then run initializers in
        # declaration order.
        pending: List[ast.VarDecl] = []
        for decl in self.unit.globals:
            symbol = decl.symbol
            if symbol is None:
                raise VMFault(f"global {decl.name!r} was not analysed")
            obj = self.memory.allocate(
                symbol.ctype.sizeof(), "global", decl.name, symbol.ctype,
                zero_init=True)
            self.globals[symbol.uid] = obj
            self.runtime.on_alloc(self.memory, obj)
            pending.append(decl)
        for decl in pending:
            if decl.init is not None:
                obj = self.globals[decl.symbol.uid]
                self._store_initializer(obj.base, decl.symbol.ctype, decl.init)

    # --------------------------------------------------------------- frames

    @property
    def frame(self) -> Frame:
        if not self.frames:
            raise VMFault("no active frame")
        return self.frames[-1]

    def _call_function(self, fn: ast.FunctionDecl, args: List[RuntimeValue]) -> RuntimeValue:
        if len(self.frames) >= _MAX_CALL_DEPTH:
            raise VMFault("call depth limit exceeded")
        frame = Frame(fn)
        self.frames.append(frame)
        try:
            for i, param in enumerate(fn.params):
                symbol = param.symbol
                obj = self.memory.allocate(symbol.ctype.sizeof(), "stack",
                                           param.name, symbol.ctype,
                                           frame_id=frame.frame_id)
                self.runtime.on_alloc(self.memory, obj)
                frame.slots[symbol.uid] = obj
                value = args[i] if i < len(args) else make_value(0)
                self._write_value(obj.base, symbol.ctype, value)
            try:
                self._exec_stmt(fn.body)
            except ReturnSignal as ret:
                return ret.value if ret.value is not None else make_value(0)
            return make_value(0)
        finally:
            self.frames.pop()

    # ----------------------------------------------------------- statements

    def _tick(self, loc: SourceLocation) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise ExecutionTimeout(self.max_steps)
        if loc.line > 0:
            site = (loc.line, loc.col)
            self.last_site = site
            self.executed_sites.add(site)
            if self.site_callback is not None:
                self.site_callback(site)

    def _exec_stmt(self, stmt: ast.Stmt) -> None:
        self._tick(stmt.loc)
        handler = _STMT_DISPATCH.get(stmt.__class__)
        if handler is None:
            raise VMFault(f"cannot execute statement {type(stmt).__name__}")
        handler(self, stmt)

    def _exec_DeclStmt(self, stmt: ast.DeclStmt) -> None:
        for decl in stmt.decls:
            self._exec_decl(decl)

    def _exec_ExprStmt(self, stmt: ast.ExprStmt) -> None:
        self._eval(stmt.expr)

    def _exec_IfStmt(self, stmt: ast.IfStmt) -> None:
        cond = self._eval(stmt.cond)
        if cond.is_true:
            self._exec_stmt(stmt.then)
        elif stmt.otherwise is not None:
            self._exec_stmt(stmt.otherwise)

    def _exec_WhileStmt(self, stmt: ast.WhileStmt) -> None:
        while True:
            self._tick(stmt.loc)
            if not self._eval(stmt.cond).is_true:
                break
            try:
                self._exec_stmt(stmt.body)
            except BreakSignal:
                break
            except ContinueSignal:
                continue

    def _exec_ReturnStmt(self, stmt: ast.ReturnStmt) -> None:
        value = self._eval(stmt.value) if stmt.value is not None else None
        raise ReturnSignal(value)

    def _exec_BreakStmt(self, stmt: ast.BreakStmt) -> None:
        raise BreakSignal()

    def _exec_ContinueStmt(self, stmt: ast.ContinueStmt) -> None:
        raise ContinueSignal()

    def _exec_EmptyStmt(self, stmt: ast.EmptyStmt) -> None:
        return None

    def _exec_compound(self, block: ast.CompoundStmt) -> None:
        self._scope_stack.append([])
        try:
            for stmt in block.stmts:
                self._exec_stmt(stmt)
        finally:
            self._exit_scope()

    def _exec_for(self, stmt: ast.ForStmt) -> None:
        # The for-init declaration lives in its own scope enclosing the body.
        self._scope_stack.append([])
        try:
            if isinstance(stmt.init, ast.Stmt):
                self._exec_stmt(stmt.init)
            elif isinstance(stmt.init, ast.Expr):
                self._eval(stmt.init)
            while True:
                self._tick(stmt.loc)
                if stmt.cond is not None and not self._eval(stmt.cond).is_true:
                    break
                try:
                    self._exec_stmt(stmt.body)
                except BreakSignal:
                    break
                except ContinueSignal:
                    pass
                if stmt.step is not None:
                    self._eval(stmt.step)
        finally:
            self._exit_scope()

    def _exit_scope(self) -> None:
        for obj in self._scope_stack.pop():
            self.memory.mark_scope_dead(obj)
            self.runtime.on_scope_exit(self.memory, obj)

    def _exec_decl(self, decl: ast.VarDecl) -> None:
        symbol = decl.symbol
        if symbol is None:
            raise VMFault(f"local {decl.name!r} was not analysed")
        frame = self.frame
        existing = frame.decl_slots.get(decl.node_id)
        if existing is not None:
            # Re-execution of the same declaration (a loop iteration):
            # reuse the slot, which models C's fixed stack layout.
            obj = existing
            self.memory.revive_for_scope(obj)
            self.runtime.on_scope_enter(self.memory, obj)
        else:
            obj = self.memory.allocate(symbol.ctype.sizeof(), "stack",
                                       decl.name, symbol.ctype,
                                       scope_id=symbol.scope.scope_id,
                                       frame_id=frame.frame_id)
            self.runtime.on_alloc(self.memory, obj)
            frame.decl_slots[decl.node_id] = obj
        frame.slots[symbol.uid] = obj
        self._register_scope_object(decl, obj)
        if decl.init is not None:
            self._store_initializer(obj.base, symbol.ctype, decl.init)

    def _register_scope_object(self, decl: ast.VarDecl, obj: MemoryObject) -> None:
        # Attach the object to the innermost executing block, whose exit
        # marks it dead (use-after-scope substrate).
        if self._scope_stack:
            self._scope_stack[-1].append(obj)

    # -- initializers --------------------------------------------------------

    def _store_initializer(self, addr: int, ctype: ct.CType, init: ast.Node) -> None:
        if isinstance(init, ast.InitList):
            if isinstance(ctype, ct.ArrayType):
                elem_size = ctype.element.sizeof()
                for i in range(ctype.length):
                    if i < len(init.items):
                        self._store_initializer(addr + i * elem_size,
                                                ctype.element, init.items[i])
                    else:
                        self._write_value(addr + i * elem_size, ctype.element,
                                          make_value(0))
            elif isinstance(ctype, ct.StructType):
                for i, field in enumerate(ctype.fields):
                    if i < len(init.items):
                        self._store_initializer(addr + field.offset,
                                                field.ctype, init.items[i])
                    else:
                        self._write_value(addr + field.offset, field.ctype,
                                          make_value(0))
            else:
                value = self._eval(init.items[0]) if init.items else make_value(0)
                self._write_value(addr, ctype, value)
        else:
            value = self._eval(init)
            self._write_value(addr, ctype, coerce(value, ctype))

    # --------------------------------------------------------------- memory

    def _write_value(self, addr: int, ctype: ct.CType, value: RuntimeValue) -> None:
        size = ctype.sizeof() if not isinstance(ctype, ct.ArrayType) else 8
        if isinstance(ctype, ct.ArrayType):
            # Storing "an array" only happens for pointer-decayed contexts.
            size = 8
        self.memory.write_int(addr, size, value.value)
        self.memory.mark_initialized(addr, size, initialized=not value.tainted)

    def _read_value(self, addr: int, ctype: ct.CType) -> RuntimeValue:
        if isinstance(ctype, ct.ArrayType):
            # Reading an array lvalue yields its address (decay).
            return make_value(addr)
        if isinstance(ctype, ct.StructType):
            # Struct rvalues are represented by their address; struct
            # assignment is handled as a byte copy in _assign.
            return make_value(addr)
        size = ctype.sizeof()
        signed = isinstance(ctype, ct.IntType) and ctype.signed
        raw, tainted = self.memory.read_int(addr, size, signed)
        return RuntimeValue(raw, tainted)

    # ---------------------------------------------------------- expressions

    def _eval(self, expr: ast.Expr) -> RuntimeValue:
        self._tick(expr.loc)
        handler = _EXPR_DISPATCH.get(expr.__class__)
        if handler is None:
            raise VMFault(f"cannot evaluate {type(expr).__name__}")
        return handler(self, expr)

    def _eval_IntLiteral(self, expr: ast.IntLiteral) -> RuntimeValue:
        # RuntimeValue is immutable, so the same literal node can hand out
        # one precomputed value for every evaluation of this run.
        value = self._const_cache.get(expr.node_id)
        if value is None:
            value = make_value(expr.value)
            self._const_cache[expr.node_id] = value
        return value

    def _eval_StringLiteral(self, expr: ast.StringLiteral) -> RuntimeValue:
        # String literals are only used as printf formats; intern them as
        # pseudo-addresses the printf builtin can map back to text.
        key = self._intern_string(expr.value)
        return make_value(key)

    def _intern_string(self, text: str) -> int:
        addr = self._string_keys.get(text)
        if addr is None:
            addr = 0x7000_0000 + len(self._strings) * 0x100
            self._strings[addr] = text
            self._string_keys[text] = addr
        return addr

    def _eval_Identifier(self, expr: ast.Identifier) -> RuntimeValue:
        addr, ctype = self._lvalue(expr)
        return self._read_value(addr, ctype)

    def _eval_BinaryOp(self, expr: ast.BinaryOp) -> RuntimeValue:
        op = expr.op
        if op == "&&":
            lhs = self._eval(expr.lhs)
            if not lhs.is_true:
                return RuntimeValue(0, lhs.tainted)
            rhs = self._eval(expr.rhs)
            return RuntimeValue(1 if rhs.is_true else 0, lhs.tainted or rhs.tainted)
        if op == "||":
            lhs = self._eval(expr.lhs)
            if lhs.is_true:
                return RuntimeValue(1, lhs.tainted)
            rhs = self._eval(expr.rhs)
            return RuntimeValue(1 if rhs.is_true else 0, lhs.tainted or rhs.tainted)
        lhs = self._eval(expr.lhs)
        rhs = self._eval(expr.rhs)
        return self._apply_binary(expr, op, lhs, rhs)

    def _binop_types(self, expr: ast.Expr):
        """(lhs type, rhs type, result type) of a binary node, memoized: the
        annotated types are fixed for the duration of one run."""
        cached = self._binop_type_cache.get(expr.node_id)
        if cached is None:
            cached = (_operand_type(expr, "lhs"), _operand_type(expr, "rhs"),
                      expr.ctype if isinstance(expr.ctype, ct.IntType) else ct.INT)
            self._binop_type_cache[expr.node_id] = cached
        return cached

    def _apply_binary(self, expr: ast.Expr, op: str, lhs: RuntimeValue,
                      rhs: RuntimeValue) -> RuntimeValue:
        tainted = lhs.tainted or rhs.tainted
        lhs_type, rhs_type, result_type = self._binop_types(expr)

        # Pointer arithmetic.
        if isinstance(lhs_type, (ct.PointerType, ct.ArrayType)) and op in ("+", "-"):
            elem = _pointee_size(lhs_type)
            if isinstance(rhs_type, (ct.PointerType, ct.ArrayType)) and op == "-":
                return RuntimeValue((lhs.value - rhs.value) // max(1, elem), tainted)
            offset = rhs.value * elem
            value = lhs.value + offset if op == "+" else lhs.value - offset
            return RuntimeValue(value, tainted)
        if isinstance(rhs_type, (ct.PointerType, ct.ArrayType)) and op == "+":
            elem = _pointee_size(rhs_type)
            return RuntimeValue(rhs.value + lhs.value * elem, tainted)

        a, b = lhs.value, rhs.value
        func = _INT_BINOPS.get(op)
        if func is not None:
            raw = func(a, b)
        elif op == "<<" or op == ">>":
            if b >= 0:
                bits = max(1, _bits_of(result_type))
                raw = a << (b % bits) if op == "<<" else a >> (b % bits)
            else:
                raw = a
        elif op in _COMPARE_OPS:
            return RuntimeValue(int(_COMPARE_OPS[op](a, b)), tainted)
        else:
            raise VMFault(f"unsupported binary operator {op!r}")
        wrapped = result_type.wrap(raw) if isinstance(result_type, ct.IntType) else raw
        return RuntimeValue(wrapped, tainted)

    def _eval_UnaryOp(self, expr: ast.UnaryOp) -> RuntimeValue:
        operand = self._eval(expr.operand)
        result_type = expr.ctype if isinstance(expr.ctype, ct.IntType) else ct.INT
        if expr.op == "-":
            return RuntimeValue(result_type.wrap(-operand.value), operand.tainted)
        if expr.op == "+":
            return RuntimeValue(result_type.wrap(operand.value), operand.tainted)
        if expr.op == "!":
            return RuntimeValue(0 if operand.is_true else 1, operand.tainted)
        if expr.op == "~":
            return RuntimeValue(result_type.wrap(~operand.value), operand.tainted)
        raise VMFault(f"unsupported unary operator {expr.op!r}")

    def _eval_IncDec(self, expr: ast.IncDec) -> RuntimeValue:
        addr, ctype = self._lvalue(expr.operand)
        old = self._read_value(addr, ctype)
        delta = 1
        if isinstance(ctype, ct.PointerType):
            delta = max(1, ctype.pointee.sizeof())
        new_raw = old.value + delta if expr.op == "++" else old.value - delta
        new = coerce(RuntimeValue(new_raw, old.tainted), ctype)
        self._write_value(addr, ctype, new)
        return new if expr.is_prefix else old

    def _eval_Assignment(self, expr: ast.Assignment) -> RuntimeValue:
        target_type = expr.target.ctype or ct.INT
        if isinstance(target_type, ct.StructType):
            return self._assign_struct(expr)
        if expr.op == "=":
            value = self._eval(expr.value)
        else:
            # Compound assignment: read-modify-write.
            current_addr, current_type = self._lvalue(expr.target)
            current = self._read_value(current_addr, current_type)
            rhs = self._eval(expr.value)
            op = expr.op[:-1]
            value = self._apply_binary(expr, op, current, rhs)
            value = coerce(value, current_type)
            self._write_value(current_addr, current_type, value)
            return value
        addr, ctype = self._lvalue(expr.target)
        value = coerce(value, ctype)
        self._write_value(addr, ctype, value)
        return value

    def _assign_struct(self, expr: ast.Assignment) -> RuntimeValue:
        dst_addr, dst_type = self._lvalue(expr.target)
        src_addr, _src_type = self._lvalue(expr.value)
        size = dst_type.sizeof()
        data, tainted = self.memory.read_bytes(src_addr, size)
        self.memory.write_bytes(dst_addr, data)
        if tainted:
            self.memory.mark_initialized(dst_addr, size, initialized=False)
        return make_value(dst_addr)

    def _eval_ArraySubscript(self, expr: ast.ArraySubscript) -> RuntimeValue:
        addr, ctype = self._lvalue(expr)
        return self._read_value(addr, ctype)

    def _eval_Deref(self, expr: ast.Deref) -> RuntimeValue:
        addr, ctype = self._lvalue(expr)
        return self._read_value(addr, ctype)

    def _eval_MemberAccess(self, expr: ast.MemberAccess) -> RuntimeValue:
        addr, ctype = self._lvalue(expr)
        return self._read_value(addr, ctype)

    def _eval_AddressOf(self, expr: ast.AddressOf) -> RuntimeValue:
        addr, _ctype = self._lvalue(expr.operand)
        return make_value(addr)

    def _eval_Cast(self, expr: ast.Cast) -> RuntimeValue:
        value = self._eval(expr.operand)
        return coerce(value, expr.target_type)

    def _eval_Conditional(self, expr: ast.Conditional) -> RuntimeValue:
        cond = self._eval(expr.cond)
        if cond.is_true:
            return self._eval(expr.then)
        return self._eval(expr.otherwise)

    def _eval_CommaExpr(self, expr: ast.CommaExpr) -> RuntimeValue:
        value = make_value(0)
        for part in expr.parts:
            value = self._eval(part)
        return value

    def _eval_SizeofExpr(self, expr: ast.SizeofExpr) -> RuntimeValue:
        if expr.target_type is not None:
            return make_value(expr.target_type.sizeof())
        ctype = expr.operand.ctype if expr.operand is not None else None
        return make_value(ctype.sizeof() if ctype is not None else 1)

    def _eval_Call(self, expr: ast.Call) -> RuntimeValue:
        fn = self.unit.function_named(expr.name)
        if fn is not None and fn.body is not None:
            args = [self._eval(a) for a in expr.args]
            coerced = []
            for i, param in enumerate(fn.params):
                value = args[i] if i < len(args) else make_value(0)
                coerced.append(coerce(value, param.ctype))
            return self._call_function(fn, coerced)
        return self._call_builtin(expr)

    # -- compiler-inserted nodes ----------------------------------------------

    def _eval_ProfileHook(self, expr: ast.ProfileHook) -> RuntimeValue:
        value = self._eval(expr.inner)
        if self.profile_collector is not None:
            self.profile_collector.record_value(expr.key, expr.inner, value,
                                                self.memory)
        return value

    def _eval_SanitizerCheck(self, expr: ast.SanitizerCheck) -> RuntimeValue:
        kind = expr.kind
        if kind.startswith("asan_access"):
            addr, ctype = self._lvalue(expr)  # lvalue path runs the check
            return self._read_value(addr, ctype)
        if kind in ("ubsan_arith", "ubsan_shift", "ubsan_div"):
            inner = expr.inner
            if not isinstance(inner, ast.BinaryOp):
                return self._eval(inner)
            lhs = self._eval(inner.lhs)
            rhs = self._eval(inner.rhs)
            operands = {"lhs": lhs.value, "rhs": rhs.value, "op": inner.op,
                        "ctype": inner.ctype}
            self._run_check(expr, operands)
            return self._apply_binary(inner, inner.op, lhs, rhs)
        if kind == "ubsan_null":
            # Inner is a memory access through a pointer.
            addr, ctype = self._lvalue(expr)
            return self._read_value(addr, ctype)
        if kind == "ubsan_bounds":
            addr, ctype = self._lvalue(expr)
            return self._read_value(addr, ctype)
        if kind == "msan_use":
            value = self._eval(expr.inner)
            self._run_check(expr, {"tainted": value.tainted, "value": value.value})
            return value
        # Unknown check kinds are transparent.
        return self._eval(expr.inner)

    def _run_check(self, check: ast.SanitizerCheck, operands: dict) -> None:
        loc = check.loc if check.loc.is_known else check.inner.loc
        report = self.runtime.check(check.kind, check.detail, operands,
                                    self.memory, loc)
        if report is not None:
            raise SanitizerAbort(report)

    # --------------------------------------------------------------- lvalues

    def _lvalue(self, expr: ast.Expr) -> tuple[int, ct.CType]:
        """Evaluate *expr* as an lvalue: return (address, object type)."""
        self._tick(expr.loc)
        handler = _LVALUE_DISPATCH.get(expr.__class__)
        if handler is None:
            raise VMFault(f"expression {type(expr).__name__} is not an lvalue")
        return handler(self, expr)

    def _lvalue_Identifier(self, expr: ast.Identifier) -> tuple[int, ct.CType]:
        symbol = expr.symbol
        if symbol is None:
            raise VMFault(f"unresolved identifier {expr.name!r}")
        obj = self._object_for(symbol)
        return obj.base, symbol.ctype

    def _lvalue_Deref(self, expr: ast.Deref) -> tuple[int, ct.CType]:
        pointer = self._eval(expr.pointer)
        ctype = expr.ctype or _pointee_type(expr.pointer) or ct.INT
        return pointer.value, ctype

    def _lvalue_ArraySubscript(self, expr: ast.ArraySubscript) -> tuple[int, ct.CType]:
        base_type = ct.decay(expr.base.ctype) if expr.base.ctype else None
        base = self._eval(expr.base)
        index = self._eval(expr.index)
        elem = base_type.pointee if isinstance(base_type, ct.PointerType) else (expr.ctype or ct.INT)
        return base.value + index.value * max(1, elem.sizeof()), elem

    def _lvalue_MemberAccess(self, expr: ast.MemberAccess) -> tuple[int, ct.CType]:
        if expr.arrow:
            base = self._eval(expr.base)
            base_addr = base.value
            struct_type = ct.decay(expr.base.ctype).pointee \
                if expr.base.ctype and ct.decay(expr.base.ctype).is_pointer else None
        else:
            base_addr, struct_type = self._lvalue(expr.base)
        if not isinstance(struct_type, ct.StructType):
            # Fall back to the annotated type of the member itself.
            struct_type = None
        field_type = expr.ctype or ct.INT
        offset = 0
        if isinstance(struct_type, ct.StructType):
            field = struct_type.field_named(expr.field)
            if field is not None:
                offset = field.offset
                field_type = field.ctype
        return base_addr + offset, field_type

    def _lvalue_SanitizerCheck(self, expr: ast.SanitizerCheck) -> tuple[int, ct.CType]:
        # Run the access check, then produce the inner lvalue.
        addr, ctype = self._lvalue(expr.inner)
        size = expr.detail.get("size") or (ctype.sizeof() if ctype else 1)
        operands = {"addr": addr, "size": size,
                    "is_write": expr.detail.get("is_write", False)}
        if expr.kind == "ubsan_bounds":
            operands.update(self._bounds_operands(expr))
        self._run_check(expr, operands)
        return addr, ctype

    def _lvalue_ProfileHook(self, expr: ast.ProfileHook) -> tuple[int, ct.CType]:
        addr, ctype = self._lvalue(expr.inner)
        if self.profile_collector is not None:
            self.profile_collector.record_lvalue(expr.key, expr.inner, addr,
                                                 ctype, self.memory)
        return addr, ctype

    def _lvalue_Cast(self, expr: ast.Cast) -> tuple[int, ct.CType]:
        return self._lvalue(expr.operand)

    def _lvalue_CommaExpr(self, expr: ast.CommaExpr) -> tuple[int, ct.CType]:
        if not expr.parts:
            raise VMFault("expression CommaExpr is not an lvalue")
        for part in expr.parts[:-1]:
            self._eval(part)
        return self._lvalue(expr.parts[-1])

    def _bounds_operands(self, check: ast.SanitizerCheck) -> dict:
        inner = check.inner
        operands: dict = {}
        if isinstance(inner, ast.ArraySubscript):
            index = self._eval(inner.index)
            operands["index"] = index.value
            operands["length"] = check.detail.get("length")
        return operands

    def _object_for(self, symbol: VarSymbol) -> MemoryObject:
        if symbol.is_global:
            obj = self.globals.get(symbol.uid)
            if obj is None:
                raise VMFault(f"global {symbol.name!r} has no storage")
            return obj
        for frame in reversed(self.frames):
            if symbol.uid in frame.slots:
                return frame.slots[symbol.uid]
        # A local declared later in the function but referenced before its
        # DeclStmt executed (possible after aggressive code motion): allocate
        # its slot lazily so execution can continue.
        frame = self.frame
        obj = self.memory.allocate(symbol.ctype.sizeof(), "stack", symbol.name,
                                   symbol.ctype, scope_id=symbol.scope.scope_id,
                                   frame_id=frame.frame_id)
        self.runtime.on_alloc(self.memory, obj)
        frame.slots[symbol.uid] = obj
        return obj

    # -------------------------------------------------------------- builtins

    def _call_builtin(self, expr: ast.Call) -> RuntimeValue:
        name = expr.name
        if name in ("printf", "__builtin_printf"):
            return self._builtin_printf(expr)
        if name == "malloc":
            size = self._eval(expr.args[0]).value if expr.args else 0
            obj = self.memory.allocate(max(1, size), "heap", "malloc", None)
            self.runtime.on_alloc(self.memory, obj)
            return make_value(obj.base)
        if name == "calloc":
            count = self._eval(expr.args[0]).value if expr.args else 0
            size = self._eval(expr.args[1]).value if len(expr.args) > 1 else 1
            obj = self.memory.allocate(max(1, count * size), "heap", "calloc",
                                       None, zero_init=True)
            self.runtime.on_alloc(self.memory, obj)
            return make_value(obj.base)
        if name == "free":
            addr = self._eval(expr.args[0]).value if expr.args else 0
            obj = self.memory.free(addr)
            if obj is not None:
                self.runtime.on_free(self.memory, obj)
            return make_value(0)
        if name == "memset":
            if len(expr.args) >= 3:
                addr = self._eval(expr.args[0]).value
                byte = self._eval(expr.args[1]).value & 0xFF
                count = self._eval(expr.args[2]).value
                self.memory.write_bytes(addr, bytes([byte]) * max(0, count))
                return make_value(addr)
            return make_value(0)
        if name == "abort":
            raise ExitSignal(134)
        if name == "exit":
            code = self._eval(expr.args[0]).value if expr.args else 0
            raise ExitSignal(code)
        # Unknown external function: evaluate arguments for their side
        # effects and return 0, like a stub library call.  The call hook
        # observes these by name — the marker-liveness oracle counts every
        # planted marker call the execution actually reaches.
        for arg in expr.args:
            self._eval(arg)
        if self.call_hook is not None:
            self.call_hook(name)
        return make_value(0)

    def _builtin_printf(self, expr: ast.Call) -> RuntimeValue:
        if not expr.args:
            return make_value(0)
        fmt_value = self._eval(expr.args[0])
        fmt = getattr(self, "_strings", {}).get(fmt_value.value, "")
        args = [self._eval(a) for a in expr.args[1:]]
        text = _format_printf(fmt, [a.value for a in args])
        self.stdout.append(text)
        return make_value(len(text))


# ---------------------------------------------------------------------------
# module-level helpers
# ---------------------------------------------------------------------------


def _operand_type(expr: ast.Expr, side: str) -> Optional[ct.CType]:
    child = getattr(expr, side, None)
    if isinstance(child, ast.Expr) and child.ctype is not None:
        return ct.decay(child.ctype)
    return None


def _pointee_size(ctype: ct.CType) -> int:
    if isinstance(ctype, ct.PointerType):
        return max(1, ctype.pointee.sizeof())
    if isinstance(ctype, ct.ArrayType):
        return max(1, ctype.element.sizeof())
    return 1


def _pointee_type(pointer_expr: ast.Expr) -> Optional[ct.CType]:
    if pointer_expr.ctype is None:
        return None
    decayed = ct.decay(pointer_expr.ctype)
    if isinstance(decayed, ct.PointerType):
        return decayed.pointee
    return None


def _bits_of(ctype: ct.CType) -> int:
    return ctype.bits if isinstance(ctype, ct.IntType) else 32


def _c_div(a: int, b: int) -> int:
    if b == 0:
        return 0  # benign VM behaviour for the undefined case
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _c_mod(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a - _c_div(a, b) * b


def _compare(op: str, a: int, b: int) -> bool:
    return bool(_COMPARE_OPS[op](a, b))


def _format_printf(fmt: str, args: List[int]) -> str:
    out: List[str] = []
    arg_index = 0
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            if ch == "\\" and i + 1 < len(fmt) and fmt[i + 1] == "n":
                out.append("\n")
                i += 2
                continue
            out.append(ch)
            i += 1
            continue
        # A conversion specification: skip flags/width/length, use the letter.
        j = i + 1
        while j < len(fmt) and fmt[j] in "0123456789.-+ lhz":
            j += 1
        conv = fmt[j] if j < len(fmt) else "%"
        value = args[arg_index] if arg_index < len(args) else 0
        arg_index += 1
        if conv in ("d", "i", "u", "c"):
            out.append(str(value) if conv != "c" else chr(value & 0x7F))
        elif conv == "x":
            out.append(format(value & 0xFFFFFFFFFFFFFFFF, "x"))
        elif conv == "s":
            out.append("")
        elif conv == "%":
            out.append("%")
            arg_index -= 1
        else:
            out.append(str(value))
        i = j + 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Dispatch tables (the VM fast path)
# ---------------------------------------------------------------------------
#
# Statement/expression/lvalue handlers are resolved through per-node-type
# tables built once at import time instead of isinstance chains or getattr
# lookups per node visit.  The handlers themselves are the methods above, so
# trace and sanitizer-hook semantics are bit-identical to the chained form
# (guarded by the determinism tests).

_INT_BINOPS: Dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _c_div,
    "%": _c_mod,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
}

_COMPARE_OPS: Dict[str, Callable[[int, int], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}

_STMT_DISPATCH: Dict[type, Callable] = {
    ast.CompoundStmt: Interpreter._exec_compound,
    ast.DeclStmt: Interpreter._exec_DeclStmt,
    ast.ExprStmt: Interpreter._exec_ExprStmt,
    ast.IfStmt: Interpreter._exec_IfStmt,
    ast.WhileStmt: Interpreter._exec_WhileStmt,
    ast.ForStmt: Interpreter._exec_for,
    ast.ReturnStmt: Interpreter._exec_ReturnStmt,
    ast.BreakStmt: Interpreter._exec_BreakStmt,
    ast.ContinueStmt: Interpreter._exec_ContinueStmt,
    ast.EmptyStmt: Interpreter._exec_EmptyStmt,
}

_EXPR_DISPATCH: Dict[type, Callable] = {
    getattr(ast, name[len("_eval_"):]): handler
    for name, handler in vars(Interpreter).items()
    if name.startswith("_eval_") and hasattr(ast, name[len("_eval_"):])
}

_LVALUE_DISPATCH: Dict[type, Callable] = {
    getattr(ast, name[len("_lvalue_"):]): handler
    for name, handler in vars(Interpreter).items()
    if name.startswith("_lvalue_") and hasattr(ast, name[len("_lvalue_"):])
}


def run_program(unit: ast.TranslationUnit, sema: SemanticInfo,
                runtime: Optional[SanitizerRuntime] = None,
                max_steps: int = DEFAULT_MAX_STEPS,
                profile_collector=None,
                call_hook: Optional[Callable[[str], None]] = None
                ) -> ExecutionResult:
    """Convenience wrapper: build an interpreter and run the program."""
    interp = Interpreter(unit, sema, runtime=runtime, max_steps=max_steps,
                         profile_collector=profile_collector,
                         call_hook=call_hook)
    return interp.run()
