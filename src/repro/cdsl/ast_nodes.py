"""AST node definitions for the C subset.

Nodes are mutable objects with a declared layout: every class lists in
``__slots__`` exactly the attributes its ``__init__`` sets, so a node has
no ``__dict__`` and writing an undeclared attribute raises
``AttributeError``.  :func:`repro.cdsl.visitor.fast_clone` generates its
per-class copiers from these declarations.  Every node records:

* ``loc`` — the :class:`~repro.cdsl.source.SourceLocation` it was parsed
  from (or attached to by a transformation), used by debug info and the
  crash-site mapping oracle;
* ``_fields`` — the names of child-bearing attributes, which powers the
  generic visitor / transformer machinery in :mod:`repro.cdsl.visitor`.

Two families of nodes never appear in parsed source and are only created by
compiler passes:

* sanitizer check nodes (:class:`SanitizerCheck`) inserted by the ASan /
  UBSan / MSan instrumentation passes, and
* profiling hooks (:class:`ProfileHook`) inserted by the UBfuzz execution
  profiler (paper §3.2.2).
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence

from repro.cdsl.ctypes_ import CType
from repro.cdsl.source import UNKNOWN_LOCATION, SourceLocation

_node_counter = itertools.count(1)


class Node:
    """Base class of all AST nodes."""

    __slots__ = ("loc", "node_id")
    _fields: tuple[str, ...] = ()

    def __init__(self, loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        self.loc = loc
        self.node_id = next(_node_counter)

    def children(self) -> Iterable["Node"]:
        """Yield all direct child nodes."""
        for name in self._fields:
            value = getattr(self, name, None)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.node_id} loc={self.loc}>"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class of expressions.

    ``ctype`` is filled in by semantic analysis; ``symbol`` is set on
    identifiers after name resolution.
    """

    __slots__ = ("ctype",)

    def __init__(self, loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.ctype: Optional[CType] = None


class IntLiteral(Expr):
    __slots__ = ("value", "suffix")
    _fields = ()

    def __init__(self, value: int, suffix: str = "",
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.value = value
        self.suffix = suffix


class StringLiteral(Expr):
    __slots__ = ("value",)
    _fields = ()

    def __init__(self, value: str, loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.value = value


class Identifier(Expr):
    __slots__ = ("name", "symbol")
    _fields = ()

    def __init__(self, name: str, loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.name = name
        self.symbol = None  # repro.cdsl.sema.VarSymbol, set by Sema


class BinaryOp(Expr):
    """A binary operation.  ``op`` is the C spelling, e.g. ``"+"``, ``"<<"``."""

    __slots__ = ("op", "lhs", "rhs")
    _fields = ("lhs", "rhs")

    ARITHMETIC_OPS = ("+", "-", "*", "/", "%")
    SHIFT_OPS = ("<<", ">>")
    BITWISE_OPS = ("&", "|", "^")
    RELATIONAL_OPS = ("<", ">", "<=", ">=", "==", "!=")
    LOGICAL_OPS = ("&&", "||")

    def __init__(self, op: str, lhs: Expr, rhs: Expr,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class UnaryOp(Expr):
    """Prefix unary operators: ``-``, ``+``, ``!``, ``~``."""

    __slots__ = ("op", "operand")
    _fields = ("operand",)

    def __init__(self, op: str, operand: Expr,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.op = op
        self.operand = operand


class IncDec(Expr):
    """Pre/post increment and decrement (``++x``, ``x--`` ...)."""

    __slots__ = ("op", "operand", "is_prefix")
    _fields = ("operand",)

    def __init__(self, op: str, operand: Expr, is_prefix: bool,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.op = op  # "++" or "--"
        self.operand = operand
        self.is_prefix = is_prefix


class Assignment(Expr):
    """Simple and compound assignment (``=``, ``+=``, ``<<=`` ...)."""

    __slots__ = ("op", "target", "value")
    _fields = ("target", "value")

    def __init__(self, op: str, target: Expr, value: Expr,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.op = op
        self.target = target
        self.value = value


class ArraySubscript(Expr):
    __slots__ = ("base", "index")
    _fields = ("base", "index")

    def __init__(self, base: Expr, index: Expr,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.base = base
        self.index = index


class Deref(Expr):
    """Pointer dereference ``*p``."""

    __slots__ = ("pointer",)
    _fields = ("pointer",)

    def __init__(self, pointer: Expr, loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.pointer = pointer


class AddressOf(Expr):
    __slots__ = ("operand",)
    _fields = ("operand",)

    def __init__(self, operand: Expr, loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.operand = operand


class MemberAccess(Expr):
    """``base.field`` (``arrow=False``) or ``base->field`` (``arrow=True``)."""

    __slots__ = ("base", "field", "arrow")
    _fields = ("base",)

    def __init__(self, base: Expr, field: str, arrow: bool,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.base = base
        self.field = field
        self.arrow = arrow


class Cast(Expr):
    __slots__ = ("target_type", "operand")
    _fields = ("operand",)

    def __init__(self, target_type: CType, operand: Expr,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.target_type = target_type
        self.operand = operand


class Call(Expr):
    __slots__ = ("name", "args")
    _fields = ("args",)

    def __init__(self, name: str, args: Sequence[Expr],
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.name = name
        self.args = list(args)


class Conditional(Expr):
    """The ternary operator ``cond ? then : otherwise``."""

    __slots__ = ("cond", "then", "otherwise")
    _fields = ("cond", "then", "otherwise")

    def __init__(self, cond: Expr, then: Expr, otherwise: Expr,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class CommaExpr(Expr):
    __slots__ = ("parts",)
    _fields = ("parts",)

    def __init__(self, parts: Sequence[Expr],
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.parts = list(parts)


class SizeofExpr(Expr):
    """``sizeof(type)`` or ``sizeof expr`` — always folded to a constant."""

    __slots__ = ("operand", "target_type")
    _fields = ("operand",)

    def __init__(self, operand: Optional[Expr] = None,
                 target_type: Optional[CType] = None,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.operand = operand
        self.target_type = target_type


# ---------------------------------------------------------------------------
# Compiler-inserted expression wrappers
# ---------------------------------------------------------------------------


class SanitizerCheck(Expr):
    """A sanitizer check wrapping an expression.

    ``kind`` identifies the check (e.g. ``"asan_load"``, ``"ubsan_add"``,
    ``"msan_branch"``); ``inner`` is the original expression whose evaluation
    the check guards.  The VM consults the sanitizer runtime before/while
    evaluating ``inner`` and aborts with a report when the check fires.
    ``detail`` carries check-specific data (access size, operator, ...).
    """

    __slots__ = ("kind", "inner", "sanitizer", "detail")
    _fields = ("inner",)

    def __init__(self, kind: str, inner: Expr, sanitizer: str,
                 detail: Optional[dict] = None,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.kind = kind
        self.inner = inner
        self.sanitizer = sanitizer
        self.detail = detail or {}


class ProfileHook(Expr):
    """A profiling hook wrapping an expression (paper §2.1, LOG_* statements).

    When executed in profiling mode the VM records the value (and, for
    pointers, the pointed-to memory object) of ``inner`` under ``key``.
    The hook is transparent: it evaluates to the value of ``inner``.
    """

    __slots__ = ("key", "inner")
    _fields = ("inner",)

    def __init__(self, key: str, inner: Expr,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.key = key
        self.inner = inner


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class VarDecl(Node):
    """A single declarator.  ``init`` is an expression or :class:`InitList`."""

    __slots__ = ("name", "ctype", "init", "is_global", "qualifiers", "symbol")
    _fields = ("init",)

    def __init__(self, name: str, ctype: CType, init: Optional[Node] = None,
                 is_global: bool = False, qualifiers: Sequence[str] = (),
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.name = name
        self.ctype = ctype
        self.init = init
        self.is_global = is_global
        self.qualifiers = tuple(qualifiers)
        self.symbol = None  # set by Sema


class InitList(Node):
    __slots__ = ("items",)
    _fields = ("items",)

    def __init__(self, items: Sequence[Node],
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.items = list(items)


class DeclStmt(Stmt):
    __slots__ = ("decls",)
    _fields = ("decls",)

    def __init__(self, decls: Sequence[VarDecl],
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.decls = list(decls)


class ExprStmt(Stmt):
    __slots__ = ("expr",)
    _fields = ("expr",)

    def __init__(self, expr: Expr, loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.expr = expr


class CompoundStmt(Stmt):
    __slots__ = ("stmts", "scope_id")
    _fields = ("stmts",)

    def __init__(self, stmts: Sequence[Stmt],
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.stmts = list(stmts)
        self.scope_id: Optional[int] = None  # set by Sema


class IfStmt(Stmt):
    __slots__ = ("cond", "then", "otherwise")
    _fields = ("cond", "then", "otherwise")

    def __init__(self, cond: Expr, then: Stmt, otherwise: Optional[Stmt] = None,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class WhileStmt(Stmt):
    __slots__ = ("cond", "body")
    _fields = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.cond = cond
        self.body = body


class ForStmt(Stmt):
    """``for (init; cond; step) body``; any of the three heads may be None."""

    __slots__ = ("init", "cond", "step", "body")
    _fields = ("init", "cond", "step", "body")

    def __init__(self, init: Optional[Node], cond: Optional[Expr],
                 step: Optional[Expr], body: Stmt,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class ReturnStmt(Stmt):
    __slots__ = ("value",)
    _fields = ("value",)

    def __init__(self, value: Optional[Expr] = None,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.value = value


class BreakStmt(Stmt):
    __slots__ = ()
    _fields = ()


class ContinueStmt(Stmt):
    __slots__ = ()
    _fields = ()


class EmptyStmt(Stmt):
    __slots__ = ()
    _fields = ()


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------


class ParamDecl(Node):
    __slots__ = ("name", "ctype", "symbol")
    _fields = ()

    def __init__(self, name: str, ctype: CType,
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.name = name
        self.ctype = ctype
        self.symbol = None


class FunctionDecl(Node):
    __slots__ = ("name", "return_type", "params", "body")
    _fields = ("params", "body")

    def __init__(self, name: str, return_type: CType,
                 params: Sequence[ParamDecl], body: Optional[CompoundStmt],
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.name = name
        self.return_type = return_type
        self.params = list(params)
        self.body = body


class StructDef(Node):
    __slots__ = ("struct_type",)
    _fields = ()

    def __init__(self, struct_type, loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.struct_type = struct_type


class TranslationUnit(Node):
    """A whole program: struct definitions, globals and functions in order."""

    __slots__ = ("decls",)
    _fields = ("decls",)

    def __init__(self, decls: Sequence[Node],
                 loc: SourceLocation = UNKNOWN_LOCATION) -> None:
        super().__init__(loc)
        self.decls = list(decls)

    @property
    def functions(self) -> List[FunctionDecl]:
        return [d for d in self.decls if isinstance(d, FunctionDecl)]

    @property
    def globals(self) -> List[VarDecl]:
        out: List[VarDecl] = []
        for d in self.decls:
            if isinstance(d, DeclStmt):
                out.extend(d.decls)
            elif isinstance(d, VarDecl):
                out.append(d)
        return out

    @property
    def struct_defs(self) -> List[StructDef]:
        return [d for d in self.decls if isinstance(d, StructDef)]

    def function_named(self, name: str) -> Optional[FunctionDecl]:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None


# Node categories used by expression matching and the optimizer passes.

MEMORY_ACCESS_NODES = (ArraySubscript, Deref, MemberAccess)
LVALUE_NODES = (Identifier, ArraySubscript, Deref, MemberAccess)
