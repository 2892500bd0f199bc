"""Dead store elimination.

Two flavours, both conservative:

* stores to *local scalar* variables that are never read anywhere in the
  function and whose address is never taken — the store is dropped, keeping
  the right-hand side only if it has side effects;
* stores into *local arrays* that are never read and never escape — the
  whole statement is dropped.  This is the transformation that deletes the
  ``d[1] = 1`` overflow in the paper's Figure 3.

Eliminating such a store is only observable in a program whose execution has
UB (e.g. the store was an out-of-bounds write that would have clobbered a
neighbour), so the pass is safe for valid seeds and "dangerous" for UB
programs — exactly the behaviour crash-site mapping must recognise.
"""

from __future__ import annotations

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.sema import SemanticInfo
from repro.cdsl.visitor import NodeTransformer
from repro.optim.passes import (
    OptimizationContext,
    OptimizationPass,
    declared_volatile,
    is_pure_expr,
)


class DeadStoreEliminationPass(OptimizationPass):
    name = "dse"

    def run(self, unit: ast.TranslationUnit, sema: SemanticInfo,
            ctx: OptimizationContext) -> bool:
        changed = False
        for fn in unit.functions:
            if fn.body is None:
                continue
            # Iterate to a fixpoint within the function: removing the last
            # use of a variable (e.g. a dead pointer initialized from an
            # array) can make further variables dead in turn.
            for _ in range(5):
                dead = _dead_symbols(fn)
                if not dead:
                    break
                eliminator = _StoreEliminator(ctx, dead)
                eliminator.visit(fn.body)
                if not eliminator.changed:
                    break
                changed = True
        return changed


#: How the one-walk analysis treats a node's identifiers: as reads under
#: the read rules, all as reads, as a plain ``=`` target (only its indices
#: and pointers are read), or not at all.
_READ, _ALL, _TARGET, _NONE = range(4)


def _dead_symbols(fn: ast.FunctionDecl) -> set:
    """Local variables that are written but never read (and never escape).

    One explicit-stack walk collects the address-taken symbols, the
    declared locals and the reads.  Read rules: the base of a plain ``=``
    target is not a read, but every identifier in an index or pointer
    inside it is; compound-assignment targets and ``++``/``--`` operands
    are reads in full.
    """
    escaping: set = set()
    reads: set = set()
    declared: dict = {}
    stack = [(fn.body, _READ)]
    pop, push = stack.pop, stack.append
    node_type = ast.Node
    while stack:
        node, mode = pop()
        cls = node.__class__
        if cls is ast.Identifier:
            if mode <= _ALL and node.symbol is not None:
                reads.add(node.symbol.uid)
            continue
        if cls is ast.AddressOf:
            # &x, &a[i], &s.f — the underlying variable escapes.
            base = node.operand
            while base.__class__ is ast.ArraySubscript \
                    or base.__class__ is ast.MemberAccess:
                base = base.base
            if base.__class__ is ast.Identifier and base.symbol is not None:
                escaping.add(base.symbol.uid)
        elif cls is ast.VarDecl and node.symbol is not None:
            declared[node.symbol.uid] = node.symbol
        if mode == _READ:
            if cls is ast.Assignment:
                push((node.value, _READ))
                push((node.target, _TARGET if node.op == "=" else _ALL))
                continue
            if cls is ast.IncDec:
                push((node.operand, _ALL))
                continue
        elif mode == _TARGET:
            if cls is ast.ArraySubscript:
                push((node.index, _ALL))
                push((node.base, _TARGET))
                continue
            if cls is ast.MemberAccess:
                push((node.base, _ALL if node.arrow else _TARGET))
                continue
            if cls is ast.Deref:
                push((node.pointer, _ALL))
                continue
            mode = _NONE
        for name in node._fields:
            value = getattr(node, name)
            if isinstance(value, node_type):
                push((value, mode))
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, node_type):
                        push((item, mode))

    dead = set()
    for uid, symbol in declared.items():
        if uid in reads or uid in escaping or declared_volatile(symbol):
            continue
        if symbol.storage != "local":
            continue
        if isinstance(symbol.ctype, (ct.ArrayType, ct.IntType, ct.PointerType)):
            dead.add(uid)
    return dead


class _StoreEliminator(NodeTransformer):
    def __init__(self, ctx: OptimizationContext, dead: set) -> None:
        self.ctx = ctx
        self.dead = dead
        self.changed = False

    def visit_ExprStmt(self, node: ast.ExprStmt):
        self.generic_visit(node)
        expr = node.expr
        if isinstance(expr, ast.Assignment) and self._targets_dead(expr.target):
            self.changed = True
            self.ctx.cover_branch("dse.removed_store", True)
            if is_pure_expr(expr.value):
                return None
            # Keep the side effects of the right-hand side.
            return ast.ExprStmt(expr.value, loc=node.loc)
        self.ctx.cover_branch("dse.removed_store", False)
        return node

    def visit_DeclStmt(self, node: ast.DeclStmt):
        self.generic_visit(node)
        kept: list = []
        side_effects: list = []
        for decl in node.decls:
            symbol = decl.symbol
            is_dead = (symbol is not None and symbol.uid in self.dead)
            if not is_dead:
                kept.append(decl)
                continue
            self.changed = True
            self.ctx.cover_branch("dse.removed_decl", True)
            if decl.init is not None and isinstance(decl.init, ast.Expr) \
                    and not is_pure_expr(decl.init):
                side_effects.append(ast.ExprStmt(decl.init, loc=decl.loc))
        if len(kept) == len(node.decls):
            return node
        out: list = side_effects
        if kept:
            node.decls = kept
            out.append(node)
        if not out:
            return None
        if len(out) == 1:
            return out[0]
        return out

    def _targets_dead(self, target: ast.Expr) -> bool:
        base = target
        while isinstance(base, (ast.ArraySubscript, ast.MemberAccess)):
            if isinstance(base, ast.ArraySubscript) and not is_pure_expr(base.index):
                return False
            base = base.base
        return (isinstance(base, ast.Identifier) and base.symbol is not None
                and base.symbol.uid in self.dead)
