"""Local constant propagation.

Within each straight-line statement sequence, remembers local, non-escaping,
non-volatile scalar variables whose most recent assignment was an integer
literal, and replaces later reads with that literal.  Knowledge is dropped
at control-flow statements and calls, which keeps the pass conservative
enough to be trivially correct on valid programs, while still interacting
with UB programs the way real constant propagation does (a propagated
constant index can expose the overflow to later folding or make the
offending expression disappear entirely).
"""

from __future__ import annotations

from typing import Dict

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.sema import SemanticInfo
from repro.cdsl.visitor import walk
from repro.optim.passes import (
    OptimizationContext,
    OptimizationPass,
    declared_volatile,
    symbols_with_address_taken,
    typed_literal,
)


class ConstantPropagationPass(OptimizationPass):
    name = "constprop"

    def run(self, unit: ast.TranslationUnit, sema: SemanticInfo,
            ctx: OptimizationContext) -> bool:
        changed = False
        for fn in unit.functions:
            if fn.body is None:
                continue
            propagator = _Propagator(ctx, fn.body)
            propagator.process_block(fn.body)
            changed = changed or propagator.changed
        return changed


class _Propagator:
    def __init__(self, ctx: OptimizationContext, body: ast.CompoundStmt) -> None:
        self.ctx = ctx
        self.body = body
        #: The function's address-taken symbols, computed when a fact could
        #: first be recorded.  Rewrites never reach under ``&``, so the set
        #: equals one computed before the walk.
        self._escaping = None
        self.changed = False

    # -- statement walking ----------------------------------------------------

    def process_block(self, block: ast.CompoundStmt) -> None:
        known: Dict[int, int] = {}
        for stmt in block.stmts:
            self.process_stmt(stmt, known)

    def process_stmt(self, stmt: ast.Stmt, known: Dict[int, int]) -> None:
        if isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if isinstance(decl.init, ast.Expr):
                    decl.init = self.rewrite(decl.init, known)
                symbol = decl.symbol
                if symbol is not None and isinstance(decl.init, ast.IntLiteral) \
                        and self._trackable(symbol):
                    known[symbol.uid] = decl.init.value
        elif isinstance(stmt, ast.ExprStmt):
            stmt.expr = self.rewrite(stmt.expr, known)
            self.update_facts(stmt.expr, known)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                stmt.value = self.rewrite(stmt.value, known)
        elif isinstance(stmt, ast.CompoundStmt):
            # A nested block inherits facts but contributes none back
            # (its stores may be conditional from the parent's view only
            # if it is a branch body; a plain nested block is fine to keep,
            # we stay conservative and drop everything afterwards).
            for inner in stmt.stmts:
                self.process_stmt(inner, known)
        elif isinstance(stmt, ast.IfStmt):
            stmt.cond = self.rewrite(stmt.cond, known)
            self.ctx.cover_branch("constprop.if", True)
            self.process_stmt(stmt.then, dict(known))
            if stmt.otherwise is not None:
                self.process_stmt(stmt.otherwise, dict(known))
            self._invalidate_written(stmt, known)
        elif isinstance(stmt, (ast.WhileStmt, ast.ForStmt)):
            # Loops: do not propagate into or across; invalidate facts about
            # anything the loop writes.
            self.ctx.cover_branch("constprop.loop", True)
            self._invalidate_written(stmt, known)
            self._process_loop_children(stmt, known)
        else:
            pass

    def _process_loop_children(self, stmt: ast.Stmt, known: Dict[int, int]) -> None:
        # Recurse with an empty fact set so nested straight-line code still
        # benefits from locally-established constants.
        if isinstance(stmt, ast.WhileStmt):
            self.process_stmt(stmt.body, {})
        elif isinstance(stmt, ast.ForStmt):
            if isinstance(stmt.init, ast.Stmt):
                self.process_stmt(stmt.init, {})
            self.process_stmt(stmt.body, {})

    # -- facts ----------------------------------------------------------------

    def _trackable(self, symbol) -> bool:
        if symbol.storage != "local" or declared_volatile(symbol) \
                or not isinstance(symbol.ctype, ct.IntType):
            return False
        if self._escaping is None:
            self._escaping = symbols_with_address_taken(self.body)
        return symbol.uid not in self._escaping

    def update_facts(self, expr: ast.Expr, known: Dict[int, int]) -> None:
        if isinstance(expr, ast.Assignment) and isinstance(expr.target, ast.Identifier):
            symbol = expr.target.symbol
            if symbol is None:
                return
            if expr.op == "=" and isinstance(expr.value, ast.IntLiteral) \
                    and self._trackable(symbol):
                known[symbol.uid] = expr.value.value
            else:
                known.pop(symbol.uid, None)
        elif isinstance(expr, (ast.Assignment, ast.IncDec, ast.Call, ast.CommaExpr)):
            # Stores through pointers or calls may change anything observable;
            # only locals that never escape survive (they cannot alias).
            if isinstance(expr, ast.IncDec) and isinstance(expr.operand, ast.Identifier):
                symbol = expr.operand.symbol
                if symbol is not None:
                    known.pop(symbol.uid, None)

    def _invalidate_written(self, stmt: ast.Stmt, known: Dict[int, int]) -> None:
        if not known:
            return
        for node in walk(stmt):
            target = None
            if isinstance(node, ast.Assignment):
                target = node.target
            elif isinstance(node, ast.IncDec):
                target = node.operand
            if isinstance(target, ast.Identifier) and target.symbol is not None:
                known.pop(target.symbol.uid, None)

    # -- expression rewriting --------------------------------------------------

    def rewrite(self, expr: ast.Expr, known: Dict[int, int]) -> ast.Expr:
        if isinstance(expr, ast.Identifier):
            symbol = expr.symbol
            if symbol is not None and symbol.uid in known:
                self.changed = True
                self.ctx.cover_point("constprop.replaced")
                # Suffixed so the variable's type survives re-analysis.
                return typed_literal(known[symbol.uid], expr)
            return expr
        if isinstance(expr, ast.Assignment):
            expr.value = self.rewrite(expr.value, known)
            # Only rewrite *reads* inside the target (indices), never the
            # stored-to variable itself.
            expr.target = self._rewrite_target(expr.target, known)
            return expr
        if isinstance(expr, ast.IncDec):
            return expr
        if isinstance(expr, ast.AddressOf):
            return expr
        for field_name in expr._fields:
            value = getattr(expr, field_name, None)
            if isinstance(value, ast.Expr):
                setattr(expr, field_name, self.rewrite(value, known))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, ast.Expr):
                        value[i] = self.rewrite(item, known)
        return expr

    def _rewrite_target(self, target: ast.Expr, known: Dict[int, int]) -> ast.Expr:
        if isinstance(target, ast.ArraySubscript):
            target.index = self.rewrite(target.index, known)
            target.base = self._rewrite_target(target.base, known)
        elif isinstance(target, ast.Deref):
            target.pointer = self.rewrite(target.pointer, known)
        elif isinstance(target, ast.MemberAccess):
            target.base = self._rewrite_target(target.base, known)
        return target
