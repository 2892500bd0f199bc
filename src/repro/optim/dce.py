"""Dead code elimination.

Removes code that cannot affect the observable behaviour of a *UB-free*
program:

* statements after an unconditional ``return`` / ``break`` / ``continue``
  in the same block,
* expression statements with no side effects (a bare ``*p;`` or ``x + 1;``),
* empty compound statements and empty ``if`` bodies.

Dropping a pure expression statement is precisely what erases the
``*b;`` overflow read in the paper's Figure 3: the optimizer is allowed to
assume the read cannot trap, so removing it is legal — and the sanitizer
pass that runs afterwards never sees the UB.
"""

from __future__ import annotations

from repro.cdsl import ast_nodes as ast
from repro.cdsl.visitor import NodeTransformer
from repro.optim.passes import OptimizationPass, is_pure_expr


class DeadCodeEliminationPass(OptimizationPass):
    name = "dce"

    def run(self, fn: ast.FunctionDecl) -> bool:
        eliminator = _Eliminator()
        eliminator.visit(fn.body)
        return eliminator.changed


_TERMINATORS = (ast.ReturnStmt, ast.BreakStmt, ast.ContinueStmt)


class _Eliminator(NodeTransformer):
    def __init__(self) -> None:
        self.changed = False

    def visit_CompoundStmt(self, node: ast.CompoundStmt):
        self.generic_visit(node)
        new_stmts = []
        terminated = False
        for stmt in node.stmts:
            if terminated:
                self.changed = True
                continue
            if isinstance(stmt, ast.EmptyStmt):
                self.changed = True
                continue
            new_stmts.append(stmt)
            if isinstance(stmt, _TERMINATORS):
                terminated = True
        node.stmts = new_stmts
        return node

    def visit_ExprStmt(self, node: ast.ExprStmt):
        self.generic_visit(node)
        if is_pure_expr(node.expr):
            self.changed = True
            return None
        return node

    def visit_IfStmt(self, node: ast.IfStmt):
        self.generic_visit(node)
        then_empty = _is_empty(node.then)
        else_empty = node.otherwise is None or _is_empty(node.otherwise)
        if then_empty and else_empty and is_pure_expr(node.cond):
            self.changed = True
            return None
        if node.otherwise is not None and _is_empty(node.otherwise):
            node.otherwise = None
            self.changed = True
        return node


def _is_empty(stmt: ast.Stmt) -> bool:
    if isinstance(stmt, ast.EmptyStmt):
        return True
    if isinstance(stmt, ast.CompoundStmt):
        return all(_is_empty(s) for s in stmt.stmts)
    return False
