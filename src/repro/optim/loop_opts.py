"""Loop optimizations: deletion of side-effect-free loops and of loops whose
condition is statically false.

A loop whose body performs no store, no call and no declaration cannot
affect a UB-free program, so the compiler may delete it wholesale; if the
loop body contained the UB access (as in the paper's Figure 8 discussion),
deleting it also deletes the UB — another source of
optimization-caused discrepancies that the crash-site mapping oracle must
filter out.
"""

from __future__ import annotations

from repro.cdsl import ast_nodes as ast
from repro.cdsl.visitor import NodeTransformer, walk
from repro.optim.passes import OptimizationPass, is_pure_expr


class LoopOptimizationPass(OptimizationPass):
    name = "loop-opts"

    def run(self, fn: ast.FunctionDecl) -> bool:
        optimizer = _LoopOptimizer()
        optimizer.visit(fn.body)
        return optimizer.changed


def _stmt_is_pure(stmt: ast.Stmt) -> bool:
    """True if executing *stmt* cannot have observable side effects."""
    for node in walk(stmt):
        if isinstance(node, (ast.Assignment, ast.IncDec, ast.Call,
                             ast.ReturnStmt, ast.BreakStmt, ast.ContinueStmt,
                             ast.DeclStmt)):
            return False
    return True


class _LoopOptimizer(NodeTransformer):
    def __init__(self) -> None:
        self.changed = False

    def visit_WhileStmt(self, node: ast.WhileStmt):
        self.generic_visit(node)
        if isinstance(node.cond, ast.IntLiteral) and node.cond.value == 0:
            self.changed = True
            return None
        if _stmt_is_pure(node.body) and is_pure_expr(node.cond):
            # The loop can only terminate or not; assuming UB-freedom (and
            # that our subset's loops terminate), it is removable.
            self.changed = True
            return None
        return node

    def visit_ForStmt(self, node: ast.ForStmt):
        self.generic_visit(node)
        cond_false = isinstance(node.cond, ast.IntLiteral) and node.cond.value == 0
        if cond_false:
            self.changed = True
            # The init clause still executes once.
            if isinstance(node.init, ast.Stmt):
                return node.init
            if isinstance(node.init, ast.Expr) and not is_pure_expr(node.init):
                return ast.ExprStmt(node.init, loc=node.loc)
            return None
        body_pure = _stmt_is_pure(node.body)
        cond_pure = is_pure_expr(node.cond) if node.cond is not None else False
        if body_pure and cond_pure and node.cond is not None:
            # A loop with a pure body whose only stores (the step) hit an
            # induction variable declared in the for-init is unobservable:
            # delete it wholesale.
            step_pure = node.step is None or is_pure_expr(node.step)
            if step_pure or _only_writes_induction(node):
                self.changed = True
                return None
        return node


def _only_writes_induction(node: ast.ForStmt) -> bool:
    """True if every store in the step/body targets a variable declared in
    the for-init (the induction variable), making the loop unobservable."""
    induction_uids = set()
    if isinstance(node.init, ast.DeclStmt):
        for decl in node.init.decls:
            if decl.symbol is not None:
                induction_uids.add(decl.symbol.uid)
    if not induction_uids:
        return False
    for root in (node.step, node.body):
        if root is None:
            continue
        for inner in walk(root):
            target = None
            if isinstance(inner, ast.Assignment):
                target = inner.target
            elif isinstance(inner, ast.IncDec):
                target = inner.operand
            elif isinstance(inner, ast.Call):
                return False
            if target is not None:
                if not (isinstance(target, ast.Identifier) and target.symbol is not None
                        and target.symbol.uid in induction_uids):
                    return False
    return True
