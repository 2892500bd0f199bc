"""Candidate generation for hierarchical test-case reduction.

Every pass takes the parsed current program and produces *candidate sources*
— programs one deterministic edit smaller or simpler than the current one.
The reducer validates each candidate (it must re-parse and pass semantic
analysis) and keeps the first one the interestingness predicate accepts.

Candidate ordering is deterministic: passes traverse the AST in preorder and
emit edits in a fixed order, so serial and parallel reduction pick the same
winning candidate at every step (see :mod:`repro.reduction.reducer`).

All edits operate on :func:`~repro.cdsl.visitor.fast_clone` copies keyed by
the (clone-stable) ``node_id``, so generating N candidates never mutates the
current program.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.cdsl import ast_nodes as ast
from repro.cdsl.printer import print_program
from repro.cdsl.visitor import fast_clone, parent_map, walk


def _clone_indexed(unit: ast.TranslationUnit):
    copy = fast_clone(unit)
    return copy, {node.node_id: node for node in walk(copy)}


def drop_nodes(unit: ast.TranslationUnit, node_ids: Set[int]) -> str:
    """Print *unit* with every node whose id is in *node_ids* deleted from
    its containing statement/declaration list."""
    copy = fast_clone(unit)
    for node in walk(copy):
        for field_name in node._fields:
            value = getattr(node, field_name, None)
            if isinstance(value, list):
                kept = [item for item in value
                        if not (isinstance(item, ast.Node)
                                and item.node_id in node_ids)]
                # A declaration statement emptied of all its declarators
                # disappears with them.
                kept = [item for item in kept
                        if not (isinstance(item, ast.DeclStmt) and not item.decls)]
                if len(kept) != len(value):
                    setattr(node, field_name, kept)
    return print_program(copy)


def _replace_in_parent(copy_parents, target: ast.Node,
                       replacement: ast.Node) -> bool:
    parent = copy_parents.get(target.node_id)
    if parent is None:
        return False
    for field_name in parent._fields:
        value = getattr(parent, field_name, None)
        if value is target:
            setattr(parent, field_name, replacement)
            return True
        if isinstance(value, list):
            for i, item in enumerate(value):
                if item is target:
                    value[i] = replacement
                    return True
    return False


def _splice_in_parent(copy_parents, target: ast.Stmt,
                      replacement: Sequence[ast.Stmt]) -> bool:
    """Replace a statement with several in its statement list.

    When the target sits in a single-node field instead (an unbraced branch
    or loop body), a single replacement is assigned directly and an empty
    one becomes ``;``."""
    parent = copy_parents.get(target.node_id)
    if parent is None:
        return False
    for field_name in parent._fields:
        value = getattr(parent, field_name, None)
        if isinstance(value, list):
            for i, item in enumerate(value):
                if item is target:
                    value[i:i + 1] = list(replacement)
                    return True
        elif value is target:
            if len(replacement) == 1:
                setattr(parent, field_name, replacement[0])
            elif not replacement:
                setattr(parent, field_name, ast.EmptyStmt(loc=target.loc))
            else:
                return False
            return True
    return False


# ---------------------------------------------------------------------------
# ddmin item enumeration
# ---------------------------------------------------------------------------


def toplevel_items(unit: ast.TranslationUnit) -> List[int]:
    """Node ids of removable top-level declarations (``main`` is kept)."""
    items: List[int] = []
    for decl in unit.decls:
        if isinstance(decl, ast.FunctionDecl) and decl.name == "main":
            continue
        items.append(decl.node_id)
    return items


def statement_items(unit: ast.TranslationUnit) -> List[int]:
    """Node ids of every statement held in a statement list, in preorder.

    Nested compound statements are items themselves (removing one deletes
    the whole block) and so are the statements inside them, which is what
    makes the statement-level ddmin hierarchical.
    """
    items: List[int] = []
    for node in walk(unit):
        if isinstance(node, ast.CompoundStmt):
            for stmt in node.stmts:
                items.append(stmt.node_id)
    return items


# ---------------------------------------------------------------------------
# AST-level passes
# ---------------------------------------------------------------------------


def _as_stmts(stmt: Optional[ast.Stmt]) -> List[ast.Stmt]:
    if stmt is None:
        return []
    if isinstance(stmt, ast.CompoundStmt):
        return list(stmt.stmts)
    return [stmt]


def flatten_candidates(unit: ast.TranslationUnit) -> Iterator[str]:
    """Flatten compound blocks and conditionals into their contents.

    * a block statement nested in a statement list → its statements inline;
    * ``if (c) A else B`` → ``A``, then → ``B`` (branch selection).
    """
    targets: List[Tuple[int, str]] = []
    bodies = {fn.body.node_id for fn in unit.functions if fn.body is not None}
    for node in walk(unit):
        if isinstance(node, ast.CompoundStmt) and node.node_id not in bodies:
            targets.append((node.node_id, "inline"))
        elif isinstance(node, ast.IfStmt):
            targets.append((node.node_id, "then"))
            if node.otherwise is not None:
                targets.append((node.node_id, "else"))
    for node_id, action in targets:
        copy, by_id = _clone_indexed(unit)
        target = by_id[node_id]
        parents = parent_map(copy)
        if action == "inline":
            replacement = list(target.stmts)
        elif action == "then":
            replacement = _as_stmts(target.then)
        else:
            replacement = _as_stmts(target.otherwise)
        if _splice_in_parent(parents, target, replacement):
            yield print_program(copy)


def unswitch_candidates(unit: ast.TranslationUnit) -> Iterator[str]:
    """Unswitch loops to straight-line code: a loop is replaced by one
    unrolled iteration of its body (``for`` keeps its init clause)."""
    loops: List[int] = [node.node_id for node in walk(unit)
                       if isinstance(node, (ast.ForStmt, ast.WhileStmt))]
    for node_id in loops:
        copy, by_id = _clone_indexed(unit)
        loop = by_id[node_id]
        parents = parent_map(copy)
        replacement: List[ast.Stmt] = []
        if isinstance(loop, ast.ForStmt) and loop.init is not None:
            init = loop.init
            if isinstance(init, ast.Expr):
                init = ast.ExprStmt(init, loc=init.loc)
            replacement.append(init)
        replacement.extend(_as_stmts(loop.body))
        if _splice_in_parent(parents, loop, replacement):
            yield print_program(copy)


#: Node types worth trying to collapse into an integer constant.
_SIMPLIFIABLE = (ast.BinaryOp, ast.UnaryOp, ast.Conditional, ast.Cast,
                 ast.Call, ast.CommaExpr, ast.ArraySubscript, ast.Deref,
                 ast.MemberAccess, ast.SizeofExpr)


#: Expression sites :func:`simplify_candidates` tries per invocation.
SIMPLIFY_CAP = 64


def _subtree_size(node: ast.Node) -> int:
    return sum(1 for _ in walk(node))


def simplify_candidates(unit: ast.TranslationUnit) -> Iterator[str]:
    """Replace composite sub-expressions with the constants ``0`` and ``1``.

    Write targets (assignment left-hand sides, ``&`` and ``++``/``--``
    operands) are skipped — they cannot become literals.  Larger subtrees are
    tried first; at most :data:`SIMPLIFY_CAP` sites are attempted per
    invocation.
    """
    parents = parent_map(unit)

    def is_write_target(expr: ast.Expr) -> bool:
        parent = parents.get(expr.node_id)
        if isinstance(parent, ast.Assignment) and parent.target is expr:
            return True
        if isinstance(parent, (ast.IncDec, ast.AddressOf)):
            return True
        return False

    sites: List[Tuple[int, int, int]] = []  # (-size, order, node_id)
    for order, node in enumerate(walk(unit)):
        if isinstance(node, _SIMPLIFIABLE) and not is_write_target(node):
            sites.append((-_subtree_size(node), order, node.node_id))
    sites.sort()
    for _, _, node_id in sites[:SIMPLIFY_CAP]:
        for value in (0, 1):
            copy, by_id = _clone_indexed(unit)
            target = by_id[node_id]
            copy_parents = parent_map(copy)
            literal = ast.IntLiteral(value, loc=target.loc)
            if _replace_in_parent(copy_parents, target, literal):
                yield print_program(copy)


def prune_candidates(unit: ast.TranslationUnit) -> Iterator[str]:
    """Remove declarations whose name is never referenced.

    The first candidate removes *all* unused variables and uncalled
    functions at once (the common big win); the rest retry one at a time in
    case the aggregate edit is rejected.
    """
    used: Set[str] = set()
    for node in walk(unit):
        if isinstance(node, ast.Identifier):
            used.add(node.name)
        elif isinstance(node, ast.Call):
            used.add(node.name)

    unused: List[int] = []
    for node in walk(unit):
        if isinstance(node, ast.VarDecl) and node.name not in used:
            unused.append(node.node_id)
        elif (isinstance(node, ast.FunctionDecl) and node.name != "main"
              and node.name not in used):
            unused.append(node.node_id)
    if not unused:
        return
    if len(unused) > 1:
        yield drop_nodes(unit, set(unused))
    for node_id in unused:
        yield drop_nodes(unit, {node_id})
