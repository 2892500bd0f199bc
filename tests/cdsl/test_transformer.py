"""The ``NodeTransformer`` contract: what ``visit_*`` return values do to
the tree, and how dispatch finds a node class's visitor."""

import pytest

from repro.cdsl import ast_nodes as ast
from repro.cdsl.parser import parse_program
from repro.cdsl.printer import print_program
from repro.cdsl.visitor import NodeTransformer

SOURCE = """
int main() {
    int x = 1;
    x = 2;
    x = 3;
    if (x) { x = 4; }
    return x;
}
"""


def _body(source: str = SOURCE) -> ast.CompoundStmt:
    return parse_program(source).functions[0].body


class _DropAssignments(NodeTransformer):
    def visit_ExprStmt(self, node):
        return None if isinstance(node.expr, ast.Assignment) else node


def test_none_deletes_an_item_from_its_list():
    body = _DropAssignments().visit(_body())
    decl, branch, ret = body.stmts
    assert isinstance(decl, ast.DeclStmt)
    assert isinstance(branch, ast.IfStmt) and branch.then.stmts == []
    assert isinstance(ret, ast.ReturnStmt)


class _Duplicate(NodeTransformer):
    def visit_ExprStmt(self, node):
        return [node, ast.ExprStmt(ast.IntLiteral(0))]


def test_a_returned_list_is_spliced_into_the_statement_list():
    body = _Duplicate().visit(_body())
    kinds = [type(stmt).__name__ for stmt in body.stmts]
    assert kinds == ["DeclStmt", "ExprStmt", "ExprStmt", "ExprStmt",
                     "ExprStmt", "IfStmt", "ReturnStmt"]
    assert len(body.stmts[5].then.stmts) == 2


class _ListForExpr(NodeTransformer):
    def visit_IntLiteral(self, node):
        return [node]


def test_a_list_for_a_single_node_field_raises_type_error():
    with pytest.raises(TypeError, match="single-node field ExprStmt.expr"):
        _ListForExpr().visit(
            parse_program("int main() { 5; return 0; }").functions[0].body)


class _Negate(NodeTransformer):
    def visit_IntLiteral(self, node):
        return ast.IntLiteral(-node.value)


def test_non_node_list_items_are_kept_and_tuples_left_alone():
    body = _body("int main() { f(1, 2); return 3; }")
    body.stmts.insert(1, "not a node")
    call = body.stmts[0].expr
    args = tuple(call.args)
    call.args = args
    _Negate().visit(body)
    assert body.stmts[1] == "not a node"
    assert call.args is args and [a.value for a in args] == [1, 2]
    assert body.stmts[2].value.value == -3


class _Base(NodeTransformer):
    def __init__(self):
        self.seen = []

    def visit_ReturnStmt(self, node):
        self.seen.append(("base", node.value.value))
        return self.generic_visit(node)


class _Inherits(_Base):
    pass


class _Overrides(_Base):
    def visit_ReturnStmt(self, node):
        self.seen.append(("override", node.value.value))
        return node


def test_an_inherited_visit_method_is_dispatched():
    transformer = _Inherits()
    transformer.visit(_body("int main() { return 7; }"))
    assert transformer.seen == [("base", 7)]


def test_an_overriding_subclass_gets_its_own_table():
    body = "int main() { return 7; }"
    base, override = _Base(), _Overrides()
    base.visit(_body(body))
    override.visit(_body(body))
    base.visit(_body(body))
    assert base.seen == [("base", 7), ("base", 7)]
    assert override.seen == [("override", 7)]
    assert _Overrides._visitors is not _Base._visitors
    assert _Overrides._visitors[ast.ReturnStmt] is _Overrides.visit_ReturnStmt
    assert _Base._visitors[ast.ReturnStmt] is _Base.visit_ReturnStmt


class _CountLiterals(NodeTransformer):
    def __init__(self):
        self.count = 0

    def visit_IntLiteral(self, node):
        self.count += 1
        return node


def test_explicit_generic_visit_reaches_the_generated_visitor():
    unit = parse_program("int main() { return 1 + 2; }")
    transformer = _CountLiterals()
    assert transformer.generic_visit(unit) is unit
    assert transformer.count == 2
    # A node class without a visit method maps to one generated visitor,
    # shared by every transformer class.
    assert _CountLiterals._visitors[ast.BinaryOp] \
        is _Base._visitors[ast.BinaryOp]


def test_identity_transformer_leaves_the_program_unchanged(figure1_source):
    unit = parse_program(figure1_source)
    before = print_program(unit)
    assert NodeTransformer().visit(unit) is unit
    assert print_program(unit) == before
