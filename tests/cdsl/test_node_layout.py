"""The declared node layout and the copies and walks built on it.

Every AST node class lists its attributes in ``__slots__``; ``fast_clone``
generates one copier per class from them.  These tests guard the layout
through every stage that builds or rewrites nodes (parse, sema, each
optimizer pass, each sanitizer overlay, the profiler's hooks) and pin the
``fast_clone`` contract.
"""

import pytest

from repro.cdsl import ast_nodes as ast
from repro.cdsl.parser import parse_program
from repro.cdsl.printer import print_program
from repro.cdsl.sema import analyze
from repro.cdsl.visitor import fast_clone, walk
from repro.compilers import LlvmCompiler
from repro.core import profile as profile_module
from repro.core.matching import get_matched_exprs
from repro.core.profile import Profiler
from repro.core.ub_types import UBType
from repro.optim.pipelines import pipeline_for


def _node_classes():
    pending, seen = [ast.Node], []
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen


def _slots(cls):
    return [name for klass in cls.__mro__
            for name in vars(klass).get("__slots__", ())]


def assert_declared_layout(root):
    """No node under *root* has a ``__dict__``, and every slot is set."""
    for node in walk(root):
        assert not hasattr(node, "__dict__"), type(node).__name__
        for name in _slots(type(node)):
            assert hasattr(node, name), f"{type(node).__name__}.{name} unset"


def test_every_node_class_declares_slots():
    classes = _node_classes()
    assert len(classes) > 30
    for cls in classes:
        assert "__slots__" in vars(cls), cls.__name__
        assert "__dict__" not in _slots(cls)


def test_undeclared_attribute_is_rejected():
    node = ast.Identifier("x")
    with pytest.raises(AttributeError):
        node.comment = "not part of the layout"


@pytest.mark.parametrize("compiler", ["gcc", "llvm"])
def test_layout_holds_through_frontend_and_every_pass(compiler, sample_ub_programs):
    program = next(p for programs in sample_ub_programs.values()
                   for p in programs)
    unit = parse_program(program.source)
    assert_declared_layout(unit)
    sema = analyze(unit)
    assert_declared_layout(unit)
    for opt_pass in pipeline_for(compiler, "-O3").passes:
        opt_pass.run(unit, sema)
        assert_declared_layout(unit)
        sema = analyze(unit)


@pytest.mark.parametrize("sanitizer", ["asan", "ubsan", "msan"])
def test_layout_holds_through_sanitizer_overlays(sanitizer, sample_ub_programs):
    for programs in sample_ub_programs.values():
        binary = LlvmCompiler().compile(programs[0].source, opt_level="-O2",
                                        sanitizer=sanitizer)
        assert_declared_layout(binary.unit)


def test_layout_holds_through_profiler_hooks(sample_seed, monkeypatch):
    instrumented = []

    def analyze_and_keep(unit):
        instrumented.append(unit)
        return analyze(unit)

    monkeypatch.setattr(profile_module, "analyze", analyze_and_keep)
    unit = parse_program(sample_seed.source)
    analyze(unit)
    matches = [m for ub_type in UBType for m in get_matched_exprs(unit, ub_type)]
    Profiler().profile(unit, matches)
    (hooked,) = instrumented
    assert any(isinstance(node, ast.ProfileHook) for node in walk(hooked))
    assert_declared_layout(hooked)


def _ub_binary_unit(sample_ub_programs):
    """An instrumented, analyzed unit with sanitizer checks in it."""
    program = next(p for programs in sample_ub_programs.values()
                   for p in programs)
    return LlvmCompiler().compile(program.source, opt_level="-O0",
                                  sanitizer="ubsan").unit


def test_fast_clone_contract(sample_ub_programs):
    original = _ub_binary_unit(sample_ub_programs)
    copy = fast_clone(original)
    assert print_program(copy) == print_program(original)

    pairs = list(zip(walk(original), walk(copy)))
    assert len(pairs) == sum(1 for _ in walk(copy))
    originals = {id(node) for node, _ in pairs}
    original_lists = {id(getattr(node, name)) for node, _ in pairs
                      for name in node._fields
                      if isinstance(getattr(node, name), list)}
    checks = 0
    for node, twin in pairs:
        assert type(twin) is type(node)
        assert twin.node_id == node.node_id
        assert id(twin) not in originals
        assert twin.loc is node.loc
        for name in node._fields:
            if isinstance(getattr(twin, name), list):
                assert id(getattr(twin, name)) not in original_lists
        if isinstance(node, ast.Expr):
            assert twin.ctype is node.ctype
        if isinstance(node, (ast.Identifier, ast.VarDecl, ast.ParamDecl)):
            assert twin.symbol is node.symbol
        if isinstance(node, ast.SanitizerCheck):
            assert twin.detail == node.detail
            assert twin.detail is not node.detail
            checks += 1
    assert checks > 0


def test_fast_clone_copies_a_shared_node_once():
    shared = ast.Identifier("x")
    expr = ast.BinaryOp("+", shared, shared)
    stmt = ast.ExprStmt(expr)
    copy = fast_clone(stmt)
    assert copy.expr.lhs is copy.expr.rhs
    assert copy.expr.lhs is not shared
    assert copy.expr.lhs.node_id == shared.node_id


def test_walk_descends_into_lists_replaced_at_the_current_node():
    unit = parse_program("int main() { int a = 1; a = 2; return a; }")
    body = unit.function_named("main").body
    seen = []
    for node in walk(unit):
        seen.append(type(node).__name__)
        if node is body:
            body.stmts = body.stmts[-1:]
    assert "DeclStmt" not in seen
    assert seen[-2:] == ["ReturnStmt", "Identifier"]
