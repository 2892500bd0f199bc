"""Unit tests for the optimizer passes and pipelines."""

import pytest

from repro.cdsl import analyze, ast_nodes as ast, parse_program, print_program
from repro.cdsl.visitor import find_nodes
from repro.optim import (
    AlgebraicSimplifyPass,
    ConstantFoldPass,
    ConstantPropagationPass,
    DeadCodeEliminationPass,
    DeadStoreEliminationPass,
    LoopOptimizationPass,
    OPT_LEVELS,
    PassPipeline,
    is_pure_expr,
    pipeline_for,
)
from repro.vm import run_program


def optimize(source, pass_obj, iterations=1):
    """Run *pass_obj* on every function of *source* that has a body,
    *iterations* times, analyzing the unit again after each time."""
    unit = parse_program(source)
    analyze(unit)
    changed = False
    for _ in range(iterations):
        for fn in unit.functions:
            if fn.body is not None:
                changed = pass_obj.run(fn) or changed
        analyze(unit)
    return unit, changed


def run_text(source):
    unit = parse_program(source)
    info = analyze(unit)
    return run_program(unit, info)


# -- constant folding ---------------------------------------------------------------

def test_constant_fold_arithmetic():
    unit, changed = optimize("int main() { return 2 + 3 * 4; }", ConstantFoldPass())
    assert changed
    literal = unit.functions[0].body.stmts[0].value
    assert isinstance(literal, ast.IntLiteral) and literal.value == 14


def test_constant_fold_refuses_division_by_zero():
    unit, changed = optimize("int main() { return 5 / 0; }", ConstantFoldPass())
    assert not changed
    assert find_nodes(unit, ast.BinaryOp, lambda n: n.op == "/")


def test_constant_fold_refuses_signed_overflow():
    unit, _ = optimize("int main() { return 2147483647 + 1; }", ConstantFoldPass())
    assert find_nodes(unit, ast.BinaryOp, lambda n: n.op == "+")


def test_constant_fold_refuses_oversized_shift():
    unit, _ = optimize("int main() { return 1 << 40; }", ConstantFoldPass())
    assert find_nodes(unit, ast.BinaryOp, lambda n: n.op == "<<")


def test_constant_fold_if_with_constant_condition():
    unit, changed = optimize(
        "int main() { int x = 0; if (1) { x = 5; } else { x = 9; } return x; }",
        ConstantFoldPass())
    assert changed
    assert not find_nodes(unit, ast.IfStmt)


def test_constant_fold_removes_false_branch_entirely():
    unit, _ = optimize("int main() { if (0) { return 9; } return 1; }",
                       ConstantFoldPass())
    assert not find_nodes(unit, ast.IfStmt)
    assert run_text(print_program(unit)).exit_code == 1


def test_constant_fold_ternary_and_cast():
    unit, changed = optimize("int main() { return (short)70000 + (1 ? 2 : 3); }",
                             ConstantFoldPass(), iterations=2)
    assert changed
    assert not find_nodes(unit, ast.Conditional)


# -- constant propagation --------------------------------------------------------------

def test_constprop_propagates_local_constant():
    source = """
int arr[10];
int main() {
  int i = 2;
  arr[i] = 1;
  return arr[2];
}
"""
    unit, changed = optimize(source, ConstantPropagationPass())
    assert changed
    subscripts = find_nodes(unit, ast.ArraySubscript)
    assert any(isinstance(s.index, ast.IntLiteral) for s in subscripts)


def test_constprop_stops_at_reassignment():
    source = """
int main() {
  int x = 1;
  x = 2;
  int y = x;
  return y;
}
"""
    unit, _ = optimize(source, ConstantPropagationPass())
    assert run_text(print_program(unit)).exit_code == 2


def test_constprop_does_not_touch_escaping_variables():
    source = """
int bump(int *p) { *p = 9; return 0; }
int main() {
  int x = 1;
  bump(&x);
  return x;
}
"""
    unit, _ = optimize(source, ConstantPropagationPass())
    assert run_text(print_program(unit)).exit_code == 9


def test_constprop_respects_volatile():
    source = """
int main() {
  volatile int x = 1;
  return x + 1;
}
"""
    unit, changed = optimize(source, ConstantPropagationPass())
    identifiers = find_nodes(unit, ast.Identifier, lambda n: n.name == "x")
    assert identifiers  # reads of x survive


# -- dead code elimination ----------------------------------------------------------------

def test_dce_removes_statements_after_return():
    source = "int g; int main() { return 1; g = 5; }"
    unit, changed = optimize(source, DeadCodeEliminationPass())
    assert changed
    assert len(unit.functions[0].body.stmts) == 1


def test_dce_removes_pure_expression_statement():
    source = "int g; int *p = &g; int main() { *p; g + 2; return 0; }"
    unit, changed = optimize(source, DeadCodeEliminationPass())
    assert changed
    assert len(unit.functions[0].body.stmts) == 1


def test_dce_keeps_expression_statements_with_side_effects():
    source = "int g; int main() { g = 3; return g; }"
    unit, changed = optimize(source, DeadCodeEliminationPass())
    assert len(unit.functions[0].body.stmts) == 2


def test_dce_removes_empty_if():
    source = "int main() { int x = 1; if (x > 0) { ; } return x; }"
    unit, changed = optimize(source, DeadCodeEliminationPass())
    assert changed
    assert not find_nodes(unit, ast.IfStmt)


# -- dead store elimination -----------------------------------------------------------------

def test_dse_removes_store_to_never_read_local_array():
    source = """
int main() {
  int d[2];
  int x = 0;
  x = 1;
  d[x] = 42;
  return x;
}
"""
    unit, changed = optimize(source, DeadStoreEliminationPass())
    assert changed
    assert not find_nodes(unit, ast.ArraySubscript)


def test_dse_keeps_stores_to_read_variables():
    source = """
int main() {
  int d[2];
  d[0] = 42;
  return d[0];
}
"""
    unit, changed = optimize(source, DeadStoreEliminationPass())
    assert find_nodes(unit, ast.ArraySubscript)


def test_dse_keeps_stores_to_escaping_arrays():
    source = """
int use(int *p) { return p[0]; }
int main() {
  int d[2];
  d[0] = 42;
  return use(&d[0]);
}
"""
    unit, changed = optimize(source, DeadStoreEliminationPass())
    assert find_nodes(unit, ast.Assignment)


def test_dse_preserves_side_effects_of_rhs():
    source = """
int g = 0;
int bump() { g = g + 1; return g; }
int main() {
  int dead = 0;
  dead = bump();
  return g;
}
"""
    unit, _ = optimize(source, DeadStoreEliminationPass())
    assert run_text(print_program(unit)).exit_code == 1


# -- algebraic simplification -------------------------------------------------------------------

def test_simplify_mul_by_zero():
    unit, changed = optimize("int main() { int x = 7; return x * 0; }",
                             AlgebraicSimplifyPass())
    assert changed
    assert isinstance(unit.functions[0].body.stmts[-1].value, ast.IntLiteral)


def test_simplify_add_zero_and_mul_one():
    unit, changed = optimize("int main() { int x = 7; return (x + 0) * 1; }",
                             AlgebraicSimplifyPass())
    assert changed
    ret = unit.functions[0].body.stmts[-1]
    assert isinstance(ret.value, ast.Identifier)


def test_simplify_does_not_drop_side_effects():
    source = """
int g = 0;
int bump() { g = g + 1; return g; }
int main() { int x = bump() * 0; return g; }
"""
    unit, _ = optimize(source, AlgebraicSimplifyPass())
    assert run_text(print_program(unit)).exit_code == 1


def test_simplify_preserves_semantics_of_valid_program():
    source = "int main() { int x = 6; return (x | 0) + (x ^ 0) + (x >> 0); }"
    unit, _ = optimize(source, AlgebraicSimplifyPass())
    assert run_text(print_program(unit)).exit_code == 18


# -- loop optimizations ------------------------------------------------------------------------

def test_loop_opts_removes_pure_for_loop():
    source = """
int g = 3;
int main() {
  for (int i = 0; i < 5; i++) { g + i; }
  return g;
}
"""
    unit, changed = optimize(source, LoopOptimizationPass())
    assert changed
    assert not find_nodes(unit, ast.ForStmt)


def test_loop_opts_keeps_loops_with_observable_stores():
    source = """
int g = 0;
int main() {
  for (int i = 0; i < 5; i++) { g = g + i; }
  return g;
}
"""
    unit, changed = optimize(source, LoopOptimizationPass())
    assert find_nodes(unit, ast.ForStmt)


def test_loop_opts_removes_while_false():
    unit, changed = optimize("int main() { while (0) { } return 3; }",
                             LoopOptimizationPass())
    assert changed
    assert not find_nodes(unit, ast.WhileStmt)


# -- pipelines ------------------------------------------------------------------------------------

def test_pipeline_for_every_compiler_and_level():
    for compiler in ("gcc", "llvm"):
        for level in OPT_LEVELS:
            pipeline = pipeline_for(compiler, level)
            assert isinstance(pipeline, PassPipeline)
    assert pipeline_for("llvm", "-O0").passes == []


def test_pipeline_for_unknown_inputs_raise():
    with pytest.raises(KeyError):
        pipeline_for("icc", "-O2")
    with pytest.raises(KeyError):
        pipeline_for("gcc", "-O9")


def test_gcc_and_llvm_pipelines_differ():
    gcc_names = pipeline_for("gcc", "-O2").pass_names
    llvm_names = pipeline_for("llvm", "-O2").pass_names
    assert gcc_names != llvm_names


def test_pipeline_runs_to_fixpoint_and_reports_changes():
    source = "int main() { int x = 1; if (x == 1) { return 2 + 3; } return 0; }"
    unit = parse_program(source)
    analyze(unit)
    pipeline = pipeline_for("gcc", "-O2")
    changed = pipeline.run(unit)
    assert "constant-fold" in changed or "constprop" in changed


def test_is_pure_expr_helper():
    unit = parse_program("int g; int main() { g = 1; return g + 2; }")
    analyze(unit)
    assign = find_nodes(unit, ast.Assignment)[0]
    add = find_nodes(unit, ast.BinaryOp, lambda n: n.op == "+")[0]
    assert not is_pure_expr(assign)
    assert is_pure_expr(add)


# -- semantic preservation on full programs -------------------------------------------------------

@pytest.mark.parametrize("opt_level", ["-O1", "-Os", "-O2", "-O3"])
def test_optimizations_preserve_seed_semantics(sample_seeds, opt_level):
    """Property: for valid (UB-free) seeds, every pipeline preserves the
    program's output and exit code."""
    from repro.compilers import GccCompiler, LlvmCompiler
    for seed in sample_seeds[:2]:
        reference = None
        for compiler in (GccCompiler(defect_registry=[]), LlvmCompiler(defect_registry=[])):
            binary = compiler.compile(seed.source, opt_level=opt_level)
            result = binary.run()
            assert result.status == "ok"
            observed = (result.exit_code, result.stdout)
            if reference is None:
                reference = observed
            else:
                assert observed == reference
