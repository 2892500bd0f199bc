"""Unit tests for the interpreter (the execution substrate)."""

import pytest

from repro.cdsl import analyze, parse_program
from repro.vm import Interpreter, run_program
from repro.vm.errors import ExecutionResult


def run_source(source, max_steps=200_000):
    unit = parse_program(source)
    info = analyze(unit)
    return run_program(unit, info, max_steps=max_steps)


def exit_code(source):
    result = run_source(source)
    assert result.status == "ok", result
    return result.exit_code


def test_return_value_of_main():
    assert exit_code("int main() { return 7; }") == 7


def test_arithmetic_and_precedence():
    assert exit_code("int main() { return 2 + 3 * 4; }") == 14


def test_division_and_modulo_truncate_toward_zero():
    assert exit_code("int main() { return -7 / 2 == -3 && -7 % 2 == -1; }") == 1


def test_unsigned_wrapping():
    assert exit_code(
        "int main() { unsigned char c = 255; c = c + 1; return c; }") == 0


def test_signed_overflow_wraps_benignly_without_sanitizer():
    # UB at the C level, but the VM models two's-complement hardware.
    assert exit_code(
        "int main() { int x = 2147483647; x = x + 1; return x < 0; }") == 1


def test_bitwise_and_shift_operators():
    assert exit_code("int main() { return (5 & 3) + (5 | 2) + (1 << 4); }") == 24


def test_comparisons_and_logical_operators():
    assert exit_code("int main() { return (3 > 2) && (2 <= 2) && !(1 == 2); }") == 1


def test_short_circuit_evaluation_skips_rhs():
    source = """
int g = 0;
int bump() { g = g + 1; return 1; }
int main() { 0 && bump(); 1 || bump(); return g; }
"""
    assert exit_code(source) == 0


def test_ternary_operator():
    assert exit_code("int main() { int x = 5; return x > 3 ? 10 : 20; }") == 10


def test_compound_assignment():
    assert exit_code("int main() { int x = 4; x += 3; x *= 2; x ^= 1; return x; }") == 15


def test_pre_and_post_increment_semantics():
    assert exit_code("int main() { int x = 1; int a = x++; int b = ++x; return a * 10 + b; }") == 13


def test_if_else_and_while_loop():
    source = """
int main() {
  int n = 5;
  int sum = 0;
  while (n) { sum = sum + n; n = n - 1; }
  if (sum == 15) return 1; else return 0;
}
"""
    assert exit_code(source) == 1


def test_for_loop_with_break_and_continue():
    source = """
int main() {
  int total = 0;
  for (int i = 0; i < 10; i++) {
    if (i == 3) continue;
    if (i == 6) break;
    total = total + i;
  }
  return total;
}
"""
    assert exit_code(source) == 0 + 1 + 2 + 4 + 5


def test_global_initialization_order_and_pointers():
    source = """
int g = 4;
int *p = &g;
int main() { *p = *p + 1; return g; }
"""
    assert exit_code(source) == 5


def test_array_read_write():
    source = """
int arr[4] = {1, 2, 3, 4};
int main() {
  arr[2] = arr[0] + arr[3];
  return arr[2];
}
"""
    assert exit_code(source) == 5


def test_pointer_arithmetic_scales_by_element_size():
    source = """
int arr[4] = {10, 20, 30, 40};
int main() { int *p = arr; return *(p + 2); }
"""
    assert exit_code(source) == 30


def test_pointer_difference():
    source = """
int arr[8];
int main() { int *a = &arr[6]; int *b = &arr[1]; return a - b; }
"""
    assert exit_code(source) == 5


def test_struct_member_access_and_assignment():
    source = """
struct point { int x; int y; };
struct point p;
struct point *ptr = &p;
int main() {
  p.x = 3;
  ptr->y = 4;
  return p.x + p.y;
}
"""
    assert exit_code(source) == 7


def test_struct_copy_through_assignment():
    source = """
struct pair { int a; int b; };
struct pair src;
struct pair dst;
int main() {
  src.a = 5; src.b = 6;
  dst = src;
  return dst.a + dst.b;
}
"""
    assert exit_code(source) == 11


def test_function_calls_and_recursion():
    source = """
int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
int main() { return fact(5); }
"""
    assert exit_code(source) == 120


def test_function_arguments_are_coerced():
    source = """
int low_byte(unsigned char c) { return c; }
int main() { return low_byte(300); }
"""
    assert exit_code(source) == 300 % 256


def test_malloc_free_and_heap_access():
    source = """
int main() {
  int *p = malloc(16);
  p[0] = 3; p[3] = 4;
  int result = p[0] + p[3];
  free(p);
  return result;
}
"""
    assert exit_code(source) == 7


def test_calloc_zero_initializes():
    assert exit_code("int main() { int *p = calloc(4, 4); return p[2]; }") == 0


def test_memset_builtin():
    assert exit_code("int main() { int a[2]; memset(a, 0, 8); return a[0] + a[1]; }") == 0


def test_printf_output_captured():
    result = run_source('int main() { printf("v=%d u=%u\\n", -1, 7); return 0; }')
    assert result.stdout == "v=-1 u=7\n"


def test_sizeof_evaluation():
    assert exit_code("int main() { return sizeof(long) + sizeof(int); }") == 12


def test_uninitialized_local_read_is_tainted_but_benign():
    result = run_source("int main() { int x; if (x) return 1; return 0; }")
    assert result.status == "ok"


def test_exit_builtin_sets_exit_code():
    assert exit_code("int main() { exit(42); return 0; }") == 42


def test_timeout_on_infinite_loop():
    result = run_source("int main() { while (1) { } return 0; }", max_steps=5000)
    assert result.status == "timeout"


def test_vm_error_when_main_is_missing():
    result = run_source("int f() { return 1; }")
    assert result.status == "vm_error"


def test_executed_sites_are_recorded():
    result = run_source("int main() {\n  int x = 1;\n  x = x + 1;\n  return x;\n}")
    lines = {line for line, _col in result.executed_sites}
    assert {2, 3, 4} <= lines


def test_site_trace_is_ordered_prefix_of_execution():
    """The site stream follows execution order, and a run cut short by its
    step budget streams a prefix of the complete run's stream."""
    unit = parse_program("int main() {\n  int x = 0;\n  x = 1;\n"
                         "  return x;\n}")
    sema = analyze(unit)
    full = []
    Interpreter(unit, sema, site_callback=full.append).run()
    lines = [line for line, _ in full]
    assert lines == sorted(lines) and {2, 3, 4} <= set(lines)
    for budget in range(1, len(full)):
        cut = []
        result = Interpreter(unit, sema, max_steps=budget,
                             site_callback=cut.append).run()
        assert result.status == "timeout"
        assert cut == full[:budget]


def test_comma_expression_evaluates_left_to_right():
    source = """
int g = 0;
int set(int v) { g = v; return v; }
int main() { int x = 0; x || (set(3), 1); return g; }
"""
    assert exit_code(source) == 3


def test_nested_scopes_reuse_storage_across_iterations():
    source = """
int main() {
  int *keep = 0;
  int same = 1;
  for (int i = 0; i < 3; i++) {
    int inner = i;
    if (keep != 0 && keep != &inner) same = 0;
    keep = &inner;
  }
  return same;
}
"""
    assert exit_code(source) == 1


def test_execution_result_dataclass_properties():
    result = ExecutionResult(status="ok", exit_code=0)
    assert result.exited_normally and not result.crashed
