"""Unit tests for the parser."""

import pytest

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.parser import parse_expression, parse_program
from repro.cdsl.printer import print_expr, print_program
from repro.cdsl.visitor import walk
from repro.utils.errors import LexError, ParseError, ReproError


def test_parse_global_scalar_with_init():
    unit = parse_program("int g = 42;")
    decl = unit.globals[0]
    assert decl.name == "g"
    assert decl.ctype == ct.INT
    assert isinstance(decl.init, ast.IntLiteral)


def test_parse_multiple_declarators_share_base_type():
    unit = parse_program("int a = 1, *p = &a, b;")
    names = [d.name for d in unit.globals]
    assert names == ["a", "p", "b"]
    assert isinstance(unit.globals[1].ctype, ct.PointerType)


def test_parse_array_declaration():
    unit = parse_program("short arr[7];")
    assert isinstance(unit.globals[0].ctype, ct.ArrayType)
    assert unit.globals[0].ctype.length == 7


def test_parse_array_initializer_list():
    unit = parse_program("int a[3] = {1, 2, 3};")
    assert isinstance(unit.globals[0].init, ast.InitList)
    assert len(unit.globals[0].init.items) == 3


def test_parse_struct_definition_and_usage():
    unit = parse_program("struct s { int x; int y; };\nstruct s v;")
    struct_defs = unit.struct_defs
    assert len(struct_defs) == 1
    assert struct_defs[0].struct_type.field_named("y") is not None
    assert isinstance(unit.globals[0].ctype, ct.StructType)


def test_parse_struct_without_field_semicolon_like_paper():
    # The paper's Figure 1 writes "struct a { int x }"; accept it.
    unit = parse_program("struct a { int x };\nstruct a b[2];")
    assert unit.globals[0].ctype.length == 2


def test_parse_function_with_params():
    unit = parse_program("int f(int a, unsigned int b) { return a; }")
    fn = unit.functions[0]
    assert fn.name == "f"
    assert [p.name for p in fn.params] == ["a", "b"]
    assert fn.params[1].ctype == ct.UINT


def test_parse_function_void_params():
    unit = parse_program("int main(void) { return 0; }")
    assert unit.functions[0].params == []


def test_parse_function_prototype_without_body():
    unit = parse_program("int f(int a);")
    assert unit.functions[0].body is None


def test_parse_if_else_and_while():
    unit = parse_program("""
int main() {
  int x = 1;
  if (x > 0) { x = 2; } else x = 3;
  while (x) { x = x - 1; }
  return x;
}
""")
    body = unit.functions[0].body
    assert any(isinstance(s, ast.IfStmt) for s in body.stmts)
    assert any(isinstance(s, ast.WhileStmt) for s in body.stmts)


def test_parse_for_loop_with_declaration_init():
    unit = parse_program("int main() { for (int i = 0; i < 3; i++) { } return 0; }")
    for_stmt = unit.functions[0].body.stmts[0]
    assert isinstance(for_stmt, ast.ForStmt)
    assert isinstance(for_stmt.init, ast.DeclStmt)
    assert isinstance(for_stmt.step, ast.IncDec)


def test_parse_break_continue_return():
    unit = parse_program("""
int main() {
  for (;;) { break; }
  for (;;) { continue; }
  return 0;
}
""")
    assert unit.functions[0].body is not None


def test_expression_precedence_mul_over_add():
    expr = parse_expression("1 + 2 * 3")
    assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
    assert isinstance(expr.rhs, ast.BinaryOp) and expr.rhs.op == "*"


def test_expression_precedence_shift_vs_relational():
    expr = parse_expression("a << 2 < b")
    assert expr.op == "<"
    assert isinstance(expr.lhs, ast.BinaryOp) and expr.lhs.op == "<<"


def test_expression_parentheses_override_precedence():
    expr = parse_expression("(1 + 2) * 3")
    assert expr.op == "*"
    assert isinstance(expr.lhs, ast.BinaryOp) and expr.lhs.op == "+"


def test_assignment_is_right_associative():
    expr = parse_expression("a = b = 1")
    assert isinstance(expr, ast.Assignment)
    assert isinstance(expr.value, ast.Assignment)


def test_compound_assignment_operators():
    expr = parse_expression("a += 3")
    assert isinstance(expr, ast.Assignment) and expr.op == "+="


def test_ternary_operator():
    expr = parse_expression("a ? b : c")
    assert isinstance(expr, ast.Conditional)


def test_unary_and_deref_and_addressof():
    expr = parse_expression("-*&x")
    assert isinstance(expr, ast.UnaryOp) and expr.op == "-"
    assert isinstance(expr.operand, ast.Deref)
    assert isinstance(expr.operand.pointer, ast.AddressOf)


def test_pre_and_post_increment():
    pre = parse_expression("++x")
    post = parse_expression("x++")
    assert isinstance(pre, ast.IncDec) and pre.is_prefix
    assert isinstance(post, ast.IncDec) and not post.is_prefix


def test_member_access_dot_and_arrow():
    dot = parse_expression("s.field")
    arrow = parse_expression("p->field")
    assert isinstance(dot, ast.MemberAccess) and not dot.arrow
    assert isinstance(arrow, ast.MemberAccess) and arrow.arrow


def test_array_subscript_and_call():
    expr = parse_expression("f(a[1], 2)")
    assert isinstance(expr, ast.Call)
    assert isinstance(expr.args[0], ast.ArraySubscript)


def test_cast_expression():
    expr = parse_expression("(unsigned int)x")
    assert isinstance(expr, ast.Cast)
    assert expr.target_type == ct.UINT


def test_pointer_cast_expression():
    expr = parse_expression("(void*)0")
    assert isinstance(expr, ast.Cast)
    assert isinstance(expr.target_type, ct.PointerType)


def test_sizeof_type_and_expression():
    by_type = parse_expression("sizeof(long)")
    by_expr = parse_expression("sizeof x")
    assert isinstance(by_type, ast.SizeofExpr) and by_type.target_type == ct.LONG
    assert isinstance(by_expr, ast.SizeofExpr) and by_expr.operand is not None


def test_comma_expression_inside_parentheses():
    unit = parse_program("void b(int x) { }\nint main() { int a = 0; a || (b(1), 1); return 0; }")
    assert unit.functions[1].name == "main"


def test_hex_and_suffixed_literals():
    expr = parse_expression("0xfff")
    assert isinstance(expr, ast.IntLiteral) and expr.value == 4095
    suffixed = parse_expression("5u")
    assert suffixed.suffix == "u"


def test_locations_are_recorded():
    unit = parse_program("int main() {\n  int x = 1;\n  x = 2;\n  return x;\n}")
    assign_stmt = unit.functions[0].body.stmts[1]
    assert assign_stmt.loc.line == 3


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as excinfo:
        parse_program("int main() {\n  if (x { }\n}")
    assert excinfo.value.line >= 1


def test_parse_error_on_garbage():
    with pytest.raises(ParseError):
        parse_program("int main() { int x = ; }")


def test_trailing_tokens_in_expression_raise():
    with pytest.raises(ParseError):
        parse_expression("1 + 2 ;")


def test_volatile_and_static_qualifiers_accepted():
    unit = parse_program("volatile int a[5];\nstatic int b = 2;")
    assert unit.globals[0].name == "a"
    assert "volatile" in unit.globals[0].qualifiers


@pytest.mark.parametrize("literal, value", [
    ("0", 0), ("00", 0), ("7", 7), ("010", 8), ("0777", 511), ("0x1F", 31),
    ("0Xff", 255), ("010u", 8), ("0x10UL", 16), ("123l", 123),
])
def test_integer_literals_read_as_c_does(literal, value):
    assert parse_program(f"int g = {literal};").globals[0].init.value == value
    if value:
        array = parse_program(f"int a[{literal}];").globals[0]
        assert array.ctype.length == value


@pytest.mark.parametrize("source, error, line, col", [
    ("int main() {\n  return 08;\n}", ParseError, 2, 10),
    ("int main() { return 0x; }", ParseError, 1, 21),
    ("int a[09];", ParseError, 1, 7),
    ("int g = 0xu;", ParseError, 1, 9),
    ("int g = ²;", LexError, 1, 9),
    ("int été = 1;", LexError, 1, 5),
    ("int g = 1;\nint h = 2\u00a0;", LexError, 2, 10),
    ("int main() { return '\\x'; }", ParseError, 1, 21),
    ("int main() { return '\\400'; }", ParseError, 1, 21),
    ("int main() { return 'ab'; }", ParseError, 1, 21),
    ("int main() { return ''; }", ParseError, 1, 21),
])
def test_malformed_literals_raise_at_their_token(source, error, line, col):
    with pytest.raises(ReproError) as excinfo:
        parse_program(source)
    assert type(excinfo.value) is error
    assert (excinfo.value.line, excinfo.value.col) == (line, col)


def test_non_ascii_is_allowed_in_strings_and_comments():
    unit = parse_program('/* café */ int main() { printf("é\\n"); return 0; }'
                         "  // ²\n")
    assert unit.function_named("main") is not None


@pytest.mark.parametrize("literal, value", [
    ("'a'", 97), ("'\\n'", 10), ("'\\t'", 9), ("'\\0'", 0), ("'\\r'", 13),
    ("'\\\\'", 92), ("'\\''", 39), ("'\\\"'", 34), ("'\\?'", 63),
    ("'\\a'", 7), ("'\\b'", 8), ("'\\f'", 12), ("'\\v'", 11),
    ("'\\x41'", 65), ("'\\101'", 65), ("'\\012'", 10), ("'\\7'", 7),
    ("'\\x7f'", 127), ("'\\xff'", -1), ("'\\200'", -128),
])
def test_character_literals_have_their_c_values(literal, value):
    expr = parse_expression(literal)
    assert isinstance(expr, ast.IntLiteral) and expr.value == value


def _nested(depth):
    return "(" * depth + "1" + " + 1)" * depth


def test_c11_nesting_depth_parses_and_prints_back():
    expr = parse_expression(_nested(63))
    printed = print_expr(expr)
    assert printed.count("+") == 63
    assert print_expr(parse_expression(printed)) == printed
    unit = parse_program(f"int main() {{ return {_nested(63)}; }}")
    assert unit.function_named("main") is not None


def test_deeper_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_expression(_nested(1000))
    with pytest.raises(ParseError, match="nested too deeply") as excinfo:
        parse_program(f"int main() {{\n  return {_nested(1000)};\n}}")
    assert excinfo.value.line == 2


def test_two_parses_share_location_objects_and_print_identically():
    """Locations are interned per (line, column): a second parse of a text
    holds the first one's location objects, and prints the same."""
    source = ("struct S { int f; };\nint g[2] = {1, 2};\n"
              "int main(void) {\n  struct S s; s.f = g[1];\n"
              "  for (int i = 0; i < 2; i++) { s.f += i; }\n"
              "  return s.f > 1 ? 0 : 1;\n}\n")
    first, second = parse_program(source), parse_program(source)
    locations = [(a.loc, b.loc) for a, b in zip(walk(first), walk(second))]
    assert len(locations) == len(list(walk(first))) > 20
    assert all(a is b for a, b in locations)
    assert print_program(first) == print_program(second)
