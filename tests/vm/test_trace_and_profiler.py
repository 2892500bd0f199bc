"""Tests for the debugger/trace API and the profile collector."""

from repro.cdsl import analyze, parse_program
from repro.cdsl import ast_nodes as ast
from repro.cdsl.visitor import find_nodes, replace_node
from repro.core.profile import SITE_ORDER_LIMIT, Profiler
from repro.vm import Interpreter, ProfileCollector
from repro.vm.trace import Debugger, format_trace, get_executed_sites


class _FakeBinary:
    """Minimal object with a run() method for driving the Debugger."""

    def __init__(self, source):
        self.unit = parse_program(source)
        self.sema = analyze(self.unit)

    def run(self, site_callback=None):
        return Interpreter(self.unit, self.sema,
                           site_callback=site_callback).run()


SOURCE = """\
int main() {
  int x = 1;
  x = x + 2;
  return x;
}
"""


def test_debugger_steps_through_recorded_sites():
    debugger = Debugger()
    binary = _FakeBinary(SOURCE)
    debugger.init(binary)
    seen = []
    while debugger.is_alive():
        seen.append((debugger.curr_line, debugger.curr_offset))
        debugger.next_instruction()
    streamed = []
    binary.run(site_callback=streamed.append)
    assert seen
    assert seen == streamed
    assert set(seen) == debugger.result.executed_sites


def test_get_executed_sites_matches_algorithm2_contract():
    sites = get_executed_sites(_FakeBinary(SOURCE))
    lines = {line for line, _ in sites}
    assert {2, 3, 4} <= lines


def test_crash_site_of_normal_run_is_none():
    result = _FakeBinary(SOURCE).run()
    assert result.exited_normally
    assert result.crash_site is None


def test_sites_cover():
    """``executed_sites`` covers exactly the sites the run streams: the
    sites of a branch not taken are not in it."""
    source = ("int main() {\n"
              "  int x = 1;\n"
              "  if (x > 2) {\n"
              "    x = 5;\n"
              "  }\n"
              "  return x;\n"
              "}\n")
    streamed = []
    result = _FakeBinary(source).run(site_callback=streamed.append)
    assert result.exit_code == 1
    assert result.executed_sites == frozenset(streamed)
    lines = {line for line, _ in result.executed_sites}
    assert {2, 3, 6} <= lines
    assert 4 not in lines
    assert (999, 999) not in result.executed_sites


def test_site_callback_outruns_truncated_trace():
    """The site stream has no cap: the Debugger steps every executed site,
    while ``Q_scp`` order answers only from the first
    ``SITE_ORDER_LIMIT`` of them."""
    source = ("int main() {\n"
              "  int t = 0;\n"
              "  for (int i = 0; i < 1500; i = i + 1) { t = t + 1; }\n"
              "  t = t - 1;\n"
              "  return t;\n"
              "}\n")
    binary = _FakeBinary(source)
    sites = get_executed_sites(binary)
    assert len(sites) > SITE_ORDER_LIMIT
    assert sites[-1][0] == 5
    profile = Profiler().profile(binary.unit, [])
    assert profile.result.exit_code == 1499
    statements = {stmt.loc.line: stmt for stmt in find_nodes(binary.unit, ast.Stmt)
                  if stmt.loc.line in (2, 4)}
    assert profile.q_scp_order(statements[2]) == \
        sites.index(statements[2].loc.site())
    assert sites.index(statements[4].loc.site()) >= SITE_ORDER_LIMIT
    assert profile.q_scp_executed(statements[4])
    assert profile.q_scp_order(statements[4]) is None


def test_format_trace_renders_tail():
    text = format_trace([(1, 2), (3, 4)], limit=5)
    assert "1:2" in text and "3:4" in text


def test_profile_collector_records_values_and_buffers():
    source = """
int arr[4] = {5, 6, 7, 8};
int main() {
  int i = 2;
  int v = arr[i];
  return v;
}
"""
    unit = parse_program(source)
    analyze(unit)
    index = find_nodes(unit, ast.Identifier, lambda n: n.name == "i")[-1]
    hook = ast.ProfileHook("idx", index, loc=index.loc)
    replace_node(unit, index, hook)
    base = find_nodes(unit, ast.Identifier, lambda n: n.name == "arr")[0]
    base_hook = ast.ProfileHook("base", base, loc=base.loc)
    replace_node(unit, base, base_hook)
    info = analyze(unit)
    collector = ProfileCollector()
    result = Interpreter(unit, info, profile_collector=collector).run()
    assert result.status == "ok"
    assert collector.first_observation("idx").value == 2
    buffer = collector.first_observation("base").buffer
    assert buffer is not None and buffer.size == 16
    assert collector.was_executed("idx")
    assert not collector.was_executed("missing-key")


def test_profile_collector_alloc_hook_sees_allocations():
    source = "int main() { int *p = malloc(12); free(p); return 0; }"
    unit = parse_program(source)
    info = analyze(unit)
    collector = ProfileCollector()
    Interpreter(unit, info, profile_collector=collector).run()
    assert any(buf.kind == "heap" and buf.size == 12 for buf in collector.allocations)
    assert len(collector.freed_addresses) == 1


# -- hook placement -------------------------------------------------------------
#
# Literal hook streams of the interpreter: every statement and expression
# ticks once (``site_callback``), an assignment target
# ticks again as an lvalue, loop heads re-tick per iteration, and profile
# hooks and ``call_hook`` fire in execution order.


class _RecordingProfile:
    """Order-sensitive profile collector stub."""

    def __init__(self):
        self.events = []

    def record_value(self, key, inner, value, memory):
        self.events.append(("value", key, value.value))

    def record_lvalue(self, key, inner, addr, ctype, memory):
        self.events.append(("lvalue", key))

    def on_alloc(self, obj):
        self.events.append(("alloc", obj.name, obj.size))

    def on_free(self, obj):
        self.events.append(("free", obj.name))


def _hooked_run(source, max_steps=10_000):
    """Run *source* with site and call hooks; returns (result, sites, calls)."""
    unit = parse_program(source)
    sites, calls = [], []
    result = Interpreter(unit, analyze(unit), max_steps=max_steps,
                         site_callback=sites.append,
                         call_hook=calls.append).run()
    return result, tuple(sites), tuple(calls)


def test_assignment_target_identifier_ticks_twice():
    """``x = 1``: statement tick, '=' tick, RHS literal, then the target
    again as an lvalue."""
    source = "int main() {\n  int x;\n  x = 1;\n  return x;\n}\n"
    result, sites, _ = _hooked_run(source)
    assert result.status == "ok" and result.exit_code == 1
    assert [site for site in sites if site[0] == 3] == \
        [(3, 3), (3, 5), (3, 7), (3, 3)]


def test_loop_head_ticks_once_per_iteration_plus_entry():
    """A 3-iteration while loop: one statement tick on entry, then one head
    tick per condition evaluation (4: three true, one false)."""
    source = ("int main() {\n"
              "  int i = 0;\n"
              "  while (i < 3) { i = i + 1; }\n"
              "  return i;\n"
              "}\n")
    result, sites, _ = _hooked_run(source)
    assert result.exit_code == 3
    head = next(site for site in sites if site[0] == 3)
    # Statement tick + 4 head ticks (the head loc is the stmt loc).
    assert sites.count(head) == 5


def test_for_head_reticks_and_step_runs_after_body():
    source = ("int g = 0;\n"
              "int main() {\n"
              "  for (int i = 0; i < 2; i = i + 1) { g = g + i; }\n"
              "  return g;\n"
              "}\n")
    result, sites, _ = _hooked_run(source)
    assert result.exit_code == 1
    init = [(3, 3), (3, 8), (3, 16)]
    condition = [(3, 3), (3, 21), (3, 19), (3, 19), (3, 23)]
    body = [(3, 37), (3, 39), (3, 41), (3, 45), (3, 43), (3, 43), (3, 47),
            (3, 47), (3, 39)]
    step = [(3, 28), (3, 32), (3, 30), (3, 30), (3, 34), (3, 26)]
    assert [site for site in sites if site[0] == 3] == \
        init + (condition + body + step) * 2 + condition


def test_timeout_step_is_counted_but_its_site_is_not_recorded():
    source = ("int main() {\n"
              "  int t = 0;\n"
              "  for (int i = 0; i < 1000; i = i + 1) { t = t + 1; }\n"
              "  return t;\n"
              "}\n")
    budget = 57
    result, sites, _ = _hooked_run(source, max_steps=budget)
    assert result.status == "timeout"
    assert result.steps == budget + 1
    assert len(sites) == budget  # the raising tick never reaches its hooks


def test_profile_hooks_fire_in_order():
    source = ("int arr[4] = {5, 6, 7, 8};\n"
              "int main() {\n"
              "  int i = 2;\n"
              "  int v = arr[i];\n"
              "  int *p = malloc(8);\n"
              "  free(p);\n"
              "  return v;\n"
              "}\n")
    unit = parse_program(source)
    analyze(unit)
    index = find_nodes(unit, ast.Identifier, lambda n: n.name == "i")[-1]
    replace_node(unit, index, ast.ProfileHook("idx", index, loc=index.loc))
    profile = _RecordingProfile()
    result = Interpreter(unit, analyze(unit), profile_collector=profile).run()
    assert result.status == "ok" and result.exit_code == 7
    assert profile.events == [
        ("alloc", "arr", 16), ("alloc", "i", 4), ("alloc", "v", 4),
        ("value", "idx", 2), ("alloc", "p", 8), ("alloc", "malloc", 8),
        ("free", "malloc")]


def test_call_hook_sees_stubbed_externals_in_call_order():
    source = ("void probe_a(void);\n"
              "void probe_b(void);\n"
              "int main() {\n"
              "  probe_a();\n"
              "  probe_b();\n"
              "  probe_a();\n"
              "  return 0;\n"
              "}\n")
    result, _, calls = _hooked_run(source)
    assert result.status == "ok"
    assert calls == ("probe_a", "probe_b", "probe_a")
