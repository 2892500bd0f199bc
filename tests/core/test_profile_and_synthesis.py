"""Tests for execution profiling (dprof), shadow synthesis and insertion."""

import dataclasses
import sys
from collections import Counter

import pytest

from repro.cdsl import analyze, ast_nodes as ast, parse_program
from repro.cdsl import parser as parser_module
from repro.cdsl import sema as sema_module
from repro.cdsl.visitor import clone, replace_node, walk
from repro.compilers import CompilationCache
from repro.compilers.cache import source_fingerprint
from repro.core import DifferentialTester, UBGenerator
from repro.core.insertion import apply_mutation
from repro.core.matching import get_matched_exprs
from repro.core.profile import Profiler
from repro.core.synthesis import synthesize
from repro.core.ub_types import UBType
from repro.seedgen import CsmithGenerator, GeneratorConfig
from repro.utils.rng import RandomSource
from repro.vm.interpreter import Interpreter
from repro.vm.profiler import ProfileCollector

PROFILE_SOURCE = """
int arr[6] = {1, 2, 3, 4, 5, 6};
int g = 10;
int *p = &g;
int main() {
  int i = 2;
  int v = arr[i];
  int *hp = malloc(8);
  hp[1] = 5;
  int q = v * g;
  int r = v / g;
  q = q << 1;
  g = *p + r;
  if (q > r) { g = q; }
  free(hp);
  return g;
}
"""


@pytest.fixture(scope="module")
def profiled():
    unit = parse_program(PROFILE_SOURCE)
    analyze(unit)
    matches = {}
    all_matches = []
    for ub in UBType:
        found = get_matched_exprs(unit, ub)
        matches[ub] = found
        all_matches.extend(found)
    profile = Profiler().profile(unit, all_matches)
    return unit, matches, profile


def test_profile_records_liveness(profiled):
    _unit, matches, profile = profiled
    array_match = matches[UBType.BUFFER_OVERFLOW_ARRAY][0]
    assert profile.q_liv(array_match)


def test_profile_q_val_returns_observed_index(profiled):
    _unit, matches, profile = profiled
    array_match = matches[UBType.BUFFER_OVERFLOW_ARRAY][0]
    assert profile.q_val(array_match, "index") == 2


def test_profile_q_mem_identifies_heap_buffer(profiled):
    _unit, matches, profile = profiled
    heap_matches = [m for m in matches[UBType.USE_AFTER_FREE]
                    if isinstance(m.operands["pointer"], ast.Identifier)
                    and m.operands["pointer"].name == "hp"]
    assert heap_matches
    buffer = profile.q_mem(heap_matches[0], "pointer")
    assert buffer is not None and buffer.kind == "heap" and buffer.size == 8


def test_profile_scope_order_queries(profiled):
    _unit, matches, profile = profiled
    first = matches[UBType.BUFFER_OVERFLOW_ARRAY][0]
    assert profile.q_scp_executed(first.stmt)
    assert profile.q_scp_order(first.stmt) is not None


def test_profile_missing_key_gives_none(profiled):
    _unit, matches, profile = profiled
    match = matches[UBType.BUFFER_OVERFLOW_ARRAY][0]
    assert profile.q_val(match, "nonexistent-role") is None


def _reference_profile(unit, matches, max_steps=200_000):
    """The hook insertion ``Profiler.profile`` used before its slot index:
    deep-copy the unit, then one whole-tree ``replace_node`` walk per
    hooked operand.  Returns (hooked keys, collector, execution result,
    the run's executed sites in order)."""
    instrumented = clone(unit)
    hooked_keys = {}
    by_id = {node.node_id: node for node in walk(instrumented)}
    for match in matches:
        keys = []
        for role, operand in match.operands.items():
            if not isinstance(operand, ast.Expr):
                continue
            target = by_id.get(operand.node_id)
            if target is None:
                continue
            key = f"{match.key}:{role}"
            hook = ast.ProfileHook(key, target, loc=target.loc)
            if replace_node(instrumented, target, hook):
                by_id[operand.node_id] = hook
                keys.append(key)
        hooked_keys[match.key] = keys
    collector = ProfileCollector()
    sites = []
    result = Interpreter(instrumented, analyze(instrumented),
                         max_steps=max_steps,
                         profile_collector=collector,
                         site_callback=sites.append).run()
    return hooked_keys, collector, result, sites


#: ``Q_scp`` answers from the first 20,000 executed sites of the profiling
#: run; the generator's programs depend on that bound.
_ORDER_WINDOW = 20_000


def _scanned_order(sites, stmt):
    """``Q_scp`` order by a linear scan of the first ``_ORDER_WINDOW``
    sites: the index of the statement's first execution there, or None."""
    if not stmt.loc.is_known:
        return None
    try:
        return sites[:_ORDER_WINDOW].index(stmt.loc.site())
    except ValueError:
        return None


def _renumbered(values):
    """Observations with buffer scope ids renumbered by first appearance:
    scope ids come from a process-wide counter, so two analyses of the
    same program number their scopes differently."""
    numbers = {}
    renumbered = {}
    for key in sorted(values):
        rows = []
        for observation in values[key]:
            buffer = observation.buffer
            if buffer is not None and buffer.scope_id is not None:
                buffer = dataclasses.replace(
                    buffer, scope_id=numbers.setdefault(buffer.scope_id,
                                                        len(numbers)))
            rows.append(dataclasses.replace(observation, buffer=buffer))
        renumbered[key] = rows
    return renumbered


def test_profile_hooks_match_the_replace_node_reference(sample_seeds):
    """The slot-indexed hook insertion instruments exactly like one
    ``replace_node`` walk per operand, including operands shared by several
    matches, whose later hooks wrap the earlier ones; and ``Q_scp`` order
    answers as a scan of the reference run's capped site stream.  The long
    seed executes more sites than the window holds."""
    long_seed = CsmithGenerator(GeneratorConfig(seed=0)).generate(0)
    matched_types = set()
    shared_operands = 0
    longest = 0
    for seed in [*sample_seeds, long_seed]:
        unit = parse_program(seed.source)
        analyze(unit)
        matches = []
        for ub_type in UBType:
            found = get_matched_exprs(unit, ub_type)
            matched_types.update(match.ub_type for match in found)
            matches.extend(found)
        uses = Counter(operand.node_id for match in matches
                       for operand in match.operands.values()
                       if isinstance(operand, ast.Expr))
        shared_operands += sum(1 for count in uses.values() if count > 1)

        profile = Profiler().profile(unit, matches)
        hooked_keys, collector, result, sites = _reference_profile(unit,
                                                                   matches)
        assert profile.hooked_keys == hooked_keys
        assert _renumbered(profile.collector.values) == _renumbered(collector.values)
        assert profile.result.executed_sites == result.executed_sites
        assert profile.result.steps == result.steps
        for stmt in walk(unit):
            if isinstance(stmt, ast.Stmt):
                assert profile.q_scp_order(stmt) == _scanned_order(sites, stmt)
        longest = max(longest, len(sites))
    assert matched_types == set(UBType)
    assert shared_operands > 0
    assert longest > _ORDER_WINDOW


# -- synthesis ------------------------------------------------------------------------

def _synth(profiled, ub_type, index=0):
    unit, matches, profile = profiled
    match = matches[ub_type][index]
    return unit, match, synthesize(match, profile, RandomSource(3),
                                   function_body=match.function.body)


def test_synthesize_array_overflow_targets_red_zone(profiled):
    unit, match, mutation = _synth(profiled, UBType.BUFFER_OVERFLOW_ARRAY)
    assert mutation is not None
    assert mutation.augment[0][0] == "index"
    # The auxiliary delta pushes the index to [length, length + redzone).
    decl = mutation.new_stmts[0].decls[0]
    length = match.operands["length"]
    observed = 2
    from repro.cdsl.printer import print_expr
    delta_text = print_expr(decl.init) if not hasattr(decl.init, "value") else str(decl.init.value)
    delta = int(delta_text.strip("()").replace("-", "-"))
    assert length <= observed + delta < length + 8


def test_synthesize_divide_by_zero_makes_divisor_zero(profiled):
    unit, match, mutation = _synth(profiled, UBType.DIVIDE_BY_ZERO)
    assert mutation is not None
    assert ("rhs", mutation.new_stmts[0].decls[0].name) in mutation.augment


def test_synthesize_integer_overflow_produces_two_aux_vars(profiled):
    unit, match, mutation = _synth(profiled, UBType.INTEGER_OVERFLOW)
    assert mutation is not None
    assert len(mutation.new_stmts) == 2
    assert {field for field, _ in mutation.augment} == {"lhs", "rhs"}


def test_synthesize_use_after_free_inserts_free(profiled):
    unit, matches, profile = profiled
    heap_matches = [m for m in matches[UBType.USE_AFTER_FREE]
                    if m.operands["pointer"].name == "hp"]
    mutation = synthesize(heap_matches[0], profile, RandomSource(1),
                          function_body=heap_matches[0].function.body)
    assert mutation is not None
    call = mutation.new_stmts[0].expr
    assert isinstance(call, ast.Call) and call.name == "free"


def test_synthesize_null_deref_assigns_null(profiled):
    unit, matches, profile = profiled
    null_matches = [m for m in matches[UBType.NULL_POINTER_DEREF]
                    if m.operands["pointer"].name == "p"]
    mutation = synthesize(null_matches[0], profile, RandomSource(1),
                          function_body=null_matches[0].function.body)
    assert mutation is not None
    assign = mutation.new_stmts[0].expr
    assert isinstance(assign, ast.Assignment)
    assert isinstance(assign.value, ast.Cast)


def test_synthesize_uninit_use_declares_uninitialized_aux(profiled):
    unit, match, mutation = _synth(profiled, UBType.USE_OF_UNINIT_MEMORY)
    assert mutation is not None
    decl = mutation.new_stmts[0].decls[0]
    assert decl.init is None
    assert mutation.augment[0][0] == "__self__"


def test_synthesize_returns_none_for_dead_code():
    source = """
int arr[3];
int main() {
  int on = 0;
  if (on) { arr[1] = 2; }
  return 0;
}
"""
    unit = parse_program(source)
    analyze(unit)
    matches = get_matched_exprs(unit, UBType.BUFFER_OVERFLOW_ARRAY)
    profile = Profiler().profile(unit, matches)
    assert all(synthesize(m, profile, RandomSource(0), m.function.body) is None
               for m in matches)


# -- insertion -------------------------------------------------------------------------

def test_apply_mutation_produces_valid_distinct_program(profiled):
    unit, match, mutation = _synth(profiled, UBType.BUFFER_OVERFLOW_ARRAY)
    program = apply_mutation(unit, mutation, seed_index=7)
    assert program.seed_index == 7
    assert program.source != PROFILE_SOURCE
    assert "__ub_hat_" in program.source
    # The mutated program must still be statically valid.
    analyze(parse_program(program.source))


def test_apply_mutation_does_not_modify_the_seed(profiled):
    unit, match, mutation = _synth(profiled, UBType.DIVIDE_BY_ZERO)
    from repro.cdsl.printer import print_program
    before = print_program(unit)
    apply_mutation(unit, mutation)
    assert print_program(unit) == before


def test_shared_cache_parses_each_ub_program_once(sample_seed, monkeypatch):
    """Generating and testing through one cache parses and analyzes every
    UB source once: the validation is the frontend artifact every compile
    reuses, and the compiles leave that analyzed master as it was."""
    parses = Counter()
    analyses = Counter()
    real_parse = parser_module.parse_program
    real_analyze = sema_module.analyze

    def counting_parse(source):
        parses[source] += 1
        return real_parse(source)

    def counting_analyze(unit):
        analyses[unit] += 1
        return real_analyze(unit)

    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("repro"):
            continue
        if getattr(module, "parse_program", None) is real_parse:
            monkeypatch.setattr(module, "parse_program", counting_parse)
        if getattr(module, "analyze", None) is real_analyze:
            monkeypatch.setattr(module, "analyze", counting_analyze)

    cache = CompilationCache()
    generator = UBGenerator(seed=9, max_programs_per_type=1, cache=cache)
    programs = [program
                for generated in generator.generate_all(sample_seed).values()
                for program in generated]
    masters = {program.source: cache.frontend(
        source_fingerprint(program.source),
        lambda: pytest.fail("frontend entry evicted"))[0]
        for program in programs}

    def annotations(unit):
        return [(node, getattr(node, "ctype", None),
                 getattr(node, "symbol", None)) for node in walk(unit)]

    before = {source: annotations(unit) for source, unit in masters.items()}
    tester = DifferentialTester(opt_levels=("-O0", "-O2"), cache=cache)
    for program in programs:
        tester.test(program)
    assert len(programs) >= 7
    assert {program.source: parses[program.source] for program in programs} \
        == {program.source: 1 for program in programs}
    assert all(analyses[unit] == 1 for unit in masters.values())
    for source, unit in masters.items():
        after = annotations(unit)
        assert len(after) == len(before[source])
        assert all(a is b for old, new in zip(before[source], after)
                   for a, b in zip(old, new))


def test_ub_program_metadata(profiled):
    unit, match, mutation = _synth(profiled, UBType.SHIFT_OVERFLOW)
    program = apply_mutation(unit, mutation)
    assert program.ub_type == UBType.SHIFT_OVERFLOW
    assert program.target_sanitizers == ("ubsan",)
    assert program.parse() is not None
