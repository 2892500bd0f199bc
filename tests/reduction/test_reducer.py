"""Unit tests for the hierarchical reducer: passes, edge cases, determinism."""

import sys
from collections import Counter

import pytest

from repro.cdsl import parse_program
from repro.cdsl import parser as parser_module
from repro.compilers import GccCompiler
from repro.core import CampaignConfig, FuzzingCampaign, UBProgram, UBType
from repro.core.differential import DifferentialTester
from repro.reduction import (
    HierarchicalReducer,
    make_fn_bug_predicate,
    reduce_fn_candidate,
)
from repro.reduction.reducer import token_count
from repro.reduction import passes
from repro.sanitizers.defects import default_defects
from repro.utils.errors import ReductionError

NESTED_LOOP_SOURCE = """\
int arr[4] = {1, 2, 3, 4};
int unused_global = 7;
int helper(int x) { return x + 1; }
int main() {
  int total = 0;
  int i = 0;
  for (i = 0; i < 3; i++) {
    {
      int offset = 6;
      arr[i + offset] = total;
    }
    total = total + 1;
  }
  return total;
}
"""


@pytest.fixture(scope="module")
def overflow_predicate():
    """Clean-compiler ASan predicate: still reports a buffer overflow."""
    gcc = GccCompiler(defect_registry=[])

    def predicate(source: str) -> bool:
        result = gcc.compile(source, opt_level="-O0", sanitizer="asan").run()
        return (result.crashed and result.report is not None
                and "buffer-overflow" in result.report.kind)

    return predicate


def test_rejecting_predicate_returns_input_unchanged():
    source = "int main() {\n  int x = 1;\n  return x;\n}\n"
    result = HierarchicalReducer(lambda s: False).reduce(source)
    assert result.reduced_source == source
    assert result.edits_applied == 0
    assert result.token_reduction == 0.0
    assert result.predicate_evaluations > 0  # candidates were tried


def test_unparsable_input_raises():
    with pytest.raises(ReductionError):
        HierarchicalReducer(lambda s: True).reduce("int main( {")


def test_crash_inside_loop_and_nested_block(overflow_predicate):
    """The crashing statement sits inside a loop within a nested block; the
    reducer must unswitch/flatten its way down to straight-line code."""
    assert overflow_predicate(NESTED_LOOP_SOURCE)
    result = HierarchicalReducer(overflow_predicate).reduce(NESTED_LOOP_SOURCE)
    assert overflow_predicate(result.reduced_source)
    assert result.reduced_tokens < result.original_tokens
    # The unused global and the helper function are gone...
    assert "unused_global" not in result.reduced_source
    assert "helper" not in result.reduced_source
    # ...and so is the loop: the overflow now reproduces straight-line.
    assert "for" not in result.reduced_source
    assert result.token_reduction >= 0.4


def test_accepting_predicate_reduces_to_near_nothing():
    source = NESTED_LOOP_SOURCE
    result = HierarchicalReducer(lambda s: True).reduce(source)
    # Only validity constrains the reduction; virtually everything goes.
    assert result.reduced_tokens <= 10


def test_reduce_fn_candidate_rebuilds_candidate(figure1_source):
    program = UBProgram(source=figure1_source,
                        ub_type=UBType.BUFFER_OVERFLOW_POINTER)
    tester = DifferentialTester(opt_levels=("-O0", "-O2"))
    diff = tester.test(program)
    candidate = diff.fn_candidates[0]
    reduced, result = reduce_fn_candidate(candidate, tester=tester)
    assert result.edits_applied >= 1
    assert reduced.program.source == result.reduced_source
    assert reduced.verdict.is_bug
    assert reduced.missing.config == candidate.missing.config
    # The rebuilt candidate holds the cells of the two runs it made.
    assert reduced.detecting.detected
    assert reduced.missing.verdict == ("ok", None)
    assert token_count(reduced.program.source) < token_count(program.source)


def test_reducer_runs_one_frontend_per_candidate(monkeypatch):
    """Through the campaign's cache, each distinct source the reduction
    meets is parsed at most once, and a reducer keeping its own cache
    makes the same reduction."""
    campaign = FuzzingCampaign(CampaignConfig(
        num_seeds=1, rng_seed=2024, max_programs_per_type=1,
        opt_levels=("-O0", "-O2"), triage=False))
    candidate = campaign.run().fn_candidates[0]
    parses = Counter()
    real_parse = parser_module.parse_program

    def counting_parse(source):
        parses[source] += 1
        return real_parse(source)

    for module in list(sys.modules.values()):
        if (module is not None and module.__name__.startswith("repro")
                and getattr(module, "parse_program", None) is real_parse):
            monkeypatch.setattr(module, "parse_program", counting_parse)
    _, result = reduce_fn_candidate(candidate, tester=campaign.tester,
                                    max_rounds=2)
    assert result.predicate_evaluations == 56
    assert (result.original_tokens, result.reduced_tokens) == (1169, 79)
    assert len(parses) > result.predicate_evaluations
    assert max(parses.values()) == 1

    predicate = make_fn_bug_predicate(
        candidate.program, candidate.detecting.config,
        candidate.missing.config, tester=campaign.tester)
    private = HierarchicalReducer(predicate, max_rounds=2).reduce(
        candidate.program.source)
    assert private.reduced_source == result.reduced_source
    assert private.predicate_evaluations == result.predicate_evaluations


def test_reduction_through_a_tester_of_chosen_compilers_parses_once(
        figure1_source, monkeypatch):
    """A tester built from compiler names and a registry compiles through
    one cache, and the reducer screens candidates through it: each
    candidate the predicate judges is parsed once, by the validity check,
    and its compiles reuse that parse."""
    program = UBProgram(source=figure1_source,
                        ub_type=UBType.BUFFER_OVERFLOW_POINTER)
    tester = DifferentialTester(compilers=("gcc",),
                                defect_registry=default_defects(),
                                opt_levels=("-O0", "-O2"))
    candidate = tester.test(program).fn_candidates[0]
    parses = Counter()
    real_parse = parser_module.parse_program

    def counting_parse(source):
        parses[source] += 1
        return real_parse(source)

    for module in list(sys.modules.values()):
        if (module is not None and module.__name__.startswith("repro")
                and getattr(module, "parse_program", None) is real_parse):
            monkeypatch.setattr(module, "parse_program", counting_parse)
    judged = set()
    real_run_config = tester.run_config

    def recording_run_config(candidate_program, config):
        judged.add(candidate_program.source)
        return real_run_config(candidate_program, config)

    monkeypatch.setattr(tester, "run_config", recording_run_config)
    _, result = reduce_fn_candidate(candidate, tester=tester, max_rounds=2)
    assert result.edits_applied >= 1
    assert len(judged) > 1
    assert all(parses[source] == 1 for source in judged)
    assert max(parses.values()) == 1


# -- pass-level sanity --------------------------------------------------------------


def test_statement_items_are_hierarchical(simple_source):
    unit = parse_program(simple_source)
    items = passes.statement_items(unit)
    # Every statement of every block is individually addressable.
    assert len(items) >= 7


def test_prune_candidates_drop_unused_decls():
    unit = parse_program("int used = 1;\nint unused = 2;\n"
                         "int main() { return used; }")
    candidates = list(passes.prune_candidates(unit))
    assert candidates
    assert all("unused" not in c for c in candidates[:1])


def test_drop_nodes_removes_emptied_decl_statements():
    unit = parse_program("int main() {\n  int a = 1, b = 2;\n  return 0;\n}")
    decl_ids = [d.node_id for d in unit.functions[0].body.stmts[0].decls]
    source = passes.drop_nodes(unit, set(decl_ids))
    reparsed = parse_program(source)
    assert len(reparsed.functions[0].body.stmts) == 1  # only the return left
