"""Tests for the coverage tracker and reports (Table 5 substrate)."""

import importlib

import pytest

import repro.analysis.campaign as campaign_module
from repro.analysis import measure_corpus_coverage
from repro.compilers import CompilationCache, GccCompiler
from repro.compilers.options import CompileOptions
from repro.coverage import CoverageReport, CoverageTracker, merge_reports, report_from_tracker
from repro.coverage.tracker import branch_directions

from reference_pipeline import record_pass_runs


def _count_positive(values):
    count = 0
    for value in values:
        if value > 0:
            count += 1
    return count


def test_static_inventory_is_nonempty():
    tracker = CoverageTracker()
    assert tracker.total_lines > 200
    assert tracker.total_functions > 30
    assert tracker.total_branch_directions > 200


def test_a_module_that_fails_to_import_raises(monkeypatch):
    """A broken package module must not shrink the denominators silently."""
    real_import = importlib.import_module

    def import_module(name, *args):
        if name == "repro.optim.dce":
            raise ImportError("broken module")
        return real_import(name, *args)

    monkeypatch.setattr(importlib, "import_module", import_module)
    with pytest.raises(ImportError, match="broken module"):
        CoverageTracker()


def test_initial_coverage_is_zero():
    tracker = CoverageTracker()
    assert tracker.line_coverage() == 0.0
    assert tracker.function_coverage() == 0.0
    assert tracker.branch_coverage() == 0.0


def test_directions_are_the_sides_of_each_if_and_for():
    """Relative to the ``def`` line: the ``for`` (2) enters its body (3)
    or leaves to the ``return`` (5); the ``if`` (3) runs its body (4) or
    goes back to the ``for``."""
    code = _count_positive.__code__
    first = code.co_firstlineno
    assert branch_directions(code) == {
        (code.co_filename, first + line, first + target)
        for line, target in ((2, 3), (2, 5), (3, 4), (3, 2))}


def test_tracer_records_exactly_the_directions_taken(monkeypatch):
    code = _count_positive.__code__
    first = code.co_firstlineno
    inventory = branch_directions(code)
    tracker = CoverageTracker()
    monkeypatch.setattr(tracker, "_files", tracker._files | {__file__})
    with tracker:
        _count_positive([1, 2])
    # Both values are positive: the ``if`` never goes straight back.
    assert tracker.arcs & inventory == {
        (code.co_filename, first + line, first + target)
        for line, target in ((2, 3), (2, 5), (3, 4))}


def _append_positive(value, seen):
    if value > 0:
        seen.append(value)


def test_a_function_ending_in_an_if_shows_both_directions(monkeypatch):
    """Relative to the ``def`` line: the ``if`` (1) runs its body (2) or
    returns on its own line, since CPython gives the implicit return the
    line of the decision that jumps to it.  That side goes to the exit,
    ``-co_firstlineno``, which the tracer records on the frame's return
    event."""
    code = _append_positive.__code__
    first = code.co_firstlineno
    body = (code.co_filename, first + 1, first + 2)
    leave = (code.co_filename, first + 1, -first)
    assert branch_directions(code) == {body, leave}
    tracker = CoverageTracker()
    monkeypatch.setattr(tracker, "_files", tracker._files | {__file__})
    with tracker:
        _append_positive(1, [])
    assert tracker.arcs & {body, leave} == {body}
    with tracker:
        _append_positive(0, [])
    assert tracker.arcs & {body, leave} == {body, leave}


def test_compiling_under_tracker_records_lines_and_functions(simple_source):
    tracker = CoverageTracker()
    compiler = GccCompiler()
    with tracker:
        compiler.compile(simple_source,
                         CompileOptions(opt_level="-O2", sanitizer="asan"))
    assert tracker.line_coverage() > 0.05
    assert tracker.function_coverage() > 0.05
    assert tracker.branch_coverage() > 0.0


def test_richer_corpus_covers_at_least_as_much(simple_source, figure1_source):
    small = CoverageTracker()
    compiler = GccCompiler()
    with small:
        compiler.compile(simple_source, CompileOptions(opt_level="-O0", sanitizer="asan"))
    large = CoverageTracker()
    compiler = GccCompiler()
    with large:
        for source in (simple_source, figure1_source):
            for sanitizer in ("asan", "ubsan"):
                compiler.compile(source, CompileOptions(opt_level="-O2",
                                                        sanitizer=sanitizer))
    assert large.line_coverage() >= small.line_coverage()
    assert large.branch_coverage() >= small.branch_coverage()


_VARIABLE_IF = """\
int g = 2;
int main() {
  int x = g;
  if (x > 1) {
    x = x + 1;
  }
  return x;
}
"""


def test_a_folded_constant_if_raises_branch_coverage():
    """gcc -O0 runs constant folding only.  A program whose ``if (1)`` the
    pass removes takes the fold's decision the other way, a direction the
    variable ``if`` never takes."""
    corpus = [_VARIABLE_IF]
    with_constant_if = corpus + [_VARIABLE_IF.replace("x > 1", "1")]
    coverage = []
    for sources in (corpus, with_constant_if):
        tracker = CoverageTracker()
        compiler = GccCompiler()
        with tracker:
            for source in sources:
                compiler.compile(source, CompileOptions(opt_level="-O0",
                                                        sanitizer="asan"))
        coverage.append(tracker.branch_coverage())
    assert coverage[1] > coverage[0]


def test_report_from_tracker_and_merge():
    tracker = CoverageTracker()
    report = report_from_tracker(tracker, "seeds", "gcc")
    assert isinstance(report, CoverageReport)
    rows = merge_reports({"seeds": report,
                          "ubfuzz": report_from_tracker(tracker, "ubfuzz", "gcc")})
    assert rows[0][0] == "seeds"
    assert rows[-1][0] == "ubfuzz"
    assert report.as_row()[2].endswith("%")


class _Forgetful(set):
    """An optimizer memo that keeps no pair, so no pass is ever skipped."""

    def add(self, pair):
        pass


def test_corpus_coverage_is_the_same_whether_the_memo_skips_or_not(
        monkeypatch, sample_seeds, sample_ub_programs):
    """The memo skips a pass only on a function state where the pass
    already ran, changing nothing, through the same cache, and each
    (compiler, corpus) of Table 5 compiles through a private cache under
    its own tracker.  So a corpus records exactly the same arcs and
    functions whether the memo keeps its pairs or forgets them; a memo
    shared across corpora would skip a later corpus's runs and credit it
    with less."""
    corpora = {
        "seeds": [seed.source for seed in sample_seeds[:2]],
        "ubfuzz": [program.source for programs in sample_ub_programs.values()
                   for program in programs][:2],
    }
    recorded = []

    def record(tracker, corpus, compiler):
        recorded.append((compiler, corpus, frozenset(tracker.arcs),
                         frozenset(tracker.functions)))
        return report_from_tracker(tracker, corpus, compiler)

    # The wrappers live outside the traced packages, so they add no arc.
    runs = record_pass_runs(monkeypatch)
    monkeypatch.setattr(campaign_module, "report_from_tracker", record)
    measure_corpus_coverage(corpora, max_programs=2)
    with_memo, runs_with_memo = list(recorded), len(runs)
    del recorded[:], runs[:]
    real_memo = CompilationCache.no_op_memo

    def forgetful_memo(self, fingerprint):
        real_memo(self, fingerprint)      # its lines count in both runs
        return _Forgetful()

    monkeypatch.setattr(CompilationCache, "no_op_memo", forgetful_memo)
    measure_corpus_coverage(corpora, max_programs=2)
    assert runs_with_memo < len(runs)
    assert len(recorded) == 4
    assert recorded == with_memo
