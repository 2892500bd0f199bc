"""Tests for the coverage tracker and reports (Table 5 substrate)."""

import importlib

import pytest

from repro.compilers import GccCompiler
from repro.compilers.options import CompileOptions
from repro.coverage import CoverageReport, CoverageTracker, merge_reports, report_from_tracker
from repro.coverage.tracker import branch_directions


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
