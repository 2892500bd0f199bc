"""The optimizer's no-op memo is exact across the requests of one cache.

A ``CompilationCache`` keeps, for the source it optimized most recently,
the (function state, pass name) pairs that changed nothing, and every
later walk of that source skips them.  Every build made through one
shared cache, its memo warm from the requests before it, must equal the
build that shares nothing: ``reference_compile`` for a compile, and
``reference_run`` on a clone of a fresh parse for each pipeline of a
marker survey.
Equal means the same printed unit, every node's (class, line, column)
and the same passes run.
"""

import pytest

from repro.cdsl import analyze, parse_program, print_program
from repro.cdsl.visitor import fast_clone, walk
from repro.compilers import CompilationCache, all_versions, make_compiler
from repro.compilers.cache import source_fingerprint
from repro.compilers.compiler import optimized_masters
from repro.markers import MarkerPlanter
from repro.optim import OPT_LEVELS, pipeline_for

from reference_compile import reference_compile
from reference_pipeline import record_pass_runs, reference_run


def _survey_pipelines():
    """A marker survey's keyed pipelines: every release and level of both
    compilers."""
    pipelines = {}
    for compiler in ("gcc", "llvm"):
        for version in all_versions(compiler):
            for level in OPT_LEVELS:
                pipeline = pipeline_for(compiler, level, version)
                pipelines.setdefault(
                    (compiler, level, tuple(pipeline.pass_names)), pipeline)
    return pipelines


def _shape(unit):
    """The printed unit and every node's (class, line, column)."""
    return print_program(unit), [(type(node).__name__, node.loc.line,
                                  node.loc.col) for node in walk(unit)]


@pytest.fixture(scope="module")
def sources(sample_seeds, sample_ub_programs):
    """Generated seeds, their marked programs and one UB program of each
    type, made from one seed."""
    seeds = [seed.source for seed in sample_seeds]
    marked = [MarkerPlanter().plant(source).source for source in seeds]
    programs = [programs[0].source for programs in sample_ub_programs.values()
                if programs]
    return seeds + marked + programs


def test_builds_through_a_warm_memo_equal_the_reference(sources,
                                                        monkeypatch):
    """Each source is compiled at every level by both compilers, one
    request each, and then surveyed: its survey's walk reads the pairs
    the compiles left, and runs fewer passes than on a cold cache."""
    runs = record_pass_runs(monkeypatch)
    cache = CompilationCache()
    compilers = [make_compiler(name, cache=cache) for name in ("gcc", "llvm")]
    survey = _survey_pipelines()
    for source in sources:
        for compiler in compilers:
            for level in OPT_LEVELS:
                binary = compiler.compile(source, opt_level=level)
                reference = reference_compile(source, compiler.name, level)
                label = (sources.index(source), compiler.name, level)
                assert _shape(binary.unit) == _shape(reference.unit), label
                assert binary.passes_run == reference.passes_run, label
        assert cache.no_op_memo(source_fingerprint(source))
        before = len(runs)
        artifacts = optimized_masters(cache, source, survey)
        warm = len(runs) - before
        optimized_masters(CompilationCache(), source, survey)
        assert warm < len(runs) - before - warm
        master = parse_program(source)
        analyze(master)
        for (key, pipeline), artifact in zip(survey.items(), artifacts):
            unit = fast_clone(master)
            passes_run = reference_run(pipeline, unit)
            label = (sources.index(source), key)
            assert _shape(artifact.unit) == _shape(unit), label
            assert artifact.passes_run == tuple(passes_run), label


def test_a_build_of_another_source_drops_the_memo(sources, monkeypatch):
    """The memo belongs to the source optimized most recently: a build of
    another source walks with an empty memo of its own, and a later build
    of the first source starts an empty one again, so no pair of one
    source is consulted for another."""
    handed = []
    real_memo = CompilationCache.no_op_memo

    def recorded_memo(self, fingerprint):
        memo = real_memo(self, fingerprint)
        handed.append((fingerprint, memo, len(memo)))
        return memo

    monkeypatch.setattr(CompilationCache, "no_op_memo", recorded_memo)
    first, second = sources[0], sources[1]
    gcc = make_compiler("gcc", cache=CompilationCache())
    gcc.compile(first, opt_level="-O2")
    gcc.compile(first, opt_level="-O3")
    binary = gcc.compile(second, opt_level="-O2")
    gcc.compile(first, opt_level="-Os")
    assert [fingerprint for fingerprint, _, _ in handed] == [
        source_fingerprint(source) for source in (first, first, second, first)]
    assert [size > 0 for _, _, size in handed] == [False, True, False, False]
    assert handed[0][1] is handed[1][1]
    assert len({id(memo) for _, memo, _ in handed}) == 3
    reference = reference_compile(second, "gcc", "-O2")
    assert _shape(binary.unit) == _shape(reference.unit)
    assert binary.passes_run == reference.passes_run
