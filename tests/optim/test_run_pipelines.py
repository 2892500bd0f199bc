"""The trie walk of several pipelines against each pipeline run alone.

``run_pipelines`` runs every pipeline of a set from one unit, runs a step
that identical schedule prefixes share once, and runs a pass on a
function state only until it has once changed nothing there.  Each result
must equal the reference loop (``reference_pipeline``) running that
pipeline alone on a fresh clone, and the function-pass runs must be
exactly the ones ``reference_pipeline.walk_runs`` derives from those
reference runs.  Sharing a step and skipping a known no-op are sound
because a pass takes one function only (``tests/test_layering.py`` pins
that signature): a pass that read a release, a level or another function
would make shared steps, the memo and the optimized cache key (no
release, no level) wrong.
"""

from collections import Counter

import pytest

from repro.cdsl import analyze, parse_program, print_program
from repro.cdsl.visitor import fast_clone
from repro.compilers import all_versions
from repro.markers import MarkerPlanter
from repro.optim import (
    OPT_LEVELS,
    ConstantFoldPass,
    ConstantPropagationPass,
    DeadCodeEliminationPass,
    PassPipeline,
    pipeline_for,
)
from repro.optim.passes import run_pipelines
from repro.telemetry import runtime as telemetry

from reference_pipeline import record_pass_runs, reference_run, walk_runs


def _distinct_pipelines():
    """One pipeline per (compiler, level, effective pass list): both
    compilers, every release and the flat pipelines, the five levels."""
    pipelines = {}
    for compiler in ("gcc", "llvm"):
        for version in (None, *all_versions(compiler)):
            for level in OPT_LEVELS:
                pipeline = pipeline_for(compiler, level, version)
                pipelines.setdefault(
                    (compiler, level, tuple(pipeline.pass_names)), pipeline)
    return list(pipelines.values())


PIPELINES = _distinct_pipelines()


@pytest.fixture(scope="module")
def sources(sample_seeds, sample_ub_programs):
    """Generated seeds, their marked programs and one seed's UB programs."""
    seeds = [seed.source for seed in sample_seeds]
    marked = [MarkerPlanter().plant(source).source for source in seeds]
    programs = [program.source for programs in sample_ub_programs.values()
                for program in programs]
    return seeds + marked + programs


@pytest.fixture()
def pass_runs(monkeypatch):
    """Every function-pass run, in order, as ``(function name, pass name,
    changed)``."""
    return record_pass_runs(monkeypatch)


def test_the_pipelines_share_prefixes():
    """The set under test has identical schedules (llvm -O2 and -O3) and
    schedules that are prefixes of others (gcc -O2 and -O3 before
    release 9)."""
    schedules = {(tuple(p.pass_names), p.max_iterations) for p in PIPELINES}
    assert len(schedules) < len(PIPELINES)
    gcc_5 = [pipeline_for("gcc", level, 5) for level in ("-O2", "-O3")]
    assert gcc_5[0].pass_names == gcc_5[1].pass_names
    assert gcc_5[0].max_iterations < gcc_5[1].max_iterations


def _walk_and_compare(master, pipelines, pass_runs) -> int:
    """Walk *pipelines* from a clone of *master* and compare each result
    with the reference run alone on a fresh clone: the same printed unit
    and passes run, exactly the function-pass runs of
    :func:`walk_runs` (each distinct executed prefix, the passes and the
    rounds they ran in, runs once on each function, and a (function
    state, pass) pair that changed nothing runs once), the starting unit
    serving one result and the master unchanged.  Returns the
    function-pass runs the walk saved."""
    analyze(master)
    text = print_program(master)
    expected, logs = [], []
    for pipeline in pipelines:
        work = fast_clone(master)
        log = []
        passes_run = reference_run(pipeline, work, log)
        expected.append((print_program(work), passes_run))
        logs.append(log)
    alone = sum(len(runs) for log in logs for _, runs in log)
    start = fast_clone(master)
    del pass_runs[:]
    results = run_pipelines(start, pipelines)
    assert Counter(pass_runs) == walk_runs(logs)
    assert [(print_program(unit), list(passes_run))
            for unit, passes_run in results] == expected
    assert any(unit is start for unit, _ in results)
    assert print_program(master) == text
    return alone - len(pass_runs)


def test_walk_equals_each_pipeline_run_alone(sources, pass_runs):
    saved = sum(_walk_and_compare(parse_program(source), PIPELINES, pass_runs)
                for source in sources)
    assert saved > 0, "no function-pass run was saved"


def test_a_round_boundary_ends_sharing(pass_runs):
    """The third step of both pipelines runs the same pass on the same
    function state, but one starts its second round with it, so the walk
    runs that step in each branch.  A pass that changes the function there
    runs twice; one that changed nothing there before runs once."""
    two_rounds = PassPipeline([ConstantPropagationPass(), ConstantFoldPass()],
                              max_iterations=2)
    one_round = PassPipeline([ConstantPropagationPass(), ConstantFoldPass(),
                              ConstantPropagationPass()], max_iterations=1)
    master = parse_program(
        "int main() { int x = 2 + 3; int y = x; return y; }")
    # Folding makes x a constant, which the third step propagates.
    assert _walk_and_compare(master, [two_rounds, one_round], pass_runs) == 2
    assert sorted(pass_runs) == sorted([
        ("main", "constprop", False), ("main", "constant-fold", True),
        ("main", "constprop", True), ("main", "constant-fold", False),
        ("main", "constprop", True)])

    two_rounds = PassPipeline([ConstantFoldPass(), DeadCodeEliminationPass()],
                              max_iterations=2)
    one_round = PassPipeline([ConstantFoldPass(), DeadCodeEliminationPass(),
                              ConstantFoldPass()], max_iterations=1)
    master = parse_program(
        "int main() { int x = 2 + 3; if (x > 9) { x = 1; } return x; }")
    # The third step's fold changes nothing, so it runs in one branch only,
    # and the second round's dce, which changed nothing on the same state
    # in the first round, does not run.
    assert _walk_and_compare(master, [two_rounds, one_round], pass_runs) == 4
    assert pass_runs == [("main", "constant-fold", True),
                         ("main", "dce", False),
                         ("main", "constant-fold", False)]


def test_pipeline_run_is_the_one_pipeline_walk(sources, pass_runs,
                                               monkeypatch):
    """``PassPipeline.run`` transforms its unit in place, clones nothing
    and makes exactly the reference's function-pass runs, less the
    repeats of a (function state, pass) pair that changed nothing."""
    import repro.optim.passes as passes_module

    def no_clone(node):
        raise AssertionError("a one-pipeline run cloned the unit")

    monkeypatch.setattr(passes_module, "fast_clone", no_clone)
    for source in sources[:3]:
        master = parse_program(source)
        analyze(master)
        for pipeline in PIPELINES:
            reference, log = fast_clone(master), []
            expected = reference_run(pipeline, reference, log)
            unit = fast_clone(master)
            del pass_runs[:]
            assert pipeline.run(unit) == expected
            assert Counter(pass_runs) == walk_runs([log])
            assert print_program(unit) == print_program(reference)


def test_a_walk_counts_its_runs_and_skips(sources, pass_runs):
    """Under telemetry, a walk adds the function-pass runs it made to
    ``optim.function_runs`` and the ones the memo skipped to
    ``optim.function_skips``: together, one per function at each distinct
    executed prefix."""
    master = parse_program(sources[0])
    analyze(master)
    functions = sum(fn.body is not None for fn in master.functions)
    prefixes = set()
    for pipeline in PIPELINES:
        log = []
        reference_run(pipeline, fast_clone(master), log)
        steps = [step for step, _ in log]
        prefixes.update(tuple(steps[:end]) for end in range(1, len(steps) + 1))
    del pass_runs[:]
    session = telemetry.enable(campaign="t-walk-counts")
    try:
        run_pipelines(fast_clone(master), PIPELINES)
    finally:
        telemetry.disable()
    runs = session.metrics.counter_value("optim.function_runs")
    skips = session.metrics.counter_value("optim.function_skips")
    assert runs == len(pass_runs)
    assert skips == len(prefixes) * functions - runs > 0
