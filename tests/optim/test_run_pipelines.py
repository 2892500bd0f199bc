"""The trie walk of several pipelines against each pipeline run alone.

``run_pipelines`` runs every pipeline of a set from one unit, and runs a
step that identical schedule prefixes share once.  Each result must equal
the reference loop (``reference_pipeline``) running that pipeline alone
on a fresh clone.  Sharing a step is sound because a pass takes the unit
and its sema only (``tests/test_layering.py`` pins that signature): a
pass that read a release or level would make shared steps and the
optimized cache key (no release, no level) both wrong.
"""

import pytest

from repro.cdsl import analyze, parse_program, print_program
from repro.cdsl.visitor import fast_clone
from repro.compilers import all_versions
from repro.markers import MarkerPlanter
from repro.optim import (
    OPT_LEVELS,
    ConstantFoldPass,
    DeadCodeEliminationPass,
    PassPipeline,
    pipeline_for,
)
from repro.optim.passes import OptimizationPass, run_pipelines

from reference_pipeline import reference_run


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
    """The names of the passes run, in order, recorded for every pass."""
    runs = []
    pending = list(OptimizationPass.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in vars(cls):
            def recorded(self, unit, sema, _run=vars(cls)["run"]):
                runs.append(self.name)
                return _run(self, unit, sema)
            monkeypatch.setattr(cls, "run", recorded)
    return runs


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
    and passes run, one pass run per distinct executed prefix (the passes
    and the rounds they ran in), the starting unit serving one result and
    the master unchanged.  Returns the pass runs the walk saved."""
    sema = analyze(master)
    text = print_program(master)
    expected, prefixes, alone = [], set(), 0
    for pipeline in pipelines:
        work = fast_clone(master)
        del pass_runs[:]
        passes_run = reference_run(pipeline, work, sema)
        expected.append((print_program(work), passes_run))
        # Alone, every round runs every pass of the pipeline.
        steps = [(index // len(pipeline.passes), name)
                 for index, name in enumerate(pass_runs)]
        prefixes.update(tuple(steps[:end])
                        for end in range(1, len(steps) + 1))
        alone += len(steps)
    start = fast_clone(master)
    del pass_runs[:]
    results = run_pipelines(start, sema, pipelines)
    assert len(pass_runs) == len(prefixes)
    assert [(print_program(unit), list(passes_run))
            for unit, passes_run in results] == expected
    assert any(unit is start for unit, _ in results)
    assert print_program(master) == text
    return alone - len(pass_runs)


def test_walk_equals_each_pipeline_run_alone(sources, pass_runs):
    saved = sum(_walk_and_compare(parse_program(source), PIPELINES, pass_runs)
                for source in sources)
    assert saved > 0, "no pass run was shared"


def test_a_round_boundary_ends_sharing(pass_runs):
    """The third step of both pipelines is constant folding of the same
    unit, but one starts its second round with it, so it runs twice."""
    two_rounds = PassPipeline([ConstantFoldPass(), DeadCodeEliminationPass()],
                              max_iterations=2)
    one_round = PassPipeline([ConstantFoldPass(), DeadCodeEliminationPass(),
                              ConstantFoldPass()], max_iterations=1)
    master = parse_program(
        "int main() { int x = 2 + 3; if (x > 9) { x = 1; } return x; }")
    assert _walk_and_compare(master, [two_rounds, one_round], pass_runs) == 2


def test_pipeline_run_is_the_one_pipeline_walk(sources, pass_runs,
                                               monkeypatch):
    """``PassPipeline.run`` transforms its unit in place, clones nothing
    and runs exactly the reference's passes."""
    import repro.optim.passes as passes_module

    def no_clone(node):
        raise AssertionError("a one-pipeline run cloned the unit")

    monkeypatch.setattr(passes_module, "fast_clone", no_clone)
    for source in sources[:3]:
        master = parse_program(source)
        sema = analyze(master)
        for pipeline in PIPELINES:
            reference = fast_clone(master)
            del pass_runs[:]
            expected = reference_run(pipeline, reference, sema)
            expected_runs = list(pass_runs)
            unit = fast_clone(master)
            del pass_runs[:]
            assert pipeline.run(unit, sema) == expected
            assert pass_runs == expected_runs
            assert print_program(unit) == print_program(reference)
