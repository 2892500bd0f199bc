"""Tests for the elimination oracle: liveness and per-config survival."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cdsl import analyze, parse_program
from repro.cdsl.visitor import fast_clone
from repro.compilers import CompilationCache, all_versions
from repro.compilers.compiler import SimulatedCompiler
from repro.markers import (
    MISSED_OPTIMIZATION,
    EliminationOracle,
    MarkedProgram,
    MarkerConfig,
    MarkerFinding,
    MarkerPlanter,
    MarkerSite,
)
from repro.optim.pipelines import effective_pass_names, pipeline_for
from repro.reduction import make_marker_predicate

from reference_pipeline import record_pass_runs, reference_run, walk_runs

SOURCE = """\
int main() {
  int c = 0;
  if (c) { c = 5; }
  for (int i = 0; i < 3; i++) { c += 1; }
  return c;
}
"""


@pytest.fixture()
def marked():
    return MarkerPlanter().plant(SOURCE)


def test_liveness_records_reached_markers_in_order(marked):
    oracle = EliminationOracle()
    sequence, steps = oracle.liveness(marked)
    assert 0 < steps <= oracle.max_steps
    by_context = {site.name: site.context for site in marked.sites}
    assert [by_context[name] for name in sequence] == \
        ["fn-entry", "if-else", "loop-body", "loop-body", "loop-body"]
    # The dead if-then marker is never reached.
    then_marker = next(s.name for s in marked.sites if s.context == "if-then")
    assert then_marker not in oracle.live_set(marked)


def test_elimination_at_o2_removes_provably_dead_branch(marked):
    oracle = EliminationOracle()
    then_marker = next(s.name for s in marked.sites if s.context == "if-then")
    o0 = oracle.compile_one(marked, MarkerConfig("llvm", 18, "-O0"))
    o2 = oracle.compile_one(marked, MarkerConfig("llvm", 18, "-O2"))
    assert then_marker in o0.retained       # -O0 keeps everything
    assert then_marker not in o2.retained   # constprop+fold prove it dead
    assert o2.eliminated(marked) == {then_marker}


def test_survey_covers_every_config(marked):
    oracle = EliminationOracle()
    configs = [MarkerConfig("gcc", v, lvl)
               for v in (10, 14) for lvl in ("-O0", "-O2")]
    outcomes = oracle.survey(marked, configs)
    assert set(outcomes) == set(configs)
    for config, outcome in outcomes.items():
        assert outcome.config == config
        assert outcome.retained <= set(marked.marker_names)
        assert outcome.pipeline == tuple(outcome.pipeline)


def test_survey_runs_each_shared_pass_prefix_once(marked, monkeypatch):
    """A survey optimizes its distinct pipelines in one walk: each step
    that their schedules share (the same passes in the same rounds) runs
    once, on each function, a (function state, pass) pair that changed
    nothing runs once (``reference_pipeline.walk_runs``), nothing compiles
    through a driver, and every config's outcome equals its own
    one-config survey."""
    configs = [MarkerConfig(compiler, version, level)
               for compiler in ("gcc", "llvm")
               for version in all_versions(compiler)
               for level in ("-O2", "-O3")]
    pipelines = {(c.compiler, c.opt_level,
                  tuple(effective_pass_names(c.compiler, c.opt_level,
                                             c.version))):
                 pipeline_for(c.compiler, c.opt_level, c.version)
                 for c in configs}
    assert (len(configs), len(pipelines)) == (48, 16)
    reference = {config: EliminationOracle(cache=CompilationCache())
                 .compile_one(marked, config) for config in configs}

    runs = record_pass_runs(monkeypatch)
    master = parse_program(marked.source)
    analyze(master)
    logs = []
    for pipeline in pipelines.values():
        logs.append([])
        reference_run(pipeline, fast_clone(master), logs[-1])
    alone = sum(len(functions) for log in logs for _, functions in log)

    compiles = []
    monkeypatch.setattr(SimulatedCompiler, "compile",
                        lambda *args, **kwargs: compiles.append(args))
    del runs[:]
    outcomes = EliminationOracle().survey(marked, configs)
    assert Counter(runs) == walk_runs(logs)
    assert len(runs) < alone
    assert compiles == []
    assert list(outcomes) == configs
    for config in configs:
        assert outcomes[config] == reference[config], config


def test_version_aware_pipelines_differ_across_releases(marked):
    oracle = EliminationOracle()
    # The seeded gcc constprop defect window is [11, 12): -O2 loses the pass.
    healthy = oracle.compile_one(marked, MarkerConfig("gcc", 10, "-O2"))
    broken = oracle.compile_one(marked, MarkerConfig("gcc", 11, "-O2"))
    assert "constprop" in healthy.pipeline
    assert "constprop" not in broken.pipeline
    assert healthy.retained < broken.retained


def test_shared_cache_does_not_change_outcomes(marked):
    cold = EliminationOracle(cache=CompilationCache())
    warm = EliminationOracle(cache=CompilationCache())
    configs = [MarkerConfig("llvm", v, lvl)
               for v in (13, 18) for lvl in ("-O0", "-O2", "-O3")]
    first = warm.survey(marked, configs)
    second = warm.survey(marked, configs)   # cache hits all the way
    reference = cold.survey(marked, configs)
    for config in configs:
        assert first[config].retained == reference[config].retained
        assert second[config].retained == reference[config].retained
        assert first[config].passes_run == reference[config].passes_run
    assert warm.cache.stats()["hits"] > 0


#: A reduced reproducer whose loop never ends: ``__ubfm_13_`` is unreached
#: because execution never gets past the loop, not because it is dead.
NEVER_FINISHES = """\
void __ubfm_6_(void);
void __ubfm_13_(void);
int main(void) { __ubfm_6_(); unsigned int crc_21 = 0;
  for (int i_24 = 0; 1; i_24++) crc_21 ^= 0;
  __ubfm_13_(); }
"""


def test_liveness_of_a_run_that_never_finishes_is_none():
    oracle = EliminationOracle()
    marked = MarkedProgram(source=NEVER_FINISHES, base_source=NEVER_FINISHES,
                           sites=())
    reached, steps = oracle.liveness(marked)
    assert reached is None and steps > oracle.max_steps
    assert oracle.live_set(marked) is None


def test_marker_predicate_rejects_a_program_that_never_finishes():
    """The marker is retained and unreached, but the reference run hits
    the step budget, so the candidate shows no missed optimization."""
    version = all_versions("gcc")[-1]
    finding = MarkerFinding(
        kind=MISSED_OPTIMIZATION, compiler="gcc", opt_level="-O2",
        version=version,
        marker=MarkerSite(name="__ubfm_13_", function="main",
                          context="if-then"),
        responsible_pass="constant-fold", seed_index=0,
        source=NEVER_FINISHES, live=False)
    oracle = EliminationOracle()
    marked = MarkedProgram(source=NEVER_FINISHES, base_source=NEVER_FINISHES,
                           sites=())
    target = oracle.compile_one(marked, MarkerConfig("gcc", version, "-O2"))
    assert {"__ubfm_6_", "__ubfm_13_"} <= target.retained
    assert not make_marker_predicate(finding, oracle=oracle)(NEVER_FINISHES)
