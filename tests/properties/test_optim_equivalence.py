"""Property: every optimizer pipeline preserves observable behaviour.

The marker oracle's entire verdict logic rests on one invariant: compiling
a UB-free program under any (compiler, version, opt-pipeline) configuration
changes *what code is emitted*, never *what the program does*.  This suite
pins that invariant with hypothesis over generated seed programs:

* **exit status** and **stdout** (the checksum printf) are identical under
  every pipeline in :mod:`repro.optim.pipelines`, flat and version-aware;
* **marker liveness** is preserved: the exact sequence of planted marker
  calls the optimized binary performs equals the unoptimized reference's —
  i.e. an optimizer may delete a *dead* marker but may never delete (or
  duplicate, or reorder) a live one.

Under CI the derandomized hypothesis profile (tests/conftest.py) replays a
fixed example corpus, keeping tier-1 deterministic.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdsl import analyze, parse_program
from repro.compilers import CompilationCache, all_versions, make_compiler
from repro.compilers.compiler import optimized_masters
from repro.markers import EliminationOracle, MarkerConfig, MarkerPlanter
from repro.optim.pipelines import OPT_LEVELS, pipeline_for
from repro.seedgen import CsmithGenerator, GeneratorConfig
from repro.vm.interpreter import run_program

MAX_STEPS = 150_000

_generator = CsmithGenerator(GeneratorConfig(seed=20260728))
_planter = MarkerPlanter()
_cache = CompilationCache()


def _reference(marked):
    unit = parse_program(marked.source)
    sema = analyze(unit)
    reached = []
    result = run_program(unit, sema, max_steps=MAX_STEPS,
                         call_hook=lambda name: reached.append(name)
                         if name.startswith(marked.prefix) else None)
    return result, tuple(reached)


def _observe(binary, marked):
    """Run *binary* as :meth:`CompiledBinary.run` does, with the marker
    oracle's call hook (as the oracle, through ``run_program``)."""
    reached = []
    result = run_program(binary.unit, binary.sema,
                         runtime=binary.build_runtime(), max_steps=MAX_STEPS,
                         call_hook=lambda name: reached.append(name)
                         if name.startswith(marked.prefix) else None)
    return result, tuple(reached)


def _assert_equivalent(marked, reference, observed, label):
    ref_result, ref_markers = reference
    obs_result, obs_markers = observed
    assert obs_result.status == ref_result.status == "ok", label
    assert obs_result.exit_code == ref_result.exit_code, label
    assert obs_result.stdout == ref_result.stdout, label
    assert obs_markers == ref_markers, \
        f"{label}: optimizer changed marker liveness"


@pytest.mark.parametrize("compiler_name", ["gcc", "llvm"])
@settings(max_examples=10, deadline=None)
@given(seed_index=st.integers(min_value=0, max_value=40))
def test_flat_pipelines_preserve_observable_behaviour(compiler_name,
                                                      seed_index):
    """Every (compiler, opt level) flat pipeline is semantics-preserving."""
    seed = _generator.generate(seed_index)
    marked = _planter.plant(seed.source, seed_index=seed_index)
    reference = _reference(marked)
    compiler = make_compiler(compiler_name, cache=_cache)
    for opt_level in OPT_LEVELS:
        binary = compiler.compile(marked.source, opt_level=opt_level)
        _assert_equivalent(marked, reference, _observe(binary, marked),
                           f"{compiler_name} {opt_level}")


@pytest.mark.parametrize("compiler_name", ["gcc", "llvm"])
@settings(max_examples=6, deadline=None)
@given(seed_index=st.integers(min_value=0, max_value=40))
def test_version_aware_pipelines_preserve_observable_behaviour(compiler_name,
                                                               seed_index):
    """Release-history pipelines (pass introductions and seeded optimizer
    defect windows) only ever retain more — they never change behaviour.

    The units checked are the ones a marker survey builds: a survey of
    every release and level of the compiler optimizes all its distinct
    versioned pipelines in one walk, cloning where schedules diverge, and
    each distinct unit is analyzed and run."""
    seed = _generator.generate(seed_index)
    marked = _planter.plant(seed.source, seed_index=seed_index)
    reference = _reference(marked)
    configs = [MarkerConfig(compiler_name, version, opt_level)
               for version in all_versions(compiler_name)
               for opt_level in OPT_LEVELS]
    oracle = EliminationOracle()
    oracle.survey(marked, configs)
    pipelines = {}
    for config in configs:
        pipeline = pipeline_for(config.compiler, config.opt_level,
                                config.version)
        pipelines.setdefault((config.compiler, config.opt_level,
                              tuple(pipeline.pass_names)), pipeline)
    misses = oracle.cache.stats()["misses"]
    artifacts = optimized_masters(oracle.cache, marked.source, pipelines)
    assert oracle.cache.stats()["misses"] == misses, "not the survey's builds"
    units = {id(artifact): (key, artifact)
             for key, artifact in zip(pipelines, artifacts)}
    assert len(units) > 1
    for key, artifact in units.values():
        reached = []
        result = run_program(artifact.unit, artifact.sema, max_steps=MAX_STEPS,
                             call_hook=lambda name: reached.append(name)
                             if name.startswith(marked.prefix) else None)
        _assert_equivalent(marked, reference, (result, tuple(reached)),
                           f"{key} (versioned)")
