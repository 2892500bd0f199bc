"""Tests for the shared compilation cache (phase reuse across configs)."""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.compilers.compiler as compiler_module
from repro.cdsl import ast_nodes as ast
from repro.cdsl.parser import parse_program
from repro.cdsl.printer import print_program
from repro.cdsl.visitor import find_nodes, walk
from repro.compilers import (
    ALL_OPT_LEVELS,
    CompilationCache,
    GccCompiler,
    LlvmCompiler,
    all_versions,
    make_compiler,
)
from repro.core import CampaignConfig, FuzzingCampaign
from repro.core.differential import ConfigOutcome, DifferentialTester, TestConfig
from repro.core.ub_types import ALL_UB_TYPES
from repro.core.ubgen import UBGenerator
from repro.optim.pipelines import pipeline_for
from repro.seedgen import CsmithGenerator, GeneratorConfig
from repro.utils.errors import CompilationError

from reference_compile import reference_compile

SOURCE = """\
int g = 3;
int arr[4] = {1, 2, 3, 4};
int main() {
  int total = 0;
  for (int i = 0; i < 4; i++) {
    total = total + arr[i];
  }
  int *p = &g;
  *p = *p + total;
  return g;
}
"""


def _other_source(i: int) -> str:
    return SOURCE.replace("int g = 3;", f"int g = {3 + i};")


# -- hit/miss/eviction ---------------------------------------------------------


def test_cache_hits_and_misses_across_configurations():
    cache = CompilationCache()
    gcc = GccCompiler(defect_registry=[], cache=cache)
    gcc.compile(SOURCE, opt_level="-O2", sanitizer="asan")
    first = cache.stats()
    # First compile: frontend miss + optimized miss, no hits.
    assert first["misses"] == 2 and first["hits"] == 0
    # Same (source, opt level), different sanitizer: pure hit.
    gcc.compile(SOURCE, opt_level="-O2", sanitizer="ubsan")
    second = cache.stats()
    assert second["misses"] == 2 and second["hits"] == 1
    # Same source, new opt level: frontend hit, optimized miss.
    gcc.compile(SOURCE, opt_level="-O0", sanitizer="asan")
    third = cache.stats()
    assert third["misses"] == 3 and third["hits"] == 2


def test_cache_eviction_is_bounded_and_harmless():
    cache = CompilationCache(max_entries=2)
    gcc = GccCompiler(defect_registry=[], cache=cache)
    results = [gcc.compile(_other_source(i), opt_level="-O0").run()
               for i in range(5)]
    stats = cache.stats()
    assert stats["frontend_entries"] <= 2
    assert stats["optimized_entries"] <= 2
    assert stats["evictions"] > 0
    # Recompiling an evicted source still produces the same behaviour.
    again = gcc.compile(_other_source(0), opt_level="-O0").run()
    assert again == results[0]
    # The optimized layer holds the builds of one source: optimizing a
    # second source drops the first one's.
    gcc.compile(_other_source(0), opt_level="-O2")
    assert cache.stats()["optimized_entries"] == 2
    gcc.compile(_other_source(1), opt_level="-O1")
    assert cache.stats()["optimized_entries"] == 1


def test_cache_clear_resets_state():
    cache = CompilationCache()
    gcc = GccCompiler(defect_registry=[], cache=cache)
    gcc.compile(SOURCE, opt_level="-O1")
    cache.clear()
    assert cache.stats() == {"hits": 0, "misses": 0, "frontend_entries": 0,
                             "optimized_entries": 0, "evictions": 0}


# -- bit-identical results -----------------------------------------------------


@pytest.mark.parametrize("compiler_cls,sanitizers",
                         [(GccCompiler, ("asan", "ubsan")),
                          (LlvmCompiler, ("asan", "ubsan", "msan"))])
def test_cached_compiles_are_bit_identical_to_uncached(compiler_cls, sanitizers,
                                                       sample_seeds,
                                                       sample_ub_programs):
    """Every compile through the cache equals the reference compile (parse,
    analyze, pipeline, analyze, instrument; nothing shared) on passes run,
    printed unit and run result: a handwritten program, generated seeds
    and UB programs of three types, at every level and sanitizer."""
    sources = [SOURCE] + [seed.source for seed in sample_seeds[:2]]
    sources += [programs[0].source
                for programs in sample_ub_programs.values() if programs][:3]
    compiler = compiler_cls()
    for source in sources:
        for level in ALL_OPT_LEVELS:
            for sanitizer in (None,) + sanitizers:
                a = compiler.compile(source, opt_level=level,
                                     sanitizer=sanitizer)
                b = reference_compile(source, compiler.name, level, sanitizer)
                label = (sources.index(source), level, sanitizer)
                assert a.passes_run == b.passes_run, label
                assert print_program(a.unit) == print_program(b.unit), label
                assert a.run() == b.run(), label


# -- analyzed, shared masters --------------------------------------------------


@pytest.mark.parametrize("compiler_cls", [GccCompiler, LlvmCompiler])
def test_sanitizer_free_compiles_share_the_analyzed_master(compiler_cls,
                                                           monkeypatch):
    import repro.compilers.cache as cache_module
    compiler = compiler_cls(cache=CompilationCache())
    first = compiler.compile(SOURCE, opt_level="-O2")
    sema = first.sema
    calls = []
    for module, name in ((compiler_module, "fast_clone"),
                         (cache_module, "analyze")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    second = compiler.compile(SOURCE, opt_level="-O2")
    assert second.unit is first.unit
    assert second.sema is sema
    assert calls == []
    assert second.run() == first.run()


@pytest.mark.parametrize("compiler_cls,sanitizers",
                         [(GccCompiler, ("asan", "ubsan")),
                          (LlvmCompiler, ("asan", "ubsan", "msan"))])
def test_sanitizer_overlays_never_instrument_the_master(compiler_cls,
                                                        sanitizers):
    compiler = compiler_cls(cache=CompilationCache())
    master = compiler.compile(SOURCE, opt_level="-O2").unit
    text = print_program(master)
    for sanitizer in sanitizers:
        binary = compiler.compile(SOURCE, opt_level="-O2", sanitizer=sanitizer)
        assert binary.unit is not master
        assert find_nodes(binary.unit, ast.SanitizerCheck), sanitizer
    assert not find_nodes(master, ast.SanitizerCheck)
    assert print_program(master) == text


def test_empty_schedule_build_is_the_analyzed_frontend_master(monkeypatch):
    """llvm -O0 runs no pass, so a sanitizer-free compile returns the
    frontend master and its sema, and neither clones nor analyzes."""
    import repro.compilers.cache as cache_module
    cache = CompilationCache()
    master, sema = cache.frontend(cache_module.source_fingerprint(SOURCE),
                                  lambda: parse_program(SOURCE))
    calls = []
    for module, name in ((compiler_module, "fast_clone"),
                         (cache_module, "analyze")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    binary = LlvmCompiler(cache=cache).compile(SOURCE, opt_level="-O0")
    assert binary.unit is master
    assert binary.sema is sema
    assert binary.passes_run == ()
    assert calls == []
    monkeypatch.undo()
    assert binary.run() == reference_compile(SOURCE, "llvm", "-O0").run()


@pytest.mark.parametrize("sanitizer", ["asan", "ubsan", "msan"])
def test_empty_schedule_overlay_leaves_the_master_unchanged(sanitizer):
    cache = CompilationCache()
    llvm = LlvmCompiler(cache=cache)
    master = llvm.compile(SOURCE, opt_level="-O0").unit
    text = print_program(master)
    binary = llvm.compile(SOURCE, opt_level="-O0", sanitizer=sanitizer)
    assert binary.unit is not master
    assert find_nodes(binary.unit, ast.SanitizerCheck)
    assert print_program(master) == text
    assert binary.run() == reference_compile(SOURCE, "llvm", "-O0",
                                             sanitizer).run()


@pytest.mark.parametrize("level", ["-O0", "-O1", "-Os", "-O2", "-O3"])
@pytest.mark.parametrize("name", ["gcc", "llvm"])
def test_flat_compilers_of_different_releases_share_one_artifact(name, level):
    cache = CompilationCache()
    oldest, newest = all_versions(name)[0], all_versions(name)[-1]
    a = make_compiler(name, version=oldest, cache=cache).compile(
        SOURCE, opt_level=level)
    b = make_compiler(name, version=newest, cache=cache).compile(
        SOURCE, opt_level=level)
    assert cache.stats()["optimized_entries"] == 1
    assert print_program(a.unit) == print_program(b.unit)
    assert a.passes_run == b.passes_run


def test_cached_differential_matrix_matches_uncached_on_ub_program():
    seed = CsmithGenerator(GeneratorConfig(seed=555)).generate(6)
    program = UBGenerator(seed=1, max_programs_per_type=1).generate(
        seed, ALL_UB_TYPES[3])[0]
    configs = [TestConfig("llvm", sanitizer, level)
               for sanitizer in ("asan", "ubsan", "msan")
               for level in ("-O0", "-O2", "-O3")]
    tester = DifferentialTester()
    runs = _record_runs(tester)
    cached = tester.test(program, configs=configs)
    references = [
        ConfigOutcome(config, reference_compile(
            program.source, config.compiler, config.opt_level,
            config.sanitizer).run(max_steps=tester.max_steps))
        for config in configs]
    assert len(runs) == len(references) == 9
    for (_, a), b in zip(runs, references):
        assert a.config == b.config
        assert a.result == b.result
        assert a.error is None
    assert cached == tester.analyze(program, references)


def _record_runs(tester):
    """Wrap *tester*'s ``run_config``: the returned list collects the
    ``(source, outcome)`` of every configuration the tester runs, the whole
    run included, which a result no longer keeps."""
    runs = []
    run_config = tester.run_config

    def recording_run_config(program, config):
        outcome = run_config(program, config)
        runs.append((program.source, outcome))
        return outcome

    tester.run_config = recording_run_config
    return runs


def test_parse_errors_are_not_cached_as_artifacts():
    cache = CompilationCache()
    gcc = GccCompiler(cache=cache)
    with pytest.raises(CompilationError, match="gcc: parse error"):
        gcc.compile("int main( {", opt_level="-O0")
    assert cache.stats()["frontend_entries"] == 0
    # A source that parses but fails analysis stores no frontend master.
    for _ in range(2):
        with pytest.raises(CompilationError, match="gcc: semantic error"):
            gcc.compile("int main() { return y; }", opt_level="-O2")
    assert cache.stats()["frontend_entries"] == 0
    assert cache.stats()["misses"] == 0


def test_cached_optimized_build_analyzes_once(monkeypatch):
    """An optimized master is analyzed once, on first demand: compiling
    analyzes only the frontend master, a sanitizer-free binary's first run
    or ``sema`` read analyzes its artifact, and a sanitizer compile
    analyzes its new artifact before instrumenting a copy."""
    import repro.compilers.cache as cache_module
    analyses = []
    real_analyze = cache_module.analyze

    def counting_analyze(unit):
        analyses.append(unit)
        return real_analyze(unit)

    monkeypatch.setattr(cache_module, "analyze", counting_analyze)
    cache = CompilationCache()
    gcc = GccCompiler(cache=cache)
    binary = gcc.compile(SOURCE, opt_level="-O0")
    master, _ = cache.frontend(cache_module.source_fingerprint(SOURCE),
                               lambda: pytest.fail("frontend entry evicted"))
    assert analyses == [master]
    assert binary.unit is not master
    del analyses[:]
    first = binary.run()
    assert analyses == [binary.unit]
    assert binary.run() == first
    assert gcc.compile(SOURCE, opt_level="-O0").sema is binary.sema
    assert analyses == [binary.unit]
    del analyses[:]
    sanitized = gcc.compile(SOURCE, opt_level="-O2", sanitizer="asan")
    o2_master = gcc.compile(SOURCE, opt_level="-O2")
    assert analyses == [o2_master.unit]
    assert sanitized.sema is o2_master.sema
    assert analyses == [o2_master.unit]


def test_concurrent_sema_demands_analyze_once(monkeypatch):
    """Eight threads asking for one master's ``sema`` at once cause one
    analysis, and all of them get its result."""
    import repro.compilers.cache as cache_module
    binary = GccCompiler(cache=CompilationCache()).compile(SOURCE,
                                                           opt_level="-O2")
    analyses = []
    real_analyze = cache_module.analyze

    def slow_analyze(unit):
        analyses.append(unit)
        time.sleep(0.05)  # widen the window for a second analysis
        return real_analyze(unit)

    monkeypatch.setattr(cache_module, "analyze", slow_analyze)
    barrier = threading.Barrier(8, timeout=10)

    def demand(_):
        barrier.wait()
        return binary.sema

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            semas = list(pool.map(demand, range(8), timeout=30))
    finally:
        sys.setswitchinterval(interval)
    assert analyses == [binary.unit]
    assert all(sema is semas[0] for sema in semas)


def test_ill_typed_pass_output_fails_at_first_demand(monkeypatch):
    """A pass that leaves the unit ill-typed makes the post-pipeline
    analysis fail with the compiler's semantic error: inside ``compile()``
    for a sanitizer build, at ``run()`` for a sanitizer-free one."""
    pass_cls = type(pipeline_for("gcc", "-O2").passes[0])
    real_run = pass_cls.run

    def ill_typed_run(self, unit, sema):
        changed = real_run(self, unit, sema)
        for node in walk(unit):
            if isinstance(node, ast.Identifier):
                node.name = "undeclared_by_the_pass"
        return changed

    monkeypatch.setattr(pass_cls, "run", ill_typed_run)
    gcc = GccCompiler(cache=CompilationCache())
    with pytest.raises(CompilationError, match="gcc: semantic error"):
        gcc.compile(SOURCE, opt_level="-O2", sanitizer="asan")
    binary = gcc.compile(SOURCE, opt_level="-O2")
    with pytest.raises(CompilationError, match="gcc: semantic error"):
        binary.run()


def test_one_source_optimized_layer_keeps_every_matrix_hit(monkeypatch):
    """On a campaign with all five levels and triage, the optimized layer
    hits inside each program's matrix exactly as often as an unbounded map
    of the same lookups would.  What it gives up are triage's returns to an
    earlier program: the first probe of such a program rebuilds its
    master, and the probes after it hit that build."""
    lookups = []
    phase = ["triage"]
    real_optimized = CompilationCache.optimized
    real_run_seed = FuzzingCampaign.run_seed

    def logged(self, fingerprint, keys, builder):
        built = []

        def counted_builder():
            built.append(True)
            return builder()

        artifacts = real_optimized(self, fingerprint, keys, counted_builder)
        assert len(keys) == 1, "a fuzz compile asks for one key"
        lookups.append((phase[0], (fingerprint, *keys[0]), not built))
        return artifacts

    def run_seed(self, seed_index):
        phase[0] = "matrix"
        try:
            return real_run_seed(self, seed_index)
        finally:
            phase[0] = "triage"

    monkeypatch.setattr(CompilationCache, "optimized", logged)
    monkeypatch.setattr(FuzzingCampaign, "run_seed", run_seed)
    config = CampaignConfig(num_seeds=2, rng_seed=7, max_programs_per_type=1)
    assert len(config.opt_levels) == 5 and config.triage
    FuzzingCampaign(config).run()

    def unbounded_hits(keys):
        seen = set()
        hits = 0
        for key in keys:
            hits += key in seen
            seen.add(key)
        return hits

    matrix = [(key, hit) for where, key, hit in lookups if where == "matrix"]
    triage = [(key, hit) for where, key, hit in lookups if where == "triage"]
    assert triage, "the campaign triages nothing"
    assert sum(hit for _key, hit in matrix) == \
        unbounded_hits(key for key, _hit in matrix) > 0
    assert any(hit for _key, hit in triage)


# -- concurrent sharing --------------------------------------------------------


def test_threaded_compilers_share_one_cache_without_corruption():
    """Workers hammering one shared cache concurrently must neither crash
    nor change any result."""
    cache = CompilationCache()
    reference = {}
    baseline = GccCompiler(defect_registry=[])
    jobs = [(i % 3, level, sanitizer)
            for i in range(12)
            for level in ("-O0", "-O2")
            for sanitizer in ("asan", "ubsan")]
    for src_i, level, sanitizer in jobs:
        key = (src_i, level, sanitizer)
        if key not in reference:
            reference[key] = baseline.compile(
                _other_source(src_i), opt_level=level, sanitizer=sanitizer).run()

    def compile_and_run(job):
        src_i, level, sanitizer = job
        compiler = GccCompiler(defect_registry=[], cache=cache)
        result = compiler.compile(_other_source(src_i), opt_level=level,
                                  sanitizer=sanitizer).run()
        return job, result

    with ThreadPoolExecutor(max_workers=8) as pool:
        for job, result in pool.map(compile_and_run, jobs):
            src_i, level, sanitizer = job
            assert result == reference[(src_i, level, sanitizer)]
    assert cache.stats()["hits"] > 0


def test_campaign_shares_cache_and_stays_deterministic():
    """A campaign's seeds share one cache across generation, matrix and
    triage, and every matrix outcome equals the run of the reference
    compile, which shares nothing."""
    config = CampaignConfig(num_seeds=2, rng_seed=7, max_programs_per_type=1,
                            opt_levels=("-O0", "-O2"))
    campaign = FuzzingCampaign(config)
    runs = _record_runs(campaign.tester)
    cached_batches = [campaign.run_seed(i) for i in range(2)]
    assert campaign.compilation_cache.stats()["hits"] > 0
    assert campaign.tester.cache is campaign.compilation_cache
    assert campaign.triager.compilation_cache is campaign.compilation_cache

    # The batches keep exactly the cells of the runs the matrix made.
    assert [(result.program.source, cell)
            for batch in cached_batches for result in batch.diff_results
            for cell in result.cells] == \
        [(source, outcome.cell) for source, outcome in runs]
    for source, outcome in runs:
        cell = outcome.config
        reference = reference_compile(
            source, cell.compiler, cell.opt_level,
            cell.sanitizer, defect_registry=campaign.registry)
        assert outcome.result == reference.run(
            max_steps=config.max_steps), outcome.config
    assert runs
