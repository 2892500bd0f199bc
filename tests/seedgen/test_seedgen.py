"""Tests for the seed generators (Csmith-like, NoSafe, MUSIC, Juliet)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cdsl import analyze, ast_nodes as ast, parse_program
from repro.cdsl.printer import print_program
from repro.cdsl.visitor import find_nodes, walk
from repro.compilers import GccCompiler, LlvmCompiler
from repro.core.matching import get_matched_exprs
from repro.core.ub_types import ALL_UB_TYPES, UBType
from repro.seedgen import (
    CsmithGenerator,
    CsmithNoSafeGenerator,
    GeneratorConfig,
    MusicMutator,
    generate_juliet_suite,
)
from repro.seedgen import csmith
from repro.telemetry import runtime as telemetry
from repro.utils.errors import GenerationError
from repro.vm import run_program


# -- Csmith-like generator ------------------------------------------------------------

def test_seed_generation_is_deterministic():
    a = CsmithGenerator(GeneratorConfig(seed=5)).generate(3)
    b = CsmithGenerator(GeneratorConfig(seed=5)).generate(3)
    assert a.source == b.source


def test_different_indices_give_different_programs():
    generator = CsmithGenerator(GeneratorConfig(seed=5))
    assert generator.generate(0).source != generator.generate(1).source


def test_seeds_parse_analyze_and_terminate(sample_seeds):
    for seed in sample_seeds:
        unit = parse_program(seed.source)
        info = analyze(unit)
        result = run_program(unit, info)
        assert result.status == "ok"


def test_seeds_are_self_contained_and_print_checksum(sample_seeds):
    for seed in sample_seeds:
        unit = parse_program(seed.source)
        info = analyze(unit)
        result = run_program(unit, info)
        assert "checksum" in result.stdout


def test_safe_seeds_are_ub_free_under_all_sanitizers(sample_seeds):
    """The core Csmith property: valid seeds trigger no sanitizer report."""
    gcc = GccCompiler(defect_registry=[])
    llvm = LlvmCompiler(defect_registry=[])
    for seed in sample_seeds[:2]:
        for compiler, sanitizer in ((gcc, "asan"), (gcc, "ubsan"), (llvm, "msan")):
            result = compiler.compile(seed.source, opt_level="-O0",
                                      sanitizer=sanitizer).run()
            assert result.exited_normally, (sanitizer, result.report)


def test_seeds_offer_constructs_for_every_ub_type(sample_seeds):
    """Seeds must contain matchable code constructs for each UB of Table 1."""
    found = {ub: 0 for ub in ALL_UB_TYPES}
    for seed in sample_seeds:
        unit = parse_program(seed.source)
        analyze(unit)
        for ub in ALL_UB_TYPES:
            found[ub] += len(get_matched_exprs(unit, ub))
    for ub, count in found.items():
        assert count > 0, f"no matched constructs for {ub}"


def test_nosafe_generator_drops_wrappers():
    safe = CsmithGenerator(GeneratorConfig(seed=11)).generate(0, validate=False)
    unsafe = CsmithNoSafeGenerator(GeneratorConfig(seed=11)).generate(0, validate=False)
    assert unsafe.generator == "csmith-nosafe"
    # Safe programs guard divisions with a ternary; no-safe programs do not.
    safe_unit = parse_program(safe.source)
    unsafe_unit = parse_program(unsafe.source)
    safe_ternaries = find_nodes(safe_unit, ast.Conditional)
    unsafe_ternaries = find_nodes(unsafe_unit, ast.Conditional)
    assert len(unsafe_ternaries) <= len(safe_ternaries)


def test_generate_many_returns_requested_count(seed_generator):
    seeds = seed_generator.generate_many(4, start_index=50)
    assert len(seeds) == 4
    assert len({s.source for s in seeds}) == 4


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(index=st.integers(min_value=0, max_value=500))
def test_property_every_generated_seed_is_valid(index):
    """Property: any index yields a program that parses, analyses and runs."""
    generator = CsmithGenerator(GeneratorConfig(seed=2024))
    seed = generator.generate(index)
    unit = parse_program(seed.source)
    info = analyze(unit)
    assert run_program(unit, info).status == "ok"


def test_generator_counts_a_rejected_attempt(monkeypatch):
    """An attempt the check rejects is counted, and the next is kept."""
    judged = []

    def reject_first(attempt):
        judged.append(attempt)
        return "execution: rejected" if len(judged) == 1 else real(attempt)

    real = csmith.runs_to_completion
    monkeypatch.setattr(csmith, "runs_to_completion", reject_first)
    session = telemetry.enable(campaign="t-seed-attempts")
    try:
        seed = CsmithGenerator(GeneratorConfig(seed=5)).generate(3)
    finally:
        telemetry.disable()
    assert seed.metadata["attempt"] == 1 and len(judged) == 2
    assert session.metrics.counter_value("seedgen.invalid_attempts") == 1
    assert session.metrics.counter_value("seedgen.dropped_seeds") == 0


def test_generator_counts_a_dropped_seed():
    """An index whose every attempt fails counts each attempt and one
    dropped seed before the error is raised."""
    session = telemetry.enable(campaign="t-seed-dropped")
    try:
        with pytest.raises(GenerationError, match="execution: rejected"):
            CsmithGenerator(GeneratorConfig(seed=5)).generate(
                3, accept=lambda attempt: "execution: rejected")
    finally:
        telemetry.disable()
    assert session.metrics.counter_value("seedgen.invalid_attempts") == 4
    assert session.metrics.counter_value("seedgen.dropped_seeds") == 1


def test_a_check_judges_the_attempt_and_builds_its_parse_only_by_reading_it(
        monkeypatch):
    """A check receives the builder's tree and its printed text; the
    analyzed parse is built on its first read, once, and the seed carries
    it only when the accepting check read it."""
    parses = []
    real_parse = csmith.parse_program
    monkeypatch.setattr(csmith, "parse_program",
                        lambda source: parses.append(source)
                        or real_parse(source))
    generator = CsmithGenerator(GeneratorConfig(seed=5))
    attempts = []

    def read_nothing(attempt):
        attempts.append(attempt)
        return ""

    seed = generator.generate(3, accept=read_nothing)
    assert parses == [] and seed.analyzed is None
    assert print_program(attempts[0].unit) == attempts[0].source == seed.source

    def read_twice(attempt):
        assert attempt.analyzed is attempt.analyzed
        return ""

    assert generator.generate(3, accept=read_twice).analyzed is not None
    assert parses == [seed.source]


def test_a_frontend_failure_a_check_reads_rejects_the_attempt(monkeypatch):
    """Reading the parse of an attempt whose text fails analysis rejects
    the attempt as ``frontend: ...``, whatever check read it."""
    real_build = csmith._ProgramBuilder.build

    def undeclared(self):
        unit = real_build(self)
        next(node for node in walk(unit.function_named("main"))
             if isinstance(node, ast.Identifier)).name = "undeclared_0"
        return unit

    monkeypatch.setattr(csmith._ProgramBuilder, "build", undeclared)
    session = telemetry.enable(campaign="t-seed-frontend")
    try:
        with pytest.raises(GenerationError, match="frontend: .*undeclared_0"):
            CsmithGenerator(GeneratorConfig(seed=5)).generate(
                3, accept=lambda attempt: attempt.analyzed and "")
    finally:
        telemetry.disable()
    assert session.metrics.counter_value("seedgen.invalid_attempts") == 4


# -- MUSIC ------------------------------------------------------------------------------

def test_music_mutants_are_syntactically_valid(sample_seed):
    mutants = MusicMutator(seed=1).mutate(sample_seed, count=8)
    assert mutants
    for mutant in mutants:
        parse_program(mutant.source)  # must not raise


def test_music_mutants_differ_from_seed(sample_seed):
    mutants = MusicMutator(seed=2).mutate(sample_seed, count=5)
    assert any(m.source != sample_seed.source for m in mutants)


def test_music_operators_recorded(sample_seed):
    mutants = MusicMutator(seed=3).mutate(sample_seed, count=10)
    from repro.seedgen.music import MUTATION_OPERATORS
    assert all(m.operator in MUTATION_OPERATORS for m in mutants)


def test_music_is_deterministic(sample_seed):
    first = [m.source for m in MusicMutator(seed=7).mutate(sample_seed, count=6)]
    second = [m.source for m in MusicMutator(seed=7).mutate(sample_seed, count=6)]
    assert first == second


def test_music_mostly_produces_ub_free_mutants(sample_seed):
    """The paper's observation: blind syntactic mutation rarely introduces UB
    (only ~4% of MUSIC mutants contain UB)."""
    from repro.analysis.campaign import classify_ub
    mutants = MusicMutator(seed=5).mutate(sample_seed, count=6)
    ub_count = sum(1 for m in mutants if classify_ub(m.source) is not None)
    assert ub_count <= len(mutants) // 2


# -- Juliet -------------------------------------------------------------------------------

def test_juliet_suite_covers_all_ub_types():
    suite = generate_juliet_suite(cases_per_type=2)
    covered = {case.ub_type for case in suite}
    assert covered == set(ALL_UB_TYPES)


def test_juliet_cases_parse_and_have_cwe_labels():
    for case in generate_juliet_suite(cases_per_type=1):
        parse_program(case.source)
        assert case.cwe.startswith("CWE-")


def test_juliet_ub_is_detected_by_clean_sanitizers():
    """Each Juliet case really contains its advertised UB: a defect-free
    sanitizer build at -O0 reports it."""
    from repro.core.ub_types import EXPECTED_REPORT_KINDS, sanitizers_for
    gcc = GccCompiler(defect_registry=[])
    llvm = LlvmCompiler(defect_registry=[])
    for case in generate_juliet_suite(cases_per_type=1):
        detected = False
        for sanitizer in sanitizers_for(case.ub_type):
            compiler = llvm if sanitizer == "msan" else gcc
            result = compiler.compile(case.source, opt_level="-O0",
                                      sanitizer=sanitizer).run()
            if result.crashed and result.report.kind in EXPECTED_REPORT_KINDS[case.ub_type]:
                detected = True
        assert detected, case.name
