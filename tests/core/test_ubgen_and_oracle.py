"""Tests for the UB generator (Algorithm 1), crash-site mapping (Algorithm 2),
differential testing and the reducer."""

import hashlib
import json

import pytest

from repro.compilers import CompilationCache, GccCompiler
from repro.compilers.compiler import make_compiler
from repro.compilers.options import CompileOptions
from repro.core import (
    DifferentialTester,
    TestConfig,
    UBGenerator,
    UBProgram,
    UBType,
    classify_discrepancy,
    default_configs,
    is_sanitizer_bug,
    is_sanitizer_bug_from_results,
)
from repro.core import ubgen
from repro.core.differential import detected, verdict_of
from repro.core.profile import Profiler
from repro.core.ub_types import ALL_UB_TYPES, EXPECTED_REPORT_KINDS, sanitizers_for
from repro.reduction import HierarchicalReducer, make_fn_bug_predicate
from repro.telemetry import runtime as telemetry
from repro.utils.errors import CompilationError, ProfilingError

#: SHA-256 of ``UBGenerator(seed=99, max_programs_per_type=2)`` over the three
#: ``sample_seeds``: every program's UB type, source and description, then
#: each seed's match, live-match and generated counts
#: (:func:`_generation_digest`).
GENERATION_DIGEST = "e3435f3169ea65559640354007a757043388f83e59a8be76636aebafb531dce1"


# -- UBGenerator ---------------------------------------------------------------------

def test_generator_produces_programs_for_every_type(sample_ub_programs):
    produced_types = {ub for ub, programs in sample_ub_programs.items() if programs}
    # A single seed must yield most UB types; across seeds all types appear
    # (checked in the integration tests).  Require at least seven here.
    assert len(produced_types) >= 7


def test_generated_programs_each_contain_exactly_one_mutation(sample_ub_programs):
    for programs in sample_ub_programs.values():
        for program in programs:
            # At most two auxiliary variables, each declared once and used once.
            assert program.source.count("__ub_hat_") <= 4
            assert program.description


def test_generated_programs_are_detected_by_clean_sanitizers(sample_ub_programs,
                                                             clean_gcc, clean_llvm):
    """The paper's Table 4 property: every UBfuzz program contains UB."""
    for ub_type, programs in sample_ub_programs.items():
        for program in programs[:1]:
            detected = False
            for sanitizer in sanitizers_for(ub_type):
                compiler = clean_llvm if sanitizer == "msan" else clean_gcc
                result = compiler.compile(program.source, opt_level="-O0",
                                          sanitizer=sanitizer).run()
                if result.crashed and result.report.kind in EXPECTED_REPORT_KINDS[ub_type]:
                    detected = True
                    break
            assert detected, f"{ub_type} program not detected:\n{program.source}"


def test_generator_respects_per_type_cap(sample_seed):
    generator = UBGenerator(seed=1, max_programs_per_type=1)
    programs = generator.generate_all(sample_seed)
    assert all(len(p) <= 1 for p in programs.values())


def test_generator_single_type_entry_point(sample_seed):
    generator = UBGenerator(seed=2, max_programs_per_type=2)
    programs = generator.generate(sample_seed, UBType.DIVIDE_BY_ZERO)
    assert all(p.ub_type == UBType.DIVIDE_BY_ZERO for p in programs)


def test_generator_accepts_raw_source_and_reports_stats():
    source = """
int arr[4] = {1, 2, 3, 4};
int main() {
  int i = 1;
  arr[i] = arr[i] + 2;
  return arr[1];
}
"""
    generator = UBGenerator(seed=3)
    programs, stats = generator.generate_with_stats(source, [UBType.BUFFER_OVERFLOW_ARRAY])
    assert stats.matches[UBType.BUFFER_OVERFLOW_ARRAY] >= 2
    assert len(programs[UBType.BUFFER_OVERFLOW_ARRAY]) >= 1


def test_generator_is_deterministic(sample_seed):
    first = UBGenerator(seed=9, max_programs_per_type=1).generate_all(sample_seed)
    second = UBGenerator(seed=9, max_programs_per_type=1).generate_all(sample_seed)
    # Whole programs, metadata included: nothing in a program may depend on
    # process state such as AST node ids.
    assert any(first.values())
    assert first == second


def _generation_digest(generator, seeds):
    digest = hashlib.sha256()
    for seed in seeds:
        programs, stats = generator.generate_with_stats(seed)
        for generated in programs.values():
            for program in generated:
                digest.update(json.dumps([program.ub_type.value, program.source,
                                          program.description]).encode())
        for counts in (stats.matches, stats.live_matches, stats.generated):
            digest.update(json.dumps({ub.value: n for ub, n in counts.items()},
                                     sort_keys=True).encode())
    return digest.hexdigest()


def test_generation_output_is_pinned(sample_seeds):
    """Generated programs and match statistics, byte for byte."""
    generator = UBGenerator(seed=99, max_programs_per_type=2)
    assert _generation_digest(generator, sample_seeds) == GENERATION_DIGEST


def test_generator_counts_invalid_mutations(sample_seed, monkeypatch):
    attempted = []

    def invalid_synthesize(*args, **kwargs):
        mutation = real_synthesize(*args, **kwargs)
        if mutation is not None:
            # An undeclared auxiliary variable: semantic analysis rejects
            # the mutated program.
            mutation.augment.append(("__self__", "__ub_undeclared"))
            attempted.append(mutation)
        return mutation

    real_synthesize = ubgen.synthesize
    monkeypatch.setattr(ubgen, "synthesize", invalid_synthesize)
    session = telemetry.enable(campaign="t-invalid-mutations")
    try:
        programs = UBGenerator(seed=9).generate_all(
            sample_seed, [UBType.DIVIDE_BY_ZERO, UBType.SHIFT_OVERFLOW])
    finally:
        telemetry.disable()
    assert attempted and not any(programs.values())
    assert session.metrics.counter_value("ubgen.invalid_mutations") == len(attempted)
    assert session.metrics.counter_value("ubgen.profile_failures") == 0


def test_generator_counts_profile_failures(sample_seed, monkeypatch):
    def failing_profile(self, unit, matches):
        raise ProfilingError("forced profiling failure")

    monkeypatch.setattr(Profiler, "profile", failing_profile)
    session = telemetry.enable(campaign="t-profile-failures")
    try:
        programs, stats = UBGenerator(seed=9).generate_with_stats(sample_seed)
    finally:
        telemetry.disable()
    assert stats.profile_failed and not any(programs.values())
    assert session.metrics.counter_value("ubgen.profile_failures") == 1
    assert session.metrics.counter_value("ubgen.invalid_mutations") == 0


# -- crash-site mapping ----------------------------------------------------------------

@pytest.fixture(scope="module")
def figure1_binaries():
    source = """\
struct a { int x; };
struct a b[2];
struct a *c = b, *d = b;
int k = 0;
int main() {
  *c = *b;
  k = 2;
  *c = *(d + k);
  return c->x;
}
"""
    gcc = GccCompiler(version=13)
    crashing = gcc.compile(source, opt_level="-O0", sanitizer="asan")
    missing = gcc.compile(source, opt_level="-O2", sanitizer="asan")
    return crashing, missing


def test_algorithm2_flags_figure1_as_sanitizer_bug(figure1_binaries):
    crashing, missing = figure1_binaries
    assert is_sanitizer_bug(crashing, missing)


def test_results_based_oracle_agrees(figure1_binaries):
    crashing, missing = figure1_binaries
    verdict = is_sanitizer_bug_from_results(crashing.run(), missing.run())
    assert verdict.is_bug
    assert verdict.crash_site is not None
    assert classify_discrepancy(crashing.run(), missing.run()) == "sanitizer-bug"


def test_oracle_classifies_optimization_discrepancy(figure3_source):
    """Figure 3: the optimizer removes the UB, so the discrepancy must NOT be
    attributed to a sanitizer bug."""
    gcc = GccCompiler(defect_registry=[])
    crashing = gcc.compile(figure3_source, opt_level="-O0", sanitizer="asan").run()
    normal = gcc.compile(figure3_source, opt_level="-O2", sanitizer="asan").run()
    assert crashing.crashed and normal.exited_normally
    verdict = is_sanitizer_bug_from_results(crashing, normal)
    assert not verdict.is_bug
    assert classify_discrepancy(crashing, normal) == "optimization"


def test_oracle_requires_a_crash():
    gcc = GccCompiler(defect_registry=[])
    result = gcc.compile("int main() { return 0; }", opt_level="-O0",
                         sanitizer="asan").run()
    verdict = is_sanitizer_bug_from_results(result, result)
    assert not verdict.is_bug


@pytest.fixture(scope="module")
def sample_matrices(sample_ub_programs):
    """Each sample UB program with its default differential matrix: one
    ``(binary, result)`` per configuration that compiles, each binary
    built once and run once."""
    cache = CompilationCache()
    matrices = []
    for programs in sample_ub_programs.values():
        for program in programs:
            cells = []
            for config in default_configs(program.ub_type):
                compiler = make_compiler(config.compiler, cache=cache)
                try:
                    binary = compiler.compile(
                        program.source,
                        CompileOptions(opt_level=config.opt_level,
                                       sanitizer=config.sanitizer))
                except CompilationError:
                    continue
                cells.append((binary, binary.run()))
            matrices.append((program, cells))
    return matrices


def test_every_crashed_matrix_run_has_a_crash_site(sample_matrices):
    """A sanitizer abort's crash site is the report's location, or the last
    executed site when the report has none; so no crashed run the oracle
    sees lacks one."""
    crashed = [result for _, cells in sample_matrices
               for _, result in cells if result.crashed]
    assert crashed
    assert all(result.crash_site is not None for result in crashed)


def test_literal_algorithm2_agrees_with_the_results_oracle(sample_matrices):
    """On every (detecting, silent) pair of the sample matrices, the
    Debugger-driven Algorithm 2 and the campaign's oracle give one verdict."""
    pairs = bugs = 0
    for program, cells in sample_matrices:
        detecting = [cell for cell in cells
                     if detected(verdict_of(cell[1]), program.ub_type)]
        silent = [cell for cell in cells if cell[1].exited_normally]
        for crashing_binary, crashing in detecting:
            for normal_binary, normal in silent:
                verdict = is_sanitizer_bug_from_results(crashing, normal)
                assert is_sanitizer_bug(crashing_binary, normal_binary) \
                    == verdict.is_bug, (program.source, verdict)
                pairs += 1
                bugs += verdict.is_bug
    assert 0 < bugs < pairs


# -- differential testing -----------------------------------------------------------------

def test_default_configs_follow_table2():
    configs = default_configs(UBType.USE_OF_UNINIT_MEMORY)
    assert all(c.sanitizer == "msan" and c.compiler == "llvm" for c in configs)
    buffer_configs = default_configs(UBType.BUFFER_OVERFLOW_ARRAY,
                                     opt_levels=("-O0",))
    assert {(c.compiler, c.sanitizer) for c in buffer_configs} == {
        ("gcc", "asan"), ("llvm", "asan"), ("gcc", "ubsan"), ("llvm", "ubsan")}


def test_differential_tester_finds_fn_candidate_for_figure1(figure1_source):
    program = UBProgram(source=figure1_source,
                        ub_type=UBType.BUFFER_OVERFLOW_POINTER)
    tester = DifferentialTester(opt_levels=("-O0", "-O2"))
    result = tester.test(program)
    assert any(cell.detected for cell in result.cells)
    assert result.fn_candidates
    missing_configs = {c.missing.config.label for c in result.fn_candidates}
    assert any("gcc -O2" in label for label in missing_configs)


def test_differential_tester_reports_no_bug_without_discrepancy():
    program = UBProgram(source="int d = 0; int main() { return 5 / d; }",
                        ub_type=UBType.DIVIDE_BY_ZERO)
    tester = DifferentialTester(compilers=("gcc", "llvm"), defect_registry=[],
                                opt_levels=("-O0", "-O1"))
    result = tester.test(program)
    assert any(cell.detected for cell in result.cells)
    assert not result.fn_candidates


def test_differential_tester_handles_uncompilable_program():
    program = UBProgram(source="int main( {", ub_type=UBType.DIVIDE_BY_ZERO)
    tester = DifferentialTester(opt_levels=("-O0",))
    result = tester.test(program)
    assert all(cell.verdict is None and cell.error for cell in result.cells)
    assert not result.fn_candidates


def test_run_config_returns_outcome(figure1_source):
    tester = DifferentialTester(opt_levels=("-O0",))
    program = UBProgram(source=figure1_source, ub_type=UBType.BUFFER_OVERFLOW_POINTER)
    outcome = tester.run_config(program, TestConfig("gcc", "asan", "-O0"))
    assert outcome.detected
    assert "gcc -O0" in outcome.config.label


# -- reducer (the full suite lives in tests/reduction) ----------------------------------

def test_reducer_shrinks_program_while_preserving_fn_bug(figure1_source):
    program = UBProgram(source=figure1_source, ub_type=UBType.BUFFER_OVERFLOW_POINTER)
    detecting = TestConfig("gcc", "asan", "-O0")
    missing = TestConfig("gcc", "asan", "-O2")
    predicate = make_fn_bug_predicate(program, detecting, missing)
    assert predicate(figure1_source)
    reducer = HierarchicalReducer(predicate, max_rounds=3)
    result = reducer.reduce(figure1_source)
    assert predicate(result.reduced_source)
    assert result.edits_applied >= 1
    assert result.predicate_evaluations >= 1
    assert result.reduced_tokens < result.original_tokens


def test_reducer_rejects_invalid_input():
    from repro.utils.errors import ReductionError

    reducer = HierarchicalReducer(lambda source: False, max_rounds=1)
    with pytest.raises(ReductionError):
        reducer.reduce("int main( {")
    # A predicate that rejects everything leaves valid input untouched.
    result = reducer.reduce("int main() { return 0; }")
    assert result.reduced_source == "int main() { return 0; }"
