"""Unit tests for the simulated compiler drivers."""

import pytest

from repro.compilers import (
    ALL_OPT_LEVELS,
    CompileOptions,
    GccCompiler,
    LlvmCompiler,
    all_versions,
    make_compiler,
    release_years,
    stable_versions,
    trunk_version,
    version_label,
)
from repro.utils.errors import CompilationError


def test_compile_options_validate_opt_level():
    with pytest.raises(ValueError):
        CompileOptions(opt_level="-O7")


def test_compile_options_command_line():
    options = CompileOptions(opt_level="-O2", sanitizer="asan")
    line = options.command_line("gcc", "a.c")
    assert line == "gcc -O2 -fsanitize=address -g a.c"


def test_make_compiler_factory():
    assert isinstance(make_compiler("gcc"), GccCompiler)
    assert isinstance(make_compiler("llvm"), LlvmCompiler)
    with pytest.raises(KeyError):
        make_compiler("msvc")


def test_default_version_is_trunk():
    assert GccCompiler().version == trunk_version("gcc")
    assert LlvmCompiler().version == trunk_version("llvm")


def test_versions_module():
    assert stable_versions("gcc")[0] == 5
    assert trunk_version("gcc") == stable_versions("gcc")[-1] + 1
    assert len(all_versions("llvm")) == len(stable_versions("llvm")) + 1
    assert version_label("gcc", 7) == "gcc-7"
    assert version_label("gcc", trunk_version("gcc")) == "gcc-trunk"
    years = release_years("gcc")
    assert years[5] == 2015


def test_compile_and_run_simple_program(simple_source, clean_gcc):
    binary = clean_gcc.compile(simple_source, opt_level="-O0")
    result = binary.run()
    assert result.status == "ok"
    assert result.exit_code == 10 + 3 + 5


def test_compile_all_opt_levels_same_behaviour(simple_source, clean_gcc, clean_llvm):
    expected = None
    for compiler in (clean_gcc, clean_llvm):
        for level in ALL_OPT_LEVELS:
            result = compiler.compile(simple_source, opt_level=level).run()
            assert result.status == "ok"
            if expected is None:
                expected = result.exit_code
            assert result.exit_code == expected


def test_sanitizer_selection_respects_compiler_support(simple_source):
    gcc = GccCompiler()
    with pytest.raises(CompilationError):
        gcc.compile(simple_source, opt_level="-O0", sanitizer="msan")
    llvm = LlvmCompiler()
    binary = llvm.compile(simple_source, opt_level="-O0", sanitizer="msan")
    assert binary.options.sanitizer == "msan"


def test_parse_error_raises_compilation_error():
    gcc = GccCompiler()
    with pytest.raises(CompilationError):
        gcc.compile("int main( { return 0; }", opt_level="-O0")


def test_binary_label_and_metadata(simple_source, clean_gcc):
    binary = clean_gcc.compile(simple_source,
                               CompileOptions(opt_level="-O2", sanitizer="asan"))
    assert "-O2" in binary.label and "asan" in binary.label
    assert binary.compiler == "gcc"
    assert isinstance(binary.passes_run, tuple)


def test_binary_runs_are_independent(figure1_source):
    gcc = GccCompiler(version=13)
    binary = gcc.compile(figure1_source, opt_level="-O0", sanitizer="asan")
    first = binary.run()
    second = binary.run()
    assert first.crashed and second.crashed
    assert first.report.kind == second.report.kind


def test_optimization_runs_before_sanitizer_pass(figure3_source):
    """The pipeline order of Figure 2: the optimizer can remove UB before the
    sanitizer pass sees it, so the -O2 binary exits normally."""
    gcc = GccCompiler(defect_registry=[])
    at_o0 = gcc.compile(figure3_source, opt_level="-O0", sanitizer="asan").run()
    at_o2 = gcc.compile(figure3_source, opt_level="-O2", sanitizer="asan").run()
    assert at_o0.crashed
    assert at_o2.exited_normally


def test_nosan_binary_never_reports(figure1_source, clean_gcc):
    result = clean_gcc.compile(figure1_source, opt_level="-O0").run()
    assert result.status == "ok"
    assert result.report is None


def test_versioned_compilers_pick_up_versioned_defects(figure1_source):
    old = GccCompiler(version=5)   # before the -O2 store defect was introduced
    new = GccCompiler(version=13)  # defect present
    detected = old.compile(figure1_source, opt_level="-O2", sanitizer="asan").run()
    missed = new.compile(figure1_source, opt_level="-O2", sanitizer="asan").run()
    assert detected.crashed
    assert missed.exited_normally
