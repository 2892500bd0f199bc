"""Simulated compilers: GCC and LLVM with optimizer + sanitizer pipelines."""

from repro.compilers.binary import CompiledBinary
from repro.compilers.cache import CompilationCache, source_fingerprint
from repro.compilers.compiler import (
    GccCompiler,
    LlvmCompiler,
    SimulatedCompiler,
    make_compiler,
)
from repro.compilers.options import ALL_OPT_LEVELS, CompileOptions
from repro.compilers.versions import (
    FIRST_SANITIZER_VERSION,
    LATEST_STABLE_VERSION,
    all_versions,
    release_years,
    stable_versions,
    trunk_version,
    version_label,
)

__all__ = [
    "CompilationCache",
    "CompiledBinary",
    "source_fingerprint",
    "GccCompiler",
    "LlvmCompiler",
    "SimulatedCompiler",
    "make_compiler",
    "ALL_OPT_LEVELS",
    "CompileOptions",
    "FIRST_SANITIZER_VERSION",
    "LATEST_STABLE_VERSION",
    "all_versions",
    "release_years",
    "stable_versions",
    "trunk_version",
    "version_label",
]
