"""The reference compile that the compile tests compare against.

``reference_compile`` is the compile ``SimulatedCompiler.compile`` ran
without a compilation cache, before every build read through one: parse,
analyze, run the level's flat pipeline on the unit in place, analyze the
optimized unit again, and instrument it with the configuration's
sanitizer.  Every call builds a fresh unit and shares nothing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cdsl import analyze, parse_program
from repro.compilers.binary import CompiledBinary
from repro.compilers.options import CompileOptions
from repro.compilers.versions import trunk_version
from repro.optim.pipelines import pipeline_for
from repro.sanitizers.base import InstrumentationContext
from repro.sanitizers.registry import build_pass


def reference_compile(source: str, compiler: str, opt_level: str,
                      sanitizer: Optional[str] = None,
                      version: Optional[int] = None,
                      defect_registry: Optional[Sequence] = None
                      ) -> CompiledBinary:
    """Compile *source* with *compiler* (trunk unless *version* is given)
    at *opt_level*, instrumented for *sanitizer* with the defects of
    *defect_registry* (``None``: the seeded ones)."""
    version = version if version is not None else trunk_version(compiler)
    unit = parse_program(source)
    sema = analyze(unit)
    passes_run = pipeline_for(compiler, opt_level).run(unit, sema)
    # Passes may have created new nodes (literals, rewritten branches):
    # re-run semantic analysis so types and symbols are consistent.
    analysis = analyze(unit)
    sanitizer_pass = sanitizer_ctx = None
    if sanitizer is not None:
        sanitizer_pass = build_pass(sanitizer)
        sanitizer_ctx = InstrumentationContext.for_configuration(
            sanitizer, compiler, version, opt_level, registry=defect_registry)
        sanitizer_pass.instrument(unit, analysis, sanitizer_ctx)
    return CompiledBinary(unit=unit, analysis=analysis, compiler=compiler,
                          version=version,
                          options=CompileOptions(opt_level=opt_level,
                                                 sanitizer=sanitizer),
                          sanitizer_pass=sanitizer_pass,
                          sanitizer_context=sanitizer_ctx,
                          source=source, passes_run=tuple(passes_run))
