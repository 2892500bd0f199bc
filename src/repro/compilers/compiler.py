"""The simulated compiler driver.

``SimulatedCompiler.compile()`` reproduces the pipeline of the paper's
Figure 2:

    source → frontend (parse + sema) → optimizer passes → sanitizer pass → binary

The optimizer runs *before* the sanitizer pass, so optimizations performed
under the assumption of UB-freedom can erase UB before the sanitizer ever
sees it — which is why naive differential testing produces false alarms and
the crash-site mapping oracle is needed.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.cdsl import ast_nodes as ast
from repro.cdsl.parser import parse_program
from repro.cdsl.printer import print_program
from repro.cdsl.sema import analyze
from repro.cdsl.visitor import clone, fast_clone
from repro.compilers.binary import CompiledBinary
from repro.compilers.cache import (
    CompilationCache,
    FrontendArtifact,
    OptimizedArtifact,
    source_fingerprint,
)
from repro.compilers.options import CompileOptions
from repro.compilers.versions import trunk_version
from repro.optim.passes import OptimizationContext, PassPipeline
from repro.optim.pipelines import pipeline_for
from repro.sanitizers.base import InstrumentationContext
from repro.sanitizers.registry import build_pass, sanitizers_supported_by
from repro.utils.errors import CompilationError

SourceLike = Union[str, ast.TranslationUnit]


class SimulatedCompiler:
    """Base class for the two simulated compilers (GCC and LLVM).

    When a :class:`~repro.compilers.cache.CompilationCache` is attached, the
    configuration-independent phases are shared across compiles of the same
    source text: the frontend runs once per source, the optimizer pipeline
    once per (source, opt level, effective pass list) and the semantic
    analysis after it at most once, when something first needs it; only
    the sanitizer overlay runs per configuration — producing binaries
    bit-identical to uncached compiles.
    """

    name = "cc"

    def __init__(self, version: Optional[int] = None,
                 defect_registry: Optional[Sequence] = None,
                 coverage=None,
                 cache: Optional[CompilationCache] = None,
                 versioned_pipelines: bool = False) -> None:
        self.version = version if version is not None else trunk_version(self.name)
        self.defect_registry = defect_registry
        self.coverage = coverage
        self.cache = cache
        #: With versioned pipelines the optimizer models release history:
        #: passes not yet introduced at ``version`` (and passes inside a
        #: seeded :class:`~repro.optim.pipelines.OptimizerDefect` window) do
        #: not run.  Off by default — differential testing and triage use
        #: the flat, release-independent pipelines.
        self.versioned_pipelines = versioned_pipelines

    # -- public API -------------------------------------------------------------

    def supported_sanitizers(self) -> list:
        return sanitizers_supported_by(self.name)

    def compile(self, source: SourceLike,
                options: Optional[CompileOptions] = None,
                opt_level: Optional[str] = None,
                sanitizer: Optional[str] = None) -> CompiledBinary:
        """Compile *source* and return a runnable binary.

        *source* may be C text or an already-parsed translation unit (which
        is cloned, never mutated).  Either pass a full
        :class:`CompileOptions` or the ``opt_level`` / ``sanitizer``
        shorthand arguments.

        With a cache attached, a sanitizer-free compile of C text returns a
        binary over the cache's optimized master itself: its ``unit`` and
        ``sema`` are shared with every other such binary and must not be
        mutated.  Such a compile does not analyze the optimized unit; the
        binary's first :meth:`~CompiledBinary.run` or ``sema`` read does,
        and raises the ``CompilationError`` of a failing analysis.  A
        sanitizer compile analyzes the master (once per master) and
        instruments a private copy.
        """
        if options is None:
            options = CompileOptions(opt_level=opt_level or "-O0",
                                     sanitizer=sanitizer)
        if options.sanitizer is not None \
                and options.sanitizer not in self.supported_sanitizers():
            raise CompilationError(
                f"{self.name} does not support -fsanitize={options.sanitizer}")

        if (self.cache is not None and self.coverage is None
                and isinstance(source, str)):
            # Coverage-collecting compiles bypass the cache: a hit would skip
            # the pipeline and under-record branch coverage.  AST input also
            # bypasses it, since callers rely on their node ids surviving.
            source_text = source
            artifact = self._cached_phases(source, options.opt_level)
            unit, passes_run = artifact.unit, artifact.passes_run
            if options.sanitizer is None:
                analysis = artifact
            else:
                # The overlay rewrites node fields, so it instruments a
                # copy.  The copy shares the master's annotations, so the
                # master is analyzed first and the copy needs no analysis.
                analysis = artifact.sema
                unit = fast_clone(unit)
        else:
            unit, source_text = self._frontend(source)
            sema = self._analyze(unit, source_text)
            passes_run = self._optimize(unit, sema, options.opt_level,
                                        self._pipeline(options.opt_level))
            # Passes may have created new nodes (literals, rewritten
            # branches): re-run semantic analysis so types and symbols are
            # consistent.
            analysis = self._analyze(unit, source_text)

        sanitizer_pass = None
        sanitizer_ctx = None
        if options.sanitizer is not None:
            sanitizer_pass = build_pass(options.sanitizer)
            sanitizer_ctx = InstrumentationContext.for_configuration(
                options.sanitizer, self.name, self.version, options.opt_level,
                registry=self.defect_registry, coverage=self.coverage)
            sanitizer_pass.instrument(unit, analysis, sanitizer_ctx)

        return CompiledBinary(unit=unit, analysis=analysis, compiler=self.name,
                              version=self.version, options=options,
                              sanitizer_pass=sanitizer_pass,
                              sanitizer_context=sanitizer_ctx,
                              source=source_text,
                              passes_run=tuple(passes_run))

    # -- cacheable phases --------------------------------------------------------

    def _pipeline(self, opt_level: str) -> PassPipeline:
        """The optimizer pipeline of *opt_level*: flat, or with versioned
        pipelines the one of this release."""
        version = self.version if self.versioned_pipelines else None
        return pipeline_for(self.name, opt_level, version)

    def _optimize(self, unit: ast.TranslationUnit, sema, opt_level: str,
                  pipeline: PassPipeline) -> list:
        """Run the optimizer pipeline (Figure 2: before the sanitizer pass)."""
        opt_ctx = OptimizationContext(compiler=self.name, version=self.version,
                                      opt_level=opt_level,
                                      coverage=self.coverage)
        return pipeline.run(unit, sema, opt_ctx)

    def _cached_phases(self, source_text: str,
                       opt_level: str) -> OptimizedArtifact:
        """Frontend + optimizer with artifact sharing through the cache.

        Returns the cache's optimized master as an
        :class:`~repro.compilers.cache.OptimizedArtifact`.  The frontend
        master is parsed and analyzed once and never changed: the optimizer
        works on a :func:`fast_clone` of it that shares its annotations and
        runs with the master's sema.  The pipeline's unit is analyzed on
        first demand, as the uncached path analyzes it after the pipeline.
        An empty schedule (llvm -O0) changes nothing, so its build is the
        frontend master itself, with the master's sema: no clone, no
        analysis.
        """
        fingerprint = source_fingerprint(source_text)
        pipeline = self._pipeline(opt_level)

        def build_optimized():
            master, sema = cached_frontend(self.cache, source_text,
                                           fingerprint, self.name)
            if not pipeline.passes:
                return [(master, (), sema)]
            work = fast_clone(master)
            passes_run = self._optimize(work, sema, opt_level, pipeline)
            return [(work, passes_run, None)]

        key = (self.name, opt_level, tuple(pipeline.pass_names))
        return self.cache.optimized(fingerprint, [key], build_optimized)[0]

    # -- helpers ----------------------------------------------------------------

    def _frontend(self, source: SourceLike) -> tuple[ast.TranslationUnit, str]:
        if isinstance(source, ast.TranslationUnit):
            # Compile a private copy so callers can reuse / re-compile the
            # same AST with other configurations.
            unit = clone(source)
            return unit, print_program(source)
        try:
            unit = parse_program(source)
        except Exception as exc:
            raise CompilationError(f"{self.name}: parse error: {exc}") from exc
        return unit, source

    def _analyze(self, unit: ast.TranslationUnit, source_text: str):
        try:
            return analyze(unit)
        except Exception as exc:
            raise CompilationError(f"{self.name}: semantic error: {exc}") from exc


def cached_frontend(cache: CompilationCache, source_text: str,
                    fingerprint: str, compiler: str) -> FrontendArtifact:
    """The cache's analyzed frontend master of *source_text*, whose
    fingerprint is *fingerprint*.  A parse or analysis failure raises
    ``CompilationError("<compiler>: parse error: ...")`` or ``"...:
    semantic error: ..."``."""
    def parse() -> ast.TranslationUnit:
        try:
            return parse_program(source_text)
        except Exception as exc:
            raise CompilationError(f"{compiler}: parse error: {exc}") from exc

    try:
        return cache.frontend(fingerprint, parse)
    except CompilationError:
        raise
    except Exception as exc:
        raise CompilationError(f"{compiler}: semantic error: {exc}") from exc


class GccCompiler(SimulatedCompiler):
    """The simulated GCC driver: supports ASan and UBSan (no MSan, §4.1).

    Constructor arguments match :func:`make_compiler` (``version``,
    ``defect_registry``, ``coverage``, ``cache``).  ``compile(source,
    opt_level=..., sanitizer=...)`` returns a
    :class:`~repro.compilers.binary.CompiledBinary`.
    """

    name = "gcc"


class LlvmCompiler(SimulatedCompiler):
    """The simulated LLVM/Clang driver: supports ASan, UBSan and MSan.

    Same interface as :class:`GccCompiler`; the two differ in optimizer
    pipeline, sanitizer support (Table 2) and seeded defect registries.
    """

    name = "llvm"


_COMPILER_CLASSES = {"gcc": GccCompiler, "llvm": LlvmCompiler}


def make_compiler(name: str, version: Optional[int] = None,
                  defect_registry: Optional[Sequence] = None,
                  coverage=None,
                  cache: Optional[CompilationCache] = None,
                  versioned_pipelines: bool = False) -> SimulatedCompiler:
    """Build a simulated compiler by name.

    Args:
        name: ``"gcc"`` or ``"llvm"`` (raises ``KeyError`` otherwise).
        version: simulated release; defaults to the trunk version.
        defect_registry: seeded sanitizer defects ([] = a correct compiler).
        coverage: optional coverage tracker (Table 5 experiments).
        cache: a shared :class:`~repro.compilers.cache.CompilationCache`.
        versioned_pipelines: model the optimizer's release history (pass
            introduction versions and seeded optimizer-defect windows); used
            by the marker engine's cross-version sweeps.

    Example::

        compiler = make_compiler("gcc", defect_registry=[])
        result = compiler.compile("int main() { return 0; }",
                                  opt_level="-O2", sanitizer="asan").run()
    """
    try:
        cls = _COMPILER_CLASSES[name]
    except KeyError as exc:
        raise KeyError(f"unknown compiler {name!r}") from exc
    return cls(version=version, defect_registry=defect_registry,
               coverage=coverage, cache=cache,
               versioned_pipelines=versioned_pipelines)
