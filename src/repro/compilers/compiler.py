"""The simulated compiler driver.

``SimulatedCompiler.compile()`` reproduces the pipeline of the paper's
Figure 2:

    source → frontend (parse + sema) → optimizer passes → sanitizer pass → binary

The optimizer runs *before* the sanitizer pass, so optimizations performed
under the assumption of UB-freedom can erase UB before the sanitizer ever
sees it — which is why naive differential testing produces false alarms and
the crash-site mapping oracle is needed.

Every build reads through a
:class:`~repro.compilers.cache.CompilationCache`.  Two functions are the
only readers of its layers: :func:`frontend_master` fetches a source's
analyzed frontend master, and :func:`optimized_masters` builds the
optimized masters of keyed pipelines from it, for a compile (one key) and
for a marker survey (all its pipelines) alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from repro.cdsl.parser import parse_program
from repro.cdsl.visitor import fast_clone
from repro.compilers.binary import CompiledBinary
from repro.compilers.cache import (
    CompilationCache,
    FrontendArtifact,
    OptimizedArtifact,
    OptimizedKey,
    source_fingerprint,
)
from repro.compilers.options import CompileOptions
from repro.compilers.versions import trunk_version
from repro.optim.passes import PassPipeline, run_pipelines
from repro.optim.pipelines import pipeline_for
from repro.sanitizers.base import InstrumentationContext
from repro.sanitizers.registry import build_pass, sanitizers_supported_by
from repro.utils.errors import CompilationError


def frontend_master(cache: CompilationCache, source_text: str,
                    compiler: str = "cc") -> FrontendArtifact:
    """The cache's analyzed frontend master of *source_text*: ``(unit,
    sema)``, shared read-only.  A parse or analysis failure stores nothing
    and raises ``CompilationError("<compiler>: parse error: ...")`` or
    ``"...: semantic error: ..."``."""
    def parse():
        try:
            return parse_program(source_text)
        except Exception as exc:
            raise CompilationError(f"{compiler}: parse error: {exc}") from exc

    try:
        return cache.frontend(source_fingerprint(source_text), parse)
    except CompilationError:
        raise
    except Exception as exc:
        raise CompilationError(f"{compiler}: semantic error: {exc}") from exc


def optimized_masters(cache: CompilationCache, source_text: str,
                      pipelines: Dict[OptimizedKey, PassPipeline]
                      ) -> List[OptimizedArtifact]:
    """The optimized masters of *source_text* under keyed *pipelines*
    (``{(compiler, opt level, pass names): pipeline}``), one
    :class:`~repro.compilers.cache.OptimizedArtifact` per key, in order.

    When any key is missing, all of them are built from the frontend
    master (:func:`frontend_master`, failing with the first key's compiler
    name): the pipelines that have passes run as one
    :func:`~repro.optim.passes.run_pipelines` walk from a
    :func:`~repro.cdsl.visitor.fast_clone` of the master, so steps their
    schedules share run once.  An empty schedule (llvm -O0) changes
    nothing: its build is the master itself, with the master's sema.
    """
    def build():
        master, sema = frontend_master(cache, source_text,
                                       next(iter(pipelines))[0])
        walked = [p for p in pipelines.values() if p.passes]
        walks = iter(run_pipelines(fast_clone(master), sema, walked)
                     if walked else ())
        return [(*next(walks), None) if p.passes else (master, (), sema)
                for p in pipelines.values()]

    return cache.optimized(source_fingerprint(source_text), list(pipelines),
                           build)


class SimulatedCompiler:
    """Base class for the two simulated compilers (GCC and LLVM).

    A compile reads through the compiler's
    :class:`~repro.compilers.cache.CompilationCache`, *cache* or a private
    one: the frontend runs once per source text, the optimizer pipeline
    once per (source, opt level, pass list) and the semantic analysis
    after it at most once, when something first needs it; only the
    sanitizer overlay runs per configuration.  A coverage measurement
    still needs a compiler with a private cache: a cached build runs no
    optimizer code, so a build another compiler made would record nothing.
    """

    name = "cc"

    def __init__(self, version: Optional[int] = None,
                 defect_registry: Optional[Sequence] = None,
                 cache: Optional[CompilationCache] = None) -> None:
        self.version = version if version is not None else trunk_version(self.name)
        self.defect_registry = defect_registry
        self.cache = cache if cache is not None else CompilationCache()

    # -- public API -------------------------------------------------------------

    def supported_sanitizers(self) -> list:
        return sanitizers_supported_by(self.name)

    def compile(self, source: str,
                options: Optional[CompileOptions] = None,
                opt_level: Optional[str] = None,
                sanitizer: Optional[str] = None) -> CompiledBinary:
        """Compile the C text *source* and return a runnable binary.

        Either pass a full :class:`CompileOptions` or the ``opt_level`` /
        ``sanitizer`` shorthand arguments.  Optimizer pipelines are the
        flat, release-independent ones of :func:`pipeline_for`.

        A sanitizer-free compile returns a binary over the cache's
        optimized master itself: its ``unit`` and ``sema`` are shared with
        every other such binary and must not be mutated.  Such a compile
        does not analyze the optimized unit; the binary's first
        :meth:`~CompiledBinary.run` or ``sema`` read does, and raises the
        ``CompilationError`` of a failing analysis.  A sanitizer compile
        analyzes the master (once per master) and instruments a private
        copy.
        """
        if options is None:
            options = CompileOptions(opt_level=opt_level or "-O0",
                                     sanitizer=sanitizer)
        if options.sanitizer is not None \
                and options.sanitizer not in self.supported_sanitizers():
            raise CompilationError(
                f"{self.name} does not support -fsanitize={options.sanitizer}")

        pipeline = pipeline_for(self.name, options.opt_level)
        key = (self.name, options.opt_level, tuple(pipeline.pass_names))
        artifact = optimized_masters(self.cache, source, {key: pipeline})[0]
        unit, analysis = artifact.unit, artifact
        sanitizer_pass = None
        sanitizer_ctx = None
        if options.sanitizer is not None:
            # The overlay rewrites node fields, so it instruments a copy.
            # The copy shares the master's annotations, so the master is
            # analyzed first and the copy needs no analysis.
            analysis = artifact.sema
            unit = fast_clone(unit)
            sanitizer_pass = build_pass(options.sanitizer)
            sanitizer_ctx = InstrumentationContext.for_configuration(
                options.sanitizer, self.name, self.version, options.opt_level,
                registry=self.defect_registry)
            sanitizer_pass.instrument(unit, analysis, sanitizer_ctx)

        return CompiledBinary(unit=unit, analysis=analysis, compiler=self.name,
                              version=self.version, options=options,
                              sanitizer_pass=sanitizer_pass,
                              sanitizer_context=sanitizer_ctx,
                              source=source,
                              passes_run=artifact.passes_run)


class GccCompiler(SimulatedCompiler):
    """The simulated GCC driver: supports ASan and UBSan (no MSan, §4.1).

    Constructor arguments match :func:`make_compiler` (``version``,
    ``defect_registry``, ``cache``).  ``compile(source,
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


def compiler_class(name: str) -> Type[SimulatedCompiler]:
    """The simulated compiler class called *name*: ``"gcc"`` or ``"llvm"``
    (raises ``KeyError`` otherwise)."""
    try:
        return _COMPILER_CLASSES[name]
    except KeyError as exc:
        raise KeyError(f"unknown compiler {name!r}") from exc


def make_compiler(name: str, version: Optional[int] = None,
                  defect_registry: Optional[Sequence] = None,
                  cache: Optional[CompilationCache] = None) -> SimulatedCompiler:
    """Build a simulated compiler by name.

    Args:
        name: ``"gcc"`` or ``"llvm"`` (raises ``KeyError`` otherwise).
        version: simulated release; defaults to the trunk version.
        defect_registry: seeded sanitizer defects ([] = a correct compiler).
        cache: a shared :class:`~repro.compilers.cache.CompilationCache`;
            by default the compiler gets a private one.

    Example::

        compiler = make_compiler("gcc", defect_registry=[])
        result = compiler.compile("int main() { return 0; }",
                                  opt_level="-O2", sanitizer="asan").run()
    """
    return compiler_class(name)(version=version,
                                defect_registry=defect_registry, cache=cache)
