"""The output of a simulated compilation: a runnable "binary".

A :class:`CompiledBinary` bundles the optimized + instrumented AST, its
semantic information, the sanitizer runtime configuration and the debug
metadata (source line/offset information is carried on the AST nodes, which
is what ``-g`` provides in the real toolchain).  Calling :meth:`run`
executes it on the VM and returns an
:class:`~repro.vm.errors.ExecutionResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.cdsl import ast_nodes as ast
from repro.cdsl.sema import SemanticInfo
from repro.compilers.cache import OptimizedArtifact
from repro.compilers.options import CompileOptions
from repro.vm.errors import ExecutionResult
from repro.vm.interpreter import DEFAULT_MAX_STEPS, Interpreter


@dataclass
class CompiledBinary:
    """A compiled program plus everything needed to execute it.

    Produced by ``SimulatedCompiler.compile``; ``run(max_steps=...)``
    interprets the instrumented AST on the VM and returns an
    :class:`~repro.vm.errors.ExecutionResult` (exit code or sanitizer
    report, crash site and executed-site set).

    ``analysis`` is where :attr:`sema` comes from.  A binary compiled
    without a sanitizer holds the compiler's
    :class:`~repro.compilers.cache.CompilationCache` optimized master:
    ``unit`` is the master's unit and ``analysis`` its
    :class:`~repro.compilers.cache.OptimizedArtifact`, which analyzes the
    unit when :meth:`run` or a ``sema`` read first needs it.  Every such
    binary of one master sees the same ``sema``.  Read them, never mutate
    them.  A sanitizer binary holds its own instrumented copy of the
    master and the master's :class:`~repro.cdsl.sema.SemanticInfo`.
    """

    unit: ast.TranslationUnit
    analysis: Union[SemanticInfo, OptimizedArtifact]
    compiler: str
    version: int
    options: CompileOptions
    sanitizer_pass: Optional[object] = None       # SanitizerPass instance
    sanitizer_context: Optional[object] = None    # InstrumentationContext
    source: str = ""
    passes_run: tuple = ()
    metadata: dict = field(default_factory=dict)

    @property
    def sema(self) -> SemanticInfo:
        """The unit's semantic information; a cached optimized master's
        analysis runs on the first read and raises its
        ``CompilationError`` when it fails."""
        analysis = self.analysis
        if isinstance(analysis, OptimizedArtifact):
            return analysis.sema
        return analysis

    @property
    def label(self) -> str:
        sanitizer = self.options.sanitizer or "nosan"
        return (f"{self.compiler}-{self.version} {self.options.opt_level} "
                f"{sanitizer}")

    def build_runtime(self):
        """Create a fresh sanitizer runtime for one execution."""
        if self.sanitizer_pass is None or self.sanitizer_context is None:
            return None
        return self.sanitizer_pass.build_runtime(self.sanitizer_context)

    def run(self, max_steps: int = DEFAULT_MAX_STEPS,
            site_callback=None) -> ExecutionResult:
        """Execute the binary on the VM and return the result.

        ``site_callback`` (if given) receives every executed
        ``(line, offset)`` site in execution order — what the
        :class:`~repro.vm.trace.Debugger` steps through.
        """
        interpreter = Interpreter(self.unit, self.sema,
                                  runtime=self.build_runtime(),
                                  max_steps=max_steps,
                                  site_callback=site_callback)
        return interpreter.run()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledBinary {self.label}>"
