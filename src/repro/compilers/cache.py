"""Shared compilation cache (diopter-style artifact reuse).

Differential testing compiles the *same* source text under many
(compiler, sanitizer, optimization level) configurations, but only two of
the pipeline's phases actually depend on the configuration:

* the **frontend** (parse + semantic analysis) depends only on the
  source text;
* the **optimizer pipeline** depends on (source, compiler, opt level,
  effective pass list) — releases running the same passes share one
  artifact, flat and version-aware pipelines alike;
* the **sanitizer instrumentation** is a per-configuration overlay applied
  to a copy of the optimized unit.

:class:`CompilationCache` memoizes the first two phases in two bounded LRU
layers keyed by a source fingerprint, so an N-config differential matrix
costs 1 parse + O(opt levels) optimizations instead of N full compiles.
Cached units are immutable masters, each stored with its
:class:`~repro.cdsl.sema.SemanticInfo`.  A frontend master is analyzed
once, when it is built, and shared read-only: UB-program validation,
marker liveness and reduction screening read it, and the optimizer works
on a :func:`~repro.cdsl.visitor.fast_clone` that shares its annotations.
An optimized master is analyzed once more after its pipeline:
sanitizer-free binaries share it read-only, and a sanitizer overlay
instruments a ``fast_clone`` that shares the master's annotations.  Every
produced binary behaves bit-identically to an uncached compile.

The cache is shared per process: :class:`~repro.core.differential.DifferentialTester`
and the campaign attach one cache to all their compilers, and each
orchestrator pool worker owns the cache of its process-local campaign (the
cache is additionally lock-protected so threaded callers cannot corrupt it).
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from typing import Callable, Tuple

from repro.cdsl import ast_nodes as ast
from repro.cdsl.sema import SemanticInfo, analyze
from repro.telemetry import runtime as telemetry

logger = logging.getLogger(__name__)

#: Default bound for each LRU layer.  An entry is one parsed/optimized AST
#: (a few hundred KB for csmith-sized programs), so the default keeps the
#: cache within tens of MB even for long-running campaign workers.
DEFAULT_MAX_ENTRIES = 128

#: A frontend-layer entry: the analyzed master unit of one source text and
#: its semantic information.
FrontendArtifact = Tuple[ast.TranslationUnit, SemanticInfo]

#: An optimized-layer entry: the analyzed master unit, its semantic
#: information and the names of the passes that changed it.
OptimizedArtifact = Tuple[ast.TranslationUnit, SemanticInfo, tuple]


def source_fingerprint(source_text: str) -> str:
    """Stable fingerprint of one source program."""
    return hashlib.sha256(source_text.encode("utf-8")).hexdigest()


class _LRU:
    """A tiny bounded LRU map (thread-safety provided by the owning cache)."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self.evictions = 0

    def get(self, key):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)


class CompilationCache:
    """Bounded, fingerprint-keyed cache of frontend and optimizer artifacts.

    ``frontend(...)`` and ``optimized(...)`` both take a *builder* callable
    producing the artifact on a miss; the artifact is stored as an immutable
    master and returned as-is — callers must :func:`fast_clone` it before
    mutating it (``SimulatedCompiler`` does).
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self._lock = threading.Lock()
        self._frontend = _LRU(max_entries)
        self._optimized = _LRU(max_entries)
        self.hits = 0
        self.misses = 0

    # -- layers ---------------------------------------------------------------

    def frontend(self, fingerprint: str,
                 builder: Callable[[], ast.TranslationUnit]) -> FrontendArtifact:
        """The analyzed frontend master of one source text: ``(unit, sema)``.

        On a miss, *builder* parses the source and the cache analyzes the
        unit before storing it, so no caller ever sees a half-analyzed
        master.  A parse or analysis failure propagates and stores nothing.
        The master and its sema are shared read-only.
        """
        with self._lock:
            entry = self._frontend.get(fingerprint)
            if entry is not None:
                self.hits += 1
                telemetry.inc("cache.hits")
                return entry
        with telemetry.stage("frontend"):
            unit = builder()
            entry = (unit, analyze(unit))
        with self._lock:
            self.misses += 1
            evictions_before = self._frontend.evictions
            self._frontend.put(fingerprint, entry)
            evicted = self._frontend.evictions - evictions_before
        self._note_miss(evicted)
        return entry

    def optimized(self, fingerprint: str, compiler: str, opt_level: str,
                  pass_names: Tuple[str, ...],
                  builder: Callable[[], OptimizedArtifact]
                  ) -> OptimizedArtifact:
        """The analyzed optimized master of one (source, compiler, opt
        level, effective pass list): ``(unit, sema, passes_run)``.

        The key is the pass list, not the release: no pass reads the
        release and the iteration count depends only on compiler and level,
        so every release running the same passes — flat pipelines always,
        version-aware ones between pass introductions and defect windows —
        shares one artifact.
        """
        key = (fingerprint, compiler, opt_level, pass_names)
        with self._lock:
            entry = self._optimized.get(key)
            if entry is not None:
                self.hits += 1
                telemetry.inc("cache.hits")
                return entry
        with telemetry.stage("optimize", compiler=compiler, opt=opt_level):
            entry = builder()
        with self._lock:
            self.misses += 1
            evictions_before = self._optimized.evictions
            self._optimized.put(key, entry)
            evicted = self._optimized.evictions - evictions_before
        self._note_miss(evicted)
        return entry

    @staticmethod
    def _note_miss(evicted: int) -> None:
        registry = telemetry.metrics()
        if registry is not None:
            registry.inc("cache.misses")
            if evicted:
                registry.inc("cache.evictions", evicted)

    # -- introspection --------------------------------------------------------

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._frontend.evictions + self._optimized.evictions

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "frontend_entries": len(self._frontend),
                "optimized_entries": len(self._optimized),
                "evictions": (self._frontend.evictions
                              + self._optimized.evictions),
            }

    def clear(self) -> None:
        logger.debug("clearing compilation cache (%d hits / %d misses)",
                     self.hits, self.misses)
        with self._lock:
            self._frontend = _LRU(self._frontend.max_entries)
            self._optimized = _LRU(self._optimized.max_entries)
            self.hits = 0
            self.misses = 0
