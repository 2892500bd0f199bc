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

:class:`CompilationCache` memoizes the first two phases, keyed by a source
fingerprint, so an N-config differential matrix costs 1 parse +
O(opt levels) optimizations instead of N full compiles.  Every build reads
through a cache, and outside this module only two functions of
:mod:`repro.compilers.compiler` call its layers:
:func:`~repro.compilers.compiler.frontend_master` and
:func:`~repro.compilers.compiler.optimized_masters`.  One request to the
optimized layer may ask for several keys of a source: a compile asks for
one, and a marker survey asks for all its pipelines at once and builds the
missing ones in one :func:`~repro.optim.passes.run_pipelines` walk, which
runs the steps their schedules share once.  Cached units are immutable
masters.  A frontend master is analyzed once, when it is built,
and shared read-only: UB-program validation, marker liveness and
reduction screening read it, and the optimizer works on a
:func:`~repro.cdsl.visitor.fast_clone` that shares its annotations.  An
optimized master (:class:`OptimizedArtifact`) is analyzed on first
demand, because the marker survey only scans its calls: a sanitizer
overlay asks before it instruments a ``fast_clone`` that shares the
master's annotations, and a sanitizer-free binary asks when it runs.  An
empty schedule (llvm -O0) builds nothing: its optimized master is the
frontend master, with the frontend's analysis.
Every produced binary behaves bit-identically to a compile that shares
nothing: parse, analyze, pipeline, analyze, instrument.

The two layers keep what their readers reuse.  Frontend masters stay in
an LRU of ``max_entries`` sources: fuzz triage and its
:class:`~repro.triage.CrashProbe` (both through
:func:`~repro.core.differential.run_cell`) come back to a program's
master long after it was built.  The optimized layer holds the builds
of one source, the one optimized most recently, and optimizing another
source drops them.  Logging every lookup showed why that is enough: all optimized hits
of the bench ``fuzz`` campaign (82 of 521 lookups) reuse a build at most
3 builds old and of the same source, within one program's matrix or its
triage, and the ``markers`` survey never hits (0 of the 640 keys its 80
requests ask for).  A larger layer
keeps dead masters alive, and every full garbage collection walks them.

A compiler, tester, triager, oracle or reducer handed no cache keeps a
private one.  A campaign hands one cache to its generator, compilers,
triage and reduction, and each orchestrator pool worker owns the cache of
its process-local campaign (the cache is additionally lock-protected so
threaded callers cannot corrupt it).
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cdsl import ast_nodes as ast
from repro.cdsl.sema import SemanticInfo, analyze
from repro.telemetry import runtime as telemetry
from repro.utils.errors import CompilationError

logger = logging.getLogger(__name__)

#: Default bound of the frontend layer, in sources.  An entry is one
#: analyzed AST (a few hundred KB for csmith-sized programs), so the
#: default keeps the layer within tens of MB even for long-running
#: campaign workers.  The optimized layer is bounded by source instead:
#: it holds one source's builds.
DEFAULT_MAX_ENTRIES = 128

#: A frontend-layer entry: the analyzed master unit of one source text and
#: its semantic information.
FrontendArtifact = Tuple[ast.TranslationUnit, SemanticInfo]

#: An optimized-layer key: (compiler, opt level, effective pass names).
OptimizedKey = Tuple[str, str, Tuple[str, ...]]

#: One key's build: the optimized unit, the names of the passes that
#: changed it, and its semantic information if the unit is already
#: analyzed (``None`` otherwise).
Build = Tuple[ast.TranslationUnit, tuple, Optional[SemanticInfo]]


class OptimizedArtifact:
    """An optimized-layer entry: the master unit one pipeline produced, the
    names of the passes that changed it, and its semantic information,
    computed on first demand unless the build brought it.

    :attr:`sema` analyzes the unit the first time it is read, exactly
    once, under the artifact's lock, and returns the same
    :class:`~repro.cdsl.sema.SemanticInfo` on every later read.  An
    analysis failure raises ``CompilationError("<compiler>: semantic
    error: ...")`` to the reader, and the next read tries again.  A build
    of an empty schedule is the analyzed frontend master itself and
    brings the master's sema.  The unit is shared read-only, like its
    analysis.
    """

    __slots__ = ("unit", "passes_run", "compiler", "_sema", "_lock")

    def __init__(self, unit: ast.TranslationUnit, passes_run: tuple,
                 compiler: str, sema: Optional[SemanticInfo] = None) -> None:
        self.unit = unit
        self.passes_run = passes_run
        self.compiler = compiler
        self._sema = sema
        self._lock = threading.Lock()

    @property
    def sema(self) -> SemanticInfo:
        sema = self._sema
        if sema is None:
            with self._lock:
                sema = self._sema
                if sema is None:
                    try:
                        sema = analyze(self.unit)
                    except Exception as exc:
                        raise CompilationError(
                            f"{self.compiler}: semantic error: {exc}") from exc
                    self._sema = sema
        return sema


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
    """Fingerprint-keyed cache of frontend and optimizer artifacts.

    ``frontend(...)`` and ``optimized(...)`` both take a *builder* callable
    producing the artifacts of a miss; an artifact is stored as an
    immutable master and returned as-is — callers must :func:`fast_clone`
    it before mutating it (``SimulatedCompiler`` does).  *max_entries* bounds the
    frontend layer; the optimized layer holds the builds of the source
    optimized most recently, and ``evictions`` counts the frontend masters
    the LRU drops plus the builds a new source drops.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self._lock = threading.Lock()
        self._frontend = _LRU(max_entries)
        self._optimized_source: Optional[str] = None
        self._optimized: dict = {}
        self._optimized_evictions = 0
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

    def optimized(self, fingerprint: str, keys: Sequence[OptimizedKey],
                  builder: Callable[[], Sequence[Build]]
                  ) -> List[OptimizedArtifact]:
        """The optimized masters of one source under several (compiler,
        opt level, effective pass list) *keys*, as one
        :class:`OptimizedArtifact` per key, in order.

        When any key is missing, *builder* is called once, without
        arguments, and returns one ``(unit, passes_run, sema)`` build per
        key, in order; ``sema`` is ``None`` unless the unit is already
        analyzed.  The cache stores the builds of the missing keys, as
        artifacts that analyze their unit on first demand, and keys whose
        builds are the same unit (identical schedules) share one artifact.
        A stored key keeps its artifact and its build is dropped: callers
        ask for keys that hit or miss together (one compile's key, one
        survey's pipelines).  Hits and misses are counted per key.  Storing builds of another
        source than the layer holds drops that source's builds first.  The
        key is the pass list, not the release: no pass reads the release
        and the iteration count depends only on compiler and level, so
        every release running the same passes — flat pipelines always,
        version-aware ones between pass introductions and defect windows —
        shares one artifact.
        """
        with self._lock:
            stored = (self._optimized
                      if fingerprint == self._optimized_source else {})
            artifacts = [stored.get(key) for key in keys]
            missing = [index for index, artifact in enumerate(artifacts)
                       if artifact is None]
            hits = len(keys) - len(missing)
            self.hits += hits
        if hits:
            telemetry.inc("cache.hits", hits)
        if not missing:
            return artifacts
        with telemetry.stage(
                "optimize",
                compiler=",".join(dict.fromkeys(keys[i][0] for i in missing)),
                opt=",".join(dict.fromkeys(keys[i][1] for i in missing))):
            builds = builder()
        shared: Dict[int, OptimizedArtifact] = {}
        for index in missing:
            unit, passes_run, sema = builds[index]
            artifact = shared.get(id(unit))
            if artifact is None:
                artifact = shared[id(unit)] = OptimizedArtifact(
                    unit, tuple(passes_run), keys[index][0], sema)
            artifacts[index] = artifact
        with self._lock:
            self.misses += len(missing)
            evicted = 0
            if fingerprint != self._optimized_source:
                evicted = len(self._optimized)
                self._optimized_evictions += evicted
                self._optimized = {}
                self._optimized_source = fingerprint
            for index in missing:
                self._optimized[keys[index]] = artifacts[index]
        self._note_miss(evicted, len(missing))
        return artifacts

    @staticmethod
    def _note_miss(evicted: int, misses: int = 1) -> None:
        registry = telemetry.metrics()
        if registry is not None:
            registry.inc("cache.misses", misses)
            if evicted:
                registry.inc("cache.evictions", evicted)

    # -- introspection --------------------------------------------------------

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._frontend.evictions + self._optimized_evictions

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "frontend_entries": len(self._frontend),
                "optimized_entries": len(self._optimized),
                "evictions": (self._frontend.evictions
                              + self._optimized_evictions),
            }

    def clear(self) -> None:
        logger.debug("clearing compilation cache (%d hits / %d misses)",
                     self.hits, self.misses)
        with self._lock:
            self._frontend = _LRU(self._frontend.max_entries)
            self._optimized_source = None
            self._optimized = {}
            self._optimized_evictions = 0
            self.hits = 0
            self.misses = 0
