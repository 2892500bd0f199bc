"""Probes: "is the finding's behaviour present at this release?"

A probe is the predicate a :class:`~repro.triage.bisector.RevisionBisector`
drives.  Both kinds compile through the shared
:class:`~repro.compilers.cache.CompilationCache`, so the frontend runs once
per program and each optimizer pipeline once per (version, level) — the
bisection's ``O(log versions)`` probes are each a cheap overlay on cached
phases:

* :class:`CrashProbe` — "bad" means the sanitizer stays *silent* on a UB
  program (the campaign's false-negative signal).  The probe recompiles
  the program for one release with the full defect registry and runs it
  through :func:`repro.core.differential.run_cell`, as triage does; the
  window it bisects is the responsible sanitizer defect's active range.
* :class:`MarkerProbe` — "bad" means a semantically dead marker call is
  *retained* by one release's version-aware pipeline (the marker engine's
  missed-optimization / regression signal).  The window is an optimizer
  defect window, or everything before a pass introduction.

Each probe also supplies ``relevant(event)``, the filter the bisector uses
to decide which timeline events may explain that probe's edges.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.compilers.cache import CompilationCache
from repro.core.differential import TestConfig, detected, run_cell, verdict_of
from repro.core.ub_types import UBType, detects
from repro.markers.instrument import MarkedProgram
from repro.markers.oracle import EliminationOracle, MarkerConfig
from repro.optim.pipelines import OptimizerDefect, effective_pass_names
from repro.sanitizers.defects import Defect, default_defects
from repro.triage.events import PASS_INTRODUCED_EVENT, RevisionEvent

DEFAULT_MAX_STEPS = 200_000


class CrashProbe:
    """Bad ⇔ the sanitizer misses *ub_type* in *source* at a release."""

    def __init__(self, source: str, ub_type: UBType, compiler: str,
                 sanitizer: str, opt_level: str,
                 registry: Optional[Sequence[Defect]] = None,
                 cache: Optional[CompilationCache] = None,
                 max_steps: int = DEFAULT_MAX_STEPS) -> None:
        self.source = source
        self.ub_type = ub_type
        self.compiler = compiler
        self.sanitizer = sanitizer
        self.opt_level = opt_level
        self.registry = list(registry) if registry is not None else default_defects()
        self.cache = cache if cache is not None else CompilationCache()
        self.max_steps = max_steps

    def __call__(self, version: int) -> bool:
        verdict = verdict_of(run_cell(
            self.cache, self.source,
            TestConfig(self.compiler, self.sanitizer, self.opt_level),
            self.registry, self.max_steps, version=version).result)
        # A program that does not compile hides no UB: not bad.
        return verdict is not None and not detected(verdict, self.ub_type)

    def relevant(self, event: RevisionEvent) -> bool:
        """Only sanitizer defects matching this probe's sanitizer, level
        and UB type can explain a silent-sanitizer window."""
        defect = event.payload
        if not isinstance(defect, Defect):
            return False
        if defect.sanitizer != self.sanitizer:
            return False
        if defect.opt_levels and self.opt_level not in defect.opt_levels:
            return False
        return any(detects(self.ub_type, kind) for kind in defect.ub_kinds)


class MarkerProbe:
    """Bad ⇔ *marker_name* survives a release's version-aware pipeline."""

    def __init__(self, source: str, marker_name: str, compiler: str,
                 opt_level: str,
                 oracle: Optional[EliminationOracle] = None,
                 cache: Optional[CompilationCache] = None) -> None:
        self.marker_name = marker_name
        self.compiler = compiler
        self.opt_level = opt_level
        self.oracle = oracle if oracle is not None \
            else EliminationOracle(cache=cache)
        # Scanning with the marker's own name as prefix finds exactly it,
        # whatever prefix the original instrumentation used.
        self._marked = MarkedProgram(source=source, base_source=source,
                                     sites=(), prefix=marker_name)

    def __call__(self, version: int) -> bool:
        outcome = self.oracle.compile_one(
            self._marked, MarkerConfig(compiler=self.compiler,
                                       version=version,
                                       opt_level=self.opt_level))
        return self.marker_name in outcome.retained

    def relevant(self, event: RevisionEvent) -> bool:
        """Optimizer-defect windows at this level, and introductions of
        passes that run in this level's pipeline, explain retention."""
        if isinstance(event.payload, OptimizerDefect):
            return self.opt_level in event.payload.opt_levels
        if event.kind == PASS_INTRODUCED_EVENT:
            return event.subject in effective_pass_names(self.compiler,
                                                         self.opt_level)
        return False
