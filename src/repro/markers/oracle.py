"""The elimination oracle: which markers does each configuration keep?

Two questions are answered about a :class:`~repro.markers.instrument.MarkedProgram`:

* **liveness** — which markers does the program's execution actually reach?
  The instrumented source is interpreted directly (no optimizer), with the
  VM's call hook recording every marker call in order.  Generated seed
  programs are closed and deterministic, so this single run *is* the
  program's behaviour: an unreached marker is semantically dead — if the
  run finishes.  A run that exhausts its step budget (or fails) proves
  nothing dead, so it has no liveness at all.
* **elimination** — which markers survive compilation under a
  (compiler, version, opt-pipeline) configuration?  Each config is compiled
  through the normal driver with version-aware pipelines, and the emitted
  unit is scanned for surviving marker calls.

A survey compiles and scans once per distinct *effective pipeline* —
(compiler, opt level, pass list) — and hands every other config of that
pipeline the same outcome: releases between which no pass was introduced
and no defect window opened or closed emit the same unit.  All compiles of
one oracle share a :class:`~repro.compilers.cache.CompilationCache`, so the
frontend runs once per program and the optimizer once per effective
pipeline, which is what makes full config matrices affordable (see
``benchmarks/test_marker_throughput.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compilers.cache import CompilationCache, source_fingerprint
from repro.compilers.compiler import SimulatedCompiler, make_compiler
from repro.compilers.versions import version_label
from repro.cdsl.parser import parse_program
from repro.markers.instrument import MarkedProgram, marker_calls
from repro.optim.pipelines import effective_pass_names
from repro.telemetry import runtime as telemetry
from repro.vm.interpreter import run_program

DEFAULT_MAX_STEPS = 150_000


@dataclass(frozen=True, order=True)
class MarkerConfig:
    """One surveyed configuration: compiler, release, optimization level."""

    compiler: str
    version: int
    opt_level: str

    @property
    def label(self) -> str:
        return f"{version_label(self.compiler, self.version)} {self.opt_level}"


@dataclass(frozen=True)
class MarkerOutcome:
    """What one configuration did to a marked program.

    ``retained`` holds the markers surviving in the emitted unit;
    ``pipeline`` the effective (version-aware) pass names of the config;
    ``passes_run`` the passes that actually changed the program.
    """

    config: MarkerConfig
    retained: frozenset
    pipeline: Tuple[str, ...]
    passes_run: Tuple[str, ...]

    def eliminated(self, marked: MarkedProgram) -> frozenset:
        return frozenset(marked.marker_names) - self.retained


class EliminationOracle:
    """Compiles marked programs across configs and classifies each marker."""

    def __init__(self, cache: Optional[CompilationCache] = None,
                 max_steps: int = DEFAULT_MAX_STEPS) -> None:
        self.cache = cache if cache is not None else CompilationCache()
        self.max_steps = max_steps
        self._compilers: Dict[Tuple[str, int], SimulatedCompiler] = {}

    # -- liveness ---------------------------------------------------------------

    def analyzed_unit(self, source_text: str):
        """The analyzed frontend master of *source_text*: ``(unit, sema)``.

        It is the cache's frontend entry, which every compile of the source
        also starts from, so it is shared and must not be mutated;
        liveness and the marker predicate only read it.
        """
        return self.cache.frontend(source_fingerprint(source_text),
                                   lambda: parse_program(source_text))

    def liveness(self, marked: MarkedProgram,
                 analyzed=None) -> Optional[Tuple[str, ...]]:
        """The sequence of marker calls the reference execution performs,
        or ``None`` when that execution does not end with status ``ok``.

        The un-optimized instrumented program is interpreted directly;
        marker calls are recorded through the VM call hook in execution
        order (duplicates included — the equivalence property suite
        compares whole sequences).  A run that hits the step budget (a
        loop that never ends) or fails leaves markers unreached that are
        not dead, so it yields ``None`` and no caller may call any marker
        dead from it.  *analyzed* (a ``(unit, sema)`` pair from
        :meth:`analyzed_unit`) saves the cache lookup when the caller
        already holds the master — the reduction predicate's hot path.
        """
        unit, sema = analyzed if analyzed is not None \
            else self.analyzed_unit(marked.source)
        reached: List[str] = []
        with telemetry.stage("oracle", kind="liveness"):
            result = run_program(unit, sema, max_steps=self.max_steps,
                                 call_hook=lambda name: reached.append(name)
                                 if name.startswith(marked.prefix) else None)
        return tuple(reached) if result.status == "ok" else None

    def live_set(self, marked: MarkedProgram) -> Optional[frozenset]:
        """The set of markers the reference execution reaches (``None``
        when it does not finish)."""
        reached = self.liveness(marked)
        return frozenset(reached) if reached is not None else None

    # -- elimination ------------------------------------------------------------

    def survey(self, marked: MarkedProgram,
               configs: Sequence[MarkerConfig]) -> Dict[MarkerConfig, MarkerOutcome]:
        """Compile *marked* under every config; map each to its outcome.

        One :meth:`compile_one` per distinct (compiler, opt level,
        effective pass list); the other configs of that pipeline get its
        outcome under their own config.  The number of compiles is added
        to the ``marker.compiles`` counter.
        """
        outcomes: Dict[MarkerConfig, MarkerOutcome] = {}
        compiled: Dict[tuple, MarkerOutcome] = {}
        with telemetry.stage("oracle", kind="survey", configs=len(configs)):
            for config in configs:
                key = (config.compiler, config.opt_level, _pipeline(config))
                outcome = compiled.get(key)
                if outcome is None:
                    outcome = compiled[key] = self.compile_one(marked, config)
                else:
                    outcome = replace(outcome, config=config)
                outcomes[config] = outcome
        telemetry.inc("marker.compiles", len(compiled))
        return outcomes

    def compile_one(self, marked: MarkedProgram,
                    config: MarkerConfig) -> MarkerOutcome:
        """Compile under one config and scan the emitted unit for markers."""
        compiler = self._compiler_for(config.compiler, config.version)
        binary = compiler.compile(marked.source, opt_level=config.opt_level)
        retained = frozenset(marker_calls(binary.unit, marked.prefix))
        return MarkerOutcome(config=config, retained=retained,
                             pipeline=_pipeline(config),
                             passes_run=tuple(binary.passes_run))

    # -- internals --------------------------------------------------------------

    def _compiler_for(self, name: str, version: int) -> SimulatedCompiler:
        key = (name, version)
        compiler = self._compilers.get(key)
        if compiler is None:
            compiler = make_compiler(name, version=version,
                                     defect_registry=[], cache=self.cache,
                                     versioned_pipelines=True)
            self._compilers[key] = compiler
        return compiler


def _pipeline(config: MarkerConfig) -> Tuple[str, ...]:
    """The effective (version-aware) pass names of *config*: the pipeline
    the compiler keys its optimized artifact on."""
    return tuple(effective_pass_names(config.compiler, config.opt_level,
                                      config.version))
