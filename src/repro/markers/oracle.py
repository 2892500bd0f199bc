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
  (compiler, version, opt-pipeline) configuration?  Each config is
  optimized with its version-aware pipeline, and the emitted unit is
  scanned for surviving marker calls.

A survey asks the shared :class:`~repro.compilers.cache.CompilationCache`
for every distinct *effective pipeline* — (compiler, opt level, pass
list) — of its configs in one request, so the frontend runs once per
program and the missing pipelines run as one
:func:`~repro.optim.passes.run_pipelines` walk, in which the steps their
schedules share run once.  It scans each distinct emitted unit once and
hands every config of a pipeline that outcome: releases between which no
pass was introduced and no defect window opened or closed emit the same
unit.  This is what makes full config matrices affordable (see
``benchmarks/test_marker_throughput.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compilers.cache import CompilationCache
from repro.compilers.compiler import frontend_master, optimized_masters
from repro.compilers.versions import version_label
from repro.markers.instrument import MarkedProgram, marker_calls
from repro.optim.passes import PassPipeline
from repro.optim.pipelines import pipeline_for
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
    """Runs marked programs (liveness) and optimizes them across configs
    (elimination) through one :class:`~repro.compilers.cache.CompilationCache`;
    it builds no compiler driver."""

    def __init__(self, cache: Optional[CompilationCache] = None,
                 max_steps: int = DEFAULT_MAX_STEPS) -> None:
        self.cache = cache if cache is not None else CompilationCache()
        self.max_steps = max_steps

    # -- liveness ---------------------------------------------------------------

    def liveness(self, marked: MarkedProgram, analyzed=None
                 ) -> Tuple[Optional[Tuple[str, ...]], int]:
        """The sequence of marker calls the reference execution performs,
        or ``None`` when that execution does not end with status ``ok``,
        and the number of steps the execution took.

        The un-optimized instrumented program is interpreted directly;
        marker calls are recorded through the VM call hook in execution
        order (duplicates included — the equivalence property suite
        compares whole sequences).  A run that hits the step budget (a
        loop that never ends) or fails leaves markers unreached that are
        not dead, so it yields ``None`` and no caller may call any marker
        dead from it.  The step count lets the marker engine validate the
        seed under the markers with this same run (see
        :meth:`~repro.markers.engine.MarkerEngine._marked_seed`).  The run
        reads the cache's analyzed frontend master
        (:func:`~repro.compilers.compiler.frontend_master`), shared with
        every build of the source; *analyzed*, that ``(unit, sema)`` pair,
        saves the lookup when the caller already holds it — the reduction
        predicate's hot path.
        """
        unit, sema = analyzed if analyzed is not None \
            else frontend_master(self.cache, marked.source)
        reached: List[str] = []
        with telemetry.stage("oracle", kind="liveness"):
            result = run_program(unit, sema, max_steps=self.max_steps,
                                 call_hook=lambda name: reached.append(name)
                                 if name.startswith(marked.prefix) else None)
        return (tuple(reached) if result.status == "ok" else None,
                result.steps)

    def live_set(self, marked: MarkedProgram) -> Optional[frozenset]:
        """The set of markers the reference execution reaches (``None``
        when it does not finish)."""
        reached, _ = self.liveness(marked)
        return frozenset(reached) if reached is not None else None

    # -- elimination ------------------------------------------------------------

    def survey(self, marked: MarkedProgram,
               configs: Sequence[MarkerConfig]) -> Dict[MarkerConfig, MarkerOutcome]:
        """Compile *marked* under every config; map each to its outcome.

        Each config maps to its key, (compiler, opt level, effective pass
        list), and its version-aware pipeline.  One
        :func:`~repro.compilers.compiler.optimized_masters` request asks
        for every distinct key: the missing ones are optimized in one
        :func:`~repro.optim.passes.run_pipelines` walk from a clone of the
        frontend master, so steps their schedules share run once, and an
        empty schedule's build is the master itself.  Each distinct
        emitted unit is scanned once, and each config gets its key's
        outcome under its own config.  The number of distinct keys is
        added to the ``marker.compiles`` counter.  A source that does not
        parse or analyze raises ``CompilationError``.
        """
        keys: Dict[MarkerConfig, tuple] = {}
        pipelines: Dict[tuple, PassPipeline] = {}
        for config in configs:
            pipeline = pipeline_for(config.compiler, config.opt_level,
                                    config.version)
            key = (config.compiler, config.opt_level,
                   tuple(pipeline.pass_names))
            keys[config] = key
            pipelines.setdefault(key, pipeline)
        with telemetry.stage("oracle", kind="survey", configs=len(configs)):
            artifacts = dict(zip(pipelines, optimized_masters(
                self.cache, marked.source, pipelines)))
            scans: Dict[int, frozenset] = {}
            outcomes = {}
            for config, key in keys.items():
                artifact = artifacts[key]
                if id(artifact) not in scans:
                    scans[id(artifact)] = frozenset(
                        marker_calls(artifact.unit, marked.prefix))
                outcomes[config] = MarkerOutcome(
                    config=config, retained=scans[id(artifact)],
                    pipeline=key[2], passes_run=artifact.passes_run)
        telemetry.inc("marker.compiles", len(pipelines))
        return outcomes

    def compile_one(self, marked: MarkedProgram,
                    config: MarkerConfig) -> MarkerOutcome:
        """The one-config :meth:`survey`: compile under *config* and scan
        the emitted unit for markers."""
        return self.survey(marked, [config])[config]
