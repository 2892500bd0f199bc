"""The marker differential engine: missed optimizations and regressions.

For each seed index the engine generates a UB-free seed program, plants
liveness markers (:mod:`repro.markers.instrument`), computes the reference
liveness and surveys the full (compiler, version, opt-pipeline) matrix
through the elimination oracle, then diffs the outcomes into findings:

* **missed-optimization** — a marker the reference execution never reaches,
  inside a function it *does* enter, retained by the newest surveyed
  release at ``-O2``/``-O3``: the optimizer had every right to delete it
  and didn't;
* **regression** — a marker eliminated by release N-1 but retained by
  release N of the same compiler at the same level: the pipeline got worse
  (our seeded :class:`~repro.optim.pipelines.OptimizerDefect` windows are
  rediscovered exactly this way);
* **unsound-elimination** — a marker the execution reaches but some
  configuration deleted: a miscompilation.  The semantic-equivalence
  property suite (``tests/properties``) pins this class to be empty for
  the shipped pipelines.

Findings deduplicate into buckets keyed by (kind, compiler, marker site,
responsible pass); the first finding per bucket (in seed order) is the
representative, so serial and sharded campaigns report identical buckets.

Every step of :meth:`MarkerEngine.run_seed` is a pure function of
``(config, seed_index)``, which is what lets the orchestrator's worker
pool shard seeds while staying bit-identical to a serial run.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.compilers.versions import all_versions
from repro.markers.instrument import (
    CONTEXT_FN_ENTRY,
    CONTEXT_IF_ELSE,
    CONTEXT_IF_THEN,
    CONTEXT_LOOP_BODY,
    DEFAULT_MARKER_PREFIX,
    MarkedProgram,
    MarkerPlanter,
    MarkerSite,
)
from repro.markers.oracle import (
    DEFAULT_MAX_STEPS,
    EliminationOracle,
    MarkerConfig,
    MarkerOutcome,
)
from repro.seedgen.config import GeneratorConfig
from repro.seedgen.csmith import CsmithGenerator
from repro.telemetry import runtime as telemetry
from repro.utils.errors import GenerationError

logger = logging.getLogger(__name__)

MISSED_OPTIMIZATION = "missed-optimization"
REGRESSION = "regression"
UNSOUND_ELIMINATION = "unsound-elimination"

#: The optimization levels where a retained dead marker counts as a missed
#: optimization (nobody expects -O0/-O1 to be thorough).
MISSED_OPT_LEVELS = ("-O2", "-O3")

#: Which pass *should* have eliminated a dead marker in each context, used
#: when no pipeline diff is available to attribute a missed optimization.
_CONTEXT_RESPONSIBLE = {
    CONTEXT_IF_THEN: "constant-fold",
    CONTEXT_IF_ELSE: "constant-fold",
    CONTEXT_LOOP_BODY: "loop-opts",
    CONTEXT_FN_ENTRY: "dce",
}


@dataclass
class MarkerCampaignConfig:
    """Scale and matrix knobs for one marker campaign.

    The campaign is a pure function of this config: ``num_seeds`` seeds are
    derived from ``rng_seed``, instrumented, and surveyed across
    ``compilers`` × ``versions`` × ``opt_levels`` with version-aware
    optimizer pipelines.
    """

    num_seeds: int = 10
    rng_seed: int = 0
    compilers: Sequence[str] = ("gcc", "llvm")
    opt_levels: Sequence[str] = MISSED_OPT_LEVELS
    #: Releases to survey per compiler; ``None`` = every simulated version
    #: (stable releases plus trunk).
    versions: Optional[Dict[str, Sequence[int]]] = None
    marker_prefix: str = DEFAULT_MARKER_PREFIX
    max_steps: int = DEFAULT_MAX_STEPS

    def versions_for(self, compiler: str) -> List[int]:
        if self.versions is not None and compiler in self.versions:
            return sorted(self.versions[compiler])
        return all_versions(compiler)

    def configs_for(self, compiler: str) -> List[MarkerConfig]:
        return [MarkerConfig(compiler, version, opt_level)
                for version in self.versions_for(compiler)
                for opt_level in self.opt_levels]


@dataclass(frozen=True)
class MarkerFinding:
    """One raw finding, before bucketing."""

    kind: str
    compiler: str
    opt_level: str
    version: int
    marker: MarkerSite
    responsible_pass: str
    seed_index: int
    source: str
    live: bool
    prev_version: Optional[int] = None
    prefix: str = DEFAULT_MARKER_PREFIX

    @property
    def bucket(self) -> tuple:
        """Dedup key: (kind, compiler, marker site, responsible pass)."""
        return (self.kind, self.compiler, self.marker.function,
                self.marker.context, self.marker.name, self.responsible_pass)

    @property
    def bucket_slug(self) -> str:
        parts = [self.kind, self.compiler, self.marker.function,
                 self.marker.context, self.marker.name.strip("_"),
                 self.responsible_pass]
        return "-".join(p.replace("_", "").replace(".", "") for p in parts)

    def describe(self) -> str:
        where = (f"{self.marker.name} ({self.marker.context} in "
                 f"{self.marker.function})")
        if self.kind == REGRESSION:
            return (f"{self.compiler}-{self.version} {self.opt_level} retains "
                    f"{where}, eliminated by {self.compiler}-"
                    f"{self.prev_version} — pass {self.responsible_pass}")
        if self.kind == MISSED_OPTIMIZATION:
            return (f"{self.compiler}-{self.version} {self.opt_level} retains "
                    f"dead {where} — expected {self.responsible_pass}")
        return (f"{self.compiler}-{self.version} {self.opt_level} eliminated "
                f"LIVE {where} — miscompilation")


@dataclass
class MarkerBucket:
    """One deduplicated finding bucket with its representative."""

    representative: MarkerFinding
    count: int = 1
    opt_levels: List[str] = field(default_factory=list)
    versions: List[int] = field(default_factory=list)


@dataclass
class ConfigSurvival:
    """Marker-survival counters for one configuration across a campaign."""

    planted: int = 0
    retained: int = 0
    dead_retained: int = 0
    pipeline: Tuple[str, ...] = ()

    @property
    def eliminated(self) -> int:
        return self.planted - self.retained

    @property
    def survival_rate(self) -> float:
        return self.retained / self.planted if self.planted else 0.0


@dataclass
class MarkerBatch:
    """Everything one seed work-item produced (the unit of sharding)."""

    seed_index: int
    generated: bool
    planted: int = 0
    live_markers: int = 0
    findings: List[MarkerFinding] = field(default_factory=list)
    survival: Dict[str, ConfigSurvival] = field(default_factory=dict)
    configs_surveyed: int = 0
    duration_seconds: float = 0.0
    #: Telemetry captured while this seed ran (see
    #: :func:`repro.telemetry.seed_scope`); ``None`` when disabled.
    telemetry: Optional[dict] = None

    @property
    def programs_tested(self) -> int:
        return self.configs_surveyed

    @property
    def finding_count(self) -> int:
        """This seed's raw findings."""
        return len(self.findings)


@dataclass
class MarkerCampaignStats:
    """Aggregate counters of one marker campaign."""

    seeds_used: int = 0
    markers_planted: int = 0
    live_markers: int = 0
    configs_surveyed: int = 0
    raw_findings: int = 0
    findings_by_kind: Dict[str, int] = field(default_factory=dict)
    duration_seconds: float = 0.0


@dataclass
class MarkerCampaignResult:
    """Merged output of a marker campaign: stats, buckets, survival."""

    config: MarkerCampaignConfig
    stats: MarkerCampaignStats
    buckets: Dict[tuple, MarkerBucket]
    survival: Dict[str, ConfigSurvival]

    @property
    def findings(self) -> List[MarkerFinding]:
        """One representative finding per bucket, in discovery order."""
        return [bucket.representative for bucket in self.buckets.values()]

    def findings_of_kind(self, kind: str) -> List[MarkerFinding]:
        return [f for f in self.findings if f.kind == kind]


class MarkerEngine:
    """Drives seeds → marked programs → config matrix → findings."""

    def __init__(self, config: Optional[MarkerCampaignConfig] = None) -> None:
        self.config = config or MarkerCampaignConfig()
        self.seed_generator = CsmithGenerator(
            GeneratorConfig(seed=self.config.rng_seed))
        self.planter = MarkerPlanter(prefix=self.config.marker_prefix)
        self.oracle = EliminationOracle(max_steps=self.config.max_steps)

    # -- public -----------------------------------------------------------------

    def run(self) -> MarkerCampaignResult:
        """Run the campaign in this process: :meth:`collect` over
        :meth:`run_seed` in seed order."""
        return self.collect(self.run_seed(index)
                            for index in range(self.config.num_seeds))

    def analyze_source(self, source: str, seed_index: int = 0
                       ) -> Tuple[MarkedProgram, List[MarkerFinding]]:
        """Instrument and classify one externally-supplied program.

        The gallery tests and examples use this to run the engine over
        handcrafted sources instead of generated seeds; the survey and
        classification are :meth:`run_seed`'s own.
        """
        marked = self.planter.plant(source, seed_index=seed_index)
        reached = self.oracle.liveness(marked)
        if reached is None:
            return marked, []
        findings, _, _ = self._survey(marked, frozenset(reached))
        return marked, findings

    def run_seed(self, seed_index: int) -> MarkerBatch:
        """Process one seed: generate, instrument, survey, classify."""
        with telemetry.seed_scope(seed_index) as scope:
            with telemetry.span("seed", seed=seed_index):
                batch = self._run_seed(seed_index)
            if scope is not None:
                batch.telemetry = scope.payload()
        return batch

    def _run_seed(self, seed_index: int) -> MarkerBatch:
        start = time.time()
        try:
            with telemetry.stage("generate", seed=seed_index):
                seed = self.seed_generator.generate(seed_index)
        except GenerationError:
            return MarkerBatch(seed_index=seed_index, generated=False,
                               duration_seconds=time.time() - start)
        with telemetry.stage("generate", seed=seed_index, kind="markers"):
            # Plant into the parse the generator validated, not a new one.
            marked = self.planter.plant(seed.analyzed[0],
                                        seed_index=seed_index)
        reached = self.oracle.liveness(marked)
        live = frozenset(reached or ())
        # A reference run that does not finish calls no marker dead, so
        # such a seed is neither surveyed nor classified.
        findings, survival, configs_surveyed = (
            self._survey(marked, live) if reached is not None else ([], {}, 0))
        registry = telemetry.metrics()
        if registry is not None:
            registry.inc("marker.planted", len(marked.sites))
            registry.inc("marker.live", len(live))
            registry.inc("marker.configs", configs_surveyed)
            registry.inc("marker.retained",
                         sum(s.retained for s in survival.values()))
            registry.inc("marker.dead_retained",
                         sum(s.dead_retained for s in survival.values()))
            registry.inc("marker.findings", len(findings))
        logger.debug("seed %d: %d markers, %d findings in %.2fs", seed_index,
                     len(marked.sites), len(findings), time.time() - start)
        return MarkerBatch(seed_index=seed_index, generated=True,
                           planted=len(marked.sites),
                           live_markers=len(live),
                           findings=findings, survival=survival,
                           configs_surveyed=configs_surveyed,
                           duration_seconds=time.time() - start)

    def collect(self, batches: Iterable[MarkerBatch]) -> MarkerCampaignResult:
        """Merge per-seed batches (in seed order) into the campaign result."""
        start = time.time()
        stats = MarkerCampaignStats()
        buckets: Dict[tuple, MarkerBucket] = {}
        survival: Dict[str, ConfigSurvival] = {}
        for batch in batches:
            # The single telemetry merge point, in seed order (the marker
            # twin of FuzzingCampaign.collect).
            telemetry.merge_batch(batch.telemetry)
            if not batch.generated:
                continue
            stats.seeds_used += 1
            stats.markers_planted += batch.planted
            stats.live_markers += batch.live_markers
            stats.configs_surveyed += batch.configs_surveyed
            stats.raw_findings += len(batch.findings)
            for finding in batch.findings:
                stats.findings_by_kind[finding.kind] = (
                    stats.findings_by_kind.get(finding.kind, 0) + 1)
                bucket = buckets.get(finding.bucket)
                if bucket is None:
                    buckets[finding.bucket] = MarkerBucket(
                        representative=finding,
                        opt_levels=[finding.opt_level],
                        versions=[finding.version])
                else:
                    bucket.count += 1
                    if finding.opt_level not in bucket.opt_levels:
                        bucket.opt_levels.append(finding.opt_level)
                    if finding.version not in bucket.versions:
                        bucket.versions.append(finding.version)
            for label, per_config in batch.survival.items():
                merged = survival.setdefault(
                    label, ConfigSurvival(pipeline=per_config.pipeline))
                merged.planted += per_config.planted
                merged.retained += per_config.retained
                merged.dead_retained += per_config.dead_retained
        stats.duration_seconds = time.time() - start
        return MarkerCampaignResult(config=self.config, stats=stats,
                                    buckets=buckets, survival=survival)

    # -- classification ---------------------------------------------------------

    def _survey(self, marked: MarkedProgram, live: frozenset
                ) -> Tuple[List[MarkerFinding], Dict[str, ConfigSurvival], int]:
        """Survey *marked* across every compiler's configs and classify the
        outcomes against the *live* markers: ``(findings, survival per
        config label, configs surveyed)``."""
        findings: List[MarkerFinding] = []
        survival: Dict[str, ConfigSurvival] = {}
        configs_surveyed = 0
        for compiler in self.config.compilers:
            configs = self.config.configs_for(compiler)
            outcomes = self.oracle.survey(marked, configs)
            configs_surveyed += len(configs)
            findings.extend(self._classify(marked, live, outcomes))
            for config, outcome in outcomes.items():
                survival[config.label] = ConfigSurvival(
                    planted=len(marked.sites),
                    retained=len(outcome.retained),
                    dead_retained=len(outcome.retained - live),
                    pipeline=outcome.pipeline)
        return findings, survival, configs_surveyed

    def _classify(self, marked: MarkedProgram, live: frozenset,
                  outcomes: Dict[MarkerConfig, MarkerOutcome]
                  ) -> List[MarkerFinding]:
        findings: List[MarkerFinding] = []
        entered = {site.function for site in marked.sites
                   if site.context == CONTEXT_FN_ENTRY and site.name in live}
        by_level: Dict[str, List[MarkerConfig]] = {}
        for config in outcomes:
            by_level.setdefault(config.opt_level, []).append(config)
        for opt_level, configs in by_level.items():
            configs = sorted(configs, key=lambda c: c.version)
            newest = outcomes[configs[-1]]
            # Missed optimizations: judged against the newest release only
            # (older releases retaining more is history, not news).
            if opt_level in MISSED_OPT_LEVELS:
                findings.extend(self._missed(marked, live, entered, newest))
            # Regressions: adjacent-release diffs.
            for previous, current in zip(configs, configs[1:]):
                findings.extend(self._regressions(
                    marked, live, outcomes[previous], outcomes[current]))
            # Unsound eliminations: any config deleting a live marker.
            for config in configs:
                for name in sorted(outcomes[config].eliminated(marked) & live):
                    findings.append(self._finding(
                        UNSOUND_ELIMINATION, marked, name, config,
                        responsible="unknown", live=True))
        return findings

    def _missed(self, marked: MarkedProgram, live: frozenset, entered: set,
                newest: MarkerOutcome) -> List[MarkerFinding]:
        findings = []
        for site in marked.sites:
            if site.name in live or site.name not in newest.retained:
                continue
            if site.context == CONTEXT_FN_ENTRY or site.function not in entered:
                continue  # unreached function: not the optimizer's to delete
            responsible = _CONTEXT_RESPONSIBLE.get(site.context, "dce")
            findings.append(self._finding(
                MISSED_OPTIMIZATION, marked, site.name, newest.config,
                responsible=responsible, live=False))
        return findings

    def _regressions(self, marked: MarkedProgram, live: frozenset,
                     previous: MarkerOutcome, current: MarkerOutcome
                     ) -> List[MarkerFinding]:
        regressed = sorted((previous.eliminated(marked) & current.retained)
                           - live)
        if not regressed:
            return []
        responsible = self._pipeline_diff(previous, current)
        return [self._finding(REGRESSION, marked, name, current.config,
                              responsible=responsible, live=False,
                              prev_version=previous.config.version)
                for name in regressed]

    @staticmethod
    def _pipeline_diff(previous: MarkerOutcome, current: MarkerOutcome) -> str:
        """The pass that stopped running between two adjacent releases."""
        dropped = [name for name in previous.pipeline
                   if name not in current.pipeline]
        if dropped:
            return dropped[0]
        ran_before = [name for name in previous.passes_run
                      if name not in current.passes_run]
        return ran_before[0] if ran_before else "unknown"

    def _finding(self, kind: str, marked: MarkedProgram, name: str,
                 config: MarkerConfig, responsible: str, live: bool,
                 prev_version: Optional[int] = None) -> MarkerFinding:
        site = marked.site_named(name) or MarkerSite(
            name=name, function="?", context="?")
        return MarkerFinding(kind=kind, compiler=config.compiler,
                             opt_level=config.opt_level,
                             version=config.version, marker=site,
                             responsible_pass=responsible,
                             seed_index=marked.seed_index,
                             source=marked.source, live=live,
                             prev_version=prev_version, prefix=marked.prefix)
