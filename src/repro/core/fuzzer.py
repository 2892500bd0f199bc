"""The end-to-end fuzzing campaign (paper §4.1 "Testing process").

The loop is exactly the paper's:

1. use the Csmith-like generator to produce a well-formed seed program;
2. for every supported UB type, run the UB generator on the seed;
3. compile every UB program with every relevant (compiler, sanitizer,
   optimization level) configuration and run the binaries;
4. on a discrepancy, apply crash-site mapping to decide whether it is a
   sanitizer FN bug;
5. triage, deduplicate and record the resulting bug reports.

A :class:`CampaignConfig` controls the scale so the same code serves both
the quick unit tests and the benchmark harness that regenerates the paper's
tables.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.compilers.cache import CompilationCache
from repro.compilers.compiler import make_compiler
from repro.compilers.options import ALL_OPT_LEVELS
from repro.core.bugs import BugReport, BugTriager
from repro.core.differential import (
    DifferentialResult,
    DifferentialTester,
    FNBugCandidate,
    WrongReportCandidate,
    default_configs,
)
from repro.corpusdb.db import program_digest
from repro.core.insertion import UBProgram
from repro.core.ub_types import ALL_UB_TYPES, UBType
from repro.core.ubgen import UBGenerator
from repro.sanitizers.defects import Defect, default_defects
from repro.seedgen.config import GeneratorConfig
from repro.seedgen.csmith import CsmithGenerator
from repro.telemetry import runtime as telemetry
from repro.utils.errors import GenerationError

logger = logging.getLogger(__name__)


@dataclass
class CampaignConfig:
    """Scale and behaviour knobs for one fuzzing campaign.

    The campaign is a pure function of this config: ``num_seeds`` seeds are
    derived from ``rng_seed``, mutated into at most
    ``max_programs_per_type`` UB programs per type, differentially tested
    over ``compilers`` × ``opt_levels``, and (with ``triage=True``) the
    resulting candidates are triaged and deduplicated into bug reports.
    Reduction to minimal reproducers is the orchestrator's job
    (``OrchestratedCampaign(reduce=True)``), one representative per crash
    bucket.
    """

    num_seeds: int = 10
    rng_seed: int = 0
    ub_types: Sequence[UBType] = ALL_UB_TYPES
    opt_levels: Sequence[str] = ALL_OPT_LEVELS
    compilers: Sequence[str] = ("gcc", "llvm")
    max_programs_per_type: Optional[int] = 2
    max_programs_total: Optional[int] = None
    triage: bool = True
    defect_registry: Optional[Sequence[Defect]] = None
    max_steps: int = 150_000


@dataclass
class CampaignStats:
    """Aggregate counters collected during a campaign."""

    seeds_used: int = 0
    programs_generated: Dict[UBType, int] = field(default_factory=dict)
    programs_tested: int = 0
    discrepant_programs: int = 0
    optimization_discrepancies: int = 0
    fn_candidates: int = 0
    wrong_report_candidates: int = 0
    duration_seconds: float = 0.0

    def total_programs(self) -> int:
        return sum(self.programs_generated.values())


@dataclass
class CampaignResult:
    """Everything a campaign produced: stats, candidates and bug reports.

    ``bug_reports`` holds the deduplicated, triaged reports; the raw
    ``fn_candidates`` / ``wrong_report_candidates`` and per-program
    ``differential_results`` feed the analysis layer (Tables 3-6).
    """

    config: CampaignConfig
    stats: CampaignStats
    bug_reports: List[BugReport]
    fn_candidates: List[FNBugCandidate] = field(default_factory=list)
    wrong_report_candidates: List[WrongReportCandidate] = field(default_factory=list)
    differential_results: List[DifferentialResult] = field(default_factory=list)

    # -- convenience aggregations used by the analysis/benchmark layer --------------

    def bugs_by_compiler_sanitizer(self) -> Dict[tuple, List[BugReport]]:
        grouped: Dict[tuple, List[BugReport]] = {}
        for report in self.bug_reports:
            grouped.setdefault((report.compiler, report.sanitizer), []).append(report)
        return grouped

    def bugs_by_ub_type(self) -> Dict[UBType, List[BugReport]]:
        grouped: Dict[UBType, List[BugReport]] = {}
        for report in self.bug_reports:
            grouped.setdefault(report.ub_type, []).append(report)
        return grouped

    def bugs_by_category(self) -> Dict[str, List[BugReport]]:
        grouped: Dict[str, List[BugReport]] = {}
        for report in self.bug_reports:
            grouped.setdefault(report.category or "Unknown", []).append(report)
        return grouped


@dataclass
class SeedBatch:
    """Everything one seed work-item produced.

    A batch is the unit of parallel execution: generating the seed, mutating
    it into UB programs and differentially testing those programs depend only
    on ``(config, seed_index)``, so batches can be computed in any process in
    any order and merged back deterministically by seed index.
    """

    seed_index: int
    generated: bool
    programs_generated: Dict[UBType, int] = field(default_factory=dict)
    diff_results: List[DifferentialResult] = field(default_factory=list)
    duration_seconds: float = 0.0
    #: Incremental re-run accounting: how many (program, config) outcome
    #: cells this seed actually surveyed vs. skipped because the findings
    #: database already recorded them (``--resurvey``).  Both stay 0 when
    #: no skip set is installed.
    surveyed_cells: int = 0
    skipped_cells: int = 0
    #: Telemetry captured while this seed ran (see
    #: :func:`repro.telemetry.seed_scope`); ``None`` when telemetry is
    #: disabled or the batch was restored from a checkpoint record.
    telemetry: Optional[dict] = None

    @property
    def programs_tested(self) -> int:
        return len(self.diff_results)


class FuzzingCampaign:
    """Drives seeds → UB programs → differential testing → bug reports."""

    def __init__(self, config: Optional[CampaignConfig] = None) -> None:
        self.config = config or CampaignConfig()
        registry = (list(self.config.defect_registry)
                    if self.config.defect_registry is not None
                    else default_defects())
        self.registry = registry
        self.seed_generator = CsmithGenerator(
            GeneratorConfig(seed=self.config.rng_seed))
        # One compilation cache per campaign (per orchestrator worker
        # process): every (compiler, sanitizer, opt level) configuration of
        # one generated program shares the parse and optimizer artifacts,
        # and the generator's validation parse is that shared parse.
        self.compilation_cache = CompilationCache()
        self.ub_generator = UBGenerator(
            seed=self.config.rng_seed,
            max_programs_per_type=self.config.max_programs_per_type,
            cache=self.compilation_cache)
        compilers = {name: make_compiler(name, defect_registry=registry,
                                         cache=self.compilation_cache)
                     for name in self.config.compilers}
        self.tester = DifferentialTester(compilers=compilers,
                                         opt_levels=self.config.opt_levels,
                                         max_steps=self.config.max_steps,
                                         cache=self.compilation_cache)
        # The tester's trunk compilers and the triager share one registry
        # and step budget, so the matrix's runs are triage's trunk cells.
        self.triager = BugTriager(registry=registry,
                                  max_steps=self.config.max_steps,
                                  compilation_cache=self.compilation_cache)
        #: Incremental re-runs: already-surveyed ``(program digest,
        #: compiler, version, pipeline, sanitizer)`` cells to skip.  Set by
        #: the orchestrator (``--resurvey``), never part of the config — the
        #: skip set changes which work *re-executes*, not what the campaign
        #: is, so checkpoint fingerprints stay comparable.
        self.survey_skip: frozenset = frozenset()

    # -- public ---------------------------------------------------------------------

    def run(self, executor=None) -> CampaignResult:
        """Run the whole campaign, optionally through a pluggable executor.

        Without an executor, seeds are processed lazily in-process (the
        original serial behaviour).  An executor — e.g.
        :class:`repro.orchestrator.SerialExecutor` or
        :class:`repro.orchestrator.PoolExecutor` — receives the config plus
        the seed indices and yields :class:`SeedBatch` objects in seed order;
        because every batch depends only on ``(config, seed_index)``, the
        merged result is identical no matter which executor ran it.
        """
        seed_indices = range(self.config.num_seeds)
        if executor is None:
            batches: Iterable[SeedBatch] = self._serial_batches(seed_indices)
        else:
            batches = executor.map_seeds(self.config, seed_indices)
        return self.collect(batches)

    def _serial_batches(self, seed_indices) -> Iterator[SeedBatch]:
        """In-process batches with the global test budget threaded through.

        Unlike pool workers, the serial path can see ``max_programs_total``,
        so — as before the refactor — it never differentially tests programs
        past the cap."""
        remaining = self.config.max_programs_total
        for index in seed_indices:
            batch = self.run_seed(index, test_budget=remaining)
            yield batch
            if remaining is not None:
                remaining -= batch.programs_tested
                if remaining <= 0:
                    return

    def run_seed(self, seed_index: int,
                 test_budget: Optional[int] = None) -> SeedBatch:
        """Process one seed work-item: generate, mutate and test.

        ``test_budget`` caps how many of the generated programs are
        differentially tested (generation counts always cover the whole
        seed); pool workers leave it unset since they cannot see the global
        budget — :meth:`collect` truncates their excess instead.
        """
        with telemetry.seed_scope(seed_index) as scope:
            with telemetry.span("seed", seed=seed_index):
                batch = self._run_seed(seed_index, test_budget)
            if scope is not None:
                # Liveness pulse: rides back in the batch payload so the
                # parent's merged metrics always carry the latest heartbeat.
                telemetry.heartbeat(seed_index)
                batch.telemetry = scope.payload()
        return batch

    def _run_seed(self, seed_index: int,
                  test_budget: Optional[int]) -> SeedBatch:
        start = time.time()
        try:
            with telemetry.stage("generate", seed=seed_index):
                seed = self.seed_generator.generate(seed_index)
        except GenerationError:
            return SeedBatch(seed_index=seed_index, generated=False,
                             duration_seconds=time.time() - start)
        with telemetry.stage("generate", seed=seed_index, kind="ub"):
            by_type = self.ub_generator.generate_all(seed, self.config.ub_types)
        counts: Dict[UBType, int] = {}
        programs: List[UBProgram] = []
        for ub_type, generated in by_type.items():
            counts[ub_type] = len(generated)
            programs.extend(generated)
        if test_budget is not None:
            programs = programs[:test_budget]
        diff_results = []
        surveyed_cells = skipped_cells = 0
        for program in programs:
            kept, skipped = self._partition_configs(program)
            skipped_cells += skipped
            if not kept:
                # Every cell of this program is already in the findings
                # database: nothing left to survey, drop the program.
                continue
            surveyed_cells += len(kept)
            with telemetry.span("test", ub=program.ub_type.value):
                diff_results.append(self.tester.test(program, configs=kept))
        logger.debug("seed %d: %d programs in %.2fs", seed_index,
                     len(programs), time.time() - start)
        return SeedBatch(seed_index=seed_index, generated=True,
                         programs_generated=counts, diff_results=diff_results,
                         duration_seconds=time.time() - start,
                         surveyed_cells=surveyed_cells,
                         skipped_cells=skipped_cells)

    def _partition_configs(self, program: UBProgram):
        """Split a program's config matrix into (to survey, skipped count).

        Without a skip set the fast path hands the tester ``None`` (its own
        default matrix) — zero overhead and byte-identical behaviour."""
        configs = default_configs(program.ub_type,
                                  compilers=tuple(self.tester.compilers),
                                  opt_levels=self.tester.opt_levels)
        if not self.survey_skip:
            return configs, 0
        digest = program_digest(program.source)
        kept = [config for config in configs
                if (digest, config.compiler, "", config.opt_level,
                    config.sanitizer) not in self.survey_skip]
        return kept, len(configs) - len(kept)

    def collect(self, batches: Iterable[SeedBatch]) -> CampaignResult:
        """Merge per-seed batches (in seed order) into the campaign result.

        Consumption stops as soon as ``max_programs_total`` is reached, so a
        lazy serial iterator never generates seeds past the cap, and the
        result (stats, candidates, reports) is identical to the pre-refactor
        loop.  A batch is always a *whole* seed, though — workers cannot see
        the global budget — so excess programs of the final consumed seed
        (and of any seeds a pool prefetched) are tested and then discarded.
        """
        start = time.time()
        stats = CampaignStats(programs_generated={ub: 0 for ub in self.config.ub_types})
        fn_candidates: List[FNBugCandidate] = []
        wrong_reports: List[WrongReportCandidate] = []
        diff_results: List[DifferentialResult] = []
        remaining = self.config.max_programs_total

        for batch in batches:
            # The single telemetry merge point, in seed order: worker-side
            # scope payloads fold into the parent session here.
            telemetry.merge_batch(batch.telemetry)
            if not batch.generated:
                continue
            stats.seeds_used += 1
            for ub_type, count in batch.programs_generated.items():
                stats.programs_generated[ub_type] = (
                    stats.programs_generated.get(ub_type, 0) + count)
            kept = (batch.diff_results if remaining is None
                    else batch.diff_results[:remaining])
            for result in kept:
                diff_results.append(result)
                stats.programs_tested += 1
                if result.has_discrepancy:
                    stats.discrepant_programs += 1
                stats.optimization_discrepancies += result.optimization_discrepancies
                fn_candidates.extend(result.fn_candidates)
                wrong_reports.extend(result.wrong_report_candidates)
            if remaining is not None:
                remaining -= len(kept)
                if remaining <= 0:
                    break

        stats.fn_candidates = len(fn_candidates)
        stats.wrong_report_candidates = len(wrong_reports)

        bug_reports = self._build_reports(diff_results, fn_candidates,
                                          wrong_reports)
        stats.duration_seconds = time.time() - start
        return CampaignResult(config=self.config, stats=stats,
                              bug_reports=bug_reports,
                              fn_candidates=fn_candidates,
                              wrong_report_candidates=wrong_reports,
                              differential_results=diff_results)

    # -- reporting -------------------------------------------------------------------

    def _build_reports(self, diff_results: List[DifferentialResult],
                       fn_candidates: List[FNBugCandidate],
                       wrong_reports: List[WrongReportCandidate]) -> List[BugReport]:
        if not self.config.triage:
            return []
        # Triage reads the matrix's runs instead of repeating them.
        self.triager.observe(diff_results)
        # Many programs expose the same defect, so only the first candidate
        # per behavioural signature is triaged.  Deduplication by defect id
        # then merges any signatures that turn out to share a root cause.
        reports = [self.triager.triage_fn_candidate(candidate)
                   for candidate in _representatives(fn_candidates,
                                                     _fn_signature)]
        reports += [self.triager.triage_wrong_report(candidate)
                    for candidate in _representatives(wrong_reports,
                                                      _wrong_report_signature)]
        return self.triager.deduplicate(reports)


def _representatives(candidates: list, signature) -> list:
    """The first candidate of each signature, in candidate order."""
    first: dict = {}
    for candidate in candidates:
        first.setdefault(signature(candidate), candidate)
    return list(first.values())


def _fn_signature(candidate: FNBugCandidate) -> tuple:
    config = candidate.missing.config
    report = candidate.detecting.result.report
    return (config.compiler, config.sanitizer, config.opt_level,
            candidate.program.ub_type,
            report.kind if report is not None else None)


def _wrong_report_signature(candidate: WrongReportCandidate) -> tuple:
    config = candidate.second.config
    return (config.compiler, config.sanitizer,
            candidate.difference.split()[0] if candidate.difference else "")
