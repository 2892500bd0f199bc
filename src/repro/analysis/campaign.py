"""Scaled evaluation drivers for the paper's experiments (RQ1-RQ4).

Every experiment of §4 has a driver here that the benchmark harness (and
the examples) call.  The paper's campaign ran for five months on two 64-core
servers; these drivers run the same pipelines at a configurable, much
smaller scale and return structured results from which the tables/figures
are printed.  The bug-finding campaign result is cached per scale so that
Table 3, Table 6 and Figures 7/10/11 — which all view the same campaign —
only pay for it once per session.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.compilers.cache import CompilationCache
from repro.compilers.compiler import make_compiler
from repro.compilers.options import CompileOptions
from repro.core.differential import TestConfig, run_cell
from repro.core.fuzzer import CampaignConfig, CampaignResult
from repro.core.insertion import UBProgram
from repro.core.ub_types import ALL_UB_TYPES, UBType, ub_type_of_report
from repro.core.ubgen import UBGenerator
from repro.coverage.report import CoverageReport, report_from_tracker
from repro.coverage.tracker import CoverageTracker
from repro.sanitizers.registry import sanitizers_supported_by
from repro.seedgen.config import GeneratorConfig
from repro.seedgen.csmith import CsmithGenerator, CsmithNoSafeGenerator, SeedProgram
from repro.seedgen.juliet import generate_juliet_suite
from repro.seedgen.music import MusicMutator
from repro.utils.errors import GenerationError, ReproError

# ---------------------------------------------------------------------------
# RQ1: bug finding (Table 3, Table 6, Figures 7/10/11)
# ---------------------------------------------------------------------------

class CampaignCache:
    """An explicit, clearable cache of campaign results.

    Keys are :func:`repro.orchestrator.config_fingerprint` digests, which
    cover *every* campaign knob — two configs differing in any field (e.g.
    ``triage`` or ``compilers``, which the old ad-hoc tuple key ignored)
    can never collide.  Worker count is deliberately not part of the key:
    parallel and serial runs of the same config produce identical results.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, CampaignResult] = {}

    def get(self, fingerprint: str) -> Optional[CampaignResult]:
        return self._entries.get(fingerprint)

    def put(self, fingerprint: str, result: CampaignResult) -> None:
        self._entries[fingerprint] = result

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_CAMPAIGN_CACHE = CampaignCache()


def clear_campaign_cache() -> None:
    """Drop every cached campaign result (frees the corpus-sized memory)."""
    _CAMPAIGN_CACHE.clear()


def run_bug_finding_campaign(num_seeds: int = 6, rng_seed: int = 2024,
                             opt_levels: Tuple[str, ...] = ("-O0", "-O1", "-Os",
                                                            "-O2", "-O3"),
                             max_programs_per_type: int = 2,
                             workers: int = 1,
                             **config_overrides) -> CampaignResult:
    """Run (or reuse) the scaled RQ1 campaign through the orchestrator.

    ``workers`` shards the campaign over that many processes; extra
    :class:`~repro.core.fuzzer.CampaignConfig` fields (``compilers``,
    ``triage``, ...) can be passed as keyword overrides.  Results are cached
    per full-config fingerprint, so neither ``workers`` nor the knob subset
    used to build the key can make distinct configs collide.
    """
    from repro.orchestrator import OrchestratedCampaign, config_fingerprint
    config = CampaignConfig(num_seeds=num_seeds, rng_seed=rng_seed,
                            opt_levels=opt_levels,
                            max_programs_per_type=max_programs_per_type,
                            **config_overrides)
    fingerprint = config_fingerprint(config)
    cached = _CAMPAIGN_CACHE.get(fingerprint)
    if cached is not None:
        return cached
    result = OrchestratedCampaign(config, workers=workers).run()
    _CAMPAIGN_CACHE.put(fingerprint, result)
    return result


# ---------------------------------------------------------------------------
# RQ2: generator comparison (Table 4) and the Juliet experiment
# ---------------------------------------------------------------------------

@dataclass
class GeneratorComparison:
    """Counts of UB programs per generator per UB type (Table 4)."""

    counts: Dict[str, Dict[UBType, int]] = field(default_factory=dict)
    no_ub: Dict[str, Optional[int]] = field(default_factory=dict)
    totals: Dict[str, int] = field(default_factory=dict)
    programs: Dict[str, List[UBProgram]] = field(default_factory=dict)
    seeds: List[SeedProgram] = field(default_factory=list)

    def row(self, generator: str) -> List[object]:
        counts = self.counts.get(generator, {})
        cells: List[object] = [generator]
        for ub_type in ALL_UB_TYPES:
            cells.append(counts.get(ub_type, 0))
        cells.append(self.totals.get(generator, 0))
        no_ub = self.no_ub.get(generator)
        cells.append("-" if no_ub is None else no_ub)
        return cells


_UB_CLASSIFIER_CONFIGS = (
    ("gcc", "asan"), ("gcc", "ubsan"), ("llvm", "msan"),
)


def classify_ub(source: str, max_steps: int = 120_000) -> Optional[UBType]:
    """Run a program under all sanitizers at -O0 and classify its UB.

    Returns the UB type of the first sanitizer report, or None when no
    sanitizer reports anything (the program is treated as UB-free).  This is
    the paper's procedure for labelling MUSIC / Csmith-NoSafe programs
    (§4.3, footnote 4).  The configs share one compilation cache, so the
    source is parsed once.
    """
    cache = CompilationCache()
    for compiler_name, sanitizer in _UB_CLASSIFIER_CONFIGS:
        result = run_cell(cache, source,
                          TestConfig(compiler_name, sanitizer, "-O0"), [],
                          max_steps).result
        if result is not None and result.crashed and result.report is not None:
            ub = ub_type_of_report(result.report.kind)
            if ub is not None:
                return ub
    return None


_COMPARISON_CACHE: Dict[tuple, "GeneratorComparison"] = {}


def run_generator_comparison(num_seeds: int = 6, rng_seed: int = 7,
                             programs_per_seed: int = 12,
                             max_programs_per_type: int = 2
                             ) -> GeneratorComparison:
    """The Table 4 experiment: UBfuzz vs MUSIC vs Csmith-NoSafe (cached
    per argument set)."""
    cache_key = (num_seeds, rng_seed, programs_per_seed, max_programs_per_type)
    if cache_key in _COMPARISON_CACHE:
        return _COMPARISON_CACHE[cache_key]
    comparison = GeneratorComparison()
    seed_gen = CsmithGenerator(GeneratorConfig(seed=rng_seed))
    seeds = seed_gen.generate_many(num_seeds)
    # The comparison outlives this call (``_COMPARISON_CACHE``), so it keeps
    # the seeds' text, not the parses they carry.
    comparison.seeds = [replace(seed, analyzed=None) for seed in seeds]

    # UBfuzz: UB type known by construction, no "No UB" column (paper: "-").
    ub_generator = UBGenerator(seed=rng_seed,
                               max_programs_per_type=max_programs_per_type)
    ubfuzz_counts: Dict[UBType, int] = {ub: 0 for ub in ALL_UB_TYPES}
    ubfuzz_programs: List[UBProgram] = []
    for seed in seeds:
        for ub_type, programs in ub_generator.generate_all(seed).items():
            ubfuzz_counts[ub_type] += len(programs)
            ubfuzz_programs.extend(programs)
    comparison.counts["ubfuzz"] = ubfuzz_counts
    comparison.totals["ubfuzz"] = sum(ubfuzz_counts.values())
    comparison.no_ub["ubfuzz"] = None
    comparison.programs["ubfuzz"] = ubfuzz_programs

    # MUSIC: syntactic mutants, classified by running the sanitizers.
    mutator = MusicMutator(seed=rng_seed)
    music_counts: Dict[UBType, int] = {ub: 0 for ub in ALL_UB_TYPES}
    music_programs: List[UBProgram] = []
    music_no_ub = 0
    for seed in seeds:
        for mutant in mutator.mutate(seed, count=programs_per_seed):
            ub_type = classify_ub(mutant.source)
            if ub_type is None:
                music_no_ub += 1
                continue
            music_counts[ub_type] += 1
            music_programs.append(UBProgram(source=mutant.source, ub_type=ub_type,
                                            seed_index=mutant.seed_index,
                                            generator="music",
                                            description=mutant.description))
    comparison.counts["music"] = music_counts
    comparison.totals["music"] = sum(music_counts.values())
    comparison.no_ub["music"] = music_no_ub
    comparison.programs["music"] = music_programs

    # Csmith-NoSafe: standalone generation (no seed needed), same classification.
    nosafe_gen = CsmithNoSafeGenerator(GeneratorConfig(seed=rng_seed + 1))
    nosafe_counts: Dict[UBType, int] = {ub: 0 for ub in ALL_UB_TYPES}
    nosafe_programs: List[UBProgram] = []
    nosafe_no_ub = 0
    total_nosafe = num_seeds * programs_per_seed
    for index in range(total_nosafe):
        try:
            program = nosafe_gen.generate(index)
        except GenerationError:
            continue
        ub_type = classify_ub(program.source)
        if ub_type is None:
            nosafe_no_ub += 1
            continue
        nosafe_counts[ub_type] += 1
        nosafe_programs.append(UBProgram(source=program.source, ub_type=ub_type,
                                         seed_index=index,
                                         generator="csmith-nosafe"))
    comparison.counts["csmith-nosafe"] = nosafe_counts
    comparison.totals["csmith-nosafe"] = sum(nosafe_counts.values())
    comparison.no_ub["csmith-nosafe"] = nosafe_no_ub
    comparison.programs["csmith-nosafe"] = nosafe_programs

    _COMPARISON_CACHE[cache_key] = comparison
    return comparison


@dataclass
class BaselineBugHunt:
    """Result of testing sanitizers with a baseline corpus (MUSIC,
    Csmith-NoSafe or Juliet): how many FN bugs did the oracle confirm?"""

    corpus: str
    programs_tested: int
    fn_bugs_found: int


def run_baseline_bug_hunt(programs: List[UBProgram], corpus: str,
                          opt_levels: Tuple[str, ...] = ("-O0", "-O2", "-O3"),
                          max_programs: int = 40) -> BaselineBugHunt:
    """Feed a baseline corpus through differential testing + the oracle."""
    from repro.core.differential import DifferentialTester
    tester = DifferentialTester(opt_levels=opt_levels)
    fn_bugs = 0
    tested = 0
    for program in programs[:max_programs]:
        result = tester.test(program)
        tested += 1
        if result.fn_candidates:
            fn_bugs += len(result.fn_candidates)
    return BaselineBugHunt(corpus=corpus, programs_tested=tested,
                           fn_bugs_found=fn_bugs)


def juliet_programs(cases_per_type: int = 3) -> List[UBProgram]:
    """The Juliet-style corpus as UBProgram objects."""
    return [UBProgram(source=case.source, ub_type=case.ub_type,
                      generator="juliet", description=case.name)
            for case in generate_juliet_suite(cases_per_type)]


# ---------------------------------------------------------------------------
# RQ3: crash-site mapping accuracy
# ---------------------------------------------------------------------------

@dataclass
class OracleAccuracy:
    """Precision/recall of crash-site mapping against ground truth."""

    discrepant_programs: int
    selected: int
    dropped: int
    true_positives: int
    false_positives: int
    sampled_dropped: int
    missed_bugs_in_sample: int

    @property
    def precision(self) -> float:
        total = self.true_positives + self.false_positives
        return self.true_positives / total if total else 1.0

    @property
    def recall_on_sample(self) -> float:
        relevant = self.true_positives + self.missed_bugs_in_sample
        return self.true_positives / relevant if relevant else 1.0


def evaluate_oracle_accuracy(campaign: CampaignResult,
                             dropped_sample: int = 50) -> OracleAccuracy:
    """RQ3: compare the oracle's verdicts against ground truth.

    Ground truth for "the silent configuration really has a sanitizer FN
    bug" is obtained by recompiling the program for that configuration with
    an *empty defect registry*: if the defect-free sanitizer detects the UB,
    the miss was caused by a seeded defect (a true bug); if it still misses,
    the UB was optimized away and the discrepancy was optimization-caused.
    """
    cache = CompilationCache()
    selected = 0
    true_positives = 0
    false_positives = 0
    dropped_cases = []

    for diff in campaign.differential_results:
        if not diff.has_discrepancy:
            continue
        for candidate in diff.fn_candidates:
            selected += 1
            if _ground_truth_is_bug(cache, candidate.program,
                                    candidate.missing.config):
                true_positives += 1
            else:
                false_positives += 1
        # Optimization-classified discrepancies: the dropped set.
        if diff.optimization_discrepancies:
            silent = [cell for cell in diff.cells
                      if cell.verdict is not None and cell.verdict[0] == "ok"]
            for cell in silent:
                if any(c.missing.config == cell.config
                       for c in diff.fn_candidates):
                    continue
                dropped_cases.append((diff.program, cell.config))

    missed = 0
    sample = dropped_cases[:dropped_sample]
    for program, config in sample:
        if _ground_truth_is_bug(cache, program, config):
            missed += 1

    discrepant = sum(1 for d in campaign.differential_results if d.has_discrepancy)
    return OracleAccuracy(discrepant_programs=discrepant, selected=selected,
                          dropped=len(dropped_cases),
                          true_positives=true_positives,
                          false_positives=false_positives,
                          sampled_dropped=len(sample),
                          missed_bugs_in_sample=missed)


def _ground_truth_is_bug(cache: CompilationCache, program: UBProgram,
                         config: TestConfig) -> bool:
    """Would a defect-free build of this configuration detect the UB?"""
    result = run_cell(cache, program.source, config, [], 150_000).result
    return result is not None and result.crashed


# ---------------------------------------------------------------------------
# RQ4: coverage (Table 5)
# ---------------------------------------------------------------------------

def measure_corpus_coverage(sources_by_corpus: Dict[str, List[str]],
                            compilers: Tuple[str, ...] = ("gcc", "llvm"),
                            opt_level: str = "-O2",
                            max_programs: int = 60) -> Dict[str, Dict[str, CoverageReport]]:
    """Compile each corpus under a coverage tracker (Table 5).

    Returns ``{compiler: {corpus: CoverageReport}}``.  Each program is
    compiled once per compiler with every sanitizer that compiler supports,
    mirroring the paper's Gcov measurement over sanitizer-related files.
    """
    # Warm the process-wide defect registry before tracing starts: its
    # one-time construction would otherwise be credited to whichever corpus
    # happens to compile first, skewing the cross-corpus comparison.
    from repro.sanitizers.defects import default_defects
    default_defects()
    results: Dict[str, Dict[str, CoverageReport]] = {name: {} for name in compilers}
    for compiler_name in compilers:
        for corpus, sources in sources_by_corpus.items():
            # A private cache: a build another compiler made would run
            # no optimizer code under this tracker.
            compiler = make_compiler(compiler_name)
            tracker = CoverageTracker()
            with tracker:
                for source in sources[:max_programs]:
                    for sanitizer in sanitizers_supported_by(compiler_name):
                        try:
                            compiler.compile(source,
                                             CompileOptions(opt_level=opt_level,
                                                            sanitizer=sanitizer))
                        except ReproError:
                            continue
            results[compiler_name][corpus] = report_from_tracker(
                tracker, corpus, compiler_name)
    return results
