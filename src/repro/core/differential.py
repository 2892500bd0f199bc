"""Differential testing of sanitizers across compilers and optimization levels.

For one UB program, compile it with every (compiler, optimization level)
configuration whose sanitizer can detect the UB type (Table 2), run all
binaries, and look for discrepancies:

* some configuration reports the UB while another exits normally → apply the
  crash-site mapping oracle to decide whether the silent configuration has a
  sanitizer false-negative bug;
* two configurations both report the UB but disagree on the report (kind or
  source line) → a *wrong report* candidate (the paper found 2 such bugs).

Each configuration is compiled and run by :func:`run_cell`, which triage,
:class:`~repro.triage.CrashProbe` and the analysis drivers share.  Its
:class:`ConfigOutcome` holds the whole run, crash site and executed-site
set included, and only code that runs a configuration keeps one:
:meth:`DifferentialTester.analyze` maps crash sites on the runs, then
keeps each configuration's :class:`Cell` (its config and verdict).  A
:class:`DifferentialResult` and the candidates in it hold cells only, which
is all the merge, triage, the corpus store and the checkpoint read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.compilers.cache import CompilationCache
from repro.compilers.compiler import compiler_class, make_compiler
from repro.compilers.options import ALL_OPT_LEVELS, CompileOptions
from repro.core.crash_site import OracleVerdict, is_sanitizer_bug_from_results
from repro.core.insertion import UBProgram
from repro.core.ub_types import UBType, detects, sanitizers_for
from repro.sanitizers.registry import sanitizers_supported_by
from repro.telemetry import runtime as telemetry
from repro.utils.errors import CompilationError
from repro.vm.errors import ExecutionResult

#: What the oracle and triage read of one cell: the run's status and its
#: report's kind, or ``None`` when the program did not compile.
Verdict = Optional[Tuple[str, Optional[str]]]


@dataclass(frozen=True)
class TestConfig:
    """One tested configuration: compiler name, sanitizer, opt level."""

    # Not a test class, although pytest collects classes named Test*.
    __test__ = False

    compiler: str
    sanitizer: str
    opt_level: str

    @property
    def label(self) -> str:
        return f"{self.compiler} {self.opt_level} -fsanitize={self.sanitizer}"


@dataclass(frozen=True)
class Cell:
    """What a campaign keeps of one configuration's run: its verdict, or
    the compile ``error`` (verdict ``None``) when the program did not
    compile."""

    config: TestConfig
    verdict: Verdict
    error: Optional[str] = None

    @property
    def detected(self) -> bool:
        return (self.verdict is not None
                and self.verdict[0] == "sanitizer_report"
                and self.verdict[1] is not None)


@dataclass
class ConfigOutcome:
    """Result of compiling + running one UB program under one configuration."""

    config: TestConfig
    result: Optional[ExecutionResult]
    error: Optional[str] = None

    @property
    def detected(self) -> bool:
        return self.cell.detected

    @property
    def cell(self) -> Cell:
        return Cell(self.config, verdict_of(self.result), self.error)


@dataclass
class FNBugCandidate:
    """A discrepancy the oracle attributes to a sanitizer FN bug."""

    program: UBProgram
    detecting: Cell
    missing: Cell
    verdict: OracleVerdict

    @property
    def crash_site(self) -> Optional[tuple[int, int]]:
        return self.verdict.crash_site


@dataclass
class WrongReportCandidate:
    """Two configurations detect the UB but disagree about the report."""

    program: UBProgram
    first: Cell
    second: Cell
    difference: str


@dataclass
class DifferentialResult:
    """What differentially testing one UB program found: each
    configuration's cell and the candidates, whose cells are those of
    ``cells``."""

    program: UBProgram
    cells: List[Cell]
    fn_candidates: List[FNBugCandidate] = field(default_factory=list)
    wrong_report_candidates: List[WrongReportCandidate] = field(default_factory=list)
    optimization_discrepancies: int = 0

    @property
    def has_discrepancy(self) -> bool:
        return bool(self.fn_candidates or self.wrong_report_candidates
                    or self.optimization_discrepancies)


def default_configs(ub_type, compilers: Sequence[str] = ("gcc", "llvm"),
                    opt_levels: Sequence[str] = ALL_OPT_LEVELS) -> List[TestConfig]:
    """The configurations relevant for one UB type (Table 2 × §4.1 setup)."""
    configs: List[TestConfig] = []
    for sanitizer in sanitizers_for(ub_type):
        for compiler in compilers:
            if sanitizer not in sanitizers_supported_by(compiler):
                continue
            for opt_level in opt_levels:
                configs.append(TestConfig(compiler, sanitizer, opt_level))
    return configs


def verdict_of(result: Optional[ExecutionResult]) -> Verdict:
    if result is None:
        return None
    report = result.report
    return result.status, report.kind if report is not None else None


def detected(verdict: Verdict, ub_type: UBType) -> bool:
    """Did the run abort with a report that detects *ub_type*?"""
    return (verdict is not None and verdict[0] == "sanitizer_report"
            and detects(ub_type, verdict[1]))


def run_cell(cache: CompilationCache, source: str, config: TestConfig,
             registry: Optional[Sequence], max_steps: int,
             version: Optional[int] = None) -> ConfigOutcome:
    """Compile *source* for *config* at release *version* (``None``:
    trunk) with the defect *registry* (``None``: the seeded defects)
    through *cache*, and run it under the ``execute`` stage.

    This is the one compile-and-run path: the differential tester,
    triage, :class:`~repro.triage.CrashProbe` and the Table 4 / RQ3
    drivers all read their cells from it.  A compile error counts in
    ``compile.errors`` and comes back as an outcome with ``error`` set.
    """
    compiler = make_compiler(config.compiler, version=version,
                             defect_registry=registry, cache=cache)
    try:
        binary = compiler.compile(source,
                                  CompileOptions(opt_level=config.opt_level,
                                                 sanitizer=config.sanitizer))
    except CompilationError as exc:
        telemetry.inc("compile.errors")
        return ConfigOutcome(config, None, error=str(exc))
    with telemetry.stage("execute", compiler=config.compiler,
                         opt=config.opt_level, sanitizer=config.sanitizer):
        result = binary.run(max_steps=max_steps)
    metrics = telemetry.metrics()
    if metrics is not None:
        if result.crashed and result.report is not None:
            metrics.inc("verdict.report")
        elif result.exited_normally:
            metrics.inc("verdict.silent")
        else:
            metrics.inc("verdict.abnormal")
    return ConfigOutcome(config, result)


class DifferentialTester:
    """Compiles and runs UB programs across configurations and applies the
    crash-site mapping oracle to every discrepancy.

    Every cell is a :func:`run_cell` of a trunk compiler named in
    *compilers*, with *defect_registry* (``None``: the seeded defects), on
    one :class:`CompilationCache`: *cache*, or a private one.  So one
    program's N-config matrix performs one parse and one optimizer run per
    opt level instead of N full compiles, and a reducer handed
    :attr:`cache` screens candidates through the cache the compiles read.
    An unknown compiler name raises ``KeyError`` here.
    """

    def __init__(self, compilers: Sequence[str] = ("gcc", "llvm"),
                 defect_registry: Optional[Sequence] = None,
                 opt_levels: Sequence[str] = ALL_OPT_LEVELS,
                 max_steps: int = 200_000,
                 cache: Optional[CompilationCache] = None) -> None:
        for name in compilers:
            compiler_class(name)
        self.compilers = tuple(compilers)
        self.defect_registry = defect_registry
        self.opt_levels = tuple(opt_levels)
        self.max_steps = max_steps
        self.cache = cache if cache is not None else CompilationCache()

    # -- running --------------------------------------------------------------------

    def run_config(self, program: UBProgram, config: TestConfig) -> ConfigOutcome:
        return run_cell(self.cache, program.source, config,
                        self.defect_registry, self.max_steps)

    def test(self, program: UBProgram,
             configs: Optional[Sequence[TestConfig]] = None) -> DifferentialResult:
        """Differentially test one UB program across all configurations."""
        if configs is None:
            configs = default_configs(program.ub_type,
                                      compilers=self.compilers,
                                      opt_levels=self.opt_levels)
        outcomes = [self.run_config(program, config) for config in configs]
        return self.analyze(program, outcomes)

    # -- analysis -------------------------------------------------------------------

    def analyze(self, program: UBProgram,
                outcomes: List[ConfigOutcome]) -> DifferentialResult:
        """Map crash sites and compare reports on the runs, and keep their
        cells: the result holds no run."""
        cells = [outcome.cell for outcome in outcomes]
        result = DifferentialResult(program=program, cells=cells)
        detectors = [(o, cell) for o, cell in zip(outcomes, cells)
                     if detected(cell.verdict, program.ub_type)]
        silent = [(o, cell) for o, cell in zip(outcomes, cells)
                  if cell.verdict is not None and cell.verdict[0] == "ok"]

        for missing, missing_cell in silent:
            verdict = None
            for detecting, detecting_cell in detectors:
                verdict = is_sanitizer_bug_from_results(detecting.result,
                                                        missing.result)
                if verdict.is_bug:
                    result.fn_candidates.append(FNBugCandidate(
                        program=program, detecting=detecting_cell,
                        missing=missing_cell, verdict=verdict))
                    break
            if detectors and (verdict is None or not verdict.is_bug):
                result.optimization_discrepancies += 1

        result.wrong_report_candidates.extend(
            self._wrong_reports(program, detectors))
        registry = telemetry.metrics()
        if registry is not None:
            registry.inc("diff.programs")
            registry.inc("diff.fn_candidates", len(result.fn_candidates))
            registry.inc("diff.wrong_reports",
                         len(result.wrong_report_candidates))
            registry.inc("diff.opt_discrepancies",
                         result.optimization_discrepancies)
        return result

    @staticmethod
    def _wrong_reports(program: UBProgram,
                       detectors: List[Tuple[ConfigOutcome, Cell]]
                       ) -> List[WrongReportCandidate]:
        """Report-content mismatches between two detecting configurations of
        the *same* compiler+sanitizer (different levels)."""
        candidates: List[WrongReportCandidate] = []
        seen_pairs = set()
        for i, (first, first_cell) in enumerate(detectors):
            for second, second_cell in detectors[i + 1:]:
                if (first.config.compiler != second.config.compiler
                        or first.config.sanitizer != second.config.sanitizer):
                    continue
                key = (first.config, second.config)
                if key in seen_pairs:
                    continue
                difference = _report_difference(first, second)
                if difference is not None:
                    seen_pairs.add(key)
                    candidates.append(WrongReportCandidate(
                        program=program, first=first_cell,
                        second=second_cell, difference=difference))
        return candidates


def _report_difference(first: ConfigOutcome, second: ConfigOutcome) -> Optional[str]:
    a, b = first.result.report, second.result.report
    if a.kind != b.kind:
        return f"report kind {a.kind} vs {b.kind}"
    if a.location.is_known and b.location.is_known and a.location.line != b.location.line:
        return f"report line {a.location.line} vs {b.location.line}"
    return None
