"""Differential testing of sanitizers across compilers and optimization levels.

For one UB program, compile it with every (compiler, optimization level)
configuration whose sanitizer can detect the UB type (Table 2), run all
binaries, and look for discrepancies:

* some configuration reports the UB while another exits normally → apply the
  crash-site mapping oracle to decide whether the silent configuration has a
  sanitizer false-negative bug;
* two configurations both report the UB but disagree on the report (kind or
  source line) → a *wrong report* candidate (the paper found 2 such bugs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.compilers.cache import CompilationCache
from repro.compilers.compiler import SimulatedCompiler, make_compiler
from repro.compilers.options import ALL_OPT_LEVELS, CompileOptions
from repro.core.crash_site import OracleVerdict, is_sanitizer_bug_from_results
from repro.core.insertion import UBProgram
from repro.core.ub_types import detects, sanitizers_for
from repro.sanitizers.registry import sanitizers_supported_by
from repro.telemetry import runtime as telemetry
from repro.utils.errors import CompilationError
from repro.vm.errors import ExecutionResult


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


@dataclass
class ConfigOutcome:
    """Result of compiling + running one UB program under one configuration."""

    config: TestConfig
    result: Optional[ExecutionResult]
    error: Optional[str] = None

    @property
    def detected(self) -> bool:
        return (self.result is not None and self.result.crashed
                and self.result.report is not None)


@dataclass
class FNBugCandidate:
    """A discrepancy the oracle attributes to a sanitizer FN bug."""

    program: UBProgram
    detecting: ConfigOutcome
    missing: ConfigOutcome
    verdict: OracleVerdict

    @property
    def crash_site(self) -> Optional[tuple[int, int]]:
        return self.verdict.crash_site


@dataclass
class WrongReportCandidate:
    """Two configurations detect the UB but disagree about the report."""

    program: UBProgram
    first: ConfigOutcome
    second: ConfigOutcome
    difference: str


@dataclass
class DifferentialResult:
    """Everything observed while differentially testing one UB program."""

    program: UBProgram
    outcomes: List[ConfigOutcome]
    fn_candidates: List[FNBugCandidate] = field(default_factory=list)
    wrong_report_candidates: List[WrongReportCandidate] = field(default_factory=list)
    optimization_discrepancies: int = 0

    @property
    def has_discrepancy(self) -> bool:
        return bool(self.fn_candidates or self.wrong_report_candidates
                    or self.optimization_discrepancies)

    @property
    def any_detection(self) -> bool:
        return any(o.detected for o in self.outcomes)


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


class DifferentialTester:
    """Compiles and runs UB programs across configurations and applies the
    crash-site mapping oracle to every discrepancy.

    A single :class:`CompilationCache` is shared by all the tester's
    compilers (``cache=True``, the default), so one program's N-config
    matrix performs one parse and one optimizer run per opt level instead of
    N full compiles.  ``cache=False`` selects the uncached behaviour.  With
    caller-provided *compilers*, the default never touches them (each keeps
    whatever cache it was built with); passing an explicit
    :class:`CompilationCache` instance attaches it to any provided compiler
    that has none.
    """

    def __init__(self, compilers: Optional[Dict[str, SimulatedCompiler]] = None,
                 opt_levels: Sequence[str] = ALL_OPT_LEVELS,
                 max_steps: int = 200_000,
                 cache: Union[CompilationCache, bool] = True) -> None:
        explicit_cache = isinstance(cache, CompilationCache)
        if compilers is None:
            if cache is True:
                cache = CompilationCache()
            elif cache is False:
                cache = None
            self.cache = cache
            compilers = {"gcc": make_compiler("gcc", cache=cache),
                         "llvm": make_compiler("llvm", cache=cache)}
        elif explicit_cache:
            self.cache = cache
            for compiler in compilers.values():
                if compiler.cache is None:
                    compiler.cache = cache
        else:
            # Caller-provided compilers keep whatever cache they were built
            # with; without an explicit instance there is nothing to attach.
            self.cache = None
        self.compilers = compilers
        self.opt_levels = tuple(opt_levels)
        self.max_steps = max_steps

    # -- running --------------------------------------------------------------------

    def run_config(self, program: UBProgram, config: TestConfig) -> ConfigOutcome:
        compiler = self.compilers[config.compiler]
        try:
            binary = compiler.compile(program.source,
                                      CompileOptions(opt_level=config.opt_level,
                                                     sanitizer=config.sanitizer))
        except CompilationError as exc:
            telemetry.inc("compile.errors")
            return ConfigOutcome(config, None, error=str(exc))
        with telemetry.stage("execute", compiler=config.compiler,
                             opt=config.opt_level,
                             sanitizer=config.sanitizer):
            result = binary.run(max_steps=self.max_steps)
        registry = telemetry.metrics()
        if registry is not None:
            if result.crashed and result.report is not None:
                registry.inc("verdict.report")
            elif result.exited_normally:
                registry.inc("verdict.silent")
            else:
                registry.inc("verdict.abnormal")
        return ConfigOutcome(config, result)

    def run_configs(self, program: UBProgram,
                    configs: Sequence[TestConfig]) -> List[ConfigOutcome]:
        """Compile and execute one program's whole configuration batch."""
        return [self.run_config(program, config) for config in configs]

    def test(self, program: UBProgram,
             configs: Optional[Sequence[TestConfig]] = None) -> DifferentialResult:
        """Differentially test one UB program across all configurations."""
        if configs is None:
            configs = default_configs(program.ub_type,
                                      compilers=tuple(self.compilers),
                                      opt_levels=self.opt_levels)
        outcomes = self.run_configs(program, configs)
        return self.analyze(program, outcomes)

    # -- analysis -------------------------------------------------------------------

    def analyze(self, program: UBProgram,
                outcomes: List[ConfigOutcome]) -> DifferentialResult:
        result = DifferentialResult(program=program, outcomes=outcomes)
        detectors = [o for o in outcomes if self._valid_detection(program, o)]
        silent = [o for o in outcomes
                  if o.result is not None and o.result.exited_normally]

        for missing in silent:
            verdict = None
            for detecting in detectors:
                verdict = is_sanitizer_bug_from_results(detecting.result,
                                                        missing.result)
                if verdict.is_bug:
                    result.fn_candidates.append(FNBugCandidate(
                        program=program, detecting=detecting, missing=missing,
                        verdict=verdict))
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
    def _valid_detection(program: UBProgram, outcome: ConfigOutcome) -> bool:
        if not outcome.detected:
            return False
        return detects(program.ub_type, outcome.result.report.kind)

    @staticmethod
    def _wrong_reports(program: UBProgram,
                       detectors: List[ConfigOutcome]) -> List[WrongReportCandidate]:
        """Report-content mismatches between two detecting configurations of
        the *same* compiler+sanitizer (different levels)."""
        candidates: List[WrongReportCandidate] = []
        seen_pairs = set()
        for i, first in enumerate(detectors):
            for second in detectors[i + 1:]:
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
                        program=program, first=first, second=second,
                        difference=difference))
        return candidates


def _report_difference(first: ConfigOutcome, second: ConfigOutcome) -> Optional[str]:
    a, b = first.result.report, second.result.report
    if a.kind != b.kind:
        return f"report kind {a.kind} vs {b.kind}"
    if a.location.is_known and b.location.is_known and a.location.line != b.location.line:
        return f"report line {a.location.line} vs {b.location.line}"
    return None
