"""Bug reports, deduplication and root-cause triage.

The fuzzing campaign turns oracle-confirmed discrepancies
(:class:`~repro.core.differential.FNBugCandidate`) into
:class:`BugReport` objects, mirroring how the paper's authors reduced and
reported their findings:

* **deduplication** — many UB programs trigger the same underlying compiler
  defect; candidates are grouped so one report corresponds to one distinct
  bug;
* **triage** — the responsible defect is located by *disabling one
  seeded defect at a time*: the program is recompiled for the silent
  configuration without one defect, and the defect whose removal makes
  the sanitizer detect the UB again is the root cause.  This mirrors the
  "confirmed by developers / root-cause analysis" step of §4.6 and gives
  us the ground truth for Table 6, Figures 10 and 11;
* **status** — a report is *confirmed* when triage identifies a seeded
  defect, *fixed* when that defect has a ``fixed_version``, and *invalid*
  when no defect explains it (the tool's false alarm — the paper had exactly
  one such report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.compilers.cache import CompilationCache
from repro.compilers.options import ALL_OPT_LEVELS
from repro.compilers.versions import (all_versions, stable_versions,
                                      trunk_version)
from repro.core.differential import (DifferentialResult, FNBugCandidate,
                                     TestConfig, Verdict,
                                     WrongReportCandidate, detected,
                                     run_cell, verdict_of)
from repro.core.insertion import UBProgram
from repro.core.ub_types import UBType
from repro.sanitizers.defects import Defect, default_defects

STATUS_REPORTED = "reported"
STATUS_CONFIRMED = "confirmed"
STATUS_FIXED = "fixed"
STATUS_INVALID = "invalid"


@dataclass
class BugReport:
    """One deduplicated sanitizer bug found by the campaign.

    ``bug_id`` names the seeded defect triage attributed the bug to (or an
    ``unexplained-…`` placeholder); ``status`` is one of the ``STATUS_*``
    constants; ``affected_opt_levels`` / ``affected_versions`` reproduce
    Figures 10-11; ``metadata`` carries the detecting/missing configuration
    labels and, on a report that absorbed duplicates, ``merged_duplicates``.
    """

    bug_id: str
    compiler: str
    sanitizer: str
    ub_type: UBType
    program: UBProgram
    crash_site: Optional[tuple]
    is_false_negative: bool = True
    defect: Optional[Defect] = None
    status: str = STATUS_REPORTED
    category: Optional[str] = None
    affected_opt_levels: List[str] = field(default_factory=list)
    affected_versions: List[int] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def confirmed(self) -> bool:
        return self.status in (STATUS_CONFIRMED, STATUS_FIXED)


class BugTriager:
    """Attributes FN bug candidates to seeded defects and builds reports.

    Every run triage reads is a cell verdict in one table the triager
    keeps for its lifetime, so no cell runs twice; :meth:`observe` seeds
    it with the differential matrix's runs.

    Args:
        registry: defect registry to attribute to (default: the seeded one).
        max_steps: VM step budget per run.
        compilation_cache: the
            :class:`~repro.compilers.cache.CompilationCache` every cell
            compiles through (a campaign passes its own); by default the
            triager keeps a private one.
    """

    def __init__(self, registry: Optional[Sequence[Defect]] = None,
                 max_steps: int = 200_000,
                 compilation_cache: Optional[CompilationCache] = None) -> None:
        self.registry = list(registry) if registry is not None else default_defects()
        self.max_steps = max_steps
        # All cells of one program at one level share its parse and
        # optimizer run: releases share flat pipelines, and registries only
        # affect the sanitizer overlay.
        self.compilation_cache = (compilation_cache
                                  if compilation_cache is not None
                                  else CompilationCache())
        #: (source, compiler, version, sanitizer, opt level, disabled
        #: defect id or None) -> that cell's verdict.
        self._cells: Dict[tuple, Verdict] = {}

    # -- public ------------------------------------------------------------------

    def observe(self, results: Iterable[DifferentialResult]) -> None:
        """Record the matrix's outcomes as trunk cells of the full registry:
        valid when its compilers share this triager's registry and
        ``max_steps``, as in :class:`~repro.core.fuzzer.FuzzingCampaign`.
        Batches restored from a checkpoint have no outcomes to record."""
        for result in results:
            for outcome in result.outcomes:
                config = outcome.config
                key = (result.program.source, config.compiler,
                       trunk_version(config.compiler), config.sanitizer,
                       config.opt_level, None)
                self._cells[key] = verdict_of(outcome.result)

    def triage_fn_candidate(self, candidate: FNBugCandidate) -> BugReport:
        config = candidate.missing.config
        defect = self._attribute_defect(candidate)
        status = STATUS_INVALID
        category = None
        if defect is not None:
            status = STATUS_FIXED if defect.fixed_version is not None else STATUS_CONFIRMED
            category = defect.category
        bug_id = defect.defect_id if defect is not None else (
            f"unexplained-{config.compiler}-{config.sanitizer}-"
            f"{candidate.program.ub_type.value}")
        report = BugReport(
            bug_id=bug_id, compiler=config.compiler, sanitizer=config.sanitizer,
            ub_type=candidate.program.ub_type, program=candidate.program,
            crash_site=candidate.crash_site, defect=defect, status=status,
            category=category, is_false_negative=True,
            metadata={"missing_config": config.label,
                      "detecting_config": candidate.detecting.config.label})
        report.affected_opt_levels = self._affected_opt_levels(report)
        report.affected_versions = self._affected_versions(report)
        return report

    def triage_wrong_report(self, candidate: WrongReportCandidate) -> BugReport:
        config = candidate.second.config
        defect = self._find_wrong_report_defect(candidate)
        status = STATUS_CONFIRMED if defect is not None else STATUS_REPORTED
        bug_id = defect.defect_id if defect is not None else (
            f"wrong-report-{config.compiler}-{config.sanitizer}")
        return BugReport(
            bug_id=bug_id, compiler=config.compiler, sanitizer=config.sanitizer,
            ub_type=candidate.program.ub_type, program=candidate.program,
            crash_site=None, defect=defect, status=status,
            category=defect.category if defect is not None else None,
            is_false_negative=False,
            affected_opt_levels=[candidate.first.config.opt_level,
                                 candidate.second.config.opt_level],
            affected_versions=self._wrong_report_versions(defect, config),
            metadata={"difference": candidate.difference})

    def deduplicate(self, reports: List[BugReport]) -> List[BugReport]:
        """Keep one report per distinct bug id (defect)."""
        unique: Dict[str, BugReport] = {}
        for report in reports:
            existing = unique.get(report.bug_id)
            if existing is None:
                unique[report.bug_id] = report
                continue
            # Merge affected levels/versions observed through other programs.
            existing.affected_opt_levels = sorted(
                set(existing.affected_opt_levels) | set(report.affected_opt_levels),
                key=ALL_OPT_LEVELS.index)
            existing.affected_versions = sorted(
                set(existing.affected_versions) | set(report.affected_versions))
            existing.metadata["merged_duplicates"] = (
                existing.metadata.get("merged_duplicates", 0) + 1)
        return list(unique.values())

    # -- internals ---------------------------------------------------------------

    def _run(self, program: UBProgram, compiler: str, version: int,
             sanitizer: str, opt_level: str,
             disabled: Optional[Defect] = None) -> Verdict:
        """One cell's verdict, with *disabled* left out of the registry;
        compiled and run only the first time the cell is asked for."""
        key = (program.source, compiler, version, sanitizer, opt_level,
               disabled.defect_id if disabled is not None else None)
        if key not in self._cells:
            self._cells[key] = verdict_of(run_cell(
                self.compilation_cache, program.source,
                TestConfig(compiler, sanitizer, opt_level),
                [d for d in self.registry if d is not disabled],
                self.max_steps, version=version).result)
        return self._cells[key]

    def _attribute_defect(self, candidate: FNBugCandidate) -> Optional[Defect]:
        """Disable one defect at a time until the sanitizer detects the UB.

        Each defect live at the missing config's level is probed at the
        newest release of its window, so a defect fixed at or before trunk
        is still attributed (``STATUS_FIXED``); disabling any other defect
        changes no binary.  A probe counts only where the full registry
        misses the UB (a program that does not compile counts as missed),
        or a defect probed where nothing hides the UB would take credit."""
        config = candidate.missing.config
        program = candidate.program

        def detects_ub(version: int, disabled: Optional[Defect] = None):
            return detected(self._run(program, config.compiler, version,
                                      config.sanitizer, config.opt_level,
                                      disabled), program.ub_type)

        for defect in self.registry:
            window = self._defect_window(defect, config.compiler,
                                         config.sanitizer, config.opt_level,
                                         all_versions(config.compiler))
            if (window and not detects_ub(window[-1])
                    and detects_ub(window[-1], disabled=defect)):
                return defect
        return None

    @staticmethod
    def _defect_window(defect: Defect, compiler: str, sanitizer: str,
                       opt_level: str, versions: Sequence[int]) -> List[int]:
        """The *versions* where *defect* is live at *opt_level*."""
        return [version for version in versions
                if defect.active_for(compiler, version, sanitizer, opt_level)]

    def _wrong_report_versions(self, defect: Optional[Defect],
                               config) -> List[int]:
        """The releases a wrong-report bug affects (Figure 10): its defect's
        window over every release, at the config's level or, when that is
        not one of the defect's, at its first; else ``[trunk]``."""
        window: List[int] = []
        if defect is not None:
            opt_level = config.opt_level
            if defect.opt_levels and opt_level not in defect.opt_levels:
                opt_level = defect.opt_levels[0]
            window = self._defect_window(defect, config.compiler,
                                         config.sanitizer, opt_level,
                                         all_versions(config.compiler))
        return window or [trunk_version(config.compiler)]

    def _find_wrong_report_defect(self, candidate: WrongReportCandidate) -> Optional[Defect]:
        config = candidate.second.config
        for defect in self.registry:
            if defect.compiler == config.compiler \
                    and defect.sanitizer == config.sanitizer and defect.line_skew:
                return defect
        return None

    def _exits_normally(self, report: BugReport, version: int,
                        opt_level: str) -> bool:
        verdict = self._run(report.program, report.compiler, version,
                            report.sanitizer, opt_level)
        return verdict is not None and verdict[0] == "ok"

    def _affected_opt_levels(self, report: BugReport) -> List[str]:
        """Optimization levels at which the bug hides the UB (Figure 11)."""
        trunk = trunk_version(report.compiler)
        return [opt_level for opt_level in ALL_OPT_LEVELS
                if self._exits_normally(report, trunk, opt_level)]

    def _affected_versions(self, report: BugReport) -> List[int]:
        """Stable releases affected by the bug (Figure 10), at its first
        affected level: its defect's window, or every release where the
        program exits normally — a sweep, since nothing makes an
        unexplained miss one contiguous window, as bisection assumes."""
        opt_level = report.affected_opt_levels[0] if report.affected_opt_levels else "-O2"
        versions = stable_versions(report.compiler)
        if report.defect is not None:
            return self._defect_window(report.defect, report.compiler,
                                       report.sanitizer, opt_level, versions)
        return [version for version in versions
                if self._exits_normally(report, version, opt_level)]
