"""Bug reports, deduplication and root-cause triage.

The fuzzing campaign turns oracle-confirmed discrepancies
(:class:`~repro.core.differential.FNBugCandidate`) into
:class:`BugReport` objects, mirroring how the paper's authors reduced and
reported their findings:

* **deduplication** — many UB programs trigger the same underlying compiler
  defect; candidates are grouped so one report corresponds to one distinct
  bug;
* **triage** — the responsible defect is located by *bisection over the
  defect registry*: the program is recompiled for the silent configuration
  with one seeded defect disabled at a time, and the defect whose removal
  makes the sanitizer detect the UB again is the root cause.  This mirrors
  the "confirmed by developers / root-cause analysis" step of §4.6 and gives
  us the ground truth for Table 6, Figures 10 and 11;
* **status** — a report is *confirmed* when triage identifies a seeded
  defect, *fixed* when that defect has a ``fixed_version``, and *invalid*
  when no defect explains it (the tool's false alarm — the paper had exactly
  one such report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.compilers.compiler import make_compiler
from repro.compilers.options import ALL_OPT_LEVELS, CompileOptions
from repro.compilers.versions import stable_versions, trunk_version
from repro.core.crash_site import is_sanitizer_bug_from_results
from repro.core.differential import FNBugCandidate, WrongReportCandidate
from repro.core.insertion import UBProgram
from repro.core.ub_types import UBType, detects
from repro.sanitizers.defects import Defect, default_defects
from repro.utils.errors import CompilationError

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
    labels and, when reduction ran, its quality stats.
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

    Args:
        registry: defect registry to bisect over (default: the seeded one).
        max_steps: VM step budget per probe execution.
        compilation_cache: optional shared
            :class:`~repro.compilers.cache.CompilationCache`.
        reduce: reduce every FN candidate's program to a minimal reproducer
            (via :func:`repro.reduction.reduce_fn_candidate`) before
            bisection and deduplication — smaller programs make every
            bisection probe cheaper and the filed report minimal.
        reduce_jobs: worker processes for reduction candidate evaluation.
    """

    def __init__(self, registry: Optional[Sequence[Defect]] = None,
                 max_steps: int = 200_000,
                 compilation_cache=None,
                 reduce: bool = False,
                 reduce_jobs: int = 1) -> None:
        self.registry = list(registry) if registry is not None else default_defects()
        self.max_steps = max_steps
        # Sharing the campaign's CompilationCache pays off heavily here:
        # bisection probes the same program once per (version, opt level,
        # disabled defect), and the cached phases are keyed on (source,
        # compiler, opt level, pass list), which every flat release shares
        # — defect registries only affect the uncached sanitizer overlay.
        self.compilation_cache = compilation_cache
        self.reduce = reduce
        self.reduce_jobs = reduce_jobs
        self._reduction_tester = None

    # -- public ------------------------------------------------------------------

    def triage_fn_candidate(self, candidate: FNBugCandidate) -> BugReport:
        reduction = None
        if self.reduce:
            candidate, reduction = self._reduce_candidate(candidate)
        config = candidate.missing.config
        defect = self._bisect_defect(candidate)
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
        if reduction is not None:
            report.metadata["reduction"] = {
                "original_tokens": reduction.original_tokens,
                "reduced_tokens": reduction.reduced_tokens,
                "token_reduction": round(reduction.token_reduction, 4),
                "predicate_evaluations": reduction.predicate_evaluations,
                "duration_seconds": round(reduction.duration_seconds, 3)}
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
            self._merge_metadata(existing, report)
        return list(unique.values())

    @staticmethod
    def _merge_metadata(existing: BugReport, report: BugReport) -> None:
        """Fold a duplicate's metadata into the kept report: count the
        merge and keep the best (smallest) reduced reproducer, so reduction
        work done on any duplicate survives deduplication."""
        existing.metadata["merged_duplicates"] = (
            existing.metadata.get("merged_duplicates", 0) + 1)
        theirs = report.metadata.get("reduction")
        if theirs is not None:
            ours = existing.metadata.get("reduction")
            if ours is None or (theirs.get("reduced_tokens", float("inf"))
                                < ours.get("reduced_tokens", float("inf"))):
                existing.metadata["reduction"] = dict(theirs)

    # -- internals ---------------------------------------------------------------

    def _reduce_candidate(self, candidate: FNBugCandidate):
        """Shrink the candidate's program before bisection (lazy import:
        :mod:`repro.reduction` sits above :mod:`repro.core`)."""
        from repro.core.differential import DifferentialTester
        from repro.reduction import reduce_fn_candidate

        if self._reduction_tester is None:
            cache = (self.compilation_cache
                     if self.compilation_cache is not None else True)
            self._reduction_tester = DifferentialTester(max_steps=self.max_steps,
                                                        cache=cache)
        return reduce_fn_candidate(candidate, tester=self._reduction_tester,
                                   jobs=self.reduce_jobs)

    def _run(self, program: UBProgram, compiler_name: str, version: int,
             sanitizer: str, opt_level: str, registry: Sequence[Defect]):
        compiler = make_compiler(compiler_name, version=version,
                                 defect_registry=registry,
                                 cache=self.compilation_cache)
        try:
            binary = compiler.compile(program.source,
                                      CompileOptions(opt_level=opt_level,
                                                     sanitizer=sanitizer))
        except CompilationError:
            return None
        return binary.run(max_steps=self.max_steps)

    def _bisect_defect(self, candidate: FNBugCandidate) -> Optional[Defect]:
        """Disable one defect at a time until the sanitizer detects the UB.

        Each defect is probed at the newest release it is *active* on —
        probing only at trunk could never attribute a defect whose window
        closed at or before trunk (its removal changes nothing there), so
        fixed bugs came back ``unexplained-…`` instead of
        ``STATUS_FIXED``.  Sweeping the timeline needs a guard the
        trunk-only probe got implicitly from the campaign's observation:
        the UB must actually be *missed* with the full registry at the
        probed release, otherwise any defect probed at a release where
        nothing hides the UB would take credit."""
        config = candidate.missing.config
        program = candidate.program
        trunk = trunk_version(config.compiler)
        missed_at: Dict[int, bool] = {}

        def missed(version: int) -> bool:
            if version not in missed_at:
                result = self._run(program, config.compiler, version,
                                   config.sanitizer, config.opt_level,
                                   self.registry)
                missed_at[version] = not self._detected(result,
                                                        program.ub_type)
            return missed_at[version]

        for defect in self.registry:
            if defect.compiler != config.compiler or defect.sanitizer != config.sanitizer:
                continue
            version = self._newest_active_version(defect, trunk)
            if version is None or not missed(version):
                continue
            reduced = [d for d in self.registry if d is not defect]
            result = self._run(program, config.compiler, version,
                               config.sanitizer, config.opt_level, reduced)
            if self._detected(result, program.ub_type):
                return defect
        return None

    @staticmethod
    def _detected(result, ub_type: UBType) -> bool:
        return (result is not None and result.crashed
                and result.report is not None
                and detects(ub_type, result.report.kind))

    @staticmethod
    def _newest_active_version(defect: Defect, trunk: int) -> Optional[int]:
        """The newest release a defect is live on: trunk for open defects,
        the release before the fix otherwise (None when the window is
        empty — the defect never shipped)."""
        version = trunk
        if defect.fixed_version is not None:
            version = min(version, defect.fixed_version - 1)
        if version < defect.introduced_version:
            return None
        return version

    def _wrong_report_versions(self, defect: Optional[Defect],
                               config) -> List[int]:
        """The releases a wrong-report bug actually affects.

        Bisected over the responsible defect's activity window (lazy
        import: :mod:`repro.triage` sits above :mod:`repro.core`) instead
        of hardcoding ``[trunk]`` — line-skew defects introduced releases
        ago mis-report on every release of their window, and Figure 10
        needs the real range."""
        trunk = trunk_version(config.compiler)
        if defect is None:
            return [trunk]
        anchor = self._newest_active_version(defect, trunk)
        if anchor is None:
            return [trunk]
        opt_level = config.opt_level
        if defect.opt_levels and opt_level not in defect.opt_levels:
            opt_level = defect.opt_levels[0]
        from repro.triage import RevisionBisector

        bisector = RevisionBisector(config.compiler)
        result = bisector.bisect(
            lambda version: defect.active_for(config.compiler, version,
                                              config.sanitizer, opt_level),
            anchor)
        return result.affected_versions

    def _find_wrong_report_defect(self, candidate: WrongReportCandidate) -> Optional[Defect]:
        config = candidate.second.config
        for defect in self.registry:
            if defect.compiler == config.compiler \
                    and defect.sanitizer == config.sanitizer and defect.line_skew:
                return defect
        return None

    def _affected_opt_levels(self, report: BugReport) -> List[str]:
        """Optimization levels at which the bug hides the UB (Figure 11)."""
        affected: List[str] = []
        version = trunk_version(report.compiler)
        for opt_level in ALL_OPT_LEVELS:
            result = self._run(report.program, report.compiler, version,
                               report.sanitizer, opt_level, self.registry)
            if result is not None and result.exited_normally:
                affected.append(opt_level)
        return affected

    def _affected_versions(self, report: BugReport) -> List[int]:
        """Stable compiler versions affected by the bug (Figure 10)."""
        if report.defect is not None:
            versions = []
            for version in stable_versions(report.compiler):
                if report.defect.active_for(report.compiler, version,
                                            report.sanitizer,
                                            report.affected_opt_levels[0]
                                            if report.affected_opt_levels else "-O2"):
                    versions.append(version)
            return versions
        # Unexplained reports: measure empirically on a single opt level.
        opt_level = report.affected_opt_levels[0] if report.affected_opt_levels else "-O2"
        affected = []
        for version in stable_versions(report.compiler):
            result = self._run(report.program, report.compiler, version,
                               report.sanitizer, opt_level, self.registry)
            if result is not None and result.exited_normally:
                affected.append(version)
        return affected
