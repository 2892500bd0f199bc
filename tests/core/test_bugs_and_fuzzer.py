"""Tests for bug triage, deduplication and the fuzzing campaign."""

import dataclasses

import pytest

from repro.compilers import CompilationCache
from repro.compilers.binary import CompiledBinary
from repro.compilers.compiler import SimulatedCompiler
from repro.compilers.options import ALL_OPT_LEVELS
from repro.compilers.versions import all_versions, trunk_version
from repro.core import (
    BugTriager,
    CampaignConfig,
    Cell,
    FuzzingCampaign,
    STATUS_CONFIRMED,
    STATUS_FIXED,
    STATUS_INVALID,
    SeedBatch,
    UBType,
    WrongReportCandidate,
)
from repro.core.bugs import BugReport
from repro.core.differential import TestConfig as Config
from repro.core.fuzzer import (_fn_signature, _representatives,
                               _wrong_report_signature)
from repro.sanitizers.defects import default_defects
from repro.telemetry import runtime as telemetry
from repro.triage import CrashProbe, RevisionBisector
from repro.utils.errors import CompilationError


# The tiny campaign fixture (2 seeds, 3 opt levels) is shared session-wide.

def test_campaign_generates_and_tests_programs(small_campaign):
    assert small_campaign.stats.programs_tested > 0
    assert small_campaign.stats.seeds_used == 2
    assert small_campaign.stats.total_programs() == small_campaign.stats.programs_tested
    assert small_campaign.stats.duration_seconds > 0


def test_campaign_finds_fn_bug_candidates(small_campaign):
    assert small_campaign.stats.fn_candidates > 0
    assert small_campaign.bug_reports


def test_campaign_bug_reports_are_deduplicated(small_campaign):
    ids = [report.bug_id for report in small_campaign.bug_reports]
    assert len(ids) == len(set(ids))


def test_campaign_bugs_are_confirmed_against_seeded_defects(small_campaign):
    confirmed = [r for r in small_campaign.bug_reports if r.confirmed]
    assert confirmed, "expected at least one triaged (confirmed) bug"
    for report in confirmed:
        assert report.defect is not None
        assert report.category is not None
        assert report.compiler == report.defect.compiler
        assert report.sanitizer == report.defect.sanitizer


def test_campaign_bug_reports_record_affected_levels_and_versions(small_campaign):
    for report in small_campaign.bug_reports:
        if not report.confirmed:
            continue
        assert report.affected_opt_levels
        assert report.affected_versions
        assert all(isinstance(v, int) for v in report.affected_versions)


def test_campaign_counts_optimization_discrepancies(small_campaign):
    # Crash-site mapping must have filtered at least some discrepancies, or
    # classified all of them as bugs; either way the counter is consistent.
    assert small_campaign.stats.optimization_discrepancies >= 0
    assert small_campaign.stats.discrepant_programs <= small_campaign.stats.programs_tested


def test_campaign_without_triage_produces_no_reports():
    config = CampaignConfig(num_seeds=1, rng_seed=3, max_programs_per_type=1,
                            opt_levels=("-O0", "-O2"), triage=False)
    result = FuzzingCampaign(config).run()
    assert result.bug_reports == []


def test_campaign_with_empty_defect_registry_finds_no_bugs():
    """With correct sanitizers there is nothing to find: every discrepancy is
    optimization-caused and crash-site mapping filters it out."""
    config = CampaignConfig(num_seeds=1, rng_seed=11, max_programs_per_type=1,
                            opt_levels=("-O0", "-O2"), defect_registry=[])
    result = FuzzingCampaign(config).run()
    assert result.bug_reports == []
    assert result.stats.fn_candidates == 0


# -- triager unit behaviour ------------------------------------------------------------

def test_triager_attributes_candidate_to_defect(small_campaign):
    triager = BugTriager()
    candidate = small_campaign.fn_candidates[0]
    report = triager.triage_fn_candidate(candidate)
    assert isinstance(report, BugReport)
    assert report.status in (STATUS_CONFIRMED, STATUS_FIXED, STATUS_INVALID)
    assert report.ub_type == candidate.program.ub_type


def test_standalone_triager_compiles_every_cell_through_one_cache(
        small_campaign, monkeypatch):
    """A triager built without a cache keeps one private cache for its
    lifetime: every cell it compiles reads through it, so one program's
    cells share its frontend master."""
    triager = BugTriager()
    caches = set()
    real_compile = SimulatedCompiler.compile

    def recording_compile(self, *args, **kwargs):
        caches.add(id(self.cache))
        return real_compile(self, *args, **kwargs)

    monkeypatch.setattr(SimulatedCompiler, "compile", recording_compile)
    triager.triage_fn_candidate(small_campaign.fn_candidates[0])
    assert caches == {id(triager.compilation_cache)}
    assert triager.compilation_cache.stats()["frontend_entries"] == 1
    assert triager.compilation_cache.stats()["hits"] > 0


def test_triage_runs_are_execute_stages(small_campaign, monkeypatch):
    """Triage runs its cells through the differential tester's
    ``run_cell``: every binary it runs is one ``execute`` observation."""
    runs = []
    real_run = CompiledBinary.run

    def counting_run(self, *args, **kwargs):
        runs.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(CompiledBinary, "run", counting_run)
    session = telemetry.enable(campaign="t-triage-execute")
    try:
        BugTriager().triage_fn_candidate(small_campaign.fn_candidates[0])
        executed = session.metrics.histogram("stage.execute.seconds").count
    finally:
        telemetry.disable()
    assert runs
    assert executed == len(runs)


def test_triager_status_fixed_requires_fixed_version(small_campaign):
    for report in small_campaign.bug_reports:
        if report.status == STATUS_FIXED:
            assert report.defect.fixed_version is not None
        if report.status == STATUS_CONFIRMED and report.defect is not None:
            assert report.defect.fixed_version is None


def test_triager_deduplicate_merges_metadata():
    defect = default_defects()[0]
    def make(levels):
        return BugReport(bug_id="x", compiler="gcc", sanitizer="asan",
                         ub_type=UBType.BUFFER_OVERFLOW_ARRAY, program=None,
                         crash_site=None, defect=defect,
                         affected_opt_levels=levels, affected_versions=[6])
    merged = BugTriager().deduplicate([make(["-O2"]), make(["-O3"])])
    assert len(merged) == 1
    assert set(merged[0].affected_opt_levels) == {"-O2", "-O3"}


def _confirmed_fn_pair(small_campaign):
    """(candidate, report) for an FN candidate attributed to an open
    defect whose window started before trunk."""
    triager = BugTriager()
    for candidate in small_campaign.fn_candidates:
        report = triager.triage_fn_candidate(candidate)
        if (report.defect is not None and report.defect.fixed_version is None
                and report.defect.introduced_version
                < trunk_version(report.compiler)):
            return candidate, report
    pytest.skip("campaign found no open pre-trunk defect")


def _never_fires(defect):
    """A same-compiler/sanitizer decoy defect that never changes behaviour."""
    return dataclasses.replace(
        defect, defect_id="decoy-never-fires",
        check_predicate=lambda expr, detail: False,
        runtime_overrides={}, line_skew=0, fixed_version=None)


def test_triager_attributes_defect_fixed_before_trunk(small_campaign):
    """Pinned regression: a defect whose window closes at trunk must still
    be attributed (probed at its newest active release) and must beat a
    decoy that is active at trunk but explains nothing.  The trunk-only
    probe could do neither: the fixed defect's removal changed nothing at
    trunk, and removing *any* defect "detected" once nothing hid the UB."""
    candidate, report = _confirmed_fn_pair(small_campaign)
    defect = report.defect
    trunk = trunk_version(report.compiler)
    fixed = dataclasses.replace(defect, fixed_version=trunk)
    # The decoy comes first so a wrong attribution order would pick it.
    triager = BugTriager(registry=[_never_fires(defect), fixed])
    fixed_report = triager.triage_fn_candidate(candidate)
    assert fixed_report.defect is not None
    assert fixed_report.defect.defect_id == defect.defect_id
    assert fixed_report.status == STATUS_FIXED
    assert not fixed_report.bug_id.startswith("unexplained-")
    assert trunk not in fixed_report.affected_versions


def test_triager_never_credits_an_inert_defect(small_campaign):
    """With only the decoy registered nothing explains the miss: the
    report must come back unexplained instead of crediting the decoy."""
    candidate, report = _confirmed_fn_pair(small_campaign)
    triager = BugTriager(registry=[_never_fires(report.defect)])
    decoy_report = triager.triage_fn_candidate(candidate)
    assert decoy_report.defect is None
    assert decoy_report.status == STATUS_INVALID


@pytest.mark.parametrize("opt_level", ALL_OPT_LEVELS)
@pytest.mark.parametrize("defect", default_defects(),
                         ids=lambda defect: defect.defect_id)
def test_wrong_report_versions_span_the_defect_window(defect, opt_level):
    """Pinned regression: wrong-report bugs used to hardcode
    ``affected_versions=[trunk]``; they must cover the responsible
    defect's whole activity window.  The reference is what bisecting the
    defect's activity from its newest active release finds, at the
    config's level or, outside the defect's levels, at its first one."""
    compiler, sanitizer = defect.compiler, defect.sanitizer
    level = opt_level
    if defect.opt_levels and level not in defect.opt_levels:
        level = defect.opt_levels[0]
    live = [v for v in all_versions(compiler)
            if v >= defect.introduced_version
            and (defect.fixed_version is None or v < defect.fixed_version)]
    expected = [trunk_version(compiler)]
    if live:
        expected = RevisionBisector(compiler).bisect(
            lambda v: defect.active_for(compiler, v, sanitizer, level),
            live[-1]).affected_versions
    config = Config(compiler=compiler, sanitizer=sanitizer,
                    opt_level=opt_level)
    assert BugTriager()._wrong_report_versions(defect, config) == expected


def test_wrong_report_versions_without_a_defect_are_trunk():
    # No defect: the observation itself (trunk) is all we know.
    config = Config(compiler="gcc", sanitizer="ubsan", opt_level="-O0")
    assert BugTriager()._wrong_report_versions(None, config) == [
        trunk_version("gcc")]


def test_wrong_report_candidates_carry_bisected_versions(small_campaign):
    for candidate in small_campaign.wrong_report_candidates[:3]:
        report = BugTriager().triage_wrong_report(candidate)
        assert report.affected_versions
        if report.defect is not None:
            for version in report.affected_versions:
                assert report.defect.active_for(
                    report.compiler, version, report.sanitizer,
                    report.defect.opt_levels[0]
                    if report.defect.opt_levels else "-O2")


def test_triager_deduplicate_counts_merges_and_keeps_best_reduction():
    """Pinned regression: deduplicate used to leave the number of merged
    duplicates untracked."""
    defect = default_defects()[0]
    def make(levels):
        return BugReport(bug_id="x", compiler="gcc", sanitizer="asan",
                         ub_type=UBType.BUFFER_OVERFLOW_ARRAY, program=None,
                         crash_site=None, defect=defect,
                         affected_opt_levels=levels, affected_versions=[6])
    first = make(["-O2"])
    [merged] = BugTriager().deduplicate([
        first, make(["-O3"]), make(["-O1"]), make(["-Os"])])
    assert merged is first
    assert merged.metadata["merged_duplicates"] == 3


# -- triage reads the matrix's evidence --------------------------------------------------

def _record_compiles(monkeypatch):
    """Record every compile as (source, compiler, version, registry defect
    ids, sanitizer, opt level)."""
    compiles = []
    real_compile = SimulatedCompiler.compile

    def recording_compile(self, source, options=None, **kwargs):
        compiles.append((source, self.name, self.version,
                         tuple(d.defect_id for d in self.defect_registry),
                         options.sanitizer, options.opt_level))
        return real_compile(self, source, options, **kwargs)

    monkeypatch.setattr(SimulatedCompiler, "compile", recording_compile)
    return compiles


def _summaries(reports):
    return [(r.bug_id, r.status, r.defect.defect_id if r.defect else None,
             r.affected_opt_levels, r.affected_versions) for r in reports]


def test_triage_runs_no_cell_twice(small_campaign, monkeypatch):
    """Triage reads the cells the differential matrix ran instead of
    running them again, and runs each of its own cells once."""
    campaign = FuzzingCampaign(small_campaign.config)
    registry = tuple(d.defect_id for d in campaign.registry)
    matrix = {(result.program.source, cell.config.compiler,
               trunk_version(cell.config.compiler), registry,
               cell.config.sanitizer, cell.config.opt_level)
              for result in small_campaign.differential_results
              for cell in result.cells}
    compiles = _record_compiles(monkeypatch)
    result = campaign.collect([SeedBatch(
        seed_index=0, generated=True,
        diff_results=small_campaign.differential_results)])
    assert _summaries(result.bug_reports) == _summaries(
        small_campaign.bug_reports)
    assert compiles
    assert len(set(compiles)) == len(compiles)
    assert not matrix & set(compiles)


def test_matrix_evidence_changes_no_report(small_campaign):
    """The matrix's runs only save work: a triager without them reaches
    the same report for every representative."""
    max_steps = small_campaign.config.max_steps
    cache = CompilationCache()
    fresh = BugTriager(max_steps=max_steps, compilation_cache=cache)
    seeded = BugTriager(max_steps=max_steps, compilation_cache=cache)
    seeded.observe(small_campaign.differential_results)
    fn_candidates = _representatives(small_campaign.fn_candidates,
                                     _fn_signature)
    wrong_reports = _representatives(small_campaign.wrong_report_candidates,
                                     _wrong_report_signature)
    assert fn_candidates and wrong_reports

    def triage(triager):
        return _summaries(
            [triager.triage_fn_candidate(c) for c in fn_candidates]
            + [triager.triage_wrong_report(c) for c in wrong_reports])

    assert triage(fresh) == triage(seeded)


def test_kind_and_line_mismatches_get_separate_representatives():
    """Pinned regression: the representative signature keyed on the first
    word of the difference, which is "report" for every mismatch, so a kind
    mismatch and a line mismatch of one compiler and sanitizer shared one
    representative and only the first of them was triaged."""
    first = Cell(Config("gcc", "asan", "-O0"), ("sanitizer_report",
                                                 "stack-buffer-overflow"))
    second = Cell(Config("gcc", "asan", "-O2"), ("sanitizer_report",
                                                  "global-buffer-overflow"))
    kind, line = (WrongReportCandidate(program=None, first=first,
                                       second=second, difference=difference)
                  for difference in ("report kind stack-buffer-overflow vs "
                                     "global-buffer-overflow",
                                     "report line 3 vs 5"))
    assert _representatives([kind, line], _wrong_report_signature) == [
        kind, line]


def test_triage_and_crash_probe_count_swallowed_compile_errors(
        small_campaign, monkeypatch):
    """Pinned regression: triage and ``CrashProbe`` read a compile error
    as "no result" without counting it in ``compile.errors``."""
    failing_level = "-O1"
    failed = []
    real_compile = SimulatedCompiler.compile

    def compile_failing_at_one_level(self, source, options=None, **kwargs):
        if options.opt_level == failing_level:
            failed.append((source, self.version, options.sanitizer))
            raise CompilationError("forced compile error")
        return real_compile(self, source, options, **kwargs)

    monkeypatch.setattr(SimulatedCompiler, "compile",
                        compile_failing_at_one_level)
    candidate = small_campaign.fn_candidates[0]
    config = candidate.missing.config
    probe = CrashProbe(candidate.program.source, candidate.program.ub_type,
                       config.compiler, config.sanitizer, failing_level)
    session = telemetry.enable(campaign="t-triage-compile-errors")
    try:
        report = BugTriager().triage_fn_candidate(candidate)
        triaged = session.metrics.counter_value("compile.errors")
        # A program that does not compile hides no UB: not bad.
        assert not probe(trunk_version(config.compiler))
        probed = session.metrics.counter_value("compile.errors") - triaged
    finally:
        telemetry.disable()
    assert failing_level not in report.affected_opt_levels
    assert triaged >= 1 and probed == 1
    assert triaged + probed == len(failed)
