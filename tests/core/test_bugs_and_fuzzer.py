"""Tests for bug triage, deduplication and the fuzzing campaign."""

import dataclasses

import pytest

from repro.compilers.versions import all_versions, trunk_version
from repro.core import (
    BugTriager,
    CampaignConfig,
    FuzzingCampaign,
    STATUS_CONFIRMED,
    STATUS_FIXED,
    STATUS_INVALID,
    UBType,
)
from repro.core.bugs import BugReport
from repro.core.differential import TestConfig as Config
from repro.sanitizers.defects import default_defects


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


def test_campaign_grouping_helpers(small_campaign):
    by_cs = small_campaign.bugs_by_compiler_sanitizer()
    assert sum(len(v) for v in by_cs.values()) == len(small_campaign.bug_reports)
    by_ub = small_campaign.bugs_by_ub_type()
    assert all(isinstance(k, UBType) for k in by_ub)
    by_cat = small_campaign.bugs_by_category()
    assert by_cat


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


def test_wrong_report_versions_span_the_defect_window():
    """Pinned regression: wrong-report bugs used to hardcode
    ``affected_versions=[trunk]``; they must cover the responsible
    defect's whole activity window."""
    triager = BugTriager()
    [defect] = [d for d in default_defects()
                if d.defect_id == "gcc-ubsan-line-info"]
    config = Config(compiler="gcc", sanitizer="ubsan", opt_level="-O0")
    versions = triager._wrong_report_versions(defect, config)
    expected = [v for v in all_versions("gcc")
                if defect.active_for("gcc", v, "ubsan", "-O0")]
    assert versions == expected
    assert len(versions) > 1  # introduced at 12, open: 12..trunk
    # A config outside the defect's declared levels falls back to the
    # defect's own levels instead of failing to anchor.
    off_level = Config(compiler="gcc", sanitizer="ubsan",
                           opt_level="-O3")
    assert triager._wrong_report_versions(defect, off_level) == expected
    # No defect: the observation itself (trunk) is all we know.
    assert triager._wrong_report_versions(None, config) == [
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
