"""Tests for the analysis layer: tables, figures, bug-tracker data and the
experiment drivers."""

import pytest

from repro.analysis import (
    ascii_bar_chart,
    bug_summary_rows,
    classify_ub,
    evaluate_oracle_accuracy,
    figure7_bugs_per_ub,
    figure9_summary,
    figure9_tracker_history,
    figure10_affected_versions,
    figure11_affected_opt_levels,
    juliet_programs,
    round_robin_by_seed,
    table2_sanitizer_support,
    table3_bug_status,
    table4_generator_comparison,
    table6_root_causes,
    tracker_history,
)
from repro.analysis.campaign import GeneratorComparison
from repro.core.insertion import UBProgram
from repro.core.ub_types import ALL_UB_TYPES, UBType
from repro.utils.text import format_table


def test_table2_matches_paper_shape():
    headers, rows = table2_sanitizer_support()
    assert len(rows) == 9
    as_dict = {row[0]: row[1] for row in rows}
    assert as_dict["Use of Uninit. Memory"] == "MSan"
    assert "ASan" in as_dict["Buf. Overflow (Array)"]


def test_table3_rows_sum_consistently(small_campaign):
    headers, rows = table3_bug_status(small_campaign)
    assert headers[0] == "Status"
    reported = rows[0]
    confirmed = rows[1]
    assert reported[-1] == len(small_campaign.bug_reports)
    assert confirmed[-1] <= reported[-1]
    # Per-column counts add up to the total column.
    for row in rows:
        assert sum(row[1:-1]) == row[-1]


def test_table6_counts_by_category(small_campaign):
    headers, rows = table6_root_causes(small_campaign)
    total = sum(row[1] + row[2] for row in rows)
    confirmed = sum(1 for r in small_campaign.bug_reports if r.category)
    assert total == confirmed


def test_figure7_counts(small_campaign):
    headers, rows = figure7_bugs_per_ub(small_campaign)
    assert sum(row[1] for row in rows) == len(small_campaign.bug_reports)


def test_figure10_and_11_structures(small_campaign):
    _h10, rows10 = figure10_affected_versions(small_campaign)
    assert any(str(row[0]).startswith("gcc-") for row in rows10)
    _h11, rows11 = figure11_affected_opt_levels(small_campaign)
    assert [row[0] for row in rows11] == ["-O0", "-O1", "-Os", "-O2", "-O3"]


def test_figure9_dataset_totals_match_paper():
    history_gcc = tracker_history("gcc")
    history_llvm = tracker_history("llvm")
    assert history_gcc.total == 40
    assert history_llvm.total == 24
    summary = figure9_summary()
    assert summary["gcc"]["found_by_ubfuzz"] == 16
    assert round(summary["gcc"]["fraction"], 2) == 0.40
    assert round(summary["llvm"]["fraction"], 2) == 0.58
    headers, rows = figure9_tracker_history()
    assert sum(r[1] for r in rows) == 40


def test_bug_summary_rows_and_bar_chart(small_campaign):
    rows = bug_summary_rows(small_campaign.bug_reports)
    assert len(rows) == len(small_campaign.bug_reports)
    chart = ascii_bar_chart([["a", 2], ["b", 4]])
    assert "#" in chart
    assert ascii_bar_chart([]) == "(no data)"


def test_classify_ub_detects_and_rejects():
    assert classify_ub("int d = 0; int main() { return 3 / d; }") == UBType.DIVIDE_BY_ZERO
    assert classify_ub("int main() { return 0; }") is None


def test_classify_ub_parses_its_source_once(monkeypatch):
    """The three classifier configs compile through one cache, so a
    program no sanitizer flags is parsed once, not once per config."""
    from repro.compilers import compiler as compiler_module
    parsed = []
    real_parse = compiler_module.parse_program

    def counting_parse(source):
        parsed.append(source)
        return real_parse(source)

    monkeypatch.setattr(compiler_module, "parse_program", counting_parse)
    source = "int main() { return 0; }"
    assert classify_ub(source) is None
    assert parsed == [source]


def test_juliet_program_wrapper():
    programs = juliet_programs(cases_per_type=1)
    assert len(programs) == 9
    assert {p.ub_type for p in programs} == set(ALL_UB_TYPES)


def test_table4_rendering_from_synthetic_comparison():
    comparison = GeneratorComparison()
    comparison.counts["ubfuzz"] = {ub: 2 for ub in ALL_UB_TYPES}
    comparison.totals["ubfuzz"] = 18
    comparison.no_ub["ubfuzz"] = None
    comparison.counts["music"] = {ub: 0 for ub in ALL_UB_TYPES}
    comparison.totals["music"] = 0
    comparison.no_ub["music"] = 10
    comparison.counts["csmith-nosafe"] = {ub: 0 for ub in ALL_UB_TYPES}
    comparison.totals["csmith-nosafe"] = 0
    comparison.no_ub["csmith-nosafe"] = 5
    headers, rows = table4_generator_comparison(comparison)
    assert rows[0][0] == "ubfuzz"
    assert rows[0][-1] == "-"          # UBfuzz has no "No UB" count
    assert rows[1][-1] == 10
    text = format_table(headers, rows)
    assert "ubfuzz" in text


def test_round_robin_by_seed_draws_on_every_seed_in_turn():
    programs = [UBProgram(source=f"s{seed}p{n}", ub_type=UBType.DIVIDE_BY_ZERO,
                          seed_index=seed)
                for seed, count in ((2, 1), (0, 3), (1, 2)) for n in range(count)]
    assert [p.source for p in round_robin_by_seed(programs)] == [
        "s0p0", "s1p0", "s2p0", "s0p1", "s1p1", "s0p2"]
    assert round_robin_by_seed([]) == []


def test_oracle_accuracy_on_small_campaign(small_campaign):
    accuracy = evaluate_oracle_accuracy(small_campaign, dropped_sample=10)
    assert accuracy.selected == small_campaign.stats.fn_candidates
    assert 0.0 <= accuracy.precision <= 1.0
    assert 0.0 <= accuracy.recall_on_sample <= 1.0
    # The oracle should be strongly precise against ground truth.
    assert accuracy.precision >= 0.9


def test_campaign_cache_keys_on_full_config_and_clears():
    from repro.analysis import clear_campaign_cache, run_bug_finding_campaign
    from repro.analysis.campaign import _CAMPAIGN_CACHE

    scale = dict(num_seeds=2, rng_seed=5, opt_levels=("-O0", "-O2"),
                 max_programs_per_type=1, triage=False)
    first = run_bug_finding_campaign(**scale)
    assert run_bug_finding_campaign(**scale) is first

    # A knob the old tuple key ignored must produce a distinct entry.
    gcc_only = run_bug_finding_campaign(**scale, compilers=("gcc",))
    assert gcc_only is not first
    assert all(r.program is not None for r in gcc_only.differential_results)
    assert len(_CAMPAIGN_CACHE) >= 2

    clear_campaign_cache()
    assert len(_CAMPAIGN_CACHE) == 0
    assert run_bug_finding_campaign(**scale) is not first
