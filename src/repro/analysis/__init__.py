"""Evaluation drivers and table/figure renderers for the paper's experiments."""

from repro.analysis.bugtracker import TrackerHistory, figure9_rows, tracker_history
from repro.analysis.campaign import (
    BaselineBugHunt,
    CampaignCache,
    GeneratorComparison,
    OracleAccuracy,
    classify_ub,
    clear_campaign_cache,
    evaluate_oracle_accuracy,
    juliet_programs,
    measure_corpus_coverage,
    round_robin_by_seed,
    run_baseline_bug_hunt,
    run_bug_finding_campaign,
    run_generator_comparison,
)
from repro.analysis.figures import (
    ascii_bar_chart,
    figure7_bugs_per_ub,
    figure9_summary,
    figure9_tracker_history,
    figure10_affected_versions,
    figure11_affected_opt_levels,
)
from repro.analysis.tables import (
    bug_summary_rows,
    table2_sanitizer_support,
    table3_bug_status,
    table4_generator_comparison,
    table5_coverage,
    table6_root_causes,
    table_attribution,
    table_campaign_recurrence,
    table_known_bugs,
    table_marker_findings,
    table_marker_survival,
    table_reduction_quality,
    table_stage_profile,
)

__all__ = [
    "TrackerHistory", "figure9_rows", "tracker_history",
    "BaselineBugHunt", "CampaignCache", "GeneratorComparison", "OracleAccuracy",
    "classify_ub", "clear_campaign_cache",
    "evaluate_oracle_accuracy", "juliet_programs",
    "measure_corpus_coverage", "round_robin_by_seed", "run_baseline_bug_hunt",
    "run_bug_finding_campaign", "run_generator_comparison",
    "ascii_bar_chart", "figure7_bugs_per_ub", "figure9_summary",
    "figure9_tracker_history", "figure10_affected_versions",
    "figure11_affected_opt_levels",
    "bug_summary_rows", "table2_sanitizer_support", "table3_bug_status",
    "table4_generator_comparison", "table5_coverage", "table6_root_causes",
    "table_attribution", "table_campaign_recurrence", "table_known_bugs",
    "table_marker_findings", "table_marker_survival",
    "table_reduction_quality", "table_stage_profile",
]
