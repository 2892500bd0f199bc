"""Render campaign results as the paper's figures (as data series).

Figures are returned as ``(headers, rows)`` just like the tables: the
benchmark harness prints them as ASCII series, which is the offline
equivalent of the paper's bar charts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.bugtracker import figure9_rows, tracker_history
from repro.compilers.versions import stable_versions, version_label
from repro.core.fuzzer import CampaignResult
from repro.core.ub_types import UBType

Rows = List[List[object]]
Figure = Tuple[List[str], Rows]


def figure7_bugs_per_ub(campaign: CampaignResult) -> Figure:
    """Figure 7: number of bugs triggered by each kind of UB.

    Buffer overflow is split by detecting sanitizer (ASan vs UBSan), as in
    the paper.
    """
    headers = ["UB kind", "Bugs"]
    counts: Dict[str, int] = {}
    for report in campaign.bug_reports:
        label = report.ub_type.display_name
        if report.ub_type in (UBType.BUFFER_OVERFLOW_ARRAY,
                              UBType.BUFFER_OVERFLOW_POINTER):
            label = f"BufOverflow ({report.sanitizer.upper()})"
        counts[label] = counts.get(label, 0) + 1
    rows = [[label, count] for label, count in
            sorted(counts.items(), key=lambda item: -item[1])]
    return headers, rows


def figure9_tracker_history() -> Figure:
    """Figure 9: sanitizer FN bug reports per year in the bug trackers."""
    headers = ["Year", "GCC reports", "LLVM reports"]
    return headers, figure9_rows()


def figure9_summary() -> Dict[str, Dict[str, float]]:
    """The headline numbers quoted in §4.2 (totals and UBfuzz's share)."""
    summary = {}
    for compiler in ("gcc", "llvm"):
        history = tracker_history(compiler)
        summary[compiler] = {
            "total_reports": history.total,
            "found_by_ubfuzz": history.found_by_ubfuzz(),
            "fraction": history.fraction_found_by_ubfuzz(),
        }
    return summary


def figure10_affected_versions(campaign: CampaignResult) -> Figure:
    """Figure 10: stable compiler versions affected by the found bugs."""
    headers = ["Version", "Affected bugs"]
    rows: Rows = []
    for compiler in ("gcc", "llvm"):
        for version in stable_versions(compiler):
            affected = sum(1 for report in campaign.bug_reports
                           if report.compiler == compiler
                           and version in report.affected_versions)
            rows.append([version_label(compiler, version), affected])
    return headers, rows


def figure11_affected_opt_levels(campaign: CampaignResult) -> Figure:
    """Figure 11: number of bugs affecting each optimization level."""
    headers = ["Optimization level", "Affected bugs"]
    levels = ("-O0", "-O1", "-Os", "-O2", "-O3")
    rows = [[level, sum(1 for report in campaign.bug_reports
                        if level in report.affected_opt_levels)]
            for level in levels]
    return headers, rows


def ascii_bar_chart(rows: Rows, value_index: int = 1, width: int = 40) -> str:
    """Tiny ASCII bar chart used when printing figures in the benches."""
    if not rows:
        return "(no data)"
    max_value = max(float(row[value_index]) for row in rows) or 1.0
    lines = []
    for row in rows:
        value = float(row[value_index])
        bar = "#" * int(round(width * value / max_value))
        lines.append(f"{str(row[0]):<24} {bar} {row[value_index]}")
    return "\n".join(lines)
