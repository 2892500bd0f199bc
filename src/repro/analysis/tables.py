"""Render campaign/experiment results as the paper's tables.

Each ``tableN_*`` function returns ``(headers, rows)`` ready to be printed
with :func:`repro.utils.text.format_table`; the benchmark harness prints
them so the regenerated table sits next to the paper's in the bench output.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.campaign import GeneratorComparison
from repro.core.bugs import STATUS_CONFIRMED, STATUS_FIXED, STATUS_INVALID, BugReport
from repro.core.fuzzer import CampaignResult
from repro.core.ub_types import ALL_UB_TYPES, SANITIZERS_FOR_UB
from repro.coverage.report import CoverageReport
from repro.sanitizers.defects import CATEGORIES

Rows = List[List[object]]
Table = Tuple[List[str], Rows]

#: The (compiler, sanitizer) columns of Table 3, in the paper's order.
TABLE3_COLUMNS = (("gcc", "asan"), ("gcc", "ubsan"),
                  ("llvm", "asan"), ("llvm", "ubsan"), ("llvm", "msan"))


def table2_sanitizer_support() -> Table:
    """Table 2: UB types supported by each sanitizer."""
    headers = ["UB", "Sanitizer"]
    rows: Rows = []
    for ub_type in ALL_UB_TYPES:
        sanitizers = ", ".join(s.replace("asan", "ASan").replace("ubsan", "UBSan")
                               .replace("msan", "MSan")
                               for s in SANITIZERS_FOR_UB[ub_type])
        rows.append([ub_type.display_name, sanitizers])
    return headers, rows


def table3_bug_status(campaign: CampaignResult) -> Table:
    """Table 3: reported/confirmed/fixed/invalid bugs per compiler+sanitizer."""
    headers = ["Status"] + [f"{c.upper()} {s.upper()}" for c, s in TABLE3_COLUMNS] + ["Total"]
    by_column: Dict[Tuple[str, str], List[BugReport]] = {col: [] for col in TABLE3_COLUMNS}
    for report in campaign.bug_reports:
        key = (report.compiler, report.sanitizer)
        if key in by_column:
            by_column[key].append(report)

    def count(column: Tuple[str, str], predicate) -> int:
        return sum(1 for report in by_column[column] if predicate(report))

    rows: Rows = []
    predicates = [
        ("Reported", lambda r: True),
        ("Confirmed", lambda r: r.status in (STATUS_CONFIRMED, STATUS_FIXED)),
        ("Fixed", lambda r: r.status == STATUS_FIXED),
        ("Invalid", lambda r: r.status == STATUS_INVALID),
    ]
    for label, predicate in predicates:
        cells: List[object] = [label]
        total = 0
        for column in TABLE3_COLUMNS:
            value = count(column, predicate)
            total += value
            cells.append(value)
        cells.append(total)
        rows.append(cells)
    return headers, rows


def table4_generator_comparison(comparison: GeneratorComparison) -> Table:
    """Table 4: number of UB programs per generator, per UB type."""
    headers = (["Generator"] + [ub.display_name for ub in ALL_UB_TYPES]
               + ["Total", "No UB"])
    rows = [comparison.row("ubfuzz"), comparison.row("music"),
            comparison.row("csmith-nosafe")]
    return headers, rows


def table5_coverage(reports: Dict[str, Dict[str, CoverageReport]]) -> Table:
    """Table 5: line/function/branch coverage per corpus and compiler."""
    headers = ["Corpus", "GCC LC", "GCC FC", "GCC BC",
               "LLVM LC", "LLVM FC", "LLVM BC"]
    corpora: List[str] = []
    for per_corpus in reports.values():
        for name in per_corpus:
            if name not in corpora:
                corpora.append(name)
    order = ["seeds", "music", "csmith-nosafe", "ubfuzz"]
    corpora.sort(key=lambda name: order.index(name) if name in order else len(order))
    rows: Rows = []
    for corpus in corpora:
        cells: List[object] = [corpus]
        for compiler in ("gcc", "llvm"):
            report = reports.get(compiler, {}).get(corpus)
            if report is None:
                cells.extend(["-", "-", "-"])
            else:
                cells.extend([f"{100 * report.line_coverage:.1f}%",
                              f"{100 * report.function_coverage:.1f}%",
                              f"{100 * report.branch_coverage:.1f}%"])
        rows.append(cells)
    return headers, rows


def table6_root_causes(campaign: CampaignResult) -> Table:
    """Table 6: bug categories according to root cause analysis."""
    headers = ["Category", "GCC", "LLVM"]
    counts: Dict[str, Dict[str, int]] = {category: {"gcc": 0, "llvm": 0}
                                         for category in CATEGORIES}
    for report in campaign.bug_reports:
        if report.category is None:
            continue
        counts.setdefault(report.category, {"gcc": 0, "llvm": 0})
        counts[report.category][report.compiler] = (
            counts[report.category].get(report.compiler, 0) + 1)
    rows = [[category, values.get("gcc", 0), values.get("llvm", 0)]
            for category, values in counts.items()]
    return headers, rows


def table_reduction_quality(records) -> Table:
    """Reduction quality per crash bucket: original vs. reduced token
    counts, predicate evaluations spent, wall-clock.

    *records* is a sequence of
    :class:`~repro.reduction.predicates.ReductionRecord` (e.g.
    ``OrchestratedCampaign.reductions``)."""
    headers = ["Bucket", "Orig tok", "Red tok", "Reduction", "Evals", "Seconds"]
    rows: Rows = []
    for record in records:
        rows.append([record.label, record.original_tokens,
                     record.reduced_tokens,
                     f"{100 * record.token_reduction:.0f}%",
                     record.predicate_evaluations,
                     f"{record.duration_seconds:.2f}"])
    return headers, rows


def table_marker_survival(result) -> Table:
    """Marker survival per surveyed (compiler, version, opt-pipeline).

    *result* is a :class:`~repro.markers.engine.MarkerCampaignResult`.
    ``Dead kept`` counts retained markers the reference executions never
    reached — the raw material of missed-optimization findings.
    """
    headers = ["Config", "Pipeline", "Planted", "Kept", "Elim", "Dead kept",
               "Survival"]
    rows: Rows = []
    for label in sorted(result.survival):
        survival = result.survival[label]
        rows.append([label, ",".join(survival.pipeline) or "-",
                     survival.planted, survival.retained,
                     survival.eliminated, survival.dead_retained,
                     f"{100 * survival.survival_rate:.0f}%"])
    return headers, rows


def table_marker_findings(result) -> Table:
    """Deduplicated marker findings, one row per bucket.

    *result* is a :class:`~repro.markers.engine.MarkerCampaignResult`;
    buckets are keyed by (kind, compiler, marker site, responsible pass)
    and ``Hits`` counts the raw findings each bucket absorbed.
    """
    headers = ["Kind", "Compiler", "Site", "Pass", "Levels", "Versions",
               "Hits"]
    rows: Rows = []
    for bucket in result.buckets.values():
        finding = bucket.representative
        rows.append([finding.kind, finding.compiler,
                     finding.marker.signature, finding.responsible_pass,
                     ",".join(bucket.opt_levels),
                     ",".join(str(v) for v in sorted(bucket.versions)),
                     bucket.count])
    return headers, rows


def table_stage_profile(profile) -> Table:
    """Where-time-goes breakdown of one campaign, per pipeline stage.

    *profile* is a :class:`~repro.telemetry.profile.CampaignProfile` (from
    :func:`repro.telemetry.load_profile`).  ``Total`` is inclusive stage
    time; ``Self`` excludes nested stages (e.g. the compiles an oracle run
    triggers), so the ``Share`` column — self time over total self time —
    sums to ~100% and answers "which stage should I optimize".
    """
    headers = ["Stage", "Calls", "Total (s)", "Self (s)", "Mean (ms)", "Share"]
    total_self = sum(stage.self_seconds for stage in profile.stages) or 1.0
    rows: Rows = []
    for stage in profile.stages:
        rows.append([stage.name, stage.calls,
                     f"{stage.total_seconds:.3f}",
                     f"{stage.self_seconds:.3f}",
                     f"{stage.mean_ms:.2f}",
                     f"{100 * stage.self_seconds / total_self:.1f}%"])
    return headers, rows


def table_campaign_recurrence(campaigns: Sequence[dict]) -> Table:
    """Per-campaign new-vs-recurrent bucket split, oldest campaign first.

    *campaigns* is the output of
    :meth:`~repro.corpusdb.db.FindingsDB.campaign_recurrence`.  The
    ``Recurrent`` column is the cross-campaign dedup payoff: buckets the
    campaign re-found that an earlier campaign had already recorded.
    """
    headers = ["Campaign", "Mode", "Buckets", "New", "Recurrent", "Hits"]
    rows: Rows = []
    for campaign in campaigns:
        rows.append([(campaign["key"] or "?")[-40:], campaign["mode"],
                     campaign["buckets_hit"], campaign["new_buckets"],
                     campaign["recurrent_buckets"], campaign["hits"]])
    return headers, rows


def table_attribution(attributions: Sequence) -> Table:
    """Bisection attributions: one row per finding sent through the bisector.

    *attributions* is a sequence of
    :class:`~repro.triage.attribution.Attribution`.  ``Responsible`` is the
    timeline event id the bisector pinned (``optimizer-defect-introduced:
    gcc-11:constprop``-style), ``Window`` the contiguous affected-version
    range, and ``Probes`` the number of compile-and-check probes spent —
    bounded by :func:`~repro.triage.bisector.probe_budget`.
    """
    headers = ["Bucket", "Kind", "Compiler", "Window", "Responsible",
               "Status", "Probes"]
    rows: Rows = []
    for attribution in attributions:
        result = attribution.result
        rows.append([attribution.slug, attribution.kind, attribution.compiler,
                     result.window_label, attribution.responsible,
                     attribution.status, result.probes])
    return headers, rows


def table_known_bugs(known_bugs: Sequence[dict]) -> Table:
    """The known-bug patch database: every attributed bucket signature.

    *known_bugs* is the output of
    :meth:`~repro.corpusdb.db.FindingsDB.known_bugs`.  ``Suppressed`` counts
    campaigns that re-found the bucket after attribution and filed a
    suppression-ledger line instead of a fresh report.
    """
    headers = ["Bucket", "Kind", "Compiler", "Window", "Responsible",
               "Status", "Suppressed"]
    rows: Rows = []
    for bug in known_bugs:
        introduced = bug.get("introduced_version")
        fixed = bug.get("fixed_version")
        window = bug.get("window") or (
            f"[{introduced}, {fixed if fixed is not None else 'open'})"
            if introduced is not None else "-")
        suppressed = (f"{bug.get('suppressed_campaigns', 0)} campaign(s)"
                      if bug.get("suppressed_campaigns") else "-")
        rows.append([bug.get("slug") or bug["signature"][:40],
                     bug["kind"], bug.get("compiler") or "-", window,
                     bug["responsible"], bug["status"], suppressed])
    return headers, rows


def bug_summary_rows(reports: Sequence[BugReport]) -> Rows:
    """A flat listing of found bugs (used by examples and docs)."""
    rows: Rows = []
    for report in reports:
        rows.append([report.bug_id, report.compiler, report.sanitizer,
                     report.ub_type.display_name, report.status,
                     report.category or "-",
                     ",".join(report.affected_opt_levels) or "-"])
    return rows
