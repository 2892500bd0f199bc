"""Coverage measurement over the simulated compiler internals (Table 5)."""

from repro.coverage.report import CoverageReport, merge_reports, report_from_tracker
from repro.coverage.tracker import CoverageTracker

__all__ = [
    "CoverageReport",
    "merge_reports",
    "report_from_tracker",
    "CoverageTracker",
]
