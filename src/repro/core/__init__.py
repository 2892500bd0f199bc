"""UBfuzz core: UB generation (Algorithm 1), crash-site mapping (Algorithm 2),
differential testing, the fuzzing campaign and triage."""

from repro.core.bugs import (
    STATUS_CONFIRMED,
    STATUS_FIXED,
    STATUS_INVALID,
    STATUS_REPORTED,
    BugReport,
    BugTriager,
)
from repro.core.crash_site import (
    OracleVerdict,
    classify_discrepancy,
    is_sanitizer_bug,
    is_sanitizer_bug_from_results,
)
from repro.core.differential import (
    Cell,
    ConfigOutcome,
    DifferentialResult,
    DifferentialTester,
    FNBugCandidate,
    TestConfig,
    WrongReportCandidate,
    default_configs,
)
from repro.core.fuzzer import (CampaignConfig, CampaignResult, CampaignStats,
                               FuzzingCampaign, SeedBatch)
from repro.core.insertion import UBProgram, apply_mutation
from repro.core.matching import MatchedExpr, get_matched_exprs
from repro.core.profile import ExecutionProfile, Profiler
from repro.core.synthesis import ShadowMutation, synthesize
from repro.core.ub_types import (
    ALL_UB_TYPES,
    EXPECTED_REPORT_KINDS,
    SANITIZERS_FOR_UB,
    UBType,
    detects,
    sanitizers_for,
    ub_type_of_report,
    ub_types_for_sanitizer,
)
from repro.core.ubgen import GenerationStats, UBGenerator

__all__ = [
    "STATUS_CONFIRMED", "STATUS_FIXED", "STATUS_INVALID", "STATUS_REPORTED",
    "BugReport", "BugTriager",
    "OracleVerdict", "classify_discrepancy", "is_sanitizer_bug",
    "is_sanitizer_bug_from_results",
    "Cell", "ConfigOutcome", "DifferentialResult", "DifferentialTester",
    "FNBugCandidate", "TestConfig", "WrongReportCandidate", "default_configs",
    "CampaignConfig", "CampaignResult", "CampaignStats", "FuzzingCampaign",
    "SeedBatch",
    "UBProgram", "apply_mutation",
    "MatchedExpr", "get_matched_exprs",
    "ExecutionProfile", "Profiler",
    "ShadowMutation", "synthesize",
    "ALL_UB_TYPES", "EXPECTED_REPORT_KINDS", "SANITIZERS_FOR_UB", "UBType",
    "detects", "sanitizers_for", "ub_type_of_report", "ub_types_for_sanitizer",
    "GenerationStats", "UBGenerator",
]
