"""UBfuzz reproduction: finding false-negative bugs in sanitizer implementations.

This package reproduces, in pure Python, the system described in
"UBfuzz: Finding Bugs in Sanitizer Implementations" (ASPLOS 2024):

* :mod:`repro.cdsl`       — the C-subset frontend (lexer, parser, sema, printer);
* :mod:`repro.vm`         — the execution substrate (flat memory, interpreter,
                            tracing, profiling);
* :mod:`repro.optim`      — AST-level optimizer passes and per-compiler pipelines;
* :mod:`repro.sanitizers` — ASan / UBSan / MSan passes, runtimes and seeded
                            defect models;
* :mod:`repro.compilers`  — the simulated GCC and LLVM drivers;
* :mod:`repro.seedgen`    — Csmith-like seed generator plus MUSIC / Juliet baselines;
* :mod:`repro.core`       — the paper's contribution: shadow-statement-insertion
                            UB generation, crash-site mapping, differential
                            testing, the fuzzing campaign and triage;
* :mod:`repro.reduction`  — hierarchical test-case reduction (the paper's
                            C-Reduce step);
* :mod:`repro.markers`    — marker-based missed-optimization and
                            optimizer-regression finding (the DEAD-style
                            workload on the same toolchain);
* :mod:`repro.triage`     — revision bisection over the simulated release
                            timeline and the known-bug patch database that
                            auto-suppresses already-attributed findings;
* :mod:`repro.coverage`   — coverage measurement (Table 5);
* :mod:`repro.analysis`   — experiment drivers and table/figure renderers;
* :mod:`repro.orchestrator` — sharded worker-pool campaign execution with
                            corpus storage, crash dedup and checkpoint/resume;
* :mod:`repro.telemetry`  — structured span tracing, cross-process metrics
                            and per-stage campaign profiling.

See ``docs/ARCHITECTURE.md`` for the full pipeline walk-through and
``docs/API.md`` for the public API conventions.
"""

from repro.cdsl import analyze, parse_program, print_program
from repro.compilers import (
    ALL_OPT_LEVELS,
    CompiledBinary,
    CompileOptions,
    GccCompiler,
    LlvmCompiler,
    make_compiler,
)
from repro.core import (
    ALL_UB_TYPES,
    BugReport,
    BugTriager,
    CampaignConfig,
    CampaignResult,
    DifferentialTester,
    FuzzingCampaign,
    TestConfig,
    UBGenerator,
    UBProgram,
    UBType,
    classify_discrepancy,
    is_sanitizer_bug,
    is_sanitizer_bug_from_results,
)
from repro.markers import (
    EliminationOracle,
    MarkedProgram,
    MarkerCampaignConfig,
    MarkerCampaignResult,
    MarkerConfig,
    MarkerEngine,
    MarkerFinding,
    MarkerPlanter,
    MarkerSite,
)
from repro.orchestrator import CorpusStore, OrchestratedCampaign
from repro.reduction import (
    HierarchicalReducer,
    ReductionResult,
    make_fn_bug_predicate,
    make_marker_predicate,
    reduce_fn_candidate,
    reduce_marker_finding,
)
from repro.telemetry import (
    CampaignProfile,
    HealthMonitor,
    MetricsRegistry,
    Tracer,
    WatchView,
    configure_logging,
    load_profile,
    write_chrome_trace,
    write_folded_stacks,
)
from repro.seedgen import (
    CsmithGenerator,
    CsmithNoSafeGenerator,
    GeneratorConfig,
    MusicMutator,
    SeedProgram,
    generate_juliet_suite,
)
from repro.triage import (
    Attribution,
    BisectionResult,
    CrashProbe,
    MarkerProbe,
    RevisionBisector,
    RevisionEvent,
    attribute_bucket,
    bisect_bucket,
    release_timeline,
)
from repro.vm import ExecutionResult, SanitizerReport

__version__ = "1.0.0"

__all__ = [
    "analyze", "parse_program", "print_program",
    "ALL_OPT_LEVELS", "CompiledBinary", "CompileOptions", "GccCompiler",
    "LlvmCompiler", "make_compiler",
    "ALL_UB_TYPES", "BugReport", "BugTriager", "CampaignConfig",
    "CampaignResult", "DifferentialTester", "FuzzingCampaign",
    "TestConfig", "UBGenerator", "UBProgram", "UBType",
    "classify_discrepancy", "is_sanitizer_bug", "is_sanitizer_bug_from_results",
    "HierarchicalReducer", "ReductionResult", "make_fn_bug_predicate",
    "make_marker_predicate", "reduce_fn_candidate", "reduce_marker_finding",
    "EliminationOracle", "MarkedProgram", "MarkerCampaignConfig",
    "MarkerCampaignResult", "MarkerConfig", "MarkerEngine", "MarkerFinding",
    "MarkerPlanter", "MarkerSite",
    "CorpusStore", "OrchestratedCampaign",
    "CampaignProfile", "HealthMonitor", "MetricsRegistry", "Tracer",
    "WatchView", "configure_logging", "load_profile", "write_chrome_trace",
    "write_folded_stacks",
    "CsmithGenerator", "CsmithNoSafeGenerator", "GeneratorConfig",
    "MusicMutator", "SeedProgram", "generate_juliet_suite",
    "Attribution", "BisectionResult", "CrashProbe", "MarkerProbe",
    "RevisionBisector", "RevisionEvent", "attribute_bucket", "bisect_bucket",
    "release_timeline",
    "ExecutionResult", "SanitizerReport",
    "__version__",
]
